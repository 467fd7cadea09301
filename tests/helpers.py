"""Test-only helpers written against the public API: the definition-level
forms and weights the quantum Cartan matrix is checked against, class
functions the wreath and exponential-formula checks take as input, and the
reader of a Laurent's JSON form."""

from fractions import Fraction

from qvertex.groups import GroupData, multiplicity
from qvertex.repring import CxClassFunction, WeightXi, antipode
from qvertex.scalar import L_ZERO, Laurent, qint
from qvertex.wreath import Combo, PartitionFn, WreathClassFunction


def standard_form(f: CxClassFunction, g_: CxClassFunction) -> Laurent:
    """<f, g> = sum_c zeta_c^{-1} f(c) (S g)(c)."""
    g = f.group
    sg = antipode(g_)
    acc = L_ZERO
    for c in range(g.n_classes):
        acc = acc + (f.values[c] * sg.values[c]).scale(Fraction(1, g.zeta(c)))
    return acc


def weighted_form(xi: WeightXi, f: CxClassFunction, g_: CxClassFunction) -> Laurent:
    """<f, g>_xi = sum_c zeta_c^{-1} xi(c) f(c) (S g)(c) = <xi*f, g>."""
    return standard_form(xi.f * f, g_)


def general_xi(g: GroupData, pi: CxClassFunction, d: int) -> WeightXi:
    """xi = gamma_0 (x) [d] - pi (x) 1 for a faithful character pi of dimension d."""
    f = CxClassFunction.character(g, 0).scale(qint(d)) - pi
    return WeightXi(f, "general")


def natural_combo(g: GroupData) -> Combo:
    """Decomposition of pi into irreducible characters (<pi, gamma_i> is gamma_i's multiplicity in pi * gamma_0)."""
    multiplicities = (multiplicity(g, g.natural_char, g.char_table[0], i) for i in range(g.n_classes))
    return [(m, i, 0) for i, m in enumerate(multiplicities) if m]


def sigma_n_gamma(g: GroupData, i: int, n: int, k: int = 0) -> WreathClassFunction:
    """sigma_n(gamma_i (x) q^k): value n gamma_i(c) q^{nk} on single-n-cycle types."""
    vals: dict[PartitionFn, Laurent] = {}
    for c in range(g.n_classes):
        rho = tuple((n,) if cc == c else () for cc in range(g.n_classes))
        vals[rho] = Laurent.q_pow(n * k, g.char_table[i][c]).scale(n)
    return WreathClassFunction(g, n, vals)


def laurent_from_obj(obj) -> Laurent:
    """The Laurent whose ``to_obj()`` is obj: [[e, [N, [[i, "x_i"], ...]]], ...]."""
    f = L_ZERO
    for e, (n, pairs) in obj:
        for i, x in pairs:
            f = f + Laurent.v_pow(e, Laurent.root(n, i).scale(Fraction(x)))
    return f
