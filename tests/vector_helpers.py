"""Test-only vector helpers, written against the public FockVector API: the
read-only ``terms`` view, the constructor and ``add_term``."""

from fractions import Fraction
from math import factorial

from qvertex import vertex
from qvertex.fock import ExtState, FockContext, FockVector, LatticeContext, ext_apply_mode, mono_deg
from qvertex.scalar import L_ZERO, Laurent, qint
from qvertex.vertex import VertexEngine, VOp


def basis_shift(lat: LatticeContext, i: int) -> tuple[int, ...]:
    """The lattice point gamma_i, reduced in quotient mode."""
    e = [0] * lat.rank
    e[i] = 1
    return lat.reduce(tuple(e))


def lattice_mul_e(lat: LatticeContext, shift: tuple[int, ...], v: ExtState) -> ExtState:
    """The eps-twisted multiplication e^shift (quotient-aware)."""
    out = ExtState.zero()
    for (mono, beta), c in v.terms.items():
        sign = lat.cocycle_sign(shift, beta)
        rsign, newb = lat.reduce_signed(tuple(s + b for s, b in zip(shift, beta)))
        out.add_term((mono, newb), c if sign * rsign == 1 else -c)
    return out


def ext_form(ctx: FockContext, u: ExtState, v: ExtState) -> Laurent:
    """<u1 (x) e^a, u2 (x) e^b> = delta_ab <u1, u2>."""
    by_beta_u: dict[tuple[int, ...], FockVector] = {}
    by_beta_v: dict[tuple[int, ...], FockVector] = {}
    for (mono, beta), c in u.terms.items():
        by_beta_u.setdefault(beta, FockVector()).add_term(mono, c)
    for (mono, beta), c in v.terms.items():
        by_beta_v.setdefault(beta, FockVector()).add_term(mono, c)
    acc = L_ZERO
    for beta, fu in by_beta_u.items():
        fv = by_beta_v.get(beta)
        if fv is not None:
            acc = acc + ctx.form(fu, fv)
    return acc


def half_vertex(eng: VertexEngine, kind: str, i: int, l_v: int, state: ExtState, budget: int) -> dict[int, ExtState]:
    """z-power coefficients of H+/H-/E+/E- with twist q^{l_v/2} applied to state.

    Creation halves return orders 0..budget; annihilation halves all orders
    that survive (bounded by the state's Fock degree).

    Sign bookkeeping: the creation exponential is exp(+sum (1/n) a_{-n}(w)...)
    and the annihilation one exp(-sum (1/n) a_n(w)...), so H+ and E- use
    w = +gamma_i while E+ and H- use w = -gamma_i.
    """
    sign = 1 if kind in ("H+", "E-") else -1
    out: dict[int, ExtState] = {}
    if kind in ("H+", "E+"):
        op = VOp(i, sign, cre_v=-l_v, ann_v=0, zqv=0, label=kind)
        for a in range(budget + 1):
            acc = ExtState.zero()
            for (mono, beta), coeff in state.terms.items():
                for m_cre, c_cre in eng.cre_terms(op, a):
                    acc.add_term((tuple(sorted(mono + m_cre)), beta), coeff * c_cre)
            out[a] = acc
    else:
        op = VOp(i, sign, cre_v=0, ann_v=l_v, zqv=0, label=kind)
        for (mono, beta), coeff in state.terms.items():
            for b, m_ann, c_ann in eng.ann_expand(op, mono):
                acc = out.setdefault(-b, ExtState.zero())
                acc.add_term((m_ann, beta), coeff * c_ann)
    return {k: v for k, v in out.items() if not v.is_zero or k == 0}


# -- the toroidal Heisenberg-side generators, term by term on the whole state


def ref_a_mode(ctx: FockContext, i: int, m: int, v: ExtState) -> ExtState:
    """a_i(m) = ([m]/m) a_m(gamma_i) on the Fock factor."""
    return ext_apply_mode(ctx, m, i, v).scale(qint(abs(m)).scale(Fraction(1, abs(m))))


def ref_k_diag(lat: LatticeContext, i: int, power: int, v: ExtState) -> ExtState:
    """k_i^power: each term u (x) e^beta times q^{power <gamma_i, beta>_1}."""
    out = ExtState.zero()
    for (mono, beta), c in v.terms.items():
        out.add_term((mono, beta), c * Laurent.q_pow(power * lat.pairing_row(i, beta)))
    return out


def ref_psi_mode(ctx: FockContext, lat: LatticeContext, k_eff: int, i: int, mode_sign: int, coeff_sign: int,
                 j: int, v: ExtState) -> ExtState:
    """The w^{-mode_sign j} coefficient of k_i^cs exp(X) v with
    X = cs (q - q^-1) sum_{n>0} a_i(mode_sign n) q^{k n/2} w^{-mode_sign n},
    summed as X^r / r! over r, X^r kept by w-order (ordered compositions of j)."""
    qdiff = Laurent.q_pow(1) - Laurent.q_pow(-1)
    powers = {0: ref_k_diag(lat, i, coeff_sign, v)}
    out = powers[0] if j == 0 else ExtState.zero()
    for r in range(1, j + 1):
        nxt: dict[int, ExtState] = {}
        for d, u in powers.items():
            for n in range(1, j - d + 1):
                w = ref_a_mode(ctx, i, mode_sign * n, u).scale((qdiff * Laurent.v_pow(k_eff * n)).scale(coeff_sign))
                nxt[d + n] = nxt[d + n] + w if d + n in nxt else w
        powers = nxt
        if j in powers:
            out = out + powers[j].scale(Laurent.of(Fraction(1, factorial(r))))
    return out


# -- the OPE right side as an N table of :A(z)B(w): convolved with the factor


def ref_normal_pair_table(eng: VertexEngine, opA: VOp, opB: VOp, keys: set[tuple[int, int]],
                          state: ExtState) -> dict[tuple[int, int], ExtState]:
    """N[za, wb]: the coefficient of z^{za} w^{wb} in :opA(z) opB(w): v, for each
    requested key, one Laurent product per term."""
    lat = eng.lat
    shiftA, shiftB = eng.shift_vec(opA.i, opA.w_sign), eng.shift_vec(opB.i, opB.w_sign)
    out: dict[tuple[int, int], dict] = {}
    for (mono, beta), coeff in state.terms.items():
        sA = opA.w_sign * lat.pairing_row(opA.i, beta)
        sB = opB.w_sign * lat.pairing_row(opB.i, beta)
        rsign, shift = lat.reduce_signed(tuple(a + b + c for a, b, c in zip(shiftA, shiftB, beta)))
        sign = rsign * lat.cocycle_sign(tuple(a + b for a, b in zip(shiftA, shiftB)), beta)
        v0 = (opA.zqv * sA + opB.zqv * sB
              + eng.p_factor_v(opA.i, opA.w_sign, beta) + eng.p_factor_v(opB.i, opB.w_sign, beta))
        lead = Laurent.v_pow(v0, coeff.scale(sign))
        for bA, mA, cA in eng.ann_expand(opA, mono):
            for bB, mB, cB in eng.ann_expand(opB, mA):
                cAB = lead * cA * cB
                for za, wb in keys:
                    aA, aB = za - sA + bA, wb - sB + bB
                    if aA < 0 or aB < 0:
                        continue
                    acc = out.setdefault((za, wb), {})
                    for mcB, ccB in eng.cre_terms(opB, aB):
                        cABB = cAB * ccB
                        for mcA, ccA in eng.cre_terms(opA, aA):
                            key = (tuple(sorted(mB + mcB + mcA)), shift)
                            acc[key] = acc.get(key, L_ZERO) + cABB * ccA
    return {zw: ExtState(t) for zw, t in out.items()}


def ref_annihilation_bound(eng: VertexEngine, state: ExtState) -> int:
    """A bound on how deep a w-side annihilation can bite into the state, plus 2."""
    deg = max((mono_deg(m) for m, _ in state.terms), default=0)
    return deg + max((abs(eng.lat.pairing_row(i, beta)) for _, beta in state.terms for i in range(eng.rank)),
                     default=0) + 2


def ref_ope_rhs(eng: VertexEngine, opA: VOp, opB: VOp, window: int,
                states: list[ExtState]) -> list[dict[tuple[int, int], ExtState]]:
    """eps * scalar * z^g * f(w/z) :opA(z) opB(w): v per state and mode pair (m, n):
    sum_d (eps * scalar * f_d) N[-m-1-g+d, -n-1-d], the factor (read through
    vertex.signed_ope_factor) expanded to 2 * window + the bound + 6."""
    D = 2 * window + max((ref_annihilation_bound(eng, s) for s in states), default=4) + 6
    g_ab, scalar, series = vertex.signed_ope_factor(eng, opA, opB, D)
    factors = [(d, scalar * fd) for d, fd in enumerate(series.coeffs) if not fd.is_zero]
    modes = range(-window, window + 1)
    keys = {(-m - 1 - g_ab + d, -n - 1 - d) for m in modes for n in modes for d, _ in factors}
    out = []
    for v in states:
        table = ref_normal_pair_table(eng, opA, opB, keys, v)
        rhs = {}
        for m in modes:
            for n in modes:
                acc = ExtState.zero()
                for d, fs in factors:
                    term = table.get((-m - 1 - g_ab + d, -n - 1 - d))
                    if term is not None:
                        acc = acc + term.scale(fs)
                rhs[(m, n)] = acc
        out.append(rhs)
    return out
