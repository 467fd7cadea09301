"""Relation suites for quantum toroidal / affine algebras under the vertex map.

The generators are realised at level one (q^c acts as q):

    a_i(m)   ->  ([m]/m) a_m(gamma_i)
    x_i^s(n) ->  modes of the normalised vertex operator with both exponential
                 twists q^{s k n / 2} and plain zero mode e^{s gamma_i} z^{s d_i}
    k_i      ->  q^{<gamma_i, .>_1} on lattice points
    psi_i^{+-} -> k_i^{+-1} exp(+-(q - q^{-1}) sum_{n>0} a_i(+-n) q^{-+kn/2} w^{-+n})

The shift k is +-1; k = -1 realises the relation set in its standard
orientation and k = +1 the q <-> q^{-1} mirror; these are the only two
shifts for which the delta-function commutator closes, and both are
exercised.  Expected coefficients are generated uniformly from the
quantum Cartan matrix A^{q^m}: wherever A's entry is the q-integer deformation
of the integer Cartan entry this reproduces [( alpha_i | alpha_j ) m]-type
coefficients verbatim; for the order-2 cyclic group the off-diagonal entry is
the constant -2 and the engine states the relations with that entry (the
deformed-bracket form is provably false there, see the README).

In type-A p-mode the commutation relation multipliers carry p^{b_ji}
(the transpose of the printed skew matrix; pinned by exact computation).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

from .fock import ExtState, FockContext, ext_apply_mode, monomial_states, mono_deg
from .groups import GroupData
from .report import CheckReport, first_mismatch, first_nonzero
from .repring import WeightXi, first_xi, second_xi
from .scalar import L_ONE, KeyedSum, Laurent, keyed_times, qbinom, qint
from .vertex import VOp, VertexEngine, fj_x
from .wreath import partitions

VARIANTS = ("toroidal_plus", "toroidal_minus", "affine", "typeA_qp")
SERRE_WINDOW = 1  # Serre relations are checked on the modes -1..1 of each z_i


@dataclass
class SuiteConfig:
    group_spec: str
    xi: str = "first"  # "first" | "second"
    variant: str = "toroidal_plus"
    k: int = -1
    p_exp: int | None = None
    max_degree: int = 2
    max_mode: int = 2
    max_states: int = 10

    def to_obj(self) -> dict:
        return {
            "group": self.group_spec,
            "xi": self.xi,
            "variant": self.variant,
            "k": self.k,
            "p_exp": self.p_exp,
            "max_degree": self.max_degree,
            "max_mode": self.max_mode,
            "max_states": self.max_states,
            "serre_window": SERRE_WINDOW,
        }

    @staticmethod
    def reads_p_exp(variant: str | None, xi: str) -> bool:
        """The weight rule: p = q^{p_exp} is read by the second weight and by
        the typeA_qp variant, and by nothing else (variant None: no suite)."""
        return variant == "typeA_qp" or xi == "second"


class RepMap:
    """Realisation of the generators on (a sub/quotient space of) the Fock space.

    Every generator -- a_i(m), k_i^{+-1}, the psi half-current modes and
    x_i^s(n) -- applies through `_apply`, which builds the image of each term
    (a column) once per RepMap.  Columns are keyed by the generator's
    data (for x the operator's data, not (i, s)) and its mode.  A column is
    the image's keyed value (scalar.KeyedSum), with its (key, v-exponent)
    pairs interned across columns, so applying a generator is one int product
    and one exponent add per (input term, column term).

    A generator reads the lattice point beta only through its step at beta,
    (mode offset, sign, beta', v-exponent).  So the column of u (x) e^beta is
    the origin column, the image of u (x) e^0 at the mode plus the offset,
    translated: times the ratio of beta's sign to the origin's, moved to beta'
    and shifted by the difference of the v-exponents.  x's step is
    `VertexEngine.lattice_step` (see vertex.py); an x origin column is the
    creation stage for its mode on one annihilation stage per (operator,
    monomial), uncut, since the creation stage drops the z-orders a mode
    cannot reach.  Each x operator has one record (its generator key, step and
    origin builder, which holds its annihilation stages), built on its first
    use and keyed by the operator, so a replaced x_op gets records of its own.
    a_i(m) steps to beta and does nothing else; k_i^p and the psi modes, whose
    k_i factor alone reads beta, multiply by q^{p <gamma_i, beta>_1}.

    The origin column is the column at e^0, stored with the others.  The
    column and step tables and the x records live for one suite run and are
    its only caches; none refers back to the RepMap.  A relation
    check reads the images of whole states it rereads (x_j^s(n) v_t, ...)
    through functools.cache locals, called with (index, sign, mode, state
    index), which die with the check or with the block of it that rereads them.
    An image read once goes into the case's residual: a_mode and x_mode take
    an optional KeyedSum `into`, and with one they add the image there and
    build no vector.
    """

    def __init__(self, group: GroupData, cfg: SuiteConfig):
        self.cfg = cfg
        self.group = group
        self.params = {"variant": cfg.variant, "k": cfg.k}
        if cfg.k not in (-1, 1):
            raise ValueError("level-one vertex representations exist for k = +-1 only")
        if cfg.variant == "typeA_qp" and cfg.p_exp is None:
            raise ValueError("typeA_qp requires p_exp")
        if cfg.reads_p_exp(cfg.variant, cfg.xi):
            # the second weight is the two-parameter one: p-mode at p = q^{p_exp}
            xi: WeightXi = second_xi(group, 1 if cfg.p_exp is None else cfg.p_exp)
        else:
            xi = first_xi(group)
        self.fock = FockContext(xi)
        quotient = cfg.variant == "typeA_qp" and xi.p_exp in (1, -1)
        self.eng = VertexEngine(self.fock, quotient=quotient, p_exp=xi.p_exp)
        # the effective shift: toroidal_minus is the mirrored correspondence
        self.k_eff = cfg.k if cfg.variant != "toroidal_minus" else -cfg.k
        self.affine = cfg.variant == "affine"
        self.indices = list(range(1, group.n_classes)) if self.affine else list(range(group.n_classes))
        self._x_ops = {(i, s): fj_x(i, s, self.k_eff) for i in range(group.n_classes) for s in (1, -1)}
        self._origin_point = (0,) * group.n_classes
        # (generator, mode) -> {(monomial, beta): keyed value of the image}, built on first read
        self._columns: dict[tuple, dict] = {}
        self._x_records: dict[VOp, tuple] = {}  # x operator -> (generator, step, origin), see x_mode
        self._steps: dict[tuple, tuple] = {}  # (generator, beta) -> lattice step
        self._interned: dict = {}

    def _apply(self, gen: tuple, n: int, v: ExtState, step, origin, into: KeyedSum | None = None):
        """sum_t c_t image(t) over v's nonzero terms c_t t, each column image(t) built once.

        gen names the generator and n its mode, so two generators never share
        a column; step(beta) is the generator's lattice step at beta and
        origin(N, mono) its image of mono (x) e^0 at mode N.  The tables
        keep no closure over the RepMap, so it is freed when its suite ends,
        without waiting for the cycle collector.  Given a KeyedSum into, the
        image is added into it and no vector is built (None is returned);
        otherwise the image is gathered in a sum of its own and returned.
        """
        f = v.f
        entries = f.entries()
        cols = self._columns.get((gen, n))
        if cols is None:
            cols = self._columns[(gen, n)] = {}
        for (key, _), _ in entries:
            if key not in cols:
                cols[key] = self._column(gen, n, step, origin, *key)
        if into is None and len(entries) == 1:
            ((key, e), x), = entries
            return ExtState.packed(keyed_times(cols[key], e, f, x))
        acc = KeyedSum() if into is None else into
        for (key, e), x in entries:
            acc.add_all(cols[key], e, f, x)
        if into is None:
            return ExtState.packed(acc.value())

    def _step(self, gen: tuple, step, beta: tuple[int, ...]) -> tuple:
        st = self._steps.get((gen, beta))
        if st is None:
            st = self._steps[(gen, beta)] = step(beta)
        return st

    def _column(self, gen: tuple, n: int, step, origin, mono, beta) -> Laurent:
        """The column of mono (x) e^beta: the origin column at the shifted mode, translated."""
        offset, sign, point, ev = self._step(gen, step, beta)
        _, sign0, _, ev0 = self._step(gen, step, self._origin_point)
        origins = self._columns.setdefault((gen, n + offset), {})
        okey = (mono, self._origin_point)
        col = origins.get(okey)
        if col is None:
            col = origins[okey] = origin(n + offset, mono).f
        if col.is_zero or beta == self._origin_point:
            return col
        intern = self._interned.setdefault
        t = {}
        de = ev - ev0
        for ((m, _), e), x in col.entries():
            k = (m, point)
            ke = (intern(k, k), e + de)
            t[intern(ke, ke)] = x
        col = col.with_entries(t)
        return col if sign == sign0 else -col

    def _unit(self, mono) -> ExtState:
        """mono (x) e^0."""
        return ExtState.unit((mono, self._origin_point))

    # -- generators

    def x_op(self, i: int, sign: int) -> VOp:
        return self._x_ops[(i, sign)]

    def x_mode(self, i: int, sign: int, n: int, v: ExtState, into: KeyedSum | None = None):
        """x_i^sign(n) v, through the record of the operator x_op(i, sign); added
        into `into` when given (see _apply)."""
        if v.is_zero:
            return None if into is not None else ExtState.zero()
        op = self.x_op(i, sign)
        rec = self._x_records.get(op)
        if rec is None:
            rec = self._x_records[op] = _x_record(self.eng, self._origin_point, op)
        gen, step, origin = rec
        return self._apply(gen, n, v, step, origin, into)

    def _k_step(self, i: int, power: int):
        """The lattice step of k_i^power: q^{power <gamma_i, beta>_1} at beta."""
        return lambda beta: (0, 1, beta, 2 * power * self.eng.lat.pairing_row(i, beta))

    def a_mode(self, i: int, m: int, v: ExtState, into: KeyedSum | None = None):
        """a_i(m) = ([m]/m) a_m(gamma_i); added into `into` when given (see _apply)."""
        if m == 0:
            raise ValueError("a_i(0) is not a generator here")
        if v.is_zero:
            return None if into is not None else ExtState.zero()

        def origin(m: int, mono) -> ExtState:
            return ext_apply_mode(self.fock, m, i, self._unit(mono)).scale(
                qint(abs(m)).scale(Fraction(1, abs(m)))
            )

        return self._apply(("a", i), m, v, self._k_step(i, 0), origin, into)

    def k_diag(self, i: int, v: ExtState, power: int = 1) -> ExtState:
        """k_i^power: q^{power <gamma_i, beta>_1} on the lattice point beta."""
        if v.is_zero:
            return ExtState.zero()
        return self._apply(
            ("k", i, power), 0, v, self._k_step(i, power), lambda _, mono: self._unit(mono)
        )

    def psi_mode(self, i: int, mode_sign: int, coeff_sign: int, j: int, v: ExtState) -> ExtState:
        """Mode j (coefficient of w^{-mode_sign*j}; zero for j < 0) of the half-current

            k_i^{coeff_sign} exp(coeff_sign (q-q^-1) sum_{n>0} a_i(mode_sign*n)
                                 q^{k n/2} w^{-mode_sign*n}).

        The comm3 check combines (mode_sign, coeff_sign) = (+1, o) and (-1, -o)
        with o = -k: at k = -1 these are the printed psi^+ / psi^-.  The
        exponential is built on mono (x) e^0, where k_i is one; the step
        carries k_i^{coeff_sign}.
        """
        if v.is_zero:
            return ExtState.zero()

        def origin(j: int, mono) -> ExtState:
            qdiff = Laurent.q_pow(1) - Laurent.q_pow(-1)
            base = self._unit(mono)
            terms = []
            for lam in partitions(j):
                term = base
                coeff = Laurent.one()
                for part in lam:
                    term = self.a_mode(i, mode_sign * part, term)
                    coeff = coeff * qdiff * Laurent.v_pow(self.k_eff * part)
                denom = prod(factorial(c) for c in Counter(lam).values())
                terms.append((term, coeff.scale(Fraction(sign_pow(coeff_sign, len(lam)), denom))))
            return ExtState.lincomb(terms)

        return self._apply(("psi", i, mode_sign, coeff_sign), j, v, self._k_step(i, coeff_sign), origin)

    # -- deterministic test states

    def test_states(self) -> list[ExtState]:
        cfg = self.cfg
        g = self.group
        rank = g.n_classes
        lat = self.eng.lat
        points = [(0,) * rank]
        for i in self.indices:
            for s in (1, -1):
                e = [0] * rank
                e[i] = s
                points.append(lat.reduce(tuple(e)))
        points = sorted(set(points))
        monos = monomial_states(g, cfg.max_degree, indices=self.indices)
        states = []
        for mv in monos:
            (mono, _), = ((m, c) for m, c in mv.terms.items())
            for beta in points:
                states.append((mono_deg(mono) + sum(abs(b) for b in beta), mono, beta))
        states.sort()
        out = [ExtState.point(m, b) for _, m, b in states[: cfg.max_states]]
        return out


def _x_record(eng: VertexEngine, origin_point: tuple[int, ...], op: VOp) -> tuple:
    """(generator, step, origin) of op for RepMap._apply, with op's annihilation
    table at e^0 (one stage per monomial) in the origin builder; nothing here
    refers to the RepMap."""
    gen = ("x", op.i, op.w_sign, op.cre_v, op.ann_v, op.zqv)
    ann: dict = {}  # monomial -> annihilation stage of mono (x) e^0

    def origin(N: int, mono) -> ExtState:
        table = ann.get(mono)
        if table is None:
            # b - <w, 0> = b >= 0: no z-order is cut
            table = ann[mono] = eng.annihilation_stage(op, ExtState.unit((mono, origin_point)), -1)
        return eng.creation_stage(op, N, table)

    return gen, partial(eng.lattice_step, op), origin


def sign_pow(sign: int, n: int) -> int:
    return 1 if sign > 0 or n % 2 == 0 else -1


# --------------------------------------------------------------------------
# relation checks


NO_MODE = "the mode window holds no nonzero mode (max_mode 0)"


def _say_why_empty(report: CheckReport, states: list[ExtState], reason: str) -> CheckReport:
    """A check that ran no case says why: there is no test state, or the reason given."""
    if not report.n_cases:
        report.notes.append(f"no case: {'no test state' if not states else reason}")
    return report


def check_heisenberg_rel(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """[a_i(m), a_j(n)] = delta_{m,-n} ([m] A_ij^{q^m} [m] / m) at c = 1.

    Each a_i(m) a_j(n) v_t is built once per check, for the case (i, j, m, n)
    and its mirror (j, i, n, m), on a_j(n) v_t, also built once.  A case is
    judged by its residual, the two products and -coeff v_t added into one
    KeyedSum; only a failing case builds its two sides.
    """
    cfg = rep.cfg
    modes = [m for m in range(-cfg.max_mode, cfg.max_mode + 1) if m]
    a1 = cache(lambda i, m, t: rep.a_mode(i, m, states[t]))  # a_i(m) v_t
    a2 = cache(lambda i, m, j, n, t: rep.a_mode(i, m, a1(j, n, t)))  # a_i(m) a_j(n) v_t

    def sides(i, j, m, n, t, coeff):
        rhs = states[t].scale(coeff) if m == -n else ExtState.zero()
        return f"(i={i},j={j},m={m},n={n},state={t})", rhs, a2(i, m, j, n, t) - a2(j, n, i, m, t)

    def cases():
        for i in rep.indices:
            for j in rep.indices:
                for m in modes:
                    coeff = (qint(abs(m)) ** 2).scale(Fraction(1, m)) * rep.fock.pair_pow(i, j, m)
                    minus_coeff = -coeff
                    for n in modes:
                        for t, v in enumerate(states):
                            res = KeyedSum()
                            res.add_all(a2(i, m, j, n, t).f, 0, L_ONE, 1)
                            res.add_all(a2(j, n, i, m, t).f, 0, L_ONE, -1)
                            if m == -n:
                                res.add_product(v.f, minus_coeff)
                            yield res, partial(sides, i, j, m, n, t, coeff)

    return _say_why_empty(first_nonzero("toroidal.heisenberg", rep.params, cases()), states, NO_MODE)


def check_a_x(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """[a_i(m), x_j^s(n)] = s ([m]/m) A_ij^{q^m} q^{s k |m|/2} x_j^s(m+n).

    x_j^s(n) v_t and -a_i(m) v_t are built once per check; the products of
    two generators are all distinct and are added straight into the case's
    residual, with x_j^s(m+n) v_t times -coeff; only a failing case builds
    its two sides.
    """
    cfg = rep.cfg
    modes = range(-cfg.max_mode, cfg.max_mode + 1)
    x1 = cache(lambda j, s, n, t: rep.x_mode(j, s, n, states[t]))  # x_j^s(n) v_t
    minus_a1 = cache(lambda i, m, t: -rep.a_mode(i, m, states[t]))  # -a_i(m) v_t

    def sides(i, j, s, m, n, t, coeff):
        lhs = rep.a_mode(i, m, x1(j, s, n, t)) - rep.x_mode(j, s, n, -minus_a1(i, m, t))
        return f"(i={i},j={j},s={s},m={m},n={n},state={t})", x1(j, s, m + n, t).scale(coeff), lhs

    def cases():
        for i in rep.indices:
            for j in rep.indices:
                for s in (1, -1):
                    for m in modes:
                        if m == 0:
                            continue
                        coeff = (
                            qint(m).scale(Fraction(s, m))
                            * rep.fock.pair_pow(i, j, m)
                            * Laurent.v_pow(s * rep.k_eff * abs(m))
                        )
                        minus_coeff = -coeff
                        for n in modes:
                            for t in range(len(states)):
                                res = KeyedSum()
                                rep.a_mode(i, m, x1(j, s, n, t), into=res)
                                rep.x_mode(j, s, n, minus_a1(i, m, t), into=res)
                                res.add_product(x1(j, s, m + n, t).f, minus_coeff)
                                yield res, partial(sides, i, j, s, m, n, t, coeff)

    return _say_why_empty(first_nonzero("toroidal.a_x", rep.params, cases()), states, NO_MODE)


def _xx_multipliers(rep: RepMap, i: int, j: int, s: int):
    """Multiplier polynomials (P_L, P_R) for the xx relation, as {(zpow,wpow): coeff}.

    P_L x_i(z) x_j(w) = x_j(w) x_i(z) P_R.  For deformed Cartan entries this is
    the printed linear relation with M = q^{-s k g_ij} (and p^{b_ji} in p-mode);
    for the A1 constant entry the factors appear squared.
    """
    g_ij = rep.eng.lat.gram[i][j]
    k = rep.k_eff
    one = Laurent.one()
    if g_ij == 0:
        return {(0, 0): one}, {(0, 0): one}
    M = Laurent.q_pow(-s * k * g_ij)
    entry = rep.fock.pair_pow(i, j, 1)
    if g_ij == -2 and entry == Laurent.of(-2):
        c = Laurent.q_pow(s * k)
        return (
            {(2, 0): one, (1, 1): c.scale(-2), (0, 2): c * c},
            {(2, 0): c * c, (1, 1): c.scale(-2), (0, 2): one},
        )
    if rep.eng.p_exp is not None and g_ij == -1:
        pb = Laurent.q_pow(-rep.eng.p_exp * rep.eng.bmat[i][j])  # p^{b_ji}
        return ({(1, 0): pb, (0, 1): -M}, {(1, 0): pb * M, (0, 1): -one})
    return ({(1, 0): one, (0, 1): -M}, {(1, 0): M, (0, 1): -one})


def check_xx(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """P_L(z, w) x_i^s(z) x_j^s(w) = x_j^s(w) x_i^s(z) P_R(z, w), mode by mode.

    x_j^s(n) v_t and x_i^s(a) x_j^s(b) v_t are built once per check: block
    (i, j, s)'s left side and block (j, i, s)'s right side read the same
    products, and each case reads them at several modes.  For i != j a case's
    two sides read different products.  A case is judged by its residual,
    the products times P_L's and -P_R's coefficients added into one
    KeyedSum; only a failing case builds its two sides.
    """
    cfg = rep.cfg
    modes = range(-cfg.max_mode, cfg.max_mode + 1)
    x1 = cache(lambda j, s, n, t: rep.x_mode(j, s, n, states[t]))  # x_j^s(n) v_t
    x2 = cache(lambda i, a, j, b, s, t: rep.x_mode(i, s, a, x1(j, s, b, t)))  # x_i^s(a) x_j^s(b) v_t

    def sides(i, j, s, m, n, t, PL, PR):
        lhs = ExtState.lincomb((x2(i, m + u, j, n + w, s, t), c) for (u, w), c in PL.items())
        rhs = ExtState.lincomb((x2(j, n + w, i, m + u, s, t), c) for (u, w), c in PR.items())
        return f"(i={i},j={j},s={s},m={m},n={n},state={t})", rhs, lhs

    def cases():
        for i in rep.indices:
            for j in rep.indices:
                for s in (1, -1):
                    PL, PR = _xx_multipliers(rep, i, j, s)
                    minus_PR = [(uw, -c) for uw, c in PR.items()]
                    for m in modes:
                        for n in modes:
                            for t in range(len(states)):
                                res = KeyedSum()
                                for (u, w), c in PL.items():
                                    res.add_product(x2(i, m + u, j, n + w, s, t).f, c)
                                for (u, w), c in minus_PR:
                                    res.add_product(x2(j, n + w, i, m + u, s, t).f, c)
                                yield res, partial(sides, i, j, s, m, n, t, PL, PR)

    return first_nonzero("toroidal.xx", rep.params, cases())


def check_xpxm(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """[x_i^+(m), x_j^-(n)] = delta_ij (q^{om} Psi^+_{m+n} - q^{-om} Psi^-_{-(m+n)})/(q-q^-1).

    o = -k; the Psi-modes are the normal-ordered residues at the delta supports
    z = q^{-k} w and z = q^{k} w (cross-validated on vacuum and one-particle
    states, as the two delta-terms only make sense through this extraction).
    A case is judged by the residual of the relation times (q-q^-1): x_i^+(m)
    adds its image of (q-q^-1) x_j^-(n) v_t and x_j^-(n) its image of
    -(q-q^-1) x_i^+(m) v_t, each built once per check, straight into one
    KeyedSum, and the Psi modes go in with coefficients -o q^{om} and
    o q^{-om}.  Only a failing case builds its two sides, the left one from
    x^{+-}(.) v_t rebuilt unscaled.
    """
    cfg = rep.cfg
    modes = range(-cfg.max_mode, cfg.max_mode + 1)
    o = -rep.k_eff
    qdiff = Laurent.q_pow(1) - Laurent.q_pow(-1)
    scaled = {1: -qdiff, -1: qdiff}
    x1 = cache(lambda j, s, n, t: rep.x_mode(j, s, n, states[t]).scale(scaled[s]))  # -s (q-q^-1) x_j^s(n) v_t

    def psi_terms(i, m, n, v, c_plus, c_minus):
        """The Psi modes of the right side times (q-q^-1), with the coefficients given."""
        terms = []
        if m + n >= 0:
            terms.append((rep.psi_mode(i, 1, o, m + n, v), c_plus))
        if m + n <= 0:
            terms.append((rep.psi_mode(i, -1, -o, -(m + n), v), c_minus))
        return terms

    def sides(i, j, m, n, t, c_plus, c_minus):
        v = states[t]
        lhs = rep.x_mode(i, 1, m, rep.x_mode(j, -1, n, v)) - rep.x_mode(j, -1, n, rep.x_mode(i, 1, m, v))
        rhs = ExtState.lincomb(psi_terms(i, m, n, v, c_plus, -c_minus) if i == j else ())
        return f"(i={i},j={j},m={m},n={n},state={t})", rhs, lhs.scale(qdiff)

    def cases():
        for i in rep.indices:
            for j in rep.indices:
                for m in modes:
                    c_plus = Laurent.q_pow(o * m).scale(o)
                    c_minus = Laurent.q_pow(-o * m).scale(o)
                    minus_c_plus = -c_plus
                    for n in modes:
                        for t, v in enumerate(states):
                            res = KeyedSum()
                            rep.x_mode(i, 1, m, x1(j, -1, n, t), into=res)
                            rep.x_mode(j, -1, n, x1(i, 1, m, t), into=res)
                            if i == j:
                                for psi, c in psi_terms(i, m, n, v, minus_c_plus, c_minus):
                                    res.add_product(psi.f, c)
                            yield res, partial(sides, i, j, m, n, t, c_plus, c_minus)

    return first_nonzero("toroidal.xpxm", rep.params, cases())


def check_serre(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """Sym over z_1..z_N of sum_s (-1)^s [N;s] x_i...x_j...x_i annihilates everything.

    A chain is a word of N + 1 letters x_idx^+(mode), applied to v_t from
    the right.  Its right-hand suffixes of up to N letters are shared by many
    chains: each is built once per (i, j) block, on its own suffix, through
    the block's functools.cache local.  A whole chain belongs to one case
    only, so it is added to that case's residual, one KeyedSum, and dropped;
    the sum is normalised only for a failing case.
    """
    W = SERRE_WINDOW

    def sides(i, j, modes, n, t, res):
        return f"(i={i},j={j},modes={modes},n={n},state={t})", ExtState.zero(), ExtState.packed(res.value())

    def cases():
        def image(letters, t):
            """v_t under the letters, in the order applied, all but the last read through prefix."""
            idx, mm = letters[-1]
            return rep.x_mode(idx, 1, mm, prefix(letters[:-1], t) if len(letters) > 1 else states[t])

        for i in rep.indices:
            for j in rep.indices:
                g_ij = rep.eng.lat.gram[i][j]
                if i == j or g_ij >= 0:
                    continue
                N = 1 - g_ij
                signed = [qbinom(N, s).scale(-1 if s % 2 else 1) for s in range(N + 1)]
                prefix = cache(image)  # images under the first N or fewer letters of a chain
                for modes in combinations_with_replacement(range(-W, W + 1), N):
                    perms = sorted(set(permutations(modes)))
                    for n in range(-W, W + 1):
                        chains = [
                            (
                                tuple((i, mm) for mm in reversed(perm[s_pos:]))
                                + ((j, n),)
                                + tuple((i, mm) for mm in reversed(perm[:s_pos])),
                                signed[s_pos],
                            )
                            for perm in perms
                            for s_pos in range(N + 1)
                        ]
                        for t in range(len(states)):
                            res = KeyedSum()
                            for letters, c in chains:
                                res.add_product(image(letters, t).f, c)
                            yield res, partial(sides, i, j, modes, n, t, res)

    no_pair = "no Serre pair, i != j in the index set with <gamma_i, gamma_j>_1 < 0"
    return _say_why_empty(first_nonzero("toroidal.serre", rep.params, cases()), states, no_pair)


def check_psi_structure(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """Leading modes of the half-currents used by comm3: order 0 is k_i^{+-o},
    order 1 is the single a_i(+-1) term with coefficient +-o (q-q^-1) q^{k/2}."""
    qdiff = Laurent.q_pow(1) - Laurent.q_pow(-1)
    o = -rep.k_eff

    def pairs():
        for i in rep.indices:
            for ms, cs in ((1, o), (-1, -o)):
                for t, v in enumerate(states):
                    yield (
                        f"order0 (i={i},ms={ms},state={t})",
                        rep.k_diag(i, v, power=cs),
                        rep.psi_mode(i, ms, cs, 0, v),
                    )
                    want = rep.a_mode(i, ms, rep.k_diag(i, v, power=cs)).scale(
                        (qdiff * Laurent.v_pow(rep.k_eff)).scale(cs)
                    )
                    yield (f"order1 (i={i},ms={ms},state={t})", want, rep.psi_mode(i, ms, cs, 1, v))

    return first_mismatch("toroidal.psi_structure", rep.params, pairs())


def check_highest_weight(rep: RepMap) -> CheckReport:
    """a_i(n) and x_i^{+-}(n) annihilate 1 (x) e^0 for n >= (1 resp. 0); k_i fixes it."""
    vac = ExtState.vacuum(rep.group.n_classes)
    zero = ExtState.zero()

    def pairs():
        for i in rep.indices:
            for n in range(1, rep.cfg.max_mode + 1):
                yield (f"a_{i}({n})|0>", zero, rep.a_mode(i, n, vac))
            for n in range(0, rep.cfg.max_mode + 1):
                yield (f"x+_{i}({n})|0>", zero, rep.x_mode(i, 1, n, vac))
                yield (f"x-_{i}({n})|0>", zero, rep.x_mode(i, -1, n, vac))
            yield (f"k_{i}|0>", vac, rep.k_diag(i, vac))

    return first_mismatch("toroidal.highest_weight", rep.params, pairs())


def check_grading(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """q^d bookkeeping: x_i^s(n) and a_i(n) shift the total degree by -n.

    Total degree = Fock degree + (1/2)<beta,beta>_1, checked on homogeneous
    states; this is the diagonal content of q^d x(n) q^{-d} = q^n x(n).
    """
    lat = rep.eng.lat

    def degree(state: ExtState) -> set:
        degs = set()
        for mono, beta in state.terms:
            d2 = lat.degree2(beta)
            assert d2 % 2 == 0
            degs.add(mono_deg(mono) + d2 // 2)
        return degs

    def pairs():
        for i in rep.indices:
            for s in (1, -1):
                for n in range(-rep.cfg.max_mode, rep.cfg.max_mode + 1):
                    for t, v in enumerate(states):
                        dv = degree(v)
                        if len(dv) != 1:
                            continue
                        out = rep.x_mode(i, s, n, v)
                        want = set() if out.is_zero else {next(iter(dv)) - n}
                        yield (f"x (i={i},s={s},n={n},state={t})", want, degree(out))

    return first_mismatch("toroidal.grading", rep.params, pairs())


def check_d2_grading(rep: RepMap, states: list[ExtState]) -> CheckReport:
    """d_2 bookkeeping on the unquotiented space: x_i^s shifts m_0 by s delta_{i0}."""

    def pairs():
        for i in rep.indices:
            for s in (1, -1):
                for t, v in enumerate(states):
                    m0s = {beta[0] for (_, beta) in v.terms}
                    if len(m0s) != 1:
                        continue
                    out = rep.x_mode(i, s, -1, v)
                    want = set() if out.is_zero else {next(iter(m0s)) + (s if i == 0 else 0)}
                    yield (f"(i={i},s={s},state={t})", want, {b[0] for (_, b) in out.terms} or set())

    return first_mismatch("toroidal.d2_grading", rep.params, pairs())


# --------------------------------------------------------------------------
# the suite


def run_suite(group: GroupData, cfg: SuiteConfig) -> list[CheckReport]:
    rep = RepMap(group, cfg)
    states = rep.test_states()
    out = [
        check_heisenberg_rel(rep, states),
        check_a_x(rep, states),
        check_xx(rep, states),
        check_xpxm(rep, states),
        check_serre(rep, states),
        check_psi_structure(rep, states),
        check_highest_weight(rep),
        check_grading(rep, states),
    ]
    if cfg.variant == "typeA_qp" and not rep.eng.lat.quotient:
        out.append(check_d2_grading(rep, states))
    return out

