"""Vertex operators, the q-power function, and OPE verification.

A vertex operator here is the data of one exponential of creation modes, one
exponential of annihilation modes, a lattice translation, and a zero-mode
z-power with an attached q-power:

    V(z) = exp( sum_n (1/n) a_{-n}(w) C^n z^n )
         * exp(-sum_n (1/n) a_n(w)  D^n z^-n )
         * e^w * [z^{<w,.>} v^{zqv <w,.>} (p-factor)]

with w = +-gamma_i and C = v^{cre_v}, D = v^{ann_v}.  The two composed
operators Y^+(gamma x q^l, k, z) and Y^-(gamma x q^l, k, z) and the
half-twist-normalised generators used by the toroidal suite are all
instances; modes are coefficients of z^{-n-1} (the diagonal lattice norm
is 2 for every built-in weight).

VertexEngine.mode applies V(z) in two stages.  The annihilation stage does
not depend on n: it applies the annihilation exponential, the lattice shift
with its cocycle sign and the zero mode to every term of the state, and sums
like terms into one coefficient per (monomial, lattice point, z-order),
skipping z-orders that no requested mode reaches.  The creation stage then
multiplies each of those groups by the creation exponential's component for
the requested mode.

Only the lattice factor sees the lattice point: on e^beta, V(z) contributes
its lattice step (VertexEngine.lattice_step), the mode offset <w, beta>_1, the
cocycle and reduction sign, the reduced point w + beta and the zero mode's
v-power.  So the image of u (x) e^beta at mode n is the image of u (x) e^0 at
mode n + <w, beta>_1, translated: times the ratio of the two signs, moved to
the new point and shifted by the difference of the v-powers.  The toroidal
RepMap builds its x columns so, one annihilation stage per (operator,
monomial) at e^0 and one creation stage per mode.

In p-mode (type A, second weight) the zero mode carries the extra factor
p^{-(1/2) sum_j <w, m_j gamma_j> b_{ij}} with b the cyclic skew matrix; the sign
conventions here were pinned by exact computation against the OPE tables and
are exercised by the test suite.

ope_product_check verifies A(z)B(w) = eps * scalar * z^g * f(w/z) :A(z)B(w):
coefficient by coefficient over a window of modes (m, n).  The left side
applies B_n to each test state through VertexEngine.mode, runs A's
annihilation stage once on B_n v, and A's creation stage once per m.  The
right side (normal_pair_coeff) walks each state once: a path through A's and
then B's annihilation exponential contributes its coefficient times B's
annihilated monomial times one entry G[T, c] of the check's creation table,
where T and c are fixed by the path's z-orders and lattice offsets and by
(m, n).  Three check-local tables, each built on first read, serve it:
P[T, a] = cre_B(a) cre_A(T-a), one keyed value over merged creation monomials
(creation_product); G[T, c] = sum_a (eps * scalar * f_{c-a}) P[T, a], which
folds the factor series in (creation_pair) and reuses each P for every c; and
G[T, c] re-keyed once per (B's annihilated monomial m_B, lattice point) to the
output keys (m_B * creation monomial, point), so that a path term adds a
whole read with one KeyedSum.add_all.  The factor series is expanded only as
far as the walk reads it (ope_rhs_factor); a shorter one would drop terms and
fail the check.  The two sides are computed independently: neither reads a
result or a stage of the other, and all their tables (the left side's
annihilation stage of B_n v, the right side's P, G and re-keyed reads) die
with the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fock import ExtState, FockContext, FockVector, LatticeContext, Mono, by_key, mono_deg
from .report import CheckReport, first_mismatch
from .scalar import L_ONE, L_ZERO, KeyedSum, Laurent, TruncSeries, qbinom, qint, series_exp
from .wreath import partitions, z_part

# a keyed value (scalar.KeyedSum) over (annihilated monomial, shifted lattice point, z-order e) keys
AnnTable = Laurent

# --------------------------------------------------------------------------
# the q-power function (1-z)^a_{q^2}


def qpow_series_exp(a: int, D: int) -> TruncSeries:
    """exp(-sum_n [an]/(n [n]) z^n) with [an]/[n] = [a]_{q^n}."""
    expo = TruncSeries(D, [L_ZERO] + [qint(a).subs_pow(n).scale(Fraction(-1, n)) for n in range(1, D + 1)])
    return series_exp(expo)


def qpow_series_product(a: int, D: int) -> TruncSeries:
    """(q^{-a+1}z; q^2)_inf / (q^{a+1}z; q^2)_inf after telescoping."""
    out = TruncSeries.one(D)
    if a >= 0:
        for t in range(a):
            out = out * TruncSeries(D, [L_ONE, -Laurent.q_pow(-a + 1 + 2 * t)])
        return out
    for t in range(-a):
        out = out * TruncSeries(D, [L_ONE, -Laurent.q_pow(a + 1 + 2 * t)])
    return out.inverse()


def qpow_series_binom(a: int, D: int) -> TruncSeries:
    """sum_m [a; m] (-z)^m with the Gaussian binomial at integer a."""
    coeffs = []
    for m in range(D + 1):
        c = qbinom(a, m)
        coeffs.append(c if m % 2 == 0 else -c)
    return TruncSeries(D, coeffs)


def qpow_consistency_check(a: int, D: int) -> CheckReport:
    """All three representations must agree through order D."""
    e, p, b = qpow_series_exp(a, D), qpow_series_product(a, D), qpow_series_binom(a, D)

    def pairs():
        for m in range(D + 1):
            yield (f"exp vs product, z^{m}", e.coeffs[m], p.coeffs[m])
            yield (f"exp vs binomial, z^{m}", e.coeffs[m], b.coeffs[m])

    return first_mismatch("vertex.qpow", {"a": a, "order": D}, pairs())


def classical_pow(a: int, D: int) -> TruncSeries:
    """Plain (1-z)^a as a truncated series (integer a of either sign)."""
    out = TruncSeries.one(D)
    for _ in range(abs(a)):
        out = out * TruncSeries(D, [L_ONE, -L_ONE])
    return out if a >= 0 else out.inverse()


# --------------------------------------------------------------------------
# vertex operator data


@dataclass(frozen=True)
class VOp:
    """One exponential-vertex operator; see module docstring for the shape."""

    i: int
    w_sign: int
    cre_v: int
    ann_v: int
    zqv: int
    label: str


def y_plus(i: int, char_sign: int = 1, l_v: int = 0, k: int = 0) -> VOp:
    """Y^+((char_sign gamma_i) x q^{l_v/2}, k, z): creation half at twist l,
    annihilation half at twist l - k, shift e^{gamma}, zero mode (q^{-l}z)^d."""
    return VOp(i, char_sign, cre_v=-l_v, ann_v=l_v - 2 * k, zqv=-l_v,
               label=f"Y+[{'-' if char_sign < 0 else ''}g{i},l_v={l_v},k={k}]")


def y_minus(i: int, char_sign: int = 1, l_v: int = 0, k: int = 0) -> VOp:
    """Y^-((char_sign gamma_i) x q^{l_v/2}, k, z), the adjoint-shaped partner."""
    return VOp(i, -char_sign, cre_v=2 * k - l_v, ann_v=l_v, zqv=-l_v,
               label=f"Y-[{'-' if char_sign < 0 else ''}g{i},l_v={l_v},k={k}]")


def fj_x(i: int, sign: int, k: int) -> VOp:
    """Toroidal generator x_i^{sign}(z): both twists q^{sign*k*n/2}, plain zero mode."""
    return VOp(i, sign, cre_v=sign * k, ann_v=sign * k, zqv=0,
               label=f"x{'+' if sign > 0 else '-'}[{i},k={k}]")


# --------------------------------------------------------------------------
# the engine


class VertexEngine:
    """Applies vertex operators and normal-ordered pairs on extended states.

    p_exp switches on type-A p-mode: the skew matrix b and the modified zero
    mode; quotient reduces the lattice modulo Z delta (p = q^{+-1} cases).
    """

    def __init__(self, fctx: FockContext, quotient: bool = False, p_exp: int | None = None):
        self.fock = fctx
        self.lat = LatticeContext(fctx, quotient=quotient)
        self.p_exp = p_exp
        g = fctx.group
        self.rank = g.n_classes
        if p_exp is not None:
            if g.cartan_layout is None or g.cartan_layout[0] != "A" or self.rank < 3:
                raise ValueError("p-mode requires a cyclic group of order >= 3")
            r1 = self.rank
            self.bmat = [[0] * r1 for _ in range(r1)]
            for t in range(r1):
                self.bmat[t][(t + 1) % r1] = 1
                self.bmat[t][(t - 1) % r1] = -1
        else:
            self.bmat = None
        for t in range(self.rank):
            if self.lat.gram[t][t] != 2:
                raise ValueError("vertex modes assume <gamma_i,gamma_i>_1 = 2")
        self._ann_cache: dict[tuple, list[tuple[int, Mono, Laurent]]] = {}
        self._cre_cache: dict[tuple, list[tuple[Mono, Laurent]]] = {}

    # -- building blocks

    def shift_vec(self, i: int, sign: int) -> tuple[int, ...]:
        """Plain unit shift e_i on the full lattice; quotient reduction happens
        afterwards with its sign (reduce_signed)."""
        e = [0] * self.rank
        e[i] = sign
        return tuple(e)

    def p_factor_v(self, i: int, w_sign: int, beta: tuple[int, ...]) -> int:
        """v-exponent of the p-part of the modified zero mode at e^beta."""
        if self.p_exp is None:
            return 0
        s = sum(m * self.lat.gram[i][j] * self.bmat[i][j] for j, m in enumerate(beta) if m)
        return -self.p_exp * w_sign * s

    def lattice_step(self, op: VOp, beta: tuple[int, ...]) -> tuple[int, int, tuple[int, ...], int]:
        """What op(z) does to the lattice factor e^beta: (s, sign, beta', v0).

        s = <w, beta>_1 is the mode offset of the zero mode z^{<w, .>}, sign the
        cocycle sign eps(w, beta) times the quotient's reduction sign, beta' the
        reduced point w + beta, and v0 the zero mode's v-exponent
        zqv s + p-factor.
        """
        moved = list(beta)
        moved[op.i] += op.w_sign
        rsign, newb = self.lat.reduce_signed(tuple(moved))
        s = op.w_sign * self.lat.pairing_row(op.i, beta)
        v0 = op.zqv * s + self.p_factor_v(op.i, op.w_sign, beta)
        return s, self.lat.cocycle_sign(self.shift_vec(op.i, op.w_sign), beta) * rsign, newb, v0

    def ann_expand(self, op: VOp, mono: Mono) -> list[tuple[int, Mono, Laurent]]:
        """Expansion of the annihilation exponential on a monomial.

        Returns triples (b, mono', coeff): the z^{-b} component of
        exp(-sum_n (1/n) a_n(w) D^n z^{-n}) applied to mono.
        """
        key = (op.i, op.w_sign, op.ann_v, mono)
        out = self._ann_cache.get(key)
        if out is not None:
            return out
        ctx = self.fock
        states = FockVector.unit(mono)
        maxdeg = mono_deg(mono)
        for n in range(1, maxdeg + 1):
            coeff_n = Laurent.v_pow(op.ann_v * n).scale(Fraction(-op.w_sign, n))
            acc = layer = states
            k = 1
            while not layer.is_zero:  # layer k: (coeff_n a_n(w))^k / k! applied to states
                layer = ctx.annihilate(n, op.i, layer).scale(coeff_n.scale(Fraction(1, k)))
                acc = acc + layer
                k += 1
            states = acc
        out = [(maxdeg - mono_deg(m), m, c) for m, c in states.terms.items()]
        self._ann_cache[key] = out
        return out

    def cre_terms(self, op: VOp, order: int) -> list[tuple[Mono, Laurent]]:
        """z^order component of the creation exponential, as monomials to multiply in."""
        key = (op.i, op.w_sign, op.cre_v, order)
        out = self._cre_cache.get(key)
        if out is not None:
            return out
        res: list[tuple[Mono, Laurent]] = []
        for lam in partitions(order):
            mono = tuple(sorted((part, op.i) for part in lam))
            sign = 1 if op.w_sign > 0 or len(lam) % 2 == 0 else -1
            res.append((mono, Laurent.v_pow(op.cre_v * order).scale(Fraction(sign, z_part(lam)))))
        self._cre_cache[key] = res
        return res

    # -- single-operator modes

    def annihilation_stage(self, op: VOp, state: ExtState, n_min: int) -> AnnTable:
        """The n-independent half of op(z) on the state, like terms summed.

        A keyed value over (m_ann, newb, e) keys: the summed coefficient
        of m_ann (x) e^newb at z^{-e} after the annihilation exponential and
        the lattice step (the shift with its cocycle and reduction signs, and
        the zero mode); e = b - <w, beta> for an annihilation term of z-order
        b.  Terms that no mode n >= n_min reaches (e <= n_min) are skipped;
        groups that cancel are dropped.
        """
        acc = KeyedSum()
        f = state.f
        for (mono, beta), entries in by_key(state).items():
            s_pair, sign, newb, v0 = self.lattice_step(op, beta)
            for b, m_ann, c_ann in self.ann_expand(op, mono):
                e = b - s_pair
                if e <= n_min:
                    continue
                for ev, x in entries:
                    acc.add((m_ann, newb, e), ev + v0, f, x, c_ann, sign)
        return acc.value()

    def creation_stage(self, op: VOp, n: int, table: AnnTable) -> ExtState:
        """Coefficient of z^{-n-1}: each group times the creation exponential's z^{e-n-1} part."""
        acc = KeyedSum()
        for ((m_ann, newb, e), ev), x in table.entries():
            a = e - n - 1
            if a < 0:
                continue
            for m_cre, c_cre in self.cre_terms(op, a):
                acc.add((tuple(sorted(m_ann + m_cre)), newb), ev, table, x, c_cre)
        return ExtState.packed(acc.value())

    def mode(self, op: VOp, n: int, state: ExtState) -> ExtState:
        """Coefficient of z^{-n-1} in op(z) applied to the state: the
        annihilation stage (n-independent, like terms summed; n only bounds
        the z-orders it keeps) followed by the creation stage for n."""
        return self.creation_stage(op, n, self.annihilation_stage(op, state, n))


# --------------------------------------------------------------------------
# operator products and OPE checks


def contraction_series(eng: VertexEngine, opA: VOp, opB: VOp, D: int) -> TruncSeries:
    """exp(-sum_n (1/n) <w_A, w_B>^{q^n} (D_A C_B)^n x^n), x = w/z."""
    ctx = eng.fock
    tw = opA.ann_v + opB.cre_v
    coeffs = [L_ZERO]
    for n in range(1, D + 1):
        pair = ctx.pair_pow(opA.i, opB.i, n).scale(opA.w_sign * opB.w_sign)
        coeffs.append((pair * Laurent.v_pow(tw * n)).scale(Fraction(-1, n)))
    return series_exp(TruncSeries(D, coeffs))


def contraction_check(eng: VertexEngine, i: int, j: int, k: int, l: int, D: int) -> CheckReport:
    """exp(-sum_n (1/n) <gamma_i,gamma_j>^{q^n} x^n) against the q-power closed form.

    This is the scalar identity behind every OPE: the commutation factor of
    E-(gamma_i x q^k, z) past H+(gamma_j x q^l, w) in the variable x = q^{k-l} w/z.
    The closed form is the q-deformed power (1-x)^{<gamma_i,gamma_j>_1}_{q^2}
    whenever the Cartan entry is the q-integer deformation of the integer
    pairing, and the classical power for the constant entries of the order-2
    cyclic group.
    """
    ctx = eng.fock
    g_ij = eng.lat.gram[i][j]
    # deformed entries satisfy entry * [n] = [g_ij * n]; detect exactly
    deformed = all(ctx.pair_pow(i, j, n) * qint(n) == qint(g_ij * n) for n in range(1, 4))
    coeffs = [L_ZERO]
    for n in range(1, D + 1):
        coeffs.append((ctx.pair_pow(i, j, n) * Laurent.q_pow((k - l) * n)).scale(Fraction(-1, n)))
    got = series_exp(TruncSeries(D, coeffs))
    notes = []
    if deformed:
        reference = qpow_series_exp(g_ij, D)
    else:
        # single monomial entry c v^e (A1 constants, p-shifted adjacents):
        # exp(-sum (c/n)(v^e x)^n) = (1 - v^e x)^c classically
        entry = ctx.pair_pow(i, j, 1)
        sup = entry.support()
        c0 = entry.coeff(sup[0]) if len(sup) == 1 else None
        if c0 is None or c0 != int(c0.coords()[1][0]):
            raise ValueError("no closed contraction reference for this entry")
        reference = classical_pow(c0.as_rational(), D).shift_var(Laurent.v_pow(sup[0]))
        notes.append("non-deformed Cartan entry: classical power reference")
    want = reference.shift_var(Laurent.q_pow(k - l))
    params = {"group": ctx.group.name, "xi": ctx.xi.kind, "i": i, "j": j, "k": k, "l": l, "order": D}

    def pairs():
        for m in range(D + 1):
            yield (f"x^{m}", want.coeffs[m], got.coeffs[m])

    return first_mismatch("vertex.contraction", params, pairs(), notes=notes)


def ope_factor(eng: VertexEngine, opA: VOp, opB: VOp, D: int) -> tuple[int, Laurent, TruncSeries]:
    """Full commutation factor of opA(z) opB(w) against :opA opB:.

    Returns (g, scalar, series) with the factor = scalar * z^g * series(w/z):
    g the lattice cross pairing, scalar the zero-mode q/p contribution.
    """
    g_ab = opA.w_sign * opB.w_sign * eng.lat.gram[opA.i][opB.i]
    scalar = Laurent.v_pow(opA.zqv * g_ab)
    if eng.p_exp is not None:
        wb = [0] * eng.rank
        wb[opB.i] = opB.w_sign
        scalar = scalar * Laurent.v_pow(eng.p_factor_v(opA.i, opA.w_sign, tuple(wb)))
    return g_ab, scalar, contraction_series(eng, opA, opB, D)


def creation_product(eng: VertexEngine, opA: VOp, opB: VOp, T: int, aB: int) -> Laurent:
    """P[T, a_B]: cre_B(a_B) cre_A(T - a_B) as a keyed value over merged creation monomials."""
    acc = KeyedSum()
    for mcB, ccB in eng.cre_terms(opB, aB):
        for mcA, ccA in eng.cre_terms(opA, T - aB):
            for e, x in ccA.entries():
                acc.add(tuple(sorted(mcB + mcA)), e, ccA, x, ccB)
    return acc.value()


def creation_pair(eng: VertexEngine, opA: VOp, opB: VOp, factors: list[Laurent], T: int, c: int,
                  products: dict[tuple[int, int], Laurent]) -> Laurent:
    """G[T, c]: the creation side of the right side of the OPE, with the factor folded in.

    sum over 0 <= a_B <= min(T, c) of factors[c - a_B] P[T, a_B], a keyed value
    over merged creation monomials.  factors[d] is the signed factor's w/z-power
    d; a term past its order is missing, so a too short factor series makes
    the check fail, never pass.  P[T, a_B] is read from products, built on
    first read.
    """
    acc = KeyedSum()
    for aB in range(max(0, c + 1 - len(factors)), min(T, c) + 1):
        fs = factors[c - aB]
        if fs.is_zero:
            continue
        p = products.get((T, aB))
        if p is None:
            p = products[(T, aB)] = creation_product(eng, opA, opB, T, aB)
        acc.add_product(p, fs)
    return acc.value()


def normal_pair_coeff(eng: VertexEngine, opA: VOp, opB: VOp, window: int,
                      factor: tuple[int, list[Laurent]], tables: dict,
                      state: ExtState) -> dict[tuple[int, int], ExtState]:
    """The right side eps * scalar * z^g * f(w/z) :opA(z) opB(w): on state, per mode pair.

    Returns {(m, n): coefficient of z^{-m-1} w^{-n-1}} over the window; a
    missing pair is zero.  factor is (g, [eps * scalar * f_d for d = 0..D]).
    One walk over the state's terms and the two annihilation expansions: the
    path through A's term (b_A, m_A, c_A) and B's term (b_B, m_B, c_B) adds
    c_A c_B (state coefficient) m_B G[T, c] with T = b_A + b_B - s_A - s_B - g
    - m - n - 2 and c = b_B - s_B - n - 1 (s_X = <w_X, beta>_1).  tables holds
    the check's tables, each built on first read: "P" and "G" (creation_pair)
    and "read", G[T, c] re-keyed to the output keys (m_B mc, shift) at
    [(m_B, shift)][(T, c)], so a path adds a whole read with one add_all per
    entry of its coefficient.  The re-keying is injective, as multiplying by
    m_B is.
    """
    g_ab, factors = factor
    lat = eng.lat
    products = tables.setdefault("P", {})
    pairs = tables.setdefault("G", {})
    reads = tables.setdefault("read", {})
    sums: dict[tuple[int, int], KeyedSum] = {}
    shiftA = eng.shift_vec(opA.i, opA.w_sign)
    shiftB = eng.shift_vec(opB.i, opB.w_sign)
    for (mono, beta), coeff in state.terms.items():
        sA = opA.w_sign * lat.pairing_row(opA.i, beta)
        sB = opB.w_sign * lat.pairing_row(opB.i, beta)
        rsign, shift = lat.reduce_signed(tuple(a + b + c for a, b, c in zip(shiftA, shiftB, beta)))
        sign = rsign * lat.cocycle_sign(tuple(a + b for a, b in zip(shiftA, shiftB)), beta)
        v0 = (opA.zqv * sA + opB.zqv * sB
              + eng.p_factor_v(opA.i, opA.w_sign, beta) + eng.p_factor_v(opB.i, opB.w_sign, beta))
        coeff = Laurent.v_pow(v0, coeff if sign > 0 else -coeff)  # the lattice factor, folded in once
        for bA, mA, cA in eng.ann_expand(opA, mono):
            cAv = cA * coeff
            for bB, mB, cB in eng.ann_expand(opB, mA):
                path = cAv * cB
                c0 = bB - sB - 1
                t0 = bA + c0 - sA - g_ab - 1
                rd = reads.setdefault((mB, shift), {})
                for n in range(-window, min(window, c0) + 1):
                    for m in range(-window, min(window, t0 - n) + 1):
                        tc = (t0 - n - m, c0 - n)
                        read = rd.get(tc)
                        if read is None:
                            g = pairs.get(tc)
                            if g is None:
                                g = pairs[tc] = creation_pair(eng, opA, opB, factors, *tc, products)
                            read = rd[tc] = g.with_entries(
                                {((tuple(sorted(mB + mc)) if mB else mc, shift), e): x
                                 for (mc, e), x in g.entries()})
                        if read.is_zero:
                            continue
                        acc = sums.get((m, n))
                        if acc is None:
                            acc = sums[(m, n)] = KeyedSum()
                        acc.add_product(read, path)
    return {mn: ExtState.packed(acc.value()) for mn, acc in sums.items()}


def signed_ope_factor(eng: VertexEngine, opA: VOp, opB: VOp, D: int):
    """ope_factor with the relative cocycle sign eps(w_A, w_B) folded in."""
    g_ab, scalar, series = ope_factor(eng, opA, opB, D)
    eps = eng.lat.cocycle_sign(eng.shift_vec(opA.i, opA.w_sign), eng.shift_vec(opB.i, opB.w_sign))
    return g_ab, (-scalar if eps < 0 else scalar), series


def ope_rhs_factor(eng: VertexEngine, opA: VOp, opB: VOp, window: int,
                   states: list[ExtState]) -> tuple[int, list[Laurent]]:
    """(g, [eps * scalar * f_d for d = 0..D]), the signed factor as the right side reads it.

    D is the largest c of normal_pair_coeff: window - 1 + max over the
    states' terms of the Fock degree plus |<w_B, beta>_1|.
    """
    reach = max((mono_deg(mono) + abs(eng.lat.pairing_row(opB.i, beta))
                 for s in states for mono, beta in s.terms), default=0)
    g_ab, scalar, series = signed_ope_factor(eng, opA, opB, max(0, window - 1 + reach))
    return g_ab, [scalar * fd for fd in series.coeffs]


def ope_product_check(eng: VertexEngine, opA: VOp, opB: VOp, window: int, states: list[ExtState],
                      check_id: str, params: dict) -> CheckReport:
    """opA(z) opB(w) == factor * :opA opB:, coefficientwise over the mode window.

    The factor is expanded in powers of w/z (the |w| < |z| region); see the
    module docstring for how each side is computed.
    """
    factor = ope_rhs_factor(eng, opA, opB, window, states)
    tables: dict[str, dict] = {}  # the right side's P, G and re-keyed reads; they die with the check
    mode_range = range(-window, window + 1)

    def pairs():
        for t, v in enumerate(states):
            rhs = normal_pair_coeff(eng, opA, opB, window, factor, tables, v)
            zero = ExtState.zero()
            for n in mode_range:
                bn = eng.mode(opB, n, v)
                ann = eng.annihilation_stage(opA, bn, -window)
                for m in mode_range:
                    lhs = eng.creation_stage(opA, m, ann)
                    yield (f"state #{t} modes ({m},{n})", rhs.get((m, n), zero), lhs)

    return first_mismatch(check_id, params, pairs())


# closed forms of the contraction factor for the cases the OPE theorems list


def table_factor(eng: VertexEngine, opA: VOp, opB: VOp, D: int) -> tuple[int, Laurent, TruncSeries] | None:
    """The closed-form factor the OPE tables assert, or None when no case applies.

    Keyed by the lattice cross pairing g = <w_A, w_B>_1 and the quantum Cartan
    entry: q-shifted double factors for g = +-2 with deformed entry, classical
    double factors for the A1 cross pairing (constant entry +-2), single linear
    factors for g = +-1 with the p-mode prefactor where applicable.
    """
    ctx = eng.fock
    g_ab = opA.w_sign * opB.w_sign * eng.lat.gram[opA.i][opB.i]
    entry = ctx.pair_pow(opA.i, opB.i, 1).scale(opA.w_sign * opB.w_sign)
    tw = Laurent.v_pow(opA.ann_v + opB.cre_v)
    qq = Laurent.q_pow(1) + Laurent.q_pow(-1)

    def lin(c: Laurent) -> TruncSeries:
        return TruncSeries(D, [L_ONE, -c])

    def p_prefactor() -> Laurent:
        wb = [0] * eng.rank
        wb[opB.i] = opB.w_sign
        return Laurent.v_pow(eng.p_factor_v(opA.i, opA.w_sign, tuple(wb)))

    if g_ab == 0:
        return 0, L_ONE, TruncSeries.one(D)
    if g_ab == 2 and entry == qq:
        return 2, L_ONE, lin(tw * Laurent.q_pow(1)) * lin(tw * Laurent.q_pow(-1))
    if g_ab == -2 and entry == -qq:
        return -2, L_ONE, (lin(tw * Laurent.q_pow(1)) * lin(tw * Laurent.q_pow(-1))).inverse()
    if g_ab == 2 and entry == Laurent.of(2):
        return 2, L_ONE, lin(tw) * lin(tw)  # A1 cross pairing, classical square
    if g_ab == -2 and entry == Laurent.of(-2):
        return -2, L_ONE, (lin(tw) * lin(tw)).inverse()  # A1 cross, classical double pole
    if g_ab == -1 and len(entry.support()) == 1:
        # entry is a single monomial of negative sign; the pole sits at tw*(-entry)
        return -1, p_prefactor() if eng.p_exp is not None else L_ONE, lin(tw * (-entry)).inverse()
    if g_ab == 1 and len(entry.support()) == 1:
        # entry is a single positive monomial; one linear vanishing factor
        return 1, p_prefactor() if eng.p_exp is not None else L_ONE, lin(tw * entry)
    return None


def ope_table_check(eng: VertexEngine, opA: VOp, opB: VOp, D: int, check_id: str, params: dict) -> CheckReport:
    """The computed commutation factor equals the table's closed form."""
    table = table_factor(eng, opA, opB, D)
    if table is None:
        return CheckReport(check_id, params, passed=True, n_cases=0, notes=["no table case applies"])
    g_t, s_t, ser_t = table
    g_c, s_c, ser_c = ope_factor(eng, opA, opB, D)

    def pairs():
        yield ("z-power", g_t, g_c)
        for d in range(D + 1):
            yield (f"x^{d}", s_t * ser_t.coeffs[d], s_c * ser_c.coeffs[d])

    return first_mismatch(check_id, params, pairs())
