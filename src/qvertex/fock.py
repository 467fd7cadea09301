"""Heisenberg algebra on the group Fock space, and its lattice extension.

Monomials are sorted tuples of (degree n, generator index) pairs: products of
a_{-n}(gamma_i) over the irreducible characters or of a_{-n}(c) over the classes.
A vector's type is its basis (class attribute ``basis``, "chi" or "cls"): a
FockVector holds character monomials, a ClassVector class monomials, and an
ExtState (character monomial, lattice point) pairs, the lattice Z^{r+1} being
spanned by the irreducible characters.

A vector holds all its coefficients as one keyed value of the scalar kernel
(scalar.py): a canonical Laurent whose exponents are (key, v-exponent) pairs,
with int numerators over one denominator, or coordinate tuples at one
conductor over it.  The Heisenberg action, the basis change and the vertex
and toroidal layers gather their products in a KeyedSum, one int product and
one exponent add per term pair, and normalise once.  No entry is zero, so a
key is present exactly when its coefficient is nonzero; ``terms`` reads the
coefficients as a {key: Laurent} view.

Normalisations:
  * a_{-n}(x) acts by multiplication, x a character or a class;
  * a_n(x), n > 0, contracts each matched degree-n factor a_{-n}(y) of the
    same basis with the one-factor table entry T[x][y] below; for characters
    it is n <gamma_i, gamma_j>_xi^{q^n}, the factor n being forced by the
    commutator [a_m(gamma), a_n(gamma')] = m delta_{m,-n} <gamma,gamma'>^{q^m}
    and by the norm formula with Z_rho;
  * the bilinear form is q-sesquilinear: <f u, g v> = f bar_q(g) <u, v>,
    <1,1> = 1, adjoint a_n^* = a_{-n}.

The one-factor table T[x][x'] = <a_{-n}(x), a_{-n}(x')>, one per (basis of x,
basis of x', n), is filled on first read from the character route only: n
<gamma_i, gamma_j>^{q^n} for two characters, with chi_of_cls applied on a
class side.  On one basis it is the action's contraction too, so the closed
factors xi_{q^n}(c) are read only by the closed formulas (inner_closed, the
right side of heisenberg_check_cls), which check the character route.  The
form of two monomials is the Wick recursion (FockContext.form_mono): u's first
factor a_{-n}(x) contracts with each degree-n factor a_{-n}(x') of v through
T[x][x'], and the rest of u pairs with the rest of v; no class monomial is
expanded into character monomials.  The form is evaluated in Gram rows
(FockContext.gram), each vector in its own basis: <u, v> sums cu bar_q(cv)
<mu, mv> over the term pairs of u and v of equal degree; <u, v> for a single
pair is the one-entry Gram row.

The basis change (FockContext.to_chi / to_cls) is a tensor-power change of
basis, applied by sum factorisation: one factor per pass over the whole
vector, each entry keyed by (monomial expanded so far, factors still to
expand), with like keys merged between passes.  Terms that cancel across the
input's monomials -- ch(eta_n) has hundreds of class monomials and a few dozen
character monomials -- thus cancel as soon as their prefixes agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .groups import GroupData
from .repring import QCartanMatrix, WeightXi, qcartan
from .report import CheckReport, first_mismatch
from .scalar import L_ONE, L_ZERO, KeyedSum, Laurent, keyed_parts, keyed_product

Mono = tuple[tuple[int, int], ...]
VACUUM: Mono = ()


def mono_mul(m: Mono, factor: tuple[int, int]) -> Mono:
    return tuple(sorted(m + (factor,)))


def mono_deg(m: Mono) -> int:
    return sum(n for n, _ in m)


def mono_str(m: Mono, basis: str) -> str:
    if not m:
        return "1"
    sym = "g" if basis == "chi" else "c"
    return "*".join(f"a[-{n}]({sym}{i})" for n, i in m)


class FockVector:
    """Finite combination of keys with Laurent coefficients, held as one keyed value.

    ``f`` is one canonical Laurent whose exponents are (key, v-exponent)
    pairs: int numerators over one denominator, or coordinate tuples at one
    conductor over it (scalar.py).  A term times a scalar term is one int
    product and one exponent add, gathered by a KeyedSum; sums, differences
    and equality are Laurent's own.  ``terms`` is a read-only {key: Laurent}
    view, and the constructor takes such a dict.  Arithmetic returns
    ``type(self)``; vectors of two types never add or compare equal.
    """

    __slots__ = ("f",)
    __hash__ = None
    basis = "chi"

    def __init__(self, terms: dict | None = None):
        acc = KeyedSum()
        for key, c in (terms or {}).items():
            acc.add(key, 0, L_ONE, 1, c)
        self.f = acc.value()

    @classmethod
    def packed(cls, f: Laurent):
        """The vector whose coefficients are the keyed value f."""
        out = object.__new__(cls)
        out.f = f
        return out

    @classmethod
    def unit(cls, key):
        """The basis vector of key (coefficient one)."""
        return cls.packed(L_ONE.with_entries({(key, 0): 1}))

    @classmethod
    def vacuum(cls):
        return cls.unit(VACUUM)

    @classmethod
    def zero(cls):
        return cls.packed(L_ZERO)

    @classmethod
    def lincomb(cls, pairs):
        """sum c v over (vector, Laurent c) pairs, normalised once; zero vectors are skipped."""
        acc = KeyedSum()
        for v, c in pairs:
            acc.add_product(v.f, c)
        return cls.packed(acc.value())

    @property
    def terms(self):
        return MappingProxyType(keyed_parts(self.f))

    def add_term(self, key, c: Laurent) -> None:
        self.f = self.f + FockVector({key: c}).f

    # With a zero operand these do no kernel work (Laurent's sum passes the other
    # f through) and still return a new vector: add_term rebinds its vector's f.
    def __add__(self, other):
        assert type(other) is type(self)
        return self.packed(self.f + other.f)

    def __sub__(self, other):
        assert type(other) is type(self)
        return self.packed(self.f - other.f)

    def __neg__(self):
        return self.packed(-self.f)

    def scale(self, c: Laurent):
        return self.packed(self.f if self.f.is_zero else keyed_product(self.f, c))

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero

    def __eq__(self, other):
        return type(other) is type(self) and self.f == other.f

    def __repr__(self):
        if self.f.is_zero:
            return "0"
        return " + ".join(f"({c})*{mono_str(m, self.basis)}" for m, c in sorted(self.terms.items()))


class ClassVector(FockVector):
    """A FockVector on the class basis: its monomials are products of a_{-n}(c)."""

    __slots__ = ()
    basis = "cls"


def _refuse_ext(v: FockVector) -> None:
    """The action, the basis change and the form take Fock vectors; an ExtState's keys carry a lattice point too."""
    if isinstance(v, ExtState):
        raise TypeError("the Fock space takes an ExtState one lattice point at a time, as ext_apply_mode does")


def _dot(a, b) -> Laurent:
    """sum_k a[k] b[k] over the pairs with both factors nonzero."""
    acc = L_ZERO
    for x, y in zip(a, b):
        if not x.is_zero and not y.is_zero:
            acc = acc + x * y
    return acc


def by_key(v: FockVector) -> dict:
    """v's entries grouped by basis key: {key: [(v-exponent, entry), ...]}."""
    out: dict = {}
    for (key, e), x in v.f.entries():
        out.setdefault(key, []).append((e, x))
    return out


# --------------------------------------------------------------------------
# pairing context


class FockContext:
    """Caches the xi-weighted pairings a_ij^{q^m}, class-basis data, and the
    one-factor tables of the action and the form (filled on first read)."""

    def __init__(self, xi: WeightXi):
        self.xi = xi
        self.group: GroupData = xi.group
        self.cartan: QCartanMatrix = qcartan(xi)
        self._pair_cache: dict[tuple[int, int, int], Laurent] = {}
        self._factor_cache: dict[tuple[str, str, int], list[list[Laurent]]] = {}
        g = self.group
        n = g.n_classes
        self.gram1 = self.cartan.at_q1()  # lattice form <gamma_i, gamma_j>_xi^1
        # basis change matrices (m-independent for untwisted characters)
        self.chi_of_cls = [[g.char_table[i][g.inv(c)] for i in range(n)] for c in range(n)]

    @cached_property
    def cls_of_chi(self) -> list[list[Laurent]]:  # to_cls alone reads it; kept as the inverse the tests check to_chi against
        g, r = self.group, range(self.group.n_classes)
        return [[g.char_table[i][c].scale(Fraction(1, g.zeta(c))) for c in r] for i in r]

    def pair_pow(self, i: int, j: int, m: int) -> Laurent:
        key = (i, j, m)
        out = self._pair_cache.get(key)
        if out is None:
            out = self.cartan.entries[i][j].subs_pow(m)
            self._pair_cache[key] = out
        return out

    def xi_pow(self, c: int, m: int) -> Laurent:
        """xi_{q^m}(c)."""
        return self.xi.f.values[c].subs_pow(m)

    # -- Heisenberg action

    def create(self, n: int, i: int, v: FockVector) -> FockVector:
        """a_{-n} of generator i (a character or a class, per v's type): multiply it in."""
        assert n > 0
        _refuse_ext(v)
        f = v.f
        # multiplying a factor in is injective on monomials: the entries move unchanged
        return v.packed(f.with_entries({(mono_mul(m, (n, i)), e): x for (m, e), x in f.entries()}))

    def annihilate(self, n: int, i: int, v: FockVector) -> FockVector:
        """a_n of generator i, n > 0, per v's type: each distinct degree-n factor
        a_{-n}(y) contracts, as often as a monomial holds it, with
        one_factor(v.basis, v.basis, n)[i][y]."""
        assert n > 0
        _refuse_ext(v)
        row = self.one_factor(v.basis, v.basis, n)[i]
        acc = KeyedSum()
        f = v.f
        for (m, e), x in f.entries():
            prev = None
            for factor in m:  # sorted, so equal factors are adjacent
                if factor[0] != n or factor == prev:
                    continue
                prev = factor
                t = row[factor[1]]
                if t.is_zero:
                    continue
                reduced = list(m)
                reduced.remove(factor)
                acc.add(tuple(reduced), e, f, x, t, m.count(factor))
        return v.packed(acc.value())

    def apply_mode(self, m: int, i: int, v: FockVector) -> FockVector:
        """a_m of generator i with the sign convention m < 0 creation, m > 0 annihilation."""
        return self.create(-m, i, v) if m < 0 else self.annihilate(m, i, v)

    # -- basis change

    def _rebase(self, v: FockVector, matrix: list[list[Laurent]], target_type: type) -> FockVector:
        """Expand every factor a_{-n}(x) of v as sum_y matrix[x][y] a_{-n}(y).

        One factor per pass over the whole vector: each entry is keyed by
        (monomial already expanded, suffix of v's monomial still to expand).
        A pass pops the first factor (deg, x) of every suffix and adds
        matrix[x][y] times the entry under (done * a_{-deg}(y), tail); like
        keys merge before the next pass, so cancellation across v's monomials
        happens per factor, not after the full product expansion.  An entry
        with an empty suffix is finished and goes to the output.
        """
        _refuse_ext(v)
        if type(v) is target_type:
            return v
        out = KeyedSum()
        cur = v.f.with_entries({((VACUUM, m), e): x for (m, e), x in v.f.entries()})
        while not cur.is_zero:
            nxt = KeyedSum()
            for ((done, rest), e), num in cur.entries():
                if not rest:
                    out.add(done, e, cur, num, L_ONE)
                    continue
                (deg, x), tail = rest[0], rest[1:]
                for y, w in enumerate(matrix[x]):
                    if not w.is_zero:
                        nxt.add((mono_mul(done, (deg, y)), tail), e, cur, num, w)
            cur = nxt.value()
        return target_type.packed(out.value())

    def to_chi(self, v: FockVector) -> FockVector:
        """a_{-n}(c) = sum_gamma gamma(c^{-1}) a_{-n}(gamma), expanded per factor."""
        return self._rebase(v, self.chi_of_cls, FockVector)

    def to_cls(self, v: FockVector) -> FockVector:
        """a_{-n}(gamma_i) = sum_c zeta_c^{-1} gamma_i(c) a_{-n}(c)."""
        return self._rebase(v, self.cls_of_chi, ClassVector)

    # -- bilinear form

    def one_factor(self, bu: str, bv: str, n: int) -> list[list[Laurent]]:
        """T[x][x'] = <a_{-n}(x), a_{-n}(x')> for x of basis bu and x' of basis bv.

        T = M_bu (n a_ij^{q^n}) bar_q(M_bv)^t, with M the identity for "chi"
        and chi_of_cls for "cls": the character route only, filled on first
        read.  The chi x chi table is n pair_pow itself.
        """
        key = (bu, bv, n)
        t = self._factor_cache.get(key)
        if t is None:
            if bv == "cls":
                half = self.one_factor(bu, "chi", n)
                bars = [[w.bar_q() for w in m_row] for m_row in self.chi_of_cls]
                t = [[_dot(row, bar_row) for bar_row in bars] for row in half]
            elif bu == "cls":
                cols = list(zip(*self.one_factor("chi", "chi", n)))
                t = [[_dot(m_row, col) for col in cols] for m_row in self.chi_of_cls]
            else:
                r = range(self.group.n_classes)
                t = [[self.pair_pow(i, j, n).scale(n) for j in r] for i in r]
            self._factor_cache[key] = t
        return t

    def form_mono(self, u: Mono, v: Mono, bu: str = "chi", bv: str = "chi") -> Laurent:
        """<u, v> of a bu-monomial u and a bv-monomial v, by the Wick recursion.

        u's first factor (n, x) contracts with each distinct degree-n factor
        (n, x') of v, as often as v holds it, with value T[x][x'] (one_factor);
        the rest of u then pairs with the rest of v, and <1, v> is 0 unless v = 1.
        """
        if not u:
            return L_ZERO if v else L_ONE
        (n, x), rest = u[0], u[1:]
        row = self.one_factor(bu, bv, n)[x]
        acc = L_ZERO
        prev = None
        for k, factor in enumerate(v):  # sorted, so equal factors are adjacent
            if factor[0] != n or factor == prev:
                continue
            prev = factor
            t = row[factor[1]]
            if t.is_zero:
                continue
            f = self.form_mono(rest, v[:k] + v[k + 1:], bu, bv)
            if not f.is_zero:
                acc = acc + t.scale(v.count(factor)) * f
        return acc

    def gram(self, us, vs):
        """Rows [<u, v> for v in vs], one per u of us, generated lazily.

        Every vector is paired in its own basis, with no basis change: <u, v>
        = sum cu bar_q(cv) <mu, mv> over u's terms cu mu and v's terms cv mv of
        equal degree.  Each v is read once, with its barred coefficients and
        monomial degrees; each u when its row is pulled.  An ExtState is refused.
        """
        cols = []
        for v in vs:
            _refuse_ext(v)
            cols.append((v.basis, [(mv, mono_deg(mv), cv.bar_q()) for mv, cv in v.terms.items()]))
        for u in us:
            _refuse_ext(u)
            terms = [(mu, mono_deg(mu), cu) for mu, cu in u.terms.items()]
            row = []
            for bv, col in cols:
                acc = L_ZERO
                for mu, deg, cu in terms:
                    for mv, deg_v, bar_cv in col:
                        if deg == deg_v:
                            f = self.form_mono(mu, mv, u.basis, bv)
                            if not f.is_zero:
                                acc = acc + cu * f * bar_cv
                row.append(acc)
            yield row

    def form(self, u: FockVector, v: FockVector) -> Laurent:
        """<u, v>_xi', q-linear in u and q-bar-linear in v."""
        return next(self.gram([u], [v]))[0]


# --------------------------------------------------------------------------
# closed norm formula (the target of the inner-product checks)


def aprime_mono(rho: tuple[tuple[int, ...], ...]) -> Mono:
    """Class-basis monomial a'_{-rho} = prod_c prod_t a_{-rho(c)_t}(c)."""
    out = []
    for c, lam in enumerate(rho):
        out.extend((part, c) for part in lam)
    return tuple(sorted(out))


def inner_closed(ctx: FockContext, rho: tuple[tuple[int, ...], ...], big_z_rho: int, nk_shift: int) -> Laurent:
    """Z_rho q^{shift} prod_c prod_i xi_{q^i}(c)^{m_i(rho(c))}."""
    acc = Laurent.q_pow(nk_shift).scale(big_z_rho)
    for c, lam in enumerate(rho):
        for part in lam:
            acc = acc * ctx.xi_pow(c, part)
    return acc


# --------------------------------------------------------------------------
# commutator checks


def heisenberg_check(ctx: FockContext, m: int, n: int, i: int, j: int, vectors: list[FockVector]) -> CheckReport:
    """[a_m(gamma_i), a_n(gamma_j)] v = m delta_{m,-n} <gamma_i,gamma_j>^{q^m} v."""
    params = {"group": ctx.group.name, "xi": ctx.xi.kind, "p_exp": ctx.xi.p_exp,
              "basis": "chi", "m": m, "n": n, "i": i, "j": j}

    def pairs():
        for t, v in enumerate(vectors):
            lhs = ctx.apply_mode(m, i, ctx.apply_mode(n, j, v)) - ctx.apply_mode(n, j, ctx.apply_mode(m, i, v))
            rhs = v.scale(ctx.pair_pow(i, j, m).scale(m)) if m == -n else v.zero()
            yield (f"state #{t}", rhs, lhs)

    return first_mismatch("fock.heisenberg", params, pairs())


def heisenberg_check_cls(ctx: FockContext, m: int, n: int, c: int, cp: int, vectors: list[FockVector]) -> CheckReport:
    """[a_m(c), a_n(c')] v = m delta_{m,-n} delta_{c',c^{-1}} zeta_c xi_{q^m}(c) v."""
    g = ctx.group
    params = {"group": g.name, "xi": ctx.xi.kind, "p_exp": ctx.xi.p_exp,
              "basis": "cls", "m": m, "n": n, "c": c, "cp": cp}

    def pairs():
        for t, v in enumerate(vectors):
            lhs = ctx.apply_mode(m, c, ctx.apply_mode(n, cp, v)) - ctx.apply_mode(n, cp, ctx.apply_mode(m, c, v))
            if m == -n and cp == g.inv(c):
                rhs = v.scale(ctx.xi_pow(c, m).scale(m * g.zeta(c)))
            else:
                rhs = v.zero()
            yield (f"state #{t}", rhs, lhs)

    return first_mismatch("fock.heisenberg_cls", params, pairs())


def monomial_states(g: GroupData, max_degree: int, vector_type: type = FockVector, indices=None) -> list[FockVector]:
    """Deterministic list of all monomial states of degree <= max_degree, of vector_type."""
    idxs = list(indices) if indices is not None else list(range(g.n_classes))
    singles = [(n, i) for n in range(1, max_degree + 1) for i in idxs]
    monos: list[Mono] = [VACUUM]
    frontier: list[Mono] = [VACUUM]
    while frontier:
        nxt = []
        for m in frontier:
            for s in singles:
                if mono_deg(m) + s[0] <= max_degree and (not m or s >= m[-1]):
                    mm = m + (s,)
                    nxt.append(mm)
        monos.extend(nxt)
        frontier = nxt
    monos = sorted(set(monos))
    return [vector_type.unit(m) for m in monos]


# --------------------------------------------------------------------------
# lattice, cocycle, extended states


class LatticeContext:
    """Z^{r+1} with the q=1 weighted form, a fixed 2-cocycle, optional quotient.

    Cocycle: eps(gamma_i, gamma_j) = 1 for i <= j and (-1)^{<gamma_i,gamma_j>_1}
    for i > j, extended bimultiplicatively; this satisfies
    eps(a,b)/eps(b,a) = (-1)^{<a,b> + <a,a><b,b>} because the lattice is even.

    Quotient mode (type A, p = q^{+-1}) works on canonical representatives with
    first coordinate 0; the shift by gamma_0 becomes -(e_1 + ... + e_r) and
    cocycle values are taken on the canonical sections.
    """

    def __init__(self, ctx: FockContext, quotient: bool = False):
        self.fock = ctx
        self.gram = ctx.gram1
        self.rank = len(self.gram)
        self.quotient = quotient
        if quotient and (ctx.group.cartan_layout is None or ctx.group.cartan_layout[0] != "A"):
            raise ValueError("radical quotient is defined for cyclic groups only")
        self.delta = (1,) * self.rank

    def reduce(self, beta: tuple[int, ...]) -> tuple[int, ...]:
        if not self.quotient or beta[0] == 0:
            return tuple(beta)
        m0 = beta[0]
        return tuple(b - m0 for b in beta)

    def reduce_signed(self, beta: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Canonical representative of e^beta in the quotient by (e^delta - 1).

        e^delta is central up to the radical pairing, so the quotient by the
        eigenvalue-1 subspace is operator stable; walking beta to its m_0 = 0
        representative crosses the cocycle and may pick up signs:
        e^{beta+delta} = eps(delta, beta) e^{beta}.
        """
        if not self.quotient or beta[0] == 0:
            return 1, tuple(beta)
        sign = 1
        b = tuple(beta)
        while b[0] > 0:
            b2 = tuple(x - 1 for x in b)
            sign *= self.cocycle_sign(self.delta, b2)
            b = b2
        while b[0] < 0:
            sign *= self.cocycle_sign(self.delta, b)
            b = tuple(x + 1 for x in b)
        return sign, b

    def pairing(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        return sum(a * self.gram[i][j] * b for i, a in enumerate(alpha) if a for j, b in enumerate(beta) if b)

    def pairing_row(self, i: int, beta: tuple[int, ...]) -> int:
        """<gamma_i, beta>_1; representative independent in quotient mode."""
        return sum(self.gram[i][j] * b for j, b in enumerate(beta) if b)

    def cocycle_sign(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        acc = 0
        for i, a in enumerate(alpha):
            if not a:
                continue
            for j, b in enumerate(beta):
                if not b or i <= j:
                    continue
                acc += a * b * self.gram[i][j]
        return -1 if acc % 2 else 1

    def degree2(self, beta: tuple[int, ...]) -> int:
        """2 * deg(e^beta) = <beta, beta>_1 (even lattice, so deg is integral)."""
        return self.pairing(beta, beta)


class ExtState(FockVector):
    """Finite combination of (character monomial (x) lattice point) with Laurent coefficients."""

    __slots__ = ()

    @staticmethod
    def vacuum(rank: int) -> "ExtState":
        return ExtState.unit((VACUUM, (0,) * rank))

    @staticmethod
    def point(mono: Mono, beta: tuple[int, ...], coeff: Laurent | None = None) -> "ExtState":
        return ExtState({(mono, tuple(beta)): L_ONE if coeff is None else coeff})

    def __repr__(self):
        if self.f.is_zero:
            return "0"
        terms = sorted(self.terms.items())
        return " + ".join(f"({c})*{mono_str(m, self.basis)}*e{list(beta)}" for (m, beta), c in terms)


def ext_apply_mode(ctx: FockContext, m: int, i: int, v: ExtState) -> ExtState:
    """Heisenberg mode acting on the Fock factor only, one lattice point at a time."""
    out = L_ZERO
    for beta, f in keyed_parts(v.f, lambda ke: (ke[0][1], (ke[0][0], ke[1]))).items():
        w = ctx.apply_mode(m, i, FockVector.packed(f)).f
        out = out + w.with_entries({((mono, beta), e): x for (mono, e), x in w.entries()})
    return ExtState.packed(out)


def cocycle_condition_check(lat: LatticeContext) -> CheckReport:
    """eps(a,b) eps(b,a)^{-1} = (-1)^{<a,b> + <a,a><b,b>} on all basis pairs."""
    n = lat.rank

    def pairs():
        for i in range(n):
            ei = tuple(1 if t == i else 0 for t in range(n))
            for j in range(n):
                ej = tuple(1 if t == j else 0 for t in range(n))
                want = (-1) ** ((lat.pairing(ei, ej) + lat.pairing(ei, ei) * lat.pairing(ej, ej)) % 2)
                got = lat.cocycle_sign(ei, ej) * lat.cocycle_sign(ej, ei)
                yield (f"({i},{j})", want, got)

    return first_mismatch("fock.cocycle", {"group": lat.fock.group.name}, pairs())
