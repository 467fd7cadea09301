"""Heisenberg algebra on the group Fock space, and its lattice extension.

Monomials are sorted tuples of (degree n, generator index) pairs: products of
creation generators a_{-n}(gamma_i) (character basis, tag "chi") or a_{-n}(c)
(class basis, tag "cls").  One sparse state class, FockVector, maps keys to
nonzero Laurent coefficients; its keys are monomials, and in the subclass
ExtState they are (monomial, lattice point) pairs, the lattice Z^{r+1} being
spanned by the irreducible characters.  The terms dict never holds a zero:
constructors are handed zero-free dicts (a product of nonzero Laurent scalars
is nonzero) and add_term drops cancellations.

Normalisations:
  * a_{-n}(gamma) acts by multiplication;
  * a_n(gamma_i), n > 0, contracts each matched degree-n factor a_{-n}(gamma_j)
    with value n * <gamma_i, gamma_j>_xi^{q^n} -- the factor n is forced by the
    commutator [a_m(gamma), a_n(gamma')] = m delta_{m,-n} <gamma,gamma'>^{q^m}
    and by the norm formula with Z_rho;
  * the bilinear form is q-sesquilinear: <f u, g v> = f bar_q(g) <u, v>,
    <1,1> = 1, adjoint a_n^* = a_{-n}.

The form is evaluated in Gram rows (FockContext.gram): every right-hand
vector is expanded into character-basis monomials once, and every left vector
once, into a dual row over those monomials; <u, v> for a single pair is the
one-entry Gram row.

The basis change (FockContext.to_chi / to_cls) is a tensor-power change of
basis, applied by sum factorisation: one factor per pass over the whole
vector, each entry keyed by (monomial expanded so far, factors still to
expand), with like keys merged between passes.  Terms that cancel across the
input's monomials -- ch(eta_n) has hundreds of class monomials and a few dozen
character monomials -- thus cancel as soon as their prefixes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import GroupData
from .repring import QCartanMatrix, WeightXi, qcartan
from .report import CheckReport, first_mismatch
from .scalar import L_ZERO, Laurent

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


@dataclass
class FockVector:
    """Finite combination of keys with nonzero Laurent coefficients.

    Invariant: ``terms`` holds no zero coefficient.  Arithmetic returns
    ``type(self)``, so the lattice-extended ExtState shares it unchanged.
    """

    basis: str  # "chi" | "cls"
    terms: dict[Mono, Laurent] = field(default_factory=dict)

    @staticmethod
    def vacuum(basis: str = "chi") -> "FockVector":
        return FockVector(basis, {VACUUM: Laurent.one()})

    @classmethod
    def zero(cls, basis: str = "chi"):
        return cls(basis, {})

    def add_term(self, key, c: Laurent) -> None:
        cur = self.terms.get(key)
        s = c if cur is None else cur + c
        if s.is_zero:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other):
        assert self.basis == other.basis
        out = type(self)(self.basis, dict(self.terms))
        for k, c in other.terms.items():
            out.add_term(k, c)
        return out

    def __sub__(self, other):
        return self + other.scale(Laurent.of(-1))

    def scale(self, f: Laurent):
        if f.is_zero:
            return self.zero(self.basis)
        return type(self)(self.basis, {k: c * f for k, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.basis == other.basis and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{mono_str(m, self.basis)}" for m, c in sorted(self.terms.items()))


# --------------------------------------------------------------------------
# pairing context


class FockContext:
    """Caches the xi-weighted pairings a_ij^{q^m} and class-basis data."""

    def __init__(self, xi: WeightXi):
        self.xi = xi
        self.group: GroupData = xi.group
        self.cartan: QCartanMatrix = qcartan(xi)
        self._pair_cache: dict[tuple[int, int, int], Laurent] = {}
        self._form_cache: dict[tuple[Mono, Mono], Laurent] = {}
        g = self.group
        n = g.n_classes
        self.gram1 = self.cartan.at_q1()  # lattice form <gamma_i, gamma_j>_xi^1
        # basis change matrices (m-independent for untwisted characters)
        self.chi_of_cls = [[Laurent({0: g.char_table[i][g.inv(c)]}) for i in range(n)] for c in range(n)]
        self.cls_of_chi = [
            [Laurent({0: g.char_table[i][c]}).scale(Fraction(1, g.zeta(c))) for c in range(n)] for i in range(n)
        ]

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
        """a_{-n} of generator i (a character or a class, per v.basis): multiply it in."""
        assert n > 0
        return FockVector(v.basis, {mono_mul(m, (n, i)): c for m, c in v.terms.items()})

    def annihilate(self, n: int, i: int, v: FockVector) -> FockVector:
        """Apply a_n(gamma_i), n > 0: contraction with factor n per matched slot."""
        assert v.basis == "chi" and n > 0
        out = FockVector.zero("chi")
        for m, coeff in v.terms.items():
            seen = set()
            for t, (deg, j) in enumerate(m):
                if deg != n or (deg, j) in seen:
                    continue
                seen.add((deg, j))
                mult = m.count((deg, j))
                reduced = list(m)
                reduced.remove((deg, j))
                out.add_term(tuple(reduced), coeff * self.pair_pow(i, j, n).scale(mult * n))
        return out

    def annihilate_cls(self, n: int, c: int, v: FockVector) -> FockVector:
        """a_n(c): contraction value n zeta_c xi_{q^n}(c) against each a_{-n}(c^{-1})."""
        assert v.basis == "cls" and n > 0
        g = self.group
        cinv = g.inv(c)
        val = self.xi_pow(c, n).scale(g.zeta(c) * n)
        out = FockVector.zero("cls")
        for m, coeff in v.terms.items():
            mult = m.count((n, cinv))
            if mult:
                reduced = list(m)
                reduced.remove((n, cinv))
                out.add_term(tuple(reduced), coeff * val.scale(mult))
        return out

    def apply_mode(self, m: int, i: int, v: FockVector) -> FockVector:
        """a_m(gamma_i) with the sign convention m < 0 creation, m > 0 annihilation."""
        if m < 0:
            return self.create(-m, i, v)
        return self.annihilate(m, i, v) if v.basis == "chi" else self.annihilate_cls(m, i, v)

    # -- basis change

    def _rebase(self, v: FockVector, matrix: list[list[Laurent]], basis: str) -> FockVector:
        """Expand every factor a_{-n}(x) of v as sum_y matrix[x][y] a_{-n}(y).

        One factor per pass over the whole vector: each entry is keyed by
        (monomial already expanded, suffix of v's monomial still to expand).
        A pass pops the first factor (deg, x) of every suffix and adds
        matrix[x][y] times the entry under (done * a_{-deg}(y), tail); like
        keys merge before the next pass, so cancellation across v's monomials
        happens per factor, not after the full product expansion.  An entry
        with an empty suffix is finished and goes to the output.
        """
        if v.basis == basis:
            return v
        out = FockVector.zero(basis)
        cur = {(VACUUM, m): c for m, c in v.terms.items()}
        while cur:
            nxt = FockVector.zero(basis)
            for (done, rest), c in cur.items():
                if not rest:
                    out.add_term(done, c)
                    continue
                (deg, x), tail = rest[0], rest[1:]
                for y, w in enumerate(matrix[x]):
                    if not w.is_zero:
                        nxt.add_term((mono_mul(done, (deg, y)), tail), c * w)
            cur = nxt.terms
        return out

    def to_chi(self, v: FockVector) -> FockVector:
        """a_{-n}(c) = sum_gamma gamma(c^{-1}) a_{-n}(gamma), expanded per factor."""
        return self._rebase(v, self.chi_of_cls, "chi")

    def to_cls(self, v: FockVector) -> FockVector:
        """a_{-n}(gamma_i) = sum_c zeta_c^{-1} gamma_i(c) a_{-n}(c)."""
        return self._rebase(v, self.cls_of_chi, "cls")

    # -- bilinear form

    def form_mono(self, u: Mono, v: Mono) -> Laurent:
        if mono_deg(u) != mono_deg(v):
            return L_ZERO
        if not u:
            return Laurent.one()
        key = (u, v)
        out = self._form_cache.get(key)
        if out is not None:
            return out
        (n, i), rest = u[0], u[1:]
        acc = L_ZERO
        contracted = self.annihilate(n, i, FockVector("chi", {v: Laurent.one()}))
        for w, c in contracted.terms.items():
            acc = acc + c * self.form_mono(rest, w)
        self._form_cache[key] = acc
        return acc

    def gram(self, us, vs):
        """Rows [<u, v> for v in vs], one per u of us, generated lazily.

        Each v is expanded in the character basis once, with its barred
        coefficients and monomial degrees.  Each u is expanded when its row is
        pulled, into a dual row d_u[mv] = sum_mu cu <mu, mv> over the monomials
        mu of equal degree, filled on demand; then <u, v> = sum_mv d_u[mv]
        bar_q(cv).
        """
        cols = [
            [(mv, mono_deg(mv), cv.bar_q()) for mv, cv in self.to_chi(v).terms.items()]
            for v in vs
        ]
        for u in us:
            by_deg: dict[int, list[tuple[Mono, Laurent]]] = {}
            for mu, cu in self.to_chi(u).terms.items():
                by_deg.setdefault(mono_deg(mu), []).append((mu, cu))
            dual: dict[Mono, Laurent] = {}
            row = []
            for col in cols:
                acc = L_ZERO
                for mv, deg, bar_cv in col:
                    d = dual.get(mv)
                    if d is None:
                        d = L_ZERO
                        for mu, cu in by_deg.get(deg, ()):
                            f = self.form_mono(mu, mv)
                            if not f.is_zero:
                                d = d + cu * f
                        dual[mv] = d
                    if not d.is_zero:
                        acc = acc + d * bar_cv
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
            rhs = v.scale(ctx.pair_pow(i, j, m).scale(m)) if m == -n else FockVector.zero(v.basis)
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
                rhs = FockVector.zero(v.basis)
            yield (f"state #{t}", rhs, lhs)

    return first_mismatch("fock.heisenberg_cls", params, pairs())


def monomial_states(g: GroupData, basis: str, max_degree: int, indices=None) -> list[FockVector]:
    """Deterministic list of all monomial states of degree <= max_degree."""
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
    return [FockVector(basis, {m: Laurent.one()}) for m in monos]


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

    def basis_shift(self, i: int) -> tuple[int, ...]:
        e = [0] * self.rank
        e[i] = 1
        return self.reduce(tuple(e))

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
    """Finite combination of (Fock monomial (x) lattice point) with Laurent coefficients."""

    @staticmethod
    def vacuum(rank: int, basis: str = "chi") -> "ExtState":
        return ExtState(basis, {(VACUUM, (0,) * rank): Laurent.one()})

    @staticmethod
    def point(mono: Mono, beta: tuple[int, ...], basis: str = "chi", coeff: Laurent | None = None) -> "ExtState":
        c = Laurent.one() if coeff is None else coeff
        return ExtState(basis, {} if c.is_zero else {(mono, tuple(beta)): c})

    def __repr__(self):
        if not self.terms:
            return "0"
        terms = sorted(self.terms.items())
        return " + ".join(f"({c})*{mono_str(m, self.basis)}*e{list(beta)}" for (m, beta), c in terms)


def ext_apply_mode(ctx: FockContext, m: int, i: int, v: ExtState) -> ExtState:
    """Heisenberg mode acting on the Fock factor only."""
    out = ExtState(v.basis)
    for (mono, beta), c in v.terms.items():
        fv = ctx.apply_mode(m, i, FockVector(v.basis, {mono: c}))
        for w, x in fv.terms.items():
            out.add_term((w, beta), x)
    return out


def lattice_mul_e(lat: LatticeContext, shift: tuple[int, ...], v: ExtState) -> ExtState:
    """The eps-twisted multiplication e^shift (quotient-aware)."""
    out = ExtState(v.basis)
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
        by_beta_u.setdefault(beta, FockVector(u.basis)).add_term(mono, c)
    for (mono, beta), c in v.terms.items():
        by_beta_v.setdefault(beta, FockVector(v.basis)).add_term(mono, c)
    acc = L_ZERO
    for beta, fu in by_beta_u.items():
        fv = by_beta_v.get(beta)
        if fv is not None:
            acc = acc + ctx.form(fu, fv)
    return acc


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
