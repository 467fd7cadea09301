"""The ring R(Gamma x C*) of Laurent-valued class functions.

Carries the antipode, the two distinguished self-dual weights, quantum
Cartan matrices (the weighted form below on irreducible characters), the
McKay eigenvector identity, the symbolic (q,p) degeneracy analysis, and the
numerical positivity probe.

Conventions (fixed across the package):
  * values of a class function are Laurent scalars in v (v^2 = q);
  * antipode S:  (S f)(c) = f(c^{-1}) with q -> q^{-1} on the value, no
    conjugation of cyclotomic coefficients;
  * standard form <f, g> = sum_c zeta_c^{-1} f(c) * (S g)(c) -- the second
    slot is antipoded, so <gamma_i x q^k, gamma_j x q^l> = delta_ij q^{k-l};
  * weighted form <f, g>_xi = <xi * f, g>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import GroupData, extended_cartan
from .report import CheckReport, first_mismatch
from .scalar import L_ZERO, Laurent, eval_at_one


@dataclass(frozen=True)
class CxClassFunction:
    group: GroupData
    values: tuple[Laurent, ...]

    def __post_init__(self):
        if len(self.values) != self.group.n_classes:
            raise ValueError("one value per conjugacy class required")

    # -- constructors

    @staticmethod
    def character(g: GroupData, i: int, qtwist: int = 0, vtwist: int = 0) -> "CxClassFunction":
        tw = Laurent.v_pow(2 * qtwist + vtwist)
        return CxClassFunction(g, tuple(c * tw for c in g.char_table[i]))

    @staticmethod
    def natural(g: GroupData) -> "CxClassFunction":
        return CxClassFunction(g, g.natural_char)

    @staticmethod
    def constant(g: GroupData, f: Laurent) -> "CxClassFunction":
        return CxClassFunction(g, tuple(f for _ in range(g.n_classes)))

    # -- pointwise ring structure

    def __add__(self, other: "CxClassFunction") -> "CxClassFunction":
        return CxClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CxClassFunction") -> "CxClassFunction":
        return CxClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "CxClassFunction") -> "CxClassFunction":
        return CxClassFunction(self.group, tuple(a * b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "CxClassFunction":
        return CxClassFunction(self.group, tuple(-a for a in self.values))

    def scale(self, f: Laurent) -> "CxClassFunction":
        return CxClassFunction(self.group, tuple(a * f for a in self.values))


def antipode(f: CxClassFunction) -> CxClassFunction:
    g = f.group
    return CxClassFunction(g, tuple(f.values[g.inv(c)].bar_q() for c in range(g.n_classes)))


# --------------------------------------------------------------------------
# distinguished weights


@dataclass(frozen=True)
class WeightXi:
    f: CxClassFunction
    kind: str  # "first" | "second" | "general"
    p_exp: int | None = None  # k with p = q^k, second kind only

    @property
    def group(self) -> GroupData:
        return self.f.group


def first_xi(g: GroupData) -> WeightXi:
    """xi = gamma_0 (x) (q + q^-1) - pi (x) 1."""
    qq = Laurent.q_pow(1) + Laurent.q_pow(-1)
    f = CxClassFunction.character(g, 0).scale(qq) - CxClassFunction.natural(g)
    return WeightXi(f, "first")


def second_xi(g: GroupData, p_exp: int) -> WeightXi:
    """xi^{q,p} = gamma_0 (x) (q+q^-1) - (gamma_1 (x) p + gamma_r (x) p^-1), cyclic only."""
    if g.cartan_layout is None or g.cartan_layout[0] != "A":
        raise ValueError("second distinguished weight requires a cyclic group")
    n = g.n_classes
    qq = Laurent.q_pow(1) + Laurent.q_pow(-1)
    f = (
        CxClassFunction.character(g, 0).scale(qq)
        - CxClassFunction.character(g, 1 % n).scale(Laurent.q_pow(p_exp))
        - CxClassFunction.character(g, (n - 1) % n).scale(Laurent.q_pow(-p_exp))
    )
    return WeightXi(f, "second", p_exp=p_exp)


# --------------------------------------------------------------------------
# quantum Cartan matrices


@dataclass(frozen=True)
class QCartanMatrix:
    xi: WeightXi
    entries: tuple[tuple[Laurent, ...], ...]

    @property
    def group(self) -> GroupData:
        return self.xi.group

    def at_q1(self) -> list[list[int]]:
        out = []
        for row in self.entries:
            vals = [eval_at_one(e) for e in row]
            ints = [int(v.coords()[1][0]) for v in vals]  # an integral value is its first coordinate
            if vals != ints:
                raise ValueError("Cartan matrix not integral at q = 1")
            out.append(ints)
        return out


def qcartan(xi: WeightXi) -> QCartanMatrix:
    """a_ij = <chi_i, chi_j>_xi = sum_c (xi chi_i)(c)/zeta_c * (S chi_j)(c).

    The row factor xi chi_i |C_c| and the antipoded column S chi_j are computed
    once each, not once per entry.  1/zeta_c = |C_c|/|G|: summing with integral
    class sizes and dividing by |G| once keeps the inner products integral.
    """
    g = xi.group
    n = g.n_classes
    chars = [CxClassFunction.character(g, i) for i in range(n)]
    sizes = [g.class_size(c) for c in range(n)]
    left = [[(x * f).scale(s) for x, f, s in zip(xi.f.values, chi.values, sizes)] for chi in chars]
    right = [antipode(chi).values for chi in chars]
    inv_order = Fraction(1, g.order)
    rows = []
    for lv in left:
        row = []
        for rv in right:
            acc = L_ZERO
            for a, b in zip(lv, rv):
                acc = acc + a * b
            row.append(acc.scale(inv_order))
        rows.append(tuple(row))
    return QCartanMatrix(xi, tuple(rows))


def hermitian_like_check(A: QCartanMatrix) -> CheckReport:
    """a_ij = bar_q(a_ji), the self-duality constraint on the Gram matrix."""
    n = A.group.n_classes

    def pairs():
        for i in range(n):
            for j in range(n):
                yield (f"a[{i}][{j}]", A.entries[i][j], A.entries[j][i].bar_q())

    return first_mismatch("repring.hermitian", {"group": A.group.name, "xi": A.xi.kind}, pairs())


def mckay_eigencheck(xi: WeightXi) -> CheckReport:
    """A^q v(c) = xi(c) v(c) for every class column v(c) of the character table."""
    g = xi.group
    A = qcartan(xi)
    n = g.n_classes

    def pairs():
        for c in range(n):
            ev = xi.f.values[c]
            for i in range(n):
                lhs = L_ZERO
                for k in range(n):
                    lhs = lhs + A.entries[i][k] * g.char_table[k][c]
                rhs = ev * g.char_table[i][c]
                yield (f"class {g.classes[c].label}, row {i}", rhs, lhs)

    return first_mismatch(
        "repring.mckay", {"group": g.name, "xi": xi.kind, "p_exp": xi.p_exp}, pairs()
    )


def cartan_specialization_check(g: GroupData) -> CheckReport:
    """First-weight Cartan matrix at q = 1 equals the stored extended ADE matrix."""
    if g.cartan_layout is None:
        raise ValueError("no stored Cartan layout for this group")
    got = qcartan(first_xi(g)).at_q1()
    want = extended_cartan(g.cartan_layout)
    ok = got == want
    return CheckReport(
        "repring.cartan_q1",
        {"group": g.name, "layout": list(g.cartan_layout)},
        passed=ok,
        n_cases=g.n_classes**2,
        fail_detail=None if ok else {"where": "matrix", "expected": str(want), "got": str(got)},
    )


# --------------------------------------------------------------------------
# symbolic degeneracy of the (q,p) form


def qp_eigenvalues(g: GroupData, p_exp: int) -> list[Laurent]:
    """Exact eigenvalues q + q^-1 - w^j p - w^-j p^-1 of A^{q,p}, as xi(c^j)."""
    return list(second_xi(g, p_exp).f.values)


def qp_degeneracy_check(g: GroupData, p_exp: int) -> CheckReport:
    """Symbolic rank of A^{q,p}: rank r exactly when p = q^{+-1}, full otherwise.

    The eigencheck certifies A^{q,p} V = V diag(xi(c^j)) with V the (invertible)
    character table, so its rank equals the number of nonvanishing eigenvalues.
    """
    eig = mckay_eigencheck(second_xi(g, p_exp))
    if not eig.passed:
        return eig
    vals = qp_eigenvalues(g, p_exp)
    zero_idx = [j for j, v in enumerate(vals) if v.is_zero]
    n = g.n_classes
    degenerate = p_exp in (1, -1)
    expected_zeros = [0] if degenerate else []
    ok = zero_idx == expected_zeros
    notes = [f"rank {n - len(zero_idx)} of {n}"]
    if degenerate:
        notes.append("kernel spanned by the all-ones vector v(c^0)")
    return CheckReport(
        "repring.qp_degeneracy",
        {"group": g.name, "p_exp": p_exp},
        passed=ok,
        n_cases=n,
        fail_detail=None if ok else {"where": "zero eigenvalue set", "expected": str(expected_zeros), "got": str(zero_idx)},
        notes=notes,
    )


# --------------------------------------------------------------------------
# numerical positivity probe


def positivity_probe(xi: WeightXi, t: float, tol: float = 1e-9) -> CheckReport:
    """Eigenvalue signs of the weighted Gram matrix evaluated at q = t.

    t > 0, t != 1: positive definite (first weight / generic second weight).
    t = 1: boundary mode, positive semi-definite with minimal eigenvalue ~ 0.
    Second weight at p = q^{+-1}: exactly one ~0 eigenvalue, kernel ~ (1,..,1).
    """
    if t <= 0:
        raise ValueError("positivity probe requires t > 0")
    g = xi.group
    A = qcartan(xi)
    n = g.n_classes
    M = np.array([[A.entries[i][j].eval_real(t) for j in range(n)] for i in range(n)], dtype=complex)
    params = {"group": g.name, "xi": xi.kind, "p_exp": xi.p_exp, "t": t, "tol": tol}

    if xi.kind == "second":
        # not conj-symmetric at fixed real t (-p vs -p^-1); use general spectrum
        eigvals = np.linalg.eigvals(M)
        order = np.argsort(np.abs(eigvals))
        near_zero = int(np.sum(np.abs(eigvals) <= tol))
        notes = [f"abs eigenvalues {np.array2string(np.sort(np.abs(eigvals)), precision=6)}"]
        degenerate = xi.p_exp in (1, -1) and t != 1.0
        if degenerate:
            ok = near_zero == 1
            if ok:
                vecs = np.linalg.eig(M)[1]
                kernel = vecs[:, order[0]]
                kernel = kernel / kernel[np.argmax(np.abs(kernel))]
                ok = bool(np.max(np.abs(kernel - kernel[0])) < 1e-6)
                notes.append(f"rank {n - 1} of {n}; kernel aligned with the all-ones vector")
            return CheckReport("repring.positivity", params, passed=ok, n_cases=n, notes=notes,
                               fail_detail=None if ok else {"where": "rank", "expected": f"{n-1} nonzero + 1 null", "got": str(eigvals)})
        ok = near_zero == 0 if t != 1.0 else near_zero >= 1
        return CheckReport("repring.positivity", params, passed=ok, n_cases=n, notes=notes,
                           fail_detail=None if ok else {"where": "degeneracy count", "expected": "no null eigenvalue" if t != 1.0 else ">= 1 null", "got": str(eigvals)})

    if np.max(np.abs(M - M.conj().T)) > 1e-9:
        return CheckReport(
            "repring.positivity", params, passed=False,
            fail_detail={"where": "hermitian symmetry", "expected": "0", "got": str(np.max(np.abs(M - M.conj().T)))},
        )
    eigvals = np.linalg.eigvalsh((M + M.conj().T) / 2)
    near_zero = int(np.sum(np.abs(eigvals) <= tol))
    notes = [f"eigenvalues {np.array2string(eigvals, precision=6)}"]

    if t == 1.0:
        ok = bool(eigvals[0] > -tol and near_zero >= 1)
        return CheckReport("repring.positivity", params, passed=ok, n_cases=n, notes=notes,
                           fail_detail=None if ok else {"where": "semidefinite boundary", "expected": ">= -tol with a null direction", "got": str(eigvals)})

    ok = bool(eigvals[0] > -tol and near_zero == 0)
    return CheckReport("repring.positivity", params, passed=ok, n_cases=n, notes=notes,
                       fail_detail=None if ok else {"where": "positive definiteness", "expected": "all eigenvalues > 0", "got": str(eigvals)})
