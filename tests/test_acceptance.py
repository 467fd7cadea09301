"""Acceptance suite: one test per criterion, exact equality unless stated.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (visible with pytest -s
or via scripts/run_acceptance.py) and enforces the stated runtime budgets.
"""

import time

import pytest

from qvertex.fock import ClassVector, ExtState, FockContext, heisenberg_check, heisenberg_check_cls, monomial_states
from qvertex.groups import binary_dihedral, binary_tetrahedral, cyclic, validate_group
from qvertex.repring import (
    cartan_specialization_check,
    first_xi,
    mckay_eigencheck,
    positivity_probe,
    qp_degeneracy_check,
    qp_eigenvalues,
    second_xi,
)
from qvertex.scalar import Laurent, TruncSeries
from qvertex.toroidal import SuiteConfig, run_suite
from qvertex.vertex import (
    VertexEngine,
    ope_product_check,
    ope_table_check,
    qpow_consistency_check,
    qpow_series_exp,
    y_minus,
    y_plus,
)
from qvertex.wreath import exp_formula_check, isometry_check

from helpers import natural_combo


def report(num: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- 1


def test_criterion_01_group_validation():
    t0 = time.time()
    groups = [cyclic(n) for n in range(1, 13)] + [binary_dihedral(n) for n in range(2, 7)] + [binary_tetrahedral()]
    bad = {g.name: validate_group(g) for g in groups}
    ok = all(not v for v in bad.values())
    dt = time.time() - t0
    report(1, ok and dt < 1.0, f"{len(groups)} groups validated in {dt:.2f}s")


# ---------------------------------------------------------------- 2


def test_criterion_02_quantum_mckay():
    t0 = time.time()
    ok = True
    for g in [cyclic(n) for n in (1, 2, 3, 5, 8, 12)] + [binary_dihedral(n) for n in (2, 3, 6)] + [binary_tetrahedral()]:
        ok &= mckay_eigencheck(first_xi(g)).passed
    # symbolic (q,p)-eigenvalues for cyclic(n), n <= 8
    qq = Laurent.q_pow(1) + Laurent.q_pow(-1)
    for n in range(1, 9):
        g = cyclic(n)
        for k in (1, 2, -1):
            ok &= mckay_eigencheck(second_xi(g, k)).passed
            vals = qp_eigenvalues(g, k)
            for j in range(n):
                want = qq - Laurent.q_pow(k, Laurent.root(n, j)) - Laurent.q_pow(-k, Laurent.root(n, -j))
                ok &= vals[j] == want
    dt = time.time() - t0
    report(2, ok and dt < 1.0, f"eigenvector identities exact in {dt:.2f}s")


# ---------------------------------------------------------------- 3


def test_criterion_03_cartan_specialization():
    t0 = time.time()
    ok = True
    for g in [cyclic(n) for n in range(1, 13)] + [binary_dihedral(n) for n in range(2, 7)] + [binary_tetrahedral()]:
        ok &= cartan_specialization_check(g).passed
    dt = time.time() - t0
    report(3, ok and dt < 1.0, f"A/D/E6 extended Cartan matrices exact in {dt:.2f}s")


# ---------------------------------------------------------------- 4


def test_criterion_04_qp_degeneracy():
    ok = True
    for n in range(1, 7):
        g = cyclic(n)
        for k in (1, -1, 2, -2, 3, 0):
            ok &= qp_degeneracy_check(g, k).passed
    report(4, ok, "rank r at p = q^{+-1}, nondegenerate otherwise, symbolically")


# ---------------------------------------------------------------- 5


def test_criterion_05_heisenberg_relations():
    t0 = time.time()
    ok = True
    cases = [(cyclic(2), (1, 2)), (cyclic(3), (1, 2)), (binary_dihedral(2), (None,))]
    for g, p_exps in cases:
        xis = [first_xi(g)]
        if g.cartan_layout[0] == "A":
            xis += [second_xi(g, k) for k in p_exps]
        for xi in xis:
            ctx = FockContext(xi)
            chi_states = monomial_states(g, 3)
            cls_states = monomial_states(g, 3, ClassVector)
            nc = g.n_classes
            for m in range(-3, 4):
                for n in range(-3, 4):
                    if m == 0 or n == 0:
                        continue
                    for i in range(nc):
                        for j in range(nc):
                            ok &= heisenberg_check(ctx, m, n, i, j, chi_states).passed
                            ok &= heisenberg_check_cls(ctx, m, n, i, j, cls_states).passed
                    if not ok:
                        report(5, False, f"{g.name} xi={xi.kind} m={m} n={n}")
    dt = time.time() - t0
    report(5, ok and dt < 30.0, f"all commutators exact in {dt:.1f}s (budget 30s)")


# ---------------------------------------------------------------- 6


def test_criterion_06_isometry():
    ok = True
    for g in (cyclic(2), cyclic(3)):
        ctx = FockContext(first_xi(g))
        for n in (1, 2, 3):
            for k in (0, 1):
                for l in (0, 1):
                    ok &= isometry_check(ctx, n, k, l).passed
    report(6, ok, "group-side and Fock-side sigma pairings exact for n <= 3")


# ---------------------------------------------------------------- 7


def test_criterion_07_exponential_formulas():
    ok = True
    for g in (cyclic(2), cyclic(3)):
        ctx = FockContext(first_xi(g))
        combos = [[(1, i, k)] for i in range(g.n_classes) for k in (0, 1)]
        combos.append([(1, 0, 1), (1, 0, -1)] + [(-c, i, k) for c, i, k in natural_combo(g)])
        for combo in combos:
            for n in range(5):
                ok &= exp_formula_check(ctx, combo, n, "eta").passed
        for i in range(g.n_classes):
            for n in range(5):
                ok &= exp_formula_check(ctx, [(1, i, 1)], n, "eps").passed
    report(7, ok, "ch(eta_n)/ch(eps_n) equal the exponential coefficients, n <= 4")


# ---------------------------------------------------------------- 8


def test_criterion_08_qpow():
    ok = all(qpow_consistency_check(a, 10).passed for a in range(-2, 3))
    D = 16
    want = TruncSeries(D, [Laurent.one(), -Laurent.q_pow(1)]) * TruncSeries(D, [Laurent.one(), -Laurent.q_pow(-1)])
    ok &= qpow_series_exp(2, D) == want
    report(8, ok, "triple representation to order 10; a=2 factorisation exact")


# ---------------------------------------------------------------- 9


def _ope_families(k):
    return [
        ("YY", lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, 1, 0, k)),
               lambda i, j: (y_minus(i, 1, 0, k), y_minus(j, 1, 0, k))),
        ("Ymix", lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, 1, 0, k)),
                 lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, 1, 0, k))),
        ("YYneg", lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, -1, 0, -k)),
                  lambda i, j: (y_minus(i, 1, 0, k), y_minus(j, -1, 0, -k))),
        ("YpYmneg", lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, -1, 0, -k)), None),
        ("YmYpneg", lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, -1, 0, -k)), None),
    ]


def _run_ope_suite(eng, rank, window, k):
    states = [
        ExtState.vacuum(rank),
        ExtState.point(((1, 1 % rank),), (0,) * rank),
        ExtState.point(((1, 0), (1, 1 % rank)), (0,) * rank),
        ExtState.point((), tuple(1 if t == 1 % rank else 0 for t in range(rank))),
    ]
    ok = True
    for name, mk, mk2 in _ope_families(k):
        for i in range(rank):
            for j in range(rank):
                for maker in (mk, mk2):
                    if maker is None:
                        continue
                    opA, opB = maker(i, j)
                    ok &= ope_product_check(eng, opA, opB, window, states, name, {}).passed
                    ok &= ope_table_check(eng, opA, opB, 10, name, {}).passed
        if not ok:
            return False
    return ok


def test_criterion_09_ope():
    t0 = time.time()
    ok = True
    for g in (cyclic(2), cyclic(3)):
        eng = VertexEngine(FockContext(first_xi(g)))
        ok &= _run_ope_suite(eng, g.n_classes, 3, -1)
    g = cyclic(3)
    for p in (1, 2, -1):
        eng = VertexEngine(FockContext(second_xi(g, p)), p_exp=p)
        ok &= _run_ope_suite(eng, 3, 3, -1)
    dt = time.time() - t0
    report(9, ok and dt < 300.0, f"five OPE families, window 3, exact, {dt:.1f}s (budget 300s)")


# ---------------------------------------------------------------- 10


def test_criterion_10_toroidal():
    t0 = time.time()
    ok = True
    for spec, g in (("cyclic:2", cyclic(2)), ("cyclic:3", cyclic(3))):
        for variant in ("toroidal_plus", "toroidal_minus"):
            # serre runs the N = 3 symmetrisation for cyclic(2) at the reduced
            # window the module documents; all other checks at |mode| <= 2
            cfg = SuiteConfig(spec, variant=variant, k=-1, max_degree=2, max_mode=2, max_states=12)
            reports = run_suite(g, cfg)
            for r in reports:
                ok &= r.passed
                if not r.passed:
                    report(10, False, f"{spec} {variant} {r.check_id}: {r.fail_detail}")
    dt = time.time() - t0
    report(10, ok and dt < 600.0, f"both correspondences, full relation suite, {dt:.1f}s (budget 600s)")


# ---------------------------------------------------------------- 11


def test_criterion_11_affine():
    ok = True
    for spec, g in (("cyclic:3", cyclic(3)), ("bd:2", binary_dihedral(2))):
        cfg = SuiteConfig(spec, variant="affine", k=-1, max_degree=2, max_mode=2, max_states=10)
        reports = run_suite(g, cfg)
        ok &= all(r.passed for r in reports)
    report(11, ok, "affine suite on the node-0-free subspace")


# ---------------------------------------------------------------- 12


def test_criterion_12_typeA_quotient():
    ok = True
    for p in (1, -1):
        cfg = SuiteConfig("cyclic:3", variant="typeA_qp", k=-1, p_exp=p, max_degree=2, max_mode=2, max_states=10)
        ok &= all(r.passed for r in run_suite(cyclic(3), cfg))
    cfg = SuiteConfig("cyclic:3", variant="typeA_qp", k=-1, p_exp=2, max_degree=2, max_mode=2, max_states=10)
    ok &= all(r.passed for r in run_suite(cyclic(3), cfg))
    report(12, ok, "p = q^{+-1} on the radical quotient; p = q^2 on the full space")


# ---------------------------------------------------------------- 13


def test_criterion_13_positivity():
    ok = True
    groups = [cyclic(n) for n in (1, 2, 3, 5, 8, 12)] + [binary_dihedral(n) for n in range(2, 7)] + [binary_tetrahedral()]
    for g in groups:
        xi = first_xi(g)
        for t in (0.5, 2.0):
            ok &= positivity_probe(xi, t, tol=1e-9).passed
        ok &= positivity_probe(xi, 1.0, tol=1e-9).passed
    report(13, ok, "positive definite at t in {0.5, 2}; semi-definite boundary at t = 1")
