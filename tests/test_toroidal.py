import gc
import json
import math
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from qvertex import cli, toroidal
from qvertex.groups import binary_dihedral, cyclic
from qvertex.toroidal import (
    RepMap,
    SuiteConfig,
    check_a_x,
    check_xpxm,
    run_suite,
)
from qvertex.fock import ExtState
from qvertex.report import first_mismatch, first_nonzero
from qvertex.scalar import KeyedSum, Laurent, qint
from qvertex.vertex import fj_x

from vector_helpers import ref_a_mode, ref_k_diag, ref_psi_mode

SMALL = dict(max_degree=1, max_mode=1, max_states=5)


def small_cfg(spec, **kw):
    merged = {**SMALL, **kw}
    return SuiteConfig(spec, **merged)


def test_heisenberg_explicit_value():
    # [a_i(1), a_i(-1)] = [2][1] = q + q^-1 on the vacuum
    rep = RepMap(cyclic(3), small_cfg("cyclic:3"))
    vac = ExtState.vacuum(3)
    got = rep.a_mode(1, 1, rep.a_mode(1, -1, vac))
    assert got == vac.scale(Laurent.q_pow(1) + Laurent.q_pow(-1))


def test_a_x_vacuum_example():
    # [a_i(1), x_i^+(n)] |0> = [2] q^{-1/2} x_i^+(n+1) |0> at k = -1
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", k=-1))
    vac = ExtState.vacuum(3)
    for n in (-2, -1):
        lhs = rep.a_mode(1, 1, rep.x_mode(1, 1, n, vac))  # x(n)|0> then a(1); a(1)|0> = 0
        want = rep.x_mode(1, 1, n + 1, vac).scale(qint(2) * Laurent.v_pow(-1))
        assert lhs == want


def test_a_x_negative_mode_uses_odd_qint():
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", k=-1))
    states = rep.test_states()
    assert check_a_x(rep, states).passed


@pytest.mark.parametrize("variant,k", [("toroidal_plus", -1), ("toroidal_plus", 1), ("toroidal_minus", -1)])
def test_full_small_suite_cyclic3(variant, k):
    reports = run_suite(cyclic(3), small_cfg("cyclic:3", variant=variant, k=k))
    assert all(r.passed for r in reports), [(r.check_id, r.fail_detail) for r in reports if not r.passed]


def test_full_small_suite_cyclic2_includes_n3_serre():
    cfg = small_cfg("cyclic:2")
    reports = run_suite(cyclic(2), cfg)
    assert all(r.passed for r in reports)
    serre = next(r for r in reports if r.check_id == "toroidal.serre")
    assert serre.n_cases > 0  # the N = 3 symmetrisation really ran


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        RepMap(cyclic(3), small_cfg("cyclic:3", k=2))


def test_affine_variant_excludes_node_zero():
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", variant="affine"))
    assert rep.indices == [1, 2]
    for st in rep.test_states():
        for (mono, beta), _ in st.terms.items():
            assert all(i != 0 for _, i in mono)
            assert beta[0] == 0


def test_affine_suites_pass():
    for g, spec in [(cyclic(3), "cyclic:3"), (binary_dihedral(2), "bd:2")]:
        reports = run_suite(g, small_cfg(spec, variant="affine"))
        assert all(r.passed for r in reports), [(r.check_id, r.fail_detail) for r in reports if not r.passed]


@pytest.mark.parametrize("p_exp", [1, -1, 2])
def test_typeA_qp_suites(p_exp):
    reports = run_suite(cyclic(3), small_cfg("cyclic:3", variant="typeA_qp", p_exp=p_exp))
    assert all(r.passed for r in reports), [(r.check_id, r.fail_detail) for r in reports if not r.passed]


def test_typeA_qp_quotient_flag():
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", variant="typeA_qp", p_exp=1))
    assert rep.eng.lat.quotient
    rep2 = RepMap(cyclic(3), small_cfg("cyclic:3", variant="typeA_qp", p_exp=2))
    assert not rep2.eng.lat.quotient


def test_typeA_qp_requires_p():
    with pytest.raises(ValueError):
        RepMap(cyclic(3), small_cfg("cyclic:3", variant="typeA_qp"))


def test_report_json_deterministic(capsys):
    argv = ["toroidal", "--group", "cyclic:2", "--max-degree", "1", "--max-mode", "1", "--format", "json"]
    assert cli.main(argv) == 0
    a = capsys.readouterr().out
    assert cli.main(argv) == 0
    b = capsys.readouterr().out
    assert a == b
    doc = json.loads(a)
    assert list(doc) == ["suite", "config", "checks"]
    assert all(list(c)[:4] == ["id", "params", "pass", "cases"] for c in doc["checks"])


def test_failure_reports_carry_detail():
    from qvertex.vertex import fj_x

    rep = RepMap(cyclic(2), small_cfg("cyclic:2", k=-1))
    assert check_xpxm(rep, rep.test_states()).passed
    # swap the realised operators to the mirrored shift while the expected
    # formulas stay at k = -1: the check must fail and name a coefficient
    rep.x_op = lambda i, sign: fj_x(i, sign, +1)
    bad = check_xpxm(rep, rep.test_states())
    assert not bad.passed
    assert set(bad.fail_detail) == {"where", "expected", "got"}


# -- the memoised generator images

CACHE_CASES = [
    ("cyclic:2", cyclic(2), {"variant": "toroidal_plus"}),
    ("cyclic:2", cyclic(2), {"variant": "toroidal_minus"}),
    ("cyclic:2", cyclic(2), {"variant": "affine"}),
    ("cyclic:3", cyclic(3), {"variant": "toroidal_plus"}),
    ("cyclic:3", cyclic(3), {"variant": "toroidal_minus", "k": 1}),
    ("cyclic:3", cyclic(3), {"variant": "affine"}),
    ("cyclic:3", cyclic(3), {"variant": "typeA_qp", "p_exp": 1}),
    ("cyclic:3", cyclic(3), {"variant": "typeA_qp", "p_exp": 2}),
    ("cyclic:3", cyclic(3), {"variant": "toroidal_plus", "xi": "second", "p_exp": -1}),
    # not type A: the cocycle signs of the shifted points are not all one
    ("bd:2", binary_dihedral(2), {"variant": "toroidal_plus"}),
]

MIXED = [
    Laurent.one(),
    Laurent.q_pow(1) - Laurent.of(2),
    Laurent.v_pow(-1, Fraction(1, 3)),
    Laurent.root(3) + Laurent.q_pow(-2),
]


def cancelling_pair(rep, op, n, u, w):
    """(c_u u + c_w w, key): the combination's image under op(n) loses the term
    at key, which both images share; (None, None) when they share none."""
    img_u, img_w = rep.eng.mode(op, n, u), rep.eng.mode(op, n, w)
    common = sorted(set(img_u.terms) & set(img_w.terms))
    if not common:
        return None, None
    key = common[0]
    return u.scale(img_w.terms[key]) - w.scale(img_u.terms[key]), key


@pytest.mark.parametrize("spec,group,kw", CACHE_CASES, ids=[f"{s}-{'-'.join(map(str, k.values()))}" for s, _, k in CACHE_CASES])
def test_x_mode_matches_the_engine_cold_and_warm(spec, group, kw):
    rep = RepMap(group, small_cfg(spec, **kw))
    basis_states = rep.test_states()
    mixed = [
        sum((st.scale(MIXED[(t + r) % len(MIXED)]) for t, st in enumerate(basis_states) if t % 3 != r), ExtState())
        for r in range(3)
    ]
    # multi-term states with nonzero lattice shifts, as the xx and serre checks feed back in
    fed_back = [rep.eng.mode(rep.x_op(i, -1), -1, mixed[0]) for i in rep.indices]
    states = basis_states + mixed + [w for w in fed_back if not w.is_zero]
    cancelled = 0
    for i in rep.indices:
        for s in (1, -1):
            op = rep.x_op(i, s)
            for n in (-2, -1, 0, 1):
                for v in states:
                    want = rep.eng.mode(op, n, v)
                    assert rep.x_mode(i, s, n, v) == want  # cold or partly warm
                    assert rep.x_mode(i, s, n, v) == want  # warm
                for u, w in zip(states, states[1:]):
                    v, key = cancelling_pair(rep, op, n, u, w)
                    if v is None:
                        continue
                    got = rep.x_mode(i, s, n, v)
                    assert got == rep.eng.mode(op, n, v)
                    assert key not in got.terms
                    cancelled += 1
    assert cancelled > 0


def test_x_mode_results_do_not_alias_the_cache():
    rep = RepMap(cyclic(3), small_cfg("cyclic:3"))
    v = ExtState.vacuum(3)
    first = rep.x_mode(1, 1, -3, v)
    want = rep.eng.mode(rep.x_op(1, 1), -3, v)
    assert first == want and len(first.terms) > 1
    key = next(iter(first.terms))
    first.add_term(key, Laurent.q_pow(5))
    first.add_term(((), (7, 7, 7)), Laurent.one())
    assert rep.x_mode(1, 1, -3, v) == want
    second = rep.x_mode(1, 1, -3, v)
    for key, c in second.terms.items():
        second.add_term(key, -c)
    assert second.is_zero
    assert rep.x_mode(1, 1, -3, v) == want


def test_x_mode_cache_follows_a_replaced_operator():
    rep = RepMap(cyclic(2), small_cfg("cyclic:2", k=-1))
    v = ExtState.vacuum(2)
    assert rep.x_mode(0, 1, -2, v) == rep.eng.mode(fj_x(0, 1, -1), -2, v)
    rep.x_op = lambda i, sign: fj_x(i, sign, +1)
    mirrored = rep.eng.mode(fj_x(0, 1, +1), -2, v)
    assert mirrored != rep.eng.mode(fj_x(0, 1, -1), -2, v)
    assert rep.x_mode(0, 1, -2, v) == mirrored


HEISENBERG_SIDE_CASES = [
    ("cyclic:3", cyclic(3), {"variant": "toroidal_plus"}),
    ("cyclic:3", cyclic(3), {"variant": "toroidal_minus", "k": 1}),
    ("cyclic:3", cyclic(3), {"variant": "typeA_qp", "p_exp": 1}),
    ("bd:2", binary_dihedral(2), {"variant": "toroidal_plus"}),
]


@pytest.mark.parametrize("spec,group,kw", HEISENBERG_SIDE_CASES,
                         ids=[f"{s}-{'-'.join(map(str, k.values()))}" for s, _, k in HEISENBERG_SIDE_CASES])
def test_a_k_psi_off_the_origin_match_references(spec, group, kw):
    """a_i(m), k_i^p and the psi modes on states away from e^0 (in the quotient
    lattice, at reduced points) against references applied term by term."""
    rep = RepMap(group, small_cfg(spec, **kw))
    lat, rank = rep.eng.lat, group.n_classes
    raw = []
    for i in range(rank):
        for s in (1, -1):
            e = [0] * rank
            e[i] = s
            raw.append(tuple(e))
    raw += [(-1, 2) + (0,) * (rank - 2), (1,) * (rank - 1) + (0,)]
    points = sorted({lat.reduce(b) for b in raw})
    assert (0,) * rank not in points
    assert any(lat.reduce(b) != b for b in raw) == lat.quotient
    monos = [(), ((1, 0),), ((1, 1), (2, 0))]
    states = [ExtState.point(m, b) for m in monos for b in points[:3]]
    states.append(sum(
        (ExtState.point(m, b, coeff=MIXED[(t + u) % len(MIXED)])
         for t, m in enumerate(monos) for u, b in enumerate(points)),
        ExtState(),
    ))
    for v in states:
        for i in rep.indices:
            for m in (-2, -1, 1, 2):
                assert rep.a_mode(i, m, v) == ref_a_mode(rep.fock, i, m, v), (i, m, v)
            for p in (1, -1):
                assert rep.k_diag(i, v, power=p) == ref_k_diag(lat, i, p, v), (i, p, v)
            for ms in (1, -1):
                for cs in (1, -1):
                    for j in range(4):
                        want = ref_psi_mode(rep.fock, lat, rep.k_eff, i, ms, cs, j, v)
                        assert rep.psi_mode(i, ms, cs, j, v) == want, (i, ms, cs, j, v)


def test_one_rep_map_serving_every_generator_matches_a_fresh_one_per_call():
    """No two generators share a column: a, k, psi and x, called with every
    sign combination on one RepMap, agree with a fresh RepMap."""
    cfg = small_cfg("cyclic:3")
    calls = []
    for j in range(3):
        u = ExtState.point(((1, j),), (1, 0, -1))
        for i in (0, 1):
            calls += [("a_mode", (i, m, u)) for m in (-1, 1, 2)]
            calls += [("k_diag", (i, u, p)) for p in (1, -1)]
            calls += [("psi_mode", (i, ms, cs, jj, u)) for ms in (1, -1) for cs in (1, -1) for jj in (1, 2)]
            calls += [("x_mode", (i, s, n, u)) for s in (1, -1) for n in (-1, 0)]
    warm = RepMap(cyclic(3), cfg)
    for name, args in calls:
        assert getattr(warm, name)(*args) == getattr(RepMap(cyclic(3), cfg), name)(*args), (name, args)


def test_a_rep_map_is_freed_without_the_cycle_collector():
    # its tables hold every column of a suite run: they go when the suite ends
    gc.disable()
    try:
        rep = RepMap(cyclic(3), small_cfg("cyclic:3"))
        states = rep.test_states()
        assert check_a_x(rep, states).passed and check_xpxm(rep, states).passed
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        gc.enable()


# -- every relation check fails on a seeded defect, at a named coefficient


def scale_a1_by_q(rep, monkeypatch):
    # scales the input, not the image, so it reaches an image added into a residual; by linearity the same defect
    a_mode = rep.a_mode
    rep.a_mode = lambda i, m, v, into=None: a_mode(i, m, v.scale(Laurent.q_pow(1)) if m == 1 else v, into)


def mirror_x_op(rep, monkeypatch):
    rep.x_op = lambda i, sign: fj_x(i, sign, -rep.k_eff)


def trivial_cocycle(rep, monkeypatch):
    monkeypatch.setattr(rep.eng.lat, "cocycle_sign", lambda alpha, beta: 1)


def classical_binomials(rep, monkeypatch):
    monkeypatch.setattr(toroidal, "qbinom", lambda n, s: Laurent.of(math.comb(n, s)))


def sign_pow_one(rep, monkeypatch):
    monkeypatch.setattr(toroidal, "sign_pow", lambda sign, n: 1)


def a_of_minus_m(rep, monkeypatch):
    a_mode = rep.a_mode
    rep.a_mode = lambda i, m, v, into=None: a_mode(i, -m, v, into)


def x_of_n_plus_1(rep, monkeypatch):
    x_mode = rep.x_mode
    rep.x_mode = lambda i, s, n, v, into=None: x_mode(i, s, n + 1, v, into)


def x_of_minus_s(rep, monkeypatch):
    x_mode = rep.x_mode
    rep.x_mode = lambda i, s, n, v, into=None: x_mode(i, -s, n, v, into)


SEEDED = [
    (toroidal.check_heisenberg_rel, {}, scale_a1_by_q, "(i=0,j=0,m=-1,n=1,state=0)", 6),
    (toroidal.check_a_x, {}, scale_a1_by_q, "(i=0,j=0,s=1,m=1,n=-1,state=1)", 17),
    (toroidal.check_xx, {}, mirror_x_op, "(i=0,j=0,s=1,m=-1,n=-1,state=1)", 2),
    # off the diagonal: block (0,1,1)'s right side builds the products block (1,0,1)'s left side reads
    (toroidal.check_xx, {}, trivial_cocycle, "(i=0,j=1,s=1,m=-1,n=-1,state=0)", 91),
    (toroidal.check_xpxm, {}, mirror_x_op, "(i=0,j=0,m=-1,n=-1,state=0)", 1),
    (toroidal.check_serre, {}, classical_binomials, "(i=0,j=1,modes=(-1, -1),n=-1,state=0)", 1),
    (toroidal.check_psi_structure, {}, sign_pow_one, "order1 (i=0,ms=-1,state=0)", 12),
    (toroidal.check_highest_weight, {}, a_of_minus_m, "a_0(1)|0>", 1),
    (toroidal.check_grading, {}, x_of_n_plus_1, "x (i=0,s=1,n=-1,state=1)", 2),
    (toroidal.check_d2_grading, {"variant": "typeA_qp", "p_exp": 2}, x_of_minus_s, "(i=0,s=1,state=0)", 1),
]


def seeded_id(row):
    """The check's name; a further row of the same check adds its seed's name."""
    first = next(r for r in SEEDED if r[0] is row[0])
    return row[0].__name__ if row is first else f"{row[0].__name__}-{row[2].__name__}"


@pytest.mark.parametrize("check,kw,seed,where,n_cases", SEEDED, ids=[seeded_id(s) for s in SEEDED])
def test_each_check_fails_on_a_seeded_defect(check, kw, seed, where, n_cases, monkeypatch):
    def run_check(rep):
        return check(rep) if check is toroidal.check_highest_weight else check(rep, rep.test_states())

    assert run_check(RepMap(cyclic(3), small_cfg("cyclic:3", **kw))).passed
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", **kw))  # seeded before any column is built
    seed(rep, monkeypatch)
    bad = run_check(rep)
    assert not bad.passed
    assert bad.fail_detail["where"] == where
    assert bad.n_cases == n_cases


def test_xpxm_sees_a_defect_in_a_positive_heisenberg_mode(monkeypatch):
    # small_cfg's states are vacua, which every a_i(m > 0) annihilates, so a
    # defect in a_i(1) inside psi_mode shows only on the default excited states
    rep = RepMap(cyclic(3), SuiteConfig("cyclic:3"))
    assert toroidal.check_xpxm(rep, rep.test_states()).passed
    rep = RepMap(cyclic(3), SuiteConfig("cyclic:3"))
    scale_a1_by_q(rep, monkeypatch)
    bad = toroidal.check_xpxm(rep, rep.test_states())
    assert not bad.passed
    assert bad.fail_detail["where"] == "(i=0,j=0,m=-1,n=2,state=7)"
    assert bad.n_cases == 98


# -- a case is judged by its residual; only a failing case builds its sides


def residual_cases(sides_list, built):
    """(residual, sides) pairs for (where, expected, got) triples: got - expected in a KeyedSum."""
    def sides(k):
        built.append(k)
        return sides_list[k]

    for k, (_, expected, got) in enumerate(sides_list):
        res = KeyedSum()
        res.add_all(got.f, 0, Laurent.one(), 1)
        res.add_all(expected.f, 0, Laurent.one(), -1)
        yield res, partial(sides, k)


def test_first_nonzero_passes_without_building_a_side():
    v = ExtState.point(((1, 0),), (0, 1, -1), coeff=MIXED[3])
    triples = [(f"case {k}", v.scale(c), v.scale(c)) for k, c in enumerate(MIXED)]
    built = []
    report = first_nonzero("t.id", {"p": 1}, residual_cases(triples, built))
    assert report.to_obj() == first_mismatch("t.id", {"p": 1}, triples).to_obj()
    assert report.passed and report.n_cases == len(MIXED) and built == []


def test_first_nonzero_reports_the_first_failure_as_first_mismatch_does():
    u, w = ExtState.point((), (0, 0, 0)), ExtState.point(((2, 1),), (1, -1, 0))
    # case 1's residual cancels cyclotomic entries; case 2's cancels at u and keeps w's
    triples = [
        ("case 0", u + w, w + u),
        ("case 1", u.scale(MIXED[3]), u.scale(Laurent.root(3)) + u.scale(Laurent.q_pow(-2))),
        ("case 2", u.scale(MIXED[1]) + w, u.scale(MIXED[1]) + w.scale(MIXED[2])),
        ("case 3", u, w),
    ]
    built = []
    report = first_nonzero("t.id", {"p": 1}, residual_cases(triples, built), notes=["n"])
    assert report.to_obj() == first_mismatch("t.id", {"p": 1}, triples, notes=["n"]).to_obj()
    assert not report.passed and report.n_cases == 3 and report.fail_detail["where"] == "case 2"
    assert built == [2]


def test_a_residual_check_with_no_case_still_says_why():
    assert first_nonzero("t.id", {}, iter(())).to_obj() == {"id": "t.id", "params": {}, "pass": True, "cases": 0}
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", max_mode=0))
    for check in (toroidal.check_heisenberg_rel, check_a_x):
        report = check(rep, rep.test_states())
        assert report.passed and report.n_cases == 0
        assert report.notes == [f"no case: {toroidal.NO_MODE}"]
        assert check(rep, []).notes == ["no case: no test state"]
    rep = RepMap(cyclic(3), small_cfg("cyclic:3", variant="affine"))  # nodes 1, 2 of affine A2: one Serre pair
    assert toroidal.check_serre(rep, []).notes == ["no case: no test state"]


# -- each relation check builds each generator image once, in tables of its own

# (x_mode calls, a_mode calls) of each check on small_cfg("cyclic:3"), the checks
# run in suite order on one RepMap.  xpxm's a_mode calls are psi_mode building
# its origin columns, once per (mode, monomial) and not per lattice point: the
# five states are the vacuum at five points.  The Serre count also guards its
# prefix cache's keys: a cache that served one state's chains for every state
# would still see zero sums.  The xx products x_i^s(a) x_j^s(b) v_t live for the
# whole check: block (j,i,s)'s left side reads block (i,j,s)'s right side.
IMAGE_CALLS = {
    "check_heisenberg_rel": (0, 210),
    "check_a_x": (690, 570),
    "check_xx": (1380, 0),
    "check_xpxm": (900, 24),
    "check_serre": (3420, 0),
}


def test_relation_checks_build_each_image_once():
    rep = RepMap(cyclic(3), small_cfg("cyclic:3"))
    states = rep.test_states()
    calls = Counter()
    x_mode, a_mode = rep.x_mode, rep.a_mode

    def counted(name, mode):
        def call(*args, **kw):
            calls[name] += 1
            return mode(*args, **kw)

        return call

    rep.x_mode, rep.a_mode = counted("x", x_mode), counted("a", a_mode)
    got = {}
    for name in IMAGE_CALLS:
        calls.clear()
        assert getattr(toroidal, name)(rep, states).passed
        got[name] = (calls["x"], calls["a"])
    assert got == IMAGE_CALLS
