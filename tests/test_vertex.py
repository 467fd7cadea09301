from fractions import Fraction

import pytest

from qvertex import vertex
from qvertex.fock import ExtState, FockContext
from qvertex.groups import build_group, cyclic
from qvertex.repring import first_xi, second_xi
from qvertex.scalar import L_ONE, KeyedSum, Laurent, TruncSeries, keyed_parts
from qvertex.vertex import (
    VertexEngine,
    classical_pow,
    contraction_check,
    contraction_series,
    fj_x,
    normal_pair_coeff,
    ope_factor,
    ope_product_check,
    ope_rhs_factor,
    ope_table_check,
    qpow_consistency_check,
    qpow_series_binom,
    qpow_series_exp,
    qpow_series_product,
    y_minus,
    y_plus,
)
from qvertex.wreath import eps_fock, eta_fock
from vector_helpers import ext_form, half_vertex, ref_ope_rhs


def eng_first(g):
    return VertexEngine(FockContext(first_xi(g)))


# ---------------------------------------------------------------- q-power


def test_qpow_a1_is_one_minus_z():
    s = qpow_series_exp(1, 8)
    assert s.coeffs[0] == L_ONE and s.coeffs[1] == -L_ONE
    assert all(c.is_zero for c in s.coeffs[2:])


def test_qpow_a2_factorisation():
    want = TruncSeries(8, [L_ONE, -Laurent.q_pow(1)]) * TruncSeries(8, [L_ONE, -Laurent.q_pow(-1)])
    assert qpow_series_exp(2, 8) == want


def test_qpow_a_minus1_geometric():
    s = qpow_series_exp(-1, 8)
    assert all(s.coeffs[m] == L_ONE for m in range(9))


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 2])
def test_qpow_triple_consistency(a):
    assert qpow_consistency_check(a, 10).passed


def test_qpow_forms_disagree_mid_proof():
    # sanity: the three generators really are different code paths
    assert qpow_series_exp(2, 6) == qpow_series_product(2, 6) == qpow_series_binom(2, 6)


def test_qpow_consistency_check_fails_on_a_moved_binomial_coefficient(monkeypatch):
    binom = vertex.qpow_series_binom

    def moved(a, D):
        s = binom(a, D)
        coeffs = list(s.coeffs)
        coeffs[2] = coeffs[2] * Laurent.q_pow(1)
        return TruncSeries(s.order, coeffs)

    monkeypatch.setattr(vertex, "qpow_series_binom", moved)
    rep = qpow_consistency_check(2, 10)
    assert not rep.passed
    assert rep.fail_detail == {"where": "exp vs binomial, z^2", "expected": "1", "got": "q"}
    assert rep.n_cases == 6


def test_classical_pow():
    s = classical_pow(-2, 6)
    assert [c for c in s.coeffs] == [Laurent.of(m + 1) for m in range(7)]


# ---------------------------------------------------------------- modes


def test_yplus_lowest_mode_on_vacuum():
    g = cyclic(3)
    eng = eng_first(g)
    vac = ExtState.vacuum(3)
    op = y_plus(1)
    assert eng.mode(op, -1, vac) == ExtState.point((), (0, 1, 0))
    assert eng.mode(op, 0, vac).is_zero
    assert eng.mode(op, 3, vac).is_zero
    assert eng.mode(op, -2, vac) == ExtState.point(((1, 1),), (0, 1, 0))


def test_yminus_lowest_mode_on_vacuum():
    g = cyclic(3)
    eng = eng_first(g)
    vac = ExtState.vacuum(3)
    op = y_minus(1)
    assert eng.mode(op, -1, vac) == ExtState.point((), (0, -1, 0))
    assert eng.mode(op, 0, vac).is_zero


def test_mode_twist_identity():
    # Y(gamma x q^l, k) modes are q^{l(n+1)}-multiples of the untwisted modes
    g = cyclic(3)
    eng = eng_first(g)
    states = [ExtState.vacuum(3), ExtState.point(((1, 2),), (0, 0, 1))]
    for k in (-1, 1):
        for l in (1, -2):
            tw = y_plus(1, 1, l_v=2 * l, k=k)
            plain = y_plus(1, 1, l_v=0, k=k)
            for n in (-2, -1, 0, 1):
                for v in states:
                    got = eng.mode(tw, n, v)
                    want = eng.mode(plain, n, v).scale(Laurent.q_pow(l * (n + 1)))
                    assert got == want, (k, l, n)


def test_adjoint_relation():
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    eng = VertexEngine(ctx)
    states = [
        ExtState.vacuum(3),
        ExtState.point(((1, 1),), (0, 0, 0)),
        ExtState.point(((1, 0), (2, 2)), (0, 1, 0)),
        ExtState.point((), (1, 0, 0)),
    ]
    for k in (-1, 1):
        for i in range(3):
            yp, ym = y_plus(i, 1, 0, k), y_minus(i, 1, 0, k)
            for n in (-2, -1, 0, 1, 2):
                for u in states:
                    for v in states:
                        assert ext_form(ctx, eng.mode(yp, n, u), v) == ext_form(ctx, u, eng.mode(ym, -n, v))


# ---------------------------------------------------------------- two-stage modes against a term-by-term oracle


def mode_term_by_term(eng, op, n, state):
    """Reference walk: every (state term, annihilation term) pair times every
    creation term, nothing summed before the output."""
    out = ExtState()
    shift = eng.shift_vec(op.i, op.w_sign)
    for (mono, beta), coeff in state.terms.items():
        s_pair = op.w_sign * eng.lat.pairing_row(op.i, beta)
        sign = eng.lat.cocycle_sign(shift, beta)
        rsign, newb = eng.lat.reduce_signed(tuple(s + b for s, b in zip(shift, beta)))
        base = coeff * Laurent.v_pow(op.zqv * s_pair + eng.p_factor_v(op.i, op.w_sign, beta))
        if sign * rsign < 0:
            base = -base
        for b, m_ann, c_ann in eng.ann_expand(op, mono):
            a = -n - 1 - s_pair + b
            if a < 0:
                continue
            for m_cre, c_cre in eng.cre_terms(op, a):
                out.add_term((tuple(sorted(m_ann + m_cre)), newb), base * c_ann * c_cre)
    return out


def mixed_state(terms):
    """ExtState from (mono, beta, coeff) triples with distinct keys."""
    return ExtState({(mono, beta): c for mono, beta, c in terms})


# same-degree monomials at one lattice point merge under annihilation; the
# degree-0 term at (0,0,1) meets a_{-1}(g0) at (0,0,0) on one z-order with a
# different lattice point; odd first coordinates flip the cocycle of g1, g2
MIXED = mixed_state([
    ((), (0, 0, 0), Laurent.of(3)),
    (((1, 0),), (0, 0, 0), Laurent.q_pow(1)),
    ((), (0, 0, 1), Laurent.of(Fraction(1, 2))),
    (((1, 0), (1, 1)), (1, 0, 0), Laurent.of(2)),
    (((2, 1),), (1, 0, 0), -Laurent.q_pow(-1)),
    (((1, 1), (1, 1)), (1, 0, 0), Laurent.q_pow(2) + Laurent.of(1)),
    (((1, 2),), (1, 1, 0), Laurent.of(-1)),
    (((1, 1), (2, 0)), (0, -1, 1), Laurent.q_pow(-1)),
])

ORACLE_OPS = [y_plus(1, 1, 0, -1), y_plus(2, -1, 2, 1), y_minus(1, 1, 0, -1), y_minus(0, -1, -2, 1),
              fj_x(1, 1, -1), fj_x(2, -1, 1), fj_x(0, 1, 1)]


@pytest.mark.parametrize("op", ORACLE_OPS, ids=lambda op: op.label)
def test_mode_matches_the_term_by_term_walk(op):
    eng = eng_first(cyclic(3))
    shift = eng.shift_vec(op.i, op.w_sign)
    if op.i:
        assert {eng.lat.cocycle_sign(shift, beta) for _, beta in MIXED.terms} == {1, -1}
    groups = keyed_parts(eng.annihilation_stage(op, MIXED, -4))
    assert len(groups) < sum(len(eng.ann_expand(op, m)) for m, _ in MIXED.terms)
    for n in range(-4, 4):
        assert eng.mode(op, n, MIXED) == mode_term_by_term(eng, op, n, MIXED), n


def test_mode_drops_a_group_that_cancels():
    eng = eng_first(cyclic(3))
    op = y_plus(1, 1, 0, -1)
    t1 = ExtState.point(((1, 0), (1, 1)), (1, 0, 0))
    t2 = ExtState.point(((2, 1),), (1, 0, 0))
    tab1, tab2 = (keyed_parts(eng.annihilation_stage(op, t, -5)) for t in (t1, t2))
    group = ((), (1, 1, 0), 3)
    assert group in tab1 and group in tab2
    state = t1.scale(tab2[group]) - t2.scale(tab1[group])
    tab = keyed_parts(eng.annihilation_stage(op, state, -5))
    assert group not in tab and tab
    hit = False
    for n in range(-4, 4):
        got = eng.mode(op, n, state)
        assert got == mode_term_by_term(eng, op, n, state), n
        hit |= not got.is_zero
    assert hit


@pytest.mark.parametrize("p_exp", [1, -1])
def test_quotient_mode_merges_lattice_points_a_delta_apart(p_exp):
    eng = VertexEngine(FockContext(second_xi(cyclic(3), p_exp)), quotient=True, p_exp=p_exp)
    state = mixed_state([
        (((1, 1),), (0, 1, 0), Laurent.of(2)),
        (((1, 1),), (1, 2, 1), Laurent.q_pow(1)),
        (((1, 2),), (0, 0, -1), Laurent.of(-1)),
        (((1, 2),), (-1, -1, -2), Laurent.q_pow(-1) + Laurent.of(1)),
        ((), (0, 1, 1), Laurent.of(5)),
    ])
    for op in (fj_x(0, 1, -1), fj_x(1, -1, 1), y_plus(2, 1, 0, -1), y_minus(0, 1, 0, -1)):
        shift = eng.shift_vec(op.i, op.w_sign)
        newbs = {eng.lat.reduce_signed(tuple(s + b for s, b in zip(shift, beta)))[1] for _, beta in state.terms}
        assert len(newbs) < len({beta for _, beta in state.terms})
        for n in range(-3, 3):
            assert eng.mode(op, n, state) == mode_term_by_term(eng, op, n, state), (op.label, n)


def test_one_annihilation_table_serves_a_mode_window():
    eng = eng_first(cyclic(3))
    for op in ORACLE_OPS:
        table = eng.annihilation_stage(op, MIXED, -3)
        for m in range(-3, 4):
            got = eng.creation_stage(op, m, table)
            assert got == eng.mode(op, m, MIXED) == mode_term_by_term(eng, op, m, MIXED), (op.label, m)


# ---------------------------------------------------------------- half vertex


def test_half_vertex_creation_matches_exponential_formula():
    g = cyclic(3)
    eng = eng_first(g)
    vac = ExtState.vacuum(3)
    for l in (0, 1):
        fam = half_vertex(eng, "H+", 1, 2 * l, vac, 3)
        for n in range(4):
            want = eta_fock(g, [(1, 1, l)], n)
            got = fam[n]
            assert got == ExtState({(m, (0, 0, 0)): c for m, c in want.terms.items()})


def test_half_vertex_eplus_matches_eps_series():
    g = cyclic(3)
    eng = eng_first(g)
    vac = ExtState.vacuum(3)
    fam = half_vertex(eng, "E+", 1, 0, vac, 3)
    for n in range(4):
        # E+ coefficients are the eps series with alternating sign convention
        want = eps_fock(g, [(1, 1, 0)], n)
        sign = 1 if n % 2 == 0 else -1
        got = fam[n].scale(Laurent.of(sign))
        assert got == ExtState({(m, (0, 0, 0)): c for m, c in want.terms.items()})


def test_half_vertex_annihilation_kills_vacuum():
    g = cyclic(3)
    eng = eng_first(g)
    vac = ExtState.vacuum(3)
    for kind in ("H-", "E-"):
        fam = half_vertex(eng, kind, 1, 0, vac, 3)
        assert set(fam) == {0} and fam[0] == vac


def test_half_vertex_annihilation_on_state():
    g = cyclic(3)
    eng = eng_first(g)
    v = ExtState.point(((1, 1),), (0, 0, 0))
    fam = half_vertex(eng, "E-", 1, 0, v, 3)
    assert fam[0] == v
    # z^{-1} coefficient: -<g1,g1>^{q} * vacuum
    assert fam[-1] == ExtState.point((), (0, 0, 0), coeff=-(Laurent.q_pow(1) + Laurent.q_pow(-1)))


# ---------------------------------------------------------------- contraction


def test_contraction_matches_qpow_deformed_cases():
    g = cyclic(3)
    eng = eng_first(g)
    # E-(gamma_i x q^a, z) against H+(gamma_j x q^b, w): series in x = q^{a-b} w/z
    ser = contraction_series(eng, y_plus(1, 1, 0, 0), y_plus(1, 1, 0, 0), 10)
    assert ser == qpow_series_exp(2, 10)
    ser = contraction_series(eng, y_plus(1, 1, 0, 0), y_plus(2, 1, 0, 0), 10)
    assert ser == qpow_series_exp(-1, 10)
    # a zero-pairing pair needs a diagram with non-adjacent vertices
    eng4 = eng_first(cyclic(4))
    ser = contraction_series(eng4, y_plus(0, 1, 0, 0), y_plus(2, 1, 0, 0), 10)
    assert ser == TruncSeries.one(10)


def test_contraction_cyclic2_cross_is_classical():
    g = cyclic(2)
    eng = eng_first(g)
    ser = contraction_series(eng, y_plus(0, 1, 0, 0), y_plus(1, 1, 0, 0), 8)
    assert ser == classical_pow(-2, 8)


def test_contraction_check_reports():
    g = cyclic(3)
    eng = eng_first(g)
    for i in range(3):
        for j in range(3):
            for k, l in [(0, 0), (-1, 0), (1, -1)]:
                assert contraction_check(eng, i, j, k, l, 10).passed
    # the A1 constant entry routes to the classical reference and says so
    eng2 = eng_first(cyclic(2))
    rep = contraction_check(eng2, 0, 1, -1, 0, 8)
    assert rep.passed and any("classical" in n for n in rep.notes)
    # second weight: the diagonal stays deformed, adjacents carry the p-shift
    eng_p = VertexEngine(FockContext(second_xi(cyclic(3), 2)), p_exp=2)
    assert contraction_check(eng_p, 1, 1, -1, 0, 8).passed
    rep = contraction_check(eng_p, 1, 2, -1, 0, 8)
    assert rep.passed and any("classical" in n for n in rep.notes)


def test_vacuum_two_point_function():
    # <vac, Y+(g,k,z) Y-(g,k,w) vac> = contraction series * z^{g_ab} scalar, order 8
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    eng = VertexEngine(ctx)
    vac = ExtState.vacuum(3)
    k = -1
    opA, opB = y_plus(1, 1, 0, k), y_minus(1, 1, 0, k)
    g_ab, scalar, series = ope_factor(eng, opA, opB, 8)
    # modes: <vac, A_m B_n vac> nonzero only on the lattice-diagonal; compare
    # against the coefficient of z^{-m-1}w^{-n-1} in scalar z^{g} series(w/z)
    for n in range(-9, 1):
        bn = eng.mode(opB, n, vac)
        for m in range(-1, 9):
            val = ext_form(ctx, vac, eng.mode(opA, m, bn))
            d = -n - 1
            want = Laurent.zero()
            if d >= 0 and (-m - 1 - g_ab + d) == 0 and d <= 8:
                want = scalar * series.coeffs[d]
            assert val == want, (m, n)


# ---------------------------------------------------------------- OPE checks


def states_for(g, rank):
    return [
        ExtState.vacuum(rank),
        ExtState.point(((1, 1 % rank),), (0,) * rank),
        ExtState.point((), tuple(1 if t == 0 else 0 for t in range(rank))),
    ]


@pytest.mark.parametrize("gspec,pairs", [(3, [(1, 1), (1, 2), (0, 2)]), (2, [(0, 0), (0, 1)])])
def test_ope_families_first_xi(gspec, pairs):
    g = cyclic(gspec)
    eng = eng_first(g)
    sts = states_for(g, gspec)
    k = -1
    fams = {
        "F1": lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, 1, 0, k)),
        "F2": lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, 1, 0, k)),
        "F3": lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, -1, 0, -k)),
        "F4": lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, -1, 0, -k)),
        "F5": lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, -1, 0, -k)),
    }
    for name, mk in fams.items():
        for i, j in pairs:
            opA, opB = mk(i, j)
            assert ope_product_check(eng, opA, opB, 2, sts, "t", {}).passed, (name, i, j)
            assert ope_table_check(eng, opA, opB, 8, "t", {}).passed, (name, i, j)


def test_ope_families_second_xi_pmode():
    g = cyclic(3)
    eng = VertexEngine(FockContext(second_xi(g, 2)), p_exp=2)
    sts = states_for(g, 3)
    k = -1
    for i, j in [(1, 2), (2, 1), (1, 1)]:
        opA, opB = y_plus(i, 1, 0, k), y_plus(j, 1, 0, k)
        assert ope_product_check(eng, opA, opB, 1, sts, "t", {}).passed
        assert ope_table_check(eng, opA, opB, 8, "t", {}).passed


def test_ope_pmode_prefactor_is_half_b_power():
    # adjacent pair, p = q^2: the table scalar must be p^{+-1/2} = q^{+-1}
    g = cyclic(3)
    eng = VertexEngine(FockContext(second_xi(g, 2)), p_exp=2)
    _, s12, _ = ope_factor(eng, y_plus(1, 1, 0, -1), y_plus(2, 1, 0, -1), 2)
    _, s21, _ = ope_factor(eng, y_plus(2, 1, 0, -1), y_plus(1, 1, 0, -1), 2)
    assert s12 == Laurent.q_pow(1)
    assert s21 == Laurent.q_pow(-1)


# ---------------------------------------------------------------- the OPE checks can fail


def test_ope_product_check_fails_on_a_moved_factor_coefficient(monkeypatch):
    signed = vertex.signed_ope_factor

    def moved(eng, opA, opB, D):
        g_ab, scalar, series = signed(eng, opA, opB, D)
        coeffs = list(series.coeffs)
        coeffs[1] = coeffs[1] * Laurent.q_pow(1)
        return g_ab, scalar, TruncSeries(series.order, coeffs)

    monkeypatch.setattr(vertex, "signed_ope_factor", moved)
    eng = eng_first(cyclic(3))
    rep = ope_product_check(eng, y_plus(0, 1, 0, -1), y_plus(1, 1, 0, -1), 2, states_for(None, 3), "t", {})
    assert not rep.passed
    assert rep.fail_detail["where"] == "state #0 modes (-2,-2)" and rep.n_cases == 1


def test_ope_product_check_fails_without_the_relative_cocycle_sign(monkeypatch):
    eng = eng_first(cyclic(3))
    opA, opB = y_plus(1, 1, 0, -1), y_plus(0, 1, 0, -1)
    assert eng.lat.cocycle_sign(eng.shift_vec(1, 1), eng.shift_vec(0, 1)) == -1
    monkeypatch.setattr(vertex, "signed_ope_factor", ope_factor)
    rep = ope_product_check(eng, opA, opB, 2, states_for(None, 3), "t", {})
    assert not rep.passed
    assert rep.fail_detail["where"] == "state #0 modes (-2,-2)" and rep.n_cases == 1


def test_ope_table_check_fails_on_a_perturbed_closed_form(monkeypatch):
    table = vertex.table_factor

    def moved(eng, opA, opB, D):
        g_ab, scalar, series = table(eng, opA, opB, D)
        coeffs = list(series.coeffs)
        coeffs[2] = coeffs[2] * Laurent.q_pow(1)
        return g_ab, scalar, TruncSeries(series.order, coeffs)

    monkeypatch.setattr(vertex, "table_factor", moved)
    rep = ope_table_check(eng_first(cyclic(3)), y_plus(0, 1, 0, -1), y_minus(0, 1, 0, -1), 8, "t", {})
    assert not rep.passed
    assert rep.fail_detail == {"where": "x^2", "expected": "q^3 + q + q^-1", "got": "q^2 + 1 + q^-2"}
    assert rep.n_cases == 4


def test_contraction_check_fails_on_a_moved_pairing():
    eng = eng_first(cyclic(3))
    ctx = eng.fock
    ctx._pair_cache[(0, 1, 4)] = ctx.pair_pow(0, 1, 4) * Laurent.q_pow(1)
    rep = contraction_check(eng, 0, 1, -1, 0, 8)
    assert not rep.passed
    assert rep.fail_detail == {"where": "x^4", "expected": "q^-4", "got": "1/4*q^-3 + 3/4*q^-4"}
    assert rep.n_cases == 5


def test_fj_ops_match_shifted_y():
    # x_i^+(z) at shift k equals Y+(gamma_i x q^{-k/2}, k, z) q^{+k/2 d_gamma}:
    # same exponential twists, plain zero mode
    op = fj_x(1, 1, -1)
    assert (op.cre_v, op.ann_v, op.zqv, op.w_sign) == (-1, -1, 0, 1)
    ym = y_minus(1, 1, 0, 0)
    assert ym.w_sign == -1


# ---------------------------------------------------------------- the OPE right side against its reference

OPE_MAKERS = (
    lambda i, j: (y_plus(i, 1, 0, -1), y_plus(j, 1, 0, -1)),
    lambda i, j: (y_plus(i, 1, 0, -1), y_minus(j, 1, 0, -1)),
    lambda i, j: (y_plus(i, 1, 0, -1), y_plus(j, -1, 0, 1)),
    lambda i, j: (y_plus(i, 1, 0, -1), y_minus(j, -1, 0, 1)),
    lambda i, j: (y_minus(i, 1, 0, -1), y_plus(j, -1, 0, 1)),
)


def eng_for(spec, weight):
    g = build_group(spec)
    xi = first_xi(g) if weight == "first" else second_xi(g, int(weight.split(":")[1]))
    return VertexEngine(FockContext(xi), p_exp=xi.p_exp)


def oracle_states(rank):
    """The benchmark's four states and one mixed state: several lattice points,
    Laurent coefficients with more than one term, a degree-3 monomial."""
    e1 = tuple(1 if t == 1 else 0 for t in range(rank))
    em = tuple(-1 if t == 0 else 1 if t == rank - 1 else 0 for t in range(rank))
    mixed = ExtState({
        ((), (0,) * rank): Laurent.of(3),
        (((1, 0),), e1): Laurent.q_pow(1) + Laurent.of(Fraction(1, 2)),
        (((1, 1), (2, 0)), em): -Laurent.q_pow(-1),
    })
    return [ExtState.vacuum(rank), ExtState.point(((1, 1),), (0,) * rank),
            ExtState.point(((1, 0), (1, 1)), (0,) * rank), ExtState.point((), e1), mixed]


def new_rhs(eng, opA, opB, window, states):
    factor, table = ope_rhs_factor(eng, opA, opB, window, states), {}
    return [normal_pair_coeff(eng, opA, opB, window, factor, table, v) for v in states]


def assert_rhs_is_reference(got, want):
    """Equal at every (state, m, n); returns how many of the values are nonzero."""
    nonzero = 0
    for t, (g, w) in enumerate(zip(got, want)):
        assert set(g) <= set(w), t
        for mn, value in w.items():
            assert g.get(mn, ExtState.zero()) == value, (t, mn)
            nonzero += not value.is_zero
    return nonzero


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("spec,weight", [
    ("cyclic:3", "first"), ("cyclic:3", "second:1"), ("cyclic:3", "second:-1"), ("cyclic:3", "second:2"),
    ("cyclic:4", "first"), ("cyclic:4", "second:1"), ("cyclic:4", "second:-1"), ("cyclic:4", "second:2"),
    ("bd:2", "first"), ("bt", "first"),
])
def test_ope_right_side_equals_the_convolved_normal_ordered_table(spec, weight, window):
    # the reference expands the factor further (2 window + bound + 6), so equality also
    # shows that the right side's shorter factor series loses no term
    eng = eng_for(spec, weight)
    states = oracle_states(eng.rank)
    for t, mk in enumerate(OPE_MAKERS):
        opA, opB = mk(0, (t + window) % 2)
        assert assert_rhs_is_reference(new_rhs(eng, opA, opB, window, states),
                                       ref_ope_rhs(eng, opA, opB, window, states)) > 0, t


def test_ope_right_side_equals_its_reference_under_a_moved_factor_coefficient(monkeypatch):
    # the defect of test_ope_product_check_fails_on_a_moved_factor_coefficient
    signed = vertex.signed_ope_factor

    def moved(eng, opA, opB, D):
        g_ab, scalar, series = signed(eng, opA, opB, D)
        coeffs = list(series.coeffs)
        coeffs[1] = coeffs[1] * Laurent.q_pow(1)
        return g_ab, scalar, TruncSeries(series.order, coeffs)

    eng = eng_first(cyclic(3))
    opA, opB, states = y_plus(0, 1, 0, -1), y_plus(1, 1, 0, -1), oracle_states(3)
    right = ref_ope_rhs(eng, opA, opB, 2, states)
    monkeypatch.setattr(vertex, "signed_ope_factor", moved)
    got, want = new_rhs(eng, opA, opB, 2, states), ref_ope_rhs(eng, opA, opB, 2, states)
    assert_rhs_is_reference(got, want)
    assert want[0][(-2, -2)] != right[0][(-2, -2)]


def test_ope_right_side_reads_no_stage_of_the_left_side(monkeypatch):
    eng = eng_first(cyclic(3))
    opA, opB, states = y_plus(0, 1, 0, -1), y_minus(1, 1, 0, -1), oracle_states(3)
    want = ref_ope_rhs(eng, opA, opB, 2, states)

    def left_side_stage(*args, **kwargs):
        raise AssertionError("the right side read a stage of the left side")

    for name in ("creation_stage", "annihilation_stage", "mode"):
        monkeypatch.setattr(VertexEngine, name, left_side_stage)
    assert assert_rhs_is_reference(new_rhs(eng, opA, opB, 2, states), want) > 0


def moved_first_part(value):
    """The keyed value with its first key's coefficient times q."""
    acc = KeyedSum()
    for t, (key, coeff) in enumerate(keyed_parts(value).items()):
        acc.add(key, 0, L_ONE, 1, coeff * Laurent.q_pow(1) if t == 0 else coeff)
    return acc.value()


def test_ope_product_check_fails_on_a_moved_creation_pair_coefficient(monkeypatch):
    # a defect in the right side alone: one coefficient of G[1, 1] times q
    pair = vertex.creation_pair

    def moved(eng, opA, opB, factors, T, c, products):
        out = pair(eng, opA, opB, factors, T, c, products)
        return moved_first_part(out) if (T, c) == (1, 1) else out

    monkeypatch.setattr(vertex, "creation_pair", moved)
    eng = eng_first(cyclic(3))
    rep = ope_product_check(eng, y_plus(0, 1, 0, -1), y_plus(1, 1, 0, -1), 2, states_for(None, 3), "t", {})
    assert not rep.passed
    assert (rep.fail_detail["where"], rep.n_cases) == ("state #0 modes (0,-2)", 3)


def test_ope_product_check_fails_on_a_moved_creation_product_coefficient(monkeypatch):
    # one coefficient of P[2, 1] = cre_B(1) cre_A(1) times q reaches every G[2, c] read from it
    product = vertex.creation_product

    def moved(eng, opA, opB, T, aB):
        out = product(eng, opA, opB, T, aB)
        return moved_first_part(out) if (T, aB) == (2, 1) else out

    monkeypatch.setattr(vertex, "creation_product", moved)
    eng = eng_first(cyclic(3))
    rep = ope_product_check(eng, y_plus(0, 1, 0, -1), y_plus(1, 1, 0, -1), 2, states_for(None, 3), "t", {})
    assert not rep.passed
    assert (rep.fail_detail["where"], rep.n_cases) == ("state #0 modes (-1,-2)", 2)


def test_ope_right_side_tables_die_with_the_check():
    eng = eng_first(cyclic(3))
    caches = ("_ann_cache", "_cre_cache")

    def snapshot(obj):
        return {k: len(v) if isinstance(v, (dict, list, set)) else id(v) for k, v in vars(obj).items()}

    before, module = snapshot(eng), snapshot(vertex)
    reports = []
    for _ in range(2):
        reports.append(ope_product_check(eng, y_plus(0, 1, 0, -1), y_minus(1, 1, 0, -1), 2,
                                         oracle_states(3), "t", {}).to_obj())
        after = snapshot(eng)
        assert after.keys() == before.keys()
        assert {k for k in after if after[k] != before[k]} == set(caches)
        assert snapshot(vertex) == module
        if len(reports) == 1:
            warm = after
    assert after == warm  # the second check builds nothing that outlives it
    assert reports[0] == reports[1] and reports[0]["pass"]
