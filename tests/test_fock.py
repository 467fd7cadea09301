from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvertex.fock import (
    ClassVector,
    ExtState,
    FockContext,
    FockVector,
    LatticeContext,
    VACUUM,
    aprime_mono,
    cocycle_condition_check,
    ext_apply_mode,
    heisenberg_check,
    heisenberg_check_cls,
    inner_closed,
    mono_deg,
    mono_mul,
    monomial_states,
)
from qvertex.groups import binary_dihedral, binary_tetrahedral, build_group, cyclic
from qvertex.repring import first_xi, second_xi
from qvertex.scalar import L_ZERO, Laurent
from qvertex.wreath import big_z, enumerate_types, rho_bar
from vector_helpers import basis_shift, ext_form, lattice_mul_e

QQ = Laurent.q_pow(1) + Laurent.q_pow(-1)


def ctx_first(g):
    return FockContext(first_xi(g))


# ---------------------------------------------------------------- create/annihilate


def test_create_commutes():
    ctx = ctx_first(cyclic(3))
    v = FockVector.vacuum()
    a = ctx.create(2, 1, ctx.create(1, 0, v))
    b = ctx.create(1, 0, ctx.create(2, 1, v))
    assert a == b


def test_annihilate_vacuum_is_zero():
    ctx = ctx_first(cyclic(3))
    assert ctx.annihilate(1, 0, FockVector.vacuum()).is_zero


def test_annihilate_single_contraction():
    ctx = ctx_first(cyclic(3))
    v = ctx.create(1, 2, FockVector.vacuum())
    got = ctx.annihilate(1, 1, v)
    assert got == FockVector({VACUUM: ctx.pair_pow(1, 2, 1)})


def test_annihilate_degree2_carries_mode_factor():
    # a_2(gamma_1) a_{-2}(gamma_1) |0> = 2 <gamma_1,gamma_1>^{q^2} |0>;
    # the factor 2 is forced by eq. [a_m, a_{-m}] = m<,>^{q^m} and by the
    # norm formula with Z_rho (z_{(2)} = 2), cf. test_inner_norms below.
    ctx = ctx_first(cyclic(3))
    v = ctx.create(2, 1, FockVector.vacuum())
    got = ctx.annihilate(2, 1, v)
    want = FockVector({VACUUM: (Laurent.q_pow(2) + Laurent.q_pow(-2)).scale(2)})
    assert got == want


def test_class_basis_creation_multiplies_in():
    # creation is basis-blind: a_{-n}(c) multiplies the factor (n, c) into every monomial
    g = cyclic(3)
    ctx = ctx_first(g)
    for v in monomial_states(g, 2, ClassVector):
        v = v.scale(Laurent.q_pow(1) + Laurent.of(2))
        for n in (1, 2):
            for c in range(g.n_classes):
                want = ClassVector({mono_mul(m, (n, c)): x for m, x in v.terms.items()})
                got = ctx.apply_mode(-n, c, v)
                assert got == want and got.basis == "cls"


# ---------------------------------------------------------------- commutators


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3), binary_dihedral(2)], ids=lambda g: g.name)
def test_heisenberg_relations_first_xi(g):
    ctx = ctx_first(g)
    states = monomial_states(g, 2)
    for m in (1, 2, -1, 3):
        for n in (-1, -2, 1, -3):
            for i in range(min(2, g.n_classes)):
                for j in range(min(2, g.n_classes)):
                    rep = heisenberg_check(ctx, m, n, i, j, states)
                    assert rep.passed, (m, n, i, j, rep.fail_detail)


def test_heisenberg_explicit_values():
    g = cyclic(3)
    ctx = ctx_first(g)
    v = FockVector.vacuum()
    # [a_1(g_i), a_{-1}(g_i)] = (q+q^-1) id
    lhs = ctx.apply_mode(1, 1, ctx.apply_mode(-1, 1, v))
    assert lhs == FockVector({VACUUM: QQ})
    # adjacent: -1
    lhs = ctx.apply_mode(1, 1, ctx.apply_mode(-1, 2, v))
    assert lhs == FockVector({VACUUM: Laurent.of(-1)})


def test_nonopposite_modes_commute():
    ctx = ctx_first(cyclic(2))
    states = monomial_states(cyclic(2), 2)
    rep = heisenberg_check(ctx, 2, 3, 0, 1, states)
    assert rep.passed


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3)], ids=lambda g: g.name)
def test_heisenberg_class_basis(g):
    ctx = ctx_first(g)
    states = monomial_states(g, 2, ClassVector)
    for m in (1, 2, -2):
        for n in (-1, -2, 2):
            for c in range(g.n_classes):
                for cp in range(g.n_classes):
                    rep = heisenberg_check_cls(ctx, m, n, c, cp, states)
                    assert rep.passed, (m, n, c, cp, rep.fail_detail)


def test_heisenberg_relations_degree4():
    # deeper sweep on one configuration: all monomials of degree <= 4
    g = cyclic(2)
    for xi in (first_xi(g), second_xi(g, 1)):
        ctx = FockContext(xi)
        states = monomial_states(g, 4)
        for m in (1, 2, 3):
            for i in range(2):
                for j in range(2):
                    assert heisenberg_check(ctx, m, -m, i, j, states).passed


def test_heisenberg_second_xi():
    g = cyclic(3)
    ctx = FockContext(second_xi(g, 1))
    states = monomial_states(g, 2)
    for m in (1, 2):
        for i in range(3):
            for j in range(3):
                assert heisenberg_check(ctx, m, -m, i, j, states).passed


def test_heisenberg_check_fails_on_a_moved_pairing():
    # m < 0: the right side reads <g0,g1>^{q^-1}, the commutator <g1,g0>^{q}
    g = cyclic(3)
    ctx = ctx_first(g)
    ctx._pair_cache[(0, 1, -1)] = ctx.pair_pow(0, 1, -1) * Laurent.q_pow(1)
    rep = heisenberg_check(ctx, -1, 1, 0, 1, monomial_states(g, 2))
    assert not rep.passed
    assert rep.fail_detail == {"where": "state #0", "expected": "(q)*1", "got": "(1)*1"}
    assert rep.n_cases == 1


def test_heisenberg_check_cls_fails_on_a_moved_xi_value():
    # m < 0: the right side reads xi_{q^-1}(c), the commutator xi_{q}(c^-1)
    g = cyclic(3)
    ctx = ctx_first(g)
    xi_pow = ctx.xi_pow
    ctx.xi_pow = lambda c, m: xi_pow(c, m) * Laurent.q_pow(1) if (c, m) == (1, -1) else xi_pow(c, m)
    rep = heisenberg_check_cls(ctx, -1, 1, 1, g.inv(1), monomial_states(g, 2, ClassVector))
    assert not rep.passed
    assert rep.fail_detail == {"where": "state #0", "expected": "(-3*q^2 - 3*q - 3)*1",
                               "got": "(-3*q - 3 - 3*q^-1)*1"}
    assert rep.n_cases == 1


def test_heisenberg_check_cls_fails_on_a_moved_xi_value_at_a_positive_mode():
    # m > 0: the right side reads xi_{q}(c); the class action reaches the same
    # value through the character route, so the two sides share no factor
    g = cyclic(3)
    ctx = ctx_first(g)
    xi_pow = ctx.xi_pow
    ctx.xi_pow = lambda c, m: xi_pow(c, m) * Laurent.q_pow(1) if (c, m) == (1, 1) else xi_pow(c, m)
    rep = heisenberg_check_cls(ctx, 1, -1, 1, g.inv(1), monomial_states(g, 2, ClassVector))
    assert not rep.passed
    assert rep.fail_detail == {"where": "state #0", "expected": "(3*q^2 + 3*q + 3)*1",
                               "got": "(3*q + 3 + 3*q^-1)*1"}
    assert rep.n_cases == 1


# ---------------------------------------------------------------- basis change


def test_basis_change_round_trip():
    g = cyclic(3)
    ctx = ctx_first(g)
    for v in monomial_states(g, 3)[:12]:
        assert ctx.to_chi(ctx.to_cls(v)) == v
    for v in monomial_states(g, 3, ClassVector)[:12]:
        assert ctx.to_cls(ctx.to_chi(v)) == v


def test_basis_change_example_cyclic2():
    g = cyclic(2)
    ctx = ctx_first(g)
    v = ClassVector({((1, 0),): Laurent.one()})
    got = ctx.to_chi(v)
    want = FockVector({((1, 0),): Laurent.one(), ((1, 1),): Laurent.one()})
    assert got == want


def test_basis_change_conjugates_commutator():
    # the class-basis commutator check and the char-basis one are independently
    # green on vectors that are images of each other
    g = cyclic(2)
    ctx = ctx_first(g)
    v_cls = ClassVector({((1, 1), (2, 0)): Laurent.one()})
    v_chi = ctx.to_chi(v_cls)
    out_cls = ctx.apply_mode(1, 0, v_cls)  # a_1(c0)
    # a_1(c0) = sum_gamma gamma(c0^{-1}) a_1(gamma) = a_1(g0) + a_1(g1)
    out_chi = ctx.apply_mode(1, 0, v_chi) + ctx.apply_mode(1, 1, v_chi)
    assert ctx.to_chi(out_cls) == out_chi


def rebase_oracle(g, v, target):
    """v in the other basis (vector type target), one monomial at a time, from the character table.

    a_{-n}(c) = sum_i gamma_i(c^{-1}) a_{-n}(gamma_i) and
    a_{-n}(gamma_i) = sum_c zeta_c^{-1} gamma_i(c) a_{-n}(c); each monomial
    is the product of its factors' expansions, summed over every choice of
    one term per factor.
    """
    r = g.n_classes
    if target is FockVector:
        row = [[g.char_table[i][g.inv(c)] for i in range(r)] for c in range(r)]
    else:
        row = [[g.char_table[i][c] * Fraction(1, g.zeta(c)) for c in range(r)] for i in range(r)]
    out = {}
    for m, coeff in v.terms.items():
        for ys in product(range(r), repeat=len(m)):
            w = Laurent.one()
            for (_, x), y in zip(m, ys):
                w = w * row[x][y]
            if w.is_zero:
                continue
            key = tuple(sorted((deg, y) for (deg, _), y in zip(m, ys)))
            out[key] = out.get(key, L_ZERO) + coeff * w
    return target({k: c for k, c in out.items() if not c.is_zero})


def oracle_coeff(t):
    """Coefficient of the t-th monomial: rational and cyclotomic Laurents alternate."""
    if t % 2 == 0:
        return Laurent.q_pow(t % 3 - 1).scale(Fraction(t + 1, 2))
    return Laurent.v_pow(t % 5 - 2, Laurent.root(12, t)) + Laurent.of(Fraction(-1, t))


def oracle_vectors(g, vector_type):
    """Multi-term vectors of degree up to 4 whose monomials share factors."""
    def combo(monos):
        return vector_type({m: oracle_coeff(t) for t, m in enumerate(monos)})

    r = g.n_classes
    deg3 = [s for v in monomial_states(g, 3, vector_type) for s in v.terms if mono_deg(s) == 3]
    deg4 = [((1, 0), (1, 1), (2, 2)), ((1, 1), (1, 2), (2, 0)), ((1, 0), (1, 2), (2, 1)),
            ((2, 1), (2, r - 1)), ((1, 1), (1, 1), (1, 1), (1, r - 1)), ((1, 0), (3, 1)), ((4, 2),)]
    return [combo(deg3[::8]), combo(deg3[4::8] + deg4), combo(deg4), combo([VACUUM] + deg4[:3])]


@pytest.mark.parametrize("gname", ["bt", "cyclic6"])
@pytest.mark.parametrize("basis", ["cls", "chi"])
def test_basis_change_matches_per_monomial_oracle(gname, basis):
    g = binary_tetrahedral() if gname == "bt" else cyclic(6)
    ctx = ctx_first(g)
    there, back = (ctx.to_chi, ctx.to_cls) if basis == "cls" else (ctx.to_cls, ctx.to_chi)
    this, other = (ClassVector, FockVector) if basis == "cls" else (FockVector, ClassVector)
    vectors = oracle_vectors(g, this)
    for v in vectors:
        got = there(v)
        assert type(got) is other and got.basis == {"cls": "chi", "chi": "cls"}[basis]
        assert all(not c.is_zero for c in got.terms.values())
        assert got == rebase_oracle(g, v, other)
    for v in vectors[2:]:  # the round trip on the two shorter vectors keeps the test quick
        assert back(there(v)) == v
    assert there(this.zero()).is_zero


@pytest.mark.parametrize("gname", ["bt", "cyclic6"])
def test_basis_change_cancels_across_monomials(gname):
    # sum_c zeta_c^{-1} a_{-1}(c) a_{-2}(c^{-1}): in the character basis the
    # cross terms a_{-1}(gamma_i) a_{-2}(gamma_j), i != j, of different
    # monomials cancel by column orthogonality, leaving one term per gamma_i
    g = binary_tetrahedral() if gname == "bt" else cyclic(6)
    ctx = ctx_first(g)
    r = g.n_classes
    v = ClassVector({tuple(sorted(((1, c), (2, g.inv(c))))): Laurent.of(Fraction(1, g.zeta(c)))
                           for c in range(r)})
    got = ctx.to_chi(v)
    assert got == rebase_oracle(g, v, FockVector)
    assert len(got.terms) == r < r * r
    # the image of a character-basis vector cancels back down to it
    w = FockVector({((1, 1), (1, 2), (2, 0)): oracle_coeff(1), ((1, 2), (3, 1)): oracle_coeff(2)})
    cls = ctx.to_cls(w)
    assert len(cls.terms) > 2
    assert ctx.to_chi(cls) == w


# ---------------------------------------------------------------- bilinear form


def test_form_examples():
    g = cyclic(3)
    ctx = ctx_first(g)
    a1 = FockVector({((1, 1),): Laurent.one()})
    assert ctx.form(a1, a1) == QQ
    a2 = FockVector({((2, 1),): Laurent.one()})
    assert ctx.form(a1, a2).is_zero
    assert ctx.form(FockVector.vacuum(), FockVector.vacuum()) == Laurent.one()


def test_form_q_sesquilinearity():
    g = cyclic(2)
    ctx = ctx_first(g)
    base = FockVector({((1, 0),): Laurent.one()})
    u = base.scale(Laurent.q_pow(2))
    v = base.scale(Laurent.q_pow(1))
    # q-linear in the first slot, q-barred in the second
    assert ctx.form(u, base) == Laurent.q_pow(2) * ctx.form(base, base)
    assert ctx.form(base, v) == Laurent.q_pow(-1) * ctx.form(base, base)
    assert ctx.form(u, v) == Laurent.q_pow(1) * ctx.form(base, base)


def test_form_symmetric_with_bar():
    g = cyclic(3)
    ctx = ctx_first(g)
    states = monomial_states(g, 3)
    for u in states:
        for v in states:
            assert ctx.form(u, v) == ctx.form(v, u).bar_q()


@pytest.mark.parametrize("xi_maker", [first_xi, lambda g: second_xi(g, 1)])
def test_inner_norms_match_closed_formula(xi_maker):
    # <a'_{-rho x q^k}, a'_{-sigma_bar x q^l}> = delta q^{n(l-k)} Z_rho prod xi_{q^i}(c)^{m_i}
    g = cyclic(2)
    ctx = FockContext(xi_maker(g))
    for n in (1, 2, 3):
        for rho in enumerate_types(g, n):
            for sig in enumerate_types(g, n):
                for k, l in [(0, 0), (1, 0), (2, -1)]:
                    u = ClassVector({aprime_mono(rho): Laurent.q_pow(-n * k)})
                    v = ClassVector({aprime_mono(rho_bar(g, sig)): Laurent.q_pow(-n * l)})
                    got = ctx.form(u, v)
                    if rho == sig:
                        want = inner_closed(ctx, rho, big_z(g, rho), n * (l - k))
                    else:
                        want = Laurent.zero()
                    assert got == want, (rho, sig, k, l)


# ---------------------------------------------------------------- Gram rows


def form_oracle(ctx, u, v):
    """The form as a plain double loop over character-basis monomials."""
    acc = L_ZERO
    for mu, cu in ctx.to_chi(u).terms.items():
        for mv, cv in ctx.to_chi(v).terms.items():
            if mono_deg(mu) == mono_deg(mv):
                acc = acc + cu * cv.bar_q() * ctx.form_mono(mu, mv)
    return acc


GRAM_CONFIGS = {
    "cyclic3-first": lambda: first_xi(cyclic(3)),
    "cyclic3-second-p1": lambda: second_xi(cyclic(3), 1),
    "cyclic3-second-p2": lambda: second_xi(cyclic(3), 2),
    "bd2-first": lambda: first_xi(binary_dihedral(2)),
    "bt-first": lambda: first_xi(binary_tetrahedral()),
    # conductors 4 and 10 in one character table, which meet at 20
    "bd5-first": lambda: first_xi(binary_dihedral(5)),
}


def gram_vectors(g):
    """Mixed-basis vectors: zero, monomials, multi-term with Laurent/Fraction/
    cyclotomic coefficients and mixed degrees, and a class vector whose
    character expansion cancels a term."""
    r = g.n_classes - 1
    cyc = Laurent.q_pow(-1, Laurent.root(3)) + Laurent.of(Fraction(1, 2))
    lau = Laurent.q_pow(2) - Laurent.q_pow(-1).scale(3)
    frac = Laurent.of(Fraction(-2, 3))
    return [
        FockVector.zero(),
        ClassVector.zero(),
        FockVector.vacuum().scale(lau),
        FockVector({((1, r),): Laurent.one()}),
        ClassVector({((2, 0),): Laurent.one()}),
        FockVector({((1, 0),): lau, ((1, r),): cyc, ((2, 1 % g.n_classes),): frac}),
        ClassVector({((1, 0), (1, r)): cyc, ((2, r),): lau, ((1, 1 % g.n_classes),): frac}),
        # gamma_0(c) = 1 on every class: the trivial character's term cancels
        ClassVector({((1, 0),): Laurent.one(), ((1, r),): -Laurent.one()}),
        ClassVector({((1, 0), (1, 0)): frac, VACUUM: cyc}),
    ]


@pytest.mark.parametrize("config", sorted(GRAM_CONFIGS))
def test_gram_matches_pairwise_oracle(config):
    ctx = FockContext(GRAM_CONFIGS[config]())
    vecs = gram_vectors(ctx.group)
    rows = list(ctx.gram(vecs, vecs[::-1]))
    assert rows == [[form_oracle(ctx, u, v) for v in vecs[::-1]] for u in vecs]
    assert any(not x.is_zero for row in rows for x in row)


def test_gram_on_empty_and_zero_inputs():
    ctx = ctx_first(cyclic(3))
    vecs = gram_vectors(ctx.group)
    assert list(ctx.gram([], vecs)) == []
    assert list(ctx.gram(vecs, [])) == [[] for _ in vecs]
    zero = ClassVector.zero()
    assert list(ctx.gram([zero], vecs)) == [[L_ZERO] * len(vecs)]
    assert [row[0] for row in ctx.gram(vecs, [zero])] == [L_ZERO] * len(vecs)


def test_gram_rows_are_lazy():
    ctx = ctx_first(binary_dihedral(2))
    vecs = gram_vectors(ctx.group)
    want = [[form_oracle(ctx_first(ctx.group), u, v) for v in vecs] for u in vecs]
    pulled = []
    expanded = []
    paired = []
    to_chi, form_mono = ctx.to_chi, ctx.form_mono
    ctx.to_chi = lambda v: expanded.append(v) or to_chi(v)
    ctx.form_mono = lambda u, v, bu, bv: paired.append((u, bu)) or form_mono(u, v, bu, bv)

    def us():
        for u in vecs:
            pulled.append(u)
            yield u

    rows = ctx.gram(us(), vecs)
    assert not pulled and not paired
    for t, u in enumerate(vecs):
        assert next(rows) == want[t]
        assert pulled == vecs[:t + 1]
        # only the pulled vectors' monomials, and their tails, are paired, each in its own basis
        read = {(mu[k:], w.basis) for w in pulled for mu in w.terms for k in range(len(mu) + 1)}
        assert set(paired) <= read
    assert paired and not expanded  # no vector is rewritten in the character basis


def test_gram_pairs_only_monomials_of_equal_degree():
    ctx = ctx_first(cyclic(3))
    vecs = gram_vectors(ctx.group)
    want = [[form_oracle(ctx_first(ctx.group), u, v) for v in vecs] for u in vecs]
    pairs = []
    form_mono = ctx.form_mono
    ctx.form_mono = lambda u, v, bu, bv: pairs.append((u, v, bu, bv)) or form_mono(u, v, bu, bv)
    rows = list(ctx.gram(vecs, vecs))
    assert pairs and all(mono_deg(u) == mono_deg(v) for u, v, _, _ in pairs)
    # class monomials are paired as they stand, against either basis
    assert {(bu, bv) for _, _, bu, bv in pairs} == {("chi", "chi"), ("chi", "cls"), ("cls", "chi"), ("cls", "cls")}
    assert rows == want


def test_monomials_of_unequal_degree_pair_to_zero():
    ctx = ctx_first(cyclic(3))
    for u, v in [((), ((1, 0),)), (((1, 0),), ((1, 0), (1, 2))), (((2, 1),), ((1, 2),)), (((1, 1), (2, 0)), ((1, 2),))]:
        for bu, bv in (("chi", "chi"), ("chi", "cls"), ("cls", "cls")):
            assert ctx.form_mono(u, v, bu, bv).is_zero and ctx.form_mono(v, u, bv, bu).is_zero, (u, v, bu, bv)


def raise_if_called(*a, **kw):
    raise AssertionError("the Fock side read a factor of a closed formula")


@pytest.mark.parametrize("config", ["cyclic3-second-p2", "bt-first", "bd5-first"])
def test_gram_reads_no_factor_of_the_closed_formula(config):
    # inner_closed is built from xi_pow; the Fock side must reach its values by the character route
    ctx = FockContext(GRAM_CONFIGS[config]())
    vecs = gram_vectors(ctx.group)
    want = [[form_oracle(FockContext(ctx.xi), u, v) for v in vecs] for u in vecs]
    ctx.xi_pow = ctx.annihilate = raise_if_called
    assert list(ctx.gram(vecs, vecs)) == want


CLS_TABLE_CONFIGS = [(spec, None) for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "bd:2", "bd:3", "bd:5", "bt")] + [
    (spec, p_exp) for spec in ("cyclic:2", "cyclic:3", "cyclic:4") for p_exp in (1, 2, -1)]


@pytest.mark.parametrize("spec, p_exp", CLS_TABLE_CONFIGS, ids=lambda x: str(x))
def test_class_one_factor_table_is_the_closed_contraction(spec, p_exp):
    # the class action contracts through this table: row c is n zeta_c xi_{q^n}(c)
    # at c^{-1} and 0 elsewhere (xi_{q^n}(c) itself is 0 at c_0 on cyclic:2 at p = q)
    g = build_group(spec)
    ctx = FockContext(first_xi(g) if p_exp is None else second_xi(g, p_exp))
    for n in (1, 2, 3):
        for c, row in enumerate(ctx.one_factor("cls", "cls", n)):
            closed = ctx.xi_pow(c, n).scale(g.zeta(c) * n)
            assert row == [closed if y == g.inv(c) else L_ZERO for y in range(g.n_classes)], (n, c)


@pytest.mark.parametrize("make_group", [binary_tetrahedral, lambda: binary_dihedral(5)], ids=["bt", "bd5"])
def test_class_action_reads_no_factor_of_the_closed_formula(make_group):
    # heisenberg_check_cls builds its right side from xi_pow; the action must not
    g = make_group()
    fresh, ctx = ctx_first(g), ctx_first(g)
    ctx.xi_pow = raise_if_called
    for v in monomial_states(g, 3, ClassVector):
        for n in (-3, -2, -1, 1, 2, 3):
            for c in range(g.n_classes):
                assert ctx.apply_mode(n, c, v) == fresh.apply_mode(n, c, v), (n, c, v)


def test_one_factor_tables_are_filled_on_first_read():
    ctx = ctx_first(binary_tetrahedral())
    assert not ctx._factor_cache
    u = ClassVector({((1, 1), (2, 3)): Laurent.one()})
    ctx.form(u, u)
    assert {("cls", "cls", 1), ("cls", "cls", 2)} <= set(ctx._factor_cache)
    assert {n for _, _, n in ctx._factor_cache} == {1, 2}  # only the degrees u holds


def test_the_class_basis_matrix_is_built_on_first_read():
    ctx = ctx_first(binary_tetrahedral())
    assert "cls_of_chi" not in vars(ctx)
    v = FockVector({((1, 1), (2, 3)): Laurent.one()})
    assert ctx.to_chi(ctx.to_cls(v)) == v
    assert "cls_of_chi" in vars(ctx)


@pytest.mark.parametrize("config", ["cyclic3-first", "cyclic3-second-p2", "bd2-first"])
def test_form_sesquilinear_and_bar_symmetric_on_combinations(config):
    ctx = FockContext(GRAM_CONFIGS[config]())
    vecs = [v for v in gram_vectors(ctx.group) if v.basis == "chi"]
    a = Laurent.q_pow(1, Laurent.root(3)) - Laurent.of(Fraction(3, 4))
    b = Laurent.q_pow(-2) + Laurent.q_pow(1).scale(2)
    for u in vecs:
        for w in vecs:
            for v in vecs:
                combo = u.scale(a) + w.scale(b)
                assert ctx.form(combo, v) == a * ctx.form(u, v) + b * ctx.form(w, v)
                assert ctx.form(v, combo) == a.bar_q() * ctx.form(v, u) + b.bar_q() * ctx.form(v, w)
            assert ctx.form(u, w) == ctx.form(w, u).bar_q()


# ---------------------------------------------------------------- lattice layer


def test_cocycle_condition_all_builtin():
    for g in (cyclic(2), cyclic(3), binary_dihedral(2)):
        lat = LatticeContext(ctx_first(g))
        assert cocycle_condition_check(lat).passed


@pytest.mark.parametrize("g,where,n_cases", [
    (cyclic(3), "(0,1)", 2), (binary_dihedral(3), "(0,2)", 3), (binary_tetrahedral(), "(0,3)", 4),
], ids=["cyclic:3", "bd:3", "bt"])
def test_cocycle_condition_check_fails_on_a_trivial_cocycle(g, where, n_cases, monkeypatch):
    # eps = 1 gives eps(a,b) eps(b,a)^-1 = 1, wrong at the first odd pairing
    lat = LatticeContext(ctx_first(g))
    monkeypatch.setattr(LatticeContext, "cocycle_sign", lambda self, a, b: 1)
    rep = cocycle_condition_check(lat)
    assert not rep.passed
    assert (rep.fail_detail, rep.n_cases) == ({"where": where, "expected": "-1", "got": "1"}, n_cases)


def test_cocycle_condition_check_passes_a_trivial_cocycle_on_an_even_lattice(monkeypatch):
    # every pairing of the affine A1 lattice is even, so every expected sign is +1
    lat = LatticeContext(ctx_first(cyclic(2)))
    assert all(lat.pairing_row(i, e) % 2 == 0 for i in range(2) for e in ((1, 0), (0, 1)))
    monkeypatch.setattr(LatticeContext, "cocycle_sign", lambda self, a, b: 1)
    assert cocycle_condition_check(lat).passed


def test_cocycle_bimultiplicative():
    lat = LatticeContext(ctx_first(cyclic(3)))
    import itertools

    vecs = list(itertools.product((-1, 0, 1, 2), repeat=3))[:20]
    for a in vecs[:8]:
        for ap in vecs[:8]:
            for b in vecs[:8]:
                lhs = lat.cocycle_sign(tuple(x + y for x, y in zip(a, ap)), b)
                rhs = lat.cocycle_sign(a, b) * lat.cocycle_sign(ap, b)
                assert lhs == rhs


def test_lattice_mul_e_and_pairing():
    g = cyclic(3)
    ctx = ctx_first(g)
    lat = LatticeContext(ctx)
    v = ExtState.vacuum(3)
    shifted = lattice_mul_e(lat, basis_shift(lat, 1), v)
    assert list(shifted.terms) == [((), (0, 1, 0))]
    # diagonal Cartan entry at q=1 is 2
    assert lat.pairing_row(1, (0, 1, 0)) == 2
    assert lat.pairing_row(0, (0, 1, 0)) == -1


def test_quotient_reduction_and_shift():
    g = cyclic(3)
    lat = LatticeContext(ctx_first(g), quotient=True)
    assert lat.reduce((2, 1, 0)) == (0, -1, -2)
    assert basis_shift(lat, 0) == (0, -1, -1)
    assert basis_shift(lat, 2) == (0, 0, 1)


def test_ext_form_lattice_diagonal():
    g = cyclic(2)
    ctx = ctx_first(g)
    u = ExtState.point(((1, 0),), (1, 0))
    v = ExtState.point(((1, 0),), (0, 1))
    assert ext_form(ctx, u, v).is_zero
    assert ext_form(ctx, u, u) == QQ


def test_ext_apply_mode_acts_on_fock_factor():
    g = cyclic(2)
    ctx = ctx_first(g)
    u = ExtState.point(((1, 0),), (1, 0))
    out = ext_apply_mode(ctx, 1, 0, u)
    assert out == ExtState.point((), (1, 0), coeff=QQ)


@pytest.mark.parametrize("mode", ["create", "annihilate"])
def test_heisenberg_action_refuses_an_ext_state(mode):
    # an ExtState key is (monomial, lattice point): the Fock action would garble it
    ctx = ctx_first(cyclic(3))
    with pytest.raises(TypeError, match="ext_apply_mode"):
        getattr(ctx, mode)(1, 0, ExtState.vacuum(3))


@pytest.mark.parametrize("call", [
    lambda ctx, u: ctx.to_chi(u),
    lambda ctx, u: ctx.to_cls(u),
    lambda ctx, u: ctx.form(u, u),
    lambda ctx, u: next(ctx.gram([u], [u])),
], ids=["to_chi", "to_cls", "form", "gram"])
def test_basis_change_and_form_refuse_an_ext_state(call):
    ctx = ctx_first(cyclic(3))
    with pytest.raises(TypeError, match="one lattice point at a time"):
        call(ctx, ExtState.point(((1, 0),), (1, 0, 0)))


def termwise(v, c=Laurent.one()):
    """The long path: c v rebuilt from its terms through the constructor."""
    return type(v)({key: x * c for key, x in v.terms.items()})


ZERO_SHORT_CUTS = [
    ("v - zero", lambda v, zero: v - zero, lambda v: termwise(v)),
    ("zero + v", lambda v, zero: zero + v, lambda v: termwise(v)),
    ("zero - v", lambda v, zero: zero - v, lambda v: termwise(v, Laurent.of(-1))),
    ("zero.scale", lambda v, zero: zero.scale(QQ), lambda v: type(v)()),
    ("lincomb with zero members",
     lambda v, zero: type(v).lincomb([(zero, QQ), (v, QQ), (zero, Laurent.one())]),
     lambda v: termwise(v, QQ)),
    ("lincomb of zero members only",
     lambda v, zero: type(v).lincomb([(zero, QQ), (zero, Laurent.one())]),
     lambda v: type(v)()),
]


@pytest.mark.parametrize("vector_type", [FockVector, ClassVector, ExtState])
@pytest.mark.parametrize("name,short,long", ZERO_SHORT_CUTS, ids=[z[0] for z in ZERO_SHORT_CUTS])
def test_zero_operands_short_cut_to_a_new_vector(vector_type, name, short, long):
    key = (((1, 0),), (1, 0)) if vector_type is ExtState else ((1, 0), (2, 1))
    v = vector_type({key: QQ})
    v.add_term(((), (0, 1)) if vector_type is ExtState else (), Laurent.root(3))
    zero = vector_type.zero()
    fv, fzero = v.f, zero.f
    got = short(v, zero)
    assert got == long(v) and type(got) is vector_type
    assert got is not v and got is not zero
    got.add_term(key, Laurent.q_pow(7))  # add_term rebinds f: the operands keep theirs
    assert v.f is fv and zero.f is fzero and zero.is_zero


def test_ext_state_arithmetic_keeps_its_type():
    u = ExtState.point(((1, 0),), (1, 0))
    v = ExtState.point((), (0, 1), coeff=QQ)
    assert type(u + v) is ExtState and type(u - v) is ExtState
    assert type(u.scale(QQ)) is ExtState and type(u.scale(L_ZERO)) is ExtState
    assert (u + v) - v == u
    assert u.scale(QQ) == ExtState.point(((1, 0),), (1, 0), coeff=QQ)


def test_difference_with_itself_is_empty():
    g = cyclic(2)
    for v in (ExtState.point(((1, 0),), (1, 0), coeff=QQ), FockVector({((1, 1),): QQ, VACUUM: Laurent.of(3)})):
        d = v - v
        assert d.terms == {} and d.is_zero and type(d) is type(v)
    for v in monomial_states(g, 2, ClassVector):
        assert (v - v).terms == {}


def test_ext_point_drops_zero_coefficient():
    p = ExtState.point(((1, 0),), (1, 0), coeff=L_ZERO)
    assert p.is_zero and p.terms == {}
    assert p == ExtState()


def test_fock_vector_never_equals_ext_state():
    assert FockVector() != ExtState()
    key = (((1, 0),), (0, 0))
    same_terms = {key: Laurent.one()}
    assert FockVector(dict(same_terms)) != ExtState(dict(same_terms))
    assert ExtState(dict(same_terms)) != FockVector(dict(same_terms))
    assert FockVector.vacuum() != ExtState.vacuum(0)
    # a class monomial with the same key as a character monomial is another vector
    mono_terms = {((1, 0),): Laurent.one()}
    chi, cls = FockVector(dict(mono_terms)), ClassVector(dict(mono_terms))
    assert chi != cls and cls != chi
    assert FockVector.vacuum() != ClassVector.vacuum() and ClassVector() != FockVector()
    for a, b in ((chi, cls), (cls, chi)):
        with pytest.raises(AssertionError):
            a + b
        with pytest.raises(AssertionError):
            a - b


def test_monomial_states_deterministic():
    g = cyclic(2)
    a = [tuple(v.terms) for v in monomial_states(g, 3)]
    b = [tuple(v.terms) for v in monomial_states(g, 3)]
    assert a == b
    assert all(mono_deg(m[0]) <= 3 for m in a if m)


# ---------------------------------------------------------------- packed arithmetic against a term-by-term reference

KEYS = [((), (0, 0)), (((1, 0),), (0, 0)), (((1, 1),), (1, -1)), (((1, 0), (2, 1)), (0, 1)), (((2, 1),), (-1, 0))]
vec_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rational_values = st.one_of(st.integers(-6, 6), vec_fracs)
# conductors 1 (the rationals), 3, 4, 12 and 20
vec_values = st.one_of(
    rational_values,
    st.builds(lambda n, k, x: Laurent.root(n, k) * x, st.sampled_from([3, 4, 12, 20]), st.integers(0, 19), vec_fracs),
)


@st.composite
def laurent_values(draw, values=vec_values, max_terms=3):
    f = L_ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        f = f + Laurent.v_pow(draw(st.integers(-3, 3)), draw(values))
    return f


@st.composite
def vector_terms(draw, values=vec_values):
    """{key: Laurent}; a coefficient may be zero."""
    keys = draw(st.lists(st.sampled_from(KEYS), max_size=len(KEYS), unique=True))
    return {key: draw(laurent_values(values)) for key in keys}


def ref_add(x, y, sign=1):
    out = {k: c for k, c in x.items() if not c.is_zero}
    for k, c in y.items():
        s = out.get(k, L_ZERO) + (c if sign > 0 else -c)
        if s.is_zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def ref_scale(x, c):
    return {k: f * c for k, f in x.items() if not (f * c).is_zero}


def assert_vector_is(v, ref):
    # the view holds exactly the nonzero coefficients, each canonical (Laurent == compares forms)
    assert dict(v.terms) == ref
    # and the vector equals one built from them: a result whose cyclotomic
    # coordinates cancelled must be back in the rational form
    assert v == ExtState(ref)


@settings(max_examples=150, deadline=None)
@given(vector_terms(), vector_terms(), vector_terms(rational_values), laurent_values(), st.booleans())
def test_packed_vector_arithmetic_matches_a_term_by_term_reference(ta, tb, tr, c, cancel):
    if cancel:  # b = tr - a: a + b cancels every irrational coordinate of a, leaving the rational tr
        tb = ref_add(tr, ta, -1)
    a, b = ExtState(ta), ExtState(tb)
    assert_vector_is(a, ref_add({}, ta))
    assert_vector_is(a + b, ref_add(ta, tb))
    assert_vector_is(a - b, ref_add(ta, tb, -1))
    assert_vector_is(a.scale(c), ref_scale(ref_add({}, ta), c))
    assert_vector_is(ExtState.lincomb([(a, c), (b, -c)]), ref_scale(ref_add(ta, tb, -1), c))
    acc = ExtState(ta)
    for key, f in tb.items():
        acc.add_term(key, f)
    assert_vector_is(acc, ref_add(ta, tb))
    assert (a == b) == (ref_add(ta, tb, -1) == {})
    if cancel:
        assert_vector_is(a + b, ref_add({}, tr))


# ---------------------------------------------------------------- rendering


def test_vector_rendering_is_pinned():
    # failure details print vectors: integer, fractional, zeta_3 and zeta_4 coefficients
    z3, z4 = Laurent.root(3), Laurent.root(4)
    coeffs = {
        (): Laurent.of(3),
        ((1, 0),): Laurent.v_pow(-1, Fraction(1, 2)) + Laurent.q_pow(1, -2),
        ((1, 1),): Laurent.q_pow(2, z3) + Laurent.of(Fraction(-2, 3)),
        ((1, 0), (2, 1)): Laurent.v_pow(1, z4 * Fraction(3, 4)) - Laurent.q_pow(-1, Laurent.one() + z3),
    }
    assert str(FockVector(coeffs)) == (
        "(3)*1 + (-2*v^2 + 1/2*v^-1)*a[-1](g0) + ((3/4*z4^1)*v + (-1 - 1*z3^1)*v^-2)*a[-1](g0)*a[-2](g1)"
        " + ((1*z3^1)*q^2 - 2/3)*a[-1](g1)"
    )
    ext = ExtState({(m, (t, -t, 0)): c for t, (m, c) in enumerate(coeffs.items())})
    assert str(ext) == (
        "(3)*1*e[0, 0, 0] + (-2*v^2 + 1/2*v^-1)*a[-1](g0)*e[1, -1, 0]"
        " + ((3/4*z4^1)*v + (-1 - 1*z3^1)*v^-2)*a[-1](g0)*a[-2](g1)*e[3, -3, 0]"
        " + ((1*z3^1)*q^2 - 2/3)*a[-1](g1)*e[2, -2, 0]"
    )
    assert str(ClassVector({((2, 1),): Laurent.of(z4) * Laurent.of(z3)})) == "((-1*z12^1))*a[-2](c1)"
    assert str(ExtState()) == "0"
