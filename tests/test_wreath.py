"""Wreath combinatorics, characteristic map, exponential formulas, isometry.

The brute-force oracles here enumerate actual wreath-product elements for
small cyclic groups and recompute centralizer orders and type counts from
scratch; the library never does.
"""

import itertools
import json
from fractions import Fraction

import pytest

from qvertex import cli, wreath
from qvertex.fock import FockContext, FockVector, aprime_mono
from qvertex.groups import binary_dihedral, cyclic
from qvertex.repring import CxClassFunction, first_xi, second_xi
from qvertex.scalar import Laurent
from qvertex.wreath import (
    big_z,
    ch,
    combo_class_function,
    enumerate_types,
    eps_fock,
    eps_value,
    eta_fock,
    eta_value,
    eta_wreath,
    exp_formula_check,
    isometry_check,
    rho_bar,
    sigma_rho,
    z_part,
)

from helpers import natural_combo, sigma_n_gamma

# ---------------------------------------------------------------- brute force


def wreath_elements(m: int, n: int):
    """All elements of Z/m wreath S_n as ((g_1..g_n), sigma)."""
    for g in itertools.product(range(m), repeat=n):
        for sigma in itertools.permutations(range(n)):
            yield (g, sigma)


def wreath_mul(m, x, y):
    (g, s), (h, t) = x, y
    # (g, s)(h, t) = (g * s(h), s t); s acts by permuting coordinates
    sh = tuple(h[s.index(i)] for i in range(len(g)))
    gh = tuple((a + b) % m for a, b in zip(g, sh))
    st = tuple(s[t[i]] for i in range(len(g)))
    return (gh, st)


def wreath_type(m, x, n_classes):
    """Partition-valued function of x: cycle products of sigma-cycles by class."""
    g, s = x
    n = len(g)
    seen, rho = set(), [[] for _ in range(n_classes)]
    for start in range(n):
        if start in seen:
            continue
        cyc, i = [start], s[start]
        while i != start:
            cyc.append(i)
            i = s[i]
        seen.update(cyc)
        prod = 0
        for i in cyc:
            prod = (prod + g[i]) % m
        rho[prod].append(len(cyc))
    return tuple(tuple(sorted(lam, reverse=True)) for lam in rho)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_big_z_matches_brute_force_centralizers(n):
    m = 2
    g = cyclic(m)
    elements = list(wreath_elements(m, n))
    assert len(elements) == m**n * len(list(itertools.permutations(range(n))))
    by_type = {}
    for x in elements:
        by_type.setdefault(wreath_type(m, x, m), []).append(x)
    for rho, xs in by_type.items():
        x = xs[0]
        cent = sum(1 for y in elements if wreath_mul(m, x, y) == wreath_mul(m, y, x))
        assert cent == big_z(g, rho), rho
        # class size * centralizer order = group order
        assert len(xs) * cent == len(elements)


def test_big_z_identity_type_is_group_order():
    g = cyclic(2)
    rho = ((1, 1), ())
    assert big_z(g, rho) == 8  # |Z/2 wr S_2|


def test_big_z_single_one_cycle_is_zeta():
    g = binary_dihedral(2)
    for c in range(g.n_classes):
        rho = tuple((1,) if cc == c else () for cc in range(g.n_classes))
        assert big_z(g, rho) == g.zeta(c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_equation(n):
    g = cyclic(2)
    order = 2**n * [1, 1, 2, 6][n]
    total = sum(Fraction(order, big_z(g, rho)) for rho in enumerate_types(g, n))
    assert total == order


def test_z_part_values():
    assert z_part((1, 1)) == 2
    assert z_part((3, 1)) == 3
    assert z_part((2, 2, 1)) == 8
    assert z_part(()) == 1


def count_types_oracle(r_plus_1: int, n: int) -> int:
    # coefficient of x^n in prod_m (1 - x^m)^{-(r+1)} by integer DP
    coeffs = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(r_plus_1):
            for i in range(m, n + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs[n]


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3), binary_dihedral(2)], ids=lambda g: g.name)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_type_count_matches_generating_function(g, n):
    assert len(enumerate_types(g, n)) == count_types_oracle(g.n_classes, n)


def test_enumerate_types_no_duplicates():
    g = cyclic(3)
    ts = enumerate_types(g, 4)
    assert len(ts) == len(set(ts))


def test_rho_bar_involution():
    g = cyclic(3)
    for rho in enumerate_types(g, 3):
        assert rho_bar(g, rho_bar(g, rho)) == rho


# ---------------------------------------------------------------- char values


def test_eta_value_single_two_cycle():
    g = cyclic(3)
    for c in range(3):
        rho = tuple((2,) if cc == c else () for cc in range(3))
        for k in (0, 1, -2):
            got = eta_value(CxClassFunction.character(g, 1, qtwist=k), rho)
            want = Laurent.q_pow(2 * k, g.char_table[1][c])
            assert got == want


def test_eta_value_trivial_char_is_one():
    g = cyclic(2)
    for rho in enumerate_types(g, 3):
        assert eta_value(CxClassFunction.character(g, 0, qtwist=0), rho) == Laurent.one()


def test_eta_value_cyclic2_example():
    g = cyclic(2)
    rho = ((), (1, 1))
    assert eta_value(CxClassFunction.character(g, 1, qtwist=1), rho) == Laurent.q_pow(2)


def test_eps_equals_eta_on_all_ones():
    g = cyclic(2)
    rho = ((1, 1), (1,))
    assert eps_value(CxClassFunction.character(g, 1, qtwist=1), rho) == eta_value(CxClassFunction.character(g, 1, qtwist=1), rho)


def test_eps_single_two_cycle_sign():
    g = cyclic(3)
    rho = ((), (2,), ())
    assert eps_value(CxClassFunction.character(g, 1, qtwist=0), rho) == -Laurent({0: g.char_table[1][1]})


def test_eps_overall_sign_rule():
    g = cyclic(2)
    for rho in enumerate_types(g, 4):
        weight = sum(sum(lam) for lam in rho)
        length = sum(len(lam) for lam in rho)
        sign = (-1) ** (weight - length)
        assert eps_value(CxClassFunction.character(g, 1, qtwist=0), rho) == eta_value(CxClassFunction.character(g, 1, qtwist=0), rho).scale(sign)


def test_selfdual_weight_propagates():
    # eta_n(xi)(rho) = bar_q(eta_n(xi)(rho_bar)) for self-dual xi
    for g, xi in [(cyclic(3), first_xi(cyclic(3))), (cyclic(3), second_xi(cyclic(3), 2))]:
        for n in (1, 2, 3):
            for rho in enumerate_types(g, n):
                assert eta_value(xi.f, rho) == eta_value(xi.f, rho_bar(g, rho)).bar_q()


# ---------------------------------------------------------------- ch and exp


def test_ch_sigma_basis_image():
    g = cyclic(3)
    for rho in enumerate_types(g, 2):
        for k in (0, 1, -1):
            img = ch(sigma_rho(g, rho, k))
            assert img.terms == {aprime_mono(rho): Laurent.q_pow(-2 * k)}


def test_ch_sigma_n_gamma_is_heisenberg_generator():
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    for i in range(3):
        for k in (0, 1):
            img = ctx.to_chi(ch(sigma_n_gamma(g, i, 1, k)))
            want = FockVector({((1, i),): Laurent.q_pow(-k)})
            assert img == want


def test_ch_of_constant_at_level_zero_is_vacuum():
    g = cyclic(2)
    from qvertex.wreath import WreathClassFunction

    one = WreathClassFunction(g, 0, {((), ()): Laurent.one()})
    assert ch(one).terms == {(): Laurent.one()}


def test_ch_eta1_is_a_minus_one():
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    img = ctx.to_chi(ch(eta_wreath(g, CxClassFunction.character(g, 1), 1)))
    assert img == FockVector({((1, 1),): Laurent.one()})


def test_eta_fock_small_orders():
    g = cyclic(3)
    assert eta_fock(g, [(1, 1, 0)], 0) == FockVector.vacuum()
    got = eta_fock(g, [(1, 1, 0)], 2)
    want = FockVector(
        {((1, 1), (1, 1)): Laurent.of(Fraction(1, 2)), ((2, 1),): Laurent.of(Fraction(1, 2))},
    )
    assert got == want
    got_eps = eps_fock(g, [(1, 1, 0)], 2)
    want_eps = FockVector(
        {((1, 1), (1, 1)): Laurent.of(Fraction(1, 2)), ((2, 1),): Laurent.of(Fraction(-1, 2))},
    )
    assert got_eps == want_eps


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3)], ids=lambda g: g.name)
@pytest.mark.parametrize("variant", ["eta", "eps"])
def test_exp_formula_single_characters(g, variant):
    ctx = FockContext(first_xi(g))
    for i in range(g.n_classes):
        for k in (0, 1):
            for n in range(5):
                assert exp_formula_check(ctx, [(1, i, k)], n, variant).passed


def test_exp_formula_virtual_combo():
    g = cyclic(2)
    ctx = FockContext(first_xi(g))
    combo = [(1, 0, 1), (1, 0, -1), (-1, 1, 0)]
    for n in range(5):
        assert exp_formula_check(ctx, combo, n, "eta").passed


def test_exp_formula_first_xi_itself():
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    combo = [(1, 0, 1), (1, 0, -1)] + [(-cf, i, k) for cf, i, k in natural_combo(g)]
    for n in range(4):
        assert exp_formula_check(ctx, combo, n, "eta").passed


def test_exp_formula_fails_on_a_moved_chi_of_cls_entry():
    g = cyclic(3)
    combo = [(1, 1, 1)]
    assert exp_formula_check(FockContext(first_xi(g)), combo, 2, "eta").passed
    ctx = FockContext(first_xi(g))
    ctx.chi_of_cls[1][1] = ctx.chi_of_cls[1][1] * Laurent.q_pow(1)
    bad = exp_formula_check(ctx, combo, 2, "eta")
    assert not bad.passed
    assert bad.fail_detail["where"] == "fock vector"
    assert bad.n_cases == 9


def test_exp_formula_fails_on_a_perturbed_eta_fock_coefficient(monkeypatch):
    g = cyclic(3)
    combo = [(1, 1, 1)]
    orig = wreath.eta_fock

    def seeded(g, combo, n):
        v = orig(g, combo, n)
        key = min(v.terms)
        v.add_term(key, v.terms[key] * (Laurent.q_pow(1) - Laurent.one()))  # the coefficient times q
        return v

    monkeypatch.setattr(wreath, "eta_fock", seeded)
    bad = exp_formula_check(FockContext(first_xi(g)), combo, 2, "eta")
    assert not bad.passed
    assert bad.fail_detail["where"] == "fock vector"
    assert bad.n_cases == 9


def test_ch_multiplicative_on_generating_functions():
    # value-route series of eta_n(beta q^a + gamma q^b) equals the series product
    g = cyclic(2)
    ctx = FockContext(first_xi(g))
    a_combo, b_combo = [(1, 0, 1)], [(1, 1, 0)]
    both = a_combo + b_combo
    fa = combo_class_function(g, a_combo)
    fb = combo_class_function(g, b_combo)
    fboth = combo_class_function(g, both)
    series_a = [ctx.to_chi(ch(eta_wreath(g, fa, n))) for n in range(5)]
    series_b = [ctx.to_chi(ch(eta_wreath(g, fb, n))) for n in range(5)]
    series_ab = [ctx.to_chi(ch(eta_wreath(g, fboth, n))) for n in range(5)]
    from qvertex.wreath import _fock_mul

    for n in range(5):
        conv = FockVector.zero()
        for j in range(n + 1):
            conv = conv + _fock_mul(series_a[j], series_b[n - j])
        assert conv == series_ab[n], n


# ---------------------------------------------------------------- isometry


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3)], ids=lambda g: g.name)
@pytest.mark.parametrize("n", [1, 2])
def test_isometry_small(g, n):
    ctx = FockContext(first_xi(g))
    for k, l in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        rep = isometry_check(ctx, n, k, l)
        assert rep.passed, rep.fail_detail


def test_isometry_single_class_value():
    # n = 1, rho = sigma = one 1-cycle at c, k = l: both sides zeta_c xi(c)
    g = cyclic(3)
    ctx = FockContext(first_xi(g))
    xi = ctx.xi
    from qvertex.wreath import wreath_weighted_form

    for c in range(3):
        rho = tuple((1,) if cc == c else () for cc in range(3))
        f = sigma_rho(g, rho, 0)
        val = wreath_weighted_form(xi, f, f)
        assert val == xi.f.values[c].scale(g.zeta(c))


def test_isometry_second_xi():
    g = cyclic(3)
    ctx = FockContext(second_xi(g, 1))
    rep = isometry_check(ctx, 2, 1, 0)
    assert rep.passed, rep.fail_detail


def test_isometry_enumerates_types_once(monkeypatch):
    g = cyclic(3)
    calls = []
    enum = wreath.enumerate_types
    monkeypatch.setattr(wreath, "enumerate_types", lambda g, n: calls.append(n) or enum(g, n))
    rep = isometry_check(FockContext(first_xi(g)), 2, 1, 0)
    assert rep.passed and rep.n_cases == 2 * 9**2
    assert calls == [2]
    types = enum(g, 2)
    xi = first_xi(g)
    sig, full = sigma_rho(g, types[3], 1), eta_wreath(g, CxClassFunction.character(g, 0), 2)
    for f, h in ((sig, sigma_rho(g, types[3], 0)), (sig, full), (full, sig), (full, full)):
        # brute force over every level-2 type: sum_mu Z_mu^-1 eta(mu) f(mu) bar_q(h(mu))
        oracle = Laurent.zero()
        for mu in types:
            term = f.value(mu) * h.value(mu).bar_q() * eta_value(xi.f, mu)
            oracle = oracle + term.scale(Fraction(1, big_z(g, mu)))
        assert wreath.wreath_weighted_form(xi, f, h) == oracle != Laurent.zero()


SEEDED_FAILURE = {
    "where": "fock side rho=((1, 1), (), ()) sigma=((1, 1), (), ())",
    "expected": "18*q^2 - 72*q + 108 - 72*q^-1 + 18*q^-2",
    "got": "8*q^2 - 40*q + 74 - 60*q^-1 + 18*q^-2",
}


def seed_wrong_pairing(ctx):
    """Move the cached pairing <gamma_0, gamma_1>^{q} by a factor q."""
    ctx._pair_cache[(0, 1, 1)] = ctx.pair_pow(0, 1, 1) * Laurent.q_pow(1)


def test_isometry_fails_on_a_wrong_pairing():
    ctx = FockContext(first_xi(cyclic(3)))
    seed_wrong_pairing(ctx)
    rep = isometry_check(ctx, 2, 0, 0)
    assert not rep.passed
    assert rep.n_cases == 22  # group side and Fock side of the first 11 pairs
    assert rep.fail_detail == SEEDED_FAILURE


def test_isometry_cli_fails_on_a_wrong_pairing(monkeypatch, capsys):
    class Seeded(cli.FockContext):
        def __init__(self, xi):
            super().__init__(xi)
            seed_wrong_pairing(self)

    monkeypatch.setattr(cli, "FockContext", Seeded)
    code = cli.main(["isometry", "--group", "cyclic:3", "--n", "2", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert len(checks) == 81
    failed = [c for c in checks if not c["pass"]]
    assert len(failed) == 36
    first = failed[0]
    assert checks.index(first) == 10
    assert first["params"]["rho"] == first["params"]["sigma"] == "((1, 1), (), ())"
    assert first["cases"] == 2
    assert first["fail_detail"] == {**SEEDED_FAILURE, "where": "fock side"}


def test_isometry_fails_on_a_wrong_character_value():
    # the Fock side reaches the class basis through chi_of_cls alone: chi_1(c_1) times zeta_3
    # must surface there, while the group side, read off the character table, still agrees
    ctx = FockContext(first_xi(cyclic(3)))
    ctx.chi_of_cls[1][1] = ctx.chi_of_cls[1][1] * Laurent.root(3)
    rep = isometry_check(ctx, 2, 0, 0)
    assert not rep.passed
    assert rep.n_cases == 16  # group side and Fock side of the first 8 pairs
    assert rep.fail_detail == {
        "where": "fock side rho=((2,), (), ()) sigma=((), (), (2,))",
        "expected": "0",
        "got": "(4 + 2*z3^1)*q^2 + (-8 - 4*z3^1) + (4 + 2*z3^1)*q^-2",
    }
