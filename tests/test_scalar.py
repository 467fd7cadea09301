from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvertex.scalar import (
    Laurent,
    TruncSeries,
    coeff_obj,
    coeff_str,
    eval_at_one,
    laurent_str,
    qbinom,
    qfact,
    qint,
    series_exp,
)
from qvertex.scalar import _euler_phi

from helpers import laurent_from_obj


def cyc(n, coeffs):
    """The constant sum_i coeffs[i] zeta_n^i."""
    f = Laurent.zero()
    for i, x in enumerate(coeffs):
        f = f + Laurent.root(n, i).scale(x)
    return f


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def laurents(draw, max_terms=4, cyclo=False):
    n = draw(st.integers(0, max_terms))
    t = {}
    for _ in range(n):
        e = draw(st.integers(-5, 5))
        if cyclo and draw(st.booleans()):
            c = cyc(3, [draw(small_fracs), draw(small_fracs)])
        else:
            c = draw(small_fracs)
        t[e] = c
    return Laurent(t)


# ---------------------------------------------------------------- cyclotomics


def test_cyclotomic_reduction_basics():
    w = Laurent.root(3)
    assert w * w * w == 1
    assert w + w * w == -1  # 1 + z + z^2 = 0 mod Phi_3
    i = Laurent.root(4)
    assert i * i == -1
    z12 = Laurent.root(12)
    assert z12 * z12 * z12 == Laurent.root(4)
    # conductor collapse: rational values normalise to N = 1
    assert (w + (-w)).coords() == (1, (0,))
    assert (Laurent.root(6) * Laurent.root(6) * Laurent.root(6)).as_rational() == -1
    assert Laurent.root(1) == 1 and Laurent.root(2) == -1 and Laurent.root(4, 2).coords() == (1, (-1,))


def test_cyclotomic_conj_involution_and_inverse():
    w = Laurent.root(5, 2) + Laurent.of(Fraction(1, 3))
    assert w.bar().bar() == w
    assert w * w.inverse() == 1
    assert abs(w.eval_real(1.0) * w.inverse().eval_real(1.0) - 1) < 1e-12


def test_cyclotomic_mixed_conductor():
    w3, i4 = Laurent.root(3), Laurent.root(4)
    prod = w3 * i4
    assert prod.coords()[0] == 12
    assert abs(prod.eval_real(1.0) - w3.eval_real(1.0) * i4.eval_real(1.0)) < 1e-12


# ---------------------------------------------------------------- laurent ops


def test_q_times_qinv_is_one():
    assert Laurent.q_pow(1) * Laurent.q_pow(-1) == Laurent.one()


def test_bar_fixes_selfdual():
    f = Laurent({2: 1, -2: 1})  # q + q^-1
    assert f.bar() == f


def test_qint_values():
    assert qint(1) == Laurent.one()
    assert qint(2) == Laurent({2: 1, -2: 1})
    assert qint(-3) == -Laurent({4: 1, 0: 1, -4: 1})
    assert qint(0).is_zero


def test_qint_product_matches_clebsch_gordan():
    # [n][m] = sum_j [n+m-1-2j], j = 0..min(n,m)-1, checked from the definition
    for n in range(1, 7):
        for m in range(1, 7):
            lhs = qint(n) * qint(m)
            rhs = Laurent.zero()
            for j in range(min(n, m)):
                rhs = rhs + qint(n + m - 1 - 2 * j)
            assert lhs == rhs, (n, m)


def test_qint_2_times_3():
    assert qint(2) * qint(3) == qint(4) + qint(2)


def test_eval_real():
    f = Laurent({2: 1, -2: 1})
    assert abs(f.eval_real(2.0) - 2.5) < 1e-12
    assert abs(qint(2).eval_real(1.0) - 2.0) < 1e-12
    g = Laurent.root(3) + Laurent.root(3, 2)
    assert abs(g.eval_real(0.7) - (-1.0)) < 1e-12
    with pytest.raises(ValueError):
        f.eval_real(-1.0)


@settings(max_examples=60)
@given(laurents(cyclo=True), laurents(cyclo=True), laurents(cyclo=True))
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40)
@given(laurents(cyclo=True), laurents(cyclo=True))
def test_bar_is_multiplicative(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().bar() == a


@settings(max_examples=40)
@given(laurents(), st.integers(1, 4))
def test_subs_pow_hom(a, m):
    b = Laurent({0: Fraction(1, 2), 3: 1})
    assert (a * b).subs_pow(m) == a.subs_pow(m) * b.subs_pow(m)


def test_exact_div():
    num = qint(6)
    assert num.exact_div(qint(3)) * qint(3) == num
    with pytest.raises(ArithmeticError):
        (qint(2) + Laurent.one()).exact_div(qint(2))


def test_qbinom_against_product_formula():
    # [4;2] = [4][3]/([2][1])
    assert qbinom(4, 2) == (qint(4) * qint(3)).exact_div(qint(2))
    assert qbinom(3, 1) == qint(3)
    assert qbinom(2, 2) == Laurent.one()
    # negative upper index: [-1; m] = (-1)^m [m+... ] check via defining product
    num = qint(-1) * qint(-2)
    assert qbinom(-1, 2) == num.exact_div(qfact(2))


def test_eval_at_one():
    assert eval_at_one(qint(5)).as_rational() == 5
    assert eval_at_one(Laurent({1: 2, -4: 3})).as_rational() == 5


def test_laurent_str_uses_q_when_integral():
    assert "q" in laurent_str(qint(2)) and "v" not in laurent_str(qint(2))
    assert "v" in laurent_str(Laurent.v_pow(1))


def test_laurent_json_round_trip():
    f = Laurent({3: Laurent.root(3), -1: Fraction(-2, 5)})
    assert f.to_obj() == [[-1, [1, [[0, "-2/5"]]]], [3, [3, [[1, "1"]]]]]
    assert laurent_from_obj(f.to_obj()) == f


# ---------------------------------------------------------------- series


def poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Laurent.zero()) + x * y
    return out


@settings(max_examples=30)
@given(st.lists(small_fracs, min_size=0, max_size=4), st.lists(small_fracs, min_size=0, max_size=4))
def test_trunc_series_mul_agrees_with_poly_mul(ca, cb):
    D = 8
    a = {i: Laurent.of(c) for i, c in enumerate(ca)}
    b = {i: Laurent.of(c) for i, c in enumerate(cb)}
    sa = TruncSeries(D, [a.get(i, Laurent.zero()) for i in range(D + 1)])
    sb = TruncSeries(D, [b.get(i, Laurent.zero()) for i in range(D + 1)])
    prod = sa * sb
    exact = poly_mul(a, b)
    for i in range(D + 1):
        assert prod.coeffs[i] == exact.get(i, Laurent.zero())


def test_series_exp_of_log_one_minus_z():
    # exp(-sum z^n / n) = 1 - z exactly
    D = 9
    expo = TruncSeries(D, [Laurent.zero()] + [Laurent.of(Fraction(-1, n)) for n in range(1, D + 1)])
    got = series_exp(expo)
    want = TruncSeries(D, [Laurent.one(), -Laurent.one()])
    assert got == want


def test_trunc_series_hash_agrees_with_eq():
    a = TruncSeries(2, [Laurent.one(), Laurent.q_pow(1)])
    b = TruncSeries(3, [Laurent.one(), Laurent.q_pow(1), Laurent.zero(), Laurent.of(7)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_series_inverse():
    D = 6
    s = TruncSeries(D, [Laurent.one(), -Laurent.q_pow(1)])
    inv = s.inverse()
    assert s * inv == TruncSeries.one(D)


# ---------------------------------------------------------------- fast paths


def coefficient_values():
    """int, Fraction and constant Laurent values, rational and not, at conductors 1, 3, 4, 12."""
    irrational = st.builds(
        lambda n, k, x, y: Laurent.root(n, k) * x + Laurent.of(y),
        st.sampled_from([3, 4, 12]),
        st.integers(1, 11),
        small_fracs.filter(bool),
        small_fracs,
    )
    return st.one_of(
        st.integers(-6, 6),
        small_fracs,
        small_fracs.map(Laurent.of),
        irrational,
    )


@st.composite
def mixed_laurents(draw, max_terms=4):
    f = Laurent.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        f = f + Laurent.v_pow(draw(st.integers(-5, 5)), draw(coefficient_values()))
    return f


def assert_canonical(f):
    """Every coefficient is nonzero, each coordinate an int when integral, and a value held
    at a conductor N > 1 has phi(N) coordinates and some irrational coefficient."""
    n = 1
    for e in f.support():
        n, c = f.coords(e)
        assert any(c)
        assert all(type(x) is int or x.denominator != 1 for x in c), c
        assert len(c) == _euler_phi(n)
    assert n == 1 or any(any(f.coords(e)[1][1:]) for e in f.support())


# An exact oracle independent of the kernel: a value of Q(zeta_M) is a list of M
# Fractions in Q[x]/(x^M - 1), read from a Laurent's ``coords`` only.  Sums add and
# products convolve cyclically; both commute with the quotient map onto
# Q[x]/Phi_M, which is applied (with Phi_M computed here) only to compare values.

M = 12  # a multiple of every conductor the kernel tests draw or read back (1, 3, 4, 12)


def ref(x, m=M):
    """x (int, Fraction or constant Laurent) in Q[x]/(x^m - 1); the conductor of x divides m."""
    return ref_coords(*(x.coords() if isinstance(x, Laurent) else (1, (Fraction(x),))), m)


def ref_coords(n, c, m=M):
    """The value with coordinates c at conductor n in Q[x]/(x^m - 1); n divides m."""
    assert m % n == 0, (m, n)
    out = [Fraction(0)] * m
    for i, y in enumerate(c):
        out[i * (m // n)] += y
    return out


def ref_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % len(a)] += x * y
    return out


def ref_divmod(p, q):
    """Quotient and remainder of p by a monic q, both coefficient lists from degree 0."""
    p, k = list(p), len(q) - 1
    quot = [Fraction(0)] * max(len(p) - k, 1)
    for i in range(len(p) - 1 - k, -1, -1):
        quot[i] = p[i + k]
        for j, y in enumerate(q):
            p[i + j] -= quot[i] * y
    return quot, p[:k]


@cache
def ref_phi(m):
    """Phi_m: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    p = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            p = ref_divmod(p, ref_phi(d))[0]
    return tuple(p)


def ref_reduce(a):
    """a modulo Phi_m: the coordinates of the value a stands for."""
    return ref_divmod(a, ref_phi(len(a)))[1]


def ref_terms(f):
    return {e: ref_coords(*f.coords(e)) for e in f.support()}


def ref_conductor(a):
    """The least m | M (m != 2 mod 4) with a in Q(zeta_m): a is fixed by x -> x^s for every unit s = 1 mod m."""
    r = ref_reduce(a)
    for m in (1, 3, 4, 12):
        if all(ref_reduce(ref_galois(a, s)) == r for s in range(1, M) if gcd(s, M) == 1 and s % m == 1 % m):
            return m
    raise AssertionError(a)


def ref_galois(a, s):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        out[s * i % len(a)] += x
    return out


def assert_minimal_obj(f):
    """to_obj holds each coefficient at the least conductor whose field holds it, at the same value."""
    obj = f.to_obj()
    assert [e for e, _ in obj] == f.support()
    for e, (m, pairs) in obj:
        a = ref_coords(*f.coords(e))
        coords = [Fraction(0)] * _euler_phi(m)
        for i, x in pairs:
            coords[i] = Fraction(x)
        assert m == ref_conductor(a) and ref_reduce(ref_coords(m, coords)) == ref_reduce(a), (f, obj)


def ref_add(*terms):
    """Merge {e: oracle value} maps, adding values at a shared exponent."""
    out = {}
    for t in terms:
        for e, a in t.items():
            out[e] = [x + y for x, y in zip(out[e], a)] if e in out else a
    return out


def ref_scale(t, x):
    return {e: ref_mul(a, ref(x)) for e, a in t.items()}


def convolve(a, b):
    """Reference product: the plain double loop over both supports."""
    return ref_add(*({e1 + e2: ref_mul(x, y)} for e1, x in ref_terms(a).items() for e2, y in ref_terms(b).items()))


def from_ref(t):
    return Laurent({e: cyc(M, ref_reduce(a)) for e, a in t.items()})


def assert_matches(f, want):
    """f has a nonzero coefficient exactly where the oracle's map does, and the same value there."""
    got = {e: ref_reduce(a) for e, a in ref_terms(f).items()}
    assert got == {e: r for e, a in want.items() if any(r := ref_reduce(a))}, (f, want)


@settings(max_examples=80)
@given(mixed_laurents(), mixed_laurents())
def test_mixed_coefficients_stay_canonical(a, b):
    for f in (a, b, a + b, a - b, a * b, -a, a.scale(3), a.scale(Fraction(1, 2))):
        assert_canonical(f)
    t = 1.7
    assert abs((a * b).eval_real(t) - a.eval_real(t) * b.eval_real(t)) < 1e-9
    assert abs((a + b).eval_real(t) - a.eval_real(t) - b.eval_real(t)) < 1e-9


@settings(max_examples=80)
@given(st.integers(-6, 6), coefficient_values().filter(lambda x: x != 0), mixed_laurents(max_terms=5))
def test_monomial_times_polynomial_matches_convolution(e, c, f):
    m = Laurent.v_pow(e, c)
    want = convolve(m, f)
    assert_matches(m * f, want)
    assert_matches(f * m, want)
    assert_canonical(m * f)
    assert_canonical(f * m)


@settings(max_examples=60)
@given(mixed_laurents(max_terms=5), mixed_laurents(max_terms=5))
def test_general_product_matches_convolution(a, b):
    assert_matches(a * b, convolve(a, b))


@settings(max_examples=60)
@given(mixed_laurents(), mixed_laurents())
def test_addition_cancelling_to_zero(a, b):
    s = a + b
    assert (s + (-s)).is_zero
    assert (s - s).support() == []
    assert (s - b) == a
    assert_canonical(s - b)
    assert (a + (-a)) == Laurent.zero()


def test_addition_cancels_rational_and_cyclotomic_terms():
    w = Laurent.root(3)
    f = Laurent({0: Fraction(1, 2), 2: w, 4: 3})
    g = Laurent({0: Fraction(-1, 2), 2: -w, 4: -2})
    h = f + g
    assert h.support() == [4] and h.coeff(4) == 1
    assert h.coords(4) == (1, (1,)) and type(h.coords(4)[1][0]) is int


@settings(max_examples=60)
@given(mixed_laurents(), st.one_of(st.just(0), st.just(1), st.integers(-5, 5), small_fracs, coefficient_values()))
def test_scale_matches_product_with_constant(f, x):
    got = f.scale(x)
    assert got == f * Laurent.of(x)
    assert got == Laurent.of(x) * f
    assert_canonical(got)
    if x == 0:
        assert got.is_zero
    if x == 1:
        assert got == f


def test_scale_by_zero_one_and_cyclo():
    f = Laurent({-2: Fraction(2, 3), 1: Laurent.root(4)})
    assert f.scale(0).is_zero and f.scale(Fraction(0)).is_zero and f.scale(Laurent.of(0)).is_zero
    assert f.scale(1) == f and f.scale(Laurent.of(1)) == f
    assert f.scale(Fraction(3, 2)) == Laurent({-2: 1, 1: Laurent.root(4) * Fraction(3, 2)})
    i = Laurent.root(4)
    assert f.scale(i) == Laurent({-2: i * Fraction(2, 3), 1: -1})
    with pytest.raises(TypeError):
        f.scale(0.5)


@settings(max_examples=60)
@given(st.one_of(st.just(0), small_fracs), coefficient_values())
def test_rational_times_cyclo(x, c):
    c = Laurent.of(c)
    for got in (Laurent.of(x) * c, c * x, c * Laurent.of(x)):
        assert abs(got.eval_real(1.0) - x * c.eval_real(1.0)) < 1e-9
        assert got.is_zero == (x == 0 or c.is_zero)
        assert_canonical(got)
        if x == 0:
            assert got == 0 and got.coords()[0] == 1


@settings(max_examples=80)
@given(small_fracs, small_fracs)
def test_integral_values_are_int(x, y):
    for c in (Laurent.of(x) * Laurent.of(y), Laurent.of(x) + Laurent.of(y), -Laurent.of(x)):
        v = c.as_rational()
        assert c == Fraction(v) and c == v
        assert hash(c) == hash(Fraction(v))
        if v.denominator == 1:
            assert type(v) is int
            assert c == int(v)
        else:
            assert type(v) is Fraction


def test_integral_normalisation():
    c = Laurent.of(Fraction(6, 3))
    assert type(c.as_rational()) is int
    assert c == Fraction(2) and c == 2 and c == Laurent.of(2)
    assert hash(c) == hash(Fraction(2)) == hash(2)
    assert c.as_rational().denominator == 1
    assert type((Laurent.of(Fraction(1, 2)) * 4).as_rational()) is int
    assert type(Laurent.of(Fraction(1, 3)).inverse().as_rational()) is int
    # an irrational sum collapsing to a rational one, and JSON round trips, land on int
    w = Laurent.root(12, 5)
    assert type((w + Laurent.of(Fraction(3, 1)) - w).as_rational()) is int
    assert type(laurent_from_obj([[0, [1, [[0, "4/2"]]]]]).as_rational()) is int
    assert type(eval_at_one(qint(4)).as_rational()) is int
    assert coeff_str(*Laurent.of(Fraction(4, 2)).coords()) == "2"
    assert coeff_obj(*Laurent.of(Fraction(8, 4)).coords()) == [1, [[0, "2"]]]


def test_cyclo_hash_ignores_conductor():
    # zeta_3 held at conductor 3 and at conductor 12 is one value, one hash, one set element
    a, b = Laurent.root(3), Laurent.root(12, 4)
    assert a.coords()[0] == 3 and b.coords()[0] == 12
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for n in (4, 5, 6, 8, 12):
        for k in range(n):
            x = Laurent.root(n, k) + Laurent.root(n, 2 * k + 1).scale(Fraction(1, 3))
            y = Laurent.root(2 * n, 2 * k) + Laurent.root(2 * n, 4 * k + 2).scale(Fraction(1, 3))
            assert x == y and hash(x) == hash(y)
    # a rational value reached through irrational terms hashes as the rational
    w = Laurent.root(12, 5)
    assert hash(w + Laurent.of(Fraction(3, 2)) - w) == hash(Fraction(3, 2))


def test_laurent_equality_and_hash_across_conductors():
    a, b = Laurent.v_pow(1, Laurent.root(3)), Laurent.v_pow(1, Laurent.root(12, 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.coords(1)[0] == 3 and b.coords(1)[0] == 12  # coords reads each value at its own conductor
    assert a.to_obj() == b.to_obj() == [[1, [3, [[1, "1"]]]]]  # to_obj at the minimal one
    assert laurent_str(a) == laurent_str(b) == "(1*z3^1)*v"
    i4, i12 = Laurent.root(4), Laurent.root(12, 3)
    assert i4 == i12 and hash(i4) == hash(i12) and len({i4, i12}) == 1
    assert Laurent.v_pow(0, Laurent.root(4)) != Laurent.v_pow(0, Laurent.root(12, 9))
    # zeta_4 + zeta_6 lifts both to conductor 12
    i4, z6 = Laurent.root(4), Laurent.root(6)
    s = Laurent.v_pow(2, i4) + Laurent.v_pow(2, z6) + Laurent.v_pow(0, Fraction(1, 2))
    t = Laurent({2: Laurent.root(12, 3) + Laurent.root(12, 2), 0: Fraction(1, 2)})
    assert s == t and hash(s) == hash(t)
    assert len({s, t}) == 1
    assert s.coords(2)[0] == 12 and s.coeff(0) == Fraction(1, 2)
    # lifting i4 to conductor 12 leaves a value that still reads back at conductor 4
    assert (s - Laurent.v_pow(2, z6)).to_obj() == [[0, [1, [[0, "1/2"]]]], [2, [4, [[1, "1"]]]]]


def test_laurent_int_equality_agrees_with_hash():
    for n in (0, 3, -7):
        assert Laurent.of(n) == n and hash(Laurent.of(n)) == hash(n)
        assert len({Laurent.of(n), n}) == 1
    assert Laurent.zero() == 0 and hash(Laurent.zero()) == hash(0)
    assert Laurent.of(Fraction(6, 3)) == 2 and hash(Laurent.of(Fraction(6, 3))) == hash(2)
    # non-constant and non-integral values never equal an int
    assert Laurent.q_pow(1) != 1 and Laurent.of(Fraction(1, 2)) != 0
    # a rational constant equals and hashes as its Fraction; a cyclotomic or non-constant value never does
    for x in (Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2)):
        assert Laurent.of(x) == x and hash(Laurent.of(x)) == hash(x) and len({Laurent.of(x), x}) == 1
    assert Laurent.q_pow(1, Fraction(1, 2)) != Fraction(1, 2) and Laurent.root(3) != Fraction(1, 2)


@pytest.mark.parametrize("value", [
    Laurent.root(3),
    Laurent.root(12, 5) + Laurent.of(2),
    Laurent.q_pow(1),
    Laurent.v_pow(-1, Fraction(1, 2)),
    Laurent.of(1) + Laurent.q_pow(1),
])
def test_as_rational_raises_unless_a_rational_constant(value):
    with pytest.raises(ValueError):
        value.as_rational()
    assert (value - value).as_rational() == 0
    assert Laurent.of(Fraction(-3, 6)).as_rational() == Fraction(-1, 2)


# ---------------------------------------------------------------- kernel forms


def render(f):
    """Reference rendering of f from its to_obj form (checked by assert_minimal_obj), in q
    when every exponent is even."""
    terms = {e: (m, pairs) for e, (m, pairs) in f.to_obj()}
    if not terms:
        return "0"
    sym, div = ("q", 2) if all(e % 2 == 0 for e in terms) else ("v", 1)
    parts = []
    for e in sorted(terms, reverse=True):
        m, pairs = terms[e]
        cs = " + ".join(f"{x}*z{m}^{i}" if i else x for i, x in pairs)
        if "+" in cs or "-" in cs[1:] or "*" in cs:
            cs = f"({cs})"
        p = e // div
        mon = sym if p == 1 else f"{sym}^{p}"
        parts.append(cs if p == 0 else mon if cs == "1" else f"-{mon}" if cs == "-1" else f"{cs}*{mon}")
    return " + ".join(parts).replace("+ -", "- ")


def assert_form(f):
    """The value decides the form: rational numerators over one reduced denominator, or
    int coordinate tuples at one conductor over one reduced denominator."""
    rational = not any(any(ref_reduce(a)[1:]) for a in ref_terms(f).values())
    assert (f._d > 0) == rational, (f._d, f._t)
    if rational:
        assert all(type(n) is int and n != 0 for n in f._t.values()), f._t
        assert gcd(f._d, *f._t.values()) == 1, (f._d, f._t)
    else:
        n, d = f._nd
        assert f._d == 0 and d > 0
        for c in f._t.values():
            assert type(c) is tuple and len(c) == _euler_phi(n) and any(c), (n, f._t)
            assert all(type(x) is int for x in c), f._t
        assert any(any(c[1:]) for c in f._t.values()), f._t
        assert gcd(d, *(x for c in f._t.values() for x in c)) == 1, (d, f._t)


wide_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def kernel_laurents(draw, max_terms=4):
    """Laurents with rational (denominators up to 12) and conductor-3, 4 and 12 coefficients."""
    t = {}
    for _ in range(draw(st.integers(0, max_terms))):
        x = draw(wide_fracs)
        if draw(st.booleans()):
            x = Laurent.root(draw(st.sampled_from([3, 4, 12])), draw(st.integers(1, 11))) * draw(wide_fracs) + Laurent.of(x)
        t[draw(st.integers(-4, 4))] = x
    return Laurent(t)


scalars = st.one_of(
    st.integers(-12, 12),
    wide_fracs,
    st.builds(lambda k, x: Laurent.root(12, k) * x, st.integers(0, 11), wide_fracs),
)


@settings(max_examples=120)
@given(kernel_laurents(), kernel_laurents(), scalars)
def test_kernel_matches_cyclo_references(a, b, x):
    assert_form(a)
    assert_form(b)
    ta, tb = ref_terms(a), ref_terms(b)
    cases = [
        (a + b, ref_add(ta, tb)),
        (a - b, ref_add(ta, ref_scale(tb, -1))),
        (a * b, convolve(a, b)),
        (-a, ref_scale(ta, -1)),
        (a.scale(x), ref_scale(ta, x)),
        (a * x, ref_scale(ta, x)),
        (a.bar(), {-e: [r[-i % M] for i in range(M)] for e, r in ta.items()}),
        (a.bar_q(), {-e: r for e, r in ta.items()}),
        (a.subs_pow(3), {3 * e: r for e, r in ta.items()}),
        (a.subs_pow(-2), {-2 * e: r for e, r in ta.items()}),
    ]
    for got, want in cases:
        assert_matches(got, want)
        assert got == from_ref(want)
        assert_form(got)
    assert_matches(eval_at_one(a), ref_add({0: ref(0)}, *({0: r} for r in ta.values())))
    assert laurent_from_obj(a.to_obj()) == a
    assert_minimal_obj(a)
    assert laurent_str(a) == render(a)
    if not b.is_zero:
        q = from_ref(convolve(a, b)).exact_div(b)
        assert q == a
        assert_form(q)


conductors = st.sampled_from([1, 3, 4, 5, 6, 8, 12])


@settings(max_examples=80)
@given(conductors, st.lists(wide_fracs, max_size=13), conductors, st.lists(wide_fracs, max_size=13))
def test_cyclo_matches_the_oracle(n, cx, m, cy):
    """Construction, ring operations, conjugation and inverse of constants at each conductor, and
    the conductors they keep."""
    k = lcm(n, m)

    def raw(n, c):  # sum_i c_i zeta_n^i, unreduced
        out = [Fraction(0)] * k
        for i, y in enumerate(c):
            out[i * (k // n) % k] += y
        return out

    x, y = cyc(n, cx), cyc(m, cy)
    rx, ry = raw(n, cx), raw(m, cy)
    nx, ny = x.coords()[0], y.coords()[0]
    assert nx in (1, n) and ny in (1, m)
    assert (nx == 1) == (not any(ref_reduce(rx)[1:]))  # only a rational value has no coordinate past z^0
    neg_y = ref_mul(ry, ref(-1, k))
    cases = [
        (x, rx),
        (-y, neg_y),
        (x + y, [a + b for a, b in zip(rx, ry)]),
        (x - y, [a + b for a, b in zip(rx, neg_y)]),
        (x * y, ref_mul(rx, ry)),
        (x.bar(), [rx[-i % k] for i in range(k)]),
    ]
    for got, want in cases:
        assert ref_reduce(ref(got, k)) == ref_reduce(want), (n, cx, m, cy, got)
    assert (x + y).coords()[0] in (1, lcm(nx, ny)) and (x * y).coords()[0] in (1, lcm(nx, ny))
    assert (x * 3).coords()[0] == nx and (x + Laurent.of(Fraction(1, 2))).coords()[0] == nx
    if not x.is_zero:
        assert x.inverse().coords()[0] in (1, nx)
        assert ref_reduce(ref_mul(ref(x.inverse(), k), rx)) == ref_reduce(ref(1, k))


@settings(max_examples=80)
@given(st.sampled_from([1, 3, 4, 5, 12, 20]), st.lists(wide_fracs, min_size=1, max_size=8), st.integers(-4, 4))
def test_monomial_inverse_through_the_galois_norm(n, coeffs, e):
    c = cyc(n, coeffs)
    x = Laurent.v_pow(e, c)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.support() == [-e] and inv.inverse() == x
    assert_canonical(inv)
    assert abs(inv.eval_real(1.0) * c.eval_real(1.0) - 1) < 1e-9
    with pytest.raises(ValueError):  # a non-monomial has no inverse in Q(zeta_N)[v, v^-1]
        (x + Laurent.v_pow(e + 1, c)).inverse()
    with pytest.raises(ValueError):
        TruncSeries(2, [x + Laurent.v_pow(e + 1)]).inverse()
    # exact_div by the monomial is multiplication by its inverse
    f = Laurent({0: Laurent.root(4), 3: Fraction(2, 3)}) * x
    assert f.exact_div(x) == Laurent({0: Laurent.root(4), 3: Fraction(2, 3)})


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Laurent.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        Laurent.one().exact_div(Laurent.zero())


def test_irrational_product_lands_in_rational_form():
    w = Laurent.root(3)
    f = Laurent.v_pow(1, w) * Laurent.v_pow(2, w * w)  # zeta_3 * zeta_3^2 = 1
    assert f == Laurent.v_pow(3) and f._d == 1 and f._t == {3: 1}
    g = Laurent({0: w, 1: w * Fraction(1, 2)}) * Laurent.v_pow(0, w * w)
    assert g == Laurent({0: 1, 1: Fraction(1, 2)})
    assert g._d == 2 and g._t == {0: 2, 1: 1}
    assert Laurent.v_pow(0, w).scale(w * w) == Laurent.one()
    assert_form(Laurent.v_pow(0, w).scale(w * w))
    a = Laurent({0: w, 1: w})  # zeta_3 (1 + v)
    b = Laurent({0: w * w, 1: -(w * w)})  # zeta_3^2 (1 - v)
    h = a * b
    assert h._d == 1 and h._t == {0: 1, 2: -1}
    assert_form(h)


def test_sum_whose_irrational_parts_cancel_is_rational():
    w = Laurent.root(12, 5)
    f = Laurent({0: w + Laurent.of(Fraction(1, 6)), 2: Fraction(1, 4)})
    g = Laurent({0: -w + Laurent.of(Fraction(1, 3)), 2: Fraction(1, 4)})
    h = f + g
    assert h._d == 2 and h._t == {0: 1, 2: 1}
    assert h == Laurent({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert (f - f)._t == {} and (f - f) == Laurent.zero()


def test_rational_sum_normalises_its_shared_denominator():
    half = Laurent.of(Fraction(1, 2))
    assert ((half + half)._d, (half + half)._t) == (1, {0: 1})
    f = Laurent({0: Fraction(1, 6), 1: Fraction(1, 3)})
    g = Laurent({0: Fraction(1, 3), 1: Fraction(1, 6)})
    assert (f._d, f._t) == (6, {0: 1, 1: 2})
    h = f + g  # (3 + 3v)/6 = (1 + v)/2
    assert (h._d, h._t) == (2, {0: 1, 1: 1})
    assert (-f)._d == 6 and (-f)._t == {0: -1, 1: -2}
    assert_form(-f)


def test_monomial_denominator_sharing_a_factor_with_the_numerators():
    f = Laurent({0: Fraction(2, 3), 1: Fraction(4, 3)})  # (2 + 4v)/3
    assert (f._d, f._t) == (3, {0: 2, 1: 4})
    for got in (f * Laurent.v_pow(2, Fraction(1, 2)), f.scale(Fraction(1, 2)).subs_pow(1) * Laurent.v_pow(2)):
        assert (got._d, got._t) == (3, {2: 1, 3: 2})  # gcd(G, q) = gcd(2, 2) = 2
    got = f * Laurent.v_pow(0, Fraction(9, 4))  # gcd(p, d) = 3 and gcd(G, q) = 2
    assert (got._d, got._t) == (2, {0: 3, 1: 6})
    assert got == Laurent({0: Fraction(3, 2), 1: 3})
    assert (f * Laurent.v_pow(0, Fraction(3, 2)))._t == {0: 1, 1: 2}
    assert (f * Laurent.v_pow(0, Fraction(3, 2)))._d == 1
