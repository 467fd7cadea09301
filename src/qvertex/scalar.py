"""Exact arithmetic kernel.

Everything downstream computes with elements of (cyclotomic rationals)[v, v^-1]
where v^2 = q.  Working in the half-power v keeps every exponent integral even
when operators contribute q^{1/2}-shifts.  The kernel has two layers:

  * Laurent      -- finitely supported map (v-exponent -> element of Q(zeta_N)).
  * TruncSeries  -- dense truncated power series in one auxiliary variable
                    with Laurent coefficients.

Laurent is the one scalar type.  An element of Q(zeta_N) -- a character value,
a coefficient read back with ``coeff`` -- is a constant Laurent, and a rational
value is one whose conductor is N = 1.  ``coords`` reads a coefficient at the
value's own conductor, ``as_rational`` reads a rational constant as an ``int``
or a ``Fraction``, and ``coeff_str``/``coeff_obj`` render one coefficient.

A Laurent is one integer form, after FLINT's fmpq_poly and Antic's nf_elem:
one conductor N, one denominator d > 0 and, per exponent, the phi(N) integer
power-basis coordinates of the coefficient mod Phi_N, reduced so that
gcd(d, every coordinate) == 1.  The rational case N = 1 keeps one int
numerator per exponent.  Sums align denominators once; products convolve the
integer tuples and reduce with the rows of x^k mod Phi_N; a rational operand
scales the other's tuples by its numerators; operands at different conductors
lift to the lcm.  Each result is normalised once, with no Fraction per
coefficient, and returns to the rational case when no irrational coordinate
is left.

The same two forms hold the coefficients of a Fock vector, with the exponent
replaced by a (basis key, v-exponent) pair: Laurent's sum, negation and
equality never read an exponent, and KeyedSum accumulates products of
vector terms and scalars into one such keyed value with one normalisation.

All values are immutable after construction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from operator import add


# --------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # dense exact division over Z (cyclotomic factors are monic up to sign)
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c, rem = divmod(num[i + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _cyclotomic_poly(n: int) -> list[int]:
    if n in _PHI_CACHE:
        return _PHI_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, _cyclotomic_poly(d))
    _PHI_CACHE[n] = poly
    return poly


_PHI_CACHE: dict[int, list[int]] = {}
_RED_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _reduction_rows(n: int) -> list[tuple[int, ...]]:
    """Vectors of x^k mod Phi_n for k = deg .. max(2*deg-2, n-1)."""
    if n in _RED_CACHE:
        return _RED_CACHE[n]
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    top_k = max(2 * deg - 2, n - 1)
    rows: list[tuple[int, ...]] = []
    # x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})  (phi is monic)
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(top_k - deg):
        shifted = [0] + cur[: deg - 1]
        top = cur[deg - 1]
        if top:
            for j in range(deg):
                shifted[j] += top * rows[0][j]
        cur = shifted
        rows.append(tuple(cur))
    _RED_CACHE[n] = rows
    return rows


def _euler_phi(n: int) -> int:
    return len(_cyclotomic_poly(n)) - 1


def _reduce_mod_phi(n: int, coeffs) -> tuple:
    deg = _euler_phi(n)
    if len(coeffs) <= deg:
        return tuple(coeffs) + (0,) * (deg - len(coeffs))
    if len(coeffs) > n:  # fold by x^n = 1, which holds mod Phi_n
        folded = [0] * n
        for k, c in enumerate(coeffs):
            if c:
                folded[k % n] += c
        coeffs = folded
        if len(coeffs) <= deg:
            return tuple(coeffs) + (0,) * (deg - len(coeffs))
    rows = _reduction_rows(n)
    out = list(coeffs[:deg])
    for k in range(deg, len(coeffs)):
        c = coeffs[k]
        if c:
            row = rows[k - deg]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def _lift(n: int, m: int, c: tuple) -> tuple:
    """Coordinates at conductor m of the value with coordinates c at conductor n (n | m)."""
    step = m // n
    out = [0] * (step * (len(c) - 1) + 1)
    for i, x in enumerate(c):
        out[step * i] = x
    return _reduce_mod_phi(m, out)


def _root_power(n: int, c: tuple, s: int) -> tuple:
    """Coordinates of the image under the field map zeta_n -> zeta_n^s (s coprime to n)."""
    out = [0] * n
    for i, x in enumerate(c):
        out[s * i % n] = x
    return _reduce_mod_phi(n, out)


_new = object.__new__


# --------------------------------------------------------------------------
# Laurent scalars in v, with v^2 = q


class Laurent:
    """Finitely supported map v-exponent -> Q(zeta_N); v^2 = q.

    Integer q-powers sit at even v-exponents; the q^{1/2}-shifts of vertex
    operator calculus occupy the odd ones.  Every coefficient is held as
    integers over one denominator shared by the whole value, and the value
    picks one of two canonical forms:

      * rational (``_d > 0``): ``_t`` maps exponents to nonzero int numerators
        over the one denominator ``_d``, with gcd(_d, *numerators) == 1;
      * cyclotomic (``_d == 0``): ``_nd`` is (N, d) and ``_t`` maps exponents
        to nonzero tuples of phi(N) int power-basis coordinates mod Phi_N over
        the one denominator d > 0, with gcd(d, every coordinate) == 1 and some
        coordinate past the first nonzero (at least one irrational coefficient).

    Operands at different conductors lift to the lcm; a result with no
    irrational coordinate left returns to the rational form.  ``coeff`` reads
    one coefficient as a constant Laurent and ``coords`` as its coordinates,
    both at the value's own conductor.
    """

    __slots__ = ("_t", "_d", "_nd")

    def __init__(self, terms: dict | None = None):
        f = L_ZERO
        for e, c in (terms or {}).items():
            f = f + Laurent.v_pow(e, c)
        _set_t(self, f._t)
        _set_d(self, f._d)
        if not f._d:
            _set_nd(self, f._nd)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Laurent is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "Laurent":
        return _laurent({}, 1)

    @staticmethod
    def of(x) -> "Laurent":
        """Constant scalar from int / Fraction / Laurent."""
        return Laurent.v_pow(0, x)

    @staticmethod
    def one() -> "Laurent":
        return _laurent({0: 1}, 1)

    @staticmethod
    def v_pow(e: int, coeff=1) -> "Laurent":
        """coeff v^e, for an int, a Fraction or a Laurent coeff."""
        if type(coeff) is int:
            return _laurent({e: coeff} if coeff else {}, 1)
        if isinstance(coeff, Fraction):
            return _laurent({e: coeff.numerator} if coeff else {}, coeff.denominator)
        if type(coeff) is Laurent:
            return coeff.with_entries({e + e0: c for e0, c in coeff._t.items()}) if e else coeff
        if isinstance(coeff, float):
            raise TypeError("floats are not exact; use Fraction")
        return Laurent.v_pow(e, Fraction(coeff))

    @staticmethod
    def q_pow(k: int, coeff=1) -> "Laurent":
        return Laurent.v_pow(2 * k, coeff)

    @staticmethod
    def root(n: int, k: int = 1) -> "Laurent":
        """zeta_n^k, a constant."""
        k %= n
        return _settle({0: _reduce_mod_phi(n, [0] * k + [1])}, n, 1)

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self._t

    def support(self) -> list[int]:
        return sorted(self._t)

    def entries(self):
        """The canonical form's (exponent, entry) pairs: int numerators over the one
        denominator, or coordinate tuples at the conductor; KeyedSum reads an
        entry together with the value it came from."""
        return self._t.items()

    def coeff(self, e: int) -> "Laurent":
        """The coefficient of v^e, a constant."""
        c = self._t.get(e)
        return L_ZERO if c is None else _entry(self, 0, c)

    def coords(self, e: int = 0) -> tuple[int, tuple]:
        """(N, coordinates) of the coefficient of v^e at this value's own conductor N.

        The coordinates are on the power basis 1, z, ..., z^{phi(N)-1}, each an
        int when integral and a Fraction otherwise; a rational coefficient of a
        rational value reads at N = 1.
        """
        c = self._t.get(e)
        if self._d or c is None:
            return 1, (_ratval(c or 0, self._d or 1),)
        n, d = self._nd
        return n, tuple([_ratval(x, d) for x in c])

    def as_rational(self) -> int | Fraction:
        """A rational constant as an int when integral, else as a Fraction."""
        t = self._t
        if not self._d or t.keys() - {0}:
            raise ValueError(f"not a rational constant: {self}")
        return _ratval(t.get(0, 0), self._d)

    # -- arithmetic

    def __add__(self, other: "Laurent") -> "Laurent":
        if not isinstance(other, Laurent):
            return NotImplemented
        ta, tb = self._t, other._t
        if not ta:
            return other
        if not tb:
            return self
        da, db = self._d, other._d
        if not (da and db):
            return _add_coords(self, other)
        if da == db:
            out = dict(ta)
            fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            da *= fa
            out = {e: n * fa for e, n in ta.items()}
        for e, n in tb.items():
            s = out.get(e)
            if s is None:
                out[e] = n * fb
            else:
                s += n * fb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _normal(out, da)

    def __neg__(self) -> "Laurent":
        if self._d:
            return _laurent({e: -n for e, n in self._t.items()}, self._d)
        return _cyclotomic({e: tuple(-x for x in c) for e, c in self._t.items()}, *self._nd)

    def __sub__(self, other: "Laurent") -> "Laurent":
        if type(other) is Laurent and not other._t:
            return self
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return self.scale(other)
        ta, tb = self._t, other._t
        if not ta or not tb:
            return L_ZERO
        da, db = self._d, other._d
        if len(ta) < len(tb):
            ta, tb, da, db = tb, ta, db, da
        if da and db:
            if len(tb) == 1:
                ((e, n),) = tb.items()
                return _mul_rational_monomial(ta, da, e, n, db)
            out: dict = {}
            get = out.get
            for e1, x1 in ta.items():
                for e2, x2 in tb.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + x1 * x2
            # products are never zero (Q(zeta_N)[v^+-1] is a domain); only sums cancel
            return _normal({e: n for e, n in out.items() if n}, da * db)
        return _mul_coords(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, x) -> "Laurent":
        t, d = self._t, self._d
        if type(x) is not int and not isinstance(x, Fraction):
            return self * Laurent.of(x)
        if not x or not t:
            return L_ZERO
        if not d:
            return _mul_coords(self, Laurent.v_pow(0, x))
        if type(x) is int:
            return _mul_rational_monomial(t, d, 0, x, 1)
        return _mul_rational_monomial(t, d, 0, x.numerator, x.denominator)

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative Laurent power; use exact_div")
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self) -> "Laurent":
        """v -> v^-1 together with cyclotomic conjugation of coefficients."""
        if self._d:
            return self.bar_q()
        n, d = self._nd
        # zeta_N -> zeta_N^-1 is a ring automorphism of Z[zeta_N]: the content, hence d, is unchanged
        return _cyclotomic({-e: _root_power(n, c, -1) for e, c in self._t.items()}, n, d)

    def bar_q(self) -> "Laurent":
        """v -> v^-1 only; coefficients untouched (the antipode on values)."""
        return self.with_entries({-e: c for e, c in self._t.items()})

    def subs_pow(self, m: int) -> "Laurent":
        """q -> q^m, i.e. scale every v-exponent by m (m != 0)."""
        if m == 0:
            raise ValueError("q -> q^0 collapses the ring")
        if m == 1:
            return self
        return self.with_entries({e * m: c for e, c in self._t.items()})

    def with_entries(self, terms: dict) -> "Laurent":
        """The same form, denominator and conductor with the entries moved: terms maps new
        exponents to this value's entries, each entry once, so the result is canonical too."""
        return _laurent(terms, self._d) if self._d else _cyclotomic(terms, *self._nd)

    def inverse(self) -> "Laurent":
        """1/(c v^e) for a monomial c v^e: v^-e prod_{s != 1} sigma_s(c) / Norm(c).

        s runs over (Z/N)^* with sigma_s: zeta_N -> zeta_N^s; the norm, the
        product of every conjugate, is a nonzero rational.
        """
        t = self._t
        if len(t) != 1:
            if not t:
                raise ZeroDivisionError("inverse of zero")
            raise ValueError(f"inverse needs a monomial, got {self}")
        ((e, x),) = t.items()
        if self._d:  # gcd(x, d) == 1, so d/x is canonical once the sign moves up
            return _laurent({-e: self._d if x > 0 else -self._d}, abs(x))
        n, d = self._nd
        p = L_ONE
        for s in range(2, n):
            if gcd(s, n) == 1:
                # a field automorphism maps Z[zeta_N] onto itself: the content, hence d, is unchanged
                p = p * _cyclotomic({0: _root_power(n, x, s)}, n, d)
        norm = _cyclotomic({0: x}, n, d) * p
        return Laurent.v_pow(-e, p.scale(Fraction(norm._d, norm._t[0])))

    def exact_div(self, den: "Laurent") -> "Laurent":
        """Exact quotient self/den; raises if the division leaves a remainder."""
        if den.is_zero:
            raise ZeroDivisionError
        if self.is_zero:
            return Laurent.zero()
        dmax = max(den._t)
        emin = min(self._t) - min(den._t)  # lowest possible quotient exponent
        lead_inv = den.coeff(dmax).inverse()
        rem, out = self, L_ZERO
        while rem._t:
            top = max(rem._t)
            if top - dmax < emin:
                raise ArithmeticError("inexact Laurent division")
            term = Laurent.v_pow(top - dmax, rem.coeff(top) * lead_inv)
            out, rem = out + term, rem - term * den
            if top in rem._t:  # exact arithmetic cancels each leading term, so top falls every step
                raise ArithmeticError(f"leading term at v^{top} did not cancel")
        return out

    def eval_real(self, t: float) -> complex:
        """Substitute v = sqrt(t) (t > 0) and zeta_N = exp(2*pi*i/N)."""
        if t <= 0:
            raise ValueError("real evaluation needs t > 0")
        v = t**0.5
        return sum(_eval_complex(*_minimal(*self.coords(e))) * v**e for e in self._t)

    # -- comparison / io

    def __eq__(self, other):
        if type(other) is not Laurent:
            if isinstance(other, (int, Fraction)):
                other = Laurent.of(other)
            elif not isinstance(other, Laurent):
                return NotImplemented
        if self._d or other._d:
            return self._d == other._d and self._t == other._t
        (na, da), (nb, db) = self._nd, other._nd
        # the content of a value does not depend on its conductor, so equal values share d
        m = lcm(na, nb)
        return da == db and _lift_terms(na, m, self._t) == _lift_terms(nb, m, other._t)

    def __hash__(self):
        t, d = self._t, self._d
        if d and (not t or len(t) == 1 and 0 in t):
            # == accepts an int or a Fraction, so a rational constant hashes as that number
            return hash(t.get(0, 0) if d == 1 else Fraction(t[0], d))
        # coordinates depend on the conductor, so only the support is hashed in the cyclotomic form
        return hash((d, frozenset(t.items()) if d else frozenset(t)))

    def __repr__(self):
        return laurent_str(self)

    def to_obj(self):
        return [[e, coeff_obj(*_minimal(*self.coords(e)))] for e in self.support()]


_set_t = Laurent._t.__set__
_set_d = Laurent._d.__set__
_set_nd = Laurent._nd.__set__


def _laurent(terms: dict, d: int) -> Laurent:
    """Rational Laurent from fields already in canonical form."""
    out = _new(Laurent)
    _set_t(out, terms)
    _set_d(out, d)
    return out


def _cyclotomic(terms: dict, n: int, d: int) -> Laurent:
    """The cyclotomic form from coordinate tuples at conductor n over d, already in canonical form."""
    out = _new(Laurent)
    _set_t(out, terms)
    _set_d(out, 0)
    _set_nd(out, (n, d))
    return out


def _ratval(n: int, d: int):
    """n/d as an int when integral, else as a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def _normal(nums: dict, d: int) -> Laurent:
    """Rational form of nonzero int numerators over d > 0, divided by their common gcd."""
    if d == 1:
        return _laurent(nums, 1)
    g = gcd(d, *nums.values())
    if g != 1:
        d //= g
        nums = {e: n // g for e, n in nums.items()}
    return _laurent(nums, d)


def _mul_rational_monomial(t: dict, d: int, e0: int, p: int, q: int) -> Laurent:
    """(t/d) * (p/q) v^e0 in rational form, for p != 0 and gcd(p, q) == 1.

    gcd(d, *t) == 1 and gcd(p, q) == 1, so the product's numerators share with
    d*q exactly gcd(q, *t) * gcd(p, d): two gcds, no reduction per coefficient.
    """
    g = gcd(q, *t.values()) if q != 1 else 1
    h = gcd(p, d) if d != 1 else 1
    if h != 1:
        p //= h
        d //= h
    if g != 1:
        q //= g
        return _laurent({e + e0: n // g * p for e, n in t.items()}, d * q)
    if p == 1:
        return _laurent({e + e0: n for e, n in t.items()} if e0 else t, d * q)
    return _laurent({e + e0: n * p for e, n in t.items()}, d * q)


# -- the coordinate kernel: every sum or product with a cyclotomic operand


def _field(f: Laurent) -> tuple[int, int]:
    """(conductor, denominator) of either form; the rational form is conductor 1."""
    return (1, f._d) if f._d else f._nd


def _terms_at(t: dict, n: int, m: int) -> dict:
    """Entries t at conductor n (n == 1: int numerators) as coordinate tuples at m, a multiple of n."""
    if n == 1:
        pad = (0,) * (_euler_phi(m) - 1)
        return {e: (k,) + pad for e, k in t.items()}
    return _lift_terms(n, m, t)


def _lift_terms(n: int, m: int, t: dict) -> dict:
    return t if n == m else {e: _lift(n, m, c) for e, c in t.items()}


def _settle(terms: dict, n: int, d: int) -> Laurent:
    """Canonical Laurent from nonzero coordinate tuples at conductor n over d > 0."""
    for c in terms.values():
        if any(c[1:]):
            break
    else:  # no irrational coordinate left
        return _normal({e: c[0] for e, c in terms.items()}, d)
    if d != 1:
        g = d
        for c in terms.values():
            g = gcd(g, *c)
            if g == 1:
                break
        else:
            d //= g
            terms = {e: tuple([x // g for x in c]) for e, c in terms.items()}
    return _cyclotomic(terms, n, d)


def _scale_coords(t: dict, n: int, d: int, rt: dict, rd: int) -> Laurent:
    """Coordinates t at conductor n over d times the rational form rt over rd."""
    if len(rt) == 1:
        ((e0, k),) = rt.items()
        return _settle({e + e0: tuple([k * x for x in c]) for e, c in t.items()}, n, d * rd)
    acc: dict[int, list[int]] = {}
    for e0, k in rt.items():
        for e, c in t.items():
            p = acc.get(e + e0)
            if p is None:
                acc[e + e0] = [k * x for x in c]
            else:
                for j, x in enumerate(c):
                    p[j] += k * x
    return _settle({e: tuple(p) for e, p in acc.items() if any(p)}, n, d * rd)


def _mul_coords(a: Laurent, b: Laurent) -> Laurent:
    """a * b with a cyclotomic operand.

    A rational operand scales the other's coordinates by its numerators.  Two
    cyclotomic operands lift to the lcm conductor m, convolve their tuples per
    exponent and reduce each sum once with the rows of x^k mod Phi_m.
    """
    if a._d or b._d:
        r, f = (a, b) if a._d else (b, a)
        return _scale_coords(f._t, *f._nd, r._t, r._d)
    (na, da), (nb, db) = a._nd, b._nd
    ta, tb, m = a._t, b._t, na
    if na != nb:
        m = lcm(na, nb)
        ta, tb = _lift_terms(na, m, ta), _lift_terms(nb, m, tb)
    return _settle(_convolve(ta, tb, m), m, da * db)


def _convolve(ta: dict, tb: dict, m: int) -> dict:
    """The product of coordinate tuples ta and tb at conductor m, per exponent e1 + e2.

    Each exponent's sum of products is reduced once with the rows of x^k mod
    Phi_m; sums that vanish are dropped, and nothing is normalised.
    """
    rows = _reduction_rows(m)
    deg = len(rows[0])
    acc: dict[int, list[int]] = {}
    for e1, x in ta.items():
        for e2, y in tb.items():
            p = acc.get(e1 + e2)
            if p is None:
                p = acc[e1 + e2] = [0] * (2 * deg - 1)
            for i, u in enumerate(x):
                if u:
                    for j, w in enumerate(y, i):
                        p[j] += u * w
    out = {}
    for e, p in acc.items():
        for k in range(deg, 2 * deg - 1):
            u = p[k]
            if u:
                for j, w in enumerate(rows[k - deg]):
                    p[j] += u * w
        c = tuple(p[:deg])
        if any(c):
            out[e] = c
    return out


def _add_coords(a: Laurent, b: Laurent) -> Laurent:
    """a + b with a cyclotomic operand: lift to the lcm conductor, align denominators once."""
    (na, da), (nb, db) = _field(a), _field(b)
    m = lcm(na, nb)
    ta, tb = _terms_at(a._t, na, m), _terms_at(b._t, nb, m)
    g = gcd(da, db)
    fa, fb = db // g, da // g
    out = {e: tuple([x * fa for x in c]) for e, c in ta.items()} if fa != 1 else dict(ta)
    for e, c in tb.items():
        s = out.get(e)
        if s is None:
            out[e] = tuple([x * fb for x in c]) if fb != 1 else c
        else:
            s = tuple(map(add, s, c)) if fb == 1 else tuple([x + y * fb for x, y in zip(s, c)])
            if any(s):
                out[e] = s
            else:
                del out[e]
    return _settle(out, m, da * fa)


def _minimal(n: int, c: tuple) -> tuple[int, tuple]:
    """(m, coordinates at m) of the value with coordinates c at conductor n, for the least
    conductor m whose field holds it; a rational value reads at m = 1."""
    if not any(c[1:]):
        return 1, c[:1]
    for m in range(3, n):
        # Q(zeta_m) = Q(zeta_{m/2}) for m = 2 mod 4, already tried
        if n % m == 0 and m % 4 != 2:
            a = _descend(n, m, c)
            if a is not None:
                return m, a
    return n, c


def _descend(n: int, m: int, c: tuple) -> tuple | None:
    """Coordinates at conductor m (m | n) of the value with coordinates c at n, or None outside Q(zeta_m).

    Solves sum_j a_j lift(zeta_m^j) = c by elimination; the lift is injective.
    Each coordinate reads as an int when integral, else as a Fraction.
    """
    k = _euler_phi(m)
    rows = [[Fraction(x) for x in _lift(m, n, (0,) * j + (1,))] for j in range(k)]
    eqs = [[row[p] for row in rows] + [Fraction(c[p])] for p in range(len(c))]
    for j in range(k):
        piv = next(i for i in range(j, len(eqs)) if eqs[i][j])
        eqs[j], eqs[piv] = eqs[piv], eqs[j]
        top = [x / eqs[j][j] for x in eqs[j]]
        eqs[j] = top
        for i, eq in enumerate(eqs):
            if i != j and eq[j]:
                eqs[i] = [x - eq[j] * y for x, y in zip(eq, top)]
    if any(eq[k] for eq in eqs[k:]):
        return None
    return tuple(x.numerator if x.denominator == 1 else x for x in (eq[k] for eq in eqs[:k]))


def _eval_complex(n: int, c: tuple) -> complex:
    if n == 1:
        return complex(c[0])
    w = cmath.exp(2j * cmath.pi / n)
    return sum(complex(x) * w**i for i, x in enumerate(c) if x)


def coeff_str(n: int, c: tuple) -> str:
    """Text of the coefficient with coordinates c at conductor n (as ``coords`` gives them)."""
    if n == 1:
        return str(c[0])
    return " + ".join(f"{x}*z{n}^{i}" if i else str(x) for i, x in enumerate(c) if x)


def coeff_obj(n: int, c: tuple) -> list:
    """JSON form [n, [[i, "x_i"], ...]] of the same coefficient, nonzero coordinates only."""
    return [n, [[i, str(x)] for i, x in enumerate(c) if x]]


# -- keyed values: the coefficients of a Fock vector


def _entry(src: Laurent, e, x) -> Laurent:
    """The canonical Laurent x v^e, for x a numerator (or coordinate tuple) of src."""
    return _normal({e: x}, src._d) if src._d else _settle({e: x}, *src._nd)


class KeyedSum:
    """A sum of products placed at (key, v-exponent) pairs, normalised once.

    The running entries share one denominator ``d`` and one conductor ``n``,
    the two forms of Laurent: int numerators while every product is rational
    (n == 1), coordinate tuples at the lcm conductor once a cyclotomic one
    arrives.  A product whose denominator does not divide d rescales the
    entries once; an entry that cancels is dropped at once.  ``value()``
    ends the sum: it is the canonical Laurent whose exponents are the
    (key, e) pairs.  Laurent's sum, negation and equality never read an
    exponent, so they serve such keyed values unchanged.
    """

    __slots__ = ("t", "n", "d")

    def __init__(self):
        self.t: dict = {}
        self.n = 1
        self.d = 1

    def add(self, key, e0: int, src: Laurent, x, f: Laurent, k: int = 1) -> None:
        """Add k (x v^e0) f at key, for x a numerator (or coordinate tuple) of src and an int k."""
        q = src._d
        if q:  # a rational entry scales f's own entries
            tp, m = f._t, x * k
            if f._d:
                n = 1
                q *= f._d
            else:
                n, fd = f._nd
                q *= fd
        else:  # a cyclotomic entry is convolved with f's coordinates
            (sn, sd), (fn, fd) = src._nd, _field(f)
            n = lcm(sn, fn)
            tp = _convolve(_lift_terms(sn, n, {0: x}), _terms_at(f._t, fn, n), n)
            q, m = sd * fd, k
        t = self.t
        if n == 1 and self.n == 1:
            d = self.d
            m *= d // q if not d % q else self._align(q)
            for e, y in tp.items():
                key2 = (key, e0 + e)
                s = t.get(key2, 0) + m * y
                if s:
                    t[key2] = s
                else:
                    del t[key2]
            return
        c_n = lcm(self.n, n)
        if c_n != self.n:
            self.t = t = _terms_at(t, self.n, c_n)
            self.n = c_n
        m *= self._align(q)
        for e, c in _terms_at(tp, n, c_n).items():
            key2 = (key, e0 + e)
            if m != 1:
                c = tuple([m * y for y in c])
            s = t.get(key2)
            if s is None:
                t[key2] = c
            else:
                s = tuple(map(add, s, c))
                if any(s):
                    t[key2] = s
                else:
                    del t[key2]

    def add_all(self, p: Laurent, e0: int, src: Laurent, x) -> None:
        """Add the keyed value p times x v^e0, for x a numerator (or coordinate tuple) of src."""
        pd, sd = p._d, src._d
        if pd and sd and self.n == 1:
            q = pd * sd
            d = self.d
            m = x * (d // q if not d % q else self._align(q))
            t = self.t
            for (key, e), y in p._t.items():
                key2 = (key, e + e0)
                s = t.get(key2, 0) + m * y
                if s:
                    t[key2] = s
                else:
                    del t[key2]
        else:
            c = _entry(src, e0, x)
            for (key, e), y in p._t.items():
                self.add(key, e, p, y, c)

    def add_product(self, p: Laurent, c: Laurent) -> None:
        """Add the keyed value p times the Laurent c."""
        for e, x in c._t.items():
            self.add_all(p, e, c, x)

    def _align(self, q: int) -> int:
        """Make q divide the running denominator; return the factor d / q."""
        d = self.d
        if d % q:
            m = q // gcd(d, q)
            t = self.t
            if self.n == 1:
                for key in t:
                    t[key] *= m
            else:
                for key, c in t.items():
                    t[key] = tuple([x * m for x in c])
            self.d = d = d * m
        return d // q

    def value(self) -> Laurent:
        if self.n == 1:
            return _normal(self.t, self.d)
        return _settle(self.t, self.n, self.d)


def keyed_times(p: Laurent, e0: int, src: Laurent, x) -> Laurent:
    """The keyed value p times x v^e0, for x a numerator (or coordinate tuple) of src."""
    if not p._t or x == 1 and src._d == 1 and not e0:
        return p
    acc = KeyedSum()
    acc.add_all(p, e0, src, x)
    return acc.value()


def keyed_product(p: Laurent, c: Laurent) -> Laurent:
    """The keyed value p times the Laurent c."""
    if len(c._t) == 1:
        ((e0, x),) = c._t.items()
        return keyed_times(p, e0, c, x)
    acc = KeyedSum()
    acc.add_product(p, c)
    return acc.value()


def keyed_parts(f: Laurent, split=None) -> dict:
    """The keyed value f split into canonical parts: {part: Laurent}.

    split maps an exponent (key, e) of f to (part, exponent within the part);
    by default the parts are f's keys and each is a Laurent in v.
    """
    parts: dict = {}
    for ke, x in f._t.items():
        part, e = ke if split is None else split(ke)
        parts.setdefault(part, {})[e] = x
    if f._d:
        return {part: _normal(t, f._d) for part, t in parts.items()}
    return {part: _settle(t, *f._nd) for part, t in parts.items()}


def laurent_str(f: Laurent) -> str:
    """Human rendering; integral q-powers print in q, otherwise fall back to v."""
    if f.is_zero:
        return "0"
    use_q = all(e % 2 == 0 for e in f._t)
    sym, div = ("q", 2) if use_q else ("v", 1)
    parts = []
    for e in sorted(f._t, reverse=True):
        cs = coeff_str(*_minimal(*f.coords(e)))
        if "+" in cs or ("-" in cs[1:]) or "*" in cs:
            cs = f"({cs})"
        p = e // div
        if p == 0:
            parts.append(cs)
        else:
            mon = sym if p == 1 else f"{sym}^{p}"
            parts.append(mon if cs == "1" else f"-{mon}" if cs == "-1" else f"{cs}*{mon}")
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


L_ZERO = Laurent.zero()
L_ONE = Laurent.one()
L_Q = Laurent.q_pow(1)
L_QINV = Laurent.q_pow(-1)


class Cyclo:
    """No instances: read only by perfbench/, whose workloads call ``Cyclo.root`` and whose tracer wraps ``__mul__``."""

    root = staticmethod(Laurent.root)
    __mul__ = __rmul__ = Laurent.__mul__


def qint(n: int) -> Laurent:
    """[n] = (q^n - q^-n)/(q - q^-1) = q^{n-1} + q^{n-3} + ... + q^{-n+1}."""
    if n == 0:
        return Laurent.zero()
    if n < 0:
        return -qint(-n)
    return _laurent({2 * e: 1 for e in range(-(n - 1), n, 2)}, 1)


def qfact(n: int) -> Laurent:
    out = Laurent.one()
    for k in range(1, n + 1):
        out = out * qint(k)
    return out


def qbinom(a: int, m: int) -> Laurent:
    """Gaussian binomial [a; m] for integer a (possibly negative), m >= 0."""
    if m < 0:
        raise ValueError("m >= 0 required")
    num = Laurent.one()
    for i in range(m):
        num = num * qint(a - i)
    return num.exact_div(qfact(m))


def eval_at_one(f: Laurent) -> Laurent:
    """Exact specialisation v = 1 (hence q = 1), a constant."""
    if f._d:
        s = sum(f._t.values())
        return _normal({0: s} if s else {}, f._d)
    c = tuple(map(sum, zip(*f._t.values())))
    return _settle({0: c} if any(c) else {}, *f._nd)


# --------------------------------------------------------------------------
# truncated power series with Laurent coefficients


class TruncSeries:
    """Dense series sum_{m=0..order} coeffs[m] z^m, arithmetic closed at order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs) if coeffs is not None else []
        cs = cs[: order + 1]
        cs += [L_ZERO] * (order + 1 - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TruncSeries is immutable")

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries(order, [L_ONE])

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        return TruncSeries(d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        return TruncSeries(d, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        out = [L_ZERO] * (d + 1)
        for i, a in enumerate(self.coeffs[: d + 1]):
            if a.is_zero:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(d, out)

    def scale(self, x) -> "TruncSeries":
        f = x if isinstance(x, Laurent) else Laurent.of(x)
        return TruncSeries(self.order, [c * f for c in self.coeffs])

    def shift_var(self, s: Laurent) -> "TruncSeries":
        """Substitute z -> s*z for a Laurent scalar s."""
        out, p = [], L_ONE
        for c in self.coeffs:
            out.append(c * p)
            p = p * s
        return TruncSeries(self.order, out)

    def inverse(self) -> "TruncSeries":
        """Needs a monomial constant term (Laurent.inverse)."""
        inv0 = self.coeffs[0].inverse()
        out = [inv0]
        for m in range(1, self.order + 1):
            acc = L_ZERO
            for j in range(1, m + 1):
                acc = acc + self.coeffs[j] * out[m - j]
            out.append(-(inv0 * acc))
        return TruncSeries(self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        d = min(self.order, other.order)
        return self.coeffs[: d + 1] == other.coeffs[: d + 1]

    def __hash__(self):
        # equality compares only the common prefix, so hash what every order keeps
        return hash(self.coeffs[0])

    def __repr__(self):
        terms = [f"({laurent_str(c)})*z^{m}" for m, c in enumerate(self.coeffs) if not c.is_zero]
        return " + ".join(terms) if terms else "0"


def series_exp(exponent: TruncSeries) -> TruncSeries:
    """exp of a series with vanishing constant term, via E' = F' E."""
    if not exponent.coeffs[0].is_zero:
        raise ValueError("exp needs zero constant term")
    d = exponent.order
    out = [L_ONE] + [L_ZERO] * d
    for m in range(1, d + 1):
        acc = L_ZERO
        for j in range(1, m + 1):
            acc = acc + exponent.coeffs[j].scale(j) * out[m - j]
        out[m] = acc.scale(Fraction(1, m))
    return TruncSeries(d, out)
