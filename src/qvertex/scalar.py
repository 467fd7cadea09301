"""Exact arithmetic kernel.

Everything downstream computes with elements of (cyclotomic rationals)[v, v^-1]
where v^2 = q.  Working in the half-power v keeps every exponent integral even
when operators contribute q^{1/2}-shifts.  The kernel has three layers:

  * Cyclo        -- an element of Q[x]/Phi_N(x), x mapped to a primitive N-th
                    root of unity; rationals are the N = 1 case.
  * Laurent      -- finitely supported map (v-exponent -> element of Q(zeta_N)).
  * TruncSeries  -- dense truncated power series in one auxiliary variable
                    with Laurent coefficients.

Representation.  A Cyclo is canonical: reduced modulo Phi_N, and normalised to
conductor N = 1 whenever its value is rational.  A rational value is stored as
a Python ``int`` when it is integral and as a ``Fraction`` otherwise, so
``as_rational()`` returns ``int | Fraction`` (the two compare and hash equal).
A Laurent takes one of two canonical forms, decided by its value alone.  When
every coefficient is rational (zero included) it holds integer numerators over
one shared denominator d > 0, reduced so that gcd(d, *numerators) == 1; sums
and products run on plain ints and normalise once per result, with no Fraction
per coefficient.  Otherwise it maps exponents to nonzero Cyclo coefficients.
A result of cyclotomic operands whose irrational parts cancel returns to the
rational form.  ``Laurent.t`` reads either form as {exponent: Cyclo}.

All values are immutable after construction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm


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


class Cyclo:
    """Element of Q[x]/Phi_N represented on the power basis 1, z, ..., z^{phi(N)-1}.

    Purely rational values are normalised to conductor 1, integral ones stored
    as int, so that plain int / Fraction arithmetic handles the common case.
    """

    __slots__ = ("N", "c")

    def __init__(self, n: int, coeffs, _reduced: bool = False):
        if not _reduced:
            coeffs = _reduce_mod_phi(n, list(coeffs))
        if n > 1 and not any(coeffs[1:]):
            n = 1
        if n == 1:
            coeffs = (_integral(coeffs[0]),)
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "c", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclo is immutable")

    # -- constructors

    @staticmethod
    def rational(x) -> "Cyclo":
        if type(x) is not int and not isinstance(x, Fraction):
            x = Fraction(x)
        return _rat(x)

    @staticmethod
    def root(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k."""
        k %= n
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return Cyclo(n, coeffs)

    # -- structure

    @property
    def is_zero(self) -> bool:
        return self.N == 1 and not self.c[0]  # zero is rational, hence conductor 1

    @property
    def is_rational(self) -> bool:
        return self.N == 1

    def as_rational(self) -> int | Fraction:
        if self.N != 1:
            raise ValueError(f"not a rational value: {self}")
        return self.c[0]

    def _lift_coeffs(self, m: int) -> tuple[Fraction, ...]:
        """Raw coefficient vector of self at conductor m (self.N | m)."""
        if m == self.N:
            return self.c
        if m % self.N:
            raise ValueError("conductor must be a multiple")
        step = m // self.N
        out = [0] * (max(step * (len(self.c) - 1), 0) + 1)
        for i, x in enumerate(self.c):
            if x:
                out[step * i] += x
        return _reduce_mod_phi(m, out)

    def _match(self, other: "Cyclo") -> tuple[int, tuple, tuple]:
        if self.N == other.N:
            return self.N, self.c, other.c
        m = self.N * other.N // gcd(self.N, other.N)
        return m, self._lift_coeffs(m), other._lift_coeffs(m)

    # -- arithmetic

    def __add__(self, other):
        if type(other) is not Cyclo:
            other = _as_cyclo(other)
        if self.N == 1 and other.N == 1:
            return _rat(self.c[0] + other.c[0])
        n, ca, cb = self._match(other)
        return Cyclo(n, tuple(x + y for x, y in zip(ca, cb)), _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        if self.N == 1:
            return _rat(-self.c[0])
        return _cyclo(self.N, tuple(-x for x in self.c))

    def __sub__(self, other):
        return self + (-_as_cyclo(other))

    def __rsub__(self, other):
        return _as_cyclo(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Cyclo:
            other = _as_cyclo(other)
        if self.N == 1 and other.N == 1:
            return _rat(self.c[0] * other.c[0])
        if self.N == 1 or other.N == 1:
            # a nonzero rational times an irrational value stays irrational
            x, irr = (self.c[0], other) if self.N == 1 else (other.c[0], self)
            return _cyclo(irr.N, tuple(x * y for y in irr.c)) if x else CYC_ZERO
        n, ca, cb = self._match(other)
        prod = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] += x * y
        return Cyclo(n, _reduce_mod_phi(n, prod), _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        if self.N == 1:
            return _rat(1 / Fraction(self.c[0]))
        # extended Euclid on (self, Phi_N) over Q[x]
        phi = _cyclotomic_poly(self.N)
        r0, r1 = [Fraction(x) for x in phi], [Fraction(x) for x in self.c]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0]:
            while len(r1) > 1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1 and r1[0]:
                inv = 1 / r1[0]
                return Cyclo(self.N, [x * inv for x in s1])
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(rem) - len(r1), -1, -1):
                c = rem[i + len(r1) - 1] / r1[-1]
                q[i] = c
                if c:
                    for j, d in enumerate(r1):
                        rem[i + j] -= c * d
            while len(rem) > 1 and not rem[-1]:
                rem.pop()
            # s_new = s0 - q*s1
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs[i + j] += x * y
            s_new = [Fraction(0)] * max(len(s0), len(qs))
            for i, x in enumerate(s0):
                s_new[i] += x
            for i, x in enumerate(qs):
                s_new[i] -= x
            r0, r1, s0, s1 = r1, rem, s1, s_new
        raise ZeroDivisionError("not invertible")  # pragma: no cover

    def subst_root_power(self, s: int) -> "Cyclo":
        """Apply the field map zeta_N -> zeta_N^s (s coprime to N)."""
        if self.N == 1:
            return self
        out = [0] * (((self.N - 1) * (len(self.c) - 1)) + 1)
        for i, x in enumerate(self.c):
            if x:
                out[(s * i) % self.N] += x
        return Cyclo(self.N, out)

    def conj(self) -> "Cyclo":
        """zeta_N -> zeta_N^{-1} (complex conjugation)."""
        if self.N == 1:
            return self
        return self.subst_root_power(self.N - 1)

    def eval_complex(self) -> complex:
        if self.N == 1:
            return complex(self.c[0])
        w = cmath.exp(2j * cmath.pi / self.N)
        return sum(complex(x) * w**i for i, x in enumerate(self.c) if x)

    # -- comparison / io

    def __eq__(self, other):
        if type(other) is not Cyclo:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_cyclo(other)
        if self.N == other.N:
            return self.c == other.c
        n, ca, cb = self._match(other)
        return ca == cb

    def __hash__(self):
        # equal values may sit at different conductors; the normalised trace does not
        # depend on the conductor, and it is the value itself when that is rational
        if self.N == 1:
            return hash(self.c[0])
        return hash(_normalised_trace(self.N, self.c))

    def __repr__(self):
        if self.N == 1:
            return str(self.c[0])
        parts = []
        for i, x in enumerate(self.c):
            if x:
                parts.append(f"{x}*z{self.N}^{i}" if i else str(x))
        return " + ".join(parts) if parts else "0"

    def to_obj(self):
        return [self.N, [[i, str(x)] for i, x in enumerate(self.c) if x]]

    @staticmethod
    def from_obj(obj) -> "Cyclo":
        n, pairs = obj
        coeffs = [Fraction(0)] * _euler_phi(n)
        for i, x in pairs:
            coeffs[i] = Fraction(x)
        return Cyclo(n, coeffs)


def _normalised_trace(n: int, coeffs: tuple) -> Fraction:
    """Tr(x)/phi(n) for x = sum_k coeffs[k] zeta_n^k in Q(zeta_n).

    zeta_n^k is a primitive m-th root of unity, m = n / gcd(n, k), with trace
    mu(m) phi(n)/phi(m); mu(m), the sum of the primitive m-th roots, is minus
    the x^{phi(m)-1} coefficient of Phi_m.
    """
    acc = Fraction(0)
    for k, x in enumerate(coeffs):
        if x:
            m = n // gcd(n, k)
            acc += Fraction(-_cyclotomic_poly(m)[-2] * x, _euler_phi(m))
    return acc


def _as_cyclo(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if type(x) is int:
        return _rat(x)
    if isinstance(x, float):
        raise TypeError("floats are not exact; use Fraction")
    return Cyclo.rational(x)


def _integral(x):
    """x as an int when it is an integral Fraction, else unchanged."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


_new = object.__new__
_set_N = Cyclo.N.__set__
_set_c = Cyclo.c.__set__


def _cyclo(n: int, coeffs: tuple) -> Cyclo:
    """Cyclo from a coefficient tuple already in canonical form at conductor n > 1."""
    out = _new(Cyclo)
    _set_N(out, n)
    _set_c(out, coeffs)
    return out


def _rat(x) -> Cyclo:
    """Conductor-1 Cyclo from an int or Fraction; an integral value is kept as int."""
    if type(x) is not int and x.denominator == 1:
        x = x.numerator
    out = _new(Cyclo)
    _set_N(out, 1)
    _set_c(out, (x,))
    return out


CYC_ZERO = Cyclo.rational(0)
CYC_ONE = Cyclo.rational(1)


# --------------------------------------------------------------------------
# Laurent scalars in v, with v^2 = q


class Laurent:
    """Finitely supported map v-exponent -> Q(zeta_N); v^2 = q.

    Integer q-powers sit at even v-exponents; the q^{1/2}-shifts of vertex
    operator calculus occupy the odd ones.  The value picks one of two
    canonical forms:

      * rational (``_d > 0``): ``_t`` maps exponents to nonzero int numerators
        over the one denominator ``_d``, with gcd(_d, *numerators) == 1;
      * cyclotomic (``_d == 0``): ``_t`` maps exponents to nonzero Cyclo
        coefficients, at least one of them irrational.

    ``t`` is the read-only view {exponent: Cyclo} in either form.
    """

    __slots__ = ("_t", "_d")

    def __init__(self, terms: dict[int, Cyclo] | None = None):
        f = _from_cyclos({} if terms is None else {e: c for e, c in terms.items() if not c.is_zero})
        _set_t(self, f._t)
        _set_d(self, f._d)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Laurent is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "Laurent":
        return _laurent({}, 1)

    @staticmethod
    def of(x) -> "Laurent":
        """Constant scalar from int / Fraction / Cyclo."""
        return Laurent.v_pow(0, x)

    @staticmethod
    def one() -> "Laurent":
        return _laurent({0: 1}, 1)

    @staticmethod
    def v_pow(e: int, coeff=1) -> "Laurent":
        if type(coeff) is not int and not isinstance(coeff, Fraction):
            c = _as_cyclo(coeff)
            if c.N != 1:
                return _laurent({e: c}, 0)
            coeff = c.c[0]
        if type(coeff) is int:
            return _laurent({e: coeff} if coeff else {}, 1)
        return _laurent({e: coeff.numerator} if coeff else {}, coeff.denominator)

    @staticmethod
    def q_pow(k: int, coeff=1) -> "Laurent":
        return Laurent.v_pow(2 * k, coeff)

    # -- inspection

    @property
    def t(self) -> dict[int, Cyclo]:
        """The coefficients as {v-exponent: Cyclo}; read-only."""
        d = self._d
        if not d:
            return self._t
        return {e: _rat(_ratval(n, d)) for e, n in self._t.items()}

    @property
    def is_zero(self) -> bool:
        return not self._t

    def support(self) -> list[int]:
        return sorted(self._t)

    def coeff(self, e: int) -> Cyclo:
        c = self._t.get(e)
        if c is None:
            return CYC_ZERO
        return _rat(_ratval(c, self._d)) if self._d else c

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
        if not da:
            return _add_cyclo(ta, tb) if not db else _add_rational(ta, tb, db)
        if not db:
            return _add_rational(tb, ta, da)
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
        return _laurent({e: -c for e, c in self._t.items()}, 0)

    def __sub__(self, other: "Laurent") -> "Laurent":
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
        if da:
            return _mul_by_rational(tb, ta, da)
        if db:
            return _mul_by_rational(ta, tb, db)
        if len(tb) == 1:
            ((e0, c0),) = tb.items()
            return _from_cyclos({e + e0: c * c0 for e, c in ta.items()})
        out = {}
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = e1 + e2
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return _from_cyclos({e: c for e, c in out.items() if not c.is_zero})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, x) -> "Laurent":
        t, d = self._t, self._d
        if type(x) is not int and not isinstance(x, Fraction):
            c = _as_cyclo(x)
            if c.N == 1:
                x = c.c[0]
            elif not t:
                return L_ZERO
            elif d:
                return _mul_by_rational({0: c}, t, d)
            else:
                return _from_cyclos({e: y * c for e, y in t.items()})
        if not x or not t:
            return L_ZERO
        if not d:
            return _laurent(_scale_cyclos(t, 0, x), 0)
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
        return _laurent({-e: c.conj() for e, c in self._t.items()}, 0)

    def bar_q(self) -> "Laurent":
        """v -> v^-1 only; coefficients untouched (the antipode on values)."""
        return _laurent({-e: c for e, c in self._t.items()}, self._d)

    def subs_pow(self, m: int) -> "Laurent":
        """q -> q^m, i.e. scale every v-exponent by m (m != 0)."""
        if m == 0:
            raise ValueError("q -> q^0 collapses the ring")
        if m == 1:
            return self
        return _laurent({e * m: c for e, c in self._t.items()}, self._d)

    def exact_div(self, den: "Laurent") -> "Laurent":
        """Exact quotient self/den; raises if the division leaves a remainder."""
        if den.is_zero:
            raise ZeroDivisionError
        if self.is_zero:
            return Laurent.zero()
        dt = den.t
        dmin, dmax = min(dt), max(dt)
        emin = min(self._t) - dmin  # lowest possible quotient exponent
        lead_inv = dt[dmax].inverse()
        rem = self.t.copy()
        out: dict[int, Cyclo] = {}
        while rem:
            e = max(rem) - dmax
            if e < emin:
                raise ArithmeticError("inexact Laurent division")
            c = rem[max(rem)] * lead_inv
            out[e] = out.get(e, CYC_ZERO) + c
            for de, dc in dt.items():
                k = e + de
                s = rem.get(k, CYC_ZERO) - c * dc
                if s.is_zero:
                    rem.pop(k, None)
                else:
                    rem[k] = s
        return Laurent(out)

    def eval_real(self, t: float) -> complex:
        """Substitute v = sqrt(t) (t > 0) and zeta_N = exp(2*pi*i/N)."""
        if t <= 0:
            raise ValueError("real evaluation needs t > 0")
        v = t**0.5
        return sum(c.eval_complex() * v**e for e, c in self.t.items())

    # -- comparison / io

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.of(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._d == other._d and self._t == other._t

    def __hash__(self):
        t, d = self._t, self._d
        if d == 1 and (not t or len(t) == 1 and 0 in t):
            return hash(t.get(0, 0))  # == accepts an int, so an integral constant hashes as that int
        # a Cyclo hash costs a trace per coefficient, so only the support is hashed there
        return hash((d, frozenset(t.items()) if d else frozenset(t)))

    def __repr__(self):
        return laurent_str(self)

    def to_obj(self):
        return [[e, self.coeff(e).to_obj()] for e in self.support()]

    @staticmethod
    def from_obj(obj) -> "Laurent":
        return Laurent({e: Cyclo.from_obj(c) for e, c in obj})


_set_t = Laurent._t.__set__
_set_d = Laurent._d.__set__


def _laurent(terms: dict, d: int) -> Laurent:
    """Laurent from fields already in canonical form (d == 0: cyclotomic)."""
    out = _new(Laurent)
    _set_t(out, terms)
    _set_d(out, d)
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


def _from_cyclos(terms: dict) -> Laurent:
    """Canonical Laurent from nonzero Cyclo coefficients."""
    for c in terms.values():
        if c.N != 1:
            return _laurent(terms, 0)
    d = 1
    for c in terms.values():
        x = c.c[0]
        if type(x) is not int:
            d = lcm(d, x.denominator)
    # d is the lcm of reduced denominators, so no prime divides d and every numerator
    nums = {}
    for e, c in terms.items():
        x = c.c[0]
        nums[e] = x * d if type(x) is int else x.numerator * (d // x.denominator)
    return _laurent(nums, d)


def _cyclo_times(c: Cyclo, x) -> Cyclo:
    """Irrational c times a nonzero int or Fraction x."""
    return _cyclo(c.N, tuple(x * y if y else 0 for y in c.c))


def _scale_cyclos(terms: dict, e0: int, x) -> dict:
    """{e + e0: c * x} for Cyclo coefficients and a nonzero int or Fraction x."""
    if x == 1:
        return {e + e0: c for e, c in terms.items()} if e0 else terms
    return {e + e0: _rat(c.c[0] * x) if c.N == 1 else _cyclo_times(c, x) for e, c in terms.items()}


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


def _mul_by_rational(tc: dict, t: dict, d: int) -> Laurent:
    """Cyclotomic coefficients tc times the rational form t/d; the product stays cyclotomic."""
    if len(t) == 1:
        ((e0, n),) = t.items()
        return _laurent(_scale_cyclos(tc, e0, _ratval(n, d)), 0)
    out: dict = {}
    for e0, n in t.items():
        for e, p in _scale_cyclos(tc, e0, _ratval(n, d)).items():
            s = out.get(e)
            out[e] = p if s is None else s + p
    return _laurent({e: c for e, c in out.items() if not c.is_zero}, 0)


def _add_rational(tc: dict, t: dict, d: int) -> Laurent:
    """Cyclotomic coefficients tc plus the rational form t/d; the sum stays cyclotomic."""
    out = dict(tc)
    for e, n in t.items():
        x = _ratval(n, d)
        s = out.get(e)
        if s is None:
            out[e] = _rat(x)
        elif s.N != 1:
            c = s.c
            out[e] = _cyclo(s.N, (c[0] + x,) + c[1:])
        elif s.c[0] + x:
            out[e] = _rat(s.c[0] + x)
        else:  # the rational coefficients cancel
            del out[e]
    return _laurent(out, 0)


def _add_cyclo(ta: dict, tb: dict) -> Laurent:
    """Sum of two cyclotomic forms; irrational parts may cancel to a rational value."""
    out = dict(ta)
    for e, c in tb.items():
        s = out.get(e)
        if s is None:
            out[e] = c
            continue
        s = s + c
        if s.is_zero:
            del out[e]
        else:
            out[e] = s
    return _from_cyclos(out)


def laurent_str(f: Laurent) -> str:
    """Human rendering; integral q-powers print in q, otherwise fall back to v."""
    if f.is_zero:
        return "0"
    t = f.t
    use_q = all(e % 2 == 0 for e in t)
    sym, div = ("q", 2) if use_q else ("v", 1)
    parts = []
    for e in sorted(t, reverse=True):
        c = t[e]
        cs = repr(c)
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


def eval_at_one(f: Laurent) -> Cyclo:
    """Exact specialisation v = 1 (hence q = 1)."""
    if f._d:
        return _rat(_ratval(sum(f._t.values()), f._d))
    out = CYC_ZERO
    for c in f._t.values():
        out = out + c
    return out


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
        c0 = self.coeffs[0]
        if len(c0.t) != 1:
            raise ValueError("series inverse needs a monomial constant term")
        ((e0, a0),) = c0.t.items()
        inv0 = Laurent.v_pow(-e0, a0.inverse())
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
