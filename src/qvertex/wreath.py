"""Wreath-product conjugacy combinatorics and the characteristic map.

Conjugacy classes of the wreath product at level n are indexed by
partition-valued functions rho on the classes of Gamma with total weight n;
class functions at level n are stored by type, never by group element.

Conventions fixed here (see the README and the norm formula in fock.py):
  * sigma_{rho (x) q^k} takes the value Z_rho * q^{+nk} on type rho (and the
    single-cycle sigma_n(gamma (x) q^k) takes n*gamma(c)*q^{+nk});
  * ch(f) = sum_rho Z_rho^{-1} bar_q(f(rho)) a'_{-rho}, so that
    ch(sigma_{rho (x) q^k}) = q^{-nk} a'_{-rho} and the exponential formula
    for ch(eta_n(gamma (x) q^k)) carries (q^{-k} z)^m, matching the vertex
    operator halves downstream;
  * with these choices the wreath-side pairing of sigma-functions equals the
    Fock-side pairing of their ch-images after q -> q^{-1}: the group side is
    delta_{rho,sigma} q^{n(k-l)} Z_rho prod xi_{q^i}(c)^{m_i} and the Fock side
    the same with q^{n(l-k)}.  Both orientations are asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .fock import ClassVector, FockContext, FockVector, aprime_mono, inner_closed
from .groups import GroupData
from .report import CheckReport, first_mismatch, judgement
from .repring import CxClassFunction, WeightXi
from .scalar import KeyedSum, Laurent

Partition = tuple[int, ...]
PartitionFn = tuple[Partition, ...]  # one partition per conjugacy class


# Module-global by exemption from the one-check cache rule: a pure function of
# small integers, so sharing it across checks and benchmark decks shares no verdict work.
@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n, parts weakly decreasing, descending lexicographic order."""
    if n == 0:
        return ((),)
    mp = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for first in range(mp, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def z_part(lam: Partition) -> int:
    """prod_i i^{m_i} m_i!, the S_n centralizer order of cycle type lambda."""
    out, run, prev = 1, 0, None
    for part in list(lam) + [None]:
        if part == prev:
            run += 1
        else:
            if prev is not None:
                out *= prev**run * factorial(run)
            prev, run = part, 1
    return out


def enumerate_types(g: GroupData, n: int) -> list[PartitionFn]:
    """All partition-valued functions of weight n, deterministic order."""
    k = g.n_classes

    def rec(c: int, remaining: int) -> list[tuple[Partition, ...]]:
        if c == k - 1:
            return [(lam,) for lam in partitions(remaining)]
        out = []
        for w in range(remaining, -1, -1):
            for lam in partitions(w):
                for rest in rec(c + 1, remaining - w):
                    out.append((lam,) + rest)
        return out

    return [tuple(rho) for rho in rec(0, n)]


def rho_weight(rho: PartitionFn) -> int:
    return sum(sum(lam) for lam in rho)


def rho_length(rho: PartitionFn) -> int:
    return sum(len(lam) for lam in rho)


def big_z(g: GroupData, rho: PartitionFn) -> int:
    """Z_rho = prod_c z_{rho(c)} zeta_c^{l(rho(c))}, the wreath centralizer order."""
    out = 1
    for c, lam in enumerate(rho):
        out *= z_part(lam) * g.zeta(c) ** len(lam)
    return out


def rho_bar(g: GroupData, rho: PartitionFn) -> PartitionFn:
    """rho composed with the inverse-class map."""
    return tuple(rho[g.inv(c)] for c in range(g.n_classes))


# --------------------------------------------------------------------------
# eta / epsilon character values (the product formulas)


def eta_value(f: CxClassFunction, rho: PartitionFn) -> Laurent:
    """prod_c prod_i f_{q^i}(c)^{m_i(rho(c))}; valid for any class function f."""
    acc = Laurent.one()
    for c, lam in enumerate(rho):
        for part in lam:
            acc = acc * f.values[c].subs_pow(part)
    return acc


def eps_value(f: CxClassFunction, rho: PartitionFn) -> Laurent:
    """(-1)^{||rho||} prod_c prod_i (-f_{q^i}(c))^{m_i(rho(c))}."""
    acc = eta_value(f, rho)
    sign = (rho_weight(rho) - rho_length(rho)) % 2
    return -acc if sign else acc


# --------------------------------------------------------------------------
# level-n class functions by type, the sigma basis, and ch


@dataclass
class WreathClassFunction:
    group: GroupData
    n: int
    values: dict[PartitionFn, Laurent]

    def value(self, rho: PartitionFn) -> Laurent:
        return self.values.get(rho, Laurent.zero())


def sigma_rho(g: GroupData, rho: PartitionFn, k: int = 0) -> WreathClassFunction:
    """sigma_{rho (x) q^k}: value Z_rho q^{nk} on type rho, zero elsewhere."""
    n = rho_weight(rho)
    return WreathClassFunction(g, n, {tuple(rho): Laurent.q_pow(n * k).scale(big_z(g, rho))})


def eta_wreath(g: GroupData, f: CxClassFunction, n: int) -> WreathClassFunction:
    return WreathClassFunction(g, n, {rho: eta_value(f, rho) for rho in enumerate_types(g, n)})


def ch(f: WreathClassFunction) -> FockVector:
    """Characteristic map: sum_rho Z_rho^{-1} bar_q(f(rho)) a'_{-rho}, class basis."""
    # aprime_mono is injective on types, so each type has a key of its own
    return ClassVector({
        aprime_mono(rho): val.bar_q().scale(Fraction(1, big_z(f.group, rho)))
        for rho, val in f.values.items()
        if not val.is_zero
    })


# --------------------------------------------------------------------------
# exponential formulas on the Fock side

Combo = list[tuple[int, int, int]]  # (coefficient, character index, q-twist k)


def combo_class_function(g: GroupData, combo: Combo) -> CxClassFunction:
    acc = CxClassFunction.constant(g, Laurent.zero())
    for coef, i, k in combo:
        acc = acc + CxClassFunction.character(g, i, qtwist=k).scale(Laurent.of(coef))
    return acc


def _fock_mul(u: FockVector, v: FockVector) -> FockVector:
    acc = KeyedSum()
    for m1, c1 in u.terms.items():
        for (m2, e), x in v.f.entries():
            acc.add(tuple(sorted(m1 + m2)), e, v.f, x, c1)
    return u.packed(acc.value())


def _exp_coeffs(linear: list[FockVector], n: int) -> list[FockVector]:
    """Coefficients 0..n of exp(sum_m linear[m] z^m) with linear[m] degree-m creation terms."""
    out = [FockVector.vacuum()]
    for m in range(1, n + 1):
        acc = FockVector.zero()
        for j in range(1, m + 1):
            term = _fock_mul(linear[j].scale(Laurent.of(j)), out[m - j])
            acc = acc + term
        out.append(acc.scale(Laurent.of(Fraction(1, m))))
    return out


def eta_fock(g: GroupData, combo: Combo, n: int) -> FockVector:
    """z^n coefficient of exp(sum_m (1/m) a_{-m}(gamma)(q^{-k}z)^m) for the combo."""
    linear = [FockVector.zero()]
    for m in range(1, n + 1):
        v = FockVector.zero()
        for coef, i, k in combo:
            v.add_term(((m, i),), Laurent.q_pow(-k * m).scale(Fraction(coef, m)))
        linear.append(v)
    return _exp_coeffs(linear, n)[n]


def eps_fock(g: GroupData, combo: Combo, n: int) -> FockVector:
    """Same with alternating signs: exp(sum (-1)^{m-1} (1/m) a_{-m}(gamma)(q^{-k}z)^m).

    That is exp(sum (1/m) a_{-m}(-gamma)(-q^{-k}z)^m): (-1)^n eta_fock of the negated combo.
    """
    return eta_fock(g, [(-coef, i, k) for coef, i, k in combo], n).scale(Laurent.of((-1) ** n))


def exp_formula_check(ctx: FockContext, combo: Combo, n: int, variant: str = "eta") -> CheckReport:
    """ch(eta_n)/ch(eps_n) from character values versus the exponential series."""
    g = ctx.group
    f = combo_class_function(g, combo)
    if variant == "eta":
        wf, target = eta_wreath(g, f, n), eta_fock(g, combo, n)
    else:
        wf = WreathClassFunction(g, n, {rho: eps_value(f, rho) for rho in enumerate_types(g, n)})
        target = eps_fock(g, combo, n)
    got = ctx.to_chi(ch(wf))
    return judgement(f"wreath.exp_{variant}", {"group": g.name, "combo": combo, "n": n}, got == target,
                     len(wf.values), "fock vector", target, got)


# --------------------------------------------------------------------------
# the wreath-level weighted form and the isometry check


def wreath_weighted_form(xi: WeightXi, f: WreathClassFunction, h: WreathClassFunction) -> Laurent:
    """sum over types of Z_mu^{-1} eta_n(xi)(mu) f(mu) bar_q(h(mu)), read off f's support."""
    g = xi.group
    acc = Laurent.zero()
    for mu, fv in f.values.items():
        hv = h.value(mu)
        if fv.is_zero or hv.is_zero:
            continue
        w = eta_value(xi.f, mu)
        acc = acc + (fv * hv.bar_q() * w).scale(Fraction(1, big_z(g, mu)))
    return acc


def isometry_pairs(ctx: FockContext, n: int, k: int, l: int):
    """Both sides of the isometry on every type pair (rho, sigma), rho-major.

    Yields (rho, sigma, sides), sides being [("group side", expected, got),
    ("fock side", expected, got)].  The Fock side reads the Gram rows of
    a'_{-rho x q^k} against every a'_{-sigma_bar x q^l}: one row per rho.
    """
    g = ctx.group
    xi = ctx.xi
    types = enumerate_types(g, n)
    us = (ClassVector({aprime_mono(rho): Laurent.q_pow(-n * k)}) for rho in types)
    vs = [ClassVector({aprime_mono(rho_bar(g, sig)): Laurent.q_pow(-n * l)}) for sig in types]
    hs = [sigma_rho(g, sig, l) for sig in types]
    for rho, row in zip(types, ctx.gram(us, vs)):
        f = sigma_rho(g, rho, k)
        for sig, h, got_fock in zip(types, hs, row):
            if rho == sig:
                closed_group = inner_closed(ctx, rho, big_z(g, rho), n * (k - l))
                closed_fock = inner_closed(ctx, rho, big_z(g, rho), n * (l - k))
            else:
                closed_group = closed_fock = Laurent.zero()
            yield rho, sig, [
                ("group side", closed_group, wreath_weighted_form(xi, f, h)),
                ("fock side", closed_fock, got_fock),
            ]


def isometry_pair_reports(ctx: FockContext, n: int, k: int, l: int) -> list[CheckReport]:
    """One wreath.isometry_pair verdict per (rho, sigma) type pair (CLI output unit)."""
    g = ctx.group
    return [
        first_mismatch(
            "wreath.isometry_pair",
            {"group": g.name, "xi": ctx.xi.kind, "rho": str(rho), "sigma": str(sig), "n": n, "k": k, "l": l},
            sides,
        )
        for rho, sig, sides in isometry_pairs(ctx, n, k, l)
    ]


def isometry_check(ctx: FockContext, n: int, k: int, l: int) -> CheckReport:
    """Group-side and Fock-side pairings of the sigma basis against the norm formula.

    Group side: <sigma_{rho x q^k}, sigma_{sigma x q^l}>_xi over types.
    Fock side:  <a'_{-rho x q^k}, a'_{-sigma_bar x q^l}> by the Wick recursion on
    class monomials, whose one-factor tables come from the character values.
    Both must equal delta_{rho,sigma} Z_rho prod xi_{q^i}(c)^{m_i(rho(c))} with
    q-power n(k-l) on the group side and n(l-k) on the Fock side (the antipode
    twist built into ch; see module docstring).
    """
    xi = ctx.xi
    params = {"group": ctx.group.name, "xi": xi.kind, "p_exp": xi.p_exp, "n": n, "k": k, "l": l}
    triples = (
        (f"{side} rho={rho} sigma={sig}", expected, got)
        for rho, sig, sides in isometry_pairs(ctx, n, k, l)
        for side, expected, got in sides
    )
    return first_mismatch("wreath.isometry", params, triples)
