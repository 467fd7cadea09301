"""Test-only vector helpers, written against the public FockVector API: the
read-only ``terms`` view, the constructor and ``add_term``."""

from qvertex.fock import ExtState, FockContext, FockVector, LatticeContext
from qvertex.scalar import L_ZERO, Laurent
from qvertex.vertex import VertexEngine, VOp


def basis_shift(lat: LatticeContext, i: int) -> tuple[int, ...]:
    """The lattice point gamma_i, reduced in quotient mode."""
    e = [0] * lat.rank
    e[i] = 1
    return lat.reduce(tuple(e))


def lattice_mul_e(lat: LatticeContext, shift: tuple[int, ...], v: ExtState) -> ExtState:
    """The eps-twisted multiplication e^shift (quotient-aware)."""
    out = ExtState.zero(v.basis)
    for (mono, beta), c in v.terms.items():
        sign = lat.cocycle_sign(shift, beta)
        rsign, newb = lat.reduce_signed(tuple(s + b for s, b in zip(shift, beta)))
        out.add_term((mono, newb), c if sign * rsign == 1 else -c)
    return out


def ext_form(ctx: FockContext, u: ExtState, v: ExtState) -> Laurent:
    """<u1 (x) e^a, u2 (x) e^b> = delta_ab <u1, u2>."""
    by_beta_u: dict[tuple[int, ...], FockVector] = {}
    by_beta_v: dict[tuple[int, ...], FockVector] = {}
    for (mono, beta), c in u.terms.items():
        by_beta_u.setdefault(beta, FockVector(u.basis)).add_term(mono, c)
    for (mono, beta), c in v.terms.items():
        by_beta_v.setdefault(beta, FockVector(v.basis)).add_term(mono, c)
    acc = L_ZERO
    for beta, fu in by_beta_u.items():
        fv = by_beta_v.get(beta)
        if fv is not None:
            acc = acc + ctx.form(fu, fv)
    return acc


def half_vertex(eng: VertexEngine, kind: str, i: int, l_v: int, state: ExtState, budget: int) -> dict[int, ExtState]:
    """z-power coefficients of H+/H-/E+/E- with twist q^{l_v/2} applied to state.

    Creation halves return orders 0..budget; annihilation halves all orders
    that survive (bounded by the state's Fock degree).

    Sign bookkeeping: the creation exponential is exp(+sum (1/n) a_{-n}(w)...)
    and the annihilation one exp(-sum (1/n) a_n(w)...), so H+ and E- use
    w = +gamma_i while E+ and H- use w = -gamma_i.
    """
    sign = 1 if kind in ("H+", "E-") else -1
    out: dict[int, ExtState] = {}
    if kind in ("H+", "E+"):
        op = VOp(i, sign, cre_v=-l_v, ann_v=0, zqv=0, label=kind)
        for a in range(budget + 1):
            acc = ExtState.zero(state.basis)
            for (mono, beta), coeff in state.terms.items():
                for m_cre, c_cre in eng.cre_terms(op, a):
                    acc.add_term((tuple(sorted(mono + m_cre)), beta), coeff * c_cre)
            out[a] = acc
    else:
        op = VOp(i, sign, cre_v=0, ann_v=l_v, zqv=0, label=kind)
        for (mono, beta), coeff in state.terms.items():
            for b, m_ann, c_ann in eng.ann_expand(op, mono):
                acc = out.setdefault(-b, ExtState.zero(state.basis))
                acc.add_term((m_ann, beta), coeff * c_ann)
    return {k: v for k, v in out.items() if not v.is_zero or k == 0}
