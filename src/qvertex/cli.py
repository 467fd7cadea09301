"""Command-line front end: every verification suite and data product.

Each subcommand accepts only the options it reads (the table `COMMANDS`);
any other option is a usage error (exit 2), and so is a --p-exp that the
weight rule (`SuiteConfig.reads_p_exp`) leaves unread.

Exit codes: 0 all executed checks pass, 1 at least one check failed,
2 configuration error (the message names the violated precondition).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .fock import (
    ClassVector,
    ExtState,
    FockContext,
    LatticeContext,
    cocycle_condition_check,
    heisenberg_check,
    heisenberg_check_cls,
    monomial_states,
)
from .groups import GroupData, build_group, validate_group
from .report import CheckReport
from .repring import (
    cartan_specialization_check,
    first_xi,
    hermitian_like_check,
    mckay_eigencheck,
    positivity_probe,
    qcartan,
    qp_degeneracy_check,
    second_xi,
)
from .scalar import coeff_obj, coeff_str, laurent_str
from .toroidal import SuiteConfig, run_suite, suite_json
from .vertex import (
    VertexEngine,
    contraction_check,
    ope_product_check,
    ope_table_check,
    qpow_consistency_check,
    y_minus,
    y_plus,
)
from .wreath import exp_formula_check, isometry_check, isometry_pair_reports


@dataclass
class Config:
    group: str = "cyclic:2"
    xi: str = "first"
    k: int = -1
    p_exp: int = 1
    max_degree: int = 2
    max_mode: int = 2
    series_order: int = 8
    fmt: str = "text"
    t: float = 2.0
    n: int = 2
    k_twist: int = 0
    l_twist: int = 0
    variant: str = "plus"


class ConfigError(Exception):
    pass


def make_xi(cfg: Config, g: GroupData):
    return second_xi(g, cfg.p_exp) if cfg.xi == "second" else first_xi(g)


def require_cases(reports: list[CheckReport]) -> None:
    """A run that checked nothing is a configuration error, not a success."""
    if not sum(r.n_cases for r in reports):
        raise ConfigError("precondition violated: the configuration checks no case")


def emit_reports(cfg: Config, reports: list[CheckReport]) -> int:
    require_cases(reports)
    ok = all(r.passed for r in reports)
    if cfg.fmt == "json":
        print(json.dumps({"checks": [r.to_obj() for r in reports]}, sort_keys=False))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"[{status}] {r.check_id} {r.params} ({r.n_cases} cases)")
            for note in r.notes:
                print(f"        {note}")
            if r.fail_detail:
                print(f"        first failure at {r.fail_detail['where']}")
                print(f"        expected {r.fail_detail['expected']}")
                print(f"        got      {r.fail_detail['got']}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# registry of check operations (the `all` command must cover every entry)


def run_repring_checks(cfg: Config, g: GroupData) -> list[CheckReport]:
    xi = make_xi(cfg, g)
    out = [hermitian_like_check(qcartan(xi)), mckay_eigencheck(xi)]
    if g.cartan_layout is not None:
        out.append(cartan_specialization_check(g))
        if g.cartan_layout[0] == "A":
            out.append(qp_degeneracy_check(g, cfg.p_exp))
    for t in (0.5, 2.0):
        out.append(positivity_probe(xi, t))
    return out


def run_fock_checks(cfg: Config, g: GroupData) -> list[CheckReport]:
    ctx = FockContext(make_xi(cfg, g))
    states = monomial_states(g, cfg.max_degree)
    states_c = monomial_states(g, cfg.max_degree, ClassVector)
    out = [cocycle_condition_check(LatticeContext(ctx))]
    idx = range(min(2, g.n_classes))
    for m in range(1, cfg.max_mode + 1):
        for i in idx:
            for j in idx:
                out.append(heisenberg_check(ctx, m, -m, i, j, states))
                out.append(heisenberg_check_cls(ctx, m, -m, i, j, states_c))
    out.append(heisenberg_check(ctx, 1, 2, 0, 0, states))
    return out


def run_wreath_checks(cfg: Config, g: GroupData) -> list[CheckReport]:
    ctx = FockContext(make_xi(cfg, g))
    out = []
    for n in range(cfg.max_degree + 1):
        out.append(exp_formula_check(ctx, [(1, g.n_classes - 1, 1)], n, "eta"))
        out.append(exp_formula_check(ctx, [(1, g.n_classes - 1, 0)], n, "eps"))
    out.append(isometry_check(ctx, cfg.n, cfg.k_twist, cfg.l_twist))
    return out


def run_vertex_checks(cfg: Config, g: GroupData) -> list[CheckReport]:
    out = [qpow_consistency_check(a, cfg.series_order) for a in (-2, -1, 0, 1, 2)]
    xi = make_xi(cfg, g)
    eng = VertexEngine(FockContext(xi), p_exp=xi.p_exp)
    rank = g.n_classes
    for i in range(rank):
        for j in range(rank):
            out.append(contraction_check(eng, i, j, cfg.k, 0, cfg.series_order))
    states = [ExtState.vacuum(rank), ExtState.point(((1, rank - 1),), (0,) * rank)]
    k = cfg.k
    fams = [
        ("ope:YpYp", lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, 1, 0, k))),
        ("ope:YpYm", lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, 1, 0, k))),
        ("ope:YpYp-neg", lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, -1, 0, -k))),
        ("ope:YpYm-neg", lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, -1, 0, -k))),
        ("ope:YmYp-neg", lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, -1, 0, -k))),
    ]
    pairs = [(0, 0), (0, 1 % rank)]
    for name, mk in fams:
        for i, j in pairs:
            opA, opB = mk(i, j)
            params = {"group": g.name, "xi": cfg.xi, "i": i, "j": j, "k": k}
            out.append(ope_product_check(eng, opA, opB, cfg.max_mode, states, name, params))
            out.append(ope_table_check(eng, opA, opB, cfg.series_order, name + ":table", params))
    return out


def suite_config(cfg: Config, variant: str) -> SuiteConfig:
    """The relation-suite configuration the CLI runs (and reports) for a variant."""
    return SuiteConfig(
        cfg.group,
        xi=cfg.xi,
        variant=variant,
        k=cfg.k,
        p_exp=cfg.p_exp if SuiteConfig.reads_p_exp(variant, cfg.xi) else None,
        max_degree=cfg.max_degree,
        max_mode=cfg.max_mode,
        max_states=8,
    )


def run_toroidal_checks(cfg: Config, g: GroupData, variant: str) -> list[CheckReport]:
    return run_suite(g, suite_config(cfg, variant))


REGISTRY = {
    "repring.hermitian": "hermitian_like_check",
    "repring.mckay": "mckay_eigencheck",
    "repring.cartan_q1": "cartan_specialization_check",
    "repring.qp_degeneracy": "qp_degeneracy_check",
    "repring.positivity": "positivity_probe",
    "fock.cocycle": "cocycle_condition_check",
    "fock.heisenberg": "heisenberg_check",
    "fock.heisenberg_cls": "heisenberg_check_cls",
    "wreath.exp": "exp_formula_check",
    "wreath.isometry": "isometry_check",
    "vertex.qpow": "qpow_consistency_check",
    "vertex.contraction": "contraction_check",
    "vertex.ope_product": "ope_product_check",
    "vertex.ope_table": "ope_table_check",
    "toroidal.heisenberg": "check_heisenberg_rel",
    "toroidal.a_x": "check_a_x",
    "toroidal.xx": "check_xx",
    "toroidal.xpxm": "check_xpxm",
    "toroidal.serre": "check_serre",
    "toroidal.psi_structure": "check_psi_structure",
    "toroidal.highest_weight": "check_highest_weight",
    "toroidal.grading": "check_grading",
    "toroidal.d2_grading": "check_d2_grading",
}


def run_all(cfg: Config, g: GroupData) -> list[CheckReport]:
    """Execute every registered check family applicable to the configuration."""
    out: list[CheckReport] = [
        *run_repring_checks(cfg, g),
        *run_fock_checks(cfg, g),
        *run_wreath_checks(cfg, g),
        *run_vertex_checks(cfg, g),
        *run_toroidal_checks(cfg, g, "toroidal_plus"),
        *run_toroidal_checks(cfg, g, "toroidal_minus"),
    ]
    if g.n_classes >= 2:
        out.extend(run_toroidal_checks(cfg, g, "affine"))
    if g.cartan_layout is not None and g.cartan_layout[0] == "A" and g.n_classes >= 3:
        out.extend(run_toroidal_checks(cfg, g, "typeA_qp"))
    return out


# --------------------------------------------------------------------------
# subcommands


def cmd_chartable(cfg: Config, g: GroupData) -> int:
    bad = validate_group(g)
    if cfg.fmt == "json":
        doc = {
            "name": g.name,
            "order": g.order,
            "conductor": g.conductor,
            "classes": [
                {"label": c.label, "centralizer": c.centralizer_order, "inverse": c.inverse_class, "element_order": c.element_order}
                for c in g.classes
            ],
            "char_table": [[coeff_obj(*v.coords()) for v in row] for row in g.char_table],
            "natural": [coeff_obj(*v.coords()) for v in g.natural_char],
            "violations": bad,
        }
        print(json.dumps(doc))
    else:
        print(f"{g.name}: order {g.order}, conductor {g.conductor}, {g.n_classes} classes")
        labels = [c.label for c in g.classes]
        print("classes:    " + "  ".join(f"{l}(z={c.centralizer_order})" for l, c in zip(labels, g.classes)))
        for i, row in enumerate(g.char_table):
            print(f"gamma_{i}:  " + "  ".join(coeff_str(*v.coords()) for v in row))
        print("pi:       " + "  ".join(coeff_str(*v.coords()) for v in g.natural_char))
        if bad:
            print("VIOLATIONS:")
            for b in bad:
                print("  " + b)
    return 1 if bad else 0


def cmd_cartan(cfg: Config, g: GroupData) -> int:
    A = qcartan(make_xi(cfg, g))
    if cfg.fmt == "json":
        print(json.dumps({"group": g.name, "xi": cfg.xi, "entries": [[e.to_obj() for e in row] for row in A.entries]}))
    else:
        width = max(len(laurent_str(e)) for row in A.entries for e in row) + 2
        for row in A.entries:
            print("".join(laurent_str(e).ljust(width) for e in row))
    return 0


TOROIDAL_VARIANTS = {"plus": "toroidal_plus", "minus": "toroidal_minus", "qp": "typeA_qp"}


def cmd_toroidal(cfg: Config, g: GroupData) -> int:
    scfg = suite_config(cfg, TOROIDAL_VARIANTS[cfg.variant])
    reports = run_suite(g, scfg)
    if cfg.fmt == "json":
        require_cases(reports)
        print(suite_json(g, scfg, reports))
        return 0 if all(r.passed for r in reports) else 1
    return emit_reports(cfg, reports)


# Each subcommand: its runner (exit code from (cfg, group)) and the Config
# fields it reads besides --group and --format.  The lambdas look their
# callees up when they run, so a patched module attribute takes effect.
WEIGHT = ("xi", "p_exp")
COMMANDS = {
    "chartable": (lambda cfg, g: cmd_chartable(cfg, g), ()),
    "cartan": (lambda cfg, g: cmd_cartan(cfg, g), WEIGHT),
    "mckay": (lambda cfg, g: emit_reports(cfg, [mckay_eigencheck(make_xi(cfg, g))]), WEIGHT),
    "positivity": (lambda cfg, g: emit_reports(cfg, [positivity_probe(make_xi(cfg, g), cfg.t)]), (*WEIGHT, "t")),
    "heisenberg": (lambda cfg, g: emit_reports(cfg, run_fock_checks(cfg, g)), (*WEIGHT, "max_degree", "max_mode")),
    "isometry": (
        lambda cfg, g: emit_reports(cfg, isometry_pair_reports(FockContext(make_xi(cfg, g)), cfg.n, cfg.k_twist, cfg.l_twist)),
        (*WEIGHT, "n", "k_twist", "l_twist"),
    ),
    "ope": (lambda cfg, g: emit_reports(cfg, run_vertex_checks(cfg, g)), (*WEIGHT, "k", "max_mode", "series_order")),
    "toroidal": (lambda cfg, g: cmd_toroidal(cfg, g), (*WEIGHT, "k", "max_degree", "max_mode", "variant")),
    "affine": (lambda cfg, g: emit_reports(cfg, run_toroidal_checks(cfg, g, "affine")), (*WEIGHT, "k", "max_degree", "max_mode")),
    "all": (lambda cfg, g: emit_reports(cfg, run_all(cfg, g)), (*WEIGHT, "k", "max_degree", "max_mode", "series_order")),
}

# argparse keywords per Config field; an option left out keeps the Config default
OPTIONS = {
    "xi": dict(choices=["first", "second"]),
    "p_exp": dict(type=int, help="p = q^k_p for the second weight"),
    "k": dict(type=int, help="vertex shift (default -1)"),
    "max_degree": dict(type=int),
    "max_mode": dict(type=int),
    "series_order": dict(type=int),
    "t": dict(type=float),
    "n": dict(type=int),
    "k_twist": dict(type=int),
    "l_twist": dict(type=int),
    "variant": dict(choices=["plus", "minus", "qp"]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qvertex", description="Exact checks for quantum vertex representations from finite subgroups of SU(2).")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, fields) in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--group", help="cyclic:N | bd:N | bt | file:PATH")
        p.add_argument("--format", choices=["text", "json"], dest="fmt")
        for field in fields:
            p.add_argument("--" + field.replace("_", "-"), dest=field, **OPTIONS[field])
    return ap


def validate_numbers(cfg: Config) -> None:
    """Bounds and orders must be >= 0; the positivity parameter finite and > 0."""
    for name in ("max_mode", "max_degree", "series_order", "n"):
        value = getattr(cfg, name)
        if value < 0:
            raise ConfigError(f"precondition violated: --{name.replace('_', '-')} must be >= 0, got {value}")
    if not (math.isfinite(cfg.t) and cfg.t > 0):
        raise ConfigError(f"precondition violated: positivity probe requires a finite t > 0, got {cfg.t}")


def require_p_exp_read(command: str, cfg: Config) -> None:
    """An explicit --p-exp must reach a check: `all` always reads it, any
    other subcommand only where the weight rule (SuiteConfig.reads_p_exp) does."""
    if command == "all":
        return
    variant = {"toroidal": TOROIDAL_VARIANTS[cfg.variant], "affine": "affine"}.get(command)
    if not SuiteConfig.reads_p_exp(variant, cfg.xi):
        raise ConfigError("precondition violated: --p-exp is read only with --xi second, by toroidal --variant qp and by all")


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    command = kwargs.pop("command")
    cfg = Config(**kwargs)
    try:
        validate_numbers(cfg)
        if "p_exp" in kwargs:
            require_p_exp_read(command, cfg)
        code = COMMANDS[command][0](cfg, build_group(cfg.group))
        sys.stdout.flush()  # a reader that left early fails the write here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader closed the pipe (`| head`); send what is left, and the
        # flush at exit, to devnull instead of printing a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
