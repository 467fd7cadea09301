"""The benchmark's three workloads: their job grids, seeded decks and contexts.

A job is one verification request: one public call into qvertex that returns
CheckReports.  Every workload has a fixed grid of jobs.  A seed draws a *deck*
from it: the order of the jobs, the parameters that do not change how much
work a job does (twists, operator orientation, the index pairs of tables,
contractions and controls), and the negative controls.  The multiset of job shapes in a deck is the same for
every seed, so runs on different seeds measure the same amount of work and
their spread is host noise, not a different mix.

Negative controls are jobs whose verdict must be FAIL: a quantum Cartan
matrix with one off-diagonal entry moved by a cyclotomic coefficient (seen by
hermitian_like_check through first_mismatch), and a character table with one
perturbed value (seen by validate_group).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

from qvertex import cli
from qvertex.fock import ExtState, FockContext
from qvertex.groups import build_group, validate_group
from qvertex.report import CheckReport
from qvertex.repring import QCartanMatrix, first_xi, hermitian_like_check, qcartan, second_xi
from qvertex.scalar import Cyclo, Laurent
from qvertex.vertex import VertexEngine, contraction_check, ope_product_check, ope_table_check, y_minus, y_plus
from qvertex.wreath import exp_formula_check, isometry_check

WORKLOADS = ("registry-sweep", "wreath-forms", "ope-window")


@dataclass(frozen=True)
class Job:
    """One verification request.

    key names the job in expected_cases.json; kind is its family or check;
    layer is the qvertex module the call enters.  A negative control carries
    the verdict it must produce in expect_fail (a substring of the first
    failure it reports) and is never compared against a recorded case count.
    """

    key: str
    kind: str
    layer: str
    call: Callable[[dict], list[CheckReport]]
    expect_fail: str | None = None


# --------------------------------------------------------------------------
# registry-sweep: registry families exactly as `qvertex all` runs them, at the
# CLI default bounds, with fresh contexts per job.  cyclic:2 and cyclic:3 run
# their whole registry; the larger groups run the families that fit a deck of
# about 25 s (their toroidal suites take 5-12 s each with Python 3.11 on a
# 2-vCPU x86 host, and bt's wreath family belongs to wreath-forms).

TOROIDAL = ("toroidal_plus", "toroidal_minus", "affine", "typeA_qp")
REGISTRY_FAMILIES = {
    "cyclic:2": ("repring", "fock", "wreath", "vertex", "toroidal_plus", "toroidal_minus", "affine"),
    "cyclic:3": ("repring", "fock", "wreath", "vertex") + TOROIDAL,
    "cyclic:4": ("repring", "fock", "wreath", "vertex"),
    "bd:2": ("repring", "fock", "wreath", "vertex"),
    "bd:3": ("repring", "fock", "wreath", "vertex"),
    "bt": ("repring", "fock", "vertex"),
}
_RUNNERS = {
    "repring": cli.run_repring_checks,
    "fock": cli.run_fock_checks,
    "wreath": cli.run_wreath_checks,
    "vertex": cli.run_vertex_checks,
}


def _registry_job(spec: str, family: str) -> Job:
    def call(env: dict) -> list[CheckReport]:
        cfg = cli.Config(group=spec)
        if family in TOROIDAL:
            return cli.run_toroidal_checks(cfg, env[spec], family)
        return _RUNNERS[family](cfg, env[spec])

    return Job(f"registry-sweep|{spec}|{family}", family, "cli", call)


# --------------------------------------------------------------------------
# wreath-forms: the characteristic-map isometry and the exponential formulas,
# one long-lived FockContext per group.  n <= 2 for the isometry: n = 3 takes
# 20 s on bd:2 and over 6 minutes on cyclic:6 on the same host.

WREATH_GROUPS = ("bd:2", "bd:3", "bt", "cyclic:4", "cyclic:5", "cyclic:6")
TWISTS = (-1, 0, 1)
ISOMETRY_LEVELS = (1, 2)
EXP_LEVELS = (2, 3)


def _isometry_job(spec: str, n: int, k: int, l: int) -> Job:
    return Job(f"wreath-forms|{spec}|isometry|n={n}|k={k}|l={l}", f"isometry_n{n}", "wreath",
               lambda env: [isometry_check(env[spec], n, k, l)])


def _exp_job(spec: str, variant: str, n: int, k: int) -> Job:
    def call(env: dict) -> list[CheckReport]:
        ctx = env[spec]
        return [exp_formula_check(ctx, [(1, ctx.group.n_classes - 1, k)], n, variant)]

    return Job(f"wreath-forms|{spec}|exp_{variant}|n={n}|k={k}", f"exp_{variant}_n{n}", "wreath", call)


# --------------------------------------------------------------------------
# ope-window: one long-lived VertexEngine per (group, weight) serving the five
# OPE families of acceptance criterion 9 at window 3, their closed-form tables
# and the contraction identity.

OPE_GROUPS = ("cyclic:3", "cyclic:4")
OPE_WEIGHTS = ("first", "second:1", "second:2", "second:-1")
OPE_WINDOW = 3
OPE_TABLE_ORDER = 10
CONTRACTION_ORDER = 8
OPE_K = -1
OPE_PAIRS = ((0, 0), (0, 1))


def _ope_families(k: int) -> dict:
    return {
        "YY": (lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, 1, 0, k)),
               lambda i, j: (y_minus(i, 1, 0, k), y_minus(j, 1, 0, k))),
        "Ymix": (lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, 1, 0, k)),
                 lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, 1, 0, k))),
        "YYneg": (lambda i, j: (y_plus(i, 1, 0, k), y_plus(j, -1, 0, -k)),
                  lambda i, j: (y_minus(i, 1, 0, k), y_minus(j, -1, 0, -k))),
        "YpYmneg": (lambda i, j: (y_plus(i, 1, 0, k), y_minus(j, -1, 0, -k)),),
        "YmYpneg": (lambda i, j: (y_minus(i, 1, 0, k), y_plus(j, -1, 0, -k)),),
    }


OPE_FAMILIES = _ope_families(OPE_K)


def _rank(spec: str) -> int:
    return int(spec.split(":")[1])


def ope_states(rank: int) -> list[ExtState]:
    """The test states of acceptance criterion 9."""
    return [
        ExtState.vacuum(rank),
        ExtState.point(((1, 1 % rank),), (0,) * rank),
        ExtState.point(((1, 0), (1, 1 % rank)), (0,) * rank),
        ExtState.point((), tuple(1 if t == 1 % rank else 0 for t in range(rank))),
    ]


def _ope_job(spec: str, weight: str, check: str, fam: str, maker: int, i: int, j: int) -> Job:
    def call(env: dict) -> list[CheckReport]:
        eng = env[(spec, weight)]
        opA, opB = OPE_FAMILIES[fam][maker](i, j)
        params = {"group": spec, "weight": weight, "i": i, "j": j}
        if check == "product":
            return [ope_product_check(eng, opA, opB, OPE_WINDOW, ope_states(eng.rank), fam, params)]
        return [ope_table_check(eng, opA, opB, OPE_TABLE_ORDER, fam + ":table", params)]

    return Job(f"ope-window|{spec}|{weight}|{check}|{fam}.{maker}|i={i}|j={j}", check, "vertex", call)


def _contraction_job(spec: str, weight: str, i: int, j: int) -> Job:
    return Job(f"ope-window|{spec}|{weight}|contraction|i={i}|j={j}", "contraction", "vertex",
               lambda env: [contraction_check(env[(spec, weight)], i, j, OPE_K, 0, CONTRACTION_ORDER)])


# --------------------------------------------------------------------------
# negative controls


def _hermitian_control(spec: str, weight: str, i: int, j: int, e: int, m: int) -> Job:
    """a_ij of the quantum Cartan matrix moved by zeta_m v^e, i != j."""

    def call(env: dict) -> list[CheckReport]:
        A = qcartan(_weight(build_group(spec), weight))
        rows = [list(r) for r in A.entries]
        rows[i][j] = rows[i][j] + Laurent({e: Cyclo.root(m, 1)})
        return [hermitian_like_check(QCartanMatrix(A.xi, tuple(tuple(r) for r in rows)))]

    first = min((i, j), (j, i))
    return Job(f"control|{spec}|{weight}|hermitian|a[{i}][{j}]+z{m}v^{e}", "control", "repring", call,
               expect_fail=f"a[{first[0]}][{first[1]}]")


def _chartable_control(spec: str, r: int, c: int, m: int) -> Job:
    """chi_r(c) moved by zeta_m, r, c >= 1."""

    def call(env: dict) -> list[CheckReport]:
        g = build_group(spec)
        table = [list(row) for row in g.char_table]
        table[r][c] = table[r][c] + Cyclo.root(m, 1)
        bad = validate_group(dataclasses.replace(g, char_table=tuple(tuple(row) for row in table)))
        detail = {"where": bad[0], "expected": "no violation", "got": f"{len(bad)} violations"} if bad else None
        return [CheckReport("groups.validate", {"group": spec}, passed=not bad, n_cases=len(bad), fail_detail=detail)]

    return Job(f"control|{spec}|chartable|chi[{r}][{c}]+z{m}", "control", "groups", call,
               expect_fail="orthogonality")


def _weight(g, weight: str):
    """first_xi, or second_xi at p = q^k for weight 'second:k'."""
    return first_xi(g) if weight == "first" else second_xi(g, int(weight.split(":")[1]))


def _controls(rng: random.Random, spec: str, weights: tuple[str, ...]) -> list[Job]:
    rank = _rank(spec) if spec.startswith("cyclic:") else {"bd:2": 5, "bd:3": 6, "bt": 7}[spec]
    out = []
    for weight in weights:
        i, j = rng.sample(range(rank), 2)
        out.append(_hermitian_control(spec, weight, i, j, rng.randint(-2, 2), rng.choice((3, 4, 5))))
    out.append(_chartable_control(spec, rng.randrange(1, rank), rng.randrange(1, rank), rng.choice((3, 4, 5))))
    return out


# --------------------------------------------------------------------------
# grids, decks and contexts


def grid(workload: str) -> list[Job]:
    """Every non-control job a deck of this workload can hold."""
    if workload == "registry-sweep":
        return [_registry_job(s, f) for s, fams in REGISTRY_FAMILIES.items() for f in fams]
    if workload == "wreath-forms":
        out = []
        for s in WREATH_GROUPS:
            out += [_isometry_job(s, n, k, l) for n in ISOMETRY_LEVELS for k in TWISTS for l in TWISTS]
            out += [_exp_job(s, v, n, k) for v in ("eta", "eps") for n in EXP_LEVELS for k in TWISTS]
        return out
    if workload == "ope-window":
        out = []
        for s in OPE_GROUPS:
            for w in OPE_WEIGHTS:
                for fam, makers in OPE_FAMILIES.items():
                    for m in range(len(makers)):
                        for check in ("product", "table"):
                            out += [_ope_job(s, w, check, fam, m, i, j) for i, j in OPE_PAIRS]
                out += [_contraction_job(s, w, i, j) for i in range(_rank(s)) for j in range(_rank(s))]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int) -> list[Job]:
    """The seeded deck: the same seed gives the same jobs in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "registry-sweep":
        jobs = [_registry_job(s, f) for s, fams in REGISTRY_FAMILIES.items() for f in fams]
        for s in REGISTRY_FAMILIES:
            jobs += _controls(rng, s, ("first",))
    elif workload == "wreath-forms":
        jobs = []
        for s in WREATH_GROUPS:
            for n in ISOMETRY_LEVELS:
                jobs.append(_isometry_job(s, n, rng.choice(TWISTS), rng.choice(TWISTS)))
            for v in ("eta", "eps"):
                for n in EXP_LEVELS:
                    jobs.append(_exp_job(s, v, n, rng.choice(TWISTS)))
            jobs += _controls(rng, s, ("first",))
    elif workload == "ope-window":
        jobs = []
        for s in OPE_GROUPS:
            rank = _rank(s)
            for w in OPE_WEIGHTS:
                # per family: products on the pairs the CLI checks, (0,0) and
                # (0,1), with a seeded orientation, and one table.  Which pair
                # a product runs on changes its cost by up to 3x (the test
                # states are not symmetric), so the pairs are not drawn.
                for fam, makers in OPE_FAMILIES.items():
                    m = rng.randrange(len(makers))
                    for i, j in OPE_PAIRS:
                        jobs.append(_ope_job(s, w, "product", fam, m, i, j))
                    jobs.append(_ope_job(s, w, "table", fam, m, *rng.choice(OPE_PAIRS)))
                jobs.append(_contraction_job(s, w, rng.randrange(rank), rng.randrange(rank)))
            jobs += _controls(rng, s, OPE_WEIGHTS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def setup(workload: str, build=build_group) -> dict:
    """Build the workload's groups and long-lived contexts.

    build is the group constructor, so a tracer can time it.
    """
    if workload == "registry-sweep":
        return {s: build(s) for s in REGISTRY_FAMILIES}
    if workload == "wreath-forms":
        return {s: FockContext(first_xi(build(s))) for s in WREATH_GROUPS}
    if workload == "ope-window":
        env: dict = {}
        for s in OPE_GROUPS:
            g = build(s)
            for w in OPE_WEIGHTS:
                xi = _weight(g, w)
                env[(s, w)] = VertexEngine(FockContext(xi), p_exp=xi.p_exp)
        return env
    raise ValueError(f"unknown workload {workload!r}")
