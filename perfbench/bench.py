"""Running decks: the correctness gate, the closed loop, the traced pass and the metrics."""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing
import workloads
from workloads import Job

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_cases.json"
FAMILY_KINDS = ("repring", "fock", "wreath", "vertex") + workloads.TOROIDAL


def load_expected() -> dict[str, int]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


@dataclass
class JobResult:
    job: Job
    start: float
    end: float
    seconds: float  # raw wall time, less host-speed probes
    cases: int
    error: str | None  # None when the gate accepts the job
    ref_seconds: float = 0.0  # seconds rescaled by host speed; see hostspeed.py


def gate(job: Job, reports, expected: dict[str, int]) -> str | None:
    """Why the job counts as failed, or None.

    A verification job fails when any report is FAIL or when its summed
    n_cases differs from the count recorded for it on the reference commit,
    so a verifier that skips comparisons does not look fast.  A negative
    control fails unless every report is FAIL at the expected place.
    """
    if job.expect_fail is not None:
        if not reports or any(r.passed for r in reports):
            return "negative control passed"
        where = [str((r.fail_detail or {}).get("where")) for r in reports]
        if not all(job.expect_fail in w for w in where):
            return f"negative control failed at {where}, expected {job.expect_fail!r}"
        return None
    bad = [r for r in reports if not r.passed]
    if bad:
        return f"{bad[0].check_id} FAIL {bad[0].params}: {bad[0].fail_detail}"
    want = expected.get(job.key)
    if want is None:
        return "no recorded case count for this job"
    got = sum(r.n_cases for r in reports)
    if got != want:
        return f"{got} cases compared, {want} recorded"
    return None


def run_job(job: Job, env: dict, expected: dict[str, int]) -> JobResult:
    t0 = time.perf_counter()
    try:
        reports = job.call(env)
    except Exception as exc:  # a job that raises is a failed job; the loop goes on
        traceback.print_exc()
        t1 = time.perf_counter()
        return JobResult(job, t0, t1, t1 - t0, 0, f"raised {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    return JobResult(job, t0, t1, t1 - t0, sum(r.n_cases for r in reports), gate(job, reports, expected))


@dataclass
class Deck:
    wall: float  # raw wall time from the first job to the last verdict, probes included
    ref: float  # the jobs' reference seconds, summed
    results: list[JobResult]


def run_deck(deck: list[Job], env: dict, expected: dict[str, int], spans: tracing.Spans | None = None,
             calibrate: bool = False) -> Deck:
    """Run the jobs in order; with calibrate, sample host speed throughout and
    report reference seconds (hostspeed.py), else raw seconds."""
    out = []
    host = hostspeed.HostSpeed() if calibrate else None
    with host or contextlib.nullcontext():
        t0 = time.perf_counter()
        for job in deck:
            # each job starts from a collected heap, so where the collector's
            # pauses fall does not depend on the order the seed drew
            gc.collect()
            spent = host.spent if host else 0.0
            with spans.span(job.kind, job.layer, job=job.key) if spans else contextlib.nullcontext():
                r = run_job(job, env, expected)
            if host:
                r.seconds -= host.spent - spent
            out.append(r)
        wall = time.perf_counter() - t0
    for r in out:
        r.ref_seconds = r.seconds * host.factor(r.start, r.end) if host else r.seconds
    return Deck(wall, sum(r.ref_seconds for r in out), out)


def run_closed_loop(workload: str, deck: list[Job], seconds: float, expected: dict[str, int]) -> list[Deck]:
    """Whole decks, one job at a time, while the next deck is expected to end
    within `seconds`; at least one.  Every deck gets fresh contexts, built
    after the last deck's are freed, so every deck does the same cold work
    in the same memory."""
    decks: list[Deck] = []
    start = time.perf_counter()
    while True:
        env = workloads.setup(workload)
        decks.append(run_deck(deck, env, expected, calibrate=True))
        del env
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(d.wall for d in decks) > seconds:
            return decks


# --------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100).

    It weights every order statistic by a beta density centred on the
    percentile, so it does not jump when two neighbouring jobs swap places,
    as an interpolated order statistic does.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule per order statistic
    h = 1 / (steps * n)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i * steps + k + 0.5) * h
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_level(jobs_per_deck: int) -> int:
    """Highest whole percentile with at least ten of a deck's jobs beyond it."""
    return max(0, math.floor(100 * (jobs_per_deck - 10) / jobs_per_deck))


def end_to_end(decks: list[Deck], setup_samples: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the details the table prints beside them."""
    timed = [[r for r in d.results if r.job.expect_fail is None] for d in decks]
    lat = [r.ref_seconds for rs in timed for r in rs]
    cases = sum(r.cases for rs in timed for r in rs)
    refs = [d.ref for d in decks]
    level = tail_level(len(timed[0]))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verdict_s": (statistics.median(refs), "s"),
        "cases_per_s": (cases / sum(refs), "1/s"),
        "job_s_p50": (percentile(lat, 50), "s"),
        "job_s_tail": (percentile(lat, level), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "decks": len(decks),
        "jobs": len(lat),
        "cases": cases,
        "tail_level": f"p{level}",
        "job_s_quartiles": [percentile(lat, 25), percentile(lat, 50), percentile(lat, 75)],
        "setup_s_samples": setup_samples,
        "deck_ref_s": refs,
        "deck_wall_s": [d.wall for d in decks],
        "host_speed": [statistics.median(r.ref_seconds / r.seconds for r in d.results if r.seconds > 0) for d in decks],
    }
    return metrics, details


# --------------------------------------------------------------------------
# the traced pass


def traced_pass(workload: str, deck: list[Job], expected: dict[str, int],
                untraced: Deck) -> tuple[dict, Deck, tracing.Spans]:
    """Fresh set-up and one deck under counters, spans and the profiler.

    The profiler covers the deck only, so the layer self times add up to the
    deck's traced wall time; counters and spans also cover the set-up.
    Per-family job times are taken from the untraced run of the same deck,
    which the profiler would distort.
    """
    counters = tracing.Counters()
    spans = tracing.Spans()
    profile = cProfile.Profile()

    def build(spec):
        with spans.span("groups.build_group", "groups"):
            return workloads.build_group(spec)

    counters.install()
    try:
        with spans.span("setup", "bench"):
            env = workloads.setup(workload, build=build)
        with spans.span("deck", "bench"):
            profile.enable()
            try:
                deck_result = run_deck(deck, env, expected, spans)
            finally:
                profile.disable()
    finally:
        counters.uninstall()

    self_s = tracing.layer_self_times(profile)
    n = counters.n
    done = [r for r in deck_result.results if r.job.expect_fail is None]
    metrics = {
        "scalar.self_s": (self_s["scalar"], "s"),
        "scalar.fraction_s": (self_s["fraction"], "s"),
        "scalar.laurent_mul_calls": (n["laurent_mul"], "count"),
        "scalar.cyclo_mul_calls": (n["cyclo_mul"], "count"),
        "scalar.cyclo_nonrational_share": (n["cyclo_mul.nonrational"] / n["cyclo_mul"] if n["cyclo_mul"] else 0.0, "ratio"),
        "fock.self_s": (self_s["fock"], "s"),
        "fock.annihilate_calls": (n["annihilate"], "count"),
        "fock.form_mono_calls": (n["form_mono"], "count"),
        "fock.form_mono_reuse_ratio": (counters.reuse_ratio("form_mono"), "ratio"),
        "fock.to_chi_calls": (n["to_chi"], "count"),
        "vertex.self_s": (self_s["vertex"], "s"),
        "vertex.mode_calls": (n["mode"], "count"),
        "vertex.ann_expand_calls": (n["ann_expand"], "count"),
        "vertex.ann_expand_reuse_ratio": (counters.reuse_ratio("ann_expand"), "ratio"),
        "vertex.normal_pair_calls": (n["normal_pair"], "count"),
        "toroidal.self_s": (self_s["toroidal"], "s"),
        "toroidal.cases": (sum(r.cases for r in done if r.job.kind in workloads.TOROIDAL), "count"),
        "wreath.self_s": (self_s["wreath"], "s"),
        "wreath.types": (n["types"], "count"),
        "repring.self_s": (self_s["repring"], "s"),
        "repring.qcartan_calls": (n["qcartan"], "count"),
        "groups.build_s": (spans.total("groups.build_group"), "s"),
    }
    for kind in FAMILY_KINDS:
        t = sum(r.seconds for r in untraced.results if r.job.layer == "cli" and r.job.kind == kind)
        metrics[f"cli.family_s.{kind}"] = (t, "s")
    metrics["report.cases"] = (sum(r.cases for r in done), "count")
    metrics["bench.self_s"] = (self_s["bench"], "s")
    metrics["other.self_s"] = (self_s["other"], "s")
    metrics["trace.wall_s"] = (deck_result.wall, "s")
    metrics["trace.untraced_s"] = (untraced.wall, "s")
    metrics["trace.overhead_s"] = (deck_result.wall - untraced.wall, "s")
    return metrics, deck_result, spans


def self_time_sum(metrics: dict) -> float:
    """Sum of the layers' self times; it should match trace.wall_s within trace.overhead_s."""
    return sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s") or k == "scalar.fraction_s")
