"""Self-tests of the benchmark: seeded decks, the correctness gate and trace accounting.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from qvertex.groups import build_group  # noqa: E402
from qvertex.repring import first_xi, hermitian_like_check, qcartan  # noqa: E402
from qvertex.scalar import Laurent  # noqa: E402

EXPECTED = bench.load_expected()


def keys(deck):
    return [j.key for j in deck]


def shape(job):
    """What a job costs: everything in its key but the seeded parameters."""
    if job.expect_fail is not None:
        return ("control", job.layer, job.key.split("|")[1])
    parts = job.key.split("|")
    if parts[0] == "wreath-forms":
        return tuple(parts[1:4])
    if parts[0] == "ope-window" and parts[3] != "product":
        return tuple(parts[1:4])
    return tuple(p.split(".")[0] for p in parts)


def test_same_seed_same_deck_other_seed_other_draw():
    for w in workloads.WORKLOADS:
        assert keys(workloads.draw(w, 7)) == keys(workloads.draw(w, 7))
        assert keys(workloads.draw(w, 7)) != keys(workloads.draw(w, 8))


def test_decks_hold_the_same_work_for_every_seed():
    for w in workloads.WORKLOADS:
        shapes = {frozenset(Counter(map(shape, workloads.draw(w, s))).items()) for s in range(5)}
        assert len(shapes) == 1, w


def test_every_drawn_job_is_in_the_grid_and_recorded():
    for w in workloads.WORKLOADS:
        grid = set(keys(workloads.grid(w)))
        assert grid <= set(EXPECTED)
        for s in range(20):
            assert {j.key for j in workloads.draw(w, s) if j.expect_fail is None} <= grid


def run(job, env, expected=EXPECTED):
    return bench.run_job(job, env, expected).error


def test_gate_accepts_negative_controls_that_fail():
    env = workloads.setup("registry-sweep")
    controls = [j for j in workloads.draw("registry-sweep", 3) if j.expect_fail is not None]
    assert {j.layer for j in controls} == {"repring", "groups"}
    for job in controls:
        assert run(job, env) is None, job.key


def test_gate_flags_a_negative_control_that_passes():
    g = build_group("cyclic:3")
    intact = workloads.Job("control|cyclic:3|intact", "control", "repring",
                           lambda env: [hermitian_like_check(qcartan(first_xi(g)))], expect_fail="a[0][1]")
    assert run(intact, {}) == "negative control passed"


def test_gate_flags_failed_reports_and_forged_case_counts():
    env = workloads.setup("registry-sweep")
    job = next(j for j in workloads.grid("registry-sweep") if j.key == "registry-sweep|cyclic:2|repring")
    assert run(job, env) is None
    forged = dict(EXPECTED, **{job.key: EXPECTED[job.key] + 1})
    assert "cases compared" in run(job, env, forged)
    assert run(job, env, {}) == "no recorded case count for this job"
    control = next(j for j in workloads.draw("registry-sweep", 3) if j.layer == "repring")
    as_job = workloads.Job(job.key, job.kind, job.layer, control.call)
    assert "FAIL" in run(as_job, env)


def test_traced_self_times_add_up_to_traced_wall_time():
    small = [j for j in workloads.grid("registry-sweep") if j.key.startswith("registry-sweep|cyclic:2|")
             and j.kind in ("repring", "fock", "wreath", "vertex")]
    env = workloads.setup("registry-sweep")
    untraced = bench.run_deck(small, env, EXPECTED)
    mul = Laurent.__mul__
    metrics, traced, spans = bench.traced_pass("registry-sweep", small, EXPECTED, untraced)
    assert Laurent.__mul__ is mul  # counters removed
    assert all(r.error is None for r in traced.results)
    wall, overhead = metrics["trace.wall_s"][0], metrics["trace.overhead_s"][0]
    assert overhead > 0
    assert abs(bench.self_time_sum(metrics) - wall) <= overhead
    assert metrics["scalar.laurent_mul_calls"][0] > 0 and metrics["vertex.mode_calls"][0] > 0
    assert metrics["report.cases"][0] == sum(EXPECTED[j.key] for j in small)
    assert [s["job"] for s in spans.spans if s["job"]] == keys(small)


def test_host_speed_rescales_by_the_probes_around_a_job():
    host = hostspeed.HostSpeed()
    host.samples = [(0.0, 0.004), (1.0, 0.008), (2.0, 0.012), (3.0, 0.004)]
    assert host.factor(1.5, 1.6) == hostspeed.NOMINAL_S / 0.010
    assert host.factor(0.5, 2.5) == hostspeed.NOMINAL_S * 4 / 0.028
    with hostspeed.HostSpeed() as live:
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(live.samples) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(cmd + ["--workload", "registry-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
