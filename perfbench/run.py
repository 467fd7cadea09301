"""qvertex verification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json as a closed loop with one client (one
process, no threads, QVERTEX_THREADS removed), checks every verdict, prints
the environment, one table row of metrics with units and, as the last line,
the JSON result {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced deck
and then one traced deck, and reports the per-layer metrics and the tracing
overhead (traced minus untraced deck time); its spans are written to
.bench_out/.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# workloads.WORKLOADS, repeated: importing workloads imports qvertex, which set-up time must include
WORKLOADS = ("registry-sweep", "wreath-forms", "ope-window")
SETUP_PROBES = 4  # fresh interpreters timing set-up, besides this process


def pinned_env() -> dict:
    """The environment every measured process runs in: no thread pool, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "QVERTEX_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    """Import the benchmark's qvertex-facing modules, refusing any qvertex but src/'s."""
    sys.path.insert(0, str(SRC))
    import workloads  # imports qvertex
    import qvertex

    if SRC.resolve() not in Path(qvertex.__file__).resolve().parents:
        raise SystemExit(f"qvertex imported from {qvertex.__file__}, not from {SRC}")
    return workloads


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload: str) -> float:
    """Reference seconds to import qvertex and build the workload's groups and
    contexts in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
           "--seed", "0", "--seconds", "0"]
    out = subprocess.run(cmd, env=pinned_env(), capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for p in sorted((SRC / "qvertex").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "QVERTEX_THREADS": os.environ.get("QVERTEX_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0" or "QVERTEX_THREADS" in os.environ:
        # measure in a pinned environment: a stray QVERTEX_THREADS=2 costs 45%
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], pinned_env())
    if not (SRC / "qvertex" / "__init__.py").is_file():
        print(f"error: no qvertex sources at {SRC}", file=sys.stderr)
        return 2

    def load():
        workloads = import_workloads()
        return workloads, workloads.setup(args.workload)

    main_setup, (workloads, env) = hostspeed.reference_seconds(load)
    if args.setup_probe:
        print(json.dumps({"setup_s": main_setup}))
        return 0

    import bench

    expected = bench.load_expected()
    deck = workloads.draw(args.workload, args.seed)
    info = environment(args)
    print("env " + json.dumps(info), flush=True)

    if args.trace == 0:
        del env  # the closed loop builds every deck's contexts itself
        setup_samples = [main_setup] + [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
        decks = bench.run_closed_loop(args.workload, deck, args.seconds, expected)
        metrics, details = bench.end_to_end(decks, setup_samples, peak_rss_mb())
    else:
        untraced = bench.run_deck(deck, env, expected)
        metrics, traced, spans = bench.traced_pass(args.workload, deck, expected, untraced)
        decks = [untraced, traced]
        details = {"decks": 2, "self_s_sum": bench.self_time_sum(metrics)}
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"env": info, "spans": spans.spans, "metrics": {k: v for k, (v, _) in metrics.items()}}, fh)

    results = [r for d in decks for r in d.results]
    failed = [r for r in results if r.error is not None]
    controls = [r for r in results if r.job.expect_fail is not None]
    for r in failed:
        print(f"FAILED {r.job.key}: {r.error}", file=sys.stderr)
    print(f"negative controls: {sum(r.error is None for r in controls)}/{len(controls)} reported the expected FAIL")
    print(f"{args.workload:15s} " + "  ".join(f"{k}={fmt(v)} {u}" for k, (v, u) in metrics.items()))
    print(f"{'':15s} " + "  ".join(f"{k}={fmt(v) if not isinstance(v, list) else [fmt(x) for x in v]}"
                                   for k, v in details.items()))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
