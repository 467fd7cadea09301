"""Record the case count of every job in a workload's grid into expected_cases.json.

    python3 perfbench/record_cases.py [WORKLOAD ...]

The benchmark's correctness gate fails a job whose summed n_cases differs
from the count recorded here, so run this only on a commit whose verdicts are
trusted, and only when the grids in workloads.py change.  Nothing is written
if any job fails or raises.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict[str, int]:
    env = workloads.setup(workload)
    out = {}
    t0 = time.perf_counter()
    for job in workloads.grid(workload):
        reports = job.call(env)
        bad = [r for r in reports if not r.passed]
        if bad:
            raise SystemExit(f"{job.key}: {bad[0].check_id} FAIL {bad[0].fail_detail}")
        out[job.key] = sum(r.n_cases for r in reports)
    print(f"{workload}: {len(out)} jobs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def main(names: list[str]) -> int:
    names = names or list(workloads.WORKLOADS)
    recorded = {name: record(name) for name in names}
    data = bench.load_expected() if bench.EXPECTED_PATH.exists() else {}
    for name, counts in recorded.items():
        data = {k: v for k, v in data.items() if not k.startswith(name + "|")}
        data.update(counts)
    with open(bench.EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
