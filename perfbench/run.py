"""friable-sums benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from its src/.
With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones (wall_s, cpu_s, peak_rss_mib, setup_s, pass_rate); with
--trace 1 they are the per-layer ones from perfbench/spans.py. The lines
before it give each metric with its unit, error_rate, and the environment.
Exits non-zero, printing no result, when the workload process cannot start
or set up (for instance when src/ is missing) or does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("dense", "sparse", "phases", "identities")
PROBES = 4  # extra set-up-only processes; setup_s is the median over PROBES + 1
DEADLINE_S = 170.0
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s",
         "pass_rate": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process; (monotonic time it was started, its result)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(argv)} did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker {' '.join(argv)} printed no result")
    return started, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        for _ in range(0 if args.trace else PROBES):
            started, probe = spawn(common + ["--seconds", "0", "--probe"], deadline)
            setups.append(probe["ready"] - started)
        started, res = spawn(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], deadline)
        setups.append(res["ready"] - started)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for reason in res["failures"]:
        print(f"# FAILED {reason}", file=sys.stderr)
    if args.trace:
        from spans import PER_LAYER

        metrics = {k: {"value": res["layer"][k], "unit": u} for k, u in PER_LAYER.items()}
        largest = max(res["self_by_layer"].items(), key=lambda kv: kv[1])
        print(f"# largest self time: {largest[0]} {largest[1]:.4f} s")
        for key, (was, now) in res["counts_changed"].items():
            print(f"# NOTE {key} = {now}, recorded at the benchmark's commit: {was}",
                  file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "peak_rss_mib": res["peak_rss_mib"],
            "setup_s": statistics.median(setups),
            "pass_rate": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(f"# {args.workload} seed {args.seed}: {len(res['walls'])} passes, "
          f"walls {', '.join(f'{w:.3f}' for w in res['walls'])} s")
    for name, m in metrics.items():
        v = m["value"]
        print(f"# {name} {v if isinstance(v, int) else format(v, '.6g')} {m['unit']}")
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} jobs failed)")
    print(f"# env {json.dumps(res['env'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
