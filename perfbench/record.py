"""Record the references the checker compares against, from the current code.

    python3 perfbench/record.py --seeds 0-23 [--workload dense ...]

Per workload it writes perfbench/refs/<workload>.json holding the facts that
do not depend on the seed (they must agree across every seed recorded), the
seed-dependent values of each seed, and the exact per-layer counts of a
traced pass. A seed is recorded only if its small-x oracle cells pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from check import REFS, check_oracle, oracle_cells
from worker import import_library, run_pass, traced_passes

import jobs
from spans import EXACT, Recorder


def seed_range(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seeds: list[int], cli) -> dict:
    facts: dict = {}
    values: dict = {}
    for seed in seeds:
        wl = jobs.build(name, seed)
        for label, lib, oracle in oracle_cells(wl):
            why = check_oracle(lib, oracle)
            if why:
                sys.exit(f"{name} seed {seed}: oracle {label}: {why}")
        p = run_pass(wl, cli)
        values[str(seed)] = {}
        for job, out in zip(wl.jobs, p.outcomes):
            if out.error is not None or out.rc not in (None, 0):
                sys.exit(f"{name} seed {seed} {job.key}: {out.error or f'exit code {out.rc}'}")
            f, v = json.loads(json.dumps(job.extract(out)))
            if facts.setdefault(job.key, f) != f:
                sys.exit(f"{name} {job.key}: facts depend on the seed ({seed})")
            if v:
                values[str(seed)][job.key] = v
        print(f"{name} seed {seed}: {p.wall:.2f} s", flush=True)
    return {"facts": facts, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-23")
    ap.add_argument("--workload", nargs="*", default=list(jobs.WORKLOADS))
    args = ap.parse_args()
    cli = import_library()
    refs = {name: record(name, seed_range(args.seeds), cli) for name in args.workload}
    # Counts last: the wrappers stay installed in this process.
    rec = Recorder()
    rec.install()
    for name, ref in refs.items():
        layer, _, _ = traced_passes(jobs.build(name, 0), cli, rec, 1.0)
        ref["counts"] = {k: layer[k] for k in EXACT}
        REFS.mkdir(exist_ok=True)
        (REFS / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFS / name}.json", flush=True)


if __name__ == "__main__":
    main()
