"""One workload in one fresh process: set up, run the jobs as a closed loop
(one caller; each job starts when the previous one ends) in
round(seconds / pass_s) whole passes, then check every output.

Prints one JSON line: the setup-ready time, per-pass wall and CPU seconds,
peak RSS, job counts, the environment and, with --trace 1, the per-layer
metrics. With --probe it stops once set up. Run through perfbench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A run stops adding passes once the next would end past OVERRUN x --seconds
# (or past PASSES_CAP_S), so a slow machine still ends in time.
OVERRUN = 1.4
PASSES_CAP_S = 120.0

# Spans each workload must record; a missing one means the wrapped code
# path moved, and the traced run stops instead of reporting zeros.
EXPECTED_SPANS = {
    "dense": ("sieve.segment", "sieve.plan", "sieve.primes", "sums.sum_power",
              "bounds.report", "cli.cmd_sum", "pool"),
    "sparse": ("sieve.segment", "sieve.plan", "sieve.psi", "sums.sum_power",
               "bounds.report", "cli.cmd_sieve", "cli.cmd_sum"),
    "phases": ("sieve.segment", "sums.sum_power", "sums.sum_theta", "bounds.report",
               "cli.cmd_scan", "cli.cells", "pool"),
    "identities": ("sieve.primes", "sieve.build_sieve", "sums.sum_prime_convolution",
                   "arith.floor_quotient", "arith.factorize", "decomp.buchstab_expand",
                   "decomp.bilinear_regroup", "decomp.count_admissible_splits",
                   "decomp.first_vaughan_counterexample",
                   "decomp.first_heath_brown_counterexample",
                   "optimizer.oracle_optimal_omega", "cli.cmd_verify"),
}


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list


def import_library():
    """friable_sums.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        from friable_sums import cli
    except ImportError as exc:
        sys.exit(f"cannot import friable_sums from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"friable_sums came from {cli.__file__}, not {SRC}")
    return cli


def run_job(job, cli):
    from jobs import Outcome

    try:
        if job.call is not None:
            return Outcome(value=job.call())
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(job.argv))
        return Outcome(rc=rc, stdout=out.getvalue())
    except (Exception, SystemExit) as exc:  # a job that raises fails; the run goes on
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def run_pass(wl, cli, rec=None) -> Pass:
    run = rec.wrap(run_job, "bench.job") if rec else run_job
    outcomes = []
    t0, c0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(wl.jobs):
        if rec:
            rec.job = i
        outcomes.append(run(job, cli))
    return Pass(time.perf_counter() - t0, time.process_time() - c0, outcomes)


def run_passes(wl, cli, count: int, budget: float = PASSES_CAP_S, after=None,
               rec=None) -> list[Pass]:
    """`count` passes, fewer only if the next would end past `budget` seconds."""
    passes = []
    start = time.perf_counter()
    while len(passes) < count:
        passes.append(run_pass(wl, cli, rec))
        if after:
            after(passes[-1])
        if time.perf_counter() - start + passes[-1].wall > min(budget, PASSES_CAP_S):
            break
    return passes


def check(wl, passes: list[Pass], refs: dict, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every job of every pass and the oracles."""
    from check import check_job, check_oracle, oracle_cells

    attempted, reasons = 0, []
    for p in passes:
        why = {job.key: check_job(job, out, refs, seed) for job, out in zip(wl.jobs, p.outcomes)}
        stdout = {job.key: out.stdout for job, out in zip(wl.jobs, p.outcomes)}
        for first, second in wl.identical:
            if why[second] is None and stdout[first] != stdout[second]:
                why[second] = f"output differs from {first}"
        attempted += len(why)
        reasons += [f"{key}: {r}" for key, r in why.items() if r]
    for label, lib, oracle in oracle_cells(wl):
        attempted += 1
        r = check_oracle(lib, oracle)
        if r:
            reasons.append(f"oracle {label}: {r}")
    return attempted, len(reasons), reasons


def traced_passes(wl, cli, rec, untraced_wall: float):
    """Two passes traced by the installed recorder `rec`; the exact counts
    must agree between them. Returns (per-layer metrics, passes, spans)."""
    from spans import EXACT, PER_LAYER, TraceSetupError, layer_metrics

    per_pass, kept = [], []

    def analyse(p: Pass) -> None:
        sp = rec.drain()
        missing = [n for n in EXPECTED_SPANS[wl.name] if sp.calls(n) == 0]
        if missing:
            raise TraceSetupError(f"{wl.name}: no spans recorded for {', '.join(missing)}")
        per_pass.append(layer_metrics(sp, p.wall))
        kept.append(sp)

    rec.on = True
    passes = run_passes(wl, cli, 2, after=analyse, rec=rec)
    if len(passes) < 2:
        raise TraceSetupError("too slow for two traced passes")
    rec.on = False
    for key in EXACT:
        seen = {m[key] for m in per_pass}
        if len(seen) > 1:
            raise TraceSetupError(f"{key} differs between traced passes: {sorted(seen)}")
    metrics = {k: per_pass[0][k] if unit == "count" else statistics.median(m[k] for m in per_pass)
               for k, unit in PER_LAYER.items() if k in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(p.wall for p in passes) / untraced_wall
    return metrics, passes, kept


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(numpy),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest(),
        "seed": seed,
    }


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    with contextlib.suppress(OSError):
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (d / "level").read_text().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = (d / "size").read_text().strip()
    return out


def _openblas_threads(numpy):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None  # a plain checkout: src_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop once set up")
    args = ap.parse_args()

    cli = import_library()
    import jobs
    from check import load_refs

    wl = jobs.build(args.workload, args.seed)
    refs = load_refs(args.workload)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return

    layer, kept = None, []
    if args.trace:
        from spans import Recorder, TraceSetupError

        (first,) = run_passes(wl, cli, 1)
        rec = Recorder()
        try:
            rec.install()
            layer, traced, kept = traced_passes(wl, cli, rec, first.wall)
        except TraceSetupError as exc:
            sys.exit(f"traced run stopped: {exc}")
        passes = [first] + traced
    else:
        passes = run_passes(wl, cli, max(1, round(args.seconds / wl.pass_s)),
                            OVERRUN * args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = check(wl, passes, refs, args.seed)
    result = {
        "ready": ready,
        "walls": [p.wall for p in passes],
        "cpus": [p.cpu for p in passes],
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:20],
        "env": environment(args.seed),
        "layer": layer,
    }
    if layer is not None:
        result["self_by_layer"] = kept[-1].self_by_layer()
        recorded = refs.get("counts", {})
        result["counts_changed"] = {k: [recorded[k], layer[k]] for k in recorded
                                    if k in layer and recorded[k] != layer[k]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if kept:
        import numpy as np

        np.savez_compressed(OUT / f"{stem}-spans.npz", names=np.array(kept[0].names),
                            **{f"pass{i}_{k}": v for i, sp in enumerate(kept)
                               for k, v in sp.a.items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
