"""Checker self-test: planted failures must raise error_rate and must not
crash the run.

    python3 perfbench/selftest.py

Runs small jobs through the same runner and checker as the workloads: a
verify suite sabotaged to exit 1, a job that raises, a job checked against
a deliberately perturbed reference value, one against a perturbed fact,
a pair that must be bit-identical but is not, and one correct job. It also
checks that BENCHMARK.json names every metric the benchmark prints, with
the same unit. Exits 0 when exactly the planted failures are counted and
the names agree, 1 otherwise. It is never part of a measured workload.
"""

from __future__ import annotations

import copy
import json
import sys

from run import UNITS
from spans import PER_LAYER
from worker import ROOT, check, import_library, run_pass

import jobs

SUM = ("sum", "--x", "1e4", "--y", "30", "--q", "101", "--a", "3")


def main() -> int:
    cli = import_library()
    from friable_sums import sums

    wl = jobs.Workload("selftest", [
        jobs.Job("verify.sabotage", jobs.extract_verify,
                 argv=("verify", "--suite", "buchstab", "--x", "1e4", "--sabotage")),
        jobs.Job("raises", jobs.extract_sumvalue,
                 call=lambda: sums.sum_prime_convolution(0, 1e3, 10, 101, 1)),
        jobs.Job("sum.value", jobs.extract_sum, argv=SUM),
        jobs.Job("sum.fact", jobs.extract_sum, argv=SUM),
        jobs.Job("sum.true", jobs.extract_sum, argv=SUM),
        jobs.Job("sum.other", jobs.extract_sum, argv=SUM[:-1] + ("4",)),
    ], draws={}, pass_s=1.0, identical=[("sum.true", "sum.other")])
    planted = {"verify.sabotage", "raises", "sum.value", "sum.fact", "sum.other"}

    p = run_pass(wl, cli)
    true_ref = {"facts": {}, "values": {"0": {}}}
    for job, out in zip(wl.jobs, p.outcomes):
        if job.argv and job.key != "verify.sabotage":
            facts, values = job.extract(out)
            true_ref["facts"][job.key] = facts
            true_ref["values"]["0"][job.key] = values
    true_ref["facts"]["verify.sabotage"] = {"rc": 0, "lines": []}
    refs = copy.deepcopy(true_ref)
    refs["values"]["0"]["sum.value"]["S"][0] *= 1 + 1e-6
    refs["facts"]["sum.fact"]["psi"] += 1

    attempted, failed, reasons = check(wl, [p], refs, 0)
    for r in reasons:
        print(f"counted: {r}")
    caught = {r.split(":", 1)[0] for r in reasons}
    ok = caught == planted and failed == len(planted) and attempted == len(wl.jobs)
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted}); "
          f"{'PASS' if ok else 'FAIL'}: planted {sorted(planted)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", UNITS), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != printed:
            ok = False
            print(f"FAIL: BENCHMARK.json {key} {declared} != printed {printed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
