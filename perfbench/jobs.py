"""The four workloads: which jobs each runs, and how each job's output is
reduced to checkable facts and values.

x, y and q are fixed per workload. The seed draws the residues `a` (and the
frequency theta that depends on them) and is passed to the CLI's own
`--seed`, so the same seed always gives the same jobs.

Every job's output is reduced by its `extract` function to two dicts:
`facts` hold what does not depend on the seed (Psi, term counts, the psi
column, PASS lines, exit codes) and are compared exactly; `values` hold the
seed-dependent complex sums, compared within a relative tolerance against
references recorded for each shipped seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("dense", "sparse", "phases", "identities")

Q_DENSE = 1_000_003  # prime, below HIST_LIMIT: the residue-histogram path
Q_DIRECT = (1 << 24) + 43  # prime, above sums.HIST_LIMIT = 2^23: the direct path
Q_CONV = 10_007
Q_CONV3 = 101


@dataclass(frozen=True)
class Job:
    """One unit of work. CLI jobs have `argv`; library jobs have `call`."""

    key: str
    extract: Callable[["Outcome"], tuple[dict, dict]]
    argv: tuple[str, ...] = ()
    call: Optional[Callable[[], object]] = None


@dataclass
class Outcome:
    """What one job produced: exit code and stdout, or a value, or an error."""

    rc: Optional[int] = None
    stdout: str = ""
    value: object = None
    error: Optional[str] = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    draws: dict  # the seeded inputs, for the oracle cross-checks
    # Seconds one pass took on the 2-core Xeon (numpy 2.4, Python 3.11) the
    # benchmark was defined on. A run makes round(seconds / pass_s) passes,
    # the same number on every run, so medians are taken over equal counts.
    pass_s: float
    # (key, key) pairs whose CLI stdout must be bit-identical
    identical: list[tuple[str, str]] = field(default_factory=list)


def unit_mod(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if math.gcd(a, q) == 1:
            return a


def phase_map(q: int, a: int) -> Callable[[np.ndarray], np.ndarray]:
    """n -> e_q(a n), with a n reduced mod q in integers first."""

    def f(n: np.ndarray) -> np.ndarray:
        ang = (2.0 * math.pi / q) * ((a % q) * (n % q) % q)
        return np.cos(ang) + 1j * np.sin(ang)

    return f


# ---------------------------------------------------------------------------
# output extraction
# ---------------------------------------------------------------------------

def _csv_rows(stdout: str) -> list[dict[str, str]]:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV header in output")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return rows


def extract_sum(out: Outcome) -> tuple[dict, dict]:
    (row,) = _csv_rows(out.stdout)
    facts = {"rc": out.rc, "psi": int(row["psi"])}
    facts.update({k: row[k] for k in ("x", "y", "q", "nu")})
    return facts, {"S": [float(row["re_S"]), float(row["im_S"])]}


def extract_sieve(out: Outcome) -> tuple[dict, dict]:
    rows = _csv_rows(out.stdout)
    return {"rc": out.rc, "psi": [int(r["psi"]) for r in rows]}, {}


def extract_scan(out: Outcome) -> tuple[dict, dict]:
    rows = _csv_rows(out.stdout)
    diag = [ln.split(" ")[2] for ln in out.stdout.splitlines() if ln.startswith("# diag ")]
    facts = {
        "rc": out.rc,
        "cells": [[r["x"], r["y"], r["q"], r["nu"]] for r in rows],
        "psi": [int(r["psi"]) for r in rows],
        "diag_columns": diag,
    }
    values = {"a": [int(r["a"]) for r in rows], "abs_S": [float(r["abs_S"]) for r in rows]}
    return facts, values


def extract_verify(out: Outcome) -> tuple[dict, dict]:
    return {"rc": out.rc, "lines": out.stdout.splitlines()}, {}


def extract_sumvalue(out: Outcome) -> tuple[dict, dict]:
    v = out.value
    return {"terms": v.terms}, {"S": [v.value.real, v.value.imag]}


def extract_buchstab(out: Outcome) -> tuple[dict, dict]:
    e = out.value
    terms = [e.main, *e.corrections]
    return {"r": e.r, "ordering": e.ordering}, {"S": [[t.real, t.imag] for t in terms]}


def extract_bool(out: Outcome) -> tuple[dict, dict]:
    return {"holds": bool(out.value)}, {}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _sum_job(key: str, x: str, y: str, q: int, a: int, *extra: str) -> Job:
    argv = ("sum", "--x", x, "--y", y, "--q", str(q), "--a", str(a), *extra)
    return Job(key, extract_sum, argv=argv)


def _dense(rng: random.Random, seed: int) -> Workload:
    a1, a2 = unit_mod(rng, Q_DENSE), unit_mod(rng, Q_DENSE)
    jobs = [
        _sum_job("sum.y1e3.t1", "1e8", "1e3", Q_DENSE, a1, "--threads", "1"),
        _sum_job("sum.y1e3.t2", "1e8", "1e3", Q_DENSE, a1, "--threads", "2"),
        _sum_job("sum.y1e4.t1", "1e8", "1e4", Q_DENSE, a2, "--threads", "1"),
    ]
    return Workload("dense", jobs, {"a1": a1, "a2": a2}, 8.2,
                    identical=[("sum.y1e3.t1", "sum.y1e3.t2")])


def _sparse(rng: random.Random, seed: int) -> Workload:
    a = unit_mod(rng, Q_DENSE)
    jobs = [
        Job("sieve.grid", extract_sieve,
            argv=("sieve", "--x-grid", "1e8,3e8", "--y-grid", "100")),
        _sum_job("sum.y30", "1e8", "30", Q_DENSE, a),
    ]
    return Workload("sparse", jobs, {"a": a}, 8.5)


def _phases(rng: random.Random, seed: int) -> Workload:
    a_theta, a_direct = unit_mod(rng, Q_DENSE), unit_mod(rng, Q_DIRECT)
    theta = a_theta / Q_DENSE
    scan = ("scan", "--x-grid", "geom:1e5:1e7:5", "--y-grid", "30,300",
            "--q-grid", "x^0.9", "--random-a", "2", "--threads", "2",
            "--seed", str(seed))
    jobs = [
        Job("scan.nu-1", extract_scan, argv=scan + ("--nu", "-1")),
        Job("scan.nu3", extract_scan, argv=scan + ("--nu", "3")),
        _sum_job("sum.theta", "3e7", "1e3", Q_DENSE, a_theta, "--theta", repr(theta)),
        _sum_job("sum.direct", "3e6", "300", Q_DIRECT, a_direct, "--nu", "-1"),
    ]
    draws = {"a_theta": a_theta, "theta": theta, "a_direct": a_direct,
             "a_nu": unit_mod(rng, 3981)}  # 3981 = floor(1e4^0.9), the oracle cell's q
    return Workload("phases", jobs, draws, 6.5)


def _identities(rng: random.Random, seed: int) -> Workload:
    from friable_sums import decomp, sums  # looked up per call, so tracing sees them

    a2, a3, ab = unit_mod(rng, Q_CONV), unit_mod(rng, Q_CONV3), unit_mod(rng, Q_CONV)
    f = phase_map(Q_CONV, ab)
    s = str(seed)
    verify = [
        ("buchstab", "--x", "1e5", "--y", "7", "--r", "6", "--seed", s),
        ("wsplit", "--x", "2e4"),
        ("vaughan", "--x", "1e4"),
        ("weil", "--x", "499"),
        ("regroup", "--x", "1e4"),
        ("partition", "--x", "1e5"),
        ("optimizer", "--seed", s),
    ]
    jobs = [
        Job("conv.j2", extract_sumvalue,
            call=lambda: sums.sum_prime_convolution(2, 1e6, 100, Q_CONV, a2)),
        Job("conv.j3", extract_sumvalue,
            call=lambda: sums.sum_prime_convolution(3, 1e6, 10, Q_CONV3, a3)),
        Job("buchstab.lib", extract_buchstab,
            call=lambda: decomp.buchstab_expand(f, 3e5, 100, 2)),
        # The CLI's heath-brown suite fixes z=13 with J=3, so it exits 2 for
        # x > 13^3 = 2197; this size is only reachable through the library.
        Job("heath-brown.lib", extract_bool,
            call=lambda: decomp.heath_brown_lambda_check(5000, 3, 18)),
    ]
    jobs += [Job(f"verify.{v[0]}", extract_verify, argv=("verify", "--suite") + v)
             for v in verify]
    return Workload("identities", jobs, {"a2": a2, "a3": a3, "ab": ab}, 8.0)


_BUILDERS = {"dense": _dense, "sparse": _sparse, "phases": _phases,
             "identities": _identities}


def build(name: str, seed: int) -> Workload:
    """The jobs of workload `name` for `seed`; needs friable_sums importable."""
    return _BUILDERS[name](random.Random(f"{name}/{seed}"), seed)
