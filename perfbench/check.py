"""Output checks behind `error_rate`.

A job fails when it raised, exited non-zero, or produced output that differs
from its reference: facts exactly, seed-dependent values within REL_TOL.
Seeds without stored values still get every exact check, the
bit-identical-threads check, and the small-x oracle cells below, which
compare the library against trial division and naive loops written here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from jobs import Q_CONV, Q_CONV3, Q_DENSE, Q_DIRECT, Job, Outcome, Workload, phase_map

REL_TOL = 1e-9
REFS = Path(__file__).resolve().parent / "refs"


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.exists():
        return {"facts": {}, "values": {}, "counts": {}}
    return json.loads(path.read_text())


def _close(got, want) -> bool:
    """Nested dicts and lists of numbers agree within REL_TOL of max(1, |want|)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want))
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_job(job: Job, out: Outcome, refs: dict, seed: int) -> Optional[str]:
    """None when the outcome is correct, else a one-line reason."""
    if out.error is not None:
        return f"raised {out.error}"
    if out.rc not in (None, 0):
        return f"exit code {out.rc}"
    try:
        facts, values = job.extract(out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    want_facts = refs["facts"].get(job.key)
    if want_facts is None:
        return "no recorded facts"
    if json.loads(json.dumps(facts)) != want_facts:
        return f"facts differ: got {facts}, want {want_facts}"
    want_values = refs["values"].get(str(seed), {}).get(job.key)
    if want_values is not None and not _close(values, want_values):
        return f"values differ: got {values}, want {want_values}"
    return None


# ---------------------------------------------------------------------------
# oracles: trial division and naive loops, independent of the library
# ---------------------------------------------------------------------------

def _largest_prime_factor(n: int) -> int:
    big, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            big, n = d, n // d
        d += 1
    return max(big, n)


def _is_prime(n: int) -> bool:
    return n >= 2 and _largest_prime_factor(n) == n


def _e(num: int, den: int) -> complex:
    ang = 2.0 * math.pi * (num % den) / den
    return complex(math.cos(ang), math.sin(ang))


def _fsum(zs: list[complex]) -> complex:
    return complex(math.fsum(z.real for z in zs), math.fsum(z.imag for z in zs))


def naive_smooth_sum(x: int, y: int, q: int, a: int, nu: int) -> tuple[complex, int]:
    """Sum of e_q(a n^nu) over y-smooth n <= x (n coprime to q when nu < 0)."""
    zs = [_e(a * pow(n, nu, q), q) for n in range(1, x + 1)
          if _largest_prime_factor(n) <= y and (nu > 0 or math.gcd(n, q) == 1)]
    return _fsum(zs), len(zs)


def naive_theta_sum(x: int, y: int, theta: float) -> tuple[complex, int]:
    """Sum of e(theta n) over y-smooth n <= x, theta n reduced mod 1 exactly."""
    t = Fraction(theta)
    zs = []
    for n in range(1, x + 1):
        if _largest_prime_factor(n) <= y:
            frac = t * n % 1
            zs.append(_e(frac.numerator, frac.denominator))
    return _fsum(zs), len(zs)


def naive_prime_convolution(j: int, x: int, y: int, q: int, a: int) -> tuple[complex, int]:
    """Sum over primes y < p_1 < ... < p_j and m <= x / prod of e_q(a m prod)."""
    ps = [p for p in range(int(y) + 1, x + 1) if _is_prime(p)]
    zs: list[complex] = []

    def walk(i0: int, depth: int, prod: int) -> None:
        for i in range(i0, len(ps)):
            pr = prod * ps[i]
            if pr > x:
                break
            if depth + 1 == j:
                zs.extend(_e(a * m * pr, q) for m in range(1, x // pr + 1))
            else:
                walk(i + 1, depth + 1, pr)

    walk(0, 0, 1)
    return _fsum(zs), len(zs)


def oracle_cells(wl: Workload) -> list[tuple[str, Callable[[], tuple], Callable[[], tuple]]]:
    """(label, library call, oracle call) for small-x cells that take the
    same code paths as the workload's jobs with the same seeded residues.
    Both calls return (complex sum, number of terms).
    """
    from friable_sums import decomp, sums

    def lib_power(x, y, q, a, nu=1, theta=None):
        p = sums.SumParams(x=x, y=y, q=q, a=a, nu=nu, theta=theta)
        v = sums.sum_power(p) if theta is None else sums.sum_theta(p)
        return v.value, v.terms

    d = wl.draws
    if wl.name == "dense":
        return [
            ("sum x=3e4 y=1e3", lambda: lib_power(3e4, 1e3, Q_DENSE, d["a1"]),
             lambda: naive_smooth_sum(30000, 1000, Q_DENSE, d["a1"], 1)),
            ("sum x=3e4 y=1e4", lambda: lib_power(3e4, 1e4, Q_DENSE, d["a2"]),
             lambda: naive_smooth_sum(30000, 10000, Q_DENSE, d["a2"], 1)),
        ]
    if wl.name == "sparse":
        return [("sum x=3e4 y=30", lambda: lib_power(3e4, 30, Q_DENSE, d["a"]),
                 lambda: naive_smooth_sum(30000, 30, Q_DENSE, d["a"], 1))]
    if wl.name == "phases":
        q = 3981
        return [
            ("sum x=1e4 y=30 nu=-1", lambda: lib_power(1e4, 30, q, d["a_nu"], -1),
             lambda: naive_smooth_sum(10000, 30, q, d["a_nu"], -1)),
            ("sum x=1e4 y=300 nu=3", lambda: lib_power(1e4, 300, q, d["a_nu"], 3),
             lambda: naive_smooth_sum(10000, 300, q, d["a_nu"], 3)),
            ("theta x=2e4 y=1e3", lambda: lib_power(2e4, 1e3, Q_DENSE, d["a_theta"], theta=d["theta"]),
             lambda: naive_theta_sum(20000, 1000, d["theta"])),
            ("direct x=2e4 y=300 nu=-1", lambda: lib_power(2e4, 300, Q_DIRECT, d["a_direct"], -1),
             lambda: naive_smooth_sum(20000, 300, Q_DIRECT, d["a_direct"], -1)),
        ]

    if wl.name != "identities":
        return []

    def lib_conv(j, x, y, q, a):
        v = sums.sum_prime_convolution(j, x, y, q, a)
        return v.value, v.terms

    def buchstab_identity():
        # The alternating expansion recombines to the smooth sum exactly.
        e = decomp.buchstab_expand(phase_map(Q_CONV, d["ab"]), 3e4, 100, 2)
        return e.recombined(), 0

    return [
        ("conv j=2 x=3e4", lambda: lib_conv(2, 3e4, 100, Q_CONV, d["a2"]),
         lambda: naive_prime_convolution(2, 30000, 100, Q_CONV, d["a2"])),
        ("conv j=3 x=3e4", lambda: lib_conv(3, 3e4, 10, Q_CONV3, d["a3"]),
         lambda: naive_prime_convolution(3, 30000, 10, Q_CONV3, d["a3"])),
        ("buchstab x=3e4", buchstab_identity,
         lambda: (naive_smooth_sum(30000, 100, Q_CONV, d["ab"], 1)[0], 0)),
    ]


def check_oracle(lib: Callable[[], tuple], oracle: Callable[[], tuple]) -> Optional[str]:
    try:
        got, got_terms = lib()
    except Exception as exc:  # a failing library call is a failed check, not a crash
        return f"library raised {type(exc).__name__}: {exc}"
    want, want_terms = oracle()
    if got_terms != want_terms:
        return f"terms {got_terms} != oracle {want_terms}"
    if abs(got - want) > REL_TOL * max(1.0, abs(want)):
        return f"sum {got!r} != oracle {want!r}"
    return None
