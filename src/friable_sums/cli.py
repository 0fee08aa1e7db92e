"""Command-line front end: single sums, parameter scans, identity-suite
verification, sieve tables, relevance-region emission, and window
optimization, all with machine-readable output.

Exit codes: 0 ok, 1 verification failure, 2 invalid arguments, 3 budget
refusal.  Scans are deterministic given --seed; random residues come from
a splitmix 64-bit stream so output is reproducible across platforms.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import bounds, decomp, optimizer, sieve, sums
from .arith import floor_int
from .sieve import ResourceLimitError, _check_budget, build_sieve, primes_upto, psi

CSV_VERSION_LINE = "# friable-sums v1"
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit generator (splitmix stream), platform independent."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < lim:
                return v % n

    def unit_mod(self, q: int) -> int:
        """Uniform draw from the units modulo q (0 for q = 1)."""
        if q == 1:
            return 0
        while True:
            a = 1 + self.below(q - 1)
            if math.gcd(a, q) == 1:
                return a


def cell_rng(seed: int, index: int) -> SplitMix64:
    """Independent per-cell stream: scan cells draw identically no matter
    how work is scheduled across threads.
    """
    return SplitMix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK64)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def parse_grid(spec: str) -> tuple[str, object]:
    """Grid syntax: explicit "1e5,1e6,1e7", geometric "geom:lo:hi:count"
    (1 <= count <= MAX_LIST), or x-linked "x^0.6" (value derived from the
    row's x).
    """
    spec = spec.strip()
    if spec.startswith("x^"):
        return "powx", float(spec[2:])
    if spec.startswith("geom:"):
        _, lo, hi, count = spec.split(":")
        lo_f, hi_f, n = float(lo), float(hi), int(count)
        if not 1 <= n <= sieve.MAX_LIST or lo_f <= 0 or hi_f < lo_f:
            raise ValueError(f"bad geometric grid {spec!r}")
        if n == 1:
            return "values", [lo_f]
        ratio = (hi_f / lo_f) ** (1.0 / (n - 1))
        return "values", [lo_f * ratio**i for i in range(n)]
    vals = [float(tok) for tok in spec.split(",") if tok]
    if not vals:
        raise ValueError(f"empty grid {spec!r}")
    return "values", vals


def resolve_grid(grid: tuple[str, object], x: float) -> list[float]:
    kind, payload = grid
    if kind == "powx":
        return [x**payload]
    return list(payload)


def _grid_size(grid: tuple[str, object]) -> int:
    """The number of values a parsed grid gives each x."""
    return 1 if grid[0] == "powx" else len(grid[1])


def grid_cells(
    x_grid: tuple[str, object], y_grid: tuple[str, object], rows_per_cell: int = 1
) -> list[tuple[float, float]]:
    """The (x, y) cells of two parsed grids, x-major.  Raises ValueError for
    an x-linked x grid, then ResourceLimitError when the cells, at
    `rows_per_cell` output rows each, would make more than MAX_LIST rows,
    then ValueError for a cell with x <= 0 or y <= 0, before any work.
    """
    if x_grid[0] == "powx":
        raise ValueError("the x grid cannot be x-linked")
    rows = _grid_size(x_grid) * _grid_size(y_grid) * rows_per_cell
    _check_budget(rows, "a grid's row list", sieve.MAX_LIST)
    cells = []
    for x in resolve_grid(x_grid, 0.0):
        if not x > 0:  # checked before an x-linked y grid raises x to a power
            raise ValueError(f"grid cells need x > 0 and y > 0, got x={x}")
        for y in resolve_grid(y_grid, x):
            if not y > 0:
                raise ValueError(f"grid cells need x > 0 and y > 0, got x={x}, y={y}")
            cells.append((x, y))
    return cells


def _emit(lines: Iterable[str], path: Optional[str]) -> None:
    """Write `lines` to the file at `path`, or to stdout for None or "-"."""
    text = "".join(line + "\n" for line in lines)
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as out:
        out.write(text)


# ---------------------------------------------------------------------------
# sum / scan
# ---------------------------------------------------------------------------

SCAN_COLUMNS = ["x", "y", "q", "a", "nu", "abs_S", "psi"]
SCAN_COLUMNS += [f"envelope_{n}" for n in bounds.ENVELOPE_NAMES]
SCAN_COLUMNS += [f"ratio_{n}" for n in bounds.ENVELOPE_NAMES]


def _report_row(rep: bounds.BoundReport) -> dict[str, str]:
    p = rep.params
    row = {
        "x": _fmt(p.x),
        "y": _fmt(p.y),
        "q": str(p.q),
        "a": str(p.a),
        "nu": str(p.nu),
        "abs_S": _fmt(rep.exact_abs),
        "psi": str(rep.psi),
    }
    for name in bounds.ENVELOPE_NAMES:
        row[f"envelope_{name}"] = _fmt(rep.envelopes[name])
        row[f"ratio_{name}"] = _fmt(rep.ratios[name])
    return row


def cmd_sum(args: argparse.Namespace) -> int:
    params = sums.SumParams(x=args.x, y=args.y, q=args.q, a=args.a, nu=args.nu, theta=args.theta)
    rep = bounds.report(params, eps=args.eps, delta=args.delta, threads=args.threads)
    row = _report_row(rep)
    row["re_S"] = _fmt(rep.exact.value.real)
    row["im_S"] = _fmt(rep.exact.value.imag)
    i = SCAN_COLUMNS.index("abs_S")
    cols = SCAN_COLUMNS[:i] + ["re_S", "im_S"] + SCAN_COLUMNS[i:]
    if args.format == "json":
        _emit([json.dumps({c: row[c] for c in cols})], args.output)
    else:
        _emit([CSV_VERSION_LINE, ",".join(cols), ",".join(row[c] for c in cols)], args.output)
    return EXIT_OK


def cmd_sieve(args: argparse.Namespace) -> int:
    cells = grid_cells(parse_grid(args.x_grid), parse_grid(args.y_grid))
    rows = [(x, y, psi(x, y)) for x, y in cells]
    if args.format == "json":
        _emit([json.dumps([{"x": x, "y": y, "psi": c} for x, y, c in rows])], args.output)
    else:
        lines = [CSV_VERSION_LINE, "x,y,psi"]
        lines += [f"{_fmt(x)},{_fmt(y)},{c}" for x, y, c in rows]
        _emit(lines, args.output)
    return EXIT_OK


@dataclass(frozen=True)
class ScanSpec:
    """Grid specification for a bound-ratio scan: x/y/q grids, residue
    selection (fixed, or k seeded random units per cell), exponent, seed,
    and the budget of summed terms.
    """

    x_grid: tuple[str, object]
    y_grid: tuple[str, object]
    q_grid: tuple[str, object]
    fixed_a: int
    random_a: int  # 0 selects the fixed residue
    nu: int
    seed: int
    budget: float

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ScanSpec":
        return cls(
            x_grid=parse_grid(args.x_grid),
            y_grid=parse_grid(args.y_grid),
            q_grid=parse_grid(args.q_grid),
            fixed_a=args.a,
            random_a=args.random_a,
            nu=args.nu,
            seed=args.seed,
            budget=args.budget,
        )

    def cells(self) -> list[sums.SumParams]:
        """Grid cells in emission order; random residues are drawn from a
        per-cell stream, so the list is independent of any scheduling.

        Before any residue is drawn, raises ResourceLimitError for more than
        MAX_LIST rows, counted over the whole (x, y, q) grid times
        max(1, random_a), then ValueError for a bad cell (see grid_cells and
        SumParams), then ResourceLimitError when the cells' estimated terms,
        the sum of floor(x) over them, exceed budget.
        """
        # a random unit is coprime to q, so a = 1 checks its cell as the draw
        # would; a fixed a keeps only the q coprime to it
        a = 1 if self.random_a else self.fixed_a
        xy = grid_cells(self.x_grid, self.y_grid, _grid_size(self.q_grid) * max(1, self.random_a))
        xyq = ((x, y, max(1, floor_int(q))) for x, y in xy for q in resolve_grid(self.q_grid, x))
        laid = [(index, sums.SumParams(x=x, y=y, q=q, a=a, nu=self.nu))
                for index, (x, y, q) in enumerate(xyq) if math.gcd(a, q) == 1]
        cost = sum(floor_int(p.x) for _, p in laid) * (self.random_a or 1)
        _check_budget(cost, "scan", self.budget, "summed-term")
        if not self.random_a:
            return [p for _, p in laid]
        out: list[sums.SumParams] = []
        for index, p in laid:
            rng = cell_rng(self.seed, index)
            out += [replace(p, a=rng.unit_mod(p.q)) for _ in range(self.random_a)]
        return out


def _diag_lines(rows: list[dict[str, str]]) -> list[str]:
    lines = []
    for name in bounds.ENVELOPE_NAMES:
        col = f"ratio_{name}"
        vals = [float(r[col]) for r in rows]
        mono = all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        lines.append(
            f"# diag {col} nonincreasing={mono} values=" + ",".join(_fmt(v) for v in vals)
        )
    return lines


def cmd_scan(args: argparse.Namespace) -> int:
    bounds._check_e4(args.eps, args.delta)
    cells = ScanSpec.from_args(args).cells()
    # ScanSpec.cells emits the residues of a cell side by side; each run of
    # cells sharing (x, y, q, nu) is one pass of the sieve, bins and powers
    groups = [list(g) for _, g in itertools.groupby(cells, lambda p: (p.x, p.y, p.q, p.nu))]

    def run(group: list[sums.SumParams], threads: int = 1) -> list[dict[str, str]]:
        values = sums._monomial_sum(group, threads=threads)
        return [_report_row(bounds._with_envelopes(p, v, args.eps, args.delta))
                for p, v in zip(group, values)]

    # a pass per thread; fewer passes than threads each run their segments on them
    rows = [row for part in sieve._pool_map(run, groups, args.threads, nested=True) for row in part]

    if args.format == "json":
        _emit([json.dumps(rows)], args.output)
    else:
        lines = [CSV_VERSION_LINE, ",".join(SCAN_COLUMNS)]
        lines += [",".join(r[c] for c in SCAN_COLUMNS) for r in rows]
        lines += _diag_lines(rows)
        _emit(lines, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _given(value, default):
    """A verify size as given (0 included), or its default when unset."""
    return default if value is None else value


def _suite_buchstab(args) -> tuple[bool, str]:
    x, y, r = _given(args.x, 1e4), _given(args.y, 25.0), _given(args.r, 3)
    rng = cell_rng(args.seed, 0)
    for _ in range(3):
        q = 2 + rng.below(997)
        a = rng.unit_mod(q)
        f = _phase_map(q, a)
        exp = decomp.buchstab_expand(f, x, y, r)
        if args.sabotage and exp.corrections:
            exp = decomp.BuchstabExpansion(
                exp.x, exp.y, exp.r, exp.ordering, exp.main,
                (-exp.corrections[0],) + exp.corrections[1:],
            )
        direct = sums.sum_linear(sums.SumParams(x=x, y=y, q=q, a=a)).value
        err = abs(exp.recombined() - direct) / max(1.0, abs(direct))
        if err > 1e-9:
            return False, f"x={x} y={y} r={r} q={q} a={a}: recombination error {err:.3g}"
    return True, f"x={x} y={y} r={r}: recombination exact on 3 seeded (a, q)"


def _phase_map(q: int, a: int) -> Callable[[np.ndarray], np.ndarray]:
    """n -> e_q(a * n), gathered by a * n mod q from the q values made once,
    the same bits as making them per n (every caller's q is below 10^3)."""
    ang = (2.0 * math.pi / q) * np.arange(q)
    table = np.cos(ang) + 1j * np.sin(ang)

    def f(n: np.ndarray) -> np.ndarray:
        return table[(a % q) * (n % q) % q]

    return f


def _suite_wsplit(args) -> tuple[bool, str]:
    n_max = int(_given(args.x, 20000))
    ws = (3.0, 10.0, 50.0)
    sieve = build_sieve(1, n_max)
    for w in ws:
        counts = decomp._split_counts(n_max, w, sieve)
        # the array pass must agree with the public per-n oracle on a prefix
        for n in range(math.ceil(w), min(n_max, 1000) + 1):
            c = decomp.count_admissible_splits(n, w, sieve)
            if c != counts[n]:
                return False, f"n={n} w={w}: array pass counts {counts[n]} admissible splits, count_admissible_splits {c}"
        bad = np.flatnonzero(counts[math.ceil(w):] != 1) + math.ceil(w)
        if bad.size:
            return False, f"n={bad[0]} w={w}: {counts[bad[0]]} admissible splits (expected 1)"
    return True, f"unique splits for all n <= {n_max}, w in {ws}"


def _suite_partition(args) -> tuple[bool, str]:
    x, y, w = _given(args.x, 1e4), _given(args.y, 10.0), 10.0
    direct, regrouped = decomp.split_partition_sums(_phase_map(101, 7), x, y, w)
    err = abs(direct - regrouped) / max(1.0, abs(direct))
    if err > 1e-9:
        return False, f"x={x} y={y} w={w}: partition defect {err:.3g}"
    return True, f"x={x} y={y} w={w}: split partition exact"


def _suite_vaughan(args) -> tuple[bool, str]:
    n_max = int(_given(args.x, 2000))
    bad = decomp.first_vaughan_counterexample(n_max, 10.0, 20.0)
    if bad is not None:
        return False, f"smallest failing n={bad} (n_max={n_max}, u=10, v=20)"
    return True, f"identity holds on (20, {n_max}]"


def _suite_heath_brown(args) -> tuple[bool, str]:
    n_max = int(_given(args.x, 2000))
    # the identity needs z^3 >= n_max, and z >= 13; Newton's integer steps,
    # from above a float estimate, reach floor(cbrt(n)) however large n_max
    # is (the check itself is O(n_max), and arith_tables refuses its size)
    n = max(n_max, 1)
    z = int(n ** (1 / 3) * (1 + 1e-9)) + 1
    while (step := (2 * z + n // (z * z)) // 3) < z:
        z = step
    z = max(13, z + (z**3 < n))
    bad = decomp.first_heath_brown_counterexample(n_max, 3, z)
    if bad is not None:
        return False, f"smallest failing n={bad} (n_max={n_max}, J=3, z={z})"
    return True, f"identity holds up to {n_max} (J=3, z={z})"


def _suite_regroup(args) -> tuple[bool, str]:
    x, y = _given(args.x, 2000.0), _given(args.y, 7.0)
    f = _phase_map(5, 1)
    weights = decomp.bilinear_regroup(2, x, y)
    direct = decomp.relaxed_tuple_sum(2, x, y, f)
    grouped = decomp.regrouped_tuple_sum(weights, f)
    err = abs(direct - grouped) / max(1.0, abs(direct))
    if err > 1e-9:
        return False, f"x={x} y={y}: regrouping defect {err:.3g}"
    return True, f"x={x} y={y}: separable regrouping exact ({weights.diagonal_terms} diagonal terms)"


def _suite_weil(args) -> tuple[bool, str]:
    q_max = int(_given(args.x, 199))
    # the primes up to 2^12 already pass the work budget (from q = 3221 on), so
    # a larger q_max is refused from their terms without sieving up to it
    qs = primes_upto(top := min(q_max, 1 << 12))
    # each prime q takes 5 powers nu of min(q - 1, 20) residues a, q - 1 phases each
    terms = int((5 * np.minimum(qs - 1, 20) * (qs - 1)).sum())
    _check_budget(terms, f"the weil suite up to q={top}", sieve.MAX_WORK, "phase-term")
    for q in qs.tolist():
        avals = range(1, min(q - 1, 20) + 1)
        for nu in range(2, 7):
            # one pass over n = 1 .. q-1 per nu serves every a
            for a, s in zip(avals, sums._complete_sum(q, avals, nu)):
                excess = sums._weil_excess(s, q, nu)
                if excess is not None:
                    return False, f"q={q} nu={nu} a={a}: envelope exceeded by {excess:.3g}"
    return True, f"complete-sum envelope holds for all primes q <= {q_max}, nu in 2..6"


def _suite_optimizer(args) -> tuple[bool, str]:
    rng = cell_rng(args.seed, 1)
    count = 200
    for _ in range(count):
        alpha = rng.below(10**9) / 1e9
        beta = rng.below(10**9) / 1e9
        omega, kap = optimizer.optimal_omega(alpha, beta)
        o2, k2 = optimizer.oracle_optimal_omega(alpha, beta, step=1e-3)
        if abs(omega - o2) > 2e-3 or abs(kap - k2) > 1e-3:
            return False, f"alpha={alpha:.6f} beta={beta:.6f}: closed form ({omega:.6f}, {kap:.6f}) vs grid ({o2:.6f}, {k2:.6f})"
        if abs(optimizer.kappa(omega, alpha, beta) - omega / 2.0) > 1e-12:
            return False, f"alpha={alpha:.6f} beta={beta:.6f}: kappa != omega/2"
    return True, f"closed form matches grid oracle on {count} seeded points"


SUITES = {
    "buchstab": _suite_buchstab,
    "wsplit": _suite_wsplit,
    "partition": _suite_partition,
    "vaughan": _suite_vaughan,
    "heath-brown": _suite_heath_brown,
    "regroup": _suite_regroup,
    "weil": _suite_weil,
    "optimizer": _suite_optimizer,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # every suite runs before any line prints, so a refused run prints none
    results = [(name, *SUITES[name](args)) for name in names]
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# regions / optimize
# ---------------------------------------------------------------------------

def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def cmd_regions(args: argparse.Namespace) -> int:
    regions = optimizer.figure1_regions(eps_grid=args.eps_grid)
    payload = {
        name: [[_frac_str(a), _frac_str(b)] for a, b in poly]
        for name, poly in regions.polygons.items()
    }
    _emit([json.dumps(payload, indent=2)], args.output)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    try:
        omega, kap = optimizer.optimal_omega(args.alpha, args.beta)
    except optimizer.TrivialRegimeError as exc:
        print(json.dumps({"alpha": args.alpha, "beta": args.beta, "trivial": True,
                          "reason": str(exc)}))
        return EXIT_OK
    payload = {"alpha": args.alpha, "beta": args.beta, "omega": omega, "kappa": kap,
               "trivial": False}
    if args.beta <= 1.0:
        payload["regime"] = optimizer.two_peaks_regime(args.alpha, args.beta).value
    print(json.dumps(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least(low, name: str, kind: type = int) -> Callable[[str], object]:
    """argparse type for an option `name` read by `kind` that must be >= low
    (a float NaN is not)."""

    def number(text: str):
        n = kind(text)
        if not n >= low:
            raise argparse.ArgumentTypeError(f"{name} must be at least {low}, got {n}")
        return n

    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friable-sums",
        description="Exponential sums over smooth integers: exact sums, bound "
        "envelopes, identity verification, and exponent optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    emit = argparse.ArgumentParser(add_help=False)  # options of sum, sieve and scan
    emit.add_argument("--format", choices=("csv", "json"), default="csv")
    emit.add_argument("--output", default=None)
    report = argparse.ArgumentParser(add_help=False)  # options of sum and scan
    report.add_argument("--nu", type=int, default=1)
    report.add_argument("--eps", type=float, default=0.01)
    report.add_argument("--delta", type=float, default=0.05)
    report.add_argument("--threads", type=_at_least(1, "threads"), default=1)

    sp = sub.add_parser("sum", parents=[report, emit], help="evaluate one sum and its bound report")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--theta", type=float, default=None)
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("sieve", parents=[emit], help="emit a psi(x, y) table")
    sp.add_argument("--x-grid", required=True)
    sp.add_argument("--y-grid", required=True)
    sp.set_defaults(func=cmd_sieve)

    sp = sub.add_parser("scan", parents=[report, emit],
                        help="bound-ratio scan over an (x, y, q, a) grid")
    sp.add_argument("--x-grid", required=True)
    sp.add_argument("--y-grid", required=True)
    sp.add_argument("--q-grid", required=True)
    sp.add_argument("--a", type=int, default=1, help="fixed residue (default)")
    sp.add_argument(
        "--random-a", type=_at_least(0, "random-a"), default=0, metavar="K",
        help="draw K seeded random units mod q per cell instead of --a",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_at_least(-math.inf, "budget", float), default=sieve.SCAN_TERMS,
                    help="refuse scans whose summed term estimate exceeds this")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", help="run the identity verification suites")
    sp.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sabotage", action="store_true",
                    help="flip one expansion term (harness self-test)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("regions", help="emit the relevance-region polygons as JSON")
    sp.add_argument("--eps-grid", type=float, default=0.01)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("optimize", help="closed-form window placement at (alpha, beta)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.set_defaults(func=cmd_optimize)

    return parser


def _one_malloc_arena() -> None:
    """Have glibc serve every thread of this process from one malloc arena
    (does nothing off glibc).

    By default each --threads pool thread gets an arena of its own, which
    keeps the segment buffers the thread freed; how much it keeps depends on
    thread timing.  `dense`'s three sums at x = 1e8 (y = 1e3 at 1 and 2
    threads, y = 1e4 at 1), run 4 times in one process, peaked at 74.7-75.2
    MiB of RSS with one arena and at 98.0-103.7 MiB without it (3 processes
    each, 2-core Xeon).  Their times did not move with it, and under it a
    second thread gains nothing: the y = 1e3 sum took 0.22-0.31 s at
    --threads 2 against 0.19-0.29 s at 1 (0.25-0.34 and 0.20-0.28 s without).
    """
    if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):
        import ctypes

        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX is -8 in glibc's malloc.h


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the only place an error becomes an exit code and a
    stderr line."""
    _one_malloc_arena()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its help or usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
