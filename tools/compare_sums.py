"""Compare the smooth sums of two source trees of friable_sums cell by cell.

    python tools/compare_sums.py BASE_SRC [NEW_SRC]

BASE_SRC and NEW_SRC are `src` directories (NEW_SRC defaults to this
checkout's).  Each tree is imported in its own process, which evaluates a
fixed grid: `sum_power` on the histogram path and, with `sums.HIST_LIMIT`
patched to 0, on the direct path, at (x, y) cells that the segment sieve
lists (one of them, (1.2e6, 100), in segments that span several sieve
blocks) and one, (5e6, 11), that the generator lists, at q in {1, composite,
prime, > 2^23, > 2^31, 2^40} and at q = 4099 and 10^6 + 3, whose histograms
the sieve folds from its mask in rows and in two pieces per block, at
nu in {-2, -1, 1, 3} and threads 1 and 2, and
at nu = -1 for q = 510510 = 2*3*5*7*11*13*17 and 2^20, where the sum keeps
only the n prime to q;
`sum_twisted` on both paths, and bit-identical at (1.2e7, 300), whose three
segments list on the full sweep's log sums, the first across 22 powers
of two; `sum_theta` at theta of either sign, with
denominators 2^k from k = 0 to past 62, all at |theta| < 2 (a large theta
is held against an exact oracle in tests/test_sums.py instead);
`complete_monomial_sum`, bit-identical at q = 65537 and 100003 (one and
more phase chunks of 2^16 terms), nu in {-3, -1, 2, 5} and a in {1, 3};
`sums._complete_sum` for the weil suite's a = 1 .. 20 in one pass,
bit-identical, at q in {2, 3, 499, 3217, 65521, 65537} (all but the last
gathering from a table of e_q) and nu in {2, ..., 6, -1};
`sum_prime_convolution`, one cell of it with
products of four primes past 2^80; `buchstab_expand` (each correction, in
both orderings, up to r = 6, and at (1e6, 100, r = 3), whose prime-tuple
walk spans many chunks) and `relaxed_tuple_sum`, whose `terms` is the
number of values of f the call took; `bilinear_regroup` (beta, gamma and
diagonal_terms, at j = 2, 3 and 4, and as a digest at (1e6, 7), just
under its list budget); the powers r^nu mod q of `sums._monomial_residues`
at nu = -3 and -1 for q = 1 and 2^31 + 11, on 1 to 4097 residues (odd
counts either side of a power of two leave product-tree nodes unpaired),
and `sum_power` there, bit-identical; `sum_bilinear`, also on 600 x 600
pairs, more than three chunks of 2^16, at q = 10007 and 2^31 - 1;
`split_partition_sums` (direct and regrouped, with the numbers of their
terms);
`moment_count`, one cell of it with (M + 1)^k > 2^62, past int64; the bound
envelopes FT, THM1 and E1-E4 (default eps and delta) on an (x, y, q) grid;
the leading exponents E1-E4 of `optimizer.saving_exponents` on a 201 x
401 (alpha, beta) grid over [0, 1] x [0, 2]; the relevance chart's exact
answers, `locate` and `on_boundary` for each panel, on the 41 x 81
lattice (i/40, j/40), at every vertex and at 200 seeded rationals with
denominators up to 10^6 around [0, 1] x [0, 2], and the mismatches of
`region_grid_mismatches` at eps_grid 0.002; and the prime tables,
`primes_upto` at every n up to 2000, around the sieve's segment edges
(2^22 - 1, 2^22, 2^22 + 1, 3 * 2^22 + 5) and at the 2^26 budget and one
past it, and `primes_between` on windows with NaN, infinite, negative,
fractional and segment-straddling ends, each as its size, dtype and
SHA-256 digest, or as the exception it raises, with the planner's Rankin
bound over four of them; and `smooth_plan`'s plans (segment count, first
and last bounds, floor(y) and the number of sieving primes) on an (x, y)
grid across its listing price, with the cells whose B * pi(y) / x lies
within 0.1 of the ratio 5, as (202715677, 141) at 5.05 and (6956747, 74)
at 5.04.  Then come the command-line cells of `CLI`, each run in a fresh
`python -m friable_sums.cli` process on each tree: `verify` at its default
sizes and at nine larger ones, the `phases` workload's two threaded
`scan`s (nu = -1 and 3), a `scan` of eight a's per pass at q = 101 and
4099, 13 `sum` and `sieve` cells around the
histogram's segment edges, cutoffs and log-sum certificate, 7 listing
`sum` cells at q = 16777259 > 2^23 on either side of the log sums: at
(3e7, 1e3) over 8 segments, at x = 1.2e7 with y = 9 and 10 (generated
plans) and 3464 | 3465 (across y^2 <= x), and at x = 3e6 with y = 4 | 5
(across the certificate's least y), and 12
bad or oversized requests (11 refused, and `optimize` in its trivial
regime, which answers); the table gives each one's reason.  The run passes when

* every cell has the same `terms` (and `moment_count` the same count),
* |value difference| <= 1e-14 * max(1, terms) for the sums,
* the prime convolutions, those complete sums, the residue powers and
  their sums, the moment counts, the regrouping weights, the chart's
  answers, the prime tables (and their refusals), the Rankin
  bounds and the plans are bit-identical, and the exponents equal as floats
  (a zero exponent may change sign: 0.0 == -0.0),
* each envelope is within 1e-15 of the base tree's, relative,
* in each tree, threads 1 and 2 give bit-identical sums, and
* each command-line cell gives the base tree's exit code and stdout byte
  for byte (stderr is not compared), and in each tree the exit code that
  `CLI` lists for it: 0 for a run, 2 or 3 for a refusal.

Prints one line per failing cell, a summary, and the code lines of both
trees (see code_lines.py); exits 1 on any failure.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from code_lines import code_lines

HERE = Path(__file__).resolve().parent
Q_GRID = (1, 3600, 4099, 10007, 1_000_003, (1 << 24) + 43, (1 << 32) + 15, 1 << 40)
NU_GRID = (-2, -1, 1, 3)
QNU_GRID = [(q, nu) for q in Q_GRID for nu in NU_GRID] + [(510510, -1), (1 << 20, -1)]
SEGMENT = 1 << 14
# (x, y, segment); the last cell's first segment spans four sieve blocks and
# one more entry, so it ends in a block of one
XY_GRID = ((20000, 30, SEGMENT), (150000, 100, SEGMENT), (5_000_000, 11, SEGMENT),
           (1_200_000, 100, (1 << 20) + 1))
# (x, y) cells for smooth_plan: a grid across the generator's reach, and the
# cells found with B * pi(y) / x within 0.1 of the listing price's ratio 5
PLAN_GRID = [(x, y) for x in (4194305, 10**7, 10**8, 3 * 10**8, 10**9, 5 * 10**9, 10**10)
             for y in (2, 30, 100, 1000, 10**4)]
PLAN_GRID += [(202715677, 141), (6956747, 74), (6862522, 75), (12685812, 88), (7198712, 73),
              (253453421, 149), (478432243, 164), (214184230, 142)]
TOLERANCE = 1e-14
ENVELOPE_TOLERANCE = 1e-15
_SCAN = "scan --x-grid geom:1e5:1e7:5 --y-grid 30,300 --q-grid x^0.9 --random-a 2 --threads 2 --seed 1"
# The command-line cells: (argv, the exit code each tree must give, why the
# cell is here).  The histogram folds each segment's mask of odd n into one
# accumulator and lifts it at every cutoff x / 2^a, inside a segment or at
# its end; the uint8 log sums decide every segment, counted or listed, where
# y^2 <= x and their certificate holds (y >= 5 at x = 3e6, 1e7 and 1.2e7,
# y >= 7 at 3e7 and 1e8), smooth parts elsewhere.
CLI = (
    ("verify", 0, "every suite at its default size"),
    ("verify --suite regroup --x 1e5", 0, "diagonal_terms, an exact count from the prime-tuple walk"),
    ("verify --suite buchstab --x 1e5 --y 7 --r 6 --seed 1", 0,
     "every Buchstab correction up to r = 6, recombined on three seeded (a, q)"),
    ("verify --suite wsplit --x 1e5", 0, "the split counts' array pass at 5x the benchmark's size"),
    ("verify --suite weil --x 499", 0, "the identities workload's size"),
    ("verify --suite weil --x 1500", 0, "complete sums up to q = 1499 per term"),
    ("verify --suite weil --x 3220", 0, "the largest size the work budget admits"),
    ("verify --suite partition --x 1e6 --y 100", 0, "sums over tens of thousands of split fibers"),
    ("verify --suite regroup --x 6.7e7 --y 6e7", 0, "weights counted from the primes above y, unsieved"),
    ("verify --suite regroup --x 1e6 --y 7", 0,
     "about 1.7 million multiples m * p, just under the list budget"),
    (f"{_SCAN} --nu -1", 0, "the phases workload's threaded scan at nu = -1"),
    (f"{_SCAN} --nu 3", 0, "and at nu = 3"),
    ("scan --x-grid 1e5,3e5 --y-grid 300 --q-grid 101,4099 --random-a 8 --seed 1", 0,
     "eight a's per pass at q <= 2^16, whose phases come from a table of e_q"),
    ("sum --x 3e6 --y 300 --q 16777259 --a 5 --nu -1", 0, "the direct path (q > 2^23) at nu = -1"),
    ("sum --x 1e6 --y 100 --q 4294967311 --a 3 --nu -1", 0, "a q past 2^31, whose inverses are Python ints"),
    ("sum --x 1e8 --y 1e4 --q 1000003 --a 5", 0, "y^2 = x, the log sums' first cell"),
    ("sum --x 3e7 --y 1e3 --q 65536 --a 3", 0, "the even q = 2^16"),
    ("sum --x 3e7 --y 1e3 --q 16777259 --a 5", 0, "a listing over 8 segments in log sums"),
    *((f"sum --x 1.2e7 --y {y} --q 16777259 --a 5 --nu -1", 0, why) for y, why in (
        (9, "a generated listing"), (10, "and one more"), (3464, "a listing in log sums, y^2 <= x"),
        (3465, "and by smooth parts, just past it"))),
    *((f"sum --x 3e6 --y {y} --q 16777259 --a 5 --nu -1", 0, why) for y, why in (
        (4, "a listing by smooth parts, just below the certificate"), (5, "and in log sums, at it"))),
    ("sieve --x-grid 16777215,16777216,16777217,1e7 --y-grid 1,2,13,3162,5000", 0,
     "x = 2^24 - 1 .. 2^24 + 1, where the cutoffs 2^23 and 2^24 end segments"),
    ("sieve --x-grid 3e6,4194303,4194304,4194305 --y-grid 2,3,300,1e4", 0,
     "below and just past one default segment (2^22)"),
    ("sum --x 3e6 --y 300 --q 1999999 --a 2", 0, "a sum below one default segment"),
    ("sum --x 3e6 --y 300 --q 1048576 --a 3", 0, "and there at the power of two q = 2^20"),
    ("sieve --x-grid 3e6,1e7 --y-grid 2,3,4,5,7,8,1732,1733,3162,3163", 0,
     "y = 2 .. 8 straddle the certificate's least y; 1732 | 1733 and 3162 | 3163 straddle y^2 <= x"),
    ("sum --x 1e8 --y 10001 --q 1000003 --a 5", 0, "just past y^2 = x, beside the (1e8, 1e4) cell"),
    ("sieve --x-grid 4194305,8388607,12582913,25165823 --y-grid 2,7,1000,5000", 0,
     "x = 2^22 + 1, 2^23 - 1, 3 * 2^22 + 1 and 6 * 2^22 - 1, whose cutoffs fall inside segments"),
    ("sum --x 5e7 --y 1e3 --q 999983 --a 2 --threads 2", 0, "segments on 2 threads"),
    ("sum --x 3e7 --y 300 --q 131072 --a 3 --threads 2", 0, "and there at the even q = 2^17"),
    ("sum --x 1e6 --y 10 --q 0", 2, "q < 1"),
    ("sum --x inf --y 10 --q 7", 2, "an infinite x"),
    ("sieve --x-grid geom:1:10 --y-grid 10", 2, "a geometric grid without its count"),
    ("sieve --x-grid 1e17 --y-grid 6e7", 3, "a plan that x and y rule out before primes are listed"),
    ("scan --x-grid 1e4 --y-grid 10 --q-grid x^nan", 2, "a NaN modulus"),
    ("scan --x-grid 1e9 --y-grid 100 --q-grid 101 --budget 1e6", 3, "past --budget"),
    ("scan --x-grid 1e4 --y-grid 10 --q-grid 1e30 --budget 1", 2, "a bad cell, refused before the budget"),
    ("verify --suite vaughan --x 1e30", 3, "a table past the segment budget"),
    ("verify --suite weil --x 5000", 3, "past the work budget, priced from the primes up to 2^12"),
    ("regions --eps-grid 1e-6", 3, "a lattice past LATTICE_POINTS"),
    ("optimize --alpha nan --beta 0.5", 2, "a NaN alpha"),
    ("optimize --alpha 0.9 --beta 1.5", 0, "the trivial regime, answered rather than refused"),
)
EXITS = {f"cli/{argv}": code for argv, code, _ in CLI}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def evaluate(src: str) -> dict[str, dict]:
    """Every cell of the grid, computed by the friable_sums under `src`."""
    sys.path.insert(0, src)
    import numpy as np

    from friable_sums import bounds, decomp, optimizer, sieve, sums

    out: dict[str, dict] = {}

    def put(key: str, value: complex, terms: int, check: str = "sum") -> None:
        out[key] = {"value": _pair(value), "terms": terms, "check": check}

    hist_limit = sums.HIST_LIMIT
    for path in ("hist", "direct"):
        sums.HIST_LIMIT = hist_limit if path == "hist" else 0
        for x, y, segment in XY_GRID:
            for q, nu in QNU_GRID:
                a = next(a for a in (7, 11, 19) if math.gcd(a, q) == 1)
                p = sums.SumParams(x=x, y=y, q=q, a=a, nu=nu)
                for threads in (1, 2):
                    v = sums.sum_power(p, segment=segment, threads=threads)
                    put(f"power/{path}/x={x}/y={y}/q={q}/nu={nu}/t={threads}",
                        v.value, v.terms)
                v = sums.sum_twisted(p, lambda pr: cmath.exp(1j * pr), segment=segment)
                put(f"twisted/{path}/x={x}/y={y}/q={q}/nu={nu}", v.value, v.terms)
    sums.HIST_LIMIT = hist_limit
    v = sums.sum_twisted(sums.SumParams(x=1.2e7, y=300, q=1009, a=5), lambda pr: cmath.exp(1j * pr))
    put("twisted/x=1.2e7/y=300/q=1009", v.value, v.terms, "exact")

    for x, y in ((1e6, 1e3), (3e5, 50)):
        for theta in (0.0, 0.5, 1 / 3, 12345 / 1000003, 2**0.5, 1e-5, -3e-13, 3 * 2**-70,
                      -0.7, -(2**0.5), 1.3 * 2**-10):
            v = sums.sum_theta(sums.SumParams(x=x, y=y, q=1, a=0, theta=theta), segment=SEGMENT)
            put(f"theta/x={x}/y={y}/theta={theta!r}", v.value, v.terms)
    for q in (2, 101, 10007, 65537, 1000003):
        for nu in NU_GRID:
            v = sums.complete_monomial_sum(q, 3, nu)
            put(f"complete/q={q}/nu={nu}", v.value, v.terms)
    for q in (65537, 100003):  # as long as one phase chunk of 2^16 terms, and longer
        for nu in (-3, -1, 2, 5):
            for a in (1, 3):
                v = sums.complete_monomial_sum(q, a, nu)
                put(f"complete/q={q}/a={a}/nu={nu}", v.value, v.terms, "exact")
    for q in (2, 3, 499, 3217, 65521, 65537):  # 20 a's per pass, with and without a table
        for nu in (2, 3, 4, 5, 6, -1):
            vs = sums._complete_sum(q, range(1, 21), nu)
            out[f"complete/q={q}/a=1..20/nu={nu}"] = {
                "value": [_pair(v.value) for v in vs], "terms": vs[0].terms, "check": "exact"}
    for j, x, y in ((1, 20000, 50), (2, 1e5, 30), (3, 1e5, 10)):
        for q in (1, 3600, 10007):
            for nu in NU_GRID:
                for strict in (True, False):
                    v = sums.sum_prime_convolution(j, x, y, q, 7, nu, strict=strict)
                    put(f"conv/j={j}/x={x}/y={y}/q={q}/nu={nu}/strict={strict}",
                        v.value, v.terms, "exact")
    p0 = 1048583  # the least prime above 2^20
    for strict in (True, False):
        v = sums.sum_prime_convolution(4, p0**3 * (p0 + 500), 1 << 20, 1009, 5, strict=strict)
        put(f"conv/j=4/x=p0^3*(p0+500)/y=2^20/q=1009/strict={strict}", v.value, v.terms, "exact")
    evaluated = [0]

    def phases(n):  # e_q(7 n) at q = 10007, counting the values taken
        evaluated[0] += n.size
        ang = (2.0 * math.pi / 10007) * (7 * (n % 10007) % 10007)
        return np.cos(ang) + 1j * np.sin(ang)

    for x, y, r, ordering in ((3e5, 100, 2, "strict"), (1e5, 7, 6, "strict"),
                              (20000.5, 12, 3, "nondecreasing"), (2000, 2, 6, "nondecreasing"),
                              (1e6, 100, 3, "strict")):
        evaluated[0] = 0
        e = decomp.buchstab_expand(phases, x, y, r, ordering=ordering)
        for level, c in enumerate((e.main,) + e.corrections):
            put(f"buchstab/x={x}/y={y}/r={r}/{ordering}/level={level}", c, evaluated[0])
    for j, x, y in ((2, 2e5, 7), (3, 20000.5, 5), (6, 2000, 2)):
        evaluated[0] = 0
        v = decomp.relaxed_tuple_sum(j, x, y, phases)
        put(f"relaxed/j={j}/x={x}/y={y}", v, evaluated[0])
    for j, x, y in ((2, 20000, 7), (3, 20000.5, 5), (4, 5000, 2)):
        w = decomp.bilinear_regroup(j, x, y)
        out[f"regroup/j={j}/x={x}/y={y}"] = {
            "value": [sorted(w.beta.items()), sorted(w.gamma.items()), w.diagonal_terms],
            "terms": w.diagonal_terms, "check": "exact"}
    w = decomp.bilinear_regroup(2, 1e6, 7)  # 998,727 keys, just under the list budget
    weights = json.dumps([sorted(w.beta.items()), sorted(w.gamma.items())]).encode()
    out["regroup/j=2/x=1e6/y=7"] = {"value": [hashlib.sha256(weights).hexdigest(), w.diagonal_terms],
                                    "terms": w.diagonal_terms, "check": "exact"}
    for q in (1, (1 << 31) + 11):
        for nu in (-3, -1):
            # odd residue counts either side of a power of two: unpaired tree nodes
            for size in (1, 2, 3, 1023, 1025, 4097):
                r = np.random.default_rng(size).integers(0, q, size)
                pw, units = sums._monomial_residues(r, q, nu)
                out[f"residues/q={q}/nu={nu}/n={size}"] = {
                    "value": sums._scaled(1, pw, q)[units].tolist(), "terms": int(units.sum()),
                    "check": "exact"}
            v = sums.sum_power(sums.SumParams(x=30011, y=50, q=q, a=1, nu=nu), segment=SEGMENT)
            put(f"power/exact/x=30011/y=50/q={q}/nu={nu}", v.value, v.terms, "exact")
    alpha = {m: cmath.exp(0.3j * m) for m in range(1, 120)}
    beta = {n: (-1) ** n * 0.5 for n in range(1, 90) if n % 4}
    for q in (1, 3600, 10007):
        units = [{k: w for k, w in s.items() if math.gcd(k, q) == 1} for s in (alpha, beta)]
        for nu in NU_GRID:
            v = sums.sum_bilinear(*units, 5000, q, 7, nu)
            put(f"bilinear/q={q}/nu={nu}", v.value, v.terms)
    alpha = {m: cmath.exp(0.7j * m) for m in range(1, 601)}
    beta = {n: (-1) ** n * (0.5 if n % 3 else 1j) for n in range(1, 601)}
    for q in (10007, (1 << 31) - 1):  # primes above 600: no product of two keys is a multiple of q
        for nu in (-1, 1, 3):
            v = sums.sum_bilinear(alpha, beta, 360000, q, 7, nu)
            put(f"bilinear/600x600/q={q}/nu={nu}", v.value, v.terms)
    for x, y, w in ((1e5, 10, 10), (20000.5, 50, 31.5)):
        counts = decomp.split_partition_sums(lambda n: np.ones(n.size, dtype=complex), x, y, w)
        sides = decomp.split_partition_sums(phases, x, y, w)
        for side, v, c in zip(("direct", "regrouped"), sides, counts):
            put(f"partition/x={x}/y={y}/w={w}/{side}", v, round(c.real))
    for k, nu, q, m in ((2, -1, 1009, 40), (2, 3, 3600, 60), (3, -2, 997, 20),
                        (4, 3, 1009, 1 << 16)):
        put(f"moment/k={k}/nu={nu}/q={q}/M={m}", 0j, sums.moment_count(k, nu, q, m), "exact")
    for x in (1e3, 1e5, 1e8, 1e11, 1e14):
        for y in (2.0, x**0.1, x**0.3, x**0.5, x):
            for q in (1, 97, int(x**0.5), int(x**0.9), int(x**1.3), int(x**2)):
                values = [bounds.envelope_ft(x, y, q), bounds.envelope_thm1(x, y, q)]
                values += [bounds.envelope_e(i, x, y, q) for i in (1, 2, 3, 4)]
                out[f"envelopes/x={x!r}/y={y!r}/q={q}"] = {
                    "value": values, "terms": 0, "check": "rel"}
    alpha, beta = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 2.0, 401))
    for name, e in optimizer.saving_exponents(alpha, beta).items():
        out[f"exponents/{name}"] = {"value": e.ravel().tolist(), "terms": 0, "check": "exact"}
    chart = optimizer.RegionSet(polygons=dict(optimizer.REGION_VERTICES))

    def places(points):  # locate, then on_boundary for each panel, at each point
        return [[chart.locate(a, b)] + [chart.on_boundary(name, a, b) for name in chart.polygons]
                for a, b in points]

    rng = random.Random(36)
    rationals = []
    for _ in range(200):
        den = rng.randrange(1, 10**6 + 1)
        rationals.append((Fraction(rng.randrange(-den // 10, 11 * den // 10 + 1), den),
                          Fraction(rng.randrange(-den // 10, 21 * den // 10 + 1), den)))
    for key, points in (("lattice/40", [(Fraction(i, 40), Fraction(j, 40))
                                        for j in range(81) for i in range(41)]),
                        ("vertices", [v for poly in chart.polygons.values() for v in poly]),
                        ("rationals", rationals)):
        out[f"chart/{key}"] = {"value": places(points), "terms": len(points), "check": "exact"}
    out["chart/mismatches/eps=0.002"] = {
        "value": optimizer.region_grid_mismatches(chart, eps_grid=0.002), "terms": 0,
        "check": "exact"}

    def table(call):  # a prime table as its size, dtype and digest, or what it raises
        try:
            ps = call()
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        return [ps.size, str(ps.dtype), hashlib.sha256(ps.tobytes()).hexdigest()]

    for x in (10**6, 10**8, 10**12, 10**17):  # the planner's bound, read off those tables
        for y in (7, 100, 10**4, 6 * 10**7):
            out[f"rankin/x={x}/y={y}"] = {"value": sieve._rankin_bound(x, sieve.primes_upto(y)),
                                          "terms": 0, "check": "exact"}
    for x, y in PLAN_GRID:
        bounds, y_floor, primes = sieve.smooth_plan(x, y)
        out[f"plan/x={x}/y={y}"] = {"value": [len(bounds), bounds[0], bounds[-1], y_floor,
                                              primes.size], "terms": 0, "check": "exact"}
    out["primes/upto/n=0..2000"] = {
        "value": [table(lambda: sieve.primes_upto(n)) for n in range(2001)],
        "terms": 0, "check": "exact"}
    for n in ((1 << 22) - 1, 1 << 22, (1 << 22) + 1, 3 * (1 << 22) + 5, 1 << 26, (1 << 26) + 1):
        out[f"primes/upto/n={n}"] = {
            "value": table(lambda: sieve.primes_upto(n)), "terms": 0, "check": "exact"}
    # the prime 2^23 - 15 ends a window's first segment from lo = 4194289 on
    # and starts its second from lo = 4194288
    for lo in (math.nan, -math.inf, math.inf, -7, -0.5, 0, 1.5, 2, 96.99, (1 << 22) - 0.5,
               (1 << 22) + 1, 4194288, 4194289):
        for hi in (1.99, 97.5, (1 << 22) + 40.5, (1 << 23) + 3, math.nan, math.inf,
                   (1 << 26) + 1):
            out[f"primes/between/lo={lo!r}/hi={hi!r}"] = {
                "value": table(lambda: sieve.primes_between(lo, hi)), "terms": 0, "check": "exact"}
    return out


def _sum_delta(b: dict, n: dict) -> float:
    return abs(complex(*b["value"]) - complex(*n["value"]))


def compare(base: dict[str, dict], new: dict[str, dict]) -> list[str]:
    bad = []
    if base.keys() != new.keys():
        bad.append(f"cell sets differ: {sorted(base.keys() ^ new.keys())[:5]}")
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        if b["terms"] != n["terms"]:
            bad.append(f"{key}: terms {b['terms']} -> {n['terms']}")
        elif b["check"] == "exact":
            if b["value"] != n["value"]:
                bad.append(f"{key}: not bit-identical")
        elif b["check"] == "rel":
            rel = max(abs(u - v) / abs(u) for u, v in zip(b["value"], n["value"]))
            if rel > ENVELOPE_TOLERANCE:
                bad.append(f"{key}: relative delta {rel:.3g} > {ENVELOPE_TOLERANCE}")
        else:
            diff = _sum_delta(b, n)
            if diff > TOLERANCE * max(1, b["terms"]):
                bad.append(f"{key}: |delta| = {diff:.3g} > {TOLERANCE} * max(1, terms)")
    for tree, cells in (("base", base), ("new", new)):
        for key, cell in cells.items():
            if key.endswith("/t=1") and cells[key[:-1] + "2"] != cell:
                bad.append(f"{tree} {key}: threads 1 and 2 differ")
            if key in EXITS and cell["value"][0] != EXITS[key]:
                bad.append(f"{tree} {key}: exit {cell['value'][0]}, not {EXITS[key]}")
    return bad


def run(src: str) -> dict[str, dict]:
    """Every cell on the tree at `src`: the grid in one process, then each
    command-line cell in one of its own (its stderr shown for a run, not for
    a refusal)."""
    proc = subprocess.run([sys.executable, __file__, "--evaluate", src],
                          check=True, stdout=subprocess.PIPE, text=True)
    cells = json.loads(proc.stdout)
    env = {**os.environ, "PYTHONPATH": src}
    for argv, code, _ in CLI:
        proc = subprocess.run([sys.executable, "-m", "friable_sums.cli", *argv.split()], cwd=src,
                              env=env, stdout=subprocess.PIPE,
                              stderr=None if code == 0 else subprocess.DEVNULL)
        cells[f"cli/{argv}"] = {"value": [proc.returncode, proc.stdout], "terms": 0,
                                "check": "exact"}
    return cells


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--evaluate":
        print(json.dumps(evaluate(argv[2])))
        return 0
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [Path(argv[1]).resolve(), Path(argv[2]).resolve() if len(argv) == 3 else HERE.parent / "src"]
    base, new = (run(str(src)) for src in srcs)
    bad = compare(base, new)
    for line in bad:
        print(line)
    worst = max(_sum_delta(base[k], new[k]) / max(1, base[k]["terms"])
                for k in base.keys() & new.keys() if base[k]["check"] == "sum")
    print(f"{len(base)} cells, {len(bad)} failures, "
          f"largest |delta| / max(1, terms) = {worst:.3g}")
    base_lines, new_lines = (sum(map(code_lines, (src / "friable_sums").glob("*.py"))) for src in srcs)
    print(f"code lines (tools/code_lines.py): base {base_lines}, new {new_lines}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
