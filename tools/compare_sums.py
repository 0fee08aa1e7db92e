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
`sum_twisted` on both paths; `sum_theta` at theta of either sign, with
denominators 2^k from k = 0 to past 62, all at |theta| < 2 (a large theta
is held against an exact oracle in tests/test_sums.py instead);
`complete_monomial_sum`, bit-identical at q = 65537 and 100003 (one and
more phase chunks of 2^16 terms), nu in {-3, -1, 2, 5} and a in {1, 3};
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
at 5.04.  The run passes when

* every cell has the same `terms` (and `moment_count` the same count),
* |value difference| <= 1e-14 * max(1, terms) for the sums,
* the prime convolutions, those complete sums, the residue powers and
  their sums, the moment counts, the regrouping weights, the chart's
  answers, the prime tables (and their refusals), the Rankin
  bounds and the plans are bit-identical, and the exponents equal as floats
  (a zero exponent may change sign: 0.0 == -0.0),
* each envelope is within 1e-15 of the base tree's, relative, and
* in each tree, threads 1 and 2 give bit-identical sums.

Prints one line per failing cell and a summary; exits 1 on any failure.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    return bad


def run(src: str) -> dict[str, dict]:
    proc = subprocess.run([sys.executable, __file__, "--evaluate", src],
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--evaluate":
        print(json.dumps(evaluate(argv[2])))
        return 0
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base = run(str(Path(argv[1]).resolve()))
    new = run(str(Path(argv[2]).resolve()) if len(argv) == 3 else str(HERE.parent / "src"))
    bad = compare(base, new)
    for line in bad:
        print(line)
    worst = max(_sum_delta(base[k], new[k]) / max(1, base[k]["terms"])
                for k in base.keys() & new.keys() if base[k]["check"] == "sum")
    print(f"{len(base)} cells, {len(bad)} failures, "
          f"largest |delta| / max(1, terms) = {worst:.3g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
