"""Segmented prime-factor tables and enumeration of smooth integers.

The engine behind every smooth sum: a segmented sieve that fills, for a
window [lo, hi], the largest prime factor P(n) and smallest prime factor
p(n) of each n, plus a streaming enumerator of the y-smooth set
S(x, y) = {n <= x : P(n) <= y} that never materializes a table of size x.

Every smooth scan plans its segments once and runs them in segment order,
on a thread pool when asked (`_scan`), under one of two drivers.
`smooth_segments` hands each segment's members (and weights) to a
caller's function.  `smooth_histogram` counts S(x, y) by residue class
mod q and lists no member.  For y >= 2, S(x, y) is the disjoint union of
the 2^a * S_odd(x / 2^a), so its histogram is H = sum over a of
sigma_2^a P(floor(x / 2^a)), where P(c) counts the odd members up to c by
class and sigma_2 moves class r to 2r mod q (Bernstein, "Enumerating and
counting smooth integers", 1998).  Each segment sweeps the odd n only,
half the integers, and hands back their smoothness mask.  The driver
folds the masks, in segment order in the calling thread, into one
accumulator of counts by index j of n = 2j + 1, and at each cutoff
c = floor(x / 2^a), inside a mask or at its end, reads P(c) off it and
steps T <- P(c) + sigma_2 T (Horner), so 1 and 2 threads agree bit for
bit and no segment allocates anything of size q.  Where y^2 <= x, every
segment of either driver, the first too, decides smoothness from uint8
sums of rounded logs once their certificate holds (the log sums, below);
elsewhere it builds smooth parts.  At x = 10^8, q = 10^6 + 3, one
thread, the histogram took 0.113-0.115 s at y = 10^3 and 0.186-0.189 s
at y = 10^4, against 0.165-0.170 and 0.260-0.262 s with a count vector
per segment and a segment ending at every cutoff (best of 7 in-process
runs, 3 processes a tree, 2-core Xeon, numpy 2.4); with log sums on the
first segment too, 0.106 and 0.181 s (best of 3).  Psi(x, y) is the
histogram mod 1.
Members are int64, so x is held below 2^63.

S(x, y) is listed in one of two ways, chosen once per (x, y) by the
listing price (`_generates`):

* the segment sieve, which costs about 3.1 ns per integer up to x at
  y = 10^3 and 4.0 ns at y = 10^4 when it lists members, and 1.1 and
  1.8 ns in a histogram, on the odd sweep, all in log sums (x = 10^8,
  best of 3; 2-core Xeon, numpy 2.4), however few of them are smooth;
* a generator that multiplies each prime p <= y, with its powers, into
  the products built so far, which costs about 2.6 ns per member per
  prime, so O(Psi(x, y) * pi(y)) whatever x is.

Psi is not known in advance, so the price takes Rankin's upper bound B
for it, min over sigma of x^sigma * prod_{p <= y} (1 - p^-sigma)^-1.  The
generator is taken only when x exceeds one default segment, y <= sqrt(x),
B is at most MAX_SEGMENT entries (so its memory is certified) and
B * pi(y) <= _GENERATE_RATIO * x.  The plan is then the single segment
[1, floor(x)]; `segment` sizes sieve segments only.  x and y alone rule
the generator out when x is one default segment or less, when y > sqrt(x),
or when (y / ln y)^2 / 2 > MAX_SEGMENT: Psi counts the products of two
primes <= y <= sqrt(x), so B >= Psi >= pi(y)^2 / 2, and pi(y) > y / ln y
from y = 17 on.  Such a plan is held to its budgets before any prime is
listed: `sieve --x-grid 1e17 --y-grid 6e7` exits 3 in 0.28-0.40 s, not
1.96-3.80 s (fresh processes, 2-core Xeon).  The ratio, and every
budget a call is refused by (with `_check_budget`, before anything is
allocated or run), sit in one commented block below.

Tables and the sieve rest on one division-free kernel, `_smooth_part`:
the smooth part sp(n) = prod of p^v_p(n) over the sieving primes, built
by strided multiplies.  sp | n, so sp <= hi: it fits uint32 while the
segment's largest operand is below 2^32 (uint64 otherwise).  The segment
is sieved one block of 2^18 entries (1 MiB of uint32, which stays in L2)
at a time: sp starts from a wheel pattern of period 720720 =
2^4 3^2 5 7 11 13, which holds those prime powers, and the prime powers up
to 2^10 walk the block.  On the odd sweep entry i is n = lo + 2i: 2 drops
out, an odd prime power t hits every t-th entry, and the wheel is one
pattern of period 45045 = 3^2 5 7 11 13 in index space, laid down in one
pass.  The cofactor n / sp is <= y exactly when sp >= ceil(n / y), one
contiguous division by a scalar per block, the ceilings stepping by 2 on
the odd sweep.  The kernel builds no weights: those of a twisted scan
take one more strided walk, `_walk` over every prime power, outside it.

Smoothness needs only a yes or no per n, which rounded logarithms give, as
in the sieve of the quadratic sieve (Pomerance, "The quadratic sieve
factoring algorithm", 1984); a proven bound keeps the answer exact.  In
the kernel's log sums each hit of a power of p adds round(s log2 p) into a
uint8 entry (blocks of 2^20 entries, 1 MiB, from a wheel of log sums, on
either sweep).  round(s log2 2) = s is exact, and an n <= x has at most
log3 x odd prime factors, each rounded by under 1/2, so the entry is
within E = log3(x) / 2 of s log2 sp(n), and s = min(12, floor((255 - E) /
log2 x)) keeps it, and every wheel entry, within 255.  Where y^2 <= x
every prime <= y is sieved, so a non-smooth n keeps a cofactor >= y + 1;
each n in [2^k, 2^(k + 1)) is then smooth exactly when its sum reaches
floor(s k - E), on any segment, once s (log2(y + 1) - 1) > 2E + 1 (see
_log_scale): at x = 10^8, s = 9, from y = 7 on.  The mask is one compare
in place over the sums for each power of two a segment meets, with no
ceiling and no division, and counts, listings, twisted listings and prime
tables all read it.  Only below that y, for y > sqrt(x), and in
build_sieve, which needs the factors themselves, are smooth parts built.

Prime tables come from the same kernel, with no second sieve:
`primes_between(lo, hi)` takes the primes up to isqrt(hi) from itself and
keeps, one DEFAULT_SEGMENT of its window at a time, the n above them whose
log sum at s = 1 is 0.  All primes up to 2^26 take about 0.28 s (0.47 s
from smooth parts, 0.9-1.3 s and a tracemalloc peak of 124 MiB for the
Eratosthenes mask of n + 1 bools it replaced); small tables cost more than
the mask did, 0.14 against 0.01 ms at n = 300 and 1.2 against 0.9 ms at
n = 3 * 10^5 (2-core Xeon, numpy 2.4).

Conventions: P(1) = p(1) = 1, and real cutoffs use floor semantics
(n <= x means n <= floor(x)).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .arith import floor_int, is_prime

DEFAULT_SEGMENT = 1 << 22
# The one work rule: every budget and the listing price.  A call past a
# budget is refused by _check_budget, with ResourceLimitError (CLI exit 3),
# before anything the budget guards is allocated or run.
# Memory: an array sized from an argument holds at most MAX_SEGMENT entries,
# a Python list sized from one at most MAX_LIST items, and the optimizer's
# region lattice at most LATTICE_POINTS points (figure1_regions at eps_grid
# 5e-4, 8.0M points, peaks at 550 MiB traced and 580 MiB RSS, and takes
# 1.9-2.2 s on a 2-core Xeon).
MAX_SEGMENT = 1 << 26
MAX_LIST = 1 << 20
LATTICE_POINTS = 1 << 23
# Work, in phase terms (one e_q value summed, 66-106 ns on a 2-core Xeon
# when its cos and sin are taken): the weil suite sums at most MAX_WORK of
# them.  Its terms gather e_q from a table of q values, 15-20 ns each
# (`--x 1500` and 3220), so the budget over-prices the suite about fourfold;
# it stays, and so do its exit-3 cases.  An update of moment_count's
# fold takes 6.9 ns, so _UPDATES_PER_TERM of them cost one phase term, and
# the fold makes at most 2^30.
MAX_WORK = 1 << 26
_UPDATES_PER_TERM = 16
# scan --budget's default, in summed terms: the sum of floor(x) over its cells.
SCAN_TERMS = 1e10
# The listing price: S(x, y) is generated, not sieved, when Rankin's bound
# B <= MAX_SEGMENT has B * pi(y) <= _GENERATE_RATIO * floor(x).  A generated
# member costs about 2.6 ns per prime and a listed integer 3.1-4.0 ns (1.1-1.8
# ns in a histogram, on the odd sweep, all in log sums, x = 10^8, y = 10^3 and
# 10^4), but B overstates Psi by 5-22x, so the ratio is 5: priced lower,
# (1e8, 100) would go to the sieve, which is about 6x slower there when it
# lists members (0.12 against 0.021 s) and 2-3x on a histogram (0.043-0.071
# against 0.021-0.028 s at q = 1 and 10^6 + 3, best of 5).
_GENERATE_RATIO = 5
# Each unit a budget counts: its plural and what it guards, as refusals say.
_UNITS = {"entry": ("entries", "a memory budget"), "point": ("points", "a memory budget"),
          "phase-term": ("phase terms", "a work budget"), "update": ("updates", "a work budget"),
          "summed-term": ("summed terms", "raise scan --budget to override")}
# The sieve kernel's block (1 MiB of uint32, inside a 2 MiB L2), the largest
# prime power walked per block, and its wheel (see _smooth_part).
_BLOCK = 1 << 18
_BLOCKED_STRIDE = 1 << 10
_WHEEL_POWERS = ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
# The prime-tuple walk hands out this many tuples at a time, and the tuple
# layer evaluates their (tuple, m) terms in chunks of at most this many.
_TUPLE_CHUNK = 1 << 12


class ResourceLimitError(RuntimeError):
    """A requested table or scan exceeds the configured memory/work budget."""


def _check_budget(count: int, what: str, limit: float = MAX_SEGMENT, unit: str = "entry") -> None:
    """Refuse `what`, which needs `count` of `unit` (a key of _UNITS), with
    ResourceLimitError when count passes `limit`, a budget of the block
    above (or scan's --budget): the one refusal, made before anything is
    allocated or run."""
    if count > limit:
        raise ResourceLimitError(f"{what} needs {count} {_UNITS[unit][0]}, past the "
                                 f"{limit:.17g}-{unit} budget ({_UNITS[unit][1]})")


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count.

    Thread pools are capped at it: each thread holds a segment's buffers,
    so threads beyond it cost memory for little time (8 threads on 2 cores
    once took peak RSS from 123 to 658 MiB for a 20 % gain).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (see primes_between)."""
    return primes_between(0, n)


def primes_between(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo < p <= hi, ascending int64, from the sieve kernel.

    The primes <= isqrt(hi) come from a recursive call; above them the
    window is sieved one DEFAULT_SEGMENT at a time, and n is prime exactly
    when none of those primes divides it: when its log sum at s = 1 (see
    _smooth_part; below 40 while hi <= 2^26) is 0.  floor(hi) is held to the
    MAX_SEGMENT budget (see _check_budget), whatever lo is.
    """
    top = floor_int(hi)
    _check_budget(top, "a prime table")
    if top < 2 or not lo < top:  # a NaN lo too
        return np.empty(0, dtype=np.int64)
    first, root = 2 if lo < 2 else floor_int(lo) + 1, math.isqrt(top)
    small = primes_upto(root)
    parts = [small[small >= first]]
    for a in range(max(first, root + 1), top + 1, DEFAULT_SEGMENT):
        b = min(a + DEFAULT_SEGMENT - 1, top)
        parts.append(np.flatnonzero(_smooth_part(a, b, small, b, scale=1) == 0) + a)
    return np.concatenate(parts)


def _tuple_walk(
    ps: np.ndarray, x_floor: int, depth: int, distinct: bool
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(level, products, orderings) for every tuple of 1 to `depth` primes
    from the ascending `ps` whose product is <= x_floor, in chunks of at
    most _TUPLE_CHUNK tuples of one level.

    Indices increase strictly when `distinct`, weakly otherwise, so each
    multiset of primes comes once, and orderings is its multinomial, the
    number of its distinct orderings.  The children of a chunk of parents
    are the indices from each parent's last (plus one when distinct) up to
    the last prime <= x_floor // product, laid out by `_runs`; a child's
    multinomial is its parent's times k // c, k its level and c the run
    length of its last index.  Chunks are walked depth-first, so memory
    stays O(depth * chunk).  Products are int64 while x_floor < 2^63 and
    Python ints (in object arrays) past it, so they never wrap; so are the
    multinomials, at most depth!, while depth <= 20 (20! < 2^63).
    """
    if not ps.size:
        return
    values = ps.astype(np.int64 if x_floor < 1 << 63 else object)

    def grow(level: int, last: np.ndarray, prod: np.ndarray, weight: np.ndarray,
             run: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        start = np.maximum(last + distinct, 0)
        stop = np.searchsorted(ps, np.minimum(x_floor // prod, ps[-1]).astype(np.int64), "right")
        for t, m in _runs(np.maximum(stop - start, 0)):
            i = start[t] + m - 1
            c = np.where(i == last[t], run[t] + 1, 1)
            pr, w = prod[t] * values[i], weight[t] * (level + 1) // c
            yield level + 1, pr, w
            if level + 1 < depth:
                yield from grow(level + 1, i, pr, w, c)

    yield from grow(0, np.full(1, -1), np.ones(1, dtype=values.dtype),
                    np.ones(1, dtype=np.int64 if depth <= 20 else object),
                    np.zeros(1, dtype=np.int64))


def _runs(
    lengths: np.ndarray, chunk: Optional[int] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(t, m) for m = 1 .. lengths[t], every length >= 0, laid out flat and
    cut into chunks of at most `chunk` terms, _TUPLE_CHUNK when omitted;
    nothing for no lengths."""
    step = _TUPLE_CHUNK if chunk is None else chunk
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        # the runs first .. last meet [lo, hi); each t repeats for its overlap
        first, last = np.searchsorted(ends, [lo, hi - 1], "right")
        t = np.arange(first, last + 1)
        cover = np.minimum(ends[t], hi) - np.maximum(ends[t] - lengths[t], lo)
        t = np.repeat(t, cover.astype(np.int64))
        yield t, np.arange(lo, hi, dtype=np.int64) - (ends[t] - lengths[t]) + 1


def tuple_primes(y: float, x: float, j: int) -> np.ndarray:
    """The primes above y that a j-tuple with product <= x can hold: the
    largest is at most floor(x) // p0^(j-1), p0 the least prime above y.
    Before p0 is searched for, empty when floor(x) // least^(j-1) <= y,
    least = max(floor(y) + 1, 2): no prime above y fits then; and refused
    when floor(x) // (2 * least)^(j-1), which p0 < 2 * least (Bertrand)
    makes a lower bound on the table's top, passes the table budget.
    """
    x_floor, least = floor_int(x), max(floor_int(y) + 1, 2)
    if x_floor // least ** (j - 1) <= y:
        return np.empty(0, dtype=np.int64)
    _check_budget(x_floor // (2 * least) ** (j - 1), "a prime table")
    return primes_between(y, x_floor // next_primes_above(y, 1)[0] ** (j - 1))


def next_primes_above(y: float, count: int) -> list[int]:
    """The `count` smallest primes strictly above y.

    Walks candidates one by one with trial division, so no table of size
    O(y) is ever built; prime gaps keep the walk short.
    """
    found: list[int] = []
    n = max(floor_int(y) + 1, 2)
    while len(found) < count:
        if is_prime(n):
            found.append(n)
        n += 1
    return found


@dataclass(frozen=True)
class FactorSieve:
    """Largest/smallest prime factor tables over a segment [lo, hi].

    Attributes:
        lo, hi: inclusive segment bounds, 1 <= lo <= hi
        lpf: int64 array, lpf[n - lo] = P(n)
        spf: int64 array, spf[n - lo] = p(n)
    """

    lo: int
    hi: int
    lpf: np.ndarray
    spf: np.ndarray

    def lpf_of(self, n: int) -> int:
        self._check(n)
        return int(self.lpf[n - self.lo])

    def spf_of(self, n: int) -> int:
        self._check(n)
        return int(self.spf[n - self.lo])

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Factor n by repeated spf division; needs lo == 1."""
        if self.lo != 1:
            raise ValueError("factorize requires a sieve anchored at lo=1")
        self._check(n)
        return spf_factorization(self.spf, 1, n)

    def _check(self, n: int) -> None:
        if not (self.lo <= n <= self.hi):
            raise ValueError(f"n={n} outside sieve segment [{self.lo}, {self.hi}]")


def spf_factorization(spf: np.ndarray, offset: int, n: int) -> list[tuple[int, int]]:
    """n >= 1 as [(p, e), ...] with ascending p, by repeated division by
    its least prime factor spf[n - offset].
    """
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n - offset])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def build_sieve(lo: int, hi: int) -> FactorSieve:
    """Fill P(n) and p(n) for every n in [lo, hi] in one pass; a segment of
    more than MAX_SEGMENT entries is refused with ResourceLimitError."""
    if not (1 <= lo <= hi):
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    count = hi - lo + 1
    _check_budget(count, "a sieve segment")
    lpf = np.ones(count, dtype=np.int64)
    spf = np.zeros(count, dtype=np.int64)
    small = primes_upto(math.isqrt(hi))
    sp = _smooth_part(lo, hi, small, hi)
    cof = np.arange(lo, hi + 1, dtype=sp.dtype) // sp
    for p in small.tolist():
        lpf[-lo % p :: p] = p
    for p in small[::-1].tolist():
        spf[-lo % p :: p] = p
    big = cof > 1
    lpf[big] = cof[big]
    unset = spf == 0
    spf[unset & big] = cof[unset & big]
    spf[unset & ~big] = lpf[unset & ~big]  # only n = 1, by convention p(1) = 1
    return FactorSieve(lo=lo, hi=hi, lpf=lpf, spf=spf)


@dataclass(frozen=True)
class SmoothSet:
    """The materialized smooth set S(x, y), ascending."""

    x: float
    y: float
    members: np.ndarray = field(repr=False)

    @property
    def psi(self) -> int:
        return int(self.members.size)


@functools.cache
def _wheel_factors(powers: tuple, dtype: type, odd: bool = False, scale: int = 0) -> tuple[np.ndarray, ...]:
    """The wheel seed of `powers`, leading (p, e) of _WHEEL_POWERS, as two
    patterns, over 5 to 13 and over 2 and 3, whose periods divide 5005 and
    144: pattern[n % pattern.size] = prod of p^min(v_p(n), e) over its
    primes.  With `odd` (powers from (3, 2) on), as one pattern over the
    index j of n = 2j + 1, period dividing 45045 = 3^2 5 7 11 13.  With a
    `scale`, the log sums of those parts instead: the sum of
    min(v_p(n), e) * _hit(p, scale), at most 234 on the whole wheel (186
    on the odd one) at scale 12, _log_scale's cap.  Each is tiled to at
    least 4096 entries, so that a block takes it in few long rows.  Cached,
    as every segment and prime table takes one, and read-only.
    """
    factors = []
    for group in (powers,) if odd else (powers[2:], powers[:2]):
        pattern = np.full(math.prod(p**e for p, e in group), 0 if scale else 1, dtype=dtype)
        for p, e in group:  # 2j + 1 is a multiple of p^j from j = p^j >> 1 on
            _walk(pattern, 0, [(p**j, _hit(p, scale)) for j in range(1, e + 1)], odd, scale > 0)
        factors.append(np.tile(pattern, -(-4096 // pattern.size)))
        factors[-1].flags.writeable = False  # shared by the cache
    return tuple(factors)


def _periodic(blk: np.ndarray, pattern: np.ndarray, first: int, op: Callable = np.copyto) -> None:
    """op(view of blk, values) over views that together take
    pattern[(first + j) % pattern.size] at each blk[j]: copied there, or
    with op = operator.imul multiplied in (operator.iadd: added in)."""
    rolled = np.roll(pattern, -first)
    whole = blk.size - blk.size % pattern.size
    op(blk[:whole].reshape(-1, pattern.size), rolled)
    op(blk[whole:], rolled[: blk.size - whole])


def _smooth_part(lo: int, hi: int, primes: np.ndarray, top: int, odd: bool = False,
                 scale: int = 0) -> np.ndarray:
    """sp[n - lo] = prod of p^v_p(n) over `primes`, for n in [lo, hi]: the
    one sieve kernel.  With `odd` (lo odd), entry i is n = lo + 2i instead,
    for the odd n in [lo, hi] only, and the prime 2 is left out.

    p goes into every multiple of each power p^k <= hi, so n gets it v_p(n)
    times and sp stays a divisor of n.  sp is uint32 when `top` (>= hi, the
    largest value the caller holds beside sp) is below 2^32, else uint64.
    With a `scale` s > 0 (the log sums, on either sweep), each hit adds
    round(s log2 p) into a uint8 entry instead (see _hit), so entry i holds
    the sum of v_p(n) round(s log2 p), a rounded s log2 sp(n); the caller
    picks s so that no sum passes 255 (see _log_scale).

    Each block of _BLOCK entries (1 MiB of uint32; of uint8 log sums,
    4 * _BLOCK entries, 1 MiB too) starts from the wheel seed of the wheel
    primes that lead `primes` (period 720720 = 5005 * 144, laid down as
    the product, or with a scale the sum, of its two factors; odd, one
    pattern of period 45045 in index space, laid down once), and those
    primes walk on from their next power.  The powers up to
    _BLOCKED_STRIDE then walk the block while it is in cache; larger powers
    hit a block too rarely to pay for a call per block, so they walk the
    whole segment once.
    """
    count = (hi - lo) // (1 + odd) + 1
    dtype = np.uint8 if scale else np.uint32 if top < 1 << 32 else np.uint64
    sp = np.empty(max(count, 0), dtype=dtype)
    ps = primes.tolist()[1:] if odd and primes.size and primes[0] == 2 else primes.tolist()
    wheel = _WHEEL_POWERS[odd:]  # the odd sweep's wheel leaves 2 out
    k = 0
    while k < min(len(ps), len(wheel)) and ps[k] == wheel[k][0]:
        k += 1
    seeded = {p: p**e for p, e in wheel[:k]}  # the power the seed holds
    strides = [(t, _hit(p, scale)) for t, p in _powers(ps, hi) if t > seeded.get(p, 1)]
    seed, *factors = _wheel_factors(wheel[:k], dtype, odd, scale)
    first = lo >> odd  # entry 0's index: n = first, or n = 2 * first + 1
    blocked = [s for s in strides if s[0] <= _BLOCKED_STRIDE]
    step = _BLOCK << 2 if scale else _BLOCK  # 1 MiB either way
    for b0 in range(0, sp.size, step):
        blk = sp[b0 : b0 + step]
        _periodic(blk, seed, first + b0)
        if factors:
            _periodic(blk, factors[0], lo + b0, operator.iadd if scale else operator.imul)
        _walk(blk, first + b0, blocked, odd, scale > 0)
    _walk(sp, first, [s for s in strides if s[0] > _BLOCKED_STRIDE], odd, scale > 0)
    return sp


@functools.lru_cache(maxsize=1 << 16)
def _hit(p: int, scale: int) -> int:
    """What each hit of a power of the prime p puts into its entry: p, by
    multiplication, or with a `scale` round(scale * log2 p), by addition.
    Cached, so each log is rounded once, not once per segment and power."""
    return round(scale * math.log2(p)) if scale else p


def _powers(ps: Iterable[int], hi: int) -> Iterator[tuple[int, int]]:
    """(t, p) for every power t = p^k <= hi of each p in `ps`, in order."""
    for p in ps:
        t = p
        while t <= hi:
            yield t, p
            t *= p


def _walk(a: np.ndarray, first: int, strides: list[tuple[int, complex]], odd: bool = False,
          add: bool = False) -> None:
    """For each (t, v) of `strides`, multiply v into a[j] (add it, with
    `add`) at every multiple first + j of t, 0 <= j < a.size; with `odd`
    (t odd), at every multiple 2 * (first + j) + 1 of t, which starts at
    first + j = t >> 1 mod t.  In place on each strided view."""
    op = operator.iadd if add else operator.imul
    for t, v in strides:
        op(a[((t >> 1) * odd - first) % t :: t], v)


def _rankin_bound(x_floor: int, primes: np.ndarray) -> float:
    """Rankin's upper bound on #{n <= x_floor : every prime factor of n is
    in `primes`}: x^sigma * prod_p (1 - p^-sigma)^-1 for the least value
    over sigma > 0 that a golden-section search finds.

    Every sigma > 0 gives a bound (sum (x / n)^sigma over the products n
    counts each n <= x at least once), and the log of the bound is convex
    in sigma, so the search only tightens it.
    """
    log_x, log_p = math.log(x_floor), np.log(primes.astype(np.float64))
    buf = np.empty_like(log_p)  # every sigma's terms, in place: no temporaries

    def log_bound(sigma: float) -> float:
        np.exp(np.multiply(log_p, -sigma, out=buf), out=buf)
        return sigma * log_x - float(np.log1p(np.negative(buf, out=buf), out=buf).sum())

    lo, hi = 1e-3, 1.0
    for _ in range(40):
        m1, m2 = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        if log_bound(m1) <= log_bound(m2):
            hi = m2
        else:
            lo = m1
    return math.exp(min(log_bound(lo), log_bound(hi)))


def _generates(x_floor: int, y_floor: int, primes: np.ndarray) -> bool:
    """Whether S(x_floor, y_floor) is listed by the generator, not sieved.

    Only for x_floor beyond one default segment and y_floor <= isqrt(x_floor),
    where `primes` (every prime <= min(y_floor, isqrt(x))) are all the
    primes <= y_floor; then when Rankin's bound certifies both the memory
    (at most MAX_SEGMENT entries) and the lower cost.
    """
    if x_floor <= DEFAULT_SEGMENT or y_floor * y_floor > x_floor:
        return False
    bound = _rankin_bound(x_floor, primes)
    return bound <= MAX_SEGMENT and bound * primes.size <= _GENERATE_RATIO * x_floor


def _generate(
    hi: int, primes: np.ndarray, prime_value: Optional[Callable[[int], complex]] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Every n <= hi whose prime factors all lie in `primes`, ascending
    int64, with weights prod prime_value(p)^v_p(n) when given.

    Each prime p, with its powers, is multiplied into the products built
    so far: m * p^k is kept when m * p^(k-1) <= hi // p, so nothing wraps.
    The products are uint32 while hi < 2^32 and sorted in place; weights
    multiply by ascending p, one factor per power, as the sieve's do (numpy
    rounds a strided complex multiply by its alignment, so the two can
    still differ in the last bit).
    """
    n = np.ones(1, dtype=np.uint32 if hi < 1 << 32 else np.int64)
    w = None if prime_value is None else np.ones(1, dtype=np.complex128)
    for p in primes.tolist():
        fp = None if w is None else prime_value(p)
        parts, wparts, cur, cw = [n], [w], n, w
        while cur.size:
            keep = cur <= hi // p
            cur = cur[keep]
            cur *= p
            parts.append(cur)
            if w is not None:
                cw = cw[keep]
                cw *= fp
                wparts.append(cw)
        n = np.concatenate(parts)
        w = None if w is None else np.concatenate(wparts)
    if w is None:
        n.sort()
        return n.astype(np.int64, copy=False), None
    order = np.argsort(n)
    return n[order].astype(np.int64), w[order]


def smooth_plan(
    x: float, y: float, segment: int = DEFAULT_SEGMENT
) -> tuple[list[tuple[int, int]], int, np.ndarray]:
    """(segment bounds, floor(y), dividing primes) for a smooth scan of
    S(x, y); segments are independent, so callers may process them in any
    order or in parallel.

    The bounds tile [1, floor(x)]: sieve segments of `segment` entries, or
    the single segment [1, floor(x)] where the cost rule (see the module
    docstring) lists S(x, y) by the generator.  The primes are those
    <= min(y, isqrt(x)) either way.  Members are int64, so floor(x) >= 2^63
    is refused with ValueError, as is a segment that is not an integer >= 1.
    A sieved plan whose segments would exceed MAX_SEGMENT entries (none is
    longer than floor(x)), or that would list more than MAX_LIST segments,
    is refused with ResourceLimitError before anything is sieved or listed,
    and before the prime table where x and y alone rule the generator out.
    """
    x_floor = floor_int(x)
    y_floor = floor_int(y)
    if x_floor >= 1 << 63:
        raise ValueError(f"smooth scans need x < 2^63, got x={x}")
    if not isinstance(segment, numbers.Integral):
        raise ValueError(f"segment must be an integer, got {segment!r}")
    if segment < 1:
        raise ValueError(f"segment must be at least 1, got {segment}")
    if x_floor < 1 or y_floor < 1:
        return [], y_floor, np.empty(0, dtype=np.int64)
    top = min(y_floor, math.isqrt(x_floor))
    _check_budget(top, "a prime table")  # primes_upto(top)'s refusal stays the first
    # x and y alone rule the generator out (see the module docstring)
    sieved = (x_floor <= DEFAULT_SEGMENT or y_floor * y_floor > x_floor
              or y_floor >= 17 and (y_floor / math.log(y_floor)) ** 2 / 2 > MAX_SEGMENT)
    primes = None if sieved else primes_upto(top)
    if primes is not None and _generates(x_floor, y_floor, primes):
        return [(1, x_floor)], y_floor, primes
    _check_budget(min(segment, x_floor), "a sieve segment")
    _check_budget(-(-x_floor // segment), "a sieved plan's segment list", MAX_LIST)
    return ([(lo, min(lo + segment - 1, x_floor)) for lo in range(1, x_floor + 1, segment)],
            y_floor, primes_upto(top) if primes is None else primes)


def _cutoffs(x_floor: int, y_floor: int) -> list[int]:
    """The cutoffs floor(x / 2^a), a >= 0, descending to 1, so the least
    comes off the end first: for y >= 2, S(x, y) is the disjoint union of
    2^a * (its odd members <= x / 2^a).  Only x itself for y < 2, where 2
    is not smooth."""
    return [x_floor >> a for a in range(x_floor.bit_length())] if y_floor >= 2 else [x_floor]


def smooth_in_range(
    lo: int,
    hi: int,
    y_floor: int,
    primes: np.ndarray,
    prime_value: Optional[Callable[[int], complex]] = None,
    q: Optional[int] = None,
    x_floor: Optional[int] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Smooth members of one segment [lo, hi] of a plan up to x_floor (hi
    when omitted; see smooth_plan), optionally with multiplicative weights;
    or, with q and no prime_value, (mask, first) for smooth_histogram to
    fold over q: mask[i] tells whether the odd n = first + 2i is smooth,
    first the least odd n >= lo.

    `primes` must hold every prime <= min(y_floor, isqrt(x_floor)).  The
    whole plan [1, x_floor], where smooth_plan's cost rule picks the
    generator, is generated; with q it then gives (histogram, None), the
    histogram one int64 bincount of every member, odd or even (the member
    count for q = 1).  Otherwise it is sieved, the odd n only with q, into
    one mask of the n swept, which a listing reads its members off and a
    count hands back (2 MiB for 2^21 odd n; nothing of size q is made).
    The smoothness test is chosen from x_floor and y_floor alone:

    * where 2 <= y_floor <= isqrt(x_floor), so that `primes` are all the
      primes <= y_floor, and _log_scale's certificate holds (at x = 10^8
      from y = 7 on), the kernel adds uint8 sums of rounded logs over
      every plan prime, and n in [2^k, 2^(k + 1)) is smooth exactly when
      its sum reaches floor(s k - E): one compare in place over the sums
      for each power of two the segment meets, with no ceiling and no
      division.  A member then factors over `primes`, so its weight needs
      no cofactor;
    * otherwise the kernel builds smooth parts sp(n): the cofactor
      cof = n / sp(n) is 1, a single prime (sieving bound isqrt) or a
      product of primes above y (sieving bound y), so `cof <= y` is exactly
      the smoothness test.  As sp | n, cof <= n <= hi, so with
      y_eff = min(y_floor, hi) that test is sp >= ceil(n / y_eff), made one
      kernel block at a time.  The ceilings share sp's dtype; their
      largest numerator is hi + y_eff - 1.  A count sieves only the primes
      up to isqrt(hi) (n <= hi has at most one prime factor above it, so
      the test stays exact) and frees the smooth parts on return; a
      member of a listing whose cofactor is a prime takes its value.

    Weights take their own walk over every prime power, by ascending p
    (see _walk): prime_value is called once per sieving prime and once per
    distinct cofactor.
    """
    if q is not None and prime_value is not None:
        raise ValueError("residue counts carry no weights: pass q or prime_value, not both")
    x_floor = hi if x_floor is None else x_floor
    if lo == 1 and hi == x_floor and _generates(hi, y_floor, primes):
        members, weights = _generate(hi, primes, prime_value)
        h = q and (np.bincount(members % q, minlength=q) if q > 1 else np.full(1, members.size))
        return (members, weights) if q is None else (h, None)
    y_eff, odd = min(y_floor, hi), q is not None
    # the first n swept: the first odd one with q; past hi (none) for y < 1
    first = lo | odd if y_eff >= 1 else hi + 1
    scale = _log_scale(x_floor, y_floor) if 2 <= y_floor <= math.isqrt(x_floor) else 0
    # smooth parts of a count need no prime above isqrt(hi): n <= hi has at most one such factor
    kept = primes[: np.searchsorted(primes, math.isqrt(hi), "right") if odd and not scale else primes.size]
    sp = _smooth_part(first, hi, kept, hi + y_eff, odd, scale)
    mask = sp.view(bool) if scale else np.empty(sp.size, bool)
    # log sums: each power of two's range of n against its bar, in place
    for k in range(int(first).bit_length() - 1, int(hi).bit_length()) if scale else ():
        i0, i1 = (-(max(n - first, 0) // -(1 + odd)) for n in (1 << k, 2 << k))
        bar = max(math.floor(scale * k - _log_slack(x_floor)), 0)
        np.greater_equal(sp[i0:i1], bar, out=mask[i0:i1])
    # smooth parts: the ceilings, one block at a time
    for b0 in range(0, 0 if scale else sp.size, _BLOCK):
        b1 = min(b0 + _BLOCK, sp.size)
        ceil = np.arange(first + (b0 << odd) + y_eff - 1, first + (b1 << odd) + y_eff - 1,
                         1 + odd, dtype=sp.dtype)
        ceil //= y_eff
        np.greater_equal(sp[b0:b1], ceil, out=mask[b0:b1])
    if odd:
        return mask, first
    members = np.flatnonzero(mask) + lo
    if prime_value is None:
        return members, None
    fp = {p: prime_value(p) for p in primes.tolist()}
    weights = np.ones(sp.size, dtype=np.complex128)
    _walk(weights, lo, [(t, fp[p]) for t, p in _powers(fp, hi)])
    w = weights[mask]
    if not scale:  # each cofactor above 1 is a prime above the sieving bound
        rest = members // sp[mask].astype(np.int64)
        if np.any(large := rest > 1):
            cof, at = np.unique(rest[large], return_inverse=True)
            w[large] *= np.array([prime_value(c) for c in cof.tolist()])[at]
    return members, w


def _log_slack(x_floor: int) -> float:
    """E = log3(x_floor) / 2, the most a log sum of n <= x_floor strays from
    s log2 sp(n) (see _log_scale)."""
    return math.log(x_floor, 3) / 2


def _log_scale(x_floor: int, y_floor: int) -> int:
    """The scale s of the log sums for a plan up to x_floor at y_floor, or 0
    where their certificate fails.  The caller holds 2 <= y_floor and
    y_floor^2 <= x_floor, so that every prime <= y_floor is sieved.

    The kernel adds r_p = round(s log2 p) into n's uint8 sum for each
    power of p dividing n, on either sweep.  r_2 = s exactly, and an n <= x
    has at most log3(x) odd prime factors, each rounded by less than 1/2,
    so the sum is within E = log3(x) / 2 of s log2 sp(n) (see _log_slack).
    s = min(12, floor((255 - E) / log2 x)) keeps every sum within 255, and
    every wheel entry too (at most 234, on the whole wheel at s = 12).  A
    smooth n in [2^k, 2^(k + 1)) has sp(n) = n, so it sums to at least
    s k - E >= floor(s k - E), its bar.  A non-smooth n there has a
    cofactor >= y + 1, so sp(n) < 2^(k + 1) / (y + 1) and its sum is below
    s k - s (log2(y + 1) - 1) + E, which the certificate
    s (log2(y + 1) - 1) > 2E + 1 puts below the bar.  So `sum >= bar` is
    exactly the smoothness test, on any segment.  At x = 10^8 (s = 9,
    E = 8.4) the certificate holds from y = 7 on, at x = 2^22 from y = 5.
    """
    slack = _log_slack(x_floor)
    scale = min(12, int((255 - slack) / math.log2(x_floor)))
    return scale if scale * (math.log2(y_floor + 1) - 1) > 2 * slack + 1 else 0


def _spread(t: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """out + sigma_2 t, added into out in place: sigma_2 moves the counts t
    from class r to 2r mod q, so class r < h = ceil(q / 2) goes to 2r, and
    r >= h to 2(r - h) + q mod 2.  Two slices; while 2 * t.size <= q the
    occupied window only spreads, and costs O(t.size), not O(q).
    """
    h = (q + 1) // 2
    out[: 2 * min(t.size, h) : 2] += t[:h]
    out[q & 1 :: 2][: max(t.size - h, 0)] += t[h:]
    return out


def _fold(mask: np.ndarray, j0: int, counts: np.ndarray) -> None:
    """Add the bool mask[i] into counts[(j0 + i) % q], q = counts.size, one
    kernel block of the mask at a time.

    A block's leading piece, up to the next multiple of q, goes into
    counts[r0:] as a slice; the rest starts at residue 0 and is summed as
    whole rows of w = q * ceil(4096 / q) (each row's sum then folded over
    q), then whole rows of q, and its tail goes into counts[:tail].  Rows
    sum in uint8 while there are fewer than 256 of them, as a block's rows
    of w are.
    """
    q = counts.size
    for b0 in range(0, mask.size, _BLOCK):
        blk, r0 = mask[b0 : b0 + _BLOCK].view(np.uint8), (j0 + b0) % q
        lead = min(-r0 % q, blk.size)
        counts[r0 : r0 + lead] += blk[:lead]
        rest = blk[lead:]
        for w in (q * -(-4096 // q), q):
            if k := rest.size // w:
                rows = rest[: k * w].reshape(k, w).sum(axis=0, dtype=np.uint8 if k < 256 else np.int32)
                counts += rows.reshape(-1, q).sum(axis=0, dtype=counts.dtype)
                rest = rest[k * w :]
        counts[: rest.size] += rest


def smooth_segments(
    x: float,
    y: float,
    part: Callable,
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
    prime_value: Optional[Callable[[int], complex]] = None,
) -> Iterator:
    """part(members, weights) of each planned segment of S(x, y), in
    segment order: the one driver of every listing scan (see _scan).
    """
    return _scan(x, y, segment, threads, lambda span, y_floor, primes: part(
        *smooth_in_range(*span, y_floor, primes, prime_value, None, floor_int(x))))


def smooth_histogram(
    x: float, y: float, q: int, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> np.ndarray:
    """H[r] = #{n in S(x, y) : n = r mod q} for r < q, exact, listing no
    member: the driver of every residue count.

    For y >= 2, S(x, y) is the disjoint union of 2^a * S_odd(x / 2^a), so
    H = sum over a of sigma_2^a P(floor(x / 2^a)), P(c) the counts of the
    odd members up to c.  Each sieved segment of the plan (see smooth_plan)
    gives the smoothness mask of its odd n (see smooth_in_range), and the
    masks are folded, in segment order in the calling thread, into one
    accumulator `at` of index counts: at[j] counts the odd members
    n = 2j + 1 folded so far, j mod q for odd q and mod q / 2 for even q
    (either fixes n mod q).  At each cutoff c = floor(x / 2^a), inside a
    mask or at its end, the fold stops after the last odd n <= c, reads
    P(c) off `at` in a window of min(q, c + 1) classes (two slices: the
    odd r = 2j + 1, and for odd q the even r = 2j + 1 - q from
    at[(q - 1) / 2:]), takes one Horner step T <- P(c) + sigma_2 T, sigma_2
    the class map r -> 2r mod q (see _spread), and goes on.  So 1 and 2
    threads agree bit for bit, and the state is `at` and T: two q-vectors,
    int32 while floor(x) < 2^31, int64 past it.  A generated plan is one
    segment [1, floor(x)], whose bincount is the histogram.
    """
    x_floor = floor_int(x)
    cuts = _cutoffs(x_floor, floor_int(y))  # popped from the least
    at = np.zeros(q if q & 1 else q >> 1, dtype=np.int32 if x_floor < 1 << 31 else np.int64)
    lift = np.zeros(0, at.dtype)  # T, empty until the first cutoff
    for part, first in _scan(x, y, segment, threads, lambda span, y_floor, primes: smooth_in_range(
            *span, y_floor, primes, None, q, x_floor)):
        if first is None:  # a generated plan's histogram
            return part
        i = 0
        while cuts and (end := (cuts[-1] - first) // 2 + 1) <= part.size:  # the odd n <= c are in
            _fold(part[i:end], first // 2 + i, at)
            p, i = np.zeros(min(q, cuts.pop() + 1), at.dtype), end
            p[1::2] = at[: p.size >> 1]
            if q & 1:
                p[::2] = at[q >> 1 :][: (p.size + 1) >> 1]
            lift = _spread(lift, q, p)
        _fold(part[i:], first // 2 + i, at)
    return lift if lift.size == q else np.concatenate((lift, np.zeros(q - lift.size, lift.dtype)))


def _scan(x: float, y: float, segment: int, threads: int, one: Callable) -> Iterator:
    """one(bound, floor(y), primes) for each bound of the plan of S(x, y)
    (see smooth_plan), in order, on the threads (see _pool_map)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    bounds, y_floor, primes = smooth_plan(x, y, segment)
    yield from _pool_map(functools.partial(one, y_floor=y_floor, primes=primes), bounds, threads)


def _pool_map(fn: Callable, items: list, threads: int, nested: bool = False) -> Iterator:
    """fn(item) for each item, in order, on a pool of min(threads,
    usable_cpus()) threads when that is above 1: the one thread-pool rule.
    With `nested`, a list of fewer items than that runs in the calling
    thread instead, as fn(item, threads), so each item spreads its own work
    over the threads (scan's passes, whose segments then take the pool)."""
    workers = min(threads, usable_cpus())
    if nested and len(items) < workers:
        yield from (fn(item, threads) for item in items)
    elif workers == 1:
        yield from map(fn, items)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, items)


def iter_smooth(
    x: float,
    y: float,
    segment: int = DEFAULT_SEGMENT,
    prime_value: Optional[Callable[[int], complex]] = None,
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Stream (members, weights) arrays of S(x, y), one segment at a time.

    `weights`, present when prime_value is given, carries the completely
    multiplicative extension of prime_value over each member.
    """
    return smooth_segments(x, y, lambda members, w: (members, w), segment, prime_value=prime_value)


def smooth_members(x: float, y: float, segment: int = DEFAULT_SEGMENT) -> SmoothSet:
    """Materialize S(x, y) as an ascending array (use psi() for counts only)."""
    chunks = list(smooth_segments(x, y, lambda members, _: members, segment))
    members = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return SmoothSet(x=x, y=y, members=members)


def psi(x: float, y: float, segment: int = DEFAULT_SEGMENT) -> int:
    """Psi(x, y) = #S(x, y): the histogram mod 1 (see smooth_histogram),
    whose generated plans count their members by size."""
    return int(smooth_histogram(x, y, 1, segment)[0])
