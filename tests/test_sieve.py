import cmath
import functools
import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friable_sums import sieve
from friable_sums.sieve import (
    DEFAULT_SEGMENT,
    MAX_SEGMENT,
    ResourceLimitError,
    build_sieve,
    iter_smooth,
    primes_between,
    primes_upto,
    psi,
    smooth_in_range,
    smooth_members,
    smooth_histogram,
    smooth_plan,
    smooth_segments,
)
from oracles import trial_factors, trial_largest_prime_factor


def test_build_sieve_first_ten():
    fs = build_sieve(1, 10)
    assert fs.lpf.tolist() == [1, 2, 3, 2, 5, 3, 7, 2, 3, 5]
    assert fs.spf.tolist() == [1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_build_sieve_prime_segment():
    fs = build_sieve(97, 97)
    assert fs.lpf_of(97) == 97
    assert fs.spf_of(97) == 97
    for n in (96, 98):
        for lookup in (fs.lpf_of, fs.spf_of):
            with pytest.raises(ValueError, match="outside sieve segment"):
                lookup(n)


def test_build_sieve_segment_matches_anchored():
    full = build_sieve(1, 3000)
    for lo, hi in [(2, 101), (500, 1497), (2999, 3000)]:
        seg = build_sieve(lo, hi)
        assert seg.lpf.tolist() == full.lpf[lo - 1 : hi].tolist()
        assert seg.spf.tolist() == full.spf[lo - 1 : hi].tolist()


def test_sieve_invariants():
    fs = build_sieve(1, 5000)
    for n in range(2, 5001):
        lpf, spf = fs.lpf_of(n), fs.spf_of(n)
        assert spf <= lpf
        assert n % lpf == 0 and n % spf == 0
        if lpf == n:  # n prime
            assert spf == n
        else:
            assert spf * spf <= n


def test_segment_budget_enforced():
    with pytest.raises(ResourceLimitError):
        build_sieve(1, 10**9)


@pytest.mark.parametrize("segment", [1e5, 4096.0, "4096"])
def test_segment_that_is_not_an_integer_is_refused(segment):
    with pytest.raises(ValueError, match="segment must be an integer"):
        psi(1e6, 100, segment=segment)
    with pytest.raises(ValueError, match="segment must be an integer"):
        smooth_plan(0.5, 100, segment=segment)
    assert psi(1e6, 100, segment=np.int64(10**5)) == psi(1e6, 100)


@pytest.mark.parametrize("segment", [0, -1, -5])
def test_segment_below_one_is_refused(segment):
    with pytest.raises(ValueError, match="segment must be at least 1"):
        psi(1e6, 100, segment=segment)
    with pytest.raises(ValueError, match="segment must be at least 1"):
        smooth_plan(0.5, 100, segment=segment)


def test_sieve_segments_past_the_budget_are_refused_before_sieving():
    # the kernel may list the plan's primes, those up to min(y, isqrt(x)) = 10^4,
    # and sieve nothing else
    real = sieve._smooth_part

    def kernel(lo, hi, primes, top, *mode, **scale):
        assert hi <= 10**4, "sieved"
        return real(lo, hi, primes, top, *mode, **scale)

    with mock.patch.object(sieve, "_smooth_part", side_effect=kernel):
        with pytest.raises(ResourceLimitError, match="entry budget"):
            psi(1e8, 1e4, segment=2**27)
        with pytest.raises(ResourceLimitError, match="entry budget"):
            smooth_plan(1e8, 1e4, segment=MAX_SEGMENT + 1)
        with pytest.raises(ResourceLimitError, match="entry budget"):
            smooth_plan(MAX_SEGMENT + 1, 1e4, segment=1 << 30)
    assert smooth_plan(1e8, 1e4, segment=MAX_SEGMENT)[0][0] == (1, MAX_SEGMENT)
    # a segment longer than x is cut to x; the generator's plan ignores it
    assert psi(1e5, 100, segment=1 << 30) == psi(1e5, 100) == 17442
    assert smooth_plan(1e8, 100, segment=2**27)[0] == [(1, 10**8)]
    # a generated plan is one segment, far past the sieved plans' 2^20
    assert psi(1e18, 2) == 60


def test_smooth_members_against_trial_division_oracle():
    x = 10**5
    lpf = [0] * (x + 1)
    for n in range(1, x + 1):
        lpf[n] = trial_largest_prime_factor(n)
    for y in (2, 3, 5, 7, 11, 31, 97):
        expected = [n for n in range(1, x + 1) if lpf[n] <= y]
        got = smooth_members(x, y)
        assert got.members.tolist() == expected
        assert got.psi == len(expected) == psi(x, y)


def test_psi_hand_values():
    assert psi(10, 2) == 4
    assert psi(100, 3) == 20
    assert psi(30, 5) == 18
    assert psi(1000, 1000) == 1000


def test_smooth_members_powers_of_two():
    assert smooth_members(10, 2).members.tolist() == [1, 2, 4, 8]


def test_psi_floor_semantics_and_edges():
    assert psi(10.9, 2) == psi(10, 2)
    assert psi(0.5, 10) == 0
    assert psi(10, 0.5) == 0
    assert psi(10, 1) == 1  # only n = 1 has P(n) <= 1
    for x in (17, 100, 350):
        assert psi(x, x) == x  # y >= x counts everything


def test_psi_monotone_in_x_and_y():
    values = {(x, y): psi(x, y) for x in (50, 100, 200) for y in (2, 5, 11, 50)}
    for x in (50, 100):
        for y in (2, 5, 11, 50):
            assert values[(x, y)] <= values[(2 * x, y)]
    for x in (50, 100, 200):
        for y1, y2 in ((2, 5), (5, 11), (11, 50)):
            assert values[(x, y1)] <= values[(x, y2)]


def test_lpf_multiplicative_on_coprime_pairs():
    fs = build_sieve(1, 10**6)
    rng = random.Random(5)
    done = 0
    while done < 10**4:
        m = rng.randrange(2, 1000)
        n = rng.randrange(2, 1000)
        if math.gcd(m, n) != 1:
            continue
        assert fs.lpf_of(m * n) == max(fs.lpf_of(m), fs.lpf_of(n))
        done += 1


def test_iter_smooth_streams_in_segments():
    whole = smooth_members(12345, 7).members
    chunks = [m for m, _ in iter_smooth(12345, 7, segment=1000)]
    assert len(chunks) == 13
    assert np.concatenate(chunks).tolist() == whole.tolist()


def test_iter_smooth_weighted_extends_prime_values():
    # completely multiplicative f with f(2) = -1, f(p) = 1 otherwise
    pv = lambda p: -1.0 if p == 2 else 1.0
    got = {}
    for members, weights in iter_smooth(100, 10, prime_value=pv):
        for n, w in zip(members.tolist(), weights.tolist()):
            got[n] = w
    for n, w in got.items():
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        assert w == (-1.0) ** e


def test_primes_helpers():
    assert primes_upto(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_between(4, 10).tolist() == [5, 7]
    assert primes_between(10, 10.9).tolist() == []


@functools.cache
def eratosthenes(n: int) -> np.ndarray:
    """Independent oracle: the primes <= n from a bool mask of n + 1 entries."""
    mask = np.ones(max(n + 1, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask[: n + 1]).astype(np.int64)


def trial_prime(n: int) -> bool:
    return n >= 2 and trial_largest_prime_factor(n) == n


def test_prime_tables_match_trial_division_up_to_2000():
    want = []
    for n in range(2001):
        if trial_prime(n):
            want.append(n)
        got = primes_upto(n)
        assert got.dtype == np.int64 and got.tolist() == want, n


@pytest.mark.parametrize("n", [(1 << 22) - 1, 1 << 22, (1 << 22) + 1, 3 * (1 << 22) + 5])
def test_prime_tables_across_segment_edges(n):
    got = primes_upto(n)
    assert got.dtype == np.int64 and np.array_equal(got, eratosthenes(n))
    # the last 3000 integers, around the segment edge, by trial division
    tail = [m for m in range(n - 3000, n + 1) if trial_prime(m)]
    assert got[got > n - 3001].tolist() == tail


def test_prime_table_at_the_budget_and_past_it():
    tracemalloc.start()
    try:
        got = primes_upto(MAX_SEGMENT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.size == 3_957_809 and got[-1] == 67_108_859
    assert peak < MAX_SEGMENT  # the bytes of the n + 1 entry bool mask it replaced
    for call in (lambda: primes_upto(MAX_SEGMENT + 1),
                 lambda: primes_between(0, MAX_SEGMENT + 1.5),
                 lambda: primes_between(MAX_SEGMENT + 5, MAX_SEGMENT + 1)):
        with pytest.raises(ResourceLimitError, match="a prime table needs 67108865 entries.*entry budget"):
            call()


# 8388593 = 2^23 - 15 is prime: from lo = 8388593 - 2^22 it ends the window's
# first segment, and one below that it starts the second
@pytest.mark.parametrize("lo", [math.nan, -math.inf, math.inf, -7, -0.5, 0, 1, 1.5, 2, 2.5, 96.99,
                                97, (1 << 22) - 0.5, (1 << 22) + 1, 4194288, 4194289])
@pytest.mark.parametrize("hi", [1.99, 2, 97, 97.5, (1 << 22) + 40.5, (1 << 23) + 3])
def test_primes_between_is_the_table_cut_above_lo(lo, hi):
    ps = eratosthenes(math.floor(hi))
    got = primes_between(lo, hi)
    assert got.dtype == np.int64 and np.array_equal(got, ps[ps > lo])


def test_primes_between_refuses_a_hi_that_is_not_finite_as_before():
    with pytest.raises(ValueError):
        primes_between(0, math.nan)
    for hi in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            primes_between(0, hi)


def test_factorize_from_sieve():
    fs = build_sieve(1, 360)
    assert fs.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert fs.factorize(97) == [(97, 1)]
    assert fs.factorize(1) == []
    with pytest.raises(ValueError, match="outside sieve segment"):
        fs.factorize(361)
    with pytest.raises(ValueError, match="anchored at lo=1"):
        build_sieve(2, 360).factorize(360)


# ---------------------------------------------------------------------------
# edge grids for the smooth-part kernel, against trial division

def unit_prime(p: int) -> complex:
    return cmath.exp(1j * p)


def imaginary_prime(p: int) -> complex:
    # weights become n * i^Omega(n): products of these are exact in floats
    return complex(0, p)


def expected_weight(n: int) -> complex:
    return n * 1j ** len(trial_factors(n))


def oracle_smooth(lo: int, hi: int, y: float) -> list[int]:
    return [n for n in range(lo, hi + 1) if trial_largest_prime_factor(n) <= y]


# x at an integer or just below it; y below 2, at 2, in between, or >= x
edge_x = st.builds(
    lambda k, below: math.nextafter(k, 0) if below else float(k),
    st.integers(1, 400),
    st.booleans(),
)
edge_y = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 1.999, 2.0, 2.5, 3.0]),
    st.floats(0, 500, allow_nan=False),
    st.integers(400, 10**6).map(float),
    st.just(1e30),  # y_floor past uint64
)


@settings(max_examples=150, deadline=None)
@given(x=edge_x, y=edge_y, segment=st.sampled_from([1, 2, 7, 1 << 22]))
def test_iter_smooth_edge_grid_matches_oracle(x, y, segment):
    x_floor = math.floor(x)
    expected = oracle_smooth(1, x_floor, y)
    chunks = list(iter_smooth(x, y, segment, prime_value=imaginary_prime))
    members = [n for m, _ in chunks for n in m.tolist()]
    weights = [w for _, ws in chunks for w in ws.tolist()]
    assert members == expected
    assert weights == [expected_weight(n) for n in expected]
    if math.floor(y) >= 1:
        assert len(chunks) == -(-x_floor // segment)
    assert psi(x, y, segment) == len(expected)


@settings(max_examples=150, deadline=None)
@given(
    lo=st.integers(1, 5000),
    width=st.integers(0, 300),
    y=st.integers(-1, 6000),
    weighted=st.booleans(),
)
def test_smooth_in_range_edge_grid_matches_oracle(lo, width, y, weighted):
    hi = lo + width
    primes = primes_upto(min(y, math.isqrt(hi)))
    pv = imaginary_prime if weighted else None
    members, weights = smooth_in_range(lo, hi, y, primes, pv)
    expected = oracle_smooth(lo, hi, y)
    assert members.dtype == np.int64
    assert members.tolist() == expected
    if weighted:
        assert weights.tolist() == [expected_weight(n) for n in expected]
    else:
        assert weights is None


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(1, 10**6), width=st.integers(0, 200))
def test_build_sieve_edge_grid_matches_oracle(lo, width):
    fs = build_sieve(lo, lo + width)
    factors = [trial_factors(n) or [1] for n in range(lo, lo + width + 1)]
    assert fs.lpf.tolist() == [f[-1] for f in factors]
    assert fs.spf.tolist() == [f[0] for f in factors]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2**32 - 50, 2**32 + 50),  # hi + y >= 2^32: uint64 smooth parts
        (2**32 - 100, 2**32 - 10),  # hi < 2^32 <= hi + y: ceil(n / y) needs uint64
        (2**32 - 151, 2**32 - 51),  # hi + y = 2^32 - 1: the last uint32 window
    ],
)
def test_smooth_in_range_around_two_to_the_32(lo, hi):
    y = 50
    small = primes_upto(y).tolist()

    def rough_part(n: int) -> int:
        for p in small:
            while n % p == 0:
                n //= p
        return n

    expected = [n for n in range(lo, hi + 1) if rough_part(n) == 1]
    members, weights = smooth_in_range(lo, hi, y, primes_upto(y), imaginary_prime)
    assert members.tolist() == expected
    assert weights.tolist() == [expected_weight(n) for n in expected]


def test_build_sieve_across_two_to_the_32():
    lo, hi = 2**32 - 50, 2**32 + 50
    small = primes_upto(math.isqrt(hi)).tolist()
    fs = build_sieve(lo, hi)
    for n in range(lo, hi + 1):
        rest, factors = n, []
        for p in small:
            while rest % p == 0:
                factors.append(p)
                rest //= p
        factors += [rest] if rest > 1 else []
        assert (fs.lpf_of(n), fs.spf_of(n)) == (max(factors), min(factors))


def tuple_multisets(ps, x_floor, depth, distinct):
    """Per level: the multiset of (product, multinomial) of the tuples of
    `sieve._tuple_walk`, listed by itertools with Python-int products."""
    pick = itertools.combinations if distinct else itertools.combinations_with_replacement
    out = {}
    for k in range(1, depth + 1):
        for idx in pick(range(len(ps)), k):
            pr = math.prod(ps[i] for i in idx)
            if pr <= x_floor:
                orderings = math.factorial(k)
                for i in set(idx):
                    orderings //= math.factorial(idx.count(i))
                out.setdefault(k, []).append((pr, orderings))
    return {k: sorted(v) for k, v in out.items()}


def walked_multisets(ps, x_floor, depth, distinct):
    out = {}
    for k, pr, w in sieve._tuple_walk(np.array(ps, dtype=np.int64), x_floor, depth, distinct):
        assert 0 < pr.size == w.size <= sieve._TUPLE_CHUNK
        out.setdefault(k, []).extend(zip(pr.tolist(), w.tolist()))
    return {k: sorted(v) for k, v in out.items()}


@settings(max_examples=200, deadline=None)
@given(
    ps=st.lists(st.sampled_from(primes_upto(60).tolist()), max_size=8, unique=True).map(sorted),
    x_floor=st.integers(0, 20000),
    depth=st.integers(1, 5),
    distinct=st.booleans(),
    chunk=st.sampled_from([1, 3, sieve._TUPLE_CHUNK]),
)
def test_tuple_walk_matches_itertools_enumeration(ps, x_floor, depth, distinct, chunk):
    # tuples come in chunks of one level, so only each level's multiset is
    # pinned, not the order within it
    with mock.patch.object(sieve, "_TUPLE_CHUNK", chunk):
        got = walked_multisets(ps, x_floor, depth, distinct)
    assert got == tuple_multisets(ps, x_floor, depth, distinct)


@pytest.mark.parametrize("distinct", [True, False])
def test_tuple_walk_keeps_python_int_products_past_two_to_the_63(distinct):
    # three primes above 2^21 multiply to past 2^63: the products must be
    # exact Python ints, not wrapped int64
    ps = primes_between(1 << 21, (1 << 21) + 200).tolist()
    x_floor = ps[0] * ps[1] * ps[-1]
    assert x_floor >= 1 << 63
    got = walked_multisets(ps, x_floor, 3, distinct)
    assert all(type(pr) is int for level in got.values() for pr, _ in level)
    assert got == tuple_multisets(ps, x_floor, 3, distinct)


# ---------------------------------------------------------------------------
# the generator beside the sieve, and the cost rule that picks between them

@settings(max_examples=150, deadline=None)
@given(hi=st.integers(1, 6000), y=st.integers(1, 200), weighted=st.booleans())
def test_generator_equals_sieve_on_edge_grid(hi, y, weighted):
    pv = imaginary_prime if weighted else None
    got, got_w = sieve._generate(hi, primes_upto(y), pv)
    want, want_w = smooth_in_range(1, hi, y, primes_upto(min(y, math.isqrt(hi))), pv)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert (got_w is None) == (not weighted)
    if weighted:
        assert got_w.tolist() == want_w.tolist()


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(-300, 300), y=st.integers(2, 23), weighted=st.booleans())
@example(offset=-1, y=2, weighted=False)  # the largest hi in uint32
@example(offset=0, y=2, weighted=True)  # 2^32 itself is a member
def test_generator_across_two_to_the_32(offset, y, weighted):
    # products are uint32 below 2^32 and int64 from it: both sides must
    # agree with each other and, on the top window, with the sieve
    hi = (1 << 32) + offset
    pv = imaginary_prime if weighted else None
    got, got_w = sieve._generate(hi, primes_upto(y), pv)
    below, _ = sieve._generate((1 << 32) - 301, primes_upto(y))
    assert got.dtype == np.int64
    assert np.all(np.diff(got) > 0)
    assert got[: below.size].tolist() == below.tolist()
    lo = hi - 300
    window, window_w = smooth_in_range(lo, hi, y, primes_upto(y), pv)
    tail = got >= lo
    assert got[tail].tolist() == window.tolist()
    if weighted:
        assert got_w[tail].tolist() == window_w.tolist()


@pytest.mark.parametrize("x, y, count", [(1e8, 30, 88_415), (1e8, 100, 924_573), (3e8, 100, 1_620_536)])
def test_psi_in_the_generator_regime(x, y, count):
    assert len(smooth_plan(x, y)[0]) == 1
    assert psi(x, y) == count


def test_psi_never_exceeds_rankin_bound():
    for x in (2, 10, 100, 1000, 10**4, 10**5, 10**6):
        for y in (2, 3, 5, 10, 30, 100, 1000):
            assert psi(x, y) <= sieve._rankin_bound(x, primes_upto(y))


def odd_mask(members, first, hi):
    """mask[i] = whether the odd n = first + 2i <= hi is a member, first odd."""
    mask = np.zeros(max((hi - first) // 2 + 1, 0), dtype=bool)
    mask[(members[(members % 2 == 1) & (members >= first) & (members <= hi)] - first) // 2] = True
    return mask


@pytest.mark.parametrize("q", [None, 1, 101])
@pytest.mark.parametrize(
    "x, y, segment, generated",
    [(1e8, 30, DEFAULT_SEGMENT, True), (5e6, 1000, 1 << 20, False)],
)
def test_plan_and_segments_keep_the_tracing_contract(x, y, segment, generated, q):
    # perfbench/spans.py reads these: the bounds tile [1, floor(x)] in
    # segments of `segment` (or are the one generated bound), and the
    # driver calls smooth_in_range exactly once per planned bound, with the
    # segment's members and None, or with q the smoothness mask of its odd
    # n and its first odd n (a generated plan's histogram and None)
    x_floor = math.floor(x)
    bounds, y_floor, primes = smooth_plan(x, y, segment)
    assert (len(bounds) == 1) == generated
    assert bounds == ([(1, x_floor)] if generated else
                      [(lo, min(lo + segment - 1, x_floor)) for lo in range(1, x_floor + 1, segment)])
    assert y_floor == math.floor(y)
    assert primes.tolist() == primes_upto(min(y_floor, math.isqrt(x_floor))).tolist()
    results = []

    def counted(*args):
        out = smooth_in_range(*args)
        results.append((args[:2], out[0].copy(), out[1]))
        return out

    with mock.patch.object(sieve, "smooth_in_range", counted):
        if q is None:
            total = sum(smooth_segments(x, y, lambda r, w: int(r.size), segment, 1))
        else:
            total = int(smooth_histogram(x, y, q, segment, 1).sum())
    assert [r[0] for r in results] == bounds
    if q is None:
        assert all(r[2] is None for r in results)
        assert total == sum(r[1].size for r in results)
        return
    members = smooth_members(x, y).members
    assert total == members.size == psi(x, y, segment)
    for (lo, hi), part, first in results:
        if generated:
            assert first is None
            assert np.array_equal(part, np.bincount(members % q, minlength=q) if q > 1
                                  else [members.size])
            continue
        assert first == lo | 1 and part.dtype == bool
        assert np.array_equal(part, odd_mask(members, first, hi)), (lo, hi)


@pytest.mark.parametrize("x, y, logged", [(1e5, 1000, False), (1e5, 100, True)])
def test_a_counted_segment_sieves_to_its_root_or_every_plan_prime(x, y, logged):
    # the odd sweep of [lo, hi] by smooth parts sieves no prime above
    # isqrt(hi), as n <= hi has at most one such factor and the ceiling test
    # stays exact; in log sums (y^2 <= x, certified) every sweep sieves every
    # plan prime, as a sum must hold all of sp(n); a listing sweep keeps
    # every prime of the plan, whose weights take each of them
    segment = 1 << 12
    real, seen = sieve._smooth_part, []

    def kernel(lo, hi, primes, top, odd=False, scale=0):
        if top > hi:  # a scan's segment, not a prime table's
            seen.append((hi, primes.tolist(), odd, scale))
        return real(lo, hi, primes, top, odd, scale)

    members = smooth_members(x, y).members
    with mock.patch.object(sieve, "_smooth_part", side_effect=kernel):
        assert np.array_equal(smooth_histogram(x, y, 101, segment),
                              np.bincount(members % 101, minlength=101))
        assert sum(smooth_segments(x, y, lambda r, w: r.size, segment)) == members.size
    plan = primes_upto(min(y, math.isqrt(int(x)))).tolist()
    counted = [(hi, ps, scale) for hi, ps, odd, scale in seen if odd]
    listed = [(hi, ps, scale) for hi, ps, odd, scale in seen if not odd]
    assert len(counted) == len(listed) == -(-int(x) // segment)
    assert all(ps == plan for _, ps, _ in listed)
    # the test is chosen from (x, y) alone: log sums on every segment of
    # both drivers, the first, [1, segment], too, once the certificate holds
    # (y >= 3 here)
    assert all(bool(scale) == logged for _, _, scale in counted + listed)
    for hi, ps, scale in counted:
        assert ps == (plan if scale else primes_upto(math.isqrt(hi)).tolist())
        assert not scale or [p for p in ps if p <= hi] == primes_upto(min(y, hi)).tolist()


def test_a_segment_anywhere_in_its_plan_counts_and_lists_by_log_sums():
    # the bar of each power of two holds on any segment: [1, hi], and
    # segments with hi >= 2 * first, where sp(n) <= hi / (y + 1) no longer
    # sits a factor y + 1 below first, count and list by log sums too once
    # (x, y) is certified; past y^2 <= x every segment takes smooth parts
    x_floor, q = 10**6, 7
    real, scales = sieve._smooth_part, []

    def kernel(lo, hi, primes, top, odd=False, scale=0):
        scales.append(scale)
        return real(lo, hi, primes, top, odd, scale)

    for y, logged in ((30, True), (1001, False)):
        primes = primes_upto(min(y, math.isqrt(x_floor)))
        for lo, hi in ((1, 5000), (1001, 5000), (2501, 5000), (2500, 4999)):
            scales.clear()
            with mock.patch.object(sieve, "_smooth_part", side_effect=kernel):
                members, _ = smooth_in_range(lo, hi, y, primes, None, None, x_floor)
                mask, first = smooth_in_range(lo, hi, y, primes, None, q, x_floor)
            assert len(scales) == 2 and all(bool(s) == logged for s in scales), (lo, hi, y)
            assert np.array_equal(members, plain_smooth_in_range(lo, hi, y, primes)[0])
            assert first == lo | 1 and np.array_equal(mask, odd_mask(members, first, hi))


LOG_Q = [1, 2, 7, 2**16, 10**6 + 3]


def log_grid_ys(x):
    """The y of the log-sum grid: tiny ones about its certificate's least
    y, and the two sides of y^2 <= x."""
    return (2, 3, 4, 5, 7, 8, 17, math.isqrt(x), math.isqrt(x) + 1)


@functools.cache
def trial_lpf_upto(n_max):
    """P(n) for n <= n_max by trial division, P(0) = 0, read-only."""
    table = np.array([0] + [trial_largest_prime_factor(n) for n in range(1, n_max + 1)])
    table.flags.writeable = False
    return table


def assert_log_mode_histograms(x, y, segment, want):
    """smooth_histogram(x, y, q, segment) as it runs and with the log sums
    forced off (_log_scale mocked to 0, smooth parts only) both equal
    want(q), for every q of LOG_Q; and the run swept every segment of a
    sieved plan (of more than one segment), the first, [1, segment], too,
    by log sums exactly where y^2 <= x and the certificate holds."""
    calls = mock.MagicMock(wraps=sieve._smooth_part)
    for q in LOG_Q:
        with mock.patch.object(sieve, "_smooth_part", calls):
            got = smooth_histogram(x, y, q, segment)
        with mock.patch.object(sieve, "_log_scale", return_value=0):
            plain = smooth_histogram(x, y, q, segment)
        assert np.array_equal(got, want(q)), (x, y, segment, q)
        assert np.array_equal(plain, got), (x, y, segment, q)
    swept = [c.args[5] for c in calls.call_args_list if len(c.args) > 4 and c.args[4]]
    bounds = smooth_plan(x, y, segment)[0]
    generated = len(bounds) == 1 < -(-x // segment)
    certified = 2 <= y and y * y <= x and sieve._log_scale(x, y) > 0
    assert generated or len(bounds) > 1, (x, segment)
    assert len(swept) == (0 if generated else len(LOG_Q) * len(bounds)), (x, y, segment)
    assert all(bool(scale) == certified for scale in swept), (x, y, segment)


@pytest.mark.parametrize(
    "segment, xs",
    [
        (1, (2**5 - 1, 2**5, 2**5 + 1, 50)),
        (3, (2**7 - 1, 2**7, 2**7 + 1, 200)),
        (2**12, (2**14 - 1, 2**14, 2**14 + 1, 3 * 10**4)),
    ],
)
def test_log_mode_histograms_match_trial_division(segment, xs):
    # segments of 1 and 3 at x near 2^22 would list past the plan's 2^20
    # segments, so the small segments sweep x about 2^5, 2^7 and 2^14, as
    # the default segment does 2^22; y runs across the certificate's least
    # y (2 up to x = 200, 3 at 2^14 and 3 * 10^4) and across isqrt(x)
    lpf = trial_lpf_upto(max(xs))
    for x in xs:
        for y in log_grid_ys(x):
            smooth = np.flatnonzero(lpf[: x + 1] <= y)[1:]  # n >= 1
            assert_log_mode_histograms(x, y, segment, lambda q: np.bincount(smooth % q, minlength=q))


@pytest.mark.parametrize("at", range(9))  # the y at this index of log_grid_ys(x)
@pytest.mark.parametrize("x", [2**22 - 1, 2**22, 2**22 + 1, 3 * 10**6])
def test_log_mode_histograms_match_the_listing_below_one_segment(x, at):
    # x up to one default segment, in segments of 2^20, each counted by log
    # sums where certified, the first, [1, 2^20], too.  The certificate's
    # least y is 5 at these x, so y = 2 .. 4 count by smooth parts and
    # y = 5 on by log sums, up to isqrt(x); isqrt(x) + 1 counts by smooth
    # parts.  2^22 + 1 at small y is generated.
    y = log_grid_ys(x)[at]
    members = smooth_members(x, y).members
    assert_log_mode_histograms(x, y, 1 << 20, lambda q: np.bincount(members % q, minlength=q))


@pytest.mark.parametrize(
    "x, scale, least",
    [(64, 12, 2), (10**5, 12, 3), (3 * 10**6, 11, 5), (2**22, 11, 5), (10**8, 9, 7), (2**62, 3, 21211)],
)
def test_the_log_scale_keeps_sums_in_a_byte_and_certifies_from_its_least_y(x, scale, least):
    # s = min(12, floor((255 - E) / log2 x)), E = log3(x) / 2; the log sums
    # are taken from the least y with s (log2(y + 1) - 1) > 2E + 1 on.  The
    # cap 12 binds at small x (64 and 10^5 here) and keeps each wheel entry
    # in a byte (see the wheel test below)
    slack = math.log(x, 3) / 2
    assert [sieve._log_scale(x, y) for y in (least - 1, least, 10 * least)] == [0, scale, scale]
    assert scale * math.log2(x) + slack <= 255


def test_every_log_wheel_holds_its_sums_within_a_byte():
    # at every scale up to the cap 12, every wheel the kernel can seed, on
    # either sweep, holds the log sums of its prime powers, none wrapped; the
    # whole wheel is its two factors, of periods 5005 and 144, added
    n = np.arange(1, 720721)
    v = {p: np.minimum(_valuations(n, p), e) for p, e in sieve._WHEEL_POWERS}
    for scale in range(1, 13):
        for odd in (True, False):
            for k in range(1, 7 - odd):
                powers = sieve._WHEEL_POWERS[odd : odd + k]
                parts = sieve._wheel_factors(powers, np.uint8, odd, scale)
                if odd:  # one pattern over the index j of n = 2j + 1
                    at, got = np.arange(0, 2 * parts[0].size, 2), parts[0]
                else:
                    at, got = n - 1, sum(part[n % part.size].astype(np.int64) for part in parts)
                want = sum(v[p][at] * round(scale * math.log2(p)) for p, _ in powers)
                assert np.array_equal(got, want) and want.max() <= 255, (scale, odd, k)
    assert want.max() == 234  # the whole wheel at s = 12, 720720 = 2^4 3^2 5 7 11 13


def test_no_log_sum_passes_a_byte_at_the_largest_x():
    # x = 2^62 - 1, the largest a plan admits (below 2^63, as a power of two
    # window fits): s = 3, and the n with the largest sum per bit are the
    # powers of 3 (round(3 log2 3) = 5), so windows about 3^39, 2^61 and x
    # hold the largest sums on both sweeps
    x = 2**62 - 1
    y = next(y for y in itertools.count(20000) if sieve._log_scale(x, y))
    scale, primes = sieve._log_scale(x, y), primes_upto(y)
    assert scale == 3 and scale * math.log2(x) + math.log(x, 3) / 2 <= 255
    peak = 0
    for centre in (3**39, 2**61, x - 3000):
        first, hi = centre - 3001 | 1, min(centre + 3000, x)
        for odd in (True, False):
            sums = sieve._smooth_part(first, hi, primes, hi, odd, scale)
            want = plain_log_sums(first, hi, primes, scale, odd)
            assert sums.dtype == np.uint8 and np.array_equal(sums, want) and want.max() <= 255
            peak = max(peak, want.max())
    assert peak == 5 * 39  # 3^39


def _valuations(n, p):
    """v_p(n) for each n of an int64 array."""
    v, n = np.zeros_like(n), n.copy()
    while np.any(hit := n % p == 0):
        v += hit
        n[hit] //= p
    return v


def plain_log_sums(first, hi, primes, scale, odd=True):
    """sum over p of v_p(n) * round(scale * log2 p) for each n in
    [first, hi] (the odd n only with `odd`, first odd), by one plain walk
    per prime power (odd prime powers with `odd`)."""
    sums = np.zeros((hi - first) // (1 + odd) + 1, dtype=np.int64)
    for p in primes.tolist():
        t = p
        while not (odd and p == 2) and t <= hi:
            sums[-first * pow(2, -odd, t) % t :: t] += round(scale * math.log2(p))
            t *= p
    return sums


@pytest.mark.parametrize("base", [2**31, 2**32, 2**40, 2**62])
def test_log_sums_are_rounded_logs_and_test_like_smooth_parts(base):
    # short windows across 2^31 .. 2^62 (x = hi), each across two bars, on
    # both sweeps, at the least y the certificate admits and at a larger one
    first, hi = base - 3001, base + 3000
    least = next(y for y in itertools.count(2) if sieve._log_scale(hi, y))
    for y in (least, 40000):
        primes = primes_upto(y)
        scale = sieve._log_scale(hi, y)
        assert scale > 0 and y * y <= hi
        for odd in (True, False):
            sums = sieve._smooth_part(first, hi, primes, hi, odd, scale)
            want = plain_log_sums(first, hi, primes, scale, odd)
            assert sums.dtype == np.uint8 and np.array_equal(sums, want) and want.max() <= 255
        sp = sieve._smooth_part(first, hi, primes, hi + y)
        smooth = np.arange(first, hi + 1, dtype=np.uint64) // sp <= y
        mask, odd_first = smooth_in_range(first, hi, y, primes, None, 101, hi)
        assert odd_first == first and np.array_equal(mask, smooth[::2]), (base, y)
        members, _ = smooth_in_range(first, hi, y, primes)
        assert np.array_equal(members, first + np.flatnonzero(smooth)), (base, y)


# a plan up to 3 * 2^21: segments from 1 and about 2^21, up to one default
# segment long, cross several powers of two (or end at the plan's x)
CROSS_X = 3 << 21


@pytest.mark.parametrize("segment", [1, 3, 1000, 1 << 22])
@pytest.mark.parametrize("lo", [1, (1 << 21) - 1, 1 << 21, (1 << 21) + 1])
def test_listings_across_powers_of_two_match_the_plain_walk(lo, segment):
    # y at the certificate's least y (log sums), one below it and at
    # isqrt(x) (log sums), and one past it (smooth parts), all from (x, y)
    hi, root = min(lo + segment - 1, CROSS_X), math.isqrt(CROSS_X)
    least = next(y for y in itertools.count(2) if sieve._log_scale(CROSS_X, y))
    for y, logged in ((least - 1, False), (least, True), (root, True), (root + 1, False)):
        assert bool(2 <= y <= root and sieve._log_scale(CROSS_X, y)) == logged
        primes = primes_upto(min(y, root))
        for pv in (None, imaginary_prime) if segment <= 1000 else (None,):
            members, weights = smooth_in_range(lo, hi, y, primes, pv, None, CROSS_X)
            want, want_w = plain_smooth_in_range(lo, hi, y, primes, pv)
            assert members.dtype == np.int64 and np.array_equal(members, want), (y, pv)
            assert pv is None and weights is None or np.array_equal(weights, want_w)


@pytest.mark.parametrize("x, y", [(10**6, 30), (3 * 10**6, 300), (CROSS_X, 2508)])
def test_twisted_weights_are_the_same_with_the_log_sums_forced_off(x, y):
    # with y <= isqrt(x) a member factors over the plan's primes, so the
    # log sums skip the cofactor step and change no weight, bit for bit
    assert sieve._log_scale(x, y) and y * y <= x
    got = list(iter_smooth(x, y, 1 << 20, prime_value=unit_prime))
    with mock.patch.object(sieve, "_log_scale", return_value=0):
        want = list(iter_smooth(x, y, 1 << 20, prime_value=unit_prime))
    assert len(got) == len(want) == -(-x // (1 << 20))
    for (m, w), (m0, w0) in zip(got, want):
        assert np.array_equal(m, m0) and np.array_equal(w, w0)


@pytest.mark.parametrize(
    "x, y, generated",
    [
        (1e8, 30, True), (1e8, 100, True), (3e8, 100, True), (1e7, 30, True),
        (1e8, 1e3, False), (1e8, 1e4, False), (3e7, 1e3, False),
    ],
)
def test_planner_keeps_its_choice_on_dense_and_sparse_cells(x, y, generated):
    # the rule takes the generator when Rankin's bound B, 11x over Psi at
    # (1e8, 100), has B * pi(y) <= 5 * x; a ratio priced from the kernel's
    # ns per integer alone would send these sparse cells to the sieve, which
    # is over 10x slower there
    bounds, _, _ = smooth_plan(x, y)
    assert (bounds == [(1, math.floor(x))]) == generated


@pytest.mark.parametrize("x, y, ratio", [(202715677, 141, 5.05), (6956747, 74, 5.04)])
def test_planner_sieves_the_cells_just_past_its_ratio(x, y, ratio):
    # B * pi(y) / x just above the ratio 5, so these cells stay on the sieve
    primes = primes_upto(y)
    assert round(sieve._rankin_bound(x, primes) * primes.size / x, 2) == ratio
    assert smooth_plan(x, y)[0][0] == (1, DEFAULT_SEGMENT)


# ---------------------------------------------------------------------------
# the blocked, wheel-seeded kernel against the plain strided walk it replaced

def plain_smooth_part(lo, hi, primes, top, prime_value=None):
    """Every power of every prime walked over the whole window, in order."""
    sp = np.ones(hi - lo + 1, dtype=np.uint32 if top < 1 << 32 else np.uint64)
    weights = None if prime_value is None else np.ones(hi - lo + 1, dtype=np.complex128)
    for p in primes.tolist():
        t = p
        while t <= hi:
            sp[-lo % t :: t] *= p
            if weights is not None:
                weights[-lo % t :: t] *= prime_value(p)
            t *= p
    return sp, weights


def plain_smooth_in_range(lo, hi, y, primes, prime_value=None):
    """smooth_in_range for y >= 1 by the plain walk and one mask over the window."""
    y_eff = min(y, hi)
    sp, weights = plain_smooth_part(lo, hi, primes, hi + y_eff, prime_value)
    mask = sp >= np.arange(lo + y_eff - 1, hi + y_eff, dtype=sp.dtype) // y_eff
    members = np.flatnonzero(mask) + lo
    if weights is None:
        return members, None
    w = weights[mask]
    rest = members // sp[mask].astype(np.int64)
    for i in np.flatnonzero(rest > 1).tolist():
        w[i] *= prime_value(int(rest[i]))
    return members, w


def assert_kernel_matches_plain_walk(lo, hi, y, primes):
    for pv in (None, imaginary_prime):
        members, weights = smooth_in_range(lo, hi, y, primes, pv)
        want, want_w = plain_smooth_in_range(lo, hi, y, primes, pv)
        assert members.dtype == np.int64
        assert np.array_equal(members, want)
        if pv is None:
            assert weights is None
        else:
            assert np.array_equal(weights, want_w)  # exact products: bit for bit


# three blocks, the last one short; lo is aligned neither to a block nor to
# the wheel's period 720720, and the first block runs across a period
BLOCKS_LO = 3 * 720720 - 777
BLOCKS_HI = BLOCKS_LO + 2 * sieve._BLOCK + 1000


@pytest.mark.parametrize("y", [1, 2, 3, 4, 5, 12, 13, 16, 17, 1000])
def test_kernel_matches_plain_walk_across_blocks(y):
    assert BLOCKS_LO % sieve._BLOCK and BLOCKS_LO % 720720
    primes = primes_upto(min(y, math.isqrt(BLOCKS_HI)))
    assert_kernel_matches_plain_walk(BLOCKS_LO, BLOCKS_HI, y, primes)
    x, segment = 1_300_000, sieve._BLOCK + (1 << 19) + 3  # segments of three blocks
    want = plain_smooth_in_range(1, x, y, primes_upto(min(y, math.isqrt(x))))[0]
    assert psi(x, y, segment) == want.size


def test_kernel_matches_plain_walk_in_uint64_across_blocks():
    lo, hi, y = 2**32 - sieve._BLOCK - 5000, 2**32 + 3000, 1000
    assert hi - lo + 1 > sieve._BLOCK
    assert sieve._smooth_part(lo, hi, primes_upto(y), hi + y).dtype == np.uint64
    assert_kernel_matches_plain_walk(lo, hi, y, primes_upto(y))


def plain_odd_smooth_part(lo, hi, primes, top):
    """The smooth parts of the odd n in [lo, hi] over the odd primes, each
    power t walked from its first odd multiple, the index -n0 / 2 mod t."""
    n0 = lo | 1
    sp = np.ones(max((hi - n0) // 2 + 1, 0), dtype=np.uint32 if top < 1 << 32 else np.uint64)
    for p in primes.tolist():
        t = p
        while p > 2 and t <= hi:
            sp[-n0 * pow(2, -1, t) % t :: t] *= p
            t *= p
    return sp


@pytest.mark.parametrize("y", [1, 2, 3, 4, 5, 12, 13, 16, 17, 1000])
@pytest.mark.parametrize(
    "lo, hi",
    [
        (BLOCKS_LO, BLOCKS_LO + 4 * sieve._BLOCK + 1000),  # three blocks of odd n
        (BLOCKS_LO + 1, BLOCKS_LO + 4 * sieve._BLOCK + 1001),  # an even lo and hi
        (2**32 - 2 * sieve._BLOCK - 5001, 2**32 + 3001),  # uint64, across 2^32
        (2**32 - 7, 2**32 - 7),  # one odd entry
        (2**32, 2**32),  # no odd entry
    ],
)
def test_odd_kernel_matches_plain_walk_over_odd_n(lo, hi, y):
    primes = primes_upto(min(y, math.isqrt(hi)))
    got = sieve._smooth_part(lo | 1, hi, primes, hi + y, odd=True)
    want = plain_odd_smooth_part(lo, hi, primes, hi + y)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.size == (hi - (lo | 1)) // 2 + 1


@pytest.mark.parametrize(
    "lo, hi", [(BLOCKS_LO, BLOCKS_HI), (2**32 - sieve._BLOCK - 5000, 2**32 + 3000)]
)
def test_build_sieve_matches_plain_walk_across_blocks(lo, hi):
    # the sieve's smooth parts by the plain walk; its prime table, from log
    # sums at scale 1, by the kernel
    fs, real = build_sieve(lo, hi), sieve._smooth_part

    def plain(lo, hi, primes, top, odd=False, scale=0):
        return real(lo, hi, primes, top, odd, scale) if scale else plain_smooth_part(lo, hi, primes, top)[0]

    with mock.patch.object(sieve, "_smooth_part", plain):
        want = build_sieve(lo, hi)
    assert np.array_equal(fs.lpf, want.lpf)
    assert np.array_equal(fs.spf, want.spf)


@pytest.mark.parametrize("y", [1000, 10**4])  # below and above isqrt(hi)
@pytest.mark.parametrize(
    "lo, hi", [(BLOCKS_LO, BLOCKS_HI), (2**32 - sieve._BLOCK - 5000, 2**32 + 3000)]
)
def test_weights_walk_matches_plain_walk_across_blocks(lo, hi, y):
    # e^(ip) is inexact in floats, and numpy rounds a strided complex
    # multiply by its alignment, so the two walks agree to the last bits only
    primes = primes_upto(min(y, math.isqrt(hi)))
    members, weights = smooth_in_range(lo, hi, y, primes, unit_prime)
    want, want_w = plain_smooth_in_range(lo, hi, y, primes, unit_prime)
    assert np.array_equal(members, want)
    assert np.abs(weights - want_w).max() <= 1e-15
    if y > math.isqrt(hi):
        assert np.any(members // sieve._smooth_part(lo, hi, primes, hi + y)[members - lo] > 1)


def test_twisted_segments_call_prime_value_once_per_prime():
    # y > isqrt(x), so most members hold a prime above the sieving bound
    x, y, segment = 10**6, 10**4, 1 << 18
    calls = []

    def pv(p):
        calls.append(p)
        return unit_prime(p)

    bounds, y_floor, primes = smooth_plan(x, y, segment)
    for lo, hi in bounds:
        calls.clear()
        smooth_in_range(lo, hi, y_floor, primes, pv)
        assert len(calls) == len(set(calls)) <= primes_upto(y).size


# ---------------------------------------------------------------------------
# residue counts folded from the sieve mask, against the listing's bincount

FOLD_Q = [1, 2, 3, 4095, 4096, 4097, 2**18 - 1, 2**18, 2**18 + 1, 10**6 + 3, 2**23]


@pytest.mark.parametrize(
    "lo, hi, y",
    [
        (BLOCKS_LO + 2, BLOCKS_HI, 1000),  # two blocks of odd n, the second short
        (BLOCKS_LO + 2, BLOCKS_HI, 13),
        (BLOCKS_LO + 3, BLOCKS_HI - 1, 1000),  # an even lo, an even hi
        (10**6 + 7, 10**6 + 3000, 5000),  # y >= hi - lo, a segment shorter than most q
        (999_983, 10**6 + 500, 2 * 10**6),  # y >= hi: every n is smooth
        (2**32 - 2 * sieve._BLOCK - 4999, 2**32 + 3000, 1000),  # uint64 smooth parts
    ],
)
def test_folded_counts_equal_the_listing_bincount(lo, hi, y):
    # a later segment of a plan: its mask of odd n, folded over q as
    # smooth_histogram folds it, in index coordinates j = (n - 1) / 2 mod q
    # (q / 2 for even q), whole or cut in two as at a cutoff, onto earlier
    # counts, adds the index bincount of its odd members
    primes = primes_upto(min(y, math.isqrt(hi)))
    members, _ = smooth_in_range(lo, hi, y, primes)
    mask, first = smooth_in_range(lo, hi, y, primes, None, 101)
    assert first == lo | 1 and np.array_equal(mask, odd_mask(members, first, hi))
    odd = members[members % 2 == 1]
    rng = np.random.default_rng(lo)
    for q in FOLD_Q:
        size = q if q & 1 else q // 2
        want = np.bincount(odd // 2 % size, minlength=size)
        cuts = (0, mask.size // 3)
        assert size == 1 or any((first // 2 + cut) % size for cut in cuts)  # a fold starts inside a row
        for cut in cuts:
            base = rng.integers(0, 1000, size, dtype=np.int32)
            at = base.copy()
            sieve._fold(mask[:cut], first // 2, at)
            sieve._fold(mask[cut:], first // 2 + cut, at)
            assert np.array_equal(at - base, want), (q, cut)
    if y >= hi:
        assert members.size == hi - lo + 1


@pytest.mark.parametrize(
    "lo, hi, y",
    [(1, 5000, 100), (4097, 8192, 100), (4097, 8192, 5000), (4098, 8191, 1), (2, 2, 7),
     (BLOCKS_LO + 2, BLOCKS_HI, 1000), (BLOCKS_LO + 2, BLOCKS_HI, 13)],
)
def test_a_sieved_count_segment_gives_its_mask_and_nothing_of_size_q(lo, hi, y):
    # the count contract: (mask, first), mask the bools of the odd
    # n = first + 2i <= hi, (hi - first) // 2 + 1 of them (none for [2, 2]),
    # in log sums or by smooth parts, with no array of q entries made
    q, x_floor = 2**23, 10**8
    primes = primes_upto(min(y, math.isqrt(x_floor)))
    members, _ = smooth_in_range(lo, hi, y, primes)
    tracemalloc.start()
    try:
        mask, first = smooth_in_range(lo, hi, y, primes, None, q, x_floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == lo | 1 and mask.dtype == bool and mask.size == max((hi - first) // 2 + 1, 0)
    assert np.array_equal(mask, odd_mask(members, first, hi))
    assert peak < q + 6 * mask.size


def test_folded_counts_of_a_generated_segment_are_its_bincount():
    x, y = 10**8, 30
    primes = primes_upto(y)
    assert sieve._generates(x, y, primes)
    members, _ = smooth_in_range(1, x, y, primes)
    for q in FOLD_Q:
        counts, _ = smooth_in_range(1, x, y, primes, None, q)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(members % q, minlength=q)), q
    for lo, hi in ((1, x), (10**6, 10**6 + 100)):  # generated, then sieved
        with pytest.raises(ValueError, match="not both"):
            smooth_in_range(lo, hi, y, primes, imaginary_prime, 101)


def test_a_first_segment_short_of_its_plan_is_sieved():
    # [1, hi] that the generator would take, but as the first segment of a
    # longer plan: sieved, so it gives the mask of its odd n
    x, hi, y, q = 3 * 10**8, 10**8, 30, 4097
    primes = primes_upto(y)
    assert sieve._generates(hi, y, primes)
    members, _ = smooth_in_range(1, hi, y, primes)
    mask, first = smooth_in_range(1, hi, y, primes, None, q, x)
    assert first == 1 and mask.size == hi // 2
    assert np.array_equal(2 * np.flatnonzero(mask) + 1, members[members % 2 == 1])


def all_odd_n(lo, hi, y_floor, primes, prime_value, q, x_floor):
    """smooth_in_range's count for a segment if every odd n were smooth,
    as a read-only broadcast mask: no memory, and a fold that wraps int32."""
    first = lo | 1
    return np.broadcast_to(True, max((hi - first) // 2 + 1, 0)), first


def test_segment_counts_are_int64_from_x_at_two_to_the_31():
    # the fold's counts, `at` and T, and so the histogram, are int32 below
    # x = 2^31 and int64 from it on (masks mocked, their fold skipped)
    for x, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        with mock.patch.object(sieve, "smooth_in_range", all_odd_n), \
                mock.patch.object(sieve, "_fold", lambda mask, j0, counts: None):
            h = smooth_histogram(x, 2**16 + 1, 10007, 1 << 26)
        assert h.dtype == dtype and not h.any()


def test_a_histogram_from_x_at_two_to_the_31_adds_in_int64():
    # with every odd n counted (mocked: sieving 2^30 odd n takes minutes)
    # the histogram counts every n <= x, so mod 1 it is 2^31, which would
    # wrap in int32; one below, it is 2^31 - 1 in int32
    segment = 1 << 26
    for x, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        with mock.patch.object(sieve, "smooth_in_range", all_odd_n):
            for q in (1, 5, 2**16):
                h = smooth_histogram(x, 2**16 + 1, q, segment)
                want = [(x - r) // q + (r > 0) for r in range(q)]
                assert h.dtype == dtype and h.tolist() == want, (x, q)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 8, 45, 1000, 1001])
def test_spread_moves_each_class_to_its_double(q):
    rng = np.random.default_rng(q)
    for size in sorted(s for s in {1, 2, q // 2, (q + 1) // 2, q} if 1 <= s <= q):
        t = rng.integers(0, 1000, size)
        out_size = q if 2 * size - 1 > q else 2 * size - 1
        base = rng.integers(0, 1000, out_size)
        want = np.bincount(2 * np.arange(size) % q, weights=t, minlength=q)[:out_size] + base
        out = base.copy()
        got = sieve._spread(t, q, out)
        assert got is out and np.array_equal(got, want)


def test_lifted_histogram_is_the_same_on_one_and_two_threads():
    # segments of three blocks, the last block of each short, a short last
    # segment, and the cutoffs 650000 and 325000 inside the plan
    x, y, segment = 1_300_000, 1000, sieve._BLOCK + (1 << 19) + 3
    assert x % segment
    members = smooth_members(x, y).members
    with mock.patch.object(sieve, "usable_cpus", lambda: 2):
        for q in FOLD_Q:
            runs = [smooth_histogram(x, y, q, segment, threads) for threads in (1, 2)]
            assert np.array_equal(runs[0], runs[1])
            assert np.array_equal(runs[0], np.bincount(members % q, minlength=q)), q


LIFT_Q = FOLD_Q + [2**14, 3 * 5 * 7 * 11 * 13 * 17]  # and an odd composite: 255255


def lifted_grid(k):
    """(x, y) for x = 2^k - 1, 2^k, 2^k + 1 and y across the plan's regimes."""
    for x in (2**k - 1, 2**k, 2**k + 1):
        r = math.isqrt(x)
        yield from ((x, y) for y in (1, 2, 3, 12, 13, 17, r, r + 1, x + 1))


@pytest.mark.parametrize("x, y, segment", [(x, y, 1 << 12) for x, y in lifted_grid(16)]
                         + [(x, y, s) for x, y in lifted_grid(6) for s in (1, 3)])
def test_lifted_histogram_equals_the_listing_bincount(x, y, segment):
    # segments of 2^12 around 2^16, whose first holds a dozen cutoffs
    # x >> a; and of 1 and 3 around 2^6, where every bound is one to three n
    members = smooth_members(x, y, segment).members
    with mock.patch.object(sieve, "usable_cpus", lambda: 2):
        for q in LIFT_Q:
            want = np.bincount(members % q, minlength=q)
            for threads in (1, 2):
                assert np.array_equal(smooth_histogram(x, y, q, segment, threads), want), q
    assert psi(x, y, segment) == members.size


@pytest.mark.parametrize("x, y", list(lifted_grid(24)))
def test_lifted_histogram_at_two_to_the_24(x, y):
    # the default segment 2^22: the cutoffs 2^23 and 2^24 end segments
    # exactly, and 2^22 ends the first one
    members = smooth_members(x, y).members
    with mock.patch.object(sieve, "usable_cpus", lambda: 2):
        for q, threads in zip((1, 2**14, 255255, 10**6 + 3), itertools.cycle((1, 2))):
            want = np.bincount(members % q, minlength=q)
            assert np.array_equal(smooth_histogram(x, y, q, threads=threads), want), q


CUT_Q = [1, 2, 3, 4, 7, 101, 2**16, 999983, 10**6 + 3]


def assert_histograms_on_one_and_two_threads(x, y, segment, want):
    """smooth_histogram(x, y, q, segment) equals want(q) on 1 and 2 threads,
    bit for bit, for every q of CUT_Q and for q = x + 2, past x."""
    with mock.patch.object(sieve, "usable_cpus", lambda: 2):
        for q in CUT_Q + [x + 2]:
            runs = [smooth_histogram(x, y, q, segment, threads) for threads in (1, 2)]
            assert runs[0].dtype == runs[1].dtype and np.array_equal(runs[0], runs[1]), (x, y, q)
            assert np.array_equal(runs[0], want(q)), (x, y, q)


@pytest.mark.parametrize("y", [1000, 5000])  # log sums past the first segment, and smooth parts
@pytest.mark.parametrize("x", [2**22 + 1, 3 * 2**22 - 1, 5 * 10**6, 2**24 - 1, 2**24 + 1])
def test_cutoffs_inside_default_segments_match_the_listing(x, y):
    # the cutoffs floor(x / 2^a) past the first segment fall inside a
    # segment of 2^22 (2^22 + 1 >> 1, 3 * 2^22 - 1 and its halves, 2.5e6
    # ...) or end one (2^23 at x = 2^24 + 1): the fold stops after the last
    # odd n <= c, steps the lift and goes on
    members = smooth_members(x, y).members
    assert len(smooth_plan(x, y)[0]) == -(-x // DEFAULT_SEGMENT) > 1
    assert_histograms_on_one_and_two_threads(x, y, DEFAULT_SEGMENT,
                                             lambda q: np.bincount(members % q, minlength=q))


@pytest.mark.parametrize(
    "segment, xs",
    [(1, (31, 64)), (2, (33, 100)), (3, (64, 127)), (5, (65, 200)),
     (2**12, (2**13 + 1, 3 * 2**12 - 1, 2**14 - 1, 2**14))],
)
def test_cutoffs_inside_small_segments_match_trial_division(segment, xs):
    # every cutoff ends a segment of 1; segments of 2, 3 and 5 hold cutoffs
    # at their start, inside and at their end, and segments of 2^12 cut
    # x <= 2^14 as the default segment cuts x <= 2^24
    lpf = trial_lpf_upto(max(xs))
    for x in xs:
        r = math.isqrt(x)
        for y in sorted({1, 2, 3, 5, r, r + 1, x}):
            smooth = np.flatnonzero(lpf[: x + 1] <= y)[1:]  # n >= 1
            assert_histograms_on_one_and_two_threads(x, y, segment,
                                                     lambda q: np.bincount(smooth % q, minlength=q))


def test_smooth_scans_hold_x_below_two_to_the_63():
    # the generator's int64 products would wrap past 2^63 and never stop
    with mock.patch.object(sieve, "_generate", side_effect=AssertionError("listing began")):
        for x in (2**63, 2**63 + 5, float(2**63), 1e19):
            with pytest.raises(ValueError, match="2\\^63"):
                psi(x, 2)
            with pytest.raises(ValueError, match="2\\^63"):
                smooth_plan(x, 2)
    assert psi(2**63 - 1, 2) == 63


@pytest.mark.parametrize("x, y", [(1e17, 6e7), (1e17, 2e5), (1e12, 1e7), (1e9, 1e5)])
def test_a_sieved_plan_past_its_budget_is_refused_before_the_prime_table(x, y):
    # y > sqrt(x), or (y / ln y)^2 / 2 > MAX_SEGMENT: the generator cannot take
    # the plan, so its segment list is refused before any prime is listed
    # (3.5 million of them at y = 6e7) or Rankin's bound is priced
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with mock.patch.object(sieve, "primes_upto", side_effect=AssertionError("listed")), \
                pytest.raises(ResourceLimitError, match="segment list needs"):
            smooth_plan(x, y, segment=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2 and peak < 2**20


@pytest.mark.parametrize("x, y", [(1e17, 1e5), (1e12, 1e4)])
def test_a_plan_the_generator_might_take_still_lists_its_primes_first(x, y):
    # (y / ln y)^2 / 2 <= MAX_SEGMENT and y <= sqrt(x): only Rankin's bound can
    # tell, so the primes are listed before the refusal, as before
    listed = []
    real = sieve.primes_upto

    def spy(n):
        listed.append(n)
        return real(n)

    with mock.patch.object(sieve, "primes_upto", side_effect=spy), \
            pytest.raises(ResourceLimitError, match="segment list needs"):
        smooth_plan(x, y, segment=1 << 10)
    assert listed[0] == int(y)  # then its own recursion down to sqrt(y)
