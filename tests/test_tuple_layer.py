"""The tuple layer's chunked runs against per-tuple loops.

`buchstab_expand`, `relaxed_tuple_sum` and `sum_prime_convolution` take the
prime-tuple walk in chunks of tuples of one level and evaluate each chunk's
(tuple, m) terms as one flat run, cut into chunks.  The oracles below list
the tuples with itertools and make one arange, one f call and one sum (or one
np.add.at) per tuple.  Chunks are also forced small, so that tuples straddle
their edges.  The convolution's counts are integers, so it must match bit for
bit; the float sums must match within 1e-14 per term.
"""

import bisect
import functools
import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friable_sums import sieve, sums
from friable_sums.arith import floor_int, floor_quotient, fsum_complex
from friable_sums.decomp import buchstab_expand, relaxed_tuple_sum
from friable_sums.sieve import _runs, _tuple_walk, next_primes_above, primes_between, tuple_primes
from friable_sums.sums import sum_prime_convolution


def phase_map(q, a):
    def f(n):
        ang = (2.0 * math.pi / q) * ((a % q) * (n % q) % q)
        return np.cos(ang) + 1j * np.sin(ang)

    return f


def tuples(ps, x, depth, distinct):
    """(product, indices) of every tuple of 1 to `depth` of the primes ps,
    indices increasing (strictly when distinct), with product <= x."""
    return _tuples(tuple(int(p) for p in ps), floor_int(x), depth, distinct)


# listed once per cell, for the four chunk sizes of `sizes` to share
@functools.lru_cache(maxsize=None)
def _tuples(ps, x_floor, depth, distinct):
    pick = itertools.combinations if distinct else itertools.combinations_with_replacement
    out = []
    for k in range(1, depth + 1):
        # a k-tuple's largest prime is at most x_floor // ps[0]^(k-1)
        top = bisect.bisect_right(ps, x_floor // ps[0] ** (k - 1)) if ps else 0
        for idx in pick(range(top), k):
            pr = math.prod(ps[i] for i in idx)
            if pr <= x_floor:
                out.append((pr, idx))
    return tuple(out)


def orderings(idx):
    """Distinct orderings of a nondecreasing index tuple (a multinomial)."""
    total = math.factorial(len(idx))
    for i in set(idx):
        total //= math.factorial(idx.count(i))
    return total


def oracle_corrections(f, x, y, r, strict):
    """Per level j: the sum of f(m * pr) over j-tuples pr and m <= x / pr,
    and its number of terms."""
    parts, terms = [[] for _ in range(r)], [0] * r
    for pr, idx in tuples(primes_between(y, x), x, r, strict):
        m = np.arange(1, floor_quotient(x, pr) + 1, dtype=np.int64)
        parts[len(idx) - 1].append(complex(np.sum(f(m * pr))))
        terms[len(idx) - 1] += m.size
    return [fsum_complex(p) for p in parts], terms


def oracle_relaxed(j, x, y, f):
    parts, terms = [], 0
    for pr, idx in tuples(tuple_primes(y, x, j), x, j, distinct=False):
        if len(idx) == j:
            m = np.arange(1, floor_quotient(x, pr) + 1, dtype=np.int64)
            parts.append(orderings(idx) * complex(np.sum(f(m * pr))))
            terms += m.size
    return fsum_complex(parts), terms


def oracle_convolution(j, x, y, q, a, nu, strict):
    counts = np.zeros(q, dtype=np.int64)
    for pr, idx in tuples(tuple_primes(y, x, j), x, j, strict):
        if len(idx) == j:
            z = floor_quotient(x, pr)
            m = np.arange(1, min(z, q) + 1, dtype=np.int64)
            np.add.at(counts, m * (pr % q) % q, (z - m) // q + 1)
    return sums._binned_sum(counts, q, [a], nu)[0]


# tuples per walk chunk and terms per run chunk; None keeps the default
SIZES = [None, 1, 5, 64]


@pytest.fixture(params=SIZES, ids=lambda s: "default" if s is None else f"chunk{s}")
def sizes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(sieve, "_TUPLE_CHUNK", request.param)


@pytest.mark.parametrize("ps, x_floor, depth, distinct, level, cap", [
    ([3, 5, 7, 11, 13], 2000, 3, True, None, None),
    ([3, 5, 7, 11, 13], 2000, 4, False, None, 7),
    ([3, 5, 7, 11, 13], 2000, 4, False, 2, 50),
    ([11, 13], 100, 2, True, 2, None),  # 11 * 13 > 100: level 2 is empty
    ([], 100, 2, True, None, None),
])
def test_runs_list_each_tuples_terms_once(sizes, ps, x_floor, depth, distinct, level, cap):
    # the callers' layout: a walk chunk's tuples (of `level`, when given),
    # each with its run m = 1 .. min(z, cap), z = x_floor // product
    want = [(len(idx), pr, m, x_floor // pr)
            for pr, idx in tuples(ps, x_floor, depth, distinct)
            if level in (None, len(idx))
            for m in range(1, min(x_floor // pr, cap or x_floor) + 1)]
    got = []
    for k, pr, _ in _tuple_walk(np.array(ps, dtype=np.int64), x_floor, depth, distinct):
        assert 0 < pr.size <= sieve._TUPLE_CHUNK
        if level not in (None, k):
            continue
        z = x_floor // pr
        for t, m in _runs(z if cap is None else np.minimum(z, cap)):
            assert 0 < t.size == m.size <= sieve._TUPLE_CHUNK
            got += [(k, int(pr[i]), mi, int(z[i])) for i, mi in zip(t.tolist(), m.tolist())]
    assert sorted(got) == sorted(want)


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.integers(0, 20), max_size=40),
       chunk=st.integers(1, 70) | st.just(1 << 16))
def test_runs_take_a_chunk_size(lengths, chunk):
    # the chunk overrides _TUPLE_CHUNK: full chunks but the last, the runs in order
    got = list(_runs(np.array(lengths, dtype=np.int64), chunk))
    assert all(0 < t.size == m.size <= chunk for t, m in got)
    assert all(t.size == chunk for t, _ in got[:-1])
    assert all(t.dtype == m.dtype == np.int64 for t, m in got)
    flat = [(int(t), int(m)) for ts, ms in got for t, m in zip(ts, ms)]
    assert flat == [(t, m) for t, n in enumerate(lengths) for m in range(1, n + 1)]


@pytest.mark.parametrize("lengths", [[], [0], [0, 0, 0]])
def test_runs_of_no_terms_yield_nothing(lengths):
    # the split-count pass lays out no runs when no k is admissible
    assert list(_runs(np.array(lengths, dtype=np.int64))) == []


@pytest.mark.parametrize("x, y, r, ordering", [
    (2000, 2, 6, "nondecreasing"),  # 3^6 <= 2000 < 3^7: all six levels occupied
    (5000.5, 2, 6, "strict"),  # 3*5*7*11*13 > 5000.5: levels 5 and 6 empty
    (1e4, 2, 4, "strict"),
    (1e4, 20, 3, "nondecreasing"),
    (30000.5, 12, 3, "strict"),
    (1234.75, 30, 2, "strict"),
    (200, 15, 2, "strict"),  # y >= x / p0: level 2 empty
    (50, 60, 2, "strict"),  # y >= x: no prime above y
])
def test_buchstab_matches_the_per_tuple_loop(sizes, x, y, r, ordering):
    f = phase_map(101, 7)
    got = buchstab_expand(f, x, y, r, ordering=ordering)
    want, terms = oracle_corrections(f, x, y, r, ordering == "strict")
    assert len(got.corrections) == r
    for c, w, n in zip(got.corrections, want, terms):
        assert abs(c - w) <= 1e-14 * max(1, n)


@pytest.mark.parametrize("j, x, y", [
    (2, 2000.5, 7),
    (3, 1e4, 5),
    (6, 2000, 2),  # 3^6 <= 2000: the one 6-tuple (3, ..., 3) and its kin
    (2, 100, 7),  # 11^2 > 100: no pair
    (2, 50, 60),  # y >= x
])
def test_relaxed_sum_matches_the_per_tuple_loop(sizes, j, x, y):
    f = phase_map(13, 5)
    want, terms = oracle_relaxed(j, x, y, f)
    assert abs(relaxed_tuple_sum(j, x, y, f) - want) <= 1e-14 * max(1, terms)


@pytest.mark.parametrize("j, x, y, q", [
    (1, 20000.5, 50, 7),  # q below every z
    (1, 20000, 50, 10007),  # q above most z
    (2, 1e5, 30, 3600),
    (2, 1e5 + 0.25, 30, 10007),  # q above every z
    (3, 1e5, 10, 101),
    (3, 3e4, 12, 1),
    (2, 200, 15, 7),  # y >= x / p0: no pair
    (1, 50, 60, 7),  # y >= x
])
@pytest.mark.parametrize("nu", [1, -1, 3])
@pytest.mark.parametrize("strict", [True, False])
def test_convolution_matches_the_per_tuple_loop_bit_for_bit(sizes, j, x, y, q, nu, strict):
    a = 7 if math.gcd(7, q) == 1 else 1
    got = sum_prime_convolution(j, x, y, q, a, nu, strict=strict)
    assert got == oracle_convolution(j, x, y, q, a, nu, strict)


@pytest.mark.parametrize("j, x, y", [(2, 1e6, 1e16), (1, 2000, 1e20), (3, 1e12, 1e6 - 1),
                                     (2, 1e20, 1e10), (4, 2**70, 2**18)])
def test_tuple_primes_is_empty_before_any_search_when_no_prime_above_y_fits(j, x, y):
    with mock.patch.object(sieve, "next_primes_above", side_effect=AssertionError("searched")):
        assert tuple_primes(y, x, j).size == 0
    start = time.perf_counter()
    for strict in (True, False):
        assert sum_prime_convolution(j, x, y, 7, 1, strict=strict).terms == 0
    assert time.perf_counter() - start < 2


def test_tuple_primes_keeps_the_least_prime_bound():
    for j in (1, 2, 3, 4):
        for x in (0.5, 2, 97.5, 1000, 30031, 10**5):
            for y in (-3, 0.5, 2, 7, 30.5, 97, 150, 1000):
                want = primes_between(y, math.floor(x) // next_primes_above(y, 1)[0] ** (j - 1))
                assert np.array_equal(tuple_primes(y, x, j), want), (j, x, y)


@pytest.mark.parametrize("j, x, y", [(1, 1e16, 1e15), (1, 1e18, 1e17), (2, 1e30, 1e14),
                                     (3, 1e40, 1e12)])
def test_tuple_primes_refuses_a_table_past_the_budget_before_any_search(j, x, y):
    # p0 < 2 * (floor(y) + 1) by Bertrand, so floor(x) // (2 * (floor(y) + 1))^(j - 1),
    # exactly floor(x) at j = 1, is at most the table's top, so the table is
    # refused before the trial-division search for p0 (1.7 s at (1, 1e16, 1e15))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with mock.patch.object(sieve, "next_primes_above", side_effect=AssertionError("searched")):
            with pytest.raises(sieve.ResourceLimitError, match="a prime table .*entry budget"):
                sum_prime_convolution(j, x, y, 7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2 and peak < 2**20


@pytest.mark.parametrize("j, y", [(1, 7), (2, 7), (2, 1000.5), (3, 100), (4, 2)])
def test_tuple_primes_refuses_exactly_the_tables_past_the_budget(j, y, monkeypatch):
    # its check before the search is a lower bound on the table's top, so it
    # refuses no table within the budget; the table's own check, here without
    # the table, refuses the rest
    tops = []

    def table(lo, hi):
        tops.append(hi)
        sieve._check_budget(hi, "a prime table")

    monkeypatch.setattr(sieve, "primes_between", table)
    power = next_primes_above(y, 1)[0] ** (j - 1)
    x = (sieve.MAX_SEGMENT + 1) * power - 1  # the top is exactly the budget
    tuple_primes(y, x, j)
    with pytest.raises(sieve.ResourceLimitError, match=f"needs {sieve.MAX_SEGMENT + 1} entries"):
        tuple_primes(y, x + 1, j)
    assert tops[0] == sieve.MAX_SEGMENT  # at j = 1 the check before the search is exact


@pytest.mark.parametrize("strict, terms", [(True, 3926), (False, 6955)])
def test_convolution_with_products_past_two_to_the_64(strict, terms):
    # four primes just above 2^20 multiply to past 2^80, so products must stay
    # Python ints; z = x // product stays small, and only the primes up to
    # x / p0^3 = p0 + 500 are listed, so the cell runs in a few milliseconds
    y = 1 << 20
    p0 = next_primes_above(y, 1)[0]
    x = p0**3 * (p0 + 500)
    assert p0**4 > 1 << 80
    got = sum_prime_convolution(4, x, y, 1009, 5, strict=strict)
    assert got.terms == terms
    assert got == oracle_convolution(4, x, y, 1009, 5, 1, strict)


CHUNK = sieve._TUPLE_CHUNK


@pytest.mark.parametrize("x", [0.5, 0, -3.5, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 0.5,
                               3 * CHUNK + 7.25])
def test_buchstab_main_term_is_the_plain_full_sum(x):
    # the main term is the empty tuple's run m = 1 .. floor(x), summed in
    # chunks of _TUPLE_CHUNK terms; y >= x leaves no correction
    f = phase_map(101, 7)
    got = buchstab_expand(f, x, max(x, 2), 2)
    n = np.arange(1, floor_int(x) + 1, dtype=np.int64)
    assert got.corrections == (0j, 0j)
    assert abs(got.main - complex(np.sum(f(n)))) <= 1e-14 * max(1, n.size)
    if n.size <= sieve._TUPLE_CHUNK:  # one chunk: the same pairwise sum
        assert got.main == complex(np.sum(f(n)))
