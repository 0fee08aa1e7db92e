import argparse
import cmath
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friable_sums import cli, optimizer, sieve, sums
from friable_sums.arith import eq_phase, fsum_complex
from friable_sums.sieve import ResourceLimitError
from friable_sums.sums import (
    SumParams,
    _phase_sum,
    complete_monomial_sum,
    moment_count,
    sum_bilinear,
    sum_linear,
    sum_power,
    sum_prime_convolution,
    sum_theta,
    sum_twisted,
    weil_envelope_violation,
)


def naive_smooth(x, y):
    """Oracle: smooth members by per-integer trial division."""
    out = []
    for n in range(1, int(math.floor(x)) + 1):
        m, largest, d = n, 1, 2
        while d * d <= m:
            while m % d == 0:
                largest, m = d, m // d
            d += 1
        largest = max(largest, m) if m > 1 else largest
        if largest <= y:
            out.append(n)
    return out


def geometric_sum(x, q, a):
    """Oracle: sum of e_q(a n) over 1 <= n <= floor(x), via the full-period
    count plus a short tail (independent of the smooth machinery)."""
    z = int(math.floor(x))
    full, rem = divmod(z, q)
    tail = fsum_complex(eq_phase(a * n, q) for n in range(1, rem + 1))
    period = fsum_complex(eq_phase(a * n, q) for n in range(q))
    return full * period + tail


def test_params_validation():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            SumParams(x=10, y=2, q=3, a=1, theta=theta)
    with pytest.raises(ValueError):
        SumParams(x=10, y=2, q=10, a=4)
    with pytest.raises(ValueError):
        SumParams(x=10, y=2, q=7, a=1, nu=0)
    with pytest.raises(ValueError):
        SumParams(x=10, y=2, q=0, a=1)
    with pytest.raises(ValueError, match="2\\^63"):
        SumParams(x=10, y=2, q=2**63, a=1)
    assert SumParams(x=10, y=2, q=2**63 - 1, a=1).q == 2**63 - 1
    with pytest.raises(ValueError, match="needs nu = 1, got nu=3"):
        SumParams(x=1000, y=10, q=7, a=1, nu=3, theta=0.3)


@pytest.mark.parametrize("threads", [0, -1])
def test_sum_power_rejects_thread_counts_below_one(threads):
    for q in (7, (1 << 23) + 9):  # histogram and direct paths
        with pytest.raises(ValueError, match="threads"):
            sum_power(SumParams(x=100, y=5, q=q, a=1), threads=threads)


@pytest.mark.parametrize("segment", [0, -1])
def test_sum_power_rejects_segments_below_one(segment):
    # an empty range of segments would give SumValue(0j, 0)
    for q in (101, (1 << 23) + 9):  # histogram and direct paths
        with pytest.raises(ValueError, match="segment must be at least 1"):
            sum_power(SumParams(x=1e5, y=100, q=q, a=1), segment=segment)


def test_sum_linear_trivial_modulus_counts_members():
    v = sum_linear(SumParams(x=1000, y=13, q=1, a=0))
    assert v.value == v.terms == len(naive_smooth(1000, 13))


def test_sum_linear_hand_example():
    v = sum_linear(SumParams(x=10, y=2, q=3, a=1))
    assert v.terms == 4
    assert abs(v.value - (-2)) < 1e-12


def test_sum_linear_full_range_matches_geometric_oracle():
    for x, q, a in [(500, 7, 3), (1000, 13, 5), (255, 16, 3)]:
        v = sum_linear(SumParams(x=x, y=x, q=q, a=a))
        assert abs(v.value - geometric_sum(x, q, a)) < 1e-9 * max(1, abs(v.value))


def test_sum_linear_one_period_is_small():
    for q in (11, 64, 101):
        v = sum_linear(SumParams(x=q, y=q, q=q, a=3 if q != 64 else 5))
        assert abs(v.value) <= 1 + 1e-9


def test_conjugation_symmetry():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.randrange(2, 400)
        a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
        x, y = rng.randrange(50, 2000), rng.randrange(2, 50)
        v1 = sum_linear(SumParams(x=x, y=y, q=q, a=a)).value
        v2 = sum_linear(SumParams(x=x, y=y, q=q, a=q - a)).value
        assert abs(v1.conjugate() - v2) < 1e-9 * max(1.0, abs(v1))


def test_magnitude_bounded_by_terms():
    rng = random.Random(12)
    for _ in range(30):
        q = rng.randrange(1, 300)
        a = next(t for t in iter(lambda: rng.randrange(0, max(q, 1)), None) if math.gcd(t, q) == 1)
        v = sum_power(SumParams(x=rng.randrange(10, 3000), y=rng.randrange(2, 40), q=q, a=a, nu=rng.choice([1, 2, 3])))
        assert abs(v.value) <= v.terms + 1e-9


def test_sum_power_nu1_identical_to_sum_linear():
    p = SumParams(x=5000, y=19, q=101, a=7, nu=1)
    assert sum_power(p).value == sum_linear(p).value


def test_sum_power_hand_example():
    v = sum_power(SumParams(x=10, y=2, q=5, a=1, nu=2))
    assert abs(v.value - 4 * math.cos(2 * math.pi / 5)) < 1e-12


def test_sum_power_negative_nu_matches_brute_force():
    q = 13
    x = y = 200
    v = sum_power(SumParams(x=x, y=y, q=q, a=2, nu=-1))
    brute = fsum_complex(
        eq_phase(2 * pow(n, -1, q), q) for n in range(1, 201) if n % q != 0
    )
    assert v.terms == 200 - 200 // q
    assert abs(v.value - brute) < 1e-9


@pytest.mark.parametrize(
    "q",
    [1, 2, 3600, 10007, 1 << 20, 720720, (1 << 24) + 43, (1 << 31) - 1, (1 << 31) + 11,
     1 << 32, 1 << 40, 1 << 62],
)
@pytest.mark.parametrize("nu", [-3, -1, 1, 2])
def test_monomial_residues_equal_python_pow_on_units(q, nu):
    # the residues from 0 and random ones; 720720 = 2^4 3^2 5 7 11 13
    r = np.concatenate([np.arange(min(q, 1000)), np.random.default_rng(q).integers(0, q, 5000)])
    pw, units = sums._monomial_residues(r, q, nu)
    idx = sums._scaled(7, pw, q)
    want_units = [math.gcd(v, q) == 1 for v in r.tolist()]
    assert (units is None) == (nu > 0)
    assert units is None or units.tolist() == want_units
    for v, got, ok in zip(r.tolist(), idx.tolist(), want_units):
        if ok or nu > 0:
            assert got == 7 * pow(v, nu, q) % q


_TREE_MODULI = [1, 2, 4, 510510, 720720, (1 << 31) - 1, (1 << 31) + 11, (1 << 32) + 15, 1 << 40,
                1 << 62]
# 0 to 3 residues, and odd sizes either side of a power of two, whose tree
# levels are odd and padded with a 1
_TREE_SIZES = [0, 1, 2, 3, 7, 9, 15, 17, 1023, 1025]


@pytest.mark.parametrize("q", _TREE_MODULI)
@pytest.mark.parametrize("size", _TREE_SIZES)
def test_product_tree_inverts_every_unit(q, size):
    draws = np.random.default_rng(size).integers(0, q, 4 * size + 8).tolist()
    u = ([v for v in draws if math.gcd(v, q) == 1] + [1] * size)[:size]
    wide = q > sums._VEC_MOD_LIMIT and q & (q - 1)
    got = sums._inverses(np.array(u, dtype=object if wide else np.uint64), q)
    assert got.size == size
    assert [int(v) for v in got.tolist()] == [pow(v, -1, q) for v in u]


@pytest.mark.parametrize("q", _TREE_MODULI)
@pytest.mark.parametrize("size", _TREE_SIZES)
@pytest.mark.parametrize("nu", [-6, -3, -2, -1])
def test_negative_powers_by_the_tree_equal_python_pow(q, size, nu):
    # residue 0 first, then random residues: non-units among them wherever q
    # has small prime factors
    r = np.concatenate([np.zeros(min(size, 1), dtype=np.int64),
                        np.random.default_rng(size).integers(0, q, max(size - 1, 0))])
    pw, units = sums._monomial_residues(r, q, nu)
    assert units.tolist() == [math.gcd(v, q) == 1 for v in r.tolist()]
    got = sums._scaled(1, pw, q)[units].tolist()
    assert got == [pow(v, nu, q) for v in r.tolist() if math.gcd(v, q) == 1]


@pytest.mark.parametrize("q", [1_000_003, 720720, (1 << 32) + 15, 1 << 40])
@pytest.mark.parametrize("nu", [-3, -1])
def test_negative_powers_take_no_phi_chain_and_no_pow_per_residue(monkeypatch, q, nu):
    # the exponent handed to _pow_vec is |nu|, never |nu| * (phi(q) - 1), and
    # the builtin pow runs once per call (the tree's root), not once per residue
    exponents, pows = [], [0]
    real_pow_vec = sums._pow_vec

    def pow_vec(b, e, m):
        exponents.append(e)
        return real_pow_vec(b, e, m)

    def counted_pow(*args):
        pows[0] += 1
        return pow(*args)

    monkeypatch.setattr(sums, "_pow_vec", pow_vec)
    monkeypatch.setattr(sums, "pow", counted_pow, raising=False)
    r = np.random.default_rng(1).integers(0, q, 10**4)
    pw, units = sums._monomial_residues(r, q, nu)
    assert exponents == [-nu] and pows[0] == 1
    assert sums._scaled(1, pw[units][:50], q).tolist() == [
        pow(v, nu, q) for v in r[units][:50].tolist()]
    exponents.clear()
    pows[0] = 0
    monkeypatch.setattr(sums, "HIST_LIMIT", 0)
    v = sum_power(SumParams(x=2e4, y=30, q=q, a=1, nu=nu), segment=1 << 12)
    assert v.terms > 0 and max(exponents) == -nu and pows[0] == len(exponents) == 5


@pytest.mark.parametrize("hist_limit", [sums.HIST_LIMIT, 0])
@pytest.mark.parametrize("q, nu", [(1009, 1), (3600, 3), (720720, -1), ((1 << 32) + 15, -2)])
def test_one_pass_for_several_residues_matches_one_pass_each(monkeypatch, hist_limit, q, nu):
    monkeypatch.setattr(sums, "HIST_LIMIT", hist_limit)
    avals = [a for a in (1, 7, 11, 19, q - 1) if math.gcd(a, q) == 1]
    cells = [SumParams(x=3e4, y=50, q=q, a=a, nu=nu) for a in avals]
    twist = lambda pr: cmath.exp(0.1j * pr)  # noqa: E731
    for prime_value in (None, twist):
        shared = sums._monomial_sum(cells, 1 << 12, 1, prime_value)
        assert shared == [sums._monomial_sum([c], 1 << 12, 1, prime_value)[0] for c in cells]
    assert shared[0] == sum_twisted(cells[0], twist, segment=1 << 12)
    shared = sums._monomial_sum(cells, 1 << 12, 2)
    assert shared == [sum_power(c, segment=1 << 12) for c in cells]


def test_sum_power_matches_naive_oracle_randomized():
    rng = random.Random(13)
    for _ in range(50):
        x = rng.randrange(20, 2000)
        y = rng.randrange(2, 60)
        q = rng.randrange(2, 500)
        a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
        nu = rng.choice([1, 2, 3, 5])
        v = sum_power(SumParams(x=x, y=y, q=q, a=a, nu=nu))
        brute = fsum_complex(eq_phase(a * pow(n, nu, q), q) for n in naive_smooth(x, y))
        assert abs(v.value - brute) < 1e-9 * max(1.0, abs(brute))


def test_direct_path_matches_histogram_path():
    for q, a, nu in [(101, 7, 1), (97, 3, 2), (13, 5, -1)]:
        hist = sum_power(SumParams(x=3000, y=17, q=q, a=a, nu=nu))
        with mock.patch.object(sums, "HIST_LIMIT", 0):
            direct = sum_power(SumParams(x=3000, y=17, q=q, a=a, nu=nu), segment=512)
        assert abs(hist.value - direct.value) < 1e-9
        assert hist.terms == direct.terms


def test_sum_theta_zero_counts_members():
    v = sum_theta(SumParams(x=777, y=11, q=1, a=0, theta=0.0))
    assert v.value == v.terms == len(naive_smooth(777, 11))


def test_sum_theta_half_hand_example():
    v = sum_theta(SumParams(x=10, y=2, q=1, a=0, theta=0.5))
    assert abs(v.value - 2) < 1e-12


def test_sum_theta_at_rational_matches_sum_linear():
    p = SumParams(x=10**6, y=50, q=997, a=12, theta=12 / 997)
    vt = sum_theta(p)
    vl = sum_linear(p)
    assert abs(vt.value - vl.value) < 1e-6 * max(1.0, abs(vl.value))


def _dyadic(k, sign=1):
    """An odd multiple of 2^-k that is a double: its denominator is 2^k."""
    m = 0x16A09E667F3BCD & ((1 << min(k, 53)) - 1) | 1 if k <= 1000 else 3
    theta = sign * math.ldexp(m, -k)
    assert Fraction(theta).denominator == 1 << k
    return theta


THETA_GRID = (
    [_dyadic(k, s) for k in (0, 1, 23, 24, 52, 62, 63, 64, 65, 80, 1074) for s in (1, -1)]
    + [1e6 + 0.1, -(1e6 + 0.1), 999999.7, 12345.678, 1e-5, -3e-13, 3 * 2**-70, -(2**0.5)]
)
THETA_N = [1, 2, 3, 97, 2**32 - 1, 2**32, 2**32 + 1, 2**53 - 1, 2**53, 2**53 + 1,
           10**10 - 1, 10**10, 10**10 + 1, 2**62 + 12345]


@pytest.mark.parametrize("theta", THETA_GRID)
def test_sum_theta_matches_a_fraction_oracle_per_term(theta):
    """Each n goes alone through the segment seam sum_theta sums over, so
    every term e(theta * n) is held against theta * n mod 1 in Fractions;
    on the histogram path the seam carries n's residue count mod q.
    """
    t = Fraction(theta)
    for n in THETA_N:
        def one_segment(x, y, fn, segment, threads, prime_value=None):
            return [fn(np.array([n], dtype=np.int64), None)]

        def one_count(x, y, q, segment, threads):
            return np.bincount([n % q], minlength=q)

        with mock.patch.object(sums, "smooth_segments", one_segment), \
                mock.patch.object(sums, "smooth_histogram", one_count):
            v = sum_theta(SumParams(x=10, y=2, q=1, a=0, theta=theta))
        turns = t * n % 1
        want = cmath.exp(2j * math.pi * (turns.numerator / turns.denominator))
        assert v.terms == 1
        assert abs(v.value - want) <= 1e-14, (theta, n)


def test_histogram_adds_int32_counts_without_wrapping():
    # the histogram is int32 while x < 2^31; two classes of 2^31 - 1 each
    # must not wrap in the term count or the weights made from them
    def counts(x, y, q, segment, threads):
        assert q == 3
        return np.array([0, 2**31 - 1, 2**31 - 1], dtype=np.int32)

    with mock.patch.object(sums, "smooth_histogram", counts):
        v = sum_power(SumParams(x=10, y=2, q=3, a=1))
    assert v.terms == 2**32 - 2
    assert abs(v.value + (2**31 - 1)) <= 1e-6  # e(1/3) + e(2/3) = -1


@pytest.mark.parametrize("k", [1, 23, 24, 40, 62])
def test_sum_theta_at_a_dyadic_theta_is_sum_linear_bit_for_bit(k):
    a = (0x9E3779B97F4A7C15 & ((1 << min(k, 53)) - 1)) | 1
    vt = sum_theta(SumParams(x=2 * 10**5, y=60, q=1, a=0, theta=a / 2**k))
    vl = sum_linear(SumParams(x=2 * 10**5, y=60, q=1 << k, a=a))
    assert (vt.value, vt.terms) == (vl.value, vl.terms)


def test_sum_theta_requires_theta():
    with pytest.raises(ValueError):
        sum_theta(SumParams(x=10, y=2, q=3, a=1))


def test_sum_twisted_unit_weight_equals_sum_power():
    p = SumParams(x=4000, y=23, q=89, a=5, nu=2)
    v1 = sum_twisted(p, lambda prime: 1.0)
    v2 = sum_power(p)
    assert abs(v1.value - v2.value) < 1e-9
    assert v1.terms == v2.terms


def test_sum_twisted_legendre_mod3_hand_example():
    p = SumParams(x=10, y=2, q=1, a=0)
    chi3 = lambda prime: float(pow(prime, 1, 3) == 1) - float(pow(prime, 1, 3) == 2)
    v = sum_twisted(p, chi3)
    assert abs(v.value) < 1e-12  # 1 - 1 + 1 - 1 over {1, 2, 4, 8}


def test_sum_twisted_matches_naive_oracle():
    rng = random.Random(14)
    for _ in range(20):
        x = rng.randrange(50, 1500)
        y = rng.randrange(2, 40)
        q = rng.randrange(2, 100)
        a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
        phases = {p: cmath.exp(2j * math.pi * rng.random()) for p in range(2, y + 1)}
        pv = lambda prime: phases.get(prime, 1.0)

        def f_of(n):
            out, m, d = 1.0 + 0j, n, 2
            while d * d <= m:
                while m % d == 0:
                    out *= pv(d)
                    m //= d
                d += 1
            if m > 1:
                out *= pv(m)
            return out

        v = sum_twisted(SumParams(x=x, y=y, q=q, a=a), pv)
        brute = fsum_complex(f_of(n) * eq_phase(a * n, q) for n in naive_smooth(x, y))
        assert abs(v.value - brute) < 1e-9 * max(1.0, abs(brute))


def naive_prime_tuple_sum(j, x, y, q, a, nu, strict):
    """Oracle: literal nested loops over prime tuples and inner m."""
    ps = [p for p in range(2, int(x) + 1) if p > y and all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    total = []
    count = 0

    def rec(start, depth, prod):
        nonlocal count
        for i in range(start, len(ps)):
            pr = prod * ps[i]
            if pr > x:
                break
            if depth + 1 == j:
                if nu < 0 and math.gcd(pr, q) != 1:
                    continue
                z = int(math.floor(x / pr + 1e-12))
                while (z + 1) * pr <= x:
                    z += 1
                while z * pr > x:
                    z -= 1
                for m in range(1, z + 1):
                    if nu < 0 and math.gcd(m, q) != 1:
                        continue
                    total.append(eq_phase(a * pow(m * pr, nu, q), q))
                    count += 1
            else:
                rec(i + 1 if strict else i, depth + 1, pr)

    rec(0, 0, 1)
    return fsum_complex(total), count


@st.composite
def unit_or_composite_cells(draw):
    """(x, y, q, a, nu) with q = 1 (any nu) or composite q with nu < 0."""
    q = draw(st.sampled_from([1, 4, 6, 12, 15, 49, 91, 100, 210]))
    nu = draw(st.sampled_from([-2, -1, 1, 3] if q == 1 else [-3, -2, -1]))
    a = draw(st.sampled_from([a for a in range(max(q, 2)) if math.gcd(a, q) == 1]))
    x = draw(st.integers(1, 1500) | st.floats(1.0, 1500.0))
    return x, draw(st.integers(1, 50)), q, a, nu


@settings(max_examples=100, deadline=None)
@given(cell=unit_or_composite_cells())
def test_sums_match_naive_loop_at_unit_and_composite_moduli(cell):
    x, y, q, a, nu = cell
    members = [n for n in naive_smooth(x, y) if math.gcd(n, q) == 1]
    brute = fsum_complex(eq_phase(a * pow(n, nu, q), q) for n in members)
    p = SumParams(x=x, y=y, q=q, a=a, nu=nu)
    with mock.patch.object(sums, "HIST_LIMIT", 0):
        direct = sum_power(p, segment=64)
    for v in (sum_power(p), sum_twisted(p, lambda prime: 1.0), direct):
        assert v.terms == len(members)
        assert abs(v.value - brute) < 1e-9 * max(1.0, abs(brute))


@settings(max_examples=100, deadline=None)
@given(cell=unit_or_composite_cells(), j=st.integers(1, 3), strict=st.booleans())
def test_prime_convolution_matches_naive_loop_at_unit_and_composite_moduli(cell, j, strict):
    x, y, q, a, nu = cell
    got = sum_prime_convolution(j, x, y, q, a, nu, strict=strict)
    want, count = naive_prime_tuple_sum(j, x, y, q, a, nu, strict)
    assert got.terms == count
    assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))


def test_prime_convolution_empty_range():
    v = sum_prime_convolution(1, 100, 100, 7, 1)
    assert v.value == 0 and v.terms == 0


def test_prime_convolution_hand_example():
    v = sum_prime_convolution(1, 10, 4, 3, 1)
    expected = -1 + eq_phase(1, 3)
    assert abs(v.value - expected) < 1e-12
    assert v.terms == 3


def test_prime_convolution_matches_oracle_randomized():
    rng = random.Random(15)
    for _ in range(50):
        j = rng.choice([1, 1, 2, 2, 3])
        x = rng.randrange(30, 1200)
        y = rng.randrange(2, 30)
        q = rng.randrange(2, 300)
        a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
        nu = rng.choice([1, 2, -1])
        strict = rng.random() < 0.7
        got = sum_prime_convolution(j, x, y, q, a, nu, strict=strict)
        want, count = naive_prime_tuple_sum(j, x, y, q, a, nu, strict)
        assert got.terms == count
        assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))


def test_bilinear_counts_lattice_points():
    alpha = {m: 1.0 for m in range(4, 9)}
    beta = {n: 1.0 for n in range(3, 7)}
    x = 30
    v = sum_bilinear(alpha, beta, x, 1, 0, 1)
    expected = sum(1 for m in alpha for n in beta if m * n <= x)
    assert v.value == expected == v.terms


def test_bilinear_single_term():
    v = sum_bilinear({1: 1.0}, {1: 1.0}, 10, 7, 3, 1)
    assert abs(v.value - eq_phase(3, 7)) < 1e-15


def test_bilinear_matches_naive_double_loop():
    rng = random.Random(16)
    for _ in range(50):
        m0 = rng.randrange(1, 40)
        n0 = rng.randrange(1, 40)
        alpha = {m: rng.choice([-1.0, 1.0]) for m in range(m0, 2 * m0 + 1)}
        beta = {n: rng.choice([-1.0, 1.0]) for n in range(n0, 2 * n0 + 1)}
        q = rng.randrange(2, 200)
        a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
        nu = rng.choice([1, 2])
        x = rng.randrange(m0 * n0, 4 * m0 * n0 + 2)
        got = sum_bilinear(alpha, beta, x, q, a, nu)
        want = fsum_complex(
            alpha[m] * beta[n] * eq_phase(a * pow(m * n, nu, q), q)
            for m in alpha
            for n in beta
            if m * n <= x
        )
        assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))


def test_bilinear_rejects_oversized_weights():
    with pytest.raises(ValueError):
        sum_bilinear({1: 2.0}, {1: 1.0}, 10, 7, 1, 1)


def test_complete_sum_linear_is_minus_one():
    for q in (5, 13, 101):
        v = complete_monomial_sum(q, 3, 1)
        assert abs(v.value - (-1)) < 1e-12


def test_complete_sum_gauss_magnitude():
    v = complete_monomial_sum(7, 1, 2)
    assert abs(abs(1 + v.value) - math.sqrt(7)) < 1e-12


def test_complete_sum_rejects_composite():
    with pytest.raises(ValueError):
        complete_monomial_sum(15, 2, 2)


def test_weil_envelope_small_primes():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 101, 199):
        for nu in range(2, 7):
            for a in range(1, min(q - 1, 20) + 1):
                assert weil_envelope_violation(q, a, nu) is None


def test_moment_count_diagonal_only():
    for M in (2, 5, 11):
        assert moment_count(1, 1, 4 * M + 3, M) == M + 1


def test_moment_count_hand_example():
    assert moment_count(1, 2, 5, 2) == 5


def test_moment_count_matches_naive_loop():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.choice([1, 2])
        nu = rng.choice([1, 2, 3])
        q = rng.randrange(2, 40)
        M = rng.randrange(1, 9)
        got = moment_count(k, nu, q, M)
        ms = range(M, 2 * M + 1)
        if k == 1:
            want = sum(
                1 for m1 in ms for m2 in ms if pow(m1, nu, q) == pow(m2, nu, q)
            )
        else:
            want = sum(
                1
                for m1 in ms
                for m2 in ms
                for m3 in ms
                for m4 in ms
                if (pow(m1, nu, q) + pow(m2, nu, q)) % q
                == (pow(m3, nu, q) + pow(m4, nu, q)) % q
            )
        assert got == want


def test_moment_count_negative_exponent():
    # m in {2, 3, 4} invert to distinct residues mod 7, so only the diagonal
    assert moment_count(1, -1, 7, 2) == 3
    with pytest.raises(ValueError, match="invertible"):
        moment_count(1, -1, 6, 2)  # m = 2 shares a factor with q
    with pytest.raises(ValueError, match="^m=4 is not invertible modulo 10$"):
        moment_count(2, -1, 10, 3)  # m = 3 is a unit, m = 4 the first non-unit


def test_moment_count_pigeonhole_bound():
    rng = random.Random(18)
    for _ in range(30):
        k = rng.choice([1, 2, 3])
        nu = rng.choice([1, 2, 3])
        q = rng.randrange(2, 60)
        M = rng.randrange(1, 12)
        assert moment_count(k, nu, q, M) * q >= (M + 1) ** (2 * k)


def test_moment_count_past_int64_matches_closed_forms():
    # (M + 1)^k = (2^16 + 1)^4 > 2^62: the fold runs on Python integers
    k, M = 4, 1 << 16
    assert moment_count(k, 1, 1, M) == (M + 1) ** (2 * k)
    # mod 2 the k-fold sums of m in [M, 2M] split into even and odd by
    # ((M + 1)^k +- (E - O)^k) / 2, with E and O the even and odd m
    evens = sum(1 for m in range(M, 2 * M + 1) if m % 2 == 0)
    odds = M + 1 - evens
    e = ((M + 1) ** k + (evens - odds) ** k) // 2
    o = ((M + 1) ** k - (evens - odds) ** k) // 2
    assert moment_count(k, 1, 2, M) == e * e + o * o


def test_sum_twisted_direct_path_past_histogram_limit():
    # q beyond the histogram limit takes the streaming branch
    q = (1 << 23) + 9
    pv = lambda prime: -1.0 if prime == 3 else 1.0
    v = sum_twisted(SumParams(x=2000, y=13, q=q, a=7), pv)

    def f_of(n):
        out = 1.0
        while n % 3 == 0:
            out, n = -out, n // 3
        return out

    brute = fsum_complex(f_of(n) * eq_phase(7 * n, q) for n in naive_smooth(2000, 13))
    assert abs(v.value - brute) < 1e-9 * max(1.0, abs(brute))


def test_large_modulus_uses_exact_integer_powers():
    # q far past the histogram and vectorization limits: per-member Python
    # pow keeps residues exact
    q = 2**40 + 15
    a = 3
    v = sum_power(SumParams(x=3000, y=13, q=q, a=a, nu=2))
    brute = fsum_complex(eq_phase(a * pow(n, 2, q), q) for n in naive_smooth(3000, 13))
    assert v.terms == len(naive_smooth(3000, 13))
    assert abs(v.value - brute) < 1e-9 * max(1.0, abs(brute))


def test_threads_do_not_change_results():
    p = SumParams(x=2 * 10**5, y=100, q=997, a=5)
    v1 = sum_linear(p, threads=1)
    v4 = sum_linear(p, segment=10**4, threads=4)
    assert v1.terms == v4.terms
    assert abs(v1.value - v4.value) < 1e-10


@pytest.mark.parametrize("weights", ["none", "real", "complex"])
@pytest.mark.parametrize("n", [0, 1, 65535, 65536, 65537, 150001])
def test_phase_sum_matches_per_term_fsum(n, weights):
    rng = np.random.default_rng(n)
    turns = rng.random(n)
    w = {
        "none": None,
        "real": rng.integers(1, 1000, n).astype(np.float64),
        "complex": rng.random(n) - 0.5 + 1j * (rng.random(n) - 0.5),
    }[weights]
    terms = np.exp(2j * np.pi * turns) * (1.0 if w is None else w)
    want = fsum_complex(terms.tolist())
    scale = max(1.0, float(np.abs(w).sum()) if w is not None else n)
    assert abs(_phase_sum(turns, w) - want) <= 1e-12 * scale


def test_direct_path_is_identical_at_one_and_two_threads():
    for nu in (-2, -1, 1, 3):
        p = SumParams(x=60000, y=50, q=(1 << 24) + 43, a=12345, nu=nu)
        v1 = sum_power(p, segment=4096, threads=1)
        v2 = sum_power(p, segment=4096, threads=2)
        assert (v1.value, v1.terms) == (v2.value, v2.terms)


@pytest.mark.parametrize("nu", [-1, 2])
def test_sum_twisted_sums_per_term_at_every_q(nu):
    # histograms hold integer counts only: below HIST_LIMIT a twisted sum
    # bins nothing and takes the per-term path of a larger q
    p = SumParams(x=20000, y=30, q=1001, a=10, nu=nu)
    pv = lambda prime: cmath.exp(1j * prime)
    with mock.patch.object(sums, "_binned_sum", side_effect=AssertionError("binned")):
        below = sum_twisted(p, pv, segment=3000)
    with mock.patch.object(sums, "HIST_LIMIT", 0):
        past = sum_twisted(p, pv, segment=3000)
    assert below == past


def test_prime_convolution_lists_primes_only_up_to_x_over_least_prime_power():
    # two primes above 1e4 have a product above 1e8, so no tuple exists, and
    # no prime table up to x (past the 2^26 budget) is built to find that out
    v = sum_prime_convolution(2, 1e8, 1e4, 101, 1)
    assert v.terms == 0 and v.value == 0


def test_prime_convolution_refuses_a_modulus_past_its_bin_budget():
    # one int64 bin per residue would take 8 TiB at q = 2^40 + 15; the
    # refusal comes before any tuple is walked or any bin allocated
    with mock.patch.object(sums, "_tuple_walk", side_effect=AssertionError("walked")):
        with pytest.raises(ResourceLimitError):
            sum_prime_convolution(2, 1e6, 100, (1 << 40) + 15, 1)


def test_complete_sum_refuses_a_modulus_past_its_bin_budget():
    # one int64 bin per residue would take 8 TiB at q = 2^40 + 15; the
    # refusal comes before the primality trial division and before any bin
    q = (1 << 40) + 15
    with mock.patch.object(sums, "is_prime", side_effect=AssertionError("trial division")):
        with pytest.raises(ResourceLimitError):
            complete_monomial_sum(q, 3, 2)
        with pytest.raises(ResourceLimitError):
            weil_envelope_violation(q, 3, 2)


def test_sum_theta_is_identical_at_one_and_two_threads():
    p = SumParams(x=60000, y=50, q=1, a=0, theta=2**0.5)
    v1 = sum_theta(p, segment=4096, threads=1)
    v2 = sum_theta(p, segment=4096, threads=2)
    assert v1.terms == len(naive_smooth(60000, 50))
    assert (v1.value, v1.terms) == (v2.value, v2.terms)
    with pytest.raises(ValueError, match="threads"):
        sum_theta(p, threads=0)


def naive_bilinear(alpha, beta, x, q, a, nu):
    """Oracle: the per-pair double loop over nonzero weights with m * n <= x."""
    parts = [
        alpha[m] * beta[n] * eq_phase(a * pow(m * n, nu, q), q)
        for m in alpha
        for n in beta
        if alpha[m] and beta[n] and m * n <= x
    ]
    return fsum_complex(parts), len(parts)


def assert_bilinear_matches_naive(alpha, beta, x, q, a, nu):
    got = sum_bilinear(alpha, beta, x, q, a, nu)
    want, count = naive_bilinear(alpha, beta, x, q, a, nu)
    assert got.terms == count
    assert abs(got.value - want) <= 1e-13 * max(1, count)


def test_bilinear_refuses_a_noninvertible_product_at_negative_nu():
    alpha = {1: 1.0, 2: 0.5, 3: -1.0}
    beta = {1: 1.0, 7: 1j}
    with pytest.raises(ValueError):
        naive_bilinear(alpha, beta, 30, 10, 3, -1)
    with pytest.raises(ValueError, match="invertible"):
        sum_bilinear(alpha, beta, 30, 10, 3, -1)
    # below x = 2 only m * n = 1 is summed, and 1 is a unit
    assert_bilinear_matches_naive(alpha, beta, 1.5, 10, 3, -1)
    # a zero weight leaves its non-invertible pair out
    assert_bilinear_matches_naive({1: 1.0, 2: 0.0, 3: 1.0}, beta, 30, 10, 3, -2)


@pytest.mark.parametrize("nu", [-1, 1, 3])
def test_bilinear_past_the_vectorized_modulus(nu):
    q = (1 << 31) + 11  # prime, so every product below q is a unit
    rng = random.Random(nu)
    alpha = {m: cmath.exp(1j * rng.random()) for m in rng.sample(range(1, 3000), 40)}
    beta = {n: rng.choice([-1.0, 0.5, 1j]) for n in rng.sample(range(1, 3000), 40)}
    assert_bilinear_matches_naive(alpha, beta, 2e6, q, 12345, nu)


def test_bilinear_float_x_just_below_a_product():
    alpha = {m: 1.0 for m in range(1, 20)}
    beta = {n: -1.0 if n % 3 else 1j for n in range(1, 20)}
    for mn in (35, 36, 221, 323):
        below = math.nextafter(mn, 0)
        assert_bilinear_matches_naive(alpha, beta, below, 101, 5, 2)
        assert_bilinear_matches_naive(alpha, beta, float(mn), 101, 5, 2)
        with_edge = sum_bilinear(alpha, beta, float(mn), 101, 5, 2).terms
        assert sum_bilinear(alpha, beta, below, 101, 5, 2).terms < with_edge


def test_bilinear_leaves_zero_weights_out_of_terms():
    alpha = {1: 0.0, 2: 1.0, 3: 0j, 4: -1.0}
    beta = {1: 1.0, 2: 0, 5: 0.0j, 6: 1j}
    assert_bilinear_matches_naive(alpha, beta, 100, 7, 3, 1)
    assert sum_bilinear(alpha, beta, 100, 7, 3, 1).terms == 4


def test_bilinear_drops_keys_above_floor_x():
    alpha = {1: 1.0, 3: 1j, 10**30: 1.0}
    beta = {2: -1.0, 5: 1.0, 2**70: 1.0}
    for x in (0.5, 1, 10, 15.5, 100):
        assert_bilinear_matches_naive(alpha, beta, x, 11, 2, 3)
    # an uncapped x is capped at max(alpha) * max(beta) exactly
    small = {1: 1.0, 3: 1j}
    assert_bilinear_matches_naive(small, {2: -1.0, 5: 1.0}, math.inf, 11, 2, 3)
    with pytest.raises(ValueError, match="2\\^63"):
        sum_bilinear(alpha, beta, 1e40, 11, 2, 3)


def test_bilinear_refuses_a_noninteger_key():
    with pytest.raises(ValueError, match="positive integers"):
        sum_bilinear({2.5: 1.0}, {3: 1.0}, 100, 7, 1, 1)
    with pytest.raises(ValueError, match="positive integers"):
        sum_bilinear({2: 1.0}, {Fraction(3): 1.0}, 100, 7, 1, 1)
    # numpy integer keys are integers
    alpha, beta = {np.int64(2): 1.0, np.int32(5): 1j}, {np.int64(3): -1.0, 4: 0.5}
    got = sum_bilinear(alpha, beta, 100, 7, 1, 1)
    as_int = [{int(k): w for k, w in d.items()} for d in (alpha, beta)]
    assert got == sum_bilinear(*as_int, 100, 7, 1, 1) and got.terms == 4


def test_bilinear_holds_one_chunk_of_pairs_at_a_time():
    units = {m: 1.0 for m in range(1, 1001)}
    tracemalloc.start()
    try:
        v = sum_bilinear(units, units, 1e6, 10007, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.terms == 10**6
    assert peak < 16 * 2**20


def test_bilinear_refuses_a_noninvertible_pair_in_a_later_chunk():
    # q = 90001 is prime: every m * n <= 300^2 < q is a unit, and (q, 1),
    # the last of 90001 pairs, falls in the second chunk of 2^16
    q = 90001
    units = {m: 1.0 for m in range(1, 301)}
    assert sum_bilinear(units, units, q, q, 3, -1).terms == 90000 > sums._CHUNK
    with pytest.raises(ValueError, match="invertible"):
        sum_bilinear({**units, q: 1.0}, units, q, q, 3, -1)


# every entry that takes a phase e_q(a * n^nu), as a call (q, a, nu) -> value;
# moment_count has no residue a, so it is only asked about q and nu
PHASE_ENTRIES = {
    "SumParams": lambda q, a, nu: SumParams(x=100, y=10, q=q, a=a, nu=nu),
    "sum_prime_convolution": lambda q, a, nu: sum_prime_convolution(2, 1000, 5, q, a, nu),
    "sum_bilinear": lambda q, a, nu: sum_bilinear({1: 1, 2: 1}, {1: 1, 3: 1}, 10, q, a, nu),
    "complete_monomial_sum": lambda q, a, nu: complete_monomial_sum(q, a, nu),
    "moment_count": lambda q, a, nu: moment_count(2, nu, q, 5),
}


BAD_PHASES = [(0, 1, 1, "q >= 1"), (-7, 1, 1, "q >= 1"), (6, 4, 1, "gcd"), (7, 1, 0, "nu must be nonzero")]


@pytest.mark.parametrize("entry, q, a, nu, message", [
    (entry, *bad) for entry in PHASE_ENTRIES for bad in BAD_PHASES
    if not (entry == "moment_count" and bad[3] == "gcd")
])
def test_every_phase_entry_refuses_the_same_bad_phase(entry, q, a, nu, message):
    with pytest.raises(ValueError, match=message):
        PHASE_ENTRIES[entry](q, a, nu)
    PHASE_ENTRIES[entry](7, 3, 2)  # a good phase passes the same entry


@pytest.mark.parametrize("entry", ["sum_prime_convolution", "complete_monomial_sum", "moment_count"])
@pytest.mark.parametrize("nu", [2, -1])
@pytest.mark.parametrize("q", [(1 << 40) + 15, (1 << 31) - 1])
def test_binned_entries_refuse_a_modulus_past_the_budget_before_trial_division(entry, nu, q):
    # both q are prime and past the 2^26-bin budget; testing that, or (for
    # the vectorised powers, q <= 2^31) factoring q for phi(q) at nu < 0,
    # takes up to 2^20 trial divisions, and the bins would take up to 8 TiB
    walked = AssertionError("trial division or a tuple walk ran")
    with mock.patch.object(sums, "is_prime", side_effect=walked), \
            mock.patch.object(sums, "factorize", side_effect=walked), \
            mock.patch.object(sieve, "is_prime", side_effect=walked), \
            mock.patch.object(sums, "_tuple_walk", side_effect=walked):
        with pytest.raises(ResourceLimitError, match="memory budget"):
            PHASE_ENTRIES[entry](q, 3, nu)


def _traced_peak(call):
    """The exception `call` raises and the tracemalloc peak, in bytes, up to it."""
    tracemalloc.start()
    try:
        with pytest.raises(Exception) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return info.value, peak


_PAST = sieve.MAX_SEGMENT + 1
_TABLE_SITES = {
    "primes_upto": lambda: sieve.primes_upto(_PAST),
    "build_sieve": lambda: sieve.build_sieve(1, _PAST),
    "smooth_plan segment": lambda: sieve.smooth_plan(1e8, 1e4, segment=_PAST),
    "smooth_plan x": lambda: sieve.smooth_plan(_PAST, 1e4, segment=1 << 30),
    # y = x keeps the plan on the sieve; one more segment than the list budget
    "smooth_plan segment list": lambda: sieve.smooth_plan(
        sieve.MAX_LIST * 16 + 1, sieve.MAX_LIST * 16 + 1, segment=16),
    "sum_prime_convolution bins": lambda: sum_prime_convolution(2, 1e6, 100, _PAST, 1),
    "moment_count bins": lambda: moment_count(2, 1, _PAST, 5),
    "complete_monomial_sum": lambda: complete_monomial_sum(_PAST, 1, 2),
    "weil_envelope_violation": lambda: weil_envelope_violation(_PAST, 1, 2),
    "complete sum of the weil suite": lambda: sums._complete_sum(_PAST, range(1, 21), 2),
    "moment_count range": lambda: moment_count(2, 1, 7, sieve.MAX_SEGMENT),  # M + 1 terms
    # 5 * (floor(1 / step) + 1) window points, the least floor(1 / step) past the budget
    "oracle_optimal_omega": lambda: optimizer.oracle_optimal_omega(
        0.3, 0.5, step=1 / (sieve.MAX_SEGMENT // 5 + 0.5)),
}


@pytest.mark.parametrize("site", _TABLE_SITES)
def test_every_table_site_refuses_one_past_its_budget_before_allocating(site):
    exc, peak = _traced_peak(_TABLE_SITES[site])
    assert isinstance(exc, ResourceLimitError)
    assert "entry budget" in str(exc) and "memory budget" in str(exc)
    assert peak < 2**20


def _weil_at(limit, monkeypatch):
    # 5 powers nu of min(q - 1, 20) residues a, q - 1 phases each, over the
    # primes q <= 31: 12,405 phase terms
    monkeypatch.setattr(sieve, "MAX_WORK", limit)
    return lambda: cli._suite_weil(argparse.Namespace(x=31.0))


def _lattice_at(limit, monkeypatch):
    monkeypatch.setattr(optimizer, "LATTICE_POINTS", limit)  # 11 x 21 points at step 0.1
    regions = optimizer.RegionSet(polygons=dict(optimizer.REGION_VERTICES))
    return lambda: optimizer.region_grid_mismatches(regions, eps_grid=0.1)


def _scan_at(limit, monkeypatch):
    # floor(x) = 1000 and 2000 summed terms, for each of 3 residues
    grid = ("values", [1e3, 2e3]), ("values", [8.0]), ("values", [7.0])
    return lambda: cli.ScanSpec(*grid, fixed_a=1, random_a=3, nu=1, seed=0, budget=limit).cells()


def _moment_at(limit, monkeypatch):
    # (k - 1) * q * min(q, M + 1) = 2 * 101 * 10 updates, priced one to a term
    monkeypatch.setattr(sums, "_UPDATES_PER_TERM", 1)
    monkeypatch.setattr(sums, "MAX_WORK", limit)
    return lambda: moment_count(3, 1, 101, 9)


# each site's budget set to what its call needs, and to one less
_WORK_SITES = {"weil suite": (_weil_at, 12405), "region lattice": (_lattice_at, 231),
               "scan --budget": (_scan_at, 9000), "moment_count fold": (_moment_at, 2020)}


@pytest.mark.parametrize("site", _WORK_SITES)
def test_every_budget_site_runs_at_its_budget_and_refuses_one_past_it(site, monkeypatch):
    at, need = _WORK_SITES[site]
    at(need, monkeypatch)()
    exc, peak = _traced_peak(at(need - 1, monkeypatch))
    assert isinstance(exc, ResourceLimitError) and f"needs {need} " in str(exc)
    assert peak < 2**20


def test_the_weil_suite_sums_the_terms_it_is_charged():
    terms, real = [], sums._complete_sum

    def counted(q, avals, nu):
        terms.append(len(avals) * (q - 1))
        return real(q, avals, nu)

    with mock.patch.object(cli.sums, "_complete_sum", side_effect=counted):
        assert cli._suite_weil(argparse.Namespace(x=31.0))[0]
    assert sum(terms) == 12405


def test_moment_count_is_refused_by_its_price_before_any_array():
    # 1,000,003 * 1,000,001 updates, about two hours of folding at 6.9 ns
    start = time.perf_counter()
    exc, peak = _traced_peak(lambda: moment_count(2, 1, 1000003, 10**6))
    assert time.perf_counter() - start < 2 and peak < 2**20
    assert isinstance(exc, ResourceLimitError)
    assert str(exc) == ("moment_count's fold needs 1000004000003 updates, past the "
                        "1073741824-update budget (a work budget)")


@pytest.mark.parametrize("k, q, M", [(2, 20011, 20000), (2, 2**15, 2**15 - 1), (5, 1, 10**6),
                                     (2, 2**10, 2**20)])
def test_moment_count_within_its_price_reaches_its_fold(k, q, M):
    # (2, 20011, 20000) makes 4.0e8 updates, about 2.4 s, and 2^15 * 2^15 is
    # exactly the 2^30 limit; at most q classes are occupied, however large M
    # is; so the residues of m are taken, and stopped there
    class Folding(Exception):
        pass

    with mock.patch.object(sums, "_monomial_residues", side_effect=Folding):
        with pytest.raises(Folding):
            moment_count(k, 1, q, M)


def test_complete_sum_refuses_a_composite_modulus_before_allocating():
    # 2^26 - 1 = 3 * 2731 * 8191 is within the table budget; its range of
    # terms would take 512 MiB, and none of it is made before the refusal
    exc, peak = _traced_peak(lambda: complete_monomial_sum((1 << 26) - 1, 1, 2))
    assert isinstance(exc, ValueError) and "prime modulus" in str(exc)
    assert peak < 2**20


@pytest.mark.parametrize("q", [2, 3, 101, 65537])
@pytest.mark.parametrize("nu", [-3, -1, 2, 5])
def test_complete_sum_equals_the_per_class_loop(q, nu):
    avals = [1, 3] if q > 3 else [1]
    got = sums._complete_sum(q, avals, nu)
    for a, s in zip(avals, got):
        want = [eq_phase(a * pow(n, nu, q), q) for n in range(1, q)]
        assert s.terms == q - 1
        assert abs(s.value - fsum_complex(want)) <= 1e-9 * q
