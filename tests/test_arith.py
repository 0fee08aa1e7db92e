import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friable_sums.arith import (
    divisor_count,
    e_frac,
    eq_phase,
    factorize,
    floor_quotient,
    fsum_complex,
    is_prime,
    pow_mod,
)
from oracles import divisors_from


def test_eq_phase_zero_and_half_turn():
    assert eq_phase(0, 7) == 1 + 0j
    assert abs(eq_phase(4, 8) - (-1 + 0j)) < 1e-12
    assert abs(eq_phase(5, 10) - (-1 + 0j)) < 1e-12


def test_eq_phase_three_eighths():
    v = eq_phase(3, 8)
    assert abs(v.real - (-math.sqrt(2) / 2)) < 1e-15
    assert abs(v.imag - math.sqrt(2) / 2) < 1e-15


def test_eq_phase_reduces_huge_arguments_exactly():
    # 2**200 + 3 mod 1000 is computed in integers, so no phase is lost.
    assert abs(eq_phase(2**200 + 3, 1000) - eq_phase((2**200 + 3) % 1000, 1000)) == 0


def test_eq_phase_rejects_zero_modulus():
    with pytest.raises(ValueError):
        eq_phase(1, 0)


def test_phase_multiplicativity_random_pairs():
    rng = random.Random(1)
    for _ in range(10**4):
        q = rng.randrange(1, 10**6)
        z1 = rng.randrange(-(10**12), 10**12)
        z2 = rng.randrange(-(10**12), 10**12)
        lhs = eq_phase(z1 + z2, q)
        rhs = eq_phase(z1, q) * eq_phase(z2, q)
        assert abs(lhs - rhs) < 1e-12


def test_unit_modulus_within_tolerance():
    rng = random.Random(2)
    for _ in range(1000):
        v = eq_phase(rng.randrange(10**9), rng.randrange(1, 10**9))
        assert abs(abs(v) - 1.0) < 1e-12


def test_complete_sum_orthogonality():
    for q in (2, 3, 7, 12, 97, 360):
        for a in (1, 2, 5, q, 3 * q):
            total = fsum_complex(eq_phase(a * n, q) for n in range(q))
            expected = q if a % q == 0 else 0
            assert abs(total - expected) < 1e-9 * q


def test_pow_mod_examples():
    assert pow_mod(5, 1, 7) == 5
    assert pow_mod(3, 2, 7) == 2
    assert pow_mod(3, -1, 7) == 5


def test_pow_mod_inverse_property():
    rng = random.Random(3)
    for _ in range(500):
        q = rng.randrange(2, 10**6)
        n = rng.randrange(1, q)
        if math.gcd(n, q) != 1:
            continue
        assert pow_mod(n, 5, q) * pow_mod(n, -5, q) % q == 1


def test_pow_mod_noninvertible_raises():
    with pytest.raises(ValueError, match="invertible"):
        pow_mod(6, -1, 9)
    with pytest.raises(ValueError):
        pow_mod(3, 0, 7)


def test_divisor_count_examples():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(97) == 2


def test_divisor_count_against_brute_force():
    for n in range(1, 2000):
        brute = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert divisor_count(n) == brute


def test_factorize_and_divisors_roundtrip():
    for n in (1, 2, 97, 360, 2**10, 3 * 5 * 7 * 11):
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert len(divisors_from(factorize(n))) == divisor_count(n)
    for n in (0, -12):
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(n)
        with pytest.raises(ValueError, match="needs n >= 1"):
            divisor_count(n)


def test_is_prime_against_trial_division():
    for n in range(-5, 2000):  # no n < 2 is prime
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n


def test_e_frac_matches_eq_phase_on_rationals():
    for q in (3, 8, 101):
        for z in range(q):
            assert abs(e_frac(z / q) - eq_phase(z, q)) < 1e-9


def test_floor_quotient_exact_edges():
    assert floor_quotient(30.0, 3) == 10
    assert floor_quotient(29.999999999999996, 3) == 9
    assert floor_quotient(10.5, 2) == 5
    assert floor_quotient(10**8 * 1.0, 7) == 10**8 // 7
    rng = random.Random(4)
    for _ in range(2000):
        k = rng.randrange(1, 10**6)
        d = rng.randrange(1, 1000)
        assert floor_quotient(float(k * d), d) == k
        assert floor_quotient(k * d - 0.5, d) == k - 1


def test_floor_quotient_equals_the_exact_rational_floor():
    # floor(x / d) = floor(floor(x) / d) for real x, checked against the
    # exact rational Fraction(x) // d
    rng = random.Random(14)
    xs = [0, 0.0, -0.0, 0.5, -0.5, 2.0**70, -(2.0**70), 2**70, 2**70 - 1, -(2**70) + 1]
    for _ in range(3000):
        d = rng.choice([1, 2, 3, 7, rng.randrange(1, 10**6), rng.randrange(1, 2**40)])
        k = rng.randrange(-(2**30), 2**30)
        near = float(k * d)  # on a multiple of d, then one ulp either side
        xs_d = [near, math.nextafter(near, math.inf), math.nextafter(near, -math.inf),
                rng.uniform(-1e6, 1e6), rng.uniform(-(2.0**70), 2.0**70),
                rng.randrange(-(2**70), 2**70), k * d, k * d - 1]
        for x in xs_d:
            assert floor_quotient(x, d) == Fraction(x) // d, (x, d)
    for x in xs:
        for d in (1, 3, 2**35 + 1):
            assert floor_quotient(x, d) == Fraction(x) // d, (x, d)


def test_floor_quotient_refuses_a_divisor_below_one():
    for d in (0, -3, np.array([3, 0, 5]), np.array([-1])):
        with pytest.raises(ValueError, match="divisor must be positive"):
            floor_quotient(10.5, d)


def test_floor_quotient_takes_an_int64_array_of_divisors():
    d = np.array([1, 2, 3, 7, 10**6, 2**40], dtype=np.int64)
    for x in (0, 29.999999999999996, 30.0, 10.5, 1e12 + 0.5, 2**62):
        got = floor_quotient(x, d)
        assert got.dtype == np.int64
        assert got.tolist() == [floor_quotient(x, int(v)) for v in d.tolist()]
    assert floor_quotient(5, np.empty(0, dtype=np.int64)).size == 0
