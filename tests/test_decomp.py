import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friable_sums import decomp, sieve
from friable_sums.arith import factorize, fsum_complex
from friable_sums.decomp import (
    arith_tables,
    bilinear_regroup,
    buchstab_expand,
    count_admissible_splits,
    first_heath_brown_counterexample,
    first_vaughan_counterexample,
    heath_brown_lambda_check,
    regrouped_tuple_sum,
    relaxed_tuple_sum,
    split_partition_sums,
    vaughan_lambda_check,
    w_split,
)
from friable_sums.sieve import ResourceLimitError, build_sieve, next_primes_above, primes_between, psi
from friable_sums.sums import SumParams, sum_linear, sum_power, sum_prime_convolution
from oracles import divisors_from


def phase_map(q, a):
    def f(n):
        ang = (2.0 * math.pi / q) * ((a % q) * (n % q) % q)
        return np.cos(ang) + 1j * np.sin(ang)

    return f


def ones_map(n):
    return np.ones(len(n), dtype=np.complex128)


# ---------------------------------------------------------------------------
# threshold split
# ---------------------------------------------------------------------------

def test_w_split_hand_examples():
    s = w_split(8, 3)
    assert (s.k, s.m) == (4, 2)
    s = w_split(30, 5)
    assert (s.k, s.m) == (6, 5)


def test_w_split_prime_at_threshold():
    s = w_split(13, 13)
    assert (s.k, s.m) == (13, 1)
    s = w_split(13, 5)
    assert (s.k, s.m) == (13, 1)


def test_w_split_errors():
    with pytest.raises(ValueError, match="below the threshold"):
        w_split(7, 8)
    with pytest.raises(ValueError, match="n=1"):
        w_split(1, 1)


def test_w_split_invariants_random():
    rng = random.Random(21)
    fs = build_sieve(1, 10**5)
    for _ in range(2000):
        n = rng.randrange(2, 10**5)
        w = rng.uniform(1.0, n)
        s = w_split(n, w, fs)
        assert s.k * s.m == n
        pk = fs.lpf_of(s.k)
        pm = fs.spf_of(s.m) if s.m > 1 else math.inf
        assert w <= s.k < w * pk
        assert pk <= pm


def test_w_split_unique_exhaustive_small():
    fs = build_sieve(1, 20000)
    for w in (3.0, 10.0, 316.0):
        for n in range(math.ceil(w), 20001):
            assert count_admissible_splits(n, w, fs) == 1


def trial_prime_factors(n):
    """Oracle: ascending prime factors of n with multiplicity, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def brute_admissible_splits(n, w):
    """Oracle: test every k <= n that divides n, with P and p by trial division."""
    count = 0
    for k in range(1, n + 1):
        if n % k == 0:
            pk = max(trial_prime_factors(k), default=1)
            pm = min(trial_prime_factors(n // k), default=math.inf)
            count += w <= k < w * pk and pk <= pm
    return count


_SPLIT_SIEVE = build_sieve(1, 3000)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3000),
    w=st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0, 50.0]) | st.floats(1.0, 400.0),
)
def test_admissible_splits_agree_with_and_without_sieve(n, w):
    expected = brute_admissible_splits(n, w)
    assert count_admissible_splits(n, w) == expected
    assert count_admissible_splits(n, w, _SPLIT_SIEVE) == expected
    short = build_sieve(1, max(1, n // 2))  # short of n >= 2, which is factored without it
    assert count_admissible_splits(n, w, short) == expected
    if n >= max(w, 2):
        assert w_split(n, w) == w_split(n, w, _SPLIT_SIEVE)


@pytest.mark.parametrize("w, y", [pytest.param(w, math.inf, id=str(w))
                                  for w in (1.0, 2.5, 3.0, 7.5, 10.0, 50.0, 2999.5)]
                         + [(2.5, 2), (10.0, 7), (10.0, 30.5), (50.0, 13), (7.5, 3000)])
def test_split_counts_match_the_per_n_oracle(w, y):
    # with y the counts stay exact at every y-smooth n, the ones a sum reads
    counts = decomp._split_counts(3000, w, _SPLIT_SIEVE, y)
    assert counts.dtype == np.int64 and counts.shape == (3001,)
    smooth = [n for n in range(1, 3001) if _SPLIT_SIEVE.lpf_of(n) <= y]
    assert counts[smooth].tolist() == [count_admissible_splits(n, w, _SPLIT_SIEVE) for n in smooth]
    assert counts[0] == 0


@pytest.mark.parametrize("n_max, w", [(1, 1.0), (1, 3.0), (2, 3.0), (40, 50.0), (2999, 2999.5)])
def test_split_counts_below_the_threshold(n_max, w):
    # n_max < w leaves no admissible k, n_max = 1 none but k = 1, which fails k < w * P(k)
    counts = decomp._split_counts(n_max, w, _SPLIT_SIEVE)
    assert counts.tolist() == [0] + [count_admissible_splits(n, w) for n in range(1, n_max + 1)]
    assert not counts.any()


def test_w_split_range_within_wy():
    fs = build_sieve(1, 30000)
    y = 50
    for n in range(2, 30001):
        if fs.lpf_of(n) > y:
            continue
        for w in (4.0, 25.0):
            if n < w:
                continue
            s = w_split(n, w, fs)
            assert w <= s.k <= w * y


def test_split_partition_identity_exact():
    for x, y, w in [(5000, 10.0, 10.0), (5000, 50.0, 31.5), (3000, 100.0, 100.0)]:
        direct, regrouped = split_partition_sums(phase_map(101, 7), x, y, w)
        assert abs(direct - regrouped) <= 1e-9 * max(1.0, abs(direct))


def naive_fiber_sum(f, x, y, w):
    """Oracle: f(k * m) summed fiber by fiber, k then m, with P and p from
    factorize: w <= k < w * P(k), P(k) <= y, m <= x / k y-smooth with
    p(m) >= P(k) (m = 1 always)."""
    x_floor = math.floor(x)
    primes = {n: [p for p, _ in factorize(n)] for n in range(2, x_floor + 1)}
    parts = []
    for k in range(2, x_floor + 1):
        pk = primes[k][-1]
        if not (w <= k < w * pk and pk <= y):
            continue
        for m in range(1, x_floor // k + 1):
            if m == 1 or (primes[m][-1] <= y and primes[m][0] >= pk):
                parts.append(complex(f(np.array([k * m]))[0]))
    return fsum_complex(parts), len(parts)


@pytest.mark.parametrize("x", [2000.5, 1500])
@pytest.mark.parametrize("w", [2.5, 10.0, 31.5])
@pytest.mark.parametrize("y_of", [lambda w, x: w / 2, lambda w, x: 2 * w, lambda w, x: x,
                                  lambda w, x: 10 * x], ids=["below-w", "above-w", "x", "past-x"])
def test_split_partition_regrouped_side_matches_the_fiber_oracle(x, w, y_of):
    y = y_of(w, x)
    want, fibers = naive_fiber_sum(phase_map(101, 7), x, y, w)
    direct, regrouped = split_partition_sums(phase_map(101, 7), x, y, w)
    assert abs(regrouped - want) <= 1e-12 * max(1, fibers)
    assert abs(direct - want) <= 1e-12 * max(1, fibers)
    # f = 1 counts the fibers exactly
    assert split_partition_sums(ones_map, x, y, w)[1] == fibers


def test_split_partition_counting_form():
    # f = 1 turns the partition into an integer identity
    direct, regrouped = split_partition_sums(ones_map, 10**4, 20.0, 15.0)
    assert round(direct.real) == round(regrouped.real)
    assert abs(direct.imag) < 1e-9 and abs(regrouped.imag) < 1e-9


# ---------------------------------------------------------------------------
# smooth-sum expansion
# ---------------------------------------------------------------------------

def test_buchstab_trivial_when_y_exceeds_x():
    exp = buchstab_expand(phase_map(7, 2), 50, 60, 2)
    assert all(c == 0 for c in exp.corrections)
    direct = sum_linear(SumParams(x=50, y=60, q=7, a=2)).value
    assert abs(exp.recombined() - direct) < 1e-12


def test_buchstab_hand_case_x30_y5():
    exp = buchstab_expand(phase_map(3, 1), 30, 5, 2)
    direct = sum_linear(SumParams(x=30, y=5, q=3, a=1)).value
    assert abs(exp.recombined() - direct) < 1e-12


def test_buchstab_counting_identity():
    # f = 1: the recombination counts the smooth integers exactly
    exp = buchstab_expand(ones_map, 10**4, 25, 3)
    from friable_sums.sieve import psi

    assert round(exp.recombined().real) == psi(10**4, 25)
    assert abs(exp.recombined().imag) < 1e-9


def test_buchstab_sharp_termination_accepts_wide_prime_gap():
    # 12^4 < 3e4, but the four smallest primes above 12 multiply past 3e4,
    # so depth 3 still terminates and recombines exactly.
    exp = buchstab_expand(phase_map(11, 3), 3 * 10**4, 12, 3)
    direct = sum_linear(SumParams(x=3 * 10**4, y=12, q=11, a=3)).value
    assert abs(exp.recombined() - direct) <= 1e-9 * max(1.0, abs(direct))


def test_buchstab_incomplete_expansion_raises():
    with pytest.raises(ValueError, match="incomplete expansion"):
        buchstab_expand(ones_map, 10**4, 7, 2)


def test_buchstab_orderings_agree_when_no_repeats_fit():
    # y^2 > x leaves no room for a repeated prime above y
    strict = buchstab_expand(phase_map(5, 1), 200, 15, 1)
    relaxed = buchstab_expand(phase_map(5, 1), 200, 15, 1, ordering="nondecreasing")
    assert abs(strict.recombined() - relaxed.recombined()) < 1e-12


def test_buchstab_nondecreasing_is_not_an_identity():
    # with repeated large primes in range, the relaxed ordering over-counts
    exp = buchstab_expand(ones_map, 10, 2, 3, ordering="nondecreasing")
    assert round(exp.recombined().real) == 5  # counts 9 = 3*3 once too many
    strict = buchstab_expand(ones_map, 10, 2, 3)
    assert round(strict.recombined().real) == 4


def test_buchstab_corrections_match_prime_convolution():
    q, a = 13, 4
    exp = buchstab_expand(phase_map(q, a), 2000, 9, 3)
    for j in (1, 2, 3):
        conv = sum_prime_convolution(j, 2000, 9, q, a, 1, strict=True)
        assert abs(exp.corrections[j - 1] - conv.value) < 1e-9


def test_buchstab_recombines_monomial_phases():
    # nonlinear phase map: recombination must reproduce the monomial sum
    q, a = 11, 2

    def f(n):
        r = (n % q).astype(np.int64)
        ang = (2.0 * math.pi / q) * (a * (r * r % q) % q)
        return np.cos(ang) + 1j * np.sin(ang)

    exp = buchstab_expand(f, 5000, 16, 3)
    direct = sum_power(SumParams(x=5000, y=16, q=q, a=a, nu=2)).value
    assert abs(exp.recombined() - direct) <= 1e-9 * max(1.0, abs(direct))


def test_buchstab_depth_rule_matches_the_primes_above_y():
    # the old rule searched the r + 1 least primes above y by trial division
    for x in (2, 10, 30, 200, 1155, 1156, 3 * 10**4, 10**5):
        for y in (-1.5, 1, 2, 2.5, 7, 12, 100, 5000):
            ps = primes_between(y, x)
            for r in range(1, 9):
                for ordering in ("strict", "nondecreasing"):
                    if ordering == "strict":
                        want = math.prod(next_primes_above(y, r + 1)) > x
                    else:
                        want = next_primes_above(y, 1)[0] ** (r + 1) > x
                    got = not ps.size or decomp._expansion_depth_ok(ps, x, r, ordering)
                    assert got == want, (x, y, r, ordering)


def test_arith_tables_match_factorization_and_list_no_second_table():
    real, tops = sieve.primes_between, []

    def spy(lo, hi):
        tops.append(hi)
        return real(lo, hi)

    for n_max in (1, 2, 3, 4, 97, 1000):
        tops.clear()
        with mock.patch.object(sieve, "primes_between", side_effect=spy):
            t = arith_tables(n_max)
        assert max(tops, default=0) <= math.isqrt(n_max)  # build_sieve's own primes only
        for n in range(1, n_max + 1):
            fac = factorize(n)
            mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
            lam = math.log(fac[0][0]) if len(fac) == 1 else 0.0
            assert t.mobius[n] == mu and t.von_mangoldt[n] == lam, n


def test_buchstab_rejects_bad_arguments():
    with pytest.raises(ValueError):
        buchstab_expand(ones_map, 100, 5, 0)
    with pytest.raises(ValueError):
        buchstab_expand(ones_map, 100, 5, 2, ordering="sideways")


# ---------------------------------------------------------------------------
# Lambda decompositions
# ---------------------------------------------------------------------------

def test_arith_tables_spot_values():
    t = arith_tables(100)
    assert t.mobius[1] == 1 and t.mobius[6] == 1 and t.mobius[30] == -1
    assert t.mobius[4] == 0 and t.mobius[12] == 0
    assert t.von_mangoldt[8] == pytest.approx(math.log(2))
    assert t.von_mangoldt[97] == pytest.approx(math.log(97))
    assert t.von_mangoldt[6] == 0.0


def test_vaughan_identity_holds():
    assert vaughan_lambda_check(10**3, 10, 20)
    assert first_vaughan_counterexample(10**3, 10, 20) is None


def test_vaughan_prime_case_reduces_to_log():
    # For prime n in (v, n_max] with u < n the decomposition is mu(1) log n.
    t = arith_tables(500)
    assert vaughan_lambda_check(500, 1, 2)


def test_vaughan_various_cutoffs():
    for u, v in [(1, 1), (5, 5), (10, 20), (50, 3)]:
        assert vaughan_lambda_check(800, u, v)


def vaughan_oracle(n_max, u, v, tol=1e-9):
    """The divisor-loop form of the Vaughan check: for each n in (v, n_max],
    Lambda(n) against its three parts summed over the divisors b, c.
    Reads its tables through decomp.arith_tables, so a patch reaches both.
    """
    t = decomp.arith_tables(n_max)
    mu, lam = t.mobius, t.von_mangoldt
    for n in range(math.floor(v) + 1, n_max + 1):
        t1 = t2 = t3 = 0.0
        for b in divisors_from(t.factorize(n)):
            if mu[b] == 0:
                continue
            rest = n // b
            if b <= u:
                t1 += mu[b] * math.log(n / b)
                t2 += sum(mu[b] * lam[c] for c in divisors_from(t.factorize(rest)) if c <= v)
            else:
                t3 += sum(mu[b] * lam[c] for c in divisors_from(t.factorize(rest)) if c > v)
        if abs(lam[n] - (t1 - t2 + t3)) > tol:
            return n
    return None


def perturbed_tables(k, delta):
    """arith_tables with Lambda(k) moved by delta."""
    real = decomp.arith_tables

    def tables(n_max):
        t = real(n_max)
        t.von_mangoldt[k] += delta
        return t

    return tables


@pytest.mark.parametrize(
    "u, v, k",
    [
        (10, 20, 97),  # k > v: n = k itself breaks
        (10, 20, 8),  # k <= v: only multiples of k in the short range break
        (10, 20, 17),
        (2.5, 7.9, 7),  # non-integer cutoffs
        (3.7, 3.2, 3),
        (5.5, 12.25, 11),
        (1, 1, 2),
        (50, 3, 2),
        (1.5, 40.5, 25),  # Lambda(25) = log 5 moved
        (4, 13, 13),  # k = v: the moved entry stays in the short range
        (10, 16, 16),
    ],
)
def test_vaughan_matches_divisor_loop_on_a_planted_defect(u, v, k):
    n_max = 400
    assert first_vaughan_counterexample(n_max, u, v) is None
    assert vaughan_oracle(n_max, u, v) is None
    with mock.patch.object(decomp, "arith_tables", perturbed_tables(k, 0.25)):
        want = vaughan_oracle(n_max, u, v)
        got = first_vaughan_counterexample(n_max, u, v)
    assert want is not None and got == want


def test_vaughan_checks_nothing_when_v_reaches_n_max():
    with mock.patch.object(decomp, "arith_tables", perturbed_tables(97, 0.25)):
        for v in (400, 400.5, 1e9):
            assert first_vaughan_counterexample(400, 10, v) is None
            assert vaughan_oracle(400, 10, v) is None


def test_table_factorizations_match_trial_division():
    t, fs = arith_tables(3000), build_sieve(1, 3000)
    for n in range(1, 3001):
        assert t.factorize(n) == fs.factorize(n) == factorize(n)


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 3000))
def test_mobius_and_von_mangoldt_against_factorize(n_max):
    t = arith_tables(n_max)
    assert t.mobius[0] == 0 and t.von_mangoldt[0] == 0.0
    for n in range(1, n_max + 1):
        fac = factorize(n)
        squarefree = all(e == 1 for _, e in fac)
        assert t.mobius[n] == ((-1) ** len(fac) if squarefree else 0)
        assert t.von_mangoldt[n] == (math.log(fac[0][0]) if len(fac) == 1 else 0.0)


def test_heath_brown_identity_holds():
    assert heath_brown_lambda_check(1000, 2, 32)  # 32^2 >= 1000
    assert heath_brown_lambda_check(500, 3, 8)  # 8^3 >= 500


def test_heath_brown_j1_is_mobius_log_inversion():
    assert heath_brown_lambda_check(600, 1, 600)


def test_heath_brown_range_error():
    with pytest.raises(ValueError, match="identity range"):
        first_heath_brown_counterexample(1000, 2, 10)


def test_heath_brown_cutoff_is_sharp_for_the_range_check():
    assert heath_brown_lambda_check(1000, 2, 31.63)  # 31.63^2 = 1000.4 >= 1000
    with pytest.raises(ValueError, match="identity range"):
        heath_brown_lambda_check(1001, 2, 31.63)


def heath_brown_oracle(n_max, J, z, tol=1e-9):
    """The per-j form of the Heath-Brown check: each term
    mu_z^(*j) * log * 1^(*(j-1)) rebuilt anew for each j, J^2 convolutions.
    Reads its tables through decomp.arith_tables, so a patch reaches both.
    """
    t = decomp.arith_tables(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    log_arr = np.log(n)
    one = np.ones(n_max + 1)
    one[0] = 0.0
    mu_z = t.mobius.astype(np.float64)
    mu_z[math.floor(z) + 1 :] = 0.0
    mu_z[0] = 0.0
    total = np.zeros(n_max + 1)
    for j in range(1, J + 1):
        conv = log_arr.copy()
        conv[0] = 0.0
        for _ in range(j - 1):
            conv = decomp._dirichlet_convolve(conv, one)
        for _ in range(j):
            conv = decomp._dirichlet_convolve(conv, mu_z)
        total += (-1) ** (j - 1) * math.comb(J, j) * conv
    bad = np.nonzero(np.abs(total[1:] - t.von_mangoldt[1:]) > tol)[0]
    return int(bad[0]) + 1 if bad.size else None


def planted_mobius(k, delta):
    """arith_tables with mu(k) moved by delta."""
    real = decomp.arith_tables

    def tables(n_max):
        t = real(n_max)
        t.mobius[k] += delta
        return t

    return tables


# z^J = n_max exactly, the edge of the identity's range
HEATH_BROWN_GRID = [(500, 1, 500), (961, 2, 31), (1024, 2, 32), (729, 3, 9), (1000, 3, 10),
                    (625, 4, 5), (1296, 4, 6)]


@pytest.mark.parametrize("n_max, J, z", HEATH_BROWN_GRID)
def test_heath_brown_chain_matches_the_per_j_loop(n_max, J, z):
    assert first_heath_brown_counterexample(n_max, J, z) is None
    assert heath_brown_oracle(n_max, J, z) is None
    # a moved mu(k), k <= z, breaks mu_z * 1 = [n = 1] at n = k; both forms
    # then first fail at n = 2 k^J, and k = z moves nothing up to n_max = z^J
    for k in sorted({1, 2, 3, 5, z}):
        for delta in (1, -2):
            with mock.patch.object(decomp, "arith_tables", planted_mobius(k, delta)):
                want = heath_brown_oracle(n_max, J, z)
                assert first_heath_brown_counterexample(n_max, J, z) == want, (k, delta)
            assert want == (2 * k**J if 2 * k**J <= n_max else None), (k, delta)
    # a moved Lambda(k) breaks n = k alone
    with mock.patch.object(decomp, "arith_tables", perturbed_tables(n_max, 0.25)):
        assert first_heath_brown_counterexample(n_max, J, z) == n_max
        assert heath_brown_oracle(n_max, J, z) == n_max


# ---------------------------------------------------------------------------
# bilinear regrouping
# ---------------------------------------------------------------------------

def strict_ordered_tuple_sum(j, x, y, f):
    """Oracle: ordered tuples of distinct primes > y (all orderings)."""
    ps = [p for p in range(2, int(x) + 1) if p > y and all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    parts = []
    terms = 0

    def rec(start, depth, prod):
        nonlocal terms
        for i in range(start, len(ps)):
            pr = prod * ps[i]
            if pr > x:
                break
            if depth + 1 == j:
                z = int(x // pr) if float(x).is_integer() else int(math.floor(x / pr))
                vals = f(np.arange(1, z + 1, dtype=np.int64) * pr)
                parts.append(math.factorial(j) * complex(np.sum(vals)))
                terms += z
            else:
                rec(i + 1, depth + 1, pr)

    rec(0, 0, 1)
    return fsum_complex(parts), math.factorial(j) * terms


def test_regroup_weights_bounded_by_omega():
    w = bilinear_regroup(2, 2 * 10**4, 7.0)
    fs = build_sieve(1, 2 * 10**4)
    for ell, b in w.beta.items():
        omega = len(fs.factorize(ell))
        assert 0 < b <= omega


def test_regroup_empty_when_y_at_least_x():
    w = bilinear_regroup(2, 100, 100)
    assert w.beta == {} and w.gamma == {} and w.diagonal_terms == 0


def test_regroup_vacuous_at_x100_y7():
    # no product of two primes above 7 fits under 100
    w = bilinear_regroup(2, 100, 7)
    f = phase_map(5, 1)
    assert regrouped_tuple_sum(w, f) == 0
    assert relaxed_tuple_sum(2, 100, 7, f) == 0


def test_regroup_reproduces_relaxed_sum():
    for j, x, y in [(2, 3000, 7.0), (2, 1500, 11.0), (3, 4000, 5.0)]:
        f = phase_map(7, 3)
        w = bilinear_regroup(j, x, y)
        direct = relaxed_tuple_sum(j, x, y, f)
        grouped = regrouped_tuple_sum(w, f)
        assert abs(direct - grouped) <= 1e-9 * max(1.0, abs(direct))


def pairwise_regrouped_sum(weights, f):
    """Oracle: every (l, n) pair tested against x itself, l in beta's order."""
    ells = np.array(list(weights.beta), dtype=np.int64)
    bs = np.array(list(weights.beta.values()), dtype=np.float64)
    parts = []
    for n, g in weights.gamma.items():
        sel = ells * n <= weights.x
        if sel.any():
            parts.append(g * complex(np.sum(bs[sel] * f(ells[sel] * n))))
    return fsum_complex(parts)


@pytest.mark.parametrize("j, x, y", [(2, 1e4 + 0.5, 7.0), (2, 10001.0, 7.0), (3, 4000.75, 5.0)])
def test_regrouped_sum_cuts_each_n_at_floor_x_over_n(j, x, y):
    # l * n = floor(x) is in and floor(x) + 1 is out; the same terms in the
    # same order as the pairwise test, so the sums are equal to the bit
    f = phase_map(7, 3)
    w = bilinear_regroup(j, x, y)
    assert regrouped_tuple_sum(w, f) == pairwise_regrouped_sum(w, f)


def test_regrouped_sum_takes_beta_in_any_order():
    w = bilinear_regroup(2, 3000.5, 7.0)
    shuffled = dict(sorted(w.beta.items(), key=lambda kv: -kv[0]))
    again = decomp.RegroupWeights(w.j, w.x, w.y, shuffled, w.gamma, w.diagonal_terms)
    f = phase_map(7, 3)
    assert regrouped_tuple_sum(again, f) == regrouped_tuple_sum(w, f)


def test_relaxed_equals_strict_plus_diagonal():
    j, x, y = 2, 3000, 7.0
    f = ones_map  # term counting
    relaxed = relaxed_tuple_sum(j, x, y, f)
    strict, strict_terms = strict_ordered_tuple_sum(j, x, y, f)
    w = bilinear_regroup(j, x, y)
    assert round(relaxed.real) == strict_terms + w.diagonal_terms
    assert round(strict.real) == strict_terms


def test_regroup_beta_counts_distinct_primes_above_y():
    x, y = 3000, 7.0
    fs = build_sieve(1, x)
    want = {}
    for ell in range(2, x + 1):
        cnt = sum(1 for p, _ in fs.factorize(ell) if p > y)
        if cnt:
            want[ell] = cnt
    w = bilinear_regroup(2, x, y)
    assert w.beta == want and list(w.beta) == sorted(want)


@pytest.mark.parametrize("x, y", [(1e4, 99), (1e4, 100), (1e4, 101), (1e5, 316), (1e5, 317),
                                  (99856.5, 316), (2e4, 7), (1e6, 7)])
def test_regroup_beta_equals_the_strided_count_per_prime(x, y):
    # cells either side of y = sqrt(x), and (1e6, 7), just under the list budget:
    # one strided add per prime above y, as beta was counted before its multiples
    # were laid out in chunks
    x_floor = math.floor(x)
    counts = np.zeros(x_floor + 1, dtype=np.uint8)
    for p in primes_between(y, x).tolist():
        counts[p::p] += 1
    w = bilinear_regroup(2, x, y)
    assert list(w.beta) == np.flatnonzero(counts).tolist()
    assert list(w.beta.values()) == counts[counts > 0].tolist()


def test_relaxed_tuple_sum_lists_primes_only_up_to_x_over_least_prime_power():
    # two primes above 1e4 have a product above 1e8, and no prime table up
    # to x (past the 2^26 budget) is built to find that out
    assert relaxed_tuple_sum(2, 1e8, 1e4, phase_map(7, 3)) == 0j


def test_relaxed_tuple_sum_refuses_terms_past_int64_before_listing_primes():
    # f takes the terms m * p1 * p2 * p3 as int64: floor(x) >= 2^63 is refused
    # before tuple_primes lists anything
    p0 = next_primes_above(1 << 21, 1)[0]
    x = p0**2 * (p0 + 200)
    assert x >= 1 << 63
    with mock.patch.object(decomp, "tuple_primes", side_effect=AssertionError("listed")):
        for xv in (x, 1 << 63, float(1 << 63)):
            with pytest.raises(ValueError, match="2\\^63"):
                relaxed_tuple_sum(3, xv, 1 << 21, ones_map)


@pytest.mark.parametrize("j, x, y", [(2, 3000, 7.0), (3, 4000, 5.0), (4, 5000, 2), (3, 20000.5, 5),
                                     (2, 3000, 0.5), (2, 3000, -math.inf)])
def test_regroup_gamma_keys_are_beta_keys(j, x, y):
    # why one count holds both dicts: gamma's keys are products of primes above y
    w = bilinear_regroup(j, x, y)
    assert set(w.gamma) <= set(w.beta)
    assert len(w.beta) == math.floor(x) - psi(x, max(y, 1))


def test_regroup_weights_are_held_to_the_list_budget(monkeypatch):
    x, y = 3000.5, 7.0
    entries = 3000 - psi(x, y)
    monkeypatch.setattr(decomp, "MAX_LIST", entries)
    assert len(bilinear_regroup(2, x, y).beta) == entries
    monkeypatch.setattr(decomp, "MAX_LIST", entries - 1)
    with mock.patch.object(decomp, "_tuple_walk", side_effect=AssertionError("walked")):
        with pytest.raises(ResourceLimitError, match=f"regroup weights needs {entries} entries"):
            bilinear_regroup(2, x, y)


@pytest.mark.parametrize("x, y", [(2000, 44.8), (2000, 44), (2000, 43.5), (2100, 44.8),
                                  (2209, 46.9), (2208, 46.9), (3000.5, 7), (3000.5, 60),
                                  (1e4, 99.5), (1e4, 100), (1e4, 101), (10, 0.5), (3, -math.inf)])
def test_regroup_counts_its_keys_without_a_sieve_when_no_l_has_two_primes_above_y(x, y):
    # when the least prime above y squared passes x, floor(x) - Psi(x, y) is the
    # sum of floor(x / p) over the primes above y, and psi is not called
    seen, real_check = [], decomp._check_budget

    def check(count, *args):
        seen.append(count)
        real_check(count, *args)

    no_two = next_primes_above(max(y, 1), 1)[0] ** 2 > math.floor(x)
    sieved = AssertionError("sieved") if no_two else psi
    with mock.patch.object(decomp, "_check_budget", side_effect=check), \
            mock.patch.object(decomp, "psi", side_effect=sieved):
        w = bilinear_regroup(2, x, y)
    assert seen == [math.floor(x) - psi(x, max(y, 1))] == [len(w.beta)]


def test_regroup_of_a_large_y_reads_its_count_off_its_primes():
    # at (6.7e7, 6e7) a sieve of [1, x] for the count would be about half the call
    start = time.perf_counter()
    with mock.patch.object(decomp, "psi", side_effect=AssertionError("sieved")):
        w = bilinear_regroup(2, 6.7e7, 6e7)
    assert len(w.beta) == 389652 and w.diagonal_terms == 0
    assert time.perf_counter() - start < 3


def test_regroup_refuses_past_the_list_budget_at_once():
    # beta has 998,727 entries at (1e6, 7), and passes 2^20 just above x = 1.05e6
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="regroup weights needs 1058709 entries"):
        bilinear_regroup(2, 1.06e6, 7)
    with pytest.raises(ResourceLimitError, match="regroup weights needs 59996894 entries"):
        bilinear_regroup(3, 6e7, 7)
    assert time.perf_counter() - start < 4


def test_regroup_rejects_small_j():
    with pytest.raises(ValueError):
        bilinear_regroup(1, 100, 7)
