"""Combinatorial decompositions of smooth integers and of the von Mangoldt
function, all implemented as exact, checkable computations.

- the threshold split n = k * m with w <= k < w * P(k) and P(k) <= p(m),
  unique for every n >= w (with p(1) treated as +infinity);
- the inclusion-exclusion expansion of a smooth sum into a full sum plus
  alternating prime-convolution corrections;
- verifiers for two exact convolution decompositions of Lambda(n);
- regrouping of prime-tuple convolutions into separable bilinear weights.

The expansion, the relaxed tuple sum and the regrouping make no numpy call
per tuple: they run on the one prime-tuple walk, `sieve._tuple_walk`, which
hands out array chunks of tuples of one level with their products and
multinomials.  The expansion and the relaxed sum lay each chunk's terms
f(m * p_1...p_j), m <= x // (p_1...p_j), out flat with `sieve._runs`, in
chunks each summed pairwise by numpy and combined across chunks with fsum.
The expansion's main term, the full sum over n <= x, is the run
m = 1 .. floor(x) of the empty tuple, whose product is 1: it is read by
`sieve._runs` in the same chunks as every correction.  The regrouping
reads gamma and its diagonal count off the multinomials, and counts
beta's prime factors from the multiples m * p of the primes above y, laid
out by `sieve._runs` and added with one np.add.at per chunk.

The split counts of every n <= N come from one array pass too
(`_split_counts`, the one enumeration of splits): each admissible k takes
its run of m <= N // k (only the y-smooth m at a finite y), laid out flat
by `sieve._runs`, and each chunk's products k * m are added into the int64
counts in place.
`split_partition_sums` reads them for its regrouped side, the sum of
c[n] * f(n) over the y-smooth n, taking only the k with P(k) <= y.
`count_admissible_splits`, one n at a time, is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .arith import factorize, floor_int, floor_quotient, fsum_complex
from .sieve import (
    MAX_LIST,
    FactorSieve,
    _check_budget,
    _powers,
    _runs,
    _tuple_walk,
    build_sieve,
    primes_between,
    psi,
    spf_factorization,
    tuple_primes,
)

VectorizedMap = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# threshold split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WSplit:
    """The unique factorization n = k * m with w <= k < w*P(k), P(k) <= p(m)."""

    n: int
    k: int
    m: int
    w: float


def _factorization(n: int, sieve: Optional[FactorSieve]) -> list[tuple[int, int]]:
    """n as [(p, e), ...], read off the sieve when it covers [1, n]."""
    if sieve is not None and sieve.lo == 1 and n <= sieve.hi:
        return sieve.factorize(n)
    return factorize(n)


def w_split(n: int, w: float, sieve: Optional[FactorSieve] = None) -> WSplit:
    """Split n at threshold w: k is the shortest ascending-prefix product of
    n's prime factorization that reaches w.  Defined for every n >= w except
    n = 1, whose only candidate k = 1 fails k < w * P(k).  The sieve, when it
    covers [1, n], only speeds up the factorization of n.
    """
    if n < 1 or w < 1:
        raise ValueError(f"need n >= 1 and w >= 1, got n={n}, w={w}")
    if n < w:
        raise ValueError(f"no admissible split: n={n} is below the threshold w={w}")
    if n == 1:
        raise ValueError("no admissible split: n=1 has no factor k with k < w*P(k)")
    k = 1
    for p, e in _factorization(n, sieve):
        for _ in range(e):
            k *= p
            if k >= w:
                return WSplit(n=n, k=k, m=n // k, w=w)
    raise AssertionError("unreachable: the full product n >= w reaches the threshold")


def count_admissible_splits(n: int, w: float, sieve: Optional[FactorSieve] = None) -> int:
    """Number of divisors k of n with w <= k < w*P(k) and P(k) <= p(n/k).

    Exhaustive over all divisors; the split is canonical exactly when this
    returns 1.  P(1) = 1 and p(1) = +infinity by convention.  The sieve
    serves as in w_split.
    """
    # (k, P(k), p(n/k)) per divisor k, extended one ascending prime p at a
    # time: p becomes P(k) when k takes it, and p(n/k) when n/k keeps some
    # of it and no smaller prime.
    splits: list[tuple[int, int, float]] = [(1, 1, math.inf)]
    for p, e in _factorization(n, sieve):
        splits = [
            (k * p**i, p if i else pk, pm if i == e else min(pm, p))
            for k, pk, pm in splits
            for i in range(e + 1)
        ]
    return sum(1 for k, pk, pm in splits if w <= k < w * pk and pk <= pm)


def _split_counts(n_max: int, w: float, sieve: FactorSieve, y: float = math.inf) -> np.ndarray:
    """count_admissible_splits(n, w) for every 0 <= n <= n_max, as int64
    counts c[n], in one array pass over a sieve covering [1, n_max]; with
    y given only the k with P(k) <= y are taken, which keeps c[n] exact at
    every y-smooth n.

    Each admissible k (w <= k < w*P(k), compared in float64 as above) takes
    m = 1 and every m in [P(k), n_max // k] with p(m) >= P(k); the (k, m)
    runs are laid out flat by `_runs`, and each chunk's products k*m are
    added into the counts in place.  The runs hold only the y-smooth m,
    cut from their sorted list by `searchsorted`: at n_max = 10^6, y = 100
    that took the counts from 75-78 to 35 ms at w = 10 and from 67-70 to
    20-28 ms at w = 3 (2-core Xeon, numpy 2.4).
    """
    lpf = sieve.lpf[:n_max]
    ks = np.arange(1, n_max + 1, dtype=np.int64)
    ks = ks[(w <= ks) & (ks < w * lpf) & (lpf <= y)]
    pk = lpf[ks - 1]
    counts = np.zeros(n_max + 1, dtype=np.int64)
    counts[ks] = 1  # m = 1
    ms = np.flatnonzero(lpf <= y) + 1  # the y-smooth m, ascending
    start, stop = np.searchsorted(ms, (pk, floor_quotient(n_max, ks) + 1))  # m in [P(k), N // k]
    for t, i in _runs(np.maximum(stop - start, 0)):
        m = ms[start[t] + i - 1]
        np.add.at(counts, (ks[t] * m)[sieve.spf[m - 1] >= pk[t]], 1)
    return counts


def split_partition_sums(
    f: VectorizedMap,
    x: float,
    y: float,
    w: float,
    sieve: Optional[FactorSieve] = None,
) -> tuple[complex, complex]:
    """(direct, regrouped) where direct sums f over n in S(x, y), n >= w, and
    regrouped sums f(k*m) over the split fibers: w <= k < w*P(k), P(k) <= y,
    and m in S(x/k, y) with p(m) >= P(k).  The two agree exactly for w > 1.

    The fibers are the splits `_split_counts` lays out: their sum is that of
    c[n] * f(n) over the n in S(x, y), c[n] the number of fibers through n.
    """
    x_floor = max(floor_int(x), 0)
    if sieve is None:
        sieve = build_sieve(1, max(x_floor, 1))
    if sieve.lo != 1 or sieve.hi < x_floor:
        raise ValueError("partition sums need a factor sieve covering [1, floor(x)]")
    y_floor = floor_int(y)
    members = np.flatnonzero(sieve.lpf[:x_floor] <= y_floor) + 1
    values = f(members)
    counts = _split_counts(x_floor, w, sieve, y_floor)[members]
    return complex(np.sum(values[members >= w])), complex(np.sum(counts * values))


# ---------------------------------------------------------------------------
# smooth-sum expansion into prime-convolution corrections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuchstabExpansion:
    """Full-range sum plus alternating prime-tuple corrections.

    recombined() = main + sum_j (-1)^j corrections[j-1]; with strictly
    increasing prime tuples this reproduces the smooth sum exactly whenever
    the expansion depth r is admissible.
    """

    x: float
    y: float
    r: int
    ordering: str
    main: complex
    corrections: tuple[complex, ...]

    def recombined(self) -> complex:
        out = self.main
        for idx, c in enumerate(self.corrections, start=1):
            out += c if idx % 2 == 0 else -c
        return out


def _expansion_depth_ok(ps: np.ndarray, x_floor: int, r: int, ordering: str) -> bool:
    """True when no n <= x can carry r+1 prime factors from `ps`, the
    primes in (y, x], so the alternating series terminates within r
    corrections.  Factors count per the ordering: as distinct primes when
    strict (never r+1 of them when ps holds r or fewer), with multiplicity
    otherwise.
    """
    if ordering == "strict":
        return ps.size <= r or math.prod(ps[: r + 1].tolist()) > x_floor
    return int(ps[0]) ** (r + 1) > x_floor


def buchstab_expand(
    f: VectorizedMap,
    x: float,
    y: float,
    r: int,
    *,
    ordering: str = "strict",
) -> BuchstabExpansion:
    """Expand the smooth sum of f over S(x, y) as the full sum over n <= x
    plus r alternating corrections summed over prime tuples above y.

    ordering="strict" uses p_1 < ... < p_j and yields an exact identity;
    ordering="nondecreasing" allows repeated primes (p_1 <= ... <= p_j),
    which over-counts integers whose large prime factors repeat, so its
    recombination is a decomposition but not an identity.  f must accept an
    int64 numpy array and return values of modulus O(1).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if ordering not in ("strict", "nondecreasing"):
        raise ValueError(f"unknown ordering {ordering!r}")
    x_floor = floor_int(x)
    ps = primes_between(y, x)
    if ps.size and not _expansion_depth_ok(ps, x_floor, r, ordering):
        raise ValueError(
            f"incomplete expansion: r={r} corrections cannot terminate at x={x}, y={y}"
        )
    # the full sum is the run m = 1 .. floor(x) of the empty tuple, product 1
    main = fsum_complex(complex(np.sum(f(m))) for _, m in _runs(np.array([x_floor])))

    level_parts: list[list[complex]] = [[] for _ in range(r)]
    for level, pr, _ in _tuple_walk(ps, x_floor, r, ordering == "strict"):
        chunks = _runs(x_floor // pr)
        level_parts[level - 1].extend(complex(np.sum(f(m * pr[t]))) for t, m in chunks)
    corrections = tuple(fsum_complex(parts) for parts in level_parts)
    return BuchstabExpansion(x, y, r, ordering, main, corrections)


# ---------------------------------------------------------------------------
# arithmetic tables and Lambda decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArithTables:
    """mu(n), Lambda(n), and smallest-prime-factor tables up to n_max."""

    n_max: int
    spf: np.ndarray
    mobius: np.ndarray
    von_mangoldt: np.ndarray

    def factorize(self, n: int) -> list[tuple[int, int]]:
        return spf_factorization(self.spf, 0, n)


def arith_tables(n_max: int) -> ArithTables:
    spf = np.concatenate([[0], build_sieve(1, n_max).spf]).astype(np.int64)
    ps = np.flatnonzero(spf == np.arange(n_max + 1))[2:].tolist()  # spf[n] = n at 0, 1 and the primes
    # mu flips sign once per prime factor and vanishes on multiples of p^2
    mobius = np.ones(n_max + 1, dtype=np.int64)
    mobius[0] = 0
    for p in ps:
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
    von_mangoldt = np.zeros(n_max + 1, dtype=np.float64)
    for t, p in _powers(ps, n_max):
        von_mangoldt[t] = math.log(p)
    return ArithTables(n_max=n_max, spf=spf, mobius=mobius, von_mangoldt=von_mangoldt)


def first_vaughan_counterexample(
    n_max: int, u: float, v: float, tol: float = 1e-9
) -> Optional[int]:
    """Smallest n in (v, n_max] where Lambda(n) differs from its three-part
    decomposition (log-weighted, short-convolution, and bilinear ranges) by
    more than tol; None when the identity holds throughout.

    The decomposition, valid for n > v, is
      Lambda(n) =   sum_{b|n, b<=u} mu(b) log(n/b)
                  - sum_{bc|n, b<=u, c<=v} mu(b) Lambda(c)
                  + sum_{bc|n, b>u, c>v} mu(b) Lambda(c),
    that is (mu_{<=u} * log) - (mu_{<=u} * Lambda_{<=v} * 1)
    + (mu_{>u} * Lambda_{>v} * 1) as Dirichlet convolutions.
    """
    if u < 1 or v < 1:
        raise ValueError(f"need u, v >= 1, got u={u}, v={v}")
    t = arith_tables(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    mu, lam = t.mobius.astype(np.float64), t.von_mangoldt
    mu_le, lam_le = np.where(n <= u, mu, 0.0), np.where(n <= v, lam, 0.0)
    one = np.ones(n_max + 1)
    one[0] = 0.0
    # the sparser factor goes first: _dirichlet_convolve walks its support
    t1 = _dirichlet_convolve(mu_le, np.log(np.maximum(n, 1.0)))
    t2 = _dirichlet_convolve(_dirichlet_convolve(lam_le, mu_le), one)
    t3 = _dirichlet_convolve(_dirichlet_convolve(lam - lam_le, mu - mu_le), one)
    bad = np.flatnonzero((n > v) & (np.abs(lam - (t1 - t2 + t3)) > tol))
    return int(bad[0]) if bad.size else None


def vaughan_lambda_check(n_max: int, u: float, v: float, tol: float = 1e-9) -> bool:
    """True iff the three-part Lambda decomposition holds on all of (v, n_max]."""
    return first_vaughan_counterexample(n_max, u, v, tol) is None


def _dirichlet_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n_max = len(f) - 1
    out = np.zeros(n_max + 1)
    for a in range(1, n_max + 1):
        fa = f[a]
        if fa:
            top = n_max // a
            out[a :: a][: top] += fa * g[1 : top + 1]
    return out


def first_heath_brown_counterexample(
    n_max: int, J: int, z: float, tol: float = 1e-9
) -> Optional[int]:
    """Smallest n <= n_max violating the J-fold alternating-binomial
    convolution identity for Lambda built from truncated mu, log, and 1:

      Lambda(n) = sum_{j=1}^{J} (-1)^(j-1) C(J, j)
                  (mu_{<=z} *^j conv log conv 1 *^{j-1})(n),

    valid whenever z^J >= n_max; None when the identity holds.
    """
    if J < 1:
        raise ValueError(f"need J >= 1, got J={J}")
    if z**J < n_max:
        raise ValueError(f"identity range requires z^J >= n_max, got z={z}, J={J}")
    t = arith_tables(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    log_arr = np.log(n)
    one = np.ones(n_max + 1)
    one[0] = 0.0
    mu_z = t.mobius.astype(np.float64)
    mu_z[floor_int(z) + 1 :] = 0.0  # mobius[0] is 0 already
    # term_1 = mu_z * log and term_{j+1} = mu_z * (term_j * 1); the sparse
    # mu_z goes first, as _dirichlet_convolve walks its support
    term = _dirichlet_convolve(mu_z, log_arr)
    total = J * term
    for j in range(2, J + 1):
        term = _dirichlet_convolve(mu_z, _dirichlet_convolve(term, one))
        total += (-1) ** (j - 1) * math.comb(J, j) * term
    defect = np.abs(total[1:] - t.von_mangoldt[1:])
    bad = np.nonzero(defect > tol)[0]
    return int(bad[0]) + 1 if bad.size else None


def heath_brown_lambda_check(n_max: int, J: int, z: float, tol: float = 1e-9) -> bool:
    """True iff the J-fold convolution identity for Lambda holds up to n_max."""
    return first_heath_brown_counterexample(n_max, J, z, tol) is None


# ---------------------------------------------------------------------------
# bilinear regrouping of prime-tuple convolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegroupWeights:
    """Separable weights for the relaxed prime-tuple convolution.

    beta[l] counts primes p > y dividing l (one choice of leading prime
    with cofactor m = l / p); gamma[n] counts ordered (j-1)-tuples of
    primes > y, repetition allowed, with product exactly n: by unique
    factorization, the orderings of the one multiset with product n.  Then
    sum_{l, n: l*n <= x} beta[l] gamma[n] f(l*n) equals the fully relaxed
    tuple sum (all j slots ordered freely, repeats allowed).
    diagonal_terms counts the relaxed (tuple, m) pairs with a repeated
    prime: the cost of dropping distinctness.
    """

    j: int
    x: float
    y: float
    beta: dict[int, int]
    gamma: dict[int, int]
    diagonal_terms: int


def bilinear_regroup(j: int, x: float, y: float) -> RegroupWeights:
    """Regroup (p_1, m) -> l and (p_2, ..., p_j) -> n for the relaxed
    prime-tuple convolution over primes above y with product cap x.
    """
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    x_floor = floor_int(x)
    ps = primes_between(y, x)
    # beta's keys are the l <= x with a prime factor above y, floor(x) - Psi(x, y)
    # of them (Psi counts n = 1 from y = 1 on), and gamma's keys are such l too,
    # so this one count holds both dicts to the list budget; when ps[0]^2 > x no
    # l has two such factors, and the count is the sum of floor(x / p), unsieved
    if ps.size:
        keys = x_floor - psi(x, max(y, 1)) if ps[0] ** 2 <= x_floor else int((x_floor // ps).sum())
        _check_budget(keys, "regroup weights", MAX_LIST)
    # distinct primes above y dividing l: at most 8 below the 2^26 prime-table budget;
    # the multiples m * p <= x of all of them, sum(floor(x / p)) <= 8 * keys, are
    # laid out by _runs and added a chunk at a time (a uint8 one keeps add.at fast)
    counts = np.zeros(max(x_floor, 0) + 1, dtype=np.uint8)
    for t, m in _runs(x_floor // ps):
        np.add.at(counts, m * ps[t], np.uint8(1))
    ells = np.flatnonzero(counts)
    beta = dict(zip(ells.tolist(), counts[ells].tolist()))

    gamma: dict[int, int] = {}
    diagonal = 0
    for level, pr, w in _tuple_walk(ps, x_floor, j, False):
        if level == j - 1:
            gamma.update(zip(pr.tolist(), w.tolist()))
        elif level == j:
            # a j-tuple repeats a prime exactly when it has fewer than j! orderings
            diagonal += int(np.sum((w < math.factorial(j)) * w * (x_floor // pr)))
    return RegroupWeights(j=j, x=x, y=y, beta=beta, gamma=gamma, diagonal_terms=diagonal)


def relaxed_tuple_sum(j: int, x: float, y: float, f: VectorizedMap) -> complex:
    """Direct evaluation of the fully relaxed prime-tuple convolution: all
    ordered j-tuples of primes above y (repeats allowed), inner m free.
    f takes the terms as int64, so floor(x) >= 2^63 is refused up front.
    """
    x_floor = floor_int(x)
    if x_floor >= 1 << 63:
        raise ValueError(f"terms m * p_1...p_j <= x must stay below 2^63, got x={x}")
    parts: list[complex] = []
    for level, pr, w in _tuple_walk(tuple_primes(y, x, j), x_floor, j, False):
        if level == j:
            w = w.astype(np.float64)
            parts.extend(complex(np.sum(w[t] * f(m * pr[t]))) for t, m in _runs(x_floor // pr))
    return fsum_complex(parts)


def regrouped_tuple_sum(weights: RegroupWeights, f: VectorizedMap) -> complex:
    """sum over l, n with l*n <= x of beta[l] * gamma[n] * f(l*n)."""
    keys = sorted(weights.beta)  # ascending l, as bilinear_regroup lays them down already
    ells = np.array(keys, dtype=np.int64)
    bs = np.array([weights.beta[ell] for ell in keys], dtype=np.float64)
    x_floor = floor_int(weights.x)
    parts: list[complex] = []
    # l * n <= x exactly for the ascending prefix l <= floor(x) // n
    cuts = np.searchsorted(ells, x_floor // np.fromiter(weights.gamma, np.int64), "right").tolist()
    for (n, g), cut in zip(weights.gamma.items(), cuts):
        if cut:
            parts.append(g * complex(np.sum(bs[:cut] * f(ells[:cut] * n))))
    return fsum_complex(parts)
