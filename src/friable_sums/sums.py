"""Exact evaluation of exponential sums over smooth integers.

Covers the linear and monomial smooth sums, real-frequency sums, sums
twisted by a completely multiplicative weight, prime-convolution sums,
bilinear forms under a hyperbola, complete monomial sums mod a prime,
and power-congruence moment counts.

Every phase argument is reduced modulo q in integer arithmetic before
the trig call; a real frequency theta is a double, so exactly m / 2^k,
and its phases are residues modulo 2^k.  One core, `_monomial_sum`, runs
the sieve's drivers for the plain, the twisted and the real-frequency
sums.  A plain sum with q <= HIST_LIMIT takes the exact residue histogram
of S(x, y) from `sieve.smooth_histogram`, so large scans stay exact until
one final floating-point pass: the sieve sweeps the odd n only, listing
no member, and the driver folds each segment's mask into one
accumulator, lifted to every n = 2^a * m by one Horner pass over the
cutoffs x / 2^a, in segment order; the histogram is int32 while x < 2^31.  A
histogram holds counts only: a twisted sum, like any sum with a larger
q, sums each segment's weighted phases per term as the segment arrives,
through `_term_sum`, the one per-term tail, which
`sum_bilinear` shares for its pairs m * n <= x: they are laid out by
`sieve._runs` and summed 2^16 at a time.  `_monomial_sum` takes
one or more residues a that share (x, y, q, nu): the listing, the bins
and the powers r^nu mod q are made once, and one phase pass serves every
a.  One tail, `_binned_sum`, turns exact counts
per class r mod q into the sum of e_q(a * r^nu) over the occupied
classes, for one or more residues a; two callers end in it:
`_monomial_sum` (its histogram path) and `sum_prime_convolution`.
Complete sums mod a prime q, for `complete_monomial_sum` and the weil
suite, are per-term sums over n = 1 .. q-1 through `_term_sum`, which
holds no histogram (`_complete_sum`).  The convolution
counts the m <= z = x // (p_1...p_j) of each prime tuple by class of
m * p_1...p_j mod q, as each m <= min(z, q) standing for (z - m) // q + 1
values; it takes the tuples in array chunks from the one prime-tuple walk,
`sieve._tuple_walk`, lays their terms out with `sieve._runs` and adds a
whole chunk of (tuple, m) terms with one np.add.at, so no numpy call is
made per tuple and the int64 counts are exact.
One kernel, `_phase_sums`, turns powers into sums for every a of a pass:
it makes a * r^nu mod q for a block of a's, one row per a over a chunk
of 2^16 terms and at most 2^16 phases a block, so memory does not grow
with the a's; each row is a pairwise numpy sum, and exact compensated
summation (fsum) combines chunks and segments.  Where the phases
outnumber q <= 2^16, cos and sin of 2 pi k / q are taken once for each k
and gathered, the same bits as taking them per phase: the weil suite's
complete sums (20 a's per pass) at `--x 499` went from 0.21-0.33 to
0.055-0.061 s, and at `--x 3220` from 3.5 to 1.2-1.3 s (in-process,
2-core Xeon, numpy 2.4).
Every power r^nu mod q comes from `_monomial_residues`, on one path for
every q: uint64 products while q <= 2^31 or q is a power of two, Python
ints in object arrays otherwise.  For nu < 0 it inverts all the units at
once by one product tree (`_inverses`, Montgomery's batch inversion):
about three products mod q per unit and one pow at the root, then the
power |nu|, where a chain for the exponent |nu| * (phi(q) - 1) took about
30 passes at q = 2 * 10^6.  Over all r < q that took 0.39 s to 0.10 s at
q = 1,995,262 (of it, 0.04 s found the units, one `r % p` per p | q;
`r // p * p != r` takes 0.02 s) and 0.14 to 0.03 s at
q = 10^6 + 3; over 400,000 random residues, 0.11 to 0.011 s at 2^31 - 1,
and at 2^32 + 15, on Python ints instead of one pow per residue, 0.74 to
0.37 s (best of 7, 2-core Xeon, numpy 2.4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .arith import TWO_PI, factorize, floor_int, floor_quotient, fsum_complex, is_prime
from .sieve import (DEFAULT_SEGMENT, MAX_WORK, _UPDATES_PER_TERM, _check_budget, _runs,
                    _tuple_walk, smooth_histogram, smooth_segments, tuple_primes)

# Plain sums bin residues up to this modulus; beyond it sums stream
# per-member phases instead of building O(q) tables, as twisted sums do at
# every q.
HIST_LIMIT = 1 << 23
# Residue powers and inverses are uint64 products mod q while q*q is below
# 2^63, or for a power-of-two q, which uint64 products reduce exactly as they
# wrap modulo 2^64; past it the same products run on Python ints.
_VEC_MOD_LIMIT = 1 << 31
# Residues are reduced in int64 arrays.
MAX_MODULUS = 1 << 63
# Terms per chunk and phases per block of the phase kernel _phase_sums, and
# the largest q whose values of e_q it tables.
_CHUNK = 1 << 16


def _check_phase(q: int, a: int, nu: int) -> None:
    """Refuse a phase e_q(a * n^nu) outside the domain q >= 1, gcd(a, q) = 1, nu != 0."""
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need q >= 1 and gcd(a, q) = 1, got q={q}, a={a}")
    if nu == 0:
        raise ValueError("nu must be nonzero")


@dataclass(frozen=True)
class SumParams:
    """Argument record (x, y, q, a, nu, theta) shared by every sum."""

    x: float
    y: float
    q: int
    a: int
    nu: int = 1
    theta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.q >= MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 1 <= q < 2^63, got q={self.q}")
        _check_phase(self.q, self.a, self.nu)
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.theta is not None and self.nu != 1:
            raise ValueError(f"the theta sum e(theta * n) needs nu = 1, got nu={self.nu}")


@dataclass(frozen=True)
class SumValue:
    """A computed sum and the number of summands it ran over."""

    value: complex
    terms: int

    @property
    def abs(self) -> float:
        return abs(self.value)


def _pow_vec(b: np.ndarray, nu: int, q: int) -> np.ndarray:
    """b^nu mod q elementwise, for b in [0, q) and nu >= 0: uint64 for q as
    in _VEC_MOD_LIMIT, Python ints (an object array) past it.
    """
    result = b if nu & 1 else np.ones_like(b)
    nu >>= 1
    while nu:
        b = b * b % q
        if nu & 1:
            result = result * b % q
        nu >>= 1
    return result


def _inverses(u: np.ndarray, q: int) -> np.ndarray:
    """1/u mod q per unit u, in the dtype _pow_vec takes, by one product
    tree: the units are paired (an odd level padded with a 1) and pair
    products mod q go up, one pow inverts the root, and going down each
    node's inverse times its sibling is the other's inverse: about three
    products per unit in all.  A level is dropped once the way down has
    used it.
    """
    n, levels = u.size, []
    while u.size > 1:
        if u.size & 1:
            u = np.concatenate((u, np.ones(1, dtype=u.dtype)))
        levels.append(u.reshape(-1, 2))
        u = levels[-1][:, 0] * levels[-1][:, 1] % q
    inv = np.array([pow(int(u[0]), -1, q)], dtype=u.dtype) if u.size else u
    while levels:
        pairs = levels.pop()
        inv = (inv[: len(pairs), None] * pairs[:, ::-1] % q).ravel()
    return inv[:n]


@functools.lru_cache(maxsize=64)
def _prime_divisors(q: int) -> tuple[int, ...]:
    """The primes dividing q, factored once per q rather than once per
    chunk of a nu < 0 sum."""
    return tuple(p for p, _ in factorize(q))


def _monomial_residues(r: np.ndarray, q: int, nu: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """r^nu mod q per int64 residue r in [0, q), which `_scaled` multiplies
    by each a; for nu < 0 the second item masks the invertible r, the only
    ones whose powers mean anything, and their inverses come from one
    product tree (`_inverses`) before the power |nu| is taken.
    """
    wide = q > _VEC_MOD_LIMIT and q & (q - 1)  # uint64 products would not reduce exactly
    if nu == 1 and not wide:
        return r, None
    b = r.astype(object if wide else np.uint64)
    units = None
    if nu < 0:
        # the units by r // p * p != r per p | q (numpy's floor-divide by a
        # scalar is faster than its remainder); past the limit by a gcd, as
        # factoring q could take sqrt(q) steps
        units = np.gcd(r, q) == 1 if wide else np.ones(r.shape, dtype=bool)
        for p in () if wide else _prime_divisors(q):
            units &= r // p * p != r
        b[~units] = 1  # a non-unit stands in as 1, so every entry inverts
        b = _inverses(b, q)
    return _pow_vec(b, abs(nu), q), units


def _scaled(a: int | np.ndarray, pw: np.ndarray, q: int) -> np.ndarray:
    """a * pw mod q as int64, for powers pw from `_monomial_residues` and an
    int a or a column of them in pw's dtype: a * pw stays below 2^62 for
    q <= _VEC_MOD_LIMIT, wraps modulo 2^64 (which a power-of-two q divides)
    and is exact on Python ints.
    """
    return (a % q * pw % q).astype(np.int64, copy=False)


def _phase_sums(
    pw: np.ndarray, q: int, avals: Sequence[int], w: Optional[np.ndarray] = None
) -> list[complex]:
    """S over the powers pw of w * e_q(a * pw) for each a in avals, with
    w = 1 when omitted.

    The phases k = a * pw mod q are made for a block of a's at a time, one
    row per a, over the columns [i, i + _CHUNK) of pw; a block holds at
    most _CHUNK of them.  Each row is summed by numpy's pairwise .sum(), and
    each a's chunk sums are combined with fsum.  Where the phases outnumber
    the q values of cos and sin (q <= _CHUNK), those are taken once and
    gathered by k: the same expression on the same k, so the same bits.
    """
    rows = max(1, _CHUNK // max(pw.size, 1))
    a_col = np.array([a % q for a in avals], dtype=pw.dtype).reshape(-1, 1)

    def trig(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ang = TWO_PI * (k / q)
        return np.cos(ang), np.sin(ang)

    table = trig(np.arange(q)) if q <= _CHUNK and len(avals) * pw.size > q else None
    totals = np.zeros((2, len(avals), -(-pw.size // _CHUNK)))
    for j in range(0, len(avals), rows):
        for i in range(0, pw.size, _CHUNK):
            k = _scaled(a_col[j : j + rows], pw[i : i + _CHUNK], q)
            c, s = trig(k) if table is None else (table[0][k], table[1][k])
            if w is not None:
                wr, wi = w[i : i + _CHUNK].real, w[i : i + _CHUNK].imag
                c, s = wr * c - wi * s, wr * s + wi * c
            totals[:, j : j + rows, i // _CHUNK] = c.sum(axis=1), s.sum(axis=1)
    return [fsum_complex(map(complex, re, im)) for re, im in zip(*totals.tolist())]


def _term_sum(
    n: np.ndarray, q: int, avals: Sequence[int], nu: int, w: Optional[np.ndarray] = None
) -> list[SumValue]:
    """S over the int64 array n of w_n * e_q(a * n^nu) for each a in avals,
    with w = 1 when omitted; for nu < 0 only the n coprime with q are kept.
    """
    pw, units = _monomial_residues(n % q, q, nu)
    if units is not None:
        pw = pw[units]
        w = None if w is None else w[units]
    return [SumValue(v, int(pw.size)) for v in _phase_sums(pw, q, avals, w)]


def _total(parts: Iterable[SumValue]) -> SumValue:
    parts = list(parts)
    return SumValue(fsum_complex(v.value for v in parts), sum(v.terms for v in parts))


def _monomial_sum(
    cells: Sequence[SumParams],
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
    prime_value: Optional[Callable[[int], complex]] = None,
) -> list[SumValue]:
    """S over n in S(x, y) of f(n) * e_q(a * n^nu) for each cell, with f = 1
    or the completely multiplicative extension of prime_value.  The cells
    share (x, y, q, nu) and differ in a: one pass lists S(x, y) and raises
    its residues to the nu-th power for all of them.

    A plain sum up to HIST_LIMIT takes the exact residue histogram of
    S(x, y) from `smooth_histogram` (no member is listed) and meets the
    phases once at the end.  Beyond HIST_LIMIT,
    and for a twisted sum at every q, each segment's phases are summed per
    term as the segment arrives.
    """
    p, q, avals = cells[0], cells[0].q, [c.a for c in cells]
    if q > HIST_LIMIT or prime_value is not None:
        parts = list(smooth_segments(
            p.x, p.y, lambda members, w: _term_sum(members, q, avals, p.nu, w),
            segment, threads, prime_value))
        return [_total(part[i] for part in parts) for i in range(len(avals))]
    return _binned_sum(smooth_histogram(p.x, p.y, q, segment, threads), q, avals, p.nu)


def _binned_sum(counts: np.ndarray, q: int, avals: Sequence[int], nu: int) -> list[SumValue]:
    """S over classes r mod q with counts[r] > 0 (units only for nu < 0) of
    counts[r] * e_q(a * r^nu), one per a in avals.  `terms` is the sum of
    the counts kept.
    """
    nz = np.flatnonzero(counts)
    pw, units = _monomial_residues(nz, q, nu)
    if units is not None:
        nz, pw = nz[units], pw[units]
    terms = int(counts[nz].sum())
    return [SumValue(v, terms) for v in _phase_sums(pw, q, avals, counts[nz].astype(np.float64))]


def sum_power(
    p: SumParams, *, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> SumValue:
    """S over n in S(x, y) of e_q(a * n^nu).

    For nu < 0 the sum silently restricts to n coprime with q, the range
    on which n^nu is defined; `terms` counts the summands actually used.
    Segments run on `threads` threads; the result does not depend on it.
    """
    return _monomial_sum([p], segment, threads)[0]


def sum_linear(
    p: SumParams, *, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> SumValue:
    """S over n in S(x, y) of e_q(a * n): the nu = 1 sum."""
    linear = SumParams(x=p.x, y=p.y, q=p.q, a=p.a, nu=1, theta=p.theta)
    return sum_power(linear, segment=segment, threads=threads)


def sum_theta(
    p: SumParams, *, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> SumValue:
    """S over n in S(x, y) of e(theta * n), for a real frequency theta.

    A finite double theta is exactly m / 2^k, so e(theta * n) is
    e_{2^k}(m * n) and every phase is an exact residue: for k <= 62 this is
    the linear sum at q = 2^k, and for k > 62 theta = a / 2^62 + t with
    0 <= t < 2^-62, summed mod 2^62 with e(t * n) as a per-term weight.
    Segments run on `threads` threads.
    """
    if p.theta is None:
        raise ValueError("sum_theta needs params.theta")
    m, d = p.theta.as_integer_ratio()
    if d < 1 << 63:
        return _monomial_sum([SumParams(x=p.x, y=p.y, q=d, a=m % d)], segment, threads)[0]
    shift = d.bit_length() - 63
    a, t = m >> shift, (m & ((1 << shift) - 1)) / d

    def tail(members: np.ndarray, _: None) -> SumValue:
        return _term_sum(members, 1 << 62, [a], 1, np.exp(1j * (TWO_PI * t * members)))[0]

    return _total(smooth_segments(p.x, p.y, tail, segment, threads))


def sum_twisted(
    p: SumParams,
    prime_value: Callable[[int], complex],
    *,
    segment: int = DEFAULT_SEGMENT,
) -> SumValue:
    """S over n in S(x, y) of f(n) * e_q(a * n^nu) for completely
    multiplicative f given by its values on primes (|f| <= 1 caller contract),
    summed per term at every q.
    """
    return _monomial_sum([p], segment, 1, prime_value)[0]


def sum_prime_convolution(
    j: int,
    x: float,
    y: float,
    q: int,
    a: int,
    nu: int = 1,
    *,
    strict: bool = True,
) -> SumValue:
    """Nested sum over prime tuples y < p_1 < ... < p_j (or <= with
    `strict=False`) of the full inner sum over m <= x / (p_1...p_j) of
    e_q(a * (m p_1 ... p_j)^nu).
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    _check_phase(q, a, nu)
    _check_budget(q, "a residue histogram")
    counts = np.zeros(q, dtype=np.int64)
    x_floor = floor_int(x)
    for level, pr, _ in _tuple_walk(tuple_primes(y, x, j), x_floor, j, strict):
        if level == j:
            # z < 2^26 and pr % q < q <= 2^26, whatever the products' dtype
            z, pr_q = (x_floor // pr).astype(np.int64), (pr % q).astype(np.int64)
            for t, m in _runs(np.minimum(z, q)):
                # each m <= min(z, q) stands for the (z - m) // q + 1 values m' <= z, m' = m mod q
                np.add.at(counts, m * pr_q[t] % q, (z[t] - m) // q + 1)
    return _binned_sum(counts, q, [a], nu)[0]


def sum_bilinear(
    alpha: Mapping[int, complex],
    beta: Mapping[int, complex],
    x: float,
    q: int,
    a: int,
    nu: int = 1,
) -> SumValue:
    """Double sum of alpha_m beta_n e_q(a (m n)^nu) under the hyperbola
    m * n <= x.  Keys must be integers >= 1 and weights satisfy |w| <= 1;
    zero weights are skipped.  Each m takes the sorted beta keys up to
    floor(x) // m; the (m, n) pairs are laid out by `sieve._runs` in chunks
    of _CHUNK, each summed by the per-term kernel as it is made.
    """
    _check_phase(q, a, nu)
    for name, seq in (("alpha", alpha), ("beta", beta)):
        for key, w in seq.items():
            if not isinstance(key, (int, np.integer)) or key < 1:
                raise ValueError(f"{name} support must be positive integers, got index {key!r}")
            if abs(w) > 1 + 1e-12:
                raise ValueError(f"|{name}[{key}]| = {abs(w)} exceeds 1")
    # no product passes max(alpha) * max(beta), so x is capped there exactly
    top = int(max(alpha, default=0)) * int(max(beta, default=0))
    x_floor = top if x >= top else floor_int(x)
    if x_floor >= 1 << 63:
        raise ValueError(f"pairs m * n <= x must stay below 2^63, got x={x}")
    ns = np.array(sorted(n for n, bn in beta.items() if bn and n <= x_floor), dtype=np.int64)
    bs = np.array([beta[n] for n in ns.tolist()], dtype=np.complex128)
    ms = np.array([m for m, am in alpha.items() if am and m <= x_floor], dtype=np.int64)
    am = np.array([alpha[m] for m in ms.tolist()], dtype=np.complex128)
    parts = []
    for t, i in _runs(np.searchsorted(ns, floor_quotient(x_floor, ms), "right"), _CHUNK):
        parts.append(_term_sum(ms[t] * ns[i - 1], q, [a], nu, am[t] * bs[i - 1])[0])
        if parts[-1].terms < t.size:
            raise ValueError(f"nu={nu} < 0 needs every m * n <= x invertible modulo {q}")
    return _total(parts)


def complete_monomial_sum(q: int, a: int, nu: int) -> SumValue:
    """Sum over n = 1 .. q-1 of e_q(a * n^nu) for prime q, gcd(a, q) = 1."""
    _check_phase(q, a, nu)
    return _complete_sum(q, [a], nu)[0]


def _complete_sum(q: int, avals: Sequence[int], nu: int) -> list[SumValue]:
    """S over n = 1 .. q-1 of e_q(a * n^nu) for each a in avals, summed per
    term; q is held to the table budget before it is tested for primality."""
    _check_budget(q, "a complete sum")
    if not is_prime(q):
        raise ValueError(f"complete monomial sums need a prime modulus, got q={q}")
    return _term_sum(np.arange(1, q, dtype=np.int64), q, avals, nu)


def weil_envelope_violation(
    q: int, a: int, nu: int, slack: float = 1e-6
) -> Optional[float]:
    """|sum over all residues n mod q of e_q(a n^nu)| minus (nu-1)*sqrt(q),
    if positive beyond `slack`; None when the envelope holds.
    """
    return _weil_excess(complete_monomial_sum(q, a, nu), q, nu, slack)


def _weil_excess(s: SumValue, q: int, nu: int, slack: float = 1e-6) -> Optional[float]:
    """The excess of `weil_envelope_violation` for s = complete_monomial_sum(q, a, nu)."""
    excess = abs(1 + s.value) - (nu - 1) * math.sqrt(q)  # n = 0 contributes 1
    return excess if excess > slack else None


def moment_count(k: int, nu: int, q: int, M: int) -> int:
    """Number of solutions of m_1^nu + ... + m_k^nu = m_{k+1}^nu + ... +
    m_{2k}^nu (mod q) with M <= m_i <= 2M, by a k-fold residue histogram.
    Its fold's (k - 1) * q * min(q, M + 1) updates are held to the work
    budget (see sieve._check_budget) before any array is made.
    """
    if k < 1 or M < 1:
        raise ValueError(f"need k, M >= 1, got k={k}, M={M}")
    _check_phase(q, 1, nu)
    _check_budget(M + 1, "a moment range")
    _check_budget(q, "a residue histogram")
    updates = (k - 1) * q * min(q, M + 1)  # the fold: k - 1 passes of q per occupied class
    _check_budget(updates, "moment_count's fold", MAX_WORK * _UPDATES_PER_TERM, "update")
    h = np.zeros(q, dtype=np.int64)
    m = np.arange(M, 2 * M + 1, dtype=np.int64)
    pw, units = _monomial_residues(m % q, q, nu)
    if units is not None and not units.all():
        raise ValueError(f"m={int(m[~units][0])} is not invertible modulo {q}")
    # each folded count is at most (M + 1)^k; past int64, fold Python ints
    dtype = np.int64 if (M + 1) ** k < 2**62 else object
    h += np.bincount(_scaled(1, pw, q), minlength=q)
    acc = h.astype(dtype)
    for _ in range(k - 1):
        folded = np.zeros(q, dtype=dtype)
        for r in np.nonzero(h)[0]:
            folded += np.roll(acc, int(r)) * int(h[r])
        acc = folded
    return sum(int(v) * int(v) for v in acc.tolist())
