"""Exact evaluation of exponential sums over smooth integers.

Covers the linear and monomial smooth sums, real-frequency sums, sums
twisted by a completely multiplicative weight, prime-convolution sums,
bilinear forms under a hyperbola, complete monomial sums mod a prime,
and power-congruence moment counts.

Every phase argument is reduced modulo q in integer arithmetic before
the trig call; residue histograms keep large scans exact until a single
final floating-point pass, and all partial sums are combined with exact
compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Optional

import numpy as np

from .arith import TWO_PI, floor_int, floor_quotient, fsum_complex, is_prime
from .sieve import (
    DEFAULT_SEGMENT,
    ResourceLimitError,
    iter_smooth,
    prime_tuples,
    primes_between,
    smooth_in_range,
    smooth_plan,
)

# Residue histograms are used up to this modulus; beyond it sums stream
# per-member phases instead of building O(q) tables.
HIST_LIMIT = 1 << 23
# Vectorized modular powers need q*q below 2^63.
_VEC_MOD_LIMIT = 1 << 31
MAX_MOMENT_MODULUS = 1 << 26
# Residues are reduced in int64 arrays.
MAX_MODULUS = 1 << 63


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
        if not 1 <= self.q < MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 1 <= q < 2^63, got q={self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"need gcd(a, q) = 1, got a={self.a}, q={self.q}")
        if self.nu == 0:
            raise ValueError("nu must be nonzero")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


@dataclass(frozen=True)
class SumValue:
    """A computed sum and the number of summands it ran over."""

    value: complex
    terms: int

    @property
    def abs(self) -> float:
        return abs(self.value)


def _pow_vec(base: np.ndarray, nu: int, q: int) -> np.ndarray:
    """base^nu mod q elementwise for nu >= 1, q <= _VEC_MOD_LIMIT."""
    result = np.ones_like(base)
    b = base % q
    e = nu
    while e:
        if e & 1:
            result = result * b % q
        b = b * b % q
        e >>= 1
    return result


def _monomial_residues(
    r: np.ndarray, q: int, a: int, nu: int
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """a * r^nu mod q per residue; second item masks invertible r for nu < 0."""
    a = a % q
    if nu >= 1 and q <= _VEC_MOD_LIMIT:
        return a * _pow_vec(r, nu, q) % q, None
    out = np.empty(r.size, dtype=np.int64)
    mask = np.ones(r.size, dtype=bool)
    for i, rv in enumerate(r.tolist()):
        if nu < 0 and math.gcd(rv, q) != 1:
            mask[i] = False
            out[i] = 0
        else:
            out[i] = a * pow(rv, nu, q) % q
    return out, (mask if nu < 0 else None)


def _phase_parts(idx: np.ndarray, q: int, weights: np.ndarray) -> complex:
    """sum of weights * e_q(idx) for one batch, pairwise-summed."""
    ang = (TWO_PI / q) * idx
    return complex(float(np.dot(weights, np.cos(ang))), float(np.dot(weights, np.sin(ang))))


def _residue_histogram(
    x: float, y: float, q: int, segment: int, threads: int
) -> np.ndarray:
    """Exact int64 counts of n mod q over n in S(x, y).

    With threads > 1 the independent segments are sieved and counted in
    parallel; integer histogram merging is order-free, so the result is
    identical no matter how work is scheduled.
    """
    hist = np.zeros(q, dtype=np.int64)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        bounds, y_floor, primes = smooth_plan(x, y, segment)

        def one(span: tuple[int, int]) -> np.ndarray:
            members, _ = smooth_in_range(span[0], span[1], y_floor, primes)
            return np.bincount(members % q, minlength=q)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for h in pool.map(one, bounds):
                hist += h
    else:
        for members, _ in iter_smooth(x, y, segment):
            hist += np.bincount(members % q, minlength=q)
    return hist


def _fsum_products(u: np.ndarray, v: np.ndarray) -> float:
    """math.fsum of u * v, handed over 2^16 terms at a time.

    fsum rounds once, at the end, so the chunking does not change the
    result; it only keeps the Python floats of one chunk alive instead of
    a list of all the terms at 32 bytes each.  For the 751,360 occupied
    residues of x = 1e7, y = 300, q = x^0.9 that list was 23 MiB and made
    this step, not the sieve, the sum's peak memory.
    """
    c = 1 << 16
    terms = ((u[i : i + c] * v[i : i + c]).tolist() for i in range(0, u.size, c))
    return math.fsum(chain.from_iterable(terms))


def _hist_phase_sum(hist: np.ndarray, q: int, a: int, nu: int) -> SumValue:
    nz = np.nonzero(hist)[0].astype(np.int64)
    if nz.size == 0:
        return SumValue(0j, 0)
    idx, mask = _monomial_residues(nz, q, a, nu)
    counts = hist[nz]
    if mask is not None:
        idx = idx[mask]
        counts = counts[mask]
    terms = int(counts.sum())
    if idx.size == 0:
        return SumValue(0j, 0)
    ang = (TWO_PI / q) * idx
    w = counts.astype(np.float64)
    re = _fsum_products(w, np.cos(ang))
    im = _fsum_products(w, np.sin(ang))
    return SumValue(complex(re, im), terms)


def _direct_power_sum(
    x: float, y: float, q: int, a: int, nu: int, segment: int
) -> SumValue:
    parts = []
    terms = 0
    for members, _ in iter_smooth(x, y, segment):
        if members.size == 0:
            continue
        idx, mask = _monomial_residues(members % q, q, a, nu)
        if mask is not None:
            idx = idx[mask]
        terms += int(idx.size)
        if idx.size:
            parts.append(_phase_parts(idx, q, np.ones(idx.size)))
    return SumValue(fsum_complex(parts), terms)


def sum_power(
    p: SumParams, *, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> SumValue:
    """S over n in S(x, y) of e_q(a * n^nu).

    For nu < 0 the sum silently restricts to n coprime with q, the range
    on which n^nu is defined; `terms` counts the summands actually used.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if p.q <= HIST_LIMIT:
        hist = _residue_histogram(p.x, p.y, p.q, segment, threads)
        return _hist_phase_sum(hist, p.q, p.a, p.nu)
    return _direct_power_sum(p.x, p.y, p.q, p.a, p.nu, segment)


def sum_linear(
    p: SumParams, *, segment: int = DEFAULT_SEGMENT, threads: int = 1
) -> SumValue:
    """S over n in S(x, y) of e_q(a * n): the nu = 1 sum."""
    linear = SumParams(x=p.x, y=p.y, q=p.q, a=p.a, nu=1, theta=p.theta)
    return sum_power(linear, segment=segment, threads=threads)


def sum_theta(p: SumParams, *, segment: int = DEFAULT_SEGMENT) -> SumValue:
    """S over n in S(x, y) of e(theta * n), for a real frequency theta.

    theta * n is reduced mod 1 in extended precision so the phase survives
    n up to 10^9 with ~1e-12 accuracy.
    """
    if p.theta is None:
        raise ValueError("sum_theta needs params.theta")
    theta_ld = np.longdouble(p.theta)
    parts = []
    terms = 0
    for members, _ in iter_smooth(p.x, p.y, segment):
        if members.size == 0:
            continue
        terms += int(members.size)
        frac = np.asarray((theta_ld * members) % np.longdouble(1.0), dtype=np.float64)
        ang = TWO_PI * frac
        parts.append(complex(float(np.sum(np.cos(ang))), float(np.sum(np.sin(ang)))))
    return SumValue(fsum_complex(parts), terms)


def sum_twisted(
    p: SumParams,
    prime_value: Callable[[int], complex],
    *,
    segment: int = DEFAULT_SEGMENT,
) -> SumValue:
    """S over n in S(x, y) of f(n) * e_q(a * n^nu) for completely
    multiplicative f given by its values on primes (|f| <= 1 caller contract).
    """
    q = p.q
    if q <= HIST_LIMIT:
        w_re = np.zeros(q)
        w_im = np.zeros(q)
        counts = np.zeros(q, dtype=np.int64)
        for members, w in iter_smooth(p.x, p.y, segment, prime_value=prime_value):
            if members.size == 0:
                continue
            r = members % q
            w_re += np.bincount(r, weights=w.real, minlength=q)
            w_im += np.bincount(r, weights=w.imag, minlength=q)
            counts += np.bincount(r, minlength=q)
        nz = np.nonzero(counts)[0].astype(np.int64)
        if nz.size == 0:
            return SumValue(0j, 0)
        idx, mask = _monomial_residues(nz, q, p.a, p.nu)
        if mask is not None:
            nz = nz[mask]
            idx = idx[mask]
        terms = int(counts[nz].sum())
        ang = (TWO_PI / q) * idx
        c, s = np.cos(ang), np.sin(ang)
        wr, wi = w_re[nz], w_im[nz]
        re = math.fsum((wr * c).tolist()) - math.fsum((wi * s).tolist())
        im = math.fsum((wr * s).tolist()) + math.fsum((wi * c).tolist())
        return SumValue(complex(re, im), terms)
    parts = []
    terms = 0
    for members, w in iter_smooth(p.x, p.y, segment, prime_value=prime_value):
        if members.size == 0:
            continue
        idx, mask = _monomial_residues(members % q, q, p.a, p.nu)
        if mask is not None:
            idx = idx[mask]
            w = w[mask]
        terms += int(idx.size)
        if idx.size:
            ang = (TWO_PI / q) * idx
            ph = np.cos(ang) + 1j * np.sin(ang)
            parts.append(complex(np.sum(w * ph)))
    return SumValue(fsum_complex(parts), terms)


class _RangePhaseSummer:
    """Per-(q, a, nu) tables for sums of e_q(c * m^nu) over full ranges m <= Z."""

    def __init__(self, q: int, a: int, nu: int):
        self.q = q
        self.nu = nu
        r = np.arange(q, dtype=np.int64)
        if nu >= 1 and q <= _VEC_MOD_LIMIT:
            self.pw = _pow_vec(r, nu, q)
            self.valid = None
        else:
            pw = np.zeros(q, dtype=np.int64)
            valid = np.zeros(q, dtype=bool)
            for rv in range(q):
                if nu < 0 and math.gcd(rv, q) != 1:
                    continue
                pw[rv] = pow(rv, nu, q)
                valid[rv] = True
            self.pw = pw
            self.valid = valid if nu < 0 else None
        ang = (TWO_PI / q) * r
        self.cos = np.cos(ang)
        self.sin = np.sin(ang)

    def range_sum(self, z: int, c: int) -> tuple[complex, int]:
        """(sum over 1 <= m <= z of e_q(c * m^nu), number of summands)."""
        q = self.q
        base, rem = divmod(z, q)
        counts = np.full(q, base, dtype=np.float64)
        if rem:
            counts[1 : rem + 1] += 1.0
        idx = (c % q) * self.pw % q
        if self.valid is not None:
            counts = counts * self.valid
        nterms = z if self.valid is None else int(round(float(np.sum(counts))))
        re = float(np.dot(counts, self.cos[idx]))
        im = float(np.dot(counts, self.sin[idx]))
        return complex(re, im), nterms


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
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need q >= 1 and gcd(a, q) = 1, got q={q}, a={a}")
    if nu == 0:
        raise ValueError("nu must be nonzero")
    summer = _RangePhaseSummer(q, a, nu)
    parts: list[complex] = []
    total_terms = 0
    for pr, idx in prime_tuples(primes_between(y, x), floor_int(x), j, strict):
        if len(idx) < j or (nu < 0 and math.gcd(pr, q) != 1):
            continue  # a prefix, or no summand has (m * pr)^nu defined mod q
        c = a % q * pow(pr % q, nu, q) % q
        val, cnt = summer.range_sum(floor_quotient(x, pr), c)
        parts.append(val)
        total_terms += cnt
    return SumValue(fsum_complex(parts), total_terms)


def sum_bilinear(
    alpha: Mapping[int, complex],
    beta: Mapping[int, complex],
    x: float,
    q: int,
    a: int,
    nu: int = 1,
) -> SumValue:
    """Double sum of alpha_m beta_n e_q(a (m n)^nu) under the hyperbola
    m * n <= x.  Weights must satisfy |w| <= 1; zero weights are skipped.
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need q >= 1 and gcd(a, q) = 1, got q={q}, a={a}")
    for name, seq in (("alpha", alpha), ("beta", beta)):
        for key, w in seq.items():
            if key < 1:
                raise ValueError(f"{name} support must be positive, got index {key}")
            if abs(w) > 1 + 1e-12:
                raise ValueError(f"|{name}[{key}]| = {abs(w)} exceeds 1")
    parts: list[complex] = []
    for m, am in alpha.items():
        if am == 0:
            continue
        for n, bn in beta.items():
            if bn == 0 or m * n > x:
                continue
            idx = a * pow(m * n, nu, q) % q
            ang = TWO_PI * idx / q
            parts.append(am * bn * complex(math.cos(ang), math.sin(ang)))
    return SumValue(fsum_complex(parts), len(parts))


def complete_monomial_sum(q: int, a: int, nu: int) -> SumValue:
    """Sum over n = 1 .. q-1 of e_q(a * n^nu) for prime q, gcd(a, q) = 1."""
    if not is_prime(q):
        raise ValueError(f"complete monomial sums need a prime modulus, got q={q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    if nu == 0:
        raise ValueError("nu must be nonzero")
    n = np.arange(1, q, dtype=np.int64)
    idx, _ = _monomial_residues(n, q, a, nu)
    ang = (TWO_PI / q) * idx
    re = math.fsum(np.cos(ang).tolist())
    im = math.fsum(np.sin(ang).tolist())
    return SumValue(complex(re, im), q - 1)


def weil_envelope_violation(
    q: int, a: int, nu: int, slack: float = 1e-6
) -> Optional[float]:
    """|sum over all residues n mod q of e_q(a n^nu)| minus (nu-1)*sqrt(q),
    if positive beyond `slack`; None when the envelope holds.
    """
    full = 1 + complete_monomial_sum(q, a, nu).value  # n = 0 contributes 1
    excess = abs(full) - (nu - 1) * math.sqrt(q)
    return excess if excess > slack else None


def moment_count(k: int, nu: int, q: int, M: int) -> int:
    """Number of solutions of m_1^nu + ... + m_k^nu = m_{k+1}^nu + ... +
    m_{2k}^nu (mod q) with M <= m_i <= 2M, by a k-fold residue histogram.
    """
    if k < 1 or M < 1 or q < 1:
        raise ValueError(f"need k, M, q >= 1, got k={k}, M={M}, q={q}")
    if nu == 0:
        raise ValueError("nu must be nonzero")
    if q > MAX_MOMENT_MODULUS:
        raise ResourceLimitError(
            f"moment histogram over q={q} residues exceeds the memory budget"
        )
    m = np.arange(M, 2 * M + 1, dtype=np.int64)
    if nu < 0:
        bad = [int(v) for v in m.tolist() if math.gcd(v, q) != 1]
        if bad:
            raise ValueError(f"m={bad[0]} is not invertible modulo {q}")
    idx, _ = _monomial_residues(m, q, 1, nu)
    h = np.bincount(idx, minlength=q)
    if (M + 1) ** k < 2**62:
        acc = h.copy()
        for _ in range(k - 1):
            folded = np.zeros(q, dtype=np.int64)
            for r in np.nonzero(h)[0]:
                folded += np.roll(acc, int(r)) * h[r]
            acc = folded
        return sum(int(v) * int(v) for v in acc.tolist())
    # Counts may overflow int64: fold with exact Python integers.
    base = {int(r): int(c) for r, c in enumerate(h.tolist()) if c}
    acc_d = dict(base)
    for _ in range(k - 1):
        folded_d: dict[int, int] = {}
        for s, cs in acc_d.items():
            for r, cr in base.items():
                t = (s + r) % q
                folded_d[t] = folded_d.get(t, 0) + cs * cr
        acc_d = folded_d
    return sum(c * c for c in acc_d.values())
