"""Exact modular and complex-exponential primitives shared by every module.

Phase arguments are always reduced modulo q in exact integer arithmetic
before any trigonometric call, so a phase like e_q(a*n^nu) never loses
precision to a huge floating-point argument.  The scalar primitives here
use Python integers, which are arbitrary precision, but the vectorized
sums reduce residues in int64 arrays, so a sum's modulus must stay below
2^63 (sums.SumParams refuses larger ones).  Accumulated sums go through
`fsum_complex`, which is exact compensated summation (strictly stronger
than a single Kahan accumulator).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi


def eq_phase(z: int, q: int) -> complex:
    """e_q(z) = exp(2*pi*i*z/q), with z reduced mod q as an integer first."""
    if q < 1:
        raise ValueError(f"modulus must be a positive integer, got q={q}")
    r = z % q
    angle = TWO_PI * r / q
    return complex(math.cos(angle), math.sin(angle))


def e_frac(t: float) -> complex:
    """e(t) = exp(2*pi*i*t) for real t, reduced mod 1 before the trig call."""
    r = t - math.floor(t)
    angle = TWO_PI * r
    return complex(math.cos(angle), math.sin(angle))


def pow_mod(n: int, nu: int, q: int) -> int:
    """n^nu mod q in [0, q); negative nu uses the modular inverse of n.

    Raises ValueError when nu < 0 and gcd(n, q) > 1, or when nu == 0
    (the exponent of a monomial phase is nonzero by contract).
    """
    if q < 1:
        raise ValueError(f"modulus must be a positive integer, got q={q}")
    if nu == 0:
        raise ValueError("monomial exponent must be nonzero")
    try:
        return pow(n, nu, q)
    except ValueError as exc:
        raise ValueError(f"{n} is not invertible modulo {q}") from exc


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] with ascending p."""
    if n < 1:
        raise ValueError(f"cannot factor n={n}")
    out: list[tuple[int, int]] = []
    p, steps = 2, itertools.chain((1, 2), itertools.cycle((2, 4)))  # 2, 3, then 6k -/+ 1
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += next(steps)
    if n > 1:
        out.append((n, 1))
    return out


def divisor_count(n: int) -> int:
    """tau(n): the number of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisor count needs n >= 1, got {n}")
    tau = 1
    for _, e in factorize(n):
        tau *= e + 1
    return tau


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def floor_int(x: float) -> int:
    """floor(x) as an exact int; the 'n <= x' convention for real cutoffs."""
    return math.floor(x)


def floor_quotient(x: float, d: int | np.ndarray) -> int | np.ndarray:
    """Largest integer k with k*d <= x, exact for real x and int d >= 1;
    elementwise for an int64 array of d, when floor(x) is below 2^63.

    k*d is an integer, so k*d <= x exactly when k*d <= floor(x): the
    quotient is floor(floor(x) / d), taken in integers.
    """
    if np.any(np.asarray(d) < 1):
        raise ValueError(f"divisor must be positive, got {d}")
    return floor_int(x) // d


def fsum_complex(values: Iterable[complex]) -> complex:
    """Exactly compensated complex summation (fsum on both components)."""
    vs = list(values)
    return complex(math.fsum(v.real for v in vs), math.fsum(v.imag for v in vs))
