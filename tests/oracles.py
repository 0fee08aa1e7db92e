"""Plain oracles shared by several test modules."""

import math
from fractions import Fraction
from typing import Iterable, Sequence


def trial_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def trial_largest_prime_factor(n: int) -> int:
    """P(n) by trial division, P(1) = 1."""
    return max(trial_factors(n), default=1)


def naive_smooth(x: float, y: float) -> list[int]:
    """The n <= x with P(n) <= y, each by trial division."""
    return [n for n in range(1, math.floor(x) + 1) if trial_largest_prime_factor(n) <= y]


def divisors_from(fac: Iterable[tuple[int, int]]) -> list[int]:
    """All divisors of the integer factored as [(p, e), ...], unsorted."""
    ds = [1]
    for p, e in fac:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return ds


def point_in_polygon(poly: Sequence[tuple], p: tuple) -> tuple[bool, bool]:
    """(on an edge, strictly inside) for the point p of the simple polygon
    `poly`, a sequence of (x, y) vertices, in Fraction arithmetic alone.

    p is on an edge when it is collinear with the edge and projects onto
    it, and strictly inside when it is on no edge and the edges wind
    around it (Sunday's winding number, not the even-odd rule).
    """
    px, py = Fraction(p[0]), Fraction(p[1])
    on, winding = False, 0
    for k in range(len(poly)):
        (ax, ay), (bx, by) = poly[k - 1], poly[k]
        ex, ey, wx, wy = bx - ax, by - ay, px - ax, py - ay
        side = ex * wy - ey * wx  # > 0: p lies left of a -> b
        if side == 0 and 0 <= ex * wx + ey * wy <= ex * ex + ey * ey:
            on = True
        if ay <= py < by and side > 0:
            winding += 1
        elif by <= py < ay and side < 0:
            winding -= 1
    return on, winding != 0 and not on
