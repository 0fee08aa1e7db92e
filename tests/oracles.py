"""Plain oracles shared by several test modules."""

from typing import Iterable


def divisors_from(fac: Iterable[tuple[int, int]]) -> list[int]:
    """All divisors of the integer factored as [(p, e), ...], unsorted."""
    ds = [1]
    for p, e in fac:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return ds
