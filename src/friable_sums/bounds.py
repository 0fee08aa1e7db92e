"""Bound envelopes for the smooth exponential sums, and empirical ratio
reports comparing exact |S| against each envelope.

Every envelope is the bracketed saving factor multiplying x; the
unknowable x^{o(1)} prefactor is deliberately reported as x, so all
asymptotic constants land in the ratio |S| / (x * envelope) and are never
asserted against.  Each envelope is written once, as a table of terms
whose monomials x^a y^b q^c are kept as exponents (a, b, c): the float
envelopes here and the leading exponents that
`optimizer.saving_exponents` reports on the (alpha, beta) plane both read
that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sieve import DEFAULT_SEGMENT
from .sums import SumParams, SumValue, sum_power, sum_theta

ENVELOPE_NAMES = ("FT_rat", "FT_real", "THM1", "E1", "E2", "E3", "E4", "COR12")


@dataclass(frozen=True)
class LFactor:
    """Rational-approximation penalty 1 + x * |theta - a/q| >= 1."""

    theta: float
    a: int
    q: int
    value: float


def l_factor(x: float, theta: float, a: int, q: int) -> LFactor:
    if q < 1:
        raise ValueError(f"modulus must be positive, got q={q}")
    value = 1.0 + x * abs(theta - a / q)
    return LFactor(theta=theta, a=a, q=q, value=value)


# Each envelope's bracketed saving factor is a sum of terms, and each term is
# the least of its monomials x^a y^b q^c, written (a, b, c).  E4 is written
# with eps = 0 and without its outer power delta.
_TERMS: dict[str, tuple[tuple[tuple[float, float, float], ...], ...]] = {
    "FT": (((-0.25, 0.5, 0),), ((0, 0, -0.5),), ((-0.5, 0.5, 0.5),)),
    "THM1": (((-0.2, 0, 0), (-0.25, 0.25, 0)), ((0, 0, -0.5),), ((-0.5, 0, 0.5),)),
    "E1": (((-0.25, 0.25, 0),), ((0, 0, -0.5),), ((-0.5, 0, 0.5),)),
    "E2": (((0, -0.5, 0),), ((-0.25, 0, 0.125),), ((0, 0, -0.5),), ((-0.5, 0, 0.5),)),
    "E3": (((-0.25, 0, 0.25), (-0.25, 0.25, 0.125)), ((0, 0, -0.25),), ((-0.25, 0.25, 0),)),
    "E4": (((0, 0, -0.25),), ((-1.0, 0, 0.75),)),
}


def _term_values(name: str, x: float, y: float, q: int) -> list[float]:
    return [min(x**a * y**b * q**c for a, b, c in term) for term in _TERMS[name]]


def _exponent(
    name: str, alpha: float | np.ndarray, beta: float | np.ndarray
) -> float | np.ndarray:
    """Leading exponent in x of the envelope `name` at y = x^alpha, q =
    x^beta: the largest over its terms of the least monomial exponent.
    """
    return np.maximum.reduce([np.minimum.reduce([a + b * alpha + c * beta for a, b, c in term])
                              for term in _TERMS[name]])


def envelope_ft(x: float, y: float, q: int) -> float:
    """x^{-1/4} y^{1/2} + q^{-1/2} + (q y / x)^{1/2}."""
    return sum(_term_values("FT", x, y, q))


def envelope_thm1(x: float, y: float, q: int) -> float:
    """min(x^{-1/5}, (x/y)^{-1/4}) + q^{-1/2} + (q/x)^{1/2}."""
    return sum(_term_values("THM1", x, y, q))


def envelope_e(
    i: int, x: float, y: float, q: int, eps: float = 0.01, delta: float = 0.05
) -> float:
    """The i-th monomial-sum envelope, i in {1, 2, 3, 4}:

    E1 = (x/y)^{-1/4} + q^{-1/2} + (x/q)^{-1/2},
    E2 = y^{-1/2} + x^{-1/4} q^{1/8} + q^{-1/2} + (x/q)^{-1/2},
    E3 = min((x/q)^{-1/4}, (x/y)^{-1/4} q^{1/8}) + q^{-1/4} + (x/y)^{-1/4},
    E4 = (q^{-1/4} + q^{3/4+eps} x^{-1})^delta.

    eps and delta only enter E4; the defaults are conventions, not derived
    values.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"envelope index must be 1..4, got {i}")
    terms = _term_values(f"E{i}", x, y, q)
    if i < 4:
        return sum(terms)
    if not 0 < eps < np.inf or not 0 < delta <= 1:
        raise ValueError(f"E4 needs a finite eps > 0 and delta in (0, 1], got {eps}, {delta}")
    return (terms[0] + terms[1] * q**eps) ** delta


def nontrivial_range_cor14(x: float, y: float, eps: float) -> tuple[float, float]:
    """The modulus window [x^eps, max(x^{4/3-eps}, x^{2-eps} / y^2)] on which
    the monomial-sum bounds give a power saving.
    """
    if not 0 < eps < 1 / 3:
        raise ValueError(f"eps must lie in (0, 1/3), got {eps}")
    return x**eps, max(x ** (4 / 3 - eps), x ** (2 - eps) / y**2)


@dataclass(frozen=True)
class BoundReport:
    """Exact |S| against every envelope, with ratios |S| / (x * envelope)."""

    params: SumParams
    exact: SumValue
    psi: int
    envelopes: dict[str, float]
    ratios: dict[str, float]
    trivial: dict[str, bool]

    @property
    def exact_abs(self) -> float:
        return self.exact.abs


def report(
    p: SumParams,
    eps: float = 0.01,
    delta: float = 0.05,
    *,
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
) -> BoundReport:
    """Evaluate the sum for `p` exactly and fill every envelope and ratio.

    With theta set the sum is the real-frequency one and the two L-scaled
    envelopes pick up the 1 + x|theta - a/q| penalty; otherwise L = 1.
    """
    if not (p.x > 0 and p.y > 0):
        raise ValueError(f"envelopes need x > 0 and y > 0, got x={p.x}, y={p.y}")
    exact_sum = sum_power if p.theta is None else sum_theta
    return _with_envelopes(p, exact_sum(p, segment=segment, threads=threads), eps, delta)


def _with_envelopes(p: SumParams, exact: SumValue, eps: float, delta: float) -> BoundReport:
    """The report of `p` around its exact sum: every envelope and ratio."""
    lf = 1.0 if p.theta is None else l_factor(p.x, p.theta, p.a, p.q).value
    x, y, q = p.x, p.y, p.q
    ft = envelope_ft(x, y, q)
    thm1 = envelope_thm1(x, y, q)
    envelopes = {
        "FT_rat": ft,
        "FT_real": ft * lf,
        "THM1": thm1,
        "E1": envelope_e(1, x, y, q),
        "E2": envelope_e(2, x, y, q),
        "E3": envelope_e(3, x, y, q),
        "E4": envelope_e(4, x, y, q, eps, delta),
        "COR12": thm1 * lf,
    }
    ratios = {name: exact.abs / (x * env) for name, env in envelopes.items()}
    trivial = {name: env >= 1.0 for name, env in envelopes.items()}
    return BoundReport(
        params=p,
        exact=exact,
        psi=exact.terms,
        envelopes=envelopes,
        ratios=ratios,
        trivial=trivial,
    )
