"""Exponent calculus on the (alpha, beta) plane.

Works with normalized exponents y = x^alpha, q = x^beta, w = x^omega,
M = x^mu.  Provides the two-peak saving profile eta(mu), the windowed
minimum kappa, the closed-form optimal window placement with its grid
oracle, the three placement regimes, and the exact rational polygons of
the bound-relevance chart together with saving-exponent utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bounds import _exponent
from .sieve import LATTICE_POINTS, _check_budget

Rational = Union[Fraction, int]
Point = tuple[Fraction, Fraction]


class TrivialRegimeError(ValueError):
    """The requested exponent point admits no nontrivial window placement."""


def eta(mu: float, beta: float) -> float:
    """Piecewise-linear saving profile: two symmetric peaks over [0, 1].

    min(mu/2, 1/2 - beta/4 - mu/2) on [0, 1/2], and
    min(mu/2 - beta/4, 1/2 - mu/2) on (1/2, 1].  May be negative.  mu may be
    a float or a numpy array; eta is then a numpy float or an array of
    mu's shape.
    """
    mu = np.asarray(mu)
    if not np.all((0.0 <= mu) & (mu <= 1.0)):
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    left = np.minimum(mu / 2.0, 0.5 - beta / 4.0 - mu / 2.0)
    right = np.minimum(mu / 2.0 - beta / 4.0, 0.5 - mu / 2.0)
    return np.where(mu <= 0.5, left, right)[()]


def _window_points(omega: float | np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """The ends of the window [omega, omega + alpha], clamped to [0, 1], and
    each breakpoint of eta that lies inside it (the window start in its
    place otherwise), stacked along a new first axis: eta is piecewise
    linear, so its minimum over the window sits at one of them.  omega may
    be a float or a numpy array.
    """
    lo = np.clip(omega, 0.0, 1.0)
    hi = np.clip(omega + alpha, lo, 1.0)
    breaks = (0.5 - beta / 4.0, 0.5, 0.5 + beta / 4.0)
    inner = [np.where((lo < b) & (b < hi), b, lo) for b in breaks]
    return np.array([lo, hi] + inner)


def kappa(omega: float, alpha: float, beta: float) -> float:
    """min of eta over the window [omega, omega + alpha], clamped to [0, 1];
    no grid is needed.
    """
    return float(eta(_window_points(omega, alpha, beta), beta).min())


def optimal_omega(alpha: float, beta: float) -> tuple[float, float]:
    """Closed-form window start omega maximizing kappa, with kappa = omega/2.

    For beta <= 1 the three regimes are those of `two_peaks_regime`:
    alpha < beta/2, beta/2 <= alpha < beta, and beta <= alpha.  For
    1 < beta <= 2 only alpha < 1 - beta/2 admits a nontrivial placement;
    otherwise TrivialRegimeError is raised.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 2.0:
        raise ValueError(f"beta must lie in [0, 2], got {beta}")
    if beta > 1.0 and alpha >= 1.0 - beta / 2.0:
        raise TrivialRegimeError(
            f"no power saving at alpha={alpha}, beta={beta}: window placement is vacuous"
        )
    regime = two_peaks_regime(alpha, beta) if beta <= 1.0 else None
    if regime is PeakRegime.UNDER_INTERSECTION:
        omega = (1.0 - beta) / 2.0
    elif regime is PeakRegime.EDGE_TO_EDGE:
        omega = (1.0 - alpha) / 2.0
    else:  # inside one peak, or the nontrivial part of 1 < beta <= 2
        omega = 0.5 - beta / 4.0 - alpha / 2.0
    return omega, omega / 2.0


@dataclass(frozen=True)
class ExponentPoint:
    """Normalized exponents at an optimal window placement.

    alpha, beta locate the problem (y = x^alpha, q = x^beta); omega is the
    chosen window start (w = x^omega), mu a window point attaining the
    minimum of eta, and kappa that minimum, always omega/2 here.
    """

    alpha: float
    beta: float
    omega: float
    mu: float
    kappa: float


def optimal_point(alpha: float, beta: float) -> ExponentPoint:
    """Bundle optimal_omega's placement with a witness mu attaining kappa."""
    omega, kap = optimal_omega(alpha, beta)
    points = _window_points(omega, alpha, beta)
    mu = float(points[np.argmin(eta(points, beta))])
    return ExponentPoint(alpha=alpha, beta=beta, omega=omega, mu=mu, kappa=kap)


def oracle_optimal_omega(alpha: float, beta: float, step: float = 1e-4) -> tuple[float, float]:
    """Brute-force window placement: maximize kappa over an omega grid on
    [0, 1].

    The height profile has flat stretches and symmetric tied optima, and the
    canonical choice is always the smallest admissible window start; so the
    oracle returns the smallest grid omega whose kappa lies within step/4
    (which covers the grid's sampling error) of the grid maximum.
    """
    if not 0 < step <= 1e-3:
        raise ValueError(f"oracle step must be in (0, 1e-3], got {step}")
    _check_budget(5 * (int(1 / step) + 1), "an oracle omega grid")
    omegas = np.arange(0.0, 1.0 + step / 2, step)
    kappas = eta(_window_points(omegas, alpha, beta), beta).min(axis=0)
    best = int(np.argmax(kappas >= np.max(kappas) - step / 4.0))
    return float(omegas[best]), float(kappas[best])


class PeakRegime(str, Enum):
    INSIDE_ONE_PEAK = "inside-one-peak"
    UNDER_INTERSECTION = "under-intersection"
    EDGE_TO_EDGE = "edge-to-edge"


def two_peaks_regime(alpha: float, beta: float) -> PeakRegime:
    """Classify how the optimal window sits against the two peaks of eta:
    inside one peak, under the peaks' crossing, or stretched edge to edge.
    """
    if beta > 1.0:
        raise ValueError(f"regime classification needs beta <= 1, got {beta}")
    if alpha < beta / 2.0:
        return PeakRegime.INSIDE_ONE_PEAK
    if alpha < beta:
        return PeakRegime.UNDER_INTERSECTION
    return PeakRegime.EDGE_TO_EDGE


# ---------------------------------------------------------------------------
# relevance chart in the (alpha, beta) plane
# ---------------------------------------------------------------------------

F = Fraction

# The four panels of the relevance chart, drawn in vertex order.  Keys are
# the conventional envelope labels used throughout the bound reports.
REGION_VERTICES: dict[str, tuple[Point, ...]] = {
    "E1": (
        (F(0), F(0)),
        (F(1, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(1, 5), F(4, 5)),
        (F(0), F(2, 3)),
    ),
    "E2": (
        (F(0), F(0)),
        (F(1), F(0)),
        (F(1), F(1)),
        (F(1, 2), F(1)),
        (F(1, 5), F(4, 5)),
        (F(1, 3), F(2, 3)),
        (F(1, 3), F(1, 3)),
    ),
    "E3": (
        (F(1, 2), F(1)),
        (F(1), F(1)),
        (F(1), F(4, 3)),
        (F(1, 3), F(4, 3)),
    ),
    "E4": (
        (F(0), F(2, 3)),
        (F(1, 2), F(1)),
        (F(0), F(2)),
    ),
}


@dataclass(frozen=True)
class RegionSet:
    """Simple polygons, keyed by envelope label, partitioning the chart
    (overlaps only along shared edges).  Every query is exact.
    """

    polygons: dict[str, tuple[Point, ...]]

    def _place(self, name: str, alpha: Rational, beta: Rational) -> tuple[bool, bool]:
        a, b = Fraction(alpha), Fraction(beta)
        poly = self.polygons[name]
        d = math.lcm(a.denominator, b.denominator, *(c.denominator for v in poly for c in v))
        return _classify(poly, d, int(a * d), int(b * d))

    def contains(self, name: str, alpha: Rational, beta: Rational) -> bool:
        """Point in the closed polygon `name` (boundary included)."""
        return any(self._place(name, alpha, beta))

    def on_boundary(self, name: str, alpha: Rational, beta: Rational) -> bool:
        return self._place(name, alpha, beta)[0]

    def locate(self, alpha: Rational, beta: Rational) -> Optional[str]:
        """Name of the polygon strictly containing the point, else None."""
        return next((n for n in self.polygons if self._place(n, alpha, beta)[1]), None)

    def regions_containing(self, alpha: Rational, beta: Rational) -> list[str]:
        return [n for n in self.polygons if self.contains(n, alpha, beta)]


def _classify(poly: tuple[Point, ...], d: int, X: int | np.ndarray, Y: int | np.ndarray):
    """(on an edge, strictly inside) for the points (X/d, Y/d) of the
    polygon, by the signs of integer cross products: exact wherever they
    fit their integer type.  X and Y are ints, or int arrays that broadcast
    together; d is a multiple of every vertex denominator.
    """
    on = inside = False
    corners = [(int(a * d), int(b * d)) for a, b in poly]
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        cross = (bx - ax) * (Y - ay) - (by - ay) * (X - ax)  # > 0: the point is left of a -> b
        on = on | ((cross == 0) & (min(ax, bx) <= X) & (X <= max(ax, bx))
                   & (min(ay, by) <= Y) & (Y <= max(ay, by)))
        # even-odd rule: a ray to the right of the point crosses this edge
        inside = inside ^ (((ay > Y) != (by > Y)) & ((cross > 0) if by > ay else (cross < 0)))
    return on, inside > on  # inside and not on an edge


def figure1_regions(eps_grid: float = 0.01) -> RegionSet:
    """The exact rational relevance-region polygons, cross-checked against a
    saving-exponent classification on an eps_grid lattice.
    """
    if not 0 < eps_grid <= 0.01:
        raise ValueError(f"grid resolution must lie in (0, 0.01], got {eps_grid}")
    regions = RegionSet(polygons=dict(REGION_VERTICES))
    mismatches = region_grid_mismatches(regions, eps_grid=eps_grid)
    if mismatches:
        a, b, why = mismatches[0]
        raise RuntimeError(f"region chart inconsistent at ({a}, {b}): {why}")
    return regions


def saving_exponents(
    alpha: float | np.ndarray, beta: float | np.ndarray
) -> dict[str, float | np.ndarray]:
    """Leading exponent (in x) of each envelope's bracketed saving factor,
    read from the table of terms in `bounds` that the float envelopes read
    too; negative means a power saving.  The fourth envelope carries a
    free positive power delta, which scales but never flips these signs; it
    is reported here with delta = 1 and eps = 0.

    alpha and beta may be floats or numpy arrays of one shape; the
    exponents are then numpy floats or arrays of that shape.
    """
    return {name: _exponent(name, alpha, beta) for name in ("E1", "E2", "E3", "E4")}


def _panel_patterns(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Where each panel's saving pattern holds, at the points (a, b); the
    exponents are freed on return, before the integer lattice is built."""
    tol = 1e-12
    e1, e2, e3, e4 = saving_exponents(a, b).values()
    return {
        "E1": (e1 < tol) & (e1 <= np.minimum(e2, e3) + tol),
        "E2": (e2 < tol) & (e2 <= np.minimum(e1, e3) + tol),
        "E3": (e4 < tol) & (e1 >= -tol) & (e2 >= -tol) & (e3 >= -tol),
        "E4": (e3 < tol) & (e3 <= np.minimum(e1, e2) + tol),
    }


def region_grid_mismatches(
    regions: RegionSet, eps_grid: float = 0.01
) -> list[tuple[float, float, str]]:
    """Scan a lattice over [0,1] x [0,2] and report any interior point whose
    saving-exponent pattern contradicts its panel:

    - E1 panel: first envelope saves and is at least as strong as the
      second and third;
    - E2 panel: second envelope saves and is at least as strong as the
      first and third;
    - E3 panel: only the fourth envelope saves (the quadrilateral between
      beta = 1 and the beta = 4/3 ceiling);
    - E4 panel: third envelope saves and beats the first and second (the
      triangle reaching up to beta = 2).

    Each lattice point (i/n_a, 2j/n_b) is placed against the polygons
    exactly, and points on any polygon edge are skipped: panels claim
    nothing on their shared boundaries.  The exponents are read at the
    float lattice of np.linspace.  A lattice of more than LATTICE_POINTS
    points is refused with ResourceLimitError, and a step of 2 or more, or
    one whose cross products could pass int64, with ValueError, before
    anything is allocated.
    """
    n_a = int(round(1 / eps_grid))
    n_b = int(round(2 / eps_grid))
    if n_a < 1:  # no lattice step i/n_a: a = 0 alone
        raise ValueError(f"grid step must be below 2, got {eps_grid}")
    points = (n_a + 1) * (n_b + 1)
    _check_budget(points, f"a lattice of step {eps_grid}", LATTICE_POINTS, "point")
    polys = regions.polygons
    coords = [c for poly in polys.values() for v in poly for c in v]
    d = math.lcm(n_a, n_b, *(c.denominator for c in coords))
    reach = max([2 * d] + [abs(c) * d for c in coords])
    if 8 * reach * reach >= 1 << 63:  # |cross| <= 2 * (2 reach)^2
        raise ValueError(f"a lattice of step {eps_grid} against these polygons passes int64")
    av = np.linspace(0.0, 1.0, n_a + 1)
    bv = np.linspace(0.0, 2.0, n_b + 1)
    ok_by_name = _panel_patterns(*np.meshgrid(av, bv))
    X = np.arange(n_a + 1, dtype=np.int64) * (d // n_a)
    Y = np.arange(n_b + 1, dtype=np.int64)[:, None] * (2 * d // n_b)
    classified = {name: _classify(poly, d, X, Y) for name, poly in polys.items()}
    on_edge = np.logical_or.reduce([on for on, _ in classified.values()])
    bad: list[tuple[float, float, str]] = []
    for name, (_, inside) in classified.items():
        for j, i in zip(*np.nonzero(inside & ~on_edge & ~ok_by_name[name])):
            bad.append((float(av[i]), float(bv[j]), f"saving pattern breaks panel {name}"))
    return bad
