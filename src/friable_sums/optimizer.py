"""Exponent calculus on the (alpha, beta) plane.

Works with normalized exponents y = x^alpha, q = x^beta, w = x^omega,
M = x^mu.  Provides the two-peak saving profile eta(mu), the windowed
minimum kappa, the closed-form optimal window placement with its grid
oracle, the three placement regimes, and the exact rational polygons of
the bound-relevance chart together with saving-exponent utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bounds import _exponent
from .sieve import ResourceLimitError

Rational = Union[Fraction, int]
Point = tuple[Fraction, Fraction]
# the most points region_grid_mismatches' lattice may have; its 8.0M-point
# lattice at eps_grid 5e-4 takes about 770 MiB
LATTICE_POINTS = 1 << 23


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
    if step > 1e-3:
        raise ValueError(f"oracle step must be <= 1e-3, got {step}")
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
    (overlaps only along shared edges).
    """

    polygons: dict[str, tuple[Point, ...]]

    def names(self) -> list[str]:
        return list(self.polygons)

    def contains(self, name: str, alpha: Rational, beta: Rational) -> bool:
        """Point in the closed polygon `name` (boundary included); exact."""
        pt = (Fraction(alpha), Fraction(beta))
        poly = self.polygons[name]
        return _on_polygon_boundary(poly, pt) or _strictly_inside(poly, pt)

    def on_boundary(self, name: str, alpha: Rational, beta: Rational) -> bool:
        return _on_polygon_boundary(self.polygons[name], (Fraction(alpha), Fraction(beta)))

    def locate(self, alpha: Rational, beta: Rational) -> Optional[str]:
        """Name of the polygon strictly containing the point, else None."""
        pt = (Fraction(alpha), Fraction(beta))
        for name, poly in self.polygons.items():
            if not _on_polygon_boundary(poly, pt) and _strictly_inside(poly, pt):
                return name
        return None

    def regions_containing(self, alpha: Rational, beta: Rational) -> list[str]:
        return [n for n in self.polygons if self.contains(n, alpha, beta)]


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    (ax, ay), (bx, by), (px, py) = a, b, p
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross != 0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _on_polygon_boundary(poly: tuple[Point, ...], p: Point) -> bool:
    return any(_on_segment(poly[i], poly[(i + 1) % len(poly)], p) for i in range(len(poly)))


def _strictly_inside(poly: tuple[Point, ...], p: Point) -> bool:
    """Even-odd rule with exact rational arithmetic (p not on the boundary)."""
    px, py = p
    inside = False
    for i in range(len(poly)):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
    return inside


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


def _float_poly(poly: tuple[Point, ...]) -> np.ndarray:
    return np.array([[float(a), float(b)] for a, b in poly])


def _even_odd_mask(poly: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    inside = np.zeros(a.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        crosses = (ay > b) != (by > b)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = ax + (b - ay) * (bx - ax) / np.where(by != ay, by - ay, 1.0)
        inside ^= crosses & (a < x_cross)
    return inside


def _near_edges(poly: np.ndarray, a: np.ndarray, b: np.ndarray, margin: float) -> np.ndarray:
    near = np.zeros(a.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        norm2 = dx * dx + dy * dy
        t = np.clip(((a - ax) * dx + (b - ay) * dy) / norm2, 0.0, 1.0)
        dist2 = (a - (ax + t * dx)) ** 2 + (b - (ay + t * dy)) ** 2
        near |= dist2 <= margin * margin
    return near


def region_grid_mismatches(
    regions: RegionSet, eps_grid: float = 0.01, margin: float = 1e-9
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

    Grid points within `margin` of any polygon edge are skipped; panels
    claim nothing on their shared boundaries.  A lattice of more than
    LATTICE_POINTS points is refused with ResourceLimitError before
    anything is allocated.
    """
    n_a = int(round(1 / eps_grid))
    n_b = int(round(2 / eps_grid))
    points = (n_a + 1) * (n_b + 1)
    if points > LATTICE_POINTS:
        raise ResourceLimitError(
            f"a lattice of step {eps_grid} has {points} points, past the "
            f"{LATTICE_POINTS}-point budget")
    av = np.linspace(0.0, 1.0, n_a + 1)
    bv = np.linspace(0.0, 2.0, n_b + 1)
    a, b = (g.ravel() for g in np.meshgrid(av, bv))
    polys = {name: _float_poly(p) for name, p in regions.polygons.items()}
    near = np.zeros(a.shape, dtype=bool)
    for poly in polys.values():
        near |= _near_edges(poly, a, b, margin)

    tol = 1e-12
    e1, e2, e3, e4 = saving_exponents(a, b).values()
    ok_by_name = {
        "E1": (e1 < tol) & (e1 <= np.minimum(e2, e3) + tol),
        "E2": (e2 < tol) & (e2 <= np.minimum(e1, e3) + tol),
        "E3": (e4 < tol) & (e1 >= -tol) & (e2 >= -tol) & (e3 >= -tol),
        "E4": (e3 < tol) & (e3 <= np.minimum(e1, e2) + tol),
    }
    bad: list[tuple[float, float, str]] = []
    for name, poly in polys.items():
        inside = _even_odd_mask(poly, a, b) & ~near
        wrong = inside & ~ok_by_name[name]
        for i in np.nonzero(wrong)[0]:
            bad.append((float(a[i]), float(b[i]), f"saving pattern breaks panel {name}"))
    return bad

