import random
from fractions import Fraction as F

import numpy as np
import pytest

from friable_sums.optimizer import (
    REGION_VERTICES,
    ExponentPoint,
    PeakRegime,
    RegionSet,
    TrivialRegimeError,
    eta,
    figure1_regions,
    kappa,
    optimal_omega,
    optimal_point,
    oracle_optimal_omega,
    region_grid_mismatches,
    saving_exponents,
    two_peaks_regime,
)
from friable_sums.sieve import ResourceLimitError


def eta_grid_min(omega, alpha, beta, step=1e-5):
    lo = min(max(omega, 0.0), 1.0)
    hi = min(max(omega + alpha, lo), 1.0)
    mus = np.linspace(lo, hi, max(2, int((hi - lo) / step) + 1))
    return float(eta(mus, beta).min())


def test_eta_hand_values():
    assert eta(0.0, 0.6) == 0.0
    assert eta(0.5, 0.75) == pytest.approx(0.0625)
    assert eta(0.75, 0.5) == pytest.approx(0.125)


def test_eta_domain_error():
    with pytest.raises(ValueError):
        eta(-0.1, 0.5)
    with pytest.raises(ValueError):
        eta(1.1, 0.5)


def test_eta_seam_uses_left_branch():
    beta = 0.6
    left = min(0.25, 0.5 - beta / 4 - 0.25)
    right = min(0.25 - beta / 4, 0.25)
    assert eta(0.5, beta) == pytest.approx(left)
    # the two branch values at the seam generally differ; both recorded here
    assert left != right or beta == 0.0


def test_eta_can_be_negative():
    # the left peak dips below zero once beta exceeds 1
    assert eta(0.5, 1.5) < 0
    assert eta(1.0, 0.8) == 0.0  # boundary value at mu = 1


def test_kappa_degenerate_window():
    for omega in (0.0, 0.3, 0.7):
        assert kappa(omega, 0.0, 0.6) == pytest.approx(eta(omega, 0.6))


def test_kappa_matches_grid_oracle():
    rng = random.Random(31)
    for _ in range(60):
        omega = rng.uniform(0.0, 0.9)
        alpha = rng.uniform(0.0, 1.0 - omega)
        beta = rng.uniform(0.0, 1.0)
        assert kappa(omega, alpha, beta) == pytest.approx(
            eta_grid_min(omega, alpha, beta), abs=1e-5
        )


def test_kappa_hand_case():
    got = kappa(0.1, 0.8, 0.75)
    assert got == pytest.approx(eta_grid_min(0.1, 0.8, 0.75), abs=1e-5)


def test_kappa_negative_when_window_hits_negative_eta():
    assert kappa(0.3, 0.5, 1.5) < 0  # window crosses the negative valley


def test_kappa_clamps_past_one():
    assert kappa(0.95, 0.5, 0.2) == pytest.approx(
        min(eta(0.95, 0.2), eta(1.0, 0.2)), abs=1e-12
    )


def test_optimal_omega_three_regimes():
    omega, kap = optimal_omega(0.5, 0.8)
    assert (omega, kap) == (pytest.approx(0.1), pytest.approx(0.05))
    omega, kap = optimal_omega(0.3, 0.75)
    assert (omega, kap) == (pytest.approx(0.1625), pytest.approx(0.08125))
    omega, kap = optimal_omega(0.75, 0.5)
    assert (omega, kap) == (pytest.approx(0.125), pytest.approx(0.0625))


def test_optimal_omega_kappa_consistency():
    rng = random.Random(32)
    for _ in range(300):
        alpha, beta = rng.random(), rng.random()
        omega, kap = optimal_omega(alpha, beta)
        assert kap == omega / 2.0
        assert abs(kappa(omega, alpha, beta) - kap) < 1e-12


def test_optimal_omega_beats_every_grid_point():
    rng = random.Random(33)
    for _ in range(40):
        alpha, beta = rng.random(), rng.random()
        _, kap = optimal_omega(alpha, beta)
        for omega in np.linspace(0, 1, 101):
            assert kap >= kappa(float(omega), alpha, beta) - 1e-9


def test_optimal_point_records_pinch_witness():
    rng = random.Random(39)
    for _ in range(100):
        pt = optimal_point(rng.random(), rng.random())
        assert isinstance(pt, ExponentPoint)
        assert pt.kappa == pt.omega / 2.0
        assert pt.omega <= pt.mu <= min(pt.omega + pt.alpha, 1.0) + 1e-15
        assert eta(pt.mu, pt.beta) == pytest.approx(pt.kappa, abs=1e-12)


def test_optimal_omega_large_modulus_branch():
    omega, kap = optimal_omega(0.2, 1.2)
    assert omega == pytest.approx(0.5 - 0.3 - 0.1)
    assert kap == pytest.approx(omega / 2)
    with pytest.raises(TrivialRegimeError):
        optimal_omega(0.5, 1.2)  # alpha >= 1 - beta/2
    with pytest.raises(ValueError):
        optimal_omega(0.5, 2.5)


def test_oracle_agrees_with_closed_form():
    rng = random.Random(34)
    for _ in range(150):
        alpha, beta = rng.random(), rng.random()
        omega, kap = optimal_omega(alpha, beta)
        o2, k2 = oracle_optimal_omega(alpha, beta, step=1e-3)
        assert abs(omega - o2) <= 2e-3
        assert abs(kap - k2) <= 1e-3


def test_oracle_degenerate_beta_zero():
    omega, kap = oracle_optimal_omega(0.4, 0.0, step=1e-3)
    assert omega == pytest.approx(0.3, abs=2e-3)  # symmetric under the tent
    assert kap == pytest.approx(0.15, abs=1e-3)


def test_oracle_alpha_one_covers_whole_domain():
    _, kap = oracle_optimal_omega(1.0, 0.4, step=1e-3)
    assert kap == pytest.approx(min(eta(0.0, 0.4), eta(1.0, 0.4)), abs=1e-3)


def test_oracle_step_validation():
    with pytest.raises(ValueError):
        oracle_optimal_omega(0.5, 0.5, step=0.01)


def test_regime_classification():
    assert two_peaks_regime(0.3, 0.75) is PeakRegime.INSIDE_ONE_PEAK
    assert two_peaks_regime(0.5, 0.8) is PeakRegime.UNDER_INTERSECTION
    assert two_peaks_regime(0.9, 0.5) is PeakRegime.EDGE_TO_EDGE
    with pytest.raises(ValueError):
        two_peaks_regime(0.5, 1.5)


def test_regime_matches_optimal_omega_case_split():
    rng = random.Random(35)
    for _ in range(200):
        alpha, beta = rng.random(), rng.random()
        regime = two_peaks_regime(alpha, beta)
        omega, _ = optimal_omega(alpha, beta)
        if regime is PeakRegime.INSIDE_ONE_PEAK:
            assert omega == 0.5 - beta / 4 - alpha / 2
        elif regime is PeakRegime.UNDER_INTERSECTION:
            assert omega == (1 - beta) / 2
        else:
            assert omega == (1 - alpha) / 2


# ---------------------------------------------------------------------------
# relevance regions
# ---------------------------------------------------------------------------

def test_region_vertex_sets_are_exact_rationals():
    regions = figure1_regions()
    assert regions.polygons["E1"] == (
        (F(0), F(0)),
        (F(1, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(1, 5), F(4, 5)),
        (F(0), F(2, 3)),
    )
    assert regions.polygons["E2"] == (
        (F(0), F(0)),
        (F(1), F(0)),
        (F(1), F(1)),
        (F(1, 2), F(1)),
        (F(1, 5), F(4, 5)),
        (F(1, 3), F(2, 3)),
        (F(1, 3), F(1, 3)),
    )
    assert regions.polygons["E3"] == (
        (F(1, 2), F(1)),
        (F(1), F(1)),
        (F(1), F(4, 3)),
        (F(1, 3), F(4, 3)),
    )
    assert regions.polygons["E4"] == (
        (F(0), F(2, 3)),
        (F(1, 2), F(1)),
        (F(0), F(2)),
    )


def test_region_vertices_sit_on_boundaries():
    regions = figure1_regions()
    for name, poly in regions.polygons.items():
        for a, b in poly:
            assert regions.on_boundary(name, a, b)
            assert regions.locate(a, b) is None  # vertices are never interior


def test_shared_vertex_one_fifth_four_fifths():
    regions = figure1_regions()
    assert regions.on_boundary("E1", F(1, 5), F(4, 5))
    assert regions.on_boundary("E2", F(1, 5), F(4, 5))


def test_beta_four_thirds_ceiling():
    regions = figure1_regions()
    quad = regions.polygons["E3"]
    top = [v for v in quad if v[1] == F(4, 3)]
    assert len(top) == 2  # the ceiling edge
    assert regions.on_boundary("E3", F(1, 2), F(4, 3))
    assert not regions.contains("E3", F(1, 2), F(3, 2))


def test_region_membership_samples():
    regions = figure1_regions()
    assert regions.locate(F(1, 6), F(1, 2)) == "E1"
    assert regions.locate(F(2, 3), F(1, 2)) == "E2"
    assert regions.locate(F(3, 4), F(23, 20)) == "E3"  # quad interior
    assert regions.locate(F(1, 5), F(6, 5)) == "E4"  # triangle interior
    assert regions.locate(F(9, 10), F(9, 5)) is None  # no envelope saves there


def test_regions_partition_without_overlap():
    regions = figure1_regions()
    rng = random.Random(36)
    for _ in range(4000):
        a = F(rng.randrange(0, 401), 400)
        b = F(rng.randrange(0, 801), 400)
        containing = regions.regions_containing(a, b)
        interior = [n for n in containing if not regions.on_boundary(n, a, b)]
        assert len(interior) <= 1  # interiors are disjoint


def test_region_grid_cross_check_is_clean():
    regions = RegionSet(polygons=dict(REGION_VERTICES))
    assert region_grid_mismatches(regions, eps_grid=0.005) == []


def test_saving_exponent_signs_at_reference_points():
    # quad interior: only the fourth envelope saves
    exps = saving_exponents(0.7, 1.2)
    assert exps["E4"] < 0 and exps["E1"] >= 0 and exps["E2"] >= 0 and exps["E3"] >= 0
    # triangle interior: the third envelope saves and beats the others
    exps = saving_exponents(0.2, 1.2)
    assert exps["E3"] < 0
    # pentagon interior: the first envelope is the strongest
    exps = saving_exponents(1 / 6, 0.5)
    assert exps["E1"] < min(exps["E2"], exps["E3"]) < 0


def test_figure1_regions_validates_grid_argument():
    with pytest.raises(ValueError):
        figure1_regions(eps_grid=0.1)


def test_region_lattice_past_its_point_budget_is_refused_before_allocating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the lattice was allocated before its size was checked")

    monkeypatch.setattr(np, "linspace", fail)
    regions = RegionSet(polygons=dict(REGION_VERTICES))
    # 2,000,001 x 1,000,001 points at 1e-6; the 5e-4 lattice (8.0M) still runs
    for call in (lambda: figure1_regions(eps_grid=1e-6),
                 lambda: region_grid_mismatches(regions, eps_grid=4.8e-4)):
        with pytest.raises(ResourceLimitError, match="point budget"):
            call()


def test_e1_region_is_strict_power_saving_and_best():
    regions = figure1_regions()
    rng = random.Random(37)
    tested = 0
    while tested < 500:
        a = F(rng.randrange(0, 400), 1200)
        b = F(rng.randrange(0, 1000), 1200)
        if regions.locate(a, b) != "E1":
            continue
        exps = saving_exponents(float(a), float(b))
        assert exps["E1"] < 0  # saving factor strictly below 1
        assert exps["E1"] <= min(exps["E2"], exps["E3"]) + 1e-12
        tested += 1


def assembled_e3_exponent(alpha, beta):
    """Saving exponent max(-beta/4, omega - 1, -kappa) assembled from the
    optimal window placement.
    """
    omega, kap = optimal_omega(alpha, beta)
    return max(-beta / 4.0, omega - 1.0, -kap)


def test_assembly_matches_third_envelope_exponent():
    rng = random.Random(38)
    checked = 0
    while checked < 1000:
        alpha = rng.random()
        beta = rng.uniform(0.0, 2.0)
        if beta > 1.0 and alpha >= 1.0 - beta / 2.0:
            continue  # no nontrivial window placement there
        assembled = assembled_e3_exponent(alpha, beta)
        direct = saving_exponents(alpha, beta)["E3"]
        assert abs(assembled - direct) < 1e-12
        checked += 1


def written_out_saving_exponents(alpha, beta):
    """The four leading exponents, each written out by hand."""
    e1 = np.maximum.reduce([-(1 - alpha) / 4, -beta / 2, -(1 - beta) / 2])
    e2 = np.maximum.reduce([-alpha / 2, beta / 8 - 0.25, -beta / 2, -(1 - beta) / 2])
    e3 = np.maximum.reduce(
        [np.minimum((beta - 1) / 4, (alpha - 1) / 4 + beta / 8), -beta / 4, (alpha - 1) / 4]
    )
    e4 = np.maximum(-beta / 4, 0.75 * beta - 1)
    return {"E1": e1, "E2": e2, "E3": e3, "E4": e4}


def test_saving_exponents_equal_written_out_formulas():
    a, b = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 2.0, 401))
    rng = np.random.default_rng(40)
    ra, rb = rng.random(5000), 2.0 * rng.random(5000)
    for alpha, beta in ((a, b), (ra, rb)):
        got = saving_exponents(alpha, beta)
        want = written_out_saving_exponents(alpha, beta)
        for name in ("E1", "E2", "E3", "E4"):
            assert np.array_equal(got[name], want[name]), name
    for alpha, beta in zip(ra[:200].tolist(), rb[:200].tolist()):
        assert saving_exponents(alpha, beta) == written_out_saving_exponents(alpha, beta)


def test_eta_takes_arrays_elementwise():
    rng = random.Random(41)
    mus = np.array([rng.random() for _ in range(300)] + [0.0, 0.5, 1.0])
    for beta in (0.0, 0.6, 1.5):
        assert [eta(m, beta) for m in mus.tolist()] == eta(mus, beta).tolist()
    with pytest.raises(ValueError):
        eta(np.array([0.2, 1.1]), 0.5)
