import math
import random
from unittest import mock

import numpy as np
import pytest

from friable_sums import bounds
from friable_sums.bounds import (
    ENVELOPE_NAMES,
    envelope_e,
    envelope_ft,
    envelope_thm1,
    l_factor,
    nontrivial_range_cor14,
    report,
)
from friable_sums.optimizer import saving_exponents
from friable_sums.sums import SumParams


def test_envelope_ft_hand_arithmetic():
    # powers of ten: 1e-2 * 10 + 1e-1.5 + sqrt(1e3 * 1e2 / 1e8)
    v = envelope_ft(1e8, 1e2, 10**3)
    expected = 0.1 + 10**-1.5 + math.sqrt(10**-3)
    assert v == pytest.approx(expected, rel=1e-12)


def test_envelope_ft_trivial_at_sqrt_y():
    x = 1e8
    assert envelope_ft(x, math.sqrt(x), 1) >= 1.0


def test_envelope_ft_third_term_marks_range_edge():
    # at x = q^1.01 * y the (qy/x)^(1/2) term is q^(-0.005): barely below 1
    q, y = 10**4, 10.0
    x = q**1.01 * y
    third = math.sqrt(q * y / x)
    assert third == pytest.approx(q**-0.005, rel=1e-9)
    assert envelope_ft(x, y, q) > 0.9


def test_envelope_thm1_crossover_at_fifth_root():
    x = 1e10
    y = x**0.2
    assert min(x**-0.2, (x / y) ** -0.25) == pytest.approx(x**-0.2, rel=1e-12)
    v = envelope_thm1(x, y, 10**4)
    assert v == pytest.approx(1e-2 + 1e-2 + 1e-3, rel=1e-9)


def test_envelope_thm1_trivial_when_q_exceeds_x():
    assert envelope_thm1(1e6, 100, 10**7) > 1.0


def written_out_envelopes(x, y, q, eps=0.01, delta=0.05):
    """FT, THM1 and E1-E4, each written out by hand."""
    return {
        "FT": x**-0.25 * math.sqrt(y) + q**-0.5 + math.sqrt(q * y / x),
        "THM1": min(x**-0.2, (x / y) ** -0.25) + q**-0.5 + math.sqrt(q / x),
        "E1": (x / y) ** -0.25 + q**-0.5 + (x / q) ** -0.5,
        "E2": y**-0.5 + x**-0.25 * q**0.125 + q**-0.5 + (x / q) ** -0.5,
        "E3": min((x / q) ** -0.25, (x / y) ** -0.25 * q**0.125) + q**-0.25 + (x / y) ** -0.25,
        "E4": (q**-0.25 + q ** (0.75 + eps) / x) ** delta,
    }


def random_cells(seed, count):
    """(x, y, q) log-uniform over 10^2 <= x <= 10^14, 2 <= y <= x, 1 <= q <= x^2."""
    rng = random.Random(seed)
    for _ in range(count):
        x = 10 ** rng.uniform(2, 14)
        y = 10 ** rng.uniform(math.log10(2), math.log10(x))
        yield x, y, max(1, int(10 ** rng.uniform(0, 2 * math.log10(x))))


def test_envelope_e_formulas():
    for x, y, q in [(1e8, 1e3, 10**5), *random_cells(42, 3000)]:
        want = written_out_envelopes(x, y, q)
        got = {
            "FT": envelope_ft(x, y, q),
            "THM1": envelope_thm1(x, y, q),
            **{f"E{i}": envelope_e(i, x, y, q) for i in (1, 2, 3, 4)},
        }
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-15, abs=0), (name, x, y, q)


def test_envelope_e4_reads_eps_and_delta():
    # q^(3/4 + eps) is rounded once by hand and as q^(3/4) q^eps here, which
    # differ by up to |log q| ulps before the power delta shrinks them
    rng = random.Random(43)
    for x, y, q in random_cells(44, 1000):
        eps, delta = rng.uniform(1e-3, 0.3), rng.uniform(0.01, 1.0)
        want = written_out_envelopes(x, y, q, eps, delta)["E4"]
        assert envelope_e(4, x, y, q, eps, delta) == pytest.approx(want, rel=1e-13, abs=0)


def test_envelope_e1_matches_thm1_without_fifth_root_branch():
    # wherever (x/y)^(-1/4) >= x^(-1/5), the first envelope equals the
    # combined one up to replacing min(...) by its second argument
    x, y, q = 1e10, 1e9, 10**4
    assert (x / y) ** -0.25 >= x**-0.2
    assert envelope_e(1, x, y, q) == pytest.approx(
        (x / y) ** -0.25 + q**-0.5 + (x / q) ** -0.5, rel=1e-12
    )


def test_envelope_e3_trivial_at_corner():
    assert envelope_e(3, 1e6, 1e6, 10**6) >= 1.0


def test_envelope_e4_exponent_arithmetic():
    x = 1e8
    q = x**0.75
    v = envelope_e(4, x, 100, int(q), eps=0.01, delta=0.1)
    inner = q**-0.25 + q**0.76 / x
    assert v == pytest.approx(inner**0.1, rel=1e-9)
    assert v < 1.0


def test_envelope_e4_validates_parameters():
    with pytest.raises(ValueError):
        envelope_e(4, 1e6, 10, 101, eps=0.0)
    with pytest.raises(ValueError):
        envelope_e(4, 1e6, 10, 101, delta=1.5)
    with pytest.raises(ValueError):
        envelope_e(5, 1e6, 10, 101)


def test_thm1_beats_ft_on_the_reference_grid():
    x = 1e8
    y = x**0.3
    q = int(x**0.6)
    assert envelope_thm1(x, y, q) < envelope_ft(x, y, q)


def test_envelopes_nonincreasing_in_x_at_fixed_exponents():
    # on exponent pairs where every term saves (alpha <= 1/2, alpha + beta <= 1)
    for alpha, beta in [(0.3, 0.6), (0.2, 0.5), (0.4, 0.55)]:
        prev_ft = prev_thm1 = prev_e1 = math.inf
        for x in (1e6, 1e8, 1e10, 1e12):
            y, q = x**alpha, int(x**beta)
            assert envelope_ft(x, y, q) <= prev_ft
            assert envelope_thm1(x, y, q) <= prev_thm1
            assert envelope_e(1, x, y, q) <= prev_e1
            prev_ft, prev_thm1, prev_e1 = (
                envelope_ft(x, y, q),
                envelope_thm1(x, y, q),
                envelope_e(1, x, y, q),
            )


def test_l_factor_values():
    assert l_factor(1e6, 3 / 7, 3, 7).value == 1.0
    x = 1024.0
    assert l_factor(x, 3 / 7 + 1 / x, 3, 7).value == pytest.approx(2.0, rel=1e-9)
    assert l_factor(1e6, 1 / 3 + 1e-3, 1, 3).value == pytest.approx(1001.0, rel=1e-9)


def test_cor14_range_branches():
    x = 1e6
    lo, hi = nontrivial_range_cor14(x, x, 0.05)
    assert lo == pytest.approx(x**0.05)
    assert hi == pytest.approx(x ** (4 / 3 - 0.05))
    # small y: the second branch dominates
    lo, hi = nontrivial_range_cor14(x, x**0.25, 0.05)
    assert hi == pytest.approx(x ** (2 - 0.05) / x**0.5, rel=1e-9)
    # at y = x^(1/3) and eps -> 0 both branches agree
    lo, hi = nontrivial_range_cor14(x, x ** (1 / 3), 1e-9)
    assert hi == pytest.approx(x ** (4 / 3), rel=1e-6)
    with pytest.raises(ValueError):
        nontrivial_range_cor14(x, x, 0.5)


def test_report_trivial_modulus():
    rep = report(SumParams(x=1000, y=10, q=1, a=0))
    assert rep.exact_abs == rep.psi
    for name in ENVELOPE_NAMES:
        assert rep.ratios[name] == pytest.approx(
            rep.psi / (1000 * rep.envelopes[name])
        )


def test_report_well_formed_midscale():
    rep = report(SumParams(x=1e5, y=1e2, q=997, a=1))
    assert set(rep.envelopes) == set(ENVELOPE_NAMES)
    for name in ENVELOPE_NAMES:
        assert rep.envelopes[name] > 0
        assert math.isfinite(rep.ratios[name]) and rep.ratios[name] >= 0


def test_report_regression_pinned_values():
    # frozen after the first computation; guards the whole pipeline
    rep = report(SumParams(x=1e6, y=1e2, q=997, a=1))
    assert rep.psi == 72271
    assert rep.exact.value.real == pytest.approx(-12.261110249098893, abs=1e-8)
    assert rep.exact.value.imag == pytest.approx(145.6152894367652, abs=1e-8)
    assert rep.ratios["THM1"] == pytest.approx(0.0011566329848228104, rel=1e-9)


def test_report_flags_trivial_envelopes():
    rep = report(SumParams(x=1e5, y=1e3, q=10**5 + 3, a=1))
    assert rep.trivial["THM1"]  # q ~ x makes the bound vacuous
    assert math.isfinite(rep.ratios["THM1"])


def test_report_with_theta_scales_l_envelopes():
    p = SumParams(x=10**4, y=30, q=101, a=5, theta=5 / 101 + 1e-6)
    rep = report(p)
    lf = l_factor(p.x, p.theta, p.a, p.q).value
    assert rep.envelopes["FT_real"] == pytest.approx(rep.envelopes["FT_rat"] * lf)
    assert rep.envelopes["COR12"] == pytest.approx(rep.envelopes["THM1"] * lf)


def test_report_without_theta_has_unit_l():
    rep = report(SumParams(x=10**4, y=30, q=101, a=5))
    assert rep.envelopes["FT_real"] == rep.envelopes["FT_rat"]
    assert rep.envelopes["COR12"] == rep.envelopes["THM1"]


def test_report_passes_threads_to_the_theta_sum():
    p = SumParams(x=3 * 10**4, y=30, q=101, a=5, theta=5 / 101 + 1e-6)
    with mock.patch.object(bounds, "sum_theta", wraps=bounds.sum_theta) as theta_sum:
        two = report(p, threads=2, segment=4096)
    assert theta_sum.call_args.kwargs["threads"] == 2
    one = report(p, threads=1, segment=4096)
    assert (two.exact.value, two.exact.terms) == (one.exact.value, one.exact.terms)


def test_cor14_upper_end_is_where_the_last_saving_exponent_turns():
    # as eps -> 0 the window of cor14 ends at q = x^max(4/3, 2 - 2 alpha); it
    # is the largest beta at which some envelope E1-E4 still saves
    betas = np.linspace(0.0, 2.0, 2001)
    for alpha in np.linspace(0.0, 0.99, 100).tolist():
        top = max(4 / 3, 2 - 2 * alpha)
        saves = np.minimum.reduce(list(saving_exponents(alpha, betas).values())) < 0
        assert top - 1e-3 - 1e-12 <= betas[saves].max() < top  # grid step 1e-3
        for beta in (top - 1e-9, top + 1e-9):
            assert (min(saving_exponents(alpha, beta).values()) < 0) == (beta < top)
        x = 1e12
        _, hi = nontrivial_range_cor14(x, x**alpha, 1e-9)
        assert math.log(hi) / math.log(x) == pytest.approx(top, abs=1e-8)
