"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers.  Tolerances are pinned here and
nowhere else.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import resource
import time
from fractions import Fraction as F

import numpy as np

from friable_sums.arith import eq_phase, fsum_complex
from friable_sums.cli import main
from friable_sums.decomp import (
    buchstab_expand,
    count_admissible_splits,
    heath_brown_lambda_check,
    split_partition_sums,
    vaughan_lambda_check,
)
from friable_sums.optimizer import figure1_regions, kappa, optimal_omega, oracle_optimal_omega
from friable_sums.sieve import build_sieve
from friable_sums.sums import (
    SumParams,
    moment_count,
    sum_bilinear,
    sum_linear,
    sum_power,
    sum_prime_convolution,
    weil_envelope_violation,
)
from oracles import naive_smooth


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def phase_map(q, a):
    def f(n):
        ang = (2.0 * math.pi / q) * ((a % q) * (n % q) % q)
        return np.cos(ang) + 1j * np.sin(ang)

    return f


def test_01_buchstab_exactness():
    rng = random.Random(101)
    t0 = time.monotonic()
    worst = 0.0
    for x, y, r in [(10**4, 25.0, 3), (3 * 10**4, 12.0, 3), (10**5, 7.0, 6)]:
        for _ in range(10):
            q = rng.randrange(2, 1000)
            a = next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)
            exp = buchstab_expand(phase_map(q, a), x, y, r)
            direct = sum_linear(SumParams(x=x, y=y, q=q, a=a)).value
            err = abs(exp.recombined() - direct) / max(1.0, abs(direct))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    announce(1, ok, f"worst recombination error {worst:.3g} over 30 runs in {elapsed:.1f}s")


def test_02_wsplit_uniqueness_exhaustive():
    n_max = 10**5
    sieve = build_sieve(1, n_max)
    violations = 0
    first_bad = None
    for w in (3.0, 10.0, 50.0, 316.0):
        for n in range(math.ceil(w), n_max + 1):
            if count_admissible_splits(n, w, sieve) != 1:
                violations += 1
                first_bad = first_bad or (n, w)
    ok = violations == 0
    announce(2, ok, f"n <= {n_max}, w in (3, 10, 50, 316): {violations} violations"
             + (f", first at {first_bad}" if first_bad else ""))


def test_03_split_partition_identity():
    worst = 0.0
    for y in (10.0, 100.0):
        for w in (10.0, 100.0):
            direct, regrouped = split_partition_sums(phase_map(101, 7), 10**5, y, w)
            err = abs(direct - regrouped) / max(1.0, abs(direct))
            worst = max(worst, err)
    ok = worst <= 1e-9
    announce(3, ok, f"x=1e5, y and w in (10, 100): worst relative defect {worst:.3g}")


def test_04_lambda_decompositions():
    t0 = time.monotonic()
    vaughan_ok = vaughan_lambda_check(10**4, 10, 20)
    hb_ok = heath_brown_lambda_check(5000, 3, 18)
    elapsed = time.monotonic() - t0
    ok = vaughan_ok and hb_ok and elapsed <= 120.0
    announce(4, ok, f"vaughan(1e4,10,20)={vaughan_ok}, heath_brown(5000,3,18)={hb_ok} in {elapsed:.1f}s")


def test_05_weil_envelope_exhaustive():
    violations = []
    for q in range(2, 500):
        if any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
            continue
        for nu in range(2, 7):
            for a in range(1, min(q - 1, 20) + 1):
                excess = weil_envelope_violation(q, a, nu, slack=1e-6)
                if excess is not None:
                    violations.append((q, nu, a, excess))
    ok = not violations
    announce(5, ok, f"primes q <= 499, nu in 2..6: {len(violations)} violations"
             + (f", first {violations[0]}" if violations else ""))


def test_06_optimizer_oracle_agreement():
    rng = random.Random(106)
    worst_omega = worst_kappa = worst_halving = 0.0
    for _ in range(1000):
        alpha, beta = rng.random(), rng.random()
        omega, kap = optimal_omega(alpha, beta)
        o2, k2 = oracle_optimal_omega(alpha, beta, step=1e-4)
        worst_omega = max(worst_omega, abs(omega - o2))
        worst_kappa = max(worst_kappa, abs(kap - k2))
        worst_halving = max(worst_halving, abs(kappa(omega, alpha, beta) - omega / 2.0))
    ok = worst_omega <= 2e-4 and worst_kappa <= 1e-4 and worst_halving <= 1e-12
    announce(6, ok, f"1000 seeded points: |d omega| <= {worst_omega:.2e}, "
             f"|d kappa| <= {worst_kappa:.2e}, |kappa - omega/2| <= {worst_halving:.2e}")


def test_07_region_chart_reproduction():
    regions = figure1_regions(eps_grid=0.01)
    expected = {
        "E1": ((F(0), F(0)), (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)), (F(1, 5), F(4, 5)), (F(0), F(2, 3))),
        "E2": ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1, 2), F(1)), (F(1, 5), F(4, 5)), (F(1, 3), F(2, 3)), (F(1, 3), F(1, 3))),
        "E3": ((F(1, 2), F(1)), (F(1), F(1)), (F(1), F(4, 3)), (F(1, 3), F(4, 3))),
        "E4": ((F(0), F(2, 3)), (F(1, 2), F(1)), (F(0), F(2))),
    }
    exact = regions.polygons == expected
    has_shared_vertex = regions.on_boundary("E1", F(1, 5), F(4, 5)) and regions.on_boundary(
        "E2", F(1, 5), F(4, 5)
    )
    has_ceiling_vertex = (F(1, 3), F(4, 3)) in regions.polygons["E3"]
    ceiling = [v for v in regions.polygons["E3"] if v[1] == F(4, 3)]
    ok = exact and has_shared_vertex and has_ceiling_vertex and len(ceiling) == 2
    announce(7, ok, "four polygons match the chart's rational vertices exactly, "
             "including (1/5, 4/5), (1/3, 4/3), and the beta = 4/3 ceiling edge")


def test_08_sum_oracles_randomized():
    rng = random.Random(108)
    checked = {"linear": 0, "power": 0, "bilinear": 0, "convolution": 0, "moment": 0}
    worst = 0.0

    def unit(q):
        return next(t for t in iter(lambda: rng.randrange(1, q), None) if math.gcd(t, q) == 1)

    for _ in range(50):
        x, y = rng.randrange(20, 10**4), rng.randrange(2, 80)
        q = rng.randrange(2, 10**3)
        a = unit(q)
        members = naive_smooth(x, y)
        got = sum_linear(SumParams(x=x, y=y, q=q, a=a))
        want = fsum_complex(eq_phase(a * n, q) for n in members)
        worst = max(worst, abs(got.value - want) / max(1.0, abs(want)))
        checked["linear"] += 1

        nu = rng.choice([2, 3, 5])
        got = sum_power(SumParams(x=x, y=y, q=q, a=a, nu=nu))
        want = fsum_complex(eq_phase(a * pow(n, nu, q), q) for n in members)
        worst = max(worst, abs(got.value - want) / max(1.0, abs(want)))
        checked["power"] += 1

    for _ in range(50):
        m0, n0 = rng.randrange(1, 32), rng.randrange(1, 32)
        alpha = {m: rng.choice([-1.0, 1.0]) for m in range(m0, 2 * m0 + 1)}
        beta = {n: rng.choice([-1.0, 1.0]) for n in range(n0, 2 * n0 + 1)}
        q = rng.randrange(2, 10**3)
        a = unit(q)
        xb = rng.randrange(m0 * n0, 4 * m0 * n0 + 2)
        got = sum_bilinear(alpha, beta, xb, q, a, 1)
        want = fsum_complex(
            alpha[m] * beta[n] * eq_phase(a * (m * n), q)
            for m in alpha
            for n in beta
            if m * n <= xb
        )
        worst = max(worst, abs(got.value - want) / max(1.0, abs(want)))
        checked["bilinear"] += 1

    for _ in range(50):
        j = rng.choice([1, 2])
        x, y = rng.randrange(30, 3000), rng.randrange(2, 40)
        q = rng.randrange(2, 10**3)
        a = unit(q)
        got = sum_prime_convolution(j, x, y, q, a, 1)
        ps = [p for p in range(2, x + 1) if p > y and all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
        parts = []

        def rec(start, depth, prod):
            for i in range(start, len(ps)):
                pr = prod * ps[i]
                if pr > x:
                    break
                if depth + 1 == j:
                    for m in range(1, x // pr + 1):
                        parts.append(eq_phase(a * m * pr, q))
                else:
                    rec(i + 1, depth + 1, pr)

        rec(0, 0, 1)
        want = fsum_complex(parts)
        worst = max(worst, abs(got.value - want) / max(1.0, abs(want)))
        checked["convolution"] += 1

    exact_mismatch = 0
    for _ in range(50):
        k = rng.choice([1, 2])
        nu = rng.choice([1, 2, 3])
        q = rng.randrange(2, 50)
        M = rng.randrange(1, 10)
        got = moment_count(k, nu, q, M)
        ms = list(range(M, 2 * M + 1))
        if k == 1:
            want = sum(1 for m1 in ms for m2 in ms if pow(m1, nu, q) == pow(m2, nu, q))
        else:
            want = sum(
                1
                for m1 in ms
                for m2 in ms
                for m3 in ms
                for m4 in ms
                if (pow(m1, nu, q) + pow(m2, nu, q)) % q == (pow(m3, nu, q) + pow(m4, nu, q)) % q
            )
        exact_mismatch += got != want
        checked["moment"] += 1

    ok = worst <= 1e-9 and exact_mismatch == 0 and all(c >= 50 for c in checked.values())
    announce(8, ok, f"{checked} instances, worst relative error {worst:.3g}, "
             f"{exact_mismatch} integer mismatches")


def test_09_performance_gate():
    t0 = time.monotonic()
    v = sum_linear(SumParams(x=1e8, y=1e3, q=10**6 + 3, a=1), threads=8)
    elapsed = time.monotonic() - t0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = elapsed <= 60.0 and peak_mib <= 1024.0 and v.terms > 0
    announce(9, ok, f"x=1e8, y=1e3, q=1e6+3: psi={v.terms}, |S|={abs(v.value):.3f}, "
             f"{elapsed:.1f}s, peak RSS {peak_mib:.0f} MiB")


def test_10_scan_report_well_formed(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--x-grid", "1e6,1e7,1e8",
            "--y-grid", "x^0.3",
            "--q-grid", "x^0.6",
            "--a", "1",
            "--seed", "0",
            "--output", str(out),
        ]
    )
    text = out.read_text()
    lines = text.splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    diag = [l for l in lines if l.startswith("# diag ratio_THM1")]
    ok = code == 0 and lines[0] == "# friable-sums v1" and len(data) == 1 + 3 and len(diag) == 1
    header = data[0].split(",")
    values_ok = True
    for row in data[1:]:
        rec = dict(zip(header, row.split(",")))
        for key, val in rec.items():
            v = float(val)
            values_ok &= math.isfinite(v)
            if key.startswith("ratio_"):
                values_ok &= v > 0
    trend = diag[0].split("values=")[1].split(",") if diag else []
    ok = ok and values_ok and len(trend) == 3
    announce(10, ok, f"3-row scan emitted with ratio_THM1 diagnostics {diag[0].split('values=')[1] if diag else 'missing'}")
