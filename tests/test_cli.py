import concurrent.futures
import ctypes
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from friable_sums import bounds, cli, decomp, sieve, sums
from friable_sums.cli import SplitMix64, main, parse_grid, resolve_grid


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_splitmix_is_deterministic_and_uniformish():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq = [a.next_u64() for _ in range(5)]
    assert seq == [b.next_u64() for _ in range(5)]
    draws = [SplitMix64(7).unit_mod(12) for _ in range(1)]
    assert all(math.gcd(d, 12) == 1 for d in draws)
    assert SplitMix64(1).unit_mod(1) == 0


def test_parse_grid_forms():
    assert resolve_grid(parse_grid("1e3,2e3"), 0) == [1000.0, 2000.0]
    geom = resolve_grid(parse_grid("geom:10:1000:3"), 0)
    assert geom == pytest.approx([10.0, 100.0, 1000.0])
    assert resolve_grid(parse_grid("x^0.5"), 100.0) == [10.0]
    with pytest.raises(ValueError):
        parse_grid("geom:10:1:5")


def test_sum_command_hand_value(capsys):
    code, out, _ = run(capsys, ["sum", "--x", "10", "--y", "2", "--q", "3", "--a", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# friable-sums v1"
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["abs_S"]) == pytest.approx(2.0, abs=1e-9)
    assert row["psi"] == "4"
    assert float(row["re_S"]) == pytest.approx(-2.0, abs=1e-9)


def test_sum_command_json(capsys):
    code, out, _ = run(
        capsys,
        ["sum", "--x", "100", "--y", "5", "--q", "7", "--a", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"x", "abs_S", "psi", "envelope_THM1", "ratio_THM1"}


def test_sum_command_refuses_modulus_past_int64(capsys):
    code, _, err = run(
        capsys, ["sum", "--x", "1e4", "--y", "50", "--q", "18446744073709551629"]
    )
    assert code == 2
    assert "2^63" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--x", "100", "--y", "5", "--q", "7"],
        ["sum", "--x", "100", "--y", "5", "--q", "7", "--theta", "0.1"],
        ["scan", "--x-grid", "100,200", "--y-grid", "5", "--q-grid", "7"],
    ],
)
def test_commands_refuse_thread_counts_below_one(capsys, argv, threads):
    code, _, err = run(capsys, argv + ["--threads", threads])
    assert code == 2
    assert "threads must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--x", "0", "--y", "5", "--q", "7"],
        ["sum", "--x", "100", "--y", "-1", "--q", "7"],
        ["scan", "--x-grid", "100", "--y-grid", "0", "--q-grid", "7"],
        ["scan", "--x-grid=-5,100", "--y-grid", "5", "--q-grid", "7"],
    ],
)
def test_sum_and_scan_refuse_nonpositive_x_or_y(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "x > 0 and y > 0" in err
    assert "# friable-sums" not in out


def test_scan_refuses_a_bad_cell_before_summing_any(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was summed before the grid was validated")

    monkeypatch.setattr(cli.sums, "sum_power", fail)
    monkeypatch.setattr(cli.bounds, "sum_power", fail)
    code, out, err = run(capsys, ["scan", "--x-grid", "3e6,0", "--y-grid", "100", "--q-grid", "101"])
    assert code == 2
    assert "x > 0 and y > 0" in err
    assert out == ""


def test_sum_refuses_theta_with_nu_other_than_one(capsys):
    argv = ["sum", "--x", "1000", "--y", "10", "--q", "7", "--theta", "0.3", "--nu", "3"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "needs nu = 1" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, why",
    [
        (["sieve", "--x-grid", "x^2", "--y-grid", "10"], "x-linked"),
        (["sieve", "--x-grid", "1e3", "--y-grid", "0"], "y > 0"),
        (["sieve", "--x-grid", "1e3,-1", "--y-grid", "10"], "x > 0"),
        (["sieve", "--x-grid", "0,10", "--y-grid", "x^-1"], "x > 0"),  # before 0^-1
        (["scan", "--x-grid", "x^2", "--y-grid", "10", "--q-grid", "7"], "x-linked"),
    ],
)
def test_grids_are_refused_before_any_work(capsys, monkeypatch, argv, why):
    def fail(*args, **kwargs):
        raise AssertionError("work began before the grid was validated")

    monkeypatch.setattr(cli, "psi", fail)
    monkeypatch.setattr(cli.bounds, "sum_power", fail)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert why in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--x-grid", "1e19", "--y-grid", "2"],
        ["sum", "--x", "1e19", "--y", "2", "--q", "101", "--a", "1"],
        ["scan", "--x-grid", "1e19", "--y-grid", "2", "--q-grid", "101", "--budget", "1e30"],
    ],
)
def test_x_from_two_to_the_63_is_refused_before_any_listing(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("S(x, y) was listed past 2^63")

    monkeypatch.setattr(sieve, "_generate", fail)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "x < 2^63" in err


def test_sum_columns_are_the_scan_columns_with_re_and_im_before_abs(capsys):
    code, out, _ = run(capsys, ["sum", "--x", "100", "--y", "5", "--q", "7"])
    assert code == 0
    envelopes = ["FT_rat", "FT_real", "THM1", "E1", "E2", "E3", "E4", "COR12"]
    assert out.splitlines()[1].split(",") == (
        ["x", "y", "q", "a", "nu", "re_S", "im_S", "abs_S", "psi"]
        + [f"envelope_{n}" for n in envelopes]
        + [f"ratio_{n}" for n in envelopes]
    )


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_sum_refuses_nonfinite_theta(capsys, theta):
    code, out, err = run(capsys, ["sum", "--x", "100", "--y", "5", "--q", "7", f"--theta={theta}"])
    assert code == 2
    assert "theta must be finite" in err
    assert out == ""


def test_scan_refuses_negative_random_residue_count(capsys):
    argv = ["scan", "--x-grid", "100", "--y-grid", "5", "--q-grid", "7", "--random-a", "-2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "random-a must be at least 0" in err
    assert out == ""


def test_regions_refuses_zero_grid_step(capsys):
    code, out, err = run(capsys, ["regions", "--eps-grid", "0"])
    assert code == 2
    assert "grid resolution" in err
    assert out == ""


_PRIMES_PROBE = """
import resource, sys
cap = 3 << 29  # 1.5 GiB of address space: the prime mask for 3e9 needs 2.8 GiB
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from friable_sums.cli import main
sys.exit(main(["verify", "--suite", sys.argv[1], "--x", "3e9"]))
"""


@pytest.mark.skipif(os.name != "posix", reason="address-space cap needs POSIX rlimits")
@pytest.mark.parametrize("suite", ["regroup", "buchstab"])
def test_verify_refuses_prime_tables_past_the_budget(suite):
    src = str(Path(cli.__file__).resolve().parents[1])
    # one BLAS thread, so numpy's own buffers fit under the cap on many-core hosts
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _PRIMES_PROBE, suite], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "budget refusal" in proc.stderr
    assert "Traceback" not in proc.stderr


_ARENA_PROBE = """
import ctypes, sys
from friable_sums.cli import main
libc = ctypes.CDLL(None)
libc.malloc_stats()
sys.stderr.write("--\\n")
sys.stderr.flush()
code = main(["sum", "--x", "1e6", "--y", "100", "--q", "997", "--threads", "2"])
libc.malloc_stats()
sys.exit(code)
"""


@pytest.mark.skipif(
    "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}), reason="glibc malloc only"
)
def test_threaded_sum_adds_no_malloc_arena():
    # malloc_stats prints one "Arena k:" block per arena to stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _ARENA_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stderr.split("--\n")
    assert before.count("Arena ") >= 1
    assert after.count("Arena ") == before.count("Arena ")


_MMAP_PROBE = """
import ctypes, os, sys
from friable_sums.cli import main

libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


libc.mallinfo2.restype = MallInfo2


def mapped(size):
    # whether malloc serves `size` bytes by a mapping of their own (hblks counts those)
    before = libc.mallinfo2().hblks
    block = libc.malloc(size)
    out = libc.mallinfo2().hblks > before
    libc.free(block)
    return out


libc.free(libc.malloc(16 << 20))  # freeing a 16 MiB mapping raises glibc's threshold to it
print(mapped(12 << 20))
argv = ["scan", "--x-grid", "1e4,2e4", "--y-grid", "10", "--q-grid", "101",
        "--output", os.devnull, "--threads"]
code = main(argv + sys.argv[1:])
print(mapped(12 << 20))
sys.exit(code)
"""


@pytest.mark.skipif(
    "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {})
    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="glibc 2.33+ malloc only",
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_scan_leaves_the_mmap_threshold_where_it_found_it(threads):
    # a scan changes no process-wide allocator setting: 12 MiB blocks still
    # come from the heap after it, at one thread or on a pool
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _MMAP_PROBE, threads], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_thread_pools_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, cpus):
    # the stand-in pool records its size and maps in the calling thread, so
    # asking for 64 threads starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sieve.usable_cpus() == cpus
    counts = list(sieve.smooth_segments(1e5, 30, lambda m, w: m.size, segment=1 << 14, threads=64))
    assert counts == list(sieve.smooth_segments(1e5, 30, lambda m, w: m.size, segment=1 << 14))
    assert sizes == ([] if cpus == 1 else [cpus])
    sizes.clear()
    out = tmp_path / "scan.csv"
    argv = ["scan", "--x-grid", "1e3,2e3", "--y-grid", "10", "--q-grid", "101",
            "--output", str(out), "--threads", "64"]
    assert main(argv) == 0
    assert sizes == [cpus]


def test_stray_overflow_maps_to_usage_exit(capsys, monkeypatch):
    def overflow(args):
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(cli, "cmd_sum", overflow)
    code, _, err = run(capsys, ["sum", "--x", "10", "--y", "2", "--q", "3"])
    assert code == 2
    assert "too large" in err


def test_sum_command_rejects_bad_residue(capsys):
    code, _, err = run(capsys, ["sum", "--x", "10", "--y", "2", "--q", "10", "--a", "4"])
    assert code == 2
    assert "gcd" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["sum", "--bogus", "1"]) == 2


def test_sieve_command(capsys):
    code, out, _ = run(capsys, ["sieve", "--x-grid", "10,30", "--y-grid", "2,5"])
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#") and "psi" not in line]
    table = {(float(a), float(b)): int(c) for a, b, c in (r.split(",") for r in rows)}
    assert table[(10.0, 2.0)] == 4
    assert table[(30.0, 5.0)] == 18


def test_scan_grid_row_count_and_determinism(tmp_path, capsys):
    args = [
        "scan",
        "--x-grid", "1e3,2e3,4e3",
        "--y-grid", "8,16,32",
        "--q-grid", "11,13,17",
        "--random-a", "1",
        "--seed", "99",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2), "--threads", "3"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2  # byte-identical regardless of seed reuse or threading
    lines = b1.decode().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert len(data) == 1 + 27  # header + 3*3*3 rows


def _scan_by_cell(argv):
    """What `scan` prints for argv, built by calling bounds.report once per cell."""
    args = cli.build_parser().parse_args(argv)
    cells = cli.ScanSpec.from_args(args).cells()
    rows = [cli._report_row(bounds.report(p, args.eps, args.delta)) for p in cells]
    if args.format == "json":
        return json.dumps(rows) + "\n"
    lines = [cli.CSV_VERSION_LINE, ",".join(cli.SCAN_COLUMNS)]
    lines += [",".join(r[c] for c in cli.SCAN_COLUMNS) for r in rows] + cli._diag_lines(rows)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "grid",
    [
        ["--nu", "1", "--q-grid", "x^0.9"],
        ["--nu", "3", "--q-grid", "x^0.9"],
        ["--nu", "-1", "--q-grid", "3981,720720"],
        # past sums.HIST_LIMIT: the direct path, vectorized and on Python ints
        ["--nu", "-1", "--q-grid", f"{(1 << 24) + 43},{(1 << 32) + 15}"],
        ["--nu", "3", "--q-grid", f"{(1 << 24) + 43},{(1 << 32) + 15}"],
        # one q twice: two cells with draws of their own, one run of six rows
        ["--nu", "2", "--q-grid", "101,101"],
    ],
)
def test_scan_shares_a_pass_per_cell_and_matches_per_cell_reports(capsys, grid, fmt):
    argv = ["scan", "--x-grid", "1e4,3e4", "--y-grid", "30", "--random-a", "3",
            "--seed", "5", "--format", fmt, *grid]
    want = _scan_by_cell(argv)
    for threads in ("1", "2"):
        code, out, _ = run(capsys, argv + ["--threads", threads])
        assert code == 0
        assert out == want


def test_scan_draws_each_cell_of_a_repeated_q_apart(capsys):
    argv = ["scan", "--x-grid", "1e4", "--y-grid", "30", "--q-grid", "101,101",
            "--random-a", "3", "--seed", "5", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    a = [int(row["a"]) for row in json.loads(out)]
    draws = [cli.cell_rng(5, i) for i in (0, 1)]
    assert a == [draws[i // 3].unit_mod(101) for i in range(6)]


def test_single_cell_scan_runs_its_pass_on_the_threads(capsys, monkeypatch):
    argv = ["scan", "--x-grid", "1e5", "--y-grid", "100", "--q-grid", "1009",
            "--random-a", "4", "--seed", "3", "--nu", "-1"]
    asked = []
    segments = sums.smooth_segments

    def recording(*args):
        asked.append(args[4])  # x, y, part, segment, threads
        return segments(*args)

    monkeypatch.setattr(sums, "smooth_segments", recording)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, argv + ["--threads", threads])
        assert code == 0
        outs.append(out)
    assert asked == [1, 2]  # one pass for the four residues, on the threads asked for
    assert outs[0] == outs[1] == _scan_by_cell(argv)


def test_scan_different_seed_changes_random_draws(tmp_path):
    base = [
        "scan", "--x-grid", "1e3", "--y-grid", "8", "--q-grid", "101",
        "--random-a", "2",
    ]
    outs = []
    for seed in ("1", "2"):
        path = tmp_path / f"s{seed}.csv"
        assert main(base + ["--seed", seed, "--output", str(path)]) == 0
        outs.append(path.read_text())
    assert outs[0] != outs[1]


def test_scan_x_linked_grids_and_diagnostics(tmp_path):
    path = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--x-grid", "1e4,1e5",
            "--y-grid", "x^0.3",
            "--q-grid", "x^0.6",
            "--a", "1",
            "--output", str(path),
        ]
    )
    assert code == 0
    text = path.read_text()
    diag = [l for l in text.splitlines() if l.startswith("# diag ratio_THM1")]
    assert len(diag) == 1
    assert "nonincreasing=" in diag[0]
    values = [float(v) for v in diag[0].split("values=")[1].split(",")]
    assert len(values) == 2 and all(v >= 0 and math.isfinite(v) for v in values)


def test_scan_budget_refusal(capsys):
    code, _, err = run(
        capsys,
        [
            "scan",
            "--x-grid", "1e9",
            "--y-grid", "100",
            "--q-grid", "101",
            "--budget", "1e6",
        ],
    )
    assert code == 3
    assert "budget" in err


def test_scan_budget_nan_is_refused(capsys):
    # no cost exceeds NaN, so it would switch the budget off
    argv = ["scan", "--x-grid", "1e4", "--y-grid", "10", "--q-grid", "101", "--budget"]
    code, out, err = run(capsys, argv + ["nan"])
    assert code == 2
    assert out == "" and "budget must be at least -inf, got nan" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, argv + ["inf"])  # inf stays "no limit"
    assert code == 0 and out.startswith("# friable-sums v1")


@pytest.mark.parametrize("argv, cost", [
    (["--x-grid", "1e3,2e3", "--q-grid", "7", "--random-a", "3"], 9000),  # 3 draws a cell
    (["--x-grid", "1e3", "--q-grid", "10,11", "--a", "5"], 1000),  # q = 10 is dropped
])
def test_scan_charges_floor_x_per_emitted_cell(capsys, argv, cost):
    argv = ["scan", "--y-grid", "8", *argv, "--budget"]
    assert run(capsys, argv + [str(cost)])[0] == 0
    code, out, err = run(capsys, argv + [str(cost - 1)])
    assert (code, out) == (3, "")
    assert err.startswith(f"budget refusal: scan needs an estimated {cost} summed terms")


def test_scan_charges_its_budget_before_drawing_a_residue(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a residue was drawn before the budget was charged")

    monkeypatch.setattr(cli, "cell_rng", fail)
    argv = ["scan", "--x-grid", "1e5", "--y-grid", "10", "--q-grid", "7"]
    code, out, err = run(capsys, argv + ["--random-a", "100000000"])
    assert (code, out) == (3, "") and "budget refusal" in err
    # a spec that is invalid is refused as such, over budget or not
    argv[-1] = "1e30"
    code, out, err = run(capsys, argv + ["--random-a", "2", "--budget", "1"])
    assert (code, out) == (2, "") and "q < 2^63" in err


def test_scan_coprime_filters_fixed_a(tmp_path):
    path = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--x-grid", "1e3",
            "--y-grid", "8",
            "--q-grid", "10,11",
            "--a", "5",
            "--output", str(path),
        ]
    )
    assert code == 0
    data = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data) == 1 + 1  # q = 10 dropped: gcd(5, 10) > 1


def test_verify_default_suites_pass(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 8
    assert all(": PASS" in l for l in lines)


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "buchstab", "--x", "3e4", "--y", "12", "--r", "3"])
    assert code == 0
    assert out.startswith("buchstab: PASS")


def test_verify_heath_brown_past_13_cubed(capsys):
    # x = 5000 > 13^3 needs z = 18, the smallest z >= 13 with z^3 >= x
    code, out, _ = run(capsys, ["verify", "--suite", "heath-brown", "--x", "5000"])
    assert code == 0
    assert out.startswith("heath-brown: PASS") and "z=18" in out
    code, out, _ = run(capsys, ["verify", "--suite", "heath-brown"])
    assert code == 0
    assert out == "heath-brown: PASS (identity holds up to 2000 (J=3, z=13))\n"
    # z^3 = x exactly takes z itself
    code, out, _ = run(capsys, ["verify", "--suite", "heath-brown", "--x", str(17**3)])
    assert code == 0 and "z=17)" in out


@pytest.mark.parametrize("x", ["1e30", "1e300"])
def test_verify_heath_brown_refuses_a_huge_x_at_once(x):
    # z comes from an integer cube root, not from counting up to it (about
    # 10^10 steps at 1e30), so the size is refused before any table is built
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "friable_sums.cli", "verify", "--suite", "heath-brown", "--x", x],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "budget refusal" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("x", ["1e30", "1e6"])
def test_verify_weil_refuses_a_huge_x_at_once(x):
    # 1e30 is past the prime table's budget, 1e6 past the suite's 2^26
    # phase terms; neither starts the O(x^2) pass over the primes
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "friable_sums.cli", "verify", "--suite", "weil", "--x", x],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "budget refusal" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, line", [
    ([], "weil: PASS (complete-sum envelope holds for all primes q <= 199, nu in 2..6)\n"),
    (["--x", "499"], "weil: PASS (complete-sum envelope holds for all primes q <= 499, nu in 2..6)\n"),
    (["--x", "1"], "weil: PASS (complete-sum envelope holds for all primes q <= 1, nu in 2..6)\n"),
])
def test_verify_weil_lines(capsys, argv, line):
    assert run(capsys, ["verify", "--suite", "weil", *argv])[:2] == (0, line)


def test_verify_weil_refuses_from_primes_up_to_two_to_the_12(capsys, monkeypatch):
    sizes = []

    def primes(n):
        sizes.append(n)
        return sieve.primes_upto(n)

    class PassStarted(Exception):
        pass

    def started(q):
        raise PassStarted

    monkeypatch.setattr(cli, "primes_upto", primes)
    monkeypatch.setattr(cli.sums, "_complete_counts", started)
    for x in ("3221", "6e7", "1e30"):
        code, out, err = run(capsys, ["verify", "--suite", "weil", "--x", x])
        assert (code, out) == (3, "") and "budget refusal" in err
    assert max(sizes) <= 1 << 12
    with pytest.raises(PassStarted):  # 3220 is within the budget
        main(["verify", "--suite", "weil", "--x", "3220"])


@pytest.mark.parametrize("argv, message", [
    (["--suite", "buchstab", "--r", "0"], "need r >= 1"),
    (["--suite", "wsplit", "--x", "0"], "need 1 <= lo <= hi"),
    (["--suite", "heath-brown", "--x", "0"], "need 1 <= lo <= hi"),
])
def test_verify_takes_an_explicit_zero_as_given(capsys, argv, message):
    # 0 is a size, not "unset": the suite runs at it and refuses it, and
    # does not fall back to its default and PASS
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2
    assert out == "" and message in err


def test_verify_wsplit_reports_a_planted_extra_split_past_the_oracle_prefix(capsys, monkeypatch):
    # the per-n loop would name the first n >= w whose count is not 1: here
    # n = 1500 at w = 10, as w = 3 passes and 1000 < 1500 < 1700
    true_counts = decomp._split_counts

    def planted(n_max, w, sv):
        counts = true_counts(n_max, w, sv)
        if w == 10.0:
            counts[[1500, 1700]] += 1
        return counts

    monkeypatch.setattr(decomp, "_split_counts", planted)
    code, out, err = run(capsys, ["verify", "--suite", "wsplit", "--x", "2000"])
    assert code == 1 and err == ""
    assert out == "wsplit: FAIL (n=1500 w=10.0: 2 admissible splits (expected 1))\n"


def test_verify_wsplit_reports_a_disagreement_with_the_oracle(capsys, monkeypatch):
    true_counts = decomp._split_counts

    def planted(n_max, w, sv):
        counts = true_counts(n_max, w, sv)
        counts[700] = 0
        return counts

    monkeypatch.setattr(decomp, "_split_counts", planted)
    code, out, err = run(capsys, ["verify", "--suite", "wsplit", "--x", "2000"])
    assert code == 1 and err == ""
    assert out == ("wsplit: FAIL (n=700 w=3.0: array pass counts 0 admissible splits, "
                   "count_admissible_splits 1)\n")


def test_verify_sabotage_reports_counterexample(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "buchstab", "--sabotage"])
    assert code == 1
    assert "FAIL" in out and "error" in out


def test_regions_json_output(tmp_path):
    path = tmp_path / "regions.json"
    assert main(["regions", "--output", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"E1", "E2", "E3", "E4"}
    assert ["1/5", "4/5"] in payload["E1"]
    assert ["1/3", "4/3"] in payload["E3"]
    for poly in payload.values():
        for a, b in poly:
            Fraction(a), Fraction(b)  # every vertex parses as an exact rational


def test_regions_partition_probe():
    from friable_sums.optimizer import REGION_VERTICES, RegionSet, region_grid_mismatches

    regions = RegionSet(polygons=dict(REGION_VERTICES))
    assert region_grid_mismatches(regions, eps_grid=0.01) == []


def test_optimize_command(capsys):
    code, out, _ = run(capsys, ["optimize", "--alpha", "0.5", "--beta", "0.8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == pytest.approx(0.1)
    assert payload["kappa"] == pytest.approx(0.05)
    assert payload["regime"] == "under-intersection"


def test_scan_smoke_grid_ratios_positive(tmp_path):
    path = tmp_path / "smoke.csv"
    code = main(
        [
            "scan",
            "--x-grid", "1e5,1e6",
            "--y-grid", "30,100",
            "--q-grid", "101,997",
            "--a", "1",
            "--output", str(path),
        ]
    )
    assert code == 0
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert len(lines) == 1 + 8
    for row in lines[1:]:
        rec = dict(zip(header, row.split(",")))
        for key, val in rec.items():
            assert math.isfinite(float(val))
            if key.startswith("ratio_"):
                assert float(val) > 0


def test_csv_floats_are_round_trip_precise(tmp_path, capsys):
    code, out, _ = run(capsys, ["sum", "--x", "1e4", "--y", "37", "--q", "101", "--a", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    header, row = lines[1].split(","), lines[2].split(",")
    rec = dict(zip(header, row))
    from friable_sums import SumParams, sum_linear

    v = sum_linear(SumParams(x=1e4, y=37, q=101, a=3))
    assert float(rec["re_S"]) == v.value.real  # 17 significant digits round-trip
    assert float(rec["im_S"]) == v.value.imag
    assert float(rec["abs_S"]) == abs(v.value)


def test_sum_command_midscale_contract(capsys):
    code, out, _ = run(capsys, ["sum", "--x", "1e6", "--y", "100", "--q", "997", "--a", "1"])
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(data) == 2  # header + exactly one row


def test_sum_command_lists_a_sparse_set_far_past_sieve_range(capsys):
    # Psi(1e13, 10) = 19,674: generated from its factorisations, where a
    # sieve would sweep 10^13 integers
    code, out, _ = run(capsys, ["sum", "--x", "1e13", "--y", "10", "--q", "101", "--a", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["psi"] == "19674"


def test_sum_command_with_theta_scales_l_envelopes(capsys):
    code, out, _ = run(
        capsys,
        ["sum", "--x", "1e4", "--y", "30", "--q", "101", "--a", "5",
         "--theta", str(5 / 101 + 1e-5), "--format", "json"],
    )
    assert code == 0
    rec = json.loads(out)
    assert float(rec["envelope_FT_real"]) > float(rec["envelope_FT_rat"])


def test_optimize_trivial_regime(capsys):
    code, out, _ = run(capsys, ["optimize", "--alpha", "0.9", "--beta", "1.5"])
    assert code == 0
    assert json.loads(out)["trivial"] is True


@pytest.mark.parametrize("argv, code, message", [
    (["sum", "--x", "1e6", "--y", "10", "--q", "7", "--eps", "nan"], 2, "finite eps"),
    (["scan", "--x-grid", "1e4", "--y-grid", "10", "--q-grid", "7", "--eps", "nan"], 2, "finite eps"),
    (["regions", "--eps-grid", "1e-6"], 3, "point budget"),
    (["verify", "--x=-1"], 2, "need 1 <= lo <= hi"),  # after buchstab passes at x = -1
])
def test_refusals_print_nothing_on_stdout(capsys, argv, code, message):
    got, out, err = run(capsys, argv)
    assert (got, out) == (code, "") and message in err


_EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e400", "", "abc"]
_EDGE_OPTIONS = [
    (["sum", "--x", "1e3", "--y", "10", "--q", "7"],
     ["x", "y", "q", "a", "nu", "theta", "eps", "delta", "threads"]),
    (["sieve", "--x-grid", "1e3", "--y-grid", "10"], ["x-grid", "y-grid"]),
    (["scan", "--x-grid", "1e3", "--y-grid", "10", "--q-grid", "7"],
     ["x-grid", "y-grid", "q-grid", "a", "random-a", "nu", "eps", "delta", "seed", "threads",
      "budget"]),
    (["regions"], ["eps-grid"]),
    (["optimize", "--alpha", "0.5", "--beta", "0.8"], ["alpha", "beta"]),
    # each verify suite with the options it reads
    (["verify", "--suite", "buchstab"], ["x", "y", "r", "seed"]),
    (["verify", "--suite", "wsplit"], ["x"]),
    (["verify", "--suite", "partition"], ["x", "y"]),
    (["verify", "--suite", "vaughan"], ["x"]),
    (["verify", "--suite", "heath-brown"], ["x"]),
    (["verify", "--suite", "regroup"], ["x", "y"]),
    (["verify", "--suite", "weil"], ["x"]),
    (["verify", "--suite", "optimizer"], ["seed"]),
]


@pytest.mark.parametrize("argv", [
    base + [f"--{option}={value}"]
    for base, options in _EDGE_OPTIONS for option in options for value in _EDGE_VALUES
], ids=" ".join)
def test_edge_values_are_answered_or_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)  # an uncaught exception fails the test
    assert time.perf_counter() - start < 5
    assert code in (0, 2, 3) or (code == 1 and "FAIL" in out)
    assert code == 0 or out == ""


@pytest.mark.parametrize("argv, expected", [
    (["sum", "--x", "1e3", "--y", "10", "--q", "7"],
     {"x": 1e3, "y": 10.0, "q": 7, "a": 1, "theta": None, "nu": 1, "eps": 0.01, "delta": 0.05,
      "threads": 1, "format": "csv", "output": None}),
    (["sum", "--x", "5", "--y", "2", "--q", "3", "--a", "2", "--theta", "0.1", "--nu", "-1",
      "--eps", "0.2", "--delta", "1", "--threads", "2", "--format", "json", "--output", "o"],
     {"x": 5.0, "y": 2.0, "q": 3, "a": 2, "theta": 0.1, "nu": -1, "eps": 0.2, "delta": 1.0,
      "threads": 2, "format": "json", "output": "o"}),
    (["sieve", "--x-grid", "1e3", "--y-grid", "10"],
     {"x_grid": "1e3", "y_grid": "10", "format": "csv", "output": None}),
    (["sieve", "--x-grid", "1", "--y-grid", "2", "--format", "json", "--output", "-"],
     {"x_grid": "1", "y_grid": "2", "format": "json", "output": "-"}),
    (["scan", "--x-grid", "1e3", "--y-grid", "10", "--q-grid", "7"],
     {"x_grid": "1e3", "y_grid": "10", "q_grid": "7", "a": 1, "random_a": 0, "nu": 1,
      "eps": 0.01, "delta": 0.05, "seed": 0, "threads": 1, "budget": 1e10, "format": "csv",
      "output": None}),
    (["scan", "--x-grid", "1", "--y-grid", "2", "--q-grid", "x^0.5", "--a", "3",
      "--random-a", "4", "--nu", "3", "--eps", "0.1", "--delta", "0.5", "--seed", "9",
      "--threads", "2", "--budget", "5", "--format", "json", "--output", "o"],
     {"x_grid": "1", "y_grid": "2", "q_grid": "x^0.5", "a": 3, "random_a": 4, "nu": 3,
      "eps": 0.1, "delta": 0.5, "seed": 9, "threads": 2, "budget": 5.0, "format": "json",
      "output": "o"}),
    (["verify"],
     {"suite": "all", "x": None, "y": None, "r": None, "seed": 0, "sabotage": False}),
    (["verify", "--suite", "weil", "--x", "499", "--y", "3", "--r", "2", "--seed", "1",
      "--sabotage"],
     {"suite": "weil", "x": 499.0, "y": 3.0, "r": 2, "seed": 1, "sabotage": True}),
    (["regions"], {"eps_grid": 0.01, "output": None}),
    (["regions", "--eps-grid", "0.005", "--output", "r.json"],
     {"eps_grid": 0.005, "output": "r.json"}),
    (["optimize", "--alpha", "0.5", "--beta", "0.8"], {"alpha": 0.5, "beta": 0.8}),
])
def test_parser_names_types_and_defaults(argv, expected):
    ns = vars(cli.build_parser().parse_args(argv))
    assert ns.pop("command") == argv[0]
    assert ns.pop("func") is getattr(cli, f"cmd_{argv[0]}")
    assert ns == expected
    assert all(type(ns[k]) is type(v) for k, v in expected.items())
