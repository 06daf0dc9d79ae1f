"""CLI behaviour: reproducible rows, formats, exit codes, fault injection."""

import bisect
import csv
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stirtree

import stirtree.cli as cli
import stirtree.estimators as estimators
import stirtree.meander as meander
import stirtree.stirring as stirring
import stirtree.verify as verify
from stirtree import ks
from stirtree.bars import Bar, BarCollection, LazyPoissonBars, sample_added
from stirtree.cli import main
from stirtree.events import multibar_cluster, viable_locations
from stirtree.meander import EngineError
from stirtree.rng import TrialStreams
from stirtree.stirring import stirring_permutation, transposition_oracle
from stirtree.tree import ROOT, TreeShape
from stirtree.verify import check_oracle_equivalence


GOLDEN_SIM_ROW = {
    "schema": 1,
    "trial": 0,
    "seed": 7,
    "cycle": ["ε"],
    "length": 1,
    "boundary_truncated": False,
    "crossed": 0,
    "bottleneck_edge": "",
    "bottleneck_height": "",
    "no_escape": "",
    "pivot": "neither",
    "bottleneck_zone": "",
    "added_depth_index": 1,
    "reached_plain": 0,
    "reached_added": 0,
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_sim_golden_row(capsys):
    code, out = run_cli(
        ["sim", "--d", "2", "--n", "3", "--t", "0.5", "--seed", "7", "--trials", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip()) == GOLDEN_SIM_ROW


# `sim --d 3 --n 4 --t 0.4 --seed 7 --trials 20 --format csv`, verbatim: its
# cycles of up to 10 vertices, its two crossed added bars and its far
# bottleneck pin the lazy draw order that every sim column reads
GOLDEN_SIM_RUN = """\
schema,trial,seed,cycle,length,boundary_truncated,crossed,bottleneck_edge,bottleneck_height,no_escape,pivot,bottleneck_zone,added_depth_index,reached_plain,reached_added
1,0,7,ε 2,2,False,0,,,,neither,,0,0,0
1,1,7,ε 1,2,False,1,,,,neither,,3,0,0
1,2,7,ε 0 1,3,False,0,,,,neither,,0,0,0
1,3,7,ε 002 00 0,4,False,0,,,,neither,,0,0,0
1,4,7,ε,1,False,0,,,,neither,,0,0,0
1,5,7,ε 1 2 22 2211 221,6,True,0,,,,neither,,0,1,1
1,6,7,ε 2211 221 2212 222 2220 22 2,8,True,0,,,,neither,,1,1,1
1,7,7,ε 2002 2000 200 20 2010 201 22 221 2,10,True,0,,,,neither,,0,1,1
1,8,7,ε 2 20,3,False,0,,,,neither,,0,0,0
1,9,7,ε 01 011 1 12 10,6,False,0,,,,neither,,0,0,0
1,10,7,ε 2,2,False,0,,,,neither,,0,0,0
1,11,7,ε,1,False,0,,,,neither,,0,0,0
1,12,7,ε,1,False,0,,,,neither,,0,0,0
1,13,7,ε 011 01 0,4,False,0,,,,neither,,1,0,0
1,14,7,ε 1 112 1120 11,5,True,0,,,,neither,,1,1,1
1,15,7,ε 22 21 20 2 01 0,7,False,0,,,,neither,,0,0,0
1,16,7,ε 00 0 11 1 1111,6,True,1,00,0.8180490312536502,0,neither,far,1,1,1
1,17,7,ε,1,False,0,,,,neither,,0,0,0
1,18,7,ε,1,False,0,,,,neither,,0,0,0
1,19,7,ε,1,False,0,,,,neither,,0,0,0
"""


def test_sim_golden_run(capsys):
    code, out = run_cli(
        [
            "sim", "--d", "3", "--n", "4", "--t", "0.4", "--seed", "7",
            "--trials", "20", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == GOLDEN_SIM_RUN.splitlines()


def test_sim_deterministic(capsys):
    args = ["sim", "--d", "2", "--n", "3", "--t", "0.5", "--seed", "9", "--trials", "5"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    _, out3 = run_cli(args[:-1] + ["6"], capsys)
    assert out1 == out3[: len(out1)]  # prefix property: same stream per trial


def test_sim_zero_rate_identity(capsys):
    code, out = run_cli(
        ["sim", "--d", "2", "--n", "2", "--t", "0", "--seed", "3", "--trials", "4"],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines():
        row = json.loads(line)
        assert row["cycle"] == ["ε"] and row["length"] == 1


def test_sim_csv_rows(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _ = run_cli(
        [
            "sim", "--d", "2", "--n", "2", "--t", "0.4", "--seed", "2",
            "--trials", "10", "--format", "csv", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert "pivot" in rows[0] and "cycle" in rows[0]


def test_lazy_sim_rows_follow_the_model_law():
    # sim draws its bars lazily: the truncated share is p_n, the added bar's
    # edge is uniform (d^n of the |E| = 14 edges end on depth n), and each
    # row's pivot is read off its own two reach flags
    shape, t, trials = TreeShape(2, 3), 0.6, 20_000
    ns = dict(d=2, n="3", t=t, n1=1, seed=5, trials=trials, format="json")
    truncated = deepest = 0
    for row in cli._sim_rows(ns):
        plain, added = row["reached_plain"], row["reached_added"]
        assert plain == row["boundary_truncated"]
        want = "on" if added > plain else "off" if plain > added else "neither"
        assert row["pivot"] == want
        truncated += row["boundary_truncated"]
        deepest += row["added_depth_index"] == 0
    est = estimators.estimate_pn(shape, t, trials, 222)
    p = truncated / trials
    assert abs(p - est.mean) < 4 * math.sqrt(est.stderr**2 + p * (1 - p) / trials)
    q = shape.d**shape.n / shape.edge_count
    assert abs(deepest / trials - q) < 4 * math.sqrt(q * (1 - q) / trials)


def test_estimate_pn_value(capsys):
    code, out = run_cli(
        ["estimate", "pn", "--d", "3", "--n", "1", "--t", "0.4", "--trials", "20000",
         "--seed", "4"],
        capsys,
    )
    assert code == 0
    row = json.loads(out.strip())
    assert abs(row["mean"] - 0.6988) < 4 * row["stderr"] + 1e-4


def test_estimate_gw_fields(capsys):
    code, out = run_cli(["estimate", "gw", "--d", "10", "--t", "0.12"], capsys)
    assert code == 0
    row = json.loads(out.strip())
    assert row["p_upper"] <= 0.6 and 0 < row["q_ext"] < 1


def test_estimate_z_bracket_flag(capsys):
    code, out = run_cli(
        ["estimate", "z", "--d", "16", "--n", "3", "--t", "0.0625", "--trials", "2000",
         "--seed", "6"],
        capsys,
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["in_bracket"] is True
    assert row["bracket_lo"] < row["mean"] < row["bracket_hi"]


def test_scan_grid_and_bracket(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _ = run_cli(
        [
            "scan", "--d", "8", "--n", "2,3", "--t-grid", "0.10:0.16:0.005",
            "--trials", "200", "--seed", "5", "--format", "csv",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 13
    assert float(rows[0]["bracket_lo"]) == 0.1328125
    assert float(rows[0]["bracket_hi"]) == 0.15625
    # rows sorted by (d, n, t)
    keys = [(int(r["n"]), float(r["t"])) for r in rows]
    assert keys == sorted(keys)


def test_scan_empty_grid_exit_2(capsys):
    code = main(["scan", "--d", "8", "--n", "2", "--t-grid", " "])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("grid", ["0.1:0.2:-0.01", "0.1:0.2:0", "0.1:0.2:nan"])
def test_scan_grid_without_positive_step_exit_2(grid, capsys):
    code = main(["scan", "--d", "8", "--n", "2", "--t-grid", grid, "--trials", "10"])
    assert code == 2 and "positive step" in capsys.readouterr().err


@pytest.mark.parametrize("n, grid", [("4,4", "0.5"), ("4", "0.5,0.5")])
def test_scan_duplicate_depth_or_grid_point_exit_2(n, grid, capsys):
    # the rows of one d share the deepest depth's runs: a repeat is ambiguous
    code = main(["scan", "--d", "2", "--n", n, "--t-grid", grid, "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 2 and "duplicate" in captured.err and captured.out == ""


def test_estimate_z_output_is_independent_of_the_hash_seed():
    # the viable-location mass sums its edges in edge-index order, not in
    # the hash order of a frozenset of bytes
    src = str(Path(stirtree.__file__).resolve().parents[1])
    cmd = [
        sys.executable, "-m", "stirtree.cli", "estimate", "z", "--d", "4", "--n",
        "3", "--t", "0.3", "--trials", "2000", "--seed", "5", "--format", "csv",
    ]
    outs = []
    for hash_seed in ("0", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        res = subprocess.run(cmd, env=env, capture_output=True, check=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:5e-324"])
def test_scan_grid_point_cap_exit_2(grid, capsys):
    # 10^12 points and more: rejected from (lo, hi, step) before any list is built
    code = main(["scan", "--d", "8", "--n", "2", "--t-grid", grid])
    assert code == 2 and "over 10000 points" in capsys.readouterr().err


@pytest.mark.parametrize("points, code", [(10_001, 2), (10_000, 0)])
def test_scan_comma_grid_point_cap(points, code, tmp_path, capsys):
    # a comma list from --config is as long as the file: counted before parsing
    grid = ",".join(f"{k / 100_000:.5f}" for k in range(1, points + 1))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"t_grid": grid}))
    args = ["scan", "--d", "2", "--n", "1", "--trials", "1", "--config", str(config)]
    assert main(args) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "over 10000 points" in err
    else:
        assert len(out.splitlines()) == points


def test_scan_depth_list_cap(tmp_path, capsys):
    # a depth list from --config is as long as the file: its commas are
    # counted before any entry is parsed or any tree built
    config = tmp_path / "depths.json"
    config.write_text(json.dumps({"n": ",".join(["3"] * 10_001)}))
    start = time.monotonic()
    code = main(["scan", "--d", "2", "--t-grid", "0.5", "--trials", "1",
                 "--config", str(config)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "over 10000 entries" in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("t", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["sim", "--n", "2", "--trials", "10"],
        ["estimate", "pn", "--n", "2", "--trials", "10"],
        ["estimate", "gw"],
        ["estimate", "tails", "--n", "2", "--trials", "10"],
    ],
    ids=["sim", "pn", "gw", "tails"],
)
def test_rate_not_finite_and_nonnegative_exit_2(command, t, capsys):
    code = main(command + ["--d", "3", "--t", t])
    assert code == 2 and "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "z", "--trials", "0"],
        ["estimate", "tails", "--trials", "0"],
        ["estimate", "pn", "--workers", "0"],
        ["sim", "--trials", "-1"],
    ],
)
def test_counts_below_one_exit_2(args, capsys):
    code = main(args)
    assert code == 2 and "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n1", ["-5", "5"])
def test_sim_far_close_cut_off_the_tree_exit_2(n1, capsys):
    # the far/close cut sits at depth n - 2*n1: here 12 and -8 on a depth-2 tree
    code = main(
        ["sim", "--d", "2", "--n", "2", "--t", "0.5", "--trials", "2", "--n1", n1]
    )
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--n1 must be an integer with 0 <= 2*n1 <= n" in err


def test_tails_notes_on_stderr(capsys):
    code = main(
        ["estimate", "tails", "--d", "2", "--n", "1", "--t", "0.5", "--trials", "10"]
    )
    out, err = capsys.readouterr()
    assert code == 0 and out == ""
    assert err.splitlines() == [
        "cluster tail skipped: d=2 < 11*tau^2=11",
        "level pair (1,2) skipped: n-i < 1",
        "level pair (1,3) skipped: n-i < 1",
        "level pair (2,2) skipped: n-i < 1",
    ]


def test_verify_tails_detail_carries_every_note(monkeypatch, capsys):
    # the suite's (16, 4, 1/16) skips nothing, so a report with notes is stubbed in
    notes = ("cluster tail skipped: d=2 < 11*tau^2=11", "level pair (2,2) skipped: n-i < 1")
    report = estimators.TailReport((), (), notes)
    monkeypatch.setattr(estimators, "tail_checks", lambda *a, **k: report)
    code, out = run_cli(["verify", "--only", "tails"], capsys)
    assert code == 0
    assert out == (
        "[PASS] tail-bounds: 0 tail rows, 0 beyond bound+4se"
        f" ({notes[0]}; {notes[1]})\n"
    )


def test_worker_pool_clamped_to_jobs_and_cpus(monkeypatch, capsys):
    # a fake pool records the size asked for; no process is started
    sizes = []

    class FakePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # _count imports the pool class from its module when it builds one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: 4)
    base = ["estimate", "pn", "--d", "2", "--n", "2", "--t", "0.5", "--seed", "3"]
    for trials in ("20000", "5000", "100"):  # 5 jobs, 2 jobs, 1 job
        assert main(base + ["--trials", trials, "--workers", "1000000"]) == 0
    capsys.readouterr()
    assert sizes == [4, 2]


def test_worker_pool_spawns_its_workers(monkeypatch, capsys):
    # forking a process that runs a second thread (numpy's BLAS starts one)
    # can deadlock the child; a fake pool records the start method asked
    # for, so no process is started
    methods = []

    class FakePool:
        def __init__(self, max_workers, mp_context):
            methods.append(mp_context.get_start_method())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
    args = "estimate pn --d 2 --n 2 --t 0.5 --trials 9000 --workers 2".split()
    assert main(args) == 0
    capsys.readouterr()
    assert methods == ["spawn"]


def test_engine_error_exit_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise EngineError("trajectory revisited state (b'', 0.5)")

    monkeypatch.setattr(estimators, "estimate_pn", broken)
    code = main(["estimate", "pn", "--d", "2", "--n", "2", "--t", "0.5"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "engine error: trajectory revisited state (b'', 0.5)\n"


def test_capacity_exit_3(capsys):
    for args in (
        ["sim", "--d", "2", "--n", "70", "--t", "0.5"],
        # over the draw budget, refused before anything is drawn: 7.5 GiB
        # for one edge's heights
        ["sim", "--d", "2", "--n", "2", "--t", "1e9", "--trials", "1"],
        ["estimate", "pn", "--d", "2", "--n", "1", "--t", "1e9", "--trials", "1"],
    ):
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 3 and out == "", args
        assert err.startswith("capacity error:"), args


def test_sim_past_the_base_36_digits_exit_3(capsys):
    # sim rows name vertices by base-36 digit strings, so sim stops at d = 36
    # while the estimators run up to d = 255
    code = main(["sim", "--d", "40", "--n", "2", "--t", "0.02", "--trials", "3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "capacity error: string serialization supports degree <= 36\n"


def _python_under_memory_limit(*args):
    """Run Python in a child process under a 1.5 GB address-space limit, so
    a regression fails with a MemoryError instead of exhausting the host."""
    src = str(Path(stirtree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        preexec_fn=limit_memory, timeout=120,
    )


def _cli_under_memory_limit(*args):
    return _python_under_memory_limit("-m", "stirtree.cli", *args)


def test_capacity_exit_3_before_the_power_of_a_huge_depth():
    # 8**(10**10 + 1) takes 3.7 GB to compute just to refuse it
    start = time.monotonic()
    res = _cli_under_memory_limit("estimate", "pn", "--d", "8", "--n", "10000000000")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("capacity error:") and res.stderr.count("\n") == 1
    assert time.monotonic() - start < 10  # startup only, no power computed


_FIRST_CHUNK_OF_HUGE_TRIALS = """
import sys
import time

from stirtree import estimators
from stirtree.tree import TreeShape


class Sentinel(Exception):
    pass


def first_trial_raises(shape, t, gen, tally):
    # the first trial each chunk runs raises: in the first chunk, trial 0
    raise Sentinel


if __name__ == "__main__":  # a spawned worker imports this file as a module
    start = time.monotonic()
    try:
        estimators._count(
            first_trial_raises, "huge", TreeShape(2, 2), 0.5, 1, 10**14,
            int(sys.argv[1]),
        )
    except Sentinel:
        print(time.monotonic() - start)
"""


_ONE_WORKER_RUNS = """
import sys

import stirtree.cli as cli

for args in (
    "scan --d 2 --n 2,3 --t-grid 0.5,0.6 --trials 50 --workers 1",
    "estimate pn --d 2 --n 2 --t 0.5 --trials 50 --workers 1",
):
    assert cli.main(args.split()) == 0, args
pool = {"concurrent.futures", "multiprocessing"}.intersection(sys.modules)
assert not pool, f"loaded by a one-worker run: {sorted(pool)}"
"""


def test_one_worker_runs_load_no_process_pool():
    # --workers 1, the default, runs in process; the pool's modules cost
    # start-up time and resident memory that such a run does not use
    res = _python_under_memory_limit("-c", _ONE_WORKER_RUNS)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_trials_reach_the_first_chunk_at_once(workers, tmp_path):
    # 10**14 trials are 2.4e10 chunks: their jobs are made as they run, so
    # the first one runs at once instead of a MemoryError after every job
    # tuple is built; run from a file, whose trial function a spawned worker
    # can import
    script = tmp_path / "first_chunk.py"
    script.write_text(_FIRST_CHUNK_OF_HUGE_TRIALS)
    res = _python_under_memory_limit(str(script), str(workers))
    assert res.returncode == 0 and res.stderr == ""
    assert float(res.stdout) < 1.0


def test_sim_draws_lazily_at_a_depth_realize_would_refuse():
    # (8, 12) has 7.9e10 edges; sim draws only the poles its runs visit
    res = _cli_under_memory_limit(
        "sim", "--d", "8", "--n", "12", "--t", "0.138", "--trials", "200"
    )
    assert res.returncode == 0 and res.stderr == ""
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert [row["trial"] for row in rows] == list(range(200))


_SIM_WITH_ITS_PEAK = """
import resource
import sys

from stirtree.cli import main

code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)  # KiB on Linux
sys.exit(code)
"""


@pytest.mark.parametrize("seed, code", [(3, 0), (7, 3)])
def test_sim_at_the_draw_budget_exits_0_or_3(seed, code):
    # 2.4e6 bars on the d = 36 star fill the draw budget, and the root
    # orbit's record of one entry per state can rival them: every run stops
    # at the budget's count of crossings, so the command ends in a row or a
    # capacity error, never in a MemoryError under the 1.5 GB limit; the
    # peak, near 0.45 GB, stays under 650 MB only while a run keeps one
    # record entry per state and builds no second structure per crossing
    res = _python_under_memory_limit(
        "-c", _SIM_WITH_ITS_PEAK,
        "sim", "--d", "36", "--n", "1", "--n1", "0", "--t", "67000",
        "--trials", "1", "--seed", str(seed),
    )
    full = "capacity error: a recorded run would keep over 2500000 crossings\n"
    assert (res.returncode, res.stderr) == (code, full if code else "")
    *rows, peak_mb = res.stdout.splitlines()
    assert len(rows) == (code == 0)
    assert int(peak_mb) < 650


@pytest.mark.parametrize(
    "args, rows",
    [
        (["scan", "--d", "8", "--n", "64", "--t-grid", "0.142"], 1),
        (["scan", "--d", "32", "--n", "8,16,32", "--t-grid", "0.032"], 3),
        (["estimate", "pn", "--d", "16", "--n", "32", "--t", "0.066"], 1),
        (["estimate", "z", "--d", "8", "--n", "40", "--t", "0.142"], 1),
        # four cluster rows and three level rows
        (["estimate", "tails", "--d", "16", "--n", "32", "--t", "0.0625"], 7),
    ],
)
def test_deep_trees_run(args, rows, capsys):
    # each command runs a tree with d**(n+1) far past 2**64; the lazy runs
    # address vertices as byte strings and draw only the poles they visit
    code, out = run_cli(args + ["--trials", "200"], capsys)
    assert code == 0 and len(out.splitlines()) == rows


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--d", "8", "--n", "64,257", "--t-grid", "0.142"],
        ["estimate", "pn", "--d", "2", "--n", "257"],
        ["sim", "--d", "2", "--n", "257", "--n1", "0"],
    ],
)
def test_depth_past_the_bound_exit_3_at_once(args, capsys):
    start = time.monotonic()
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "capacity error: depth 257 is over the bound of 256\n"
    assert time.monotonic() - start < 1


def test_added_bar_past_the_index_range_exit_3(capsys):
    # |E| of (8, 21) is about 1.05e19, past the 2**63 of the edge draw
    code = main(["sim", "--d", "8", "--n", "21", "--t", "0.138", "--trials", "5"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("capacity error:") and "added bar" in err
    code, out = run_cli(["sim", "--d", "8", "--n", "20", "--t", "0.138", "--trials", "5"], capsys)
    assert code == 0 and len(out.splitlines()) == 5


_FILL_TO_THE_BUDGET = """
import resource

import numpy as np
from stirtree.bars import LazyPoissonBars
from stirtree.rng import TrialStreams
from stirtree.tree import _MAX_DEPTH, CapacityError, TreeShape

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

at_import = peak_mb()
bars = LazyPoissonBars(TreeShape(255, _MAX_DEPTH), 0.004, TrialStreams(1, "fill").at(0))
symbols = np.random.default_rng(0)
pairs = 0
try:
    while True:  # distinct poles one level above the leaves: 510 counts a pair
        v = bytes(symbols.integers(0, 255, size=_MAX_DEPTH - 1).tolist())
        bars.pole(v + b"\\x00")  # a leaf first: it draws v's child list
        bars.pole(v)  # and v's pole its parent's, keyed by a 255-byte address
        pairs += 1
except CapacityError as exc:
    print("capacity error:", exc)
print("pole pairs:", pairs)
print("peak MB above the import:", round(peak_mb() - at_import))
"""


def test_lazy_collection_at_the_depth_bound_stops_at_the_budget():
    # the counts a deep pole holds are charged to the budget, so the fill
    # stops there (4 882 pole pairs); kept as child lists they peak near
    # 30 MB, and 200 MB catches counts kept per edge under 255-byte keys,
    # which take about 0.8 GB
    res = _python_under_memory_limit("-c", _FILL_TO_THE_BUDGET)
    assert res.returncode == 0 and res.stderr == ""
    stopped, pairs, peak = res.stdout.splitlines()
    assert stopped.startswith("capacity error: one lazy collection")
    assert int(peak.rsplit(":", 1)[1]) < 200, (pairs, peak)


class _OneWayHops:
    """An inconsistent collection: the one joint on each pole at height 0.5
    leads on along a fixed chain of vertices and never back, so a run from
    the root never returns to its start."""

    shape = TreeShape(2, 2)
    count = 100  # keeps the crossing-count guard out of the way
    chain = [ROOT, b"\x00", b"\x01", b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x01\x01"]

    def pole(self, v):
        i = self.chain.index(v)
        nxt = self.chain[i + 1] if i + 1 < len(self.chain) else self.chain[1]
        return (0.5,), ((nxt, nxt),)


def test_root_orbit_that_never_closes_exit_4(monkeypatch, capsys):
    # the chain loops back to vertex 0, not the root: the engine's revisit
    # guard stops the root orbit instead of it looping forever
    class NeverCloses(_OneWayHops):
        def __init__(self, shape, t, gen):
            pass

        def heights_on(self, edge):
            return ()

    with pytest.raises(EngineError, match="revisited state"):
        stirring.orbit(_OneWayHops(), ROOT)
    monkeypatch.setattr("stirtree.cli.LazyPoissonBars", NeverCloses)
    code = main(["sim", "--d", "2", "--n", "2", "--t", "0.5", "--trials", "3"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("engine error: trajectory revisited state")


def test_root_orbit_engine_fault_exit_4(capsys, monkeypatch):
    one = BarCollection.from_bars(TreeShape(2, 2), [Bar(b"\x01", 0.3)])
    # an inclusive joint search skips the right-continuity rule
    monkeypatch.setattr(meander, "bisect_right", bisect.bisect_left)
    with pytest.raises(EngineError):
        stirring.orbit(one, ROOT)
    code = main(["sim", "--d", "2", "--n", "2", "--t", "0.5", "--trials", "3"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""  # trial 0 already fails
    assert err.startswith("engine error:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sim_rows_before_a_failing_trial_are_written(fmt, tmp_path, monkeypatch, capsys):
    args = ["sim", "--d", "2", "--n", "3", "--t", "0.5", "--seed", "9", "--trials", "5",
            "--format", fmt, "--out"]
    assert main(args + [str(tmp_path / "clean")]) == 0
    calls = []

    def orbit_failing_at_trial_2(bars, v):
        calls.append(v)
        if len(calls) == 3:
            raise EngineError("injected at trial 2")
        return stirring.orbit(bars, v)

    monkeypatch.setattr("stirtree.cli.orbit", orbit_failing_at_trial_2)
    code = main(args + [str(tmp_path / "cut")])
    _, err = capsys.readouterr()
    assert code == 4 and err == "engine error: injected at trial 2\n"
    cut = (tmp_path / "cut").read_text().splitlines()
    header = 1 if fmt == "csv" else 0
    assert len(cut) == header + 2
    assert cut == (tmp_path / "clean").read_text().splitlines()[: header + 2]


def test_bad_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "bogus", "--d", "2"])
    capsys.readouterr()
    assert exc.value.code == 2
    code = main(["sim", "--d", "1", "--n", "2", "--t", "0.4"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "args, unread",
    [
        (
            ["verify", "--only", "oracle", "--trials", "3"],
            ["--d", "7", "--n", "9", "--t", "9", "--n1", "5", "--format", "csv"],
        ),
        (
            ["scan", "--d", "2", "--n", "2", "--t-grid", "0.5", "--trials", "5"],
            ["--t", "99", "--n1", "7"],
        ),
        (
            ["estimate", "pn", "--d", "2", "--n", "2", "--t", "0.5", "--trials", "5"],
            ["--n1", "9"],
        ),
        (
            ["estimate", "gw", "--d", "8", "--t", "0.14"],
            ["--n", "99", "--trials", "5", "--seed", "3", "--workers", "4"],
        ),
    ],
    ids=["verify", "scan", "estimate", "gw"],
)
def test_flags_a_subcommand_does_not_read_exit_2(args, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args + unread)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(unread)}" in err


def test_config_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 2, "n": 2, "t": 0.4, "trials": 3, "seed": 11}))
    code, out = run_cli(["sim", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    # explicit flags win over the config file
    code, out = run_cli(["sim", "--config", str(cfg), "--trials", "1"], capsys)
    assert len(out.strip().splitlines()) == 1
    # a bad config is a usage error (SystemExit, not a traceback), found
    # before any work
    bad = {
        "missing": None,
        "not-json": "{d: 2",
        "not-an-object": "[1, 2]",
        "text-for-a-number": json.dumps({"t": "0.5"}),
        "fraction-for-an-integer": json.dumps({"d": 2.5}),
        "unknown-key": json.dumps({"trails": 5}),
    }
    for name, text in bad.items():
        path = tmp_path / f"{name}.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--trials", "1", "--config", str(path)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", name
        assert "error:" in err, name


@pytest.mark.parametrize(
    "args",
    [
        ["sim", "--trials", "1"],
        ["verify", "--only", "oracle", "--trials", "3"],
    ],
    ids=["sim", "verify"],
)
def test_unwritable_out_exit_2_before_any_work(args, tmp_path, monkeypatch, capsys):
    def no_work(*a, **k):
        raise AssertionError("ran before the --out path was checked")

    monkeypatch.setattr("stirtree.cli.LazyPoissonBars", no_work)
    monkeypatch.setattr("stirtree.verify.run_suite", no_work)
    code = main(args + ["--out", str(tmp_path / "missing-dir" / "x.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("cannot write --out:") and "No such file" in err


def test_verify_subsuite_and_verdict(tmp_path, capsys):
    verdict = tmp_path / "verdict.json"
    code, out = run_cli(
        ["verify", "--only", "oracle,exploration", "--trials", "200", "--seed", "2",
         "--out", str(verdict)],
        capsys,
    )
    assert code == 0
    assert "[PASS] oracle-equivalence" in out
    data = json.loads(verdict.read_text())
    assert data["passed"] is True and len(data["checks"]) == 2


def test_verify_trials_leave_the_conditional_scale_alone():
    # the conditional check keeps its fixed 40 x 25, whatever --trials says
    (res,) = verify.run_suite(1, trials=5, only=("conditional",))
    assert " over 40 collections x 25," in res.detail


def test_verify_unknown_check_exit_2(capsys):
    code = main(["verify", "--only", "oracle,bogus", "--trials", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and "unknown check 'bogus'" in err
    assert out == ""  # rejected before any check runs


def test_verify_repeated_check_exit_2(capsys):
    code = main(["verify", "--only", "oracle,oracle", "--trials", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and "check 'oracle' is named twice" in err
    assert out == ""  # rejected before any check runs


def test_verify_russo_with_zero_stderr_and_a_gap_fails(capsys):
    # two trials of one outcome: both standard errors are 0, but lhs != rhs
    assert run_cli(["verify", "--only", "russo", "--trials", "2", "--seed", "1"],
                   capsys) == (1, (
        "[FAIL] russo-derivative: lhs=6.0000±0.0000 rhs=0.0000±0.0000"
        " bias=0.0000 z=inf (replay: {'seed': 1})\n"
    ))


@pytest.mark.parametrize(
    "seed, check, code, line",
    [
        # the two known false alarms of the KS checks, pinned as they stand
        (1406002, "conditional", 1,
         "[FAIL] conditional-sampler: pooled KS p=0.0007214 over 40 collections"
         " x 25, rejection efficiency 0.016 (replay: {'seed': 1406002})"),
        (9404000, "exploration", 1,
         "[FAIL] exploration-law: 0 touched leftovers, count z=-0.22, position KS"
         " p=0.0002952 (replay: {'seed': 9404000})"),
        (10, "shift", 0,
         "[PASS] shift-invariance: min pairwise KS p=0.8188 at heights (0.0, 0.75)"),
    ],
)
def test_verify_ks_golden_lines(seed, check, code, line, capsys):
    assert run_cli(["verify", "--seed", str(seed), "--only", check], capsys) == (
        code, line + "\n"
    )


@pytest.mark.parametrize("trials", [625_001, 300_000_000])
def test_verify_shift_past_the_draw_budget_exits_3(trials):
    # the check keeps four return times per trial: past 625 000 trials that
    # is over the draw budget, refused before the first draw
    res = _cli_under_memory_limit("verify", "--only", "shift", "--trials", str(trials))
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == (
        f"capacity error: the shift check at {trials} trials per height would"
        f" draw about {4 * trials:.3g} values, over the budget of 2500000\n"
    )


# every check of the default suite at --seed 12; the lines pin each value
# read off a run's record: the inclusions and escape routes, the viable
# mass, the conditional sampler's coverage and exploration's crossed bars
GOLDEN_VERIFY_DEFAULT_SUITE = [
    "[PASS] oracle-equivalence: 2400 instances, 0 mismatches",
    "[PASS] event-inclusions: 3000 samples over t=(0.2, 0.33, 0.5), 0 violations",
    "[PASS] shift-invariance: min pairwise KS p=0.7948 at heights (0.25, 0.5)",
    "[PASS] russo-derivative: lhs=0.8533±0.0067 rhs=0.8465±0.0084 bias=0.0034 z=0.60",
    "[PASS] tail-bounds: 7 tail rows, 0 beyond bound+4se",
    "[PASS] viable-mass-bracket: mean=13.692±0.031 bracket [5.886, 19.200]",
    "[PASS] conditional-sampler: pooled KS p=0.8882 over 40 collections x 25,"
    " rejection efficiency 0.018",
    "[PASS] exploration-law: 0 touched leftovers, count z=-0.29, position KS p=0.558",
]


def test_verify_default_suite_golden_lines(capsys):
    # the full suite at its default scales is the verify contract
    code, out = run_cli(["verify", "--seed", "12"], capsys)
    assert code == 0
    assert out.splitlines() == GOLDEN_VERIFY_DEFAULT_SUITE


def test_injected_fault_caught_with_replay_seed(monkeypatch):
    # breaking the right-continuity rule must be caught by the oracle check
    monkeypatch.setattr(meander, "bisect_right", bisect.bisect_left)
    res = check_oracle_equivalence(40, seed=31)
    assert not res.passed
    assert res.replay["seed"] == 31
    assert "trial" in res.replay["first_failure"]


def test_oracle_check_fails_on_a_permutation_that_is_not_a_bijection(
    monkeypatch, capsys
):
    # an engine whose orbits lose a vertex builds no permutation: a mismatch
    # with replay coordinates, not a usage error (exit 2)
    orbit = stirring.orbit

    def lossy(bars, v):  # drops the last vertex of each cycle of length >= 3
        cyc = orbit(bars, v)
        return cyc[:-1] if len(cyc) >= 3 else cyc

    monkeypatch.setattr(stirring, "orbit", lossy)
    args = ["verify", "--only", "oracle", "--trials", "40", "--seed", "31"]
    assert run_cli(args, capsys) == (1, (
        "[FAIL] oracle-equivalence: 40 instances, 27 mismatches (replay: {'seed':"
        " 31, 'first_failure': {'d': 2, 'n': 2, 't': 1.0, 'trial': 2, 'error':"
        " 'mapping is not injective'}})\n"
    ))


def test_conditional_check_fails_on_an_accepted_bar_outside_the_viable_set(
    monkeypatch, capsys
):
    # a detector that accepts every bar accepts bars the viable set does not
    # hold: a violation with replay coordinates, not a usage error (exit 2)
    monkeypatch.setattr(verify, "crossing_without_bottleneck", lambda *a: True)
    code, out = run_cli(["verify", "--only", "conditional", "--seed", "3"], capsys)
    assert code == 1 and out.startswith("[FAIL] conditional-sampler:")
    assert out.endswith(
        ", 976 accepted bars outside the viable set"
        " (replay: {'seed': 3, 'first_failure': {'instance': 0, 'try': 1}})\n"
    )
    # the coordinates replay the bar: the first draw of instance 0's stream
    bars = LazyPoissonBars(
        TreeShape(3, 4), 0.4, TrialStreams(3, "cond-b", 3, 4, 0.4).at(0)
    ).realize()
    bar = sample_added(bars, TrialStreams(3, "cond-rej", 3, 4, 0.4).at(0))
    vl = viable_locations(bars, meander.hit_level(bars), multibar_cluster(bars))
    assert not vl.contains(bar.edge, bar.height)


def test_conditional_check_pairs_its_two_samples(monkeypatch):
    # a detector that also accepts every tenth bar it would refuse accepts
    # some outside the viable set; the direct arm is still drawn to the
    # count of accepted bars inside it, collection by collection
    detector = verify.crossing_without_bottleneck
    refused = itertools.count()
    monkeypatch.setattr(
        verify, "crossing_without_bottleneck",
        lambda *a: detector(*a) or next(refused) % 10 == 0,
    )
    sizes = []
    two_sample = ks.two_sample_pvalue

    def recording(a, b):
        sizes.append((len(a), len(b)))
        return two_sample(a, b)

    monkeypatch.setattr(ks, "two_sample_pvalue", recording)
    res = verify.check_conditional_sampler(4, 25, 3)
    assert not res.passed and "accepted bars outside the viable set" in res.detail
    ((rejection, direct),) = sizes
    assert rejection == direct < 4 * 25


def _oracle_outcome(bars):
    """(engine equals oracle, EngineError message or None)."""
    try:
        return stirring_permutation(bars) == transposition_oracle(bars), None
    except EngineError as exc:
        return False, str(exc)


@pytest.mark.parametrize("seed", [32, 42])  # first failures at trials 0 and 1
def test_injected_fault_replays_from_trial_stream(seed, monkeypatch):
    # the replay coordinates rebuild the first failing instance exactly
    with monkeypatch.context() as patch:
        patch.setattr(meander, "bisect_right", bisect.bisect_left)
        first = check_oracle_equivalence(40, seed).replay["first_failure"]
        d, n, t = first["d"], first["n"], first["t"]
        gen = TrialStreams(seed, "oracle", d, n, t).at(first["trial"])
        bars = LazyPoissonBars(TreeShape(d, n), t, gen).realize()
        assert _oracle_outcome(bars) == (False, first.get("error"))
    assert _oracle_outcome(bars) == (True, None)  # the fault, not the sample
