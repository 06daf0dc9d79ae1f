"""Tests of the benchmark itself: reduced-scale runs and live gates.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

ROOT = run.ROOT


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["meander.run.calls"]["value"] > 0
        assert metrics["cli.main.self_s"]["value"] > 0


def test_tracer_counts_direct_reentry_once_and_splits_self_time():
    tracer = child.Tracer()
    calls = []

    def inner():
        calls.append("inner")

    def pole(depth):
        calls.append("pole")
        if depth:
            traced_pole(depth - 1)  # like LazyPoissonBars.pole -> _PoleIndexMixin.pole
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_pole = tracer.wrap("pole", pole)
    traced_run = tracer.wrap("run", lambda: traced_pole(2))
    traced_run()
    spans = {(r["name"], r["parent"]): r for r in tracer.records()}
    assert calls.count("pole") == 3
    assert spans[("pole", "run")]["calls"] == 1
    assert spans[("inner", "pole")]["calls"] == 3
    assert set(spans) == {("run", ""), ("pole", "run"), ("inner", "pole")}
    self_total = sum(r["total_s"] - r["child_s"] for r in spans.values())
    assert self_total == pytest.approx(spans[("run", "")]["total_s"])


def test_any_integer_seed_maps_to_cli_seeds_apart_from_the_reference():
    reference_seed = json.loads((run.BENCH_DIR / "reference.json").read_text())["seed"]
    for seed in (0, 1, 999_999, 1_000_000, 4_242_424_242, 2**63, -5):
        assert run.parse_args(["--workload", "sim-rows", "--seed", str(seed)]).seed == seed
        cli_seeds = [run.cli_seed_for(seed, k) for k in range(run.SEED_STRIDE)]
        assert len(set(cli_seeds)) == run.SEED_STRIDE
        assert all(0 <= s < 2**53 and s != reference_seed for s in cli_seeds)


def test_exits_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = _bench("--workload", "scan-critical", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


# --- the gates are live ----------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def _scan_rows(reference, trials):
    rows = []
    for (d, n, t), ref in sorted(reference.items()):
        p = ref["p"]
        rows.append({"d": d, "n": n, "t": t, "p_hat": p,
                     "stderr": (p * (1 - p) / trials) ** 0.5,
                     "bracket_lo": 1 / d + 0.5 / d**2, "bracket_hi": 1 / d + 2 / d**2,
                     "schema": 1})
    return rows


def test_scan_gate_counts_a_perturbed_row(reference):
    rows = _scan_rows(reference, 4000)
    assert run.gate_scan(rows, 4000, reference) == (9, 0)
    rows[4]["p_hat"] += 0.05  # about 7 sigma at 4000 trials
    rows[4]["stderr"] = (rows[4]["p_hat"] * (1 - rows[4]["p_hat"]) / 4000) ** 0.5
    assert run.gate_scan(rows, 4000, reference) == (9, 1)


def test_scan_gate_counts_missing_and_malformed_rows(reference):
    rows = _scan_rows(reference, 4000)
    assert run.gate_scan(rows[1:], 4000, reference) == (9, 1)
    rows[0]["schema"] = 2
    rows[1]["stderr"] *= 2
    assert run.gate_scan(rows, 4000, reference) == (9, 2)
    assert run.gate_scan(rows + rows[2:3], 4000, reference) == (9, 3)


VERIFY_OK = "\n".join(f"[PASS] {name}: detail" for name in run.VERIFY_CHECKS)
VERDICT_OK = {"checks": [{"name": name, "passed": True} for name in run.VERIFY_CHECKS]}


def test_verify_gate_counts_a_fail_line():
    assert run.gate_verify(VERIFY_OK, VERDICT_OK, 0) == (8, 0)
    failing = VERIFY_OK.replace("[PASS] russo-derivative", "[FAIL] russo-derivative")
    assert run.gate_verify(failing, VERDICT_OK, 1) == (8, 1)


def test_verify_gate_counts_missing_checks_and_bad_exit():
    dropped = "\n".join(VERIFY_OK.splitlines()[:-1])
    assert run.gate_verify(dropped, VERDICT_OK, 0) == (8, 1)
    assert run.gate_verify(VERIFY_OK, None, 0) == (8, 8)
    assert run.gate_verify(VERIFY_OK, VERDICT_OK, 2) == (8, 1)


def _sim_lines(trials, seed, truncated):
    rows = []
    for i in range(trials):
        hit = i < truncated
        rows.append({"schema": 1, "trial": i, "seed": seed,
                     "cycle": ["ε", "0"], "length": 2, "boundary_truncated": hit,
                     "crossed": 0, "bottleneck_edge": "", "bottleneck_height": "",
                     "no_escape": "", "pivot": "neither", "bottleneck_zone": "",
                     "added_depth_index": 3, "reached_plain": int(hit),
                     "reached_added": int(hit)})
    return [json.dumps(r) for r in rows]


def test_sim_gate_checks_rows_and_the_truncated_share(reference):
    ref = reference[(8, 4, 0.145)]["p"]
    good = _sim_lines(1000, 7, round(1000 * ref))
    assert run.gate_sim(good, 1000, 7, reference) == (1, 0)
    assert run.gate_sim(good[:-1], 1000, 7, reference) == (1, 1)
    assert run.gate_sim(good, 1000, 8, reference) == (1, 1)
    bad_row = json.loads(good[5])
    bad_row["schema"] = 2
    assert run.gate_sim(good[:5] + [json.dumps(bad_row)] + good[6:], 1000, 7, reference) == (1, 1)
    skewed = _sim_lines(1000, 7, round(1000 * ref) + 120)
    assert run.gate_sim(skewed, 1000, 7, reference) == (1, 1)
