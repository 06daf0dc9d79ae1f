#!/usr/bin/env python3
"""stirtree benchmark: three single-process workloads through the real CLI.

    python3 perfbench/run.py --workload scan-critical --seed 1 --seconds 30 --trace 0

Runs the ``stirtree`` CLI from this checkout's ``src`` with ``--workers 1``,
checks every output against the rules in the ``gate_*`` functions, and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (untraced CLI processes); with
``--trace 1`` they are the per-layer ones from a traced run (``child.py``).
Earlier lines give a provenance record and per-invocation details.

Exits 2 without a result when the program cannot be started, for instance
in a directory that holds only the benchmark.  See README.md in this
directory for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PY = sys.executable

# The reference table was made with the odd seed 1_000_000_007 (see
# reference.json); every benchmark seed maps to even CLI seeds (cli_seed()),
# so the two never share a random stream.
SEED_STRIDE = 1000
SEED_MODULUS = 2**40

# Two-sided normal tail 5.7e-7 per gated estimate: across the ~10^4 estimates
# a full set of benchmark runs gates, a false alarm has odds below 1 %.
Z_BOUND = 5.0

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0

SCAN_D = 8
SCAN_DEPTHS = (4, 6, 8)
SCAN_GRID = "0.13:0.16:0.015"
SCAN_TS = (0.13, 0.145, 0.16)  # the points SCAN_GRID expands to
SIM_POINT = (8, 4, 0.145)

# Names `stirtree verify` prints for its default suite, in suite order.
VERIFY_CHECKS = (
    "oracle-equivalence",
    "event-inclusions",
    "shift-invariance",
    "russo-derivative",
    "tail-bounds",
    "viable-mass-bracket",
    "conditional-sampler",
    "exploration-law",
)
# Trial counts verify.run_suite gives the eight checks at default scale
# (oracle 2400, inclusions 3000, shift 2000, russo 150000, tails 200000,
# z 20000, conditional 40, exploration 600); the numerator of the suite's
# trials_per_s.
VERIFY_SUITE_TRIALS = 378_040

SIM_KEYS = frozenset((
    "schema", "trial", "seed", "cycle", "length", "boundary_truncated",
    "crossed", "bottleneck_edge", "bottleneck_height", "no_escape", "pivot",
    "bottleneck_zone", "added_depth_index", "reached_plain", "reached_added",
))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.substream.calls": "count",
    "rng.substream.self_s": "s",
    "tree.edge_from_index.calls": "count",
    "tree.edge_from_index.self_s": "s",
    "bars.pole.calls": "count",
    "bars.pole.self_s": "s",
    "bars.sample_poisson.calls": "count",
    "bars.sample_poisson.self_s": "s",
    "bars.with_added.calls": "count",
    "bars.with_added.self_s": "s",
    "meander.run.calls": "count",
    "meander.run.self_s": "s",
    "meander.crossings": "count",
    "meander.wraps": "count",
    "meander.hit_ratio": "ratio",
    "stirring.oracle.calls": "count",
    "stirring.oracle.self_s": "s",
    "stirring.permutation.self_s": "s",
    "events.detect.calls": "count",
    "events.detect.self_s": "s",
    "events.viable_locations.self_s": "s",
    "events.multibar_cluster.self_s": "s",
    "estimators.estimate_pn.calls": "count",
    "estimators.estimate_pn.self_s": "s",
    "estimators.russo_check.self_s": "s",
    "estimators.z_estimate.self_s": "s",
    "estimators.tail_checks.self_s": "s",
    **{f"verify.{c}.wall_s": "s" for c in (
        "oracle", "inclusions", "shift", "russo",
        "tails", "z", "conditional", "exploration",
    )},
    "verify.conditional.accept_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.rows_written": "count",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
}


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


# --- correctness gates ---------------------------------------------------------


def load_reference(path: Path = BENCH_DIR / "reference.json") -> dict:
    """Reference p_n per (d, n, t): {"p": ..., "stderr": ...}."""
    with open(path) as fh:
        obj = json.load(fh)
    return {
        (r["d"], r["n"], round(r["t"], 9)): {"p": r["p_hat"], "stderr": r["stderr"]}
        for r in obj["rows"]
    }


def within_reference(p_hat: float, trials: int, ref: dict, z: float = Z_BOUND) -> bool:
    """Whether a trials-sample frequency agrees with the reference at z sigma."""
    p = ref["p"]
    sigma = math.sqrt(p * (1.0 - p) / trials + ref["stderr"] ** 2)
    return abs(p_hat - p) <= z * sigma


def _scan_row_ok(row: dict, trials: int, ref: dict) -> bool:
    try:
        p, se = float(row["p_hat"]), float(row["stderr"])
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
    except (KeyError, TypeError, ValueError):
        return False
    d = row["d"]
    return (
        row.get("schema") == 1
        and 0.0 <= p <= 1.0
        and math.isclose(se, math.sqrt(p * (1.0 - p) / trials), rel_tol=1e-9, abs_tol=1e-15)
        and math.isclose(lo, 1.0 / d + 0.5 / d**2, rel_tol=1e-12)
        and math.isclose(hi, 1.0 / d + 2.0 / d**2, rel_tol=1e-12)
        and within_reference(p, trials, ref)
    )


def gate_scan(rows: list, trials: int, reference: dict) -> tuple[int, int]:
    """(attempted, failed) over the scan points; one operation per point.

    A point fails when its row is missing, duplicated or malformed, or when
    p_hat lies more than Z_BOUND sigma from the reference table.
    """
    expected = [(SCAN_D, n, t) for n in SCAN_DEPTHS for t in SCAN_TS]
    seen: dict[tuple, list] = {}
    for row in rows:
        try:
            key = (row["d"], row["n"], round(float(row["t"]), 9))
        except (KeyError, TypeError, ValueError):
            continue
        seen.setdefault(key, []).append(row)
    failed = 0
    for key in expected:
        got = seen.get(key, [])
        if len(got) != 1 or not _scan_row_ok(got[0], trials, reference[key]):
            failed += 1
    return len(expected), failed


def _sim_row_ok(row, i: int, cli_seed: int) -> bool:
    if not isinstance(row, dict) or set(row) != SIM_KEYS:
        return False
    cycle = row["cycle"]
    plain, added = row["reached_plain"], row["reached_added"]
    if plain and not added:
        pivot = "off"
    elif added and not plain:
        pivot = "on"
    else:
        pivot = "neither"
    return (
        row["schema"] == 1
        and row["trial"] == i
        and row["seed"] == cli_seed
        and isinstance(cycle, list)
        and cycle[:1] == ["ε"]
        and len(set(cycle)) == len(cycle) == row["length"]
        and isinstance(row["boundary_truncated"], bool)
        and plain == int(row["boundary_truncated"])
        and row["pivot"] == pivot
        and (pivot == "neither" or row["crossed"] == 1)
    )


def gate_sim(lines: list[str], trials: int, cli_seed: int, reference: dict) -> tuple[int, int]:
    """(1, failed) for one sim run: every row well formed, and the
    boundary_truncated share within Z_BOUND sigma of the reference p_n."""
    if len(lines) != trials:
        return 1, 1
    truncated = 0
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except ValueError:
            return 1, 1
        if not _sim_row_ok(row, i, cli_seed):
            return 1, 1
        truncated += row["boundary_truncated"]
    ref = reference[(SIM_POINT[0], SIM_POINT[1], round(SIM_POINT[2], 9))]
    return 1, int(not within_reference(truncated / trials, trials, ref))


def gate_verify(stdout: str, verdict: dict | None, rc: int) -> tuple[int, int]:
    """(attempted, failed) over the default suite; one operation per check.

    A check fails unless its stdout line reads [PASS] and the verdict file
    marks it passed; a nonzero exit fails at least one check.
    """
    status = {}
    for line in stdout.splitlines():
        if line.startswith("[") and "] " in line and ":" in line:
            tag, rest = line.split("] ", 1)
            status[rest.split(":", 1)[0]] = tag[1:]
    passed = {}
    if isinstance(verdict, dict):
        for check in verdict.get("checks", []):
            passed[check.get("name")] = check.get("passed") is True
    failed = sum(
        1 for name in VERIFY_CHECKS if status.get(name) != "PASS" or not passed.get(name)
    )
    if rc != 0:
        failed = max(failed, 1)
    return len(VERIFY_CHECKS), failed


# --- workloads ---------------------------------------------------------------------


def _json_lines(text: str) -> list:
    rows = []
    for line in text.splitlines():
        try:
            rows.append(json.loads(line))
        except ValueError:
            pass
    return rows


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; ``trials`` is per invocation."""

    name: str
    trials: int
    smoke_trials: int

    def scale(self, smoke: bool) -> int:
        return self.smoke_trials if smoke else self.trials

    def output(self, inv: "Invocation") -> str:
        return inv.out.read_text() if inv.out.exists() else ""

    def rows_written(self, inv: "Invocation") -> int:
        return len(self.output(inv).splitlines())


class ScanWorkload(Workload):
    def cli_args(self, smoke: bool) -> list[str]:
        return ["scan", "--d", str(SCAN_D), "--n", ",".join(map(str, SCAN_DEPTHS)),
                "--t-grid", SCAN_GRID, "--trials", str(self.scale(smoke))]

    def trials_done(self, smoke: bool) -> int:
        return self.scale(smoke) * len(SCAN_DEPTHS) * len(SCAN_TS)

    def gate(self, inv: "Invocation", reference: dict, smoke: bool) -> tuple[int, int]:
        attempted, failed = gate_scan(_json_lines(self.output(inv)), self.scale(smoke), reference)
        return attempted, failed if inv.rc == 0 else attempted


class SimWorkload(Workload):
    def cli_args(self, smoke: bool) -> list[str]:
        d, n, t = SIM_POINT
        return ["sim", "--d", str(d), "--n", str(n), "--t", str(t),
                "--trials", str(self.scale(smoke))]

    def trials_done(self, smoke: bool) -> int:
        return self.scale(smoke)

    def gate(self, inv: "Invocation", reference: dict, smoke: bool) -> tuple[int, int]:
        lines = self.output(inv).splitlines()
        attempted, failed = gate_sim(lines, self.scale(smoke), inv.cli_seed, reference)
        return attempted, failed if inv.rc == 0 else attempted


class VerifyWorkload(Workload):
    def cli_args(self, smoke: bool) -> list[str]:
        # the default suite; smoke runs give every check one reduced scale
        return ["verify"] + (["--trials", str(self.smoke_trials)] if smoke else [])

    def trials_done(self, smoke: bool) -> int:
        return VERIFY_SUITE_TRIALS

    def gate(self, inv: "Invocation", reference: dict, smoke: bool) -> tuple[int, int]:
        try:
            verdict = json.loads(self.output(inv))
        except ValueError:
            verdict = None
        return gate_verify(inv.stdout.read_text(), verdict, inv.rc)

    def rows_written(self, inv: "Invocation") -> int:
        return 0  # --out holds the verdict, not rows


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-critical", trials=3000, smoke_trials=200),
        VerifyWorkload("verify-suite", trials=0, smoke_trials=200),
        SimWorkload("sim-rows", trials=800, smoke_trials=40),
    )
}


# --- processes ------------------------------------------------------------------------


@dataclass
class Invocation:
    cli_seed: int
    rc: int
    wall_s: float
    startup_s: float | None  # interpreter start and imports, seen from the child
    rss_mb: float
    stdout: Path
    out: Path
    record: dict


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path, timeout: float) -> tuple:
    """Run one child to completion.

    Returns (exit code, wall seconds, peak RSS in MB, ``time.monotonic()`` at
    spawn).  The child is killed after ``timeout`` seconds; every path waits
    for it.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned


def cli_seed_for(seed: int, k: int) -> int:
    """The CLI seed of invocation ``k`` under benchmark seed ``seed``.

    Any integer seed is accepted; the result is even, non-negative and below
    2**53, and distinct for distinct (seed mod 2**40, k < SEED_STRIDE).
    """
    return 2 * ((seed % SEED_MODULUS) * SEED_STRIDE + k)


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.started = time.perf_counter()
        self.count = 0

    def _timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def _paths(self, tag: str) -> tuple[Path, Path]:
        self.count += 1
        base = self.work / f"{self.count:03d}-{tag}"
        return base.with_suffix(".stdout"), base.with_suffix(".stderr")

    def import_time(self) -> float:
        stdout, stderr = self._paths("import")
        rc, wall, _, _ = spawn([PY, "-c", "import stirtree.cli"], stdout, stderr, self._timeout())
        if rc != 0:
            raise BenchError(f"cannot import stirtree.cli:\n{stderr.read_text()[-2000:]}")
        return wall

    def invoke(self, k: int, traced: bool = False) -> Invocation:
        cli_seed = cli_seed_for(self.seed, k)
        stdout, stderr = self._paths("traced" if traced else "cli")
        out = stdout.with_suffix(".out")
        timing = stdout.with_suffix(".child.json")
        args = self.workload.cli_args(self.smoke) + [
            "--seed", str(cli_seed), "--workers", "1", "--out", str(out)]
        cmd = [PY, str(BENCH_DIR / "child.py"), str(timing)]
        cmd += ["--trace", "--"] if traced else ["--"]
        rc, wall, rss, spawned = spawn(cmd + args, stdout, stderr, self._timeout())
        if rc not in (0, 1):
            print(f"# exit {rc}: {stderr.read_text()[-500:].strip()}")
        try:
            record = json.loads(timing.read_text())
        except (OSError, ValueError):
            record = {}
        startup = record["ready"] - spawned if "ready" in record else None
        return Invocation(cli_seed, rc, wall, startup, rss, stdout, out, record)


# --- metrics ---------------------------------------------------------------------------


def per_layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float,
                      rows_written: int) -> dict[str, float]:
    def pick(name, parent=None):
        return [s for s in spans if s["name"] == name and (parent is None or s["parent"] == parent)]

    def calls(name, parent=None):
        return sum(s["calls"] for s in pick(name, parent))

    def self_s(name):
        return sum((s["total_s"] - s["child_s"] for s in pick(name)), 0.0)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(base)
        elif kind == "self_s":
            out[metric] = self_s(base)
        elif metric.startswith("verify.") and kind == "wall_s":
            out[metric] = sum((s["total_s"] for s in pick(base)), 0.0)
    runs = pick("meander.run")
    n_runs = sum(s["calls"] for s in runs)
    out["meander.crossings"] = calls("bars.pole", "meander.run") - n_runs
    out["meander.wraps"] = sum(s["x"] for s in runs)
    out["meander.hit_ratio"] = sum(s["y"] for s in runs) / n_runs if n_runs else 0.0
    cnb = pick("events.crossing_without_bottleneck", "verify.conditional")
    n_cnb = sum(s["calls"] for s in cnb)
    out["verify.conditional.accept_ratio"] = sum(s["x"] for s in cnb) / n_cnb if n_cnb else 0.0
    out["cli.rows_written"] = rows_written
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    out["trace.wall_s"] = traced_wall
    out["trace.unspanned_s"] = traced_wall - sum(s["total_s"] - s["child_s"] for s in spans)
    return out


def print_spans(spans: list[dict]) -> None:
    print(f"# {'span':<38} {'parent':<26} {'calls':>10} {'total_s':>9} {'self_s':>9}")
    for s in sorted(spans, key=lambda s: s["child_s"] - s["total_s"]):
        print(f"# {s['name']:<38} {s['parent'] or '-':<26} {s['calls']:>10} "
              f"{s['total_s']:>9.4f} {s['total_s'] - s['child_s']:>9.4f}")


# --- provenance ----------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, load_start: tuple) -> dict:
    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:  # not an enclosing repository
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load_start),
    }


# --- main ------------------------------------------------------------------------------------


def run(args, work: Path, load_start: tuple) -> dict:
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    runner = Runner(workload, args.seed, work, args.smoke)
    attempted = failed = 0

    def account(inv: Invocation) -> None:
        nonlocal attempted, failed
        a, f = workload.gate(inv, reference, args.smoke)
        attempted += a
        failed += f
        startup = "-" if inv.startup_s is None else f"{inv.startup_s:.4f}"
        print(f"# {workload.name} seed={inv.cli_seed} exit={inv.rc} wall_s={inv.wall_s:.4f} "
              f"startup_s={startup} peak_rss_mb={inv.rss_mb:.1f} attempted={a} failed={f}")

    runner.import_time()  # compiles bytecode; not measured
    print(json.dumps({"provenance": provenance(args, load_start)}))
    if args.trace:
        plain = runner.invoke(0)
        account(plain)
        traced = runner.invoke(0, traced=True)
        account(traced)
        if "spans" not in traced.record:
            raise BenchError("traced run wrote no spans")
        for target in traced.record["missing"]:
            print(f"# not traced, absent from this version: {target}")
        print_spans(traced.record["spans"])
        values = per_layer_metrics(traced.record["spans"], traced.wall_s, plain.wall_s,
                                   workload.rows_written(traced))
        units = PER_LAYER
    else:
        repeats = 2 if args.smoke else SETUP_REPEATS
        setup_s = statistics.median(runner.import_time() for _ in range(repeats))
        # Invocations run back to back while the next one, at the median
        # length so far, still ends within --seconds; at least one runs.
        invocations = []
        start = time.perf_counter()
        while not invocations or (
            time.perf_counter() - start + statistics.median(inv.wall_s for inv in invocations)
            <= args.seconds
        ):
            inv = runner.invoke(len(invocations))
            account(inv)
            invocations.append(inv)
        # Each invocation's own start-up is subtracted where the child reported
        # it, so start-up noise from another moment does not enter the rate.
        trials = workload.trials_done(args.smoke)
        rates = [
            trials / max(inv.wall_s - (setup_s if inv.startup_s is None else inv.startup_s), 1e-9)
            for inv in invocations
        ]
        values = {
            "wall_s": statistics.median(inv.wall_s for inv in invocations),
            "setup_s": setup_s,
            "trials_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(inv.rss_mb for inv in invocations),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced trial counts, for the benchmark's own tests")
    return p.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which kills its child


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "stirtree" / "cli.py").is_file():
        print(f"no stirtree sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work = BENCH_DIR / "_work" / f"{os.getpid()}"
    work.mkdir()
    try:
        result = run(args, work, load_start)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
