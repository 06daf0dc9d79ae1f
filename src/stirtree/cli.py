"""Command-line front end: sim | estimate | verify | scan.

All randomness descends from one --seed: each (purpose, shape, t) has its
own Philox key and trial i its own counter block of it (rng.TrialStreams),
so any emitted row or failed check can be replayed exactly.  Exit codes:
0 success, 1 verification failure, 2 bad usage, 3 capacity exceeded,
4 engine error (an internal inconsistency the engine's guards caught).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from stirtree import estimators, verify
from stirtree.bars import LazyPoissonBars, sample_added
from stirtree.events import detect
from stirtree.meander import EngineError
from stirtree.rng import TrialStreams
from stirtree.stirring import cycle_of_root
from stirtree.tree import CapacityError, TreeShape

# Most points a lo:hi:step grid may expand to.
_GRID_MAX_POINTS = 10_000

_DEFAULTS = {
    "d": 2,
    "n": 3,
    "t": 0.5,
    "trials": 1000,
    "seed": 1,
    "n1": 1,
    "workers": 1,
    "format": "json",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="offspring degree (>= 2)")
    p.add_argument("--n", help="tree depth, or comma list for scan")
    p.add_argument("--t", type=float, help="bar intensity")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n1", type=int, help="far/close boundary cutoff")
    p.add_argument("--workers", type=int)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON config merged under explicit flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirtree",
        description="Random stirring on rooted d-ary trees: simulate, estimate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="sample (B, A) instances and report events")
    _add_common(p_sim)

    p_est = sub.add_parser("estimate", help="run one estimator")
    p_est.add_argument(
        "which", choices=("pn", "z", "gw", "tails"), help="estimator to run"
    )
    _add_common(p_est)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    _add_common(p_ver)
    p_ver.add_argument(
        "--only", help="comma list of checks: " + ",".join(verify.SUITE)
    )

    p_scan = sub.add_parser("scan", help="hit-probability table over a (n, t) grid")
    _add_common(p_scan)
    p_scan.add_argument("--t-grid", dest="t_grid", help="lo:hi:step or comma list")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    ns = vars(args)
    if ns.get("config"):
        with open(ns["config"]) as fh:
            loaded = json.load(fh)
        for key, value in loaded.items():
            if ns.get(key) is None:
                ns[key] = value
    ns["_trials_given"] = ns.get("trials") is not None
    for key, value in _DEFAULTS.items():
        if ns.get(key) is None:
            ns[key] = value
    return ns


def _check_counts(ns: dict) -> None:
    for key in ("trials", "workers"):
        value = ns[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"--{key} must be an integer >= 1, got {value!r}")
    n1 = ns["n1"]  # sim's far/close cut sits at depth n - 2*n1, on the tree
    if ns["command"] == "sim" and not (
        isinstance(n1, int) and 0 <= 2 * n1 <= int(ns["n"])
    ):
        raise ValueError(f"--n1 must be an integer with 0 <= 2*n1 <= n, got {n1!r}")


def _emit(rows: list[dict], fmt: str, out: str | None, fieldnames=None) -> None:
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            names = fieldnames or list(rows[0]) if rows else []
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    finally:
        if out:
            fh.close()


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        lo, hi, step = (float(x) for x in text.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf):
            raise ValueError(f"t grid {text!r} needs finite bounds and a positive step")
        last = (hi + 1e-12 - lo) / step  # the points are lo + k*step, k <= last
        if last >= _GRID_MAX_POINTS:
            raise ValueError(f"t grid {text!r} has over {_GRID_MAX_POINTS} points")
        return [round(lo + k * step, 12) for k in range(math.floor(last) + 1)]
    return [float(x) for x in text.split(",") if x.strip()]


def cmd_sim(ns: dict) -> int:
    shape = TreeShape(ns["d"], int(ns["n"]))
    streams = TrialStreams(ns["seed"], "sim", shape.d, shape.n, ns["t"])
    rows = []
    for i in range(ns["trials"]):
        gen = streams.at(i)
        bars = LazyPoissonBars(shape, ns["t"], gen).realize()
        added = sample_added(shape, gen)
        cyc = cycle_of_root(bars)
        rec = detect(bars, added, n1=ns["n1"])
        row = {"schema": 1, "trial": i, "seed": ns["seed"]}
        row.update(cyc.to_json_dict(shape.d))
        row["cycle"] = " ".join(row["cycle"]) if ns["format"] == "csv" else row["cycle"]
        row.update(dict(zip(rec.CSV_FIELDS, rec.to_row(shape.d))))
        rows.append(row)
    _emit(rows, ns["format"], ns["out"])
    return 0


def cmd_estimate(ns: dict) -> int:
    which = ns["which"]
    if which == "gw":
        gw = estimators.gw_extinction(ns["d"], ns["t"])
        rows = [
            {
                "schema": 1,
                "label": f"gw(d={ns['d']},t={ns['t']})",
                "q_ext": gw.q_ext,
                "p_upper": gw.p_upper,
                "iterations": gw.iterations,
            }
        ]
        _emit(rows, ns["format"], ns["out"])
        return 0
    shape = TreeShape(ns["d"], int(ns["n"]))
    if which == "pn":
        est = estimators.estimate_pn(
            shape, ns["t"], ns["trials"], ns["seed"], ns["workers"]
        )
        rows = [est.to_dict()]
    elif which == "z":
        est = estimators.z_estimate(
            shape, ns["t"], ns["trials"], ns["seed"], ns["workers"]
        )
        lo, hi = estimators.z_bracket(shape.d, ns["t"] * shape.d)
        row = est.to_dict()
        row["bracket_lo"], row["bracket_hi"] = lo, hi
        row["in_bracket"] = bool(
            lo - 4 * est.stderr <= est.mean <= hi + 4 * est.stderr
        )
        rows = [row]
    else:  # tails
        rep = estimators.tail_checks(
            shape, ns["t"], ns["trials"], ns["seed"], ns["workers"]
        )
        rows = [
            {
                "schema": 1,
                "label": r.label,
                "empirical": r.empirical,
                "stderr": r.stderr,
                "bound": r.bound,
                "ok": r.ok,
            }
            for r in rep.cluster_rows + rep.level_rows
        ]
        for note in filter(None, (rep.cluster_skipped, *rep.notes)):
            print(note, file=sys.stderr)
    _emit(rows, ns["format"], ns["out"])
    return 0


def cmd_verify(ns: dict) -> int:
    only = tuple(ns["only"].split(",")) if ns.get("only") else None
    trials = ns["trials"] if ns.get("_trials_given") else None
    results = verify.run_suite(
        ns["seed"], trials=trials, only=only, workers=ns["workers"]
    )
    for res in results:
        print(res.line())
    verdict = {
        "schema": 1,
        "seed": ns["seed"],
        "passed": all(bool(r.passed) for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "detail": r.detail,
                "replay": r.replay,
            }
            for r in results
        ],
    }
    if ns.get("out"):
        with open(ns["out"], "w") as fh:
            json.dump(verdict, fh, indent=2)
    return 0 if verdict["passed"] else 1


def cmd_scan(ns: dict) -> int:
    if not ns.get("t_grid"):
        print("scan requires --t-grid", file=sys.stderr)
        return 2
    grid = _parse_grid(ns["t_grid"])
    if not grid:
        print("empty t grid", file=sys.stderr)
        return 2
    depths = [int(x) for x in str(ns["n"]).split(",")]
    shapes = [TreeShape(ns["d"], n) for n in depths]
    table = estimators.critical_scan(
        shapes, grid, ns["trials"], ns["seed"], ns["workers"]
    )
    _emit(table.to_dicts(), ns["format"], ns["out"])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ns = _merge_config(args)
    try:
        _check_counts(ns)
        if args.command == "sim":
            return cmd_sim(ns)
        if args.command == "estimate":
            return cmd_estimate(ns)
        if args.command == "verify":
            return cmd_verify(ns)
        if args.command == "scan":
            return cmd_scan(ns)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
