"""Command-line front end: sim | estimate | verify | scan.

All randomness descends from one --seed: each (purpose, shape, t) has its
own Philox key and trial i its own counter block of it (rng.TrialStreams),
so any emitted row or failed check can be replayed exactly.  Exit codes:
0 success, 1 verification failure, 2 bad usage (an unreadable or invalid
--config file and an --out path that cannot be opened for writing
included, both found before any work starts, and a scan with a repeated
depth or t grid point: its rows of one d share the deepest depth's runs),
3 capacity exceeded, 4 engine error (an internal inconsistency the
engine's guards caught).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Iterable, Iterator

from stirtree import estimators, verify
from stirtree.bars import Bar, LazyPoissonBars, sample_added
from stirtree.events import detect
from stirtree.meander import EngineError, hit_level
from stirtree.rng import TrialStreams
from stirtree.stirring import orbit
from stirtree.tree import ROOT, CapacityError, TreeShape, vertex_to_str

# Most points a t grid may hold, in either form, and most entries a scan's
# depth list may hold; a comma list's commas are counted before it is parsed.
_GRID_MAX_POINTS = 10_000


_FLAGS = {
    "d": dict(type=int, default=2, help="offspring degree (>= 2)"),
    "n": dict(default="3", help="tree depth, or comma list for scan"),
    "t": dict(type=float, default=0.5, help="bar intensity"),
    "trials": dict(type=int, default=1000),
    "seed": dict(type=int, default=1),
    "n1": dict(type=int, default=1, help="far/close boundary cutoff"),
    "workers": dict(type=int, default=1),
    "format": dict(choices=("json", "csv"), default="json"),
    "out": dict(help="output path (default: stdout)"),
    "config": dict(help="JSON config merged under explicit flags"),
}


# The flags every subcommand but `estimate gw` takes.
_RUN_FLAGS = ("trials", "seed", "workers", "out", "config")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirtree",
        description="Random stirring on rooted d-ary trees: simulate, estimate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False: no prefix matching, which would read `verify --t 9`
    # as --trials 9

    p_sim = sub.add_parser(
        "sim", help="sample (B, A) instances and report events", allow_abbrev=False
    )
    _add_flags(p_sim, "d", "n", "t", "n1", "format", *_RUN_FLAGS)

    p_est = sub.add_parser("estimate", help="run one estimator", allow_abbrev=False)
    p_which = p_est.add_subparsers(dest="which", required=True, help="estimator to run")
    for which in ("pn", "z", "gw", "tails"):
        p = p_which.add_parser(which, allow_abbrev=False)
        if which == "gw":  # the branching bound is a function of (d, t) alone
            _add_flags(p, "d", "t", "format", "out", "config")
        else:
            _add_flags(p, "d", "n", "t", "format", *_RUN_FLAGS)

    p_ver = sub.add_parser(
        "verify", help="run the invariant suite", allow_abbrev=False
    )
    _add_flags(p_ver, *_RUN_FLAGS)
    p_ver.set_defaults(trials=None)  # each check at its suite-default scale
    p_ver.add_argument(
        "--only", help="comma list of checks: " + ",".join(verify.SUITE)
    )

    p_scan = sub.add_parser(
        "scan", help="hit-probability table over a (n, t) grid", allow_abbrev=False
    )
    _add_flags(p_scan, "d", "n", "format", *_RUN_FLAGS)
    p_scan.add_argument("--t-grid", dest="t_grid", help="lo:hi:step or comma list")

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse the command line, then again with the --config keys ahead of it.

    A config key is a flag's name (``t_grid`` for ``--t-grid``) and its value
    is parsed by that flag's own action, so explicit flags, parsed later,
    win.  A bad config exits 2 through ``parser.error``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"--config {args.config} must hold a JSON object")
    flags = []
    for key, value in loaded.items():
        if key in ("command", "which", "config") or key not in vars(args):
            parser.error(f"unknown --config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"--config key {key!r} needs a number or a string")
        text = value if isinstance(value, str) else json.dumps(value)
        flags.append(f"--{key.replace('_', '-')}={text}")
    words = 2 if args.command == "estimate" else 1  # the subcommand names first
    args = parser.parse_args(argv[:words] + flags + argv[words:])
    for key, value in loaded.items():  # text where the flag takes a number
        if isinstance(value, str) and not isinstance(getattr(args, key), str):
            parser.error(f"--config key {key!r} needs a number, got {value!r}")
    return args


def _check_run_flags(ns: dict) -> None:
    for key in ("trials", "workers"):
        value = ns.get(key)  # None: verify's suite scales, or estimate gw
        if value is not None and value < 1:
            raise ValueError(f"--{key} must be an integer >= 1, got {value!r}")
    if ns["command"] == "sim":
        n1 = ns["n1"]  # the far/close cut sits at depth n - 2*n1, on the tree
        if not 0 <= 2 * n1 <= int(ns["n"]):
            raise ValueError(f"--n1 must be an integer with 0 <= 2*n1 <= n, got {n1!r}")


def _emit(rows: Iterable[dict], fmt: str, out) -> None:
    """Write each row as it comes; a CSV header takes the first row's keys."""
    fh = out or sys.stdout
    if fmt == "csv":
        rows = iter(rows)
        first = next(rows, {})
        writer = csv.DictWriter(fh, fieldnames=list(first))
        writer.writeheader()
        if first:
            writer.writerow(first)
        writer.writerows(rows)
    else:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        lo, hi, step = (float(x) for x in text.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf):
            raise ValueError(f"t grid {text!r} needs finite bounds and a positive step")
        last = (hi + 1e-12 - lo) / step  # the points are lo + k*step, k <= last
        if last >= _GRID_MAX_POINTS:
            raise ValueError(f"t grid {text!r} has over {_GRID_MAX_POINTS} points")
        return [round(lo + k * step, 12) for k in range(math.floor(last) + 1)]
    if text.count(",") >= _GRID_MAX_POINTS:  # counted before a list is built
        # the list itself, as long as a --config file, stays out of the message
        raise ValueError(f"t grid has over {_GRID_MAX_POINTS} points")
    return [float(x) for x in text.split(",") if x.strip()]


def _sim_rows(ns: dict) -> Iterator[dict]:
    shape = TreeShape(ns["d"], int(ns["n"]))
    streams = TrialStreams(ns["seed"], "sim", shape.d, shape.n, ns["t"])
    for i in range(ns["trials"]):
        gen = streams.at(i)
        # the added bar first, then the bars as the runs query them
        added = sample_added(shape, gen)
        bars = LazyPoissonBars(shape, ns["t"], gen)
        while added.height in bars.heights_on(added.edge):
            added = Bar(added.edge, float(gen.random()))
        cycle = [vertex_to_str(v, shape.d) for v in orbit(bars, ROOT)]
        traj = hit_level(bars)
        rec = detect(bars, added, traj, n1=ns["n1"])
        row = {
            "schema": 1,
            "trial": i,
            "seed": ns["seed"],
            "cycle": " ".join(cycle) if ns["format"] == "csv" else cycle,
            "length": len(cycle),
            # the meander circuit from the root origin hits depth n: the
            # finite-tree proxy for the root lying on an unbounded cycle
            "boundary_truncated": traj.reached,
        }
        row.update(zip(rec.CSV_FIELDS, rec.to_row(shape.d)))
        yield row


def cmd_sim(ns: dict) -> int:
    _emit(_sim_rows(ns), ns["format"], ns["out"])
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
        row["in_bracket"] = estimators.within_z_bracket(est, lo, hi)
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
        for note in rep.notes:
            print(note, file=sys.stderr)
    _emit(rows, ns["format"], ns["out"])
    return 0


def cmd_verify(ns: dict) -> int:
    only = tuple(ns["only"].split(",")) if ns["only"] else None
    results = verify.run_suite(
        ns["seed"], trials=ns["trials"], only=only, workers=ns["workers"]
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
    if ns["out"]:
        json.dump(verdict, ns["out"], indent=2)
    return 0 if verdict["passed"] else 1


def cmd_scan(ns: dict) -> int:
    if not ns["t_grid"]:
        print("scan requires --t-grid", file=sys.stderr)
        return 2
    grid = _parse_grid(ns["t_grid"])
    if not grid:
        print("empty t grid", file=sys.stderr)
        return 2
    text = str(ns["n"])
    if text.count(",") >= _GRID_MAX_POINTS:  # before any int() or TreeShape
        raise ValueError(f"depth list has over {_GRID_MAX_POINTS} entries")
    depths = [int(x) for x in text.split(",")]
    shapes = [TreeShape(ns["d"], n) for n in depths]
    table = estimators.critical_scan(
        shapes, grid, ns["trials"], ns["seed"], ns["workers"]
    )
    _emit(table.to_dicts(), ns["format"], ns["out"])
    return 0


_COMMANDS = {
    "sim": cmd_sim,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    ns = vars(_parse_args(build_parser(), argv))
    try:
        _check_run_flags(ns)
        if ns["out"]:  # the path becomes the open file, before any work
            try:
                ns["out"] = open(ns["out"], "w", newline="")
            except OSError as exc:
                print(f"cannot write --out: {exc}", file=sys.stderr)
                return 2
        with ns["out"] or contextlib.nullcontext():
            return _COMMANDS[ns["command"]](ns)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
