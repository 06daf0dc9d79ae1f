"""Child process the benchmark times: the stirtree CLI, optionally traced.

    PYTHONPATH=src python3 perfbench/child.py OUT.json [--trace] -- <stirtree arguments>

Imports ``stirtree.cli``, stamps ``time.monotonic()`` (system-wide on Linux,
so the parent can split start-up from the CLI's own work), runs
``stirtree.cli.main`` and writes the stamp to OUT.json.  With ``--trace`` it
first wraps each layer's public functions at every name a caller looks them
up under (``stirtree.estimators.hit_level``-style imports included) and also
writes the aggregated spans.  Nothing under ``src/`` is changed: the wrappers
are installed from outside the package, in this process only.

Spans are aggregated per (name, parent span name) as a count, the total
time inside the span and the part of it covered by child spans, so a
layer's self time is ``total - child``.  A span that calls itself directly
(``LazyPoissonBars.pole`` calls ``_PoleIndexMixin.pole``) is counted once.
Each record also carries two counters, ``x`` and ``y``, filled by the span's
result hook: wraps and ``hit_level`` outcomes for ``meander.run``, True
results for ``events.crossing_without_bottleneck``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Per-record slots: calls, total seconds, seconds covered by child spans,
# and two counters filled by result hooks.
CALLS, TOTAL, CHILD, X, Y = range(5)


class Tracer:
    """In-memory span aggregation keyed by (name, parent)."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0, 0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += elapsed
                rec[CHILD] += frame[1]
            if hook is not None:
                hook(rec, result)
            return result

        return traced

    def records(self) -> list[dict]:
        return [
            {
                "name": name,
                "parent": parent,
                "calls": rec[CALLS],
                "total_s": rec[TOTAL],
                "child_s": rec[CHILD],
                "x": rec[X],
                "y": rec[Y],
            }
            for (name, parent), rec in sorted(self.stats.items())
        ]


def _run_hook(rec, traj) -> None:
    rec[X] += traj.wraps
    rec[Y] += traj.outcome.kind == "hit_level"


def _truth_hook(rec, value) -> None:
    rec[X] += bool(value)


# (span, module, function, result hook)
FUNCTIONS = (
    ("rng.substream", "stirtree.rng", "substream", None),
    ("tree.edge_from_index", "stirtree.tree", "edge_from_index", None),
    ("meander.run", "stirtree.meander", "run", _run_hook),
    ("stirring.oracle", "stirtree.stirring", "transposition_oracle", None),
    ("stirring.permutation", "stirtree.stirring", "stirring_permutation", None),
    ("events.detect", "stirtree.events", "detect", None),
    ("events.viable_locations", "stirtree.events", "viable_locations", None),
    ("events.multibar_cluster", "stirtree.events", "multibar_cluster", None),
    (
        "events.crossing_without_bottleneck",
        "stirtree.events",
        "crossing_without_bottleneck",
        _truth_hook,
    ),
    ("estimators.estimate_pn", "stirtree.estimators", "estimate_pn", None),
    ("estimators.russo_check", "stirtree.estimators", "russo_check", None),
    ("estimators.z_estimate", "stirtree.estimators", "z_estimate", None),
    ("estimators.tail_checks", "stirtree.estimators", "tail_checks", None),
    ("verify.oracle", "stirtree.verify", "check_oracle_equivalence", None),
    ("verify.inclusions", "stirtree.verify", "check_inclusions", None),
    ("verify.shift", "stirtree.verify", "check_shift_invariance", None),
    ("verify.russo", "stirtree.verify", "check_russo", None),
    ("verify.tails", "stirtree.verify", "check_tails", None),
    ("verify.z", "stirtree.verify", "check_z_bracket", None),
    ("verify.conditional", "stirtree.verify", "check_conditional_sampler", None),
    ("verify.exploration", "stirtree.verify", "check_exploration_law", None),
    ("cli.main", "stirtree.cli", "main", None),
)

# (span, method) wrapped on every class of stirtree.bars that defines it.
BAR_METHODS = (
    ("bars.pole", "pole"),
    ("bars.sample_poisson", "sample_poisson"),
    ("bars.with_added", "with_added"),
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "stirtree" or name.startswith("stirtree."))
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the targets this version of the code lacks."""
    importlib.import_module("stirtree.cli")  # pulls in every layer
    missing = []
    modules = _package_modules()
    for span, module_name, attr, hook in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(span, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    bars = importlib.import_module("stirtree.bars")
    classes = [
        c
        for c in vars(bars).values()
        if isinstance(c, type) and c.__module__ == bars.__name__
    ]
    for span, attr in BAR_METHODS:
        found = False
        for cls in classes:
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            found = True
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(tracer.wrap(span, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(span, raw))
        if not found:
            missing.append(f"stirtree.bars.*.{attr}")
    return missing


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") not in (1, 2):
        print("usage: child.py OUT.json [--trace] -- <stirtree arguments>", file=sys.stderr)
        return 2
    sep = argv.index("--")
    out_path, traced, cli_args = argv[0], "--trace" in argv[1:sep], argv[sep + 1:]
    cli = importlib.import_module("stirtree.cli")
    tracer = Tracer()
    missing = install(tracer) if traced else []
    record = {"ready": time.monotonic()}
    try:
        return cli.main(cli_args)
    finally:
        if traced:
            record.update(spans=tracer.records(), missing=missing)
        with open(out_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
