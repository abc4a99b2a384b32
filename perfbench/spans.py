"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` rebinds every module-level name in ``metabasins.*`` that
refers to a wrapped entry point (``metabasins.cli.scoppola_filtration``,
``metabasins.filtration.activation_energy``, ...), so both cross-module and
same-module callers go through the wrapper. ``uninstall`` puts the original
objects back. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# <module>.<function> entry points, in layer order.
ENTRY_POINTS = (
    "landscape.load_landscape",
    "saddles.saddle_table",
    "saddles.activation_energy",
    "saddles.essential_saddle",
    "saddles.sublevel_connected",
    "saddles.uphill_downhill_path",
    "filtration.scoppola_filtration",
    "valleys.decompose_all",
    "valleys.strict_basin",
    "valleys.attracted",
    "valleys.build_tree",
    "chain.build_metropolis",
    "aggregation.metastate_space",
    "aggregation.transition_exponents",
    "aggregation.valley_transition_limits",
    "aggregation.find_metabasins",
    "aggregation.exact_jump_distribution",
    "aggregation.exact_valley_transition",
    "aggregation.project_trajectory",
    "analysis.pdmb_bounds",
    "simulate.run_metropolis",
    "simulate.run_until_sigma",
    "simulate.path_dependent_mb",
    "simulate.compare_mb",
    "cli.cmd_analyze",
    "cli.cmd_mb",
    "cli.cmd_aggregate",
    "cli.cmd_simulate",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []   # id, parent, name, start, end
        self.udh_found = 0      # uphill_downhill_path calls that returned a path
        self.jump_steps = 0     # steps of the trajectories run_until_sigma returned
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code that is not a package entry point."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_found = name == "saddles.uphill_downhill_path"
        count_steps = name == "simulate.run_until_sigma"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if count_found and result is not None:
                self.udh_found += 1
            if count_steps:
                self.jump_steps += len(result) - 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point that exists; the others are listed as missing."""
        modules = [m for k, m in sys.modules.items()
                   if k.startswith("metabasins.") and m is not None]
        for entry in ENTRY_POINTS:
            mod_name, fn_name = entry.split(".")
            home = sys.modules.get(f"metabasins.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                self.missing.append(entry)
                continue
            wrapper = self._wrap(entry, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _child_time(self) -> list[float]:
        """Per span, the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per entry point: calls, inclusive seconds and self seconds."""
        child = self._child_time()
        out = {e: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for e in ENTRY_POINTS if e not in self.missing}
        for sid, _, name, t0, t1 in self.spans:
            row = out.get(name)
            if row is None:     # a benchmark span, not an entry point
                continue
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out

    def self_shares(self) -> dict[str, dict[str, float]]:
        """Per root span name: each span name's share of the roots' time, by self time."""
        child = self._child_time()
        root = [0] * len(self.spans)
        for sid, parent, *_ in self.spans:
            root[sid] = sid if parent < 0 else root[parent]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, t0, t1 in self.spans:
            top = self.spans[root[sid]][2]
            if parent < 0:
                total[top] += t1 - t0
            own[top][name] += t1 - t0 - child[sid]
        return {top: {name: v / total[top] for name, v in rows.items()}
                for top, rows in own.items()}

    def write(self, path: Path) -> None:
        """Spans as [id, parent, name index, start ns, end ns] from the first start."""
        names = sorted({s[2] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = self.spans[0][3] if self.spans else 0.0
        rows = [[sid, parent, index[name], round((t0 - base) * 1e9), round((t1 - base) * 1e9)]
                for sid, parent, name, t0, t1 in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "names": names, "missing": self.missing, "spans": rows}, fh,
                      separators=(",", ":"))
