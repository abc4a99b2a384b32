#!/usr/bin/env python3
"""Count truncated monotone searches in ``mb`` and check every udh verdict.

Run from the repository root:

    python3 perfbench/truncation.py

For every pool input of the rand and grid workloads it runs the search that
``metabasins mb --eps 0.5`` runs and records two things:

- how many ``saddles._monotone_paths`` calls used up their node budget, so
  that the result may have been cut short;
- whether each ``uphill_downhill_path`` verdict (path or None) agrees with an
  independent check: a breadth-first search for a strictly rising path
  frm -> z*(frm, to) and a strictly falling path z* -> to, each avoiding the
  forbidden states. Two such legs can only share z*, since a shared state
  below the saddle would join frm and to below their essential saddle.

It prints one JSON object per workload.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from metabasins import aggregation, saddles  # noqa: E402


class _CountingNeighbors:
    def __init__(self, neighbors):
        self.neighbors = neighbors
        self.lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return self.neighbors[v]


class _CountingLandscape:
    """The two attributes the monotone search reads, with neighbour lookups counted."""

    def __init__(self, l):
        self.energy = l.energy
        self.neighbors = _CountingNeighbors(l.neighbors)


def _monotone_reachable(l, start, goal, avoid, increasing) -> bool:
    e = l.energy
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            return True
        for u in l.neighbors[v]:
            if u in seen or u in avoid:
                continue
            if (e[u] > e[v] and e[u] <= e[goal]) if increasing else (e[u] < e[v] and e[u] >= e[goal]):
                seen.add(u)
                queue.append(u)
    return False


def udh_exists(l, table, frm, to, avoid) -> bool:
    z = int(table.state[frm, to])
    if z in avoid:
        return False
    up = z == frm or _monotone_reachable(l, frm, z, avoid - {frm}, increasing=True)
    down = z == to or _monotone_reachable(l, z, to, avoid - {to}, increasing=False)
    return up and down


def check(workload: str) -> dict:
    original_paths = saddles._monotone_paths
    original_udh = aggregation.uphill_downhill_path
    limit = inspect.signature(original_paths).parameters["limit"].default
    searches = {"calls": 0, "budget_hits": 0}
    queries = []

    def counting_paths(l, start, goal, avoid, increasing, limit=limit):
        cl = _CountingLandscape(l)
        out = original_paths(cl, start, goal, avoid, increasing, limit=limit)
        searches["calls"] += 1
        # every node the search enters costs one unit of budget; it reads the
        # neighbours of each entered node except the goal
        if cl.neighbors.lookups + len(out) >= limit:
            searches["budget_hits"] += 1
        return out

    def recording_udh(l, frm, to, avoid=frozenset()):
        result = original_udh(l, frm, to, avoid)
        queries.append((frm, to, frozenset(avoid), result is not None))
        return result

    saddles._monotone_paths = counting_paths
    aggregation.uphill_downhill_path = recording_udh
    report = {"workload": workload, "inputs": 0, "udh_verdicts": 0, "udh_disagreements": [],
              "monotone_searches": 0, "budget_hits": 0, "inputs_with_budget_hits": []}
    try:
        for entry in wl.load_pool()[workload]["inputs"]:
            l = wl.make_landscape(workload, entry["gen_seed"])
            table = saddles.saddle_table(l)
            searches.update(calls=0, budget_hits=0)
            queries.clear()
            aggregation.find_metabasins(l, 0.5)
            report["inputs"] += 1
            report["udh_verdicts"] += len(queries)
            report["monotone_searches"] += searches["calls"]
            report["budget_hits"] += searches["budget_hits"]
            if searches["budget_hits"]:
                report["inputs_with_budget_hits"].append(entry["gen_seed"])
            for frm, to, avoid, found in queries:
                if udh_exists(l, table, frm, to, avoid) != found:
                    report["udh_disagreements"].append(
                        {"gen_seed": entry["gen_seed"], "frm": frm, "to": to, "found": found})
    finally:
        saddles._monotone_paths = original_paths
        aggregation.uphill_downhill_path = original_udh
    return report


def main() -> int:
    for workload in ("rand", "grid"):
        print(json.dumps(check(workload)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
