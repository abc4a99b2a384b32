"""Minimal paths, essential saddles and activation energies.

The essential saddle z*(r,s) is the unique highest-energy state on an
energy-minimax self-avoiding path between r and s. The convention here is
endpoint inclusive: the maximum runs over *all* path states including r and s,
so for an adjacent pair the saddle is the higher endpoint. This keeps the
table symmetric and makes the saddle energy of a valley bottom to its own
outer boundary equal to the boundary state's energy.

One union-find sweep (``Sweep``, the merge forest of the sublevel sets)
answers every saddle question: ``saddle_table`` keeps the forest in its leaf
order, where every component is one interval, and ``SaddleTable.column``
reads z*(., m) from it in O(n), with no n x n array; E(z*) is
``l.energy[z]``, gathered where it is read. ``essential_saddle`` reads one
pair from one column. The tests check it against a minimax Dijkstra, a
sublevel breadth-first search and path enumeration in ``reference``.
``climb`` is the one climb search, behind the filtration and
``activation_energy``. ``rising_reach`` is the strictly rising search of the
metabasin scan, run once per start state and free of any level;
``uphill_downhill_path``, the per-pair search it replaced there, is kept as
the tests' oracle.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .landscape import Landscape, LandscapeError, reachable


@dataclass(frozen=True)
class PathRecord:
    """A self-avoiding path with its maximal energy and cumulative climb."""

    states: tuple[int, ...]
    max_energy: float
    activation: float


@dataclass(frozen=True, eq=False)
class SaddleTable:
    """All-pairs essential saddles, read one column at a time.

    The merge forest of the sublevel sets in its leaf order: ``at[s]`` is
    the place of state s, ``join[i]`` the index of the link that first joins
    places i and i + 1, and ``via[j]`` the state that formed link j. Every
    component at every link is one interval of places, so z*(a, b) is the
    state of the latest link between the places lo < hi of a and b,
    ``via[max(join[lo:hi])]``, a range maximum (Gabow, Bentley and Tarjan
    1984). z*(a, a) = a, with energy E(a), the convention the bound
    evaluators need for the "start equals target" case.
    """

    at: np.ndarray
    join: np.ndarray
    via: np.ndarray

    def column(self, m: int) -> np.ndarray:
        """z*(., m) in state order: one running maximum of ``join`` to each
        side of m's place, read through ``via``; O(n)."""
        p, join, via = self.at[m], self.join, self.via
        col = np.empty(len(self.at), dtype=int)    # in leaf order
        col[p] = m
        col[p + 1:] = via[np.maximum.accumulate(join[p:])]
        col[:p] = via[np.maximum.accumulate(join[:p][::-1])[::-1]]
        return col[self.at]


class Sweep:
    """The increasing-energy merge forest of the states.

    States enter in increasing energy, ties in state order. An entering state
    z is linked to each active neighbour in another component: the smaller
    root points to the larger (union by size, roots found by path halving) and
    the link records z (``via``); ``links`` lists the absorbed roots in the
    order their links formed, and ``size[b]`` is b's size when it was absorbed.

    ``order`` lists the states so that every component at every link is one
    interval of it (the leaf order of the merge tree): a root's own leaf opens
    its interval, and a link appends the absorbed root's interval right after
    its root's. So the link of b under a is the first to join b's place and
    the place just before it. The remaining roots' intervals follow each
    other in increasing root order.
    """

    def __init__(self, l: Landscape):
        n = l.n
        neighbors = l.neighbors
        self.parent = parent = list(range(n))
        self.via = via = [-1] * n
        self.links = links = []
        self.size = size = [1] * n
        last, after = parent[:], [-1] * n   # each root's leaf list, opened by the root
        active = [False] * n
        for z in np.argsort(l.energy, kind="stable").tolist():
            active[z] = True
            a = z                 # the root of z's component
            for u in neighbors[z]:
                if not active[u]:
                    continue
                b = u
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a == b:
                    continue
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                via[b] = z
                size[a] += size[b]
                links.append(b)
                after[last[a]], last[a] = b, last[b]
        # the leaf order: each root's leaf list, roots in increasing order
        self.order = order = []
        for r, p in enumerate(parent):
            if p == r:
                while r >= 0:
                    order.append(r)
                    r = after[r]


def saddle_table(l: Landscape) -> SaddleTable:
    """The one sweep's merge forest in its leaf order (see ``Sweep.order``)."""
    n = l.n
    sweep = Sweep(l)
    if len(sweep.links) < n - 1:
        raise LandscapeError("landscape not connected")
    at = np.empty(n, dtype=int)
    at[sweep.order] = np.arange(n)
    links = np.array(sweep.links, dtype=int)
    join = np.empty(n - 1, dtype=int)
    join[at[links] - 1] = np.arange(n - 1)
    return SaddleTable(at, join, np.array(sweep.via)[links])


def essential_saddle(l: Landscape, r: int, s: int) -> tuple[int, float]:
    """Saddle of one pair: one column of a fresh table."""
    if r == s:
        raise ValueError("essential saddle of a state with itself is undefined")
    z = int(saddle_table(l).column(s)[r])
    return z, float(l.energy[z])


def climb(neighbors, energy: list[float], start: int, targets) -> tuple[float, int]:
    """Least cumulative uphill climb from ``start`` to ``targets``, and the least
    target at that cost; (inf, -1) if no target is reachable.

    Dijkstra with step weight (E(t)-E(u))^+ for a move u -> t. The optimum
    over walks equals the optimum over self-avoiding paths (dropping a loop
    never increases the sum), so a plain shortest path is exact. The search
    stops once the heap's top costs more than the first settled target; the
    entries at that cost are drained first, since a target of equal cost can
    still be reached through a later zero-climb move. Its pops are a prefix
    of the full search's, so each cost equals the full search's distance.
    """
    dist = {start: 0.0}
    heap = [(0.0, start)]
    best, found = math.inf, -1
    while heap and heap[0][0] <= best:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue    # superseded by a cheaper entry, already popped
        if v in targets and (found < 0 or v < found):
            best, found = d, v
        ev = energy[v]
        for u in neighbors[v]:
            nd = d + max(energy[u] - ev, 0.0)
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return best, found


def activation_energy(l: Landscape, s: int, m: int) -> float:
    """Least cumulative uphill climb from s to m (see ``climb``)."""
    if s == m:
        raise ValueError("s == m")
    cost, _ = climb(l.neighbors, l.energy.tolist(), s, {m})
    if math.isinf(cost):
        raise ValueError("states not connected")
    return cost


def sublevel_connected(l: Landscape, s: int, t: int, barrier: float, avoid=frozenset()) -> bool:
    """Are s and t connected inside {x : E(x) <= barrier} minus ``avoid``?

    A self-avoiding path within the sublevel set at the pair's saddle energy
    is exactly a minimal path, so "every minimal path from s to t hits V" is
    the negation of this predicate with avoid = V. States outside the
    subgraph (too high, or avoided) are never connected to anything.
    """
    allowed = set(np.flatnonzero(l.energy <= barrier).tolist()) - set(avoid)
    return s in allowed and t in allowed and t in reachable(l, s, allowed)


def _monotone_leg(l: Landscape, start: int, goal: int, avoid, rising: bool):
    """A strictly monotone path start -> goal outside ``avoid``, or None.

    Breadth-first over moves that rise (resp. fall) without passing the
    goal's energy; the path is read back through the parent links.
    """
    energy = l.energy.tolist()
    eg = energy[goal]
    parent = {start: start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            path = [v]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return path[::-1]
        ev = energy[v]
        for u in l.neighbors[v]:
            if u in parent or u in avoid:
                continue
            eu = energy[u]
            if (ev < eu <= eg) if rising else (eg <= eu < ev):
                parent[u] = v
                queue.append(u)
    return None


def rising_reach(neighbors, energy: list[float], start: int) -> set[int]:
    """States reached from ``start`` by strictly rising moves, ``start`` included.

    Read backwards, the set is every state with a strictly falling path to
    ``start``. It depends on ``start`` alone, so one search per start state
    serves every level of the metabasin scan; callers check which parts of the
    level it lies in. No energy cap is needed to answer a ``_monotone_leg``
    question: every state of a strictly monotone path to a goal lies strictly
    between the start's and the goal's energy.
    """
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        ev = energy[v]
        for u in neighbors[v]:
            if energy[u] > ev and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def uphill_downhill_path(l: Landscape, frm: int, to: int, avoid=frozenset(),
                         table: SaddleTable | None = None):
    """A minimal path strictly rising to z*(frm, to) and strictly falling to ``to``.

    Returns a PathRecord or None. ``avoid`` excludes intermediate states (the
    endpoints and the saddle must themselves be admissible). With ``table``
    the saddle is read from it, otherwise ``essential_saddle`` finds it. The two
    monotone legs are searched separately; they can only meet at z*, since a
    shared state below E(z*) would join frm and to below their essential
    saddle, so any two legs form a path.
    """
    if frm == to:
        raise ValueError("frm == to")
    avoid = frozenset(avoid)
    z = essential_saddle(l, frm, to)[0] if table is None else int(table.column(to)[frm])
    ez = float(l.energy[z])
    if z in avoid:
        return None
    up = [frm] if z == frm else _monotone_leg(l, frm, z, avoid - {frm}, rising=True)
    down = [to] if z == to else _monotone_leg(l, z, to, avoid - {to}, rising=False)
    if up is None or down is None:
        return None
    return PathRecord(tuple(up + down[1:]), ez, ez - float(l.energy[frm]))
