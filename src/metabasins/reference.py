"""Reference implementations used as verification oracles.

They are deliberately independent of the production algorithms (union-find
sweeps, climb Dijkstras, sublevel reductions, running maxima). The landscape
oracles enumerate self-avoiding paths and are exponential, and the
path-dependent blocks come from the literal, quadratic cut recursion, so both
are only for small instances. ``minimax_path`` finds one pair's saddle by a
minimax Dijkstra. ``decompose`` returns one level of ``decompose_all``, which
it builds whole. ``_plain`` with ``json.dumps(..., indent=1, sort_keys=True)``
is the CLI's former JSON writer, the oracle of its one-pass emitter.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .filtration import Filtration
from .landscape import Landscape
from .saddles import PathRecord, SaddleTable
from .simulate import PathDependentMB
from .valleys import ValleyDecomposition, decompose_all


def self_avoiding_paths(l: Landscape, src: int, dst: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    path = [src]
    on_path = {src}

    def dfs(v):
        if v == dst:
            out.append(tuple(path))
            return
        for u in l.neighbors[v]:
            if u not in on_path:
                path.append(u)
                on_path.add(u)
                dfs(u)
                path.pop()
                on_path.remove(u)

    dfs(src)
    return out


def path_max(l: Landscape, path) -> tuple[float, int]:
    """(max energy, argmax state) over all path states, endpoints included."""
    best = max(path, key=lambda s: l.energy[s])
    return float(l.energy[best]), best


def path_climb(l: Landscape, path) -> float:
    return sum(max(float(l.energy[b] - l.energy[a]), 0.0) for a, b in zip(path, path[1:]))


def minimax_oracle(l: Landscape, r: int, s: int) -> tuple[int, float]:
    """Essential saddle by scanning every self-avoiding path."""
    best_val = math.inf
    best_state = -1
    for path in self_avoiding_paths(l, r, s):
        val, state = path_max(l, path)
        if val < best_val:
            best_val, best_state = val, state
    if best_state < 0:
        raise ValueError("not connected")
    return best_state, best_val


def activation_oracle(l: Landscape, s: int, m: int) -> float:
    return min(path_climb(l, p) for p in self_avoiding_paths(l, s, m))


class PathCache:
    """All self-avoiding paths per pair, with minimax data, enumerated lazily."""

    def __init__(self, l: Landscape):
        self.l = l
        self._paths: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def paths(self, a: int, b: int):
        key = (a, b)
        if key not in self._paths:
            self._paths[key] = self_avoiding_paths(self.l, a, b)
        return self._paths[key]

    def zstar_energy(self, a: int, b: int) -> float:
        if a == b:
            return float(self.l.energy[a])
        return min(path_max(self.l, p)[0] for p in self.paths(a, b))

    def minimal_paths(self, a: int, b: int):
        val = self.zstar_energy(a, b)
        return [p for p in self.paths(a, b) if path_max(self.l, p)[0] == val]


def strict_basin_oracle(cache: PathCache, M, m: int) -> frozenset[int]:
    l = cache.l
    M = frozenset(M)
    out = {m}
    for s in range(l.n):
        if s == m or s in M:
            continue
        em = cache.zstar_energy(s, m)
        if all(em < cache.zstar_energy(s, mp) for mp in M - {m}):
            out.add(s)
    return frozenset(out)


def attracted_oracle(cache: PathCache, M, s: int, m: int,
                     strict: frozenset[int] | None = None) -> bool:
    M = frozenset(M)
    if s == m:
        return True
    if s in M:
        return False
    em = cache.zstar_energy(s, m)
    if any(cache.zstar_energy(s, n) < em for n in M):
        return False
    if strict is None:
        strict = strict_basin_oracle(cache, M, m)
    for mp in M - {m}:
        if cache.zstar_energy(s, mp) == em:
            for p in cache.minimal_paths(s, mp):
                if strict.isdisjoint(p):
                    return False
    return True


def decompose_oracle(l: Landscape, f: Filtration,
                     cache: PathCache | None = None):
    """Literal valley recursion; returns per level (valleys, nonassigned, merge_level)."""
    if cache is None:
        cache = PathCache(l)
    order = f.deletion_order
    results = []
    valleys: dict[int, set[int]] = {}
    merge_level: dict[int, float] = {j: math.inf for j in range(1, f.levels + 1)}
    frozen: dict[int, frozenset[int]] = {}
    nonassigned: set[int] = set()
    for i in range(1, f.levels + 1):
        M = f.M(i)
        strict = {m: strict_basin_oracle(cache, M, m) for m in M}
        if i == 1:
            valleys = {m: set() for m in M}
            for s in range(l.n):
                for m in M:
                    if attracted_oracle(cache, M, s, m, strict[m]):
                        valleys[m].add(s)
                        break
        else:
            dropped = order[i - 2]
            frozen[dropped] = frozenset(valleys.pop(dropped))
            for s in sorted(nonassigned):
                for m in M:
                    if attracted_oracle(cache, M, s, m, strict[m]):
                        valleys[m].add(s)
                        break
            for p in sorted(frozen):
                for m in M:
                    if attracted_oracle(cache, M, p, m, strict[m]):
                        valleys[m].update(frozen.pop(p))
                        merge_level[order.index(p) + 1] = i
                        break
        assigned = set().union(*valleys.values())
        for members in frozen.values():
            assigned |= members
        nonassigned = set(range(l.n)) - assigned
        results.append((
            {m: frozenset(v) for m, v in valleys.items()},
            frozenset(nonassigned),
            dict(merge_level),
        ))
    return results


def unimodal_escape_oracle(l: Landscape, cache: PathCache, gate: int, target: int,
                           avoid: frozenset[int]) -> bool:
    """Is there a minimal path gate -> target, avoiding ``avoid``, whose total
    climb equals the barrier minus the gate energy?"""
    barrier = cache.zstar_energy(gate, target)
    want = barrier - float(l.energy[gate])
    for p in cache.minimal_paths(gate, target):
        if not avoid.isdisjoint(p[1:-1]):
            continue
        if abs(path_climb(l, p) - want) < 1e-12:
            return True
    return False


def path_dependent_mb_naive(states, T: int) -> PathDependentMB:
    """Literal recursion over the cut definition; quadratic, for testing only."""
    states = list(states[: T + 1])
    if len(states) != T + 1:
        raise ValueError("trajectory shorter than the requested horizon")
    chi = [0]
    while True:
        nxt = None
        for k in range(chi[-1] + 1, T + 1):
            if set(states[k:]).isdisjoint(states[:k]):
                nxt = k
                break
        if nxt is None:
            break
        chi.append(nxt)
    edges = chi + [T + 1]
    blocks = tuple(frozenset(states[a:b]) for a, b in zip(edges, edges[1:]))
    return PathDependentMB(tuple(chi), blocks, len(chi) - 1)


def minimax_path(l: Landscape, r: int, s: int) -> PathRecord:
    """Minimax Dijkstra: independent algorithm returning one minimal path.

    Path cost is the maximum energy over all its states (endpoints included);
    among paths achieving the optimum an arbitrary one is returned, but the
    argmax state on it is the unique essential saddle.
    """
    if r == s:
        raise ValueError("r == s")
    best = np.full(l.n, np.inf)
    best[r] = l.energy[r]
    prev = np.full(l.n, -1, dtype=int)
    heap = [(best[r], r)]
    done = np.zeros(l.n, dtype=bool)
    while heap:
        cost, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        if v == s:
            break
        for u in l.neighbors[v]:
            c = max(cost, float(l.energy[u]))
            if c < best[u]:
                best[u] = c
                prev[u] = v
                heapq.heappush(heap, (c, u))
    if not done[s]:
        raise ValueError("states not connected")
    path = [s]
    while path[-1] != r:
        path.append(int(prev[path[-1]]))
    path.reverse()
    act = sum(max(l.energy[b] - l.energy[a], 0.0) for a, b in zip(path, path[1:]))
    return PathRecord(tuple(path), float(best[s]), float(act))


def decompose(l: Landscape, f: Filtration, i: int, table: SaddleTable) -> ValleyDecomposition:
    if not 1 <= i <= f.levels:
        raise ValueError(f"level {i} out of range 1..{f.levels}")
    return decompose_all(l, f, table)[i - 1]


def _plain(obj):
    """JSON-ready copy of ``obj``: builtin scalars, string keys, sorted frozensets.

    Floats keep 12 significant digits so that reruns are byte-identical; a
    non-finite float is written as the string "inf", "-inf" or "nan".
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return float(f"{v:.12g}") if math.isfinite(v) else repr(v)
    return obj
