"""Strict basins, attraction, recursive valleys and the valley tree.

Level 1 assigns to each local minimum the states attracted to it; what
remains is non-assigned. Each later level merges the previous valley of every
surviving minimum with the newly attracted non-assigned states and with the
whole valleys of deleted minima whose bottom becomes attracted at this level.
Valleys are only ever merged, never split, and at each level they are
pairwise disjoint and connected.

A state s is attracted by m when m realizes the least saddle energy from s
and every minimal path to an equally cheap competitor passes through the
strict basin of m. The path clause reduces to connectivity of the saddle-level
sublevel set with the strict basin removed; that reduction is validated
against literal path enumeration in the tests.

Per level, strict basins and the least-saddle clause come from the saddle
table's columns at M in one pass (row minimum, runner-up, argmin). The path
clause is read from the saddle sweep (``saddles.Sweep``) run once per distinct
strict basin with that basin left out, which answers every barrier at once;
``decompose_all`` shares the sweeps across levels, since strict basins repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import Filtration
from .landscape import Landscape
from .saddles import SaddleTable, Sweep, saddle_table


def strict_basin(l: Landscape, table: SaddleTable, M, m: int) -> frozenset[int]:
    """States whose saddle to m is strictly below the saddle to every other metastable."""
    M = frozenset(M)
    if m not in M:
        raise ValueError("m is not metastable at this level")
    others = M - {m}
    out = {m}
    for s in range(l.n):
        if s == m or s in M:
            continue
        es = table.energy[s, m]
        if all(es < table.energy[s, mp] for mp in others):
            out.add(s)
    return frozenset(out)


class _Level:
    """Strict basins and attraction among one metastable set M."""

    def __init__(self, l: Landscape, table: SaddleTable, M, sweeps: dict):
        self.l = l
        self.M = frozenset(M)
        self.sweeps = sweeps
        self.cols = sorted(self.M)
        self.E = table.energy[:, self.cols]
        least = self.E.min(axis=1)
        if len(self.cols) > 1:
            unique = least < np.partition(self.E, 1, axis=1)[:, 1]
        else:
            unique = np.ones(l.n, dtype=bool)
        arg = np.argmin(self.E, axis=1)
        self.least, self.unique, self.arg = least.tolist(), unique.tolist(), arg.tolist()
        # a metastable state is the strict row minimum of its own column; the
        # basin is filled in increasing state order so that it iterates in the
        # same order as ``strict_basin``'s (bound sums run over it)
        self.strict = {}
        for m in self.M:
            basin = {m}
            basin.update(s for s in np.flatnonzero(unique & (arg == self.cols.index(m))).tolist()
                         if s != m)
            self.strict[m] = frozenset(basin)

    def _minimizers(self, s: int) -> list[int]:
        """The metastable states that realise the least saddle energy from s."""
        if self.unique[s]:
            return [self.cols[self.arg[s]]]
        return [self.cols[j] for j in np.flatnonzero(self.E[s] == self.least[s]).tolist()]

    def attracts(self, s: int, m: int) -> bool:
        """Is s attracted by m?"""
        if s == m:
            return True
        if s in self.M:
            return False
        tied = self._minimizers(s)
        return m in tied and self._wins_ties(s, m, tied)

    def _wins_ties(self, s: int, m: int, tied: list[int]) -> bool:
        """Does every minimal path from s to another minimizer hit m's strict basin?"""
        if len(tied) == 1:
            return True
        basin = self.strict[m]
        sweep = self.sweeps.get(basin)
        if sweep is None:
            sweep = self.sweeps[basin] = Sweep(self.l, basin)
        return not any(sweep.connected(s, mp, self.least[s]) for mp in tied if mp != m)

    def target(self, s: int) -> int | None:
        """The minimum attracting s (s outside M), or None."""
        tied = self._minimizers(s)
        hits = [m for m in tied if self._wins_ties(s, m, tied)]
        if len(hits) > 1:
            raise ValueError(f"state {s} attracted by several minima {hits}")
        return hits[0] if hits else None


def attracted(l: Landscape, table: SaddleTable, M, s: int, m: int) -> bool:
    """Is s attracted by m among the metastable set M?"""
    if m not in M:
        raise ValueError("m is not metastable at this level")
    return _Level(l, table, M, {}).attracts(s, m)


@dataclass(frozen=True, eq=False)
class ValleyDecomposition:
    level: int
    strict: dict[int, frozenset[int]]
    valley: dict[int, frozenset[int]]
    nonassigned: frozenset[int]
    attracted_at: dict[int, tuple[int, int]]
    merge_level: dict[int, float]            # minimum index j (1-based) -> l(j), inf while pending
    exit_gate: dict[int, int | None]
    pending: dict[int, tuple[int, frozenset[int], int | None]]  # bottom -> (own level, valley, gate)

    def assigned_valleys(self) -> dict[int, frozenset[int]]:
        """Valleys of the level plus frozen valleys of still-pending minima."""
        out = dict(self.valley)
        for m, (_, states, _) in self.pending.items():
            out[m] = states
        return out


def outer_boundary(l: Landscape, states) -> frozenset[int]:
    states = frozenset(states)
    return frozenset(
        u for s in states for u in l.neighbors[s] if u not in states
    )


def _gate(l: Landscape, states) -> int | None:
    boundary = outer_boundary(l, states)
    if not boundary:
        return None
    return min(boundary, key=lambda s: l.energy[s])


def decompose_all(l: Landscape, f: Filtration,
                  table: SaddleTable | None = None) -> list[ValleyDecomposition]:
    """All levels 1..nlevels, in order (each level consumes the previous one)."""
    if table is None:
        table = saddle_table(l)
    levels: list[ValleyDecomposition] = []
    order = f.deletion_order
    sweeps: dict = {}
    for i in range(1, f.levels + 1):
        M = f.M(i)
        level = _Level(l, table, M, sweeps)
        if i == 1:
            valley = {m: set() for m in M}
            for s in range(l.n):
                t = s if s in M else level.target(s)
                if t is not None:
                    valley[t].add(s)
            attracted_at = {
                s: (t, 1)
                for t, members in valley.items() for s in members if s != t
            }
            merge_level = {j: math.inf for j in range(1, f.levels + 1)}
            pending: dict[int, tuple[int, frozenset[int], int | None]] = {}
        else:
            prev = levels[-1]
            valley = {m: set(prev.valley[m]) for m in M}
            attracted_at = dict(prev.attracted_at)
            merge_level = dict(prev.merge_level)
            pending = dict(prev.pending)
            dropped = order[i - 2]  # the minimum deleted when entering level i
            pending[dropped] = (i - 1, prev.valley[dropped], prev.exit_gate[dropped])
            for s in sorted(prev.nonassigned):
                t = level.target(s)
                if t is not None:
                    valley[t].add(s)
                    attracted_at[s] = (t, i)
            for p in sorted(pending):
                t = level.target(p)
                if t is not None:
                    own_level, states, _ = pending.pop(p)
                    valley[t].update(states)
                    attracted_at[p] = (t, i)
                    merge_level[order.index(p) + 1] = i
        assigned = set().union(*valley.values()) if valley else set()
        for _, states, _ in pending.values():
            assigned.update(states)
        nonassigned = frozenset(range(l.n)) - assigned
        gates = {m: _gate(l, members) for m, members in valley.items()}
        levels.append(ValleyDecomposition(
            level=i,
            strict=level.strict,
            valley={m: frozenset(v) for m, v in valley.items()},
            nonassigned=nonassigned,
            attracted_at=attracted_at,
            merge_level=merge_level,
            exit_gate=gates,
            pending=pending,
        ))
    return levels


@dataclass(frozen=True, eq=False)
class ValleyTree:
    """Layer g holds the level nlevels-g nodes; each points into the layer above."""

    generations: tuple[tuple[int, tuple[int, ...]], ...]   # (level, nodes)
    parent: tuple[dict[int, int | None], ...]              # per generation; None = root child


def build_tree(l: Landscape, f: Filtration, decomps: list[ValleyDecomposition],
               table: SaddleTable | None = None) -> ValleyTree:
    if table is None:
        table = saddle_table(l)
    nlv = f.levels

    def nodes_at(level: int) -> frozenset[int]:
        if level == 0:
            return frozenset(range(l.n))
        return f.M(level) | decomps[level - 1].nonassigned

    attracted_at = decomps[-1].attracted_at
    generations = []
    parents = []
    for g in range(1, nlv + 1):
        level = nlv - g
        nodes = tuple(sorted(nodes_at(level)))
        link: dict[int, int | None] = {}
        if g == 1:
            for s in nodes:
                link[s] = None
        else:
            above = nodes_at(level + 1)
            for s in nodes:
                if s in above:
                    link[s] = s
                elif s in attracted_at and attracted_at[s][1] == level + 1:
                    link[s] = attracted_at[s][0]
                else:
                    # pending minimum skipped by this layer: nearest coarse node
                    link[s] = min(above, key=lambda k: (table.energy[s, k], l.energy[k], k))
        generations.append((level, nodes))
        parents.append(link)
    return ValleyTree(tuple(generations), tuple(parents))


def tree_to_dot(tree: ValleyTree, labels=None) -> str:
    def name(gen, node):
        return f"g{gen}_{labels[node] if labels else node}"

    lines = ["digraph valleytree {", '  root [label="*", shape=point];']
    for gi, (level, nodes) in enumerate(tree.generations):
        for s in nodes:
            lab = labels[s] if labels else s
            lines.append(f'  {name(gi, s)} [label="{lab}"];')
            p = tree.parent[gi][s]
            target = "root" if p is None else name(gi - 1, p)
            lines.append(f"  {name(gi, s)} -> {target};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def connectivity_params(l: Landscape, ms, eps: float) -> tuple[int, int, int]:
    """The three connectivity counts of a metastate space at tolerance eps.

    eta1: over non-assigned n and metastates r whose valley touches N(n), the
    least number of neighbors of n outside that valley with energy at most
    E(n) + eps. eta2: the least number of outer-boundary states of a valley
    with energy at most E(gate) + eps. eta3: the least number of metastates a
    non-assigned state can enter through a neighbor at most eps above it.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    energy = l.energy
    eta1 = math.inf
    eta3 = math.inf
    for nstate in sorted(ms.nonassigned):
        cutoff = energy[nstate] + eps
        nbrs = set(l.neighbors[nstate])
        touching = 0
        for r in ms.metastates:
            members = ms.valley_of[r]
            if not (members & nbrs):
                continue
            count = sum(1 for s in nbrs if s not in members and energy[s] <= cutoff)
            eta1 = min(eta1, count)
            if any(energy[x] <= cutoff for x in members & nbrs):
                touching += 1
        eta3 = min(eta3, touching)
    eta2 = math.inf
    for m in ms.metastates:
        if m in ms.nonassigned:
            continue
        gate = ms.gate_of[m]
        cutoff = energy[gate] + eps
        boundary = outer_boundary(l, ms.valley_of[m])
        eta2 = min(eta2, sum(1 for s in boundary if energy[s] <= cutoff))
    # empty quantifier ranges (no non-assigned states, say) leave the min at +inf
    return eta1, eta2, eta3
