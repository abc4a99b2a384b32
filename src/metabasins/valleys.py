"""Strict basins, attraction, recursive valleys and the valley tree.

Level 1 gives each local minimum the states attracted to it; the rest are
non-assigned. The levels form one partition of the states whose parts only
merge: a part is a metastable valley, the pending valley of a deleted bottom
not yet attracted, or a non-assigned state alone. Each later level moves every
attracted part into its attractor's valley and carries the others over as they
are. At each level the valleys are pairwise disjoint and connected.

A state s is attracted by m when m realizes the least saddle energy from s
and every minimal path to an equally cheap competitor passes through the
strict basin of m. For a tied state this is one question about its component
of the saddle-level sublevel set with every strict basin walled off: which
basins it borders (proof in ``bordering``). The path clause is validated
against literal path enumeration in the tests.

Each level's metastable set is the next one's plus one bottom m, so one backward
pass over the deletion order reads one saddle-table column z*(., m) per level,
O(n) from the merge forest's leaf order, for its strict basins and least
saddle energies; no level reads a whole table. One walled flood over the
states in energy order (``bordering``), its strict basins as walls, answers
all of a level's ties; the energy order is sorted once per decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import Filtration
from .landscape import Landscape
from .saddles import SaddleTable


def strict_basin(l: Landscape, table: SaddleTable, M, m: int) -> frozenset[int]:
    """States whose saddle to m is strictly below the saddle to every other metastable."""
    M = frozenset(M)
    if m not in M:
        raise ValueError("m is not metastable at this level")
    e = l.energy[np.array([table.column(x) for x in [m, *(M - {m})]])]
    inside = (e[0] < e[1:]).all(axis=0)
    inside[list(M)] = False
    # the bottom first, then increasing states, as ``_suffixes`` fills a basin
    return frozenset({m, *np.flatnonzero(inside).tolist()})


def _suffixes(l: Landscape, table: SaddleTable, order) -> list[tuple]:
    """(owner, least, strict) of each metastable set order[c:], first set first.

    Read backwards, each set adds one bottom, so each reads one table column,
    and a strict basin is frozen again only when it changes. ``owner`` is -1
    for a tied state. The bottoms are local minima, so each owns itself: its
    saddle to any other state lies strictly above it.
    """
    least = np.full(l.n, math.inf)
    owner = np.full(l.n, -1)
    strict: dict[int, frozenset[int]] = {}
    out = []
    for m in reversed(order):
        e = l.energy[table.column(m)]
        changed = {m, *owner[e <= least].tolist()} - {-1}
        owner = np.where(e < least, m, np.where(e == least, -1, owner))
        least = np.minimum(e, least)
        # a basin is filled with its bottom first and then in increasing state
        # order, so that it iterates as ``strict_basin``'s (bound sums run over it)
        strict = strict | {b: frozenset({b, *np.flatnonzero(owner == b).tolist()}) for b in changed}
        out.append((owner, least, strict))
    return out[::-1]


def bordering(neighbors, energy: list[float], wall: list[int], queries: dict, order) -> dict:
    """For each query s: e, the one wall label bordering s's component of
    {E <= e} minus the walls; None if it borders none or several, if s is a
    wall, or if E(s) > e.

    ``wall[s]`` is a label >= 0 for a wall state and -1 otherwise. One flood
    over ``order``, the states by increasing energy, answers every query: the
    states outside the walls join on a path-halving union-find, and a
    component borders a wall once an edge between them has both ends entered.
    A root keeps its component's one label, or a mark for none or several. A
    query is answered once every state of energy <= e has entered, not after
    the first of several tied ones, and the flood stops after the last query.

    This is the attraction of a tied state. Let s have least saddle energy L,
    let C be its component of {E <= L} and T its tied minimizers. By the
    ultrametric inequality of saddle energies:
    - C holds exactly the metastable states of T;
    - each S(m), m in T, is connected, lies strictly below L (so inside C)
      and is disjoint from the other basins;
    - no basin of a metastable state outside T meets C.
    So s reaches another minimizer m' in C minus S(m) iff it reaches S(m').
    A path from s leaves its walled component (C minus every basin) only into
    a basin, and that component borders at least one, since C is connected
    and holds one. So, with the strict basins as walls, s is attracted by m
    iff the walled component borders S(m) and no other basin, and by at most
    one minimum.
    """
    n = len(energy)
    parent = list(range(n))
    entered = [False] * n
    border = [-1] * n     # per root: the one wall label its component borders, -1 none, -2 several
    found = {}
    i = 0
    for s in sorted(queries, key=queries.get):
        e = queries[s]
        while i < n and energy[order[i]] <= e:
            z = order[i]
            i += 1
            entered[z] = True
            w = wall[z]
            if w >= 0:
                for u in neighbors[z]:
                    if entered[u] and wall[u] < 0:
                        while parent[u] != u:
                            parent[u] = u = parent[parent[u]]
                        b = border[u]
                        border[u] = w if b == -1 or b == w else -2
                continue
            for u in neighbors[z]:       # z stays the root of its component
                if not entered[u]:
                    continue
                a = wall[u]
                if a < 0:
                    while parent[u] != u:
                        parent[u] = u = parent[parent[u]]
                    if u == z:
                        continue
                    parent[u] = z
                    a = border[u]
                b = border[z]
                border[z] = a if b == -1 or b == a else (b if a == -1 else -2)
        v = s
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        found[s] = border[v] if border[v] >= 0 else None
    return found


def _tie_queries(energy: list[float], owner: list[int], least: list[float], asked) -> dict:
    """Each tied state of ``asked`` at its least saddle energy: the flood's queries."""
    for s in asked:
        if energy[s] > least[s]:
            raise ValueError(f"state {s} lies above its least saddle energy {least[s]}; "
                             "the saddle table does not belong to the landscape")
    return {s: least[s] for s in asked if owner[s] < 0}


def attracted(l: Landscape, table: SaddleTable, M, s: int, m: int) -> bool:
    """Is s attracted by m among the metastable set M?"""
    if m not in M:
        raise ValueError("m is not metastable at this level")
    owner, least, _ = _suffixes(l, table, sorted(M))[0]
    owner, energy = owner.tolist(), l.energy.tolist()
    found = bordering(l.neighbors, energy, owner, _tie_queries(energy, owner, least.tolist(), [s]),
                      np.argsort(l.energy, kind="stable").tolist())
    return (found[s] if owner[s] < 0 else owner[s]) == m


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
    """The least-energy outer-boundary state, the smaller state on a tie."""
    boundary = outer_boundary(l, states)
    if not boundary:
        return None
    return min(boundary, key=lambda s: (l.energy[s], s))


def decompose_all(l: Landscape, f: Filtration, table: SaddleTable) -> list[ValleyDecomposition]:
    """All levels 1..nlevels, in order, carried as one partition of the states.

    A part is named by its metastable or pending bottom, or by its one
    non-assigned state. Level i asks only about the parts not named by M(i),
    in increasing order, and refreezes and regates only the parts that grew.
    """
    part = {s: frozenset((s,)) for s in range(l.n)}
    gate: dict[int, int | None] = {}
    # minimum -> last level at which it is metastable, j for m^(j)
    own: dict[int, int] = {}
    nonassigned = frozenset(range(l.n)) - f.M(1)
    attracted_at: dict[int, tuple[int, int]] = {}
    merge_level = {j: math.inf for j in range(1, f.levels + 1)}
    levels: list[ValleyDecomposition] = []
    energy, order = l.energy.tolist(), np.argsort(l.energy, kind="stable").tolist()
    for i, (owner, least, strict) in enumerate(_suffixes(l, table, f.deletion_order), start=1):
        M = f.M(i)
        owner = owner.tolist()
        asked = sorted(part.keys() - M)
        found = bordering(l.neighbors, energy, owner,
                          _tie_queries(energy, owner, least.tolist(), asked), order)
        # at level 1 every bottom's valley is new, whether it attracts or not
        grown: dict[int, list[int]] = {m: [] for m in M} if i == 1 else {}
        taken = []                      # non-assigned states attracted at level i
        for s in asked:
            t = found[s] if owner[s] < 0 else owner[s]
            if t is not None:
                grown.setdefault(t, []).append(s)
                attracted_at[s] = (t, i)
                if s in own:
                    merge_level[own[s]] = i
                else:
                    taken.append(s)
        for t, names in grown.items():
            part[t] = part[t].union(*[part.pop(s) for s in names])
            gate[t] = _gate(l, part[t])
        if taken:
            nonassigned = nonassigned.difference(taken)
        own.update(dict.fromkeys(M, i))
        levels.append(ValleyDecomposition(
            level=i,
            strict=strict,
            valley={m: part[m] for m in M},
            nonassigned=nonassigned,
            attracted_at=dict(attracted_at),
            merge_level=dict(merge_level),
            exit_gate={m: gate[m] for m in M},
            pending={p: (lv, part[p], gate[p]) for p, lv in own.items() if lv < i and p in part},
        ))
    return levels


@dataclass(frozen=True, eq=False)
class ValleyTree:
    """Layer g holds the level nlevels-g nodes; each points into the layer above."""

    generations: tuple[tuple[int, tuple[int, ...]], ...]   # (level, nodes)
    parent: tuple[dict[int, int | None], ...]              # per generation; None = root child


def build_tree(l: Landscape, f: Filtration, decomps: list[ValleyDecomposition],
               table: SaddleTable) -> ValleyTree:
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
                    es = l.energy[table.column(s)]
                    link[s] = min(above, key=lambda k: (es[k], l.energy[k], k))
        generations.append((level, nodes))
        parents.append(link)
    return ValleyTree(tuple(generations), tuple(parents))


def tree_to_dot(tree: ValleyTree, labels) -> str:
    lines = ["digraph valleytree {", '  root [label="*", shape=point];']
    above: dict[int, str] = {}      # node -> name in the generation above
    for gi, (level, nodes) in enumerate(tree.generations):
        labs = [labels[s] for s in nodes]
        names = [f"g{gi}_{x}" for x in labs]
        parent = tree.parent[gi]
        for s, x, name in zip(nodes, labs, names):
            p = parent[s]
            lines.append(f'  {name} [label="{x}"];\n'
                         f'  {name} -> {"root" if p is None else above[p]};')
        above = dict(zip(nodes, names))
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
