import math

import numpy as np
import pytest
from conftest import dense

from metabasins import reference, valleys
from metabasins.filtration import scoppola_filtration
from metabasins.landscape import Landscape, gen_random_landscape, reachable
from metabasins.reference import decompose
from metabasins.saddles import SaddleTable, saddle_table
from metabasins.filtration import local_minima
from metabasins.valleys import (
    _gate,
    _suffixes,
    attracted,
    bordering,
    build_tree,
    connectivity_params,
    decompose_all,
    outer_boundary,
    strict_basin,
    tree_to_dot,
)
from metabasins.aggregation import metastate_space


def test_strict_basins_l6(L6):
    l, t = L6.l, L6.table
    assert strict_basin(l, t, {0, 2, 4}, 4) == {4, 5}
    # state 1 ties at barrier 5 between 0 and 2
    assert strict_basin(l, t, {0, 2, 4}, 0) == {0}
    assert strict_basin(l, t, {0, 4}, 0) == {0, 1, 2}


def test_attracted_l6(L6):
    l, t = L6.l, L6.table
    level1 = {0, 2, 4}
    assert not attracted(l, t, level1, 1, 0)
    assert not attracted(l, t, level1, 1, 2)
    level2 = {0, 4}
    assert attracted(l, t, level2, 1, 0)
    assert not attracted(l, t, level2, 3, 0)
    assert not attracted(l, t, level2, 3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_strict_basins_match_per_state_loop(seed):
    base = gen_random_landscape(10 + 4 * seed, 4, 0.05, seed=9200 + seed)
    for l in (base, _tied_twin(base, 1)):
        f = scoppola_filtration(l)
        table = saddle_table(l)
        e = l.energy[dense(table)]
        rows = _suffixes(l, table, f.deletion_order)
        assert len(rows) == f.levels
        for i, (owner, least, strict) in enumerate(rows, start=1):
            M = f.M(i)
            assert strict == {m: strict_basin(l, table, M, m) for m in M}
            for s in range(l.n):
                row = {m: e[s, m] for m in M}
                assert least[s] == min(row.values())
                tied = [m for m in M if row[m] == least[s]]
                assert owner[s] == (tied[0] if len(tied) == 1 else -1)


def _sublevel_touches(l, wall, s, barrier):
    """Wall labels bordering s's component of {E <= barrier} minus the walls, by BFS."""
    allowed = {v for v in range(l.n) if l.energy[v] <= barrier and wall[v] < 0}
    if s not in allowed:
        return set()
    return {wall[u] for v in reachable(l, s, allowed) for u in l.neighbors[v]
            if wall[u] >= 0 and l.energy[u] <= barrier}


def _flood(l, wall, queries):
    return bordering(l.neighbors, l.energy.tolist(), wall, queries,
                     np.argsort(l.energy, kind="stable").tolist())


@pytest.mark.parametrize("seed", range(8))
def test_swept_connectivity_matches_sublevel_bfs(seed):
    l = gen_random_landscape(8 + 3 * seed, 3, 0.05, seed=9100 + seed)
    rng = np.random.default_rng(seed)
    low, high = l.energy.min() - 1.0, l.energy.max() + 1.0
    for _ in range(4):
        wall = [-1] * l.n
        for v in rng.choice(l.n, size=int(rng.integers(0, 5)), replace=False):
            wall[int(v)] = int(rng.integers(0, 3))
        # each flood asks about every state, walls and states above their
        # barrier included; energies themselves probe the inclusive end of the
        # sublevel set, and barriers below and above every energy the flood's
        # two ends
        floods = [rng.choice(l.energy, size=l.n) + rng.choice([-0.01, 0.0, 0.01], size=l.n)
                  for _ in range(5)]
        floods += [np.full(l.n, low), np.full(l.n, high), rng.choice([low, high], size=l.n)]
        for barriers in floods:
            queries = dict(enumerate(barriers.tolist()))
            found = _flood(l, wall, queries)
            assert found.keys() == queries.keys()
            for s, barrier in queries.items():
                # each root keeps one label or a mark for several: enough to
                # name the one label bordering s's component, or to say there
                # is not one
                touches = _sublevel_touches(l, wall, s, barrier)
                assert found[s] == (touches.pop() if len(touches) == 1 else None)


def test_flood_answers_after_every_tied_state():
    # w0 - x - y - w1, with x and y at one energy: at that energy x's walled
    # component is {x, y}, which borders both walls; answering right after x
    # entered would see w0 alone
    l = Landscape(np.array([0.0, 1.0, 1.0, 0.0]), ((1,), (0, 2), (1, 3), (2,)))
    wall = [0, -1, -1, 1]
    assert _flood(l, wall, {1: 1.0, 2: 1.0}) == {1: None, 2: None}
    assert _flood(l, wall, {1: 1.0}) == {1: None}
    assert _sublevel_touches(l, wall, 1, 1.0) == {0, 1}


def test_several_attracting_minima_raise(L6):
    # a doctored table puts state 1's tied saddles at state 4, below its own
    # energy (E(4) = 0), which no saddle table of the landscape does: the
    # links that state 1 formed, to 0 and to 2, are said to be formed by 4
    t = L6.table
    assert (t.via == 1).sum() == 2
    with pytest.raises(ValueError, match="state 1 lies above its least saddle energy"):
        decompose_all(L6.l, L6.f, SaddleTable(t.at, t.join, np.where(t.via == 1, 4, t.via)))


def _tied_twin(l, decimals=0):
    """The landscape with its energies rounded, so energies and saddles tie."""
    return Landscape(np.round(l.energy, decimals), l.neighbors)


@pytest.mark.parametrize("seed", range(20))
def test_attracted_matches_path_enumeration(seed):
    base = gen_random_landscape(4 + seed % 7, 3, 0.05, seed=7300 + seed)
    rng = np.random.default_rng(seed)
    compared = 0
    for l in (base, _tied_twin(base, 1)):
        f = scoppola_filtration(l)
        table = saddle_table(l)
        cache = reference.PathCache(l)
        # the filtration's levels, and subsets of the minima that are not levels
        minima = sorted(local_minima(l))
        subsets = [frozenset(rng.choice(minima, size=int(rng.integers(1, len(minima) + 1)),
                                        replace=False).tolist()) for _ in range(4)]
        for M in [f.M(i) for i in range(1, f.levels + 1)] + subsets:
            strict = {m: reference.strict_basin_oracle(cache, M, m) for m in M}
            for s in range(l.n):
                for m in M:
                    assert attracted(l, table, M, s, m) == reference.attracted_oracle(
                        cache, M, s, m, strict[m])
                    compared += 1
    assert compared >= 2 * base.n


def _per_triple_decompose(l, f, table):
    """The valley recursion with each tie decided per (state, minimizer,
    competitor): s is attracted by a tied minimizer m when no competitor
    connects to s below the least saddle energy outside m's strict basin."""
    energy = l.energy.tolist()
    saddle_energy = l.energy[dense(table)]
    forests = {}

    def connected(avoid, s, t, e):
        if avoid not in forests:
            parent, stamp, size = list(range(l.n)), [math.inf] * l.n, [1] * l.n
            forests[avoid] = parent, stamp
            active = [False] * l.n
            for z in np.argsort(l.energy).tolist():
                if z in avoid:
                    continue
                active[z] = True
                for u in l.neighbors[z]:
                    a, b = root(avoid, z, math.inf), root(avoid, u, math.inf)
                    if active[u] and a != b:
                        a, b = (a, b) if size[a] >= size[b] else (b, a)
                        parent[b], stamp[b] = a, energy[z]
                        size[a] += size[b]
        return root(avoid, s, e) == root(avoid, t, e)

    def root(avoid, v, e):
        parent, stamp = forests[avoid]
        while parent[v] != v and stamp[v] <= e:
            v = parent[v]
        return v

    def target(M, strict, s):
        row = {m: saddle_energy[s, m] for m in M}
        least = min(row.values())
        tied = [m for m in sorted(M) if row[m] == least]
        hits = [m for m in tied if not any(connected(strict[m], s, mp, least)
                                           for mp in tied if mp != m)]
        assert len(hits) <= 1
        return hits[0] if hits else None

    levels = []
    order = f.deletion_order
    for i in range(1, f.levels + 1):
        M = f.M(i)
        strict = {m: strict_basin(l, table, M, m) for m in M}
        if i == 1:
            valley = {m: {m} for m in M}
            attracted_at, pending = {}, {}
            merge_level = {j: math.inf for j in range(1, f.levels + 1)}
            for s in range(l.n):
                t = None if s in M else target(M, strict, s)
                if t is not None:
                    valley[t].add(s)
                    attracted_at[s] = (t, 1)
        else:
            prev = levels[-1]
            valley = {m: set(prev.valley[m]) for m in M}
            attracted_at, merge_level = dict(prev.attracted_at), dict(prev.merge_level)
            pending = dict(prev.pending)
            dropped = order[i - 2]
            pending[dropped] = (i - 1, prev.valley[dropped], prev.exit_gate[dropped])
            for s in sorted(prev.nonassigned):
                t = target(M, strict, s)
                if t is not None:
                    valley[t].add(s)
                    attracted_at[s] = (t, i)
            for p in sorted(pending):
                t = target(M, strict, p)
                if t is not None:
                    valley[t].update(pending.pop(p)[1])
                    attracted_at[p] = (t, i)
                    merge_level[order.index(p) + 1] = i
        assigned = set().union(*valley.values(), *(v for _, v, _ in pending.values()))
        levels.append(valleys.ValleyDecomposition(
            level=i, strict=strict, valley={m: frozenset(v) for m, v in valley.items()},
            nonassigned=frozenset(range(l.n)) - assigned, attracted_at=attracted_at,
            merge_level=merge_level, exit_gate={m: _gate(l, v) for m, v in valley.items()},
            pending=pending))
    return levels


def _decomposition_inputs(L6, L14, L14X):
    out = [fx.l for fx in (L6, L14, L14X)]
    for n in (60, 150, 300):
        out.append(gen_random_landscape(n, 4, 0.05, 1))
    return out + [_tied_twin(l) for l in out]


def test_decompose_all_matches_the_per_triple_rule(L6, L14, L14X):
    tied_levels = 0
    for l in _decomposition_inputs(L6, L14, L14X):
        f = scoppola_filtration(l)
        table = saddle_table(l)
        got, want = decompose_all(l, f, table), _per_triple_decompose(l, f, table)
        assert len(got) == len(want) == f.levels
        for d, w in zip(got, want):
            assert (d.level, d.strict, d.valley, d.nonassigned) == (
                w.level, w.strict, w.valley, w.nonassigned)
            assert (d.attracted_at, d.merge_level, d.exit_gate, d.pending) == (
                w.attracted_at, w.merge_level, w.exit_gate, w.pending)
        tied_levels += sum((owner < 0).any()
                           for owner, _, _ in _suffixes(l, table, f.deletion_order))
    assert tied_levels > 100


def test_decompose_all_shares_unchanged_strict_basins(L6, L14, L14X):
    # a strict basin is frozen again only at a level that changes it
    shared = 0
    for l in _decomposition_inputs(L6, L14, L14X):
        decomps = decompose_all(l, scoppola_filtration(l), saddle_table(l))
        for prev, d in zip(decomps, decomps[1:]):
            for m, basin in d.strict.items():
                assert (basin is prev.strict[m]) == (basin == prev.strict[m])
                shared += basin is prev.strict[m]
    assert shared > 10000


def test_decompose_all_builds_at_most_one_sweep_per_level(L6, L14, L14X, monkeypatch):
    floods = []

    def counting_flood(*args):
        floods.append(args)
        return bordering(*args)

    monkeypatch.setattr(valleys, "bordering", counting_flood)
    for fx in (L6, L14, L14X):
        floods.clear()
        decompose_all(fx.l, fx.f, fx.table)
        assert 0 < len(floods) <= fx.f.levels


def _grown_at(d):
    """(attractor, level) of every attraction up to d's level."""
    return set(d.attracted_at.values())


def test_decompose_all_carries_unchanged_valleys_over(L6, L14, L14X):
    for l in _decomposition_inputs(L6, L14, L14X):
        decomps = decompose_all(l, scoppola_filtration(l), saddle_table(l))
        grown = _grown_at(decomps[-1])
        for prev, d in zip(decomps, decomps[1:]):
            for m, members in d.valley.items():
                if (m, d.level) not in grown:
                    assert members is prev.valley[m]
                    assert d.exit_gate[m] == prev.exit_gate[m]
        for d in decomps:
            for p, (own, members, gate) in d.pending.items():
                assert members is decomps[own - 1].valley[p]
                assert gate == decomps[own - 1].exit_gate[p]


def test_decompose_all_gates_only_grown_valleys(L6, L14, L14X, monkeypatch):
    calls = []

    def counting_gate(l, states):
        calls.append(states)
        return _gate(l, states)

    monkeypatch.setattr(valleys, "_gate", counting_gate)
    for l in _decomposition_inputs(L6, L14, L14X):
        f = scoppola_filtration(l)
        calls.clear()
        decomps = decompose_all(l, f, saddle_table(l))
        later = {(m, i) for m, i in _grown_at(decomps[-1]) if i >= 2}
        assert len(calls) == len(f.M(1)) + len(later)


def test_decompose_l6_levels(L6):
    d1, d2, d3 = L6.decomps
    assert d1.valley == {0: frozenset({0}), 2: frozenset({2}), 4: frozenset({4, 5})}
    assert d1.nonassigned == {1, 3}
    assert d2.valley == {0: frozenset({0, 1, 2}), 4: frozenset({4, 5})}
    assert d2.nonassigned == {3}
    assert d2.merge_level[1] == 2        # minimum deleted first merges at level 2
    assert d3.valley == {4: frozenset(range(6))}
    assert d3.nonassigned == frozenset()
    assert d3.merge_level[2] == 3
    assert math.isinf(d3.merge_level[3])


def test_exit_gates_l6(L6):
    d1, d2, d3 = L6.decomps
    assert d1.exit_gate == {0: 1, 2: 1, 4: 3}
    assert d2.exit_gate == {0: 3, 4: 3}
    # the full-space valley has no outer boundary
    assert d3.exit_gate == {4: None}


def test_gate_breaks_energy_ties_by_state():
    # one state set, frozen from a list and from a grown set: the two iterate
    # in different orders, and two boundary states tie at the least energy
    l = _tied_twin(gen_random_landscape(300, 4, 0.05, 1))
    states = [10, 44, 50, 60, 65, 66, 71, 85, 88, 89, 93, 103, 117, 120, 139, 150, 154,
              170, 171, 197, 213, 230, 231, 239, 256, 263, 265, 269, 289]
    grown = set()
    for s in states:
        grown.add(s)
    listed, copied = frozenset(states), frozenset(grown)
    assert listed == copied and list(listed) != list(copied)
    boundary = outer_boundary(l, listed)
    least = min(l.energy[s] for s in boundary)
    tied = sorted(s for s in boundary if l.energy[s] == least)
    assert len(tied) > 1
    assert _gate(l, listed) == _gate(l, copied) == tied[0]


def test_decompose_level_range(L6):
    with pytest.raises(ValueError):
        decompose(L6.l, L6.f, 0, L6.table)
    with pytest.raises(ValueError):
        decompose(L6.l, L6.f, 4, L6.table)


def test_l14_reconstruction_nonassigned_sets(L14):
    labels = L14.l.labels
    expected = [
        {3, 5, 7, 9, 11, 13}, {3, 5, 7, 11, 13}, {3, 5, 7, 11},
        {3, 7, 11}, {7, 11}, {11}, set(),
    ]
    for d, want in zip(L14.decomps, expected):
        assert {labels[s] for s in d.nonassigned} == want


def test_l14_reconstruction_tree_structure(L14):
    tree = build_tree(L14.l, L14.f, L14.decomps, L14.table)
    labels = L14.l.labels
    by_level = {level: parent for (level, _), parent in zip(tree.generations, tree.parent)}
    # generation layers hold M(level) plus the non-assigned states of the level
    assert {labels[s] for s in dict(tree.generations)[6]} == {4, 14, 11}
    # attraction links of the reconstruction
    def parent(level, label):
        link = by_level[level]
        s = L14.l.index_of_label(label)
        p = link[s]
        return None if p is None else labels[p]
    assert parent(6, 14) is None and parent(6, 11) is None and parent(6, 4) is None
    assert parent(5, 10) == 4 and parent(5, 7) == 4
    assert parent(2, 12) == 14 and parent(2, 13) == 14
    assert parent(1, 8) == 10 and parent(1, 9) == 10
    assert parent(0, 1) == 2


def test_l6_tree(L6):
    tree = build_tree(L6.l, L6.f, L6.decomps, L6.table)
    gens = dict(tree.generations)
    assert set(gens[2]) == {0, 4, 3}
    assert set(gens[1]) == {0, 2, 4, 1, 3}
    assert set(gens[0]) == set(range(6))
    links = {level: parent for (level, _), parent in zip(tree.generations, tree.parent)}
    assert links[1][2] == 0 and links[1][1] == 0
    assert links[0][5] == 4
    dot = tree_to_dot(tree, labels=L6.l.labels)
    assert dot.startswith("digraph") and "-> root" in dot


def test_star_tree_single_minimum():
    l = gen_random_landscape(6, 3, 0.2, seed=11)
    # force a monotone landscape: single minimum at the lowest state
    import numpy as np
    from metabasins.landscape import Landscape
    energies = np.sort(l.energy)
    path = Landscape(energies, tuple(
        tuple(sorted({i - 1, i + 1} & set(range(6)))) for i in range(6)))
    f = scoppola_filtration(path)
    assert f.levels == 1
    table = saddle_table(path)
    decomps = decompose_all(path, f, table)
    tree = build_tree(path, f, decomps, table)
    assert len(tree.generations) == 1
    assert all(p is None for p in tree.parent[0].values())


@pytest.mark.parametrize("seed", range(25))
def test_definitional_oracle_small(seed):
    l = gen_random_landscape(4 + seed % 6, 3, 0.05, seed=7000 + seed)
    f = scoppola_filtration(l)
    table = saddle_table(l)
    decomps = decompose_all(l, f, table)
    for d, (valleys, nonassigned, merge_level) in zip(
            decomps, reference.decompose_oracle(l, f)):
        assert d.valley == valleys
        assert d.nonassigned == nonassigned
        assert d.merge_level == merge_level


@pytest.mark.parametrize("seed", range(12))
def test_valley_shape_invariants(seed):
    l = gen_random_landscape(5 + seed % 6, 3, 0.05, seed=8000 + seed)
    f = scoppola_filtration(l)
    table = saddle_table(l)
    zs = dense(table)
    decomps = decompose_all(l, f, table)
    for d in decomps:
        assigned = d.assigned_valleys()
        seen = set()
        for m, members in assigned.items():
            assert m in members
            assert not (seen & members)
            seen |= members
        for m, members in d.valley.items():
            assert d.strict[m] <= members
            for s in outer_boundary(l, members):
                assert s in d.nonassigned
                assert l.energy[zs[s, m]] == l.energy[s]
        # saddle comparisons: strict basin states sit strictly closer to their
        # bottom, and cross-valley saddles dominate the bottom pair's saddle
        for m1, v1 in d.valley.items():
            for m2, v2 in d.valley.items():
                if m1 == m2:
                    continue
                for x1 in d.strict[m1]:
                    for x2 in v2:
                        assert zs[x1, x2] != x1
                        assert l.energy[zs[x1, x2]] >= l.energy[zs[m1, m2]]


def test_attraction_dichotomy_small(L6):
    # for attracted x and outside y: either every minimal path hits the strict
    # basin, or the saddle to y is strictly above the saddle to the bottom
    l, t = L6.l, dense(L6.table)
    cache = reference.PathCache(l)
    for d in L6.decomps:
        for m, members in d.valley.items():
            for x in members:
                for y in range(l.n):
                    if y in members:
                        continue
                    all_hit = all(
                        not d.strict[m].isdisjoint(p)
                        for p in cache.minimal_paths(x, y)
                    )
                    assert all_hit or l.energy[t[x, y]] > l.energy[t[x, m]]


def test_connectivity_params_l6(L6):
    ms = metastate_space(L6.decomps[1], L6.f)
    assert connectivity_params(L6.l, ms, 0.5) == (1, 1, 2)
    # large cutoff: eta2 counts the whole outer boundary
    eta1, eta2, eta3 = connectivity_params(L6.l, ms, 1e9)
    assert eta2 == min(len(outer_boundary(L6.l, ms.valley_of[m]))
                       for m in ms.valley_metastates)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_connectivity_params_eps_must_be_positive(L6, eps):
    ms = metastate_space(L6.decomps[1], L6.f)
    with pytest.raises(ValueError, match="eps must be positive"):
        connectivity_params(L6.l, ms, eps)


def test_connectivity_params_l14x(L14X):
    rep_level = 5
    ms = metastate_space(L14X.decomps[rep_level - 1], L14X.f)
    eta1, eta2, eta3 = connectivity_params(L14X.l, ms, 2.5)
    assert eta2 >= 2
    assert (eta1, eta2, eta3) == (2, 2, 3)
