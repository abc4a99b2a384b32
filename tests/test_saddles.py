import numpy as np
import pytest
from conftest import dense

from metabasins import reference
from metabasins.landscape import Landscape, LandscapeError, gen_random_landscape
from metabasins.reference import minimax_path
from metabasins.saddles import (
    Sweep,
    activation_energy,
    climb,
    essential_saddle,
    saddle_table,
    sublevel_connected,
    uphill_downhill_path,
)


def lattice(side, seed):
    """A side x side four-neighbour lattice with distinct energies in random order.

    Unlike the near-trees of ``gen_random_landscape``, an entering state here
    often joins several components at once.
    """
    n = side * side
    energy = np.random.default_rng(seed).permutation(n) * 0.25
    neighbors = []
    for v in range(n):
        row, col = divmod(v, side)
        neighbors.append(tuple(u for u, inside in ((v - side, row > 0), (v - 1, col > 0),
                                                   (v + 1, col < side - 1),
                                                   (v + side, row < side - 1)) if inside))
    return Landscape(energy, tuple(neighbors))


def test_l6_saddles(L6):
    assert essential_saddle(L6.l, 0, 4) == (3, 6.0)
    # the saddle of an adjacent pair is the higher endpoint
    assert essential_saddle(L6.l, 5, 4) == (5, 4.0)
    e = L6.l.energy[dense(L6.table)]
    assert e[0, 2] == 5.0 and e[2, 4] == 6.0 and e[0, 4] == 6.0


def test_table_symmetric(L6, L14X):
    for fx in (L6, L14X):
        state = dense(fx.table)
        assert (state == state.T).all()
        e = fx.l.energy[state]
        assert (e == e.T).all()


def test_disconnected_landscape_raises():
    l = Landscape(np.array([0.0, 1.0, 2.0, 3.0]), ((1,), (0,), (3,), (2,)))
    with pytest.raises(LandscapeError, match="not connected"):
        saddle_table(l)


def test_self_saddle_convention(L6):
    assert L6.table.column(2)[2] == 2
    assert L6.l.energy[L6.table.column(2)[2]] == 2.0


@pytest.mark.parametrize("seed", range(30))
def test_oracle_equivalence_small(seed):
    l = gen_random_landscape(4 + seed % 7, 3, 0.05, seed=seed)
    t = dense(saddle_table(l))
    e = l.energy[t]
    for a in range(l.n):
        for b in range(a + 1, l.n):
            state, energy = reference.minimax_oracle(l, a, b)
            assert t[a, b] == state
            assert e[a, b] == energy
            # the single-pair reading of the sweep
            assert essential_saddle(l, a, b) == (t[a, b], e[a, b])
            # independent algorithm: minimax Dijkstra
            rec = minimax_path(l, a, b)
            assert rec.max_energy == energy
            assert max(rec.states, key=lambda s: l.energy[s]) == state


@pytest.mark.parametrize("seed", range(4))
def test_table_matches_minimax_dijkstra_at_n300(seed):
    # the range maxima of a 300-state sweep, far beyond the enumeration oracles
    l = gen_random_landscape(300, 4, 0.05, seed=seed)
    t = dense(saddle_table(l))
    assert (np.diag(t) == np.arange(l.n)).all()
    rng = np.random.default_rng(seed)
    for _ in range(60):
        a, b = (int(v) for v in rng.choice(l.n, size=2, replace=False))
        rec = minimax_path(l, a, b)
        assert l.energy[t[a, b]] == rec.max_energy
        assert t[a, b] == t[b, a] == max(rec.states, key=lambda s: l.energy[s])


@pytest.mark.parametrize("seed", range(2))
def test_lattice_table_matches_minimax_dijkstra(seed):
    l = lattice(8, seed)
    t = dense(saddle_table(l))
    e = l.energy[t]
    assert (np.diag(t) == np.arange(l.n)).all()
    for a in range(l.n):
        for b in range(a + 1, l.n):
            rec = minimax_path(l, a, b)
            assert e[a, b] == e[b, a] == rec.max_energy
            assert t[a, b] == t[b, a] == max(rec.states, key=lambda s: l.energy[s])


@pytest.mark.parametrize("seed", range(3))
def test_lattice_table_matches_path_enumeration(seed):
    l = lattice(3, seed)
    t = dense(saddle_table(l))
    e = l.energy[t]
    for a in range(l.n):
        for b in range(a + 1, l.n):
            assert (t[a, b], e[a, b]) == reference.minimax_oracle(l, a, b)
            assert essential_saddle(l, a, b) == (t[a, b], e[a, b])


@pytest.mark.parametrize("n", [6, 8, 10, 14, 20, 30])
def test_single_pair_reading_matches_the_table_on_ties(n):
    # with tied energies several states can top a minimax path; the one pair
    # read and the table name the same one, at the minimax energy
    for s in range(10):
        base = gen_random_landscape(n, 4, 0.05, s)
        for decimals in (0, 1):
            l = Landscape(np.round(base.energy, decimals), base.neighbors)
            t = saddle_table(l)
            for b in range(0, l.n, 1 + l.n // 10):
                column = t.column(b)
                for a in range(l.n):
                    if a != b:
                        z, energy = essential_saddle(l, a, b)
                        assert z == column[a]
                        assert energy == minimax_path(l, a, b).max_energy


def test_tied_states_enter_the_sweep_in_state_order():
    # tied energies enter in increasing state order, whatever numpy's default
    # sort does with them: the table is the one built from the explicit
    # (energy, state) order, given as distinct ranks
    for n in (20, 50, 100, 300):
        for s in range(4):
            base = gen_random_landscape(n, 4, 0.05, s)
            l = Landscape(np.round(base.energy, 1), base.neighbors)
            rank = np.empty(n)
            rank[np.lexsort((np.arange(n), l.energy))] = np.arange(n)
            got, want = saddle_table(l), saddle_table(Landscape(rank, l.neighbors))
            for k in ("at", "join", "via"):
                assert np.array_equal(getattr(got, k), getattr(want, k))


def test_table_invariant_under_relabelling():
    # renaming the states renames the table: z*(p(a), p(b)) = p(z*(a, b))
    l = lattice(8, 5)
    p = np.random.default_rng(5).permutation(l.n)
    energy = np.empty(l.n)
    energy[p] = l.energy
    neighbors = [()] * l.n
    for v, nbrs in enumerate(l.neighbors):
        neighbors[p[v]] = tuple(sorted(int(p[u]) for u in nbrs))
    t, u = dense(saddle_table(l)), dense(saddle_table(Landscape(energy, tuple(neighbors))))
    assert np.array_equal(u[np.ix_(p, p)], p[t])
    assert np.array_equal(energy[u][np.ix_(p, p)], l.energy[t])


def _walled_landscapes():
    for seed in range(12):
        l = gen_random_landscape(10 + 7 * seed, 4, 0.05, seed=500 + seed)
        wall = np.random.default_rng(seed).integers(-1, 3, size=l.n)
        # no walls, or walls with one label, or with two
        wall[wall >= seed % 3] = -1
        yield l, wall.tolist()
    l = lattice(8, 7)
    yield l, [-1] * l.n
    yield l, np.random.default_rng(7).integers(-1, 2, size=l.n).tolist()


@pytest.mark.parametrize("l, wall", list(_walled_landscapes()))
def test_every_link_joins_adjacent_intervals_of_the_leaf_order(l, wall):
    # the wall states lose their edges, so the forest can keep several roots
    cut = tuple(() if w >= 0 else tuple(u for u in nbrs if wall[u] < 0)
                for w, nbrs in zip(wall, l.neighbors))
    sweep = Sweep(Landscape(l.energy, cut))
    order = sweep.order
    assert sorted(order) == list(range(l.n))
    place = {v: i for i, v in enumerate(order)}
    members = {v: [v] for v in range(l.n)}
    for b in sweep.links:
        # b's interval opens right after the interval of the root a it joins,
        # which opens at a
        a = next(r for r, m in members.items() if order[place[b] - 1] in m)
        lo, mid = place[a], place[a] + len(members[a])
        hi = mid + len(members[b])
        assert order[mid] == b
        assert sorted(order[lo:mid]) == sorted(members[a])
        assert sorted(order[mid:hi]) == sorted(members[b])
        assert sweep.size[b] == len(members[b])
        members[a] += members.pop(b)
    assert all(sweep.size[r] == len(m) for r, m in members.items())
    assert all(w < 0 or members[v] == [v] for v, w in enumerate(wall))


@pytest.mark.parametrize("seed", range(20))
def test_ultrametric_inequality(seed):
    l = gen_random_landscape(4 + seed % 6, 3, 0.05, seed=100 + seed)
    e = l.energy[dense(saddle_table(l))]
    n = l.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert e[a, b] <= max(e[a, c], e[c, b]) + 0.0


def test_activation_energy_l6(L6):
    assert activation_energy(L6.l, 2, 0) == 3.0
    assert activation_energy(L6.l, 0, 2) == 4.0
    assert activation_energy(L6.l, 0, 4) == 8.0
    assert activation_energy(L6.l, 4, 0) == 9.0
    # strictly downhill: no positive increments
    assert activation_energy(L6.l, 5, 4) == 0.0


def test_climb_drains_equal_cost_targets():
    # target 2 is settled first at cost 1; target 1 costs 1 too, through a
    # later zero-climb move from 3, and is the lesser state
    energy = [0.0, 0.5, 1.0, 1.0, 2.0]
    neighbors = ((2, 3), (3,), (0,), (0, 1), ())
    assert climb(neighbors, energy, 0, {1, 2}) == (1.0, 1)
    assert climb(neighbors, energy, 0, {2}) == (1.0, 2)
    assert climb(neighbors, energy, 0, {4}) == (float("inf"), -1)


@pytest.mark.parametrize("seed", range(15))
def test_activation_energy_oracle(seed):
    l = gen_random_landscape(4 + seed % 5, 3, 0.05, seed=200 + seed)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a, b = (int(v) for v in rng.choice(l.n, size=2, replace=False))
        assert activation_energy(l, a, b) == pytest.approx(
            reference.activation_oracle(l, a, b), abs=1e-12)


def test_sublevel_connected_l6(L6):
    assert sublevel_connected(L6.l, 1, 2, barrier=5.0, avoid={0})
    assert sublevel_connected(L6.l, 3, 4, barrier=6.0, avoid={0, 1, 2})
    assert not sublevel_connected(L6.l, 0, 4, barrier=5.0)
    # avoided or too-high endpoints are never connected
    assert not sublevel_connected(L6.l, 0, 4, barrier=6.0, avoid={0})
    assert not sublevel_connected(L6.l, 3, 4, barrier=5.0)


@pytest.mark.parametrize("seed", range(12))
def test_sublevel_matches_path_enumeration(seed):
    l = gen_random_landscape(4 + seed % 5, 3, 0.05, seed=300 + seed)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        a, b = (int(v) for v in rng.choice(l.n, size=2, replace=False))
        barrier = float(rng.choice(l.energy)) + 0.01
        avoid = frozenset(int(v) for v in rng.choice(l.n, size=2)) - {a, b}
        expected = any(
            max(l.energy[s] for s in p) <= barrier and avoid.isdisjoint(p)
            for p in reference.self_avoiding_paths(l, a, b)
        ) and l.energy[a] <= barrier and l.energy[b] <= barrier
        assert sublevel_connected(l, a, b, barrier, avoid) == expected


def test_uphill_downhill_l6(L6):
    rec = uphill_downhill_path(L6.l, 3, 4)
    assert rec.states == (3, 4)
    assert rec.max_energy == 6.0 and rec.activation == 0.0
    # 1 -> 4 would have to descend to 2 before climbing; not unimodal
    assert uphill_downhill_path(L6.l, 1, 4, avoid={0}) is None


def test_uphill_downhill_l14x_gate_paths(L14X):
    l = L14X.l
    idx = l.index_of_label
    # the shared gate at label 5 reaches the three neighbouring valleys
    for target, blocked in ((6, (1, 2, 3, 4, 8, 9, 10, 12, 13, 14)),
                            (10, (1, 2, 3, 4, 6, 12, 13, 14)),
                            (14, (1, 2, 3, 4, 6, 8, 9, 10))):
        avoid = frozenset(idx(b) for b in blocked)
        rec = uphill_downhill_path(l, idx(5), idx(target), avoid)
        assert rec is not None
        energies = [l.energy[s] for s in rec.states]
        peak = energies.index(max(energies))
        assert all(x < y for x, y in zip(energies[:peak], energies[1:peak + 1]))
        assert all(x > y for x, y in zip(energies[peak:], energies[peak + 1:]))


@pytest.mark.parametrize("seed", range(10))
def test_uphill_downhill_matches_unimodal_oracle(seed):
    l = gen_random_landscape(5 + seed % 4, 3, 0.05, seed=400 + seed)
    cache = reference.PathCache(l)
    table = saddle_table(l)
    zs = dense(table)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        a, b = (int(v) for v in rng.choice(l.n, size=2, replace=False))
        drawn = frozenset(int(v) for v in rng.choice(l.n, size=2)) - {a, b}
        for avoid in (frozenset(), drawn):
            want = reference.unimodal_escape_oracle(l, cache, a, b, avoid)
            assert (uphill_downhill_path(l, a, b, avoid) is not None) == want
            rec = uphill_downhill_path(l, a, b, avoid, table)
            assert (rec is not None) == want
            if rec is None:
                continue
            p = rec.states
            assert (p[0], p[-1]) == (a, b) and avoid.isdisjoint(p[1:-1])
            assert all(v in l.neighbors[u] for u, v in zip(p, p[1:]))
            assert reference.path_max(l, p) == (rec.max_energy, zs[a, b])
            assert reference.path_climb(l, p) == pytest.approx(rec.activation, abs=1e-12)
