import heapq
import math

import numpy as np
import pytest

from metabasins import filtration, reference
from metabasins.filtration import local_minima, scoppola_filtration
from metabasins.landscape import Landscape, LandscapeError, gen_random_landscape


def test_local_minima_l6(L6):
    assert local_minima(L6.l) == {0, 2, 4}


def test_local_minima_l14(L14):
    labels = L14.l.labels
    assert {labels[s] for s in local_minima(L14.l)} == {2, 4, 6, 8, 10, 12, 14}


def test_l6_filtration(L6):
    assert L6.f.deletion_order == (2, 0, 4)
    assert L6.f.deletion_costs == (3.0, 8.0)
    assert L6.f.M(1) == {0, 2, 4}
    assert L6.f.M(2) == {0, 4}
    assert L6.f.M(3) == {4}
    assert L6.f.terminal == 4


def test_l14_reconstruction_deletion_order(L14):
    labels = L14.l.labels
    assert tuple(labels[s] for s in L14.f.deletion_order) == (8, 12, 6, 2, 10, 14, 4)


def test_l14x_same_deletion_order(L14X):
    labels = L14X.l.labels
    assert tuple(labels[s] for s in L14X.f.deletion_order) == (8, 12, 6, 2, 10, 14, 4)


def test_nesting_and_determinism(L6):
    f = L6.f
    for i in range(1, f.levels):
        assert f.M(i + 1) < f.M(i)
    again = scoppola_filtration(L6.l)
    assert again == f


def test_single_minimum():
    l = Landscape(np.array([0.0, 1.0, 2.0, 3.0]),
                  ((1,), (0, 2), (1, 3), (2,)))
    f = scoppola_filtration(l)
    assert f.levels == 1
    assert f.deletion_costs == ()
    assert f.deletion_order == (0,)


def test_disconnected_minima_raise():
    l = Landscape(np.array([0.0, 1.0, 0.5, 2.0]), ((1,), (0,), (3,), (2,)))
    with pytest.raises(LandscapeError, match="not connected"):
        scoppola_filtration(l)


def test_components_with_two_minima_each_raise():
    # every minimum has a survivor within its own component until one
    # minimum per component is left
    l = Landscape(np.array([0.0, 3.0, 1.0, 0.5, 4.0, 1.5]),
                  ((1,), (0, 2), (1,), (4,), (3, 5), (4,)))
    assert local_minima(l) == {0, 2, 3, 5}
    with pytest.raises(LandscapeError, match="landscape not connected"):
        scoppola_filtration(l)


@pytest.mark.parametrize("seed", range(15))
def test_deletion_minimizes_activation_oracle(seed):
    l = gen_random_landscape(5 + seed % 5, 3, 0.05, seed=600 + seed)
    f = scoppola_filtration(l)
    current = set(local_minima(l))
    for step, m in enumerate(f.deletion_order[:-1]):
        cost = min(reference.activation_oracle(l, m, n) for n in current if n != m)
        best = min(
            min(reference.activation_oracle(l, c, n) for n in current if n != c)
            for c in current
        )
        assert cost == pytest.approx(best, abs=1e-12)
        assert cost == pytest.approx(f.deletion_costs[step], abs=1e-12)
        current.remove(m)


def _climb_to(l, s, m):
    """Activation energy of one pair: Dijkstra stopped when m is popped."""
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == m:
            return d
        for u in l.neighbors[v]:
            nd = d + max(float(l.energy[u] - l.energy[v]), 0.0)
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    raise ValueError("states not connected")


def _filtration_by_definition(l):
    """The deletion loop read literally: every cost searched per pair and step."""
    current = set(local_minima(l))
    order, costs = [], []
    while len(current) > 1:
        cost, _, m = min((min(_climb_to(l, m, n) for n in current if n != m), -l.energy[m], m)
                         for m in current)
        current.remove(m)
        order.append(m)
        costs.append(cost)
    order.append(current.pop())
    return tuple(order), tuple(costs)


def test_matrix_filtration_matches_pairwise_definition():
    for seed in range(40):
        l = gen_random_landscape(10 + seed % 25, 4, 0.05, seed=9000 + seed)
        f = scoppola_filtration(l)
        assert (f.deletion_order, f.deletion_costs) == _filtration_by_definition(l), seed


def test_cost_tie_deletes_higher_minimum():
    # minima 0 (E 0), 2 (E 1) and 4 (E 2); 2 and 4 both escape with a climb of 2
    l = Landscape(np.array([0.0, 3.0, 1.0, 4.0, 2.0]),
                  ((1,), (0, 2), (1, 3), (2, 4), (3,)))
    f = scoppola_filtration(l)
    assert f.deletion_order == (4, 2, 0)
    assert f.deletion_costs == (2.0, 2.0)
    assert (f.deletion_order, f.deletion_costs) == _filtration_by_definition(l)


def test_one_climb_search_per_minimum(monkeypatch):
    # k searches, one per minimum towards every other minimum; then, after
    # each deletion, one per survivor whose nearest survivor was deleted,
    # towards the survivors other than itself
    l = gen_random_landscape(40, 4, 0.05, seed=5)
    searches = []
    real = filtration.climb

    def recording(neighbors, energy, start, targets):
        found = real(neighbors, energy, start, targets)
        searches.append((start, frozenset(targets), found[1]))
        return found

    monkeypatch.setattr(filtration, "climb", recording)
    f = scoppola_filtration(l)
    alive = set(local_minima(l))
    nearest = {}
    expected = sorted(alive)
    reruns = 0
    for m in (None, *f.deletion_order[:-1]):
        if m is not None:
            alive.remove(m)
            del nearest[m]
            expected = sorted(r for r in alive if nearest[r] == m)
            reruns += len(expected)
        batch, searches = searches[:len(expected)], searches[len(expected):]
        assert sorted((s, t) for s, t, _ in batch) == [(r, frozenset(alive - {r})) for r in expected]
        nearest.update((s, found) for s, _, found in batch)
    assert searches == []
    assert reruns > 0
