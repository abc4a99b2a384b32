import dataclasses
import hashlib
import math

import numpy as np
import pytest
from conftest import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from metabasins import aggregation, reference, saddles
from metabasins.aggregation import (
    MetastateSpace,
    StoppingTimes,
    ExponentMatrix,
    asymptotic_jump_chain,
    escape_exponents,
    exact_jump_distribution,
    exact_valley_transition,
    find_metabasins,
    metastate_space,
    project_trajectory,
    reciprocating_order_test,
    semi_markov_kernel,
    transition_exponents,
    valley_transition_limits,
)
from metabasins.chain import build_metropolis, expected_hitting_time
from metabasins.filtration import local_minima, scoppola_filtration
from metabasins.landscape import Landscape, gen_random_landscape, reachable
from metabasins.valleys import ValleyDecomposition, decompose_all
from metabasins import simulate


def ms_at(fx, level):
    return metastate_space(fx.decomps[level - 1], fx.f)


def stages(l):
    """Filtration, saddle table and decompositions of l, as the commands build them."""
    f = scoppola_filtration(l)
    table = saddles.saddle_table(l)
    return f, table, decompose_all(l, f, table)


def at(exps, m, mp):
    """Array position of the ordered valley pair (m, mp) in ``exps``."""
    return exps.metastables.index(m), exps.metastables.index(mp)


def test_metastate_space_l6(L6):
    assert ms_at(L6, 2).metastates == (0, 3, 4)
    assert ms_at(L6, 1).metastates == (0, 1, 2, 3, 4)
    assert ms_at(L6, 3).metastates == (4,)
    ms = ms_at(L6, 2)
    assert ms.valley_of[3] == {3}
    assert list(ms.rep_of) == [0, 0, 0, 3, 4, 4]


def test_metastate_space_resolves_pending_valleys(L14X):
    ms = ms_at(L14X, 5)
    lab = L14X.l.labels
    assert {lab[m] for m in ms.metastates} == {4, 5, 6, 7, 10, 11, 14}
    assert {lab[s] for s in ms.valley_of[L14X.l.index_of_label(6)]} == {6}
    assert ms.valley_level[L14X.l.index_of_label(6)] == 3


def test_project_trajectory_by_hand(L6):
    ms = ms_at(L6, 2)
    ybar, stop, y = project_trajectory([4, 4, 5, 4, 3, 2, 0], ms)
    assert list(ybar) == [4, 4, 4, 4, 3, 0, 0]
    assert y == (4, 3, 0)
    assert stop.sigma == (0, 4, 5)
    assert stop.xi == (1,) or stop.xi[0] == 1
    assert stop.zeta[0] == 4


def test_project_constant_trajectory(L6):
    ms = ms_at(L6, 2)
    _, stop, y = project_trajectory([2] * 10, ms)
    assert y == (0,)
    assert stop.sigma == (0,)


def project_trajectory_oracle(states, ms):
    """The definitions read literally: a loop over the walk, a set test per
    state and an entry/exit state machine started as if X_0 were outside."""
    ybar = [int(ms.rep_of[s]) for s in states]
    sigma = [0] + [k for k in range(1, len(states)) if ybar[k] != ybar[k - 1]]
    xi, zeta = [], []
    looking_for_entry = True
    for k in range(1, len(states)):
        if looking_for_entry and states[k] not in ms.nonassigned:
            xi.append(k)
            looking_for_entry = False
        elif not looking_for_entry and states[k] in ms.nonassigned:
            zeta.append(k)
            looking_for_entry = True
    return ybar, StoppingTimes(tuple(xi), tuple(zeta), tuple(sigma)), tuple(ybar[k] for k in sigma)


def assert_projection_matches_oracle(states, ms):
    ybar, stop, y = project_trajectory(states, ms)
    want_ybar, want_stop, want_y = project_trajectory_oracle(states, ms)
    assert ybar.tolist() == want_ybar
    assert stop == want_stop
    assert y == want_y
    assert all(type(v) is int for v in y + stop.xi + stop.zeta + stop.sigma)


@pytest.mark.parametrize("states", [
    [0], [3], [3, 3, 3],             # length 1 and constant, valley and non-assigned
    [0, 1, 0, 1, 2], [4, 5, 4],      # inside one valley throughout
    [0, 1, 2, 3, 4, 5, 4, 3, 2],     # starts in a valley, crosses twice
    [3, 4, 3, 2, 3, 3, 4],           # starts on the non-assigned state
])
def test_project_trajectory_edge_cases(L6, states):
    ms = ms_at(L6, 2)
    assert ms.nonassigned == {3}
    assert_projection_matches_oracle(states, ms)


@pytest.mark.parametrize("name,level", [("L6", 1), ("L6", 2), ("L14X", 1), ("L14X", 5)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_project_trajectory_matches_loop_oracle(L6, L14X, name, level, data):
    fx = {"L6": L6, "L14X": L14X}[name]
    states = data.draw(st.lists(st.integers(0, fx.l.n - 1), min_size=1, max_size=60))
    assert_projection_matches_oracle(states, ms_at(fx, level))


def test_stopping_time_sanity_random(L6):
    # every valley exit passes through a non-assigned state, and entrances
    # strictly follow exits, over a thousand random trajectories
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, beta=1.0)
    n_ok = 0
    for seed in range(1000):
        traj = simulate.run_metropolis(model, start=seed % 6, steps=60, seed=seed)
        _, stop, _ = project_trajectory(traj.states, ms)
        for z in stop.zeta:
            assert traj.states[z] in ms.nonassigned
        for z, x1 in zip(stop.zeta, stop.xi[1:]):
            assert z < x1
        for x1, z in zip(stop.xi, stop.zeta):
            assert x1 <= z
        n_ok += 1
    assert n_ok == 1000


def test_asymptotic_jump_chain_l6(L6):
    ms = ms_at(L6, 2)
    jc = asymptotic_jump_chain(L6.l, ms)
    assert jc.phat[jc.index(0), jc.index(3)] == 1.0
    assert jc.phat[jc.index(4), jc.index(3)] == 1.0
    assert jc.phat[jc.index(3), jc.index(0)] == 0.5
    assert jc.phat[jc.index(3), jc.index(4)] == 0.5
    assert np.allclose(jc.phat.sum(axis=1), 1.0)


def test_jump_chain_rejects_top_level(L6):
    with pytest.raises(ValueError):
        asymptotic_jump_chain(L6.l, ms_at(L6, 3))


def test_nonassigned_rows_never_climb(L14X):
    ms = ms_at(L14X, 5)
    jc = asymptotic_jump_chain(L14X.l, ms)
    l = L14X.l
    for r in ms.nonassigned:
        for s in ms.nonassigned:
            if l.energy[s] > l.energy[r]:
                assert jc.phat[jc.index(r), jc.index(s)] == 0.0


def test_valley_transition_limits_l6(L6):
    ms = ms_at(L6, 2)
    jc = asymptotic_jump_chain(L6.l, ms)
    mlist, limits = valley_transition_limits(ms, jc)
    assert mlist == (0, 4)
    assert np.allclose(limits, 0.5)
    assert np.allclose(limits.sum(axis=1), 1.0)


def test_valley_transition_limit_vs_finite_beta(L6):
    # the exact finite-beta law approaches the limiting matrix
    ms = ms_at(L6, 2)
    jc = asymptotic_jump_chain(L6.l, ms)
    mlist, limits = valley_transition_limits(ms, jc)
    model = build_metropolis(L6.l, beta=6.0)
    got = exact_valley_transition(model, ms, 0)
    assert got[0] == pytest.approx(0.5, abs=1e-6)
    assert got[4] == pytest.approx(0.5, abs=1e-6)


def test_valley_transition_monte_carlo_beta10(L6):
    # replica frequencies at beta = 10 agree with the solver within 3 sigma
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, beta=10.0)
    reps = 200
    walker = simulate.JumpWalker(model)
    counts = {0: 0, 4: 0}
    for k in range(reps):
        states = simulate.run_until_sigma(walker.stream(simulate.replica_rng(777, k)), ms, 0, 2)
        _, _, y = project_trajectory(states, ms)
        first_valley = next(m for m in y[1:] if m not in ms.nonassigned)
        counts[first_valley] += 1
    exact = exact_valley_transition(model, ms, 0)
    for m, c in counts.items():
        p = exact[m]
        assert abs(c / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps) + 1e-9


def test_first_entry_law_matches_lazy_simulation(triangle6):
    # literal lazy trajectories versus the two-stage absorption solver
    f, _, decomps = stages(triangle6)
    ms = metastate_space(decomps[0], f)
    model = build_metropolis(triangle6, beta=1.0)
    exact = exact_valley_transition(model, ms, 0)
    reps = 400
    counts = {m: 0 for m in exact}
    done = 0
    for k in range(reps):
        traj = simulate.run_metropolis(model, 0, 4000, seed=10_000 + k)
        _, stop, y = project_trajectory(traj.states, ms)
        first_valley = next((m for m in y[1:] if m not in ms.nonassigned), None)
        if first_valley is None:
            continue
        counts[first_valley] += 1
        done += 1
    assert done >= reps * 0.95
    for m, c in counts.items():
        p = exact[m]
        assert abs(c / done - p) <= 3 * math.sqrt(p * (1 - p) / done) + 2 / done


def test_exponent_matrix_l6(L6):
    ms2 = ms_at(L6, 2)
    exps2 = transition_exponents(L6.l, ms2, L6.table)
    assert exps2.D[at(exps2, 0, 4)] == 0.0 and exps2.D[at(exps2, 4, 0)] == 0.0
    assert exps2.metastables == (0, 4) and np.allclose(exps2.limits, 0.5)
    ms1 = ms_at(L6, 1)
    exps1 = transition_exponents(L6.l, ms1, L6.table)
    assert exps1.D[at(exps1, 0, 4)] == 1.0
    assert exps1.D[at(exps1, 0, 2)] == 0.0
    assert exps1.boundary_exp[(2, 3)] == 1.0
    assert exps1.boundary_exp[(2, 1)] == 0.0
    # gates: level-1 boundary of valley 2 is {1, 3} with gate 1
    assert ms1.gate_of[2] == 1


def test_reciprocating_witness_l6(L6):
    exps1 = transition_exponents(L6.l, ms_at(L6, 1), L6.table)
    w = reciprocating_order_test(exps1, eps=1.0)
    assert w is not None and w.states == {0, 2} and not w.flagged
    exps2 = transition_exponents(L6.l, ms_at(L6, 2), L6.table)
    assert reciprocating_order_test(exps2, eps=0.5) is None


def test_reciprocating_single_metastable():
    lonely = ExponentMatrix(level=1, metastables=(0,), D=np.full((1, 1), -np.inf),
                            udh=np.zeros((1, 1), dtype=bool), boundary_exp={},
                            limits=np.ones((1, 1)), reachable=np.ones((1, 1), dtype=bool))
    # no proper nonempty subset exists, so no witness can exist
    assert reciprocating_order_test(lonely, eps=0.1) is None


def test_reciprocating_large_order_never_witnessed(triangle6):
    f, table, decomps = stages(triangle6)
    ms1 = metastate_space(decomps[0], f)
    exps1 = transition_exponents(triangle6, ms1, table)
    assert reciprocating_order_test(exps1, eps=50.0) is None


def test_reciprocating_enumeration_cap(L6):
    exps = transition_exponents(L6.l, ms_at(L6, 1), L6.table)
    big = exps.__class__(
        level=1,
        metastables=tuple(range(21)),
        D=np.zeros((21, 21)), udh=np.zeros((21, 21), dtype=bool), boundary_exp={},
        limits=np.zeros((21, 21)), reachable=np.zeros((21, 21), dtype=bool),
    )
    with pytest.raises(ValueError):
        reciprocating_order_test(big, 1.0)


def test_find_metabasins_l6_none(L6):
    report = find_metabasins(L6.l, 0.5, L6.f, L6.decomps, L6.table)
    assert report.level is None
    report = find_metabasins(L6.l, 100.0, L6.f, L6.decomps, L6.table)
    assert report.level is None  # MB2 needs two targets


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_eps_must_be_positive(L6, eps):
    exps = transition_exponents(L6.l, ms_at(L6, 1), L6.table)
    with pytest.raises(ValueError, match="eps must be positive"):
        find_metabasins(L6.l, eps, L6.f, L6.decomps, L6.table)
    with pytest.raises(ValueError, match="eps must be positive"):
        reciprocating_order_test(exps, eps)


def test_find_metabasins_l14x(L14X):
    report = find_metabasins(L14X.l, 2.5, L14X.f, L14X.decomps, L14X.table)
    lab = L14X.l.labels
    assert report.level == 5
    assert {lab[m] for m in report.partition} == {4, 5, 6, 7, 10, 11, 14}
    assert all(len(w) >= 2 for w in report.mb2_witnesses.values())
    assert max(report.mb1_margin.values()) == pytest.approx(2.1, abs=1e-12)
    # below the margin no level qualifies
    assert find_metabasins(L14X.l, 2.0, L14X.f, L14X.decomps, L14X.table).level is None


def test_find_metabasins_l14x_matches_literal_definition(L14X):
    # recompute MB1/MB2 at every scanned level from enumerated paths only
    l = L14X.l
    cache = reference.PathCache(l)
    eps = 2.5
    for level in range(1, L14X.f.levels - 1):
        ms = ms_at(L14X, level)
        mlist = ms.valley_metastates
        ok = True
        for m in mlist:
            gate = ms.gate_of[m]
            others = [mp for mp in mlist if mp != m]
            mb1 = max(cache.zstar_energy(m, mp) for mp in others) - l.energy[gate] <= eps
            avoid_all = {mp: frozenset().union(
                *(ms.valley_of[t] for t in mlist if t != mp)) for mp in others}
            witnesses = [mp for mp in others
                         if reference.unimodal_escape_oracle(l, cache, gate, mp, avoid_all[mp])]
            ok = ok and mb1 and len(witnesses) >= 2
        expected_here = find_metabasins(L14X.l, eps, L14X.f, L14X.decomps, L14X.table).level
        if ok:
            assert expected_here == level
            break
        assert expected_here is None or expected_here > level


def test_find_metabasins_triangle_unbounded_order(triangle6):
    f, table, decomps = stages(triangle6)
    report = find_metabasins(triangle6, 1e9, f, decomps, table)
    assert report.level == 1
    assert all(len(w) >= 2 for w in report.mb2_witnesses.values())


def test_semi_markov_geometric_case(L6):
    ms = ms_at(L6, 2)
    for beta in (1.0, 4.0, 9.0):
        model = build_metropolis(L6.l, beta)
        law = semi_markov_kernel(model, ms, 0, 3, 4)
        assert law.kind == "geometric"
        assert law.success == pytest.approx(2 / 3, abs=1e-14)
        assert law.pmf(1) == pytest.approx(2 / 3, abs=1e-14)
        assert law.pmf(3) == pytest.approx((1 / 3) ** 2 * (2 / 3), abs=1e-14)


def test_semi_markov_valley_mean_matches_solver(L6):
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, beta=8.0)
    law = semi_markov_kernel(model, ms, 3, 4, 3)
    exact = expected_hitting_time(model, 4, {3})
    assert law.kind == "mixture"
    assert abs(law.mean - exact) <= 1e-8 * max(1.0, exact)


def test_semi_markov_pmf_normalizes(L6):
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, beta=0.2)   # short sojourns, summable tail
    law = semi_markov_kernel(model, ms, 3, 4, 3)
    total = sum(law.pmf(t) for t in range(1, 600))
    assert total == pytest.approx(1.0, abs=1e-9)
    mean = sum(t * law.pmf(t) for t in range(1, 600))
    assert mean == pytest.approx(law.mean, rel=1e-9)


def test_semi_markov_mixture_with_two_entry_states():
    # chord (3,5) lets the crest enter the deep valley at either member, so the
    # law is a genuine posterior-weighted mixture of conditioned exit times
    import numpy as np
    from metabasins.landscape import Landscape

    adj = ((1,), (0, 2), (1, 3), (2, 4, 5), (3, 5), (3, 4))
    l = Landscape(np.array([1.0, 5.0, 2.0, 6.0, 0.0, 4.0]), adj)
    f, _, decomps = stages(l)
    ms = metastate_space(decomps[1], f)
    assert ms.valley_of[4] == {4, 5}
    model = build_metropolis(l, beta=2.0)
    law = semi_markov_kernel(model, ms, 3, 4, 3)
    # the single exit state makes the conditioning trivial: the mean is the
    # entry-weighted average of plain exit times
    w4 = model.P[3, 4]
    w5 = model.P[3, 5]
    expect = (w4 * expected_hitting_time(model, 4, {3})
              + w5 * expected_hitting_time(model, 5, {3})) / (w4 + w5)
    assert law.mean == pytest.approx(expect, rel=1e-10)


def test_tree_parent_of_pending_minimum(L14X):
    from metabasins.valleys import build_tree

    tree = build_tree(L14X.l, L14X.f, L14X.decomps, L14X.table)
    lab = L14X.l.labels
    for (level, _), parent in zip(tree.generations, tree.parent):
        if level == 3:
            links = {lab[s]: (None if p is None else lab[p])
                     for s, p in parent.items()}
            # the pending minimum 6 skips levels 4 and 5; it hangs off the
            # coarse node with the smallest pair saddle
            assert links[6] == 4
            assert links[2] == 2  # still present above, self link


def test_semi_markov_infeasible_triples(L6, L14X):
    model = build_metropolis(L6.l, beta=1.0)
    ms = ms_at(L6, 2)
    with pytest.raises(ValueError):
        semi_markov_kernel(model, ms, 0, 3, 3)      # z not reachable from y
    with pytest.raises(ValueError):
        semi_markov_kernel(model, ms, 3, 4, 0)      # valley exit must be non-assigned
    mx = build_metropolis(L14X.l, beta=1.0)
    msx = ms_at(L14X, 5)
    lab = L14X.l.index_of_label
    with pytest.raises(ValueError):
        semi_markov_kernel(mx, msx, lab(4), lab(5), lab(11))


def test_semi_markov_law_invariant_along_run(shallow6):
    # sojourn laws conditioned on the neighbor pair do not drift with time:
    # two-sample KS between early and late windows stays below the 1% critical
    # value
    f, _, decomps = stages(shallow6)
    ms = metastate_space(decomps[1], f)
    model = build_metropolis(shallow6, beta=8.0)
    walker = simulate.JumpWalker(model).stream(np.random.default_rng(2024))
    rep = ms.rep_of.tolist()
    # walk the jump chain with holding times; record AC sojourns and triples
    cur = 0
    cur_m = rep[0]
    segments = []   # (triple, sojourn)
    hold = walker.holding(cur)
    path_m = [cur_m]
    sojourns = [hold]
    while len(segments) < 10_000:
        cur = walker.step(cur)
        m = rep[cur]
        if m == cur_m:
            sojourns[-1] += walker.holding(cur)
            continue
        cur_m = m
        path_m.append(m)
        sojourns.append(walker.holding(cur))
        if len(path_m) >= 3:
            segments.append(((path_m[-3], path_m[-2], path_m[-1]), sojourns[-2]))
    by_triple = {}
    for k, (triple, s) in enumerate(segments):
        by_triple.setdefault(triple, []).append((k, s))
    checked = 0
    for triple, vals in by_triple.items():
        if len(vals) < 2000:
            continue
        half = len(vals) // 2
        early = np.array([s for _, s in vals[:half]])
        late = np.array([s for _, s in vals[half:]])
        d = _ks_statistic(early, late)
        crit = 1.628 * math.sqrt((len(early) + len(late)) / (len(early) * len(late)))
        assert d <= crit, (triple, d, crit)
        checked += 1
    assert checked >= 2


def _ks_statistic(a, b):
    data = np.concatenate([a, b])
    grid = np.unique(data)
    ca = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def test_metastate_space_rejects_uncovered_state(L6):
    d = dataclasses.replace(L6.decomps[0], nonassigned=frozenset({1}))
    with pytest.raises(ValueError, match="partition"):
        metastate_space(d, L6.f)


def test_jump_chain_rejects_nonassigned_minimum(L6):
    ms = ms_at(L6, 1)
    ms = dataclasses.replace(ms, nonassigned=ms.nonassigned | {2})
    with pytest.raises(ValueError, match="no downhill move"):
        asymptotic_jump_chain(L6.l, ms)


def test_valley_transition_rejects_adjacent_valleys(L6):
    # V(0) = {0, 1} touches V(2) directly
    valleys = {0: {0, 1}, 2: {2}, 3: {3}, 4: {4, 5}}
    ms = MetastateSpace(1, (0, 2, 3, 4), frozenset({3}),
                        {m: frozenset(v) for m, v in valleys.items()},
                        {0: 2, 2: 3, 4: 3}, {m: 1 for m in valleys},
                        np.array([0, 0, 2, 3, 4, 4]))
    with pytest.raises(ValueError, match="borders another valley"):
        exact_valley_transition(build_metropolis(L6.l, 1.0), ms, 0)


def _per_pair_exponents(l, ms, table, zs):
    """D, udh and reachable of ``transition_exponents``, one ordered pair at a
    time: D from ``zs``, the table's dense copy, and the udh flag from
    ``uphill_downhill_path`` avoiding every other valley."""
    mlist = ms.valley_metastates
    avoid = {mp: frozenset().union(*(ms.valley_of[t] for t in mlist if t != mp))
             for mp in mlist}
    D, udh, touches = {}, {}, {}
    for m in mlist:
        gate = ms.gate_of[m]
        touched = {int(ms.rep_of[u]) for v in reachable(l, gate, ms.nonassigned)
                   for u in l.neighbors[v] if u not in ms.nonassigned}
        for mp in mlist:
            touches[(m, mp)] = mp in touched
            if mp != m:
                D[(m, mp)] = float(l.energy[zs[m, mp]] - l.energy[gate])
                path = saddles.uphill_downhill_path(l, gate, mp, avoid[mp], table)
                udh[(m, mp)] = path is not None
    return D, udh, touches


def _pairs(mlist, array, diagonal=False):
    """A k x k exponent array as a dict over ordered valley pairs, as above."""
    return {(m, mp): array[a, b].item() for a, m in enumerate(mlist)
            for b, mp in enumerate(mlist) if diagonal or a != b}


@pytest.fixture(scope="module")
def random_scan_inputs():
    """(landscape, filtration, table, decompositions, level step) for random
    inputs; up to n=150 also with the energies rounded to integers (ties)."""
    out = []
    for n, s, step in ((60, 1, 1), (60, 2, 1), (60, 3, 1), (150, 1, 1), (300, 1, 20)):
        l = gen_random_landscape(n, 4, 0.05, s)
        tied = Landscape(np.round(l.energy, 0), l.neighbors)
        for land in (l, tied) if n <= 150 else (l,):
            f = scoppola_filtration(land)
            table = saddles.saddle_table(land)
            out.append((land, f, table, decompose_all(land, f, table), step))
    return out


def test_exponents_match_the_per_pair_search(L6, L14, L14X, random_scan_inputs):
    inputs = [(fx.l, fx.f, fx.table, fx.decomps, 1) for fx in (L6, L14, L14X)]
    compared = tied = found = no_limit = 0
    for l, f, table, decomps, step in inputs + random_scan_inputs:
        zs = dense(table)
        for i in range(1, f.levels - 1, step):
            ms = metastate_space(decomps[i - 1], f)
            D, udh, touches = _per_pair_exponents(l, ms, table, zs)
            mlist, escape_D, escape_udh = escape_exponents(l, ms, table)
            assert mlist == ms.valley_metastates
            assert (_pairs(mlist, escape_D), _pairs(mlist, escape_udh)) == (D, udh)
            assert (np.diag(escape_D) == -np.inf).all() and not np.diag(escape_udh).any()
            try:
                exps = transition_exponents(l, ms, table)
            except ValueError as err:
                assert "equal energy" in str(err)
                no_limit += 1
                continue   # no jump-chain limit at this level (ties only)
            assert (_pairs(mlist, exps.D), _pairs(mlist, exps.udh),
                    _pairs(mlist, exps.reachable, diagonal=True)) == (D, udh, touches)
            compared += 1
            tied += len(set(l.energy.tolist())) < l.n
            found += int(exps.udh.sum())
    assert compared > 150 and tied > 50 and found > 5000 and no_limit > 0


def _oracle_levels(l, f, decomps, table):
    """Per scan level: valley partition, D and udh pair dicts from the full
    ``transition_exponents``, or from the per-pair search at a level where the
    jump-chain limit does not exist (ties only)."""
    levels, zs = [], dense(table)
    for i in range(1, f.levels - 1):
        ms = metastate_space(decomps[i - 1], f)
        try:
            exps = transition_exponents(l, ms, table)
            D, udh = _pairs(exps.metastables, exps.D), _pairs(exps.metastables, exps.udh)
        except ValueError as err:
            assert "equal energy" in str(err)
            D, udh, _ = _per_pair_exponents(l, ms, table, zs)
        levels.append((i, ms.valley_metastates, dict(ms.valley_of), D, udh))
    return levels


def _oracle_report(levels, eps):
    """(level, partition, mb1_margin, mb2_witnesses, scan) of the per-pair scan."""
    scan = []
    for i, mlist, partition, D, udh in levels:
        margins, witnesses = {}, {}
        for m in mlist:
            others = [mp for mp in mlist if mp != m]
            margins[m] = max((D[(m, mp)] for mp in others), default=-math.inf)
            witnesses[m] = tuple(mp for mp in others if udh[(m, mp)])
        mb1 = all(v <= eps for v in margins.values())
        mb2 = all(len(w) >= 2 for w in witnesses.values())
        scan.append((i, mb1, mb2))
        if mb1 and mb2:
            return i, partition, margins, witnesses, tuple(scan)
    return None, None, {}, {}, tuple(scan)


def test_find_metabasins_matches_the_full_exponent_scan(L6, L14, L14X, random_scan_inputs):
    inputs = [(fx.l, fx.f, fx.table, fx.decomps) for fx in (L6, L14, L14X)]
    inputs += [(l, f, table, decomps) for l, f, table, decomps, _ in random_scan_inputs]
    scanned = qualified = 0
    for l, f, table, decomps in inputs:
        levels = _oracle_levels(l, f, decomps, table)
        for eps in (0.5, 1.0, 2.5, 5.0, 1e9):
            report = find_metabasins(l, eps, f, decomps, table)
            got = (report.level, report.partition, report.mb1_margin,
                   report.mb2_witnesses, report.scan)
            assert got == _oracle_report(levels, eps)
            assert report.order == eps
            scanned += len(report.scan)
            qualified += report.level is not None
    assert scanned > 1300 and qualified >= 5


def test_mb_scan_builds_no_jump_chain(L14X, random_scan_inputs, monkeypatch):
    calls = []
    for name in ("asymptotic_jump_chain", "valley_transition_limits"):
        real = getattr(aggregation, name)
        monkeypatch.setattr(aggregation, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert find_metabasins(L14X.l, 2.5, L14X.f, L14X.decomps, L14X.table).level == 5
    for l, f, table, decomps, _ in random_scan_inputs[:2]:
        assert find_metabasins(l, 0.5, f, decomps, table).level is None
    assert calls == []
    # the guard sees the calls of the full exponents
    transition_exponents(L14X.l, ms_at(L14X, 5), L14X.table)
    assert calls == ["asymptotic_jump_chain", "valley_transition_limits"]


def test_tied_energies_scan_without_a_jump_chain_limit():
    # flat non-assigned neighbours hand over to each other in the limit chain,
    # so the jump-chain limit does not exist; the metabasin scan never needs it
    l = gen_random_landscape(60, 4, 0.05, 1)
    tied = Landscape(np.round(l.energy, 0), l.neighbors)
    f, table, decomps = stages(tied)
    report = find_metabasins(tied, 0.5, f, decomps, table)
    assert len(report.scan) == f.levels - 2 and report.level is None
    assert all(mb1 for _, mb1, _ in find_metabasins(tied, 1e9, f, decomps, table).scan)
    ms = metastate_space(decomps[0], f)
    assert tied.energy[1] == tied.energy[20] and 20 in tied.neighbors[1]
    with pytest.raises(ValueError, match=r"equal energy: \[\(1, 20\), "):
        valley_transition_limits(ms, asymptotic_jump_chain(tied, ms))
    with pytest.raises(ValueError, match="equal energy"):
        transition_exponents(tied, ms, table)


def test_nonassigned_states_lie_above_their_valley_neighbours(L6, L14, L14X,
                                                             random_scan_inputs):
    # the lemma behind ``transition_exponents``' per-gate search: a strictly
    # rising move from a non-assigned state never enters a valley
    inputs = [(fx.l, fx.f, fx.decomps) for fx in (L6, L14, L14X)]
    inputs += [(l, f, decomps) for l, f, _, decomps, _ in random_scan_inputs]
    for l, f, decomps in inputs:
        for d in decomps:
            ms = metastate_space(d, f)
            for v in ms.nonassigned:
                assert all(l.energy[u] < l.energy[v] for u in l.neighbors[v]
                           if u not in ms.nonassigned)


def test_exponents_refuse_a_gate_that_rises_into_a_valley():
    # hand-built: state 2 sits in V(4) above the non-assigned gate 1 of V(0),
    # which no valley decomposition allows; the leg 1 -> 2 -> 3 -> 4 through
    # V(4) would escape the per-gate search
    l = Landscape(np.array([0.0, 2.0, 3.0, 5.0, 1.0]),
                  ((1,), (0, 2), (1, 3), (2, 4), (3,)))
    valleys = {0: {0}, 1: {1}, 3: {3}, 4: {2, 4}}
    ms = MetastateSpace(1, (0, 1, 3, 4), frozenset({1, 3}),
                        {m: frozenset(v) for m, v in valleys.items()},
                        {0: 1, 4: 1}, {m: 1 for m in valleys}, np.array([0, 1, 4, 3, 4]))
    assert saddles.uphill_downhill_path(l, 1, 4, frozenset({0})) is not None
    table = saddles.saddle_table(l)
    with pytest.raises(ValueError, match="not a valley decomposition"):
        transition_exponents(l, ms, table)
    with pytest.raises(ValueError, match="not a valley decomposition"):
        escape_exponents(l, ms, table)


def test_escape_exponents_need_non_assigned_gates(L6):
    with pytest.raises(ValueError, match=r"valley 4 has no non-assigned exit gate \(gate None\)"):
        escape_exponents(L6.l, ms_at(L6, 3), L6.table)
    ms = ms_at(L6, 1)
    inside = dataclasses.replace(ms, gate_of={**ms.gate_of, 0: 0})
    with pytest.raises(ValueError, match=r"valley 0 has no non-assigned exit gate \(gate 0\)"):
        escape_exponents(L6.l, inside, L6.table)


def test_mb_scan_runs_one_rising_search_per_start_state(monkeypatch):
    pair_calls, starts = [], []
    real_search = aggregation.rising_reach

    def counting_search(neighbors, energy, start):
        starts.append(start)
        return real_search(neighbors, energy, start)

    for module, name in ((saddles, "uphill_downhill_path"), (saddles, "_monotone_leg"),
                         (aggregation, "uphill_downhill_path")):
        monkeypatch.setattr(module, name, lambda *a, **k: pair_calls.append(a),
                            raising=False)
    monkeypatch.setattr(aggregation, "rising_reach", counting_search)
    seeds = [s for s in range(60) if len(local_minima(gen_random_landscape(48, 4, 0.05, s))) == 16]
    levels = 0
    for s in seeds[:4]:
        l = gen_random_landscape(48, 4, 0.05, s)
        f, table, decomps = stages(l)
        starts.clear()
        report = find_metabasins(l, 0.5, f, decomps, table)
        scanned = [decomps[i - 1] for i, _, _ in report.scan]
        gates = {g for d in scanned
                 for g in [*d.exit_gate.values(), *(p[2] for p in d.pending.values())]}
        # each local minimum (its Down set) and each distinct gate (its Up set) once
        assert len(starts) == len(set(starts))
        assert local_minima(l) <= set(starts) <= local_minima(l) | gates
        levels += len(scanned)
    assert pair_calls == []
    assert levels > 20


def _scan_inputs(L14X):
    """L14X and random inputs of the decomposition tests' sizes, each with its
    np.round(energy, 1) and np.round(energy, 0) twins (ties)."""
    base = [L14X.l] + [gen_random_landscape(n, 4, 0.05, 1) for n in (60, 150, 300)]
    return base + [Landscape(np.round(l.energy, d), l.neighbors)
                   for l in base for d in (1, 0)]


def test_scan_matches_escape_exponents_at_every_level(L14X):
    # the scan keeps each row across levels; escape_exponents builds it afresh
    rows = tied = 0
    for l in _scan_inputs(L14X):
        f, table, decomps = stages(l)
        levels = list(aggregation._scan(l, f, decomps, table))
        assert [i for i, _, _ in levels] == list(range(1, f.levels - 1))
        for i, margins, witnesses in levels:
            mlist, D, udh = escape_exponents(l, metastate_space(decomps[i - 1], f), table)
            targets = np.array(mlist)
            assert list(margins) == list(witnesses) == list(mlist)
            assert [v.hex() for v in margins.values()] == [v.hex() for v in D.max(axis=1).tolist()]
            assert list(witnesses.values()) == [tuple(targets[row].tolist()) for row in udh]
            rows += len(mlist)
            tied += len(np.unique(l.energy)) < l.n
    assert rows > 20000 and tied > 200


def test_scan_and_exponents_refuse_a_reach_outside_its_level():
    # hand-built levels that no valley decomposition gives; the last level of
    # each case is refused, at level 2 only through the state it takes from
    # the non-assigned set. On the first landscape state 2 falls to 0, and
    # V(4) takes it; on the second the gate 3 of V(0) rises to 4, and V(6)
    # takes it, while Down(0) = {0, 1} stays in V(0).
    falls = Landscape(np.array([0.0, 1.2, 1.5, 4.0, 1.0, 0.5, 0.7]),
                      ((1, 2), (0, 3), (0, 4), (1, 4, 5, 6), (2, 3), (3,), (3,)))
    rises = Landscape(np.array([0.0, 3.0, 1.0, 2.0, 2.5, 4.0, 0.5, 0.7]),
                      ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6, 7), (5,), (5,)))
    fell = ({0: {0}, 4: {2, 4}, 5: {5}, 6: {6}}, {0: 1, 4: 3, 5: 3, 6: 3})
    rose = ({0: {0, 1, 2}, 6: {4, 6}, 7: {7}}, {0: 3, 6: 5, 7: 5})
    met = r"the falling set of 0 meets the valleys of \[4\]; the metastate space is not"
    entered = r"the gate of 0 rises into the valleys of \[6\]; the metastate space is not"
    cases = [(falls, [fell], met),
             (falls, [({0: {0}, 4: {4}, 5: {5}, 6: {6}}, {0: 1, 4: 2, 5: 3, 6: 3}), fell], met),
             (rises, [rose], entered),
             (rises, [({0: {0, 1, 2}, 6: {6}, 7: {7}}, {0: 3, 6: 5, 7: 5}), rose], entered)]
    for l, levels, error in cases:
        f, table = scoppola_filtration(l), saddles.saddle_table(l)
        assert f.levels == 4    # the scan reads levels 1 and 2
        decomps = []
        for i, (valleys, gates) in enumerate(levels, start=1):
            valley = {m: frozenset(v) for m, v in valleys.items()}
            decomps.append(ValleyDecomposition(
                i, {}, valley, frozenset(range(l.n)).difference(*valley.values()),
                {}, {}, gates, {}))
        for d in decomps[:-1]:
            escape_exponents(l, metastate_space(d, f), table)
        with pytest.raises(ValueError, match=error):
            escape_exponents(l, metastate_space(decomps[-1], f), table)
        with pytest.raises(ValueError, match=error):
            find_metabasins(l, 0.5, f, decomps, table)


def test_power_of_two_scaling_scales_the_scan_exactly(L14X):
    # E -> 4E is exact in binary floats: every comparison and tie stays, and
    # every difference of energies is exactly 4x
    for l in _scan_inputs(L14X):
        big = dataclasses.replace(l, energy=4 * l.energy)
        (f, table, decomps), (f4, table4, decomps4) = stages(l), stages(big)
        assert f4.deletion_order == f.deletion_order
        assert f4.deletion_costs == tuple(4 * c for c in f.deletion_costs)
        for (i, margins, witnesses), (i4, margins4, witnesses4) in zip(
                aggregation._scan(l, f, decomps, table),
                aggregation._scan(big, f4, decomps4, table4), strict=True):
            assert (i4, list(witnesses4.items())) == (i, list(witnesses.items()))
            assert list(margins4.items()) == [(m, 4 * v) for m, v in margins.items()]
        for eps in (0.5, 2.5, 1e9):
            r, r4 = find_metabasins(l, eps, f, decomps, table), find_metabasins(
                big, 4 * eps, f4, decomps4, table4)
            assert (r4.level, r4.partition, r4.mb2_witnesses, r4.scan) == (
                r.level, r.partition, r.mb2_witnesses, r.scan)
            assert list(r4.mb1_margin.items()) == [(m, 4 * v) for m, v in r.mb1_margin.items()]


def test_find_metabasins_with_table_runs_no_pair_sweep(L14X, monkeypatch):
    calls = []
    real = saddles.essential_saddle

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(saddles, "essential_saddle", counting)
    report = find_metabasins(L14X.l, 2.5, L14X.f, L14X.decomps, L14X.table)
    assert report.level is not None
    assert calls == []


def test_exact_laws_raise_when_the_exit_mass_is_lost(L14X):
    # at beta 20 the exit mass of V(4) at level 6 is below one ulp of its
    # in-valley mass: the solve returns no positive exit probability at all
    ms = ms_at(L14X, 6)
    model = build_metropolis(L14X.l, 20.0)
    m4 = L14X.l.index_of_label(4)
    with pytest.raises(ValueError, match="total mass"):
        exact_jump_distribution(model, ms, m4)
    with pytest.raises(ValueError, match="total mass"):
        exact_valley_transition(model, ms, m4)


def _canonical(obj):
    """A repr-able copy of ``obj`` with exact floats and sorted dicts and sets."""
    if isinstance(obj, dict):
        return sorted((_canonical(k), _canonical(v)) for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape, obj.tobytes().hex())
    if isinstance(obj, float):
        return obj.hex()
    return obj


def test_tied_energies_pinned():
    # the np.round(energy, 1) twin of gen_random_landscape(300, 4, 0.05, 1):
    # 75 tied energies reach only the library (load_landscape rejects them);
    # sha256 of the filtration, every decomposition level and the scan's D and
    # udh, recorded before the filtration's climb matrix was replaced
    l = gen_random_landscape(300, 4, 0.05, 1)
    l = Landscape(np.round(l.energy, 1), l.neighbors)
    f = scoppola_filtration(l)
    table = saddles.saddle_table(l)
    decomps = decompose_all(l, f, table)
    scan = [escape_exponents(l, metastate_space(decomps[i - 1], f), table)
            for i in range(1, f.levels - 1)]
    digests = {name: hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()
               for name, value in [("filtration", (f.deletion_order, f.deletion_costs)),
                                   ("decompositions", [vars(d) for d in decomps]),
                                   ("scan", scan)]}
    assert (f.levels, len(l.energy) - len(np.unique(l.energy))) == (91, 75)
    assert digests == {
        "filtration": "f338106c45d5f71047713658dd6a7f2d956e436807995688dd5024098d350bf1",
        "decompositions": "9546199a86d042df24797a5a3d6892d3edfaffafafd94ef74cc721472a91235d",
        "scan": "df6a0a0cfb37992cc9e2ec4256db768b87a3fd0f465a5e0730a99972cac6333a",
    }
