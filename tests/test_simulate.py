import dataclasses
import hashlib
import json
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabasins import simulate
from metabasins.aggregation import (
    exact_jump_distribution,
    find_metabasins,
    metastate_space,
    project_trajectory,
)
from metabasins.analysis import ols_slope
from metabasins.cli import main
from metabasins.chain import build_metropolis, expected_hitting_time, hitting_probability, HittingQuery
from metabasins.landscape import Landscape, canonical, gen_random_landscape, save_landscape
from metabasins.reference import path_dependent_mb_naive
from metabasins.simulate import (
    JumpWalker,
    NoExitError,
    compare_mb,
    estimate_exit_time,
    estimate_hitting,
    path_dependent_mb,
    run_metropolis,
    run_until_sigma,
    strict_basins_for,
)


def ms_at(fx, level):
    return metastate_space(fx.decomps[level - 1], fx.f)


def test_run_metropolis_deterministic(L6):
    model = build_metropolis(L6.l, 1.0)
    a = run_metropolis(model, 0, 500, seed=5)
    b = run_metropolis(model, 0, 500, seed=5)
    assert np.array_equal(a.states, b.states)
    assert a.states[0] == 0 and len(a) == 501
    # consecutive states equal or adjacent
    for x, y in zip(a.states, a.states[1:]):
        assert x == y or y in L6.l.neighbors[x]


def test_run_metropolis_zero_steps(L6):
    model = build_metropolis(L6.l, 1.0)
    t = run_metropolis(model, 3, 0, seed=1)
    assert list(t.states) == [3]


def test_run_metropolis_on_a_single_state():
    # a state without neighbours: a one-entry lazy row, an empty embedded row
    model = build_metropolis(Landscape(np.array([1.0]), ((),)), 1.0)
    assert run_metropolis(model, 0, 5, seed=1).states.tolist() == [0] * 6


def test_one_step_frequencies_from_state_3(L6):
    model = build_metropolis(L6.l, 2.0)
    rng = np.random.default_rng(123)
    cums = np.cumsum(model.P[3])
    draws = np.searchsorted(cums, rng.random(100_000), side="right")
    for target in (2, 3, 4):
        freq = np.mean(draws == target)
        sigma = math.sqrt((1 / 3) * (2 / 3) / 100_000)
        assert abs(freq - 1 / 3) <= 3 * sigma


def test_trajectory_row_frequencies(L6):
    model = build_metropolis(L6.l, 1.0)
    traj = run_metropolis(model, 3, 20_000, seed=9)
    visits = np.flatnonzero(traj.states[:-1] == 3)
    nxt = traj.states[visits + 1]
    for target in (2, 3, 4):
        freq = np.mean(nxt == target)
        sigma = math.sqrt((1 / 3) * (2 / 3) / len(visits))
        assert abs(freq - 1 / 3) <= 4 * sigma


def dense_cumsum_oracle(model, start, steps, seed):
    """Lazy sampling by ``searchsorted`` on the whole cumulative kernel, one
    bulk draw of uniforms; ``run_metropolis`` must reproduce it bit for bit."""
    cums = np.cumsum(model.P, axis=1)
    states = [start]
    for u in np.random.default_rng(seed).random(steps):
        states.append(int(np.searchsorted(cums[states[-1]], u, side="right")))
    return states


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), gen_seed=st.integers(0, 10_000), beta=st.floats(0.05, 12.0),
       steps=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_run_metropolis_matches_dense_cumsum_oracle(n, gen_seed, beta, steps, seed, data):
    model = build_metropolis(gen_random_landscape(n, 4, 0.05, seed=gen_seed), beta)
    start = data.draw(st.integers(0, n - 1))
    traj = run_metropolis(model, start, steps, seed)
    assert traj.states.tolist() == dense_cumsum_oracle(model, start, steps, seed)


class ConstantStream:
    """Stands in for ``np.random.Generator``: every uniform it draws is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[:] = self.u


def test_lazy_step_at_the_unpinned_row_end_lands_in_the_row(L14X):
    # the cumulative kernel row of state 4 at beta 0.5 ends 2 ulp below 1;
    # searchsorted maps a uniform at that end to n, which is not a state
    model = build_metropolis(L14X.l, 0.5)
    to, p = model.row(4)
    end = float(np.cumsum(p)[-1])
    assert end < 1.0
    assert np.searchsorted(np.cumsum(model.P[4]), end, side="right") == model.n
    walker = JumpWalker(model).stream(ConstantStream(end))
    assert walker.lazy_walk(4, 1) == [4, int(to[-1])]


def test_lazy_step_at_a_cumulative_value_moves_past_it():
    # at beta 5 the move 1 -> 0 underflows, so state 1's row (states 0, 1, 2)
    # starts with an empty entry; a uniform equal to a cumulative value goes
    # past it, as bisect_right does: 0.0 skips state 0, and the value at
    # state 1 moves on to state 2
    model = build_metropolis(Landscape(np.array([1000.0, 0.0, 0.5]), ((1,), (0, 2), (1,))), 5.0)
    to, p = model.row(1)
    cums = np.cumsum(p)
    assert to.tolist() == [0, 1, 2] and p[0] == 0.0 and 0.0 < cums[1] < 1.0
    walker = JumpWalker(model)
    for start, u, after in ((1, 0.0, 1), (1, float(cums[1]), 2), (2, 0.0, 1), (0, 0.0, 0)):
        assert walker.stream(ConstantStream(u)).lazy_walk(start, 1) == [start, after]


def bisect_right_walk(model, start, uniforms):
    """Lazy steps on ``uniforms`` by ``bisect_right`` on each kernel row's
    cumulative values, the last pinned to 1.0: the oracle of ``lazy_walk``,
    which runs the jump loop on the same rows one ulp lower."""
    rows = [(to.tolist(), np.cumsum(p)[:-1].tolist() + [1.0])
            for to, p in map(model.row, range(model.n))]
    states = [start]
    for u in uniforms:
        to, cums = rows[states[-1]]
        states.append(to[bisect_right(cums, u)])
    return states


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), gen_seed=st.integers(0, 10_000),
       beta=st.one_of(st.floats(0.05, 12.0), st.floats(300.0, 5000.0)),
       steps=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lazy_walk_matches_bisect_right_steps(n, gen_seed, beta, steps, seed, data):
    # at beta 300 and above, moves underflow and rows hold empty entries
    model = build_metropolis(gen_random_landscape(n, 4, 0.05, seed=gen_seed), beta)
    start = data.draw(st.integers(0, n - 1))
    walker = JumpWalker(model).stream(np.random.default_rng(seed))
    uniforms = np.random.default_rng(seed).random(steps).tolist()
    assert walker.lazy_walk(start, steps) == bisect_right_walk(model, start, uniforms)
    assert walker.uniform() == np.random.default_rng(seed).random(steps + 1)[-1]


def test_hold_interval_edges_match_bisect_right():
    # a lazy step from r stays at r exactly when u lies in r's hold interval
    # (lo, hi], lo and hi being the lowered cumulative values before and at
    # r's own entry (lo = -1 when it is first). At each end, and one ulp
    # above each, the step is bisect_right's. At beta 5000 moves underflow
    # to 0.0, and an empty entry just before r's own makes lo the value
    # before that entry
    seen = set()
    for beta in (5.0, 5000.0):
        model = build_metropolis(gen_random_landscape(12, 4, 0.05, seed=3), beta)
        walker = JumpWalker(model)
        for r, (to, p) in enumerate(map(model.row, range(model.n))):
            k = to.tolist().index(r)
            lowered = np.nextafter(np.cumsum(p)[:-1].tolist() + [1.0], -1.0).tolist()
            lo, hi = lowered[k - 1] if k else -1.0, lowered[k]
            seen |= {"first" if k == 0 else "last" if k == len(to) - 1 else "inside"}
            seen |= {"underflow"} if k and p[k - 1] == 0.0 else set()
            for u in (lo, hi, np.nextafter(lo, 2.0), np.nextafter(hi, 2.0)):
                if not 0.0 <= u < 1.0:   # not a uniform
                    continue
                walked = walker.stream(ConstantStream(float(u))).lazy_walk(r, 1)
                assert walked == bisect_right_walk(model, r, [float(u)])
                assert (walked[-1] == r) == (lo < u <= hi)
    assert seen == {"first", "inside", "last", "underflow"}


def test_walks_without_steps_need_no_stream(L6):
    walker = JumpWalker(build_metropolis(L6.l, 1.0))
    assert walker.lazy_walk(3, 0) == [3]
    assert walker.walk(3, [0] * 6, 0).tolist() == [3]


def test_walker_refuses_a_state_without_exit():
    # at beta 5 both exits of states 0 and 2 underflow to 0; the lazy chain
    # stays put there, the jump chain has no step to take
    model = build_metropolis(Landscape([0, 1000, 0.5], ((1,), (0, 2), (1,))), 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walker = JumpWalker(model)
    w = walker.stream(np.random.default_rng(1))
    for call in (lambda: w.step(0), lambda: w.holding(2), lambda: w.walk(0, [0, 1, 2], 1)):
        with pytest.raises(NoExitError, match="state [02] "):
            call()
    with pytest.raises(NoExitError) as stuck:
        w.walk(1, [0, 1, 2], 5)   # state 1 leaves, and its next state is stuck
    assert stuck.value.state in (0, 2)
    assert w.walk(0, [0, 1, 2], 0) == [0]
    for start in range(3):
        traj = run_metropolis(model, start, 300, seed=3)
        assert traj.states.tolist() == dense_cumsum_oracle(model, start, 300, 3)
    # a state without neighbours has no exit either
    lone = JumpWalker(build_metropolis(Landscape(np.array([1.0]), ((),)), 1.0))
    with pytest.raises(NoExitError, match="state 0 "):
        lone.stream(np.random.default_rng(1)).step(0)


def test_holding_time_where_the_stay_probability_rounds_to_one():
    # at beta 1 the exit p(0, 1) = 2.1e-18 of state 0 is below one ulp of 1,
    # so p(0, 0) is exactly 1.0; the holding time is drawn from the exit mass
    l = Landscape(np.array([0.0, 40.0, 0.5]), ((1,), (0, 2), (1,)))
    model = build_metropolis(l, 1.0)
    exit_mass = model.P[0, 1]
    assert model.P[0, 0] == 1.0 and 0.0 < exit_mass < 1e-17
    walker = JumpWalker(model)
    u = np.random.default_rng(3).random()
    held = walker.stream(np.random.default_rng(3)).holding(0)
    assert held == 1.0 + math.floor(math.log(u) / math.log1p(-exit_mass))
    assert 1e16 < held < 1e19   # the mean is 1 / exit_mass = 4.7e17 steps
    assert walker.stream(np.random.default_rng(3)).step(0) == 1
    # states with p(r, r) < 1 keep the log(p) draw
    u = np.random.default_rng(4).random()
    p = model.P[1, 1]
    assert 0.0 < p < 1.0
    assert walker.stream(np.random.default_rng(4)).holding(1) == 1.0 + math.floor(
        math.log(u) / math.log(p))
    # an exit mass of 1e-320 makes the draw overflow a float
    far = JumpWalker(build_metropolis(Landscape(np.array([0.0, 736.0, 0.5]), l.neighbors), 1.0))
    with pytest.raises(ValueError, match="holding time at state 0 overflows"):
        far.stream(np.random.default_rng(3)).holding(0)


def walker_on(model, seed):
    return JumpWalker(model).stream(np.random.default_rng(seed))


def test_jump_chain_never_stalls(L6):
    model = build_metropolis(L6.l, 3.0)
    states = run_until_sigma(walker_on(model, 4), ms_at(L6, 1), 0, 200)
    assert len(states) > 200
    assert all(x != y for x, y in zip(states, states[1:]))
    assert all(y in L6.l.neighbors[x] for x, y in zip(states, states[1:]))


def test_walk_continues_the_stream_like_single_steps(L14X):
    # a stream that has already drawn one uniform (the lazy first step of
    # estimate_hitting) walks on from the next buffered value, exactly as
    # repeated single jumps on the same seed
    model = build_metropolis(L14X.l, 6.0)
    ms = ms_at(L14X, 5)
    start = L14X.l.index_of_label(4)
    walker = JumpWalker(model)
    for seed in (0, 1, 2):
        w = walker.stream(np.random.default_rng(seed))
        w.uniform()
        states = run_until_sigma(w, ms, start, 3)
        assert len(states) > 64   # the walk runs past the first 64-value chunk
        w = walker.stream(np.random.default_rng(seed))
        w.uniform()
        stepped = [start]
        for _ in range(len(states) - 1):
            stepped.append(w.step(stepped[-1]))
        assert states.tolist() == stepped


WALK_BUDGET = 30_000


def stream_after(walker, seed, advance):
    """A stream on ``seed`` that has already drawn ``advance`` uniforms."""
    w = walker.stream(np.random.default_rng(seed))
    for _ in range(advance):
        w.uniform()
    return w


def stepped_walk(w, start, label, K, max_steps):
    """``walk`` by repeated single jumps: the oracle of the table walk."""
    states = [start]
    changes = 0
    while changes < K:
        states.append(w.step(states[-1]))
        changes += label[states[-1]] != label[states[-2]]
        if len(states) > max_steps + 1:
            raise RuntimeError("budget")
    return states


def outcome(w, go):
    """What ``go(w)`` returns or raises, and the next uniform after it."""
    try:
        result = go(w)
    except NoExitError as e:
        result = ("no exit", e.state)
    except RuntimeError:
        result = ("budget",)
    return result, w.uniform()


def assert_walk_is_stepped(walker, seed, advance, start, label, K, max_steps):
    walked = outcome(stream_after(walker, seed, advance),
                     lambda w: w.walk(start, label, K, max_steps).tolist())
    stepped = outcome(stream_after(walker, seed, advance),
                      lambda w: stepped_walk(w, start, label, K, max_steps))
    assert walked == stepped
    return walked[0]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 2 * simulate.FSM_MAX_STATES), gen_seed=st.integers(0, 10_000),
       beta=st.floats(0.5, 12.0), K=st.integers(0, 40), advance=st.integers(0, 2000),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_walk_matches_single_steps(n, gen_seed, beta, K, advance, seed, data):
    # both sides of FSM_MAX_STATES; a stream advanced by up to 2000 uniforms,
    # and a budget that reaches its 65536-value chunk, put the windows across
    # every chunk boundary
    l = gen_random_landscape(n, 4, 0.05, seed=gen_seed)
    model = build_metropolis(l, beta)
    # dense labels change often; a few marked states, or the states above an
    # energy level, make walks that run long
    marked = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    level = data.draw(st.floats(0.0, 1.0))
    label = data.draw(st.one_of(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.just([marked.count(s) for s in range(n)]),
        st.just((l.energy > np.quantile(l.energy, level)).tolist())))
    start = data.draw(st.integers(0, n - 1))
    assert_walk_is_stepped(JumpWalker(model), seed, advance, start, label, K, WALK_BUDGET)


def test_walk_reaches_a_state_without_exit_after_its_head():
    # state 3 lies 1000 below its one neighbour, so at beta 5 it cannot be
    # left; the walk reaches it only over the barrier at state 2, after more
    # steps than the scalar head takes
    l = Landscape(np.array([0.0, 0.1, 1.2, -1000.0]), ((1,), (0, 2), (1, 3), (2,)))
    walker = JumpWalker(build_metropolis(l, 5.0))
    assert l.n <= simulate.FSM_MAX_STATES
    for seed in (0, 1, 3):
        trapped = assert_walk_is_stepped(walker, seed, 0, 0, [0] * 4, 1, WALK_BUDGET)
        assert trapped == ("no exit", 3)
    steps = stepped_walk(walker.stream(np.random.default_rng(1)), 0, [0, 0, 0, 1], 1, WALK_BUDGET)
    assert len(steps) > 2368   # past the scalar head (1024 steps) and the first window (to 2048)


def test_walk_stops_inside_a_window(L14X):
    # c11's walks (beta 10, three metastate changes from label 4) run for
    # tens of thousands of steps. A walk takes 1024 scalar steps, then
    # windows of 1024, 4096 and 8192 steps from wherever the head stopped.
    # On a fresh stream they end at steps 2048, 6144 and 14336, and the first
    # two read across the stream's chunk ends at values 1344 and 5440; after
    # 1400 drawn values, the second window reads across the latter
    walker = JumpWalker(build_metropolis(L14X.l, 10.0))
    rep = ms_at(L14X, 5).rep_of.tolist()
    for seed, advance in ((0, 0), (6, 1400)):
        states = assert_walk_is_stepped(walker, seed, advance, L14X.l.index_of_label(4), rep, 3,
                                        50_000)
        assert 10_000 < len(states) < 50_000
    edges = [(advance, edge + d) for advance in (0, 1400) for edge in (1024, 2048, 6144)
             for d in (-1, 0, 1)]
    for advance, max_steps in [(0, 5000), (0, 5439), (0, 5440), (1400, 3000)] + edges:
        result = assert_walk_is_stepped(walker, 2, advance, 0, [0] * L14X.l.n, 1, max_steps)
        assert result == ("budget",)


def lattice(side, seed):
    """A side x side four-neighbour lattice with uniform random energies."""
    neighbors = []
    for v in range(side * side):
        row, col = divmod(v, side)
        neighbors.append(tuple(u for u, inside in ((v - side, row > 0), (v - 1, col > 0),
                                                   (v + 1, col < side - 1),
                                                   (v + side, row < side - 1)) if inside))
    return Landscape(np.random.default_rng(seed).random(side * side), tuple(neighbors))


def test_lazy_walk_across_chunk_ends():
    # 30,000 lazy steps, most of them held, read across the stream's chunk
    # ends at values 64, 320, 1344, 5440 and 21824, from a fresh stream and
    # from streams that have drawn 1 and 5,000 values
    model = build_metropolis(lattice(14, 2), 5.0)
    walker = JumpWalker(model)
    start = int(np.argmin(model.landscape.energy))
    for advance in (0, 1, 5000):
        w = stream_after(walker, 11, advance)
        uniforms = np.random.default_rng(11).random(advance + 30_001).tolist()
        states = w.lazy_walk(start, 30_000)
        assert states == bisect_right_walk(model, start, uniforms[advance:-1])
        assert w.uniform() == uniforms[-1]
        assert 0 < sum(a != b for a, b in zip(states, states[1:])) < 15_000


def test_scalar_walk_from_deep_inside_a_chunk():
    # above FSM_MAX_STATES a walk stays scalar. After 60,000 drawn values it
    # starts inside the stream's chunk of values 21,824 to 87,359, and with
    # every state its own label its 29,000 jumps cross that chunk's end
    n = simulate.FSM_MAX_STATES + 20
    walker = JumpWalker(build_metropolis(gen_random_landscape(n, 4, 0.05, seed=4), 3.0))
    states = assert_walk_is_stepped(walker, 9, 60_000, 0, list(range(n)), 29_000, WALK_BUDGET)
    assert len(states) == 29_001


def test_scalar_walk_into_a_state_without_exit():
    # above FSM_MAX_STATES the scalar loop meets the trap at the end of a
    # path: the uniform that met its empty row was read, and the stream
    # goes on after it
    n = simulate.FSM_MAX_STATES + 1
    energy = np.linspace(0.0, 0.1, n)
    energy[-1] = -1000.0
    path = tuple(tuple(s for s in (v - 1, v + 1) if 0 <= s < n) for v in range(n))
    walker = JumpWalker(build_metropolis(Landscape(energy, path), 5.0))
    for seed in range(3):
        trapped = assert_walk_is_stepped(walker, seed, 0, n - 2, [0] * n, 1, WALK_BUDGET)
        assert trapped == ("no exit", n - 1)


def test_walk_rejects_a_negative_K(L6):
    with pytest.raises(ValueError, match="K must be nonnegative"):
        walker_on(build_metropolis(L6.l, 1.0), 1).walk(0, [0] * 6, -1)


def test_walk_budget_and_unseeded_walker(L6):
    model = build_metropolis(L6.l, 3.0)
    with pytest.raises(RuntimeError):
        walker_on(model, 1).walk(0, [0] * 6, 1, max_steps=100)
    with pytest.raises(ValueError):
        JumpWalker(model).step(0)


def test_path_dependent_mb_by_hand():
    pd = path_dependent_mb([0, 1, 0, 1, 2, 3, 4, 5, 4], T=8)
    assert pd.chi == (0, 4, 5, 6)
    assert pd.upsilon == 3
    assert pd.blocks == (frozenset({0, 1}), frozenset({2}), frozenset({3}),
                         frozenset({4, 5}))


def test_path_dependent_mb_injective_and_constant():
    pd = path_dependent_mb([3, 1, 4, 5, 9, 2], T=5)
    assert pd.chi == (0, 1, 2, 3, 4, 5)
    assert all(len(b) == 1 for b in pd.blocks)
    pd = path_dependent_mb([7, 7, 7, 7], T=3)
    assert pd.chi == (0,)
    assert pd.blocks == (frozenset({7}),)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
                 st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200)),
       st.data())
def test_path_dependent_mb_matches_naive(seq, data):
    T = len(seq) - 1
    fast = path_dependent_mb(seq, T)
    slow = path_dependent_mb_naive(seq, T)
    assert fast == slow
    assert path_dependent_mb(np.asarray(seq), T) == slow
    # a horizon short of the end reads only the prefix
    T = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
    assert path_dependent_mb(np.asarray(seq), T) == path_dependent_mb_naive(seq, T)


def test_path_dependent_mb_blocks_hold_python_ints():
    pd = path_dependent_mb(np.array([0, 1, 0, 2, 3, 3, 5]), 6)
    assert pd.blocks == (frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({5}))
    assert {type(s) for b in pd.blocks for s in b} == {int}
    assert {type(k) for k in pd.chi} == {int}


def test_path_dependent_mb_input_contract():
    for states, T in (([1, 2], 2), (np.array([1, 2]), 5), ([1], -1)):
        with pytest.raises(ValueError):
            path_dependent_mb(states, T)
    with pytest.raises(ValueError):
        path_dependent_mb([1, -1, 1], 2)
    assert path_dependent_mb([4, 2, 9, 9], 1).blocks == (frozenset({4}), frozenset({2}))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
       st.data())
def test_blocks_invariant_under_self_loop_removal(seq, data):
    # duplicate random entries in place (simulating lazy self-loops)
    padded = []
    for s in seq:
        padded.extend([s] * data.draw(st.integers(min_value=1, max_value=3)))
    a = path_dependent_mb(padded, len(padded) - 1)
    collapsed = [s for k, s in enumerate(seq) if k == 0 or s != seq[k - 1]]
    b = path_dependent_mb(collapsed, len(collapsed) - 1)
    assert a.blocks == b.blocks


def test_estimate_hitting_examples(L6):
    model = build_metropolis(L6.l, 1.0)
    est, se = estimate_hitting(model, 1, {0}, {2}, reps=10_000, seed=77)
    assert abs(est - 0.5) <= 3 * se + 1e-12
    est, se = estimate_hitting(model, 5, {4}, {3}, reps=200, seed=77)
    assert est == 1.0 and se == 0.0


def test_estimate_hitting_matches_solver_random(L6):
    model = build_metropolis(L6.l, 1.5)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, a, b = (int(v) for v in rng.choice(6, size=3, replace=False))
        exact = hitting_probability(model, HittingQuery(x, {a}, {b}))
        est, se = estimate_hitting(model, x, {a}, {b}, reps=800, seed=int(rng.integers(1e6)))
        assert abs(est - exact) <= 3 * max(se, math.sqrt(0.25 / 800)) + 1e-9


def test_estimate_hitting_reproducible(L6):
    model = build_metropolis(L6.l, 1.0)
    a = estimate_hitting(model, 1, {0}, {2}, reps=500, seed=3)
    b = estimate_hitting(model, 1, {0}, {2}, reps=500, seed=3)
    assert a == b


@pytest.mark.parametrize("name, beta, x, targets, competitors, reps, seed, expected", [
    ("L6", 2.0, 1, {0}, {2}, 2000, 77, (0.512, 0.011177119485806708)),
    ("L6", 2.0, 0, {0}, {2}, 2000, 5, (1.0, 0.0)),
    ("L14", 1.5, 4, {2}, {6}, 500, 3, (0.94, 0.010620734437881408)),
    ("L14X", 3.0, 6, {6}, {0, 12}, 500, 11, (0.314, 0.020755914819636352)),
])
def test_estimate_hitting_pinned(name, beta, x, targets, competitors, reps, seed, expected):
    # exact values: the lazy first step and the jump walk consume the replica
    # streams in a fixed way, so any change of sampling rule shows here
    model = build_metropolis(canonical(name), beta)
    assert estimate_hitting(model, x, targets, competitors, reps, seed) == expected


def test_estimate_exit_time_against_solver(L6):
    model = build_metropolis(L6.l, 3.0)
    d = L6.decomps[1]
    mean, se = estimate_exit_time(model, d, 4, reps=300, seed=11)
    exact = expected_hitting_time(model, 4, {3})
    assert abs(mean - exact) <= 3 * se
    # smoke test at high temperature
    quick = estimate_exit_time(build_metropolis(L6.l, 0.1), d, 4, reps=50, seed=1)
    assert quick[0] >= 1.0


@pytest.mark.parametrize("reps", [-1, 0, 1])
def test_estimate_exit_time_needs_two_replicas(L6, reps):
    # one replica has no standard error; it must not come back as nan
    with pytest.raises(ValueError):
        estimate_exit_time(build_metropolis(L6.l, 1.0), L6.decomps[1], 4, reps=reps, seed=1)


def test_exit_time_slope_monte_carlo(L6):
    # redundant MC version of the exact-solver slope check, on a feasible grid
    d = L6.decomps[1]
    betas = [2.0, 2.8, 3.6, 4.4]
    logs = []
    for b in betas:
        model = build_metropolis(L6.l, b)
        mean, _ = estimate_exit_time(model, d, 4, reps=150, seed=23)
        logs.append(math.log(mean))
    slope = ols_slope(betas, logs)
    assert abs(slope - 6.0) <= 0.6


def test_compare_mb_first_window(L6):
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, 4.0)
    strict_of = strict_basins_for(ms, L6.decomps)
    states = run_until_sigma(walker_on(model, 2), ms, 4, 1)
    cmp1 = compare_mb(states, ms, 1, strict_of)
    # the walk stayed in the first valley until the single change point, so its
    # block is contained in that valley
    assert cmp1.blocks_in_valleys_full
    with pytest.raises(ValueError):
        compare_mb(states[:2], ms, 5, strict_of)


def test_compare_mb_straddle_audit(L6):
    ms = ms_at(L6, 2)
    strict_of = strict_basins_for(ms, L6.decomps)
    # no metastate revisit: the blocks split cleanly along the valleys
    states = [4, 5, 4, 3, 2, 1, 0]
    cmp = compare_mb(states, ms, 2, strict_of)
    assert not cmp.revisit_occurred
    assert cmp.straddling_blocks == 0
    # an immediate return merges the walk into one straddling block
    states = [4, 3, 4, 3, 2, 1, 0]
    cmp = compare_mb(states, ms, 3, strict_of)
    assert cmp.revisit_occurred


def first_block_containing(blocks, x):
    """The literal block lookup: scan the blocks in order."""
    for b in blocks:
        if x in b:
            return b
    return frozenset()


@settings(max_examples=150, deadline=None)
@given(level=st.sampled_from([1, 2]),
       seq=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60),
       as_array=st.booleans(), data=st.data())
def test_compare_mb_block_lookup_matches_literal_scan(L6, level, seq, as_array, data):
    ms = ms_at(L6, level)
    strict_of = strict_basins_for(ms, L6.decomps)
    _, stop, y = project_trajectory(seq, ms)
    K = data.draw(st.integers(min_value=0, max_value=len(stop.sigma) - 1))
    cmp = compare_mb(np.asarray(seq) if as_array else seq, ms, K, strict_of)
    pd = path_dependent_mb_naive(seq, stop.sigma[K])
    block = [first_block_containing(pd.blocks, y[k]) for k in range(K)]
    assert cmp.inner_in_block == tuple(strict_of[y[k]] <= block[k] for k in range(K))
    assert cmp.blocks_in_valleys_open == all(block[j] <= ms.valley_of[y[j]]
                                             for j in range(max(K - 1, 0)))
    assert cmp.blocks_in_valleys_full == all(block[j] <= ms.valley_of[y[j]] for j in range(K))
    assert cmp.straddling_blocks == sum(
        1 for b in pd.blocks
        if sum(1 for m in ms.valley_metastates if b & ms.valley_of[m]) >= 2)
    assert cmp.revisit_occurred == (len(set(y[: K + 1])) < len(y[: K + 1]))
    assert cmp.aac == y


def test_pd_blocks_and_comparisons_pinned_on_c11_replicas(L14X):
    # 60 c11 replicas (beta 10, K 3, seed 20240, MB level); both digests were
    # recorded with the occurrence-interval implementation of the blocks
    report = find_metabasins(L14X.l, 2.5, L14X.f, L14X.decomps, L14X.table)
    ms = ms_at(L14X, report.level)
    strict_of = strict_basins_for(ms, L14X.decomps)
    walker = JumpWalker(build_metropolis(L14X.l, 10.0))
    start = L14X.l.index_of_label(4)
    blocks, comparisons = hashlib.sha256(), hashlib.sha256()
    for k in range(60):
        states = run_until_sigma(walker.stream(simulate.replica_rng(20240, k)), ms, start, 3)
        pd = path_dependent_mb(states, project_trajectory(states, ms)[1].sigma[3])
        blocks.update(json.dumps([list(pd.chi), [sorted(b) for b in pd.blocks]]).encode())
        c = compare_mb(states, ms, 3, strict_of)
        comparisons.update(json.dumps([list(c.inner_in_block), c.blocks_in_valleys_open,
                                       c.blocks_in_valleys_full, c.straddling_blocks,
                                       c.revisit_occurred, list(c.aac)]).encode())
    assert blocks.hexdigest() == "8db5999819f4cf6f673aa7748e79d4fc976505ce2375c0f0b6cde81248513dc6"
    assert comparisons.hexdigest() == "20717ad64f067a181a88d7ceee41ad52184ac381c4325cf0c637627815089dbe"


def test_empirical_jump_law_approaches_limit(L14X):
    ms = ms_at(L14X, 5)
    start = L14X.l.index_of_label(4)
    gate = L14X.l.index_of_label(5)
    tvs = []
    for beta in (1.5, 3.0):
        model = build_metropolis(L14X.l, beta)
        walker = JumpWalker(model)
        counts = {}
        reps = 500
        for k in range(reps):
            states = run_until_sigma(walker.stream(simulate.replica_rng(50, k)), ms, start, 1)
            _, _, y = project_trajectory(states, ms)
            counts[y[1]] = counts.get(y[1], 0) + 1
        tv = 0.5 * sum(abs(counts.get(m, 0) / reps - (1.0 if m == gate else 0.0))
                       for m in ms.metastates)
        tvs.append(tv)
    assert tvs[1] < tvs[0]


def test_aac_return_frequency_reproducible(L14X):
    model = build_metropolis(L14X.l, 8.0)
    ms = ms_at(L14X, 1)
    start = L14X.l.index_of_label(4)
    f1 = simulate.aac_return_frequency(model, ms, start, 300, seed=5)
    f2 = simulate.aac_return_frequency(model, ms, start, 300, seed=5)
    assert f1 == f2


@pytest.mark.parametrize("n_jumps", [-1, 0, 1])
def test_aac_return_frequency_needs_two_jumps(L14X, n_jumps):
    model = build_metropolis(L14X.l, 8.0)
    with pytest.raises(ValueError):
        simulate.aac_return_frequency(model, ms_at(L14X, 1), L14X.l.index_of_label(4),
                                      n_jumps, seed=5)


def test_pd_vs_pid_projects_each_trajectory_once(L14X, monkeypatch):
    calls = []

    def counted(states, ms):
        calls.append(len(states))
        return project_trajectory(states, ms)

    monkeypatch.setattr(simulate, "project_trajectory", counted)
    ms = ms_at(L14X, 5)
    model = build_metropolis(L14X.l, 4.0)
    simulate.pd_vs_pid_frequencies(model, ms, strict_basins_for(ms, L14X.decomps),
                                   L14X.l.index_of_label(4), 3, reps=7, seed=1)
    assert len(calls) == 7


def test_pd_vs_pid_rejects_empty_batches_and_horizons(L14X):
    ms = ms_at(L14X, 5)
    model = build_metropolis(L14X.l, 4.0)
    strict_of = strict_basins_for(ms, L14X.decomps)
    start = L14X.l.index_of_label(4)
    for K, reps, message in ((3, 0, "reps must be positive"), (0, 5, "K must be positive"),
                             (-1, 5, "K must be positive")):
        with pytest.raises(ValueError, match=message):
            simulate.pd_vs_pid_frequencies(model, ms, strict_of, start, K, reps, seed=1)


# Values recorded before the walker refactor; any change in how the walk
# consumes its uniform stream changes them. c11 and c12 only check
# thresholds, so these pin the draws exactly.

def test_pd_vs_pid_golden_l14x(L14X):
    l = L14X.l
    report = find_metabasins(l, 2.5, L14X.f, L14X.decomps, L14X.table)
    assert report.level == 5
    ms = ms_at(L14X, report.level)
    model = build_metropolis(l, 10.0)
    freq_a, freq_b, freq_c, y1, entry = simulate.pd_vs_pid_frequencies(
        model, ms, strict_basins_for(ms, L14X.decomps), l.index_of_label(4),
        K=3, reps=30, seed=20240)
    assert freq_a.tolist() == [1.0, 1.0, 1.0]
    assert (freq_b, freq_c) == (0.0, 0.0)
    assert y1 == {4: 30}
    assert entry == {3: 8, 5: 11, 9: 11}


def test_aac_return_frequency_golden_c12(L14X):
    model = build_metropolis(L14X.l, 8.0)
    start = L14X.l.index_of_label(4)
    f_mb = simulate.aac_return_frequency(model, ms_at(L14X, 5), start, 1500, seed=7)
    f_l1 = simulate.aac_return_frequency(model, ms_at(L14X, 1), start, 1500, seed=7)
    assert f_mb == 0.6731154102735156
    assert f_l1 == 0.7491661107404937


def test_power_of_two_scaling_leaves_the_sampler_unchanged(L6, L14X, tmp_path):
    # E -> 4E with beta -> beta/4 is exact in binary floats: every
    # beta * (E(s) - E(r)) is the same float, so the kernel, its rows and
    # every walk on them are bit-identical, and so are simulate's outputs
    # but for the beta and mean energy it reports
    inputs = [L6.l, L14X.l] + [gen_random_landscape(n, 4, 0.05, seed=s)
                               for n in (30, 80) for s in range(4)]
    for i, l in enumerate(inputs):
        big = dataclasses.replace(l, energy=4 * l.energy)
        start = int(np.argmin(l.energy))
        label = [s % 3 for s in range(l.n)]
        for beta in (0.5, 2.0, 5.0):
            model, model4 = build_metropolis(l, beta), build_metropolis(big, beta / 4)
            assert model4.P.tobytes() == model.P.tobytes()
            assert model4.n == model.n
            for r in range(model.n):
                (to, p), (to4, p4) = model.row(r), model4.row(r)
                assert (to4.tolist(), p4.tobytes()) == (to.tolist(), p.tobytes())
            assert (run_metropolis(model4, start, 2000, 7).states.tolist()
                    == run_metropolis(model, start, 2000, 7).states.tolist())
            walks = [outcome(walker_on(m, 7), lambda w: w.walk(start, label, 200, 20_000).tolist())
                     for m in (model, model4)]
            assert walks[0] == walks[1]
        outputs = []
        for name, land, beta in (("l", l, 2.0), ("big", big, 0.5)):
            save_landscape(land, tmp_path / f"{name}{i}.json")
            out = tmp_path / f"{name}{i}"
            assert main(["simulate", "--landscape", str(tmp_path / f"{name}{i}.json"),
                         "--beta", str(beta), "--steps", "2000", "--out", str(out)]) == 0
            outputs.append(((out / "trajectory.csv").read_bytes(),
                            json.loads((out / "stats.json").read_text())["occupancy"]))
        assert outputs[0] == outputs[1]
