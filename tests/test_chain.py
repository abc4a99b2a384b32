import math

import numpy as np
import pytest

from metabasins.chain import (
    HittingQuery,
    LostMoveError,
    build_metropolis,
    check_moves,
    expected_hitting_time,
    hitting_probability,
    kernel_sandwich_holds,
    occupation_distribution,
    restricted_hitting_probability,
)
from metabasins.landscape import Landscape, gen_random_landscape
from metabasins.simulate import JumpWalker

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def l6_model(L6):
    return build_metropolis(L6.l, beta=1.0)


def test_rows_sum_to_one(l6_model):
    assert np.allclose(l6_model.P.sum(axis=1), 1.0, atol=1e-12)
    assert (np.diag(l6_model.P) > 0).all()


def test_downhill_row_from_state_1(L6):
    # both moves from the highest interior state are downhill
    for beta in (0.5, 1.0, 4.0):
        m = build_metropolis(L6.l, beta)
        assert m.P[1, 0] == m.P[1, 2] == pytest.approx(1 / 3, abs=1e-15)
        assert m.P[1, 1] == pytest.approx(1 / 3, abs=1e-15)


def test_uphill_entry(l6_model):
    assert l6_model.P[0, 1] == pytest.approx(math.exp(-4.0) / 2, rel=1e-14)


def test_stationary_closed_form(l6_model):
    pi = l6_model.pi
    assert pi[4] / pi[0] == pytest.approx(1.5 * math.e, rel=1e-13)


def test_detailed_balance_and_fixed_point(L6):
    for beta in (0.7, 2.0, 5.0):
        m = build_metropolis(L6.l, beta)
        flux = m.pi[:, None] * m.P
        assert np.max(np.abs(flux - flux.T)) <= 1e-12
        assert np.max(np.abs(m.pi @ m.P - m.pi)) <= 1e-10


def test_small_beta_limit_direction(L6):
    # energies drop out: pi(r) -> C(r) / sum C(s)
    m = build_metropolis(L6.l, beta=1e-9)
    C = m.degree_plus
    assert np.allclose(m.pi, C / C.sum(), atol=1e-8)


def test_stationary_ratio_bounds_random():
    # two-sided bound on pi(r)/pi(s) via the slack constant
    for k in range(50):
        l = gen_random_landscape(5 + k % 5, 3, 0.05, seed=500 + k)
        for beta in (0.5, 1.0, 2.0):
            m = build_metropolis(l, beta)
            g = m.gamma_beta
            for r in range(l.n):
                for s in range(l.n):
                    if l.energy[r] <= l.energy[s]:
                        continue
                    ratio = m.pi[r] / m.pi[s]
                    de = l.energy[r] - l.energy[s]
                    assert math.exp(-beta * (de + 2 * g)) <= ratio * (1 + 1e-12)
                    assert ratio <= math.exp(-beta * (de - 2 * g)) * (1 + 1e-12)


def test_kernel_sandwich_above_golden_ratio():
    # the kernel bounds hold exactly when beta / sqrt(beta + 1) >= 1
    for k in range(20):
        l = gen_random_landscape(5 + k % 5, 3, 0.05, seed=900 + k)
        for beta in (2.0, 5.0, 10.0):
            assert kernel_sandwich_holds(build_metropolis(l, beta))
        assert kernel_sandwich_holds(build_metropolis(l, GOLDEN_RATIO + 1e-6))


def test_kernel_sandwich_threshold_is_sharp(L6):
    # just below the threshold the lower bound fails for the max-degree states
    assert not kernel_sandwich_holds(build_metropolis(L6.l, 1.0))


def test_hitting_probability_examples(L6):
    for beta in (0.5, 1.0, 3.0, 8.0):
        m = build_metropolis(L6.l, beta)
        assert hitting_probability(m, HittingQuery(1, {0}, {2})) == pytest.approx(0.5, abs=1e-13)
        assert hitting_probability(m, HittingQuery(5, {4}, {3})) == pytest.approx(1.0, abs=1e-13)


def test_one_dimensional_formula_on_l6(L6):
    m = build_metropolis(L6.l, beta=2.0)
    path = [0, 1, 2, 3, 4]
    terms = [(m.pi[0] / m.pi[path[i]]) / m.P[path[i], path[i - 1]]
             for i in range(1, len(path))]
    formula = 1.0 / sum(terms)
    exact = hitting_probability(m, HittingQuery(0, {4}, {0}))
    assert exact == pytest.approx(formula, abs=1e-10)
    restricted = restricted_hitting_probability(m, path, 0, 4, 0)
    assert restricted == pytest.approx(formula, abs=1e-10)


def test_splitting_identity_random():
    rng = np.random.default_rng(3)
    for k in range(50):
        l = gen_random_landscape(5 + k % 6, 3, 0.05, seed=4000 + k)
        m = build_metropolis(l, float(rng.uniform(0.5, 2.0)))
        x, z, *rest = (int(v) for v in rng.permutation(l.n))
        I = frozenset(rest[:2])
        lhs = (hitting_probability(m, HittingQuery(x, {z}, I))
               * hitting_probability(m, HittingQuery(x, I | {z}, {x})))
        rhs = hitting_probability(m, HittingQuery(x, {z}, I | {x}))
        assert abs(lhs - rhs) <= 1e-10


def test_barrier_crossing_freezes_out(L6):
    values = []
    for beta in range(1, 11):
        m = build_metropolis(L6.l, float(beta))
        values.append(hitting_probability(m, HittingQuery(0, {4}, {0})))
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_expected_hitting_examples(L6):
    m = build_metropolis(L6.l, beta=1.0)
    # from inside the target set with all neighbors inside, one step is forced
    assert expected_hitting_time(m, 1, {0, 1, 2}) == pytest.approx(1.0, abs=1e-12)
    # state 5 only neighbors 4, so tau_4 from 5 is geometric with q = p(5,4) = 1/2
    assert m.P[5, 4] == 0.5
    assert expected_hitting_time(m, 5, {4}) == pytest.approx(2.0, abs=1e-12)


def test_exit_time_magnitude_at_beta8(L6):
    m = build_metropolis(L6.l, beta=8.0)
    t = expected_hitting_time(m, 4, {3})
    assert 5.8 <= math.log(t) / 8.0 <= 6.2


def test_occupation_distribution(L6, l6_model):
    mu0 = np.zeros(6)
    mu0[0] = 1.0
    assert np.array_equal(occupation_distribution(l6_model, mu0, 0), mu0)
    assert np.allclose(occupation_distribution(l6_model, mu0, 1), l6_model.P[0])
    pi = l6_model.pi
    assert np.allclose(occupation_distribution(l6_model, pi, 37), pi, atol=1e-12)


def test_invalid_queries():
    with pytest.raises(ValueError):
        HittingQuery(0, set(), {1})
    with pytest.raises(ValueError):
        HittingQuery(0, {1}, {1})


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_build_metropolis_rejects_bad_beta(L6, beta):
    with pytest.raises(ValueError, match="beta must be"):
        build_metropolis(L6.l, beta)


def test_check_moves_names_the_first_lost_move(L6, L14, L14X):
    # no move underflows at beta <= 50 on the canonical landscapes, which
    # covers every default grid; L6 first loses one at 124.5 and L14 at 90
    for fx in (L6, L14, L14X):
        for beta in np.arange(0.5, 50.5, 0.5):
            check_moves(build_metropolis(fx.l, float(beta)))
    check_moves(build_metropolis(L6.l, 124.0))
    for fx, beta, move in ((L6, 124.5, (4, 3)), (L14, 90.0, (10, 11))):
        model = build_metropolis(fx.l, beta)
        named = rf"at beta {beta:g} the kernel entry p\({move[0]}, {move[1]}\)"
        with pytest.raises(LostMoveError, match=named) as lost:
            check_moves(model)
        assert lost.value.move == move and lost.value.beta == beta
        r, s = (fx.l.index_of_label(x) for x in move)
        assert model.P[r, s] == 0.0 and s in fx.l.neighbors[r]


def per_entry_kernel(l, beta):
    """The kernel by the first implementation's per-entry loop, with its row
    table, exit masses and pi, and the walker's tables per row by its per-row
    cumsums: (to, lazy, held, neighbours, jump cums, exit, stay), floats in
    hex. The oracle of build_metropolis and JumpWalker, bit for bit."""
    n = l.n
    C = np.array([len(nb) + 1 for nb in l.neighbors], dtype=float)
    P = np.zeros((n, n))
    rows = []
    for r in range(n):
        for s in l.neighbors[r]:
            P[r, s] = math.exp(-beta * max(l.energy[s] - l.energy[r], 0.0)) / C[r]
        P[r, r] = 1.0 - P[r].sum()
        to = np.array(sorted((*l.neighbors[r], r)), dtype=int)
        rows.append((to, P[r, to]))
    off = P.copy()
    np.fill_diagonal(off, 0.0)
    exit_mass = off.sum(axis=1)
    w = C * np.exp(-beta * (l.energy - l.energy.min()))
    tables = []
    for r, (to, p) in enumerate(rows):
        lazy = np.nextafter(np.cumsum(p)[:-1].tolist() + [1.0], -1.0).tolist()
        k = to.tolist().index(r)
        moves, jump = to != r, []
        if exit_mass[r] > 0:
            jump = (np.cumsum(p[moves]) / exit_mass[r])[:-1].tolist() + [1.0]
        tables.append((to.tolist(), hexed(lazy), hexed((lazy[k - 1] if k else -1.0, lazy[k])),
                       to[moves].tolist() if jump else [], hexed(jump),
                       float(exit_mass[r]).hex(), float(P[r, r]).hex()))
    return P, rows, exit_mass, w / w.sum(), tables


def hexed(values):
    return [float(x).hex() for x in values]


def walker_tables(model):
    """JumpWalker's tables per row in ``per_entry_kernel``'s form, each padded
    row cut to the row's length; a row without exit is checked to be all
    -inf, and every other to end in +inf padding."""
    walker = JumpWalker(model)
    tables = []
    for r, k in enumerate(np.diff(model.indptr).tolist()):
        cums = walker._cums[r]
        leaves = walker._exit[r] > 0
        assert cums[k - 1:] == [math.inf] * (len(cums) - k + 1) if leaves else \
            cums == [-math.inf] * len(cums)
        tables.append((walker._to[r][:k], hexed(walker._lazy[r][:k]), hexed(walker._held[r]),
                       walker._neighbors[r][:k - 1] if leaves else [],
                       hexed(cums[:k - 1]) if leaves else [],
                       walker._exit[r].hex(), walker._stay[r].hex()))
    return tables


def test_kernel_and_walker_tables_match_the_per_entry_loop(L6, L14, L14X):
    # the whole-array build gives the per-entry loop's bits: P, the flat row
    # table, exit masses, pi and every walker table, moves that underflow to
    # 0.0 (beta 300 and 5000), states whose every exit underflows, p(r, r)
    # rounded to 1.0 and a state without neighbours included. Entries are
    # math.exp's: numpy's SIMD exp differs from it in the last bit on some
    # exponents, and this catches that
    three = ((1,), (0, 2), (1,))
    inputs = [gen_random_landscape(n, 4, 0.05, seed=s) for n in (2, 12, 48, 196) for s in range(3)]
    inputs += [L6.l, L14.l, L14X.l, Landscape(np.array([1000.0, 0.0, 0.5]), three),
               Landscape(np.array([0.0, 1000.0, 0.5]), three),
               Landscape(np.array([0.0, 40.0, 0.5]), three), Landscape(np.array([1.0]), ((),))]
    seen = set()
    for l in inputs:
        for beta in (0.05, 1.0, 5.0, 12.0, 300.0, 5000.0):
            model = build_metropolis(l, beta)
            P, rows, exit_mass, pi, tables = per_entry_kernel(l, beta)
            assert model.P.tobytes() == P.tobytes()
            assert model.to.tobytes() == np.concatenate([to for to, _ in rows]).tobytes()
            assert model.p.tobytes() == np.concatenate([p for _, p in rows]).tobytes()
            assert model.exit.tobytes() == exit_mass.tobytes()
            assert model.pi.tobytes() == pi.tobytes()
            assert walker_tables(model) == tables
            seen |= {"lost"} if (model.p == 0.0).any() else set()
            seen |= {"trapped"} if (model.exit == 0.0).any() else set()
            seen |= {"stays"} if (np.diag(P) == 1.0).any() else set()
    assert seen == {"lost", "trapped", "stays"}
