import math

import numpy as np
import pytest
from conftest import dense

from metabasins import analysis
from metabasins.aggregation import metastate_space
from metabasins.chain import (
    HittingQuery,
    build_metropolis,
    expected_hitting_time,
    hitting_probability,
)
from metabasins.landscape import gen_random_landscape
from metabasins.saddles import saddle_table


def ms_at(fx, level):
    return metastate_space(fx.decomps[level - 1], fx.f)


def test_k_beta_large_beta_limit(L6):
    # |S| max|N| = 12 once the exponential dies
    assert analysis.k_beta(L6.l, 1e6) == pytest.approx(12.0, rel=1e-6)
    values = [analysis.k_beta(L6.l, b) for b in (50, 100, 400, 1000)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_k_beta_small_beta_is_finite(L6):
    v = analysis.k_beta(L6.l, 0.1)
    assert v > 12.0 and math.isfinite(math.log(v))


def test_epsilon_bound_l6_dominates(L6):
    beta = 5.0
    model = build_metropolis(L6.l, beta)
    bound = analysis.epsilon_bound(L6.l, 2, 0, 4, beta, L6.table)
    exact = hitting_probability(model, HittingQuery(2, {4}, {0}))
    assert exact <= bound


def test_epsilon_bound_vanishes_asymptotically(L6):
    logs = [analysis.log_epsilon(L6.l, L6.table, 2, 0, 4, b)
            for b in (1e4, 1e5, 1e6)]
    assert logs[0] > logs[1] > logs[2]
    assert logs[-1] < -1e5


def test_epsilon_bound_preconditions(L6):
    with pytest.raises(ValueError):
        analysis.epsilon_bound(L6.l, 2, 4, 0, 3.0, L6.table)   # barrier order flipped
    with pytest.raises(ValueError):
        analysis.epsilon_bound(L6.l, 2, 2, 4, 3.0, L6.table)   # not distinct
    with pytest.raises(ValueError):
        analysis.epsilon_bound(L6.l, 3, 4, 5, 3.0, L6.table)   # saddle equals start


@pytest.mark.parametrize("seed", range(10))
def test_epsilon_bound_random_domination(seed):
    l = gen_random_landscape(6 + seed % 4, 3, 0.05, seed=5000 + seed)
    table = saddle_table(l)
    zs = dense(table)
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(1.0, 4.0))
    model = build_metropolis(l, beta)
    found = 0
    for _ in range(60):
        x, y, z = (int(v) for v in rng.choice(l.n, size=3, replace=False))
        if l.energy[zs[x, z]] <= l.energy[zs[x, y]] or zs[x, z] == x:
            continue
        bound = analysis.epsilon_bound(l, x, y, z, beta, table)
        exact = hitting_probability(model, HittingQuery(x, {z}, {y}))
        assert exact <= bound
        found += 1
        if found >= 3:
            break
    assert found >= 1


def test_epsilon_tilde_l6_example(L6):
    beta = 6.0
    model = build_metropolis(L6.l, beta)
    value = analysis.epsilon_tilde(L6.l, L6.decomps, 1, 0, 4, beta, level=2,
                                   table=L6.table)
    assert math.isfinite(value) or value == math.inf
    exact = hitting_probability(model, HittingQuery(1, {4}, {0}))
    assert exact <= value


def test_epsilon_tilde_case_split_reduces_to_single_term(L6):
    # when the saddle to y tops the saddle to the bottom, only one term remains
    beta = 3.0
    lv = analysis.log_epsilon_tilde(L6.l, L6.decomps, 1, 0, 3, beta, level=2,
                                    table=L6.table)
    single = analysis.log_epsilon(L6.l, L6.table, 1, 0, 3, beta)
    assert lv == pytest.approx(single, abs=1e-12)


def test_epsilon_tilde_chain_vanishes_asymptotically(L14X):
    lab = L14X.l.index_of_label
    logs = [analysis.log_epsilon_tilde(L14X.l, L14X.decomps, lab(1), lab(4),
                                       lab(7), b, level=5, table=L14X.table)
            for b in (1e5, 1e6, 1e7)]
    assert logs[0] > logs[1] > logs[2]


def test_epsilon_tilde_rejects_bad_arguments(L6):
    with pytest.raises(ValueError):
        analysis.epsilon_tilde(L6.l, L6.decomps, 3, 0, 4, 2.0, level=2, table=L6.table)
    with pytest.raises(ValueError):
        analysis.epsilon_tilde(L6.l, L6.decomps, 1, 0, 2, 2.0, level=2, table=L6.table)


def test_attraction_chain_l14x(L14X):
    lab = L14X.l.index_of_label
    chain = analysis.attraction_chain(L14X.decomps, lab(1), lab(4), level=5)
    # state 1 joined the valley of 2 at level 1, which merged into 4 at level 5
    assert [(L14X.l.labels[a], L14X.l.labels[b], lvl) for a, b, lvl in chain] \
        == [(1, 2, 1), (2, 4, 5)]


def test_quasi_stationary_singleton(L6):
    model = build_metropolis(L6.l, 2.0)
    qs = analysis.quasi_stationary(model, [2])
    assert qs.lam == pytest.approx(model.P[2, 2], abs=1e-14)
    assert qs.nu[0] == 1.0


def test_quasi_stationary_geometric_exit(L6):
    for beta in (1.0, 3.0):
        model = build_metropolis(L6.l, beta)
        qs = analysis.quasi_stationary(model, [4, 5])
        surv = analysis.survival_curve(model, qs, 50)
        assert np.max(np.abs(surv - qs.lam ** np.arange(51))) <= 1e-8


def test_quasi_stationary_monotone_in_nesting(L6):
    model = build_metropolis(L6.l, 1.0)
    lam1 = analysis.quasi_stationary(model, sorted(L6.decomps[0].valley[4])).lam
    lam2 = analysis.quasi_stationary(model, sorted(L6.decomps[1].valley[4])).lam
    lam3 = analysis.quasi_stationary(model, range(6)).lam
    assert lam1 <= lam2 + 1e-12 <= lam3 + 2e-12
    assert lam3 == 1.0


def test_quasi_stationary_requires_connected_restriction(L6):
    model = build_metropolis(L6.l, 1.0)
    with pytest.raises(ValueError):
        analysis.quasi_stationary(model, [0, 4])


def test_scattering_trivial_cases(L6):
    model = build_metropolis(L6.l, 2.0)
    flat = analysis.scattering(model, 0.0, 20)
    assert np.allclose(flat.values, 1.0, atol=1e-12)
    assert flat.relaxation(0.5) is None
    curve = analysis.scattering(model, 1.0, 20)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(curve.values) <= 1.0 + 1e-12)


def test_scattering_ac_comparison(L6):
    ms = ms_at(L6, 2)
    for beta in (2.0, 5.0):
        model = build_metropolis(L6.l, beta)
        mismatch = analysis.stationary_mismatch(model, ms)
        for q in (0.5, 1.0, 2.0):
            sx = analysis.scattering(model, q, 200)
            sac = analysis.ac_scattering(model, ms, q, 200)
            assert np.max(np.abs(sx.values - sac.values)) <= 4 * mismatch + 1e-12


def test_stationary_mismatch_decreases(L6):
    ms = ms_at(L6, 2)
    values = [analysis.stationary_mismatch(build_metropolis(L6.l, b), ms)
              for b in (1.0, 2.0, 3.0, 5.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_delta_m_vanishes_asymptotically(L14X):
    # the smallest saddle gap on this fixture is 0.05, so the slack term
    # 7 beta gamma_beta only loses around beta ~ 1e8; evaluate beyond that
    ms = ms_at(L14X, 5)
    m4 = L14X.l.index_of_label(4)
    logs = [analysis.log_delta_m(L14X.l, L14X.decomps, ms, m4, b, L14X.table)
            for b in (1e8, 1e9, 1e10)]
    assert logs[0] > logs[1] > logs[2]
    assert logs[-1] < -1e6
    # consequence: the first comparison bound approaches one on the grid
    strict = len(L14X.decomps[4].strict[m4])
    bound_a = [1.0 - (strict + 2) * math.exp(lv) for lv in logs]
    assert bound_a[0] <= bound_a[1] <= bound_a[2]
    assert bound_a[2] > 1 - 1e-12


def test_pdmb_bounds_cap_enforced(L14X):
    ms = ms_at(L14X, 5)
    with pytest.raises(ValueError):
        analysis.pdmb_bounds(L14X.l, L14X.decomps, ms, eps=2.5, K=3, delta=0.5,
                             beta=10.0, table=L14X.table)


def test_pdmb_bounds_vacuous_factorial(L14X):
    ms = ms_at(L14X, 5)
    b = analysis.pdmb_bounds(L14X.l, L14X.decomps, ms, eps=2.5, K=3, delta=0.0,
                             beta=10.0, table=L14X.table)
    assert b.eta == (2, 2, 3)
    assert min(b.eta[1], b.eta[2]) <= 3 - 1   # falling factorial hits zero
    assert b.raw[2] == 0.0 and b.vacuous[2]
    assert all(0.0 <= v <= 1.0 for v in b.clipped)


def test_pdmb_bound_c_positive_when_connected(triangle6):
    # with three well-connected valleys the factorial bound survives at K = 2
    from metabasins.filtration import scoppola_filtration
    from metabasins.valleys import decompose_all

    f = scoppola_filtration(triangle6)
    table = saddle_table(triangle6)
    decomps = decompose_all(triangle6, f, table)
    ms = metastate_space(decomps[0], f)
    from metabasins.valleys import connectivity_params
    eta = connectivity_params(triangle6, ms, 2.0)
    assert min(eta[1], eta[2]) >= 2
    b = analysis.pdmb_bounds(triangle6, decomps, ms, eps=2.0, K=2, delta=0.0,
                             beta=0.05, table=table)
    assert b.raw[2] != 0.0


def test_horizon_T_degenerate_and_clean(L6):
    ms = ms_at(L6, 2)
    model = build_metropolis(L6.l, 6.0)
    # with the exact drift bounds the factor is nonpositive at desk beta
    deltas = {m: analysis.delta_m(L6.l, L6.decomps, ms, m, 6.0, L6.table)
              for m in ms.valley_metastates}
    assert math.isnan(analysis.horizon_T(model, ms, 0, 0.1, deltas))
    # with vanishing corrections it reduces to a log ratio
    clean = analysis.horizon_T(model, ms, 0, 0.1, {m: 0.0 for m in ms.valley_metastates})
    assert clean > 0


def test_exit_probability_tail_bound(L6):
    # P(exit within (i+1) t) >= 1/4 via the exact mean and Markov's inequality,
    # in log space because the displayed horizon is astronomically large
    beta, level = 10.0, 2
    model = build_metropolis(L6.l, beta)
    g = model.gamma_beta
    log_mean = math.log(expected_hitting_time(model, 4, {3}))
    log_t = level * math.log(2.0) + beta * (6.0 + 2 * (level + 1) * L6.l.n * g)
    log_horizon = math.log(level + 1) + log_t
    assert log_mean - log_horizon <= math.log(0.75)


def test_ols_slope():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    assert analysis.ols_slope(xs, 2.5 * xs + 1.0) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_return_probability_two_sided_bounds(seed):
    # K(beta)|S|^{-1} e^{-beta(barrier - E(x) - 2 gamma)} from above and
    # |S|^{-1} e^{-beta(barrier - E(x) + 5 gamma)} from below sandwich the
    # exact return-race probability
    l = gen_random_landscape(5 + seed % 5, 3, 0.05, seed=6000 + seed)
    zs = dense(saddle_table(l))
    n = l.n
    rng = np.random.default_rng(seed)
    for beta in (2.0, 3.0, 5.0):
        model = build_metropolis(l, beta)
        g = model.gamma_beta
        for _ in range(6):
            x, z = (int(v) for v in rng.choice(n, size=2, replace=False))
            exact = hitting_probability(model, HittingQuery(x, {z}, {x}))
            exz = l.energy[zs[x, z]]
            lower = math.exp(-beta * (exz - l.energy[x] + 5 * g)) / n
            assert lower <= exact * (1 + 1e-12)
            if zs[x, z] != x:
                upper = (analysis.k_beta(l, beta) / n
                         * math.exp(min(-beta * (exz - l.energy[x] - 2 * g), 500)))
                assert exact <= upper * (1 + 1e-12)


def test_relaxation_time_found_when_curve_decays(L6):
    model = build_metropolis(L6.l, 2.0)
    curve = analysis.scattering(model, 2.0, 200)
    plateau = float(curve.values[-1])
    eps = (plateau + 1.0) / 2
    tq = curve.relaxation(eps)
    assert tq is not None and 1 <= tq <= 200
    assert curve.values[tq] <= eps < curve.values[tq - 1]
