"""Acceptance suite: every criterion as a callable returning a structured result.

The pytest acceptance module and the ``verify`` CLI command both run these.
Each criterion pins its own tolerances; nothing is calibrated at run time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import analysis, reference, simulate
from .aggregation import (
    exact_jump_distribution,
    exact_valley_transition,
    asymptotic_jump_chain,
    find_metabasins,
    metastate_space,
    reciprocating_order_test,
    transition_exponents,
)
from .chain import (HittingQuery, build_metropolis, expected_hitting_time, hitting_probability,
                    restricted_hitting_probability)
from .filtration import scoppola_filtration
from .landscape import Landscape, gen_random_landscape, reachable
from .saddles import essential_saddle, saddle_table
from .valleys import _suffixes, _tie_queries, bordering, decompose_all, outer_boundary
from .verifydata import FixtureSet


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _random_instances(count, n_lo, n_hi, seed0=0):
    for k in range(count):
        n = n_lo + k % (n_hi - n_lo + 1)
        yield gen_random_landscape(n, 3, 0.05, seed=seed0 + k)


def _shortest_path(l: Landscape, a: int, b: int):
    prev = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for u in l.neighbors[v]:
            if u not in prev:
                prev[u] = v
                queue.append(u)
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return list(reversed(path))


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# --- criterion 1: saddle oracle equivalence -------------------------------

def c1_saddle_oracle(fx: FixtureSet) -> CriterionResult:
    mismatches = 0
    checked = 0
    ultra_ok = True
    sym_ok = True
    for l in _random_instances(200, 4, 10):
        n = l.n
        table = saddle_table(l)
        zs = np.array([table.column(m) for m in range(n)])    # n <= 10: one local dense copy
        sym_ok &= bool((zs == zs.T).all())
        e = l.energy[zs]
        for a in range(n):
            for b in range(a + 1, n):
                state, energy = reference.minimax_oracle(l, a, b)
                checked += 1
                if state != zs[a, b] or energy != e[a, b]:
                    mismatches += 1
                if (a + b) % 5 == 0:          # spot check the single-pair reading too
                    if essential_saddle(l, a, b) != (state, energy):
                        mismatches += 1
        for a in range(n):
            for b in range(n):
                for u in range(n):
                    if e[a, b] > max(e[a, u], e[u, b]):
                        ultra_ok = False
    passed = mismatches == 0 and ultra_ok and sym_ok
    return CriterionResult("saddle-oracle", passed, {
        "pairs_checked": checked, "mismatches": mismatches,
        "ultrametric": ultra_ok, "symmetric": sym_ok,
    })


# --- criterion 2: valley definitional oracle ------------------------------

def c2_valley_oracle(fx: FixtureSet) -> CriterionResult:
    mismatch = 0
    invariant_failures = []
    instances = 0
    for l in _random_instances(100, 4, 9, seed0=1000):
        instances += 1
        f = scoppola_filtration(l)
        table = saddle_table(l)
        decomps = decompose_all(l, f, table)
        oracle = reference.decompose_oracle(l, f)
        for d, (ov, on, oml) in zip(decomps, oracle):
            if d.valley != ov or d.nonassigned != on or d.merge_level != oml:
                mismatch += 1
        msg = _valley_invariants(l, f, table, decomps)
        if msg:
            invariant_failures.append(msg)
    passed = mismatch == 0 and not invariant_failures
    return CriterionResult("valley-oracle", passed, {
        "instances": instances, "level_mismatches": mismatch,
        "invariant_failures": invariant_failures[:5],
    })


def _valley_invariants(l, f, table, decomps) -> str | None:
    energy, order = l.energy.tolist(), np.argsort(l.energy, kind="stable").tolist()
    for d, (owner, least, _) in zip(decomps, _suffixes(l, table, f.deletion_order)):
        M = f.M(d.level)
        owner = owner.tolist()
        asked = [s for s in range(l.n) if s not in M]
        found = bordering(l.neighbors, energy, owner,
                          _tie_queries(energy, owner, least.tolist(), asked), order)
        assigned = d.assigned_valleys()
        cover: set[int] = set()
        for m, members in assigned.items():
            if cover & members:
                return f"level {d.level}: valleys overlap"
            cover |= members
            if m not in members:
                return f"level {d.level}: bottom {m} missing from its valley"
            if not _connected_subset(l, members):
                return f"level {d.level}: valley of {m} disconnected"
        for m, members in d.valley.items():
            if not d.strict[m] <= members:
                return f"level {d.level}: strict basin of {m} escapes its valley"
            if not _connected_subset(l, d.strict[m]):
                return f"level {d.level}: strict basin of {m} disconnected"
            # sandwich: every state attracted by m sits in the valley, and the
            # valley stays inside the weak-inequality region
            for s in asked:
                if s not in members and (found[s] if owner[s] < 0 else owner[s]) == m:
                    return f"level {d.level}: attracted state {s} outside valley of {m}"
            for s in members:
                e = l.energy[table.column(s)]
                if any(e[mp] < e[m] for mp in M):
                    return f"level {d.level}: valley of {m} leaves the weak region"
        if d.level > 1:
            prev = decomps[d.level - 2]
            for m, members in d.valley.items():
                if m in prev.valley and not prev.valley[m] <= members:
                    return f"level {d.level}: nesting broken at {m}"
        # outer boundaries of every live valley are non-assigned and sit at
        # their own saddle height towards the bottom
        for m, members in assigned.items():
            for s in outer_boundary(l, members):
                if s not in d.nonassigned:
                    return f"level {d.level}: boundary state {s} is assigned"
                if l.energy[table.column(m)[s]] != l.energy[s]:
                    return f"level {d.level}: boundary saddle identity fails at {s}"
    return None


def _connected_subset(l, members) -> bool:
    members = set(members)
    return not members or reachable(l, next(iter(members)), members) == members


# --- criterion 3: golden fixtures -----------------------------------------

def c3_goldens(fx: FixtureSet) -> CriterionResult:
    details = {}
    l6 = fx.l6
    ok = l6.f.deletion_order == (2, 0, 4) and l6.f.deletion_costs == (3.0, 8.0)
    details["l6_filtration"] = ok
    d2 = l6.decomps[1]
    ok2 = (d2.valley == {0: frozenset({0, 1, 2}), 4: frozenset({4, 5})}
           and d2.nonassigned == frozenset({3}))
    details["l6_level2_valleys"] = ok2
    ms2 = metastate_space(d2, l6.f)
    jc = asymptotic_jump_chain(l6.l, ms2)
    i3 = jc.index(3)
    ok3 = (jc.phat[i3, jc.index(0)] == 0.5 and jc.phat[i3, jc.index(4)] == 0.5)
    details["l6_phat"] = ok3
    l14 = fx.l14
    labels = l14.l.labels
    order = tuple(labels[s] for s in l14.f.deletion_order)
    okl14 = order == (8, 12, 6, 2, 10, 14, 4)
    expected_N = [
        {3, 5, 7, 9, 11, 13}, {3, 5, 7, 11, 13}, {3, 5, 7, 11},
        {3, 7, 11}, {7, 11}, {11}, set(),
    ]
    expected_M = [
        {2, 4, 6, 8, 10, 12, 14}, {2, 4, 6, 10, 12, 14}, {2, 4, 6, 10, 14},
        {2, 4, 10, 14}, {4, 10, 14}, {4, 14}, {4},
    ]
    for i, d in enumerate(l14.decomps, start=1):
        got_N = {labels[s] for s in d.nonassigned}
        got_M = {labels[s] for s in l14.f.M(i)}
        okl14 &= got_N == expected_N[i - 1] and got_M == expected_M[i - 1]
    details["l14_reconstruction"] = okl14
    passed = ok and ok2 and ok3 and okl14
    return CriterionResult("golden-fixtures", passed, details)


# --- criterion 4: exact identities ----------------------------------------

def c4_exact_identities(fx: FixtureSet) -> CriterionResult:
    rng = np.random.default_rng(42)
    worst_path = 0.0
    for k in range(50):
        l = gen_random_landscape(5 + k % 6, 3, 0.05, seed=2000 + k)
        model = build_metropolis(l, beta=float(rng.uniform(0.5, 2.0)))
        a, b = rng.choice(l.n, size=2, replace=False)
        path = _shortest_path(l, int(a), int(b))
        if len(path) < 2:
            continue
        terms = [
            (model.pi[path[0]] / model.pi[path[i]]) / model.P[path[i], path[i - 1]]
            for i in range(1, len(path))
        ]
        formula = 1.0 / sum(terms)
        exact = restricted_hitting_probability(model, path, path[0], path[-1], path[0])
        worst_path = max(worst_path, abs(formula - exact))
    worst_split = 0.0
    for k in range(50):
        l = gen_random_landscape(5 + k % 6, 3, 0.05, seed=3000 + k)
        model = build_metropolis(l, beta=float(rng.uniform(0.5, 2.0)))
        x, z, *rest = (int(v) for v in rng.permutation(l.n))
        I = frozenset(rest[: 1 + int(rng.integers(0, min(3, len(rest))))])
        lhs = (hitting_probability(model, HittingQuery(x, {z}, I))
               * hitting_probability(model, HittingQuery(x, I | {z}, {x})))
        rhs = hitting_probability(model, HittingQuery(x, {z}, I | {x}))
        worst_split = max(worst_split, abs(lhs - rhs))
    passed = worst_path <= 1e-10 and worst_split <= 1e-10
    return CriterionResult("exact-identities", passed, {
        "one_dimensional_residual": worst_path, "splitting_residual": worst_split,
    })


# --- criterion 5: drift bounds dominate ------------------------------------

def c5_bound_domination(fx: FixtureSet) -> CriterionResult:
    betas = (2.0, 4.0, 6.0, 8.0, 10.0)
    violations = 0
    checked = 0
    l6 = fx.l6
    for fixture in (fx.l6, fx.l14x):
        for beta in betas:
            model = build_metropolis(fixture.l, beta)
            for x in range(fixture.l.n):
                zx = fixture.table.column(x)
                ex = fixture.l.energy[zx]
                for y in range(fixture.l.n):
                    for z in range(fixture.l.n):
                        if len({x, y, z}) != 3:
                            continue
                        if not ex[z] > ex[y]:
                            continue
                        if zx[z] == x:
                            continue
                        bound = analysis.epsilon_bound(fixture.l, x, y, z, beta, fixture.table)
                        exact = hitting_probability(model, HittingQuery(x, {z}, {y}))
                        checked += 1
                        violations += exact > bound
    for fixture, levels in ((fx.l6, (1, 2)), (fx.l14x, (5,))):
        for beta in betas:
            model = build_metropolis(fixture.l, beta)
            for level in levels:
                ms = metastate_space(fixture.decomps[level - 1], fixture.f)
                for m in ms.valley_metastates:
                    own = ms.valley_level[m]
                    members = ms.valley_of[m]
                    for x in sorted(members):
                        for y in range(fixture.l.n):
                            if y in members:
                                continue
                            bound = analysis.epsilon_tilde(
                                fixture.l, fixture.decomps, x, m, y, beta, own, fixture.table)
                            exact = hitting_probability(model, HittingQuery(x, {y}, {m}))
                            checked += 1
                            violations += exact > bound
    # a representative sandwich curve for the report renderer
    grid = list(np.linspace(2, 10, 9))
    curves = {
        "sandwich_log_exact": (grid, [
            math.log(hitting_probability(build_metropolis(l6.l, b), HittingQuery(2, {4}, {0})))
            for b in grid]),
        "sandwich_log_bound": (grid, [
            analysis.log_epsilon(l6.l, l6.table, 2, 0, 4, b) for b in grid]),
    }
    return CriterionResult("bound-domination", violations == 0,
                           {"checked": checked, "violations": violations,
                            "curves": curves})


# --- criterion 6: exit-time slope ------------------------------------------

def c6_exit_time_slope(fx: FixtureSet, beta_grid=None) -> CriterionResult:
    l6 = fx.l6
    betas = beta_grid if beta_grid is not None else np.linspace(4, 12, 9)
    target = 6.0
    slopes = {}
    curves = {}
    for r in (4, 5):
        logs = []
        for beta in betas:
            model = build_metropolis(l6.l, float(beta))
            logs.append(math.log(expected_hitting_time(model, r, {3})))
        slopes[r] = analysis.ols_slope(betas, logs)
        curves[f"exit_time_r{r}"] = (list(map(float, betas)), logs)
    passed = all(abs(s - target) <= 0.1 * target for s in slopes.values())
    return CriterionResult("exit-time-slope", passed, {
        "slopes": {str(k): v for k, v in slopes.items()},
        "target": target, "curves": curves,
    })


# --- criterion 7: spectral -------------------------------------------------

def c7_spectral(fx: FixtureSet) -> CriterionResult:
    l6 = fx.l6
    nested = [sorted(l6.decomps[i].valley[4] if 4 in l6.decomps[i].valley else [])
              for i in range(3)]
    ok_order = True
    worst_geometric = 0.0
    for beta in (1.0, 3.0):
        model = build_metropolis(l6.l, beta)
        lams = [analysis.quasi_stationary(model, V).lam for V in nested]
        ok_order &= lams[0] <= lams[1] + 1e-12 and lams[1] <= lams[2] + 1e-12
        ok_order &= abs(lams[2] - 1.0) <= 1e-12
        qs = analysis.quasi_stationary(model, [4, 5])
        surv = analysis.survival_curve(model, qs, 50)
        geom = qs.lam ** np.arange(51)
        worst_geometric = max(worst_geometric, float(np.max(np.abs(surv - geom))))
    passed = ok_order and worst_geometric <= 1e-8
    return CriterionResult("spectral", passed, {
        "eigenvalue_order": ok_order, "geometric_residual": worst_geometric,
    })


# --- criterion 8: AAC convergence ------------------------------------------

def c8_aac_convergence(fx: FixtureSet, beta_grid=None) -> CriterionResult:
    l6 = fx.l6
    betas = beta_grid if beta_grid is not None else (4.0, 6.0, 8.0, 10.0, 12.0)
    ms = metastate_space(l6.decomps[1], l6.f)
    jc = asymptotic_jump_chain(l6.l, ms)
    tv_curves = {}
    ok = True
    for m in ms.metastates:
        tvs = []
        row = {s: float(jc.phat[jc.index(m), jc.index(s)]) for s in ms.metastates}
        for beta in betas:
            model = build_metropolis(l6.l, float(beta))
            tvs.append(_tv(exact_jump_distribution(model, ms, m), row))
        tv_curves[str(m)] = (list(map(float, betas)), tvs)
        ok &= all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
        ok &= tvs[-1] <= 0.05
    return CriterionResult("aac-convergence", ok, {"tv_curves": tv_curves})


# --- criterion 9: transition exponents -------------------------------------

def _slope_ok(slope, target, exact):
    tol = 0.15 * max(abs(target), 0.5)
    if exact:
        return abs(slope - target) <= tol
    return slope <= target + tol


def c9_transition_exponents(fx: FixtureSet, beta_grid=None) -> CriterionResult:
    betas = beta_grid if beta_grid is not None else np.linspace(4, 12, 9)
    failures = []
    curves = {}
    cases = [(fx.l6, 1), (fx.l6, 2), (fx.l14x, 5)]
    for fixture, level in cases:
        ms = metastate_space(fixture.decomps[level - 1], fixture.f)
        exps = transition_exponents(fixture.l, ms, fixture.table)
        models = {float(b): build_metropolis(fixture.l, float(b)) for b in betas}
        for i, m in enumerate(exps.metastables):
            trans = {float(b): exact_valley_transition(models[float(b)], ms, m)
                     for b in betas}
            for j, mp in enumerate(exps.metastables):
                if mp == m or not exps.reachable[i, j]:
                    continue
                probs = [trans[float(b)][mp] for b in betas]
                if min(probs) <= 0:
                    continue
                slope = analysis.ols_slope(betas, np.log(probs))
                target = -exps.D[i, j]
                exact = exps.udh[i, j] or exps.limits[i, j] > 0
                name = f"{fixture.name}-L{level} {m}->{mp}"
                curves[name] = (list(map(float, betas)), list(map(float, np.log(probs))))
                if not _slope_ok(slope, target, exact):
                    failures.append((name, slope, target))
            boundary = sorted(outer_boundary(fixture.l, ms.valley_of[m]))
            for s in boundary:
                probs = []
                for b in betas:
                    law = exact_jump_distribution(models[float(b)], ms, m)
                    probs.append(law.get(s, 0.0))
                if min(probs) <= 0:
                    continue
                slope = analysis.ols_slope(betas, np.log(probs))
                target = -exps.boundary_exp[(m, s)]
                name = f"{fixture.name}-L{level} {m}=>{s}"
                if not _slope_ok(slope, target, True):
                    failures.append((name, slope, target))
    return CriterionResult("transition-exponents", not failures, {
        "failures": failures, "pairs_tested": len(curves), "curves": curves,
    })


# --- criterion 10: scattering ----------------------------------------------

def c10_scattering(fx: FixtureSet) -> CriterionResult:
    l6 = fx.l6
    ms = metastate_space(l6.decomps[1], l6.f)
    mismatches = {}
    ok = True
    for beta in (2.0, 5.0):
        model = build_metropolis(l6.l, beta)
        mm = analysis.stationary_mismatch(model, ms)
        mismatches[beta] = mm
        for q in (0.5, 1.0, 2.0):
            sx = analysis.scattering(model, q, 200)
            sac = analysis.ac_scattering(model, ms, q, 200)
            gap = float(np.max(np.abs(sx.values - sac.values)))
            ok &= gap <= 4.0 * mm + 1e-12
    ok &= mismatches[5.0] < mismatches[2.0]
    return CriterionResult("scattering", ok, {
        "mismatch_beta2": mismatches[2.0], "mismatch_beta5": mismatches[5.0],
    })


# --- criterion 11: pd vs pid comparison -------------------------------------

def c11_pd_vs_pid(fx: FixtureSet) -> CriterionResult:
    x = fx.l14x
    beta, K, eps, reps = 10.0, 3, 2.5, 1000
    report = find_metabasins(x.l, eps, x.f, x.decomps, x.table)
    if report.level is None:
        return CriterionResult("pd-vs-pid", False, {"error": "no MB level found"})
    ms = metastate_space(x.decomps[report.level - 1], x.f)
    bounds = analysis.pdmb_bounds(x.l, x.decomps, ms, eps, K, delta=0.0, beta=beta,
                                  table=x.table)
    model = build_metropolis(x.l, beta)
    strict_of = simulate.strict_basins_for(ms, x.decomps)
    start = x.l.index_of_label(4)
    freq_a, freq_b, freq_c, y1_counts, entry_counts = simulate.pd_vs_pid_frequencies(
        model, ms, strict_of, start, K, reps, seed=20240)
    ba, bb, bc = bounds.clipped
    dom_ok = True
    if ba > 0:
        dom_ok &= all(f >= ba for f in freq_a)
    if bb > 0:
        dom_ok &= freq_b >= bb
    if bc > 0:
        dom_ok &= freq_c >= bc
    # Monte-Carlo against the exact finite-beta laws, 3 sigma plus 2/reps slack
    mc_ok = True
    for exact, counts in ((exact_jump_distribution(model, ms, start), y1_counts),
                          (exact_valley_transition(model, ms, start), entry_counts)):
        for m in set(exact) | set(counts):
            p = exact.get(m, 0.0)
            f = counts.get(m, 0) / reps
            mc_ok &= abs(f - p) <= 3 * math.sqrt(max(p * (1 - p), 1e-12) / reps) + 2.0 / reps
    passed = dom_ok and mc_ok
    return CriterionResult("pd-vs-pid", passed, {
        "mb_level": report.level, "eta": bounds.eta,
        "bounds_raw": bounds.raw, "bounds_clipped": bounds.clipped,
        "freq_a": list(map(float, freq_a)), "freq_b": freq_b, "freq_c": freq_c,
        "domination": dom_ok, "mc_agreement": mc_ok,
    })


# --- criterion 12: reciprocating jumps --------------------------------------

def c12_reciprocating(fx: FixtureSet) -> CriterionResult:
    l6 = fx.l6
    ms1 = metastate_space(l6.decomps[0], l6.f)
    exps1 = transition_exponents(l6.l, ms1, l6.table)
    w1 = reciprocating_order_test(exps1, eps=1.0)
    ok_witness = w1 is not None and w1.states == frozenset({0, 2})
    ms2 = metastate_space(l6.decomps[1], l6.f)
    exps2 = transition_exponents(l6.l, ms2, l6.table)
    ok_none = reciprocating_order_test(exps2, eps=0.5) is None

    x = fx.l14x
    beta = 8.0
    model = build_metropolis(x.l, beta)
    mb_level = find_metabasins(x.l, 2.5, x.f, x.decomps, x.table).level
    ms_mb = metastate_space(x.decomps[mb_level - 1], x.f)
    ms_l1 = metastate_space(x.decomps[0], x.f)
    start = x.l.index_of_label(4)
    f_mb = simulate.aac_return_frequency(model, ms_mb, start, n_jumps=1500, seed=7)
    f_l1 = simulate.aac_return_frequency(model, ms_l1, start, n_jumps=1500, seed=7)
    ok_freq = f_mb < f_l1
    passed = ok_witness and ok_none and ok_freq
    return CriterionResult("reciprocating-jumps", passed, {
        "witness_level1": sorted(w1.states) if w1 else None,
        "none_level2": ok_none,
        "return_freq_mb_level": f_mb, "return_freq_level1": f_l1,
    })


CRITERIA = {
    "saddle-oracle": c1_saddle_oracle,
    "valley-oracle": c2_valley_oracle,
    "golden-fixtures": c3_goldens,
    "exact-identities": c4_exact_identities,
    "bound-domination": c5_bound_domination,
    "exit-time-slope": c6_exit_time_slope,
    "spectral": c7_spectral,
    "aac-convergence": c8_aac_convergence,
    "transition-exponents": c9_transition_exponents,
    "scattering": c10_scattering,
    "pd-vs-pid": c11_pd_vs_pid,
    "reciprocating-jumps": c12_reciprocating,
}


def run_acceptance(only, beta_grid) -> dict:
    """Run the criteria; ``only`` filters by substring of the criterion name,
    and ``beta_grid``, unless None, replaces the default grids of c6, c8 and c9.

    An empty token of ``only``, or one part of no criterion name, raises ValueError.
    """
    unknown = sorted(repr(t) for t in only or () if not (t and any(t in n for n in CRITERIA)))
    if unknown:
        raise ValueError(f"no criterion matches {', '.join(unknown)}; "
                         f"known: {', '.join(CRITERIA)}")
    fx = FixtureSet.build()
    results = []
    for name, fn in CRITERIA.items():
        if only and not any(token in name for token in only):
            continue
        if beta_grid is not None and name in ("exit-time-slope", "aac-convergence",
                                              "transition-exponents"):
            res = fn(fx, beta_grid=beta_grid)
        else:
            res = fn(fx)
        results.append(res)
    return {
        "config": {"only": sorted(only) if only else None,
                   "beta_grid": list(map(float, beta_grid)) if beta_grid is not None else None},
        "criteria": [{"name": r.name, "passed": bool(r.passed), "details": r.details}
                     for r in results],
        "all_passed": bool(all(r.passed for r in results)),
    }

