"""Closed-form bounds, quasi-stationary spectra, scattering and comparison bounds.

Every bound of the hitting-probability family has the shape
K(beta) * exp(-beta * (gap - 7 gamma_beta)); at desk-scale beta the slack term
7 * beta * gamma_beta is large, so values are computed in log space and may
overflow to +inf on exponentiation. Such values are still valid (vacuous)
upper bounds; asymptotic statements are checked on large-beta grids in log
space where they become sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import MetastateSpace, exact_jump_distribution
from .chain import TransitionModel, gamma_beta
from .landscape import Landscape, min_energy_gap, reachable
from .saddles import SaddleTable
from .valleys import ValleyDecomposition, connectivity_params, outer_boundary


def ols_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    xc = xs - xs.mean()
    return float((xc @ (ys - ys.mean())) / (xc @ xc))


def _logsumexp(values) -> float:
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def log_k_beta(l: Landscape, beta: float) -> float:
    g = gamma_beta(l, beta)
    dmin = min_energy_gap(l)
    max_deg = max(len(nb) for nb in l.neighbors)
    inner = l.n * math.exp(min(-beta * (dmin - 2 * g), 700.0)) + 1.0
    return math.log(l.n * max_deg) + math.log(inner)


def k_beta(l: Landscape, beta: float) -> float:
    """|S| max|N(r)| (|S| e^{-beta(Delta_min - 2 gamma)} + 1)."""
    return math.exp(log_k_beta(l, beta))


def log_epsilon(l: Landscape, table: SaddleTable, x: int, y: int, z: int, beta: float) -> float:
    """log of K(beta) e^{-beta(E(z*(x,z)) - E(z*(x,y)) - 7 gamma)}; y = x allowed."""
    ex = l.energy[table.column(x)]
    gap = float(ex[z] - ex[y])
    return log_k_beta(l, beta) + beta * (7.0 * gamma_beta(l, beta) - gap)


def epsilon_bound(l: Landscape, x: int, y: int, z: int, beta: float,
                  table: SaddleTable) -> float:
    """Upper bound on P_x(tau_z < tau_y) when z's saddle is the higher one."""
    if len({x, y, z}) != 3:
        raise ValueError("x, y, z must be pairwise distinct")
    zx = table.column(x)
    if not l.energy[zx[z]] > l.energy[zx[y]]:
        raise ValueError("requires E(z*(x,z)) > E(z*(x,y))")
    if zx[z] == x:
        raise ValueError("requires z*(x,z) != x")
    lv = log_epsilon(l, table, x, y, z, beta)
    return math.exp(lv) if lv <= 700.0 else math.inf


def attraction_chain(decomps: list[ValleyDecomposition], x: int, m: int,
                     level: int) -> list[tuple[int, int, int]]:
    """Links (source, target, level) leading x into V^{(level)}(m); empty if x == m."""
    records = decomps[level - 1].attracted_at
    chain: list[tuple[int, int, int]] = []
    cur = x
    while cur != m:
        if cur not in records or records[cur][1] > level:
            raise ValueError(f"state {x} is not in the level-{level} valley of {m}")
        tgt, lvl = records[cur]
        chain.append((cur, tgt, lvl))
        cur = tgt
    return chain


def _log_epsilon_tilde_link(l, table, decomps, x, m, y, beta, level) -> float:
    """One link of the chained bound: x attracted by m at the given level."""
    lk = log_k_beta(l, beta)
    g7 = 7.0 * gamma_beta(l, beta)
    ex = l.energy[table.column(x)]
    exy, exm = ex[y], ex[m]
    if exy > exm:
        return lk + beta * (g7 - (exy - exm))
    ey, em = l.energy[table.column(y)], l.energy[table.column(m)]
    terms = []
    for z in range(l.n):
        if l.energy[z] > exy:
            terms.append(lk + beta * (g7 - (ex[z] - exy)))
    for z in decomps[level - 1].strict[m]:
        terms.append(lk + beta * (g7 - (ey[z] - em[z])))
    return _logsumexp(terms)


def log_epsilon_tilde(l: Landscape, decomps: list[ValleyDecomposition],
                      x: int, m: int, y: int, beta: float, level: int,
                      table: SaddleTable) -> float:
    """Chained drift bound on P_x(tau_y < tau_m) for x inside the valley of m.

    Sums one link per attraction step of the construction that pulled x into
    the valley; for x = m a single self link with the E(z*(m,m)) = E(m)
    convention is used.
    """
    d = decomps[level - 1]
    members = d.valley.get(m)
    if members is None or x not in members:
        raise ValueError(f"x={x} is not in the level-{level} valley of {m}")
    if y in members:
        raise ValueError(f"y={y} lies inside the valley of {m}")
    if x == m:
        return _log_epsilon_tilde_link(l, table, decomps, m, m, y, beta, level)
    chain = attraction_chain(decomps, x, m, level)
    return _logsumexp(
        _log_epsilon_tilde_link(l, table, decomps, src, tgt, y, beta, lvl)
        for src, tgt, lvl in chain
    )


def epsilon_tilde(l, decomps, x, m, y, beta, level, table) -> float:
    lv = log_epsilon_tilde(l, decomps, x, m, y, beta, level, table)
    return math.exp(lv) if lv <= 700.0 else math.inf


def log_delta_m(l: Landscape, decomps: list[ValleyDecomposition], ms: MetastateSpace,
                m: int, beta: float, table: SaddleTable) -> float:
    """log of max_{x in V(m)} sum_{z in boundary} of the chained drift bound."""
    level = ms.valley_level[m]
    members = ms.valley_of[m]
    boundary = outer_boundary(l, members)
    best = -math.inf
    for x in sorted(members):
        total = _logsumexp(
            log_epsilon_tilde(l, decomps, x, m, z, beta, level, table)
            for z in sorted(boundary)
        )
        best = max(best, total)
    return best


def delta_m(l, decomps, ms, m, beta, table) -> float:
    lv = log_delta_m(l, decomps, ms, m, beta, table)
    return math.exp(lv) if lv <= 700.0 else math.inf


def horizon_T(model: TransitionModel, ms: MetastateSpace, m: int, delta: float,
              deltas: dict[int, float]) -> float:
    """ln(delta) / ln(min over m' of P_{m'}(Y_1 != m)(1 - delta(m'))); nan if vacuous."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    worst = math.inf
    for mp in ms.metastates:
        if mp == m:
            continue
        law = exact_jump_distribution(model, ms, mp)
        p_not_m = 1.0 - law.get(m, 0.0)
        factor = 1.0 if mp in ms.nonassigned else 1.0 - deltas[mp]
        worst = min(worst, p_not_m * factor)
    if worst <= 0 or worst >= 1:
        return math.nan
    return math.log(delta) / math.log(worst)


@dataclass(frozen=True, eq=False)
class QuasiStationary:
    states: tuple[int, ...]
    lam: float
    nu: np.ndarray


def quasi_stationary(model: TransitionModel, V) -> QuasiStationary:
    """Left Perron pair of the V-restricted (substochastic) kernel, by power iteration.

    Requires the induced subgraph on V to be connected; laziness makes the
    restriction aperiodic, so the iteration converges to the unique
    quasi-stationary distribution. V equal to the whole space gives the
    stationary distribution with eigenvalue 1. The iteration stops once no
    entry moves by 1e-14, or after a million steps.
    """
    V = sorted(V)
    l = model.landscape
    if not V:
        raise ValueError("V is empty")
    if len(V) == model.n:
        # row-stochastic restriction: Perron value 1, left eigenvector pi
        return QuasiStationary(tuple(V), 1.0, model.pi.copy())
    inside = set(V)
    if reachable(l, V[0], inside) != inside:
        raise ValueError("restriction to V is not irreducible")
    Q = model.dense_rows(V).take(V, axis=1)
    nu = np.full(len(V), 1.0 / len(V))
    lam = 1.0
    for _ in range(1_000_000):
        w = nu @ Q
        lam = w.sum()
        w /= lam
        if np.max(np.abs(w - nu)) < 1e-14:
            nu = w
            break
        nu = w
    residual = np.max(np.abs(nu @ Q - lam * nu))
    if residual > 1e-12:
        raise RuntimeError(f"power iteration did not converge (residual {residual:.2e})")
    return QuasiStationary(tuple(V), float(lam), nu)


def survival_curve(model: TransitionModel, qs: QuasiStationary, n_max: int) -> np.ndarray:
    """P_nu(exit time > n) for n = 0..n_max, exactly."""
    Q = model.dense_rows(qs.states).take(qs.states, axis=1)
    out = np.empty(n_max + 1)
    vec = qs.nu.copy()
    out[0] = vec.sum()
    for n in range(1, n_max + 1):
        vec = vec @ Q
        out[n] = vec.sum()
    return out


@dataclass(frozen=True, eq=False)
class ScatteringCurve:
    q: float
    values: np.ndarray

    def relaxation(self, eps: float) -> int | None:
        hit = np.nonzero(self.values <= eps)[0]
        return int(hit[0]) if hit.size else None


def _scattering(model: TransitionModel, q: float, n_max: int, positions) -> ScatteringCurve:
    n = model.n
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    cosq = np.cos(q * dist)
    P = model.dense_rows(range(n))
    M = np.eye(n)
    values = np.empty(n_max + 1)
    pi = model.pi
    for step in range(n_max + 1):
        if step:
            M = M @ P
        values[step] = float((pi[:, None] * M * cosq).sum())
    return ScatteringCurve(q, values)


def scattering(model: TransitionModel, q: float, n_max: int) -> ScatteringCurve:
    """Stationary expectation of cos(q |X_n - X_0|) for n = 0..n_max, exactly."""
    coords = model.landscape.coords
    if coords is None:
        raise ValueError("scattering needs landscape coordinates")
    return _scattering(model, q, n_max, coords)


def ac_scattering(model: TransitionModel, ms: MetastateSpace, q: float, n_max: int) -> ScatteringCurve:
    """Same curve for the aggregated chain, states placed at their metastate."""
    coords = model.landscape.coords
    if coords is None:
        raise ValueError("scattering needs landscape coordinates")
    rep_positions = coords[ms.rep_of[np.arange(model.n)]]
    return _scattering(model, q, n_max, rep_positions)


def stationary_mismatch(model: TransitionModel, ms: MetastateSpace) -> float:
    """P_pi(X_n != AC_n), which under stationarity does not depend on n."""
    total = 0.0
    for m in ms.valley_metastates:
        for x in ms.valley_of[m]:
            if x != m:
                total += model.pi[x]
    return float(total)


@dataclass(frozen=True)
class PdmbBounds:
    eta: tuple[float, float, float]
    delta_cap: float
    delta_max: float
    raw: tuple[float, float, float]
    clipped: tuple[float, float, float]
    vacuous: tuple[bool, bool, bool]


def falling_factorial(n: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= max(n - j, 0.0)
    return out


def pdmb_bounds(l: Landscape, decomps: list[ValleyDecomposition], ms: MetastateSpace,
                eps: float, K: int, delta: float, beta: float, table: SaddleTable) -> PdmbBounds:
    """The three lower bounds for path-dependent vs path-independent agreement.

    (a) bounds the chance that the strict basin of the k-th aggregated state
    is inside its path-dependent block; (b) and (c) bound the chance that the
    blocks stay inside the valleys up to the horizon. delta must not exceed
    ((eta1 ^ (eta2 - 1) - 1) e^{-2 beta eps})^K; when that cap is zero only
    the degenerate delta = 0 is admissible and (b) is vacuous. Raw values are
    kept; clipping to [0, 1] is for reporting.
    """
    eta1, eta2, eta3 = connectivity_params(l, ms, eps)
    cap = (max(min(eta1, eta2 - 1) - 1, 0.0) * math.exp(-2.0 * beta * eps)) ** K
    if not 0 <= delta <= cap + 1e-15:
        raise ValueError(f"delta={delta} exceeds the admissible cap {cap}")
    dmax = max(
        (delta_m(l, decomps, ms, m, beta, table) for m in ms.valley_metastates),
        default=0.0,
    )
    max_strict = 0
    for m in ms.valley_metastates:
        level = ms.valley_level[m]
        max_strict = max(max_strict, len(decomps[level - 1].strict[m]))
    a = 1.0 - (max_strict + 2) * dmax
    b = 1.0 - (K - 1) * (dmax + (1.0 - delta))
    ff = falling_factorial(min(eta2, eta3), K)
    c = 0.0 if ff == 0.0 else ff * (1.0 - dmax) ** (K - 1) * math.exp(-2.0 * K * eps * beta)
    clip = lambda v: min(max(v, 0.0), 1.0)
    vac = (a <= 0 or math.isinf(dmax),
           b <= 0 or math.isinf(dmax),
           c <= 0 or dmax >= 1.0 or min(eta2, eta3) <= K - 1)
    return PdmbBounds((eta1, eta2, eta3), cap, dmax, (a, b, c),
                      (clip(a), clip(b), clip(c) if not vac[2] else 0.0), vac)
