"""Metropolis transition model and exact hitting/exit solvers.

The kernel is the lazy Metropolis chain

    p(r,s) = exp(-beta (E(s)-E(r))^+) / C(r)   for s ~ r,
    p(r,r) = 1 - sum of the above,

with C(r) = |N(r)| + 1 so that p(r,r) > 0 on every graph. ``P`` holds it
dense for the exact solvers below. The same entries are kept as one flat row
table: row r is ``to[indptr[r]:indptr[r + 1]]``, the states r can move to (r
included, ascending), with their entries in ``p``; ``row(r)`` returns the two
views. ``exit`` holds each row's off-diagonal sum, 1 - p(r,r) without
cancellation. The row table feeds ``simulate.JumpWalker``, ``check_moves``
and ``aggregate``'s transition_matrix.csv. ``build_metropolis`` fills all of
it by whole-array passes; each move's entry is ``math.exp`` of its exponent,
not ``np.exp``, whose SIMD kernels can differ from libm in the last bit. At
large beta the entry of a move can underflow to 0.0, and the kernel's graph
is then no longer the landscape's; ``check_moves`` names the first such move
(the CLI runs it after each build). Hitting quantities use the first-return convention
tau_A = inf{n >= 1 : X_n in A}; when the start state lies in A or B one
explicit first step is taken before reading the absorption values.

Linear systems are assembled in one place, ``_absorbing_solve``, with
diagonals built as sums of positive off-diagonal mass, never as 1 - p(r,r).
At large beta the latter is swallowed by rounding; the former is what keeps
exit times with barriers like e^{70} solvable in double precision. It has a
limit too: a row's exit mass is added to its in-valley mass (the mass sent to
the other transient states), so an exit mass below one ulp of the in-valley
mass is lost from the diagonal and the solved laws no longer sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .landscape import Landscape


@dataclass(frozen=True)
class HittingQuery:
    start: int
    target: frozenset[int]
    competitor: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "target", frozenset(self.target))
        object.__setattr__(self, "competitor", frozenset(self.competitor))
        if not self.target:
            raise ValueError("target set is empty")
        if self.target & self.competitor:
            raise ValueError("target and competitor sets overlap")


@dataclass(frozen=True, eq=False)
class TransitionModel:
    landscape: Landscape
    beta: float
    degree_plus: np.ndarray          # C(r) = |N(r)| + 1
    P: np.ndarray                    # row-stochastic kernel
    gamma_beta: float
    pi: np.ndarray                   # stationary distribution
    indptr: np.ndarray               # row r of the table is indptr[r]:indptr[r + 1]
    to: np.ndarray                   # the states each r moves to, r included, ascending
    p: np.ndarray                    # p(r, .) on them
    exit: np.ndarray                 # 1 - p(r,r), as the off-diagonal row sum

    @property
    def n(self) -> int:
        return self.landscape.n

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The states r moves to, r included and ascending, and p(r, .) on them."""
        a, b = self.indptr[r], self.indptr[r + 1]
        return self.to[a:b], self.p[a:b]


def gamma_beta(l: Landscape, beta: float) -> float:
    """|S| * max_r ln C(r) / sqrt(beta + 1), the slack constant of the kernel bounds."""
    cmax = max(len(nb) + 1 for nb in l.neighbors)
    return l.n * math.log(cmax) / math.sqrt(beta + 1.0)


def build_metropolis(l: Landscape, beta: float) -> TransitionModel:
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = l.n
    energy = l.energy
    degree = np.fromiter(map(len, l.neighbors), dtype=np.intp, count=n)
    C = degree + 1.0
    states = np.arange(n)
    src = np.repeat(states, degree)
    dst = np.fromiter(chain.from_iterable(l.neighbors), dtype=np.intp, count=len(src))
    exponent = -beta * np.maximum(energy[dst] - energy[src], 0.0)
    P = np.zeros((n, n))
    P[src, dst] = np.fromiter(map(math.exp, exponent.tolist()), dtype=float,
                              count=len(src)) / C[src]
    exit_mass = P.sum(axis=1)   # before the diagonal is set, so the off-diagonal sum
    P[states, states] = 1.0 - exit_mass
    # the row table: moves and diagonal entries, by r and then by the state moved to
    src, dst = np.concatenate([src, states]), np.concatenate([dst, states])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.concatenate([[0], np.cumsum(degree + 1)])
    # pi(r) proportional to C(r) exp(-beta E(r)); shift by the minimum for stability
    w = C * np.exp(-beta * (energy - energy.min()))
    pi = w / w.sum()
    return TransitionModel(l, float(beta), C, P, gamma_beta(l, beta), pi,
                           indptr, dst, P[src, dst], exit_mass)


class LostMoveError(ValueError):
    """A move between neighbours has kernel entry exactly 0.0: its
    exp(-beta (E(s)-E(r))^+) / C(r) fell below the least subnormal float."""

    def __init__(self, r, s, beta: float):
        super().__init__(f"at beta {beta:g} the kernel entry p({r}, {s}) underflows to 0.0, "
                         f"so the chain loses the move {r} -> {s}; use a smaller beta")
        self.move, self.beta = (r, s), beta


def check_moves(model: TransitionModel) -> None:
    """Raise ``LostMoveError`` for the first neighbour pair (r, s), by r and
    then s, whose kernel entry is exactly 0.0; the pair is named by labels.
    p(r, r) >= 1/C(r) up to rounding, so only a move can be 0.0."""
    if (model.p > 0.0).all():
        return
    k = np.flatnonzero(model.p == 0.0)[0]   # the row table runs by r, then by s
    r = int(np.searchsorted(model.indptr, k, side="right")) - 1
    labels = model.landscape.labels
    raise LostMoveError(labels[r], labels[model.to[k]], model.beta)


def off_diagonal_row_sums(P: np.ndarray, rows) -> np.ndarray:
    """1 - p(r,r) for each listed row, computed without cancellation."""
    rows = np.asarray(rows, dtype=int)
    block = P[rows].copy()
    block[np.arange(len(rows)), rows] = 0.0
    return block.sum(axis=1)


def _absorbing_solve(P: np.ndarray, transient, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Q) x = rhs, Q the block of P on the ``transient`` states.

    The diagonal of I - Q is the off-diagonal row mass, so it carries no
    1 - p(r,r) cancellation.
    """
    A = -P[np.ix_(transient, transient)]
    np.fill_diagonal(A, off_diagonal_row_sums(P, transient))
    return np.linalg.solve(A, rhs)


def absorption_probabilities(P: np.ndarray, targets, others) -> np.ndarray:
    """P(hit ``targets`` before ``others``) from every state, both sets absorbing.

    Entries for states inside the sets are their indicator values.
    """
    targets = frozenset(targets)
    absorbing = targets | frozenset(others)
    transient = [s for s in range(P.shape[0]) if s not in absorbing]
    h = np.zeros(P.shape[0])
    for t in targets:
        h[t] = 1.0
    if transient:
        b = P[np.ix_(transient, sorted(targets))].sum(axis=1)
        h[transient] = _absorbing_solve(P, transient, b)
    return h


def expected_absorption_times(P: np.ndarray, absorbing) -> np.ndarray:
    """E(steps until the absorbing set) from every state (0 inside the set)."""
    absorbing = frozenset(absorbing)
    transient = [s for s in range(P.shape[0]) if s not in absorbing]
    t = np.zeros(P.shape[0])
    if transient:
        t[transient] = _absorbing_solve(P, transient, np.ones(len(transient)))
    return t


def hitting_probability(model: TransitionModel, query: HittingQuery) -> float:
    """Exact P_start(tau_A < tau_B) honoring the n >= 1 convention."""
    P = model.P
    h = absorption_probabilities(P, query.target, query.competitor)
    x = query.start
    if x in query.target or x in query.competitor:
        # one explicit first step, then read the absorption values
        return float(P[x] @ h)
    return float(h[x])


def expected_hitting_time(model: TransitionModel, start: int, targets) -> float:
    """Exact E_start(tau_A), again with the n >= 1 convention."""
    targets = frozenset(targets)
    t = expected_absorption_times(model.P, targets)
    if start in targets:
        return float(1.0 + model.P[start] @ t)
    return float(t[start])


def occupation_distribution(model: TransitionModel, mu0, n: int) -> np.ndarray:
    if n < 0:
        raise ValueError("n must be nonnegative")
    mu = np.asarray(mu0, dtype=float).copy()
    for _ in range(n):
        mu = mu @ model.P
    return mu


def restricted_transition_matrix(model: TransitionModel, states) -> tuple[np.ndarray, list[int]]:
    """Kernel of the chain restricted to a subgraph.

    Off-diagonal entries are copied from the full chain; the removed mass is
    folded into the diagonal, so the restriction is again row stochastic.
    """
    states = sorted(states)
    sub = model.P[np.ix_(states, states)].copy()
    np.fill_diagonal(sub, 0.0)
    np.fill_diagonal(sub, 1.0 - sub.sum(axis=1))
    return sub, states


def restricted_hitting_probability(model: TransitionModel, states, start: int,
                                   target: int, competitor: int) -> float:
    """P(tau_target < tau_competitor) for the chain restricted to ``states``."""
    sub, order = restricted_transition_matrix(model, states)
    idx = {s: k for k, s in enumerate(order)}
    h = absorption_probabilities(sub, {idx[target]}, {idx[competitor]})
    x = idx[start]
    if start in (target, competitor):
        return float(sub[x] @ h)
    return float(h[x])


def kernel_sandwich_holds(model: TransitionModel) -> bool:
    """Do all neighbor pairs satisfy the two-sided kernel bounds?

    The lower bound needs beta / sqrt(beta+1) >= 1, i.e. beta at least the
    golden ratio; below that the stated slack is too small for the
    largest-degree state.
    """
    l = model.landscape
    g = model.gamma_beta / l.n
    beta = model.beta
    for r in range(l.n):
        for s in l.neighbors[r]:
            de = max(l.energy[s] - l.energy[r], 0.0)
            lo = math.exp(-beta * (de + g))
            hi = math.exp(-beta * (de - g))
            if not (lo <= model.P[r, s] <= hi):
                return False
    return True
