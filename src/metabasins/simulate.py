"""Trajectory simulation, Monte-Carlo estimators, path-dependent metabasins.

``run_metropolis`` samples the lazy chain literally. The estimators instead
run the embedded jump chain (self-loops collapsed) and, where real time is
needed, add exact geometric holding times; this is distribution-exact for
hitting races, exit times and for the block structure below, while staying
feasible at large beta where the lazy chain would sit still for e^{50+} steps.

One class, ``JumpWalker``, walks both chains on step tables built once per
model from the kernel's row table (``TransitionModel.rows``), each replica on
its own buffered uniform stream. ``run_metropolis`` is one lazy walk, and
``estimate_hitting`` takes its first step by it. ``walk`` jumps until a
labelling of the states has changed K times: ``run_until_sigma`` (the
metastate map), ``estimate_hitting`` (targets and competitors) and
``aac_return_frequency``, which holds the whole walk (about 1.3M states in c12).

The path-dependent blocks of a trajectory cut it at the indices whose tail
never revisits an earlier state. ``path_dependent_mb`` finds them in numpy in
one running-max pass: index k > 0 is a cut exactly when the largest last
occurrence of the states before k is k - 1. A cut can never fall inside a run
of repeated states, so the blocks, as sets, are invariant under collapsing
self-loops; ``reference.path_dependent_mb_naive`` is the literal recursion the
tests check this against. The blocks are disjoint, so ``compare_mb`` reads
the block of a state from one state-to-block map. It projects each trajectory
once and hands its AAC on to ``pd_vs_pid_frequencies``.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .aggregation import MetastateSpace, project_trajectory
from .chain import TransitionModel, off_diagonal_row_sums
from .valleys import ValleyDecomposition


@dataclass(frozen=True, eq=False)
class Trajectory:
    states: np.ndarray
    beta: float
    seed: int
    start: int

    def __len__(self):
        return len(self.states)


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Independent stream per (seed, replica); serial and parallel runs agree."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))


def run_metropolis(model: TransitionModel, start: int, steps: int, seed: int) -> Trajectory:
    """Literal sampling from the kernel rows, lazy self-loops included."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    walker = JumpWalker(model).stream(np.random.default_rng(seed))
    return Trajectory(np.asarray(walker.lazy_walk(start, steps), dtype=int),
                      model.beta, seed, start)


class NoExitError(ValueError):
    """A jump or holding time was asked of a state whose exit probability is 0."""

    def __init__(self, state: int):
        super().__init__(f"state {state} cannot be left: its off-diagonal kernel mass "
                         "is 0, so the jump chain has no step from it")
        self.state = state


def _pinned(cums: np.ndarray) -> list[float]:
    """``cums`` as a list whose last value, if it has one, is exactly 1.0."""
    return cums[:-1].tolist() + [1.0] * bool(len(cums))


class JumpWalker:
    """Lazy and embedded chain of one model, walked on a buffered uniform stream.

    ``JumpWalker(model)`` builds its tables from ``model.rows``: per state r,
    the row's states and r's neighbours with their cumulative lazy and embedded
    probabilities (each list ends in exactly 1.0), and p(r, r). A state whose
    exit probability is 0 (no neighbours, or every exit underflowed) has an
    empty embedded row; ``walk``, ``step`` and ``holding`` raise
    ``NoExitError`` from it, while lazy steps stay there. ``stream(rng)``
    returns a walker on the same tables with its own stream: an empty buffer
    refilled from ``rng`` in chunks of 64 values, growing fourfold up to 65536,
    so short replicas stay cheap. A step from r takes the next uniform u: a lazy
    step goes to the first state of r's row whose cumulative value exceeds u, a
    jump to the first neighbour whose cumulative value reaches u.
    """

    def __init__(self, model: TransitionModel):
        self._to = [to.tolist() for to, _ in model.rows]
        self._lazy = [_pinned(np.cumsum(p)) for _, p in model.rows]
        self._neighbors = [[s for s in to if s != r] for r, to in enumerate(self._to)]
        self._cums, self._exit = [], []
        for r, (to, p) in enumerate(model.rows):
            exit_mass = float(off_diagonal_row_sums(model.P, [r])[0])
            self._exit.append(exit_mass)
            self._cums.append(_pinned(np.cumsum(p[to != r]) / exit_mass) if exit_mass > 0 else [])
        self._stay = np.diag(model.P).tolist()
        self._own = list(range(model.n))   # every state its own label
        self._rng: np.random.Generator | None = None
        self._buf: list[float] = []
        self._pos = 0
        self._chunk = 64

    def stream(self, rng: np.random.Generator) -> JumpWalker:
        """A walker on these tables drawing from ``rng``, buffer empty."""
        walker = copy.copy(self)
        walker._rng, walker._buf, walker._pos, walker._chunk = rng, [], 0, 64
        return walker

    def _refill(self) -> None:
        if self._rng is None:
            raise ValueError("the walker has no stream; call stream(rng) first")
        self._buf = self._rng.random(self._chunk).tolist()
        self._pos = 0
        self._chunk = min(self._chunk * 4, 65536)

    def uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def lazy_walk(self, start: int, steps: int) -> list[int]:
        """``start`` and the states of ``steps`` lazy steps after it."""
        states = [start]
        for _ in range(steps):
            r = states[-1]
            states.append(self._to[r][bisect_right(self._lazy[r], self.uniform())])
        return states

    def walk(self, start: int, label, K: int, max_steps: int = 50_000_000) -> list[int]:
        """States from ``start`` up to and including the K-th change of
        ``label[state]``; the walk reads the stream from its current position."""
        # the loop runs for ~e^{beta * gap} steps per valley exit; keep it flat
        neighbors = self._neighbors
        cums = self._cums
        buf = self._buf
        pos = self._pos
        nbuf = len(buf)
        states = [start]
        append = states.append
        cur = start
        cur_label = label[start]
        changes = 0
        steps = 0
        try:
            while changes < K:
                if pos >= nbuf:
                    self._refill()
                    buf = self._buf
                    nbuf = len(buf)
                    pos = 0
                u = buf[pos]
                pos += 1
                row = cums[cur]
                i = 0
                while row[i] < u:
                    i += 1
                cur = neighbors[cur][i]
                append(cur)
                lab = label[cur]
                if lab != cur_label:
                    changes += 1
                    cur_label = lab
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(f"walk budget of {max_steps} steps exhausted "
                                       f"before the {K}-th label change")
        except IndexError:
            # only an empty row fails ``row[i]``; caught here, outside the
            # loop, so that steps from other states pay no check
            if cums[cur]:
                raise
            raise NoExitError(cur) from None
        finally:
            self._pos = pos   # the stream goes on from here
        return states

    def step(self, r: int) -> int:
        """One jump: a walk until the state itself changes once."""
        return self.walk(r, self._own, 1)[-1]

    def holding(self, r: int) -> float:
        """Lazy steps spent at r before moving, a Geometric(1 - p(r,r)) draw."""
        if not self._cums[r]:
            raise NoExitError(r)
        p = self._stay[r]
        if p <= 0.0:
            return 1.0
        u = self.uniform()
        while u <= 0.0:
            u = self.uniform()
        if p < 1.0:
            return 1.0 + math.floor(math.log(u) / math.log(p))
        # the exit mass is below one ulp of 1, so p(r,r) rounded to 1.0
        steps = math.log(u) / math.log1p(-self._exit[r])
        if not math.isfinite(steps):
            raise ValueError(f"holding time at state {r} overflows a float: its exit "
                             f"probability is {self._exit[r]!r}")
        return 1.0 + math.floor(steps)


@dataclass(frozen=True)
class PathDependentMB:
    chi: tuple[int, ...]
    blocks: tuple[frozenset[int], ...]
    upsilon: int


def path_dependent_mb(states, T: int) -> PathDependentMB:
    """Blocks of the first T+1 entries of a trajectory of state indices.

    Index k > 0 is a cut exactly when no state occurs both before and at-or-
    after k, i.e. when the running maximum of last[x_j] over j < k, last[s]
    being the last occurrence of s up to T, equals k - 1. One ``maximum.at``
    and one ``maximum.accumulate`` pass find every cut. The final block is
    closed at T + 1; blocks hold Python ints.
    """
    x = np.asarray(states[: T + 1], dtype=int)
    if T < 0 or len(x) != T + 1:
        raise ValueError("trajectory shorter than the requested horizon")
    if x.min() < 0:
        raise ValueError("states must be nonnegative indices")
    steps = np.arange(T + 1)
    last = np.full(int(x.max()) + 1, -1)
    np.maximum.at(last, x, steps)
    cut = np.maximum.accumulate(last[x])[:-1] == steps[:-1]
    chi = [0, *(np.flatnonzero(cut) + 1).tolist()]
    # no state occurs on both sides of a cut, so every occurrence of a state
    # carries the number of its block
    block = np.zeros(len(last), dtype=int)
    block[x[1:]] = np.cumsum(cut)
    seen = np.flatnonzero(last >= 0)
    members = seen[np.argsort(block[seen], kind="stable")].tolist()
    ends = np.cumsum(np.bincount(block[seen], minlength=len(chi))).tolist()
    blocks = tuple(frozenset(members[a:b]) for a, b in zip([0, *ends], ends))
    return PathDependentMB(tuple(chi), blocks, len(chi) - 1)


def estimate_hitting(model: TransitionModel, x: int, targets, competitors,
                     reps: int, seed: int) -> tuple[float, float]:
    """Unbiased frequency estimate of P_x(tau_A < tau_B) with standard error."""
    if reps < 1:
        raise ValueError("reps must be positive")
    A = frozenset(targets)
    B = frozenset(competitors)
    stop = [s in A or s in B for s in range(model.n)]
    walker = JumpWalker(model)
    hits = 0
    for k in range(reps):
        w = walker.stream(replica_rng(seed, k))
        # one literal lazy first step honours the first-return convention
        cur = w.lazy_walk(x, 1)[-1]
        if not stop[cur]:
            cur = w.walk(cur, stop, 1)[-1]
        hits += cur in A
    p = hits / reps
    return p, math.sqrt(p * (1 - p) / reps)


def sample_exit_time(walker: JumpWalker, start: int, nonassigned: frozenset[int]) -> float:
    time = 0.0
    cur = start
    while cur not in nonassigned:
        time += walker.holding(cur)
        cur = walker.step(cur)
    return time


def estimate_exit_time(model: TransitionModel, d, m: int,
                       reps: int, seed: int) -> tuple[float, float]:
    """Mean lazy-time exit from the valley of m (first entry into the
    non-assigned set) with its standard error; ``d`` is anything exposing
    ``nonassigned``. The standard error needs ``reps >= 2``."""
    if reps < 2:
        raise ValueError("reps must be at least 2 for a standard error")
    nonassigned = frozenset(d.nonassigned)
    samples = np.empty(reps)
    walker = JumpWalker(model)
    for k in range(reps):
        samples[k] = sample_exit_time(walker.stream(replica_rng(seed, k)), m, nonassigned)
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(reps))


def run_until_sigma(walker: JumpWalker, ms: MetastateSpace, start: int, K: int) -> np.ndarray:
    """Jump-chain trajectory from ``start`` up to and including its K-th AC change."""
    return np.asarray(walker.walk(start, ms.rep_of.tolist(), K), dtype=int)


def strict_basins_for(ms: MetastateSpace, decomps: list[ValleyDecomposition]) -> dict[int, frozenset[int]]:
    """Strict basin of each metastate at its own level; singletons for non-assigned."""
    out: dict[int, frozenset[int]] = {}
    for m in ms.metastates:
        if m in ms.nonassigned:
            out[m] = frozenset([m])
        else:
            out[m] = decomps[ms.valley_level[m] - 1].strict[m]
    return out


@dataclass(frozen=True)
class MBComparison:
    inner_in_block: tuple[bool, ...]    # V_<(Y_k) inside the block of Y_k, k < K
    blocks_in_valleys_open: bool        # blocks of Y_j inside V(Y_j) for j < K-1
    blocks_in_valleys_full: bool        # same for j <= K-1
    straddling_blocks: int
    revisit_occurred: bool
    aac: tuple[int, ...]                # Y_0, Y_1, ... of the whole trajectory


def compare_mb(states, ms: MetastateSpace, K: int,
               strict_of: dict[int, frozenset[int]]) -> MBComparison:
    """Path-dependent blocks against valleys over the window T = sigma_K."""
    _, stop, y = project_trajectory(states, ms)
    if len(stop.sigma) < K + 1:
        raise ValueError(f"trajectory has only {len(stop.sigma) - 1} AC jumps, need {K}")
    T = stop.sigma[K]
    pd = path_dependent_mb(states, T)
    # the blocks are disjoint; a metastate never visited up to T has none
    block_of = {s: b for b in pd.blocks for s in b}
    blocks = [block_of.get(m, frozenset()) for m in y[:K]]
    inner = tuple(strict_of[m] <= b for m, b in zip(y, blocks))
    open_ok = all(b <= ms.valley_of[m] for m, b in zip(y, blocks[:-1]))
    full_ok = all(b <= ms.valley_of[m] for m, b in zip(y, blocks))
    valley_sets = [ms.valley_of[m] for m in ms.valley_metastates]
    straddle = sum(
        1 for b in pd.blocks
        if sum(1 for v in valley_sets if b & v) >= 2
    )
    revisit = len(set(y[: K + 1])) < len(y[: K + 1])
    return MBComparison(inner, open_ok, full_ok, straddle, revisit, y)


def pd_vs_pid_frequencies(model: TransitionModel, ms: MetastateSpace,
                          strict_of: dict[int, frozenset[int]], start: int,
                          K: int, reps: int, seed: int):
    """Replica frequencies of the three comparison events, plus MC side data.

    Returns (freq_a per k, freq_b, freq_c, y1_counts, first_valley_counts).
    """
    count_a = np.zeros(K)
    count_b = 0
    count_c = 0
    y1_counts: dict[int, int] = {}
    entry_counts: dict[int, int] = {}
    walker = JumpWalker(model)
    for k in range(reps):
        states = run_until_sigma(walker.stream(replica_rng(seed, k)), ms, start, K)
        cmp = compare_mb(states, ms, K, strict_of)
        count_a += np.asarray(cmp.inner_in_block, dtype=float)
        count_b += cmp.blocks_in_valleys_open
        count_c += cmp.blocks_in_valleys_full
        y = cmp.aac
        y1_counts[y[1]] = y1_counts.get(y[1], 0) + 1
        first_valley = next((m for m in y[1:] if m not in ms.nonassigned), None)
        if first_valley is not None:
            entry_counts[first_valley] = entry_counts.get(first_valley, 0) + 1
    return count_a / reps, count_b / reps, count_c / reps, y1_counts, entry_counts


def aac_return_frequency(model: TransitionModel, ms: MetastateSpace, start: int,
                         n_jumps: int, seed: int) -> float:
    """Frequency of immediate AAC returns Y_{k+2} = Y_k over the first
    ``n_jumps`` AAC jumps of one run, which is held in memory whole."""
    if n_jumps < 2:
        raise ValueError("n_jumps must be at least 2 to see a return")
    walker = JumpWalker(model).stream(np.random.default_rng(seed))
    _, _, y = project_trajectory(run_until_sigma(walker, ms, start, n_jumps), ms)
    returns = sum(1 for k in range(len(y) - 2) if y[k + 2] == y[k])
    return returns / (len(y) - 2)
