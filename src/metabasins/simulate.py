"""Trajectory simulation, Monte-Carlo estimators, path-dependent metabasins.

``run_metropolis`` samples the lazy chain literally. The estimators instead
run the embedded jump chain (self-loops collapsed) and, where real time is
needed, add exact geometric holding times; this is distribution-exact for
hitting races, exit times and for the block structure below, while staying
feasible at large beta where the lazy chain would sit still for e^{50+} steps.

One class, ``JumpWalker``, walks both chains on step tables built once per
model from the kernel's flat row table (``TransitionModel.to`` and ``p``), by
whole-array passes over its padded rows, each replica on
its own buffered uniform stream, and one scalar loop steps on either table.
The loop iterates over the stream's listed chunk in place and checks each
uniform first against the state's hold interval, the uniforms that keep the
walk where it is: at large beta the lazy chain holds on most steps, and a
held step costs one comparison. Jump rows hold on none.
``run_metropolis`` is one lazy walk, and ``estimate_hitting`` takes its first
step by it. ``walk`` jumps until a labelling of the states has changed K
times and returns the states as an ndarray: ``run_until_sigma`` (the
metastate map), ``estimate_hitting`` (targets and competitors) and
``aac_return_frequency``, which holds the whole walk (about 1.3M states in
c12).

Driven by its uniforms, the jump chain is a finite-state machine, and a long
walk runs data-parallel along time (Mytkowicz, Musuvathi & Schulte, ASPLOS
2014). With G the sorted values of every embedded cumulative row, a uniform u
has the symbol #(G < u), and a step table M[symbol, state] gives exactly the
neighbour the scalar rule picks. A walk takes its first ``HEAD_STEPS`` steps
one at a time (the head), so short walks pay no numpy overhead; the rest of
it goes in windows of the stream's next values. Each window is cut into
blocks, every state is run through every block at once, the block ends are
chained from the true start, and one gather reads the path. That costs one
table read per state per step, so a model with more than ``FSM_MAX_STATES``
states stays on the scalar rule throughout. The path and the stream position
are those of repeated ``step`` calls, bit for bit.

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

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .aggregation import MetastateSpace, project_trajectory
from .chain import TransitionModel
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


# A window reads one table entry per state per step, so its cost grows with
# n while the scalar rule's does not. On gen_random_landscape(n, 4, 0.05, 1)
# at beta 3 (200,000-step walks) the window is 10-13% faster than the scalar
# loop at n = 40, 4-11% at 48, and 9-14% slower at 56; above FSM_MAX_STATES
# a walk stays scalar (CHANGES.md has the figures).
FSM_MAX_STATES = 40
# A window costs as much numpy call overhead as a few hundred scalar steps,
# so a walk goes scalar until it has run long enough to be likely to fill one
# (estimate_hitting's walks rarely do).
HEAD_STEPS = 1024       # scalar steps before a walk may switch to windows
BLOCK = 16              # steps per enumerated block
WINDOW_MIN, WINDOW_MAX = 1024, 8192
CELLS = 4096            # equal cells of [0, 1) that look up a uniform's symbol


class JumpWalker:
    """Lazy and embedded chain of one model, walked on a buffered uniform stream.

    ``JumpWalker(model)`` builds its tables from the kernel's flat row table
    (``model.indptr``, ``to``, ``p``), every row zero-padded to the longest,
    by one cumsum along the rows for each chain: per state r, the row's states
    and r's neighbours with their cumulative lazy and embedded probabilities
    (each row pinned to end in exactly 1.0, the embedded ones divided by
    ``model.exit`` first and the lazy ones then lowered by one ulp), p(r, r),
    and r's hold interval (lo, hi]: with k the index of r in its lazy row, hi
    is the row's lowered value at k and lo the one before it, or -1.0 when
    k = 0. A uniform u keeps the lazy walk at r exactly when lo < u <= hi;
    jump rows have the empty interval (-1.0, -1.0). No step reads a row past
    its pinned end, so the padding stays unread: a uniform is below 1.0. A
    state whose exit probability is 0 (no neighbours, or every exit
    underflowed) has an embedded row of -inf, which every scan runs off;
    ``walk``, ``step`` and ``holding`` raise ``NoExitError`` from it, while
    lazy steps stay there.

    ``stream(rng)`` returns a walker on the same tables with its own stream:
    an empty buffer refilled from ``rng`` in chunks of 64 values, growing
    fourfold up to 65536, so short replicas stay cheap. A chunk is drawn into
    one array behind the unread rest of the last one, and listed once, on its
    first scalar read; so a window reads the next values across chunk ends.
    That does not change them: ``rng`` draws one 64-bit value per uniform
    however it is asked. A step from r takes the next uniform u and goes to
    the first entry of r's row whose cumulative value reaches u: a jump to
    ``neighbors[r][bisect_left(cums[r], u)]``. On the lowered lazy rows that
    is the first state whose pinned cumulative value exceeds u, the literal
    rule of the lazy chain; the hold interval is where that rule picks r.

    With at most ``FSM_MAX_STATES`` states, the jump chain is also a table
    M[symbol, state], built on the first window and shared by every stream.
    G is the sorted set of every embedded cumulative value, u has the symbol
    #(G < u), and M[r, s] is the neighbour of s that the scalar rule picks
    for every u in (G[r-1], G[r]]. Column n is a sentinel state that every
    row without exit leads to and never leaves. A uniform in one of ``CELLS`` equal
    cells of [0, 1) that holds no value of G has the cell's symbol; the
    others are searched in G.
    """

    def __init__(self, model: TransitionModel):
        n = model.n
        states = np.arange(n)
        length = np.diff(model.indptr)
        row = np.repeat(states, length)
        col = np.arange(len(row)) - model.indptr[row]
        own = np.flatnonzero(model.to == row)   # r's own entry in the row table
        k = own - model.indptr[:-1]
        # every row padded to one width: the targets with the sentinel n, the
        # entries with zeros, so one cumsum along the rows is each row's own
        width = int(length.max())
        to = np.full((n, width), n)
        to[row, col] = model.to
        p = np.zeros((n, width))
        p[row, col] = model.p
        lazy = np.cumsum(p, axis=1)
        lazy[states, length - 1] = 1.0
        # one ulp lower: the first value that reaches u is the first pinned
        # one that exceeds u, so the jump loop's rule takes the lazy step.
        # The last value is then above every uniform, so no scan reads the
        # padding
        lazy = np.nextafter(lazy, -1.0)
        self._to, self._lazy = to.tolist(), lazy.tolist()
        # the uniforms u in (lo, hi] that keep a lazy walk at r: those for
        # which the scan picks r's own entry. Jump rows have none.
        lo = np.where(k > 0, lazy[states, k - 1], -1.0)
        self._held = list(zip(lo.tolist(), lazy[states, k].tolist()))
        self._never = [(-1.0, -1.0)] * n
        # the embedded rows: the padded rows without r's own column, each
        # cumulative row divided by its exit mass and pinned to end in 1.0,
        # then padded with +inf. A row without exit is all -inf, so a scan
        # runs off its end and bisect_left finds no neighbour in it
        moves = np.arange(width - 1) + (np.arange(width - 1) >= k[:, None])
        leaves = model.exit > 0
        cums = np.full((n, width - 1), -np.inf)
        np.divide(np.cumsum(p[states[:, None], moves], axis=1), model.exit[:, None],
                  out=cums, where=leaves[:, None])
        cums[leaves, length[leaves] - 2] = 1.0
        cums[leaves[:, None] & (np.arange(width - 1) >= length[:, None] - 1)] = np.inf
        self._neighbors = to[states[:, None], moves].tolist()
        self._cums = cums.tolist()
        self._exit = model.exit.tolist()
        self._stay = model.p[own].tolist()
        # the finite-state machine's step table, built on the first window;
        # a list, so that every stream shares it
        self._fsm: list[tuple] | None = [] if n <= FSM_MAX_STATES else None
        self._rng: np.random.Generator | None = None
        self._arr: np.ndarray | None = None   # the current chunk
        self._buf: list[float] | None = None  # the same, listed on first scalar read
        self._pos = self._end = 0
        self._chunk = 64

    def _step_table(self) -> tuple:
        """G; each cell's symbol and whether a value of G lies in it; M
        flattened row by row, and its row length n + 1."""
        if self._fsm:
            return self._fsm[0]
        n = len(self._cums)
        cums = np.array(self._cums)
        real = np.isfinite(cums)
        G = np.unique(np.append(cums[real], 1.0))
        in_cell = np.bincount((G * CELLS).astype(np.intp), minlength=CELLS + 1)[:CELLS]
        # rows padded with +inf, whose target is the sentinel n; so is every
        # entry of a row without exit
        table = np.full((n + 1, cums.shape[1] + 1), np.inf)
        targets = np.full(table.shape, n, dtype=np.intp)
        table[:n, :-1] = np.where(real, cums, np.inf)
        targets[:n, :-1] = np.where(real, self._neighbors, n)
        picks = np.zeros((len(G), n + 1), dtype=np.intp)
        picks[1:] = (table <= G[:-1, None, None]).sum(axis=2)
        M = targets[np.arange(n + 1), picks]
        self._fsm.append((G, np.cumsum(in_cell) - in_cell, in_cell > 0, M.ravel(), n + 1))
        return self._fsm[0]

    def stream(self, rng: np.random.Generator) -> JumpWalker:
        """A walker on these tables drawing from ``rng``, buffer empty."""
        walker = object.__new__(JumpWalker)   # copy.copy takes longer than a short replica
        vars(walker).update(vars(self), _rng=rng, _arr=None, _buf=None, _pos=0, _end=0, _chunk=64)
        return walker

    def _refill(self) -> None:
        """The unread rest of the current chunk, followed by a fresh chunk
        drawn in place, becomes the current chunk."""
        if self._rng is None:
            raise ValueError("the walker has no stream; call stream(rng) first")
        rest = self._end - self._pos
        arr = np.empty(rest + self._chunk)
        if rest:
            arr[:rest] = self._arr[self._pos:self._end]
        self._rng.random(out=arr[rest:])
        self._arr, self._buf, self._pos, self._end = arr, None, 0, len(arr)
        self._chunk = min(self._chunk * 4, 65536)

    def _listed(self) -> list[float]:
        """The current chunk as Python floats, converted once."""
        if self._buf is None:
            self._buf = self._arr.tolist()
        return self._buf

    def uniform(self) -> float:
        if self._pos >= self._end:
            self._refill()
        u = (self._buf or self._listed())[self._pos]
        self._pos += 1
        return u

    def lazy_walk(self, start: int, steps: int) -> list[int]:
        """``start`` and the states of ``steps`` lazy steps after it."""
        states = [start]
        # no label reaches steps + 1 changes, so the walk runs all its steps
        self._jumps(states, self._to, self._lazy, self._held, range(len(self._to)), steps + 1,
                    steps)
        return states

    def walk(self, start: int, label, K: int, max_steps: int = 50_000_000) -> np.ndarray:
        """States from ``start`` up to and including the K-th change of
        ``label[state]``; the walk reads the stream from its current position.

        A model with more than ``FSM_MAX_STATES`` states is walked by the
        scalar rule alone. A smaller one takes ``HEAD_STEPS`` scalar steps, so
        that short walks pay no numpy overhead, and goes on through
        ``_windows``."""
        if K < 0:
            raise ValueError("K must be nonnegative")
        states = [start]
        head = max_steps + 1 if self._fsm is None else min(HEAD_STEPS, max_steps + 1)
        changes = self._jumps(states, self._neighbors, self._cums, self._never, label, K, head)
        if len(states) > max_steps + 1:
            raise RuntimeError(f"walk budget of {max_steps} steps exhausted "
                               f"before the {K}-th label change")
        if changes == K:
            return np.array(states)
        return self._windows(states, label, K, changes, max_steps)

    def _jumps(self, states: list[int], neighbors, cums, hold, label, K: int, limit: int) -> int:
        """Steps on the row tables appended to ``states``, until the K-th label
        change or until ``limit`` steps; returns the number of changes.

        One loop over the unread values of the listed chunk, in place. A
        step from r first checks the next uniform u against r's hold
        interval ``hold[r]`` = (lo, hi]: inside it, the walk stays at r.
        Otherwise it goes to the first of ``neighbors[r]`` whose value in
        ``cums[r]`` reaches u. Every value read appends a state, so the
        stream moves on by the number appended, and by one more for the
        value that met an empty row (``NoExitError``)."""
        # the loop runs for ~e^{beta * gap} steps per valley exit; keep it flat
        append = states.append
        cur = states[-1]
        lo, hi = hold[cur]
        cur_label = label[cur]
        changes = 0
        end = len(states) + limit
        while changes < K and len(states) < end:
            if self._pos >= self._end:
                self._refill()
            pos, mark = self._pos, len(states)
            try:
                for u in islice(self._listed(), pos, min(self._end, pos + end - mark)):
                    if lo < u <= hi:
                        append(cur)
                        continue
                    row = cums[cur]
                    i = 0
                    while row[i] < u:   # bisect_left(row, u), cheaper on short rows
                        i += 1
                    cur = neighbors[cur][i]
                    append(cur)
                    lo, hi = hold[cur]
                    lab = label[cur]
                    if lab != cur_label:
                        cur_label = lab
                        changes += 1
                        if changes == K:
                            break
            except IndexError:
                # only a row without exit, all -inf, fails ``row[i]``; caught
                # here, around the loop, so that steps from other states pay
                # no check. The uniform that met it was read.
                self._pos = pos + len(states) - mark + 1
                if self._exit[cur]:
                    raise
                raise NoExitError(cur) from None
            self._pos = pos + len(states) - mark   # the stream goes on from here
        return changes

    def _take(self, k: int) -> np.ndarray:
        """The next ``k`` values of the stream, not yet consumed; the current
        chunk is refilled until it holds them."""
        while self._end - self._pos < k:
            self._refill()
        return self._arr[self._pos:self._pos + k]

    def _windows(self, head: list[int], label, K: int, changes: int, max_steps: int) -> np.ndarray:
        """The walk after its scalar ``head``, which saw ``changes`` label
        changes, one window of the next values of the stream at a time;
        windows grow from ``WINDOW_MIN`` to ``WINDOW_MAX`` steps. A window is
        cut at the K-th change, at a step from a state without jump targets
        (``NoExitError``) or at step ``max_steps + 1`` (``RuntimeError``),
        whichever comes first, and the stream goes on just after the cut."""
        n = self._step_table()[-1] - 1
        # any label will do for the sentinel: a walk stops before stepping to it
        labels = np.asarray(label)
        labels = np.append(labels, labels[0])
        cur = head[-1]
        cur_label = labels[cur]
        parts = [np.array(head)]
        need = K - changes
        budget = max_steps - (len(head) - 1)   # window index of step max_steps + 1
        width = WINDOW_MIN
        while True:
            path = self._enumerate(cur, self._take(width))
            labs = labels[path]
            changed = np.flatnonzero(labs != np.concatenate(([cur_label], labs[:-1])))
            done = int(changed[need - 1]) if len(changed) >= need else width
            trap = int(np.argmax(path == n)) if path[-1] == n else width
            cut = min(done, trap, budget)
            if cut < width:
                self._pos += cut + 1
                if cut == trap:
                    raise NoExitError(int(path[trap - 1]) if trap else cur)
                if cut == budget:
                    raise RuntimeError(f"walk budget of {max_steps} steps exhausted "
                                       f"before the {K}-th label change")
                parts.append(path[:cut + 1])
                return np.concatenate(parts)
            parts.append(path)
            self._pos += width
            need -= len(changed)
            budget -= width
            width = min(width * 4, WINDOW_MAX)
            cur = int(path[-1])
            cur_label = labs[-1]

    def _enumerate(self, cur: int, u: np.ndarray) -> np.ndarray:
        """States after each uniform of ``u``, from ``cur``.

        The window is cut into blocks of ``BLOCK`` steps, and every state
        (the sentinel included) is run through every block at once, one
        table read per step. Chaining the block ends from ``cur`` gives the
        state each block really starts from, and one gather reads the path."""
        G, cell_symbol, crowded, M, width = self._step_table()
        size = len(u)
        nb = -(-size // BLOCK)
        cell = (u * CELLS).astype(np.intp)   # exact: CELLS is a power of 2
        symbols = np.zeros(nb * BLOCK, dtype=np.intp)
        symbols[:size] = cell_symbol[cell]
        hard = np.flatnonzero(crowded[cell])
        symbols[hard] = np.searchsorted(G, u[hard])
        rows = (symbols * width).reshape(nb, BLOCK).T.copy()
        trace = np.empty((BLOCK, width, nb), dtype=np.intp)
        at = np.broadcast_to(np.arange(width)[:, None], (width, nb))
        for j in range(BLOCK):
            at = trace[j] = M[rows[j] + at]
        ends = trace[-1].tolist()
        starts = []
        s = cur
        for b in range(nb):
            starts.append(s)
            s = ends[s][b]
        return trace[:, starts, np.arange(nb)].T.ravel()[:size]

    def step(self, r: int) -> int:
        """One jump from r."""
        u = self.uniform()
        try:
            return self._neighbors[r][bisect_left(self._cums[r], u)]
        except IndexError:
            raise NoExitError(r) from None

    def holding(self, r: int) -> float:
        """Lazy steps spent at r before moving, a Geometric(1 - p(r,r)) draw."""
        if not self._exit[r]:
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
    return walker.walk(start, ms.rep_of.tolist(), K)


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
    if reps < 1:
        raise ValueError("reps must be positive")
    if K < 1:
        raise ValueError("K must be positive")
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
