"""Metastate space, aggregated chains, jump-chain limits and metabasin search.

At level i the metastates are the minima whose valleys have not merged into a
larger one by level i (current and pending) together with the non-assigned
states, each of the latter standing for itself. The aggregated chain (AC)
records the metastate of the walk at every step, the accelerated aggregated
chain (AAC) only at its change points. As beta grows the AAC converges to an
explicit Markov jump chain: a valley is left through its least-energy outer
boundary state, and a non-assigned state hands over according to the limiting
kernel restricted to downhill moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import TransitionModel, _absorbing_solve, off_diagonal_row_sums
from .filtration import Filtration, scoppola_filtration
from .landscape import Landscape, reachable
from .saddles import SaddleTable, rising_reach, saddle_table
from .valleys import (
    ValleyDecomposition,
    decompose_all,
    outer_boundary,
)


@dataclass(frozen=True, eq=False)
class MetastateSpace:
    level: int
    metastates: tuple[int, ...]
    nonassigned: frozenset[int]
    valley_of: dict[int, frozenset[int]]
    gate_of: dict[int, int]
    valley_level: dict[int, int]
    rep_of: np.ndarray

    @property
    def valley_metastates(self) -> tuple[int, ...]:
        return tuple(m for m in self.metastates if m not in self.nonassigned)


def metastate_space(d: ValleyDecomposition, f: Filtration) -> MetastateSpace:
    """Metastates at the decomposition's level, with resolved valleys and gates."""
    i = d.level
    valley_of: dict[int, frozenset[int]] = {}
    gate_of: dict[int, int] = {}
    valley_level: dict[int, int] = {}
    for m, members in d.valley.items():
        valley_of[m] = members
        valley_level[m] = i
        if d.exit_gate[m] is not None:
            gate_of[m] = d.exit_gate[m]
    for m, (own_level, members, gate) in d.pending.items():
        valley_of[m] = members
        valley_level[m] = own_level
        if gate is not None:
            gate_of[m] = gate
    for s in d.nonassigned:
        valley_of[s] = frozenset([s])
        valley_level[s] = i
    metastates = tuple(sorted(valley_of))
    n = max(max(v) for v in valley_of.values()) + 1
    rep = np.full(n, -1, dtype=int)
    for m, members in valley_of.items():
        for s in members:
            rep[s] = m
    if (rep < 0).any():
        raise ValueError("metastate valleys do not partition the states")
    return MetastateSpace(i, metastates, d.nonassigned, valley_of, gate_of,
                          valley_level, rep)


@dataclass(frozen=True)
class StoppingTimes:
    xi: tuple[int, ...]
    zeta: tuple[int, ...]
    sigma: tuple[int, ...]


def project_trajectory(states, ms: MetastateSpace):
    """AC sequence, stopping times and AAC sequence of a trajectory.

    ``states`` is the raw walk X_0, X_1, ...; the AC applies the metastate map
    pointwise, sigma collects its change points (sigma_0 = 0) and the AAC is
    the AC read at sigma. Entrance times xi mark the first step inside a
    valley after an excursion through non-assigned states, exit times zeta the
    first step back in the non-assigned set; both use the first-hit convention
    n >= 1, i.e. they are the change points of the non-assigned indicator
    with X_0 counted as non-assigned whatever it is.
    """
    x = np.asarray(states, dtype=int)
    ybar = ms.rep_of[x]
    sigma = np.concatenate(([0], np.flatnonzero(ybar[1:] != ybar[:-1]) + 1))
    y = tuple(ybar[sigma].tolist())
    outside = np.zeros(len(ms.rep_of), dtype=bool)
    outside[list(ms.nonassigned)] = True
    in_n = outside[x]
    in_n[0] = True
    flips = np.flatnonzero(in_n[1:] != in_n[:-1]) + 1
    entering = ~in_n[flips]
    stop = StoppingTimes(tuple(flips[entering].tolist()), tuple(flips[~entering].tolist()),
                         tuple(sigma.tolist()))
    return ybar, stop, y


@dataclass(frozen=True, eq=False)
class JumpChainLimit:
    metastates: tuple[int, ...]
    phat: np.ndarray

    def index(self, m: int) -> int:
        return self.metastates.index(m)


def asymptotic_jump_chain(l: Landscape, ms: MetastateSpace) -> JumpChainLimit:
    """The beta -> infinity Markov limit of the AAC."""
    idx = {m: k for k, m in enumerate(ms.metastates)}
    k = len(ms.metastates)
    phat = np.zeros((k, k))
    for m in ms.metastates:
        if m not in ms.nonassigned:
            if m not in ms.gate_of:
                raise ValueError(
                    f"metastate {m} has no exit gate (top-level valley); "
                    "the jump chain is undefined at this level"
                )
            phat[idx[m], idx[ms.gate_of[m]]] = 1.0
        else:
            C = len(l.neighbors[m]) + 1
            row = np.zeros(k)
            for t in l.neighbors[m]:
                if l.energy[m] >= l.energy[t]:
                    row[idx[int(ms.rep_of[t])]] += 1.0 / C
            total = row.sum()  # equals 1 - p*(m,m)
            if total <= 0:
                raise ValueError(f"non-assigned state {m} has no downhill move")
            phat[idx[m]] = row / total
    return JumpChainLimit(ms.metastates, phat)


def valley_transition_limits(ms: MetastateSpace, jc: JumpChainLimit):
    """Limiting first-valley-entry matrix: row m, column m' over valley metastates.

    The series over decreasing non-assigned chains equals the absorption
    probabilities of the limit jump chain restricted to the non-assigned
    states with every valley absorbing (the chain moves strictly downhill on
    non-assigned states, so the restriction is nilpotent).
    """
    mlist = list(ms.valley_metastates)
    nlist = [m for m in ms.metastates if m in ms.nonassigned]
    iN = [jc.index(s) for s in nlist]
    iM = [jc.index(m) for m in mlist]
    if not nlist:
        raise ValueError("no non-assigned states at this level; nothing to traverse")
    A = jc.phat[np.ix_(iN, iN)]
    B = jc.phat[np.ix_(iN, iM)]
    absorb = np.linalg.solve(np.eye(len(nlist)) - A, B)
    limits = np.zeros((len(mlist), len(mlist)))
    for a, m in enumerate(mlist):
        gate = ms.gate_of[m]
        limits[a] = absorb[nlist.index(gate)]
    return tuple(mlist), limits


def exact_jump_distribution(model: TransitionModel, ms: MetastateSpace, r: int) -> dict[int, float]:
    """Finite-beta law of the next AAC state from metastate r (start at r itself)."""
    P = model.P
    out: dict[int, float] = {}
    if r in ms.nonassigned:
        mass = off_diagonal_row_sums(P, [r])[0]
        for t in model.landscape.neighbors[r]:
            m = int(ms.rep_of[t])
            out[m] = out.get(m, 0.0) + P[r, t] / mass
        return out
    members = sorted(ms.valley_of[r])
    outside = [s for s in range(model.n) if s not in ms.valley_of[r]]
    X = _absorbing_solve(P, members, P[np.ix_(members, outside)])
    row = X[members.index(r)]
    for t, p in zip(outside, row):
        if p > 0:
            m = int(ms.rep_of[t])
            out[m] = out.get(m, 0.0) + float(p)
    # the law sums to one exactly; renormalizing removes the common solver drift
    return _normalized(out, f"jump law of metastate {r}")


def _normalized(law: dict[int, float], what: str) -> dict[int, float]:
    """``law`` divided by its total, which must be finite and positive."""
    total = sum(law.values())
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"{what} has total mass {total}; the absorbing solve "
                         "lost the exit mass at this beta")
    return {m: p / total for m, p in law.items()}


def exact_valley_transition(model: TransitionModel, ms: MetastateSpace, m: int) -> dict[int, float]:
    """Finite-beta law of the first valley entered after leaving V(m), from its bottom."""
    if m in ms.nonassigned:
        raise ValueError("m must be a valley metastate")
    P = model.P
    nlist = sorted(ms.nonassigned)
    mlist = list(ms.valley_metastates)
    # exit distribution over non-assigned states (every boundary is non-assigned)
    exit_dist = exact_jump_distribution(model, ms, m)
    if not ms.nonassigned.issuperset(exit_dist):
        raise ValueError(f"valley {m} borders another valley; boundaries must be non-assigned")
    # absorption of the walk on the non-assigned set into the valleys
    B = np.zeros((len(nlist), len(mlist)))
    for a, nstate in enumerate(nlist):
        for b, target in enumerate(mlist):
            B[a, b] = P[nstate, sorted(ms.valley_of[target])].sum()
    H = _absorbing_solve(P, nlist, B)
    out = {mp: 0.0 for mp in mlist}
    for nstate, w in exit_dist.items():
        for b, mp in enumerate(mlist):
            out[mp] += w * float(H[nlist.index(nstate), b])
    return _normalized(out, f"valley transition law of {m}")


@dataclass(frozen=True, eq=False)
class ExponentMatrix:
    level: int
    metastables: tuple[int, ...]
    D: dict[tuple[int, int], float]
    udh: dict[tuple[int, int], bool]
    boundary_exp: dict[tuple[int, int], float]
    limit_positive: dict[tuple[int, int], bool]
    reachable: dict[tuple[int, int], bool]


def transition_exponents(l: Landscape, ms: MetastateSpace,
                         table: SaddleTable | None = None) -> ExponentMatrix:
    """Decay exponents of inter-valley transitions and boundary exits.

    D(m, m') = E(z*(m, m')) - E(s_m) is the exact rate when a unimodal
    escape path from the gate into V(m') exists that avoids every other
    valley (udh flag), and a lower bound on the decay otherwise. Entries with
    a positive jump-chain limit decay not at all; entries unreachable through
    non-assigned states are identically zero at every beta.

    The udh flags cost O(k n) per level, not a pair of monotone searches for
    each of the k^2 pairs: one strictly rising search per target m' gives,
    read backwards, the states Down(m') that fall strictly to m' outside the
    other valleys, and one per gate g over the non-assigned states gives
    Up(g), g included. With z = z*(g, m'), udh(m, m') holds iff z lies in
    both: a rising leg from g never enters a valley (see below), so it never
    needs states of V(m').
    """
    # Lemma: at every level a non-assigned state v lies strictly above each
    # neighbour u in a valley. If u is a local minimum this is its definition.
    # Otherwise u was attracted to some t in M_j at a level j <= i, where v was
    # non-assigned too (valleys only grow). Suppose E(v) <= E(u); write L(s)
    # and T(s) for the least saddle energy from s to M_j and its minimizers,
    # S for t's strict basin and G(e) for {E <= e} minus S. As v steps onto
    # u, L(v) <= L(u) and T(v) is within T(u); v lies outside S, and so does
    # u unless T(u) = {t}, in which case T(v) = {t} and v is attracted to t.
    # - L(u) > E(u): then L(v) = L(u), T(v) = T(u), and u and v are neighbours
    #   in G(L(u)), so they reach the same minimizers there: v wins t's ties.
    # - L(u) = E(u): u's component of G(E(u)) holds no metastable state (t is
    #   in S, u beat every other minimizer there, and the rest of M_j lies
    #   above L(u) from u) and contains v's component of G(L(v)). So a path
    #   from v to any x in T(v) below L(v) meets S at some s, where
    #   E(z*(s, t)) < E(z*(s, x)) <= L(v): t is in T(v), and v wins.
    # Either way v was attracted at level j, a contradiction. The gate is
    # non-assigned (``valley_transition_limits`` rejects any other), so on a
    # valley decomposition its search below refuses nothing; a refusal means
    # ``ms`` is not one, and the rule above would not hold.
    if table is None:
        table = saddle_table(l)
    jc = asymptotic_jump_chain(l, ms)
    mlist, limits = valley_transition_limits(ms, jc)
    D: dict[tuple[int, int], float] = {}
    udh: dict[tuple[int, int], bool] = {}
    limit_positive: dict[tuple[int, int], bool] = {}
    reaches: dict[tuple[int, int], bool] = {}
    energy = l.energy.tolist()
    # the valley metastate owning each state, -1 for a non-assigned state
    vrep = [-1 if s in ms.nonassigned else r for s, r in enumerate(ms.rep_of.tolist())]
    down = {mp: rising_reach(l.neighbors, energy, mp, vrep, (-1, mp))[0] for mp in mlist}
    cols = list(mlist)
    for a, m in enumerate(mlist):
        gate = ms.gate_of[m]
        # valleys touching the non-assigned component of the gate
        reach = {int(ms.rep_of[u]) for v in reachable(l, gate, ms.nonassigned)
                 for u in l.neighbors[v] if u not in ms.nonassigned}
        up, entered = rising_reach(l.neighbors, energy, gate, vrep, (-1,))
        if entered:
            raise ValueError(f"the gate of {m} rises into the valleys of {sorted(entered)}; "
                             "the metastate space is not a valley decomposition")
        positive = (limits[a] > 0).tolist()
        rise = (table.energy[m, cols] - l.energy[gate]).tolist()
        saddle = table.state[gate, cols].tolist()
        for b, mp in enumerate(mlist):
            limit_positive[(m, mp)] = positive[b]
            reaches[(m, mp)] = mp in reach
            if mp == m:
                continue
            D[(m, mp)] = rise[b]
            udh[(m, mp)] = saddle[b] in down[mp] and saddle[b] in up
    boundary_exp = {
        (m, s): float(l.energy[s] - l.energy[ms.gate_of[m]])
        for m in mlist for s in outer_boundary(l, ms.valley_of[m])
    }
    return ExponentMatrix(ms.level, tuple(mlist), D, udh, boundary_exp,
                          limit_positive, reaches)


@dataclass(frozen=True)
class RecipWitness:
    states: frozenset[int]
    flagged: bool        # True when a one-sided inside exponent had to be used


def reciprocating_order_test(exps: ExponentMatrix, eps: float) -> RecipWitness | None:
    """Search for a subset of valleys that exponentially prefers itself.

    A witness A is a nonempty proper subset of the valley metastates such that
    every member has a partner in A whose transition exponent beats every
    target outside A by at least eps. Inside exponents are exact when the
    limit is positive (exponent 0) or a unimodal escape path exists (exponent
    D); outside targets use D, which only underestimates the gap. If no exact
    inside exponent exists the subset is only accepted with a flag.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    mlist = exps.metastables
    if len(mlist) > 20:
        raise ValueError("too many metastable states for subset enumeration")

    def inside_exponent(m1, m2):
        if exps.limit_positive[(m1, m2)]:
            return 0.0, True
        if m1 == m2:
            return math.inf, True        # returns are impossible in the limit
        if exps.udh[(m1, m2)]:
            return exps.D[(m1, m2)], True
        if exps.reachable[(m1, m2)]:
            return exps.D[(m1, m2)], False
        return math.inf, True

    for size in range(1, len(mlist)):
        for A in itertools.combinations(mlist, size):
            Aset = frozenset(A)
            outside = [m for m in mlist if m not in Aset]
            flagged = False
            ok = True
            for m1 in A:
                found = False
                for m2 in A:
                    exp_in, exact = inside_exponent(m1, m2)
                    if math.isinf(exp_in):
                        continue
                    gaps = []
                    for m in outside:
                        if not exps.reachable[(m1, m)]:
                            continue  # identically zero probability: infinite gap
                        gaps.append(exps.D[(m1, m)] - exp_in)
                    if all(g >= eps for g in gaps):
                        found = True
                        flagged = flagged or not exact
                        break
                if not found:
                    ok = False
                    break
            if ok:
                return RecipWitness(Aset, flagged)
    return None


@dataclass(frozen=True, eq=False)
class MBReport:
    order: float
    level: int | None
    partition: dict[int, frozenset[int]] | None
    mb1_margin: dict[int, float]
    mb2_witnesses: dict[int, tuple[int, ...]]
    scan: tuple[tuple[int, bool, bool], ...]   # (level, mb1 ok, mb2 ok)


def find_metabasins(l: Landscape, eps: float,
                    f: Filtration | None = None,
                    decomps: list[ValleyDecomposition] | None = None,
                    table: SaddleTable | None = None) -> MBReport:
    """Smallest aggregation level whose valleys are metabasins of order eps.

    A level qualifies when every valley metastate m has all its saddles to
    other valley metastates within eps above its gate energy (MB1) and at
    least two unimodal escape targets (MB2). Levels above nlevels - 2 are
    never considered. Returns level None if no level qualifies.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if table is None:
        table = saddle_table(l)
    if f is None:
        f = scoppola_filtration(l)
    if decomps is None:
        decomps = decompose_all(l, f, table)
    scan = []
    for i in range(1, f.levels - 1):
        ms = metastate_space(decomps[i - 1], f)
        exps = transition_exponents(l, ms, table)
        margins: dict[int, float] = {}
        witnesses: dict[int, tuple[int, ...]] = {}
        for m in exps.metastables:
            others = [mp for mp in exps.metastables if mp != m]
            margins[m] = max((exps.D[(m, mp)] for mp in others), default=-math.inf)
            witnesses[m] = tuple(mp for mp in others if exps.udh[(m, mp)])
        mb1 = all(v <= eps for v in margins.values())
        mb2 = all(len(w) >= 2 for w in witnesses.values())
        scan.append((i, mb1, mb2))
        if mb1 and mb2:
            return MBReport(eps, i, dict(ms.valley_of), margins, witnesses, tuple(scan))
    return MBReport(eps, None, None, {}, {}, tuple(scan))


@dataclass(frozen=True, eq=False)
class HoldingTimeLaw:
    kind: str
    mean: float
    pmf: Callable[[int], float]
    success: float | None = None


def semi_markov_kernel(model: TransitionModel, ms: MetastateSpace,
                       x: int, y: int, z: int) -> HoldingTimeLaw:
    """Conditional law of the AC sojourn in y given the neighbors (x, y, z).

    For a non-assigned y the sojourn is geometric with success 1 - p(y,y),
    whatever x and z. For a valley y the law is a mixture over the entry
    states next to x of the exit time conditioned on leaving to z, the mixture
    weighted by the posterior of the entry state given that exit.
    """
    l = model.landscape
    for s in (x, y, z):
        if s not in ms.metastates:
            raise ValueError(f"{s} is not a metastate at level {ms.level}")

    def enters(frm: int, to: int) -> bool:
        if to in ms.nonassigned:
            targets = {to}
        else:
            targets = set(ms.valley_of[to])
        sources = {frm} if frm in ms.nonassigned else set(ms.valley_of[frm])
        return any(t in targets for s in sources for t in l.neighbors[s])

    if not enters(x, y) or not enters(y, z):
        raise ValueError(f"triple ({x},{y},{z}) is not feasible")

    if y in ms.nonassigned:
        success = float(off_diagonal_row_sums(model.P, [y])[0])
        q = 1.0 - success

        def pmf(t: int, q=q, success=success) -> float:
            return success * q ** (t - 1) if t >= 1 else 0.0

        return HoldingTimeLaw("geometric", 1.0 / success, pmf, success)

    # valley-to-valley adjacency cannot happen; boundaries are non-assigned
    if x not in ms.nonassigned:
        raise ValueError("a valley can only be entered from a non-assigned state")
    if z not in ms.nonassigned:
        raise ValueError("exit target of a valley must be non-assigned")
    members = sorted(ms.valley_of[y])
    pos = {s: k for k, s in enumerate(members)}
    P = model.P
    r_z = P[members, z]
    h = _absorbing_solve(P, members, r_z)      # P_s(exit exactly at z)
    u = _absorbing_solve(P, members, h)        # E_s(sojourn; exit at z)
    entries = [s for s in l.neighbors[x] if s in ms.valley_of[y]]
    weights = np.array([P[x, s] * h[pos[s]] for s in entries])
    if weights.sum() <= 0:
        raise ValueError(f"exit state {z} unreachable from valley {y} entered via {x}")
    weights = weights / weights.sum()
    mean = float(sum(w * u[pos[s]] / h[pos[s]] for w, s in zip(weights, entries)))
    Q = P[np.ix_(members, members)]

    def pmf(t: int) -> float:
        if t < 1:
            return 0.0
        vec = r_z.copy()
        for _ in range(t - 1):
            vec = Q @ vec
        return float(sum(w * vec[pos[s]] / h[pos[s]] for w, s in zip(weights, entries)))

    return HoldingTimeLaw("mixture", mean, pmf)
