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

from .chain import TransitionModel, _absorbing_solve
from .filtration import Filtration
from .landscape import Landscape, reachable
from .saddles import SaddleTable, rising_reach
from .valleys import ValleyDecomposition, outer_boundary


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
    """Metastates at the decomposition's level, with resolved valleys and gates.

    ``f`` is unread; it stays because ``perfbench/workloads.py`` calls
    ``metastate_space(d, f)``.
    """
    i = d.level
    valley_of = d.assigned_valleys()
    valley_of.update((s, frozenset((s,))) for s in d.nonassigned)
    valley_level = {m: d.pending[m][0] if m in d.pending else i for m in valley_of}
    gates = {**d.exit_gate, **{m: g for m, (_, _, g) in d.pending.items()}}
    gate_of = {m: g for m, g in gates.items() if g is not None}
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
    non-assigned states, so the restriction is nilpotent). ``ValueError`` names
    equal-energy non-assigned neighbours (hand-built only) that trap the chain.
    """
    na = np.isin(jc.metastates, list(ms.nonassigned))
    nlist = np.array(jc.metastates)[na].tolist()
    if not nlist:
        raise ValueError("no non-assigned states at this level; nothing to traverse")
    try:
        absorb = _absorbing_solve(jc.phat[na], np.flatnonzero(na), jc.phat[np.ix_(na, ~na)])
    except np.linalg.LinAlgError:
        A = jc.phat[np.ix_(na, na)]
        tied = np.argwhere(np.triu((A > 0) & (A.T > 0))).tolist()
        raise ValueError("the jump-chain limit is trapped among non-assigned neighbours "
                         f"of equal energy: {[(nlist[a], nlist[b]) for a, b in tied]}") from None
    mlist = ms.valley_metastates
    return mlist, absorb[[nlist.index(ms.gate_of[m]) for m in mlist]]


def exact_jump_distribution(model: TransitionModel, ms: MetastateSpace, r: int) -> dict[int, float]:
    """Finite-beta law of the next AAC state from metastate r (start at r itself)."""
    out: dict[int, float] = {}
    if r in ms.nonassigned:
        mass = model.exit[r]
        p_r = model.dense_rows([r])[0]
        for t in model.landscape.neighbors[r]:
            m = int(ms.rep_of[t])
            out[m] = out.get(m, 0.0) + p_r[t] / mass
        return out
    members = sorted(ms.valley_of[r])
    outside = [s for s in range(model.n) if s not in ms.valley_of[r]]
    R = model.dense_rows(members)
    X = _absorbing_solve(R, members, R.take(outside, axis=1))
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
    nlist = sorted(ms.nonassigned)
    mlist = list(ms.valley_metastates)
    # exit distribution over non-assigned states (every boundary is non-assigned)
    exit_dist = exact_jump_distribution(model, ms, m)
    if not ms.nonassigned.issuperset(exit_dist):
        raise ValueError(f"valley {m} borders another valley; boundaries must be non-assigned")
    # absorption of the walk on the non-assigned set into the valleys
    R = model.dense_rows(nlist)
    B = np.zeros((len(nlist), len(mlist)))
    for a in range(len(nlist)):
        for b, target in enumerate(mlist):
            B[a, b] = R[a, sorted(ms.valley_of[target])].sum()
    H = _absorbing_solve(R, nlist, B)
    out = {mp: 0.0 for mp in mlist}
    for nstate, w in exit_dist.items():
        for b, mp in enumerate(mlist):
            out[mp] += w * float(H[nlist.index(nstate), b])
    return _normalized(out, f"valley transition law of {m}")


@dataclass(frozen=True, eq=False)
class ExponentMatrix:
    level: int
    metastables: tuple[int, ...]
    D: np.ndarray              # k x k, row and column in the order of metastables
    udh: np.ndarray
    boundary_exp: dict[tuple[int, int], float]
    limits: np.ndarray         # ``valley_transition_limits``
    reachable: np.ndarray


def _checked_reaches(reach, m: int, gate, nonassigned, valley_of):
    """Down(m) and Up(gate): the strictly rising reaches of m and of its gate.

    On a valley decomposition the gate is non-assigned, Down(m) lies in V(m)
    and the non-assigned set, and Up(gate) in the non-assigned set. A search
    confined to those states refuses the first state outside them on every
    rising path, so it reaches the same set as ``reach`` exactly when these
    checks pass. Each failure raises ``ValueError`` naming the valleys met.
    """
    if gate not in nonassigned:
        raise ValueError(f"valley {m} has no non-assigned exit gate (gate {gate}); "
                         "its exponents are undefined at this level")
    down, up = reach(m), reach(gate)
    for outside, what in ((down - valley_of[m] - nonassigned, f"the falling set of {m} meets"),
                          (up - nonassigned, f"the gate of {m} rises into")):
        if outside:
            met = sorted(t for t, v in valley_of.items() if not v.isdisjoint(outside))
            raise ValueError(f"{what} the valleys of {met}; "
                             "the metastate space is not a valley decomposition")
    return down, up


def escape_exponents(l: Landscape, ms: MetastateSpace, table: SaddleTable):
    """The valley metastates and k x k arrays D and udh of one level.

    D(m, m') = E(z*(m, m')) - E(g) for the gate g of m (-inf on the diagonal);
    udh(m, m') flags a path from g strictly rising to z = z*(g, m') and then
    strictly falling into V(m') outside the other valleys. Cost O(k n): one
    ``rising_reach`` per bottom m' gives, read backwards, Down(m') (the states
    falling strictly to m'), one per gate gives Up(g), g included; once
    ``_checked_reaches`` has found them where a valley decomposition keeps
    them, udh(m, m') iff z is in both. ``aggregate`` and the tests read one
    level here; ``find_metabasins`` keeps the same rows across levels.
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
    # non-assigned (checked), so on a valley decomposition Up(g) stays in the
    # non-assigned set; a reach that leaves it means ``ms`` is not one. By the
    # lemma a strictly falling path never steps from a valley to a
    # non-assigned state, so Down(m') meets another valley only where two
    # valleys border each other. That they never do is not proved here, so
    # Down(m') is checked too.
    mlist = ms.valley_metastates
    gates = [ms.gate_of.get(m) for m in mlist]
    energy = l.energy.tolist()

    def reach(s):
        return rising_reach(l.neighbors, energy, s)

    reaches = [_checked_reaches(reach, m, gate, ms.nonassigned, ms.valley_of)
               for m, gate in zip(mlist, gates)]   # (Down(m), Up(gate)) per row
    # column m' of z*, read at the bottoms and then at the gates
    cols = np.array([table.column(m)[[*mlist, *gates]] for m in mlist], dtype=int).T
    D = l.energy[cols[:len(mlist)]] - l.energy[gates][:, None]
    z = cols[len(mlist):].tolist()
    udh = np.array([[s in up and s in reaches[b][0] for b, s in enumerate(row)]
                    for (_, up), row in zip(reaches, z)], dtype=bool).reshape(D.shape)
    np.fill_diagonal(D, -np.inf)
    np.fill_diagonal(udh, False)
    return mlist, D, udh


def boundary_exponents(l: Landscape, ms: MetastateSpace) -> dict[tuple[int, int], float]:
    """E(s) - E(gate of m) for each valley m and each state s on its outer boundary."""
    return {(m, s): float(l.energy[s] - l.energy[ms.gate_of[m]])
            for m in ms.valley_metastates for s in outer_boundary(l, ms.valley_of[m])}


def transition_exponents(l: Landscape, ms: MetastateSpace, table: SaddleTable) -> ExponentMatrix:
    """Decay exponents of inter-valley transitions and boundary exits.

    D and udh are ``escape_exponents``': D is the exact rate where udh holds
    and a lower bound on the decay otherwise. A pair with a positive limit
    (``limits``, one jump chain and one solve) decays not at all; one not
    ``reachable`` through non-assigned states has probability zero.
    """
    mlist, D, udh = escape_exponents(l, ms, table)
    _, limits = valley_transition_limits(ms, asymptotic_jump_chain(l, ms))
    reaches = np.zeros_like(udh)
    for a, m in enumerate(mlist):
        # valleys touching the non-assigned component of the gate
        touched = [u for v in reachable(l, ms.gate_of[m], ms.nonassigned)
                   for u in l.neighbors[v] if u not in ms.nonassigned]
        reaches[a] = np.isin(mlist, ms.rep_of[touched])
    return ExponentMatrix(ms.level, mlist, D, udh, boundary_exponents(l, ms), limits, reaches)


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

    def inside_exponent(a1, a2):
        if exps.limits[a1, a2] > 0:
            return 0.0, True
        if a1 == a2:
            return math.inf, True        # returns are impossible in the limit
        if exps.udh[a1, a2]:
            return exps.D[a1, a2], True
        if exps.reachable[a1, a2]:
            return exps.D[a1, a2], False
        return math.inf, True

    positions = range(len(mlist))
    for size in range(1, len(mlist)):
        for A in itertools.combinations(positions, size):
            outside = [b for b in positions if b not in A]
            flagged = False
            ok = True
            for a1 in A:
                found = False
                for a2 in A:
                    exp_in, exact = inside_exponent(a1, a2)
                    if math.isinf(exp_in):
                        continue
                    # an unreachable target has probability zero: an infinite gap
                    gaps = [exps.D[a1, b] - exp_in for b in outside if exps.reachable[a1, b]]
                    if all(g >= eps for g in gaps):
                        found = True
                        flagged = flagged or not exact
                        break
                if not found:
                    ok = False
                    break
            if ok:
                return RecipWitness(frozenset(mlist[a] for a in A), flagged)
    return None


@dataclass(frozen=True, eq=False)
class MBReport:
    order: float
    level: int | None
    partition: dict[int, frozenset[int]] | None
    mb1_margin: dict[int, float]
    mb2_witnesses: dict[int, tuple[int, ...]]
    scan: tuple[tuple[int, bool, bool], ...]   # (level, mb1 ok, mb2 ok)


def _scan(l: Landscape, f: Filtration, decomps: list[ValleyDecomposition],
          table: SaddleTable):
    """(level, margins, witnesses) of each level the metabasin scan reads.

    The MB1 margin of a valley metastate m is the row max of
    ``escape_exponents``' D and its MB2 witnesses are the targets m' with
    udh(m, m'), in order. Both depend only on m's gate and on the valley
    metastates, which only shrink from level to level in ``decompose_all``'s
    decompositions. So a row is recomputed only when its gate changed or the
    column holding its max left; otherwise the columns that left are dropped
    from its witnesses. Rounding is monotone, so fl(max a - c) = max fl(a - c)
    and a margin is bit-identical to D's row max.

    A rising reach depends on its start state alone: one search per local
    minimum and per distinct gate serves every level. The checks of
    ``_checked_reaches`` run where a level can break them: on every row at
    level 1, on a row whose gate changed, and on a row whose Down or Up set
    holds a state taken out of the non-assigned set.
    """
    energy = l.energy.tolist()
    reaches: dict[int, set[int]] = {}
    holders: dict[int, list[int]] = {}   # state -> the searched starts whose reach holds it

    def reach(s):
        if s not in reaches:
            reaches[s] = rising_reach(l.neighbors, energy, s)
            for x in reaches[s]:
                holders.setdefault(x, []).append(s)
        return reaches[s]

    rows = {}   # valley metastate -> (gate, margin, column of the max, witnesses)
    nonassigned = frozenset()
    for i in range(1, f.levels - 1):
        d = decomps[i - 1]
        valley_of = d.assigned_valleys()
        gates = {**d.exit_gate, **{m: g for m, (_, _, g) in d.pending.items()}}
        mlist = sorted(valley_of)
        left = rows.keys() - valley_of
        taken, nonassigned = nonassigned - d.nonassigned, d.nonassigned
        touched = {x for s in taken for x in holders.get(s, ())}
        targets = np.array(mlist)
        for m in mlist:
            gate, row = gates[m], rows.get(m)
            fresh = row is None or row[0] != gate
            if fresh or m in touched or gate in touched:
                _checked_reaches(reach, m, gate, nonassigned, valley_of)
            if fresh or row[2] in left:
                others = targets[targets != m]
                e = l.energy[table.column(m)[others]]
                j = int(e.argmax())
                up, z = reach(gate), table.column(gate)[others].tolist()
                rows[m] = (gate, float(e[j] - energy[gate]), int(others[j]),
                           tuple(t for t, s in zip(others.tolist(), z)
                                 if s in up and s in reach(t)))
            elif not left.isdisjoint(row[3]):
                rows[m] = row[:3] + (tuple(t for t in row[3] if t not in left),)
        for m in left:
            del rows[m]
        yield i, {m: rows[m][1] for m in mlist}, {m: rows[m][3] for m in mlist}


def find_metabasins(l: Landscape, eps: float, f: Filtration,
                    decomps: list[ValleyDecomposition], table: SaddleTable) -> MBReport:
    """Smallest aggregation level whose valleys are metabasins of order eps.

    A level qualifies when every valley metastate m has all its saddles to
    other valley metastates within eps above its gate energy (MB1) and at
    least two unimodal escape targets (MB2). Levels above nlevels - 2 are
    never considered. Returns level None if no level qualifies. The levels
    come from ``_scan``, which keeps each valley's margin and witnesses
    across levels; no level builds a jump-chain limit, which tied energies
    can void, and only the qualifying level builds its metastate space, for
    the partition.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    scan = []
    for i, margins, witnesses in _scan(l, f, decomps, table):
        mb1 = all(v <= eps for v in margins.values())
        mb2 = all(len(w) >= 2 for w in witnesses.values())
        scan.append((i, mb1, mb2))
        if mb1 and mb2:
            partition = dict(metastate_space(decomps[i - 1], f).valley_of)
            return MBReport(eps, i, partition, margins, witnesses, tuple(scan))
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
        success = float(model.exit[y])
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
    R = model.dense_rows(members)
    r_z = R[:, z]
    h = _absorbing_solve(R, members, r_z)      # P_s(exit exactly at z)
    u = _absorbing_solve(R, members, h)        # E_s(sojourn; exit at z)
    entries = [s for s in l.neighbors[x] if s in ms.valley_of[y]]
    p_x = model.dense_rows([x])[0]
    weights = np.array([p_x[s] * h[pos[s]] for s in entries])
    if weights.sum() <= 0:
        raise ValueError(f"exit state {z} unreachable from valley {y} entered via {x}")
    weights = weights / weights.sum()
    mean = float(sum(w * u[pos[s]] / h[pos[s]] for w, s in zip(weights, entries)))
    Q = R.take(members, axis=1)

    def pmf(t: int) -> float:
        if t < 1:
            return 0.0
        vec = r_z.copy()
        for _ in range(t - 1):
            vec = Q @ vec
        return float(sum(w * vec[pos[s]] / h[pos[s]] for w, s in zip(weights, entries)))

    return HoldingTimeLaw("mixture", mean, pmf)
