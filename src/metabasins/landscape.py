"""Finite energy landscapes: a connected graph with pairwise distinct state energies.

States are dense integers 0..n-1 internally; files may use arbitrary integer
labels (kept in ``Landscape.labels``). Optional coordinates feed the Euclidean
distances used by the scattering curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class LandscapeError(ValueError):
    """Invalid landscape data (parse error, degeneracy, broken adjacency)."""


@dataclass(frozen=True, eq=False)
class Landscape:
    energy: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]
    coords: np.ndarray | None = None
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "energy", np.asarray(self.energy, dtype=float))
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(self.n)))

    @property
    def n(self) -> int:
        return len(self.energy)

    def edges(self):
        """Each undirected edge once, as (a, b) with a < b."""
        for a, nbrs in enumerate(self.neighbors):
            for b in nbrs:
                if a < b:
                    yield a, b

    def index_of_label(self, label: int) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LandscapeError(f"no state with label {label}") from None


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    symmetric: bool
    nondegenerate: bool
    min_energy_gap: float

    @property
    def ok(self) -> bool:
        return self.connected and self.symmetric and self.nondegenerate


def _from_adjacency(energy, adjacency, coords, labels) -> Landscape:
    nbrs = tuple(tuple(sorted(set(a))) for a in adjacency)
    return Landscape(np.asarray(energy, float), nbrs, coords, tuple(labels))


def reachable(l: Landscape, start: int, allowed) -> set[int]:
    """States reachable from ``start`` (always included) through states in ``allowed``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in l.neighbors[v]:
            if u not in seen and u in allowed:
                seen.add(u)
                stack.append(u)
    return seen


def min_energy_gap(l: Landscape) -> float:
    """Smallest difference between two state energies (+inf if fewer than two states)."""
    return float(np.diff(np.sort(l.energy)).min()) if l.n > 1 else math.inf


def validate(l: Landscape) -> ValidationReport:
    """Report connectivity, adjacency symmetry and energy non-degeneracy.

    Never raises; loaders raise, this reports. Symmetric failures still
    explore whatever is reachable from state 0.
    """
    n = l.n
    symmetric = True
    for a in range(n):
        for b in l.neighbors[a]:
            if a == b or a not in l.neighbors[b]:
                symmetric = False
    connected = n == 0 or len(reachable(l, 0, range(n))) == n
    gap = min_energy_gap(l)
    return ValidationReport(connected, symmetric, gap > 0, gap)


def _state_id(value, what: str) -> int:
    """A state id read from a file: an integer, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise LandscapeError(f"{what} must be an integer state id, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """A finite number read from a file (bools and strings are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LandscapeError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise LandscapeError(f"{what} is not finite: {value!r}")
    return x


def load_landscape(path) -> Landscape:
    """Load a landscape from JSON; fails rather than silently repairing.

    Schema: ``{"states": [{"id": int, "energy": float, "coord": [...]?,
    "neighbors": [...]?}], "edges": [[a, b], ...]}``. Either every state
    carries a symmetric "neighbors" list, or "edges" lists each undirected
    edge exactly once, not both. Every malformed file raises ``LandscapeError``.
    Energies are read as binary floats, not as exact decimals: energy
    differences that tie in decimal, such as 0.3 - 0.1 and 0.2, need not tie
    in binary, so a tie rule on costs or saddles applies only to binary ties.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:       # not JSON, or not UTF-8
            raise LandscapeError(f"parse error: {exc}") from exc
    states = data.get("states") if isinstance(data, dict) else None
    if not isinstance(states, list) or not states:
        raise LandscapeError('"states" must be a nonempty list')
    if not all(isinstance(s, dict) and "id" in s and "energy" in s for s in states):
        raise LandscapeError('every state must be an object with "id" and "energy"')
    ids = [_state_id(s["id"], "state id") for s in states]
    energies = [_finite(s["energy"], f"energy of state {i}") for s, i in zip(states, ids)]
    if len(set(ids)) != len(ids):
        raise LandscapeError("duplicate state id")
    if len(set(energies)) != len(energies):
        raise LandscapeError("degenerate energies")
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    labels = tuple(ids[i] for i in order)
    index = {lab: k for k, lab in enumerate(labels)}
    energy = [energies[i] for i in order]
    coords = None
    if any("coord" in s for s in states):
        if not all("coord" in s for s in states):
            raise LandscapeError("coordinates given for only some states")
        rows = [states[i]["coord"] for i in order]
        if not all(isinstance(c, list) for c in rows) or len({len(c) for c in rows}) != 1:
            raise LandscapeError("coordinates must be lists of one common length")
        coords = np.array([[_finite(x, f"coordinate of state {lab}") for x in c]
                           for lab, c in zip(labels, rows)], dtype=float)

    adjacency = [set() for _ in ids]
    if any("neighbors" in s for s in states):
        if "edges" in data:
            raise LandscapeError('give per-state "neighbors" or top-level "edges", not both')
        for s, lab_s in zip(states, ids):
            nbrs = s.get("neighbors", [])
            if not isinstance(nbrs, list):
                raise LandscapeError(f"neighbors of state {lab_s} must be a list")
            for lab in nbrs:
                if _state_id(lab, "neighbor id") not in index:
                    raise LandscapeError(f"unknown state id {lab} in neighbor list")
                adjacency[index[lab_s]].add(index[lab])
        for a in range(len(ids)):
            for b in adjacency[a]:
                if a == b:
                    raise LandscapeError("self edge")
                if a not in adjacency[b]:
                    raise LandscapeError(
                        f"asymmetric adjacency: ({labels[b]},{labels[a]}) missing"
                    )
    else:
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise LandscapeError('"edges" must be a list')
        seen_pairs = set()
        for pair in edges:
            if not isinstance(pair, list) or len(pair) != 2:
                raise LandscapeError(f"edge must be a pair of state ids: {pair!r}")
            a, b = (_state_id(v, "edge endpoint") for v in pair)
            if a == b:
                raise LandscapeError("self edge")
            if a not in index or b not in index:
                raise LandscapeError(f"edge references unknown state: {pair}")
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                raise LandscapeError(f"duplicate edge {pair}")
            seen_pairs.add(key)
            adjacency[index[a]].add(index[b])
            adjacency[index[b]].add(index[a])

    l = _from_adjacency(energy, adjacency, coords, labels)
    if not validate(l).connected:
        raise LandscapeError("landscape graph is not connected")
    return l


def save_landscape(l: Landscape, path) -> None:
    data = {
        "states": [
            {"id": l.labels[s], "energy": float(l.energy[s])}
            | ({"coord": list(map(float, l.coords[s]))} if l.coords is not None else {})
            for s in range(l.n)
        ],
        "edges": [[l.labels[a], l.labels[b]] for a, b in l.edges()],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


# Fixture landscapes. L6 is a six-state path. L14/L14X reconstruct a
# fourteen-state chain with minima at the even labels; the L14 energies are a
# reconstruction (only a figure exists upstream) chosen so that the deletion
# order is (8,12,6,2,10,14) with terminal minimum 4 and the per-level
# non-assigned sets come out as {3,5,7,9,11,13}, {3,5,7,11,13}, {3,5,7,11},
# {3,7,11}, {7,11}, {11}, {}. L14X adds transitions between selected saddles
# so that each surviving valley at the aggregation level 5 has at least two
# unimodal escape routes.
_L6_ENERGY = [1.0, 5.0, 2.0, 6.0, 0.0, 4.0]
_L14_ENERGY = [6.5, 2.0, 6.0, 0.0, 6.9, 3.0, 9.0, 6.05, 6.4, 2.7, 11.0, 4.0, 6.2, 2.5]
_L14X_EXTRA_EDGES = [(3, 7), (5, 7), (5, 9), (7, 11), (7, 13)]  # 1-based labels


def _path_adjacency(n):
    adj = [set() for _ in range(n)]
    for a in range(n - 1):
        adj[a].add(a + 1)
        adj[a + 1].add(a)
    return adj


def canonical(name: str) -> Landscape:
    """Built-in test landscapes: ``L6``, ``L14``, ``L14X``."""
    if name == "L6":
        coords = np.arange(6, dtype=float)[:, None]
        return _from_adjacency(_L6_ENERGY, _path_adjacency(6), coords, range(6))
    if name in ("L14", "L14X"):
        adj = _path_adjacency(14)
        if name == "L14X":
            for a, b in _L14X_EXTRA_EDGES:
                adj[a - 1].add(b - 1)
                adj[b - 1].add(a - 1)
        coords = np.arange(1, 15, dtype=float)[:, None]
        return _from_adjacency(_L14_ENERGY, adj, coords, range(1, 15))
    raise LandscapeError(f"unknown canonical landscape {name!r}")


def gen_random_landscape(n: int, max_degree: int, min_gap: float, seed: int) -> Landscape:
    """Connected random landscape with energies separated by at least min_gap.

    Deterministic in ``seed``. Built as a random tree (degree-capped) plus a
    few extra edges; energies are spaced cumulative draws assigned in random
    order.
    """
    if n < 2:
        raise LandscapeError("need at least two states")
    if min_gap <= 0:
        raise LandscapeError("min_gap must be positive")
    if max_degree < 2 and n > 2:
        raise LandscapeError("max_degree < 2 cannot connect more than 2 states")
    rng = np.random.default_rng(seed)
    adjacency = [set() for _ in range(n)]

    def deg(v):
        return len(adjacency[v])

    for v in range(1, n):
        candidates = [u for u in range(v) if deg(u) < max_degree]
        if not candidates:
            raise LandscapeError("degree budget exhausted while building tree")
        u = int(rng.choice(candidates))
        adjacency[u].add(v)
        adjacency[v].add(u)
    extra = int(rng.integers(0, n // 2 + 1))
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and v not in adjacency[u] and deg(u) < max_degree and deg(v) < max_degree:
            adjacency[u].add(v)
            adjacency[v].add(u)

    steps = min_gap * (1.0 + rng.random(n - 1))
    levels = np.concatenate([[0.0], np.cumsum(steps)])
    energy = levels[rng.permutation(n)]
    coords = rng.random((n, 2))
    return _from_adjacency(energy, adjacency, coords, range(n))
