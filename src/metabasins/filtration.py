"""Successive deletion of the least stable local minimum.

Starting from the full set of local minima, each step removes the minimum
whose cheapest activation energy to any other remaining minimum is smallest,
until a single state survives. Ties (possible because activation energies are
sums even though energies are distinct) delete the higher-energy minimum.

One single-source climb search per local minimum gives the k x k matrix of
activation energies between minima; the deletion loop then only reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .landscape import Landscape, LandscapeError
from .saddles import climb_costs


def local_minima(l: Landscape) -> frozenset[int]:
    """States with strictly lower energy than all neighbors."""
    return frozenset(
        s for s in range(l.n)
        if all(l.energy[s] < l.energy[r] for r in l.neighbors[s])
    )


@dataclass(frozen=True)
class Filtration:
    """Deletion order m^(1), ..., m^(nlevels); the last entry never gets deleted."""

    deletion_order: tuple[int, ...]
    deletion_costs: tuple[float, ...]

    @property
    def levels(self) -> int:
        return len(self.deletion_order)

    def M(self, i: int) -> frozenset[int]:
        """Metastable set at level i: the minima not yet deleted."""
        if not 1 <= i <= self.levels:
            raise ValueError(f"level {i} out of range 1..{self.levels}")
        return frozenset(self.deletion_order[i - 1:])

    @property
    def terminal(self) -> int:
        return self.deletion_order[-1]


def scoppola_filtration(l: Landscape) -> Filtration:
    minima = sorted(local_minima(l))
    if not minima:
        raise ValueError("landscape has no local minimum")
    # climb[a][b]: activation energy from minimum a to minimum b (list indices)
    climb = []
    for m in minima:
        row = climb_costs(l, m)
        climb.append([row[n] for n in minima])
    if any(math.isinf(c) for row in climb for c in row):
        raise LandscapeError("landscape not connected")
    energy = l.energy.tolist()
    current = set(range(len(minima)))

    def row_min(a):
        return min(((climb[a][b], b) for b in current if b != a), default=(math.inf, None))

    # each row's (cost, argmin) over the surviving minima; a row is rescanned
    # only when its argmin is deleted
    best = {a: row_min(a) for a in current}
    order: list[int] = []
    costs: list[float] = []
    while len(current) > 1:
        # tie break: prefer smaller cost, then higher energy
        a = min(current, key=lambda a: (best[a][0], -energy[minima[a]]))
        current.remove(a)
        order.append(minima[a])
        costs.append(best.pop(a)[0])
        for r in current:
            if best[r][1] == a:
                best[r] = row_min(r)
    order.append(minima[current.pop()])
    return Filtration(tuple(order), tuple(costs))
