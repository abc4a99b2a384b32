"""Successive deletion of the least stable local minimum.

Starting from the full set of local minima, each step removes the minimum
whose cheapest activation energy to any other remaining minimum is smallest,
until a single state survives. Ties (possible because activation energies are
sums even though energies are distinct) delete the higher-energy minimum,
and then the smaller state (equal energies are reachable only through the API).

Each surviving minimum keeps the result of one climb search stopped at its
nearest other survivor; the search runs again only when that survivor is
deleted. A stopped search never sees the whole graph, so connectivity of the
minima is checked once beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .landscape import Landscape, LandscapeError, reachable
from .saddles import climb


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
    if not reachable(l, minima[0], range(l.n)).issuperset(minima):
        raise LandscapeError("landscape not connected")
    energy = l.energy.tolist()
    alive = set(minima)
    # each survivor's (cost, state) of its nearest other survivor; searched
    # again only when that survivor is deleted
    nearest = {a: climb(l.neighbors, energy, a, alive - {a}) for a in minima}
    order: list[int] = []
    costs: list[float] = []
    while len(alive) > 1:
        # tie break: prefer smaller cost, then higher energy, then smaller state
        a = min(alive, key=lambda a: (nearest[a][0], -energy[a], a))
        alive.remove(a)
        order.append(a)
        costs.append(nearest.pop(a)[0])
        for r in alive:
            if nearest[r][1] == a:
                nearest[r] = climb(l.neighbors, energy, r, alive - {r})
    order.append(alive.pop())
    return Filtration(tuple(order), tuple(costs))
