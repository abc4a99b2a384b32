"""Inputs, operations and output checks of the three benchmark workloads.

A workload run processes a batch of inputs. Every input goes through the
workload's operations in a fixed order; each operation is one user-visible
call (a ``metabasins`` CLI command, or one pd-vs-pid replica batch) whose
outputs are checked after it returns.

- ``rand``: ``gen_random_landscape(48, 4, 0.05, s)`` restricted to seeds s
  with exactly 16 local minima, so every input has the same stated size.
- ``grid``: a 14x14 four-neighbour lattice with a quadratic bowl and eight
  Gaussian wells on a jittered 3x3 layout, restricted to 9 local minima.
- ``mc``: the pd-vs-pid comparison of acceptance criterion c11 on L14X, in
  replica batches, plus the CLI commands on L14X itself.

The rand and grid inputs come from a recorded pool (``pool.json``, written by
``record.py``) that also holds the digests of every byte-stable output file,
so each run checks its outputs against the values of the recording commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from metabasins import aggregation, analysis, chain, cli, simulate
from metabasins.filtration import local_minima
from metabasins.landscape import Landscape, canonical, gen_random_landscape, save_landscape
from metabasins.verifydata import FixtureBundle

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

RAND_N, RAND_MINIMA = 48, 16
GRID_SIDE, GRID_MINIMA = 14, 9
POOL_SIZE = {"rand": 64, "grid": 48}
BATCH = {"rand": 16, "grid": 10}

# c11's comparison: beta 10, K = 3 AC changes, MB order 2.5, start label 4
MC_BETA, MC_K, MC_EPS, MC_START_LABEL = 10.0, 3, 2.5, 4
MC_REPS = 30

# Each command with the files it writes that are byte-stable for a given input.
COMMANDS = {
    "analyze": (["analyze"], ("filtration.json", "valleys.json", "tree.dot", "saddles.csv")),
    "mb": (["mb", "--eps", "0.5"], ("mb.json",)),
    "aggregate": (["aggregate", "--beta", "5"],
                  ("phat.json", "transition_matrix.csv", "exponents.json")),
    "simulate": (["simulate", "--beta", "5", "--steps", "20000", "--seed", "7"],
                 ("trajectory.csv", "stats.json")),
}
CLI_OPS = {"rand": ("analyze", "mb", "aggregate", "simulate"),
           "grid": ("analyze", "mb", "aggregate", "simulate"),
           "mc": ("analyze", "mb", "aggregate")}
# The end-to-end metric each operation's wall time feeds.
METRIC_OF = {"analyze": "analyze_s", "mb": "mb_s", "aggregate": "aggregate_s",
             "simulate": "mc_s", "pd_vs_pid": "mc_s"}


def grid_landscape(side: int, seed: int) -> Landscape:
    """Lattice energy: bowl x^2 + y^2 on [-1, 1]^2 minus eight seeded wells.

    A rank jitter of 1e-7 per rank keeps the energies pairwise distinct.
    """
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    x = i.ravel() / (side - 1) * 2.0 - 1.0
    y = j.ravel() / (side - 1) * 2.0 - 1.0
    energy = x * x + y * y
    for cx in (-0.6, 0.0, 0.6):
        for cy in (-0.6, 0.0, 0.6):
            if cx == 0.0 and cy == 0.0:
                continue
            jx, jy = rng.uniform(-0.1, 0.1, 2)
            depth = rng.uniform(1.0, 2.0)
            energy = energy - depth * np.exp(-((x - cx - jx) ** 2 + (y - cy - jy) ** 2)
                                              / (2 * 0.15 ** 2))
    energy = energy + 1e-7 * rng.permutation(side * side)
    neighbors = []
    for a in range(side):
        for b in range(side):
            nb = [(a + da) * side + (b + db)
                  for da, db in ((-1, 0), (0, -1), (0, 1), (1, 0))
                  if 0 <= a + da < side and 0 <= b + db < side]
            neighbors.append(tuple(nb))
    coords = np.stack([i.ravel(), j.ravel()], axis=1).astype(float)
    return Landscape(energy, tuple(neighbors), coords)


def make_landscape(workload: str, gen_seed: int) -> Landscape:
    if workload == "rand":
        return gen_random_landscape(RAND_N, 4, 0.05, gen_seed)
    if workload == "grid":
        return grid_landscape(GRID_SIDE, gen_seed)
    raise ValueError(f"workload {workload!r} has no generated landscapes")


def pool_seeds(workload: str) -> list[int]:
    """Generator seeds 0, 1, 2, ... whose landscape has the stated minima count."""
    want = {"rand": RAND_MINIMA, "grid": GRID_MINIMA}[workload]
    out, s = [], 0
    while len(out) < POOL_SIZE[workload]:
        if len(local_minima(make_landscape(workload, s))) == want:
            out.append(s)
        s += 1
    return out


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def select_inputs(workload: str, seed: int, pool: dict) -> list[dict]:
    """The run's batch: BATCH[workload] distinct pool entries drawn by ``seed``."""
    entries = pool[workload]["inputs"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(entries), size=BATCH[workload], replace=False)
    return [entries[int(k)] for k in picks]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(op: str, landscape_path: Path, out: Path) -> int:
    """One CLI command with its stdout captured; the stale outputs are removed first."""
    argv, files = COMMANDS[op]
    for name in files:
        (out / name).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--landscape", str(landscape_path), "--out", str(out)])


def output_digests(op: str, out: Path) -> dict[str, str | None]:
    return {name: (sha256(out / name) if (out / name).exists() else None)
            for name in COMMANDS[op][1]}


class MCFixture:
    """Everything c11 prebuilds on L14X before its replica batch."""

    def __init__(self):
        self.bundle = FixtureBundle.of("L14X")
        self.start = self.bundle.l.index_of_label(MC_START_LABEL)


def pd_vs_pid_batch(fx: MCFixture, reps: int, seed: int) -> tuple[bool, list]:
    """c11 with its own reps and seed: bounds, replica batch and both checks.

    ``verify.c11_pd_vs_pid`` fixes its seed, so every batch would repeat the
    same replicas; this follows its steps instead. Returns (passed, frequencies). The checks are c11's: every clipped bound
    is dominated by its frequency, and the first AAC jump and first valley
    entered agree with the exact finite-beta laws within 3 sigma + 2/reps.
    """
    # module attribute lookups, so that a traced run sees these calls
    x = fx.bundle
    report = aggregation.find_metabasins(x.l, MC_EPS, x.f, x.decomps, x.table)
    if report.level is None:
        return False, []
    ms = aggregation.metastate_space(x.decomps[report.level - 1], x.f)
    bounds = analysis.pdmb_bounds(x.l, x.decomps, ms, MC_EPS, MC_K, delta=0.0, beta=MC_BETA,
                                  table=x.table)
    model = chain.build_metropolis(x.l, MC_BETA)
    strict_of = simulate.strict_basins_for(ms, x.decomps)
    freq_a, freq_b, freq_c, y1_counts, entry_counts = simulate.pd_vs_pid_frequencies(
        model, ms, strict_of, fx.start, MC_K, reps, seed=seed)
    ba, bb, bc = bounds.clipped
    ok = True
    if ba > 0:
        ok &= all(f >= ba for f in freq_a)
    if bb > 0:
        ok &= freq_b >= bb
    if bc > 0:
        ok &= freq_c >= bc
    for exact, counts in ((aggregation.exact_jump_distribution(model, ms, fx.start), y1_counts),
                          (aggregation.exact_valley_transition(model, ms, fx.start),
                           entry_counts)):
        for m in set(exact) | set(counts):
            p = exact.get(m, 0.0)
            f = counts.get(m, 0) / reps
            ok &= abs(f - p) <= 3 * math.sqrt(max(p * (1 - p), 1e-12) / reps) + 2.0 / reps
    freqs = [list(map(float, freq_a)), float(freq_b), float(freq_c),
             sorted(y1_counts.items()), sorted(entry_counts.items())]
    return bool(ok), freqs


def write_mc_landscape(path: Path) -> None:
    save_landscape(canonical("L14X"), path)
