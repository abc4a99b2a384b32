#!/usr/bin/env python3
"""Benchmark of the metabasins package: time to solution through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload rand|grid|mc --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
which runs each cycle once untraced and once traced, alternating which goes
first, and writes the spans to ``perfbench/_runs/``. The lines before it give
the same figures for a reader, raw wall times included. NOTES.md describes
the workloads, the metrics and the predictions they support.

Times are reported in reference seconds: each wall time is multiplied by
CALIB_REF_S over the median time of a fixed calibration kernel, which runs
between the timed sections, around it. The speed of a shared machine drifts
by tens of percent from one minute to the next; the ratio to the kernel does
not.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import deque
from heapq import heappop, heappush
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
SETUP_REPEATS = 3
WARMUP_S = 2.0
CALIB_REF_S = 0.015

E2E_UNITS = {"analyze_s": "s", "mb_s": "s", "aggregate_s": "s", "mc_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["rand", "grid", "mc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def calibration_s() -> float:
    """Wall time of a fixed interpreter-bound kernel like the package's own loops.

    Breadth-first searches over sets and a deque, heap-based shortest paths
    and a random walk over cumulative transition rows, on a seeded random
    graph of 2000 nodes. Stdlib only, so it can run before numpy is imported.
    """
    t0 = time.perf_counter()
    rng = random.Random(12345)
    n = 2000
    nbrs = [[rng.randrange(n) for _ in range(4)] for _ in range(n)]
    energy = [rng.random() for _ in range(n)]
    for src in range(0, n, 400):
        seen = {src}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in nbrs[v]:
                if u not in seen and energy[u] <= 0.8:
                    seen.add(u)
                    queue.append(u)
    for src in (0, 1):
        dist = [float("inf")] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, v = heappop(heap)
            if d > dist[v]:
                continue
            for u in nbrs[v]:
                nd = d + max(energy[u] - energy[v], 0.0)
                if nd < dist[u]:
                    dist[u] = nd
                    heappush(heap, (nd, u))
    cums = [[0.25, 0.5, 0.75, 1.0]] * n
    us = [rng.random() for _ in range(20000)]
    cur = 0
    states = [cur]
    for u in us:
        row = cums[cur]
        i = 0
        while row[i] < u:
            i += 1
        cur = nbrs[cur][i]
        states.append(cur)
    return time.perf_counter() - t0


class Speed:
    """Calibration kernel times, taken between timed sections."""

    def __init__(self):
        self.samples = [calibration_s()]

    def mark(self) -> int:
        """Run the kernel once more; its index closes the section just timed."""
        self.samples.append(calibration_s())
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Reference-seconds factor of the section closed by ``mark``.

        The median of the kernel times from two before the section to one
        after it smooths single noisy kernel runs but follows drifts that last
        a few seconds.
        """
        return CALIB_REF_S / statistics.median(self.samples[max(0, mark - 2): mark + 2])


class Run:
    """One workload run: set-up, cycles over the inputs, checks and metrics."""

    def __init__(self, wl, workload: str, seed: int, work: Path):
        self.wl = wl
        self.workload = workload
        self.seed = seed % 2 ** 63
        self.work = work
        self.samples: dict[tuple, list[tuple[float, int]]] = {}   # key -> (wall s, mark)
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.mc_freqs: list = []

    def setup(self) -> None:
        """Draw the inputs from the seed and write them as landscape JSON files."""
        wl = self.wl
        pool = wl.load_pool()
        if self.workload == "mc":
            self.fixture = wl.MCFixture()
            path = self.work / "L14X.json"
            wl.write_mc_landscape(path)
            self.inputs = [(path, pool["mc"]["inputs"][0]["digests"])]
            return
        self.inputs = []
        for k, entry in enumerate(wl.select_inputs(self.workload, self.seed, pool)):
            path = self.work / f"input{k}.json"
            wl.save_landscape(wl.make_landscape(self.workload, entry["gen_seed"]), path)
            self.inputs.append((path, entry.get("digests")))

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload} seed {self.seed}: {what}", file=sys.stderr)

    def _cli_op(self, k: int, op: str, tracer) -> float:
        path, digests = self.inputs[k]
        out = self.work / f"out{k}"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.wl.run_cli(op, path, out)
        except Exception:
            traceback.print_exc()
            self._fail(f"{op} on input {k} raised")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        got = self.wl.output_digests(op, out)
        if rc != 0:
            self._fail(f"{op} on input {k} exited {rc}")
        elif got != digests[op]:
            bad = sorted(n for n in got if got[n] != digests[op].get(n))
            self._fail(f"{op} on input {k}: output differs from the recording: {bad}")
        if tracer:
            self.bytes_written += sum((out / n).stat().st_size
                                      for n in self.wl.COMMANDS[op][1] if (out / n).exists())
        return dt

    def _mc_op(self, j: int, tracer) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("pd_vs_pid_batch") if tracer else contextlib.nullcontext():
                ok, freqs = self.wl.pd_vs_pid_batch(self.fixture, self.wl.MC_REPS,
                                                    self.seed * 10_000 + j)
        except Exception:
            traceback.print_exc()
            self._fail(f"pd-vs-pid batch {j} raised")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if not ok:
            self._fail(f"pd-vs-pid batch {j} failed c11's checks")
        self.mc_freqs.append(freqs)
        return dt

    def cycle(self, c: int, tracer=None) -> list[tuple[tuple, float]]:
        """One input through every operation of the workload: ((op, input), wall s) each.

        The mc workload's replica batch is a fresh input in every cycle.
        """
        k = c % len(self.inputs)
        times = [((op, k), self._cli_op(k, op, tracer)) for op in self.wl.CLI_OPS[self.workload]]
        if self.workload == "mc":
            times.append((("pd_vs_pid", c), self._mc_op(c, tracer)))
        return times

    def record(self, times, mark: int) -> None:
        for key, dt in times:
            self.samples.setdefault(key, []).append((dt, mark))

    def metrics(self, scale) -> dict[str, float]:
        """Mean over the run's inputs of each input's median call time.

        ``scale(mark)`` converts a wall time closed by that mark.
        """
        per_metric: dict[str, list[float]] = {}
        for (op, _), pairs in self.samples.items():
            per_metric.setdefault(self.wl.METRIC_OF[op], []).append(
                statistics.median(dt * scale(mark) for dt, mark in pairs))
        return {name: statistics.fmean(v) for name, v in per_metric.items()}


def per_layer(run: Run, tracer, cycles: int, factor: float,
              untraced_ref: float, traced_ref: float) -> dict:
    """Per-cycle figures of the traced cycles; seconds in reference seconds."""
    out: dict[str, tuple[float, str]] = {}
    summary = tracer.summary()
    for entry, row in summary.items():
        out[f"{entry}.calls"] = (row["calls"] / cycles, "count")
        out[f"{entry}.s"] = (row["s"] * factor / cycles, "s")
        out[f"{entry}.self_s"] = (row["self_s"] * factor / cycles, "s")
    udh = summary.get("saddles.uphill_downhill_path")
    if udh is not None:
        out["saddles.uphill_downhill_path.found_ratio"] = (
            tracer.udh_found / udh["calls"] if udh["calls"] else 0.0, "ratio")
    steps = tracer.jump_steps
    out["simulate.jump_steps"] = (steps / cycles, "count")
    for entry, name in (("simulate.run_until_sigma", "simulate.walk_ns_per_step"),
                        ("simulate.compare_mb", "simulate.compare_mb_ns_per_step")):
        if entry in summary:
            out[name] = (summary[entry]["s"] * factor / steps * 1e9 if steps else 0.0, "ns")
    out["cli.bytes_written"] = (run.bytes_written / cycles, "bytes")
    out["ops_failed_frac"] = (run.failed / run.attempted, "ratio")
    out["trace.overhead_frac"] = (traced_ref / untraced_ref - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metabasins" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    start_load = os.getloadavg()[0]
    speed = Speed()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import metabasins
    import spans
    import workloads as wl
    import_s = time.perf_counter() - t0
    import_mark = speed.mark()
    if Path(metabasins.__file__).resolve().parent != (SRC / "metabasins").resolve():
        print(f"error: imported metabasins from {metabasins.__file__}", file=sys.stderr)
        return 2
    if not wl.POOL_PATH.is_file():
        print(f"error: {wl.POOL_PATH} is missing; run perfbench/record.py", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        run = Run(wl, args.workload, args.seed, work)
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            run.setup()
            setup_runs.append((time.perf_counter() - t, speed.mark()))
        unrecorded = [k for k, (_, d) in enumerate(run.inputs) if not d]
        if unrecorded:
            print(f"error: no recorded digests for inputs {unrecorded} of seed {args.seed};"
                  " refusing to run unchecked", file=sys.stderr)
            return 2
        # untimed warm-up cycles, checked like the rest
        warm_end = time.perf_counter() + WARMUP_S
        w = 0
        while w == 0 or time.perf_counter() < warm_end:
            run.cycle(w)
            w += 1
        speed.mark()
        tracer = spans.Tracer() if args.trace else None
        min_cycles = len(run.inputs)
        deadline = time.perf_counter() + args.seconds
        c = 0
        untraced_ref = traced_ref = 0.0
        while c < min_cycles or time.perf_counter() < deadline:
            if tracer is None:
                times = run.cycle(c)
                run.record(times, speed.mark())
            else:
                # the same input untraced and traced, adjacent in time
                for traced in ((False, True) if c % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                        try:
                            dt = sum(t for _, t in run.cycle(c, tracer))
                        finally:
                            tracer.uninstall()
                        traced_ref += dt * speed.factor(speed.mark())
                    else:
                        times = run.cycle(c)
                        mark = speed.mark()
                        run.record(times, mark)
                        untraced_ref += sum(t for _, t in times) * speed.factor(mark)
            c += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall, ref = run.metrics(lambda mark: 1.0), run.metrics(speed.factor)
    wall["setup_s"] = import_s + statistics.median(dt for dt, _ in setup_runs)
    ref["setup_s"] = import_s * speed.factor(import_mark) + statistics.median(
        dt * speed.factor(mark) for dt, mark in setup_runs)
    wall["peak_rss_mb"] = ref["peak_rss_mb"] = peak_rss_mb
    ops_failed_frac = run.failed / run.attempted
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "cycles": c,
           "inputs": len(run.inputs), "python": sys.version.split()[0],
           "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "loadavg1_start": start_load, "import_s": import_s,
           "setup_runs_s": [dt for dt, _ in setup_runs],
           "calibration_ms": {"median": 1e3 * statistics.median(speed.samples),
                              "min": 1e3 * min(speed.samples),
                              "max": 1e3 * max(speed.samples), "n": len(speed.samples)}}
    if args.workload == "mc":
        env["mc_freq_digest"] = wl.sha256_text(json.dumps(run.mc_freqs))
    print("env " + json.dumps(env))
    for name, unit in E2E_UNITS.items():
        raw = f"   (wall {wall[name]:.6g} {unit})" if unit == "s" else ""
        print(f"{args.workload:5s} {name:16s} {ref[name]:.6g} {unit}{raw}")
    print(f"{args.workload:5s} {'ops_failed_frac':16s} {ops_failed_frac:.6g} ratio"
          f" ({run.failed}/{run.attempted})")

    if tracer is None:
        metrics = {name: {"value": ref[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        factor = CALIB_REF_S / statistics.median(speed.samples)
        layer = per_layer(run, tracer, c, factor, untraced_ref, traced_ref)
        for entry in tracer.missing:
            print(f"{args.workload:5s} {entry:48s} missing")
        for name, (value, unit) in layer.items():
            print(f"{args.workload:5s} {name:48s} {value:.6g} {unit}")
        for top, rows in sorted(tracer.self_shares().items()):
            best = sorted(rows.items(), key=lambda kv: -kv[1])[:4]
            print(f"{args.workload:5s} self-time shares of {top}: "
                  + ", ".join(f"{name} {v:.2f}" for name, v in best))
        tracer.write(RUNS / f"trace-{args.workload}.json")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
