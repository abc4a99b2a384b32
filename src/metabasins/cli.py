"""Command line surface: analyze, simulate, aggregate, mb, verify, report."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import _svg, analysis, simulate, verify
from .aggregation import (
    asymptotic_jump_chain,
    boundary_exponents,
    escape_exponents,
    find_metabasins,
    metastate_space,
    valley_transition_limits,
)
from .chain import build_metropolis
from .filtration import scoppola_filtration
from .landscape import Landscape, LandscapeError, canonical, load_landscape
from .saddles import saddle_table
from .valleys import decompose_all, tree_to_dot, build_tree


def _plain(obj):
    """JSON-ready copy of ``obj``: builtin scalars, string keys, sorted frozensets.

    Floats keep 12 significant digits so that reruns are byte-identical; a
    non-finite float is written as the string "inf", "-inf" or "nan".
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return float(f"{v:.12g}") if math.isfinite(v) else repr(v)
    return obj


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_plain(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load(args) -> Landscape:
    if args.canonical:
        return canonical(args.canonical)
    if args.landscape:
        return load_landscape(args.landscape)
    raise LandscapeError("pass --landscape PATH or --canonical NAME")


def _parse_grid(text: str) -> np.ndarray:
    """``lo:hi:n`` as n evenly spaced values from lo to hi."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        ok = 0 < lo < hi < math.inf and n >= 2
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"--beta-grid must be lo:hi:n with finite 0 < lo < hi "
                         f"and an integer n >= 2, got {text!r}")
    return np.linspace(lo, hi, n)


def cmd_analyze(args) -> int:
    l = _load(args)
    out = Path(args.out)
    f = scoppola_filtration(l)
    table = saddle_table(l)
    decomps = decompose_all(l, f, table)
    lab = l.labels
    _write_json(out / "filtration.json", {
        "deletion_order": [lab[s] for s in f.deletion_order],
        "deletion_costs": list(f.deletion_costs),
        "levels": f.levels,
        "M": {str(i): sorted(lab[s] for s in f.M(i)) for i in range(1, f.levels + 1)},
    })
    _write_json(out / "valleys.json", {
        str(d.level): {
            "valleys": {str(lab[m]): sorted(lab[s] for s in v)
                        for m, v in d.valley.items()},
            "strict": {str(lab[m]): sorted(lab[s] for s in v)
                       for m, v in d.strict.items()},
            "nonassigned": sorted(lab[s] for s in d.nonassigned),
            "exit_gate": {str(lab[m]): (lab[g] if g is not None else None)
                          for m, g in d.exit_gate.items()},
            "pending": {str(lab[m]): sorted(lab[s] for s in states)
                        for m, (_, states, _) in d.pending.items()},
        }
        for d in decomps
    })
    tree = build_tree(l, f, decomps, table)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tree.dot").write_text(tree_to_dot(tree, labels=lab))
    with open(out / "saddles.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "saddle", "energy"])
        w.writerows([lab[a], lab[b], lab[z], f"{e:.12g}"] for a in range(l.n)
                    for b, z, e in zip(range(a + 1, l.n), table.state[a, a + 1:].tolist(),
                                       table.energy[a, a + 1:].tolist()))
    return 0


def cmd_simulate(args) -> int:
    l = _load(args)
    model = build_metropolis(l, args.beta)
    start = l.index_of_label(args.start) if args.start is not None else int(np.argmin(l.energy))
    traj = simulate.run_metropolis(model, start, args.steps, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "state"])
        for n, s in enumerate(traj.states):
            w.writerow([n, l.labels[s]])
    counts = np.bincount(traj.states, minlength=l.n)
    _write_json(out / "stats.json", {
        "beta": args.beta, "seed": args.seed, "steps": args.steps,
        "start": l.labels[start],
        "occupancy": {str(l.labels[s]): int(c) for s, c in enumerate(counts)},
        "mean_energy": float(np.mean(l.energy[traj.states])),
    })
    return 0


def cmd_aggregate(args) -> int:
    l = _load(args)
    f = scoppola_filtration(l)
    level = args.level if args.level is not None else max(f.levels - 1, 1)
    if not 1 <= level <= f.levels:
        raise ValueError(f"--level must be between 1 and {f.levels}, got {level}")
    table = saddle_table(l)
    decomps = decompose_all(l, f, table)
    ms = metastate_space(decomps[level - 1], f)
    jc = asymptotic_jump_chain(l, ms)
    lab = l.labels
    _write_json(Path(args.out) / "phat.json", {
        "level": level,
        "metastates": [lab[m] for m in jc.metastates],
        "rows": {str(lab[m]): {str(lab[s]): p for s, p in zip(jc.metastates, row) if p > 0}
                 for m, row in zip(jc.metastates, jc.phat.tolist())},
    })
    model = build_metropolis(l, args.beta)
    with open(Path(args.out) / "transition_matrix.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["from", "to", "p"])
        for a, (to, p) in enumerate(model.rows):
            w.writerows([lab[a], lab[b], f"{q:.12g}"] for b, q in zip(to, p) if q > 0)
    mlist, D, udh = escape_exponents(l, ms, table)
    _, limits = valley_transition_limits(ms, jc)
    pairs = [(a, b, f"{lab[m]}->{lab[mp]}") for a, m in enumerate(mlist)
             for b, mp in enumerate(mlist)]
    _write_json(Path(args.out) / "exponents.json", {
        "level": level,
        "D": {key: D[a, b] for a, b, key in pairs if a != b},
        "udh": {key: udh[a, b] for a, b, key in pairs if a != b},
        "boundary": {f"{lab[m]}=>{lab[s]}": v for (m, s), v in boundary_exponents(l, ms).items()},
        "limits": {key: limits[a, b] for a, b, key in pairs},
    })
    return 0


def cmd_mb(args) -> int:
    l = _load(args)
    report = find_metabasins(l, args.eps)
    lab = l.labels
    if report.level is None:
        print(f"no metabasin level of order {args.eps}")
    else:
        print(f"metabasins of order {args.eps} at level {report.level}")
        for m, members in sorted(report.partition.items()):
            print(f"  {lab[m]}: {sorted(lab[s] for s in members)}")
    _write_json(Path(args.out) / "mb.json", {
        "eps": args.eps,
        "level": report.level,
        "partition": {str(lab[m]): sorted(lab[s] for s in v)
                      for m, v in (report.partition or {}).items()},
        "mb1_margin": {str(lab[m]): v for m, v in report.mb1_margin.items()},
        "mb2_witnesses": {str(lab[m]): [lab[s] for s in w]
                          for m, w in report.mb2_witnesses.items()},
        "scan": [list(row) for row in report.scan],
    })
    return 0


def cmd_verify(args) -> int:
    only = set(args.only.split(",")) if args.only is not None else None
    grid = _parse_grid(args.beta_grid) if args.beta_grid else None
    report = verify.run_acceptance(only=only, beta_grid=grid)
    for crit in report["criteria"]:
        print(f"{'PASS' if crit['passed'] else 'FAIL'}  {crit['name']}")
    out = Path(args.out)
    _write_json(out / "verify.json", report)
    curves_dir = out / "curves"
    for crit in report["criteria"]:
        for key, val in crit["details"].items():
            if key != "curves" and not key.endswith("_curves"):
                continue
            for name, (xs, ys) in val.items():
                safe = "".join(c if c.isalnum() else "_" for c in f"{crit['name']}_{name}")
                curves_dir.mkdir(parents=True, exist_ok=True)
                with open(curves_dir / f"{safe}.csv", "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["x", "y"])
                    for x, y in zip(xs, ys):
                        w.writerow([f"{x:.12g}", f"{y:.12g}"])
    return 0 if report["all_passed"] else 1


def cmd_report(args) -> int:
    out = Path(args.out)
    curves_dir = out / "curves"
    plots = out / "plots"
    if not curves_dir.is_dir():
        print(f"no curves directory under {out}", file=sys.stderr)
        return 2
    plots.mkdir(parents=True, exist_ok=True)
    made = 0
    for path in sorted(curves_dir.glob("*.csv")):
        xs, ys = [], []
        with open(path) as fh:
            for row in csv.DictReader(fh):
                xs.append(float(row["x"]))
                ys.append(float(row["y"]))
        svg = _svg.line_chart({path.stem: (xs, ys)}, title=path.stem)
        (plots / f"{path.stem}.svg").write_text(svg)
        made += 1
    print(f"wrote {made} plots to {plots}")
    return 0


# Every flag with its argparse settings; each command takes only those it reads.
_FLAGS = {
    "--landscape": dict(help="landscape JSON file"),
    "--canonical": dict(help="built-in landscape name (L6, L14, L14X)"),
    "--out": dict(default="out", help="output directory"),
    "--beta": dict(type=float, default=1.0, help="inverse temperature"),
    "--seed": dict(type=int, default=0),
    "--steps": dict(type=int, default=10000),
    "--start": dict(type=int, help="start state label (default: lowest energy)"),
    "--level": dict(type=int, help="aggregation level, 1..levels (default: levels - 1)"),
    "--eps": dict(type=float, default=0.5, help="metabasin order"),
    "--only": dict(help="comma separated criterion names"),
    "--beta-grid": dict(help="lo:hi:n"),
}
_SOURCE = ("--landscape", "--canonical", "--out")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metabasins",
                                description="Energy landscape valley analysis")
    sub = p.add_subparsers(dest="command", required=True)
    # built per call, so that a rebinding of cli.cmd_* (a tracer) is honoured
    commands = (
        ("analyze", cmd_analyze, "filtration, valleys, tree, saddle table", _SOURCE),
        ("simulate", cmd_simulate, "sample a trajectory",
         _SOURCE + ("--beta", "--seed", "--steps", "--start")),
        ("aggregate", cmd_aggregate, "jump-chain limit and exponents at a level",
         _SOURCE + ("--beta", "--level")),
        ("mb", cmd_mb, "search for the metabasin level", _SOURCE + ("--eps",)),
        ("verify", cmd_verify, "run the acceptance suite", ("--out", "--only", "--beta-grid")),
        ("report", cmd_report, "render verify curves as SVG plots", ("--out",)),
    )
    for name, fn, help_text, flags in commands:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
