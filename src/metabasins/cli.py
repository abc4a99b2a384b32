"""Command line surface: analyze, simulate, aggregate, mb, verify, report."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache
from operator import add
from pathlib import Path

import numpy as np

from . import _svg, simulate, verify
from .aggregation import (
    asymptotic_jump_chain,
    boundary_exponents,
    escape_exponents,
    find_metabasins,
    metastate_space,
    valley_transition_limits,
)
from .chain import build_metropolis, check_moves
from .filtration import scoppola_filtration
from .landscape import Landscape, LandscapeError, canonical, load_landscape
from .saddles import saddle_table
from .valleys import decompose_all, tree_to_dot, build_tree


_ESC = json.encoder.encode_basestring_ascii


def _json(obj, pad: str) -> str:
    """``obj`` as JSON with one-space indent and sorted keys, in one pass.

    Keys are ``str(k)``, frozensets are sorted, numpy scalars become builtin
    ones and floats keep 12 significant digits, so that reruns are
    byte-identical; a non-finite float is written as the string "inf", "-inf"
    or "nan". ``pad`` is the newline and indent that close ``obj``, "\\n" at the
    top level. Any other type raises ``TypeError``, as ``json.dumps`` does.
    """
    if isinstance(obj, frozenset):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + " "
        if {*map(type, obj)} == {int}:
            body = ("," + inner).join(map(str, obj))
        else:
            body = ("," + inner).join([_json(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + " "
        return "{" + inner + ("," + inner).join(_entries(obj, inner)) + pad + "}"
    if isinstance(obj, str):
        return _ESC(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return repr(float(f"{v:.12g}")) if math.isfinite(v) else f'"{v!r}"'
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _entries(obj: dict, pad: str):
    """``"key": value`` of each entry, sorted by key; ``pad`` indents the entries."""
    for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
        yield _ESC(k) + ": " + _json(v, pad)


def _write_json(path: Path, obj: dict) -> None:
    """``_json(obj, "\\n")`` and a newline, written one top-level entry at a time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        sep = "{\n "
        for entry in _entries(obj, "\n "):
            fh.write(sep + entry)
            sep = ",\n "
        fh.write("\n}\n" if obj else "{}\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """A CSV file as csv's default dialect writes it: the header line, then
    ``rows``, strings of whole CRLF-ended lines whose cells need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)


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
    # z*(a, b) fixes a row's last two cells: format them once per state
    head = [f"{x}," for x in lab]
    cell = [f"{x},{e:.12g}\r\n" for x, e in zip(lab, l.energy.tolist())]

    def rows():
        for a in range(l.n - 1):
            tail = map(add, head[a + 1:], map(cell.__getitem__, table.column(a)[a + 1:].tolist()))
            yield head[a] + head[a].join(tail)

    _write_csv(out / "saddles.csv", "a,b,saddle,energy", rows())
    return 0


def cmd_simulate(args) -> int:
    l = _load(args)
    model = build_metropolis(l, args.beta)
    check_moves(model)
    start = l.index_of_label(args.start) if args.start is not None else int(np.argmin(l.energy))
    traj = simulate.run_metropolis(model, start, args.steps, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cell = [f",{x}\r\n" for x in l.labels]
    block = 1 << 12     # rows per join: memory stays bounded however long the run
    _write_csv(out / "trajectory.csv", "n,state", (
        "".join([f"{i}{cell[s]}" for i, s in enumerate(traj.states[a:a + block].tolist(), a)])
        for a in range(0, len(traj.states), block)))
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
    model = build_metropolis(l, args.beta)
    check_moves(model)   # before any output is written
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
    moves = model.p > 0
    frm = np.repeat(np.arange(l.n), np.diff(model.indptr))[moves]
    _write_csv(Path(args.out) / "transition_matrix.csv", "from,to,p", (
        f"{lab[a]},{lab[b]},{q:.12g}\r\n"
        for a, b, q in zip(frm.tolist(), model.to[moves].tolist(), model.p[moves].tolist())))
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
    if not args.eps > 0:    # before the builds, which take seconds at a few thousand states
        raise ValueError("eps must be positive")
    f = scoppola_filtration(l)
    table = saddle_table(l)
    decomps = decompose_all(l, f, table)
    report = find_metabasins(l, args.eps, f, decomps, table)
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
    if grid is not None:
        # the grid's criteria run on L6 and L14X; refuse a beta that loses a move
        for l in (canonical("L6"), canonical("L14X")):
            for beta in grid.tolist():
                check_moves(build_metropolis(l, beta))
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
                _write_csv(curves_dir / f"{safe}.csv", "x,y",
                           (f"{x:.12g},{y:.12g}\r\n" for x, y in zip(xs, ys)))
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
            reader = csv.DictReader(fh)
            if not {"x", "y"} <= set(reader.fieldnames or ()):
                raise ValueError(f"{path}: the header has no x and y columns")
            for row in reader:
                try:
                    x, y = float(row["x"]), float(row["y"])   # a short row gives None
                except (TypeError, ValueError):
                    x = y = math.nan
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"{path}: line {reader.line_num} is not two finite numbers")
                xs.append(x)
                ys.append(y)
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


@cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metabasins",
                                description="Energy landscape valley analysis")
    sub = p.add_subparsers(dest="command", required=True)
    commands = (
        ("analyze", "filtration, valleys, tree, saddle table", _SOURCE),
        ("simulate", "sample a trajectory", _SOURCE + ("--beta", "--seed", "--steps", "--start")),
        ("aggregate", "jump-chain limit and exponents at a level",
         _SOURCE + ("--beta", "--level")),
        ("mb", "search for the metabasin level", _SOURCE + ("--eps",)),
        ("verify", "run the acceptance suite", ("--out", "--only", "--beta-grid")),
        ("report", "render verify curves as SVG plots", ("--out",)),
    )
    for name, help_text, flags in commands:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a rebinding of cli.cmd_* (a tracer) is honoured
    fn = globals()["cmd_" + args.command]
    try:
        return fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
