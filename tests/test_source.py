import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import metabasins
from metabasins.saddles import SaddleTable

SOURCES = sorted(Path(metabasins.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def nodes(kind):
    """(file:line, node) for every ``kind`` node of the package source."""
    return [(f"{name}:{node.lineno}", node)
            for name, tree in TREES.items()
            for node in ast.walk(tree) if isinstance(node, kind)]


def calls(name):
    """(file:line, call) for every call of a function or method called ``name``."""
    return [(where, call) for where, call in nodes(ast.Call)
            if getattr(call.func, "attr", getattr(call.func, "id", None)) == name]


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must raise typed errors
    assert SOURCES
    assert [where for where, _ in nodes(ast.Assert)] == []


def test_one_lazy_step_rule():
    # the lazy chain is sampled only by JumpWalker.lazy_walk on the kernel's
    # row table, never from a cumulative sum over the dense P: every
    # cumulative sum along a matrix axis lies in JumpWalker.__init__ and reads
    # its padded row table. searchsorted maps uniforms to symbols only where
    # the jump-chain table does; check_moves' finds a row in the table's indptr
    def along_an_axis(call):
        return len(call.args) > 1 or any(k.arg == "axis" for k in call.keywords)

    along = [(scope, call) for scope, call in scoped_calls("cumsum") if along_an_axis(call)]
    assert len(along) == len([call for _, call in calls("cumsum") if along_an_axis(call)]) > 0
    assert {scope for scope, _ in along} == {"simulate.JumpWalker.__init__"}
    assert {root(call.args[0]) for _, call in along} == {"p"}
    assert [node for _, call in along for node in ast.walk(call.args[0])
            if getattr(node, "attr", getattr(node, "id", None)) == "P"] == []
    assert len(calls("searchsorted")) == 2
    assert sorted(callers("searchsorted")) == ["chain.check_moves", "simulate.JumpWalker._enumerate"]


def test_kernel_and_step_tables_built_by_whole_array_passes():
    # build_metropolis and the walker's tables take no per-state loop, and
    # the walker reads the kernel's row table, not the dense P
    for module, scope in (("chain.py", "build_metropolis"), ("simulate.py", "JumpWalker.__init__")):
        fn = next(fn for name, fn in scopes(TREES[module]) if name == scope)
        assert [node for node in ast.walk(fn)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))] == [], scope
    init = next(fn for name, fn in scopes(TREES["simulate.py"]) if name == "JumpWalker.__init__")
    assert [node for node in ast.walk(init) if getattr(node, "attr", None) == "P"] == []


def test_off_diagonal_sums_read_from_the_row_table():
    # the kernel keeps each row's exit mass; only the absorbing solve sums a
    # block of P without its diagonal
    assert callers("off_diagonal_row_sums") == ["chain._absorbing_solve"]
    assert len(calls("off_diagonal_row_sums")) == 1


def test_one_scalar_step_loop():
    # lazy and jump walks step through JumpWalker._jumps, whose first
    # value reaching u is bisect_left's pick; bisect_right is not called
    assert calls("bisect_right") == []
    assert callers("_jumps") == ["simulate.JumpWalker.lazy_walk", "simulate.JumpWalker.walk"]


def test_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; scipy may be installed but is not
    allowed = sys.stdlib_module_names | {"numpy", "metabasins"}
    imported = [(where, alias.name) for where, node in nodes(ast.Import) for alias in node.names]
    imported += [(where, node.module) for where, node in nodes(ast.ImportFrom) if node.level == 0]
    assert imported
    assert [(where, name) for where, name in imported
            if name.split(".")[0] not in allowed] == []


def test_one_absorbing_chain_solve():
    # every linear system, the jump-chain limit's first valley entries
    # included, is solved in chain._absorbing_solve
    solvers = [f"{name}:{fn.name}" for name, tree in TREES.items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "solve"]
    assert len(calls("solve")) == len(solvers)
    assert solvers == ["chain.py:_absorbing_solve"]


def test_one_heap_search():
    # the climb search behind the filtration and activation energies, and the
    # tests' minimax oracle, are the only Dijkstra searches
    assert len(calls("heappop")) == len(callers("heappop"))
    assert sorted(callers("heappop")) == ["reference.minimax_path", "saddles.climb"]


def test_saddle_table_fills_by_whole_array_passes():
    # the table is the sweep's merge forest in its leaf order, filled from the
    # link list in whole-array passes: no per-link loop, and no block fill or
    # reorder of an n x n array
    fill = next(fn for scope, fn in scopes(TREES["saddles.py"]) if scope == "saddle_table")
    assert [node for node in ast.walk(fill)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))] == []
    assert [c for c in callers("fill_diagonal", "ix_") if c.startswith("saddles.")] == []


def test_saddle_table_holds_states_only(L14X):
    # E(z*(a, b)) is l.energy[z], gathered where it is read, and z*(a, b) is
    # read one column at a time from three length-n arrays: each state's place
    # in the leaf order, the link joining each two neighbouring places, and
    # the state that formed each link
    assert [f.name for f in dataclasses.fields(SaddleTable)] == ["at", "join", "via"]
    t, n = L14X.table, L14X.l.n
    assert [a.shape for a in (t.at, t.join, t.via)] == [(n,), (n - 1,), (n - 1,)]


def scopes(tree):
    """(name, function) for every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def root(node):
    """The name an expression's attribute and subscript chain starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id


def scoped_calls(*names):
    """(module.scope, call) for every call of a function or method in ``names``
    inside a function or method."""
    return [(f"{module[:-3]}.{scope}", node) for module, tree in TREES.items()
            for scope, fn in scopes(tree) for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def callers(*names):
    """module.scope of every call of a function or method in ``names``, one per call."""
    return [scope for scope, _ in scoped_calls(*names)]


def test_merge_forest_built_only_for_saddles_and_ties():
    # the merge forest is built for the saddle table alone, and one pair's
    # saddle is read from a fresh table; a level's ties are answered by one
    # walled flood, run by the decomposition, the public attraction test and
    # verify's valley invariants
    builders = callers("Sweep")
    assert len(calls("Sweep")) == len(builders)
    assert builders == ["saddles.saddle_table"]
    assert sorted(callers("bordering")) == ["valleys.attracted", "valleys.decompose_all",
                                            "verify._valley_invariants"]


def test_level_reads_one_column_per_set():
    # each metastable set is the next one plus one bottom: one backward pass
    # over a deletion order reads one saddle-table column per set, and no
    # level sorts a block of columns; verify's valley invariants take the same
    # rows, one level each
    assert calls("partition") == []
    assert callers("_suffixes") == ["valleys.attracted", "valleys.decompose_all",
                                    "verify._valley_invariants"]


def test_defaults_only_where_callers_differ():
    # a parameter keeps a default only where callers pass different values;
    # reference.py, the tests' oracles, is not counted
    def with_default(args):
        positional = args.posonlyargs + args.args
        return (positional[len(positional) - len(args.defaults):]
                + [k for k, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])

    defaulted = [f"{name[:-3]}.{scope}({arg.arg})"
                 for name, tree in TREES.items() if name != "reference.py"
                 for scope, fn in scopes(tree) for arg in with_default(fn.args)]
    assert sorted(defaulted) == [
        "cli.main(argv)", "saddles.sublevel_connected(avoid)",
        "saddles.uphill_downhill_path(avoid)", "saddles.uphill_downhill_path(table)",
        "simulate.JumpWalker.walk(max_steps)",
        "verify._random_instances(seed0)", "verify.c6_exit_time_slope(beta_grid)",
        "verify.c8_aac_convergence(beta_grid)", "verify.c9_transition_exponents(beta_grid)"]


def test_commands_build_the_table_filtration_and_decomposition():
    # the commands and the acceptance fixtures build each structure once and
    # pass it down; c1 and c2 build their own for the random instances they
    # draw, and essential_saddle one for the pair it is asked
    for name in ("saddle_table", "scoppola_filtration", "decompose_all"):
        assert len(calls(name)) == len(callers(name))
    fixtures = ["cli.cmd_aggregate", "cli.cmd_analyze", "cli.cmd_mb", "verify.c2_valley_oracle",
                "verifydata.FixtureBundle.of"]
    assert sorted(callers("saddle_table")) == sorted(
        fixtures + ["saddles.essential_saddle", "verify.c1_saddle_oracle"])
    assert sorted(callers("scoppola_filtration")) == fixtures
    assert sorted(callers("decompose_all")) == sorted(fixtures + ["reference.decompose"])


def test_benchmark_entry_points_resolve():
    # perfbench/spans.py wraps each of these names; one that is renamed or
    # moved drops its three declared metrics from the traced benchmark run
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    entries = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"])
    assert entries
    missing = []
    for entry in entries:
        module, function = entry.split(".")
        if not callable(getattr(importlib.import_module(f"metabasins.{module}"), function, None)):
            missing.append(entry)
    assert missing == []


def test_one_json_serialiser_and_one_csv_path():
    # the CLI's outputs go through its one-pass emitter and its line writer;
    # json.dump is left only for writing a landscape file
    dumps = callers("dump", "dumps")
    assert len(calls("dump")) + len(calls("dumps")) == len(dumps)
    assert dumps == ["landscape.save_landscape"]
    assert [where for where, _ in calls("writer") if where.startswith("cli.py:")] == []
    assert [where for where, _ in calls("_write_csv")]
