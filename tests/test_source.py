import ast
import sys
from pathlib import Path

import metabasins

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
    # row table: no searchsorted, and no cumulative sum along a matrix axis
    assert calls("cumsum")
    assert [where for where, _ in calls("searchsorted")] == []
    assert [where for where, call in calls("cumsum")
            if len(call.args) > 1 or any(k.arg == "axis" for k in call.keywords)] == []


def test_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; scipy may be installed but is not
    allowed = sys.stdlib_module_names | {"numpy", "metabasins"}
    imported = [(where, alias.name) for where, node in nodes(ast.Import) for alias in node.names]
    imported += [(where, node.module) for where, node in nodes(ast.ImportFrom) if node.level == 0]
    assert imported
    assert [(where, name) for where, name in imported
            if name.split(".")[0] not in allowed] == []


def test_one_absorbing_chain_solve():
    # linear systems are solved in chain._absorbing_solve, and for the
    # jump-chain limit's first valley entries in valley_transition_limits
    solvers = [f"{name}:{fn.name}" for name, tree in TREES.items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "solve"]
    assert len(calls("solve")) == len(solvers)
    assert sorted(solvers) == ["aggregation.py:valley_transition_limits",
                               "chain.py:_absorbing_solve"]


def scopes(tree):
    """(name, function) for every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def callers(*names):
    """module.scope of every call of a function or method in ``names``, one per call."""
    return [f"{name[:-3]}.{scope}" for name, tree in TREES.items()
            for scope, fn in scopes(tree) for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def test_merge_forest_built_only_for_saddles_and_ties():
    # the one union-find is built for the saddle table, one pair's saddle and
    # a level's tie test; the valley layer builds it once per level at most
    builders = callers("Sweep")
    assert len(calls("Sweep")) == len(builders)
    assert sorted(builders) == ["saddles.essential_saddle", "saddles.saddle_table",
                                "valleys._Level.__init__"]


def test_one_json_serialiser_and_one_csv_path():
    # the CLI's outputs go through its one-pass emitter and its line writer;
    # json.dump is left only for writing a landscape file
    dumps = callers("dump", "dumps")
    assert len(calls("dump")) + len(calls("dumps")) == len(dumps)
    assert dumps == ["landscape.save_landscape"]
    assert [where for where, _ in calls("writer") if where.startswith("cli.py:")] == []
    assert [where for where, _ in calls("_write_csv")]
