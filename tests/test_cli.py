import csv
import hashlib
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import dense
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metabasins import simulate, verify
from metabasins.chain import build_metropolis
from metabasins.cli import _json, _write_json, build_parser, main
from metabasins.landscape import canonical, gen_random_landscape, load_landscape, save_landscape
from metabasins.reference import _plain
from metabasins.saddles import saddle_table


def run(args):
    return main(args)


def test_analyze_l6(tmp_path, capsys):
    out = tmp_path / "a"
    assert run(["analyze", "--canonical", "L6", "--out", str(out)]) == 0
    filt = json.loads((out / "filtration.json").read_text())
    assert filt["deletion_order"] == [2, 0, 4]
    assert filt["deletion_costs"] == [3, 8]
    valleys = json.loads((out / "valleys.json").read_text())
    assert valleys["2"]["valleys"] == {"0": [0, 1, 2], "4": [4, 5]}
    assert valleys["2"]["nonassigned"] == [3]
    assert (out / "tree.dot").read_text().startswith("digraph")
    saddles = (out / "saddles.csv").read_text().splitlines()
    assert saddles[0] == "a,b,saddle,energy"
    assert "0,4,3,6" in saddles


def test_analyze_byte_stable(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(["analyze", "--canonical", "L14X", "--out", str(out1)])
    run(["analyze", "--canonical", "L14X", "--out", str(out2)])
    for name in ("filtration.json", "valleys.json", "tree.dot", "saddles.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analyze_l14_reconstruction(tmp_path):
    out = tmp_path / "l14"
    assert run(["analyze", "--canonical", "L14", "--out", str(out)]) == 0
    filt = json.loads((out / "filtration.json").read_text())
    assert filt["deletion_order"] == [8, 12, 6, 2, 10, 14, 4]
    assert filt["M"]["7"] == [4]
    valleys = json.loads((out / "valleys.json").read_text())
    assert valleys["1"]["nonassigned"] == [3, 5, 7, 9, 11, 13]
    assert valleys["6"]["nonassigned"] == [11]


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(["analyze", "--landscape", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_mb_l6_none(tmp_path, capsys):
    out = tmp_path / "mb6"
    assert run(["mb", "--canonical", "L6", "--eps", "0.5", "--out", str(out)]) == 0
    assert "no metabasin level" in capsys.readouterr().out
    data = json.loads((out / "mb.json").read_text())
    assert data["level"] is None


def test_mb_l14x(tmp_path, capsys):
    out = tmp_path / "mbx"
    assert run(["mb", "--canonical", "L14X", "--eps", "2.5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "level 5" in text
    data = json.loads((out / "mb.json").read_text())
    assert data["level"] == 5
    assert data["partition"]["4"] == [1, 2, 3, 4]


@pytest.mark.parametrize("eps", ["nan", "0", "-0.5"])
def test_mb_rejects_non_positive_eps(tmp_path, capsys, eps):
    out = tmp_path / "mb"
    assert run(["mb", "--canonical", "L6", "--eps", eps, "--out", str(out)]) == 2
    assert "eps must be positive" in capsys.readouterr().err
    assert not (out / "mb.json").exists()


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--canonical", "L6", "--beta", "1.0", "--steps", "200",
                "--seed", "3", "--start", "4", "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "n,state" and len(rows) == 202
    stats = json.loads((out / "stats.json").read_text())
    assert stats["start"] == 4
    assert sum(stats["occupancy"].values()) == 201


def test_aggregate_outputs(tmp_path):
    out = tmp_path / "agg"
    assert run(["aggregate", "--canonical", "L6", "--level", "2",
                "--out", str(out)]) == 0
    phat = json.loads((out / "phat.json").read_text())
    assert phat["rows"]["3"] == {"0": 0.5, "4": 0.5}
    assert phat["rows"]["0"] == {"3": 1.0}
    exps = json.loads((out / "exponents.json").read_text())
    assert exps["D"]["0->4"] == 0.0
    assert exps["limits"]["0->4"] == 0.5


def test_verify_subset_and_grid_echo(tmp_path, capsys):
    out = tmp_path / "ver"
    code = run(["verify", "--only", "golden-fixtures,exit-time-slope",
                "--beta-grid", "4:12:5", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS  golden-fixtures" in text and "PASS  exit-time-slope" in text
    report = json.loads((out / "verify.json").read_text())
    assert len(report["config"]["beta_grid"]) == 5
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 2
    # curve CSVs were exported for the slope criterion
    curves = list((out / "curves").glob("*.csv"))
    assert curves


@pytest.mark.parametrize("grid", ["4:12:0", "4:12:1", "4:12", "4:12:5:1", "a:b:3",
                                  "12:4:5", "0:12:5", "-4:12:5", "nan:12:5",
                                  "4:inf:5", "4:12:2.5"])
def test_verify_rejects_bad_beta_grid(tmp_path, capsys, grid):
    out = tmp_path / "ver"
    assert run(["verify", "--only", "aac", f"--beta-grid={grid}", "--out", str(out)]) == 2
    assert "lo:hi:n" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_rejects_unknown_criterion(tmp_path, capsys):
    out = tmp_path / "ver"
    assert run(["verify", "--only", "golden,nosuch", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "golden" not in err.split("known:")[0]
    assert "saddle-oracle" in err and "reciprocating-jumps" in err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("only", ["aac,", ",", ""])
def test_verify_rejects_empty_criterion_token(tmp_path, capsys, monkeypatch, only):
    # an empty token is part of every criterion name and would select all twelve
    monkeypatch.setattr(verify.FixtureSet, "build", lambda: pytest.fail("fixtures built"))
    out = tmp_path / "ver"
    assert run(["verify", "--only", only, "--out", str(out)]) == 2
    assert "no criterion matches ''" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_report_renders_svg(tmp_path):
    out = tmp_path / "rep"
    run(["verify", "--only", "exit-time-slope", "--out", str(out)])
    assert run(["report", "--out", str(out)]) == 0
    plots = list((out / "plots").glob("*.svg"))
    assert plots
    body = plots[0].read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_report_without_curves(tmp_path, capsys):
    assert run(["report", "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("body", ["a,y\n1,2\n", "x,y\n1,2\n3\n", "x,y\n1,inf\n"],
                         ids=["no-x-column", "one-value", "inf"])
def test_report_rejects_a_malformed_curve(tmp_path, capsys, body):
    curve = tmp_path / "rep" / "curves" / "bad.csv"
    curve.parent.mkdir(parents=True)
    curve.write_text(body)
    assert run(["report", "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(curve) in err[0]


def test_verify_report_byte_stable(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    for out in (out1, out2):
        assert run(["verify", "--only", "golden,spectral", "--out", str(out)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_verify_serializes_counting_criteria(tmp_path):
    # bound-domination accumulates numpy comparisons; the report must still be
    # valid JSON with plain booleans
    out = tmp_path / "vb"
    assert run(["verify", "--only", "bound-domination", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["criteria"][0]["passed"] is True


@pytest.mark.parametrize("level", ["-1", "0", "99"])
def test_aggregate_rejects_level_out_of_range(tmp_path, capsys, level):
    out = tmp_path / "agg"
    assert run(["aggregate", "--canonical", "L14X", "--level", level,
                "--out", str(out)]) == 2
    assert f"--level must be between 1 and 7, got {level}" in capsys.readouterr().err
    assert not (out / "phat.json").exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_simulate_rejects_non_finite_beta(tmp_path, capsys, beta):
    assert run(["simulate", "--canonical", "L14X", "--beta", beta,
                "--out", str(tmp_path / "sim")]) == 2
    assert "beta must be finite" in capsys.readouterr().err


def test_simulate_rejects_unknown_start_label(tmp_path, capsys):
    assert run(["simulate", "--canonical", "L14X", "--start", "99",
                "--out", str(tmp_path / "sim")]) == 2
    assert "error: no state with label 99" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["aggregate", "simulate"])
def test_commands_refuse_a_kernel_that_lost_a_move(tmp_path, capsys, command):
    # at beta 200 four of L6's ten moves underflow to 0.0; the first, by
    # state and then neighbour, is 0 -> 1
    out = tmp_path / "out"
    assert run([command, "--canonical", "L6", "--beta", "200", "--out", str(out)]) == 2
    assert "at beta 200 the kernel entry p(0, 1) underflows to 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_beta_grid_that_loses_a_move(tmp_path, capsys, monkeypatch):
    # the grid 4, 102, 200 reaches L6's lost moves; no criterion runs
    monkeypatch.setattr(verify.FixtureSet, "build", lambda: pytest.fail("fixtures built"))
    out = tmp_path / "ver"
    assert run(["verify", "--only", "aac", "--beta-grid", "4:200:3", "--out", str(out)]) == 2
    assert "at beta 200 the kernel entry p(0, 1) underflows to 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_each_command_takes_only_the_flags_it_reads():
    source = {"--landscape", "--canonical", "--out"}
    expected = {
        "analyze": source,
        "simulate": source | {"--beta", "--seed", "--steps", "--start"},
        "aggregate": source | {"--beta", "--level"},
        "mb": source | {"--eps"},
        "verify": {"--out", "--only", "--beta-grid"},
        "report": {"--out"},
    }
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    got = {name: {opt for a in sp._actions for opt in a.option_strings
                  if a.dest != "help"}
           for name, sp in sub.choices.items()}
    assert got == expected
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--level", "3"])


def test_commands_dispatch_through_module_names(tmp_path, monkeypatch):
    # the benchmark's tracer counts calls by rebinding cli.cmd_*
    from metabasins import cli

    calls = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.out) or 0)
    assert run(["report", "--out", str(tmp_path)]) == 0
    assert calls == [str(tmp_path)]


def test_plain_json_values():
    got = json.loads(_json({1: np.float64(math.inf), "f": frozenset({3, 1}), "i": np.int64(4),
                            "b": np.bool_(True), "x": (1 / 3, -math.inf, math.nan)}, "\n"))
    assert got == {"1": "inf", "f": [1, 3], "i": 4, "b": True,
                   "x": [0.333333333333, "-inf", "nan"]}
    assert type(got["i"]) is int and type(got["b"]) is bool
    json.dumps(got)


_TEXT = st.one_of(st.text(), st.sampled_from(["", "caf\u00e9 \u00b5", "\u2028\U0001f600",
                                             "\x00\x01\x1f\x7f", "tab\t\"q\"\\\n"]))
_INT64 = st.integers(-2**63, 2**63 - 1).map(np.int64)
_FLOAT = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e-300]))
# small ints and their strings make keys that collide once converted by str
_KEYS = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(str), st.integers(), _INT64, _TEXT)
_LEAVES = st.one_of(st.none(), st.booleans(), st.booleans().map(np.bool_), st.integers(), _INT64,
                    _FLOAT, _FLOAT.map(np.float64), _TEXT, st.lists(st.integers()),
                    st.frozensets(st.integers()), st.frozensets(_INT64), st.frozensets(_TEXT))
_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(_KEYS, kids)), max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(obj=_VALUES)
@example(obj={1: "a", "1": [2, 1], np.int64(2): {}, "2": frozenset({3, 1})})
def test_json_emitter_matches_plain_and_json_dumps(obj):
    assert _json(obj, "\n") == json.dumps(_plain(obj), indent=1, sort_keys=True)


@settings(max_examples=50, deadline=None)
@given(obj=st.dictionaries(_KEYS, _VALUES, max_size=4))
def test_write_json_matches_json_dump(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    _write_json(path, obj)
    assert path.read_text() == json.dumps(_plain(obj), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, np.arange(3), {"a": [set()]}, {"k": (1, object())}])
def test_json_emitter_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(_plain(bad), indent=1, sort_keys=True)
    with pytest.raises(TypeError):
        _json(bad, "\n")


def test_one_state_landscape(tmp_path, capsys):
    # one state and no edge: one level, no saddle pair and no metabasin
    # level; the jump chain has no exit gate, so aggregate refuses
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"states": [{"id": 7, "energy": 1.5}], "edges": []}))
    out = tmp_path / "out"
    assert run(["analyze", "--landscape", str(path), "--out", str(out)]) == 0
    assert run(["mb", "--landscape", str(path), "--eps", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "no metabasin level of order 0.5\n"
    assert (out / "saddles.csv").read_bytes() == b"a,b,saddle,energy\r\n"
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert digests == {
        "filtration.json": "7a40e4358b98ee59082b0caa27caf188d582296bd3293ff48f7fe93d806c3093",
        "mb.json": "437b0eab884ed9360258afe6529f4383ed277d2cce1fe98ee1f118deb80bc38a",
        "saddles.csv": "36694e5b9f8074dfc44ce40cb464e26d09192462a64614e786edc09468078fd0",
        "tree.dot": "4b1a329bdc64bc0de5d12debfaf73f220a61c210bf93c9646722bd3ec2dd93e9",
        "valleys.json": "424071a51c72efa085df4d87151c734c5879dd5864a479e40f46ef87503cb82d",
    }
    agg = tmp_path / "agg"
    assert run(["aggregate", "--landscape", str(path), "--beta", "5", "--out", str(agg)]) == 2
    assert "has no exit gate" in capsys.readouterr().err
    assert not agg.exists()


def test_csv_outputs_round_trip_with_scattered_labels(tmp_path):
    # ids neither 0..n-1 nor in file order: every preformatted label cell must
    # sit on the row of its own state
    g = gen_random_landscape(12, 4, 0.05, 3)
    ids = [10, 3, 7, 42, 0, 19, 5, 88, 1, 64, 23, 12]
    doc = {"states": [{"id": ids[s], "energy": float(g.energy[s])} for s in range(g.n)],
           "edges": [[ids[a], ids[b]] for a, b in g.edges()]}
    path = tmp_path / "scattered.json"
    path.write_text(json.dumps(doc))
    l = load_landscape(path)
    assert l.labels == tuple(sorted(ids))
    out = tmp_path / "out"
    assert run(["analyze", "--landscape", str(path), "--out", str(out)]) == 0
    zs = dense(saddle_table(l))
    lab = l.labels
    with open(out / "saddles.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "saddle", "energy"]
    assert rows[1:] == [[str(lab[a]), str(lab[b]), str(lab[zs[a, b]]),
                         f"{l.energy[zs[a, b]]:.12g}"]
                        for a in range(l.n) for b in range(a + 1, l.n)]
    assert run(["simulate", "--landscape", str(path), "--beta", "0.5", "--steps", "300",
                "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "state"] and len(rows) == 302
    traj = simulate.run_metropolis(build_metropolis(l, 0.5), int(np.argmin(l.energy)), 300, 0)
    assert rows[1:] == [[str(n), str(lab[s])] for n, s in enumerate(traj.states)]
    assert len(set(traj.states.tolist())) > 3


def test_benchmark_entry_points_resolve():
    # the benchmark's tracer wraps these by name; a missing one would drop
    # its per-layer metrics without an error
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for entry in spans.ENTRY_POINTS:
        mod_name, fn_name = entry.split(".")
        module = importlib.import_module(f"metabasins.{mod_name}")
        assert callable(getattr(module, fn_name, None)), entry


SIMULATE = ["simulate", "--steps", "20000", "--seed", "7"]
AGGREGATE = ["aggregate", "--beta", "5"]
# sha256 of the byte-stable outputs of the lazy sampler and the kernel CSV
PINNED_OUTPUTS = {
    "L6": {
        ("5", "trajectory.csv"): "338d26656299dddb990501d5d4f6ff887b86290ee6bf76183c57c7db1cddce79",
        ("5", "stats.json"): "36fe2ba0aa70f158463ff8024a0229321beaed8db009b5c0d0896ec9bbd21dd6",
        ("0.5", "trajectory.csv"): "4cb5ac62f691d72f3d157b1049d67bcfeb0b71a36c4c3a207d27e14c05d925ab",
        ("0.5", "stats.json"): "f3aece0f6e02072e64eb80520032e2ab1829c4a064693763546fd42ccf2d6a90",
        "phat.json": "943510847ed237c6bcf17b4080bd8dc286198bd1fa7d2610d0079155f958c070",
        "transition_matrix.csv": "bd3c4e4f512e4ed2b0ce2040181e2c900aecc428c55eb92cbc29707387623df0",
        "exponents.json": "75d4b494150e9009f6fd023830ec5b71991d424a0969494a4e239d3ab668f992",
    },
    "L14": {
        ("5", "trajectory.csv"): "338d26656299dddb990501d5d4f6ff887b86290ee6bf76183c57c7db1cddce79",
        ("5", "stats.json"): "0c92ea5cd7c0ca2e0f1e9e70c1856177886d855b5b0975b6447e81f8651a8c55",
        ("0.5", "trajectory.csv"): "9bd14a37f08326539fe3cb42358827873d399ed8e85df742abecde0538de13cb",
        ("0.5", "stats.json"): "e93209dcc64adbe0c5f0245b77d8832f1de31ab61f955cf8a8e5b88c0dafae68",
        "phat.json": "a4b0f65304cf10ad8ec62de47fdab4db353dd86a495c7e12e46bdacfd8304559",
        "transition_matrix.csv": "1630b1596c0f349f397c339a529758c553eb02dd7900287119b01b853f44606c",
        "exponents.json": "c60c4172966b9db12bcccc2aeafebe50da3d2392d3fb24291e1e125c86421b8a",
    },
    "L14X": {
        ("5", "trajectory.csv"): "338d26656299dddb990501d5d4f6ff887b86290ee6bf76183c57c7db1cddce79",
        ("5", "stats.json"): "0c92ea5cd7c0ca2e0f1e9e70c1856177886d855b5b0975b6447e81f8651a8c55",
        ("0.5", "trajectory.csv"): "83a7ad0c1f6ec78c8dcbffe331b147907bc36c76267fcff945db95a167243831",
        ("0.5", "stats.json"): "1a65fb10ee9f7b0def4ed6cfdeedc68ccc6789532fe0c54e0aab4a936bd9332a",
        "phat.json": "8f754ee3e2558f5dc131a0e7d20a70e34e8430a7d3d25a064bbf2c520d4258fd",
        "transition_matrix.csv": "54cd25c76467e80455f3f69c896ebe9c54aff36682f3e1c71594fd7a35fb50d6",
        "exponents.json": "00290edce415b02af1968ccfa97fc881309efd857be35e1c950bc0fb30221827",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_simulate_and_aggregate_outputs_pinned(tmp_path, name):
    digests = {}
    for beta in ("5", "0.5"):
        out = tmp_path / f"sim{beta}"
        assert run(SIMULATE + ["--beta", beta, "--canonical", name, "--out", str(out)]) == 0
        for f in ("trajectory.csv", "stats.json"):
            digests[beta, f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
    out = tmp_path / "agg"
    assert run(AGGREGATE + ["--canonical", name, "--out", str(out)]) == 0
    for f in ("phat.json", "transition_matrix.csv", "exponents.json"):
        digests[f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
    assert digests == PINNED_OUTPUTS[name]


# sha256 of analyze's and mb's outputs, recorded before the writers were
# rewritten; rand300 (gen_random_landscape(300, 4, 0.05, 1)) also pins
# aggregate's, recorded before the filtration's climb matrix was replaced
PINNED_ANALYZE_MB = {
    "L6": {
        "filtration.json": "121cc2c5d6fbe6589ba1c2bff5631debe1938735d64b9117108f0f1ac2554226",
        "valleys.json": "74c0097a6e13b2da6bee8c061163b584fcea50b0771108e4ee8d60b2327b6674",
        "tree.dot": "85ad9cac1856812fd1f7791dc30df7989a86fc0a2f8ee5e05df319a2542f7cd8",
        "saddles.csv": "832892a3fe66bc95e8cc5f1ff2fcb49d54ce70d570d6e095487ee3f1da411285",
        "mb.json": "af810ab255d59b379ea7403d53ff820f8b56836c2e5311aa570fd674a5611594",
    },
    "L14": {
        "filtration.json": "3f7cfe6c78e4d57adb1b056a11ddc68edcb91e20790e83380f3f84dcd931f329",
        "valleys.json": "2b7b06cb5e67354ade9244e4ae33099cc33e1fa18a271112f98d8f8311ef6086",
        "tree.dot": "320d7935807c7a905b6fc3f8f76312b4114ed0bc05926bdd5bcc4d28e4c0be64",
        "saddles.csv": "5e80998c735c309b511ca0e659057d36755de0f60b01136188c4e4772235d6e3",
        "mb.json": "fd8b1eac143b663eb57acbe25789ed3f2b7ba2e055c71475017e0cef053840aa",
    },
    "L14X": {
        "filtration.json": "b3b892a384bb9a3b64ed08c3f577257d134808539a93229766346d2ebb8fd294",
        "valleys.json": "4497371cb47cdb1e55630ef19cdece34d87bc2c88b3f82a26db1e2f80e6c6e60",
        "tree.dot": "73118a9cc79e93c9cf80c687069c6e6a26c6073d9b56a773ebb6e619747365ed",
        "saddles.csv": "6e1dbbf230c568400e725154ea6f60d137b22113a28f019657411e2b078d53c9",
        "mb.json": "d7fda07cf66ad5e219d6f9a887ffa019b43ac35b5f630c40ea0864025af93d65",
    },
    "rand60": {
        "filtration.json": "943669ee3d7810c378e5b9a877c3e05075ecfeb16888b840606d1a71dd66943e",
        "valleys.json": "48447c9f4d5bb145bca3487d9a9a9f25435d60255147712ccc3b4befd24d8f5b",
        "tree.dot": "81d7089d5e18bf0eab19d84ea6fb0bf896d09b645fa844a4257fdcafb807bc30",
        "saddles.csv": "0a859df1c7da0e4919d397591d1c18caaa1979a3f763f70e5dc404aa37291c99",
        "mb.json": "307a5c383a51163e454b7bf8ead4cba57ffb29733074c0aec96c364267c77dad",
    },
    "rand300": {
        "filtration.json": "4e34ac07cbcd37e27c418cf5bfae6247fdd93d846f1c008fbca7a823f55289e3",
        "valleys.json": "4feccd2a2764f1e4a6042eb4ef0d2f0951b7a7c8f2fe5cdb951608822db584d2",
        "tree.dot": "942a2ff42227845a2a87081b0e68c81ced802c04d76b66639410a1c476f7db4f",
        "saddles.csv": "bea3f81031d42f7daecf70e2087d45137705aa134ebc88f2b84a1aa919f2ef0d",
        "mb.json": "655559ee2d6ee6050f7a801fd96f87e74526b406abb5f37f1422bd702005f306",
        "phat.json": "fa60ddc9907a9be035dc60ebcd6e902e7aac47db823d6b9d0d6cb903b53bc26e",
        "transition_matrix.csv": "26c56d53e922511f99fced3c3e7b0e029d82a0b10eb2f020dad3643b1ea7c2a6",
        "exponents.json": "1eb2357d21876a89c06022803aaea1214a2d6bfed952e8031ce1d0a003285f0d",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_ANALYZE_MB))
def test_analyze_and_mb_outputs_pinned(tmp_path, name, capsys):
    if name.startswith("rand"):
        path = tmp_path / f"{name}.json"
        save_landscape(gen_random_landscape(int(name[4:]), 4, 0.05, 1), path)
        source = ["--landscape", str(path)]
    else:
        source = ["--canonical", name]
    out = tmp_path / "out"
    assert run(["analyze", *source, "--out", str(out)]) == 0
    assert run(["mb", *source, "--eps", "0.5", "--out", str(out)]) == 0
    if "phat.json" in PINNED_ANALYZE_MB[name]:
        assert run([*AGGREGATE, *source, "--out", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in PINNED_ANALYZE_MB[name]}
    assert digests == PINNED_ANALYZE_MB[name]


# Where the labels sit in each JSON output: "label" is one label (or null),
# "labels" a set of labels (compared sorted), "order" a sequence of labels;
# a dict keyed "<level>", "<label>" or "<pair>" maps every key of that kind
RELABELLED = {
    "filtration.json": {"M": {"<level>": "labels"}, "deletion_order": "order"},
    "valleys.json": {"<level>": {
        "exit_gate": {"<label>": "label"}, "nonassigned": "labels",
        "pending": {"<label>": "labels"}, "strict": {"<label>": "labels"},
        "valleys": {"<label>": "labels"}}},
    "mb.json": {"mb1_margin": {"<label>": None}, "mb2_witnesses": {"<label>": "labels"},
                "partition": {"<label>": "labels"}},
    "phat.json": {"metastates": "labels", "rows": {"<label>": {"<label>": None}}},
    "exponents.json": {name: {"<pair>": None} for name in ("D", "boundary", "limits", "udh")},
}


def _mapped(value, spec, back):
    """``value`` with each label replaced by ``back[label]`` as ``spec`` places them."""
    if spec == "label":
        return None if value is None else back[value]
    if spec == "labels":
        return sorted(back[v] for v in value)
    if spec == "order":
        return [back[v] for v in value]
    if spec is None:
        return value
    kind, inner = next(iter(spec.items()))
    if kind == "<level>":
        return {k: _mapped(v, inner, back) for k, v in value.items()}
    if kind == "<label>":
        return {str(back[int(k)]): _mapped(v, inner, back) for k, v in value.items()}
    if kind == "<pair>":
        def pair(key):
            sep = "->" if "->" in key else "=>"
            a, b = key.split(sep)
            return f"{back[int(a)]}{sep}{back[int(b)]}"
        return {pair(k): v for k, v in value.items()}
    return {k: _mapped(v, spec.get(k), back) for k, v in value.items()}


def _assert_close(a, b, where):
    if isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=1e-9), where
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _assert_close(a[k], b[k], f"{where}/{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{k}]")
    else:
        assert a == b, where


@pytest.mark.parametrize("name", ["L14X", "rand60_0", "rand60_1", "rand60_2", "rand300_1"])
def test_outputs_invariant_under_relabelling(tmp_path, name, capsys):
    # with distinct energies no output depends on the state numbering: save
    # the landscape again under shuffled ids, and every output maps back
    if name == "L14X":
        l = canonical(name)
    else:
        n, seed = name[4:].split("_")
        l = gen_random_landscape(int(n), 4, 0.05, int(seed))
    assert len(set(l.energy.tolist())) == l.n
    rng = np.random.default_rng(l.n)
    ids = rng.choice(10 * l.n, size=l.n, replace=False).tolist()
    back = dict(zip(ids, l.labels))
    doc = {"states": [{"id": ids[s], "energy": float(l.energy[s])} for s in range(l.n)],
           "edges": [[ids[a], ids[b]] for a, b in l.edges()]}
    paths = {"orig": tmp_path / "orig.json", "shuffled": tmp_path / "shuffled.json"}
    save_landscape(l, paths["orig"])
    paths["shuffled"].write_text(json.dumps(doc))
    assert load_landscape(paths["shuffled"]).labels != tuple(ids)
    outputs, saddles = {}, {}
    for key, path in paths.items():
        # L14X has a metabasin level at eps 2.5 (level 5), which fills mb.json
        for command in (["analyze"], ["mb", "--eps", "2"], ["mb", "--eps", "2.5"],
                        ["aggregate", "--beta", "5"]):
            out = tmp_path / key / "_".join(command)
            assert run([*command, "--landscape", str(path), "--out", str(out)]) == 0
            outputs[key, out.name] = {f: json.loads((out / f).read_text())
                                      for f in RELABELLED if (out / f).exists()}
        with open(tmp_path / key / "analyze" / "saddles.csv", newline="") as fh:
            saddles[key] = list(csv.reader(fh))
    same = dict(zip(l.labels, l.labels))

    def pairs(rows, back):
        # one row per unordered pair: its saddle label and the saddle energy
        assert rows[0] == ["a", "b", "saddle", "energy"] and len(rows) == 1 + l.n * (l.n - 1) // 2
        return {frozenset((back[int(a)], back[int(b)])): (back[int(z)], e)
                for a, b, z, e in rows[1:]}

    assert pairs(saddles["shuffled"], back) == pairs(saddles["orig"], same)
    for (key, command), files in outputs.items():
        if key == "shuffled":
            assert files.keys() == outputs["orig", command].keys() != set()
            for f, doc in files.items():
                _assert_close(_mapped(doc, RELABELLED[f], back),
                              _mapped(outputs["orig", command][f], RELABELLED[f], same),
                              f"{command}/{f}")
