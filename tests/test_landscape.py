import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabasins.cli import main
from metabasins.filtration import local_minima
from metabasins.landscape import (
    LandscapeError,
    canonical,
    gen_random_landscape,
    load_landscape,
    reachable,
    save_landscape,
    validate,
)


def test_l6_shape_and_validation(L6):
    l = L6.l
    assert l.n == 6
    assert sum(1 for _ in l.edges()) == 5
    report = validate(l)
    assert report.ok
    assert report.min_energy_gap == 1.0


def test_l6_minima(L6):
    assert local_minima(L6.l) == {0, 2, 4}


def test_round_trip(tmp_path, L6):
    path = tmp_path / "l6.json"
    save_landscape(L6.l, path)
    back = load_landscape(path)
    assert back.n == 6
    assert list(back.energy) == list(L6.l.energy)
    assert back.neighbors == L6.l.neighbors


def test_duplicate_energy_rejected(tmp_path):
    data = {
        "states": [{"id": 0, "energy": 1.0}, {"id": 1, "energy": 1.0}],
        "edges": [[0, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LandscapeError, match="degenerate"):
        load_landscape(path)


def test_asymmetric_adjacency_rejected(tmp_path):
    data = {
        "states": [
            {"id": 1, "energy": 0.0, "neighbors": [2]},
            {"id": 2, "energy": 1.0, "neighbors": [1, 3]},
            {"id": 3, "energy": 2.0, "neighbors": []},
        ],
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LandscapeError, match="asymmetric adjacency"):
        load_landscape(path)


def test_duplicate_edge_rejected(tmp_path):
    data = {
        "states": [{"id": 0, "energy": 0.0}, {"id": 1, "energy": 1.0}],
        "edges": [[0, 1], [1, 0]],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LandscapeError, match="duplicate edge"):
        load_landscape(path)


def test_single_state_gap_is_infinite():
    from metabasins.landscape import Landscape

    l = Landscape(np.array([1.0]), ((),))
    report = validate(l)
    assert report.connected
    assert math.isinf(report.min_energy_gap)


def test_disconnected_reported():
    from metabasins.landscape import Landscape

    l = Landscape(np.array([0.0, 1.0, 2.0, 3.0]), ((1,), (0,), (3,), (2,)))
    assert not validate(l).connected


def test_unknown_canonical_name():
    with pytest.raises(LandscapeError):
        canonical("L7")


def test_l14_labels_map_to_dense_ids(L14):
    assert L14.l.labels == tuple(range(1, 15))
    assert L14.l.index_of_label(4) == 3
    with pytest.raises(LandscapeError, match="label 99"):
        L14.l.index_of_label(99)


def test_reachable_stays_inside_allowed(L6):
    path = L6.l                                  # 0 - 1 - 2 - 3 - 4 - 5
    assert reachable(path, 2, {1, 2, 3}) == {1, 2, 3}
    assert reachable(path, 2, {0, 1, 4, 5}) == {0, 1, 2}
    assert reachable(path, 2, set()) == {2}      # the start is always included
    assert reachable(path, 0, range(6)) == set(range(6))


def test_generator_deterministic():
    a = gen_random_landscape(8, 3, 0.1, seed=7)
    b = gen_random_landscape(8, 3, 0.1, seed=7)
    assert list(a.energy) == list(b.energy)
    assert a.neighbors == b.neighbors
    assert validate(a).ok


def test_generator_output_valid_over_100_draws():
    for seed in range(100):
        l = gen_random_landscape(10, 3, 0.1, seed=seed)
        report = validate(l)
        assert report.ok
        assert report.min_energy_gap >= 0.1 - 1e-12


def test_generator_infeasible_parameters():
    with pytest.raises(LandscapeError):
        gen_random_landscape(5, 1, 0.1, seed=0)
    with pytest.raises(LandscapeError):
        gen_random_landscape(1, 3, 0.1, seed=0)
    with pytest.raises(LandscapeError):
        gen_random_landscape(5, 3, -1.0, seed=0)


# --- malformed files -------------------------------------------------------

_VALID = {
    "states": [
        {"id": 1, "energy": 0.0, "coord": [0.0, 0.0]},
        {"id": 2, "energy": 1.5, "coord": [1.0, 0.0]},
        {"id": 3, "energy": 0.5, "coord": [2.0, 0.0]},
    ],
    "edges": [[1, 2], [2, 3]],
}
_NOT_A_NUMBER = [None, True, "1", math.nan, math.inf, -math.inf, [], {}, 10**400]
_NOT_AN_ID = [None, True, False, "1", 1.0, [], {}]


def _with_neighbors(doc):
    for s in doc["states"]:
        s["neighbors"] = []
    for a, b in doc.pop("edges"):
        doc["states"][a - 1]["neighbors"].append(b)
        doc["states"][b - 1]["neighbors"].append(a)
    return doc


def _set(doc, draw, key, values):
    doc["states"][draw(st.integers(0, 2))][key] = draw(st.sampled_from(values))


def _edit(change):
    """A mutation that edits the document in place and returns it."""
    def mutate(doc, draw):
        change(doc, draw)
        return doc
    return mutate


def _neighbor_entry(doc, draw):
    doc = _with_neighbors(doc)
    nbrs = doc["states"][draw(st.integers(0, 2))]["neighbors"]
    nbrs.append(draw(st.sampled_from(_NOT_AN_ID + [99])))
    return doc


def _drop_neighbor(doc, draw):
    doc = _with_neighbors(doc)
    doc["states"][1]["neighbors"].pop(draw(st.integers(0, 1)))   # asymmetric
    return doc


def _neighbors_type(doc, draw):
    doc = _with_neighbors(doc)
    _set(doc, draw, "neighbors", [None, 1, "2", {}])
    return doc


# Each mutation turns the valid document into a malformed one and returns it.
_MUTATIONS = {
    "energy": _edit(lambda doc, draw: _set(doc, draw, "energy", _NOT_A_NUMBER)),
    "id": _edit(lambda doc, draw: _set(doc, draw, "id", _NOT_AN_ID)),
    "coord": _edit(lambda doc, draw: _set(doc, draw, "coord", [
        None, 3, "x", [0.0], [0.0, 0.0, 0.0], ["a", 0.0], [math.nan, 0.0],
        [True, 0.0], [math.inf, 1.0]])),
    "missing_key": _edit(lambda doc, draw: doc["states"][draw(st.integers(0, 2))].pop(
        draw(st.sampled_from(["id", "energy", "coord"])))),
    "state": _edit(lambda doc, draw: doc["states"].__setitem__(
        draw(st.integers(0, 2)), draw(st.sampled_from([None, 1, "s", [], [1, 2]])))),
    "edge": _edit(lambda doc, draw: doc["edges"].__setitem__(
        draw(st.integers(0, 1)), draw(st.sampled_from([
            [1], [1, 2, 3], [], "12", None, 1, {}, [1, 1], [1, 99], ["1", "2"],
            [True, 2], [1.0, 2], [None, 2]])))),
    "duplicate_edge": _edit(lambda doc, draw: doc["edges"].append(
        draw(st.sampled_from([[1, 2], [2, 1], [3, 2]])))),
    "disconnected": _edit(lambda doc, draw: doc["edges"].pop(draw(st.integers(0, 1)))),
    "edges": _edit(lambda doc, draw: doc.__setitem__(
        "edges", draw(st.sampled_from([None, 1, "x", {}, [[1, 2], 3]])))),
    "states": _edit(lambda doc, draw: doc.__setitem__(
        "states", draw(st.sampled_from([None, 1, "x", {}, []])))),
    "document": lambda doc, draw: draw(st.sampled_from([None, 1, "x", [], [1], {}])),
    "degenerate": _edit(lambda doc, draw: doc["states"][draw(st.integers(0, 1))].__setitem__(
        "energy", 0.5)),
    "duplicate_id": _edit(lambda doc, draw: doc["states"][draw(st.integers(0, 1))].__setitem__(
        "id", 3)),
    "neighbor_entry": _neighbor_entry,
    "neighbor_asymmetric": _drop_neighbor,
    "neighbors_type": _neighbors_type,
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_rejected(path):
    with pytest.raises(LandscapeError):
        load_landscape(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--landscape", str(path), "--out", str(path.parent / "out")])
    assert code == 2
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("kind", sorted(_MUTATIONS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_malformed_json_fails_with_landscape_error(fuzz_dir, kind, data):
    path = fuzz_dir / f"{kind}.json"
    path.write_text(json.dumps(_MUTATIONS[kind](copy.deepcopy(_VALID), data.draw)))
    _assert_rejected(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["states"][0].__setitem__("energy", math.inf),
    lambda doc: doc.__setitem__("edges", [[1]]),
    lambda doc: doc["states"][0].__setitem__("id", True),
    lambda doc: doc["states"][0].__setitem__("id", "1"),
    lambda doc: doc["states"][0].__setitem__("coord", [0.0]),
], ids=["infinite-energy", "short-edge", "bool-id", "string-id", "ragged-coord"])
def test_named_malformed_files(fuzz_dir, edit):
    doc = copy.deepcopy(_VALID)
    edit(doc)
    path = fuzz_dir / "named.json"
    path.write_text(json.dumps(doc))
    _assert_rejected(path)


def test_neighbors_and_edges_together_rejected(fuzz_dir):
    # one adjacency format or the other: given both, the loader would read
    # the neighbours alone and drop the edge (0, 2) unseen
    doc = {"states": [{"id": 0, "energy": 0.0, "neighbors": [1]},
                      {"id": 1, "energy": 1.0, "neighbors": [0, 2]},
                      {"id": 2, "energy": 2.0, "neighbors": [1]}],
           "edges": [[0, 2]]}
    path = fuzz_dir / "both.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LandscapeError, match='per-state "neighbors" or top-level "edges"'):
        load_landscape(path)
    _assert_rejected(path)
    del doc["edges"]
    path.write_text(json.dumps(doc))
    assert load_landscape(path).neighbors == ((1,), (0, 2), (1,))


@settings(max_examples=15, deadline=None)
@given(cut=st.integers(0, 60))
def test_truncated_or_undecodable_file_fails_with_landscape_error(fuzz_dir, cut):
    path = fuzz_dir / "raw.json"
    path.write_text(json.dumps(_VALID)[:cut])
    _assert_rejected(path)
    path.write_bytes(b"\xff\xfe" + json.dumps(_VALID).encode()[:cut])
    _assert_rejected(path)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6)
_label = st.integers(0, 3) | _json
_state = st.fixed_dictionaries(
    {"id": _label, "energy": st.floats() | _json},
    optional={"coord": st.lists(st.floats(), max_size=2) | _json,
              "neighbors": st.lists(_label, max_size=3) | _json})
_document = _json | st.fixed_dictionaries(
    {"states": st.lists(_state, max_size=4) | _json},
    optional={"edges": st.lists(st.lists(_label, max_size=3), max_size=4) | _json})


@settings(max_examples=300, deadline=None)
@given(doc=_document)
def test_load_accepts_a_valid_landscape_or_raises_landscape_error(fuzz_dir, doc):
    path = fuzz_dir / "any.json"
    path.write_text(json.dumps(doc))
    try:
        l = load_landscape(path)
    except LandscapeError:
        return
    assert validate(l).ok
