"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines, or via
``metabasins verify``.
"""

import pytest

from metabasins import verify
from metabasins.verifydata import FixtureSet


@pytest.fixture(scope="module")
def fx():
    return FixtureSet.build()


def _run(fx, name, **kwargs):
    result = verify.CRITERIA[name](fx, **kwargs)
    print(f"{'PASS' if result.passed else 'FAIL'}  {name}")
    assert result.passed, result.details
    return result


def test_c01_saddle_oracle(fx):
    r = _run(fx, "saddle-oracle")
    assert r.details["mismatches"] == 0
    assert r.details["pairs_checked"] > 4000


def test_c02_valley_oracle(fx):
    r = _run(fx, "valley-oracle")
    assert r.details["instances"] == 100


def test_c03_golden_fixtures(fx):
    _run(fx, "golden-fixtures")


def test_c04_exact_identities(fx):
    r = _run(fx, "exact-identities")
    assert r.details["one_dimensional_residual"] <= 1e-10
    assert r.details["splitting_residual"] <= 1e-10


def test_c05_bound_domination(fx):
    r = _run(fx, "bound-domination")
    assert r.details["violations"] == 0


def test_c06_exit_time_slope(fx):
    r = _run(fx, "exit-time-slope")
    for slope in r.details["slopes"].values():
        assert abs(slope - 6.0) <= 0.6


def test_c07_spectral(fx):
    r = _run(fx, "spectral")
    assert r.details["geometric_residual"] <= 1e-8


def test_c08_aac_convergence(fx):
    _run(fx, "aac-convergence")


def test_c09_transition_exponents(fx):
    r = _run(fx, "transition-exponents")
    assert r.details["pairs_tested"] >= 10


def test_c10_scattering(fx):
    _run(fx, "scattering")


def test_c11_pd_vs_pid(fx):
    r = _run(fx, "pd-vs-pid")
    assert r.details["mb_level"] == 5
    assert r.details["mc_agreement"] and r.details["domination"]


def test_c12_reciprocating(fx):
    r = _run(fx, "reciprocating-jumps")
    assert r.details["witness_level1"] == [0, 2]
    assert r.details["return_freq_mb_level"] < r.details["return_freq_level1"]


@pytest.mark.parametrize("only", [{"aac", ""}, {""}])
def test_run_acceptance_rejects_empty_token(monkeypatch, only):
    # an empty token is part of every criterion name; it is refused before
    # any fixture is built
    monkeypatch.setattr(verify.FixtureSet, "build", lambda: pytest.fail("fixtures built"))
    with pytest.raises(ValueError, match="no criterion matches ''"):
        verify.run_acceptance(only=only, beta_grid=None)
