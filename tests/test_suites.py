"""The theorem suites: their counts and output bytes, and the runner of the
suites that check one assertion per case."""

import hashlib
from pathlib import Path

import pytest

from leibnizkit import suites
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import LeibnizKitError, Singular
from leibnizkit.suites import SUITES, run_suites

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_suite_counts_match_the_benchmark_reference(monkeypatch):
    """Every suite passes, with as many checks as ``bench/reference.json``
    records for it."""
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import load_reference

    reference = load_reference()["suites"]
    results = run_suites(load_catalog())
    assert sorted(reference) == sorted(SUITES) == [r.name for r in results]
    assert {r.name: (r.passed, r.failures) for r in results} == {
        name: (passed, []) for name, passed in reference.items()}


@pytest.mark.parametrize("extra, digest", [
    ((), "5848736ae9be19a3b9f8c191d9ab5d3b745ba8a0edd94b79dacbfb2e302a661d"),
    (("--format", "json"), "900d8103589214f79d8d0e2d8d4b284d58bbaf5e6e34e9420b5dc0a305344d3d"),
])
def test_suite_stdout_is_pinned(capsys, extra, digest):
    """The bytes that ``suite --all`` prints have a pinned sha256."""
    from leibnizkit import cli

    assert cli.main(["suite", "--all", *extra]) == 0
    out = capsys.readouterr()
    assert out.err == "" and hashlib.sha256(out.out.encode()).hexdigest() == digest


def _holds(value):
    if value == "singular":
        raise Singular("K is not invertible")
    if value == "value":
        raise ValueError("not a library error")
    return value


def test_case_runner_records_each_failure_and_goes_on():
    """A case whose assertion returns False fails with its label; one whose
    assertion raises a LeibnizKitError fails with the label, the error's
    type and its message, and the cases after it still run; only the cases
    that pass are counted."""
    seen = []

    def cases(l2):
        seen.append(l2.build("alg"))
        return [("a", True), ("b", False), ("c", "singular"), ("d", True)]

    result = suites._run_cases("demo", cases, _holds, load_catalog())
    assert len(seen) == 1
    assert (result.name, result.passed) == ("demo", 2)
    assert result.failures == ["b", "c: Singular: K is not invertible"]
    assert not result.ok
    assert issubclass(Singular, LeibnizKitError)


def test_case_runner_lets_other_exceptions_through():
    """An exception that is not a LeibnizKitError is a fault in the suite,
    not a failed case: it propagates."""
    with pytest.raises(ValueError, match="not a library error"):
        suites._run_cases("demo", lambda l2: [("a", True), ("b", "value")], _holds,
                          load_catalog())


def test_case_runner_counts_only_an_assertion_that_returns_true():
    """An assertion that returns None or 1 fails its case under its label,
    as one that returns False does; one that raises a LeibnizKitError still
    fails with the label, the error's type and its message."""
    cases = [("none", None), ("one", 1), ("true", True), ("false", False), ("raised", "singular")]
    result = suites._run_cases("demo", lambda l2: cases, _holds, load_catalog())
    assert result.passed == 1
    assert result.failures == ["none", "one", "false", "raised: Singular: K is not invertible"]
