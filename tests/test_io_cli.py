import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit.algebras import (
    Representation,
    check_matched_pair,
    dual_representation,
    regular_representation,
    semidirect_sum,
)
from leibnizkit.catalog import catalog_names, load_catalog
from leibnizkit.errors import ParseError
from leibnizkit.io import load_spec, parse_spec, serialize_spec
from leibnizkit.operators import lifted_algebra
from leibnizkit.pairs import dual_kn_from_compatible

CATALOG_DIR = Path(__file__).resolve().parent.parent / "src" / "leibnizkit" / "catalog"


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "leibnizkit", *args],
        capture_output=True, text=True, **kw,
    )


def test_catalog_derived_objects_match_constructions():
    """Golden check: each derived catalog object equals what the library
    constructs from the same entry's base objects."""
    cat = load_catalog()
    l2 = cat["l2"].spec
    alg, regular, dual = l2.build("alg"), l2.rep_for("regular"), l2.rep_for("dual")

    def same_rep(a, b):
        return a.algebra == b.algebra and a.rhoL == b.rhoL and a.rhoR == b.rhoR

    assert same_rep(regular, regular_representation(alg))
    assert same_rep(dual, dual_representation(regular))
    Bsharp, NBsharp = l2.build("Bsharp"), l2.build("NBsharp")
    assert NBsharp.matrix == l2.build("NpIqE").matrix * Bsharp.matrix
    kn, packaged = dual_kn_from_compatible(Bsharp, NBsharp, dual)[0], l2.build("kn_dual")
    assert (kn.K.matrix, kn.N, kn.S) == (packaged.K.matrix, packaged.N, packaged.S)
    assert l2.build("lift") == lifted_algebra(l2.build("R"), regular)
    assert cat["sum4"].spec.build("alg") == semidirect_sum(regular)
    assert cat["quad4"].spec.build("alg") == semidirect_sum(dual)
    zero = Representation.zero(alg, 2)
    assert cat["prod4"].spec.build("alg") == check_matched_pair(alg, alg, zero, zero)[1]


@pytest.mark.parametrize("name", catalog_names())
def test_round_trip_byte_stable(name):
    text = (CATALOG_DIR / f"{name}.json").read_text("utf-8")
    once = serialize_spec(parse_spec(text))
    twice = serialize_spec(parse_spec(once))
    assert once == twice
    assert once == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_spec("not json")
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"schema": "other/1", "objects": {}}))
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"schema": "leibniz-spec/1",
                               "objects": {"x": {"type": "widget"}}}))


def test_scalar_strings_survive():
    doc = {
        "schema": "leibniz-spec/1",
        "field": "Q",
        "objects": {
            "alg": {"type": "algebra", "dim": 1, "c": [[["-1/2"]]]},
        },
    }
    spec = parse_spec(json.dumps(doc))
    alg = spec.build("alg")
    assert str(alg.c[0][0][0]) == "-1/2"
    assert '"-1/2"' in serialize_spec(spec)


def test_cli_check_ok():
    out = run_cli("check", str(CATALOG_DIR / "l2.json"), "alg", "leibniz")
    assert out.returncode == 0
    assert "ok" in out.stdout


def test_cli_check_paper_operator():
    out = run_cli("check", str(CATALOG_DIR / "l2.json"), "R", "rota-baxter")
    assert out.returncode == 0


def test_cli_check_failure_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "schema": "leibniz-spec/1",
        "field": "Q",
        "objects": {"alg": {"type": "algebra", "dim": 1, "c": [[["1"]]]}},
    }))
    out = run_cli("check", str(broken), "alg", "leibniz")
    assert out.returncode == 1
    assert "(0, 0, 0)" in out.stdout


def test_cli_usage_errors(tmp_path):
    missing = run_cli("check", str(tmp_path / "nope.json"), "alg", "leibniz")
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("check", str(bad), "alg", "leibniz").returncode == 2
    unknown_check = run_cli("check", str(CATALOG_DIR / "l2.json"), "alg", "frobnicate")
    assert unknown_check.returncode == 2
    unknown_obj = run_cli("check", str(CATALOG_DIR / "l2.json"), "nope", "leibniz")
    assert unknown_obj.returncode == 2


@pytest.mark.parametrize("argv", [
    ("check", "l2.json", "R", "compatible"),
    ("check", "l2.json", "N23", "nk-condition"),
    ("check", "l2.json", "N23", "nijenhuis-pair"),
    ("check", "l2.json", "theta0", "maurer-cartan"),
    ("check", "l2.json", "R", "rbn-structure"),
    ("check", "l2.json", "B", "transfer"),
    ("search", "l2.json", "--predicate", "nijenhuis", "--field", "F2", "--shape", "2x"),
])
def test_cli_missing_or_malformed_flag_is_usage_error(argv):
    command, file, *rest = argv
    out = run_cli(command, str(CATALOG_DIR / file), *rest)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


def test_cli_check_json_format():
    out = run_cli("check", str(CATALOG_DIR / "l2_single.json"), "R", "rota-baxter",
                  "--format", "json")
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["ok"] is False
    assert payload["violations"][0]["identity"] == "rota-baxter"


def test_cli_construct_subadjacent():
    out = run_cli("construct", str(CATALOG_DIR / "l2.json"), "subadjacent", "--K", "R")
    assert out.returncode == 0
    spec = parse_spec(out.stdout)
    alg = spec.build("subadjacent")
    assert alg.bracket_basis(1, 1) == (-1, 0)
    assert alg.bracket_basis(1, 0) == (-1, 0)
    assert spec.raw["subadjacent"]["verified"] is True


def test_cli_construct_dual_rep():
    out = run_cli("construct", str(CATALOG_DIR / "l2.json"), "dual-rep", "--rep", "regular")
    assert out.returncode == 0
    spec = parse_spec(out.stdout)
    rep = spec.rep_for("dual_rep")
    assert rep.rhoL[1].entries == ((-1, 0), (-1, 0))


def test_cli_construct_deformed_zero():
    out = run_cli("construct", str(CATALOG_DIR / "l2.json"), "deformed", "--N", "zero")
    assert out.returncode == 0
    spec = parse_spec(out.stdout)
    alg = spec.build("deformed")
    assert all(v == 0 for row in alg.c for vec in row for v in vec)


def test_cli_construct_failure_suppresses_output():
    out = run_cli("construct", str(CATALOG_DIR / "l2.json"), "subadjacent", "--K", "ident")
    assert out.returncode == 1
    assert out.stdout == ""


def test_cli_search_counts_and_determinism():
    args = ("search", str(CATALOG_DIR / "l2.json"), "--predicate", "nijenhuis",
            "--field", "F2")
    first = run_cli(*args, "--workers", "1")
    second = run_cli(*args, "--workers", "3")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == 6


def test_cli_search_rb_abelian():
    out = run_cli("search", str(CATALOG_DIR / "abelian2.json"),
                  "--predicate", "rota-baxter", "--field", "F2")
    assert json.loads(out.stdout)["count"] == 16


def test_cli_search_budget_exceeded():
    out = run_cli("search", str(CATALOG_DIR / "l2.json"), "--predicate", "kupershmidt",
                  "--rep", "regular", "--field", "F5", "--budget", "10")
    assert out.returncode == 1
    assert "BudgetExceeded" in out.stderr


def test_cli_suite_entry():
    out = run_cli("suite", "l2_single")
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_cli_suite_unknown():
    assert run_cli("suite", "no-such-suite").returncode == 2


def test_cli_suite_json():
    out = run_cli("suite", "kn-consequences", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ok"] is True
    assert payload["suites"]["kn-consequences"]["failed"] == 0


@pytest.mark.parametrize("extra, code, message", [
    (("--predicate", "bn-pair"), 1,
     "search failed: ShapeMismatch: exhaustive enumeration needs a prime field\n"),
    (("--predicate", "nijenhuis", "--field", "F3", "--shape", "2x-1"), 2,
     "error: --shape must look like 2x3, got '2x-1'\n"),
    (("--predicate", "nijenhuis", "--field", "F3", "--shape", "99x99"), 1,
     "search failed: BudgetExceeded: 3^9801 candidates exceed budget 1000000\n"),
])
def test_cli_search_bad_space_is_one_line(extra, code, message):
    """A rational bn-pair search, a negative shape and a space too large to
    print each end in one line on stderr, not a traceback."""
    out = run_cli("search", str(CATALOG_DIR / "l2.json"), *extra)
    assert (out.returncode, out.stdout, out.stderr) == (code, "", message)


@settings(max_examples=60, deadline=None)
@given(
    predicate=st.sampled_from(["kupershmidt", "nijenhuis", "rota-baxter", "mc-strong",
                               "bn-pair"]),
    target=st.sampled_from([(), ("--rep", "regular"), ("--rep", "dual"),
                            ("--ctx", "tw_lift"), ("--rep", "nosuch")]),
    field=st.sampled_from(["Q", "F2", "F3", "F4", "junk"]),
    shape=st.sampled_from([None, "2x2", "1x2", "0x0", "2x", "x3", "2x3x4", "abc", "",
                           "-1x2", "2x-1", "99x99", "99999999999x99999999999"]),
    budget=st.integers(-5, 300),
    workers=st.integers(-3, 10 ** 6),
)
def test_cli_search_fuzz_never_raises(predicate, target, field, shape, budget, workers):
    """Any search argv ends with an exit code of 0, 1 or 2, never an exception."""
    from leibnizkit import cli

    argv = ["search", str(CATALOG_DIR / "l2.json"), "--predicate", predicate, *target,
            "--field", field, "--budget", str(budget), "--workers", str(workers)]
    if shape is not None:
        argv += ["--shape", shape]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2)


_ALG1 = '"alg": {"type": "algebra", "dim": 1, "c": [[["0"]]]}'


@pytest.mark.parametrize("field, objects, target", [
    ('7', '{}', "alg"),
    ('null', '{}', "alg"),
    ('"F1000000000000000000000000000057"', '{}', "alg"),
    ('"Q"', '{"alg": null}', "alg"),
    ('"Q"', '{"alg": [1, 2]}', "alg"),
    ('"Q"', '{"alg": {"type": "algebra", "dim": [], "c": []}}', "alg"),
    ('"Q"', '{%s, "phi": {"type": "cochain", "algebra": "alg", "arity": 100000, '
            '"coeffs": ["0"]}}' % _ALG1, "phi"),
])
def test_cli_check_malformed_spec_is_usage_error(tmp_path, field, objects, target):
    """A non-string or oversized field tag, a non-object entry under
    "objects", a non-integer size and cochain coefficients nested less deep
    than the arity end in exit 2 and one line on stderr."""
    spec = tmp_path / "bad.json"
    spec.write_text(f'{{"schema": "leibniz-spec/1", "field": {field}, "objects": {objects}}}')
    out = run_cli("check", str(spec), target, "leibniz", timeout=10)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


# JSON text, so that each draw is a fresh object the mutations may change
_JUNK = st.sampled_from(['null', 'true', '0', '7', '-1', '1' + '0' * 30, '""', '"x"', '"1/0"',
                         '"F4"', '[]', '{}', '[[]]', '[["1"]]', '{"type": "algebra"}']).map(json.loads)


@st.composite
def _mutated_spec(draw):
    """A catalog document with one to three keys replaced, deleted or renamed,
    plus the argv of one of its expected verdicts."""
    name = draw(st.sampled_from(["l2.json", "heis3.json", "l2_f2.json", "sum4.json"]))
    doc = json.loads((CATALOG_DIR / name).read_text())
    verdict = draw(st.sampled_from(doc["expected"]))
    argv = [verdict["object"], verdict["check"]]
    for key, val in sorted(verdict.get("args", {}).items()):
        argv += [f"--{key}", val]
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            action = draw(st.sampled_from(["replace", "delete", "rename"]))
            if action == "replace" or isinstance(node, list):
                node[key] = draw(_JUNK)
            elif action == "delete":
                del node[key]
            else:
                node[key + "_"] = node.pop(key)
            break
    return doc, argv


@settings(max_examples=150, deadline=None)
@given(case=_mutated_spec())
def test_cli_check_malformed_spec_fuzz_never_raises(tmp_path_factory, case):
    """`check` on a catalog spec with mutated keys ends with an exit code of
    0, 1 or 2, never an exception."""
    from leibnizkit import cli

    doc, argv = case
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["check", str(spec), *argv]) in (0, 1, 2)
