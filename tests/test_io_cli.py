import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit.algebras import Representation, dual_representation, regular_representation
from leibnizkit.catalog import catalog_names, load_catalog
from leibnizkit.checks import _resolve_rep, run_check
from leibnizkit.cli import CONSTRUCTIONS
from leibnizkit.errors import BROKEN_PIPE, INTERRUPTED, ParseError
from leibnizkit.io import load_spec, parse_spec, serialize_spec
from leibnizkit.operators import deformed_bracket
from leibnizkit.pairs import dual_kn_from_compatible
from leibnizkit.twilled import check_matched_pair, lifted_algebra, semidirect_sum

CATALOG_DIR = Path(__file__).resolve().parent.parent / "src" / "leibnizkit" / "catalog"
_L2 = str(CATALOG_DIR / "l2.json")


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


_T = {"type": "tensor2", "algebra": "a", "matrix": [["0"]]}


@pytest.mark.parametrize("obj, message", [
    ({"type": "algebra", "c": [[["0"]]]}, "x: missing key 'dim'"),
    ({"type": "algebra", "dim": "1", "c": [[["0"]]]},
     "x: 'dim' must be a nonnegative integer, got '1'"),
    ({"type": "algebra", "dim": True, "c": [[["0"]]]},
     "x: 'dim' must be a nonnegative integer, got True"),
    ({"type": "algebra", "dim": -1, "c": [[["0"]]]},
     "x: 'dim' must be a nonnegative integer, got -1"),
    ({"type": "algebra", "dim": 1, "c": [["0"]]}, "x: 'c' must be scalars nested 3 lists deep"),
    ({"type": "algebra", "dim": 1, "c": [[[["0"]]]]},
     "x: 'c' must be scalars nested 3 lists deep"),
    ({"type": "algebra", "dim": 1, "c": [[["0"]]], "verified": "yes"},
     "x: 'verified' must be true or false, got 'yes'"),
    ({"type": "operator", "matrix": [["0"]], "domain": None},
     "x: 'domain' must be a string, got None"),
    ({"type": "operator", "matrix": ["0"]}, "x: 'matrix' must be scalars nested 2 lists deep"),
    ({**_T, "algebra": 7}, "x: 'algebra' must be a string, got 7"),
    ({**_T, "type": "form", "symmetry": "hermitian"},
     "x: 'symmetry' must be one of 'symmetric', 'skew', got 'hermitian'"),
    ({"type": "kn", "algebra": "a", "K": [["0"]], "N": [["0"]], "S": [["0"]], "mode": 7},
     "x: 'mode' must be one of 'kn', 'dual-kn', got 7"),
    ({"type": "kn", "algebra": "a", "rep": [], "K": [["0"]], "N": [["0"]], "S": [["0"]]},
     "x: 'rep' must be a string, got []"),
    ({"type": "cochain", "algebra": "a", "arity": 2, "coeffs": [["0"]]},
     "x: 'coeffs' must be scalars nested 3 lists deep"),
    ({"type": "twilled", "algebra": "a", "n1": "2", "n2": 0},
     "x: 'n1' must be a nonnegative integer, got '2'"),
    ({**_T, "symmetry": "symmetric"}, "x: unknown key 'symmetry'"),
    ({"type": "operator", "matrix": [["0"]], "matirx": [["1"]]}, "x: unknown key 'matirx'"),
])
def test_parse_spec_checks_every_key_against_the_table(obj, message):
    """Each key holds what the format table says, checked when the file is
    parsed, before any object is built (no object "a" exists here)."""
    with pytest.raises(ParseError) as exc:
        parse_spec(json.dumps({"schema": "leibniz-spec/1", "objects": {"x": obj}}))
    assert str(exc.value) == message


def test_cli_check_misspelled_optional_key_is_usage_error(tmp_path, capsys):
    """A misspelled optional key is refused, not read as its default: with
    q_skew's "symmetry" written "symetry", the form would read as symmetric
    and fail the skew precondition."""
    from leibnizkit import cli

    doc = json.loads(Path(_L2).read_text())
    form = doc["objects"]["q_skew"]
    form["symetry"] = form.pop("symmetry")
    path = tmp_path / "l2_typo.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "q_skew", "quadratic"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: q_skew: unknown key 'symetry'\n"


_V = {"object": "alg", "check": "leibniz", "ok": True}


@pytest.mark.parametrize("doc, message", [
    ({"feild": "F3"}, "unknown top-level key 'feild'"),
    ({"expected": {}}, "'expected' must be a list of verdicts"),
    ({"expected": [_V, "alg"]}, "expected[1] must be a JSON object"),
    ({"expected": [_V, {**_V, "chek": "leibniz"}]}, "expected[1]: unknown key 'chek'"),
    ({"expected": [{**_V, "type": "algebra"}]}, "expected[0]: unknown key 'type'"),
    ({"expected": [{"object": "alg", "ok": True}]}, "expected[0]: missing key 'check'"),
    ({"expected": [{**_V, "object": 1}]}, "expected[0]: 'object' must be a string, got 1"),
    ({"expected": [{**_V, "check": None}]}, "expected[0]: 'check' must be a string, got None"),
    ({"expected": [{**_V, "ok": "true"}]},
     "expected[0]: 'ok' must be true or false, got 'true'"),
    ({"expected": [{**_V, "args": {"rep": 1}}]},
     "expected[0]: 'args' must be a map of strings to strings, got {'rep': 1}"),
    ({"expected": [{**_V, "args": ["rep"]}]},
     "expected[0]: 'args' must be a map of strings to strings, got ['rep']"),
    ({"expected": [{**_V, "precondition_fails": 1}]},
     "expected[0]: 'precondition_fails' must be true or false, got 1"),
])
def test_parse_spec_checks_file_and_verdict_keys(doc, message):
    """The file's own keys and each key of each expected verdict are
    checked against their tables when the file is parsed."""
    with pytest.raises(ParseError) as exc:
        parse_spec(json.dumps({"schema": "leibniz-spec/1", "objects": {}, **doc}))
    assert str(exc.value) == message
    verdict = {**_V, "args": {"rep": "regular"}, "precondition_fails": False}
    assert parse_spec(json.dumps({"schema": "leibniz-spec/1", "field": "F3",
                                  "expected": [verdict]})).expected == [verdict]


def _f3_file(tmp_path, **changes):
    """A file over F3 holding l2's algebra, its symmetric form B, and R = 3 id,
    which is zero over F3 and so Rota-Baxter there, but not Rota-Baxter over
    Q; ``changes`` replace top-level keys (None drops one)."""
    l2 = json.loads(Path(_L2).read_text())
    doc = {"schema": l2["schema"], "field": "F3", "objects": {
        "alg": l2["objects"]["alg"], "B": l2["objects"]["B"],
        "R": {"type": "operator", "matrix": [["3", "0"], ["0", "3"]],
              "domain": "algebra:alg", "codomain": "algebra:alg"}},
        "expected": [{"object": "R", "check": "rota-baxter", "ok": True}]}
    doc.update(changes)
    path = tmp_path / "f3.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return str(path)


def test_cli_check_misspelled_field_is_usage_error(tmp_path, capsys):
    """A misspelled ``field`` is refused, not read as Q, where the verdict
    differs; so is a misspelled key of an expected verdict."""
    from leibnizkit import cli

    assert cli.main(["check", _f3_file(tmp_path), "R", "rota-baxter"]) == 0
    assert cli.main(["check", _f3_file(tmp_path, field="Q"), "R", "rota-baxter"]) == 1
    capsys.readouterr()
    for changes, err in [
        ({"field": None, "feild": "F3"}, "error: unknown top-level key 'feild'\n"),
        ({"expected": [{"object": "R", "chek": "rota-baxter", "ok": True}]},
         "error: expected[0]: unknown key 'chek'\n"),
    ]:
        assert cli.main(["check", _f3_file(tmp_path, **changes), "R", "rota-baxter"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == err


def test_expected_verdict_may_record_a_failing_precondition(tmp_path):
    """``precondition_fails`` marks a verdict whose check raises instead of
    reporting: the expected-verdicts suite passes it only with the mark."""
    from leibnizkit.catalog import CatalogEntry
    from leibnizkit.suites import suite_expected_verdicts

    raising = {"object": "B", "check": "quadratic", "ok": False}  # NotSkew
    for mark, passed in [({"precondition_fails": True}, 1), ({}, 0)]:
        spec = load_spec(_f3_file(tmp_path, expected=[{**raising, **mark}]))
        res = suite_expected_verdicts({"f3": CatalogEntry("f3", spec)})
        assert (res.passed, len(res.failures)) == (passed, 1 - passed)


def test_cochain_of_any_arity_is_read_without_forming_its_size():
    """A cochain whose coefficients hold no entry parses, serializes and is
    refused by build at once, however large its arity: neither the walk over
    its coefficients nor the size check forms dim ** arity."""
    zero = [["0", "0"], ["0", "0"]]
    spec = parse_spec(json.dumps({"schema": "leibniz-spec/1", "objects": {
        "alg": {"type": "algebra", "dim": 2, "c": [zero, zero]},
        "phi": {"type": "cochain", "algebra": "alg", "arity": 10 ** 30, "coeffs": [[]]}}}))
    assert json.loads(serialize_spec(spec))["objects"]["phi"]["coeffs"] == [[]]
    with pytest.raises(ParseError, match=r"^phi: expected 2\^1(0{30}) entries, got 0$"):
        spec.build("phi")


def test_build_looks_objects_up_by_kind_before_building():
    """build(name, kind) refuses a name of another kind without building it,
    and a reference to an object of the wrong kind, the referring object
    itself included, is a ParseError rather than a crash or a recursion."""
    doc = json.loads(Path(_L2).read_text())
    spec = parse_spec(json.dumps(doc))
    with pytest.raises(ParseError, match="^'R' is not an algebra$"):
        spec.build("R", "algebra")
    assert spec._cache == {}
    doc["objects"]["dual"]["algebra"] = "dual"
    doc["objects"]["pi0"]["algebra"] = "R"
    doc["objects"]["kn_dual"]["rep"] = "alg"
    spec = parse_spec(json.dumps(doc))
    for name, message in (("dual", "'dual' is not an algebra"), ("pi0", "'R' is not an algebra"),
                          ("kn_dual", "'alg' is not a representation")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            spec.build(name)


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


def _subparsers(parser) -> dict:
    """command -> its parser, of the program's parser."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_a_run_builds_the_arguments_of_its_command_only():
    """``main`` builds the arguments of the command it runs, and the
    program's help lists the commands without theirs."""
    from leibnizkit import cli

    built = {name: [action.dest for action in p._actions]
             for name, p in _subparsers(cli.build_parser("check")).items()}
    assert built["check"][:4] == ["help", "file", "object", "check"]
    assert {name: dests for name, dests in built.items() if name != "check"} == {
        "construct": ["help"], "search": ["help"], "suite": ["help"]}
    assert all(len(p._actions) > 1 for p in _subparsers(cli.build_parser()).values())
    assert [cli._command(argv) for argv in (
        [], ["-h"], ["check", "x"], ["--foo", "search"], ["-", "check"], ["--", "--", "x"],
        ["-1", "suite"])] == ["", "", "check", "search", "-", "--", "suite"]


# The program's and each command's help, and usage errors: no arguments, an
# unknown command, an option before the command, a bad choice, a missing or
# malformed value, an unknown option; and runs that parse.
_PARSER_GRID = [
    [], ["-h"], ["--help", "check"], ["check", "-h"], ["construct", "--help"], ["search", "-h"],
    ["suite", "-h"], ["bogus"], ["chec", _L2], ["--format", "json", "check", _L2, "R", "kupershmidt"],
    ["--rep", "regular", "check"], ["-1", "check", _L2, "R", "kupershmidt"], ["-", "check"],
    ["--", "check", _L2, "alg", "leibniz"], ["check"], ["check", _L2, "R", "frobnicate"],
    ["check", _L2, "R", "kupershmidt", "--format", "xml"], ["check", _L2, "R", "kupershmidt", "-x"],
    ["construct", _L2, "nope"], ["search", _L2], ["search", _L2, "--predicate", "bad"],
    ["search", _L2, "--predicate", "nijenhuis", "--budget", "many"], ["suite", "--format", "xml"],
    ["check", _L2, "R", "kupershmidt", "--rep", "regular", "--no-con"],
    ["construct", _L2, "lifted", "--K", "R"], ["search", _L2, "--pred", "bn-pair", "--field", "F2"],
    ["suite", "--all", "--format", "json"],
]


def _parsed(parser, argv):
    """What parsing ``argv`` returns or exits with, and prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSER_GRID)
def test_building_only_the_command_run_changes_no_parse(argv):
    """Building the arguments of the command ``main`` runs only changes no
    help text, usage error, exit code or parsed value."""
    from leibnizkit import cli

    assert _parsed(cli.build_parser(cli._command(argv)), argv) == _parsed(cli.build_parser(), argv)


def test_cli_spec_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    """check, construct and search each read a file that is not UTF-8 text
    as a usage error with one line, not a traceback."""
    from leibnizkit import cli

    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "leibniz-spec/1", "objects": {"\xe9": {}}}')
    for argv in (["check", str(path), "alg", "leibniz"],
                 ["construct", str(path), "dual-rep", "--rep", "r"],
                 ["search", str(path), "--predicate", "nijenhuis"]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: not UTF-8 text: ")
        assert out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check", "l2.json", "R", "compatible"),
    ("check", "l2.json", "N23", "nk-condition"),
    ("check", "l2.json", "N23", "nijenhuis-pair"),
    ("check", "l2.json", "theta0", "maurer-cartan"),
    ("check", "l2.json", "R", "rbn-structure"),
    ("check", "l2.json", "B", "transfer"),
    ("search", "l2.json", "--predicate", "nijenhuis", "--field", "F2", "--budget", "2x"),
    # no construction reads --S
    ("construct", "l2.json", "semidirect", "--rep", "regular", "--S", "x"),
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


@pytest.mark.parametrize("construction", ["subadjacent", "lifted"])
def test_cli_algebra_tagged_operator_resolves_the_regular_representation(capsys, construction):
    """R is tagged ``algebra:alg`` on both sides and l2.json has two
    representations: with no --rep, construct acts through the regular one."""
    from leibnizkit import cli

    path = str(CATALOG_DIR / "l2.json")
    outs = []
    for extra in ([], ["--rep", "regular"]):
        assert cli.main(["construct", path, construction, "--K", "R", *extra]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].out and not outs[0].err


def test_check_and_construct_resolve_representations_alike():
    """One resolver serves check and construct: a module: domain names its
    representation, dual: the dual of the regular one, algebra: the regular
    one, and --rep overrides the tags."""
    spec = load_catalog()["l2"].spec
    regular, dual = spec.rep_for("regular"), spec.rep_for("dual")

    def actions(rep):
        return rep.rhoL, rep.rhoR

    for op, rep in (("R", regular), ("theta0", regular), ("Bsharp", dual)):
        assert actions(_resolve_rep(spec, None, spec.build(op))) == actions(rep)
    assert actions(_resolve_rep(spec, "dual", spec.build("R"))) == actions(dual)
    with pytest.raises(ParseError, match="ambiguous representation"):
        _resolve_rep(spec, None, None)
    for op in ("R", "ident"):
        tagged = run_check(spec, op, "kupershmidt")
        named = run_check(spec, op, "kupershmidt", {"rep": "regular"})
        assert (tagged.ok, tagged.violations) == (named.ok, named.violations)


@pytest.mark.parametrize("key, tag, message", [
    ("domain", "dual:R", "'R' is not an algebra"),
    ("codomain", "algebra:regular", "'regular' is not an algebra"),
    ("domain", "module:alg", "'alg' is not a representation"),
])
def test_cli_operator_tag_naming_the_wrong_kind_is_usage_error(tmp_path, capsys, key, tag,
                                                                message):
    """The object a dual: or algebra: tag names is looked up as an algebra,
    and a module: tag's as a representation: on a copy of l2.json, check R
    kupershmidt exits 2 with one line."""
    from leibnizkit import cli

    doc = json.loads(Path(_L2).read_text())
    doc["objects"]["R"][key] = tag
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "R", "kupershmidt"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_kn_structure_without_a_representation_is_one_usage_error(tmp_path, capsys):
    """With no rep key on the KN object and no --rep, check kn-structure and
    construct mc-from-dual-kn each exit 2 with one line; --rep supplies it."""
    from leibnizkit import cli

    doc = json.loads(Path(_L2).read_text())
    del doc["objects"]["kn_dual"]["rep"]
    path = tmp_path / "no_rep.json"
    path.write_text(json.dumps(doc))
    for argv, message in (
        (["check", str(path), "kn_dual", "kn-structure"],
         "kn-structure check needs a representation"),
        (["construct", str(path), "mc-from-dual-kn", "--kn", "kn_dual"],
         "construction 'mc-from-dual-kn' needs --rep"),
    ):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"
        assert cli.main(argv + ["--rep", "dual"]) == 0
        assert capsys.readouterr().err == ""


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


def test_cli_construct_deformed_builds_the_bracket_once(monkeypatch, capsys):
    from leibnizkit import cli, commands

    calls = []

    def counted(*args):
        calls.append(args)
        return deformed_bracket(*args)

    monkeypatch.setattr(commands, "deformed_bracket", counted)
    assert cli.main(["construct", str(CATALOG_DIR / "l2.json"), "deformed", "--N", "N23"]) == 0
    assert len(calls) == 1
    spec = parse_spec(capsys.readouterr().out)
    assert spec.raw["deformed"]["verified"] is True
    assert spec.build("deformed") == deformed_bracket(*calls[0])


def _constructed(capsys, *argv, source=_L2):
    """The objects that construct emits on ``source`` (l2.json), after
    checking that its output parses back and re-serializes byte for byte."""
    from leibnizkit import cli

    assert cli.main(["construct", str(source), *argv]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert serialize_spec(parse_spec(out.out)) == out.out
    return json.loads(out.out)["objects"]


# an argv of each construction that exits 0
_CONSTRUCT_ARGV = [
    ("dual-rep", "--rep", "regular"),
    ("semidirect", "--rep", "regular"),
    ("subadjacent", "--K", "R"),
    ("lifted", "--K", "R"),
    ("deformed", "--N", "N23"),
    ("theta-twist", "--K", "R", "--theta", "theta_strong"),
    ("dual-kn-from-mc", "--K", "R", "--theta", "theta_strong", "--rep", "regular"),
    ("mc-from-dual-kn", "--kn", "kn_dual"),
    ("sharp", "--pi", "pi0"),
    ("dual-kn-from-compatible", "--K1", "Bsharp", "--K2", "NBsharp", "--rep", "dual"),
]


@pytest.mark.parametrize("argv", _CONSTRUCT_ARGV, ids=lambda argv: argv[0])
def test_cli_construct_output_parses_back(capsys, argv):
    """Every construction emits only keys of the format table, so its output
    parses back (and re-serializes byte for byte) under the unknown-key
    check."""
    assert _constructed(capsys, *argv)


# the flags each construction reads
_CONSTRUCT_READS = {
    "dual-rep": {"rep"}, "semidirect": {"rep"}, "subadjacent": {"K", "rep"},
    "lifted": {"K", "rep"}, "deformed": {"N", "algebra"}, "theta-twist": {"K", "theta", "rep"},
    "dual-kn-from-mc": {"K", "theta", "rep"}, "mc-from-dual-kn": {"kn", "rep"}, "sharp": {"pi"},
    "dual-kn-from-compatible": {"K1", "K2", "rep"},
}


@pytest.mark.parametrize("argv", _CONSTRUCT_ARGV, ids=lambda argv: argv[0])
def test_cli_construct_refuses_a_flag_it_does_not_read(capsys, argv):
    """An argv that constructs, plus any one flag the construction does not
    read, exits 2 with one line naming that flag and prints no spec file,
    whatever object the flag names; with several, the line names each."""
    from leibnizkit import cli

    assert set(CONSTRUCTIONS[argv[0]]) == _CONSTRUCT_READS[argv[0]]
    unread = [flag for flag in _CONSTRUCT_FLAGS if flag not in _CONSTRUCT_READS[argv[0]]]
    for flag in unread:
        assert cli.main(["construct", _L2, *argv, f"--{flag}", "nosuch"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", f"error: construction {argv[0]!r} does not take --{flag}\n")
    every = [arg for flag in unread for arg in (f"--{flag}", "nosuch")]
    assert cli.main(["construct", _L2, *argv, *every]) == 2
    named = ", ".join(f"--{flag}" for flag in unread)
    assert capsys.readouterr().err == f"error: construction {argv[0]!r} does not take {named}\n"


def _check_merged(tmp_path, capsys, objects, *argv, source=_L2):
    """Exit code of ``check`` on ``source`` (l2.json) with ``objects`` added;
    prints must say ok."""
    from leibnizkit import cli

    doc = json.loads(Path(source).read_text())
    assert not set(objects) & set(doc["objects"])
    doc["objects"].update(objects)
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["check", str(path), *argv])
    assert capsys.readouterr().out == f"{argv[0]}: {argv[1]}: ok\n"
    return code


_DUAL_KN_ARGV = [
    ("dual-kn-from-compatible", "--K1", "Bsharp", "--K2", "NBsharp", "--rep", "dual"),
    ("dual-kn-from-mc", "--K", "R", "--theta", "theta_strong", "--rep", "regular"),
]


@pytest.mark.parametrize("argv", _DUAL_KN_ARGV)
def test_cli_construct_dual_kn_structures_check_back(tmp_path, capsys, argv):
    """Each emitted KN object names l2's algebra and representation and
    passes kn-structure, consequences included."""
    objects = _constructed(capsys, *argv)
    assert objects and all(obj["type"] == "kn" for obj in objects.values())
    for name in objects:
        assert _check_merged(tmp_path, capsys, objects, name, "kn-structure") == 0


@pytest.mark.parametrize("argv", _DUAL_KN_ARGV)
def test_cli_construct_dual_kn_names_the_algebra_of_its_representation(tmp_path, capsys, argv):
    """On a copy of l2 whose algebra is named g, the emitted KN objects name
    g and the representation of --rep, and check back."""
    source = tmp_path / "l2_g.json"
    source.write_text(Path(_L2).read_text().replace('"alg"', '"g"').replace(':alg"', ':g"'))
    assert '"alg"' not in source.read_text() and ':alg"' not in source.read_text()
    objects = _constructed(capsys, *argv, source=source)
    assert {(obj["algebra"], obj["rep"]) for obj in objects.values()} == {("g", argv[-1])}
    for name in objects:
        code = _check_merged(tmp_path, capsys, objects, name, "kn-structure", source=source)
        assert code == 0


@pytest.mark.parametrize("argv", _DUAL_KN_ARGV)
def test_cli_construct_dual_kn_needs_rep(capsys, argv):
    """The KN objects name their representation, so these constructions do
    not guess it from the operator: without --rep they exit 2 with one
    line and write nothing."""
    from leibnizkit import cli

    assert cli.main(["construct", _L2, *argv[:-2]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: construction {argv[0]!r} needs --rep\n"


def test_cli_construct_mc_from_dual_kn_checks_back(tmp_path, capsys):
    """The theta built from kn_dual is a strong Maurer-Cartan element of the
    lifted sum of its K = Bsharp on the dual representation."""
    l2 = load_catalog()["l2"].spec
    assert l2.build("kn_dual").K.matrix == l2.build("Bsharp").matrix
    theta = _constructed(capsys, "mc-from-dual-kn", "--kn", "kn_dual")
    lifted = _constructed(capsys, "lifted", "--K", "Bsharp", "--rep", "dual")
    assert list(theta) == ["theta"]
    code = _check_merged(tmp_path, capsys, {**theta, **lifted},
                         "theta", "maurer-cartan-strong", "--ctx", "tw_lifted")
    assert code == 0


def test_cli_construct_failure_suppresses_output():
    out = run_cli("construct", str(CATALOG_DIR / "l2.json"), "subadjacent", "--K", "ident")
    assert out.returncode == 1
    assert out.stdout == ""


# the flag each construction asks for first
_FIRST_NEED = {"dual-rep": "rep", "semidirect": "rep", "subadjacent": "K", "lifted": "K",
               "deformed": "N", "theta-twist": "K", "dual-kn-from-mc": "K",
               "mc-from-dual-kn": "kn", "sharp": "pi", "dual-kn-from-compatible": "K1"}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_cli_every_construction_has_a_branch(capsys, construction):
    """Every construction the parser takes reaches a branch of the dispatch:
    with no flags it asks for the first one it reads, on one line, and
    prints no spec file."""
    from leibnizkit import cli

    assert cli.main(["construct", _L2, construction]) == 2
    out = capsys.readouterr()
    need = _FIRST_NEED[construction]
    assert (out.out, out.err) == ("", f"error: construction {construction!r} needs --{need}\n")


def test_cli_search_counts_and_determinism():
    args = ("search", str(CATALOG_DIR / "l2.json"), "--predicate", "nijenhuis",
            "--field", "F2")
    first, second = run_cli(*args), run_cli(*args)
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


def test_cli_suite_refuses_names_with_all(capsys):
    from leibnizkit import cli

    assert cli.main(["suite", "--all", "l2"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: pass suite/catalog names or --all, not both\n")


_SUITE_WORDS = st.sampled_from(
    ["kn-consequences", "theta-twist", "expected-verdicts", "l2", "heis3", "abelian1",
     "nosuch", "", "-", "--", "--all", "--format", "json", "text", "xml", "--frobnicate"])


@settings(max_examples=60, deadline=None)
@given(words=st.lists(_SUITE_WORDS, max_size=5))
def test_cli_suite_fuzz_never_raises(words):
    """Any suite argv of suite names, entry names, junk, --all and --format
    ends with an exit code of 0, 1 or 2 and no traceback."""
    from leibnizkit import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["suite", *words]) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_cli_suite_json():
    out = run_cli("suite", "kn-consequences", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ok"] is True
    assert payload["suites"]["kn-consequences"]["failed"] == 0


@pytest.mark.parametrize("extra, code, message", [
    (("--predicate", "bn-pair"), 1,
     "search failed: ShapeMismatch: exhaustive enumeration needs a prime field\n"),
    (("--predicate", "kupershmidt", "--field", "F2", "--budget", "0"), 1,
     "search failed: ShapeMismatch: kupershmidt search needs a representation\n"),
    (("--predicate", "mc-strong", "--field", "F3"), 1,
     "search failed: ShapeMismatch: mc_strong search needs a twilled context\n"),
    (("--predicate", "nijenhuis", "--field", "F2", "--budget", "-1"), 2,
     "error: --budget must be nonnegative, got -1\n"),
    (("--predicate", "bn-pair", "--field", "F2", "--algebra", "nosuch"), 2,
     "error: no object named 'nosuch'\n"),
])
def test_cli_search_bad_space_is_one_line(extra, code, message):
    """A rational bn-pair search, a search without the structure its
    predicate needs (named, not reported as a space over budget, though
    the algebra is there), a negative budget and an --algebra that names no
    object (refused as `check` refuses one) each end in one line on stderr,
    not a traceback."""
    out = run_cli("search", str(CATALOG_DIR / "l2.json"), *extra)
    assert (out.returncode, out.stdout, out.stderr) == (code, "", message)


def test_cli_search_without_its_algebra_names_it(tmp_path):
    """On a copy of l2 whose algebra is renamed, so that no default algebra
    is found, a Nijenhuis search names the algebra it needs, with a twilled
    context, a representation or nothing else given."""
    doc = json.loads(Path(_L2).read_text())
    doc["objects"]["base"] = doc["objects"].pop("alg")
    for obj in doc["objects"].values():
        if obj.get("algebra") == "alg":
            obj["algebra"] = "base"
    path = tmp_path / "l2_renamed.json"
    path.write_text(json.dumps(doc))
    for extra in (("--ctx", "tw_lift"), ("--rep", "regular"), ()):
        out = run_cli("search", str(path), "--predicate", "nijenhuis", "--field", "F2", *extra)
        assert (out.returncode, out.stdout, out.stderr) == (
            1, "", "search failed: ShapeMismatch: nijenhuis search needs an algebra\n"), extra


def test_cli_closed_stdout_ends_without_a_traceback():
    """A reader that closes the pipe after the first line of a long search
    output (about 200 kB, more than a pipe holds) gets exit code 141 and
    nothing on stderr: no BrokenPipeError traceback, and no "Exception
    ignored" from the flush at exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "leibnizkit", "search", str(CATALOG_DIR / "heis3.json"),
         "--predicate", "nijenhuis", "--field", "F3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == BROKEN_PIPE
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""


def test_cli_interrupt_ends_without_a_traceback(monkeypatch, capsys):
    """An interrupt while a command runs gives exit code 130 and prints nothing."""
    from leibnizkit import cli, commands

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_check", interrupted)
    monkeypatch.setattr(commands, "cmd_suite", interrupted)
    assert cli.main(["check", _L2, "alg", "leibniz"]) == INTERRUPTED
    assert cli.main(["suite", "--all"]) == INTERRUPTED
    assert capsys.readouterr() == ("", "")


def test_cli_one_block_search_takes_the_shape_of_the_structure_it_needs(tmp_path, capsys):
    """A Nijenhuis search reads the algebra, not --rep: on a copy of l2 with a
    1-dimensional trivial representation, passing that representation
    searches the 2x2 endomorphisms of the algebra and prints the 15 hits it
    prints without --rep."""
    from leibnizkit import cli

    doc = json.loads(Path(_L2).read_text())
    zero = [[["0"]], [["0"]]]
    doc["objects"]["triv1"] = {"type": "representation", "algebra": "alg",
                               "rhoL": zero, "rhoR": zero}
    path = tmp_path / "l2_triv1.json"
    path.write_text(json.dumps(doc))
    argv = ["search", str(path), "--predicate", "nijenhuis", "--field", "F3"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + ["--rep", "triv1"]) == 0
    with_rep = capsys.readouterr()
    assert (with_rep.out, with_rep.err) == (plain.out, "")
    assert json.loads(with_rep.out)["count"] == 15


@settings(max_examples=60, deadline=None)
@given(
    predicate=st.sampled_from(["kupershmidt", "nijenhuis", "rota-baxter", "mc-strong",
                               "bn-pair"]),
    target=st.sampled_from([(), ("--rep", "regular"), ("--rep", "dual"),
                            ("--ctx", "tw_lift"), ("--rep", "nosuch"), ("--algebra", "nosuch"),
                            ("--algebra", "alg", "--rep", "regular")]),
    field=st.sampled_from(["Q", "F2", "F3", "F4", "junk"]),
    budget=st.integers(-5, 300),
)
def test_cli_search_fuzz_never_raises(predicate, target, field, budget):
    """Any search argv ends with an exit code of 0, 1 or 2, never an exception."""
    from leibnizkit import cli

    argv = ["search", str(CATALOG_DIR / "l2.json"), "--predicate", predicate, *target,
            "--field", field, "--budget", str(budget)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2)



@pytest.mark.parametrize("argv, message", [
    (["construct", _L2, "subadjacent", "--K", "alg"], "'alg' is not an operator"),
    (["construct", _L2, "lifted", "--K", "regular"], "'regular' is not an operator"),
    (["construct", _L2, "deformed", "--N", "alg"], "'alg' is not an operator"),
    (["construct", _L2, "theta-twist", "--K", "R", "--theta", "alg"], "'alg' is not an operator"),
    (["construct", _L2, "dual-kn-from-mc", "--K", "R", "--theta", "regular"],
     "'regular' is not an operator"),
    (["construct", _L2, "dual-kn-from-compatible", "--K1", "alg", "--K2", "R"],
     "'alg' is not an operator"),
    (["search", _L2, "--predicate", "nijenhuis", "--field", "F2", "--algebra", "R"],
     "'R' is not an algebra"),
    (["search", _L2, "--predicate", "nijenhuis", "--field", "F2", "--algebra", "regular"],
     "'regular' is not an algebra"),
    # theta is an algebra -> module map: a 2-tensor or a form is refused
    (["construct", _L2, "theta-twist", "--K", "R", "--theta", "pi0"], "'pi0' is not an operator"),
    (["construct", _L2, "dual-kn-from-mc", "--K", "R", "--theta", "B"], "'B' is not an operator"),
])
def test_cli_flag_naming_wrong_type_is_usage_error(capsys, argv, message):
    """A flag that names an object of the wrong type ends in exit 2 and one
    line on stderr."""
    from leibnizkit import cli

    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", _L2, "N23", "nijenhuis", "--rep", "nosuch"], "check 'nijenhuis' does not take --rep"),
    (["check", _L2, "N23", "nijenhuis", "--S", "zero", "--ctx", "nosuch"],
     "check 'nijenhuis' does not take --S, --ctx"),
    (["check", _L2, "alg", "leibniz", "--algebra", "alg"], "check 'leibniz' does not take --algebra"),
    (["check", _L2, "R", "kupershmidt", "--other", "R2"], "check 'kupershmidt' does not take --other"),
    (["check", _L2, "theta0", "maurer-cartan", "--ctx", "tw_lift", "--rep", "regular"],
     "check 'maurer-cartan' does not take --rep"),
    (["check", _L2, "R", "kupershmidt", "--no-consequences"],
     "check 'kupershmidt' does not take --no-consequences"),
    (["check", _L2, "pi0", "ybe", "--rep", "dual", "--no-consequences"],
     "check 'ybe' does not take --rep, --no-consequences"),
])
def test_cli_check_refuses_flags_its_check_does_not_read(capsys, argv, message):
    from leibnizkit import cli

    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", _L2, "kn_dual", "kn-structure"],
    ["check", _L2, "pi0", "rn-structure", "--N", "zero"],
    ["check", str(CATALOG_DIR / "quad4.json"), "q", "quadratic"],
    ["check", _L2, "B", "bn-structure", "--N", "zero"],
])
def test_cli_check_no_consequences_is_taken_by_the_checks_with_consequences(capsys, argv):
    """kn-structure, rn-structure, quadratic and bn-structure take
    --no-consequences; on these objects the verdict is ok either way."""
    from leibnizkit import cli

    for extra in ([], ["--no-consequences"]):
        assert cli.main(argv + extra) == 0
        out = capsys.readouterr()
        assert out.out.endswith(": ok\n") and out.err == ""


def test_check_names_are_the_flag_table_keys():
    from leibnizkit.checks import _CHECK_FLAGS, CHECK_NAMES, OBJECT_FLAGS

    assert CHECK_NAMES == tuple(_CHECK_FLAGS) == (
        "leibniz", "representation", "kupershmidt", "nijenhuis", "rota-baxter",
        "compatible", "nk-condition", "nijenhuis-pair", "dual-nijenhuis-pair",
        "perfect-pair", "kn-structure", "maurer-cartan", "maurer-cartan-strong",
        "ybe", "rn-structure", "rbn-structure", "quadratic", "bn-structure",
        "transfer",
    )
    for entry in load_catalog().values():
        for item in entry.spec.expected:
            assert set(item.get("args") or {}) <= set(_CHECK_FLAGS[item["check"]]), item
    # check's object flags are the flags of the table, each once
    assert len(set(OBJECT_FLAGS)) == len(OBJECT_FLAGS)
    assert set(OBJECT_FLAGS) == set().union(*_CHECK_FLAGS.values()) - {"no-consequences"}


def test_cli_construct_deformed_without_an_algebra_is_ambiguous(tmp_path, capsys):
    """construct deformed resolves its algebra as check does: an untagged
    operator in a file with two algebras needs --algebra."""
    from leibnizkit import cli

    spec = json.loads(Path(_L2).read_text())
    spec["objects"]["N"] = {"type": "operator", "matrix": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "two_algebras.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["construct", str(path), "deformed", "--N", "N"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: ambiguous algebra; pass --algebra\n"
    assert cli.main(["construct", str(path), "deformed", "--N", "N", "--algebra", "alg"]) == 0
    assert parse_spec(capsys.readouterr().out).build("deformed") == load_spec(_L2).build("alg")


_L2_NAMES = sorted(json.loads(Path(_L2).read_text())["objects"]) + ["missing"]
_CONSTRUCT_FLAGS = ("rep", "algebra", "K", "N", "theta", "kn", "pi", "K1", "K2")


@settings(max_examples=150, deadline=None)
@given(construction=st.sampled_from(
           ("dual-rep", "semidirect", "subadjacent", "lifted", "deformed", "theta-twist",
            "dual-kn-from-mc", "mc-from-dual-kn", "sharp", "dual-kn-from-compatible")),
       values=st.fixed_dictionaries(
           {flag: st.none() | st.sampled_from(_L2_NAMES) for flag in _CONSTRUCT_FLAGS}))
def test_cli_construct_fuzz_never_raises(construction, values):
    """Any construct argv whose flags name l2 objects of any type, or a
    missing object, ends with an exit code of 0, 1 or 2, never an exception."""
    from leibnizkit import cli

    argv = ["construct", _L2, construction]
    for flag, name in values.items():
        if name is not None:
            argv += [f"--{flag}", name]
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
    pytest.param('"Q"', '{"alg": %s%s}' % ("[" * 100000, "]" * 100000), "alg",
                 id="arrays-nested-100000-deep"),
    ('"Q"', '{%s, "kn": {"type": "kn", "algebra": "alg", "K": [["0"]], "N": [["0"]], '
            '"S": [["0"]], "mode": "garbage"}}' % _ALG1, "alg"),
    ('"Q"', '{%s, "tw": {"type": "twilled", "algebra": "alg", "n1": "2", "n2": 0}}' % _ALG1,
     "alg"),
])
def test_cli_check_malformed_spec_is_usage_error(tmp_path, field, objects, target):
    """A non-string or oversized field tag, a non-object entry under
    "objects", a non-integer size, cochain coefficients nested less deep
    than the arity and arrays nested too deep for the JSON parser end in
    exit 2 and one line on stderr.  So does an unknown KN mode or a size
    written as a string on another object than the one checked: every
    object is checked against the format when the file is read."""
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


def _verdict_argv(verdict):
    argv = [verdict["object"], verdict["check"]]
    for key, val in sorted(verdict.get("args", {}).items()):
        argv += [f"--{key}", val]
    return argv


# One of each kind of bad value: null, a boolean, numbers, strings that name
# no object and parse to no scalar, and empty or nested containers.
_BAD_VALUES = (None, True, 0, 7, -1, "", "x", "1/0", [], {}, [[]])


def test_cli_check_bad_spec_values_never_raise(tmp_path):
    """Every field of every object of l2_f2.json and abelian4.json, and every
    field of l2.json's kn_dual, set in turn to each bad value: each expected
    verdict of the file (of kn_dual only, for l2.json) ends with an exit
    code of 0, 1 or 2, never an exception."""
    from leibnizkit import cli

    cases = [(name, obj) for name in ("l2_f2.json", "abelian4.json")
             for obj in json.loads((CATALOG_DIR / name).read_text())["objects"]]
    cases.append(("l2.json", "kn_dual"))
    bad, runs = [], 0
    for name, obj in cases:
        doc = json.loads((CATALOG_DIR / name).read_text())
        verdicts = [_verdict_argv(v) for v in doc["expected"]
                    if name != "l2.json" or v["object"] == obj]
        for key in sorted(doc["objects"][obj]):
            for value in _BAD_VALUES:
                mutated = json.loads(json.dumps(doc))
                mutated["objects"][obj][key] = value
                spec = tmp_path / f"{name}.{obj}.{key}.json"
                spec.write_text(json.dumps(mutated))
                for argv in verdicts:
                    runs += 1
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli.main(["check", str(spec), *argv])
                        except Exception as exc:
                            code = f"{type(exc).__name__}: {exc}"
                    if code not in (0, 1, 2):
                        bad.append((name, obj, key, value, argv, code))
    assert runs == 1133
    assert bad == []


def test_cli_check_references_to_every_object_never_raise(tmp_path):
    """Every algebra and rep value of every object of the catalog files, set
    in turn to each object name of its file (its own included): each
    expected verdict that names the object ends with an exit code of 0, 1
    or 2, and with 2 when the name is of another kind than the key needs."""
    from leibnizkit import cli

    needs = {"algebra": "algebra", "rep": "representation"}
    bad, runs = [], 0
    for name in catalog_names():
        doc = json.loads((CATALOG_DIR / f"{name}.json").read_text())
        objects = doc["objects"]
        for obj in sorted(objects):
            verdicts = [_verdict_argv(v) for v in doc["expected"]
                        if obj == v["object"] or obj in (v.get("args") or {}).values()]
            for key in sorted(set(needs) & set(objects[obj])):
                for target in sorted(objects):
                    mutated = json.loads(json.dumps(doc))
                    mutated["objects"][obj][key] = target
                    spec = tmp_path / "spec.json"
                    spec.write_text(json.dumps(mutated))
                    wrong_kind = objects[target]["type"] != needs[key]
                    for argv in verdicts:
                        runs += 1
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            try:
                                code = cli.main(["check", str(spec), *argv])
                            except Exception as exc:
                                code = f"{type(exc).__name__}: {exc}"
                        if code not in ((2,) if wrong_kind else (0, 1, 2)):
                            bad.append((name, obj, key, target, argv, code))
    assert runs == 574
    assert bad == []


_E01_JSON = """{
  "notes": {},
  "ok": false,
  "violations": [
    {
      "identity": "maurer-cartan",
      "index": [
        1,
        1
      ],
      "lhs": [
        "1",
        "0"
      ],
      "rhs": [
        "0",
        "0"
      ]
    },
    {
      "identity": "maurer-cartan-linear",
      "index": [
        1,
        1
      ],
      "lhs": [
        "0",
        "0"
      ],
      "rhs": [
        "1",
        "0"
      ]
    }
  ]
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["N23", "nk-condition", "--K", "Bsharp"],
     "N23: nk-condition: 1 violation(s): nk-condition@(0, 1): lhs=(10, 0) rhs=(8, 0)\n"
     "  note composite-kupershmidt: 1 violation(s): kupershmidt@(0, 1): lhs=(6, 0) rhs=(4, 0)\n"),
    (["NpIqE", "nk-condition", "--K", "R32"],
     "NpIqE: nk-condition: 1 violation(s): nk-condition@(1, 1): lhs=(Fraction(45, 2), 0) "
     "rhs=(0, 0)\n"
     "  note composite-kupershmidt: 1 violation(s): kupershmidt@(1, 1): "
     "lhs=(Fraction(45, 2), 0) rhs=(0, 0)\n"),
    (["ident", "maurer-cartan-strong", "--ctx", "tw_lift"],
     "ident: maurer-cartan-strong: 4 violation(s): maurer-cartan@(1, 0): lhs=(1, 0) "
     "rhs=(0, 0), maurer-cartan@(1, 1): lhs=(1, 0) rhs=(0, 0), maurer-cartan-linear@(1, 0): "
     "lhs=(1, 0) rhs=(2, 0), maurer-cartan-linear@(1, 1): lhs=(1, 0) rhs=(2, 0)\n"),
    (["E01", "maurer-cartan-strong", "--ctx", "tw_lift", "--format", "json"], _E01_JSON),
])
def test_cli_failing_checks_print_pinned_bytes(capsys, argv, expected):
    """The mixed identities and the Maurer-Cartan check print these exact
    violations, and exit 1, on l2's failing objects."""
    from leibnizkit import cli

    assert cli.main(["check", _L2, *argv]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (expected, "")
