"""The small value classes: constructor validation, equality and hashing,
fresh mutable defaults per instance, and their repr strings."""

import pytest

from leibnizkit.algebras import LeibnizAlgebra
from leibnizkit.catalog import CatalogEntry, load_entry
from leibnizkit.errors import ShapeMismatch
from leibnizkit.fields import RATIONALS, FieldSpec, prime_field
from leibnizkit.forms import BilinearForm, Tensor2
from leibnizkit.io import SpecFile
from leibnizkit.linalg import Matrix
from leibnizkit.operators import LinearOperator
from leibnizkit.pairs import DeformationTriple, KNStructure, OperatorPair, make_kn
from leibnizkit.reports import CheckReport, Violation
from leibnizkit.search import SearchSpec
from leibnizkit.suites import SuiteResult

F5 = prime_field(5)
M = Matrix(F5, [[1, 2], [3, 4]])
MS = "Matrix(F5, [1 mod 5 2 mod 5; 3 mod 5 4 mod 5])"
ALG = LeibnizAlgebra.abelian(F5, 2)


def test_fieldspec_equality_hash_and_dict_key():
    assert FieldSpec(5) == prime_field(5) == F5
    assert hash(FieldSpec(5)) == hash(prime_field(5))
    assert {FieldSpec(5): "a"}[prime_field(5)] == "a"
    assert FieldSpec() == FieldSpec(None) == RATIONALS
    assert FieldSpec(5) != FieldSpec(7) and FieldSpec(5) != RATIONALS
    assert FieldSpec(5) != 5 and FieldSpec(5) != "F5"
    assert len({FieldSpec(3), prime_field(3), RATIONALS, FieldSpec(None)}) == 2


def test_violation_and_linear_operator_equality_and_hash():
    v = Violation("x", (0, 1), (1, 2), (3,))
    assert v == Violation("x", (0, 1), (1, 2), (3,))
    assert hash(v) == hash(Violation("x", (0, 1), (1, 2), (3,)))
    assert v != Violation("x", (0, 1), (1, 2), (4,))
    assert v != ("x", (0, 1), (1, 2), (3,))
    K = LinearOperator(M, "module", "algebra")
    assert K == LinearOperator(Matrix(F5, [[6, 2], [3, 9]]), "module", "algebra")
    assert hash(K) == hash(LinearOperator(M, "module", "algebra"))
    assert K != LinearOperator(M) and K != M
    assert LinearOperator(M).domain == LinearOperator(M).codomain == ""
    assert {K: 1}[LinearOperator(M, "module", "algebra")] == 1


def test_frozen_classes_hash_by_fields():
    pair = OperatorPair(LinearOperator(M), LinearOperator(M))
    kn = KNStructure(LinearOperator(M), pair)
    assert kn.mode == "kn"
    assert hash(pair) == hash(OperatorPair(LinearOperator(M), LinearOperator(M)))
    assert kn == make_kn(M, M, M) and hash(kn) == hash(make_kn(M, M, M))
    assert kn != make_kn(M, M, M, "dual-kn")
    assert Tensor2(ALG, M) == Tensor2(ALG, M) and hash(Tensor2(ALG, M)) == hash(Tensor2(ALG, M))
    assert BilinearForm(ALG, M) != BilinearForm(ALG, M, "skew")
    assert hash(BilinearForm(ALG, M)) == hash(BilinearForm(ALG, M, "symmetric"))
    spec = SearchSpec(F5, (2, 2), "nijenhuis", algebra=ALG)
    assert spec == SearchSpec(F5, (2, 2), "nijenhuis", ALG) and hash(spec) == hash(
        SearchSpec(F5, (2, 2), "nijenhuis", ALG))
    assert spec != SearchSpec(F5, (2, 2), "nijenhuis", ALG, budget=10)


def test_mutable_classes_compare_but_do_not_hash():
    spec = SpecFile(RATIONALS, {})
    triple = DeformationTriple((), (M,), (M,), CheckReport())
    for a, b in [
        (CheckReport(), CheckReport((), {})),
        (spec, SpecFile(RATIONALS, {}, [])),
        (triple, DeformationTriple((), (M,), (M,), CheckReport())),
        (SuiteResult("s"), SuiteResult("s", 0, [])),
        (CatalogEntry("x", spec), CatalogEntry("x", SpecFile(RATIONALS, {}))),
    ]:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
    assert CheckReport() != CheckReport((), {"a": "b"})
    assert SuiteResult("s") != SuiteResult("s", 1)


def test_spec_file_equality_ignores_what_it_has_built():
    """The build cache is not a field: a spec file that has built an object
    still equals one loaded from the same file, and prints the same."""
    a, b = load_entry("l2").spec, load_entry("l2").spec
    assert a == b
    a.build("alg")
    assert a == b and repr(a) == repr(b) and "_cache" not in repr(a)
    assert a != SpecFile(a.fieldspec, a.raw)  # the expected verdicts differ


def test_shape_and_symmetry_validation():
    square3 = Matrix.identity(F5, 3)
    with pytest.raises(ShapeMismatch, match="tensor matrix must be dim x dim"):
        Tensor2(ALG, square3)
    with pytest.raises(ShapeMismatch, match="form matrix must be dim x dim"):
        BilinearForm(ALG, square3)
    with pytest.raises(ShapeMismatch, match="unknown symmetry tag 'hermitian'"):
        BilinearForm(ALG, M, "hermitian")


def test_defaults_are_fresh_per_instance():
    a, b = SpecFile(RATIONALS, {}), SpecFile(RATIONALS, {})
    a.expected.append({"object": "x"})
    a._cache["x"] = 1
    assert b.expected == [] and b._cache == {}
    r1, r2 = CheckReport(), CheckReport()
    r1.notes["a"] = "b"
    assert r2.notes == {}
    s1, s2 = SuiteResult("s"), SuiteResult("s")
    s1.check(False, "label")
    assert s2.failures == [] and s2.passed == 0 and s1.failures == ["label"]


def test_reprs():
    v = Violation("x", (0, 1), (1, 2), (3,))
    vs = "Violation(identity='x', index=(0, 1), lhs=(1, 2), rhs=(3,))"
    K = LinearOperator(M, "module", "algebra")
    Ks = f"LinearOperator(matrix={MS}, domain='module', codomain='algebra')"
    I = LinearOperator(M)
    Is = f"LinearOperator(matrix={MS}, domain='', codomain='')"
    pair = OperatorPair(I, I)
    pairs = f"OperatorPair(N={Is}, S={Is})"
    spec = SpecFile(RATIONALS, {"a": {"type": "algebra"}})
    specs = "SpecFile(fieldspec=FieldSpec(p=None), raw={'a': {'type': 'algebra'}}, expected=[])"
    algs = "LeibnizAlgebra(dim=2, field=F5)"
    cases = [
        (FieldSpec(5), "FieldSpec(p=5)"),
        (RATIONALS, "FieldSpec(p=None)"),
        (v, vs),
        (CheckReport((v,), {"a": "b"}), f"CheckReport(violations=({vs},), notes={{'a': 'b'}})"),
        (K, Ks),
        (spec, specs),
        (CatalogEntry("x", spec), f"CatalogEntry(name='x', spec={specs})"),
        (pair, pairs),
        (KNStructure(K, pair), f"KNStructure(K={Ks}, pair={pairs}, mode='kn')"),
        (DeformationTriple((((1,),),), (M,), (M,), CheckReport()),
         f"DeformationTriple(omega=(((1,),),), varpiL=({MS},), varpiR=({MS},), "
         "report=CheckReport(violations=(), notes={}))"),
        (Tensor2(ALG, M), f"Tensor2(algebra={algs}, matrix={MS})"),
        (BilinearForm(ALG, M, "skew"), f"BilinearForm(algebra={algs}, matrix={MS}, symmetry='skew')"),
        (SearchSpec(F5, (2, 2), "nijenhuis", algebra=ALG),
         f"SearchSpec(field=FieldSpec(p=5), shape=(2, 2), predicate='nijenhuis', algebra={algs}, "
         "rep=None, ctx=None, budget=1000000)"),
        (SuiteResult("s", 1, ["f"]), "SuiteResult(name='s', passed=1, failures=['f'])"),
    ]
    for obj, text in cases:
        assert repr(obj) == text
