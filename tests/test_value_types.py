"""The package's immutable value types: frozen, equal and hashed by value,
with stable reprs (error messages such as KoszulResolution's embed them)
and with their constructors' checks."""

import marshal
import pickle
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from flopcalc import pbundle
from flopcalc.bwb import CohomologyTable, HomogeneousBundle, LeviWeight
from flopcalc.cli import Report
from flopcalc.flop import FMImage, ImageKind, PicMap, apply_psi
from flopcalc.homalg import (
    ChaseSolution,
    ChaseSystem,
    ChaseTerm,
    KoszulResolution,
    KoszulTerm,
    koszul_resolution,
)
from flopcalc.pbundle import ModelVariety, Side, XLineBundle
from flopcalc.verify import CheckResult, Status
from test_cli_corpus import CORPUS

WEIGHT = LeviWeight(2, (1, 0), -1)
SYSTEM = ChaseSystem("s", ("A", "B"), (0, None))
KOSZUL_TERMS = koszul_resolution(2).terms
X_2 = ModelVariety(2)
X_PLUS_2 = ModelVariety(2, Side.X_PLUS)

XPLUS = "ModelVariety(n=2, side=<Side.X_PLUS: 'xplus'>)"
TERM_2 = (f"KoszulTerm(p=2, line_class=XLineBundle(variety={XPLUS}, j=-2, k=0), "
          f"theta_wedge=LeviWeight(n=2, lam=(1, 1), t=-2), rank=1)")
TERM_1 = (f"KoszulTerm(p=1, line_class=XLineBundle(variety={XPLUS}, j=-1, k=0), "
          f"theta_wedge=LeviWeight(n=2, lam=(1, 0), t=-1), rank=2)")
SYSTEM_REPR = "ChaseSystem(name='s', labels=('A', 'B'), dims=(0, None))"

# class, constructor arguments, a field, the repr of cls(*args), and
# (call, error, message) for each check a constructor makes
CASES = [
    (LeviWeight, (2, (1, 0), -1), "t", "LeviWeight(n=2, lam=(1, 0), t=-1)", [
        (lambda: LeviWeight(0, (), 0), ValueError, "ambient P^n needs n >= 1, got n=0"),
        (lambda: LeviWeight(2, (1,), 0), ValueError, "weight vector has length 1, expected n=2"),
        (lambda: LeviWeight(2, (0, 1), 0), ValueError, "weight vector (0, 1) is not non-increasing"),
    ]),
    (HomogeneousBundle, ((WEIGHT,),), "summands",
     "HomogeneousBundle(summands=(LeviWeight(n=2, lam=(1, 0), t=-1),))", []),
    (CohomologyTable, (((0, 3),),), "entries", "CohomologyTable(entries=((0, 3),))", [
        (lambda: CohomologyTable.from_dict({0: -1}), ValueError, "bad table entry h^0 = -1"),
    ]),
    (ModelVariety, (3, Side.X_PLUS), "n", "ModelVariety(n=3, side=<Side.X_PLUS: 'xplus'>)", [
        (lambda: ModelVariety(1), ValueError, "the model needs n >= 2, got n=1"),
    ]),
    (XLineBundle, (X_2, 1, -1), "j",
     "XLineBundle(variety=ModelVariety(n=2, side=<Side.X: 'x'>), j=1, k=-1)", []),
    (PicMap, (((1, 1), (0, -1)),), "rows", "PicMap(rows=((1, 1), (0, -1)))", []),
    (FMImage, (ImageKind.IDEAL_TWIST, XLineBundle(X_PLUS_2, 0, 1)), "kind",
     f"FMImage(kind=<ImageKind.IDEAL_TWIST: 'ideal_twist'>, "
     f"bundle=XLineBundle(variety={XPLUS}, j=0, k=1))", [
        (lambda: FMImage(ImageKind.IDEAL_TWIST, XLineBundle(X_2, 0, 1)), ValueError,
         "ideal-twist images only arise on the flopped side"),
    ]),
    (ChaseTerm, ("A^0", None), "dim", "ChaseTerm(label='A^0', dim=None)", []),
    (ChaseSystem, ("s", ("A", "B"), (0, None)), "dims", SYSTEM_REPR, [
        (lambda: ChaseSystem("neg", ("A",), (-1,)), ValueError,
         "term A has negative dimension -1"),
    ]),
    (ChaseSolution, (SYSTEM, {"A": 0, "B": None}, ("B",), ()), "values",
     f"ChaseSolution(system={SYSTEM_REPR}, values={{'A': 0, 'B': None}}, unsolved=('B',), "
     f"trace=())", []),
    (KoszulTerm, (2, XLineBundle(X_PLUS_2, -2, 0), LeviWeight(2, (1, 1), -2), 1), "rank",
     TERM_2, []),
    (KoszulResolution, (2, KOSZUL_TERMS), "n", f"KoszulResolution(n=2, terms=({TERM_2}, {TERM_1}))", [
        (lambda: KoszulResolution(2, ()), ValueError, "expected 2 terms, got 0"),
        (lambda: KoszulResolution(2, KOSZUL_TERMS[::-1]), ValueError,
         f"term {TERM_1} is not the expected p=2 term"),
    ]),
    (CheckResult, ("lemma-1-3", 2, Status.PASS, {"cases": 3}), "status",
     "CheckResult(check_id='lemma-1-3', n=2, status=<Status.PASS: 'PASS'>, evidence={'cases': 3})", [
        (lambda: CheckResult("x", 2, Status.FAIL), ValueError,
         "FAIL results must carry a counterexample"),
    ]),
    (Report, ((2, 3), list), "code",
     "Report(payload=(2, 3), text=<class 'list'>, markdown=None, code=0, trace=(), blame='--n')", []),
]


def _hash(value):
    """hash(value), or None for a value holding a dict, as its type allows."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("cls, args, field, shown, rejects", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(cls, args, field, shown, rejects):
    value = cls(*args)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    twin = cls(*args)
    assert value == twin
    assert _hash(value) == _hash(twin)
    assert repr(value) == shown
    assert pickle.loads(pickle.dumps(value)) == value
    for call, error, message in rejects:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("value, fields", [(X_2, (2, Side.X)), (XLineBundle(X_2, 1, -1), (X_2, 1, -1))],
                         ids=["ModelVariety", "XLineBundle"])
def test_varieties_and_line_classes_compare_only_to_their_own_type(value, fields):
    assert type(value).__eq__(value, fields) is NotImplemented
    assert value != fields


def test_model_variety_is_one_object_per_n_and_side():
    assert ModelVariety(3) is ModelVariety(3, Side.X) is ModelVariety(n=3, side=Side.X)
    assert ModelVariety(3, Side.X_PLUS) is ModelVariety(3, Side.X_PLUS) is not ModelVariety(3)
    assert pickle.loads(pickle.dumps(X_PLUS_2)) == X_PLUS_2
    for _ in range(3):
        with pytest.raises(ValueError, match=r"^the model needs n >= 2, got n=1$"):
            ModelVariety(1)
    assert pbundle._model_variety.cache_parameters()["maxsize"] is not None
    a, b = XLineBundle(ModelVariety(4), -1, 0), XLineBundle(ModelVariety(4), 0, -2)
    assert apply_psi(a).variety is apply_psi(b).variety


def test_model_variety_compares_by_value_past_the_intern_cache():
    # identity is only a fast path: after an eviction the next call makes a
    # second object, which must still equal, hash like and meet hom_dims with the first
    first = ModelVariety(5, Side.X_PLUS)
    pbundle._model_variety.cache_clear()
    second = ModelVariety(5, Side.X_PLUS)
    assert second is not first
    assert second == first and hash(second) == hash(first)
    assert XLineBundle(first, 1, 2) == XLineBundle(second, 1, 2)
    hom = pbundle.hom_dims(XLineBundle(first, 0, 0), XLineBundle(second, 1, 0))
    assert hom == pbundle.cohomology_X(XLineBundle(first, 1, 0))


def test_check_result_evidence_defaults_to_a_fresh_dict():
    first, second = CheckResult("a", 2, Status.PASS), CheckResult("b", 2, Status.PASS)
    assert first.evidence == second.evidence == {}
    assert first.evidence is not second.evidence


def _loaded_by_cli_import(*modules, argvs=()):
    """Which of ``modules`` are loaded after a fresh ``import flopcalc.cli``
    and a ``cli.main`` run of each of ``argvs``, whose output is dropped; -S
    runs without site, which may import modules of its own.  The argvs come
    through the built-in ``marshal``, so reading them loads nothing."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = dedent(f"""
        import marshal, os, sys
        sys.path.insert(0, sys.argv[1])
        from flopcalc import cli
        shown = sys.stdout
        sys.stdout = sys.stderr = open(os.devnull, "w")
        for argv in marshal.loads(sys.stdin.buffer.read()):
            cli.main(argv)
        print(*sorted({set(modules)!r} & set(sys.modules)), file=shown)""")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          input=marshal.dumps([list(argv) for argv in argvs]),
                          capture_output=True, timeout=60, check=True)
    return done.stdout.decode().split()


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import("dataclasses", "inspect") == []


def test_cli_import_loads_neither_argparse_nor_gettext():
    # the command line is parsed from its own table; argparse would pull in gettext
    assert _loaded_by_cli_import("argparse", "gettext") == []


def test_cli_import_loads_neither_json_nor_future():
    # --json reports have a writer of their own, and no module has annotations
    assert _loaded_by_cli_import("json", "__future__") == []


def test_corpus_runs_load_neither_json_nor_re():
    # integers are read with str methods, and no corpus output holds text
    # that needs an escape, the only text the writer hands to json
    argvs = [case["argv"] for case in CORPUS]
    assert _loaded_by_cli_import("json", "re", argvs=argvs) == []


def test_import_loads_only_the_module_named():
    # the package binds no name of its own, so importing one module loads no
    # other, and an engine name has one import path, through its module
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import flopcalc.bwb; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'flopcalc')); "
            "print(*sorted(n for n in vars(flopcalc) if not n.startswith('__')))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    modules, names = done.stdout.splitlines()
    assert modules.split() == ["flopcalc", "flopcalc.bwb"]
    assert names.split() == ["bwb"]
