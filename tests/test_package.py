"""The package namespace, its errors and integer parameters, its modules' imports and the
README's library example."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fsig
from fsig import families
from fsig.cone import FacetFunctional, FullEmbedding
from fsig.exact import IntegerMatrix
from fsig.frobenius import (
    FrobeniusCount,
    MonomialIdeal,
    count_lattice_points,
    hk_colength,
    socle_witness,
)
from fsig.semigroup import NormalityVerdict, SemigroupContext
from fsig.signature import SignaturePolytope, SignatureResult

PACKAGE = Path(fsig.__file__).parent

EXPORTED = [
    "BudgetError",
    "BudgetExceeded",
    "EmptyPresentation",
    "FsigError",
    "InvalidParams",
    "InvalidPresentation",
    "NonNormalInput",
    "NotPrimary",
    "ParseError",
    "PreconditionError",
    "SemigroupPresentation",
    "Unbounded",
    "brute_force_aq",
    "build_context",
    "check_normal",
    "count_aq",
    "f_signature",
    "full_embedding",
    "hk_difference_identity",
    "polytope_volume",
    "segre_generators",
    "signature_polytope",
    "veronese_generators",
]


def test_every_exported_name_resolves():
    assert len(set(fsig.__all__)) == len(fsig.__all__)
    for name in fsig.__all__:
        assert getattr(fsig, name) is not None, name


def test_exported_names_are_pinned():
    # a name added to or dropped from the namespace is a deliberate change
    assert sorted(fsig.__all__) == EXPORTED


def test_every_exported_error_is_raised():
    # an error class is exported for callers to catch, so each one that has
    # no subclass of its own must be raised by name somewhere in the package;
    # the categories above them (FsigError, PreconditionError, BudgetError)
    # are what the CLI catches
    raised = {
        node.exc.func.id
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    errors = [getattr(fsig, name) for name in fsig.__all__]
    errors = [e for e in errors if isinstance(e, type) and issubclass(e, fsig.FsigError)]
    leaves = {e.__name__ for e in errors if not e.__subclasses__()}
    # NonNormalInput is waiting for a decided normality check (ROADMAP item 2)
    assert leaves - raised == {"NonNormalInput"}


class Three:
    """An integer that is not an int, as numpy's are: read through __index__."""

    def __index__(self):
        return 3


VERONESE22 = fsig.veronese_generators(2, 2)
CONTEXT = fsig.build_context(VERONESE22)
EMBEDDING = fsig.full_embedding(CONTEXT)
NOT_DIVIDING = MonomialIdeal.not_dividing(socle_witness(EMBEDDING), 1).minimal_generators(EMBEDDING)
# N: at t = q = 1 its colengths are 2 and 1, below a budget of 3
LINE = fsig.full_embedding(fsig.build_context(fsig.SemigroupPresentation(1, ((1,),))))
INTEGER_PARAMETERS = {
    "hk_difference_identity-t": lambda t: fsig.hk_difference_identity(EMBEDDING, t, 2),
    "hk_difference_identity-q": lambda q: fsig.hk_difference_identity(EMBEDDING, 1, q),
    "hk_difference_identity-budget": lambda b: fsig.hk_difference_identity(LINE, 1, 1, b),
    "hk_colength": lambda q: hk_colength(EMBEDDING, NOT_DIVIDING, q),
    # the colength of the maximal ideal is 1, the point 0
    "hk_colength-budget": lambda b: hk_colength(EMBEDDING, EMBEDDING.image_generators, 1, b),
    "count_aq": lambda q: fsig.count_aq(EMBEDDING, q),
    "count_lattice_points-limit": lambda limit: count_lattice_points(
        IntegerMatrix(((1,),)), (1,), limit=limit
    ),
    "brute_force_aq": lambda q: fsig.brute_force_aq(VERONESE22, q),
    "brute_force_aq-budget": lambda b: fsig.brute_force_aq(VERONESE22, 1, b),
    "MonomialIdeal.not_dividing": lambda t: MonomialIdeal.not_dividing((1, 1), t),
    "MonomialIdeal.not_dividing-mu": lambda x: MonomialIdeal.not_dividing((1, x), 1),
    "check_normal": lambda bound: fsig.check_normal(CONTEXT, EMBEDDING.functionals, bound),
    "SemigroupPresentation": lambda rank: fsig.SemigroupPresentation(
        rank, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ),
    "segre_generators-r": lambda r: fsig.segre_generators(r, 2),
    "segre_generators-s": lambda s: fsig.segre_generators(2, s),
    "veronese_generators-d": lambda d: fsig.veronese_generators(d, 2),
    "veronese_generators-n": lambda n: fsig.veronese_generators(2, n),
    "segre_signature-r": lambda r: families.segre_signature(r, 2),
    "segre_signature-s": lambda s: families.segre_signature(2, s),
    "veronese_signature-d": lambda d: families.veronese_signature(d, 2),
    "veronese_signature-n": lambda n: families.veronese_signature(2, n),
    "segre_aq_closed_form-r": lambda r: families.segre_aq_closed_form(r, 2, 3),
    "segre_aq_closed_form-s": lambda s: families.segre_aq_closed_form(2, s, 3),
    "segre_aq_closed_form-q": lambda q: families.segre_aq_closed_form(2, 2, q),
    "eulerian-d": lambda d: families.eulerian(d, 2),
    "eulerian-s": lambda s: families.eulerian(4, s),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_are_read_with_index(entry):
    # a float or a string is refused where it enters, not read as a wrong
    # answer or a failure further down; anything with __index__ is an integer
    call = INTEGER_PARAMETERS[entry]
    error = fsig.InvalidPresentation if entry == "SemigroupPresentation" else TypeError
    for wrong in (2.5, 3.0, "3"):
        with pytest.raises(error):
            call(wrong)
    assert call(Three()) == call(3)


POLYTOPE = fsig.signature_polytope(EMBEDDING)
OUTSIDE = r"outside \(0, 1\]"
# per record: its fields by name, with values that pass its checks, and the
# (fields changed, error, message) of each check it makes on construction
RECORDS = {
    IntegerMatrix: (
        {"rows": ((1, 2), (3, 4))},
        [
            ({"rows": ((1, 2), (3,))}, ValueError, "rows must all have the same length"),
            ({"rows": ((1, 1.5),)}, TypeError, None),
            ({"rows": ((Fraction(1, 2),),)}, TypeError, None),
        ],
    ),
    fsig.SemigroupPresentation: (
        {"ambient_rank": 2, "generators": ((2, 0), (1, 1), (0, 2)), "name": "v22"},
        [
            ({"ambient_rank": 0}, fsig.InvalidPresentation, "ambient rank must be a positive"),
            ({"ambient_rank": 1.5}, fsig.InvalidPresentation, "ambient rank must be a positive"),
            ({"generators": ((1.5, 0),)}, fsig.InvalidPresentation, "must be integers"),
            ({"generators": ()}, fsig.EmptyPresentation, "at least one generator"),
            ({"generators": ((1, 0), (1,))}, fsig.InvalidPresentation, "does not have 2 coord"),
            ({"generators": ((1, -1),)}, fsig.InvalidPresentation, "negative coordinate"),
            ({"generators": ((0, 0),)}, fsig.InvalidPresentation, "zero vector"),
            ({"generators": ((1, 0), (1, 0))}, fsig.InvalidPresentation, "duplicate generator"),
        ],
    ),
    SemigroupContext: (dict(zip(SemigroupContext._fields, CONTEXT)), []),
    NormalityVerdict: ({"normal": False, "counterexample": (1, 0), "bound": 4}, []),
    FacetFunctional: (
        {"ray": (1, 0), "denominator": 2, "values_on_generators": (2, 1, 0)},
        [
            ({"values_on_generators": (2, -1, 0)}, ValueError, "negative on a generator"),
            ({"values_on_generators": (0, 0, 0)}, ValueError, "vanishes on every generator"),
            ({"values_on_generators": (2, 4, 0)}, ValueError, "not coprime"),
        ],
    ),
    FullEmbedding: (dict(zip(FullEmbedding._fields, EMBEDDING)), []),
    SignaturePolytope: (
        {"rows": POLYTOPE.rows, "dim": POLYTOPE.dim},
        [
            ({"rows": ((1, 0), (0, 1, 1))}, ValueError, "must all have dim = 2 entries"),
            ({"rows": ((1, 0), (0,))}, ValueError, "must all have dim = 2 entries"),
        ],
    ),
    SignatureResult: (
        {"value": Fraction(1, 2), "polytope": POLYTOPE, "embedding": EMBEDDING},
        [
            ({"value": Fraction(0)}, ArithmeticError, OUTSIDE),
            ({"value": Fraction(-1, 2)}, ArithmeticError, OUTSIDE),
            ({"value": Fraction(3, 2)}, ArithmeticError, OUTSIDE),
        ],
    ),
    FrobeniusCount: ({"q": 3, "a_q": 5, "ratio": Fraction(5, 9)}, []),
    MonomialIdeal: ({"bound": (2, 2)}, []),
}
DEFAULTS = {fsig.SemigroupPresentation: {"name": None}}
# built on first read and kept in the instance dict
LAZY = {FullEmbedding: ("image_lattice",), SignaturePolytope: ("vertices", "_homogeneous")}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_contract(record):
    # immutable value records: built by position or keyword, equal and hashed
    # by value, fields read-only, each construction check still in place
    fields, invalid = RECORDS[record]
    assert record._fields == tuple(fields)
    made = record(*fields.values())
    assert made == record(**fields) and hash(made) == hash(record(**fields))
    assert {name: getattr(made, name) for name in fields} == fields
    defaults = DEFAULTS.get(record, {})
    bare = record(**{name: value for name, value in fields.items() if name not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(made, name, value)
    for changed, error, message in invalid:
        with pytest.raises(error, match=message):
            record(**{**fields, **changed})
    lazy = LAZY.get(record, ())
    assert hasattr(made, "__dict__") == bool(lazy)  # only a record that caches has one
    assert not set(lazy) & set(getattr(made, "__dict__", ()))
    for name in lazy:
        getattr(made, name)
        assert name in vars(made)
    assert made == record(**fields) and hash(made) == hash(record(**fields))


def test_every_import_is_used():
    # module-level and function-level imports alike (cli imports inside a function)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def _fraction_calls(node, scope=()):
    """The qualified name of the scope of every Fraction(...) call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "Fraction" in (
            getattr(child.func, "id", None),
            getattr(child.func, "attr", None),
        ):
            yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _fraction_calls(child, scope + (child.name,) if named else scope)


def test_facet_functionals_stay_integer():
    # from the double description to check_normal the functionals are integer
    # rays; only FacetFunctional.coefficients renders them as Fractions
    semigroup = ast.parse((PACKAGE / "semigroup.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(semigroup):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert not names & {"Fraction", "fractions", "primitive_vector"}
    cone = ast.parse((PACKAGE / "cone.py").read_text(encoding="utf-8"))
    assert set(_fraction_calls(cone)) == {"FacetFunctional.coefficients"}


def test_signature_keeps_no_rational_oracle():
    # the volume routes stay in integer rows; the Fraction-based centroid
    # route and its determinant live in tests/oracles.py
    signature = ast.parse((PACKAGE / "signature.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(signature)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"rational_determinant", "clear_denominators"}
    assert set(_fraction_calls(signature)) == {
        "SignaturePolytope.vertices",
        "_closed_form",
        "_walk_volume",
    }


def _module_state(module):
    """A module's dict state, and every name, attribute and import it uses.

    Dict state is a module-level assignment of a dict display, comprehension
    or dict()/defaultdict() call, or a dict default of a function argument,
    which lives as long as the module does.
    """
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    dicts = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            dicts.append(node.value)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            dicts += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
    state = [
        ast.unparse(value)
        for value in dicts
        if isinstance(value, (ast.Dict, ast.DictComp))
        or isinstance(value, ast.Call) and getattr(value.func, "id", None) in {"dict", "defaultdict"}
    ]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return state, names


def test_exact_keeps_no_module_state():
    # the counter's memo lives in each call, so the kernel and the counter stay
    # thread-safe: no module-level dict and no functools cache in fsig.exact or
    # in fsig.frobenius, where the counter lives
    for module in ("exact.py", "frobenius.py"):
        state, names = _module_state(module)
        assert not state, (module, state)
        assert not names & {"functools", "cache", "lru_cache", "cached_property"}, module


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_keeps_state(module):
    # memos live in each call (the counter's, the volume walk's faces), never
    # in module globals; cached_property is allowed outside exact.py, as it
    # keeps its value on the instance
    state, names = _module_state(module)
    assert not state, state
    assert not names & {"cache", "lru_cache"}


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert "from fsig import segre_generators, f_signature" in example
    exec(compile(example, "README.md", "exec"), {})


def test_runs_on_the_python_floor(tmp_path):
    # no stdlib call newer than requires-python: where that interpreter runs,
    # selftest passes on it and a signature run prints what this one prints
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"', pyproject)[1]
    python = shutil.which(f"python{floor}")
    version = "import sys; print('%d.%d' % sys.version_info[:2])"
    probe = python and subprocess.run(
        [python, "-c", version], capture_output=True, text=True, timeout=60
    )
    if not probe or probe.returncode or probe.stdout.strip() != floor:
        pytest.skip(f"no working python{floor} on PATH")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}

    def cli(interpreter, *args):
        proc = subprocess.run(
            [interpreter, "-m", "fsig.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (interpreter, args, proc.stderr)
        return proc.stdout

    assert "checks passed" in cli(python, "selftest")
    cli(python, "family", "segre", "2", "3", "--emit", "segre23.json")
    printed = cli(python, "signature", "segre23.json", "--json")
    assert json.loads(printed)["signature"] == "11/24"
    assert printed == cli(sys.executable, "signature", "segre23.json", "--json")
