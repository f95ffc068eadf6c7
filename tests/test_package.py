"""Package hygiene: no unread imports (in the tests and scripts too), no
writes through an object's __dict__, no numpy at run time, a reference
module that imports none of the routes it checks, the reference's
Newton-built Gauss-Legendre rule against numpy's, and the lazy package
namespace (what each name loads, every library module listed in it, and
`import *` binding the modules' public names), and the records: each is a
dataclass built without generated code, which behaves as a frozen
dataclass twin of it does."""

import ast
import dataclasses
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import stochorder
from stochorder import coupling, dists, orders

from . import reference as ref

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the package's modules, and the seeded generators the tests and scripts share
MODULES = sorted((SRC / "stochorder").glob("*.py")) + [HERE / "gen.py"]
# the rest of the tests and the scripts, named with their folder
OTHERS = [p for p in sorted(HERE.glob("*.py")) + sorted((HERE.parent / "scripts").glob("*.py"))
          if p not in MODULES]


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):  # names re-exported through __all__ count as read
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    imported = [  # `import a.b` binds a
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES + OTHERS,
                         ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_every_relative_import_is_read(path):
    # absolute imports, the standard library's included, count too
    assert _unread_imports(path) == []


def test_unread_absolute_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "import json as j\nfrom itertools import compress, chain\n"
                      "chain(os.sep)\n")
    assert _unread_imports(module) == ["j", "compress"]


def _unread_private_names(paths: list[Path]) -> list[str]:
    """Module-level private names (one leading underscore) that a def, class
    or assignment in one of the files binds and none of the files reads, by
    name or as an attribute."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_name_is_read():
    assert _unread_private_names(sorted((SRC / "stochorder").glob("*.py"))) == []


def test_unread_private_name_is_caught(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_A = 1\n_B: int = 2\n__all__ = []\n\ndef _f():\n    return _A\n\n"
                 "def _g():\n    pass\n\nclass _C:\n    pass\n\nclass D:\n    _attr = 0\n")
    b.write_text("from .a import _C\nfrom . import a\na._f()\n_C.__name__\n")
    assert _unread_private_names([a, b]) == ["_B", "_g"]


def _reference_leaks(path: Path) -> list[str]:
    """Names the file imports from the code the reference routes check: any
    name of stochorder.risk, stochorder.conditions or stochorder.coupling,
    and any of stochorder.orders but its verdict types, also through the
    package."""
    from stochorder import conditions, coupling, orders, risk

    allowed = {"OrderVerdict", "Witness"}
    checked = {"stochorder.risk": set(risk.__all__), "stochorder.conditions": set(conditions.__all__),
               "stochorder.orders": set(orders.__all__) - allowed,
               "stochorder.coupling": set(coupling.__all__)}
    leaks = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            leaks += [a.name for a in node.names if a.name in checked]
        elif isinstance(node, ast.ImportFrom) and node.module in checked:
            leaks += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.ImportFrom) and node.module == "stochorder":
            leaks += [a.name for a in node.names if any(a.name in names for names in checked.values())]
    return leaks


def test_reference_shares_no_code_with_what_it_checks():
    assert _reference_leaks(HERE / "reference.py") == []


def test_reference_leak_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import stochorder.risk\nfrom stochorder import mean, es, cond_new, Witness\n"
                      "from stochorder.orders import OrderVerdict, check_ssd\n"
                      "from stochorder.conditions import _first_failure\n"
                      "import stochorder.coupling\nfrom stochorder import Coupling, verify_coupling\n"
                      "from stochorder.coupling import _left_curtain\n")
    assert _reference_leaks(module) == ["stochorder.risk", "es", "cond_new",
                                        "stochorder.orders.check_ssd",
                                        "stochorder.conditions._first_failure",
                                        "stochorder.coupling", "Coupling", "verify_coupling",
                                        "stochorder.coupling._left_curtain"]


_DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear"}


def _dict_writes(path: Path) -> list[int]:
    """Lines that store into, delete from or update some object's __dict__."""
    def is_dict(node):
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"
    return sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        and is_dict(node.value)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_WRITERS and is_dict(node.func.value)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_write_through_dict(path):
    # a frozen dataclass sets its own fields in __post_init__, not behind them
    assert _dict_writes(path) == []


def test_write_through_dict_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("d.__dict__['ints'] = 1\nd.__dict__['n'] += 1\ndel d.__dict__['n']\n"
                      "d.__dict__.update(n=1)\nx = d.__dict__['ints']\nvars(d).get('n')\n")
    assert _dict_writes(module) == [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [["table", "gaussian", "--format", "json"],
                                  ["protective-put", "--spot", "100", "--strike", "95",
                                   "--sigma", "0.2", "--drift", "0", "--horizon", "1",
                                   "--t", "0.5"]])
def test_numeric_routes_never_load_numpy(argv):
    probe = ("import sys\nfrom stochorder.cli import main\n"
             f"code = main({argv!r})\n"
             "assert 'numpy' not in sys.modules, 'numpy was loaded'\nsys.exit(code)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("{")


class TestLegendreRule:
    def test_matches_numpy(self):
        xs, ws = ref._leggauss()
        nx, nw = np.polynomial.legendre.leggauss(ref._QUAD_NODES)
        assert len(xs) == len(ws) == ref._QUAD_NODES
        assert np.max(np.abs(np.array(xs) - nx)) <= 1e-14
        assert np.max(np.abs(np.array(ws) - nw)) <= 1e-14

    def test_nodes_ascend_and_weights_sum_to_two(self):
        xs, ws = ref._leggauss()
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert -1.0 < xs[0] and xs[-1] < 1.0
        assert math.fsum(ws) == pytest.approx(2.0, abs=1e-14)

    def test_exact_up_to_degree_2n_minus_1(self):
        xs, ws = ref._leggauss()
        for k in range(2 * ref._QUAD_NODES):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(w * x**k for x, w in zip(xs, ws))
            assert got == pytest.approx(exact, abs=1e-14), k


def _fresh(probe: str):
    """What the probe prints as JSON, run in a new interpreter on the package's sources."""
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + probe],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stochorder'))))"
_PUBLIC_MODULES = ["apps", "conditions", "coupling", "dists", "models", "orders", "risk"]


class TestLazyNamespace:
    def test_every_library_module_is_listed(self):
        # `from . import m` for an unlisted m asks __getattr__ for a public
        # name, which loads every listed module
        library = {p.stem for p in (SRC / "stochorder").glob("*.py")} - {"__init__", "cli"}
        assert sorted(library) == sorted(stochorder._MODULES) == _PUBLIC_MODULES

    def test_import_loads_no_submodule(self):
        probe = "import stochorder\nassert stochorder.__version__ == '0.1.0'\n" + _LOADED
        assert _fresh(probe) == ["stochorder"]

    @pytest.mark.parametrize("statement, loaded", [
        ("from stochorder import risk", ["dists", "risk"]),
        ("from stochorder import dists", ["dists"]),
        ("import stochorder; stochorder.orders", ["dists", "orders", "risk"]),
        ("from stochorder import cli", ["cli", "dists"]),
        ("import stochorder; stochorder.normalize", _PUBLIC_MODULES),
    ])
    def test_a_name_loads_what_it_needs(self, statement, loaded):
        assert _fresh(f"{statement}\n{_LOADED}") == ["stochorder"] + [f"stochorder.{m}" for m in loaded]

    def test_star_and_dir_give_the_union_of_the_modules_all(self):
        probe = (
            "import importlib\nns = {}\nexec('from stochorder import *', ns)\ndel ns['__builtins__']\n"
            "mods = [importlib.import_module('stochorder.' + m) for m in %r]\n"
            "public = {n: getattr(m, n) for m in mods for n in m.__all__}\n"
            "assert sum(len(m.__all__) for m in mods) == len(public)\n"
            "assert all(ns[n] is public[n] for n in public)\n"
            "import stochorder\nassert set(public) <= set(dir(stochorder))\n"
            "print(json.dumps(sorted(ns) == sorted(public)))" % _PUBLIC_MODULES
        )
        assert _fresh(probe) is True

    @pytest.mark.parametrize("name, loaded", [("no_such_name", _PUBLIC_MODULES),
                                              ("_private", []), ("__wrapped__", [])])
    def test_unknown_attribute_raises(self, name, loaded):
        # a private name is never public, so asking for one loads nothing
        probe = (f"import stochorder\ntry:\n    stochorder.{name}\nexcept AttributeError as e:\n"
                 "    loaded = sorted(m for m in sys.modules if m.startswith('stochorder.'))\n"
                 "    print(json.dumps([str(e), loaded]))")
        assert _fresh(probe) == [f"module 'stochorder' has no attribute {name!r}",
                                 [f"stochorder.{m}" for m in loaded]]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _records() -> list[type]:
    """Every record of the package: each class a library module defines that
    is a dataclass or a dists._Record (the base and _Family aside)."""
    found = []
    for name in _PUBLIC_MODULES + ["cli"]:
        module = importlib.import_module(f"stochorder.{name}")
        found += [c for c in vars(module).values()
                  if isinstance(c, type) and c.__module__ == module.__name__
                  and (dataclasses.is_dataclass(c) or issubclass(c, dists._Record))
                  and c not in (dists._Record, dists._Family)]
    return found


RECORDS = _records()


def test_the_package_has_23_records():
    assert len(RECORDS) == len(set(RECORDS)) == 23


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_compiles_nothing_at_import(cls):
    module = sys.modules[cls.__module__]
    node = next(n for n in ast.walk(ast.parse(Path(module.__file__).read_text()))
                if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
    assert dataclasses.is_dataclass(cls) and issubclass(cls, dists._Record)
    # a class with no docstring gets one from inspect.signature at import
    assert ast.get_docstring(node, clean=False) == cls.__doc__ is not None
    init = vars(cls)["__init__"]
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    assert init.__code__.co_filename == module.__file__ != "<string>"
    for method in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert getattr(cls, method) is getattr(dists._Record, method), method
    for value in vars(cls).values():  # properties included
        code = getattr(getattr(value, "fget", value), "__code__", None)
        assert code is None or code.co_filename == module.__file__


def test_importing_the_package_compiles_no_source_text():
    # a frozen dataclass's methods are source text that exec compiles; the
    # modules themselves load as code objects
    probe = ("import builtins\nreal, texts = builtins.exec, []\n"
             "def counting(source, *rest):\n"
             "    if isinstance(source, str):\n"
             "        texts.append(source)\n"
             "    return real(source, *rest)\n"
             "builtins.exec = counting\n"
             "import stochorder.cli, stochorder.apps, stochorder.coupling, stochorder.models\n"
             "builtins.exec = real\nprint(json.dumps(texts))")
    assert _fresh(probe) == []


def test_records_of_two_classes_never_compare_equal():
    n, ln = dists.Normal(0.5, 1.25), dists.LogNormal(0.5, 1.25)
    assert dataclasses.astuple(n) == dataclasses.astuple(ln)
    assert (n == ln, n != ln) == (False, True)
    kin = dataclasses.make_dataclass("LogNormal", ["mu", "sigma"], frozen=True)
    assert (n == kin(0.5, 1.25), n != kin(0.5, 1.25)) == (False, True)


# twins: what @dataclass(frozen=True) builds for the same fields
@dataclass(frozen=True)
class Witness:
    kind: object
    value: object
    lhs: object
    rhs: object


@dataclass(frozen=True)
class OrderVerdict:
    holds: object
    witness: object = None


@dataclass(frozen=True)
class Normal:
    mu: object
    sigma: object


@dataclass(frozen=True)
class DiscreteDist:
    atoms: object
    ints: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ints", dists.DiscreteDist(self.atoms).ints)


@dataclass(frozen=True)
class Coupling:
    row_values: object
    col_values: object
    row_probs: object
    col_probs: object
    cells: object


_TWINS = {c.__name__: c for c in (Witness, OrderVerdict, Normal, DiscreteDist, Coupling)}


def _cases() -> list[tuple]:
    """(record, an unequal record of its class, a field and a new value for it)."""
    w = orders.Witness("level_p", F(1, 2), F(1), F(2))
    x, y = dists.normalize([(0, 1), (2, 1)]), dists.normalize([(-1, 1), (3, 1)])
    c = coupling.synth_martingale(x, y).coupling
    return [
        (w, orders.Witness("threshold_x", F(1, 2), F(1), F(2)), "lhs", F(3)),
        (orders.OrderVerdict(False, w), orders.OrderVerdict(True), "witness",
         orders.Witness("angle_t", 0, 1, 2)),
        (dists.Normal(0.5, 1.25), dists.Normal(0.5, 2.0), "sigma", 3.0),
        (x, y, "atoms", y.atoms),
        (c, coupling.synth_martingale(x, x).coupling, "cells", c.cells[:1]),
    ]


def _twin(r):
    return _TWINS[type(r).__name__](**{f.name: getattr(r, f.name)
                                       for f in dataclasses.fields(r) if f.init})


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("r, other, name, new", _cases(), ids=list(_TWINS))
def test_record_behaves_as_its_frozen_dataclass_twin(r, other, name, new):
    t, t_other, t_same = _twin(r), _twin(other), _twin(r)
    same = type(r)(**{f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.init})
    assert repr(r) == repr(t) and repr(other) == repr(t_other)
    assert hash(r) == hash(t) == hash(same) and hash(other) == hash(t_other)
    # == within one class over the compared fields; other classes are unequal
    for a, b in ((r, t), (same, t_same), (other, t_other)):
        assert (a == r, a != r, a == other, a != other) == (b == t, b != t, b == t_other, b != t_other)
    assert (r == same, r != other, r == t, r != t, t == r) == (True, True, False, True, False)
    assert r.__eq__(dataclasses.astuple(r)) is t.__eq__(dataclasses.astuple(t)) is NotImplemented
    # assignment and deletion, of a field or of any other name
    for attr in (name, "extra"):
        assert _raised(setattr, r, attr, new) == _raised(setattr, t, attr, new)
        assert _raised(delattr, r, attr) == _raised(delattr, t, attr)
        assert _raised(setattr, r, attr, new)[0] is FrozenInstanceError
    # the field registry: replace, asdict, astuple and fields
    moved, t_moved = dataclasses.replace(r, **{name: new}), dataclasses.replace(t, **{name: new})
    assert type(moved) is type(r) and repr(moved) == repr(t_moved) and getattr(moved, name) == new
    assert dataclasses.asdict(r) == dataclasses.asdict(t)
    assert dataclasses.astuple(r) == dataclasses.astuple(t)
    registry = [(f.name, f.init, f.repr, f.compare, f.hash, f.default) for f in dataclasses.fields(r)]
    assert registry == [(f.name, f.init, f.repr, f.compare, f.hash, f.default)
                        for f in dataclasses.fields(t)]
    # a missing or an unknown argument
    assert _raised(type(r))[0] is _raised(type(t))[0] is TypeError
    kwargs = {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.init}
    assert _raised(lambda: type(r)(**kwargs, extra=1))[0] is TypeError
    assert _raised(lambda: type(t)(**kwargs, extra=1))[0] is TypeError
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is type(r) and back == r and repr(back) == repr(r)
