"""Package hygiene: no unread imports (in the tests and scripts too), no
writes through an object's __dict__, no numpy at run time, a reference
module that imports none of the routes it checks, and the Newton-built
Gauss-Legendre rule of apps against numpy's."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochorder import apps

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
        xs, ws = apps._leggauss()
        nx, nw = np.polynomial.legendre.leggauss(apps._QUAD_NODES)
        assert len(xs) == len(ws) == apps._QUAD_NODES
        assert np.max(np.abs(np.array(xs) - nx)) <= 1e-14
        assert np.max(np.abs(np.array(ws) - nw)) <= 1e-14

    def test_nodes_ascend_and_weights_sum_to_two(self):
        xs, ws = apps._leggauss()
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert -1.0 < xs[0] and xs[-1] < 1.0
        assert math.fsum(ws) == pytest.approx(2.0, abs=1e-14)

    def test_exact_up_to_degree_2n_minus_1(self):
        xs, ws = apps._leggauss()
        for k in range(2 * apps._QUAD_NODES):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(w * x**k for x, w in zip(xs, ws))
            assert got == pytest.approx(exact, abs=1e-14), k
