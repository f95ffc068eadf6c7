"""Parametric families: bit-identical closed forms, finite families as their
exact laws, codecs, non-laws, overflow.

family_bits.json holds mean, stop_loss, es, phi, affine and dist_to_json on
each of the five families at fixed arguments (levels 0, interior and tail;
points below, inside and above each support), recorded as float.hex for
floats, exact strings for Fractions and laws, and type plus message for
errors.  A Bernoulli or a point mass holds no closed form: every operation
on it records what the same operation records on as_discrete of it.  Regenerate the file only from a
commit whose numbers are trusted:

    PYTHONPATH=src python tests/test_families.py > tests/family_bits.json
"""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stochorder import (
    Bernoulli,
    Exponential,
    InputError,
    LogNormal,
    Normal,
    PointMass,
    UnsupportedPairingError,
    affine,
    as_discrete,
    discretize,
    dist_from_json,
    dist_to_json,
    es,
    mean,
    phi,
    stop_loss,
)

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")

FAMILIES = {
    "normal": Normal(0.3, 1.7),
    "exponential": Exponential(0.8),
    "lognormal": LogNormal(-0.2, 0.6),
    "bernoulli": Bernoulli(0.3),
    "point": PointMass(0.7),
}
POINTS = (-2.5, -0.0, 0.0, 1e-300, 0.4, "1/3", F(7, 10), 1.0, 1.3, 3.7, 40.0, 1e308)
LEVELS = (0.0, "0", 1e-12, 0.05, F(1, 3), 0.5, 0.7, "0.999", 1 - 2**-53, 1.0)
AFFINE = ((2.0, -1.0), (-0.5, 0.25), (0, 3), ("1/3", "-2"))
UNARY = {"mean": mean, "dist_to_json": dist_to_json}
AT_POINT = {"stop_loss": stop_loss}
AT_LEVEL = {"es": es, "phi": phi}


def _record(f, *args) -> str:
    try:
        out = f(*args)
    except Exception as exc:  # the error is part of the record
        return f"E:{type(exc).__name__}: {exc}"
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, dict):
        return json.dumps({k: v.hex() if isinstance(v, float) else v for k, v in out.items()})
    return f"{type(out).__name__}:{out!r}"


def operations():
    """(name, function, arguments after the law) for every recorded operation."""
    for op, f in UNARY.items():
        yield op, f, ()
    for op, f in AT_POINT.items():
        for x in POINTS:
            yield f"{op} {x!r}", f, (x,)
    for op, f in AT_LEVEL.items():
        for p in LEVELS:
            yield f"{op} {p!r}", f, (p,)
    for a, b in AFFINE:
        yield f"affine {a!r} {b!r}", affine, (a, b)


def family_table() -> dict[str, str]:
    return {f"{name} {op}": _record(f, d, *args)
            for name, d in FAMILIES.items() for op, f, args in operations()}


def test_every_generic_operation_is_bit_identical():
    expected = json.loads((HERE / "family_bits.json").read_text())
    got = family_table()
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


@pytest.mark.parametrize("d", [Bernoulli(0.0), Bernoulli(0.25), Bernoulli(0.3), Bernoulli(1.0),
                               PointMass(0.7), PointMass(-2.5)], ids=repr)
def test_a_finite_family_is_its_exact_law(d):
    # the codec alone tells the family from its law
    exact = as_discrete(d)
    records = {op: (_record(f, d, *args), _record(f, exact, *args))
               for op, f, args in operations() if f is not dist_to_json}
    assert len(records) == 37
    assert {op: r for op, r in records.items() if r[0] != r[1]} == {}


class TestCodecs:
    @pytest.mark.parametrize("kind", [[1], {"a": 1}, 3, None, "Normal"])
    def test_bad_kind_is_an_input_error(self, kind):
        with pytest.raises(InputError, match="unknown distribution type"):
            dist_from_json({"type": kind, "mu": 0, "sigma": 1})

    @pytest.mark.parametrize("d", FAMILIES.values())
    def test_round_trip_keeps_fields_as_given(self, d):
        obj = dist_to_json(d)
        assert list(obj)[0] == "type"
        assert dist_from_json(obj) == d
        assert dist_to_json(Normal(1, 2)) == {"type": "normal", "mu": 1, "sigma": 2}

    def test_missing_and_bad_parameters(self):
        with pytest.raises(InputError, match="missing parameter 'sigma'"):
            dist_from_json({"type": "lognormal", "mu": 0})
        with pytest.raises(InputError, match="parameter 'q' must be a number"):
            dist_from_json({"type": "bernoulli", "q": "1/2"})

    def test_huge_parameter_is_an_input_error(self):
        with pytest.raises(InputError, match="'mu'"):
            dist_from_json({"type": "normal", "mu": 10**400, "sigma": 1})
        with pytest.raises(InputError, match="mu must be finite"):
            Normal(10**400, 1.0)


class TestNonLaws:
    @pytest.mark.parametrize("op", [lambda d: es(d, "1/2"), mean, lambda d: stop_loss(d, 1),
                                    lambda d: affine(d, 2, 1), lambda d: affine(d, 0, 1),
                                    dist_to_json, lambda d: phi(d, 0.5), lambda d: phi(d, 1),
                                    lambda d: discretize(d, 2)])
    def test_unknown_distribution(self, op):
        with pytest.raises(InputError, match="unknown distribution"):
            op(object())


# closed forms whose value lies beyond binary64: (law, CLI arguments)
OVERFLOWS = [
    ('{"type": "lognormal", "mu": 0, "sigma": 40}', ("es", "--level", "0")),
    ('{"type": "lognormal", "mu": 0, "sigma": 40}', ("phi", "--level", "1/2")),
    ('{"type": "lognormal", "mu": 0, "sigma": 40}', ("stoploss", "--deductible", "0")),
    ('{"type": "lognormal", "mu": 709, "sigma": 1}', ("discretize", "--grid", "16")),
    ('{"type": "normal", "mu": 0, "sigma": 1.7e308}', ("discretize", "--grid", "16")),
    ('{"type": "lognormal", "mu": 709, "sigma": 1}', ("es", "--level", "1/2")),
    ('{"type": "exponential", "rate": 5e-324}', ("es", "--level", "1/2")),
    ('{"type": "exponential", "rate": 5e-324}', ("stoploss", "--deductible", "0")),
]
OVERFLOW_IDS = [f"{argv[0]}-{json.loads(law)['type']}-{k}" for k, (law, argv) in enumerate(OVERFLOWS)]
LIBRARY = {"es": es, "phi": phi, "stoploss": stop_loss, "discretize": lambda d, n: discretize(d, int(n))}


class TestOverflow:
    @pytest.mark.parametrize("d", [Normal(0.0, 1.0), LogNormal(0.0, 1.0), Exponential(1.0)])
    def test_huge_point_is_an_input_error(self, d):
        with pytest.raises(InputError, match="binary64"):
            stop_loss(d, "1e4000")
        with pytest.raises(UnsupportedPairingError):
            affine(d, 1, -(10**400))

    @pytest.mark.parametrize("d", [LogNormal(0.0, 40.0), Exponential(1e-320)], ids=repr)
    def test_mean_beyond_binary64_is_an_input_error(self, d):
        with pytest.raises(InputError) as exc:
            mean(d)
        assert str(exc.value) == f"mean of {d!r} exceeds binary64"

    @pytest.mark.parametrize("law, argv", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_closed_form_beyond_binary64_is_an_input_error(self, law, argv):
        op, _, arg = argv
        d = dist_from_json(json.loads(law))
        with pytest.raises(InputError, match="exceeds binary64"):
            LIBRARY[op](d, arg)

    def _cli(self, tmp_path, law, *argv):
        path = tmp_path / "law.json"
        path.write_text(law)
        proc = subprocess.run(
            [sys.executable, "-m", "stochorder.cli", *argv, str(path)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC},
        )
        return proc.returncode, proc.stdout, proc.stderr.splitlines()

    def test_cli_huge_parameter_exits_2(self, tmp_path):
        law = '{"type": "normal", "mu": 1' + "0" * 400 + ', "sigma": 1}'
        code, out, err = self._cli(tmp_path, law, "es", "--level", "1/2")
        assert (code, out, len(err)) == (2, "", 1)
        assert err[0].startswith("error: ") and "'mu'" in err[0]

    @pytest.mark.parametrize("law", ['{"type": "normal", "mu": 0, "sigma": 1}',
                                     '{"type": "lognormal", "mu": 0, "sigma": 1}'])
    def test_cli_huge_deductible_exits_2(self, tmp_path, law):
        code, out, err = self._cli(tmp_path, law, "stoploss", "--deductible", "1e4000")
        assert (code, out, len(err)) == (2, "", 1)
        assert err[0].startswith("error: ") and "binary64" in err[0]

    @pytest.mark.parametrize("law, argv", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_cli_closed_form_beyond_binary64_exits_2(self, tmp_path, law, argv):
        code, out, err = self._cli(tmp_path, law, *argv)
        assert (code, out, len(err)) == (2, "", 1)
        assert err[0].startswith("error: ") and err[0].endswith("exceeds binary64")


if __name__ == "__main__":
    json.dump(family_table(), sys.stdout, indent=1, sort_keys=True)
    print()
