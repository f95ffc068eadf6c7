"""The report contract of every subcommand: a report exits 1 exactly when it
carries a witness, and that witness names the point where the relation the
report exits on breaks.

INVOCATIONS holds a holding (or succeeding) and a failing invocation of every
subcommand that has one; protective-put has none that fails, since under
zero-rate dynamics with nonpositive drift the conditional put drift condition
holds (the paper's result).  cli_golden.json holds the exit code and the
report, with timing_ms removed, of each invocation.  Regenerate it only from a
commit whose reports are trusted:

    PYTHONPATH=src python tests/test_cli_reports.py > tests/cli_golden.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from stochorder import joint_from_json, joint_marginal_w, joint_sum, stop_loss
from stochorder.cli import main
from stochorder.dists import as_fraction, rational_to_json
from stochorder.orders import check_ssd

HERE = Path(__file__).resolve().parent


def _discrete(*values):
    return {"type": "discrete", "atoms": [{"x": v, "p": f"1/{len(values)}"} for v in values]}


def _joint(*cells):
    return {"type": "joint", "atoms": [{"w": w, "z": z, "p": p} for w, z, p in cells]}


FILES = {
    "d.json": _discrete(0, 1, 2, 3),
    "x.json": _discrete(0, 1),
    "down.json": _discrete(-1, 0),
    "wide.json": _discrete(0, 2),
    "spread.json": _discrete(-1, 3),
    "normal.json": {"type": "normal", "mu": 0, "sigma": 1},
    "exp.json": {"type": "exponential", "rate": 1},
    "loss.json": _discrete(0, 1, 4),
    "fixed.json": {"kind": "fixed", "threshold": 1, "amount": 1},
    "stop_loss.json": {"kind": "stop_loss", "deductible": 1},
    "cond_holds.json": _joint((0, -1, "1/4"), (0, 0, "1/4"), (1, 0, "1/2")),
    "cond_fails.json": _joint((0, 1, "1/2"), (1, -1, "1/2")),
    "gain.json": _joint((0, 1, "1/2"), (1, 2, "1/2")),
    "drag.json": _joint((0, -2, "1/2"), (1, 0, "1/2")),
    "late_drag.json": _joint((0, 0, "1/2"), (2, -1, "1/2")),
    "independent.json": _joint((0, 0, "1/4"), (0, 1, "1/4"), (2, 0, "1/4"), (2, 1, "1/4")),
    "early_drag.json": _joint((0, 2, "1/2"), (2, "-1/2", "1/2")),
}

PUT = ["--spot", "1", "--strike", "1", "--sigma", "0.2", "--drift", "-0.05", "--horizon", "1"]

INVOCATIONS = {
    "es": ["es", "--level", "1/2", "d.json"],
    "phi": ["phi", "--level", "1/4", "d.json"],
    "stoploss": ["stoploss", "--deductible", "1", "d.json"],
    "check-order-holds": ["check-order", "--relation", "ssd", "x.json", "down.json"],
    "check-order-fails": ["check-order", "--relation", "ssd", "x.json", "wide.json"],
    "check-order-oracle-fails": ["check-order", "--relation", "icx", "--oracle",
                                 "x.json", "wide.json"],
    "check-cond-holds": ["check-cond", "--which", "new", "cond_holds.json"],
    "check-cond-fails": ["check-cond", "--which", "classic", "cond_fails.json"],
    "synthesize-holds": ["synthesize", "--mode", "cx", "--out", "coupling.json",
                         "wide.json", "spread.json"],
    "synthesize-fails": ["synthesize", "--mode", "ssd", "--out", "coupling.json",
                         "x.json", "wide.json"],
    "discretize": ["discretize", "--grid", "8", "--out", "disc.json", "normal.json"],
    "table-bernoulli": ["table", "bernoulli", "--format", "json"],
    "improver-holds": ["improver", "gain.json"],
    "improver-fails": ["improver", "drag.json"],
    "improver-fails-late": ["improver", "late_drag.json"],
    "marketable-holds": ["marketable", "--indemnity", "fixed.json", "--loss", "exp.json",
                         "--p0", "0.3"],
    "marketable-fails": ["marketable", "--indemnity", "fixed.json", "--loss", "exp.json",
                         "--p0", "0.4"],
    "premium": ["premium", "--utility", "linear", "--wealth", "10",
                "--indemnity", "stop_loss.json", "--loss", "loss.json"],
    "stoploss-compare-holds": ["stoploss-compare", "independent.json"],
    "stoploss-compare-fails": ["stoploss-compare", "late_drag.json"],
    "stoploss-compare-fails-grid": ["stoploss-compare", "--deductibles", "1/2,1,0",
                                    "late_drag.json"],
    "stoploss-compare-dominates-without-condition": ["stoploss-compare", "early_drag.json"],
    "protective-put-holds": ["protective-put", *PUT, "--t", "0.5"],
}


def invoke(argv: list[str], folder: Path) -> tuple[int, dict, dict]:
    """Exit code, report without timing_ms, and the files the call wrote."""
    for name, obj in FILES.items():
        (folder / name).write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(folder / a) if a.endswith(".json") else a for a in argv])
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    written = {p.name: json.loads(p.read_text()) for p in folder.iterdir() if p.name not in FILES}
    for p in folder.iterdir():
        p.unlink()
    return code, report, written


def golden_table() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: dict(zip(("code", "report"), invoke(argv, Path(tmp))))
                for name, argv in INVOCATIONS.items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("reports")
    return {name: invoke(argv, folder) for name, argv in INVOCATIONS.items()}


def test_every_report_equals_its_golden_copy(runs):
    expected = json.loads((HERE / "cli_golden.json").read_text())
    got = {name: {"code": code, "report": report} for name, (code, report, _) in runs.items()}
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


@pytest.mark.parametrize("name", INVOCATIONS)
def test_exit_one_exactly_when_the_report_carries_a_witness(runs, name):
    code, report, _ = runs[name]
    assert code == (1 if "-fails" in name else 0)
    assert (code == 1) == (report["witness"] is not None)


def _wire(witness) -> dict:
    return {"kind": witness.kind, "value": rational_to_json(witness.value),
            "lhs": rational_to_json(witness.lhs), "rhs": rational_to_json(witness.rhs)}


@pytest.mark.parametrize("name", ["improver-fails", "improver-fails-late"])
def test_improver_witness_is_the_sum_against_the_marginal(runs, name):
    _, report, _ = runs[name]
    j = joint_from_json(report["inputs"]["joint"])
    assert report["witness"] == _wire(check_ssd(joint_sum(j), joint_marginal_w(j)).witness)


@pytest.mark.parametrize("name", ["stoploss-compare-fails", "stoploss-compare-fails-grid"])
def test_stoploss_witness_is_the_least_deductible_below_the_base(runs, name):
    _, report, _ = runs[name]
    j = joint_from_json(report["inputs"]["joint"])
    res = report["result"]
    ds = [as_fraction(d) for d in res["deductibles"]]
    below = [d for d, s, b in zip(ds, res["summed_premiums"], res["base_premiums"])
             if as_fraction(s) < as_fraction(b)]
    d = below[0]
    assert report["witness"] == {"kind": "angle_t", "value": rational_to_json(d),
                                 "lhs": rational_to_json(stop_loss(joint_sum(j), d)),
                                 "rhs": rational_to_json(stop_loss(joint_marginal_w(j), d))}
    assert d == 0 and report["witness"]["lhs"] == "1/2" and report["witness"]["rhs"] == 1


def test_a_failing_condition_does_not_fail_a_dominating_curve(runs):
    code, report, _ = runs["stoploss-compare-dominates-without-condition"]
    assert (code, report["witness"]) == (0, None)
    assert report["result"]["condition_holds"] is False
    assert report["result"]["dominates"] is True


def test_out_is_written_exactly_when_the_report_exits_0(runs):
    code, report, written = runs["synthesize-holds"]
    assert (code, written) == (0, {"coupling.json": report["result"]["coupling"]})
    code, report, written = runs["discretize"]
    assert (code, written) == (0, {"disc.json": report["result"]})
    code, _, written = runs["synthesize-fails"]
    assert (code, written) == (1, {})


if __name__ == "__main__":
    json.dump(golden_table(), sys.stdout, indent=1, sort_keys=True)
    print()
