"""Command-line interface: reports, exit codes, table formats, file output."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stochorder import dist_from_json, dists, joint_from_json
from stochorder.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _discrete(values, probs=None):
    n = len(values)
    probs = probs or [f"1/{n}"] * n
    return {
        "type": "discrete",
        "atoms": [{"x": v, "p": p} for v, p in zip(values, probs)],
    }


def _joint(cells):
    return {"type": "joint", "atoms": [{"w": w, "z": z, "p": p} for w, z, p in cells]}


@pytest.fixture
def run(capsys):
    def call(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out.startswith("{") else None
        return code, report, captured

    return call


class TestRiskCommands:
    def test_es_golden(self, run, tmp_path):
        dist = _write(tmp_path / "d.json", _discrete([0, 1, 2, 3]))
        code, report, cap = run("es", "--level", "0.5", dist)
        assert code == 0
        assert report["result"] == "5/2"
        assert report["subcommand"] == "es"
        assert report["witness"] is None
        assert report["timing_ms"] >= 0
        assert "5/2" in cap.err

    def test_es_inputs_round_trip(self, run, tmp_path):
        dist = _write(tmp_path / "d.json", _discrete([0, "1/2", 3]))
        code, report, _ = run("es", "--level", "1/3", dist)
        assert code == 0
        parsed = dist_from_json(report["inputs"]["dist"])
        assert parsed.values == (F(0), F(1, 2), F(3))
        assert report["inputs"]["level"] == "1/3"

    def test_rational_strings_at_the_digit_bound_round_trip(self, run, tmp_path):
        dist = _write(tmp_path / "d.json", _discrete(["-25E-4299", "1e4299"]))
        code, report, _ = run("es", "--level", "1/2", dist)
        assert code == 0
        assert report["result"] == 10**4299
        parsed = dist_from_json(report["inputs"]["dist"])
        assert parsed.values == (F(-25, 10**4299), F(10**4299))
        dist = _write(tmp_path / "e.json", _discrete(["-25E-4299", "1e4300"]))
        code, report, cap = run("es", "--level", "1/2", dist)
        assert code == 2 and report is None
        assert "more than 4300 digits" in cap.err

    def test_result_too_large_to_print_exits_two(self, run, tmp_path):
        # both atoms print back, but their mean has about 8,600 digits
        dist = _write(tmp_path / "d.json", _discrete(["1e4299", "-25E-4299"]))
        code, report, cap = run("es", "--level", "0", dist)
        assert code == 2 and report is None and cap.out == ""
        assert cap.err.startswith("error: ") and len(cap.err.splitlines()) == 1
        assert "cannot be printed" in cap.err

    def test_phi_and_stoploss(self, run, tmp_path):
        dist = _write(tmp_path / "d.json", _discrete([0, 1]))
        code, report, _ = run("phi", "--level", "1/2", dist)
        assert code == 0 and report["result"] == "1/2"
        code, report, _ = run("stoploss", "--deductible", "1/2", dist)
        assert code == 0 and report["result"] == "1/4"

    @pytest.mark.parametrize("level", ["1.5", "-0.5"])
    def test_phi_level_outside_the_unit_interval_on_a_normal_exits_2(self, run, tmp_path, level):
        dist = _write(tmp_path / "n.json", {"type": "normal", "mu": 0, "sigma": 1})
        code, report, cap = run("phi", f"--level={level}", dist)
        assert (code, report, cap.out) == (2, None, "")
        assert cap.err == f"error: level must lie in [0, 1], got {level}\n"

    def test_bad_level(self, run, tmp_path):
        dist = _write(tmp_path / "d.json", _discrete([0, 1]))
        code, _, cap = run("es", "--level", "one", dist)
        assert code == 2
        assert "error:" in cap.err


class TestCheckOrder:
    def test_holds_exit_zero(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 1]))
        y = _write(tmp_path / "y.json", _discrete([-1, 0]))
        code, report, _ = run("check-order", "--relation", "ssd", x, y)
        assert code == 0
        assert report["result"] == {"holds": True}
        assert report["witness"] is None

    def test_fails_exit_one_with_witness(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 1]))
        y = _write(tmp_path / "y.json", _discrete([0, 2]))
        code, report, _ = run("check-order", "--relation", "ssd", x, y)
        assert code == 1
        assert report["result"] == {"holds": False}
        assert report["witness"]["kind"] == "level_p"

    def test_oracle_route(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 1]))
        y = _write(tmp_path / "y.json", _discrete([-1, 0]))
        code, report, _ = run(
            "check-order", "--relation", "ssd", "--oracle", x, y
        )
        assert code == 0
        assert report["inputs"]["oracle"] is True

    def test_oracle_unavailable_for_cx(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 1]))
        code, _, cap = run("check-order", "--relation", "cx", "--oracle", x, x)
        assert code == 2
        assert "no oracle route" in cap.err

    def test_parametric_normal_pair(self, run, tmp_path):
        x = _write(tmp_path / "x.json", {"type": "normal", "mu": 0, "sigma": 1})
        y = _write(tmp_path / "y.json", {"type": "normal", "mu": -0.5, "sigma": 1})
        code, report, _ = run("check-order", "--relation", "ssd", x, y)
        assert code == 0 and report["result"]["holds"] is True


class TestCheckCond:
    def test_new_holds(self, run, tmp_path):
        j = _write(
            tmp_path / "j.json",
            _joint([(0, -1, "1/4"), (0, 0, "1/4"), (1, 0, "1/2")]),
        )
        code, report, _ = run("check-cond", "--which", "new", j)
        assert code == 0 and report["result"]["holds"] is True

    def test_classic_fails_with_witness(self, run, tmp_path):
        j = _write(
            tmp_path / "j.json",
            _joint([(0, 1, "1/2"), (1, -1, "1/2")]),
        )
        code, report, _ = run("check-cond", "--which", "classic", j)
        assert code == 1
        assert report["witness"]["kind"] == "threshold_x"
        assert report["witness"]["value"] == 0

    def test_all_condition_names(self, run, tmp_path):
        j = _write(
            tmp_path / "j.json",
            _joint([(0, 0, "1/2"), (1, 0, "1/2")]),
        )
        for which in ("new", "classic", "icx", "cx", "thm2"):
            code, report, _ = run("check-cond", "--which", which, j)
            assert code == 0, which


class TestSynthesize:
    def test_writes_coupling_joint(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 2]))
        y = _write(tmp_path / "y.json", _discrete([-1, 3]))
        out = tmp_path / "coupling.json"
        code, report, _ = run(
            "synthesize", "--mode", "cx", "--out", str(out), x, y
        )
        assert code == 0
        assert report["result"]["feasible"] is True
        j = joint_from_json(json.loads(out.read_text()))
        atoms = dict(((w, w + z), p) for w, z, p in j.atoms)
        assert atoms[(F(0), F(-1))] == F(3, 8)
        assert atoms[(F(2), F(3))] == F(3, 8)

    def test_infeasible_exit_one(self, run, tmp_path):
        x = _write(tmp_path / "x.json", _discrete([0, 1]))
        y = _write(tmp_path / "y.json", _discrete([0, 2]))
        code, report, _ = run("synthesize", "--mode", "ssd", x, y)
        assert code == 1
        assert report["result"] == {"feasible": False, "coupling": None}
        assert report["witness"] is not None


class TestDiscretize:
    def test_normal_to_file(self, run, tmp_path):
        d = _write(tmp_path / "d.json", {"type": "normal", "mu": 0, "sigma": 1})
        out = tmp_path / "disc.json"
        code, report, _ = run("discretize", "--grid", "8", "--out", str(out), d)
        assert code == 0
        disc = dist_from_json(json.loads(out.read_text()))
        assert disc.support_size() == 8
        assert sum(v * p for v, p in disc.atoms) == 0

    def test_bad_n(self, run, tmp_path):
        d = _write(tmp_path / "d.json", {"type": "normal", "mu": 0, "sigma": 1})
        code, _, cap = run("discretize", "--grid", "1", d)
        assert code == 2

    @pytest.mark.parametrize("grid", ["100001", "100000000000"])
    def test_atom_cap_exits_2(self, run, tmp_path, grid):
        d = _write(tmp_path / "d.json", {"type": "normal", "mu": 0, "sigma": 1})
        code, report, cap = run("discretize", "--grid", grid, d)
        assert (code, report) == (2, None)
        assert f"at most 100000 atoms, got {grid}" in cap.err

    @pytest.mark.parametrize("argv", [
        ["discretize", "--n", "8", "d.json"],
        ["table", "bernoulli", "--grid", "default"],
    ], ids=["discretize-n", "table-grid"])
    def test_one_spelling_per_option(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestTable:
    def test_bernoulli_csv(self, run):
        code, report, cap = run("table", "bernoulli")
        assert code == 0
        assert report is None  # csv bypasses the JSON report
        lines = cap.out.strip().splitlines()
        assert lines[0] == "c,rho,ssd,new,classic"
        assert len(lines) == 1 + 16 * 21
        assert "0.6,0.5,1,1,0" in lines
        assert "0.4,0.5,0,0,0" in lines

    def test_bernoulli_md(self, run):
        code, _, cap = run("table", "bernoulli", "--format", "md")
        assert code == 0
        lines = cap.out.strip().splitlines()
        assert lines[0] == "| c | rho | ssd | new | classic |"
        assert lines[1].startswith("|")
        assert len(lines) == 2 + 16 * 21

    def test_bernoulli_json(self, run):
        code, report, _ = run("table", "bernoulli", "--format", "json")
        assert code == 0
        assert report["inputs"] == {"which": "bernoulli"}
        rows = report["result"]
        assert len(rows) == 16 * 21
        cell = next(r for r in rows if r["c"] == 0.6 and r["rho"] == 0.5)
        assert (cell["ssd"], cell["new"], cell["classic"]) == (1, 1, 0)

    def test_gaussian_json(self, run):
        code, report, _ = run("table", "gaussian", "--format", "json")
        assert code == 0
        rows = report["result"]
        assert len(rows) == 4 * 3 * 19
        for r in rows:
            assert r["classic"] <= r["new"] <= r["ssd"]


class TestAppliedCommands:
    def test_improver_exit_codes(self, run, tmp_path):
        good = _write(tmp_path / "g.json", _joint([(0, 1, "1/2"), (1, 2, "1/2")]))
        code, report, _ = run("improver", good)
        assert code == 0
        assert report["result"] == {"in_s": True, "in_n": True}
        bad = _write(tmp_path / "b.json", _joint([(0, -2, "1/2"), (1, 0, "1/2")]))
        code, report, _ = run("improver", bad)
        assert code == 1
        assert report["result"]["in_s"] is False

    def test_marketable(self, run, tmp_path):
        i = _write(
            tmp_path / "i.json", {"kind": "fixed", "threshold": 1, "amount": 1}
        )
        loss = _write(tmp_path / "l.json", {"type": "exponential", "rate": 1})
        code, report, _ = run("marketable", "--indemnity", i, "--loss", loss,
                              "--p0", "0.3")
        assert code == 0 and report["result"]["holds"] is True
        code, report, cap = run("marketable", "--indemnity", i, "--loss", loss,
                                "--p0", "0.4")
        assert code == 1
        assert report["witness"]["value"] == 0.0
        assert cap.err.startswith("warning: premium exceeds the expected indemnity")

    def test_marketable_warning_is_one_plain_line(self, tmp_path):
        i = _write(tmp_path / "i.json", {"kind": "fixed", "threshold": 1, "amount": 1})
        loss = _write(tmp_path / "l.json", _discrete([0, 2]))
        out = subprocess.run(
            [sys.executable, "-m", "stochorder.cli", "marketable", "--indemnity", i,
             "--loss", loss, "--p0", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert out.returncode == 1
        assert out.stderr.splitlines() == [
            "warning: premium exceeds the expected indemnity; the marketability "
            "condition cannot hold at every threshold",
            "contract is not marketable at premium 1",
        ]

    def test_premium_linear_exact(self, run, tmp_path):
        i = _write(tmp_path / "i.json", {"kind": "stop_loss", "deductible": 1})
        loss = _write(tmp_path / "l.json", _discrete([0, 1, 4]))
        code, report, _ = run("premium", "--utility", "linear", "--wealth", "10",
                              "--indemnity", i, "--loss", loss)
        assert code == 0
        assert report["result"] == 1  # integer rational serializes bare

    def test_premium_exponential(self, run, tmp_path):
        i = _write(tmp_path / "i.json", {"kind": "stop_loss", "deductible": 1})
        loss = _write(tmp_path / "l.json", _discrete([0, 1, 4]))
        code, report, _ = run("premium", "--utility", "exp:1", "--wealth", "10",
                              "--indemnity", i, "--loss", loss)
        assert code == 0
        assert report["result"] >= 1.0

    def test_premium_power_unresolved_at_large_wealth_exits_2(self, run, tmp_path):
        i = _write(tmp_path / "i.json", {"kind": "piecewise", "knots": [[0, 0], [1, 0], [2, 1]]})
        loss = _write(tmp_path / "l.json", _discrete([0, 2]))
        code, report, cap = run("premium", "--utility", "power:0.5", "--wealth", "1e20",
                                "--indemnity", i, "--loss", loss)
        assert (code, report) == (2, None)
        assert cap.err.startswith("error: power utility at wealth 1e+20 ")

    def test_stoploss_compare(self, run, tmp_path):
        j = _write(
            tmp_path / "j.json",
            _joint([(0, 0, "1/4"), (0, 1, "1/4"), (2, 0, "1/4"), (2, 1, "1/4")]),
        )
        code, report, _ = run("stoploss-compare", j)
        assert code == 0
        assert report["result"]["dominates"] is True
        assert report["result"]["condition_holds"] is True
        assert report["result"]["deductibles"] == [0, 1, 2, 3]

    def test_stoploss_compare_custom_grid(self, run, tmp_path):
        j = _write(tmp_path / "j.json", _joint([(0, 0, "1/2"), (2, 1, "1/2")]))
        code, report, _ = run("stoploss-compare", "--deductibles", "0,1/2", j)
        assert code == 0
        assert report["result"]["deductibles"] == [0, "1/2"]

    def test_stoploss_compare_empty_grid_exits_2(self, run, tmp_path):
        j = _write(tmp_path / "j.json", _joint([(0, 0, "1/2"), (2, 1, "1/2")]))
        code, report, cap = run("stoploss-compare", "--deductibles", "", j)
        assert (code, report) == (2, None)
        assert cap.err == "error: bad deductible '': cannot parse rational from ''\n"

    @pytest.mark.parametrize("family, law", [
        ({"type": "bernoulli", "q": 0.25}, _discrete([0, 1], ["3/4", "1/4"])),
        ({"type": "point", "c": 2.5}, _discrete(["5/2"], [1])),
    ], ids=["bernoulli", "point"])
    @pytest.mark.parametrize("argv, exit_code", [
        (["marketable", "--p0", "1/10"], 0),
        (["marketable", "--p0", "3"], 1),
        (["premium", "--utility", "exp:1", "--wealth", "10"], 0),
    ], ids=["marketable-holds", "marketable-fails", "premium"])
    def test_finite_family_loss_reports_as_its_exact_law(self, run, tmp_path, family, law,
                                                          argv, exit_code):
        i = _write(tmp_path / "i.json", {"kind": "stop_loss", "deductible": "1/2"})
        reports = []
        for name, loss in (("f.json", family), ("d.json", law)):
            code, report, _ = run(*argv, "--indemnity", i, "--loss", _write(tmp_path / name, loss))
            assert code == exit_code
            assert report["inputs"].pop("loss") == loss
            del report["timing_ms"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_protective_put(self, run):
        code, report, _ = run(
            "protective-put", "--spot", "1", "--strike", "1", "--sigma", "0.2",
            "--drift", "-0.05", "--horizon", "1", "--t", "0.5",
        )
        assert code == 0
        assert report["result"]["holds"] is True
        assert report["result"]["expected_put"] >= report["result"]["p0"]

    def test_protective_put_bad_drift(self, run, capsys):
        code, _, cap = run(
            "protective-put", "--spot", "1", "--strike", "1", "--sigma", "0.2",
            "--drift", "0.05", "--horizon", "1", "--t", "0.5",
        )
        assert code == 2
        assert "nonpositive growth" in cap.err

    @pytest.mark.parametrize("grid", ["nan", "0.5,nan", "inf"])
    def test_protective_put_non_finite_grid_exits_2(self, run, grid):
        code, report, cap = run(
            "protective-put", "--spot", "1", "--strike", "1", "--sigma", "0.2",
            "--drift", "-0.05", "--horizon", "1", "--t", "0.5", "--x-grid", grid,
        )
        assert (code, report) == (2, None)
        assert cap.err.startswith("error: x grid point must be finite")

    def test_protective_put_empty_grid_exits_2(self, run):
        code, report, cap = run(
            "protective-put", "--spot", "1", "--strike", "1", "--sigma", "0.2",
            "--drift", "-0.05", "--horizon", "1", "--t", "0.5", "--x-grid", "",
        )
        assert (code, report) == (2, None)
        assert cap.err == "error: bad x grid ''\n"


class TestErrorPaths:
    def test_missing_file(self, run, tmp_path):
        code, _, cap = run("es", "--level", "0", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in cap.err and "nope.json" in cap.err

    def test_malformed_json(self, run, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, cap = run("es", "--level", "0", str(p))
        assert code == 2
        assert "malformed JSON" in cap.err

    @pytest.mark.parametrize("text", [
        '{"type": "discrete", "atoms": [{"x": 1%s, "p": 1}]}' % ("0" * 5000),
        '{"type": "normal", "mu": 1%s, "sigma": 1}' % ("0" * 5000),
    ], ids=["discrete-atom", "normal-mu"])
    def test_number_over_the_digit_limit_names_the_file(self, run, tmp_path, text):
        p = tmp_path / "big.json"
        p.write_text(text)
        code, report, cap = run("es", "--level", "0", str(p))
        assert (code, report, cap.out) == (2, None, "")
        assert cap.err == f"error: {p}: a number has more than 4300 digits\n"

    def test_byte_outside_utf8_names_the_file(self, run, tmp_path):
        p = tmp_path / "bytes.json"
        p.write_bytes(b'{"type":"discrete","atoms":[{"x":1\xff,"p":1}]}')
        code, report, cap = run("es", "--level", "0", str(p))
        assert (code, report, cap.out) == (2, None, "")
        assert cap.err.startswith(f"error: {p}: malformed JSON: 'utf-8' codec can't decode byte 0xff")

    def test_deep_nesting_names_the_file(self, run, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        code, report, cap = run("es", "--level", "0", str(p))
        assert (code, report, cap.out) == (2, None, "")
        assert cap.err.startswith(f"error: {p}: malformed JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv, parse, obj, what", [
        (["es", "--level", "0"], dist_from_json, _discrete([0] * 100_001, [1] * 100_001),
         "discrete law takes at most 100000 atoms, got 100001"),
        (["check-cond", "--which", "new"], joint_from_json, _joint([(0, 0, 1)] * 100_001),
         "joint law takes at most 100000 cells, got 100001"),
    ], ids=["law", "joint"])
    def test_atom_cap_exits_2_before_parsing(self, run, tmp_path, monkeypatch, argv, parse, obj, what):
        def unreachable(*args):
            raise AssertionError("an atom was parsed")

        monkeypatch.setattr(dists, "_value_from_json", unreachable)
        monkeypatch.setattr(dists, "_prob_from_json", unreachable)
        p = _write(tmp_path / "big.json", obj)
        code, report, cap = run(*argv, p)
        assert (code, report, cap.out) == (2, None, "")
        assert cap.err == f"error: {p}: {what}\n"
        del obj["atoms"][0]  # at the cap the codec goes on to parse
        with pytest.raises(AssertionError, match="an atom was parsed"):
            parse(obj)

    def test_wrong_schema(self, run, tmp_path):
        p = _write(tmp_path / "w.json", {"type": "discrete", "atoms": []})
        code, _, cap = run("es", "--level", "0", str(p))
        assert code == 2

    def test_float_probability_rejected(self, run, tmp_path):
        p = _write(
            tmp_path / "f.json",
            {"type": "discrete", "atoms": [{"x": 0, "p": 0.5}, {"x": 1, "p": 0.5}]},
        )
        code, _, cap = run("es", "--level", "0", str(p))
        assert code == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check-order", "--relation", "sd", "x", "y"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestOverflow:
    """A rational too large for binary64 on a float route, or a malformed
    indemnity, is an input error: exit 2 and one error line, not a traceback
    under the "fails" code."""

    def _cli(self, tmp_path, indemnity, loss, *argv):
        i = _write(tmp_path / "i.json", indemnity)
        x = _write(tmp_path / "l.json", loss)
        proc = subprocess.run(
            [sys.executable, "-m", "stochorder.cli", *argv, "--indemnity", i, "--loss", x],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        return proc.returncode, proc.stdout, proc.stderr.splitlines()

    @pytest.mark.parametrize("indemnity, loss, argv, field", [
        ({"kind": "stop_loss", "deductible": 1}, _discrete([0, "1e400"]),
         ["premium", "--utility", "exp:1", "--wealth", "10"], "loss atom"),
        ({"kind": "stop_loss", "deductible": 1}, _discrete([0, 2]),
         ["premium", "--utility", "exp:1", "--wealth", "1e400"], "wealth"),
        ({"kind": "fixed", "threshold": "1e400", "amount": 1}, {"type": "exponential", "rate": 1},
         ["marketable", "--p0", "0"], "schedule threshold"),
        ({"kind": "fixed", "threshold": 1, "amount": 1}, {"type": "exponential", "rate": 1},
         ["marketable", "--p0", "1e400"], "premium p0"),
    ], ids=["premium-loss", "premium-wealth", "marketable-threshold", "marketable-p0"])
    def test_huge_rational_exits_2(self, tmp_path, indemnity, loss, argv, field):
        code, out, err = self._cli(tmp_path, indemnity, loss, *argv)
        assert (code, out) == (2, "")
        assert err == [f"error: {field} near 2**1329 exceeds binary64"]

    @pytest.mark.parametrize("indemnity, message", [
        ({"kind": "fixed", "threshold": 1}, "missing parameter 'amount'"),
        ({"kind": [1], "threshold": 1, "amount": 1}, "unknown indemnity kind [1]"),
        ({"kind": {"a": 1}, "threshold": 1, "amount": 1}, "unknown indemnity kind {'a': 1}"),
        ({"kind": 3, "threshold": 1, "amount": 1}, "unknown indemnity kind 3"),
    ], ids=["missing-field", "list-kind", "dict-kind", "int-kind"])
    def test_bad_indemnity_json_is_one_error_line(self, tmp_path, indemnity, message):
        code, out, err = self._cli(tmp_path, indemnity, _discrete([0, 2]),
                                   "marketable", "--p0", "0")
        assert (code, out, len(err)) == (2, "", 1)
        assert err[0].startswith("error: ") and err[0].endswith(": " + message)


class TestInternalErrors:
    def test_normal_icx_beyond_tail_resolution_exits_three(self, run, tmp_path):
        x = _write(tmp_path / "x.json", {"type": "normal", "mu": 100, "sigma": 1})
        y = _write(tmp_path / "y.json", {"type": "normal", "mu": 0, "sigma": 2})
        code, report, cap = run("check-order", "--relation", "icx", x, y)
        assert code == 3
        assert report is None and cap.out == ""
        assert cap.err.startswith("error: internal:")
        assert "binary64 tail resolution" in cap.err
        assert "Traceback" not in cap.err

    def test_route_disagreement_exits_three(self, run, tmp_path, monkeypatch):
        from stochorder import orders
        from stochorder.orders import OrderVerdict

        monkeypatch.setattr(orders, "_icx_walk", lambda *args: OrderVerdict(True))
        x = _write(tmp_path / "x.json", _discrete([0, 2]))
        y = _write(tmp_path / "y.json", _discrete([1]))
        code, report, cap = run("check-order", "--relation", "ssd", x, y)
        assert code == 3 and report is None
        assert cap.err.startswith("error: internal: ssd decision routes disagree")

    def test_rejected_coupling_exits_three(self, run, tmp_path, monkeypatch):
        from stochorder import coupling

        monkeypatch.setattr(coupling, "verify_coupling", lambda *args: False)
        x = _write(tmp_path / "x.json", _discrete([0, 2]))
        y = _write(tmp_path / "y.json", _discrete([-1, 3]))
        code, report, cap = run("synthesize", "--mode", "cx", x, y)
        assert code == 3 and report is None
        assert cap.err.startswith(
            "error: internal: check_cx holds but the martingale construction fails verification"
        )


def test_cli_import_leaves_numpy_out():
    # no route loads numpy; the numeric routes are pure Python
    probe = "import sys, stochorder.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"
