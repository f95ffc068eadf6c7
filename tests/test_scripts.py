"""The scripts run end to end on a small input."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def test_implication_sweep_holds_on_a_small_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "implication_sweep.py"), "--count", "50"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all implications held"


def test_cli_startup_times_every_subcommand_in_both_states():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_startup.py"), "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[:3] == ["subcommand", "none", "compiled"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert len(rows) == 14 and rows["(interpreter)"][2:] == ["-"]
    assert all(float(ms) > 0 for row in rows.values() for ms in row[:2])
    assert rows["discretize"][2:] == ["dists"]
    assert rows["synthesize"][2:] == ["coupling", "dists", "orders", "risk"]
    assert rows["table-bernoulli"][2:] == ["apps", "conditions", "dists", "models", "orders", "risk"]
    assert all(rows[name][2:] == ["dists", "models", "orders", "risk"]
               for name in ("table-gaussian", "protective-put", "premium"))


def test_bit_growth_times_laws_and_joints_at_one_size(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bit_growth", ROOT / "scripts" / "bit_growth.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src/ on the path
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "SIZES", (30,))
    monkeypatch.setattr(script, "REPEAT", 1)
    script.main()
    header, row = capsys.readouterr().out.splitlines()
    assert header.endswith("joint asc ms  joint shuf ms  joint bits D")
    n, *times, bits_d, bits_v, asc, shuf, joint_bits = row.split()
    assert n == "30" and len(times) == 3 and int(bits_d) > 0 and int(bits_v) > 0
    assert float(asc) >= 0 and float(shuf) >= 0
    cells = script.coprime_joint(30)
    assert len(cells) == 30 and cells == sorted(cells)
    assert int(joint_bits) == script.normalize_joint(cells).ints.D.bit_length()


def test_support_cap_times_the_command_at_one_size(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("support_cap", ROOT / "scripts" / "support_cap.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src/ on the path
    spec.loader.exec_module(script)
    worst = script.measure(60)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * 3 * 2
    times = []
    for line in lines:
        head, tail = line.split(" feasible=True command ")
        assert head.startswith("n=60 ") and tail.endswith(" s")
        times.append(float(tail[:-2]))
    assert 0 < worst and f"{worst:.3f}" == f"{max(times):.3f}"


def test_cli_startup_against_a_second_tree_times_both_call_for_call(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("cli_startup", ROOT / "scripts" / "cli_startup.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "COMMANDS", {"es": script.COMMANDS["es"]})
    order = []
    call = script._call
    # each call's (tree, state), read off its bytecode folder pycache-TREE-STATE
    monkeypatch.setattr(script, "_call", lambda argv, env, cwd: order.append(
        tuple(Path(env["PYTHONPYCACHEPREFIX"]).name.split("-")[1:])) or call(argv, env, cwd))
    assert script.main(["--rounds", "2", "--against", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"* {ROOT / 'src'}, alternated call for call with {script.SRC}"
    assert lines[2].split() == ["subcommand", "none", "none*", "compiled", "compiled*",
                                "package", "modules", "loaded"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[3:]}
    assert list(rows) == ["(interpreter)", "es"] and rows["es"][4:] == ["dists", "risk"]
    assert all(float(ms) > 0 for row in rows.values() for ms in row[:4])
    # one untimed fill per tree and state, then 2 rounds x 2 states x 2
    # names, each call paired with the same call of the other tree, the
    # pair's order alternating
    assert order[:4] == [("0", "none"), ("0", "compiled"), ("1", "none"), ("1", "compiled")]
    pairs = list(zip(order[4::2], order[5::2]))
    assert [(a[0], b[0]) for a, b in pairs] == [("0", "1"), ("1", "0")] * 4
    assert all(a[1] == b[1] for a, b in pairs)


def test_cli_startup_prints_the_mean_over_subcommands_and_its_paired_ratio(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("cli_startup", ROOT / "scripts" / "cli_startup.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "COMMANDS", {k: script.COMMANDS[k] for k in ("es", "discretize")})
    monkeypatch.setattr(script, "_fill", lambda src, prefix, state, work: {
        name: ["dists"] for name in script.COMMANDS})
    # a clock that each call moves on by its cost: ms per subcommand for
    # this tree (0) and the other (1), doubled with no bytecode
    clock = [0.0]
    cost = {("0", "es"): 10, ("0", "discretize"): 30, ("1", "es"): 20, ("1", "discretize"): 40}

    def call(argv, env, cwd):
        tree, state = Path(env["PYTHONPYCACHEPREFIX"]).name.split("-")[1:]
        ms = cost.get((tree, argv[-1] if argv[1] == "-c" else argv[3]), 5)
        clock[0] += ms * (2 if state == "none" else 1) / 1e3

    monkeypatch.setattr(script, "_call", call)
    monkeypatch.setattr(script, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    assert script.main(["--rounds", "3"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5  # title, header, interpreter and the two subcommands
    assert err.splitlines() == [f"{'(mean)':<20}{40.0:>9.1f}{20.0:>10.1f}"]
    assert script.main(["--rounds", "3", "--against", str(ROOT)]) == 0
    out, err = capsys.readouterr()
    (mean, *means), (ratio, *ratios) = (line.split() for line in err.splitlines())
    assert (mean, [float(m) for m in means]) == ("(mean)", [40.0, 60.0, 20.0, 30.0])
    assert (ratio, ratios) == ("(ratio)", ["0.667", "-", "0.667", "-"])


def test_line_coverage_lists_the_statements_a_tiny_suite_never_runs(tmp_path):
    (tmp_path / "test_tiny.py").write_text(
        "from stochorder.dists import Normal\n"
        "from stochorder.orders import check_st\n\n\n"
        "def test_st_fails_on_a_lower_mean():\n"
        "    assert not check_st(Normal(0.0, 1.0), Normal(1.0, 1.0)).holds\n"
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_coverage.py"), "test_tiny.py",
         "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1 passed" in proc.stdout
    rows = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                if line.startswith(("src/", "total")))
    assert len(rows) == 10

    def missed(module):
        # the lines of the runs of statements that never ran
        count, _, runs = rows[f"src/stochorder/{module}"].partition(": ")
        lines = set()
        for run in filter(None, runs.split(", ")):
            a, _, b = run.partition("-")
            lines.update(range(int(a), int(b or a) + 1))
        return count, lines

    # cli is never imported, so none of its statements ran
    count, lines = missed("cli.py")
    never, _, of, *_ = count.split()
    assert never == of and 1 in lines
    source = (ROOT / "src" / "stochorder" / "orders.py").read_text().splitlines()

    def line_of(text):
        return next(n for n, line in enumerate(source, 1) if text in line)

    _, lines = missed("orders.py")
    assert line_of("t = 0.5 * (mx + my)") not in lines
    assert line_of("def _normal(") not in lines  # run at import
    assert line_of('"st order for Normal pairs needs equal sigma') in lines
    assert line_of('kind, value, lhs, rhs = "angle_t"') in lines  # no tail scan ran
