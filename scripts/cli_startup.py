#!/usr/bin/env python3
"""Time `python -m stochorder.cli` per subcommand, with and without the
package's bytecode, and list the package modules each subcommand loads.

Every subcommand the `cli` benchmark workload runs is run here on a small
input of the same shape (laws of a few atoms, a 3 x 3 joint, a Normal
discretized to 16 atoms, the two region tables, a protective put), each call
in a fresh interpreter, for --rounds rounds.  PYTHONPYCACHEPREFIX points each
call at a bytecode folder of its state, so the checkout's own `__pycache__`
is never read:

    none       the folder holds the standard library's bytecode and none of
               the package's (an empty folder would leave the standard
               library uncompiled as well, which no installed interpreter is);
    compiled   the folder also holds the package, `compileall`-ed.

Each folder is filled by one untimed call per subcommand, which runs the
module as `-m` does and then names the package modules it loaded (`-X
importtime` misses the imports made through importlib, as the package's lazy
names are).  The timed calls run with PYTHONDONTWRITEBYTECODE=1, so a state
holds through the rounds, and the rounds interleave the subcommands and both
states.  Prints the median wall ms per subcommand and state, the bare
interpreter's first, and on stderr the row "(mean)": the mean of those
medians over the subcommands.  The `cli` workload runs the subcommands
round robin, so its ops_per_s follows that mean.  Exits 1 if a call exits
with a code other than 0 or 1.

--against PATH times the `src/` of a second checkout in the same rounds:
each tree gets bytecode folders of its own, and every call of this tree is
paired with the same call of the other, the pair's order alternating, so a
slow phase of the machine falls on both trees alike.  Each state then has a
second column, marked *, for the other tree, and stderr has the row
"(ratio)": per state, the median over the rounds of this tree's mean over
the subcommands divided by the other tree's.

    python3 scripts/cli_startup.py --rounds 10
    python3 scripts/cli_startup.py --rounds 20 --against ../parent-checkout
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STATES = ("none", "compiled")


def _law(*values):
    return {"type": "discrete", "atoms": [{"x": v, "p": f"1/{len(values)}"} for v in values]}


def _joint(*cells):
    return {"type": "joint", "atoms": [{"w": w, "z": z, "p": p} for w, z, p in cells]}


INPUTS = {
    "x.json": _law(0, 1, 2, 3, 4),
    "down.json": _law(-1, 0, 1, 2, 3),
    "spread.json": _law(-1, 1, 2, 3, 5),
    "joint.json": _joint(*((w, z, f"{1 + (w + z) % 3}/18") for w in (0, 1, 2) for z in (-1, 0, 1))),
    "gain.json": _joint((0, 1, "1/4"), (1, 0, "1/4"), (2, "1/2", "1/2")),
    "normal.json": {"type": "normal", "mu": 0.5, "sigma": 1.25},
    "indemnity.json": {"kind": "stop_loss", "deductible": 1},
    "loss.json": _law(0, 2, 5, 9),
}

COMMANDS = {
    "check-order": ["check-order", "--relation", "ssd", "x.json", "down.json"],
    "check-order-oracle": ["check-order", "--relation", "icx", "--oracle", "x.json", "down.json"],
    "check-cond": ["check-cond", "--which", "new", "joint.json"],
    "synthesize": ["synthesize", "--mode", "cx", "x.json", "spread.json"],
    "es": ["es", "--level", "1/2", "x.json"],
    "discretize": ["discretize", "--grid", "16", "normal.json"],
    "table-bernoulli": ["table", "bernoulli", "--format", "json"],
    "table-gaussian": ["table", "gaussian", "--format", "json"],
    "protective-put": ["protective-put", "--spot", "1", "--strike", "1", "--sigma", "0.2",
                       "--drift", "0", "--horizon", "1", "--t", "0.5"],
    "improver": ["improver", "gain.json"],
    "stoploss-compare": ["stoploss-compare", "joint.json"],
    "marketable": ["marketable", "--indemnity", "indemnity.json", "--loss", "loss.json",
                   "--p0", "1/2"],
    "premium": ["premium", "--utility", "exp:1", "--wealth", "20",
                "--indemnity", "indemnity.json", "--loss", "loss.json"],
}
BARE = "(interpreter)"
# runs stochorder.cli as `python -m` does, then prints the package modules loaded
PROBE = """\
import json, runpy, sys
sys.argv[0] = "stochorder"
try:
    runpy.run_module("stochorder.cli", run_name="__main__")
finally:
    loaded = [m.split(".")[1] for m in sys.modules if m.startswith("stochorder.")]
    print(json.dumps(sorted(set(loaded) - {"cli"})))
"""


def _argv(name: str) -> list[str]:
    if name == BARE:
        return [sys.executable, "-c", "pass"]
    return [sys.executable, "-m", "stochorder.cli", *COMMANDS[name]]


def _env(src: Path, prefix: Path, write: bool) -> dict:
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _call(argv: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode not in (0, 1):
        sys.exit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def _fill(src: Path, prefix: Path, state: str, work: Path) -> dict[str, list[str]]:
    """Fill a tree's bytecode folder of a state; the package modules each
    subcommand loaded."""
    loaded = {}
    for name in COMMANDS:
        proc = _call([sys.executable, "-c", PROBE, *COMMANDS[name]], _env(src, prefix, True), work)
        loaded[name] = json.loads(proc.stdout.splitlines()[-1])
    package = prefix / src.resolve().relative_to(src.resolve().anchor)
    shutil.rmtree(package, ignore_errors=True)
    if state == "compiled":
        subprocess.run([sys.executable, "-X", f"pycache_prefix={prefix}", "-m", "compileall",
                        "-q", str(src / "stochorder")], check=True)
    return loaded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="timed calls per subcommand and state")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="a second checkout whose src/ is timed call for call with this one")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = [SRC]
    if args.against is not None:
        srcs.append(args.against.resolve() / "src")
        if not (srcs[1] / "stochorder").is_dir():
            parser.error(f"--against: {args.against} has no src/stochorder")
    trees = range(len(srcs))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, obj in INPUTS.items():
            (work / name).write_text(json.dumps(obj))
        prefixes = {(t, state): work / f"pycache-{t}-{state}" for t in trees for state in STATES}
        loaded = {key: _fill(srcs[key[0]], prefix, key[1], work) for key, prefix in prefixes.items()}
        names = [BARE, *COMMANDS]
        wall = {(t, state, name): [] for t in trees for state in STATES for name in names}
        calls = 0
        for r in range(args.rounds):
            for state in STATES[::1 if r % 2 == 0 else -1]:
                envs = [_env(src, prefixes[t, state], False) for t, src in enumerate(srcs)]
                for name in names:
                    for t in trees[::1 if calls % 2 == 0 else -1]:
                        start = time.perf_counter()
                        _call(_argv(name), envs[t], work)
                        wall[t, state, name].append((time.perf_counter() - start) * 1e3)
                    calls += 1
    print(f"median wall ms over {args.rounds} round(s), Python {sys.version.split()[0]}")
    if args.against is not None:
        print(f"* {srcs[1]}, alternated call for call with {SRC}")
    columns = [(state, t, state + "*" * t) for state in STATES for t in trees]
    widths = [max(9, len(label) + 2) for _, _, label in columns]
    header = "".join(f"{label:>{w}}" for (_, _, label), w in zip(columns, widths))
    print(f"{'subcommand':<20}{header}  package modules loaded")
    for name in names:
        cells = "".join(f"{statistics.median(wall[t, state, name]):>{w}.1f}"
                        for (state, t, _), w in zip(columns, widths))
        modules = " ".join(loaded[0, "none"][name]) if name != BARE else "-"
        print(f"{name:<20}{cells}  {modules}")
    # the summary rows go to stderr, so stdout keeps one row per subcommand
    means = [statistics.fmean(statistics.median(wall[t, state, name]) for name in COMMANDS)
             for state, t, _ in columns]
    print(f"{'(mean)':<20}" + "".join(f"{m:>{w}.1f}" for m, w in zip(means, widths)), file=sys.stderr)
    if args.against is not None:
        def ratio(state: str, r: int) -> float:  # round r's mean over the subcommands, tree 0 / tree 1
            return (sum(wall[0, state, name][r] for name in COMMANDS)
                    / sum(wall[1, state, name][r] for name in COMMANDS))
        ratios = [f"{statistics.median(ratio(state, r) for r in range(args.rounds)):.3f}"
                  if t == 0 else "-" for state, t, _ in columns]
        print(f"{'(ratio)':<20}" + "".join(f"{x:>{w}}" for x, w in zip(ratios, widths)),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
