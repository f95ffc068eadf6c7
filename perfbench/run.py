"""stochorder benchmark: four seeded workloads, correctness-gated.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload exact_large --seed 1 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics, from a loop that runs every request twice,
untraced and traced, and reports the tracing overhead between the two.  The last line of
stdout is the result as JSON; each run is also appended, with an
environment record, to perfbench/results/runs.jsonl (or --out).

    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --replay perfbench/results/failures/<file>.json

--compare prints, per workload and metric, both sides' median and
quartiles, their ratio and a label (better, worse, unchanged, unresolved).
--replay re-runs one saved failing request.

Timings are scaled to a nominal machine speed, measured in the same run
(speed.py for the requests, interpreter starts for set-up); the unscaled
figures are printed too.  Only the standard library is used.  The
workloads and metrics are described in perfbench/BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# set-up is timed in this many fresh processes and the median is reported;
# cli's set-up starts 13 interpreters, so three of them hold 39 starts
SETUP_SAMPLES = {"cli": 3}
SETUP_SAMPLES_DEFAULT = 5
# Set-up is process start, imports and shared libraries: it follows the
# machine's speed at starting processes, not the reference kernel's
# (speed.py), so each sample is scaled by bare interpreter starts around it
NOMINAL_START_S = 0.06  # about the median bare interpreter start on the measuring machine
RUN_LIMIT_S = 170  # a run ends (with no result) rather than pass the 180 s budget


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def require_library() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "stochorder", "__init__.py")):
        raise BenchError(f"no stochorder sources under {ROOT}/src; run from a full checkout")


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*cmd):
        try:
            p = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True, text=True,
                               env=env, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def start_worker(args, *extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns it and the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 10)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Read the rest of a worker's stdout and reap it; kill it past the timeout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run time limit and was killed")
    return out


def interpreter_start() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def setup_only(args, deadline: float) -> tuple[float, float]:
    """One fresh set-up: its time, and that time scaled to NOMINAL_START_S
    by two bare interpreter starts just before it and two just after."""
    starts = [interpreter_start() for _ in range(2)]
    proc, setup = start_worker(args, "--setup-only")
    finish(proc, deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited {proc.returncode}")
    starts += [interpreter_start() for _ in range(2)]
    return setup, setup * NOMINAL_START_S / statistics.fmean(starts)


def measure(args, deadline: float) -> dict:
    """Run the loop in one worker.  Without tracing, also time set-up in
    fresh set-up-only workers, half of them before the loop and half after,
    so that the set-up samples spread over the run's stretch of the
    machine's phases."""
    count = 0 if args.trace else SETUP_SAMPLES.get(args.workload, SETUP_SAMPLES_DEFAULT)
    setups = [setup_only(args, deadline) for _ in range(count // 2)]
    proc, _ = start_worker(args)
    out = finish(proc, deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    setups += [setup_only(args, deadline) for _ in range(count - count // 2)]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples"] = [raw for raw, _ in setups]
    result["setup_scaled"] = [scaled for _, scaled in setups]
    return result


def result_line(spec: dict, args, res: dict) -> dict:
    loop = res["untraced"]
    attempted = res["warmup"]["samples"] + loop["attempted"]
    failed = res["warmup"]["failed"] + loop["failed"]
    if args.trace:
        values = dict(res["layers"])
        ov = res["overhead"]
        values["trace.untraced_ops_per_s"] = (ov["untraced_ops_per_s"], "1/s")
        values["trace.traced_ops_per_s"] = (ov["traced_ops_per_s"], "1/s")
        values["trace.overhead_pct"] = ((ov["untraced_ops_per_s"] / ov["traced_ops_per_s"] - 1) * 100, "%")
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {
            "setup_s": (statistics.median(res["setup_scaled"]), "s"),
            "ops_per_s": (loop["ops_per_s"], "1/s"),
            "op_ms_p50": (loop["op_ms_p50"], "ms"),
            "op_ms_p90": (loop["op_ms_p90"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ok_ratio": (1 - failed / max(attempted, 1), "ratio"),
        }
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in names},
    }


def run(args) -> int:
    spec = load_spec()
    require_library()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    deadline = time.perf_counter() + RUN_LIMIT_S
    res = measure(args, deadline)
    line = result_line(spec, args, res)
    loop = res["untraced"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  loop: {loop['positions']} request positions, at least {loop['passes_min']} passes,"
          f" {loop['samples']} untraced requests, {loop['failed']} failed")
    print(f"  op_ms_p90 is p{loop['tail_percentile'] * 100:g}, with {loop['positions_beyond_tail']}"
          f" positions beyond it")
    print(f"  speed scale {loop['scale']:.3f}; measured, unscaled: ops_per_s {loop['measured']['ops_per_s']:.4g},"
          f" op_ms_p50 {loop['measured']['op_ms_p50']:.4g}, op_ms_p90 {loop['measured']['op_ms_p90']:.4g}")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in res['setup_samples'])};"
          f" scaled: {', '.join(f'{s:.3f}' for s in res['setup_scaled'])}")
    for name, m in line["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    record = {"env": environment(args), "result": line,
              "detail": {k: v for k, v in res.items() if k != "layers"}}
    out = args.out or os.path.join(HERE, "results", "runs.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def _runs(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a results file."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.strip():
                rec = json.loads(ln)
                key = (rec["env"]["workload"], rec["env"]["trace"])
                for name, m in rec["result"]["metrics"].items():
                    out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(quartiles) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles)


def label(a: list[float], b: list[float], bound: float | None, better: str | None) -> str:
    """better / worse / unchanged, or unresolved when a spread exceeds the bound."""
    if bound is None or better is None:
        return "-"
    (qa1, ma, qa3), (qb1, mb, qb3) = _summary(a), _summary(b)
    sign = 1 if better == "lower" else -1  # sign * (b - a) > 0 means worse
    if ma == 0:
        return "unchanged" if mb == 0 else "unresolved"
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb) if mb else 0)
    change = sign * (mb - ma) / abs(ma)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > max(spread, 1e-12):
        return "better"
    return "unchanged"


def failure_label(a: list[float], b: list[float]) -> str | None:
    """A failed request on one side only is a change however few there are,
    whatever ok_ratio's bound; None when both sides are alike."""
    fa, fb = min(a) < 1, min(b) < 1
    if fa == fb:
        return None
    return "worse" if fb else "better"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _runs(path_a), _runs(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<44} {'A q1/med/q3':>32} {'B q1/med/q3':>32} {'B/A':>8}  label")
    for key in sorted(set(a) & set(b)):
        for name in sorted(set(a[key]) & set(b[key])):
            m = meta.get(name, {})
            sa, sb = _summary(a[key][name]), _summary(b[key][name])
            ratio = sb[1] / sa[1] if sa[1] else float("nan")
            tag = label(a[key][name], b[key][name], m.get("bound"), m.get("better"))
            if name == "ok_ratio":
                tag = failure_label(a[key][name], b[key][name]) or tag
            print(f"{key[0]:<12} {name:<44} {_fmt(sa):>32} {_fmt(sb):>32} {ratio:>8.3f}  {tag}"
                  f"  (n={len(a[key][name])}/{len(b[key][name])})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["exact_large", "sweep_small", "synth", "cli"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file to append to (default perfbench/results/runs.jsonl)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--replay", metavar="FILE")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.replay:
            require_library()
            return subprocess.run([sys.executable, WORKER, "--replay", args.replay, ROOT]).returncode
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
