"""One benchmark process: set up a workload, then run its closed loop.

Started by run.py, never by hand.  It imports stochorder from the
checkout's src/, builds the seeded inputs, runs one untimed warm-up request
per request kind and prints "ready".  Unless --setup-only is given it then
runs a single-client closed loop, in passes over the workload's request
positions, for --seconds and prints one JSON line with the loop's summary.
With --trace 1 every request runs twice, untraced and traced, and the line
adds per-layer metrics; the spans go to perfbench/results/ when the run
ends.

A request that raises, times out or fails its check counts as failed, and
its input is saved under perfbench/results/failures/ for --replay.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_SAVED_FAILURES = 20
TAIL_BEYOND = 10  # op_ms_p90 needs this many positions above it


class RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RequestTimeout


def encode(obj) -> str:
    """JSON with Fractions tagged, so that a saved request replays exactly."""
    def default(o):
        if isinstance(o, Fraction):
            return {"__q__": f"{o.numerator}/{o.denominator}"}
        raise TypeError(f"not JSON serializable: {o!r}")
    return json.dumps(obj, default=default)


def decode(text: str):
    return json.loads(text, object_hook=lambda d: Fraction(d["__q__"]) if set(d) == {"__q__"} else d)


def import_library(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import stochorder

    where = os.path.dirname(os.path.abspath(stochorder.__file__))
    if where != os.path.join(root, "src", "stochorder"):
        raise ImportError(f"stochorder was imported from {where}, not from {root}/src")
    return stochorder


def run_one(wl, req, tr, rid, visit=0):
    """Run and check one request on its inputs for pass `visit`; returns
    (seconds, error or None).  Drawing the inputs is not timed."""
    req = wl.materialize(req, visit)
    start = tr.begin(rid)
    out, err = None, None
    signal.setitimer(signal.ITIMER_REAL, wl.timeout_s + 5)
    try:
        out = wl.run(req, tr)
    except RequestTimeout:
        err = f"timed out after {wl.timeout_s + 5:.0f} s"
    except Exception:
        err = traceback.format_exc(limit=-3).strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    tr.end(f"request.{req['kind']}", start)
    if err is None:
        try:
            err = wl.check(req, out)
        except Exception:
            err = "check raised: " + traceback.format_exc(limit=-3).strip()
    return elapsed, err


class Loop:
    """Closed loop with one client over the workload's request positions."""

    def __init__(self, wl, failures_dir: str):
        self.wl = wl
        self.failures_dir = failures_dir
        self.saved = 0
        self.meter = Meter()

    def run(self, seconds: float, tr=None) -> dict:
        """Passes over every request position, back to back, for `seconds`
        and at least the workload's min_passes.  Pass k runs each request
        on its inputs shifted by k (Workload.materialize), so the work is the
        same and no input repeats.  After each request the meter runs the
        reference kernel for its share of the request's time; "scaled"
        holds each untraced time at the nominal speed (speed.py).  Given a
        tracer, each request runs twice, untraced and traced, in alternating
        order, so both timings see the same machine; "times" are always the
        untraced ones."""
        n = len(self.wl.requests)
        times: list[list[float]] = [[] for _ in range(n)]
        stamps: list[list[float]] = [[] for _ in range(n)]
        traced: list[list[float]] = [[] for _ in range(n)]
        failed, i = 0, 0
        plain = Tracer(False)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or i < self.wl.min_passes * n:
            pos, visit = i % n, i // n
            req = self.wl.requests[pos]
            order = [plain] if tr is None else [plain, tr][:: 1 if i % 2 else -1]
            for t in order:
                before = time.perf_counter()
                elapsed, err = run_one(self.wl, req, t, i, visit)
                (times if t is plain else traced)[pos].append(elapsed)
                if t is plain:
                    stamps[pos].append(before + elapsed / 2)
                self.meter.follow(elapsed)
                if err is not None:
                    failed += 1
                    self.save(i, req, visit, err)
            i += 1
        scaled = [[t * k for t, k in zip(ts, self.meter.scales_at(ss))] for ts, ss in zip(times, stamps)]
        return {"times": times, "scaled": scaled, "traced_times": traced, "failed": failed,
                "labels": [self.wl.label(r) for r in self.wl.requests],
                "scale": self.meter.scale()}

    def save(self, index, req, visit, err) -> None:
        print(f"request {index} ({req['kind']}) failed: {err}", file=sys.stderr)
        if self.saved >= MAX_SAVED_FAILURES:
            return
        self.saved += 1
        req = self.wl.materialize(req, visit)
        os.makedirs(self.failures_dir, exist_ok=True)
        path = os.path.join(self.failures_dir, f"{self.wl.name}-seed{self.wl.seed}-req{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode({"workload": self.wl.name, "seed": self.wl.seed,
                             "request": req, "error": err}))
        print(f"saved for replay: {path}", file=sys.stderr)


def percentile(values: list[float], q: float) -> float:
    """The smallest value with at least a q share of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def mean_times(times: list[list[float]]) -> list[float]:
    """Each position's mean time over its runs."""
    return [statistics.fmean(ts) for ts in times if ts]


def summarize(loop: dict) -> dict:
    """Throughput, median and tail over the request positions of one loop,
    each position timed by its mean over the run's passes at the nominal
    machine speed (Loop.run's "scaled").  ops_per_s is positions per second
    of their summed times.  The unscaled figures are kept as "measured"."""
    raw = mean_times(loop["times"])
    mean = mean_times(loop["scaled"])
    q, tail, beyond = tail_percentile(mean)
    samples = sum(map(len, loop["times"]))
    return {
        "positions": len(mean),
        "passes_min": min(map(len, loop["times"])),
        "samples": samples,
        "attempted": samples + sum(map(len, loop["traced_times"])),
        "failed": loop["failed"],
        "scale": loop["scale"],
        "ops_per_s": len(mean) / sum(mean),
        "op_ms_p50": percentile(mean, 0.5) * 1e3,
        "op_ms_p90": tail * 1e3,
        "tail_percentile": q,
        "positions_beyond_tail": beyond,
        "measured": {"ops_per_s": len(raw) / sum(raw), "op_ms_p50": percentile(raw, 0.5) * 1e3,
                     "op_ms_p90": percentile(raw, q) * 1e3},
        "ms_mean_by_label": by_label(loop["labels"], mean),
    }


def tail_percentile(values: list[float], q: float = 0.9):
    """The q-quantile if at least TAIL_BEYOND values lie above it, else the
    highest percentile below q that has; returns (q, value, count)."""
    while True:
        value = percentile(values, q)
        beyond = sum(v > value for v in values)
        if beyond >= TAIL_BEYOND or q <= 0.5:
            return q, value, beyond
        q = round(q - 0.01, 2)


def by_label(labels: list[str], times: list[float]) -> dict:
    groups: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        groups.setdefault(label, []).append(t * 1e3)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def subprocess_ms(argv, env, count: int) -> list[float]:
    out = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        out.append((time.perf_counter() - start) * 1e3)
    return out


def med(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(wl, tr: Tracer) -> dict:
    """Every per-layer metric; 0 for layers this workload does not exercise."""
    m = tr.layer_metrics(workloads.LAYER_FUNCTIONS)
    for name in workloads.COUNTERS:
        if name.endswith("_bits_max"):
            m[name] = (tr.maxima.get(name, 0), "bits")
        elif name == "coupling.feasible_ratio":
            asked = tr.counters.get("coupling.requests", 0)
            m[name] = (tr.counters.get("coupling.feasible", 0) / asked if asked else 0.0, "ratio")
        else:
            m[name] = (tr.counters.get(name, 0), "count")
    for mod in workloads.MODULES:
        m[f"{mod}.errors"] = (tr.counters.get(f"{mod}.errors", 0), "count")
    cli = {"python_startup_ms": [], "import_ms": []}
    if wl.name == "cli":
        cli["python_startup_ms"] = subprocess_ms([sys.executable, "-c", "pass"], wl.env, 10)
        cli["import_ms"] = subprocess_ms([sys.executable, "-c", "import stochorder.cli"], wl.env, 10)
    m["cli.python_startup_ms_p50"] = (med(cli["python_startup_ms"]), "ms")
    m["cli.import_ms_p50"] = (med(cli["import_ms"]), "ms")
    m["cli.handler_ms_p50"] = (med(tr.samples["cli.handler_ms"]), "ms")
    m["cli.overhead_ms_p50"] = (med(tr.samples["cli.overhead_ms"]), "ms")
    walls: dict[str, list[float]] = {}
    for _, name, start, end, _, _ in tr.spans:
        if name.startswith("cli."):
            walls.setdefault(name, []).append((end - start) * 1e3)
    for kind in workloads.Cli.KINDS:
        m[f"cli.{kind}.wall_ms_p50"] = (med(walls.get(f"cli.{kind}", [])), "ms")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    so = import_library(args.root)
    wl = workloads.WORKLOADS[args.workload](so, args.seed, args.root)
    results_dir = os.path.join(args.root, "perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    wl.prepare()
    try:
        loop = Loop(wl, os.path.join(results_dir, "failures"))
        warm = {"samples": 0, "failed": 0}
        for req in wl.warmup():
            _, err = run_one(wl, req, Tracer(False), -1)
            warm["samples"] += 1
            if err is not None:
                warm["failed"] += 1
                loop.save(-1, req, 0, err)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tr = Tracer(True) if args.trace else None
        res = loop.run(args.seconds, tr)
        out = {"warmup": warm, "untraced": summarize(res)}
        if tr is not None:
            # the same requests, each timed untraced and traced back to back
            untraced, traced = mean_times(res["times"]), mean_times(res["traced_times"])
            out["overhead"] = {"positions": len(untraced),
                               "untraced_ops_per_s": len(untraced) / sum(untraced),
                               "traced_ops_per_s": len(traced) / sum(traced)}
            out["layers"] = layer_metrics(wl, tr)
            tr.write(os.path.join(results_dir, f"spans-{wl.name}-seed{wl.seed}.csv.gz"))
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


def replay(path: str, root: str) -> int:
    """Re-run one saved request and print its outcome; 0 when it now passes."""
    with open(path, encoding="utf-8") as fh:
        saved = decode(fh.read())
    signal.signal(signal.SIGALRM, _alarm)
    so = import_library(root)
    wl = workloads.WORKLOADS[saved["workload"]](so, saved["seed"], root, [saved["request"]])
    wl.prepare()
    try:
        elapsed, err = run_one(wl, saved["request"], Tracer(False), 0)
    finally:
        wl.close()
    print(f"saved error: {saved['error']}")
    print(f"replay ({elapsed * 1e3:.1f} ms): {'passes' if err is None else err}")
    return 0 if err is None else 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--replay":
        sys.exit(replay(sys.argv[2], sys.argv[3]))
    sys.exit(main())
