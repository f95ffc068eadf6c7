"""Tests of the benchmark itself: constructions, gate, result line, compare.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The claimed verdict of every construction is checked against the
library's independent oracles at n <= 30, and a deliberately corrupted
verdict must be counted as a failure and saved for replay.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import stochorder as so  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEEDS = range(12)
SIZES = (2, 3, 5, 12, 30)


def _laws(x, y):
    return so.normalize(x), so.normalize(y)


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_ssd_pairs_match_oracle_and_fail_last(n, late):
    for seed in SEEDS:
        x, y = _laws(*instances.ssd_pair(random.Random(seed), n, late)[:2])
        assert so.oracle_ssd(x, y).holds is not late
        v = so.check_ssd(x, y)
        assert v.holds is not late
        if late:
            assert v.witness.value == 1
            assert so.oracle_ssd(x, y).witness.value == max(y.values)


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_icx_pairs_match_oracle_and_fail_last(n, late):
    for seed in SEEDS:
        x, y, where = instances.icx_pair(random.Random(seed), n, late)
        x, y = _laws(x, y)
        assert so.oracle_icx(x, y).holds is not late
        v = so.check_icx(x, y)
        assert v.holds is not late
        if late:
            levels = sorted({sum(x.probs[: i + 1]) for i in range(len(x.probs))})
            assert where == levels[-2]  # the last level below 1
            assert v.witness.value == where


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("n", SIZES[1:])
def test_cx_pairs_match_oracle_and_fail_late(n, late):
    for seed in SEEDS:
        x, y, where = instances.cx_pair(random.Random(seed), n, late)
        x, y = _laws(x, y)
        assert so.mean(x) == so.mean(y)
        # with equal means, X <=cx Y iff X >=ssd Y
        assert so.oracle_ssd(x, y).holds is not late
        v = so.check_cx(x, y)
        assert v.holds is not late
        if late:
            assert v.witness.value == where == 1 - x.probs[-1]


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_st_pairs_match_oracles_and_fail_late(n, late):
    for seed in SEEDS:
        x, y, where = instances.st_pair(random.Random(seed), n, late)
        x, y = _laws(x, y)
        # holding: a downward shift dominates in every order; late: the
        # raised top atom breaks icx as well as st
        assert so.oracle_icx(x, y).holds is not late
        assert so.oracle_ssd(x, y).holds or late
        v = so.check_st(x, y)
        assert v.holds is not late
        if late:
            assert v.witness.value == where == sorted(set(x.values) | set(y.values))[-2]


@pytest.mark.parametrize("cond", workloads.CONDS)
@pytest.mark.parametrize("late", [False, True])
def test_cond_joints_match_reference_and_fail_where_claimed(cond, late):
    for seed in SEEDS:
        cells, fail_at = instances.cond_joint(random.Random(seed), cond, 3 + seed % 5, 1 + seed % 4, late)
        j = so.normalize_joint(cells)
        v = getattr(so, cond)(j)
        assert v.holds is not late
        assert checks.ref_cond(cond, cells) is not late
        assert checks.cond_gate(cond, cells, v, not late, fail_at) is None
        if cond == "cond_new" and not late:
            # the lower-tail condition implies W >=ssd W + Z
            assert so.oracle_ssd(so.joint_marginal_w(j), so.joint_sum(j)).holds


@pytest.mark.parametrize("how", instances.SYNTH_CONSTRUCTIONS)
def test_synth_pairs_match_oracle(how):
    for seed in SEEDS:
        rng = random.Random(seed)
        a = 2 + seed % 4
        x, y = _laws(*instances.synth_pair(rng, a, a + 2, how))
        assert (len(x.atoms), len(y.atoms)) == (a, a + 2)
        ssd = so.oracle_ssd(x, y).holds
        assert instances.synth_expected("supermartingale", how) == ssd
        assert instances.synth_expected("martingale", how) == (ssd and so.mean(x) == so.mean(y))


def test_sweep_reference_agrees_with_oracles():
    rng = random.Random(5)
    for i in range(60):
        cells = instances.sweep_joint(rng, i % 2 == 1)
        exp = workloads.sweep_expected({"cells": cells})
        j = so.normalize_joint(cells)
        w, s = so.joint_marginal_w(j), so.joint_sum(j)
        assert exp["ssd"] == so.oracle_ssd(w, s).holds
        assert exp["icx"] == so.oracle_icx(s, w).holds


@pytest.mark.parametrize("name", ["exact_large", "sweep_small", "synth"])
def test_first_requests_pass_the_gate(name):
    wl = workloads.WORKLOADS[name](so, 7, ROOT)
    small = [r for r in wl.requests if r.get("size", 0) <= 100 and r.get("shape", "4x6") == "4x6"]
    for req in small[:40]:
        for visit in (0, 3):  # a later pass moves every value; verdicts stay
            elapsed, err = worker.run_one(wl, req, Tracer(False), 0, visit)
            assert err is None, (req["kind"], visit, err)


def _corrupted_request():
    rng = random.Random(3)
    x, y, where = instances.ssd_pair(rng, 10, late=False)
    # the pair holds; claim that it fails late
    return {"kind": "check_ssd", "call": "check_ssd", "size": 10, "late": True,
            "x": x, "y": y, "where": where}


def test_corrupted_verdict_is_counted_and_saved(tmp_path):
    wl = workloads.ExactLarge(so, 3, ROOT, requests=[_corrupted_request()])
    loop = worker.Loop(wl, str(tmp_path))
    res = loop.run(0.05)
    assert res["failed"] == sum(map(len, res["times"])) >= wl.min_passes
    saved = sorted(tmp_path.iterdir())
    assert saved
    body = worker.decode(saved[0].read_text())
    assert "construction says False" in body["error"]
    assert body["request"]["x"] == [list(a) for a in _corrupted_request()["x"]]

    summary = worker.summarize(res)
    fake = {"warmup": {"samples": 0, "failed": 0}, "untraced": summary,
            "setup_samples": [0.5], "setup_scaled": [0.5], "peak_rss_mb": 30.0}
    args = type("A", (), {"trace": 0})
    line = bench.result_line(bench.load_spec(), args, fake)
    assert line["correct"] is False
    assert line["failed"] == res["failed"]
    assert line["metrics"]["ok_ratio"]["value"] == 0.0

    replay = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--replay",
                             str(saved[0]), ROOT], capture_output=True, text=True, timeout=60)
    assert replay.returncode == 1


def test_tampered_witness_is_rejected():
    x, y, where = instances.icx_pair(random.Random(4), 12, late=True)
    lx, ly = checks.law(x), checks.law(y)
    v = so.check_icx(*_laws(x, y))
    assert checks.order_gate("check_icx", lx, ly, v, False, where) is None
    bad = dataclasses.replace(v, witness=dataclasses.replace(v.witness, lhs=v.witness.lhs + 1))
    assert "re-evaluate" in checks.order_gate("check_icx", lx, ly, bad, False, where)


def test_fraction_round_trip():
    req = _corrupted_request()
    assert worker.decode(worker.encode(req))["x"] == [list(a) for a in req["x"]]


def test_tail_falls_back_until_ten_positions_lie_beyond():
    assert worker.tail_percentile([float(i) for i in range(100)]) == (0.9, 89.0, 10)
    assert worker.tail_percentile([float(i) for i in range(50)]) == (0.8, 39.0, 10)


def test_each_position_counts_its_mean_at_the_nominal_speed():
    loop = {"times": [[0.3, 0.1, 0.2], [1.0, 2.0, 3.0]], "scaled": [[0.15, 0.05, 0.1], [0.5, 1.0, 1.5]],
            "traced_times": [[], []], "failed": 0, "labels": ["a", "b"], "scale": 0.5}
    s = worker.summarize(loop)
    assert (s["positions"], s["samples"], s["passes_min"]) == (2, 6, 3)
    assert s["ops_per_s"] == pytest.approx(2 / 1.1)
    assert s["op_ms_p50"] == pytest.approx(100.0)
    assert s["measured"]["op_ms_p50"] == pytest.approx(200.0)


def test_meter_follows_its_share_of_the_measured_time():
    m = speed.Meter()
    m.follow(0.0)
    assert m.samples == []
    m.follow(0.2)
    spent = [d for _, d in m.samples]
    assert sum(spent) >= speed.SHARE * 0.2 > sum(spent[:-1])
    assert m.scale() == pytest.approx(speed.NOMINAL_S * len(spent) / sum(spent))
    first, last = m.samples[0][0], m.samples[-1][0]
    far = last + 10 * speed.WINDOW_S
    assert m.scales_at([first, far]) == [pytest.approx(speed.NOMINAL_S * len(spent) / sum(spent)), m.scale()]


def test_scales_follow_the_local_speed():
    m = speed.Meter()
    m.samples = [(0.0, 0.001), (0.5, 0.001), (10.0, 0.004), (10.5, 0.004)]
    fast, slow = m.scales_at([0.2, 10.2])
    assert fast == pytest.approx(speed.NOMINAL_S / 0.001)
    assert slow == pytest.approx(speed.NOMINAL_S / 0.004)


def test_compare_labels():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert bench.label(base, [v * 1.3 for v in base], 0.1, "lower") == "worse"
    assert bench.label(base, [v * 0.7 for v in base], 0.1, "lower") == "better"
    assert bench.label(base, [v * 1.01 for v in base], 0.1, "lower") == "unchanged"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert bench.label(base, noisy, 0.1, "lower") == "unresolved"
    ok, one_failed = [1.0] * 5, [1.0, 1.0, 0.9998, 1.0, 1.0]
    assert bench.failure_label(ok, one_failed) == "worse"
    assert bench.failure_label(one_failed, ok) == "better"
    assert bench.failure_label(ok, ok) is None


def test_spec_names_every_metric():
    spec = bench.load_spec()
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    for fn in workloads.LAYER_FUNCTIONS:
        assert {f"{fn}.calls", f"{fn}.busy_s", f"{fn}.ms_p50"} <= names
    assert {f"{m}.errors" for m in workloads.MODULES} <= names
    assert set(workloads.COUNTERS) <= names
    json.dumps(spec)
