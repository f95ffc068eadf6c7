"""The four benchmark workloads: requests, how to run them, how to check them.

A request is a dict with a "kind" (the request kind it is reported and
warmed up under), a "call" and its raw inputs.  Workload.run makes the
library calls of one request through a Tracer and returns their outputs;
Workload.check returns None, or a one-line reason why the outputs are
wrong.  Requests are plain data so that a failing one can be saved and
replayed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F

import checks
import instances

# public functions the benchmark calls, as <module>.<function>
LAYER_FUNCTIONS = [
    "dists.normalize",
    "dists.normalize_joint",
    "dists.joint_marginal_w",
    "dists.joint_sum",
    "risk.es",
    "risk.stop_loss",
    "orders.check_ssd",
    "orders.check_icx",
    "orders.check_cx",
    "orders.check_st",
    "orders.oracle_ssd",
    "orders.oracle_icx",
    "conditions.cond_new",
    "conditions.cond_classic",
    "conditions.cond_icx",
    "conditions.cond_cx_pair",
    "conditions.cond_on_difference",
    "coupling.synth_supermartingale",
    "coupling.synth_martingale",
    "coupling.verify_coupling",
    "coupling.coupling_to_joint",
    "apps.improver_check",
    "apps.stop_loss_compare",
    "apps.bernoulli_region",
]
MODULES = ["dists", "risk", "orders", "conditions", "coupling", "apps", "cli"]
COUNTERS = [
    "dists.atoms_in",
    "dists.prob_den_bits_max",
    "orders.levels",
    "orders.witness_den_bits_max",
    "conditions.cells",
    "conditions.thresholds",
    "coupling.lp_cells",
    "coupling.feasible_ratio",
    "coupling.pi_den_bits_max",
]

CONDS = ["cond_new", "cond_classic", "cond_icx", "cond_cx_pair", "cond_on_difference"]


class Workload:
    """One workload: its request cycle, warm-up requests, runner and gate."""

    name = ""
    timeout_s = 60.0
    min_passes = 3  # a run makes at least this many passes over its requests

    def __init__(self, so, seed: int, root: str, requests: list[dict] | None = None):
        """Builds the seeded request cycle, unless `requests` (a replay) is given."""
        self.so = so
        self.seed = seed
        self.root = root
        self.requests: list[dict] = []
        if requests is None:
            self.build(random.Random(f"{self.name}:{seed}"))
        else:
            self.requests = requests

    def build(self, rng: random.Random) -> None:
        raise NotImplementedError

    def warmup(self) -> list[dict]:
        """The first request of every kind, in cycle order."""
        seen: dict[str, dict] = {}
        for req in self.requests:
            seen.setdefault(req["kind"], req)
        return list(seen.values())

    def label(self, req: dict) -> str:
        """What a request is, for the per-label medians of a run's detail."""
        return req["kind"]

    def run(self, req: dict, tr):
        raise NotImplementedError

    def check(self, req: dict, out) -> str | None:
        raise NotImplementedError

    def materialize(self, req: dict, visit: int = 0) -> dict:
        """The request with its inputs for pass `visit` of a run: every value
        moved by `visit`, which changes no verdict and no amount of work but
        keeps a cache keyed on the inputs from serving a later pass."""
        return req

    def prepare(self) -> None:
        """Side effects the requests need before they run (files, env)."""

    def close(self) -> None:
        """Undo prepare()."""

    # shared helpers -------------------------------------------------------

    def _law(self, tr, raw):
        d = tr.call("dists.normalize", self.so.normalize, raw)
        if tr.on:
            tr.count("dists.atoms_in", len(raw))
            tr.bits("dists.prob_den_bits_max", *d.probs)
        return d

    def _joint(self, tr, cells):
        j = tr.call("dists.normalize_joint", self.so.normalize_joint, cells)
        if tr.on:
            tr.count("dists.atoms_in", len(cells))
            tr.bits("dists.prob_den_bits_max", *(p for _, _, p in j.atoms))
        return j

    def _order(self, tr, call, x, y):
        v = tr.call(f"orders.{call}", getattr(self.so, call), x, y)
        if tr.on:
            tr.count("orders.levels", len(set(x.values) | set(y.values)))
            if v.witness is not None:
                w = v.witness
                tr.bits("orders.witness_den_bits_max", F(w.value), F(w.lhs), F(w.rhs))
        return v

    def _cond(self, tr, cond, j):
        v = tr.call(f"conditions.{cond}", getattr(self.so, cond), j)
        if tr.on:
            tr.count("conditions.cells", len(j.atoms))
            tr.count("conditions.thresholds", len({a[0] for a in j.atoms}))
        return v


def _law_match(d, want, what) -> str | None:
    return None if list(d.atoms) == want else f"{what}: atoms differ from independent sums"


def _joint_gate(j, cells) -> str | None:
    acc: dict = {}
    for w, z, p in cells:
        key = (F(w), F(z))
        acc[key] = acc.get(key, 0) + p
    total = sum(acc.values())
    want = [(w, z, F(acc[w, z], total)) for (w, z) in sorted(acc)]
    return None if list(j.atoms) == want else "normalize_joint: atoms differ from the raw cells"


# ---------------------------------------------------------------------------
# exact_large
# ---------------------------------------------------------------------------


class ExactLarge(Workload):
    """Full-scan worst cases of the exact deciders at n up to 1000 atoms.

    Each request normalizes its raw inputs and makes one call.  The requests
    are a holding and a late-failing instance of every call at each of three
    sizes, the middle-size order calls at 0.7 to 1.3 times their size, so
    that the median falls inside an even spread of many costs, not on a
    step between two clusters, and the tail among the largest calls.  The
    largest sizes are capped so that a run makes several passes over all.
    """

    name = "exact_large"
    min_passes = 2  # a pass takes about 12 s
    SIZES = {
        "check_ssd": (10, 100, 1000),
        "check_icx": (10, 100, 1000),
        "check_cx": (10, 100, 300),
        "check_st": (10, 100, 200),
        "oracle_ssd": (10, 30, 100),
        "oracle_icx": (10, 30, 100),
        "es": (10, 100, 1000),
        "stop_loss": (10, 100, 1000),
    }
    # joint shapes by cell count: anchor values x z values per row
    JOINTS = {100: (10, 10), 1000: (10, 100), 2000: (10, 200)}
    # factors on the order calls' size, per size tier
    SPREAD = ((1.0,), (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3), (1.0,))

    def build(self, rng):
        """Recipes only: materialize() draws a request's inputs just before
        it runs, so the process holds one request's inputs at a time and
        peak_rss_mb is the library's working set, not the whole cycle's."""
        for tier, cells in enumerate(self.JOINTS):
            calls = [(call, round(sizes[tier] * f))
                     for f in self.SPREAD[tier] for call, sizes in self.SIZES.items()]
            for call, size in calls + [(cond, cells) for cond in CONDS]:
                for late in (False, True):
                    self.requests.append({"kind": call, "call": call, "size": size,
                                          "late": late, "recipe": rng.getrandbits(64)})

    def materialize(self, req, visit=0):
        if "recipe" not in req:
            return req
        rng = random.Random(req["recipe"])
        call, n, late = req["call"], req["size"], req["late"]
        out = {k: v for k, v in req.items() if k != "recipe"}
        if call in CONDS:
            cells, fail_at = instances.cond_joint(rng, call, *self.JOINTS[n], late)
            out["cells"] = [(a + visit, z, w) for a, z, w in cells]
            out["fail_at"] = None if fail_at is None else fail_at + visit
            return out
        pair = instances.icx_pair if call in ("es", "stop_loss") else instances.ORDER_PAIRS[call]
        x, y, where = pair(rng, n, late)
        out["x"] = [(v + visit, w) for v, w in x]
        out["y"] = [(v + visit, w) for v, w in y]
        if call in ("es", "stop_loss"):
            # compare the two laws of an icx pair at its last level (es) or
            # at the second-largest atom of X (stop_loss); the late pair
            # fails there, the shifted pair holds
            probs = [F(w) for _, w in x]
            out["at"] = 1 - probs[-1] / sum(probs) if call == "es" else out["x"][-2][0]
        elif call.startswith("oracle"):
            out["where"] = None  # the oracles test other points than the checkers
        else:
            # check_st fails at a value, the other checkers at a level
            out["where"] = where + visit if call == "check_st" and where is not None else where
        return out

    def label(self, req):
        return f"{req['call']} n={req['size']} {'late' if req['late'] else 'holds'}"

    def run(self, req, tr):
        call = req["call"]
        if call in CONDS:
            j = self._joint(tr, req["cells"])
            return j, self._cond(tr, call, j)
        x = self._law(tr, req["x"])
        y = self._law(tr, req["y"])
        if call in ("es", "stop_loss"):
            fn = getattr(self.so, call)
            name = f"risk.{call}"
            return x, y, (tr.call(name, fn, x, req["at"]), tr.call(name, fn, y, req["at"]))
        return x, y, self._order(tr, call, x, y)

    def check(self, req, out):
        call, expect = req["call"], not req["late"]
        if call in CONDS:
            j, verdict = out
            return _joint_gate(j, req["cells"]) or checks.cond_gate(
                call, req["cells"], verdict, expect, req["fail_at"])
        x, y, result = out
        lx, ly = checks.law(req["x"]), checks.law(req["y"])
        err = _law_match(x, lx, "normalize") or _law_match(y, ly, "normalize")
        if err:
            return err
        if call in ("es", "stop_loss"):
            ev = checks.es if call == "es" else checks.stop_loss
            want = (ev(lx, req["at"]), ev(ly, req["at"]))
            if result != want:
                return f"{call}: got {result}, independent sums give {want}"
            if (want[0] >= want[1]) != expect:
                return f"{call}: construction says the comparison is {expect}"
            return None
        return checks.order_gate(call, lx, ly, result, expect, req["where"])


# ---------------------------------------------------------------------------
# sweep_small
# ---------------------------------------------------------------------------


# order calls of the sweep and the relation each decides
SWEEP_ORDERS = (
    ("check_ssd", "ssd"), ("oracle_ssd", "ssd"), ("check_icx", "icx"),
    ("oracle_icx", "icx"), ("check_cx", "cx"), ("check_st", "st"),
)


def _sweep_pair(rel, w, s):
    """The pair a relation is checked on: (W, W + Z), or (W + Z, W) for icx,
    where the upper-tail condition predicts W + Z >=icx W."""
    return (s, w) if rel == "icx" else (w, s)


class SweepSmall(Workload):
    """The criterion-3/9 research sweep: tiny joints through every layer.

    Joints alternate between the sweep's two kinds (any W; W >= 0).
    Expected verdicts come from the benchmark's reference deciders, computed
    once per joint outside the timed region; a shift of W changes none.
    """

    name = "sweep_small"
    POOL = 256
    STRATA = 4  # sweep draws per joint kept

    def __init__(self, *args, **kwargs):
        self._expected: dict[int, dict] = {}  # reference verdicts by position
        super().__init__(*args, **kwargs)

    def build(self, rng):
        """POOL joints, half of each kind.  A kind's joints are every
        STRATA-th of STRATA times as many sweep draws ordered by cell
        count, so every seed gets the sweep's distribution of joint sizes,
        which sets a request's cost; POOL plain draws moved the median
        request by about 10% from seed to seed."""
        kinds = []
        for nonneg in (False, True):
            draws = [instances.sweep_joint(rng, nonneg) for _ in range(self.POOL // 2 * self.STRATA)]
            kinds.append(sorted(draws, key=len)[self.STRATA // 2 :: self.STRATA])
        for i in range(self.POOL):
            nonneg = i % 2 == 1
            left = kinds[nonneg]
            self.requests.append({
                "kind": "sweep", "call": "sweep", "pos": i, "nonneg": nonneg,
                "cells": left.pop(rng.randrange(len(left))),
                "bernoulli": (F(rng.randint(0, 15), 10), F(rng.randint(-10, 10), 10)),
            })

    def materialize(self, req, visit=0):
        return dict(req, cells=[(w + visit, z, p) for w, z, p in req["cells"]]) if visit else req

    def run(self, req, tr):
        so = self.so
        j = self._joint(tr, req["cells"])
        w = tr.call("dists.joint_marginal_w", so.joint_marginal_w, j)
        s = tr.call("dists.joint_sum", so.joint_sum, j)
        out = {"j": j, "w": w, "s": s}
        for cond in CONDS:
            out[cond] = self._cond(tr, cond, j)
        for call, rel in SWEEP_ORDERS:
            out[call] = self._order(tr, call, *_sweep_pair(rel, w, s))
        out["improver"] = tr.call("apps.improver_check", so.improver_check, j)
        if req["nonneg"]:
            out["stop_loss"] = tr.call("apps.stop_loss_compare", so.stop_loss_compare, j)
        case = so.BernoulliCase(*req["bernoulli"])
        out["bernoulli"] = tr.call("apps.bernoulli_region", so.bernoulli_region, case)
        return out

    def expected(self, req) -> dict:
        key = req.get("pos", -1)
        if key not in self._expected:
            self._expected[key] = sweep_expected(req)
        return self._expected[key]

    def check(self, req, out):
        exp = self.expected(req)
        cells = req["cells"]
        err = _joint_gate(out["j"], cells)
        w, s = checks.law((a, p) for a, _, p in cells), checks.law((a + z, p) for a, z, p in cells)
        err = err or _law_match(out["w"], w, "joint_marginal_w") or _law_match(out["s"], s, "joint_sum")
        for cond in CONDS:
            err = err or checks.cond_gate(cond, cells, out[cond], exp[cond])
        for call, rel in SWEEP_ORDERS:
            err = err or checks.order_gate(call, *_sweep_pair(rel, w, s), out[call], exp[rel])
        imp = out["improver"]
        if not err and (imp.in_s, imp.in_n) != exp["improver"]:
            err = f"improver_check: {(imp.in_s, imp.in_n)}, reference {exp['improver']}"
        if not err and req["nonneg"]:
            cmp = out["stop_loss"]
            base = [checks.stop_loss(w, d) for d in cmp.deductibles]
            summed = [checks.stop_loss(s, d) for d in cmp.deductibles]
            if list(cmp.base_premiums) != base or list(cmp.summed_premiums) != summed:
                err = "stop_loss_compare: premiums differ from independent sums"
            elif cmp.dominates != all(a >= b for a, b in zip(summed, base)):
                err = "stop_loss_compare: dominance flag contradicts the premiums"
            elif cmp.condition.holds != exp["cond_icx"]:
                err = "stop_loss_compare: condition verdict differs from the reference"
        b = out["bernoulli"]
        if not err and (b.ssd, b.cond_new, b.cond_classic) != checks.bernoulli_flags(*req["bernoulli"]):
            err = f"bernoulli_region: {b} differs from the closed form at {req['bernoulli']}"
        return err


def sweep_expected(req) -> dict:
    """Reference verdicts of every sweep call on one joint."""
    cells = req["cells"]
    w = checks.law((a, p) for a, _, p in cells)
    s = checks.law((a + z, p) for a, z, p in cells)
    exp = {cond: checks.ref_cond(cond, cells) for cond in CONDS}
    for rel, ref in (("ssd", checks.ref_ssd), ("icx", checks.ref_icx),
                     ("cx", checks.ref_cx), ("st", checks.ref_st)):
        exp[rel] = ref(*_sweep_pair(rel, w, s))
    flipped = [(a + z, -z, p) for a, z, p in cells]
    exp["improver"] = (checks.ref_ssd(s, w), checks.ref_cond("cond_new", flipped))
    return exp


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class Synth(Workload):
    """Coupling synthesis on feasible and infeasible pairs of 3x4 and 4x6 atoms.

    A set holds every (mode, construction) pair three times at 3x4 and once
    at 4x6, so the median falls among the 3x4 requests and the tail among
    the 4x6 ones.  The cost of one synthesis varies a lot between instances
    of the same shape (coefficient of variation about 0.4), so the requests
    are SETS independently drawn sets: the tail rests on dozens of them.
    """

    name = "synth"
    SHAPES = {(3, 4): 3, (4, 6): 1}
    MODES = {"supermartingale": "synth_supermartingale", "martingale": "synth_martingale"}
    SETS = 12

    def build(self, rng):
        for _ in range(self.SETS):
            for (a, b), copies in self.SHAPES.items():
                for _ in range(copies):
                    for mode, call in self.MODES.items():
                        for how in instances.SYNTH_CONSTRUCTIONS:
                            x, y = instances.synth_pair(rng, a, b, how)
                            self.requests.append({
                                "kind": mode, "shape": f"{a}x{b}", "call": call, "mode": mode,
                                "how": how, "feasible": instances.synth_expected(mode, how),
                                "x": x, "y": y,
                            })

    def materialize(self, req, visit=0):
        if not visit:
            return req
        return dict(req, x=[(v + visit, w) for v, w in req["x"]],
                    y=[(v + visit, w) for v, w in req["y"]])

    def label(self, req):
        return f"{req['mode']} {req['shape']} {req['how']}"

    def run(self, req, tr):
        so, mode = self.so, req["mode"]
        x = self._law(tr, req["x"])
        y = self._law(tr, req["y"])
        res = tr.call(f"coupling.{req['call']}", getattr(so, req["call"]), x, y)
        out = {"x": x, "y": y, "res": res, "verified": None, "joint": None}
        if res.feasible:
            out["verified"] = tr.call("coupling.verify_coupling", so.verify_coupling,
                                      res.coupling, x, y, mode)
            out["joint"] = tr.call("coupling.coupling_to_joint", so.coupling_to_joint,
                                   res.coupling)
        if tr.on:
            tr.count("coupling.lp_cells", len(x.atoms) * len(y.atoms))
            tr.count("coupling.requests")
            tr.count("coupling.feasible", res.feasible)
            if res.feasible:
                tr.bits("coupling.pi_den_bits_max", *(v for row in res.coupling.pi for v in row))
        return out

    def check(self, req, out):
        lx, ly = checks.law(req["x"]), checks.law(req["y"])
        err = _law_match(out["x"], lx, "normalize") or _law_match(out["y"], ly, "normalize")
        if err:
            return err
        if out["res"].feasible and out["verified"] is not True:
            return "verify_coupling rejected the synthesized coupling"
        return checks.coupling_gate(req["mode"], lx, ly, out["res"], req["feasible"], out["joint"])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _rat(q: F):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _law_json(raw) -> dict:
    return {"type": "discrete", "atoms": [{"x": _rat(F(v)), "p": _rat(F(p))} for v, p in checks.law(raw)]}


def _joint_json(cells) -> dict:
    total = sum(F(w) for _, _, w in cells)
    return {"type": "joint", "atoms": [
        {"w": _rat(F(a)), "z": _rat(F(z)), "p": _rat(F(w) / total)} for a, z, w in cells]}


class Cli(Workload):
    """One `python -m stochorder.cli` subprocess per request, round robin."""

    name = "cli"
    timeout_s = 60.0
    min_passes = 2
    KINDS = [
        "check-order", "check-order-oracle", "check-cond", "synthesize", "es",
        "discretize", "table-bernoulli", "table-gaussian", "protective-put",
        "improver", "stoploss-compare", "marketable", "premium",
    ]
    SETS = 4
    RELATIONS = {"ssd": instances.ssd_pair, "icx": instances.icx_pair,
                 "cx": instances.cx_pair, "st": instances.st_pair}
    WHICH = {"new": "cond_new", "classic": "cond_classic", "icx": "cond_icx",
             "cx": "cond_cx_pair", "thm2": "cond_on_difference"}

    def build(self, rng):
        for s in range(self.SETS):
            for kind in self.KINDS:
                files, argv, expect = getattr(self, "_make_" + kind.replace("-", "_"))(rng, s)
                self.requests.append({"kind": kind, "call": "cli", "set": s, "argv": argv,
                                      "files": files, "expect": expect})

    def prepare(self) -> None:
        """Write every request's input files; argv names them by key."""
        self.workdir = os.path.join(self.root, "perfbench", "results", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        path = [os.path.join(self.root, "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        for req in self.requests:
            for key, obj in req["files"].items():
                with open(self._path(req, key), "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)

    def _path(self, req, key):
        return os.path.join(self.workdir, f"s{req['set']}-{req['kind']}-{key}.json")

    def close(self):
        shutil.rmtree(self.workdir)

    # inputs, argv and expectations per subcommand ---------------------------

    def _make_check_order(self, rng, s):
        rel = list(self.RELATIONS)[s % 4]
        late = rng.random() < 0.5
        x, y, _ = self.RELATIONS[rel](rng, rng.randint(3, 8), late)
        return ({"x": _law_json(x), "y": _law_json(y)},
                ["check-order", "--relation", rel, "x", "y"], {"holds": not late})

    def _make_check_order_oracle(self, rng, s):
        rel = ("ssd", "icx")[s % 2]
        late = rng.random() < 0.5
        x, y, _ = self.RELATIONS[rel](rng, rng.randint(3, 8), late)
        return ({"x": _law_json(x), "y": _law_json(y)},
                ["check-order", "--relation", rel, "--oracle", "x", "y"], {"holds": not late})

    def _make_check_cond(self, rng, s):
        which = list(self.WHICH)[(s + rng.randrange(5)) % 5]
        late = rng.random() < 0.5
        cells, _ = instances.cond_joint(rng, self.WHICH[which], 3, 3, late)
        return {"j": _joint_json(cells)}, ["check-cond", "--which", which, "j"], {"holds": not late}

    def _make_synthesize(self, rng, s):
        mode = ("ssd", "cx")[s % 2]
        full = "supermartingale" if mode == "ssd" else "martingale"
        how = instances.SYNTH_CONSTRUCTIONS[rng.randrange(4)]
        x, y = instances.synth_pair(rng, 3, 4, how)
        return ({"x": _law_json(x), "y": _law_json(y)},
                ["synthesize", "--mode", mode, "x", "y"],
                {"feasible": instances.synth_expected(full, how), "mode": full, "x": x, "y": y})

    def _make_es(self, rng, s):
        x, _, _ = instances.ssd_pair(rng, rng.randint(3, 8), False)
        level = F(rng.randint(0, 9), 10)
        return ({"d": _law_json(x)}, ["es", "--level", str(level), "d"],
                {"value": checks.es(checks.law(x), level)})

    def _make_discretize(self, rng, s):
        mu, sigma = rng.randint(-8, 8) / 4, rng.randint(1, 8) / 4
        return ({"d": {"type": "normal", "mu": mu, "sigma": sigma}},
                ["discretize", "--grid", "16", "d"], {"mu": F(mu), "atoms": 16})

    def _make_table_bernoulli(self, rng, s):
        return {}, ["table", "bernoulli", "--format", "json"], {}

    def _make_table_gaussian(self, rng, s):
        return {}, ["table", "gaussian", "--format", "json"], {}

    def _make_protective_put(self, rng, s):
        # nonpositive drift: the conditional put drift condition holds
        args = {"--spot": 1.0, "--strike": rng.choice([0.9, 1.0, 1.1]),
                "--sigma": rng.choice([0.2, 0.3]), "--drift": rng.choice([-0.05, 0.0]),
                "--horizon": 1.0, "--t": rng.choice([0.25, 0.5])}
        argv = ["protective-put"] + [str(v) for kv in args.items() for v in kv]
        return {}, argv, {"holds": True}

    def _make_improver(self, rng, s):
        # Z >= 0 everywhere improves X; Z <= 0 with a negative mean does not
        good = s % 2 == 0
        n = rng.randint(2, 5)
        xs = sorted(rng.sample(range(-6, 7), n))
        cells = [(F(v, 2), F(rng.randint(0, 4) if good else -rng.randint(1, 4), 2), rng.randint(1, 9))
                 for v in xs]
        return {"j": _joint_json(cells)}, ["improver", "j"], {"in_s": good, "in_n": good}

    def _make_stoploss_compare(self, rng, s):
        # nonnegative loss; row means of Z >= 0 dominate, Z < 0 does not
        good = s % 2 == 0
        cells = instances.cond_joint(rng, "cond_icx", 3, 3, False)[0] if good else [
            (F(v + 4, 2), -F(rng.randint(1, 4), 2), rng.randint(1, 9)) for v in range(rng.randint(2, 5))]
        shift = -min(a for a, _, _ in cells)
        cells = [(a + shift, z, w) for a, z, w in cells]
        return {"j": _joint_json(cells)}, ["stoploss-compare", "j"], {"dominates": good}

    def _indemnity_case(self, rng):
        loss = [(F(v), rng.randint(1, 9)) for v in sorted(rng.sample(range(0, 12), 4))]
        if rng.random() < 0.5:
            ind = {"kind": "stop_loss", "deductible": rng.randint(1, 4)}
            pay = lambda v: max(v - ind["deductible"], 0)  # noqa: E731
        else:
            ind = {"kind": "fixed", "threshold": rng.randint(3, 6), "amount": rng.randint(1, 3)}
            pay = lambda v: ind["amount"] if v >= ind["threshold"] else 0  # noqa: E731
        return checks.law(loss), ind, pay

    def _make_marketable(self, rng, s):
        loss, ind, pay = self._indemnity_case(rng)
        # E[I(X) | X - I(X) >= x] at every retained-loss threshold
        cms = []
        for x in sorted({v - pay(v) for v, _ in loss}):
            cells = [(v - pay(v), F(pay(v)), p) for v, p in loss]
            cms.append(checks.cond_mean(cells, lambda a, x=x: a >= x))
        good = s % 2 == 0
        p0 = min(cms) if good else max(cms) + F(1, 8)
        return ({"i": ind, "l": _law_json(loss)},
                ["marketable", "--indemnity", "i", "--loss", "l", "--p0", str(p0)],
                {"holds": good})

    def _make_premium(self, rng, s):
        loss, ind, pay = self._indemnity_case(rng)
        utility = ("linear", "exp:1")[s % 2]
        return ({"i": ind, "l": _law_json(loss)},
                ["premium", "--utility", utility, "--wealth", "20", "--indemnity", "i", "--loss", "l"],
                {"utility": utility, "mean": sum(F(pay(v)) * p for v, p in loss),
                 "max": max(F(pay(v)) for v, _ in loss)})

    # running and checking --------------------------------------------------

    def run(self, req, tr):
        argv = [self._path(req, a) if a in req["files"] else a for a in req["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stochorder.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=self.timeout_s,
        )
        if tr.on:
            end = time.perf_counter()
            tr.span(f"cli.{req['kind']}", start, end)
            if proc.returncode not in (0, 1):
                tr.count("cli.errors")
            try:
                handler = json.loads(proc.stdout)["timing_ms"]
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
            else:
                tr.samples["cli.handler_ms"].append(handler)
                tr.samples["cli.overhead_ms"].append((end - start) * 1e3 - handler)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, req, out):
        code, stdout, stderr = out
        kind, exp = req["kind"], req["expect"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{kind}: exit {code}, no JSON report: {stderr.strip()[-200:]}"
        res = report.get("result")
        return getattr(self, "_check_" + kind.replace("-", "_"))(code, res, report, exp)

    @staticmethod
    def _verdict(code, holds, want, what):
        if holds != want or code != (0 if want else 1):
            return f"{what}: exit {code}, verdict {holds}, construction says {want}"
        return None

    def _check_check_order(self, code, res, report, exp):
        return self._verdict(code, res["holds"], exp["holds"], "check-order")

    _check_check_order_oracle = _check_check_order

    def _check_check_cond(self, code, res, report, exp):
        return self._verdict(code, res["holds"], exp["holds"], "check-cond")

    def _check_synthesize(self, code, res, report, exp):
        err = self._verdict(code, res["feasible"], exp["feasible"], "synthesize")
        if err or not res["feasible"]:
            return err
        # the coupling as cells (w, z = y - w, p): recheck marginals and drift
        cells = [(F(a["w"]), F(a["z"]), F(a["p"])) for a in res["coupling"]["atoms"]]
        x = checks.law(exp["x"])
        if checks.law((w, p) for w, _, p in cells) != x:
            return "synthesize: coupling's first marginal is not X"
        if checks.law((w + z, p) for w, z, p in cells) != checks.law(exp["y"]):
            return "synthesize: coupling's second marginal is not Y"
        for w0, _ in x:
            drift = sum((z * p for w, z, p in cells if w == w0), F(0))
            if drift > 0 or (exp["mode"] == "martingale" and drift != 0):
                return f"synthesize: drift {drift} at row {w0}"
        return None

    def _check_es(self, code, res, report, exp):
        if code != 0 or F(res) != exp["value"]:
            return f"es: exit {code}, value {res}, independent sum {exp['value']}"
        return None

    def _check_discretize(self, code, res, report, exp):
        atoms = [(F(a["x"]), F(a["p"])) for a in res["atoms"]]
        if code != 0 or len(atoms) != exp["atoms"] or any(p != F(1, exp["atoms"]) for _, p in atoms):
            return f"discretize: exit {code}, {len(atoms)} atoms or unequal masses"
        if checks.mean(atoms) != exp["mu"]:
            return f"discretize: mean {checks.mean(atoms)} differs from mu {exp['mu']}"
        return None

    def _check_table_bernoulli(self, code, res, report, exp):
        if code != 0 or len(res) != 16 * 21:
            return f"table bernoulli: exit {code}, {len(res)} rows"
        for r in res:
            c, rho = F(r["c"]).limit_denominator(10), F(r["rho"]).limit_denominator(10)
            if (r["ssd"], r["new"], r["classic"]) != tuple(map(int, checks.bernoulli_flags(c, rho))):
                return f"table bernoulli: cell c={c}, rho={rho} differs from the closed form"
        return None

    def _check_table_gaussian(self, code, res, report, exp):
        if code != 0 or len(res) != 4 * 3 * 19:
            return f"table gaussian: exit {code}, {len(res)} rows"
        if any(not r["classic"] <= r["new"] <= r["ssd"] for r in res):
            return "table gaussian: a row breaks classic => new => ssd"
        return None

    def _check_protective_put(self, code, res, report, exp):
        err = self._verdict(code, res["holds"], exp["holds"], "protective-put")
        if not err and res["expected_put"] < res["p0"] - 1e-9:
            err = f"protective-put: E[P_t] {res['expected_put']} below P_0 {res['p0']}"
        return err

    def _check_improver(self, code, res, report, exp):
        if (res["in_s"], res["in_n"]) != (exp["in_s"], exp["in_n"]) or code != (0 if exp["in_s"] else 1):
            return f"improver: exit {code}, {res}, construction says {exp}"
        return None

    def _check_stoploss_compare(self, code, res, report, exp):
        return self._verdict(code, res["dominates"], exp["dominates"], "stoploss-compare")

    def _check_marketable(self, code, res, report, exp):
        return self._verdict(code, res["holds"], exp["holds"], "marketable")

    def _check_premium(self, code, res, report, exp):
        if code != 0:
            return f"premium: exit {code}"
        value = F(res)
        if exp["utility"] == "linear" and value != exp["mean"]:
            return f"premium: linear premium {value}, expected indemnity {exp['mean']}"
        if not exp["mean"] - F(1, 10**9) <= value <= exp["max"]:
            return f"premium: {value} outside [E[I], max I] = [{exp['mean']}, {exp['max']}]"
        return None


WORKLOADS = {w.name: w for w in (ExactLarge, SweepSmall, Synth, Cli)}
