"""Command-line entry point.

Every subcommand reads JSON laws, dispatches to the library, and emits a
machine-readable report on stdout plus a one-line human summary on stderr.
Exit codes: 0 the checked property holds (or the computation succeeded),
1 the property fails (the witness is in the report), 2 input or usage error
(a result too large to print included), 3 internal error (two routes that
must agree did not; no report).
Tables default to CSV on stdout; pass --format json for the full report.
Each handler returns (inputs, result, verdict, summary), verdict an
OrderVerdict or None for a plain computation; main alone turns the verdict
into the exit code and the report's witness, and writes --out.
Only dists is imported here, for main's error handling: each handler imports
the modules it calls, and the dispatch tables name functions that the
handler looks up in its module, so a process loads what its subcommand runs
(discretize: dists alone; table gaussian, premium and protective-put: models
with dists, orders and risk; improver and stoploss-compare: apps with dists,
risk, orders and conditions; table bernoulli and marketable: those and
models too, all but coupling).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict
from fractions import Fraction
from typing import Callable

from .dists import (
    InputError,
    InternalError,
    as_fraction,
    discretize,
    dist_from_json,
    dist_to_json,
    joint_from_json,
    joint_to_json,
    rational_to_json,
)

__all__ = ["main"]


def _json_default(o: object):
    if isinstance(o, Fraction):
        return rational_to_json(o)
    raise TypeError(f"not JSON serializable: {o!r}")


def _load(path: str, parse: Callable):
    """The JSON object in a file, parsed; read and parse errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # JSON is UTF-8 text, and json.load recurses once per nested level
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise InputError(
            f"{path}: a number has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    try:
        return parse(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return as_fraction(text)
    except (InputError, ValueError) as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _write_payload(path: str, payload: object) -> None:
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


# subcommand: (function of risk, argument name, summary label, help)
_RISK: dict[str, tuple[str, str, str, str]] = {
    "es": ("es", "level", "es at level", "expected shortfall of a law at a level"),
    "phi": ("phi", "level", "phi at level", "scaled tail integral (1-p) * ES_p"),
    "stoploss": ("stop_loss", "deductible", "stop-loss premium at", "stop-loss premium E[(X - d)+]"),
}


def _cmd_risk(args):
    from . import risk

    f, name, label, _ = _RISK[args.subcommand]
    d = _load(args.dist, dist_from_json)
    point = _parse_rational(getattr(args, name), name)
    value = getattr(risk, f)(d, point)
    return {name: point, "dist": dist_to_json(d)}, value, None, f"{label} {point}: {value}"


# relation: function of orders
_ORDER_CHECKS: dict[str, str] = {
    "ssd": "check_ssd",
    "icx": "check_icx",
    "cx": "check_cx",
    "st": "check_st",
}

_ORDER_ORACLES: dict[str, str] = {"ssd": "oracle_ssd", "icx": "oracle_icx"}


def _cmd_check_order(args):
    from . import orders

    x = _load(args.x, dist_from_json)
    y = _load(args.y, dist_from_json)
    if args.oracle:
        if args.relation not in _ORDER_ORACLES:
            raise InputError(f"no oracle route for relation {args.relation!r}")
        verdict = getattr(orders, _ORDER_ORACLES[args.relation])(x, y)
    else:
        verdict = getattr(orders, _ORDER_CHECKS[args.relation])(x, y)
    inputs = {"relation": args.relation, "oracle": bool(args.oracle),
              "x": dist_to_json(x), "y": dist_to_json(y)}
    state = "holds" if verdict.holds else "fails"
    return inputs, {"holds": verdict.holds}, verdict, f"{args.relation} {state}"


# condition: function of conditions
_CONDS: dict[str, str] = {
    "new": "cond_new",
    "classic": "cond_classic",
    "icx": "cond_icx",
    "cx": "cond_cx_pair",
    "thm2": "cond_on_difference",
}


def _cmd_check_cond(args):
    from . import conditions

    j = _load(args.joint, joint_from_json)
    verdict = getattr(conditions, _CONDS[args.which])(j)
    inputs = {"which": args.which, "joint": joint_to_json(j.atoms)}
    state = "holds" if verdict.holds else "fails"
    return inputs, {"holds": verdict.holds}, verdict, f"condition {args.which} {state}"


def _cmd_synthesize(args):
    from .coupling import _joint_cells, synth_martingale, synth_supermartingale
    from .orders import OrderVerdict

    x = _load(args.x, dist_from_json)
    y = _load(args.y, dist_from_json)
    synth = synth_supermartingale if args.mode == "ssd" else synth_martingale
    res = synth(x, y)
    inputs = {"mode": args.mode, "x": dist_to_json(x), "y": dist_to_json(y)}
    # _synth rechecked the coupling (verify_coupling): its cells print as they stand
    payload = joint_to_json(_joint_cells(res.coupling)) if res.feasible else None
    summary = (f"{args.mode} coupling synthesized" if res.feasible
               else f"no {args.mode} coupling exists")
    return (inputs, {"feasible": res.feasible, "coupling": payload},
            OrderVerdict(res.feasible, res.certificate), summary)


def _cmd_discretize(args):
    d = _load(args.dist, dist_from_json)
    out = discretize(d, args.n)
    inputs = {"n": args.n, "dist": dist_to_json(d)}
    return inputs, dist_to_json(out), None, f"discretized to {out.support_size()} atoms"


def _bernoulli_rows() -> list[dict]:
    from . import apps

    rows = []
    for ci in range(0, 16):
        for ri in range(-10, 11):
            case = apps.BernoulliCase(Fraction(ci, 10), Fraction(ri, 10))
            flags = apps.bernoulli_region(case)
            rows.append({
                "c": float(case.c), "rho": float(case.rho),
                "ssd": int(flags.ssd), "new": int(flags.cond_new),
                "classic": int(flags.cond_classic),
            })
    return rows


def _gaussian_rows() -> list[dict]:
    from . import models

    rows = []
    for mu in (-0.5, -0.1, 0.0, 0.1):
        for sigma in (0.5, 1.0, 2.0):
            for ri in range(-9, 10):
                case = models.GaussianCase(mu, sigma, ri / 10.0)
                flags = models.gaussian_region(case)
                rows.append({
                    "mu_z": mu, "sigma_z": sigma, "rho": case.rho,
                    "ssd": int(flags.ssd), "new": int(flags.cond_new),
                    "classic": int(flags.cond_classic),
                })
    return rows


def _format_cell(v) -> str:
    return f"{v:g}" if isinstance(v, float) else str(v)


def _cmd_table(args):
    rows = _bernoulli_rows() if args.which == "bernoulli" else _gaussian_rows()
    return {"which": args.which}, rows, None, f"{args.which} region grid, {len(rows)} cells"


def _table_text(rows: list[dict], fmt: str) -> str:
    cols = list(rows[0])
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(_format_cell(r[c]) for c in cols) for r in rows]
    else:  # md
        lines = ["| " + " | ".join(cols) + " |",
                 "|" + "|".join(" --- " for _ in cols) + "|"]
        lines += ["| " + " | ".join(_format_cell(r[c]) for c in cols) + " |"
                  for r in rows]
    return "\n".join(lines)


def _cmd_improver(args):
    from . import apps
    from .orders import OrderVerdict

    j = _load(args.joint, joint_from_json)
    flags = apps.improver_check(j)
    inputs = {"joint": joint_to_json(j.atoms)}
    result = {"in_s": flags.in_s, "in_n": flags.in_n}
    state = "improves" if flags.in_s else "does not improve"
    return (inputs, result, OrderVerdict(flags.in_s, flags.witness),
            f"Z {state} X in ssd (sufficient condition: {flags.in_n})")


def _cmd_marketable(args):
    from . import apps, models

    i = _load(args.indemnity, models.indemnity_from_json)
    loss = _load(args.loss, dist_from_json)
    p0 = _parse_rational(args.p0, "premium")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = apps.marketable_check(i, loss, p0)
    for w in caught:  # one plain line each, ahead of the summary
        print(f"warning: {w.message}", file=sys.stderr)
    inputs = {"indemnity": models.indemnity_to_json(i),
              "loss": dist_to_json(loss), "p0": p0}
    state = "marketable" if verdict.holds else "not marketable"
    return inputs, {"holds": verdict.holds}, verdict, f"contract is {state} at premium {p0}"


def _cmd_premium(args):
    from . import models

    u = models.utility_from_spec(args.utility)
    i = _load(args.indemnity, models.indemnity_from_json)
    loss = _load(args.loss, dist_from_json)
    wealth = _parse_rational(args.wealth, "wealth")
    value = models.indifference_premium(u, wealth, loss, i)
    inputs = {"utility": args.utility, "wealth": wealth,
              "indemnity": models.indemnity_to_json(i), "loss": dist_to_json(loss)}
    return inputs, value, None, f"indifference premium: {value}"


def _cmd_stoploss_compare(args):
    from . import apps

    j = _load(args.joint, joint_from_json)
    ds = None
    if args.deductibles is not None:
        ds = [_parse_rational(s, "deductible") for s in args.deductibles.split(",")]
    cmp = apps.stop_loss_compare(j, ds)
    inputs = {"joint": joint_to_json(j.atoms),
              "deductibles": list(cmp.deductibles)}
    result = {
        "condition_holds": cmp.condition.holds,
        "deductibles": list(cmp.deductibles),
        "base_premiums": list(cmp.base_premiums),
        "summed_premiums": list(cmp.summed_premiums),
        "dominates": cmp.dominates,
    }
    state = "dominates" if cmp.dominates else "does not dominate"
    return inputs, result, cmp.verdict, f"summed stop-loss curve {state} the base curve"


def _cmd_protective_put(args):
    from . import models

    params = models.BSParams(args.spot, args.strike, args.sigma, args.drift,
                             args.horizon)
    grid = None
    if args.x_grid is not None:
        try:
            grid = [float(s) for s in args.x_grid.split(",")]
        except ValueError as exc:
            raise InputError(f"bad x grid {args.x_grid!r}") from exc
    p0 = models.bs_put(params, 0.0, params.spot)
    expected = models.expected_put_value(params, args.t)
    verdict = models.protective_put_check(params, args.t, grid)
    inputs = {"spot": params.spot, "strike": params.strike,
              "sigma": params.sigma, "drift": params.drift,
              "horizon": params.horizon, "t": args.t}
    result = {"holds": verdict.holds, "p0": p0, "expected_put": expected}
    state = "holds" if verdict.holds else "fails"
    return inputs, result, verdict, f"conditional put drift condition {state} at t={args.t}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochorder",
        description="Verification toolkit for second-order stochastic "
                    "dominance, dependence conditions, and coupling synthesis.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, (_, arg, _, text) in _RISK.items():
        p = sub.add_parser(name, help=text)
        p.add_argument(f"--{arg}", required=True, help="rational or decimal")
        p.add_argument("dist", help="distribution JSON file")
        p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("check-order", help="decide a stochastic order between two laws")
    p.add_argument("--relation", required=True, choices=sorted(_ORDER_CHECKS))
    p.add_argument("--oracle", action="store_true",
                   help="use the independent transform oracle (ssd/icx only)")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_check_order)

    p = sub.add_parser("check-cond", help="check a dependence condition on a joint law")
    p.add_argument("--which", required=True, choices=list(_CONDS))
    p.add_argument("joint")
    p.set_defaults(handler=_cmd_check_cond)

    p = sub.add_parser("synthesize", help="construct a supermartingale or martingale coupling")
    p.add_argument("--mode", required=True, choices=["ssd", "cx"])
    p.add_argument("--out", help="write the coupling joint JSON to this file")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("discretize", help="midpoint-quantile discretization of a law")
    p.add_argument("--grid", dest="n", required=True, type=int,
                   help="number of equal-probability atoms (>= 2)")
    p.add_argument("--out", help="write the discrete law JSON to this file")
    p.add_argument("dist")
    p.set_defaults(handler=_cmd_discretize)

    p = sub.add_parser("table", help="emit a dependence-region grid")
    p.add_argument("which", choices=["bernoulli", "gaussian"])
    p.add_argument("--format", default="csv", choices=["csv", "md", "json"])
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("improver", help="test both improver memberships for a joint (X, Z)")
    p.add_argument("joint")
    p.set_defaults(handler=_cmd_improver)

    p = sub.add_parser("marketable", help="marketability of an indemnity at a premium")
    p.add_argument("--indemnity", required=True, help="indemnity schedule JSON file")
    p.add_argument("--loss", required=True, help="loss distribution JSON file")
    p.add_argument("--p0", required=True, help="premium, rational or decimal")
    p.set_defaults(handler=_cmd_marketable)

    p = sub.add_parser("premium", help="indifference premium for an indemnity")
    p.add_argument("--utility", required=True, help="linear, exp:A, or power:G")
    p.add_argument("--wealth", required=True)
    p.add_argument("--indemnity", required=True)
    p.add_argument("--loss", required=True)
    p.set_defaults(handler=_cmd_premium)

    p = sub.add_parser("stoploss-compare",
                       help="stop-loss curves of X and X+Z over a deductible grid")
    p.add_argument("--deductibles", help="comma-separated deductibles")
    p.add_argument("joint")
    p.set_defaults(handler=_cmd_stoploss_compare)

    p = sub.add_parser("protective-put",
                       help="conditional drift condition for a put-protected position")
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--drift", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-grid", help="comma-separated thresholds, checked finite; the verdict "
                   "holds at every x, so at these too")
    p.set_defaults(handler=_cmd_protective_put)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        inputs, result, verdict, summary = args.handler(args)
        witness = None if verdict is None else verdict.witness  # None iff it holds
        code = 0 if witness is None else 1
        if getattr(args, "out", None) and code == 0:
            payload = result["coupling"] if args.subcommand == "synthesize" else result
            _write_payload(args.out, payload)
        if getattr(args, "format", "json") != "json":
            text = _table_text(result, args.format)
        else:
            report = {
                "subcommand": args.subcommand,
                "inputs": inputs,
                "result": result,
                "witness": witness and asdict(witness),
                "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
            }
            text = json.dumps(report, sort_keys=True, default=_json_default)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise  # only CPython's refusal to print an int over its digit limit
        print(f"error: a result has more than {sys.get_int_max_str_digits()} digits "
              "above or below the line and cannot be printed", file=sys.stderr)
        return 2
    print(text)
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
