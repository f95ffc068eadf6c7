"""Independent exact evaluators and the per-request correctness gate.

These re-derive every quantity a witness or coupling claims from the raw
atoms, with plain O(n) sums that share no code with stochorder.  A gate
function returns None when the library's output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction as F
from types import SimpleNamespace

ZERO = F(0)


def law(raw) -> list[tuple[F, F]]:
    """Sorted (value, probability) atoms of raw (value, weight) pairs."""
    acc: dict[F, F] = {}
    for v, w in raw:
        if w:
            v = F(v)
            acc[v] = acc.get(v, ZERO) + F(w)
    total = sum(acc.values(), ZERO)
    return [(v, acc[v] / total) for v in sorted(acc)]


def mean(d) -> F:
    return sum((v * p for v, p in d), ZERO)


def ilq(d, level: F) -> F:
    """Integrated lower quantile: the integral of Q over (0, level)."""
    out, cum = ZERO, ZERO
    for v, p in d:
        take = min(cum + p, level) - cum
        if take <= 0:
            break
        out += v * take
        cum += p
    return out


def es(d, level: F) -> F:
    return (mean(d) - ilq(d, level)) / (1 - level)


def survival(d, t: F) -> F:
    return sum((p for v, p in d if v > t), ZERO)


def e_min(d, t: F) -> F:
    return sum((min(v, t) * p for v, p in d), ZERO)


def stop_loss(d, t: F) -> F:
    return sum(((v - t) * p for v, p in d if v > t), ZERO)


def cond_mean(cells, keep) -> F | None:
    """E[Z | keep(anchor)] over raw (anchor, z, weight) cells."""
    num = den = ZERO
    for a, z, w in cells:
        if keep(a):
            num += z * w
            den += w
    return num / den if den else None


# ---------------------------------------------------------------------------
# Reference deciders for small inputs (direct definitions, O(n^2))
# ---------------------------------------------------------------------------


def _support(x, y):
    return sorted({v for v, _ in x} | {v for v, _ in y})


def ref_ssd(x, y) -> bool:
    return all(e_min(x, t) >= e_min(y, t) for t in _support(x, y))


def ref_icx(x, y) -> bool:
    return all(stop_loss(x, t) >= stop_loss(y, t) for t in _support(x, y))


def ref_cx(x, y) -> bool:
    return mean(x) == mean(y) and ref_ssd(x, y)


def ref_st(x, y) -> bool:
    return all(survival(x, t) >= survival(y, t) for t in _support(x, y))


# anchor predicate per condition at threshold x, and the failing direction
_COND_TAIL = {
    "cond_new": (lambda x: lambda a: a <= x, 1),
    "cond_classic": (lambda x: lambda a: a == x, 1),
    "cond_icx": (lambda x: lambda a: a >= x, -1),
    "cond_on_difference": (lambda x: lambda a: a <= x, 1),
}


def anchored(cond: str, cells):
    """Cells keyed by the condition's anchor: W, or Y - Z for the difference."""
    if cond == "cond_on_difference":
        return [(y - z, z, w) for y, z, w in cells]
    return cells


def ref_cond(cond: str, cells) -> bool:
    if cond == "cond_cx_pair":
        return cond_mean(cells, lambda a: True) == 0 and ref_cond("cond_new", cells)
    tail, sign = _COND_TAIL[cond]
    cells = anchored(cond, cells)
    return all(
        sign * cond_mean(cells, tail(x)) <= 0 for x in sorted({a for a, _, _ in cells})
    )


def bernoulli_flags(c: F, rho: F) -> tuple[bool, bool, bool]:
    """Closed-form (ssd, cond_new, cond_classic) region of the two-point case."""
    lower, upper = 1 - 2 * c, 2 * c - 1
    ssd = c >= F(1, 2) and rho >= lower
    return ssd, ssd, c >= F(1, 2) and lower <= rho <= upper


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

# how each order call's witness is re-evaluated: (evaluator, kind)
_WITNESS = {
    "check_ssd": (ilq, "level_p"),
    "check_cx": (ilq, "level_p"),
    "check_icx": (es, "level_p"),
    "check_st": (survival, "threshold_x"),
    "oracle_ssd": (e_min, "angle_t"),
    "oracle_icx": (stop_loss, "angle_t"),
}


def order_gate(call: str, x, y, verdict, expect: bool, where=None) -> str | None:
    """Verdict against the construction; a witness re-evaluated at its point.

    x and y are benchmark-normalized laws.  `where`, when given, is the only
    grid point at which the construction lets the inequality fail.
    """
    if verdict.holds != expect:
        return f"{call}: holds={verdict.holds}, construction says {expect}"
    if verdict.holds:
        return None
    w = verdict.witness
    evaluate, kind = _WITNESS[call]
    if w.kind != kind:
        return f"{call}: witness kind {w.kind}, expected {kind}"
    at = F(w.value)
    if where is not None and at != where:
        return f"{call}: witness at {at}, construction fails only at {where}"
    if call == "check_cx" and at == 1:
        if (w.lhs, w.rhs) != (mean(x), mean(y)) or w.lhs == w.rhs:
            return f"{call}: mean witness {w.lhs} vs {w.rhs} is not a violation"
        return None
    lhs, rhs = evaluate(x, at), evaluate(y, at)
    if (w.lhs, w.rhs) != (lhs, rhs):
        return f"{call}: witness sides {w.lhs}, {w.rhs} re-evaluate to {lhs}, {rhs}"
    if not lhs < rhs:
        return f"{call}: witness at {at} is not a violation ({lhs} >= {rhs})"
    return None


def cond_gate(cond: str, cells, verdict, expect: bool, fail_at=None) -> str | None:
    """Condition verdict against the construction; witness lhs re-evaluated."""
    if verdict.holds != expect:
        return f"{cond}: holds={verdict.holds}, construction says {expect}"
    if verdict.holds:
        return None
    w = verdict.witness
    at = F(w.value)
    if w.kind != "threshold_x" or w.rhs != 0:
        return f"{cond}: malformed witness {w}"
    if fail_at is not None and at != fail_at:
        return f"{cond}: witness at {at}, construction fails only at {fail_at}"
    if cond == "cond_cx_pair":
        whole = cond_mean(cells, lambda a: True)
        if whole != 0:
            ok = w.lhs == whole and at == max(a for a, _, _ in cells)
            return None if ok else f"{cond}: mean witness {w.lhs}, E[Z] = {whole}"
        cond = "cond_new"
    tail, sign = _COND_TAIL[cond]
    lhs = cond_mean(anchored(cond, cells), tail(at))
    if w.lhs != lhs:
        return f"{cond}: witness lhs {w.lhs} re-evaluates to {lhs}"
    if not sign * lhs > 0:
        return f"{cond}: witness at {at} is not a violation (lhs {lhs})"
    return None


def coupling_gate(mode: str, x, y, res, expect: bool, joint=None) -> str | None:
    """Feasibility against the construction; a coupling rechecked by the
    benchmark's own marginal and drift sums, an infeasibility certificate
    re-evaluated as the order witness it is."""
    if res.feasible != expect:
        return f"synth {mode}: feasible={res.feasible}, construction says {expect}"
    if not res.feasible:
        call = "check_cx" if mode == "martingale" else "check_ssd"
        return order_gate(call, x, y, SimpleNamespace(holds=False, witness=res.certificate), False)
    c = res.coupling
    if list(zip(c.row_values, c.row_probs)) != x or list(zip(c.col_values, c.col_probs)) != y:
        return f"synth {mode}: coupling marginals are not the input laws"
    for i, row in enumerate(c.pi):
        if any(v < 0 for v in row) or sum(row, ZERO) != x[i][1]:
            return f"synth {mode}: row {i} is negative or has the wrong mass"
        drift = sum(((yv - x[i][0]) * v for (yv, _), v in zip(y, row)), ZERO)
        if drift > 0 or (mode == "martingale" and drift != 0):
            return f"synth {mode}: row {i} drifts by {drift}"
    for j, (_, q) in enumerate(y):
        if sum((row[j] for row in c.pi), ZERO) != q:
            return f"synth {mode}: column {j} has the wrong mass"
    if joint is not None:
        cells = {
            (xv, yv - xv, v)
            for (xv, _), row in zip(x, c.pi)
            for (yv, _), v in zip(y, row)
            if v > 0
        }
        if set(joint.atoms) != cells:
            return f"synth {mode}: coupling_to_joint cells differ from pi"
    return None

