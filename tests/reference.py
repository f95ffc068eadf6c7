"""Reference deciders: the direct Fraction routes the library's walks replace.

Each function evaluates its defining inequality at every point of the finite
test set, one Fraction sum per point, and returns the first violation in
ascending order.  They are quadratic and slow, and kept only so that the
tests can demand that the linear integer walks in `stochorder.orders` and
`stochorder.conditions` return equal verdicts and equal witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from stochorder import JointDist, as_discrete, cdf
from stochorder.orders import OrderVerdict, Witness
from stochorder.risk import PhiEnvelope, phi_envelope

_ZERO = Fraction(0)
_HOLDS = OrderVerdict(True, None)


def _pair(x, y):
    dx, dy = as_discrete(x), as_discrete(y)
    assert dx is not None and dy is not None, "reference routes are finite only"
    return dx, dy


def _merged_levels(ex: PhiEnvelope, ey: PhiEnvelope) -> list[Fraction]:
    return sorted(set(ex.levels) | set(ey.levels))


def _integrated_lower_quantile(env: PhiEnvelope, p: Fraction) -> Fraction:
    # integral of Q over (0, p) = mean - integral over (p, 1)
    return env.points[0][1] - env.value_at(p)


# ---------------------------------------------------------------------------
# Envelope routes of the four finite order checkers
# ---------------------------------------------------------------------------


def check_icx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    ex, ey = phi_envelope(dx), phi_envelope(dy)
    for p in _merged_levels(ex, ey):
        if p == 1:
            continue  # both envelopes vanish there
        vx, vy = ex.value_at(p), ey.value_at(p)
        if vx < vy:
            return OrderVerdict(False, Witness("level_p", p, vx / (1 - p), vy / (1 - p)))
    return _HOLDS


def check_ssd(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    ex, ey = phi_envelope(dx), phi_envelope(dy)
    for p in _merged_levels(ex, ey):
        if p == 0:
            continue  # both integrals vanish there
        vx = _integrated_lower_quantile(ex, p)
        vy = _integrated_lower_quantile(ey, p)
        if vx < vy:
            return OrderVerdict(False, Witness("level_p", p, vx, vy))
    return _HOLDS


def check_cx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    mx = sum((v * p for v, p in dx.atoms), _ZERO)
    my = sum((v * p for v, p in dy.atoms), _ZERO)
    if mx != my:
        return OrderVerdict(False, Witness("level_p", Fraction(1), mx, my))
    return check_ssd(dx, dy)


def check_st(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        sx = 1 - cdf(dx, t)
        sy = 1 - cdf(dy, t)
        if sx < sy:
            return OrderVerdict(False, Witness("threshold_x", t, sx, sy))
    return _HOLDS


# ---------------------------------------------------------------------------
# Per-threshold transform oracles
# ---------------------------------------------------------------------------


def oracle_ssd(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        lhs = sum((min(v, t) * p for v, p in dx.atoms), _ZERO)
        rhs = sum((min(v, t) * p for v, p in dy.atoms), _ZERO)
        if lhs < rhs:
            return OrderVerdict(False, Witness("angle_t", t, lhs, rhs))
    return _HOLDS


def oracle_icx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        lhs = sum(((v - t) * p for v, p in dx.atoms if v > t), _ZERO)
        rhs = sum(((v - t) * p for v, p in dy.atoms if v > t), _ZERO)
        if lhs < rhs:
            return OrderVerdict(False, Witness("angle_t", t, lhs, rhs))
    return _HOLDS


# ---------------------------------------------------------------------------
# O(k n) dependence-condition loops
# ---------------------------------------------------------------------------


def _first_bad(cells, event, bad) -> OrderVerdict:
    """First anchor x, ascending, where E[Z | event(anchor, x)] is bad."""
    for x in sorted({a for a, _, _ in cells}):
        num = _ZERO
        den = _ZERO
        for a, z, p in cells:
            if event(a, x):
                num += z * p
                den += p
        if bad(num / den):
            return OrderVerdict(False, Witness("threshold_x", x, num / den, _ZERO))
    return _HOLDS


def cond_new(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w <= x, lambda r: r > 0)


def cond_classic(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w == x, lambda r: r > 0)


def cond_icx(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w >= x, lambda r: r < 0)


def cond_cx_pair(j: JointDist) -> OrderVerdict:
    mean_z = sum((z * p for _, z, p in j.atoms), _ZERO)
    if mean_z != 0:
        top = max(w for w, _, _ in j.atoms)
        return OrderVerdict(False, Witness("threshold_x", top, mean_z, _ZERO))
    return cond_new(j)


def cond_on_difference(j: JointDist) -> OrderVerdict:
    cells = [(y - z, z, p) for y, z, p in j.atoms]
    return _first_bad(cells, lambda v, x: v <= x, lambda r: r > 0)
