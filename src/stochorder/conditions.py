"""Sufficient dependence conditions on a finite joint law of (W, Z).

Each checker inspects conditional expectations of Z over events of an
anchor variable, exactly.  Thresholds are "relevant" when the conditioning
event has positive probability; only those are checked.

cond_new:            E[Z | W <= x] <= 0 at every relevant x  (implies W + Z <=ssd W)
cond_classic:        E[Z | W = w] <= 0 at every atom w of W  (pointwise; stronger anchor)
cond_icx:            E[Z | W >= x] >= 0 at every relevant x  (implies W + Z >=icx W)
cond_cx_pair:        E[Z] = 0 and cond_new                   (implies W + Z spreads W)
cond_on_difference:  E[Z | Y - Z <= x] <= 0 at every relevant x, for a joint of
                     (Y, Z); the anchor is the difference Y - Z itself
                     (implies Y <=ssd Y - Z)

The events {W <= x}, {W >= x} and {W = x} change only at atoms of the
anchor, so its distinct values are a complete test set, and
E[Z | event] has the sign of E[Z; event].  All five conditions, and
apps.improver_check (anchored on the sum W + Z, with -Z) and
apps.bernoulli_region (over the case's integer cells), call one kernel
function, _first_failure, over a joint's integer columns (JointDist.ints,
or JointInts built from integers; apps.marketable_check is cond_icx
on the joint of retained loss and indemnity margin): it sums z * p and p
over the cells of each anchor value, once, and walks the anchors,
ascending, once per requested tail, with a prefix sum (the lower tail), a
suffix sum (the upper tail) or the group sums alone (the point events).
It reports the first failing threshold, as a direct evaluation at each
threshold would.  cond_cx_pair reads E[Z] straight from the integer columns
and asks one call for both tails.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .dists import InternalError, JointDist
from .orders import OrderVerdict, Witness

__all__ = [
    "cond_new",
    "cond_classic",
    "cond_icx",
    "cond_cx_pair",
    "cond_on_difference",
]

_ZERO = Fraction(0)

_HOLDS = OrderVerdict(True, None)


def _first_failure(anchors: Sequence[int], va: int, zs: Sequence[int], vz: int,
                   ps: Sequence[int], _d: int, *tails: str) -> list[OrderVerdict]:
    """For each tail, the first anchor x, ascending, at which E[Z | event]
    has the wrong sign.

    The columns are JointInts': cell k is (anchors[k] / va, zs[k] / vz) with
    probability ps[k] / _d (only ratios of ps enter a sign).  The cells are
    summed per anchor value, (sum of z * p, sum of p), once, and the
    distinct anchors are walked once per tail, ascending.  tail "lower":
    event A <= x, fails above 0; "upper": A >= x, fails below 0; "point":
    A = x, fails above 0.
    """
    acc: dict[int, list[int]] = {}
    for a, z, p in zip(anchors, zs, ps):
        g = acc.get(a)
        if g is None:
            acc[a] = [z * p, p]
        else:
            g[0] += z * p
            g[1] += p
    groups = sorted(acc.items())
    total_num = sum(n for n, _ in acc.values())
    total_den = sum(d for _, d in acc.values())
    verdicts = []
    for tail in tails:
        below_num = below_den = 0  # sums over the anchors below x
        for a, (gn, gd) in groups:
            if tail == "lower":
                en, ed = below_num + gn, below_den + gd
            elif tail == "upper":
                en, ed = total_num - below_num, total_den - below_den
            else:
                en, ed = gn, gd
            if en < 0 if tail == "upper" else en > 0:
                x, ratio = Fraction(a, va), Fraction(en, vz * ed)
                verdicts.append(OrderVerdict(False, Witness("threshold_x", x, ratio, _ZERO)))
                break
            below_num += gn
            below_den += gd
        else:
            verdicts.append(_HOLDS)
    return verdicts


def cond_new(j: JointDist) -> OrderVerdict:
    """E[Z | W <= x] <= 0 for every relevant threshold x."""
    return _first_failure(*j.ints, "lower")[0]


def cond_classic(j: JointDist) -> OrderVerdict:
    """E[Z | W = w] <= 0 at every atom w of W."""
    return _first_failure(*j.ints, "point")[0]


def cond_icx(j: JointDist) -> OrderVerdict:
    """E[Z | W >= x] >= 0 for every relevant threshold x."""
    return _first_failure(*j.ints, "upper")[0]


def cond_cx_pair(j: JointDist) -> OrderVerdict:
    """E[Z] = 0 together with cond_new.

    Under a zero mean the lower-tail and upper-tail conditions are the same
    statement (the two tail sums are negatives of each other), so either one
    certifies the spread; both are computed and must agree.  A witness at the
    top threshold with nonzero lhs exhibits the mean failure.
    """
    f = j.ints
    mean_num = sum(map(mul, f.z, f.p))
    if mean_num != 0:
        top = Fraction(max(f.w), f.VW)
        return OrderVerdict(
            False, Witness("threshold_x", top, Fraction(mean_num, f.VZ * f.D), _ZERO)
        )
    lower, upper = _first_failure(*f, "lower", "upper")
    if lower.holds != upper.holds:
        raise InternalError(
            "zero-mean tail conditions disagree",
            routes={"lower_tail": lower, "upper_tail": upper},
            inputs=j,
        )
    return lower


def cond_on_difference(j: JointDist) -> OrderVerdict:
    """E[Z | Y - Z <= x] <= 0 at every relevant x, for a joint law of (Y, Z).

    The anchor is the difference V = Y - Z; relevant thresholds are V's
    atoms.  Holding, it certifies Y <=ssd Y - Z.
    """
    f = j.ints
    return _first_failure(*f.combined(-1), f.z, f.VZ, f.p, f.D, "lower")[0]
