"""Worked verification cases that run the exact checkers.

The Bernoulli dependence-region table, stochastic-improver membership,
marketability of indemnity schedules and stop-loss dominance reports; the
float and closed-form cases (the Gaussian region, indemnity schedules,
indifference premiums, the protective put) are in models, which this module
loads only inside bernoulli_region (RegionFlags) and marketable_check (the
indemnity schedules), so improver_check and stop_loss_compare run without it.

Each quantity has one route: the improver's sufficient condition is the
conditions kernel anchored on the sum, marketability of a finite loss is
cond_icx on the joint of (X - I(X), I(X) - P0), and E[I(X)] is
models.conditional_indemnity_mean at x = 0.  The Bernoulli region and the
improver decide on integer forms: W and W + Z are merged integer laws
(dists._merge) for check_ssd's two routes (orders._ssd_exact), next to the
conditions kernel; public laws are built only to report a disagreement of
those routes.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Iterable

from .conditions import _first_failure, cond_icx
from .dists import (
    Dist,
    InputError,
    InternalError,
    JointDist,
    JointInts,
    LawInts,
    RationalLike,
    _Record,
    _merge,
    _real,
    _record,
    as_discrete,
    as_fraction,
    as_integers,
    joint_marginal_w,
    joint_sum,
    normalize_joint,
    rescale,
)
from .orders import OrderVerdict, Witness, _scale, _ssd_exact
from .risk import stop_loss_transform

if TYPE_CHECKING:
    from .models import IndemnitySchedule, RegionFlags

__all__ = [
    "BernoulliCase",
    "bernoulli_joint",
    "bernoulli_region",
    "ImproverFlags",
    "improver_check",
    "marketable_check",
    "StopLossComparison",
    "stop_loss_compare",
]


# ---------------------------------------------------------------------------
# Bernoulli dependence region
# ---------------------------------------------------------------------------


@_record
class BernoulliCase(_Record):
    """W Bernoulli(1/2) and Z = D - c for a correlated Bernoulli(1/2) D.

    The joint law has cell masses P(W=0, D=0) = P(W=1, D=1) = (1+rho)/4 and
    P(W=0, D=1) = P(W=1, D=0) = (1-rho)/4, all exact rationals.
    """

    c: Fraction
    rho: Fraction

    def __init__(self, c: RationalLike, rho: RationalLike) -> None:
        object.__setattr__(self, "c", as_fraction(c))
        object.__setattr__(self, "rho", as_fraction(rho))
        if not -1 <= self.rho <= 1:
            raise InputError(f"rho must lie in [-1, 1], got {self.rho}")


def _bernoulli_ints(case: BernoulliCase) -> JointInts:
    """The case's joint over integers: w over 1, z over c's denominator and,
    for rho = rn / rd, the masses rd + rn (aligned cells) and rd - rn (crossed
    ones) over 4 rd.  The cells ascend in (w, z); empty ones drop."""
    cn, cd = case.c.as_integer_ratio()
    rn, rd = case.rho.as_integer_ratio()
    align, cross = rd + rn, rd - rn
    if align < 0 or cross < 0:
        raise InputError(f"cell masses must be nonnegative, got rho={case.rho}")
    cells = ((0, -cn, align), (0, cd - cn, cross), (1, -cn, cross), (1, cd - cn, align))
    w, z, p = zip(*(cell for cell in cells if cell[2]))
    return JointInts(w, 1, z, cd, p, 4 * rd)


def bernoulli_joint(case: BernoulliCase) -> JointDist:
    """The exact four-cell joint law of (W, Z); degenerate cells drop."""
    f = _bernoulli_ints(case)
    return JointDist(tuple((Fraction(w), Fraction(z, f.VZ), Fraction(p, f.D))
                           for w, z, p in zip(f.w, f.z, f.p)))


def _marginal_and_sum(f: JointInts) -> tuple[LawInts, LawInts, list[int], int]:
    """W and W + Z as integer laws over f.D, and W + Z at every cell over
    L = lcm(VW, VZ), and L."""
    ws, ps, _ = _merge(f.w, f.p)
    sums, L = f.combined()
    ss, qs, _ = _merge(sums, f.p)
    return LawInts(ws, f.VW, ps, f.D), LawInts(ss, L, qs, f.D), sums, L


def bernoulli_region(case: BernoulliCase) -> RegionFlags:
    """Exact region membership via checkers, asserted against closed forms.

    The checker route (the lower-tail and point conditions on the four-cell
    joint, and W >=ssd W + Z) runs on the joint's integer form; the closed
    form compares the numerators and denominators of c and rho.  Both are
    exact, so any disagreement is a defect, not noise.
    """
    from .models import RegionFlags

    f = _bernoulli_ints(case)
    w, total, _, _ = _marginal_and_sum(f)
    ssd = _ssd_exact(lambda: (joint_marginal_w(j := bernoulli_joint(case)), joint_sum(j)),
                     *_scale(w, total))
    new, classic = _first_failure(*f, "lower", "point")
    # the flags in RegionFlags' field order, ssd, cond_new, cond_classic: the
    # routes compare as tuples, and only the verdict or an error builds flags
    checker = (ssd.holds, new.holds, classic.holds)
    (cn, cd), (rn, rd) = case.c.as_integer_ratio(), case.rho.as_integer_ratio()
    half = 2 * cn >= cd  # c >= 1/2
    lower = rn * cd >= (cd - 2 * cn) * rd  # rho >= 1 - 2c
    upper = rn * cd <= (2 * cn - cd) * rd  # rho <= 2c - 1
    analytic = (half and lower, half and lower, half and lower and upper)
    if checker != analytic:
        checker, analytic = RegionFlags(*checker), RegionFlags(*analytic)
        raise InternalError(
            f"checker route disagrees with the closed-form region "
            f"at c={case.c}, rho={case.rho}: {checker} vs {analytic}",
            routes={"checker": checker, "closed_form": analytic},
            inputs=case,
        )
    return RegionFlags(*checker)


# ---------------------------------------------------------------------------
# Stochastic improvers
# ---------------------------------------------------------------------------


@_record
class ImproverFlags(_Record):
    """Membership of Z in the two improver families for a joint (X, Z).

    in_s: the sum X + Z dominates X in ssd.
    in_n: E[Z | X + Z <= x] >= 0 at every relevant x (sufficient for in_s).
    witness: the witness of check_ssd(X + Z, X), None when in_s.
    """

    in_s: bool
    in_n: bool
    witness: Witness | None

    def __init__(self, in_s: bool, in_n: bool, witness: Witness | None) -> None:
        object.__setattr__(self, "in_s", in_s)
        object.__setattr__(self, "in_n", in_n)
        object.__setattr__(self, "witness", witness)


def improver_check(j: JointDist) -> ImproverFlags:
    """Both memberships over the joint's integer form: check_ssd's two routes
    on X + Z against X, and the lower-tail condition anchored on the sum."""
    f = j.ints
    marg, total, sums, L = _marginal_and_sum(f)
    ssd = _ssd_exact(lambda: (joint_sum(j), joint_marginal_w(j)), *_scale(total, marg))
    # anchor on the sum with the sign of Z flipped: E[-Z | X+Z <= x] <= 0
    in_n = _first_failure(sums, L, [-z for z in f.z], f.VZ, f.p, f.D, "lower")[0].holds
    return ImproverFlags(in_s=ssd.holds, in_n=in_n, witness=ssd.witness)


# ---------------------------------------------------------------------------
# Marketability
# ---------------------------------------------------------------------------

_MARKET_TOL = 1e-9


def marketable_check(
    i: IndemnitySchedule, x_dist: Dist, p0: RationalLike
) -> OrderVerdict:
    """Whether E[I(X) | X - I(X) >= x] >= P0 at every relevant x.

    Finite losses (as_discrete, so a Bernoulli or a point mass too) check
    exactly at the atoms of the retained loss: the condition is cond_icx on
    the joint law of (X - I(X), I(X) - P0).  For an exponential loss with
    a fixed or stop-loss schedule the conditional mean is nondecreasing in x
    (the payout event only gains relative weight), so its infimum is the
    expected indemnity, its value at x = 0, compared against P0 with a 1e-9
    float cushion.  A premium that fails this comparison at x = 0 can never
    satisfy the condition everywhere, and it triggers a warning before the
    verdict.
    """
    from .models import conditional_indemnity_mean, indemnity_value

    p0f = as_fraction(p0)
    if p0f < 0:
        raise InputError(f"premium must be nonnegative, got {p0f}")
    expected = conditional_indemnity_mean(i, x_dist, 0)
    disc = as_discrete(x_dist)
    p0v = p0f if disc is not None else _real(p0f, "premium p0")
    # the condition at x = 0, exact for a finite loss and within the float
    # cushion otherwise; the warning and the verdict both read it
    reachable = expected >= (p0v if disc is not None else p0v - _MARKET_TOL)
    if not reachable:
        warnings.warn(
            "premium exceeds the expected indemnity; the marketability "
            "condition cannot hold at every threshold",
            stacklevel=2,
        )
    if disc is not None:
        # a negative loss has already raised in indemnity_value
        # E[I(X) - P0 | R >= x] >= 0 over the retained losses R = X - I(X)
        ivals = [indemnity_value(i, v) for v, _ in disc.atoms]
        verdict = cond_icx(normalize_joint(
            (v - iv, iv - p0f, p) for (v, p), iv in zip(disc.atoms, ivals)
        ))
        if verdict.holds:
            return verdict
        w = verdict.witness
        return OrderVerdict(False, Witness("threshold_x", w.value, w.lhs + p0f, p0f))
    if reachable:
        return OrderVerdict(True, None)
    return OrderVerdict(False, Witness("threshold_x", 0.0, expected, p0v))


# ---------------------------------------------------------------------------
# Stop-loss dominance report
# ---------------------------------------------------------------------------


@_record
class StopLossComparison(_Record):
    """Premium curves of a loss X and its sum X + Z over a deductible grid."""

    condition: OrderVerdict  # upper-tail condition on the joint
    deductibles: tuple[Fraction, ...]
    base_premiums: tuple[Fraction, ...]
    summed_premiums: tuple[Fraction, ...]
    dominates: bool

    def __init__(self, condition: OrderVerdict, deductibles: tuple[Fraction, ...],
                 base_premiums: tuple[Fraction, ...], summed_premiums: tuple[Fraction, ...],
                 dominates: bool) -> None:
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "deductibles", deductibles)
        object.__setattr__(self, "base_premiums", base_premiums)
        object.__setattr__(self, "summed_premiums", summed_premiums)
        object.__setattr__(self, "dominates", dominates)

    @property
    def verdict(self) -> OrderVerdict:
        """Dominance, failing at the least deductible whose summed premium is
        below the base premium."""
        for d, s, b in zip(self.deductibles, self.summed_premiums, self.base_premiums):
            if s < b:
                return OrderVerdict(False, Witness("angle_t", d, s, b))
        return OrderVerdict(True)


def stop_loss_compare(
    j: JointDist, deductibles: Iterable[RationalLike] | None = None
) -> StopLossComparison:
    """Compare stop-loss curves of X and X + Z for a joint law of (X, Z).

    The default deductible grid is 0 and every nonnegative atom of X or of
    X + Z, where both curves have all their knots.  The cells are read over
    integers from the joint's integer form (w, z and the deductibles moved
    onto one lcm V, probabilities over the lcm D of theirs), and each curve
    is one pass of risk.stop_loss_transform over the cells sorted by w or
    by w + z; dominance is compared over integers and a premium becomes a
    Fraction once.  When the upper-tail condition E[Z | X >= x] >= 0 holds, the
    summed curve must dominate at every deductible; a violation under a
    holding condition is an internal defect and raises.
    """
    f = j.ints
    if min(f.w) < 0:
        raise InputError("the loss marginal must be nonnegative")
    ds: list[Fraction] = []
    ts, VT = [], 1
    if deductibles is not None:
        ds = sorted({as_fraction(d) for d in deductibles})
        if any(d < 0 for d in ds):
            raise InputError("deductibles must be nonnegative")
        if not ds:
            raise InputError("deductible grid must be non-empty")
        ts, VT = as_integers(ds)
    V, D = math.lcm(f.VW, f.VZ, VT), f.D
    ws = rescale(f.w, V // f.VW)
    base = sorted(zip(ws, f.p))
    summed = sorted(zip(map(add, ws, rescale(f.z, V // f.VZ)), f.p))
    if deductibles is None:
        ts = sorted({0, *ws, *(s for s, _ in summed if s >= 0)})
        ds = [Fraction(t, V) for t in ts]
    else:
        ts = rescale(ts, V // VT)
    _, base_sl = stop_loss_transform(base, ts)
    _, summed_sl = stop_loss_transform(summed, ts)
    base_curve = tuple(Fraction(b, V * D) for b in base_sl)
    summed_curve = tuple(Fraction(s, V * D) for s in summed_sl)
    dominates = all(s >= b for s, b in zip(summed_sl, base_sl))
    condition = cond_icx(j)
    if condition.holds and not dominates:
        raise InternalError(
            "upper-tail condition holds but stop-loss dominance fails",
            routes={"cond_icx": condition, "stop_loss_curves": (base_curve, summed_curve)},
            inputs=(j, tuple(ds)),
        )
    return StopLossComparison(
        condition=condition,
        deductibles=tuple(ds),
        base_premiums=base_curve,
        summed_premiums=summed_curve,
        dominates=dominates,
    )
