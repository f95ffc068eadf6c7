"""Worked verification cases on top of the checkers.

Gaussian and Bernoulli dependence-region tables, stochastic-improver
membership, marketability of indemnity schedules, indifference premiums,
stop-loss dominance reports, and the protective-put conditional-drift
verification under zero-rate Black-Scholes dynamics.

Each quantity has one route: the improver's sufficient condition is the
conditions kernel anchored on the sum, marketability of a finite loss is
cond_icx on the joint of (X - I(X), I(X) - P0), and E[I(X)] is
conditional_indemnity_mean at x = 0.  The exponential-utility premium is
the closed form (K(X) - K(X - I)) / a, K(Y) = log E[exp(a Y)]; the power
utility's is a bisection.  The protective put's tolerances are in units of
max(spot, strike).  Float routes round rationals with dists._real, so one
beyond binary64 is an InputError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from operator import add
from typing import Iterable, Sequence, Union

from .conditions import _first_failure, cond_classic, cond_icx, cond_new
from .dists import (
    Dist,
    Exponential,
    InputError,
    InternalError,
    IrrelevantThresholdError,
    JointDist,
    RationalLike,
    UnsupportedPairingError,
    _check_finite,
    _real,
    as_discrete,
    as_fraction,
    as_integers,
    bisection,
    joint_marginal_w,
    joint_sum,
    norm_cdf,
    normalize_joint,
    norm_pdf,
    rational_to_json as r2j,
    rescale,
)
from .orders import OrderVerdict, Witness, check_ssd
from .risk import stop_loss_transform

__all__ = [
    "GaussianCase",
    "BernoulliCase",
    "RegionFlags",
    "gaussian_cond_new_numeric",
    "gaussian_ssd_check",
    "gaussian_region",
    "bernoulli_joint",
    "bernoulli_region",
    "ImproverFlags",
    "improver_check",
    "FixedIndemnity",
    "StopLossIndemnity",
    "PiecewiseIndemnity",
    "IndemnitySchedule",
    "indemnity_value",
    "indemnity_from_json",
    "indemnity_to_json",
    "conditional_indemnity_mean",
    "marketable_check",
    "LinearUtility",
    "ExponentialUtility",
    "PowerUtility",
    "Utility",
    "utility_from_spec",
    "indifference_premium",
    "StopLossComparison",
    "stop_loss_compare",
    "BSParams",
    "bs_put",
    "expected_put_value",
    "protective_put_check",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Gaussian dependence region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianCase:
    """Jointly Gaussian (W, Z) with W standardized to N(0, 1)."""

    mu_z: float
    sigma_z: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("mu_z", "sigma_z", "rho"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.sigma_z <= 0:
            raise InputError(f"sigma_z must be positive, got {self.sigma_z}")
        if not -1.0 <= self.rho <= 1.0:
            raise InputError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class RegionFlags:
    ssd: bool
    cond_new: bool
    cond_classic: bool


_COND_RANGE = 8.0
_COND_TOL = 1e-8
_CROSS_CHECK_MARGIN = 1e-6


def gaussian_cond_new_numeric(case: GaussianCase) -> bool:
    """Numeric route for the lower-tail condition E[Z | W <= x] <= 0.

    E[Z | W <= x] = mu_z + rho*sigma_z*E[W | W <= x], where
    E[W | W <= x] = -pdf(x) / cdf(x) for the standard normal; its sup over x in
    [-8, 8] is combined, at tolerance 1e-8, with the two limit facts: the
    conditional mean tends to mu_z as x -> +inf, and E[W | W <= x] is
    unbounded below as x -> -inf, so any rho < 0 blows the expression up on
    the far left.  E[W | W <= x] increases in x, so the sup sits at x = 8
    when rho*sigma_z >= 0 and at x = -8 otherwise.
    """
    c = case.rho * case.sigma_z
    x = _COND_RANGE if c >= 0.0 else -_COND_RANGE
    sup = case.mu_z + c * -(norm_pdf(x) / norm_cdf(x))
    return sup <= _COND_TOL and case.mu_z <= _COND_TOL and case.rho >= -_COND_TOL


def gaussian_ssd_check(case: GaussianCase) -> bool:
    """Parametric route for W + Z <=ssd W via the Normal order criterion.

    N(0, 1) >=ssd N(mu_z, s) iff 0 >= mu_z and s >= 1, read off the
    parameters with no witness scan; s^2 - 1 = sigma_z * (2 rho + sigma_z)
    is the variance Z adds to W.
    """
    return case.mu_z <= 0.0 and case.sigma_z * (2.0 * case.rho + case.sigma_z) >= 0.0


def gaussian_region(case: GaussianCase) -> RegionFlags:
    """Analytic region membership for (ssd, cond_new, cond_classic).

    The analytic answers are cross-checked against the numeric lower-tail
    route and the parametric dominance check whenever the case sits at least
    1e-6 away from the region boundary; inside that band the numeric routes
    are not informative at their 1e-8 tolerance and the cross-check is
    skipped.
    """
    analytic = RegionFlags(
        ssd=case.mu_z <= 0.0 and case.rho >= -case.sigma_z / 2.0,
        cond_new=case.mu_z <= 0.0 and case.rho >= 0.0,
        cond_classic=case.mu_z <= 0.0 and case.rho == 0.0,
    )
    margin_new = min(abs(case.mu_z), abs(case.rho))
    if margin_new > _CROSS_CHECK_MARGIN:
        numeric = gaussian_cond_new_numeric(case)
        if numeric != analytic.cond_new:
            raise InternalError(
                f"numeric lower-tail route disagrees with the analytic region at {case}",
                routes={"numeric_lower_tail": numeric, "analytic": analytic.cond_new},
                inputs=case,
            )
    margin_ssd = min(abs(case.mu_z), abs(case.rho + case.sigma_z / 2.0))
    if margin_ssd > _CROSS_CHECK_MARGIN:
        parametric = gaussian_ssd_check(case)
        if parametric != analytic.ssd:
            raise InternalError(
                f"parametric dominance route disagrees with the analytic region at {case}",
                routes={"parametric_ssd": parametric, "analytic": analytic.ssd},
                inputs=case,
            )
    return analytic


# ---------------------------------------------------------------------------
# Bernoulli dependence region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliCase:
    """W Bernoulli(1/2) and Z = D - c for a correlated Bernoulli(1/2) D.

    The joint law has cell masses P(W=0, D=0) = P(W=1, D=1) = (1+rho)/4 and
    P(W=0, D=1) = P(W=1, D=0) = (1-rho)/4, all exact rationals.
    """

    c: Fraction
    rho: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", as_fraction(self.c))
        object.__setattr__(self, "rho", as_fraction(self.rho))
        if not -1 <= self.rho <= 1:
            raise InputError(f"rho must lie in [-1, 1], got {self.rho}")


def bernoulli_joint(case: BernoulliCase) -> JointDist:
    """The exact four-cell joint law of (W, Z); degenerate cells drop."""
    align = (1 + case.rho) / 4
    cross = (1 - case.rho) / 4
    # ascending in (w, z), with total mass 1: the cells are the canonical form
    cells = [
        (Fraction(0), -case.c, align),
        (Fraction(0), 1 - case.c, cross),
        (Fraction(1), -case.c, cross),
        (Fraction(1), 1 - case.c, align),
    ]
    if any(p < 0 for _, _, p in cells):
        raise InputError(f"cell masses must be nonnegative, got rho={case.rho}")
    return JointDist(tuple(cell for cell in cells if cell[2]))


def bernoulli_region(case: BernoulliCase) -> RegionFlags:
    """Exact region membership via checkers, asserted against closed forms.

    The checker route (cond_new / cond_classic / check_ssd on the four-cell
    joint) and the closed-form inequalities must agree exactly; both run in
    rational arithmetic, so any disagreement is a defect, not noise.
    """
    j = bernoulli_joint(case)
    w = joint_marginal_w(j)
    total = joint_sum(j)
    checker = RegionFlags(
        ssd=check_ssd(w, total).holds,
        cond_new=cond_new(j).holds,
        cond_classic=cond_classic(j).holds,
    )
    lower = 1 - 2 * case.c
    upper = 2 * case.c - 1
    analytic = RegionFlags(
        ssd=case.c >= _HALF and case.rho >= lower,
        cond_new=case.c >= _HALF and case.rho >= lower,
        cond_classic=case.c >= _HALF and lower <= case.rho <= upper,
    )
    if checker != analytic:
        raise InternalError(
            f"checker route disagrees with the closed-form region "
            f"at c={case.c}, rho={case.rho}: {checker} vs {analytic}",
            routes={"checker": checker, "closed_form": analytic},
            inputs=case,
        )
    return checker


# ---------------------------------------------------------------------------
# Stochastic improvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImproverFlags:
    """Membership of Z in the two improver families for a joint (X, Z).

    in_s: the sum X + Z dominates X in ssd.
    in_n: E[Z | X + Z <= x] >= 0 at every relevant x (sufficient for in_s).
    witness: the witness of check_ssd(X + Z, X), None when in_s.
    """

    in_s: bool
    in_n: bool
    witness: Witness | None


def improver_check(j: JointDist) -> ImproverFlags:
    marg = joint_marginal_w(j)
    total = joint_sum(j)
    ssd = check_ssd(total, marg)
    # anchor on the sum with the sign of Z flipped: E[-Z | X+Z <= x] <= 0
    f = j.ints
    in_n = _first_failure(*f.combined(), [-z for z in f.z], f.VZ, f.p, f.D, "lower")[0].holds
    return ImproverFlags(in_s=ssd.holds, in_n=in_n, witness=ssd.witness)


# ---------------------------------------------------------------------------
# Indemnity schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedIndemnity:
    """Pays a flat amount once the loss reaches the threshold."""

    threshold: Fraction
    amount: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", as_fraction(self.threshold))
        object.__setattr__(self, "amount", as_fraction(self.amount))
        if self.threshold <= 0:
            raise InputError("threshold must be positive")
        if not 0 <= self.amount <= self.threshold:
            raise InputError(
                "amount must lie in [0, threshold] so that 0 <= I(x) <= x"
            )


@dataclass(frozen=True)
class StopLossIndemnity:
    """Pays the excess of the loss over a deductible."""

    deductible: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "deductible", as_fraction(self.deductible))
        if self.deductible < 0:
            raise InputError("deductible must be nonnegative")


@dataclass(frozen=True)
class PiecewiseIndemnity:
    """Piecewise-linear schedule through knots, extended by the last slope.

    Knots are [x, y] pairs of rationals, from (0, 0) with strictly
    increasing x and 0 <= y <= x; by linearity that bounds every
    intermediate point too, and the final slope must lie in [0, 1] so the
    extension stays within [0, x].
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.knots, Sequence):
            raise InputError(f"knots must be a sequence of [x, y] pairs, got {self.knots!r}")
        knots = []
        for k in self.knots:
            if not isinstance(k, (list, tuple)) or len(k) != 2:
                raise InputError(f"knot must be a [x, y] pair, got {k!r}")
            knots.append((as_fraction(k[0]), as_fraction(k[1])))
        object.__setattr__(self, "knots", tuple(knots))
        if len(knots) < 2:
            raise InputError("piecewise schedule needs at least two knots")
        if knots[0] != (0, 0):
            raise InputError("piecewise schedule must start at the knot (0, 0)")
        for (x0, _), (x1, _) in zip(knots, knots[1:]):
            if x1 <= x0:
                raise InputError("knot x-values must be strictly increasing")
        for x, y in knots:
            if not 0 <= y <= x:
                raise InputError(f"knot ({x}, {y}) violates 0 <= I(x) <= x")
        (x0, y0), (x1, y1) = knots[-2], knots[-1]
        slope = (y1 - y0) / (x1 - x0)
        if not 0 <= slope <= 1:
            raise InputError("final slope must lie in [0, 1] for the extension")


IndemnitySchedule = Union[FixedIndemnity, StopLossIndemnity, PiecewiseIndemnity]


def indemnity_value(i: IndemnitySchedule, x: RationalLike) -> Fraction:
    """I(x), exact.  Defined for x >= 0."""
    xf = as_fraction(x)
    if xf < 0:
        raise InputError(f"indemnity is defined for nonnegative losses, got {xf}")
    if isinstance(i, FixedIndemnity):
        return i.amount if xf >= i.threshold else _ZERO
    if isinstance(i, StopLossIndemnity):
        return max(xf - i.deductible, _ZERO)
    if isinstance(i, PiecewiseIndemnity):
        ks = i.knots
        if xf >= ks[-1][0]:
            (x0, y0), (x1, y1) = ks[-2], ks[-1]
            return y1 + (y1 - y0) / (x1 - x0) * (xf - x1)
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if x0 <= xf <= x1:
                return y0 + (y1 - y0) / (x1 - x0) * (xf - x0)
        raise AssertionError("unreachable: knots cover [0, inf)")
    raise InputError(f"unknown indemnity schedule {i!r}")


def indemnity_from_json(obj: object) -> IndemnitySchedule:
    """Parse {"kind": "fixed"|"stop_loss"|"piecewise", ...}; see README."""
    if not isinstance(obj, dict):
        raise InputError("indemnity JSON must be an object")
    kind = obj.get("kind")
    kinds = {"fixed": FixedIndemnity, "stop_loss": StopLossIndemnity}
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is not None:
        names = [f.name for f in fields(cls)]
        for name in names:
            if name not in obj:
                raise InputError(f"missing parameter {name!r}")
        return cls(*(obj[name] for name in names))
    if kind == "piecewise":
        knots = obj.get("knots")
        if not isinstance(knots, list):
            raise InputError("piecewise indemnity needs a 'knots' list")
        return PiecewiseIndemnity(knots)
    raise InputError(f"unknown indemnity kind {kind!r}")


def indemnity_to_json(i: IndemnitySchedule) -> dict:
    if isinstance(i, FixedIndemnity):
        return {"kind": "fixed", "threshold": r2j(i.threshold), "amount": r2j(i.amount)}
    if isinstance(i, StopLossIndemnity):
        return {"kind": "stop_loss", "deductible": r2j(i.deductible)}
    if isinstance(i, PiecewiseIndemnity):
        return {"kind": "piecewise", "knots": [[r2j(x), r2j(y)] for x, y in i.knots]}
    raise InputError(f"unknown indemnity schedule {i!r}")


# ---------------------------------------------------------------------------
# Marketability
# ---------------------------------------------------------------------------

_MARKET_TOL = 1e-9


def conditional_indemnity_mean(
    i: IndemnitySchedule, x_dist: Dist, x: RationalLike
) -> Fraction | float:
    """E[I(X) | X - I(X) >= x].

    Exact for finite losses, a Bernoulli or a point mass included.  For an
    exponential loss the fixed and stop-loss schedules admit closed forms;
    other pairings are rejected.  Since 0 <= I(X) <= X, the event at x = 0
    is certain and the value there is E[I(X)].
    """
    disc = as_discrete(x_dist)
    if disc is not None:
        xf = as_fraction(x)
        num = den = _ZERO
        for v, p in disc.atoms:
            iv = indemnity_value(i, v)  # raises at a negative loss
            if v - iv >= xf:
                num += iv * p
                den += p
        if den == 0:
            raise IrrelevantThresholdError(f"P(X - I(X) >= {xf}) = 0")
        return num / den
    if isinstance(x_dist, Exponential):
        lam = x_dist.rate
        xv = _real(as_fraction(x), "threshold x")
        if isinstance(i, FixedIndemnity):
            u = _real(i.threshold, "schedule threshold")
            a = _real(i.amount, "schedule amount")
            if xv <= 0.0:
                return a * math.exp(-lam * u)
            if xv >= u:
                # the retained loss reaches x only with the payout made
                return a
            # {X - I(X) >= x} = {x <= X < u} plus {X >= max(u, x + a)}
            cut = max(u, xv + a)
            num = a * math.exp(-lam * cut)
            den = math.exp(-lam * xv) - math.exp(-lam * u) + math.exp(-lam * cut)
            return num / den
        if isinstance(i, StopLossIndemnity):
            d = _real(i.deductible, "schedule deductible")
            if xv > d:
                raise IrrelevantThresholdError(
                    f"retained loss min(X, {d}) never reaches {xv}"
                )
            base = math.exp(-lam * d) / lam
            if xv <= 0.0:
                return base
            return base / math.exp(-lam * xv)
        raise UnsupportedPairingError(
            "exponential losses support fixed and stop-loss schedules only; "
            "discretize the loss for piecewise schedules"
        )
    raise UnsupportedPairingError(
        f"marketability needs a discrete or exponential loss, got {type(x_dist).__name__}"
    )


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
# Indifference premiums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearUtility:
    pass


@dataclass(frozen=True)
class ExponentialUtility:
    aversion: float

    def __post_init__(self) -> None:
        a = _check_finite("aversion", self.aversion)
        object.__setattr__(self, "aversion", a)
        if a <= 0:
            raise InputError(f"aversion must be positive, got {a}")


@dataclass(frozen=True)
class PowerUtility:
    gamma: float

    def __post_init__(self) -> None:
        g = _check_finite("gamma", self.gamma)
        object.__setattr__(self, "gamma", g)
        if not 0.0 < g < 1.0:
            raise InputError(f"gamma must lie in (0, 1), got {g}")


Utility = Union[LinearUtility, ExponentialUtility, PowerUtility]


def utility_from_spec(spec: str) -> Utility:
    """Parse "linear", "exp:A" or "power:G"."""
    s = spec.strip().lower()
    if s == "linear":
        return LinearUtility()
    for prefix, cls in (("exp:", ExponentialUtility), ("power:", PowerUtility)):
        if s.startswith(prefix):
            try:
                return cls(float(s[len(prefix):]))
            except ValueError as exc:
                raise InputError(f"bad utility parameter in {spec!r}") from exc
    raise InputError(f"unknown utility spec {spec!r}; use linear, exp:A or power:G")


def _log_mgf(a: float, ys: list[float], ps: list[float]) -> tuple[float, float]:
    """(top, r) with log E[exp(a Y)] = a * top + r, top = max Y.

    Log-sum-exp about the largest value: every exponent a * (y - top) is
    nonpositive, and r = log1p(sum of p * expm1(a * (y - top))) keeps its
    digits as a -> 0; a sum near -1 (a rare top atom under a large aversion)
    takes the plain logarithm instead.
    """
    top = max(ys)
    s = math.fsum(p * math.expm1(a * (y - top)) for y, p in zip(ys, ps))
    if s > -0.5:
        return top, math.log1p(s)
    return top, math.log(math.fsum(p * math.exp(a * (y - top)) for y, p in zip(ys, ps)))


def _exponential_premium(a: float, xs: list[float], ps: list[float], ivs: list[float]) -> float:
    """P = (K(X) - K(X - I)) / a with K(Y) = log E[exp(a Y)]; wealth cancels."""
    if math.isinf(a * max(xs)):
        raise InputError(f"aversion {a} times the largest loss {max(xs)} exceeds binary64")
    top_x, r_x = _log_mgf(a, xs, ps)
    top_r, r_r = _log_mgf(a, [x - iv for x, iv in zip(xs, ivs)], ps)
    return (top_x - top_r) + (r_x - r_r) / a


def indifference_premium(
    u: Utility, wealth: RationalLike, x_dist: Dist, i: IndemnitySchedule
) -> Fraction | float:
    """The premium P* solving E[u(w - X + I(X) - P)] = E[u(w - X)].

    Linear utility returns the exact expected indemnity.  Exponential
    utility u(t) = -exp(-a t) has the closed form P = (K(X) - K(X - I)) / a,
    K(Y) = log E[exp(a Y)], free of the wealth; an a * X beyond binary64 is
    an InputError.  Power utility bisects: the left side is strictly
    decreasing in P, P = 0 over-shoots (I >= 0) and P = max I(X)
    under-shoots, so [0, max I] brackets the unique root, refined to 1e-10.
    It requires w - X >= 0 on the support; premiums that push an outcome
    below zero wealth count as infinitely bad, and expected utilities that
    do not move in binary64 (a wealth too large for the losses) are an
    InputError.  The loss must be finite (as_discrete, so a Bernoulli or a
    point mass too).
    """
    x_dist = as_discrete(x_dist)
    if x_dist is None:
        raise InputError("indifference premiums are defined for discrete losses")
    if isinstance(u, LinearUtility):
        return conditional_indemnity_mean(i, x_dist, 0)
    ivals = [indemnity_value(i, v) for v, _ in x_dist.atoms]  # raises at a negative loss
    w = _real(as_fraction(wealth), "wealth")
    xs = [_real(v, "loss atom") for v, _ in x_dist.atoms]
    ps = [_real(p, "probability") for _, p in x_dist.atoms]
    ivs = [_real(iv, "indemnity") for iv in ivals]  # 0 <= I(x) <= x: a huge loss is named first
    hi = max(ivs)
    if isinstance(u, ExponentialUtility):
        return _exponential_premium(u.aversion, xs, ps, ivs) if hi else 0.0
    if not isinstance(u, PowerUtility):
        raise InputError(f"unknown utility {u!r}")
    if any(w - x < 0 for x in xs):
        raise InputError("power utility needs w - X >= 0 on the whole support")

    def expected(shifts: Iterable[float]) -> float:
        return sum(p * (t**u.gamma if t >= 0.0 else -math.inf) for p, t in zip(ps, shifts))

    baseline = expected(w - x for x in xs)

    def gap(premium: float) -> float:
        return expected(w - x + iv - premium for x, iv in zip(xs, ivs)) - baseline

    if hi == 0.0:
        return 0.0
    g0 = gap(0.0)
    if g0 < 0.0 or gap(hi) > 0.0:
        raise InputError("bracket expansion failure: no root in [0, max I(X)]")
    if g0 == 0.0:
        raise InputError(
            f"power utility at wealth {w} does not resolve the indemnity in binary64; "
            "the premium is undetermined"
        )
    return bisection(lambda premium: gap(premium) >= 0.0, 0.0, hi, 1e-10)


# ---------------------------------------------------------------------------
# Stop-loss dominance report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StopLossComparison:
    """Premium curves of a loss X and its sum X + Z over a deductible grid."""

    condition: OrderVerdict  # upper-tail condition on the joint
    deductibles: tuple[Fraction, ...]
    base_premiums: tuple[Fraction, ...]
    summed_premiums: tuple[Fraction, ...]
    dominates: bool

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


# ---------------------------------------------------------------------------
# Protective put under zero-rate Black-Scholes dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BSParams:
    """Zero-interest-rate model; the asset grows at a nonpositive real drift."""

    spot: float
    strike: float
    sigma: float
    drift: float
    horizon: float

    def __post_init__(self) -> None:
        for name in ("spot", "strike", "sigma", "drift", "horizon"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.spot <= 0 or self.strike <= 0:
            raise InputError("spot and strike must be positive")
        if self.sigma <= 0:
            raise InputError(f"sigma must be positive, got {self.sigma}")
        if self.horizon <= 0:
            raise InputError(f"horizon must be positive, got {self.horizon}")
        if self.drift > 0:
            raise InputError(
                "the protective-put analysis assumes a nonpositive growth "
                f"rate; got drift {self.drift}"
            )


def bs_put(params: BSParams, t: float, spot_t: float) -> float:
    """Zero-rate put price K*CDF(-d2) - S*CDF(-d1) at time t given the spot."""
    t = _check_finite("t", t)
    spot_t = _check_finite("spot_t", spot_t)
    if not 0.0 <= t < params.horizon:
        raise InputError(f"t must lie in [0, horizon), got {t}")
    if spot_t <= 0:
        raise InputError(f"spot_t must be positive, got {spot_t}")
    tau = params.horizon - t
    srt = params.sigma * math.sqrt(tau)
    d1 = (math.log(spot_t / params.strike) + 0.5 * params.sigma**2 * tau) / srt
    d2 = d1 - srt
    return params.strike * norm_cdf(-d2) - spot_t * norm_cdf(-d1)


_QUAD_NODES = 200
_QUAD_RANGE = 8.0
_PUT_TOL = 1e-9


@cache
def _leggauss() -> tuple[list[float], list[float]]:
    """The _QUAD_NODES-point Gauss-Legendre rule on [-1, 1], nodes ascending:
    Newton's method on P_n from Tricomi's estimate of each positive root, with
    weight 2 / ((1 - x^2) P_n'(x)^2) at the converged root; n is even, so the
    negative roots mirror the positive ones."""
    n = _QUAD_NODES
    xs, ws = [], []
    for k in range(1, n // 2 + 1):
        x = (1 - (n - 1) / (8 * n**3)) * math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(20):
            p0, p1 = 1.0, x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            if abs(p1 / dp) <= 2e-16 * x:
                break
            x -= p1 / dp
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * dp * dp))
    return [-x for x in xs] + xs[::-1], ws + ws[::-1]


def _density_weights(lo: float, hi: float) -> tuple[list[float], list[float]]:
    """Gauss-Legendre nodes on [lo, hi], each weight times the normal density there."""
    xs, ws = _leggauss()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gs = [mid + half * x for x in xs]
    return gs, [half * w * norm_pdf(g) for g, w in zip(gs, ws)]


def _position_values(
    params: BSParams, t: float, gs: list[float], p0: float
) -> tuple[list[float], list[float], list[float]]:
    """(spot, put, position) at time t on standard normal generator values."""
    growth = (params.drift - 0.5 * params.sigma**2) * t
    vol = params.sigma * math.sqrt(t)
    spots = [params.spot * math.exp(growth + vol * g) for g in gs]
    puts = [bs_put(params, t, s) for s in spots]
    positions = [s + p - p0 for s, p in zip(spots, puts)]
    return spots, puts, positions


def expected_put_value(params: BSParams, t: float) -> float:
    """E[P_t] under the real-world lognormal law, 200-node quadrature."""
    t = _check_finite("t", t)
    if not 0.0 < t < params.horizon:
        raise InputError(f"t must lie in (0, horizon), got {t}")
    gs, wphi = _density_weights(-_QUAD_RANGE, _QUAD_RANGE)
    p0 = bs_put(params, 0.0, params.spot)
    _, puts, _ = _position_values(params, t, gs, p0)
    return math.fsum(w * p for w, p in zip(wphi, puts))


def protective_put_check(
    params: BSParams, t: float, x_grid: Sequence[float] | None = None
) -> OrderVerdict:
    """Verify E[Z_t | X_t + Z_t <= x] >= -1e-9 across the x grid.

    Z_t = P_t - P_0 is the put's gain; the position X_t + Z_t is strictly
    increasing in the spot (checked numerically along with the put's
    monotonicity, to 1e-12), so each conditioning event is a lower tail of
    the normal generator and splits off a clean quadrature interval.  The
    intermediate inequality E[P_t] >= P_0 - 1e-9 is the whole-space case and
    is checked first.  Every tolerance is in units of max(spot, strike), so
    the verdict does not depend on the currency unit.  The default grid is
    101 points spanning 5 standard deviations of the position value around
    its mean.  Grid points below the reachable position range (their events
    have probability below 1e-15) are skipped.
    """
    t = _check_finite("t", t)
    if not 0.0 < t < params.horizon:
        raise InputError(f"t must lie in (0, horizon), got {t}")
    p0 = bs_put(params, 0.0, params.spot)
    unit = max(params.spot, params.strike)
    tol = _PUT_TOL * unit
    gs, wphi = _density_weights(-_QUAD_RANGE, _QUAD_RANGE)
    spots, puts, positions = _position_values(params, t, gs, p0)
    for name, values, sign in (("put", puts, 1), ("position", positions, -1)):
        if any(sign * (b - a) > 1e-12 * unit for a, b in zip(values, values[1:])):
            direction = "decreasing" if sign > 0 else "increasing"
            raise InternalError(
                f"{name} value is not {direction} in the spot",
                routes={"spots": spots, name + "s": values},
                inputs=(params, t),
            )
    mean_put = math.fsum(w * p for w, p in zip(wphi, puts))
    gain_full = mean_put - p0
    if gain_full < -tol:
        return OrderVerdict(False, Witness("threshold_x", positions[-1], gain_full, 0.0))

    if x_grid is None:
        mean_pos = math.fsum(w * x for w, x in zip(wphi, positions))
        var_pos = math.fsum(w * (x * x) for w, x in zip(wphi, positions)) - mean_pos**2
        sd = math.sqrt(max(var_pos, 0.0))
        xs = [mean_pos + sd * (-5.0 + 10.0 * k / 100.0) for k in range(101)]
    else:
        xs = sorted(_check_finite("x grid point", x) for x in x_grid)
        if not xs:
            raise InputError("x grid must be non-empty")

    def position_at(g: float) -> float:
        return _position_values(params, t, [g], p0)[2][0]

    for x in xs:
        if x < positions[0]:
            continue  # event probability below quadrature resolution
        if x >= positions[-1]:
            g_hi = _QUAD_RANGE
        else:
            g_hi = bisection(lambda g: position_at(g) <= x, -_QUAD_RANGE, _QUAD_RANGE, 1e-12)
        sub_g, sub_wphi = _density_weights(-_QUAD_RANGE, g_hi)
        _, sub_puts, _ = _position_values(params, t, sub_g, p0)
        num = math.fsum(w * (p - p0) for w, p in zip(sub_wphi, sub_puts))
        den = math.fsum(sub_wphi)
        cond = num / den
        if cond < -tol:
            return OrderVerdict(False, Witness("threshold_x", x, cond, 0.0))
    return OrderVerdict(True, None)
