"""Worked verification cases on top of the checkers.

Gaussian and Bernoulli dependence-region tables, stochastic-improver
membership, comonotone equivalence of the two improver notions, marketability
of indemnity schedules, indifference premiums, stop-loss dominance reports,
and the protective-put conditional-drift verification under zero-rate
Black-Scholes dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .conditions import _Groups, cond_classic, cond_icx, cond_new, is_comonotone, tail_condition
from .dists import (
    DiscreteDist,
    Dist,
    Exponential,
    InputError,
    InternalError,
    IrrelevantThresholdError,
    JointDist,
    Normal,
    PointMass,
    RationalLike,
    UnsupportedPairingError,
    as_fraction,
    as_integers,
    joint_marginal_w,
    joint_sum,
    lower_tail_mean,
    mean,
    norm_cdf,
    norm_pdf,
    normalize_joint,
    rescale,
)
from .orders import OrderVerdict, Witness, check_ssd
from .risk import stop_loss_transform

if TYPE_CHECKING:
    import numpy as np  # the numeric routes import it when they run

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
    "comonotone_improver_equivalence",
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


def _check_real(name: str, x: object) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"{name} must be a real number, got {x!r}")
    xf = float(x)
    if not math.isfinite(xf):
        raise InputError(f"{name} must be finite, got {xf}")
    return xf


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
        object.__setattr__(self, "mu_z", _check_real("mu_z", self.mu_z))
        object.__setattr__(self, "sigma_z", _check_real("sigma_z", self.sigma_z))
        object.__setattr__(self, "rho", _check_real("rho", self.rho))
        if self.sigma_z <= 0:
            raise InputError(f"sigma_z must be positive, got {self.sigma_z}")
        if not -1.0 <= self.rho <= 1.0:
            raise InputError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class RegionFlags:
    ssd: bool
    cond_new: bool
    cond_classic: bool

    def as_dict(self) -> dict[str, bool]:
        return {"ssd": self.ssd, "cond_new": self.cond_new, "cond_classic": self.cond_classic}


_COND_GRID_LO = -8.0
_COND_GRID_HI = 8.0
_COND_GRID_STEP = 0.01
_COND_TOL = 1e-8
_CROSS_CHECK_MARGIN = 1e-6

_mills_cache: tuple[np.ndarray, np.ndarray] | None = None


def _mills_grid() -> tuple[np.ndarray, np.ndarray]:
    """Standard normal lower tail mean E[W | W <= x] tabulated on the x-grid."""
    global _mills_cache
    if _mills_cache is None:
        import numpy as np

        n = round((_COND_GRID_HI - _COND_GRID_LO) / _COND_GRID_STEP) + 1
        xs = np.linspace(_COND_GRID_LO, _COND_GRID_HI, n)
        std = Normal(0.0, 1.0)
        ms = np.array([lower_tail_mean(std, float(x)) for x in xs])
        _mills_cache = (xs, ms)
    return _mills_cache


def gaussian_cond_new_numeric(case: GaussianCase, tol: float = _COND_TOL) -> bool:
    """Numeric route for the lower-tail condition E[Z | W <= x] <= 0.

    E[Z | W <= x] = mu_z + rho*sigma_z*E[W | W <= x]; the sup over the grid
    [-8, 8] is combined with the two limit facts: the conditional mean tends
    to mu_z as x -> +inf, and E[W | W <= x] is unbounded below as x -> -inf,
    so any rho < 0 blows the expression up on the far left.
    """
    import numpy as np

    _, ms = _mills_grid()
    sup = float(np.max(case.mu_z + case.rho * case.sigma_z * ms))
    return sup <= tol and case.mu_z <= tol and case.rho >= -tol


def gaussian_ssd_check(case: GaussianCase) -> bool:
    """Parametric route for W + Z <=ssd W via the Normal order criterion."""
    var_sum = 1.0 + 2.0 * case.rho * case.sigma_z + case.sigma_z**2
    if var_sum <= 0.0:
        # W + Z collapses to a point; an unbounded-below Normal never
        # dominates a constant at every level
        return False
    w = Normal(0.0, 1.0)
    total = Normal(case.mu_z, math.sqrt(var_sum))
    return check_ssd(w, total).holds


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
    cells = [
        (Fraction(0), -case.c, align),
        (Fraction(0), 1 - case.c, cross),
        (Fraction(1), -case.c, cross),
        (Fraction(1), 1 - case.c, align),
    ]
    if any(p < 0 for _, _, p in cells):
        raise InputError(f"cell masses must be nonnegative, got rho={case.rho}")
    return normalize_joint(cells)


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
    """

    in_s: bool
    in_n: bool


def improver_check(j: JointDist) -> ImproverFlags:
    marg = joint_marginal_w(j)
    total = joint_sum(j)
    in_s = check_ssd(total, marg).holds
    # anchor on the sum with the sign of Z flipped: E[-Z | X+Z <= x] <= 0
    f = j.ints
    in_n = _Groups(*f.combined(), [-z for z in f.z], f.VZ, f.p, f.D).first_failure("lower").holds
    return ImproverFlags(in_s=in_s, in_n=in_n)


def comonotone_improver_equivalence(j: JointDist) -> bool:
    """For comonotone (X, X+Z), the two improver notions must coincide.

    Requires comonotonicity of the (x, x+z) support; returns whether the two
    memberships agree.  A False return is a genuine counterexample to the
    equivalence, which the test suite treats as failure.
    """
    if not is_comonotone((w, w + z, p) for w, z, p in j.atoms):
        raise InputError("equivalence check requires a comonotone (X, X+Z) pair")
    flags = improver_check(j)
    return flags.in_s == flags.in_n


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

    Knots must start at (0, 0) with strictly increasing x and 0 <= y <= x;
    by linearity that bounds every intermediate point too, and the final
    slope must lie in [0, 1] so the extension stays within [0, x].
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        knots = tuple((as_fraction(x), as_fraction(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
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
    if kind == "fixed":
        return FixedIndemnity(as_fraction(obj.get("threshold")), as_fraction(obj.get("amount")))
    if kind == "stop_loss":
        return StopLossIndemnity(as_fraction(obj.get("deductible")))
    if kind == "piecewise":
        knots = obj.get("knots")
        if not isinstance(knots, list):
            raise InputError("piecewise indemnity needs a 'knots' list")
        pairs = []
        for k in knots:
            if not isinstance(k, (list, tuple)) or len(k) != 2:
                raise InputError(f"knot must be a [x, y] pair, got {k!r}")
            pairs.append((as_fraction(k[0]), as_fraction(k[1])))
        return PiecewiseIndemnity(tuple(pairs))
    raise InputError(f"unknown indemnity kind {kind!r}")


def indemnity_to_json(i: IndemnitySchedule) -> dict:
    from .dists import rational_to_json as r2j

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

    Exact for discrete losses.  For an exponential loss the fixed and
    stop-loss schedules admit closed forms; other pairings are rejected.
    """
    if isinstance(x_dist, DiscreteDist):
        xf = as_fraction(x)
        num = _ZERO
        den = _ZERO
        for v, p in x_dist.atoms:
            if v < 0:
                raise InputError("loss distribution must be nonnegative")
            iv = indemnity_value(i, v)
            if v - iv >= xf:
                num += iv * p
                den += p
        if den == 0:
            raise IrrelevantThresholdError(f"P(X - I(X) >= {xf}) = 0")
        return num / den
    if isinstance(x_dist, Exponential):
        lam = x_dist.rate
        xv = float(as_fraction(x)) if not isinstance(x, float) else x
        if isinstance(i, FixedIndemnity):
            u = float(i.threshold)
            a = float(i.amount)
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
            d = float(i.deductible)
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


def _expected_indemnity(i: IndemnitySchedule, x_dist: Dist) -> Fraction | float:
    if isinstance(x_dist, DiscreteDist):
        return sum((indemnity_value(i, v) * p for v, p in x_dist.atoms), _ZERO)
    assert isinstance(x_dist, Exponential)
    lam = x_dist.rate
    if isinstance(i, FixedIndemnity):
        return float(i.amount) * math.exp(-lam * float(i.threshold))
    if isinstance(i, StopLossIndemnity):
        return math.exp(-lam * float(i.deductible)) / lam
    raise UnsupportedPairingError("unsupported schedule for exponential losses")


def marketable_check(
    i: IndemnitySchedule, x_dist: Dist, p0: RationalLike
) -> OrderVerdict:
    """Whether E[I(X) | X - I(X) >= x] >= P0 at every relevant x.

    Discrete losses check exactly at the atoms of the retained loss, in one
    upper-tail pass of tail_condition over (X - I(X), I(X) - P0).  For an
    exponential loss with a fixed or stop-loss schedule the conditional mean
    is nondecreasing in x (the payout event only gains relative weight), so
    its infimum is the unconditional expected indemnity, compared against P0
    with a 1e-9 float cushion.  A premium above E[I(X)] can never satisfy
    the condition everywhere and triggers a warning before the verdict.
    """
    p0f = as_fraction(p0)
    if p0f < 0:
        raise InputError(f"premium must be nonnegative, got {p0f}")
    if not isinstance(x_dist, (DiscreteDist, Exponential)):
        raise UnsupportedPairingError(
            f"marketability needs a discrete or exponential loss, "
            f"got {type(x_dist).__name__}"
        )
    expected = _expected_indemnity(i, x_dist)
    if isinstance(x_dist, DiscreteDist):
        if p0f > expected:
            warnings.warn(
                "premium exceeds the expected indemnity; the marketability "
                "condition cannot hold at every threshold",
                stacklevel=2,
            )
        # a negative loss has already raised in indemnity_value
        # E[I(X) - P0 | R >= x] >= 0 over the retained losses R = X - I(X)
        ivals = [indemnity_value(i, v) for v, _ in x_dist.atoms]
        verdict = tail_condition(
            ((v - iv, iv - p0f, p) for (v, p), iv in zip(x_dist.atoms, ivals)), "upper"
        )
        if verdict.holds:
            return verdict
        w = verdict.witness
        return OrderVerdict(False, Witness("threshold_x", w.value, w.lhs + p0f, p0f))
    inf_value = float(expected)
    p0v = float(p0f)
    if p0v > inf_value:
        warnings.warn(
            "premium exceeds the expected indemnity; the marketability "
            "condition cannot hold at every threshold",
            stacklevel=2,
        )
    if inf_value >= p0v - _MARKET_TOL:
        return OrderVerdict(True, None)
    return OrderVerdict(False, Witness("threshold_x", 0.0, inf_value, p0v))


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
        a = _check_real("aversion", self.aversion)
        object.__setattr__(self, "aversion", a)
        if a <= 0:
            raise InputError(f"aversion must be positive, got {a}")


@dataclass(frozen=True)
class PowerUtility:
    gamma: float

    def __post_init__(self) -> None:
        g = _check_real("gamma", self.gamma)
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


def _utility_value(u: Utility, t: float) -> float:
    if isinstance(u, LinearUtility):
        return t
    if isinstance(u, ExponentialUtility):
        # saturate deep in the loss tail instead of overflowing
        return -math.exp(min(-u.aversion * t, 700.0))
    if isinstance(u, PowerUtility):
        if t < 0.0:
            return -math.inf
        return t**u.gamma
    raise InputError(f"unknown utility {u!r}")


def indifference_premium(
    u: Utility, wealth: RationalLike, x_dist: DiscreteDist, i: IndemnitySchedule
) -> Fraction | float:
    """The premium P* solving E[u(w - X + I(X) - P)] = E[u(w - X)].

    The left side is strictly decreasing in P, P = 0 over-shoots (I >= 0)
    and P = max I(X) under-shoots, so [0, max I] brackets the unique root;
    bisection refines to 1e-10.  Linear utility returns the exact expected
    indemnity.  Power utility requires w - X >= 0 on the support; premiums
    that push an outcome below zero wealth count as infinitely bad.
    """
    if not isinstance(x_dist, DiscreteDist):
        raise InputError("indifference premiums are defined for discrete losses")
    ivals = [indemnity_value(i, v) for v, _ in x_dist.atoms]
    if isinstance(u, LinearUtility):
        return sum((iv * p for iv, (_, p) in zip(ivals, x_dist.atoms)), _ZERO)
    w = float(as_fraction(wealth))
    xs = [float(v) for v, _ in x_dist.atoms]
    ps = [float(p) for _, p in x_dist.atoms]
    ivs = [float(iv) for iv in ivals]
    if isinstance(u, PowerUtility):
        if any(w - x < 0 for x in xs):
            raise InputError("power utility needs w - X >= 0 on the whole support")
    baseline = sum(p * _utility_value(u, w - x) for x, p in zip(xs, ps))

    def gap(premium: float) -> float:
        val = sum(
            p * _utility_value(u, w - x + iv - premium)
            for x, p, iv in zip(xs, ps, ivs)
        )
        return val - baseline

    hi = max(ivs)
    if hi == 0.0:
        return 0.0
    lo = 0.0
    if gap(lo) < 0.0 or gap(hi) > 0.0:
        raise InputError("bracket expansion failure: no root in [0, max I(X)]")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def stop_loss_compare(
    j: JointDist, deductibles: Iterable[RationalLike] | None = None
) -> StopLossComparison:
    """Compare stop-loss curves of X and X + Z for a joint law of (X, Z).

    The default deductible grid is 0 and every nonnegative atom of X or of
    X + Z, where both curves have all their knots.  The cells are read over
    integers from the joint's cached form (w, z and the deductibles moved
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
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
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
    t = _check_real("t", t)
    spot_t = _check_real("spot_t", spot_t)
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

_leg_cache: tuple[np.ndarray, np.ndarray] | None = None


def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    global _leg_cache
    if _leg_cache is None:
        import numpy as np

        _leg_cache = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return _leg_cache


def _gauss_nodes(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [lo, hi]."""
    xs, ws = _leggauss()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * xs, half * ws


def _position_values(
    params: BSParams, t: float, gs: np.ndarray, p0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spot, put, position) at time t on standard normal generator values."""
    import numpy as np

    growth = (params.drift - 0.5 * params.sigma**2) * t
    vol = params.sigma * math.sqrt(t)
    spots = params.spot * np.exp(growth + vol * gs)
    puts = np.array([bs_put(params, t, float(s)) for s in spots])
    positions = spots + puts - p0
    return spots, puts, positions


def expected_put_value(params: BSParams, t: float) -> float:
    """E[P_t] under the real-world lognormal law, 200-node quadrature."""
    t = _check_real("t", t)
    if not 0.0 < t < params.horizon:
        raise InputError(f"t must lie in (0, horizon), got {t}")
    import numpy as np

    gs, ws = _gauss_nodes(-_QUAD_RANGE, _QUAD_RANGE)
    p0 = bs_put(params, 0.0, params.spot)
    _, puts, _ = _position_values(params, t, gs, p0)
    dens = np.array([norm_pdf(float(g)) for g in gs])
    return float(np.sum(ws * dens * puts))


def protective_put_check(
    params: BSParams, t: float, x_grid: Sequence[float] | None = None
) -> OrderVerdict:
    """Verify E[Z_t | X_t + Z_t <= x] >= -1e-9 across the x grid.

    Z_t = P_t - P_0 is the put's gain; the position X_t + Z_t is strictly
    increasing in the spot (checked numerically along with the put's
    monotonicity), so each conditioning event is a lower tail of the normal
    generator and splits off a clean quadrature interval.  The intermediate
    inequality E[P_t] >= P_0 - 1e-9 is the whole-space case and is checked
    first.  The default grid is 101 points spanning 5 standard deviations
    of the position value around its mean.  Grid points below the reachable
    position range (their events have probability below 1e-15) are skipped.
    """
    t = _check_real("t", t)
    if not 0.0 < t < params.horizon:
        raise InputError(f"t must lie in (0, horizon), got {t}")
    import numpy as np

    p0 = bs_put(params, 0.0, params.spot)
    gs, ws = _gauss_nodes(-_QUAD_RANGE, _QUAD_RANGE)
    spots, puts, positions = _position_values(params, t, gs, p0)
    for name, values, sign in (("put", puts, 1), ("position", positions, -1)):
        if np.any(sign * np.diff(values) > 1e-12):
            direction = "decreasing" if sign > 0 else "increasing"
            raise InternalError(
                f"{name} value is not {direction} in the spot",
                routes={"spots": spots.tolist(), name + "s": values.tolist()},
                inputs=(params, t),
            )
    dens = np.array([norm_pdf(float(g)) for g in gs])
    wphi = ws * dens
    mean_put = float(np.sum(wphi * puts))
    gain_full = mean_put - p0
    if gain_full < -_PUT_TOL:
        return OrderVerdict(
            False, Witness("threshold_x", float(positions[-1]), gain_full, 0.0)
        )

    if x_grid is None:
        mean_pos = float(np.sum(wphi * positions))
        var_pos = float(np.sum(wphi * positions**2)) - mean_pos**2
        sd = math.sqrt(max(var_pos, 0.0))
        xs = [mean_pos + sd * (-5.0 + 10.0 * k / 100.0) for k in range(101)]
    else:
        xs = sorted(float(x) for x in x_grid)
        if not xs:
            raise InputError("x grid must be non-empty")

    def position_at(g: float) -> float:
        s = params.spot * math.exp(
            (params.drift - 0.5 * params.sigma**2) * t
            + params.sigma * math.sqrt(t) * g
        )
        return s + bs_put(params, t, s) - p0

    lo_pos = float(positions[0])
    hi_pos = float(positions[-1])
    for x in xs:
        if x < lo_pos:
            continue  # event probability below quadrature resolution
        if x >= hi_pos:
            g_hi = _QUAD_RANGE
        else:
            a, b = -_QUAD_RANGE, _QUAD_RANGE
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                if position_at(mid) <= x:
                    a = mid
                else:
                    b = mid
            g_hi = 0.5 * (a + b)
        sub_g, sub_w = _gauss_nodes(-_QUAD_RANGE, g_hi)
        sub_dens = np.array([norm_pdf(float(g)) for g in sub_g])
        _, sub_puts, _ = _position_values(params, t, sub_g, p0)
        num = float(np.sum(sub_w * sub_dens * (sub_puts - p0)))
        den = float(np.sum(sub_w * sub_dens))
        cond = num / den
        if cond < -_PUT_TOL:
            return OrderVerdict(False, Witness("threshold_x", x, cond, 0.0))
    return OrderVerdict(True, None)
