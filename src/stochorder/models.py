"""Worked cases that need no order walk: closed forms and float routes.

The Gaussian dependence region, indemnity schedules with their codecs and
conditional indemnity means, utilities and indifference premiums, and the
protective put under zero-rate Black-Scholes dynamics.  Nothing here calls
conditions or the order walks: the module imports dists and the verdict
types of orders alone, so a command-line process that runs one of these
(table gaussian, premium, protective-put) loads neither conditions nor
apps, which builds the exact checks (Bernoulli region, improvers,
marketability, stop-loss dominance) on top of this module.

E[I(X)] is conditional_indemnity_mean at x = 0.  The exponential-utility
premium is the closed form (K(X) - K(X - I)) / a, K(Y) = log E[exp(a Y)];
the power utility's is a bisection.  The protective put is two closed
forms: E[P_t] is one Black-Scholes price, and the conditional drift
condition is decided by the drift's sign; its tolerance is in units of
max(spot, strike).  Float routes round rationals with dists._real, so one
beyond binary64 is an InputError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .dists import (
    Dist,
    Exponential,
    InputError,
    InternalError,
    IrrelevantThresholdError,
    RationalLike,
    UnsupportedPairingError,
    _check_finite,
    _real,
    _Record,
    as_discrete,
    as_fraction,
    bisection,
    norm_cdf,
    norm_pdf,
    rational_to_json as r2j,
)
from .orders import OrderVerdict, Witness

__all__ = [
    "GaussianCase",
    "RegionFlags",
    "gaussian_cond_new_numeric",
    "gaussian_ssd_check",
    "gaussian_region",
    "FixedIndemnity",
    "StopLossIndemnity",
    "PiecewiseIndemnity",
    "IndemnitySchedule",
    "indemnity_value",
    "indemnity_from_json",
    "indemnity_to_json",
    "conditional_indemnity_mean",
    "LinearUtility",
    "ExponentialUtility",
    "PowerUtility",
    "Utility",
    "utility_from_spec",
    "indifference_premium",
    "BSParams",
    "bs_put",
    "expected_put_value",
    "protective_put_check",
]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Gaussian dependence region
# ---------------------------------------------------------------------------


class GaussianCase(_Record):
    """Jointly Gaussian (W, Z) with W standardized to N(0, 1)."""

    mu_z: float
    sigma_z: float
    rho: float

    def __init__(self, mu_z: float, sigma_z: float, rho: float) -> None:
        object.__setattr__(self, "mu_z", _check_finite("mu_z", mu_z))
        object.__setattr__(self, "sigma_z", _check_finite("sigma_z", sigma_z))
        object.__setattr__(self, "rho", _check_finite("rho", rho))
        if self.sigma_z <= 0:
            raise InputError(f"sigma_z must be positive, got {self.sigma_z}")
        if not -1.0 <= self.rho <= 1.0:
            raise InputError(f"rho must lie in [-1, 1], got {self.rho}")


class RegionFlags(_Record):
    """One region-table case: whether W + Z <=ssd W, and the two conditions."""

    ssd: bool
    cond_new: bool
    cond_classic: bool

    def __init__(self, ssd: bool, cond_new: bool, cond_classic: bool) -> None:
        object.__setattr__(self, "ssd", ssd)
        object.__setattr__(self, "cond_new", cond_new)
        object.__setattr__(self, "cond_classic", cond_classic)


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
# Indemnity schedules
# ---------------------------------------------------------------------------


class FixedIndemnity(_Record):
    """Pays a flat amount once the loss reaches the threshold."""

    threshold: Fraction
    amount: Fraction

    def __init__(self, threshold: RationalLike, amount: RationalLike) -> None:
        object.__setattr__(self, "threshold", as_fraction(threshold))
        object.__setattr__(self, "amount", as_fraction(amount))
        if self.threshold <= 0:
            raise InputError("threshold must be positive")
        if not 0 <= self.amount <= self.threshold:
            raise InputError(
                "amount must lie in [0, threshold] so that 0 <= I(x) <= x"
            )


class StopLossIndemnity(_Record):
    """Pays the excess of the loss over a deductible."""

    deductible: Fraction

    def __init__(self, deductible: RationalLike) -> None:
        object.__setattr__(self, "deductible", as_fraction(deductible))
        if self.deductible < 0:
            raise InputError("deductible must be nonnegative")


class PiecewiseIndemnity(_Record):
    """Piecewise-linear schedule through knots, extended by the last slope.

    Knots are [x, y] pairs of rationals, from (0, 0) with strictly
    increasing x and 0 <= y <= x; by linearity that bounds every
    intermediate point too, and the final slope must lie in [0, 1] so the
    extension stays within [0, x].
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, knots: Sequence[Sequence[RationalLike]]) -> None:
        if not isinstance(knots, Sequence):
            raise InputError(f"knots must be a sequence of [x, y] pairs, got {knots!r}")
        pairs = []
        for k in knots:
            if not isinstance(k, (list, tuple)) or len(k) != 2:
                raise InputError(f"knot must be a [x, y] pair, got {k!r}")
            pairs.append((as_fraction(k[0]), as_fraction(k[1])))
        knots = tuple(pairs)
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
        # the first segment reaching x; past the last knot, the last
        # segment's line is the extension
        for (x0, y0), (x1, y1) in zip(i.knots, i.knots[1:]):
            if xf <= x1:
                break
        return y0 + (y1 - y0) / (x1 - x0) * (xf - x0)
    raise InputError(f"unknown indemnity schedule {i!r}")


def indemnity_from_json(obj: object) -> IndemnitySchedule:
    """Parse {"kind": "fixed"|"stop_loss"|"piecewise", ...}; see README."""
    if not isinstance(obj, dict):
        raise InputError("indemnity JSON must be an object")
    kind = obj.get("kind")
    kinds = {"fixed": FixedIndemnity, "stop_loss": StopLossIndemnity}
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is not None:
        for name in cls._fields:
            if name not in obj:
                raise InputError(f"missing parameter {name!r}")
        return cls(*(obj[name] for name in cls._fields))
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



# ---------------------------------------------------------------------------
# Indifference premiums
# ---------------------------------------------------------------------------


class LinearUtility(_Record):
    """u(t) = t: the indifference premium is the expected indemnity."""

    def __init__(self) -> None:
        pass


class ExponentialUtility(_Record):
    """u(t) = -exp(-a t) with a = aversion > 0 (constant absolute risk aversion)."""

    aversion: float

    def __init__(self, aversion: float) -> None:
        a = _check_finite("aversion", aversion)
        object.__setattr__(self, "aversion", a)
        if a <= 0:
            raise InputError(f"aversion must be positive, got {a}")


class PowerUtility(_Record):
    """u(t) = t**gamma for t >= 0, with 0 < gamma < 1."""

    gamma: float

    def __init__(self, gamma: float) -> None:
        g = _check_finite("gamma", gamma)
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
# Protective put under zero-rate Black-Scholes dynamics
# ---------------------------------------------------------------------------


class BSParams(_Record):
    """Zero-interest-rate model; the asset grows at a nonpositive real drift."""

    spot: float
    strike: float
    sigma: float
    drift: float
    horizon: float

    def __init__(self, spot: float, strike: float, sigma: float, drift: float,
                 horizon: float) -> None:
        object.__setattr__(self, "spot", _check_finite("spot", spot))
        object.__setattr__(self, "strike", _check_finite("strike", strike))
        object.__setattr__(self, "sigma", _check_finite("sigma", sigma))
        object.__setattr__(self, "drift", _check_finite("drift", drift))
        object.__setattr__(self, "horizon", _check_finite("horizon", horizon))
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


_PUT_TOL = 1e-9


def expected_put_value(params: BSParams, t: float) -> float:
    """E[P_t] under the real-world law: the put at time 0 on spot S e^{mu t}
    with the whole horizon T.

    At zero rate P_t is a risk-neutral expectation given S_t: the mean of
    (K - S_t exp(sigma B - sigma^2 (T - t) / 2))^+ over B ~ N(0, T - t).  Under
    the real-world law S_t = S e^{mu t} exp(sigma W - sigma^2 t / 2) with
    W ~ N(0, t) independent of B, so E[P_t] is the mean of
    (K - S e^{mu t} exp(sigma (W + B) - sigma^2 T / 2))^+ with W + B ~ N(0, T):
    the zero-rate put price at time 0 on spot S e^{mu t}.
    """
    t = _check_finite("t", t)
    if not 0.0 < t < params.horizon:
        raise InputError(f"t must lie in (0, horizon), got {t}")
    return bs_put(params, 0.0, params.spot * math.exp(params.drift * t))


def protective_put_check(
    params: BSParams, t: float, x_grid: Sequence[float] | None = None
) -> OrderVerdict:
    """Whether E[Z_t | X_t + Z_t <= x] >= 0 at every x, for the put's gain
    Z_t = P_t - P_0 and the spot X_t = S_t.

    The put's delta lies in (-1, 0), so Z_t decreases in S_t and the position
    S_t + P_t increases in it: each event {X_t + Z_t <= x} is a lower tail
    {S_t <= s} of the spot.  A decreasing function and the indicator of a
    lower tail are both decreasing in S_t, so by Chebyshev's association
    inequality E[Z_t 1{S_t <= s}] >= E[Z_t] P(S_t <= s): the mean of Z_t over
    a lower tail is at least its mean over the whole space.  So the condition
    holds at every x iff E[Z_t] >= 0, that is iff the put at spot S e^{mu t}
    is worth at least the put at S (expected_put_value), and, the put
    decreasing in the spot, iff mu <= 0, which BSParams requires.  The verdict
    is that theorem, at every x and so at every point of x_grid (finite
    points, non-empty, validated).  It is cross-checked against the closed
    form's sign: E[P_t] - P_0 >= -1e-9 max(spot, strike) must agree with
    mu <= 0, or InternalError names both routes.  A failing verdict's witness
    is the whole space (x = +inf) with E[Z_t] against 0.
    """
    t = _check_finite("t", t)
    if x_grid is not None and not [_check_finite("x grid point", x) for x in x_grid]:
        raise InputError("x grid must be non-empty")
    gain = expected_put_value(params, t) - bs_put(params, 0.0, params.spot)
    theorem = params.drift <= 0.0
    closed_form = gain >= -_PUT_TOL * max(params.spot, params.strike)
    if theorem != closed_form:
        raise InternalError(
            f"the drift's sign and the closed-form mean of the put's gain disagree at t={t}",
            routes={"drift_theorem": theorem, "closed_form_gain": gain},
            inputs=(params, t),
        )
    if theorem:
        return OrderVerdict(True)
    return OrderVerdict(False, Witness("threshold_x", math.inf, gain, 0.0))
