"""Decision procedures for stochastic orders, with checkable witnesses.

check_ssd(X, Y) decides X >=ssd Y (every risk-averse expected-utility agent
weakly prefers X), check_icx decides X >=icx Y (increasing convex), check_cx
decides X <=cx Y (convex order: Y is a mean-preserving spread of X), and
check_st decides X >=st Y (survival-function dominance).

Finite pairs are decided by one linear merge walk.  G_X(p), the integral of
the right quantile Q_X over (0, p), is piecewise linear with knots only at
the cumulative probabilities of X, so G_X - G_Y is linear between the levels
of the merged grid of both laws and is ordered on [0, 1] iff it is ordered
there: the grid is a complete finite test set (Dentcheva and Ruszczynski,
SIAM J. Optim. 2003; Mueller and Stoyan 2002, section 1.5).  ssd compares
G_X >= G_Y on the grid; icx compares E[X] - G_X >= E[Y] - G_Y below p = 1,
which is (1 - p) times the expected-shortfall gap; cx adds equal means to
ssd.  check_ssd also reads G_X(p) as E[X] - (1 - p) ES_p(X): the icx walk
over both laws' lists reversed sums (1 - p) ES_p from the top.  st reads the
same grid: X >=st Y iff Q_X >= Q_Y, and between two levels each quantile is
the one atom of its law that the walk names.  Each pair is read over
integers (values over the lcm V of all value denominators, probabilities
over the lcm D of all probability denominators): the integer form of each
law (DiscreteDist.ints) moves onto V and D with one multiply per atom, and
only a witness is turned back into exact Fractions; apps passes integer
laws of its own merges to the same ssd routes.  Normal pairs use
mean/deviation closed forms.  Every negative verdict carries a witness whose
lhs/rhs re-evaluate to the violation.

oracle_ssd and oracle_icx decide the same discrete relations through an
unrelated finite family of test functions (E[min(X, t)] and E[(X - t)+] over
the merged support), for cross-validation.  Each scales its pair itself
from the public Fraction atoms (values over one lcm, each law's
probabilities over the lcm of its own) and reads the integer stop-loss
transform, one suffix-sum pass per law (risk.stop_loss_transform); none of
the walks above is used.  They do not read the integer form: it is
derived state that the deciders trust, and a wrong form must not be able to
fool both routes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence, Union

from .dists import (
    DiscreteDist,
    Dist,
    InternalError,
    LawInts,
    Normal,
    UnsupportedPairingError,
    as_discrete,
    as_integers,
    norm_cdf,
    norm_pdf,
    rescale,
)
from .risk import stop_loss_transform

__all__ = [
    "Witness",
    "OrderVerdict",
    "check_ssd",
    "check_icx",
    "check_cx",
    "check_st",
    "oracle_ssd",
    "oracle_icx",
]

Number = Union[Fraction, float]

WITNESS_KINDS = ("level_p", "threshold_x", "angle_t")


@dataclass(frozen=True)
class Witness:
    """One point at which the claimed inequality is violated.

    kind "level_p":     value is a probability level; lhs/rhs are the two
                        sides of the level comparison (expected shortfall for
                        icx, integrated lower quantile for ssd/cx).
    kind "threshold_x": value is a point on the real line; lhs/rhs are
                        survival probabilities or conditional expectations.
    kind "angle_t":     value is a test-function parameter; lhs/rhs are
                        E[min(., t)] or stop-loss values.
    """

    kind: str
    value: Number
    lhs: Number
    rhs: Number

    def __post_init__(self) -> None:
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


_HOLDS = OrderVerdict(True, None)


def _fails(kind: str, value: Number, lhs: Number, rhs: Number) -> OrderVerdict:
    return OrderVerdict(False, Witness(kind, value, lhs, rhs))


def _decide(
    op: str,
    x: Dist,
    y: Dist,
    finite: Callable[[DiscreteDist, DiscreteDist], OrderVerdict],
    normal: Callable[[Normal, Normal], OrderVerdict],
) -> OrderVerdict:
    """Run the exact route on a finite-support pair, the closed form on a Normal pair."""
    dx, dy = as_discrete(x), as_discrete(y)
    if dx is not None and dy is not None:
        return finite(dx, dy)
    if isinstance(x, Normal) and isinstance(y, Normal):
        return normal(x, y)
    raise UnsupportedPairingError(
        f"{op} is defined for finite-support pairs and Normal/Normal pairs; "
        f"got {type(x).__name__} vs {type(y).__name__} (discretize first)"
    )


# ---------------------------------------------------------------------------
# Integer merge walks over a scaled finite pair
# ---------------------------------------------------------------------------

# a law as integer sequences (values, weights): value k is values[k] / V and
# its probability weights[k] / D, with V and D shared by both laws of a pair
_IntLaw = tuple[Sequence[int], Sequence[int]]


def _scale(fx: LawInts, fy: LawInts) -> tuple[_IntLaw, _IntLaw, int, int]:
    """Two integer forms (DiscreteDist.ints, or a merge's over any V and D) over
    the lcms V and D of their value and probability scales."""
    V, D = math.lcm(fx.V, fy.V), math.lcm(fx.D, fy.D)
    return ((rescale(fx.values, V // fx.V), rescale(fx.weights, D // fx.D)),
            (rescale(fy.values, V // fy.V), rescale(fy.weights, D // fy.D)), V, D)


def _mean(x: _IntLaw) -> int:
    return sum(map(mul, *x))


def _walk(x: _IntLaw, y: _IntLaw) -> Iterator[tuple[int, int, int, int, int]]:
    """(P, i, j, G_X, G_Y) at every merged cumulative level P, ascending,
    ending at D; atom i of X and atom j of Y hold the mass just below P.

    G is the integrated lower quantile in units of 1 / (V D): the sum of
    value times weight over the lowest mass P.
    """
    (xv, xw), (yv, yw) = x, y
    i = j = p = gx = gy = 0
    cx, cy, last = xw[0], yw[0], len(xv) - 1
    while True:
        nxt = cx if cx < cy else cy
        step, p = nxt - p, nxt
        gx += xv[i] * step
        gy += yv[j] * step
        yield p, i, j, gx, gy
        if cx == p:
            if i == last:
                return  # both laws end at P = D
            i += 1
            cx += xw[i]
        if cy == p:
            j += 1
            cy += yw[j]


def _ssd_walk(x: _IntLaw, y: _IntLaw, V: int, D: int) -> OrderVerdict:
    """X >=ssd Y: G_X >= G_Y at every merged level (p = 1 compares the means)."""
    for p, _, _, gx, gy in _walk(x, y):
        if gx < gy:
            return _fails("level_p", Fraction(p, D), Fraction(gx, V * D), Fraction(gy, V * D))
    return _HOLDS


def _icx_walk(x: _IntLaw, y: _IntLaw, V: int, D: int) -> OrderVerdict:
    """X >=icx Y: the same walk down from the means, at the levels below p = 1
    (at p = 1 both sides are 0)."""
    mx, my = _mean(x), _mean(y)
    if mx < my:
        return _fails("level_p", Fraction(0), Fraction(mx, V * D), Fraction(my, V * D))
    for p, _, _, gx, gy in _walk(x, y):
        if mx - gx < my - gy:
            s = V * (D - p)
            return _fails("level_p", Fraction(p, D), Fraction(mx - gx, s), Fraction(my - gy, s))
    return _HOLDS


def _ssd_exact(
    inputs: Callable[[], object], x: _IntLaw, y: _IntLaw, V: int, D: int
) -> OrderVerdict:
    """Both exact ssd routes, which must agree: integrated lower quantiles, and
    the icx walk over both laws' lists reversed, which sums (1 - p) ES_p from
    the top and compares E[X] - (1 - p) ES_p(X) >= E[Y] - (1 - p) ES_p(Y).
    A disagreement reports inputs(), built on that path only."""
    verdict = _ssd_walk(x, y, V, D)
    dual = _icx_walk(*((v[::-1], w[::-1]) for v, w in (x, y)), V, D)
    if dual.holds != verdict.holds:
        raise InternalError(
            "ssd decision routes disagree",
            {"integrated_quantiles": verdict, "shortfall_from_top": dual},
            inputs(),
        )
    return verdict


def _st_walk(x: _IntLaw, y: _IntLaw, V: int, D: int) -> OrderVerdict:
    """X >=st Y: Q_X >= Q_Y on every stretch of the merged grid.  Where that
    first fails, t = Q_X is the least t with P(X <= t) > P(Y <= t)."""
    (xv, xw), (yv, yw) = x, y
    for _, i, j, _, _ in _walk(x, y):
        if xv[i] < yv[j]:
            return _fails("threshold_x", Fraction(xv[i], V),
                          Fraction(D - sum(xw[:i + 1]), D), Fraction(D - sum(yw[:j]), D))
    return _HOLDS


# ---------------------------------------------------------------------------
# The four deciders
# ---------------------------------------------------------------------------


def check_icx(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X >=icx Y, i.e. ES_p(X) >= ES_p(Y) for every p in [0, 1)."""
    return _decide("icx order check", x, y,
                   lambda dx, dy: _icx_walk(*_scale(dx.ints, dy.ints)), _icx_normal)


def _icx_normal(nx: Normal, ny: Normal) -> OrderVerdict:
    if nx.mu >= ny.mu and nx.sigma >= ny.sigma:
        return _HOLDS
    if nx.mu < ny.mu:
        return _fails("level_p", 0.0, nx.mu, ny.mu)
    return OrderVerdict(False, _normal_tail_witness(nx, ny))


def _normal_tail_witness(nx: Normal, ny: Normal) -> Witness:
    """Stop-loss witness for a Normal pair with mu_x >= mu_y but sigma_x < sigma_y.

    The gap flips deep in the upper tail; scan outward until the flip is
    visible in binary64.  Beyond ~37 deviations both premiums underflow, in
    which case no float witness exists and we fail loudly.
    """
    steps = [0.25 * k for k in range(1, 153)]
    for zstep in steps:
        t = ny.mu + zstep * ny.sigma
        lhs, rhs = nx.stop_loss(t), ny.stop_loss(t)
        if lhs < rhs:
            return Witness("angle_t", t, lhs, rhs)
    raise InternalError(
        "icx violation exists but lies beyond binary64 tail resolution",
        {"closed_form": False, "tail_scan": None},
        (nx, ny),
    )


def check_ssd(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X >=ssd Y.

    Finite pairs run two independent exact routes and insist they agree:
    integrated lower quantiles on the merged grid, and
    E[X] - (1 - p) ES_p(X) >= E[Y] - (1 - p) ES_p(Y), summed from the top of
    both laws.  The witness reports the integrated lower quantile comparison
    at the first violating level (p = 1 compares the means).
    """
    return _decide("ssd order check", x, y,
                   lambda dx, dy: _ssd_exact(lambda: (dx, dy), *_scale(dx.ints, dy.ints)),
                   _ssd_normal)


def _ssd_normal(nx: Normal, ny: Normal) -> OrderVerdict:
    if nx.mu >= ny.mu and nx.sigma <= ny.sigma:
        return _HOLDS
    if nx.mu < ny.mu:
        # integrated quantile at p = 1 is the mean
        return _fails("level_p", 1.0, nx.mu, ny.mu)
    return OrderVerdict(False, _normal_lower_witness(nx, ny))


def _normal_lower_witness(nx: Normal, ny: Normal) -> Witness:
    """Integrated-quantile witness for mu_x >= mu_y but sigma_x > sigma_y.

    integral of Q over (0, p) for Normal(mu, sigma) equals mu*p - sigma*pdf(z_p);
    the violation sits at small p, where levels stay representable down to
    about 1e-300.
    """
    for zstep in [-0.25 * k for k in range(1, 153)]:
        p = norm_cdf(zstep)
        if p <= 0.0:
            break
        lhs = nx.mu * p - nx.sigma * norm_pdf(zstep)
        rhs = ny.mu * p - ny.sigma * norm_pdf(zstep)
        if lhs < rhs:
            return Witness("level_p", p, lhs, rhs)
    raise InternalError(
        "ssd violation exists but lies beyond binary64 tail resolution",
        {"closed_form": False, "tail_scan": None},
        (nx, ny),
    )


def check_cx(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X <=cx Y: equal means and X >=ssd Y (Y spreads X)."""
    return _decide("cx order check", x, y,
                   lambda dx, dy: _cx_exact(lambda: (dx, dy), *_scale(dx.ints, dy.ints)),
                   _cx_normal)


def _cx_exact(
    inputs: Callable[[], object], x: _IntLaw, y: _IntLaw, V: int, D: int
) -> OrderVerdict:
    mx, my = _mean(x), _mean(y)
    if mx != my:
        return _fails("level_p", Fraction(1), Fraction(mx, V * D), Fraction(my, V * D))
    return _ssd_exact(inputs, x, y, V, D)


def _cx_normal(nx: Normal, ny: Normal) -> OrderVerdict:
    if nx.mu != ny.mu:
        return _fails("level_p", 1.0, nx.mu, ny.mu)
    if nx.sigma <= ny.sigma:
        return _HOLDS
    return OrderVerdict(False, _normal_lower_witness(nx, ny))


def check_st(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X >=st Y: P(X > t) >= P(Y > t) for every t."""
    return _decide("st order check", x, y,
                   lambda dx, dy: _st_walk(*_scale(dx.ints, dy.ints)), _st_normal)


def _st_normal(nx: Normal, ny: Normal) -> OrderVerdict:
    if nx.sigma != ny.sigma:
        raise UnsupportedPairingError(
            "st order for Normal pairs needs equal sigma; discretize first"
        )
    if nx.mu >= ny.mu:
        return _HOLDS
    t = 0.5 * (nx.mu + ny.mu)
    sx = 1.0 - norm_cdf((t - nx.mu) / nx.sigma)
    sy = 1.0 - norm_cdf((t - ny.mu) / ny.sigma)
    return _fails("threshold_x", t, sx, sy)


# ---------------------------------------------------------------------------
# Independent oracles over finite test-function families
# ---------------------------------------------------------------------------


def _oracle_transforms(
    x: Dist, y: Dist, name: str
) -> tuple[list[int], int, list[tuple[int, list[int], int]]]:
    """The merged support of a finite pair and the stop-loss transform of
    each law on it, over integers: (ts, V, [(m, sl, S) for X, Y]).

    The values of both laws are scaled over one lcm V and merged, equal
    values kept once; each law's probabilities are scaled over the lcm D of
    its own, so E[X] = m / S and E[(X - t)+] = sl[k] / S with S = V D.
    """
    dx, dy = as_discrete(x), as_discrete(y)
    if dx is None or dy is None:
        raise UnsupportedPairingError(f"{name} is defined for finite-support pairs")
    n = len(dx.atoms)
    vs, V = as_integers(dx.values + dy.values)
    ts = sorted(set(vs))
    curves = []
    for d, xs in ((dx, vs[:n]), (dy, vs[n:])):
        ws, D = as_integers(d.probs)
        curves.append((*stop_loss_transform(list(zip(xs, ws)), ts), V * D))
    return ts, V, curves


def oracle_ssd(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X >=ssd Y via E[min(X, t)] >= E[min(Y, t)] on the merged support.

    The gap in t is piecewise linear with knots only at atoms, flat below the
    smallest and above the largest, so the merged support is a complete test
    set.  E[min(X, t)] = E[X] - E[(X - t)+] comes from the stop-loss transform
    of each law, over integers; only a witness becomes Fractions.  Shares no
    code with check_ssd.
    """
    ts, V, ((mx, lx, sx), (my, ly, sy)) = _oracle_transforms(x, y, "oracle_ssd")
    for t, a, b in zip(ts, lx, ly):
        if (mx - a) * sy < (my - b) * sx:
            return _fails("angle_t", Fraction(t, V), Fraction(mx - a, sx), Fraction(my - b, sy))
    return _HOLDS


def oracle_icx(x: Dist, y: Dist) -> OrderVerdict:
    """Decide X >=icx Y via stop-loss premiums E[(X - t)+] >= E[(Y - t)+] on
    the merged support, from the stop-loss transform of each law."""
    ts, V, ((_, lx, sx), (_, ly, sy)) = _oracle_transforms(x, y, "oracle_icx")
    for t, a, b in zip(ts, lx, ly):
        if a * sy < b * sx:
            return _fails("angle_t", Fraction(t, V), Fraction(a, sx), Fraction(b, sy))
    return _HOLDS
