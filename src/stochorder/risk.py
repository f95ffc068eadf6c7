"""Expected shortfall, its concave envelope, and stop-loss premiums.

For a law X and level p in [0, 1),

    ES_p(X) = (1/(1-p)) * integral of Q_X(t) over t in (p, 1),

with Q_X the right quantile.  The map phi(p) = (1-p) * ES_p(X) is piecewise
linear and concave for finite laws, with slope -Q_X(p), phi(0) = E[X] and
phi(1) = 0.

On a finite law every evaluator works over integers, from the law's
integer form (DiscreteDist.ints): values over the lcm V of their
denominators, probabilities over the lcm D of theirs; a level or point
asked for moves only the atoms it reaches onto its own lcm.  Each result
becomes one Fraction.  es and phi sum the upper tail down to the one level;
phi is the envelope, and its values at the law's cumulative probabilities
are the breakpoints, between which it is linear.  stop_loss_transform is the
integer kernel of the stop-loss transform, one pass of suffix sums over
ascending points,

    SL(t) = E[(X - t)+] = sum_{v > t} v * P(X = v) - t * P(X > t);

it serves stop_loss, the premium curves of apps.stop_loss_compare and the
transform oracles of orders.  A finite law is whatever as_discrete makes of
it, a Bernoulli or a point mass included; a continuous family is its
closed form, and a value beyond binary64 there is an input error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .dists import (
    DiscreteDist,
    Dist,
    InputError,
    RationalLike,
    _closed_form,
    _family,
    _real,
    as_discrete,
    as_fraction,
)

__all__ = [
    "es",
    "phi",
    "stop_loss",
    "stop_loss_transform",
]


def _upper_tail(d: DiscreteDist, p: Fraction) -> tuple[int, int, int, int]:
    """(A, V, D, M) for a level p in [0, 1]: phi(p) = A / (V D), 1 - p = M / D.

    A sums value times mass over the top mass M, walking down from the
    largest atom; the lowest atom reached counts only its part of M.  D is
    the lcm of the law's D and the denominator of p.
    """
    xs, V, ws, DX = d.ints
    n, q = p.as_integer_ratio()
    D = math.lcm(DX, q)
    k = D // DX  # a weight over D is k times its weight over DX
    M = D - n * (D // q)
    acc, left = 0, M
    for x, w in zip(reversed(xs), reversed(ws)):
        if not left:
            break
        take = min(w * k, left)
        acc, left = acc + x * take, left - take
    return acc, V, D, M


def es(d: Dist, p: RationalLike) -> Fraction | float:
    """Expected shortfall ES_p at level p in [0, 1); ES_0 is the mean."""
    disc = as_discrete(d)
    if disc is not None:
        pf = as_fraction(p)
        if not 0 <= pf < 1:
            raise InputError(f"expected shortfall needs p in [0, 1), got {pf}")
        acc, V, _, M = _upper_tail(disc, pf)
        return Fraction(acc, V * M)
    pv = _real(p, "level p")
    if not 0.0 <= pv < 1.0:
        raise InputError(f"expected shortfall needs p in [0, 1), got {pv}")
    law = _family(d)
    return _closed_form(law, law.es, pv)


def phi(d: Dist, p: RationalLike) -> Fraction | float:
    """The envelope value (1 - p) * ES_p; defined on all of [0, 1]."""
    disc = as_discrete(d)
    if disc is not None:
        pf = as_fraction(p)
        if not 0 <= pf <= 1:
            raise InputError(f"level must lie in [0, 1], got {pf}")
        acc, V, D, _ = _upper_tail(disc, pf)
        return Fraction(acc, V * D)
    family, pv = _family(d), _real(p, "level p")  # a non-law fails before the level checks
    if not 0.0 <= pv <= 1.0:
        raise InputError(f"level must lie in [0, 1], got {pv}")
    return 0.0 if pv == 1.0 else (1.0 - pv) * es(family, pv)


def stop_loss_transform(atoms: Sequence[tuple[int, int]], ts: Sequence[int]) -> tuple[int, list[int]]:
    """The stop-loss transform of a finite law at ascending points, over integers.

    atoms are (value, weight) pairs ascending by value (repeats allowed) and
    ts ascending points; values and points share one scale V, weights one
    scale D.  Returns (m, sl): m = sum of value * weight, so E[X] = m / (V D),
    and sl[k] = sum over v > ts[k] of (v - ts[k]) * weight, so
    E[(X - ts[k])+] = sl[k] / (V D).  One descending pass keeps the suffix
    sums of v * w and of w over the atoms above t.
    """
    k = len(atoms)
    top = mass = 0
    sl = [0] * len(ts)
    for i in range(len(ts) - 1, -1, -1):
        t = ts[i]
        while k and atoms[k - 1][0] > t:
            k -= 1
            v, w = atoms[k]
            top, mass = top + v * w, mass + w
        sl[i] = top - t * mass
    return top + sum(v * w for v, w in atoms[:k]), sl


def stop_loss(d: Dist, t: RationalLike) -> Fraction | float:
    """Stop-loss premium E[(X - t)+]."""
    disc = as_discrete(d)
    if disc is not None:
        xs, V, ws, D = disc.ints
        n, q = as_fraction(t).as_integer_ratio()
        k = bisect_right(xs, n * V // q)  # x / V <= n / q iff x <= n V // q
        L = math.lcm(V, q)
        above = [(x * (L // V), w) for x, w in zip(xs[k:], ws[k:])]
        _, (sl,) = stop_loss_transform(above, [n * (L // q)])
        return Fraction(sl, L * D)
    law = _family(d)
    return _closed_form(law, law.stop_loss, _real(t, "retention t"))
