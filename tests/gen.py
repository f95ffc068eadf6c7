"""Seeded random instances for the property sweeps.

Everything draws from a caller-supplied random.Random, so sweeps are
reproducible from a single seed.  Discrete values live on a small
half-integer lattice and weights are random rationals with denominator
at most 60, keeping all downstream checks exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stochorder.dists import (
    DiscreteDist,
    JointDist,
    Normal,
    affine,
    discretize,
    mean,
    normalize,
    normalize_joint,
)

__all__ = [
    "random_weight",
    "random_discrete",
    "random_joint",
    "random_shift_down",
    "mean_preserving_spread",
    "narrow_against_wide",
    "random_comonotone_improver_joint",
    "gaussian_improver_joint",
]

_HALF_LATTICE = [Fraction(k, 2) for k in range(-12, 13)]


def random_weight(rng: random.Random, max_den: int = 60) -> Fraction:
    return Fraction(rng.randint(1, max_den - 1), max_den)


def random_discrete(
    rng: random.Random, max_atoms: int = 6, lattice: list[Fraction] | None = None
) -> DiscreteDist:
    """1..max_atoms distinct half-integer values with random rational weights."""
    lat = _HALF_LATTICE if lattice is None else lattice
    n = rng.randint(1, max_atoms)
    values = rng.sample(lat, n)
    return normalize((v, random_weight(rng)) for v in values)


_ANY_LATTICE = [Fraction(k, 2) for k in range(-6, 7)]
_NONNEG_LATTICE = [Fraction(k, 2) for k in range(0, 13)]


def random_joint(
    rng: random.Random,
    max_per_marginal: int = 6,
    nonneg_w: bool = False,
) -> JointDist:
    """Random finite joint law with 2..max_per_marginal values per marginal.

    Cells of the value grid are kept with probability ~0.6 and reweighted
    with random rationals; sampling retries until both marginals keep at
    least two distinct values.  Values are drawn as lattice indices (the
    same random calls as drawing the values), so the retry test counts ints.
    """
    w_lat = _NONNEG_LATTICE if nonneg_w else _ANY_LATTICE
    while True:
        nw = rng.randint(2, max_per_marginal)
        nz = rng.randint(2, max_per_marginal)
        ws = rng.sample(range(len(w_lat)), nw)
        zs = rng.sample(range(len(_ANY_LATTICE)), nz)
        cells = [
            (w, z, random_weight(rng))
            for w in ws
            for z in zs
            if rng.random() < 0.6
        ]
        if len({w for w, _, _ in cells}) < 2 or len({z for _, z, _ in cells}) < 2:
            continue
        return normalize_joint((w_lat[w], _ANY_LATTICE[z], p) for w, z, p in cells)


def random_shift_down(rng: random.Random, x: DiscreteDist) -> DiscreteDist:
    """X shifted down by a positive rational; always ssd-dominated by X."""
    delta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return normalize((v - delta, p) for v, p in x.atoms)


def mean_preserving_spread(rng: random.Random, x: DiscreteDist) -> DiscreteDist:
    """Split one atom into two equidistant halves, preserving the mean.

    The result is dominated by x in ssd (and dominates it in icx) with the
    same mean, so it pairs with x for convex-order fixtures.
    """
    k = rng.randrange(len(x.atoms))
    spread = Fraction(rng.randint(1, 6), 2)
    raw: list[tuple[Fraction, Fraction]] = []
    for idx, (v, p) in enumerate(x.atoms):
        if idx == k:
            raw.append((v - spread, p / 2))
            raw.append((v + spread, p / 2))
        else:
            raw.append((v, p))
    return normalize(raw)


def narrow_against_wide(
    rng: random.Random, n: int, bimodal: bool = False
) -> tuple[DiscreteDist, DiscreteDist]:
    """A narrow law of n atoms and a wide (or bimodal) law of n atoms with
    the same mean, as in scripts/support_cap.py: X <=cx Y, and the windows
    of the left curtain end inside atoms of Y at masses that are no integer
    multiple of 1/D, D the lcm of both laws' probability denominators."""
    x = normalize((Fraction(k, n) - Fraction(1, 2), rng.randint(1, 59)) for k in range(n))
    if bimodal:
        values = (Fraction(v, 4 * n) + (10 if v > 0 else -10) for v in rng.sample(range(-n, n), n))
    else:
        values = (Fraction(v, 4 * n) for v in rng.sample(range(-100 * n, 100 * n), n))
    y = normalize((v, rng.randint(1, 59)) for v in values)
    return x, affine(y, 1, mean(x) - mean(y))


def random_comonotone_improver_joint(rng: random.Random) -> JointDist:
    """Joint (X, Z) whose pair (X, X+Z) is comonotone by rank coupling."""
    n = rng.randint(2, 6)
    xs = sorted(rng.sample(_HALF_LATTICE, n))
    ys = sorted(rng.sample(_HALF_LATTICE, n))
    probs = [random_weight(rng) for _ in range(n)]
    return normalize_joint((x, y - x, p) for x, y, p in zip(xs, ys, probs))


def gaussian_improver_joint(rho: float, n: int = 8) -> JointDist:
    """Discretized bivariate-normal exhibit separating the improver notions.

    (W, Z) is bivariate standard normal with correlation rho and X := W - Z,
    so X + Z = W exactly on every atom.  Both generator coordinates use the
    mirrored midpoint-quantile discretization, making E[Z] exactly zero and
    keeping every mass and value rational.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    base = discretize(Normal(0.0, 1.0), n)
    rho_f = Fraction(rho)
    orth_f = Fraction((1.0 - rho * rho) ** 0.5)
    cells = []
    for g1, p1 in base.atoms:
        for g2, p2 in base.atoms:
            z = rho_f * g1 + orth_f * g2
            cells.append((g1 - z, z, p1 * p2))
    return normalize_joint(cells)
