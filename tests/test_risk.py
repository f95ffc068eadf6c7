"""Expected shortfall, phi-envelope, stop-loss: exactness and shape."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from stochorder import (
    Exponential,
    InputError,
    LogNormal,
    Normal,
    PointMass,
    es,
    mean,
    normalize,
    phi,
    point_mass_dist,
    stop_loss,
)
from stochorder.dists import norm_pdf

from . import reference as ref
from .test_dists import discrete_dists, uniform


def quantile(d, t: float) -> float:
    """Right quantile of a continuous family at t, through scipy's inverse
    normal distribution function."""
    if isinstance(d, Exponential):
        return -math.log1p(-t) / d.rate
    z = float(special.ndtri(t))
    return d.mu + d.sigma * z if isinstance(d, Normal) else math.exp(d.mu + d.sigma * z)


def es_by_trapezoid(d, p: float, nodes: int = 10_000) -> float:
    """Independent route: trapezoid integral of the right quantile over (p, 1).

    Nodes cluster at both endpoints (cosine map composed with a smoothstep);
    a uniform grid cannot reach 1e-7 against the quantile's tail growth.
    """
    total = 0.0
    prev_t = prev_q = None
    for k in range(nodes + 1):
        u = 0.5 * (1.0 - math.cos(math.pi * k / nodes))
        u = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
        t = min(max(p + (1.0 - p) * u, p + 1e-15), 1 - 1e-15)
        q = quantile(d, t)
        if prev_t is not None:
            total += 0.5 * (prev_q + q) * (t - prev_t)
        prev_t, prev_q = t, q
    return total / (1.0 - p)


def breakpoints(d):
    """(P_k, phi(P_k)) at 0 and every cumulative probability of d."""
    return [(p, phi(d, p)) for p in itertools.accumulate(d.probs, initial=F(0))]


class TestEnvelope:
    def test_uniform01_breakpoints(self):
        assert breakpoints(uniform(0, 1)) == [(F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(0))]

    def test_point_mass_is_line(self):
        assert breakpoints(point_mass_dist(F(3))) == [(F(0), F(3)), (F(1), F(0))]

    def test_starts_at_mean_ends_at_zero(self):
        d = normalize([(-2, F(1, 3)), (1, F(1, 3)), (5, F(1, 3))])
        points = breakpoints(d)
        assert points[0] == (F(0), mean(d))
        assert points[-1] == (F(1), F(0))

    @given(discrete_dists())
    def test_slopes_are_negated_quantiles_and_concave(self, d):
        points = breakpoints(d)
        slopes = [(v1 - v0) / (p1 - p0) for (p0, v0), (p1, v1) in zip(points, points[1:])]
        # one linear piece per atom, slope -value, steering downward
        assert slopes == [-v for v in d.values]
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))

    @given(discrete_dists(), st.integers(0, 60), st.integers(0, 60))
    def test_increment_is_quantile_integral(self, d, a, b):
        q, p = sorted((F(a, 60), F(b, 60)))
        levels = [c for c, _ in breakpoints(d)]
        integral = F(0)
        lo = q
        while lo < p:
            hi = min(p, next((c for c in levels if c > lo), F(1)))
            mid = lo + (hi - lo) / 2
            integral += ref.quantile_right(d, mid) * (hi - lo) if mid < 1 else F(0)
            lo = hi
        assert phi(d, p) - phi(d, q) == -integral

    @given(discrete_dists())
    def test_value_at_breakpoints_and_midpoints(self, d):
        points = breakpoints(d)
        for (p0, v0), (p1, v1) in zip(points, points[1:]):
            assert phi(d, (p0 + p1) / 2) == (v0 + v1) / 2
        assert phi(d, 1) == points[-1][1] == 0


class TestEs:
    def test_uniform_0123_at_half(self):
        assert es(uniform(0, 1, 2, 3), F(1, 2)) == F(5, 2)

    def test_level_zero_is_mean(self):
        d = normalize([(F(-1, 3), F(1, 4)), (2, F(3, 4))])
        assert es(d, 0) == mean(d)

    def test_level_domain(self):
        with pytest.raises(InputError):
            es(uniform(0, 1), 1)
        with pytest.raises(InputError):
            es(uniform(0, 1), F(-1, 10))

    def test_normal_upper_tail_value(self):
        assert es(Normal(0.0, 1.0), 0.975) == pytest.approx(2.337803, abs=1e-5)

    @given(discrete_dists(), st.integers(0, 59), st.integers(0, 59))
    def test_monotone_in_level(self, d, a, b):
        p, q = sorted((F(a, 60), F(b, 60)))
        assert es(d, p) <= es(d, q)

    @given(discrete_dists())
    def test_bounded_by_extremes(self, d):
        assert mean(d) <= es(d, F(1, 3)) <= d.values[-1]

    @given(discrete_dists(), st.integers(0, 59))
    def test_phi_consistency(self, d, a):
        p = F(a, 60)
        assert es(d, p) * (1 - p) == phi(d, p)

    def test_phi_at_one_is_zero(self):
        assert phi(uniform(0, 5), 1) == 0

    @pytest.mark.parametrize("p, shown", [(1.5, "1.5"), (-0.5, "-0.5"), (F(3, 2), "1.5"),
                                          (float("nan"), "nan")])
    def test_phi_level_domain_on_a_continuous_law(self, p, shown):
        # the finite route's message, the level shown as the closed form takes it
        with pytest.raises(InputError) as finite:
            phi(uniform(0, 1), F(3, 2))
        assert str(finite.value) == "level must lie in [0, 1], got 3/2"
        for d in (Normal(0.0, 1.0), Exponential(0.8), LogNormal(0.1, 0.5)):
            with pytest.raises(InputError) as exc:
                phi(d, p)
            assert str(exc.value) == f"level must lie in [0, 1], got {shown}"

    @pytest.mark.parametrize(
        "d", [Normal(0.3, 1.7), Exponential(0.8), LogNormal(0.1, 0.5)]
    )
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_parametric_closed_forms_vs_trapezoid(self, d, p):
        assert es(d, p) == pytest.approx(es_by_trapezoid(d, p), abs=1e-7)

    def test_exponential_closed_form(self):
        lam = 2.0
        for p in (0.0, 0.5, 0.99):
            assert es(Exponential(lam), p) == pytest.approx(
                (1.0 - math.log(1.0 - p)) / lam
            )

    def test_point_mass(self):
        assert es(PointMass(4.0), 0.7) == 4.0


class TestStopLoss:
    def test_exponential_unit_rate(self):
        for d in (0.0, 0.5, 1.0, 2.0):
            assert stop_loss(Exponential(1.0), d) == pytest.approx(
                math.exp(-d), abs=1e-12
            )

    def test_discrete_exact(self):
        assert stop_loss(uniform(0, 2), 1) == F(1, 2)
        assert stop_loss(uniform(0, 2), F(-1)) == F(2)  # mean + 1

    def test_normal_vs_quadrature(self):
        d = Normal(0.5, 2.0)
        for t in (-1.0, 0.0, 1.5):
            ref, _ = integrate.quad(
                lambda x: (x - t) * norm_pdf((x - 0.5) / 2.0) / 2.0, t, 60
            )
            assert stop_loss(d, t) == pytest.approx(ref, abs=1e-9)

    @given(discrete_dists(), st.integers(-13, 13), st.integers(-13, 13))
    def test_convex_nonincreasing(self, d, a, b):
        t0, t1 = sorted((F(a, 2), F(b, 2)))
        assert stop_loss(d, t0) >= stop_loss(d, t1)
        if t0 < t1:
            tm = (t0 + t1) / 2
            assert stop_loss(d, tm) <= (stop_loss(d, t0) + stop_loss(d, t1)) / 2

    @given(discrete_dists())
    def test_vanishes_at_top_of_support(self, d):
        assert stop_loss(d, d.values[-1]) == 0


def is_regular_level(d, p) -> bool:
    """P(X < Q(p)) = p: the level cuts cleanly at an atom edge."""
    q = ref.quantile_right(d, p)
    return sum((pr for v, pr in d.atoms if v < q), F(0)) == p


def tail_mean_at_level(d, p):
    """E[X | X >= Q(p)]; at regular levels it equals ES_p."""
    return ref.upper_tail_mean(d, ref.quantile_right(d, p))


class TestRegularLevels:
    def test_uniform01_half_regular(self):
        d = uniform(0, 1)
        assert is_regular_level(d, F(1, 2))
        assert tail_mean_at_level(d, F(1, 2)) == 1
        assert es(d, F(1, 2)) == 1

    def test_uniform01_quarter_not_regular(self):
        assert not is_regular_level(uniform(0, 1), F(1, 4))

    def test_point_mass_tail_mean(self):
        d = point_mass_dist(F(7))
        assert not is_regular_level(d, F(1, 3))
        assert tail_mean_at_level(d, F(1, 3)) == 7

    @given(discrete_dists(), st.integers(1, 59))
    def test_es_equals_tail_mean_at_regular_levels(self, d, a):
        p = F(a, 60)
        if is_regular_level(d, p):
            assert es(d, p) == tail_mean_at_level(d, p)

    def test_subset_average_bound_exhaustive_n6(self):
        rng = random.Random(5)
        values = sorted(rng.sample(range(-20, 40), 6))
        d = uniform(*values)
        for k in range(1, 6):
            level = F(6 - k, 6)
            top = es(d, level)
            for subset in itertools.combinations(values, k):
                assert top >= F(sum(subset), k)

    def test_subset_average_bound_randomized_n15(self):
        rng = random.Random(6)
        values = sorted(rng.sample(range(-30, 60), 15))
        d = uniform(*values)
        for _ in range(300):
            k = rng.randint(1, 14)
            subset = rng.sample(values, k)
            assert es(d, F(15 - k, 15)) >= F(sum(subset), k)
