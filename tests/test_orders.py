"""Order deciders and their transform oracles.

The discrete routes are exact; every failing verdict must carry a witness
that reproduces the violated inequality.
"""

import random
from fractions import Fraction as F
from itertools import accumulate
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    InternalError,
    Normal,
    UnsupportedPairingError,
    affine,
    check_cx,
    check_icx,
    check_ssd,
    check_st,
    mean,
    normalize,
    oracle_icx,
    oracle_ssd,
    point_mass_dist,
    stop_loss,
)
from stochorder import orders
from stochorder.dists import DiscreteDist
from stochorder.orders import OrderVerdict, Witness
from stochorder.risk import es, phi

from . import reference as ref
from .gen import mean_preserving_spread, random_discrete, random_shift_down
from .test_dists import discrete_dists, uniform


def variance(d):
    """E[(X - E[X])^2] by Fraction sums over the atoms."""
    m = mean(d)
    return sum(((v - m) ** 2 * p for v, p in d.atoms), F(0))


def psi(d, p):
    """Integrated lower quantile: mean - phi(p)."""
    return mean(d) - phi(d, p)


nonneg_dists = st.builds(
    lambda pairs: normalize(pairs),
    st.lists(
        st.tuples(st.integers(0, 12).map(lambda k: F(k, 2)), st.integers(1, 59)),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    ),
)


class TestGolden:
    def test_reflexive(self):
        d = uniform(0, 1, 5)
        for chk in (check_ssd, check_icx, check_st, oracle_ssd, oracle_icx):
            assert chk(d, d).holds
        assert check_cx(d, d).holds

    def test_downward_shift(self):
        x = uniform(0, 2)
        y = uniform(-1, 1)
        assert check_ssd(x, y).holds
        assert check_st(x, y).holds
        assert not check_ssd(y, x).holds
        assert not check_icx(y, x).holds

    def test_spread_ordering(self):
        narrow = uniform(1)
        wide = uniform(0, 2)
        assert check_ssd(narrow, wide).holds  # same mean, less spread
        assert check_cx(narrow, wide).holds
        assert not check_cx(wide, narrow).holds
        assert check_icx(wide, narrow).holds  # upper tail grows with spread

    def test_cx_needs_equal_means(self):
        v = check_cx(uniform(0, 1), uniform(0, 2))
        assert not v.holds
        assert v.witness is not None

    def test_st_survival_witness(self):
        x = uniform(0, 1)
        y = uniform(0, 3)
        v = check_st(x, y)
        assert not v.holds
        assert v.witness.kind == "threshold_x"


class TestWitnesses:
    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=150)
    def test_ssd_witness_reproduces_violation(self, x, y):
        v = check_ssd(x, y)
        assert (v.witness is None) == v.holds
        if not v.holds:
            w = v.witness
            assert w.kind == "level_p"
            assert w.lhs < w.rhs
            assert psi(x, w.value) == w.lhs
            assert psi(y, w.value) == w.rhs

    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=150)
    def test_icx_witness_reproduces_violation(self, x, y):
        v = check_icx(x, y)
        if not v.holds:
            w = v.witness
            assert w.kind == "level_p"
            assert w.lhs < w.rhs
            p = w.value
            assert es(x, p) == w.lhs
            assert es(y, p) == w.rhs

    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=150)
    def test_oracle_witnesses_are_transform_gaps(self, x, y):
        vs = oracle_ssd(x, y)
        if not vs.holds:
            t = vs.witness.value
            lhs = sum(min(v, t) * p for v, p in x.atoms)
            rhs = sum(min(v, t) * p for v, p in y.atoms)
            assert (lhs, rhs) == (vs.witness.lhs, vs.witness.rhs)
            assert lhs < rhs
        vi = oracle_icx(x, y)
        if not vi.holds:
            t = vi.witness.value
            assert stop_loss(x, t) == vi.witness.lhs
            assert stop_loss(y, t) == vi.witness.rhs
            assert vi.witness.lhs < vi.witness.rhs


class TestOracleAgreement:
    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=300)
    def test_ssd_routes_agree(self, x, y):
        assert check_ssd(x, y).holds == oracle_ssd(x, y).holds

    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=300)
    def test_icx_routes_agree(self, x, y):
        assert check_icx(x, y).holds == oracle_icx(x, y).holds


def _with_form(d, form):
    """A copy of the law d whose cached integer form is overwritten with form."""
    out = DiscreteDist(d.atoms)
    out.__dict__["ints"] = form
    return out


class TestOraclesIgnoreTheCachedForm:
    """The oracles scale the public atoms themselves, so a wrong cached form,
    which misleads the deciders, cannot fool both routes at once."""

    def test_swapped_forms_mislead_the_decider_but_not_the_oracles(self):
        x, y = point_mass_dist(1), uniform(0, 2)
        bad_x, bad_y = _with_form(x, y.ints), _with_form(y, x.ints)
        assert check_ssd(bad_x, bad_y) != ref.check_ssd(x, y)  # the decider reads the form
        assert oracle_ssd(bad_x, bad_y) == ref.oracle_ssd(x, y)
        assert oracle_icx(bad_y, bad_x) == ref.oracle_icx(y, x)

    @settings(max_examples=150, deadline=None)
    @given(discrete_dists(), discrete_dists(), st.integers(-3, 3), st.integers(1, 4))
    def test_oracles_read_only_the_public_atoms(self, x, y, shift, stretch):
        """Each law's form replaced by the other's, its values moved by shift
        and its weights made stretch times finer."""
        def wrong(f):
            return f._replace(values=tuple(v + shift * f.V for v in f.values),
                              weights=tuple(w * stretch for w in f.weights), D=f.D * stretch)
        bad_x, bad_y = _with_form(x, wrong(y.ints)), _with_form(y, wrong(x.ints))
        assert oracle_ssd(bad_x, bad_y) == ref.oracle_ssd(x, y)
        assert oracle_icx(bad_x, bad_y) == ref.oracle_icx(x, y)


class TestDuality:
    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=200)
    def test_ssd_is_icx_on_negations(self, x, y):
        assert check_ssd(x, y).holds == check_icx(affine(y, -1, 0), affine(x, -1, 0)).holds

    @given(discrete_dists(), discrete_dists())
    @settings(max_examples=200)
    def test_st_implies_ssd_and_icx(self, x, y):
        if check_st(x, y).holds:
            assert check_ssd(x, y).holds
            assert check_icx(x, y).holds


class TestRiskReduction:
    @given(nonneg_dists)
    @settings(max_examples=150)
    def test_doubling_a_nonnegative_risk(self, x):
        two_x = affine(x, 2, 0)
        assert check_ssd(two_x, x).holds
        if variance(x) > 0:
            shifted = affine(x, 1, mean(x))
            assert check_cx(shifted, two_x).holds
            assert not check_cx(two_x, shifted).holds


_mus, _sigmas = st.floats(-10, 10), st.floats(0.1, 10)


@st.composite
def _scanned_normal_pairs(draw):
    """Pairs with |mu_x - mu_y| <= 2 |sigma_x - sigma_y|, where a sigma
    failure shows within the tail scans."""
    mx, sx, sy = draw(_mus), draw(_sigmas), draw(_sigmas)
    gap = 2 * abs(sx - sy)
    my = draw(st.floats(max(-10.0, mx - gap), min(10.0, mx + gap)))
    return Normal(mx, sx), Normal(my, sy)


_equal_sigma_normal_pairs = st.builds(
    lambda mx, my, s: (Normal(mx, s), Normal(my, s)), _mus, _mus, _sigmas)


class TestNormalPairs:
    def test_mean_shift(self):
        assert check_ssd(Normal(1.0, 1.0), Normal(0.0, 1.0)).holds
        assert check_st(Normal(1.0, 1.0), Normal(0.0, 1.0)).holds
        v = check_ssd(Normal(-1.0, 1.0), Normal(0.0, 1.0))
        assert not v.holds and v.witness is not None

    def test_spread_increase_breaks_ssd(self):
        v = check_ssd(Normal(0.0, 2.0), Normal(0.0, 1.0))
        assert not v.holds
        w = v.witness
        assert w.kind == "level_p" and 0 < w.value < 1
        assert w.lhs < w.rhs

    def test_icx_sigma_witness_is_stop_loss_gap(self):
        v = check_icx(Normal(0.0, 1.0), Normal(0.0, 2.0))
        assert not v.holds
        w = v.witness
        assert w.kind == "angle_t"
        assert stop_loss(Normal(0.0, 1.0), w.value) == pytest.approx(w.lhs)
        assert stop_loss(Normal(0.0, 2.0), w.value) == pytest.approx(w.rhs)
        assert w.lhs < w.rhs

    def test_icx_holds_with_larger_mean_and_spread(self):
        assert check_icx(Normal(1.0, 2.0), Normal(0.0, 1.0)).holds

    def test_icx_smaller_mean_fails_at_level_zero(self):
        # ES_0 is the mean
        assert check_icx(Normal(0.0, 1.0), Normal(1.0, 1.0)) == OrderVerdict(
            False, Witness("level_p", 0.0, 0.0, 1.0)
        )

    def test_cx_normal(self):
        assert check_cx(Normal(0.0, 1.0), Normal(0.0, 2.0)).holds
        assert not check_cx(Normal(0.0, 2.0), Normal(0.0, 1.0)).holds
        assert not check_cx(Normal(0.5, 1.0), Normal(0.0, 2.0)).holds

    def test_cx_normal_compares_means_exactly(self):
        assert check_cx(Normal(0.0, 1.0), Normal(1e-13, 2.0)) == OrderVerdict(
            False, Witness("level_p", 1.0, 0.0, 1e-13)
        )

    def test_st_requires_equal_sigma(self):
        assert check_st(Normal(2.0, 1.5), Normal(0.0, 1.5)).holds
        assert not check_st(Normal(-2.0, 1.5), Normal(0.0, 1.5)).holds
        with pytest.raises(UnsupportedPairingError) as exc:
            check_st(Normal(0.0, 1.0), Normal(0.0, 2.0))
        assert str(exc.value) == "st order for Normal pairs needs equal sigma; discretize first"

    # Each pair below fails its order, and a witness in z-space (ROADMAP
    # item 12) will turn these errors into failing verdicts.  Today each
    # tail scan ends at 38 deviations before the gap shows in binary64.
    def test_tail_beyond_binary64_is_internal_error(self):
        with pytest.raises(InternalError) as exc:
            check_icx(Normal(100.0, 1.0), Normal(0.0, 2.0))
        assert isinstance(exc.value, RuntimeError)
        assert str(exc.value) == "icx violation exists but lies beyond binary64 tail resolution"
        assert exc.value.routes == {"closed_form": False, "tail_scan": None}
        assert exc.value.inputs == (Normal(100.0, 1.0), Normal(0.0, 2.0))

    @pytest.mark.parametrize("x, y", [
        (Normal(100.0, 2.0), Normal(0.0, 1.0)),  # the crossing lies near z = -100
        (Normal(1e20, 2.0), Normal(1e20, 1.0)),  # the gap is lost in rounding mu p
    ], ids=["far-means", "huge-means"])
    def test_ssd_tail_beyond_binary64_is_internal_error(self, x, y):
        with pytest.raises(InternalError) as exc:
            check_ssd(x, y)
        assert str(exc.value) == "ssd violation exists but lies beyond binary64 tail resolution"
        assert exc.value.routes == {"closed_form": False, "tail_scan": None}
        assert exc.value.inputs == (x, y)

    @settings(max_examples=300)
    @given(st.one_of(_scanned_normal_pairs(), _equal_sigma_normal_pairs))
    def test_the_rule_and_its_witnesses(self, pair):
        x, y = pair
        (mx, sx), (my, sy) = (x.mu, x.sigma), (y.mu, y.sigma)
        rules = {
            check_ssd: mx >= my and sx <= sy,
            check_icx: mx >= my and sx >= sy,
            check_cx: mx == my and sx <= sy,
            check_st: mx >= my and sx == sy,
        }
        for check, holds in rules.items():
            if check is check_st and sx != sy:
                with pytest.raises(UnsupportedPairingError):
                    check_st(x, y)
                continue
            v = check(x, y)
            assert v.holds == holds
            if holds:
                assert v.witness is None
                continue
            w = v.witness
            if check is check_st:
                t = w.value
                assert w.kind == "threshold_x" and t == 0.5 * (mx + my)
                # a gap of the means below binary64 resolution at the midpoint
                # gives lhs == rhs, a witness that shows nothing (ROADMAP item 12)
                assert w.lhs < w.rhs or (my - mx) / sx < 1e-15
                # survival probabilities, each 1 - cdf, so exact to about 1e-16
                for side, m in ((w.lhs, mx), (w.rhs, my)):
                    assert side == pytest.approx(1 - NormalDist(m, sx).cdf(t), rel=1e-9, abs=1e-15)
            elif mx < my or (check is check_cx and mx != my):
                # cx fails on unequal means either way round
                level = 0.0 if check is check_icx else 1.0
                assert w == Witness("level_p", level, mx, my)
            elif check is check_icx:
                assert w.kind == "angle_t" and w.lhs < w.rhs
                assert (w.lhs, w.rhs) == (stop_loss(x, w.value), stop_loss(y, w.value))
            else:
                p = w.value
                assert w.kind == "level_p" and 0 < p < 1 and w.lhs < w.rhs
                z = NormalDist().inv_cdf(p)
                for side, m, s in ((w.lhs, mx, sx), (w.rhs, my, sy)):
                    g = m * p - s * NormalDist().pdf(z)
                    assert side == pytest.approx(g, rel=1e-9, abs=1e-9)

    def test_mixed_kind_rejected(self):
        with pytest.raises(UnsupportedPairingError):
            check_ssd(Normal(0.0, 1.0), uniform(0, 1))
        with pytest.raises(UnsupportedPairingError):
            oracle_ssd(Normal(0.0, 1.0), Normal(0.0, 1.0))


class TestRouteDisagreement:
    def test_ssd_dual_route_disagreement_raises_with_both_verdicts(self, monkeypatch):
        from stochorder import orders

        monkeypatch.setattr(orders, "_icx_walk", lambda *args: OrderVerdict(True))
        x, y = uniform(0, 2), uniform(1)
        with pytest.raises(InternalError) as exc:
            check_ssd(x, y)
        routes = exc.value.routes
        assert routes["integrated_quantiles"] == OrderVerdict(
            False, Witness("level_p", F(1, 2), F(0), F(1, 2))
        )
        assert routes["shortfall_from_top"].holds
        assert exc.value.inputs == (x, y)


class TestVerdictInvariants:
    def test_witness_iff_fails(self):
        with pytest.raises(Exception):
            OrderVerdict(True, Witness("level_p", F(1, 2), F(0), F(1)))
        with pytest.raises(Exception):
            OrderVerdict(False, None)
        with pytest.raises(ValueError) as exc:
            Witness("bogus", 0, 0, 0)
        assert str(exc.value) == "unknown witness kind 'bogus'"

    def test_point_mass_vs_law(self):
        x = uniform(0, 4)
        assert check_ssd(x, point_mass_dist(0)).holds  # min(X) >= 0
        assert not check_ssd(x, point_mass_dist(1)).holds
        assert check_ssd(point_mass_dist(2), x).holds  # 2 = mean(X)
        assert not check_ssd(point_mass_dist(F(19, 10)), x).holds


class TestMergeWalk:
    """_walk names the atoms of X and Y that hold each stretch of the merged
    quantile grid; the deciders and coupling synthesis read those indices."""

    @staticmethod
    def _pairs(rng, count):
        for _ in range(count):
            x = random_discrete(rng, 8)
            y = rng.choice((random_shift_down, mean_preserving_spread))(rng, x)
            yield from ((x, y), (y, x), (x, random_discrete(rng, 8)))

    def test_each_level_names_the_atoms_holding_the_stretch_below_it(self):
        for dx, dy in self._pairs(random.Random(17), 200):
            x, y, V, D = orders._scale(dx.ints, dy.ints)
            cum_x, cum_y = list(accumulate(x[1])), list(accumulate(y[1]))
            steps = list(orders._walk(x, y))
            assert [p for p, *_ in steps] == sorted(set(cum_x) | set(cum_y))
            p0 = gx0 = gy0 = 0
            for p, i, j, gx, gy in steps:
                assert (cum_x[i - 1] if i else 0) < p <= cum_x[i]
                assert (cum_y[j - 1] if j else 0) < p <= cum_y[j]
                assert (gx - gx0, gy - gy0) == (x[0][i] * (p - p0), y[0][j] * (p - p0))
                p0, gx0, gy0 = p, gx, gy
            assert steps[-1] == (D, len(dx.atoms) - 1, len(dy.atoms) - 1,
                                 mean(dx) * V * D, mean(dy) * V * D)

    def test_planted_late_st_failure_at_two_thousand_atoms(self):
        # Y is X with its middle atom moved up, short of the next one: every
        # stretch below it holds, and t = that atom is the least threshold
        # at which P(X <= t) > P(Y <= t)
        n, k = 2000, 1000
        rng = random.Random(29)
        x = normalize((3 * v, F(rng.randint(1, 59), 60)) for v in range(n))
        y = normalize((v + 1 if idx == k else v, p) for idx, (v, p) in enumerate(x.atoms))
        t = x.values[k]
        survival_x = sum(p for v, p in x.atoms if v > t)
        survival_y = sum(p for v, p in y.atoms if v > t)
        assert survival_y == survival_x + x.probs[k]
        assert check_st(x, y) == OrderVerdict(False, Witness("threshold_x", t, survival_x, survival_y))
        assert check_st(y, x).holds
