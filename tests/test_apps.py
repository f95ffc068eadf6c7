"""Applied layers: parametric regions, improvers, insurance, protective put."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochorder import (
    BernoulliCase,
    BSParams,
    ExponentialUtility,
    Exponential,
    FixedIndemnity,
    GaussianCase,
    InputError,
    InternalError,
    IrrelevantThresholdError,
    LinearUtility,
    LogNormal,
    PiecewiseIndemnity,
    PowerUtility,
    StopLossIndemnity,
    UnsupportedPairingError,
    bernoulli_joint,
    bernoulli_region,
    bs_put,
    check_ssd,
    cond_classic,
    cond_new,
    conditional_indemnity_mean,
    expected_put_value,
    gaussian_cond_new_numeric,
    gaussian_region,
    gaussian_ssd_check,
    improver_check,
    indemnity_from_json,
    indemnity_to_json,
    indemnity_value,
    indifference_premium,
    joint_marginal_w,
    joint_sum,
    marketable_check,
    normalize,
    normalize_joint,
    protective_put_check,
    stop_loss,
    stop_loss_compare,
    utility_from_spec,
)
from stochorder import apps, models
from stochorder.orders import Witness
from stochorder.dists import norm_cdf, norm_pdf

from . import reference as ref
from .gen import (
    gaussian_improver_joint,
    random_comonotone_improver_joint,
    random_joint,
)
from .test_dists import discrete_dists, uniform


class TestGaussianRegion:
    def test_interior_ssd_only(self):
        flags = gaussian_region(GaussianCase(-0.1, 1.0, -0.4))
        assert flags.ssd and not flags.cond_new and not flags.cond_classic

    def test_outside_all(self):
        flags = gaussian_region(GaussianCase(-0.1, 1.0, -0.6))
        assert not flags.ssd

    def test_positive_mean_outside(self):
        flags = gaussian_region(GaussianCase(0.1, 1.0, 0.3))
        assert flags == type(flags)(False, False, False)
        assert not gaussian_cond_new_numeric(GaussianCase(0.1, 1.0, 0.3))

    def test_independent_nonpositive_mean_in_all(self):
        flags = gaussian_region(GaussianCase(-0.2, 0.5, 0.0))
        assert flags.ssd and flags.cond_new and flags.cond_classic

    def test_positive_rho_drops_classic(self):
        flags = gaussian_region(GaussianCase(-0.2, 0.5, 0.3))
        assert flags.ssd and flags.cond_new and not flags.cond_classic

    def test_boundary_case_numeric(self):
        # origin of the region: sup of the conditional mean is exactly zero
        assert gaussian_cond_new_numeric(GaussianCase(0.0, 1.0, 0.0))
        flags = gaussian_region(GaussianCase(0.0, 1.0, 0.0))
        assert flags.ssd and flags.cond_new and flags.cond_classic

    def test_degenerate_sum_never_dominated(self):
        # rho = -1, sigma = 1 collapses W + Z to a point mass
        assert not gaussian_ssd_check(GaussianCase(-0.2, 1.0, -1.0))
        assert not gaussian_region(GaussianCase(-0.2, 1.0, -1.0)).ssd

    def test_just_below_the_ssd_boundary_decides_from_the_parameters(self):
        # these rho sit past the 1e-6 band, so the parametric route runs
        # there, and it must not scan for a witness
        for mu in (-10.0, -3.0, -1.0, -0.5, -0.1, -0.01):
            for sigma in (0.25, 0.5, 1.0, 2.0, 4.0):
                for delta in (1e-5, 1e-4, 1e-3, 1e-2, 0.05):
                    case = GaussianCase(mu, sigma, max(-1.0, -sigma / 2 - delta))
                    ssd = case.rho >= -sigma / 2  # only where rho = -1 clamps
                    assert gaussian_ssd_check(case) == ssd, case
                    assert dataclasses.astuple(gaussian_region(case)) == (ssd, False, False), case

    def test_ssd_threshold_scales_with_sigma(self):
        # boundary sits at rho = -sigma/2 = -0.75
        assert gaussian_region(GaussianCase(-0.1, 1.5, -0.7)).ssd
        assert not gaussian_region(GaussianCase(-0.1, 1.5, -0.8)).ssd

    def test_validation(self):
        with pytest.raises(InputError):
            GaussianCase(0.0, 0.0, 0.0)
        with pytest.raises(InputError):
            GaussianCase(0.0, 1.0, 1.5)
        with pytest.raises(InputError):
            GaussianCase(float("nan"), 1.0, 0.0)

    def test_tail_mean_ends_bound_the_old_grid(self):
        # the numeric route reads E[W | W <= x] at x = -8 and x = 8 only: in
        # binary64 those two bound it on the 1,601-point grid of [-8, 8]
        def lower_tail_mean(x):  # E[W | W <= x] for W ~ N(0, 1)
            return -(norm_pdf(x) / norm_cdf(x))

        xs = [k * (16 / 1600) + -8.0 for k in range(1600)] + [8.0]
        ms = [lower_tail_mean(x) for x in xs]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        assert ms[0] == lower_tail_mean(-8.0) and ms[-1] == lower_tail_mean(8.0)

    def test_as_dict(self):
        d = dataclasses.asdict(gaussian_region(GaussianCase(-0.1, 1.0, -0.4)))
        assert d == {"ssd": True, "cond_new": False, "cond_classic": False}


class TestBernoulliRegion:
    def test_golden_cells(self):
        cases = {
            (F(3, 5), F(1, 2)): (True, True, False),
            (F(3, 5), F(0)): (True, True, True),
            (F(3, 5), F(-1, 4)): (False, False, False),
            (F(2, 5), F(1, 2)): (False, False, False),
            (F(1, 2), F(0)): (True, True, True),
            (F(1, 2), F(1, 10)): (True, True, False),
        }
        for (c, rho), expect in cases.items():
            flags = bernoulli_region(BernoulliCase(c, rho))
            assert (flags.ssd, flags.cond_new, flags.cond_classic) == expect, (c, rho)

    def test_joint_cells(self):
        j = bernoulli_joint(BernoulliCase(F(1, 2), F(1, 2)))
        assert dict(((w, z), p) for w, z, p in j.atoms) == {
            (F(0), F(-1, 2)): F(3, 8),
            (F(0), F(1, 2)): F(1, 8),
            (F(1), F(-1, 2)): F(1, 8),
            (F(1), F(1, 2)): F(3, 8),
        }

    def test_joint_is_canonical_over_the_table_grid(self):
        # the grid of `stochorder table bernoulli`; rho = -1 and 1 empty two cells
        for ci in range(0, 16):
            for ri in range(-10, 11):
                c, rho = F(ci, 10), F(ri, 10)
                cells = [(0, -c, (1 + rho) / 4), (0, 1 - c, (1 - rho) / 4),
                         (1, -c, (1 - rho) / 4), (1, 1 - c, (1 + rho) / 4)]
                j = bernoulli_joint(BernoulliCase(c, rho))
                assert j == normalize_joint(cells)
                assert len(j.atoms) == (2 if ri in (-10, 10) else 4)

    def test_marginals(self):
        j = bernoulli_joint(BernoulliCase(F(3, 5), F(1, 5)))
        w = joint_marginal_w(j)
        assert w.values == (F(0), F(1)) and w.probs == (F(1, 2), F(1, 2))
        total = joint_sum(j)
        assert set(total.values) == {F(-3, 5), F(2, 5), F(7, 5)}

    def test_validation(self):
        with pytest.raises(InputError):
            BernoulliCase(F(1, 2), F(3, 2))

    def test_region_exhaustive_agreement(self):
        # closed form vs checkers is asserted inside bernoulli_region;
        # sweep a coarse lattice to exercise both branches everywhere
        for ci in range(0, 13, 2):
            for ri in range(-10, 11, 2):
                bernoulli_region(BernoulliCase(F(ci, 10), F(ri, 10)))

    def test_integer_route_matches_the_public_laws_over_the_table_grid(self):
        # the region decides on the joint's integer form; the public route
        # (laws built from bernoulli_joint) and the reference agree cell by cell
        for ci in range(0, 16):
            for ri in range(-10, 11):
                case = BernoulliCase(F(ci, 10), F(ri, 10))
                j = bernoulli_joint(case)
                w, total = joint_marginal_w(j), joint_sum(j)
                flags = bernoulli_region(case)
                public = (check_ssd(w, total).holds, cond_new(j).holds, cond_classic(j).holds)
                reference = (ref.check_ssd(w, total).holds, ref.cond_new(j).holds,
                             ref.cond_classic(j).holds)
                assert (flags.ssd, flags.cond_new, flags.cond_classic) == public == reference


class TestImprovers:
    def test_gaussian_gap_cases(self):
        for rho in (0.1, 0.25, 0.4):
            flags = improver_check(gaussian_improver_joint(rho))
            assert flags.in_s and not flags.in_n, rho

    def test_gaussian_negative_rho_in_both(self):
        flags = improver_check(gaussian_improver_joint(-0.3))
        assert flags.in_s and flags.in_n

    def test_gaussian_large_rho_in_neither(self):
        flags = improver_check(gaussian_improver_joint(0.6))
        assert not flags.in_s

    def test_zero_improver(self):
        j = normalize_joint([(0, 0, F(1, 2)), (1, 0, F(1, 2))])
        flags = improver_check(j)
        assert flags.in_s and flags.in_n

    def test_pure_gain_improver(self):
        j = normalize_joint([(0, 1, F(1, 2)), (1, 2, F(1, 2))])
        flags = improver_check(j)
        assert flags.in_s and flags.in_n

    def test_comonotone_equivalence_random(self):
        # for comonotone (X, X+Z) the two improver notions coincide
        rng = random.Random(13)
        for _ in range(200):
            j = random_comonotone_improver_joint(rng)
            assert ref.is_comonotone((w, w + z, p) for w, z, p in j.atoms)
            flags = improver_check(j)
            assert flags.in_s == flags.in_n

    def test_witness_is_the_sum_against_the_marginal(self):
        rng = random.Random(41)
        failing = 0
        for _ in range(300):
            j = random_joint(rng)
            flags = improver_check(j)
            want = ref.check_ssd(joint_sum(j), joint_marginal_w(j))
            assert (flags.in_s, flags.witness) == (want.holds, want.witness)
            failing += not flags.in_s
        assert failing > 50

    def test_integer_route_matches_the_public_laws(self):
        # flags and witnesses equal those of the public laws' routes and of
        # the reference, over the generator's joints of both kinds
        rng = random.Random(29)
        joints = [random_joint(rng, nonneg_w=k % 2 == 1) for k in range(200)]
        joints += [random_comonotone_improver_joint(rng) for _ in range(100)]
        for j in joints:
            flags = improver_check(j)
            total, w = joint_sum(j), joint_marginal_w(j)
            flipped = normalize_joint((a + z, -z, p) for a, z, p in j.atoms)
            public = check_ssd(total, w)
            assert (flags.in_s, flags.witness) == (public.holds, public.witness)
            assert public == ref.check_ssd(total, w)
            assert flags.in_n == cond_new(flipped).holds == ref.cond_new(flipped).holds

    def test_non_comonotone_rejected(self):
        # the gap exhibit is outside the comonotone case
        j = gaussian_improver_joint(0.25)
        assert not ref.is_comonotone((w, w + z, p) for w, z, p in j.atoms)


class TestIndemnities:
    def test_fixed_values(self):
        i = FixedIndemnity(2, F(3, 2))
        assert indemnity_value(i, 1) == 0
        assert indemnity_value(i, 2) == F(3, 2)
        assert indemnity_value(i, 5) == F(3, 2)

    def test_stop_loss_values(self):
        i = StopLossIndemnity(1)
        assert indemnity_value(i, 3) == 2
        assert indemnity_value(i, F(1, 2)) == 0

    def test_piecewise_values(self):
        i = PiecewiseIndemnity(((F(0), F(0)), (F(2), F(1)), (F(4), F(3))))
        assert indemnity_value(i, 1) == F(1, 2)
        assert indemnity_value(i, 3) == 2
        assert indemnity_value(i, 6) == 5

    def test_negative_loss_rejected(self):
        with pytest.raises(InputError):
            indemnity_value(StopLossIndemnity(1), -1)

    @pytest.mark.parametrize("knots, bad", [
        (((0, 0, 1), (2, 1)), "(0, 0, 1)"),
        (((0, 0), 5), "5"),
        ([[0, 0], [2]], "[2]"),
    ])
    def test_piecewise_knot_must_be_a_pair(self, knots, bad):
        with pytest.raises(InputError) as exc:
            PiecewiseIndemnity(knots)
        assert str(exc.value) == f"knot must be a [x, y] pair, got {bad}"

    @pytest.mark.parametrize("knots", [5, None, iter([(0, 0), (2, 1)])])
    def test_piecewise_knots_must_be_a_sequence(self, knots):
        with pytest.raises(InputError) as exc:
            PiecewiseIndemnity(knots)
        assert str(exc.value) == f"knots must be a sequence of [x, y] pairs, got {knots!r}"

    @pytest.mark.parametrize("read", [indemnity_to_json, lambda i: indemnity_value(i, 1)],
                             ids=["to_json", "value"])
    def test_unknown_schedule_rejected(self, read):
        with pytest.raises(InputError) as exc:
            read("stop_loss")
        assert str(exc.value) == "unknown indemnity schedule 'stop_loss'"

    def test_validation(self):
        with pytest.raises(InputError):
            FixedIndemnity(0, 0)
        with pytest.raises(InputError):
            FixedIndemnity(1, 2)
        with pytest.raises(InputError):
            StopLossIndemnity(-1)
        with pytest.raises(InputError):
            PiecewiseIndemnity(((F(1), F(0)), (F(2), F(1))))
        with pytest.raises(InputError):
            PiecewiseIndemnity(((F(0), F(0)), (F(2), F(3))))
        with pytest.raises(InputError):
            PiecewiseIndemnity(((F(0), F(0)), (F(2), F(0)), (F(1), F(0))))
        with pytest.raises(InputError) as exc:
            PiecewiseIndemnity(((F(0), F(0)),))
        assert str(exc.value) == "piecewise schedule needs at least two knots"
        with pytest.raises(InputError):
            PiecewiseIndemnity(((F(0), F(0)), (F(1), F(0)), (F(2), F(2))))

    @pytest.mark.parametrize("obj, name", [
        ({"kind": "fixed", "threshold": 1}, "amount"),
        ({"kind": "fixed", "amount": 1}, "threshold"),
        ({"kind": "stop_loss"}, "deductible"),
    ])
    def test_json_missing_field_is_named(self, obj, name):
        with pytest.raises(InputError, match=f"^missing parameter '{name}'$"):
            indemnity_from_json(obj)

    @pytest.mark.parametrize("kind", [[1], {"a": 1}, 3, None])
    def test_json_kind_of_any_type_is_unknown(self, kind):
        with pytest.raises(InputError, match="^unknown indemnity kind "):
            indemnity_from_json({"kind": kind, "threshold": 1, "amount": 1})

    def test_json_round_trip(self):
        schedules = [
            FixedIndemnity(2, 1),
            StopLossIndemnity(F(1, 2)),
            PiecewiseIndemnity(((F(0), F(0)), (F(2), F(1)))),
        ]
        for i in schedules:
            assert indemnity_from_json(indemnity_to_json(i)) == i
        with pytest.raises(InputError):
            indemnity_from_json({"kind": "proportional", "share": "1/2"})
        with pytest.raises(InputError):
            indemnity_from_json(["fixed", 1, 1])
        with pytest.raises(InputError) as exc:
            indemnity_from_json({"kind": "piecewise"})
        assert str(exc.value) == "piecewise indemnity needs a 'knots' list"


halves = st.integers(0, 12).map(lambda k: F(k, 2))


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["fixed", "stop_loss", "piecewise"]))
    if kind == "fixed":
        threshold = draw(halves.filter(bool))
        return FixedIndemnity(threshold, draw(halves.filter(lambda a: a <= threshold)))
    if kind == "stop_loss":
        return StopLossIndemnity(draw(halves))
    xs = sorted(draw(st.sets(halves.filter(bool), min_size=1, max_size=4)))
    ys = [draw(halves.filter(lambda y, x=x: y <= x)) for x in xs]
    knots = [(F(0), F(0)), *zip(xs, ys)]
    (x0, y0), (x1, y1) = knots[-2:]
    if not 0 <= y1 - y0 <= x1 - x0:  # keep the final slope in [0, 1]
        knots[-1] = (x1, y0)
    return PiecewiseIndemnity(tuple(knots))


# E[I(X)] of an exponential loss as float.hex: the bits of marketable_check's
# infimum, pinned so that a change of route cannot move them
EXPONENTIAL_MEANS = {
    (0.5, FixedIndemnity(2, F(3, 2))): "0x1.1a880a8a1b36ap-1",
    (0.5, FixedIndemnity(F(1, 3), F(1, 10))): "0x1.5ab80ac81b628p-4",
    (0.5, StopLossIndemnity(2)): "0x1.78b56362cef38p-1",
    (0.5, StopLossIndemnity(F(1, 3))): "0x1.b1660d7a223b1p+0",
    (0.7, FixedIndemnity(2, F(3, 2))): "0x1.7ac5df2c88550p-2",
    (0.7, FixedIndemnity(50, 7)): "0x1.3e083670eb2c4p-48",
    (0.7, StopLossIndemnity(0)): "0x1.6db6db6db6db7p+0",
    (0.7, StopLossIndemnity(10)): "0x1.557df2663548bp-10",
    (3.0, FixedIndemnity(1, 1)): "0x1.97db0ccceb0afp-5",
    (3.0, FixedIndemnity(F(1, 3), F(1, 10))): "0x1.2d5de91bd8c2dp-5",
    (3.0, StopLossIndemnity(F(1, 3))): "0x1.f6472f2e6944bp-4",
    (3.0, StopLossIndemnity(2)): "0x1.b1317ec1a711dp-11",
}


class TestConditionalIndemnityMean:
    @given(schedules(), discrete_dists().map(lambda d: normalize((abs(v), p) for v, p in d.atoms)))
    def test_at_zero_is_the_expected_indemnity(self, i, x):
        # 0 <= I(X) <= X: the event X - I(X) >= 0 is certain
        want = sum(indemnity_value(i, v) * p for v, p in x.atoms)
        assert conditional_indemnity_mean(i, x, 0) == want

    @pytest.mark.parametrize("rate, i", list(EXPONENTIAL_MEANS))
    def test_exponential_expected_indemnity_bits(self, rate, i):
        want = float.fromhex(EXPONENTIAL_MEANS[rate, i])
        assert conditional_indemnity_mean(i, Exponential(rate), 0) == want
        with pytest.warns(UserWarning):
            v = marketable_check(i, Exponential(rate), 1000)
        assert v.witness.lhs == want

    def test_discrete_hand_case(self):
        x = uniform(1, 2, 3)
        i = StopLossIndemnity(F(3, 2))
        assert conditional_indemnity_mean(i, x, 0) == F(2, 3)
        assert conditional_indemnity_mean(i, x, F(5, 4)) == 1
        with pytest.raises(IrrelevantThresholdError):
            conditional_indemnity_mean(i, x, 2)

    def test_exponential_fixed_closed_form(self):
        i = FixedIndemnity(1, 1)
        x_dist = Exponential(1.0)
        for x in [0.0, 0.2, 0.5, 0.9]:
            got = conditional_indemnity_mean(i, x_dist, x)
            want = 1.0 / (1.0 + math.e - math.exp(x)) if x > 0 else math.exp(-1)
            assert got == pytest.approx(want, abs=1e-12)
        assert conditional_indemnity_mean(i, x_dist, 1.0) == 1.0
        assert conditional_indemnity_mean(i, x_dist, 2.0) == 1.0

    def test_exponential_fixed_is_nondecreasing(self):
        i = FixedIndemnity(2, F(3, 2))
        x_dist = Exponential(0.7)
        xs = [k / 10 for k in range(0, 31)]
        vals = [conditional_indemnity_mean(i, x_dist, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_exponential_stop_loss(self):
        i = StopLossIndemnity(2)
        x_dist = Exponential(0.5)
        base = math.exp(-1.0) / 0.5
        assert conditional_indemnity_mean(i, x_dist, 0) == pytest.approx(base)
        assert conditional_indemnity_mean(i, x_dist, 1) == pytest.approx(
            base / math.exp(-0.5)
        )
        with pytest.raises(IrrelevantThresholdError):
            conditional_indemnity_mean(i, x_dist, 2.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i", [FixedIndemnity(1, 1), StopLossIndemnity(1)])
    def test_exponential_non_finite_threshold_rejected(self, i, x):
        with pytest.raises(InputError, match="^non-finite value "):
            conditional_indemnity_mean(i, Exponential(1.0), x)

    def test_unsupported_pairings(self):
        pw = PiecewiseIndemnity(((F(0), F(0)), (F(1), F(1, 2))))
        with pytest.raises(UnsupportedPairingError):
            conditional_indemnity_mean(pw, Exponential(1.0), 0.5)
        with pytest.raises(UnsupportedPairingError):
            conditional_indemnity_mean(pw, LogNormal(0.0, 1.0), 0.5)


class TestMarketability:
    def test_exponential_verdicts(self):
        i = FixedIndemnity(1, 1)
        x_dist = Exponential(1.0)
        assert marketable_check(i, x_dist, math.exp(-1)).holds
        with pytest.warns(UserWarning):
            v = marketable_check(i, x_dist, math.exp(-1) + 1e-6)
        assert not v.holds
        with pytest.warns(UserWarning):
            v = marketable_check(i, x_dist, 0.4)
        assert not v.holds
        assert v.witness.value == 0.0
        assert v.witness.lhs == pytest.approx(math.exp(-1))

    @pytest.mark.parametrize("p0, holds", [
        (math.exp(-1) + 1e-12, True),  # above E[I(X)] but within the cushion
        (math.exp(-1) + 2e-9, False),
    ])
    def test_exponential_warning_agrees_with_the_verdict(self, p0, holds):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = marketable_check(FixedIndemnity(1, 1), Exponential(1.0), p0)
        assert v.holds is holds
        assert [str(w.message) for w in caught] == ([] if holds else [
            "premium exceeds the expected indemnity; the marketability "
            "condition cannot hold at every threshold"])

    def test_discrete_exact(self):
        x = uniform(1, 2, 3)
        i = StopLossIndemnity(F(3, 2))
        assert marketable_check(i, x, F(2, 3)).holds
        with pytest.warns(UserWarning):
            v = marketable_check(i, x, F(2, 3) + F(1, 1000))
        assert not v.holds
        assert v.witness.value == 1
        assert v.witness.lhs == F(2, 3)

    def test_monotone_in_premium(self):
        x = uniform(1, 2, 4)
        i = StopLossIndemnity(1)
        held = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # high premiums warn by design
            for k in range(0, 21):
                v = marketable_check(i, x, F(k, 10)).holds
                assert held or not v  # once it fails it stays failed
                held = v

    def test_negative_premium_rejected(self):
        with pytest.raises(InputError):
            marketable_check(StopLossIndemnity(1), uniform(1, 2), -1)

    def test_unsupported_loss(self):
        with pytest.raises(UnsupportedPairingError):
            marketable_check(StopLossIndemnity(1), LogNormal(0.0, 1.0), F(1, 10))


class TestIndifferencePremium:
    def test_linear_is_expected_indemnity(self):
        x = uniform(0, 1, 4)
        i = StopLossIndemnity(1)
        p = indifference_premium(LinearUtility(), 10, x, i)
        assert isinstance(p, F) and p == F(0 + 0 + 3, 3)

    def test_zero_schedule_zero_premium(self):
        x = uniform(0, 1)
        i = StopLossIndemnity(100)
        for u in (ExponentialUtility(1.0), PowerUtility(0.5)):
            assert indifference_premium(u, 10, x, i) == 0.0, u
        # the power utility's domain is checked before a zero schedule returns
        with pytest.raises(InputError) as exc:
            indifference_premium(PowerUtility(0.5), 10, uniform(0, 20), i)
        assert str(exc.value) == "power utility needs w - X >= 0 on the whole support"

    def test_risk_averse_pays_above_fair_for_slope_one(self):
        x = uniform(0, 2, 5)
        fair = F(0 + 1 + 4, 3)
        i = StopLossIndemnity(1)
        for u in (ExponentialUtility(0.5), ExponentialUtility(2.0), PowerUtility(0.5)):
            p = indifference_premium(u, 12, x, i)
            assert p >= float(fair) - 1e-9, u

    def test_piecewise_premium_bracketed(self):
        x = uniform(0, 1, 3)
        i = PiecewiseIndemnity(((F(0), F(0)), (F(1), F(1, 2)), (F(3), F(2))))
        p = indifference_premium(ExponentialUtility(1.0), 8, x, i)
        assert 0.0 < p <= 2.0

    @pytest.mark.parametrize("wealth", [math.nan, math.inf, -math.inf])
    def test_non_finite_wealth_rejected(self, wealth):
        x = uniform(0, 2)
        with pytest.raises(InputError, match="^non-finite value "):
            indifference_premium(ExponentialUtility(1.0), wealth, x, StopLossIndemnity(1))

    def test_power_domain_guard(self):
        x = uniform(0, 20)
        with pytest.raises(InputError):
            indifference_premium(PowerUtility(0.5), 10, x, StopLossIndemnity(1))

    def test_more_averse_pays_more(self):
        x = uniform(0, 3, 6)
        i = StopLossIndemnity(2)
        p1 = indifference_premium(ExponentialUtility(0.3), 15, x, i)
        p2 = indifference_premium(ExponentialUtility(1.5), 15, x, i)
        assert p2 >= p1 - 1e-9

    FLAT = (normalize([(0, 1), (2, 1)]),
            PiecewiseIndemnity(((F(0), F(0)), (F(1), F(0)), (F(2), F(1)))))

    def test_exponential_premium_is_free_of_the_wealth(self):
        x, i = self.FLAT
        ps = [indifference_premium(ExponentialUtility(1.0), w, x, i) for w in (10, 800, 1e20)]
        assert ps[0] == ps[1] == ps[2] == pytest.approx(0.81367, abs=1e-5)

    def test_exponential_premium_solves_the_indifference_equation(self):
        x, i = uniform(0, 1, 4), StopLossIndemnity(1)
        a, w = 0.7, 5.0
        p = indifference_premium(ExponentialUtility(a), w, x, i)
        def eu(premium):
            return sum(-math.exp(-a * (w - v + float(indemnity_value(i, v)) - premium)) for v in (0, 1, 4)) / 3
        assert eu(p) == pytest.approx(sum(-math.exp(-a * (w - v)) for v in (0, 1, 4)) / 3, rel=1e-14)

    def test_small_aversion_tends_to_the_expected_indemnity(self):
        x, i = self.FLAT
        assert indifference_premium(ExponentialUtility(1e-17), 10, x, i) == pytest.approx(0.5, abs=1e-9)

    def test_rare_top_atom_under_large_aversion(self):
        # every other atom's weight rounds to 1.0 and its expm1 to -1: log1p(-1) is undefined
        x = normalize([(0, 10**20 - 1), (30, 1)])
        p = indifference_premium(ExponentialUtility(100.0), 10, x, StopLossIndemnity(0))
        assert p == pytest.approx(30 + math.log(1e-20) / 100, rel=1e-12)

    def test_aversion_beyond_binary64_rejected(self):
        x, i = self.FLAT
        with pytest.raises(InputError, match="^aversion 1e\\+308 "):
            indifference_premium(ExponentialUtility(1e308), 10, x, i)

    def test_power_premium_unresolved_at_large_wealth(self):
        x, i = self.FLAT
        assert 0.5 < indifference_premium(PowerUtility(0.5), 10, x, i) < 1.0
        with pytest.raises(InputError, match="^power utility at wealth 1e\\+20 "):
            indifference_premium(PowerUtility(0.5), 1e20, x, i)

    def test_utility_spec_parsing(self):
        assert utility_from_spec("linear") == LinearUtility()
        assert utility_from_spec("exp:0.5") == ExponentialUtility(0.5)
        assert utility_from_spec("power:0.3") == PowerUtility(0.3)
        for bad in ("quadratic", "exp:", "exp:x", "power:2"):
            with pytest.raises(InputError):
                utility_from_spec(bad)
        with pytest.raises(InputError) as exc:
            ExponentialUtility(0.0)
        assert str(exc.value) == "aversion must be positive, got 0.0"

    def test_parametric_loss_rejected(self):
        with pytest.raises(InputError):
            indifference_premium(LinearUtility(), 10, Exponential(1.0), StopLossIndemnity(1))

    def test_unknown_utility_rejected(self):
        with pytest.raises(InputError) as exc:
            indifference_premium("exp:1", 10, uniform(0, 2), StopLossIndemnity(1))
        assert str(exc.value) == "unknown utility 'exp:1'"


class TestStopLossComparison:
    def test_independent_nonnegative_addon(self):
        j = normalize_joint(
            [(0, 0, F(1, 4)), (0, 1, F(1, 4)), (2, 0, F(1, 4)), (2, 1, F(1, 4))]
        )
        cmp = stop_loss_compare(j)
        assert cmp.condition.holds and cmp.dominates
        assert cmp.deductibles == (F(0), F(1), F(2), F(3))
        base = joint_marginal_w(j)
        total = joint_sum(j)
        assert cmp.base_premiums == tuple(stop_loss(base, d) for d in cmp.deductibles)
        assert cmp.summed_premiums == tuple(
            stop_loss(total, d) for d in cmp.deductibles
        )
        assert all(isinstance(v, F) for v in cmp.base_premiums)

    def test_negative_drag_fails_both(self):
        j = normalize_joint([(0, 0, F(1, 2)), (2, -1, F(1, 2))])
        cmp = stop_loss_compare(j)
        assert not cmp.condition.holds
        assert not cmp.dominates

    def test_dominance_without_condition(self):
        # Z < 0 only on the lower tail of X: the sufficient condition fails
        # at the bottom threshold while the curves still order correctly
        j = normalize_joint([(0, 1, F(1, 2)), (3, 0, F(1, 2))])
        cmp = stop_loss_compare(j)
        assert cmp.dominates  # adding a nonnegative Z always dominates

    def test_verdict_fails_at_the_least_deductible_below_the_base(self):
        rng = random.Random(43)
        failing = 0
        for _ in range(300):
            j = random_joint(rng, nonneg_w=True)
            cmp = stop_loss_compare(j)
            base, total = joint_marginal_w(j), joint_sum(j)
            below = [d for d in cmp.deductibles if ref.stop_loss(total, d) < ref.stop_loss(base, d)]
            assert cmp.verdict.holds == cmp.dominates == (not below)
            if below:
                failing += 1
                d = below[0]
                assert cmp.verdict.witness == Witness(
                    "angle_t", d, ref.stop_loss(total, d), ref.stop_loss(base, d))
        assert failing > 50

    def test_custom_deductibles(self):
        j = normalize_joint([(0, 0, F(1, 2)), (2, 1, F(1, 2))])
        cmp = stop_loss_compare(j, deductibles=[0, F(1, 2), 10])
        assert cmp.deductibles == (F(0), F(1, 2), F(10))
        assert cmp.summed_premiums[-1] == 0

    def test_validation(self):
        j = normalize_joint([(-1, 0, F(1, 2)), (1, 0, F(1, 2))])
        with pytest.raises(InputError):
            stop_loss_compare(j)
        j2 = normalize_joint([(0, 0, F(1, 2)), (1, 0, F(1, 2))])
        with pytest.raises(InputError):
            stop_loss_compare(j2, deductibles=[-1])
        with pytest.raises(InputError):
            stop_loss_compare(j2, deductibles=[])


class TestProtectivePut:
    PARAMS = BSParams(spot=1.0, strike=1.0, sigma=0.2, drift=-0.05, horizon=1.0)

    def test_bs_put_golden(self):
        flat = BSParams(1.0, 1.0, 0.2, 0.0, 1.0)
        assert bs_put(flat, 0.0, 1.0) == pytest.approx(0.0796556745540580, abs=1e-12)

    def test_bs_put_bounds_and_monotonicity(self):
        p = self.PARAMS
        lo = bs_put(p, 0.5, 0.8)
        hi = bs_put(p, 0.5, 1.2)
        assert lo > hi > 0
        assert lo >= 1.0 - 0.8  # above intrinsic value

    def test_drift_guard_message(self):
        with pytest.raises(InputError, match="nonpositive growth"):
            BSParams(1.0, 1.0, 0.2, 0.01, 1.0)

    def test_param_validation(self):
        with pytest.raises(InputError):
            BSParams(0.0, 1.0, 0.2, 0.0, 1.0)
        with pytest.raises(InputError):
            BSParams(1.0, 1.0, -0.2, 0.0, 1.0)
        with pytest.raises(InputError):
            BSParams(1.0, 1.0, 0.2, 0.0, 0.0)
        with pytest.raises(InputError):
            bs_put(self.PARAMS, 1.0, 1.0)
        with pytest.raises(InputError):
            bs_put(self.PARAMS, 0.5, -1.0)

    def test_expected_put_exceeds_initial_price(self):
        p0 = bs_put(self.PARAMS, 0.0, self.PARAMS.spot)
        for t in (0.25, 0.5, 0.75):
            assert expected_put_value(self.PARAMS, t) >= p0

    def test_holds_across_times(self):
        for t in (0.25, 0.5, 0.75):
            v = protective_put_check(self.PARAMS, t)
            assert v.holds, t

    def test_zero_drift_boundary_holds(self):
        flat = BSParams(1.0, 1.0, 0.2, 0.0, 1.0)
        assert protective_put_check(flat, 0.5).holds

    def test_custom_grid(self):
        v = protective_put_check(self.PARAMS, 0.5, x_grid=[0.5, 1.0, 1.5])
        assert v.holds

    def test_time_domain(self):
        with pytest.raises(InputError):
            protective_put_check(self.PARAMS, 0.0)
        with pytest.raises(InputError):
            protective_put_check(self.PARAMS, 1.0)
        with pytest.raises(InputError):
            protective_put_check(self.PARAMS, 0.5, x_grid=[])

    @pytest.mark.parametrize("k", range(13))
    @pytest.mark.parametrize("drift", [0.0, -0.05])
    def test_verdict_is_free_of_the_currency_unit(self, k, drift):
        unit = float(10**k)
        assert protective_put_check(BSParams(unit, unit, 0.2, drift, 1.0), 0.5).holds

    @pytest.mark.parametrize("spot, strike", [(1.0, 1e6), (1e6, 1.0), (1.0, 1e9), (1e9, 1.0)])
    def test_holds_for_far_apart_spot_and_strike(self, spot, strike):
        assert protective_put_check(BSParams(spot, strike, 0.2, 0.0, 1.0), 0.5).holds

    def test_non_finite_grid_points_rejected(self):
        for grid in ([float("nan")], [0.5, float("nan")], [float("inf")], [0.5, -math.inf]):
            with pytest.raises(InputError, match="x grid point must be finite"):
                protective_put_check(self.PARAMS, 0.5, x_grid=grid)


class TestInternalErrors:
    """Each in-library cross-check raises InternalError with both routes'
    outputs when its routes are made to disagree."""

    def test_gaussian_numeric_route(self, monkeypatch):
        case = GaussianCase(-0.2, 0.5, 0.3)  # cond_new holds analytically
        monkeypatch.setattr(models, "gaussian_cond_new_numeric", lambda c: False)
        with pytest.raises(InternalError) as exc:
            gaussian_region(case)
        assert exc.value.routes == {"numeric_lower_tail": False, "analytic": True}
        assert exc.value.inputs == case

    def test_gaussian_parametric_route(self, monkeypatch):
        case = GaussianCase(-0.1, 1.0, -0.6)  # outside the ssd region
        monkeypatch.setattr(models, "gaussian_ssd_check", lambda c: True)
        with pytest.raises(InternalError) as exc:
            gaussian_region(case)
        assert exc.value.routes == {"parametric_ssd": True, "analytic": False}
        assert isinstance(exc.value, RuntimeError)

    def test_bernoulli_closed_form(self, monkeypatch):
        case = BernoulliCase(F(3, 5), F(1, 2))
        real = bernoulli_region(case)
        real_first_failure = apps._first_failure  # one call decides (lower, point)

        def classic_holds(*args):
            return [real_first_failure(*args)[0], apps.OrderVerdict(True)]

        monkeypatch.setattr(apps, "_first_failure", classic_holds)
        with pytest.raises(InternalError) as exc:
            bernoulli_region(case)
        routes = exc.value.routes
        assert routes["closed_form"] == real
        assert routes["checker"] == type(real)(real.ssd, real.cond_new, True)
        assert exc.value.inputs == case

    def test_ssd_routes_in_both_checks(self, monkeypatch):
        # the integer routes keep check_ssd's dual cross-check, and the
        # error reports the public laws of the two sides
        from stochorder import orders

        monkeypatch.setattr(orders, "_icx_walk", lambda *args: apps.OrderVerdict(True))
        drag = normalize_joint([(0, -1, F(1, 2)), (1, 0, F(1, 2))])
        with pytest.raises(InternalError, match="ssd decision routes disagree") as exc:
            improver_check(drag)
        assert not exc.value.routes["integrated_quantiles"].holds
        assert exc.value.routes["shortfall_from_top"].holds
        assert exc.value.inputs == (joint_sum(drag), joint_marginal_w(drag))
        case = BernoulliCase(F(2, 5), F(1, 2))  # outside the ssd region
        with pytest.raises(InternalError, match="ssd decision routes disagree") as exc:
            bernoulli_region(case)
        j = bernoulli_joint(case)
        assert exc.value.inputs == (joint_marginal_w(j), joint_sum(j))

    def test_stop_loss_compare(self, monkeypatch):
        j = normalize_joint([(0, 0, F(1, 2)), (2, -1, F(1, 2))])  # no dominance
        monkeypatch.setattr(apps, "cond_icx", lambda j: apps.OrderVerdict(True))
        with pytest.raises(InternalError) as exc:
            stop_loss_compare(j)
        routes = exc.value.routes
        assert routes["cond_icx"].holds
        base, summed = routes["stop_loss_curves"]
        assert any(s < b for s, b in zip(summed, base))
        assert exc.value.inputs[0] == j

    @pytest.mark.parametrize("drift, bump", [(-0.05, -1.0), (0.05, 1.0)],
                             ids=["closed-form-loss", "theorem-fails"])
    def test_put_drift_theorem_against_the_closed_form(self, monkeypatch, drift, bump):
        # the drift's sign and the sign of E[P_t] - P_0 must agree; a positive
        # drift is set past BSParams' rule
        params = BSParams(1.0, 1.0, 0.2, min(drift, 0.0), 1.0)
        object.__setattr__(params, "drift", drift)
        p0 = bs_put(params, 0.0, params.spot)
        monkeypatch.setattr(models, "expected_put_value", lambda params, t: p0 + bump)
        with pytest.raises(InternalError, match="the drift's sign and the closed-form mean") as exc:
            protective_put_check(params, 0.5)
        assert exc.value.routes == {"drift_theorem": drift <= 0, "closed_form_gain": bump}
        assert exc.value.inputs == (params, 0.5)
