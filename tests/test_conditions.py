"""Dependence conditions on joint laws and the comonotonicity test."""

import random
from fractions import Fraction as F

import pytest

from stochorder import (
    InternalError,
    check_cx,
    check_icx,
    check_ssd,
    cond_classic,
    cond_cx_pair,
    cond_icx,
    cond_new,
    cond_on_difference,
    joint_marginal_w,
    joint_sum,
    normalize,
    normalize_joint,
    point_mass_dist,
)
from stochorder.orders import OrderVerdict, Witness

from .gen import mean_preserving_spread, random_discrete, random_joint
from .reference import is_comonotone


def J(*cells):
    return normalize_joint(cells)


def _mean_z(j):
    return sum(z * p for _, z, p in j.atoms)


def _recentered(j):
    """Shift the move so E[Z] = 0 exactly."""
    m = _mean_z(j)
    return normalize_joint((w, z - m, p) for w, z, p in j.atoms)


class TestExamples:
    def test_icx_example_fails_at_top_anchor(self):
        j = J((0, 1, F(1, 2)), (1, F(-1, 4), F(1, 2)))
        v = cond_icx(j)
        assert not v.holds
        assert v.witness.value == 1
        assert v.witness.lhs == F(-1, 4)

    def test_new_holds_on_negatively_aligned_square(self):
        # lower anchor pairs with the negative move
        j = J((0, F(-1, 2), F(1, 2)), (1, F(1, 4), F(1, 2)))
        v = cond_new(j)
        assert v.holds  # E[Z|W<=0] = -1/2, E[Z] = -1/8
        assert not cond_classic(j).holds  # E[Z|W=1] = 1/4 > 0

    def test_classic_symmetric_square(self):
        j = J(
            (0, F(-1, 2), F(1, 4)), (0, F(1, 2), F(1, 4)),
            (1, F(-1, 2), F(1, 4)), (1, F(1, 2), F(1, 4)),
        )
        assert cond_classic(j).holds
        assert cond_new(j).holds
        assert cond_cx_pair(j).holds

    def test_difference_condition_degenerate(self):
        j = J((1, 1, F(1, 2)), (-1, -1, F(1, 2)))
        assert cond_on_difference(j).holds
        # the certified convex-order conclusion for the zero-mean case
        diff = normalize((y - z, p) for y, z, p in j.atoms)
        assert diff == point_mass_dist(0)
        assert check_cx(diff, joint_marginal_w(j)).holds

    def test_difference_condition_failing(self):
        j = J((1, 1, F(1, 2)), (-1, F(-1, 2), F(1, 2)))
        # V = Y - Z has atoms -1/2 and 0; the full-space anchor x=0 exposes
        # the positive expected move E[Z] = 1/4
        v = cond_on_difference(j)
        assert not v.holds
        assert v.witness.value == F(0)

    def test_relevant_thresholds(self):
        j = J((0, 1, F(1, 4)), (2, 0, F(1, 2)), (0, -1, F(1, 4)))
        assert joint_marginal_w(j).values == (F(0), F(2))


class TestImplications:
    def test_classic_implies_new_and_ssd(self):
        rng = random.Random(101)
        found = 0
        for _ in range(800):
            j = random_joint(rng)
            if cond_classic(j).holds:
                found += 1
                assert cond_new(j).holds
                assert check_ssd(joint_marginal_w(j), joint_sum(j)).holds
        assert found > 20

    def test_new_implies_ssd_of_sum(self):
        rng = random.Random(102)
        found = 0
        for _ in range(800):
            j = random_joint(rng)
            if cond_new(j).holds:
                found += 1
                assert check_ssd(joint_marginal_w(j), joint_sum(j)).holds
        assert found > 100

    def test_icx_condition_implies_icx_dominance_of_sum(self):
        rng = random.Random(103)
        found = 0
        for _ in range(800):
            j = random_joint(rng)
            if cond_icx(j).holds:
                found += 1
                assert check_icx(joint_sum(j), joint_marginal_w(j)).holds
        assert found > 100

    def test_cx_pair_implies_convex_order(self):
        rng = random.Random(104)
        found = 0
        for _ in range(600):
            j = _recentered(random_joint(rng))
            if cond_cx_pair(j).holds:
                found += 1
                assert check_cx(joint_marginal_w(j), joint_sum(j)).holds
        assert found > 10

    def test_cx_pair_is_zero_mean_plus_either_tail_condition(self):
        rng = random.Random(105)
        for _ in range(400):
            raw = random_joint(rng)
            assert cond_cx_pair(raw).holds == (
                _mean_z(raw) == 0 and cond_new(raw).holds
            )
            j = _recentered(raw)
            assert cond_cx_pair(j).holds == cond_new(j).holds
            # with a centered move the two one-sided tail conditions coincide
            assert cond_new(j).holds == cond_icx(j).holds


    def test_cx_pair_tail_disagreement_raises_with_both_verdicts(self, monkeypatch):
        from stochorder import conditions

        first_failure = conditions._first_failure

        def upper_always_holds(*args):
            tails = args[6:]  # after the six JointInts columns
            return [OrderVerdict(True) if t == "upper" else v
                    for t, v in zip(tails, first_failure(*args))]

        monkeypatch.setattr(conditions, "_first_failure", upper_always_holds)
        j = J((0, 1, F(1, 2)), (1, -1, F(1, 2)))
        with pytest.raises(InternalError) as exc:
            cond_cx_pair(j)
        assert exc.value.routes == {
            "lower_tail": OrderVerdict(False, Witness("threshold_x", F(0), F(1), F(0))),
            "upper_tail": OrderVerdict(True),
        }
        assert exc.value.inputs == j

    def test_cx_pair_groups_its_cells_once(self, monkeypatch):
        from stochorder import conditions

        first_failure = conditions._first_failure
        calls = []

        def counted(*args):
            calls.append(args[6:])
            return first_failure(*args)

        monkeypatch.setattr(conditions, "_first_failure", counted)
        assert cond_cx_pair(J((0, 1, F(1, 2)), (1, -1, F(1, 2)))) == OrderVerdict(
            False, Witness("threshold_x", F(0), F(1), F(0))
        )
        assert calls == [("lower", "upper")]


def _quantile_joint(x, y):
    """The comonotone joint of (X, Y) as a joint of (W, Z) = (X, Y - X):
    on each stretch of the merged quantile grid, atom i of X holds the mass
    just below the level and so does atom j of Y, and the cell is
    (x_i, y_j - x_i) with the stretch's width."""
    cells, i, j, p = [], 0, 0, F(0)
    cx, cy = x.probs[0], y.probs[0]
    while p < 1:
        level = min(cx, cy)
        cells.append((x.values[i], y.values[j] - x.values[i], level - p))
        p = level
        if cx == p < 1:
            i += 1
            cx += x.probs[i]
        if cy == p < 1:
            j += 1
            cy += y.probs[j]
    return normalize_joint(cells)


class TestOnlyIf:
    """The paper's conditions are sufficient, and every holding order has
    some joint that meets them: the quantile joint of (W, W + Z), whose
    marginals are W and W + Z."""

    def _holding(self, seed, draws, decide):
        rng, found = random.Random(seed), 0
        for _ in range(draws):
            j = random_joint(rng)
            w, total = joint_marginal_w(j), joint_sum(j)
            if decide(w, total).holds:
                found += 1
                q = _quantile_joint(w, total)
                assert (joint_marginal_w(q), joint_sum(q)) == (w, total)
                yield q
        assert found > draws // 3

    def test_dominance_yields_a_joint_meeting_the_lower_tail_condition(self):
        for q in self._holding(20260818, 1500, check_ssd):
            assert cond_new(q).holds, q

    def test_icx_dominance_yields_a_joint_meeting_the_upper_tail_condition(self):
        for q in self._holding(7, 1500, lambda w, total: check_icx(total, w)):
            assert cond_icx(q).holds, q

    def test_spreads_yield_a_joint_meeting_the_pair_condition(self):
        rng = random.Random(8)
        for _ in range(300):
            x = random_discrete(rng, 8)
            y = mean_preserving_spread(rng, x)
            if rng.random() < 0.5:
                y = mean_preserving_spread(rng, y)
            q = _quantile_joint(x, y)
            assert (joint_marginal_w(q), joint_sum(q)) == (x, y)
            assert cond_cx_pair(q).holds, (x, y)


class TestCouplingTransport:
    def test_martingale_transport_passes_difference_condition(self):
        from stochorder import coupling_to_joint, synth_martingale
        from .test_dists import uniform

        x = uniform(0, 2)
        y = uniform(-1, 0, 2, 3)
        res = synth_martingale(x, y)
        assert res.feasible
        j = coupling_to_joint(res.coupling)
        relabeled = normalize_joint((w + z, z, p) for w, z, p in j.atoms)
        assert cond_on_difference(relabeled).holds


class TestComonotone:
    def test_sorted_pairs(self):
        assert is_comonotone([(0, 0), (1, 2), (3, 2)])

    def test_discordant_pair(self):
        assert not is_comonotone([(0, 1), (1, 0)])

    def test_constant_first_coordinate_is_fine(self):
        assert is_comonotone([(1, 0), (1, 5), (2, 5)])

    def test_zero_mass_atoms_ignored(self):
        assert is_comonotone([(0, 1, F(1, 2)), (1, 0, F(0)), (1, 2, F(1, 2))])

    def test_weighted_discordance(self):
        assert not is_comonotone([(0, 1, F(1, 2)), (1, 0, F(1, 2))])




class TestBiatomicEquivalence:
    def test_small_spread_addon_exhaustive(self):
        """Exploratory: for a two-point W at gap 1 and bi-atomic Z with
        spread at most that gap, the lower-tail condition is not just
        sufficient but equivalent to the dominance conclusion.  Verified
        here by exhaustive search over an eighth-resolution grid; advisory
        rather than gating, since the general claim is not part of the
        package's contract."""
        grid = [F(k, 8) for k in range(5)]  # cell masses 0..1/2
        for z1_num in range(-8, 1):
            z1 = F(z1_num, 8)
            for s_num in range(0, 9):
                z2 = z1 + F(s_num, 8)
                for p00 in grid:
                    for p10 in grid:
                        cells = [
                            (F(0), z1, p00),
                            (F(0), z2, F(1, 2) - p00),
                            (F(1), z1, p10),
                            (F(1), z2, F(1, 2) - p10),
                        ]
                        j = normalize_joint(
                            (w, z, p) for w, z, p in cells if p > 0
                        )
                        ssd = check_ssd(joint_marginal_w(j), joint_sum(j)).holds
                        assert ssd == cond_new(j).holds, (z1, z2, p00, p10)
