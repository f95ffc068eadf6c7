"""Coupling synthesis: feasibility verdicts, verification, invariances."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    Coupling,
    InputError,
    InternalError,
    Normal,
    SynthResult,
    affine,
    check_cx,
    check_ssd,
    cond_classic,
    cond_new,
    coupling_to_joint,
    joint_marginal_w,
    joint_sum,
    mean,
    normalize,
    normalize_joint,
    point_mass_dist,
    synth_martingale,
    synth_supermartingale,
    verify_coupling,
)
from stochorder import coupling

from .gen import mean_preserving_spread, random_discrete, random_shift_down
from .test_dists import discrete_dists, uniform


class TestGoldenCouplings:
    def test_martingale_two_by_two(self):
        x = uniform(0, 2)
        y = uniform(-1, 3)
        res = synth_martingale(x, y)
        assert res.feasible
        assert res.coupling.pi == (
            (F(3, 8), F(1, 8)),
            (F(1, 8), F(3, 8)),
        )

    def test_identity_coupling(self):
        x = uniform(0, 1, 2)
        res = synth_martingale(x, x)
        assert res.feasible
        assert verify_coupling(res.coupling, x, x, "martingale")

    def test_constant_shift_supermartingale(self):
        x = uniform(0, 1)
        y = uniform(F(-1, 2), F(1, 2))
        res = synth_supermartingale(x, y)
        assert res.feasible
        assert verify_coupling(res.coupling, x, y, "supermartingale")

    def test_point_mass_to_spread_is_jensen_case(self):
        res = synth_supermartingale(point_mass_dist(0), uniform(-1, 1))
        assert res.feasible
        assert res.coupling.pi == ((F(1, 2), F(1, 2)),)
        assert synth_martingale(point_mass_dist(0), uniform(-1, 1)).feasible

    def test_infeasible_with_certificate(self):
        res = synth_supermartingale(uniform(0, 1), point_mass_dist(1))
        assert not res.feasible
        assert res.coupling is None
        assert res.certificate is not None

    def test_strict_contraction_martingale_infeasible(self):
        res = synth_martingale(uniform(-1, 1), point_mass_dist(0))
        assert not res.feasible
        assert res.certificate is not None


class TestVerifier:
    def _feasible_pair(self):
        x = uniform(0, 1, 4)
        y = normalize([(-1, F(1, 3)), (1, F(1, 3)), (4, F(1, 3))])
        res = synth_supermartingale(x, y)
        assert res.feasible
        return res.coupling, x, y

    def _with_cells(self, c, cells):
        return Coupling(c.row_values, c.col_values, c.row_probs, c.col_probs, tuple(cells))

    def test_perturbed_mass_fails(self):
        c, x, y = self._feasible_pair()
        eps = F(1, 1000)
        (i, j, p), *rest = c.cells
        total = 1 + eps
        cells = [(a, b, v / total) for a, b, v in [(i, j, p + eps), *rest]]
        assert not verify_coupling(self._with_cells(c, cells), x, y, "supermartingale")

    # each replaces a cell of row 1; the bool row and the split into two
    # halves leave every sum as it was
    @pytest.mark.parametrize("bad", [
        lambda i, j, p: [(F(i), j, p)],
        lambda i, j, p: [(i, float(j), p)],
        lambda i, j, p: [(True, j, p)],
        lambda i, j, p: [(-1, j, p)],
        lambda i, j, p: [(i, 3, p)],  # X and Y have three atoms each
        lambda i, j, p: [(3, j, p)],
        lambda i, j, p: [(i, j, p / 2), (i, j, p / 2)],
    ], ids=["fraction-row", "float-column", "bool-row", "negative-row",
            "column-out-of-range", "row-out-of-range", "repeated-cell"])
    def test_malformed_cell_fails(self, bad):
        c, x, y = self._feasible_pair()
        k = next(k for k, (i, _, _) in enumerate(c.cells) if i == 1)
        cells = [*c.cells[:k], *bad(*c.cells[k]), *c.cells[k + 1:]]
        assert not verify_coupling(self._with_cells(c, cells), x, y, "supermartingale")

    def test_negative_mass_fails_with_distinct_cells(self):
        # the square of test_hand_built_square_joint_as_coupling plus masses
        # 1/8 * (1, -2, 1) on row 0 and their negatives on row 1: every sum
        # and drift is kept, and cell (1, 0) turns negative
        x = uniform(0, 1)
        y = normalize([(F(-1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 4))])
        cells = ((0, 0, F(3, 8)), (0, 2, F(1, 8)),
                 (1, 0, F(-1, 8)), (1, 1, F(1, 2)), (1, 2, F(1, 8)))
        c = Coupling(x.values, y.values, x.probs, y.probs, cells)
        assert not verify_coupling(c, x, y, "martingale")

    def test_pieces_of_one_row_merge_into_distinct_cells(self):
        # row 1 reaches U's atom 1 through two pieces, and so every column twice
        x = normalize([(0, F(1, 3)), (1, F(2, 3))])
        y = uniform(-2, -1, 4)
        c = synth_supermartingale(x, y).coupling
        assert c.cells == ((0, 0, F(1, 6)), (0, 1, F(2, 15)), (0, 2, F(1, 30)),
                           (1, 0, F(1, 6)), (1, 1, F(1, 5)), (1, 2, F(3, 10)))
        assert c.pi == ((F(1, 6), F(2, 15), F(1, 30)), (F(1, 6), F(1, 5), F(3, 10)))
        assert verify_coupling(c, x, y, "supermartingale")

    def test_wrong_marginals_fail(self):
        c, x, y = self._feasible_pair()
        other = uniform(0, 1, 5)
        assert not verify_coupling(c, other, y, "supermartingale")

    def test_mode_distinguishes_drift(self):
        x = uniform(0, 1)
        y = uniform(F(-1, 2), F(1, 2))
        res = synth_supermartingale(x, y)
        assert verify_coupling(res.coupling, x, y, "supermartingale")
        # strict negative drift rows cannot satisfy the martingale equality
        assert not verify_coupling(res.coupling, x, y, "martingale")

    def test_hand_built_square_joint_as_coupling(self):
        # four-cell square with E[Z|W] = 0 row by row
        x = uniform(0, 1)
        y = normalize([(F(-1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 4))])
        cells = ((0, 0, F(1, 4)), (0, 1, F(1, 4)), (1, 1, F(1, 4)), (1, 2, F(1, 4)))
        c = Coupling(x.values, y.values, x.probs, y.probs, cells)
        assert verify_coupling(c, x, y, "supermartingale")
        assert verify_coupling(c, x, y, "martingale")

    def test_upward_drift_fails_supermartingale(self):
        # the identity coupling onto X + 1/2 drifts every row up by 1/2
        x = uniform(0, 1)
        y = uniform(F(1, 2), F(3, 2))
        cells = ((0, 0, F(1, 2)), (1, 1, F(1, 2)))
        c = Coupling(x.values, y.values, x.probs, y.probs, cells)
        assert not verify_coupling(c, x, y, "supermartingale")
        assert not verify_coupling(c, x, y, "martingale")

    def test_bad_mode_rejected(self):
        c, x, y = self._feasible_pair()
        with pytest.raises(InputError):
            verify_coupling(c, x, y, "submartingale")


class TestRoundtrip:
    def test_sweep_agrees_with_checkers(self):
        rng = random.Random(7)
        for k in range(120):
            x = random_discrete(rng)
            if k % 3 == 0:
                y = random_shift_down(rng, x)
            elif k % 3 == 1:
                y = mean_preserving_spread(rng, x)
            else:
                y = random_discrete(rng)
            rs = synth_supermartingale(x, y)
            assert rs.feasible == check_ssd(x, y).holds
            rm = synth_martingale(x, y)
            assert rm.feasible == check_cx(x, y).holds
            for res, mode in ((rs, "supermartingale"), (rm, "martingale")):
                if res.feasible:
                    assert verify_coupling(res.coupling, x, y, mode)
                    j = coupling_to_joint(res.coupling)
                    assert cond_classic(j).holds
                    assert cond_new(j).holds

    def test_joint_reproduces_marginals(self):
        x = uniform(0, 2, 3)
        y = random_shift_down(random.Random(9), x)
        res = synth_supermartingale(x, y)
        j = coupling_to_joint(res.coupling)
        assert joint_marginal_w(j) == x
        assert joint_sum(j) == y

    @settings(max_examples=150, deadline=None)
    @given(discrete_dists(), st.randoms(use_true_random=False))
    def test_joint_is_normalize_joint_of_the_cells(self, x, rng):
        spread = mean_preserving_spread(rng, x)
        for res in (synth_martingale(x, spread),
                    synth_supermartingale(x, random_shift_down(rng, spread)),
                    synth_supermartingale(x, random_discrete(rng))):
            if not res.feasible:
                continue
            c = res.coupling
            j = coupling_to_joint(c)
            want = normalize_joint((c.row_values[i], c.col_values[k] - c.row_values[i], mass)
                                   for i, k, mass in c.cells)
            assert j == want and j.ints == want.ints

    # each rearranges the cells of test_hand_built_square_joint_as_coupling
    @pytest.mark.parametrize("bad", [
        lambda cells: cells[::-1],
        lambda cells: cells[:1] + cells,
        lambda cells: ((-1, 0, cells[0][2]),) + cells[1:],
    ], ids=["unordered", "repeated", "negative-row"])
    def test_malformed_cells_rejected(self, bad):
        x = uniform(0, 1)
        y = normalize([(F(-1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 4))])
        cells = ((0, 0, F(1, 4)), (0, 1, F(1, 4)), (1, 1, F(1, 4)), (1, 2, F(1, 4)))
        c = Coupling(x.values, y.values, x.probs, y.probs, bad(cells))
        with pytest.raises(InputError, match="strictly ascending"):
            coupling_to_joint(c)

    def test_deterministic_output(self):
        x = uniform(0, 1, 4)
        y = normalize([(-1, F(1, 3)), (1, F(1, 3)), (4, F(1, 3))])
        first = synth_supermartingale(x, y)
        second = synth_supermartingale(x, y)
        assert first.coupling.pi == second.coupling.pi


class TestInvariances:
    def test_location_shift_preserves_feasibility(self):
        rng = random.Random(11)
        for _ in range(60):
            x = random_discrete(rng)
            y = random_discrete(rng)
            shift = F(rng.randint(-6, 6), 2)
            xs = affine(x, 1, shift)
            ys = affine(y, 1, shift)
            assert (
                synth_supermartingale(x, y).feasible
                == synth_supermartingale(xs, ys).feasible
            )
            assert (
                synth_martingale(x, y).feasible
                == synth_martingale(xs, ys).feasible
            )


class TestGuards:
    def test_support_guard(self, monkeypatch):
        monkeypatch.setattr(coupling, "_MAX_SUPPORT", 3)
        big = uniform(0, 1, 2, 3)
        with pytest.raises(InputError):
            synth_supermartingale(big, big)

    def test_support_guard_override_up(self, monkeypatch):
        monkeypatch.setattr(coupling, "_MAX_SUPPORT", 4)
        big = uniform(0, 1, 2, 3)
        assert synth_supermartingale(big, big).feasible

    def test_parametric_inputs_rejected(self):
        with pytest.raises(InputError):
            synth_supermartingale(Normal(0.0, 1.0), uniform(0, 1))

    def test_result_invariant(self):
        with pytest.raises(Exception):
            SynthResult(True, None, None)


def _chained_spreads(rng, atoms, splits):
    """Split a random atom into two equal halves around it, `splits` times,
    each at a distance that lands on no value already present."""
    atoms = dict(atoms)
    for _ in range(splits):
        v = rng.choice(sorted(atoms))
        d = F(rng.randint(1, 40), 16)
        while v - d in atoms or v + d in atoms:
            d = F(rng.randint(1, 40), 16)
        p = atoms.pop(v)
        atoms[v - d] = atoms[v + d] = p / 2
    return normalize(atoms.items())


def _hundred_by_hundred_fifty(seed, shift):
    rng = random.Random(seed)
    values = rng.sample(range(-2000, 2000), 100)
    x = normalize((F(v, 3), F(rng.randint(1, 59), 60)) for v in values)
    y = _chained_spreads(rng, [(v - shift, p) for v, p in x.atoms], 50)
    assert (len(x.atoms), len(y.atoms)) == (100, 150)
    return x, y


class TestLargeSupports:
    def test_chained_spreads_both_modes(self):
        x, y = _hundred_by_hundred_fifty(5, 0)
        for synth, mode in ((synth_martingale, "martingale"),
                            (synth_supermartingale, "supermartingale")):
            res = synth(x, y)
            assert res.feasible
            assert verify_coupling(res.coupling, x, y, mode)

    def test_shift_down_plus_spreads(self):
        x, y = _hundred_by_hundred_fifty(6, F(7, 4))
        res = synth_supermartingale(x, y)
        assert res.feasible
        assert verify_coupling(res.coupling, x, y, "supermartingale")
        res = synth_martingale(x, y)
        assert not res.feasible
        assert res.certificate == check_cx(x, y).witness


class TestWideWindows:
    def test_narrow_law_against_wide_law(self):
        # each atom of X sits inside Y's range, so its shadow straddles x and
        # empties atoms on both sides of it, in both modes
        rng = random.Random(8)
        x = normalize((F(k, 40) - F(1, 2), F(rng.randint(1, 59), 60)) for k in range(40))
        y = normalize((F(rng.randint(-400, 400), 4), F(rng.randint(1, 59), 60)) for _ in range(60))
        y = affine(y, 1, mean(x) - mean(y))
        for synth, mode, shift in ((synth_martingale, "martingale", 0),
                                   (synth_supermartingale, "supermartingale", F(1, 3))):
            ys = affine(y, 1, -shift)
            res = synth(x, ys)
            assert res.feasible
            assert verify_coupling(res.coupling, x, ys, mode)


class TestTenThousandAtoms:
    def test_narrow_law_against_wide_law_both_modes(self, monkeypatch):
        # uniform on n points against a 4x wider uniform with the same mean,
        # and that shifted down; the cells stay linear in n
        n = 10**4
        monkeypatch.setattr(coupling, "_MAX_SUPPORT", n)
        x = normalize((k, 1) for k in range(n))
        y = normalize((4 * k - F(3 * (n - 1), 2), 1) for k in range(n))
        for synth, mode, shift in ((synth_martingale, "martingale", 0),
                                   (synth_supermartingale, "supermartingale", F(1, 3))):
            ys = affine(y, 1, -shift)
            res = synth(x, ys)
            assert res.feasible
            assert len(res.coupling.cells) < 4 * n
            assert verify_coupling(res.coupling, x, ys, mode)


class TestOneConstruction:
    """Both modes run the intermediate-law construction; under equal means it
    leaves every atom of X in place."""

    def test_spreads_keep_every_atom_and_take_the_plain_left_curtain(self):
        rng = random.Random(41)
        for _ in range(300):
            dx = random_discrete(rng, 8)
            dy = mean_preserving_spread(rng, dx)
            if rng.random() < 0.5:
                dy = mean_preserving_spread(rng, dy)
            assert all(u == dx.values[i] for i, u, _ in coupling._intermediate(dx, dy))
            curtain = coupling._left_curtain(dx.atoms, dy)
            cells = tuple(sorted((i, k, share) for i, shadow in enumerate(curtain)
                                 for k, share in shadow))
            assert synth_martingale(dx, dy).coupling.cells == cells

    def test_one_piece_per_row_and_value(self):
        rng = random.Random(43)
        for _ in range(300):
            dx = random_discrete(rng, 8)
            dy = random_shift_down(rng, mean_preserving_spread(rng, dx))
            pieces = coupling._intermediate(dx, dy)
            assert len({(i, u) for i, u, _ in pieces}) == len(pieces)
            assert sum(mass for _, _, mass in pieces) == 1

    def test_point_mass_against_a_wide_law_at_the_cap(self):
        # every stretch of the walk lies in the one row of X, which meets the
        # shadow of U = X once, not once per stretch
        n = coupling._MAX_SUPPORT
        x = point_mass_dist(0)
        y = normalize((k - F(n - 1, 2), 1) for k in range(n))
        for synth, mode, shift in ((synth_martingale, "martingale", 0),
                                   (synth_supermartingale, "supermartingale", F(1, 3))):
            ys = affine(y, 1, -shift)
            assert sum(u == 0 for _, u, _ in coupling._intermediate(x, ys)) == 1
            res = synth(x, ys)
            assert res.feasible and len(res.coupling.cells) == n
            assert verify_coupling(res.coupling, x, ys, mode)


class TestInternalErrors:
    def test_rejected_coupling_raises_with_both_routes(self, monkeypatch):
        x, y = uniform(0, 2), uniform(-1, 3)
        monkeypatch.setattr(coupling, "verify_coupling", lambda *args: False)
        with pytest.raises(InternalError, match="fails verification") as exc:
            synth_martingale(x, y)
        routes = exc.value.routes
        assert routes["check_cx"].holds
        assert routes["construction"] == (
            (0, 0, F(3, 8)), (0, 1, F(1, 8)), (1, 0, F(1, 8)), (1, 1, F(3, 8)))
        assert exc.value.inputs == (x, y)
        assert isinstance(exc.value, RuntimeError)

    def test_unplaced_atom_raises(self, monkeypatch):
        x, y = uniform(0, 1), uniform(F(-1, 2), F(1, 2))
        monkeypatch.setattr(coupling, "_left_curtain", lambda rows, dy: None)
        with pytest.raises(InternalError, match="cannot place an atom") as exc:
            synth_supermartingale(x, y)
        assert exc.value.routes == {"check_ssd": check_ssd(x, y), "construction": None}
