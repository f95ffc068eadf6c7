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
from stochorder.orders import _scale

from .gen import mean_preserving_spread, narrow_against_wide, random_discrete, random_shift_down
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


def _sums(c):
    """Each row's sum and drift and each column's sum, over Fractions."""
    rows, drifts, cols = {}, {}, {}
    for i, j, mass in c.cells:
        rows[i] = rows.get(i, 0) + mass
        drifts[i] = drifts.get(i, 0) + (c.col_values[j] - c.row_values[i]) * mass
        cols[j] = cols.get(j, 0) + mass
    return rows, drifts, cols


class TestVerifierAtSize:
    """A 400 x 400 narrow-against-wide martingale coupling, whose masses
    carry many denominators, and mutations of its cells that keep some of
    the sums the verifier compares."""

    @pytest.fixture(scope="class")
    def built(self):
        x, y = narrow_against_wide(random.Random(3), 400)
        c = synth_martingale(x, y).coupling
        assert len({mass.denominator for _, _, mass in c.cells}) > 10
        return c, x, y

    def _mutated(self, c, changes):
        """c with each (row, column) cell's mass moved by the given amount."""
        cells = {(i, j): mass for i, j, mass in c.cells}
        for key, delta in changes:
            cells[key] = cells.get(key, 0) + delta
        return Coupling(c.row_values, c.col_values, c.row_probs, c.col_probs,
                        tuple((i, j, mass) for (i, j), mass in sorted(cells.items())))

    def _rejected(self, c, x, y):
        return not any(verify_coupling(c, x, y, mode) for mode in ("martingale", "supermartingale"))

    def test_unmutated_coupling_verifies(self, built):
        c, x, y = built
        assert verify_coupling(c, x, y, "martingale")
        assert verify_coupling(c, x, y, "supermartingale")

    def test_mass_moved_within_a_row(self, built):
        c, x, y = built
        (i, a, m), (_, b, _) = next(pair for pair in zip(c.cells, c.cells[1:]) if pair[0][0] == pair[1][0])
        bad = self._mutated(c, [((i, a), -m / 3), ((i, b), m / 3)])
        assert _sums(bad)[0] == _sums(c)[0]
        assert self._rejected(bad, x, y)

    def test_mass_moved_within_a_column(self, built):
        c, x, y = built
        by_column = sorted(c.cells, key=lambda cell: (cell[1], cell[0]))
        (r1, j, m), (r2, _, _) = next(pair for pair in zip(by_column, by_column[1:])
                                      if pair[0][1] == pair[1][1])
        bad = self._mutated(c, [((r1, j), -m / 3), ((r2, j), m / 3)])
        assert _sums(bad)[2] == _sums(c)[2]
        assert self._rejected(bad, x, y)

    def test_cell_moved_to_another_column_of_its_row(self, built):
        c, x, y = built
        i, j, m = c.cells[len(c.cells) // 2]
        taken = {k for r, k, _ in c.cells if r == i}
        k = next(k for k in range(j + 1, len(c.col_values)) if k not in taken)
        bad = self._mutated(c, [((i, j), -m), ((i, k), m)])
        assert _sums(bad)[0] == _sums(c)[0] and _sums(bad)[1] != _sums(c)[1]
        assert self._rejected(bad, x, y)

    def test_mass_moved_around_a_rectangle(self, built):
        # rows i1 < i2 and columns j1 < j2: every row and column sum is kept
        # and row i1 drifts up
        c, x, y = built
        i1, j1, m1 = c.cells[0]
        i2, j2, m2 = next(cell for cell in c.cells if cell[0] > i1 and cell[1] > j1)
        eps = min(m1, m2) / 2
        bad = self._mutated(c, [((i1, j1), -eps), ((i1, j2), eps), ((i2, j2), -eps), ((i2, j1), eps)])
        rows, drifts, cols = _sums(bad)
        assert (rows, cols) == (_sums(c)[0], _sums(c)[2]) and drifts[i1] > 0
        assert self._rejected(bad, x, y)

    def test_compensated_negative_mass(self, built):
        # row a gains d (y3 - y2, y1 - y3, y2 - y1) on columns j1 < j2 < j3 and
        # row b loses it: every sum and drift is kept, and cell (b, j1) turns
        # negative
        c, x, y = built
        b, j1, m = c.cells[len(c.cells) // 3]
        a = b - 1 if b else b + 1
        j2, j3 = j1 + 1, j1 + 2
        y1, y2, y3 = c.col_values[j1:j1 + 3]
        d = 2 * m / (y3 - y2)
        shifts = list(zip((j1, j2, j3), (d * (y3 - y2), d * (y1 - y3), d * (y2 - y1))))
        bad = self._mutated(c, [((a, j), s) for j, s in shifts] + [((b, j), -s) for j, s in shifts])
        assert _sums(bad) == _sums(c)
        assert min(mass for _, _, mass in bad.cells) < 0
        assert self._rejected(bad, x, y)

    # hand-built couplings with int, bool and float masses, summed exactly:
    # in float-rounded-sums 0.1 + 0.4 rounds to 0.5 in binary64, but the two
    # floats' exact sum misses every marginal mass of 1/2
    @pytest.mark.parametrize("x, y, cells, holds", [
        ([(0, 1)], [(0, 1)], ((0, 0, 1),), True),
        ([(0, 1)], [(0, 1)], ((0, 0, True),), True),
        ([(0, 1)], [(0, 1)], ((0, 0, 1.0),), True),
        ([(0, 1)], [(-1, 1), (1, 1)], ((0, 0, 0.5), (0, 1, 0.5)), True),
        ([(0, 1), (1, 1)], [(F(-1, 2), 1), (F(1, 2), 2), (F(3, 2), 1)],
         ((0, 0, 0.25), (0, 1, 0.25), (1, 1, 0.25), (1, 2, 0.25)), True),
        ([(0, 1)], [(-1, 1), (0, 1), (1, 1)], ((0, 0, 1 / 3), (0, 1, 1 / 3), (0, 2, 1 / 3)), False),
        ([(0, 1)], [(-1, 1), (1, 1)], ((0, 0, 0.25), (0, 1, 0.75)), False),
        ([(0, 1)], [(-1, 1), (1, 1)], ((0, 0, float("nan")), (0, 1, 0.5)), False),
        ([(0, 1)], [(-1, 1), (1, 1)], ((0, 0, float("inf")), (0, 1, 0.5)), False),
        ([(0, 1)], [(0, 1)], ((0, 0, 2),), False),
        ([(0, 1)], [(-1, 1), (1, 1)], ((0, 0, True), (0, 1, False)), False),
        ([(0, 1), (1, 1)], [(-10, 1), (-9, 1)], ((0, 0, 0.1), (0, 1, 0.4), (1, 0, 0.4), (1, 1, 0.1)),
         False),
    ], ids=["int", "bool", "float-one", "float-halves", "float-square", "float-thirds",
            "float-drift", "nan", "inf", "int-too-large", "bool-pair", "float-rounded-sums"])
    def test_int_bool_and_float_masses(self, x, y, cells, holds):
        x, y = normalize(x), normalize(y)
        c = Coupling(x.values, y.values, x.probs, y.probs, cells)
        assert verify_coupling(c, x, y, "supermartingale") == holds


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
            x, y, _, D = _scale(dx.ints, dy.ints)
            pieces, L = coupling._intermediate(x, y)
            assert all(u == x[0][i] for i, u, _ in pieces)
            curtain = coupling._left_curtain(list(zip(*x)), *y)
            cells = tuple(sorted((i, k, F(share, D * L * q)) for i, (q, shadow) in enumerate(curtain)
                                 for k, share in shadow))
            assert synth_martingale(dx, dy).coupling.cells == cells

    def test_one_piece_per_row_and_value(self):
        rng = random.Random(43)
        for _ in range(300):
            dx = random_discrete(rng, 8)
            dy = random_shift_down(rng, mean_preserving_spread(rng, dx))
            x, y, _, D = _scale(dx.ints, dy.ints)
            pieces, L = coupling._intermediate(x, y)
            assert len({(i, u) for i, u, _ in pieces}) == len(pieces)
            assert F(sum(mass for _, _, mass in pieces), D * L) == 1

    def test_point_mass_against_a_wide_law_at_the_cap(self):
        # every stretch of the walk lies in the one row of X, which meets the
        # shadow of U = X once, not once per stretch
        n = coupling._MAX_SUPPORT
        x = point_mass_dist(0)
        y = normalize((k - F(n - 1, 2), 1) for k in range(n))
        for synth, mode, shift in ((synth_martingale, "martingale", 0),
                                   (synth_supermartingale, "supermartingale", F(1, 3))):
            ys = affine(y, 1, -shift)
            pieces, _ = coupling._intermediate(*_scale(x.ints, ys.ints)[:2])
            assert sum(u == 0 for _, u, _ in pieces) == 1
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
        monkeypatch.setattr(coupling, "_left_curtain", lambda rows, vals, rems: None)
        with pytest.raises(InternalError, match="cannot place an atom") as exc:
            synth_supermartingale(x, y)
        assert exc.value.routes == {"check_ssd": check_ssd(x, y), "construction": None}
