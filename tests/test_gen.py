"""The generators' draw sequence, pinned: every sweep seed reproduces its instances."""

import random
from fractions import Fraction as F

from . import gen


def _atoms(text):
    """Atoms written as rows of space-separated rationals, one row per ';'."""
    return tuple(tuple(F(v) for v in row.split()) for row in text.split(";"))


def test_first_draws_from_a_fixed_seed():
    rng = random.Random(20260818)
    assert [gen.random_weight(rng) for _ in range(3)] == [F(11, 30), F(7, 60), F(2, 3)]
    x = gen.random_discrete(rng)
    assert x.atoms == _atoms("-3 10/73; -5/2 43/146; 2 20/73; 7/2 43/146")
    assert gen.random_shift_down(rng, x).atoms == _atoms(
        "-17/3 10/73; -31/6 43/146; -2/3 20/73; 5/6 43/146")
    assert gen.mean_preserving_spread(rng, x).atoms == _atoms(
        "-5 43/292; -3 10/73; 0 43/292; 2 20/73; 7/2 43/146")
    assert gen.random_joint(rng).atoms == _atoms(
        "-3 -5/2 14/167; -3 1/2 1/167; -3 5/2 12/167; -5/2 -5/2 42/167; "
        "-5/2 1/2 39/167; -5/2 5/2 27/167; -1 1/2 2/167; -1 5/2 30/167")
    assert gen.random_joint(rng, nonneg_w=True).atoms == _atoms(
        "0 -3/2 23/329; 0 2 5/329; 0 5/2 58/329; 4 -5/2 5/329; 4 -3/2 22/329; "
        "4 2 17/329; 9/2 -5/2 46/329; 9/2 -3/2 34/329; 9/2 1/2 39/329; "
        "9/2 3/2 8/329; 9/2 5/2 20/329; 11/2 1/2 3/329; 11/2 5/2 7/47")
    assert gen.random_comonotone_improver_joint(rng).atoms == _atoms(
        "-3 -1 47/256; 1 -9/2 27/128; 3/2 -5/2 37/256; 9/2 -1 11/64; "
        "5 1/2 21/256; 11/2 1/2 53/256")
    assert rng.random() == 0.6023660183703211


def test_gaussian_improver_joint_is_fixed():
    j = gen.gaussian_improver_joint(0.3, n=2)
    assert len(j.atoms) == 4
    assert j.atoms[0] == (
        F(-2828293382064942808778327532245, 2535301200456458802993406410752),
        F(1118258708697314432524225946325, 2535301200456458802993406410752),
        F(1, 4),
    )
