"""Distribution layer: exact conversion, conventions, tail means, JSON."""

import json
import math
import operator
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from stochorder import (
    Bernoulli,
    DiscreteDist,
    Exponential,
    InputError,
    JointDist,
    LogNormal,
    Normal,
    PointMass,
    UnsupportedPairingError,
    affine,
    as_discrete,
    as_fraction,
    discretize,
    dist_from_json,
    dist_to_json,
    joint_from_json,
    joint_marginal_w,
    joint_sum,
    joint_to_json,
    mean,
    normalize,
    normalize_joint,
    point_mass_dist,
)
from stochorder import dists
from stochorder.dists import norm_cdf, norm_pdf, norm_quantile
from stochorder.risk import es, phi

from . import reference as ref


def uniform(*values) -> DiscreteDist:
    p = F(1, len(values))
    return normalize((v, p) for v in values)


lattice_values = st.integers(-12, 12).map(lambda k: F(k, 2))


@st.composite
def discrete_dists(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    values = draw(
        st.lists(lattice_values, min_size=n, max_size=n, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 59), min_size=n, max_size=n))
    return normalize((v, F(w, 60)) for v, w in zip(values, weights))


class TestAsFraction:
    def test_int(self):
        assert as_fraction(3) == F(3)

    def test_rational_string(self):
        assert as_fraction("-7/3") == F(-7, 3)

    def test_decimal_string(self):
        assert as_fraction("0.5") == F(1, 2)

    def test_float_is_exact_dyadic(self):
        assert as_fraction(0.1) == F(0.1)
        assert as_fraction(0.1) != F(1, 10)

    def test_rejects_bool(self):
        with pytest.raises(InputError):
            as_fraction(True)

    def test_rejects_other_objects(self):
        with pytest.raises(InputError, match="^cannot interpret <object object at .*> as a rational$"):
            as_fraction(object())

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            as_fraction(float("nan"))
        with pytest.raises(InputError):
            as_fraction(float("inf"))

    def test_exponent_bound(self):
        for s in ("1e4301", "1E-4301", "2.5e+4301"):
            with pytest.raises(InputError, match="exponent"):
                as_fraction(s)

    def test_digit_bound(self):
        # 10**4299 has 4300 digits, CPython's default limit for int strings
        assert as_fraction("1e4299") == F(10) ** 4299
        assert as_fraction("-25E-4299") == F(-25, 10**4299)
        assert as_fraction("9.99e4299") == F(999 * 10**4297)
        for s in ("1e4300", "-3E-4300", "10e4299", "-0.5e-4300"):
            with pytest.raises(InputError, match="more than 4300 digits"):
                as_fraction(s)

    def test_length_bound(self):
        # the longest string is a ratio at the digit bound, printed with its sign
        longest = "-" + "7" * 4300 + "/" + "8" * 4299 + "9"
        assert len(longest) == 8602
        assert as_fraction(longest) == F(-int("7" * 4300), int("8" * 4299 + "9"))
        assert as_fraction(" 1/3 ") == F(1, 3)
        with pytest.raises(InputError, match="8603 characters"):
            as_fraction(longest + "1")
        with pytest.raises(InputError, match="characters"):
            as_fraction("1/" + "3" * 8601)
        with pytest.raises(InputError):
            as_fraction("7" * 4301)


# one hand-built invalid law per validator error class, with its message;
# where a law has several defects, its first defective atom decides
BAD_LAWS = [
    ((), "discrete law needs at least one atom"),
    (((1, F(1)),), "atoms must hold Fraction values and probabilities"),
    (((F(1), 1),), "atoms must hold Fraction values and probabilities"),
    (((0.5, F(1)),), "atoms must hold Fraction values and probabilities"),
    (((F(0), F(0)), (F(1), F(1))), "atom probability must be positive, got 0"),
    (((F(0), F(-1, 2)), (F(1), F(3, 2))), "atom probability must be positive, got -1/2"),
    (((F(1), F(1, 2)), (F(1), F(1, 2))), "atom values must be strictly increasing"),
    (((F(1, 3), F(1, 2)), (F(1, 4), F(1, 2))), "atom values must be strictly increasing"),
    (((F(0), F(1, 2)),), "probabilities must sum to 1, got 1/2"),
    (((F(0), F(2, 3)), (F(1), F(2, 3))), "probabilities must sum to 1, got 4/3"),
    (((F(1), F(1, 2)), (F(0), F(1, 2)), (F(2), F(-1))), "atom values must be strictly increasing"),
    (((F(0), F(-1)), (F(1), 2)), "atom probability must be positive, got -1"),
    (((F(1), F(1, 2)), (F(0), F(1, 2)), (F(2), 1)), "atom values must be strictly increasing"),
]

BAD_JOINTS = [
    ((), "joint law needs at least one atom"),
    (((F(0), 0, F(1)),), "joint atoms must hold Fractions"),
    (((F(0), F(0), 1),), "joint atoms must hold Fractions"),
    (((F(0), F(1), F(0)), (F(1), F(0), F(1))), "atom probability must be positive, got 0"),
    (((F(0), F(1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2))), "duplicate joint atom at (w=0, z=1/2)"),
    (((F(1), F(0), F(1, 4)), (F(0), F(1), F(1, 2))), "probabilities must sum to 1, got 3/4"),
    (((F(0), F(0), F(1, 2)), (F(0), F(0), F(1, 2)), (F(1), F(0), F(0))),
     "duplicate joint atom at (w=0, z=0)"),
    (((F(0), F(0), F(0)), (F(1), 0, F(1))), "atom probability must be positive, got 0"),
]


class TestValidators:
    @pytest.mark.parametrize("atoms, message", BAD_LAWS)
    def test_discrete_law(self, atoms, message):
        with pytest.raises(InputError) as exc:
            DiscreteDist(atoms)
        assert str(exc.value) == message

    @pytest.mark.parametrize("atoms, message", BAD_JOINTS)
    def test_joint_law(self, atoms, message):
        with pytest.raises(InputError) as exc:
            JointDist(atoms)
        assert str(exc.value) == message

    def test_valid_laws_pass(self):
        DiscreteDist(((F(-1, 3), F(1, 6)), (F(-1, 4), F(5, 6))))
        JointDist(((F(0), F(1, 2), F(1, 3)), (F(0), F(1, 3), F(2, 3))))


class TestConstruction:
    def test_normalize_merges_and_rescales(self):
        d = normalize([(1, F(1, 3)), (1, F(1, 3)), (0, F(1, 3))])
        assert d.atoms == ((F(0), F(1, 3)), (F(1), F(2, 3)))

    def test_normalize_drops_zero_mass(self):
        d = normalize([(0, F(1, 2)), (5, F(0)), (1, F(1, 2))])
        assert d.values == (F(0), F(1))

    def test_normalize_rescales_unnormalized_weights(self):
        d = normalize([(0, 3), (1, 1)])
        assert d.probs == (F(3, 4), F(1, 4))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            normalize([])

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            normalize([(0, F(-1, 2)), (1, F(3, 2))])

    def test_boolean_weights_and_values_rejected(self):
        for build, raw in ((normalize, [(0, True)]), (normalize, [(True, 1)]),
                           (normalize_joint, [(0, 0, True)]), (normalize_joint, [(0, False, 1)]),
                           (normalize_joint, [(True, 0, 1)])):
            with pytest.raises(InputError, match="booleans are not numeric values"):
                build(raw)

    def test_direct_constructor_checks_sorted_and_total(self):
        with pytest.raises(InputError):
            DiscreteDist(((F(1), F(1, 2)), (F(0), F(1, 2))))
        with pytest.raises(InputError):
            DiscreteDist(((F(0), F(1, 2)),))

    def test_parametric_validation(self):
        with pytest.raises(InputError):
            Normal(0.0, 0.0)
        with pytest.raises(InputError):
            Exponential(-1.0)
        with pytest.raises(InputError):
            Bernoulli(1.5)
        with pytest.raises(InputError):
            LogNormal(0.0, -0.1)
        with pytest.raises(InputError) as exc:
            Normal("a", 1.0)
        assert str(exc.value) == "mu must be a real number, got 'a'"

    def test_joint_duplicate_cells_merge(self):
        j = normalize_joint([(0, 1, F(1, 4)), (0, 1, F(1, 4)), (1, 0, F(1, 2))])
        assert j.atoms == ((F(0), F(1), F(1, 2)), (F(1), F(0), F(1, 2)))

    # raw weights on one value or cell, with the messages they have always given
    @pytest.mark.parametrize("build, width", [(normalize, 2), (normalize_joint, 3)])
    @pytest.mark.parametrize("weights, discrete, joint", [
        ((1, -2), "negative weight -2 at value 1/2",
         "negative weight -2 at cell (Fraction(1, 2), Fraction(-1, 1))"),
        ((1, F(-1, 2)), "negative weight -1/2 at value 1/2",
         "negative weight -1/2 at cell (Fraction(1, 2), Fraction(-1, 1))"),
        ((1, True), "booleans are not numeric values", "booleans are not numeric values"),
        ((1, float("nan")), "non-finite value nan", "non-finite value nan"),
        ((0, F(0)), "total weight must be positive", "total weight must be positive"),
        ((), "total weight must be positive", "total weight must be positive"),
    ], ids=["negative-int", "negative-fraction", "bool", "nan", "all-zero", "empty"])
    def test_input_error_messages(self, build, width, weights, discrete, joint):
        cell = (F(1, 2), -1)[: width - 1]
        with pytest.raises(InputError) as exc:
            build([cell + (wt,) for wt in weights])
        assert str(exc.value) == (discrete if width == 2 else joint)

    def test_trusted_path_breach_is_internal(self):
        from stochorder.dists import InternalError, JointInts, LawInts, _trusted

        atoms = ((F(0), F(1, 2)), (F(1), F(1, 2)))
        for ints in (LawInts((0, 1), 1, (1, 0), 1), LawInts((1, 0), 1, (1, 1), 2),
                     LawInts((0, 1), 1, (1, 1), 3)):
            with pytest.raises(InternalError):
                _trusted(DiscreteDist, atoms, ints)
        # a joint's cells: same w with z descending, a repeated cell, a zero mass, a wrong total
        cells = ((F(0), F(1), F(1, 2)), (F(0), F(0), F(1, 2)))
        for ints in (JointInts((0, 0), 1, (1, 0), 1, (1, 1), 2), JointInts((0, 0), 1, (1, 1), 1, (1, 1), 2),
                     JointInts((0, 1), 1, (1, 0), 1, (1, 0), 1), JointInts((0, 1), 1, (1, 0), 1, (1, 1), 3)):
            with pytest.raises(InternalError):
                _trusted(JointDist, cells, ints)
        # the same w with z ascending, and z at both ends of its range one w apart, pass
        for ints in (JointInts((0, 0), 1, (0, 1), 1, (1, 1), 2), JointInts((0, 1), 1, (1, 0), 1, (1, 1), 2)):
            assert _trusted(JointDist, cells, ints).ints == ints

    # a merge that breaks its contract: keys it calls ascending that are not, or
    # the wrong first cell for each merged key
    @pytest.mark.parametrize("breach", ["ascending", "first-index"])
    @pytest.mark.parametrize("build, raw", [
        (normalize, [(1, 1), (0, 2), (1, 3)]),
        (normalize_joint, [(1, 0, 1), (0, 5, 2), (1, 0, 3)]),
    ], ids=["law", "joint"])
    def test_builders_breach_is_internal(self, monkeypatch, build, raw, breach):
        from stochorder.dists import InternalError

        merge = dists._merge

        def broken(keys, weights):
            if breach == "ascending":
                return keys, weights, None
            order, ms, at = merge(keys, weights)
            return order, ms, at[::-1]

        monkeypatch.setattr(dists, "_merge", broken)
        with pytest.raises(InternalError) as exc:
            build(raw)
        assert str(exc.value) == "a canonical law breaks its invariants"


# raw weights in every spelling the constructors take, zero included
any_weight = st.one_of(
    st.integers(0, 30),
    st.fractions(0, 4, max_denominator=12),
    st.fractions(0, 4, max_denominator=12).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.floats(0, 4, allow_nan=False, allow_infinity=False),
)
# values with several spellings of one number, so that atoms repeat
value_pool = st.sampled_from([0, 1, -2, F(1, 4), 0.25, "1/4", F(1, 3), "-5/6", 0.1, "7/2"])


def assert_validated(law):
    """law's integer form is the one the public constructor computes from its
    atoms, and ==, hash and repr cannot tell the two apart."""
    cold = type(law)(law.atoms)
    assert law.ints == cold.ints
    assert law == cold and hash(law) == hash(cold) and repr(law) == repr(cold)


class TestIntegerFormRoutes:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(value_pool, value_pool, any_weight), max_size=10),
           st.fractions(-3, 3, max_denominator=9), st.fractions(-3, 3, max_denominator=9))
    def test_every_builder_matches_the_validator(self, raw, a, b):
        try:
            j = normalize_joint(raw)
        except InputError:
            assert not any(as_fraction(wt) for _, _, wt in raw)
            return
        d = normalize([(w, wt) for w, _, wt in raw])
        laws = [d, j, joint_marginal_w(j), joint_sum(j), affine(d, -1, 0),
                affine(d, a, b), affine(d, -a, b), affine(d, 0, b)]
        for law in laws:
            assert_validated(law)
        assert joint_marginal_w(j) == d


def _ascending(raw):
    """raw's cells merged by key and sorted, zero weights dropped: keys
    strictly ascending, the weights summed in their own spelling (int where
    every merged weight is an int)."""
    acc = {}
    for *key, wt in raw:
        k = tuple(map(as_fraction, key))
        acc[k] = acc.get(k, 0) + (wt if type(wt) is int else as_fraction(wt))
    return [(*k, wt) for k, wt in sorted(acc.items()) if wt]


def assert_same_law(law, other):
    assert law.atoms == other.atoms and law.ints == other.ints


# joints at the edges of a cell's int key, w S + z with S one more than the
# spread of the z integers
EDGE_JOINTS = [
    [(F(1, 2), -3, 2)],  # one cell
    [(0, 5, 1), ("-1/2", "5", 2), (3, F(5), 1), (0, 5.0, 1)],  # constant z: S = 1
    [(-3, "-1/2", 1), (-3, -7, 2), (F(-1, 3), -2, 1), (-3, -0.5, 2), (-1, -7, 1)],  # negative w and z
    [(0, 2**70 + 1, 1), (0, -(2**66), 2), (1, F(2**65 + 1, 3), 1), (1, -(2**66), 3)],  # z beyond 2**64
    [(1, 2, 1), (1, 1, 2), (1, 0, 3)],  # one w, z descending: the merge path
    [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)],  # z at both ends of its range, w one apart
    [(0, 2**64, 1), (1, -(2**64), 2)],  # both ends beyond 2**64, w one apart
]


def with_edge_joints(*rest):
    """Run a property on each of EDGE_JOINTS as an explicit example, followed by rest."""
    def apply(test):
        for raw in EDGE_JOINTS:
            test = example(raw, *rest)(test)
        return test
    return apply


class TestAscendingInput:
    """Keys that arrive strictly ascending are taken as they stand, any other
    keys merge: both give one law, atom for atom and integer for integer, and
    an all-int weight column gives the integers its Fractions give."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(value_pool, value_pool, any_weight), max_size=10), st.randoms())
    @with_edge_joints(random.Random(5))
    def test_order_of_arrival_changes_nothing(self, raw, rnd):
        try:
            j = normalize_joint(raw)
        except InputError:
            assert not any(as_fraction(wt) for _, _, wt in raw)
            return
        pairs = [(w, wt) for w, _, wt in raw]
        d = normalize(pairs)
        assert_same_law(d, ref.normalize(pairs))
        assert_same_law(j, ref.normalize_joint(raw))
        for form in (rnd.sample(raw, len(raw)), _ascending(raw)):
            assert_same_law(normalize_joint(form), j)
            assert_same_law(normalize([(w, wt) for w, _, wt in form]), d)
        assert_same_law(normalize(_ascending(pairs)), d)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(value_pool, value_pool, st.integers(0, 30)), max_size=10),
           st.booleans())
    def test_int_weights_equal_their_fractions(self, raw, ascending):
        if not any(wt for _, _, wt in raw):
            return
        raw = _ascending(raw) if ascending else raw
        as_fractions = [(w, z, F(wt)) for w, z, wt in raw]
        assert_same_law(normalize_joint(raw), normalize_joint(as_fractions))
        assert_same_law(normalize([(w, wt) for w, _, wt in raw]),
                        normalize([(w, wt) for w, _, wt in as_fractions]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(value_pool, any_weight), min_size=1, max_size=10),
           st.lists(value_pool, min_size=10, max_size=10))
    def test_marginal_and_sum_of_an_ascending_w_column(self, pairs, zs):
        if not any(as_fraction(wt) for _, wt in pairs):
            return
        j = normalize_joint([(w, z, wt) for (w, wt), z in zip(_ascending(pairs), zs)])
        assert all(map(operator.lt, j.ints.w, j.ints.w[1:]))
        for law, want in ((joint_marginal_w(j), [(w, p) for w, _, p in j.atoms]),
                          (joint_sum(j), [(w + z, p) for w, z, p in j.atoms])):
            assert_validated(law)
            assert_same_law(law, ref.normalize(want))
        assert joint_marginal_w(j) == normalize(pairs)


# rationals as as_integers takes them: ints, Fractions, integer-valued Fractions
int_or_fraction = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**6),
    st.integers(-50, 50).map(F),
)


class TestAsIntegers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(int_or_fraction, max_size=12))
    @example([])
    @example([3, F(1, 2), F(1, 3), F(5, 6)])
    @example([F(4), F(-2), F(0)])
    @example([F(1, 6), F(1, 6), F(5, 6)])
    def test_integers_over_the_least_scale(self, xs):
        ints, L = dists.as_integers(xs)
        assert len(ints) == len(xs)
        assert all(F(i) == x * L for i, x in zip(ints, xs))
        assert L == math.lcm(*(F(x).denominator for x in xs))
        assert all(type(i) is int for i in ints)
        if all(type(x) is int for x in xs):
            assert ints is xs and L == 1
        if all(F(x).denominator == 1 for x in xs):
            assert L == 1 and list(ints) == [F(x).numerator for x in xs]


def _weights_with(where, other, zero):
    """An int weight column of five atoms with other at position where, and a zero weight
    at the first position that is not where when zero is set."""
    column = [1, 2, 3, 5, 8]
    if zero:
        column[1 if where == 0 else 0] = 0
    column[where] = other
    return column


class TestWeightSpellings:
    """The builders type the weight column in their input loop: one weight in another
    spelling anywhere in an int column gives the law that its Fractions give, and a bad
    weight raises its own message wherever it sits, the first bad atom winning."""

    VALUES = [F(-1, 2), 0, F(1, 3), 2, F(7, 2)]
    OTHERS = [F(3, 4), "3/4", 0.75, F(3), "0", 0.0]

    def _raws(self, weights):
        """The law's and the joint's raw atoms, the joint's cells (x, -x)."""
        return (list(zip(self.VALUES, weights)),
                [(x, -x, wt) for x, wt in zip(self.VALUES, weights)])

    def _builds(self, weights):
        law, joint = self._raws(weights)
        return normalize(law), normalize_joint(joint)

    def _messages(self, weights):
        """The message each builder raises on the weights."""
        out = []
        for build, raw in zip((normalize, normalize_joint), self._raws(weights)):
            with pytest.raises(InputError) as exc:
                build(raw)
            out.append(str(exc.value))
        return out

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("other", OTHERS, ids=repr)
    def test_one_other_spelling_equals_the_fractions(self, other, where, zero):
        weights = _weights_with(where, other, zero)
        fractions = [as_fraction(wt) for wt in weights]
        for got, want in zip(self._builds(weights), self._builds(fractions)):
            assert_same_law(got, want)
            assert_validated(got)

    @pytest.mark.parametrize("other_at", [None, 0, 4])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("bad, message", [
        (-2, "negative weight -2 at value {}"),
        (F(-1, 2), "negative weight -1/2 at value {}"),
        (True, "booleans are not numeric values"),
    ], ids=["negative-int", "negative-fraction", "bool"])
    def test_a_bad_weight_raises_its_message_anywhere(self, bad, message, where, other_at):
        weights = _weights_with(where, bad, False)
        if other_at is not None and other_at != where:
            weights[other_at] = "3/4"
        v = as_fraction(self.VALUES[where])
        assert self._messages(weights) == [message.format(v),
                                           message.replace("value {}", "cell {}").format((v, -v))]

    @pytest.mark.parametrize("first, second, message", [
        (-2, True, "negative weight -2 at value 0"),
        (True, -2, "booleans are not numeric values"),
        (F(-1, 2), -3, "negative weight -1/2 at value 0"),
        (-3, F(-1, 2), "negative weight -3 at value 0"),
    ])
    def test_the_first_bad_weight_wins(self, first, second, message):
        at_cell = message.replace("at value 0", f"at cell {(F(0), F(0))}")
        assert self._messages([F(1, 2), first, 4, second, 1]) == [message, at_cell]


class FractionSubclass(F):
    """Not a Fraction by type: as_fraction passes it through as it is."""


def _spelled(q, k):
    """q in the k-th of five spellings: int where whole, rational string,
    float where dyadic, Fraction, FractionSubclass."""
    forms = [int(q) if q.denominator == 1 else q, f"{q.numerator}/{q.denominator}",
             float(q) if q.denominator & (q.denominator - 1) == 0 else q, q,
             FractionSubclass(q.numerator, q.denominator)]
    return forms[k % 5]


def _raw_joint(kind):
    """Raw (w, z, weight) cells of one kind: cells repeat, so that they merge."""
    rng = random.Random(f"shared:{kind}")
    cells = [(F(rng.randint(-6, 6), 2), F(rng.randint(-20, 20), rng.choice((1, 2, 4, 3))))
             for _ in range(80)]
    if kind == "equal":
        return [(w, z, 1) for w, z in cells]
    if kind == "one-to-three":
        return [(w, z, rng.randint(1, 3)) for w, z in cells]
    if kind == "distinct":  # distinct cells with distinct weights
        return [(w, z, F(k + 1, 3)) for k, (w, z) in enumerate(dict.fromkeys(cells))]
    return [(_spelled(w, k), _spelled(z, k + 1), _spelled(F(rng.randint(1, 12), 4), k + 2))
            for k, (w, z) in enumerate(cells)]


class TestSharedProbabilities:
    """Each distinct probability of a canonical law is built once and shared
    by its atoms; the laws stay the reference's, atom for atom."""

    @pytest.mark.parametrize("kind", ["equal", "one-to-three", "distinct", "mixed"])
    def test_builders_equal_the_reference(self, kind):
        raw = _raw_joint(kind)
        j, rj = normalize_joint(raw), ref.normalize_joint(raw)
        d, rd = normalize([(w, wt) for w, _, wt in raw]), ref.normalize([(w, wt) for w, _, wt in raw])
        a, b = F(-3, 2), F(1, 3)
        pairs = [
            (d, rd), (j, rj),
            (joint_marginal_w(j), ref.normalize([(w, p) for w, _, p in rj.atoms])),
            (joint_sum(j), ref.normalize([(w + z, p) for w, z, p in rj.atoms])),
            (affine(d, a, b), ref.normalize([(a * v + b, p) for v, p in rd.atoms])),
        ]
        for law, want in pairs:
            assert law.atoms == want.atoms
            probs = [atom[-1] for atom in law.atoms]
            assert all(type(p) is F for p in probs)
            assert len({id(p) for p in probs}) == len(set(probs))
            again = pickle.loads(pickle.dumps(law))
            assert again == law and again.ints == law.ints
        if kind == "distinct":
            assert len({p for *_, p in j.atoms}) == len(j.atoms)


class TestQuantileConvention:
    """Q(t) = inf{x : P(X <= x) > t}, with strict inequality, as the
    reference's Fraction route reads it on finite laws."""

    def test_atom_boundary_goes_right(self):
        d = uniform(0, 1)
        assert ref.quantile_right(d, F(1, 4)) == 0
        assert ref.quantile_right(d, F(1, 2)) == 1  # P(X<=0)=1/2 is not > 1/2
        assert ref.quantile_right(d, F(3, 4)) == 1

    def test_bernoulli(self):
        # P(X <= 0) = 1 - 0.3 exactly, which is 0.70000000000000001110...: the
        # float 0.7 lies below it and the next float above
        b = as_discrete(Bernoulli(0.3))
        assert ref.quantile_right(b, 0.7) == 0
        assert ref.quantile_right(b, 0.7000000000000001) == 1

    def test_level_domain(self):
        with pytest.raises(InputError):
            ref.quantile_right(uniform(0, 1), F(0))
        with pytest.raises(InputError):
            ref.quantile_right(uniform(0, 1), F(1))

    def test_normal_matches_scipy(self):
        # mu + sigma * norm_quantile(t), as discretize places a Normal's atoms
        for t in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert 1.0 + 2.0 * norm_quantile(t) == pytest.approx(
                1.0 + 2.0 * special.ndtri(t), abs=1e-9
            )

    @given(discrete_dists(), st.integers(1, 59))
    def test_cdf_quantile_adjoint(self, d, num):
        t = F(num, 60)
        q = ref.quantile_right(d, t)
        assert ref.cdf(d, q) > t
        below = [v for v in d.values if v < q]
        if below:
            assert ref.cdf(d, below[-1]) <= t


class TestMoments:
    def test_discrete_exact(self):
        d = uniform(0, 1, 2, 3)
        assert mean(d) == F(3, 2)

    def test_parametric(self):
        assert mean(Normal(2.0, 3.0)) == 2.0
        assert mean(Exponential(4.0)) == 0.25
        assert mean(Bernoulli(0.3)) == pytest.approx(0.3)
        m = mean(LogNormal(0.1, 0.4))
        assert m == pytest.approx(math.exp(0.1 + 0.08))


class TestTailMeans:
    """E[X | X <= x] = (E[X] - phi(p)) / p and E[X | X >= x] = ES_p at
    p = P(X <= x) where no atom sits at x."""

    def test_discrete_lower(self):
        d = uniform(0, 1, 2, 3)
        assert (mean(d) - phi(d, F(1, 2))) / F(1, 2) == F(1, 2)
        assert es(d, F(1, 2)) == ref.upper_tail_mean(d, F(2)) == F(5, 2)

    def test_normal_mills_vs_quadrature(self):
        d = Normal(0.5, 1.5)
        for x in (-2.0, 0.0, 1.0, 3.0):
            num, _ = integrate.quad(
                lambda t: t * norm_pdf((t - 0.5) / 1.5) / 1.5, -40, x
            )
            p = norm_cdf((x - 0.5) / 1.5)
            assert (mean(d) - phi(d, p)) / p == pytest.approx(num / p, abs=1e-9)

    def test_normal_upper_vs_quadrature(self):
        d = Normal(0.0, 1.0)
        for x in (-1.0, 0.5, 2.0):
            num, _ = integrate.quad(lambda t: t * norm_pdf(t), x, 40)
            den = 1.0 - norm_cdf(x)
            assert es(d, norm_cdf(x)) == pytest.approx(num / den, abs=1e-9)

    def test_exponential_memoryless_upper(self):
        d = Exponential(2.0)
        assert es(d, -math.expm1(-2.0 * 3.0)) == pytest.approx(3.0 + 0.5)
        assert es(d, 0.0) == pytest.approx(0.5)  # E[X | X >= -1] is the mean


class TestTransforms:
    def test_negate_mirrors_discrete(self):
        d = normalize([(0, F(1, 4)), (2, F(3, 4))])
        nd = affine(d, -1, 0)
        assert nd.atoms == ((F(-2), F(3, 4)), (F(0), F(1, 4)))

    def test_negate_normal(self):
        with pytest.raises(UnsupportedPairingError, match="not defined for Normal"):
            affine(Normal(1.0, 2.0), -1, 0)

    def test_negate_involutive(self):
        d = normalize([(-1, F(1, 2)), (3, F(1, 2))])
        assert affine(affine(d, -1, 0), -1, 0) == d

    def test_affine_discrete(self):
        d = uniform(0, 1)
        t = affine(d, F(2), F(-1))
        assert t.values == (F(-1), F(1))

    def test_affine_normal_negative_scale(self):
        # a continuous family has no affine map, not even a zero slope's point mass
        for a in (-3, 0):
            with pytest.raises(UnsupportedPairingError):
                affine(Normal(1.0, 2.0), a, 0)

    def test_negate_unsupported(self):
        with pytest.raises(UnsupportedPairingError):
            affine(Exponential(1.0), -1, 0)

    def test_as_discrete(self):
        assert as_discrete(point_mass_dist(F(1, 3))).atoms == ((F(1, 3), F(1)),)
        b = as_discrete(Bernoulli(0.25))
        assert b.values == (F(0), F(1))
        assert b.probs == (F(0.75), F(0.25))
        assert as_discrete(Normal(0.0, 1.0)) is None


class TestNormalHelpers:
    def test_cdf_matches_scipy(self):
        for z in (-8.0, -2.0, 0.0, 1.3, 6.0):
            assert norm_cdf(z) == pytest.approx(special.ndtr(z), rel=1e-13, abs=1e-300)

    def test_quantile_matches_scipy(self):
        for t in (1e-6, 0.2, 0.5, 0.77, 1 - 1e-6):
            assert norm_quantile(t) == pytest.approx(special.ndtri(t), abs=1e-10)
        with pytest.raises(InputError) as exc:
            norm_quantile(0.0)
        assert str(exc.value) == "quantile level must lie in (0, 1), got 0.0"


class TestJointAccessors:
    def test_sum_law_merges(self):
        j = normalize_joint([
            (0, F(-1, 2), F(1, 4)), (0, F(1, 2), F(1, 4)),
            (1, F(-1, 2), F(1, 4)), (1, F(1, 2), F(1, 4)),
        ])
        s = joint_sum(j)
        assert s.atoms == ((F(-1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 4)))

    def test_marginals(self):
        j = normalize_joint([(0, -1, F(1, 2)), (0, 1, F(1, 2))])
        assert joint_marginal_w(j).atoms == ((F(0), F(1)),)
        assert joint_sum(j).values == (F(-1), F(1))


class TestJson:
    def test_discrete_round_trip(self):
        d = normalize([(F(-1, 3), F(1, 4)), (2, F(3, 4))])
        assert dist_from_json(dist_to_json(d)) == d

    def test_schema_example(self):
        obj = {"type": "discrete", "atoms": [{"x": 0, "p": "1/4"}, {"x": 1, "p": "3/4"}]}
        d = dist_from_json(obj)
        assert d.probs == (F(1, 4), F(3, 4))

    def test_float_probability_rejected(self):
        obj = {"type": "discrete", "atoms": [{"x": 0, "p": 0.5}, {"x": 1, "p": 0.5}]}
        with pytest.raises(InputError):
            dist_from_json(obj)

    def test_parametric_round_trip(self):
        for d in (Normal(0.5, 2.0), Exponential(1.5), Bernoulli(0.4),
                  LogNormal(0.0, 0.2), PointMass(-1.0)):
            assert dist_from_json(dist_to_json(d)) == d

    def test_joint_round_trip(self):
        j = normalize_joint([(0, -0.5, F(1, 4)), (1, F(1, 3), F(3, 4))])
        assert joint_from_json(joint_to_json(j.atoms)) == j

    def test_json_serializable(self):
        d = normalize([(F(1, 3), F(1))])
        json.dumps(dist_to_json(d))

    def test_bad_type_rejected(self):
        with pytest.raises(InputError):
            dist_from_json({"type": "triangular", "a": 0})

    @pytest.mark.parametrize("parse, obj, message", [
        (dist_from_json, ["discrete"], "distribution JSON must be an object"),
        (dist_from_json, {"type": "discrete", "atoms": {}},
         "discrete law needs a non-empty 'atoms' list"),
        (dist_from_json, {"type": "discrete", "atoms": [{"x": 0, "p": 1}, {"p": 1}]},
         "atom 1 must be an object with 'x' and 'p'"),
        (dist_from_json, {"type": "discrete", "atoms": [{"x": None, "p": 1}]},
         "atom 0: value must be a number or rational string, got None"),
        (dist_from_json, {"type": "discrete", "atoms": [{"x": 0, "p": 0.5}]},
         "atom 0: probability must be an int or a rational string, got 0.5"),
        (joint_from_json, "joint", "joint JSON must be an object"),
        (joint_from_json, {"type": "discrete", "atoms": [{"w": 0, "z": 0, "p": 1}]},
         "expected type 'joint', got 'discrete'"),
        (joint_from_json, {"type": "joint", "atoms": []}, "joint law needs a non-empty 'atoms' list"),
        (joint_from_json, {"type": "joint", "atoms": [{"w": 0, "z": 0, "p": 1}, [0, 0, 1]]},
         "joint atom 1 must be an object with 'w', 'z' and 'p'"),
        (joint_from_json, {"type": "joint", "atoms": [{"w": 0, "z": True, "p": 1}]},
         "atom 0: value must be a number or rational string, got True"),
        # every atom's shape and types are read before any weight's sign
        (dist_from_json, {"type": "discrete", "atoms": [{"x": 0, "p": -1}, {"x": 1}]},
         "atom 1 must be an object with 'x' and 'p'"),
        (dist_from_json, {"type": "discrete", "atoms": [{"x": 0, "p": -1}, {"x": [], "p": 1}]},
         "atom 1: value must be a number or rational string, got []"),
        (joint_from_json, {"type": "joint", "atoms": [{"w": 0, "z": 0, "p": -1}, {"w": 0, "p": 1}]},
         "joint atom 1 must be an object with 'w', 'z' and 'p'"),
    ])
    def test_bad_json_message(self, parse, obj, message):
        with pytest.raises(InputError) as exc:
            parse(obj)
        assert str(exc.value) == message


class TestDiscretize:
    def test_needs_two_atoms(self):
        with pytest.raises(InputError):
            discretize(Normal(0.0, 1.0), 1)
        with pytest.raises(InputError) as exc:
            discretize(Normal(0.0, 1.0), 2.5)
        assert str(exc.value) == "n must be an integer, got 2.5"

    def test_atom_cap_checked_before_any_atom(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an atom was built")

        monkeypatch.setattr(dists, "norm_quantile", unreachable)
        monkeypatch.setattr(Exponential, "quantile_right", unreachable)
        monkeypatch.setattr(LogNormal, "quantile_right", unreachable)
        for d in (Normal(0.0, 1.0), Exponential(1.0), LogNormal(0.0, 1.0), Bernoulli(0.25)):
            with pytest.raises(InputError, match="at most 100000 atoms, got 100001"):
                discretize(d, 100_001)
        assert discretize(Bernoulli(0.25), 100_000).probs == (F(3, 4), F(1, 4))

    def test_point_mass_exact(self):
        d = discretize(PointMass(2.5), 7)
        assert d.atoms == ((F(2.5), F(1)),)

    def test_bernoulli_exact(self):
        d = discretize(Bernoulli(0.25), 10)
        assert d.probs == (F(3, 4), F(1, 4))

    def test_passthrough(self):
        d = uniform(0, 1)
        assert discretize(d, 5) is d

    def test_normal_two_atoms_symmetric(self):
        d = discretize(Normal(0.0, 1.0), 2)
        assert len(d.atoms) == 2
        assert d.values[0] == -d.values[1]
        assert float(d.values[1]) == pytest.approx(special.ndtri(0.75), abs=1e-10)
        assert mean(d) == 0

    def test_normal_64_mean_and_tail(self):
        d = discretize(Normal(0.0, 1.0), 64)
        assert abs(mean(d)) < F(1, 10**12)
        closed = norm_pdf(0.0) / 0.5
        assert float(es(d, F(1, 2))) == pytest.approx(closed, abs=2e-2)

    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(0.1, 4, allow_nan=False),
        st.integers(2, 33),
    )
    @settings(max_examples=40, deadline=None)
    def test_normal_mean_exact_by_mirroring(self, mu, sigma, n):
        d = discretize(Normal(mu, sigma), n)
        assert mean(d) == F(mu)

    def test_exponential_quantiles(self):
        d = discretize(Exponential(1.0), 4)
        expect = [-math.log(1 - (2 * k - 1) / 8) for k in (1, 2, 3, 4)]
        assert [float(v) for v in d.values] == pytest.approx(expect)
