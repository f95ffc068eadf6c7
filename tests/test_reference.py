"""The linear walks return exactly what the direct Fraction routes return.

normalize and normalize_joint, which work over integers, build atoms equal
to those of the Fraction routes, and reject the same inputs with the same
messages; es and phi at one level equal the values and errors of the
reference's Fraction envelope, interpolated between its breakpoints.  Every order checker, both oracles, all five
dependence conditions and the discrete marketability check are compared
with the per-point evaluations in `tests/reference.py`: the whole verdict
must be equal, witness included, and every witness field must be an exact
Fraction.  stop_loss and stop_loss_compare equal per-deductible Fraction
sums.  The protective put's closed forms (E[P_t], and the verdict by the
drift's sign) are compared with a 200-node quadrature and with scipy's quad
on random cases.  Coupling synthesis is compared with exact LP feasibility
on small supports and, cell for cell (joint cells included), with the
construction over Fractions, and
random_joint draws the joints its Fraction-hashing form drew.  The
integer form each finite law caches is as_integers of its public Fractions
on every construction path, and caching it changes none of ==, hash, repr
or pickle.
"""

import importlib.util
import math
import pickle
import random
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stochorder import (
    Bernoulli,
    BSParams,
    DiscreteDist,
    Exponential,
    FixedIndemnity,
    InputError,
    JointDist,
    LogNormal,
    Normal,
    PointMass,
    PiecewiseIndemnity,
    StopLossIndemnity,
    affine,
    as_discrete,
    bs_put,
    check_cx,
    check_icx,
    check_ssd,
    check_st,
    cond_classic,
    cond_cx_pair,
    cond_icx,
    cond_new,
    cond_on_difference,
    discretize,
    expected_put_value,
    improver_check,
    joint_marginal_w,
    joint_sum,
    marketable_check,
    normalize,
    normalize_joint,
    oracle_icx,
    oracle_ssd,
    protective_put_check,
    stop_loss_compare,
    synth_martingale,
    synth_supermartingale,
    verify_coupling,
)
from stochorder.coupling import _joint_cells
from stochorder.dists import as_integers
from stochorder.risk import es, phi, stop_loss

from . import gen
from . import reference as ref
from .gen import random_joint
from .test_dists import with_edge_joints

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# value families: half-integer lattice (negative values included), small
# rationals on mixed denominators, and dyadic floats with 53-bit denominators
lattice = st.integers(-12, 12).map(lambda k: F(k, 2))
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
dyadic = st.floats(-8, 8, allow_nan=False, allow_infinity=False).map(F)
# values over pairwise coprime denominators, so that the lcms multiply up
coprime = st.sampled_from([3, 5, 7, 11, 13]).flatmap(lambda d: st.integers(-40, 40).map(lambda k: F(k, d)))
coprime_weights = st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(lambda q: st.integers(1, 3 * q).map(lambda k: F(k, q)))
value_families = st.sampled_from([lattice, rationals, dyadic, coprime])


def _law(values, weights):
    return normalize(zip(values, weights))


@st.composite
def laws(draw, family=None, max_atoms=7, weights=st.integers(1, 59)):
    family = family if family is not None else draw(value_families)
    n = draw(st.integers(1, max_atoms))
    values = draw(st.lists(family, min_size=n, max_size=n, unique=True))
    return _law(values, draw(st.lists(weights, min_size=n, max_size=n)))


@st.composite
def pairs(draw):
    """Pairs on different and on shared probability grids, including
    holding pairs built by downward shifts and mean-preserving spreads."""
    family = draw(value_families)
    x = draw(laws(family))
    modes = ["independent", "same_grid", "shift", "spread", "spread_shift"]
    mode = draw(st.sampled_from(modes))
    if mode == "independent":
        y = draw(laws(family))
    elif mode == "same_grid":
        # same probabilities in the same order: every cumulative level coincides
        values = draw(st.lists(family, min_size=len(x.atoms), max_size=len(x.atoms), unique=True))
        y = _law(sorted(values), x.probs)
    else:
        y = x
        if mode.startswith("spread"):
            d = draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))
            y = normalize([(v + s, p / 2) for v, p in x.atoms for s in (-d, d)])
        if mode.endswith("shift"):
            c = draw(st.fractions(min_value=-1, max_value=3, max_denominator=6))
            y = normalize((v - c, p) for v, p in y.atoms)
    return (y, x) if draw(st.booleans()) else (x, y)


@st.composite
def joints(draw):
    """Joint laws with repeated anchors, built directly with their cells in
    drawn order, or canonically through normalize_joint."""
    anchors = draw(st.sampled_from([st.integers(-3, 3).map(F), rationals, dyadic]))
    moves = draw(value_families)
    cells = draw(st.lists(st.tuples(anchors, moves), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 30), min_size=len(cells), max_size=len(cells)))
    total = sum(weights)
    atoms = [(w, z, F(k, total)) for (w, z), k in zip(cells, weights)]
    shift = draw(st.sampled_from(["none", "zero_mean", "down"]))
    if shift != "none":
        c = sum(z * p for _, z, p in atoms) if shift == "zero_mean" else max(z for _, z, _ in atoms)
        atoms = [(w, z - c, p) for w, z, p in atoms]
    if draw(st.booleans()):
        return normalize_joint(atoms)
    return JointDist(tuple(draw(st.permutations(atoms))))


def _spread(x, d):
    """Each atom split into two halves at distance d: a mean-preserving spread."""
    return normalize([(v + s, p / 2) for v, p in x.atoms for s in (-d, d)])


@st.composite
def small_pairs(draw):
    """Pairs of at most 6 atoms each: independent laws, shifts either way,
    and spreads with or without a shift, in either order."""
    family = draw(value_families)
    mode = draw(st.sampled_from(["independent", "shift", "spread", "spread_shift"]))
    x = draw(laws(family, max_atoms=3 if mode.startswith("spread") else 6))
    if mode == "independent":
        y = draw(laws(family, max_atoms=6))
    else:
        y = x
        if mode.startswith("spread"):
            y = _spread(x, draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8)))
        if mode.endswith("shift"):
            c = draw(st.fractions(min_value=-1, max_value=3, max_denominator=6))
            y = normalize((v - c, p) for v, p in y.atoms)
    return (y, x) if draw(st.booleans()) else (x, y)


@st.composite
def schedules(draw):
    """Fixed, stop-loss and piecewise-linear indemnity schedules."""
    kind = draw(st.sampled_from(["fixed", "stop_loss", "piecewise"]))
    if kind == "fixed":
        threshold = draw(st.integers(1, 12).map(lambda k: F(k, 2)))
        return FixedIndemnity(threshold, draw(st.fractions(0, threshold, max_denominator=6)))
    if kind == "stop_loss":
        return StopLossIndemnity(draw(st.integers(0, 12).map(lambda k: F(k, 2))))
    xs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    knots = [(F(0), F(0))]
    for x in sorted(xs):
        x0, y0 = knots[-1]  # every slope in [0, 1]
        knots.append((F(x), draw(st.fractions(y0, y0 + x - x0, max_denominator=4))))
    return PiecewiseIndemnity(tuple(knots))


def _spellings(q):
    """Ways to write the rational q as a raw input: the Fraction, its ratio
    string, an int, a float and a decimal string with an exponent where
    these are exact."""
    out = [q, str(q)]
    if q.denominator == 1:
        out.append(int(q))
    if F(float(q)) == q:
        out.append(float(q))
    k = next((k for k in range(60) if 10**k % q.denominator == 0), None)
    if k is not None:
        out.append(f"{q.numerator * 10**k // q.denominator}e-{k}")
    return out


def spelled(rationals):
    return rationals.flatmap(lambda q: st.sampled_from(_spellings(q)))


# weights: zero included, spelled as ints, Fractions, floats and strings
raw_weights = spelled(st.one_of(st.integers(0, 20).map(F), st.fractions(0, 5, max_denominator=12)))


@st.composite
def raw_cells(draw, width, weights=raw_weights):
    """Unsorted raw atoms of the given width (value plus weight), each
    coordinate drawn from a small pool, so that cells repeat, in any spelling."""
    pools = [draw(st.lists(st.one_of(lattice, rationals, dyadic), min_size=1, max_size=5, unique=True))
             for _ in range(width - 1)]
    n = draw(st.integers(0, 12))
    return [tuple(draw(spelled(st.sampled_from(pool))) for pool in pools) + (draw(weights),)
            for _ in range(n)]


def _canonical(build, raw):
    """The atoms build makes from raw, or the message of its InputError."""
    try:
        atoms = build(raw).atoms
    except InputError as exc:
        return str(exc)
    assert all(type(f) is F for atom in atoms for f in atom)
    return atoms


def _outcome(fn, *args):
    """fn(*args), or the message of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def _assert_exact_equal(got, want):
    assert got == want
    if got.witness is not None:
        w = got.witness
        assert all(isinstance(f, F) for f in (w.value, w.lhs, w.rhs))


ORDER_PAIRS = [
    (check_ssd, ref.check_ssd),
    (check_icx, ref.check_icx),
    (check_cx, ref.check_cx),
    (check_st, ref.check_st),
    (oracle_ssd, ref.oracle_ssd),
    (oracle_icx, ref.oracle_icx),
]

COND_PAIRS = [
    (cond_new, ref.cond_new),
    (cond_classic, ref.cond_classic),
    (cond_icx, ref.cond_icx),
    (cond_cx_pair, ref.cond_cx_pair),
    (cond_on_difference, ref.cond_on_difference),
]


class TestCanonicalLawsMatchReference:
    @settings(max_examples=250, deadline=None)
    @given(raw_cells(2))
    def test_normalize(self, raw):
        assert _canonical(normalize, raw) == _canonical(ref.normalize, raw)

    @settings(max_examples=250, deadline=None)
    @given(raw_cells(3))
    @with_edge_joints()
    def test_normalize_joint(self, raw):
        assert _canonical(normalize_joint, raw) == _canonical(ref.normalize_joint, raw)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda width: st.tuples(
        st.just(width), raw_cells(width, st.one_of(raw_weights, st.sampled_from([F(-1, 3), -2, "-0.5"])))
    )))
    def test_negative_weights_rejected_alike(self, case):
        width, raw = case
        fast, slow = (normalize, ref.normalize) if width == 2 else (normalize_joint, ref.normalize_joint)
        assert _canonical(fast, raw) == _canonical(slow, raw)

    @settings(max_examples=300, deadline=None)
    @given(laws(weights=st.one_of(st.integers(1, 59), coprime_weights)).flatmap(lambda x: st.tuples(
        st.just(x),
        st.one_of(
            spelled(st.sampled_from([p for p, _ in ref.phi_envelope_points(x)])),  # at a breakpoint
            spelled(st.fractions(0, 1, max_denominator=30)),
            st.sampled_from([F(-1, 3), F(3, 2), -1, 2, "one"]),  # rejected
        ),
    )))
    def test_es_and_phi_at_one_level_equal_the_envelope(self, case):
        x, p = case
        for fast, slow in ((es, ref.es), (phi, ref.phi)):
            got, want = _outcome(fast, x, p), _outcome(slow, x, p)
            assert got == want
            assert type(got) is type(want)


class TestStopLossMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(laws(weights=st.one_of(st.integers(1, 59), coprime_weights)).flatmap(
        lambda x: st.tuples(st.just(x), spelled(st.one_of(
            st.sampled_from(x.values), rationals, coprime,
            # below and above the support, and midway between adjacent atoms
            # (a one-atom law's atom itself)
            st.just(min(x.values) - 1), st.just(max(x.values) + 1),
            st.sampled_from([(a + b) / 2 for a, b in zip(x.values, x.values[1:] or x.values)]))))
    ))
    def test_stop_loss_at_a_point(self, case):
        x, t = case
        got = stop_loss(x, t)
        assert got == ref.stop_loss(x, t) and type(got) is F

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_compare_equals_per_deductible_sums(self, data):
        """Nonnegative losses on one anchor or several, coprime denominators
        included; the default grid and user grids on or off the support."""
        family = data.draw(st.sampled_from([
            lattice.map(abs), rationals.map(abs), dyadic.map(abs), coprime.map(abs)]))
        anchors = data.draw(st.lists(family, min_size=1, max_size=data.draw(st.sampled_from([1, 4])),
                                     unique=True))
        cells = data.draw(st.lists(st.tuples(st.sampled_from(anchors), data.draw(value_families)),
                                   min_size=1, max_size=10, unique=True))
        weights = data.draw(st.lists(st.one_of(st.integers(1, 30), coprime_weights),
                                     min_size=len(cells), max_size=len(cells)))
        j = normalize_joint((w, z, p) for (w, z), p in zip(cells, weights))
        grid = data.draw(st.one_of(st.none(), st.lists(
            spelled(st.one_of(family, st.sampled_from(anchors), coprime.map(abs))), min_size=1, max_size=8)))
        got = stop_loss_compare(j, grid)
        assert got == ref.stop_loss_compare(j, grid)
        assert all(type(f) is F for f in got.base_premiums + got.summed_premiums)


class TestOrdersMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(pairs())
    def test_checkers_and_oracles(self, pair):
        x, y = pair
        for fast, slow in ORDER_PAIRS:
            _assert_exact_equal(fast(x, y), slow(x, y))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([lattice, dyadic]).flatmap(lambda f: st.tuples(f, laws(f))))
    def test_single_atom_against_law(self, case):
        c, x = case
        point = normalize([(c, 1)])
        for fast, slow in ORDER_PAIRS:
            _assert_exact_equal(fast(point, x), slow(point, x))
            _assert_exact_equal(fast(x, point), slow(x, point))


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_coprime_denominators(self, data):
        """Values and weights over pairwise coprime denominators, independent
        or shifted pairs, in both orders."""
        x = data.draw(laws(coprime, weights=coprime_weights))
        if data.draw(st.booleans()):
            y = data.draw(laws(coprime, weights=coprime_weights))
        else:
            c = data.draw(coprime)
            y = normalize((v - c, p) for v, p in x.atoms)
        for fast, slow in ORDER_PAIRS:
            _assert_exact_equal(fast(x, y), slow(x, y))
            _assert_exact_equal(fast(y, x), slow(y, x))

    @settings(max_examples=100, deadline=None)
    @given(value_families.flatmap(lambda f: st.tuples(f, f)))
    def test_single_atom_pairs(self, case):
        a, b = (normalize([(c, 1)]) for c in case)
        for fast, slow in ORDER_PAIRS:
            _assert_exact_equal(fast(a, b), slow(a, b))
            _assert_exact_equal(fast(a, a), slow(a, a))


class TestConditionsMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(joints())
    def test_five_conditions(self, j):
        for fast, slow in COND_PAIRS:
            _assert_exact_equal(fast(j), slow(j))

    @settings(max_examples=200, deadline=None)
    @given(joints())
    def test_improver_flip_skips_normalization(self, j):
        flipped = [(w + z, -z, p) for w, z, p in j.atoms]
        want = ref.cond_new(normalize_joint(flipped))
        assert improver_check(j).in_n == want.holds


class TestMarketabilityMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        schedules(),
        laws(st.integers(0, 16).map(lambda k: F(k, 2)), max_atoms=10),
        st.fractions(0, 6, max_denominator=12),
    )
    def test_one_pass_equals_per_threshold_means(self, i, x, p0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # premiums above E[I(X)] warn by design
            _assert_exact_equal(marketable_check(i, x, p0), ref.marketable_check(i, x, p0))


# tolerances in units of max(spot, strike).  Over the 300 draws below the
# closed form meets scipy's adaptive quad within 2e-16 and the 200-node rule
# of the reference within 5e-15.  That rule loses digits as t nears the
# horizon, where P_t nears the kinked payoff: at-the-money puts (sigma 0.05
# to 1, horizon 0.05 to 5) read up to 1.2e-9 at t = 0.99 horizon, 1e-15 at
# t = 0.9 horizon.
_QUAD_TOL = 1e-12
_RULE_TOL = 1e-8


def _put_draws(seed, count, drift=lambda rng: -rng.uniform(0.0, 0.5)):
    """Random protective-put cases: spot over strike from 1e-3 to 1e3, strike
    from 1e-3 to 1e3, sigma in [0.05, 1], horizon in [0.05, 5] and t inside
    (0, horizon)."""
    rng = random.Random(seed)
    for _ in range(count):
        strike, horizon = 10 ** rng.uniform(-3, 3), rng.uniform(0.05, 5.0)
        params = BSParams(strike * 10 ** rng.uniform(-3, 3), strike, rng.uniform(0.05, 1.0),
                          0.0, horizon)
        object.__setattr__(params, "drift", drift(rng))  # a positive drift past BSParams' rule
        yield params, horizon * rng.uniform(0.01, 0.99)


def _lower_tail_gain(params, t, g_hi, p0):
    """E[P_t - P_0 | G <= g_hi] by scipy's adaptive quadrature over the generator G."""
    def integrand(g):
        return (ref.put_price(params, params.horizon - t, ref.spot_at(params, t, g)) - p0) * ref._phi(g)

    unit = max(params.spot, params.strike)
    value, err = quad(integrand, -12.0, g_hi, epsabs=1e-14 * unit, epsrel=1e-13, limit=200)
    assert err <= 1e-13 * unit
    return value / ref._cdf(g_hi)


class TestProtectivePutMatchesReference:
    """E[P_t] and the verdict by closed forms against 200-node quadrature and
    scipy's quad, over 300 random cases with nonpositive drift."""

    def test_expected_put_value(self):
        for params, t in _put_draws(27, 300):
            unit = max(params.spot, params.strike)
            got = expected_put_value(params, t)
            assert abs(got - ref.expected_put_value(params, t)) <= _RULE_TOL * unit
            p0 = bs_put(params, 0.0, params.spot)
            assert abs(got - p0 - _lower_tail_gain(params, t, 12.0, p0)) <= _QUAD_TOL * unit

    def test_verdict_holds_on_every_lower_tail(self):
        for params, t in _put_draws(28, 300):
            assert protective_put_check(params, t) == ref.protective_put_check(
                params, t, [ref._positions(params, t, [g], 0.0)[1][0] for g in range(-4, 5)])
            p0 = bs_put(params, 0.0, params.spot)
            unit = max(params.spot, params.strike)
            assert all(_lower_tail_gain(params, t, g, p0) >= -1e-9 * unit for g in (-2.0, 0.0, 2.0))

    def test_a_positive_drift_fails_on_the_whole_space(self):
        # past BSParams' rule the theorem's verdict fails, and the reference
        # finds the mean gain below zero; a put worth almost nothing cannot
        # lose 1e-9 of max(spot, strike), so the put is at the money
        draws = _put_draws(29, 100, drift=lambda rng: rng.uniform(0.05, 0.5))
        for params, t in draws:
            object.__setattr__(params, "spot", params.strike)
            v = protective_put_check(params, t)
            assert not v.holds and not ref.protective_put_check(params, t).holds
            w = v.witness
            assert (w.kind, w.value, w.rhs) == ("threshold_x", math.inf, 0.0)
            p0 = bs_put(params, 0.0, params.spot)
            assert abs(w.lhs - _lower_tail_gain(params, t, 12.0, p0)) <= _QUAD_TOL * params.strike


SYNTH_MODES = [
    (synth_supermartingale, check_ssd, "supermartingale"),
    (synth_martingale, check_cx, "martingale"),
]


class TestSynthesisMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(small_pairs())
    def test_feasibility_couplings_and_certificates(self, pair):
        x, y = pair
        for synth, check, mode in SYNTH_MODES:
            res, verdict = synth(x, y), check(x, y)
            lp = ref.solve_transport(x, y, mode == "martingale")
            assert res.feasible == verdict.holds == (lp is not None)
            if res.feasible:
                assert verify_coupling(res.coupling, x, y, mode)
            else:
                assert res.certificate == verdict.witness


def _joint_cells_of(x, y, cells):
    """The (w, z, mass) cells of the reference's (row, column, mass) cells."""
    return [(x.values[i], y.values[j] - x.values[i], m) for i, j, m in cells if m]


class TestConstructionMatchesReference:
    """The integer construction builds exactly the cells of the Fraction one,
    and the (w, z, mass) cells that synthesize reports read z = y - w off them."""

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generated_pairs_both_modes(self, rng):
        x = gen.random_discrete(rng, 25)
        for y in (gen.random_shift_down(rng, x), gen.mean_preserving_spread(rng, x),
                  gen.random_shift_down(rng, gen.mean_preserving_spread(rng, x)),
                  gen.random_discrete(rng, 25)):
            for synth, _, _ in SYNTH_MODES:
                res = synth(x, y)
                if res.feasible:
                    cells = ref.coupling_cells(x, y)
                    assert res.coupling.cells == cells
                    assert _joint_cells(res.coupling) == _joint_cells_of(x, y, cells)

    def test_windows_ending_inside_atoms_both_modes(self):
        cut_inside = 0
        for seed in range(24):
            rng = random.Random(seed)
            x, y = gen.narrow_against_wide(rng, rng.randint(2, 60), seed % 2)
            for synth, shift in ((synth_martingale, 0), (synth_supermartingale, F(1, 3))):
                ys = affine(y, 1, -shift)
                res = synth(x, ys)
                assert res.feasible
                assert res.coupling.cells == ref.coupling_cells(x, ys)
            # martingale mode keeps U = X, so its masses are ints over the
            # pair's D unless a window's last step cut an atom
            D = math.lcm(*(p.denominator for p in (*x.probs, *y.probs)))
            cells = synth_martingale(x, y).coupling.cells
            cut_inside += any((q * D).denominator != 1 for _, _, q in cells)
        assert cut_inside == 24

    def test_support_cap_families_both_modes(self, monkeypatch):
        # the four families of scripts/support_cap.py, whose windows cut
        # atoms that later windows cut again
        spec = importlib.util.spec_from_file_location("support_cap", SCRIPTS / "support_cap.py")
        script = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src/ on the path
        spec.loader.exec_module(script)
        for name, family in script.FAMILIES.items():
            for seed in (1, 2, 3):
                x, y = family(random.Random(seed), 100 * seed)
                for synth, ys, mode in ((synth_martingale, y, "martingale"),
                                        (synth_supermartingale, affine(y, 1, -script.SHIFT),
                                         "supermartingale")):
                    res = synth(x, ys)
                    assert res.feasible, (name, seed, mode)
                    cells = ref.coupling_cells(x, ys)
                    assert res.coupling.cells == cells, (name, seed, mode)
                    assert _joint_cells(res.coupling) == _joint_cells_of(x, ys, cells)
                    assert verify_coupling(res.coupling, x, ys, mode)

    def test_windows_ending_on_atoms_already_cut_both_modes(self):
        # four rows end windows inside Y's atom -108 (column 1); its
        # remainder goes over 11, 33 and then 165 = 3 5 11 units of 1/D
        # (D = 110): each later cut's denominator is coprime to the last
        x = normalize([(-330, 4), (-220, 1), (165, 3), (275, 3)])
        y = normalize([(-438, 3), (-108, 3), (112, 1), (442, 3)])
        res = synth_martingale(x, y)
        assert res.coupling.cells == ref.coupling_cells(x, y)
        assert [(q * 110).denominator for _, j, q in res.coupling.cells if j == 1] == [11, 33, 55, 165]
        assert verify_coupling(res.coupling, x, y, "martingale")
        ys = affine(y, 1, F(-1, 3))
        res = synth_supermartingale(x, ys)
        assert res.coupling.cells == ref.coupling_cells(x, ys)
        assert verify_coupling(res.coupling, x, ys, "supermartingale")

    def test_window_sliding_onto_an_atom_cut_over_another_denominator_both_modes(self):
        # a window that has started slides onto an atom an earlier window
        # cut, whose denominator does not divide the window's q: q and the
        # mass it tracks are lifted mid-slide.  X <=cx Y with equal means,
        # so U = X and both modes build these cells.
        x = normalize([(-8, F(1, 20)), (-4, F(9, 20)), (F(-11, 3), F(1, 20)), (-2, F(1, 5)),
                       (F(1, 3), F(1, 4))])
        y = normalize([(F(-66, 7), F(7, 190)), (F(-26, 3), F(3, 310)), (-6, F(81, 260)),
                       (-4, F(1, 76)), (F(-37, 15), F(5, 124)), (-2, F(1, 5)),
                       (F(-7, 15), F(5, 34)), (F(1, 2), F(9, 65)), (F(31, 21), F(7, 68))])
        assert check_cx(x, y).holds
        for synth, _, mode in SYNTH_MODES:
            res = synth(x, y)
            assert len(res.coupling.cells) == 17
            assert res.coupling.cells == ref.coupling_cells(x, y)
            assert verify_coupling(res.coupling, x, y, mode)


class TestGeneratorMatchesReference:
    def test_random_joint_draws_the_same_joints(self):
        for nonneg in (False, True):
            fast, slow = random.Random(20260818), random.Random(20260818)
            for _ in range(250):
                assert random_joint(fast, nonneg_w=nonneg) == ref.random_joint(slow, nonneg_w=nonneg)
            assert fast.getstate() == slow.getstate()


def _assert_cached_form(d):
    """d's integer form is as_integers of each column of its public
    Fractions, however d was built, and holding it is invisible to ==, hash,
    repr and pickle."""
    cold = type(d)(d.atoms)
    columns = [as_integers(col) for col in zip(*d.atoms)]
    want = tuple(x for ints, scale in columns for x in (ints, scale))
    for law in (d, cold):
        got = tuple(list(x) if isinstance(x, tuple) else x for x in law.ints)
        assert got == want
        assert all(type(i) is int for col in law.ints[::2] for i in col)
    fresh = type(d)(d.atoms)
    assert cold == d == fresh and hash(cold) == hash(d) == hash(fresh)
    assert repr(cold) == repr(d) == repr(fresh)
    assert pickle.dumps(cold) == pickle.dumps(d) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back.ints == d.ints


class TestCachedIntegerForm:
    @settings(max_examples=200, deadline=None)
    @given(raw_cells(2))
    def test_normalize(self, raw):
        try:
            d = normalize(raw)
        except InputError:
            return
        _assert_cached_form(d)
        _assert_cached_form(affine(d, -1, 0))

    @settings(max_examples=150, deadline=None)
    @given(laws(weights=st.one_of(st.integers(1, 59), coprime_weights)),
           spelled(st.one_of(rationals, coprime)), spelled(st.one_of(rationals, coprime)))
    def test_laws_and_their_transforms(self, x, a, b):
        _assert_cached_form(x)
        _assert_cached_form(DiscreteDist(x.atoms))
        _assert_cached_form(affine(x, -1, 0))
        _assert_cached_form(affine(x, a, b))
        _assert_cached_form(discretize(x, 3))

    @settings(max_examples=200, deadline=None)
    @given(raw_cells(3))
    def test_normalize_joint_and_its_marginals(self, raw):
        try:
            j = normalize_joint(raw)
        except InputError:
            return
        for law in (j, joint_marginal_w(j), joint_sum(j)):
            _assert_cached_form(law)

    @settings(max_examples=200, deadline=None)
    @given(joints())
    def test_joints_and_their_marginals(self, j):
        for law in (j, joint_marginal_w(j), joint_sum(j)):
            _assert_cached_form(law)
        # the marginals of a joint built by the constructor, not by normalize_joint
        cold = JointDist(j.atoms)
        assert joint_sum(cold) == joint_sum(j) and joint_sum(cold).ints == joint_sum(j).ints

    def test_finite_parametric_laws(self):
        for d in (Bernoulli(0.25), Bernoulli(0.3), Bernoulli(0.0), Bernoulli(1.0), PointMass(-2.5), PointMass(0.1)):
            _assert_cached_form(as_discrete(d))
            _assert_cached_form(discretize(d, 4))
            _assert_cached_form(affine(as_discrete(d), -1, 0))
        _assert_cached_form(affine(Bernoulli(0.3), -1, 0))

    def test_discretized_continuous_laws(self):
        for d in (Normal(0.5, 2.0), Exponential(1.5), LogNormal(0.0, 0.5)):
            for n in (2, 5, 8):
                _assert_cached_form(discretize(d, n))

    def test_generators(self):
        rng = random.Random(7)
        for _ in range(30):
            x = gen.random_discrete(rng)
            for law in (x, gen.random_shift_down(rng, x), gen.mean_preserving_spread(rng, x),
                        gen.random_joint(rng), gen.random_joint(rng, nonneg_w=True),
                        gen.random_comonotone_improver_joint(rng)):
                _assert_cached_form(law)
        _assert_cached_form(gen.gaussian_improver_joint(0.3, n=4))

    def test_duplicate_and_zero_weight_atoms(self):
        d = normalize([(F(1, 3), 2), (F(5, 7), 0), (F(1, 3), F(1, 2)), ("2/6", 0), (1, F(3, 4))])
        assert d.ints == ((1, 3), 3, (10, 3), 13)
        _assert_cached_form(d)
        d = normalize([(0, 4), (1, 2), (0, 2)])  # merged weights 6 and 2 share a factor 2
        assert d.ints == ((0, 1), 1, (3, 1), 4)
        _assert_cached_form(d)
        j = normalize_joint([(F(1, 2), F(1, 5), 1), (0, 1, 0), ("1/2", "0.2", 2), (1, F(-1, 3), 3)])
        assert j.ints == ((1, 2), 2, (3, -5), 15, (1, 1), 2)
        _assert_cached_form(j)
        for law in (joint_marginal_w(j), joint_sum(j)):
            _assert_cached_form(law)
