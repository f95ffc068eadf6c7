"""Acceptance gate: the nine headline guarantees, one test per criterion.

Each test is exhaustive or seeded-random at the stated scale, asserts zero
violations at the stated tolerance, asserts its runtime bound where one is
part of the guarantee, and prints a single PASS line with the headline
counts.  Seeds are fixed in-file so failures replay exactly.
"""

import math
import random
import time
import warnings
from fractions import Fraction as F
from itertools import accumulate, combinations

from scipy.integrate import quad

from stochorder import (
    BernoulliCase,
    BSParams,
    Exponential,
    FixedIndemnity,
    GaussianCase,
    bernoulli_joint,
    bs_put,
    check_cx,
    check_icx,
    check_ssd,
    cond_classic,
    cond_icx,
    cond_new,
    conditional_indemnity_mean,
    coupling_to_joint,
    es,
    expected_put_value,
    gaussian_cond_new_numeric,
    gaussian_ssd_check,
    joint_marginal_w,
    joint_sum,
    marketable_check,
    mean,
    normalize,
    oracle_icx,
    oracle_ssd,
    phi,
    protective_put_check,
    stop_loss,
    stop_loss_compare,
    synth_martingale,
    synth_supermartingale,
    verify_coupling,
)
from stochorder.dists import norm_pdf

from . import reference as ref
from .gen import (
    mean_preserving_spread,
    random_discrete,
    random_joint,
    random_shift_down,
)

_HALF = F(1, 2)


def test_criterion_1_two_point_region_table_exact():
    """Checker verdicts match the closed-form region on the full lattice."""
    start = time.perf_counter()
    cells = 0
    for ci in range(16):
        c = F(ci, 10)
        for ri in range(-10, 11):
            rho = F(ri, 10)
            j = bernoulli_joint(BernoulliCase(c, rho))
            w = joint_marginal_w(j)
            total = joint_sum(j)
            got = (
                check_ssd(w, total).holds,
                cond_new(j).holds,
                cond_classic(j).holds,
            )
            lower = 1 - 2 * c
            upper = 2 * c - 1
            want = (
                c >= _HALF and rho >= lower,
                c >= _HALF and rho >= lower,
                c >= _HALF and lower <= rho <= upper,
            )
            assert got == want, (c, rho, got, want)
            cells += 1
    elapsed = time.perf_counter() - start
    assert cells == 336
    assert elapsed < 5.0
    print(f"PASS criterion 1: two-point region exact on {cells} cells, "
          f"0 mismatches ({elapsed:.2f}s < 5s)")


def test_criterion_2_gaussian_region_table_numeric():
    """Numeric and parametric routes match the closed-form region off-boundary."""
    start = time.perf_counter()
    checked_new = checked_ssd = skipped = 0
    for mu in (-0.5, -0.1, 0.0, 0.1):
        for sigma in (0.5, 1.0, 2.0):
            for ri in range(-9, 10):
                rho = ri / 10.0
                case = GaussianCase(mu, sigma, rho)
                if min(abs(mu), abs(rho)) >= 1e-6:
                    want = mu <= 0.0 and rho >= 0.0
                    assert gaussian_cond_new_numeric(case) == want, case
                    checked_new += 1
                else:
                    skipped += 1
                if min(abs(mu), abs(rho + sigma / 2.0)) >= 1e-6:
                    want = mu <= 0.0 and rho >= -sigma / 2.0
                    assert gaussian_ssd_check(case) == want, case
                    checked_ssd += 1
    elapsed = time.perf_counter() - start
    assert checked_new > 150 and checked_ssd > 150
    assert elapsed < 30.0
    print(f"PASS criterion 2: gaussian region, {checked_new} interior cells "
          f"(lower-tail) + {checked_ssd} (dominance), 0 mismatches, "
          f"{skipped} boundary cells excluded ({elapsed:.2f}s < 30s)")


def test_criterion_3_lower_tail_condition_implies_dominance():
    """Sufficiency on 10,000 random joints; non-necessity exhibited >= 100 times."""
    seed = 20260818
    rng = random.Random(seed)
    start = time.perf_counter()
    holders = exhibits = 0
    for _ in range(10_000):
        j = random_joint(rng)
        w = joint_marginal_w(j)
        total = joint_sum(j)
        if cond_new(j).holds:
            holders += 1
            assert check_ssd(w, total).holds, j
            assert oracle_ssd(w, total).holds, j
        elif check_ssd(w, total).holds:
            exhibits += 1
    elapsed = time.perf_counter() - start
    assert holders > 0
    assert exhibits >= 100
    assert elapsed < 10.0
    print(f"PASS criterion 3: seed {seed}, 10000 joints, {holders} satisfied "
          f"the lower-tail condition (all dominated via both routes), "
          f"{exhibits} dominance-without-condition exhibits "
          f"({elapsed:.1f}s < 10s)")


def test_criterion_4_coupling_synthesis_roundtrip():
    """Synthesis feasibility matches order verdicts on 500 constructed pairs."""
    seed = 42
    rng = random.Random(seed)
    start = time.perf_counter()
    sup_feasible = mart_feasible = 0
    for k in range(500):
        x = random_discrete(rng)
        if k % 3 == 0:
            y = random_shift_down(rng, x)
        elif k % 3 == 1:
            y = mean_preserving_spread(rng, x)
        else:
            y = random_discrete(rng)
        rs = synth_supermartingale(x, y)
        rm = synth_martingale(x, y)
        assert rs.feasible == check_ssd(x, y).holds, (x, y)
        assert rm.feasible == check_cx(x, y).holds, (x, y)
        for res, mode in ((rs, "supermartingale"), (rm, "martingale")):
            if not res.feasible:
                continue
            if mode == "supermartingale":
                sup_feasible += 1
            else:
                mart_feasible += 1
            assert verify_coupling(res.coupling, x, y, mode)
            j = coupling_to_joint(res.coupling)
            assert cond_classic(j).holds
            assert cond_new(j).holds
    elapsed = time.perf_counter() - start
    assert sup_feasible > 0 and mart_feasible > 0
    assert elapsed < 10.0
    print(f"PASS criterion 4: seed {seed}, 500 pairs, 0 disagreements, "
          f"{sup_feasible} supermartingale / {mart_feasible} martingale "
          f"couplings all verified ({elapsed:.1f}s < 10s)")


def test_criterion_5_tail_measure_invariants():
    """Monotonicity, mean identity, concavity, subset bound, tail-mean identity."""
    rng = random.Random(5)
    start = time.perf_counter()

    for _ in range(300):
        d = random_discrete(rng)
        assert es(d, 0) == mean(d)
        levels = list(accumulate(d.probs, initial=F(0)))
        values = [phi(d, p) for p in levels]
        slopes = [(v1 - v0) / (p1 - p0)
                  for p0, p1, v0, v1 in zip(levels, levels[1:], values, values[1:])]
        assert all(b <= a for a, b in zip(slopes, slopes[1:]))
        levels = sorted({F(k, 7) for k in range(7)} | {F(k, 13) for k in range(13)})
        vals = [es(d, p) for p in levels]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    subsets = 0
    for n in range(1, 13):
        values = [F(v, 2) for v in rng.sample(range(-30, 31), n)]
        d = normalize([(v, F(1, n)) for v in values])
        for k in range(1, n + 1):
            bound = es(d, 1 - F(k, n))
            for subset in combinations(values, k):
                assert sum(subset) / k <= bound, (values, subset)
                subsets += 1

    laws = 0
    for _ in range(1000):
        d = random_discrete(rng)
        laws += 1
        cum = F(0)
        for _, p in d.atoms[:-1]:
            cum += p
            assert es(d, cum) == ref.upper_tail_mean(d, ref.quantile_right(d, cum)), (d, cum)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: tail-measure invariants on 300 laws, "
          f"{subsets} subset-average bounds (n <= 12 exhaustive), tail-mean "
          f"identity at every regular level of {laws} laws ({elapsed:.1f}s)")


def test_criterion_6_fixed_indemnity_conditional_means():
    """Closed-form conditional means and the marketability threshold."""
    i = FixedIndemnity(1, 1)
    loss = Exponential(1.0)
    worst = 0.0
    seen_min = math.inf
    for k in range(101):
        x = k / 100.0
        got = float(conditional_indemnity_mean(i, loss, x))
        want = 1.0 / (1.0 + math.e - math.exp(x))
        worst = max(worst, abs(got - want))
        seen_min = min(seen_min, got)
    assert worst <= 1e-10
    assert abs(seen_min - math.exp(-1)) <= 1e-10
    assert marketable_check(i, loss, math.exp(-1)).holds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # premium above fair value warns
        high = marketable_check(i, loss, math.exp(-1) + 1e-6)
    assert not high.holds
    print(f"PASS criterion 6: conditional indemnity mean within {worst:.2e} "
          f"of closed form on 101 points, min = 1/e within 1e-10, "
          f"marketability flips at premium 1/e + 1e-6")


def test_criterion_7_stop_loss_dominance():
    """Exponential closed form; curve dominance under the upper-tail condition."""
    for d in (0.0, 0.5, 1.0, 2.0):
        assert abs(stop_loss(Exponential(1.0), d) - math.exp(-d)) <= 1e-12, d
    seed = 707
    rng = random.Random(seed)
    start = time.perf_counter()
    passing = tried = 0
    while passing < 1000:
        tried += 1
        assert tried <= 50_000, "upper-tail condition pass rate collapsed"
        j = random_joint(rng, nonneg_w=True)
        if not cond_icx(j).holds:
            continue
        passing += 1
        cmp = stop_loss_compare(j)
        assert cmp.dominates, j
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 7: exponential stop-loss within 1e-12 at 4 "
          f"deductibles; dominance at all breakpoints for {passing} joints "
          f"passing the upper-tail condition (seed {seed}, {tried} sampled, "
          f"{elapsed:.1f}s < 10s)")


def test_criterion_8_protective_put():
    """Put price vs independent quadrature; conditional drift condition."""
    start = time.perf_counter()
    params = BSParams(spot=1.0, strike=1.0, sigma=0.2, drift=-0.05, horizon=1.0)

    def payoff_density(g: float) -> float:
        terminal = math.exp(-0.5 * 0.2**2 + 0.2 * g)
        return (1.0 - terminal) * norm_pdf(g)

    # the payoff vanishes above the kink at g = sigma/2, so integrating up
    # to it keeps the integrand smooth and the error estimate honest
    kink = 0.1
    independent, quad_err = quad(
        payoff_density, -12.0, kink, limit=200, epsabs=1e-12, epsrel=1e-12
    )
    p0 = bs_put(params, 0.0, params.spot)
    assert quad_err < 1e-9
    assert abs(p0 - independent) <= 1e-6
    assert abs(p0 - 0.079656) <= 1e-6
    for t in (0.25, 0.5, 0.75):
        assert protective_put_check(params, t).holds, t
        assert expected_put_value(params, t) >= p0 - 1e-9, t
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 8: put price {p0:.6f} within 1e-6 of independent "
          f"quadrature; conditional drift condition and mean inequality hold "
          f"at t in {{0.25, 0.5, 0.75}} ({elapsed:.2f}s < 10s)")


def test_criterion_9_oracle_equivalence():
    """Primal checkers agree with the transform oracles on 1000 pairs."""
    seed = 99
    rng = random.Random(seed)
    start = time.perf_counter()
    ssd_holds = icx_holds = 0
    for k in range(1000):
        x = random_discrete(rng)
        if k % 4 == 0:
            y = random_shift_down(rng, x)
        elif k % 4 == 1:
            y = mean_preserving_spread(rng, x)
        else:
            y = random_discrete(rng)
        v_ssd = check_ssd(x, y)
        assert v_ssd.holds == oracle_ssd(x, y).holds, (x, y)
        v_icx = check_icx(x, y)
        assert v_icx.holds == oracle_icx(x, y).holds, (x, y)
        ssd_holds += v_ssd.holds
        icx_holds += v_icx.holds
    elapsed = time.perf_counter() - start
    assert ssd_holds > 0 and icx_holds > 0
    assert elapsed < 5.0
    print(f"PASS criterion 9: seed {seed}, 1000 pairs, checker/oracle "
          f"agreement exact for both orders ({ssd_holds} ssd holds, "
          f"{icx_holds} icx holds, {elapsed:.1f}s < 5s)")
