"""Welch test, t tail probabilities, and box-whisker statistics.

Reference values were computed independently at 40-digit precision with
mpmath (regularized incomplete beta for the tail, a root of it for the
quantile, erfc for the normal limit, exact Fraction arithmetic for the
Welch statistics) and are frozen here: mpmath is not a test dependency.
"""

import math

import numpy as np
import pytest

from trendlag.stats import (
    box_stats,
    t_distribution_upper_tail,
    t_quantile,
    welch_upper_tail,
)

# (t, dof, upper-tail probability) at 22 significant digits (mpmath)
T_TAIL_REFERENCE = [
    (0.0, 5.0, 0.5),
    (1.0, 1.0, 0.25),
    (2.0, 4.0, 0.05805826175840779725),
    (1.372, 10.0, 0.1000276706997147632),
    (2.5, 7.5, 0.01941012913681277859),
    (-1.5, 3.0, 0.8847080673775884739),
    (0.5, 29.0, 0.3104240420968906820),
    (4.0, 2.0, 0.02859547920896831707),
    (10.0, 100.0, 4.950844492297069588e-17),
    (3.291, 1000.0, 5.166099358881048084e-4),
    (17.320508075688775, 6.0, 1.186667271948123703e-6),
]

# (p, dof, t with P(T <= t) = p) at 22 significant digits (mpmath), for p
# as the float it rounds to
T_QUANTILE_REFERENCE = [
    (0.95, 1.0, 6.313751514675037397925),
    (0.99, 1.0, 31.82051595377392975844),
    (0.999, 1.0, 318.3088389855501632048),
    (0.95, 2.5, 2.558218614135935458588),
    (0.99, 2.5, 5.353111173030872286627),
    (0.999, 2.5, 13.82219311086595967891),
    (0.95, 6.0, 1.943180280515302565984),
    (0.99, 6.0, 3.142668403290982659755),
    (0.999, 6.0, 5.207626238725362796329),
    (0.95, 34322.0 / 15643.0, 2.751244209816398048337),
    (0.99, 34322.0 / 15643.0, 6.185348827375729046227),
    (0.999, 34322.0 / 15643.0, 17.99953519618628154780),
    (0.95, 30.0, 1.697260886593957383683),
    (0.99, 30.0, 2.457261542400590987301),
    (0.999, 30.0, 3.385184866829304785318),
    (0.95, 1000.0, 1.646378817285464284023),
    (0.99, 1000.0, 2.330082674755512647176),
    (0.999, 1000.0, 3.098402163912922647006),
]

# standard normal quantiles at the same p (mpmath), the infinite-dof limit
NORMAL_QUANTILE_REFERENCE = [
    (0.95, 1.644853626951472284276),
    (0.99, 2.326347874040840767637),
    (0.999, 3.090232306167813277758),
]


class TestTQuantile:
    def test_reference_values_within_relative_1e_12(self):
        for p, dof, expected in T_QUANTILE_REFERENCE:
            assert t_quantile(p, dof) == pytest.approx(expected, rel=1e-12, abs=0)
            assert t_quantile(1.0 - p, dof) == pytest.approx(-expected, rel=1e-12, abs=0)

    def test_round_trip_through_the_tail(self):
        for p in (0.6, 0.9, 0.95, 0.99, 0.999, 0.999999):
            for dof in (0.5, 1.0, 2.5, 6.0, 34322.0 / 15643.0, 30.0, 1000.0, 1e6):
                t = t_quantile(p, dof)
                assert t_distribution_upper_tail(t, dof) == pytest.approx(1.0 - p, rel=1e-13, abs=0)

    def test_median_and_tiny_tails(self):
        assert t_quantile(0.5, 3.0) == 0.0
        # the Cauchy quantile is -cot(pi p), here -1/(pi p) to 30 digits
        assert t_quantile(1e-15, 1.0) == pytest.approx(-1.0 / (math.pi * 1e-15), rel=1e-12)

    def test_infinite_dof_is_the_normal_quantile(self):
        for p, expected in NORMAL_QUANTILE_REFERENCE:
            assert t_quantile(p, math.inf) == pytest.approx(expected, rel=1e-12, abs=0)
            t = t_quantile(p, math.inf)
            assert t_distribution_upper_tail(t, math.inf) == pytest.approx(1.0 - p, rel=1e-13, abs=0)

    def test_invalid_arguments(self):
        for p in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="probability"):
                t_quantile(p, 5.0)
        for dof in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="degrees of freedom"):
                t_quantile(0.9, dof)


class TestTDistributionUpperTail:
    def test_reference_values_within_1e_10(self):
        for t, dof, expected in T_TAIL_REFERENCE:
            assert t_distribution_upper_tail(t, dof) == pytest.approx(expected, abs=1e-10)

    def test_reference_values_within_relative_1e_12(self):
        for t, dof, expected in T_TAIL_REFERENCE:
            assert t_distribution_upper_tail(t, dof) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_large_dof_keeps_its_precision(self):
        # x = dof / (dof + t^2) lies near 1 here, where an incomplete beta
        # fraction written in x alone cancels; 40-digit mpmath values
        for t, dof, expected in [
            (2.0, 1e6, 0.02275026692565960421059),
            (3.0, 1e12, 1.349898031663333389742e-3),
            (8.0, 1e15, 6.220960574278352075925e-16),
        ]:
            assert t_distribution_upper_tail(t, dof) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_infinite_dof_is_the_normal_tail(self):
        assert t_distribution_upper_tail(1.0, math.inf) == pytest.approx(
            0.1586552539314570514, rel=1e-14, abs=0
        )
        for t in (-3.0, -0.5, 0.0, 0.7, 2.0, 6.0):
            assert t_distribution_upper_tail(t, math.inf) == 0.5 * math.erfc(t / math.sqrt(2.0))

    def test_t_table_entry(self):
        # standard table: one-tail 0.10 critical value for dof=10 is 1.372
        assert t_distribution_upper_tail(1.372, 10) == pytest.approx(0.10, abs=5e-4)

    def test_limits(self):
        assert t_distribution_upper_tail(0.0, 3.0) == 0.5
        assert t_distribution_upper_tail(1e8, 4.0) < 1e-12
        assert t_distribution_upper_tail(math.inf, 4.0) == 0.0
        assert t_distribution_upper_tail(-math.inf, 4.0) == 1.0

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            t_distribution_upper_tail(1.0, 0.0)
        with pytest.raises(ValueError):
            t_distribution_upper_tail(1.0, -2.0)

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.4):
            up = t_distribution_upper_tail(t, 7.0)
            down = t_distribution_upper_tail(-t, 7.0)
            assert up + down == pytest.approx(1.0, abs=1e-14)


# Three fixed Welch fixtures, hand-derived with exact fractions.
#
# Pair 1: a = (0.60, 0.61, 0.59, 0.60), b = (0.50, 0.51, 0.49, 0.50)
#   mean_a = 0.60, mean_b = 0.50, unbiased variances both 2e-4/3,
#   se^2 = 2 * (2e-4/3)/4 = 1/30000, t = 0.1 * sqrt(30000) = sqrt(300),
#   dof = (1/30000)^2 / (2 * ((1/60000)^2 / 3)) = 6 exactly.
# Pair 2: a = (0.70, 0.60, 0.65), b = (0.50, 0.52, 0.48, 0.50, 0.50)
#   va = 25e-4, vb = 2e-4, se^2 = 25e-4/3 + 2e-4/5 = 137/156800... (exact
#   Fractions), t = 0.13 / sqrt(se^2), dof = 34322/15643.
# Pair 3: a = (0.48, 0.50, 0.47, 0.49, 0.51, 0.46), b = (0.52, 0.55, 0.50, 0.53)
#   negative direction: t < 0, upper-tail p close to 1, dof = 375/62.
WELCH_FIXTURES = [
    (
        (0.60, 0.61, 0.59, 0.60),
        (0.50, 0.51, 0.49, 0.50),
        17.32050807568877294,
        6.0,
        1.186667271948124374e-6,
    ),
    (
        (0.70, 0.60, 0.65),
        (0.50, 0.52, 0.48, 0.50, 0.50),
        5.075761891443091935,
        34322.0 / 15643.0,
        0.01509798672366094587,
    ),
    (
        (0.48, 0.50, 0.47, 0.49, 0.51, 0.46),
        (0.52, 0.55, 0.50, 0.53),
        -3.098386676965933508,
        375.0 / 62.0,
        0.9895299053038670113,
    ),
]


class TestWelchUpperTail:
    def test_fixtures_match_hand_computation(self):
        for a, b, t_ref, dof_ref, p_ref in WELCH_FIXTURES:
            result = welch_upper_tail(np.array(a), np.array(b), alpha=0.001)
            assert result.t_statistic == pytest.approx(t_ref, abs=1e-6)
            assert result.degrees_of_freedom == pytest.approx(dof_ref, abs=1e-6)
            assert result.p_value == pytest.approx(p_ref, abs=5e-7)

    def test_identical_samples(self):
        a = np.array([0.5, 0.6, 0.55])
        result = welch_upper_tail(a, a.copy())
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(0.5)
        assert result.min_difference < 0.0

    def test_zero_variance_equal_means_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            welch_upper_tail(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_zero_variance_unequal_means_is_directional(self):
        result = welch_upper_tail(np.array([0.6, 0.6]), np.array([0.5, 0.5]))
        assert result.t_statistic == math.inf
        assert result.p_value == 0.0
        assert result.min_difference == pytest.approx(0.1)

    def test_antisymmetry(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(0.5, 0.05, 9), rng.normal(0.52, 0.02, 14)
        fwd = welch_upper_tail(a, b)
        rev = welch_upper_tail(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, rel=1e-12)
        assert fwd.degrees_of_freedom == pytest.approx(rev.degrees_of_freedom, rel=1e-12)

    def test_shifting_sample_a_up_is_monotone(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(0.55, 0.04, 10), rng.normal(0.5, 0.03, 10)
        base = welch_upper_tail(a, b)
        shifted = welch_upper_tail(a + 0.01, b)
        assert shifted.t_statistic > base.t_statistic
        assert shifted.p_value < base.p_value
        assert shifted.min_difference == pytest.approx(base.min_difference + 0.01, abs=1e-12)

    def test_large_planted_gap_is_significant(self):
        rng = np.random.default_rng(15)
        a = rng.normal(0.60, 0.01, 30)
        b = rng.normal(0.50, 0.01, 30)
        result = welch_upper_tail(a, b, alpha=0.001)
        assert result.p_value < 0.001
        assert result.min_difference > 0.0

    def test_min_difference_definition(self):
        a = np.array([0.6, 0.61, 0.59, 0.60])
        b = np.array([0.50, 0.51, 0.49, 0.50])
        result = welch_upper_tail(a, b, alpha=0.001)
        se = math.sqrt(1.0 / 30000.0)
        expected = 0.1 - t_quantile(0.999, 6.0) * se
        assert result.min_difference == pytest.approx(expected, abs=1e-12)

    def test_null_calibration(self):
        # under the null, P(p < alpha) should approach alpha
        rng = np.random.default_rng(99)
        alpha, trials = 0.05, 3000
        hits = 0
        for _ in range(trials):
            a = rng.normal(0.5, 0.02, 12)
            b = rng.normal(0.5, 0.02, 12)
            if welch_upper_tail(a, b, alpha=alpha).p_value < alpha:
                hits += 1
        rate = hits / trials
        sd = math.sqrt(alpha * (1 - alpha) / trials)
        assert abs(rate - alpha) < 4 * sd

    def test_undersized_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_upper_tail(np.array([0.5]), np.array([0.5, 0.6]))


def _quartiles_pure_python(values):
    """Type-7 linear interpolation, independently of numpy."""
    ordered = sorted(values)
    n = len(ordered)

    def at(q):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    return at(0.25), at(0.5), at(0.75)


def _whiskers_bruteforce(values):
    """Scan every data point against the 1.5-IQR fences."""
    q1, _, q3 = _quartiles_pure_python(values)
    iqr = q3 - q1
    hi_fence, lo_fence = q3 + 1.5 * iqr, q1 - 1.5 * iqr
    inside_hi = [v for v in values if v <= hi_fence]
    inside_lo = [v for v in values if v >= lo_fence]
    wh = max(inside_hi) if inside_hi and max(inside_hi) >= q3 else q3
    wl = min(inside_lo) if inside_lo and min(inside_lo) <= q1 else q1
    outliers = sorted(v for v in values if v > hi_fence or v < lo_fence)
    return wl, wh, outliers


class TestBoxStats:
    def test_outlier_excluded_from_whisker(self):
        result = box_stats(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert result.whisker_high == 4.0  # 100 lies beyond Q3 + 1.5 IQR
        assert result.outliers == (100.0,)
        assert result.whisker_low == 1.0

    def test_all_equal_sample(self):
        result = box_stats(np.full(8, 0.5))
        assert result.median == result.q1 == result.q3 == 0.5
        assert result.whisker_low == result.whisker_high == 0.5
        assert result.outliers == ()
        assert result.notch_half_width == 0.0

    def test_symmetric_sample(self):
        result = box_stats(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert result.median - result.q1 == pytest.approx(result.q3 - result.median)

    def test_matches_bruteforce_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            sample = np.round(rng.normal(0.5, 0.1, n), 4)
            if rng.random() < 0.3:  # sprinkle outliers
                sample[: max(1, n // 10)] += rng.choice([-0.5, 0.5])
            result = box_stats(sample)
            wl, wh, outliers = _whiskers_bruteforce(sample.tolist())
            assert result.whisker_low == wl
            assert result.whisker_high == wh
            assert list(result.outliers) == outliers

    def test_quartiles_match_pure_python_interpolation(self):
        rng = np.random.default_rng(24)
        sample = rng.uniform(0, 1, 17)
        result = box_stats(sample)
        q1, med, q3 = _quartiles_pure_python(sample.tolist())
        assert result.q1 == pytest.approx(q1, abs=1e-12)
        assert result.median == pytest.approx(med, abs=1e-12)
        assert result.q3 == pytest.approx(q3, abs=1e-12)

    def test_whiskers_bounded_by_sample_range(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            sample = rng.normal(0, 1, int(rng.integers(5, 40)))
            result = box_stats(sample)
            assert sample.min() <= result.whisker_low
            assert result.whisker_high <= sample.max()
            assert result.whisker_low <= result.q1 <= result.median
            assert result.median <= result.q3 <= result.whisker_high

    def test_notch_formula(self):
        sample = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        result = box_stats(sample)
        iqr = result.q3 - result.q1
        assert result.notch_half_width == pytest.approx(1.57 * iqr / math.sqrt(8))

    def test_undersized_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            box_stats(np.array([1.0, 2.0, 3.0, 4.0]))
