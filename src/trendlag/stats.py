"""Statistical evaluation: upper-tail Welch's t-test and box-whisker summaries.

Per-stock accuracy samples from an experiment are compared against baseline
samples with an unequal-variance (Welch) t-test, reported upper-tailed at a
configurable significance level together with the lower bound of the
one-sided confidence interval for the mean difference ("min. diff.").
Box-and-whisker statistics use interpolated quartiles, 1.5-IQR whiskers,
and McGill notches for 95% median comparison.

The Student-t upper tail is the regularized incomplete beta function
I_x(dof/2, 1/2), computed here from its continued fraction: the odd
contraction of the classical fraction, evaluated with the modified Lentz
method, after the reflection I_x(a, b) = 1 - I_{1-x}(b, a) when
x > (a + 1)/(a + b + 2).  Its prefactor comes from ``math.lgamma``, with
Stirling's series for log B(a, b) once the larger argument reaches 10.
The t quantile inverts the tail by a bracketed Newton iteration; infinite
degrees of freedom give the normal limit through ``math.erfc``.  Over dof
from 0.1 to 1e20 the tail agrees with 50-digit values to about 3e-14
relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 0.001
NOTCH_CONSTANT = 1.57  # McGill et al. convention for 95% median-comparison notches

_FRACTION_TOLERANCE = 4e-16  # a few ulps: a tighter stop is never met
_FRACTION_MAX_TERMS = 1000  # at most 56 are used for any dof in 0.1..1e20
_TINY = 1e-300  # the Lentz guard against a zero denominator
_NEWTON_MAX_STEPS = 100
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Beyond this many degrees of freedom the t and normal tails differ by about
# t**4 / (4 dof) relative, below 1e-24 for every t with a tail above 1e-308.
_NORMAL_DOF = 1e30


def _stirling_correction(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), for x >= 10."""
    r = 1.0 / (x * x)
    series = 1.0 / 1188.0 - r * (691.0 / 360360.0 - r / 156.0)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r * series)))) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), without subtracting two large lgamma values."""
    lo, hi = min(a, b), max(a, b)
    if hi < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lgamma(hi) - lgamma(hi + lo) by Stirling's series
    return (
        math.lgamma(lo) + lo - lo * math.log(hi + lo) - (hi - 0.5) * math.log1p(lo / hi)
        + _stirling_correction(hi) - _stirling_correction(hi + lo)
    )


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    Both are passed so that neither is rounded near 1.  The classical
    fraction I_x = front / (1 + d1/(1 + d2/(1 + ...))) has
    d_{2m+1} = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)) and
    d_{2m} = m(b-m)x / ((a+2m-1)(a+2m)).  Its odd contraction
    1 + d1 - d1 d2/(1 + d3 + d2 - d3 d4/(1 + d5 + d4 - ...)) keeps each
    1 + d_{2m+1} whole, so that it can be written in y: with x near 1
    (large a) it is small, and 1 + d_{2m+1} in floating point would cancel.
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    if y < (b + 1.0) / (a + b + 2.0):  # x > (a + 1)/(a + b + 2): reflect
        return 1.0 - _incomplete_beta(b, a, y, x)
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - math.log(a) - _log_beta(a, b))

    def odd_terms(m: int) -> tuple[float, float]:  # -d_{2m+1} and 1 + d_{2m+1}
        # each product is split into ratios so that a near 1e300 does not overflow
        scale = (a + m) / (a + 2 * m) * ((a + b + m) / (a + 2 * m + 1))
        if x < 0.5:
            return scale * x, 1.0 - scale * x
        rest = (a * (2 * m + 1 - b) / (a + 2 * m) + m * (3 * m + 2 - b) / (a + 2 * m)) / (a + 2 * m + 1)
        return scale * x, rest + scale * y

    # modified Lentz on the contracted fraction
    minus_odd, value = odd_terms(0)
    value = value or _TINY
    c, d = value, 0.0
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        even = m * (b - m) / (a + 2 * m - 1) * (x / (a + 2 * m))  # d_{2m}
        numerator = minus_odd * even
        minus_odd, one_plus_odd = odd_terms(m)
        d = one_plus_odd + even + numerator * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = one_plus_odd + even + numerator / c
        c = c if abs(c) > _TINY else _TINY
        delta = c * d
        value *= delta
        if abs(delta - 1.0) <= _FRACTION_TOLERANCE:
            return front / value
    raise ArithmeticError(
        f"incomplete beta fraction did not converge in {_FRACTION_MAX_TERMS} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _check_dof(dof: float) -> None:
    if not dof > 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")


def t_distribution_upper_tail(t: float, dof: float) -> float:
    """P(T > t) for Student's t, via the regularized incomplete beta function.

    ``dof = inf`` gives the normal tail 0.5 erfc(t / sqrt 2).
    """
    _check_dof(dof)
    t = float(t)
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    if dof > _NORMAL_DOF:
        return 0.5 * math.erfc(t / math.sqrt(2.0))
    t2 = t * t
    half_tail = 0.5 * _incomplete_beta(0.5 * dof, 0.5, dof / (dof + t2), t2 / (dof + t2))
    return half_tail if t >= 0 else 1.0 - half_tail


def _t_density(t: float, dof: float) -> float:
    if dof > _NORMAL_DOF:
        return math.exp(-0.5 * t * t - _LOG_SQRT_2PI)
    return math.exp(
        -0.5 * (dof + 1.0) * math.log1p(t * t / dof) - 0.5 * math.log(dof) - _log_beta(0.5 * dof, 0.5)
    )


def _upper_quantile(q: float, dof: float) -> float:
    """The t > 0 with P(T > t) = q, for 0 < q < 1/2.

    Newton's method on log P(T > t) = log q, with steps taken in log t and
    kept inside the bracket (lo, hi) that every evaluated tail narrows.  In
    those coordinates the power-law tail of few degrees of freedom is nearly
    a straight line, so a tail of 1e-15 at one degree of freedom takes a
    handful of steps.
    """
    lo, hi = 0.0, math.inf
    t = 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        tail = t_distribution_upper_tail(t, dof)
        if tail > q:
            lo = t
        else:
            hi = t
        slope = t * _t_density(t, dof) / tail if tail > 0.0 else 0.0  # -d log(tail) / d log(t)
        step = math.log(tail / q) / slope if slope > 0.0 else math.nan
        if abs(step) <= 1e-15:  # |dt| <= 1e-15 t
            return t * math.exp(step)
        following = t * math.exp(min(step, 700.0))  # exp(710) raises
        if not lo < following < hi:  # outside the bracket (or no slope): bisect it
            if lo > 0.0 and hi < math.inf:
                following = math.sqrt(lo) * math.sqrt(hi)
                if not lo < following < hi:
                    return t  # no float left between the bounds: rounding noise
            else:
                following = t * math.e if tail > q else t / math.e
        t = following
    raise ArithmeticError(f"t quantile did not converge (q={q}, dof={dof})")


def t_quantile(p: float, dof: float) -> float:
    """Inverse CDF of Student's t; ``dof = inf`` gives the normal quantile."""
    _check_dof(dof)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    # 1 - p is exact for p >= 1/2, so each side inverts the tail it is in
    return _upper_quantile(1.0 - p, dof) if p > 0.5 else -_upper_quantile(p, dof)


@dataclass(frozen=True)
class WelchResult:
    """Upper-tail Welch comparison of two accuracy samples."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    min_difference: float  # lower bound of the one-sided CI for mean_a - mean_b
    alpha: float


def welch_upper_tail(
    sample_a: np.ndarray, sample_b: np.ndarray, alpha: float = DEFAULT_ALPHA
) -> WelchResult:
    """Welch's t-test of H1: mean(a) > mean(b), with unequal variances.

    t = (mean_a - mean_b) / sqrt(v_a/n_a + v_b/n_b) with unbiased sample
    variances; degrees of freedom by Welch-Satterthwaite; p is the upper
    tail; min_difference = (mean_a - mean_b) - t_{1-alpha,dof} * se.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    na, nb = a.size, b.size
    mean_diff = float(a.mean() - b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    ea, eb = va / na, vb / nb
    se2 = ea + eb
    if se2 == 0.0:
        if mean_diff == 0.0:
            raise ValueError("t statistic undefined: zero variance and equal means")
        # degenerate but directional: infinite separation
        t_stat = math.inf if mean_diff > 0 else -math.inf
        dof = float(na + nb - 2)
        return WelchResult(
            t_statistic=t_stat,
            degrees_of_freedom=dof,
            p_value=0.0 if mean_diff > 0 else 1.0,
            min_difference=mean_diff,
            alpha=alpha,
        )
    se = math.sqrt(se2)
    t_stat = mean_diff / se
    dof = se2 * se2 / (ea * ea / (na - 1) + eb * eb / (nb - 1))
    p_value = t_distribution_upper_tail(t_stat, dof)
    min_difference = mean_diff - t_quantile(1.0 - alpha, dof) * se
    return WelchResult(
        t_statistic=t_stat,
        degrees_of_freedom=dof,
        p_value=p_value,
        min_difference=min_difference,
        alpha=alpha,
    )


@dataclass(frozen=True)
class BoxStats:
    """Notched box-and-whisker summary of one accuracy sample."""

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    notch_half_width: float
    outliers: tuple[float, ...]


def box_stats(sample: np.ndarray) -> BoxStats:
    """Quartiles, 1.5-IQR whiskers, outliers, and the 95% median notch.

    Quartiles interpolate linearly between order statistics; whiskers are
    the extreme data points within 1.5 interquartile ranges of the box
    (falling back to the quartile itself if no point qualifies beyond it),
    and points past the fences are reported as outliers.
    """
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("box_stats expects a one-dimensional sample")
    if x.size < 5:
        raise ValueError(f"box_stats needs at least 5 values, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("sample must be finite")
    q1, median, q3 = np.percentile(x, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    hi_fence = q3 + 1.5 * iqr
    lo_fence = q1 - 1.5 * iqr
    inside_hi = x[x <= hi_fence]
    inside_lo = x[x >= lo_fence]
    whisker_high = float(inside_hi.max()) if inside_hi.size and inside_hi.max() >= q3 else float(q3)
    whisker_low = float(inside_lo.min()) if inside_lo.size and inside_lo.min() <= q1 else float(q1)
    outliers = tuple(sorted(float(v) for v in x[(x < lo_fence) | (x > hi_fence)]))
    notch = NOTCH_CONSTANT * iqr / math.sqrt(x.size)
    return BoxStats(
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        notch_half_width=float(notch),
        outliers=outliers,
    )
