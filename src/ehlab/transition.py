"""Cubic chaotic-transition law and its extraction from measured sweeps.

The transition of the chaotic-region measure is modeled as
mu(lam) = mu_c * (1.5 (lam/lam_c)^2 - 0.5 (lam/lam_c)^3) on a window
[0, lam_c + eps], with the quadratic limit for small kick strengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from .errors import (ConfigurationError, InsufficientDataError,
                     OutOfDomainError, SingularFitError, is_real,
                     require_instance, require_positive, require_table)

# Validity window margin eps = EPS_FACTOR * lam_c used by the fit;
# the Taylor remainder O(|lam - lam_c|^4) grows fast beyond lam_c.
FIT_EPS_FACTOR = 0.2
# Largest margin accepted when evaluating the law directly.
MAX_EPS_FACTOR = 0.5
# Floor applied to the CI-derived variances in the weighted fit, so the
# zero-width CIs at lam = 0 cannot dominate.
WEIGHT_VARIANCE_FLOOR = 1e-4
# Thresholds of check_critical_conditions: the largest |mu(0)|, |mu'(0)|,
# the least mu at the last sample, and the largest |mu''(lambda_c)|.
ORIGIN_TOL, SLOPE_TOL, PLATEAU_MIN, D2_TOL = 0.05, 0.05, 0.9, 0.01


@dataclass(frozen=True)
class TransitionCurve:
    """Critical kick strength and the plateau measure reached there."""

    lambda_c: float
    mu_c: float

    def __post_init__(self):
        require_positive("lambda_c", self.lambda_c)
        if not (is_real(self.mu_c) and 0.0 < self.mu_c <= 1.0):
            raise ConfigurationError(f"mu_c must be in (0, 1], got {self.mu_c}")


def _shape(x):
    """Dimensionless transition shape 1.5 x^2 - 0.5 x^3 with x = lam/lam_c."""
    return 1.5 * x * x - 0.5 * x * x * x


def cubic_transition(lam: float, curve: TransitionCurve,
                     eps: float | None = None) -> float:
    """Evaluate the cubic law at one kick strength.

    `eps` bounds the validity window [0, lambda_c + eps]; it defaults to
    the largest accepted margin 0.5 * lambda_c.
    """
    require_instance("curve", curve, TransitionCurve)
    if eps is None:
        eps = MAX_EPS_FACTOR * curve.lambda_c
    if not (is_real(eps) and 0 <= eps <= MAX_EPS_FACTOR * curve.lambda_c):
        raise ConfigurationError(
            f"eps must be in [0, {MAX_EPS_FACTOR}*lambda_c], got {eps!r}")
    hi = curve.lambda_c + eps
    if not (is_real(lam) and 0 <= lam <= hi):
        raise OutOfDomainError(
            f"lam={lam!r} outside the validity window [0, {hi}]")
    return curve.mu_c * _shape(lam / curve.lambda_c)


def quadratic_small_lambda(lam: float, curve: TransitionCurve) -> float:
    """Small-kick limit mu_c * 1.5 (lam/lam_c)^2 of the cubic law."""
    require_instance("curve", curve, TransitionCurve)
    if not (is_real(lam) and lam >= 0):
        raise OutOfDomainError(f"lam must be a finite number >= 0, got {lam!r}")
    x = lam / curve.lambda_c
    return curve.mu_c * 1.5 * x * x


@dataclass(frozen=True)
class CriticalReport:
    """Numerical check of the critical conditions on a measured sweep.

    The three headline booleans are `vanishes_at_origin`, `saturates`,
    and `inflects_at_critical`; the first-derivative condition at the
    origin is flagged separately in `slope_zero_at_origin`.
    """

    vanishes_at_origin: bool
    slope_zero_at_origin: bool
    saturates: bool
    inflects_at_critical: bool
    origin_value: float
    origin_slope: float
    plateau_value: float
    second_derivative: float
    lambda_c: float


def check_critical_conditions(samples: Sequence[tuple[float, float]],
                              lambda_c: float) -> CriticalReport:
    """Check origin/plateau/inflection conditions on (lambda, mu_A) samples.

    The samples are rows of two finite numbers. The second derivative at
    lambda_c is estimated by an unequal-spacing central difference over the
    three nearest samples; the origin slope by a three-point forward
    difference.
    """
    require_positive("lambda_c", lambda_c)
    lams, mus = require_table("samples", samples, 2).T
    if len(lams) < 5:
        raise InsufficientDataError(
            f"need at least 5 samples, got {len(lams)}")
    if np.any(np.diff(lams) <= 0):
        raise ConfigurationError("samples must be sorted by strictly increasing lambda")
    if lams[0] > 0 or lams[-1] < lambda_c:
        raise ConfigurationError("samples must cover [0, lambda_c] and beyond")

    origin_value = float(mus[0])
    # derivative at the first sample, exact for quadratics
    h1, h2 = lams[1] - lams[0], lams[2] - lams[0]
    origin_slope = float(
        (mus[1] * h2 * h2 - mus[2] * h1 * h1 - mus[0] * (h2 * h2 - h1 * h1))
        / (h1 * h2 * (h2 - h1)))
    plateau_value = float(mus[-1])

    order = np.argsort(np.abs(lams - lambda_c))[:3]
    idx = np.sort(order)
    x0, x1, x2 = lams[idx]
    f0, f1, f2 = mus[idx]
    g1, g2 = x1 - x0, x2 - x1
    second = float(2.0 * (f0 / (g1 * (g1 + g2)) - f1 / (g1 * g2)
                          + f2 / (g2 * (g1 + g2))))

    return CriticalReport(
        vanishes_at_origin=abs(origin_value) <= ORIGIN_TOL,
        slope_zero_at_origin=abs(origin_slope) <= SLOPE_TOL,
        saturates=plateau_value >= PLATEAU_MIN,
        inflects_at_critical=abs(second) <= D2_TOL,
        origin_value=origin_value,
        origin_slope=origin_slope,
        plateau_value=plateau_value,
        second_derivative=second,
        lambda_c=lambda_c,
    )


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares fit of the cubic law to sweep data."""

    lambda_c: float
    mu_c: float
    rss: float
    n_points: int
    fit_window: tuple[float, float]

    def as_dict(self):
        return {"lambda_c": self.lambda_c, "mu_c": self.mu_c, "rss": self.rss,
                "n_points": self.n_points,
                "fit_window": [self.fit_window[0], self.fit_window[1]]}


def _fit_objective(lc, lams, mus, weights, eps_factor):
    """Mean weighted square residual at a candidate lambda_c, with mu_c,
    the window's point count and its unweighted residual sum of squares.

    mu_c is solved in closed form (it enters linearly). The objective is
    normalized per point so windows of different sizes are comparable.
    Windows holding fewer than a third of the samples (and never fewer
    than 6 points) are rejected: the small-lambda regime is quadratic and
    scale-degenerate, so such windows cannot pin the bend of the cubic.
    """
    hi = (1.0 + eps_factor) * lc
    mask = lams <= hi
    min_points = max(6, len(lams) // 3)
    f = _shape(lams[mask] / lc)
    w = weights[mask]
    y = mus[mask]
    denom = float(np.sum(w * f * f))
    if mask.sum() < min_points or denom <= 0.0:
        return np.inf, np.nan, 0, np.nan
    mu_c = float(np.sum(w * f * y) / denom)
    r = y - mu_c * f
    return (float(np.sum(w * r * r)) / mask.sum(), mu_c, int(mask.sum()),
            float(np.sum(r * r)))


def fit_transition(samples: Sequence[tuple[float, float, float]],
                   eps_factor: float = FIT_EPS_FACTOR) -> FitResult:
    """Extract (lambda_c, mu_c) from (lambda, mu_A, ci_halfwidth) samples,
    each three finite numbers.

    mu_c enters the model linearly, so each candidate lambda_c gets a
    closed-form weighted solve; lambda_c itself is located by a coarse
    scan followed by golden-section refinement. Deterministic.
    """
    try:
        n = len(samples)
    except TypeError:  # not a sequence, or a 0-d array
        raise ConfigurationError(
            f"samples must be a sequence of rows, got {samples!r}") from None
    if n < 6:
        raise InsufficientDataError(f"need at least 6 samples, got {n}")
    rows = []
    for i, sample in enumerate(samples):
        try:
            row = tuple(sample)[:3]
        except TypeError:  # not a sequence
            row = ()
        if len(row) < 3 or not all(is_real(x) for x in row):
            raise ConfigurationError(
                f"sample {i} of samples must hold a finite lambda, mu_A and "
                f"CI, got {sample!r}")
        rows.append(row)
    lams, mus, cis = np.array(rows, dtype=float).T
    if lams.min() > 0.0 or lams.max() < 2.0:
        raise ConfigurationError("samples must span lambda in [0, 2]")
    # candidates lambda_c <= max lambda: the widest window must be finite
    if not (is_real(eps_factor) and eps_factor >= 0 and isfinite(
            (1.0 + float(eps_factor)) * float(lams.max()))):
        raise ConfigurationError(
            f"eps_factor must be a finite number >= 0 and (1 + eps_factor) * "
            f"max lambda finite, got {eps_factor!r} and {lams.max()}")
    if np.ptp(mus) == 0.0:
        raise SingularFitError("all mu_A values are equal")
    weights = 1.0 / np.maximum(cis * cis, WEIGHT_VARIANCE_FLOOR)

    lo = max(lams[lams > 0].min(), 1e-3)
    hi = lams.max()
    grid = np.linspace(lo, hi, 512)
    values = [_fit_objective(lc, lams, mus, weights, eps_factor)[0] for lc in grid]
    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]

    # golden-section refinement on [a, b]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _fit_objective(c, lams, mus, weights, eps_factor)[0]
    fd = _fit_objective(d, lams, mus, weights, eps_factor)[0]
    while b - a > 1e-13 * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _fit_objective(c, lams, mus, weights, eps_factor)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _fit_objective(d, lams, mus, weights, eps_factor)[0]
    lc = 0.5 * (a + b)
    obj, mu_c, n_used, rss = _fit_objective(lc, lams, mus, weights, eps_factor)
    if not np.isfinite(obj) or obj > values[best]:
        # refinement wandered onto an inadmissible plateau; keep the scan result
        lc = float(grid[best])
        obj, mu_c, n_used, rss = _fit_objective(lc, lams, mus, weights, eps_factor)
    if not np.isfinite(obj):
        raise SingularFitError("no admissible fit window")
    return FitResult(lambda_c=float(lc), mu_c=mu_c, rss=rss, n_points=n_used,
                     fit_window=(0.0, float((1.0 + eps_factor) * lc)))
