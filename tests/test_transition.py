import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlab import transition as tr
from ehlab.errors import (ConfigurationError, InsufficientDataError,
                          OutOfDomainError, SingularFitError)

# Frozen oracle values, computed with 40-digit decimal arithmetic for
# the reference curve lambda_c = 0.9716, mu_c = 1.
REF = tr.TransitionCurve(lambda_c=0.9716, mu_c=1.0)
CUBIC_AT_02 = 0.05919776601612438823176869789389128854454
CUBIC_AT_05 = 0.3291005906874750734448095892749205364514
QUAD_AT_02 = 0.06355888035354330588550147363382729035274


class TestCubicLaw:
    def test_frozen_values(self):
        assert tr.cubic_transition(0.2, REF) == pytest.approx(CUBIC_AT_02, rel=1e-14)
        assert tr.cubic_transition(0.5, REF) == pytest.approx(CUBIC_AT_05, rel=1e-14)
        assert tr.quadratic_small_lambda(0.2, REF) == pytest.approx(QUAD_AT_02, rel=1e-14)

    def test_endpoints(self):
        assert tr.cubic_transition(0.0, REF) == 0.0
        assert tr.cubic_transition(REF.lambda_c, REF) == pytest.approx(1.0, rel=1e-14)

    def test_plateau_value_scales_with_mu_c(self):
        curve = tr.TransitionCurve(lambda_c=2.0, mu_c=0.7)
        assert tr.cubic_transition(2.0, curve) == pytest.approx(0.7, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(0.0, 1.0))
    def test_monotone_and_bounded_on_window(self, x):
        lam = x * REF.lambda_c
        val = tr.cubic_transition(lam, REF)
        assert 0.0 <= val <= 1.0 + 1e-15
        # derivative 3x(1-x/2)/lambda_c is nonnegative on [0, lambda_c]
        h = 1e-8 * REF.lambda_c
        if lam + h <= REF.lambda_c:
            assert tr.cubic_transition(lam + h, REF) >= val - 1e-12

    def test_quadratic_limit_agrees_at_small_lambda(self):
        for lam in (1e-4, 1e-3, 1e-2):
            cubic = tr.cubic_transition(lam, REF)
            quad = tr.quadratic_small_lambda(lam, REF)
            assert cubic == pytest.approx(quad, rel=lam)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            tr.cubic_transition(-0.1, REF)
        with pytest.raises(OutOfDomainError):
            tr.cubic_transition(1.6 * REF.lambda_c, REF)
        # eps shrinks the accepted window
        with pytest.raises(OutOfDomainError):
            tr.cubic_transition(1.1 * REF.lambda_c, REF, eps=0.0)
        with pytest.raises(ConfigurationError):
            tr.cubic_transition(0.5, REF, eps=REF.lambda_c)
        # NaN used to pass every guard: eps = NaN gave -12.5 at lam = 5,
        # and lam = NaN gave NaN
        nan = float("nan")
        with pytest.raises(ConfigurationError, match="eps"):
            tr.cubic_transition(5.0, tr.TransitionCurve(1.0, 0.5), eps=nan)
        with pytest.raises(OutOfDomainError):
            tr.cubic_transition(nan, REF)
        with pytest.raises(OutOfDomainError):
            tr.quadratic_small_lambda(nan, REF)
        with pytest.raises(OutOfDomainError):
            tr.quadratic_small_lambda(-0.1, REF)

    def test_curve_validation(self):
        with pytest.raises(ConfigurationError):
            tr.TransitionCurve(lambda_c=0.0, mu_c=1.0)
        with pytest.raises(ConfigurationError):
            tr.TransitionCurve(lambda_c=1.0, mu_c=0.0)
        with pytest.raises(ConfigurationError):
            tr.TransitionCurve(lambda_c=1.0, mu_c=1.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                tr.TransitionCurve(lambda_c=bad, mu_c=0.5)
            with pytest.raises(ConfigurationError):
                tr.TransitionCurve(lambda_c=1.0, mu_c=bad)


def _sweep(curve, lams, noise=0.0, rng=None):
    """Samples of the cubic generating model, optionally with Gaussian noise."""
    vals = curve.mu_c * tr._shape(np.asarray(lams, dtype=float) / curve.lambda_c)
    if noise and rng is not None:
        vals = vals + rng.normal(0.0, noise, len(vals))
    return [float(v) for v in vals]


class TestCriticalConditions:
    def test_clean_cubic_passes_all(self):
        # a fine stencil around lambda_c so the inflection check is centered
        lams = np.unique(np.concatenate([
            np.linspace(0.0, 2.0, 81),
            [REF.lambda_c - 1e-3, REF.lambda_c, REF.lambda_c + 1e-3]]))
        samples = list(zip(lams, _sweep(REF, lams)))
        rep = tr.check_critical_conditions(samples, REF.lambda_c)
        assert rep.vanishes_at_origin
        assert rep.slope_zero_at_origin
        assert rep.saturates
        assert rep.inflects_at_critical
        assert rep.origin_value == 0.0

    def test_linear_ramp_fails_origin_slope(self):
        lams = np.linspace(0.0, 2.0, 21)
        samples = [(lam, min(lam, 1.0)) for lam in lams]
        rep = tr.check_critical_conditions(samples, 1.0)
        assert not rep.slope_zero_at_origin
        assert rep.saturates

    def test_non_saturating_sweep_flagged(self):
        lams = np.linspace(0.0, 2.0, 21)
        samples = [(lam, 0.1 * tr._shape(min(lam, 1.0))) for lam in lams]
        rep = tr.check_critical_conditions(samples, 1.0)
        assert not rep.saturates

    def test_requires_enough_samples(self):
        with pytest.raises(InsufficientDataError):
            tr.check_critical_conditions([(0, 0), (1, 1), (2, 1)], 1.0)

    def test_requires_sorted_coverage(self):
        bad = [(0.0, 0), (0.5, 0.1), (0.4, 0.2), (1.0, 1), (2.0, 1)]
        with pytest.raises(ConfigurationError):
            tr.check_critical_conditions(bad, 1.0)
        short = [(0.0, 0), (0.1, 0), (0.2, 0.1), (0.3, 0.2), (0.4, 0.3)]
        with pytest.raises(ConfigurationError):
            tr.check_critical_conditions(short, 1.0)


def _fit_samples(curve, n=161, noise=0.0, rng=None, ci=0.01):
    lams = np.linspace(0.0, 2.0, n)
    mus = _sweep(curve, lams, noise=noise, rng=rng)
    return [(float(lam), mu, ci) for lam, mu in zip(lams, mus)]


class TestFitTransition:
    def test_noiseless_recovery(self):
        curve = tr.TransitionCurve(lambda_c=0.9716, mu_c=0.9)
        fit = tr.fit_transition(_fit_samples(curve))
        assert fit.lambda_c == pytest.approx(curve.lambda_c, abs=1e-3)
        assert fit.mu_c == pytest.approx(curve.mu_c, abs=1e-3)
        assert fit.rss < 1e-6

    def test_recovery_other_curve(self):
        curve = tr.TransitionCurve(lambda_c=1.4, mu_c=0.8)
        fit = tr.fit_transition(_fit_samples(curve))
        assert fit.lambda_c == pytest.approx(1.4, abs=2e-3)
        assert fit.mu_c == pytest.approx(0.8, abs=2e-3)

    def test_noisy_coverage(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fit = tr.fit_transition(_fit_samples(REF, noise=0.01, rng=rng))
            hits += abs(fit.lambda_c - REF.lambda_c) < 0.1
        assert hits == 20

    def test_idempotence(self):
        samples = _fit_samples(REF, noise=0.02, rng=np.random.default_rng(3))
        a = tr.fit_transition(samples)
        b = tr.fit_transition(samples)
        assert a == b

    def test_fit_window_matches_eps_factor(self):
        fit = tr.fit_transition(_fit_samples(REF), eps_factor=0.2)
        assert fit.fit_window[0] == 0.0
        assert fit.fit_window[1] == pytest.approx(1.2 * fit.lambda_c, rel=1e-12)
        assert fit.n_points >= 6

    def test_constant_sweep_is_singular(self):
        lams = np.linspace(0.0, 2.0, 21)
        samples = [(float(lam), 0.5, 0.01) for lam in lams]
        with pytest.raises(SingularFitError):
            tr.fit_transition(samples)

    def test_preconditions(self):
        with pytest.raises(InsufficientDataError):
            tr.fit_transition([(0.0, 0.0, 0.01)] * 5)
        short = [(float(l), 0.1 * l, 0.01) for l in np.linspace(0, 1, 11)]
        with pytest.raises(ConfigurationError):
            tr.fit_transition(short)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row,col,bad", [
        (5, 1, float("nan")), (20, 0, float("inf")), (0, 0, -float("inf")),
        (7, 2, float("nan")), (9, 2, float("inf"))])
    def test_non_finite_sample_is_named(self, row, col, bad):
        # a NaN mu_A used to end in SingularFitError after RuntimeWarnings,
        # and an infinite lambda was reported as an eps_factor problem
        samples = _fit_samples(tr.TransitionCurve(0.97, 0.9), n=21)
        samples[row] = tuple(bad if j == col else x
                             for j, x in enumerate(samples[row]))
        with pytest.raises(ConfigurationError, match=rf"^sample {row} "):
            tr.fit_transition(samples)

    def test_non_finite_sample_is_refused_before_the_span(self):
        samples = _fit_samples(tr.TransitionCurve(0.97, 0.9), n=21)[:11]
        samples[3] = (samples[3][0], float("nan"), samples[3][2])
        with pytest.raises(ConfigurationError, match=r"^sample 3 "):
            tr.fit_transition(samples)

    def test_sample_without_a_ci_is_named(self):
        # it used to end in a bare IndexError
        samples = _fit_samples(tr.TransitionCurve(0.97, 0.9), n=21)
        samples[4] = samples[4][:2]
        with pytest.raises(ConfigurationError, match=r"^sample 4 "):
            tr.fit_transition(samples)

    @pytest.mark.parametrize("eps_factor", [
        -0.5, -1, True, "x", None,
        pytest.param(1e308, marks=pytest.mark.filterwarnings("error"))])
    def test_eps_factor_must_be_a_number_at_least_0(self, eps_factor):
        # on exact cubic data -0.5 used to return lambda_c = 1.2 and
        # mu_c = 1.32 over [0, 0.6], a window ending below lambda_c, and -1
        # a SingularFitError; 1e308 overflowed (1 + eps_factor) * lambda_c
        # with a RuntimeWarning and wrote the window [0, 1.65e308]
        samples = _fit_samples(tr.TransitionCurve(0.97, 0.9), n=21)
        with pytest.raises(ConfigurationError, match="eps_factor"):
            tr.fit_transition(samples, eps_factor=eps_factor)
        assert tr.fit_transition(samples, eps_factor=0.0).n_points >= 6
