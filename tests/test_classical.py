import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehlab import classical as cl
from ehlab.errors import ConfigurationError

TWO_PI = 2.0 * np.pi
# the largest lam at tau = 1 that the row-sum bound accepts, and the
# smallest it refuses: 2 + tau + lam (1 + tau) = 3 + 2 lam against the
# bound 1e150**(1/8)
LARGEST = (cl._MAX_ROW_SUM * (1 - 1e-12) - 3.0) / 2.0
PAST = (cl._MAX_ROW_SUM * (1 + 1e-12) - 3.0) / 2.0


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, p) on the torus, both coordinates reduced to
    [0, 2*pi)."""

    theta: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(cl._wrap(self.theta)))
        object.__setattr__(self, "p", float(cl._wrap(self.p)))


def step_map(x, params):
    """One application of p' = p + lam*sin(theta), theta' = theta + tau*p'
    by `cl._advance`, the step `set_correlation` takes."""
    return PhasePoint(*cl._advance(x.theta, x.p, params.lam, params.tau))


def inverse_step_map(x, params):
    """Exact inverse of `step_map` (the map is invertible)."""
    p = x.p - TWO_PI * np.rint(x.p / TWO_PI)  # as _advance centres it
    theta_old = x.theta - params.tau * p
    p_old = p - params.lam * np.sin(theta_old)
    return PhasePoint(theta_old, p_old)


def step_jacobian(x, params):
    """Tangent map d(theta', p')/d(theta, p) at the point x; det = 1."""
    c = params.lam * np.cos(x.theta)
    return np.array([[1.0 + params.tau * c, params.tau], [c, 1.0]])


def orbit_exponent(x0, params, n_steps):
    """The batch's Lyapunov exponent of the one orbit from x0."""
    return float(cl._lyapunov_batch(np.array([x0.theta]), np.array([x0.p]),
                                    params.lam, params.tau, n_steps)[0])


class TestStepMap:
    def test_zero_angle_forces_free_rotation(self):
        # sin(0) = 0, so p is unchanged and theta advances by tau*p
        for lam in (0.0, 1.0, 10.0):
            out = step_map(PhasePoint(0.0, 1.0), cl.MapParams(lam))
            assert out.theta == pytest.approx(1.0, abs=1e-15)
            assert out.p == pytest.approx(1.0, abs=1e-15)

    def test_unit_kick_at_quarter_turn(self):
        out = step_map(PhasePoint(np.pi / 2, 0.0), cl.MapParams(1.0))
        assert out.p == pytest.approx(1.0, abs=1e-12)
        assert out.theta == pytest.approx(np.pi / 2 + 1.0, abs=1e-12)

    def test_jacobian_determinant_is_one(self):
        rng = np.random.default_rng(0)
        params = cl.MapParams(3.7, 1.3)
        for _ in range(1000):
            x = PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            det = np.linalg.det(step_jacobian(x, params))
            assert abs(det - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(0, TWO_PI - 1e-9), p=st.floats(0, TWO_PI - 1e-9),
           lam=st.floats(0, 20), tau=st.floats(0.1, 3))
    # a tiny kick drives p slightly negative, where np.mod returns 2*pi
    @example(theta=4.0, p=0.0, lam=1.2e-38, tau=1.5)
    def test_invertibility(self, theta, p, lam, tau):
        params = cl.MapParams(lam, tau)
        x = PhasePoint(theta, p)
        back = inverse_step_map(step_map(x, params), params)
        # compare on the torus (wrap-around distance)
        for a, b in ((back.theta, x.theta), (back.p, x.p)):
            d = abs(a - b)
            assert min(d, TWO_PI - d) < 1e-10

    def test_coordinates_reduced(self):
        out = step_map(PhasePoint(6.0, 6.0), cl.MapParams(10.0))
        assert 0.0 <= out.theta < TWO_PI
        assert 0.0 <= out.p < TWO_PI
        tiny = PhasePoint(-1e-300, -1e-300)
        assert (tiny.theta, tiny.p) == (0.0, 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            cl.MapParams(-1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError):
                cl.MapParams(bad)
            with pytest.raises(ConfigurationError):
                cl.MapParams(1.0, tau=bad)

    @pytest.mark.parametrize("tau", [0, 0.0, -1.0])
    def test_non_positive_tau_rejected(self, tau):
        with pytest.raises(ConfigurationError, match="kick period"):
            cl.MapParams(1.0, tau)

    def test_non_real_params_rejected(self):
        # True used to pass as 1.0; the others ended in a bare TypeError
        for bad in (True, False, np.bool_(True), "1", None, 1 + 0j,
                    np.array([1.0]), 10**400):
            with pytest.raises(ConfigurationError, match="real"):
                cl.MapParams(bad)
            with pytest.raises(ConfigurationError, match="real"):
                cl.MapParams(1.0, tau=bad)
        ok = cl.MapParams(np.float32(2.5), np.int64(1))
        assert step_map(PhasePoint(1.0, 1.0), ok) == step_map(
            PhasePoint(1.0, 1.0), cl.MapParams(2.5, 1.0))

    @pytest.mark.parametrize("lam,tau", [
        (1.0, 1e308), (1.0, 3e307), (1e160, 1e160), (1e308, 1e5),
        pytest.param(np.float32(1.0), np.float32(3e38), id="float32-tau"),
        pytest.param(np.float32(3e38), np.float32(3e38), id="float32-both"),
        pytest.param(10**308, np.float32(1.0), id="int-lam-float32-tau"),
        pytest.param(10**300, 10**300, id="int-both"),
        pytest.param(2**1000, 1, id="int-lam"),
        pytest.param(np.int64(2**62), np.int64(2**62), id="int64-both")])
    def test_overflowing_params_rejected(self, lam, tau):
        # tau * p or the tangent image overflows: step_map used to return
        # theta = nan and the scan a silent mu_A. The bound
        # on numpy scalars used to warn of an overflow first, and under
        # -W error the warning escaped in place of the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="overflow"):
                cl.MapParams(lam, tau)

    def test_largest_params_stay_finite(self):
        # just inside the row-sum bound every step and exponent is finite,
        # and the blocks' exponent is the per-step one; just past it the
        # map is refused, without a numpy warning
        x0 = PhasePoint(1.0, 1.0)
        for lam, tau in ((LARGEST, 1.0), (1.0, LARGEST)):
            params = cl.MapParams(lam, tau)
            x = step_map(x0, params)
            assert np.isfinite([x.theta, x.p]).all()
            expo = orbit_exponent(x0, params, 1000)
            ref = per_step_batch_oracle([x0.theta], [x0.p], lam, tau, 1000)[0]
            assert np.isfinite(expo) and expo == pytest.approx(ref, rel=1e-12)
            est = cl.estimate_chaotic_measures([params], 16, 50)[0]
            assert 0.0 <= est.mu_A <= 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigurationError, match="overflow"):
                    cl.MapParams(*(PAST if v == LARGEST else v
                                   for v in (lam, tau)))
        # on the lam axis the [0, 2pi) oracle agrees too; on the tau axis
        # tau * p is a multiple of the spacing of doubles near 1e18, which
        # the centring cancels to theta = 0 exactly, while np.mod leaves a
        # remainder: there the two orbits differ, and their exponents by
        # about ln 2, the mean of -ln|cos theta|
        expo = orbit_exponent(x0, cl.MapParams(LARGEST), 1000)
        ref = lyapunov_batch_oracle([x0.theta], [x0.p], cl.MapParams(LARGEST),
                                    1000)[0]
        assert expo == pytest.approx(ref, rel=0.01)

    def test_row_sum_boundary(self):
        # bound = 2 + tau + lam (1 + tau) with bound**8 just below and
        # just above 1e150: the largest kick strength the scan's blocks
        # can norm is accepted, the next refused
        cl.MapParams(LARGEST, 1.0)
        with pytest.raises(ConfigurationError, match=r"\blam\b.*\btau\b"):
            cl.MapParams(PAST, 1.0)


def two_orbit_divergence(x0, params, n_steps, d0=1e-9):
    """Independent Lyapunov estimator from two nearby orbits."""
    a = x0
    b = PhasePoint(x0.theta + d0, x0.p)
    total = 0.0
    for _ in range(n_steps):
        a = step_map(a, params)
        b = step_map(b, params)
        dt = (b.theta - a.theta + np.pi) % TWO_PI - np.pi
        dp = (b.p - a.p + np.pi) % TWO_PI - np.pi
        d = np.hypot(dt, dp)
        total += np.log(d / d0)
        # renormalize the separation back to d0
        b = PhasePoint(a.theta + dt * d0 / d, a.p + dp * d0 / d)
    return total / n_steps


def lyapunov_batch_oracle(theta, p, params, n_steps):
    """The tangent-map batch on [0, 2pi) coordinates, reduced by np.mod
    and normed by np.hypot, as the centred kernel replaced it."""
    theta = cl._wrap(np.asarray(theta, dtype=float))
    p = cl._wrap(np.asarray(p, dtype=float))
    v_theta = np.ones_like(theta)
    v_p = np.zeros_like(theta)
    log_sum = np.zeros_like(theta)
    lam, tau = params.lam, params.tau
    for i in range(cl.LYAPUNOV_TRANSIENT + n_steps):
        c = lam * np.cos(theta)
        theta, p = cl._advance(theta, p, lam, tau)
        w_theta = (1.0 + tau * c) * v_theta + tau * v_p
        w_p = c * v_theta + v_p
        norm = np.hypot(w_theta, w_p)
        v_theta = w_theta / norm
        v_p = w_p / norm
        if i >= cl.LYAPUNOV_TRANSIENT:
            log_sum += np.log(norm)
    return log_sum / n_steps


def per_step_batch_oracle(theta, p, lam, tau, n_steps):
    """The centred in-place batch renormalized every step, with the hypot
    norm only where a one-step image may square out of range, as the
    block kernel replaced it."""
    with np.errstate(over="ignore"):
        use_hypot = bool(np.any(2.0 + tau + lam * (1.0 + tau) >= 1e150))
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    v_theta = np.ones_like(theta)
    v_p = np.zeros_like(theta)
    log_sum = np.zeros_like(theta)
    c, w_p, tmp = (np.empty_like(theta) for _ in range(3))
    cl._centre(theta, tmp)
    cl._centre(p, tmp)
    for i in range(cl.LYAPUNOV_TRANSIENT + n_steps):
        np.cos(theta, out=c)
        np.multiply(lam, c, out=c)
        np.multiply(c, v_theta, out=w_p)
        np.add(w_p, v_p, out=w_p)
        np.multiply(tau, c, out=tmp)
        np.add(1.0, tmp, out=tmp)
        np.multiply(tmp, v_theta, out=v_theta)
        np.multiply(tau, v_p, out=tmp)
        np.add(v_theta, tmp, out=v_theta)
        v_p, w_p = w_p, v_p
        np.sin(theta, out=tmp)
        np.multiply(lam, tmp, out=tmp)
        np.add(p, tmp, out=p)
        cl._centre(p, tmp)
        np.multiply(tau, p, out=tmp)
        np.add(theta, tmp, out=theta)
        cl._centre(theta, tmp)
        if use_hypot:
            np.hypot(v_theta, v_p, out=c)
        else:
            np.sqrt(v_theta * v_theta + v_p * v_p, out=c)
        np.divide(v_theta, c, out=v_theta)
        np.divide(v_p, c, out=v_p)
        if i >= cl.LYAPUNOV_TRANSIENT:
            log_sum += np.log(c)
    return log_sum / n_steps


def measure_oracle(params, grid_side, n_steps, threshold=cl.DEFAULT_THRESHOLD):
    """Chaotic fraction of the [0, 2pi) cell-centred grid, every orbit
    integrated by the oracle batch."""
    edges = (np.arange(grid_side) + 0.5) * TWO_PI / grid_side
    theta, p = np.meshgrid(edges, edges, indexing="ij")
    expo = lyapunov_batch_oracle(theta.ravel(), p.ravel(), params, n_steps)
    return np.count_nonzero(expo > threshold) / grid_side ** 2


class TestLyapunov:
    def test_integrable_limit_is_zero(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x0 = PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            assert abs(orbit_exponent(x0, cl.MapParams(0.0), 2000)) < 0.01

    def test_strong_chaos_matches_log_half_kick(self):
        x0 = PhasePoint(1.0, 1.0)
        expo = orbit_exponent(x0, cl.MapParams(10.0), 100_000)
        assert expo == pytest.approx(np.log(5.0), rel=0.15)

    def test_agrees_with_two_orbit_estimator(self):
        params = cl.MapParams(10.0)
        x0 = PhasePoint(1.0, 1.0)
        tangent = orbit_exponent(x0, params, 20_000)
        divergence = two_orbit_divergence(x0, params, 20_000)
        assert tangent == pytest.approx(divergence, rel=0.05)

    def test_agrees_with_two_orbit_estimator_at_fractional_tau(self):
        # step_map took the kicked momentum in [0, 2pi) before the angle
        # update and the batch in [-pi, pi]: at tau = 0.37 they integrated
        # different maps, and the two estimators read 0.0006 and 0.54
        params = cl.MapParams(2.5, 0.37)
        x0 = PhasePoint(1.0, 3.0)
        tangent = orbit_exponent(x0, params, 20_000)
        divergence = two_orbit_divergence(x0, params, 20_000)
        assert tangent == pytest.approx(divergence, rel=0.05)

    def test_kam_orbit_stays_regular(self):
        # brute-force scan for the most regular low-lambda orbit
        params = cl.MapParams(0.5)
        rng = np.random.default_rng(1)
        candidates = [PhasePoint(t, p) for t, p in
                      rng.uniform(0, TWO_PI, size=(40, 2))]
        best = min(orbit_exponent(x, params, 5000) for x in candidates)
        assert best <= cl.DEFAULT_THRESHOLD

    @pytest.mark.parametrize("lam,tau", [(1e200, 1.0), (1.0, 1e160),
                                         (1e308, 1.0)])
    def test_huge_kick_stays_finite(self, lam, tau):
        # the squares of the tangent vector's image overflow here, and
        # these used to read NaN, hence Regular, on every orbit; then the
        # exponent of the tangent map alone, on orbits collapsed to p = 0.
        # They are refused, and just inside the bound, with the large
        # parameter cut back, the exponent is finite and the per-step one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="overflow"):
                cl.MapParams(lam, tau)
        params = cl.MapParams(*(LARGEST if v > 1.0 else v for v in (lam, tau)))
        x0 = PhasePoint(1.0, 1.0)
        expo = orbit_exponent(x0, params, 1000)
        ref = per_step_batch_oracle([x0.theta], [x0.p], params.lam,
                                    params.tau, 1000)[0]
        assert np.isfinite(expo) and expo == pytest.approx(ref, rel=1e-12)
        assert cl.estimate_chaotic_measures([params], 16, 50)[0].mu_A == 1.0


def centred_map_oracle(theta, p, lam, tau, n):
    """n steps of the centred map, with libm's sin and the reduction
    x - 2pi rint(x / 2pi) written out."""
    def centre(x):
        return x - TWO_PI * np.rint(x / TWO_PI)
    theta, p = centre(np.array(theta)), centre(np.array(p))
    for _ in range(n):
        p = centre(p + lam * np.sin(theta))
        theta = centre(theta + tau * p)
    return theta, p


class TestCosFromSin:
    def test_even_and_within_bound_of_libm(self):
        eps = np.finfo(float).eps
        half = np.pi / 2
        theta = np.concatenate([
            np.random.default_rng(0).uniform(-np.pi, np.pi, 10**5),
            [0.0, half, -half, np.nextafter(half, np.inf),
             np.nextafter(-half, -np.inf), np.pi, -np.pi]])
        got = {}
        for sign in (1.0, -1.0):
            c = np.sin(sign * theta)
            cl._cos_from_sin(sign * theta, c, np.empty_like(theta))
            got[sign] = c
        assert np.array_equal(got[1.0], got[-1.0])
        want = np.cos(theta)
        np.testing.assert_array_less(np.abs(got[1.0] - want),
                                     eps * (1.0 + 1.0 / np.abs(want)))
        # the sign is right at the quarter turns, where cos is near 0
        assert np.array_equal(np.signbit(got[1.0][-7:]), np.signbit(want[-7:]))


# LARGEST is the largest kick strength the row-sum bound accepts at tau = 1
BLOCK_PARAMS = [(0.0, 1.0), (2.5, 0.37), (0.8, 1.7), (10.0, 1.0), (1e17, 1.0),
                (LARGEST, 1.0)]


class TestBlockKernel:
    @pytest.mark.parametrize("lam,tau", BLOCK_PARAMS)
    def test_matches_per_step_oracle(self, lam, tau):
        theta, p = cl._centred_grid(16)
        # every residue mod the block length: the run's last block is
        # short on all but one
        for n_steps in range(1000, 1000 + cl._BLOCK + 1):
            # the batch overwrites its input, so it steps copies
            got = cl._lyapunov_batch(theta.copy(), p.copy(), lam, tau,
                                     n_steps)
            want = per_step_batch_oracle(theta, p, lam, tau, n_steps)
            if lam == 0.0:
                assert np.array_equal(got, want)
            np.testing.assert_array_less(
                np.abs(got - want), 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("lam,tau", BLOCK_PARAMS)
    def test_orbit_is_the_libm_map_bitwise(self, lam, tau):
        # the tangent map's cos comes from the orbit's own sin, and the
        # orbit keeps libm's sin and every operation of the map
        theta, p = cl._centred_grid(16)
        n_steps = 1000
        got_theta, got_p = theta.copy(), p.copy()
        cl._lyapunov_batch(got_theta, got_p, lam, tau, n_steps)
        want_theta, want_p = centred_map_oracle(
            theta, p, lam, tau, cl.LYAPUNOV_TRANSIENT + n_steps)
        assert np.array_equal(got_theta, want_theta)
        assert np.array_equal(got_p, want_p)


class TestClassifyOrbit:
    # the scan's rule: an orbit is chaotic iff its exponent exceeds the
    # threshold
    def test_integrable_always_regular(self):
        for p in (0.3, 2.0, 5.5):
            expo = orbit_exponent(PhasePoint(1.0, p), cl.MapParams(0.0), 2000)
            assert not expo > cl.DEFAULT_THRESHOLD

    def test_strong_kick_is_chaotic(self):
        expo = orbit_exponent(PhasePoint(1.0, 1.0), cl.MapParams(10.0), 5000)
        assert expo > cl.DEFAULT_THRESHOLD

    def test_huge_threshold_forces_regular(self):
        expo = orbit_exponent(PhasePoint(1.0, 1.0), cl.MapParams(10.0), 5000)
        assert not expo > 100.0

    def test_determinism(self):
        a = orbit_exponent(PhasePoint(0.7, 2.9), cl.MapParams(3.0), 2000)
        b = orbit_exponent(PhasePoint(0.7, 2.9), cl.MapParams(3.0), 2000)
        assert a == b


class TestChaoticMeasure:
    def test_integrable_measure_is_zero(self):
        est = cl.estimate_chaotic_measures([cl.MapParams(0.0)], 16, 1000)[0]
        assert est.mu_A == 0.0
        assert est.mu_E == 1.0

    def test_complement_sums_to_one(self):
        for lam in (0.8, 2.0, 6.0):
            est = cl.estimate_chaotic_measures([cl.MapParams(lam)], 16, 1000)[0]
            assert est.mu_A + est.mu_E == 1.0
            assert 0.0 <= est.mu_A <= 1.0

    def test_strong_kick_fills_phase_space(self):
        est = cl.estimate_chaotic_measures([cl.MapParams(10.0)], 32, 2000)[0]
        assert est.mu_A > 0.95

    def test_monotone_in_lambda_up_to_ci(self):
        sweep = [cl.estimate_chaotic_measures([cl.MapParams(lam)], 32, 2000)[0]
                 for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0)]
        for lo, hi in zip(sweep, sweep[1:]):
            assert hi.mu_A >= lo.mu_A - (lo.ci_halfwidth + hi.ci_halfwidth)

    def test_grid_side_precondition(self):
        with pytest.raises(ConfigurationError):
            cl.estimate_chaotic_measures([cl.MapParams(1.0)], 8, 1000)
        for n_steps in (0, -1):
            with pytest.raises(ConfigurationError):
                cl.estimate_chaotic_measures([cl.MapParams(10.0)], 16, n_steps)
        # grid_side = 16.5 used to return n_samples = 272.25, and a
        # fractional n_steps ended in a bare TypeError
        for bad in (16.5, 16.0, True, "16", None):
            with pytest.raises(ConfigurationError, match="grid_side"):
                cl.estimate_chaotic_measures([cl.MapParams(1.5)], bad, 200)
        for bad in (200.5, 200.0, True, "200"):
            with pytest.raises(ConfigurationError, match="n_steps"):
                cl.estimate_chaotic_measures([cl.MapParams(1.5)], 16, bad)
        assert (cl.estimate_chaotic_measures([cl.MapParams(1.5)], np.int64(16),
                                             np.int64(50))
                == cl.estimate_chaotic_measures([cl.MapParams(1.5)], 16, 50))
        # NaN used to give mu_A = 0.0
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigurationError):
                cl.estimate_chaotic_measures([cl.MapParams(5.0)], 16, 50,
                                             threshold=bad)


class TestMirrorGrid:
    def test_centred_grid_is_the_cell_centred_point_set(self):
        for g in (16, 17, 33, 64):
            theta, p = cl._centred_grid(g)
            edges = (np.arange(g) + 0.5) * TWO_PI / g
            want_theta, want_p = np.meshgrid(edges, edges, indexing="ij")
            assert np.all((-np.pi <= theta) & (theta <= np.pi))
            np.testing.assert_allclose(np.mod(theta, TWO_PI), want_theta.ravel(),
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.mod(p, TWO_PI), want_p.ravel(),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("grid_side,n_integrated", [
        (16, 128), (17, 161), (33, 577)])
    @pytest.mark.parametrize("lam,tau", [(1.0, 1.0), (2.5, 0.37), (0.8, 1.7)])
    def test_mirrored_half_reproduces_full_grid_bitwise(
            self, monkeypatch, grid_side, n_integrated, lam, tau):
        sweep = [cl.MapParams(lam, tau), cl.MapParams(2.0 * lam, tau)]
        full = {mp.lam: cl._lyapunov_batch(*cl._centred_grid(grid_side),
                                           mp.lam, mp.tau, 300)
                for mp in sweep}
        integrated = []
        batch = cl._lyapunov_batch

        def counting_batch(theta, p, lam, tau, n_steps, out=None):
            integrated.extend(np.broadcast_to(lam, len(theta)).tolist())
            return batch(theta, p, lam, tau, n_steps, out=out)

        mirrored = record_grids(monkeypatch)
        monkeypatch.setattr(cl, "_lyapunov_batch", counting_batch)
        cl.estimate_chaotic_measures(sweep, grid_side, 300, threads=2)
        # an odd grid integrates its theta = pi and p = pi lines itself
        assert sorted(integrated) == sorted([mp.lam for mp in sweep]
                                            * n_integrated)
        assert mirrored.keys() == full.keys()
        for lam_k, exponents in mirrored.items():
            assert np.array_equal(exponents, full[lam_k])
            if grid_side % 2 == 0:  # every orbit's mirror image is on the grid
                assert np.array_equal(exponents, exponents[::-1])

    def test_measure_matches_oracle_within_ci(self):
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
            params = cl.MapParams(lam)
            est = cl.estimate_chaotic_measures([params], 32, 2000)[0]
            want = measure_oracle(params, 32, 2000)
            if lam == 0.0:
                assert est.mu_A == want == 0.0
            assert abs(est.mu_A - want) <= est.ci_halfwidth + 1e-12


def record_grids(monkeypatch) -> dict:
    """{lam: full-grid exponents} of every estimate made while patched."""
    grids = {}
    region = cl._region_estimate

    def recording(lam, exponents, threshold):
        grids[lam] = exponents.copy()
        return region(lam, exponents, threshold)

    monkeypatch.setattr(cl, "_region_estimate", recording)
    return grids


def grid_exponents_oracle(params, grid_side, n_steps):
    """Exponents of the flat centred grid at one kick strength, one orbit
    per mirror pair, with lam and tau passed as scalars: the scan as it
    ran before every kick strength joined one batch."""
    theta, p = cl._centred_grid(grid_side)
    n = theta.size
    own = (theta != -theta[::-1]) | (p != -p[::-1]) | (np.arange(n) < n // 2)
    exponents = np.empty(n)
    exponents[own] = cl._lyapunov_batch(theta[own], p[own], params.lam,
                                        params.tau, n_steps)
    return np.where(own, exponents, exponents[::-1])


def record_shapes(monkeypatch) -> list:
    """(ndim of lam, ndim of tau) of every batch run while patched."""
    shapes = []
    batch = cl._lyapunov_batch

    def recording(theta, p, lam, tau, n_steps, out=None):
        shapes.append((np.ndim(lam), np.ndim(tau)))
        return batch(theta, p, lam, tau, n_steps, out=out)

    monkeypatch.setattr(cl, "_lyapunov_batch", recording)
    return shapes


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


class TestSweep:
    SWEEP = [cl.MapParams(lam) for lam in (0.0, 0.7, 2.5, 6.0)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_sweep_matches_per_lambda_bitwise(self, monkeypatch, threads):
        # small chunks cut the kick strengths' rows at odd offsets
        monkeypatch.setattr(cl, "_CHUNK_ORBITS", 100)
        grids = record_grids(monkeypatch)
        estimates = cl.estimate_chaotic_measures(self.SWEEP, 16, 200,
                                                 threads=threads)
        assert [est.lam for est in estimates] == [mp.lam for mp in self.SWEEP]
        for mp, est in zip(self.SWEEP, estimates):
            want = grid_exponents_oracle(mp, 16, 200)
            assert np.array_equal(grids[mp.lam], want)
            assert est == cl._region_estimate(mp.lam, want,
                                              cl.DEFAULT_THRESHOLD)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_per_orbit_period_matches_per_lambda_bitwise(self, monkeypatch,
                                                         threads):
        # tau differs between kick strengths, and six chunks of about 85
        # orbits cut the 128-orbit rows: two straddle rows and pass lam
        # and tau per orbit, the others lie inside one row
        monkeypatch.setattr(cl, "_CHUNK_ORBITS", 100)
        sweep = [cl.MapParams(lam, tau) for lam, tau in
                 [(0.0, 1.0), (0.7, 0.37), (2.5, 1.7), (6.0, 1.0)]]
        shapes = record_shapes(monkeypatch)
        grids = record_grids(monkeypatch)
        cl.estimate_chaotic_measures(sweep, 16, 200, threads=threads)
        assert sorted(shapes) == [(0, 0)] * 4 + [(1, 1)] * 2
        for mp in sweep:
            assert np.array_equal(grids[mp.lam],
                                  grid_exponents_oracle(mp, 16, 200))

    def test_chunk_inside_one_kick_strength_passes_scalars(self, monkeypatch):
        # 128 orbits a kick strength, cut into chunks of 64
        monkeypatch.setattr(cl, "_CHUNK_ORBITS", 64)
        sweep = self.SWEEP[1:3]
        shapes = record_shapes(monkeypatch)
        grids = record_grids(monkeypatch)
        cl.estimate_chaotic_measures(sweep, 16, 200, threads=2)
        assert shapes == [(0, 0)] * 4
        for mp in sweep:
            assert np.array_equal(grids[mp.lam],
                                  grid_exponents_oracle(mp, 16, 200))

    def test_huge_kick_sweep_warns_nothing(self):
        # the grouping bound used to overflow at lam = 1e308; the kick
        # strength is refused now, and a sweep just inside the bound warns
        # nothing and reads the oracle's measure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="overflow"):
                cl.MapParams(1e308)
            sweep = [cl.MapParams(LARGEST), cl.MapParams(1.0)]
            estimates = cl.estimate_chaotic_measures(sweep, 16, 50, threads=2)
        assert estimates[0].mu_A == 1.0 == measure_oracle(sweep[0], 16, 50)

    def test_measure_sweep_memory(self):
        # the measure workload's sweep on two threads: two chunks of
        # seven arrays each and the sweep's outputs
        sweep = [cl.MapParams(i / 10) for i in range(21)]
        tracemalloc.start()
        try:
            cl.estimate_chaotic_measures(sweep, 64, 50, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_chunk_bounds(self):
        def check(n_lambdas, n_own, threads):
            workers, chunks = cl._chunks(n_lambdas, n_own, threads)
            assert workers == min(threads, n_lambdas)
            starts, stops = zip(*chunks)
            assert starts[0] == 0 and stops[-1] == n_lambdas * n_own
            assert list(starts[1:]) == list(stops[:-1])
            assert all(start < stop for start, stop in chunks)
            return workers, chunks

        # never more workers than kick strengths, and a chunk per worker
        workers, chunks = check(21, 2048, 10**6)
        assert workers == 21 and len(chunks) == 21
        # the measure sweep on two threads: balanced chunks, a multiple of
        # the worker count, none above the chunk size
        workers, chunks = check(21, 2048, 2)
        sizes = {stop - start for start, stop in chunks}
        assert len(chunks) % 2 == 0 and max(sizes) - min(sizes) <= 1
        assert max(sizes) <= cl._CHUNK_ORBITS
        # where a worker's share fits the chunk size it runs one chunk
        for threads in (2, 3, 4):
            assert len(check(21, 2048, threads)[1]) == threads
        check(3, 128, 4)
        assert check(1, 128, 8) == (1, [(0, 128)])
        assert check(2, 161, 10**6) == (2, [(0, 161), (161, 322)])

    def test_pool_only_when_it_can_help(self, monkeypatch):
        monkeypatch.setattr(cl, "ThreadPoolExecutor", no_pool)
        assert cl.estimate_chaotic_measures([], 16, 50, threads=4) == []
        cl.estimate_chaotic_measures(self.SWEEP[:3], 16, 50, threads=1)
        cl.estimate_chaotic_measures(self.SWEEP[:1], 16, 50, threads=4)

    def test_preconditions_hold_for_an_empty_sweep(self):
        with pytest.raises(ConfigurationError, match="grid_side"):
            cl.estimate_chaotic_measures([], 8, 50)
        with pytest.raises(ConfigurationError, match="n_steps"):
            cl.estimate_chaotic_measures([], 16, 0)
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError, match="threads"):
                cl.estimate_chaotic_measures([], 16, 50, threads=bad)


WHOLE_TORUS = [cl.Cell(0.0, TWO_PI, 0.0, TWO_PI)]
QUARTER = [cl.Cell(0.0, np.pi, 0.0, np.pi)]
OTHER_QUARTER = [cl.Cell(np.pi, TWO_PI, np.pi, TWO_PI)]


class TestSetCorrelation:
    def test_whole_torus_is_uncorrelated(self):
        for t in (0, 7):
            est = cl.set_correlation(WHOLE_TORUS, WHOLE_TORUS,
                                     cl.MapParams(3.0), t, 20_000, seed=5)
            assert est.value == 0.0

    def test_self_correlation_at_t0(self):
        est = cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 0,
                                 100_000, seed=2)
        # mu(A)=1/4 exactly: C = 1/4 - 1/16 = 0.1875
        assert est.value == pytest.approx(0.1875, abs=3 * est.std_error)

    def test_mixing_decay_at_strong_kick(self):
        est = cl.set_correlation(QUARTER, OTHER_QUARTER, cl.MapParams(10.0),
                                 50, 100_000, seed=9)
        assert abs(est.value) < 3 * est.std_error

    def test_empty_region_flagged(self):
        est = cl.set_correlation([], QUARTER, cl.MapParams(1.0), 3, 10_000,
                                 seed=1)
        assert est.empty_input
        assert est.value == -est.mu_A * est.mu_B == 0.0

    def test_seed_determinism(self):
        a = cl.set_correlation(QUARTER, OTHER_QUARTER, cl.MapParams(2.0), 5,
                               10_000, seed=11)
        b = cl.set_correlation(QUARTER, OTHER_QUARTER, cl.MapParams(2.0), 5,
                               10_000, seed=11)
        assert a == b

    def test_sample_precondition(self):
        with pytest.raises(ConfigurationError):
            cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 0, 100, 0)
        # t = 2.5 and n_samples = 10000.0 used to end in a bare TypeError
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ConfigurationError, match="t must"):
                cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), bad,
                                   10_000, 0)
        for bad in (10_000.0, 10_000.5, "10000"):
            with pytest.raises(ConfigurationError, match="n_samples"):
                cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 0,
                                   bad, 0)
        est = cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0),
                                 np.int64(1), np.int64(10_000), 0)
        assert est.t == 1 and est.n_samples == 10_000

    def test_seed_precondition(self):
        # 1.5 used to end in a bare TypeError and -1 in numpy's ValueError
        for bad in (1.5, -1, True, "1"):
            with pytest.raises(ConfigurationError, match="seed"):
                cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 1,
                                   10_000, bad)
        assert (cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 1,
                                   10_000, np.int64(7))
                == cl.set_correlation(QUARTER, QUARTER, cl.MapParams(1.0), 1,
                                      10_000, 7))

    def test_cells_from_json(self):
        cells = cl.cells_from_json(
            '[{"theta_min": 0, "theta_max": 3.14, "p_min": 1, "p_max": 2}]')
        assert cells == [cl.Cell(0.0, 3.14, 1.0, 2.0)]
        bad_inputs = [
            '{"not": "a list"}',
            '[{"theta_min": 0}]',  # used to raise KeyError
            '[1]', '[[0, 1, 0, 1]]', '["cell"]',  # TypeError
            '{',  # JSONDecodeError
            '[{"theta_min": "x", "theta_max": 1, "p_min": 0, "p_max": 1}]',
            '[{"theta_min": NaN, "theta_max": 1, "p_min": 0, "p_max": 1}]',
            '[{"theta_min": 0, "theta_max": Infinity, "p_min": 0, "p_max": 1}]',
            '[{"theta_min": 0, "theta_max": 1, "p_min": true, "p_max": 1}]',
            '[{"theta_min": 0, "theta_max": 1, "p_min": 0, "p_max": 1e999}]',
            '[{"theta_min": 0, "theta_max": 1, "p_min": 0, "p_max": 1'
            + "0" * 400 + "}]",
            "[" * 100_000 + "]" * 100_000,
        ]
        for text in bad_inputs:
            with pytest.raises(ConfigurationError):
                cl.cells_from_json(text)
