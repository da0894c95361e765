import ast
import json
import re
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from ehlab import cli, harness
from ehlab import quantum as q
from ehlab.errors import (ConfigurationError, DegenerateSpectrumError,
                          HermiticityError, NumericError)
from test_harness import artifact_bytes


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return q.DensityState(m / np.trace(m).real)


def dense_angle_diagonal(values):
    """U^dagger diag(values) U with U[j, k] = exp(i k theta_j)/sqrt(N)."""
    dim = len(values)
    theta = 2.0 * np.pi * np.arange(dim) / dim
    u = np.exp(1j * np.outer(theta, q.momentum_ladder(dim))) / np.sqrt(dim)
    return u.conj().T @ (values[:, None] * u)


def dense_kick(params):
    theta = 2.0 * np.pi * np.arange(params.dim) / params.dim
    return dense_angle_diagonal(
        np.exp(-1j * (params.lam / params.hbar) * np.cos(theta)))


def dense_kick_coefficients(params):
    """c[k mod N] = K[k, 0], read off the dense-DFT kick."""
    n = params.dim
    c = np.empty(n, dtype=complex)
    c[q.momentum_ladder(n) % n] = dense_kick(params)[:, n // 2]
    return c


@dataclass
class DenseFloquet:
    """A Floquet system held as its dense eigenbasis (columns)."""

    quasi_energies: np.ndarray
    eigenbasis: np.ndarray
    degeneracy_flags: list

    def to_eigenbasis(self, matrix):
        z = self.eigenbasis
        return z.conj().T @ matrix @ z


def circulant_kick(params):
    """The dense kick K[k, k'] = c[(k - k') mod N], gathered from its
    circulant coefficients."""
    n = params.dim
    ladder = q.momentum_ladder(n)
    return q._kick_coefficients(params)[np.subtract.outer(ladder, ladder) % n]


def free_diagonal(params):
    """The diagonal exp(-i tau hbar k^2 / 2) of the free factor."""
    k = q.momentum_ladder(params.dim)
    return np.exp(-0.5j * params.tau * params.hbar * k.astype(float) ** 2)


def dense_floquet(params):
    """The dense F = kick * free."""
    return circulant_kick(params) * free_diagonal(params)[None, :]


def sorted_spectrum(eigenvalues):
    """Quasi-energies of F's eigenvalues in increasing order, that order,
    and the pairs closer than DEFAULT_GAP_TOL (2 pi wraparound included)."""
    phi = np.mod(-np.angle(eigenvalues), 2.0 * np.pi)
    order = np.argsort(phi, kind="stable")
    phi = phi[order]
    n = len(phi)
    gap_tol = q.DEFAULT_GAP_TOL
    flags = [(int(i), int(i + 1))
             for i in np.flatnonzero(np.diff(phi) < gap_tol)]
    if n > 1 and (phi[0] + 2.0 * np.pi - phi[-1]) < gap_tol:
        flags.append((n - 1, 0))
    return phi, order, flags


def schur_floquet(params):
    """The Floquet system by the complex Schur form of F (exact oracle)."""
    t, z = scipy.linalg.schur(dense_floquet(params), output="complex")
    phi, order, flags = sorted_spectrum(np.diag(t))
    return DenseFloquet(quasi_energies=phi, eigenbasis=z[:, order],
                        degeneracy_flags=flags)


def eigvals_floquet(params):
    """The spectrum of F alone by LAPACK's eigenvalue-only QR iteration:
    the Schur iteration of `schur_floquet` without accumulating the Schur
    vectors, which the spectrum does not need (exact oracle)."""
    phi, _, flags = sorted_spectrum(scipy.linalg.eigvals(dense_floquet(params)))
    return DenseFloquet(quasi_energies=phi, eigenbasis=None,
                        degeneracy_flags=flags)


def dense_parity_basis(system):
    """Z = D^-1 P blockdiag(V_e, V_o) from the definitions, column i being
    block column order[i]; P's columns are |0>, then
    (|k> + |-k>)/sqrt(2) and (|k> - |-k>)/sqrt(2) for k = 1..(N-1)/2."""
    n = system.dim
    h = n // 2
    k = np.arange(1, h + 1)
    p = np.zeros((n, n))
    p[h, 0] = 1.0
    p[h + k, k] = p[h - k, k] = 1.0 / np.sqrt(2.0)
    p[h + k, h + k] = 1.0 / np.sqrt(2.0)
    p[h - k, h + k] = -1.0 / np.sqrt(2.0)
    b = np.zeros((n, n))
    b[:h + 1, :h + 1] = system.v_even
    b[h + 1:, h + 1:] = system.v_odd
    return system.half_free.conj()[:, None] * (p @ b)[:, system.order]


def dense_parity_block(coeffs, half_free, sign):
    """The even (sign +1) or odd (sign -1) parity block of F_s = D K D by
    index matrices: c[(k - k') mod N] +- c[k + k'] times the half-ladder
    phases of k and k', with 1/sqrt(2) on the even block's k = 0 row and
    column (exact oracle)."""
    n = len(coeffs)
    h = (n - 1) // 2
    k = np.arange(0 if sign > 0 else 1, h + 1)
    block = coeffs[np.subtract.outer(k, k) % n]
    plus = coeffs[np.add.outer(k, k)]  # k + k' <= N - 1
    if sign > 0:
        block += plus
    else:
        block -= plus
    s = half_free[h:].copy()
    s[0] /= np.sqrt(2.0)
    s = s[k]
    block *= s[:, None]
    block *= s[None, :]
    return block


def panel_block(coeffs, half_free, sign):
    """The parity block stacked from the row panels of `_parity_panels`,
    which must come in row order."""
    size = (len(coeffs) + sign) // 2
    block = np.empty((0, size), dtype=complex)
    for rows, panel in q._parity_panels(coeffs, half_free, sign):
        assert rows.start == len(block) and len(panel) == rows.stop - rows.start
        block = np.vstack([block, panel])
    return block


def assert_same_spectrum(system, oracle):
    """Quasi-energies within 1e-12 on the circle and the same flagged pairs.

    A quasi-energy within rounding of 0 may sit at either end of
    [0, 2 pi), which shifts the sorted order by one place.
    """
    n = system.dim
    for shift in (0, 1, -1):
        d = np.abs(system.quasi_energies
                   - np.roll(oracle.quasi_energies, shift))
        if np.max(np.minimum(d, 2.0 * np.pi - d)) <= 1e-12:
            break
    else:
        pytest.fail("quasi-energies differ from the Schur oracle")
    moved = {frozenset(((i + shift) % n, (j + shift) % n))
             for i, j in oracle.degeneracy_flags}
    assert len(system.degeneracy_flags) == len(oracle.degeneracy_flags)
    assert {frozenset(p) for p in system.degeneracy_flags} == moved


def random_observable(dim, rng, label="random"):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return q.ObservableMatrix(h / np.linalg.norm(h), label=label)


# Times per block of the oracles; the bound of the first-block check of the
# volume fraction is stated in these blocks too.
ORACLE_BLOCK = 512


def offdiag_series_oracle(rho_e, obs_e, phi, times):
    """sum_{k != k'} rho_kk' O_k'k exp(-i t (phi_k - phi_k')) for each t,
    every phase computed directly (the exact path the fast one replaced)."""
    m_offdiag = rho_e * obs_e.T
    np.fill_diagonal(m_offdiag, 0.0)
    out = np.empty(len(times))
    for start in range(0, len(times), ORACLE_BLOCK):
        t = times[start:start + ORACLE_BLOCK]
        e = np.exp(-1j * np.outer(t, phi))
        out[start:start + ORACLE_BLOCK] = np.einsum(
            "tk,tk->t", e @ m_offdiag, e.conj()).real
    return out


def tail_maxima_oracle(system, o_set, n_states, horizon, seed):
    """Per state and observable, max |C_Q| over the first phase block of
    the last decile and over the rest, state by state from the oracle."""
    times = np.arange(int(np.ceil(0.9 * horizon)), horizon)
    obs_e = [system.to_eigenbasis(o.matrix) for o in o_set]
    z_dag = dense_parity_basis(system).conj().T
    out = np.empty((n_states, len(o_set), 2))
    for i in range(n_states):
        rng = np.random.default_rng([seed, i])
        v = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
        c = z_dag @ (v / np.linalg.norm(v))
        for j, oe in enumerate(obs_e):
            c_q = np.abs(offdiag_series_oracle(np.outer(c, c.conj()), oe,
                                               system.quasi_energies, times))
            out[i, j] = (np.max(c_q[:ORACLE_BLOCK]),
                         np.max(c_q[ORACLE_BLOCK:], initial=0.0))
    return out


def plan_series(m, phi, times):
    """sum_{k != k'} m_kk' exp(-i t (phi_k - phi_k')) at the ascending
    integer `times`, for one weight matrix with m_k'k = conj(m_kk'): one
    plan sweep over [times[0], times[-1] + 1) with unit amplitudes and m's
    pairs, in plan order, as its one column, read at `times`."""
    times = np.asarray(times)
    if not len(times):
        return np.empty(0)
    plan = q._SpreadPlan(phi)
    out = np.empty(times[-1] + 1 - times[0])
    for lo, sums in plan.sweep(int(times[0]), int(times[-1]) + 1,
                               np.ones((len(phi), 1)), m[plan.k, plan.kp][:, None]):
        out[lo:lo + len(sums)] = sums[:, 0]
    return out[times - times[0]]


def parity_states(dim, k=3, eps=0.3):
    """name -> (state, size of the support of Z^dagger rho Z) for states
    built from |0> and psi+- = (|k> +- |-k>)/sqrt(2)."""
    ladder = q.momentum_ladder(dim)
    zero = (ladder == 0).astype(complex)
    plus, minus = (((ladder == k) + sign * (ladder == -k)) / np.sqrt(2.0)
                   for sign in (1, -1))
    return {
        "even pure": (q.momentum_eigenstate(dim, 0), dim // 2 + 1),
        "even mixed": (q.DensityState(0.5 * np.outer(zero, zero)
                                      + 0.5 * np.outer(plus, plus)), dim // 2 + 1),
        "odd pure": (q.pure_state(minus), dim // 2),
        # Hermitian with trace 1 but not positive: its odd diagonal is 0 and
        # its odd rows are not
        "not positive": (q.DensityState(np.outer(zero, zero) + eps * (
            np.outer(zero, minus) + np.outer(minus, zero))), dim),
    }


def recording_plan(monkeypatch):
    """Make every _SpreadPlan record (phases, sources) in the list returned."""
    built = []

    class Plan(q._SpreadPlan):
        def __init__(self, phi):
            super().__init__(phi)
            built.append((len(phi), len(self.k)))

    monkeypatch.setattr(q, "_SpreadPlan", Plan)
    return built


def pair_column_sweep_oracle(plan, times, amps, weights):
    """What `plan.sweep` yields over [times[0], times[-1] + 1), read at the
    ascending integer `times`, by the spreading that per-tile amplitude
    columns replaced: per window, all (sources, q, p) columns w_kk' a_k
    conj(a_k') formed by two takes and a multiply into one buffer, then
    one GEMM per tile over that buffer. Returns (len(times), q * p), column
    j * p + c."""
    window, grid, spread = q._WINDOW, q._GRID, q._SPREAD
    times = np.asarray(times)
    n, p = weights.shape[0], amps.shape[1]
    modes = np.arange(-window // 2, window // 2) % grid
    out = np.empty((len(times), weights.shape[1] * p))
    for t0 in range(times[0], times[-1] + 1, window):
        lo, hi = np.searchsorted(times, [t0, t0 + window])
        a = amps * np.exp(-1j * (t0 + window // 2) * plan.phi)[:, None]
        pair = np.take(a, plan.k, axis=0) * np.take(a.conj(), plan.kp, axis=0)
        cols = weights[:, :, None] * pair[:, None]
        flat = cols.reshape(n, -1).view(float)
        ext = np.zeros((grid + 2 * spread - 1, flat.shape[1]))
        for start, first, last in plan.tiles:
            block = plan.block(start, first, last)
            ext[start:start + len(block)] += block @ flat[first:last]
        g = ext[spread - 1:spread - 1 + grid]
        g[:spread] += ext[spread - 1 + grid:]
        g[grid - spread + 1:] += ext[:spread - 1]
        sums = np.fft.fft(g.view(complex), axis=0)[modes].real * plan.deconv[:, None]
        out[lo:hi] = sums[times[lo:hi] - t0]
    return out


class TestParamsAndStates:
    def test_even_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            q.QuantumParams(dim=64, lam=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            for field in ("lam", "hbar", "tau"):
                with pytest.raises(ConfigurationError):
                    q.QuantumParams(dim=65, **{"lam": 1.0, field: bad})

    def test_resonance_rejected(self):
        # tau*hbar = 4*pi is the exact principal resonance
        with pytest.raises(ConfigurationError):
            q.QuantumParams(dim=65, lam=1.0, hbar=4.0 * np.pi, tau=1.0)
        with pytest.raises(ConfigurationError):
            q.QuantumParams(dim=65, lam=1.0, hbar=2.0 * np.pi, tau=1.0)
        # the product overflows although each factor is finite
        with pytest.raises(ConfigurationError):
            q.QuantumParams(dim=65, lam=1.0, hbar=1e200, tau=1e200)

    def test_ladder_is_symmetric(self):
        ladder = q.momentum_ladder(65)
        assert ladder[0] == -32 and ladder[-1] == 32
        assert np.array_equal(ladder, -ladder[::-1])

    def test_dim_must_be_an_integer(self):
        # a bool or float dim used to pass and end in a bare TypeError
        for bad in (True, False, 3.0, np.float64(5.0), "5", None):
            with pytest.raises(ConfigurationError, match="dim"):
                q.QuantumParams(dim=bad, lam=1.0)
        assert q.QuantumParams(dim=np.int64(5), lam=1.0).dim == 5

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_states_and_observables_rejected(self):
        # NaN fails every comparison, so a `> tol` check let it through
        for bad in (np.full((3, 3), np.nan), np.diag([np.nan, 0.5, 0.5]),
                    np.full((3, 3), np.inf)):
            with pytest.raises(ConfigurationError):
                q.DensityState(bad)
            with pytest.raises(ConfigurationError):
                q.ObservableMatrix(bad, "x")
        obs = q.ObservableMatrix.__new__(q.ObservableMatrix)
        object.__setattr__(obs, "matrix", np.full((3, 3), np.nan + 0j))
        object.__setattr__(obs, "label", "nan")
        with pytest.raises(HermiticityError):
            q.expectation(q.maximally_mixed(3), obs)

    def test_non_numeric_states_and_observables_rejected(self):
        with pytest.raises(ConfigurationError, match="density matrix"):
            q.DensityState("abc")
        with pytest.raises(ConfigurationError, match="observable 'x'"):
            q.ObservableMatrix([[1, 2], [3]], "x")
        with pytest.raises(ConfigurationError, match="vector"):
            q.pure_state(["a", "b"])

    def test_overflowing_asymmetry_is_not_hermitian(self):
        # m - m^dagger overflows to inf (or inf - inf gives NaN) for entries
        # of opposite sign near the largest double: the refusal, not a
        # RuntimeWarning, must end the check
        cases = [(q.DensityState, [[0.5, 1e308], [-1e308, 0.5]]),
                 (q.ObservableMatrix, [[1e308, 1e308], [-1e308, 1.0]]),
                 (q.DensityState, [[0.5, 1e308j], [1e308j, 0.5]]),
                 (q.ObservableMatrix, np.full((3, 3), np.inf))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build, m in cases:
                args = (np.array(m),) if build is q.DensityState else (np.array(m), "x")
                with pytest.raises(ConfigurationError, match="not Hermitian"):
                    build(*args)

    def test_matrix_shapes_rejected(self):
        # a 1-D observable used to be accepted and give a meaningless series;
        # 2 x 3 and 0 x 0 matrices ended in numpy ValueErrors
        for bad in (np.array([1.0, 0.0, -1.0]), np.ones((2, 3)),
                    np.zeros((0, 0)), np.ones((1, 3, 3)), np.float64(1.0)):
            with pytest.raises(ConfigurationError, match="square"):
                q.DensityState(bad)
            with pytest.raises(ConfigurationError, match="square"):
                q.ObservableMatrix(bad, "x")
        assert q.DensityState(np.ones((1, 1))).dim == 1
        assert q.ObservableMatrix(np.zeros((1, 1)), "x").dim == 1

    def test_state_validation(self):
        with pytest.raises(ConfigurationError):
            q.DensityState(np.eye(4))  # trace 4
        m = np.eye(4) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(ConfigurationError):
            q.DensityState(m)  # not Hermitian
        neg = np.diag([1.5, -0.5, 0.0, 0.0])
        q.DensityState(neg)  # accepted without the PSD check
        with pytest.raises(ConfigurationError):
            q.DensityState(neg, check_psd=True)

    def test_pure_state_normalizes(self):
        rho = q.pure_state([3.0, 4.0])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)
        assert rho.matrix[0, 0].real == pytest.approx(0.36, abs=1e-14)

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0],
                                        [1e200, 1e200]],
                             ids=["zero", "nan", "inf", "norm-overflows"])
    def test_pure_state_refuses_a_vector_without_a_norm(self, vector):
        # the vector itself is refused, before a 0/0 or x/inf normalization
        # can warn and make a matrix that fails a later check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="finite non-zero norm"):
                q.pure_state(vector)

    @pytest.mark.parametrize("vector", [np.ones((2, 2)), np.ones((1, 3)), 1.0],
                             ids=["matrix", "row", "scalar"])
    def test_pure_state_refuses_a_vector_that_is_not_1d(self, vector):
        # a matrix used to be flattened into a state of its size
        shape = re.escape(str(np.shape(vector)))
        with pytest.raises(ConfigurationError, match=f"1-D, got shape {shape}"):
            q.pure_state(vector)

    def test_momentum_eigenstate_position(self):
        rho = q.momentum_eigenstate(7, -3)
        assert rho.matrix[0, 0] == 1.0
        with pytest.raises(ConfigurationError):
            q.momentum_eigenstate(7, 4)

    def test_haar_random_is_pure(self):
        rho = q.haar_random_pure(16, np.random.default_rng(0))
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    def test_momentum_window_rank(self):
        # half-open window [0, .) on a 65-site ladder keeps k = 0..32
        obs = q.momentum_window_projector(65, 0.0, 33.0)
        assert np.trace(obs.matrix).real == pytest.approx(33.0)
        with pytest.raises(ConfigurationError):
            q.momentum_window_projector(65, 100.0, 101.0)

    def test_window_respects_hbar(self):
        obs = q.momentum_window_projector(65, 0.0, 10.0, hbar=2.0)
        assert np.trace(obs.matrix).real == pytest.approx(5.0)  # k=0..4

    def test_window_at_huge_hbar_warns_nothing(self):
        # hbar*k overflows to +-inf past k = 1 and still compares right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = q.momentum_window_projector(17, 0.0, 1.0, hbar=1e308)
            low = q.momentum_window_projector(17, -1e308, -1e300, hbar=1e308)
        assert np.flatnonzero(obs.matrix.diagonal()).tolist() == [8]  # k = 0
        assert np.flatnonzero(low.matrix.diagonal()).tolist() == [7]  # k = -1

    def test_cos_theta_spectrum(self):
        obs = q.cos_theta_observable(33)
        w = np.linalg.eigvalsh(obs.matrix)
        grid = np.sort(np.cos(2.0 * np.pi * np.arange(33) / 33))
        assert np.allclose(w, grid, atol=1e-10)

    def test_l_squared_diagonal(self):
        obs = q.l_squared_observable(5, hbar=0.5)
        assert np.allclose(np.diag(obs.matrix).real,
                           (0.5 * np.array([-2, -1, 0, 1, 2])) ** 2)


class TestFloquet:
    def test_kick_operator_matches_bessel(self):
        # <m|exp(-i a cos theta)|n> = (-i)^(m-n) J_{m-n}(a) exactly
        dim = 65
        ladder = q.momentum_ladder(dim)
        for a in (1.0, 3.0, 5.0):
            params = q.QuantumParams(dim=dim, lam=a, hbar=1.0, tau=1.0)
            u = circulant_kick(params)
            d = ladder[:, None] - ladder[None, :]
            expected = (-1j) ** d * scipy.special.jv(d, a)
            # aliasing from the finite grid only affects |m-n| ~ N
            bulk = np.abs(d) <= dim // 2
            assert np.max(np.abs((u - expected)[bulk])) < 1e-8

    @pytest.mark.parametrize("dim", [1, 3, 65, 257, 1025])
    def test_angle_operators_match_dense_dft(self, dim):
        # the circulant construction against U^dagger diag(values) U
        for lam in (0.0, 1.0, 10.0):
            for hbar in (1.0, 0.7):
                params = q.QuantumParams(dim=dim, lam=lam, hbar=hbar)
                err = np.max(np.abs(circulant_kick(params)
                                    - dense_kick(params)))
                assert err <= 1e-12
        theta = 2.0 * np.pi * np.arange(dim) / dim
        dense_cos = dense_angle_diagonal(np.cos(theta))
        obs = q.cos_theta_observable(dim)
        assert np.max(np.abs(obs.matrix - dense_cos)) <= 1e-12

    def test_spectrum_matches_dense_kick(self, monkeypatch):
        params = q.QuantumParams(dim=257, lam=10.0)
        system = q.build_floquet(params)
        monkeypatch.setattr(q, "_kick_coefficients", dense_kick_coefficients)
        dense = q.build_floquet(params)
        assert np.max(np.abs(system.quasi_energies
                             - dense.quasi_energies)) <= 1e-12
        assert system.degeneracy_flags == dense.degeneracy_flags

    @pytest.mark.parametrize("dim", [1, 3, 5, 65, 257, 1025])
    def test_spectrum_matches_schur_oracle(self, dim):
        # parity blocks of sizes (N+1)/2 and (N-1)/2: at dim 1 the odd one
        # is empty
        even, odd = (panel_block(np.eye(1, dim, dtype=complex)[0],
                                 np.ones(dim, dtype=complex), sign)
                     for sign in (1, -1))
        assert even.shape == ((dim + 1) // 2,) * 2
        assert odd.shape == ((dim - 1) // 2,) * 2
        # eigenvectors are compared only through quantities that do not
        # depend on the basis chosen inside a degenerate cluster
        for lam in (0.0, 0.5, 2.0, 10.0):
            for hbar in (1.0, 0.7):
                params = q.QuantumParams(dim=dim, lam=lam, hbar=hbar)
                system = q.build_floquet(params)
                assert_same_spectrum(system, eigvals_floquet(params))
                z, phi = dense_parity_basis(system), system.quasi_energies
                assert np.max(np.abs(dense_floquet(params) @ z
                                     - z * np.exp(-1j * phi))) <= 1e-10
                assert np.max(np.abs(z.conj().T @ z - np.eye(dim))) <= 1e-12
                assert phi[0] >= 0.0 and phi[-1] < 2.0 * np.pi

    def test_long_evolution_matches_schur_oracle(self):
        params = q.QuantumParams(dim=257, lam=10.0)
        psi = np.zeros(257, dtype=complex)
        psi[128] = 1.0  # |k=0>
        out = q.evolve_vector(psi, q.build_floquet(params), 10_000)
        oracle = schur_floquet(params)
        z = oracle.eigenbasis
        ref = z @ (np.exp(-1j * 10_000 * oracle.quasi_energies)
                   * (z.conj().T @ psi))
        assert np.max(np.abs(out - ref)) <= 1e-10

    def test_eigensolve_gate(self, monkeypatch, tmp_path):
        # a basis rotated inside one 2x2 pair of a block is not an eigenbasis
        solve = q._eigh_in_place

        def rotated(m, work):
            w = solve(m, work)
            if len(w) > 1:
                m[:, :2] = m[:, :2] @ (np.array([[1.0, -1.0], [1.0, 1.0]])
                                       / np.sqrt(2.0))
            return w
        monkeypatch.setattr(q, "_eigh_in_place", rotated)
        with pytest.raises(NumericError, match="eigen-residual"):
            q.build_floquet(q.QuantumParams(dim=33, lam=5.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 33, "lambda": 5.0, "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

    def test_nan_in_either_block_fails_the_gate(self, monkeypatch):
        solve = q._eigh_in_place
        for size in (17, 16):  # the even and the odd block at N = 33
            def nan_vector(m, work, size=size):
                w = solve(m, work)
                if len(m) == size:
                    m[0, 0] = np.nan
                return w
            with monkeypatch.context() as patch:
                patch.setattr(q, "_eigh_in_place", nan_vector)
                with pytest.raises(NumericError, match="eigen-residual nan"):
                    q.build_floquet(q.QuantumParams(dim=33, lam=5.0))

    @pytest.mark.skipif(q._dsyevd() is None,
                        reason="numpy's OpenBLAS exports no dsyevd")
    def test_solver_failure_is_numeric_error(self, monkeypatch, tmp_path):
        # dsyevd reporting info != 0 ends in a NumericError, and ehlab run
        # in exit code 3 without output
        dsyevd, integer = q._dsyevd()

        def failing(*args):
            args[10].value = 7  # info
        monkeypatch.setattr(q, "_dsyevd", lambda: (failing, integer))
        with pytest.raises(NumericError, match="dsyevd info 7"):
            q.build_floquet(q.QuantumParams(dim=33, lam=5.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 33, "lambda": 5.0, "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

    def test_cluster_eigh_failure_is_numeric_error(self, monkeypatch, tmp_path):
        # N = 257 at lam = 10 has a cluster in its even block, whose
        # Rayleigh-Ritz eigh here fails to converge
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericError, match="did not converge"):
            q.build_floquet(q.QuantumParams(dim=257, lam=10.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 257, "lambda": 10.0, "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(q._dsyevd() is None,
                        reason="without dsyevd the blocks are solved in turn")
    def test_worker_is_joined_when_a_block_fails(self, monkeypatch):
        # the even block fails on the calling thread while the odd one is
        # still being solved on the worker: the error propagates only once
        # the worker is done, and no thread is left behind
        n = q._BLAS_THREADED_DIM
        solve, done = q._eigh_in_place, []

        def even_fails(m, work):
            if len(m) == (n + 1) // 2:
                raise NumericError("injected")
            w = solve(m, work)
            time.sleep(0.2)
            done.append(len(m))
            return w
        monkeypatch.setattr(q, "_eigh_in_place", even_fails)
        before = threading.active_count()
        with pytest.raises(NumericError, match="injected"):
            q.build_floquet(q.QuantumParams(dim=n, lam=10.0), threads=2)
        assert done == [(n - 1) // 2]
        assert threading.active_count() == before

    def test_build_below_the_threaded_dim_starts_no_thread(self, monkeypatch):
        # relax's N = 257 builds, and any below the threaded dim, solve the
        # blocks in turn on the calling thread, given two threads or not
        monkeypatch.setattr(q, "ThreadPoolExecutor", None)
        for dim in (257, q._BLAS_THREADED_DIM - 2):
            q.build_floquet(q.QuantumParams(dim=dim, lam=10.0), threads=2)

    def test_block_threads_give_the_same_system(self):
        # the blocks solved side by side on two threads and in turn on one
        # are the same, bit for bit
        params = q.QuantumParams(dim=1025, lam=10.0)
        one = q.build_floquet(params, threads=1)
        two = q.build_floquet(params, threads=2)
        for name in ("quasi_energies", "v_even", "v_odd", "order"):
            assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
        assert one.degeneracy_flags == two.degeneracy_flags

    @pytest.mark.parametrize("dim", [1, 3, 257, 1025])
    def test_solve_without_dsyevd_is_the_same(self, dim, monkeypatch):
        # without the LAPACK symbol np.linalg.eigh solves each block, in
        # turn, into the same buffer: the same system, bit for bit, since
        # eigh calls the same dsyevd
        params = q.QuantumParams(dim=dim, lam=10.0)
        system = q.build_floquet(params, threads=2)
        monkeypatch.setattr(q, "_dsyevd", lambda: None)
        fallback = q.build_floquet(params, threads=2)
        for name in ("quasi_energies", "v_even", "v_odd", "order"):
            assert (getattr(system, name).tobytes()
                    == getattr(fallback, name).tobytes()), name
        assert system.degeneracy_flags == fallback.degeneracy_flags

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_kick_is_numeric_error(self, tmp_path):
        # lam/hbar overflows to inf, so the kick is NaN; NaN passes no gate
        with pytest.raises(NumericError):
            q.build_floquet(q.QuantumParams(dim=33, lam=1e308, hbar=0.1))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 33, "lambda": 1e308, "hbar": 0.1,
                           "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim", [1, 3, 65, 257, 1025])
    def test_unitarity_residual_matches_dense(self, dim):
        # max |FF^† - I| read off the kick's circulant coefficients against
        # the dense product, on valid kicks and on kicks pushed off the unit
        # circle on the grid
        theta = 2.0 * np.pi * np.arange(dim) / dim
        ladder = q.momentum_ladder(dim)
        rng = np.random.default_rng(dim)
        cases = []
        for lam in (0.0, 0.5, 10.0):
            for hbar in (1.0, 0.7):
                params = q.QuantumParams(dim=dim, lam=lam, hbar=hbar)
                cases.append((params, q._kick_coefficients(params)))
        # the last (lam, hbar) kick, off the circle by relative noise
        kick = np.exp(-1j * (params.lam / params.hbar) * np.cos(theta))
        for noise in (1e-12, 1e-8, 1e-4, 1e-2):
            off = kick * (1.0 + noise * rng.normal(size=dim))
            cases.append((params, np.fft.fft(off) / dim))
        for params, c in cases:
            f = (c[np.subtract.outer(ladder, ladder) % dim]
                 * free_diagonal(params)[None, :])
            dense = np.max(np.abs(f @ f.conj().T - np.eye(dim)))
            assert abs(q._unitarity_residual(c) - dense) <= 1e-14

    def test_non_unitary_kick_is_numeric_error(self, monkeypatch, tmp_path):
        # the kick scaled by 1 + 1e-8 on the grid: max |FF^† - I| is 2e-8
        def scaled(params):
            theta = 2.0 * np.pi * np.arange(params.dim) / params.dim
            kick = np.exp(-1j * (params.lam / params.hbar) * np.cos(theta))
            return np.fft.fft((1.0 + 1e-8) * kick) / params.dim
        monkeypatch.setattr(q, "_kick_coefficients", scaled)
        with pytest.raises(NumericError, match="not unitary"):
            q.build_floquet(q.QuantumParams(dim=33, lam=5.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 33, "lambda": 5.0, "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim", [1, 3, 5, 65, 257, 1025])
    def test_parity_panels_match_index_formula(self, dim, monkeypatch):
        # the row panels read off strided views of c are, bit for bit, the
        # block the index formula gathers, and a build from that block as
        # one panel is the panel build, bit for bit
        def one_panel(coeffs, half_free, sign, scratch=None):
            block = dense_parity_block(coeffs, half_free, sign)
            yield slice(0, len(block)), block
        for lam in (0.0, 10.0):
            for hbar in (1.0, 0.7):
                params = q.QuantumParams(dim=dim, lam=lam, hbar=hbar)
                system = q.build_floquet(params)
                coeffs = q._kick_coefficients(params)
                for sign in (1, -1):
                    got = panel_block(coeffs, system.half_free, sign)
                    want = dense_parity_block(coeffs, system.half_free, sign)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                with monkeypatch.context() as m:
                    m.setattr(q, "_parity_panels", one_panel)
                    oracle = q.build_floquet(params)
                for name in ("quasi_energies", "v_even", "v_odd", "order"):
                    assert (getattr(system, name).tobytes()
                            == getattr(oracle, name).tobytes()), name
                assert system.degeneracy_flags == oracle.degeneracy_flags

    @pytest.mark.parametrize("threads, blocks", [(1, 4), (2, 6)])
    def test_build_peak_in_block_matrices(self, threads, blocks):
        # a block solved in place holds three real matrices of its size: its
        # buffer, which becomes its eigenvectors, and the dsyevd workspace,
        # which then holds B and B V, then A and A V. In turn, the odd
        # block's three meet the even block's basis: 4 block matrices. Side
        # by side, both blocks' three meet: 6, the true peak of a solve by
        # np.linalg.eigh in turn (its input, copy, workspace and output
        # beside the even basis). numpy's ufunc buffers and the vectors take
        # under 0.5 MiB a thread; a panel outside the workspace, a complex
        # block or an N x N array breaks the bound
        n = 1025
        block = 8 * ((n + 1) // 2) ** 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q.build_floquet(q.QuantumParams(dim=n, lam=10.0), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= blocks * block + threads * (1 << 19)

    def test_build_holds_one_dense_array(self):
        # a built system holds its two real half-size block bases, a
        # quarter of one N x N complex array; a stored or transient dense
        # eigenbasis, F or kick breaks the bounds
        n = 1025
        unit = 16 * n * n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system = q.build_floquet(q.QuantumParams(dim=n, lam=10.0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base <= 0.3 * unit
        assert peak - base < 1.0 * unit

    def test_evolve_vector_allocates_no_dense_array(self):
        # F^n psi needs O(N) scratch beyond the system: an N x N conjugate
        # copy of the eigenbasis would be one unit
        n = 1025
        unit = 16 * n * n
        system = q.build_floquet(q.QuantumParams(dim=n, lam=10.0))
        psi = np.zeros(n, dtype=complex)
        psi[n // 2] = 1.0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q.evolve_vector(psi, system, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.05 * unit

    @pytest.mark.parametrize("dim", [1, 3, 5, 65, 257, 1025])
    def test_block_products_match_dense_basis(self, dim):
        # every path through Z and Z^dagger against the dense formulas with
        # Z assembled from its definition; at dim 1 the odd block is empty
        rng = np.random.default_rng(dim)
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        z = dense_parity_basis(system)
        zh = z.conj().T
        observables = [random_observable(dim, rng),
                       q.momentum_window_projector(dim, 0, dim // 2 + 1),
                       q.cos_theta_observable(dim)]
        for obs in observables:
            m = obs.matrix
            assert np.max(np.abs(system.to_eigenbasis(m) - zh @ m @ z)) <= 1e-12
        m = observables[0].matrix
        assert np.max(np.abs(system.from_eigenbasis(m) - z @ m @ zh)) <= 1e-12
        vectors = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
        assert np.max(np.abs(system._z_dag(vectors) - zh @ vectors)) <= 1e-12
        assert np.max(np.abs(system._z(vectors) - z @ vectors)) <= 1e-12
        n = 10_000
        phase = np.exp(-1j * n * system.quasi_energies)
        for psi in vectors.T:
            assert np.max(np.abs(q.evolve_vector(psi, system, n)
                                 - z @ (phase * (zh @ psi)))) <= 1e-12
        rho = random_density(dim, rng)
        rho_e = zh @ rho.matrix @ z
        evolved = z @ (phase[:, None] * rho_e * phase.conj()[None, :]) @ zh
        assert np.max(np.abs(q.evolve(rho, system, n).matrix - evolved)) <= 1e-12
        star = (z * np.diag(rho_e).real) @ zh
        limit = q.cesaro_limit_state(rho, system, allow_degenerate=True)
        assert np.max(np.abs(limit.matrix - star)) <= 1e-12

    def test_one_loop_over_time_windows(self):
        # _SpreadPlan.sweep is the one loop over NUFFT windows: only it
        # sums a spread, both relaxation layers go through it, and no
        # module searches for window ends
        def reads_pair_index(node):
            return any(isinstance(a, ast.Attribute) and a.attr in ("k", "kp")
                       for a in ast.walk(node))

        owners, imports = {}, set()
        for path in sorted(Path(q.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for a in ast.walk(tree):
                if isinstance(a, ast.ImportFrom):
                    imports.add(a.module)
                elif isinstance(a, ast.Import):
                    imports.update(alias.name for alias in a.names)
            scopes = [(f"{c.name}.{f.name}", f) for c in tree.body
                      if isinstance(c, ast.ClassDef) for f in c.body
                      if isinstance(f, ast.FunctionDef)]
            scopes += [(f.name, f) for f in tree.body
                       if isinstance(f, ast.FunctionDef)]
            for scope, f in scopes:
                for a in ast.walk(f):
                    if isinstance(a, ast.Call):
                        name = getattr(a.func, "attr", getattr(a.func, "id", None))
                        owners.setdefault(name, set()).add((path.name, scope))
                    index = (isinstance(a, ast.Subscript)
                             and not isinstance(a.slice, ast.Tuple)
                             and reads_pair_index(a.slice))
                    take = (isinstance(a, ast.Call)
                            and getattr(a.func, "attr", None) == "take"
                            and any(map(reads_pair_index, a.args)))
                    if index or take:
                        owners.setdefault(".k/.kp row gather", set()).add(
                            (path.name, scope))
        assert "bisect" not in imports
        assert owners["sums"] == {("quantum.py", "_SpreadPlan.sweep")}
        assert owners["sweep"] == {("quantum.py", "correlation_series"),
                                   ("quantum.py", "mixing_volume_fraction")}
        # and only sums gathers amplitude rows by the plan's k / kp, one
        # tile at a time: an index of one axis, or a take, that reads .k or
        # .kp (the weights' gathers index both axes)
        assert owners[".k/.kp row gather"] == {("quantum.py", "_SpreadPlan.sums")}

    def test_unitary_and_spectrum(self):
        params = q.QuantumParams(dim=65, lam=10.0)
        system = q.build_floquet(params)
        n = params.dim
        f = dense_floquet(params)
        assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-10
        # eigenbasis orthonormal, quasi-energies sorted in [0, 2*pi)
        z = dense_parity_basis(system)
        assert np.max(np.abs(z.conj().T @ z - np.eye(n))) < 1e-10
        phi = system.quasi_energies
        assert np.all(np.diff(phi) >= 0)
        assert phi[0] >= 0.0 and phi[-1] < 2.0 * np.pi
        # the decomposition reproduces F
        rebuilt = z @ np.diag(np.exp(-1j * phi)) @ z.conj().T
        assert np.max(np.abs(rebuilt - f)) < 1e-8

    def test_degeneracy_flags(self):
        # parity doublets at small kick strength, none at strong kick
        weak = q.build_floquet(q.QuantumParams(dim=65, lam=0.5))
        strong = q.build_floquet(q.QuantumParams(dim=65, lam=10.0))
        assert len(weak.degeneracy_flags) == 23
        assert strong.degeneracy_flags == []

    def test_wrap_around_pair_is_flagged(self):
        # at lam = 0 and this hbar the free phases hbar k^2 / 2 mod 2 pi of
        # dim 7 are 0 and 2 pi - 1e-10: neighbours across 2 pi
        hbar = (4.0 * np.pi - 2e-10) / 9.0
        free = q.build_floquet(q.QuantumParams(dim=7, lam=0.0, hbar=hbar))
        assert free.quasi_energies[0] == 0.0
        assert free.quasi_energies[-1] == pytest.approx(2.0 * np.pi - 1e-10,
                                                        abs=1e-12)
        assert free.degeneracy_flags == [(1, 2), (3, 4), (5, 6), (6, 0)]
        kicked = q.build_floquet(q.QuantumParams(dim=7, lam=1e-3, hbar=hbar))
        assert kicked.degeneracy_flags == [(3, 4)]
        rho, obs = q.momentum_eigenstate(7, 0), q.cos_theta_observable(7)
        with pytest.raises(DegenerateSpectrumError) as exc:
            q.correlation_series(rho, free, obs, 10)
        assert (6, 0) in exc.value.pairs
        q.correlation_series(rho, free, obs, 10, allow_degenerate=True)

    def test_zero_kick_spectrum_is_free(self):
        params = q.QuantumParams(dim=33, lam=0.0)
        system = q.build_floquet(params)
        k = q.momentum_ladder(33)
        expected = np.mod(0.5 * k.astype(float) ** 2, 2.0 * np.pi)
        # compare as multisets on the circle (0 and 2*pi are the same phase)
        d = np.abs(system.quasi_energies[:, None] - expected[None, :])
        d = np.minimum(d, 2.0 * np.pi - d)
        assert np.max(d.min(axis=1)) < 1e-10
        assert np.max(d.min(axis=0)) < 1e-10


class TestEvolution:
    def test_evolve_matches_direct_conjugation(self):
        rng = np.random.default_rng(1)
        params = q.QuantumParams(dim=33, lam=5.0)
        system = q.build_floquet(params)
        rho = random_density(33, rng)
        f = dense_floquet(params)
        direct = rho.matrix.copy()
        for _ in range(7):
            direct = f @ direct @ f.conj().T
        out = q.evolve(rho, system, 7)
        assert np.max(np.abs(out.matrix - direct)) < 1e-10

    def test_evolve_vector_matches_matrix_power(self):
        params = q.QuantumParams(dim=17, lam=3.0)
        system = q.build_floquet(params)
        psi = np.zeros(17, dtype=complex)
        psi[8] = 1.0
        out = q.evolve_vector(psi, system, 5)
        direct = np.linalg.matrix_power(dense_floquet(params), 5) @ psi
        assert np.max(np.abs(out - direct)) < 1e-10

    def test_evolve_vector_dimension_mismatch(self):
        system = q.build_floquet(q.QuantumParams(dim=17, lam=3.0))
        for psi in (np.ones(15), np.ones(18), np.ones((17, 1)), np.ones((17, 17))):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                q.evolve_vector(psi, system, 5)

    def test_dimension_mismatch(self):
        system = q.build_floquet(q.QuantumParams(dim=17, lam=3.0))
        rho15 = q.maximally_mixed(15)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            q.evolve(rho15, system, 5)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            q.cesaro_limit_state(rho15, system, allow_degenerate=True)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            q.expectation(rho15, q.cos_theta_observable(17))

    def test_kick_count_must_be_an_integer(self):
        # F^2.5 used to come back as a unit vector / a valid density matrix
        system = q.build_floquet(q.QuantumParams(dim=17, lam=3.0))
        psi = np.zeros(17, dtype=complex)
        psi[8] = 1.0
        rho = q.maximally_mixed(17)
        for n in (2.5, 3.0, True, "3", None):
            with pytest.raises(ConfigurationError, match="kick count"):
                q.evolve_vector(psi, system, n)
            with pytest.raises(ConfigurationError, match="kick count"):
                q.evolve(rho, system, n)
        assert np.array_equal(q.evolve_vector(psi, system, np.int64(3)),
                              q.evolve_vector(psi, system, 3))

    def test_trace_and_purity_preserved(self):
        rng = np.random.default_rng(2)
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        rho = random_density(33, rng)
        p0 = np.trace(rho.matrix @ rho.matrix).real
        out = q.evolve(rho, system, 1000)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out.matrix @ out.matrix).real == pytest.approx(p0, abs=1e-9)

    def test_zero_steps_is_identity(self):
        params = q.QuantumParams(dim=9, lam=1.0)
        system = q.build_floquet(params)
        rho = q.maximally_mixed(9)
        assert q.evolve(rho, system, 0) is rho


class TestExpectationAndLimit:
    def test_expectation_matches_double_loop(self):
        rng = np.random.default_rng(3)
        rho = random_density(12, rng)
        obs = random_observable(12, rng)
        loop = 0.0 + 0.0j
        for i in range(12):
            for j in range(12):
                loop += rho.matrix[i, j] * obs.matrix[j, i]
        assert q.expectation(rho, obs) == pytest.approx(loop.real, abs=1e-12)

    def test_non_hermitian_residue_raises(self):
        rho = q.DensityState(np.eye(2) / 2.0)
        bad = q.ObservableMatrix.__new__(q.ObservableMatrix)
        object.__setattr__(bad, "matrix", np.array([[0.0, 1j], [1j, 0.0]]))
        object.__setattr__(bad, "label", "bad")
        rho2 = q.DensityState(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(HermiticityError):
            q.expectation(rho2, bad)

    def test_cesaro_limit_is_time_invariant(self):
        rng = np.random.default_rng(4)
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        rho = random_density(33, rng)
        star = q.cesaro_limit_state(rho, system)
        again = q.evolve(star, system, 97)
        assert np.max(np.abs(again.matrix - star.matrix)) < 1e-10

    def test_cesaro_limit_matches_long_time_average(self):
        rng = np.random.default_rng(5)
        params = q.QuantumParams(dim=17, lam=10.0)
        system = q.build_floquet(params)
        rho = random_density(17, rng)
        avg = np.zeros((17, 17), dtype=complex)
        horizon = 20_000
        for t in range(horizon):
            avg += q.evolve(rho, system, t).matrix
        avg /= horizon
        star = q.cesaro_limit_state(rho, system)
        assert np.max(np.abs(avg - star.matrix)) < 5e-3

    def test_degenerate_spectrum_refused(self):
        system = q.build_floquet(q.QuantumParams(dim=65, lam=0.5))
        rho = q.maximally_mixed(65)
        with pytest.raises(DegenerateSpectrumError):
            q.cesaro_limit_state(rho, system)
        star = q.cesaro_limit_state(rho, system, allow_degenerate=True)
        assert np.max(np.abs(star.matrix - rho.matrix)) < 1e-12


class TestStructuredForms:
    ROTATION_CASES = [(dim, hbar, lam) for dim in (1, 3, 5, 65, 257, 1025)
                      for hbar in (1.0, 0.7) for lam in (0.0, 10.0)]

    @pytest.mark.parametrize("dim,hbar,lam", ROTATION_CASES)
    def test_rotations_match_dense_oracle(self, dim, hbar, lam):
        # each structured rotation against the dense to_eigenbasis, on all
        # of the spectrum and on each state's support, at 1e-12 of the
        # observable's largest entry; at dim 1 the odd block is empty
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=lam, hbar=hbar))
        even = np.flatnonzero(system.order <= dim // 2)
        odd = np.flatnonzero(system.order > dim // 2)
        states = [q.momentum_eigenstate(dim, 0),
                  q.momentum_eigenstate(dim, dim // 2),
                  q.haar_random_pure(dim, np.random.default_rng(dim))]
        supports = []
        for rho in states:
            c = system._z_dag(rho.vector)
            r = system.to_eigenbasis(rho.matrix)
            assert np.max(np.abs(np.outer(c, c.conj()) - r)) <= 1e-12
            support = np.flatnonzero(c)
            assert support.tolist() == np.flatnonzero(r.any(axis=1)).tolist()
            supports.append(support)
        assert not set(supports[0].tolist()) & set(odd.tolist())
        # the window of k = 0, 1 is not parity symmetric: its cross-parity
        # block is not zero
        observables = {
            "asymmetric window": q.momentum_window_projector(
                dim, -0.5 * hbar, 1.5 * hbar, hbar=hbar),
            "symmetric window": q.momentum_window_projector(
                dim, -1.5 * hbar, 1.5 * hbar, hbar=hbar),
            "L_squared": q.l_squared_observable(dim, hbar=hbar),
            "cos_theta": q.cos_theta_observable(dim)}
        for name, obs in observables.items():
            dense = system.to_eigenbasis(obs.matrix)
            tol = 1e-12 * max(1.0, np.max(np.abs(dense)))
            got = system.observable_in_eigenbasis(obs)
            assert np.max(np.abs(got - dense)) <= tol, name
            for support in supports:
                on_s = np.ix_(support, support)
                part = system.observable_in_eigenbasis(obs, support)
                assert np.max(np.abs(part - dense[on_s]), initial=0.0) <= tol, name
            if obs.diagonal is not None:
                assert got.dtype == float
            cross = np.abs(got[np.ix_(even, odd)])
            if name == "asymmetric window" and dim > 1:
                assert np.max(cross) > 1e-3
            else:
                assert not cross.any(), name

    def test_no_run_path_builds_a_dense_form(self, tmp_path, monkeypatch):
        # the series from |k> or a Haar state and the volume fraction rotate
        # every observable through its structure: none reads a dense matrix
        def refuse(form):
            raise AssertionError(f"dense {type(form).__name__} built")

        monkeypatch.setattr(q, "_dense", refuse)
        observables = [{"type": "momentum_window", "k_lo": -2, "k_hi": 5},
                       {"type": "cos_theta"}, {"type": "l_squared"}]
        base = {"dim": 33, "lambda": 10.0, "allow_degenerate": True}
        runs = [("correlation-series", {**base, "horizon": 50,
                                        "observable": obs, "state": state})
                for obs in observables
                for state in ({"type": "momentum", "k": 3}, {"type": "haar"})]
        runs += [("volume-fraction", {"dim": 33, "lambda": 10.0, "n_states": 100,
                                      "horizon": 20, "tol": 0.3, "observables": [obs]})
                 for obs in observables]
        for i, (kind, parameters) in enumerate(runs):
            config = tmp_path / f"{i}.json"
            config.write_text(json.dumps({
                "kind": kind, "output_dir": str(tmp_path / str(i)),
                "parameters": parameters}))
            assert cli.main(["run", "--config", str(config)]) == 0, parameters

    def test_series_memory_is_a_fraction_of_a_dense_array(self):
        # |0>, a window and the series at N = 1025: the two dense rotations
        # took about four N x N complex arrays
        n = 1025
        system = q.build_floquet(q.QuantumParams(dim=n, lam=10.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q.correlation_series(q.momentum_eigenstate(n, 0), system,
                                 q.momentum_window_projector(n, 10.0, 60.0), 3000,
                                 allow_degenerate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 16 * n * n


class TestCorrelationSeries:
    def test_matches_step_by_step_evolution(self):
        rng = np.random.default_rng(6)
        params = q.QuantumParams(dim=17, lam=10.0)
        system = q.build_floquet(params)
        rho = random_density(17, rng)
        obs = random_observable(17, rng)
        star = q.cesaro_limit_state(rho, system)
        series = q.correlation_series(rho, system, obs, 50)
        for t in (0, 1, 17, 49):
            direct = q.quantum_correlation(q.evolve(rho, system, t), obs, star)
            assert series.c_q[t] == pytest.approx(direct, abs=1e-10)

    def test_cesaro_column_is_running_mean(self):
        rng = np.random.default_rng(7)
        params = q.QuantumParams(dim=17, lam=5.0)
        system = q.build_floquet(params)
        series = q.correlation_series(random_density(17, rng), system,
                                      random_observable(17, rng), 40)
        assert np.allclose(series.cesaro,
                           np.cumsum(series.c_q) / np.arange(1, 41))

    def test_cesaro_bounded_by_geometric_sum_oracle(self):
        # |(1/N) sum_t C_Q(t)| <= (1/N) sum_{k!=k'} |M_kk'| * 2/|1-e^{-i gap}|
        rng = np.random.default_rng(8)
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        rho = random_density(33, rng)
        obs = random_observable(33, rng)
        m = system.to_eigenbasis(rho.matrix) * system.to_eigenbasis(obs.matrix).T
        np.fill_diagonal(m, 0.0)
        phi = system.quasi_energies
        gap = phi[:, None] - phi[None, :]
        denom = np.abs(1.0 - np.exp(-1j * gap))
        np.fill_diagonal(denom, 1.0)
        c_geo = float(np.sum(np.abs(m) * 2.0 / denom))
        series = q.correlation_series(rho, system, obs, 4096)
        for n in (32, 128, 512, 2048, 4096):
            assert abs(series.cesaro[n - 1]) <= c_geo / n + 1e-12
        assert series.decay_constant() <= c_geo + 1e-12

    def test_degenerate_refusal_and_override(self):
        system = q.build_floquet(q.QuantumParams(dim=65, lam=0.5))
        rho = q.momentum_eigenstate(65, 0)
        obs = q.cos_theta_observable(65)
        with pytest.raises(DegenerateSpectrumError):
            q.correlation_series(rho, system, obs, 10)
        series = q.correlation_series(rho, system, obs, 10,
                                      allow_degenerate=True)
        assert len(series.c_q) == 10
        # the refusal reads the whole spectrum: no flagged pair lies inside
        # the support of the parity-even |0>, whose plan covers the even half
        even = set(np.flatnonzero(system.order < 33).tolist())
        assert not any(i in even and j in even for i, j in system.degeneracy_flags)

    @pytest.mark.parametrize("name", ["even pure", "even mixed", "odd pure",
                                      "not positive"])
    def test_plan_over_the_support(self, name, monkeypatch):
        # the series spreads only the pairs inside the support of Z^dagger
        # rho Z: half the phases for a state of one parity, all of them for
        # the state whose odd rows are not zero although its odd diagonal is
        dim = 65
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        rho, support = parity_states(dim)[name]
        obs = random_observable(dim, np.random.default_rng(41))
        built = recording_plan(monkeypatch)
        times = np.arange(2 * q._WINDOW + 9)
        got = q.correlation_series(rho, system, obs, len(times)).c_q
        assert built == [(support, support * (support - 1) // 2)]
        rho_e = system.to_eigenbasis(rho.matrix)
        obs_e = system.to_eigenbasis(obs.matrix)
        if name == "not positive":
            assert not np.diag(rho_e)[system.order > dim // 2].any()
        full = plan_series(rho_e * obs_e.T, system.quasi_energies, times)
        assert np.max(np.abs(got - full)) <= 1e-12
        ref = offdiag_series_oracle(rho_e, obs_e, system.quasi_energies, times)
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_support_of_one_level_has_no_pairs(self, monkeypatch):
        # at N = 3 the odd block holds one level: no pair, an empty plan
        # and a series that is identically 0
        system = q.build_floquet(q.QuantumParams(dim=3, lam=1.0))
        rho, support = parity_states(3, k=1)["odd pure"]
        built = recording_plan(monkeypatch)
        series = q.correlation_series(rho, system, q.cos_theta_observable(3), 3000)
        assert support == 1 and built == [(1, 0)]
        assert not series.c_q.any() and not series.cesaro.any()

    def test_haar_series_csv_is_the_full_plans(self, tmp_path, monkeypatch):
        # a Haar state's support is the whole spectrum, so its series is the
        # full plan's, and so is its CSV, byte for byte; the weights come
        # from c = Z^dagger psi and the window's structured rotation, and
        # the dense rotations give the same series to rounding
        dim, horizon, seed = 257, 20_000, 5
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "correlation-series", "output_dir": str(tmp_path / "out"),
            "seed": seed, "parameters": {
                "dim": dim, "lambda": 10.0, "horizon": horizon,
                "observable": {"type": "momentum_window", "k_lo": 10, "k_hi": 60},
                "state": {"type": "haar"}}}))
        built = recording_plan(monkeypatch)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert built == [(dim, dim * (dim - 1) // 2)]
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        rho = q.haar_random_pure(dim, np.random.default_rng(seed))
        obs = q.momentum_window_projector(dim, 10.0, 60.0)
        c = system._z_dag(rho.vector)
        m = np.outer(c, c.conj()) * system.observable_in_eigenbasis(obs).T
        times = np.arange(horizon)
        c_q = plan_series(m, system.quasi_energies, times)
        dense = system.to_eigenbasis(rho.matrix) * system.to_eigenbasis(obs.matrix).T
        assert np.max(np.abs(plan_series(dense, system.quasi_energies, times)
                             - c_q)) <= 1e-12
        art = harness._Artifacts()
        art.add_csv("series.csv", "t,c_q,cesaro",
                    (times, c_q, np.cumsum(c_q) / (times + 1)))
        assert ((tmp_path / "out" / "correlation_series.csv").read_bytes()
                == artifact_bytes(art, "series.csv"))

    def test_variance_identity_on_sparse_window(self):
        # Var_t C_Q = sum_{k!=k'} |rho_kk'|^2 |O_kk'|^2 for nondegenerate gaps
        rng = np.random.default_rng(9)
        params = q.QuantumParams(dim=65, lam=10.0)
        system = q.build_floquet(params)
        rho = q.haar_random_pure(65, rng)
        obs = random_observable(65, rng)
        rho_e = system.to_eigenbasis(rho.matrix)
        obs_e = system.to_eigenbasis(obs.matrix)
        predicted = float(np.sum(np.abs(rho_e) ** 2 * np.abs(obs_e) ** 2)
                          - np.sum(np.abs(np.diag(rho_e) * np.diag(obs_e)) ** 2))
        times = np.unique(np.linspace(1e4, 1e6, 6000).astype(np.int64))
        c = plan_series(rho_e * obs_e.T, system.quasi_energies, times)
        assert float(np.var(c)) == pytest.approx(predicted, rel=0.2)

    def test_preconditions(self):
        system = q.build_floquet(q.QuantumParams(dim=17, lam=10.0))
        rho = q.momentum_eigenstate(17, 0)
        obs = q.cos_theta_observable(17)
        for horizon in (-1, 0, 1, 2.5, 10.0, True, "10"):
            with pytest.raises(ConfigurationError, match="horizon"):
                q.correlation_series(rho, system, obs, horizon)
        for bad_rho, bad_obs in ((q.momentum_eigenstate(15, 0), obs),
                                 (rho, q.cos_theta_observable(19))):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                q.correlation_series(bad_rho, system, bad_obs, 10)
        assert len(q.correlation_series(rho, system, obs, np.int64(3)).c_q) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_sum_matches_oracle(self, seed):
        # At t near 1e6 both paths round t*phi to about 1e-9 rad, each in its
        # own way; the sums still agree to 1e-10 for unit-trace states and
        # unit-norm observables because the errors average over N^2 terms.
        rng = np.random.default_rng([77, seed])
        n = int(rng.integers(16, 300))
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        rho_e = random_density(n, rng).matrix
        obs_e = random_observable(n, rng).matrix
        m = rho_e * obs_e.T
        block, window = ORACLE_BLOCK, q._WINDOW
        cases = [np.arange(h) for h in (1, 2, block - 1, block + 1,
                                        3 * block + 37, window - 1, window,
                                        window + 1, 3 * window + 37)]
        cases += [np.arange(t0, t0 + h) for t0, h in
                  ((7, 2 * block + 5), (10_000, block), (999_983, block + 1),
                   (10 ** 6, 700), (7, 2 * window + 5), (10_000, window),
                   (999_983, window + 1), (10 ** 6 - window // 2, 2 * window - 1))]
        cases += [np.unique(np.linspace(1e4, 1e6, k).astype(np.int64))
                  for k in (1300, 6000)]
        cases += [np.r_[np.arange(0, 700), np.arange(5000, 5300), 10 ** 6],
                  np.arange(100, 5000, 3),
                  np.sort(rng.permutation(
                      np.r_[np.arange(2500), 4000, 4000, 10 ** 5]))]
        for times in cases:
            ref = offdiag_series_oracle(rho_e, obs_e, phi, times)
            assert np.max(np.abs(plan_series(m, phi, times) - ref)) <= 1e-10
        # a range of times as well as an array
        r = range(123_456, 123_456 + 2 * window + 3)
        assert np.max(np.abs(plan_series(m, phi, r) - offdiag_series_oracle(
            rho_e, obs_e, phi, np.arange(r.start, r.stop)))) <= 1e-10
        # more weight matrices on the same phases, one sweep each
        pairs = [(rho_e, obs_e)] + [(random_density(n, rng).matrix,
                                     random_observable(n, rng).matrix)
                                    for _ in range(2)]
        times = np.arange(2 * window + 9)
        for rho_p, obs_p in pairs:
            ref = offdiag_series_oracle(rho_p, obs_p, phi, times)
            got = plan_series(rho_p * obs_p.T, phi, times)
            assert np.max(np.abs(got - ref)) <= 1e-10

    def test_chunks_of_one_column(self, monkeypatch):
        # with _COLUMNS = 1 a chunk holds one column; the sums and the
        # volume fraction do not depend on the chunking
        rng = np.random.default_rng(5)
        n = 41
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        ms = [random_density(n, rng).matrix * random_observable(n, rng).matrix.T
              for _ in range(2)]
        times = np.arange(3 * q._WINDOW + 5)
        system = q.build_floquet(q.QuantumParams(dim=33, lam=10.0))
        o_set = [q.momentum_window_projector(33, 0.0, 8.0),
                 q.cos_theta_observable(33)]
        sums = [plan_series(m, phi, times) for m in ms]
        fraction = q.mixing_volume_fraction(system, o_set, 150, 30_000, 0.41, 2)
        monkeypatch.setattr(q, "_COLUMNS", 1)
        for m, before in zip(ms, sums):
            assert np.max(np.abs(plan_series(m, phi, times) - before)) <= 1e-12
        assert q.mixing_volume_fraction(system, o_set, 150, 30_000, 0.41,
                                        2) == fraction

    def test_amplitude_tiles_match_pair_columns(self, monkeypatch):
        # columns formed per tile from amplitudes against the whole-buffer
        # pair columns they replaced, on random phases, unit amplitude
        # columns and complex weights; the windows tile the range once
        rng = np.random.default_rng(23)
        window = q._WINDOW

        def check(phi, start, stop, p, n_weights, columns=q._COLUMNS):
            plan = q._SpreadPlan(phi)
            amps = (rng.normal(size=(len(phi), p))
                    + 1j * rng.normal(size=(len(phi), p)))
            amps /= np.linalg.norm(amps, axis=0)
            weights = (rng.normal(size=(len(plan.k), n_weights))
                       + 1j * rng.normal(size=(len(plan.k), n_weights)))
            got = np.full((stop - start, n_weights * p), np.nan)
            covered = []
            with monkeypatch.context() as patch:
                patch.setattr(q, "_COLUMNS", columns)
                for lo, sums in plan.sweep(start, stop, amps, weights):
                    got[lo:lo + len(sums)] = sums
                    covered += range(lo, lo + len(sums))
            assert covered == list(range(stop - start))
            ref = pair_column_sweep_oracle(plan, np.arange(start, stop),
                                           amps, weights)
            assert np.max(np.abs(got - ref)) <= 1e-12
            return plan

        # phases within 0.3 of each other leave most tiles empty, and their
        # sources sit at the grid's wrap-around
        plan = check(np.sort(rng.uniform(0.0, 0.3, 40)), 0, 2 * window + 7, 2, 2)
        assert len(plan.tiles) < q._GRID // q._TILE // 10
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, 45))
        # 6 columns a window: groups of 10 windows, the last of 3, from a
        # start that is not a multiple of the window
        assert 500_000 % window and q._COLUMNS == 64
        check(phi, 500_000, 500_000 + 12 * window + 37, 3, 2)
        # fewer times than one window, and whole windows only
        check(phi, 999_983, 999_983 + 700, 3, 2)
        check(phi, 3 * window, 7 * window, 1, 1)
        # a cap of 4 columns: groups of 2 windows at q p = 2, the last of
        # one; one window a group at q p = 6
        check(phi, 5000, 5000 + 5 * window - 3, 1, 2, columns=4)
        check(phi, 5000, 5000 + 2 * window + 300, 3, 2, columns=4)
        # unit amplitudes and one weight matrix's pairs
        ms = [random_density(45, rng).matrix * random_observable(45, rng).matrix.T
              for _ in range(2)]
        times = np.arange(4000, 4000 + 2 * window + 500)
        plan = q._SpreadPlan(phi)
        for m in ms:
            ref = pair_column_sweep_oracle(plan, times, np.ones((45, 1)),
                                           m[plan.k, plan.kp][:, None])
            assert np.max(np.abs(plan_series(m, phi, times) - ref[:, 0])) <= 1e-12

    def test_sweep_finds_its_windows_as_it_goes(self, monkeypatch):
        # the first group of a sweep over 10**8 times holds its own window,
        # not a list of all ~10**5 of them
        phi = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 5))
        plan = q._SpreadPlan(phi)
        monkeypatch.setattr(q, "_COLUMNS", 1)
        sweep = plan.sweep(0, 10 ** 8, np.ones((5, 1)),
                           np.ones((len(plan.k), 1), complex))
        tracemalloc.start()
        try:
            lo, sums = next(sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lo, sums.shape) == (0, (q._WINDOW, 1))
        assert peak < 1 << 20

    def test_sums_reuse_one_extended_grid(self):
        # the plan's extended grid is allocated once, at the widest sum,
        # and cleared before each: every sum after a wider one is bitwise
        # that of a fresh plan
        rng = np.random.default_rng(31)
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, 37))
        plan = q._SpreadPlan(phi)
        weights = (rng.normal(size=(len(plan.k), 2))
                   + 1j * rng.normal(size=(len(plan.k), 2)))
        amps = [rng.normal(size=(37, p)) + 1j * rng.normal(size=(37, p))
                for p in (3, 1, 3, 2)]
        got = [plan.sums(a, weights) for a in amps[:1]]
        grid = plan.ext.ctypes.data
        got += [plan.sums(a, weights) for a in amps[1:]]
        assert plan.ext.ctypes.data == grid
        assert plan.ext.size == (q._GRID + 2 * q._SPREAD - 1) * 2 * 2 * 3
        for a, sums in zip(amps, got):
            assert np.array_equal(sums, q._SpreadPlan(phi).sums(a, weights))

    def test_plan_memory_is_a_few_bytes_a_source(self):
        # one plan at N = 1025 holds each source's grid position and two
        # uint16 pair indices, 12 B, and builds with at most 36 B a source
        # alive; the dense kernel tiles it forms per sum would take 248
        phi = np.sort(np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, 1025))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = q._SpreadPlan(phi)
            held, peak = (b - base for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        sources = len(plan.k)
        tiles = sum(plan.block(*tile).nbytes for tile in plan.tiles)
        assert sources == 1025 * 1024 // 2 and tiles == 31 * 8 * sources
        assert plan.k.dtype == plan.kp.dtype == np.uint16
        assert held <= 13 * sources < tiles / 19
        assert peak <= 37 * sources

    def test_phase_sum_without_sources_is_zero(self):
        # N = 1 has no pair k < k'
        phi = np.array([0.3])
        for times in (np.arange(5), range(10 ** 6, 10 ** 6 + 3000)):
            out = plan_series(np.zeros((1, 1), complex), phi, times)
            assert out.shape == (len(times),) and not out.any()
        assert plan_series(np.zeros((1, 1), complex), phi,
                           np.arange(0)).shape == (0,)

    def test_phase_sum_on_degenerate_spectrum(self):
        # exact repeats put sources at omega = 0, and phases at both ends of
        # [0, 2 pi) put them at the grid's wrap-around
        rng = np.random.default_rng(31)
        x = rng.uniform(0.0, 2.0 * np.pi, 30)
        phi = np.sort(np.r_[x, x[:8], 0.0, 0.0, 2.0 * np.pi - 1e-15])
        n = len(phi)
        rho_e = random_density(n, rng).matrix
        obs_e = random_observable(n, rng).matrix
        m = rho_e * obs_e.T
        for times in (np.arange(3000), np.arange(999_000, 1_001_100)):
            ref = offdiag_series_oracle(rho_e, obs_e, phi, times)
            assert np.max(np.abs(plan_series(m, phi, times) - ref)) <= 1e-10

    def test_runs_of_a_split_tile_sum_like_the_tile(self, monkeypatch):
        # runs of 7 sources split every tile of 45 random phases that holds
        # more; the series still matches the oracle, and the unsplit plan
        # to rounding
        rng = np.random.default_rng(41)
        n, window = 45, q._WINDOW
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        rho_e = random_density(n, rng).matrix
        obs_e = random_observable(n, rng).matrix
        m = rho_e * obs_e.T
        cases = [np.arange(2 * window + 37),
                 np.arange(10 ** 6 - window // 2, 10 ** 6 + window + 5)]
        wholes = [plan_series(m, phi, times) for times in cases]
        tiles = q._SpreadPlan(phi).tiles
        monkeypatch.setattr(q, "_RUN", 7)
        runs = q._SpreadPlan(phi).tiles
        assert max(hi - lo for _, lo, hi in tiles) > 7
        assert max(hi - lo for _, lo, hi in runs) == 7 and len(runs) > len(tiles)
        for times, whole in zip(cases, wholes):
            split = plan_series(m, phi, times)
            ref = offdiag_series_oracle(rho_e, obs_e, phi, times)
            assert np.max(np.abs(split - ref)) <= 1e-10
            assert np.max(np.abs(split - whole)) <= 1e-12

    def test_runs_cover_the_sorted_sources_once(self):
        # at N = 1025 the largest tile holds thousands of sources: it is cut
        # into runs of _RUN, in order, all full but its last, and every
        # run's sources lie in its tile's bins
        phi = np.sort(np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, 1025))
        plan = q._SpreadPlan(phi)
        a, lo, hi = np.array(plan.tiles).T
        assert np.all(hi > lo) and np.max(hi - lo) == q._RUN
        assert lo[0] == 0 and np.array_equal(lo[1:], hi[:-1])
        assert hi[-1] == len(plan.k) == 1025 * 1024 // 2
        last = np.r_[a[1:] != a[:-1], True]
        assert np.all(np.diff(a) >= 0) and not np.any(a % q._TILE)
        assert np.all(hi[~last] - lo[~last] == q._RUN) and np.any(~last)
        bins = plan.u.astype(int) - np.repeat(a, hi - lo)
        assert np.all((bins >= 0) & (bins < q._TILE))

    def test_relax_plans_split_no_tile(self, monkeypatch):
        # the two plans of the relax benchmark (N = 257, lambda = 10): the
        # |0> support plan's largest tile holds 70 sources and the full
        # plan's 268, both under _RUN, so each of their tiles is one run and
        # their sums are those of the unsplit tiles, bit for bit
        dim = 257
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        window = q.momentum_window_projector(dim, 10.0, 60.0)
        largest = []

        class Plan(q._SpreadPlan):
            def __init__(self, phi):
                super().__init__(phi)
                a, lo, hi = np.array(self.tiles).T
                assert len(np.unique(a)) == len(a)
                largest.append((len(phi), int(np.max(hi - lo))))

        monkeypatch.setattr(q, "_SpreadPlan", Plan)
        q.correlation_series(q.momentum_eigenstate(dim, 0), system, window, 10)
        q.mixing_volume_fraction(system, [window, q.cos_theta_observable(dim)],
                                 100, 10, 0.16, seed=0)
        assert largest == [(129, 70), (257, 268)] and 268 < q._RUN


class TestLocalization:
    def test_exact_exponential_profile(self):
        ks = np.arange(-40, 41)
        ps = np.exp(-2.0 * np.abs(ks) / 5.0)
        ps /= ps.sum()
        fit = q.localization_fit(list(zip(ks.tolist(), ps.tolist())))
        assert fit.length == pytest.approx(5.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_profile_has_no_length(self):
        ks = np.arange(-20, 21)
        ps = np.full(41, 1.0 / 41)
        assert q.localization_length(list(zip(ks.tolist(), ps.tolist()))) == np.inf

    def test_bulk_exclusion(self):
        # corrupt only the outer 10%: the bulk fit must not notice
        ks = np.arange(-50, 51)
        ps = np.exp(-2.0 * np.abs(ks) / 7.0)
        ps[np.abs(ks) > 45] = 1e-30
        ps /= ps.sum()
        fit = q.localization_fit(list(zip(ks.tolist(), ps.tolist())))
        assert fit.length == pytest.approx(7.0, rel=1e-6)

    def test_momentum_distribution_roundtrip(self):
        rho = q.momentum_eigenstate(9, 2)
        dist = q.momentum_distribution(rho)
        assert dist[6] == (2, 1.0)
        assert sum(p for _, p in dist) == pytest.approx(1.0)


class TestVolumeFraction:
    def test_order_independent_and_bounded(self):
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        o_set = [q.momentum_window_projector(33, 0.0, 8.0),
                 q.cos_theta_observable(33)]
        f1 = q.mixing_volume_fraction(system, o_set, 100, 200, 0.5, seed=0)
        f2 = q.mixing_volume_fraction(system, o_set, 100, 200, 0.5, seed=0)
        assert f1 == f2
        assert 0.0 <= f1 <= 1.0

    def test_loose_tolerance_accepts_everything(self):
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        o_set = [q.cos_theta_observable(33)]
        assert q.mixing_volume_fraction(system, o_set, 100, 100, 1e6, seed=1) == 1.0

    def test_monotone_in_tolerance(self):
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        o_set = [q.cos_theta_observable(33)]
        fracs = [q.mixing_volume_fraction(system, o_set, 100, 200, tol, seed=2)
                 for tol in (0.05, 0.2, 0.8)]
        assert fracs == sorted(fracs)

    def test_preconditions(self):
        params = q.QuantumParams(dim=33, lam=1.0)
        system = q.build_floquet(params)
        with pytest.raises(ConfigurationError):
            q.mixing_volume_fraction(system, [], 100, 100, 0.1, seed=0)
        with pytest.raises(ConfigurationError):
            q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                     10, 100, 0.1, seed=0)
        for tol in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                         100, 100, tol, seed=0)
        # ceil(0.9 * horizon) == horizon below 10: an empty last decile
        for horizon in (-3, 0, 1, 4, 9):
            with pytest.raises(ConfigurationError):
                q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                         100, horizon, 0.1, seed=0)
        assert 0.0 <= q.mixing_volume_fraction(
            system, [q.cos_theta_observable(33)], 100, 10, 0.1, seed=0) <= 1.0
        # integers only, never a bool; observables of the system's dimension
        for n_states in (100.5, 150.0, True, "100"):
            with pytest.raises(ConfigurationError, match="n_states"):
                q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                         n_states, 100, 0.1, seed=0)
        for horizon in (20.5, 100.0, True, "100"):
            with pytest.raises(ConfigurationError, match="horizon"):
                q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                         100, horizon, 0.1, seed=0)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            q.mixing_volume_fraction(
                system, [q.cos_theta_observable(33), q.cos_theta_observable(31)],
                100, 100, 0.1, seed=0)
        # seed = -1 and 1.5 used to end in numpy's ValueError / TypeError
        for seed in (-1, 1.5, 2.0, True, "0", None):
            with pytest.raises(ConfigurationError, match="seed"):
                q.mixing_volume_fraction(system, [q.cos_theta_observable(33)],
                                         100, 100, 0.1, seed=seed)

    @pytest.mark.parametrize("seed,horizon,tol", [
        (0, 10_000, 0.4), (3, 10_000, 0.38), (5, 7_000, 0.36), (1, 400, 0.27),
        (2, 30_000, 0.41)])
    def test_matches_per_state_oracle(self, seed, horizon, tol):
        # 150 states span many state chunks; a tail of 1000 (or 700) times
        # spans two oracle blocks, and some states first fail in the second;
        # a tail of 3000 spans three NUFFT windows
        params = q.QuantumParams(dim=33, lam=10.0)
        system = q.build_floquet(params)
        o_set = [q.momentum_window_projector(33, 0.0, 8.0),
                 q.cos_theta_observable(33)]
        maxima = tail_maxima_oracle(system, o_set, 150, horizon, seed)
        worst = maxima.max(axis=(1, 2))
        assert np.min(np.abs(worst - tol)) > 1e-6  # no decision on a knife edge
        expected = float(np.mean(worst < tol))
        assert 0.0 < expected < 1.0
        if horizon >= 10 * (ORACLE_BLOCK + 1):
            first = maxima[:, :, 0].max(axis=1)
            assert np.any((first < tol) & (worst >= tol))
        assert q.mixing_volume_fraction(system, o_set, 150, horizon, tol,
                                        seed) == expected

    @pytest.mark.parametrize("dim", [257, 513])
    def test_working_memory_beyond_the_plan(self, dim, monkeypatch):
        # once the plan exists a call holds the pair weights, one chunk of
        # states and what scales with its columns (the extended grid, the
        # sums, one tile's columns): under 8 MiB, which a whole-buffer
        # chunk of columns took by itself
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        o_set = [q.momentum_window_projector(dim, 10.0, 60.0),
                 q.cos_theta_observable(dim)]
        held = []

        class Plan(q._SpreadPlan):
            def __init__(self, phi):
                super().__init__(phi)
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()

        monkeypatch.setattr(q, "_SpreadPlan", Plan)
        tracemalloc.start()
        try:
            q.mixing_volume_fraction(system, o_set, 100, 3000, 1e6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert peak - held[0] < 8 << 20

    def test_memory_grows_with_neither_horizon_nor_states(self):
        # tol so loose that every state runs the whole tail; both tails are
        # whole numbers of phase blocks, and a first call warms the caches
        system = q.build_floquet(q.QuantumParams(dim=33, lam=10.0))
        o_set = [q.cos_theta_observable(33)]

        def peak(n_states, horizon):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert q.mixing_volume_fraction(system, o_set, n_states,
                                                horizon, 1e6, seed=0) == 1.0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        peak(100, 10_240)
        small = peak(100, 10_240)
        assert peak(100, 102_400) <= small + 4096
        assert peak(1000, 10_240) <= small + 4096

    def test_runs_give_the_same_fraction(self, monkeypatch):
        # runs of 7 sources split the dim-33 plan's largest tiles; no
        # decision of the volume fraction moves
        system = q.build_floquet(q.QuantumParams(dim=33, lam=10.0))
        o_set = [q.momentum_window_projector(33, 0.0, 8.0),
                 q.cos_theta_observable(33)]
        cases = [(0, 10_000, 0.4), (3, 10_000, 0.38), (5, 7_000, 0.36),
                 (1, 400, 0.27), (2, 30_000, 0.41)]
        before = [q.mixing_volume_fraction(system, o_set, 150, h, tol, seed)
                  for seed, h, tol in cases]
        tiles = q._SpreadPlan(system.quasi_energies).tiles
        monkeypatch.setattr(q, "_RUN", 7)
        runs = q._SpreadPlan(system.quasi_energies).tiles
        assert max(hi - lo for _, lo, hi in tiles) > 7
        assert max(hi - lo for _, lo, hi in runs) == 7 and len(runs) > len(tiles)
        assert [q.mixing_volume_fraction(system, o_set, 150, h, tol, seed)
                for seed, h, tol in cases] == before

    def test_every_group_but_the_last_takes_every_column(self, monkeypatch):
        # at N = 513 the largest tile holds 1080 sources; in runs of _RUN
        # they take _COLUMNS columns a group as at any N, so 100 states
        # under two observables are chunks of 32, 32, 32 and 4 states, each
        # of one window
        dim = 513
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
        o_set = [q.momentum_window_projector(dim, 10.0, 60.0),
                 q.cos_theta_observable(dim)]
        columns = []

        class Plan(q._SpreadPlan):
            def sums(self, amps, weights):
                columns.append(amps.shape[1] * weights.shape[1])
                return super().sums(amps, weights)

        monkeypatch.setattr(q, "_SpreadPlan", Plan)
        q.mixing_volume_fraction(system, o_set, 100, 3000, 1e6, seed=0)
        assert columns == [q._COLUMNS] * 3 + [8] and q._COLUMNS == 64
