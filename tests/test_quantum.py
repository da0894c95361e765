import ast
import json
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from ehlab import cli
from ehlab import quantum as q
from ehlab.errors import (ConfigurationError, DegenerateSpectrumError,
                          HermiticityError, NumericError)


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


def dense_floquet(params):
    """The dense F = kick * free."""
    return q.kick_operator(params) * q.free_propagator_diagonal(params)[None, :]


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
    """Z = D^-1 P blockdiag(V_e, V_o) from the definitions, block
    eigenvector j in column col[j]; P's columns are |0>, then
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
    z = np.empty((n, n), dtype=complex)
    z[:, system.col] = system.half_free.conj()[:, None] * (p @ b)
    return z


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
    z_dag = system.eigenbasis.conj().T
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
    `times`, for one weight matrix with m_k'k = conj(m_kk'): one plan sweep
    with unit amplitudes and m's pairs, in plan order, as its one column."""
    plan = q._SpreadPlan(phi)
    out = np.empty(len(times))
    for lo, hi, sums in plan.sweep(times, np.ones((len(phi), 1)),
                                   m[plan.k, plan.kp][:, None]):
        out[lo:hi] = sums[:, 0]
    return out


def pair_column_sweep_oracle(plan, times, amps, weights):
    """What `plan.sweep` yields, by the spreading that per-tile amplitude
    columns replaced: per window, all (sources, q, p) columns w_kk' a_k
    conj(a_k') formed by two takes and a multiply into one buffer, then
    one GEMM per tile over that buffer. Returns (len(times), q * p), column
    j * p + c, for ascending integer `times`."""
    window, grid, spread = q._WINDOW, q._GRID, q._SPREAD
    times = np.asarray(times)
    n, p = weights.shape[0], amps.shape[1]
    modes = np.arange(-window // 2, window // 2) % grid
    out = np.empty((len(times), weights.shape[1] * p))
    lo = 0
    while lo < len(times):
        t0 = times[lo]
        hi = int(np.searchsorted(times, t0 + window))
        a = amps * np.exp(-1j * (t0 + window // 2) * plan.phi)[:, None]
        pair = np.take(a, plan.k, axis=0) * np.take(a.conj(), plan.kp, axis=0)
        cols = weights[:, :, None] * pair[:, None]
        flat = cols.reshape(n, -1).view(float)
        ext = np.zeros((grid + 2 * spread - 1, flat.shape[1]))
        for start, first, last, block in plan.tiles:
            ext[start:start + len(block)] += block @ flat[first:last]
        g = ext[spread - 1:spread - 1 + grid]
        g[:spread] += ext[spread - 1 + grid:]
        g[grid - spread + 1:] += ext[:spread - 1]
        sums = np.fft.fft(g.view(complex), axis=0)[modes].real * plan.deconv[:, None]
        out[lo:hi] = sums[times[lo:hi] - t0]
        lo = hi
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
            u = q.kick_operator(params)
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
                err = np.max(np.abs(q.kick_operator(params)
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
        even, odd = (q._parity_block(np.eye(1, dim, dtype=complex)[0],
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
                z, phi = system.eigenbasis, system.quasi_energies
                assert np.max(np.abs(system.unitary @ z
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
        eigh = np.linalg.eigh

        def rotated(m):
            w, v = eigh(m)
            if len(w) > 1:
                v[:, :2] = v[:, :2] @ (np.array([[1.0, -1.0], [1.0, 1.0]])
                                       / np.sqrt(2.0))
            return w, v
        monkeypatch.setattr(np.linalg, "eigh", rotated)
        with pytest.raises(NumericError, match="eigen-residual"):
            q.build_floquet(q.QuantumParams(dim=33, lam=5.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "quantum-evolve", "output_dir": str(tmp_path / "out"),
            "parameters": {"dim": 33, "lambda": 5.0, "n_kicks": 10}}))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert not (tmp_path / "out").exists()

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
                 * q.free_propagator_diagonal(params)[None, :])
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

    def test_build_holds_one_dense_array(self):
        # a built system holds its two real half-size block bases, a
        # quarter of one N x N complex array; a stored or transient dense
        # eigenbasis, F or kick breaks the bounds. The eigenbasis property
        # assembles the dense basis on access.
        n = 1025
        unit = 16 * n * n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system = q.build_floquet(q.QuantumParams(dim=n, lam=10.0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.eigenbasis.nbytes == unit
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
        assert np.max(np.abs(system.eigenbasis - z)) <= 1e-12
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

    def test_only_the_property_reads_the_dense_eigenbasis(self):
        # reading .eigenbasis assembles a dense complex N x N basis: no run
        # path in ehlab may do so
        reads, inside = [], []
        for path in sorted(Path(q.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            reads += [(path.name, a.lineno) for a in ast.walk(tree)
                      if isinstance(a, ast.Attribute) and a.attr == "eigenbasis"]
            inside += [(path.name, a.lineno)
                       for c in tree.body if isinstance(c, ast.ClassDef)
                       and c.name == "FloquetSystem"
                       for f in c.body if isinstance(f, ast.FunctionDef)
                       and f.name == "eigenbasis"
                       for a in ast.walk(f) if isinstance(a, ast.Attribute)
                       and a.attr == "eigenbasis"]
        assert isinstance(q.FloquetSystem.eigenbasis, property)
        assert sorted(reads) == sorted(inside)

    def test_one_loop_over_time_windows(self):
        # _SpreadPlan.sweep is the one loop over NUFFT windows: only it
        # finds window ends and sums a spread, and both relaxation layers
        # go through it
        def reads_pair_index(node):
            return any(isinstance(a, ast.Attribute) and a.attr in ("k", "kp")
                       for a in ast.walk(node))

        owners = {}
        for path in sorted(Path(q.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
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
        assert owners["bisect_left"] == {("quantum.py", "_SpreadPlan.sweep")}
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
        assert np.max(np.abs(system.unitary @ system.unitary.conj().T
                             - np.eye(n))) < 1e-10
        # eigenbasis orthonormal, quasi-energies sorted in [0, 2*pi)
        z = system.eigenbasis
        assert np.max(np.abs(z.conj().T @ z - np.eye(n))) < 1e-10
        phi = system.quasi_energies
        assert np.all(np.diff(phi) >= 0)
        assert phi[0] >= 0.0 and phi[-1] < 2.0 * np.pi
        # the decomposition reproduces F
        rebuilt = z @ np.diag(np.exp(-1j * phi)) @ z.conj().T
        assert np.max(np.abs(rebuilt - system.unitary)) < 1e-8

    def test_degeneracy_flags(self):
        # parity doublets at small kick strength, none at strong kick
        weak = q.build_floquet(q.QuantumParams(dim=65, lam=0.5))
        strong = q.build_floquet(q.QuantumParams(dim=65, lam=10.0))
        assert len(weak.degeneracy_flags) == 23
        assert strong.degeneracy_flags == []

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
        f = system.unitary
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
        direct = np.linalg.matrix_power(system.unitary, 5) @ psi
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
        # a range is read window by window, without an array of all times
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
        # where one column's grid, sums and tile columns pass _CHUNK_BYTES a
        # chunk holds one column; the sums and the volume fraction do not
        # depend on the chunking
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
        monkeypatch.setattr(q, "_CHUNK_BYTES", 1)
        assert q._SpreadPlan(phi).columns == 1
        for m, before in zip(ms, sums):
            assert np.max(np.abs(plan_series(m, phi, times) - before)) <= 1e-12
        assert q.mixing_volume_fraction(system, o_set, 150, 30_000, 0.41,
                                        2) == fraction

    def test_amplitude_tiles_match_pair_columns(self):
        # columns formed per tile from amplitudes against the whole-buffer
        # pair columns they replaced, on random phases, unit amplitude
        # columns and complex weights
        rng = np.random.default_rng(23)
        window = q._WINDOW

        def check(phi, times, p, n_weights, columns=None):
            plan = q._SpreadPlan(phi)
            if columns is not None:
                plan.columns = columns
            amps = (rng.normal(size=(len(phi), p))
                    + 1j * rng.normal(size=(len(phi), p)))
            amps /= np.linalg.norm(amps, axis=0)
            weights = (rng.normal(size=(len(plan.k), n_weights))
                       + 1j * rng.normal(size=(len(plan.k), n_weights)))
            got = np.full((len(times), n_weights * p), np.nan)
            for lo, hi, sums in plan.sweep(times, amps, weights):
                got[lo:hi] = sums
            ref = pair_column_sweep_oracle(plan, times, amps, weights)
            assert np.max(np.abs(got - ref)) <= 1e-12
            return plan

        # phases within 0.3 of each other leave most tiles empty, and their
        # sources sit at the grid's wrap-around
        plan = check(np.sort(rng.uniform(0.0, 0.3, 40)),
                     np.arange(2 * window + 7), 2, 2)
        assert len(plan.tiles) < q._GRID // q._TILE // 10
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, 45))
        # 6 columns a window: groups of 10 windows, the last of 3, read
        # from a range
        plan = check(phi, range(500_000, 500_000 + 12 * window + 37), 3, 2)
        assert plan.columns == q._COLUMNS == 64
        # q p = 6 above a cap of 4: one window per group
        check(phi, np.r_[np.arange(0, 700), np.arange(5000, 5300), 10 ** 6], 3, 2,
              columns=4)
        # times with repeats, unit amplitudes and one weight matrix's pairs
        ms = [random_density(45, rng).matrix * random_observable(45, rng).matrix.T
              for _ in range(2)]
        times = np.sort(rng.permutation(np.r_[np.arange(2500), 4000, 4000, 10 ** 5]))
        plan = q._SpreadPlan(phi)
        for m in ms:
            ref = pair_column_sweep_oracle(plan, times, np.ones((45, 1)),
                                           m[plan.k, plan.kp][:, None])
            assert np.max(np.abs(plan_series(m, phi, times) - ref[:, 0])) <= 1e-12

    def test_sweep_finds_its_windows_as_it_goes(self):
        # the first group of a sweep over 10**8 times holds its own window,
        # not a list of all ~10**5 of them
        phi = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 5))
        plan = q._SpreadPlan(phi)
        plan.columns = 1
        sweep = plan.sweep(range(0, 10 ** 8), np.ones((5, 1)),
                           np.ones((len(plan.k), 1), complex))
        tracemalloc.start()
        try:
            lo, hi, sums = next(sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lo, hi, sums.shape) == (0, q._WINDOW, (q._WINDOW, 1))
        assert peak < 1 << 20

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
