import json

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


def schur_floquet(params, gap_tol=q.DEFAULT_GAP_TOL):
    """The Floquet system by the complex Schur form of F (exact oracle)."""
    f = q.kick_operator(params) * q.free_propagator_diagonal(params)[None, :]
    t, z = scipy.linalg.schur(f, output="complex")
    phi = np.mod(-np.angle(np.diag(t)), 2.0 * np.pi)
    order = np.argsort(phi, kind="stable")
    phi, z = phi[order], z[:, order]
    n = params.dim
    flags = [(int(i), int(i + 1))
             for i in np.flatnonzero(np.diff(phi) < gap_tol)]
    if n > 1 and (phi[0] + 2.0 * np.pi - phi[-1]) < gap_tol:
        flags.append((n - 1, 0))
    return q.FloquetSystem(params=params, unitary=f, quasi_energies=phi,
                           eigenbasis=z, degeneracy_flags=flags,
                           gap_tol=gap_tol)


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
        monkeypatch.setattr(q, "kick_operator", dense_kick)
        dense = q.build_floquet(params)
        assert np.max(np.abs(system.quasi_energies
                             - dense.quasi_energies)) <= 1e-12
        assert system.degeneracy_flags == dense.degeneracy_flags

    @pytest.mark.parametrize("dim", [1, 3, 5, 65, 257, 1025])
    def test_spectrum_matches_schur_oracle(self, dim):
        # parity blocks of sizes (N+1)/2 and (N-1)/2: at dim 1 the odd one
        # is empty
        even, odd = q._parity_blocks(np.eye(dim, dtype=complex),
                                     np.ones(dim, dtype=complex))
        assert even.shape == ((dim + 1) // 2,) * 2
        assert odd.shape == ((dim - 1) // 2,) * 2
        # eigenvectors are compared only through quantities that do not
        # depend on the basis chosen inside a degenerate cluster
        for lam in (0.0, 0.5, 2.0, 10.0):
            for hbar in (1.0, 0.7):
                params = q.QuantumParams(dim=dim, lam=lam, hbar=hbar)
                system = q.build_floquet(params)
                assert_same_spectrum(system, schur_floquet(params))
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
        ref = q.evolve_vector(psi, schur_floquet(params), 10_000)
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
        m = rho_e * obs_e.T
        np.fill_diagonal(m, 0.0)
        times = np.unique(np.linspace(1e4, 1e6, 6000).astype(np.int64))
        c = q._offdiag_series(m, system.quasi_energies, times)
        assert float(np.var(c)) == pytest.approx(predicted, rel=0.2)


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
