"""Acceptance suite: one test per headline criterion, at stated tolerances.

Each test prints a single PASS line on success (visible with -s); under
``pytest -v`` the per-test PASSED/FAILED status gives the same ledger.

Criterion 05a compares late-time fluctuations of C_Q for a momentum-window
projector P in the near-integrable (lam = 0.2) and strongly kicked
(lam = 10) regimes against a Haar-average oracle. For nondegenerate gaps
the time variance of C_Q is sum_{k != k'} |rho_kk'|^2 |P_kk'|^2 (checked
directly by criterion 05b); Haar states have E|rho_kk'|^2 = 1/(N(N+1)),
and a finite window of T kicks keeps only the part of each pair that is
not frozen, 1 - F_T(phi_k - phi_k') with the Fejer factor F_T. At small
kick strength the Floquet operator is nearly diagonal in momentum, so the
off-diagonal weight of P in its eigenbasis sits on near-degenerate parity
doublets (k, -k) whose phases do not move over the window: the window
population is nearly conserved and fluctuates far less than under the
strongly kicked dynamics.
"""

import json

import numpy as np
import pytest
import scipy.special

from ehlab import classical as cl
from ehlab import geometry as g
from ehlab import harness
from ehlab import quantum as q
from ehlab import transition as tr
from test_quantum import (circulant_kick, dense_floquet, dense_parity_basis,
                          plan_series, random_observable)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_01_cubic_headline():
    curve = tr.TransitionCurve(lambda_c=0.9716, mu_c=1.0)
    value = tr.cubic_transition(0.2, curve)
    assert value == pytest.approx(0.05919, abs=1e-4)
    report("1", f"cubic law at 0.2 = {value:.6f} (target 0.05919 +- 1e-4)")


def test_criterion_02_distance_measure_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for dim in (4, 65, 257, 1025, 2049):
        ranks = rng.integers(1, dim + 1, size=20)
        for mu in ranks:
            proj = g.RegionProjector(dim=dim, indices=tuple(range(int(mu))))
            check = g.verify_theorem2(proj)
            worst = max(worst, abs(check.residual))
            # finite-N correction d^2 * mu = 1 - mu/N
            assert check.d_squared * check.mu == pytest.approx(
                1.0 - check.mu / dim, abs=1e-12)
    assert worst <= 1e-12
    # at fixed rank, d^2 * mu climbs toward 1 as the dimension grows
    trend = [g.verify_theorem2(g.RegionProjector(dim=n, indices=tuple(range(10)))
                               ).d_squared * 10 for n in (65, 257, 1025, 2049)]
    assert trend == sorted(trend)
    assert trend[-1] > 0.995
    report("2", f"identity residual <= {worst:.2e} over 100 projectors; "
                f"d^2*mu trend {trend[0]:.4f} -> {trend[-1]:.4f}")


def test_criterion_03_floquet_construction():
    # kick operator vs the Bessel oracle; on the finite grid the matrix
    # element at offset d carries the grid-aliased orders d +- N as well
    dim = 65
    ladder = q.momentum_ladder(dim)
    d = ladder[:, None] - ladder[None, :]
    worst = 0.0
    for a in (1.0, 3.0, 5.0):
        u = circulant_kick(q.QuantumParams(dim=dim, lam=a))
        expected = sum((-1j) ** (d + m * dim) * scipy.special.jv(d + m * dim, a)
                       for m in (-1, 0, 1))
        worst = max(worst, float(np.max(np.abs(u - expected))))
    assert worst < 1e-8
    unit_errs = []
    for n in (65, 257, 1025):
        f = dense_floquet(q.QuantumParams(dim=n, lam=10.0))
        unit_errs.append(float(np.max(np.abs(f @ f.conj().T - np.eye(n)))))
    assert max(unit_errs) < 1e-10
    report("3", f"Bessel oracle max err {worst:.2e}; "
                f"unitarity max err {max(unit_errs):.2e} up to N=1025")


def test_criterion_04_ergodicity_at_every_lambda():
    dim, horizon = 257, 10_001
    worst_tail, worst_c = 0.0, 0.0
    for lam in (0.5, 5.0, 10.0):
        system = q.build_floquet(q.QuantumParams(dim=dim, lam=lam))
        for i in range(20):
            rng = np.random.default_rng([1000, int(lam * 10), i])
            rho = q.haar_random_pure(dim, rng)
            obs = random_observable(dim, rng)
            series = q.correlation_series(rho, system, obs, horizon,
                                          allow_degenerate=True)
            c = series.decay_constant()
            assert np.isfinite(c)
            worst_c = max(worst_c, c)
            worst_tail = max(worst_tail, abs(series.cesaro[10_000]))
    assert worst_tail < 1e-2
    report("4", f"60 (state, observable) pairs: max |cesaro[1e4]| = "
                f"{worst_tail:.2e} < 1e-2, max fitted C = {worst_c:.2f}")


TAIL = np.arange(9000, 10_000)


def _tail_std(system, obs, i):
    rng = np.random.default_rng([42, i])
    v = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
    c = dense_parity_basis(system).conj().T @ (v / np.linalg.norm(v))
    m = np.outer(c, c.conj()) * system.to_eigenbasis(obs.matrix).T
    return float(np.std(plan_series(m, system.quasi_energies, TAIL)))


def _haar_tail_std(system, obs, window):
    """Haar-average std of C_Q over `window` consecutive kicks.

    sqrt(sum_{k != k'} |O_kk'|^2 (1 - F_T(phi_k - phi_k')) / (N(N+1))),
    where F_T(d) = sin^2(T d/2) / (T^2 sin^2(d/2)) is the Fejer factor
    of the window (F_T(0) = 1), written with sinc on d wrapped to
    [-pi, pi] so that degenerate pairs need no special case.
    """
    n = system.dim
    obs_e = system.to_eigenbasis(obs.matrix)
    phi = system.quasi_energies
    d = np.angle(np.exp(1j * (phi[:, None] - phi[None, :]))) / (2.0 * np.pi)
    fejer = (np.sinc(window * d) / np.sinc(d)) ** 2
    weight = np.abs(obs_e) ** 2 * (1.0 - fejer)
    np.fill_diagonal(weight, 0.0)
    return float(np.sqrt(weight.sum() / (n * (n + 1))))


def test_criterion_05a_mixing_contrast():
    # Tail fluctuations of the window population, measured on 10 Haar
    # states, must match the Haar-average oracle in each regime, and be
    # at least 3x larger under strong kicks than near integrability.
    dim = 513
    obs = q.momentum_window_projector(dim, 10, 60)
    s10 = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
    s02 = q.build_floquet(q.QuantumParams(dim=dim, lam=0.2))
    std, ratio = {}, {}
    for lam, system in ((10.0, s10), (0.2, s02)):
        tail = np.array([_tail_std(system, obs, i) for i in range(10)])
        std[lam] = float(np.mean(tail))
        rms = float(np.sqrt(np.mean(tail ** 2)))
        ratio[lam] = rms / _haar_tail_std(system, obs, len(TAIL))
        assert 1.0 / 1.5 <= ratio[lam] <= 1.5, (
            f"lam={lam}: RMS tail std {rms:.3e} is {ratio[lam]:.2f}x the "
            f"Haar-average oracle")
    assert 3.0 * std[0.2] <= std[10.0], (
        f"tail fluctuation std at lam=0.2 is {std[0.2]:.3e}, at lam=10 is "
        f"{std[10.0]:.3e}: less than the 3x contrast of a conserved window")
    report("5a", f"tail std lam=0.2 {std[0.2]:.2e} vs lam=10 {std[10.0]:.2e}; "
                 f"RMS/oracle {ratio[0.2]:.2f} and {ratio[10.0]:.2f}")


def test_criterion_05b_variance_formula():
    dim = 513
    obs = q.momentum_window_projector(dim, 10, 60)
    system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
    rho = q.haar_random_pure(dim, np.random.default_rng(123))
    rho_e = system.to_eigenbasis(rho.matrix)
    obs_e = system.to_eigenbasis(obs.matrix)
    predicted = float(np.sum(np.abs(rho_e) ** 2 * np.abs(obs_e) ** 2)
                      - np.sum(np.abs(np.diag(rho_e) * np.diag(obs_e)) ** 2))
    times = np.unique(np.linspace(1e4, 1e6, 6000).astype(np.int64))
    measured = float(np.var(plan_series(rho_e * obs_e.T,
                                        system.quasi_energies, times)))
    assert measured == pytest.approx(predicted, rel=0.2)
    report("5b", f"long-time variance {measured:.3e} vs nondegenerate-gap "
                 f"formula {predicted:.3e} (ratio {measured / predicted:.3f})")


def test_criterion_06_dynamical_localization():
    dim = 1025
    system = q.build_floquet(q.QuantumParams(dim=dim, lam=10.0))
    psi0 = np.zeros(dim, dtype=complex)
    psi0[(dim - 1) // 2] = 1.0  # |k=0>
    psi = q.evolve_vector(psi0, system, 10_000)
    probs = np.abs(psi) ** 2
    probs /= probs.sum()
    dist = list(zip(q.momentum_ladder(dim).tolist(), probs.tolist()))
    fit = q.localization_fit(dist)
    assert fit.r_squared > 0.9
    assert np.isfinite(fit.length) and fit.length < dim / 4
    report("6", f"l_s = {fit.length:.2f} < {dim // 4}, R^2 = {fit.r_squared:.4f}")


def test_criterion_07_classical_endpoints():
    # reduced 64^2-grid / 2000-step variant (must pass in under 2 minutes)
    est0 = cl.estimate_chaotic_measures([cl.MapParams(0.0)], 64, 2000)[0]
    assert est0.mu_A == 0.0
    est10 = cl.estimate_chaotic_measures([cl.MapParams(10.0)], 64, 2000)[0]
    assert est10.mu_A > 0.9
    report("7", f"mu(A) at lam=0 is exactly 0; at lam=10 is {est10.mu_A:.4f} > 0.9")


def test_criterion_08_fit_round_trip():
    lams = np.linspace(0.0, 2.0, 161)
    x = lams / 0.9716

    def samples(rng=None):
        mus = 0.9 * (1.5 * x * x - 0.5 * x ** 3)
        if rng is not None:
            mus = mus + rng.normal(0.0, 0.01, len(mus))
        return [(float(l), float(m), 0.01) for l, m in zip(lams, mus)]

    clean = tr.fit_transition(samples())
    assert clean.lambda_c == pytest.approx(0.9716, abs=1e-3)
    assert clean.mu_c == pytest.approx(0.9, abs=1e-3)
    hits = sum(abs(tr.fit_transition(samples(np.random.default_rng(s))).lambda_c
                   - 0.9716) < 0.05 for s in range(100))
    assert hits >= 95
    report("8", f"noiseless recovery ({clean.lambda_c:.5f}, {clean.mu_c:.5f}); "
                f"noisy coverage {hits}/100")


def test_criterion_09_and_10_sweep_fit_and_determinism(tmp_path):
    # measured sweep -> fitted overlay reporting rss (no numeric target),
    # and byte-identical CSVs when the same config is rerun
    def scan(out):
        return harness.run(harness.ExperimentConfig.from_dict({
            "kind": "classical-scan", "seed": 0, "output_dir": str(out),
            "parameters": {"lambdas": [round(v, 3) for v in
                                       np.linspace(0.0, 2.0, 21)],
                           "grid_side": 32, "n_steps": 1000}}))

    scan(tmp_path / "a")
    scan(tmp_path / "b")
    blob_a = (tmp_path / "a" / "region_estimates.csv").read_bytes()
    blob_b = (tmp_path / "b" / "region_estimates.csv").read_bytes()
    assert blob_a == blob_b

    harness.run(harness.ExperimentConfig.from_dict({
        "kind": "transition-fit", "output_dir": str(tmp_path / "a"),
        "parameters": {"input_csv": str(tmp_path / "a" / "region_estimates.csv")}}))
    fit = json.loads((tmp_path / "a" / "fit_result.json").read_text())
    assert np.isfinite(fit["rss"]) and fit["rss"] >= 0.0

    # quantum artifacts are deterministic too
    def evolve(out):
        harness.run(harness.ExperimentConfig.from_dict({
            "kind": "quantum-evolve", "output_dir": str(out),
            "parameters": {"dim": 65, "lambda": 10.0, "n_kicks": 1000}}))

    evolve(tmp_path / "qa")
    evolve(tmp_path / "qb")
    assert (tmp_path / "qa" / "momentum_distribution.csv").read_bytes() == \
        (tmp_path / "qb" / "momentum_distribution.csv").read_bytes()
    report("9+10", f"sweep fit reported rss = {fit['rss']:.4f}; reruns are "
                   f"byte-identical for classical and quantum CSVs")
