"""Quantum kicked rotator: Floquet operator, relaxation, and localization.

The one-period propagator is F = exp(-i (lam/hbar) cos theta) *
exp(-i tau hbar k^2 / 2) on an odd-dimensional symmetric momentum ladder.
The kick factor is diagonal on the angle grid theta_j = 2 pi j / N, so in
the momentum basis it is circulant in k - k': each entry is one
coefficient of the FFT of the grid values.

The spectrum comes from the model's two symmetries. Splitting the free
factor in half, F = D^-1 F_s D with F_s = D K D and D = exp(-i tau hbar
k^2 / 4), makes F_s complex symmetric (time reversal). Parity k -> -k
splits F_s into an even and an odd block. Each is a complex symmetric
unitary A + iB whose real and imaginary parts commute, so one real
symmetric eigensolve per half-size block diagonalises F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateSpectrumError,
                     HermiticityError, NumericError)

DEFAULT_GAP_TOL = 1e-9
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
# Times per block of the correlation phase sum; bounds its T x N work arrays.
_TIME_BLOCK = 512
# Fixed irrational weight in eigh(A + _MIX B): the commuting real and
# imaginary parts of a parity block share one real orthonormal eigenbasis.
_MIX = np.sqrt(2.0) - 1.0
# eigh's eigenvectors for values g apart are accurate to about 1e-16/g, so
# eigenvalues of A + _MIX B closer than this are refined together.
_CLUSTER_GAP = 1e-4


@dataclass(frozen=True)
class QuantumParams:
    """Hilbert-space dimension and kicked-rotator parameters.

    The dimension must be odd so the momentum ladder
    k in {-(N-1)/2, ..., (N-1)/2} is symmetric.
    """

    dim: int
    lam: float
    hbar: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if self.dim < 1 or self.dim % 2 == 0:
            raise ConfigurationError(f"dim must be odd and positive, got {self.dim}")
        if not all(isfinite(x) for x in (self.lam, self.hbar, self.tau)):
            raise ConfigurationError("lam, hbar and tau must be finite")
        if self.hbar <= 0 or self.tau <= 0:
            raise ConfigurationError("hbar and tau must be > 0")
        if self.lam < 0:
            raise ConfigurationError(f"lam must be >= 0, got {self.lam}")
        x = self.tau * self.hbar / (4.0 * np.pi)
        if not isfinite(x):
            raise ConfigurationError("tau*hbar overflows")
        for q in range(1, 9):
            if abs(x - round(x * q) / q) < 1e-6:
                raise ConfigurationError(
                    f"quantum resonance: tau*hbar/(4*pi)={x} is within 1e-6 "
                    f"of {round(x * q)}/{q}")


def momentum_ladder(dim: int) -> np.ndarray:
    """Integer momentum indices -(N-1)/2 ... (N-1)/2."""
    half = (dim - 1) // 2
    return np.arange(-half, half + 1)


class DensityState:
    """An N x N density matrix: Hermitian, unit trace, positive."""

    def __init__(self, matrix, check_psd: bool = False):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"density matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ConfigurationError("density matrix is not Hermitian to 1e-10")
        tr = np.trace(m).real
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ConfigurationError(f"trace must be 1, got {tr}")
        if check_psd:
            w = np.linalg.eigvalsh(m)
            if w[0] < -1e-8:
                raise ConfigurationError(f"negative eigenvalue {w[0]}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ObservableMatrix:
    """A labeled Hermitian observable."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ConfigurationError(f"observable '{self.label}' is not Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(vector) -> DensityState:
    """|psi><psi| from a (not necessarily normalized) vector."""
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityState(np.outer(v, v.conj()))


def momentum_eigenstate(dim: int, k: int) -> DensityState:
    """|k><k| on the symmetric ladder."""
    ladder = momentum_ladder(dim)
    idx = np.flatnonzero(ladder == k)
    if idx.size == 0:
        raise ConfigurationError(f"k={k} not on the ladder of dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[idx[0], idx[0]] = 1.0
    return DensityState(m)


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(np.eye(dim) / dim)


def haar_random_pure(dim: int, rng: np.random.Generator) -> DensityState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v)


def momentum_window_projector(dim: int, k_lo: float, k_hi: float,
                              hbar: float = 1.0) -> ObservableMatrix:
    """Projector onto ladder sites with hbar*k in [k_lo, k_hi)."""
    ladder = momentum_ladder(dim)
    sel = (hbar * ladder >= k_lo) & (hbar * ladder < k_hi)
    if not sel.any():
        raise ConfigurationError(f"window [{k_lo}, {k_hi}) selects no ladder site")
    return ObservableMatrix(np.diag(sel.astype(complex)),
                            label=f"P[{k_lo},{k_hi})")


def _angle_grid(dim: int) -> np.ndarray:
    """theta_j = 2 pi j / N."""
    return 2.0 * np.pi * np.arange(dim) / dim


def _angle_diagonal_in_momentum(values: np.ndarray) -> np.ndarray:
    """Momentum-basis matrix of the operator diagonal on the angle grid.

    With |theta_j> = sum_k exp(-i k theta_j)|k>/sqrt(N), the entry at
    (k, k') is sum_j values_j exp(-i (k - k') theta_j) / N, which is
    the FFT coefficient of index (k - k') mod N.
    """
    n = len(values)
    coeffs = np.fft.fft(values) / n
    ladder = momentum_ladder(n)
    return coeffs[np.subtract.outer(ladder, ladder) % n]


def cos_theta_observable(dim: int) -> ObservableMatrix:
    """cos(theta) on the angle grid, expressed in the momentum basis."""
    m = _angle_diagonal_in_momentum(np.cos(_angle_grid(dim)))
    return ObservableMatrix(m, label="cos_theta")


def l_squared_observable(dim: int, hbar: float = 1.0) -> ObservableMatrix:
    """(hbar k)^2, diagonal in the momentum basis."""
    ladder = momentum_ladder(dim)
    return ObservableMatrix(np.diag((hbar * ladder).astype(complex) ** 2),
                            label="L_squared")


@dataclass
class FloquetSystem:
    """Floquet unitary with its quasi-energy spectrum and eigenbasis.

    Quasi-energies phi_k in [0, 2*pi) satisfy F|k> = exp(-i phi_k)|k>
    and are stored in increasing order; `degeneracy_flags` lists index
    pairs closer than `gap_tol` (including the 2*pi wraparound pair).
    """

    params: QuantumParams
    unitary: np.ndarray
    quasi_energies: np.ndarray
    eigenbasis: np.ndarray  # columns are eigenvectors
    degeneracy_flags: list = field(default_factory=list)
    gap_tol: float = DEFAULT_GAP_TOL

    @property
    def dim(self) -> int:
        return self.params.dim

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        z = self.eigenbasis
        return z.conj().T @ matrix @ z

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        z = self.eigenbasis
        return z @ matrix @ z.conj().T


def kick_operator(params: QuantumParams) -> np.ndarray:
    """exp(-i (lam/hbar) cos theta) in the momentum basis (circulant)."""
    theta = _angle_grid(params.dim)
    return _angle_diagonal_in_momentum(
        np.exp(-1j * (params.lam / params.hbar) * np.cos(theta)))


def free_propagator_diagonal(params: QuantumParams) -> np.ndarray:
    """Diagonal of exp(-i tau (hbar k)^2 / (2 hbar)) = exp(-i tau hbar k^2/2)."""
    k = momentum_ladder(params.dim)
    return np.exp(-0.5j * params.tau * params.hbar * k.astype(float) ** 2)


def _parity_blocks(kick: np.ndarray, half_free: np.ndarray):
    """Even and odd blocks of F_s = D K D in the parity basis.

    The basis is |0>, (|k> + |-k>)/sqrt(2) (even) and (|k> - |-k>)/sqrt(2)
    (odd) for k = 1..(N-1)/2. K and D are parity invariant, so each block
    entry is K[k, k'] +- K[k, -k'] scaled by the half-ladder phases, with
    1/sqrt(2) on the k = 0 row and column of the even block.
    """
    h = (len(kick) - 1) // 2
    upper = kick[h:]  # rows k >= 0
    even = upper[:, h:] + upper[:, h::-1]
    odd = upper[1:, h + 1:] - upper[1:, :h][:, ::-1]
    s = half_free[h:].copy()
    s[0] /= np.sqrt(2.0)
    even *= s[:, None]
    even *= s[None, :]
    odd *= s[1:, None]
    odd *= s[None, 1:]
    return even, odd


def _block_eigensystem(block: np.ndarray):
    """Eigenvalues, real orthonormal eigenvectors and eigen-residual of one
    complex symmetric unitary block A + iB.

    A + _MIX B takes each value twice on the unit circle, so eigh can mix
    the eigenvectors of two distinct eigenvalues whose values nearly
    coincide. A Rayleigh-Ritz step with the orthogonal weighting
    B - _MIX A separates each such cluster again.
    """
    a = np.ascontiguousarray(block.real)
    b = np.ascontiguousarray(block.imag)
    w, v = np.linalg.eigh(a + _MIX * b)
    av, bv = a @ v, b @ v
    for c in _clusters(w):
        m = v[:, c].T @ (bv[:, c] - _MIX * av[:, c])
        _, r = np.linalg.eigh(m)
        v[:, c], av[:, c], bv[:, c] = v[:, c] @ r, av[:, c] @ r, bv[:, c] @ r
    re = np.einsum("ij,ij->j", v, av)
    im = np.einsum("ij,ij->j", v, bv)
    residual = np.max(np.hypot(av - v * re, bv - v * im), initial=0.0)
    return re + 1j * im, v, residual


def _clusters(w: np.ndarray) -> list[slice]:
    """Runs of at least two sorted eigenvalues closer than _CLUSTER_GAP."""
    cuts = np.flatnonzero(np.diff(w) >= _CLUSTER_GAP) + 1
    bounds = zip(np.r_[0, cuts], np.r_[cuts, len(w)])
    return [slice(lo, hi) for lo, hi in bounds if hi - lo > 1]


def _parity_eigenbasis(half_free: np.ndarray, v_even: np.ndarray,
                       v_odd: np.ndarray, col: np.ndarray) -> np.ndarray:
    """D^-1 (parity basis) blockdiag(V_e, V_o), block eigenvector j going
    to column col[j]."""
    n = len(half_free)
    h = (n - 1) // 2
    back = half_free[h:].conj()
    back[1:] /= np.sqrt(2.0)
    col_e, col_o = col[:h + 1], col[h + 1:]
    z = np.empty((n, n), dtype=complex)
    up = back[:, None] * v_even
    z[h:, col_e] = up
    z[:h, col_e] = up[:0:-1]
    up = back[1:, None] * v_odd
    z[h + 1:, col_o] = up
    z[:h, col_o] = -up[::-1]
    z[h, col_o] = 0.0
    return z


def build_floquet(params: QuantumParams,
                  gap_tol: float = DEFAULT_GAP_TOL) -> FloquetSystem:
    """Construct F = kick * free and its spectral decomposition.

    The spectrum comes from the parity blocks of the symmetrised F_s (see
    the module docstring): two real symmetric eigensolves of sizes
    (N+1)/2 and (N-1)/2. Their real orthonormal bases, mapped back through
    the parity basis and D^-1, give an eigenbasis of F orthonormal to
    machine precision.
    """
    n = params.dim
    kick = kick_operator(params)
    f = kick * free_propagator_diagonal(params)[None, :]
    k = momentum_ladder(n).astype(float)
    half_free = np.exp(-0.25j * params.tau * params.hbar * k ** 2)
    even, odd = _parity_blocks(kick, half_free)
    del kick  # one N x N array fewer during the dense check
    err = np.max(np.abs(f @ f.conj().T - np.eye(n)))
    if not err <= 1e-10:  # NaN fails too
        raise NumericError(f"Floquet operator not unitary: max |FF^† - I| = {err}")
    eig_e, v_e, res_e = _block_eigensystem(even)
    eig_o, v_o, res_o = _block_eigensystem(odd)
    residual = max(res_e, res_o)
    if not residual <= 1e-8:
        raise NumericError(f"eigensolve failed: block eigen-residual {residual}")
    phi = np.mod(-np.angle(np.concatenate([eig_e, eig_o])), 2.0 * np.pi)
    phi[phi == 2.0 * np.pi] = 0.0  # np.mod(-tiny, 2 pi) rounds up to 2 pi
    order = np.argsort(phi, kind="stable")
    phi = phi[order]
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)
    z = _parity_eigenbasis(half_free, v_e, v_o, col)
    gaps = np.diff(phi)
    flags = [(int(i), int(i + 1)) for i in np.flatnonzero(gaps < gap_tol)]
    if n > 1 and (phi[0] + 2.0 * np.pi - phi[-1]) < gap_tol:
        flags.append((n - 1, 0))
    return FloquetSystem(params=params, unitary=f, quasi_energies=phi,
                         eigenbasis=z, degeneracy_flags=flags, gap_tol=gap_tol)


def evolve(rho: DensityState, system: FloquetSystem, n: int) -> DensityState:
    """F^n rho (F^n)^dagger, applied as phases in the eigenbasis."""
    if rho.dim != system.dim:
        raise ConfigurationError("dimension mismatch")
    if n == 0:
        return rho
    rho_e = system.to_eigenbasis(rho.matrix)
    v = np.exp(-1j * n * system.quasi_energies)
    out = system.from_eigenbasis(v[:, None] * rho_e * v.conj()[None, :])
    out = 0.5 * (out + out.conj().T)
    return DensityState(out)


def evolve_vector(psi: np.ndarray, system: FloquetSystem, n: int) -> np.ndarray:
    """F^n |psi> for pure-state work at large dimension."""
    c = system.eigenbasis.conj().T @ psi
    return system.eigenbasis @ (np.exp(-1j * n * system.quasi_energies) * c)


def cesaro_limit_state(rho0: DensityState, system: FloquetSystem,
                       allow_degenerate: bool = False) -> DensityState:
    """Diagonal part of rho0 in the Floquet eigenbasis.

    With a degenerate quasi-energy spectrum the phase-averaging argument
    behind the diagonal form breaks down, so the operation refuses unless
    `allow_degenerate` is set.
    """
    if system.degeneracy_flags and not allow_degenerate:
        raise DegenerateSpectrumError(system.degeneracy_flags)
    if rho0.dim != system.dim:
        raise ConfigurationError("dimension mismatch")
    diag = np.diag(system.to_eigenbasis(rho0.matrix)).real
    out = system.from_eigenbasis(np.diag(diag.astype(complex)))
    out = 0.5 * (out + out.conj().T)
    return DensityState(out)


def expectation(rho: DensityState, obs: ObservableMatrix) -> float:
    """tr(rho O); the imaginary residue must stay below 1e-10."""
    if rho.dim != obs.dim:
        raise ConfigurationError("dimension mismatch")
    val = np.sum(rho.matrix * obs.matrix.T)
    if abs(val.imag) >= 1e-10:
        raise HermiticityError(f"imaginary residue {val.imag} in expectation")
    return float(val.real)


def quantum_correlation(rho_t: DensityState, obs: ObservableMatrix,
                        rho_star: DensityState) -> float:
    """C_Q = (rho(t)|O) - (rho*|O)."""
    return expectation(rho_t, obs) - expectation(rho_star, obs)


@dataclass
class CorrelationSeries:
    """Time series of C_Q and its running Cesaro averages."""

    times: np.ndarray
    c_q: np.ndarray
    cesaro: np.ndarray
    observable_label: str
    state_label: str

    def decay_constant(self) -> float:
        """Smallest C with |cesaro[n]| <= C/n over the recorded series."""
        n = self.times[1:] + 1  # cesaro[i] averages i+1 terms
        return float(np.max(np.abs(self.cesaro[1:]) * n)) if len(n) else 0.0


def _offdiag_series(m_offdiag: np.ndarray, phi: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """sum_{k != k'} M_kk' exp(-i t (phi_k - phi_k')) for each t.

    M must already have a zero diagonal.
    """
    out = np.empty(len(times))
    for start in range(0, len(times), _TIME_BLOCK):
        t = times[start:start + _TIME_BLOCK]
        e = np.exp(-1j * np.outer(t, phi))
        out[start:start + _TIME_BLOCK] = np.einsum(
            "tk,tk->t", e @ m_offdiag, e.conj()).real
    return out


def correlation_series(rho0: DensityState, system: FloquetSystem,
                       obs: ObservableMatrix, horizon: int,
                       allow_degenerate: bool = False) -> CorrelationSeries:
    """C_Q(rho(t), O) for t = 0..horizon-1 with running Cesaro averages.

    rho* is the Cesaro-limit state (diagonal part in the eigenbasis), so
    C_Q reduces to the off-diagonal phase sum, evaluated in blocks.
    """
    if horizon < 2:
        raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
    if system.degeneracy_flags and not allow_degenerate:
        raise DegenerateSpectrumError(system.degeneracy_flags)
    rho_e = system.to_eigenbasis(rho0.matrix)
    obs_e = system.to_eigenbasis(obs.matrix)
    m = rho_e * obs_e.T
    np.fill_diagonal(m, 0.0)
    times = np.arange(horizon)
    c_q = _offdiag_series(m, system.quasi_energies, times)
    cesaro = np.cumsum(c_q) / (times + 1)
    return CorrelationSeries(times=times, c_q=c_q, cesaro=cesaro,
                             observable_label=obs.label, state_label="rho0")


def mixing_volume_fraction(system: FloquetSystem,
                           o_set: Sequence[ObservableMatrix], n_states: int,
                           horizon: int, tol: float, seed: int) -> float:
    """Fraction of Haar-random pure states that look relaxed at late times.

    A state counts as having a weak limit when, for every observable in
    the set, |C_Q(rho(t), O)| < tol at every t in the last decile of the
    horizon. Per-state RNG streams derive from (seed, state index), so
    the result is independent of evaluation order.
    """
    if not o_set:
        raise ConfigurationError("observable set must not be empty")
    if n_states < 100:
        raise ConfigurationError(f"n_states must be >= 100, got {n_states}")
    if not tol > 0:
        raise ConfigurationError(f"tol must be > 0, got {tol}")
    times = np.arange(int(np.ceil(0.9 * horizon)), horizon)
    if times.size == 0:
        raise ConfigurationError(
            f"horizon {horizon} leaves the last decile empty; need >= 10")
    obs_e = [system.to_eigenbasis(o.matrix) for o in o_set]
    phi = system.quasi_energies
    z = system.eigenbasis
    n_ok = 0
    for i in range(n_states):
        rng = np.random.default_rng([seed, i])
        v = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
        c = z.conj().T @ (v / np.linalg.norm(v))
        rho_e = np.outer(c, c.conj())
        ok = True
        for oe in obs_e:
            m = rho_e * oe.T
            np.fill_diagonal(m, 0.0)
            if np.max(np.abs(_offdiag_series(m, phi, times))) >= tol:
                ok = False
                break
        n_ok += ok
    return n_ok / n_states


def momentum_distribution(rho: DensityState) -> list[tuple[int, float]]:
    """Diagonal of rho in the momentum basis as (k, probability) pairs."""
    probs = np.diag(rho.matrix).real
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise NumericError(f"probabilities sum to {total}, not 1")
    return list(zip(momentum_ladder(rho.dim).tolist(), probs.tolist()))


@dataclass(frozen=True)
class LocalizationFit:
    """Exponential-localization fit ln p(k) ~ intercept + slope*|k|."""

    length: float  # l_s = -2/slope, inf when the slope is not negative
    slope: float
    intercept: float
    r_squared: float


def localization_fit(distribution: Sequence[tuple[int, float]],
                     bulk_fraction: float = 0.9) -> LocalizationFit:
    """Fit ln p vs |k| over the bulk of the ladder.

    The outer (1 - bulk_fraction) of the ladder is excluded; sites with
    vanishing probability are dropped from the fit.
    """
    ks = np.array([d[0] for d in distribution], dtype=float)
    ps = np.array([d[1] for d in distribution], dtype=float)
    k_max = np.max(np.abs(ks))
    mask = (np.abs(ks) <= bulk_fraction * k_max) & (ps > 0.0)
    if mask.sum() < 3:
        raise ConfigurationError("fewer than 3 usable sites in the bulk")
    x = np.abs(ks[mask])
    y = np.log(ps[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    # slopes indistinguishable from zero (flat profiles) mean no decay
    length = inf if slope >= -1e-12 else -2.0 / slope
    return LocalizationFit(length=float(length), slope=float(slope),
                           intercept=float(intercept), r_squared=r2)


def localization_length(distribution: Sequence[tuple[int, float]],
                        bulk_fraction: float = 0.9) -> float:
    """Localization length l_s, or inf when no exponential decay is seen."""
    return localization_fit(distribution, bulk_fraction).length
