"""Quantum kicked rotator: Floquet operator, relaxation, and localization.

The one-period propagator is F = exp(-i (lam/hbar) cos theta) *
exp(-i tau hbar k^2 / 2) on an odd-dimensional symmetric momentum ladder.
The kick factor is diagonal on the angle grid theta_j = 2 pi j / N, so in
the momentum basis it is circulant in k - k': each entry is one
coefficient of the FFT of the grid values.

The spectrum comes from the model's two symmetries. Splitting the free
factor in half, F = D^-1 F_s D with F_s = D K D and D = exp(-i tau hbar
k^2 / 4), makes F_s complex symmetric (time reversal). Parity k -> -k
splits F_s into an even and an odd block in the basis P of |0> and
(|k> +- |-k>)/sqrt(2), k = 1..(N-1)/2. Each is a complex symmetric
unitary A + iB whose real and imaginary parts commute, so one real
symmetric eigensolve per half-size block diagonalises F.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from math import inf, isfinite
from typing import Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateSpectrumError,
                     HermiticityError, NumericError, is_count, is_real,
                     require_count, require_positive)

DEFAULT_GAP_TOL = 1e-9
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
# Consecutive times per window of the NUFFT phase sum, the points of its
# 2x oversampled periodic grid, and Gaussian kernel points per side. With
# Greengard & Lee's width tau = pi * spread / (window^2 * R (R - 1/2)) at
# R = 2, the kernel's truncation and the grid's aliasing both stay near
# exp(-pi * spread * 3/4) ~ 5e-13 of the sum of |weights|.
_WINDOW = 1024
_GRID = 2 * _WINDOW
_SPREAD = 12
_TAU = np.pi * _SPREAD / (3.0 * _WINDOW ** 2)
_KERNEL = (2.0 * np.pi / _GRID) ** 2 / (4.0 * _TAU)  # per grid step squared
# Grid bins per tile of the spreading: one dense kernel block and GEMM each.
_TILE = 8
# Columns summed together: at most _COLUMNS, fewer where the bytes that scale
# with them (see _SpreadPlan) would pass _CHUNK_BYTES. With the tiles this
# bounds a phase sum's memory independently of n_states and horizon.
_COLUMNS = 64
_CHUNK_BYTES = 4 << 20
# Fixed irrational weight in eigh(A + _MIX B): the commuting real and
# imaginary parts of a parity block share one real orthonormal eigenbasis.
_MIX = np.sqrt(2.0) - 1.0
# eigh's eigenvectors for values g apart are accurate to about 1e-16/g, so
# eigenvalues of A + _MIX B closer than this are refined together.
_CLUSTER_GAP = 1e-4
# The localization fit reads the bulk |k| <= _BULK_FRACTION * max |k|.
_BULK_FRACTION = 0.9


@dataclass(frozen=True)
class QuantumParams:
    """Hilbert-space dimension and kicked-rotator parameters; the
    dimension must be odd (see `momentum_ladder`)."""

    dim: int
    lam: float
    hbar: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        _odd_dim(self.dim)
        require_positive("hbar", self.hbar)
        require_positive("tau", self.tau)
        if not is_real(self.lam) or self.lam < 0:
            raise ConfigurationError(
                f"lam must be a finite number >= 0, got {self.lam!r}")
        x = self.tau * self.hbar / (4.0 * np.pi)
        if not isfinite(x):
            raise ConfigurationError("tau*hbar overflows")
        for q in range(1, 9):
            if abs(x - round(x * q) / q) < 1e-6:
                raise ConfigurationError(
                    f"quantum resonance: tau*hbar/(4*pi)={x} is within 1e-6 "
                    f"of {round(x * q)}/{q}")


def _odd_dim(dim) -> int:
    """`dim` if it is an odd count, the size of a symmetric ladder, whose
    dense N x N complex array numpy can index."""
    if not is_count(dim) or dim < 1 or dim % 2 == 0:
        raise ConfigurationError(f"dim must be an odd positive integer, got {dim!r}")
    return _dense_dim(dim)


def _dense_dim(dim) -> int:
    """`dim` if it is a count >= 1 whose dense N x N complex array numpy
    can index."""
    if 16 * int(require_count("dim", dim, 1)) ** 2 > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"dim = {dim} is too large for a dense {dim} x {dim} complex array")
    return dim


def momentum_ladder(dim: int) -> np.ndarray:
    """Integer momentum indices -(N-1)/2 ... (N-1)/2 of an odd dim N."""
    half = (_odd_dim(dim) - 1) // 2
    return np.arange(-half, half + 1)


def _hermitian(matrix, what: str) -> np.ndarray:
    """`matrix` as a complex array; it must be a non-empty square matrix,
    Hermitian to _HERM_TOL (NaN fails too)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ConfigurationError(
            f"{what} must be a non-empty square matrix, got shape {m.shape}")
    if not np.max(np.abs(m - m.conj().T)) <= _HERM_TOL:
        raise ConfigurationError(f"{what} is not Hermitian to 1e-10")
    return m


class DensityState:
    """An N x N density matrix: Hermitian, unit trace, positive."""

    def __init__(self, matrix, check_psd: bool = False):
        m = _hermitian(matrix, "density matrix")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= _TRACE_TOL:
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
        object.__setattr__(self, "matrix",
                           _hermitian(self.matrix, f"observable '{self.label}'"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(vector) -> DensityState:
    """|psi><psi| from a (not necessarily normalized) vector, whose norm
    must be finite (it overflows for entries near 1e154 and up) and above
    zero."""
    v = np.asarray(vector, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not (isfinite(norm) and norm > 0):
        raise ConfigurationError(
            f"vector must have a finite non-zero norm, got norm {norm}")
    v = v / norm
    return DensityState(np.outer(v, v.conj()))


def momentum_eigenstate(dim: int, k: int) -> DensityState:
    """|k><k| on the symmetric ladder."""
    sel = momentum_ladder(dim) == k if is_count(k) else False
    if not np.any(sel):
        raise ConfigurationError(f"k={k!r} not on the ladder of dim {dim}")
    return DensityState(np.diag(sel.astype(complex)))


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(np.eye(_dense_dim(dim)) / dim)


def haar_random_pure(dim: int, rng: np.random.Generator) -> DensityState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = _haar_vector(_dense_dim(dim), rng)
    return DensityState(np.outer(v, v.conj()))


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unit vector: a complex Gaussian one over its norm."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def momentum_window_projector(dim: int, k_lo: float, k_hi: float,
                              hbar: float = 1.0) -> ObservableMatrix:
    """Projector onto ladder sites with hbar*k in [k_lo, k_hi)."""
    if not (is_real(k_lo) and is_real(k_hi)):
        raise ConfigurationError(
            f"k_lo and k_hi must be finite numbers, got {k_lo!r}, {k_hi!r}")
    require_positive("hbar", hbar)
    ladder = momentum_ladder(dim)
    # an hbar*k that overflows to +-inf compares as the exact product would,
    # since k_lo and k_hi are finite
    with np.errstate(over="ignore"):
        hk = hbar * ladder
    sel = (hk >= k_lo) & (hk < k_hi)
    if not sel.any():
        raise ConfigurationError(f"window [{k_lo}, {k_hi}) selects no ladder site")
    return ObservableMatrix(np.diag(sel.astype(complex)),
                            label=f"P[{k_lo},{k_hi})")


def _angle_grid(dim: int) -> np.ndarray:
    """theta_j = 2 pi j / N."""
    return 2.0 * np.pi * np.arange(dim) / dim


def _angle_coefficients(values: np.ndarray) -> np.ndarray:
    """Circulant coefficients of the operator diagonal on the angle grid.

    With |theta_j> = sum_k exp(-i k theta_j)|k>/sqrt(N), the momentum-basis
    entry at (k, k') is sum_j values_j exp(-i (k - k') theta_j) / N, which
    is the FFT coefficient c[(k - k') mod N].
    """
    return np.fft.fft(values) / len(values)


def _circulant(coeffs: np.ndarray) -> np.ndarray:
    """The momentum-basis matrix with entry coeffs[(k - k') mod N]."""
    n = len(coeffs)
    ladder = momentum_ladder(n)
    return coeffs[np.subtract.outer(ladder, ladder) % n]


def cos_theta_observable(dim: int) -> ObservableMatrix:
    """cos(theta) on the angle grid, expressed in the momentum basis."""
    m = _circulant(_angle_coefficients(np.cos(_angle_grid(_odd_dim(dim)))))
    return ObservableMatrix(m, label="cos_theta")


def l_squared_observable(dim: int, hbar: float = 1.0) -> ObservableMatrix:
    """(hbar k)^2, diagonal in the momentum basis; it must be finite."""
    require_positive("hbar", hbar)
    ladder = momentum_ladder(dim)
    top = float(hbar) * float(ladder[-1])
    if not isfinite(top * top):
        raise ConfigurationError(
            f"hbar = {hbar!r} makes (hbar k)^2 overflow at k = {ladder[-1]}")
    return ObservableMatrix(np.diag((hbar * ladder).astype(complex) ** 2),
                            label="L_squared")


@dataclass
class FloquetSystem:
    """Quasi-energy spectrum and eigenbasis of the Floquet unitary.

    Quasi-energies phi_k in [0, 2*pi) satisfy F|k> = exp(-i phi_k)|k>
    and are stored in increasing order; `degeneracy_flags` lists index
    pairs closer than `DEFAULT_GAP_TOL` (including the 2*pi wraparound
    pair). The eigenbasis Z = D^-1 P blockdiag(V_e, V_o) is held as D, the
    real block bases and the column col[j] of block eigenvector j (even
    block first) in the sorted spectrum.
    """

    params: QuantumParams
    quasi_energies: np.ndarray
    half_free: np.ndarray
    v_even: np.ndarray
    v_odd: np.ndarray
    col: np.ndarray
    degeneracy_flags: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def unitary(self) -> np.ndarray:
        """The dense F = kick * free, assembled on each access."""
        return (kick_operator(self.params)
                * free_propagator_diagonal(self.params)[None, :])

    @property
    def eigenbasis(self) -> np.ndarray:
        """The dense Z (columns are eigenvectors), assembled on each access."""
        return self._z(np.eye(self.dim))

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Z^dagger M Z = (Z^dagger (Z^dagger M)^dagger)^dagger."""
        a = self._z_dag(matrix)
        b = self._z_dag(np.conj(a, out=a).T)
        return np.conj(b, out=b).T

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Z M Z^dagger = Z (Z M^dagger)^dagger."""
        a = self._z(np.conj(matrix).T)
        return self._z(np.conj(a, out=a).T)

    @cached_property
    def _scale(self) -> np.ndarray:
        """S D in block order: P = F^T S, F folding rows k and -k, S being
        1/sqrt(2) but 1/2 on the k = 0 row, which F counts twice."""
        h = self.dim // 2
        s = self.half_free[h:] / np.sqrt(2.0)
        s[0] /= np.sqrt(2.0)
        return np.concatenate([s, s[1:]])

    def _z_dag(self, x) -> np.ndarray:
        """Z^dagger x = B^T S D F x for a vector x or the columns of a matrix
        x, B = blockdiag(V_e, V_o) applied as real GEMMs, then sorted."""
        h = self.dim // 2
        x2 = np.reshape(x, (self.dim, -1))
        y = np.empty(x2.shape, dtype=complex)
        np.add(x2[h:], x2[h::-1], out=y[:h + 1])
        np.subtract(x2[h + 1:], x2[:h][::-1], out=y[h + 1:])
        y *= self._scale[:, None]
        out = np.empty_like(y)
        np.matmul(self.v_even.T, y[:h + 1].view(float), out=out[:h + 1].view(float))
        np.matmul(self.v_odd.T, y[h + 1:].view(float), out=out[h + 1:].view(float))
        y[self.col] = out
        return y.reshape(np.shape(x))

    def _z(self, c) -> np.ndarray:
        """Z c = F^T conj(S D) B c: the steps of _z_dag reversed."""
        h = self.dim // 2
        g = np.reshape(c, (self.dim, -1))[self.col].astype(complex, copy=False)
        out = np.empty_like(g)
        np.matmul(self.v_even, g[:h + 1].view(float), out=out[:h + 1].view(float))
        np.matmul(self.v_odd, g[h + 1:].view(float), out=out[h + 1:].view(float))
        out *= self._scale.conj()[:, None]
        even, odd = out[:h + 1], out[h + 1:]
        np.multiply(even[0], 2.0, out=g[h])
        np.add(even[1:], odd, out=g[h + 1:])
        np.subtract(even[:0:-1], odd[::-1], out=g[:h])
        return g.reshape(np.shape(c))


def _kick_coefficients(params: QuantumParams) -> np.ndarray:
    """Circulant coefficients c of the kick: K[k, k'] = c[(k - k') mod N]."""
    theta = _angle_grid(params.dim)
    return _angle_coefficients(
        np.exp(-1j * (params.lam / params.hbar) * np.cos(theta)))


def kick_operator(params: QuantumParams) -> np.ndarray:
    """exp(-i (lam/hbar) cos theta) in the momentum basis (circulant)."""
    return _circulant(_kick_coefficients(params))


def free_propagator_diagonal(params: QuantumParams) -> np.ndarray:
    """Diagonal of exp(-i tau (hbar k)^2 / (2 hbar)) = exp(-i tau hbar k^2/2)."""
    k = momentum_ladder(params.dim)
    return np.exp(-0.5j * params.tau * params.hbar * k.astype(float) ** 2)


def _parity_block(coeffs: np.ndarray, half_free: np.ndarray,
                  sign: int) -> np.ndarray:
    """The even (sign +1) or odd (sign -1) block of F_s = D K D in the
    parity basis P, from the kick's circulant coefficients.

    K and D are parity invariant, so each block entry is K[k, k'] +-
    K[k, -k'] = c[(k - k') mod N] +- c[k + k'] scaled by the half-ladder
    phases, with 1/sqrt(2) on the even block's k = 0 row and column; the
    odd block has no k = 0 row.
    """
    n = len(coeffs)
    h = (n - 1) // 2
    k = np.arange(0 if sign > 0 else 1, h + 1)
    block = coeffs[np.subtract.outer(k, k) % n]
    plus = coeffs[np.add.outer(k, k)]  # k + k' <= N - 1
    if sign > 0:
        block += plus
    else:
        block -= plus
    del plus
    s = half_free[h:].copy()
    s[0] /= np.sqrt(2.0)
    s = s[k]
    block *= s[:, None]
    block *= s[None, :]
    return block


def _block_eigensystem(block: np.ndarray):
    """Eigenvalues, real orthonormal eigenvectors and eigen-residual of one
    complex symmetric unitary block A + iB.

    A + _MIX B takes each value twice on the unit circle, so eigh can mix
    the eigenvectors of two distinct eigenvalues whose values nearly
    coincide. A Rayleigh-Ritz step with the orthogonal weighting
    B - _MIX A separates each such cluster again. The block is released
    as soon as its parts are copied out, so a caller that passes its only
    reference keeps no complex block alive during the eigensolve.
    """
    a = np.ascontiguousarray(block.real)
    b = np.ascontiguousarray(block.imag)
    del block
    w, v = np.linalg.eigh(a + _MIX * b)
    av, bv = a @ v, b @ v
    del a, b
    for c in _clusters(w):
        m = v[:, c].T @ (bv[:, c] - _MIX * av[:, c])
        _, r = np.linalg.eigh(m)
        v[:, c], av[:, c], bv[:, c] = v[:, c] @ r, av[:, c] @ r, bv[:, c] @ r
    re = np.einsum("ij,ij->j", v, av)
    im = np.einsum("ij,ij->j", v, bv)
    # max |(A + iB)v - lambda v| column by column, in place in av and bv
    av -= v * re
    bv -= v * im
    residual = np.max(np.hypot(av, bv, out=av), initial=0.0)
    return re + 1j * im, v, residual


def _clusters(w: np.ndarray) -> list[slice]:
    """Runs of at least two sorted eigenvalues closer than _CLUSTER_GAP."""
    cuts = np.flatnonzero(np.diff(w) >= _CLUSTER_GAP) + 1
    bounds = zip(np.r_[0, cuts], np.r_[cuts, len(w)])
    return [slice(lo, hi) for lo, hi in bounds if hi - lo > 1]


def _unitarity_residual(coeffs: np.ndarray) -> float:
    """max |F F^dagger - I| of F = K * free, from K's circulant coefficients.

    The free factor is a diagonal of unit phases, so F F^dagger = K K^dagger,
    which is circulant with the circular autocorrelation
    R_m = sum_j c[j + m] conj(c[j]) = ifft(|fft(c)|^2)_m as its coefficients.
    """
    r = np.fft.ifft(np.abs(np.fft.fft(coeffs)) ** 2)
    r[0] -= 1.0
    return float(np.max(np.abs(r)))


def build_floquet(params: QuantumParams) -> FloquetSystem:
    """Spectral decomposition of F = kick * free.

    Everything is read off the kick's N circulant coefficients: the
    unitarity residual and the parity blocks of the symmetrised F_s (see
    the module docstring), whose two real symmetric eigensolves of sizes
    (N+1)/2 and (N-1)/2 give the spectrum. The system keeps their real
    orthonormal bases, not the dense complex eigenbasis they define.
    """
    n = params.dim
    coeffs = _kick_coefficients(params)
    err = _unitarity_residual(coeffs)
    if not err <= 1e-10:  # NaN fails too
        raise NumericError(f"Floquet operator not unitary: max |FF^† - I| = {err}")
    k = momentum_ladder(n).astype(float)
    half_free = np.exp(-0.25j * params.tau * params.hbar * k ** 2)
    # one block at a time: the even block is solved and freed before the
    # odd one is formed
    eig_e, v_e, res_e = _block_eigensystem(_parity_block(coeffs, half_free, 1))
    eig_o, v_o, res_o = _block_eigensystem(_parity_block(coeffs, half_free, -1))
    residual = max(res_e, res_o)
    if not residual <= 1e-8:
        raise NumericError(f"eigensolve failed: block eigen-residual {residual}")
    phi = np.mod(-np.angle(np.concatenate([eig_e, eig_o])), 2.0 * np.pi)
    phi[phi == 2.0 * np.pi] = 0.0  # np.mod(-tiny, 2 pi) rounds up to 2 pi
    order = np.argsort(phi, kind="stable")
    phi = phi[order]
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)
    gaps = np.diff(phi)
    flags = [(int(i), int(i + 1))
             for i in np.flatnonzero(gaps < DEFAULT_GAP_TOL)]
    if n > 1 and (phi[0] + 2.0 * np.pi - phi[-1]) < DEFAULT_GAP_TOL:
        flags.append((n - 1, 0))
    return FloquetSystem(params=params, quasi_energies=phi,
                         half_free=half_free, v_even=v_e, v_odd=v_o, col=col,
                         degeneracy_flags=flags)


def evolve(rho: DensityState, system: FloquetSystem, n: int) -> DensityState:
    """F^n rho (F^n)^dagger, applied as phases in the eigenbasis."""
    if rho.dim != system.dim:
        raise ConfigurationError("dimension mismatch")
    if not is_count(n):
        raise ConfigurationError(f"kick count must be an integer, got {n!r}")
    if n == 0:
        return rho
    rho_e = system.to_eigenbasis(rho.matrix)
    v = np.exp(-1j * n * system.quasi_energies)
    out = system.from_eigenbasis(v[:, None] * rho_e * v.conj()[None, :])
    out = 0.5 * (out + out.conj().T)
    return DensityState(out)


def evolve_vector(psi: np.ndarray, system: FloquetSystem, n: int) -> np.ndarray:
    """F^n |psi> for pure-state work at large dimension."""
    psi = np.asarray(psi)
    if psi.shape != (system.dim,):
        raise ConfigurationError("dimension mismatch")
    if not is_count(n):
        raise ConfigurationError(f"kick count must be an integer, got {n!r}")
    c = system._z_dag(psi)
    return system._z(np.exp(-1j * n * system.quasi_energies) * c)


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
    if not abs(val.imag) < 1e-10:
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

    def decay_constant(self) -> float:
        """Smallest C with |cesaro[n]| <= C/n over the recorded series."""
        n = self.times[1:] + 1  # cesaro[i] averages i+1 terms
        return float(np.max(np.abs(self.cesaro[1:]) * n)) if len(n) else 0.0


class _SpreadPlan:
    """A type-1 NUFFT of the Hermitian half of an off-diagonal phase sum.

    With m_k'k = conj(m_kk') and omega_kk' = phi_k - phi_k' = -omega_k'k,
    sum_{k != k'} m_kk' exp(-i t omega_kk') = 2 Re sum_{k < k'} (the same),
    so the N(N-1)/2 pairs k < k' are the sources. For the _WINDOW times
    t = c + s, s in [-_WINDOW/2, _WINDOW/2), around a centre c, weights
    that carry exp(-i c omega) are spread onto a periodic grid of _GRID
    points with a Gaussian kernel, the grid is Fourier transformed, and
    each mode s is divided by the kernel's Fourier coefficient (Greengard &
    Lee, SIAM Rev. 46, 443, 2004).

    The sources are sorted by grid bin and cut into tiles of _TILE bins.
    Each tile keeps its dense kernel block over the grid points its
    sources reach, so spreading is one real GEMM per tile over the columns
    it forms from amplitudes and weights. `sweep` is the one loop over
    windows of times. The plan keeps the quasi-energies `phi` whose pairs
    it spreads, so a sweep cannot be handed phases of another spectrum.
    """

    def __init__(self, phi: np.ndarray):
        self.phi = phi
        k, kp = np.triu_indices(len(phi), 1)
        u = np.mod(phi[k] - phi[kp], 2.0 * np.pi) * (_GRID / (2.0 * np.pi))
        u[u >= _GRID] = 0.0  # np.mod(-tiny, 2 pi) rounds up to 2 pi
        bins = u.astype(np.intp)
        order = np.argsort(bins, kind="stable")
        self.k, self.kp = k[order], kp[order]
        u, bins = u[order], bins[order]
        del k, kp, order
        starts = range(0, _GRID, _TILE)
        edges = np.searchsorted(bins, [*starts, _GRID])
        # grid points b - _SPREAD + 1 .. b + _SPREAD around a source in bin b
        reach = np.arange(_TILE - 1 + 2 * _SPREAD) - (_SPREAD - 1)
        # all blocks in one buffer, the tile of sources lo:hi at rows * lo
        kernel = np.empty(len(reach) * len(u))
        self.tiles = []
        for a, lo, hi in zip(starts, edges[:-1], edges[1:]):
            if hi > lo:
                d = (a + reach)[:, None] - u[lo:hi]
                block = kernel[len(reach) * lo:len(reach) * hi].reshape(d.shape)
                np.exp(-_KERNEL * d * d, out=block)
                self.tiles.append((a, lo, hi, block))
        s = np.arange(-_WINDOW // 2, _WINDOW // 2)
        self.modes = s % _GRID
        # 2 / (grid size x the kernel's Fourier coefficient sqrt(tau/pi)
        # exp(-tau s^2)), the 2 being that of 2 Re
        self.deconv = 2.0 * np.exp(_TAU * s * s) / (_GRID * np.sqrt(_TAU / np.pi))
        # bytes per column: the extended grid and the sums (20 a grid point),
        # amplitudes (32 each) and the largest tile's columns (48 a source)
        column_bytes = 20 * _GRID + 32 * len(phi) + 48 * int(np.diff(edges).max())
        self.columns = max(1, min(_COLUMNS, _CHUNK_BYTES // column_bytes))

    def sweep(self, times, amps: np.ndarray, weights: np.ndarray):
        """(lo, hi, sums) for each window times[lo:hi] of the ascending
        `times`: those in [t0, t0 + _WINDOW) from t0 = times[lo]. A range is
        read without an array of all its times.

        sums[i, j * p + c] = 2 Re sum_{k<k'} a_k conj(a_k') w_kk'
        exp(-i t omega_kk') at t = times[lo + i], w being column j of the
        plan-order (sources, q) `weights` and a column c of the (N, p)
        `amps`. Consecutive windows are summed together, up to
        self.columns columns (one window at least), each window's
        amplitudes carrying its centre's phase. A group's windows are found
        as the sweep reaches them, so no list of all windows is held.
        """
        q, p = weights.shape[1], amps.shape[1]
        per = max(1, self.columns // (q * p))
        end = 0
        while end < len(times):
            group = []
            while end < len(times) and len(group) < per:
                t0 = int(times[end])
                hi = bisect_left(times, t0 + _WINDOW, end)
                group.append((t0, end, hi))
                end = hi
            a = np.hstack([amps * np.exp(-1j * (t0 + _WINDOW // 2) * self.phi)[:, None]
                           for t0, _, _ in group])
            vals = self.sums(a, weights).reshape(_WINDOW, q, len(group), p)
            for g, (t0, lo, hi) in enumerate(group):
                rows = np.asarray(times[lo:hi]) - t0
                yield lo, hi, vals[rows, :, g].reshape(len(rows), q * p)
            del vals, rows  # before the next group makes its own

    def sums(self, amps: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """2 Re sum_{k<k'} w_kk' a_k conj(a_k') exp(-i s omega_kk') for each
        s in [-_WINDOW/2, _WINDOW/2) (rows), in column j * m + c for column
        j of the plan-order (sources, q) `weights` and column c of the
        complex (N, m) `amps`. Each tile forms its own columns."""
        conj = amps.conj()
        ext = np.zeros((_GRID + 2 * _SPREAD - 1, 2 * weights.shape[1] * amps.shape[1]))
        for a, lo, hi, block in self.tiles:
            pair = amps[self.k[lo:hi]]
            pair *= conj[self.kp[lo:hi]]
            cols = weights[lo:hi, :, None] * pair[:, None]
            ext[a:a + len(block)] += block @ cols.reshape(hi - lo, -1).view(float)
        # fold the points past either end of the grid back onto it
        grid = ext[_SPREAD - 1:_SPREAD - 1 + _GRID]
        grid[:_SPREAD] += ext[_SPREAD - 1 + _GRID:]
        grid[_GRID - _SPREAD + 1:] += ext[:_SPREAD - 1]
        f = np.fft.fft(grid.view(complex), axis=0, out=grid.view(complex))
        vals = f.real[self.modes]
        vals *= self.deconv[:, None]
        return vals


def correlation_series(rho0: DensityState, system: FloquetSystem,
                       obs: ObservableMatrix, horizon: int,
                       allow_degenerate: bool = False) -> CorrelationSeries:
    """C_Q(rho(t), O) for t = 0..horizon-1 with running Cesaro averages.

    rho* is the Cesaro-limit state (diagonal part in the eigenbasis), so
    C_Q(t) = sum_{k != k'} m_kk' exp(-i t (phi_k - phi_k')) with m_kk' =
    rho_kk' O_k'k in the eigenbasis: one plan sweep with unit amplitudes
    and m's pairs as its one weight column.
    """
    if 8 * require_count("horizon", horizon, 2) > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"horizon = {horizon} is too large for an array of {horizon} floats")
    if rho0.dim != system.dim or obs.dim != system.dim:
        raise ConfigurationError("dimension mismatch")
    if system.degeneracy_flags and not allow_degenerate:
        raise DegenerateSpectrumError(system.degeneracy_flags)
    # Z^dagger rho Z and Z^dagger O Z before the plan, so that their
    # transients never meet it; m is dropped once its pairs are gathered
    m = system.to_eigenbasis(rho0.matrix) * system.to_eigenbasis(obs.matrix).T
    plan = _SpreadPlan(system.quasi_energies)
    w = m[plan.k, plan.kp][:, None]
    del m
    times = np.arange(horizon)
    c_q = np.empty(horizon)
    for lo, hi, sums in plan.sweep(times, np.ones((system.dim, 1)), w):
        c_q[lo:hi] = sums[:, 0]
    cesaro = np.cumsum(c_q) / (times + 1)
    return CorrelationSeries(times=times, c_q=c_q, cesaro=cesaro)


def mixing_volume_fraction(system: FloquetSystem,
                           o_set: Sequence[ObservableMatrix], n_states: int,
                           horizon: int, tol: float, seed: int) -> float:
    """Fraction of Haar-random pure states that look relaxed at late times.

    A state counts as having a weak limit when, for every observable in
    the set, |C_Q(rho(t), O)| < tol at every t in the last decile of the
    horizon. Per-state RNG streams derive from (seed, state index), so
    the result is independent of evaluation order.

    One NUFFT plan serves every state. A chunk of states, as many as fill
    the plan's columns with one per observable, is one sweep of the tail
    with the amplitudes c = Z^dagger psi of each state and the weights
    O_k'k of each observable. Memory holds the plan, the weights and what
    one chunk's columns need.
    """
    if not o_set:
        raise ConfigurationError("observable set must not be empty")
    require_count("n_states", n_states, 100)
    # ceil(0.9 h) < h, a non-empty last decile, exactly when h >= 10
    require_count("horizon", horizon, 10)
    require_positive("tol", tol)
    require_count("seed", seed, 0)
    if any(o.dim != system.dim for o in o_set):
        raise ConfigurationError("dimension mismatch")
    times = range(int(np.ceil(0.9 * horizon)), horizon)
    # Z^dagger O Z before the plan, so that their transients never meet it;
    # each is dropped once its O_k'k, one column per observable, is gathered
    obs_e = [system.to_eigenbasis(o.matrix) for o in o_set]
    plan = _SpreadPlan(system.quasi_energies)
    o_pairs = np.stack([obs_e.pop(0)[plan.kp, plan.k] for _ in o_set], axis=1)
    per = max(1, plan.columns // len(o_set))
    n_ok = 0
    for first in range(0, n_states, per):
        v = np.empty((system.dim, min(per, n_states - first)), dtype=complex)
        for j in range(v.shape[1]):
            rng = np.random.default_rng([seed, first + j])
            v[:, j] = _haar_vector(system.dim, rng)
        worst = np.zeros(v.shape[1])
        for _, _, sums in plan.sweep(times, system._z_dag(v), o_pairs):
            worst = np.maximum(worst, np.abs(sums).max(axis=0)
                               .reshape(len(o_set), -1).max(axis=0))
            del sums  # before the sweep sums its next group
        n_ok += int(np.count_nonzero(worst < tol))
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


def localization_fit(distribution: Sequence[tuple[int, float]]) -> LocalizationFit:
    """Fit ln p vs |k| over the bulk of the ladder.

    The outer (1 - _BULK_FRACTION) of the ladder is excluded; sites with
    vanishing probability are dropped from the fit.
    """
    ks = np.array([d[0] for d in distribution], dtype=float)
    ps = np.array([d[1] for d in distribution], dtype=float)
    k_max = np.max(np.abs(ks))
    mask = (np.abs(ks) <= _BULK_FRACTION * k_max) & (ps > 0.0)
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


def localization_length(distribution: Sequence[tuple[int, float]]) -> float:
    """Localization length l_s, or inf when no exponential decay is seen."""
    return localization_fit(distribution).length
