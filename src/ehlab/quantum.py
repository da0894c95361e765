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

Each block is solved in place by LAPACK's dsyevd, called in numpy's own
OpenBLAS: the block's buffer becomes its eigenvectors V, and the solver's
workspace then holds B and B V, then A and A V. A block so holds three
real matrices of its size from start to end, where np.linalg.eigh, the
fallback without that symbol, holds five. The two blocks are
independent: a build given two threads at a dimension where that pays
solves them side by side, each on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import inf, isfinite
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, DegenerateSpectrumError,
                     HermiticityError, NumericError, is_count, is_real,
                     require_count, require_instance, require_positive,
                     require_table)

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
# grid points b - _SPREAD + 1 .. b + _SPREAD around a source in bin b, for
# the bins 0 .. _TILE - 1 of a tile
_REACH = np.arange(_TILE - 1 + 2 * _SPREAD) - (_SPREAD - 1)
# Columns summed together, and sources per kernel block and GEMM: a tile
# is cut into runs of at most _RUN, so a run's 64 complex columns take
# 512 KiB however large the tiles grow with N. With the plan this bounds a
# phase sum's memory independently of n_states and horizon. No tile at
# N = 257 reaches 512 sources (the largest holds 268): a run is a tile there.
_COLUMNS = 64
_RUN = 512
# Fixed irrational weight in eigh(A + _MIX B): the commuting real and
# imaginary parts of a parity block share one real orthonormal eigenbasis.
_MIX = np.sqrt(2.0) - 1.0
# Rows of a parity block formed, or multiplied by its eigenvectors, at a
# time. A product of 128 rows packs no more of OpenBLAS's buffer than the
# eigensolve does (2.6 MB at N = 2049, where a whole-block product packs
# 3.6 MB, which a thread keeps for the life of the process).
_PANEL = 128
# eigh's eigenvectors for values g apart are accurate to about 1e-16/g, so
# eigenvalues of A + _MIX B closer than this are refined together.
_CLUSTER_GAP = 1e-4
# The localization fit reads the bulk |k| <= _BULK_FRACTION * max |k|.
_BULK_FRACTION = 0.9
# The smallest dim whose Floquet build, given two threads, solves its two
# parity blocks side by side: the second thread is the build's own, and
# OpenBLAS's stays idle in the build at any dim. A run below it holds
# OpenBLAS to one thread throughout, since OpenBLAS's worker spins on its
# core for about 0.135 s after each call it shares, and starts no thread.
# The build's worker alone pays from about N = 193 (minima of 15 builds on
# 2 cores, one against two threads: 3.1 against 3.9 ms at N = 129, 5.4
# against 4.9 at 193, 8.9 against 6.8 at 257, 27.4 against 18.3 at 561),
# but a lower dim would also take its runs off the one-thread hold.
_BLAS_THREADED_DIM = 561
# (set, get) thread-count symbols of OpenBLAS: in numpy >= 2 wheels, in
# numpy 1.x wheels, and unsuffixed
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))
# LAPACK's dsyevd in the same three builds, with its integer type
_DSYEVD = (("scipy_dsyevd_64_", ctypes.c_int64), ("dsyevd_64_", ctypes.c_int64),
           ("dsyevd_", ctypes.c_int32))


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


def _complex_array(value, what: str) -> np.ndarray:
    """`value` as a complex array; ragged rows or entries that are not
    numbers are a ConfigurationError naming `what`."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"{what} must be an array of numbers: {exc}") from None


def _hermitian(matrix, what: str) -> np.ndarray:
    """`matrix` as a complex array; it must be a non-empty square matrix,
    Hermitian to _HERM_TOL (NaN fails too)."""
    m = _complex_array(matrix, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ConfigurationError(
            f"{what} must be a non-empty square matrix, got shape {m.shape}")
    # entries of opposite sign near the largest double overflow to inf,
    # which fails the test like NaN does
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.max(np.abs(m - m.conj().T)) <= _HERM_TOL
    if not hermitian:
        raise ConfigurationError(f"{what} is not Hermitian to 1e-10")
    return m


class _Operator:
    """What states and observables share: a dense momentum-basis `matrix`,
    given to the constructor or, for one held in a structured form, built
    by `_dense` the first time it is read, and the dimension N."""

    _dim = None  # N of a structured form; a dense one reads its matrix

    @cached_property
    def matrix(self) -> np.ndarray:
        return _dense(self)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] if self._dim is None else self._dim


class DensityState(_Operator):
    """An N x N density matrix: Hermitian, unit trace, positive.

    `pure_state`, `momentum_eigenstate` and `haar_random_pure` hold the
    state as its unit vector `vector`, psi with rho = |psi><psi|; the
    vector of any other state is None.
    """

    vector = None

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

    @classmethod
    def _pure(cls, vector: np.ndarray) -> DensityState:
        """|psi><psi| held as the complex unit vector psi."""
        state = cls.__new__(cls)
        state.vector, state._dim = vector, len(vector)
        return state


class ObservableMatrix(_Operator):
    """A labeled Hermitian observable.

    The constructors below hold it in one of two structured forms: as
    `diagonal`, the real momentum-basis diagonal of a window or of L^2,
    or as `shift`, the real s of the two-term circulant s (U + U^dagger)
    with U the cyclic momentum shift U|k> = |k+1>, which is cos(theta)
    at s = 1/2. Both are None for an observable given as a matrix.
    """

    diagonal = None
    shift = None

    def __init__(self, matrix, label: str):
        self.matrix = _hermitian(matrix, f"observable '{label}'")
        self.label = label

    @classmethod
    def _structured(cls, dim: int, label: str, diagonal=None,
                    shift=None) -> ObservableMatrix:
        obs = cls.__new__(cls)
        obs.label, obs._dim, obs.diagonal, obs.shift = label, dim, diagonal, shift
        return obs


def _dense(form: _Operator) -> np.ndarray:
    """The momentum-basis matrix of a state or observable held in a
    structured form: |psi><psi|, a diagonal, or s (U + U^dagger)."""
    if isinstance(form, DensityState):
        return np.outer(form.vector, form.vector.conj())
    if form.diagonal is not None:
        return np.diag(form.diagonal.astype(complex))
    u = np.roll(np.eye(form.dim, dtype=complex), 1, axis=0)  # U|k> = |k+1>
    return form.shift * (u + u.T)  # 2 s at N = 1, where U = 1


def pure_state(vector) -> DensityState:
    """|psi><psi| from a (not necessarily normalized) 1-D vector, whose
    norm must be finite (it overflows for entries near 1e154 and up) and
    above zero."""
    v = _complex_array(vector, "vector")
    if v.ndim != 1:
        raise ConfigurationError(f"vector must be 1-D, got shape {v.shape}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not (isfinite(norm) and norm > 0):
        raise ConfigurationError(
            f"vector must have a finite non-zero norm, got norm {norm}")
    return DensityState._pure(v / norm)


def momentum_eigenstate(dim: int, k: int) -> DensityState:
    """|k><k| on the symmetric ladder."""
    sel = momentum_ladder(dim) == k if is_count(k) else False
    if not np.any(sel):
        raise ConfigurationError(f"k={k!r} not on the ladder of dim {dim}")
    return DensityState._pure(sel.astype(complex))


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(np.eye(_dense_dim(dim)) / dim)


def haar_random_pure(dim: int, rng: np.random.Generator) -> DensityState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    return DensityState._pure(_haar_vector(_dense_dim(dim), rng))


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
    return ObservableMatrix._structured(dim, f"P[{k_lo},{k_hi})",
                                        diagonal=sel.astype(float))


def cos_theta_observable(dim: int) -> ObservableMatrix:
    """cos(theta) on the angle grid, expressed in the momentum basis: the
    angle grid's N points make it the circulant (U + U^dagger) / 2."""
    return ObservableMatrix._structured(_odd_dim(dim), "cos_theta", shift=0.5)


def l_squared_observable(dim: int, hbar: float = 1.0) -> ObservableMatrix:
    """(hbar k)^2, diagonal in the momentum basis; it must be finite."""
    require_positive("hbar", hbar)
    ladder = momentum_ladder(dim)
    top = float(hbar) * float(ladder[-1])
    if not isfinite(top * top):
        raise ConfigurationError(
            f"hbar = {hbar!r} makes (hbar k)^2 overflow at k = {ladder[-1]}")
    return ObservableMatrix._structured(
        dim, "L_squared", diagonal=(hbar * ladder).astype(float) ** 2)


@dataclass
class FloquetSystem:
    """Quasi-energy spectrum and eigenbasis of the Floquet unitary.

    Quasi-energies phi_k in [0, 2*pi) satisfy F|k> = exp(-i phi_k)|k>
    and are stored in increasing order; `degeneracy_flags` lists index
    pairs closer than `DEFAULT_GAP_TOL` (including the 2*pi wraparound
    pair). The eigenbasis Z = D^-1 P blockdiag(V_e, V_o) is held as D, the
    real block bases and the block column order[i] (even block first) of
    sorted eigenvector i.
    """

    params: QuantumParams
    quasi_energies: np.ndarray
    half_free: np.ndarray
    v_even: np.ndarray
    v_odd: np.ndarray
    order: np.ndarray
    degeneracy_flags: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.params.dim

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Z^dagger M Z = (Z^dagger (Z^dagger M)^dagger)^dagger."""
        a = self._z_dag(matrix)
        b = self._z_dag(np.conj(a, out=a).T)
        return np.conj(b, out=b).T

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Z M Z^dagger = Z (Z M^dagger)^dagger."""
        a = self._z(np.conj(matrix).T)
        return self._z(np.conj(a, out=a).T)

    def observable_in_eigenbasis(self, obs: ObservableMatrix,
                                 support=None) -> np.ndarray:
        """Z^dagger O Z on the rows and columns `support`, ascending indices
        of the sorted spectrum (all of them when None), through O's
        structured form; an O given as a matrix takes `to_eigenbasis`.

        Z = D^-1 P B with B = blockdiag(V_e, V_o). D cancels against a
        momentum-diagonal O, whose P^T O P holds o_0 at k = 0, (o_k +
        o_-k)/2 on the even and on the odd diagonal and (o_k - o_-k)/2 on
        the even-odd pairs: three real GEMMs and a real result. The
        circulant s (U + U^dagger) commutes with parity, and each parity
        block T of D (U + U^dagger) D^-1 is tridiagonal plus the
        wrap-around corner, so one V^T T V per block, with exact zeros
        across the parities.
        """
        if obs.diagonal is None and obs.shift is None:
            m = self.to_eigenbasis(obs.matrix)
            return m if support is None else m[np.ix_(support, support)]
        h = self.dim // 2
        blocks = self.order[np.s_[:] if support is None else support]
        even = blocks <= h
        ie, io = np.flatnonzero(even), np.flatnonzero(~even)
        ve = self.v_even[:, blocks[ie]]
        vo = self.v_odd[:, blocks[io] - (h + 1)]
        n = len(blocks)
        if obs.diagonal is not None:
            o = obs.diagonal
            mean = o[h:] / 2 + o[h::-1] / 2  # halves: a sum could overflow
            diff = o[h + 1:] / 2 - o[:h][::-1] / 2
            out = np.empty((n, n))
            out[np.ix_(ie, ie)] = ve.T @ (mean[:, None] * ve)
            out[np.ix_(io, io)] = vo.T @ (mean[1:, None] * vo)
            cross = ve[1:].T @ (diff[:, None] * vo)
            out[np.ix_(ie, io)] = cross
            out[np.ix_(io, ie)] = cross.T
            return out
        s = obs.shift
        # <k| D s (U + U^dagger) D^-1 |k+1> for k = 0 .. h - 1; the corner
        # <h| .. |-h> = s adds +-s to the last diagonal entry of each block
        # (at N = 1, U = 1 and the one entry is 2 s)
        hop = s * self.half_free[h:-1] * self.half_free[h + 1:].conj()
        upper_e = hop.copy()
        upper_e[:1] *= np.sqrt(2.0)  # <0| .. (|1> + |-1>)/sqrt(2)
        out = np.zeros((n, n), dtype=complex)
        out[np.ix_(ie, ie)] = _tridiagonal_sandwich(ve, upper_e, s if h else 2 * s)
        out[np.ix_(io, io)] = _tridiagonal_sandwich(vo, hop[1:], -s)
        return out

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
        np.take(out, self.order, axis=0, out=y)
        return y.reshape(np.shape(x))

    def _z(self, c) -> np.ndarray:
        """Z c = F^T conj(S D) B c: the steps of _z_dag reversed."""
        h = self.dim // 2
        c2 = np.reshape(c, (self.dim, -1))
        g = np.empty(c2.shape, dtype=complex)
        g[self.order] = c2
        out = np.empty_like(g)
        np.matmul(self.v_even, g[:h + 1].view(float), out=out[:h + 1].view(float))
        np.matmul(self.v_odd, g[h + 1:].view(float), out=out[h + 1:].view(float))
        out *= self._scale.conj()[:, None]
        even, odd = out[:h + 1], out[h + 1:]
        np.multiply(even[0], 2.0, out=g[h])
        np.add(even[1:], odd, out=g[h + 1:])
        np.subtract(even[:0:-1], odd[::-1], out=g[:h])
        return g.reshape(np.shape(c))


def _tridiagonal_sandwich(v: np.ndarray, upper: np.ndarray,
                          corner: float) -> np.ndarray:
    """v^T T v for a real v and the Hermitian T with super-diagonal
    `upper`, its conjugate below, and `corner` as its last diagonal entry
    (its only one); v may have no rows."""
    tv = np.zeros(v.shape, dtype=complex)
    tv[:-1] = upper[:, None] * v[1:]
    tv[1:] += upper.conj()[:, None] * v[:-1]
    tv[-1:] += corner * v[-1:]
    return (v.T @ tv.view(float)).view(complex)


def _kick_coefficients(params: QuantumParams) -> np.ndarray:
    """Circulant coefficients c of the kick: K[k, k'] = c[(k - k') mod N].

    With |theta_j> = sum_k exp(-i k theta_j)|k>/sqrt(N) on the angle grid
    theta_j = 2 pi j / N, c is the FFT of the kick's grid values over N.
    """
    n = params.dim
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.fft.fft(np.exp(-1j * (params.lam / params.hbar) * np.cos(theta))) / n


def _parity_panels(coeffs: np.ndarray, half_free: np.ndarray, sign: int,
                   scratch: np.ndarray | None = None):
    """Row panels (rows, block[rows]) of the even (sign +1) or odd (sign
    -1) block of F_s = D K D in the parity basis P, from the kick's
    circulant coefficients. The block is (N + sign) // 2 square. Each panel
    is a view of one buffer, which the next panel overwrites: the front of
    the float array `scratch`, in panels of as many rows as it holds, up to
    _PANEL, or else an array of its own of _PANEL rows.

    K and D are parity invariant, so each block entry is K[k, k'] +-
    K[k, -k'] = c[(k - k') mod N] +- c[k + k'] scaled by the half-ladder
    phases, with 1/sqrt(2) on the even block's k = 0 row and column; the
    odd block has no k = 0 row. Both parts are read as strided views:
    the Toeplitz rows from windows of c rolled by h and reversed, the
    Hankel rows from windows of c.
    """
    n = len(coeffs)
    h = (n - 1) // 2
    k0 = 0 if sign > 0 else 1
    size = h + 1 - k0
    s = half_free[h:].copy()
    s[0] /= np.sqrt(2.0)
    s = s[k0:]
    # row r, k = k0 + r: c[(k - k') mod N] for k' = k0 .. h is window
    # h - r of the reversed roll, and c[k + k'] window r + 2 k0 of c
    toeplitz = sliding_window_view(np.roll(coeffs, h)[::-1], size)[k0:h + 1][::-1]
    hankel = sliding_window_view(coeffs, size)[2 * k0:]
    combine = np.add if sign > 0 else np.subtract
    step = min(_PANEL, size)
    if scratch is not None and 0 < 2 * size <= scratch.size:
        step = min(step, scratch.size // (2 * size))
        buffer = scratch[:2 * step * size].view(complex).reshape(step, size)
    else:
        buffer = np.empty((step, size), dtype=complex)
    for lo in range(0, size, max(step, 1)):
        rows = slice(lo, min(lo + step, size))
        panel = combine(toeplitz[rows], hankel[rows], out=buffer[:rows.stop - lo])
        panel *= s[rows, None]
        panel *= s[None, :]
        yield rows, panel


def _block_eigensystem(coeffs: np.ndarray, half_free: np.ndarray, sign: int,
                       v: np.ndarray, work: np.ndarray):
    """Eigenvalues, real orthonormal eigenvectors and eigen-residual of one
    complex symmetric unitary parity block A + iB (see `_parity_panels`).

    A + _MIX B takes each value twice on the unit circle, so the solver can
    mix the eigenvectors of two distinct eigenvalues whose values nearly
    coincide. A Rayleigh-Ritz step with the orthogonal weighting
    B - _MIX A separates each such cluster again. On eigenvectors V of
    A + _MIX B, V^T A V = W - _MIX V^T B V, so that step needs B V alone:
    its matrix is (1 + _MIX^2) V^T B V - _MIX W.

    The caller hands over the block's buffers: `v`, an empty Fortran-ordered
    square of the block's size n, and `work`, at least 1 + 6 n + 2 n^2
    doubles. A + _MIX B is formed in `v`, which `_eigh_in_place` turns into
    V. The workspace then holds two n x n halves: B is formed in the second
    and B V taken into the first, then A and A V likewise. Row panels sit in
    the half not yet in use, and each part's residual is squared in place
    beside the dead part, so the block allocates nothing of its size.
    """
    size = len(v)
    # rows of A + _MIX B into the columns of v, so that they are written
    # where they are stored; the solve reads (A + _MIX B)^T, which is equal
    # to it up to rounding
    for rows, panel in _parity_panels(coeffs, half_free, sign, work):
        np.multiply(panel.imag, _MIX, out=v.T[rows])
        v.T[rows] += panel.real
    w = _eigh_in_place(v, work)
    first = work[:size * size]
    x = work[size * size:2 * size * size].reshape(size, size)  # B, then A
    xv = first.reshape(size, size)  # B V, then A V
    values, squares = [], []
    for part in ("imag", "real"):
        for rows, panel in _parity_panels(coeffs, half_free, sign, first):
            x[rows] = getattr(panel, part)
        for lo in range(0, size, _PANEL):
            np.matmul(x[lo:lo + _PANEL], v, out=xv[lo:lo + _PANEL])
        if part == "imag":
            for c in _clusters(w):
                m = (1.0 + _MIX ** 2) * (v[:, c].T @ xv[:, c]) - _MIX * np.diag(w[c])
                _, r = _eigh(m)
                v[:, c], xv[:, c] = v[:, c] @ r, xv[:, c] @ r
        values.append(np.einsum("ij,ij->j", v, xv))
        # max (X V - V diag(value))^2 entry by entry, in place beside the
        # dead X; a NaN passes max and fails the gate
        np.multiply(v, values[-1], out=x)
        xv -= x
        xv *= xv
        squares.append(np.max(xv, initial=0.0))
    im, re = values
    # at least max |(A + iB)v - lambda v| over the entries of the columns v
    residual = np.sqrt(squares[0] + squares[1])
    return re + 1j * im, v, residual


def _eigh(m: np.ndarray):
    """np.linalg.eigh(m); a solve that does not converge is a NumericError."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}") from None


def _eigh_in_place(m: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric Fortran-ordered square
    `m`, read from its lower triangle as np.linalg.eigh reads it; `m` is
    overwritten with the orthonormal eigenvectors as its columns.

    LAPACK's dsyevd runs in `m` and `work`, which must hold 1 + 6 n + 2 n^2
    doubles. Without the symbol, np.linalg.eigh computes the same vectors
    in buffers of its own, which are copied into `m`.
    """
    n = len(m)
    solver = _dsyevd()
    if solver is None or n == 0:
        w, m[...] = _eigh(m)
        return w
    if not (m.flags.f_contiguous and m.shape == (n, n) and m.dtype == np.float64
            and work.dtype == np.float64 and work.size >= 1 + 6 * n + 2 * n * n):
        raise ValueError("dsyevd needs a Fortran-ordered float square and "
                         "1 + 6 n + 2 n^2 doubles of workspace")
    dsyevd, integer = solver
    w = np.empty(n)
    iwork = np.empty(3 + 5 * n, dtype=integer)
    info = integer(0)
    dsyevd(b"V", b"L", integer(n), m.ctypes.data, integer(n), w.ctypes.data,
           work.ctypes.data, integer(work.size), iwork.ctypes.data,
           integer(iwork.size), info, 1, 1)
    if info.value != 0:
        raise NumericError(f"eigensolve failed: LAPACK dsyevd info {info.value}")
    return w


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


def _thread_functions(lib):
    """The first (set, get) pair of _OPENBLAS_THREADS that `lib` exports,
    or None."""
    for names in _OPENBLAS_THREADS:
        found = tuple(getattr(lib, name, None) for name in names)
        if None not in found:
            return found
    return None


def _numpy_linalg_library():
    """numpy's linalg extension loaded as a library, or None.

    A symbol looked up in it is searched for in the libraries it links too,
    so this finds numpy's OpenBLAS and not another one in the process, such
    as scipy's.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


@cache
def _openblas():
    """The thread-count functions of the OpenBLAS numpy loaded, or None."""
    blas = _thread_functions(_numpy_linalg_library())
    if blas is not None:
        set_threads, get_threads = blas
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return blas


@cache
def _dsyevd():
    """(dsyevd, its integer type) of the first _DSYEVD symbol that numpy's
    OpenBLAS exports, or None."""
    lib = _numpy_linalg_library()
    for name, integer in _DSYEVD:
        dsyevd = getattr(lib, name, None)
        if dsyevd is not None:
            ref = ctypes.POINTER(integer)
            # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info and
            # the hidden lengths of jobz and uplo
            dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref,
                               ctypes.c_void_p, ref, ctypes.c_void_p,
                               ctypes.c_void_p, ref, ctypes.c_void_p, ref, ref,
                               ctypes.c_size_t, ctypes.c_size_t]
            dsyevd.restype = None
            return dsyevd, integer
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block and restore its
    count afterwards; without an OpenBLAS, do nothing."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _blas_threads_for(dim):
    """`_one_blas_thread` for a run of dimension `dim` below
    _BLAS_THREADED_DIM; nothing for a larger one or without a dim (a
    classical kind)."""
    if dim is not None and dim < _BLAS_THREADED_DIM:
        return _one_blas_thread()
    return nullcontext()


def build_floquet(params: QuantumParams, threads: int = 1) -> FloquetSystem:
    """Spectral decomposition of F = kick * free.

    Everything is read off the kick's N circulant coefficients: the
    unitarity residual and the parity blocks of the symmetrised F_s (see
    the module docstring), whose two real symmetric eigensolves of sizes
    (N+1)/2 and (N-1)/2 give the spectrum. The system keeps their real
    orthonormal bases, not the dense complex eigenbasis they define.

    Each block is solved in place in two buffers of its own (see
    `_block_eigensystem`), on one OpenBLAS thread. With `threads` >= 2 at
    N >= _BLAS_THREADED_DIM, the calling thread solves the even block while
    one worker, started for this build, solves the odd one; otherwise, or
    without LAPACK's dsyevd, the blocks are solved in turn. The result is
    the same, bit for bit, either way.
    """
    require_instance("params", params, QuantumParams)
    require_count("threads", threads, 1)
    n = params.dim
    coeffs = _kick_coefficients(params)
    err = _unitarity_residual(coeffs)
    if not err <= 1e-10:  # NaN fails too
        raise NumericError(f"Floquet operator not unitary: max |FF^† - I| = {err}")
    k = momentum_ladder(n).astype(float)
    half_free = np.exp(-0.25j * params.tau * params.hbar * k ** 2)

    def buffers(size):
        return np.empty((size, size), order="F"), np.empty(1 + 6 * size + 2 * size * size)

    with _one_blas_thread():
        if threads >= 2 and n >= _BLAS_THREADED_DIM and _dsyevd() is not None:
            # every block-sized buffer is allocated before the worker starts;
            # leaving the pool joins the worker, also when the even block
            # raises
            even, odd = buffers((n + 1) // 2), buffers((n - 1) // 2)
            with ThreadPoolExecutor(max_workers=1) as pool:
                odd = pool.submit(_block_eigensystem, coeffs, half_free, -1, *odd)
                eig_e, v_e, res_e = _block_eigensystem(coeffs, half_free, 1, *even)
                eig_o, v_o, res_o = odd.result()
        else:
            # the even block's workspace is freed before the odd block's
            # buffers are allocated
            eig_e, v_e, res_e = _block_eigensystem(
                coeffs, half_free, 1, *buffers((n + 1) // 2))
            eig_o, v_o, res_o = _block_eigensystem(
                coeffs, half_free, -1, *buffers((n - 1) // 2))
    residual = np.maximum(res_e, res_o)  # a NaN of either block fails
    if not residual <= 1e-8:
        raise NumericError(f"eigensolve failed: block eigen-residual {residual}")
    phi = np.mod(-np.angle(np.concatenate([eig_e, eig_o])), 2.0 * np.pi)
    phi[phi == 2.0 * np.pi] = 0.0  # np.mod(-tiny, 2 pi) rounds up to 2 pi
    order = np.argsort(phi, kind="stable")
    phi = phi[order]
    gaps = np.diff(phi)
    flags = [(int(i), int(i + 1))
             for i in np.flatnonzero(gaps < DEFAULT_GAP_TOL)]
    if n > 1 and (phi[0] + 2.0 * np.pi - phi[-1]) < DEFAULT_GAP_TOL:
        flags.append((n - 1, 0))
    return FloquetSystem(params=params, quasi_energies=phi,
                         half_free=half_free, v_even=v_e, v_odd=v_o, order=order,
                         degeneracy_flags=flags)


def evolve(rho: DensityState, system: FloquetSystem, n: int) -> DensityState:
    """F^n rho (F^n)^dagger, applied as phases in the eigenbasis."""
    require_instance("system", system, FloquetSystem)
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
    """F^n |psi> for pure-state work at large dimension.

    Its products with the block bases hold OpenBLAS to one thread: at
    N = 2049 a second saves about 4 ms of the 8 ms they take on one, and
    OpenBLAS's worker then spins on its core for about 0.135 s.
    """
    require_instance("system", system, FloquetSystem)
    psi = np.asarray(psi)
    if psi.shape != (system.dim,):
        raise ConfigurationError("dimension mismatch")
    if not is_count(n):
        raise ConfigurationError(f"kick count must be an integer, got {n!r}")
    with _one_blas_thread():
        c = system._z_dag(psi)
        return system._z(np.exp(-1j * n * system.quasi_energies) * c)


def cesaro_limit_state(rho0: DensityState, system: FloquetSystem,
                       allow_degenerate: bool = False) -> DensityState:
    """Diagonal part of rho0 in the Floquet eigenbasis.

    With a degenerate quasi-energy spectrum the phase-averaging argument
    behind the diagonal form breaks down, so the operation refuses unless
    `allow_degenerate` is set.
    """
    require_instance("system", system, FloquetSystem)
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

    The sources are sorted by grid bin, cut into tiles of _TILE bins and
    each tile into runs of at most _RUN sources. A run forms its dense
    kernel block over the grid points its tile's sources reach when it is
    summed (`block`), so spreading is one real GEMM per run over the
    columns it forms from amplitudes and weights, and a sum of _COLUMNS
    columns takes as much memory at any N. The plan keeps 12 bytes a
    source (its grid position and two pair indices) where the blocks
    would take 248, plus one extended grid that every `sums` reuses.
    `sweep` is the one loop over windows of times. The plan keeps the
    quasi-energies `phi` whose pairs it spreads, so a sweep cannot be
    handed phases of another spectrum.
    """

    def __init__(self, phi: np.ndarray):
        self.phi = phi
        k, kp = np.triu_indices(len(phi), 1)
        u = phi[k]  # in place from here: np.mod(phi_k - phi_k', 2 pi) in grid steps
        u -= phi[kp]
        np.mod(u, 2.0 * np.pi, out=u)
        u *= _GRID / (2.0 * np.pi)
        u[u >= _GRID] = 0.0  # np.mod(-tiny, 2 pi) rounds up to 2 pi
        # pair indices in the smallest unsigned type that holds N - 1
        index = np.min_scalar_type(max(len(phi) - 1, 0))
        k, kp = k.astype(index), kp.astype(index)
        bins = u.astype(np.min_scalar_type(_GRID - 1))
        order = np.argsort(bins, kind="stable")
        self.k, self.kp, self.u, bins = k[order], kp[order], u[order], bins[order]
        del k, kp, u, order
        starts = range(0, _GRID, _TILE)
        edges = np.searchsorted(bins, [*starts, _GRID])
        del bins
        self.tiles = [(a, lo, min(lo + _RUN, hi))
                      for a, first, hi in zip(starts, edges[:-1], edges[1:])
                      for lo in range(first, hi, _RUN)]
        s = np.arange(-_WINDOW // 2, _WINDOW // 2)
        self.modes = s % _GRID
        # 2 / (grid size x the kernel's Fourier coefficient sqrt(tau/pi)
        # exp(-tau s^2)), the 2 being that of 2 Re
        self.deconv = 2.0 * np.exp(_TAU * s * s) / (_GRID * np.sqrt(_TAU / np.pi))
        # the extended grid of `sums`, kept and grown across its calls, so
        # its pages are faulted in once per plan, not once per call when
        # glibc's malloc serves a 2 MB array by mmap
        self.ext = np.empty(0)

    def sweep(self, start: int, stop: int, amps: np.ndarray, weights: np.ndarray):
        """(lo, sums) for each window of the times t = start .. stop - 1:
        the _WINDOW times from t0 = start + lo, fewer in the last window.

        sums[i, j * p + c] = 2 Re sum_{k<k'} a_k conj(a_k') w_kk'
        exp(-i t omega_kk') at t = t0 + i, w being column j of the
        plan-order (sources, q) `weights` and a column c of the (N, p)
        `amps`. Consecutive windows are summed together, up to
        _COLUMNS columns (one window at least), each window's
        amplitudes carrying its centre's phase.
        """
        q, p = weights.shape[1], amps.shape[1]
        per = max(1, _COLUMNS // (q * p))
        for first in range(start, stop, per * _WINDOW):
            group = range(first, min(first + per * _WINDOW, stop), _WINDOW)
            a = np.hstack([amps * np.exp(-1j * (t0 + _WINDOW // 2) * self.phi)[:, None]
                           for t0 in group])
            vals = self.sums(a, weights).reshape(_WINDOW, q, len(group), p)
            for g, t0 in enumerate(group):
                n = min(_WINDOW, stop - t0)
                yield t0 - start, vals[:n, :, g].copy().reshape(n, q * p)
            del vals  # before the next group makes its own (no sums views it)

    def block(self, a: int, lo: int, hi: int) -> np.ndarray:
        """exp(-_KERNEL (x - u)^2) for the sources lo:hi of the tile at bin
        a (columns) at the grid points x = a + _REACH (rows)."""
        d = np.subtract.outer(a + _REACH, self.u[lo:hi])
        block = np.multiply(d, -_KERNEL)
        block *= d
        return np.exp(block, out=block)

    def sums(self, amps: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """2 Re sum_{k<k'} w_kk' a_k conj(a_k') exp(-i s omega_kk') for each
        s in [-_WINDOW/2, _WINDOW/2) (rows), in column j * m + c for column
        j of the plan-order (sources, q) `weights` and column c of the
        complex (N, m) `amps`. Each tile forms its own block and columns."""
        conj = amps.conj()
        shape = (_GRID + 2 * _SPREAD - 1, 2 * weights.shape[1] * amps.shape[1])
        if self.ext.size < shape[0] * shape[1]:
            self.ext = np.empty(shape[0] * shape[1])
        ext = self.ext[:shape[0] * shape[1]].reshape(shape)
        ext.fill(0.0)
        for a, lo, hi in self.tiles:
            block = self.block(a, lo, hi)
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

    Only pairs inside the support S of r = Z^dagger rho Z can weigh: the
    indices whose row or column of r is not exactly zero (a zero rho_kk
    proves nothing, since rho need not be positive). The plan covers the
    phases of S alone, so a state of one parity, whose other parity's
    rows are exact zeros, spreads about a quarter of the pairs. A state
    whose support is the whole spectrum takes the full plan.

    A pure state enters as c = Z^dagger psi, so r = c c^dagger and S holds
    the indices where c is not zero; O enters through its structure,
    rotated on S x S alone (see `FloquetSystem.observable_in_eigenbasis`).
    """
    require_instance("system", system, FloquetSystem)
    if 8 * require_count("horizon", horizon, 2) > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"horizon = {horizon} is too large for an array of {horizon} floats")
    if rho0.dim != system.dim or obs.dim != system.dim:
        raise ConfigurationError("dimension mismatch")
    if system.degeneracy_flags and not allow_degenerate:
        raise DegenerateSpectrumError(system.degeneracy_flags)
    # r and O on S x S before the plan, so that their transients never
    # meet it; m is dropped once its pairs are gathered
    if rho0.vector is not None:
        c = system._z_dag(rho0.vector)
        support = np.flatnonzero(c)
        c = c[support]
        m = np.outer(c, c.conj())
    else:
        m = system.to_eigenbasis(rho0.matrix)
        support = np.flatnonzero(m.any(axis=1) | m.any(axis=0))
        if len(support) < system.dim:
            m = m[np.ix_(support, support)]
    m *= system.observable_in_eigenbasis(obs, support).T
    plan = _SpreadPlan(system.quasi_energies[support])
    w = m[plan.k, plan.kp][:, None]
    del m
    c_q = np.empty(horizon)
    for lo, sums in plan.sweep(0, horizon, np.ones((len(support), 1)), w):
        c_q[lo:lo + len(sums)] = sums[:, 0]
    cesaro = np.cumsum(c_q)
    cesaro /= np.arange(1, horizon + 1)
    return CorrelationSeries(times=np.arange(horizon), c_q=c_q, cesaro=cesaro)


def mixing_volume_fraction(system: FloquetSystem,
                           o_set: Sequence[ObservableMatrix], n_states: int,
                           horizon: int, tol: float, seed: int) -> float:
    """Fraction of Haar-random pure states that look relaxed at late times.

    A state counts as having a weak limit when, for every observable in
    the set, |C_Q(rho(t), O)| < tol at every t in the last decile of the
    horizon. Per-state RNG streams derive from (seed, state index), so
    the result is independent of evaluation order.

    One NUFFT plan serves every state. A chunk of states, as many as fill
    _COLUMNS columns with one per observable, is one sweep of the tail
    with the amplitudes c = Z^dagger psi of each state and the weights
    O_k'k of each observable, rotated through its structure. Since the
    plan's tiles hold at most _RUN sources, a chunk is as wide at any N,
    and memory holds the plan, the weights and what one chunk's columns
    need.
    """
    require_instance("system", system, FloquetSystem)
    if not o_set:
        raise ConfigurationError("observable set must not be empty")
    require_count("n_states", n_states, 100)
    # ceil(0.9 h) < h, a non-empty last decile, exactly when h >= 10
    require_count("horizon", horizon, 10)
    require_positive("tol", tol)
    require_count("seed", seed, 0)
    if any(o.dim != system.dim for o in o_set):
        raise ConfigurationError("dimension mismatch")
    tail = int(np.ceil(0.9 * horizon))
    # Z^dagger O Z before the plan, so that their transients never meet it;
    # each is dropped once its O_k'k, one column per observable, is gathered
    obs_e = [system.observable_in_eigenbasis(o) for o in o_set]
    plan = _SpreadPlan(system.quasi_energies)
    o_pairs = np.stack([obs_e.pop(0)[plan.kp, plan.k] for _ in o_set], axis=1)
    per = max(1, _COLUMNS // len(o_set))
    n_ok = 0
    for first in range(0, n_states, per):
        v = np.empty((system.dim, min(per, n_states - first)), dtype=complex)
        for j in range(v.shape[1]):
            rng = np.random.default_rng([seed, first + j])
            v[:, j] = _haar_vector(system.dim, rng)
        worst = np.zeros(v.shape[1])
        for _, sums in plan.sweep(tail, horizon, system._z_dag(v), o_pairs):
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

    `distribution` holds (k, p) rows of finite numbers. The outer
    (1 - _BULK_FRACTION) of the ladder is excluded; sites with vanishing
    probability are dropped from the fit. At least 3 sites must remain,
    at |k| distinct and small enough for the fit to resolve a slope.
    """
    ks, ps = require_table("distribution", distribution, 2).T
    k_max = np.max(np.abs(ks))
    mask = (np.abs(ks) <= _BULK_FRACTION * k_max) & (ps > 0.0)
    x = np.abs(ks[mask])
    if mask.sum() < 3 or np.ptp(x) == 0.0:
        raise ConfigurationError(
            "distribution has fewer than 3 usable sites at 2 distinct |k| "
            "in the bulk")
    y = np.log(ps[mask])
    # |k| of 1e154 and up overflows polyfit's column scaling, which then
    # sees one column (rank 1) and would return slope 0
    with np.errstate(over="ignore"):
        (slope, intercept), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    if rank < 2:
        raise ConfigurationError(
            "distribution's bulk |k| are too close or too large to fit a slope")
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
