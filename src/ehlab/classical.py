"""Classical kicked-rotator dynamics on the 2-torus.

The standard (Chirikov) map is integrated in one tangent-map Lyapunov
batch. `estimate_chaotic_measures` classifies a cell-centred grid of
initial conditions as chaotic (exponent above a threshold) or regular at
each kick strength of a sweep, and `set_correlation` estimates the
time-shifted correlation of two cell sets by Monte Carlo.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, is_real, require_count,
                     require_instance, require_instances, require_positive)

TWO_PI = 2.0 * np.pi

# Iterations discarded before Lyapunov accumulation starts, to remove
# the initial tangent-vector alignment bias.
LYAPUNOV_TRANSIENT = 100

# Default per-kick Lyapunov cutoff separating finite-time noise (~1/sqrt(n))
# from genuine positive exponents at n_steps >= 5000.
DEFAULT_THRESHOLD = 0.05

# Orbits per chunk of a scan batch. A thread hands the GIL over around
# each of a step's ~25 numpy calls: in chunks of 10752 orbits two threads
# ran the 21-lambda, 64**2 measure sweep at 1.63x one thread's speed, where
# two processes reached 1.85x. A larger chunk makes fewer calls per orbit,
# and one chunk per worker narrowed that gap from 14% to 6%. At this size
# each of two workers runs that sweep as one chunk of 21504 orbits, whose
# seven arrays (orbit, kick strength, tangent vector, two buffers) take
# 1.2 MB, inside a 2 MB L2.
_CHUNK_ORBITS = 24576

# Steps between renormalizations of a scan's tangent vectors.
_BLOCK = 8
# The Jacobian's absolute entries sum to at most 2 + tau + lam (1 + tau)
# and its determinant is 1, so a unit tangent vector's image after m steps
# has norm within [bound**-m, bound**m]. MapParams holds the bound below
# the _BLOCK-th root of 1e150, where a block's squared norm stays in range.
_MAX_ROW_SUM = 1e150 ** (1.0 / _BLOCK)


def _wrap(x):
    """Reduce x to [0, 2*pi).

    np.mod rounds a tiny negative x up to exactly 2*pi, which would break
    the half-open interval; that value is folded back to 0.
    """
    r = np.mod(x, TWO_PI)
    if np.ndim(r) == 0:
        return 0.0 if r == TWO_PI else float(r)
    r[r == TWO_PI] = 0.0
    return r


def _centre(x, tmp):
    """Reduce x in place to [-pi, pi] by the odd map
    x - 2*pi*rint(x / 2*pi), with tmp as scratch of x's shape.

    The map commutes with negation bit for bit, so an orbit and its
    mirror image stay exact negatives of each other.
    """
    np.divide(x, TWO_PI, out=tmp)
    np.rint(tmp, out=tmp)
    np.multiply(TWO_PI, tmp, out=tmp)
    np.subtract(x, tmp, out=x)


def _cos_from_sin(theta, s, tmp):
    """Replace s = sin(theta) in place by cos(theta), with tmp as scratch of
    theta's shape: cos = copysign(sqrt(1 - s*s), pi/2 - |theta|) for theta
    in [-pi, pi].

    The result is exactly even in theta, as libm's sin is exactly odd. On
    10**6 points it stayed within eps (1 + 1/|cos theta|) / 2 of libm's
    cos: it loses accuracy only where |cos theta| is tiny, up to about
    1e-8 within 1e-8 of +-pi/2.
    """
    np.multiply(s, s, out=s)
    np.subtract(1.0, s, out=s)
    np.sqrt(s, out=s)
    np.absolute(theta, out=tmp)
    np.subtract(np.pi / 2, tmp, out=tmp)
    np.copysign(s, tmp, out=s)


def _advance(theta, p, lam: float, tau: float):
    """One standard-map step on scalars or arrays of torus coordinates.

    The kicked momentum is reduced to [-pi, pi] as :func:`_centre` does it
    before the angle update: the batch's map, invertible for any tau.
    """
    p = p + lam * np.sin(theta)
    p = p - TWO_PI * np.rint(p / TWO_PI)
    return _wrap(theta + tau * p), _wrap(p)


@dataclass(frozen=True)
class MapParams:
    """Kick strength and kick period of the standard map."""

    lam: float
    tau: float = 1.0

    def __post_init__(self):
        if not (is_real(self.lam) and is_real(self.tau)):
            raise ConfigurationError(
                f"lam and tau must be finite real numbers, got "
                f"{self.lam!r}, {self.tau!r}")
        if self.lam < 0:
            raise ConfigurationError(f"kick strength must be >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ConfigurationError(f"kick period must be > 0, got {self.tau}")
        # on Python floats, as a numpy scalar warns where it overflows
        lam, tau = float(self.lam), float(self.tau)
        if 2.0 + tau + lam * (1.0 + tau) >= _MAX_ROW_SUM:
            raise ConfigurationError(
                f"lam = {lam}, tau = {tau} overflow the map: "
                f"2 + tau + lam (1 + tau) must be below {_MAX_ROW_SUM:.4g}")


@dataclass(frozen=True)
class RegionEstimate:
    """Grid estimate of the normalized chaotic measure at one kick strength."""

    lam: float
    mu_A: float
    mu_E: float
    n_samples: int
    threshold: float
    ci_halfwidth: float


def _lyapunov_batch(theta, p, lam, tau, n_steps: int, *, out=None):
    """Largest Lyapunov exponent for arrays of initial conditions.

    lam and tau are scalars or per-point arrays; `lam * x` is the same
    IEEE product either way, so an orbit's exponent does not depend on
    the batch it runs in. Coordinates are kept centred in [-pi, pi], so
    the batch commutes with the inversion (theta, p) -> (-theta, -p) bit
    for bit: sin is odd, and the cos of the tangent map, taken from that
    sin by :func:`_cos_from_sin`, even. The tangent map is linear, so the
    log of a block's growth is the sum of its steps' logs (Benettin et
    al., Meccanica 15, 9, 1980): tangent vectors are renormalized, and
    one log taken, every _BLOCK steps; the row-sum bound of MapParams
    keeps a block's squared norm in range. Blocks are counted back from
    step LYAPUNOV_TRANSIENT, whose iterations are discarded before
    accumulating; the last block may be short. theta and p are float
    arrays, stepped in place and left overwritten; every per-step
    temporary lives in a buffer allocated once per call. The exponents
    are accumulated in, and returned as, `out` when it is given: a float
    array of theta's shape, such as a slice of the caller's results.
    """
    v_theta = np.ones_like(theta)
    v_p = np.zeros_like(theta)
    log_sum = np.empty_like(theta) if out is None else out
    log_sum.fill(0.0)
    c, tmp = np.empty_like(theta), np.empty_like(theta)
    _centre(theta, tmp)
    _centre(p, tmp)
    end = LYAPUNOV_TRANSIENT + n_steps
    for i in range(1, end + 1):
        # kick the momentum first, as in _advance, so the map stays
        # invertible; c holds sin(theta) of the pre-step point
        np.sin(theta, out=c)
        np.multiply(lam, c, out=tmp)
        np.add(p, tmp, out=p)
        # advance the tangent vector in place with the Jacobian at the
        # pre-step point: v_p += c v_theta, then v_theta += tau v_p,
        # with c = lam cos(theta) taken from the sin
        _cos_from_sin(theta, c, tmp)
        np.multiply(lam, c, out=c)
        np.multiply(c, v_theta, out=tmp)
        np.add(v_p, tmp, out=v_p)
        np.multiply(tau, v_p, out=tmp)
        np.add(v_theta, tmp, out=v_theta)
        _centre(p, tmp)
        np.multiply(tau, p, out=tmp)
        np.add(theta, tmp, out=theta)
        _centre(theta, tmp)
        if (i - LYAPUNOV_TRANSIENT) % _BLOCK and i < end:
            continue
        # c is free now and takes the norm of v
        np.multiply(v_theta, v_theta, out=c)
        np.multiply(v_p, v_p, out=tmp)
        np.add(c, tmp, out=c)
        np.sqrt(c, out=c)
        np.divide(v_theta, c, out=v_theta)
        np.divide(v_p, c, out=v_p)
        if i > LYAPUNOV_TRANSIENT:
            np.log(c, out=c)
            log_sum += c
    log_sum /= n_steps
    return log_sum


def _centred_grid(grid_side: int):
    """Flat (theta, p) of the cell-centred grid (i + 1/2) * 2pi / G.

    Indices above G/2 are taken G cells down, into [-pi, pi], so that cell
    i and cell G-1-i are exact negatives. The point set is the same mod
    2pi; an odd G keeps its theta = pi and p = pi lines, which have no
    exact negative on the grid.
    """
    k = np.arange(grid_side) + 0.5
    k[k > grid_side / 2] -= grid_side
    coords = k * TWO_PI / grid_side
    theta, p = np.meshgrid(coords, coords, indexing="ij")
    return theta.ravel(), p.ravel()


def _chunks(n_lambdas: int, n_own: int, threads: int):
    """(workers, chunks) for a sweep of n_lambdas x n_own orbits.

    The flat sweep holds n_own orbits per kick strength. It is cut into
    balanced contiguous [start, stop) chunks of at most about
    _CHUNK_ORBITS orbits; the chunk count is a multiple of the worker
    count, which is at most one per kick strength.
    """
    workers = min(threads, n_lambdas)
    n = n_lambdas * n_own
    k = min(n, workers * -(-n // (workers * _CHUNK_ORBITS)))
    bounds = [n * i // k for i in range(k + 1)]
    return workers, list(zip(bounds, bounds[1:]))


def _region_estimate(lam: float, exponents, threshold: float) -> RegionEstimate:
    """The chaotic fraction of a grid's exponents, with its 95% binomial
    confidence half-width."""
    n = exponents.size
    mu_a = int(np.count_nonzero(exponents > threshold)) / n
    ci = 1.96 * np.sqrt(mu_a * (1.0 - mu_a) / n)
    return RegionEstimate(lam=lam, mu_A=mu_a, mu_E=1.0 - mu_a, n_samples=n,
                          threshold=threshold, ci_halfwidth=float(ci))


def estimate_chaotic_measures(params_list: list[MapParams], grid_side: int,
                              n_steps: int, threshold: float = DEFAULT_THRESHOLD,
                              threads: int = 1) -> list[RegionEstimate]:
    """Chaotic fraction of a uniform grid of initial conditions, for each
    kick strength of a sweep.

    Uses the uniform (Lebesgue) measure on the 2pi x 2pi torus normalized
    to 1; mu_A + mu_E = 1 by complementary counting. The 95% binomial
    confidence half-width is attached. The grid is cell-centred, which
    avoids the measure-zero fixed lines at 0.

    The map commutes with (theta, p) -> (-theta, -p), and the flat grid
    reversed is its mirror image. One orbit of each pair of exact
    negatives is integrated and its exponent copied to the partner; a
    point whose negative is off the grid is integrated itself. The
    orbits of every kick strength, in the sweep's order, form one flat
    batch, cut into contiguous chunks that at most `threads` workers step,
    one chunk each where a worker's share fits _CHUNK_ORBITS. A kick
    strength or period that every orbit of a chunk shares is passed as a
    scalar.
    """
    if 8 * require_count("grid_side", grid_side, 16) ** 2 > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"grid_side = {grid_side} is too large for an array of "
            f"{grid_side}**2 floats")
    require_count("n_steps", n_steps, 1)
    require_positive("threshold", threshold)
    require_count("threads", threads, 1)
    require_instances("params_list", params_list, MapParams)
    if not params_list:
        return []
    theta, p = _centred_grid(grid_side)
    n = theta.size
    own = (theta != -theta[::-1]) | (p != -p[::-1]) | (np.arange(n) < n // 2)
    theta, p = theta[own], p[own]
    n_own = theta.size
    lam = np.array([mp.lam for mp in params_list])
    tau = np.array([mp.tau for mp in params_list])
    workers, chunks = _chunks(len(params_list), n_own, threads)
    flat = np.empty(len(params_list) * n_own)

    def step(chunk):
        start, stop = chunk
        first, last = start // n_own, (stop - 1) // n_own + 1
        # each kick strength's share of the chunk, as a slice of its row
        cuts = [(max(start - row * n_own, 0), min(stop - row * n_own, n_own))
                for row in range(first, last)]

        def per_orbit(values):
            rows = values[first:last]
            if (rows == rows[0]).all():
                return rows[0]
            return np.repeat(rows, [hi - lo for lo, hi in cuts])
        _lyapunov_batch(np.concatenate([theta[lo:hi] for lo, hi in cuts]),
                        np.concatenate([p[lo:hi] for lo, hi in cuts]),
                        per_orbit(lam), per_orbit(tau), n_steps,
                        out=flat[start:stop])
    if workers == 1 or len(chunks) == 1:
        for chunk in chunks:
            step(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(step, chunks))
    estimates = []
    exponents = np.empty(n)
    for row, mp in enumerate(params_list):
        exponents[own] = flat[row * n_own:(row + 1) * n_own]
        estimates.append(_region_estimate(
            mp.lam, np.where(own, exponents, exponents[::-1]), threshold))
    return estimates


@dataclass(frozen=True)
class Cell:
    """A rectangle [theta_min, theta_max) x [p_min, p_max) on the torus,
    its bounds finite numbers, held as floats."""

    theta_min: float
    theta_max: float
    p_min: float
    p_max: float

    def __post_init__(self):
        for key in _CELL_KEYS:
            bound = getattr(self, key)
            if not is_real(bound):
                raise ConfigurationError(
                    f"{key} must be a finite number, got {bound!r}")
            object.__setattr__(self, key, float(bound))

    def contains(self, theta, p):
        return ((theta >= self.theta_min) & (theta < self.theta_max)
                & (p >= self.p_min) & (p < self.p_max))


_CELL_KEYS = ("theta_min", "theta_max", "p_min", "p_max")


def _cell(index: int, spec) -> Cell:
    """A Cell from one parsed JSON object with the four bounds as keys."""
    if not isinstance(spec, dict) or not all(k in spec for k in _CELL_KEYS):
        raise ConfigurationError(
            f"cell {index} must be an object with keys {', '.join(_CELL_KEYS)}")
    return Cell(*(spec[k] for k in _CELL_KEYS))


def cells_from_json(text: str) -> list[Cell]:
    """Parse the str `text`, a JSON array of {theta_min, theta_max, p_min,
    p_max} objects whose bounds are finite numbers."""
    require_instance("text", text, str)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(
            f"cell set text is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ConfigurationError("cell set text must be a JSON array")
    return [_cell(i, spec) for i, spec in enumerate(raw)]


def _membership(cells, theta, p):
    inside = np.zeros(theta.shape, dtype=bool)
    for cell in cells:
        inside |= cell.contains(theta, p)
    return inside


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte-Carlo estimate of mu(T^t A intersect B) - mu(A) mu(B)."""

    value: float
    std_error: float
    mu_A: float
    mu_B: float
    t: int
    n_samples: int
    empty_input: bool = False


def set_correlation(A: list[Cell], B: list[Cell], params: MapParams, t: int,
                    n_samples: int, seed: int) -> CorrelationEstimate:
    """Time-shifted correlation between two cell sets under the map.

    All three measures are estimated from the same seeded uniform sample,
    so A = B = whole torus gives exactly zero. Empty A or B yields
    -mu(A)*mu(B) with the `empty_input` flag raised.
    """
    require_instances("A", A, Cell)
    require_instances("B", B, Cell)
    require_instance("params", params, MapParams)
    require_count("n_samples", n_samples, 10_000)
    require_count("t", t, 0)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(0.0, TWO_PI, n_samples)
    p0 = rng.uniform(0.0, TWO_PI, n_samples)

    in_a = _membership(A, theta0, p0) if A else np.zeros(n_samples, bool)
    in_b0 = _membership(B, theta0, p0) if B else np.zeros(n_samples, bool)
    mu_a = float(np.mean(in_a))
    mu_b = float(np.mean(in_b0))
    empty = (not A) or (not B) or mu_a == 0.0 or mu_b == 0.0

    theta, p = theta0, p0
    for _ in range(t):
        theta, p = _advance(theta, p, params.lam, params.tau)
    in_b_t = _membership(B, theta, p) if B else np.zeros(n_samples, bool)

    inter = float(np.mean(in_a & in_b_t))
    value = inter - mu_a * mu_b
    # conservative error: binomial errors of the three estimated terms
    def se(q):
        return np.sqrt(q * (1.0 - q) / n_samples)
    std_error = float(se(inter) + mu_b * se(mu_a) + mu_a * se(mu_b))
    return CorrelationEstimate(value=value, std_error=std_error, mu_A=mu_a,
                               mu_B=mu_b, t=t, n_samples=n_samples,
                               empty_input=empty)
