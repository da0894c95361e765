"""Classical kicked-rotator dynamics on the 2-torus.

Implements the standard (Chirikov) map, tangent-map Lyapunov exponents,
grid classification of the phase space into regular and chaotic regions,
and Monte-Carlo correlations between phase-space sets.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from math import hypot, isfinite

import numpy as np

from .errors import ConfigurationError, is_count

TWO_PI = 2.0 * np.pi

# Iterations discarded before Lyapunov accumulation starts, to remove
# the initial tangent-vector alignment bias.
LYAPUNOV_TRANSIENT = 100

# Default per-kick Lyapunov cutoff separating finite-time noise (~1/sqrt(n))
# from genuine positive exponents at n_steps >= 5000.
DEFAULT_THRESHOLD = 0.05


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


def _centre(x):
    """Reduce x to [-pi, pi] by the odd map x - 2*pi*rint(x / 2*pi).

    The map commutes with negation bit for bit, so an orbit and its
    mirror image stay exact negatives of each other.
    """
    return x - TWO_PI * np.rint(x / TWO_PI)


def _norm(x, y):
    """Euclidean norm of (x, y), for x and y whose squares stay finite."""
    return np.sqrt(x * x + y * y)


def _advance(theta, p, lam: float, tau: float):
    """One standard-map step on scalars or arrays of torus coordinates.

    The momentum is reduced before the angle update so the torus map
    stays invertible for non-integer tau.
    """
    p = _wrap(p + lam * np.sin(theta))
    return _wrap(theta + tau * p), p


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, p) on the torus, both coordinates in [0, 2*pi)."""

    theta: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_wrap(self.theta)))
        object.__setattr__(self, "p", float(_wrap(self.p)))


@dataclass(frozen=True)
class MapParams:
    """Kick strength and kick period of the standard map."""

    lam: float
    tau: float = 1.0

    def __post_init__(self):
        if not (isfinite(self.lam) and isfinite(self.tau)):
            raise ConfigurationError(
                f"lam and tau must be finite, got {self.lam}, {self.tau}")
        if self.lam < 0:
            raise ConfigurationError(f"kick strength must be >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ConfigurationError(f"kick period must be > 0, got {self.tau}")
        # the angle update adds tau * p with |p| < 2 pi, and the tangent
        # image of a unit vector has components bounded by the Jacobian's
        # row sums 1 + tau (1 + lam) and 1 + lam: all must stay finite
        if not (isfinite(TWO_PI * (1.0 + self.tau))
                and isfinite(hypot(1.0 + self.tau * (1.0 + self.lam),
                                   1.0 + self.lam))):
            raise ConfigurationError(
                f"lam = {self.lam}, tau = {self.tau} overflow the map")


@dataclass(frozen=True)
class OrbitClass:
    """Classification of a single orbit with the evidence used."""

    label: str  # "Regular" or "Chaotic"
    lyapunov: float
    n_steps: int
    threshold: float


@dataclass(frozen=True)
class RegionEstimate:
    """Grid estimate of the normalized chaotic measure at one kick strength."""

    lam: float
    mu_A: float
    mu_E: float
    n_samples: int
    threshold: float
    ci_halfwidth: float


def step_map(x: PhasePoint, params: MapParams) -> PhasePoint:
    """One application of p' = p + lam*sin(theta), theta' = theta + tau*p'."""
    return PhasePoint(*_advance(x.theta, x.p, params.lam, params.tau))


def inverse_step_map(x: PhasePoint, params: MapParams) -> PhasePoint:
    """Exact inverse of :func:`step_map` (the map is invertible)."""
    theta_old = x.theta - params.tau * x.p
    p_old = x.p - params.lam * np.sin(theta_old)
    return PhasePoint(theta_old, p_old)


def step_jacobian(x: PhasePoint, params: MapParams) -> np.ndarray:
    """Tangent map d(theta', p')/d(theta, p) at the point x; det = 1."""
    c = params.lam * np.cos(x.theta)
    return np.array([[1.0 + params.tau * c, params.tau], [c, 1.0]])


def _lyapunov_batch(theta, p, params: MapParams, n_steps: int):
    """Largest Lyapunov exponent for arrays of initial conditions.

    Coordinates are kept centred in [-pi, pi], so the batch commutes with
    the inversion (theta, p) -> (-theta, -p) bit for bit: sin is odd and
    cos even. Tangent vectors are renormalized every step to avoid
    overflow; the first LYAPUNOV_TRANSIENT iterations are discarded
    before accumulating.
    """
    theta = _centre(np.asarray(theta, dtype=float))
    p = _centre(np.asarray(p, dtype=float))
    v_theta = np.ones_like(theta)
    v_p = np.zeros_like(theta)
    log_sum = np.zeros_like(theta)
    lam, tau = params.lam, params.tau
    # the Jacobian's absolute entries sum to at most `bound` and its
    # determinant is 1, so a unit vector's image has norm in
    # [1/bound, bound]: below 1e150 its squares neither overflow nor
    # underflow, above it only hypot is safe
    bound = 2.0 + tau + lam * (1.0 + tau)
    norm_of = _norm if bound < 1e150 else np.hypot
    for i in range(LYAPUNOV_TRANSIENT + n_steps):
        c = lam * np.cos(theta)
        # momentum first, as in _advance, so the map stays invertible
        p = _centre(p + lam * np.sin(theta))
        theta = _centre(theta + tau * p)
        # advance the tangent vector with the Jacobian at the pre-step point
        w_theta = (1.0 + tau * c) * v_theta + tau * v_p
        w_p = c * v_theta + v_p
        norm = norm_of(w_theta, w_p)
        v_theta = w_theta / norm
        v_p = w_p / norm
        if i >= LYAPUNOV_TRANSIENT:
            log_sum += np.log(norm)
    return log_sum / n_steps


def lyapunov_exponent(x0: PhasePoint, params: MapParams, n_steps: int) -> float:
    """Largest Lyapunov exponent (per kick) from the tangent-map method."""
    if not is_count(n_steps) or n_steps < 1000:
        raise ConfigurationError(
            f"n_steps must be an integer >= 1000, got {n_steps!r}")
    return float(_lyapunov_batch(np.array([x0.theta]), np.array([x0.p]),
                                 params, n_steps)[0])


def classify_orbit(x0: PhasePoint, params: MapParams, n_steps: int,
                   threshold: float = DEFAULT_THRESHOLD) -> OrbitClass:
    """Chaotic iff the Lyapunov exponent exceeds the threshold.

    Exact ties are classified Regular (conservative toward the
    integrable side).
    """
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    expo = lyapunov_exponent(x0, params, n_steps)
    label = "Chaotic" if expo > threshold else "Regular"
    return OrbitClass(label=label, lyapunov=expo, n_steps=n_steps,
                      threshold=threshold)


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


def _grid_exponents(params: MapParams, grid_side: int, n_steps: int):
    """Lyapunov exponents over the flat centred grid, one orbit per mirror
    pair.

    The map commutes with (theta, p) -> (-theta, -p), and the flat grid
    reversed is its mirror image. One orbit of each pair of exact negatives
    is integrated and its exponent copied to the partner; a point whose
    negative is off the grid is integrated itself.
    """
    theta, p = _centred_grid(grid_side)
    n = theta.size
    own = (theta != -theta[::-1]) | (p != -p[::-1]) | (np.arange(n) < n // 2)
    exponents = np.empty(n)
    exponents[own] = _lyapunov_batch(theta[own], p[own], params, n_steps)
    return np.where(own, exponents, exponents[::-1])


def estimate_chaotic_measure(params: MapParams, grid_side: int, n_steps: int,
                             threshold: float = DEFAULT_THRESHOLD) -> RegionEstimate:
    """Fraction of a uniform grid of initial conditions that is chaotic.

    Uses the uniform (Lebesgue) measure on the 2pi x 2pi torus normalized
    to 1; mu_A + mu_E = 1 by complementary counting. The 95% binomial
    confidence half-width is attached. The grid is cell-centred, which
    avoids the measure-zero fixed lines at 0; about half its orbits are
    integrated, the rest are their mirror images.
    """
    if not is_count(grid_side) or grid_side < 16:
        raise ConfigurationError(
            f"grid_side must be an integer >= 16, got {grid_side!r}")
    if not is_count(n_steps) or n_steps < 1:
        raise ConfigurationError(
            f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    exponents = _grid_exponents(params, grid_side, n_steps)
    n = grid_side * grid_side
    n_chaotic = int(np.count_nonzero(exponents > threshold))
    mu_a = n_chaotic / n
    ci = 1.96 * np.sqrt(mu_a * (1.0 - mu_a) / n)
    return RegionEstimate(lam=params.lam, mu_A=mu_a, mu_E=1.0 - mu_a,
                          n_samples=n, threshold=threshold,
                          ci_halfwidth=float(ci))


@dataclass(frozen=True)
class Cell:
    """A rectangle [theta_min, theta_max) x [p_min, p_max) on the torus."""

    theta_min: float
    theta_max: float
    p_min: float
    p_max: float

    def contains(self, theta, p):
        return ((theta >= self.theta_min) & (theta < self.theta_max)
                & (p >= self.p_min) & (p < self.p_max))


_CELL_KEYS = ("theta_min", "theta_max", "p_min", "p_max")


def _cell(index: int, spec) -> Cell:
    """A Cell from one parsed JSON object whose four bounds are finite
    numbers."""
    if not isinstance(spec, dict) or not all(k in spec for k in _CELL_KEYS):
        raise ConfigurationError(
            f"cell {index} must be an object with keys {', '.join(_CELL_KEYS)}")
    bounds = [spec[k] for k in _CELL_KEYS]
    for x in bounds:
        # the magnitude test also rejects NaN and ints too large for a float
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or not abs(x) <= sys.float_info.max):
            raise ConfigurationError(
                f"cell {index}: bound {x!r} is not a finite number")
    return Cell(*(float(x) for x in bounds))


def cells_from_json(text: str) -> list[Cell]:
    """Parse a JSON array of {theta_min, theta_max, p_min, p_max} objects
    whose bounds are finite numbers."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(f"cell set is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ConfigurationError("cell set must be a JSON array")
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
    if not is_count(n_samples) or n_samples < 10_000:
        raise ConfigurationError(
            f"n_samples must be an integer >= 10^4, got {n_samples!r}")
    if not is_count(t) or t < 0:
        raise ConfigurationError(f"t must be an integer >= 0, got {t!r}")
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
