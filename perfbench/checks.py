"""Independent checks of every artifact an `ehlab run` writes.

Nothing here imports ehlab. Each oracle recomputes a result from the config
alone, by a different route from the program's:

- the standard map plus tangent map of the benchmark's own, for the scan;
- a closed-form refit, for the cubic-law fit;
- the closed form d^2 = 1/mu - 1/N, for the geometry identity;
- split-step propagation (kick on the angle grid, free phase on the
  momentum ladder, moved between them by FFT), for everything quantum.

Oracles that depend only on inputs no seed changes are cached as .npy files.
Each check raises CheckFailed with a reason, or returns a one-line detail.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from workloads import EVOLVE_BASE_KICKS

TWO_PI = 2.0 * np.pi
# Documented program constants the oracles take as part of the input.
LYAPUNOV_TRANSIENT = 100
SCAN_THRESHOLD = 0.05
FIT_EPS_FACTOR = 0.2
FIT_VARIANCE_FLOOR = 1e-4
LOCALIZATION_BULK = 0.9
GEOMETRY_RANKS_PER_DIM = 8

# Tolerances. The agreement seen on the reference machine is in brackets.
DIST_TOL = 1e-10        # momentum distribution vs split-step [1.1e-12]
TRACE_TOL = 1e-12       # sum exp(-i phi) vs closed-form tr F [2.9e-13]
SERIES_TOL = 1e-10      # c_q(t) - c_q(0) vs split-step population [3.4e-11]
REL_TOL = 1e-9          # refits of closed-form quantities
IDENTITY_TOL = 1e-12    # geometry identity, as the program promises


class CheckFailed(Exception):
    """An artifact disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(name, got, want, rel=REL_TOL, abs_=1e-15):
    got, want = float(got), float(want)
    _require(abs(got - want) <= abs_ + rel * abs(want),
             f"{name} = {got!r}, oracle gives {want!r}")


class OracleCache:
    """Oracle arrays kept as .npy files, keyed by a string of their inputs."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.memo: dict[str, np.ndarray] = {}

    def get(self, key: str, compute) -> np.ndarray:
        if key in self.memo:
            return self.memo[key]
        path = self.directory / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".npy")
        if path.is_file():
            value = np.load(path)
        else:
            value = np.asarray(compute())
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            with open(tmp, "wb") as fh:
                np.save(fh, value)
            os.replace(tmp, path)
        self.memo[key] = value
        return value


# ------------------------------------------------------------ manifest

def check_manifest(out: Path, config: dict, printed: str) -> str:
    """The manifest just written describes this run, and every checksum holds."""
    path = out / "manifest.json"
    _require(printed.strip() == str(path),
             f"ehlab printed {printed.strip()!r}, expected {path}")
    _require(path.is_file(), f"{path} missing")
    manifest = json.loads(path.read_text())
    _require(manifest.get("config") == config, "manifest config echo differs")
    artifacts = manifest.get("artifacts", {})
    _require(artifacts, "manifest lists no artifacts")
    on_disk = {p.name for p in out.iterdir()}
    _require(on_disk == set(artifacts) | {"manifest.json"},
             f"files {sorted(on_disk)} differ from manifest {sorted(artifacts)}")
    for name, digest in artifacts.items():
        _require(hashlib.sha256((out / name).read_bytes()).hexdigest() == digest,
                 f"{name} does not match its manifest checksum")
    return f"{len(artifacts)} artifacts re-hashed"


@functools.lru_cache(maxsize=4)
def _csv(path: Path, header: str) -> np.ndarray:
    """Rows of a harness CSV; parsed once for all checks of one artifact."""
    with open(path) as fh:
        first = fh.readline().strip()
    _require(first == header, f"{path.name} header {first!r} != {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ------------------------------------------------------------ classical

def standard_map_measure(lambdas, grid: int, n_steps: int,
                         threshold: float) -> np.ndarray:
    """Chaotic fraction of a cell-centred grid, for all kick strengths at once.

    p' = p + lam sin(theta), theta' = theta + p' on the 2pi-torus; the
    tangent vector (1, 0) is advanced by the Jacobian at the pre-step point
    and renormalised every step; LYAPUNOV_TRANSIENT steps are discarded.
    """
    centres = (np.arange(grid) + 0.5) * TWO_PI / grid
    theta0, p0 = np.meshgrid(centres, centres, indexing="ij")
    lam = np.asarray(lambdas, dtype=float)[:, None]
    theta = np.broadcast_to(theta0.ravel(), (lam.shape[0], grid * grid)).copy()
    p = np.broadcast_to(p0.ravel(), theta.shape).copy()
    vt, vp = np.ones_like(theta), np.zeros_like(theta)
    log_sum = np.zeros_like(theta)
    for step in range(LYAPUNOV_TRANSIENT + n_steps):
        c = lam * np.cos(theta)
        p = np.remainder(p + lam * np.sin(theta), TWO_PI)
        theta = np.remainder(theta + p, TWO_PI)
        vt, vp = vt + c * vt + vp, c * vt + vp
        norm = np.sqrt(vt * vt + vp * vp)
        vt /= norm
        vp /= norm
        if step >= LYAPUNOV_TRANSIENT:
            log_sum += np.log(norm)
    return np.mean(log_sum / n_steps > threshold, axis=1)


REGION_HEADER = "lambda,mu_A,mu_E,n_samples,threshold,ci_halfwidth"


def check_scan(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    rows = _csv(out / "region_estimates.csv", REGION_HEADER)
    lams = params["lambdas"]
    grid, n_steps = params["grid_side"], params["n_steps"]
    _require(rows.shape[0] == len(lams), f"{rows.shape[0]} rows for {len(lams)} lambdas")
    lam, mu_a, mu_e, n, thr, ci = rows.T
    _require(np.array_equal(lam, lams), "lambda column differs from the config")
    _require(np.all(n == grid * grid), "n_samples != grid_side^2")
    _require(np.all(thr == SCAN_THRESHOLD), "threshold differs from the default")
    _require(np.all(mu_a + mu_e == 1.0), "mu_A + mu_E != 1")
    _require(mu_a[lam == 0.0].tolist() == [0.0], "mu_A(0) != 0")
    want = oracles.get(f"scan {lams!r} {grid} {n_steps} {SCAN_THRESHOLD!r}",
                       lambda: standard_map_measure(lams, grid, n_steps,
                                                    SCAN_THRESHOLD))
    diff = np.abs(mu_a - want)
    bad = np.flatnonzero(diff > ci + 1e-12)
    _require(bad.size == 0,
             f"mu_A further than its CI from the oracle at lambda={lam[bad].tolist()}")
    return (f"max |mu_A - oracle| {int(round(diff.max() * grid * grid))} of "
            f"{grid * grid} points; smallest nonzero CI {ci[ci > 0].min():.3g}")


def check_fit(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    fit = json.loads((out / "fit_result.json").read_text())
    rows = _csv(Path(params["input_csv"]), REGION_HEADER)
    lam, mu, ci = rows[:, 0], rows[:, 1], rows[:, 5]
    lc = fit["lambda_c"]
    _require(lam[lam > 0].min() <= lc <= lam.max(),
             f"lambda_c={lc} outside the scanned range")
    hi = (1.0 + FIT_EPS_FACTOR) * lc
    inside = lam <= hi
    x = lam[inside] / lc
    f = 1.5 * x * x - 0.5 * x ** 3
    w = 1.0 / np.maximum(ci[inside] ** 2, FIT_VARIANCE_FLOOR)
    mu_c = float(np.sum(w * f * mu[inside]) / np.sum(w * f * f))
    rss = float(np.sum((mu[inside] - mu_c * f) ** 2))
    _close("mu_c", fit["mu_c"], mu_c)
    _close("rss", fit["rss"], rss)
    _require(fit["n_points"] == int(inside.sum()),
             f"n_points={fit['n_points']}, window holds {int(inside.sum())}")
    _require(fit["fit_window"][0] == 0.0, "fit window does not start at 0")
    _close("fit_window[1]", fit["fit_window"][1], hi)
    return f"lambda_c={lc:.4f} mu_c={mu_c:.4g} over {int(inside.sum())} points"


def check_geometry(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    rows = _csv(out / "geometry_check.csv", "N,mu,d2,residual")
    n, mu, d2, residual = rows.T
    for dim in params["dims"]:
        count = int(np.sum(n == dim))
        _require(1 <= count <= GEOMETRY_RANKS_PER_DIM, f"{count} rows for N={dim}")
    _require(set(n.tolist()) <= set(params["dims"]), "rows for unrequested N")
    _require(np.all((mu >= 1) & (mu <= n)), "rank outside [1, N]")
    err = float(np.max(np.abs(d2 - (1.0 / mu - 1.0 / n))))
    _require(err <= IDENTITY_TOL, f"|d2 - (1/mu - 1/N)| = {err:.3g}")
    res = float(np.max(np.abs(residual)))
    _require(res <= IDENTITY_TOL, f"|residual| = {res:.3g}")
    _require(np.allclose(residual, (d2 + 1.0 / n) * mu - 1.0, rtol=0, atol=1e-14),
             "residual is not (d2 + 1/N) mu - 1")
    return f"{rows.shape[0]} rows, max |d2 error| {err:.2g}"


# -------------------------------------------------------------- quantum

class SplitStep:
    """One kick F = exp(-i lam cos theta) exp(-i k^2/2), applied by FFT.

    Arrays are indexed by k mod N (numpy FFT order), not by ladder order.
    """

    def __init__(self, dim: int, lam: float):
        half = (dim - 1) // 2
        self.dim = dim
        self.k = np.fft.ifftshift(np.arange(-half, half + 1))
        self.free = np.exp(-0.5j * self.k.astype(float) ** 2)
        self.kick = np.exp(-1j * lam * np.cos(TWO_PI * np.arange(dim) / dim))

    def step(self, a: np.ndarray) -> np.ndarray:
        """F a, for a vector or for the columns of a matrix."""
        if a.ndim == 2:
            angle = np.fft.ifft(self.free[:, None] * a, axis=0, norm="ortho")
            return np.fft.fft(self.kick[:, None] * angle, axis=0, norm="ortho")
        return np.fft.fft(self.kick * np.fft.ifft(self.free * a, norm="ortho"),
                          norm="ortho")

    def basis(self, k: int) -> np.ndarray:
        a = np.zeros(self.dim, dtype=complex)
        a[k % self.dim] = 1.0
        return a

    def trace(self) -> complex:
        """tr F = mean_j exp(-i lam cos theta_j) * sum_k exp(-i k^2/2)."""
        return complex(self.kick.mean() * self.free.sum())

    def matrix(self) -> np.ndarray:
        return self.step(np.eye(self.dim, dtype=complex))


def _propagate(ss: SplitStep, a: np.ndarray, n: int) -> np.ndarray:
    for _ in range(n):
        a = ss.step(a)
    return a


def _evolved_state(oracles, dim, lam, k0, n_kicks):
    """F^n_kicks |k0> in ladder order, continued from a cached checkpoint."""
    ss = SplitStep(dim, lam)
    base = min(n_kicks, EVOLVE_BASE_KICKS)
    start = oracles.get(f"evolve {dim} {lam!r} {k0} {base}",
                        lambda: _propagate(ss, ss.basis(k0), base))
    return np.fft.fftshift(_propagate(ss, start, n_kicks - base))


def check_evolve(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    dim, lam = params["dim"], float(params["lambda"])
    sidecar = json.loads((out / "params.json").read_text())
    for key in ("dim", "lambda", "n_kicks", "initial_k"):
        _require(sidecar[key] == params[key], f"params.json {key} differs")
    dist = _csv(out / "momentum_distribution.csv", "k,p")
    half = (dim - 1) // 2
    _require(np.array_equal(dist[:, 0], np.arange(-half, half + 1)),
             "k column is not the ladder")
    psi = _evolved_state(oracles, dim, lam, params["initial_k"], params["n_kicks"])
    err = float(np.max(np.abs(dist[:, 1] - np.abs(psi) ** 2)))
    _require(err <= DIST_TOL, f"momentum distribution off split-step by {err:.3g}")
    return f"max |p - split-step| {err:.2g}"


def check_spectrum(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    dim = params["dim"]
    spec = _csv(out / "spectrum.csv", "k,phi_k")
    _require(np.array_equal(spec[:, 0], np.arange(dim)), "index column is not 0..N-1")
    phi = spec[:, 1]
    _require(np.all(np.diff(phi) >= 0), "quasi-energies not sorted")
    _require(phi[0] >= 0.0 and phi[-1] < TWO_PI, "quasi-energies outside [0, 2pi)")
    err = abs(np.exp(-1j * phi).sum() - SplitStep(dim, float(params["lambda"])).trace())
    _require(err <= TRACE_TOL, f"|sum exp(-i phi) - tr F| = {err:.3g}")
    return f"|sum exp(-i phi) - tr F| {err:.2g}"


def check_localization(out: Path, config: dict, oracles: OracleCache) -> str:
    dist = _csv(out / "momentum_distribution.csv", "k,p")
    fit = json.loads((out / "localization.json").read_text())
    k, p = np.abs(dist[:, 0]), dist[:, 1]
    use = (k <= LOCALIZATION_BULK * k.max()) & (p > 0)
    design = np.column_stack([np.ones(int(use.sum())), k[use]])
    y = np.log(p[use])
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ [intercept, slope]
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    _close("slope", fit["slope"], slope, rel=1e-8)
    _close("intercept", fit["intercept"], intercept, rel=1e-8)
    _close("r_squared", fit["r_squared"], r2, rel=1e-8)
    _require(slope < 0, "profile does not decay")
    _close("length", fit["length"], -2.0 / slope, rel=1e-8)
    return f"l_s={-2.0 / slope:.2f}"


def _window(ss: SplitStep, spec: dict) -> np.ndarray:
    return (ss.k >= spec["k_lo"]) & (ss.k < spec["k_hi"])


def check_series(out: Path, config: dict, oracles: OracleCache) -> str:
    params = config["parameters"]
    dim, lam, horizon = params["dim"], float(params["lambda"]), params["horizon"]
    _require(params["state"] == {"type": "momentum", "k": 0}, "oracle covers |k=0> only")
    rows = _csv(out / "correlation_series.csv", "t,c_q,cesaro")
    _require(np.array_equal(rows[:, 0], np.arange(horizon)), "t column is not 0..horizon-1")
    ss = SplitStep(dim, lam)
    win = _window(ss, params["observable"])

    def population():
        pop = np.empty(horizon)
        a = ss.basis(0)
        for t in range(horizon):
            pop[t] = np.sum(np.abs(a[win]) ** 2)
            a = ss.step(a)
        return pop

    pop = oracles.get(f"series {dim} {lam!r} {params['observable']!r} {horizon}",
                      population)
    c_q = rows[:, 1]
    err = float(np.max(np.abs((c_q - c_q[0]) - (pop - pop[0]))))
    _require(err <= SERIES_TOL, f"c_q(t) - c_q(0) off split-step by {err:.3g}")
    return f"max |dc_q - dpop| {err:.2g} over {horizon} kicks"


def check_cesaro(out: Path, config: dict, oracles: OracleCache) -> str:
    rows = _csv(out / "correlation_series.csv", "t,c_q,cesaro")
    t, c_q, cesaro = rows.T
    err = float(np.max(np.abs(cesaro - np.cumsum(c_q) / (t + 1))))
    _require(err <= 1e-12, f"cesaro is not the running mean of c_q ({err:.3g})")
    return f"max |cesaro - running mean| {err:.2g}"


def fraction_margins(params: dict, seed: int) -> np.ndarray:
    """tol - max |C_Q| over the tail, per state (rows) and observable (columns).

    F is built column by column by split-step and diagonalised by
    numpy.linalg.eig; each state is carried to the start of the tail by its
    eigen-expansion and then through the tail by split-step.
    """
    dim, lam, horizon = params["dim"], float(params["lambda"]), params["horizon"]
    ss = SplitStep(dim, lam)
    w, v = np.linalg.eig(ss.matrix())
    v /= np.linalg.norm(v, axis=0)
    phi = np.mod(-np.angle(w), TWO_PI)
    states = np.empty((dim, params["n_states"]), dtype=complex)
    for i in range(params["n_states"]):
        rng = np.random.default_rng([seed, i])
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states[:, i] = np.fft.ifftshift(x / np.linalg.norm(x))
    c = np.linalg.solve(v, states)

    def expectation(spec, a):
        """<a|O|a> per column; the diagonal state's value uses a = v."""
        if spec["type"] == "momentum_window":
            return np.sum(np.abs(a[_window(ss, spec)]) ** 2, axis=0)
        if spec["type"] == "cos_theta":
            return np.real(np.sum(np.conj(np.roll(a, -1, axis=0)) * a, axis=0))
        raise ValueError(f"no oracle for observable {spec['type']!r}")

    specs = params["observables"]
    limit = [np.abs(c).T ** 2 @ expectation(s, v) for s in specs]
    start = int(np.ceil(0.9 * horizon))
    a = v @ (np.exp(-1j * phi * start)[:, None] * c)
    peak = np.zeros((params["n_states"], len(specs)))
    for _ in range(start, horizon):
        for j, s in enumerate(specs):
            peak[:, j] = np.maximum(peak[:, j], np.abs(expectation(s, a) - limit[j]))
        a = ss.step(a)
    return params["tol"] - peak


def check_fraction(out: Path, config: dict, oracles: OracleCache) -> str:
    params, seed = config["parameters"], config["seed"]
    got = json.loads((out / "volume_fraction.json").read_text())
    for key in ("dim", "lambda", "n_states", "horizon", "tol"):
        _require(got[key] == params[key], f"volume_fraction.json {key} differs")
    _require(got["seed"] == seed, "volume_fraction.json seed differs")
    margins = oracles.get(f"fraction {params!r} {seed}",
                          lambda: fraction_margins(params, seed))
    passed = np.all(margins > 0, axis=1)
    want = int(passed.sum()) / params["n_states"]
    _require(got["fraction"] == want,
             f"fraction {got['fraction']} != oracle {want} "
             f"(smallest |margin| {float(np.min(np.abs(margins))):.3g})")
    return (f"fraction {want}; per-observable smallest margin "
            f"{np.min(margins, axis=0).round(4).tolist()}, "
            f"smallest |margin| {float(np.min(np.abs(margins))):.3g}")


def checks_for(kind: str):
    """(name, function) pairs run on the output of one config of `kind`."""
    return {
        "classical-scan": [("scan.oracle", check_scan)],
        "transition-fit": [("fit.refit", check_fit)],
        "geometry-check": [("geometry.identity", check_geometry)],
        "quantum-evolve": [("evolve.split_step", check_evolve),
                           ("evolve.spectrum", check_spectrum),
                           ("evolve.localization", check_localization)],
        "correlation-series": [("series.split_step", check_series),
                               ("series.cesaro", check_cesaro)],
        "volume-fraction": [("fraction.oracle", check_fraction)],
    }[kind]
