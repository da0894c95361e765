"""Configuration-driven experiment runner.

One JSON config describes one experiment; all artifacts are CSV/JSON
files written to the configured output directory, followed by a manifest
(config echo, wall time, artifact checksums) as the completion marker.
Reruns with identical config and seed produce byte-identical CSVs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, geometry, quantum, transition
from .errors import ConfigurationError

KINDS = ("classical-scan", "transition-fit", "quantum-evolve",
         "correlation-series", "volume-fraction", "geometry-check")

REGION_CSV_HEADER = "lambda,mu_A,mu_E,n_samples,threshold,ci_halfwidth"


def _fmt(x) -> str:
    """Round-trip-safe numeric formatting (17 significant digits)."""
    return format(float(x), ".17g")


def max_threads() -> int:
    raw = os.environ.get("EHLAB_THREADS", "")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigurationError(f"EHLAB_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ConfigurationError("EHLAB_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    kind: str
    parameters: dict
    seed: int = 0
    output_dir: str = "."
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ConfigurationError(
                f"field 'kind' must be one of {KINDS}, got {kind!r}")
        params = raw.get("parameters")
        if not isinstance(params, dict):
            raise ConfigurationError("field 'parameters' must be an object")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigurationError("field 'seed' must be an integer >= 0")
        out = raw.get("output_dir", ".")
        if not isinstance(out, str):
            raise ConfigurationError("field 'output_dir' must be a string")
        return cls(kind=kind, parameters=params, seed=seed, output_dir=out,
                   raw=raw)


_REQUIRED = object()


def _check(name: str, val, typ, what: str):
    """Return `val` as a `typ` or raise a ConfigurationError.

    An int stands for a float, a bool is never a number, and a float
    must be finite (JSON admits NaN and Infinity).
    """
    is_number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if typ is float and is_number:
        try:
            val = float(val)
        except OverflowError:
            val = math.inf
    ok = isinstance(val, typ) and (typ is bool or not isinstance(val, bool))
    if not ok or (typ is float and not math.isfinite(val)):
        raise ConfigurationError(f"{name} must be {what}, got {val!r}")
    return val


def _need(params: dict, key: str, typ, what: str, default=_REQUIRED):
    """Read `params[key]` as a `typ`, or `default` when the key is absent."""
    if key not in params:
        if default is _REQUIRED:
            raise ConfigurationError(f"parameters.{key} is required ({what})")
        return default
    return _check(f"parameters.{key}", params[key], typ, what)


def _need_list(params: dict, key: str, typ, what: str) -> list:
    """Read `params[key]` as a list whose entries are each a `typ`."""
    items = _need(params, key, list, f"a list, each entry {what}")
    return [_check(f"parameters.{key}[{i}]", v, typ, what)
            for i, v in enumerate(items)]


def _observable_from_spec(spec: dict, dim: int, hbar: float) -> quantum.ObservableMatrix:
    kind = _need(spec, "type", str, "an observable type")
    if kind == "momentum_window":
        return quantum.momentum_window_projector(
            dim, _need(spec, "k_lo", float, "a number"),
            _need(spec, "k_hi", float, "a number"), hbar=hbar)
    if kind == "cos_theta":
        return quantum.cos_theta_observable(dim)
    if kind == "l_squared":
        return quantum.l_squared_observable(dim, hbar=hbar)
    raise ConfigurationError(f"unknown observable type {kind!r}")


def _quantum_params(params: dict) -> quantum.QuantumParams:
    return quantum.QuantumParams(
        dim=_need(params, "dim", int, "an odd integer"),
        lam=_need(params, "lambda", float, "a number"),
        hbar=_need(params, "hbar", float, "a number > 0", 1.0),
        tau=_need(params, "tau", float, "a number > 0", 1.0))


class _Artifacts:
    """Collects finished artifact payloads; nothing touches disk until
    the whole experiment has computed successfully."""

    def __init__(self):
        self.files: dict[str, bytes] = {}

    def add_text(self, name: str, text: str):
        self.files[name] = text.encode()

    def add_csv(self, name: str, header: str, rows):
        lines = [header]
        lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) for row in rows)
        self.add_text(name, "\n".join(lines) + "\n")

    def add_json(self, name: str, payload):
        self.add_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write(self, out_dir: Path) -> dict[str, str]:
        checksums = {}
        for name, blob in self.files.items():
            _write_atomic(out_dir / name, blob)
            checksums[name] = hashlib.sha256(blob).hexdigest()
        return checksums


def _write_atomic(path: Path, blob: bytes):
    """Write `blob` to a temp file beside `path`, then rename it into place.

    An OSError becomes a ConfigurationError naming `path`; the temp file
    is removed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- kinds

def _run_classical_scan(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    lambdas = _need_list(p, "lambdas", float, "a kick strength >= 0")
    grid_side = _need(p, "grid_side", int, "an integer >= 16")
    n_steps = _need(p, "n_steps", int, "an integer >= 1")
    threshold = _need(p, "threshold", float, "a number > 0",
                      classical.DEFAULT_THRESHOLD)
    tau = _need(p, "tau", float, "a number > 0", 1.0)
    param_list = [classical.MapParams(lam, tau) for lam in lambdas]
    if grid_side < 16:
        raise ConfigurationError("parameters.grid_side must be >= 16")
    if threshold <= 0:
        raise ConfigurationError("parameters.threshold must be > 0")

    def one(mp):
        return classical.estimate_chaotic_measure(mp, grid_side, n_steps,
                                                  threshold)
    with ThreadPoolExecutor(max_workers=max_threads()) as pool:
        estimates = list(pool.map(one, param_list))
    rows = [(est.lam, est.mu_A, est.mu_E, est.n_samples, est.threshold,
             est.ci_halfwidth) for est in estimates]
    art.add_csv("region_estimates.csv", REGION_CSV_HEADER,
                [tuple(float(v) if not isinstance(v, int) else v for v in r)
                 for r in rows])


def read_region_csv(path) -> list[tuple[float, float, float]]:
    """(lambda, mu_A, ci_halfwidth) triples from a region-estimate CSV."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != REGION_CSV_HEADER:
        raise ConfigurationError(f"{path} is not a region-estimate CSV")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigurationError(f"{path}:{i}: expected 6 columns, "
                                     f"got {len(parts)}")
        out.append((float(parts[0]), float(parts[1]), float(parts[5])))
    return out


def _run_transition_fit(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    csv_path = _need(p, "input_csv", str, "a path to a region-estimate CSV")
    if not Path(csv_path).is_file():
        raise ConfigurationError(f"parameters.input_csv: no such file {csv_path}")
    samples = read_region_csv(csv_path)
    eps_factor = _need(p, "eps_factor", float, "a number",
                       transition.FIT_EPS_FACTOR)
    fit = transition.fit_transition(samples, eps_factor=eps_factor)
    art.add_json("fit_result.json", fit.as_dict())


def _run_quantum_evolve(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    qp = _quantum_params(p)
    n_kicks = _need(p, "n_kicks", int, "an integer >= 0")
    if n_kicks < 0:
        raise ConfigurationError("parameters.n_kicks must be >= 0")
    initial_k = _need(p, "initial_k", int, "an integer", 0)
    system = quantum.build_floquet(qp)
    ladder = quantum.momentum_ladder(qp.dim)
    psi0 = np.zeros(qp.dim, dtype=complex)
    idx = np.flatnonzero(ladder == initial_k)
    if idx.size == 0:
        raise ConfigurationError(f"parameters.initial_k={initial_k} not on ladder")
    psi0[idx[0]] = 1.0
    psi = quantum.evolve_vector(psi0, system, n_kicks)
    probs = np.abs(psi) ** 2
    probs /= probs.sum()
    dist = list(zip(ladder.tolist(), probs.tolist()))
    fit = quantum.localization_fit(dist)
    art.add_csv("momentum_distribution.csv", "k,p",
                [(k, float(prob)) for k, prob in dist])
    art.add_csv("spectrum.csv", "k,phi_k",
                [(i, float(phi)) for i, phi in enumerate(system.quasi_energies)])
    art.add_json("localization.json", {
        "length": fit.length if np.isfinite(fit.length) else "inf",
        "slope": fit.slope, "intercept": fit.intercept,
        "r_squared": fit.r_squared})
    art.add_json("params.json", _sidecar(qp, config.seed,
                                         {"n_kicks": n_kicks,
                                          "initial_k": initial_k}))


def _sidecar(qp: quantum.QuantumParams, seed: int, extra: dict) -> dict:
    payload = {"dim": qp.dim, "lambda": qp.lam, "hbar": qp.hbar,
               "tau": qp.tau, "seed": seed}
    payload.update(extra)
    return payload


def _run_correlation_series(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    qp = _quantum_params(p)
    horizon = _need(p, "horizon", int, "an integer >= 2")
    obs_spec = _need(p, "observable", dict, "an observable spec object")
    obs = _observable_from_spec(obs_spec, qp.dim, qp.hbar)
    allow_deg = _need(p, "allow_degenerate", bool, "a boolean", True)
    state_spec = _need(p, "state", dict, "a state spec object",
                       {"type": "haar"})
    state_type = _need(state_spec, "type", str, "a state type")
    if state_type == "momentum":
        rho0 = quantum.momentum_eigenstate(
            qp.dim, _need(state_spec, "k", int, "an integer", 0))
    elif state_type == "haar":
        rho0 = quantum.haar_random_pure(qp.dim,
                                        np.random.default_rng(config.seed))
    else:
        raise ConfigurationError(f"unknown state type {state_type!r}")
    system = quantum.build_floquet(qp)
    series = quantum.correlation_series(rho0, system, obs, horizon,
                                        allow_degenerate=allow_deg)
    art.add_csv("correlation_series.csv", "t,c_q,cesaro",
                [(int(t), float(c), float(m))
                 for t, c, m in zip(series.times, series.c_q, series.cesaro)])
    art.add_json("params.json", _sidecar(qp, config.seed, {
        "horizon": horizon, "observable": obs.label,
        "degenerate_pairs": len(system.degeneracy_flags)}))


def _run_volume_fraction(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    qp = _quantum_params(p)
    n_states = _need(p, "n_states", int, "an integer >= 100")
    horizon = _need(p, "horizon", int, "an integer >= 2")
    tol = _need(p, "tol", float, "a number > 0")
    obs_specs = _need_list(p, "observables", dict, "an observable spec object")
    o_set = [_observable_from_spec(s, qp.dim, qp.hbar) for s in obs_specs]
    system = quantum.build_floquet(qp)
    frac = quantum.mixing_volume_fraction(system, o_set, n_states, horizon,
                                          tol, config.seed)
    art.add_json("volume_fraction.json", _sidecar(qp, config.seed, {
        "n_states": n_states, "horizon": horizon, "tol": tol,
        "fraction": frac, "observables": [o.label for o in o_set]}))


def _run_geometry_check(config: ExperimentConfig, art: _Artifacts):
    p = config.parameters
    dims = _need_list(p, "dims", int, "an integer >= 2")
    ranks_per_dim = _need(p, "ranks_per_dim", int, "an integer >= 1", 8)
    if ranks_per_dim < 1:
        raise ConfigurationError("parameters.ranks_per_dim must be >= 1")
    rng = np.random.default_rng(config.seed)
    rows = []
    for n in dims:
        if n < 2:
            raise ConfigurationError("parameters.dims entries must be >= 2")
        ranks = sorted(set(int(r) for r in
                           rng.integers(1, n + 1, size=ranks_per_dim)))
        for mu in ranks:
            proj = geometry.RegionProjector(dim=n, indices=tuple(range(mu)))
            check = geometry.verify_theorem2(proj)
            rows.append((n, mu, float(check.d_squared), float(check.residual)))
    art.add_csv("geometry_check.csv", "N,mu,d2,residual", rows)


_RUNNERS = {
    "classical-scan": _run_classical_scan,
    "transition-fit": _run_transition_fit,
    "quantum-evolve": _run_quantum_evolve,
    "correlation-series": _run_correlation_series,
    "volume-fraction": _run_volume_fraction,
    "geometry-check": _run_geometry_check,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and write its artifacts plus a manifest.

    All artifacts are computed in memory first, so an invalid config or
    a numeric failure never leaves partial output files behind. Any old
    manifest is removed before the first write and each file is replaced
    whole, so `manifest.json` is present only after a complete write.
    """
    art = _Artifacts()
    start = time.perf_counter()
    _RUNNERS[config.kind](config, art)
    wall = time.perf_counter() - start
    out_dir = Path(config.output_dir)
    manifest_path = out_dir / "manifest.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot prepare {out_dir}: {exc}") from exc
    checksums = art.write(out_dir)
    manifest = {
        "config": config.raw or {
            "kind": config.kind, "parameters": config.parameters,
            "seed": config.seed, "output_dir": config.output_dir},
        "artifacts": checksums,
        "wall_time_s": wall,
    }
    _write_atomic(manifest_path,
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    manifest["manifest_path"] = str(manifest_path)
    return manifest


# ------------------------------------------------------------- plotting

_GNUPLOT_PREAMBLE = 'set datafile separator ","\nset key top left\n'


def emit_plot_scripts(manifest_path) -> list[str]:
    """Write gnuplot scripts for the figures supported by a manifest.

    Returns the script paths. An empty manifest is a warned no-op;
    a referenced CSV that has gone missing is a configuration error.
    """
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read manifest {manifest_path}: {exc}")
    artifacts = manifest.get("artifacts", {})
    if not artifacts:
        warnings.warn("manifest lists no artifacts; nothing to plot")
        return []
    base = path.parent
    for name in artifacts:
        if name.endswith(".csv") and not (base / name).is_file():
            raise ConfigurationError(f"artifact {name} referenced by manifest "
                                     f"is missing from {base}")
    kind = manifest.get("config", {}).get("kind")
    scripts = []

    if kind == "classical-scan":
        lines = [_GNUPLOT_PREAMBLE,
                 'set xlabel "lambda"\nset ylabel "mu(A)"\n']
        fit_file = base / "fit_result.json"
        plot = ('plot "region_estimates.csv" skip 1 using 1:2:($6) '
                'with yerrorbars title "measured"')
        if fit_file.is_file():
            fit = json.loads(fit_file.read_text())
            lc, mc = fit["lambda_c"], fit["mu_c"]
            lines.append(f"lc = {lc}\nmc = {mc}\n"
                         "cubic(x) = mc*(1.5*(x/lc)**2 - 0.5*(x/lc)**3)\n")
            plot += ', cubic(x) title "cubic fit"'
        lines.append(plot + "\n")
        scripts.append(_write_script(base / "plot_mu_vs_lambda.gp", lines))
    elif kind == "quantum-evolve":
        lines = [_GNUPLOT_PREAMBLE,
                 'set xlabel "|k|"\nset ylabel "ln p(k)"\n',
                 'plot "momentum_distribution.csv" skip 1 '
                 'using (abs($1)):(log($2)) title "momentum distribution"\n']
        scripts.append(_write_script(base / "plot_localization.gp", lines))
    elif kind == "correlation-series":
        lines = [_GNUPLOT_PREAMBLE,
                 'set xlabel "t"\n',
                 'plot "correlation_series.csv" skip 1 using 1:2 with lines '
                 'title "C_Q", "correlation_series.csv" skip 1 using 1:3 '
                 'with lines title "Cesaro average"\n']
        scripts.append(_write_script(base / "plot_correlation.gp", lines))
    return scripts


def _write_script(path: Path, lines) -> str:
    path.write_text("".join(lines))
    return str(path)
