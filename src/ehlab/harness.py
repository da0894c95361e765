"""Configuration-driven experiment runner.

One JSON config describes one experiment; all artifacts are CSV/JSON
files written to the configured output directory, followed by a manifest
(config echo, wall time, artifact checksums) as the completion marker.
Reruns with identical config and seed produce byte-identical CSVs.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, geometry, quantum, transition
from .errors import ConfigurationError, is_count, is_real, require_count

REGION_CSV_HEADER = "lambda,mu_A,mu_E,n_samples,threshold,ci_halfwidth"
# CSV rows formatted per chunk; bounds the working arrays a long CSV needs.
_CSV_ROWS = 4096
# glibc's malloc_trim, where the C library has one
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if os.name == "posix" else None)


def max_threads() -> int:
    """The CPUs this process may run on, capped by EHLAB_THREADS if set."""
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    raw = os.environ.get("EHLAB_THREADS", "")
    if not raw:
        return usable
    try:
        raw = int(raw)
    except ValueError:
        pass  # the count check refuses the text itself
    return min(require_count("EHLAB_THREADS", raw, 1), usable)


@dataclass
class ExperimentConfig:
    kind: str
    parameters: dict
    seed: int = 0
    output_dir: str = "."
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_load(path, json.loads))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        top = _read(raw, _CONFIG, "config")
        if top["kind"] not in KINDS:
            raise ConfigurationError(
                f"config.kind must be one of {KINDS}, got {top['kind']!r}")
        return cls(**top, raw=raw)


# ------------------------------------------------------------ parameters
#
# A parameter table maps each key of a config object to its rule: a type
# marks a required key, [rule] a required list, a _Spec a nested spec
# object, and any other value is the default of an optional key of that
# value's type. A key the table does not list is a configuration error.


@dataclass(frozen=True)
class _Spec:
    """A nested spec object whose "type" picks one of `tables`; an absent
    spec reads as `default`, and without a default it is required."""
    tables: dict
    default: dict | None = None


_OBSERVABLE = _Spec({"momentum_window": {"k_lo": float, "k_hi": float},
                     "cos_theta": {}, "l_squared": {}})
_STATE = _Spec({"momentum": {"k": 0}, "haar": {}}, default={"type": "haar"})
_QUANTUM = {"dim": int, "lambda": float, "hbar": 1.0, "tau": 1.0}
_CONFIG = {"kind": str, "parameters": dict, "seed": 0, "output_dir": "."}

# lower bounds that no library call checks; a list bound holds per entry
_AT_LEAST = {"seed": 0, "n_kicks": 0, "ranks_per_dim": 1, "dims": 2}
_NUMBERS = {int: "a 64-bit integer", float: "a finite number or a 64-bit integer"}


def _check(name: str, val, typ):
    """Return `val` as a `typ` or raise a ConfigurationError.

    Numbers follow the package's rule (errors.is_count, errors.is_real):
    an int is a count and stands for a float too, and a float must be
    finite (JSON admits NaN and Infinity).
    """
    number = is_count(val) or typ is float and isinstance(val, float) and is_real(val)
    if not (number if typ in _NUMBERS else isinstance(val, typ)):
        what = _NUMBERS.get(typ, f"of type {typ.__name__}")
        raise ConfigurationError(f"{name} must be {what}, got {val!r}")
    return float(val) if typ is float else val


def _read(spec, table: dict, where: str) -> dict:
    """Validate the object `spec` against a parameter table.

    Returns a new dict with every key of the table, defaults filled in.
    """
    _check(where, spec, dict)
    unknown = [key for key in spec if key not in table]
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown keys {unknown}; known keys are {list(table)}")
    out = {}
    for key, rule in table.items():
        name = f"{where}.{key}"
        if key in spec:
            out[key] = _value(name, spec[key], rule)
        elif isinstance(rule, _Spec) and rule.default is not None:
            out[key] = _value(name, rule.default, rule)
        elif isinstance(rule, (type, list, _Spec)):
            raise ConfigurationError(f"{name} is required")
        else:
            out[key] = rule
        low = _AT_LEAST.get(key)
        if low is not None:
            for v in out[key] if isinstance(rule, list) else [out[key]]:
                if v < low:
                    raise ConfigurationError(f"{name} must be >= {low}, got {v}")
    return out


def _value(name: str, val, rule):
    """`val` checked against one table rule."""
    if isinstance(rule, list):
        return [_value(f"{name}[{i}]", v, rule[0])
                for i, v in enumerate(_check(name, val, list))]
    if isinstance(rule, _Spec):
        kind = _check(name, val, dict).get("type")
        if not isinstance(kind, str) or kind not in rule.tables:
            raise ConfigurationError(f"{name}.type must be one of "
                                     f"{list(rule.tables)}, got {kind!r}")
        return _read(val, {"type": str, **rule.tables[kind]}, name)
    return _check(name, val, rule if isinstance(rule, type) else type(rule))


def _observable(spec: dict, qp: quantum.QuantumParams) -> quantum.ObservableMatrix:
    if spec["type"] == "momentum_window":
        return quantum.momentum_window_projector(qp.dim, spec["k_lo"],
                                                 spec["k_hi"], hbar=qp.hbar)
    if spec["type"] == "cos_theta":
        return quantum.cos_theta_observable(qp.dim)
    return quantum.l_squared_observable(qp.dim, hbar=qp.hbar)


def _quantum_params(p: dict) -> quantum.QuantumParams:
    return quantum.QuantumParams(dim=p["dim"], lam=p["lambda"],
                                 hbar=p["hbar"], tau=p["tau"])


class _Artifacts:
    """Collects finished artifacts: JSON payloads as their bytes, CSVs as
    their validated columns, formatted only as `write` writes them.
    Nothing touches disk until the whole experiment has computed
    successfully."""

    def __init__(self):
        # name -> the bytes of a JSON artifact, or a CSV's (header, columns)
        self.files: dict[str, bytes | tuple[str, list]] = {}

    def add_csv(self, name: str, header: str, columns):
        """A CSV of one line per row of the equal-length `columns`, each a
        1-D float or integer numpy array of at most 64 bits: '%.17g' % v
        (round-trip safe) for a float and str(v) for an integer, both by
        one '%.17g' kernel (`_cells`). Any other column is a TypeError.
        The columns are kept, not copied, until `write` formats them."""
        columns = list(columns)
        for i, col in enumerate(columns):
            if not (isinstance(col, np.ndarray) and col.ndim == 1
                    and col.dtype.kind in "fiu" and col.dtype.itemsize <= 8):
                raise TypeError(f"{name}: column {i} is not a 1-D float or "
                                f"integer array: {type(col).__name__} "
                                f"{getattr(col, 'dtype', '')}")
        lengths = [len(col) for col in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"{name}: columns differ in length: {lengths}")
        self.files[name] = (header, columns)

    def add_json(self, name: str, payload):
        self.files[name] = _json_bytes(payload)

    def chunks(self, name: str):
        """The bytes of artifact `name` in order: a CSV's header line, then
        its lines _CSV_ROWS rows at a time (`_csv_rows`)."""
        item = self.files[name]
        if isinstance(item, bytes):
            yield item
            return
        header, columns = item
        yield (header + "\n").encode()
        for lo in range(0, len(columns[0]) if columns else 0, _CSV_ROWS):
            yield _csv_rows([col[lo:lo + _CSV_ROWS] for col in columns])

    def write(self, out_dir: Path) -> dict[str, str]:
        """Write every artifact chunk by chunk; their sha256 by name."""
        return {name: _write_atomic(out_dir / name, self.chunks(name))
                for name in self.files}


def _json_bytes(payload) -> bytes:
    """The artifact and manifest encoding of a JSON payload."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


# ------------------------------------------------------------ CSV cells
#
# The cells of a column chunk are the rows of a uint8 matrix, each cell's
# ASCII bytes padded with NULs, which no cell holds. A number is laid out
# from its source row of 34 bytes, its 20 decimal digits (zero padded) and
# then _ASCII, by a table of source columns per layout key.

_ASCII = np.frombuffer(b"0123456789.-e\0", np.uint8)
_ZERO, _DOT, _MINUS, _E, _NUL = 20, 30, 31, 32, 33  # source columns of _ASCII
# the four ASCII digits of 0 .. 9999
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).astype(
    np.uint8, order="C")
_POW5 = np.cumprod(np.r_[1, np.full(27, 5)]).astype(np.uint64)  # 5**0 .. 5**27
_M32 = 0xFFFF_FFFF


def _float_layout() -> np.ndarray:
    """Source columns of '%.17g' per key ((X + 10) * 2 + negative) * 17 +
    kept - 1: the first `kept` of 17 significant digits (source columns
    3..19) at %e exponent X in [-10, 12], NUL padded to 23. A row is laid
    out once per (X, kept) and again after a minus sign."""
    rows, nul, minus = [], bytes([_NUL]), bytes([_MINUS])
    for x in range(-10, 13):
        cells = []
        for kept in range(1, 18):
            d = list(range(3, 3 + max(kept, x + 1)))  # digit columns
            if x >= 0:  # ddd.ddd
                cell = d[:x + 1] + ([_DOT] + d[x + 1:] if kept > x + 1 else [])
            elif x >= -4:  # 0.000ddd
                cell = [_ZERO, _DOT] + [_ZERO] * (-1 - x) + d
            else:  # d.ddde-XX
                cell = d[:1] + ([_DOT] + d[1:] if kept > 1 else []) + [
                    _E, _MINUS, _ZERO + (-x) // 10, _ZERO + (-x) % 10]
            cells.append(bytes(cell))
        rows += [c.ljust(23, nul) for c in cells]
        rows += [(minus + c).ljust(23, nul) for c in cells]
    return np.frombuffer(b"".join(rows), np.uint8).reshape(-1, 23)


_FLOAT_LAYOUT = _float_layout()


def _csv_rows(columns) -> np.ndarray:
    """The bytes of the CSV lines of equal-length column chunks."""
    cells = [_cells(col) for col in columns]
    rows = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    at = 0
    for c in cells:
        rows[:, at:at + c.shape[1]] = c
        at += c.shape[1] + 1
        rows[:, at - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[rows != 0]


def _cells(col: np.ndarray) -> np.ndarray:
    """The cells of one column chunk, read once as float64. Cells with
    1e-10 <= |v| < 1e13 go through `_float_cells`; an integer there is
    exact as a double, and its '%.17g' is its str(). Every other cell is
    formatted alone: '%.17g' % v in a float column, str(v) of the original
    value in an integer one, so int64 and uint64 past 2**53 stay exact."""
    x = col.astype(np.float64, copy=False)
    a = np.abs(x)
    ok = (a >= 1e-10) & (a < 1e13)
    if ok.all():
        return _float_cells(x)
    kernel = _float_cells(x[ok])
    rest = col[~ok].tolist()
    text = np.array(["%.17g" % v for v in rest] if col.dtype.kind == "f"
                    else [str(v) for v in rest], "S")
    cells = np.zeros((len(x), max(kernel.shape[1], text.itemsize)), np.uint8)
    cells[ok, :kernel.shape[1]] = kernel
    cells[~ok, :text.itemsize] = text.view(np.uint8).reshape(len(text), -1)
    return cells


def _source(u: np.ndarray) -> np.ndarray:
    """The source rows of the uint64 `u` < 10**17: 20 ASCII digits each,
    zero padded, then _ASCII."""
    quads, rest = np.empty((len(u), 5), np.uint64), u.copy()
    for j, p in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        quads[:, j] = rest // p  # the first below 10
        rest -= quads[:, j] * p
    quads[:, 4] = rest
    src = np.empty((len(u), 34), np.uint8)
    src[:, :20] = _QUADS.view(np.uint32).take(quads, mode="clip").view(
        np.uint8).reshape(-1, 20)
    src[:, 20:] = _ASCII
    return src


def _float_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each entry of a float64 array, all in 1e-10 <= |v| <
    1e13 (`_cells` formats the rest). There v * 10**k, k = 16 - floor(log10
    |v|) in [4, 26], has a 17-digit integer part: with v = m * 2**e for the
    53-bit m, that part is m * 5**k >> -(e + k), and 5**27 < 2**63 keeps
    the product in two uint64 words. It is rounded half to even. No double
    of the domain lies within half a unit of the 17th digit below a power
    of ten, so none rounds up to 18 digits."""
    bits = x.view(np.uint64)
    m = (bits & (2 ** 52 - 1)) | 2 ** 52  # with the implicit leading bit
    e = (bits >> 52 & 0x7FF).astype(np.int64) - 1075
    k = 16 - np.floor(np.log10(np.abs(x))).astype(np.int64)
    # k from the truncated digits, in [3, 27] at first: log10 may put it one
    # off next to a power of 10
    d, up = _scaled(m, e, k)
    off = (d < 10 ** 16).astype(np.int64) - (d >= 10 ** 17)
    bad = np.flatnonzero(off)
    if len(bad):
        k[bad] += off[bad]
        d[bad], up[bad] = _scaled(m[bad], e[bad], k[bad])
    src = _source(d + up)
    tz = np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)  # trailing zeros
    keys = ((26 - k) * 2 + (x < 0)) * 17 + 16 - tz  # %e exponent 16 - k
    idx = _FLOAT_LAYOUT.take(keys, axis=0, mode="clip") + np.arange(
        0, src.size, src.shape[1], dtype=np.intp)[:, None]
    return src.ravel().take(idx, mode="clip")


def _scaled(m, e, k):
    """floor(m * 2**e * 10**k) and whether it rounds up, half to even;
    s = -(e + k) must lie in [1, 63] and m * 5**k >> s below 2**64."""
    s = (-(e + k)).astype(np.uint64)
    f = _POW5[k]
    ml, mh, fl, fh = m & _M32, m >> 32, f & _M32, f >> 32
    ll = ml * fl
    mid = ml * fh + mh * fl + (ll >> 32)  # < 2**63 + 2**53 + 2**32
    lo = mid << 32 | ll & _M32
    hi = mh * fh + (mid >> 32)
    d = hi << 64 - s | lo >> s
    rest = lo & (1 << s) - 1
    half = 1 << s - 1
    return d, (rest > half) | (rest == half) & (d & 1 == 1)


def _load(path, parse):
    """`parse` applied to the UTF-8 text of `path`; an unreadable file, a
    ValueError from `parse` or too deep JSON is a ConfigurationError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _write_atomic(path: Path, chunks) -> str:
    """Write the bytes-like `chunks` to a temp file beside `path`, then
    rename it into place; the sha256 of the bytes written.

    An OSError, or a MemoryError while a chunk is made, becomes a
    ConfigurationError naming `path`; the temp file is removed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)
        os.replace(tmp, path)
    except (OSError, MemoryError) as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigurationError(f"cannot write {path}: "
                                 f"{str(exc) or type(exc).__name__}") from exc
    return digest.hexdigest()


# ---------------------------------------------------------------- kinds

def _run_classical_scan(p: dict, seed: int, art: _Artifacts):
    param_list = [classical.MapParams(lam, p["tau"]) for lam in p["lambdas"]]
    estimates = classical.estimate_chaotic_measures(
        param_list, p["grid_side"], p["n_steps"], p["threshold"],
        threads=max_threads())
    art.add_csv("region_estimates.csv", REGION_CSV_HEADER, [
        np.array([getattr(est, key) for est in estimates])
        for key in ("lam", "mu_A", "mu_E", "n_samples", "threshold", "ci_halfwidth")])


def read_region_csv(path) -> list[tuple[float, float, float]]:
    """(lambda, mu_A, ci_halfwidth) triples from a region-estimate CSV;
    each must be a finite number."""
    def parse(text: str):
        lines = text.strip().splitlines()
        if not lines or lines[0] != REGION_CSV_HEADER:
            raise ConfigurationError(f"{path} is not a region-estimate CSV")
        out = []
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 6:
                raise ConfigurationError(f"{path}:{i}: expected 6 columns, "
                                         f"got {len(parts)}")
            out.append(tuple(_check(f"{path}:{i}", float(parts[j]), float)
                             for j in (0, 1, 5)))
        return out
    return _load(path, parse)


def _run_transition_fit(p: dict, seed: int, art: _Artifacts):
    fit = transition.fit_transition(read_region_csv(p["input_csv"]),
                                    eps_factor=p["eps_factor"])
    art.add_json("fit_result.json", fit.as_dict())


def _run_quantum_evolve(p: dict, seed: int, art: _Artifacts):
    qp = _quantum_params(p)
    system = quantum.build_floquet(qp, threads=max_threads())
    psi0 = quantum.momentum_eigenstate(qp.dim, p["initial_k"]).vector
    psi = quantum.evolve_vector(psi0, system, p["n_kicks"])
    probs = np.abs(psi) ** 2
    probs /= probs.sum()
    ladder = quantum.momentum_ladder(qp.dim)
    fit = quantum.localization_fit(np.column_stack((ladder, probs)))
    art.add_csv("momentum_distribution.csv", "k,p", (ladder, probs))
    art.add_csv("spectrum.csv", "k,phi_k",
                (np.arange(qp.dim), system.quasi_energies))
    art.add_json("localization.json", {
        "length": fit.length if np.isfinite(fit.length) else "inf",
        "slope": fit.slope, "intercept": fit.intercept,
        "r_squared": fit.r_squared})
    art.add_json("params.json", _sidecar(qp, seed, {
        "n_kicks": p["n_kicks"], "initial_k": p["initial_k"]}))


def _sidecar(qp: quantum.QuantumParams, seed: int, extra: dict) -> dict:
    payload = {"dim": qp.dim, "lambda": qp.lam, "hbar": qp.hbar,
               "tau": qp.tau, "seed": seed}
    payload.update(extra)
    return payload


def _run_correlation_series(p: dict, seed: int, art: _Artifacts):
    qp = _quantum_params(p)
    obs = _observable(p["observable"], qp)
    if p["state"]["type"] == "momentum":
        rho0 = quantum.momentum_eigenstate(qp.dim, p["state"]["k"])
    else:
        rho0 = quantum.haar_random_pure(qp.dim, np.random.default_rng(seed))
    system = quantum.build_floquet(qp, threads=max_threads())
    series = quantum.correlation_series(rho0, system, obs, p["horizon"],
                                        allow_degenerate=p["allow_degenerate"])
    art.add_csv("correlation_series.csv", "t,c_q,cesaro",
                (series.times, series.c_q, series.cesaro))
    art.add_json("params.json", _sidecar(qp, seed, {
        "horizon": p["horizon"], "observable": obs.label,
        "degenerate_pairs": len(system.degeneracy_flags)}))


def _run_volume_fraction(p: dict, seed: int, art: _Artifacts):
    qp = _quantum_params(p)
    o_set = [_observable(s, qp) for s in p["observables"]]
    system = quantum.build_floquet(qp, threads=max_threads())
    frac = quantum.mixing_volume_fraction(system, o_set, p["n_states"],
                                          p["horizon"], p["tol"], seed)
    art.add_json("volume_fraction.json", _sidecar(qp, seed, {
        "n_states": p["n_states"], "horizon": p["horizon"], "tol": p["tol"],
        "fraction": frac, "observables": [o.label for o in o_set]}))


def _run_geometry_check(p: dict, seed: int, art: _Artifacts):
    rng = np.random.default_rng(seed)
    rows = []
    for n in p["dims"]:
        ranks = sorted(set(int(r) for r in
                           rng.integers(1, n + 1, size=p["ranks_per_dim"])))
        for mu in ranks:
            proj = geometry.RegionProjector(dim=n, indices=tuple(range(mu)))
            check = geometry.verify_theorem2(proj)
            rows.append((n, mu, check.d_squared, check.residual))
    art.add_csv("geometry_check.csv", "N,mu,d2,residual",
                [np.array(col) for col in zip(*rows)])


# kind -> (runner, parameter table); runners index the validated table
_KINDS = {
    "classical-scan": (_run_classical_scan, {
        "lambdas": [float], "grid_side": int, "n_steps": int,
        "threshold": classical.DEFAULT_THRESHOLD, "tau": 1.0}),
    "transition-fit": (_run_transition_fit, {
        "input_csv": str, "eps_factor": transition.FIT_EPS_FACTOR}),
    "quantum-evolve": (_run_quantum_evolve, {
        **_QUANTUM, "n_kicks": int, "initial_k": 0}),
    "correlation-series": (_run_correlation_series, {
        **_QUANTUM, "horizon": int, "observable": _OBSERVABLE,
        "allow_degenerate": True, "state": _STATE}),
    "volume-fraction": (_run_volume_fraction, {
        **_QUANTUM, "n_states": int, "horizon": int, "tol": float,
        "observables": [_OBSERVABLE]}),
    "geometry-check": (_run_geometry_check, {
        "dims": [int], "ranks_per_dim": 8}),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and write its artifacts plus a manifest.

    All artifacts are computed first, a CSV being formatted only as it is
    written, so an invalid config, a numeric failure or running out of
    memory (a ConfigurationError) while computing never leaves partial
    output files behind. Any old manifest is removed before the first
    write and each file is replaced whole, so `manifest.json` is present
    only after a complete write. Every kind computes with numpy's OpenBLAS
    held to one thread, its earlier count restored afterwards.
    """
    runner, table = _KINDS[config.kind]
    art = _Artifacts()
    start = time.perf_counter()
    try:
        params = _read(config.parameters, table, "parameters")
        with quantum._one_blas_thread():
            runner(params, config.seed, art)
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        raise ConfigurationError(f"{config.kind} ran out of memory: "
                                 f"{str(exc) or 'MemoryError'}") from exc
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
    _write_atomic(manifest_path, [_json_bytes(manifest)])
    manifest["manifest_path"] = str(manifest_path)
    # glibc keeps the pages of arrays freed in the middle of its heap, so the
    # next experiment in this process would start from this one's holes: the
    # N = 2049 Floquet build after an N = 1025 one peaked 6 MiB higher or not
    # with the heap layout. Hand them back once the experiment is done, its
    # artifacts included.
    del art
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(ctypes.c_size_t(0))
    return manifest


# ------------------------------------------------------------- plotting

_GNUPLOT_PREAMBLE = 'set datafile separator ","\nset key top left\n'
_MU_LABELS = 'set xlabel "lambda"\nset ylabel "mu(A)"\n'

# kind -> (script name, axis labels, plot command); strings only. In the
# transition-fit command, {csv} stands for the fit's input CSV.
_PLOTS = {
    "classical-scan": (
        "plot_mu_vs_lambda.gp", _MU_LABELS,
        'plot "region_estimates.csv" skip 1 using 1:2:($6) '
        'with yerrorbars title "measured"'),
    "transition-fit": (
        "plot_transition_fit.gp", _MU_LABELS,
        'plot {csv} skip 1 using 1:2:($6) with yerrorbars title "measured", '
        'cubic(x) title "cubic fit"'),
    "quantum-evolve": (
        "plot_localization.gp", 'set xlabel "|k|"\nset ylabel "ln p(k)"\n',
        'plot "momentum_distribution.csv" skip 1 '
        'using (abs($1)):(log($2)) title "momentum distribution"'),
    "correlation-series": (
        "plot_correlation.gp", 'set xlabel "t"\n',
        'plot "correlation_series.csv" skip 1 using 1:2 with lines '
        'title "C_Q", "correlation_series.csv" skip 1 using 1:3 '
        'with lines title "Cesaro average"'),
}


def _fit_overlay(path: Path, config: dict) -> tuple[str, str]:
    """The cubic-law definition from a transition-fit's own
    `fit_result.json`, and its input CSV as a gnuplot string relative to
    the manifest's directory.

    A relative `input_csv` is read from the working directory, as
    `ehlab run` reads it.
    """
    base = path.parent
    params = _check(f"{path}: config.parameters", config.get("parameters"), dict)
    csv = _check(f"{path}: config.parameters.input_csv",
                 params.get("input_csv"), str)
    if not os.path.isfile(csv):
        raise ConfigurationError(f"input_csv {csv} of {path} is missing")
    rel = os.path.relpath(os.path.abspath(csv), os.path.abspath(base))
    if "\n" in rel or "\r" in rel:
        raise ConfigurationError(f"input_csv {csv!r} cannot be quoted for gnuplot")
    fit_file = base / "fit_result.json"
    fit = _check(str(fit_file), _load(fit_file, json.loads), dict)
    lc, mc = (_check(f"{fit_file}: {key}", fit.get(key), float)
              for key in ("lambda_c", "mu_c"))
    cubic = (f"lc = {lc}\nmc = {mc}\n"
             "cubic(x) = mc*(1.5*(x/lc)**2 - 0.5*(x/lc)**3)\n")
    return cubic, "'" + rel.replace("'", "''") + "'"


def emit_plot_scripts(manifest_path) -> list[str]:
    """Write gnuplot scripts for the figures supported by a manifest.

    Returns the script paths. An empty manifest is a warned no-op;
    a referenced CSV that has gone missing is a configuration error.
    A transition fit plots its input CSV with the fitted cubic law
    from its own `fit_result.json`.
    """
    path = Path(manifest_path)
    manifest = _check(str(path), _load(path, json.loads), dict)
    artifacts = _check(f"{path}: artifacts", manifest.get("artifacts", {}), dict)
    if not artifacts:
        warnings.warn("manifest lists no artifacts; nothing to plot")
        return []
    base = path.parent
    for name in artifacts:
        if name.endswith(".csv") and not os.path.isfile(base / name):
            raise ConfigurationError(f"artifact {name} referenced by manifest "
                                     f"is missing from {base}")
    config = _check(f"{path}: config", manifest.get("config", {}), dict)
    kind = _check(f"{path}: config.kind", config.get("kind", ""), str)
    if kind not in _PLOTS:
        return []
    name, labels, plot = _PLOTS[kind]
    text = _GNUPLOT_PREAMBLE + labels
    if kind == "transition-fit":
        cubic, csv = _fit_overlay(path, config)
        text += cubic
        plot = plot.format(csv=csv)
    script = base / name
    _write_atomic(script, [(text + plot + "\n").encode()])
    return [str(script)]
