import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehlab
from ehlab import classical, cli, harness, quantum
from ehlab.errors import ConfigurationError, NumericError


def write_config(tmp_path: Path, payload: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def write_files(root: Path, files: dict):
    """Bytes are written as they are, None makes a directory, and anything
    else is written as JSON."""
    for name, content in files.items():
        if content is None:
            (root / name).mkdir()
        else:
            (root / name).write_bytes(content if isinstance(content, bytes)
                                      else json.dumps(content).encode())


def scan_config(out_dir: Path, lambdas=(0.0, 1.0, 10.0), grid=16, steps=1000):
    return {"kind": "classical-scan", "seed": 0, "output_dir": str(out_dir),
            "parameters": {"lambdas": list(lambdas), "grid_side": grid,
                           "n_steps": steps}}


class TestConfigParsing:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict({"kind": "nope", "parameters": {}})

    def test_missing_parameters(self):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict({"kind": "classical-scan"})

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict(
                {"kind": "classical-scan", "parameters": {}, "seed": "x"})

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_file(bad)

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        monkeypatch.setenv("EHLAB_THREADS", "3")
        assert harness.max_threads() == 3
        monkeypatch.setenv("EHLAB_THREADS", "zero")
        with pytest.raises(ConfigurationError):
            harness.max_threads()
        monkeypatch.setenv("EHLAB_THREADS", "0")
        with pytest.raises(ConfigurationError):
            harness.max_threads()

    def test_threads_count_usable_cpus(self, monkeypatch):
        # the CPUs the process may run on, not the host's; no thread is
        # started here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 7},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.delenv("EHLAB_THREADS", raising=False)
        assert harness.max_threads() == 2
        for cap, want in (("1", 1), ("2", 2), ("8", 2), (str(10**5), 2)):
            monkeypatch.setenv("EHLAB_THREADS", cap)
            assert harness.max_threads() == want
        # without an affinity call the CPU count is the limit
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness.max_threads() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.delenv("EHLAB_THREADS")
        assert harness.max_threads() == 1


class TestClassicalScan:
    def test_artifacts_and_manifest(self, tmp_path):
        config = harness.ExperimentConfig.from_dict(scan_config(tmp_path))
        manifest = harness.run(config)
        csv = tmp_path / "region_estimates.csv"
        assert csv.is_file()
        assert "region_estimates.csv" in manifest["artifacts"]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["config"]["kind"] == "classical-scan"
        assert man["wall_time_s"] > 0
        rows = harness.read_region_csv(csv)
        assert [r[0] for r in rows] == [0.0, 1.0, 10.0]
        assert rows[0][1] == 0.0  # integrable limit
        assert rows[2][1] > 0.9

    def test_direct_config_is_echoed_in_the_manifest(self, tmp_path):
        # a config built without from_dict has no raw file to echo
        parameters = scan_config(tmp_path)["parameters"]
        config = harness.ExperimentConfig("classical-scan", parameters,
                                          seed=3, output_dir=str(tmp_path))
        harness.run(config)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["config"] == {"kind": "classical-scan",
                                 "parameters": parameters, "seed": 3,
                                 "output_dir": str(tmp_path)}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            harness.run(harness.ExperimentConfig.from_dict(scan_config(d)))
        assert (a / "region_estimates.csv").read_bytes() == \
            (b / "region_estimates.csv").read_bytes()

    def test_csv_does_not_depend_on_thread_cap(self, tmp_path, monkeypatch):
        csvs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("EHLAB_THREADS", threads)
            out = tmp_path / threads
            harness.run(harness.ExperimentConfig.from_dict(scan_config(
                out, lambdas=(0.0, 0.5, 1.0, 10.0), grid=17, steps=300)))
            csvs.append((out / "region_estimates.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_empty_sweep_writes_the_header(self, tmp_path, capsys):
        config = write_config(tmp_path, scan_config(tmp_path / "out",
                                                    lambdas=()))
        assert cli.main(["run", "--config", str(config)]) == 0
        csv = (tmp_path / "out" / "region_estimates.csv").read_text()
        assert csv.splitlines() == [harness.REGION_CSV_HEADER]

    def test_invalid_grid_rejected_before_writing(self, tmp_path):
        config = harness.ExperimentConfig.from_dict(
            scan_config(tmp_path, grid=4))
        with pytest.raises(ConfigurationError):
            harness.run(config)
        assert list(tmp_path.iterdir()) == []  # no partial artifacts


class TestTransitionFitKind:
    def test_fit_on_synthetic_csv(self, tmp_path):
        lams = np.linspace(0.0, 2.0, 41)
        x = lams / 0.9716
        mus = 0.9 * (1.5 * x * x - 0.5 * x ** 3)
        csv = tmp_path / "region_estimates.csv"
        rows = [harness.REGION_CSV_HEADER]
        rows += [f"{l},{m},{1 - m},1024,0.05,0.01" for l, m in zip(lams, mus)]
        csv.write_text("\n".join(rows) + "\n")
        config = harness.ExperimentConfig.from_dict({
            "kind": "transition-fit", "output_dir": str(tmp_path),
            "parameters": {"input_csv": str(csv)}})
        harness.run(config)
        fit = json.loads((tmp_path / "fit_result.json").read_text())
        assert fit["lambda_c"] == pytest.approx(0.9716, abs=0.01)
        assert set(fit) == {"lambda_c", "mu_c", "rss", "n_points", "fit_window"}

    def test_missing_csv(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "transition-fit", "output_dir": str(tmp_path),
            "parameters": {"input_csv": str(tmp_path / "nope.csv")}})
        with pytest.raises(ConfigurationError):
            harness.run(config)


class TestQuantumKinds:
    def test_quantum_evolve_artifacts(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "quantum-evolve", "output_dir": str(tmp_path),
            "parameters": {"dim": 65, "lambda": 10.0, "n_kicks": 500}})
        harness.run(config)
        dist = (tmp_path / "momentum_distribution.csv").read_text().splitlines()
        assert dist[0] == "k,p"
        assert len(dist) == 66
        probs = [float(line.split(",")[1]) for line in dist[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(spectrum) == 66
        loc = json.loads((tmp_path / "localization.json").read_text())
        assert {"length", "slope", "intercept", "r_squared"} <= set(loc)

    def test_evolve_csvs_do_not_depend_on_thread_cap(self, tmp_path,
                                                     monkeypatch):
        # at dim 1025 a Floquet build given two threads solves its parity
        # blocks side by side, given one in turn: the CSVs are the same
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        seen, build = [], quantum.build_floquet

        def recording(params, threads=1):
            seen.append(threads)
            return build(params, threads=threads)
        monkeypatch.setattr(quantum, "build_floquet", recording)
        for cap in ("1", "2"):
            monkeypatch.setenv("EHLAB_THREADS", cap)
            harness.run(harness.ExperimentConfig.from_dict({
                "kind": "quantum-evolve", "output_dir": str(tmp_path / cap),
                "parameters": {"dim": 1025, "lambda": 10.0, "n_kicks": 100}}))
        assert seen == [1, 2]
        for name in ("momentum_distribution.csv", "spectrum.csv"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_correlation_series_artifacts(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "correlation-series", "output_dir": str(tmp_path),
            "seed": 7,
            "parameters": {"dim": 33, "lambda": 10.0, "horizon": 64,
                           "observable": {"type": "cos_theta"},
                           "state": {"type": "momentum", "k": 0}}})
        harness.run(config)
        lines = (tmp_path / "correlation_series.csv").read_text().splitlines()
        assert lines[0] == "t,c_q,cesaro"
        assert len(lines) == 65
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["horizon"] == 64

    def test_volume_fraction_artifact(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "volume-fraction", "output_dir": str(tmp_path),
            "parameters": {"dim": 33, "lambda": 10.0, "n_states": 100,
                           "horizon": 50, "tol": 0.5,
                           "observables": [{"type": "cos_theta"}]}})
        harness.run(config)
        out = json.loads((tmp_path / "volume_fraction.json").read_text())
        assert 0.0 <= out["fraction"] <= 1.0

    def test_volume_fraction_at_huge_hbar_warns_nothing(self, tmp_path):
        # the window's hbar*k overflows to +-inf past k = 1, with no warning
        config = harness.ExperimentConfig.from_dict({
            "kind": "volume-fraction", "output_dir": str(tmp_path),
            "parameters": {**FRACTION, "dim": 17, "hbar": 1e308, "tau": 1e-300,
                           "observables": [{"type": "momentum_window",
                                            "k_lo": 0, "k_hi": 1}]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness.run(config)
        out = json.loads((tmp_path / "volume_fraction.json").read_text())
        assert out["observables"] == ["P[0.0,1.0)"] and out["fraction"] == 1.0

    def test_geometry_check_artifact(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "geometry-check", "output_dir": str(tmp_path),
            "parameters": {"dims": [8, 32, 128]}})
        harness.run(config)
        lines = (tmp_path / "geometry_check.csv").read_text().splitlines()
        assert lines[0] == "N,mu,d2,residual"
        for line in lines[1:]:
            assert abs(float(line.split(",")[3])) < 1e-12

    def test_even_dim_is_config_error(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "quantum-evolve", "output_dir": str(tmp_path),
            "parameters": {"dim": 64, "lambda": 1.0, "n_kicks": 10}})
        with pytest.raises(ConfigurationError):
            harness.run(config)


BLAS = quantum._openblas()


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS set to two threads for the test, its count then."""
    if BLAS is None:
        pytest.skip("numpy loaded no OpenBLAS with a thread-count setter")
    set_threads, get_threads = BLAS
    before = get_threads()
    set_threads(2)
    yield get_threads()
    set_threads(before)


def record_blas_threads(monkeypatch, module, name, fail=None):
    """Record numpy's OpenBLAS thread count at each call of module.name,
    then raise `fail` if given, else call through."""
    seen, real = [], getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(BLAS[1]() if BLAS else None)
        if fail is not None:
            raise fail
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, recording)
    return seen


def fraction_config(out_dir, dim=257) -> dict:
    return {"kind": "volume-fraction", "seed": 0, "output_dir": str(out_dir),
            "parameters": {**FRACTION, "dim": dim}}


class TestBlasThreads:
    def test_small_quantum_run_holds_one_thread(self, tmp_path, monkeypatch,
                                                blas_threads):
        seen = record_blas_threads(monkeypatch, quantum, "mixing_volume_fraction")
        harness.run(harness.ExperimentConfig.from_dict(fraction_config(tmp_path)))
        assert seen == [1]
        assert BLAS[1]() == blas_threads

    def test_count_restored_after_a_numeric_error(self, tmp_path, monkeypatch,
                                                  blas_threads):
        seen = record_blas_threads(monkeypatch, quantum, "mixing_volume_fraction",
                                   fail=NumericError("injected"))
        config = write_config(tmp_path, fraction_config(tmp_path / "out"))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert seen == [1]
        assert BLAS[1]() == blas_threads

    @pytest.mark.parametrize("module, name, config", [
        pytest.param(quantum, "build_floquet", {
            "kind": "quantum-evolve", "parameters": {
                "dim": quantum._BLAS_THREADED_DIM, "lambda": 1.0, "n_kicks": 2}},
            id="threaded-dim"),
        pytest.param(classical, "estimate_chaotic_measures",
                     scan_config(None, lambdas=(1.0,), steps=10),
                     id="classical-scan")])
    def test_count_unchanged_at_threaded_dim_and_without_dim(
            self, tmp_path, monkeypatch, blas_threads, module, name, config):
        seen = record_blas_threads(monkeypatch, module, name)
        harness.run(harness.ExperimentConfig.from_dict(
            {**config, "output_dir": str(tmp_path)}))
        assert seen == [blas_threads]
        assert BLAS[1]() == blas_threads

    def test_evolve_vector_holds_one_thread(self, monkeypatch, blas_threads):
        # at the threaded dim too: its products are matrix-vector products
        system = quantum.build_floquet(quantum.QuantumParams(
            dim=quantum._BLAS_THREADED_DIM, lam=1.0), threads=2)
        assert BLAS[1]() == blas_threads
        seen = record_blas_threads(monkeypatch, quantum.FloquetSystem, "_z")
        psi = quantum.momentum_eigenstate(system.dim, 0).vector
        quantum.evolve_vector(psi, system, 2)
        assert seen == [1]
        assert BLAS[1]() == blas_threads

    def test_no_library_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quantum, "_openblas", lambda: None)
        before = BLAS[1]() if BLAS else None
        seen = record_blas_threads(monkeypatch, quantum, "mixing_volume_fraction")
        harness.run(harness.ExperimentConfig.from_dict(fraction_config(tmp_path)))
        assert seen == [before]
        assert json.loads((tmp_path / "volume_fraction.json").read_text())

    @pytest.mark.parametrize("names", quantum._OPENBLAS_THREADS,
                             ids=lambda names: names[0])
    def test_lookup_finds_each_symbol_pair(self, names):
        set_threads, get_threads = object(), object()
        lib = SimpleNamespace(**{names[0]: set_threads, names[1]: get_threads,
                                 "openblas_get_config": object()})
        assert quantum._thread_functions(lib) == (set_threads, get_threads)

    @pytest.mark.parametrize("lib", [
        SimpleNamespace(),
        SimpleNamespace(openblas_set_num_threads=object()),
        SimpleNamespace(scipy_openblas_get_num_threads64_=object(),
                        openblas_set_num_threads64_=object())])
    def test_lookup_ignores_a_library_without_a_pair(self, monkeypatch, lib):
        assert quantum._thread_functions(lib) is None
        monkeypatch.setattr(quantum.ctypes, "CDLL", lambda path: lib)
        assert quantum._openblas.__wrapped__() is None

    def test_lookup_survives_an_unloadable_library(self, monkeypatch):
        def unloadable(path):
            raise OSError(f"cannot load {path}")
        monkeypatch.setattr(quantum.ctypes, "CDLL", unloadable)
        assert quantum._openblas.__wrapped__() is None


PREAMBLE = 'set datafile separator ","\nset key top left\n'
SCAN_PLOT = ('plot "region_estimates.csv" skip 1 using 1:2:($6) '
             'with yerrorbars title "measured"')
# (kind, its CSV, fit_result.json or None, script name, exact script text);
# each manifest names its CSV as artifact and as input_csv
GOLDEN_SCRIPTS = [
    pytest.param(
        "classical-scan", "region_estimates.csv", None, "plot_mu_vs_lambda.gp",
        PREAMBLE + 'set xlabel "lambda"\nset ylabel "mu(A)"\n'
        + SCAN_PLOT + "\n", id="scan"),
    pytest.param(
        # a scan plots no fit, even one that lies beside it
        "classical-scan", "region_estimates.csv",
        {"lambda_c": 0.9716, "mu_c": 0.9, "rss": 1.0},
        "plot_mu_vs_lambda.gp",
        PREAMBLE + 'set xlabel "lambda"\nset ylabel "mu(A)"\n'
        + SCAN_PLOT + "\n", id="scan-with-fit"),
    pytest.param(
        "transition-fit", "region_estimates.csv",
        {"lambda_c": 0.9716, "mu_c": 0.9, "rss": 1.0},
        "plot_transition_fit.gp",
        PREAMBLE + 'set xlabel "lambda"\nset ylabel "mu(A)"\n'
        "lc = 0.9716\nmc = 0.9\n"
        "cubic(x) = mc*(1.5*(x/lc)**2 - 0.5*(x/lc)**3)\n"
        "plot 'region_estimates.csv' skip 1 using 1:2:($6) with yerrorbars "
        'title "measured", cubic(x) title "cubic fit"\n', id="fit"),
    pytest.param(
        "quantum-evolve", "momentum_distribution.csv", None,
        "plot_localization.gp",
        PREAMBLE + 'set xlabel "|k|"\nset ylabel "ln p(k)"\n'
        'plot "momentum_distribution.csv" skip 1 using (abs($1)):(log($2)) '
        'title "momentum distribution"\n', id="localization"),
    pytest.param(
        "correlation-series", "correlation_series.csv", None,
        "plot_correlation.gp",
        PREAMBLE + 'set xlabel "t"\n'
        'plot "correlation_series.csv" skip 1 using 1:2 with lines title "C_Q", '
        '"correlation_series.csv" skip 1 using 1:3 with lines '
        'title "Cesaro average"\n', id="correlation"),
]


class TestPlotScripts:
    @pytest.mark.parametrize("kind,csv,fit,script,text", GOLDEN_SCRIPTS)
    def test_script_bytes(self, tmp_path, monkeypatch, kind, csv, fit,
                          script, text):
        monkeypatch.chdir(tmp_path)
        write_files(tmp_path, {csv: b"", "manifest.json": {
            "config": {"kind": kind, "parameters": {"input_csv": csv}},
            "artifacts": {csv: "0"}}})
        if fit is not None:
            write_files(tmp_path, {"fit_result.json": fit})
        assert harness.emit_plot_scripts(tmp_path / "manifest.json") == [
            str(tmp_path / script)]
        assert (tmp_path / script).read_bytes() == text.encode()

    def test_scan_plot_with_fit_overlay(self, tmp_path):
        # a transition-fit run into the scan's directory replaces its
        # manifest and plots the scan's points with the fitted law
        scan = scan_config(tmp_path / "out", grid=16, steps=500,
                           lambdas=[i / 10 for i in range(21)])
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path, scan))]) == 0
        fit = {"kind": "transition-fit", "output_dir": str(tmp_path / "out"),
               "parameters": {"input_csv": str(tmp_path / "out"
                                               / "region_estimates.csv")}}
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path, fit))]) == 0
        manifest = tmp_path / "out" / "manifest.json"
        assert harness.emit_plot_scripts(manifest) == [
            str(tmp_path / "out" / "plot_transition_fit.gp")]
        text = (tmp_path / "out" / "plot_transition_fit.gp").read_text()
        assert "plot 'region_estimates.csv' skip 1" in text
        assert 'cubic(x) title "cubic fit"' in text
        (tmp_path / "out" / "region_estimates.csv").unlink()
        with pytest.raises(ConfigurationError, match="input_csv"):
            harness.emit_plot_scripts(manifest)

    def test_correlation_plot(self, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "kind": "correlation-series", "output_dir": str(tmp_path),
            "parameters": {"dim": 17, "lambda": 10.0, "horizon": 16,
                           "observable": {"type": "cos_theta"},
                           "state": {"type": "momentum", "k": 0}}})
        manifest = harness.run(config)
        scripts = harness.emit_plot_scripts(manifest["manifest_path"])
        assert scripts and "plot_correlation" in scripts[0]

    def test_empty_manifest_warns(self, tmp_path):
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps({"config": {}, "artifacts": {}}))
        with pytest.warns(UserWarning):
            assert harness.emit_plot_scripts(man) == []

    def test_missing_csv_is_error(self, tmp_path):
        harness.run(harness.ExperimentConfig.from_dict(scan_config(tmp_path)))
        (tmp_path / "region_estimates.csv").unlink()
        with pytest.raises(ConfigurationError):
            harness.emit_plot_scripts(tmp_path / "manifest.json")


SCAN = {"lambdas": [1.0], "grid_side": 16, "n_steps": 1000}
EVOLVE = {"dim": 33, "lambda": 1.0, "n_kicks": 10}
SERIES = {"dim": 33, "lambda": 1.0, "horizon": 16,
          "observable": {"type": "cos_theta"}}
FRACTION = {"dim": 33, "lambda": 1.0, "n_states": 100, "horizon": 20,
            "tol": 0.5, "observables": [{"type": "cos_theta"}]}
GEOMETRY = {"dims": [8]}

# each case must end in exit 2 before any artifact is written
MALFORMED = [
    pytest.param("classical-scan", {**SCAN, "lambdas": [float("inf")]}, {},
                 id="lambda-inf"),
    pytest.param("classical-scan", {**SCAN, "lambdas": ["a"]}, {},
                 id="lambda-str"),
    pytest.param("classical-scan", {**SCAN, "n_steps": 0}, {},
                 id="n_steps-0"),
    pytest.param("classical-scan", {**SCAN, "threshold": float("nan")}, {},
                 id="threshold-nan"),
    pytest.param("classical-scan", {**SCAN, "tau": 1e308}, {},
                 id="tau-overflow"),
    pytest.param("classical-scan", {**SCAN, "lambdas": [1e20]}, {},
                 id="lambda-past-the-row-sum-bound"),
    pytest.param("quantum-evolve", {**EVOLVE, "lambda": float("nan")}, {},
                 id="lambda-nan"),
    pytest.param("quantum-evolve", {**EVOLVE, "lambda": 10 ** 400}, {},
                 id="lambda-overflow"),
    pytest.param("quantum-evolve", {**EVOLVE, "hbar": "x"}, {},
                 id="hbar-str"),
    pytest.param("quantum-evolve", {**EVOLVE, "tau": float("inf")}, {},
                 id="tau-inf"),
    pytest.param("quantum-evolve", {**EVOLVE, "dim": True}, {},
                 id="dim-bool"),
    # these used to end in numpy's "array is too big" or try to allocate
    pytest.param("quantum-evolve", {**EVOLVE, "dim": 2**62 + 1}, {},
                 id="dim-2**62+1"),
    pytest.param("quantum-evolve", {**EVOLVE, "dim": 2**31 + 1}, {},
                 id="dim-2**31+1"),
    pytest.param("quantum-evolve", {**EVOLVE, "n_kicks": -5}, {},
                 id="n_kicks-negative"),
    pytest.param("quantum-evolve", EVOLVE, {"output_dir": 5},
                 id="output_dir-int"),
    pytest.param("transition-fit", {"eps_factor": "x"}, {},
                 id="eps_factor-str"),
    pytest.param("volume-fraction", {**FRACTION, "tol": -1}, {},
                 id="tol-negative"),
    pytest.param("volume-fraction",
                 {**FRACTION, "observables": ["cos_theta"]}, {},
                 id="observable-str"),
    pytest.param("correlation-series",
                 {**SERIES, "observable": {"type": "momentum_window",
                                           "k_hi": 5}}, {},
                 id="window-without-k_lo"),
    pytest.param("correlation-series", {**SERIES, "state": "haar"}, {},
                 id="state-str"),
    pytest.param("geometry-check", {"dims": ["x"]}, {}, id="dim-str"),
    pytest.param("geometry-check", {**GEOMETRY, "ranks_per_dim": -1}, {},
                 id="ranks_per_dim-negative"),
    pytest.param("geometry-check", GEOMETRY, {"seed": True}, id="seed-bool"),
    pytest.param("geometry-check", GEOMETRY, {"seed": -1},
                 id="seed-negative"),
    pytest.param("quantum-evolve", {**EVOLVE, "hbarr": 0.7}, {},
                 id="misspelt-parameter"),
    pytest.param("geometry-check", GEOMETRY, {"sed": 4},
                 id="misspelt-top-level-key"),
    pytest.param("correlation-series",
                 {**SERIES, "observable": {"type": "cos_theta", "k_lo": 1}},
                 {}, id="stray-observable-field"),
    pytest.param("volume-fraction", {**FRACTION, "horizon": 5}, {},
                 id="horizon-empty-tail"),
    pytest.param("quantum-evolve", {**EVOLVE, "n_kicks": 10 ** 400}, {},
                 id="n_kicks-beyond-int64"),
    pytest.param("quantum-evolve", {**EVOLVE, "dim": 10 ** 400 + 1}, {},
                 id="dim-beyond-int64"),
    pytest.param("classical-scan", {**SCAN, "grid_side": 10 ** 400}, {},
                 id="grid_side-beyond-int64"),
    pytest.param("correlation-series", {**SERIES, "horizon": 10 ** 400}, {},
                 id="horizon-beyond-int64"),
    # a 64-bit count, but more floats than numpy can index
    pytest.param("correlation-series", {**SERIES, "horizon": 2**62}, {},
                 id="horizon-2**62"),
    pytest.param("geometry-check", {"dims": [10 ** 400]}, {},
                 id="dims-entry-beyond-int64"),
    pytest.param("geometry-check", {**GEOMETRY, "ranks_per_dim": 10 ** 400},
                 {}, id="ranks_per_dim-beyond-int64"),
    pytest.param("geometry-check", GEOMETRY, {"seed": 10 ** 400},
                 id="seed-beyond-int64"),
    # refused by a size bound, or out of memory at a first allocation
    # above 2**47 bytes, past any user address space
    pytest.param("classical-scan", {**SCAN, "grid_side": 2**31}, {},
                 id="grid_side-2**31"),
    pytest.param("correlation-series", {**SERIES, "horizon": 2**45}, {},
                 id="horizon-2**45"),
    pytest.param("geometry-check", {"dims": [2**62]}, {}, id="dims-2**62"),
    # the 64-bit bound is symmetric, on a float key and on int keys
    pytest.param("correlation-series",
                 {**SERIES, "observable": {"type": "momentum_window",
                                           "k_lo": 2 ** 63, "k_hi": 5}},
                 {}, id="k_lo-2**63"),
    pytest.param("correlation-series",
                 {**SERIES, "observable": {"type": "momentum_window",
                                           "k_lo": -2 ** 63, "k_hi": 5}},
                 {}, id="k_lo-minus-2**63"),
    pytest.param("correlation-series", {**SERIES, "horizon": 2 ** 63}, {},
                 id="horizon-2**63"),
    pytest.param("quantum-evolve", {**EVOLVE, "initial_k": -2 ** 63}, {},
                 id="initial_k-minus-2**63"),
    pytest.param("quantum-evolve", {**EVOLVE, "initial_k": 17}, {},
                 id="initial_k-off-ladder"),
    pytest.param("correlation-series",
                 {**SERIES, "observable": {"type": "sin_theta"}}, {},
                 id="observable-type-unknown"),
    pytest.param("correlation-series", {**SERIES, "observable": {}}, {},
                 id="observable-type-missing"),
]

NOT_UTF8 = b"\xff\xfe\x00"
FIT_CONFIG = {"kind": "transition-fit", "output_dir": "out",
              "parameters": {"input_csv": "in.csv"}}
SCAN_MANIFEST = {"config": {"kind": "classical-scan"},
                 "artifacts": {"region_estimates.csv": "0"}}
FIT_MANIFEST = {"config": FIT_CONFIG, "artifacts": {"fit_result.json": "0"}}


def region_csv(mu_at_one="0.5") -> bytes:
    """A 21-point cubic-law sweep with mu_A at lambda = 1 replaced."""
    lams = np.linspace(0.0, 2.0, 21)
    mus = [str(m) for m in 0.9 * (1.5 * (lams / 0.97) ** 2
                                  - 0.5 * (lams / 0.97) ** 3)]
    mus[10] = mu_at_one
    rows = [harness.REGION_CSV_HEADER]
    rows += [f"{l},{m},0.5,1024,0.05,0.01" for l, m in zip(lams, mus)]
    return ("\n".join(rows) + "\n").encode()


RUN = ["run", "--config", "config.json"]
PLOT = ["plot", "--manifest", "manifest.json"]
# (argv, {file name: content} for write_files); each must end in exit 2
UNUSABLE_FILES = [
    pytest.param(RUN, {"config.json": NOT_UTF8}, id="config-not-utf8"),
    pytest.param(RUN, {"config.json": b"[" * 100_000},
                 id="config-nested-too-deep"),
    pytest.param(RUN, {"config.json": FIT_CONFIG,
                       "in.csv": region_csv("a")}, id="csv-non-numeric"),
    pytest.param(RUN, {"config.json": FIT_CONFIG,
                       "in.csv": region_csv() + NOT_UTF8},
                 id="csv-not-utf8"),
    pytest.param(RUN, {"config.json": FIT_CONFIG,
                       "in.csv": region_csv("nan")}, id="csv-nan"),
    pytest.param(RUN, {"config.json": FIT_CONFIG,
                       "in.csv": region_csv().replace(b"lambda,", b"lam,", 1)},
                 id="csv-wrong-header"),
    pytest.param(RUN, {"config.json": FIT_CONFIG,
                       "in.csv": region_csv().replace(b",0.01\n", b"\n", 1)},
                 id="csv-row-of-5-columns"),
    pytest.param(RUN, {"config.json": {"kind": "geometry-check",
                                       "output_dir": "file/out",
                                       "parameters": GEOMETRY},
                       "file": b""}, id="output_dir-under-a-file"),
    pytest.param(PLOT, {"manifest.json": []}, id="manifest-list"),
    pytest.param(PLOT, {"manifest.json": {**SCAN_MANIFEST,
                                          "artifacts": [1]}},
                 id="manifest-artifacts-list"),
    pytest.param(PLOT, {"manifest.json": NOT_UTF8}, id="manifest-not-utf8"),
    pytest.param(PLOT, {"manifest.json": {"artifacts": {
                     "x" * 300 + ".csv": "0"}}},
                 id="manifest-artifact-name-too-long"),
    pytest.param(PLOT, {"manifest.json": FIT_MANIFEST, "in.csv": b"",
                        "fit_result.json": b"{"}, id="fit-malformed"),
    pytest.param(PLOT, {"manifest.json": FIT_MANIFEST, "in.csv": b"",
                        "fit_result.json": {"mu_c": 0.9}},
                 id="fit-without-lambda_c"),
    pytest.param(PLOT, {"manifest.json": FIT_MANIFEST, "in.csv": b""},
                 id="fit-result-missing"),
    pytest.param(PLOT, {"manifest.json": FIT_MANIFEST,
                        "fit_result.json": {"lambda_c": 1.0, "mu_c": 0.9}},
                 id="fit-input-missing"),
    pytest.param(PLOT, {"manifest.json": {**FIT_MANIFEST, "config": {
                            "kind": "transition-fit", "parameters": {}}},
                        "in.csv": b"",
                        "fit_result.json": {"lambda_c": 1.0, "mu_c": 0.9}},
                 id="fit-without-input_csv"),
    pytest.param(PLOT, {"manifest.json": {**FIT_MANIFEST, "config": {
                            **FIT_CONFIG, "parameters": {"input_csv": "a\nb.csv"}}},
                        "a\nb.csv": b"",
                        "fit_result.json": {"lambda_c": 1.0, "mu_c": 0.9}},
                 id="fit-input-name-breaks-script"),
    pytest.param(PLOT, {"manifest.json": SCAN_MANIFEST,
                        "region_estimates.csv": b"",
                        "plot_mu_vs_lambda.gp": None},
                 id="script-is-directory"),
]


class TestCli:
    @pytest.mark.parametrize("kind,params,top", MALFORMED)
    def test_malformed_config_is_exit_2(self, tmp_path, monkeypatch,
                                        kind, params, top):
        monkeypatch.chdir(tmp_path)
        if kind == "transition-fit":
            harness.run(harness.ExperimentConfig.from_dict(
                scan_config(tmp_path / "scan", lambdas=(0.0, 0.5, 1.0, 1.5))))
            params = {**params, "input_csv": "scan/region_estimates.csv"}
        payload = {"kind": kind, "output_dir": "out", "parameters": params,
                   **top}
        config = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert not (tmp_path / str(payload["output_dir"])).exists()

    @pytest.mark.parametrize("argv,files", UNUSABLE_FILES)
    def test_unusable_file_is_exit_2(self, tmp_path, monkeypatch, argv, files):
        monkeypatch.chdir(tmp_path)
        write_files(tmp_path, files)
        assert cli.main(argv) == 2
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_run_exit_codes(self, tmp_path, capsys):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        assert cli.main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("manifest.json")

        bad = write_config(tmp_path, {"kind": "nope", "parameters": {}},
                           name="bad.json")
        assert cli.main(["run", "--config", str(bad)]) == 2

    def test_failed_rewrite_leaves_no_manifest(self, tmp_path, capsys):
        # a rerun into a reused output_dir that cannot be rewritten must not
        # leave the old manifest behind as a completion marker
        out = tmp_path / "out"
        payload = {"kind": "quantum-evolve", "output_dir": str(out),
                   "parameters": {"dim": 33, "lambda": 5.0, "n_kicks": 10}}
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path, payload))]) == 0
        (out / "spectrum.csv").unlink()
        (out / "spectrum.csv").mkdir()
        payload["parameters"]["n_kicks"] = 20
        capsys.readouterr()
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path, payload))]) == 2
        assert "spectrum.csv" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "localization.json", "momentum_distribution.csv", "params.json",
            "spectrum.csv"]

    def test_out_of_memory_while_a_csv_is_written(self, tmp_path, monkeypatch,
                                                  capsys):
        # a CSV is formatted only as it is written, so running out of memory
        # there ends in a configuration error too, with no temp file left
        def no_memory(columns):
            raise MemoryError
        monkeypatch.setattr(harness, "_csv_rows", no_memory)
        out = tmp_path / "out"
        payload = {"kind": "quantum-evolve", "output_dir": str(out),
                   "parameters": EVOLVE}
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path, payload))]) == 2
        assert "momentum_distribution.csv: MemoryError" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_haar_state_is_the_default(self, tmp_path, monkeypatch):
        # a correlation series without a state starts from the documented
        # Haar-random state of the config's seed
        monkeypatch.chdir(tmp_path)
        for out, extra in (("default", {}), ("haar", {"state": {"type": "haar"}})):
            write_files(tmp_path, {"config.json": {
                "kind": "correlation-series", "seed": 7, "output_dir": out,
                "parameters": {**SERIES, **extra}}})
            assert cli.main(RUN) == 0
        assert ((tmp_path / "default" / "correlation_series.csv").read_bytes()
                == (tmp_path / "haar" / "correlation_series.csv").read_bytes())

    def test_numeric_error_exit_code(self, tmp_path):
        # constant mu_A sweep makes the fit singular: exit 3
        csv = tmp_path / "flat.csv"
        lams = np.linspace(0.0, 2.0, 21)
        rows = [harness.REGION_CSV_HEADER]
        rows += [f"{l},0.5,0.5,1024,0.05,0.01" for l in lams]
        csv.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path, {
            "kind": "transition-fit", "output_dir": str(tmp_path / "out"),
            "parameters": {"input_csv": str(csv)}})
        assert cli.main(["run", "--config", str(config)]) == 3

    @pytest.mark.parametrize("eps_factor", [
        -0.5, -1, True, "x", None,
        pytest.param(1e308, marks=pytest.mark.filterwarnings("error"))])
    def test_bad_fit_margin_is_exit_2(self, tmp_path, monkeypatch, eps_factor):
        # on exact cubic data -0.5 used to exit 0 with lambda_c = 1.2 over
        # the window [0, 0.6], and -1 to exit 3; 1e308 overflowed the
        # window with a RuntimeWarning and exited 0
        monkeypatch.chdir(tmp_path)
        lams = np.linspace(0.0, 2.0, 21)
        exact = 0.9 * (1.5 * (lams / 0.97) ** 2 - 0.5 * (lams / 0.97) ** 3)
        write_files(tmp_path, {
            "config.json": {**FIT_CONFIG, "parameters": {
                "input_csv": "in.csv", "eps_factor": eps_factor}},
            "in.csv": region_csv(str(exact[10]))})
        assert cli.main(RUN) == 2
        assert not (tmp_path / "out").exists()

    def test_plot_subcommand(self, tmp_path, capsys):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(
            ["plot", "--manifest", str(tmp_path / "out" / "manifest.json")]) == 0
        assert "plot_mu_vs_lambda.gp" in capsys.readouterr().out

    def test_installed_entry_point(self, tmp_path):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        # the child imports the same ehlab as the tests, installed or not
        src = str(Path(ehlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ehlab.cli", "run", "--config", str(config)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0

    def test_cli_import_loads_no_scipy(self, tmp_path):
        # scipy is a test-only dependency, and `import ehlab.cli` is all a
        # run's start-up pays for; no run imports it later either, as a
        # lazily imported eigensolver would, adding its RSS to every run
        configs = [write_config(tmp_path, {
            "kind": kind, "output_dir": str(tmp_path / kind),
            "parameters": params}, f"{kind}.json")
            for kind, params in (("quantum-evolve", EVOLVE),
                                 ("volume-fraction", FRACTION))]
        child = ("import sys\n"
                 "import ehlab.cli\n"
                 "loaded = ['scipy' in sys.modules]\n"
                 "for config in sys.argv[1:]:\n"
                 "    assert ehlab.cli.main(['run', '--config', config]) == 0\n"
                 "    loaded.append('scipy' in sys.modules)\n"
                 "print(loaded)\n")
        src = str(Path(ehlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, *map(str, configs)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.stdout.splitlines()[-1] == "[False, False, False]"
        assert all((tmp_path / kind / "manifest.json").is_file()
                   for kind in ("quantum-evolve", "volume-fraction"))

    @pytest.mark.skipif(harness._MALLOC_TRIM is None
                        or not os.path.exists("/proc/self/smaps"),
                        reason="needs glibc's malloc_trim and /proc")
    def test_run_hands_freed_heap_pages_back(self, tmp_path):
        # 8 MiB of freed arrays below a live block stay resident in glibc's
        # heap until a run returns them; a fresh process fixes the layout
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from ehlab import harness\n"
            "def heap_kib():\n"
            "    kib, heap = 0, False\n"
            "    for line in open('/proc/self/smaps'):\n"
            "        field = line.split()\n"
            "        if '-' in field[0]:\n"
            "            heap = field[-1] == '[heap]'\n"
            "        elif heap and field[0] == 'Rss:':\n"
            "            kib += int(field[1])\n"
            "    return kib\n"
            "big = np.ones(1 << 20)\n"
            "del big  # lifts glibc's mmap threshold to 8 MiB\n"
            "holes = [np.ones(1 << 17) for _ in range(8)]\n"
            "pin = bytearray(1 << 16)\n"
            "del holes\n"
            "before = heap_kib()\n"
            "harness.run(harness.ExperimentConfig.from_file(sys.argv[1]))\n"
            "print(before - heap_kib())\n")
        src = str(Path(ehlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(config)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path})
        assert int(proc.stdout) >= 6 * 1024


def per_value_csv(header: str, columns) -> bytes:
    """What add_csv writes, by the per-row loop its array kernel replaced:
    one %-string per row of each _CSV_ROWS chunk, %.17g for a float and
    %s for anything else, with the floats of a column chunk that mixes
    them with other values formatted one by one."""
    columns = list(columns)
    chunks = [(header + "\n").encode()]
    for lo in range(0, len(columns[0]) if columns else 0, harness._CSV_ROWS):
        formats, cols = [], []
        for col in columns:
            col = col[lo:lo + harness._CSV_ROWS]
            col = col.tolist() if isinstance(col, np.ndarray) else list(col)
            floats = [issubclass(t, float) for t in set(map(type, col))]
            if all(floats):
                formats.append("%.17g")
            else:
                if any(floats):
                    col = ["%.17g" % v if isinstance(v, float) else v
                           for v in col]
                formats.append("%s")
            cols.append(col)
        line = ",".join(formats) + "\n"
        chunks.append("".join(map(line.__mod__, zip(*cols))).encode())
    return b"".join(chunks)


def artifact_bytes(art: harness._Artifacts, name: str) -> bytes:
    """The bytes `art.write` writes for artifact `name`."""
    return b"".join(art.chunks(name))


def csv_bytes(columns, header="c") -> bytes:
    art = harness._Artifacts()
    art.add_csv("a.csv", header, columns)
    return artifact_bytes(art, "a.csv")


def test_csv_bytes_match_per_value_formatting():
    # what format(float(x), ".17g") and str() write value by value, for
    # float64, int64, uint64 and float32 arrays
    floats = np.array([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                       1.7976931348623157e308, 1 / 3, 0.1])
    ints = np.array([0, -1, 2 ** 62, -2 ** 63, 1, -5, 3, 2 ** 63 - 1])
    big = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 10 ** 19, 7, 10, 5], np.uint64)
    small = np.array([1, 0.5, -0.0, 1 / 3, 1e-11, 0.1, 3e38, -2.5], np.float32)
    columns = (floats, ints, big, small)
    got = csv_bytes(columns, "f,i,u,s")

    def per_value(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    want = ["f,i,u,s"] + [",".join(map(per_value, row))
                          for row in zip(*(c.tolist() for c in columns))]
    assert got == ("\n".join(want) + "\n").encode()
    assert got == per_value_csv("f,i,u,s", columns)
    assert [line.split(",")[0] for line in want[1:]] == [
        "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
        "1.7976931348623157e+308", "0.33333333333333331", "0.10000000000000001"]
    assert b"\n1.7976931348623157e+308,-5,7,0.10000000149011612\n" in got
    assert csv_bytes((np.ones(0), np.arange(0)), "a,b") == b"a,b\n"
    assert csv_bytes((), "a,b") == b"a,b\n"


@pytest.mark.parametrize("rows", [1, harness._CSV_ROWS - 1, harness._CSV_ROWS,
                                  harness._CSV_ROWS + 1, 3 * harness._CSV_ROWS + 7])
def test_csv_chunks_match_the_per_value_oracle(rows):
    # columns of every type the harness accepts, over chunk edges: float
    # and int arrays (with values outside the kernel's domain), float32
    # and uint64 arrays
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-14, 17, rows)
    x[::5] = 0.0
    x[1::7] = np.nan
    ints = rng.integers(-2 ** 63, 2 ** 63, rows, dtype=np.int64)
    ints[::3] //= 10 ** rng.integers(0, 19, len(ints[::3]))
    columns = (np.arange(rows), x, ints, x.astype(np.float32),
               ints.view(np.uint64))
    header = ",".join("c%d" % i for i in range(len(columns)))
    assert csv_bytes(columns, header) == per_value_csv(header, columns)


def test_csv_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match=r"b\.csv: columns differ in length: \[3, 2\]"):
        harness._Artifacts().add_csv("b.csv", "a,b", (np.arange(3), np.ones(2)))


@pytest.mark.parametrize("col", [
    [1.0, 2.0], range(2), np.array([True, False]), np.ones(2, complex),
    np.array([1, "a"], object), np.ones((2, 1)),
    pytest.param(np.ones(2, np.longdouble), marks=pytest.mark.skipif(
        np.finfo(np.longdouble).bits == 64, reason="longdouble is a double here"))],
    ids=["list", "range", "bool", "complex", "object", "2-D", "longdouble"])
def test_csv_column_that_is_no_1d_float_or_int_array_is_refused(col):
    with pytest.raises(TypeError, match=r"b\.csv: column 1 "):
        harness._Artifacts().add_csv("b.csv", "a,b", (np.ones(2), col))


def test_every_kind_writes_its_csvs_as_the_per_value_oracle(tmp_path, monkeypatch):
    written = []
    add_csv = harness._Artifacts.add_csv

    def checked(self, name, header, columns):
        columns = list(columns)
        add_csv(self, name, header, columns)
        assert artifact_bytes(self, name) == per_value_csv(header, columns), name
        written.append(name)
    monkeypatch.setattr(harness._Artifacts, "add_csv", checked)
    scan = scan_config(tmp_path / "scan", lambdas=(0.0, 0.5, 1.0, 10.0),
                       grid=16, steps=300)
    lams = np.linspace(0.0, 2.0, 41)
    mus = 0.9 * (1.5 * (lams / 0.97) ** 2 - 0.5 * (lams / 0.97) ** 3)
    rows = [f"{l},{m},{1 - m},1024,0.05,0.01" for l, m in zip(lams, mus)]
    (tmp_path / "fit.csv").write_text(
        "\n".join([harness.REGION_CSV_HEADER, *rows]) + "\n")
    fit = {"kind": "transition-fit",
           "parameters": {"input_csv": str(tmp_path / "fit.csv")}}
    series = {**SERIES, "horizon": harness._CSV_ROWS + 100,
              "state": {"type": "momentum", "k": 0}}
    configs = [scan, fit] + [{"kind": kind, "parameters": params} for kind, params in (
        ("quantum-evolve", {**EVOLVE, "dim": 65}), ("correlation-series", series),
        ("volume-fraction", FRACTION), ("geometry-check", {"dims": [8, 33]}))]
    for i, config in enumerate(configs):
        config = {"output_dir": str(tmp_path / str(i)), **config}
        harness.run(harness.ExperimentConfig.from_dict(config))
    assert written == ["region_estimates.csv", "momentum_distribution.csv",
                       "spectrum.csv", "correlation_series.csv",
                       "geometry_check.csv"]


def test_float_kernel_matches_percent_g():
    # over 10**6 doubles: random mantissas in every binade from 1e-12 to
    # 1e15 of both signs (past the kernel's domain on either side), every
    # power of ten and its neighbours, exact ties of the 17th digit, and
    # the values only the per-cell route formats
    rng = np.random.default_rng(2024)
    lo, hi = np.frexp([1e-12, 1e15])[1]
    binades = np.arange(lo - 1, hi + 1)
    per = -(-10 ** 6 // len(binades))
    x = np.ldexp(rng.uniform(0.5, 1.0, (len(binades), per)), binades[:, None]).ravel()
    x[::2] *= -1
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    x = np.concatenate([x, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                        -tens, exact_ties(rng), [0.0, -0.0, np.inf, -np.inf, np.nan,
                        5e-324, -5e-324, 2.2250738585072009e-308,
                        2.2250738585072014e-308, 1.7976931348623157e308],
                        rng.uniform(0, 2.2250738585072014e-308, 1000)])
    assert len(x) >= 10 ** 6
    got = csv_bytes([x]).split(b"\n")[1:-1]
    want = ["%.17g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w.encode()]
    assert not bad[:5] and len(got) == len(want)


def test_no_double_of_the_float_kernel_domain_rounds_to_18_digits():
    # a 17-digit value rounds up to 10**17 only from within half a unit of
    # its 17th digit below a power of ten, and no double of [1e-10, 1e13)
    # lies there, so the kernel has no carry to make
    for j in range(-10, 14):
        power = Decimal(10) ** j
        below = np.nextafter(float(power), 0) if Decimal(float(power)) >= power \
            else float(power)
        assert Decimal(below) < power * (1 - Decimal("5e-18")), j


def exact_ties(rng) -> np.ndarray:
    """Doubles m * 2**e, m odd, whose exact decimal expansion has 18
    significant digits and ends in 5: half-way between two 17-digit
    values. With k = -e - 1, these are the odd m with m * 2**e in
    [10**(16 - k), 10**(17 - k)); every one for e >= -24, at most 5000 a
    binade above, down to k = 4 (e = -5)."""
    ties = []
    for e in range(-27, -4):
        k = -e - 1
        first = -(-10 ** (16 - k + 27) * 2 ** -e // 10 ** 27) | 1  # odd, >= the bound
        last = 10 ** (17 - k + 27) * 2 ** -e // 10 ** 27
        count = max(0, (last - first) // 2 + 1)
        odd = (np.arange(count) if count <= 5000
               else np.unique(rng.integers(0, count, 5000)))
        ties.append(np.ldexp((first + 2 * odd).astype(np.float64), e))
    ties = np.concatenate(ties)
    for v in ties[::97]:
        digits = Decimal(float(v)).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


def test_int_kernel_matches_str():
    edges = [0, 1, -1, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1]
    edges += [s * (10 ** j + d) for j in range(19) for d in (-1, 0, 1)
              for s in (1, -1)]
    v = np.array(edges, np.int64)
    want = "c\n" + "".join(f"{i}\n" for i in edges)
    assert csv_bytes([v]) == want.encode()
    u = np.array([0, 2 ** 63, 2 ** 64 - 1, 10 ** 19, 10 ** 19 - 1], np.uint64)
    assert csv_bytes([u]) == ("c\n" + "".join(f"{i}\n" for i in u.tolist())).encode()
    def check(values, dtype):
        want = "c\n" + "".join(f"{i}\n" for i in values)
        assert csv_bytes([np.array(values, dtype)]) == want.encode()

    # the float kernel's seams: every integer dtype's range, the last
    # integers a double holds exactly, the kernel's upper edge 10**13, and
    # a column over a chunk edge that mixes them with zeros
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        check([info.min, info.max, 0, 1, info.max - 1], dtype)
    seams = [2 ** 53 + d for d in (-1, 0, 1)] + [10 ** 13 + d for d in (-1, 0, 1)]
    check(seams, np.uint64)
    check(seams + [-i for i in seams], np.int64)
    rng = np.random.default_rng(4097)
    mixed = (rng.integers(10 ** 13 - 50, 10 ** 13 + 50, 4097)
             * rng.choice([-1, 0, 1], 4097)).tolist()
    assert len(mixed) > harness._CSV_ROWS and 0 in mixed
    assert {abs(i) >= 10 ** 13 for i in mixed if i} == {False, True}
    check(mixed, np.int64)


def test_relax_series_csv_memory(tmp_path):
    # formatting chunk by chunk as the file is written keeps the 10**5-row
    # series' peak a fraction of the bytes it writes; a whole formatted
    # copy would be one file size
    params = quantum.QuantumParams(dim=257, lam=10.0)
    system = quantum.build_floquet(params)
    series = quantum.correlation_series(
        quantum.momentum_eigenstate(257, 0), system,
        quantum.momentum_window_projector(257, 10.0, 60.0), 10 ** 5,
        allow_degenerate=True)
    columns = (series.times, series.c_q, series.cesaro)
    art = harness._Artifacts()
    art.add_csv("c.csv", "t,c_q,cesaro", columns)
    tracemalloc.start()
    try:
        checksums = art.write(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blob = (tmp_path / "c.csv").read_bytes()
    assert peak <= 0.5 * len(blob)
    assert blob == per_value_csv("t,c_q,cesaro", columns)
    assert blob == artifact_bytes(art, "c.csv")
    assert checksums == {"c.csv": hashlib.sha256(blob).hexdigest()}


# ---------------------------------------------------------------- fuzzing

# Ints stay small, so any config that runs does so in milliseconds and no
# dimension exceeds 33.
SMALL_INT = st.integers(-3, 40)
JUNK = st.one_of(st.none(), st.booleans(), SMALL_INT,
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.text(max_size=3), st.lists(SMALL_INT, max_size=2),
                 st.dictionaries(st.text(max_size=3), SMALL_INT, max_size=2))
OBSERVABLE = st.one_of(
    st.just({"type": "cos_theta"}), st.just({"type": "l_squared"}),
    st.builds(lambda lo, width: {"type": "momentum_window", "k_lo": lo,
                                 "k_hi": lo + width},
              st.integers(-17, 17), st.integers(0, 20)))
STATE = st.one_of(st.just({"type": "haar"}),
                  st.builds(lambda k: {"type": "momentum", "k": k},
                            st.integers(-3, 3)))
QUANTUM = {"dim": st.integers(0, 16).map(lambda i: 2 * i + 1),
           "lambda": st.floats(0, 20), "hbar": st.floats(0.1, 2),
           "tau": st.floats(0.1, 2)}
# mostly valid values of every key of every kind, written independently of
# the harness's own table; tiny horizons leave an empty tail window
FUZZ = {
    "classical-scan": {"lambdas": st.lists(st.floats(0, 10), max_size=3),
                       "grid_side": st.integers(16, 18),
                       "n_steps": st.integers(1, 20),
                       "threshold": st.floats(0.01, 1),
                       "tau": st.floats(0.1, 2)},
    "transition-fit": {"input_csv": st.sampled_from(["scan.csv"] * 4 + [
                           "nope.csv", "config.json"]),
                       "eps_factor": st.floats(-1, 1)},
    "quantum-evolve": {**QUANTUM, "n_kicks": st.integers(0, 50),
                       "initial_k": st.integers(-3, 3)},
    "correlation-series": {**QUANTUM, "horizon": st.integers(2, 40),
                           "observable": OBSERVABLE,
                           "allow_degenerate": st.booleans(), "state": STATE},
    "volume-fraction": {**QUANTUM, "n_states": st.integers(100, 102),
                        "horizon": st.integers(1, 30),
                        "tol": st.floats(0.01, 1),
                        "observables": st.lists(OBSERVABLE, min_size=1,
                                                max_size=2)},
    "geometry-check": {"dims": st.lists(st.integers(2, 33), max_size=3),
                       "ranks_per_dim": st.integers(1, 4)},
}
TYPO = st.one_of(st.sampled_from(["hbarr", "sed", "type", "k", "dims"]),
                 st.text(max_size=3))


@st.composite
def fuzz_configs(draw):
    """A config whose keys are each plausible, junk, absent or misspelt."""
    def fill(obj: dict, key: str, valid):
        mode = draw(st.sampled_from(["valid"] * 30 + ["junk", "absent"]))
        if mode != "absent":
            obj[key] = draw(valid if mode == "valid" else JUNK)

    def typos(obj: dict):
        if draw(st.sampled_from([False] * 14 + [True])):
            obj[draw(TYPO)] = draw(JUNK)

    kind = draw(st.sampled_from(sorted(FUZZ)))
    params = {}
    for key, valid in FUZZ[kind].items():
        fill(params, key, valid)
    typos(params)
    config = {}
    for key, valid in (("kind", st.just(kind)), ("parameters", st.just(params)),
                       ("seed", st.integers(0, 3))):
        fill(config, key, valid)
    # output_dir stays "out" or is no string, so nothing is written elsewhere
    config["output_dir"] = draw(st.sampled_from(["out"] * 30 + [None, 5, [""]]))
    typos(config)
    return draw(st.sampled_from([config] * 30 + [params, [config], "x"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    lams = np.linspace(0.0, 2.0, 21)
    mus = 0.9 * (1.5 * (lams / 0.97) ** 2 - 0.5 * (lams / 0.97) ** 3)
    rows = [harness.REGION_CSV_HEADER]
    rows += [f"{l},{m},{1 - m},1024,0.05,0.01" for l, m in zip(lams, mus)]
    (root / "scan.csv").write_text("\n".join(rows) + "\n")
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=fuzz_configs())
def test_any_config_exits_cleanly(fuzz_dir, config):
    # exit 0, or 2 / 3 with no output directory: never a traceback
    shutil.rmtree(fuzz_dir / "out", ignore_errors=True)
    write_config(fuzz_dir, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(fuzz_dir)  # the generated paths are relative
        code = cli.main(["run", "--config", "config.json"])
    assert code in (0, 2, 3)
    if code:
        assert not (fuzz_dir / "out").exists()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
PLOT_NAMES = st.sampled_from(["region_estimates.csv", "momentum_distribution.csv",
                              "correlation_series.csv", "gone.csv",
                              "fit_result.json"])


@st.composite
def fuzz_plot_files(draw):
    """A manifest and a fit_result.json (None: absent) whose parts are each
    mostly of the right shape and otherwise any JSON."""
    def mostly(valid):
        return draw(draw(st.sampled_from([valid] * 4 + [JSON])))

    kind = mostly(st.sampled_from([*harness.KINDS, "nope"]))
    manifest = mostly(st.just({
        "config": mostly(st.just({"kind": kind})),
        "artifacts": mostly(st.dictionaries(PLOT_NAMES | st.text(max_size=3),
                                            JSON, min_size=1, max_size=3))}))
    number = st.floats(-2, 2)
    fit = draw(st.none() | st.just(mostly(st.builds(
        lambda lc, mc: {"lambda_c": lc, "mu_c": mc}, number | JSON,
        number | JSON))))
    return manifest, fit


@pytest.fixture(scope="module")
def plot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("plot")
    for name in ("region_estimates.csv", "momentum_distribution.csv",
                 "correlation_series.csv"):
        (root / name).write_text("")
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(files=fuzz_plot_files())
def test_any_manifest_plots_cleanly(plot_dir, files):
    # exit 0 or 2, never a traceback, and no temp file left behind
    manifest, fit = files
    (plot_dir / "manifest.json").write_text(json.dumps(manifest))
    (plot_dir / "fit_result.json").unlink(missing_ok=True)
    if fit is not None:
        (plot_dir / "fit_result.json").write_text(json.dumps(fit))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the empty-manifest warning
        code = cli.main(["plot", "--manifest", str(plot_dir / "manifest.json")])
    assert code in (0, 2)
    assert not list(plot_dir.glob("*.tmp"))


# ---------------------------------------------------------------- file I/O

FILE_IO = {"read_text", "read_bytes", "write_text", "write_bytes", "open"}


def file_io_calls(node) -> list[int]:
    return [c.lineno for c in ast.walk(node) if isinstance(c, ast.Call)
            and getattr(c.func, "attr", getattr(c.func, "id", None)) in FILE_IO]


def test_file_io_only_in_load_and_write_atomic():
    # every file ehlab reads goes through harness._load and every file it
    # writes through harness._write_atomic
    allowed, found = [], []
    for path in sorted(Path(ehlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, line) for line in file_io_calls(tree)]
        allowed += [(path.name, line) for f in tree.body
                    if isinstance(f, ast.FunctionDef) and path.name == "harness.py"
                    and f.name in ("_load", "_write_atomic")
                    for line in file_io_calls(f)]
    assert len(allowed) == 2
    assert sorted(found) == sorted(allowed)


# ----------------------------------------------------------------- README

def readme_kind_table() -> dict:
    """{kind: {parameter: default, or None if required}} from README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not re.fullmatch(r"`[a-z-]+`", cells[0]):
            continue
        required, _, optional = cells[1].partition(";")
        params = {name: None for name in re.findall(r"`(\w+)`", required)}
        for name, value in re.findall(r"`(\w+) = ([^`]+)`", optional):
            params[name] = json.loads(value)
        table[cells[0].strip("`")] = params
    return table


def test_readme_lists_every_kind_and_parameter():
    def default(rule):
        if isinstance(rule, harness._Spec):
            return rule.default
        return None if isinstance(rule, (type, list)) else rule

    declared = {kind: {key: default(rule) for key, rule in table.items()}
                for kind, (_, table) in harness._KINDS.items()}
    assert readme_kind_table() == declared
