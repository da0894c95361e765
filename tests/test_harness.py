import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehlab import cli, harness
from ehlab.errors import ConfigurationError


def write_config(tmp_path: Path, payload: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
        monkeypatch.setenv("EHLAB_THREADS", "3")
        assert harness.max_threads() == 3
        monkeypatch.setenv("EHLAB_THREADS", "zero")
        with pytest.raises(ConfigurationError):
            harness.max_threads()
        monkeypatch.setenv("EHLAB_THREADS", "0")
        with pytest.raises(ConfigurationError):
            harness.max_threads()


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

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            harness.run(harness.ExperimentConfig.from_dict(scan_config(d)))
        assert (a / "region_estimates.csv").read_bytes() == \
            (b / "region_estimates.csv").read_bytes()

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


class TestPlotScripts:
    def test_scan_plot_with_fit_overlay(self, tmp_path):
        harness.run(harness.ExperimentConfig.from_dict(scan_config(tmp_path)))
        (tmp_path / "fit_result.json").write_text(
            json.dumps({"lambda_c": 1.0, "mu_c": 0.9}))
        scripts = harness.emit_plot_scripts(tmp_path / "manifest.json")
        assert scripts == [str(tmp_path / "plot_mu_vs_lambda.gp")]
        text = Path(scripts[0]).read_text()
        assert "region_estimates.csv" in text
        assert "cubic" in text

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

    def test_run_exit_codes(self, tmp_path, capsys):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        assert cli.main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("manifest.json")

        bad = write_config(tmp_path, {"kind": "nope", "parameters": {}},
                           name="bad.json")
        assert cli.main(["run", "--config", str(bad)]) == 2

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

    def test_plot_subcommand(self, tmp_path, capsys):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(
            ["plot", "--manifest", str(tmp_path / "out" / "manifest.json")]) == 0
        assert "plot_mu_vs_lambda.gp" in capsys.readouterr().out

    def test_installed_entry_point(self, tmp_path):
        config = write_config(tmp_path, scan_config(tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-m", "ehlab.cli", "run", "--config", str(config)],
            capture_output=True, text=True)
        assert proc.returncode == 0
