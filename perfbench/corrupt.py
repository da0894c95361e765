"""Show that every artifact check fails on a corrupted artifact.

    python3 perfbench/corrupt.py [--seed 0]

Run from the root of an ehlab checkout. For each workload it runs one round
of its configs, confirms every check passes, then applies one small
corruption per check to a copy of the output and confirms that the check
now fails. Prints one line per corruption; exits 1 if any goes unnoticed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def _edit_csv(path: Path, row: int, col: int, change):
    """Apply `change` to one numeric cell, re-formatted as the harness does."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = format(change(float(cells[col])), ".17g")
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, key: str, change):
    payload = json.loads(path.read_text())
    payload[key] = change(payload[key])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _tamper_bytes(out: Path):
    name = next(p for p in sorted(out.iterdir()) if p.name != "manifest.json")
    blob = bytearray(name.read_bytes())
    blob[-2] = ord("0") if blob[-2] != ord("0") else ord("1")
    name.write_bytes(bytes(blob))


def _mu_shift(out: Path):
    """Move 3% of the grid from regular to chaotic at lambda = 1.5."""
    _edit_csv(out / "region_estimates.csv", 15, 1, lambda v: v + 0.03)
    _edit_csv(out / "region_estimates.csv", 15, 2, lambda v: v - 0.03)


def _bump_phase(out: Path):
    """Nudge one mid-spectrum quasi-energy by 1e-7, keeping the order."""
    rows = (out / "spectrum.csv").read_text().count("\n") - 1
    _edit_csv(out / "spectrum.csv", rows // 2, 1, lambda v: v + 1e-7)


# (call name, check name, what is done, corruption)
CORRUPTIONS = {
    "measure": [
        ("scan", "manifest", "one byte of an artifact changed", _tamper_bytes),
        ("scan", "manifest", "stray file left by an older run",
         lambda o: (o / "old_region_estimates.csv").write_text("lambda\n")),
        ("scan", "scan.oracle", "mu_A(1.5) +0.03, mu_E -0.03", _mu_shift),
        ("fit", "fit.refit", "mu_c x (1 + 1e-6)",
         lambda o: _edit_json(o / "fit_result.json", "mu_c", lambda v: v * (1 + 1e-6))),
        ("geometry", "geometry.identity", "d2 of the first row +1e-9",
         lambda o: _edit_csv(o / "geometry_check.csv", 0, 2, lambda v: v + 1e-9)),
    ],
    "floquet": [
        ("evolve1025", "evolve.split_step", "p(k=0) +1e-8",
         lambda o: _edit_csv(o / "momentum_distribution.csv", 512, 1, lambda v: v + 1e-8)),
        ("evolve1025", "evolve.spectrum", "one quasi-energy +1e-7", _bump_phase),
        ("evolve2049", "evolve.localization", "slope x (1 + 1e-6)",
         lambda o: _edit_json(o / "localization.json", "slope", lambda v: v * (1 + 1e-6))),
    ],
    "relax": [
        ("series", "series.split_step", "c_q(50000) +1e-8",
         lambda o: _edit_csv(o / "correlation_series.csv", 50000, 1, lambda v: v + 1e-8)),
        ("series", "series.cesaro", "cesaro(70000) +1e-9",
         lambda o: _edit_csv(o / "correlation_series.csv", 70000, 2, lambda v: v + 1e-9)),
        ("fraction", "fraction.oracle", "fraction + 1/200",
         lambda o: _edit_json(o / "volume_fraction.json", "fraction", lambda v: v + 0.005)),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (run.ROOT / "src" / "ehlab" / "cli.py").is_file():
        print("run from the root of an ehlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    base = run.OUT / "corrupt"
    shutil.rmtree(base, ignore_errors=True)
    oracles = checks.OracleCache(run.OUT / "oracle")
    missed = 0
    try:
        for workload, cases in CORRUPTIONS.items():
            rnd = run.run_round(workload, args.seed, base / workload, None)
            attempted, failed, _ = run.check_round(rnd, oracles, lambda line: None)
            print(f"{workload}: {attempted - failed}/{attempted} checks pass on the "
                  f"untouched output")
            missed += failed
            calls = {c.name: c for c in rnd.calls}
            for name, check_name, what, corrupt in cases:
                call = calls[name]
                copy = base / "copies" / f"{len(list(base.glob('copies/*')))}"
                shutil.copytree(call.config["output_dir"], copy)
                corrupt(copy)
                if check_name == "manifest":
                    # as if ehlab had printed the copy's manifest path
                    def check(o, c, _):
                        return checks.check_manifest(o, c, str(o / "manifest.json"))
                else:
                    check = dict(checks.checks_for(call.config["kind"]))[check_name]
                try:
                    check(copy, call.config, oracles)
                except checks.CheckFailed as exc:
                    print(f"  caught  {check_name:20s} {what:34s} -> {exc}")
                else:
                    missed += 1
                    print(f"  MISSED  {check_name:20s} {what}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
