"""ehlab benchmark: one workload run, timed, checked and reported.

    python3 perfbench/run.py --workload measure --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds `src/ehlab`. An untraced run first
times a few fresh interpreters importing `ehlab.cli` (set-up). The run then
imports ehlab once and runs whole rounds of the workload's configs through
`ehlab.cli.main(["run", ...])` until `--seconds` have passed. Each round
writes into a fresh directory under `.bench_out/`. Only then are the
artifacts of every round checked against the oracles in `checks.py`.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with `--trace 1` every round is
traced (see `spans.py`) and the object holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# The script's own directory is first on sys.path.
import checks
import spans
import workloads

ROOT = Path.cwd()
OUT = Path(".bench_out")
SETUP_SAMPLES = 5
KINDS = ("classical-scan", "transition-fit", "geometry-check",
         "quantum-evolve", "correlation-series", "volume-fraction")
TRACED_DIMS = (257, 1025, 2049)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def setup_seconds(samples: int) -> float:
    """Median time from spawning a fresh interpreter to `import ehlab.cli` done."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time, ehlab.cli; print(repr(time.monotonic()))"
    times = []
    for _ in range(samples):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout) - start)
    return statistics.median(times)


@dataclass
class Call:
    name: str
    config: dict
    code: int | None   # None: ehlab raised instead of returning an exit code
    printed: str


@dataclass
class Round:
    directory: Path
    calls: list[Call]
    wall: float
    cpu: float
    tracer: object = None


def run_round(workload: str, seed: int, directory: Path, tracer) -> Round:
    from ehlab import cli

    directory.mkdir(parents=True)          # fails if the directory exists
    configs = workloads.configs(workload, seed, str(directory))
    for name, config in configs:
        (directory / f"{name}.json").write_text(json.dumps(config))
    calls = []
    if tracer is not None:
        tracer.install()
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        for name, config in configs:
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    code = cli.main(["run", "--config", str(directory / f"{name}.json")])
            except Exception:
                traceback.print_exc()
                code = None
            calls.append(Call(name, config, code, printed.getvalue()))
    finally:
        t1, cpu1 = time.perf_counter(), _cpu()
        if tracer is not None:
            tracer.uninstall()
    return Round(directory, calls, t1 - t0, cpu1 - cpu0, tracer=tracer)


def layer_metrics(rnd: Round, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    tracer = rnd.tracer
    kids = tracer.children()

    def matching(name, tag=None):
        return [i for i, s in enumerate(tracer.spans)
                if s.name == name and (tag is None or s.tag == tag)]

    def busy(name, tag=None):
        return sum(tracer.spans[i].end - tracer.spans[i].start
                   for i in matching(name, tag))

    def self_s(name, tag=None):
        return sum(tracer.self_time(i, kids) for i in matching(name, tag))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    params = [c.config["parameters"] for c in rnd.calls]
    kinds = [c.config["kind"] for c in rnd.calls]
    m = {f"harness.run.busy_s.{k}": busy("harness.run", k) for k in KINDS}
    m["harness.run.self_s"] = self_s("harness.run")
    m["harness.artifact_bytes"] = float(sum(
        p.stat().st_size for c in rnd.calls
        for p in Path(c.config["output_dir"]).iterdir() if p.name != "manifest.json"))

    scan = "classical.estimate_chaotic_measure"
    steps = sum(p["grid_side"] ** 2 * (p["n_steps"] + checks.LYAPUNOV_TRANSIENT)
                * len(p["lambdas"]) for p, k in zip(params, kinds) if k == "classical-scan")
    m[f"{scan}.busy_s"] = busy(scan)
    m[f"{scan}.calls"] = float(len(matching(scan)))
    m["classical.orbit_steps"] = float(steps)
    m["classical.orbit_steps_per_s"] = ratio(steps, busy(scan))
    m["classical.pool_occupancy"] = ratio(
        busy(scan), threads * busy("harness.run", "classical-scan"))
    m["transition.fit_transition.busy_s"] = busy("transition.fit_transition")
    m["geometry.verify_theorem2.busy_s"] = busy("geometry.verify_theorem2")
    m["geometry.verify_theorem2.calls"] = float(len(matching("geometry.verify_theorem2")))
    for n in TRACED_DIMS:
        m[f"quantum.kick_operator.busy_s.N{n}"] = busy("quantum.kick_operator", f"N{n}")
        m[f"quantum.build_floquet.self_s.N{n}"] = self_s("quantum.build_floquet", f"N{n}")
    m["quantum.evolve_vector.busy_s"] = busy("quantum.evolve_vector")
    series = busy("quantum.correlation_series")
    terms = sum(p["horizon"] * p["dim"] * (p["dim"] - 1)
                for p, k in zip(params, kinds) if k == "correlation-series")
    m["quantum.correlation_series.busy_s"] = series
    m["quantum.correlation_series.terms_per_s"] = ratio(terms, series)
    fraction = busy("quantum.mixing_volume_fraction")
    states = sum(p["n_states"] for p, k in zip(params, kinds) if k == "volume-fraction")
    m["quantum.mixing_volume_fraction.busy_s"] = fraction
    m["quantum.mixing_volume_fraction.s_per_state"] = ratio(fraction, states)
    m["quantum.FloquetSystem.to_eigenbasis.busy_s"] = busy("quantum.FloquetSystem.to_eigenbasis")
    m["quantum.cos_theta_observable.busy_s"] = busy("quantum.cos_theta_observable")
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum(tracer.self_time(i, kids) for i, s in enumerate(tracer.spans)
                                   if s.name.startswith(f"{layer}."))
    m["trace.spans"] = float(len(tracer.spans))
    m["trace.wall_s"] = rnd.wall
    return m


def check_round(rnd: Round, oracles, log) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the calls and checks of one round."""
    attempted = failed = 0
    correct = True
    for call in rnd.calls:
        out = Path(call.config["output_dir"])
        todo = [("manifest", lambda o, c, _: checks.check_manifest(o, c, call.printed))]
        todo += checks.checks_for(call.config["kind"])
        attempted += 1 + len(todo)
        if call.code != 0:
            failed += 1 + len(todo)
            log(f"FAIL {call.name}: ehlab run exited {call.code}; checks not run")
            continue
        for name, check in todo:
            try:
                detail = check(out, call.config, oracles)
            except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                failed += 1
                correct = False
                log(f"FAIL {rnd.directory.name}/{call.name} {name}: {exc}")
            else:
                log(f"ok   {rnd.directory.name}/{call.name} {name}: {detail}")
    return attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ehlab" / "cli.py").is_file() or not spec_path.is_file():
        print("run from the root of an ehlab checkout (src/ehlab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds(SETUP_SAMPLES)
    sys.path.insert(0, str(ROOT / "src"))
    import ehlab.cli  # noqa: F401  (imported once, before any round)
    import ehlab.harness

    run_dir = OUT / "runs" / f"{os.getpid()}-{time.time_ns()}"
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            tracer = spans.Tracer() if args.trace else None
            rounds.append(run_round(args.workload, args.seed,
                                    run_dir / f"r{len(rounds)}", tracer))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = time.perf_counter()

        oracles = checks.OracleCache(OUT / "oracle")
        attempted = failed = 0
        correct = True
        for rnd in rounds:
            a, f, ok = check_round(rnd, oracles, print)
            attempted, failed, correct = attempted + a, failed + f, correct and ok
        checked = time.perf_counter()
        if args.trace:
            threads = ehlab.harness.max_threads()
            per_round = [layer_metrics(r, threads) for r in rounds]
            values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            wanted = spec["per_layer"]
        else:
            values = {"setup_s": setup,
                      "wall_s": statistics.median(r.wall for r in rounds),
                      "cpu_s": statistics.median(r.cpu for r in rounds),
                      "peak_rss_mib": peak_rss_mib}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"metrics {sorted(set(values) ^ names)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(f"setup_s {setup}; {len(rounds)} rounds, wall_s "
          f"{[round(r.wall, 3) for r in rounds]}; checks took {checked - measured:.1f} s")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
