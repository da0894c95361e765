"""The benchmark's workloads: the `ehlab run` configs each one executes.

Every config is generated here from the workload name and the seed, so the
same seed gives the same inputs. The program only ever sees these configs.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("measure", "floquet", "relax")

# measure: classical-scan, then the fit of its CSV, then geometry-check.
SCAN_LAMBDAS = [i / 10 for i in range(21)]
SCAN_GRID = 64
SCAN_STEPS = 2000
GEOMETRY_DIMS = [17, 129, 513, 1025, 2049]

# floquet: quantum-evolve from |k=0> at two dimensions.
EVOLVE_DIMS = (1025, 2049)
EVOLVE_LAMBDA = 10.0
EVOLVE_BASE_KICKS = 10_000
# The seed adds up to this many kicks; the oracle continues from a cached
# state at EVOLVE_BASE_KICKS, so a new seed costs it only the extra kicks.
EVOLVE_EXTRA_KICKS = 200

# relax: one correlation series over a long horizon, then the volume
# fraction of Haar states over a short tail.
RELAX_DIM = 257
RELAX_LAMBDA = 10.0
WINDOW = {"type": "momentum_window", "k_lo": 10, "k_hi": 60}
SERIES_HORIZON = 100_000
FRACTION_STATES = 200
FRACTION_HORIZON = 10_000
# Every Haar state passes P[10,60) (its largest tail |C_Q| was 0.126 over
# 20 seeds of 200 states), so every state also evaluates cos_theta, which
# most states pass: the fraction lies strictly between 0 and 1 (0.80-0.89)
# and the work per state does not depend on the seed.
FRACTION_TOL = 0.16


def configs(workload: str, seed: int, out: str) -> list[tuple[str, dict]]:
    """(name, config) pairs in the order the workload runs them.

    `out` is the fresh directory of one round; each config writes into its
    own subdirectory of it.
    """
    def cfg(name, kind, parameters):
        return name, {"kind": kind, "seed": seed,
                      "output_dir": f"{out}/{name}", "parameters": parameters}

    if workload == "measure":
        return [
            cfg("scan", "classical-scan",
                {"lambdas": SCAN_LAMBDAS, "grid_side": SCAN_GRID,
                 "n_steps": SCAN_STEPS}),
            cfg("fit", "transition-fit",
                {"input_csv": f"{out}/scan/region_estimates.csv"}),
            cfg("geometry", "geometry-check", {"dims": GEOMETRY_DIMS}),
        ]
    if workload == "floquet":
        extra = int(np.random.default_rng([seed, 1]).integers(EVOLVE_EXTRA_KICKS))
        return [cfg(f"evolve{n}", "quantum-evolve",
                    {"dim": n, "lambda": EVOLVE_LAMBDA,
                     "n_kicks": EVOLVE_BASE_KICKS + extra, "initial_k": 0})
                for n in EVOLVE_DIMS]
    if workload == "relax":
        return [
            cfg("series", "correlation-series",
                {"dim": RELAX_DIM, "lambda": RELAX_LAMBDA,
                 "horizon": SERIES_HORIZON, "observable": WINDOW,
                 "state": {"type": "momentum", "k": 0}}),
            cfg("fraction", "volume-fraction",
                {"dim": RELAX_DIM, "lambda": RELAX_LAMBDA,
                 "n_states": FRACTION_STATES, "horizon": FRACTION_HORIZON,
                 "tol": FRACTION_TOL, "observables": [WINDOW, {"type": "cos_theta"}]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")
