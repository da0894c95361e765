"""Every public entry point refuses a malformed scalar argument with a
ConfigurationError that names the argument."""

import re
from functools import cache

import numpy as np
import pytest

from ehlab import classical as cl
from ehlab import geometry as ge
from ehlab import quantum as q
from ehlab import transition as tr
from ehlab.errors import ConfigurationError

BAD = [True, "1", None, 1 + 0j, np.array([1.0]), float("nan"), float("inf"),
       10**400]

CURVE = tr.TransitionCurve(lambda_c=0.97, mu_c=0.9)
LAMS = np.linspace(0.0, 2.0, 21)
CUBIC = [(lam, 0.9 * min(1.0, tr._shape(lam / 0.97)), 0.01) for lam in LAMS]
CELL = [cl.Cell(0.0, np.pi, 0.0, np.pi)]


@cache
def system():
    return q.build_floquet(q.QuantumParams(dim=17, lam=10.0))


def orbit(**kw):
    return {"x0": cl.PhasePoint(1.0, 1.0), "params": cl.MapParams(1.0),
            "n_steps": 1000, **kw}


# (entry point, keyword arguments that it accepts, scalar arguments and
# arguments that must be one parameter or system object)
TABLE = [
    (cl.PhasePoint, lambda: {"theta": 1.0, "p": 1.0}, ["theta", "p"]),
    (cl.MapParams, lambda: {"lam": 1.0, "tau": 1.0}, ["lam", "tau"]),
    (cl.lyapunov_exponent, orbit, ["n_steps", "x0", "params"]),
    (cl.classify_orbit, lambda: orbit(threshold=0.05),
     ["n_steps", "threshold", "x0", "params"]),
    (cl.estimate_chaotic_measures,
     lambda: {"params_list": [cl.MapParams(1.0)], "grid_side": 16,
              "n_steps": 50, "threshold": 0.05, "threads": 1},
     ["grid_side", "n_steps", "threshold", "threads"]),
    (cl.set_correlation,
     lambda: {"A": CELL, "B": CELL, "params": cl.MapParams(1.0), "t": 1,
              "n_samples": 10_000, "seed": 0},
     ["n_samples", "t", "seed", "params"]),
    (q.QuantumParams, lambda: {"dim": 17, "lam": 1.0, "hbar": 1.0,
                               "tau": 1.0},
     ["dim", "lam", "hbar", "tau"]),
    (q.build_floquet,
     lambda: {"params": q.QuantumParams(dim=17, lam=10.0), "threads": 1},
     ["params", "threads"]),
    (q.evolve,
     lambda: {"rho": q.momentum_eigenstate(17, 0), "system": system(),
              "n": 3}, ["system"]),
    (q.evolve_vector,
     lambda: {"psi": q.momentum_eigenstate(17, 0).vector, "system": system(),
              "n": 3}, ["system"]),
    (q.cesaro_limit_state,
     lambda: {"rho0": q.momentum_eigenstate(17, 0), "system": system(),
              "allow_degenerate": True}, ["system"]),
    (q.correlation_series,
     lambda: {"rho0": q.momentum_eigenstate(17, 0), "system": system(),
              "obs": q.cos_theta_observable(17), "horizon": 10},
     ["horizon", "system"]),
    (q.mixing_volume_fraction,
     lambda: {"system": system(), "o_set": [q.cos_theta_observable(17)],
              "n_states": 100, "horizon": 10, "tol": 0.1, "seed": 0},
     ["n_states", "horizon", "tol", "seed", "system"]),
    (q.momentum_window_projector,
     lambda: {"dim": 17, "k_lo": 0.0, "k_hi": 5.0, "hbar": 1.0},
     ["k_lo", "k_hi", "dim", "hbar"]),
    (q.momentum_ladder, lambda: {"dim": 17}, ["dim"]),
    (q.cos_theta_observable, lambda: {"dim": 17}, ["dim"]),
    (q.l_squared_observable, lambda: {"dim": 17, "hbar": 1.0},
     ["dim", "hbar"]),
    (q.momentum_eigenstate, lambda: {"dim": 17, "k": 1}, ["dim", "k"]),
    # states are not tied to the ladder: any dimension >= 1 will do
    (q.haar_random_pure,
     lambda: {"dim": 16, "rng": np.random.default_rng(0)}, ["dim"]),
    (q.maximally_mixed, lambda: {"dim": 16}, ["dim"]),
    (tr.TransitionCurve, lambda: {"lambda_c": 0.97, "mu_c": 0.9},
     ["lambda_c", "mu_c"]),
    (tr.cubic_transition, lambda: {"lam": 0.5, "curve": CURVE, "eps": 0.1},
     ["lam", "eps"]),
    (tr.quadratic_small_lambda, lambda: {"lam": 0.5, "curve": CURVE},
     ["lam"]),
    (tr.check_critical_conditions,
     lambda: {"samples": [s[:2] for s in CUBIC], "lambda_c": 0.97},
     ["lambda_c"]),
    (tr.fit_transition, lambda: {"samples": CUBIC, "eps_factor": 0.2},
     ["eps_factor"]),
    (ge.RegionProjector, lambda: {"dim": 17, "indices": (0, 1)},
     ["dim", "indices"]),
    (ge.region_projector_from_cells,
     lambda: {"cells": CELL, "params": q.QuantumParams(dim=17, lam=1.0)},
     ["params"]),
]
# optional arguments, for which None picks the default
OPTIONAL = {(tr.cubic_transition, "eps")}
# more malformed values of one argument, besides BAD: a ladder dimension
# is odd and small enough for numpy to index a dense N x N complex array
# (these two are refused before anything is allocated), a state's dimension
# is held to the same size, a series' horizon and a scan's grid to an array
# numpy can index, hbar is positive and keeps L^2's (hbar k)^2 finite,
# projector indices are counts, never strings, and a map's lam and tau
# keep its Jacobian's row sums in range
LADDER = [q.QuantumParams, q.momentum_window_projector, q.momentum_ladder,
          q.cos_theta_observable, q.l_squared_observable,
          q.momentum_eigenstate]
MORE = {**{(entry, "dim"): [4, 2.5, 2**62 + 1, 2**31 + 1] for entry in LADDER},
        **{(entry, "dim"): [2**62] for entry in
           (q.maximally_mixed, q.haar_random_pure)},
        (q.correlation_series, "horizon"): [2**62],
        (cl.estimate_chaotic_measures, "grid_side"): [2**31],
        (cl.MapParams, "lam"): [1e20], (cl.MapParams, "tau"): [1e19],
        (q.momentum_window_projector, "hbar"): [-1, "x"],
        (q.l_squared_observable, "hbar"): [-1, "x", 1e200],
        (ge.RegionProjector, "indices"): [("3",), (2.5,), (True,),
                                          (2.5, True)]}


@pytest.mark.parametrize("entry,valid,name", [
    pytest.param(entry, valid, name, id=f"{entry.__name__}-{name}")
    for entry, valid, names in TABLE for name in names])
@pytest.mark.filterwarnings("error")
def test_malformed_scalar_is_a_configuration_error(entry, valid, name):
    entry(**valid())  # the table's own arguments are accepted
    for bad in BAD + MORE.get((entry, name), []):
        if bad is None and (entry, name) in OPTIONAL:
            continue
        with pytest.raises(ConfigurationError, match=rf"\b{re.escape(name)}\b"):
            entry(**{**valid(), name: bad})


KS = np.arange(-10, 11)
DIST = list(zip(KS.tolist(), (np.exp(-np.abs(KS) / 3.0) / 5.0).tolist()))
SAMPLES = [s[:2] for s in CUBIC]
NAN_LAST = SAMPLES[:-1] + [(2.0, float("nan"))]
ONE_K = [(0, 0.4), (0, 0.3), (0, 0.3)]
# |k| near 1e154 and up overflows the fit's column scaling
HUGE_K = [(k * 1e200, p) for k, p in DIST]
BAD_DIST = [[], [(1,)], [(float("inf"), 0.1)] + DIST, ONE_K, HUGE_K]
# (entry, keyword arguments that it accepts, row, array or cell argument,
# malformed values of it)
ARRAYS = [
    (q.localization_fit, lambda: {"distribution": DIST}, "distribution",
     BAD_DIST),
    (q.localization_length, lambda: {"distribution": DIST}, "distribution",
     BAD_DIST),
    (tr.check_critical_conditions,
     lambda: {"samples": SAMPLES, "lambda_c": 0.97}, "samples",
     [NAN_LAST, "abcdef", [(0.0,)] + SAMPLES[1:]]),
    # a row that is not a sequence is named by its index
    (tr.fit_transition, lambda: {"samples": CUBIC}, "samples",
     [[1.0] * 6, CUBIC[:3] + [None] + CUBIC[4:]]),
    (cl.set_correlation,
     lambda: {"A": CELL, "B": CELL, "params": cl.MapParams(1.0), "t": 1,
              "n_samples": 10_000, "seed": 0}, "B", [["x"]]),
    (ge.region_projector_from_cells,
     lambda: {"cells": CELL, "params": q.QuantumParams(dim=17, lam=1.0)},
     "cells", [[1]]),
    (ge.hs_distance, lambda: {"a": np.eye(2), "b": np.eye(2)}, "a",
     ["abc", [[1, 2], [3]]]),
]


@pytest.mark.parametrize("entry,valid,name,bad", [
    pytest.param(entry, valid, name, bad, id=f"{entry.__name__}-{name}-{i}")
    for entry, valid, name, cases in ARRAYS for i, bad in enumerate(cases)])
@pytest.mark.filterwarnings("error")
def test_malformed_array_is_a_configuration_error(entry, valid, name, bad):
    entry(**valid())  # the table's own arguments are accepted
    with pytest.raises(ConfigurationError, match=rf"\b{re.escape(name)}\b"):
        entry(**{**valid(), name: bad})
