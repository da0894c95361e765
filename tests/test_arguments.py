"""Every public entry point refuses a malformed scalar argument with a
ConfigurationError that names the argument, and every public function and
class of the compute modules has its row here."""

import inspect
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


# (entry point, keyword arguments that it accepts, scalar arguments and
# arguments that must be one parameter or system object)
TABLE = [
    (cl.MapParams, lambda: {"lam": 1.0, "tau": 1.0}, ["lam", "tau"]),
    (cl.estimate_chaotic_measures,
     lambda: {"params_list": [cl.MapParams(1.0)], "grid_side": 16,
              "n_steps": 50, "threshold": 0.05, "threads": 1},
     ["grid_side", "n_steps", "threshold", "threads", "params_list"]),
    (cl.Cell,
     lambda: {"theta_min": 0.0, "theta_max": 1.0, "p_min": 0.0, "p_max": 1.0},
     ["theta_min", "theta_max", "p_min", "p_max"]),
    (cl.cells_from_json, lambda: {"text": "[]"}, ["text"]),
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
    (q.evolve_vector,
     lambda: {"psi": q.momentum_eigenstate(17, 0).vector, "system": system(),
              "n": 3}, ["system"]),
    (q.correlation_series,
     lambda: {"rho0": q.momentum_eigenstate(17, 0), "system": system(),
              "obs": q.cos_theta_observable(17), "horizon": 10},
     ["horizon", "system", "rho0", "obs"]),
    (q.mixing_volume_fraction,
     lambda: {"system": system(), "o_set": [q.cos_theta_observable(17)],
              "n_states": 100, "horizon": 10, "tol": 0.1, "seed": 0},
     ["n_states", "horizon", "tol", "seed", "system", "o_set"]),
    (q.FloquetSystem.observable_in_eigenbasis,
     lambda: {"self": system(), "obs": q.cos_theta_observable(17)}, ["obs"]),
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
     lambda: {"dim": 16, "rng": np.random.default_rng(0)}, ["dim", "rng"]),
    (tr.TransitionCurve, lambda: {"lambda_c": 0.97, "mu_c": 0.9},
     ["lambda_c", "mu_c"]),
    (tr.cubic_transition, lambda: {"lam": 0.5, "curve": CURVE, "eps": 0.1},
     ["lam", "eps", "curve"]),
    (tr.quadratic_small_lambda, lambda: {"lam": 0.5, "curve": CURVE},
     ["lam", "curve"]),
    (tr.check_critical_conditions,
     lambda: {"samples": [s[:2] for s in CUBIC], "lambda_c": 0.97},
     ["lambda_c"]),
    (tr.fit_transition, lambda: {"samples": CUBIC, "eps_factor": 0.2},
     ["eps_factor", "samples"]),
    (ge.RegionProjector, lambda: {"dim": 17, "indices": (0, 1)},
     ["dim", "indices"]),
    (ge.region_projector_from_cells,
     lambda: {"cells": CELL, "params": q.QuantumParams(dim=17, lam=1.0)},
     ["params"]),
    (ge.verify_theorem2,
     lambda: {"projector": ge.RegionProjector(dim=17, indices=(0, 1))},
     ["projector"]),
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
        (q.haar_random_pure, "dim"): [2**62],
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
    (q.DensityState, lambda: {"matrix": np.eye(2) / 2}, "matrix",
     ["abc", [[1, 2], [3]], np.ones(2) / 2, [[0.5, 1.0], [0.0, 0.5]],
      np.full((2, 2), np.nan)]),
    (q.ObservableMatrix, lambda: {"matrix": np.eye(2), "label": "x"},
     "matrix", ["abc", [[1, 2], [3]], np.ones(2), [[0.0, 1.0], [0.0, 0.0]]]),
    (q.pure_state, lambda: {"vector": [1.0, 1j]}, "vector",
     ["abc", np.eye(2), [0.0, 0.0], [np.inf, 1.0]]),
]


@pytest.mark.parametrize("entry,valid,name,bad", [
    pytest.param(entry, valid, name, bad, id=f"{entry.__name__}-{name}-{i}")
    for entry, valid, name, cases in ARRAYS for i, bad in enumerate(cases)])
@pytest.mark.filterwarnings("error")
def test_malformed_array_is_a_configuration_error(entry, valid, name, bad):
    entry(**valid())  # the table's own arguments are accepted
    with pytest.raises(ConfigurationError, match=rf"\b{re.escape(name)}\b"):
        entry(**{**valid(), name: bad})


# public classes that only carry a result, and take no argument a caller
# chooses
RECORDS = {
    cl.RegionEstimate: "a kick strength's result of estimate_chaotic_measures",
    cl.CorrelationEstimate: "the result of set_correlation",
    q.FloquetSystem: "the result of build_floquet",
    q.CorrelationSeries: "the result of correlation_series",
    q.LocalizationFit: "the result of localization_fit",
    tr.CriticalReport: "the result of check_critical_conditions",
    tr.FitResult: "the result of fit_transition",
    ge.IdentityCheck: "the result of verify_theorem2",
}
MODULES = (cl, q, tr, ge)


def unlisted(modules) -> set[str]:
    """The public functions and classes that `modules` define with neither
    a TABLE or ARRAYS row nor a RECORDS entry."""
    rows = {entry for entry, *_ in TABLE + ARRAYS}
    return {f"{module.__name__}.{name}" for module in modules
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
            and obj not in rows and obj not in RECORDS}


def test_every_public_name_has_an_argument_row():
    assert unlisted(MODULES) == set()
    # and no exemption names a class the modules no longer hold
    assert all(getattr(inspect.getmodule(record), record.__name__, None)
               is record for record in RECORDS)


def test_surface_check_fails_on_a_wrapper_added_back(monkeypatch):
    def maximally_mixed(dim):
        return q.DensityState(np.eye(dim) / dim)
    maximally_mixed.__module__ = q.__name__
    monkeypatch.setattr(q, "maximally_mixed", maximally_mixed, raising=False)
    assert unlisted(MODULES) == {"ehlab.quantum.maximally_mixed"}
