"""Region projectors and the Hilbert-Schmidt distance-measure identity.

For a diagonal indicator projector I_A with rank mu, the uniform state
rho_A = I_A / mu satisfies (d^2(rho_A, 1/N) + 1/N) * mu = 1 exactly,
with d the Hilbert-Schmidt (Frobenius) distance. Both states are
diagonal, so `verify_theorem2` evaluates d from their diagonals alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical import Cell
from .errors import (ConfigurationError, EmptyRegionError, require_count,
                     require_instance, require_instances)
from .quantum import QuantumParams, momentum_ladder


@dataclass(frozen=True)
class RegionProjector:
    """Diagonal 0/1 projector selecting a subset of basis indices."""

    dim: int
    indices: tuple

    def __post_init__(self):
        require_count("dim", self.dim, 1)
        idx = self.indices if np.iterable(self.indices) else (self.indices,)
        idx = tuple(sorted({int(require_count("indices", i, 0)) for i in idx}))
        if not idx:
            raise EmptyRegionError("projector needs at least one index")
        if idx[-1] >= self.dim:
            raise ConfigurationError(f"indices out of range for dim {self.dim}")
        object.__setattr__(self, "indices", idx)

    @property
    def mu_rank(self) -> int:
        """Unnormalized measure Tr(I_A) = number of selected indices."""
        return len(self.indices)

    @property
    def mu_normalized(self) -> float:
        """Rank divided by the dimension; never mixed with mu_rank."""
        return len(self.indices) / self.dim


def region_projector_from_cells(cells: Sequence, params: QuantumParams) -> RegionProjector:
    """Momentum-window projector from a list of Cell, read by their
    [p_min, p_max) bounds.

    A ladder index k is selected when hbar*k lies in some cell; windows
    are closed on the left and open on the right so adjacent cells tile
    the ladder without double counting.
    """
    require_instances("cells", cells, Cell)
    require_instance("params", params, QuantumParams)
    ladder = momentum_ladder(params.dim)
    values = params.hbar * ladder
    sel = np.zeros(params.dim, dtype=bool)
    for cell in cells:
        sel |= (values >= cell.p_min) & (values < cell.p_max)
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        raise EmptyRegionError("no ladder index falls inside the cells")
    return RegionProjector(dim=params.dim, indices=tuple(int(i) for i in idx))


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of (d^2 + 1/N) * mu - 1 for one projector."""

    dim: int
    mu: int
    d_squared: float
    residual: float


def verify_theorem2(projector: RegionProjector) -> IdentityCheck:
    """Evaluate the distance-measure identity on one diagonal projector.

    Both states are diagonal, so d^2(rho_A, 1/N) is the squared
    Euclidean distance of their diagonals. Returns it with the identity
    residual, which must vanish to 1e-12 for exact diagonal projectors.
    """
    require_instance("projector", projector, RegionProjector)
    n = projector.dim
    mu = projector.mu_rank
    diag = np.zeros(n)
    diag[list(projector.indices)] = 1.0 / mu
    d2 = float(np.sum((diag - 1.0 / n) ** 2))
    residual = (d2 + 1.0 / n) * mu - 1.0
    return IdentityCheck(dim=n, mu=mu, d_squared=d2, residual=float(residual))
