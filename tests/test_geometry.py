import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlab import geometry as g
from ehlab.classical import Cell
from ehlab.errors import ConfigurationError, EmptyRegionError
from ehlab.quantum import QuantumParams


def projector_matrix(proj):
    """The dense diagonal 0/1 matrix I_A of a region projector."""
    m = np.zeros((proj.dim, proj.dim), dtype=complex)
    sel = np.array(proj.indices)
    m[sel, sel] = 1.0
    return m


class TestHsDistance:
    def test_matches_elementwise_definition(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        direct = np.sqrt(sum(abs(a[i, j] - b[i, j]) ** 2
                             for i in range(6) for j in range(6)))
        assert np.linalg.norm(a - b) == pytest.approx(direct, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        a, b, c = mats
        assert np.linalg.norm(a - a) == 0.0
        assert np.linalg.norm(a - b) == pytest.approx(np.linalg.norm(b - a))
        assert (np.linalg.norm(a - c)
                <= np.linalg.norm(a - b) + np.linalg.norm(b - c) + 1e-12)


class TestRegionProjector:
    def test_rank_and_normalization(self):
        proj = g.RegionProjector(dim=10, indices=(1, 3, 3, 5))
        assert proj.mu_rank == 3  # duplicates collapse
        assert proj.mu_normalized == pytest.approx(0.3)
        m = projector_matrix(proj)
        assert np.allclose(m @ m, m)  # idempotent
        assert np.trace(m).real == 3.0

    def test_uniform_state_is_valid_density(self):
        proj = g.RegionProjector(dim=8, indices=(0, 4, 7))
        rho = projector_matrix(proj) / proj.mu_rank
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.all(np.linalg.eigvalsh(rho) >= -1e-14)

    def test_validation(self):
        with pytest.raises(EmptyRegionError):
            g.RegionProjector(dim=5, indices=())
        with pytest.raises(ConfigurationError):
            g.RegionProjector(dim=5, indices=(5,))

    def test_from_cells_half_ladder(self):
        params = QuantumParams(dim=65, lam=1.0)
        cells = [Cell(0.0, 1.0, 0.0, 100.0)]
        proj = g.region_projector_from_cells(cells, params)
        # half-open [0, 100) keeps k = 0..32 on the 65-site ladder
        assert proj.mu_rank == 33

    def test_from_cells_respects_hbar(self):
        params = QuantumParams(dim=65, lam=1.0, hbar=2.0)
        proj = g.region_projector_from_cells([Cell(0, 1, 0.0, 10.0)], params)
        assert proj.mu_rank == 5  # hbar*k in [0,10) means k = 0..4

    def test_from_cells_empty(self):
        params = QuantumParams(dim=5, lam=1.0)
        with pytest.raises(EmptyRegionError):
            g.region_projector_from_cells([Cell(0, 1, 500.0, 501.0)], params)


class TestDistanceMeasureIdentity:
    def test_closed_form_small_case(self):
        # N=4, mu=2: d^2 = |1/2-1/4|^2*2 + |1/4|^2*2 = 1/4, (1/4+1/4)*2 = 1
        check = g.verify_theorem2(g.RegionProjector(dim=4, indices=(0, 1)))
        assert check.d_squared == pytest.approx(0.25, abs=1e-14)
        assert abs(check.residual) < 1e-14

    def test_full_projector_zero_distance(self):
        check = g.verify_theorem2(g.RegionProjector(dim=7, indices=tuple(range(7))))
        assert check.d_squared == pytest.approx(0.0, abs=1e-14)
        assert abs(check.residual) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_identity_holds_for_all_diagonal_projectors(self, data):
        dim = data.draw(st.integers(2, 64))
        mu = data.draw(st.integers(1, dim))
        indices = tuple(data.draw(
            st.permutations(range(dim)))[:mu])
        proj = g.RegionProjector(dim=dim, indices=indices)
        check = g.verify_theorem2(proj)
        assert check.mu == mu
        assert abs(check.residual) < 1e-12
        # closed form d^2 = 1/mu - 1/N
        assert check.d_squared == pytest.approx(1.0 / mu - 1.0 / dim, abs=1e-12)
        # the diagonal path agrees with the dense Hilbert-Schmidt distance
        uniform = projector_matrix(proj) / mu
        dense = np.linalg.norm(uniform - np.eye(dim) / dim) ** 2
        assert abs(check.d_squared - dense) <= 1e-13

    def test_large_dimensions(self):
        for dim in (256, 1024, 4096):
            proj = g.RegionProjector(dim=dim, indices=tuple(range(dim // 3)))
            assert abs(g.verify_theorem2(proj).residual) < 1e-12
