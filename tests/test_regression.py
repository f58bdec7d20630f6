import numpy as np
import pytest
from hypothesis import given, strategies as st

from terrafilter import (InsufficientDataError, InvalidInputError,
                         SingularFitError, batch_least_squares, poly_basis,
                         terrain_height)


class TestPolyBasis:
    def test_zero(self):
        np.testing.assert_array_equal(poly_basis(0.0, 4), [1, 0, 0, 0, 0])

    def test_ones(self):
        np.testing.assert_array_equal(poly_basis(1.0, 4), [1, 1, 1, 1, 1])

    def test_powers_of_two(self):
        np.testing.assert_array_equal(poly_basis(2.0, 2), [1, 2, 4])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            poly_basis(np.nan, 3)
        with pytest.raises(InvalidInputError):
            poly_basis(1.0, -1)

    @given(st.floats(-50, 50), st.integers(1, 8))
    def test_entry_recursion(self, tau, m):
        phi = poly_basis(tau, m)
        assert len(phi) == m + 1
        for k in range(m):
            assert phi[k + 1] == phi[k] * tau


class TestBatchLeastSquares:
    def test_noiseless_line(self):
        taus = np.array([0.0, 1.0, 2.0, 3.0])
        ys = 2.0 + 3.0 * taus
        fit = batch_least_squares(taus, ys, 1)
        np.testing.assert_allclose(fit.theta, [2, 3], atol=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)

    def test_constant_signal(self):
        taus = np.arange(7.0)
        fit = batch_least_squares(taus, np.ones(7), 4)
        np.testing.assert_allclose(fit.theta, [1, 0, 0, 0, 0], atol=1e-9)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-18)

    def test_normal_equations_oracle(self, rng):
        # terrain samples plus noise; oracle solves the normal equations
        # with a dense solver, independent of the SVD path under test
        t = np.linspace(0.0, 300.0, 30)
        taus = t / 100.0
        ys = terrain_height(t) + rng.normal(0.0, 0.3, 30)
        fit = batch_least_squares(taus, ys, 4)
        design = np.vander(taus, 5, increasing=True)
        oracle = np.linalg.solve(design.T @ design, design.T @ ys)
        np.testing.assert_allclose(fit.theta, oracle, atol=1e-9)

    def test_residual_orthogonality(self, rng):
        taus = np.linspace(0.0, 2.0, 40)
        ys = rng.normal(0.0, 1.0, 40)
        fit = batch_least_squares(taus, ys, 3)
        design = np.vander(taus, 4, increasing=True)
        resid = ys - design @ fit.theta
        bound = 1e-8 * np.linalg.norm(design) * np.linalg.norm(ys)
        assert np.all(np.abs(design.T @ resid) < bound)

    def test_doubling_scales_linearly(self, rng):
        taus = np.linspace(0.0, 1.5, 25)
        ys = np.sin(taus) + rng.normal(0.0, 0.2, 25)
        one = batch_least_squares(taus, ys, 2)
        two = batch_least_squares(taus, 2.0 * ys, 2)
        np.testing.assert_allclose(two.theta, 2.0 * one.theta, rtol=1e-9)
        assert two.residual_variance == pytest.approx(
            4.0 * one.residual_variance, rel=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            batch_least_squares(np.arange(5.0), np.ones(5), 4)

    def test_rank_deficient(self):
        taus = np.full(10, 2.0)  # all samples at one abscissa
        with pytest.raises(SingularFitError):
            batch_least_squares(taus, np.ones(10), 2)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            batch_least_squares([0.0, 1.0, np.nan, 3.0], np.ones(4), 1)
