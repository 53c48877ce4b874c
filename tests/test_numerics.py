import math
import pickle
import re

import numpy as np
import pytest

from scalemix.model import PriorHyperparameters
from scalemix.numerics import (
    SYMMETRY_RTOL,
    NotPositiveDefiniteError,
    as_psd,
    cholesky,
    log_det,
    mahalanobis_sq_batch,
)

class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(2))
        assert np.allclose(f.lower, np.eye(2))

    def test_reconstruction(self):
        f = cholesky([[4.0, 2.0], [2.0, 3.0]])
        assert np.allclose(f.lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(f.lower @ f.lower.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert err.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky([[1.0, 0.5], [0.2, 1.0]])

    @pytest.mark.parametrize("component", [None, 2])
    def test_error_survives_pickling(self, component):
        # a worker process sends it back to the parent pickled
        err = NotPositiveDefiniteError(3, component)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NotPositiveDefiniteError
        assert str(back) == str(err)
        assert (back.pivot_index, back.component) == (3, component)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("pivot", [0, 1])
    def test_non_finite_pivot_raises(self, pivot, value):
        m = np.eye(2)
        m[pivot, pivot] = value
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert err.value.pivot_index == pivot

    def test_non_finite_pivot_raises_in_larger_matrix(self, rng):
        a = rng.standard_normal((8, 8))
        m = a @ a.T + 8 * np.eye(8)
        m[5, 5] = np.nan
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert err.value.pivot_index == 5

    def test_random_spd_reconstruction(self, rng):
        for _ in range(25):
            d = rng.integers(1, 9)
            a = rng.standard_normal((d, d))
            m = a @ a.T + d * np.eye(d)
            f = cholesky(m)
            assert np.allclose(f.lower @ f.lower.T, m, rtol=1e-10, atol=1e-12)


class TestLogDet:
    def test_identity(self):
        assert log_det(cholesky(np.eye(3))) == pytest.approx(0.0, abs=1e-14)

    def test_known_determinant(self):
        assert log_det(cholesky([[4.0, 2.0], [2.0, 3.0]])) == pytest.approx(
            math.log(8.0), abs=1e-12
        )
        assert log_det(cholesky(0.5 * np.eye(2))) == pytest.approx(
            math.log(0.25), abs=1e-12
        )

    def test_matches_eigenvalue_product(self, rng):
        for _ in range(20):
            d = rng.integers(2, 9)
            a = rng.standard_normal((d, d))
            m = a @ a.T + d * np.eye(d)
            ref = float(np.sum(np.log(np.linalg.eigvalsh(m))))
            assert log_det(cholesky(m)) == pytest.approx(ref, rel=1e-8)


class TestMahalanobis:
    def test_zero_at_center(self):
        f = cholesky([[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis_sq_batch([[1.0], [-2.0]], [1.0, -2.0], f)[0] == 0.0

    def test_identity_metric(self):
        f = cholesky(np.eye(2))
        assert mahalanobis_sq_batch([[3.0], [4.0]], [0.0, 0.0], f)[0] == pytest.approx(25.0)

    def test_analytic_inverse(self):
        f = cholesky([[4.0, 2.0], [2.0, 3.0]])
        assert mahalanobis_sq_batch([[1.0], [0.0]], [0.0, 0.0], f)[0] == pytest.approx(0.375)

    def test_nonnegative_and_zero_only_at_center(self, rng):
        for _ in range(50):
            d = rng.integers(1, 6)
            a = rng.standard_normal((d, d))
            f = cholesky(a @ a.T + d * np.eye(d))
            x = rng.standard_normal(d)
            c = rng.standard_normal(d)
            v = mahalanobis_sq_batch(x[:, None], c, f)[0]
            assert v >= 0.0
            if not np.allclose(x, c):
                assert v > 0.0

    @pytest.mark.parametrize("points", [[[1.0], [2.0], [3.0]], [[1.0, 2.0]], [1.0, 2.0]])
    def test_dimension_mismatch(self, points):
        # points are columns: a (1, 2) row and a bare vector are refused too
        f = cholesky(np.eye(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            mahalanobis_sq_batch(points, [0.0, 0.0], f)

    def test_batch_matches_scalar(self, rng):
        a = rng.standard_normal((3, 3))
        f = cholesky(a @ a.T + 3 * np.eye(3))
        pts = rng.standard_normal((3, 40))
        center = rng.standard_normal(3)
        batch = mahalanobis_sq_batch(pts, center, f)
        assert batch.shape == (40,)
        for i in range(40):
            one_column = mahalanobis_sq_batch(pts[:, i : i + 1], center, f)
            assert one_column.shape == (1,)
            assert batch[i] == pytest.approx(one_column[0], rel=1e-12)


def spd_stack(rng, k, d):
    a = rng.standard_normal((k, d, d))
    return a @ a.transpose(0, 2, 1) + d * np.eye(d)


class TestAsPsd:
    """An exactly symmetric input is copied; any other is checked and averaged."""

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 3, 2)])
    def test_non_square_input_rejected(self, shape):
        message = f"expected a square matrix or a stack of them, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_psd(np.ones(shape))

    def test_exactly_symmetric_stack_is_copied(self, rng):
        m = spd_stack(rng, 4, 3)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        out = as_psd(m)
        assert np.array_equal(out, 0.5 * (m + m.transpose(0, 2, 1)))
        assert not np.shares_memory(out, m)
        # the prior freezes its own W0, not the caller's matrix
        w0 = m[0].copy()
        prior = PriorHyperparameters(
            alpha0=0.1, beta0=1.0, m0=np.zeros(3), W0=w0, eta0=4.0, nu_fixed=5.0, k_init=1
        )
        assert np.array_equal(prior.W0, w0)
        assert w0.flags.writeable and not prior.W0.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_member_reaches_the_factorisation(self, rng, value):
        m = spd_stack(rng, 3, 3)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        m[1, 0, 2] = m[1, 2, 0] = value
        out = as_psd(m)
        assert np.array_equal(out, m, equal_nan=True)
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (1, 2)

    def test_asymmetry_within_tolerance_is_symmetrised(self, rng):
        m = spd_stack(rng, 3, 4)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        m[2, 0, 3] += 0.5 * SYMMETRY_RTOL * np.abs(m[2]).max()
        out = as_psd(m)
        assert np.array_equal(out, 0.5 * (m + m.transpose(0, 2, 1)))
        assert np.array_equal(out, out.transpose(0, 2, 1))
        assert out[2, 0, 3] != m[2, 0, 3]


class TestStackedFactorisation:
    """A ``(k, d, d)`` stack is validated at once and factorised per member."""

    def test_single_member_stack_equals_matrix_call(self, rng):
        for d in (1, 2, 5, 8):
            m = spd_stack(rng, 1, d)
            stacked = cholesky(m)
            assert stacked.lower.shape == (1, d, d)
            assert np.array_equal(stacked.lower[0], cholesky(m[0]).lower)

    def test_members_equal_matrix_calls(self, rng):
        m = spd_stack(rng, 6, 4)
        f = cholesky(m)
        pts = rng.standard_normal((4, 30)) * 3.0
        centers = rng.standard_normal((6, 4))
        d2 = mahalanobis_sq_batch(pts, centers, f)
        assert d2.shape == (6, 30)
        dets = log_det(f)
        for j in range(6):
            single = cholesky(m[j])
            assert np.array_equal(f.lower[j], single.lower)
            assert dets[j] == log_det(single)
            assert np.array_equal(d2[j], mahalanobis_sq_batch(pts, centers[j], single))

    def test_batched_points_equal_per_member_stacks(self, rng):
        # a leading batch axis on the points: member b's points against its
        # own k factors, which sit at b * k ... b * k + k - 1 in the stack
        n_batch, k, d = 3, 4, 5
        m = spd_stack(rng, n_batch * k, d)
        f = cholesky(m)
        pts = rng.standard_normal((n_batch, d, 20)) * 3.0
        centers = rng.standard_normal((n_batch, k, d))
        d2 = mahalanobis_sq_batch(pts, centers, f)
        assert d2.shape == (n_batch, k, 20)
        assert d2.flags.c_contiguous
        for b in range(n_batch):
            alone = mahalanobis_sq_batch(pts[b], centers[b], cholesky(m[b * k : (b + 1) * k]))
            assert np.array_equal(d2[b], alone)

    def test_non_positive_definite_member_is_named(self, rng):
        m = spd_stack(rng, 4, 3)
        m[2] = [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (2, 2)
        assert "component 2" in str(err.value) and "pivot 2" in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pivot_member_is_named(self, rng, value):
        m = spd_stack(rng, 3, 4)
        m[1, 3, 3] = value
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (1, 3)

    def test_asymmetric_member_is_named(self, rng):
        m = spd_stack(rng, 3, 2)
        m[1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="component 1 is not symmetric"):
            cholesky(m)

    def test_earlier_non_finite_member_is_named_before_a_later_pivot(self, rng):
        # the factorisation passes the NaN member; the non-positive pivot of
        # member 3 fails it, and member 1 is still the first failure
        m = spd_stack(rng, 5, 4)
        m[1, 2, 2] = np.nan
        m[3] = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (1, 2)

    def test_earlier_pivot_member_is_named_before_a_later_non_finite_one(self, rng):
        m = spd_stack(rng, 5, 4)
        m[1] = np.diag([1.0, -1.0, 1.0, 1.0])
        m[3, 2, 2] = np.nan
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (1, 1)

    def test_non_finite_pivot_is_named_before_a_later_pivot_of_its_member(self, rng):
        m = spd_stack(rng, 3, 4)
        m[2] = np.diag([1.0, np.inf, 1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert (err.value.component, err.value.pivot_index) == (2, 1)

    def test_point_on_a_member_center_is_at_exact_zero(self, rng):
        f = cholesky(spd_stack(rng, 4, 5) * 1e3)
        centers = rng.standard_normal((4, 5)) * 1e4
        d2 = mahalanobis_sq_batch(np.vstack([centers, centers[2] + 1.0]).T, centers, f)
        assert np.all(np.diag(d2[:, :4]) == 0.0)
        assert np.all(d2[:, 4] > 0.0)

    def test_inverse_is_cached_and_inverts_each_member(self, rng):
        f = cholesky(spd_stack(rng, 3, 4))
        assert f.inverse is f.inverse
        assert np.allclose(f.inverse @ f.lower, np.eye(4), rtol=0.0, atol=1e-14)

    def test_matrix_error_names_no_component(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert err.value.component is None
