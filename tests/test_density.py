import math

import numpy as np
import pytest

from scalemix.density import (
    StudentParams,
    log_marginal_density,
    log_t_kernel,
    quadrature_marginal_density,
)
from scalemix.numerics import log_det, mahalanobis_sq_batch


def log_density_rows(points, p):
    """Closed-form log density at each row: the kernel over batch distances."""
    d2 = mahalanobis_sq_batch(np.asarray(points, dtype=float).T, p.mu, p._factor)
    return log_t_kernel(d2, log_det(p._factor), p.dim, p.nu)


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


class TestClosedForm:
    def test_standard_cauchy_center(self):
        p = StudentParams(mu=[0.0], sigma=[[1.0]], nu=1.0)
        assert log_marginal_density([0.0], p) == pytest.approx(-1.1447298858494002, abs=1e-10)

    def test_standard_cauchy_at_one(self):
        p = StudentParams(mu=[0.0], sigma=[[1.0]], nu=1.0)
        assert log_marginal_density([1.0], p) == pytest.approx(-1.8378770664093453, abs=1e-10)

    def test_bivariate_center_value(self):
        # at the center the (1 + d2/nu) factor vanishes for any nu
        p = StudentParams(mu=[0.0, 0.0], sigma=np.eye(2), nu=4.0)
        expected = math.lgamma(3.0) - math.lgamma(2.0) - math.log(math.pi * 4.0)
        assert log_marginal_density([0.0, 0.0], p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(1.0 / (2.0 * math.pi)), abs=1e-12)

    def test_dimension_mismatch(self):
        p = StudentParams(mu=[0.0, 0.0], sigma=np.eye(2), nu=4.0)
        with pytest.raises(ValueError):
            log_marginal_density([0.0], p)

    def test_quadrature_dimension_mismatch(self):
        p = StudentParams(mu=[0.0, 0.0], sigma=np.eye(2), nu=4.0)
        with pytest.raises(ValueError, match="^x has dim 3, params have dim 2$"):
            quadrature_marginal_density([0.0, 0.0, 0.0], p)

    def test_mu_and_sigma_dims_must_agree(self):
        with pytest.raises(ValueError, match="^mu has dim 2 but sigma is 3x3$"):
            StudentParams(mu=[0.0, 0.0], sigma=np.eye(3), nu=4.0)

    def test_non_pd_sigma_rejected(self):
        with pytest.raises(Exception):
            StudentParams(mu=[0.0, 0.0], sigma=[[1.0, 2.0], [2.0, 1.0]], nu=1.0)

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan, 0.0, -2.0])
    def test_nu_not_positive_and_finite_rejected(self, nu):
        with pytest.raises(ValueError, match=r"^nu must be positive and finite, got "):
            StudentParams(mu=[0.0], sigma=[[1.0]], nu=nu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^mu must be finite, got "):
            StudentParams(mu=[0.0, bad], sigma=np.eye(2), nu=3.0)

    def test_batch_matches_scalar(self, rng):
        p = StudentParams(mu=[0.5, -1.0], sigma=random_spd(rng, 2), nu=3.0)
        pts = rng.standard_normal((30, 2)) * 4
        batch = log_density_rows(pts, p)
        for i in range(30):
            assert batch[i] == pytest.approx(log_marginal_density(pts[i], p), rel=1e-12)


class TestLogNormaliser:
    """The Student-t log-normaliser, read off the kernel at its center."""

    def test_known_values(self):
        # Gamma(1) = 1, Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2, Gamma(5) = 24
        assert log_t_kernel(0.0, 0.0, 1, 1.0) == pytest.approx(-math.log(math.pi), abs=1e-12)
        assert log_t_kernel(0.0, 0.0, 1, 2.0) == pytest.approx(-1.5 * math.log(2.0), abs=1e-12)
        assert log_t_kernel(0.0, 0.0, 2, 2.0) == pytest.approx(
            -math.log(2.0 * math.pi), abs=1e-12
        )
        assert log_t_kernel(0.0, 0.0, 8, 2.0) == pytest.approx(
            math.log(24.0) - 4.0 * math.log(2.0 * math.pi), abs=1e-12
        )

    def test_against_mpmath_over_wide_range(self):
        # For large nu the log-gamma terms nearly cancel, so the error is
        # measured relative to the largest term, as for log-gamma itself.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for d in (1, 2, 8):
            for nu in np.geomspace(1e-3, 1e6, 400):
                n = mp.mpf(float(nu))
                lg_half = mp.loggamma((n + d) / 2)
                ref = lg_half - mp.loggamma(n / 2) - mp.mpf(d) / 2 * mp.log(mp.pi * n)
                scale = max(1.0, abs(float(ref)), abs(float(lg_half)))
                assert abs(log_t_kernel(0.0, 0.0, d, nu) - float(ref)) <= 1e-12 * scale


class TestQuadratureOracle:
    def test_matches_closed_form_across_nu_and_dim(self, rng):
        for d in (1, 2, 4):
            for nu in (0.5, 1.0, 5.0, 50.0):
                p = StudentParams(
                    mu=rng.standard_normal(d), sigma=random_spd(rng, d), nu=nu
                )
                for _ in range(4):
                    x = p.mu + rng.standard_normal(d) * 2.5
                    oracle = quadrature_marginal_density(x, p)
                    closed = math.exp(log_marginal_density(x, p))
                    assert closed == pytest.approx(oracle, rel=1e-6)

    def test_gaussian_limit_at_zero(self):
        p = StudentParams(mu=[0.0], sigma=[[1.0]], nu=1e6)
        assert quadrature_marginal_density([0.0], p) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-3
        )

    def test_cauchy_tail(self):
        p = StudentParams(mu=[0.0], sigma=[[1.0]], nu=1.0)
        assert quadrature_marginal_density([100.0], p) == pytest.approx(
            1.0 / (math.pi * 100.0**2), rel=1e-2
        )

    def test_non_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(
            "scipy.integrate.quad", lambda *a, **k: (1.0, 0.5)  # huge error estimate
        )
        p = StudentParams(mu=[0.0], sigma=[[1.0]], nu=2.0)
        from scalemix.density import QuadratureError

        with pytest.raises(QuadratureError, match="error estimate"):
            quadrature_marginal_density([0.0], p)


class TestDistributionShape:
    def test_heavier_tails_for_smaller_nu(self):
        # far from the center the density must increase as nu decreases
        x = [6.0, 6.0]
        values = []
        for nu in (1.0, 5.0, 50.0):
            p = StudentParams(mu=[0.0, 0.0], sigma=np.eye(2), nu=nu)
            values.append(log_marginal_density(x, p))
        assert values[0] > values[1] > values[2]

    def test_gaussian_limit_log_density(self, rng):
        sigma = random_spd(rng, 3)
        mu = rng.standard_normal(3)
        p = StudentParams(mu=mu, sigma=sigma, nu=1e6)
        inv = np.linalg.inv(sigma)
        _, logdet = np.linalg.slogdet(sigma)
        for _ in range(20):
            x = mu + rng.standard_normal(3)
            delta = x - mu
            d2 = float(delta @ inv @ delta)
            if d2 > 9.0:
                continue
            gauss = -0.5 * (3 * math.log(2 * math.pi) + logdet + d2)
            assert abs(log_marginal_density(x, p) - gauss) < 1e-3

    def test_normalization_by_stratified_monte_carlo(self):
        # 2-d stratified grid over +-40 sigma, nu >= 2; mass outside is O(1e-3)
        rng = np.random.default_rng(99)
        sigma = np.array([[1.2, 0.3], [0.3, 0.8]])
        p = StudentParams(mu=[0.4, -0.2], sigma=sigma, nu=2.0)
        half = 40.0 * np.sqrt(np.diag(sigma))
        cells = 1000
        xs = np.linspace(-half[0], half[0], cells + 1)[:-1] + p.mu[0]
        ys = np.linspace(-half[1], half[1], cells + 1)[:-1] + p.mu[1]
        dx = 2 * half[0] / cells
        dy = 2 * half[1] / cells
        total = 0.0
        # one uniform sample per cell row-batch (10^6 samples total)
        for i in range(cells):
            px = xs[i] + rng.random(cells) * dx
            py = ys + rng.random(cells) * dy
            pts = np.column_stack([px, py])
            total += float(np.exp(log_density_rows(pts, p)).sum())
        integral = total * dx * dy
        assert integral == pytest.approx(1.0, abs=0.01)
