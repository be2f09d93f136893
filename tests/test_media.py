import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from isoflow import (Field, Grid, Kernel, Medium, MediumError, Probes, SolverConfig,
                     classify, default_alpha, discretize, floor, quadratic_growth_constant,
                     run, weighted_mean)
from isoflow.diagnostics import _rho_weights
from isoflow.solver import _resolve_target


class TestEval:
    def test_power_decay_values(self):
        m = Medium.power_decay(1.0, 2.0)
        g = Grid(1, 2.0, 5)
        rho = m.sample(g)
        assert rho[g.origin_index] == 1.0
        assert m.rho_of_radius(1.0) == pytest.approx(0.5)

    def test_constant(self):
        m = Medium.constant(1.0)
        assert np.all(m.sample(Grid(1, 3.0, 11)) == 1.0)

    def test_positive_params_required(self):
        with pytest.raises(MediumError):
            Medium.constant(-1.0)
        with pytest.raises(MediumError):
            Medium.power_decay(0.0, 2.0)

    @pytest.mark.parametrize("make", [lambda v: Medium.power_decay(1.0, v),
                                      lambda v: Medium.power_decay(v, 2.0),
                                      Medium.constant,
                                      lambda v: floor(Medium.constant(1.0), v)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, make, value):
        with pytest.raises(MediumError, match="finite"):
            make(value)

    def test_custom_positive_enforced(self):
        m = Medium.custom(lambda x: x, tail="nonintegrable")
        with pytest.raises(MediumError):
            m.sample(Grid(1, 1.0, 11))

    def test_points_and_grids_need_the_medium_dimension(self):
        # a 1-D bump under a 2-D medium once ran, classed non-integrable, and a
        # 1-D medium read the first coordinate of 2-D points alone
        g = Grid(1, 5.0, 41)
        u0 = Field(g, np.exp(-0.5 * g.radius() ** 2))
        medium = Medium.power_decay(1.0, 2.0, dim=2)
        with pytest.raises(MediumError, match=r"dim=2, .* cannot be evaluated at 1-d points"):
            medium.sample(g)
        with pytest.raises(MediumError, match="cannot be evaluated"):
            run(u0, medium, discretize(Kernel.gaussian(1.0), g.spacing),
                SolverConfig(dt=0.1, t_end=0.2))
        for bad in (lambda: Medium.constant(1.0).sample(Grid(2, 4.0, 11)),
                    lambda: Medium.power_decay(1.0, 2.0).eval_points([[3.0, 4.0]]),
                    lambda: medium.eval_points([[3.0]])):
            with pytest.raises(MediumError, match="cannot be evaluated at"):
                bad()

    def test_continuity_spot_check(self):
        # no jumps beyond a Lipschitz bound on the built-ins
        for m in (Medium.power_decay(1.0, 2.0), Medium.gaussian_decay(1.0, 1.0),
                  Medium.exponential_decay(1.0, 1.0)):
            r = np.linspace(0, 10, 20001)
            rho = m.rho_of_radius(r)
            assert np.max(np.abs(np.diff(rho))) < 2.0 * (r[1] - r[0])


class TestClassify:
    def test_power_decay_beta2(self):
        cls = classify(Medium.power_decay(1.0, 2.0))
        assert cls.integrable is True
        assert cls.total_mass == pytest.approx(math.pi, rel=1e-12)
        assert cls.decay_floor == (1.0, 2.0)

    def test_constant_not_integrable(self):
        cls = classify(Medium.constant(1.0))
        assert cls.integrable is False
        assert cls.decay_floor == (1.0, 0.0)

    def test_power_decay_beta_equals_dim(self):
        cls = classify(Medium.power_decay(1.0, 1.0))
        assert cls.integrable is False
        assert cls.decay_floor == (1.0, 1.0)

    def test_power_decay_beta4_no_floor(self):
        cls = classify(Medium.power_decay(1.0, 4.0))
        assert cls.integrable is True
        assert cls.decay_floor is None

    def test_integrability_rule_beta_vs_dim_2d(self):
        assert classify(Medium.power_decay(1.0, 2.0, dim=2)).integrable is False
        assert classify(Medium.power_decay(1.0, 3.0, dim=2)).integrable is True

    @pytest.mark.parametrize("medium,mass", [
        (Medium.power_decay(2.0, 2.0), 2.0 * math.pi),
        (Medium.power_decay(1.0, 4.0), math.pi / math.sqrt(2.0)),
        (Medium.gaussian_decay(1.0, 1.0), math.sqrt(2 * math.pi)),
        (Medium.exponential_decay(1.0, 1.0), 2.0),
        (Medium.power_decay(1.0, 3.0, dim=2),
         2 * math.pi * (math.pi / 3) / math.sin(2 * math.pi / 3)),
        (Medium.exponential_decay(1.0, 2.0, dim=2), 8 * math.pi),
    ])
    def test_mass_closed_forms_vs_quadrature(self, medium, mass):
        assert classify(medium).total_mass == pytest.approx(mass, rel=1e-12)
        if medium.dim == 1:
            quad = 2 * sp_integrate.quad(lambda r: medium.rho_of_radius(r),
                                         0, np.inf)[0]
        else:
            quad = 2 * math.pi * sp_integrate.quad(
                lambda r: r * medium.rho_of_radius(r), 0, np.inf)[0]
        assert classify(medium).total_mass == pytest.approx(quad, rel=1e-8)

    def test_custom_unknown_refuses_weighted_mean(self):
        m = Medium.custom(lambda x: 1.0 / (1.0 + x * x), tail="unknown")
        assert classify(m).integrable is None
        g = Grid(1, 10.0, 101)
        with pytest.raises(MediumError):
            weighted_mean(m, Field.constant(g, 1.0))

    def test_decay_floor_soundness_random_points(self):
        rng = np.random.default_rng(9)
        for m in (Medium.power_decay(1.3, 2.0), Medium.power_decay(2.0, 1.0),
                  Medium.constant(0.7), floor(Medium.gaussian_decay(1.0, 1.0), 0.2)):
            cls = classify(m)
            eta, gamma = cls.decay_floor
            pts = rng.uniform(-50, 50, size=(10_000, 1))
            rho = m.eval_points(pts)
            r = np.abs(pts[:, 0])
            assert np.min(rho * (1.0 + r ** gamma)) >= eta * (1 - 1e-12)


class TestWeightedMean:
    def test_constant_data(self):
        m = Medium.power_decay(1.0, 2.0)
        g = Grid(1, 50.0, 501)
        E, tail = weighted_mean(m, Field.constant(g, 3.0))
        assert E == pytest.approx(3.0, rel=1e-12)
        assert tail > 0

    def test_indicator_quarter(self):
        # arctan(1)/arctan(box) ratio; the indicator is sampled with midpoint
        # half-values at its endpoints so the quadrature stays second order
        m = Medium.power_decay(1.0, 2.0)
        g = Grid(1, 20.0, 4001)
        x = g.axis()
        vals = np.where((x > 0) & (x < 1), 1.0, 0.0)
        vals[x == 0.0] = 0.5
        vals[x == 1.0] = 0.5
        E, tail = weighted_mean(m, Field(g, vals))
        E_true = 0.25  # arctan(1)/pi
        assert abs(E - E_true) <= tail + 1e-6
        box_exact = math.atan(1.0) / (2 * math.atan(20.0))
        assert E == pytest.approx(box_exact, abs=1e-5)

    def test_gaussian_weight_second_moment(self):
        # rho = exp(-x^2), u0 = x^2 -> mean 1/2
        m = Medium.gaussian_decay(1.0, 1.0 / math.sqrt(2.0))
        g = Grid(1, 8.0, 801)
        E, tail = weighted_mean(m, Field.from_function(g, lambda x: x * x))
        assert E == pytest.approx(0.5, abs=1e-8)

    def test_requires_integrable(self):
        g = Grid(1, 5.0, 51)
        with pytest.raises(MediumError, match="E_rho undefined"):
            weighted_mean(Medium.constant(1.0), Field.constant(g, 1.0))

    def test_affine_equivariance(self):
        m = Medium.power_decay(1.0, 2.0)
        g = Grid(1, 30.0, 601)
        u = Field.from_function(g, lambda x: np.exp(-0.5 * x * x))
        E1, _ = weighted_mean(m, u)
        E2, _ = weighted_mean(m, Field(g, 3.0 * u.values + 2.0))
        assert E2 == pytest.approx(3.0 * E1 + 2.0, rel=1e-12)

    def test_equals_the_runs_distance_target_bitwise(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2) * 40:
            g = Grid(dim, float(rng.uniform(1.0, 20.0)), 2 * int(rng.integers(2, 20)) + 1)
            m = Medium.power_decay(float(rng.uniform(0.5, 2.0)), 3.0, dim=dim)
            u = Field(g, rng.standard_normal(g.shape))
            target = _resolve_target(m, u, _rho_weights(g, m.sample(g)), False, Probes())
            assert weighted_mean(m, u)[0] == target


class TestFloor:
    def test_pointwise_values(self):
        m = floor(Medium.power_decay(1.0, 2.0), 0.5)
        assert m.rho_of_radius(0.0) == 1.0
        assert m.rho_of_radius(2.0) == 0.5  # max(0.2, 0.5)

    def test_monotone_in_alpha(self):
        base = Medium.power_decay(1.0, 2.0)
        r = np.linspace(0, 10, 101)
        hi = floor(base, 0.5).rho_of_radius(r)
        lo = floor(base, 0.25).rho_of_radius(r)
        assert np.all(hi >= lo)
        assert np.all(lo >= base.rho_of_radius(r))

    def test_floor_of_constant_is_identity(self):
        m = floor(Medium.constant(1.0), 0.1)
        r = np.linspace(0, 5, 11)
        np.testing.assert_array_equal(m.rho_of_radius(r), 1.0)

    def test_exact_once_alpha_below_grid_min(self):
        base = Medium.power_decay(1.0, 2.0)
        g = Grid(1, 5.0, 101)
        alpha = 0.9 * float(base.sample(g).min())
        np.testing.assert_array_equal(floor(base, alpha).sample(g), base.sample(g))

    def test_classification_not_integrable(self):
        cls = classify(floor(Medium.gaussian_decay(1.0, 1.0), 0.1))
        assert cls.integrable is False
        assert cls.decay_floor == (0.1, 0.0)

    def test_default_alpha_sequence(self):
        m = Medium.power_decay(1.0, 2.0)
        alphas = [default_alpha(m, n) for n in range(1, 6)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == 0.5  # rho(0) * 2^-1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_floored_custom_evaluates_alike_on_points_and_grids(self, dim):
        # the base is 0 off |x| < 1: floored, it is alpha there on both paths
        f = lambda *xs: np.where(sum(x * x for x in xs) < 1.0, 2.0, 0.0)  # noqa: E731
        m = floor(Medium.custom(f, dim=dim), 0.25)
        g = Grid(dim, 2.0, 9)
        grid_vals = m.sample(g)
        pts = np.stack([np.broadcast_to(c, g.shape).ravel() for c in g.coords()], axis=1)
        np.testing.assert_array_equal(m.eval_points(pts), grid_vals.ravel())
        assert set(np.unique(grid_vals)) == {0.25, 2.0}
        with pytest.raises(MediumError, match="strictly positive"):
            Medium.custom(f, dim=dim).eval_points(pts)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(MediumError):
            floor(Medium.constant(1.0), 0.0)


class TestQuadraticGrowthConstant:
    def test_gamma2_is_eta(self):
        assert quadratic_growth_constant(Medium.power_decay(1.5, 2.0)) == 1.5

    def test_gamma0_is_half(self):
        assert quadratic_growth_constant(Medium.constant(2.0)) == 1.0

    def test_gamma1_closed_form(self):
        # min of (1+r^2)/(1+r) sits at r = sqrt(2)-1 with value 2(sqrt(2)-1)
        got = quadratic_growth_constant(Medium.power_decay(1.0, 1.0))
        assert got == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_bound_holds_on_samples(self, gamma):
        m = Medium.power_decay(1.0, gamma)
        eta2 = quadratic_growth_constant(m)
        r = np.linspace(0, 100, 100001)
        assert np.min(m.rho_of_radius(r) * (1 + r * r)) >= eta2 * (1 - 1e-12)

    def test_needs_decay_floor(self):
        with pytest.raises(MediumError):
            quadratic_growth_constant(Medium.gaussian_decay(1.0, 1.0))
