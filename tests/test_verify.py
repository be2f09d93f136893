import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

from isoflow import (DomainMask, Field, Grid, Kernel, Medium, SolverConfig, Stencil,
                     comparison_harness, discretize, quadratic_identity, run_suite,
                     steady_state_nullspace, stencil_second_moment, supersolution_residual)
from isoflow.grids import masked_exchange_matrix
from isoflow.media import MediumError
from isoflow.verify import (_components, _generator, format_checks, suite_names,
                            supersolution_margins)


@pytest.fixture
def mask_setup():
    g = Grid(1, 10.0, 81)
    s = discretize(Kernel.gaussian(1.0), g.spacing)
    m = Medium.power_decay(1.0, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.25, t_end=5.0,
                       boundary="mask", mask_radius=10.0, snapshot_every=4)
    return g, s, m, cfg


class TestComparison:
    def test_equal_data_identical(self, mask_setup):
        g, s, m, cfg = mask_setup
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        rep = comparison_harness(u0, u0.copy(), m, s, cfg)
        assert rep.max_violation == 0.0
        assert rep.ordered and rep.bounds_ok

    def test_bump_below_its_sup(self, mask_setup):
        g, s, m, cfg = mask_setup
        bump = Field.from_function(g, lambda x: np.exp(-x * x))
        rep = comparison_harness(bump, Field.constant(g, bump.max()), m, s, cfg)
        assert rep.ordered and rep.bounds_ok

    def test_quadratic_barrier_over_bounded_data(self):
        g = Grid(1, 10.0, 81)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.power_decay(1.0, 2.0)
        cfg = SolverConfig(scheme="exponential", dt=0.25, t_end=5.0,
                           boundary="zero-extend", snapshot_every=4)
        sub = Field.from_function(g, lambda x: np.exp(-x * x))
        sup = Field(g, 2.0 * (1.0 + g.radius() ** 2))
        rep = comparison_harness(sub, sup, m, s, cfg)
        assert rep.ordered

    def test_rejects_unordered_data(self, mask_setup):
        g, s, m, cfg = mask_setup
        a = Field.constant(g, 1.0)
        b = Field.constant(g, 0.5)
        with pytest.raises(ValueError):
            comparison_harness(a, b, m, s, cfg)


class TestSupersolution:
    def test_gamma2_threshold(self):
        g = Grid(1, 12.0, 241)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.power_decay(1.0, 2.0)
        lam = stencil_second_moment(s)  # eta = 1
        resid = supersolution_residual(1.0, lam, m, s, g, 1.0)
        assert resid.min() >= -1e-10

    def test_lambda_zero_is_negative_moment(self):
        g = Grid(1, 12.0, 241)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.power_decay(1.0, 2.0)
        resid = supersolution_residual(1.0, 0.0, m, s, g, 0.0)
        np.testing.assert_allclose(resid.values, -stencil_second_moment(s),
                                   rtol=1e-9)

    def test_doubling_lambda_increases_pointwise(self):
        g = Grid(1, 12.0, 241)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.power_decay(1.0, 2.0)
        lam = stencil_second_moment(s)
        r1 = supersolution_residual(1.0, lam, m, s, g, 0.5)
        r2 = supersolution_residual(1.0, 2 * lam, m, s, g, 0.5)
        assert np.all(r2.values > r1.values)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_quadratic_constant_threshold_all_gammas(self, gamma):
        g = Grid(1, 12.0, 241)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        at, half = supersolution_margins(g, s, [gamma])[gamma]
        assert at >= -1e-10
        assert half < 0.0

    def test_needs_decay_floor(self):
        g = Grid(1, 12.0, 241)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        with pytest.raises(MediumError):
            supersolution_residual(1.0, 1.0, Medium.gaussian_decay(1.0, 1.0),
                                   s, g, 0.0)


class TestQuadraticIdentity:
    def test_uniform_ball_1d(self):
        g = Grid(1, 10.0, 201)
        s = discretize(Kernel.uniform_ball(1.0), g.spacing)
        rep = quadratic_identity(s, g)
        assert rep.matches_moment
        # discrete moment carries the O(h^2) midpoint bias h^2/6
        assert rep.value_mean == pytest.approx(1.0 / 3.0 + g.spacing ** 2 / 6.0,
                                               rel=1e-12)
        assert rep.value_mean == pytest.approx(1.0 / 3.0, rel=1e-2)
        assert rep.spread_rel <= 1e-10

    def test_gaussian_2d_total_moment(self):
        g = Grid(2, 8.0, 65)
        s = discretize(Kernel.gaussian(1.0, dim=2), g.spacing, trunc_tol=1e-8)
        rep = quadratic_identity(s, g)
        assert rep.matches_moment
        assert rep.value_mean == pytest.approx(2.0, rel=1e-3)

    def test_no_interior_nodes_error(self):
        g = Grid(1, 2.0, 11)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-6)
        with pytest.raises(ValueError):
            quadratic_identity(s, g)


class TestNullspace:
    @pytest.mark.parametrize("M", [21, 41, 81])
    def test_connected_1d(self, M):
        g = Grid(1, 4.0, M)
        s = discretize(Kernel.uniform_ball(max(0.5, 3 * g.spacing)), g.spacing)
        rep = steady_state_nullspace(s, DomainMask(g, 3.6))
        assert rep.dimension == 1
        assert rep.n_components == 1
        assert rep.constant_residual <= 1e-10

    def test_connected_2d(self):
        g = Grid(2, 2.0, 21)
        s = discretize(Kernel.uniform_ball(0.5, dim=2), g.spacing)
        rep = steady_state_nullspace(s, DomainMask(g, 1.8))
        assert rep.dimension == 1
        assert rep.constant_residual <= 1e-10

    def test_split_mask_components(self):
        g = Grid(1, 4.0, 41)
        s = discretize(Kernel.uniform_ball(0.3), g.spacing)
        mask = DomainMask(g, 3.6, exclude_band=(1.2, 2.0))
        rep = steady_state_nullspace(s, mask)
        assert rep.n_components == 3
        assert rep.dimension == 3
        assert rep.matches_components

    def test_annulus_split_2d(self):
        g = Grid(2, 2.0, 21)
        s = discretize(Kernel.uniform_ball(0.25, dim=2), g.spacing)
        mask = DomainMask(g, 1.8, exclude_band=(0.8, 1.2))
        rep = steady_state_nullspace(s, mask)
        assert rep.n_components == 2
        assert rep.dimension == 2

    def test_a_zero_weight_pair_joins_no_components(self):
        # the +/-2 offsets weigh 0 and are the only pairs across the gaps at
        # |x| = 0.4: three components, as the nullspace has three dimensions
        g = Grid(1, 1.0, 11)
        s = Stencil(np.arange(-2, 3)[:, None], [0.0, 0.25, 0.5, 0.25, 0.0], g.spacing,
                    2 * g.spacing, True, 1)
        rep = steady_state_nullspace(s, DomainMask(g, 1.0, exclude_band=(0.3, 0.5)))
        assert rep.n_components == rep.dimension == 3
        assert rep.matches_components

    def test_generator_kills_constants_exactly(self):
        # with the diagonal built from the same sparse matvec, the row sums
        # cancel bitwise on the constant vector
        g = Grid(1, 4.0, 41)
        s = discretize(Kernel.uniform_ball(0.5), g.spacing)
        mask = DomainMask(g, 3.6)
        W = masked_exchange_matrix(s, mask)
        ones = np.ones(W.shape[0])
        rowsum = W @ ones
        np.testing.assert_array_equal(W @ ones - rowsum * ones, 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_generator_and_components_match_the_pair_matrix(self, data):
        # the dense generator holds masked_exchange_matrix's entries bit for
        # bit, and its flood fill counts csgraph's components, split masks
        # (1-D: up to 3 pieces; 2-D: a disk, its annulus, and the annulus's
        # fragments where the band leaves it thinner than the stencil) included
        dim = data.draw(st.sampled_from([1, 2]))
        g = Grid(dim, 4.0, 2 * data.draw(st.integers(5, 20)) + 1)
        h = g.spacing
        reach = data.draw(st.integers(1, 3))   # the stencil's reach, in cells
        s = discretize(Kernel.uniform_ball(reach * h, dim=dim), h)
        radius, band = data.draw(st.floats(0.5, 1.0)) * 4.0, None
        if data.draw(st.booleans()):
            # a band as wide as the reach or wider splits the mask, and an
            # outer ring thinner than a cell falls apart in 2-D
            a = data.draw(st.floats(0.1, 2.0))
            b = a + (data.draw(st.integers(0, 2 * reach)) + 0.5) * h
            radius = min(4.0, b + (data.draw(st.integers(0, 4)) + 0.3) * h)
            band = (a, b)
        mask = DomainMask(g, radius, exclude_band=band)
        W = masked_exchange_matrix(s, mask)
        A = _generator(s, mask)
        off = A.copy()
        np.fill_diagonal(off, 0.0)
        np.testing.assert_array_equal(off, W.toarray())
        np.testing.assert_array_equal(np.diag(A), -W.toarray().sum(axis=1))
        assert _components(A != 0) == csgraph.connected_components(W, directed=False)[0]

    def test_node_cap(self):
        g = Grid(1, 4.0, 41)
        s = discretize(Kernel.uniform_ball(0.5), g.spacing)
        with pytest.raises(ValueError):
            steady_state_nullspace(s, DomainMask(g, 3.6), node_cap=5)


class TestSuites:
    def test_every_named_suite_passes(self):
        names = []
        for name in suite_names():
            if name == "all":
                continue
            results = run_suite(name)
            assert results, name
            assert all(r.passed for r in results), (name, format_checks(results))
            names.extend(r.name for r in results)
        # the CHECK lines of `isoflow verify all`, in order
        assert names == [
            "conservation.mass_drift",
            "lyapunov.monotone_dt=0.1", "lyapunov.monotone_dt=0.05",
            "lyapunov.residual_refines",
            "comparison.ordering",
            "quadratic.1d_uniform", "quadratic.2d_gaussian",
            "supersolution.gamma=0", "supersolution.sharpness_gamma=0",
            "supersolution.gamma=1", "supersolution.sharpness_gamma=1",
            "supersolution.gamma=2", "supersolution.sharpness_gamma=2",
            "nullspace.connected", "nullspace.split",
            "picard.agreement", "picard.contraction",
        ]

    def test_format_lines(self):
        results = run_suite("quadratic-identity")
        lines = format_checks(results)
        assert all(line.startswith("CHECK ") for line in lines)
        assert all(" PASS " in line or " FAIL " in line for line in lines)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus")
