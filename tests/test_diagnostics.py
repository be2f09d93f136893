import math

import numpy as np
import pytest

from isoflow import (DomainMask, Field, Grid, Kernel, Medium, Probes, SolverConfig,
                     Trajectory, discretize, dissipation_budget, floor, lyapunov_F,
                     lp_local_distance, lyapunov_identity_check, mass, run,
                     weighted_energy)
from isoflow import diagnostics, grids
from isoflow.diagnostics import dist_l1_weighted
from isoflow.grids import GridError, _slice_pair
from isoflow.verify import f_rise, mass_drift


def brute_lyapunov(u, stencil, mask=None):
    # literal double sum over node pairs
    vals = u.values
    shape = vals.shape
    inside = mask.inside if mask is not None else None
    total = 0.0
    for idx in np.ndindex(shape):
        if inside is not None and not inside[idx]:
            continue
        for off, w in zip(stencil.offsets, stencil.weights):
            src = tuple(i - int(o) for i, o in zip(idx, off))
            if all(0 <= sI < n for sI, n in zip(src, shape)):
                if inside is not None and not inside[src]:
                    continue
                other = vals[src]
            else:
                if inside is not None:
                    continue
                other = 0.0
            total += w * (vals[idx] - other) ** 2
    return u.grid.spacing ** u.grid.dim * total


def loop_lyapunov_F(u, stencil, mask=None):
    # one pass per stencil offset, in the order of the double sum
    vals = u.values if mask is None else u.values * mask.indicator()
    sumsq_all = float(np.sum(vals * vals))
    total = 0.0
    for offset, w in zip(stencil.offsets, stencil.weights):
        if np.all(offset == 0):
            continue
        dst, src = _slice_pair(vals.shape, offset)
        diff = vals[dst] - vals[src]
        if mask is not None:
            diff = np.where(mask.inside[dst] & mask.inside[src], diff, 0.0)
            total += w * float(np.sum(diff * diff))
        else:
            # nodes whose shifted partner falls outside the grid pair with 0
            total += w * (float(np.sum(diff * diff)) + sumsq_all
                          - float(np.sum(vals[dst] ** 2)))
    return u.grid.spacing ** u.grid.dim * total


@pytest.mark.parametrize("call", [
    lambda u, m, mask: mass(u, m, mask),
    lambda u, m, mask: weighted_energy(u, m, mask),
    lambda u, m, mask: dist_l1_weighted(u, m, 0.5, mask),
], ids=["mass", "weighted_energy", "dist_l1_weighted"])
def test_mask_only_diagnostics_reject_a_mask_on_another_grid(call):
    # same shape, other spacing: the indicator would fit but weigh other nodes
    g = Grid(1, 5.0, 51)
    u, m = Field.constant(g, 1.0), Medium.constant(1.0)
    call(u, m, DomainMask(g, 3.0))
    with pytest.raises(GridError, match="same grid"):
        call(u, m, DomainMask(Grid(1, 10.0, 51), 3.0))


@pytest.fixture
def setup():
    g = Grid(1, 10.0, 101)
    s = discretize(Kernel.uniform_ball(1.0), g.spacing)
    m = Medium.power_decay(1.0, 2.0)
    return g, s, m


class TestMass:
    def test_constant_times_integrable_medium(self):
        g = Grid(1, 100.0, 2001)
        m = Medium.power_decay(1.0, 2.0)
        got = mass(Field.constant(g, 1.0), m)
        tail = math.pi - 2 * math.atan(100.0)
        assert abs(got - math.pi) <= tail + 1e-6

    def test_zero_field(self, setup):
        g, s, m = setup
        assert mass(Field.zeros(g), m) == 0.0

    def test_mask_trajectory_constant(self, setup):
        g, s, m = setup
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.3, t_end=30.0,
                           boundary="mask", mask_radius=10.0, snapshot_every=10)
        assert mass_drift(run(u0, m, s, cfg)) <= 1e-12


class TestLyapunovF:
    def test_constant_zero(self, setup):
        g, s, m = setup
        mask = DomainMask(g, 10.0)
        assert lyapunov_F(Field.constant(g, 4.0), s, "mask", mask) == 0.0

    def test_delta_closed_form(self, setup):
        # single spike of height 1: every neighbor pair contributes once in
        # each direction, so F = h * 2 * (1 - w0)
        g, s, m = setup
        vals = np.zeros(g.shape)
        vals[g.origin_index] = 1.0
        u = Field(g, vals)
        w0 = s.self_weight()
        expected = g.spacing * 2.0 * (1.0 - w0)
        assert lyapunov_F(u, s) == pytest.approx(expected, rel=1e-12)
        assert lyapunov_F(u, s) == pytest.approx(brute_lyapunov(u, s), rel=1e-12)

    def test_nonnegative_random(self, setup):
        g, s, m = setup
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = Field(g, rng.standard_normal(g.shape))
            assert lyapunov_F(u, s) >= 0.0

    def test_matches_brute_force_zero_extend(self):
        g = Grid(1, 2.0, 17)
        s = discretize(Kernel.uniform_ball(0.6), g.spacing)
        rng = np.random.default_rng(1)
        u = Field(g, rng.standard_normal(g.shape))
        assert lyapunov_F(u, s) == pytest.approx(brute_lyapunov(u, s), rel=1e-12)

    def test_matches_brute_force_masked(self):
        g = Grid(1, 2.0, 17)
        s = discretize(Kernel.uniform_ball(0.6), g.spacing)
        mask = DomainMask(g, 1.5)
        rng = np.random.default_rng(2)
        u = Field(g, rng.standard_normal(g.shape))
        got = lyapunov_F(u, s, "mask", mask)
        assert got == pytest.approx(brute_lyapunov(u, s, mask), rel=1e-12)

    @pytest.mark.parametrize("dim, boundary, band", [
        (1, "zero-extend", None), (2, "zero-extend", None),
        (1, "mask", None), (1, "mask", (2.0, 5.0)),
        (2, "mask", None), (2, "mask", (1.5, 2.6)),
    ], ids=["1d", "2d", "1d-mask", "1d-split", "2d-mask", "2d-split"])
    def test_matches_offset_loop(self, dim, boundary, band):
        if dim == 1:
            g, sigma, tol = Grid(1, 10.0, 201), 1.0, 1e-12
        else:
            g, sigma, tol = Grid(2, 4.0, 41), 0.6, 1e-8
        s = discretize(Kernel.gaussian(sigma, dim=dim), g.spacing, trunc_tol=tol)
        mask = (DomainMask(g, g.half_extent, exclude_band=band)
                if boundary == "mask" else None)
        rng = np.random.default_rng(12)
        for vals in (rng.random(g.shape), 3.0 + rng.random(g.shape)):
            u = Field(g, vals)
            got = lyapunov_F(u, s, boundary, mask)
            assert got == pytest.approx(loop_lyapunov_F(u, s, mask), rel=1e-12)

    def test_translation_invariance_exact(self, setup):
        g, s, m = setup
        mask = DomainMask(g, 10.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.shape)
        a = lyapunov_F(Field(g, u), s, "mask", mask)
        b = lyapunov_F(Field(g, u + 5.0), s, "mask", mask)
        assert b == pytest.approx(a, rel=1e-13)

    def test_quadratic_scaling_exact(self, setup):
        g, s, m = setup
        mask = DomainMask(g, 10.0)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.shape)
        a = lyapunov_F(Field(g, u), s, "mask", mask)
        b = lyapunov_F(Field(g, 2.0 * u), s, "mask", mask)
        assert b == pytest.approx(4.0 * a, rel=1e-14)


@pytest.fixture
def mask_trajectory():
    g = Grid(1, 20.0, 201)
    s = discretize(Kernel.gaussian(1.0), g.spacing)
    base = Medium.power_decay(1.0, 2.0)
    u0 = Field.from_function(g, lambda x: np.exp(-0.5 * x * x))

    def make(dt, t_end=24.0, every=10):
        cfg = SolverConfig(scheme="exponential", dt=dt, t_end=t_end,
                           boundary="mask", mask_radius=20.0,
                           snapshot_every=every, floor_alpha=0.5)
        return run(u0, base, s, cfg)

    return make


class TestIdentities:
    def test_constant_trajectory_zero_residuals(self):
        g = Grid(1, 5.0, 51)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0)
        cfg = SolverConfig(scheme="exponential", dt=0.5, t_end=5.0,
                           boundary="mask", mask_radius=5.0, snapshot_every=1)
        traj = run(Field.constant(g, 2.0), m, s, cfg)
        rep = lyapunov_identity_check(traj)
        assert rep.max_resid_decay == 0.0
        assert rep.max_resid_energy == 0.0

    def test_residuals_refine_under_halving(self, mask_trajectory):
        make = mask_trajectory
        worst = []
        for dt in (0.2, 0.1, 0.05):
            rep = lyapunov_identity_check(make(dt))
            worst.append(max(rep.max_resid_decay, rep.max_resid_energy))
        assert worst[0] > worst[1] > worst[2]
        assert math.log2(worst[0] / worst[2]) / 2.0 >= 1.0

    def test_f_monotone_along_trajectory(self, mask_trajectory):
        rise, F0 = f_rise(mask_trajectory(0.1))
        assert rise <= 1e-12 * F0

    def test_needs_three_snapshots(self, mask_trajectory):
        make = mask_trajectory
        traj = make(0.1, t_end=0.1, every=1)
        with pytest.raises(GridError):
            lyapunov_identity_check(traj)

    def test_weighted_energy_nonincreasing(self, mask_trajectory):
        make = mask_trajectory
        traj = make(0.1)
        E = np.array([rec.weighted_energy for rec in traj.diagnostics])
        assert np.max(np.diff(E)) <= 1e-12 * E[0]


class TestRunChecks:
    """The identity check and the budget read the run's records, rho and mask."""

    def test_a_trajectory_not_produced_by_run_is_refused(self):
        g = Grid(1, 5.0, 51)
        u = Field.constant(g, 1.0)
        traj = Trajectory(snapshots=[(t, u) for t in (0.0, 1.0, 2.0)])
        with pytest.raises(GridError, match="solver.run"):
            lyapunov_identity_check(traj)
        with pytest.raises(GridError, match="solver.run"):
            dissipation_budget(traj)

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    def test_checks_sample_no_medium_and_build_no_plan(self, monkeypatch, boundary):
        g = Grid(1, 10.0, 101)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        calls = {"rho": 0, "_fft_plan": 0}

        def rho(x):
            calls["rho"] += 1
            return 1.0 / (1.0 + x * x)

        plan = grids._fft_plan

        def counting_plan(*args):
            calls["_fft_plan"] += 1
            return plan(*args)

        m = Medium.custom(rho, tail="integrable", total_mass=math.pi)
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=1.0, boundary=boundary,
                           mask_radius=10.0 if boundary == "mask" else None,
                           snapshot_every=2)
        traj = run(Field.from_function(g, lambda x: np.exp(-x * x)), m, s, cfg)
        monkeypatch.setattr(grids, "_fft_plan", counting_plan)
        calls["rho"] = 0
        lyapunov_identity_check(traj)
        dissipation_budget(traj, start=1)
        assert calls == {"rho": 0, "_fft_plan": 0}


class TestDissipationBudget:
    def test_constant_trajectory_zero(self):
        g = Grid(1, 5.0, 51)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0)
        cfg = SolverConfig(scheme="exponential", dt=0.5, t_end=5.0,
                           boundary="mask", mask_radius=5.0, snapshot_every=1)
        traj = run(Field.constant(g, 2.0), m, s, cfg)
        # pure roundoff jitter of a fixed point; vastly below any real budget
        assert dissipation_budget(traj) <= 1e-25

    def test_bounded_by_quarter_f(self, mask_trajectory):
        make = mask_trajectory
        traj = make(0.05)
        F = np.array([rec.lyapunov_F for rec in traj.diagnostics])
        for start in (0, len(F) // 4, len(F) // 2):
            budget = dissipation_budget(traj, start=start)
            assert budget <= F[start] / 4.0 * 1.01

    def test_nondecreasing_in_window(self, mask_trajectory):
        make = mask_trajectory
        traj = make(0.1)
        budgets = [dissipation_budget(traj, start=st)
                   for st in (len(traj.diagnostics) // 2, len(traj.diagnostics) // 4, 0)]
        assert budgets[0] <= budgets[1] <= budgets[2]

    @pytest.mark.parametrize("where", ["negative", "past-end"])
    def test_start_outside_snapshots_raises(self, mask_trajectory, where):
        traj = mask_trajectory(0.1, t_end=5.0)
        n = len(traj.snapshots)
        start = -1 if where == "negative" else n
        with pytest.raises(GridError, match=rf"start.*\b{n} snapshots"):
            dissipation_budget(traj, start=start)

    def test_last_snapshot_window_is_zero(self, mask_trajectory):
        traj = mask_trajectory(0.1, t_end=5.0)
        assert dissipation_budget(traj, start=len(traj.snapshots) - 1) == 0.0


class TestRecordInvariants:
    def test_record_fields_consistent(self, mask_trajectory):
        make = mask_trajectory
        for rec in make(0.1).diagnostics:
            assert rec.lyapunov_F >= 0.0
            assert rec.inf_u <= rec.u_at_origin <= rec.sup_u


    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    @pytest.mark.parametrize("floor_alpha", [None, 0.5])
    def test_record_quadratures_match_the_public_ones(self, boundary, floor_alpha):
        g = Grid(1, 10.0, 101)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.power_decay(1.0, 2.0)
        u0 = Field.from_function(g, lambda x: np.exp(-0.5 * x * x) + 0.05 * x)
        cfg = SolverConfig(scheme="exponential", dt=0.2, t_end=2.0, boundary=boundary,
                           mask_radius=8.0 if boundary == "mask" else None,
                           snapshot_every=5, floor_alpha=floor_alpha)
        traj = run(u0, m, s, cfg, Probes(dist_target="zero"))
        stepped = m if floor_alpha is None else floor(m, floor_alpha)
        mask = DomainMask(g, 8.0) if boundary == "mask" else None
        assert len(traj.diagnostics) == 3
        for (_, u), rec in zip(traj.snapshots, traj.diagnostics):
            assert rec.mass == mass(u, stepped, mask)
            assert rec.weighted_energy == weighted_energy(u, stepped, mask)
            assert rec.dist_L1rho == dist_l1_weighted(u, stepped, 0.0, mask)
            assert rec.lyapunov_F == lyapunov_F(u, s, boundary, mask)
            assert rec.lp_local_val == lp_local_distance(u, 0.0, 2.0, 5.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lp_probe_of_large_data_at_large_p_is_finite(self):
        # (1e7)^50 overflows the direct sum; the run keeps every record
        g = Grid(1, 4.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        u0 = Field.from_function(g, lambda x: 1e7 * np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.5, t_end=1.0, snapshot_every=1)
        traj = run(u0, Medium.constant(1.0), s, cfg,
                   Probes(lp_p=50.0, lp_radius=3.0, dist_target="zero"))
        small = lp_local_distance(Field(g, u0.values / 1e7), 0.0, 50.0, 3.0)
        assert traj.diagnostics[0].lp_local_val == pytest.approx(1e7 * small, rel=1e-12)
        for (_, u), rec in zip(traj.snapshots, traj.diagnostics):
            assert rec.lp_local_val == lp_local_distance(u, 0.0, 50.0, 3.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_record_lp_local_val_is_lp_local_distance(self, dim):
        # a run computes the ball weights once; a record shares the public bits
        g = Grid(dim, 4.0, 41)
        s = discretize(Kernel.gaussian(0.6, dim=dim), g.spacing, trunc_tol=1e-8)
        u = Field(g, np.random.default_rng(4).random(g.shape))
        op = grids._Operator(g, s)
        weights = diagnostics._rho_weights(g, Medium.constant(1.0, dim=dim).sample(g))
        for p, radius in ((1.0, 4.0), (2.0, 2.5), (3.5, 1.3)):
            rec = diagnostics.compute_record(0.0, u, weights, op,
                                             grids._lp_ball(g, p, radius),
                                             target=0.3, lp_p=p)
            assert rec.lp_local_val == lp_local_distance(u, 0.3, p, radius)
