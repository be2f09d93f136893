import math

import numpy as np
import pytest

from isoflow import (DomainMask, Field, Grid, Kernel, Medium, MediumError, NumericalAbort,
                     SolverConfig, SolverError, Stencil, convolve_direct, discretize,
                     floor, monotone_approx_run, picard_solve, run, stability_dt,
                     step_euler, step_exponential, trust_radius)
from isoflow import diagnostics, grids, solver
from isoflow.diagnostics import mass
from isoflow.grids import _Operator, masked_exchange_matrix
from isoflow.solver import _MaskedStepper


@pytest.fixture
def setup_1d():
    g = Grid(1, 10.0, 201)
    k = Kernel.gaussian(1.0)
    s = discretize(k, g.spacing)
    m = Medium.power_decay(1.0, 2.0)
    return g, s, m


class TestStepEuler:
    def test_constant_steady_interior(self, setup_1d):
        g, s, m = setup_1d
        u = Field.constant(g, 2.0)
        dt = 0.5 * stability_dt(m, g)
        out = step_euler(u, m, s, dt)
        hw = int(s.halfwidths[0])
        np.testing.assert_allclose(out.values[hw:-hw], 2.0, rtol=1e-13)

    def test_delta_mask_mass_exact(self, setup_1d):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0)
        vals = np.zeros(g.shape)
        vals[g.origin_index] = 1.0
        u = Field(g, vals)
        dt = 0.9 * stability_dt(m, g)
        out = step_euler(u, m, s, dt, boundary="mask", mask=mask)
        assert mass(out, m, mask) == pytest.approx(mass(u, m, mask), rel=1e-14)

    def test_dt_zero_is_identity(self, setup_1d):
        g, s, m = setup_1d
        rng = np.random.default_rng(0)
        u = Field(g, rng.standard_normal(g.shape))
        out = step_euler(u, m, s, 0.0)
        np.testing.assert_array_equal(out.values, u.values)

    def test_stability_violation_names_bound(self, setup_1d):
        g, s, m = setup_1d
        limit = stability_dt(m, g)
        with pytest.raises(SolverError, match="stability_dt"):
            step_euler(Field.zeros(g), m, s, 2.0 * limit)

    def test_stability_dt_value(self, setup_1d):
        g, s, m = setup_1d
        assert stability_dt(m, g) == pytest.approx(1.0 / 101.0)


class TestStepExponential:
    def test_constant_fixed_point(self, setup_1d):
        g, s, m = setup_1d
        u = Field.constant(g, 3.0)
        out = step_exponential(u, m, s, 5.0)
        hw = int(s.halfwidths[0])
        np.testing.assert_allclose(out.values[hw:-hw], 3.0, rtol=1e-13)

    def test_constant_fixed_point_mask(self, setup_1d):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0)
        u = Field(g, 3.0 * mask.indicator())
        out = step_exponential(u, m, s, 5.0, boundary="mask", mask=mask)
        np.testing.assert_allclose(out.values[mask.inside], 3.0, rtol=1e-13)

    @pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    def test_positivity_any_dt(self, setup_1d, dt, boundary):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0) if boundary == "mask" else None
        rng = np.random.default_rng(1)
        u = Field(g, np.abs(rng.standard_normal(g.shape)))
        out = step_exponential(u, m, s, dt, boundary=boundary, mask=mask)
        assert out.min() >= 0.0
        assert out.max() <= u.max() * (1 + 1e-12)

    def test_mask_range_bound_any_dt(self, setup_1d):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0)
        rng = np.random.default_rng(2)
        u = Field(g, 1.0 + np.abs(rng.standard_normal(g.shape)))
        out = step_exponential(u, m, s, 50.0, boundary="mask", mask=mask)
        inside = mask.inside
        assert out.values[inside].min() >= u.values[inside].min() - 1e-12
        assert out.values[inside].max() <= u.values[inside].max() + 1e-12

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    def test_euler_agreement_second_order_in_dt(self, setup_1d, boundary):
        # Richardson comparison: the integrating-factor step differs from the
        # explicit step by O(dt^2) per step as dt -> 0
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0) if boundary == "mask" else None
        rng = np.random.default_rng(3)
        u = Field(g, np.abs(rng.standard_normal(g.shape)))
        diffs = []
        for dt in (2e-4, 1e-4):
            a = step_euler(u, m, s, dt, boundary=boundary, mask=mask)
            b = step_exponential(u, m, s, dt, boundary=boundary, mask=mask)
            diffs.append(np.max(np.abs(a.values - b.values)))
        assert math.log2(diffs[0] / diffs[1]) == pytest.approx(2.0, abs=0.1)

    def test_mask_mass_exact_large_dt(self, setup_1d):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0)
        rng = np.random.default_rng(4)
        u = Field(g, np.abs(rng.standard_normal(g.shape)) * mask.indicator())
        out = step_exponential(u, m, s, 10.0, boundary="mask", mask=mask)
        assert mass(out, m, mask) == pytest.approx(mass(u, m, mask), rel=1e-13)

    def test_monotone_in_data(self, setup_1d):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0)
        rng = np.random.default_rng(5)
        lo = np.abs(rng.standard_normal(g.shape))
        hi = lo + np.abs(rng.standard_normal(g.shape))
        for boundary, msk in (("zero-extend", None), ("mask", mask)):
            a = step_exponential(Field(g, lo), m, s, 3.0, boundary=boundary, mask=msk)
            b = step_exponential(Field(g, hi), m, s, 3.0, boundary=boundary, mask=msk)
            assert np.all(b.values >= a.values - 1e-13)


class TestRun:
    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    def test_medium_sampled_independently_of_the_record_count(self, setup_1d, boundary):
        g, s, _ = setup_1d
        calls = []

        def rho(x):
            calls.append(x.size)
            return 1.0 / (1.0 + x * x)

        m = Medium.custom(rho, tail="integrable", total_mass=math.pi)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        counts = {}
        for t_end, every in ((1.9, 19), (1.9, 1), (1.95, 1)):
            calls.clear()
            cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=t_end, boundary=boundary,
                               mask_radius=10.0, snapshot_every=every)
            n_records = len(run(u0, m, s, cfg).diagnostics)
            counts[n_records] = len(calls)
        assert set(counts) == {2, 20, 21}
        assert counts[2] == counts[20] == counts[21] == 1

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    @pytest.mark.parametrize("t_end, every", [(1.9, 19), (1.9, 1), (1.95, 1)],
                             ids=["2-records", "20-records", "remainder"])
    def test_fft_plan_built_once_per_run(self, setup_1d, monkeypatch, boundary, t_end,
                                         every):
        # and, on the CSR mask path, the pair matrix too, remainder step or not
        g, s, m = setup_1d
        calls = {"_fft_plan": 0, "_pair_matrix": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            wrapped = counting(name, getattr(grids, name))
            for mod in (grids, solver, diagnostics):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, wrapped)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=t_end, boundary=boundary,
                           mask_radius=10.0, snapshot_every=every)
        run(u0, m, s, cfg)
        assert calls == {"_fft_plan": 1, "_pair_matrix": int(boundary == "mask")}

    def test_constant_diagnostics_flat(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.constant(g, 1.0)
        cfg = SolverConfig(scheme="exponential", dt=0.5, t_end=5.0,
                           boundary="mask", mask_radius=10.0, snapshot_every=2)
        traj = run(u0, m, s, cfg)
        for rec in traj.diagnostics:
            assert rec.mass == pytest.approx(traj.diagnostics[0].mass, rel=1e-13)
            assert rec.lyapunov_F <= 1e-25
            assert rec.sup_u == pytest.approx(1.0)
            assert rec.inf_u == pytest.approx(1.0)

    def test_deterministic_rerun(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=2.0,
                           boundary="mask", mask_radius=10.0, snapshot_every=5)
        t1 = run(u0, m, s, cfg)
        t2 = run(u0, m, s, cfg)
        for (ta, ua), (tb, ub) in zip(t1.snapshots, t2.snapshots):
            assert ta == tb
            assert np.array_equal(ua.values, ub.values)

    def test_mask_mass_constant_along_run(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.2, t_end=20.0,
                           boundary="mask", mask_radius=10.0, snapshot_every=10)
        traj = run(u0, m, s, cfg)
        ms = np.array([rec.mass for rec in traj.diagnostics])
        assert np.max(np.abs(ms - ms[0])) <= 1e-12 * abs(ms[0])

    def test_euler_mask_mass_constant(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        dt = 0.9 * stability_dt(m, g)
        cfg = SolverConfig(scheme="euler", dt=dt, t_end=200 * dt,
                           boundary="mask", mask_radius=10.0, snapshot_every=20)
        traj = run(u0, m, s, cfg)
        ms = np.array([rec.mass for rec in traj.diagnostics])
        assert np.max(np.abs(ms - ms[0])) <= 1e-12 * abs(ms[0])

    def test_scheme_consistency_rate(self, setup_1d):
        # euler and integrating-factor trajectories drift apart at O(dt)
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        gaps = []
        for dt in (2e-3, 1e-3):
            cfg_e = SolverConfig(scheme="euler", dt=dt, t_end=0.2,
                                 snapshot_every=10 ** 9)
            cfg_x = SolverConfig(scheme="exponential", dt=dt, t_end=0.2,
                                 snapshot_every=10 ** 9)
            a = run(u0, m, s, cfg_e).final()
            b = run(u0, m, s, cfg_x).final()
            gaps.append(np.max(np.abs(a.values - b.values)))
        assert math.log2(gaps[0] / gaps[1]) == pytest.approx(1.0, abs=0.15)

    def test_steppers_match_reference_steps(self, setup_1d):
        # the precompiled run loop must reproduce the one-shot operations
        g, s, m = setup_1d
        rng = np.random.default_rng(8)
        u0 = Field(g, np.abs(rng.standard_normal(g.shape)))
        for boundary, mask_r in (("zero-extend", None), ("mask", 10.0)):
            mask = DomainMask(g, mask_r) if mask_r else None
            for scheme in ("euler", "exponential"):
                dt = 0.5 * stability_dt(m, g) if scheme == "euler" else 0.7
                cfg = SolverConfig(scheme=scheme, dt=dt, t_end=dt,
                                   boundary=boundary, mask_radius=mask_r,
                                   snapshot_every=1)
                got = run(u0, m, s, cfg).final().values
                stepfn = step_euler if scheme == "euler" else step_exponential
                want = stepfn(u0 if mask is None else Field(g, u0.values * mask.indicator()),
                              m, s, dt, boundary=boundary, mask=mask).values
                assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("scheme", ["euler", "exponential"])
    def test_masked_state_is_positive_zero_off_the_mask(self, setup_1d, scheme):
        # run snapshots (CSR path) and a one-shot step (sweep path), from data
        # of both signs: off the mask every value is +0.0, never -0.0
        g, s, m = setup_1d
        mask = DomainMask(g, 5.0)
        u0 = Field.from_function(g, lambda x: np.cos(x) - 0.5)
        dt = 0.5 * stability_dt(m, g) if scheme == "euler" else 0.7
        cfg = SolverConfig(scheme=scheme, dt=dt, t_end=3.5 * dt, boundary="mask",
                           mask_radius=5.0, snapshot_every=1)
        states = [u.values for _, u in run(u0, m, s, cfg).snapshots]
        stepfn = step_euler if scheme == "euler" else step_exponential
        states.append(stepfn(u0, m, s, dt, boundary="mask", mask=mask).values)
        for values in states:
            outside = values[~mask.inside]
            assert np.all(outside == 0.0) and not np.any(np.signbit(outside))

    def test_nan_abort_carries_step_index(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.constant(g, 1e308)
        cfg = SolverConfig(scheme="euler", dt=stability_dt(m, g) * 0.99,
                           t_end=1.0, snapshot_every=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort) as err:
                run(u0, m, s, cfg)
        assert err.value.step_index >= 1

    def test_2d_smoke_mask_conservation(self):
        g = Grid(2, 3.0, 31)
        s = discretize(Kernel.gaussian(0.5, dim=2), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0, dim=2)
        u0 = Field.from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        cfg = SolverConfig(scheme="exponential", dt=0.3, t_end=6.0,
                           boundary="mask", mask_radius=3.0, snapshot_every=5)
        traj = run(u0, m, s, cfg)
        ms = np.array([rec.mass for rec in traj.diagnostics])
        assert np.max(np.abs(ms - ms[0])) <= 1e-12 * abs(ms[0])
        assert traj.final().max() <= u0.max()

    def test_config_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(scheme="verlet").validate()
        with pytest.raises(SolverError):
            SolverConfig(dt=-1.0).validate()
        with pytest.raises(SolverError):
            SolverConfig(boundary="mask").validate()
        with pytest.raises(SolverError, match="zero-extend"):
            SolverConfig(scheme="picard-oracle", boundary="mask",
                         mask_radius=5.0).validate()

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    def test_final_partial_step_lands_on_t_end(self, setup_1d, boundary):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0) if boundary == "mask" else None
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        cfg = SolverConfig(scheme="exponential", dt=0.3, t_end=1.0, boundary=boundary,
                           mask_radius=10.0 if mask else None, snapshot_every=1)
        traj = run(u0, m, s, cfg)
        np.testing.assert_allclose(traj.times(), [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)
        assert traj.times()[-1] == 1.0
        want = u0 if mask is None else Field(g, u0.values * mask.indicator())
        for dt in (0.3, 0.3, 0.3, 0.1):
            want = step_exponential(want, m, s, dt, boundary=boundary, mask=mask)
        assert np.max(np.abs(traj.final().values - want.values)) <= 1e-12

    @pytest.mark.parametrize("t_end", [0.05, 0.45, 1.9])
    def test_short_remainder_recorded_once(self, setup_1d, t_end):
        g, s, m = setup_1d
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=t_end, snapshot_every=2)
        times = run(Field.zeros(g), m, s, cfg).times()
        assert times[-1] == t_end
        assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_extend_steps_match_direct_convolution(dim):
    if dim == 1:
        g, sigma = Grid(1, 10.0, 201), 1.0
    else:
        g, sigma = Grid(2, 4.0, 41), 0.6
    s = discretize(Kernel.gaussian(sigma, dim=dim), g.spacing, trunc_tol=1e-8)
    m = Medium.power_decay(1.0, 2.0, dim=dim)
    u = Field(g, np.random.default_rng(13).random(g.shape))
    rho = m.sample(g)
    conv = convolve_direct(u, s).values
    dt = 0.9 * stability_dt(m, g)
    a = np.exp(-0.7 / rho)
    for got, want in ((step_euler(u, m, s, dt), u.values + dt * (conv - u.values) / rho),
                      (step_exponential(u, m, s, 0.7), a * u.values + (1.0 - a) * conv)):
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nnz_cap", [20_000_000, 0], ids=["csr", "sweep"])
def test_isolated_mask_node_without_self_weight_rejected(nnz_cap):
    g = Grid(1, 5.0, 51)
    s = discretize(Kernel.gaussian(0.6), g.spacing)
    keep = np.any(s.offsets != 0, axis=1)
    s0 = Stencil(s.offsets[keep], s.weights[keep], s.spacing, s.truncation_radius,
                 False, 1)
    mask = DomainMask(g, 0.05)   # the origin node alone
    with pytest.raises(SolverError, match="zero in-domain kernel mass"):
        _MaskedStepper(_Operator(g, s0, "mask", mask), Medium.constant(1.0).sample(g),
                       "exponential", 0.1, nnz_cap=nnz_cap)


@pytest.fixture(params=[(1, None), (1, (2.0, 5.0)), (2, None), (2, (1.5, 2.6))],
                ids=["1d", "1d-split", "2d", "2d-split"])
def sweep_case(request):
    dim, band = request.param
    if dim == 1:
        g, sigma, tol = Grid(1, 10.0, 201), 1.0, 1e-12
    else:
        g, sigma, tol = Grid(2, 4.0, 41), 0.6, 1e-8
    s = discretize(Kernel.gaussian(sigma, dim=dim), g.spacing, trunc_tol=tol)
    m = Medium.power_decay(1.0, 2.0, dim=dim)
    mask = DomainMask(g, g.half_extent, exclude_band=band)
    u0 = np.random.default_rng(11).random(g.shape) * mask.indicator()
    return g, s, m, mask, u0


class TestMaskedSweep:
    """The flat-shift sweep (forced with nnz_cap=0) against the CSR stepper."""

    @pytest.mark.parametrize("scheme", ["euler", "exponential"])
    def test_step_and_rate_match_csr(self, sweep_case, scheme):
        g, s, m, mask, u0 = sweep_case
        dt = 0.9 * stability_dt(m, g) if scheme == "euler" else 0.7
        op, rho = _Operator(g, s, "mask", mask), m.sample(g)
        csr = _MaskedStepper(op, rho, scheme, dt)
        sweep = _MaskedStepper(op, rho, scheme, dt, nnz_cap=0)
        assert csr.matrix_mode and not sweep.matrix_mode
        for name in ("step", "rate"):
            want = getattr(csr, name)(u0)
            got = getattr(sweep, name)(u0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("nnz_cap", [20_000_000, 0], ids=["csr", "sweep"])
    def test_rate_matches_exchange_matrix(self, sweep_case, nnz_cap):
        g, s, m, mask, u0 = sweep_case
        stepper = _MaskedStepper(_Operator(g, s, "mask", mask), m.sample(g), "exponential",
                                 0.7, nnz_cap=nnz_cap)
        W = masked_exchange_matrix(s, mask)
        x = u0[mask.inside]
        want = (W @ x - np.asarray(W.sum(axis=1)).ravel() * x) / stepper.rho[mask.inside]
        got = stepper.rate(u0)[mask.inside]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("scheme", ["euler", "exponential"])
    def test_mass_conserved_over_many_steps(self, sweep_case, scheme):
        g, s, m, mask, u0 = sweep_case
        dt = 0.9 * stability_dt(m, g) if scheme == "euler" else 0.7
        sweep = _MaskedStepper(_Operator(g, s, "mask", mask), m.sample(g), scheme, dt,
                               nnz_cap=0)
        x = u0
        m0 = float(np.sum(sweep.rho * x))
        for _ in range(120):
            x = sweep.step(x)
        assert abs(float(np.sum(sweep.rho * x)) - m0) <= 1e-12 * m0

    def test_positivity_and_range_at_large_dt(self, sweep_case):
        g, s, m, mask, u0 = sweep_case
        sweep = _MaskedStepper(_Operator(g, s, "mask", mask), m.sample(g), "exponential",
                               50.0, nnz_cap=0)
        x, inside = u0, mask.inside
        lo, hi = float(x[inside].min()), float(x[inside].max())
        for _ in range(20):
            x = sweep.step(x)
            assert x[inside].min() >= lo - 1e-12 * hi
            assert x[inside].max() <= hi * (1 + 1e-12)


class TestPicard:
    def test_report_is_a_declared_field(self):
        from dataclasses import fields
        from isoflow import Trajectory
        assert Trajectory().picard_report is None
        assert "picard_report" in {f.name for f in fields(Trajectory)}
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        cfg = SolverConfig(scheme="picard-oracle", dt=1e-2, t_end=0.2)
        assert run(Field.constant(g, 1.0), m, s, cfg).picard_report.windows

    def test_degenerate_medium_raises_medium_error(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.custom(lambda x: np.where(np.abs(x) < 4.0, 1.0, 0.0))
        u0 = Field.constant(g, 1.0)
        cfg = SolverConfig(scheme="picard-oracle", dt=1e-2, t_end=0.2)
        with pytest.raises(MediumError, match="strictly positive"):
            run(u0, m, s, cfg)
        with pytest.raises(MediumError, match="strictly positive"):
            picard_solve(u0, m, s, 0.2)

    def test_constant_data(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        final, report = picard_solve(Field.constant(g, 2.0), m, s, 1.0)
        hw = int(s.halfwidths[0])
        np.testing.assert_allclose(final.values[hw:-hw], 2.0, atol=1e-10)

    def test_cross_scheme_agreement(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        final, _ = picard_solve(u0, m, s, 1.0, tol=1e-10, dt=1e-3)
        cfg = SolverConfig(scheme="exponential", dt=1e-3, t_end=1.0,
                           snapshot_every=10 ** 9)
        ref = run(u0, m, s, cfg).final()
        assert np.max(np.abs(final.values - ref.values)) <= 1e-3

    def test_contraction_factor_below_bound(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        _, report = picard_solve(u0, m, s, 0.5, tol=1e-11, dt=1e-3)
        assert report.max_bound() < 1.0
        assert 0.0 < report.max_ratio() <= report.max_bound()
        for w in report.windows:
            assert w.t_length <= 0.5 * 0.3

    def test_window_validation(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        with pytest.raises(SolverError, match="window"):
            picard_solve(Field.zeros(g), m, s, 1.0, window=0.2)

    def test_node_cap(self):
        g = Grid(1, 5.0, 20001)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-6)
        m = Medium.constant(1.0)
        with pytest.raises(SolverError, match="10\\^4|cap"):
            picard_solve(Field.zeros(g), m, s, 0.1)


class TestMonotoneApprox:
    def test_large_n_equals_plain_run(self, setup_1d):
        # once the truncation ball covers the box the run is the plain one
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        alpha = 0.9 * float(m.sample(g).min())
        trajs, rep = monotone_approx_run(u0, m, s, [50, 60], t_probe=1.0,
                                         dt=0.1, alphas=[alpha, alpha])
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=1.0,
                           snapshot_every=10, floor_alpha=alpha)
        plain = run(u0, m, s, cfg)
        np.testing.assert_array_equal(trajs[-1].final().values,
                                      plain.final().values)
        assert rep.max_violation <= 1e-12

    def test_quadratic_data_nondecreasing_in_n(self):
        g = Grid(1, 20.0, 201)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0)
        u0 = Field(g, 1.0 + g.radius() ** 2)
        alpha = 0.9 * float(m.sample(g).min())
        trajs, rep = monotone_approx_run(u0, m, s, [4, 6, 8], t_probe=5.0,
                                         dt=0.1, alphas=[alpha] * 3)
        assert rep.max_violation <= 1e-12
        origins = [t.final().at_origin() for t in trajs]
        assert origins == sorted(origins)

    def test_envelope_bound_reported(self):
        g = Grid(1, 20.0, 201)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0)
        u0 = Field(g, 1.0 + g.radius() ** 2)
        _, rep = monotone_approx_run(u0, m, s, [4, 8], t_probe=2.0, dt=0.1)
        assert rep.envelope_ok is True

    def test_needs_increasing_n(self, setup_1d):
        g, s, m = setup_1d
        with pytest.raises(SolverError):
            monotone_approx_run(Field.zeros(g), m, s, [5, 3], 1.0)


class TestTrustRadius:
    def test_homogeneous_formula(self):
        g = Grid(1, 20.0, 401)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.constant(1.0)
        t = 9.0
        expected = 20.0 - s.truncation_radius - math.sqrt(
            __import__("isoflow").stencil_second_moment(s) * t)
        assert trust_radius(g, s, m, t) == pytest.approx(expected, rel=1e-6)

    def test_shrinks_with_time(self):
        g = Grid(1, 20.0, 401)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        m = Medium.constant(1.0)
        rs = [trust_radius(g, s, m, t) for t in (1.0, 5.0, 20.0)]
        assert rs[0] > rs[1] > rs[2] >= 0.0
