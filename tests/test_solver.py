import math
import os
import re
import pickle
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import blas

import isoflow
from isoflow import (DomainMask, Field, Grid, Kernel, Medium, MediumError, NumericalAbort,
                     Probes, SolverConfig, SolverError, Stencil, convolve_direct, discretize,
                     floor, monotone_approx_run, picard_solve, run, stability_dt,
                     step_euler, step_exponential, trust_radius)
from isoflow import diagnostics, grids, solver
from isoflow.diagnostics import mass
from isoflow.grids import _Operator, masked_exchange_matrix
from isoflow.solver import _ExchangeStepper, _FFTStepper, _stepper
from isoflow.verify import mass_drift, picard_gap


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

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    @pytest.mark.parametrize("dt", [-0.5, math.nan], ids=["negative", "nan"])
    def test_dt_outside_the_stability_interval_rejected(self, setup_1d, dt, boundary):
        # dt=-0.5 would run a backward step that takes a bump below zero
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0) if boundary == "mask" else None
        u = Field.from_function(g, lambda x: np.exp(-x * x))
        with pytest.raises(SolverError, match="stability_dt"):
            step_euler(u, m, s, dt, boundary=boundary, mask=mask)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_extend_step_is_the_forward_difference(self, dim):
        # the stepper's gain J*u + decay u with decay = 1 - dt/rho
        g = Grid(dim, 4.0, 41)
        s = discretize(Kernel.gaussian(0.7, dim=dim), g.spacing, trunc_tol=1e-8)
        rho = Medium.power_decay(1.0, 2.0, dim=g.dim).sample(g)
        u = np.random.default_rng(dim).standard_normal(g.shape)
        op = _Operator(g, s)
        dt = 0.9 * float(rho.min())
        want = u + dt * (op.convolve(u) - u) / rho
        got = _stepper(op, rho, "euler", dt).step(u)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(u))


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

    @pytest.mark.parametrize("boundary", ["zero-extend", "mask"])
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_dt_must_be_positive_and_finite(self, setup_1d, dt, boundary):
        g, s, m = setup_1d
        mask = DomainMask(g, 10.0) if boundary == "mask" else None
        with pytest.raises(SolverError, match="positive and finite"):
            step_exponential(Field.constant(g, 1.0), m, s, dt, boundary=boundary, mask=mask)

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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_extend_step_is_the_decay_formula_bitwise(self, dim):
        g = Grid(dim, 4.0, 41)
        s = discretize(Kernel.gaussian(0.7, dim=dim), g.spacing, trunc_tol=1e-8)
        rho = Medium.power_decay(1.0, 2.0, dim=g.dim).sample(g)
        u = np.random.default_rng(dim).standard_normal(g.shape)
        op = _Operator(g, s)
        stepper = _stepper(op, rho, "exponential", 0.3)
        decay = np.exp(-0.3 / rho)
        np.testing.assert_array_equal(stepper.step(u),
                                      decay * u + (1.0 - decay) * op.convolve(u))


# (boundary, scheme, grids.PAIR_CAP, the path the run's stepper takes) per
# dim, each path once: a 2-D masked exponential run sweeps at any cap
_STEPPER_PATHS = {dim: [("zero-extend", "euler", grids.PAIR_CAP, "fft"),
                        ("zero-extend", "exponential", grids.PAIR_CAP, "fft"),
                        ("mask", "euler", grids.PAIR_CAP, "fft")] + exchange
                  for dim, exchange in (
                      (1, [("mask", "exponential", grids.PAIR_CAP, "band"),
                           ("mask", "exponential", 0, "sweep")]),
                      (2, [("mask", "exponential", grids.PAIR_CAP, "sweep")]))}

# the nnz_cap of each distinct masked exponential path: band and sweep in 1-D
_EXCHANGE_CAPS = {1: (None, 0), 2: (None,)}


def _stepper_setups(setup_1d):
    """(dim, (grid, stencil, medium), mask radius) in 1-D and at 2-D M=41."""
    g = Grid(2, 4.0, 41)
    s = discretize(Kernel.gaussian(0.6, dim=2), g.spacing, trunc_tol=1e-8)
    return [(1, setup_1d, 10.0), (2, (g, s, Medium.power_decay(1.0, 2.0, dim=2)), 3.5)]


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
                               mask_radius=10.0 if boundary == "mask" else None,
                               snapshot_every=every)
            n_records = len(run(u0, m, s, cfg).diagnostics)
            counts[n_records] = len(calls)
        assert set(counts) == {2, 20, 21}
        assert counts[2] == counts[20] == counts[21] == 1

    def test_unknown_dist_target_rejected(self, setup_1d):
        # run owns this check, for scenario files and the API alike
        g, s, m = setup_1d
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=0.2)
        with pytest.raises(SolverError, match="dist_target"):
            run(Field.constant(g, 1.0), m, s, cfg, Probes(dist_target="bogus"))

    @pytest.mark.parametrize("scheme, boundary", [("exponential", "zero-extend"),
                                                  ("exponential", "mask"),
                                                  ("picard-oracle", "zero-extend")],
                             ids=["zero-extend", "mask", "picard-oracle"])
    @pytest.mark.parametrize("t_end, every", [(1.9, 19), (1.9, 1), (1.95, 1)],
                             ids=["2-records", "20-records", "remainder"])
    def test_fft_plan_built_once_per_run(self, setup_1d, monkeypatch, scheme, boundary,
                                         t_end, every):
        # and no pair matrix: a 1-D mask run stores its exchange as a band,
        # remainder step or not, and the Picard oracle applies J* by the FFT
        g, s, m = setup_1d
        calls = {"_fft_plan": 0, "masked_exchange_matrix": 0}

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
        cfg = SolverConfig(scheme=scheme, dt=0.1, t_end=t_end, boundary=boundary,
                           mask_radius=10.0 if boundary == "mask" else None,
                           snapshot_every=every)
        run(u0, m, s, cfg)
        assert calls == {"_fft_plan": 1, "masked_exchange_matrix": 0}

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
        assert mass_drift(run(u0, m, s, cfg)) <= 1e-12

    def test_euler_mask_mass_constant(self, setup_1d):
        g, s, m = setup_1d
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        dt = 0.9 * stability_dt(m, g)
        cfg = SolverConfig(scheme="euler", dt=dt, t_end=200 * dt,
                           boundary="mask", mask_radius=10.0, snapshot_every=20)
        assert mass_drift(run(u0, m, s, cfg)) <= 1e-12

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

    def test_steppers_match_reference_steps(self, setup_1d, monkeypatch):
        # the precompiled run loop must reproduce the one-shot operations on
        # every stepper path, in 1-D and 2-D; a masked exponential one-shot sweeps
        made = []
        picker = solver._stepper
        monkeypatch.setattr(solver, "_stepper", lambda *a, **k: made.append(picker(*a, **k))
                            or made[-1])
        for dim, (g, s, m), mask_r in _stepper_setups(setup_1d):
            rng = np.random.default_rng(8)
            u0 = Field(g, np.abs(rng.standard_normal(g.shape)))
            for boundary, scheme, cap, path in _STEPPER_PATHS[dim]:
                monkeypatch.setattr(grids, "PAIR_CAP", cap)
                mask = DomainMask(g, mask_r) if boundary == "mask" else None
                dt = 0.5 * stability_dt(m, g) if scheme == "euler" else 0.7
                cfg = SolverConfig(scheme=scheme, dt=dt, t_end=dt, boundary=boundary,
                                   mask_radius=mask_r if mask else None, snapshot_every=1)
                made.clear()
                got = run(u0, m, s, cfg).final().values
                assert getattr(made[0], "path", "fft") == path
                stepfn = step_euler if scheme == "euler" else step_exponential
                want = stepfn(u0 if mask is None else Field(g, u0.values * mask.indicator()),
                              m, s, dt, boundary=boundary, mask=mask).values
                assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0), \
                    (dim, boundary, scheme, path)

    def test_zero_step_run_checks_its_step_but_builds_no_stepper(self, setup_1d,
                                                                  monkeypatch):
        # a t_end = 0 run (isoflow sweep's check of a value) makes every step
        # check and records u0, with no band or sweep buffers built
        g, s, m = setup_1d
        made = []
        picker = solver._stepper
        monkeypatch.setattr(solver, "_stepper", lambda *a, **k: made.append(picker(*a, **k))
                            or made[-1])
        u0 = Field.constant(g, 1.0)
        cfg = SolverConfig(scheme="exponential", dt=0.7, t_end=0.0, boundary="mask",
                           mask_radius=8.0)
        assert len(run(u0, m, s, cfg).diagnostics) == 1
        assert made == []
        unstable = replace(cfg, scheme="euler", dt=2.0 * stability_dt(m, g))
        with pytest.raises(SolverError, match="stability_dt"):
            run(u0, m, s, unstable)
        assert len(run(u0, m, s, replace(cfg, t_end=0.7)).diagnostics) == 2
        assert [st.path for st in made] == ["band"]

    @pytest.mark.parametrize("scheme", ["euler", "exponential"])
    def test_masked_state_is_positive_zero_off_the_mask(self, setup_1d, monkeypatch,
                                                        scheme):
        # run snapshots on each masked path of the scheme (FFT for Euler;
        # band and sweep in 1-D, sweep in 2-D, for exponential) and a
        # one-shot step, from data of both signs: off the mask every value is
        # +0.0, never -0.0
        for dim, (g, s, m), mask_r in _stepper_setups(setup_1d):
            mask = DomainMask(g, 0.5 * mask_r)
            u0 = Field(g, np.cos(sum(g.coords())) - 0.5)
            dt = 0.5 * stability_dt(m, g) if scheme == "euler" else 0.7
            cfg = SolverConfig(scheme=scheme, dt=dt, t_end=3.5 * dt, boundary="mask",
                               mask_radius=0.5 * mask_r, snapshot_every=1)
            states = []
            for _, _, cap, _ in (p for p in _STEPPER_PATHS[dim] if p[:2] == ("mask", scheme)):
                monkeypatch.setattr(grids, "PAIR_CAP", cap)
                states += [u.values for _, u in run(u0, m, s, cfg).snapshots]
            stepfn = step_euler if scheme == "euler" else step_exponential
            states.append(stepfn(u0, m, s, dt, boundary="mask", mask=mask).values)
            for values in states:
                outside = values[~mask.inside]
                assert np.all(outside == 0.0) and not np.any(np.signbit(outside)), dim

    def test_nan_abort_carries_step_index(self, setup_1d, monkeypatch):
        # every stepper is stable, so the third step is made to produce a NaN
        g, s, m = setup_1d
        steps = []
        real_step = _FFTStepper.step

        def step(self, values):
            out = real_step(self, values)
            steps.append(None)
            if len(steps) == 3:
                out[0] = np.nan
            return out

        monkeypatch.setattr(_FFTStepper, "step", step)
        cfg = SolverConfig(scheme="euler", dt=stability_dt(m, g) * 0.99,
                           t_end=1.0, snapshot_every=1)
        with pytest.raises(NumericalAbort, match="non-finite values") as err:
            run(Field.constant(g, 1.0), m, s, cfg)
        assert err.value.step_index == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["euler", "picard-oracle"])
    def test_non_finite_record_aborts_naming_its_columns(self, setup_1d, scheme):
        # finite data whose squares overflow: the state stays finite, F does
        # not, and numpy warns of nothing before the abort
        g, s, m = setup_1d
        u0 = Field.constant(g, 1e300)
        cfg = SolverConfig(scheme=scheme, dt=stability_dt(m, g) * 0.99, t_end=1.0,
                           floor_alpha=0.01 if scheme == "picard-oracle" else None)
        with pytest.raises(NumericalAbort, match="lyapunov_F") as err:
            run(u0, m, s, cfg)
        assert err.value.step_index == 0
        assert "in the record at step 0" in str(err.value)
        assert "mass" not in str(err.value)

    def test_abort_survives_pickling(self):
        # a run in a worker process of the caller's reaches the parent pickled
        err = pickle.loads(pickle.dumps(NumericalAbort(7, "lyapunov_F in the record")))
        assert str(err) == "non-finite lyapunov_F in the record at step 7"
        assert err.step_index == 7

    def test_2d_smoke_mask_conservation(self):
        g = Grid(2, 3.0, 31)
        s = discretize(Kernel.gaussian(0.5, dim=2), g.spacing, trunc_tol=1e-8)
        m = Medium.power_decay(1.0, 2.0, dim=2)
        u0 = Field.from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        cfg = SolverConfig(scheme="exponential", dt=0.3, t_end=6.0,
                           boundary="mask", mask_radius=3.0, snapshot_every=5)
        traj = run(u0, m, s, cfg)
        assert mass_drift(traj) <= 1e-12
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
        # zero-extend would ignore a mask radius
        with pytest.raises(SolverError, match="mask_radius"):
            SolverConfig(dt=0.1, t_end=1.0, mask_radius=3.0).validate()

    @pytest.mark.parametrize("values, message", [
        ({"dt": "0.1"}, "needs a finite dt > 0, got '0.1'"),
        ({"mask_radius": "3"}, "needs a finite mask_radius, got '3'"),
        ({"picard_tol": "1e-10"}, "needs a finite picard_tol > 0, got '1e-10'"),
        ({"snapshot_every": None}, "snapshot_every must be an integer >= 1, got None"),
        ({"snapshot_every": 2.5}, "snapshot_every must be an integer >= 1, got 2.5"),
        ({"dt": 1e-300, "t_end": 1e300}, "step count t_end/dt = 1e+300/1e-300 overflows"),
    ], ids=["dt-str", "mask_radius-str", "picard_tol-str", "snapshot_every-None",
            "snapshot_every-fraction", "step-count-overflows"])
    def test_config_value_outside_its_domain_names_its_field(self, values, message):
        # unchecked, each str or None raised a TypeError, snapshot_every = 2.5
        # recorded at steps 0, 5 and 10, and run's int(round(t_end / dt))
        # raised an OverflowError
        cfg = SolverConfig(dt=0.1, t_end=1.0, boundary="mask", mask_radius=3.0)
        with pytest.raises(SolverError, match=re.escape(message)):
            replace(cfg, **values).validate()

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


def test_masked_runs_build_no_pair_matrix(monkeypatch):
    # 2-D, under the pair cap: no masked run or one-shot of either scheme
    # calls masked_exchange_matrix or assembles any CSR pair matrix
    def refuse(*args, **kwargs):
        raise AssertionError("pair matrix built")

    monkeypatch.setattr(grids, "masked_exchange_matrix", refuse)
    monkeypatch.setattr(sparse, "csr_matrix", refuse)
    g = Grid(2, 4.0, 41)
    s = discretize(Kernel.gaussian(0.6, dim=2), g.spacing, trunc_tol=1e-8)
    m = Medium.power_decay(1.0, 2.0, dim=2)
    u0 = Field(g, np.random.default_rng(3).random(g.shape))
    for scheme, dt in (("euler", 0.5 * stability_dt(m, g)), ("exponential", 0.1)):
        cfg = SolverConfig(scheme=scheme, dt=dt, t_end=3 * dt, boundary="mask",
                           mask_radius=3.5, snapshot_every=1)
        run(u0, m, s, cfg)
        stepfn = step_euler if scheme == "euler" else step_exponential
        stepfn(u0, m, s, dt, boundary="mask", mask=DomainMask(g, 3.5))


def test_isolated_mask_node_without_self_weight_rejected():
    g = Grid(1, 5.0, 51)
    s = discretize(Kernel.gaussian(0.6), g.spacing)
    keep = np.any(s.offsets != 0, axis=1)
    s0 = Stencil(s.offsets[keep], s.weights[keep], s.spacing, s.truncation_radius,
                 False, 1)
    mask = DomainMask(g, 0.05)   # the origin node alone
    op, rho = _Operator(g, s0, mask), Medium.constant(1.0).sample(g)
    for scheme in ("euler", "exponential"):
        with pytest.raises(SolverError, match="zero in-domain kernel mass"):
            _stepper(op, rho, scheme, 0.1)


def _band_by_offset(stencil, r_eff):
    # the 1-D band as it was first assembled, one stencil offset at a time
    K = int(stencil.halfwidths[0])
    band = np.zeros((K + 1, r_eff.size), order="F")
    for (k,), w in zip(stencil.offsets, stencil.weights):
        if k > 0:
            band[K - k, k:] = w * np.minimum(r_eff[:-k], r_eff[k:])
    band[K] = -blas.dsbmv(K, 1.0, band, np.ones(r_eff.size))
    return band


def _stencil_1d(g, weights):
    # symmetric 1-D stencil of weight weights[k] at +-k, renormalized
    k = np.array(sorted({j for i in weights for j in (i, -i)}))
    w = np.array([weights[abs(i)] for i in k])
    return Stencil(k[:, None], w / w.sum(), g.spacing, k.max() * g.spacing, True, 1)


@pytest.mark.parametrize("case", ["1d", "1d-split", "absent-and-zero-offsets", "K=M-1"])
def test_band_equals_the_per_offset_loop(case):
    if case in ("1d", "1d-split"):
        g = Grid(1, 10.0, 201)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        mask = DomainMask(g, 10.0, exclude_band=(2.0, 5.0) if case == "1d-split" else None)
    elif case == "absent-and-zero-offsets":
        g = Grid(1, 4.0, 41)
        s = _stencil_1d(g, {0: 3.0, 1: 2.0, 3: 1.0, 4: 0.0})   # no +-2, zero at +-4
        mask = DomainMask(g, 3.0)
    else:
        g = Grid(1, 2.0, 21)
        s = _stencil_1d(g, {k: math.exp(-0.05 * k * k) for k in range(21)})
        mask = DomainMask(g, 2.0)
    op, rho = _Operator(g, s, mask), Medium.power_decay(1.0, 2.0).sample(g)
    stepper = _ExchangeStepper(op, rho, 0.7)
    assert stepper.path == "band"
    if case == "K=M-1":
        assert stepper.K == g.points_per_axis - 1
    r_eff = np.zeros(g.shape)
    r_eff[mask.inside] = solver._effective_step(rho[mask.inside], op.kappa[mask.inside], 0.7)
    assert stepper.band.flags.f_contiguous
    assert np.array_equal(stepper.band, _band_by_offset(s, r_eff))


_SWEEP_CASES_1D = [(1, None), (1, (2.0, 5.0))]


@pytest.fixture(params=_SWEEP_CASES_1D + [(2, None), (2, (1.5, 2.6))],
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


def _weighted_exchange_step(op, rho, dt, u0):
    # the masked exponential step at the mask nodes, x + (C x - rowsum(C) x)/rho
    # with C = W min(r_i, r_j) and W = masked_exchange_matrix
    inside = op.mask.inside
    r = solver._effective_step(rho[inside], op.kappa[inside], dt)
    C = masked_exchange_matrix(op.stencil, op.mask).tocoo()
    C.data *= np.minimum(r[C.row], r[C.col])
    x = u0[inside]
    return x + (C @ x - np.asarray(C.sum(axis=1)).ravel() * x) / rho[inside]


class TestMaskedSweep:
    """The exchange stepper's paths: the band (1-D, default cap) and the
    flat-shift sweep (forced with nnz_cap=0 in 1-D, the only path in 2-D),
    against each other and against masked_exchange_matrix weighted by min(r)."""

    @pytest.mark.parametrize("sweep_case", _SWEEP_CASES_1D, ids=["1d", "1d-split"],
                             indirect=True)
    def test_step_matches_the_stored_exchange(self, sweep_case):
        g, s, m, mask, u0 = sweep_case
        op, rho = _Operator(g, s, mask), m.sample(g)
        stored = _ExchangeStepper(op, rho, 0.7)
        sweep = _ExchangeStepper(op, rho, 0.7, nnz_cap=0)
        assert (stored.path, sweep.path) == ("band", "sweep")
        want = stored.step(u0)
        assert np.max(np.abs(sweep.step(u0) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stored_step_matches_weighted_exchange_matrix(self, sweep_case):
        # the default path, the band in 1-D and the sweep in 2-D
        g, s, m, mask, u0 = sweep_case
        op, rho = _Operator(g, s, mask), m.sample(g)
        stepper = _ExchangeStepper(op, rho, 0.7)
        assert stepper.path == ("band" if g.dim == 1 else "sweep")
        inside = mask.inside
        want = _weighted_exchange_step(op, rho, 0.7, u0)
        got = stepper.step(u0)
        assert np.max(np.abs(got[inside] - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(got[~inside] == 0.0)
        if g.dim == 1:
            K = int(s.halfwidths[0])
            assert stepper.band.shape == (K + 1, g.n_nodes)
            assert stepper.band.flags.f_contiguous

    def test_rate_matches_exchange_matrix(self, sweep_case):
        # a masked Euler step is one FFT step, which reads no pair cap, whose
        # rate (u+ - u) rho/dt is W x - rowsum(W) x over the mask nodes
        g, s, m, mask, u0 = sweep_case
        rho, dt = m.sample(g), 0.9 * stability_dt(m, g)
        stepper = _stepper(_Operator(g, s, mask), rho, "euler", dt)
        assert isinstance(stepper, _FFTStepper)
        W = masked_exchange_matrix(s, mask)
        x = u0[mask.inside]
        want = W @ x - np.asarray(W.sum(axis=1)).ravel() * x
        got = ((stepper.step(u0) - u0) * rho / dt)[mask.inside]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("scheme", ["euler", "exponential"])
    def test_mass_conserved_over_many_steps(self, sweep_case, scheme):
        # Euler once, on the FFT stepper, which reads no cap; exponential on
        # each distinct path: band and sweep in 1-D, sweep in 2-D
        g, s, m, mask, u0 = sweep_case
        dt = 0.9 * stability_dt(m, g) if scheme == "euler" else 0.7
        op, rho = _Operator(g, s, mask), m.sample(g)
        for nnz_cap in (None,) if scheme == "euler" else _EXCHANGE_CAPS[g.dim]:
            stepper = _stepper(op, rho, scheme, dt, nnz_cap=nnz_cap)
            x = u0
            m0 = float(np.sum(rho * x))
            for _ in range(120):
                x = stepper.step(x)
            assert abs(float(np.sum(rho * x)) - m0) <= 1e-12 * m0, nnz_cap

    def test_positivity_and_range_at_large_dt(self, sweep_case):
        # on each distinct path: band and sweep in 1-D, sweep in 2-D
        g, s, m, mask, u0 = sweep_case
        op, rho, inside = _Operator(g, s, mask), m.sample(g), mask.inside
        lo, hi = float(u0[inside].min()), float(u0[inside].max())
        for nnz_cap in _EXCHANGE_CAPS[g.dim]:
            stepper = _ExchangeStepper(op, rho, 50.0, nnz_cap=nnz_cap)
            x = u0
            for _ in range(20):
                x = stepper.step(x)
                assert x[inside].min() >= lo - 1e-12 * hi, stepper.path
                assert x[inside].max() <= hi * (1 + 1e-12), stepper.path

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_cap_picks_the_path(self, monkeypatch, dim):
        g = Grid(dim, 4.0, 41)
        s = discretize(Kernel.gaussian(0.6, dim=dim), g.spacing, trunc_tol=1e-8)
        op = _Operator(g, s, DomainMask(g, 4.0))
        rho = Medium.constant(1.0, dim=g.dim).sample(g)
        pairs = op.mask.n_nodes * len(s)
        stored = "band" if dim == 1 else "sweep"   # 2-D sweeps at either cap
        for cap, path in ((pairs, stored), (pairs - 1, "sweep")):
            monkeypatch.setattr(grids, "PAIR_CAP", cap)
            assert _stepper(op, rho, "exponential", 0.1).path == path
            assert isinstance(_stepper(op, rho, "euler", 0.1), _FFTStepper)
        with pytest.raises(grids.GridError, match="too large"):
            masked_exchange_matrix(s, op.mask)

    def test_sweep_is_its_two_halves_summed_in_order(self, sweep_case):
        g, s, m, mask, u0 = sweep_case
        sweep = _ExchangeStepper(_Operator(g, s, mask), m.sample(g), 0.7,
                               nnz_cap=0)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        first = sweep._exchange(u0).copy()
        sys.setswitchinterval(1e-6)   # hand the GIL over as often as it can go
        try:
            for _ in range(5):
                assert np.array_equal(sweep._exchange(u0), first)
        finally:
            sys.setswitchinterval(interval)
        # _u still holds u0: sweep both halves here, one after the other
        out0 = sweep._sweep(*sweep._halves[0]).copy()
        want = out0 + sweep._sweep(*sweep._halves[1])
        assert np.array_equal(want.reshape(sweep.padded)[sweep.region], first)
        sweep.step(u0)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("offsets, n_shifts", [
        ([(-1,), (0,), (1,)], 1),
        ([(0, -2), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (0, 2)], 3),
    ], ids=["1d-one-shift", "2d-odd-shifts"])
    def test_sweep_with_an_empty_or_uneven_half(self, offsets, n_shifts):
        offsets = np.array(offsets)
        dim = offsets.shape[1]
        g = Grid(dim, 4.0, 41)
        weights = 3.0 - np.abs(offsets).sum(axis=1)
        s = Stencil(offsets, weights / weights.sum(), g.spacing, 2 * g.spacing, True, dim)
        m = Medium.power_decay(1.0, 2.0, dim=dim)
        mask = DomainMask(g, 3.0)
        op, rho = _Operator(g, s, mask), m.sample(g)
        u0 = np.random.default_rng(5).random(g.shape) * mask.indicator()
        sweep = _ExchangeStepper(op, rho, 0.7, nnz_cap=0)
        assert len(sweep.shifts) == n_shifts
        assert [len(h[0]) for h in sweep._halves] == [(n_shifts + 1) // 2, n_shifts // 2]
        want = _weighted_exchange_step(op, rho, 0.7, u0)
        got = sweep.step(u0)[mask.inside]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_helper_half_failure_is_raised(self, sweep_case, monkeypatch):
        g, s, m, mask, u0 = sweep_case
        sweep = _ExchangeStepper(_Operator(g, s, mask), m.sample(g), 0.7,
                               nnz_cap=0)
        real = _ExchangeStepper._sweep

        def failing(self, shifts, weights, out, *scratch):
            if out is self._halves[1][2]:
                raise FloatingPointError("second half failed")
            return real(self, shifts, weights, out, *scratch)

        monkeypatch.setattr(_ExchangeStepper, "_sweep", failing)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="second half failed"):
            sweep.step(u0)
        assert threading.active_count() == threads


_CPU_COUNT_RUN = """
import os, sys
import numpy as np
from isoflow import Field, Grid, Kernel, Medium, SolverConfig, discretize, run
from isoflow.solver import _ExchangeStepper
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert len(os.sched_getaffinity(0)) == 1
calls = []
exchange = _ExchangeStepper._exchange
_ExchangeStepper._exchange = lambda self, state: calls.append(1) or exchange(self, state)
g = Grid(2, 4.0, 41)
s = discretize(Kernel.gaussian(0.6, dim=2), g.spacing, trunc_tol=1e-8)
u0 = Field(g, np.random.default_rng(2).random(g.shape))
cfg = SolverConfig(scheme="exponential", dt=0.3, t_end=3.0, boundary="mask",
                   mask_radius=3.5, snapshot_every=10 ** 9)
final = run(u0, Medium.power_decay(1.0, 2.0, dim=2), s, cfg).final()
sys.stdout.write(f"{len(calls)} " + final.values.tobytes().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_masked_sweep_run_is_bitwise_independent_of_the_cpu_count():
    # the sweep's helper thread shares one CPU with the caller when pinned
    src = os.path.dirname(os.path.dirname(os.path.abspath(isoflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    finals = [subprocess.run([sys.executable, "-c", _CPU_COUNT_RUN, how], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout for how in ("pinned", "free")]
    assert finals[0].startswith("10 ")
    assert len(finals[0]) == 3 + 41 * 41 * 16
    assert finals[0] == finals[1]


_BLAS_THREADS_RUN = """
import sys
import numpy as np
from isoflow import Field, Grid, Kernel, Medium, SolverConfig, discretize, run
g = Grid(1, 50.0, 2001)
s = discretize(Kernel.gaussian(1.0), g.spacing)
u0 = Field(g, np.random.default_rng(1).random(g.shape))
cfg = SolverConfig(scheme="exponential", dt=0.25, t_end=50.0, boundary="mask",
                   mask_radius=50.0, snapshot_every=10 ** 9)
final = run(u0, Medium.power_decay(1.0, 2.0), s, cfg).final()
sys.stdout.write(final.values.tobytes().hex())
"""


def test_masked_run_is_bitwise_independent_of_blas_threads():
    # the 1-D band step is a BLAS call, and Tier-1 does not pin BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(isoflow.__file__)))
    finals = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_RUN], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        finals.append(out.stdout)
    assert len(finals[0]) == 2001 * 16
    assert finals[0] == finals[1]


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

    def test_run_samples_the_medium_once(self, monkeypatch):
        # the picard-oracle branch of run shares the run's rho with its records
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        calls = []
        sample = Medium.sample
        monkeypatch.setattr(Medium, "sample", lambda self, grid: calls.append(grid)
                            or sample(self, grid))
        cfg = SolverConfig(scheme="picard-oracle", dt=1e-2, t_end=0.2)
        traj = run(Field.constant(g, 1.0), m, s, cfg)
        assert len(traj.diagnostics) > 1
        assert len(calls) == 1

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
        assert picard_gap(u0, m, s, 1e-3)[0] <= 1e-3

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

    def test_storage_cap_counts_the_first_window_only(self):
        # a full window of 0.12 at dt = 1e-7 would store 1.2e6 slices of 41
        # nodes, above the 10^7-sample cap; t_end = 1e-6 needs 11 slices
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        final, report = picard_solve(Field.constant(g, 1.0), m, s, 1e-6, dt=1e-7)
        assert [w.t_length for w in report.windows] == [1e-6]
        with pytest.raises(SolverError, match="a window of 0.12 stores 49200041 samples"):
            picard_solve(Field.constant(g, 1.0), m, s, 1.0, dt=1e-7)

    def test_window_count_cap(self):
        # min rho = e^-50 on this grid, so a window is 7.7e-23 long, and
        # t_end = 1 would take 1.3e22 of them: refused before the first
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = Medium.gaussian_decay(1.0, 0.5)
        with pytest.raises(SolverError, match=r"takes 1.3e\+22 windows of 7.715e-23"):
            picard_solve(Field.constant(g, 1.0), m, s, 1.0)
        assert solver._picard_window(1.0, 1.0, 0.9 * 0.4e6, 1) == 0.4
        with pytest.raises(SolverError, match="cap of 10\\^6"):
            solver._picard_window(1.0, 1.0, 1.1 * 0.4e6, 1)

    def test_window_validation(self):
        # a subnormal min rho rounds the window 0.4 min rho to 0, and a
        # window of 0 would never advance
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        with pytest.raises(SolverError, match="window 0 must lie"):
            picard_solve(Field.zeros(g), Medium.constant(5e-324), s, 1.0)

    def test_no_node_cap(self):
        # 20,001 nodes: a dense J* would take 3.2 GB
        g = Grid(1, 5.0, 20001)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-6)
        m = Medium.constant(1.0)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        gap, report = picard_gap(u0, m, s, 1e-3, t_end=0.1)
        assert len(report.windows) == 1
        assert gap <= 1e-3

    @pytest.mark.parametrize("dt, t_end, tol", [
        (1e-3, math.inf, 1e-10), (1e-3, math.nan, 1e-10), (1e-3, -1.0, 1e-10),
        (-1e-3, 0.2, 1e-10), (math.nan, 0.2, 1e-10), (0.0, 0.2, 1e-10),
        (1e-3, 0.2, math.nan), (1e-3, 0.2, 0.0), (1e-3, 0.2, -1.0)],
        ids=["t_end-inf", "t_end-nan", "t_end-negative", "dt-negative", "dt-nan", "dt-zero",
             "tol-nan", "tol-zero", "tol-negative"])
    def test_numbers_checked_before_any_window(self, dt, t_end, tol):
        # unchecked, t_end=inf loops forever, t_end=nan or -1 returns u0 with no
        # window, a negative dt runs one slice per window, dt=nan or 0 raises a
        # non-SolverError, and tol <= 0 iterates 400 times, then blames the grid
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.gaussian(1.0), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0), 0.3)
        with pytest.raises(SolverError, match="dt|t_end|picard_tol"):
            picard_solve(Field.constant(g, 1.0), m, s, t_end, tol=tol, dt=dt)

    def test_2d_agrees_with_exponential_run(self):
        # 1,681 nodes: the dense J* would take 22.6 MB
        g = Grid(2, 4.0, 41)
        s = discretize(Kernel.gaussian(0.6, dim=2), g.spacing, trunc_tol=1e-8)
        m = floor(Medium.power_decay(1.0, 2.0, dim=2), 0.3)
        u0 = Field.from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        gaps = []
        for dt in (1e-3, 5e-4):
            gap, report = picard_gap(u0, m, s, dt, t_end=0.5)
            assert 0.0 < report.max_ratio() <= report.max_bound() < 1.0
            gaps.append(gap)
        assert gaps[1] < gaps[0] <= 1e-3


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
