"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
from scipy import integrate as sp_integrate

import isoflow as iso
from isoflow import (DomainMask, Field, Grid, Kernel, Medium,
                     SolverConfig, discretize, floor, monotone_approx_run,
                     quadratic_identity, run, steady_state_nullspace,
                     stencil_second_moment, trust_radius)
from isoflow.diagnostics import dissipation_budget
from isoflow.verify import (comparison_trials, f_rise, lyapunov_refinement,
                            mass_drift, picard_gap, supersolution_margins)


def report(num, name, passed, metric):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPT {num:2d} {name}: {status} ({metric})")
    assert passed, f"criterion {num} {name}: {metric}"


def bump(grid, width):
    return Field.from_function(grid, lambda *cs: np.exp(
        -0.5 * sum(np.asarray(c) ** 2 for c in cs) / width ** 2))


def test_criterion_1_conservation():
    # mask mode, power-decay medium, 1e4 integrating-factor steps at M=401
    grid = Grid(1, 20.0, 401)
    stencil = discretize(Kernel.gaussian(2.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    u0 = bump(grid, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.05, t_end=500.0,
                       boundary="mask", mask_radius=20.0, snapshot_every=100)
    start = time.perf_counter()
    traj = run(u0, medium, stencil, cfg)
    elapsed = time.perf_counter() - start
    drift = mass_drift(traj)
    assert len(traj.diagnostics) == 101  # 1e4 steps, every 100
    report(1, "conservation", drift <= 1e-11 and elapsed <= 10.0,
           f"mass drift {drift:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_isothermalization():
    grid = Grid(1, 50.0, 801)
    stencil = discretize(Kernel.gaussian(2.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    u0 = bump(grid, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.25, t_end=500.0,
                       boundary="mask", mask_radius=50.0, snapshot_every=80)
    traj = run(u0, medium, stencil, cfg)

    # independent oracle: continuum weighted mean by adaptive quadrature
    rho = lambda x: 1.0 / (1.0 + x * x)
    f0 = lambda x: math.exp(-0.5 * (x / 2.0) ** 2)
    num = sp_integrate.quad(lambda x: f0(x) * rho(x), -np.inf, np.inf)[0]
    den = sp_integrate.quad(rho, -np.inf, np.inf)[0]
    E_oracle = num / den
    _, tail = iso.weighted_mean(medium, u0)

    sel = grid.radius() <= 5.0
    dev = float(np.max(np.abs(traj.final().values[sel] - E_oracle)))
    tol = max(0.02 * abs(E_oracle), tail)
    dist = np.array([r.dist_L1rho for r in traj.diagnostics])
    half = len(dist) // 2
    monotone = float(np.max(np.diff(dist[half:]))) <= 1e-12 * dist[0]
    report(2, "isothermalization", dev <= tol and monotone,
           f"max|u(T)-E| {dev:.4f} <= {tol:.4f} on |x|<=5, "
           f"dist monotone last half {monotone}")


def test_criterion_3_flux_decay():
    kernel = Kernel.gaussian(1.0)
    medium = Medium.constant(1.0)
    origins = []
    for L, r_mask in ((15.0, 12.0), (20.0, 16.0), (25.0, 20.0)):
        M = int(round(2 * L / 0.1)) + 1
        grid = Grid(1, L, M)
        stencil = discretize(kernel, grid.spacing)
        cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=30.0,
                           boundary="mask", mask_radius=r_mask, snapshot_every=10)
        traj = run(bump(grid, 1.0), medium, stencil, cfg)
        u_orig = np.array([r.u_at_origin for r in traj.diagnostics])
        assert np.all(np.diff(u_orig) < 0), "u(0, t) must decrease"
        assert trust_radius(grid, stencil, medium, 30.0) > 0.0
        origins.append(u_orig)
    decayed = origins[-1][-1] <= 0.2 * origins[-1][0]
    downward = all(b[-1] <= a[-1] + 1e-9
                   for a, b in zip(origins[:-1], origins[1:]))
    report(3, "flux-decay", decayed and downward,
           f"u(0,T)/u(0,0) {origins[-1][-1] / origins[-1][0]:.3f} <= 0.2, "
           f"domain refinement moves it down ({origins[0][-1]:.6f} -> "
           f"{origins[-1][-1]:.6f})")


def test_criterion_4_lyapunov():
    grid = Grid(1, 20.0, 201)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    u0 = bump(grid, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=48.0,
                       boundary="mask", mask_radius=20.0, snapshot_every=40,
                       floor_alpha=0.8)

    # dt = 0.1, 0.05, 0.025
    levels = lyapunov_refinement(u0, medium, stencil, cfg, levels=3)
    resid_decay, resid_energy = [], []
    for _, traj, rep in levels:
        rise, F0 = f_rise(traj)
        assert rise <= 1e-12 * F0, "F must be nonincreasing"
        resid_decay.append(rep.max_resid_decay)
        resid_energy.append(rep.max_resid_energy)
    dts = [level_cfg.dt for level_cfg, _, _ in levels]
    base_traj = levels[0][1]

    logdt = np.log(dts)
    order_d = float(np.polyfit(logdt, np.log(resid_decay), 1)[0])
    order_e = float(np.polyfit(logdt, np.log(resid_energy), 1)[0])

    F = np.array([r.lyapunov_F for r in base_traj.diagnostics])
    budget_ok = True
    for start in range(len(F) - 1):
        budget = dissipation_budget(base_traj, start=start)
        budget_ok = budget_ok and budget <= F[start] / 4.0 * 1.01
    report(4, "lyapunov",
           order_d >= 1.0 and order_e >= 1.0 and budget_ok,
           f"identity orders {order_d:.2f}/{order_e:.2f} >= 1, "
           f"budget <= F/4*1.01 at every window start {budget_ok}")


def test_criterion_5_comparison():
    grid = Grid(1, 10.0, 81)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.25, t_end=4.0,
                       boundary="mask", mask_radius=10.0, snapshot_every=1)
    worst, all_ok = comparison_trials(grid, medium, stencil, cfg, pairs=100, seed=42)
    report(5, "comparison", all_ok and worst <= 1e-12,
           f"100 ordered pairs, worst violation {worst:.2e} <= 1e-12, "
           f"range bounds held every node/step")


def test_criterion_6_quadratic_identity():
    # spread of (J*q - q) over interior nodes, then the h-refinement order of
    # the discrete second moment per analytic family
    grid = Grid(1, 10.0, 201)
    st = discretize(Kernel.uniform_ball(1.0), grid.spacing)
    rep = quadratic_identity(st, grid)
    spread_ok = rep.matches_moment and rep.spread_rel <= 1e-10

    hs = (0.1, 0.05, 0.025)
    trunc = 1e-14
    orders = {}
    for name, kern in (("gaussian", Kernel.gaussian(1.0)),
                       ("laplace", Kernel.laplace(1.0)),
                       ("uniform", Kernel.uniform_ball(1.0))):
        V = kern.second_moment()
        errs, floors = [], []
        for h in hs:
            s = discretize(kern, h, trunc_tol=trunc)
            errs.append(abs(stencil_second_moment(s) - V))
            # moment mass outside the cut is at most R^2 * trunc_tol; below
            # that the h-error is unmeasurable (midpoint quadrature of smooth
            # kernels converges beyond machine precision)
            floors.append(20.0 * (s.truncation_radius ** 2 + 1.0) * trunc
                          + 1e-13 * V)
        if all(e <= f for e, f in zip(errs, floors)):
            orders[name] = math.inf  # converged to the truncation floor
        else:
            slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            orders[name] = slope
    orders_ok = all(o >= 1.9 for o in orders.values())
    report(6, "quadratic-identity", spread_ok and orders_ok,
           f"spread {rep.spread_rel:.2e} <= 1e-10, moment orders "
           + ", ".join(f"{k}={v:.2f}" for k, v in orders.items()))


def test_criterion_7_supersolution():
    grid = Grid(1, 12.0, 241)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    margins = supersolution_margins(grid, stencil, (0.0, 1.0, 2.0))
    nonneg = all(at >= -1e-10 for at, _ in margins.values())
    negative = all(half < 0.0 for _, half in margins.values())
    report(7, "supersolution", nonneg and negative,
           "min residual at threshold "
           + ", ".join(f"g={g:g}:{at:.1e}" for g, (at, _) in margins.items())
           + "; half-threshold goes negative "
           + ", ".join(f"{half:.2f}" for _, half in margins.values()))


def test_criterion_8_steady_states():
    ok = True
    details = []
    for M in (21, 41, 81):
        grid = Grid(1, 4.0, M)
        st = discretize(Kernel.uniform_ball(max(0.5, 3 * grid.spacing)),
                        grid.spacing)
        rep = steady_state_nullspace(st, DomainMask(grid, 3.6))
        ok = ok and rep.dimension == 1 and rep.constant_residual <= 1e-10
        details.append(f"1d M={M}: dim {rep.dimension}")
    grid2 = Grid(2, 2.0, 21)
    st2 = discretize(Kernel.uniform_ball(0.5, dim=2), grid2.spacing)
    rep2 = steady_state_nullspace(st2, DomainMask(grid2, 1.8))
    ok = ok and rep2.dimension == 1 and rep2.constant_residual <= 1e-10
    details.append(f"2d M=21: dim {rep2.dimension}")

    grid = Grid(1, 4.0, 41)
    st = discretize(Kernel.uniform_ball(0.3), grid.spacing)
    split = steady_state_nullspace(st, DomainMask(grid, 3.6,
                                                  exclude_band=(1.2, 2.0)))
    ok = ok and split.matches_components and split.n_components == 3
    details.append(f"split: dim {split.dimension} = comps {split.n_components}")
    grid2b = Grid(2, 2.0, 21)
    st2b = discretize(Kernel.uniform_ball(0.25, dim=2), grid2b.spacing)
    split2 = steady_state_nullspace(st2b, DomainMask(grid2b, 1.8,
                                                     exclude_band=(0.8, 1.2)))
    ok = ok and split2.matches_components and split2.n_components == 2
    details.append(f"2d split: dim {split2.dimension} = comps {split2.n_components}")
    report(8, "steady-states", ok, "; ".join(details))


def test_criterion_9_picard_oracle():
    grid = Grid(1, 5.0, 41)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing, trunc_tol=1e-8)
    medium = floor(Medium.power_decay(1.0, 2.0), 0.3)
    u0 = bump(grid, 1.0 / math.sqrt(2.0))
    diffs = []
    worst_ratio, bound = 0.0, 0.0
    for dt in (1e-3, 5e-4):
        gap, rep = picard_gap(u0, medium, stencil, dt)
        diffs.append(gap)
        worst_ratio = max(worst_ratio, rep.max_ratio())
        bound = rep.max_bound()
    agree = diffs[0] <= 1e-3 and diffs[1] < diffs[0]
    contraction = 0.0 < worst_ratio <= bound < 1.0
    report(9, "picard-oracle", agree and contraction,
           f"max-norm gap {diffs[0]:.2e} -> {diffs[1]:.2e} (<= 1e-3, improving); "
           f"contraction {worst_ratio:.3f} <= {bound:.2f} < 1")


def test_criterion_10_unbounded_data():
    grid = Grid(1, 30.0, 601)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    radii = [10, 12, 14]

    # u0 outside L1(rho): rho * (1 + x^2) = 1, nonintegrable
    u0 = Field(grid, 1.0 + grid.radius() ** 2)
    trajs, rep = monotone_approx_run(u0, medium, stencil, radii,
                                     t_probe=200.0, dt=0.2, snapshot_every=50)
    monotone_ok = rep.max_violation <= 1e-12
    envelope_ok = rep.envelope_ok is True

    # c_n by independent quadrature, diverging
    rho = lambda x: 1.0 / (1.0 + x * x)
    den = sp_integrate.quad(rho, -np.inf, np.inf)[0]
    def c_of(n):
        num = sp_integrate.quad(lambda x: (1 + x * x) * rho(x), -n, n)[0]
        return num / den
    c_run = [c_of(n) for n in radii]
    c_far = [c_of(n) for n in (5, 50, 500)]
    diverging = all(a < b for a, b in zip(c_far, c_far[1:])) \
        and c_far[-1] > 50 * c_far[0]
    origins = [t.final().at_origin() for t in trajs]
    tracking = all(o >= 0.8 * c for o, c in zip(origins, c_run)) \
        and origins == sorted(origins)

    # u0 in L1(rho): the largest-n run isothermalizes within its tail budget
    u0_l1 = bump(grid, 1.0 / math.sqrt(2.0))
    trajs_l1, rep_l1 = monotone_approx_run(u0_l1, medium, stencil, radii,
                                           t_probe=600.0, dt=0.2,
                                           snapshot_every=150)
    dist = np.array([r.dist_L1rho for r in trajs_l1[-1].diagnostics])
    _, tail = iso.weighted_mean(medium, u0_l1)
    rho_box = iso.integrate(medium.field(grid))
    budget = tail * rho_box
    l1_ok = bool(np.all(np.diff(dist) < 0) and dist[-1] <= budget) \
        and rep_l1.max_violation <= 1e-12
    report(10, "unbounded-data",
           monotone_ok and envelope_ok and diverging and tracking and l1_ok,
           f"monotone viol {rep.max_violation:.1e} <= 1e-12; envelope held; "
           f"c_n diverges ({c_far[0]:.2f}->{c_far[-1]:.1f}); u_n(0,T) tracks "
           f"c_n ({', '.join(f'{o / c:.2f}' for o, c in zip(origins, c_run))}); "
           f"L1 case dist {dist[0]:.3f}->{dist[-1]:.4f} <= budget {budget:.4f}")


def test_criterion_11_fft_path():
    # equivalence over 50 random fields per family, then the speed gate
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for kern in (Kernel.gaussian(1.0), Kernel.laplace(0.4),
                 Kernel.uniform_ball(1.0)):
        grid = Grid(1, 5.0, 257)
        s = discretize(kern, grid.spacing, trunc_tol=1e-10)
        for _ in range(50):
            f = Field(grid, rng.standard_normal(grid.shape))
            d = iso.convolve_direct(f, s).values
            ff = iso.convolve_fft(f, s).values
            rel = float(np.max(np.abs(d - ff)) / max(np.max(np.abs(d)), 1e-300))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-10

    grid = Grid(1, 10.0, 2001)
    s = discretize(Kernel.gaussian(1.0), grid.spacing)
    f = Field(grid, rng.standard_normal(grid.shape))

    def best(fn, n):
        out = math.inf
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - t0)
        return out

    t_direct = best(lambda: iso.convolve_direct(f, s), 3)
    t_fft = best(lambda: iso.convolve_fft(f, s), 7)
    speedup = t_direct / t_fft
    report(11, "fft-path", ok and speedup >= 5.0,
           f"max rel diff {worst:.2e} <= 1e-10 over 150 fields; "
           f"speedup {speedup:.1f}x >= 5x at M=2001")
