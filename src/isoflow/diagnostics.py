"""Conserved quantities, the pair-difference energy functional and its decay
identities, and distance-to-isothermal metrics."""

from dataclasses import dataclass

import numpy as np

from .grids import (GridError, _check_mask, _fft_convolve, _fft_plan, box_quad_weights,
                    lp_local_distance)


@dataclass
class DiagnosticsRecord:
    """Per-snapshot scalar diagnostics of a trajectory."""
    t: float
    mass: float
    lyapunov_F: float
    dissipation: float
    weighted_energy: float
    sup_u: float
    inf_u: float
    dist_L1rho: float
    lp_local_p: float
    lp_local_val: float
    u_at_origin: float


def quad_weights(grid, mask=None):
    """Quadrature weights used by the trajectory diagnostics.

    Box mode uses trapezoid endpoint half-weights (constants integrate
    exactly); mask mode uses uniform midpoint weights over the mask interior,
    which is the discretely conserved functional of the masked dynamics.
    """
    if mask is None:
        return box_quad_weights(grid)
    return mask.indicator()


def mass(u, medium, mask=None):
    """Weighted heat content: quadrature of rho * u."""
    grid = u.grid
    w = quad_weights(grid, mask)
    h = grid.spacing
    return float(h ** grid.dim * np.sum(w * medium.sample(grid) * u.values))


def weighted_energy(u, medium, mask=None):
    """Quadrature of rho * u^2."""
    grid = u.grid
    w = quad_weights(grid, mask)
    h = grid.spacing
    return float(h ** grid.dim * np.sum(w * medium.sample(grid) * u.values ** 2))


def dist_l1_weighted(u, medium, target, mask=None):
    """L1(rho) distance of u to the constant ``target``."""
    grid = u.grid
    w = quad_weights(grid, mask)
    h = grid.spacing
    return float(h ** grid.dim
                 * np.sum(w * medium.sample(grid) * np.abs(u.values - target)))


def lyapunov_F(u, stencil, boundary="zero-extend", mask=None):
    """Pair-difference energy h^N sum_x sum_k w_k (u(x) - u(x - k h))^2.

    Under zero-extend, out-of-grid neighbors count as zero; under mask, pairs
    with either endpoint outside the mask are omitted. With chi the mask (all
    ones under zero-extend), kappa = chi J*chi and v = u minus its mean over
    chi, this is 2 h^N (<chi v^2, kappa> - <chi v, J*(chi v)>) plus, under
    zero-extend only, the out-of-grid kernel mass term h^N <u^2, sum w - J*1>.
    Nonnegative and quadratic under scaling; in mask mode translation
    invariant in u to rounding.
    """
    grid = u.grid
    if boundary == "mask":
        _check_mask(mask, grid)
        chi = mask.indicator()
    elif boundary == "zero-extend":
        chi = np.ones(grid.shape)
    else:
        raise GridError(f"unknown boundary mode {boundary!r}")
    plan = _fft_plan(grid.shape, stencil)
    kappa = chi * _fft_convolve(chi, plan)
    v = chi * (u.values - np.mean(u.values[chi > 0]))
    total = 2.0 * (np.sum(v * v * kappa) - np.sum(v * _fft_convolve(v, plan)))
    if boundary == "zero-extend":
        total += np.sum(u.values ** 2 * (stencil.weight_sum() - kappa))
    return float(grid.spacing ** grid.dim * total)


def compute_record(t, u, medium, stencil, *, boundary="zero-extend", mask=None,
                   target=0.0, lp_p=2.0, lp_radius=None, u_t=None):
    """Assemble the scalar diagnostics for one snapshot.

    ``u_t`` (a raw array) feeds the dissipation column; the run loop passes
    the operator-based rate, while post-hoc identity checks difference the
    snapshots instead.
    """
    grid = u.grid
    w = quad_weights(grid, mask)
    h = grid.spacing
    rho = medium.sample(grid)
    if u_t is None:
        diss = 0.0
    else:
        diss = float(4.0 * h ** grid.dim * np.sum(w * rho * u_t ** 2))
    if lp_radius is None:
        lp_radius = min(5.0, grid.half_extent)
    return DiagnosticsRecord(
        t=float(t),
        mass=mass(u, medium, mask),
        lyapunov_F=lyapunov_F(u, stencil, boundary, mask),
        dissipation=diss,
        weighted_energy=weighted_energy(u, medium, mask),
        sup_u=u.max(),
        inf_u=u.min(),
        dist_L1rho=dist_l1_weighted(u, medium, target, mask),
        lp_local_p=float(lp_p),
        lp_local_val=lp_local_distance(u, target, lp_p, lp_radius),
        u_at_origin=u.at_origin(),
    )


@dataclass
class IdentityReport:
    """Residuals of the two decay identities along a trajectory.

    ``max_resid_decay``: relative residual of dF/dt against -4 * integral of
    rho u_t^2. ``max_resid_energy``: relative residual of F against
    -d/dt integral of rho u^2 (expanding the double sum with a unit-mass
    kernel gives F = 2 int u^2 - 2 int u (J*u), whose time derivative
    identity carries the factor 1). Time derivatives come from central
    differences of the snapshots, so the check exercises the integrator end
    to end.
    """
    max_resid_decay: float
    max_resid_energy: float
    resid_decay: np.ndarray
    resid_energy: np.ndarray
    times: np.ndarray


def lyapunov_identity_check(traj, medium, stencil, boundary="zero-extend", mask=None):
    """Check dF/dt = -4 int rho u_t^2 and F = -d/dt int rho u^2 on snapshots."""
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise GridError("identity check needs at least 3 snapshots")
    times = np.array([t for t, _ in snaps])
    deltas = np.diff(times)
    if not np.allclose(deltas, deltas[0], rtol=1e-9, atol=0.0):
        raise GridError("identity check needs uniform snapshot spacing")
    delta = float(deltas[0])
    grid = snaps[0][1].grid
    w = quad_weights(grid, mask)
    hN = grid.spacing ** grid.dim
    rho = medium.sample(grid)

    F = np.array([lyapunov_F(u, stencil, boundary, mask) for _, u in snaps])
    E2 = np.array([hN * np.sum(w * rho * u.values ** 2) for _, u in snaps])

    # rounding floors: once the state is constant to roundoff both sides of an
    # identity are pure noise and the residual is vacuous. F-type quantities
    # see roundoff at second order in the state (differences are squared),
    # the weighted energy at first order.
    u_scale = max(float(np.max(np.abs(u.values))) for _, u in snaps)
    vol = hN * float(np.sum(w))
    rho_max = float(np.max(rho))
    noise_d = 1e6 * vol * (1e-15 * u_scale) ** 2 * (1.0 + rho_max) / delta ** 2
    noise_e = 1e3 * vol * rho_max * u_scale ** 2 * 1e-16 / delta

    rd, re, ts = [], [], []
    for k in range(1, len(snaps) - 1):
        u_prev = snaps[k - 1][1].values
        u_next = snaps[k + 1][1].values
        u_t = (u_next - u_prev) / (2.0 * delta)
        diss = 4.0 * hN * np.sum(w * rho * u_t ** 2)
        dFdt = (F[k + 1] - F[k - 1]) / (2.0 * delta)
        dEdt = (E2[k + 1] - E2[k - 1]) / (2.0 * delta)
        scale_d = max(abs(dFdt), abs(diss))
        scale_e = max(abs(F[k]), abs(dEdt))
        rd.append(abs(dFdt + diss) / scale_d if scale_d > noise_d else 0.0)
        re.append(abs(F[k] + dEdt) / scale_e if scale_e > noise_e else 0.0)
        ts.append(times[k])
    rd = np.array(rd)
    re = np.array(re)
    return IdentityReport(float(rd.max()), float(re.max()), rd, re, np.array(ts))


def dissipation_budget(traj, medium, mask=None, start=0):
    """Time quadrature of int rho u_t^2 from snapshot ``start`` to the end.

    u_t is central-differenced from the snapshots (one-sided at the window
    ends). The decay identity bounds this by F(t_start)/4.
    """
    snaps = traj.snapshots
    if len(snaps) - start < 2:
        return 0.0
    times = np.array([t for t, _ in snaps])
    grid = snaps[0][1].grid
    w = quad_weights(grid, mask)
    hN = grid.spacing ** grid.dim
    rho = medium.sample(grid)

    def rate_sq(k):
        lo = max(start, k - 1)
        hi = min(len(snaps) - 1, k + 1)
        u_t = (snaps[hi][1].values - snaps[lo][1].values) / (times[hi] - times[lo])
        return hN * np.sum(w * rho * u_t ** 2)

    ks = range(start, len(snaps))
    vals = np.array([rate_sq(k) for k in ks])
    return float(np.trapezoid(vals, times[start:]))
