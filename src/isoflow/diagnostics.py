"""Conserved quantities, the pair-difference energy functional and its decay
identities, and distance-to-isothermal metrics."""

from dataclasses import dataclass

import numpy as np

from .grids import GridError, _domain, _lp_local, _Operator, box_quad_weights


@dataclass
class DiagnosticsRecord:
    """Per-snapshot scalar diagnostics of a trajectory."""
    t: float
    mass: float
    lyapunov_F: float
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
    which is the discretely conserved functional of the masked dynamics. A
    mask built on another grid raises GridError.
    """
    if mask is None:
        return box_quad_weights(grid)
    return _domain(grid, "mask", mask).indicator()


def _rho_weights(grid, rho, mask=None):
    """Weights of every rho-weighted quadrature: quad_weights times rho.

    h^N stays outside each sum. The quadrature weights are powers of two, so
    (w rho) u equals w rho u bit for bit.
    """
    return quad_weights(grid, mask) * rho


def _rho_integral(weights, grid, values):
    """h^N sum of weights * values: the quadrature of rho * values."""
    return float(grid.spacing ** grid.dim * np.sum(weights * values))


def mass(u, medium, mask=None):
    """Weighted heat content: quadrature of rho * u."""
    return _rho_integral(_rho_weights(u.grid, medium.sample(u.grid), mask), u.grid, u.values)


def weighted_energy(u, medium, mask=None):
    """Quadrature of rho * u^2."""
    return _rho_integral(_rho_weights(u.grid, medium.sample(u.grid), mask), u.grid,
                         u.values ** 2)


def dist_l1_weighted(u, medium, target, mask=None):
    """L1(rho) distance of u to the constant ``target``."""
    return _rho_integral(_rho_weights(u.grid, medium.sample(u.grid), mask), u.grid,
                         np.abs(u.values - target))


def lyapunov_F(u, stencil, boundary="zero-extend", mask=None):
    """Pair-difference energy h^N sum_x sum_k w_k (u(x) - u(x - k h))^2.

    Under zero-extend, out-of-grid neighbors count as zero; under mask, pairs
    with either endpoint outside the mask are omitted. With chi the mask (all
    ones under zero-extend), kappa = chi J*chi and v = u minus its mean over
    chi, this is 2 h^N (<chi v^2, kappa> - <chi v, J*(chi v)>) plus, under
    zero-extend only, the out-of-grid kernel mass term h^N <u^2, sum w - J*1>.
    Nonnegative and quadratic under scaling; in mask mode translation
    invariant in u to rounding. Builds the operator for this one call; a
    run's records reuse the run's operator, so each costs one convolution.
    """
    return _pair_energy(u, _Operator(u.grid, stencil, _domain(u.grid, boundary, mask)))


def _pair_energy(u, op):
    """lyapunov_F on the operator ``op``: one convolution, of chi v."""
    grid, chi, kappa = u.grid, op.chi, op.kappa
    v = chi * (u.values - np.mean(u.values[chi > 0]))
    total = 2.0 * (np.sum(v * v * kappa) - np.sum(v * op.convolve(v)))
    if op.mask is None:
        total += np.sum(u.values ** 2 * (op.stencil.weight_sum() - kappa))
    return float(grid.spacing ** grid.dim * total)


def compute_record(t, u, weights, op, ball, *, target=0.0, lp_p=2.0):
    """Assemble the scalar diagnostics for one snapshot.

    ``weights`` are the run's rho-weighted quadrature weights
    (``_rho_weights``), ``op`` the run's operator (``grids._Operator``) and
    ``ball`` the ball weights of its local L^p probe (``grids._lp_ball``), so
    a record samples no medium, builds no FFT plan or ball, and evaluates F
    with one convolution.
    """
    grid = u.grid
    return DiagnosticsRecord(
        t=float(t),
        mass=_rho_integral(weights, grid, u.values),
        lyapunov_F=_pair_energy(u, op),
        weighted_energy=_rho_integral(weights, grid, u.values ** 2),
        sup_u=u.max(),
        inf_u=u.min(),
        dist_L1rho=_rho_integral(weights, grid, np.abs(u.values - target)),
        lp_local_p=float(lp_p),
        lp_local_val=_lp_local(u, target, lp_p, ball),
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


def _run_weights(traj):
    """Rho weights of the run that produced ``traj``, from its rho and mask."""
    if traj.rho is None:
        raise GridError("trajectory has no rho: it was not produced by solver.run")
    return _rho_weights(traj.snapshots[0][1].grid, traj.rho, traj.mask)


def lyapunov_identity_check(traj):
    """Check dF/dt = -4 int rho u_t^2 and F = -d/dt int rho u^2 on the
    snapshots of a run, reading F and int rho u^2 from its records."""
    weights = _run_weights(traj)
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise GridError("identity check needs at least 3 snapshots")
    times = np.array([t for t, _ in snaps])
    deltas = np.diff(times)
    if not np.allclose(deltas, deltas[0], rtol=1e-9, atol=0.0):
        raise GridError("identity check needs uniform snapshot spacing")
    delta = float(deltas[0])
    grid = snaps[0][1].grid
    F = np.array([rec.lyapunov_F for rec in traj.diagnostics])
    E2 = np.array([rec.weighted_energy for rec in traj.diagnostics])

    # rounding floors: once the state is constant to roundoff both sides of an
    # identity are pure noise and the residual is vacuous. F-type quantities
    # see roundoff at second order in the state (differences are squared),
    # the weighted energy at first order.
    u_scale = max(float(np.max(np.abs(u.values))) for _, u in snaps)
    vol = grid.spacing ** grid.dim * float(np.sum(quad_weights(grid, traj.mask)))
    rho_max = float(np.max(traj.rho))
    noise_d = 1e6 * vol * (1e-15 * u_scale) ** 2 * (1.0 + rho_max) / delta ** 2
    noise_e = 1e3 * vol * rho_max * u_scale ** 2 * 1e-16 / delta

    rd, re, ts = [], [], []
    for k in range(1, len(snaps) - 1):
        u_prev = snaps[k - 1][1].values
        u_next = snaps[k + 1][1].values
        u_t = (u_next - u_prev) / (2.0 * delta)
        diss = 4.0 * _rho_integral(weights, grid, u_t ** 2)
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


def dissipation_budget(traj, start=0):
    """Time quadrature of int rho u_t^2 from snapshot ``start``, an index in
    [0, len(traj.snapshots) - 1], to the end (0.0 from the last one).

    u_t is central-differenced from the snapshots (one-sided at the window
    ends). The decay identity bounds this by F(t_start)/4.
    """
    weights = _run_weights(traj)
    snaps = traj.snapshots
    if not isinstance(start, (int, np.integer)) or not 0 <= start < len(snaps):
        raise GridError(f"start must be an integer in [0, {len(snaps) - 1}] for a "
                        f"trajectory of {len(snaps)} snapshots, got {start!r}")
    if len(snaps) - start < 2:
        return 0.0
    times = np.array([t for t, _ in snaps])
    grid = snaps[0][1].grid

    def rate_sq(k):
        lo = max(start, k - 1)
        hi = min(len(snaps) - 1, k + 1)
        u_t = (snaps[hi][1].values - snaps[lo][1].values) / (times[hi] - times[lo])
        return _rho_integral(weights, grid, u_t ** 2)

    ks = range(start, len(snaps))
    vals = np.array([rate_sq(k) for k in ks])
    return float(np.trapezoid(vals, times[start:]))
