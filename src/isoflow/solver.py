"""Time integration of rho u_t = J*u - u: explicit and integrating-factor
steps, the fixed-point oracle, and monotone approximation drivers."""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import diagnostics
from .grids import DomainMask, Field, _check_stencil_fits, _Operator, _pair_matrix
from .kernels import stencil_second_moment
from .media import classify, floor as floor_medium

_SCHEMES = ("euler", "exponential", "picard-oracle")
_BOUNDARIES = ("zero-extend", "mask")


class SolverError(RuntimeError):
    """Invalid solver configuration or a failed solve."""


class NumericalAbort(SolverError):
    """A step produced non-finite values."""

    def __init__(self, step_index):
        super().__init__(f"non-finite values detected at step {step_index}")
        self.step_index = step_index


@dataclass
class SolverConfig:
    scheme: str = "exponential"
    dt: float = 0.1
    t_end: float = 1.0
    boundary: str = "zero-extend"
    mask_radius: float | None = None
    snapshot_every: int = 1
    floor_alpha: float | None = None
    picard_tol: float = 1e-10

    def validate(self):
        if self.scheme not in _SCHEMES:
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.boundary not in _BOUNDARIES:
            raise SolverError(f"unknown boundary mode {self.boundary!r}")
        for name in ("dt", "t_end", "mask_radius", "floor_alpha", "picard_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SolverError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0 or self.t_end < 0:
            raise SolverError("dt must be positive and t_end nonnegative")
        if self.snapshot_every < 1:
            raise SolverError("snapshot_every must be at least 1")
        if self.boundary == "mask" and self.mask_radius is None:
            raise SolverError("mask boundary mode needs mask_radius")
        if self.scheme == "picard-oracle" and self.boundary == "mask":
            raise SolverError("picard-oracle supports only the zero-extend boundary")


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-snapshot diagnostics."""
    snapshots: list = dc_field(default_factory=list)
    diagnostics: list = dc_field(default_factory=list)
    picard_report: "PicardReport | None" = None   # set by the picard-oracle scheme

    def times(self):
        return np.array([t for t, _ in self.snapshots])

    def final(self):
        return self.snapshots[-1][1]

    def validate(self):
        ts = self.times()
        if np.any(np.diff(ts) <= 0):
            raise SolverError("trajectory times must be strictly increasing")


def stability_dt(medium, grid):
    """Largest explicit-Euler step: min over grid nodes of rho.

    The explicit update is a convex combination only when dt <= rho(x)
    everywhere; the integrating-factor scheme has no such restriction.
    """
    return float(np.min(medium.sample(grid)))


def _check_euler_dt(rho, dt):
    limit = float(rho.min())
    if dt > limit * (1 + 1e-12):
        raise SolverError(
            f"dt={dt:g} violates the explicit stability bound stability_dt={limit:g}")


# ---------------------------------------------------------------------------
# steppers: one per boundary mode, on the run's operator and sampled rho


def _effective_step(rho, kappa, dt):
    """Per-node integrating-factor step length rho(1 - exp(-kappa dt/rho))/kappa.

    Tends to dt as dt -> 0 and saturates at rho/kappa; always in (0, dt].
    """
    return rho * (-np.expm1(-kappa * dt / rho)) / kappa


class _ZeroExtendStepper:
    """FFT-backed fixed-dt stepper for the zero-extend boundary."""

    def __init__(self, op, rho, scheme, dt):
        self.op, self.rho, self.scheme, self.dt = op, rho, scheme, dt
        if scheme == "euler":
            _check_euler_dt(rho, dt)
        self.decay = np.exp(-dt / rho)

    def step(self, values):
        conv = self.op.convolve(values)
        if self.scheme == "euler":
            return values + self.dt * (conv - values) / self.rho
        return self.decay * values + (1.0 - self.decay) * conv


class _MaskedStepper:
    """Fixed-dt stepper for the masked (no-flux) boundary. Its state is the
    full grid array, zero off the mask, and every step keeps it so.

    ``rate()`` is (chi J*u - kappa u)/rho with the in-domain kernel mass
    kappa = chi J*chi, both by FFT; an Euler step is u + dt * rate(u). An
    exponential step adds the antisymmetric pair exchange
    sum_k w_k min(r(x), r(x-k)) (u(x-k) - u(x)) at the integrating-factor
    rate r = r_eff, which is no convolution; r is zero off the mask, which
    cuts every pair that leaves the domain. Mask nodes x stencil offsets
    within ``nnz_cap`` store that exchange as a CSR matrix: the run
    operator's pair matrix, numbered by grid node and built once per run,
    weighted by min(r) (one sparse matvec a step). Above the cap nothing per
    pair is stored and each step sweeps half the offsets as flat shifts of
    the grid (see _exchange).
    """

    def __init__(self, op, rho, scheme, dt, nnz_cap=20_000_000):
        grid, stencil, inside = op.grid, op.stencil, op.mask.inside
        self.op, self.rho, self.scheme, self.dt = op, rho, scheme, dt
        if scheme == "euler":
            _check_euler_dt(rho[inside], dt)
        # FFT rounding leaves about 1e-17 of the weight sum where the mass is 0
        if np.any(op.kappa[inside] <= 1e-12 * stencil.weight_sum()):
            raise SolverError("mask contains a node with zero in-domain kernel mass")
        self.matrix_mode = op.mask.n_nodes * len(stencil) <= nnz_cap
        if scheme == "euler":
            return
        r_eff = np.zeros(grid.shape)
        r_eff[inside] = _effective_step(rho[inside], op.kappa[inside], dt)
        if self.matrix_mode:
            P = op.pairs
            coo = P.tocoo(copy=False)
            r = r_eff.ravel()
            data = coo.data * np.minimum(r[coo.row], r[coo.col])
            # shares the index arrays of op.pairs: only the weights are per step size
            self.C = sparse.csr_matrix((data, P.indices, P.indptr), shape=P.shape)
            self.cdiag = np.asarray(self.C.sum(axis=1)).reshape(grid.shape)
            return
        # pad every row with halfwidths[-1] zeros: each offset is then one
        # flat shift, and a neighbour past the end of a row lands in padding
        self.padded = grid.shape[:-1] + (grid.shape[-1] + int(stencil.halfwidths[-1]),)
        self.region = tuple(slice(0, n) for n in grid.shape)
        shifts = stencil.offsets @ np.array([math.prod(self.padded[d + 1:])
                                             for d in range(grid.dim)])
        self.shifts, self.weights = shifts[shifts > 0], stencil.weights[shifts > 0]
        n = math.prod(self.padded)
        self.r_eff = np.zeros(n)
        self.r_eff.reshape(self.padded)[self.region] = r_eff
        # scratch for _exchange; _u stays zero in the padding
        self._u, self._out = np.zeros(n), np.empty(n)
        self._scratch = (np.empty(n), np.empty(n))

    def _exchange(self, state):
        """The pair exchange of the exponential step, swept offset by offset.

        Each +/- offset pair is visited once, its flux added at one end and
        subtracted at the other: the exchange is antisymmetric, so sum(rho u)
        is conserved to rounding.
        """
        u, out, r, (f_all, d_all) = self._u, self._out, self.r_eff, self._scratch
        u.reshape(self.padded)[self.region] = state
        out.fill(0.0)
        for s, w in zip(self.shifts, self.weights):
            m = u.size - s
            f, d = f_all[:m], d_all[:m]
            np.minimum(r[:m], r[s:], out=f)
            np.subtract(u[s:], u[:m], out=d)
            f *= d
            f *= w
            out[:m] += f
            out[s:] -= f
        return out.reshape(self.padded)[self.region]

    def step(self, state):
        if self.scheme == "euler":
            return state + self.dt * self.rate(state)
        if self.matrix_mode:
            flux = (self.C @ state.ravel()).reshape(state.shape) - self.cdiag * state
        else:
            flux = self._exchange(state)
        return state + flux / self.rho

    def rate(self, state):
        """Generator u_t = (J*u - u)/rho on the grid, zero off the mask."""
        op = self.op
        return (op.chi * op.convolve(state) - op.kappa * state) / self.rho


def _stepper(op, rho, scheme, dt, nnz_cap=20_000_000):
    if op.mask is None:
        return _ZeroExtendStepper(op, rho, scheme, dt)
    return _MaskedStepper(op, rho, scheme, dt, nnz_cap)


def _one_step(u, medium, stencil, scheme, dt, boundary, mask):
    """One step of the stepper for ``boundary``; a masked step takes the
    sweep path and drops the data outside the mask."""
    _check_stencil_fits(u, stencil)
    op = _Operator(u.grid, stencil, boundary, mask)
    stepper = _stepper(op, medium.sample(u.grid), scheme, dt, nnz_cap=0)
    return Field(u.grid, stepper.step(np.where(op.chi > 0, u.values, 0.0)), copy=False)


def step_euler(u, medium, stencil, dt, boundary="zero-extend", mask=None):
    """One forward-difference step of rho u_t = J*u - u.

    Requires dt within the stability bound min(rho); the masked form exchanges
    only between mask-interior nodes and conserves the rho-weighted mass.
    """
    return _one_step(u, medium, stencil, "euler", dt, boundary, mask)


def step_exponential(u, medium, stencil, dt, boundary="zero-extend", mask=None):
    """One integrating-factor step with the convolution frozen over the step.

    Zero-extend: u+ = e^(-dt/rho) u + (1 - e^(-dt/rho)) J*u, the exact flow of
    the frozen-convolution equation. Masked: the conservative pairwise form of
    the same update (see _MaskedStepper), which keeps the exact
    discrete conservation law at any dt. Both are positivity-preserving and
    bounded by the data range for renormalized stencils, with no dt
    restriction.
    """
    if dt <= 0:
        raise SolverError("dt must be positive")
    return _one_step(u, medium, stencil, "exponential", dt, boundary, mask)


@dataclass
class Probes:
    """What the per-snapshot diagnostics measure."""
    lp_p: float = 2.0
    lp_radius: float | None = None
    dist_target: str = "auto"   # auto | e_rho | zero


def _resolve_target(medium, u0, weights, masked, probes):
    """Constant the distance columns compare against: the rho-weighted mean of
    the initial data when the medium is integrable or the run is masked (the
    conserved ratio of the masked dynamics), zero otherwise."""
    if probes.dist_target == "zero":
        return 0.0
    integrable = classify(medium).integrable is True
    if probes.dist_target == "e_rho" and not integrable:
        raise SolverError("E_rho undefined: the medium is not integrable")
    if masked or integrable:
        return float(np.sum(weights * u0.values) / float(np.sum(weights)))
    return 0.0


def _recorder(traj, u0, medium, rho, op, probes):
    """Callback ``record(t, u)`` that appends the snapshot and its diagnostics
    to ``traj``. The rho weights and the distance target are computed once,
    here, and every record reuses the run's sampled ``rho`` and operator."""
    weights = diagnostics._rho_weights(op.grid, rho, op.mask)
    target = _resolve_target(medium, u0, weights, op.mask is not None, probes)

    def record(t, u):
        traj.snapshots.append((t, u))
        traj.diagnostics.append(diagnostics.compute_record(
            t, u, weights, op, target=target, lp_p=probes.lp_p,
            lp_radius=probes.lp_radius))
    return record


def run(u0, medium, stencil, config, probes=None):
    """Advance u0 to t_end, recording diagnostics every snapshot_every steps.

    Deterministic for identical inputs. The masked initial state is the data
    zeroed off the mask. NaN production aborts with the offending step.
    The operator and rho are built once, for every step and every record.
    """
    config.validate()
    probes = probes or Probes()
    grid = u0.grid
    _check_stencil_fits(u0, stencil)
    medium_eff = medium
    if config.floor_alpha is not None:
        medium_eff = floor_medium(medium, config.floor_alpha)

    if config.scheme == "picard-oracle":
        return _picard_run(u0, medium_eff, stencil, config, probes)

    mask = DomainMask(grid, config.mask_radius) if config.boundary == "mask" else None
    op = _Operator(grid, stencil, config.boundary, mask)
    rho = medium_eff.sample(grid)
    stepper = _stepper(op, rho, config.scheme, config.dt)
    state = np.where(op.chi > 0, u0.values, 0.0)

    # whole steps of dt, then one shorter step that ends at t_end exactly
    n_steps = int(round(config.t_end / config.dt))
    remainder = 0.0
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n_steps = int(config.t_end // config.dt)
        remainder = config.t_end - n_steps * config.dt

    traj = Trajectory()
    record = _recorder(traj, u0, medium_eff, rho, op, probes)
    last = n_steps + (remainder > 0)
    for k in range(last + 1):
        if k > n_steps:
            stepper = _stepper(op, rho, config.scheme, remainder)
        if k > 0:
            state = stepper.step(state)
            if not np.all(np.isfinite(state)):
                raise NumericalAbort(k)
        if k % config.snapshot_every == 0 or k == last:
            record(config.t_end if k == last else k * config.dt,
                   Field(grid, state, copy=True))
    traj.validate()
    return traj


# ---------------------------------------------------------------------------
# fixed-point oracle


@dataclass
class PicardWindow:
    t_start: float
    t_length: float
    iterations: int
    max_ratio: float
    contraction_bound: float


@dataclass
class PicardReport:
    windows: list

    def max_ratio(self):
        return max((w.max_ratio for w in self.windows if w.max_ratio > 0), default=0.0)

    def max_bound(self):
        return max(w.contraction_bound for w in self.windows)


def picard_solve(u0, medium, stencil, t_end, tol=1e-10, dt=1e-3, window=None,
                 max_iter=400, collect=None):
    """Solve by iterating the integral fixed-point map on short time windows.

    On each window [0, t0] with t0 below half the medium minimum, the map
    w -> w0 + (1/rho) * cumulative-sum of (J*w - w) (left-endpoint rule) is a
    contraction; windows are concatenated until t_end. The medium must be
    bounded away from zero (pass a floored medium). Returns the final field;
    ``collect`` receives (t, Field) at window ends when given.
    """
    grid = u0.grid
    _check_stencil_fits(u0, stencil)
    rho = medium.sample(grid).ravel()
    rho0 = float(rho.min())
    t0 = window if window is not None else 0.4 * rho0
    if not 0 < t0 < 0.5 * rho0:
        raise SolverError(f"window {t0:g} must lie in (0, rho_min/2) = (0, {0.5 * rho0:g})")
    n = grid.n_nodes
    if n > 10_000:
        raise SolverError("fixed-point oracle is capped at 10^4 nodes")
    n_samples_cap = 10_000_000
    W = _pair_matrix(stencil, np.arange(n).reshape(grid.shape), n, self_pairs=True).toarray()
    hN = grid.spacing ** grid.dim

    def norm_w(arr):
        # max over time slices of the discrete L1 norm
        return float(np.max(hN * np.sum(np.abs(arr), axis=1)))

    state = u0.values.ravel().copy()
    t = 0.0
    report = PicardReport(windows=[])
    while t < t_end - 1e-12:
        tau = min(t0, t_end - t)
        nsteps = max(1, int(math.ceil(tau / dt - 1e-9)))
        if (nsteps + 1) * state.size > n_samples_cap:
            raise SolverError("fixed-point oracle storage cap exceeded")
        dtw = tau / nsteps
        w = np.tile(state, (nsteps + 1, 1))
        prev_diff = None
        max_ratio = 0.0
        iterations = 0
        for it in range(max_iter):
            G = w[:-1] @ W.T - w[:-1]
            incr = np.cumsum(G, axis=0) * dtw
            w_new = np.empty_like(w)
            w_new[0] = state
            w_new[1:] = state + incr / rho
            diff = norm_w(w_new - w)
            w = w_new
            iterations = it + 1
            if prev_diff is not None and prev_diff > 100.0 * tol and diff > 0:
                max_ratio = max(max_ratio, diff / prev_diff)
            if diff < tol:
                break
            prev_diff = diff
        else:
            raise SolverError(
                f"fixed-point iteration did not reach tol={tol:g} in {max_iter} "
                "iterations; tol is likely below the discretization floor")
        report.windows.append(PicardWindow(t, tau, iterations, max_ratio,
                                           2.0 * t0 / rho0))
        state = w[-1].copy()
        t += tau
        if collect is not None:
            collect(t, Field(grid, state.reshape(grid.shape), copy=True))
    return Field(grid, state.reshape(grid.shape), copy=True), report


def _picard_run(u0, medium, stencil, config, probes):
    """Trajectory wrapper around picard_solve (snapshots at window ends)."""
    traj = Trajectory()
    op = _Operator(u0.grid, stencil, "zero-extend", None)
    record = _recorder(traj, u0, medium, medium.sample(u0.grid), op, probes)
    record(0.0, u0.copy())
    _, report = picard_solve(u0, medium, stencil, config.t_end,
                             tol=config.picard_tol, dt=config.dt, collect=record)
    traj.picard_report = report
    traj.validate()
    return traj


# ---------------------------------------------------------------------------
# monotone approximation driver


@dataclass
class MonotoneReport:
    radii: list
    alphas: list
    max_violation: float
    envelope_ok: bool | None
    envelope_margin: float | None


def monotone_approx_run(u0, medium, stencil, n_list, t_probe, dt=0.1,
                        snapshot_every=10, alphas=None, growth_bound=None):
    """Run the truncated-data, floored-medium approximations for each n.

    For radius n the initial data is u0 restricted to |x| <= n and the medium
    is floored at alpha_n (default rho(0) * 2^-n). Returns the trajectories
    plus a report asserting that the runs are pointwise nondecreasing in n at
    every recorded time, and (when the medium admits a quadratic-growth
    envelope) that each run stays below A e^(lambda t)(1 + |x|^2).
    """
    if list(n_list) != sorted(n_list) or len(n_list) < 2:
        raise SolverError("n_list must be increasing with at least two entries")
    grid = u0.grid
    r = grid.radius()
    trajectories = []
    radii, alpha_used = [], []
    from .media import default_alpha
    for i, n in enumerate(n_list):
        alpha = alphas[i] if alphas is not None else default_alpha(medium, n)
        chi = (r <= n * (1 + 1e-12)).astype(float)
        u0_n = Field(grid, u0.values * chi, copy=False)
        cfg = SolverConfig(scheme="exponential", dt=dt, t_end=t_probe,
                           boundary="zero-extend", snapshot_every=snapshot_every,
                           floor_alpha=alpha)
        trajectories.append(run(u0_n, medium, stencil, cfg))
        radii.append(float(n))
        alpha_used.append(float(alpha))

    max_violation = 0.0
    for lo, hi in zip(trajectories[:-1], trajectories[1:]):
        for (_, ulo), (_, uhi) in zip(lo.snapshots, hi.snapshots):
            gap = float(np.max(ulo.values - uhi.values))
            max_violation = max(max_violation, gap)

    envelope_ok = None
    envelope_margin = None
    cls = classify(medium)
    if cls.decay_floor is not None:
        from .media import quadratic_growth_constant
        eta2 = quadratic_growth_constant(medium)
        lam = stencil_second_moment(stencil) / eta2
        quad = 1.0 + r * r
        A = growth_bound if growth_bound is not None else float(
            np.max(u0.values / quad))
        worst = -math.inf
        for traj in trajectories:
            for t, u in traj.snapshots:
                bound = A * math.exp(lam * t) * quad
                worst = max(worst, float(np.max(u.values - bound)))
        envelope_ok = worst <= 1e-9 * A
        envelope_margin = worst
    return trajectories, MonotoneReport(radii, alpha_used, max_violation,
                                        envelope_ok, envelope_margin)


def trust_radius(grid, stencil, medium, t):
    """Radius inside which zero-extension has not yet polluted the solution.

    Desk-scale estimate: the pollution front starts one stencil radius inside
    the box and advances diffusively at the local rate, so the margin is
    sqrt(V t / rho) with rho evaluated near the current front (three
    fixed-point refinements, clamped at zero).
    """
    L = grid.half_extent
    Rs = stencil.truncation_radius
    V = stencil_second_moment(stencil)
    x = max(0.0, L - Rs)
    axis = np.abs(grid.axis())
    rho_axis = medium.rho_of_radius(axis)
    for _ in range(3):
        sel = axis <= max(x, grid.spacing)
        rho_ref = float(rho_axis[sel].min()) if np.any(sel) else float(rho_axis.min())
        x = max(0.0, L - Rs - math.sqrt(V * t / rho_ref))
    return x
