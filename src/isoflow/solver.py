"""Time integration of rho u_t = J*u - u: explicit and integrating-factor
steps, the fixed-point oracle, and monotone approximation drivers."""

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diagnostics, grids
from .grids import DomainMask, Field, _domain, _Operator
from .kernels import _DOMAINS, stencil_second_moment
from .media import classify, default_alpha, floor as floor_medium, quadratic_growth_constant

_SCHEMES = ("euler", "exponential", "picard-oracle")
_BOUNDARIES = ("zero-extend", "mask")
_DIST_TARGETS = ("auto", "e_rho", "zero")
# SolverConfig's real fields -> domain in kernels._DOMAINS; DomainMask and
# media.floor check the rest of the two that may be None
_NUMBERS = {"dt": "positive", "t_end": "nonnegative", "mask_radius": "finite",
            "floor_alpha": "finite", "picard_tol": "positive"}
_OPTIONAL = ("mask_radius", "floor_alpha")


class SolverError(RuntimeError):
    """Invalid solver configuration or a failed solve."""


class NumericalAbort(SolverError):
    """A step produced non-finite values, in its state or in its record."""

    def __init__(self, step_index, what="values detected"):
        super().__init__(step_index, what)   # unpickling calls the class on args
        self.step_index = step_index

    def __str__(self):
        return "non-finite {1} at step {0}".format(*self.args)


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
        for name, domain in _NUMBERS.items():
            value = getattr(self, name)
            if not (value is None and name in _OPTIONAL
                    or isinstance(value, numbers.Real) and _DOMAINS[domain][0](value)):
                raise SolverError(f"solver needs {_DOMAINS[domain][1].format(name)}, "
                                  f"got {value!r}")
        if not math.isfinite(float(self.t_end) / float(self.dt)):
            raise SolverError(f"the step count t_end/dt = {self.t_end!r}/{self.dt!r} "
                              "overflows")
        if not (isinstance(self.snapshot_every, numbers.Integral) and self.snapshot_every >= 1):
            raise SolverError(f"snapshot_every must be an integer >= 1, "
                              f"got {self.snapshot_every!r}")
        if (self.boundary == "mask") != (self.mask_radius is not None):
            raise SolverError(f"mask_radius must be set exactly when the boundary is mask, "
                              f"got {self.mask_radius!r} under {self.boundary}")
        if self.scheme == "picard-oracle" and self.boundary == "mask":
            raise SolverError("picard-oracle supports only the zero-extend boundary")


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-snapshot diagnostics."""
    snapshots: list = dc_field(default_factory=list)
    diagnostics: list = dc_field(default_factory=list)
    picard_report: "PicardReport | None" = None   # set by the picard-oracle scheme
    rho: "np.ndarray | None" = None        # set by run: the sampled (floored) rho
    mask: "DomainMask | None" = None       # set by run: None under zero-extend

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


# ---------------------------------------------------------------------------
# steppers: one per operator, on the run's operator and sampled rho


def _effective_step(rho, kappa, dt):
    """Per-node integrating-factor step length rho(1 - exp(-kappa dt/rho))/kappa.

    Tends to dt as dt -> 0 and saturates at rho/kappa; always in (0, dt].
    """
    return rho * (-np.expm1(-kappa * dt / rho)) / kappa


class _FFTStepper:
    """Fixed-dt stepper for every step that is one J* convolution: u+ = gain J*u
    + decay u, by FFT (see _stepper for gain and decay)."""

    def __init__(self, op, gain, decay):
        self.op, self.gain, self.decay = op, gain, decay

    def step(self, values):
        out = self.gain * self.op.convolve(values)
        out += self.decay * values
        return out


class _ExchangeStepper:
    """Fixed-dt masked exponential step: u+ = u + (pair exchange)/rho. Its state
    is the full grid array, zero off the mask, and every step keeps it so.

    The exchange sum_k w_k min(r(x), r(x-k)) (u(x-k) - u(x)) at the
    integrating-factor rate r = r_eff is no convolution; r is zero off the
    mask, which cuts every pair that leaves the domain. ``path`` says how the
    exchange is applied. In 1-D, mask nodes x stencil offsets within
    ``nnz_cap`` (default grids.PAIR_CAP) store it as a symmetric band of
    half-width K, the stencil's, applied by one BLAS dsbmv a step
    (``"band"``). Otherwise, and always in 2-D, nothing per pair is stored
    and each step sweeps the positive offsets as flat shifts of the grid,
    split in two fixed halves on two threads (``"sweep"``, see _exchange).
    """

    def __init__(self, op, rho, dt, nnz_cap=None):
        grid, stencil, inside = op.grid, op.stencil, op.mask.inside
        self.rho = rho
        nnz_cap = grids.PAIR_CAP if nnz_cap is None else nnz_cap
        pairs = op.mask.n_nodes * len(stencil)
        self.path = "band" if grid.dim == 1 and pairs <= nnz_cap else "sweep"
        r_eff = np.zeros(grid.shape)
        r_eff[inside] = _effective_step(rho[inside], op.kappa[inside], dt)
        if self.path == "band":
            from scipy.linalg.blas import dsbmv   # here, so only a band run loads it
            # LAPACK upper band storage, in Fortran order so that f2py passes
            # it without a copy: row K - k holds the pairs (x, x + k), row K
            # the diagonal, minus the row sums. Those are taken by the same
            # product, so a constant state stays put to the BLAS's rounding.
            # Row i of the windows of [0]*K + r_eff is r_eff shifted right by
            # K - i, so the band is w_k min(r(x - k), r(x)), 0 left of k, filled
            # in place; offsets the stencil lacks, and the diagonal, weigh 0.
            K = int(stencil.halfwidths[0])
            band = np.empty((K + 1, grid.n_nodes), order="F")
            windows = sliding_window_view(np.concatenate((np.zeros(K), r_eff)), grid.n_nodes)
            np.minimum(windows, r_eff, out=band)
            k, w = stencil.offsets[:, 0], stencil.weights
            column = np.zeros((K + 1, 1))
            column[K - k[k > 0], 0] = w[k > 0]
            band *= column
            band[K] = -dsbmv(K, 1.0, band, np.ones(grid.n_nodes))
            self.K, self.band, self.dsbmv = K, band, dsbmv
            return
        # pad every row with halfwidths[-1] zeros: each offset is then one
        # flat shift, and a neighbour past the end of a row lands in padding
        self.padded = grid.shape[:-1] + (grid.shape[-1] + int(stencil.halfwidths[-1]),)
        self.region = tuple(slice(0, n) for n in grid.shape)
        shifts = grids._flat_shifts(stencil.offsets, self.padded)
        self.shifts, self.weights = shifts[shifts > 0], stencil.weights[shifts > 0]
        n = math.prod(self.padded)
        self.r_eff = np.zeros(n)
        self.r_eff.reshape(self.padded)[self.region] = r_eff
        # _u stays zero in the padding; per half of the shifts: out, 2 scratch
        self._u = np.zeros(n)
        self._halves = tuple((self.shifts[i::2], self.weights[i::2], np.empty(n),
                              np.empty(n), np.empty(n)) for i in (0, 1))

    def _sweep(self, shifts, weights, out, f_all, d_all):
        """Sum the fluxes of ``shifts`` into ``out``; reads only _u and r_eff."""
        u, r = self._u, self.r_eff
        out.fill(0.0)
        for s, w in zip(shifts, weights):
            m = u.size - s
            f, d = f_all[:m], d_all[:m]
            np.minimum(r[:m], r[s:], out=f)
            np.subtract(u[s:], u[:m], out=d)
            f *= d
            f *= w
            out[:m] += f
            out[s:] -= f
        return out

    def _exchange(self, state):
        """The pair exchange of the exponential step, swept offset by offset.

        Each +/- offset pair is visited once, its flux added at one end and
        subtracted at the other: the exchange is antisymmetric, so sum(rho u)
        is conserved to rounding. A helper thread sweeps the second of two
        fixed interleaved halves of the shifts while this one sweeps the
        first (ufuncs release the GIL). The result is always first + second,
        each summed in one order, so its bits depend on neither the CPU count
        nor thread timing; the helper is joined here and its error raised.
        """
        from concurrent.futures import ThreadPoolExecutor   # here: it loads logging
        self._u.reshape(self.padded)[self.region] = state
        with ThreadPoolExecutor(1) as helper:
            second = helper.submit(self._sweep, *self._halves[1])
            out = self._sweep(*self._halves[0])
            out += second.result()
        return out.reshape(self.padded)[self.region]

    def step(self, state):
        if self.path == "band":
            flux = self.dsbmv(self.K, 1.0, self.band, state)
        else:
            flux = self._exchange(state)
        return state + flux / self.rho


def _check_step(op, rho, scheme, dt):
    """Raise SolverError for a step of length ``dt`` that no stepper on ``op`` takes."""
    # FFT rounding leaves about 1e-17 of the weight sum where the mass is 0
    tiny = 1e-12 * op.stencil.weight_sum()
    if op.mask is not None and np.any(op.kappa[op.mask.inside] <= tiny):
        raise SolverError("mask contains a node with zero in-domain kernel mass")
    if scheme == "euler":
        limit = float(rho[op.chi > 0].min())
        if not 0 <= dt <= limit * (1 + 1e-12):
            raise SolverError(f"dt={dt:g} lies outside [0, stability_dt={limit:g}]")
    elif not 0 < dt < math.inf:
        raise SolverError(f"dt must be positive and finite, got {dt!r}")


def _stepper(op, rho, scheme, dt, nnz_cap=None):
    """The stepper of an Euler or exponential step of length ``dt``, checked
    first: the exchange for a masked exponential step, the FFT stepper for any other."""
    _check_step(op, rho, scheme, dt)
    masked = op.mask is not None
    if masked and scheme == "exponential":
        return _ExchangeStepper(op, rho, dt, nnz_cap)
    if masked:
        # u + dt (chi J*u - kappa u)/rho, kappa = chi J*chi the in-domain
        # kernel mass: off the mask gain 0 and decay 1 keep the state +0.0
        rate = dt / rho
        return _FFTStepper(op, op.chi * rate, 1.0 - op.kappa * rate)
    # zero-extend: decay e^(-dt/rho), or 1 - dt/rho for Euler
    decay = 1.0 - dt / rho if scheme == "euler" else np.exp(-dt / rho)
    return _FFTStepper(op, 1.0 - decay, decay)


def _one_step(u, medium, stencil, scheme, dt, boundary, mask):
    """One step of the stepper for ``boundary``; a masked exponential step
    takes the sweep path, and a masked step drops the data outside the mask."""
    op = _Operator(u.grid, stencil, _domain(u.grid, boundary, mask))
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
    the same update (see _ExchangeStepper), which keeps the exact
    discrete conservation law at any dt. Both are positivity-preserving and
    bounded by the data range for renormalized stencils, with no dt
    restriction.
    """
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
    if probes.dist_target not in _DIST_TARGETS:
        raise SolverError(f"dist_target must be {'|'.join(_DIST_TARGETS)}, got "
                          f"{probes.dist_target!r}")
    if probes.dist_target == "zero":
        return 0.0
    integrable = classify(medium).integrable is True
    if probes.dist_target == "e_rho" and not integrable:
        raise SolverError("E_rho undefined: dist_target e_rho needs an integrable medium")
    if masked or integrable:
        return float(np.sum(weights * u0.values) / float(np.sum(weights)))
    return 0.0


def _recorder(traj, u0, medium, rho, op, probes):
    """Callback ``record(t, u, step)`` that appends the snapshot and its
    diagnostics to ``traj``, or raises NumericalAbort at ``step`` naming the
    record's non-finite columns. The rho weights, the distance target and the
    L^p ball weights (radius ``probes.lp_radius``, default min(5, L)) are
    computed once, here, and every record reuses the run's sampled ``rho`` and
    operator."""
    grid = op.grid
    weights = diagnostics._rho_weights(grid, rho, op.mask)
    target = _resolve_target(medium, u0, weights, op.mask is not None, probes)
    lp_radius = probes.lp_radius
    if lp_radius is None:
        lp_radius = min(5.0, grid.half_extent)
    ball = grids._lp_ball(grid, probes.lp_p, lp_radius)

    def record(t, u, step):
        rec = diagnostics.compute_record(t, u, weights, op, ball, target=target,
                                         lp_p=probes.lp_p)
        bad = [name for name, value in vars(rec).items() if not math.isfinite(value)]
        if bad:
            raise NumericalAbort(step, f"{', '.join(bad)} in the record")
        traj.snapshots.append((t, u))
        traj.diagnostics.append(rec)
    return record


@np.errstate(over="ignore", invalid="ignore")
def run(u0, medium, stencil, config, probes=None):
    """Advance u0 to t_end, recording diagnostics every snapshot_every steps.

    Deterministic for identical inputs. The masked initial state is the data
    zeroed off the mask. A non-finite state, or a non-finite column of a
    record, raises NumericalAbort with the offending step.
    The operator and rho are built once, for every step and every record.
    Numpy's overflow warnings are off throughout: an overflow ends in the
    library's error or in a NumericalAbort, so a warning first is only noise.
    """
    config.validate()
    probes = probes or Probes()
    grid = u0.grid
    medium_eff = medium
    if config.floor_alpha is not None:
        medium_eff = floor_medium(medium, config.floor_alpha)

    mask = DomainMask(grid, config.mask_radius) if config.boundary == "mask" else None
    op = _Operator(grid, stencil, mask)
    rho = medium_eff.sample(grid)
    traj = Trajectory(rho=rho, mask=mask)
    record = _recorder(traj, u0, medium_eff, rho, op, probes)
    if config.scheme == "picard-oracle":
        # snapshots at the window ends, a window a step
        record(0.0, u0.copy(), 0)
        _, traj.picard_report = _picard(u0, op, rho, config.t_end, config.picard_tol,
                                        config.dt, collect=record)
        traj.validate()
        return traj

    _check_step(op, rho, config.scheme, config.dt)   # a zero-step run builds no stepper
    state = np.where(op.chi > 0, u0.values, 0.0)

    # whole steps of dt, then one shorter step that ends at t_end exactly
    n_steps = int(round(config.t_end / config.dt))
    remainder = 0.0
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n_steps = int(config.t_end // config.dt)
        remainder = config.t_end - n_steps * config.dt

    last = n_steps + (remainder > 0)
    for k in range(last + 1):
        if k == 1 or k > n_steps:
            dt = remainder if k > n_steps else config.dt
            stepper = _stepper(op, rho, config.scheme, dt)
        if k > 0:
            state = stepper.step(state)
            if not np.all(np.isfinite(state)):
                raise NumericalAbort(k)
        if k % config.snapshot_every == 0 or k == last:
            record(config.t_end if k == last else k * config.dt,
                   Field(grid, state, copy=True), k)
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


def picard_solve(u0, medium, stencil, t_end, tol=1e-10, dt=1e-3):
    """Solve by iterating the integral fixed-point map on short time windows.

    On each window [0, t0] with t0 = 0.4 min(rho), below half the medium
    minimum, the map w -> w0 + (1/rho) * cumulative-sum of (J*w - w)
    (left-endpoint rule) is a contraction; windows are concatenated until
    t_end, and a window that does not reach ``tol`` in 400 iterations raises
    SolverError. J* is a run's FFT convolution, batched over a window's time
    slices (10^7 samples at most), and t_end takes 10^6 windows at most.
    ``dt``, ``t_end`` and ``tol`` obey SolverConfig.validate, or SolverError.
    The medium must be bounded away from zero (pass a floored medium).
    Returns the final field and the PicardReport.
    """
    SolverConfig(scheme="picard-oracle", dt=dt, t_end=t_end, picard_tol=tol).validate()
    return _picard(u0, _Operator(u0.grid, stencil), medium.sample(u0.grid), t_end, tol, dt)


def _picard_window(rho_min, dt, t_end, n_nodes):
    """The Picard window length 0.4 ``rho_min``, checked to lie in (0, rho_min/2),
    to reach ``t_end`` in at most 10^6 windows and, for the first and longest
    window, to store at most 10^7 samples."""
    rho_min = float(rho_min)   # Python floats: an overflowing ratio is inf, unwarned
    t0 = 0.4 * rho_min   # 0 when min rho is subnormal: no window would advance
    if not 0 < t0 < 0.5 * rho_min:
        raise SolverError(f"window {t0:g} must lie in (0, rho_min/2) = (0, {0.5 * rho_min:g})")
    windows = float(t_end) / t0
    if windows > 1_000_000:
        raise SolverError(f"t_end={t_end:g} takes {windows:.3g} windows of {t0:g} "
                          f"(0.4 min rho), above the fixed-point oracle's cap of 10^6")
    longest = min(t0, t_end)
    n_samples = (max(1, math.ceil(longest / dt - 1e-9)) + 1) * n_nodes
    if n_samples > 10_000_000:
        raise SolverError(f"dt={dt:g} is too small for the fixed-point oracle: a window of "
                          f"{longest:g} stores {n_samples} samples, above its cap of 10^7")
    return t0


def _picard(u0, op, rho, t_end, tol, dt, collect=None):
    """picard_solve on the operator ``op`` (zero-extend) and the sampled ``rho``;
    ``collect(t, u, window)`` is called at the end of each window."""
    grid = u0.grid
    rho = rho.ravel()
    rho0 = float(rho.min())
    t0 = _picard_window(rho0, dt, t_end, grid.n_nodes)
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
        dtw = tau / nsteps
        w = np.tile(state, (nsteps + 1, 1))
        prev_diff = None
        max_ratio = 0.0
        iterations = 0
        for it in range(400):
            # J* on every time slice at once: one batched FFT convolution
            G = op.convolve(w[:-1].reshape((nsteps,) + grid.shape)).reshape(nsteps, -1) - w[:-1]
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
                f"fixed-point iteration did not reach tol={tol:g} in 400 "
                "iterations; tol is likely below the discretization floor")
        report.windows.append(PicardWindow(t, tau, iterations, max_ratio,
                                           2.0 * t0 / rho0))
        state = w[-1].copy()
        t += tau
        if collect is not None:
            collect(t, Field(grid, state.reshape(grid.shape), copy=True),
                    len(report.windows))
    return Field(grid, state.reshape(grid.shape), copy=True), report


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
                        snapshot_every=10, alphas=None):
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
    trajectories, alpha_used = [], []
    for i, n in enumerate(n_list):
        alpha = alphas[i] if alphas is not None else default_alpha(medium, n)
        chi = (r <= n * (1 + 1e-12)).astype(float)
        u0_n = Field(grid, u0.values * chi, copy=False)
        cfg = SolverConfig(scheme="exponential", dt=dt, t_end=t_probe,
                           boundary="zero-extend", snapshot_every=snapshot_every,
                           floor_alpha=alpha)
        trajectories.append(run(u0_n, medium, stencil, cfg))
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
        eta2 = quadratic_growth_constant(medium)
        lam = stencil_second_moment(stencil) / eta2
        quad = 1.0 + r * r
        A = float(np.max(u0.values / quad))
        worst = -math.inf
        for traj in trajectories:
            for t, u in traj.snapshots:
                bound = A * math.exp(lam * t) * quad
                worst = max(worst, float(np.max(u.values - bound)))
        envelope_ok = worst <= 1e-9 * A
        envelope_margin = worst
    return trajectories, MonotoneReport([float(n) for n in n_list], alpha_used, max_violation,
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
