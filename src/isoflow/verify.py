"""Executable structural checks: comparison ordering, quadratic barriers, the
second-moment identity, constancy of steady states. Each claim is measured by
one function here, which the suites, the acceptance criteria and the CLI call."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csgraph

from .diagnostics import lyapunov_identity_check
from .grids import DomainMask, Field, Grid, convolve_direct, masked_exchange_matrix
from .kernels import Kernel, discretize, stencil_second_moment
from .media import (Medium, MediumError, classify, floor as floor_medium,
                    quadratic_growth_constant)
from .solver import SolverConfig, picard_solve, run


@dataclass
class ComparisonReport:
    """Outcome of evolving an ordered pair under identical configuration."""
    max_violation: float
    scale: float
    ordered: bool
    bounds_ok: bool


def comparison_harness(u0_sub, u0_super, medium, stencil, config):
    """Run both data sets and check sub <= super at every node and snapshot.

    Also checks the range bound min(u0) <= u <= max(u0) for each run (exact in
    mask mode; zero-extend keeps only the one-sided bounds for nonnegative
    data, so the range check is applied in mask mode only).
    """
    if np.any(u0_sub.values > u0_super.values):
        raise ValueError("comparison harness needs u0_sub <= u0_super pointwise")
    traj_sub = run(u0_sub, medium, stencil, config)
    traj_super = run(u0_super, medium, stencil, config)
    scale = max(abs(u0_super.max()), abs(u0_super.min()), 1e-300)
    worst = -math.inf
    for (_, lo), (_, hi) in zip(traj_sub.snapshots, traj_super.snapshots):
        worst = max(worst, float(np.max(lo.values - hi.values)))
    bounds_ok = True
    if config.boundary == "mask":
        for traj, u0 in ((traj_sub, u0_sub), (traj_super, u0_super)):
            lo, hi = u0.min(), u0.max()
            tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
            for _, u in traj.snapshots:
                if u.min() < lo - tol or u.max() > hi + tol:
                    bounds_ok = False
    ordered = worst <= 1e-12 * scale
    return ComparisonReport(max(worst, 0.0), scale, ordered, bounds_ok)


def supersolution_residual(amplitude, lam, medium, stencil, grid, t):
    """Residual rho * lam * U - (J*U - U) for U = A e^(lam t)(1 + |x|^2).

    The convolution is evaluated where the stencil is fully interior; outside
    that band the exact translation-invariant value of J*q - q for quadratic
    data (the discrete second moment) is substituted, which is what an
    unbounded grid would produce there.
    """
    cls = classify(medium)
    if cls.decay_floor is None:
        raise MediumError("supersolution residual needs a medium with a decay floor")
    r = grid.radius()
    quad = 1.0 + r * r
    U = Field(grid, amplitude * math.exp(lam * t) * quad, copy=False)
    conv = convolve_direct(U, stencil).values
    gap = conv - U.values
    vdisc = stencil_second_moment(stencil)
    interior = _interior_mask(grid, stencil)
    gap = np.where(interior, gap, amplitude * math.exp(lam * t) * vdisc)
    rho = medium.sample(grid)
    resid = rho * lam * U.values - gap
    return Field(grid, resid, copy=False)


def _interior_mask(grid, stencil):
    hw = stencil.halfwidths
    M = grid.points_per_axis
    idx = np.arange(M)
    ok_axis = [(idx >= hw[d]) & (idx <= M - 1 - hw[d]) for d in range(grid.dim)]
    if grid.dim == 1:
        return ok_axis[0]
    return ok_axis[0][:, None] & ok_axis[1][None, :]


@dataclass
class QuadraticIdentityReport:
    value_mean: float
    spread_rel: float
    second_moment: float
    matches_moment: bool
    n_interior: int


def quadratic_identity(stencil, grid):
    """Evaluate (J*q - q) for q = |x|^2 on stencil-interior nodes.

    The value must be independent of the node (the odd cross terms cancel by
    weight symmetry) and equal to the discrete second moment, both to 1e-10
    relative to that moment.
    """
    interior = _interior_mask(grid, stencil)
    n_int = int(np.count_nonzero(interior))
    if n_int == 0:
        raise ValueError("grid has no stencil-interior nodes")
    r = grid.radius()
    q = Field(grid, r * r, copy=False)
    gap = (convolve_direct(q, stencil).values - q.values)[interior]
    vdisc = stencil_second_moment(stencil)
    mean = float(gap.mean())
    spread = float(gap.max() - gap.min())
    scale = max(abs(vdisc), 1e-300)
    spread_rel = spread / scale
    matches = spread_rel <= 1e-10 and abs(mean - vdisc) <= 1e-10 * scale
    return QuadraticIdentityReport(mean, spread_rel, vdisc, matches, n_int)


@dataclass
class NullspaceReport:
    dimension: int
    n_components: int
    constant_residual: float
    matches_components: bool


def steady_state_nullspace(stencil, mask, node_cap=4000):
    """Materialize the masked exchange generator and inspect its nullspace.

    A[i, j] = w(x_i - x_j) off the diagonal, A[i, i] = -sum of the row, so
    A annihilates constants by construction. The numerical nullspace (the
    eigenvalues of magnitude at most 1e-10 times the largest) has a dimension
    that must equal the number of stencil-connected mask components, with the
    constant vector spanning it in the connected case.
    """
    n = mask.n_nodes
    if n > node_cap:
        raise ValueError(f"nullspace check is capped at {node_cap} nodes, got {n}")
    W = masked_exchange_matrix(stencil, mask)
    n_comp = int(csgraph.connected_components(W, directed=False)[0])
    A = W.toarray()
    np.fill_diagonal(A, -A.sum(axis=1))
    A = 0.5 * (A + A.T)
    eigvals, eigvecs = np.linalg.eigh(A)
    scale = float(np.max(np.abs(eigvals))) or 1.0
    null_idx = np.flatnonzero(np.abs(eigvals) <= 1e-10 * scale)
    dim = int(null_idx.size)
    const = np.ones(n) / math.sqrt(n)
    basis = eigvecs[:, null_idx]
    proj = basis @ (basis.T @ const)
    const_residual = float(np.linalg.norm(const - proj))
    return NullspaceReport(dim, n_comp, const_residual, dim == n_comp)


# ---------------------------------------------------------------------------
# named suites behind `isoflow verify`


@dataclass
class CheckResult:
    name: str
    passed: bool
    metric: float


def format_checks(results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"CHECK {r.name} {status} {r.metric:.3e}")
    return lines


def mass_drift(traj):
    """Largest relative change of the recorded rho-weighted mass from its start."""
    m = np.array([rec.mass for rec in traj.diagnostics])
    return float(np.max(np.abs(m - m[0])) / abs(m[0]))


def f_rise(traj):
    """(largest rise of the pair energy F between consecutive records, F_0)."""
    F = np.array([rec.lyapunov_F for rec in traj.diagnostics])
    return float(np.max(np.diff(F))), float(F[0])


def _suite_conservation():
    grid = Grid(1, 20.0, 201)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    u0 = Field.from_function(grid, lambda x: np.exp(-0.5 * x * x))
    cfg = SolverConfig(scheme="exponential", dt=0.05, t_end=100.0,
                       boundary="mask", mask_radius=20.0, snapshot_every=200)
    drift = mass_drift(run(u0, medium, stencil, cfg))
    return [CheckResult("conservation.mass_drift", drift <= 1e-11, drift)]


def lyapunov_refinement(u0, medium, stencil, config, probes=None, levels=3):
    """Run ``config`` at dt / 2^level for each level and check the decay
    identities of each run against the rho and mask it stepped with.

    Returns one (config, trajectory, IdentityReport) triple per level.
    """
    out = []
    for level in range(levels):
        cfg = replace(config, dt=config.dt / 2 ** level)
        traj = run(u0, medium, stencil, cfg, probes)
        out.append((cfg, traj, lyapunov_identity_check(traj)))
    return out


def refinement_verdict(levels):
    """(worst identity residual per lyapunov_refinement level, whether it falls)."""
    worst = [max(rep.max_resid_decay, rep.max_resid_energy) for _, _, rep in levels]
    return worst, all(b < a for a, b in zip(worst, worst[1:]))


def _suite_lyapunov():
    grid = Grid(1, 20.0, 201)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    u0 = Field.from_function(grid, lambda x: np.exp(-0.5 * x * x))
    cfg = SolverConfig(scheme="exponential", dt=0.1, t_end=24.0,
                       boundary="mask", mask_radius=20.0, snapshot_every=10,
                       floor_alpha=0.5)
    levels = lyapunov_refinement(u0, medium, stencil, cfg, levels=2)
    results = []
    for level_cfg, traj, _ in levels:
        rise, F0 = f_rise(traj)
        results.append(CheckResult(f"lyapunov.monotone_dt={level_cfg.dt:g}",
                                   rise <= 1e-12 * F0, rise))
    worst, falls = refinement_verdict(levels)
    results.append(CheckResult("lyapunov.residual_refines", falls, worst[1] / worst[0]))
    return results


def comparison_trials(grid, medium, stencil, config, pairs, seed):
    """comparison_harness on ``pairs`` ordered pairs (a, a + b), a and b of
    |N(0, 1)| entries drawn from ``seed``: (worst violation over the pair's
    scale, whether every pair stayed ordered and in its range bounds)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(pairs):
        a = np.abs(rng.standard_normal(grid.shape))
        b = np.abs(rng.standard_normal(grid.shape))
        rep = comparison_harness(Field(grid, a), Field(grid, a + b),
                                 medium, stencil, config)
        worst = max(worst, rep.max_violation / rep.scale)
        ok = ok and rep.ordered and rep.bounds_ok
    return worst, ok


def _suite_comparison():
    grid = Grid(1, 10.0, 81)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    medium = Medium.power_decay(1.0, 2.0)
    cfg = SolverConfig(scheme="exponential", dt=0.2, t_end=4.0,
                       boundary="mask", mask_radius=10.0, snapshot_every=5)
    worst, ok = comparison_trials(grid, medium, stencil, cfg, pairs=20, seed=7)
    return [CheckResult("comparison.ordering", ok, worst)]


def _suite_quadratic():
    results = []
    grid1 = Grid(1, 10.0, 201)
    st1 = discretize(Kernel.uniform_ball(1.0), grid1.spacing)
    rep = quadratic_identity(st1, grid1)
    results.append(CheckResult("quadratic.1d_uniform", rep.matches_moment,
                               rep.spread_rel))
    grid2 = Grid(2, 8.0, 65)
    st2 = discretize(Kernel.gaussian(1.0, dim=2), grid2.spacing, trunc_tol=1e-8)
    rep2 = quadratic_identity(st2, grid2)
    results.append(CheckResult("quadratic.2d_gaussian", rep2.matches_moment,
                               rep2.spread_rel))
    return results


def supersolution_margins(grid, stencil, gammas):
    """{gamma: (least quadratic-supersolution residual at the threshold rate
    lam = V / eta^2 and t = 1, which should be >= 0; at lam / 2 and t = 0,
    which should be < 0)} in the medium Medium.power_decay(1, gamma)."""
    vdisc = stencil_second_moment(stencil)
    margins = {}
    for gamma in gammas:
        medium = Medium.power_decay(1.0, gamma)
        lam = vdisc / quadratic_growth_constant(medium)
        at = supersolution_residual(1.0, lam, medium, stencil, grid, 1.0)
        half = supersolution_residual(1.0, 0.5 * lam, medium, stencil, grid, 0.0)
        margins[gamma] = (at.min(), half.min())
    return margins


def _suite_supersolution():
    grid = Grid(1, 12.0, 241)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing)
    results = []
    for gamma, (at, half) in supersolution_margins(grid, stencil, (0.0, 1.0, 2.0)).items():
        results.append(CheckResult(f"supersolution.gamma={gamma:g}", at >= -1e-10, at))
        results.append(CheckResult(f"supersolution.sharpness_gamma={gamma:g}",
                                   half < 0.0, half))
    return results


def _suite_nullspace():
    results = []
    grid = Grid(1, 4.0, 41)
    stencil = discretize(Kernel.uniform_ball(0.3), grid.spacing)
    rep = steady_state_nullspace(stencil, DomainMask(grid, 3.6))
    results.append(CheckResult("nullspace.connected", rep.dimension == 1
                               and rep.constant_residual <= 1e-10,
                               rep.constant_residual))
    split = DomainMask(grid, 3.6, exclude_band=(1.2, 2.0))
    rep2 = steady_state_nullspace(stencil, split)
    results.append(CheckResult("nullspace.split", rep2.matches_components,
                               float(rep2.dimension)))
    return results


def picard_gap(u0, medium, stencil, dt, t_end=1.0):
    """(max-norm gap at ``t_end`` between the Picard solution with tol 1e-10
    and the zero-extend exponential run, both at step ``dt``, PicardReport)."""
    final, report = picard_solve(u0, medium, stencil, t_end, tol=1e-10, dt=dt)
    cfg = SolverConfig(scheme="exponential", dt=dt, t_end=t_end, snapshot_every=10 ** 9)
    ref = run(u0, medium, stencil, cfg).final()
    return float(np.max(np.abs(final.values - ref.values))), report


def _suite_picard():
    grid = Grid(1, 5.0, 41)
    stencil = discretize(Kernel.gaussian(1.0), grid.spacing, trunc_tol=1e-8)
    medium = floor_medium(Medium.power_decay(1.0, 2.0), 0.3)
    u0 = Field.from_function(grid, lambda x: np.exp(-x * x))
    diff, report = picard_gap(u0, medium, stencil, 5e-4)
    ratio_ok = report.max_ratio() <= report.max_bound() < 1.0
    return [CheckResult("picard.agreement", diff <= 1e-3, diff),
            CheckResult("picard.contraction", ratio_ok, report.max_ratio())]


_SUITES = {
    "conservation": _suite_conservation,
    "lyapunov": _suite_lyapunov,
    "comparison": _suite_comparison,
    "quadratic-identity": _suite_quadratic,
    "supersolution": _suite_supersolution,
    "nullspace": _suite_nullspace,
    "picard": _suite_picard,
}


def suite_names():
    return list(_SUITES) + ["all"]


def run_suite(name):
    """Run one named verification suite (or all of them)."""
    if name == "all":
        results = []
        for fn in _SUITES.values():
            results.extend(fn())
        return results
    if name not in _SUITES:
        raise KeyError(f"unknown verify suite {name!r}; known: {suite_names()}")
    return _SUITES[name]()
