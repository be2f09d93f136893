"""The benchmark workloads. Each is a closed loop: one caller, one operation
at a time, no threads or processes beyond the library's own defaults.

A workload is built once from the seed, then the runner calls ``setup()``
(the same work with t_end = 0) and ``execute()`` alternately, and hands each
execution to ``check()``. Everything is driven through public isoflow names,
looked up at call time so the tracer's wrappers are seen.
"""

import contextlib
import io
import os
import shutil
import statistics
import time
from dataclasses import replace

import numpy as np

import isoflow
from isoflow import cli, grids, kernels, scenario, solver, verify

DT = 0.25
REFERENCE_STEPS = 3
MASS_DRIFT_TOL = 1e-11
RANGE_TOL = 1e-12
REFERENCE_TOL = 1e-12
CONVOLVE_TOL = 1e-10


class Execution:
    """Outcome of one ``setup()`` or ``execute()``: a latency per operation,
    the indices of operations that failed, and data for ``check()``."""

    def __init__(self):
        self.latencies = []
        self.failed = set()
        self.messages = []
        self.data = {}

    def fail(self, op, message):
        self.failed.add(op)
        self.messages.append(message)


def seeded_bumps(grid, seed, reach, n_bumps=5):
    """Nonnegative sum of Gaussian bumps with seeded centres, widths and heights."""
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    vals = np.zeros(grid.shape)
    for _ in range(n_bumps):
        centre = rng.uniform(-0.6 * reach, 0.6 * reach, size=grid.dim)
        width = rng.uniform(1.0, 4.0)
        height = rng.uniform(0.5, 2.0)
        r2 = sum((np.asarray(x) - c) ** 2 for x, c in zip(coords, centre))
        vals = vals + height * np.exp(-0.5 * r2 / width ** 2)
    return isoflow.Field(grid, vals)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def median_time(fn, repeats):
    """Median seconds of ``repeats`` calls, and the last call's result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


class LongRun:
    """One ``solver.run`` of an exponential-scheme run on a fixed grid with a
    Gaussian stencil and rho = 1/(1 + |x|^2)."""

    def __init__(self, name, dim, half_extent, points, steps, record_every,
                 mask_radius=None, sigma=1.0):
        self.name = name
        self.sigma = sigma
        self.dim = dim
        self.half_extent = half_extent
        self.points = points
        self.steps = steps
        self.record_every = record_every
        self.mask_radius = mask_radius
        self.boundary = "zero-extend" if mask_radius is None else "mask"

    def build(self, seed, workdir):
        self.workdir = workdir
        self.grid = isoflow.Grid(self.dim, self.half_extent, self.points)
        self.kernel = isoflow.Kernel.gaussian(self.sigma, self.dim)
        self.stencil = kernels.discretize(self.kernel, self.grid.spacing)
        self.medium = isoflow.Medium.power_decay(1.0, 2.0, self.dim)
        reach = self.mask_radius if self.mask_radius is not None else self.half_extent
        self.u0 = seeded_bumps(self.grid, seed, reach)
        self.config = isoflow.SolverConfig(
            scheme="exponential", dt=DT, t_end=self.steps * DT,
            boundary=self.boundary, mask_radius=self.mask_radius,
            snapshot_every=self.record_every)
        self.config0 = replace(self.config, t_end=0.0)
        self.mask = (isoflow.DomainMask(self.grid, self.mask_radius)
                     if self.mask_radius is not None else None)
        self.records = self.steps // self.record_every + 1
        self.final = None

    def _run(self, config):
        return solver.run(self.u0, self.medium, self.stencil, config)

    def setup(self):
        ex = Execution()
        t0 = time.perf_counter()
        self._run(self.config0)
        ex.latencies.append(time.perf_counter() - t0)
        return ex

    def execute(self):
        ex = Execution()
        t0 = time.perf_counter()
        ex.data["traj"] = self._run(self.config)
        ex.latencies.append(time.perf_counter() - t0)
        return ex

    def stepping_seconds(self, latencies, setup_s):
        """Time of the run past set-up, records included."""
        return latencies[0] - setup_s

    def check(self, ex):
        traj = ex.data.pop("traj")
        if len(traj.diagnostics) != self.records:
            ex.fail(0, f"{len(traj.diagnostics)} records, expected {self.records}")
        u0 = self.u0.values
        if self.mask is not None:
            m = np.array([rec.mass for rec in traj.diagnostics])
            drift = float(np.max(np.abs(m - m[0])) / abs(m[0]))
            if drift > MASS_DRIFT_TOL:
                ex.fail(0, f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
            inside = self.mask.inside
            lo, hi = float(u0[inside].min()), float(u0[inside].max())
            tol = RANGE_TOL * max(abs(lo), abs(hi), 1.0)
            for t, u in traj.snapshots:
                v = u.values[inside]
                if v.min() < lo - tol or v.max() > hi + tol:
                    ex.fail(0, f"data range bound broken at t={t:g}")
                    break
        else:
            hi = float(u0.max())
            tol = RANGE_TOL * hi
            for t, u in traj.snapshots:
                if u.min() < -tol:
                    ex.fail(0, f"positivity broken at t={t:g}: min {u.min():.3e}")
                    break
                if u.max() > hi + tol:
                    ex.fail(0, f"upper bound broken at t={t:g}")
                    break
        final = traj.final().values
        if self.final is None:
            self.final = final
        elif not np.array_equal(final, self.final):
            ex.fail(0, "rerun is not bitwise-identical")

    def reference_check(self):
        """The run's first steps against iterated public ``step_exponential``."""
        cfg = replace(self.config, t_end=REFERENCE_STEPS * DT, snapshot_every=1)
        traj = self._run(cfg)
        u = self.u0
        for k in range(1, REFERENCE_STEPS + 1):
            u = solver.step_exponential(u, self.medium, self.stencil, DT,
                                        self.boundary, self.mask)
            err = rel_diff(traj.snapshots[k][1].values, u.values)
            if err > REFERENCE_TOL:
                return [f"step {k} differs from step_exponential by {err:.3e}"]
        return []

    def probe(self):
        """Standalone layer calls on this workload's grid and stencil."""
        metrics, failures = {}, []
        for _ in range(3):  # the stencil is built outside the executions
            kernels.discretize(self.kernel, self.grid.spacing)
        metrics["grids.convolve_fft_s"], fft = median_time(
            lambda: grids.convolve_fft(self.u0, self.stencil), 5)
        metrics["grids.convolve_direct_s"], direct = median_time(
            lambda: grids.convolve_direct(self.u0, self.stencil), 3)
        err = rel_diff(fft.values, direct.values)
        if err > CONVOLVE_TOL:
            failures.append(f"convolve_fft differs from convolve_direct by {err:.3e}")
        field = isoflow.Field(self.grid, self.final)
        for k in range(5):
            path = os.path.join(self.workdir, f"final-{k}.isof")  # fresh: see ShortRuns.setup
            grids.write_snapshot(path, field, self.config.t_end)
            back, t = grids.read_snapshot(path)
            if t != self.config.t_end or not np.array_equal(back.values, field.values):
                failures.append("snapshot read back differs from the one written")
                break
        return metrics, failures


def _cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


class ShortRuns:
    """Every registry scenario through ``isoflow run <cfg> --out <dir>``, with
    all snapshots written and read back, then ``isoflow verify all``.

    The seed sets the order of the scenario runs; the scenarios themselves
    are the registry's. ``isoflow sweep`` is left out: it sizes a process
    pool from the CPU count.
    """

    name = "short-runs"

    def build(self, seed, workdir):
        self.workdir = workdir
        self.count = 0
        reg = scenario.registry()
        names = sorted(reg)
        np.random.default_rng(seed).shuffle(names)
        cfg_dir = os.path.join(workdir, "cfg")
        os.makedirs(cfg_dir, exist_ok=True)
        self.jobs = []
        self.steps = 0
        for name in names:
            sc = reg[name]
            sc = replace(sc, outputs=replace(sc.outputs, snapshots="all"))
            cfg = os.path.join(cfg_dir, f"{name}.cfg")
            cfg0 = os.path.join(cfg_dir, f"{name}-setup.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(scenario.emit_scenario(sc))
            with open(cfg0, "w", encoding="utf-8") as fh:
                fh.write(scenario.emit_scenario(
                    replace(sc, solver=replace(sc.solver, t_end=0.0))))
            ref_dir = os.path.join(workdir, "ref", name)
            traj, csv_path = scenario.run_scenario(scenario.parse_scenario(cfg), ref_dir)
            with open(csv_path, "rb") as fh:
                csv = fh.read()
            snaps = [(t, u.values) for t, u in traj.snapshots]
            if sc.solver.scheme != "picard-oracle":
                self.steps += int(round(traj.times()[-1] / sc.solver.dt))
            self.jobs.append((name, cfg, cfg0, csv, snaps))

    def setup(self):
        # every invocation writes into a fresh directory: on ext4, truncating
        # a file written moments ago forces a synchronous flush
        ex = Execution()
        base = os.path.join(self.workdir, f"setup-{self.count}")
        self.count += 1
        for op, (name, _, cfg0, _, _) in enumerate(self.jobs):
            t0 = time.perf_counter()
            rc, out = _cli(["run", cfg0, "--out", os.path.join(base, name)])
            ex.latencies.append(time.perf_counter() - t0)
            if rc != 0:
                ex.fail(op, f"setup run {name} exited {rc}: {out.strip()}")
        shutil.rmtree(base)
        return ex

    def execute(self):
        ex = Execution()
        base = os.path.join(self.workdir, f"exec-{self.count}")
        self.count += 1
        ex.data["base"] = base
        for op, (name, cfg, _, _, _) in enumerate(self.jobs):
            out_dir = os.path.join(base, name)
            t0 = time.perf_counter()
            rc, out = _cli(["run", cfg, "--out", out_dir])
            ex.latencies.append(time.perf_counter() - t0)
            if rc != 0:
                ex.fail(op, f"run {name} exited {rc}: {out.strip()}")
                continue
            files = sorted(f for f in os.listdir(out_dir) if f.endswith(".isof"))
            ex.data[name] = [grids.read_snapshot(os.path.join(out_dir, f)) for f in files]
        t0 = time.perf_counter()
        rc, out = _cli(["verify", "all"])
        ex.latencies.append(time.perf_counter() - t0)
        if rc != 0:
            ex.fail(len(self.jobs), f"verify all exited {rc}:\n{out}")
        return ex

    def stepping_seconds(self, latencies, setup_s):
        """Time of the scenario runs that took ``self.steps``, without
        ``verify all``."""
        return sum(latencies[:len(self.jobs)])

    def check(self, ex):
        base = ex.data.pop("base")
        for op, (name, _, _, csv, snaps) in enumerate(self.jobs):
            if op in ex.failed:
                continue
            with open(os.path.join(base, name, "diagnostics.csv"), "rb") as fh:
                if fh.read() != csv:
                    ex.fail(op, f"{name}: CSV rerun is not bitwise-identical")
            back = ex.data.pop(name)
            if len(back) != len(snaps) or any(
                    t != t_ref or not np.array_equal(u.values, v_ref)
                    for (u, t), (t_ref, v_ref) in zip(back, snaps)):
                ex.fail(op, f"{name}: a snapshot read back differs from the one written")
        shutil.rmtree(base)

    def reference_check(self):
        """Nothing beyond ``build()``, whose reference runs every check uses."""
        return []

    def probe(self):
        """Standalone calls on each registry scenario's grid and stencil, the
        registry itself, the text round trip, and each verify suite alone."""
        metrics, failures = {}, []
        reg = scenario.registry()
        fft_total = direct_total = 0.0
        for sc in reg.values():
            grid = scenario.build_grid(sc.grid)
            stencil = scenario.build_stencil(sc.kernel, grid)
            u0 = scenario.build_initial(sc.initial, grid)
            t_fft, fft = median_time(lambda: grids.convolve_fft(u0, stencil), 3)
            t_direct, direct = median_time(lambda: grids.convolve_direct(u0, stencil), 3)
            fft_total += t_fft
            direct_total += t_direct
            err = rel_diff(fft.values, direct.values)
            if err > CONVOLVE_TOL:
                failures.append(f"{sc.name}: convolve_fft differs from convolve_direct "
                                f"by {err:.3e}")
        metrics["grids.convolve_fft_s"] = fft_total
        metrics["grids.convolve_direct_s"] = direct_total
        metrics["scenario.registry_s"], _ = median_time(scenario.registry, 5)

        def roundtrip():
            return [scenario.parse_scenario_text(scenario.emit_scenario(sc)) for sc in
                    reg.values()]
        metrics["scenario.roundtrip_s"], back = median_time(roundtrip, 3)
        for sc, sc_back in zip(reg.values(), back):
            if sc_back != sc:
                failures.append(f"{sc.name}: parse(emit(sc)) differs from sc")
        for suite in VERIFY_SUITES:
            metrics[f"verify.suite_s.{suite}"], results = median_time(
                lambda: verify.run_suite(suite), 1)
            failures.extend(f"verify {r.name} failed" for r in results if not r.passed)
        return metrics, failures


VERIFY_SUITES = [name for name in verify.suite_names() if name != "all"]

# name -> constructor of a fresh, unbuilt workload
WORKLOADS = {
    "mask-1d": lambda: LongRun("mask-1d", dim=1, half_extent=50.0, points=2001,
                               steps=2000, record_every=100, mask_radius=50.0),
    "fft-2d": lambda: LongRun("fft-2d", dim=2, half_extent=25.0, points=201,
                              steps=200, record_every=50),
    "mask-2d": lambda: LongRun("mask-2d", dim=2, half_extent=25.0, points=201,
                               steps=20, record_every=10, mask_radius=25.0),
    "short-runs": ShortRuns,
}
