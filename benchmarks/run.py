"""isoflow benchmark: one workload per invocation, timed untraced or traced.

    python3 benchmarks/run.py --workload mask-1d --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times the workload for about ``--seconds`` and reports
the end-to-end metrics; with ``--trace 1`` it times half the budget
untraced, half with spans around public isoflow calls, and reports the
per-layer metrics and the tracing overhead. Every run checks the outputs;
the last line of stdout is one JSON object. See benchmarks/README.md.
"""

import os

# The Picard oracle's dense matmul goes through BLAS: pin its thread pools
# before numpy loads so every run uses one thread.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from functools import lru_cache  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_EXECS = 3


def import_isoflow():
    """Import isoflow from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import isoflow
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import isoflow from {SRC}: {exc}")
    if not os.path.abspath(isoflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: isoflow resolved to {isoflow.__file__}, not {SRC}")
    return isoflow


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Measurement:
    """Timings and failure counts of alternating setup()/execute() calls."""

    def __init__(self):
        self.setups = []
        self.execs = {}         # index -> (wall seconds, per-operation latencies)
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def account(self, ex):
        self.attempted += len(ex.latencies)
        self.failed += len(ex.failed)
        self.messages.extend(ex.messages)

    def crashed(self):
        self.check([traceback.format_exc()])

    def check(self, messages):
        """Count a correctness check as one operation."""
        self.attempted += 1
        self.failed += bool(messages)
        self.messages.extend(messages)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


def measure(workload, seconds, tracer=None, min_execs=MIN_EXECS):
    m = Measurement()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_execs or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.run = f"setup-{i}"
        try:
            ex = workload.setup()
            m.setups.append(sum(ex.latencies))
            m.account(ex)
        except Exception:
            m.crashed()
        if tracer is not None:
            tracer.run = f"exec-{i}"
        try:
            t0 = time.perf_counter()
            ex = workload.execute()
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.run = None
            workload.check(ex)
            m.execs[i] = (wall, ex.latencies)
            m.account(ex)
        except Exception:
            m.crashed()
        if tracer is not None:
            tracer.run = None
        i += 1
    return m


def end_to_end(workload, m):
    setup_s = median(m.setups)
    execs = m.execs.values()
    rates = [workload.steps / workload.stepping_seconds(lats, setup_s)
             for _, lats in execs]
    # Percentiles are taken over one execution's operations, then the median
    # over executions: short-runs mixes 8 kinds of invocation, and a median
    # pooled over all of them would fall between two kinds and jump.
    return {
        "wall_s": median([wall for wall, _ in execs]),
        "setup_s": setup_s,
        "steps_per_s": median(rates),
        "run_p50_s": median([median(lats) for _, lats in execs]),
        "run_p90_s": median([p90(lats) for _, lats in execs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced run


def install_tracer(tracer, iso):
    mods = [iso] + [importlib.import_module(f"isoflow.{name}") for name in (
        "kernels", "grids", "media", "solver", "diagnostics", "verify", "scenario", "cli")]

    @lru_cache(maxsize=None)
    def mask_nodes(grid, radius):
        return iso.DomainMask(grid, radius).n_nodes

    def run_counts(a, traj):
        cfg = a["config"]
        c = {"scheme": cfg.scheme, "steps": 0, "pairs": 0, "picard_iterations": 0}
        if cfg.scheme == "picard-oracle":
            c["picard_iterations"] = sum(w.iterations for w in traj.picard_report.windows)
        else:
            c["steps"] = int(round(traj.times()[-1] / cfg.dt))
            if cfg.boundary == "mask":
                c["pairs"] = mask_nodes(a["u0"].grid, cfg.mask_radius) * len(a["stencil"])
        return c

    def csr_counts(_, W):
        # bytes computed from the CSR arrays' sizes, not measured traffic
        return {"nnz": int(W.nnz),
                "bytes": int(W.data.nbytes + W.indices.nbytes + W.indptr.nbytes)}

    fn = tracer.patch_function
    fn(mods, "solver.run", iso.solver.run, run_counts)
    fn(mods, "diagnostics.compute_record", iso.diagnostics.compute_record)
    fn(mods, "diagnostics.lyapunov_F", iso.diagnostics.lyapunov_F)
    tracer.patch_method(iso.media.Medium, "sample", "media.Medium.sample")
    fn(mods, "grids.masked_exchange_matrix", iso.grids.masked_exchange_matrix, csr_counts)
    fn(mods, "kernels.discretize", iso.kernels.discretize,
       lambda _, st: {"offsets": len(st)})
    fn(mods, "grids.write_snapshot", iso.grids.write_snapshot,
       lambda a, _: {"bytes": os.path.getsize(a["path"])})
    fn(mods, "grids.read_snapshot", iso.grids.read_snapshot)
    fn(mods, "scenario.run_scenario", iso.scenario.run_scenario,
       lambda _, res: {"csv_bytes": os.path.getsize(res[1])})
    fn(mods, "verify.run_suite", iso.verify.run_suite,
       lambda _, res: {"checks": len(res), "failed": sum(not r.passed for r in res)})
    fn(mods, "cli.main", iso.cli.main, lambda _, rc: {"rc": rc})


def layer_metrics(tracer, traced, untraced, probe):
    """Per-layer metrics from the spans of the traced executions ("exec-i",
    with "setup-i" as their zero-step twins) and the workload's probe. A
    layer the workload does not reach reports 0."""
    from workloads import VERIFY_SUITES
    spans = tracer.spans
    kids = tracer.children()
    runs = defaultdict(list)
    for idx, s in enumerate(spans):
        runs[s.run].append(idx)
    execs = sorted(traced.execs)

    def named(idxs, name):
        return [i for i in idxs if spans[i].name == name]

    def durations(name, prefix="exec-"):
        return [spans[i].duration for i in range(len(spans))
                if spans[i].name == name and (spans[i].run or "").startswith(prefix)]

    def total(idxs, name, key=None):
        sel = named(idxs, name)
        if key is None:
            return sum(spans[i].duration for i in sel)
        # a call that raised has no counts
        return sum(spans[i].counts[key] for i in sel if spans[i].counts)

    def per_exec(fn):
        """Median over traced executions of fn(span indices, wall seconds)."""
        return median([fn(runs[f"exec-{i}"], traced.execs[i][0]) for i in execs])

    def all_execs(fn):
        return sum(fn(runs[f"exec-{i}"]) for i in execs)

    def without_records(i):
        return spans[i].duration - sum(spans[k].duration for k in kids[i]
                                       if spans[k].name == "diagnostics.compute_record")

    def parent_name(i):
        return None if spans[i].parent is None else spans[spans[i].parent].name

    def primary_runs(idxs):
        """The workload's own solver runs: not those inside verify suites."""
        return [i for i in named(idxs, "solver.run")
                if parent_name(i) in (None, "scenario.run_scenario")]

    # stepping = the n-step run minus the zero-step run, records excluded
    step_s, pair_rate = [], []
    for i in execs:
        full = primary_runs(runs[f"exec-{i}"])
        zero = primary_runs(runs[f"setup-{i}"])
        if len(full) != len(zero):
            continue
        secs = steps = pair_secs = pair_updates = 0
        for a, b in zip(full, zero):
            c = spans[a].counts
            if c is None or c["scheme"] == "picard-oracle":
                continue
            stepping = without_records(a) - without_records(b)
            secs += stepping
            steps += c["steps"]
            if c["pairs"]:
                pair_secs += stepping
                pair_updates += c["pairs"] * c["steps"]
        if steps:
            step_s.append(secs / steps)
        if pair_updates:
            pair_rate.append(pair_updates / pair_secs)

    n_setups = len(traced.setups)
    setup_self = [sum(without_records(i) for i in primary_runs(runs[f"setup-{k}"]))
                  for k in range(n_setups) if runs[f"setup-{k}"]]

    def sample_calls_per_record():
        idxs = [k for i in execs for k in runs[f"exec-{i}"]]
        records = len(named(idxs, "diagnostics.compute_record"))
        in_records = sum(parent_name(k) == "diagnostics.compute_record"
                         for k in named(idxs, "media.Medium.sample"))
        return in_records / records if records else 0.0

    offsets = per_exec(lambda idxs, _: total(idxs, "kernels.discretize", "offsets"))
    if not offsets:
        # long runs build their one stencil outside the execution
        offsets = median([s.counts["offsets"] for s in spans
                          if s.name == "kernels.discretize" and s.counts])

    untraced_wall = median([w for w, _ in untraced.execs.values()])
    traced_wall = median([w for w, _ in traced.execs.values()])
    metrics = {
        "kernels.discretize_s": median(durations("kernels.discretize", "")),
        "kernels.offsets": offsets,
        "grids.convolve_fft_s": probe.get("grids.convolve_fft_s", 0.0),
        "grids.convolve_direct_s": probe.get("grids.convolve_direct_s", 0.0),
        "grids.exchange_matrix_s": per_exec(
            lambda idxs, _: total(idxs, "grids.masked_exchange_matrix")),
        "grids.exchange_nnz": per_exec(
            lambda idxs, _: total(idxs, "grids.masked_exchange_matrix", "nnz")),
        "grids.exchange_bytes": per_exec(
            lambda idxs, _: total(idxs, "grids.masked_exchange_matrix", "bytes")),
        "grids.snapshot_write_s": median(durations("grids.write_snapshot", "")),
        "grids.snapshot_read_s": median(durations("grids.read_snapshot", "")),
        "grids.snapshot_bytes": median([s.counts["bytes"] for s in spans
                                        if s.name == "grids.write_snapshot" and s.counts]),
        "media.sample_calls": sample_calls_per_record(),
        "media.sample_s": median(durations("media.Medium.sample")),
        "solver.setup_s": median(setup_self),
        "solver.step_s": median(step_s),
        "solver.steps": per_exec(lambda idxs, _: total(idxs, "solver.run", "steps")),
        "solver.pairs": per_exec(lambda idxs, _: max(
            [spans[i].counts["pairs"] for i in named(idxs, "solver.run")
             if spans[i].counts], default=0)),
        "solver.pair_updates_per_s": median(pair_rate),
        "solver.self_share": per_exec(lambda idxs, wall: sum(
            tracer.self_time(i, kids) for i in named(idxs, "solver.run")) / wall),
        "solver.picard_iterations": per_exec(
            lambda idxs, _: total(idxs, "solver.run", "picard_iterations")),
        "diagnostics.record_s": median(durations("diagnostics.compute_record")),
        "diagnostics.records": per_exec(
            lambda idxs, _: len(named(idxs, "diagnostics.compute_record"))),
        "diagnostics.lyapunov_F_s": median(durations("diagnostics.lyapunov_F")),
        "diagnostics.share": per_exec(
            lambda idxs, wall: total(idxs, "diagnostics.compute_record") / wall),
        "scenario.registry_s": probe.get("scenario.registry_s", 0.0),
        "scenario.roundtrip_s": probe.get("scenario.roundtrip_s", 0.0),
        "scenario.csv_write_s": per_exec(lambda idxs, _: sum(
            tracer.self_time(i, kids) for i in named(idxs, "scenario.run_scenario"))),
        "scenario.csv_bytes": per_exec(
            lambda idxs, _: total(idxs, "scenario.run_scenario", "csv_bytes")),
        "verify.suite_s": per_exec(lambda idxs, _: total(idxs, "verify.run_suite")),
        "verify.checks": per_exec(lambda idxs, _: total(idxs, "verify.run_suite", "checks")),
        "verify.checks_failed": all_execs(
            lambda idxs: total(idxs, "verify.run_suite", "failed")),
        "cli.main_s": median(durations("cli.main")),
        "cli.nonzero_exits": all_execs(lambda idxs: sum(
            not spans[i].counts or spans[i].counts["rc"] != 0
            for i in named(idxs, "cli.main"))),
        "trace.wall_untraced_s": untraced_wall,
        "trace.wall_traced_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": per_exec(lambda idxs, _: len(idxs)),
    }
    for suite in VERIFY_SUITES:
        metrics[f"verify.suite_s.{suite}"] = probe.get(f"verify.suite_s.{suite}", 0.0)
    return metrics


SEED_INVARIANT = ("solver.steps", "diagnostics.records", "solver.pairs",
                  "grids.exchange_nnz")


def seed_check(iso, args, workdir, metrics, probe):
    """One traced execution on the next seed: the seed must change the data,
    not the work, so these counts must not move."""
    from workloads import WORKLOADS
    alt = WORKLOADS[args.workload]()
    alt.build(args.seed + 1, os.path.join(workdir, "alt"))
    tracer = Tracer()
    install_tracer(tracer, iso)
    try:
        m = measure(alt, 0.0, tracer, min_execs=1)
    finally:
        tracer.uninstall()
    alt_metrics = layer_metrics(tracer, m, m, probe)
    mine = {k: metrics[k] for k in SEED_INVARIANT}
    theirs = {k: alt_metrics[k] for k in SEED_INVARIANT}
    return m.messages + ([] if mine == theirs else
                         [f"counts depend on the seed: {mine} vs {theirs}"])


# ---------------------------------------------------------------------------


def environment(iso):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "isoflow": iso.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    iso = import_isoflow()
    from workloads import WORKLOADS  # imports isoflow: only once src/ is on the path

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload]()
        workload.build(args.seed, workdir)
        reference = workload.reference_check()
        workload.setup()    # warm-up: lazy imports and FFT plan caches
        if not args.trace:
            m = measure(workload, args.seconds)
            metrics = end_to_end(workload, m)
            declared = spec["end_to_end"]
        else:
            untraced = measure(workload, args.seconds / 2, min_execs=2)
            tracer = Tracer()
            install_tracer(tracer, iso)
            try:
                m = measure(workload, args.seconds / 2, tracer, min_execs=2)
                tracer.run = "probe"
                probe, probe_failures = workload.probe()
            finally:
                tracer.uninstall()
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = layer_metrics(tracer, m, untraced, probe)
            m.merge(untraced)
            m.check(probe_failures)
            m.check(seed_check(iso, args, workdir, metrics, probe))
            declared = spec["per_layer"]
        m.check(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [d["name"] for d in declared]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} are not "
                           "both declared in BENCHMARK.json and measured")
    for msg in m.messages:
        print(f"FAIL {msg}", file=sys.stderr)
    print("environment " + json.dumps(environment(iso)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(m.execs)} executions")
    for d in declared:
        print(f"  {d['name']} = {metrics[d['name']]!r} {d['unit']}")
    print(f"  failed_frac = {m.failed / m.attempted!r} "
          f"({m.failed} of {m.attempted} operations)")
    print(json.dumps({
        "correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared}}))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
