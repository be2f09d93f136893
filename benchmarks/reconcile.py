"""Times the layer figures of ROADMAP item 1's profile at stated shapes.

    python3 benchmarks/reconcile.py

Each shape runs as a traced LongRun workload with records only at the start
and the end, 3 executions, and reports run.py's ``solver.step_s`` (the
n-step run minus the zero-step run, records excluded, over n) and
``diagnostics.lyapunov_F_s`` (median call).
"""

import os
import shutil

import run  # pins the BLAS threads before numpy loads

iso = run.import_isoflow()
from workloads import LongRun  # noqa: E402

SHAPES = [
    # name, dim, L, M, steps, mask radius, sigma
    ("FFT zero-extend, 2-D M=201 L=25 sigma=1", 2, 25.0, 201, 50, None, 1.0),
    ("offset sweep, 2-D M=201 L=25 sigma=1 mask 25", 2, 25.0, 201, 4, 25.0, 1.0),
    ("CSR, 1-D M=2001 L=50 sigma=1 mask 50", 1, 50.0, 2001, 500, 50.0, 1.0),
    ("CSR, 1-D M=801 L=50 sigma=2 mask 50", 1, 50.0, 801, 500, 50.0, 2.0),
]


def main():
    workdir = os.path.join(run.ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, dim, L, M, steps, radius, sigma in SHAPES:
            w = LongRun(name, dim, L, M, steps, steps, radius, sigma)
            w.build(1, workdir)
            w.setup()
            tracer = run.Tracer()
            run.install_tracer(tracer, iso)
            try:
                m = run.measure(w, 0.0, tracer)
            finally:
                tracer.uninstall()
            if m.failed:
                raise RuntimeError("\n".join(m.messages))
            metrics = run.layer_metrics(tracer, m, m, {})
            pairs = f", {metrics['solver.pairs']:.0f} pairs" if radius else ""
            print(f"{name}: {len(w.stencil)} offsets{pairs}; "
                  f"step {metrics['solver.step_s'] * 1e3:.4g} ms, "
                  f"lyapunov_F {metrics['diagnostics.lyapunov_F_s'] * 1e3:.4g} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
