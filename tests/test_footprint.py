"""Which scipy modules a process loads: ``import isoflow`` loads numpy and the
standard library only, with no multiprocessing module, and each scipy module
loads inside the one path that calls it."""

import json
import os
import subprocess
import sys

import pytest

import isoflow

HEAVY = ("scipy.fft", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.sparse")

_PREAMBLE = """
import json, sys
import numpy as np
import isoflow, isoflow.cli
from isoflow import (Field, Grid, Kernel, Medium, SolverConfig, discretize, grids, run,
                     quadratic_growth_constant, solver)

paths = []
init = solver._ExchangeStepper.__init__

def spy(self, *args, **kwargs):
    init(self, *args, **kwargs)
    paths.append(self.path)

solver._ExchangeStepper.__init__ = spy

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy."))

def bump(g):
    return Field.from_function(g, lambda *xs: np.exp(-sum(x * x for x in xs)))

def exp_run(dim, M, mask_radius):
    g = Grid(dim, 5.0, M)
    s = discretize(Kernel.gaussian(1.0, dim=dim), g.spacing, trunc_tol=1e-8)
    cfg = SolverConfig(scheme="exponential", dt=0.5, t_end=1.0, snapshot_every=1,
                       boundary="zero-extend" if mask_radius is None else "mask",
                       mask_radius=mask_radius)
    return run(bump(g), Medium.power_decay(1.0, 1.0, dim), s, cfg)

after_import = loaded()
processes = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
"""

_NUMPY_ONLY = _PREAMBLE + """
quadratic_growth_constant(Medium.power_decay(1.0, 1.5))
exp_run(1, 41, None)
exp_run(2, 41, None)
exp_run(2, 41, 4.0)
print(json.dumps([after_import, loaded(), paths, processes]))
"""

_BAND = _PREAMBLE + """
exp_run(1, 41, 4.0)
print(json.dumps([after_import, loaded(), paths]))
"""

_PAIR_MATRIX = _PREAMBLE + """
g = Grid(2, 5.0, 41)
grids.masked_exchange_matrix(discretize(Kernel.gaussian(1.0, dim=2), g.spacing),
                             grids.DomainMask(g, 4.0))
print(json.dumps([after_import, loaded(), paths]))
"""


def _modules(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(isoflow.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def _heavy(modules):
    return {name for name in HEAVY if name in modules}


def test_import_root_finding_fft_runs_and_the_sweep_load_no_scipy_module():
    after_import, after_runs, paths, processes = _modules(_NUMPY_ONLY)
    assert processes == []   # isoflow.cli runs a sweep's values in this process
    assert paths == ["sweep"]
    assert after_import == []
    assert _heavy(after_runs) == set()


@pytest.mark.parametrize("code, made, needed", [(_BAND, ["band"], "scipy.linalg"),
                                                (_PAIR_MATRIX, [], "scipy.sparse")],
                         ids=["band", "pair-matrix"])
def test_a_stored_exchange_loads_only_its_own_module(code, made, needed):
    # the band of a 1-D run, and the pair matrix, which no run builds
    after_import, after_run, paths = _modules(code)
    assert paths == made
    assert after_import == []
    assert needed in _heavy(after_run)
    assert not _heavy(after_run) & {"scipy.fft", "scipy.special", "scipy.optimize"}
