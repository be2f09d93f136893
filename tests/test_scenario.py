import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from isoflow import (ConfigError, SolverConfig, SolverError, read_snapshot, registry, run,
                     run_scenario)
import isoflow
from isoflow import cli
from isoflow.cli import main
from isoflow.kernels import Kernel
from isoflow.scenario import (config_hash, emit_scenario, parse_scenario_text,
                              scenario_inputs, with_param)

GOOD_CFG = """
[scenario]
name = smoke

[kernel]
family = gaussian
sigma = 1.0
trunc_tol = 1e-8

[medium]
family = power-decay
amplitude = 1.0
exponent = 2.0

[grid]
dim = 1
half_extent = 10.0
points_per_axis = 101

[initial]
family = gaussian-bump
height = 1.0
width = 1.0

[solver]
scheme = exponential
dt = 0.2
t_end = 2.0
boundary = mask
mask_radius = 10.0
snapshot_every = 2

[outputs]
directory = out/smoke
csv = diag.csv

[probes]
lp_radius = 3.0
"""


class TestParse:
    def test_good_config(self):
        sc = parse_scenario_text(GOOD_CFG)
        assert sc.name == "smoke"
        assert sc.kernel.family == "gaussian"
        assert sc.solver.boundary == "mask"
        assert sc.probes.lp_radius == 3.0

    def test_duplicate_key_names_line(self):
        bad = GOOD_CFG.replace("sigma = 1.0", "sigma = 1.0\nsigma = 2.0")
        with pytest.raises(ConfigError, match="line"):
            parse_scenario_text(bad)

    def test_unknown_key_rejected(self):
        bad = GOOD_CFG.replace("sigma = 1.0", "sigma = 1.0\nwobble = 3")
        with pytest.raises(ConfigError, match="wobble"):
            parse_scenario_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_scenario_text(GOOD_CFG + "\n[turbo]\nx = 1\n")

    def test_unknown_family_rejected(self):
        bad = GOOD_CFG.replace("family = gaussian", "family = cauchy")
        with pytest.raises(ConfigError, match="cauchy"):
            parse_scenario_text(bad)

    def test_missing_section_rejected(self):
        bad = GOOD_CFG.replace("[medium]", "[probes]").replace(
            "amplitude = 1.0", "").replace("exponent = 2.0", "").replace(
            "family = power-decay", "")
        with pytest.raises(ConfigError):
            parse_scenario_text(bad)

    def test_e_rho_request_on_nonintegrable_medium(self, tmp_path, capsys):
        # the format is fine; the run's distance target rejects it
        bad = GOOD_CFG.replace("exponent = 2.0", "exponent = 1.0")
        bad = bad.replace("lp_radius = 3.0", "lp_radius = 3.0\ndist_target = e_rho")
        assert parse_scenario_text(bad).probes.dist_target == "e_rho"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "E_rho undefined: dist_target e_rho needs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stencil_grid_misfit(self):
        # the format is fine; the stencil is checked where it is built
        bad = GOOD_CFG.replace("half_extent = 10.0", "half_extent = 2.0")
        bad = bad.replace("mask_radius = 10.0", "mask_radius = 2.0")
        sc = parse_scenario_text(bad)
        with pytest.raises(ConfigError, match=r"truncation radius 5.73 exceeds the grid "
                                              r"size 2L=4 \(field kernel\)"):
            scenario_inputs(sc)

    def test_bad_number_names_line(self):
        bad = GOOD_CFG.replace("dt = 0.2", "dt = fast")
        with pytest.raises(ConfigError, match="line"):
            parse_scenario_text(bad)


class TestEmit:
    def test_round_trip_structural_equality(self):
        sc = parse_scenario_text(GOOD_CFG)
        assert parse_scenario_text(emit_scenario(sc)) == sc

    def test_registry_round_trips(self):
        for name, sc in registry().items():
            assert parse_scenario_text(emit_scenario(sc)) == sc, name

    def test_hash_stable_and_sensitive(self):
        sc = parse_scenario_text(GOOD_CFG)
        assert config_hash(sc) == config_hash(sc)
        varied = with_param(sc, "dt", 0.1)
        assert config_hash(varied) != config_hash(sc)


class TestRegistry:
    def test_expected_names(self):
        names = set(registry())
        assert {"existence-uniqueness", "isothermalization", "flux-decay",
                "quadratic-growth", "unbounded-isothermalization",
                "infinite-isothermalization", "open-problem-explore"} <= names

    def test_open_problem_not_asserted(self):
        assert registry()["open-problem-explore"].asserted is False

    @pytest.mark.parametrize("name", sorted(registry()))
    def test_builtin_passes_every_check_of_a_run(self, name):
        # registry() checks nothing: build each built-in and make the zero-step
        # run that `isoflow sweep` makes before its first run
        sc = registry()[name]
        u0, medium, stencil = scenario_inputs(sc)
        traj = run(u0, medium, stencil, replace(sc.solver, t_end=0.0), sc.probes)
        assert len(traj.diagnostics) == 1

    def test_isothermalization_medium_integrable(self):
        from isoflow.scenario import build_medium
        from isoflow import classify
        sc = registry()["isothermalization"]
        assert classify(build_medium(sc.medium, sc.grid.dim)).integrable is True


class TestRunScenario:
    def test_csv_deterministic_bitwise(self, tmp_path):
        sc = parse_scenario_text(GOOD_CFG)
        _, p1 = run_scenario(sc, out_dir=str(tmp_path / "a"))
        _, p2 = run_scenario(sc, out_dir=str(tmp_path / "b"))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_csv_schema(self, tmp_path):
        sc = parse_scenario_text(GOOD_CFG)
        _, path = run_scenario(sc, out_dir=str(tmp_path))
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == ("t,mass,lyapunov_F,sup_u,inf_u,dist_L1rho_to_E,"
                          "lp_local_p,lp_local_val,u_at_origin")
        assert any("config_sha256" in ln for ln in lines[:4])
        assert any("integrable=True" in ln for ln in lines[:4])

    def test_snapshot_emission(self, tmp_path):
        sc = parse_scenario_text(GOOD_CFG.replace("csv = diag.csv",
                                                  "csv = diag.csv\nsnapshots = last"))
        traj, _ = run_scenario(sc, out_dir=str(tmp_path))
        f, t = read_snapshot(tmp_path / "snapshot_final.isof")
        assert t == traj.snapshots[-1][0]
        np.testing.assert_array_equal(f.values, traj.final().values)

    def test_mask_mass_constant_in_csv(self, tmp_path):
        sc = parse_scenario_text(GOOD_CFG)
        _, path = run_scenario(sc, out_dir=str(tmp_path))
        with open(path) as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()
                    if ln and not ln.startswith("#") and not ln.startswith("t,")]
        masses = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * abs(masses[0])


class TestCLI:
    def test_run_named_scenario(self, tmp_path, capsys):
        code = main(["run", "existence-uniqueness", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "diagnostics.csv").exists()

    def test_run_config_file(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(GOOD_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CFG.replace("family = gaussian", "family = cauchy"))
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_picard_oracle_with_mask_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "picard-mask.cfg"
        cfg.write_text(GOOD_CFG.replace("scheme = exponential", "scheme = picard-oracle"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "zero-extend" in capsys.readouterr().err

    def test_unknown_scenario_exit_code(self):
        assert main(["run", "not-a-scenario"]) == 2

    def test_sweep_writes_each_value(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(GOOD_CFG)
        code = main(["sweep", str(cfg), "--param", "dt=0.2,0.1",
                     "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "sw" / "sweep-dt-0.2" / "diag.csv").exists()
        assert (tmp_path / "sw" / "sweep-dt-0.1" / "diag.csv").exists()

    def test_numerical_abort_exit_code(self, monkeypatch, capsys):
        from isoflow.solver import NumericalAbort
        import isoflow.cli as cli_mod

        def boom(sc, out_dir=None):
            raise NumericalAbort(17)

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        assert main(["run", "flux-decay"]) == 3
        assert "step 17" in capsys.readouterr().err

    def test_sweep_abort_follows_the_values_written_before_it(self, tmp_path, monkeypatch,
                                                               capsys):
        # a stepper that yields NaN for dt = 0.1 alone: the sweep prints the
        # dt = 0.2 file it wrote, then the abort exactly as `run` prints it
        from isoflow import solver
        real = solver._stepper

        def nan_at_small_dt(op, rho, scheme, dt, nnz_cap=None):
            stepper = real(op, rho, scheme, dt, nnz_cap)
            if dt == 0.1:
                stepper.step = lambda values: np.full_like(values, np.nan)
            return stepper

        monkeypatch.setattr(solver, "_stepper", nan_at_small_dt)
        cfg, small = tmp_path / "smoke.cfg", tmp_path / "small.cfg"
        cfg.write_text(GOOD_CFG)
        small.write_text(GOOD_CFG.replace("dt = 0.2", "dt = 0.1"))
        assert main(["run", str(small), "--out", str(tmp_path / "out")]) == 3
        from_run = capsys.readouterr().err
        assert main(["sweep", str(cfg), "--param", "dt=0.2,0.1",
                     "--out", str(tmp_path / "sw")]) == 3
        out, err = capsys.readouterr()
        assert out == f"wrote {tmp_path / 'sw' / 'sweep-dt-0.2' / 'diag.csv'}\n"
        assert err == from_run == "numerical abort: non-finite values detected at step 1\n"
        assert not (tmp_path / "sw" / "sweep-dt-0.1").exists()

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        import isoflow.cli as cli_mod
        from isoflow.verify import CheckResult

        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda name: [CheckResult("stub", False, 1.0)])
        monkeypatch.setattr(cli_mod, "suite_names", lambda: ["stub-suite"])
        assert main(["verify", "stub-suite"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_verify_suite_exit_ok(self, capsys):
        assert main(["verify", "quadratic-identity"]) == 0
        out = capsys.readouterr().out
        assert "CHECK" in out and "PASS" in out

    def test_verify_unknown_suite(self):
        assert main(["verify", "bogus-suite"]) == 2

    def test_verify_lyapunov_refinement_csv(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(GOOD_CFG.replace("dt = 0.2", "dt = 0.1")
                       .replace("t_end = 2.0", "t_end = 8.0"))
        code = main(["verify", "lyapunov", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        table = (tmp_path / "lyapunov_refinement.csv").read_text().splitlines()
        assert table[0] == "level,dt,delta,resid_decay,resid_energy"
        assert len(table) == 4

    def test_verify_lyapunov_refinement_failure(self, tmp_path, monkeypatch, capsys):
        # both levels report the same residuals, so the residual does not fall
        rep = SimpleNamespace(max_resid_decay=2e-2, max_resid_energy=1e-2)
        levels = [(SolverConfig(dt=dt), None, rep) for dt in (0.1, 0.05)]
        monkeypatch.setattr("isoflow.cli.lyapunov_refinement", lambda *args: levels)
        assert main(["verify", "lyapunov", "flux-decay", "--out", str(tmp_path)]) == 4
        assert "CHECK lyapunov.refinement FAIL 2.000e-02" in capsys.readouterr().out

    def test_verify_scenario_only_for_lyapunov(self, capsys):
        assert main(["verify", "quadratic-identity", "no-such.cfg"]) == 2
        assert main(["verify", "lyapunov", "--out", "out"]) == 2
        assert capsys.readouterr().err.count("only `verify lyapunov <scenario>`") == 2

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "isothermalization" in capsys.readouterr().out

    def test_run_named_scenario_validates_it_once(self, tmp_path, monkeypatch):
        # registry() and parse_scenario check no values: run_scenario builds,
        # and so checks, the one scenario it runs, named or read from a file,
        # with one Kernel, whose truncation radius discretize solves once
        import isoflow.scenario as scenario_mod
        calls = []
        inputs, grid, solve = (scenario_mod.scenario_inputs, scenario_mod.build_grid,
                               Kernel.truncation_radius)
        monkeypatch.setattr(scenario_mod, "scenario_inputs",
                            lambda sc: calls.append(sc.name) or inputs(sc))
        monkeypatch.setattr(scenario_mod, "build_grid",
                            lambda spec: calls.append("grid") or grid(spec))
        monkeypatch.setattr(Kernel, "truncation_radius",
                            lambda kern, tol: calls.append("radius") or solve(kern, tol))
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(GOOD_CFG)
        assert main(["run", "existence-uniqueness", "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert calls == ["existence-uniqueness", "grid", "radius", "smoke", "grid", "radius"]

    @pytest.mark.parametrize("argv", [["run", "bad"], ["sweep", "bad", "--param", "dt=0.2"],
                                      ["verify", "lyapunov", "bad"]],
                             ids=["run", "sweep", "verify-lyapunov"])
    def test_every_command_that_runs_a_scenario_validates_it(self, argv, tmp_path,
                                                              monkeypatch, capsys):
        # a mask wider than the grid: DomainMask rejects it, naming the key,
        # before anything is written
        sc = registry()["flux-decay"]
        bad = replace(sc, solver=replace(sc.solver, mask_radius=30.0))
        monkeypatch.setattr("isoflow.cli.registry", lambda: {"bad": bad})
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "mask_radius 30 exceeds half_extent 25" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        # a leaked --out would make `verify nullspace` a config error
        assert main(["run", "existence-uniqueness", "--out", str(tmp_path)]) == 0
        assert main(["verify", "nullspace"]) == 0
        assert "CHECK nullspace.split PASS" in capsys.readouterr().out
        assert cli._parser() is cli._parser()


class TestSchemaTable:
    PINNED_HASHES = {
        "existence-uniqueness": "ffcc4f4da146",
        "isothermalization": "2f80f16535ae",
        "flux-decay": "5a42d6034e65",
        "quadratic-growth": "157f3fa9a4ed",
        "unbounded-isothermalization": "aadab526f316",
        "infinite-isothermalization": "b95d6b74d418",
        "open-problem-explore": "419641a41fc3",
    }

    def test_registry_emit_is_pinned(self):
        # the CSV config_sha256 header of every registry run depends on these bytes
        assert {n: config_hash(sc) for n, sc in registry().items()} == self.PINNED_HASHES

    def test_with_param_parses_with_the_key_type(self):
        sc = parse_scenario_text(GOOD_CFG)
        varied = with_param(sc, "snapshot_every", "5")
        assert varied.solver.snapshot_every == 5
        assert isinstance(varied.solver.snapshot_every, int)
        assert parse_scenario_text(emit_scenario(varied)) == varied
        assert with_param(sc, "solver.scheme", "euler").solver.scheme == "euler"
        assert with_param(sc, "kernel.sigma", "0.5").kernel.params == {"sigma": 0.5}
        with pytest.raises(ConfigError, match="bad number for 'snapshot_every'"):
            with_param(sc, "snapshot_every", "5.0")

    @pytest.mark.parametrize("key", ["grid.dt", "wobble", "solver.sigma", "a.b.dt"])
    def test_with_param_rejects_unknown_keys(self, key):
        with pytest.raises(ConfigError, match="cannot set"):
            with_param(parse_scenario_text(GOOD_CFG), key, "0.05")

    def test_with_param_rejects_ambiguous_bare_key(self):
        with pytest.raises(ConfigError, match="kernel.sigma.*medium.sigma"):
            with_param(parse_scenario_text(GOOD_CFG), "sigma", "0.5")

    @pytest.mark.parametrize("key, value", [("dist_target", "bogus"),
                                            ("outputs.snapshots", "some"),
                                            ("initial.family", "cauchy")])
    def test_with_param_validates_like_a_file(self, key, value, tmp_path, capsys):
        # a value swept in fails as the same value in a file does, and a
        # sweep writes nothing: with_param checks the format (the snapshots
        # mode, the family), the zero-step run before the sweep the rest
        name = key.split(".")[-1]
        bad = {"dist_target": GOOD_CFG + f"{name} = {value}\n",
               "outputs.snapshots": GOOD_CFG.replace("csv = diag.csv",
                                                     f"csv = diag.csv\n{name} = {value}"),
               "initial.family": GOOD_CFG.replace("family = gaussian-bump",
                                                  f"family = {value}")}[key]
        cfg, bad_cfg = tmp_path / "smoke.cfg", tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CFG)
        bad_cfg.write_text(bad)
        assert main(["run", str(bad_cfg), "--out", str(tmp_path / "out")]) == 2
        from_file = capsys.readouterr().err
        assert main(["sweep", str(cfg), "--param", f"{key}={value}",
                     "--out", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == from_file
        assert name in from_file
        assert not (tmp_path / "out").exists() and not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("field, value", [("scenario.name", "a # b"),
                                              ("scenario.name", "a\nb"),
                                              ("outputs.csv", " diag.csv"),
                                              ("outputs.directory", "out/ ")])
    def test_emit_rejects_unrepresentable_strings(self, field, value):
        from dataclasses import replace
        sc = parse_scenario_text(GOOD_CFG)
        section, key = field.split(".")
        if section == "scenario":
            sc = replace(sc, name=value)
        else:
            sc = replace(sc, outputs=replace(sc.outputs, **{key: value}))
        with pytest.raises(ConfigError, match=f"field {field}"):
            emit_scenario(sc)


class TestSweepCLI:
    def _sweep(self, tmp_path, param, cfg_text=GOOD_CFG):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(cfg_text)
        return main(["sweep", str(cfg), "--param", param, "--out", str(tmp_path / "sw")])

    def test_int_key_writes_a_parseable_scenario(self, tmp_path):
        assert self._sweep(tmp_path, "snapshot_every=5") == 0
        varied = with_param(parse_scenario_text(GOOD_CFG), "snapshot_every", "5")
        assert parse_scenario_text(emit_scenario(varied)) == varied
        header = (tmp_path / "sw" / "sweep-snapshot_every-5" / "diag.csv").read_text()
        assert f"# config_sha256 = {config_hash(varied)}" in header

    def test_string_key(self, tmp_path):
        cfg_text = GOOD_CFG.replace("dt = 0.2", "dt = 0.005").replace("t_end = 2.0",
                                                                      "t_end = 0.02")
        assert self._sweep(tmp_path, "scheme=euler,exponential",
                           cfg_text) == 0
        for scheme in ("euler", "exponential"):
            assert (tmp_path / "sw" / f"sweep-scheme-{scheme}" / "diag.csv").exists()

    def test_directories_named_by_token(self, tmp_path):
        assert self._sweep(tmp_path, "dt=0.1234567,0.1234568") == 0
        for tok in ("0.1234567", "0.1234568"):
            assert (tmp_path / "sw" / f"sweep-dt-{tok}" / "diag.csv").exists()

    def test_bad_value_fails_before_any_run(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "dist_target=auto,bogus") == 2
        assert "dist_target" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_mask_radius_under_zero_extend_fails_before_any_run(self, tmp_path, capsys):
        # zero-extend would ignore the radius, so no value of it is accepted
        cfg_text = GOOD_CFG.replace("boundary = mask\nmask_radius = 10.0\n",
                                    "boundary = zero-extend\n")
        assert parse_scenario_text(cfg_text).solver.mask_radius is None
        assert self._sweep(tmp_path, "mask_radius=5", cfg_text) == 2
        assert "mask_radius" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()
        # with_param checks the format alone; the run rejects the value
        varied = with_param(registry()["quadratic-growth"], "mask_radius", "5.0")
        with pytest.raises(SolverError, match="mask_radius"):
            run_scenario(varied, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_bad_grid_value_fails_before_any_run(self, tmp_path, capsys):
        # 3 points keep only the origin of the stencil; 501 comes first and
        # would run to completion if values were checked one run at a time
        assert main(["sweep", "flux-decay", "--param", "grid.points_per_axis=501,3",
                     "--out", str(tmp_path / "sw")]) == 2
        assert "stencil keeps only the origin" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_picard_window_over_its_storage_cap_fails_before_its_first_window(
            self, tmp_path, capsys):
        # a window of 0.12 at dt = 1e-7 stores 1.2e6 time slices of 41 nodes;
        # the storage depends on t_end, so a sweep's zero-step run cannot see it
        sc = with_param(registry()["existence-uniqueness"], "dt", "1e-7")
        cfg = tmp_path / "eu.cfg"
        cfg.write_text(emit_scenario(sc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "dt=1e-07 is too small for the fixed-point oracle" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_picard_window_storage_of_a_later_value_fails_before_any_run(
            self, tmp_path, capsys):
        # dt = 1e-3 comes first and would run to completion if the storage
        # were checked only when each value's own run starts
        assert main(["sweep", "existence-uniqueness", "--param", "dt=1e-3,1e-7",
                     "--out", str(tmp_path / "sw")]) == 2
        assert "dt=1e-07 is too small for the fixed-point oracle" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_unstable_euler_fails_before_any_run(self, tmp_path, capsys):
        # dt = 0.25 is far above stability_dt = min rho for Euler
        sc = with_param(registry()["isothermalization"], "t_end", "0.5")
        cfg = tmp_path / "iso.cfg"
        cfg.write_text(emit_scenario(sc))
        assert main(["sweep", str(cfg), "--param", "scheme=exponential,euler",
                     "--out", str(tmp_path / "sw")]) == 2
        assert "stability_dt" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("old, new, message", [
    ("dt = 0.2", "dt = inf", "must be finite"),
    ("t_end = 2.0", "t_end = inf", "must be finite"),
    ("dt = 0.2", "dt = nan", "must be finite"),
    ("mask_radius = 10.0", "mask_radius = inf", "must be finite"),
    ("snapshot_every = 2", "snapshot_every = 2\nfloor_alpha = inf", "must be finite"),
    ("snapshot_every = 2", "snapshot_every = 2\npicard_tol = nan", "must be finite"),
    ("snapshot_every = 2", "snapshot_every = 2\npicard_tol = 0", "must be positive"),
], ids=["dt-inf", "t_end-inf", "dt-nan", "mask_radius-inf", "floor_alpha-inf",
        "picard_tol-nan", "picard_tol-zero"])
def test_non_finite_solver_number_is_a_config_error(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(GOOD_CFG.replace(old, new))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("radii, values", [
    ("0,1,2", "1"),
    ("3,2,1,0", "0,1,2,3"),
    ("0,1,1", "1,2,3"),
    ("0,1,inf", "1,2,3"),
    ("0,1,2", "1,nan,3"),
], ids=["length-mismatch", "decreasing", "repeated", "inf-radius", "nan-value"])
def test_bad_initial_table_is_a_config_error(tmp_path, capsys, radii, values):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(GOOD_CFG.replace("family = gaussian-bump\nheight = 1.0\nwidth = 1.0",
                                    f"family = table\nradii = {radii}\nvalues = {values}"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "field initial" in capsys.readouterr().err


@pytest.mark.parametrize("probe", ["lp_p = nan", "lp_p = inf", "lp_p = 0.5",
                                   "lp_radius = nan", "lp_radius = -1.0"],
                         ids=["lp_p-nan", "lp_p-inf", "lp_p-below-one", "lp_radius-nan",
                              "lp_radius-negative"])
def test_bad_probe_is_a_config_error(tmp_path, capsys, probe):
    cfg = tmp_path / "bad.cfg"
    key = probe.split(" =")[0]
    lines = [ln for ln in GOOD_CFG.splitlines() if not ln.startswith(key)]
    cfg.write_text("\n".join(lines) + f"\n{probe}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _small_flux_decay():
    """flux-decay shrunk to a 41-node grid and three steps."""
    sc = registry()["flux-decay"]
    for key, value in [("solver.mask_radius", "8"), ("grid.points_per_axis", "41"),
                       ("grid.half_extent", "10"), ("solver.t_end", "0.3")]:
        sc = with_param(sc, key, value)
    return sc


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_record_is_a_numerical_abort(tmp_path, capsys):
    # the state stays finite, but F and the L^2 probe of height 1e300
    # overflow: the abort names them, and numpy warns of nothing first
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(emit_scenario(with_param(_small_flux_decay(), "initial.height", "1e300")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "non-finite lyapunov_F" in err and "lp_local_val" in err
    assert "at step 0" in err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


@pytest.mark.parametrize("key", ["mass_tol", "dim"])
def test_kernel_spec_cannot_pass_a_kernel_keyword(key):
    # a spec built in code reaches Kernel(family, dim, **params) unparsed
    sc = _small_flux_decay()
    sc = replace(sc, kernel=replace(sc.kernel, params={"sigma": 1.0, key: 1}))
    with pytest.raises(ConfigError, match=rf"does not take \['{key}'\] \(field kernel\)"):
        scenario_inputs(sc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, key, value", [
    ("gaussian-bump", "width", "-1"), ("gaussian-bump", "width", "0"),
    ("gaussian-bump", "width", "nan"), ("gaussian-bump", "height", "inf"),
    ("indicator", "radius", "-0.5"), ("indicator", "value", "nan"),
    ("constant", "value", "-inf"), ("quadratic", "power", "nan"),
])
def test_initial_parameter_outside_its_domain_is_a_config_error(
        tmp_path, capsys, family, key, value):
    sc = _small_flux_decay()
    params = {"gaussian-bump": {"height": 1.0, "width": 1.0}, "constant": {"value": 1.0},
              "indicator": {"radius": 2.0}, "quadratic": {}}[family]
    sc = replace(sc, initial=replace(sc.initial, family=family, params=params))
    with pytest.raises(ConfigError, match=rf"field initial\.{key}\)"):
        scenario_inputs(with_param(sc, f"initial.{key}", value))
    bad = replace(sc, initial=replace(sc.initial, params={**params, key: float(value)}))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(emit_scenario(bad))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field initial.{key})" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("section, family, params, message", [
    ("initial", "quadratic", {"power": 400.0}, "field values must be finite (field initial)"),
    ("medium", "gaussian-decay", {"amplitude": 1.0, "sigma": 0.5},
     "Medium(gaussian-decay, dim=1, {'amplitude': 1.0, 'sigma': 0.5}): density must be "
     "finite and strictly positive"),
], ids=["quadratic-overflows", "gaussian-decay-underflows"])
def test_values_that_leave_floats_name_their_section(tmp_path, capsys, section, family,
                                                      params, message):
    # (1 + r^2)^400 overflows at r = 25, and rho = exp(-r^2/2 sigma^2) underflows to 0
    sc = registry()["flux-decay"]
    sc = replace(sc, **{section: replace(getattr(sc, section), family=family, params=params)})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(emit_scenario(sc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_good_initial_table_runs(tmp_path):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(GOOD_CFG.replace("family = gaussian-bump\nheight = 1.0\nwidth = 1.0",
                                    "family = table\nradii = 0,1,5\nvalues = 2,1,0"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("old, new, section", [
    ("sigma = 1.0", "sigma = nan", "kernel"),
    ("sigma = 1.0", "sigma = inf", "kernel"),
    ("exponent = 2.0", "exponent = nan", "medium"),
    ("amplitude = 1.0", "amplitude = inf", "medium"),
    ("half_extent = 10.0", "half_extent = nan", "grid"),
    ("half_extent = 10.0", "half_extent = inf", "grid"),
    ("half_extent = 10.0", "half_extent = 1e300", "grid"),
], ids=["sigma-nan", "sigma-inf", "exponent-nan", "amplitude-inf",
        "half_extent-nan", "half_extent-inf", "half_extent-squared-overflows"])
def test_non_finite_parameter_names_its_section(tmp_path, capsys, old, new, section):
    # 1e300 is finite, but its square is not (RuntimeWarnings are errors here)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(GOOD_CFG.replace(old, new))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field {section}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the set-up of the `lyapunov` verify suite, written as a scenario file
FLOORED_LYAPUNOV_CFG = """
[kernel]
family = gaussian
sigma = 1.0

[medium]
family = power-decay
amplitude = 1.0
exponent = 2.0

[grid]
dim = 1
half_extent = 20.0
points_per_axis = 201

[initial]
family = gaussian-bump
height = 1.0
width = 1.0

[solver]
scheme = exponential
dt = 0.1
t_end = 24.0
boundary = mask
mask_radius = 20.0
snapshot_every = 10
floor_alpha = 0.5
"""


def test_verify_lyapunov_checks_against_the_floored_medium(tmp_path, capsys):
    # checked against the unfloored medium, the residuals stall near 0.53
    cfg = tmp_path / "floored.cfg"
    cfg.write_text(FLOORED_LYAPUNOV_CFG)
    assert main(["verify", "lyapunov", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "lyapunov_refinement.csv").read_text().splitlines()[1:]
    worst = [max(float(v) for v in row.split(",")[3:]) for row in rows]
    assert len(worst) == 3
    for coarse, fine in zip(worst, worst[1:]):
        assert fine <= 0.6 * coarse


def test_registry_digest_counts_every_output_and_refuses_a_used_directory(tmp_path):
    # the script runs the src this suite imports; a used directory would mix
    # stale files into the digest
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "registry_digest.py")
    src = os.path.dirname(os.path.dirname(isoflow.__file__))
    argv = [sys.executable, script, src, str(tmp_path / "digest")]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    files, lines, digest = out.splitlines()
    assert (files, lines) == ("files 148", "verify lines 17 (exit 0)")
    assert sum(len(f) for _, _, f in os.walk(tmp_path / "digest")) == 148
    assert len(digest.split()[1]) == 64
    refused = subprocess.run(argv, capture_output=True, text=True)
    assert refused.returncode == 1 and "is not empty" in refused.stderr
