"""Declarative experiment descriptions: the flat sectioned config format, the
named scenario registry, and CSV/snapshot emission."""

import math
import os
from dataclasses import MISSING, dataclass, field as dc_field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .grids import Field, Grid, GridError, _check_stencil_fits, write_snapshot
from .kernels import FAMILIES as KERNEL_FAMILIES, Kernel, KernelError, check_params, discretize
from .media import FAMILIES as MEDIUM_FAMILIES, Medium, MediumError, classify
from .solver import Probes, SolverConfig, run


class ConfigError(ValueError):
    """A scenario file or spec failed validation; carries a location hint."""

    def __init__(self, message, line=None, field=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field}")
        super().__init__(f"{message}" + (f" ({', '.join(loc)})" if loc else ""))
        self.line = line
        self.field = field


# ---------------------------------------------------------------------------
# scenario description

# The scenario file schema: one section per Scenario field that is a spec
# dataclass, plus [scenario] for the remaining Scenario fields. A section's
# keys are its dataclass's fields, parsed with their annotated types; a
# ``params`` field expands to the parameters of the family table below.

# kind -> family -> params, shaped as kernels.FAMILIES; Kernel and Medium check theirs
_FAMILIES = {
    "kernel": KERNEL_FAMILIES,
    "medium": MEDIUM_FAMILIES,
    "initial": {
        "constant": {"value": (float, "finite")},
        "gaussian-bump": {"height": (float, "finite"), "width": (float, "positive")},
        "indicator": {"radius": (float, "nonnegative"), "value": (1.0, "finite")},
        "quadratic": {"power": (1.0, "finite")},
        "table": {"radii": (list, None), "values": (list, None)},
    },
}


@dataclass
class KernelSpec:
    family: str
    params: dict
    trunc_tol: float = 1e-12
    renormalize: bool = True


@dataclass
class MediumSpec:
    family: str
    params: dict


@dataclass
class GridSpec:
    dim: int
    half_extent: float
    points_per_axis: int


@dataclass
class InitialSpec:
    family: str
    params: dict
    truncate_radius: float | None = None


@dataclass
class OutputSpec:
    directory: str = "out"
    csv: str = "diagnostics.csv"
    snapshots: str = "none"    # none | last | all

    def __post_init__(self):
        if self.snapshots not in ("none", "last", "all"):
            raise ConfigError(f"outputs.snapshots must be none|last|all, got "
                              f"{self.snapshots!r}", field="outputs")


@dataclass
class Scenario:
    name: str
    kernel: KernelSpec
    medium: MediumSpec
    grid: GridSpec
    initial: InitialSpec
    solver: SolverConfig
    outputs: OutputSpec = dc_field(default_factory=OutputSpec)
    probes: Probes = dc_field(default_factory=Probes)
    asserted: bool = True   # exploratory scenarios carry no acceptance claims


def _key_types(section, cls):
    """{key: type its text is parsed with} for one section."""
    types = {}
    for name, hint in get_type_hints(cls).items():
        if name == "params":
            for schema in _FAMILIES[section].values():
                types.update((k, d if isinstance(d, type) else type(d))
                             for k, (d, _) in schema.items())
        elif name not in _SPECS:
            opt = [a for a in get_args(hint) if a is not type(None)]
            types[name] = opt[0] if opt else hint
    return types


_SPECS = {name: cls for name, cls in get_type_hints(Scenario).items()
          if is_dataclass(cls)}
_CLASSES = {"scenario": Scenario, **_SPECS}
_FIELDS = {section: [f.name for f in fields(cls) if f.name not in _SPECS]
           for section, cls in _CLASSES.items()}
_REQUIRED = {section: [f.name for f in fields(cls)
                       if f.default is MISSING and f.default_factory is MISSING]
             for section, cls in _CLASSES.items()}
_KEY_TYPES = {section: _key_types(section, cls) for section, cls in _CLASSES.items()}


# ---------------------------------------------------------------------------
# construction of domain objects from specs


def _family_params(kind, spec):
    """spec.params checked against the family table, with defaults filled in."""
    return check_params(kind, _FAMILIES[kind], spec.family, spec.params,
                        lambda message, key: ConfigError(
                            message, field=f"{kind}.{key}" if key else kind))


def build_medium(spec, dim):
    try:
        return Medium(spec.family, dim, spec.params)
    except MediumError as exc:
        raise ConfigError(str(exc), field="medium") from exc


def build_grid(spec):
    try:
        return Grid(spec.dim, spec.half_extent, spec.points_per_axis)
    except GridError as exc:
        raise ConfigError(str(exc), field="grid") from exc


@np.errstate(over="ignore", invalid="ignore")   # u0 is checked to be finite
def build_initial(spec, grid):
    """u0 on grid; a parameter outside its domain or a non-finite value is a ConfigError."""
    p = _family_params("initial", spec)
    r = grid.radius()
    if spec.family == "constant":
        vals = np.full(grid.shape, float(p["value"]))
    elif spec.family == "gaussian-bump":
        vals = p["height"] * np.exp(-0.5 * (r / p["width"]) ** 2)
    elif spec.family == "indicator":
        vals = np.where(r <= p["radius"] * (1 + 1e-12), float(p["value"]), 0.0)
    elif spec.family == "quadratic":
        vals = (1.0 + r * r) ** float(p["power"])
    else:
        radii, values = (np.asarray(p[k], dtype=float) for k in ("radii", "values"))
        if not (len(radii) == len(values) >= 1 and np.all(np.isfinite(radii))
                and np.all(np.isfinite(values)) and np.all(np.diff(radii) > 0)):
            raise ConfigError("initial family 'table' needs finite radii and values of "
                              "equal length >= 1, with radii strictly increasing",
                              field="initial")
        vals = np.interp(r, radii, values)
    if spec.truncate_radius is not None:
        vals = np.where(r <= spec.truncate_radius * (1 + 1e-12), vals, 0.0)
    try:
        return Field(grid, vals, copy=False)
    except GridError as exc:
        raise ConfigError(str(exc), field="initial") from exc


def build_stencil(spec, grid):
    """The stencil on ``grid``, checked to fit it; discretize solves its radius once."""
    policy = "renormalize" if spec.renormalize else "raw"
    try:
        # checked here too, so that no spec passes Kernel's mass_tol or dim
        kern = Kernel(spec.family, grid.dim, **_family_params("kernel", spec))
        stencil = discretize(kern, grid.spacing, policy=policy, trunc_tol=spec.trunc_tol)
        _check_stencil_fits(grid, stencil)
    except (KernelError, GridError) as exc:
        raise ConfigError(str(exc), field="kernel") from exc
    return stencil


# ---------------------------------------------------------------------------
# flat sectioned text format


def _parse_value(typ, key, raw, line_no=None):
    raw = raw.strip()
    if typ is str:
        return raw
    if typ is bool:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected a boolean for {key!r}, got {raw!r}", line=line_no)
    if typ is list:
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad number list for {key!r}: {raw!r}",
                              line=line_no) from exc
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad number for {key!r}: {raw!r}", line=line_no) from exc


def _format_value(value, section, key):
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(repr(float(v)) for v in value)
    text = str(value)
    # a comment mark, a line break or edge whitespace would not read back
    if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ConfigError(f"{text!r} cannot be written to a scenario file",
                          field=f"{section}.{key}")
    return text


def _sections(sc):
    """{section: {key: value}} in file order; keys whose value is None are left out."""
    out = {}
    for section, names in _FIELDS.items():
        obj = sc if section == "scenario" else getattr(sc, section)
        data = out[section] = {}
        for name in names:
            value = getattr(obj, name)
            if name == "params":
                data.update(value)
            elif value is not None:
                data[name] = value
    return out


def _build_scenario(sections, name_hint):
    """Scenario from parsed sections; dataclass defaults fill absent keys. The
    format alone is checked: values are checked where they are built."""
    specs = {}
    for section, cls in _SPECS.items():
        if section not in sections and section in _REQUIRED["scenario"]:
            raise ConfigError(f"missing section [{section}]")
        data = dict(sections.get(section, {}))
        for key in _REQUIRED[section]:
            if key not in data and key != "params":
                raise ConfigError(f"section [{section}] needs {key}", field=section)
        if "params" in _FIELDS[section]:
            data["params"] = {k: data.pop(k) for k in list(data)
                              if k not in _FIELDS[section]}
        specs[section] = cls(**data)
    for kind in _FAMILIES:
        _family_params(kind, specs[kind])
    return Scenario(**{"name": name_hint, **sections.get("scenario", {}), **specs})


def parse_scenario_text(text, name_hint="scenario"):
    """Parse the flat sectioned key-value format into a Scenario.

    Unknown sections and keys are errors; duplicate keys name the offending
    line. No silent defaults exist for physics-bearing fields.
    """
    sections: dict[str, dict] = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KEY_TYPES:
                raise ConfigError(f"unknown section [{current}]", line=line_no)
            if current in sections:
                raise ConfigError(f"duplicate section [{current}]", line=line_no)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=line_no)
        if current is None:
            raise ConfigError("key outside of any section", line=line_no)
        key, raw_val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]",
                              line=line_no)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]",
                              line=line_no)
        sections[current][key] = _parse_value(_KEY_TYPES[current][key], key, raw_val,
                                              line_no)
    return _build_scenario(sections, name_hint)


def parse_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario_text(text, name_hint=stem)


def emit_scenario(sc):
    """Canonical text form; parse(emit(s)) is structurally equal to s.

    Raises ConfigError for a string value the format cannot carry.
    """
    lines = []
    for section, data in _sections(sc).items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {_format_value(v, section, k)}" for k, v in data.items()]
        lines.append("")
    return "\n".join(lines)


def config_hash(sc):
    import hashlib   # here: it loads OpenSSL, which nothing else needs
    return hashlib.sha256(emit_scenario(sc).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# named scenario registry (one per headline result)


def registry():
    """Built-in scenarios, one per headline long-time result.

    Nothing is checked here: ``scenario_inputs`` checks the values of the one
    scenario it builds, and ``solver.run`` the solver and probe settings.
    """
    scenarios = {}

    def add(name, **specs):
        scenarios[name] = Scenario(name=name, outputs=OutputSpec(f"out/{name}"), **specs)

    add("existence-uniqueness",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}, trunc_tol=1e-8),
        medium=MediumSpec("power-decay", {"amplitude": 1.0, "exponent": 2.0}),
        grid=GridSpec(1, 5.0, 41),
        initial=InitialSpec("gaussian-bump", {"height": 1.0, "width": 0.7}),
        solver=SolverConfig(scheme="picard-oracle", dt=1e-3, t_end=1.0,
                            boundary="zero-extend", snapshot_every=1,
                            floor_alpha=0.3),
        probes=Probes(lp_radius=2.0))

    add("isothermalization",
        kernel=KernelSpec("gaussian", {"sigma": 2.0}),
        medium=MediumSpec("power-decay", {"amplitude": 1.0, "exponent": 2.0}),
        grid=GridSpec(1, 50.0, 801),
        initial=InitialSpec("gaussian-bump", {"height": 1.0, "width": 2.0}),
        solver=SolverConfig(scheme="exponential", dt=0.25, t_end=500.0,
                            boundary="mask", mask_radius=50.0,
                            snapshot_every=80),
        probes=Probes(lp_radius=5.0))

    add("flux-decay",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}),
        medium=MediumSpec("constant", {"value": 1.0}),
        grid=GridSpec(1, 25.0, 501),
        initial=InitialSpec("gaussian-bump", {"height": 1.0, "width": 1.0}),
        solver=SolverConfig(scheme="exponential", dt=0.1, t_end=30.0,
                            boundary="mask", mask_radius=20.0,
                            snapshot_every=10),
        probes=Probes(lp_radius=5.0))

    add("quadratic-growth",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}),
        medium=MediumSpec("power-decay", {"amplitude": 1.0, "exponent": 2.0}),
        grid=GridSpec(1, 30.0, 601),
        initial=InitialSpec("quadratic", {"power": 1.0}, truncate_radius=12.0),
        solver=SolverConfig(scheme="exponential", dt=0.2, t_end=50.0,
                            boundary="zero-extend", snapshot_every=25,
                            floor_alpha=2.0 ** -12),
        probes=Probes(lp_radius=5.0))

    add("unbounded-isothermalization",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}),
        medium=MediumSpec("power-decay", {"amplitude": 1.0, "exponent": 2.0}),
        grid=GridSpec(1, 30.0, 601),
        initial=InitialSpec("quadratic", {"power": 0.4}, truncate_radius=12.0),
        solver=SolverConfig(scheme="exponential", dt=0.2, t_end=200.0,
                            boundary="mask", mask_radius=30.0,
                            snapshot_every=50),
        probes=Probes(lp_radius=5.0))

    add("infinite-isothermalization",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}),
        medium=MediumSpec("power-decay", {"amplitude": 1.0, "exponent": 2.0}),
        grid=GridSpec(1, 30.0, 601),
        initial=InitialSpec("quadratic", {"power": 1.0}, truncate_radius=14.0),
        solver=SolverConfig(scheme="exponential", dt=0.2, t_end=300.0,
                            boundary="zero-extend", snapshot_every=50),
        probes=Probes(lp_radius=5.0))

    add("open-problem-explore",
        kernel=KernelSpec("gaussian", {"sigma": 1.0}),
        medium=MediumSpec("constant", {"value": 1.0}),
        grid=GridSpec(1, 30.0, 601),
        initial=InitialSpec("quadratic", {"power": 1.0}, truncate_radius=20.0),
        solver=SolverConfig(scheme="exponential", dt=0.2, t_end=50.0,
                            boundary="zero-extend", snapshot_every=25),
        probes=Probes(lp_radius=5.0, dist_target="zero"),
        asserted=False)
    return scenarios


# ---------------------------------------------------------------------------
# execution + emission

# (CSV column, DiagnosticsRecord attribute), in column order
CSV_COLUMNS = (("t", "t"), ("mass", "mass"), ("lyapunov_F", "lyapunov_F"), ("sup_u", "sup_u"),
               ("inf_u", "inf_u"), ("dist_L1rho_to_E", "dist_L1rho"),
               ("lp_local_p", "lp_local_p"), ("lp_local_val", "lp_local_val"),
               ("u_at_origin", "u_at_origin"))


def _csv_text(sc, traj, medium):
    cls = classify(medium)
    floor_txt = ("none" if cls.decay_floor is None
                 else f"({cls.decay_floor[0]!r},{cls.decay_floor[1]!r})")
    mass_txt = "inf" if cls.total_mass in (None, math.inf) else repr(cls.total_mass)
    lines = [
        "# isoflow diagnostics v1",
        f"# scenario = {sc.name}",
        f"# config_sha256 = {config_hash(sc)}",
        f"# medium: family={sc.medium.family} integrable={cls.integrable} "
        f"total_mass={mass_txt} decay_floor={floor_txt}",
        ",".join(column for column, _ in CSV_COLUMNS),
    ]
    for rec in traj.diagnostics:
        lines.append(",".join(format(getattr(rec, attr), ".17g") for _, attr in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def scenario_inputs(sc):
    """Build what a scenario runs: (u0, medium, stencil). This is the check of
    its values: a builder's error is a ConfigError naming its section."""
    grid = build_grid(sc.grid)
    return (build_initial(sc.initial, grid), build_medium(sc.medium, grid.dim),
            build_stencil(sc.kernel, grid))


def output_paths(sc, out_dir=None):
    """(directory, csv path) of a scenario's run: ``out_dir``, else
    outputs.directory, checked to be set, and outputs.csv, checked to name a
    file in it."""
    directory, name = out_dir or sc.outputs.directory, sc.outputs.csv
    if not directory:
        raise ConfigError("the output directory is empty", field="outputs.directory")
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"{name!r} names no file in the output directory",
                          field="outputs.csv")
    return directory, os.path.join(directory, name)


def run_scenario(sc, out_dir=None):
    """Execute a scenario and emit its CSV (and snapshots, if requested).

    Returns (trajectory, csv_path). Nothing is written unless the run succeeds.
    """
    directory, csv_path = output_paths(sc, out_dir)
    u0, medium, stencil = scenario_inputs(sc)
    traj = run(u0, medium, stencil, sc.solver, sc.probes)

    text = _csv_text(sc, traj, medium)
    os.makedirs(directory, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if sc.outputs.snapshots == "last":
        t, u = traj.snapshots[-1]
        write_snapshot(os.path.join(directory, "snapshot_final.isof"), u, t)
    elif sc.outputs.snapshots == "all":
        for i, (t, u) in enumerate(traj.snapshots):
            write_snapshot(os.path.join(directory, f"snapshot_{i:05d}.isof"), u, t)
    return traj, csv_path


def with_param(sc, key, value):
    """Scenario copy with one key set, parsed and checked as in a file.

    ``key`` is ``section.key`` or a bare key that only one section has;
    ``value`` is read from its text form with that key's type.
    """
    section, _, name = key.rpartition(".")
    owners = [s for s, types in _KEY_TYPES.items() if name in types and section in ("", s)]
    if len(owners) != 1:
        hint = f"; name one of {[f'{s}.{name}' for s in owners]}" if owners else ""
        raise ConfigError(f"cannot set parameter {key!r}{hint}")
    sections = _sections(sc)
    section = owners[0]
    sections[section][name] = _parse_value(_KEY_TYPES[section][name], name,
                                           _format_value(value, section, name))
    return _build_scenario(sections, sc.name)
