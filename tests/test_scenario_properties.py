"""Property tests for the scenario text format: emit/parse and with_param
round trips over generated scenarios, and strings the format cannot carry."""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isoflow import ConfigError, Probes, SolverConfig, classify
from isoflow.scenario import (_FAMILIES, GridSpec, InitialSpec, KernelSpec,
                              MediumSpec, OutputSpec, Scenario, _format_value,
                              _sections, build_medium, emit_scenario,
                              parse_scenario_text, validate_scenario, with_param)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _writable(text):
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


texts = st.text(max_size=12).filter(_writable)
finite = st.floats(-1e3, 1e3, allow_nan=False)


def _family(draw, kind, value):
    """A family of ``kind`` with every required and some optional parameters."""
    family = draw(st.sampled_from(sorted(_FAMILIES[kind])))
    params = {}
    for key, default in _FAMILIES[kind][family].items():
        if isinstance(default, type) or draw(st.booleans()):
            params[key] = (draw(st.lists(finite, max_size=4)) if default is list
                           else draw(value))
    return family, params


@st.composite
def scenarios(draw):
    dim = draw(st.sampled_from([1, 2]))
    half = draw(st.floats(10.0, 50.0))
    grid = GridSpec(dim, half, 2 * draw(st.integers(1, 1000)) + 1)

    family, params = _family(draw, "kernel", st.floats(0.05, 0.5))
    if family == "tabulated":
        # a linear ramp from J(0) down to J(R) = 0 with unit mass
        R = draw(st.floats(0.05, 0.5))
        params = {"radii": [0.0, R],
                  "values": [1.0 / R if dim == 1 else 3.0 / (math.pi * R * R), 0.0]}
    kernel = KernelSpec(family, params, trunc_tol=draw(st.floats(1e-14, 1e-4)),
                        renormalize=draw(st.booleans()))
    medium = MediumSpec(*_family(draw, "medium", st.floats(0.1, 5.0)))
    family, params = _family(draw, "initial", finite)
    if family == "table":
        # strictly increasing radii with one value each
        radii = sorted(set(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4))))
        params = {"radii": radii, "values": draw(st.lists(finite, min_size=len(radii),
                                                          max_size=len(radii)))}
    initial = InitialSpec(family, params,
                          truncate_radius=draw(st.none() | st.floats(0.0, 1e3)))

    scheme = draw(st.sampled_from(["euler", "exponential", "picard-oracle"]))
    boundary = ("zero-extend" if scheme == "picard-oracle"
                else draw(st.sampled_from(["zero-extend", "mask"])))
    solver = SolverConfig(
        scheme=scheme, dt=draw(st.floats(1e-6, 10.0)), t_end=draw(st.floats(0.0, 1e4)),
        boundary=boundary,
        mask_radius=draw(st.floats(0.1, half)) if boundary == "mask" else None,
        snapshot_every=draw(st.integers(1, 10 ** 6)),
        floor_alpha=draw(st.none() | st.floats(1e-6, 10.0)),
        picard_tol=draw(st.floats(1e-14, 1e-2)))

    targets = ["auto", "zero"]
    if classify(build_medium(medium, dim)).integrable is True:
        targets.append("e_rho")
    probes = Probes(lp_p=draw(st.floats(1.0, 10.0)),
                    lp_radius=draw(st.none() | st.floats(0.0, half, exclude_min=True)),
                    dist_target=draw(st.sampled_from(targets)))
    outputs = OutputSpec(draw(texts), draw(texts),
                         draw(st.sampled_from(["none", "last", "all"])))
    sc = Scenario(draw(texts), kernel, medium, grid, initial, solver, outputs, probes,
                  asserted=draw(st.booleans()))
    validate_scenario(sc)
    return sc


@SETTINGS
@given(scenarios())
def test_parse_emit_round_trip(sc):
    text = emit_scenario(sc)
    back = parse_scenario_text(text)
    assert back == sc
    assert emit_scenario(back) == text


@SETTINGS
@given(scenarios(), scenarios())
def test_with_param_round_trips_every_scalar_key(sc, other):
    others = _sections(other)
    for section, data in _sections(sc).items():
        for key, value in data.items():
            if isinstance(value, list):
                continue
            name = f"{section}.{key}"
            assert with_param(sc, name, _format_value(value, section, key)) == sc
            new = others[section].get(key)
            if new is None or isinstance(new, list):
                continue
            try:
                varied = with_param(sc, name, _format_value(new, section, key))
            except ConfigError:
                continue  # the other scenario's value does not fit this one
            assert _sections(varied)[section][key] == new
            assert type(_sections(varied)[section][key]) is type(new)
            assert parse_scenario_text(emit_scenario(varied)) == varied


breaks = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
unwritable = st.one_of(
    st.tuples(texts, texts).map(lambda ab: f"{ab[0]}#{ab[1]}"),
    st.tuples(texts, breaks, texts).map("".join),
    st.tuples(st.sampled_from([" ", "\t", "\u3000"]), texts, st.booleans()).map(
        lambda t: t[0] + t[1] if t[2] else t[1] + t[0]),
)


@SETTINGS
@given(scenarios(), unwritable, st.sampled_from(["scenario.name", "outputs.directory",
                                                 "outputs.csv"]))
def test_unwritable_strings_raise(sc, text, field):
    section, key = field.split(".")
    bad = (replace(sc, name=text) if section == "scenario"
           else replace(sc, outputs=replace(sc.outputs, **{key: text})))
    with pytest.raises(ConfigError, match=f"field {field}"):
        emit_scenario(bad)
    with pytest.raises(ConfigError):
        with_param(sc, field, text)
