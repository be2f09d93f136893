"""Property tests for the scenario text format: emit/parse and with_param
round trips over generated scenarios, and strings the format cannot carry;
and for the kernel and medium family tables that the format reads, which
the constructors check against."""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isoflow import (ConfigError, Kernel, KernelError, Medium, MediumError, Probes,
                     SolverConfig, classify)
from isoflow.kernels import FAMILIES as KERNEL_FAMILIES
from isoflow.media import FAMILIES as MEDIUM_FAMILIES
from isoflow.scenario import (_FAMILIES, GridSpec, InitialSpec, KernelSpec,
                              MediumSpec, OutputSpec, Scenario, _format_value,
                              _sections, build_medium, emit_scenario,
                              parse_scenario_text, with_param)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _writable(text):
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


texts = st.text(max_size=12).filter(_writable)
finite = st.floats(-1e3, 1e3, allow_nan=False)
# values inside each parameter domain of kernels._DOMAINS
in_domain = {"finite": finite, "positive": st.floats(1e-3, 1e3),
             "nonnegative": st.floats(0.0, 1e3)}


def _family(draw, kind, value=None):
    """A family of ``kind`` with every required and some optional parameters,
    each scalar drawn from ``value`` if given, else from its domain."""
    family = draw(st.sampled_from(sorted(_FAMILIES[kind])))
    params = {}
    for key, entry in _FAMILIES[kind][family].items():
        default, domain = entry
        if isinstance(default, type) or draw(st.booleans()):
            params[key] = (draw(st.lists(finite, max_size=4)) if default is list
                           else draw(in_domain[domain] if value is None else value))
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
    family, params = _family(draw, "initial")
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
    return Scenario(draw(texts), kernel, medium, grid, initial, solver, outputs, probes,
                    asserted=draw(st.booleans()))


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


# (constructor, its error, its family table)
_CONSTRUCTORS = [(lambda family, p: Kernel(family, 1, **p), KernelError, KERNEL_FAMILIES),
                 (lambda family, p: Medium(family, 1, p), MediumError, MEDIUM_FAMILIES)]
_NAMES = sorted({k for *_, table in _CONSTRUCTORS for schema in table.values()
                 for k in schema} | {"bogus"})
# values outside each domain, NaN and both infinities among them
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])
outside = {"finite": not_finite,
           "positive": st.floats(max_value=0.0) | not_finite,
           "nonnegative": st.floats(max_value=-5e-324) | not_finite}
# a unit-mass 1-D table for the tabulated kernel; 1.0 lies in every scalar domain
_VALID = {"radii": [0.0, 1.0], "values": [1.0, 0.0]}


@SETTINGS
@given(st.data())
def test_constructors_reject_a_missing_extra_or_out_of_domain_parameter(data):
    # each family's valid parameters with one of them dropped, one it does not
    # take added, or one moved outside its domain
    for build, error, table in _CONSTRUCTORS:
        for family, schema in table.items():
            good = {k: _VALID.get(k, 1.0) for k in schema}
            build(family, good)
            required = sorted(k for k, (d, _) in schema.items() if isinstance(d, type))
            gone = data.draw(st.sampled_from(required))
            extra = data.draw(st.sampled_from([k for k in _NAMES if k not in schema]))
            faults = [{k: v for k, v in good.items() if k != gone}, {**good, extra: 1.0}]
            faults += [{**good, k: data.draw(outside[domain])}
                       for k, (_, domain) in schema.items() if domain is not None]
            for params in faults:
                with pytest.raises(error):
                    build(family, params)


@pytest.mark.parametrize("build, message", [
    (lambda: Kernel("gaussian", 1), r"missing parameter\(s\) \['sigma'\]"),
    (lambda: Kernel("uniform-ball", 1, radius=1.0, sigma=2.0), r"does not take \['sigma'\]"),
    (lambda: Medium("power-decay", 1, {"amplitude": 1.0}), r"missing .*\['exponent'\]"),
    (lambda: Medium("power-decay", 1, {"amplitude": 1.0, "exponent": 2.0, "bogus": 5}),
     r"does not take \['bogus'\]"),
    (lambda: Medium("constant", 1, {"value": 1.0, "sigma": -1.0}),
     r"does not take \['sigma'\]"),
], ids=["kernel-missing", "kernel-extra", "medium-missing", "medium-extra",
        "medium-extra-out-of-domain"])
def test_constructor_names_the_parameter_at_fault(build, message):
    # a KeyError, an accepted input, or a check of a parameter the family
    # does not take, before the family tables
    with pytest.raises((KernelError, MediumError), match=message):
        build()
