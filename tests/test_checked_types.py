"""One check per value type, whichever way an instance is built.

Every ``NamedTuple`` of the package that defines ``_check`` validates each
new instance, whether it comes from the constructor, ``_make`` or
``_replace``.  The property draws field values, valid and junk, and
requires the three paths to build the same instance or to raise the same
exception with the same message.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ltenergy import analytic, cli, power_model, sweep, traces

CHECKED = sorted(
    {obj for module in (power_model, analytic, sweep, traces, cli)
     for obj in vars(module).values()
     if isinstance(obj, type) and issubclass(obj, tuple)
     and hasattr(obj, "_check")},
    key=lambda cls: cls.__name__)

SCENARIO = analytic.ConnectionlessScenario(t_i=1000.0)
AXIS = sweep.SweepAxis("t_i", 750.0, 1000.0, 50.0)
TIMING = analytic.PhaseTiming(1.0, 2.0, 3.0, 4.0)
# A valid instance of each checked type, to call ``_replace`` on.
VALID = {
    "DutyCycleSpec": power_model.DutyCycleSpec(788.0, 41.0, 100.0, 61.0),
    "PowerProfile": power_model.default_profile(),
    "ConnectionlessScenario": SCENARIO,
    "PhaseTiming": TIMING,
    "EnergyBreakdown": analytic.EnergyBreakdown(1.0, 2.0, 3.0, 4.0, 0.0,
                                                0.0, 10.0),
    "SweepAxis": AXIS,
    "SweepSpec": sweep.SweepSpec(SCENARIO, SCENARIO, (AXIS,)),
    "CostSpec": sweep.CostSpec(0.5, 360000.0, 40.0, (1000.0, 2000.0)),
    "TraceIteration": traces.TraceIteration(TIMING, "get", 1000),
    "RunConfig": cli.RunConfig("eval", None, "csv", None, {}),
}
# (field, value, message) that each type rejects.
INVALID = {
    "DutyCycleSpec": ("period", float("nan"), "must be finite"),
    "PowerProfile": ("p_tx", float("nan"), "p_tx must be finite"),
    "ConnectionlessScenario": ("t_i", float("nan"), "t_i must be finite"),
    "PhaseTiming": ("t_w", -1.0, "t_w must be non-negative"),
    "EnergyBreakdown": ("e_i", 11.0, "e_i must equal the sum"),
    "SweepAxis": ("step", float("nan"), "bounds must be finite"),
    "SweepSpec": ("axes", (), "no sweep axes given"),
    "CostSpec": ("alpha", float("nan"), "alpha must lie in [0, 1]"),
    "TraceIteration": ("app_kind", "put", "must be 'post' or 'get'"),
    "RunConfig": ("output_format", "xml", "format must be 'csv' or 'json'"),
}
JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from(["", "t_i", "get", "post", "csv", "xml", "eval"]),
    st.none(),
    st.booleans(),
    st.sampled_from([(), (AXIS,), (1.0,), {}]),
    st.sampled_from(list(VALID.values())),
)


def test_every_checked_type_has_examples():
    assert sorted(VALID) == sorted(INVALID) == [c.__name__ for c in CHECKED]


def outcome(build):
    """What ``build()`` gives: its type and fields, or the exception's
    type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = build()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), tuple(value)


def paths(cls, values):
    """The outcomes of the constructor, ``_make`` and ``_replace``."""
    return [outcome(lambda: cls(*values)),
            outcome(lambda: cls._make(values)),
            outcome(lambda: VALID[cls.__name__]._replace(
                **dict(zip(cls._fields, values))))]


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_constructor_make_and_replace_agree(cls, data):
    valid = VALID[cls.__name__]
    values = [data.draw(st.one_of(st.just(v), JUNK), label=name)
              for name, v in zip(cls._fields, valid)]
    built, made, replaced = paths(cls, values)
    assert built == made == replaced


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_each_path_rejects_an_invalid_field(cls):
    field, value, message = INVALID[cls.__name__]
    values = [value if name == field else v
              for name, v in zip(cls._fields, VALID[cls.__name__])]
    for kind, text in paths(cls, values):
        assert kind is ValueError and message in text
