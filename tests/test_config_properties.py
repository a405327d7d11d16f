"""``cli.main`` over random ``sweep`` and ``cost`` config objects.

The configs use the commands' known keys with valid or junk values, plus
extra junk keys, and keep every grid to at most 10^3 cells.  Whatever the
config, ``main`` returns 0 or 1, prints ``error:`` whenever it returns 1,
and never raises; a JSON artifact it writes parses as strict JSON, with no
``NaN`` or ``Infinity``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ltenergy import cli
from ltenergy.sweep import SWEEP_AXES

# Values of the wrong type or out of range for any key.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-1", "1e400", "12", " 3 ", "0x10"]),
    st.just(10 ** 400),  # a JSON integer that no float holds
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# Junk grid bounds leave a grid empty, invalid or beyond the cell limit, so
# no junk value makes a grid larger than 10^3 cells.
JUNK_BOUNDS = {
    "start": st.sampled_from([None, True, "abc", "nan", [], 1e300, -1e300,
                              10 ** 400]),
    "stop": st.sampled_from([None, False, "x", "-inf", "1e400", -1, 1e300,
                             10 ** 400]),
    "step": st.sampled_from([None, True, "", "nan", 0, -1, 1e9, 1e-320,
                             10 ** 400]),
}
# A path is replaced by a missing profile or a fresh artifact in a
# temporary directory, whatever its text.
PATHS = {"profile": "missing-profile.json", "out": "artifact"}


class Draw:
    """Draws values that are junk at one rate per config."""

    def __init__(self, draw):
        self.draw = draw
        self.rate = draw(st.sampled_from([0, 2, 10, 40]))  # percent

    def __call__(self, valid, junk=JUNK):
        if self.draw(st.integers(0, 99)) < self.rate:
            return self.draw(junk)
        return self.draw(valid)

    def keys(self, config):
        """``config`` with a key dropped and junk keys added, at the rate."""
        if self.draw(st.integers(0, 99)) < self.rate:
            del config[self.draw(st.sampled_from(sorted(config)))]
        if self.draw(st.integers(0, 99)) < self.rate:
            config.update(self.draw(st.dictionaries(
                st.text(min_size=1, max_size=8), JUNK, max_size=2)))
        return config


def grid(maybe, low, high):
    """(start, stop, step) of at most 10 values, each possibly junk."""
    start = maybe.draw(st.integers(low, high))
    step = maybe.draw(st.sampled_from([1, 50, 250, 0.5, 1000.5]))
    stop = start + step * maybe.draw(st.integers(0, 9))
    return tuple(maybe(st.just(value), JUNK_BOUNDS[key]) for key, value in
                 (("start", start), ("stop", stop), ("step", step)))


def sweep_config(maybe):
    number = st.floats(0, 20000, allow_nan=False)
    base = {key: maybe(number) for key in (
        "t_i", "t_elab", "rtt_edge", "rtt_cloud", "b_tx", "b_rx")}
    base["uplink_bps"] = maybe(st.just(1e6))
    base["downlink_bps"] = maybe(st.just(8e5))
    axes = []
    for name in maybe.draw(st.lists(st.sampled_from(SWEEP_AXES),
                                    min_size=1, max_size=3)):
        start, stop, step = grid(maybe, 0, 5000)
        axes.append(maybe.keys({"name": maybe(st.just(name)), "start": start,
                                "stop": stop, "step": step}))
    return {"command": maybe(st.just("sweep")),
            "base": maybe(st.just(maybe.keys(base))),
            "axes": maybe(st.just(axes))}


def cost_config(maybe):
    t_i_min, t_i_max, t_i_step = grid(maybe, 100, 20000)
    alphas = [maybe(st.floats(0, 1))
              for _ in range(maybe.draw(st.integers(0, 3)))]
    return {"command": maybe(st.just("cost")),
            "alphas": maybe(st.just(alphas)),
            "hourly_bytes": maybe(st.floats(1, 1e7)),
            "rtt": maybe(st.floats(0, 2000)),
            "reply_bytes": maybe(st.floats(0, 1e4)),
            "t_i_min": t_i_min, "t_i_max": t_i_max, "t_i_step": t_i_step}


@st.composite
def configs(draw):
    maybe = Draw(draw)
    command = draw(st.sampled_from(["sweep", "cost"]))
    config = (sweep_config if command == "sweep" else cost_config)(maybe)
    not_text = JUNK.filter(lambda v: not isinstance(v, str))
    config["profile"] = maybe(st.none(), st.one_of(st.just(""), not_text))
    config["out"] = maybe(st.just(""), not_text)
    config["format"] = maybe(st.sampled_from(["csv", "json"]))
    return command, maybe.keys(config)


def reject_constant(name):
    raise AssertionError(f"JSON artifact holds {name}, which JSON forbids")


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs())
@example(case=("sweep", {"out": 1, "base": {"t_i": 1000}, "axes": [
    {"name": "t_i", "start": 1000, "stop": 2000, "step": 500}]}))
@example(case=("cost", {"alphas": [True], "hourly_bytes": 1e4, "rtt": 40,
                        "t_i_min": 2000, "t_i_max": 4000, "t_i_step": 2000}))
@example(case=("cost", {"alphas": [0.5], "hourly_bytes": 1e4, "rtt": 40,
                        "t_i_min": 10 ** 400, "t_i_max": 4000,
                        "t_i_step": 2000}))
@example(case=("sweep", {"format": "json", "base": {"t_i": 1e308},
                         "axes": [{"name": "rtt_cloud", "start": 50,
                                   "stop": 100, "step": 50}]}))
def test_main_ends_in_exit_code_or_error_line(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        for key, name in PATHS.items():
            if isinstance(config.get(key), str):
                config[key] = str(Path(tmp) / name)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ")
            return
        assert err.getvalue() == ""
        if config.get("format") == "json":
            artifact = (Path(config["out"]).read_text(encoding="utf-8")
                        if isinstance(config.get("out"), str)
                        else out.getvalue())
            json.loads(artifact, parse_constant=reject_constant)
