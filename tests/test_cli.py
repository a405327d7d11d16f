import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ltenergy import cli, sweep, traces
from ltenergy.power_model import default_profile, profile_to_dict

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "figures"
# sha256 of every figure artifact, frozen from the first release's output.
FIGURE_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "figure_digests.json").read_text())


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def sweep_config(**overrides):
    config = {
        "command": "sweep",
        "base": {"t_i": 1000, "t_elab": 150, "rtt_edge": 40,
                 "b_tx": 16000, "b_rx": 16000},
        "axes": [{"name": "rtt_cloud", "start": 50, "stop": 300,
                  "step": 50}],
    }
    config.update(overrides)
    return config


class TestFigureGoldens:
    @pytest.mark.parametrize("label", sorted(FIGURE_DIGESTS))
    def test_artifact_byte_identical(self, tmp_path, label):
        name, fmt = label.split(".")
        config_path = FIGURES / f"{name}.json"
        command = json.loads(config_path.read_text())["command"]
        out = tmp_path / label
        code = cli.main([command, "--config", str(config_path),
                         "--format", fmt, "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == FIGURE_DIGESTS[label]


class TestMalformedSweepConfig:
    @pytest.mark.parametrize("key", ["name", "start", "stop", "step"])
    def test_axis_missing_key(self, tmp_path, capsys, key):
        config = sweep_config()
        del config["axes"][0][key]
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", ["rtt_cloud", 5, None, [1, 2]])
    def test_axis_not_an_object(self, tmp_path, capsys, entry):
        config = sweep_config(axes=[entry])
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert "sweep axis must be an object" in capsys.readouterr().err

    def test_axes_not_a_list(self, tmp_path, capsys):
        config = sweep_config(axes=5)
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_axis_bound_not_a_number(self, tmp_path, capsys):
        config = sweep_config()
        config["axes"][0]["start"] = None
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert "must be a number" in capsys.readouterr().err

    def test_non_finite_axis_bound(self, tmp_path, capsys):
        config = sweep_config()
        config["axes"][0]["stop"] = "inf"
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err

    def test_nan_base_rtt_rejected_where_it_enters(self, tmp_path, capsys):
        config = sweep_config()
        config["base"]["rtt_edge"] = "nan"
        code = cli.main(["sweep", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert "rtt must be finite" in capsys.readouterr().err


class TestNonFiniteEval:
    @pytest.mark.parametrize("flag", ["--t-i", "--rtt", "--b-tx"])
    def test_infinite_input_rejected(self, capsys, flag):
        argv = ["eval", "--t-i", "1000"]
        if flag == "--t-i":
            argv = ["eval"]
        code = cli.main(argv + [flag, "inf"])
        out = capsys.readouterr()
        assert code == 1
        assert "must be finite" in out.err
        assert "E_I" not in out.out


class TestEmitRendersRequestedFormatOnly:
    @pytest.mark.parametrize("fmt, unused", [
        ("csv", "to_json_obj"), ("csv", "json_text"),
        ("json", "rows"), ("json", "to_json_obj"),
    ])
    def test_sweep(self, tmp_path, monkeypatch, fmt, unused):
        def fail(self):
            raise AssertionError(f"{unused} rendered for --format {fmt}")

        monkeypatch.setattr(sweep.SweepResult, unused, fail)
        out = tmp_path / f"grid.{fmt}"
        code = cli.main(["sweep", "--config",
                         write_config(tmp_path, sweep_config()),
                         "--format", fmt, "--out", str(out)])
        assert code == 0
        assert out.read_text()


EVAL_ARGV = ["eval", "--t-i", "30000", "--t-elab", "150", "--rtt", "12000",
             "--b-tx", "16000", "--b-rx", "16000"]
EVAL_STDOUT = """\
T_TX = 128.000 ms
T_W = 12150.000 ms
T_RX = 160.000 ms
T_Q = 17162.000 ms
E_TX = 153.6 mJ
E_W = 2147.0 mJ
E_RX = 160.0 mJ
E_Q = 2218.4 mJ
E_PROM_TX = 240.0 mJ
E_PROM_RX = 240.0 mJ
E_I = 5159.0 mJ
"""
EVAL_CSV = """\
t_tx_ms,t_w_ms,t_rx_ms,t_q_ms,e_tx_mj,e_w_mj,e_rx_mj,e_q_mj,\
e_prom_tx_mj,e_prom_rx_mj,e_i_mj
128.000,12150.000,160.000,17162.000,153.6,2147.0,160.0,2218.4,240.0,240.0,\
5159.0
"""
EVAL_JSON = """\
{
  "t_tx_ms": 128.0,
  "t_w_ms": 12150.0,
  "t_rx_ms": 160.0,
  "t_q_ms": 17162.0,
  "e_tx_mj": 153.6,
  "e_w_mj": 2147.0,
  "e_rx_mj": 160.0,
  "e_q_mj": 2218.4,
  "e_prom_tx_mj": 240.0,
  "e_prom_rx_mj": 240.0,
  "e_i_mj": 5159.0
}
"""


class TestEvalGolden:
    """A cycle with both IDLE promotions, printed and written."""

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", EVAL_CSV), ("json", EVAL_JSON),
    ])
    def test_stdout_and_artifact(self, tmp_path, capsys, fmt, expected):
        out = tmp_path / f"eval.{fmt}"
        code = cli.main(EVAL_ARGV + ["--format", fmt, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == EVAL_STDOUT
        assert out.read_text() == expected


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_figure_digest_copies_agree():
    """The benchmark and the tests freeze the figures from one digest file."""
    bench_copy = ROOT / "bench" / "figure_digests.json"
    test_copy = Path(__file__).resolve().parent / "figure_digests.json"
    assert test_copy.read_bytes() == bench_copy.read_bytes()


POWER_TABLE_CSV = """\
parameter,value
p_tx,1200
p_rx,1000
p_cr,1000
p_short,359.07
p_long,163.23
p_idle,14.25
p_prom,1200
t_cr,200
t_short,400
t_long,11000
t_prom,200
short_drx.wake_power,788
short_drx.wake_duration,41
short_drx.period,100
short_drx.sleep_power,61
long_drx.wake_power,788
long_drx.wake_duration,45
long_drx.period,320
long_drx.sleep_power,61
idle.wake_power,570
idle.wake_duration,32
idle.period,1280
idle.sleep_power,0
"""
# Flag-only: no --config and no --reply-bytes, so the reply defaults to 1 B.
COST_ARGV = ["cost", "--alpha", "0.2", "--alpha", "0.8",
             "--hourly-bytes", "360000", "--rtt", "40", "--t-i-min", "2000",
             "--t-i-max", "20000", "--t-i-step", "6000"]
COST_CSV = """\
alpha,t_i_ms,e_mj_per_hour,d_ms,cost,is_argmin
0.2,2000,1093118.4,2000,0.280000,1
0.2,8000,716240.0,8000,0.451045,0
0.2,14000,633401.6,14000,0.675889,0
0.2,20000,459795.6,20000,0.884125,0
0.8,2000,1093118.4,2000,0.820000,0
0.8,8000,716240.0,8000,0.604181,0
0.8,14000,633401.6,14000,0.603556,0
0.8,20000,459795.6,20000,0.536502,1
"""
TRACE_ANALYZE_CSV = {
    "get": """\
app_kind,file_size,t_i,c,t_tx_ms,t_w_ms,t_rx_ms,t_q_ms,e_i_mJ,rho
get,200000,30000,4,23.000,2.000,109.698,29665.302,8327.7,0.913
get,200000,30000,4,87.000,2.000,300.586,29410.414,9119.8,
""",
    "post": """\
app_kind,file_size,t_i,c,t_tx_ms,t_w_ms,t_rx_ms,t_q_ms,e_i_mJ,rho
post,60160,30000,4,75.371,2.000,0.200,29722.429,8190.1,0.923
post,60160,30000,4,267.371,2.000,0.200,29530.429,8873.1,
""",
}
# sha256 of the JSON artifacts, frozen from the release before the
# extractor, parser and flag/config merge were consolidated.
JSON_DIGESTS = {
    "power-table": "56cb0c02f484ef1dd8d9b6e990d09f0f6a7357627cdc92a87a61dca56cea999b",
    "cost": "c593656543ca88309c8dbfc76f05140999632eb6a7cb5fb7a1ca34d8d4afdefa",
    "get": "9e43fa530c2dd56692d8adb542522f31fd09218054b578b856b40baf66df899d",
    "post": "50d3b54393c4d6a87e3010ef51a5f596e8e02a8ee55c6b84c69ad98488f87d93",
}
# sha256 of the ``trace-synth --rtt 20 --bottleneck 20e6 --seed 0`` export,
# frozen from the release before the planner's bulk loops were merged.
TRACE_SYNTH_DIGESTS = {
    ("get", 200000):
        "f1da917da1b63406125a784ab691e90eb2fbead2292464ee471686e2e6fed4fa",
    ("post", 60000):
        "023b92c32ca2d5661b468394f017600d9c8719c3071a43b2695300a0443deccc",
}
CLIENT = "198.51.100.10:52000"


def synth_exports(tmp_path, kind, file_size):
    """Three edge and three cloud exports at distinct RTTs and seeds."""
    placements = {"edge": [], "cloud": []}
    for rep in range(3):
        for name, rtt in (("edge", 20 + 3 * rep), ("cloud", 80 + 7 * rep)):
            path = tmp_path / f"{kind}-{name}-{rep}.tsv"
            code = cli.main([
                "trace-synth", "--kind", kind, "--file-size", str(file_size),
                "--rtt", str(rtt), "--bottleneck", "20e6",
                "--seed", str(11 * rep + len(name)), "--out", str(path)])
            assert code == 0
            placements[name].append(str(path))
    return placements["edge"], placements["cloud"]


class TestArtifactGoldens:
    def test_power_table_csv(self, capsys):
        assert cli.main(["power-table"]) == 0
        assert capsys.readouterr().out == POWER_TABLE_CSV

    def test_power_table_json(self, tmp_path):
        out = tmp_path / "profile.json"
        assert cli.main(["power-table", "--format", "json",
                         "--out", str(out)]) == 0
        assert sha256(out) == JSON_DIGESTS["power-table"]

    def test_flag_only_cost_csv(self, capsys):
        assert cli.main(COST_ARGV) == 0
        assert capsys.readouterr().out == COST_CSV

    def test_flag_only_cost_json(self, tmp_path):
        out = tmp_path / "cost.json"
        assert cli.main(COST_ARGV + ["--format", "json",
                                     "--out", str(out)]) == 0
        assert sha256(out) == JSON_DIGESTS["cost"]

    @pytest.mark.parametrize("kind, file_size", [("get", 200000),
                                                 ("post", 60000)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_analyze(self, tmp_path, kind, file_size, fmt):
        edge, cloud = synth_exports(tmp_path, kind, file_size)
        out = tmp_path / f"{kind}.{fmt}"
        code = cli.main(["trace-analyze", "--kind", kind, "--client", CLIENT,
                         "--t-i", "30000", "--concurrency", "4",
                         "--format", fmt, "--out", str(out),
                         *edge, "--cloud", *cloud])
        assert code == 0
        if fmt == "csv":
            assert out.read_text() == TRACE_ANALYZE_CSV[kind]
        else:
            assert sha256(out) == JSON_DIGESTS[kind]

    @pytest.mark.parametrize("kind, file_size", sorted(TRACE_SYNTH_DIGESTS))
    def test_trace_synth(self, tmp_path, kind, file_size):
        out = tmp_path / f"{kind}.tsv"
        assert cli.main(["trace-synth", "--kind", kind, "--file-size",
                         str(file_size), "--rtt", "20", "--bottleneck", "20e6",
                         "--seed", "0", "--out", str(out)]) == 0
        assert sha256(out) == TRACE_SYNTH_DIGESTS[kind, file_size]


def cost_config(**overrides):
    config = {"command": "cost", "alphas": [0.5], "hourly_bytes": 360000,
              "rtt": 40, "t_i_min": 2000, "t_i_max": 20000,
              "t_i_step": 6000}
    config.update(overrides)
    return config


def assert_cli_error(argv, capsys, message):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert message in err


class TestWrongTypeInputs:
    """Values of the wrong type end as ``error:``, never as a traceback."""

    @pytest.mark.parametrize("field, block", [("p_tx", None),
                                              ("period", "idle")])
    def test_null_profile_field(self, tmp_path, capsys, field, block):
        data = profile_to_dict(default_profile())
        (data[block] if block else data)[field] = None
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        assert_cli_error(["power-table", "--profile", str(path)], capsys,
                         f"{field} must be a number, got None")

    @pytest.mark.parametrize("key, value, message", [
        ("t_i_step", "abc", "t_i_step must be a number, got 'abc'"),
        ("t_i_max", "inf", "must be finite"),
        ("alphas", 5, "alphas must be a list of numbers"),
        ("alphas", [], "alphas must be a non-empty list of numbers"),
    ])
    def test_cost_config_value(self, tmp_path, capsys, key, value, message):
        config = write_config(tmp_path, cost_config(**{key: value}))
        assert_cli_error(["cost", "--config", config], capsys, message)

    def test_numeric_strings_price_like_numbers(self, tmp_path, capsys):
        config = write_config(tmp_path, cost_config(
            alphas=["0.2", "0.8"], t_i_min="2000", hourly_bytes="360000"))
        assert cli.main(["cost", "--config", config]) == 0
        assert capsys.readouterr().out == COST_CSV

    def test_infinite_hourly_bytes(self, capsys):
        argv = COST_ARGV + ["--hourly-bytes", "inf"]
        assert_cli_error(argv, capsys, "hourly_bytes must be finite")

    @pytest.mark.parametrize("flag, value, message", [
        ("--rtt", "nan", "rtt must be finite"),
        ("--rtt", "-5", "rtt must be non-negative"),
        ("--reply-bytes", "-1", "reply_bytes must be non-negative"),
    ])
    def test_cost_scenario_value(self, capsys, flag, value, message):
        assert_cli_error(COST_ARGV + [flag, value], capsys, message)


def test_second_connection_from_client_host_rejected(tmp_path, capsys):
    """An export that mixes in another connection of the client's host is
    rejected rather than analysed as part of the exchange."""
    path = tmp_path / "mixed.tsv"
    assert cli.main(["trace-synth", "--kind", "get", "--file-size", "5000",
                     "--rtt", "20", "--bottleneck", "20e6",
                     "--out", str(path)]) == 0
    host = CLIENT.rsplit(":", 1)[0]
    with path.open("a") as fp:
        fp.write(f"9.000000\t{host}\t203.0.113.5\t52001\t80\t10\tPA\t1\t1\n")
    assert_cli_error(["trace-analyze", "--kind", "get", "--client", CLIENT,
                      "--t-i", "30000", str(path)], capsys,
                     f"does not involve client {CLIENT}")


class TestBadTraceInputs:
    """Bad trace and cost inputs end as ``error:`` where they enter."""

    @pytest.fixture
    def export(self, tmp_path):
        path = tmp_path / "get.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "5000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(path)]) == 0
        return path

    def analyze(self, path, *flags):
        return ["trace-analyze", "--kind", "get", "--client", CLIENT,
                *flags, str(path)]

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_timestamp(self, export, capsys, text):
        lines = export.read_text().splitlines()
        lines[2] = text + lines[2][lines[2].index("\t"):]
        export.write_text("\n".join(lines) + "\n")
        assert_cli_error(self.analyze(export, "--t-i", "30000"), capsys,
                         f"line 3: bad timestamp '{text}'")

    @pytest.mark.parametrize("t_i", ["inf", "nan", "0", "-5"])
    def test_t_i_not_finite_and_positive(self, export, capsys, t_i):
        assert_cli_error(self.analyze(export, "--t-i", t_i), capsys,
                         "t_i must be finite and strictly positive")

    def test_negative_concurrency(self, export, capsys):
        assert_cli_error(
            self.analyze(export, "--t-i", "30000", "--concurrency", "-3"),
            capsys, "concurrency must be non-negative, got -3")

    @pytest.mark.parametrize("rtt, bottleneck, name", [
        ("inf", "20e6", "rtt"), ("nan", "20e6", "rtt"),
        ("20", "inf", "bottleneck"), ("20", "nan", "bottleneck"),
        ("20", "0", "bottleneck"), ("20", "1e-300", "bottleneck"),
        ("20", "1e-298", "bottleneck"), ("1e305", "20e6", "rtt"),
        ("1e306", "20e6", "rtt")])
    def test_trace_synth_parameter(self, tmp_path, capsys, rtt, bottleneck,
                                   name):
        message = f"{name} must be finite and strictly positive"
        if name == "bottleneck" and 0 < float(bottleneck) < float("inf"):
            # Valid on its own, but too slow for finite segment times: at
            # 1e-300 the segment gap overflows, at 1e-298 the third segment.
            message = (f"bottleneck {bottleneck} bit/s with rtt "
                       f"{float(rtt)!r} ms gives segment times that are not "
                       "finite")
        if name == "rtt" and 0 < float(rtt) < float("inf"):
            # Valid on its own, but its trace times overflow a float: at
            # 1e306 the rtt in microseconds, at 1e305 the request's ACK.
            message = (f"rtt {float(rtt)!r} ms gives trace times that are "
                       "not finite")
        assert_cli_error(
            ["trace-synth", "--kind", "get", "--file-size", "5000",
             "--rtt", rtt, "--bottleneck", bottleneck,
             "--out", str(tmp_path / "out.tsv")], capsys, message)

    def test_cost_overrun_message_is_short(self, capsys):
        code = cli.main(["cost", "--hourly-bytes", "1e300", "--rtt", "40",
                         "--t-i-min", "2000", "--t-i-max", "4000",
                         "--t-i-step", "2000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cycle phases exceed the period by ")
        assert len(err) < 100

    def test_cost_payload_overflow(self, capsys):
        assert_cli_error(
            ["cost", "--hourly-bytes", "1e308", "--rtt", "40", "--t-i-min",
             "2000", "--t-i-max", "4000", "--t-i-step", "2000"], capsys,
            "hourly_bytes 1e+308 at t_i 2000.0 ms gives a per-cycle payload")


def profile_file(tmp_path, **fields):
    """A profile file: the bundled profile with ``fields`` replaced."""
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({**profile_to_dict(default_profile()),
                                **fields}))
    return str(path)


class TestOverflowingEnergy:
    """An energy or ratio that overflows a float ends as ``error:`` and
    writes nothing: ``json`` would spell it ``Infinity`` or ``NaN``, which
    JSON does not allow, and CSV ``inf`` or ``nan``."""

    def assert_no_artifact(self, argv, tmp_path, capsys, message):
        out = tmp_path / "artifact"
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_eval(self, tmp_path, capsys, fmt):
        self.assert_no_artifact(
            ["eval", "--t-i", "1e308", "--rtt", "40", "--format", fmt],
            tmp_path, capsys, "cycle energy overflows a float")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep(self, tmp_path, capsys, fmt):
        config = write_config(tmp_path, sweep_config(
            base={"t_i": 1e308, "rtt_edge": 40}))
        self.assert_no_artifact(
            ["sweep", "--config", config, "--format", fmt],
            tmp_path, capsys, "cycle energy overflows a float")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_analyze(self, tmp_path, capsys, fmt):
        edge, cloud = synth_exports(tmp_path, "get", 5000)
        self.assert_no_artifact(
            ["trace-analyze", "--kind", "get", "--client", CLIENT,
             "--t-i", "1e308", "--format", fmt, *edge, "--cloud", *cloud],
            tmp_path, capsys, "cycle energy overflows a float")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_analyze_period(self, tmp_path, capsys, fmt):
        """Each cycle energy is finite without IDLE power, but three
        periods of 1e308 ms, which bound the means, are not."""
        edge, cloud = synth_exports(tmp_path, "get", 5000)
        profile = profile_file(tmp_path, p_idle=0, idle=None)
        self.assert_no_artifact(
            ["trace-analyze", "--kind", "get", "--client", CLIENT,
             "--t-i", "1e308", "--profile", profile, "--format", fmt,
             *edge, "--cloud", *cloud],
            tmp_path, capsys,
            "t_i 1e+308 ms over 3 repetitions overflows a float")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cost(self, tmp_path, capsys, fmt):
        profile = profile_file(tmp_path, p_tx=1.5e307)
        self.assert_no_artifact(
            ["cost", "--hourly-bytes", "1e7", "--rtt", "50", "--t-i-min",
             "500", "--t-i-max", "120000", "--t-i-step", "500",
             "--profile", profile, "--format", fmt],
            tmp_path, capsys, "overflows a float")


HUGE = 10 ** 400  # a JSON integer that no float holds


class TestHugeIntegers:
    """A config or profile integer too large for a float ends as
    ``error:`` naming its field, not as an ``OverflowError``."""

    @pytest.mark.parametrize("config, what", [
        (sweep_config(base={"t_i": HUGE}), "base t_i"),
        (sweep_config(axes=[{"name": "rtt_cloud", "start": HUGE,
                             "stop": 300, "step": 50}]),
         "axis rtt_cloud start"),
        (cost_config(t_i_min=HUGE), "t_i_min"),
        (cost_config(alphas=[0.5, HUGE]), "alpha"),
    ])
    def test_config_value(self, tmp_path, capsys, config, what):
        path = write_config(tmp_path, config)
        assert_cli_error([config["command"], "--config", path], capsys,
                         f"error: {what} is too large for a float\n")

    def test_profile_field(self, tmp_path, capsys):
        assert_cli_error(
            ["power-table", "--profile", profile_file(tmp_path, t_cr=HUGE)],
            capsys, "error: profile field t_cr is too large for a float\n")


class TestTraceAnalyzeKind:
    """``--kind`` names the bulk stream, the request of a POST and the
    response of a GET, which must not be the smaller of the two; a tie
    cannot contradict it."""

    def export(self, tmp_path, kind, file_size):
        path = tmp_path / f"{kind}-{file_size}.tsv"
        assert cli.main(["trace-synth", "--kind", kind, "--file-size",
                         str(file_size), "--rtt", "20", "--bottleneck",
                         "20e6", "--out", str(path)]) == 0
        return str(path)

    def analyze(self, kind, *paths):
        return ["trace-analyze", "--kind", kind, "--client", CLIENT,
                "--t-i", "30000", *paths]

    @pytest.mark.parametrize("kind, file_size, wrong, message", [
        ("get", 200000, "post", "--kind post names the request, 150 bytes, "
         "but the response is larger, 200000 bytes"),
        ("post", 60000, "get", "--kind get names the response, 100 bytes, "
         "but the request is larger, 60160 bytes"),
    ])
    def test_smaller_stream_rejected(self, tmp_path, capsys, kind,
                                     file_size, wrong, message):
        path = self.export(tmp_path, kind, file_size)
        assert_cli_error(self.analyze(wrong, path), capsys,
                         f"error: {path}: {message}\n")

    def test_cloud_export_checked_too(self, tmp_path, capsys):
        post, get = (self.export(tmp_path, "post", 60000),
                     self.export(tmp_path, "get", 60000))
        assert_cli_error(self.analyze("post", post, "--cloud", get), capsys,
                         f"{get}: --kind post names the request")

    @pytest.mark.parametrize("kind", ["post", "get"])
    def test_tie_keeps_the_named_kind(self, tmp_path, capsys, kind):
        """A GET of 150 bytes moves as many bytes as its request."""
        path = self.export(tmp_path, "get", 150)
        assert cli.main(self.analyze(kind, path)) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == [kind, "150"]


class TestTraceAnalyzePlacements:
    def test_mismatched_file_sizes_rejected(self, tmp_path, capsys):
        paths = []
        for name, size in (("edge", 200000), ("cloud", 100000)):
            path = tmp_path / f"{name}.tsv"
            assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                             str(size), "--rtt", "20", "--bottleneck", "20e6",
                             "--out", str(path)]) == 0
            paths.append(str(path))
        assert_cli_error(["trace-analyze", "--kind", "get", "--client",
                          CLIENT, "--t-i", "30000", paths[0],
                          "--cloud", paths[1]], capsys,
                         "error: edge and cloud file sizes differ")

    def test_each_placement_aggregated_once(self, tmp_path, monkeypatch):
        calls = []
        original = traces.aggregate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(traces, "aggregate", counted)
        edge, cloud = synth_exports(tmp_path, "get", 20000)
        assert cli.main(["trace-analyze", "--kind", "get", "--client", CLIENT,
                         "--t-i", "30000", "--out", str(tmp_path / "a.csv"),
                         *edge, "--cloud", *cloud]) == 0
        assert len(calls) == 2


def fresh_python(code, *argv):
    """Stdout of ``code`` run in a fresh interpreter importing from src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_statistics_unloaded():
    """The trace path averages with math.fsum, so a fresh import of the CLI
    does not pay for statistics (and the fractions/decimal it loads)."""
    assert fresh_python(
        "import sys, ltenergy.cli; print('statistics' in sys.modules)"
    ) == "False\n"


class TestLazyTraceImport:
    """``ltenergy.traces`` loads the first time a trace name is asked for,
    so the analytic commands never pay for importing it.  Each test runs
    in a fresh interpreter, because this one has imported it already."""

    def test_analytic_commands_leave_traces_unloaded(self, tmp_path):
        stdout = fresh_python("""
import contextlib, io, sys
from ltenergy import cli
fig4, fig8, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["sweep", "--config", fig4], ["cost", "--config", fig8],
                 ["eval", "--t-i", "30000"], ["power-table"]):
        assert cli.main([*argv, "--out", out]) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("ltenergy")))
""", FIGURES / "fig4.json", FIGURES / "fig8.json", tmp_path / "out")
        assert stdout == str(sorted(
            ["ltenergy", "ltenergy._fmt", "ltenergy.analytic", "ltenergy.cli",
             "ltenergy.power_model", "ltenergy.sweep"])) + "\n"

    def test_served_names_are_the_traces_exports(self):
        stdout = fresh_python("""
import sys
import ltenergy
assert "ltenergy.traces" not in sys.modules
served = {name: getattr(ltenergy, name) for name in ltenergy._TRACE_NAMES}
from ltenergy import traces
assert set(traces.__all__) == set(served), set(traces.__all__) ^ set(served)
print(all(value is getattr(traces, name) for name, value in served.items()))
""")
        assert stdout == "True\n"

    def test_dir_lists_the_trace_names(self):
        stdout = fresh_python("""
import sys
import ltenergy
listed = set(dir(ltenergy))
print("ltenergy.traces" in sys.modules)
from ltenergy import traces
print(sorted(set(traces.__all__) - listed),
      {"sweep", "run_sweep", "__version__"} <= listed)
""")
        assert stdout == "False\n[] True\n"

    def test_unknown_attribute(self):
        stdout = fresh_python("""
import sys
import ltenergy
for name in ("no_such_name", "SYNTH_CLIENT", "_plan_trace"):
    try:
        getattr(ltenergy, name)
    except AttributeError as exc:
        print(exc)
print("ltenergy.traces" in sys.modules)
""")
        assert stdout == (
            "module 'ltenergy' has no attribute 'no_such_name'\n"
            "module 'ltenergy' has no attribute 'SYNTH_CLIENT'\n"
            "module 'ltenergy' has no attribute '_plan_trace'\n"
            "False\n")

    def test_trace_error_after_deferred_import(self, tmp_path):
        """A ``TraceParseError`` raised by the module that ``trace-analyze``
        imports inside its runner still ends as ``error:`` and exit 1."""
        path = tmp_path / "get.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "5000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index("\t"):]
        path.write_text("\n".join(lines) + "\n")
        stdout = fresh_python("""
import contextlib, io, sys
from ltenergy import cli
loaded = ["ltenergy.traces" in sys.modules]
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["trace-analyze", "--kind", "get", "--client",
                     sys.argv[1], "--t-i", "30000", sys.argv[2]])
loaded.append("ltenergy.traces" in sys.modules)
print(code, loaded, repr(err.getvalue()))
""", CLIENT, path)
        assert stdout == (
            "1 [False, True] \"error: line 3: bad timestamp 'nan'\\n\"\n")


def test_commands_leave_dataclasses_and_inspect_unloaded(tmp_path):
    """The value types are NamedTuples, so neither an analytic command nor
    ``trace-analyze`` pays for importing ``dataclasses`` and the
    ``inspect`` it loads."""
    export = tmp_path / "get.tsv"
    assert cli.main(["trace-synth", "--kind", "get", "--file-size", "5000",
                     "--rtt", "20", "--bottleneck", "20e6",
                     "--out", str(export)]) == 0
    stdout = fresh_python("""
import contextlib, io, sys
from ltenergy import cli
fig4, export, client, out = sys.argv[1:]
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["sweep", "--config", fig4],
                 ["trace-analyze", "--kind", "get", "--client", client,
                  "--t-i", "30000", export]):
        assert cli.main([*argv, "--out", out]) == 0, argv
        loaded.append(sorted({"dataclasses", "inspect"} & set(sys.modules)))
print(loaded, "ltenergy.traces" in sys.modules)
""", FIGURES / "fig4.json", export, CLIENT, tmp_path / "out")
    assert stdout == "[[], []] True\n"


class TestConfigKeys:
    """A config file holds only its command's keys: a typo is an error
    instead of a silently priced default."""

    @pytest.mark.parametrize("command, config, message", [
        ("cost", cost_config(alpha=[0.9]), "unknown config keys: ['alpha']"),
        ("sweep", sweep_config(config="other.json"),
         "unknown config keys: ['config']"),
        ("sweep", sweep_config(rtt_edge=10),
         "unknown config keys: ['rtt_edge']"),
        ("cost", cost_config(base={"t_i": 1000}),
         "unknown config keys: ['base']"),
    ])
    def test_top_level(self, tmp_path, capsys, command, config, message):
        assert_cli_error([command, "--config", write_config(tmp_path, config)],
                         capsys, message)

    @pytest.mark.parametrize("key", ["rtt_egde", "rtt", "payload"])
    def test_base(self, tmp_path, capsys, key):
        config = sweep_config()
        config["base"][key] = 10
        assert_cli_error(["sweep", "--config", write_config(tmp_path, config)],
                         capsys, f"unknown base keys: ['{key}']")

    def test_axis(self, tmp_path, capsys):
        config = sweep_config()
        config["axes"][0]["stpe"] = config["axes"][0].pop("step")
        assert_cli_error(["sweep", "--config", write_config(tmp_path, config)],
                         capsys, "unknown sweep axis keys: ['stpe']")

    def test_base_defaults_come_from_the_scenario(self, tmp_path, capsys):
        """A base without rtt_edge prices the scenario's default rtt, and a
        base without rtt_cloud prices the edge's."""
        outputs = []
        for base in ({"t_i": 1000}, {"t_i": 1000, "t_elab": 0, "rtt_edge": 40,
                                     "rtt_cloud": 40, "b_tx": 0, "b_rx": 0,
                                     "uplink_bps": 1e6, "downlink_bps": 8e5}):
            config = write_config(tmp_path, sweep_config(base=base))
            assert cli.main(["sweep", "--config", config]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_eval_defaults_come_from_the_scenario(self, capsys):
        assert cli.main(["eval", "--t-i", "30000"]) == 0
        bare = capsys.readouterr().out
        assert cli.main(["eval", "--t-i", "30000", "--t-elab", "0", "--rtt",
                         "40", "--b-tx", "0", "--b-rx", "0", "--uplink",
                         "1e6", "--downlink", "8e5"]) == 0
        assert capsys.readouterr().out == bare

    def test_cost_alphas_default_to_one_half(self, tmp_path, capsys):
        """Leaving ``alphas`` out (or null) prices alpha 0.5; only an empty
        list is an error."""
        absent = cost_config()
        del absent["alphas"]
        outputs = []
        for config in (cost_config(alphas=[0.5]), cost_config(alphas=None),
                       absent):
            path = write_config(tmp_path, config)
            assert cli.main(["cost", "--config", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].startswith("alpha,t_i_ms,")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_trace_synth_seed_defaults_to_zero(self, tmp_path):
        paths = [tmp_path / "default.tsv", tmp_path / "zero.tsv"]
        for path, seed in zip(paths, ([], ["--seed", "0"])):
            assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                             "200000", "--rtt", "20", "--bottleneck", "20e6",
                             *seed, "--out", str(path)]) == 0
        assert sha256(paths[0]) == TRACE_SYNTH_DIGESTS["get", 200000]
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWrongTypeConfigValues:
    @pytest.mark.parametrize("key, value", [
        ("out", 1), ("profile", 5), ("format", 0), ("out", ["x.csv"]),
        ("profile", True),
    ])
    def test_path_and_format_must_be_strings(self, tmp_path, capsys, key,
                                             value):
        config = write_config(tmp_path, sweep_config(**{key: value}))
        assert_cli_error(["sweep", "--config", config], capsys,
                         f"config {key} must be a string, got {value!r}")
        print("stdout still open")
        assert capsys.readouterr().out == "stdout still open\n"

    @pytest.mark.parametrize("key", ["profile", "out", "format"])
    def test_empty_path_or_format_in_file(self, tmp_path, capsys, key):
        """An empty string is an error, not the bundled profile, stdout or
        CSV."""
        config = write_config(tmp_path, cost_config(**{key: ""}))
        assert_cli_error(["cost", "--config", config], capsys,
                         f"{key} must not be empty")

    @pytest.mark.parametrize("flag, message", [
        ("--profile", "profile must not be empty"),
        ("--out", "out must not be empty"),
        ("--config", "No such file or directory: ''"),
    ])
    def test_empty_path_flag(self, capsys, flag, message):
        assert_cli_error(COST_ARGV + [flag, ""], capsys, message)

    def test_flags_win_over_the_file_by_presence(self, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        config = write_config(tmp_path, cost_config(out=""))
        assert cli.main(["cost", "--config", config, "--out", str(out)]) == 0
        assert out.is_file()
        config = write_config(tmp_path, cost_config(out=str(out)))
        assert_cli_error(["cost", "--config", config, "--out", ""], capsys,
                         "out must not be empty")

    @pytest.mark.parametrize("overrides, message", [
        ({"alphas": [True]}, "alpha must be a number, got True"),
        ({"t_i_step": True}, "t_i_step must be a number, got True"),
        ({"hourly_bytes": False}, "hourly_bytes must be a number, got False"),
        ({"reply_bytes": True}, "reply_bytes must be a number, got True"),
    ])
    def test_cost_booleans(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, cost_config(**overrides))
        assert_cli_error(["cost", "--config", config], capsys, message)

    @pytest.mark.parametrize("where, key", [
        ("base", "t_i"), ("base", "rtt_edge"), ("axis", "stop")])
    def test_sweep_booleans(self, tmp_path, capsys, where, key):
        config = sweep_config()
        (config["base"] if where == "base" else config["axes"][0])[key] = True
        assert_cli_error(["sweep", "--config", write_config(tmp_path, config)],
                         capsys, "must be a number, got True")


class TestCostGridChecks:
    """The period grid is checked by ``SweepAxis``, which names the axis."""

    @pytest.mark.parametrize("flags, message", [
        (["--t-i-step", "0"], "axis t_i step must be strictly positive"),
        (["--t-i-step", "-5"], "axis t_i step must be strictly positive"),
        (["--t-i-min", "30000"], "empty grid: axis t_i has start > stop"),
    ])
    def test_bad_grid(self, capsys, flags, message):
        assert_cli_error(COST_ARGV + flags, capsys, message)


class TestGridBound:
    """A grid beyond ``sweep.MAX_GRID_CELLS`` cells is rejected before any
    of its values is built."""

    @pytest.fixture(autouse=True)
    def no_values(self, monkeypatch):
        def fail(self):
            raise AssertionError("grid values built for an oversized grid")

        monkeypatch.setattr(sweep.SweepAxis, "values", fail)

    @pytest.mark.parametrize("axes, message", [
        ([{"name": "rtt_cloud", "start": 0, "stop": 2000, "step": 1},
          {"name": "t_elab", "start": 0, "stop": 1000, "step": 1}],
         "grid has 2003001 cells, more than 2000000"),
        ([{"name": "rtt_cloud", "start": 0, "stop": 2000000, "step": 1}],
         "axis rtt_cloud has more than 2000000 values"),
        ([{"name": "t_elab", "start": 0, "stop": 1, "step": 1e-320}],
         "axis t_elab has more than 2000000 values"),
    ])
    def test_sweep(self, tmp_path, capsys, axes, message):
        config = write_config(tmp_path, sweep_config(
            base={"t_i": 100000}, axes=axes))
        assert_cli_error(["sweep", "--config", config], capsys, message)

    @pytest.mark.parametrize("step", ["1e-4", "1e-320"])
    def test_cost(self, capsys, step):
        assert_cli_error(COST_ARGV + ["--t-i-step", step], capsys,
                         "axis t_i has more than 2000000 values")

    def test_cost_curves(self, capsys):
        """Each alpha prices the whole period grid, so the bound counts
        alphas times periods: 2 x 10^6 points pass, 3 x 666,667 do not."""
        def argv(alphas, periods):
            return ["cost", *(f"--alpha={a / 10}" for a in range(alphas)),
                    "--hourly-bytes", "360000", "--rtt", "40", "--t-i-min",
                    "1", "--t-i-max", str(periods), "--t-i-step", "1"]

        # At the limit the run goes on to build the period grid.
        with pytest.raises(AssertionError, match="grid values built"):
            cli.main(argv(2, 1_000_000))
        assert_cli_error(argv(3, 666_667), capsys,
                         "cost has 2000001 points, more than 2000000")


class TestTraceBound:
    """A synthetic trace beyond ``traces.MAX_TRACE_PACKETS`` packets is
    rejected before any of its packets is built."""

    @pytest.fixture(autouse=True)
    def no_packets(self, monkeypatch):
        def fail(*args):
            raise AssertionError("packet built for an oversized trace")

        monkeypatch.setattr(traces, "_synthetic_event", fail)

    @staticmethod
    def argv(file_size):
        return ["trace-synth", "--kind", "get", "--file-size",
                str(file_size), "--rtt", "20", "--bottleneck", "20e6"]

    def test_at_the_limit(self):
        """1,333,328 full segments and every second one's acknowledgment
        but the last make 1,999,991 packets; 9 more open, request, close
        and acknowledge the exchange."""
        with pytest.raises(AssertionError, match="packet built"):
            cli.main(self.argv(1_333_328 * 1448))

    @pytest.mark.parametrize("file_size, count", [
        (1_333_328 * 1448 + 1, 2_000_002),
        (10 ** 10, 10_359_125),
    ])
    def test_beyond_the_limit(self, capsys, file_size, count):
        assert_cli_error(self.argv(file_size), capsys,
                         f"error: file_size {file_size} needs {count} "
                         "packets, more than 2000000\n")

    def test_huge_integer(self, capsys):
        assert_cli_error(self.argv(10 ** 400), capsys,
                         "packets, more than 2000000")
