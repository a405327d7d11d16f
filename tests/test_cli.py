import codecs
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltenergy import analytic, cli, sweep, traces
from ltenergy.power_model import default_profile, profile_to_dict

from test_traces import SECOND_PEER, second_peer_export

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

    @pytest.mark.parametrize("value", [-5, "nan"])
    def test_bad_cloud_rtt_named(self, tmp_path, capsys, value):
        config = sweep_config()
        config["base"]["rtt_cloud"] = value
        assert_cli_error(["sweep", "--config", write_config(tmp_path, config)],
                         capsys, "error: rtt_cloud must be ")


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


class TestNegativeZero:
    """``-0`` passes every ``>= 0`` check; it enters as 0, so no artifact
    prints a minus sign for it."""

    def test_eval_flags(self, capsys):
        assert cli.main(["eval", "--t-i", "5000", "--rtt", "-0",
                         "--t-elab", "-0", "--b-tx", "-0"]) == 0
        out = capsys.readouterr().out
        assert "T_TX = 0.000 ms\n" in out and "E_TX = 0.0 mJ\n" in out
        assert "-0" not in out

    def test_sweep_config(self, tmp_path, capsys):
        config = sweep_config(
            base={"t_i": 1000, "rtt_edge": 0, "rtt_cloud": -0.0},
            axes=[{"name": "t_i", "start": 1000, "stop": 2000,
                   "step": 1000}])
        argv = ["sweep", "--config", write_config(tmp_path, config)]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[4] for row in rows] == [
            "delta_rtt_ms", "0.000", "0.000"]
        assert cli.main([*argv, "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [repr(cell["delta_rtt_ms"]) for cell in cells] == ["0", "0"]


class TestEmitRendersRequestedFormatOnly:
    @pytest.mark.parametrize("fmt, unused", [
        ("csv", "json_text"), ("json", "csv_rows"),
    ])
    def test_sweep(self, tmp_path, monkeypatch, fmt, unused):
        def fail(*args):
            raise AssertionError(f"{unused} rendered for --format {fmt}")

        monkeypatch.setattr(sweep, unused, fail)
        out = tmp_path / f"grid.{fmt}"
        code = cli.main(["sweep", "--config",
                         write_config(tmp_path, sweep_config()),
                         "--format", fmt, "--out", str(out)])
        assert code == 0
        assert out.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_collects_no_grid(self, tmp_path, monkeypatch, capsys,
                                    fmt):
        """The CLI renders the cell stream as it comes: it builds no
        ``SweepCell``, no ``SweepResult`` and no collected grid."""
        for name in ("run_sweep", "SweepCell", "SweepResult"):
            def fail(*args, name=name):
                raise AssertionError(f"sweep.{name} called by the CLI")

            monkeypatch.setattr(sweep, name, fail)
        code = cli.main(["sweep", "--config",
                         write_config(tmp_path, sweep_config()),
                         "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "rtt_cloud" in captured.out


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
SYNTH_ARGV = ["trace-synth", "--kind", "get", "--rtt", "20",
              "--bottleneck", "20e6"]
# A 100 x 200 t_i x rtt_cloud sweep of 20,000 cells, too large for the
# figures' 1,408 to pin the renderers: unrounded axis sums, cloud RTTs on
# both sides of the edge's, 6,206 overrun cells (a first row where the
# edge overruns too) and cells that charge each IDLE promotion.  The sha256
# of its artifacts is frozen from the release that wrote CSV with
# ``csv.writer``.
GRID_CONFIG = {
    "command": "sweep",
    "base": {"t_i": 1000, "t_elab": 150, "rtt_edge": 40, "b_tx": 16000,
             "b_rx": 16000},
    "axes": [{"name": "t_i", "start": 300.5, "stop": 40000, "step": 399.9},
             {"name": "rtt_cloud", "start": 0, "stop": 24000,
              "step": 120.3}],
}
# The same 20,000 cells with rtt_cloud outermost, the other axis order the
# kernel serves: its artifacts are frozen from the release before sweep
# rows of one rtt_cloud axis were priced together.
OUTER_GRID_CONFIG = {**GRID_CONFIG, "axes": GRID_CONFIG["axes"][::-1]}
# 12,500 cells over t_i x t_elab x rtt_cloud: rows that repeat a t_i change
# t_elab, and so the cloud waits; t_elab reaches past the IDLE entry, so
# edges charge the response promotion too.  Then the same cells with
# rtt_cloud outermost.  Both frozen from the release before sweep rows were
# priced and rendered whole.
ELAB_GRID_CONFIG = {**GRID_CONFIG, "axes": [
    {"name": "t_i", "start": 300.5, "stop": 40000, "step": 4410.7},
    {"name": "t_elab", "start": 0, "stop": 13002, "step": 3250.5},
    {"name": "rtt_cloud", "start": 0, "stop": 24000, "step": 96.3}]}
OUTER_ELAB_GRID_CONFIG = {**GRID_CONFIG, "axes": [
    ELAB_GRID_CONFIG["axes"][k] for k in (2, 0, 1)]}
GRID_DIGESTS = {
    "grid.csv":
        "b671676505145be127f054463f06e8d354cdcfe8b639d83761826f99406382f8",
    "grid.json":
        "4a3d9ea940b7d519413e20f7a618f3e0a099102c9ab39cadc7b4ef1e79e16276",
    "outer-grid.csv":
        "f2da760bbf4e86e41ea0ae7d6d9e911b37dd11fa18ba35e5a583353046fd3d73",
    "outer-grid.json":
        "df47399a0b114679a412b70be8252aac2d44db552b6e6277627002bd0d5c36e2",
    "elab-grid.csv":
        "ac622e40809174b721dc54fed1254b88027f6daef8ef3b1d6afaa71868943f32",
    "elab-grid.json":
        "bbe96fe9cbafe3262366c4f5d608d9e95104c8a59b19f92e8b099aeb718fc9cc",
    "outer-elab-grid.csv":
        "b53ca622cf70034f0ca847223882c2bfe9b6643a8d86b52d7468c1b9d5e75840",
    "outer-elab-grid.json":
        "6a2564acb9f391cd533041988aa72886669cbf7c57f393bf5b13ea3ef88c2c78",
}


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

    def test_cost_json_fixed_decimals(self, capsys):
        """Grid periods and delays are rounded to six decimals, as the CSV
        prints them, so float noise of the grid never reaches the JSON."""
        argv = ["cost", "--hourly-bytes", "1e6", "--rtt", "40",
                "--t-i-min", "1000.1", "--t-i-max", "1000.4",
                "--t-i-step", "0.1"]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert cli.main(argv + ["--format", "json"]) == 0
        curve, = json.loads(capsys.readouterr().out)["curves"]
        assert [(pt["t_i_ms"], pt["d_ms"]) for pt in curve["points"]] == [
            (float(t), float(d))
            for t, d in (row.split(",")[1:4:2] for row in rows)]
        assert [pt["t_i_ms"] for pt in curve["points"]] == [
            1000.1, 1000.2, 1000.3, 1000.4]
        assert (curve["alpha"], curve["argmin_t_i_ms"],
                curve["d_max_ms"]) == (0.5, 1000.1, 1000.4)

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_grid(self, tmp_path, capsys, fmt):
        assert_grid_golden(tmp_path, capsys, "grid", GRID_CONFIG, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_grid_rtt_cloud_outer(self, tmp_path, capsys, fmt):
        assert_grid_golden(tmp_path, capsys, "outer-grid", OUTER_GRID_CONFIG,
                           fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_three_axis_grid(self, tmp_path, capsys, fmt):
        assert_grid_golden(tmp_path, capsys, "elab-grid", ELAB_GRID_CONFIG,
                           fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_three_axis_grid_rtt_cloud_outer(self, tmp_path, capsys, fmt):
        assert_grid_golden(tmp_path, capsys, "outer-elab-grid",
                           OUTER_ELAB_GRID_CONFIG, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_grid_collected_once(self, tmp_path, fmt):
        """The writer holds the artifact's chunks once and no renderer
        joins them into another copy: writing the 20,000-cell grid peaks
        below 1.5 times its bytes under ``tracemalloc``."""
        argv = ["sweep", "--config", write_config(tmp_path, GRID_CONFIG),
                "--format", fmt, "--out", str(tmp_path / f"grid.{fmt}")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / f"grid.{fmt}").stat().st_size
        assert peak < 1.5 * size, f"peak {peak} B for {size} B"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_grid_rtt_cloud_outer_collected_once(self, tmp_path, fmt):
        """With rtt_cloud outermost, a row is the t_i axis, not one cell,
        so the same 20,000 cells also peak below 1.5 times their bytes."""
        assert traced_peak(tmp_path, OUTER_GRID_CONFIG, fmt) < 1.5

    @pytest.mark.parametrize("fmt, bound", [("csv", 2.5), ("json", 1.5)])
    def test_long_outer_axis_texts_not_held(self, tmp_path, fmt, bound):
        """A row's head text is made when the head changes, so a
        20,000-value rtt_cloud axis outermost, over two t_i values, holds
        no text per value of that axis for the whole run."""
        config = {"command": "sweep",
                  "base": {"t_i": 300000, "t_elab": 100, "rtt_edge": 20,
                           "b_tx": 16000, "b_rx": 16000},
                  "axes": [{"name": "rtt_cloud", "start": 0, "stop": 19999,
                            "step": 1},
                           {"name": "t_i", "start": 300000, "stop": 300001,
                            "step": 1}]}
        assert traced_peak(tmp_path, config, fmt) < bound

    @pytest.mark.parametrize("fmt, bound", [("csv", 3), ("json", 2)])
    def test_long_axis_rows_bounded(self, tmp_path, fmt, bound):
        """A sweep row is at most ``ROW_CELLS`` cells, so one 20,000-value
        rtt_cloud axis peaks within a small multiple of its artifact: the
        rows and their texts are not held for the whole axis."""
        config = {"command": "sweep",
                  "base": {"t_i": 300000, "t_elab": 100, "rtt_edge": 20,
                           "b_tx": 16000, "b_rx": 16000},
                  "axes": [{"name": "rtt_cloud", "start": 0, "stop": 19999,
                            "step": 1}]}
        assert traced_peak(tmp_path, config, fmt) < bound


def traced_peak(tmp_path, config, fmt):
    """The ``tracemalloc`` peak of ``sweep --out`` on ``config``, in units
    of the artifact it writes."""
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--config", write_config(tmp_path, config),
            "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.stat().st_size


def assert_grid_golden(tmp_path, capsys, name, config, fmt):
    """The sweep of ``config`` writes its ``GRID_DIGESTS`` artifact, the
    same to ``--out`` and to stdout."""
    argv = ["sweep", "--config", write_config(tmp_path, config),
            "--format", fmt]
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert sha256(out) == GRID_DIGESTS[f"{name}.{fmt}"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


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


class TestRejectedWhereTheyEnter:
    """Each input reaches one rejection of the library and ends, through the
    CLI, with exit 1 and exactly its ``error:`` line."""

    def assert_rejected(self, argv, capsys, message):
        assert (cli.main(argv), capsys.readouterr().err) == (
            1, f"error: {message}\n")

    def test_zero_bitrate(self, capsys):
        self.assert_rejected(["eval", "--t-i", "1000", "--uplink", "0"],
                             capsys, "bitrates must be strictly positive")

    def test_profile_missing_a_field(self, tmp_path, capsys):
        data = profile_to_dict(default_profile())
        del data["p_tx"]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        self.assert_rejected(
            ["eval", "--t-i", "1000", "--profile", str(path)], capsys,
            "profile is missing required field 'p_tx'")

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        self.assert_rejected(["cost", "--config", str(path)], capsys,
                             f"{path}: config must be a JSON object")

    def test_zero_hourly_bytes(self, capsys):
        self.assert_rejected(
            ["cost", "--hourly-bytes", "0", "--rtt", "40", "--t-i-min",
             "1000", "--t-i-max", "2000", "--t-i-step", "500"], capsys,
            "hourly_bytes must be strictly positive")

    def test_response_never_acknowledged(self, tmp_path, capsys):
        """A GET export cut after its last response packet."""
        path = tmp_path / "get.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "200000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(path)]) == 0
        lines = path.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines)
                   if line.split("\t")[1] == "203.0.113.5"
                   and line.split("\t")[5] != "0")
        path.write_text("".join(lines[:last + 1]))
        self.assert_rejected(
            ["trace-analyze", "--kind", "get", "--client", CLIENT, "--t-i",
             "30000", str(path)], capsys,
            f"{path}: missing the client acknowledgment of the response")


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

    @pytest.mark.parametrize("form", ["arabic-indic", "underscore", "plus"])
    @pytest.mark.parametrize("column, what", [
        (0, "timestamp"), (3, "source port"), (4, "destination port"),
        (5, "payload length"), (7, "sequence number"),
        (8, "acknowledgment number")])
    def test_number_in_ascii_digits_only(self, export, capsys, form, column,
                                         what):
        """A number that ``int`` or ``float`` reads in digits of another
        script, with ``_`` or with a ``+``, is a bad field at its line,
        whichever reader meets it first: written as the same value, it
        analysed as the original."""
        lines = export.read_text().splitlines()
        k = next(i for i, line in enumerate(lines)
                 if line.split("\t")[5] == "1448")
        fields = lines[k].split("\t")
        fields[column] = (
            fields[column].translate(str.maketrans("0123456789",
                                                   "٠١٢٣٤٥٦٧٨٩"))
            if form == "arabic-indic" else
            fields[column][:-1] + "_" + fields[column][-1]
            if form == "underscore" else "+" + fields[column])
        lines[k] = "\t".join(fields)
        export.write_text("\n".join(lines) + "\n")
        assert cli.main(self.analyze(export, "--t-i", "30000")) == 1
        assert capsys.readouterr().err == (
            f"error: {export}: line {k + 1}: bad {what} {fields[column]!r}\n")

    @pytest.mark.parametrize("field, error", [
        ("port", "line 1: bad destination port '+80'"),
        ("timestamp", "line 1: bad timestamp '+0.000000'")])
    def test_plus_sign(self, export, capsys, field, error):
        """A ``+`` that ``int`` or ``float`` reads is a bad field, as it is
        in ``--client``: over port 80 everywhere, where the column reader
        meets it on one connection, or over the first timestamp."""
        text = export.read_text()
        export.write_text(
            text.replace("\t80\t", "\t+80\t") if field == "port"
            else "+0.000000" + text[text.index("\t"):])
        assert cli.main(self.analyze(export, "--t-i", "30000")) == 1
        assert capsys.readouterr().err == f"error: {export}: {error}\n"

    @pytest.mark.parametrize("port", ["-80", "99999"])
    @pytest.mark.parametrize("columns, error", [
        ((3, 4), "line 1: bad destination port"),
        ((3,), "line 2: bad source port")], ids=["everywhere", "server-sent"])
    def test_server_port_out_of_range(self, export, capsys, port, columns,
                                      error):
        """A server port outside 0-65535, as ``--client`` rejects, is a bad
        field at its first line: written over port 80 everywhere, where
        the column reader meets it on one connection, or in the source
        port of the server's packets alone."""
        lines = [text.split("\t") for text in export.read_text().splitlines()]
        for fields in lines:
            for k in columns:
                if fields[k] == "80":
                    fields[k] = port
        export.write_text("".join("\t".join(f) + "\n" for f in lines))
        assert cli.main(self.analyze(export, "--t-i", "30000")) == 1
        assert (capsys.readouterr().err
                == f"error: {export}: {error} '{port}'\n")

    @pytest.mark.parametrize("t_i", ["inf", "nan", "0", "-5"])
    def test_t_i_not_finite_and_positive(self, export, capsys, t_i):
        assert_cli_error(self.analyze(export, "--t-i", t_i), capsys,
                         "t_i must be finite and strictly positive")

    def test_negative_concurrency(self, export, capsys):
        assert_cli_error(
            self.analyze(export, "--t-i", "30000", "--concurrency", "-3"),
            capsys, "concurrency must be non-negative, got -3")

    @pytest.mark.parametrize("flags, message", [
        (("--t-i", "0"), "t_i must be finite and strictly positive, got 0.0"),
        (("--t-i", "inf"),
         "t_i must be finite and strictly positive, got inf"),
        (("--t-i", "30000", "--concurrency", "-3"),
         "concurrency must be non-negative, got -3")])
    @pytest.mark.parametrize("bad_file", ["empty export", "missing profile"])
    def test_flags_checked_before_any_file(self, tmp_path, capsys, flags,
                                           message, bad_file):
        """A bad flag is named before the profile or an export is read:
        neither an empty export nor a missing profile hides it."""
        export = tmp_path / "empty.tsv"
        export.write_text("")
        argv = self.analyze(export, *flags)
        if bad_file == "missing profile":
            argv += ["--profile", str(tmp_path / "missing.json")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("kind", ["get", "post"])
    @pytest.mark.parametrize("file_size", ["0", "-1"])
    def test_trace_synth_without_a_file(self, tmp_path, capsys, kind,
                                        file_size):
        """An exchange without a file has no response to price: an error,
        and no export is written."""
        out = tmp_path / "out.tsv"
        assert_cli_error(
            ["trace-synth", "--kind", kind, "--file-size", file_size,
             "--rtt", "20", "--bottleneck", "20e6", "--out", str(out)],
            capsys, "error: file_size must be at least 1 byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--format", "json"), ("--profile", "/nonexistent.json")])
    def test_trace_synth_takes_no_profile_or_format(self, tmp_path, capsys,
                                                    flag, value):
        """A synthetic export has one format and no radio parameters, so
        either flag is a usage error instead of being ignored."""
        out = tmp_path / "out.tsv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace-synth", "--kind", "get", "--file-size", "3000",
                      "--rtt", "20", "--bottleneck", "20e6", flag, value,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {flag} {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["post", "get"])
    def test_payload_of_2_31_bytes(self, tmp_path, capsys, kind):
        """A request of 2^31 bytes is a bad line for either kind, not a
        negative size or a GET of the 100-byte response."""
        end = (1000 + 2 ** 31) % 2 ** 32
        client, server = ("198.51.100.10\t203.0.113.5\t52000\t80",
                          "203.0.113.5\t198.51.100.10\t80\t52000")
        path = tmp_path / "huge.tsv"
        path.write_text(f"1.000000\t{client}\t{2 ** 31}\tPA\t1000\t1\n"
                        f"1.100000\t{server}\t0\tA\t1\t{end}\n"
                        f"1.200000\t{server}\t100\tPA\t1\t{end}\n"
                        f"1.300000\t{client}\t0\tA\t{end}\t101\n")
        assert_cli_error(["trace-analyze", "--kind", kind, "--client",
                          CLIENT, "--t-i", "30000", str(path)], capsys,
                         f"error: {path}: line 1: payload length must be "
                         "< 2^31\n")

    @pytest.mark.parametrize("kind", ["post", "get"])
    def test_request_of_2_32_minus_2_bytes(self, tmp_path, capsys, kind):
        """Two request packets of 2^31 - 1 bytes span 2^32 - 2 bytes, which
        no serial-number window holds: an error naming the request, not a
        file size of 2^31 - 1."""
        size = 2 ** 31 - 1
        end = (1000 + 2 * size) % 2 ** 32
        client, server = ("198.51.100.10\t203.0.113.5\t52000\t80",
                          "203.0.113.5\t198.51.100.10\t80\t52000")
        path = tmp_path / "huge.tsv"
        path.write_text(f"1.000000\t{client}\t{size}\tPA\t1000\t1\n"
                        f"1.050000\t{client}\t{size}\tPA\t{1000 + size}\t1\n"
                        f"1.100000\t{server}\t0\tA\t1\t{end}\n"
                        f"1.200000\t{server}\t100\tPA\t1\t{end}\n"
                        f"1.300000\t{client}\t0\tA\t{end}\t101\n")
        assert_cli_error(["trace-analyze", "--kind", kind, "--client",
                          CLIENT, "--t-i", "30000", str(path)], capsys,
                         f"error: {path}: the request spans 4294967294 "
                         "bytes; no stream of 2^31 bytes or more has "
                         "unambiguous sequence numbers\n")

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


NO_IDLE_WARNING = "profile has no idle duty cycle; consistency check skipped"


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

    def assert_no_artifact(self, argv, tmp_path, capsys, message,
                           warned=()):
        out = tmp_path / "artifact"
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        *lines, last = captured.err.splitlines()
        assert code == 1
        assert lines == [f"warning: {w}" for w in warned]
        assert last.startswith("error: ")
        assert message in last
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
    def test_sweep_partway(self, tmp_path, capsys, fmt):
        """The first cell is finite and a later one overflows: the cells
        before it are not written, and an existing artifact survives."""
        config = write_config(tmp_path, sweep_config(
            base={"t_i": 1000, "rtt_edge": 40},
            axes=[{"name": "t_i", "start": 1000, "stop": 1e308,
                   "step": 5e307}]))
        out = tmp_path / "artifact"
        out.write_bytes(b"old\r\n")
        code = cli.main(["sweep", "--config", config, "--format", fmt,
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: cycle energy overflows a float\n"
        assert captured.out == ""
        assert out.read_bytes() == b"old\r\n"

    @pytest.mark.parametrize("axes", [slice(None), slice(None, None, -1)],
                             ids=["rtt_cloud-inner", "rtt_cloud-outer"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_ratio_not_finite(self, tmp_path, capsys, fmt, axes):
        """Without transfer power, a cycle whose upload fills its period
        and whose wait is 0 costs 0 mJ at both placements, so its ratio is
        0/0.  Among overrun cells on either side of it, that cell's error
        ends the sweep, and an existing artifact survives."""
        config = write_config(tmp_path, sweep_config(
            base={"t_i": 1000, "rtt_edge": 0, "t_elab": 0, "b_tx": 125000,
                  "b_rx": 0},
            axes=[{"name": "t_i", "start": 900, "stop": 1000, "step": 100},
                  {"name": "rtt_cloud", "start": 0, "stop": 50,
                   "step": 50}][axes]))
        out = tmp_path / "artifact"
        out.write_bytes(b"old\r\n")
        code = cli.main(["sweep", "--config", config, "--profile",
                         profile_file(tmp_path, p_tx=0, p_rx=0),
                         "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: rho = 0.0/0.0 is not finite\n"
        assert out.read_bytes() == b"old\r\n"

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
            "t_i 1e+308 ms over 3 repetitions overflows a float",
            warned=[NO_IDLE_WARNING])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cost(self, tmp_path, capsys, fmt):
        profile = profile_file(tmp_path, p_tx=1.5e307)
        self.assert_no_artifact(
            ["cost", "--hourly-bytes", "1e7", "--rtt", "50", "--t-i-min",
             "500", "--t-i-max", "120000", "--t-i-step", "500",
             "--profile", profile, "--format", fmt],
            tmp_path, capsys, "overflows a float")


class TestLibraryWarnings:
    """A library warning prints as one ``warning:`` line on stderr and
    changes no output; the CLI's warning settings end with ``main``."""

    def test_profile_without_idle_block(self, tmp_path, capsys):
        settings = (warnings.showwarning, list(warnings.filters))
        runs = []
        for extra in ([], ["--profile", profile_file(tmp_path, idle=None)]):
            out = tmp_path / f"eval{len(extra)}.json"
            assert cli.main(["eval", "--t-i", "1000", "--format", "json",
                             "--out", str(out), *extra]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        (bundled, bundled_out), (no_idle, no_idle_out) = runs
        assert bundled.err == ""
        assert no_idle.err == f"warning: {NO_IDLE_WARNING}\n"
        assert (no_idle.out, no_idle_out) == (bundled.out, bundled_out)
        assert (warnings.showwarning, warnings.filters) == settings

    def test_zero_duty_cycle_period(self, tmp_path, capsys):
        idle = {**profile_to_dict(default_profile())["idle"],
                "wake_duration": 0, "period": 0}
        assert_cli_error(
            ["power-table", "--profile", profile_file(tmp_path, idle=idle)],
            capsys, "error: duty-cycle period must be positive\n")


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


BOM = "\ufeff"


class TestInputFiles:
    """Configs, profiles and trace exports are UTF-8 with an optional byte
    order mark, and an error reading one names the file."""

    @staticmethod
    def assert_names_file(argv, capsys, path):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_truncated_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"command": "cost",\n')
        self.assert_names_file(["cost", "--config", str(path)], capsys,
                               str(path))

    def test_truncated_profile(self, tmp_path, capsys):
        """With both files given, the error says which one is bad."""
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile_to_dict(default_profile()))[:-1])
        config = write_config(tmp_path, cost_config())
        self.assert_names_file(["cost", "--config", config,
                                "--profile", str(path)], capsys, str(path))

    @pytest.mark.parametrize("command, flag", [("cost", "--config"),
                                               ("power-table", "--profile")])
    def test_nested_too_deeply(self, tmp_path, capsys, command, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        self.assert_names_file([command, flag, str(path)], capsys, str(path))

    @staticmethod
    def assert_asks_for_utf8(argv, capsys, path):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: file is UTF-16 ")
        assert err.endswith("; save it as UTF-8\n")

    def test_utf16_config(self, tmp_path, capsys):
        path = tmp_path / "fig8.json"
        path.write_text((FIGURES / "fig8.json").read_text(),
                        encoding="utf-16")
        self.assert_asks_for_utf8(["cost", "--config", str(path)], capsys,
                                  str(path))

    def test_utf16_profile(self, tmp_path, capsys):
        """Big-endian, after the byte order mark FE FF."""
        path = tmp_path / "profile.json"
        text = json.dumps(profile_to_dict(default_profile()))
        path.write_bytes(codecs.BOM_UTF16_BE + text.encode("utf-16-be"))
        self.assert_asks_for_utf8(["power-table", "--profile", str(path)],
                                  capsys, str(path))

    def test_utf16_export(self, tmp_path, capsys):
        path = tmp_path / "get.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "3000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(path)]) == 0
        path.write_text(path.read_text(), encoding="utf-16")
        self.assert_asks_for_utf8(
            ["trace-analyze", "--kind", "get", "--client", CLIENT,
             "--t-i", "30000", str(path)], capsys, str(path))

    def test_config_with_bom(self, tmp_path):
        config = tmp_path / "fig8.json"
        config.write_text(BOM + (FIGURES / "fig8.json").read_text(),
                          encoding="utf-8")
        out = tmp_path / "fig8.csv"
        assert cli.main(["cost", "--config", str(config),
                         "--out", str(out)]) == 0
        assert sha256(out) == FIGURE_DIGESTS["fig8.csv"]

    def test_profile_with_bom(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(BOM + json.dumps(profile_to_dict(default_profile())),
                        encoding="utf-8")
        assert cli.main(["power-table", "--profile", str(path)]) == 0
        assert capsys.readouterr().out == POWER_TABLE_CSV

    def test_export_with_bom(self, tmp_path, capsys):
        path = tmp_path / "get.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "200000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(path)]) == 0
        argv = ["trace-analyze", "--kind", "get", "--client", CLIENT,
                "--t-i", "30000", str(path)]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        path.write_text(BOM + path.read_text(), encoding="utf-8")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == plain


class TestTraceAnalyzeClient:
    """``--client`` is parsed once, where it enters, into an address and an
    integer port: the same endpoint written with a zero-padded port or
    padded with spaces, as export fields may be, reads the same, and a
    malformed value is an error before any file is read."""

    def test_padded_endpoint(self, tmp_path, capsys):
        edge, _ = synth_exports(tmp_path, "get", 20000)
        texts = []
        for client in (CLIENT, CLIENT.replace(":", ":0"),
                       " " + CLIENT.replace(":", " : ") + " "):
            assert cli.main(["trace-analyze", "--kind", "get", "--client",
                             client, "--t-i", "30000", *edge]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].count("\n") == 2

    def test_bracketed_ipv6(self, tmp_path, capsys):
        """An IPv6 client reads the same with its address in brackets or
        without, and its export analyses to the row of the same export over
        IPv4."""
        path = tmp_path / "get.tsv"
        assert cli.main([*SYNTH_ARGV, "--file-size", "5000",
                         "--out", str(path)]) == 0
        argv = ["trace-analyze", "--kind", "get", "--t-i", "30000", str(path)]
        assert cli.main([*argv, "--client", CLIENT]) == 0
        expected = capsys.readouterr().out
        path.write_text(path.read_text().replace(
            "198.51.100.10", "2001:db8::10").replace("203.0.113.5",
                                                     "2001:db8::5"))
        for client in ("[2001:db8::10]:52000", "2001:db8::10:52000",
                       " [2001:db8::10] : 52000 "):
            assert cli.main([*argv, "--client", client]) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("client", ["foo", "1.2.3.4:", "1.2.3.4:99999",
                                        "1.2.3.4:8O", "1.2.3.4:-1",
                                        "1.2.3.4:+80", "1.2.3.4:8_0",
                                        "1.2.3.4:²", "1.2.3.4:٨٠"])
    def test_malformed(self, tmp_path, capsys, client):
        """No profile or export is read: both are missing here."""
        assert cli.main(["trace-analyze", "--kind", "get", "--client",
                         client, "--t-i", "30000", "--profile",
                         str(tmp_path / "missing.json"),
                         str(tmp_path / "missing.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"error: --client {client!r} is not addr:port with port "
            "0-65535\n")


class TestNumberRule:
    """Numbers are ASCII, without ``_`` or ``+``, wherever they enter: a
    flag that breaks the rule is a usage error, and a config or profile
    string an ``error:`` line, though ``int`` and ``float`` read them."""

    @pytest.mark.parametrize("argv, flag, kind, value", [
        (["eval", "--t-i", "5000"], "--rtt", "number", "4_0"),
        (["eval"], "--t-i", "number", "٥٠٠٠"),
        (["cost", "--config", "missing.json"], "--rtt", "number", "+40"),
        (SYNTH_ARGV, "--file-size", "integer", "1_000"),
        (SYNTH_ARGV + ["--file-size", "1000"], "--seed", "integer", "٣"),
        (["trace-analyze", "--kind", "get", "--client", CLIENT, "--t-i",
          "30000", "missing.tsv"], "--concurrency", "integer", "+3")])
    def test_flag(self, capsys, argv, flag, kind, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, value])
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid {kind} value: {value!r}\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["7_50", "٧٥٠", "+750"])
    def test_sweep_config(self, tmp_path, capsys, value):
        config = sweep_config(base={"t_i": value, "rtt_edge": 40})
        assert_cli_error(["sweep", "--config", write_config(tmp_path, config)],
                         capsys, f"base t_i must be a number, got {value!r}")

    @pytest.mark.parametrize("value", ["1_200", "١٢٠٠", "+1200"])
    def test_profile(self, tmp_path, capsys, value):
        argv = ["eval", "--t-i", "5000",
                "--profile", profile_file(tmp_path, p_tx=value)]
        assert_cli_error(argv, capsys,
                         f"profile field p_tx must be a number, got {value!r}")

    def test_client_port_minus_zero(self, tmp_path, capsys):
        """``-0`` reads as 0 in ``--client`` as in an export's fields."""
        path = tmp_path / "get.tsv"
        assert cli.main([*SYNTH_ARGV, "--file-size", "5000",
                         "--out", str(path)]) == 0
        argv = ["trace-analyze", "--kind", "get", "--t-i", "30000", str(path)]
        assert cli.main([*argv, "--client", CLIENT]) == 0
        expected = capsys.readouterr().out
        lines = [text.split("\t") for text in path.read_text().splitlines()]
        for fields in lines:
            fields[3:5] = ["-0" if f == "52000" else f for f in fields[3:5]]
        path.write_text("".join("\t".join(f) + "\n" for f in lines))
        client = CLIENT.replace(":52000", ":-0")
        assert cli.main([*argv, "--client", client]) == 0
        assert capsys.readouterr().out == expected


def cli_stdout(argv):
    """stdout of ``ltenergy`` on ``argv``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def disagreements(csv_text, json_rows):
    """The cells ``(row, column, CSV text, JSON value)`` where a CSV
    artifact and the rows of its JSON differ: a number text must read as
    the JSON number, an empty text be a missing or null value, and any other
    text the JSON string.  Each JSON row holds only the CSV's columns."""
    header, *lines = csv.reader(io.StringIO(csv_text))
    assert len(lines) == len(json_rows)
    bad = []
    for k, (line, row) in enumerate(zip(lines, json_rows)):
        assert set(row) <= set(header)
        for column, text in zip(header, line, strict=True):
            value = row.get(column)
            if text == "":
                same = value is None
            elif isinstance(value, str):
                same = value == text
            else:
                same = type(value) in (int, float) and float(text) == value
            if not same:
                bad.append((k, column, text, value))
    return bad


def decimals(low, high):
    """Numbers in [low, high] with up to six decimals."""
    return st.integers(0, 6).flatmap(lambda k: st.integers(
        round(low * 10 ** k), round(high * 10 ** k)).map(
            lambda n: n / 10 ** k))


# The axes whose values and differences a sweep writes as given.
DECIMAL_AXES = {"t_i": (100, 40000), "rtt_cloud": (0, 15000),
                "t_elab": (0, 13000)}


@st.composite
def decimal_sweep_configs(draw):
    """Sweep configs of one to three of ``DECIMAL_AXES``, whose base,
    RTTs and axis bounds carry up to six decimals."""
    base = {name: draw(decimals(*DECIMAL_AXES[name]))
            for name in DECIMAL_AXES}
    base["rtt_edge"] = draw(decimals(0, 500))
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(DECIMAL_AXES)),
                              min_size=1, max_size=3, unique=True)):
        start = draw(decimals(*DECIMAL_AXES[name]))
        step = draw(decimals(0, 5000).filter(bool))
        count = draw(st.integers(1, 4))
        axes.append({"name": name, "start": start,
                     "stop": start + (count - 1) * step, "step": step})
    return sweep_config(base=base, axes=axes)


class TestCsvJsonAgree:
    """The CSV and the JSON of one artifact hold the same value in every
    cell, whatever decimals its inputs carry (see ``disagreements``)."""

    @staticmethod
    def sweep_cells(tmp_path, config):
        """The JSON cells of the sweep of ``config``, checked against its
        CSV."""
        path = write_config(tmp_path, config)
        csv_text, json_text = (
            cli_stdout(["sweep", "--config", path, "--format", fmt])
            for fmt in ("csv", "json"))
        cells = json.loads(json_text)["cells"]
        assert disagreements(csv_text, cells) == []
        return cells

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(config=decimal_sweep_configs())
    def test_sweep(self, tmp_path_factory, config):
        self.sweep_cells(tmp_path_factory.mktemp("sweep"), config)

    def test_sweep_delta(self, tmp_path):
        """An RTT difference of five decimals reads 10.123 in both."""
        config = sweep_config(
            base={"t_i": 1000, "rtt_edge": 40, "rtt_cloud": 50.12345},
            axes=[{"name": "t_i", "start": 1000, "stop": 2000,
                   "step": 500}])
        cells = self.sweep_cells(tmp_path, config)
        assert {cell["delta_rtt_ms"] for cell in cells} == {10.123}

    def test_trace_analyze(self, tmp_path):
        """A period of seven decimals reads with six in both."""
        edge, cloud = synth_exports(tmp_path, "get", 20000)
        csv_text, json_text = (cli_stdout([
            "trace-analyze", "--kind", "get", "--client", CLIENT, "--t-i",
            "30000.1234567", "--format", fmt, *edge, "--cloud", *cloud])
            for fmt in ("csv", "json"))
        rows = [{k: v for k, v in row.items() if k != "repetitions"}
                for row in json.loads(json_text).values()]
        assert disagreements(csv_text, rows) == []

    def test_cost(self):
        argv = ["cost", "--alpha", "0.1234567", "--alpha", "1",
                "--hourly-bytes", "360000.1234567", "--rtt", "40.1234567",
                "--t-i-min", "2000.1234567", "--t-i-max", "20000",
                "--t-i-step", "6000.7654321"]
        csv_text, json_text = (cli_stdout([*argv, "--format", fmt])
                               for fmt in ("csv", "json"))
        rows = [{"alpha": curve["alpha"], **point,
                 "is_argmin": int(point["t_i_ms"] == curve["argmin_t_i_ms"])}
                for curve in json.loads(json_text)["curves"]
                for point in curve["points"]]
        assert disagreements(csv_text, rows) == []

    def test_eval(self, tmp_path):
        argv = ["eval", "--t-i", "30000.1234567", "--t-elab", "150.1234567",
                "--rtt", "40.7654321", "--b-tx", "16000.1234567"]
        texts = []
        for fmt in ("csv", "json"):
            cli_stdout([*argv, "--format", fmt,
                        "--out", str(tmp_path / f"eval.{fmt}")])
            texts.append((tmp_path / f"eval.{fmt}").read_text())
        assert disagreements(texts[0], [json.loads(texts[1])]) == []


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

    def test_get_smaller_than_its_request(self, tmp_path, capsys):
        """A GET of 1 to 149 bytes is smaller than its 150-byte request,
        which is shorter than one segment: ``--kind get`` reads it."""
        for file_size in range(1, 150):
            path = self.export(tmp_path, "get", file_size)
            assert cli.main(self.analyze("get", path)) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert row[:2] == ["get", str(file_size)]

    def test_second_peer_named(self, tmp_path, capsys):
        lines, stray = second_peer_export()
        path = tmp_path / "second_peer.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        code = cli.main(self.analyze("get", str(path)))
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: line {stray}: {SECOND_PEER}\n")


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

    @pytest.mark.parametrize("fault, message", [
        ("empty", "no request payload from the client"),
        ("bad flags", "line 1: bad flags field 'ZZ'"),
        ("stray packet", "line 30: packet 10.0.0.9:1 -> 203.0.113.5:80 does "
         f"not involve client {CLIENT}"),
    ])
    def test_bad_export_named(self, tmp_path, capsys, fault, message):
        """Each per-file error names the export it comes from."""
        good = tmp_path / "good.tsv"
        assert cli.main(["trace-synth", "--kind", "get", "--file-size",
                         "20000", "--rtt", "20", "--bottleneck", "20e6",
                         "--out", str(good)]) == 0
        lines = good.read_text().splitlines()
        if fault == "empty":
            lines = []
        elif fault == "bad flags":
            lines[0] = lines[0].replace("\tS\t", "\tZZ\t")
        else:
            lines.append("9.000000\t10.0.0.9\t203.0.113.5\t1\t80\t10\t"
                         "PA\t1\t1")
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join(f"{text}\n" for text in lines))
        assert_cli_error(["trace-analyze", "--kind", "get", "--client",
                          CLIENT, "--t-i", "30000", str(good),
                          "--cloud", str(bad)], capsys,
                         f"error: {bad}: {message}\n")

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
    """``ltenergy.traces`` loads only when a trace command imports it, and
    ``ltenergy.sweep`` only when ``sweep`` or ``cost`` does; the package
    serves no module's names, so no command pays for a module it does not
    run.  Each test runs in a fresh interpreter, because this one has
    imported them already."""

    @pytest.mark.parametrize("command, modules", [
        (None, []),
        ("power-table", ["_fmt", "analytic", "cli", "power_model"]),
        ("eval", ["_fmt", "analytic", "cli", "power_model"]),
        ("sweep", ["_fmt", "analytic", "cli", "power_model", "sweep"]),
        ("cost", ["_fmt", "analytic", "cli", "power_model", "sweep"]),
        ("trace-synth", ["_fmt", "analytic", "cli", "power_model", "traces"]),
        ("trace-analyze",
         ["_fmt", "analytic", "cli", "power_model", "traces"]),
    ], ids=["package", "power-table", "eval", "sweep", "cost", "trace-synth",
            "trace-analyze"])
    def test_each_command_loads_only_its_modules(self, tmp_path, command,
                                                 modules):
        """Each command, run alone in a fresh interpreter, loads exactly
        these ``ltenergy`` modules; ``import ltenergy`` alone (``None``)
        loads none of them."""
        export = tmp_path / "get.tsv"
        synth = ["--kind", "get", "--file-size", "5000", "--rtt", "20",
                 "--bottleneck", "20e6"]
        argv = {
            None: [],
            "power-table": [],
            "eval": ["--t-i", "30000"],
            "sweep": ["--config", FIGURES / "fig4.json"],
            "cost": ["--config", FIGURES / "fig8.json"],
            "trace-synth": synth,
            "trace-analyze": ["--kind", "get", "--client", CLIENT, "--t-i",
                              "30000", export],
        }[command]
        if command is not None:
            argv = [command, *argv, "--out", tmp_path / "out"]
        if command == "trace-analyze":
            assert cli.main(["trace-synth", *synth, "--out", str(export)]) == 0
        stdout = fresh_python("""
import contextlib, io, sys
if len(sys.argv) > 1:
    from ltenergy import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0, sys.argv
else:
    import ltenergy
print(sorted(name for name in sys.modules if name.startswith("ltenergy")))
""", *argv)
        assert stdout == str(sorted(
            ["ltenergy", *(f"ltenergy.{m}" for m in modules)])) + "\n"

    def test_unknown_attribute(self):
        stdout = fresh_python("""
import sys
import ltenergy
for name in ("no_such_name", "parse_events", "SYNTH_CLIENT", "_plan_trace",
             "SweepSpec", "compare"):
    try:
        getattr(ltenergy, name)
    except AttributeError as exc:
        print(exc)
print("ltenergy.traces" in sys.modules)
""")
        assert stdout == (
            "module 'ltenergy' has no attribute 'no_such_name'\n"
            "module 'ltenergy' has no attribute 'parse_events'\n"
            "module 'ltenergy' has no attribute 'SYNTH_CLIENT'\n"
            "module 'ltenergy' has no attribute '_plan_trace'\n"
            "module 'ltenergy' has no attribute 'SweepSpec'\n"
            "module 'ltenergy' has no attribute 'compare'\n"
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
            f"1 [False, True] \"error: {path}: line 3: bad timestamp "
            "'nan'\\n\"\n")


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

    def test_cost_curves_follow_the_alphas_by_position(self, tmp_path,
                                                       capsys):
        """One curve per alpha in the given order, duplicates kept, and an
        integer alpha stays an integer in the JSON artifact."""
        path = write_config(tmp_path, cost_config(alphas=[1, 0.5, 1],
                                                  format="json"))
        assert cli.main(["cost", "--config", path]) == 0
        curves = json.loads(capsys.readouterr().out)["curves"]
        assert [curve["alpha"] for curve in curves] == [1, 0.5, 1]
        assert isinstance(curves[0]["alpha"], int)
        assert curves[0] == curves[2] != curves[1]

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

        monkeypatch.setattr(traces, "_segment_sizes", fail)

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


class TestEachCyclePricedOnce:
    """Every command prices each of its cycles once, through a pricer that
    ``analytic.cycle_pricer`` binds, whichever module binds it: by a call
    of the scalar pricer or as one cycle of a ``price.row`` call, whose
    legs ``price.legs`` made."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """``(cycles, waits)``: the ``(t_tx, t_w, t_rx, t_i)`` of each
        cycle priced, and each wait whose energy ``price.waits`` computed."""
        cycles, waits = [], []
        sources = {}  # the (t_tx, t_rx, t_i) of each leg made
        bind = analytic.cycle_pricer

        def counting(profile):
            price = bind(profile)

            def counted(*args):
                cycles.append(args)
                return price(*args)

            def legs(t_txs, t_rxs, t_is):
                made = price.legs(t_txs, t_rxs, t_is)
                sources.update(zip(made, zip(t_txs, t_rxs, t_is)))
                return made

            def row(row_legs, row_waits):
                cycles.extend((sources[leg][0], wait[0], *sources[leg][1:])
                              for leg in row_legs for wait in row_waits
                              if isinstance(leg, tuple)
                              and isinstance(wait, tuple))  # else errors
                return price.row(row_legs, row_waits)

            def energies(t_ws):
                computed = price.waits(t_ws)
                waits.extend(t_w for t_w, _ in computed)
                return computed

            counted.legs, counted.row, counted.waits = legs, row, energies
            return counted

        for module in (analytic, sweep, traces):
            if hasattr(module, "cycle_pricer"):
                monkeypatch.setattr(module, "cycle_pricer", counting)
        return cycles, waits

    @pytest.fixture
    def calls(self, counts):
        return counts[0]

    def test_eval(self, calls):
        assert cli.main(["eval", "--t-i", "30000"]) == 0
        assert len(calls) == 1

    def test_compare(self, calls):
        edge = analytic.ConnectionlessScenario(t_i=1000, rtt=40)
        analytic.compare(edge, edge._replace(rtt=90), default_profile())
        assert len(calls) == 2

    def test_trace_analyze(self, calls, tmp_path):
        edge, cloud = synth_exports(tmp_path, "get", 20000)
        assert cli.main(["trace-analyze", "--kind", "get", "--client",
                         CLIENT, "--t-i", "30000", "--out",
                         str(tmp_path / "out.csv"), *edge, "--cloud",
                         *cloud]) == 0
        assert len(calls) == 6

    def test_cost_prices_each_period_once(self, calls, tmp_path):
        """fig8 costs 3 alphas over 120 periods: 360 points, 120 cycles."""
        assert cli.main(["cost", "--config", str(FIGURES / "fig8.json"),
                         "--out", str(tmp_path / "fig8.csv")]) == 0
        assert len(calls) == 120
        assert sorted(set(args[-1] for args in calls)) == [
            1000.0 * k for k in range(1, 121)]

    def test_sweep_prices_no_cloud_of_an_overrunning_edge(self, calls,
                                                           tmp_path):
        """At 128 ms up and 160 ms down, an edge at 40 ms overruns the
        periods of 100, 200 and 300 ms: those rows price their edge alone,
        the other 7 rows their edge and their 10 clouds."""
        config = tmp_path / "overrun.json"
        config.write_text(json.dumps({
            "command": "sweep", "base": {"t_i": 1000, "rtt_edge": 40,
                                         "b_tx": 16000, "b_rx": 16000},
            "axes": [{"name": "t_i", "start": 100, "stop": 1000,
                      "step": 100},
                     {"name": "rtt_cloud", "start": 50, "stop": 500,
                      "step": 50}]}))
        assert cli.main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "overrun.csv")]) == 0
        assert [args[-1] for args in calls if args[-1] < 400] == [
            100.0, 200.0, 300.0]
        assert len(calls) == 3 + 7 * 11

    def test_sweep_prices_each_row_once(self, counts, tmp_path):
        """fig4 sweeps 18 periods by 11 cloud RTTs: each of its 18 rows
        prices its edge and its 11 clouds, 216 cycles, and the 12 waits of
        its one t_elab have their energies computed once."""
        cycles, waits = counts
        assert cli.main(["sweep", "--config", str(FIGURES / "fig4.json"),
                         "--out", str(tmp_path / "fig4.csv")]) == 0
        assert len(cycles) == 18 + 18 * 11
        assert len(set(cycles)) == len(cycles)
        assert len(waits) == len(set(waits)) == 12
