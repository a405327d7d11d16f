import hashlib
import json
from pathlib import Path

import pytest

from ltenergy import cli, sweep

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
        ("csv", "to_json_obj"), ("json", "rows"),
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
