"""Command-line front end.

Subcommands: ``power-table`` dumps the active radio parameters, ``eval``
prices a single connectionless cycle, ``sweep`` and ``cost`` run grid
evaluations from flags or a JSON config file (flags win over the file),
``trace-analyze`` turns packet trace exports into energy summaries, and
``trace-synth`` writes a synthetic trace.

Outputs are deterministic: fixed column orders, fixed-point decimals (one
decimal of mJ, three of ms, three for energy ratios), and no timestamps,
so repeated runs of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import analytic, sweep, traces
from ._fmt import fmt_axis, fmt_cost, fmt_mj, fmt_ms, fmt_rho
from .power_model import PowerProfile, default_profile, load_profile, profile_to_dict

__all__ = ["RunConfig", "run", "main"]

COMMANDS = ("power-table", "eval", "sweep", "cost", "trace-analyze",
            "trace-synth")


@dataclass
class RunConfig:
    """One fully resolved CLI invocation."""

    command: str
    profile_path: str | None = None
    output_format: str = "csv"
    output_path: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")


def _load_config_file(path: str, expected_command: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    command = data.get("command", expected_command)
    if command != expected_command:
        raise ValueError(
            f"{path}: config is for command {command!r}, "
            f"not {expected_command!r}"
        )
    return data


def _resolve_profile(config: RunConfig) -> PowerProfile:
    if config.profile_path:
        return load_profile(config.profile_path)
    return default_profile()


def _write(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _json(obj: Any) -> str:
    """The JSON artifact layout: two-space indent, no trailing newline."""
    return json.dumps(obj, indent=2)


def _emit(config: RunConfig, columns: list[str],
          rows: Callable[[], list[list[str]]],
          json_text: Callable[[], str]) -> None:
    """Render the artifact in the requested format only, from the CSV
    ``rows`` or the ``json_text`` callable, and write it."""
    if config.output_format == "json":
        _write(config, json_text() + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows())
    _write(config, buf.getvalue())


def _flatten_profile(profile: PowerProfile) -> list[tuple[str, float]]:
    data = profile_to_dict(profile)
    flat: list[tuple[str, float]] = []
    for key, value in data.items():
        if isinstance(value, dict):
            flat.extend((f"{key}.{sub}", sub_value)
                        for sub, sub_value in value.items())
        else:
            flat.append((key, value))
    return flat


def _run_power_table(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    flat = _flatten_profile(profile)
    _emit(
        config,
        columns=["parameter", "value"],
        rows=lambda: [[name, fmt_axis(value)] for name, value in flat],
        json_text=lambda: _json(profile_to_dict(profile)),
    )
    return 0


def _run_eval(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    scn = analytic.ConnectionlessScenario(**config.params)
    timing = analytic.phase_timing(scn, profile)
    energy = analytic.cycle_energy(timing, profile)

    fields = [  # (column, value, unit)
        ("t_tx_ms", timing.t_tx, "ms"),
        ("t_w_ms", timing.t_w, "ms"),
        ("t_rx_ms", timing.t_rx, "ms"),
        ("t_q_ms", timing.t_q, "ms"),
        ("e_tx_mj", energy.e_tx, "mJ"),
        ("e_w_mj", energy.e_w, "mJ"),
        ("e_rx_mj", energy.e_rx, "mJ"),
        ("e_q_mj", energy.e_q, "mJ"),
        ("e_prom_tx_mj", energy.e_prom_tx, "mJ"),
        ("e_prom_rx_mj", energy.e_prom_rx, "mJ"),
        ("e_i_mj", energy.e_i, "mJ"),
    ]
    # unit: (text format, JSON decimals)
    formats = {"ms": (fmt_ms, 3), "mJ": (fmt_mj, 1)}
    for column, value, unit in fields:
        label = column.rsplit("_", 1)[0].upper()
        print(f"{label} = {formats[unit][0](value)} {unit}")

    if config.output_path:
        _emit(config, [column for column, _, _ in fields],
              lambda: [[formats[unit][0](v) for _, v, unit in fields]],
              lambda: _json({c: round(v, formats[unit][1])
                             for c, v, unit in fields}))
    return 0


def _number(value: Any, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _axis_from_config(entry: Any) -> sweep.SweepAxis:
    if not isinstance(entry, dict):
        raise ValueError(f"sweep axis must be an object, got {entry!r}")
    missing = [k for k in ("name", "start", "stop", "step") if k not in entry]
    if missing:
        raise ValueError(f"sweep axis {entry!r} lacks {', '.join(missing)}")
    name = str(entry["name"])
    return sweep.SweepAxis(
        name=name,
        start=_number(entry["start"], f"axis {name} start"),
        stop=_number(entry["stop"], f"axis {name} stop"),
        step=_number(entry["step"], f"axis {name} step"),
    )


def _sweep_spec_from_params(params: dict[str, Any]) -> sweep.SweepSpec:
    base = params.get("base")
    if not isinstance(base, dict) or "t_i" not in base:
        raise ValueError("sweep config needs a 'base' object with 't_i'")

    def base_number(key: str, default: float) -> float:
        return _number(base.get(key, default), f"base {key}")

    rtt_edge = base_number("rtt_edge", analytic.DEFAULT_EDGE_RTT_MS)
    rtt_cloud = base_number("rtt_cloud", rtt_edge)
    common = dict(
        t_i=_number(base["t_i"], "base t_i"),
        t_elab=base_number("t_elab", 0.0),
        b_tx=base_number("b_tx", 0.0),
        b_rx=base_number("b_rx", 0.0),
        uplink_bps=base_number("uplink_bps", analytic.DEFAULT_UPLINK_BPS),
        downlink_bps=base_number("downlink_bps",
                                 analytic.DEFAULT_DOWNLINK_BPS),
    )
    axes_data = params.get("axes")
    if not axes_data:
        raise ValueError("empty grid: sweep config has no axes")
    if not isinstance(axes_data, list):
        raise ValueError("sweep config 'axes' must be a list of objects")
    return sweep.SweepSpec(
        base_edge=analytic.ConnectionlessScenario(rtt=rtt_edge, **common),
        base_cloud=analytic.ConnectionlessScenario(rtt=rtt_cloud, **common),
        axes=tuple(_axis_from_config(a) for a in axes_data),
    )


def _run_sweep(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    spec = _sweep_spec_from_params(config.params)
    result = sweep.run_sweep(spec, profile)
    _emit(config, result.columns, result.rows, result.json_text)
    return 0


def _run_cost(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    p = config.params
    for key in ("hourly_bytes", "rtt", "t_i_min", "t_i_max", "t_i_step"):
        if p.get(key) is None:
            raise ValueError(f"cost command needs {key!r}")
    alphas = p.get("alphas") or [0.5]
    if not isinstance(alphas, list):
        raise ValueError(f"alphas must be a list of numbers, got {alphas!r}")

    def given(value: Any, what: str) -> float:
        # A number keeps its type, so the integers of a config file stay
        # integers in the JSON artifact (alphas and grid periods).
        if isinstance(value, (int, float)):
            return value
        return _number(value, what)

    alphas = [given(alpha, "alpha") for alpha in alphas]
    t_i_min, t_i_max, t_i_step = (
        given(p[key], key) for key in ("t_i_min", "t_i_max", "t_i_step"))
    if t_i_step <= 0:
        raise ValueError("t_i_step must be strictly positive")
    if t_i_min > t_i_max:
        raise ValueError("empty grid: t_i_min exceeds t_i_max")
    grid = tuple(sweep.SweepAxis("t_i", t_i_min, t_i_max, t_i_step).values())

    columns = ["alpha", "t_i_ms", "e_mj_per_hour", "d_ms", "cost", "is_argmin"]
    curves = []
    for alpha in alphas:
        spec = sweep.CostSpec(
            alpha=float(alpha),
            hourly_bytes=_number(p["hourly_bytes"], "hourly_bytes"),
            rtt=_number(p["rtt"], "rtt"),
            t_i_grid=grid,
            reply_bytes=_number(p.get("reply_bytes", 1.0), "reply_bytes"),
        )
        curves.append((alpha, sweep.cost_curve(spec, profile)))

    def rows() -> list[list[str]]:
        return [
            [
                fmt_axis(alpha),
                fmt_axis(point.t_i),
                fmt_mj(point.e_total),
                fmt_axis(point.d),
                fmt_cost(point.c),
                "1" if point.t_i == curve.argmin_t_i else "0",
            ]
            for alpha, curve in curves
            for point in curve.points
        ]

    def json_text() -> str:
        return _json({
            "curves": [
                {
                    "alpha": alpha,
                    "argmin_t_i_ms": curve.argmin_t_i,
                    "e_max_mj": round(curve.e_max, 1),
                    "d_max_ms": curve.d_max,
                    "points": [
                        {
                            "t_i_ms": pt.t_i,
                            "e_mj_per_hour": round(pt.e_total, 1),
                            "d_ms": pt.d,
                            "cost": round(pt.c, 6),
                        }
                        for pt in curve.points
                    ],
                }
                for alpha, curve in curves
            ]
        })

    _emit(config, columns, rows, json_text)
    return 0


def _analyze_set(paths: Sequence[str], kind: str, client: str,
                 t_i: float, profile: PowerProfile) -> traces.AggregateResult:
    extract = (traces.extract_post_phases if kind == "post"
               else traces.extract_get_phases)
    iterations = []
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            events = traces.parse_events(fp, client=client)
        iterations.append(extract(events))
    return traces.aggregate(iterations, t_i, profile)


def _run_trace_analyze(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    p = config.params
    kind = p["kind"]
    client = p["client"]
    t_i = float(p["t_i"])
    concurrency = p.get("concurrency")
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be non-negative, got {concurrency}")
    c_text = "" if concurrency is None else str(concurrency)

    edge = _analyze_set(p["files"], kind, client, t_i, profile)
    placements = [("edge", edge, None)]
    if p.get("cloud_files"):
        cloud = _analyze_set(p["cloud_files"], kind, client, t_i, profile)
        placements = [("edge", edge, traces.rho_from_traces(edge, cloud)),
                      ("cloud", cloud, None)]

    columns = ["app_kind", "file_size", "t_i", "c", "t_tx_ms", "t_w_ms",
               "t_rx_ms", "t_q_ms", "e_i_mJ", "rho"]

    def agg_row(agg, rho_value):
        return [
            agg.app_kind, str(agg.file_size), fmt_axis(t_i), c_text,
            fmt_ms(agg.mean_t_tx), fmt_ms(agg.mean_t_w),
            fmt_ms(agg.mean_t_rx), fmt_ms(agg.mean_t_q),
            fmt_mj(agg.total_mj),
            "" if rho_value is None else fmt_rho(rho_value),
        ]

    def agg_obj(agg, rho_value):
        return {
            "app_kind": agg.app_kind,
            "file_size": agg.file_size,
            "t_i": t_i,
            "c": concurrency,
            "t_tx_ms": round(agg.mean_t_tx, 3),
            "t_w_ms": round(agg.mean_t_w, 3),
            "t_rx_ms": round(agg.mean_t_rx, 3),
            "t_q_ms": round(agg.mean_t_q, 3),
            "e_i_mJ": round(agg.total_mj, 1),
            "rho": None if rho_value is None else round(rho_value, 3),
            "repetitions": len(agg.breakdowns),
        }

    _emit(config, columns,
          lambda: [agg_row(agg, r) for _, agg, r in placements],
          lambda: _json({name: agg_obj(agg, r)
                         for name, agg, r in placements}))
    return 0


def _run_trace_synth(config: RunConfig) -> int:
    p = config.params
    events = traces.synthesize_trace(
        kind=p["kind"],
        file_size=int(p["file_size"]),
        rtt_ms=float(p["rtt"]),
        bottleneck_bps=float(p["bottleneck"]),
        seed=int(p.get("seed", 0)),
    )
    _write(config, "\n".join(traces.events_to_lines(events)) + "\n")
    return 0


_RUNNERS = {
    "power-table": _run_power_table,
    "eval": _run_eval,
    "sweep": _run_sweep,
    "cost": _run_cost,
    "trace-analyze": _run_trace_analyze,
    "trace-synth": _run_trace_synth,
}


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; raises on any module error."""
    return _RUNNERS[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", help="JSON radio parameter file")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    common.add_argument("--out", help="write the artifact to this path")

    parser = argparse.ArgumentParser(
        prog="ltenergy",
        description="Energy model for LTE clients of edge- or cloud-placed "
                    "request-response servers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("power-table", parents=[common],
                   help="dump the active radio parameters")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="price one connectionless cycle")
    p_eval.add_argument("--t-i", type=float, required=True,
                        help="application period, ms")
    p_eval.add_argument("--t-elab", type=float, default=0.0,
                        help="server elaboration time, ms")
    p_eval.add_argument("--rtt", type=float,
                        default=analytic.DEFAULT_EDGE_RTT_MS,
                        help="round-trip time, ms")
    p_eval.add_argument("--b-tx", type=float, default=0.0,
                        help="bytes uploaded per cycle")
    p_eval.add_argument("--b-rx", type=float, default=0.0,
                        help="bytes downloaded per cycle")
    p_eval.add_argument("--uplink", type=float, dest="uplink_bps",
                        default=analytic.DEFAULT_UPLINK_BPS,
                        help="uplink bitrate, bits/s")
    p_eval.add_argument("--downlink", type=float, dest="downlink_bps",
                        default=analytic.DEFAULT_DOWNLINK_BPS,
                        help="downlink bitrate, bits/s")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="grid-evaluate the placement comparison")
    p_sweep.add_argument("--config", required=True,
                         help="JSON sweep configuration")

    p_cost = sub.add_parser("cost", parents=[common],
                            help="batching cost curve and its minimum")
    p_cost.add_argument("--config", help="JSON cost configuration")
    p_cost.add_argument("--alpha", type=float, action="append",
                        dest="alphas", help="energy weight (repeatable)")
    p_cost.add_argument("--hourly-bytes", type=float,
                        help="bytes produced per hour")
    p_cost.add_argument("--rtt", type=float, help="round-trip time, ms")
    p_cost.add_argument("--t-i-min", type=float, help="smallest period, ms")
    p_cost.add_argument("--t-i-max", type=float, help="largest period, ms")
    p_cost.add_argument("--t-i-step", type=float, help="period step, ms")
    p_cost.add_argument("--reply-bytes", type=float,
                        help="reply size, bytes (default 1)")

    p_ta = sub.add_parser("trace-analyze", parents=[common],
                          help="energy summary of packet trace exports")
    p_ta.add_argument("--kind", choices=("post", "get"), required=True)
    p_ta.add_argument("--client", required=True,
                      help="client endpoint as addr:port")
    p_ta.add_argument("--t-i", type=float, required=True,
                      help="application period, ms")
    p_ta.add_argument("--concurrency", type=int,
                      help="concurrent server connections during capture")
    p_ta.add_argument("--cloud", nargs="+", metavar="FILE",
                      dest="cloud_files",
                      help="matching trace files from the cloud placement")
    p_ta.add_argument("files", nargs="+", metavar="FILE",
                      help="trace files, one exchange each")

    p_ts = sub.add_parser("trace-synth", parents=[common],
                          help="write a synthetic trace")
    p_ts.add_argument("--kind", choices=("post", "get"), required=True)
    p_ts.add_argument("--file-size", type=int, required=True,
                      help="application bytes in the bulk direction")
    p_ts.add_argument("--rtt", type=float, required=True,
                      help="round-trip time, ms")
    p_ts.add_argument("--bottleneck", type=float, required=True,
                      help="bottleneck bitrate, bits/s")
    p_ts.add_argument("--seed", type=int, default=0)

    return parser


# Namespace and config-file keys that are not parameters of a runner.
_NOT_PARAMS = ("command", "config", "profile", "format", "out")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Resolve one invocation: flags win over the config file.

    The runner parameters start from the config file's keys; every flag
    given (or defaulted) to a value other than None overrides its key, so
    each flag's ``dest`` is the parameter name its runner reads.
    """
    file_data: dict[str, Any] = {}
    if getattr(args, "config", None):
        file_data = _load_config_file(args.config, args.command)
    params = {k: v for k, v in file_data.items() if k not in _NOT_PARAMS}
    params.update((k, v) for k, v in vars(args).items()
                  if v is not None and k not in _NOT_PARAMS)
    return RunConfig(
        command=args.command,
        profile_path=args.profile or file_data.get("profile"),
        output_format=args.format or file_data.get("format") or "csv",
        output_path=args.out or file_data.get("out"),
        params=params,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
