"""Command-line front end.

Subcommands: ``power-table`` dumps the active radio parameters, ``eval``
prices a single connectionless cycle, ``sweep`` and ``cost`` run grid
evaluations from flags or a JSON config file, ``trace-analyze`` turns
packet trace exports into energy summaries, and ``trace-synth`` writes a
synthetic trace.  A config file accepts only its command's keys (any other
key is an error), and flags win over the file.

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
from typing import Any, Callable, NamedTuple, Sequence

from . import analytic, sweep
from ._fmt import fmt_axis, fmt_cost, fmt_mj, fmt_ms, fmt_rho
from .power_model import (PowerProfile, _checked, _number, _reject_unknown,
                          default_profile, load_profile, profile_to_dict)

__all__ = ["main"]


@_checked
class RunConfig(NamedTuple):
    """One fully resolved CLI invocation."""

    command: str
    profile_path: str | None
    output_format: str
    output_path: str | None
    params: dict[str, Any]

    def _check(self) -> None:
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
    if config.profile_path is not None:
        return load_profile(config.profile_path)
    return default_profile()


def _write(config: RunConfig, text: str) -> None:
    if config.output_path is not None:
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


def _run_power_table(config: RunConfig) -> int:
    data = profile_to_dict(_resolve_profile(config))
    flat: list[tuple[str, float]] = []  # duty blocks as "block.field"
    for key, value in data.items():
        if isinstance(value, dict):
            flat.extend((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat.append((key, value))
    _emit(config, ["parameter", "value"],
          lambda: [[name, fmt_axis(value)] for name, value in flat],
          lambda: _json(data))
    return 0


def _run_eval(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    scn = analytic.ConnectionlessScenario(**config.params)
    timing = analytic.phase_timing(scn, profile)
    energy = analytic.cycle_energy(timing, profile)

    # (column, value, unit): the phase durations, then the energy parts
    # and their total, each named after its field.
    table = [(f"{name}_ms", value, "ms")
             for name, value in zip(timing._fields, timing)
             if name.startswith("t_")]
    table += [(f"{name}_mj", value, "mJ")
              for name, value in zip(energy._fields, energy)]
    # unit: (text format, JSON decimals)
    formats = {"ms": (fmt_ms, 3), "mJ": (fmt_mj, 1)}
    for column, value, unit in table:
        label = column.rsplit("_", 1)[0].upper()
        print(f"{label} = {formats[unit][0](value)} {unit}")

    if config.output_path is not None:
        _emit(config, [column for column, _, _ in table],
              lambda: [[formats[unit][0](v) for _, v, unit in table]],
              lambda: _json({c: round(v, formats[unit][1])
                             for c, v, unit in table}))
    return 0


_AXIS_KEYS = sweep.SweepAxis._fields
# A sweep base is a scenario whose rtt is given per placement.
_BASE_KEYS = ({*analytic.ConnectionlessScenario._fields}
              - {"rtt"} | {"rtt_edge", "rtt_cloud"})


def _axis_from_config(entry: Any) -> sweep.SweepAxis:
    if not isinstance(entry, dict):
        raise ValueError(f"sweep axis must be an object, got {entry!r}")
    _reject_unknown(entry, _AXIS_KEYS, "sweep axis keys")
    missing = [k for k in _AXIS_KEYS if k not in entry]
    if missing:
        raise ValueError(f"sweep axis {entry!r} lacks {', '.join(missing)}")
    name = str(entry["name"])
    return sweep.SweepAxis(name, *(_number(entry[k], f"axis {name} {k}")
                                   for k in _AXIS_KEYS if k != "name"))


def _sweep_spec_from_params(params: dict[str, Any]) -> sweep.SweepSpec:
    """Edge and cloud scenarios from the ``base`` keys given (the scenario
    supplies the rest, the cloud rtt defaults to the edge's), and axes."""
    base = params.get("base")
    if not isinstance(base, dict) or "t_i" not in base:
        raise ValueError("sweep config needs a 'base' object with 't_i'")
    _reject_unknown(base, _BASE_KEYS, "base keys")
    given = {k: _number(v, f"base {k}") for k, v in base.items()}
    rtt_cloud = given.pop("rtt_cloud", None)
    if "rtt_edge" in given:
        given["rtt"] = given.pop("rtt_edge")
    edge = analytic.ConnectionlessScenario(**given)
    axes_data = params.get("axes")
    if not axes_data:
        raise ValueError("empty grid: sweep config has no axes")
    if not isinstance(axes_data, list):
        raise ValueError("sweep config 'axes' must be a list of objects")
    return sweep.SweepSpec(
        base_edge=edge,
        base_cloud=edge._replace(rtt=edge.rtt if rtt_cloud is None
                                 else rtt_cloud),
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
    alphas = [0.5] if p.get("alphas") is None else p["alphas"]
    if not isinstance(alphas, list):
        raise ValueError(f"alphas must be a list of numbers, got {alphas!r}")
    if not alphas:
        raise ValueError("alphas must be a non-empty list of numbers")

    def given(value: Any, what: str) -> float:
        # A number keeps its type, so the integers of a config file stay
        # integers in the JSON artifact (alphas and grid periods).
        number = _number(value, what)
        return value if isinstance(value, (int, float)) else number

    alphas = [given(alpha, "alpha") for alpha in alphas]
    axis = sweep.SweepAxis("t_i", *(given(p[key], key) for key in
                                    ("t_i_min", "t_i_max", "t_i_step")))
    points = len(alphas) * axis.n_values  # each curve prices the whole grid
    if points > sweep.MAX_GRID_CELLS:
        raise ValueError(
            f"cost has {points} points, more than {sweep.MAX_GRID_CELLS}")
    grid = tuple(axis.values())
    # CostSpec supplies the reply size when neither flag nor file gives it.
    numbers = {k: _number(p[k], k)
               for k in ("hourly_bytes", "rtt", "reply_bytes") if k in p}

    columns = ["alpha", "t_i_ms", "e_mj_per_hour", "d_ms", "cost", "is_argmin"]
    curves = []
    for alpha in alphas:
        spec = sweep.CostSpec(alpha=float(alpha), t_i_grid=grid, **numbers)
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


def _run_trace_analyze(config: RunConfig) -> int:
    from . import traces
    profile = _resolve_profile(config)
    p = config.params
    kind = p["kind"]
    client = p["client"]
    t_i = float(p["t_i"])
    concurrency = p.get("concurrency")
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be non-negative, got {concurrency}")
    c_text = "" if concurrency is None else str(concurrency)
    extract = (traces.extract_post_phases if kind == "post"
               else traces.extract_get_phases)

    def analyze(paths: Sequence[str]) -> traces.AggregateResult:
        """One placement's exports, one exchange each, aggregated.  The
        stream that ``kind`` names must not be the smaller one; a tie
        cannot contradict it."""
        iterations = []
        for path in paths:
            with open(path, encoding="utf-8") as fp:
                events = traces.parse_events(fp, client=client)
            it = extract(events)
            if it.file_size < it.other_size:
                named, other = (("request", "response") if kind == "post"
                                else ("response", "request"))
                raise traces.IncompleteExchangeError(
                    f"{path}: --kind {kind} names the {named}, "
                    f"{it.file_size} bytes, but the {other} is larger, "
                    f"{it.other_size} bytes")
            iterations.append(it)
        return traces.aggregate(iterations, t_i, profile)

    edge = analyze(p["files"])
    placements = [("edge", edge, None)]
    if p.get("cloud_files"):
        cloud = analyze(p["cloud_files"])
        placements = [("edge", edge, traces.rho_from_traces(edge, cloud)),
                      ("cloud", cloud, None)]

    def cells(agg, rho):
        """(column, CSV text, JSON value) of one placement's row."""
        means = (("t_tx_ms", agg.mean_t_tx), ("t_w_ms", agg.mean_t_w),
                 ("t_rx_ms", agg.mean_t_rx), ("t_q_ms", agg.mean_t_q))
        return [
            ("app_kind", agg.app_kind, agg.app_kind),
            ("file_size", str(agg.file_size), agg.file_size),
            ("t_i", fmt_axis(t_i), t_i),
            ("c", c_text, concurrency),
            *((column, fmt_ms(v), round(v, 3)) for column, v in means),
            ("e_i_mJ", fmt_mj(agg.total_mj), round(agg.total_mj, 1)),
            ("rho", "" if rho is None else fmt_rho(rho),
             None if rho is None else round(rho, 3)),
        ]

    table = [(name, agg, cells(agg, r)) for name, agg, r in placements]
    _emit(config, [column for column, _, _ in table[0][2]],
          lambda: [[text for _, text, _ in row] for _, _, row in table],
          lambda: _json({name: {**{c: v for c, _, v in row},
                                "repetitions": len(agg.breakdowns)}
                         for name, agg, row in table}))
    return 0


def _run_trace_synth(config: RunConfig) -> int:
    from . import traces
    events = traces.synthesize_trace(**config.params)
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
    p_eval.add_argument("--t-elab", type=float,
                        help="server elaboration time, ms")
    p_eval.add_argument("--rtt", type=float, help="round-trip time, ms")
    p_eval.add_argument("--b-tx", type=float,
                        help="bytes uploaded per cycle")
    p_eval.add_argument("--b-rx", type=float,
                        help="bytes downloaded per cycle")
    p_eval.add_argument("--uplink", type=float, dest="uplink_bps",
                        help="uplink bitrate, bits/s")
    p_eval.add_argument("--downlink", type=float, dest="downlink_bps",
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
    p_ts.add_argument("--rtt", type=float, required=True, dest="rtt_ms",
                      help="round-trip time, ms")
    p_ts.add_argument("--bottleneck", type=float, required=True,
                      dest="bottleneck_bps", help="bottleneck bitrate, bits/s")
    p_ts.add_argument("--seed", type=int)

    return parser


# Namespace and config-file keys that are not parameters of a runner.
_NOT_PARAMS = ("command", "config", "profile", "format", "out")
# Config-file keys of a command beyond its flags' ``dest``s.
_FILE_ONLY_KEYS = {"sweep": ("base", "axes")}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Resolve one invocation: flags win over the config file.

    A config file may hold only its command's flag ``dest``s (not
    ``config``) and that command's file-only keys.  The runner parameters
    start from the file's keys; every flag given overrides its key, so each
    flag's ``dest`` is the parameter name its runner reads.  An empty string
    is given, not absent, so an empty path or format is an error.
    """
    file_data: dict[str, Any] = {}
    if getattr(args, "config", None) is not None:
        file_data = _load_config_file(args.config, args.command)
        known = {*vars(args), *_FILE_ONLY_KEYS.get(args.command, ())}
        _reject_unknown(file_data, known - {"config"}, "config keys")
    merged = {**file_data,
              **{k: v for k, v in vars(args).items() if v is not None}}
    for key in ("profile", "format", "out"):
        v = merged.get(key)
        if v is not None and not isinstance(v, str):
            raise ValueError(f"config {key} must be a string, got {v!r}")
        if v == "":
            raise ValueError(f"{key} must not be empty")
    return RunConfig(
        command=args.command,
        profile_path=merged.get("profile"),
        output_format=merged.get("format") or "csv",
        output_path=merged.get("out"),
        params={k: v for k, v in merged.items() if k not in _NOT_PARAMS},
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _RUNNERS[config.command](config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
