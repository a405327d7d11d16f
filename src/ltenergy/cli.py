"""Command-line front end.

Subcommands: ``power-table`` dumps the active radio parameters, ``eval``
prices a single connectionless cycle, ``sweep`` and ``cost`` run grid
evaluations from flags or a JSON config file, ``trace-analyze`` turns
packet trace exports into energy summaries, and ``trace-synth`` writes a
synthetic trace; it takes ``--out`` but no ``--profile`` or ``--format``.
A config file accepts only its command's keys (any other key is an error),
and flags win over the file.  Configs, profiles and trace exports are read
as UTF-8 with an optional byte order mark (a UTF-16 one is an error that
asks for UTF-8), and an error reading one names the file.  A -0 reads as 0.

Outputs are deterministic: fixed column orders, fixed-point decimals (one
decimal of mJ, three of ms, three for energy ratios), CSV lines quoted as
by ``csv.writer``, and no timestamps, so repeated runs of the same config
are byte-identical.  An artifact is written whole, once the whole run has
succeeded: a failure, even at the last sweep cell, leaves stdout empty and
an existing ``--out`` file as it was.  On stderr, each library warning is
one ``warning: <message>`` line, and a failure ends with one
``error: <message>`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import analytic
from ._fmt import csv_line, fmt_axis, fmt_cost, fmt_mj, fmt_ms, fmt_rho
from .power_model import (PowerProfile, _checked, _load_json_object,
                          _number, _open_utf8, _reject_unknown,
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


def _resolve_profile(config: RunConfig) -> PowerProfile:
    if config.profile_path is not None:
        return load_profile(config.profile_path)
    return default_profile()


def _write(config: RunConfig, *chunks: str) -> None:
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fp:
            fp.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json(obj: Any) -> str:
    """The JSON artifact layout: two-space indent, no trailing newline."""
    return json.dumps(obj, indent=2)


def _emit(config: RunConfig, columns: list[str],
          lines: Callable[[], Iterable[str]],
          json_text: Callable[[], str]) -> None:
    """Render the artifact in the requested format only, from the CSV
    ``lines`` of :func:`csv_line` or the ``json_text`` callable, and write
    it once whole: the header and lines, or the JSON text and a newline."""
    if config.output_format == "json":
        _write(config, json_text(), "\n")
    else:
        _write(config, csv_line(columns), "".join(lines()))


def _run_power_table(config: RunConfig) -> int:
    data = profile_to_dict(_resolve_profile(config))
    flat: list[tuple[str, float]] = []  # duty blocks as "block.field"
    for key, value in data.items():
        if isinstance(value, dict):
            flat.extend((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat.append((key, value))
    _emit(config, ["parameter", "value"],
          lambda: [csv_line([name, fmt_axis(v)]) for name, v in flat],
          lambda: _json(data))
    return 0


def _run_eval(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    scn = analytic.ConnectionlessScenario(**config.params)
    timing, energy = analytic.price_scenario(scn, profile)

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
              lambda: [csv_line([formats[u][0](v) for _, v, u in table])],
              lambda: _json({c: round(v, formats[unit][1])
                             for c, v, unit in table}))
    return 0


def _axis_from_config(entry: Any):
    """The :class:`sweep.SweepAxis` of one ``axes`` entry of a config."""
    from . import sweep
    if not isinstance(entry, dict):
        raise ValueError(f"sweep axis must be an object, got {entry!r}")
    keys = sweep.SweepAxis._fields
    _reject_unknown(entry, keys, "sweep axis keys")
    missing = [k for k in keys if k not in entry]
    if missing:
        raise ValueError(f"sweep axis {entry!r} lacks {', '.join(missing)}")
    name = str(entry["name"])
    return sweep.SweepAxis(name, *(_number(entry[k], f"axis {name} {k}")
                                   for k in keys if k != "name"))


def _sweep_spec_from_params(params: dict[str, Any]):
    """The :class:`sweep.SweepSpec` of the edge's base scenario from the
    ``base`` keys given (the scenario supplies the rest), the cloud RTT
    (the edge's when not given), and the axes."""
    from . import sweep
    base = params.get("base")
    if not isinstance(base, dict) or "t_i" not in base:
        raise ValueError("sweep config needs a 'base' object with 't_i'")
    # A sweep base is a scenario whose rtt is given per placement.
    _reject_unknown(base, {*analytic.ConnectionlessScenario._fields}
                    - {"rtt"} | {"rtt_edge", "rtt_cloud"}, "base keys")
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
        base=edge,
        rtt_cloud=edge.rtt if rtt_cloud is None else rtt_cloud,
        axes=tuple(_axis_from_config(a) for a in axes_data),
    )


def _run_sweep(config: RunConfig) -> int:
    from . import sweep
    profile = _resolve_profile(config)
    spec = _sweep_spec_from_params(config.params)
    rows = sweep.sweep_rows(spec, profile)
    _emit(config, spec.columns, lambda: sweep.csv_rows(spec, rows),
          lambda: sweep.json_text(spec, rows))
    return 0


def _run_cost(config: RunConfig) -> int:
    from . import sweep
    profile = _resolve_profile(config)
    p = config.params
    for key in ("hourly_bytes", "rtt", "t_i_min", "t_i_max", "t_i_step"):
        if p.get(key) is None:
            raise ValueError(f"cost command needs {key!r}")
    alphas = [0.5] if p.get("alphas") is None else p["alphas"]
    if not isinstance(alphas, list):
        raise ValueError(f"alphas must be a list of numbers, got {alphas!r}")

    def given(value: Any, what: str) -> float:
        # An integer keeps its type, so the integers of a config file stay
        # integers in the JSON artifact (alphas and grid periods).
        number = _number(value, what)
        return value if isinstance(value, int) else number

    alphas = tuple(given(alpha, "alpha") for alpha in alphas)
    periods = sweep.SweepAxis("t_i", *(given(p[key], key) for key in
                                       ("t_i_min", "t_i_max", "t_i_step")))
    # CostSpec supplies the reply size when neither flag nor file gives it.
    numbers = {k: _number(p[k], k)
               for k in ("hourly_bytes", "rtt", "reply_bytes") if k in p}
    spec = sweep.CostSpec(alphas=alphas, periods=periods, **numbers)
    curve = sweep.cost_curve(spec, profile)
    n = periods.n_values

    columns = ["alpha", "t_i_ms", "e_mj_per_hour", "d_ms", "cost", "is_argmin"]

    def lines() -> Iterator[str]:
        return (csv_line([fmt_axis(pt.alpha), fmt_axis(pt.t_i),
                          fmt_mj(pt.e_total), fmt_axis(pt.t_i), fmt_cost(pt.c),
                          "1" if pt.t_i == curve.argmin_t_i[i // n] else "0"])
                for i, pt in enumerate(curve.points))

    def json_text() -> str:
        return _json({"curves": [
            {"alpha": round(alpha, 6),
             "argmin_t_i_ms": round(argmin, 6),
             "e_max_mj": round(curve.e_max, 1),
             "d_max_ms": round(curve.d_max, 6),
             "points": [{"t_i_ms": round(pt.t_i, 6),
                         "e_mj_per_hour": round(pt.e_total, 1),
                         "d_ms": round(pt.t_i, 6), "cost": round(pt.c, 6)}
                        for pt in curve.points[k * n:(k + 1) * n]]}
            for k, (alpha, argmin) in enumerate(zip(spec.alphas,
                                                    curve.argmin_t_i))]})

    _emit(config, columns, lines, json_text)
    return 0


def _run_trace_analyze(config: RunConfig) -> int:
    from . import traces
    p = config.params
    client = traces.parse_endpoint(p["client"], "--client")
    profile = _resolve_profile(config)
    kind = p["kind"]
    t_i = float(p["t_i"])
    concurrency = p.get("concurrency")
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be non-negative, got {concurrency}")
    c_text = "" if concurrency is None else str(concurrency)
    extract = (traces.extract_post_phases if kind == "post"
               else traces.extract_get_phases)

    def analyze(paths: Sequence[str]) -> traces.AggregateResult:
        """One placement's exports, one exchange each, aggregated; each
        error names its export.  The stream that ``kind`` names is not the
        smaller one, unless the other fits in one segment."""
        iterations = []
        for path in paths:
            try:
                with _open_utf8(path) as fp:
                    it = extract(traces.parse_events(fp, client=client))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            if it.file_size < it.other_size > traces.MSS_BYTES:
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
          lambda: [csv_line([t for _, t, _ in row]) for _, _, row in table],
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
    def number(text: str) -> float:
        return _number(text, "flag")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the artifact to this path")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--profile", help="JSON radio parameter file")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")

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
    p_eval.add_argument("--t-i", type=number, required=True,
                        help="application period, ms")
    p_eval.add_argument("--t-elab", type=number,
                        help="server elaboration time, ms")
    p_eval.add_argument("--rtt", type=number, help="round-trip time, ms")
    p_eval.add_argument("--b-tx", type=number,
                        help="bytes uploaded per cycle")
    p_eval.add_argument("--b-rx", type=number,
                        help="bytes downloaded per cycle")
    p_eval.add_argument("--uplink", type=number, dest="uplink_bps",
                        help="uplink bitrate, bits/s")
    p_eval.add_argument("--downlink", type=number, dest="downlink_bps",
                        help="downlink bitrate, bits/s")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="grid-evaluate the placement comparison")
    p_sweep.add_argument("--config", required=True,
                         help="JSON sweep configuration")

    p_cost = sub.add_parser("cost", parents=[common],
                            help="batching cost curve and its minimum")
    p_cost.add_argument("--config", help="JSON cost configuration")
    p_cost.add_argument("--alpha", type=number, action="append",
                        dest="alphas", help="energy weight (repeatable)")
    p_cost.add_argument("--hourly-bytes", type=number,
                        help="bytes produced per hour")
    p_cost.add_argument("--rtt", type=number, help="round-trip time, ms")
    p_cost.add_argument("--t-i-min", type=number, help="smallest period, ms")
    p_cost.add_argument("--t-i-max", type=number, help="largest period, ms")
    p_cost.add_argument("--t-i-step", type=number, help="period step, ms")
    p_cost.add_argument("--reply-bytes", type=number,
                        help="reply size, bytes (default 1)")

    p_ta = sub.add_parser("trace-analyze", parents=[common],
                          help="energy summary of packet trace exports")
    p_ta.add_argument("--kind", choices=("post", "get"), required=True,
                      help="the bulk stream, the request for post or the "
                           "response for get, which must not be the smaller "
                           "one if the other exceeds one 1448-byte segment")
    p_ta.add_argument("--client", required=True,
                      help="client endpoint as addr:port; each export is "
                           "one TCP connection, whose first packet fixes "
                           "the server endpoint")
    p_ta.add_argument("--t-i", type=number, required=True,
                      help="application period, ms")
    p_ta.add_argument("--concurrency", type=int,
                      help="concurrent server connections during capture")
    p_ta.add_argument("--cloud", nargs="+", metavar="FILE",
                      dest="cloud_files",
                      help="matching trace files from the cloud placement")
    p_ta.add_argument("files", nargs="+", metavar="FILE",
                      help="trace files, one exchange each")

    p_ts = sub.add_parser("trace-synth", parents=[out],
                          help="write a synthetic trace")
    p_ts.add_argument("--kind", choices=("post", "get"), required=True)
    p_ts.add_argument("--file-size", type=int, required=True,
                      help="application bytes in the bulk direction")
    p_ts.add_argument("--rtt", type=number, required=True, dest="rtt_ms",
                      help="round-trip time, ms")
    p_ts.add_argument("--bottleneck", type=number, required=True,
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
        file_data = _load_json_object(args.config, "config")
        command = file_data.get("command", args.command)
        if command != args.command:
            raise ValueError(f"{args.config}: config is for command "
                             f"{command!r}, not {args.command!r}")
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


def _print_warning(message, *_) -> None:
    """``warnings.showwarning`` for the CLI: the message alone, one line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # Whatever ``-W`` asks, a warning is one line, never a traceback.
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            config = _config_from_args(args)
            return _RUNNERS[config.command](config)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
