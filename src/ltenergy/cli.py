"""Command-line front end.

Subcommands: ``power-table`` dumps the active radio parameters, ``eval``
prices a single connectionless cycle, ``sweep`` and ``cost`` run grid
evaluations from flags or a JSON config file, ``trace-analyze`` turns
packet trace exports into energy summaries, and ``trace-synth`` writes a
synthetic trace; it takes ``--out`` but no ``--profile`` or ``--format``.
``eval`` prints a listing whatever its ``--format``, which shapes only
``--out``.  A config file accepts only its command's keys (any other key is
an error), and flags win over the file.  Configs, profiles and trace
exports are read as UTF-8 with an optional byte order mark (a UTF-16 one is
an error that asks for UTF-8), and an error reading one names the file.
Numbers are ASCII, without ``_`` or ``+``; -0 reads as 0.

Outputs are deterministic: fixed column orders, numbers written by the
one rule of :mod:`ltenergy._fmt`, CSV lines quoted as by ``csv.writer``,
and no timestamps, so repeated runs of the same config are byte-identical.
Each table but a sweep's, which streams, goes through ``_emit``, where a
column names its decimals once.  A renderer yields its artifact as chunks,
and ``_write`` alone collects them, once, before it opens ``--out`` or
writes to stdout: a failure, even at the last sweep cell, leaves stdout
empty and an existing ``--out`` file as it was.  On stderr, each library
warning is one ``warning: <message>`` line, and a failure ends with one
``error: <message>`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import warnings
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import analytic
from ._fmt import COST, MJ, MS, RHO, column_texts, column_values, csv_line
from .power_model import (PowerProfile, _ascii, _checked, _load_json_object,
                          _number, _open_utf8, _reject_unknown,
                          default_profile, load_profile, profile_to_dict)

__all__ = ["main"]


@_checked
class RunConfig(NamedTuple):
    """One fully resolved CLI invocation."""

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
    """Write ``chunks`` to ``--out`` or stdout.  A caller unpacks renderers
    into them: the one collection, made before the target is opened."""
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fp:
            fp.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(config: RunConfig, columns: Sequence[tuple[str, int | None]],
          rows: Iterable[Sequence[Any]], json_obj: Callable[..., Any]) -> None:
    """Write a table of ``(name, decimals)`` columns in the requested format
    only: a header and a line of texts per row, or ``json_obj(names, rows of
    values)`` at indent 2 and a newline; rows are written 512 at a time."""
    names, decimals = zip(*columns)
    as_json = config.output_format == "json"
    write = column_values if as_json else column_texts
    rows = iter(rows)
    chunks = iter(lambda: [*itertools.islice(rows, 512)], [])
    written = (row for chunk in chunks
               for row in zip(*map(write, zip(*chunk), decimals)))
    if as_json:
        _write(config, json.dumps(json_obj(names, written), indent=2), "\n")
    else:
        _write(config, csv_line(names), *map(csv_line, written))


def _run_power_table(config: RunConfig) -> int:
    data = profile_to_dict(_resolve_profile(config))
    # Duty blocks as "block.field".  The JSON is the profile itself, exact,
    # which --profile loads back.
    rows = [(f"{key}.{sub}" if sub else key, v) for key, field in data.items()
            for sub, v in (field.items() if isinstance(field, dict)
                           else [("", field)])]
    _emit(config, [("parameter", None), ("value", None)], rows,
          lambda *_: data)
    return 0


def _run_eval(config: RunConfig) -> int:
    profile = _resolve_profile(config)
    scn = analytic.ConnectionlessScenario(**config.params)
    timing, energy = analytic.price_scenario(scn, profile)

    # (column, decimals, unit, value): the phase durations, then the
    # energy parts and their total, each named after its field.
    table = [(f"{name}_ms", MS, "ms", x)
             for name, x in zip(timing._fields, timing)
             if name.startswith("t_")]
    table += [(f"{name}_mj", MJ, "mJ", x)
              for name, x in zip(energy._fields, energy)]
    for column, n, unit, x in table:  # T_TX = 128.000 ms
        print(f"{column[:-3].upper()} = {column_texts((x,), n)[0]} {unit}")

    if config.output_path is not None:
        _emit(config, [(column, n) for column, n, _, _ in table],
              [[x for *_, x in table]],
              lambda names, values: dict(zip(names, next(values))))
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
    if config.output_format == "json":
        _write(config, *sweep.json_text(spec, rows), "\n")
    else:
        _write(config, csv_line(spec.columns), *sweep.csv_rows(spec, rows))
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

    def curves(names: list[str], values: Iterator[tuple]) -> dict[str, Any]:
        """One curve per alpha, its points from its rows; a curve spans the
        period grid, so its largest energy and delay are the grid's."""
        point = names[1:5]  # a point drops alpha and is_argmin
        return {"curves": [{
            "alpha": rows[0][0],
            "argmin_t_i_ms": next(row[1] for row in rows if row[5]),
            "e_max_mj": max(row[2] for row in rows),
            "d_max_ms": max(row[3] for row in rows),
            "points": [dict(zip(point, row[1:5])) for row in rows]}
            for rows in iter(lambda: [*itertools.islice(values, n)], [])]}

    _emit(config, [("alpha", None), ("t_i_ms", None), ("e_mj_per_hour", MJ),
                   ("d_ms", None), ("cost", COST), ("is_argmin", None)],
          ((pt.alpha, pt.t_i, pt.e_total, pt.t_i, pt.c,
            int(pt.t_i == curve.argmin_t_i[i // n]))
           for i, pt in enumerate(curve.points)), curves)
    return 0


def _run_trace_analyze(config: RunConfig) -> int:
    from . import traces
    p = config.params
    client = traces.parse_endpoint(p["client"], "--client")
    t_i = traces._check_period(p["t_i"])
    concurrency = p.get("concurrency")
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be non-negative, got {concurrency}")
    profile = _resolve_profile(config)  # read after every flag is checked
    extract = (traces.extract_post_phases if p["kind"] == "post"
               else traces.extract_get_phases)

    def analyze(paths: Sequence[str]) -> traces.AggregateResult:
        """One placement's exports, one exchange each, aggregated; each
        error names its export."""
        iterations = []
        for path in paths:
            try:
                with _open_utf8(path) as fp:
                    iterations.append(
                        extract(traces.parse_events(fp, client=client)))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        return traces.aggregate(iterations, t_i, profile)

    edge = analyze(p["files"])
    placements = [("edge", edge, None)]
    if p.get("cloud_files"):
        cloud = analyze(p["cloud_files"])
        placements = [("edge", edge, traces.rho_from_traces(edge, cloud)),
                      ("cloud", cloud, None)]

    _emit(config, [("app_kind", None), ("file_size", None), ("t_i", None),
                   ("c", None), ("t_tx_ms", MS), ("t_w_ms", MS),
                   ("t_rx_ms", MS), ("t_q_ms", MS), ("e_i_mJ", MJ),
                   ("rho", RHO)],
          ((agg.app_kind, agg.file_size, t_i, concurrency, agg.mean_t_tx,
            agg.mean_t_w, agg.mean_t_rx, agg.mean_t_q, agg.total_mj, rho)
           for _, agg, rho in placements),
          lambda names, values: {place: {
              **dict(zip(names, row)), "repetitions": len(agg.breakdowns)}
              for (place, agg, _), row in zip(placements, values)})
    return 0


def _run_trace_synth(config: RunConfig) -> int:
    from . import traces
    events = traces.synthesize_trace(**config.params)
    _write(config, "\n".join(traces.events_to_lines(events)), "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    def number(text: str) -> float:
        return _number(text, "flag")

    def integer(text: str) -> int:
        return int(_ascii(text))

    parser = argparse.ArgumentParser(
        prog="ltenergy",
        description="Energy model for LTE clients of edge- or cloud-placed "
                    "request-response servers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[RunConfig], int], **kwargs: Any):
        """The subparser that runs ``run``, with ``--out`` and, unless it is
        ``trace-synth``, ``--profile`` and ``--format``."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--out", help="write the artifact to this path")
        if name != "trace-synth":
            p.add_argument("--profile", help="JSON radio parameter file")
            p.add_argument("--format", choices=("csv", "json"),
                           help="output format (default csv)")
        return p

    command("power-table", _run_power_table,
            help="dump the active radio parameters")

    p_eval = command("eval", _run_eval, description=(
        "Print the LABEL = value unit listing; --format shapes only --out."),
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

    p_sweep = command("sweep", _run_sweep,
                      help="grid-evaluate the placement comparison")
    p_sweep.add_argument("--config", required=True,
                         help="JSON sweep configuration")
    p_sweep.set_defaults(base=None, axes=None)  # set by its config file only

    p_cost = command("cost", _run_cost,
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

    p_ta = command("trace-analyze", _run_trace_analyze,
                   help="energy summary of packet trace exports")
    p_ta.add_argument("--kind", choices=("post", "get"), required=True,
                      help="the bulk stream, the request for post or the "
                           "response for get, which must not be the smaller "
                           "one if the other exceeds one 1448-byte segment: "
                           "get reads a POST of up to 1288 file bytes as a "
                           "GET")
    p_ta.add_argument("--client", required=True,
                      help="client addr:port, an IPv6 addr in brackets as "
                           "[addr]:port; each export is one TCP connection, "
                           "whose first packet fixes the server endpoint; "
                           "numbers are ASCII, without _ or +; -0 reads as 0")
    p_ta.add_argument("--t-i", type=number, required=True,
                      help="application period, ms")
    p_ta.add_argument("--concurrency", type=integer,
                      help="concurrent server connections during capture")
    p_ta.add_argument("--cloud", nargs="+", metavar="FILE",
                      dest="cloud_files",
                      help="matching trace files from the cloud placement")
    p_ta.add_argument("files", nargs="+", metavar="FILE",
                      help="trace files, one exchange each")

    p_ts = command("trace-synth", _run_trace_synth,
                   help="write a synthetic trace")
    p_ts.add_argument("--kind", choices=("post", "get"), required=True)
    p_ts.add_argument("--file-size", type=integer, required=True,
                      help="application bytes in the bulk direction")
    p_ts.add_argument("--rtt", type=number, required=True, dest="rtt_ms",
                      help="round-trip time, ms")
    p_ts.add_argument("--bottleneck", type=number, required=True,
                      dest="bottleneck_bps", help="bottleneck bitrate, bits/s")
    p_ts.add_argument("--seed", type=integer)

    return parser


# Namespace and config-file keys that are not parameters of a runner.
_NOT_PARAMS = ("command", "config", "profile", "format", "out")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Resolve one invocation: flags win over the config file.

    A config file may hold only the keys of its command's namespace, but
    ``config`` (``main`` has popped the runner).  The runner parameters
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
        _reject_unknown(file_data, vars(args).keys() - {"config"},
                        "config keys")
    merged = {**file_data,
              **{k: v for k, v in vars(args).items() if v is not None}}
    for key in ("profile", "format", "out"):
        v = merged.get(key)
        if v is not None and not isinstance(v, str):
            raise ValueError(f"config {key} must be a string, got {v!r}")
        if v == "":
            raise ValueError(f"{key} must not be empty")
    return RunConfig(
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
    run = vars(args).pop("run")
    with warnings.catch_warnings():
        # Whatever ``-W`` asks, a warning is one line, never a traceback.
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            return run(_config_from_args(args))
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
