"""The benchmark's workloads: generated inputs, the CLI invocations of one
pass, and the checks of the artifacts they write.

Every workload is a closed loop with one client: the benchmark runs one
invocation at a time and starts the next when the previous one has ended.

* ``figures`` runs the four committed figure configs in CSV and in JSON.
  Each call is mostly interpreter start and import, so this workload moves
  with import weight and hardly with kernel speed.
* ``grid`` runs one two-axis ``t_i`` x ``rtt_cloud`` sweep of 5*10^4
  cells, emitted as CSV and as JSON.  It is kernel and formatting time.
  The grid holds period-overrun cells and cells on both sides of the
  IDLE-entry threshold, so the overrun path and both promotion branches
  run.
* ``traces`` runs ``trace-analyze`` on synthetic GET and POST exports of
  10^7-byte transfers (about 10^4 packets each), edge and cloud, three
  repetitions each.  It is parsing and extraction time; the energy kernel
  does almost nothing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIGURES_DIR = ROOT / "figures"

# sha256 of the figure artifacts as the seed commit wrote them.  The figure
# outputs must stay byte-identical across refactors.
FIGURE_DIGESTS = json.loads(
    (BENCH_DIR / "figure_digests.json").read_text(encoding="utf-8"))

GRID_COLUMNS = ["t_i", "rtt_cloud", "rho", "e_i_edge_mj", "e_i_cloud_mj",
                "delta_rtt_ms", "error"]
GRID_SAMPLE = 200
TRACE_COLUMNS = ["app_kind", "file_size", "t_i", "c", "t_tx_ms", "t_w_ms",
                 "t_rx_ms", "t_q_ms", "e_i_mJ", "rho"]
TRACE_T_I_MS = 60000.0
TRACE_BOTTLENECK_BPS = 20e6
TRACE_RTT_MS = {"edge": 20.0, "cloud": 80.0}

# A check gets the artifact path of every invocation of a pass and returns,
# per invocation label, None or the reason the artifact is wrong.
Check = Callable[[dict[str, Path]], dict[str, str | None]]


@dataclass
class Invocation:
    """One CLI call of a pass."""

    label: str
    argv: list[str]
    out: Path
    items: int  # sweep cells plus cost points, or trace packets parsed
    inputs: tuple[Path, ...] = ()


@dataclass
class Workload:
    invocations: list[Invocation]
    check: Check
    info: dict = field(default_factory=dict)  # provenance counts


def build(name: str, seed: int, workdir: Path, smoke: bool) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    return _BUILDERS[name](seed, workdir, smoke)


def _axis_count(start: float, stop: float, step: float) -> int:
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- figures

def _figure_items(config: dict) -> int:
    if config["command"] == "cost":
        count = _axis_count(config["t_i_min"], config["t_i_max"],
                            config["t_i_step"])
        return count * len(config["alphas"])
    return math.prod(_axis_count(a["start"], a["stop"], a["step"])
                     for a in config["axes"])


def _check_figures(outputs: dict[str, Path]) -> dict[str, str | None]:
    return {
        label: None if _sha256(path) == FIGURE_DIGESTS[label]
        else "sha256 differs from the seed commit's artifact"
        for label, path in outputs.items()
    }


def _figures(seed: int, workdir: Path, smoke: bool) -> Workload:
    invocations = []
    for fig in (4, 5, 6, 8):
        config_path = FIGURES_DIR / f"fig{fig}.json"
        config = json.loads(config_path.read_text(encoding="utf-8"))
        for fmt in ("csv", "json"):
            label = f"fig{fig}.{fmt}"
            out = workdir / label
            invocations.append(Invocation(
                label,
                [config["command"], "--config", str(config_path),
                 "--format", fmt, "--out", str(out)],
                out, items=_figure_items(config)))
    random.Random(seed).shuffle(invocations)
    return Workload(invocations, _check_figures,
                    {"order": [i.label for i in invocations]})


# ------------------------------------------------------------------- grid

def _grid(seed: int, workdir: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    payload = rng.randrange(8000, 32001, 500)
    base = {
        "t_i": 1000,
        "t_elab": rng.randrange(0, 301, 10),
        "rtt_edge": rng.randrange(10, 51),
        "b_tx": payload,
        "b_rx": payload,
    }
    # t_i from 100 ms, where no cycle fits, to beyond twice the IDLE entry.
    axes = [
        {"name": "t_i", "start": 100, "stop": 24850,
         "step": 2500 if smoke else 250},
        {"name": "rtt_cloud", "start": 50, "stop": 69 if smoke else 549,
         "step": 1},
    ]
    config_path = workdir / "grid-config.json"
    config_path.write_text(json.dumps(
        {"command": "sweep", "base": base, "axes": axes}), encoding="utf-8")
    cells = math.prod(_axis_count(a["start"], a["stop"], a["step"])
                      for a in axes)
    invocations = [
        Invocation(f"grid.{fmt}",
                   ["sweep", "--config", str(config_path), "--format", fmt,
                    "--out", str(workdir / f"grid.{fmt}")],
                   workdir / f"grid.{fmt}", items=cells)
        for fmt in ("csv", "json")
    ]
    info = {"base": base, "axes": axes, "cells": cells}
    return Workload(invocations,
                    lambda outputs: _check_grid(outputs, info, seed), info)


def _grid_reference(base: dict, axes: list[dict]) -> list[tuple]:
    """Every cell from an in-process scalar ``analytic.compare``."""
    from ltenergy import analytic
    from ltenergy.power_model import default_profile

    profile = default_profile()
    common = dict(t_elab=float(base["t_elab"]), b_tx=float(base["b_tx"]),
                  b_rx=float(base["b_rx"]))
    t_i_axis, rtt_axis = (
        [a["start"] + i * a["step"]
         for i in range(_axis_count(a["start"], a["stop"], a["step"]))]
        for a in axes)
    cells = []
    for t_i in t_i_axis:
        edge = analytic.ConnectionlessScenario(
            t_i=float(t_i), rtt=float(base["rtt_edge"]), **common)
        for rtt in rtt_axis:
            cloud = analytic.ConnectionlessScenario(
                t_i=float(t_i), rtt=float(rtt), **common)
            try:
                r = analytic.compare(edge, cloud, profile)
            except analytic.PeriodOverrunError as exc:
                cells.append((t_i, rtt, None, str(exc)))
            else:
                cells.append((t_i, rtt, r, r.edge.e_prom_tx > 0))
    return cells


def _check_grid(outputs: dict[str, Path], info: dict,
                seed: int) -> dict[str, str | None]:
    """CSV and JSON agree cell for cell, and match an in-process reference.

    Records the reference's error and IDLE-promotion cell counts in
    ``info`` for the provenance line.
    """
    try:
        with outputs["grid.csv"].open(encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        cells = json.loads(outputs["grid.json"].read_text(encoding="utf-8")
                           )["cells"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable artifact: {exc}"
        return {"grid.csv": reason, "grid.json": reason}

    def both(reason: str | None) -> dict[str, str | None]:
        return {"grid.csv": reason, "grid.json": reason}

    if not rows or rows[0] != GRID_COLUMNS:
        return both(f"CSV header {rows[:1]}")
    rows = rows[1:]
    if not len(rows) == len(cells) == info["cells"]:
        return both(f"{len(rows)} CSV rows and {len(cells)} JSON cells, "
                    f"expected {info['cells']}")
    for index, (row, cell) in enumerate(zip(rows, cells)):
        try:
            agree = _csv_json_agree(row, cell)
        except (IndexError, KeyError, TypeError, ValueError):
            agree = False
        if not agree:
            return both(f"CSV and JSON disagree at cell {index}")

    reference = _grid_reference(info["base"], info["axes"])
    errors = [c for c in reference if c[2] is None]
    info["error_cells"] = len(errors)
    info["idle_promotion_cells"] = sum(1 for c in reference if c[3] is True)
    csv_errors = sum(1 for row in rows if row[6])
    if csv_errors != len(errors):
        return both(f"{csv_errors} error cells, reference has {len(errors)}")
    sample = random.Random(seed).sample(range(len(reference)),
                                        min(GRID_SAMPLE, len(reference)))
    for index in sample:
        if rows[index] != _reference_row(reference[index]):
            return both(f"cell {index} differs from analytic.compare: "
                        f"{rows[index]} != {_reference_row(reference[index])}")
    return both(None)


def _reference_row(cell: tuple) -> list[str]:
    t_i, rtt, result, extra = cell
    head = [f"{t_i:g}", f"{rtt:g}"]
    if result is None:
        return head + ["", "", "", "", extra]
    return head + [f"{result.rho:.3f}", f"{result.edge.e_i:.1f}",
                   f"{result.cloud.e_i:.1f}", f"{result.delta_rtt:.3f}", ""]


def _csv_json_agree(row: list[str], cell: dict) -> bool:
    if float(row[0]) != cell["t_i"] or float(row[1]) != cell["rtt_cloud"]:
        return False
    if row[6]:
        return cell.get("error") == row[6] and not any(row[2:6])
    return ("error" not in cell
            and float(row[2]) == cell["rho"]
            and float(row[3]) == cell["e_i_edge_mj"]
            and float(row[4]) == cell["e_i_cloud_mj"]
            and float(row[5]) == cell["delta_rtt_ms"])


# ----------------------------------------------------------------- traces

def _traces(seed: int, workdir: Path, smoke: bool) -> Workload:
    from ltenergy import traces

    file_size = 10 ** 5 if smoke else 10 ** 7
    repetitions = 1 if smoke else 3
    rng = random.Random(seed)
    invocations = []
    expected = {}
    input_bytes = 0
    for kind in ("get", "post"):
        files = {}
        packets = 0
        for placement, rtt in TRACE_RTT_MS.items():
            files[placement] = []
            for rep in range(repetitions):
                # The seed varies the initial sequence numbers only.
                events = traces.synthesize_trace(
                    kind, file_size, rtt, TRACE_BOTTLENECK_BPS,
                    seed=rng.randrange(2 ** 31))
                path = workdir / f"{kind}-{placement}-{rep}.tsv"
                path.write_text("\n".join(traces.events_to_lines(events))
                                + "\n", encoding="utf-8")
                files[placement].append(path)
                packets += len(events)
                input_bytes += path.stat().st_size
            expected[f"{kind}.{placement}"] = traces.scheduled_phases(
                kind, file_size, rtt, TRACE_BOTTLENECK_BPS)
        label = f"trace-{kind}.csv"
        out = workdir / label
        inputs = tuple(files["edge"] + files["cloud"])
        invocations.append(Invocation(
            label,
            ["trace-analyze", "--kind", kind, "--client", traces.SYNTH_CLIENT,
             "--t-i", f"{TRACE_T_I_MS:g}", "--out", str(out),
             *map(str, files["edge"]), "--cloud", *map(str, files["cloud"])],
            out, items=packets, inputs=inputs))
    info = {"file_size": file_size, "repetitions": repetitions,
            "packets": sum(i.items for i in invocations),
            "input_bytes": input_bytes}
    return Workload(
        invocations,
        lambda outputs: {label: _check_trace(label, path, expected)
                         for label, path in outputs.items()},
        info)


def _check_trace(label: str, path: Path, expected: dict) -> str | None:
    kind = label.split("-")[1].split(".")[0]
    try:
        with path.open(encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
    except OSError as exc:
        return f"unreadable artifact: {exc}"
    if len(rows) != 3 or rows[0] != TRACE_COLUMNS:
        return f"expected a header and two rows, got {rows[:1]}"
    for row, placement in zip(rows[1:], ("edge", "cloud")):
        want = [f"{x:.3f}" for x in expected[f"{kind}.{placement}"]]
        if row[0] != kind:
            return f"{placement} row is for {row[0]!r}"
        if row[4:7] != want:
            return (f"{placement} phases {row[4:7]} != scheduled {want}")
    rho = rows[1][9:10]
    try:
        if float(rho[0]) > 0:
            return None
    except (IndexError, ValueError):
        pass
    return f"edge rho {rho}"


_BUILDERS = {"figures": _figures, "grid": _grid, "traces": _traces}
WORKLOADS = tuple(_BUILDERS)
