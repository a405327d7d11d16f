"""Benchmark of the ``ltenergy`` command-line tool.

Run from a checkout of the repository (standard library only)::

    python3 bench/run.py --workload {figures,grid,traces} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` runs the real CLI in subprocesses, one at a time, in passes
over the workload's invocations (see ``workloads.py``) until about S seconds
of passes are measured, and reports:

* ``norm_wall_s``: wall time of one pass, summed over its invocations (each
  from spawn to exit), normalised for the machine's speed;
* ``norm_items_per_s``: sweep cells and cost points written (figures, grid)
  or trace packets analysed (traces) per normalised second;
* ``peak_rss_mb``: the largest peak resident set of one CLI child in the
  pass, read per child from ``os.wait4``, median over the passes;
* ``setup_s``: time for a fresh interpreter to start and import
  ``ltenergy.cli``, which every CLI call pays, normalised, median of the
  set-up probes.

On a shared machine the speed of a core changes by up to half within
seconds and stays changed for minutes, which moves raw wall times between
runs by more than any bound worth keeping.  So the run interleaves pairs of
probes with the invocations: the set-up probe, then a fresh interpreter that
runs a fixed loop and imports nothing from the program (the reference).
``norm_wall_s`` is the mean pass wall time times ``REFERENCE_S`` over the
mean reference time; ``setup_s`` is the median over the pairs of set-up
time over reference time, times ``REFERENCE_S``.  The raw medians are
printed as provenance (``wall_s``, ``items_per_s``, ``raw_setup_s``).

``--trace 1`` runs the same invocations in this process, alternately plain
and with spans around each module's public functions (``spans.py``), and
reports per-layer metrics, cold-import probes from fresh interpreters, the
tracing overhead and a machine-speed calibration loop.

Every artifact is checked outside the timed pass.  An invocation that exits
non-zero, prints a traceback or writes a wrong artifact counts as failed.
Provenance (sha, Python, CPUs, seed, counts) goes to stdout before the last
line, which is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` shrinks the inputs for a quick
functional check; its numbers are not measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
PROBE_PAIRS = 32
# Scale of the normalised times: seconds on a machine whose calibration
# loop, run as a fresh interpreter, takes this long.
REFERENCE_S = 0.1
IMPORT_PROBES = 5
IMPORT_MODULES = ("cli", "traces", "sweep", "analytic", "power_model")

_IMPORT_PROBE = """\
import importlib, json, sys, time
before = len(sys.modules)
start = time.perf_counter()
importlib.import_module(sys.argv[1])
elapsed = time.perf_counter() - start
print(json.dumps({"s": elapsed, "modules": len(sys.modules) - before,
                  "numpy": "numpy" in sys.modules}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def spawn(args: list[str], workdir: Path) -> Child:
    """Run ``python args`` to completion; peak RSS of this child alone."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal,
                                 (signal.SIGKILL,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


_CALIBRATION_LOOP = """\
acc = 0
for i in range(300_000):
    acc = (acc + i * i) % 1_000_003
"""


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop in this process."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        exec(_CALIBRATION_LOOP, {})
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_pair(workdir: Path) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import the CLI, and to run the
    calibration loop, which imports nothing from the program."""
    return (spawn(["-c", "import ltenergy.cli"], workdir).wall_s,
            spawn(["-c", _CALIBRATION_LOOP], workdir).wall_s)


def import_probes(workdir: Path, rounds: int) -> dict[str, tuple[float, str]]:
    """Cold import of each module, each in a fresh interpreter."""
    samples: dict[str, list[dict]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(rounds):
        for module in IMPORT_MODULES:
            child = spawn(["-c", _IMPORT_PROBE, f"ltenergy.{module}"],
                          workdir)
            if child.returncode != 0:
                raise RuntimeError(f"import of ltenergy.{module} failed:\n"
                                   f"{child.stderr}")
            samples[module].append(json.loads(child.stdout))
    metrics = {
        f"{m}.import_ms": (statistics.median(s["s"] for s in samples[m])
                           * 1000.0, "ms")
        for m in IMPORT_MODULES
    }
    cli = samples["cli"][0]
    metrics["cli.modules_loaded"] = (cli["modules"], "count")
    metrics["cli.numpy_loaded"] = (int(cli["numpy"]), "count")
    return metrics


class Verifier:
    """Checks each pass's artifacts; identical artifacts are checked once."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._verdicts: dict[tuple, dict[str, str | None]] = {}

    def record(self, bad: dict[str, str | None]) -> None:
        """Count one pass; ``bad`` maps labels to run failures or None."""
        outputs = {i.label: i.out for i in self.workload.invocations
                   if i.out.is_file()}
        key = tuple((label, hashlib.sha256(path.read_bytes()).hexdigest())
                    for label, path in outputs.items())
        if key not in self._verdicts:
            self._verdicts[key] = self.workload.check(outputs)
        verdicts = self._verdicts[key]
        for inv in self.workload.invocations:
            self.attempted += 1
            reason = (bad.get(inv.label)
                      or ("no artifact" if inv.label not in outputs
                          else verdicts.get(inv.label)))
            if reason:
                self.failed += 1
                self.reasons.append(f"{inv.label}: {reason}")


def _clear_outputs(workload: workloads.Workload) -> None:
    for inv in workload.invocations:
        inv.out.unlink(missing_ok=True)


def _out_bytes(workload: workloads.Workload) -> int:
    return sum(i.out.stat().st_size for i in workload.invocations
               if i.out.is_file())


def _keep_measuring(walls: list[float], seconds: float) -> bool:
    """Start another pass only if it should end within the budget."""
    return sum(walls) + walls[-1] <= seconds


def timed_run(workload, verifier, workdir, seconds, probe_count):
    """End-to-end metrics from CLI subprocesses."""
    walls, rates, peaks, out_bytes, probes = [], [], [], [], []
    per_label = {inv.label: [] for inv in workload.invocations}
    measured = 0.0
    while not walls or _keep_measuring(walls, seconds):
        _clear_outputs(workload)
        bad, children = {}, []
        for inv in workload.invocations:
            child = spawn(["-m", "ltenergy.cli", *inv.argv], workdir)
            children.append(child)
            per_label[inv.label].append(child.wall_s)
            if child.returncode != 0 or "Traceback" in child.stderr:
                bad[inv.label] = (f"exit {child.returncode}: "
                                  f"{child.stderr.strip()[-300:]}")
            # The machine's speed drifts within seconds, so the probes are
            # spread over the whole run, between invocations.
            measured += child.wall_s
            while len(probes) < probe_count * min(1.0, measured / seconds):
                probes.append(probe_pair(workdir))
        walls.append(sum(c.wall_s for c in children))
        rates.append(sum(i.items for i in workload.invocations) / walls[-1])
        peaks.append(max(c.rss_mb for c in children))
        out_bytes.append(_out_bytes(workload))
        verifier.record(bad)
    while len(probes) < probe_count:
        probes.append(probe_pair(workdir))
    setup = [p[0] for p in probes]
    reference = [p[1] for p in probes]
    norm_wall = statistics.fmean(walls) * REFERENCE_S / statistics.fmean(
        reference)
    metrics = {
        "norm_wall_s": (norm_wall, "s"),
        "norm_items_per_s": (
            sum(i.items for i in workload.invocations) / norm_wall, "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (REFERENCE_S * statistics.median(
            a / b for a, b in zip(setup, reference)), "s"),
    }
    detail = {"wall_s": statistics.median(walls),
              "items_per_s": statistics.median(rates),
              "raw_setup_s": statistics.median(setup),
              "pass_walls_s": walls, "invocation_walls_s": per_label,
              "setup_probes_s": setup, "reference_probes_s": reference,
              "out_bytes": out_bytes[0]}
    return metrics, detail


def _in_process_pass(workload, verifier) -> float:
    cli = importlib.import_module("ltenergy.cli")
    _clear_outputs(workload)
    bad = {}
    start = time.perf_counter()
    for inv in workload.invocations:
        try:
            code = cli.main(inv.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is an invocation failure
            code = traceback.format_exc()
            print(code, file=sys.stderr)
        if code != 0:
            bad[inv.label] = f"exit {code}"
    wall = time.perf_counter() - start
    verifier.record(bad)
    return wall


def traced_run(workload, verifier, prepare, workdir, seconds, rounds):
    """Per-layer metrics from in-process passes, plain and traced."""
    metrics = import_probes(workdir, rounds)
    input_bytes = sum(p.stat().st_size
                      for i in workload.invocations for p in i.inputs)
    plain, traced, layers = [], [], []
    tracer = spans.Tracer()
    _in_process_pass(workload, verifier)  # warm-up: first-call costs
    while not traced or _keep_measuring(
            [a + b for a, b in zip(plain, traced)], seconds):
        plain.append(_in_process_pass(workload, verifier))
        tracer.clear()
        with tracer.installed():
            traced.append(_in_process_pass(workload, verifier))
        layers.append(spans.layer_metrics(tracer, prepare, input_bytes,
                                          _out_bytes(workload)))
    tracer.clear()
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    detail = {"plain_walls_s": plain, "traced_walls_s": traced,
              "missing_attributes": tracer.missing}
    if tracer.missing:
        print("absent metrics, missing attributes: "
              + ", ".join(tracer.missing), file=sys.stderr)
    return metrics, detail


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ltenergy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and single probes; no measurement")
    args = parser.parse_args(argv)

    if not (SRC / "ltenergy" / "cli.py").is_file() \
            or not workloads.FIGURES_DIR.is_dir():
        print(f"error: {ROOT} holds no ltenergy sources and figure configs; "
              "run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calib = calibrate()
        prepare = spans.Tracer()  # spans of input synthesis, if traced
        with prepare.installed() if args.trace else nullcontext():
            workload = workloads.build(args.workload, args.seed, workdir,
                                       args.smoke)
        verifier = Verifier(workload)
        if args.trace:
            metrics, detail = traced_run(
                workload, verifier, prepare, workdir, args.seconds,
                1 if args.smoke else IMPORT_PROBES)
            metrics["env.calib_s"] = (calib, "s")
        else:
            metrics, detail = timed_run(
                workload, verifier, workdir, args.seconds,
                1 if args.smoke else PROBE_PAIRS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "env.calib_s": calib,
        "failed_ratio": verifier.failed / verifier.attempted,
        **workload.info, **detail,
    }
    print("provenance " + json.dumps(provenance))
    for reason in verifier.reasons[:20]:
        print(f"failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
