"""Mutants of ``src/ltenergy`` that the tests must kill.

Each mutant is a module of the package, an exact text that must occur in it
once, its replacement and the test ids that must then fail.  For each one,
the script copies ``src/`` to a temporary directory, applies the replacement
there and runs ``pytest`` on those ids with ``PYTHONPATH`` at the copy.  A
mutant passes when pytest reports a failing test.  It fails the script when
every test passes, when pytest ends another way, or when its old text no
longer occurs exactly once: a change that moves the text must move the
mutant with it.  pytest does not collect this file.

Run it from any directory, for every mutant or the named ones:

    python tests/mutants.py [NAME ...]

It prints one line per mutant with its wall time, and exits 1 if any
mutant fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PROPERTIES = "tests/test_trace_properties.py::TestParserMatchesReference"
KERNEL = ("tests/test_sweep.py::TestSweepMatchesCompare::"
          "test_every_cell_equals_compare")
PORT_RANGE = ("tests/test_traces.py::TestParseEvents::"
              "test_port_65536_rejected")
PRICED_ONCE = ("tests/test_cli.py::TestEachCyclePricedOnce::"
               "test_sweep_prices_no_cloud_of_an_overrunning_edge")


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/ltenergy
    old: str  # occurs exactly once in it
    new: str
    ids: tuple[str, ...]  # pytest ids, at least one of which must fail


MUTANTS = [
    # The chunk search of the column reader is the number rule over a whole
    # chunk: without any one of its three tests, a plain export with a
    # number written another way converts by column to the original's
    # packets.
    Mutant("chunk search without _", "traces.py",
           '"\\f" in text or "_" in text or "+" in text',
           '"\\f" in text or "+" in text', (PROPERTIES,)),
    Mutant("chunk search without +", "traces.py",
           '"_" in text or "+" in text', '"_" in text', (PROPERTIES,)),
    Mutant("chunk search without isascii", "traces.py",
           '            or not (text.isascii() or text.replace("·", "")'
           '.isascii())\n', "", (PROPERTIES,)),
    # Value types check numbers and only readers convert them: a check that
    # converts takes a numeric string, which a comparison then trips over.
    Mutant("_check_finite converts with _number", "power_model.py",
           "    if not _finite(value, name):",
           "    if not math.isfinite(_number(value, name)):",
           ("tests/test_checked_types.py::"
            "test_each_path_rejects_a_numeric_string",)),
    # Flag, config and profile numbers take the rule through ``_number``.
    Mutant("_number without _ascii", "power_model.py",
           "            value = _ascii(value) if isinstance(value, str) "
           "else value\n", "",
           ("tests/test_cli.py::TestNumberRule::test_sweep_config",
            "tests/test_cli.py::TestNumberRule::test_profile")),
    # The column reader's range checks, each of which its chunk falls back
    # to the line reader on.
    Mutant("column reader without the 2^31 length bound", "traces.py",
           "if not 0 <= min(sizes) <= max(sizes) < _HALF_SPACE:",
           "if not 0 <= min(sizes):", (PROPERTIES,)),
    Mutant("column reader without the 2^32 sequence bound", "traces.py",
           "and 0 <= min(seqs) <= max(seqs) < SEQ_SPACE",
           "and 0 <= min(seqs)", (PROPERTIES,)),
    Mutant("column reader without the port check", "traces.py",
           'pair = (src_addr.strip(), _parse_port(sport, "port", 0),\n'
           '                dst_addr.strip(), _parse_port(dport, "port", 0))',
           "pair = (src_addr.strip(), int(sport), dst_addr.strip(), "
           "int(dport))", (PROPERTIES,)),
    # Both readers take a port by ``_parse_port``: one that accepts 65536
    # fails a chunk converted by column and one read line by line.
    Mutant("_parse_port accepts 65536", "traces.py",
           "if port not in _PORTS:", "if port not in range(65537):",
           (f"{PORT_RANGE}[by-column]", f"{PORT_RANGE}[line-by-line]")),
    # Analyzers write unset flags as ``·``: such chunks still convert by
    # column.
    Mutant("column reader without the · exception", "traces.py",
           'or not (text.isascii() or text.replace("·", "").isascii())',
           "or not text.isascii()",
           ("tests/test_traces.py::TestParseEvents::"
            "test_dot_flags_convert_by_column",)),
    # A new text's convert may fix the server, so the first in file order
    # must go first; in ``set`` order it does only for some hash seeds.
    Mutant("miss path in set order", "traces.py",
           "for text in dict.fromkeys(texts):", "for text in set(texts):",
           (PROPERTIES,)),
    # The sweep kernel keeps a list while its arguments repeat: the cloud
    # waits go stale if kept while ``rtt`` repeats and an outer ``t_elab``
    # changes, and each cloud takes its own cell's leg.
    Mutant("cloud waits kept while rtt repeats", "sweep.py",
           "if made is None or made[0] != args:",
           'if made is None or made[0][name == "waits":] '
           '!= args[name == "waits":]:', (KERNEL,)),
    Mutant("cloud priced with its neighbour's leg", "sweep.py",
           "price.row(row_legs, row_waits)",
           "price.row(row_legs[1:] + row_legs[:1], row_waits)", (KERNEL,)),
    # The kernel, not the pricer, routes an edge's error: a row that shares
    # one errored edge prices no cloud, and a row whose edges vary prices
    # the clouds of its priced edges alone, each error in its own cell.
    Mutant("shared errored edge prices its clouds", "sweep.py",
           "clouds = edges * len(tails)",
           "clouds = price.row(row_legs, row_waits)", (PRICED_ONCE,)),
    Mutant("varying edges price every cloud", "sweep.py",
           "[*itertools.compress(x, ok)] if len(x) > 1 else x", "x",
           (PRICED_ONCE,)),
    # A sweep's JSON writes each RTT difference with the decimals its CSV
    # has.
    Mutant("JSON delta with axis decimals", "sweep.py",
           '"delta_rtt_ms": {trimmed(d, MS)!r}',
           '"delta_rtt_ms": {trimmed(d)!r}',
           ("tests/test_cli.py::TestCsvJsonAgree::test_sweep_delta",)),
    # A table column states its decimals once: an axis column's CSV text
    # drops trailing zeros, and a decimals column's JSON value keeps only
    # the column's decimals.
    Mutant("axis CSV text with fixed decimals", "_fmt.py",
           "return [fmt_axis(x) if isinstance(x, float) else",
           "return [fixed(x, AXIS) if isinstance(x, float) else",
           ("tests/test_cli.py::TestArtifactGoldens::test_flag_only_cost_csv",
            "tests/test_cli.py::TestArtifactGoldens::test_power_table_csv")),
    Mutant("decimals JSON value with axis decimals", "_fmt.py",
           "n = AXIS if n is None else n", "n = AXIS",
           ("tests/test_cli.py::TestEvalGolden::test_stdout_and_artifact",
            "tests/test_cli.py::TestArtifactGoldens::test_flag_only_cost_json",
            "tests/test_cli.py::TestArtifactGoldens::test_trace_analyze")),
]


def check(mutant: Mutant) -> str | None:
    """``None`` if a test of ``mutant.ids`` fails on the mutated copy of
    ``src/``, else why the mutant fails."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        path = src / "ltenergy" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return (f"its old text occurs {text.count(mutant.old)} times in "
                    f"{mutant.module}")
        path.write_text(text.replace(mutant.old, mutant.new),
                        encoding="utf-8")
        # The ini's ``pythonpath = src`` would put the unmutated package
        # first, so it is emptied.  A fixed hash seed makes each run repeat:
        # the set-order mutant fails only under some seeds.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", "pythonpath=", *mutant.ids],
            cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"})
    if run.returncode == 1:
        return None
    if run.returncode == 0:
        return "every test passes"
    return (f"pytest exited {run.returncode}:\n"
            + "\n".join((run.stdout + run.stderr).splitlines()[-10:]))


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        why = check(mutant)
        wall = time.perf_counter() - start
        failed += why is not None
        print(f"{'killed' if why is None else 'FAILED'}  {wall:6.1f} s  "
              f"{mutant.name}" + ("" if why is None else f": {why}"),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
