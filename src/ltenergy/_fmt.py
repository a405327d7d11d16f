"""The output rule: how every artifact writes a number.

Each quantity has one number of decimals, which every emitter names:
``MJ`` (1) for energies in mJ, ``MS`` (3) for durations and RTT
differences in ms, ``RHO`` (3) for energy ratios, ``COST`` (6) for
normalised costs and ``AXIS`` (6) for grid values, periods and alphas.
CSV writes :func:`fixed`, never an exponent, and an axis value as
:func:`fmt_axis`, without trailing zeros.  JSON writes ``round(x, n)`` as
``json`` does, so trailing zeros drop (0.5 reads ``0.5`` there, ``0.500``
in CSV), and a sweep's axis values and RTT differences as :func:`trimmed`,
an ``int`` where whole.  So a cell holds one value in both formats.  The
one exception is ``power-table``'s JSON: the profile itself, exact, which
``--profile`` loads back.  The energy accounting returns only finite
numbers, and :func:`csv_line` quotes as ``csv.writer`` does.  A table
column (:func:`column_texts`, :func:`column_values`) without decimals writes
a float as an axis value and a text or int as is; ``None`` is ``""``/null.
"""

from __future__ import annotations

__all__ = ["MJ", "MS", "RHO", "COST", "AXIS", "fixed", "trimmed", "fmt_axis",
           "csv_line", "fixed_texts", "column_texts", "column_values"]
MJ, MS, RHO, COST, AXIS = 1, 3, 3, 6, 6  # decimals of each quantity
_QUOTED = frozenset(',"\n')  # what makes csv.writer quote a field


def fixed(x: float, n: int) -> str:
    """The CSV text of ``x`` with ``n`` decimals."""
    return f"{x:.{n}f}"


def trimmed(x: float, n: int = AXIS) -> float | int:
    """The JSON value of ``x``: ``round(x, n)``, an ``int`` if whole."""
    return int(r) if float(r := round(x, n)).is_integer() else r


def fmt_axis(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return fixed(x, AXIS).rstrip("0").rstrip(".")


def column_texts(cells: tuple, n: int | None) -> list[str]:
    """The CSV texts of a column's cells, ``n`` its decimals."""
    if n is None:
        return [fmt_axis(x) if isinstance(x, float) else
                "" if x is None else str(x) for x in cells]
    return ["" if x is None else fixed(x, n) for x in cells]


def column_values(cells: tuple, n: int | None) -> list:
    """The JSON values of a column's cells, ``n`` its decimals."""
    n = AXIS if n is None else n
    return [round(x, n) if isinstance(x, float) else x for x in cells]


def fixed_texts(xs: list[float], n: int, as_json: bool) -> list[str]:
    """``fixed(x, n)``, or ``repr(round(x, n))``, of each of ``xs``."""
    if as_json and not max(xs, default=0.0) < 10.0 ** (15 - n):
        return [repr(round(x, n)) for x in xs]
    text = f"%.{n}f\0" * len(xs) % tuple(xs)
    for _ in range(n - 1 if as_json else 0):  # drops a zero of each text
        text = text.replace("0\0", "\0")
    return text.split("\0")[:-1]


def csv_line(fields: list[str]) -> str:
    """``fields`` as the line ``csv.writer(fp, lineterminator="\\n")``
    writes: a field holding a comma, a quote or a line feed (not a lone CR)
    is quoted, its quotes doubled, and a row of one empty field is ``""``."""
    line = ",".join(field if _QUOTED.isdisjoint(field)
                    else '"' + field.replace('"', '""') + '"'
                    for field in fields)
    return (line if line or len(fields) != 1 else '""') + "\n"
