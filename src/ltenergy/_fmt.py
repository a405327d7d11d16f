"""Fixed-point number formatting shared by CSV and CLI emitters.

Output files are meant to be diffed, so every number serialises with a
fixed decimal rule and never in exponent notation: energies with one
decimal of mJ, ratios with three decimals, durations with three decimals
of ms, costs with six, and grid/axis values trimmed of trailing zeros.
JSON artifacts hold the ``repr`` of each value rounded to the same
decimals, which is what ``json`` writes for a float (the energy accounting
returns only finite ones): 0.5 reads ``0.5`` there and ``0.500`` in CSV,
whose lines :func:`csv_line` quotes as ``csv.writer`` does.
"""

from __future__ import annotations

__all__ = ["fmt_mj", "fmt_rho", "fmt_ms", "fmt_cost", "fmt_axis", "csv_line",
           "fixed_texts"]
_QUOTED = frozenset(',"\n')  # what makes csv.writer quote a field


def fmt_mj(x: float) -> str:
    return f"{x:.1f}"


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


fmt_rho = fmt_ms  # ratios print with three decimals too


def fmt_cost(x: float) -> str:
    return f"{x:.6f}"


def fmt_axis(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.6f}".rstrip("0").rstrip(".")


def fixed_texts(xs: list[float], n: int, as_json: bool) -> list[str]:
    """``f"{x:.{n}f}"``, or ``repr(round(x, n))``, of each of ``xs``."""
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
