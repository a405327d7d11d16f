"""Fixed-point number formatting shared by CSV and CLI emitters.

Output files are meant to be diffed, so every number serialises with a
fixed decimal rule and never in exponent notation: energies with one
decimal of mJ, ratios with three decimals, durations with three decimals
of ms, costs with six, and grid/axis values trimmed of trailing zeros.
JSON artifacts hold the ``repr`` of each value rounded to the same
decimals, which is what ``json`` writes for a float (the energy accounting
returns only finite ones): 0.5 reads ``0.5`` there and ``0.500`` in CSV.
"""

from __future__ import annotations

__all__ = ["fmt_mj", "fmt_rho", "fmt_ms", "fmt_cost", "fmt_axis"]


def fmt_mj(x: float) -> str:
    return f"{x:.1f}"


def fmt_rho(x: float) -> str:
    return f"{x:.3f}"


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


def fmt_cost(x: float) -> str:
    return f"{x:.6f}"


def fmt_axis(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.6f}".rstrip("0").rstrip(".")
