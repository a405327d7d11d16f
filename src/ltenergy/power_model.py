"""Finite state machine power model of an LTE radio interface.

The interface is modelled with four operational states: CR (Continuous
Reception), SHORT DRX, LONG DRX, and IDLE.  Any packet activity keeps the
radio in CR; in the absence of traffic the radio decays CR -> SHORT DRX ->
LONG DRX -> IDLE on fixed timers.  Leaving IDLE requires a "promotion"
period before traffic can flow again; leaving either DRX state is immediate.

The DRX and IDLE states alternate sleep and wake-up windows.  This module
works with their mean power, derived from the duty-cycle micro-parameters.

Units throughout the package: milliseconds, milliwatts, and millijoules,
with E[mJ] = P[mW] * T[ms] / 1000.

The package's value types are checked tuples (``typing.NamedTuple``): every
constructor, ``_make`` and ``_replace`` call validates the new instance, and
an instance compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from enum import Enum
from typing import Any, Iterable, NamedTuple, TextIO

__all__ = [
    "RadioState",
    "DutyCycleSpec",
    "PowerProfile",
    "default_profile",
    "mean_power",
    "profile_from_dict",
    "profile_to_dict",
    "load_profile",
]

# Maximum tolerated gap between a stored mean state power and the mean
# recomputed from its duty-cycle micro-parameters (mW).
DUTY_CYCLE_TOLERANCE_MW = 0.01


# Nothing reads RadioState yet: it is kept for the per-state energy ledger
# of ROADMAP item 2, whose rows it will key.
class RadioState(Enum):
    """Operational state of the LTE interface."""

    CR = "cr"
    SHORT_DRX = "short_drx"
    LONG_DRX = "long_drx"
    IDLE = "idle"


def _checked(cls):
    """Make the NamedTuple ``cls`` run its ``_check`` method on every new
    instance, whether built by the constructor, ``_make`` or ``_replace``
    (which calls ``_make``)."""
    def checked(build):
        @functools.wraps(build)
        def wrapper(klass, *args, **kwargs):
            self = build(klass, *args, **kwargs)
            self._check()
            return self
        return wrapper

    cls.__new__ = staticmethod(checked(cls.__new__))
    cls._make = classmethod(checked(cls._make.__func__))
    return cls


def _finite(value: Any, what: str) -> bool:
    """Whether the int or float ``value`` is finite, by :func:`_number`'s
    rule, else a ValueError naming ``what``: a check converts no text."""
    if isinstance(value, (int, float)):
        return math.isfinite(_number(value, what))
    raise ValueError(f"{what} must be a number, got {value!r}")


def _check_finite(name: str, value: float) -> None:
    """Reject, by ``name``, a ``value`` that is not a finite int or float."""
    if not _finite(value, name):
        raise ValueError(f"{name} must be finite, got {value!r}")


@_checked
class DutyCycleSpec(NamedTuple):
    """Sleep/wake alternation of a DRX or IDLE state.

    The radio wakes for ``wake_duration`` ms out of every ``period`` ms,
    drawing ``wake_power`` mW while awake and ``sleep_power`` mW asleep.
    """

    wake_power: float  # mW
    wake_duration: float  # ms
    period: float  # ms
    sleep_power: float  # mW

    def _check(self) -> None:
        if not all(_finite(value, f"duty-cycle {name}")
                   for name, value in zip(self._fields, self)):
            raise ValueError("duty-cycle parameters must be finite")
        if self.wake_power < 0 or self.sleep_power < 0:
            raise ValueError("duty-cycle powers must be non-negative")
        if not 0 <= self.wake_duration <= self.period:
            raise ValueError(
                "wake_duration must satisfy 0 <= wake_duration <= period"
            )
        if self.period <= 0:
            raise ValueError("duty-cycle period must be positive")


def mean_power(spec: DutyCycleSpec) -> float:
    """Mean power (mW) of a sleep/wake duty cycle.

    Averages the wake and sleep draws over one period:
    ``(wake_power * wake_duration + sleep_power * (period - wake_duration))
    / period``; the period is positive by construction.
    """
    awake = spec.wake_power * spec.wake_duration
    asleep = spec.sleep_power * (spec.period - spec.wake_duration)
    return (awake + asleep) / spec.period


@_checked
class PowerProfile(NamedTuple):
    """Operational parameters of an LTE interface.

    Powers are in mW, timers in ms.  ``p_short``, ``p_long`` and ``p_idle``
    are mean state powers; when the corresponding duty-cycle blocks are
    present they are cross-checked against the recomputed mean (within
    ``DUTY_CYCLE_TOLERANCE_MW``), otherwise the check is skipped with a
    warning so that hand-written profiles may omit the micro-parameters.
    """

    p_tx: float  # mW while transmitting
    p_rx: float  # mW while receiving
    p_cr: float  # mW in CR outside transfers
    p_short: float  # mean mW in SHORT DRX
    p_long: float  # mean mW in LONG DRX
    p_idle: float  # mean mW in IDLE
    p_prom: float  # mW during an IDLE -> CR promotion
    t_cr: float  # ms in CR before decaying to SHORT DRX
    t_short: float  # ms in SHORT DRX before decaying to LONG DRX
    t_long: float  # ms in LONG DRX before decaying to IDLE
    t_prom: float  # ms needed to promote IDLE -> CR
    short_drx: DutyCycleSpec | None = None
    long_drx: DutyCycleSpec | None = None
    idle: DutyCycleSpec | None = None

    def _check(self) -> None:
        for name, value in zip(_SCALAR_FIELDS, self):
            _check_finite(name, value)
        for name in ("p_tx", "p_rx", "p_prom", "p_idle"):
            if getattr(self, name) < 0:
                raise ValueError(f"power {name} must be non-negative")
        if not (self.p_idle < self.p_long < self.p_short < self.p_cr):
            raise ValueError(
                "state powers must be ordered p_idle < p_long < p_short < p_cr"
            )
        for name in ("t_cr", "t_short", "t_long", "t_prom"):
            if getattr(self, name) <= 0:
                raise ValueError(f"timer {name} must be strictly positive")
        self._check_duty("short_drx", self.p_short)
        self._check_duty("long_drx", self.p_long)
        self._check_duty("idle", self.p_idle)

    def _check_duty(self, name: str, stored: float) -> None:
        spec = getattr(self, name)
        if spec is None:
            # Name the first caller outside this package and ``collections``
            # (whose ``_replace`` builds checked tuples too).
            own = (__package__, "collections")
            level, frame = 1, sys._getframe()
            while frame.f_back and frame.f_globals.get("__package__") in own:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"profile has no {name} duty cycle; consistency check skipped",
                stacklevel=level,
            )
            return
        recomputed = mean_power(spec)
        if abs(recomputed - stored) > DUTY_CYCLE_TOLERANCE_MW:
            raise ValueError(
                f"{name} mean power {recomputed:.4f} mW disagrees with the "
                f"stored value {stored:.4f} mW"
            )

    @property
    def idle_entry_ms(self) -> float:
        """Quiet time after which the radio has fully decayed into IDLE: a
        gap longer than this reaches IDLE, one exactly this long does not."""
        return self.t_cr + self.t_short + self.t_long


# The scalar parameters are the required fields, the duty cycles the rest.
_DUTY_FIELDS = tuple(PowerProfile._field_defaults)
_SCALAR_FIELDS = PowerProfile._fields[:-len(_DUTY_FIELDS)]


def default_profile() -> PowerProfile:
    """Bundled parameter set for a commercial LTE modem.

    Mean DRX/IDLE powers follow from the duty cycles: SHORT DRX wakes at
    788 mW for 41 ms out of every 100 ms (61 mW asleep), LONG DRX at 788 mW
    for 45 ms out of 320 ms (61 mW asleep), and IDLE at 570 mW for 32 ms out
    of 1280 ms with negligible sleep draw.
    """
    return PowerProfile(
        p_tx=1200.0,
        p_rx=1000.0,
        p_cr=1000.0,
        p_short=359.07,
        p_long=163.23,
        p_idle=14.25,
        p_prom=1200.0,
        t_cr=200.0,
        t_short=400.0,
        t_long=11000.0,
        t_prom=200.0,
        short_drx=DutyCycleSpec(788.0, 41.0, 100.0, 61.0),
        long_drx=DutyCycleSpec(788.0, 45.0, 320.0, 61.0),
        idle=DutyCycleSpec(570.0, 32.0, 1280.0, 0.0),
    )


def _ascii(text: str) -> str:
    """``text`` if it is all ASCII and has no ``_`` or ``+``, else a
    ``ValueError``: the rule for every number text read from outside."""
    if text.isascii() and "_" not in text and "+" not in text:
        return text
    raise ValueError(text)


def _number(value: Any, what: str) -> float:
    """``float(value)`` for a number or numeric string read from outside;
    anything else, a bool or an int beyond float range too, is a ValueError."""
    if not isinstance(value, bool):
        try:
            value = _ascii(value) if isinstance(value, str) else value
            return float(value) + 0.0  # -0.0 enters as 0.0: no sign printed
        except OverflowError:
            raise ValueError(f"{what} is too large for a float") from None
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _reject_unknown(data: dict[str, Any], known: Iterable[str],
                    what: str) -> None:
    """Reject the keys of ``data`` outside ``known``, as ``what``."""
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")


def profile_from_dict(data: dict[str, Any]) -> PowerProfile:
    """Build a PowerProfile from a plain dict (parsed profile file)."""
    kwargs: dict[str, Any] = {}
    for name in _SCALAR_FIELDS:
        if name not in data:
            raise ValueError(f"profile is missing required field {name!r}")
        kwargs[name] = _number(data[name], f"profile field {name}")
    for name in _DUTY_FIELDS:
        block = data.get(name)
        if block is not None:
            keys = list(DutyCycleSpec._fields)
            if not isinstance(block, dict) or set(block) != set(keys):
                raise ValueError(
                    f"profile {name} must be an object with keys {keys}")
            kwargs[name] = DutyCycleSpec(
                *(_number(block[k], f"profile field {name}.{k}")
                  for k in keys))
    _reject_unknown(data, PowerProfile._fields, "profile fields")
    return PowerProfile(**kwargs)


def profile_to_dict(profile: PowerProfile) -> dict[str, Any]:
    """Inverse of :func:`profile_from_dict`: the fields in declaration
    order, each present duty cycle as an object of its own fields, and
    absent duty cycles left out."""
    return {k: v._asdict() if isinstance(v, DutyCycleSpec) else v
            for k, v in profile._asdict().items() if v is not None}


def _open_utf8(path: str) -> TextIO:
    """``path`` opened as UTF-8 text after an optional byte order mark.  A
    file that starts with a UTF-16 byte order mark is a ValueError that
    asks for UTF-8."""
    fp = open(path, encoding="utf-8-sig")
    try:
        bom = fp.buffer.peek(2)[:2]
        if bom in (b"\xff\xfe", b"\xfe\xff"):
            raise ValueError(f"file is UTF-16 (byte order mark "
                             f"{bom.hex(' ').upper()}); save it as UTF-8")
    except BaseException:
        fp.close()
        raise
    return fp


def _load_json_object(path: str, what: str) -> dict[str, Any]:
    """The JSON object in the UTF-8 file ``path`` (see :func:`_open_utf8`);
    a bad or too deeply nested file is an error naming it."""
    try:
        with _open_utf8(path) as fp:
            data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return data


def load_profile(path: str) -> PowerProfile:
    """Load a PowerProfile from a JSON file."""
    return profile_from_dict(_load_json_object(path, "profile file"))
