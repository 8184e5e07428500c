"""The caps and the rules every qperc module checks its settings by.

`check_int` checks every integer setting, n's through `check_n`, and
`check_choice` every named choice. `check_value` is the one rule for
encoded values, alone or in a 1-D column, and `check_probability` the one
rule for a stored probability. Each message starts with the name of the
value it rejects; the CLI and the file parsers name their flag or field
from that first word. This module imports no other qperc module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MAX_QUBITS = 24

MAX_SHOTS = 1 << 32

MAX_DATA_QUBITS = 4


def check_int(
    name: str, value: int, low: int | None = None, high: int | None = None
) -> None:
    """The one rule for an integer setting: raise ValueError, starting with
    `name`, unless `value` is a plain int (no bool, float or numpy int) in
    [low, high]. A bound left None is open; a `high` needs a `low`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")
    if low is not None and value < low:
        least = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {least}, got {value}")


def check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    """Raise ValueError, starting with `name`, unless `value` is one of `choices`."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_shots(shots: int) -> None:
    """Raise ValueError unless 1 <= shots <= MAX_SHOTS."""
    check_int("shots", shots, 1, MAX_SHOTS)


def check_n(n: int) -> None:
    """Raise ValueError unless n is an int, 1 <= n <= MAX_DATA_QUBITS."""
    check_int("n", n, 1, MAX_DATA_QUBITS)


def check_value(value: int | Sequence[int], n: int, what: str) -> int:
    """Return m = 2^n, or raise ValueError naming `what` and the first of
    `value` (one value or a 1-D column) that is not a whole number in [0, 2^m).

    n is checked first, so a large n raises before 2^(2^n) is built. The
    test reads "not inside" so that NaN fails it; ints past int64 make an
    object array, which compares like the ints it holds.
    """
    check_n(n)
    m = 1 << n
    array = np.asarray(value)
    with np.errstate(invalid="ignore"):  # inf % 1 and NaN in an object array warn
        outside = ~((array >= 0) & (array < 1 << m) & (array % 1 == 0))
    if array.ndim > 1 or outside.any():
        # Index the caller's column, not the array: a list mixing -1 and
        # 2^63 becomes float64 and would print -1 as -1.0.
        bad = value[int(np.argmax(outside))] if array.ndim == 1 else value
        raise ValueError(
            f"{what} must be in [0, {(1 << m) - 1}] for n={n}, got {bad}"
        )
    return m


def check_learning_rate(rate: float) -> None:
    """Raise ValueError unless `rate` is a real number, no bool, in (0, 1]."""
    number = isinstance(rate, (int, float, np.integer, np.floating))
    if isinstance(rate, bool) or not (number and 0.0 < rate <= 1.0):
        raise ValueError(f"learning_rate must be in (0, 1], got {rate!r}")


def is_probability(p: float | np.ndarray) -> bool | np.ndarray:
    """Whether p (or each entry of it) is in [0, 1 + 1e-9], the range every
    loader takes, as summed squares can overshoot 1; NaN is outside."""
    return (p >= 0.0) & (p <= 1.0 + 1e-9)


def check_probability(name: str, value: object, parse: bool = False) -> float:
    """The one rule for a stored probability: return `value`'s number, or raise
    ValueError, starting with `name`, unless it is an int or float (no bool),
    or with parse a CSV cell float() reads, that passes is_probability."""
    try:
        number = float(value) if parse else value
    except ValueError:
        number = None
    if type(number) not in (int, float) or not is_probability(number):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    return number
