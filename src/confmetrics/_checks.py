"""Argument checks of the public entry points.

Each raises ValueError naming the argument before any work is done, and
none coerces: a bool is neither an integer nor a real number, and a string
is not a collection.  One call checks a number's type and range.
"""

from __future__ import annotations

import functools
import numbers
from collections import Counter
from collections.abc import Collection

import numpy as np


def _require(value, name: str, low=None, high=None, strict=False, *, kind, what: str) -> None:
    """Raise ValueError unless ``value`` is an instance of ``kind`` (a bool
    never is), described as ``what``, and is at least ``low`` or, with
    ``high`` given, lies in [low, high], or in (low, high) when ``strict``;
    NaN lies in no interval."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if high is None:
        if low is not None and not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value!r}")
    elif not (low < value < high if strict else low <= value <= high):
        interval = f"({low}, {high})" if strict else f"[{low}, {high}]"
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


# numpy floats and integers are real numbers, and numpy integers integers.
_require_real = functools.partial(_require, kind=numbers.Real, what="a real number")
_require_integer = functools.partial(_require, kind=(int, np.integer), what="an integer")


def _check_alpha(alpha) -> None:
    """Raise ValueError for an alpha that is not a real number in (0, 1)."""
    _require_real(alpha, "alpha", 0, 1, strict=True)


def _require_sequence(values, name: str, items: str, nonempty: bool = False) -> None:
    """Raise ValueError unless ``values`` is a collection but not a string,
    and, when ``nonempty``, holds an entry."""
    text = isinstance(values, (str, bytes))
    if text or not isinstance(values, Collection) or (nonempty and len(values) == 0):
        got = f"the string {values!r}" if text else repr(values)
        kind = "nonempty sequence" if nonempty else "sequence"
        raise ValueError(f"{name} must be a {kind} of {items}, got {got}")


def _repeated(values) -> list:
    """The entries that ``values`` holds more than once, sorted."""
    return sorted(v for v, count in Counter(values).items() if count > 1)


def _require_distinct(values, name: str) -> None:
    """Raise ValueError naming the entries that ``values`` repeats."""
    repeated = _repeated(values)
    if repeated:
        raise ValueError(f"{name} requested more than once: {repeated}")


def _require_nonempty(batch, what: str = "estimation", labelled: bool = False) -> None:
    """Raise ValueError for a batch with no record, or, when ``labelled``,
    one without true labels; ``what`` names what needs them."""
    if batch.n == 0:
        raise ValueError(f"{what} needs a nonempty batch")
    if labelled and batch.labels is None:
        raise ValueError(f"{what} needs a true label on every record")


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; raises ValueError, not numpy's
    TypeError, for a seed that numpy does not take, and for a bool."""
    if not isinstance(seed, bool):
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


def unit_interval_array(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 array; raises ValueError on
    another shape, and naming the index of the first entry that is not a
    real number in [0, 1].  ``name`` names one entry.  Entries are looked at
    one by one unless they form a numpy integer or float array or are all
    Python floats and ints: numpy reads a bool among floats as a number,
    and fails on an integer beyond the float range."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name}s must form a one-dimensional sequence")
    if arr.dtype.kind not in "iuf" or (
        not isinstance(values, np.ndarray) and not {float, int}.issuperset(map(type, values))
    ):
        for i, value in enumerate(values):
            _require_real(value, f"{name} at index {i}", 0, 1)
    arr = arr.astype(np.float64, copy=False)
    bad = ~((arr >= 0.0) & (arr <= 1.0))  # also catches NaN
    if bad.any():
        i = int(np.argmax(bad))
        _require_real(float(arr[i]), f"{name} at index {i}", 0, 1)
    return arr


def _binary_array(values, name: str, n: int) -> np.ndarray:
    """``values`` as a read-only int8 array of n zeros and ones."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name}s must form a one-dimensional sequence")
    if arr.size != n:
        raise ValueError(f"{name}s and scores must have equal length")
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} at index {i} must be 0 or 1, got {arr.tolist()[i]!r}")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr
