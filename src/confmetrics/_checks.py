"""Argument checks of the public entry points.

Each raises ValueError naming the argument before any work is done, and
none coerces: a bool is neither an integer nor a real number, and neither
a string nor a set is a sequence.  One call checks a number's type and range.
"""

from __future__ import annotations

import functools
import numbers
import operator
from collections import Counter
from collections.abc import Collection

import numpy as np


def _require(value, name: str, low=None, high=None, strict=False, *, kind, what: str):
    """Raise ValueError unless ``value`` is an instance of ``kind`` (a bool
    never is), described as ``what``, and is at least ``low`` or, with
    ``high`` given, lies in [low, high], or in (low, high) when ``strict``;
    NaN lies in no interval.  Returns ``value``, a numpy integer as its
    Python int: numpy refuses to compare or combine a numpy integer with a
    Python int outside the integer's type."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    number = operator.index(value) if isinstance(value, np.integer) else value
    if high is None:
        if low is not None and not number >= low:
            raise ValueError(f"{name} must be at least {low}, got {value!r}")
    elif not (low < number < high if strict else low <= number <= high):
        interval = f"({low}, {high})" if strict else f"[{low}, {high}]"
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")
    return number


# numpy floats and integers are real numbers, and numpy integers integers.
_require_real = functools.partial(_require, kind=numbers.Real, what="a real number")
_require_integer = functools.partial(_require, kind=(int, np.integer), what="an integer")


def _check_alpha(alpha) -> None:
    """Raise ValueError for an alpha that is not a real number in (0, 1)."""
    _require_real(alpha, "alpha", 0, 1, strict=True)


def _require_sequence(values, name: str, items: str, nonempty: bool = False) -> None:
    """Raise ValueError unless ``values`` is a collection but not a string
    or a set, whose order would follow the hash seed, and, when
    ``nonempty``, holds an entry."""
    text = isinstance(values, (str, bytes))
    unordered = isinstance(values, (set, frozenset))
    if text or unordered or not isinstance(values, Collection) or (nonempty and len(values) == 0):
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


def _require_binary(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a real number equal to 0 or 1;
    a Python or numpy bool is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _entries(values, name: str, check, bad) -> np.ndarray:
    """``values`` as a one-dimensional array; raises ValueError on another
    shape, and by ``check(entry, "<name> at index <i>")`` on an entry.
    Entries go to ``check`` one by one unless they form a numpy integer or
    float array or are all Python floats and ints (numpy reads a bool among
    numbers as a number, and fails on an integer beyond the float range);
    then ``bad`` marks rejects in one array pass, and ``check`` gets the first."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name}s must form a one-dimensional sequence")
    if arr.dtype.kind not in "iuf" or (
        not isinstance(values, np.ndarray) and not {float, int}.issuperset(map(type, values))
    ):
        for i, value in enumerate(values):
            check(value, f"{name} at index {i}")
    else:
        rejected = bad(arr)
        if rejected.any():
            i = int(np.argmax(rejected))
            check(arr[i].item(), f"{name} at index {i}")
    return arr


def unit_interval_array(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 array of reals in [0, 1]."""
    check = functools.partial(_require_real, low=0, high=1)
    arr = _entries(values, name, check, lambda arr: ~((arr >= 0.0) & (arr <= 1.0)))  # NaN too
    return arr.astype(np.float64, copy=False)


def _binary_array(values, name: str, n: int) -> np.ndarray:
    """``values`` as a read-only int8 array of n zeros and ones."""
    arr = _entries(values, name, _require_binary, lambda arr: (arr != 0) & (arr != 1))
    if arr.size != n:
        raise ValueError(f"{name}s and scores must have equal length")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr
