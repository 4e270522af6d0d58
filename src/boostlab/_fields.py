"""Checks of the values a model file holds, shared by the tree and model
readers: each returns the value it accepts and raises MalformedModel for any
other."""

from __future__ import annotations

import math

from .errors import MalformedModel


def as_index(value, stop: int, what: str = "feature_index") -> int:
    """value as an index in [0, stop); anything else, a bool too, is MalformedModel."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < stop:
        raise MalformedModel(f"{what} {value!r} is not an int in [0, {stop})")
    return value


def as_number(value, what: str) -> float:
    """value as a finite float; a bool, NaN, ±Infinity, an int beyond the float
    range or anything but an int or a float is MalformedModel."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedModel(f"{what} {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise MalformedModel(f"{what} {value!r} is not a finite number")
    return number


def one_of(value, allowed: tuple, what: str):
    """value if it is one of allowed, of the same type (so True is not 1)."""
    if not any(type(value) is type(a) and value == a for a in allowed):
        raise MalformedModel(f"{what} {value!r} is not one of {allowed}")
    return value
