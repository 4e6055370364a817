"""Checks shared by the config records: ``SimConfig``, ``SplitSpec``,
``SinkhornConfig``, ``TrainConfig`` and ``ExperimentConfig``, and the one
rule by which a record reads a nested record from JSON."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

_FLOAT_TYPES = (float, "float", "float | None")
_FLOAT_TUPLE_TYPES = ("tuple[float, ...]", "tuple[float, ...] | None")


def require_integer_and_finite_fields(record) -> None:
    """Raise ValueError naming the first field of a dataclass record that is
    an ``int`` field not holding an integer, or a ``float`` field (or entry
    of a tuple of floats) holding a nan or an infinity.

    JSON configs can hand an int field 2.0, 8.7 or true; all are rejected
    (bools too, though Python counts them as ints). numpy integers pass. A
    ``seed`` field must also be nonnegative, as numpy's generators require.
    Python's JSON reader accepts NaN and Infinity, which no float field
    means; None (``beta: null``) passes.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type in (int, "int"):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
            if f.name == "seed" and value < 0:
                raise ValueError(f"seed must be nonnegative, not {value!r}")
        elif value is not None and f.type in _FLOAT_TYPES + _FLOAT_TUPLE_TYPES:
            for v in (value,) if f.type in _FLOAT_TYPES else value:
                if isinstance(v, numbers.Real) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, not {v}")


def nested_record(name: str, value, record: type, nullable: bool = False):
    """The ``record`` a config field ``name`` holds: ``value`` itself if it
    is one, else built from ``value`` as its JSON object (a dict). None
    passes through when ``nullable``; any other value raises ValueError
    naming the field."""
    if isinstance(value, dict):
        return record(**value)
    if isinstance(value, record) or (nullable and value is None):
        return value
    raise ValueError(f"{name} must be a {record.__name__} or its JSON object, "
                     f"not {value!r}")
