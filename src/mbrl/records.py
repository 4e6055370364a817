"""Checks shared by the config records: ``SimConfig``, ``SplitSpec``,
``SinkhornConfig``, ``TrainConfig`` and ``ExperimentConfig``, and the one
rule by which a record is read from JSON, whether a config file or a block
nested in one. Each field declares its own bound (``bounded``);
``__post_init__`` keeps the cross-field rules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields

_INT_TYPES = (int, "int")
_FLOAT_TYPES = (float, "float", "float | None")
_FLOAT_TUPLE_TYPES = ("tuple[float, ...]", "tuple[float, ...] | None")


def bounded(default=MISSING, *, at_least=None, positive=False, among=None,
            finite=True):
    """A dataclass field whose value (each entry, for a tuple of floats)
    ``check_fields`` holds to its bound: at least ``at_least``, above zero
    when ``positive``, or one of ``among``; a float field with ``finite``
    False may also hold nan or ±inf."""
    return field(default=default, metadata={"at_least": at_least, "finite": finite,
                                             "positive": positive, "among": among})


def check_fields(record) -> None:
    """Raise ValueError naming the first field of a dataclass record whose
    value breaks its type or its ``bounded`` rule.

    An ``int`` field holds an integer: JSON configs can hand it 2.0, 8.7 or
    true, and all are rejected (bools too, though Python counts them as
    ints); numpy integers pass. A ``float`` field, and each entry of a tuple
    of floats, holds a finite number: a bool, a string, a list or null is
    rejected, and so are the NaN and Infinity that Python's JSON reader
    accepts, unless the field is ``bounded(finite=False)``. None passes only
    in a field annotated ``… | None`` (``beta: null``).
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if value is None and str(f.type).endswith("| None"):
            continue
        if f.type in _INT_TYPES and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, not {value!r}")
        rule = f.metadata
        for v in value if f.type in _FLOAT_TUPLE_TYPES else (value,):
            if f.type in _FLOAT_TYPES + _FLOAT_TUPLE_TYPES:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ValueError(f"{f.name} must be a number, not {v!r}")
                if rule.get("finite", True) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, not {v}")
            if rule.get("among") is not None and v not in rule["among"]:
                raise ValueError(f"unknown {f.name} {v!r}")
            if rule.get("positive") and not v > 0:
                raise ValueError(f"{f.name} must be positive, not {v}")
            least = rule.get("at_least")
            if least is not None and not v >= least:
                bound = "nonnegative" if least == 0 else f"at least {least}"
                raise ValueError(f"{f.name} must be {bound}, not {v}")


def reject_unknown(d: dict, keys, block: str | None = None) -> None:
    """Raise ValueError naming the first key of ``d``, in sorted order,
    that is not among ``keys``, and the ``block`` that holds ``d`` if any."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        where = f" in {block}" if block else ""
        raise ValueError(f"unknown entry {unknown[0]!r}{where}")


def nested_record(name: str | None, value, record: type, nullable: bool = False):
    """The ``record`` a config field ``name`` holds (None for a block the
    caller names, such as a whole config file): ``value`` itself if it is
    one, else built from ``value`` as its JSON object (a dict), whose keys
    must be the record's fields (``reject_unknown``). None passes through
    when ``nullable``; any other value raises ValueError naming the field."""
    if isinstance(value, dict):
        reject_unknown(value, [f.name for f in fields(record) if f.init], name)
        return record(**value)
    if isinstance(value, record) or (nullable and value is None):
        return value
    raise ValueError(f"{name} must be a {record.__name__} or its JSON object, "
                     f"not {value!r}")
