"""Checks shared by the config records: ``SimConfig``, ``SplitSpec``,
``SinkhornConfig``, ``TrainConfig`` and ``ExperimentConfig``."""

from __future__ import annotations

import numbers
from dataclasses import fields


def require_int_fields(record) -> None:
    """Raise ValueError naming the first ``int`` field of a dataclass record
    whose value is not an integer.

    JSON configs can hand such a field 2.0, 8.7 or true; all are rejected
    (bools too, though Python counts them as ints). numpy integers pass. A
    ``seed`` field must also be nonnegative, as numpy's generators require.
    """
    for f in fields(record):
        if f.type in (int, "int"):
            value = getattr(record, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
            if f.name == "seed" and value < 0:
                raise ValueError(f"seed must be nonnegative, not {value!r}")
