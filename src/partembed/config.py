"""Config field kinds, the one checker and the one JSON config codec.

Every field of a config dataclass declares its kind once, as
``kind(name, default)``; its ``__post_init__`` runs ``check`` and then only
the rules that span fields or sets.
"""

import math
import reprlib
from dataclasses import MISSING, field, fields

import numpy as np

from .errors import ConfigurationError


def is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _finite(x) -> bool:
    try:  # math.isfinite overflows on an integer beyond float range
        return (isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:
        return False


def _tuple(x, item: str, empty_ok=False, distinct=False) -> bool:
    """A tuple of values of kind ``item``."""
    return (isinstance(x, tuple) and all(map(KINDS[item][0], x)) and (empty_ok or len(x) > 0)
            and (not distinct or len(set(x)) == len(x)))


# kind -> (test, what a value of the kind is)
KINDS = {
    "count": (lambda x: is_int(x) and x >= 1, "an integer of at least 1"),
    "natural": (lambda x: is_int(x) and x >= 0, "an integer of at least 0"),
    "positive": (lambda x: _finite(x) and x > 0, "a finite number above 0"),
    "nonnegative": (lambda x: _finite(x) and x >= 0, "a finite number of at least 0"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "string": (lambda x: isinstance(x, str), "a string"),
    "widths": (lambda x: _tuple(x, "count"), "a nonempty list of integers of at least 1"),
    "widths_or_empty": (lambda x: _tuple(x, "count", empty_ok=True),
                        "a list of integers of at least 1"),
    "grid": (lambda x: _tuple(x, "count", distinct=True),
             "a nonempty list of distinct integers of at least 1"),
    "names": (lambda x: _tuple(x, "string", distinct=True), "a nonempty list of distinct strings"),
}


def kind(name: str, default=MISSING):
    """A dataclass field of kind ``name``, a key of KINDS."""
    return field(default=default, metadata={"kind": name})


def check(cfg) -> None:
    """Raise ConfigurationError naming the first field not of its kind."""
    for f in fields(cfg):
        test, what = KINDS[f.metadata["kind"]]
        if not test(value := getattr(cfg, f.name)):
            raise ConfigurationError(f"{f.name} must be {what}, got {reprlib.repr(value)}")


def from_json(cls, raw, what: str):
    """A ``cls`` from its JSON form: an object with exactly the class's fields,
    lists for tuples. Anything else raises ConfigurationError naming ``what``."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    names = {f.name for f in fields(cls)}
    if set(raw) != names:
        raise ConfigurationError(f"{what}: unknown keys {sorted(set(raw) - names)}, "
                                 f"missing keys {sorted(names - set(raw))}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
