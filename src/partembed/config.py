"""Field kinds, the one checker and the one JSON codec.

Every field of a config class, and of a corpus manifest's split and tag
vocabulary, declares its kind once, as ``kind(name, default)``; its
``__post_init__`` runs ``check`` and then only the rules that span fields or
sets. ``from_json`` decodes any of these classes from JSON.
"""

import math
import reprlib
from dataclasses import MISSING, field, fields

import numpy as np

from .errors import ConfigurationError, InputError


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


def _map(x, item: str) -> bool:
    """A dict from strings to values of kind ``item``."""
    return isinstance(x, dict) and all(isinstance(k, str) and KINDS[item][0](v)
                                       for k, v in x.items())


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
    "names_or_empty": (lambda x: _tuple(x, "string", empty_ok=True, distinct=True),
                       "a list of distinct strings"),
    "object": (lambda x: isinstance(x, dict), "a JSON object"),
    "string_map": (lambda x: _map(x, "string"), "an object from strings to strings"),
    "count_map": (lambda x: _map(x, "natural"),
                  "an object from strings to integers of at least 0"),
    "objects": (lambda x: _map(x, "object"), "an object from strings to objects"),
}


def kind(name: str, default=MISSING, factory=MISSING):
    """A dataclass field of kind ``name``, a key of KINDS."""
    return field(default=default, default_factory=factory, metadata={"kind": name})


def check_value(name: str, kind_name: str, value) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is of the kind."""
    test, what = KINDS[kind_name]
    if not test(value):
        raise ConfigurationError(f"{name} must be {what}, got {reprlib.repr(value)}")


def check(obj) -> None:
    """Raise ConfigurationError naming the first field not of its kind."""
    for f in fields(obj):
        check_value(f.name, f.metadata["kind"], getattr(obj, f.name))


def from_json(cls, raw, what: str):
    """A ``cls`` from its JSON form: an object with exactly the class's fields,
    lists for tuples. Anything else, a broken rule of the class included,
    raises ConfigurationError naming ``what``."""
    check_value(what, "object", raw)
    names = {f.name for f in fields(cls)}
    if set(raw) != names:
        raise ConfigurationError(f"{what}: unknown keys {sorted(set(raw) - names)}, "
                                 f"missing keys {sorted(names - set(raw))}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    except (ConfigurationError, InputError) as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc
