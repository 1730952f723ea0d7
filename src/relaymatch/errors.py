"""Exception types shared across the package, and the one JSON decoder."""

import reprlib
import sys
import typing
from contextlib import suppress
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when user-supplied parameters are inconsistent or out of range."""


class EnumerationLimitError(RuntimeError):
    """Raised when a strategy-space enumeration would exceed its configured cap."""


def from_fields(tp, doc):
    """doc, one JSON value, read as annotation tp: a dataclass as tp(**doc)
    from an object, a list or tuple from an array or from a Python list or
    tuple (as to_dict leaves it). An int is a valid float and stays an int,
    so a config keeps its hash; NaN and infinities are refused. Anything
    else raises ConfigurationError naming the key path and the expected type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"a {tp.__name__} must be a JSON object, not {reprlib.repr(doc)}")
        unknown = sorted(set(doc) - {f.name for f in fields(tp)})
        if unknown:
            raise ConfigurationError(f"unknown {tp.__name__} keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(tp) if f.name not in doc
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigurationError(f"missing {tp.__name__} keys: {', '.join(missing)}")
        hints = typing.get_type_hints(tp)
        values = {}
        for key, value in doc.items():
            try:
                values[key] = from_fields(hints[key], value)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{tp.__name__} key {key!r}: {exc}") from None
        return tp(**values)
    if origin is typing.Union:
        for member in args:
            with suppress(ConfigurationError):
                return from_fields(member, doc)
    elif origin in (list, tuple) and isinstance(doc, (list, tuple)):
        if origin is list or args[-1] is Ellipsis:
            return origin(from_fields(args[0], v) for v in doc)
        if len(doc) == len(args):
            return tuple(map(from_fields, args, doc))
    elif tp is np.ndarray:
        with suppress(ValueError):      # ragged rows
            array = np.array(doc)
            if array.dtype.kind in "iuf" and np.isfinite(array).all():
                return array.astype(float)
    elif tp is float:
        # NaN fails too, and so does an int too large for a float
        if type(doc) in (int, float) and abs(doc) <= sys.float_info.max:
            return doc
    elif type(doc) is tp:       # int (not bool), bool, str, None
        return doc
    raise ConfigurationError(f"expected {_describe(tp)}, not {reprlib.repr(doc)}")


def _describe(tp) -> str:
    """Annotation tp as an error message names it, e.g. tuple[float, float]."""
    args = ", ".join("..." if a is Ellipsis else _describe(a) for a in typing.get_args(tp))
    name = getattr(typing.get_origin(tp) or tp, "__name__", repr(tp))
    return f"{name}[{args}]" if args else name
