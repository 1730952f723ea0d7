"""Exception types shared across the package."""

from dataclasses import MISSING, fields


class ConfigurationError(ValueError):
    """Raised when user-supplied parameters are inconsistent or out of range."""


class EnumerationLimitError(RuntimeError):
    """Raised when a strategy-space enumeration would exceed its configured cap."""


def from_fields(cls, doc: dict, **convert):
    """cls(**doc) for a dataclass cls read from one JSON object, with each key
    named in convert, where present, mapped by its converter first. A doc
    that is not an object, keys that are not fields of cls, fields without a
    default that doc lacks, and a converter's TypeError or ValueError raise
    ConfigurationError naming them, not a bare TypeError."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a {cls.__name__} must be a JSON object, not {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing {cls.__name__} keys: {', '.join(missing)}")
    args = dict(doc)
    for key, value in doc.items():
        if key in convert:
            try:
                args[key] = convert[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{cls.__name__} key {key!r}: {exc}") from exc
    return cls(**args)
