"""Exception types shared across the package."""

from dataclasses import MISSING, fields


class ConfigurationError(ValueError):
    """Raised when user-supplied parameters are inconsistent or out of range."""


class EnumerationLimitError(RuntimeError):
    """Raised when a strategy-space enumeration would exceed its configured cap."""


def from_fields(cls, doc: dict):
    """cls(**doc) for a dataclass cls; keys that are not its fields, and
    fields without a default that doc lacks, raise ConfigurationError naming
    them, not a bare TypeError."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing {cls.__name__} keys: {', '.join(missing)}")
    return cls(**doc)
