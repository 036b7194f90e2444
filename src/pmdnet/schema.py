"""Declared field types of the config dataclasses.

LatticeConfig, TrainingConfig and the command line's RunConfig declare each
field once, with its type.  Every config value, whether written in code,
parsed from a config file or read from a checkpoint header, is checked
against that declaration here, and a config is hashed in the canonical JSON
form that checkpoint headers store.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
import typing


@functools.cache
def field_types(cls) -> dict[str, object]:
    """Field name -> declared type of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _conforms(value, typ) -> bool:
    if isinstance(value, bool):
        return False  # Python counts a bool as an int; no config field is one
    if typing.get_origin(typ) is tuple:
        args = typing.get_args(typ)
        return (isinstance(value, (tuple, list)) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if typ is int:
        return isinstance(value, numbers.Integral)
    if typ is float:
        return isinstance(value, numbers.Real)  # an int is a valid float
    return isinstance(value, typ)


def check_field_types(config) -> None:
    """Raise ValueError unless every field of the dataclass instance holds a
    value of its declared type: a float is no int, and a bool is neither."""
    for name, typ in field_types(type(config)).items():
        value = getattr(config, name)
        if not _conforms(value, typ):
            label = str(typ) if typing.get_origin(typ) else typ.__name__
            raise ValueError(f"{name} must be {label}, got {value!r}")


def config_hash(config) -> str:
    """Short SHA-256 of the canonical JSON of a config: dataclasses.asdict
    (for a dataclass) with sorted keys, the form a checkpoint header stores.

    The values are hashed, not how they were spelled, so 0.3, 0.30 and 3e-1
    give one hash.
    """
    if dataclasses.is_dataclass(config):
        config = dataclasses.asdict(config)
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:12]
