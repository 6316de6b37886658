"""Key/value config documents with a version header.

Format: the first non-comment line must be ``attmot-config v1``; the rest
are ``key = value`` pairs.  ``#`` starts a comment.  Values parse as int,
float, bool or comma-separated lists thereof, falling back to strings.
"""
from __future__ import annotations

import io
import os
from dataclasses import fields, replace

from .synthgen import AttributePrior, WorldConfig

HEADER = "attmot-config v1"


class ConfigError(ValueError):
    pass


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config_text(text: str) -> dict:
    lines = text.splitlines()
    body: dict = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                raise ConfigError(f"line {lineno}: expected header {HEADER!r}, got {line!r}")
            header_seen = True
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in body:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if "," in value:
            body[key] = tuple(_parse_scalar(v) for v in value.split(","))
        else:
            body[key] = _parse_scalar(value)
    if not header_seen:
        raise ConfigError(f"missing header {HEADER!r}")
    return body


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)}: {exc}") from None


def strict_int(value) -> int:
    """``value`` as an int.  An int or an integral float converts; a bool,
    any other float and text are refused, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def strict_float(value) -> float:
    """``value`` as a float.  An int or a float converts; a bool and text
    are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


_WORLD_FIELDS = {f.name for f in fields(WorldConfig)} - {"prior"}
_INT_KEYS = {f.name for f in fields(WorldConfig) if f.type == "int"} | {"n_sequences"}
# keys holding a float, or a tuple of floats for the prior's distributions
_FLOAT_KEYS = ({f.name for f in fields(WorldConfig) if f.type == "float"}
               | {f"prior.{f.name}" for f in fields(AttributePrior) if f.type in ("float", "tuple")})
_PRIOR_FIELDS = {f.name for f in fields(AttributePrior)}


def world_config_from_mapping(mapping: dict) -> tuple[WorldConfig, int]:
    """Build (WorldConfig, n_sequences) from a parsed config document."""
    world_kwargs = {}
    prior_kwargs = {}
    n_sequences = 1
    for key, value in mapping.items():
        try:
            if key in _INT_KEYS:
                value = strict_int(value)
            elif key in _FLOAT_KEYS:
                for v in value if isinstance(value, tuple) else (value,):
                    strict_float(v)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from None
        if key == "n_sequences":
            n_sequences = value
        elif key.startswith("prior."):
            name = key[len("prior."):]
            if name not in _PRIOR_FIELDS:
                raise ConfigError(f"unknown prior key {key!r}")
            prior_kwargs[name] = value
        elif key in _WORLD_FIELDS:
            world_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    prior = AttributePrior(**prior_kwargs) if prior_kwargs else AttributePrior()
    try:
        config = WorldConfig(prior=prior, **world_kwargs)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if n_sequences < 1:
        raise ConfigError("n_sequences must be >= 1")
    return config, n_sequences


def dump_world_config(config: WorldConfig, n_sequences: int) -> str:
    """Canonical serialization; parse -> dump -> parse is the identity."""
    buf = io.StringIO()
    buf.write(HEADER + "\n")
    buf.write(f"n_sequences = {n_sequences}\n")
    for f in fields(WorldConfig):
        if f.name == "prior":
            continue
        buf.write(f"{f.name} = {getattr(config, f.name)!r}\n".replace("'", ""))
    for f in fields(AttributePrior):
        value = getattr(config.prior, f.name)
        if isinstance(value, tuple):
            buf.write(f"prior.{f.name} = {','.join(repr(v) for v in value)}\n")
        else:
            buf.write(f"prior.{f.name} = {value!r}\n")
    return buf.getvalue()
