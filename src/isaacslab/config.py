"""Plain-text experiment configs and replay manifests.

Grammar: UTF-8 lines of ``section.key = value``; ``#`` starts a comment,
blank lines are skipped, keys are dotted lowercase words, values are
scalars or comma-separated lists.  Floats round-trip at full double
precision (they are written back with ``repr``), which is what makes a
manifest replay bitwise: a manifest is just the resolved config plus
``meta.*`` entries naming the command and its outputs, and feeding it
back as a config reproduces the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .csvio import format_cell

__all__ = [
    "ConfigError",
    "Config",
    "parse_config_text",
    "load_config",
    "format_value",
    "write_manifest",
]


class ConfigError(ValueError):
    """Malformed config text or missing/invalid entries."""


_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


@dataclass(frozen=True)
class Config:
    """Parsed key-value entries with typed accessors."""

    entries: dict[str, str]

    def has(self, key: str) -> bool:
        return key in self.entries

    def _raw(self, key: str, default=None, required: bool = False) -> str | None:
        if key in self.entries:
            return self.entries[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def get_str(self, key: str, default: str | None = None, required: bool = False):
        return self._raw(key, default, required)

    def get_float(self, key: str, default: float | None = None, required: bool = False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not a number: {raw!r}") from exc

    def get_int(self, key: str, default: int | None = None, required: bool = False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            as_float = float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not an integer: {raw!r}") from exc
        # NaN and the infinities are not integers either
        if not as_float.is_integer():
            raise ConfigError(f"config key {key!r} is not an integer: {raw!r}")
        return int(as_float)

    def get_floats(self, key: str, default=None, required: bool = False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return tuple(float(tok.strip()) for tok in raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not a number list: {raw!r}") from exc

    def get_ints(self, key: str, default=None, required: bool = False):
        vals = self.get_floats(key, None, required)
        if vals is None:
            return default
        if not all(v.is_integer() for v in vals):
            raise ConfigError(f"config key {key!r} is not an integer list")
        return tuple(int(v) for v in vals)

    def with_overrides(self, **pairs) -> "Config":
        merged = dict(self.entries)
        for key, value in pairs.items():
            merged[key.replace("__", ".")] = format_value(value)
        return Config(entries=merged)

    def resolved_entries(self) -> dict[str, str]:
        """All non-meta entries; what a manifest records as the config."""
        return {k: v for k, v in self.entries.items() if not k.startswith("meta.")}


def parse_config_text(text: str) -> Config:
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return Config(entries=entries)


def load_config(path: str | Path) -> Config:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"))


def format_value(value) -> str:
    """Render a value as config text; floats keep full double precision."""
    if isinstance(value, (list, tuple)):
        return ", ".join(format_value(v) for v in value)
    return format_cell(value)


def write_manifest(
    path: str | Path, config: Config, command: str, outputs: list[str]
) -> None:
    """Write the resolved config plus meta entries; replayable as a config."""
    lines = [f"{k} = {v}" for k, v in sorted(config.resolved_entries().items())]
    lines.append(f"meta.command = {command}")
    lines.append(f"meta.outputs = {', '.join(outputs)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
