"""Engine configuration: a flat dataclass with strict JSON (de)serialization.

Unknown keys, values of the wrong type and durations that are not finite
and positive are rejected with the offending field named, so a typo'd
config fails at startup instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    pass


def _names(name: str, value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    return tuple(value)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(slots=True)
class EngineConfig:
    listen_addr: str = "127.0.0.1"
    listen_port: int = 0                      # 0 = no TCP flow listener
    verification_interval: float = 30.0
    retry_window: float = 2.0
    grace_period: float = 60.0
    probe_interval: float = 30.0
    dns_servers: tuple[str, ...] = ()
    log_dir: str = "logs"
    metrics_port: int = 0                     # 0 = metrics endpoint disabled
    max_parked: int = 10_000

    def __post_init__(self):
        self.dns_servers = _names("dns_servers", self.dns_servers)
        self.validate()

    def validate(self) -> None:
        for name in ("listen_addr", "log_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name}: expected a string, got {getattr(self, name)!r}")
        # every float field is a duration: the default's type is the field's
        for name in (f.name for f in fields(self) if isinstance(f.default, float)):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name}: duration must be finite, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{name}: duration must be positive, got {value!r}")
        if not _is_int(self.max_parked) or self.max_parked < 1:
            raise ConfigError(f"max_parked: expected an integer >= 1, got {self.max_parked!r}")
        for port_field in ("listen_port", "metrics_port"):
            port = getattr(self, port_field)
            if not _is_int(port) or port < 0 or port > 65535:
                raise ConfigError(f"{port_field}: expected a port 0-65535, got {port!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config field {unknown[0]!r}")
        return cls(**d)


def load_config_sections(path: str) -> tuple[EngineConfig, dict]:
    """Split a config file into the engine section and the raw workload
    section (parsed by the simulator)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "engine" in raw or "workload" in raw:
        engine, workload = raw.get("engine", {}), raw.get("workload", {})
        for name, section in (("engine", engine), ("workload", workload)):
            if not isinstance(section, dict):
                raise ConfigError(f"{name}: expected an object, got {section!r}")
        return EngineConfig.from_dict(engine), workload
    return EngineConfig.from_dict(raw), {}

