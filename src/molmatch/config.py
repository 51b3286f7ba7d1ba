"""Run configuration: dataclasses plus a flat key=value file format.

The on-disk format is INI-style with section headers, chosen so any
language can parse it without a dependency.  Unknown sections or keys
are hard errors, as are out-of-range values.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ConfigError",
    "OPTIMIZERS",
    "SAMPLINGS",
    "METRICS",
    "MODES",
    "TrainConfig",
    "EncoderConfig",
    "MatcherConfig",
    "ProtocolConfig",
    "TaskRelConfig",
    "RunConfig",
    "load_config",
    "config_to_dict",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Bad configuration file or field value."""


# the valid values of the enumerated settings
OPTIMIZERS = ("adam", "adamw")
SAMPLINGS = ("balanced", "unbalanced")
METRICS = ("dot", "cosine", "euclidean")
MODES = ("adapted-w-delta", "mean-support-embedding")


@dataclass
class TrainConfig:
    alpha: float = 0.05  # inner-loop (fine-tune) learning rate
    inner_steps: int = 5
    meta_lr: float = 0.001
    optimizer: str = "adam"  # one of OPTIMIZERS
    weight_decay: float = 0.0
    batch_tasks: int = 21
    max_epochs: int = 200
    seed: int = 0
    support_split_fraction: float = 0.5
    early_stop: bool = False
    patience: int = 10
    workers: int = 1


@dataclass
class EncoderConfig:
    layers: int = 5
    hidden: int = 300
    dropout: float = 0.0  # the encoder is exempt from the default dropout


@dataclass
class MatcherConfig:
    dropout: float = 0.1
    share_qk: bool = True
    fusion_bias: bool = True  # False freezes the fusion bias at zero


@dataclass
class ProtocolConfig:
    sampling: str = "balanced"  # one of SAMPLINGS
    support_size: int = 20
    query_size: int = 256  # cap on the leftover examples used as queries
    eval_repeats: int = 10


@dataclass
class TaskRelConfig:
    metric: str = "cosine"  # one of METRICS
    mode: str = "adapted-w-delta"  # one of MODES


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    taskrel: TaskRelConfig = field(default_factory=TaskRelConfig)

    def validate(self) -> "RunConfig":
        t, e, m, p, r = self.train, self.encoder, self.matcher, self.protocol, self.taskrel
        checks = [
            (0 <= t.alpha < math.inf, "train.alpha must be finite and >= 0"),
            (t.inner_steps >= 0, "train.inner_steps must be >= 0"),
            (0 <= t.meta_lr < math.inf, "train.meta_lr must be finite and >= 0"),
            (t.optimizer in OPTIMIZERS, "train.optimizer must be adam or adamw"),
            (0 <= t.weight_decay < math.inf, "train.weight_decay must be finite and >= 0"),
            (t.batch_tasks >= 1, "train.batch_tasks must be >= 1"),
            (t.max_epochs >= 0, "train.max_epochs must be >= 0"),
            (t.seed >= 0, "train.seed must be >= 0"),
            (0 < t.support_split_fraction < 1, "train.support_split_fraction must be in (0, 1)"),
            (t.patience >= 1, "train.patience must be >= 1"),
            (t.workers >= 1, "train.workers must be >= 1"),
            (e.layers >= 1, "encoder.layers must be >= 1"),
            (e.hidden >= 1, "encoder.hidden must be >= 1"),
            (0 <= e.dropout < 1, "encoder.dropout must be in [0, 1)"),
            (0 <= m.dropout < 1, "matcher.dropout must be in [0, 1)"),
            (p.sampling in SAMPLINGS, "protocol.sampling must be balanced or unbalanced"),
            (p.support_size >= 1, "protocol.support_size must be >= 1"),
            (
                p.sampling != "balanced" or p.support_size % 2 == 0,
                "protocol.support_size must be even for balanced sampling",
            ),
            (p.query_size >= 1, "protocol.query_size must be >= 1"),
            (p.eval_repeats >= 1, "protocol.eval_repeats must be >= 1"),
            (r.metric in METRICS, "taskrel.metric must be dot, cosine or euclidean"),
            (r.mode in MODES, "taskrel.mode must be adapted-w-delta or mean-support-embedding"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


_SECTIONS = {
    "train": TrainConfig,
    "encoder": EncoderConfig,
    "matcher": MatcherConfig,
    "protocol": ProtocolConfig,
    "taskrel": TaskRelConfig,
}


def _coerce(section: str, key: str, raw: str, target_type: type):
    try:
        if target_type is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse a config file, rejecting unknown sections and keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(cfg, section)
        types = {f.name: type(getattr(target, f.name)) for f in dataclasses.fields(target)}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(target, key, _coerce(section, key, raw, types[key]))
    return cfg.validate()


def config_to_dict(cfg: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def _typed(section: str, key: str, value, target_type: type):
    """``value`` if it has the field's type; an int also serves a float field."""
    ok = isinstance(value, target_type) or (target_type is float and isinstance(value, int))
    if not ok or (target_type is not bool and isinstance(value, bool)):
        raise ConfigError(f"[{section}] {key}: expected {target_type.__name__}, got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config snapshot must be a mapping")
    cfg = RunConfig()
    for section, cls in _SECTIONS.items():
        payload = data.get(section, {})
        if not isinstance(payload, dict):
            raise ConfigError(f"[{section}] must be a mapping")
        target = getattr(cfg, section)
        for f in dataclasses.fields(cls):
            if f.name in payload:
                kind = type(getattr(target, f.name))
                setattr(target, f.name, _typed(section, f.name, payload[f.name], kind))
    return cfg.validate()
