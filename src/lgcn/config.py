"""Model, training, and run configuration with JSON round-tripping."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .checkpoint import atomic_write


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration content."""


@dataclass
class ModelConfig:
    """Dimensional hyperparameters of the dual-stream model.

    Presets: "toy" (default, trainable on a desk) and "paper" (full-size
    dims for shape parity checks only; never trained here).
    """

    preset: str = "toy"
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    num_heads: int = 4
    depth: int = 4
    cnn_channels: int = 96
    cnn_grid: int = 4
    align_mid: int = 6           # intermediate side of the upsampler, between cnn_grid and grid

    def __post_init__(self):
        for name in ("patch_size", "num_heads", "cnn_grid", "embed_dim", "cnn_channels", "depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if not (self.cnn_grid <= self.align_mid <= self.grid):
            raise ConfigError(
                f"align_mid {self.align_mid} must lie between cnn_grid {self.cnn_grid} "
                f"and grid {self.grid}"
            )
        stage_out = self.image_size // 8  # three stride-2 stages
        if stage_out % self.cnn_grid != 0:
            raise ConfigError(
                f"image_size/8 = {stage_out} not divisible by cnn_grid {self.cnn_grid}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def adapter_dim(self) -> int:
        return math.ceil(self.embed_dim / 2)  # the adapter's bottleneck: half the token width

    @property
    def gate_dim(self) -> int:
        return math.ceil(self.embed_dim / 4)

    @property
    def pool_factor(self) -> int:
        return (self.image_size // 8) // self.cnn_grid

    @classmethod
    def toy(cls, **overrides: Any) -> "ModelConfig":
        return cls(**overrides)  # the field defaults are the toy preset

    @classmethod
    def paper(cls, **overrides: Any) -> "ModelConfig":
        return cls(**{**_PAPER, **overrides})

    @classmethod
    def from_preset(cls, preset: str, **overrides: Any) -> "ModelConfig":
        if preset == "toy":
            return cls.toy(**overrides)
        if preset == "paper":
            return cls.paper(**overrides)
        raise ConfigError(f"unknown preset {preset!r}")


# Full-size dims: 224px images on a 16x16 grid of 768-d tokens, a 7x7x1024
# local stream, and a 14-wide intermediate resampling step.
_PAPER = dict(
    preset="paper",
    image_size=224,
    patch_size=14,
    embed_dim=768,
    num_heads=12,
    depth=12,
    cnn_channels=1024,
    cnn_grid=7,
    align_mid=14,
)


@dataclass
class TrainConfig:
    """Optimizer and mining settings for the metric-learning loop."""

    learning_rate: float = 1e-3   # paper-scale preset uses 1e-5; toy backbones are random
    batch_size: int = 8           # paper-scale preset uses 16
    epochs: int = 5
    k_negatives: int = 4
    seed: int = 0
    freeze_backbone: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError("learning_rate must be finite and >= 0")
        if self.batch_size < 1 or self.epochs < 0 or self.k_negatives < 1:
            raise ConfigError("batch_size, epochs, k_negatives out of range")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AblationFlags:
    """Variant switches mirroring the ablation table; model.param_spec maps them to groups."""

    disable_fsa: bool = False
    disable_cnn_stream: bool = False
    disable_dfm: bool = False


@dataclass
class RunConfig:
    """Everything a CLI run needs: model dims, train settings, ablations."""

    model: ModelConfig = field(default_factory=ModelConfig.toy)
    train: TrainConfig = field(default_factory=TrainConfig)
    ablation: AblationFlags = field(default_factory=AblationFlags)


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


# Keys that earlier versions wrote, each with the one value every run held.
# A file holding that value still loads and the key is dropped; any other
# value asks for a setting that is gone, so it is rejected by name.
_RETIRED = {
    "model config": {"dfm_mode": "paper-text", "adapter_ratio": 0.5, "adapter_scale_init": 0.1},
    "train config": {"margin": 0.1, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8},
}


def _section(raw, section: str, defaults: dict) -> dict:
    """Copy of one config object, rejecting unknown keys and mistyped values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object, not {raw!r}")
    retired = _RETIRED.get(section, {})
    unknown = set(raw) - set(defaults) - set(retired)
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {sorted(unknown)}")
    for key, value in retired.items():
        if key in raw and raw[key] != value:
            raise ConfigError(f"unsupported {section} key {key}={raw[key]!r}, not {value!r}")
    raw = {key: value for key, value in raw.items() if key not in retired}
    for key, value in raw.items():
        # bool is an int subclass and an int is a valid float: compare kinds exactly
        kind = type(defaults[key])
        if not (type(value) in (int, float) if kind is float else type(value) is kind):
            raise ConfigError(f"bad {section} value {key}={value!r}")
        if kind is float and type(value) is int:  # kept as given: float() would change the bytes
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{section} value {key} is too large for a float") from None
    return raw


def run_config_from_dict(data: dict) -> RunConfig:
    """Parse a config dict, rejecting unknown keys and mistyped values.

    Keys earlier versions wrote still load: each _RETIRED key at its one
    value is dropped. The ablation key "static_fusion", written by versions
    that kept it as a switch of its own, is read as disable_dfm: both select
    concat fusion. The top-level int "threads", written by versions that had
    an inference thread pool, is accepted and ignored.
    """
    top = _section(data, "config", {"model": {}, "train": {}, "ablation": {}, "threads": 1})
    model = _section(top.get("model", {}), "model config", _defaults(ModelConfig))
    preset = model.pop("preset", "toy")
    train = _section(top.get("train", {}), "train config", _defaults(TrainConfig))
    ablation = _section(top.get("ablation", {}), "ablation config",
                        {**_defaults(AblationFlags), "static_fusion": False})
    if ablation.pop("static_fusion", False):
        ablation["disable_dfm"] = True
    return RunConfig(model=ModelConfig.from_preset(preset, **model),
                     train=TrainConfig(**train), ablation=AblationFlags(**ablation))


def run_config_to_dict(cfg: RunConfig) -> dict:
    return {
        "model": dataclasses.asdict(cfg.model),
        "train": dataclasses.asdict(cfg.train),
        "ablation": dataclasses.asdict(cfg.ablation),
    }


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested, not UTF-8
            raise ConfigError(f"{path}: not a JSON config: {exc}") from exc
    return run_config_from_dict(data)


def dump_run_config(cfg: RunConfig, path: str) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(run_config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
