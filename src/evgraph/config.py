"""Pipeline configuration: a key=value text file, every key overridable
by a same-named command-line flag."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import decoded_lines
from .model import normalize_token


class ConfigError(ValueError):
    pass


DEFAULT_GENERAL_ROOTS = ("change", "act", "move")

# The kind of each field, one table per kind, read by
# `PipelineConfig.__post_init__`, `make_config` and the CLI flags.
# Integer fields, each with its least allowed value (None: any integer).
INT_FIELDS = {"k": 0, "min_pred_freq": 1, "seed": None, "workers": 1}
# Float fields, each in [0, 1]; those named here must stay below 1.
UNIT_FIELDS = ("tau", "lambda_", "tau_a", "tau_e")
BELOW_ONE = ("tau",)
# Path fields; relative paths resolve against the config file's directory.
PATH_FIELDS = ("corpus", "taxonomy", "verb_hierarchy", "light_verbs", "output_dir")


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: str
    corpus: str = ""
    taxonomy: str = ""
    verb_hierarchy: str = ""
    light_verbs: str | None = None
    k: int = 5
    tau: float = 0.05
    lambda_: float = 0.5
    tau_a: float = 0.3
    tau_e: float = 0.2
    min_pred_freq: int = 5
    general_roots: tuple[str, ...] = DEFAULT_GENERAL_ROOTS
    seed: int = 0
    # Still accepted and validated, but changes nothing: every stage runs
    # in one process.
    workers: int = 1

    def __post_init__(self) -> None:
        for name in UNIT_FIELDS:
            value = getattr(self, name)
            if name in BELOW_ONE and not 0.0 <= value < 1.0:
                raise ConfigError(f"{external_key(name)} must be in [0,1), got {value}")
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{external_key(name)} must be in [0,1], got {value}")
        for name, least in INT_FIELDS.items():
            value = getattr(self, name)
            if least is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")


# Config-file/CLI key for each dataclass field ("lambda" is a Python keyword).
_FIELD_TO_KEY = {"lambda_": "lambda"}


def external_key(field_name: str) -> str:
    return _FIELD_TO_KEY.get(field_name, field_name)


def config_keys() -> tuple[str, ...]:
    return tuple(external_key(f.name) for f in fields(PipelineConfig))


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines of a UTF-8 file, read by `corpus.decoded_lines`;
    '#' starts a comment; blank lines ignored."""
    raw: dict[str, str] = {}
    for lineno, line in decoded_lines(path, ConfigError):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def make_config(
    raw: dict[str, str], base_dir: str | Path = ".", require_inputs: bool = True
) -> PipelineConfig:
    """Coerce raw string settings into a validated PipelineConfig.

    Relative paths resolve against base_dir (the config file's directory).
    The three input paths are only mandatory for commands that build.  An
    empty value keeps a key's default, but an empty general_roots is none.
    """
    base = Path(base_dir)
    known = set(config_keys())
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs: dict[str, object] = {}
    for f in fields(PipelineConfig):
        key = external_key(f.name)
        if key not in raw or (raw[key] == "" and f.name != "general_roots"):
            continue
        value = raw[key]
        if f.name in INT_FIELDS or f.name in UNIT_FIELDS:
            kind, what = (int, "an integer") if f.name in INT_FIELDS else (float, "a number")
            try:
                kwargs[f.name] = kind(value)
            except ValueError:
                raise ConfigError(f"{key} must be {what}, got {value!r}") from None
        elif f.name == "general_roots":
            roots = (normalize_token(v) for v in value.split(","))
            kwargs[f.name] = tuple(root for root in roots if root)
        elif f.name in PATH_FIELDS:
            kwargs[f.name] = str((base / value).resolve())
    required = ("corpus", "taxonomy", "verb_hierarchy", "output_dir") if require_inputs else ("output_dir",)
    for key in required:
        if key not in kwargs:
            raise ConfigError(f"missing required config key {key!r}")
    return PipelineConfig(**kwargs)


def config_report(cfg: PipelineConfig) -> dict[str, object]:
    """The full effective configuration, echoed into every run report."""
    values = ((f.name, getattr(cfg, f.name)) for f in fields(PipelineConfig))
    return {external_key(n): list(v) if isinstance(v, tuple) else v for n, v in values}
