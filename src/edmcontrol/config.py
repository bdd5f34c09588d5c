"""Flat key-value configuration shared by the simulator, controller and CLI.

Config files hold one ``key = value`` pair per line (``#`` starts a comment).
Every key has a default; CLI flags override file values, which override the
defaults.  The ``EDMCONTROL_CONFIG`` environment variable names a default
config file.

Each key's default, and the type its values parse to, is read from the code
that uses it: a dataclass field or a keyword parameter (see ``_OWNERS``).
"""

from __future__ import annotations

import inspect
import os
import typing

from .abm import WorldParams
from .analysis import (
    detect_trapped_state,
    interaction_coefficients,
    outburst_onsets,
    partition_variance,
)
from .control import ControllerParams, LoopConfig, make_legitimacy_schedule

__all__ = [
    "DEFAULTS",
    "CONFIG_ENV_VAR",
    "coerce",
    "load_config",
    "resolve",
    "world_params",
    "controller_params",
    "loop_config",
]

CONFIG_ENV_VAR = "EDMCONTROL_CONFIG"


def _fields(cls, skip=()) -> dict[str, tuple[typing.Callable, str]]:
    return {name: (cls, name) for name in inspect.signature(cls).parameters if name not in skip}


# Config key -> (owner, name of the owner's field or keyword parameter).
# Dataclass fields keep their own names as keys.
_OWNERS: dict[str, tuple[typing.Callable, str]] = {
    **_fields(WorldParams),
    "schedule_changes": (make_legitimacy_schedule, "n_changes"),
    "legitimacy_low": (make_legitimacy_schedule, "low"),
    "legitimacy_high": (make_legitimacy_schedule, "high"),
    **_fields(ControllerParams),
    **_fields(LoopConfig, skip=("spec",)),
    "trapped_active_floor": (detect_trapped_state, "active_floor"),
    "trapped_min_duration": (detect_trapped_state, "min_duration"),
    "outburst_floor": (outburst_onsets, "floor"),
    "jacobian_theta": (interaction_coefficients, "theta"),
    "jacobian_window": (partition_variance, "window"),
    "jacobian_stride": (partition_variance, "stride"),
    "legitimacy_threshold": (partition_variance, "threshold"),
}


def _parameter(key: str) -> inspect.Parameter:
    owner, name = _OWNERS[key]
    return inspect.signature(owner, eval_str=True).parameters[name]


# Every tunable with its default, as plain Python scalars.
DEFAULTS: dict[str, object] = {key: _parameter(key).default for key in _OWNERS}


def coerce(key: str, raw: str):
    """Parse a config-file or ``--set`` value for ``key`` to its owner's type.

    ``none`` and ``unlimited`` give None, which only a key whose annotation
    admits None accepts (``jail_capacity``: no cap).
    """
    if key not in _OWNERS:
        raise ValueError(f"unknown config key {key!r}")
    annotation = _parameter(key).annotation
    types = typing.get_args(annotation) or (annotation,)
    token = raw.strip()
    if token.lower() in ("none", "unlimited"):
        if type(None) not in types:
            raise ValueError(f"config key {key!r} does not accept {token!r}")
        return None
    kind = next(t for t in types if t is not type(None))
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {kind.__name__}, got {token!r}") from None


def load_config(path) -> dict[str, object]:
    """Parse a key-value config file, validating keys and values against the owners."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            try:
                values[key] = coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve(path=None, overrides: dict[str, object] | None = None) -> dict[str, object]:
    """Merge defaults, an optional config file, and explicit overrides.

    With no explicit path, the file named by ``EDMCONTROL_CONFIG`` (if set)
    is loaded.  Every override takes effect, None included.
    """
    merged = dict(DEFAULTS)
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is not None:
        merged.update(load_config(path))
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key {key!r}")
        merged[key] = value
    return merged


def _build(owner, cfg: dict[str, object]):
    return owner(**{name: cfg[key] for key, (o, name) in _OWNERS.items() if o is owner})


def world_params(cfg: dict[str, object]) -> WorldParams:
    return _build(WorldParams, cfg)


def controller_params(cfg: dict[str, object]) -> ControllerParams:
    return _build(ControllerParams, cfg)


def loop_config(cfg: dict[str, object]) -> LoopConfig:
    return _build(LoopConfig, cfg)
