"""Optional key = value configuration files for the CLI.

Keys are section-qualified field names (`zff.trend_window_ms = 8`,
`hp.min_votes = 5`, `lp.order = 12`); `#` starts a comment.  CLI flags
override file values.
"""

from __future__ import annotations

from pathlib import Path
from typing import get_args, get_type_hints

from .epochs import ZffConfig
from .hilbert_phase import HpConfig
from .reskew import LpConfig
from .types import InvalidInputError

_SECTIONS = {"zff": ZffConfig, "hp": HpConfig, "lp": LpConfig}


def _coerce(section: str, name: str, raw: str):
    declared = get_type_hints(_SECTIONS[section]).get(name)
    if declared is None:
        raise InvalidInputError(f"unknown option {section}.{name}")
    text = raw.strip()
    if text.lower() in ("none", "auto"):
        return None
    try:
        value = float(text)
    except ValueError:
        raise InvalidInputError(f"cannot parse {raw!r} as a number for {name}") from None
    if (declared is int or int in get_args(declared)) and value.is_integer():
        return int(value)
    return value


def parse_config_file(path) -> dict:
    """Parse a config file into {'zff': {...}, 'hp': {...}, 'lp': {...}}."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such config file: {path}")
    out: dict = {name: {} for name in _SECTIONS}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected `section.key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise InvalidInputError(f"{path}:{lineno}: key must be section-qualified, got {key!r}")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise InvalidInputError(f"{path}:{lineno}: unknown section {section!r}")
        out[section][name] = _coerce(section, name, value)
    return out


def build_configs(overrides: dict | None):
    """Instantiate (ZffConfig, HpConfig, LpConfig) from parsed overrides."""
    overrides = overrides or {}
    try:
        zcfg = ZffConfig(**overrides.get("zff", {}))
        hcfg = HpConfig(**overrides.get("hp", {}))
        lcfg = LpConfig(**overrides.get("lp", {}))
    except TypeError as exc:
        raise InvalidInputError(f"bad configuration: {exc}") from None
    return zcfg, hcfg, lcfg
