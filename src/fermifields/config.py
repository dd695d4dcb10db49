"""Run configuration: flat dotted-key text files plus CLI overrides.

Grammar (one assignment per line)::

    # comment
    lattice.nt = 6
    lattice.dt = 1/2        # integers, fractions a/b, or decimals
    cutoff = window:1:4     # or "ones", or "window" (interior default)
    arithmetic = rational   # or float

Unknown keys, and keys set twice, are rejected.  All keys have defaults;
flags override file values.  Numeric couplings are stored exactly
(fractions) so that the same file drives both arithmetic modes.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields as dc_fields
from fractions import Fraction

from .gross_neveu import GrossNeveuParams
from .lattice import FieldLattice, Lattice

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration value or key."""


# the config key of each parameter that a Lattice, FieldLattice or Ring
# ValueError names first
_PARAM_KEYS = {"nt": "lattice.nt", "nx": "lattice.nx", "dt": "lattice.dt",
               "dx": "lattice.dx", "ncolors": "colors", "mode": "arithmetic"}


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad numeric value {text!r}: {exc}") from None


@dataclass
class RunConfig:
    nt: int = 6
    nx: int = 2
    dt: Fraction = Fraction(1)
    dx: Fraction = Fraction(1)
    mass: Fraction = Fraction(1)
    colors: int = 1
    lam: Fraction = Fraction(1, 4)
    cutoff: str = "window"
    lambda_order: int = 3
    max_grade: int = 10
    arithmetic: str = "float"
    seed: int = 1234

    KEYS = {
        "lattice.nt": ("nt", int),
        "lattice.nx": ("nx", int),
        "lattice.dt": ("dt", _parse_number),
        "lattice.dx": ("dx", _parse_number),
        "mass": ("mass", _parse_number),
        "colors": ("colors", int),
        "lambda": ("lam", _parse_number),
        "cutoff": ("cutoff", str),
        "truncation.lambda_order": ("lambda_order", int),
        "truncation.max_grade": ("max_grade", int),
        "arithmetic": ("arithmetic", str),
        "seed": ("seed", int),
    }

    def set_key(self, key: str, raw: str) -> None:
        try:
            attr, conv = self.KEYS[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None
        try:
            value = conv(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
        setattr(self, attr, value)

    def validate(self) -> "RunConfig":
        # every command also reads the numeric keys as floats
        for key, (attr, conv) in self.KEYS.items():
            if conv is _parse_number:
                value = getattr(self, attr)
                try:
                    as_float = float(value)  # a Fraction's float is finite
                except OverflowError:
                    raise ConfigError(f"{key} does not fit in a float") from None
                if value and not as_float:
                    raise ConfigError(f"{key} is nonzero but rounds to 0.0 "
                                      "as a float")
        # the lattice, colour and mode rules live in the objects they build
        try:
            self.field_lattice()
        except ValueError as exc:
            name = re.match(r"\w+", str(exc))[0]
            raise ConfigError(f"{_PARAM_KEYS.get(name, name)}: {exc}") from None
        if self.lambda_order < 0:
            raise ConfigError("truncation.lambda_order must be >= 0")
        if self.max_grade < 0:
            raise ConfigError("truncation.max_grade must be >= 0")
        if self.cutoff.startswith("window:"):
            self._window()
        elif self.cutoff not in ("ones", "window"):
            raise ConfigError(f"bad cutoff spec {self.cutoff!r}")
        return self

    def _window(self) -> tuple[int, int]:
        """(LO, HI) of a ``window:LO:HI`` cutoff, 0 <= LO <= HI <= nt - 1."""
        try:
            _, lo, hi = self.cutoff.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"bad cutoff window {self.cutoff!r}") from None
        if not 0 <= lo <= hi <= self.nt - 1:
            raise ConfigError(f"cutoff window {self.cutoff!r} needs integers "
                              f"0 <= LO <= HI <= nt - 1 = {self.nt - 1}")
        return lo, hi

    # -- derived objects --------------------------------------------------
    def number(self, x: Fraction):
        return x if self.arithmetic == "rational" else float(x)

    def lattice(self) -> Lattice:
        return Lattice(self.nt, self.nx, self.number(self.dt), self.number(self.dx))

    def field_lattice(self) -> FieldLattice:
        return FieldLattice(self.lattice(), self.colors, self.arithmetic)

    def cutoff_weights(self, fl: FieldLattice) -> list:
        if self.cutoff == "ones":
            return fl.ones_weights()
        if self.cutoff == "window":
            # the library's default window, which refuses an empty one
            try:
                return GrossNeveuParams().cutoff(fl)
            except ValueError as exc:
                raise ConfigError(f"cutoff = window: {exc}") from None
        return fl.window_weights(*self._window())

    def gn_params(self, fl: FieldLattice) -> GrossNeveuParams:
        return GrossNeveuParams(lam=self.number(self.lam),
                                m=self.number(self.mass),
                                g=self.cutoff_weights(fl))

    def to_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v) if isinstance(v, Fraction) else v
        return out


def parse_config_file(path, rejected: dict | None = None) -> RunConfig:
    """Parse a config file; ``rejected`` maps keys the caller refuses to why."""
    if os.path.isdir(path):
        raise ConfigError(f"config {str(path)!r} is a directory, not a file")
    cfg = RunConfig()
    seen: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key = key.strip()
            if rejected and key in rejected:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is not accepted "
                                  f"here: {rejected[key]}")
            if key in seen:
                raise ConfigError(f"{path}: key {key!r} is set twice, on lines "
                                  f"{seen[key]} and {lineno}")
            seen[key] = lineno
            cfg.set_key(key, raw.strip())
    return cfg


def load_config(path=None, overrides: dict | None = None,
                rejected: dict | None = None) -> RunConfig:
    cfg = parse_config_file(path, rejected) if path else RunConfig()
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg.set_key(key, str(value))
    return cfg.validate()
