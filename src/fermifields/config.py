"""Run configuration: flat dotted-key text files plus CLI overrides.

Grammar (one assignment per line)::

    # comment
    lattice.nt = 6
    lattice.dt = 1/2        # integers, fractions a/b, or decimals
    cutoff = window:1:4     # or "ones", or "window" (interior default)
    arithmetic = rational   # or float
    debug.corrupt_kernel = true

Unknown keys are rejected.  All keys have defaults; flags override file
values.  Numeric couplings are stored exactly (fractions) so that the
same file drives both arithmetic modes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from fractions import Fraction

from .gross_neveu import GrossNeveuParams
from .lattice import FieldLattice, Lattice

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration value or key."""


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad numeric value {text!r}: {exc}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"bad boolean value {text!r}")


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
    debug_corrupt_kernel: bool = False

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
        "debug.corrupt_kernel": ("debug_corrupt_kernel", _parse_bool),
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
        if self.nt < 2:
            raise ConfigError("lattice.nt must be >= 2")
        if self.nx < 1:
            raise ConfigError("lattice.nx must be >= 1")
        if self.dt <= 0 or self.dx <= 0:
            raise ConfigError("lattice spacings must be positive")
        if self.dt > self.dx:
            raise ConfigError(
                f"dt={self.dt} > dx={self.dx} violates the explicit-scheme "
                "causality condition dt <= dx")
        if self.colors < 1:
            raise ConfigError("colors must be >= 1")
        if self.lambda_order < 0:
            raise ConfigError("truncation.lambda_order must be >= 0")
        if self.max_grade < 0:
            raise ConfigError("truncation.max_grade must be >= 0")
        if self.arithmetic not in ("float", "rational"):
            raise ConfigError("arithmetic must be 'float' or 'rational'")
        if not (self.cutoff == "ones" or self.cutoff == "window"
                or self.cutoff.startswith("window:")):
            raise ConfigError(f"bad cutoff spec {self.cutoff!r}")
        return self

    # -- derived objects --------------------------------------------------
    def number(self, x: Fraction):
        return x if self.arithmetic == "rational" else float(x)

    def lattice(self) -> Lattice:
        return Lattice(self.nt, self.nx, self.number(self.dt), self.number(self.dx))

    def field_lattice(self, colors: int | None = None) -> FieldLattice:
        return FieldLattice(self.lattice(), colors or self.colors, self.arithmetic)

    def cutoff_weights(self, fl: FieldLattice) -> list:
        ring = fl.ring
        if self.cutoff == "ones":
            return fl.ones_weights()
        if self.cutoff == "window":
            return fl.window_weights(1, self.nt - 2)
        parts = self.cutoff.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad cutoff spec {self.cutoff!r}")
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad cutoff window {self.cutoff!r}") from None
        return fl.window_weights(lo, hi)

    def gn_params(self, fl: FieldLattice) -> GrossNeveuParams:
        return GrossNeveuParams(ncolors=self.colors,
                                lam=self.number(self.lam),
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
    cfg = RunConfig()
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
            cfg.set_key(key, raw.strip())
    return cfg


def load_config(path=None, overrides: dict | None = None,
                rejected: dict | None = None) -> RunConfig:
    cfg = parse_config_file(path, rejected) if path else RunConfig()
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg.set_key(key, str(value))
    return cfg.validate()
