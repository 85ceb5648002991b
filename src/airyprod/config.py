"""Plain-text configuration shared by the library front ends.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Recognized keys:

    quad_tol            relative quadrature tolerance (laplace integrals)
    seed                integer seed for pseudo-random verification grids
    format              csv | json

Keys that earlier versions read (``_RETIRED_KEYS``) still load and are
ignored; any other key is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunConfig", "load_key_values", "parse_complex"]

_QUAD_TOL_RANGE = (1e-14, 1e-4)
_KEYS = {"quad_tol": float, "seed": int, "format": str.lower}
_RETIRED_KEYS = ("saddle_hint", "turn_radius_factor", "tail_angle_shift",
                 "tail_tol", "max_nodes", "truncation_ceiling", "route_tol")


def load_key_values(path: str) -> dict:
    """The value strings of a file's recognized keys; a retired key is
    skipped and any other key raises ValueError."""
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in _KEYS:
                data[key] = value.strip()
            elif key not in _RETIRED_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return data


@dataclass
class RunConfig:
    """Validated run settings for evaluation and verification."""

    quad_tol: float = 1e-10
    seed: int = 20240901
    format: str = "csv"

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        cfg = cls(**{k: _KEYS[k](v) for k, v in load_key_values(path).items()})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        lo, hi = _QUAD_TOL_RANGE
        if not (lo <= self.quad_tol <= hi):
            raise ValueError(f"quad_tol must lie in [{lo}, {hi}]")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def parse_complex(text: str) -> complex:
    """Parse 'RE', 'IMi', or 'RE+IMi' literals (e.g. '1.5-0.25i').

    The trailing-i form avoids the shell-quoting problems of
    parenthesized complex literals; Python's own 'j' form is accepted
    too.  Spaces are ignored.
    """
    s = text.replace(" ", "")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"not a complex literal: {text!r}") from None
