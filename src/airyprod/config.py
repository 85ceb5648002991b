"""Plain-text configuration shared by the library front ends.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Recognized keys:

    quad_tol            relative quadrature tolerance (laplace integrals)
    route_tol           tolerance for route-equivalence verification
    tail_tol            contour truncation level
    max_nodes           quadrature evaluation ceiling
    truncation_ceiling  largest allowed contour radius
    seed                integer seed for pseudo-random verification grids
    format              csv | json
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contours import ContourConfig

__all__ = ["RunConfig", "load_key_values", "parse_complex"]

_QUAD_TOL_RANGE = (1e-14, 1e-4)


def load_key_values(path: str) -> dict:
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            data[key.strip()] = value.strip()
    return data


@dataclass
class RunConfig:
    """Validated run settings for evaluation and verification."""

    quad_tol: float = 1e-10
    route_tol: float = 1e-7
    seed: int = 20240901
    format: str = "csv"
    contour: ContourConfig = field(default_factory=ContourConfig)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        data = load_key_values(path)
        cfg = cls()
        if "quad_tol" in data:
            cfg.quad_tol = float(data.pop("quad_tol"))
        if "route_tol" in data:
            cfg.route_tol = float(data.pop("route_tol"))
        if "seed" in data:
            cfg.seed = int(data.pop("seed"))
        if "format" in data:
            cfg.format = data.pop("format").lower()
        cfg.contour = ContourConfig.from_mapping(data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        lo, hi = _QUAD_TOL_RANGE
        if not (lo <= self.quad_tol <= hi):
            raise ValueError(f"quad_tol must lie in [{lo}, {hi}]")
        if not (0.0 < self.route_tol <= 1.0):
            raise ValueError("route_tol must lie in (0, 1]")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.contour.max_nodes < 1000:
            raise ValueError("max_nodes too small to be useful")
        if not (0.0 < self.contour.tail_tol < 1e-3):
            raise ValueError("tail_tol must lie in (0, 1e-3)")


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
