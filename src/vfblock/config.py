"""Default knobs for subdivision, boundary margins and the sampled
double-cover winding."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

ENV_MAX_DEPTH = "VFBLOCK_MAX_DEPTH"


@dataclass(frozen=True)
class Settings:
    max_depth: int = 24                 # quadtree / boundary subdivision depth cap
    winding_budget: int = 1 << 20       # max samples per curve, double-cover lift
    lipschitz_safety: float = 1.2       # oversampling factor on the chord bound
    sampled_lipschitz_safety: float = 2.0
    collar_factor: int = 2              # boundary collar = collar_factor * resolution
    margin_tol: Fraction = Fraction(1, 4)     # relative slack target for boundary margins
    default_resolution: Fraction = Fraction(1, 64)


DEFAULTS = Settings()


def default_max_depth() -> int:
    """Depth cap, overridable through the environment (used by the CLI contract).
    Raises ValueError unless the override is an integer >= 1."""
    raw = os.environ.get(ENV_MAX_DEPTH)
    if raw is None:
        return DEFAULTS.max_depth
    error = ValueError(f"{ENV_MAX_DEPTH} must be an integer >= 1, got {raw!r}")
    try:
        depth = int(raw)
    except ValueError:
        raise error from None
    if depth < 1:
        raise error
    return depth
