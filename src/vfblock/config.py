"""Defaults read by more than one module; a knob with one reader is a
private constant beside it."""

from __future__ import annotations

import os
from fractions import Fraction

ENV_MAX_DEPTH = "VFBLOCK_MAX_DEPTH"
MAX_DEPTH = 24                          # quadtree / boundary subdivision depth cap
DEFAULT_RESOLUTION = Fraction(1, 64)    # enclosure cell diameter bound
DEFAULT_TOL = 1e-6                      # MAINBIS flowbox line-field tolerance


def default_max_depth() -> int:
    """Depth cap, overridable through the environment (used by the CLI contract).
    Raises ValueError unless the override is an integer >= 1."""
    raw = os.environ.get(ENV_MAX_DEPTH)
    if raw is None:
        return MAX_DEPTH
    error = ValueError(f"{ENV_MAX_DEPTH} must be an integer >= 1, got {raw!r}")
    try:
        depth = int(raw)
    except ValueError:
        raise error from None
    if depth < 1:
        raise error
    return depth
