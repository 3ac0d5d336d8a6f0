"""The environment override of the depth cap is checked."""

from fractions import Fraction

import pytest

from vfblock.certify import zero_enclosure
from vfblock.config import ENV_MAX_DEPTH, MAX_DEPTH, default_max_depth


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", ""])
def test_invalid_max_depth_env_raises(monkeypatch, raw, euler, unit_disk):
    monkeypatch.setenv(ENV_MAX_DEPTH, raw)
    with pytest.raises(ValueError, match=ENV_MAX_DEPTH):
        zero_enclosure(euler, unit_disk, Fraction(1, 8))


def test_max_depth_env_override(monkeypatch):
    monkeypatch.setenv(ENV_MAX_DEPTH, "7")
    assert default_max_depth() == 7
    monkeypatch.delenv(ENV_MAX_DEPTH)
    assert default_max_depth() == MAX_DEPTH
