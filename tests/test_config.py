"""Every default knob in `config.Settings` is read by the library, and the
environment override of the depth cap is checked."""

import dataclasses
import pathlib
import re
from fractions import Fraction

import pytest

from vfblock.certify import zero_enclosure
from vfblock.config import ENV_MAX_DEPTH, Settings, default_max_depth

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vfblock"


def test_every_setting_is_read():
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")))
    read = set(re.findall(r"\bDEFAULTS\.(\w+)", text))
    unread = [f.name for f in dataclasses.fields(Settings) if f.name not in read]
    assert not unread, f"Settings fields read nowhere as DEFAULTS.<field>: {unread}"


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", ""])
def test_invalid_max_depth_env_raises(monkeypatch, raw, euler, unit_disk):
    monkeypatch.setenv(ENV_MAX_DEPTH, raw)
    with pytest.raises(ValueError, match=ENV_MAX_DEPTH):
        zero_enclosure(euler, unit_disk, Fraction(1, 8))


def test_max_depth_env_override(monkeypatch):
    monkeypatch.setenv(ENV_MAX_DEPTH, "7")
    assert default_max_depth() == 7
    monkeypatch.delenv(ENV_MAX_DEPTH)
    assert default_max_depth() == Settings().max_depth
