"""Every default knob in `config.Settings` is read by the library."""

import dataclasses
import pathlib
import re

from vfblock.config import Settings

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vfblock"


def test_every_setting_is_read():
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")))
    read = set(re.findall(r"\bDEFAULTS\.(\w+)", text))
    unread = [f.name for f in dataclasses.fields(Settings) if f.name not in read]
    assert not unread, f"Settings fields read nowhere as DEFAULTS.<field>: {unread}"
