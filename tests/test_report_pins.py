"""Every pinned CLI report keeps its bytes (see `tests/make_report_pins.py`).

A failure means stdout, stderr or the exit code of some command changed.
Regenerate the pins only when that change is deliberate.
"""

from __future__ import annotations

import json

import pytest

from make_report_pins import PINS, pins_for, texts

TEXTS = texts()


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_report_bytes_match_pins(name, tmp_path):
    expected = json.loads(PINS.read_text(encoding="utf-8"))[name]
    path = tmp_path / f"{name}.pde"
    path.write_text(TEXTS[name], encoding="utf-8")
    actual = pins_for(name, path)
    assert actual == expected
