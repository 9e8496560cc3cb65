"""Every pin lives in ``pins.json``, under exactly the registry's names."""

import json
import re

from pins import HERE, PIN_FILE, registry


def test_the_pin_file_names_exactly_the_registrys_pins():
    held = json.loads(PIN_FILE.read_text(encoding="utf-8"))
    names = registry()
    assert sorted(held) == ["sha256"]
    assert sorted(held["sha256"]) == sorted(names)


def test_no_test_file_holds_a_digest_literal():
    holders = [path.name for path in sorted(HERE.glob("*.py"))
               if re.search(r"\b[0-9a-fA-F]{64}\b", path.read_text(encoding="utf-8"))]
    assert holders == []
