"""Every cell of the differential manifest reproduces its pinned trace bytes."""

import json

from differential import MANIFEST, digests


def test_every_cell_matches_the_manifest():
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    current = digests()
    assert sorted(current) == sorted(pinned)
    differing = [name for name in sorted(pinned) if current[name] != pinned[name]]
    assert differing == []
