"""Bundled demo models, addressable by short name from the CLI: each
``<name>.json`` in this directory."""

from __future__ import annotations

from pathlib import Path

_ROOT = Path(__file__).parent


def names() -> list[str]:
    return sorted(p.stem for p in _ROOT.glob("*.json"))


def path(name: str) -> Path | None:
    return _ROOT / f"{name}.json" if name in names() else None
