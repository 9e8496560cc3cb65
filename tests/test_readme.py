"""The README's model-file examples are documents the loader accepts."""

import json
import re
from pathlib import Path

from mmarch.model import parse_model

README = Path(__file__).resolve().parents[1] / "README.md"


def _json_blocks(section: str) -> list:
    """The ```json blocks under the README heading ``## <section>``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", body, re.S)]


def test_abridged_model_example_loads():
    (doc,) = _json_blocks("Model files")
    assert parse_model(doc).name == "threat-demo"


def test_external_predictor_snippet_is_a_predictors_item():
    (doc,) = _json_blocks("Model files")
    (snippet,) = _json_blocks("External predictors")
    doc["predictors"].append(snippet)
    assert parse_model(doc).predictors[-1].kind == "external"
