"""The README's model-file examples are documents the loader accepts, and
its command lines are ones the command-line parser accepts."""

import json
import re
import shlex
from pathlib import Path

from mmarch.cli import build_parser
from mmarch.model import parse_model

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(section: str) -> str:
    """The README's text under the heading ``## <section>``."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _json_blocks(section: str) -> list:
    """The ```json blocks under the README heading ``## <section>``."""
    return [json.loads(block)
            for block in re.findall(r"```json\n(.*?)```", _section(section), re.S)]


def test_abridged_model_example_loads():
    (doc,) = _json_blocks("Model files")
    assert parse_model(doc).name == "threat-demo"


def test_external_predictor_snippet_is_a_predictors_item():
    (doc,) = _json_blocks("Model files")
    (snippet,) = _json_blocks("External predictors")
    doc["predictors"].append(snippet)
    assert parse_model(doc).predictors[-1].kind == "external"


def test_command_lines_parse():
    """Every ``mm-arch`` line of the "Command line" section, with backslash
    continuations joined and ``#`` comments stripped."""
    text = re.sub(r"\\[ \t]*\n", " ", _section("Command line"))
    commands = [shlex.split(line, comments=True) for line in text.splitlines()
                if line.startswith("mm-arch ")]
    assert len(commands) >= 6
    for words in commands:
        build_parser().parse_args(words[1:])
