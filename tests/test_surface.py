"""The package's public names are the ones README's "Library entry points"
section documents: nothing exported goes undocumented, and the section's
import block imports nothing the package does not export."""

import re
from pathlib import Path

import twostroke

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"```.*?```", re.S)


def entry_points_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library entry points")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_export_is_documented_and_every_documented_import_is_exported():
    section = entry_points_section()
    block = FENCE.search(section).group()
    imported = set(re.search(r"from twostroke import \((.*?)\)", block, re.S).group(1)
                   .replace(",", " ").split())
    prose = FENCE.sub("", section)
    spans = {re.match(r"\w*", span).group() for span in re.findall(r"`([^`\n]+)`", prose)}
    exported = set(twostroke.__all__)
    assert sorted(exported - spans) == []
    assert sorted(imported - exported) == []
