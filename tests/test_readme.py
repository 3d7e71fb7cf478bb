"""README examples that must not drift from what the code does."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
GOLDEN = ROOT / "tests" / "data" / "golden_query.txt"


def fenced_block(heading, language):
    """The first ```language block in the README section under ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.M | re.S)
    return next(body for lang, body in blocks if lang == language)


def test_cli_output_block_is_the_golden_file():
    assert fenced_block("## CLI", "").encode("utf-8") == GOLDEN.read_bytes()


def test_measuring_laziness_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Measuring laziness", "python"), {})
    assert out.getvalue() == "ok or: 27 checks, 0 violations\n"
