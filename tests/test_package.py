"""Package metadata."""

from __future__ import annotations

import re
from pathlib import Path

import bipcore


def test_version_matches_pyproject():
    # a regex, not tomllib, which needs Python 3.11 (the declared floor is 3.10)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"\s*$', text, re.MULTILINE)
    assert match is not None
    assert bipcore.__version__ == match.group(1)
