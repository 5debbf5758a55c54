"""Package metadata."""

from __future__ import annotations

import tomllib
from pathlib import Path

import bipcore


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert bipcore.__version__ == tomllib.load(f)["project"]["version"]
