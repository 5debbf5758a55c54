"""Package metadata."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import bipcore


def test_version_matches_pyproject():
    # a regex, not tomllib, which needs Python 3.11 (the declared floor is 3.10)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"\s*$', text, re.MULTILINE)
    assert match is not None
    assert bipcore.__version__ == match.group(1)


def test_every_exported_name_is_bound():
    missing = [name for name in bipcore.__all__ if not hasattr(bipcore, name)]
    assert missing == []
    assert len(set(bipcore.__all__)) == len(bipcore.__all__)


def test_every_imported_name_is_exported():
    # the names bipcore/__init__.py binds from its submodules, read off the
    # source, so a name imported but left out of __all__ shows here
    tree = ast.parse(Path(bipcore.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported - set(bipcore.__all__) == set()


@pytest.mark.parametrize(
    "name", ["Cluster", "ClusterEngine", "enumerate_clusters", "PolymerSystem", "in_region"]
)
def test_reference_routes_and_aliases_are_not_exported(name):
    assert name not in bipcore.__all__
    assert not hasattr(bipcore, name)


def test_reference_routes_resolve_in_their_modules():
    from bipcore.clusters import ClusterEngine, enumerate_clusters
    from bipcore.polymers import PolymerSystem

    assert callable(ClusterEngine) and callable(enumerate_clusters) and callable(PolymerSystem)
