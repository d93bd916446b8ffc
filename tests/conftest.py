import pytest

from gefp_lab import gefp


@pytest.fixture(autouse=True, scope="module")
def cold_workspaces():
    """Start every test module with empty workspace caches, as a CLI call does."""
    gefp._workspace_cache.clear()
    gefp._jets_cache.clear()
