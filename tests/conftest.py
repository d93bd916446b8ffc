import pytest

from gefp_lab import gefp, oracle


@pytest.fixture(autouse=True, scope="module")
def cold_workspaces():
    """Start every test module with empty workspace caches and oracle memo,
    as a CLI call does."""
    gefp._workspace_cache.clear()
    gefp._jets_cache.clear()
    gefp._physical_points.clear()
    oracle._sweeps.clear()


@pytest.fixture
def cold_oracle(monkeypatch):
    """An empty oracle memo for one test, so a patched ``oracle._row`` runs
    on cold entries and leaves none behind."""
    monkeypatch.setattr(oracle, "_sweeps", {})
