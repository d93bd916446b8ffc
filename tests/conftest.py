import pytest

from gefp_lab import gefp, oracle


@pytest.fixture(autouse=True, scope="module")
def cold_workspaces():
    """Start every test module with empty workspace caches, point records
    and oracle memo, as a CLI call does."""
    gefp._workspace_cache.clear()
    gefp._point_records.clear()
    gefp._jets_cache.clear()
    gefp._physical_points.clear()
    oracle._point_keys.clear()
    oracle._sweeps.clear()
    oracle._prefixes.clear()


@pytest.fixture
def cold_oracle(monkeypatch):
    """Empty oracle memos for one test, the point keys, the sweeps and the
    top-row prefixes, so a patched ``oracle._row`` runs on cold entries and
    leaves none behind."""
    monkeypatch.setattr(oracle, "_point_keys", {})
    monkeypatch.setattr(oracle, "_sweeps", {})
    monkeypatch.setattr(oracle, "_prefixes", {})
