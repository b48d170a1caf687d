"""Fixtures every test can use; ``feature_cache`` is on for all of them."""

import pytest

from efcilab import datagen


@pytest.fixture(autouse=True)
def feature_cache(tmp_path_factory, monkeypatch):
    """A fresh, empty feature cache per test: no test reads or writes the
    user's cache, and none can pass on an entry another test left."""
    root = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "efcilab" / "features-v1"


@pytest.fixture
def parse_calls(monkeypatch) -> list:
    """The path of every feature CSV parsed in this process from here on."""
    calls = []
    original = datagen._parse_features

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(datagen, "_parse_features", counting)
    return calls
