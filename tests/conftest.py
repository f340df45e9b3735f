import random

import pytest

from cryptocubic.backend import get_backend
from cryptocubic.store import DestructiveStore


@pytest.fixture(params=["symbolic", "concrete"])
def backend(request):
    return get_backend(request.param)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def opened_stores(monkeypatch):
    """Every store the test opens; each is closed, with its journal, after the test."""
    stores, init = [], DestructiveStore.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(self)

    monkeypatch.setattr(DestructiveStore, "__init__", recording)
    yield stores
    for store in stores:
        store.close()
