from collections import Counter

import pytest

import reference
from systolica import halfplane, polygons
from systolica.halfplane import HGeodesic, HIsometry, HPoint


@pytest.fixture
def built(monkeypatch):
    """Counts of the HIsometry, HGeodesic and HPoint objects made, by
    their constructors or, for an HIsometry, by ``halfplane._frame``."""
    counts = Counter()

    def counted(name, make):
        def wrapper(*args):
            counts[name] += 1
            return make(*args)
        return wrapper

    for cls in (HIsometry, HGeodesic, HPoint):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    frame = counted("HIsometry", halfplane._frame)
    for module in (polygons, reference):
        monkeypatch.setattr(module, "_frame", frame)
    return counts
