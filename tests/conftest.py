from collections import Counter

import pytest

from systolica.halfplane import HGeodesic, HPoint


@pytest.fixture
def built(monkeypatch):
    """Counts of the HGeodesic and HPoint objects their constructors make."""
    counts = Counter()

    def counted(name, make):
        def wrapper(*args):
            counts[name] += 1
            return make(*args)
        return wrapper

    for cls in (HGeodesic, HPoint):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    return counts
