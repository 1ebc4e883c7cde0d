"""The package's export list names only what the package defines."""

import catb2


def test_every_export_resolves():
    missing = [name for name in catb2.__all__ if not hasattr(catb2, name)]
    assert missing == []
    assert len(set(catb2.__all__)) == len(catb2.__all__)
    namespace: dict = {}
    exec("from catb2 import *", namespace)
    assert set(catb2.__all__) <= set(namespace)
