"""The package's public namespace."""

import stefan3


def test_every_public_name_resolves():
    missing = [name for name in stefan3.__all__ if not hasattr(stefan3, name)]
    assert missing == []
    assert len(set(stefan3.__all__)) == len(stefan3.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stefan3 import *", namespace)
    assert set(stefan3.__all__) <= set(namespace)
