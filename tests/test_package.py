"""The package's public names."""

import tmeshdim


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from tmeshdim import *", namespace)
    assert len(set(tmeshdim.__all__)) == len(tmeshdim.__all__)
    for name in tmeshdim.__all__:
        assert namespace[name] is getattr(tmeshdim, name), name
