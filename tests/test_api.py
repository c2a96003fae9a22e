import matpolyeq


def test_star_import_exports_every_public_name():
    names = matpolyeq.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from matpolyeq import *", namespace)
    assert [name for name in names if name not in namespace] == []
