import symbed


def test_export_list_resolves():
    """Every name in __all__ exists on the package, once, and a star import
    (which raises on a name the package lacks) binds them all."""
    assert len(symbed.__all__) == len(set(symbed.__all__))
    assert [name for name in symbed.__all__ if not hasattr(symbed, name)] == []
    namespace: dict = {}
    exec("from symbed import *", namespace)
    assert set(symbed.__all__) <= namespace.keys()
