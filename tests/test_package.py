import twowell
from twowell import bethe, fock, model, yangbaxter

MODULES = (bethe, fock, model, yangbaxter)


def test_package_exports_each_module_all():
    # each module's __all__ is the one list of its public names
    assert twowell.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(twowell.__all__)) == len(twowell.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twowell, name) is getattr(module, name), name
