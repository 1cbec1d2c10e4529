import sys

import temporeach


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from temporeach import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(temporeach.__all__)
    assert len(set(temporeach.__all__)) == len(temporeach.__all__)


def test_each_name_comes_from_its_defining_module():
    for name in temporeach.__all__:
        obj = getattr(temporeach, name)
        module = obj.__module__
        assert module.startswith("temporeach."), (name, module)
        assert getattr(sys.modules[module], name) is obj, (name, module)
