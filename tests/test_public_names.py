"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves a stale export behind fails here, whether the
package imports the name eagerly or resolves it in a lazy
``__getattr__`` (``repro``, ``repro.fptree``).
"""

import importlib
import pkgutil

import repro


def test_every_all_name_is_an_attribute_of_its_module():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 50
    assert stale == []
