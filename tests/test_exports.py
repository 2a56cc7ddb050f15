"""The public names: each one resolves, and each has one exporting module.

A deletion that leaves its name in an `__all__` fails here, and so does a
module that re-exports another module's name.
"""

import importlib
import pkgutil

import fedsln

MODULES = [
    importlib.import_module(f"fedsln.{info.name}")
    for info in pkgutil.iter_modules(fedsln.__path__)
]


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in (fedsln, *MODULES)
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_no_name_is_exported_by_two_modules():
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
