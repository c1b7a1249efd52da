"""The examples in the package docstrings run as tests.

Tier-1 collects only ``tests/``, so the module doctests would otherwise
never run.
"""

import doctest
import importlib
import pkgutil

import siegelstrata

MODULES = [siegelstrata] + [importlib.import_module(f"siegelstrata.{name}")
                            for _, name, _ in pkgutil.iter_modules(siegelstrata.__path__)]


def test_module_doctests_pass():
    results = {module.__name__: doctest.testmod(module) for module in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) > 0
