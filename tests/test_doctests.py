"""The usage examples in the package's docstrings run as tests."""

import doctest
import importlib
import pkgutil

import magiccount

MODULES = ["magiccount"] + [
    info.name for info in pkgutil.iter_modules(magiccount.__path__, "magiccount.")
]


def test_docstring_examples_pass():
    failed = attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 4
