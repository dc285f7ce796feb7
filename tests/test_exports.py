import importlib

import pytest

MODULES = ("classical", "cli", "numkit", "quantum", "recovery", "suites")


@pytest.mark.parametrize("name", ["alphadiv"] + [f"alphadiv.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names undefined attributes: {missing}"
