import importlib
import re
from pathlib import Path

import pytest

MODULES = ("classical", "cli", "numkit", "quantum", "recovery", "suites")


@pytest.mark.parametrize("name", ["alphadiv"] + [f"alphadiv.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names undefined attributes: {missing}"


def test_readme_library_block_runs():
    # the README's one python block is its Library section; a renamed or
    # deleted public name fails it here instead of leaving the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], "README.md", "exec"), {})
