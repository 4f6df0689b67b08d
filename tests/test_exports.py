"""Every exported name resolves and every demo imports, so a deletion that a
re-export or a demo still depends on fails the suite."""
import runpy
from pathlib import Path

import pytest

import hoci

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("module", [hoci], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    # the demos guard main() behind __main__, so this only runs their imports
    runpy.run_path(str(path), run_name="demo")
