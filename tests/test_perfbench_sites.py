"""The benchmark tracer's patch sites must all exist in the library.

``perfbench/tracer.py`` wraps library functions on the names their callers
look up, reading each one with ``owner.__dict__[attr]``. A renamed or removed
name breaks every traced benchmark run, so each site is resolved here the
same way, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patch_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_SITES


@pytest.mark.parametrize("name,module_name,path", _patch_sites())
def test_patch_site_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr]), f"{name}: {module_name}.{path} is not a function"
