"""Every function ``perfbench/run.py --trace 1`` wraps exists in this checkout.

The tracer looks each (module, owner, attribute) of its ``TRACED`` table up
with ``getattr`` and stops on a missing one, so a rename in the library
would break the per-layer benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

import shiftcache

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_perfbench().TRACED


def test_library_is_this_checkout():
    assert Path(shiftcache.__file__).resolve().parent == ROOT / "src" / "shiftcache"


@pytest.mark.parametrize("module_name,owner_name,attr,span", TRACED,
                         ids=[site[-1] for site in TRACED])
def test_traced_site_resolves(module_name, owner_name, attr, span):
    module = getattr(shiftcache, module_name) if module_name else shiftcache
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(getattr(owner, attr))
