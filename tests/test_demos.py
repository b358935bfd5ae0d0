"""The demos run to completion, and every public name resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sl3maass

SRC = Path(sl3maass.__file__).resolve().parent.parent
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

DEMOS = ["01_kbessel_backends.py", "02_whittaker_crosscheck.py",
         "03_fixed_d_cache.py", "04_maass_form.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMO_DIR / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


MODULES = ["sl3maass"] + [m.name for m in pkgutil.iter_modules(sl3maass.__path__, "sl3maass.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
