"""The package's public names: each one in ``formukit.__all__`` is listed once
and resolves to an attribute of the package, loading its submodule lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import formukit


def test_all_names_resolve_once():
    names = formukit.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(formukit, n)] == []


def test_names_are_their_submodules_values():
    namespace = {}
    exec("from formukit import *", namespace)
    for name in formukit.__all__:
        module = importlib.import_module(f"formukit.{formukit._MODULE_OF[name]}")
        assert getattr(formukit, name) is namespace[name] is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        formukit.no_such_name
    assert not hasattr(formukit, "__wrapped__")


def test_dir_lists_the_public_names():
    assert set(formukit.__all__) <= set(dir(formukit))
    assert "__version__" in dir(formukit)


def test_bare_import_loads_no_submodule():
    # In a fresh interpreter: the import loads nothing, a submodule still
    # resolves as an attribute, and a name loads only its own module.
    code = ("import json, sys, formukit\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('formukit.'))\n"
            "steps = [loaded()]\n"
            "formukit.DissolutionProfile\n"
            "steps.append(loaded())\n"
            "steps.append(formukit.dissolution.__name__)\n"
            "print(json.dumps(steps))")
    src = str(Path(formukit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert json.loads(out.stdout) == [[], ["formukit.errors", "formukit.types"],
                                      "formukit.dissolution"]
