"""The public surface: tolerances are fixed values, never per-call options,
and the runtime needs numpy alone."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import modaldyn

REMOVED = {"tol", "overlap_threshold", "sample"}


def _public_callables():
    """Functions, classes and methods reachable from the package root.

    ``modaldyn.config`` is left out: its record's fields are the fixed
    values themselves, not options of a call.
    """
    modules = [modaldyn] + [m for m in vars(modaldyn).values()
                            if inspect.ismodule(m) and m.__name__.startswith("modaldyn.")
                            and m.__name__ != "modaldyn.config"]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith(
                    "modaldyn"):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_per_call_tolerance_or_test_only_switch():
    found = sorted(f"{where}({param})" for where, fn in _public_callables()
                   for param in inspect.signature(fn).parameters if param in REMOVED)
    assert found == []


def test_tolerance_record_not_exported_from_root():
    assert not hasattr(modaldyn, "Tolerances")
    assert not hasattr(modaldyn, "DEFAULT")


NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from modaldyn import load_scenario, run
result = run(load_scenario("easyexample"), n_paths=200, report_only=True)
assert len(result.paths) == 200
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""


def test_runs_without_scipy():
    src = str(Path(modaldyn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
