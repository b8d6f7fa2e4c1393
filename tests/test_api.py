"""The public surface: tolerances are fixed values, never per-call options."""

import inspect

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
