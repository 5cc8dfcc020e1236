"""Sanity checks on the public API surface."""

import importlib
import sys

import pytest

import repro


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ exports missing {name}"


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.net",
        "repro.fd",
        "repro.stack",
        "repro.broadcast",
        "repro.consensus",
        "repro.abcast",
        "repro.flowcontrol",
        "repro.workload",
        "repro.metrics",
        "repro.analysis",
        "repro.experiments",
        "repro.obs",
    ],
)
def test_subpackages_import_and_export(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ exports missing {name}"


def test_quickstart_snippet_from_the_readme():
    from repro import RunConfig, StackConfig, StackKind, run_simulation

    config = RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MONOLITHIC),
        duration=0.3,
        warmup=0.1,
    )
    result = run_simulation(config, seed=1)
    assert result.metrics.throughput > 0


#: The packages whose ``__init__`` re-exports lazily (``repro._lazy``).
LAZY_PACKAGES = [
    "repro",
    "repro.experiments",
    "repro.nemesis",
    "repro.obs",
    "repro.live",
]


def defined_in_a_submodule(package: str, name: str, value: object) -> bool:
    """Whether *value* is the object some submodule of *package* binds to
    *name* (or to its own ``__name__``, for a re-export under an alias)."""
    names = {name, getattr(value, "__name__", name)}
    return any(
        getattr(module, each, None) is value
        for key, module in list(sys.modules.items())
        if key.startswith(package + ".")
        for each in names
    )


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_lazy_table_resolves_every_name_it_lists(package):
    mod = importlib.import_module(package)
    for name in mod.__all__:
        value = getattr(mod, name)
        if name != "__version__":
            assert defined_in_a_submodule(package, name, value), name
    star: dict = {}
    exec(f"from {package} import *", star)
    assert set(mod.__all__) <= star.keys()
    listed = dir(mod)
    assert set(mod.__all__) <= set(listed)
    assert [name for name in listed if not hasattr(mod, name)] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(mod, "no_such_name")
