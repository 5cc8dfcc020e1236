"""Lazy re-exports for a package ``__init__`` (PEP 562).

A package that re-exports its submodules' names eagerly makes every
process pay for every submodule: a simulated run that needs
:mod:`repro.obs.attribution` would also load the Perfetto exporter, and
one that needs :class:`~repro.config.LiveSpec` would load asyncio.
:func:`lazy_exports` gives a package a module-level ``__getattr__`` that
imports a submodule the first time one of its names is asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*.

    *table* maps each submodule (relative to *package*, e.g.
    ``".runner"``) to the names the package re-exports from it; an entry
    ``"name as alias"`` re-exports ``name`` under ``alias``. A name
    resolves to the very object its submodule defines, and is then kept
    in the package's namespace so the next lookup is an ordinary one.
    """
    sources: dict[str, tuple[str, str]] = {}
    for module, names in table.items():
        for entry in names:
            name, __, alias = entry.partition(" as ")
            sources[alias or name] = (module, name)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | sources.keys())

    return list(sources), __getattr__, __dir__
