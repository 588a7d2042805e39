"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that re-exports names from its modules would otherwise import
every one of them as soon as any of its modules is imported, so loading
the reasoner would also load the evaluation harness, the enumerators
and the service stack.  :func:`lazy_exports` gives a package a module
``__getattr__`` that imports the defining module of a name on its first
access, a ``__dir__`` that lists every re-exported name, and the
package's ``__all__``.
"""

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, namespace: Dict, modules: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``modules`` maps a relative module name (``".reasoner4"``) to the
    names the package re-exports from it, in ``__all__`` order; a module
    listed with its own name (``".dl": ("dl",)``) is re-exported itself.
    A resolved name is stored in ``namespace`` (the package's
    ``globals()``), so each name is looked up once.
    """
    where = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
