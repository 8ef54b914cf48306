"""Quantifies how fragmenting exposure to heavy-tailed errors reduces expected
harm under convex loss, and applies the model to data-center fabrics
(3-tier vs spine-leaf) via fault-domain simulation, growth curves, and cost
comparison.

Importing the package runs none of the analysis modules.  Each is bound as
``fragrisk.<module>`` with a lazy loader, so its code runs on the first
attribute access, and a command runs only the modules it uses.  Names are
imported from their module: ``from fragrisk.harm import HarmParams``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


class _Record:
    """Read-only record whose fields are its annotated class attributes.

    ``__init__`` stores them through ``self.__dict__``.  Records of one class
    are equal, and hash alike, when their field values are; a field left at
    its class default reads as that default.  The repr names every field's
    value.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(type(self).__annotations__, self._values()))
        return f"{type(self).__name__}({fields})"


def _register_lazily(shorts) -> None:
    """Put each ``fragrisk.<short>`` in ``sys.modules`` without running it (the ``importlib`` docs' recipe).

    Each is also bound as the package attribute ``<short>``, as an import binds a submodule.
    """
    for short in shorts:
        spec = importlib.util.find_spec(f"{__name__}.{short}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[short] = module


_register_lazily(("config", "costing", "growth", "harm", "pareto", "report", "topology", "verify"))

