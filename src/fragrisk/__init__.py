"""Quantifies how fragmenting exposure to heavy-tailed errors reduces expected
harm under convex loss, and applies the model to data-center fabrics
(3-tier vs spine-leaf) via fault-domain simulation, growth curves, and cost
comparison.

Importing the package runs none of the analysis modules.  Each is registered
in ``sys.modules`` with a lazy loader, so its code runs on the first
attribute access, and a command runs only the modules it uses.  The public
names below resolve on first use through the module ``__getattr__``
(PEP 562).  ``fragrisk.harm`` is the harm *function*; the module of that
name is ``sys.modules["fragrisk.harm"]``.
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


# defining module -> its public names, in ``__all__`` order
_EXPORTS = {
    "harm": ("HarmParams", "FragmentWeights", "harm", "fragmented_harm", "jensen_gap", "survival_comparison"),
    "pareto": (
        "ParetoParams",
        "pareto_density",
        "pareto_quantile",
        "pareto_sample",
        "fragment_harm_density",
        "tail_mean",
        "mc_tail_mean",
        "degradation_ratio",
        "degradation_curve",
    ),
    "topology": (
        "Device",
        "Topology",
        "FailureModel",
        "build_three_tier",
        "build_spine_leaf",
        "hop_histogram",
        "inject_failures",
        "affected_fraction",
        "failure_harm_mc",
        "serialize_topology",
        "parse_topology",
    ),
    "growth": ("GrowthSpec", "erf_value", "capacity_at", "crossover"),
    "costing": ("CostAssumptions", "compare_designs"),
    "report": ("ScenarioReport",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("config", "costing", "growth", "harm", "pareto", "report", "topology", "verify")

__all__ = list(_HOME)


def _register_lazily(shorts) -> None:
    """Put each ``fragrisk.<short>`` in ``sys.modules`` without running it (the ``importlib`` docs' recipe).

    No package attribute is set, so ``fragrisk.harm`` stays the function.
    """
    for short in shorts:
        spec = importlib.util.find_spec(f"{__name__}.{short}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)


_register_lazily(_SUBMODULES)


def __getattr__(name: str):
    # a public name wins over a submodule of the same name (harm)
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    if name in _SUBMODULES:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
