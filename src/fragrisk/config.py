"""Scenario configuration: flat key-value files with dotted section keys.

Grammar (one assignment per line)::

    # comment
    harm.k = 1.0
    topology.kind = spine-leaf
    seed = 42

Unknown keys are rejected.  Command-line flags override file values, and
every key has a default, so a config file is never required.  The resolved
configuration hashes deterministically (sha256 of the canonical key=value
listing), and that hash is stamped into every report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

DEFAULT_SEED = 42

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


@dataclass
class ScenarioConfig:
    """All tunables for the CLI, with defaults reproducing the canonical scenario."""

    harm_k: float = 1.0
    harm_beta: float = 1.5
    harm_weights: tuple[float, ...] = (0.5, 0.5)
    pareto_alpha: float = 2.0
    pareto_scale: float = 1.0
    fragments: int = 1
    unit_value: float = 10.0
    error_x: float = 1.0

    topology_kind: str = "spine-leaf"
    topology_spines: int = 2
    topology_leaves: int = 4
    topology_hosts_per_leaf: int = 1
    topology_cores: int = 2
    topology_distributions: int = 2
    topology_access_per_distribution: int = 2
    topology_hosts_per_access: int = 1
    topology_dual_homed: bool = False

    failure_default: float = 0.05
    failure_core: float | None = None
    failure_distribution: float | None = None
    failure_access: float | None = None
    failure_spine: float | None = None
    failure_leaf: float | None = None

    cost_modular_price_per_port: float = 1.0
    cost_modular_watts_per_port: float = 1.0
    cost_fixed_price_ratio: float = 0.25
    cost_fixed_watts_ratio: float = 0.25
    ports_core: int = 48
    ports_distribution: int = 48
    ports_access: int = 48
    ports_spine: int = 48
    ports_leaf: int = 48

    trials: int = 100_000
    seed: int = DEFAULT_SEED
    output_format: str = "csv"
    output_digits: int | None = None
    report_core_drop_probability: float | None = None

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output.format must be csv or json, got {self.output_format!r}")
        if self.output_digits is not None and self.output_digits < 1:
            raise ValueError(f"output.digits must be >= 1, got {self.output_digits}")

    def failure_probabilities(self) -> dict[str, float]:
        out = {}
        for role in ("core", "distribution", "access", "spine", "leaf"):
            override = getattr(self, f"failure_{role}")
            out[role] = self.failure_default if override is None else override
        return out

    def canonical_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            else:
                text = repr(value)
            items.append((_KEY_BY_FIELD[f.name], text))
        return sorted(items)

    def config_hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# config-file key -> (field name, parser)
KEY_SPECS: dict[str, tuple[str, object]] = {
    "harm.k": ("harm_k", float),
    "harm.beta": ("harm_beta", float),
    "harm.weights": ("harm_weights", _parse_floats),
    "pareto.alpha": ("pareto_alpha", float),
    "pareto.scale": ("pareto_scale", float),
    "fragments.count": ("fragments", int),
    "unit_value": ("unit_value", float),
    "error_x": ("error_x", float),
    "topology.kind": ("topology_kind", str),
    "topology.spines": ("topology_spines", int),
    "topology.leaves": ("topology_leaves", int),
    "topology.hosts_per_leaf": ("topology_hosts_per_leaf", int),
    "topology.cores": ("topology_cores", int),
    "topology.distributions": ("topology_distributions", int),
    "topology.access_per_distribution": ("topology_access_per_distribution", int),
    "topology.hosts_per_access": ("topology_hosts_per_access", int),
    "topology.dual_homed": ("topology_dual_homed", _parse_bool),
    "failure.default": ("failure_default", float),
    "failure.core": ("failure_core", float),
    "failure.distribution": ("failure_distribution", float),
    "failure.access": ("failure_access", float),
    "failure.spine": ("failure_spine", float),
    "failure.leaf": ("failure_leaf", float),
    "cost.modular_price_per_port": ("cost_modular_price_per_port", float),
    "cost.modular_watts_per_port": ("cost_modular_watts_per_port", float),
    "cost.fixed_price_ratio": ("cost_fixed_price_ratio", float),
    "cost.fixed_watts_ratio": ("cost_fixed_watts_ratio", float),
    "ports.core": ("ports_core", int),
    "ports.distribution": ("ports_distribution", int),
    "ports.access": ("ports_access", int),
    "ports.spine": ("ports_spine", int),
    "ports.leaf": ("ports_leaf", int),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "output.format": ("output_format", str),
    "output.digits": ("output_digits", int),
    "report.core_drop_probability": ("report_core_drop_probability", float),
}

_KEY_BY_FIELD = {field_name: key for key, (field_name, _) in KEY_SPECS.items()}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse config text into {field name: typed value}; rejects unknown keys."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_SPECS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        field_name, parser = KEY_SPECS[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(path: str | None, overrides: dict[str, object] | None = None) -> ScenarioConfig:
    """Config from defaults, then file (if given), then non-None overrides."""
    values: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig(**values)
