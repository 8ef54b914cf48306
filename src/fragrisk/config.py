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

from . import _Record

DEFAULT_SEED = 42

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def parse_float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated numbers, at least one; blank items are skipped.

    The one parser of number lists, for config values and command-line flags.
    """
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expects comma-separated numbers, got {raw!r}") from None
    if not values:
        raise ValueError(f"needs at least one value, got {raw!r}")
    return values


class ScenarioConfig(_Record):
    """All tunables for the CLI, with defaults reproducing the canonical scenario.

    The annotated class attributes are the one list of fields: each value is
    that field's default, and each annotation names its config-file parser
    (see ``KEY_SPECS``).  Fields are set by keyword; an instance holds only
    the values given to it and reads every other field from the class.
    """

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

    def __init__(self, **values):
        unknown = values.keys() - ScenarioConfig.__annotations__
        if unknown:
            raise TypeError(f"ScenarioConfig has no fields {sorted(unknown)}")
        self.__dict__.update(values)
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output.format must be csv or json, got {self.output_format!r}")
        if self.output_digits is not None and self.output_digits < 1:
            raise ValueError(f"output.digits must be >= 1, got {self.output_digits}")
        drop = self.report_core_drop_probability
        if drop is not None and not 0 <= drop <= 1:  # nan included
            raise ValueError(f"report.core_drop_probability must be in [0, 1], got {drop}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.topology_kind not in ("spine-leaf", "three-tier"):
            raise ValueError(f"unknown topology kind {self.topology_kind!r} (expected spine-leaf or three-tier)")

    def failure_probabilities(self) -> dict[str, float]:
        out = {}
        for name in ScenarioConfig.__annotations__:  # each failure_<role> field but failure_default, in field order
            role = name.removeprefix("failure_")
            if role not in (name, "default"):
                override = getattr(self, name)
                out[role] = self.failure_default if override is None else override
        return out

    def canonical_items(self) -> list[tuple[str, str]]:
        items = []
        for name in ScenarioConfig.__annotations__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            else:
                text = repr(value)
            items.append((_KEY_BY_FIELD[name], text))
        return sorted(items)

    def config_hash(self) -> str:
        # the interpreter's built-in SHA-256, as `random` takes its SHA-512, since importing hashlib loads OpenSSL
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # Python 3.10, 3.11
            except ImportError:
                from hashlib import sha256

        blob = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return sha256(blob.encode()).hexdigest()[:16]


_SECTIONS = ("harm", "pareto", "topology", "failure", "cost", "ports", "output", "report")
_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool, "tuple[float, ...]": parse_float_list}


def _config_key(field_name: str) -> str:
    """Config-file key of a field: ``<section>.<rest>`` for a section prefix."""
    if field_name == "fragments":
        return "fragments.count"
    section, _, rest = field_name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else field_name


# config-file key -> (field name, parser), one per ScenarioConfig field
KEY_SPECS: dict[str, tuple[str, object]] = {
    _config_key(name): (name, _PARSERS[kind.removesuffix(" | None")])
    for name, kind in ScenarioConfig.__annotations__.items()
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
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
            values.update(parse_config_text(fh.read()))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig(**values)
