"""Cost, power, and fault-domain comparison of two fabric designs.

Fixed-port roles (spine, leaf) get ratio-discounted price and watts per
port; modular roles (core, distribution, access) pay the base figures.
Defaults encode the commonly cited fixed-port advantage: 75% lower price
per port and 75% fewer watts per port.
"""

from __future__ import annotations

from typing import Mapping

from . import _Record
from .topology import FABRIC_ROLES, Topology, affected_fraction


class CostAssumptions(_Record):
    """Base modular price/watts per port and the fixed-port discount ratios; read-only."""

    modular_price_per_port: float
    modular_watts_per_port: float
    fixed_price_ratio: float
    fixed_watts_ratio: float

    def __init__(
        self,
        modular_price_per_port: float = 1.0,
        modular_watts_per_port: float = 1.0,
        fixed_price_ratio: float = 0.25,
        fixed_watts_ratio: float = 0.25,
    ):
        if not modular_price_per_port > 0 or not modular_watts_per_port > 0:
            raise ValueError("base price and watts per port must be positive")
        for name, ratio in (("fixed_price_ratio", fixed_price_ratio), ("fixed_watts_ratio", fixed_watts_ratio)):
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {ratio}")
        self.__dict__.update(
            modular_price_per_port=modular_price_per_port,
            modular_watts_per_port=modular_watts_per_port,
            fixed_price_ratio=fixed_price_ratio,
            fixed_watts_ratio=fixed_watts_ratio,
        )

    def price_per_port(self, role: str) -> float:
        if role in FABRIC_ROLES:
            return self.modular_price_per_port * self.fixed_price_ratio
        return self.modular_price_per_port

    def watts_per_port(self, role: str) -> float:
        if role in FABRIC_ROLES:
            return self.modular_watts_per_port * self.fixed_watts_ratio
        return self.modular_watts_per_port


def _design_metrics(t: Topology, c: CostAssumptions, ports: Mapping[str, int]) -> dict[str, float]:
    if not t.devices:
        raise ValueError("a design needs at least one device to have a price or power per port")
    roles = {d.role for d in t.devices}
    missing = roles - set(ports)
    if missing:
        raise ValueError(f"no port count given for roles: {sorted(missing)}")

    total_ports = 0
    total_price = 0.0
    total_watts = 0.0
    for d in t.devices:
        n = int(ports[d.role])
        if n < 1:
            raise ValueError(f"port count for role {d.role!r} must be >= 1, got {n}")
        total_ports += n
        total_price += n * c.price_per_port(d.role)
        total_watts += n * c.watts_per_port(d.role)

    # failing any one member of a twin class cuts the same pairs, so one
    # device per class stands for all of them
    one_per_class = dict(zip(t.twin_quotient.device_class, t.devices)).values()
    worst = max(affected_fraction(t, {d.id}) for d in one_per_class)
    return {
        "total_ports": total_ports,
        "total_price": total_price,
        "total_watts": total_watts,
        "price_per_port": total_price / total_ports,
        "watts_per_port": total_watts / total_ports,
        "max_single_device_affected": worst,
    }


def compare_designs(
    a: Topology,
    b: Topology,
    c: CostAssumptions,
    ports_per_device: Mapping[str, int],
) -> dict[str, tuple[float, float, float | str]]:
    """Design a vs design b: ``{metric: (design_a, design_b, ratio_b_over_a)}``.

    The metrics, in order: total ports, total price, total watts, price and
    watts per port, and the worst single-device affected fraction as the
    fault-domain proxy.
    """
    metrics_a = _design_metrics(a, c, ports_per_device)
    metrics_b = _design_metrics(b, c, ports_per_device)
    compared = {}
    for name, va in metrics_a.items():
        vb = metrics_b[name]
        if va != 0:
            ratio = vb / va
        else:
            # reports hold finite numbers only, so an unbounded ratio is a label
            ratio = 1.0 if vb == 0 else "inf"
        compared[name] = (va, vb, ratio)
    return compared
