import numpy as np
import pytest

from fragrisk.costing import CostAssumptions, compare_designs
from fragrisk.topology import build_spine_leaf, build_three_tier, inject_failures
from fragrisk.verify import affected_fraction_bfs, random_failed_set, random_topology

ALL_PORTS = {"core": 48, "distribution": 48, "access": 48, "spine": 48, "leaf": 48}


class TestCostAssumptions:
    def test_defaults(self):
        c = CostAssumptions()
        assert c.fixed_price_ratio == 0.25
        assert c.fixed_watts_ratio == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            CostAssumptions(modular_price_per_port=0.0)
        with pytest.raises(ValueError):
            CostAssumptions(fixed_price_ratio=0.0)
        with pytest.raises(ValueError):
            CostAssumptions(fixed_watts_ratio=1.5)

    def test_fixed_port_discount(self):
        c = CostAssumptions(modular_price_per_port=4.0, modular_watts_per_port=8.0)
        assert c.price_per_port("core") == 4.0
        assert c.price_per_port("spine") == 1.0
        assert c.watts_per_port("access") == 8.0
        assert c.watts_per_port("leaf") == 2.0


class TestCompareDesigns:
    def test_default_ratios_exact(self):
        compared = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        assert compared["price_per_port"][2] == 0.25
        assert compared["watts_per_port"][2] == 0.25

    def test_identical_designs_all_ratios_one(self):
        t = build_spine_leaf(2, 4, 1)
        compared = compare_designs(t, t, CostAssumptions(), ALL_PORTS)
        assert all(ratio == 1.0 for _, _, ratio in compared.values())

    def test_scale_invariance_of_ratios(self):
        a, b = build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1)
        small = compare_designs(a, b, CostAssumptions(modular_price_per_port=1.0), ALL_PORTS)
        big = compare_designs(a, b, CostAssumptions(modular_price_per_port=2.0), ALL_PORTS)
        assert big["total_price"][0] == 2.0 * small["total_price"][0]
        assert big["total_price"][1] == 2.0 * small["total_price"][1]
        assert big["price_per_port"][2] == small["price_per_port"][2]

    def test_missing_role_port_count_rejected(self):
        with pytest.raises(ValueError, match="port count"):
            compare_designs(
                build_three_tier(1, 1, 1, 1),
                build_spine_leaf(1, 1, 1),
                CostAssumptions(),
                {"spine": 48, "leaf": 48},
            )

    def test_fault_domain_column(self):
        compared = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        # worst single failure: a distribution strands 5 of 6 pairs in the
        # 3-tier build, a leaf strands 3 of 6 in the fabric
        assert compared["max_single_device_affected"][0] == pytest.approx(5 / 6)
        assert compared["max_single_device_affected"][1] == 0.5

    def test_fault_domain_matches_per_device_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_topology(rng, max_devices=30)
            b = inject_failures(a, random_failed_set(rng, a))
            compared = compare_designs(a, b, CostAssumptions(), ALL_PORTS)
            for worst_seen, t in zip(compared["max_single_device_affected"], (a, b)):
                worst = max((affected_fraction_bfs(t, {d.id}) for d in t.devices), default=0.0)
                assert worst_seen == worst

    def test_total_ports(self):
        compared = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        assert compared["total_ports"][:2] == (8 * 48, 6 * 48)
