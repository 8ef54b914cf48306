import numpy as np
import pytest

from fragrisk import CostAssumptions, build_spine_leaf, build_three_tier, compare_designs, inject_failures
from fragrisk.verify import affected_fraction_bfs, random_failed_set, random_topology

ALL_PORTS = {"core": 48, "distribution": 48, "access": 48, "spine": 48, "leaf": 48}


def metric_rows(report):
    return {row[0]: row for row in report.rows}


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
        report = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        rows = metric_rows(report)
        assert rows["price_per_port"][3] == 0.25
        assert rows["watts_per_port"][3] == 0.25

    def test_identical_designs_all_ratios_one(self):
        t = build_spine_leaf(2, 4, 1)
        report = compare_designs(t, t, CostAssumptions(), ALL_PORTS)
        assert all(row[3] == 1.0 for row in report.rows)

    def test_scale_invariance_of_ratios(self):
        a, b = build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1)
        small = compare_designs(a, b, CostAssumptions(modular_price_per_port=1.0), ALL_PORTS)
        big = compare_designs(a, b, CostAssumptions(modular_price_per_port=2.0), ALL_PORTS)
        rows_small, rows_big = metric_rows(small), metric_rows(big)
        assert rows_big["total_price"][1] == 2.0 * rows_small["total_price"][1]
        assert rows_big["total_price"][2] == 2.0 * rows_small["total_price"][2]
        assert rows_big["price_per_port"][3] == rows_small["price_per_port"][3]

    def test_missing_role_port_count_rejected(self):
        with pytest.raises(ValueError, match="port count"):
            compare_designs(
                build_three_tier(1, 1, 1, 1),
                build_spine_leaf(1, 1, 1),
                CostAssumptions(),
                {"spine": 48, "leaf": 48},
            )

    def test_fault_domain_column(self):
        report = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        rows = metric_rows(report)
        # worst single failure: a distribution strands 5 of 6 pairs in the
        # 3-tier build, a leaf strands 3 of 6 in the fabric
        assert rows["max_single_device_affected"][1] == pytest.approx(5 / 6)
        assert rows["max_single_device_affected"][2] == 0.5

    def test_fault_domain_matches_per_device_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_topology(rng, max_devices=30)
            b = inject_failures(a, random_failed_set(rng, a))
            rows = metric_rows(compare_designs(a, b, CostAssumptions(), ALL_PORTS))
            for col, t in ((1, a), (2, b)):
                worst = max((affected_fraction_bfs(t, {d.id}) for d in t.devices), default=0.0)
                assert rows["max_single_device_affected"][col] == worst

    def test_total_ports(self):
        report = compare_designs(
            build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ALL_PORTS
        )
        rows = metric_rows(report)
        assert rows["total_ports"][1] == 8 * 48
        assert rows["total_ports"][2] == 6 * 48
