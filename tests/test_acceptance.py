"""Acceptance suite: one test per release criterion, each at its pinned
tolerance, printing one PASS line on success (pytest -s or -rA shows them).

Every analytic result is checked against an independent route: adaptive
quadrature, Monte Carlo with exact or sample standard errors, exhaustive
enumeration over failure patterns, or per-pair BFS.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from fragrisk.cli import main
from fragrisk.costing import CostAssumptions, compare_designs
from fragrisk.growth import crossover, erf_value, sigmoid_capacity
from fragrisk.harm import FragmentWeights, HarmParams, jensen_gap, survival_comparison
from fragrisk.pareto import (
    ParetoParams,
    degradation_curve,
    degradation_ratio,
    mc_tail_mean,
    pareto_sample,
    tail_mean,
)
from fragrisk.topology import (
    ROLES,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
)
from fragrisk.verify import (
    NORMALIZATION_ALPHAS,
    NORMALIZATION_BETAS,
    NORMALIZATION_FRAGMENTS,
    QUADRATURE_TOL,
    affected_fraction_bfs,
    density_normalization,
    erf_quadrature,
    exhaustive_failure_harm,
    histogram_l1_distance,
    random_failed_set,
    random_topology,
)

SEED = 42


def report(line: str) -> None:
    print(f"PASS: {line}")


def test_criterion_01_tail_mean_closed_form_vs_monte_carlo():
    """Closed-form truncated mean matches 10^6-trial MC within 2% for N in {1,2,5}."""
    p = ParetoParams(alpha=4.0, scale=1.0)
    h = HarmParams(k=1.0, beta=1.5)
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5):
        closed = tail_mean(p, h, n)
        estimate = mc_tail_mean(p, h, n, 10**6, seed=SEED)
        rel = abs(estimate - closed) / abs(closed)
        assert rel <= 0.02, f"N={n}: relative error {rel} > 2%"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    report(
        f"criterion 1 - tail mean closed form vs MC, worst rel err {worst:.2e} <= 2e-2, "
        f"{elapsed:.2f}s <= 10s"
    )


def test_criterion_02_density_normalization_and_histogram():
    """Corrected harm density integrates to 1 +- 1e-6; sampled histogram L1 <= 0.05."""
    combos = 0
    worst = 0.0
    for alpha, beta in itertools.product(NORMALIZATION_ALPHAS, NORMALIZATION_BETAS):
        if alpha < beta:
            continue
        combos += 1
        for n in NORMALIZATION_FRAGMENTS:
            total, error = density_normalization(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n)
            assert abs(total - 1.0) <= 1e-6, f"(alpha={alpha}, beta={beta}, N={n}): {total}"
            assert error <= QUADRATURE_TOL, f"(alpha={alpha}, beta={beta}, N={n}): error estimate {error}"
            worst = max(worst, abs(total - 1.0))
    assert combos == 9  # alpha >= beta rows of the 3x4 grid

    worst_l1 = 0.0
    for alpha, beta, n in ((2.0, 1.5, 1), (4.0, 1.5, 2), (4.0, 3.0, 5)):
        distance, error = histogram_l1_distance(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n)
        assert error <= QUADRATURE_TOL, f"(alpha={alpha}, beta={beta}, N={n}): error estimate {error}"
        assert distance <= 0.05, f"(alpha={alpha}, beta={beta}, N={n}): L1 {distance}"
        worst_l1 = max(worst_l1, distance)
    report(
        f"criterion 2 - density normalization over {combos} (alpha,beta) x 3 N values, "
        f"max |integral-1| {worst:.2e} <= 1e-6; histogram L1 {worst_l1:.3f} <= 0.05"
    )


def test_criterion_03_degradation_identity_and_curve():
    """K*M(KN)/M(N) equals the closed-form ratio to 1e-12; curve reproduces the
    decreasing shape with ratio(K=2) ~ 0.63 for beta=3/2, alpha=2."""
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha, beta in ((2.0, 1.5), (4.0, 1.5), (4.0, 3.0)):
            p, h = ParetoParams(alpha, 1.0), HarmParams(1.0, beta)
            for k in (2, 3, 4):
                for n in (1, 2):
                    via_means = k * tail_mean(p, h, k * n) / tail_mean(p, h, n)
                    direct = degradation_ratio(p, h, float(k), n)
                    rel = abs(via_means - direct) / abs(direct)
                    assert rel <= 1e-12, f"(alpha={alpha}, beta={beta}, K={k}, N={n}): {rel}"
                    worst = max(worst, rel)

        curve = degradation_curve(
            ParetoParams(2.0, 1.0), HarmParams(1.0, 1.5), [float(k) for k in range(1, 33)]
        )
    ratios = [r for _, r in curve]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), "curve not monotone decreasing"
    expected_at_two = 2.0 ** (2.0 * (1.0 / 1.5 - 1.0))
    assert abs(ratios[1] - expected_at_two) <= 1e-6
    assert ratios[1] == pytest.approx(0.63, abs=5e-3)
    report(
        f"criterion 3 - ratio identity worst rel {worst:.2e} <= 1e-12; curve monotone, "
        f"ratio(K=2)={ratios[1]:.6f} within 1e-6 of closed form"
    )


def test_criterion_04_jensen_property_suite():
    """1000 random draws per direction: gap >= -1e-12 for beta in [1,4] and
    gap <= 1e-12 for beta in (0,1), zero violations."""
    rng = np.random.default_rng(SEED)

    def draw(beta_low, beta_high):
        beta = rng.uniform(beta_low, beta_high)
        k = rng.uniform(1e-9, 10.0)
        size = int(rng.integers(1, 9))
        weights = FragmentWeights(tuple(rng.dirichlet(np.ones(size))))
        x = rng.uniform(1e-12, 100.0)
        return jensen_gap(HarmParams(k, beta), weights, x)

    convex = [draw(1.0, 4.0) for _ in range(1000)]
    assert sum(1 for g in convex if g < -1e-12) == 0
    concave = [draw(1e-9, 1.0) for _ in range(1000)]
    assert sum(1 for g in concave if g > 1e-12) == 0
    report(
        "criterion 4 - jensen gap: 1000/1000 draws nonnegative for beta >= 1 and "
        "1000/1000 nonpositive for beta < 1 (tol 1e-12)"
    )


def test_criterion_05_survival_comparison_desk_scale():
    """Closed-form mean surviving values lie within 3 sample standard errors of a
    paired 10^6-draw Monte Carlo, at alpha > 2 beta so each arm has finite variance."""
    trials = 10**6
    error_model = ParetoParams(alpha=4.0, scale=1.0)
    shares = (0.25, 0.75)
    centralized, decentralized = survival_comparison(
        HarmParams(k=1.0, beta=1.5), 10.0, FragmentWeights(shares), error_model
    )
    harm_draws = pareto_sample(error_model, trials, seed=SEED) ** 1.5
    arms = {
        "centralized": (centralized, 10.0 - harm_draws),
        "decentralized": (decentralized, 10.0 - harm_draws * sum(w**1.5 for w in shares)),
    }
    for name, (exact, draws) in arms.items():
        se = float(draws.std(ddof=1)) / math.sqrt(trials)
        assert abs(exact - float(draws.mean())) <= 3.0 * se, f"{name} {exact} not within 3*SE ({3 * se})"
    assert decentralized > centralized
    report(
        f"criterion 5 - survival means {centralized:.5f} and {decentralized:.5f} within 3*SE of "
        "a paired 10^6-draw Monte Carlo"
    )


def test_criterion_06_topology_oracle_equivalence():
    """affected_fraction matches per-pair BFS on 200 random topologies; MC harm
    matches exhaustive enumeration within 3 exact standard errors."""
    rng = np.random.default_rng(SEED)
    for case in range(200):
        t = random_topology(rng, max_devices=50)
        assert len(t.devices) <= 50
        failed = random_failed_set(rng, t)
        fast = affected_fraction(t, failed)
        brute = affected_fraction_bfs(t, failed)
        assert fast == brute, f"case {case}: {fast} != {brute}"

    h = HarmParams(1.0, 1.5)
    probs = dict.fromkeys(ROLES, 0.05)
    trials = 10**5
    details = []
    for label, topo in (
        ("spine-leaf(2,4,1)", build_spine_leaf(2, 4, 1)),
        ("three-tier(2,2,2,1)", build_three_tier(2, 2, 2, 1)),
    ):
        exact_mean, exact_std = exhaustive_failure_harm(topo, probs, h)
        stats = failure_harm_mc(topo, probs, h, trials, seed=SEED)
        se = exact_std / math.sqrt(trials)
        assert abs(stats.expected_harm - exact_mean) <= 3.0 * se, label
        details.append(f"{label} |mc-exact|={abs(stats.expected_harm - exact_mean):.2e}<=3*SE={3 * se:.2e}")
    report("criterion 6 - 200/200 BFS oracle matches; " + "; ".join(details))


def test_criterion_07_hop_and_fault_claims():
    """Spine-leaf inter-leaf pairs at exactly 2 hops; 3-tier cross-distribution
    at 4; spine loss harmless; dual-core loss cuts every cross-distribution pair."""
    fabric = build_spine_leaf(2, 4, 1)
    assert hop_histogram(fabric) == {2: 6}

    tiered = build_three_tier(2, 2, 2, 1)
    hist = hop_histogram(tiered)
    assert hist[4] == 4  # all cross-distribution pairs
    assert hist[2] == 2  # same-distribution pairs

    assert affected_fraction(fabric, {"spine0"}) == 0.0
    assert affected_fraction(fabric, {"spine1"}) == 0.0

    # exactly the 4 cross-distribution pairs disconnect
    assert affected_fraction(tiered, {"core0", "core1"}) == 4 / 6
    report(
        "criterion 7 - spine-leaf pairs all at 2 hops, cross-distribution pairs at 4, "
        "single-spine failure affects 0, dual-core failure cuts all 4 cross pairs"
    )


def test_criterion_08_erf_accuracy_and_growth():
    """erf within 1e-7 relative of a quadrature oracle on 1000 points; sigmoid
    bounded on 10^4 inputs; crossover of (sat=100, ports=1) inside [99, 101]."""
    worst = 0.0
    for x in np.linspace(-6.0, 6.0, 1000):
        reference, error = erf_quadrature(float(x))
        assert error <= QUADRATURE_TOL, f"x={x}: error estimate {error}"
        value = erf_value(float(x))
        if reference == 0.0:
            assert value == 0.0
            continue
        rel = abs(value - reference) / abs(reference)
        assert rel <= 1e-7, f"x={x}: rel err {rel}"
        worst = max(worst, rel)

    rng = np.random.default_rng(SEED)
    for units in rng.uniform(0.0, 200.0, 10**4):
        assert sigmoid_capacity(100.0, float(units)) <= 100.0

    bracket = crossover(100.0, 1)
    assert 99.0 <= bracket <= 101.0
    report(
        f"criterion 8 - erf worst rel err {worst:.2e} <= 1e-7 on 1000 points; sigmoid bounded "
        f"on 1e4 inputs; crossover {bracket:.3f} in [99, 101]"
    )


def test_criterion_09_costing_default_ratios():
    """Default assumptions give exactly 0.25 price/port and watts/port ratios."""
    ports = {role: 48 for role in ("core", "distribution", "access", "spine", "leaf")}
    compared = compare_designs(
        build_three_tier(2, 2, 2, 1), build_spine_leaf(2, 4, 1), CostAssumptions(), ports
    )
    assert compared["price_per_port"][2] == 0.25
    assert compared["watts_per_port"][2] == 0.25
    report("criterion 9 - price/port ratio == 0.25 and watts/port ratio == 0.25 exactly")


def test_criterion_10_cli_determinism_and_verify(tmp_path, capsys):
    """Every subcommand is byte-deterministic under a fixed seed; verify exits 0."""
    topo_path = tmp_path / "fabric.txt"
    assert main(
        ["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "4",
         "--hosts-per-leaf", "2", "--out", str(topo_path)]
    ) == 0

    invocations = {
        "harm-curve": ["harm-curve", "--points", "11"],
        "jensen": ["jensen", "--k", "1", "--beta", "2", "--weights", "0.5,0.5", "--alpha", "4",
                   "--trials", "2000", "--seed", "42"],
        "risk-density": ["risk", "density", "--alpha", "4", "--beta", "1.5", "--fragments", "2",
                         "--points", "20"],
        "risk-tail-mean": ["risk", "tail-mean", "--alpha", "4", "--beta", "1.5", "--fragments", "2",
                           "--trials", "2000", "--seed", "42"],
        "risk-ratio": ["risk", "ratio", "--alpha", "4", "--beta", "1.5", "--K", "2"],
        "risk-curve": ["risk", "curve", "--alpha", "4", "--beta", "1.5"],
        "topo-build": ["topo", "build", "--kind", "three-tier", "--cores", "2",
                       "--distributions", "2", "--access-per-distribution", "2",
                       "--hosts-per-access", "1"],
        "topo-hops": ["topo", "hops", "--topology", str(topo_path)],
        "topo-fail": ["topo", "fail", "--topology", str(topo_path), "--fail", "leaf0"],
        "topo-harm": ["topo", "harm", "--topology", str(topo_path), "--p", "0.05", "--k", "1",
                      "--beta", "1.5", "--trials", "2000", "--seed", "42"],
        "growth": ["growth", "--points", "11"],
        "compare": ["compare"],
    }
    for name, args in invocations.items():
        outputs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}-{run_idx}.out"
            code = main(args + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output not byte-deterministic"

    capsys.readouterr()
    verify_code = main(["verify"])
    out = capsys.readouterr().out
    assert verify_code == 0, f"verify failed:\n{out}"
    assert "FAIL" not in out
    report(f"criterion 10 - {len(invocations)} subcommands byte-deterministic; verify exit 0")
