"""Analytic-vs-oracle checks behind the ``verify`` subcommand.

Every closed form in the package is re-derived here by an independent route:
adaptive quadrature for densities and the error function, Monte Carlo and
exhaustive enumeration for expectations, per-pair breadth-first search for
connectivity and hop counts.  Each check reports pass/fail against its pinned
tolerance.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import deque
from dataclasses import dataclass

from .costing import CostAssumptions, compare_designs
from .growth import GrowthSpec, capacity_at, crossover, erf_value
from .harm import FragmentWeights, HarmParams, harm, jensen_gap, survival_comparison
from .pareto import (
    ParetoParams,
    degradation_curve,
    degradation_ratio,
    fragment_harm_density,
    harm_quantile,
    mc_tail_mean,
    pareto_sample,
    tail_mean,
)
from .topology import (
    UNREACHABLE,
    FailureModel,
    Topology,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
    inject_failures,
)

VERIFY_SEED = 42

# (alpha, beta) pairs of the density normalization grid with alpha >= beta,
# crossed with these fragment counts.
NORMALIZATION_ALPHAS = (1.5, 2.0, 4.0)
NORMALIZATION_BETAS = (1.0, 1.5, 2.0, 3.0)
NORMALIZATION_FRAGMENTS = (1, 2, 5)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def erf_quadrature(x: float) -> float:
    """erf via adaptive quadrature of its defining integral, ~1e-13 accurate."""
    from scipy import integrate  # on demand: only quadrature oracles need SciPy

    if x == 0.0:
        return 0.0
    value, _ = integrate.quad(lambda t: math.exp(-t * t), 0.0, abs(x), epsabs=1e-14, epsrel=1e-13)
    return math.copysign(2.0 / math.sqrt(math.pi) * value, x)


def density_normalization(p: ParetoParams, h: HarmParams, fragments: int) -> float:
    """Integral of the fragment harm density over its support by quadrature."""
    from scipy import integrate

    bound = -(h.k * (p.scale / fragments) ** h.beta)
    value, _ = integrate.quad(
        lambda xi: fragment_harm_density(p, h, fragments, xi),
        -math.inf,
        bound,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return value


def histogram_l1_distance(
    p: ParetoParams, h: HarmParams, fragments: int, samples: int, bins: int, seed: int
) -> float:
    """L1 distance between sampled harm frequencies and quadrature bin masses.

    Bins are equal-probability under the analytic law; each bin's mass is
    integrated from the density rather than assumed, so the check ties the
    sampler, the CDF, and the density together.
    """
    import numpy as np
    from scipy import integrate

    x = pareto_sample(p, samples, seed)
    xi = -(h.k * (x / fragments) ** h.beta)

    edges = [-np.inf]
    for i in range(1, bins):
        edges.append(harm_quantile(p, h, fragments, i / bins))
    edges.append(-(h.k * (p.scale / fragments) ** h.beta))

    distance = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mass, _ = integrate.quad(
            lambda v: fragment_harm_density(p, h, fragments, v), lo, hi, epsabs=1e-10, epsrel=1e-10
        )
        freq = float(np.mean((xi > lo) & (xi <= hi)))
        distance += abs(freq - mass)
    return distance


def bfs_distances(adj: dict[str, set[str]], source: str) -> dict[str, int]:
    """Hop count from ``source`` to every device it can reach."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def _adjacency(t: Topology, surviving: frozenset[str]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {d: set() for d in surviving}
    for a, b in t.links:
        if a in surviving and b in surviving:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def affected_fraction_bfs(t: Topology, failed: set[str]) -> float:
    """Brute-force affected fraction: BFS reachability checked pair by pair."""
    surviving = t.device_ids - set(failed)
    adj = _adjacency(t, surviving)
    reach = {dev: bfs_distances(adj, dev) for dev in surviving}

    attach = t.host_attachment
    hosts = t.all_host_ids
    total = 0
    disconnected = 0
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            total += 1
            a = attach.get(hosts[i])
            b = attach.get(hosts[j])
            if a is None or b is None or a not in surviving or b not in surviving:
                disconnected += 1
            elif b not in reach[a]:
                disconnected += 1
    return disconnected / total if total else 0.0


def hop_histogram_bfs(t: Topology) -> dict[int, int]:
    """Brute-force hop histogram: BFS distances looked up pair by pair."""
    adj = _adjacency(t, t.device_ids)
    attach = t.host_attachment
    dist_from = {dev: bfs_distances(adj, dev) for dev in set(attach.values())}

    histogram: dict[int, int] = {}
    hosts = t.all_host_ids
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            a = attach.get(hosts[i])
            b = attach.get(hosts[j])
            if a is None or b is None:
                hops = UNREACHABLE
            else:
                hops = dist_from[a].get(b, UNREACHABLE)
            histogram[hops] = histogram.get(hops, 0) + 1
    return histogram


def exhaustive_failure_harm(
    t: Topology, fm: FailureModel, h: HarmParams
) -> tuple[float, float]:
    """Exact (mean, std) of harm over all 2^n device failure patterns."""
    ids = [d.id for d in t.devices]
    probs = [fm.probability(d.role) for d in t.devices]
    mean = 0.0
    second = 0.0
    for bits in itertools.product((False, True), repeat=len(ids)):
        weight = 1.0
        failed = set()
        for on, dev, p in zip(bits, ids, probs):
            weight *= p if on else 1.0 - p
            if on:
                failed.add(dev)
        if weight == 0.0:
            continue
        value = harm(h, affected_fraction_bfs(t, failed))
        mean += weight * value
        second += weight * value * value
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def random_topology(rng: np.random.Generator, max_devices: int = 50) -> Topology:
    """Random fabric of either form with up to ``max_devices`` devices."""
    if rng.random() < 0.5:
        spines = int(rng.integers(1, 9))
        leaves = int(rng.integers(1, max(2, min(31, max_devices - spines + 1))))
        return build_spine_leaf(spines, leaves, int(rng.integers(1, 3)))
    cores = int(rng.integers(1, 3))
    dists = int(rng.integers(1, 9))
    max_access = max(1, (max_devices - cores - dists) // dists)
    access = int(rng.integers(1, min(6, max_access + 1)))
    return build_three_tier(cores, dists, access, int(rng.integers(1, 3)), dual_homed=bool(rng.random() < 0.3))


def random_failed_set(rng: np.random.Generator, t: Topology) -> set[str]:
    ids = sorted(t.device_ids)
    mask = rng.random(len(ids)) < rng.uniform(0.0, 0.5)
    return {i for i, hit in zip(ids, mask) if hit}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_tail_mean_mc(trials: int = 10**6, seed: int = VERIFY_SEED) -> CheckResult:
    p = ParetoParams(alpha=4.0, scale=1.0)
    h = HarmParams(k=1.0, beta=1.5)
    start = time.perf_counter()
    worst = 0.0
    details = []
    for n in (1, 2, 5):
        closed = tail_mean(p, h, n)
        estimate = mc_tail_mean(p, h, n, trials, seed)
        rel = abs(estimate - closed) / abs(closed)
        worst = max(worst, rel)
        details.append(f"N={n} rel={rel:.2e}")
    elapsed = time.perf_counter() - start
    passed = worst <= 0.02 and elapsed <= 10.0
    return CheckResult(
        "tail-mean-closed-vs-mc",
        passed,
        f"{'; '.join(details)} (tol 2e-2, {elapsed:.2f}s <= 10s)",
    )


def check_density_normalization() -> CheckResult:
    worst = 0.0
    count = 0
    for alpha, beta in itertools.product(NORMALIZATION_ALPHAS, NORMALIZATION_BETAS):
        if alpha < beta:
            continue
        for n in NORMALIZATION_FRAGMENTS:
            total = density_normalization(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n)
            worst = max(worst, abs(total - 1.0))
            count += 1
    return CheckResult(
        "density-normalization",
        worst <= 1e-6,
        f"{count} (alpha, beta, N) combinations, max |integral - 1| = {worst:.2e} (tol 1e-6)",
    )


def check_density_histogram(seed: int = VERIFY_SEED) -> CheckResult:
    worst = 0.0
    for alpha, beta, n in ((2.0, 1.5, 1), (4.0, 1.5, 2), (4.0, 3.0, 5)):
        d = histogram_l1_distance(
            ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n, samples=10**5, bins=50, seed=seed
        )
        worst = max(worst, d)
    return CheckResult(
        "density-histogram-l1",
        worst <= 0.05,
        f"max L1 distance {worst:.4f} over 3 configurations (tol 0.05)",
    )


def check_degradation_identity() -> CheckResult:
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha, beta in ((2.0, 1.5), (4.0, 1.5), (4.0, 3.0)):
            p = ParetoParams(alpha, 1.0)
            h = HarmParams(1.0, beta)
            for k_mult in (2, 3, 4):
                for n in (1, 2):
                    via_means = k_mult * tail_mean(p, h, k_mult * n) / tail_mean(p, h, n)
                    direct = degradation_ratio(p, h, float(k_mult), n)
                    worst = max(worst, abs(via_means - direct) / abs(direct))
    return CheckResult(
        "degradation-ratio-identity",
        worst <= 1e-12,
        f"max relative gap {worst:.2e} over K in {{2,3,4}}, N in {{1,2}} (tol 1e-12)",
    )


def check_degradation_curve() -> CheckResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        multipliers = [float(k) for k in range(1, 33)]
        curve = degradation_curve(ParetoParams(2.0, 1.0), HarmParams(1.0, 1.5), multipliers)
    ratios = [r for _, r in curve]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    at_two = ratios[1]
    expected = 2.0 ** (2.0 * (1.0 / 1.5 - 1.0))
    gap = abs(at_two - expected)
    return CheckResult(
        "degradation-curve-shape",
        monotone and gap <= 1e-6,
        f"monotone={monotone}, ratio(K=2)={at_two:.6f} vs {expected:.6f} (tol 1e-6)",
    )


def check_jensen_directions(seed: int = VERIFY_SEED, draws: int = 1000) -> CheckResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    convex_violations = 0
    concave_violations = 0
    for _ in range(draws):
        beta = rng.uniform(1.0, 4.0)
        k = rng.uniform(1e-6, 10.0)
        size = int(rng.integers(1, 9))
        weights = FragmentWeights(tuple(rng.dirichlet(np.ones(size))))
        x = rng.uniform(1e-9, 100.0)
        if jensen_gap(HarmParams(k, beta), weights, x) < -1e-12:
            convex_violations += 1
    for _ in range(draws):
        beta = rng.uniform(1e-6, 1.0)
        k = rng.uniform(1e-6, 10.0)
        size = int(rng.integers(1, 9))
        weights = FragmentWeights(tuple(rng.dirichlet(np.ones(size))))
        x = rng.uniform(1e-9, 100.0)
        if jensen_gap(HarmParams(k, beta), weights, x) > 1e-12:
            concave_violations += 1
    passed = convex_violations == 0 and concave_violations == 0
    return CheckResult(
        "jensen-gap-directions",
        passed,
        f"{draws} draws each way: {convex_violations} violations for beta>=1, "
        f"{concave_violations} for beta<1 (tol 1e-12)",
    )


def check_survival_comparison(trials: int = 10**6, seed: int = VERIFY_SEED) -> CheckResult:
    p = ParetoParams(alpha=4.0, scale=1.0)
    h = HarmParams(k=1.0, beta=2.0)
    weights = FragmentWeights((0.5, 0.5))
    cen, dec = survival_comparison(h, 10.0, weights, p, trials, seed)
    gap = dec - cen

    # Same draws as the comparison: the paired difference is k*X^2/2 here.
    x = pareto_sample(p, trials, seed)
    diffs = 0.5 * x**2
    se = float(diffs.std(ddof=1)) / math.sqrt(trials)
    analytic = 0.5 * (p.alpha * p.scale**2 / (p.alpha - 2.0))
    passed = abs(gap - analytic) <= 3.0 * se

    h1 = HarmParams(k=1.0, beta=1.0)
    cen1, dec1 = survival_comparison(h1, 10.0, weights, p, trials, seed)
    linear_exact = cen1 == dec1
    return CheckResult(
        "survival-comparison-mc",
        passed and linear_exact,
        f"gap {gap:.5f} vs analytic {analytic} within 3*SE={3 * se:.5f}; "
        f"beta=1 arms bitwise equal: {linear_exact}",
    )


def check_pareto_sampler(trials: int = 10**6, seed: int = VERIFY_SEED) -> CheckResult:
    import numpy as np

    p = ParetoParams(alpha=2.0, scale=1.0)
    x = pareto_sample(p, trials, seed)
    mean = float(x.mean())
    se = float(x.std(ddof=1)) / math.sqrt(trials)
    mean_ok = abs(mean - 2.0) <= 3.0 * se and float(x.min()) >= p.scale

    p2 = ParetoParams(alpha=3.0, scale=2.0)
    y = pareto_sample(p2, trials, seed)
    frac = float(np.mean(y > 4.0))
    target = (p2.scale / 4.0) ** p2.alpha
    se2 = math.sqrt(target * (1.0 - target) / trials)
    tail_ok = abs(frac - target) <= 3.0 * se2
    return CheckResult(
        "pareto-sampler",
        mean_ok and tail_ok,
        f"mean {mean:.4f} vs 2 (3*SE={3 * se:.4f}); P(X>4) {frac:.5f} vs {target} "
        f"(3*SE={3 * se2:.5f}); min >= scale",
    )


def check_hop_claims() -> CheckResult:
    fabric = build_spine_leaf(2, 4, 1)
    hist = hop_histogram(fabric)
    spine_ok = hist == {2: 6}

    tiered = build_three_tier(2, 2, 2, 1)
    hist_t = hop_histogram(tiered)
    tier_ok = hist_t.get(4) == 4 and hist_t.get(2) == 2

    one_spine = affected_fraction(fabric, {"spine0"})
    both_cores = affected_fraction(tiered, {"core0", "core1"})
    spine_redundant = one_spine == 0.0
    cores_cut = both_cores == 4 / 6
    passed = spine_ok and tier_ok and spine_redundant and cores_cut
    return CheckResult(
        "hop-and-fault-claims",
        passed,
        f"spine-leaf hops {hist}, 3-tier hops {hist_t}, "
        f"one-spine affected {one_spine}, dual-core affected {both_cores:.4f}",
    )


def check_affected_fraction_oracle(
    cases: int = 200, seed: int = VERIFY_SEED, max_devices: int = 50
) -> CheckResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        t = random_topology(rng, max_devices)
        failed = random_failed_set(rng, t)
        fast = affected_fraction(t, failed)
        brute = affected_fraction_bfs(t, failed)
        worst = max(worst, abs(fast - brute))
    return CheckResult(
        "affected-fraction-vs-bfs",
        worst == 0.0,
        f"{cases} random topologies (<= {max_devices} devices), max |diff| = {worst}",
    )


def check_hop_histogram_oracle(
    cases: int = 100, seed: int = VERIFY_SEED, max_devices: int = 30
) -> CheckResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    mismatches = 0
    injected = 0
    for _ in range(cases):
        t = random_topology(rng, max_devices)
        if rng.random() < 0.5:
            t = inject_failures(t, random_failed_set(rng, t))
            injected += 1
        if hop_histogram(t) != hop_histogram_bfs(t):
            mismatches += 1
    return CheckResult(
        "hops-vs-bfs",
        mismatches == 0,
        f"{cases} random topologies (<= {max_devices} devices, {injected} with injected failures), "
        f"{mismatches} histograms differ",
    )


def check_failure_harm_enumeration(trials: int = 10**5, seed: int = VERIFY_SEED) -> CheckResult:
    h = HarmParams(k=1.0, beta=1.5)
    fm = FailureModel.uniform(0.05)
    details = []
    passed = True
    results = {}
    for label, topo in (
        ("spine-leaf(2,4,1)", build_spine_leaf(2, 4, 1)),
        ("three-tier(2,2,2,1)", build_three_tier(2, 2, 2, 1)),
    ):
        exact_mean, exact_std = exhaustive_failure_harm(topo, fm, h)
        stats = failure_harm_mc(topo, fm, h, trials, seed)
        se = exact_std / math.sqrt(trials)
        ok = abs(stats.expected_harm - exact_mean) <= 3.0 * se
        passed = passed and ok
        results[label] = exact_mean
        details.append(f"{label}: mc {stats.expected_harm:.5f} vs exact {exact_mean:.5f} (3*SE={3 * se:.5f})")
    smaller = abs(results["spine-leaf(2,4,1)"]) < abs(results["three-tier(2,2,2,1)"])
    passed = passed and smaller
    details.append(f"spine-leaf harm magnitude smaller: {smaller}")
    return CheckResult("failure-harm-vs-enumeration", passed, "; ".join(details))


def check_erf_accuracy(points: int = 1000) -> CheckResult:
    import numpy as np

    xs = np.linspace(-6.0, 6.0, points)
    worst = 0.0
    for x in xs:
        reference = erf_quadrature(float(x))
        if reference == 0.0:
            worst = max(worst, abs(erf_value(float(x))))
            continue
        worst = max(worst, abs(erf_value(float(x)) - reference) / abs(reference))
    return CheckResult(
        "erf-accuracy",
        worst <= 1e-7,
        f"max relative error {worst:.2e} on {points} points in [-6, 6] (tol 1e-7)",
    )


def check_growth_model(seed: int = VERIFY_SEED) -> CheckResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    sig = GrowthSpec.sigmoid(100.0)
    bounded = all(capacity_at(sig, u) <= 100.0 for u in rng.uniform(0.0, 50.0, 10**4))

    narrow = crossover(sig, GrowthSpec.linear(1))
    bracket_ok = 99.0 <= narrow <= 101.0
    wide = crossover(sig, GrowthSpec.linear(100))
    wide_ok = wide <= 1.0
    dominated = capacity_at(GrowthSpec.linear(1), 10 * narrow) >= capacity_at(sig, 10 * narrow)
    passed = bounded and bracket_ok and wide_ok and dominated
    return CheckResult(
        "growth-model",
        passed,
        f"sigmoid bounded on 1e4 points: {bounded}; crossover(sat=100, ports=1)={narrow:.3f} "
        f"in [99, 101]; crossover(ports=100)={wide:.3f} <= 1; linear dominates at 10x: {dominated}",
    )


def check_costing_defaults() -> CheckResult:
    tiered = build_three_tier(2, 2, 2, 1)
    fabric = build_spine_leaf(2, 4, 1)
    ports = {role: 48 for role in ("core", "distribution", "access", "spine", "leaf")}
    report = compare_designs(tiered, fabric, CostAssumptions(), ports)
    by_metric = {row[0]: row for row in report.rows}
    price_ratio = by_metric["price_per_port"][3]
    watts_ratio = by_metric["watts_per_port"][3]
    passed = price_ratio == 0.25 and watts_ratio == 0.25
    return CheckResult(
        "costing-default-ratios",
        passed,
        f"price/port ratio {price_ratio}, watts/port ratio {watts_ratio} (expected exactly 0.25)",
    )


def run_all_checks(seed: int = VERIFY_SEED) -> list[CheckResult]:
    return [
        check_jensen_directions(seed=seed),
        check_survival_comparison(seed=seed),
        check_pareto_sampler(seed=seed),
        check_density_normalization(),
        check_density_histogram(seed=seed),
        check_tail_mean_mc(seed=seed),
        check_degradation_identity(),
        check_degradation_curve(),
        check_hop_claims(),
        check_affected_fraction_oracle(seed=seed),
        check_hop_histogram_oracle(seed=seed),
        check_failure_harm_enumeration(seed=seed),
        check_erf_accuracy(),
        check_growth_model(seed=seed),
        check_costing_defaults(),
    ]
