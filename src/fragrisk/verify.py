"""Analytic-vs-oracle checks behind the ``verify`` subcommand.

Every closed form in the package is re-derived here by an independent route:
double-exponential quadrature for densities, mean surviving values and the
error function, the Pareto survival function for bin masses of the harm law,
Monte Carlo and exhaustive enumeration for the other expectations, per-pair
breadth-first search for connectivity and hop counts.  Every random case
comes from ``random.Random(VERIFY_SEED)``; only the two sampled checks reach
NumPy, through ``pareto_sample`` and ``mc_tail_mean``.  Each check reports
pass/fail against its pinned tolerance, which a nan error never meets.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import warnings
from collections import deque
from typing import Mapping

from . import _Record
from .costing import CostAssumptions, compare_designs
from .growth import crossover, erf_value, linear_capacity, sigmoid_capacity
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
    ROLES,
    UNREACHABLE,
    Topology,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
    inject_failures,
)

# the seed of every sampled check; each check's bound was set for its
# draws at this seed and its fixed sizes, so verify runs at no other
VERIFY_SEED = 42

# (alpha, beta) pairs of the density normalization grid with alpha >= beta,
# crossed with these fragment counts.
NORMALIZATION_ALPHAS = (1.5, 2.0, 4.0)
NORMALIZATION_BETAS = (1.0, 1.5, 2.0, 3.0)
NORMALIZATION_FRAGMENTS = (1, 2, 5)


class CheckResult(_Record):
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str):
        self.__dict__.update(name=name, passed=passed, detail=detail)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


# Double-exponential quadrature: Takahasi and Mori, "Double exponential
# formulas for numerical integration", Publ. RIMS 9 (1974).  A substitution
# x = phi(t) makes the integrand decay double exponentially in t, so the
# trapezoid rule in t converges exponentially in its number of nodes.  The
# fine level steps t by _DE_STEP and the coarse level by twice that; the
# coarse nodes are the fine level's even ones, so one pass gives both sums,
# and their gap, the coarse level's error, bounds the fine level's.
_DE_STEP = 1 / 40
# the largest error estimate with which a quadrature oracle's check may pass
QUADRATURE_TOL = 1e-10


def _tanh_sinh(t: float) -> tuple[float, float]:
    """Node and weight at ``t`` on [-1, 1].

    The node is its distance from the lower end, or for t > 0 minus its
    distance from the upper end, so that its digits near either end are kept.
    """
    u = math.pi / 2 * math.sinh(t)
    d = math.exp(-abs(u)) / math.cosh(u)  # 1 - tanh|u|
    return (d if t <= 0 else -d), math.pi / 2 * math.cosh(t) / math.cosh(u) ** 2


def _exp_sinh(t: float) -> tuple[float, float]:
    """Node and weight at ``t`` on (0, inf)."""
    x = math.exp(math.pi / 2 * math.sinh(t))
    return x, math.pi / 2 * math.cosh(t) * x


def _levels(rule, t_max: float) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """``rule`` at t = k * _DE_STEP, |t| <= t_max: the coarse level's (even k), then the fine level's own (odd k)."""
    k_max = round(t_max / _DE_STEP)
    rows = [(k, rule(k * _DE_STEP)) for k in range(-k_max, k_max + 1)]
    return [node for k, node in rows if k % 2 == 0], [node for k, node in rows if k % 2]


# The ends of t cut off less than 1e-16 of an integrand that is bounded at a
# finite end and decays at least like |x|**-2 towards -inf: tanh-sinh stops
# 1e-22 of the interval short of each end, exp-sinh reaches |x| = 4e18.
_TANH_SINH = _levels(_tanh_sinh, 3.5)
_EXP_SINH = _levels(_exp_sinh, 4.0)


def _de_quad(f, a: float, b: float) -> tuple[float, float]:
    """Integral of ``f`` over [a, b], finite or with a = -inf, and an estimate of its error."""
    if a == -math.inf:
        levels, scale = _EXP_SINH, 1.0

        def g(x):
            return f(b - x)

    else:
        levels, scale = _TANH_SINH, (b - a) / 2

        def g(d):
            return f(a + scale * d) if d > 0 else f(b + scale * d)

    coarse, fine_only = (math.fsum(w * g(x) for x, w in nodes) for nodes in levels)
    fine = _DE_STEP * scale * (coarse + fine_only)
    return fine, abs(fine - 2 * _DE_STEP * scale * coarse)


def _worst(errors) -> float:
    """The largest of ``errors`` (0 for none), or nan if any is nan, so that ``worst <= tol`` then fails."""
    return math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)


def _quadrature_note(errors) -> str:
    """Empty when every error estimate is within QUADRATURE_TOL (not nan), else why the check fails."""
    over = sum(1 for e in errors if not e <= QUADRATURE_TOL)
    return f"; {over} quadrature error estimates above {QUADRATURE_TOL:.0e}" if over else ""


def erf_quadrature(x: float) -> tuple[float, float]:
    """erf(x) by quadrature of its defining integral, and the error estimate of that value."""
    value, error = _de_quad(lambda t: math.exp(-t * t), 0.0, abs(x))
    scale = 2.0 / math.sqrt(math.pi)
    return math.copysign(scale * value, x), scale * error


def density_normalization(p: ParetoParams, h: HarmParams, fragments: int) -> tuple[float, float]:
    """Integral of the fragment harm density over its support by quadrature, and its error estimate."""
    bound = -(h.k * (p.scale / fragments) ** h.beta)
    return _de_quad(lambda xi: fragment_harm_density(p, h, fragments, xi), -math.inf, bound)


def pareto_survival(p: ParetoParams, x: float) -> float:
    """P(X >= x) = (L / x)**alpha of the Pareto law, 1 below its scale L."""
    return (p.scale / x) ** p.alpha if x > p.scale else 1.0


def histogram_l1_distance(p: ParetoParams, h: HarmParams, fragments: int) -> tuple[float, float]:
    """L1 distance between exact Pareto masses and quadrature masses of the harm density over 50 bins.

    Bins are equal-probability under the analytic law.  The harm lies in
    (lo, hi] exactly when the error lies in [x(hi), x(lo)), where
    x(xi) = N * (-xi / k)**(1 / beta), so the exact mass is a difference of
    the Pareto survival function; the check ties the error law, the quantiles
    and the density together.  The second value sums the bin masses' error
    estimates, which bounds the quadrature's share of the distance's error.
    """
    edges = [-math.inf]
    for i in range(1, 50):
        edges.append(harm_quantile(p, h, fragments, i / 50))
    edges.append(-(h.k * (p.scale / fragments) ** h.beta))
    survival = [pareto_survival(p, fragments * (-xi / h.k) ** (1.0 / h.beta)) for xi in edges]

    distance = error = 0.0
    for lo, hi, s_lo, s_hi in zip(edges, edges[1:], survival, survival[1:]):
        mass, mass_error = _de_quad(lambda v: fragment_harm_density(p, h, fragments, v), lo, hi)
        distance += abs((s_hi - s_lo) - mass)
        error += mass_error
    return distance, error


def pareto_expectation(p: ParetoParams, f) -> tuple[float, float]:
    """E[f(X)] and its error estimate, by quadrature against the Pareto density alpha * L**alpha / x**(alpha+1).

    The density's support [L, inf) is mirrored onto (-inf, -L], the one half-line the quadrature takes.
    """
    return _de_quad(lambda y: f(-y) * p.alpha * p.scale**p.alpha / (-y) ** (p.alpha + 1.0), -math.inf, -p.scale)


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


def _host_devices(t: Topology) -> list[str | None]:
    """The device of every host, ``None`` for a detached one."""
    return [d for _, d in t.hosts] + [None] * len(t.detached_hosts)


def affected_fraction_bfs(t: Topology, failed: set[str]) -> float:
    """Brute-force affected fraction: BFS reachability checked pair by pair."""
    surviving = frozenset(d.id for d in t.devices) - set(failed)
    adj = _adjacency(t, surviving)
    reach = {dev: bfs_distances(adj, dev) for dev in surviving}

    hosts = _host_devices(t)
    total = 0
    disconnected = 0
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            total += 1
            a, b = hosts[i], hosts[j]
            if a is None or b is None or a not in surviving or b not in surviving:
                disconnected += 1
            elif b not in reach[a]:
                disconnected += 1
    return disconnected / total if total else 0.0


def hop_histogram_bfs(t: Topology) -> dict[int, int]:
    """Brute-force hop histogram: BFS distances looked up pair by pair."""
    adj = _adjacency(t, frozenset(d.id for d in t.devices))
    hosts = _host_devices(t)
    dist_from = {dev: bfs_distances(adj, dev) for dev in set(hosts) - {None}}

    histogram: dict[int, int] = {}
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            a, b = hosts[i], hosts[j]
            if a is None or b is None:
                hops = UNREACHABLE
            else:
                hops = dist_from[a].get(b, UNREACHABLE)
            histogram[hops] = histogram.get(hops, 0) + 1
    return histogram


def exhaustive_failure_harm(
    t: Topology, probabilities: Mapping[str, float], h: HarmParams
) -> tuple[float, float]:
    """Exact (mean, std) of harm over all 2^n device failure patterns; an omitted role never fails."""
    ids = [d.id for d in t.devices]
    probs = [probabilities.get(d.role, 0.0) for d in t.devices]
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


def random_topology(rng: random.Random, max_devices: int = 50) -> Topology:
    """Random fabric of either form with up to ``max_devices`` devices."""
    if rng.random() < 0.5:
        spines = rng.randrange(1, 9)
        leaves = rng.randrange(1, max(2, min(31, max_devices - spines + 1)))
        return build_spine_leaf(spines, leaves, rng.randrange(1, 3))
    cores = rng.randrange(1, 3)
    dists = rng.randrange(1, 9)
    max_access = max(1, (max_devices - cores - dists) // dists)
    access = rng.randrange(1, min(6, max_access + 1))
    return build_three_tier(cores, dists, access, rng.randrange(1, 3), dual_homed=dists >= 2 and rng.random() < 0.3)


def random_failed_set(rng: random.Random, t: Topology) -> set[str]:
    share = rng.uniform(0.0, 0.5)
    return {d.id for d in t.devices if rng.random() < share}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_tail_mean_mc() -> CheckResult:
    p = ParetoParams(alpha=4.0, scale=1.0)
    start = time.perf_counter()
    rels, details = [], []
    # below beta = 1 the threshold lies beyond the whole support
    for h, n in itertools.product((HarmParams(k=1.0, beta=1.5), HarmParams(k=1.0, beta=0.5)), (1, 2, 5)):
        closed = tail_mean(p, h, n)
        estimate = mc_tail_mean(p, h, n, 10**6, VERIFY_SEED)
        rels.append(abs(estimate - closed) / abs(closed))
        details.append(f"beta={h.beta} N={n} rel={rels[-1]:.2e}")
    elapsed = time.perf_counter() - start
    passed = _worst(rels) <= 0.02 and elapsed <= 10.0
    return CheckResult(
        "tail-mean-closed-vs-mc",
        passed,
        f"{'; '.join(details)} (tol 2e-2, {elapsed:.2f}s <= 10s)",
    )


def check_density_normalization() -> CheckResult:
    gaps, errors = [], []
    for alpha, beta in itertools.product(NORMALIZATION_ALPHAS, NORMALIZATION_BETAS):
        if alpha < beta:
            continue
        for n in NORMALIZATION_FRAGMENTS:
            total, error = density_normalization(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n)
            gaps.append(abs(total - 1.0))
            errors.append(error)
    worst = _worst(gaps)
    note = _quadrature_note(errors)
    return CheckResult(
        "density-normalization",
        worst <= 1e-6 and not note,
        f"{len(errors)} (alpha, beta, N) combinations, max |integral - 1| = {worst:.2e} (tol 1e-6){note}",
    )


def check_density_histogram() -> CheckResult:
    distances, errors = zip(*[
        histogram_l1_distance(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n)
        for alpha, beta, n in ((2.0, 1.5, 1), (4.0, 1.5, 2), (4.0, 3.0, 5))
    ])
    worst = _worst(distances)
    note = _quadrature_note(errors)
    return CheckResult(
        "density-histogram-l1",
        worst <= 1e-12 and not note,
        f"max L1 distance {worst:.2e} over 3 configurations (tol 1e-12){note}",
    )


def check_degradation_identity() -> CheckResult:
    gaps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha, beta in ((2.0, 1.5), (4.0, 1.5), (4.0, 3.0), (4.0, 0.5)):
            p = ParetoParams(alpha, 1.0)
            h = HarmParams(1.0, beta)
            for k_mult in (2, 3, 4):
                for n in (1, 2):
                    via_means = k_mult * tail_mean(p, h, k_mult * n) / tail_mean(p, h, n)
                    direct = degradation_ratio(p, h, float(k_mult), n)
                    gaps.append(abs(via_means - direct) / abs(direct))
    worst = _worst(gaps)
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


def check_jensen_directions() -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    violations = []
    # the gap is >= 0 for beta >= 1 and <= 0 for beta < 1: count draws not of that sign, nan included
    for (low, high), sign in (((1.0, 4.0), 1.0), ((1e-6, 1.0), -1.0)):
        violations.append(0)
        for _ in range(1000):
            beta = rng.uniform(low, high)
            k = rng.uniform(1e-6, 10.0)
            # normalized unit exponentials are Dirichlet(1, ..., 1) weights
            draws = [rng.expovariate(1.0) for _ in range(rng.randrange(1, 9))]
            total = sum(draws)
            weights = FragmentWeights(tuple(d / total for d in draws))
            x = rng.uniform(1e-9, 100.0)
            if not sign * jensen_gap(HarmParams(k, beta), weights, x) >= -1e-12:
                violations[-1] += 1
    convex_violations, concave_violations = violations
    passed = convex_violations == 0 and concave_violations == 0
    return CheckResult(
        "jensen-gap-directions",
        passed,
        f"1000 draws each way: {convex_violations} violations for beta>=1, "
        f"{concave_violations} for beta<1 (tol 1e-12)",
    )


def check_survival_comparison() -> CheckResult:
    p = ParetoParams(alpha=4.0, scale=1.0)
    h = HarmParams(k=1.0, beta=1.5)
    unit_value = 10.0
    weights = FragmentWeights((0.2, 0.3, 0.5))
    exact = survival_comparison(h, unit_value, weights, p)

    # the value each arm keeps at error x: B - k x**beta, and each fragment's w_i B - k (w_i x)**beta summed
    arms = (
        lambda x: unit_value - h.k * x**h.beta,
        lambda x: math.fsum(w * unit_value - h.k * (w * x) ** h.beta for w in weights.w),
    )
    gaps, errors, details = [], [], []
    for name, closed, arm in zip(("centralized", "decentralized"), exact, arms):
        mean, error = pareto_expectation(p, arm)
        gaps.append(abs(closed - mean) / abs(mean))
        errors.append(error)
        details.append(f"{name} {closed:.5f} vs quadrature {mean:.5f}")
    worst = _worst(gaps)
    note = _quadrature_note(errors)

    cen1, dec1 = survival_comparison(HarmParams(k=1.0, beta=1.0), unit_value, weights, p)
    linear_exact = cen1 == dec1
    return CheckResult(
        "survival-comparison",
        worst <= 1e-12 and not note and linear_exact,
        f"{'; '.join(details)}; max relative gap {worst:.2e} (tol 1e-12); "
        f"beta=1 arms bitwise equal: {linear_exact}{note}",
    )


def check_pareto_sampler() -> CheckResult:
    p = ParetoParams(alpha=2.0, scale=1.0)
    x = pareto_sample(p, 10**6, VERIFY_SEED)
    mean = float(x.mean())
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    mean_ok = abs(mean - 2.0) <= 3.0 * se and float(x.min()) >= p.scale

    p2 = ParetoParams(alpha=3.0, scale=2.0)
    y = pareto_sample(p2, 10**6, VERIFY_SEED)
    frac = float((y > 4.0).mean())
    target = (p2.scale / 4.0) ** p2.alpha
    se2 = math.sqrt(target * (1.0 - target) / y.size)
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


def check_affected_fraction_oracle() -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    diffs = []
    for _ in range(200):
        t = random_topology(rng, 50)
        failed = random_failed_set(rng, t)
        diffs.append(abs(affected_fraction(t, failed) - affected_fraction_bfs(t, failed)))
    worst = _worst(diffs)
    return CheckResult(
        "affected-fraction-vs-bfs",
        worst == 0.0,
        f"200 random topologies (<= 50 devices), max |diff| = {worst}",
    )


def check_hop_histogram_oracle() -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    mismatches = 0
    injected = 0
    for _ in range(100):
        t = random_topology(rng, 30)
        if rng.random() < 0.5:
            t = inject_failures(t, random_failed_set(rng, t))
            injected += 1
        if hop_histogram(t) != hop_histogram_bfs(t):
            mismatches += 1
    return CheckResult(
        "hops-vs-bfs",
        mismatches == 0,
        f"100 random topologies (<= 30 devices, {injected} with injected failures), "
        f"{mismatches} histograms differ",
    )


def check_failure_harm_enumeration() -> CheckResult:
    h = HarmParams(k=1.0, beta=1.5)
    probabilities = dict.fromkeys(ROLES, 0.05)
    details = []
    passed = True
    results = {}
    for label, topo in (
        ("spine-leaf(2,4,1)", build_spine_leaf(2, 4, 1)),
        ("three-tier(2,2,2,1)", build_three_tier(2, 2, 2, 1)),
    ):
        exact_mean, exact_std = exhaustive_failure_harm(topo, probabilities, h)
        stats = failure_harm_mc(topo, probabilities, h, 10**5, VERIFY_SEED)
        se = exact_std / math.sqrt(stats.trials)
        ok = abs(stats.expected_harm - exact_mean) <= 3.0 * se
        passed = passed and ok
        results[label] = exact_mean
        details.append(f"{label}: mc {stats.expected_harm:.5f} vs exact {exact_mean:.5f} (3*SE={3 * se:.5f})")
    smaller = abs(results["spine-leaf(2,4,1)"]) < abs(results["three-tier(2,2,2,1)"])
    passed = passed and smaller
    details.append(f"spine-leaf harm magnitude smaller: {smaller}")
    return CheckResult("failure-harm-vs-enumeration", passed, "; ".join(details))


def check_erf_accuracy() -> CheckResult:
    xs = [-30.0 + i * 60.0 / 999 for i in range(1000)]  # past erf's saturation, where a truncated series collapses
    gaps, errors = [], []
    for x in xs:
        reference, error = erf_quadrature(x)
        errors.append(error)
        gaps.append(abs(erf_value(x) - reference) / (abs(reference) or 1.0))  # absolute at erf(0) = 0
    worst = _worst(gaps)
    note = _quadrature_note(errors)
    return CheckResult(
        "erf-accuracy",
        worst <= 1e-7 and not note,
        f"max relative error {worst:.2e} on {len(xs)} points in [-30, 30] (tol 1e-7){note}",
    )


def check_growth_model() -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    bounded = all(sigmoid_capacity(100.0, rng.uniform(0.0, 50.0)) <= 100.0 for _ in range(10**4))
    grid = [sigmoid_capacity(100.0, i * 50.0 / 9999) for i in range(10**4)]
    rising = all(a <= b for a, b in zip(grid, grid[1:]))

    narrow = crossover(100.0, 1)
    bracket_ok = 99.0 <= narrow <= 101.0
    wide = crossover(100.0, 100)
    wide_ok = wide <= 1.0
    dominated = linear_capacity(1, 10 * narrow) >= sigmoid_capacity(100.0, 10 * narrow)
    passed = bounded and rising and bracket_ok and wide_ok and dominated
    return CheckResult(
        "growth-model",
        passed,
        f"sigmoid bounded on 1e4 points: {bounded}; nondecreasing on [0, 50]: {rising}; "
        f"crossover(sat=100, ports=1)={narrow:.3f} in [99, 101]; crossover(ports=100)={wide:.3f} <= 1; "
        f"linear dominates at 10x: {dominated}",
    )


def check_costing_defaults() -> CheckResult:
    tiered = build_three_tier(2, 2, 2, 1)
    fabric = build_spine_leaf(2, 4, 1)
    ports = {role: 48 for role in ("core", "distribution", "access", "spine", "leaf")}
    compared = compare_designs(tiered, fabric, CostAssumptions(), ports)
    price_ratio = compared["price_per_port"][2]
    watts_ratio = compared["watts_per_port"][2]
    passed = price_ratio == 0.25 and watts_ratio == 0.25
    return CheckResult(
        "costing-default-ratios",
        passed,
        f"price/port ratio {price_ratio}, watts/port ratio {watts_ratio} (expected exactly 0.25)",
    )


def run_all_checks() -> list[CheckResult]:
    return [
        check_jensen_directions(),
        check_survival_comparison(),
        check_pareto_sampler(),
        check_density_normalization(),
        check_density_histogram(),
        check_tail_mean_mc(),
        check_degradation_identity(),
        check_degradation_curve(),
        check_hop_claims(),
        check_affected_fraction_oracle(),
        check_hop_histogram_oracle(),
        check_failure_harm_enumeration(),
        check_erf_accuracy(),
        check_growth_model(),
        check_costing_defaults(),
    ]
