import itertools
import math
import random
import re
import statistics
import string
import tracemalloc
import types
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fragrisk import topology
from fragrisk.config import DEFAULT_SEED, ScenarioConfig
from fragrisk.costing import CostAssumptions
from fragrisk.harm import FragmentWeights, HarmParams, harm
from fragrisk.pareto import ParetoParams
from fragrisk.report import ScenarioReport
from fragrisk.topology import (
    ROLES,
    UNREACHABLE,
    Device,
    Topology,
    _connected_pairs,
    _table_quantiles,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
    inject_failures,
    parse_topology,
    serialize_topology,
)
from fragrisk.verify import (
    CheckResult,
    affected_fraction_bfs,
    check_hop_histogram_oracle,
    exhaustive_failure_harm,
    hop_histogram_bfs,
    random_failed_set,
    random_topology,
)


def host_devices(t: Topology) -> list[str | None]:
    """Every host's device, ``None`` for a detached host."""
    return [d for _, d in t.hosts] + [None] * len(t.detached_hosts)


def networkx_affected_fraction(t: Topology, failed: set[str]) -> float:
    """Third, independent route: networkx has_path per host pair."""
    g = nx.Graph()
    surviving = {d.id for d in t.devices} - failed
    g.add_nodes_from(surviving)
    g.add_edges_from((a, b) for a, b in t.links if a in surviving and b in surviving)
    hosts = host_devices(t)
    total = disconnected = 0
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            total += 1
            a, b = hosts[i], hosts[j]
            if a is None or b is None or a not in surviving or b not in surviving:
                disconnected += 1
            elif not nx.has_path(g, a, b):
                disconnected += 1
    return disconnected / total if total else 0.0


def networkx_hop_histogram(t: Topology) -> dict[int, int]:
    """Third, independent route: networkx shortest path lengths per host pair."""
    g = nx.Graph()
    g.add_nodes_from(d.id for d in t.devices)
    g.add_edges_from(t.links)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    hosts = host_devices(t)
    histogram: dict[int, int] = {}
    for i in range(len(hosts)):
        for j in range(i + 1, len(hosts)):
            a, b = hosts[i], hosts[j]
            hops = UNREACHABLE if a is None or b is None else lengths[a].get(b, UNREACHABLE)
            histogram[hops] = histogram.get(hops, 0) + 1
    return histogram


def random_case(seed: int) -> Topology:
    """Random fabric of up to 30 devices, with injected failures 1 time in 3."""
    rng = np.random.default_rng(seed)
    t = random_topology(rng, max_devices=30)
    if rng.random() < 1 / 3:
        t = inject_failures(t, random_failed_set(rng, t))
    return t


def failed_ids(t: Topology, row) -> set[str]:
    return {d.id for d, hit in zip(t.devices, row) if hit}


def first_members(t: Topology, counts: list[int]) -> set[str]:
    """Ids of the first ``counts[c]`` devices of each twin class c."""
    left = list(counts)
    failed = set()
    for d, c in zip(t.devices, t.twin_quotient.device_class):
        if left[c] > 0:
            left[c] -= 1
            failed.add(d.id)
    return failed


def skip_stream_failures(t: Topology, probs: dict[str, float], trials: int, seed: int) -> list[set[str]]:
    """Each trial's failed device ids, from the geometric-skip streams, one trial at a time.

    The devices of each failure probability p > 0 form one stream of trials
    x devices cells.  p = 1 fails every cell without a draw; otherwise
    floor(log(1 - U) / log1p(-p)) cells are skipped before each failure.
    Each stream draws its first skip in ascending p; after that a skip is
    drawn right after the failure before it.
    """
    rng = random.Random(seed)

    def skip(p):
        return 0 if p == 1.0 else math.floor(math.log(1 - rng.random()) / math.log1p(-p))

    streams = []
    for p in sorted({probs.get(d.role, 0.0) for d in t.devices} - {0.0}):
        ids = [d.id for d in t.devices if probs.get(d.role, 0.0) == p]
        streams.append([p, ids, skip(p)])
    out = []
    for trial in range(trials):
        failed = set()
        for stream in streams:
            p, ids, cell = stream
            while cell < (trial + 1) * len(ids):
                failed.add(ids[cell - trial * len(ids)])
                cell += 1 + skip(p)
            stream[2] = cell
        out.append(failed)
    return out


def class_counts(t: Topology, failed: set[str]) -> tuple[int, ...]:
    """Failed members of each twin class."""
    q = t.twin_quotient
    counts = [0] * q.n_classes
    for d, c in zip(t.devices, q.device_class):
        counts[c] += d.id in failed
    return tuple(counts)


def spine_leaf_exact_harm(spines: int, leaves: int, hosts_per_leaf: int, p: float, h: HarmParams):
    """Exact (mean, std) of harm on spine-leaf with every device failing with probability p.

    Sums over the numbers a of failed spines and b of failed leaves, with
    binomial weights.  While a spine survives every surviving host reaches
    every other; with all spines down only hosts on one leaf still do.
    """
    hosts = leaves * hosts_per_leaf
    total = math.comb(hosts, 2)
    terms = []
    for a in range(spines + 1):
        for b in range(leaves + 1):
            weight = math.comb(spines, a) * math.comb(leaves, b) * p ** (a + b) * (1 - p) ** (spines + leaves - a - b)
            if a < spines:
                connected = math.comb(hosts_per_leaf * (leaves - b), 2)
            else:
                connected = (leaves - b) * math.comb(hosts_per_leaf, 2)
            terms.append((weight, harm(h, (total - connected) / total)))
    mean = math.fsum(w * v for w, v in terms)
    return mean, math.sqrt(math.fsum(w * (v - mean) ** 2 for w, v in terms))


def access_chain(length: int, seed: int | None = None) -> Topology:
    """3-tier chain d0 -- a0 -- d1 -- a1 ... of 2 * length devices, one host per access switch.

    With ``seed``, the numbers in the ids are a random permutation of the
    chain positions, so device indices no longer follow the chain.
    """
    ids = range(length) if seed is None else np.random.default_rng(seed).permutation(length)
    devices, links, hosts = [], [], []
    for i, k in enumerate(ids):
        devices += [Device(f"d{k}", "distribution"), Device(f"a{k}", "access")]
        links.append((f"d{k}", f"a{k}"))
        if i + 1 < length:
            links.append((f"a{k}", f"d{ids[i + 1]}"))
        hosts.append((f"h{k}", f"a{k}"))
    return Topology(tuple(devices), tuple(links), tuple(hosts))


def neighbor_sets(t: Topology) -> dict[str, frozenset[str]]:
    adj = {d.id: set() for d in t.devices}
    for a, b in t.links:
        adj[a].add(b)
        adj[b].add(a)
    return {d: frozenset(n) for d, n in adj.items()}


def isolating_rows(t: Topology) -> np.ndarray:
    """One failure row per device, failing all its neighbours (so all neighbour classes of its class)."""
    index = t.device_index
    rows = np.zeros((len(t.devices), len(t.devices)), dtype=bool)
    for i, near in enumerate(neighbor_sets(t)[d.id] for d in t.devices):
        rows[i, [index[n] for n in near]] = True
    return rows


def twin_classes(t: Topology) -> set[frozenset[str]]:
    """The quotient's classes as sets of device ids."""
    classes: dict[int, set[str]] = {}
    for d, c in zip(t.devices, t.twin_quotient.device_class):
        classes.setdefault(c, set()).add(d.id)
    return {frozenset(c) for c in classes.values()}


@st.composite
def planted_twin_fabrics(draw) -> Topology:
    """A fabric built class by class: every member of a class gets the class's links.

    Spine-leaf: spine classes joined to leaf classes.  3-tier: one or two
    cores (two are linked, so they are true twins when they reach the same
    distribution classes), distribution classes and access classes.  Leaves
    and access switches carry 0-2 hosts each, with or without links.  With
    some draws the fabric then goes through ``inject_failures``.
    """

    def classes(role, most):
        return [[f"{role}{c}m{i}" for i in range(draw(st.integers(1, 3)))] for c in range(draw(st.integers(0, most)))]

    def join(upper, lower):
        return [(a, b) for u in upper for w in lower if draw(st.booleans()) for a in u for b in w]

    if draw(st.booleans()):
        uppers, lowers = classes("spine", 3), classes("leaf", 4)
        devices = [Device(d, "spine") for u in uppers for d in u] + [Device(d, "leaf") for w in lowers for d in w]
        links = join(uppers, lowers)
    else:
        cores = [[f"core{i}"] for i in range(draw(st.integers(0, 2)))]
        dists, lowers = classes("dist", 3), classes("acc", 4)
        devices = [Device(c[0], "core") for c in cores]
        devices += [Device(d, "distribution") for u in dists for d in u]
        devices += [Device(d, "access") for w in lowers for d in w]
        links = [("core0", "core1")] if len(cores) == 2 else []
        links += join(cores, dists) + join(dists, lowers)
    hosts = [(f"h{d}x{j}", d) for w in lowers for d in w for j in range(draw(st.integers(0, 2)))]
    t = Topology(tuple(devices), tuple(links), tuple(hosts))
    if t.devices and draw(st.booleans()):
        t = inject_failures(t, set(draw(st.lists(st.sampled_from([d.id for d in t.devices]), max_size=3))))
    return t


#: the characters of a valid device or host id
ID_CHARS = string.ascii_letters + string.digits + "_.-"

NO_DEVICES = Topology((), (), (), ("h0", "h1", "h2"))
SPINE_LEAF = build_spine_leaf(2, 2, 1)  # spine0, spine1, leaf0, leaf1; hosts h0, h1
THREE_TIER = build_three_tier(2, 2, 1, 1)  # core0 -- core1, dist0, dist1, acc0, acc1
ONE_HOST = build_spine_leaf(2, 1, 1)


# inputs the builders, the parser and the estimator refuse, each with the reason it gives
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: build_three_tier(1, 0, 1, 1),
            "distributions, access_per_distribution, hosts_per_access must all be >= 1",
            id="three-tier-no-distribution",
        ),
        pytest.param(
            lambda: build_three_tier(2, 2, 2, 0),
            "distributions, access_per_distribution, hosts_per_access must all be >= 1",
            id="three-tier-no-hosts",
        ),
        pytest.param(
            lambda: build_spine_leaf(0, 2, 1),
            "spines, leaves, hosts_per_leaf must all be >= 1",
            id="spine-leaf-no-spine",
        ),
        pytest.param(
            lambda: build_spine_leaf(1, 2, 0),
            "spines, leaves, hosts_per_leaf must all be >= 1",
            id="spine-leaf-no-hosts",
        ),
        pytest.param(
            lambda: parse_topology("# only comments\n\n  # and blanks\n"),
            "missing or unsupported topology header (expected 'topology/1')",
            id="comments-only-file",
        ),
        pytest.param(
            lambda: failure_harm_mc(build_spine_leaf(1, 1, 1), dict.fromkeys(ROLES, 0.1), HarmParams(1.0, 1.5), 0, 1),
            "trials must be >= 1",
            id="no-trials",
        ),
    ],
)
def test_rejected_inputs_name_the_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestBuildThreeTier:
    def test_reference_counts(self):
        t = build_three_tier(2, 2, 2, 1)
        assert len(t.devices) == 8
        roles = [d.role for d in t.devices]
        assert roles.count("core") == 2
        assert roles.count("distribution") == 2
        assert roles.count("access") == 4
        # 1 core-core + 4 core-dist + 4 dist-access
        assert len(t.links) == 9
        assert ("core0", "core1") in t.links
        assert len(t.hosts) == 4

    def test_minimal_chain(self):
        t = build_three_tier(1, 1, 1, 1)
        assert len(t.devices) == 3
        assert len(t.links) == 2
        assert all("core" not in (a, b) or not (a.startswith("core") and b.startswith("core")) for a, b in t.links)

    def test_core_limit(self):
        with pytest.raises(ValueError, match="2 core"):
            build_three_tier(3, 1, 1, 1)
        with pytest.raises(ValueError):
            build_three_tier(0, 1, 1, 1)

    def test_single_core_has_no_core_link(self):
        t = build_three_tier(1, 2, 2, 1)
        assert all(not (a.startswith("core") and b.startswith("core")) for a, b in t.links)

    def test_dual_homing_adds_second_uplink(self):
        single = build_three_tier(2, 2, 2, 1)
        dual = build_three_tier(2, 2, 2, 1, dual_homed=True)
        assert len(dual.links) == len(single.links) + 4
        # with two distribution uplinks, losing one distribution keeps everyone connected
        assert affected_fraction(dual, {"dist0"}) == 0.0
        assert affected_fraction(single, {"dist0"}) > 0.0


class TestBuildSpineLeaf:
    def test_reference_counts(self):
        t = build_spine_leaf(2, 4, 10)
        assert len(t.devices) == 6
        assert len(t.links) == 8
        assert len(t.hosts) == 40

    def test_minimal(self):
        t = build_spine_leaf(1, 1, 1)
        assert len(t.links) == 1
        assert len(t.hosts) == 1

    def test_no_same_layer_links(self):
        t = build_spine_leaf(3, 5, 2)
        for a, b in t.links:
            assert a.startswith("spine") != b.startswith("spine")

    def test_complete_bipartite(self):
        t = build_spine_leaf(3, 5, 1)
        assert len(t.links) == 15


@pytest.mark.parametrize(
    "build, args",
    [
        (build_spine_leaf, (3, 5, 2)),
        (build_three_tier, (1, 3, 2, 2)),
        (build_three_tier, (2, 3, 2, 2, True)),
        (build_three_tier, (2, 1, 2, 2, True)),
    ],
)
def test_builder_size_bound_is_exact(monkeypatch, build, args):
    # the builders count devices + hosts + links from their arguments before building anything
    t = build(*args)
    size = len(t.devices) + len(t.hosts) + len(t.links)
    monkeypatch.setattr(topology, "MAX_FABRIC_ELEMENTS", size)
    assert build(*args) == t
    monkeypatch.setattr(topology, "MAX_FABRIC_ELEMENTS", size - 1)
    with pytest.raises(ValueError, match=f"at most {size - 1:,} devices, hosts and links"):
        build(*args)


def _stats(trials):
    return failure_harm_mc(build_spine_leaf(2, 2, 1), dict.fromkeys(ROLES, 0.1), HarmParams(1, 2), trials, 1)


# every read-only record: a maker, a maker of one with some field changed, a field to
# assign, and whether it can be hashed (records holding a dict or a list cannot)
RECORDS = [
    pytest.param(lambda: HarmParams(1.0, 1.5), lambda: HarmParams(1.0, 2.0), "k", True, id="HarmParams"),
    pytest.param(
        lambda: FragmentWeights((0.5, 0.5)), lambda: FragmentWeights((0.25, 0.75)), "w", True, id="FragmentWeights"
    ),
    pytest.param(lambda: ParetoParams(2.0, 1.0), lambda: ParetoParams(3.0, 1.0), "alpha", True, id="ParetoParams"),
    pytest.param(
        CostAssumptions, lambda: CostAssumptions(fixed_price_ratio=0.5), "fixed_price_ratio", True, id="CostAssumptions"
    ),
    pytest.param(lambda: Device("l0", "leaf"), lambda: Device("l0", "leaf", "dmz"), "role", True, id="Device"),
    pytest.param(lambda: build_spine_leaf(2, 2, 1), lambda: build_spine_leaf(2, 2, 2), "links", True, id="Topology"),
    pytest.param(
        lambda: build_spine_leaf(2, 2, 1).twin_quotient,
        lambda: build_spine_leaf(2, 3, 1).twin_quotient,
        "members",
        True,
        id="TwinQuotient",
    ),
    pytest.param(lambda: _stats(10), lambda: _stats(20), "trials", False, id="FailureHarmStats"),
    pytest.param(ScenarioConfig, lambda: ScenarioConfig(seed=7), "seed", True, id="ScenarioConfig"),
    pytest.param(
        lambda: CheckResult("c", True, "d"), lambda: CheckResult("c", False, "d"), "passed", True, id="CheckResult"
    ),
    pytest.param(
        lambda: ScenarioReport("c", ["x"], [[1.0]], {"seed": 1}),
        lambda: ScenarioReport("c", ["x"], [[2.0]], {"seed": 1}),
        "rows",
        False,
        id="ScenarioReport",
    ),
]


@pytest.mark.parametrize("make, changed, field, hashable", RECORDS)
def test_records_are_read_only(make, changed, field, hashable):
    record = make()
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
        setattr(record, field, value)
    assert getattr(record, field) is value


@pytest.mark.parametrize("make, changed, field, hashable", RECORDS)
def test_records_compare_by_value(make, changed, field, hashable):
    a, b = make(), make()
    assert a is not b and a == b
    assert a != changed()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("make, changed, field, hashable", RECORDS)
def test_records_print_their_fields(make, changed, field, hashable):
    record = make()
    assert repr(record).startswith(f"{type(record).__name__}(")
    assert f"{field}={getattr(record, field)!r}" in repr(record)


def test_record_repr_names_every_field_in_order():
    assert repr(HarmParams(1.0, 1.5)) == "HarmParams(k=1.0, beta=1.5)"
    report = ScenarioReport("c", ["x"], [[1]])
    assert repr(report) == "ScenarioReport(command='c', columns=['x'], rows=[[1]], metadata={})"


def test_record_fields_left_at_default_compare_as_the_default():
    # a ScenarioConfig holds only the values it was given
    assert ScenarioConfig() == ScenarioConfig(seed=DEFAULT_SEED)
    assert hash(ScenarioConfig()) == hash(ScenarioConfig(seed=DEFAULT_SEED))


def test_devices_and_topologies_compare_by_value():
    assert Device("s0", "spine") != Device("s1", "spine")
    t = build_spine_leaf(2, 2, 1)
    assert t == parse_topology(serialize_topology(t))
    assert t != inject_failures(t, {"leaf0"})
    assert t != Device("s0", "spine")


class TestTopologyInvariants:
    def test_role_mixing_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            Topology((Device("s0", "spine"), Device("c0", "core")), (), ())

    def test_leaf_leaf_link_rejected(self):
        devices = (Device("s0", "spine"), Device("l0", "leaf"), Device("l1", "leaf"))
        with pytest.raises(ValueError, match="spine--leaf"):
            Topology(devices, (("l0", "l1"),), ())

    def test_spine_spine_link_rejected(self):
        devices = (Device("s0", "spine"), Device("s1", "spine"), Device("l0", "leaf"))
        with pytest.raises(ValueError):
            Topology(devices, (("s0", "s1"),), ())

    def test_three_cores_rejected(self):
        devices = tuple(Device(f"c{i}", "core") for i in range(3))
        with pytest.raises(ValueError, match="2 core"):
            Topology(devices, (("c0", "c1"), ("c0", "c2"), ("c1", "c2")), ())

    def test_two_cores_need_interlink(self):
        devices = (Device("c0", "core"), Device("c1", "core"), Device("d0", "distribution"))
        with pytest.raises(ValueError, match="linked"):
            Topology(devices, (("c0", "d0"), ("c1", "d0")), ())

    def test_core_access_link_rejected(self):
        devices = (Device("c0", "core"), Device("a0", "access"))
        with pytest.raises(ValueError):
            Topology(devices, (("c0", "a0"),), ())

    def test_self_and_duplicate_links_rejected(self):
        devices = (Device("s0", "spine"), Device("l0", "leaf"))
        with pytest.raises(ValueError, match="self-link"):
            Topology(devices, (("s0", "s0"),), ())
        with pytest.raises(ValueError, match="duplicate link"):
            Topology(devices, (("s0", "l0"), ("l0", "s0")), ())

    def test_host_attachment_roles(self):
        devices = (Device("s0", "spine"), Device("l0", "leaf"))
        Topology(devices, (("s0", "l0"),), (("h0", "l0"),))
        with pytest.raises(ValueError, match="access or leaf"):
            Topology(devices, (("s0", "l0"),), (("h0", "s0"),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate device"):
            Topology((Device("l0", "leaf"), Device("l0", "leaf")), (), ())
        devices = (Device("l0", "leaf"),)
        with pytest.raises(ValueError, match="duplicate host"):
            Topology(devices, (), (("h0", "l0"), ("h0", "l0")))

    def test_ids_ending_in_a_newline_rejected(self):
        # "$" would match before a trailing newline, and the emitted file would not parse
        with pytest.raises(ValueError, match="invalid device id"):
            Device("leaf0\n", "leaf")
        devices = (Device("l0", "leaf"),)
        with pytest.raises(ValueError, match="invalid host id"):
            Topology(devices, (), (("h0\n", "l0"),))
        with pytest.raises(ValueError, match="invalid host id"):
            Topology(devices, (), (), ("h0\n",))

    @given(name=st.text(st.sampled_from(ID_CHARS + " \t\n\r\x0b\x0c\x85\u2028#@"), max_size=6))
    @example(name="leaf0\n")
    @example(name="host")
    @settings(max_examples=200, deadline=None)
    def test_accepted_ids_round_trip(self, name):
        # an id is accepted exactly when it is made of ID_CHARS and is not "host",
        # as a device, an attached host and a detached host alike
        valid = bool(name) and set(name) <= set(ID_CHARS) and name != "host"
        other = "x" + name  # a second valid id exactly when name is valid
        builds = (
            lambda: Topology((Device(name, "leaf"), Device(other, "spine")), ((other, name),), (("h", name),)),
            lambda: Topology((Device("l", "leaf"),), (), ((name, "l"),), (other,)),
            lambda: Topology((Device("l", "leaf"),), (), (), (name,)),
        )
        for build in builds:
            if valid:
                t = build()
                assert parse_topology(serialize_topology(t)) == t
            else:
                with pytest.raises(ValueError, match="invalid (device|host) id"):
                    build()

    @given(cores=st.lists(st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=3), min_size=2, max_size=2, unique=True))
    @example(cores=["z0", "z1"])
    @settings(max_examples=100, deadline=None)
    def test_linked_cores_pass_wherever_their_link_sorts(self, cores):
        # "z0 -- z1" sorts after "a0 -- d0" and both core -- d0 links
        assume(not {"host", "a0", "d0"} & set(cores))
        devices = tuple(Device(c, "core") for c in cores) + (Device("d0", "distribution"), Device("a0", "access"))
        uplinks = tuple((c, "d0") for c in cores) + (("d0", "a0"),)
        t = Topology(devices, uplinks + (tuple(cores),), (("h0", "a0"),))
        assert tuple(sorted(cores)) in t.links
        assert parse_topology(serialize_topology(t)) == t
        with pytest.raises(ValueError, match="two cores must be linked"):
            Topology(devices, uplinks, (("h0", "a0"),))

    def test_tag_restrictions(self):
        with pytest.raises(ValueError, match="leaf"):
            Device("s0", "spine", "dmz")
        with pytest.raises(ValueError, match="tag"):
            Device("l0", "leaf", "backbone")

    def test_canonical_ordering_gives_value_equality(self):
        a = Topology(
            (Device("l0", "leaf"), Device("s0", "spine")),
            (("s0", "l0"),),
            (("h0", "l0"),),
        )
        b = Topology(
            (Device("s0", "spine"), Device("l0", "leaf")),
            (("l0", "s0"),),
            (("h0", "l0"),),
        )
        assert a == b


class TestHopHistogram:
    def test_spine_leaf_two_hops(self):
        assert hop_histogram(build_spine_leaf(2, 4, 1)) == {2: 6}

    def test_three_tier_cross_distribution_four_hops(self):
        hist = hop_histogram(build_three_tier(2, 2, 2, 1))
        assert hist == {2: 2, 4: 4}

    def test_same_device_pairs_zero_hops(self):
        hist = hop_histogram(build_spine_leaf(2, 4, 10))
        assert hist == {0: 180, 2: 600}

    def test_spine_leaf_never_above_two(self):
        for spines, leaves in ((1, 1), (2, 4), (3, 7), (5, 2)):
            hist = hop_histogram(build_spine_leaf(spines, leaves, 2))
            assert all(h <= 2 for h in hist)

    def test_unreachable_bucket(self):
        injected = inject_failures(build_spine_leaf(1, 2, 1), {"spine0"})
        hist = hop_histogram(injected)
        assert hist == {UNREACHABLE: 1}

    def test_no_devices_all_pairs_unreachable(self):
        assert hop_histogram(NO_DEVICES) == {UNREACHABLE: 3}

    def test_one_host_has_no_pairs(self):
        assert hop_histogram(ONE_HOST) == {}

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_and_bfs(self, seed):
        t = random_case(seed)
        fast = hop_histogram(t)
        assert fast == networkx_hop_histogram(t)
        assert fast == hop_histogram_bfs(t)

    def test_bitset_bfs_matches_oracle(self):
        # l1 and l2 share the empty neighbour set: one class whose hosts are 0
        # hops apart on one device and unreachable across its two devices;
        # l0's class reaches only the hostless spine class
        isolated = Topology(
            (Device("l0", "leaf"), Device("l1", "leaf"), Device("l2", "leaf"), Device("s0", "spine")),
            (("s0", "l0"),),
            (("h0", "l0"), ("h1", "l1"), ("h2", "l1"), ("h3", "l2"), ("h4", "l2")),
            ("h5",),
        )
        for t in (build_three_tier(2, 3, 2, 2, dual_homed=True), random_case(5), random_case(11), isolated):
            assert hop_histogram(t) == hop_histogram_bfs(t)
        assert hop_histogram(isolated) == {UNREACHABLE: 13, 0: 2}

    def test_oracle_check_passes(self):
        result = check_hop_histogram_oracle()
        assert result.passed, result.detail


class TestInjectFailures:
    def test_empty_set_is_identity(self):
        t = build_spine_leaf(2, 4, 1)
        assert inject_failures(t, set()) == t

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            inject_failures(build_spine_leaf(2, 4, 1), {"nope"})

    def test_spine_failure_keeps_connectivity(self):
        t = build_spine_leaf(2, 4, 1)
        injected = inject_failures(t, {"spine0"})
        assert len(injected.devices) == 5
        assert injected.detached_hosts == ()
        assert affected_fraction(t, {"spine0"}) == 0.0

    def test_leaf_failure_detaches_hosts(self):
        t = build_spine_leaf(2, 4, 3)
        injected = inject_failures(t, {"leaf1"})
        assert set(injected.detached_hosts) == {"h3", "h4", "h5"}
        assert all(d != "leaf1" for _, d in injected.hosts)

    def test_dual_core_failure_cuts_cross_distribution(self):
        t = build_three_tier(2, 2, 2, 1)
        injected = inject_failures(t, {"core0", "core1"})
        hist = hop_histogram(injected)
        assert hist[UNREACHABLE] == 4
        assert hist[2] == 2


class TestAffectedFraction:
    def test_no_failures(self):
        assert affected_fraction(build_spine_leaf(2, 4, 1), set()) == 0.0

    def test_single_leaf_half(self):
        assert affected_fraction(build_spine_leaf(2, 4, 1), {"leaf0"}) == 0.5

    def test_single_spine_zero(self):
        assert affected_fraction(build_spine_leaf(2, 4, 1), {"spine0"}) == 0.0

    def test_dual_core_cuts_two_thirds(self):
        assert affected_fraction(build_three_tier(2, 2, 2, 1), {"core0", "core1"}) == pytest.approx(4 / 6)

    def test_no_pairs_is_zero(self):
        assert affected_fraction(build_spine_leaf(1, 1, 1), {"spine0"}) == 0.0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_failed_set(self, data):
        t = build_spine_leaf(2, 4, 2)
        ids = [d.id for d in t.devices]
        smaller = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
        extra = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
        assert affected_fraction(t, smaller | extra) >= affected_fraction(t, smaller)

    def test_matches_bfs_and_networkx_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = random_topology(rng)
            failed = random_failed_set(rng, t)
            fast = affected_fraction(t, failed)
            assert fast == affected_fraction_bfs(t, failed)
            assert fast == networkx_affected_fraction(t, failed)


class TestConnectivityKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_bfs_oracle(self, seed, rows, p):
        t = random_case(seed)
        mask = np.random.default_rng(seed + 1).random((rows, len(t.devices))) < p
        for row in mask:
            failed = failed_ids(t, row)
            assert affected_fraction(t, failed) == affected_fraction_bfs(t, failed)

    def test_dense_rows_match_bfs(self):
        t = build_three_tier(2, 4, 3, 2, dual_homed=True)
        mask = np.random.default_rng(2).random((50, len(t.devices))) < 0.2
        expected = [affected_fraction_bfs(t, failed_ids(t, row)) for row in mask]
        assert [affected_fraction(t, failed_ids(t, row)) for row in mask] == expected

    def test_all_failed_rows(self):
        for t in (build_spine_leaf(2, 4, 2), build_three_tier(2, 2, 2, 1), random_case(8)):
            mask = np.ones((3, len(t.devices)), dtype=bool)
            assert [affected_fraction(t, failed_ids(t, row)) for row in mask] == [1.0, 1.0, 1.0]

    def test_no_devices(self):
        assert affected_fraction(NO_DEVICES, set()) == 1.0

    def test_one_host(self):
        mask = np.array([[False, False, False], [True, True, True]])
        assert [affected_fraction(ONE_HOST, failed_ids(ONE_HOST, row)) for row in mask] == [0.0, 0.0]

    def assert_rows_match_bfs(self, t: Topology, counts: list[list[int]], per_call: int = 10**9) -> list[int]:
        """The kernel's pair counts for ``counts``, after checking each row against the per-pair BFS.

        The rows go to the kernel ``per_call`` at a time, so its component
        cache is shared only within each call.
        """
        total = len(t.hosts) * (len(t.hosts) - 1) // 2
        pairs = []
        for start in range(0, len(counts), per_call):
            pairs += _connected_pairs(t.twin_quotient, counts[start : start + per_call])
        assert all(type(p) is int for p in pairs)
        expected = [affected_fraction_bfs(t, first_members(t, row)) for row in counts]
        assert [(total - p) / total for p in pairs] == expected
        return pairs

    @pytest.mark.parametrize("per_call", [1, 10**9])
    def test_kernel_takes_failed_members_per_class(self, per_call):
        # one row per call shares no cached components; 10**9 passes all rows in one call
        t = build_three_tier(2, 4, 3, 2, dual_homed=True)
        q = t.twin_quotient
        rng = np.random.default_rng(4)
        counts = [[int(rng.integers(0, m + 1)) for m in q.members] for _ in range(30)]
        pairs = self.assert_rows_match_bfs(t, [[0] * q.n_classes, list(q.members)] + counts, per_call)
        # no failure keeps every pair; failing everything keeps none
        assert pairs[:2] == [len(t.hosts) * (len(t.hosts) - 1) // 2, 0]

    def test_rows_sharing_alive_classes_count_their_own_pairs(self):
        # spine-leaf (3,4,2): class 0 is 4 leaves of 2 hosts, class 1 is 3 spines.
        # Every row keeps survivors in both classes, so all share one
        # alive-class bitset, one cached component search and ...
        t = build_spine_leaf(3, 4, 2)
        rows = [[0, 0], [1, 0], [2, 2], [3, 1], [1, 2], [0, 2]]
        # ... each still counts its own pairs: 2a surviving hosts in one component
        assert self.assert_rows_match_bfs(t, rows) == [28, 15, 6, 1, 15, 28]
        # the same on a 3-tier fabric, failing all but at least one member of each class
        t = build_three_tier(2, 4, 3, 2, dual_homed=True)
        rng = np.random.default_rng(9)
        rows = [[int(rng.integers(0, m)) for m in t.twin_quotient.members] for _ in range(20)]
        assert len(set(self.assert_rows_match_bfs(t, rows))) > 1

    def test_classes_whose_neighbours_all_failed(self):
        # every spine fails: each surviving leaf keeps only its own host pair
        t = build_spine_leaf(3, 4, 2)
        assert self.assert_rows_match_bfs(t, [[0, 3], [1, 3], [3, 3], [4, 3], [4, 0]]) == [4, 3, 1, 0, 0]
        # 3-tier: without cores the distributions form a ring through the
        # dual-homed access classes, so failing two opposite ones splits it
        # in two; failing every distribution leaves each access switch alone
        t = build_three_tier(2, 4, 3, 2, dual_homed=True)
        q = t.twin_quotient
        roles = [d.role for d in t.devices]
        first = {c: roles[q.device_class.index(c)] for c in range(q.n_classes)}
        dists = [c for c in range(q.n_classes) if first[c] == "distribution"]
        cores = [c for c in range(q.n_classes) if first[c] == "core"]
        rows = [[q.members[c] if c in cores or c in (dists[0], dists[2]) else 0 for c in range(q.n_classes)]]
        rows.append([q.members[c] if first[c] == "distribution" else 0 for c in range(q.n_classes)])
        rows.append([q.members[c] if first[c] != "access" else 1 for c in range(q.n_classes)])
        self.assert_rows_match_bfs(t, rows)


class TestTwinQuotient:
    @pytest.mark.parametrize("shape", [(2, 4, 1), (2, 4, 10), (4, 32, 10), (16, 128, 4), (32, 512, 2)])
    def test_spine_leaf_is_two_classes(self, shape):
        spines, leaves, hosts_per_leaf = shape
        q = build_spine_leaf(*shape).twin_quotient
        assert q.n_classes == 2
        assert q.neighbors == (0b10, 0b01)
        # devices sort by id, so the leaves ("leaf0") come before the spines ("spine0")
        assert q.members == (leaves, spines)
        assert q.member_hosts == (hosts_per_leaf, 0)

    @pytest.mark.parametrize(
        "shape, devices, links, classes, class_links",
        [((2, 32, 16, 2), 546, 1089, 66, 129), ((2, 16, 8, 4), 146, 289, 34, 65)],
    )
    def test_dual_homed_three_tier_class_count(self, shape, devices, links, classes, class_links):
        # two cores, one class per distribution, one per pair of adjacent distributions
        cores, distributions, access_per_distribution, hosts_per_access = shape
        t = build_three_tier(*shape, dual_homed=True)
        assert (len(t.devices), len(t.links)) == (devices, links)
        q = t.twin_quotient
        assert q.n_classes == classes
        assert sum(bin(near).count("1") for near in q.neighbors) == 2 * class_links
        # each class link is in both ends' bitsets, and false twins are never linked
        pairs = {(a, b) for a, near in enumerate(q.neighbors) for b in range(q.n_classes) if near >> b & 1}
        assert pairs == {(b, a) for a, b in pairs}
        assert not any(a == b for a, b in pairs)
        # (members, hosts per member) of each class: the access switches of
        # each distribution pair, then every core and distribution alone
        assert Counter(zip(q.members, q.member_hosts)) == {
            (access_per_distribution, hosts_per_access): distributions,
            (1, 0): cores + distributions,
        }

    def test_linked_cores_stay_apart(self):
        # the two cores share every distribution neighbour but are linked:
        # true twins, whose open neighbourhoods differ
        classes = twin_classes(build_three_tier(2, 3, 2, 1))
        assert frozenset({"core0"}) in classes and frozenset({"core1"}) in classes

    def test_class_whose_neighbours_all_failed(self):
        # every leaf survives the spine, but each one on its own: of 15 host
        # pairs only the 3 that share a leaf still communicate
        t = build_spine_leaf(1, 3, 2)
        assert affected_fraction(t, {"spine0"}) == 12 / 15
        assert affected_fraction_bfs(t, {"spine0"}) == 12 / 15

    def test_hosts_on_unlinked_devices(self):
        devices = tuple(Device(f"l{i}", "leaf") for i in range(3)) + (Device("s0", "spine"),)
        t = Topology(devices, (("s0", "l2"),), (("h0", "l0"), ("h1", "l0"), ("h2", "l1"), ("h3", "l2")))
        # l0 and l1 share the empty neighbour set but carry 2 and 1 hosts
        assert twin_classes(t) == {frozenset({"l0"}), frozenset({"l1"}), frozenset({"l2"}), frozenset({"s0"})}
        assert hop_histogram(t) == {UNREACHABLE: 5, 0: 1}
        assert affected_fraction(t, set()) == 5 / 6

    def test_classes_never_mix_roles(self):
        # the hostless acc2 and core0 both sit on dist0 and dist1 alone, but
        # differ in role, so each fails with its own role's probability
        devices = (Device("core0", "core"), Device("dist0", "distribution"), Device("dist1", "distribution"))
        devices += tuple(Device(f"acc{i}", "access") for i in range(3))
        links = (("core0", "dist0"), ("core0", "dist1"), ("dist0", "acc0"), ("dist1", "acc1"))
        links += (("dist0", "acc2"), ("dist1", "acc2"))
        t = Topology(devices, links, (("h0", "acc0"), ("h1", "acc1")))
        q = t.twin_quotient
        assert q.members == (1, 1, 1, 1, 1, 1)
        assert q.member_hosts == (1, 1, 0, 0, 0, 0)
        assert frozenset({"acc2"}) in twin_classes(t) and frozenset({"core0"}) in twin_classes(t)
        assert hop_histogram(t) == hop_histogram_bfs(t) == {4: 1}

    @given(t=planted_twin_fabrics(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_moving_failures_within_a_class_keeps_the_fraction(self, t, data):
        row = np.array(data.draw(st.lists(st.booleans(), min_size=len(t.devices), max_size=len(t.devices))), dtype=bool)
        # fail other members of each class, as many as the row fails there
        classes = np.array(t.twin_quotient.device_class, dtype=int)
        moved = np.zeros_like(row)
        for c in set(t.twin_quotient.device_class):
            members = np.flatnonzero(classes == c).tolist()
            moved[data.draw(st.permutations(members))[: row[members].sum()]] = True
        got = [affected_fraction(t, failed_ids(t, r)) for r in (row, moved)]
        assert got[0].hex() == got[1].hex()
        assert got[0] == affected_fraction_bfs(t, failed_ids(t, row))

    @given(t=planted_twin_fabrics(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_planted_twins_match_oracles(self, t, seed):
        hosts = Counter(d for _, d in t.hosts)
        role = {d.id: d.role for d in t.devices}
        groups: dict[tuple[frozenset[str], int, str], set[str]] = {}
        for device, near in neighbor_sets(t).items():
            groups.setdefault((near, hosts[device], role[device]), set()).add(device)
        assert twin_classes(t) == {frozenset(g) for g in groups.values()}

        hist = hop_histogram(t)
        assert hist == hop_histogram_bfs(t)
        assert hist == networkx_hop_histogram(t)

        rows = np.random.default_rng(seed).random((4, len(t.devices))) < 0.3
        mask = np.concatenate([isolating_rows(t), rows])
        for row in mask:
            failed = failed_ids(t, row)
            assert affected_fraction(t, failed) == affected_fraction_bfs(t, failed)


def twin_free_spine_leaf() -> Topology:
    """Spine-leaf (8,28,1) where leaf j lacks the j-th pair of spines: 36 devices, 36 classes."""
    spines = [f"spine{i}" for i in range(8)]
    missing = list(itertools.combinations(spines, 2))
    devices = tuple(Device(s, "spine") for s in spines) + tuple(Device(f"leaf{j}", "leaf") for j in range(28))
    links = tuple((s, f"leaf{j}") for j, pair in enumerate(missing) for s in spines if s not in pair)
    hosts = tuple((f"h{j}", f"leaf{j}") for j in range(28))
    return Topology(devices, links, hosts)


class TestTwinFreeFabric:
    """A dense fabric whose quotient is itself: wide BFS levels with many repeated neighbours."""

    FABRIC = twin_free_spine_leaf()

    def test_no_twins(self):
        assert self.FABRIC.twin_quotient.n_classes == len(self.FABRIC.devices) == 36
        assert len(self.FABRIC.links) == 28 * 6

    def test_hop_histogram_matches_oracles(self):
        hist = hop_histogram(self.FABRIC)
        assert hist == hop_histogram_bfs(self.FABRIC)
        assert hist == networkx_hop_histogram(self.FABRIC)

    def test_affected_fractions_match_bfs(self):
        t = self.FABRIC
        rows = np.random.default_rng(6).random((20, len(t.devices))) < np.linspace(0.0, 0.6, 20)[:, None]
        mask = np.concatenate([isolating_rows(t), rows])
        for row in mask:
            failed = failed_ids(t, row)
            assert affected_fraction(t, failed) == affected_fraction_bfs(t, failed)


class TestTableQuantiles:
    """``_table_quantiles`` of a (value, count) table against the weighted CDF of the repeated values."""

    QS = (0.5, 0.1, 0.01)

    def assert_matches_numpy(self, values, counts):
        table = sorted(zip(np.asarray(values).tolist(), np.asarray(counts).tolist()))
        got = np.array(_table_quantiles(table, self.QS))
        sample = np.repeat(values, counts)
        assert got.tobytes() == np.quantile(sample, self.QS, method="inverted_cdf").tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_random_arrays(self, seed, n):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, n) ** rng.integers(1, 6, n)
        self.assert_matches_numpy(rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8), counts)
        self.assert_matches_numpy(-rng.pareto(1.5, n), counts)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_tied_arrays(self, seed, n):
        # equal values in separate rows of the table, as rows with equal harm give
        rng = np.random.default_rng(seed)
        self.assert_matches_numpy(rng.choice(-rng.random(3), n), rng.integers(1, 50, n))

    def test_one_and_two_values(self):
        for values in ([-0.25], [0.0], [-1.0, 0.0], [-0.3, -0.1], [-2.0, -2.0]):
            self.assert_matches_numpy(values, [1] * len(values))
            self.assert_matches_numpy(values, [7] + [1] * (len(values) - 1))


class TestLongDiameter:
    """A 600-device chain: hundreds of narrow BFS levels."""

    CHAIN = access_chain(300)

    def test_hop_histogram_matches_bfs(self):
        hist = hop_histogram(self.CHAIN)
        assert hist == hop_histogram_bfs(self.CHAIN)
        assert max(hist) == 598

    def test_affected_fractions_match_bfs(self):
        rng = np.random.default_rng(4)
        mask = rng.random((50, len(self.CHAIN.devices))) < rng.uniform(0.0, 0.05, (50, 1))
        mask[0] = False  # the intact chain: one component spanning every device
        got = [affected_fraction(self.CHAIN, failed_ids(self.CHAIN, row)) for row in mask]
        assert got[0] == 0.0
        for row, value in zip(mask, got):
            assert value == affected_fraction_bfs(self.CHAIN, failed_ids(self.CHAIN, row))

    def test_shuffled_ids(self):
        # device indices scattered along the chain, so BFS order differs from index order
        chain = access_chain(300, seed=1)
        assert hop_histogram(chain) == hop_histogram_bfs(chain)
        mask = np.zeros((4, len(chain.devices)), dtype=bool)
        mask[[1, 2, 3], [7, 300, 555]] = True
        for row in mask:
            failed = failed_ids(chain, row)
            assert affected_fraction(chain, failed) == affected_fraction_bfs(chain, failed)


class TestFailureProbabilities:
    """The role -> probability mapping that ``failure_harm_mc`` reads."""

    def test_validation(self):
        h = HarmParams(1.0, 1.5)
        for probs, message in [
            ({"chassis": 0.1}, "unknown role 'chassis' in failure model"),
            ({"default": 0.1}, "unknown role 'default' in failure model"),
            ({"core": 1.5}, "failure probability for 'core' must be in [0, 1], got 1.5"),
            ({"leaf": -0.1}, "failure probability for 'leaf' must be in [0, 1], got -0.1"),
            ({"spine": math.nan}, "failure probability for 'spine' must be in [0, 1], got nan"),
            # in the mapping's order, each role before its probability
            ({"core": 1.5, "chassis": 0.1}, "failure probability for 'core' must be in [0, 1], got 1.5"),
            ({"chassis": 1.5, "core": 0.1}, "unknown role 'chassis' in failure model"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                failure_harm_mc(ONE_HOST, probs, h, 100, seed=1)

    def test_probability_reported_before_trials_and_seed(self):
        with pytest.raises(ValueError, match=r"^failure probability for 'core' must be in \[0, 1\], got 1.5$"):
            failure_harm_mc(ONE_HOST, {"core": 1.5}, HarmParams(1.0, 1.5), 0, seed=-1)

    def test_mapping_is_read_not_kept(self):
        # a read-only view reads like the dict, and neither is changed by the call
        t, h = build_spine_leaf(2, 3, 1), HarmParams(1.0, 1.5)
        probs = {"spine": 0.1, "leaf": 0.2}
        stats = failure_harm_mc(t, probs, h, 500, seed=3)
        assert failure_harm_mc(t, types.MappingProxyType(probs), h, 500, seed=3) == stats
        assert probs == {"spine": 0.1, "leaf": 0.2}
        # a value changed after a call is checked again by the next one
        probs["leaf"] = 7.0
        with pytest.raises(ValueError, match=r"^failure probability for 'leaf' must be in \[0, 1\], got 7.0$"):
            failure_harm_mc(t, probs, h, 500, seed=3)

    def test_missing_roles_never_fail(self):
        # spines always fail and the omitted leaves never do: of the 28 host
        # pairs on 4 leaves of 2 hosts, only the 4 that share a leaf survive
        h = HarmParams(1.0, 1.5)
        stats = failure_harm_mc(build_spine_leaf(2, 4, 2), {"spine": 1.0}, h, 64, seed=1)
        assert (stats.expected_harm, stats.distinct_patterns) == (harm(h, 24 / 28), 1)
        t = build_spine_leaf(2, 4, 1)
        omitted = failure_harm_mc(t, {"leaf": 0.2}, h, 1000, seed=1)
        assert omitted == failure_harm_mc(t, {"leaf": 0.2, "spine": 0.0}, h, 1000, seed=1)


class TestFailureHarmMc:
    def test_zero_probability_zero_harm(self):
        stats = failure_harm_mc(
            build_spine_leaf(2, 4, 1), dict.fromkeys(ROLES, 0.0), HarmParams(1.0, 1.5), 1000, seed=1
        )
        assert stats.expected_harm == 0.0
        assert stats.quantiles == {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_subnormal_probability_stays_finite(self):
        # log1p(-5e-324) is subnormal, so an unclamped skip overflows float
        stats = failure_harm_mc(
            build_spine_leaf(2, 4, 1), dict.fromkeys(ROLES, 5e-324), HarmParams(1.0, 1.5), 1000, seed=1
        )
        assert (stats.expected_harm, stats.distinct_patterns) == (0.0, 1)

    def test_certain_failure_full_harm(self):
        stats = failure_harm_mc(
            build_spine_leaf(2, 4, 1), dict.fromkeys(ROLES, 1.0), HarmParams(2.0, 1.5), 500, seed=1
        )
        assert stats.expected_harm == -2.0
        assert stats.quantiles["p99"] == -2.0

    def test_deterministic_per_seed(self):
        t = build_spine_leaf(2, 3, 1)
        probs = dict.fromkeys(ROLES, 0.1)
        a = failure_harm_mc(t, probs, HarmParams(1.0, 1.5), 5000, seed=4)
        b = failure_harm_mc(t, probs, HarmParams(1.0, 1.5), 5000, seed=4)
        assert a == b

    def test_matches_enumeration(self):
        t = build_spine_leaf(2, 2, 1)
        probs = dict.fromkeys(ROLES, 0.1)
        h = HarmParams(1.0, 1.5)
        exact_mean, exact_std = exhaustive_failure_harm(t, probs, h)
        trials = 50_000
        stats = failure_harm_mc(t, probs, h, trials, seed=42)
        assert abs(stats.expected_harm - exact_mean) <= 3.0 * exact_std / math.sqrt(trials)

    def test_enumeration_omitted_roles_never_fail(self):
        # the one host pair of two single-host leaves is cut whenever both spines fail
        t, h = build_spine_leaf(2, 2, 1), HarmParams(1.0, 1.5)
        assert exhaustive_failure_harm(t, {"spine": 1.0}, h) == (-1.0, 0.0)
        omitted = exhaustive_failure_harm(t, {"leaf": 0.2}, h)
        assert omitted == exhaustive_failure_harm(t, {"leaf": 0.2, "spine": 0.0, "core": 0.9}, h)

    def test_no_devices_full_harm(self):
        stats = failure_harm_mc(NO_DEVICES, dict.fromkeys(ROLES, 0.3), HarmParams(1.0, 1.5), 100, seed=1)
        assert stats.expected_harm == -1.0
        assert stats.quantiles == {"p50": -1.0, "p90": -1.0, "p99": -1.0}

    def test_one_host_no_harm(self):
        stats = failure_harm_mc(ONE_HOST, dict.fromkeys(ROLES, 0.5), HarmParams(1.0, 1.5), 100, seed=1)
        assert stats.expected_harm == 0.0

    def test_large_fabric_values_are_pinned(self):
        # 20,000 trials on fabrics of 144 and 146 devices; each pin is checked
        # against the exact mean or a trial-by-trial rebuild of its stream
        t = build_spine_leaf(16, 128, 4)
        probs, h = dict.fromkeys(ROLES, 0.0005), HarmParams(1.0, 1.5)
        stats = failure_harm_mc(t, probs, h, 20_000, seed=2)
        assert stats.expected_harm == -0.00012489160521036335
        assert stats.quantiles == {"p50": 0.0, "p90": 0.0, "p99": -0.0019445314486869877}
        exact_mean, exact_std = spine_leaf_exact_harm(16, 128, 4, 0.0005, h)
        assert abs(stats.expected_harm - exact_mean) <= 3.0 * exact_std / math.sqrt(20_000)

        t = build_three_tier(2, 16, 8, 4, dual_homed=True)
        probs, h = dict.fromkeys(ROLES, 0.002), HarmParams(1.0, 2.0)
        stats = failure_harm_mc(t, probs, h, 20_000, seed=8)
        assert stats.expected_harm == -8.120315824477235e-05
        assert stats.quantiles == {"p50": 0.0, "p90": -0.0002427094177753082, "p99": -0.0009632307450975793}
        # the same stream drawn trial by trial, each distinct failed set measured on its own
        fractions = {}
        values = []
        for failed in skip_stream_failures(t, probs, 20_000, seed=8):
            key = frozenset(failed)
            if key not in fractions:
                fractions[key] = affected_fraction(t, failed)
            values.append(harm(h, fractions[key]))
        assert stats.expected_harm == math.fsum(values) / 20_000
        q50, q90, q99 = np.quantile(values, [0.5, 0.1, 0.01], method="inverted_cdf")
        assert stats.quantiles == {"p50": q50, "p90": q90, "p99": q99}

    @pytest.mark.parametrize(
        "t, most_rows",
        # at p=0.05 nearly every trial fails a distinct set of devices, but
        # spine-leaf has few distinct numbers of failed leaves and spines
        [(build_spine_leaf(16, 128, 4), 2000 / 4), (build_three_tier(2, 8, 4, 2, dual_homed=True), 2000)],
        ids=["spine-leaf", "three-tier"],
    )
    def test_kernel_sees_each_distinct_row_once(self, monkeypatch, t, most_rows):
        class_fractions, components = topology._class_fractions, topology._components
        calls, searches = [], []

        def spy(t, failed):
            failed = list(failed)
            calls.append(failed)
            return class_fractions(t, failed)

        def search_spy(near, alive):
            searches.append(alive)
            return components(near, alive)

        monkeypatch.setattr(topology, "_class_fractions", spy)
        monkeypatch.setattr(topology, "_components", search_spy)
        probs = dict.fromkeys(ROLES, 0.05)
        failure_harm_mc(t, probs, HarmParams(1.0, 1.5), 2000, seed=3)
        assert len(calls) == 1
        rows = {class_counts(t, failed) for failed in skip_stream_failures(t, probs, 2000, seed=3)}
        assert sorted(map(tuple, calls[0])) == sorted(rows)
        assert len(rows) <= most_rows
        # one component search per distinct bitset of the classes that keep a survivor
        members = t.twin_quotient.members
        alive = {sum(1 << j for j, (m, f) in enumerate(zip(members, row)) if m > f) for row in rows}
        assert sorted(searches) == sorted(alive)

    def test_certain_and_impossible_roles(self, monkeypatch):
        # cores always fail and distributions never: only access switches draw
        t = build_three_tier(2, 4, 3, 1, dual_homed=True)
        q = t.twin_quotient
        tally_failures = topology._tally_failures
        tallies = []

        def spy(*args):
            tallies.append(tally_failures(*args))
            return tallies[-1]

        monkeypatch.setattr(topology, "_tally_failures", spy)
        h, trials = HarmParams(1.0, 1.5), 4000
        failure_harm_mc(t, {"core": 1.0, "distribution": 0.0, "access": 0.3}, h, trials, seed=5)
        failure_harm_mc(t, {"access": 0.3}, h, trials, seed=5)
        certain, drawn = tallies
        probability = {"core": 1.0, "distribution": 0.0, "access": 0.3}
        p_class = {c: probability[d.role] for d, c in zip(t.devices, q.device_class)}
        for c, members in enumerate(q.members):
            mean = sum(row[c] * count for row, count in certain.items()) / trials
            p = p_class[c]
            assert abs(mean - members * p) <= 4.0 * math.sqrt(members * p * (1 - p) / trials)
        # p = 1 draws nothing: the access failures are the same stream with or without it
        cores = {c for c, p in p_class.items() if p == 1.0}
        assert Counter(
            {tuple(0 if c in cores else f for c, f in enumerate(row)): n for row, n in certain.items()}
        ) == Counter({tuple(row): n for row, n in drawn.items()})

    def test_class_counts_past_one_byte(self):
        # 300 leaves in one class: rows are kept as tuples, and ~270 of them fail
        t = build_spine_leaf(2, 300, 1)
        probs, h = {"leaf": 0.9}, HarmParams(1.0, 1.5)
        stats = failure_harm_mc(t, probs, h, 40, seed=3)
        trials = skip_stream_failures(t, probs, 40, seed=3)
        assert max(len(failed) for failed in trials) > 255
        values = [harm(h, affected_fraction(t, failed)) for failed in trials]
        assert stats.expected_harm == math.fsum(values) / 40
        assert stats.distinct_patterns == len({class_counts(t, failed) for failed in trials})

    def test_std_error_is_sample_sd_over_root_trials(self):
        t = build_three_tier(2, 3, 2, 2, dual_homed=True)
        probs, h = dict.fromkeys(ROLES, 0.15), HarmParams(2.0, 1.5)
        stats = failure_harm_mc(t, probs, h, 500, seed=4)
        values = [harm(h, affected_fraction_bfs(t, failed)) for failed in skip_stream_failures(t, probs, 500, seed=4)]
        assert stats.trials == 500
        assert stats.std_error == pytest.approx(statistics.stdev(values) / math.sqrt(500), rel=1e-12)
        assert failure_harm_mc(t, probs, h, 1, seed=4).std_error == 0.0

    def test_negative_seed_rejected(self):
        # random.Random would silently take abs(seed)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            failure_harm_mc(ONE_HOST, dict.fromkeys(ROLES, 0.5), HarmParams(1.0, 1.5), 100, seed=-1)

    def test_too_many_expected_failures_rejected(self):
        t = build_spine_leaf(2, 4, 1)
        h = HarmParams(1.0, 1.5)
        with pytest.raises(ValueError, match="^1000000000000000 trials would fail"):
            failure_harm_mc(t, dict.fromkeys(ROLES, 0.05), h, 10**15, seed=1)
        # failures, not trials, are what is drawn: a huge count of trials with none is exact
        stats = failure_harm_mc(t, dict.fromkeys(ROLES, 0.0), h, 10**15, seed=1)
        assert (stats.expected_harm, stats.distinct_patterns, stats.std_error) == (0.0, 1, 0.0)

    def test_matches_one_shot_per_pattern_recompute(self):
        # the same skip stream drawn trial by trial, harm evaluated per trial by the BFS oracle
        t = build_three_tier(2, 3, 2, 2, dual_homed=True)
        probs = dict.fromkeys(ROLES, 0.15)
        h = HarmParams(2.0, 1.5)
        trials = skip_stream_failures(t, probs, 4000, seed=9)
        values = [harm(h, affected_fraction_bfs(t, failed)) for failed in trials]
        stats = failure_harm_mc(t, probs, h, 4000, seed=9)
        assert stats.expected_harm == math.fsum(values) / 4000
        q50, q90, q99 = np.quantile(values, [0.5, 0.1, 0.01], method="inverted_cdf")
        assert stats.quantiles == {"p50": q50, "p90": q90, "p99": q99}
        assert stats.distinct_patterns == len({class_counts(t, failed) for failed in trials})

    def test_quantiles_ordered_by_severity(self):
        stats = failure_harm_mc(
            build_spine_leaf(2, 8, 1), dict.fromkeys(ROLES, 0.1), HarmParams(1.0, 1.5), 20_000, seed=2
        )
        q = stats.quantiles
        assert q["p99"] <= q["p90"] <= q["p50"] <= 0.0
        assert q["p99"] < 0.0  # 1-in-100 severity is a real loss here
        assert stats.expected_harm < 0.0


class TestSerialization:
    def test_round_trip_spine_leaf(self):
        base = build_spine_leaf(2, 4, 3)
        tags = {"leaf0": "data-center", "leaf1": "border", "leaf2": "dmz", "leaf3": "campus"}
        t = Topology([Device(d.id, d.role, tags.get(d.id)) for d in base.devices], base.links, base.hosts)
        assert {d.tag for d in t.devices} == {None, *tags.values()}
        assert parse_topology(serialize_topology(t)) == t

    def test_round_trip_three_tier(self):
        t = build_three_tier(2, 3, 2, 2, dual_homed=True)
        assert parse_topology(serialize_topology(t)) == t

    def test_round_trip_with_detached_hosts(self):
        t = inject_failures(build_spine_leaf(2, 4, 2), {"leaf2"})
        assert parse_topology(serialize_topology(t)) == t

    def test_emit_is_deterministic(self):
        t = build_three_tier(2, 2, 2, 1)
        assert serialize_topology(t) == serialize_topology(parse_topology(serialize_topology(t)))

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_topology("leaf0 leaf\n")

    def test_comments_and_blanks_ignored(self):
        text = "topology/1\n\n# a comment\nl0 leaf\ns0 spine\ns0 -- l0\nhost h0 @ l0\n"
        t = parse_topology(text)
        assert len(t.devices) == 2 and t.hosts == (("h0", "l0"),)

    def test_malformed_lines_rejected(self):
        for bad in (
            "topology/1\nl0 leaf extra words here\n",
            "topology/1\nhost h0 on l0\n",
            "topology/1\nl0 router\n",
        ):
            with pytest.raises(ValueError):
                parse_topology(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("topology/1\n\n# c\nl0 leaf extra words here\n", "line 4: malformed line 'l0 leaf extra words here'"),
            ("\n# c\ntopology/1\n  \n\t# d\nhost h0 on l0\n", "line 6: malformed host line 'host h0 on l0'"),
            ("topology/1\r\n\r\n  host h0  @ l0 x  \r\n", "line 3: malformed host line 'host h0  @ l0 x'"),
        ],
    )
    def test_errors_name_the_line_of_the_file(self, text, message):
        # blank and comment lines count: the number is the line's own in the file
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_topology(text)

    @given(t=planted_twin_fabrics(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_line_order_parses_to_the_same_topology(self, t, data):
        # shuffled lines, link ends either way round, blank and comment lines
        # anywhere (before the header too): the canonical topology again
        header, *body = serialize_topology(t).splitlines()
        body = data.draw(st.permutations(body))
        for i, line in enumerate(body):
            a, dash, *b = line.split()
            if dash == "--" and data.draw(st.booleans()):
                body[i] = f"{b[0]} -- {a}"
        filler = st.lists(st.sampled_from(["", "  ", "\t", "# note", "  # spine0 -- leaf0", "#"]), max_size=2)
        lines = data.draw(filler) + [header]
        for line in body:
            lines += data.draw(filler) + [line]
        parsed = parse_topology("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])))
        assert parsed == t
        assert serialize_topology(parsed) == serialize_topology(t)

    @given(t=planted_twin_fabrics(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_link_repeated_reversed_anywhere_is_a_duplicate(self, t, data):
        if not t.links:
            return
        a, b = data.draw(st.sampled_from(t.links))
        lines = serialize_topology(t).splitlines()
        lines.insert(data.draw(st.integers(1, len(lines))), f"{b} -- {a}")
        with pytest.raises(ValueError, match=f"^{re.escape(f'duplicate link {a!r} -- {b!r}')}$"):
            parse_topology("\n".join(lines))

    # one fault each, added to or removed from a valid file, and the exact error it raises
    VALIDATE_FAULTS = [
        (SPINE_LEAF, "leaf1 leaf", None, "duplicate device id 'leaf1'"),
        (SPINE_LEAF, "core0 core", None, "cannot mix 3-tier roles with spine/leaf roles in one topology"),
        (SPINE_LEAF, "leaf1 -- leaf1", None, "self-link on 'leaf1'"),
        (SPINE_LEAF, "spine1 -- leaf0", None, "duplicate link 'leaf0' -- 'spine1'"),
        (SPINE_LEAF, "spine0 -- leaf9", None, "link references unknown device 'leaf9'"),
        (SPINE_LEAF, "leaf0 -- leaf1", None, "spine-leaf form allows only spine--leaf links, got 'leaf0' -- 'leaf1'"),
        (SPINE_LEAF, "spine0 -- spine1", None, "spine-leaf form allows only spine--leaf links, got 'spine0' -- 'spine1'"),
        (THREE_TIER, "acc0 -- core1", None, "3-tier form forbids link 'acc0' -- 'core1' (['access', 'core'])"),
        (THREE_TIER, "acc0 -- acc1", None, "3-tier form forbids link 'acc0' -- 'acc1' (['access'])"),
        (THREE_TIER, "core2 core", None, "a 3-tier design cannot have more than 2 core switches"),
        (THREE_TIER, None, "core0 -- core1", "two cores must be linked to each other"),
        (SPINE_LEAF, "host h#9 @ leaf0", None, "invalid host id 'h#9'"),
        (SPINE_LEAF, "host h1 @ leaf0", None, "duplicate host id 'h1'"),
        (SPINE_LEAF, "host h9 @ leaf9", None, "host 'h9' attached to unknown device 'leaf9'"),
        (SPINE_LEAF, "host h9 @ spine0", None, "host 'h9' must attach to an access or leaf device, not 'spine'"),
        (SPINE_LEAF, "host h-9 detached", None, None),
        (SPINE_LEAF, "host h#9 detached", None, "invalid host id 'h#9'"),
        (SPINE_LEAF, "host h1 detached", None, "host 'h1' is both attached and detached"),
    ]

    @pytest.mark.parametrize("base, added, removed, message", VALIDATE_FAULTS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_each_validation_error_fires_alone(self, base, added, removed, message, seed):
        header, *body = serialize_topology(base).splitlines()
        body = [line for line in body if line != removed] + ([added] if added else [])
        random.Random(seed).shuffle(body)
        text = "\n".join([header, *body])
        if message is None:  # the control: a valid line changes nothing but itself
            assert parse_topology(text).detached_hosts == ("h-9",)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_topology(text)

    def test_parse_peak_memory(self):
        # 16,384 links: with shared id strings and no per-link copies the parse
        # peaks near 3 MB; a copy of every link and its two ids costs over 6 MB
        text = serialize_topology(build_spine_leaf(32, 512, 2))
        tracemalloc.start()
        try:
            parse_topology(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_500_000
