"""Fabric topologies, hop metrics, and fault-domain analysis.

Two forms are supported: the classic 3-tier design (core / distribution /
access, at most two interconnected cores) and the 2-layer spine-leaf fabric
(complete bipartite, no spine-spine or leaf-leaf links).  Hosts attach to
access or leaf devices.  Failures remove whole devices; ``affected_fraction``
measures the share of host pairs that lose connectivity, and
``failure_harm_mc`` feeds that fraction into the harm transform.

Graph work runs in plain Python on the false-twin quotient that each
``Topology`` caches, next to its device -> index map.  Devices with the same
role, neighbour set and number of hosts are false twins; the quotient has
one node per class of them, which is ``members`` identical devices with
``member_hosts`` hosts each, and one link per linked class pair.  Twins are
never linked to each other, and linked classes are linked member to member,
so the quotient keeps connectivity and hop counts exactly: spine-leaf is 2
nodes and 1 link at any size, and a graph with no twins is its own quotient.
Each class's neighbour classes are held as one ``int`` bitset.

Every graph query runs on one breadth-first search, ``_levels``, over the
quotient.  The connectivity kernel takes rows of failed members per class,
forms each row's bitset of classes that keep a survivor, finds each
distinct bitset's components once per call and counts each row's exact
connected host pairs from its own alive counts.  ``failure_harm_mc`` draws
only the failures: the devices that share a failure probability form one
Bernoulli stream of trials x devices cells, walked from failure to failure
by geometric skips, so its cost grows with the failures drawn, not the
cells.  It tallies the trials on their per-class counts, so the kernel sees
each distinct row once, in one call, and the mean and weighted-CDF
quantiles come from that (harm, count) table.  ``hop_histogram`` searches
from each host-bearing class and weights each class pair by its host
pairs.  Nothing here imports NumPy.  The per-pair breadth-first searches
over devices that check these results live in ``fragrisk.verify`` only.

Topologies serialize to a line-oriented text format (version header
``topology/1``)::

    topology/1
    <id> <role> [<tag>]      one line per device
    <id> -- <id>             one line per link
    host <id> @ <device>     one line per attached host
    host <id> detached       one line per detached host

Device roles are core, distribution, access, spine, leaf; only leaves may
carry a function tag (data-center, border, dmz, sdn, campus).  Ids match
``[A-Za-z0-9_.-]+`` in whole and may not be the reserved word ``host``.
Parsing the emitted form reproduces the topology exactly.

``parse_topology`` reads the text in one streaming pass over its lines and
keeps one string per device id, so every link tuple shares the device ids'
strings instead of holding two of its own.  ``Topology`` keeps each link
tuple already in (lower id, higher id) order and sorts the links in place,
which for canonical input such as ``serialize_topology`` output is one pass
of comparisons that moves nothing.  Validation then walks the sorted links
once: roles through one id -> role dict and a set of allowed role pairs,
duplicates as equal neighbours.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, compress
from operator import floordiv, mul, sub
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import _Record

if TYPE_CHECKING:
    from .harm import HarmParams

ROLES = ("core", "distribution", "access", "spine", "leaf")
LEAF_TAGS = ("data-center", "border", "dmz", "sdn", "campus")
TIER_ROLES = frozenset({"core", "distribution", "access"})
FABRIC_ROLES = frozenset({"spine", "leaf"})
HOST_ROLES = frozenset({"access", "leaf"})

#: hop_histogram bucket for host pairs with no path between their devices
UNREACHABLE = -1

FORMAT_HEADER = "topology/1"

# failure_harm_mc refuses runs expected to fail more devices than this in all
_MAX_EXPECTED_FAILURES = 10**7
# the most devices + hosts + links a builder makes; each costs about 3 us and 0.4 KB
MAX_FABRIC_ELEMENTS = 10**6

_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")  # whole id, by fullmatch

# the (role, role) pairs a link may join, in either order
_FABRIC_LINK_ROLES = frozenset({("spine", "leaf"), ("leaf", "spine")})
_TIER_LINK_ROLES = frozenset(
    {
        ("core", "core"),
        ("core", "distribution"),
        ("distribution", "core"),
        ("distribution", "access"),
        ("access", "distribution"),
    }
)


class Device(_Record):
    """A switch with a role; leaves may carry a descriptive function tag.  Read-only; equal by value."""

    id: str
    role: str
    tag: str | None

    def __init__(self, id: str, role: str, tag: str | None = None):
        if not _ID_RE.fullmatch(id) or id == "host":
            raise ValueError(f"invalid device id {id!r}")
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
        if tag is not None:
            if role != "leaf":
                raise ValueError(f"only leaf devices may carry a tag, got {role!r}")
            if tag not in LEAF_TAGS:
                raise ValueError(f"unknown leaf tag {tag!r}; expected one of {LEAF_TAGS}")
        self.__dict__.update(id=id, role=role, tag=tag)


class TwinQuotient(_Record):
    """A topology's false-twin classes and the links between them; read-only.

    ``device_class[i]`` is the class of device i.  Class j is
    ``members[j]`` devices that each carry ``member_hosts[j]`` hosts, so a
    failure pattern acts on the quotient only through how many members of
    each class it fails.  ``neighbors[j]`` is the bitset of class j's
    neighbour classes (bit i set when i -- j is a link).
    Every field is a tuple of ``int``.
    """

    device_class: tuple[int, ...]
    members: tuple[int, ...]
    member_hosts: tuple[int, ...]
    neighbors: tuple[int, ...]

    def __init__(self, device_class, members, member_hosts, neighbors):
        self.__dict__.update(
            device_class=device_class, members=members, member_hosts=member_hosts, neighbors=neighbors
        )

    @property
    def n_classes(self) -> int:
        return len(self.members)


class Topology(_Record):
    """Immutable device/link graph with attached hosts.

    Construction canonicalizes ordering (devices by id, links as sorted
    pairs) and validates the form invariants, so equal topologies compare
    equal regardless of input order.
    """

    devices: tuple[Device, ...]
    links: tuple[tuple[str, str], ...]
    hosts: tuple[tuple[str, str], ...]
    detached_hosts: tuple[str, ...]

    def __init__(
        self,
        devices: Iterable[Device],
        links: Iterable[tuple[str, str]],
        hosts: Iterable[tuple[str, str]],
        detached_hosts: Iterable[str] = (),
    ):
        # each link as (lower id, higher id), reusing a tuple already in that
        # order; sorting sorted links is one pass of comparisons and no moves
        links = [
            pair if type(pair) is tuple and len(pair) == 2 and pair[0] <= pair[1] else tuple(sorted(pair))
            for pair in links
        ]
        links.sort()
        self.__dict__.update(
            devices=tuple(sorted(devices, key=lambda d: d.id)),
            links=tuple(links),
            hosts=tuple(sorted((str(h), str(d)) for h, d in hosts)),
            detached_hosts=tuple(sorted(str(h) for h in detached_hosts)),
        )
        self._validate()

    def _validate(self) -> None:
        role_of = {d.id: d.role for d in self.devices}
        if len(role_of) != len(self.devices):  # devices are sorted, so a repeat follows its first
            repeat = next(b.id for a, b in zip(self.devices, self.devices[1:]) if a.id == b.id)
            raise ValueError(f"duplicate device id {repeat!r}")

        roles = set(role_of.values())
        if roles & TIER_ROLES and roles & FABRIC_ROLES:
            raise ValueError("cannot mix 3-tier roles with spine/leaf roles in one topology")

        fabric = bool(roles & FABRIC_ROLES)
        allowed = _FABRIC_LINK_ROLES if fabric else _TIER_LINK_ROLES
        previous = None
        for pair in self.links:
            a, b = pair
            if a == b:
                raise ValueError(f"self-link on {a!r}")
            if pair == previous:  # links are sorted, so a repeat follows its first
                raise ValueError(f"duplicate link {a!r} -- {b!r}")
            previous = pair
            ends = (role_of.get(a), role_of.get(b))
            if ends not in allowed:
                for end in pair:
                    if end not in role_of:
                        raise ValueError(f"link references unknown device {end!r}")
                if fabric:
                    raise ValueError(f"spine-leaf form allows only spine--leaf links, got {a!r} -- {b!r}")
                raise ValueError(f"3-tier form forbids link {a!r} -- {b!r} ({sorted(set(ends))})")

        cores = [d for d, role in role_of.items() if role == "core"]
        if len(cores) > 2:
            raise ValueError("a 3-tier design cannot have more than 2 core switches")
        if len(cores) == 2 and tuple(cores) not in self.links:  # devices are sorted, so cores are too
            raise ValueError("two cores must be linked to each other")

        host_ids = set()
        for h, dev in self.hosts:
            if not _ID_RE.fullmatch(h) or h == "host":
                raise ValueError(f"invalid host id {h!r}")
            if h in host_ids:
                raise ValueError(f"duplicate host id {h!r}")
            host_ids.add(h)
            if dev not in role_of:
                raise ValueError(f"host {h!r} attached to unknown device {dev!r}")
            if role_of[dev] not in HOST_ROLES:
                raise ValueError(f"host {h!r} must attach to an access or leaf device, not {role_of[dev]!r}")
        for h in self.detached_hosts:
            if not _ID_RE.fullmatch(h) or h == "host":
                raise ValueError(f"invalid host id {h!r}")
            if h in host_ids:
                raise ValueError(f"host {h!r} is both attached and detached")
            host_ids.add(h)

    @cached_property
    def device_index(self) -> dict[str, int]:
        """Position of each device id in ``devices``."""
        return {d.id: i for i, d in enumerate(self.devices)}

    @cached_property
    def twin_quotient(self) -> TwinQuotient:
        """The false-twin quotient: one node per set of devices with equal neighbours, host counts and roles.

        Devices are grouped by (sorted neighbour indices, host count, role),
        so every member of a class fails with one probability; classes are
        numbered in order of their first device, and devices of one role
        with no links and equal host counts share the empty neighbour tuple,
        so they form one class.  False twins are never linked to each other,
        and a link between two classes means every member of one is linked
        to every member of the other.
        """
        index = self.device_index
        n = len(self.devices)
        ends = [(index[a], index[b]) for a, b in self.links]
        near: list[list[int]] = [[] for _ in range(n)]
        for a, b in ends:
            near[a].append(b)
            near[b].append(a)
        hosts = [0] * n
        for _, d in self.hosts:
            hosts[index[d]] += 1
        ids: dict[tuple[tuple[int, ...], int, str], int] = {}
        device_class = tuple(
            ids.setdefault((tuple(sorted(v)), h, d.role), len(ids)) for v, h, d in zip(near, hosts, self.devices)
        )
        members = [0] * len(ids)
        for c in device_class:
            members[c] += 1
        neighbors = [0] * len(ids)
        for a, b in {(device_class[a], device_class[b]) for a, b in ends}:
            neighbors[a] |= 1 << b
            neighbors[b] |= 1 << a
        return TwinQuotient(device_class, tuple(members), tuple(h for _, h, _ in ids), tuple(neighbors))


def _check_fabric_size(devices: int, hosts: int, links: int) -> None:
    """Refuse, before anything is built, a fabric above ``MAX_FABRIC_ELEMENTS``."""
    if devices + hosts + links > MAX_FABRIC_ELEMENTS:
        raise ValueError(
            f"a built fabric may have at most {MAX_FABRIC_ELEMENTS:,} devices, hosts and links in all, "
            f"got {devices} devices, {hosts} hosts and {links} links"
        )


def build_three_tier(
    cores: int,
    distributions: int,
    access_per_distribution: int,
    hosts_per_access: int,
    dual_homed: bool = False,
) -> Topology:
    """Classic 3-tier fabric: cores on top, then distribution, then access.

    Every distribution links to every core; with two cores the mandatory
    core-core link is added.  Each access device homes to one distribution
    (or to two adjacent ones with ``dual_homed``), and carries
    ``hosts_per_access`` hosts.  At most two cores are allowed.
    """
    if cores not in (1, 2):
        raise ValueError(
            f"a 3-tier design cannot have more than 2 core switches (and needs at least 1), got {cores}"
        )
    if distributions < 1 or access_per_distribution < 1 or hosts_per_access < 1:
        raise ValueError("distributions, access_per_distribution, hosts_per_access must all be >= 1")
    access = distributions * access_per_distribution
    _check_fabric_size(
        cores + distributions + access,
        access * hosts_per_access,
        (cores == 2) + distributions * cores + access * (2 if dual_homed and distributions >= 2 else 1),
    )

    devices = [Device(f"core{i}", "core") for i in range(cores)]
    devices += [Device(f"dist{j}", "distribution") for j in range(distributions)]
    links = []
    if cores == 2:
        links.append(("core0", "core1"))
    for j in range(distributions):
        for i in range(cores):
            links.append((f"core{i}", f"dist{j}"))

    hosts = []
    host_n = 0
    acc_n = 0
    for j in range(distributions):
        for _ in range(access_per_distribution):
            acc = f"acc{acc_n}"
            devices.append(Device(acc, "access"))
            links.append((f"dist{j}", acc))
            if dual_homed and distributions >= 2:
                links.append((f"dist{(j + 1) % distributions}", acc))
            for _ in range(hosts_per_access):
                hosts.append((f"h{host_n}", acc))
                host_n += 1
            acc_n += 1
    return Topology(tuple(devices), tuple(links), tuple(hosts))


def build_spine_leaf(spines: int, leaves: int, hosts_per_leaf: int) -> Topology:
    """2-layer fabric: every spine links to every leaf and to nothing else.

    Hosts attach ``hosts_per_leaf`` per leaf.  Leaves are built untagged; a
    tagged leaf comes from a topology file or a ``Device`` built with a tag.
    """
    if spines < 1 or leaves < 1 or hosts_per_leaf < 1:
        raise ValueError("spines, leaves, hosts_per_leaf must all be >= 1")
    _check_fabric_size(spines + leaves, leaves * hosts_per_leaf, spines * leaves)

    devices = [Device(f"spine{i}", "spine") for i in range(spines)]
    devices += [Device(f"leaf{j}", "leaf") for j in range(leaves)]
    links = [(f"spine{i}", f"leaf{j}") for i in range(spines) for j in range(leaves)]
    hosts = []
    host_n = 0
    for j in range(leaves):
        for _ in range(hosts_per_leaf):
            hosts.append((f"h{host_n}", f"leaf{j}"))
            host_n += 1
    return Topology(tuple(devices), tuple(links), tuple(hosts))


def _bits(x: int):
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _levels(near: Sequence[int], start: int, allowed: int):
    """Each level of a breadth-first search from bitset ``start`` within bitset ``allowed``.

    ``near[j]`` is the bitset of class j's neighbours.  Each level comes as
    its bitset and its classes, ascending; the first level is ``start``.
    """
    frontier, rest = start, allowed & ~start
    while frontier:
        classes = []
        reach = 0
        left = frontier
        while left:
            low = left & -left
            j = low.bit_length() - 1
            classes.append(j)
            reach |= near[j]
            left ^= low
        yield frontier, classes
        frontier = reach & rest
        rest ^= frontier


def hop_histogram(t: Topology) -> dict[int, int]:
    """Histogram of shortest device-hop counts over all unordered host pairs.

    Hosts on the same device count as 0 hops.  Pairs with no path (including
    pairs involving detached hosts) land in the ``UNREACHABLE`` (-1) bucket.
    Only buckets with at least one pair appear.
    """
    q = t.twin_quotient
    near = q.neighbors
    c = [m * h for m, h in zip(q.members, q.member_hosts)]
    all_hosts = sum(c)

    # Ordered host pairs by hop count (index hops + 1).  Devices of two
    # classes are as far apart as the classes are in the quotient, so class
    # pair (Q, R) carries c_Q * c_R of them.  Within a class, hosts on one
    # device are 0 hops apart and hosts on two devices 2 hops (through any
    # shared neighbour), or unreachable if the class has no neighbour.  One
    # BFS runs from each host-bearing class; every unordered pair is counted
    # twice.
    ordered = [0] * (max(q.n_classes, 3) + 1)  # quotient hops < n_classes; twins 2 apart
    every = (1 << q.n_classes) - 1
    for source, h in enumerate(q.member_hosts):
        if not h:
            continue
        cs = c[source]
        ordered[1] += cs * (h - 1)  # 0 hops
        ordered[(2 if near[source] else UNREACHABLE) + 1] += cs * cs - cs * h
        levels = _levels(near, 1 << source, every)
        next(levels)  # level 0, the source itself
        reached = cs
        for level, (_, classes) in enumerate(levels, 1):
            hosts = sum(map(c.__getitem__, classes))
            ordered[level + 1] += cs * hosts
            reached += hosts
        ordered[UNREACHABLE + 1] += cs * (all_hosts - reached)

    attached, detached = len(t.hosts), len(t.detached_hosts)
    ordered[UNREACHABLE + 1] += 2 * detached * attached + detached * (detached - 1)
    return {i - 1: v // 2 for i, v in enumerate(ordered) if v}


def _device_rows(t: Topology, ids: set[str]) -> list[int]:
    """Positions in ``t.devices`` of the given device ids; raises on ids not in ``t``."""
    index = t.device_index
    unknown = sorted(d for d in ids if d not in index)
    if unknown:
        raise ValueError(f"unknown device ids: {unknown}")
    return [index[d] for d in ids]


def inject_failures(t: Topology, failed: set[str]) -> Topology:
    """Topology after the given devices melt down.

    Failed devices and their incident links are removed; hosts attached to
    them are marked detached.  Raises on ids not present in the topology.
    """
    failed = set(failed)
    _device_rows(t, failed)  # raises on unknown ids
    devices = tuple(d for d in t.devices if d.id not in failed)
    links = tuple((a, b) for a, b in t.links if a not in failed and b not in failed)
    hosts = tuple((h, d) for h, d in t.hosts if d not in failed)
    detached = tuple(t.detached_hosts) + tuple(h for h, d in t.hosts if d in failed)
    return Topology(devices, links, hosts, detached)


def _components(near: Sequence[int], alive: int) -> list[list[int]]:
    """The classes of each connected component of the classes in bitset ``alive``.

    ``near[j]`` is the bitset of class j's neighbours.  Each component joins
    the levels of a breadth-first search from its lowest remaining class.
    """
    out = []
    while alive:
        component = []
        for frontier, classes in _levels(near, alive & -alive, alive):
            component += classes
            alive ^= frontier
        out.append(component)
    return out


def _connected_pairs(q: TwinQuotient, failed: Iterable[Sequence[int]]) -> list[int]:
    """Host pairs that can still communicate, for each row of failed members per class.

    Row r of ``failed`` fails ``failed[r][j]`` of the ``q.members[j]``
    devices of class j.  So ``alive = members - failed`` of them survive
    with ``alive * h`` hosts, ``alive * h * (h - 1) / 2`` of whose pairs
    share a device (h is the class's hosts per member).  A class whose
    neighbour classes all failed has its survivors each on their own, so it
    counts only the latter.  Every other surviving class lies whole in one
    component of the surviving quotient, and a component with c surviving
    hosts contributes c * (c - 1) / 2 pairs.

    Rows that keep survivors in the same classes share their components:
    those are found once per bitset of surviving classes and cached as the
    host-bearing classes that stand alone and those of each joined
    component.  Each row then sums its own alive counts over them.  Counts
    are exact ``int``.
    """
    members, hosts, near = q.members, q.member_hosts, q.neighbors
    within = [h * (h - 1) // 2 for h in hosts]
    bits = [1 << j for j in range(q.n_classes)]
    parts: dict[int, tuple[list[int], list[int], list[list[int]]]] = {}
    out = []
    for row in failed:
        alive = list(map(sub, members, row))
        key = sum(compress(bits, alive))  # distinct powers of two: the sum is the union
        part = parts.get(key)
        if part is None:
            lone, joined = [], []
            for classes in _components(near, key):
                carrying = [j for j in classes if hosts[j]]
                if len(classes) == 1:
                    lone += [j for j in carrying if within[j]]
                elif carrying:
                    joined.append(carrying)
            part = parts[key] = (lone, [within[j] for j in lone], joined)
        lone, lone_within, joined = part
        pairs = sum(map(mul, map(alive.__getitem__, lone), lone_within))
        if joined:
            alive_hosts = list(map(mul, alive, hosts))
            for classes in joined:
                c = sum(map(alive_hosts.__getitem__, classes))
                pairs += c * (c - 1) // 2
        out.append(pairs)
    return out


def _class_fractions(t: Topology, failed: Iterable[Sequence[int]]) -> list[float]:
    """``affected_fraction`` for each row of failed members per twin class (see ``_connected_pairs``)."""
    n_hosts = len(t.hosts) + len(t.detached_hosts)
    total = n_hosts * (n_hosts - 1) // 2
    return [(total - pairs) / total if total else 0.0 for pairs in _connected_pairs(t.twin_quotient, failed)]


def affected_fraction(t: Topology, failed: set[str]) -> float:
    """Fraction of host pairs of ``t`` that cannot communicate after failures.

    Counted over all pairs of the intact topology; pairs involving a host
    whose device failed (or was already detached) count as disconnected.
    Topologies with fewer than two hosts have no pairs and yield 0.
    """
    q = t.twin_quotient
    counts = [0] * q.n_classes
    for i in _device_rows(t, set(failed)):
        counts[q.device_class[i]] += 1
    return _class_fractions(t, [counts])[0]


class FailureHarmStats(_Record):
    """Sample mean, standard error and severity quantiles of harm over Monte Carlo trials; read-only.

    Quantiles are by severity: p99 is the harm value whose magnitude is
    exceeded in only 1% of trials (harm is nonpositive, worse = more
    negative).  ``distinct_patterns`` counts the distinct rows of failed
    members per twin class among the trials; each was evaluated once.
    ``std_error`` is the sample standard deviation of harm over
    sqrt(``trials``), and 0 for a single trial.
    """

    expected_harm: float
    quantiles: dict[str, float]
    trials: int
    distinct_patterns: int
    std_error: float

    def __init__(
        self, expected_harm: float, quantiles: dict[str, float], trials: int, distinct_patterns: int, std_error: float
    ):
        self.__dict__.update(
            expected_harm=expected_harm,
            quantiles=quantiles,
            trials=trials,
            distinct_patterns=distinct_patterns,
            std_error=std_error,
        )


def failure_harm_mc(
    t: Topology, probabilities: Mapping[str, float], h: HarmParams, trials: int, seed: int
) -> FailureHarmStats:
    """Monte Carlo expected harm of random device failures.

    ``probabilities`` maps a role to the per-trial failure probability of
    each of its devices; a role it omits never fails.  Each entry's role,
    then its probability, is checked in the mapping's order before anything
    else, and the mapping is read once, not kept.  Each trial fails every
    device independently with its role's probability, measures the
    affected fraction of host pairs, and applies the harm transform to it.
    Only the failures are drawn, from one ``random.Random(seed)`` (see
    ``_tally_failures``).  The fraction depends only on how many members of
    each twin class fail, so trials are tallied on those counts: the
    connectivity kernel and the harm transform run once per distinct row,
    in one call, and the mean, standard error and p50/p90/p99 severity
    quantiles come from the (harm, count) table.  A run expected to fail
    more than ``_MAX_EXPECTED_FAILURES`` devices in all is refused before
    any draw.  Deterministic per seed.
    """
    # here, not at the top: every other graph command would run harm.py for nothing
    from .harm import harm

    for role, p in probabilities.items():
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r} in failure model")
        if not 0.0 <= p <= 1.0:  # nan included
            raise ValueError(f"failure probability for {role!r} must be in [0, 1], got {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    q = t.twin_quotient
    streams: dict[float, list[int]] = {}  # probability -> classes of its devices
    for d, c in zip(t.devices, q.device_class):
        streams.setdefault(probabilities.get(d.role, 0.0), []).append(c)
    expected = trials * math.fsum(p * len(classes) for p, classes in streams.items())
    if expected > _MAX_EXPECTED_FAILURES:
        raise ValueError(
            f"{trials} trials would fail about {expected:.3g} devices, "
            f"more than the {_MAX_EXPECTED_FAILURES:.0e} one run may draw"
        )

    tally = _tally_failures(streams, random.Random(seed).random, q.members, trials)
    fractions = _class_fractions(t, tally)
    table = sorted(zip([harm(h, f) for f in fractions], tally.values()))
    # the exact sum of each value repeated count times: v * 2**b is exact;
    # a k so large that the sum overflows raises OverflowError
    mean = math.fsum(math.ldexp(v, b) for v, count in table for b in _bits(count)) / trials
    spread = math.hypot(*(math.sqrt(count) * (v - mean) for v, count in table))
    # severity quantiles: the q-th worst harm sits at the (1-q) quantile of
    # the signed (nonpositive) values
    q50, q90, q99 = _table_quantiles(table, (0.5, 0.1, 0.01))
    return FailureHarmStats(
        expected_harm=mean,
        quantiles={"p50": q50, "p90": q90, "p99": q99},
        trials=trials,
        distinct_patterns=len(table),
        std_error=spread / math.sqrt((trials - 1) * trials) if trials > 1 else 0.0,
    )


def _tally_failures(
    streams: dict[float, list[int]], rand, members: Sequence[int], trials: int
) -> dict[Sequence[int], int]:
    """Count the trials by their row of failed members per class, drawing only the failures.

    ``streams`` maps each failure probability p to the twin class of each
    device that fails with it.  For 0 < p < 1 those devices' cells, trial
    after trial, form one Bernoulli(p) stream, walked by geometric skips
    floor(log(1 - U) / log1p(-p)) with U = ``rand()``: every draw lands on a
    failure except the last, which runs past the end, so the cost grows
    with the failures, not the cells (Batagelj and Brandes, Phys. Rev. E
    71, 2005).  Each stream draws its first skip in ascending order of p;
    then the trials are visited in order, the streams in that order within
    a trial, and each skip is drawn right after the failure before it.
    Devices with p = 0 never fail and those with p = 1 always do, with no
    draw: together they give the row of every trial that no stream
    reaches.  Only distinct rows are kept: as ``bytes``, one byte per class,
    when no class has more than 255 ``members``, else as tuples, which take
    8 bytes per class.
    """
    log, floor = math.log, int
    pack = bytes if max(members, default=0) < 256 else tuple
    base = [0] * len(members)
    walks = []  # per stream: devices per trial, classes, log1p(-p)
    cells = []  # per stream: the cell of its next failure
    for p in sorted(streams):
        classes = streams[p]
        if p == 1.0:
            for c in classes:
                base[c] += 1
        elif p > 0.0:
            # below 1e-300 the skip of every U but 0 passes 1e284 cells either
            # way; the clamp only keeps it finite
            log_q = min(math.log1p(-p), -1e-300)
            walks.append((len(classes), classes, log_q))
            cells.append(floor(log(1.0 - rand()) / log_q))
    sizes = [n for n, _, _ in walks]
    tally: dict[Sequence[int], int] = {}
    while walks and (trial := min(map(floordiv, cells, sizes))) < trials:
        row = base.copy()
        for i, (n, classes, log_q) in enumerate(walks):
            start = trial * n
            j = cells[i] - start  # the device of the stream's next failure, if below n
            while j < n:
                row[classes[j]] += 1
                j += 1 + floor(log(1.0 - rand()) / log_q)
            cells[i] = start + j
        key = pack(row)
        tally[key] = tally.get(key, 0) + 1
    reached = sum(tally.values())
    if reached < trials:
        key = pack(base)
        tally[key] = tally.get(key, 0) + trials - reached
    return tally


def _table_quantiles(table: list[tuple[float, int]], qs: tuple[float, ...]) -> list[float]:
    """Weighted-CDF quantiles of the (value, count) pairs of ``table``, in ascending value order.

    The q-quantile is the least value whose running count reaches q times
    the total: NumPy's ``inverted_cdf`` rule on the sample that repeats each
    value its count times.  It is always a value of the table, never an
    interpolation between two.
    """
    ends = list(accumulate(count for _, count in table))
    return [table[bisect_left(ends, q * ends[-1])][0] for q in qs]


def serialize_topology(t: Topology) -> str:
    """Canonical text form (see module docstring); byte-deterministic."""
    lines = [FORMAT_HEADER]
    for d in t.devices:
        lines.append(f"{d.id} {d.role}" + (f" {d.tag}" if d.tag else ""))
    for a, b in t.links:
        lines.append(f"{a} -- {b}")
    for host, dev in t.hosts:
        lines.append(f"host {host} @ {dev}")
    for host in t.detached_hosts:
        lines.append(f"host {host} detached")
    return "\n".join(lines) + "\n"


def parse_topology(text: str) -> Topology:
    """Parse the text form; inverse of ``serialize_topology``.

    Blank lines and ``#`` comments are ignored.  The first significant line
    must be the version header.  Errors name the line's number in ``text``.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:  # up to the first significant line
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            break
    else:
        tokens = None
    if tokens != [FORMAT_HEADER]:
        raise ValueError(f"missing or unsupported topology header (expected {FORMAT_HEADER!r})")

    share = {}.setdefault  # one string object per device id, whichever line names it first
    devices: list[Device] = []
    links: list[tuple[str, str]] = []
    hosts: list[tuple[str, str]] = []
    detached: list[str] = []
    for lineno, line in lines:
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        match tokens:
            case ["host", host, "detached"]:
                detached.append(host)
            case ["host", host, "@", device]:
                hosts.append((host, share(device, device)))
            case ["host", *_]:
                raise ValueError(f"line {lineno}: malformed host line {line.strip()!r}")
            case [a, "--", b]:
                links.append((share(a, a), share(b, b)))
            case [device, role]:
                devices.append(Device(share(device, device), role))
            case [device, role, tag]:
                devices.append(Device(share(device, device), role, tag))
            case _:
                raise ValueError(f"line {lineno}: malformed line {line.strip()!r}")
    return Topology(tuple(devices), tuple(links), tuple(hosts), tuple(detached))
