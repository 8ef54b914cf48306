"""Fabric topologies, hop metrics, and fault-domain analysis.

Two forms are supported: the classic 3-tier design (core / distribution /
access, at most two interconnected cores) and the 2-layer spine-leaf fabric
(complete bipartite, no spine-spine or leaf-leaf links).  Hosts attach to
access or leaf devices.  Failures remove whole devices; ``affected_fraction``
measures the share of host pairs that lose connectivity, and
``failure_harm_mc`` feeds that fraction into the harm transform.

Graph work runs in NumPy on the false-twin quotient that each ``Topology``
caches, next to its device -> index map and per-device host counts.  Devices
with the same neighbour set are false twins; the quotient has one node per
class of them and one link per linked class pair.  Twins are never linked to
each other, and linked classes are linked member to member, so the quotient
keeps connectivity and hop counts exactly: spine-leaf is 2 nodes and 1 link
at any size, and a graph with no twins is its own quotient.

One connectivity kernel serves every fault-domain query: it takes an
``(m, n_devices)`` boolean failure mask, reduces each row to per-class
survivors and hosts, joins a bounded block of rows into one block-diagonal
graph of surviving class links and labels its components by min-label
hooking with full pointer jumping.  ``hop_histogram`` runs a
level-synchronous BFS over the quotient from all host-bearing classes at
once and weights each class pair by its host pairs.  The per-pair
breadth-first searches over devices that check these results live in
``fragrisk.verify`` only.

Topologies serialize to a line-oriented text format (version header
``topology/1``)::

    topology/1
    <id> <role> [<tag>]      one line per device
    <id> -- <id>             one line per link
    host <id> @ <device>     one line per attached host
    host <id> detached       one line per detached host

Device roles are core, distribution, access, spine, leaf; only leaves may
carry a function tag (data-center, border, dmz, sdn, campus).  Ids match
``[A-Za-z0-9_.-]+`` and may not be the reserved word ``host``.  Parsing the
emitted form reproduces the topology exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .harm import HarmParams, harm

ROLES = ("core", "distribution", "access", "spine", "leaf")
LEAF_TAGS = ("data-center", "border", "dmz", "sdn", "campus")
TIER_ROLES = frozenset({"core", "distribution", "access"})
FABRIC_ROLES = frozenset({"spine", "leaf"})
HOST_ROLES = frozenset({"access", "leaf"})

#: hop_histogram bucket for host pairs with no path between their devices
UNREACHABLE = -1

FORMAT_HEADER = "topology/1"

# Rows of one connectivity-kernel block are capped so that a block holds
# about this many link-plus-device slots; larger blocks only cost memory.
_KERNEL_BLOCK_SLOTS = 50_000

# failure_harm_mc deduplicates failure patterns over mask chunks of about
# this many cells, filled from uniform draws of at most _DRAW_CELLS at a time.
_SAMPLE_CHUNK_CELLS = 2_000_000
_DRAW_CELLS = 250_000

_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

_TIER_LINK_ROLES = frozenset(
    {
        frozenset({"core"}),  # core -- core
        frozenset({"core", "distribution"}),
        frozenset({"distribution", "access"}),
    }
)


@dataclass(frozen=True)
class Device:
    """A switch with a role; leaves may carry a descriptive function tag."""

    id: str
    role: str
    tag: str | None = None

    def __post_init__(self):
        if not _ID_RE.match(self.id) or self.id == "host":
            raise ValueError(f"invalid device id {self.id!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if self.tag is not None:
            if self.role != "leaf":
                raise ValueError(f"only leaf devices may carry a tag, got {self.role!r}")
            if self.tag not in LEAF_TAGS:
                raise ValueError(f"unknown leaf tag {self.tag!r}; expected one of {LEAF_TAGS}")


class TwinQuotient(NamedTuple):
    """A topology's false-twin classes and the links between them.

    ``device_class[i]`` is the class of device i.  ``links`` holds both
    ends of each linked class pair, lower class first, and ``csr`` is the
    read-only symmetric class adjacency ``(indptr, neighbors)``: the
    neighbours of class i are ``neighbors[indptr[i]:indptr[i + 1]]``, in
    ascending order, and every class link appears once from each end.
    """

    device_class: np.ndarray
    links: tuple[np.ndarray, np.ndarray]
    csr: tuple[np.ndarray, np.ndarray]

    @property
    def n_classes(self) -> int:
        return len(self.csr[0]) - 1

    def class_sums(self, values: np.ndarray) -> np.ndarray:
        """Exact ``int64`` sum of a per-device integer array over each class."""
        import numpy as np

        # integers far below 2**53, so float sums are exact
        return np.bincount(self.device_class, weights=values, minlength=self.n_classes).astype(np.int64)


@dataclass(frozen=True)
class Topology:
    """Immutable device/link graph with attached hosts.

    Construction canonicalizes ordering (devices by id, links as sorted
    pairs) and validates the form invariants, so equal topologies compare
    equal regardless of input order.
    """

    devices: tuple[Device, ...]
    links: tuple[tuple[str, str], ...]
    hosts: tuple[tuple[str, str], ...]
    detached_hosts: tuple[str, ...] = ()

    def __post_init__(self):
        devices = tuple(sorted(self.devices, key=lambda d: d.id))
        links = tuple(sorted(tuple(sorted(pair)) for pair in self.links))
        hosts = tuple(sorted((str(h), str(d)) for h, d in self.hosts))
        detached = tuple(sorted(str(h) for h in self.detached_hosts))
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "hosts", hosts)
        object.__setattr__(self, "detached_hosts", detached)
        self._validate()

    def _validate(self) -> None:
        ids = [d.id for d in self.devices]
        by_id = dict(zip(ids, self.devices))
        if len(by_id) != len(ids):
            raise ValueError("duplicate device ids")

        roles = {d.role for d in self.devices}
        if roles & TIER_ROLES and roles & FABRIC_ROLES:
            raise ValueError("cannot mix 3-tier roles with spine/leaf roles in one topology")

        seen = set()
        for a, b in self.links:
            if a == b:
                raise ValueError(f"self-link on {a!r}")
            if (a, b) in seen:
                raise ValueError(f"duplicate link {a!r} -- {b!r}")
            seen.add((a, b))
            for end in (a, b):
                if end not in by_id:
                    raise ValueError(f"link references unknown device {end!r}")
            pair = frozenset({by_id[a].role, by_id[b].role})
            if roles & FABRIC_ROLES:
                if pair != frozenset({"spine", "leaf"}):
                    raise ValueError(f"spine-leaf form allows only spine--leaf links, got {a!r} -- {b!r}")
            elif pair not in _TIER_LINK_ROLES:
                raise ValueError(f"3-tier form forbids link {a!r} -- {b!r} ({sorted(pair)})")

        cores = [d for d in self.devices if d.role == "core"]
        if len(cores) > 2:
            raise ValueError("a 3-tier design cannot have more than 2 core switches")
        if len(cores) == 2:
            pair = tuple(sorted(c.id for c in cores))
            if pair not in seen:
                raise ValueError("two cores must be linked to each other")

        host_ids = set()
        for h, dev in self.hosts:
            if not _ID_RE.match(h) or h == "host":
                raise ValueError(f"invalid host id {h!r}")
            if h in host_ids:
                raise ValueError(f"duplicate host id {h!r}")
            host_ids.add(h)
            if dev not in by_id:
                raise ValueError(f"host {h!r} attached to unknown device {dev!r}")
            if by_id[dev].role not in HOST_ROLES:
                raise ValueError(f"host {h!r} must attach to an access or leaf device, not {by_id[dev].role!r}")
        for h in self.detached_hosts:
            if not _ID_RE.match(h) or h == "host":
                raise ValueError(f"invalid host id {h!r}")
            if h in host_ids:
                raise ValueError(f"host {h!r} is both attached and detached")
            host_ids.add(h)

    @cached_property
    def device_ids(self) -> frozenset[str]:
        return frozenset(d.id for d in self.devices)

    @cached_property
    def host_attachment(self) -> dict[str, str]:
        return dict(self.hosts)

    @cached_property
    def all_host_ids(self) -> tuple[str, ...]:
        return tuple(sorted([h for h, _ in self.hosts] + list(self.detached_hosts)))

    @cached_property
    def device_index(self) -> dict[str, int]:
        """Position of each device id in ``devices``."""
        return {d.id: i for i, d in enumerate(self.devices)}

    @cached_property
    def twin_quotient(self) -> TwinQuotient:
        """The false-twin quotient: one node per set of devices with equal neighbours.

        Devices are grouped in one pass over their CSR rows; classes are
        numbered in order of their first device, and devices with no links
        share the empty row, so they form one class.  False twins are never
        linked to each other, and a link between two classes means every
        member of one is linked to every member of the other.
        """
        import numpy as np

        index = self.device_index
        ends = np.array([(index[a], index[b]) for a, b in self.links], dtype=np.int64).reshape(-1, 2)
        indptr, neighbors = _csr(len(self.devices), ends[:, 0], ends[:, 1])
        bounds = indptr.tolist()
        ids: dict[bytes, int] = {}
        device_class = np.array(
            [ids.setdefault(neighbors[s:e].tobytes(), len(ids)) for s, e in zip(bounds, bounds[1:])],
            dtype=np.int64,
        )
        k = len(ids)
        # one class link per linked class pair (a sort, not np.unique, which
        # imports numpy.ma for integer keys)
        a, b = device_class[ends].T
        key = np.sort(np.minimum(a, b) * k + np.maximum(a, b))
        ca, cb = divmod(key[np.diff(key, prepend=-1) != 0], max(k, 1))
        for array in (device_class, ca, cb):
            array.flags.writeable = False
        return TwinQuotient(device_class, (ca, cb), _csr(k, ca, cb))

    @cached_property
    def device_host_counts(self) -> np.ndarray:
        """Read-only ``int64`` number of attached hosts per device index."""
        import numpy as np

        index = self.device_index
        counts = np.bincount([index[d] for _, d in self.hosts], minlength=len(self.devices)).astype(np.int64)
        counts.flags.writeable = False
        return counts


def _csr(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only symmetric CSR ``(indptr, neighbors)`` of n nodes joined by links a[i] -- b[i]."""
    import numpy as np

    src = np.concatenate([a, b]).astype(np.int64)
    dst = np.concatenate([b, a]).astype(np.int64)
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    neighbors = dst[order]
    indptr.flags.writeable = False
    neighbors.flags.writeable = False
    return indptr, neighbors


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


def build_spine_leaf(
    spines: int,
    leaves: int,
    hosts_per_leaf: int,
    leaf_tags: tuple[str | None, ...] | None = None,
) -> Topology:
    """2-layer fabric: every spine links to every leaf and to nothing else.

    Hosts attach ``hosts_per_leaf`` per leaf.  ``leaf_tags`` optionally labels
    leaves by function (data-center, border, dmz, sdn, campus).
    """
    if spines < 1 or leaves < 1 or hosts_per_leaf < 1:
        raise ValueError("spines, leaves, hosts_per_leaf must all be >= 1")
    if leaf_tags is not None and len(leaf_tags) > leaves:
        raise ValueError("more leaf tags than leaves")

    devices = [Device(f"spine{i}", "spine") for i in range(spines)]
    for j in range(leaves):
        tag = leaf_tags[j] if leaf_tags is not None and j < len(leaf_tags) else None
        devices.append(Device(f"leaf{j}", "leaf", tag))
    links = [(f"spine{i}", f"leaf{j}") for i in range(spines) for j in range(leaves)]
    hosts = []
    host_n = 0
    for j in range(leaves):
        for _ in range(hosts_per_leaf):
            hosts.append((f"h{host_n}", f"leaf{j}"))
            host_n += 1
    return Topology(tuple(devices), tuple(links), tuple(hosts))


def _bfs_levels(indptr: np.ndarray, neighbors: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop count from each source to every node of a CSR graph; ``UNREACHABLE`` where none.

    Returns an ``(len(sources), n_nodes)`` array.  All sources advance
    together, level by level, over one flat index space (source r's node i
    is r * n_nodes + i).  Each level gathers every neighbour of the
    frontier and keeps each unvisited one once as the next frontier.
    """
    import numpy as np

    n = len(indptr) - 1
    degree = np.diff(indptr)
    rows = len(sources)
    dist = np.full(rows * n, UNREACHABLE, dtype=np.int64)
    owner = np.empty(rows * n, dtype=np.int64)
    frontier = np.arange(rows, dtype=np.int64) * n + sources
    dist[frontier] = 0
    level = 0
    while len(frontier):
        level += 1
        node = frontier % n
        deg = degree[node]
        start = np.repeat(indptr[node] - (np.cumsum(deg) - deg), deg)
        cand = np.repeat(frontier - node, deg) + neighbors[start + np.arange(len(start))]
        cand = cand[dist[cand] == UNREACHABLE]
        order = np.arange(len(cand))
        owner[cand] = order  # scatter-mark: one surviving slot per node
        frontier = cand[owner[cand] == order]
        dist[frontier] = level
    return dist.reshape(rows, n)


def hop_histogram(t: Topology) -> dict[int, int]:
    """Histogram of shortest device-hop counts over all unordered host pairs.

    Hosts on the same device count as 0 hops.  Pairs with no path (including
    pairs involving detached hosts) land in the ``UNREACHABLE`` (-1) bucket.
    Only buckets with at least one pair appear.
    """
    import numpy as np

    q = t.twin_quotient
    counts = t.device_host_counts
    hosts = q.class_sums(counts)
    sources = np.flatnonzero(hosts)
    c = hosts[sources]
    same = q.class_sums(counts * (counts - 1))[sources]
    apart = c * c - q.class_sums(counts * counts)[sources]
    k = q.n_classes

    # Ordered host pairs by hop count (index hops + 1).  Devices of two
    # classes are as far apart as the classes are in the quotient, so class
    # pair (Q, R) carries c_Q * c_R of them.  Within a class, hosts on one
    # device are 0 hops apart and hosts on two devices 2 hops (through any
    # shared neighbour), or unreachable if the class has no neighbour.  Rows
    # of sources go in bounded blocks; every unordered pair is counted twice.
    ordered = np.zeros(max(k, 3) + 1, dtype=np.int64)  # quotient hops < k; twins 2 apart
    step = max(1, _KERNEL_BLOCK_SLOTS // max(1, k))
    for start in range(0, len(sources), step):
        block = slice(start, start + step)
        hops = _bfs_levels(*q.csr, sources[block])[:, sources]
        weight = c[block, None] * c
        rows = np.arange(len(weight))
        weight[rows, start + rows] = same[block]
        np.add.at(ordered, hops.ravel() + 1, weight.ravel())
    has_neighbor = np.diff(q.csr[0])[sources] > 0
    np.add.at(ordered, np.where(has_neighbor, 2, UNREACHABLE) + 1, apart)

    attached, detached = len(t.hosts), len(t.detached_hosts)
    ordered[UNREACHABLE + 1] += 2 * detached * attached + detached * (detached - 1)
    return {i - 1: int(v) // 2 for i, v in enumerate(ordered) if v}


def inject_failures(t: Topology, failed: set[str]) -> Topology:
    """Topology after the given devices melt down.

    Failed devices and their incident links are removed; hosts attached to
    them are marked detached.  Raises on ids not present in the topology.
    """
    failed = set(failed)
    unknown = failed - t.device_ids
    if unknown:
        raise ValueError(f"unknown device ids: {sorted(unknown)}")
    devices = tuple(d for d in t.devices if d.id not in failed)
    links = tuple((a, b) for a, b in t.links if a not in failed and b not in failed)
    hosts = tuple((h, d) for h, d in t.hosts if d not in failed)
    detached = tuple(t.detached_hosts) + tuple(h for h, d in t.hosts if d in failed)
    return Topology(devices, links, hosts, detached)


def _connected_pairs(t: Topology, failed: np.ndarray) -> np.ndarray:
    """Host pairs that can still communicate, for each row of a failure mask.

    ``failed`` is an ``(m, n_devices)`` boolean array over device indices.
    The work runs on the twin quotient (``Topology.twin_quotient``).  Each
    row reduces to three values per class, by subtracting its failed
    devices from the intact class: whether any member survives, the
    surviving hosts, and the host pairs that surviving members hold on one
    device.  A class whose neighbour classes all failed has its survivors
    each on their own, so it counts only the latter.  Every other surviving
    class lies whole in one component of the surviving quotient.

    Each block of rows becomes one block-diagonal graph of classes (row r's
    class i is node r * n_classes + i) holding the class links whose ends
    both survive.  Its components are found by min-label hooking: every
    label is a root, each root with a link to a lower root hooks onto the
    lowest such root, and full pointer jumping makes every label a root
    again.  Labels only fall, so this ends once no surviving link joins two
    labels.  A component with c surviving hosts contributes c * (c - 1) / 2
    pairs.  Counts are exact ``int64``.
    """
    import numpy as np

    m, n = failed.shape
    q = t.twin_quotient
    a, b = q.links
    k = q.n_classes
    counts = t.device_host_counts
    own = counts * (counts - 1) // 2
    out = np.zeros(m, dtype=np.int64)
    if n == 0:
        return out
    step = max(1, min(m, _KERNEL_BLOCK_SLOTS // (n + len(a))))
    # members, hosts and one-device host pairs of each intact class, row by row
    size, intact_hosts, intact_own = (np.tile(q.class_sums(x), step) for x in (np.ones_like(counts), counts, own))
    # block node ids of both ends of every class link, row by row
    offset = np.arange(step)[:, None] * k
    ends_a, ends_b = (offset + a).ravel(), (offset + b).ravel()
    for start in range(0, m, step):
        block = failed[start : start + step]
        rows = len(block)
        slots = rows * k
        row, dev = np.divmod(np.flatnonzero(block), n)
        node = row * k + q.device_class[dev]
        survives = (size[:slots] > np.bincount(node, minlength=slots)).reshape(rows, k)
        hosts = intact_hosts[:slots] - np.bincount(node, counts[dev], slots).astype(np.int64)
        own_pairs = intact_own[:slots] - np.bincount(node, own[dev], slots).astype(np.int64)
        kept = np.flatnonzero(survives[:, a] & survives[:, b])
        u, v = ends_a[kept], ends_b[kept]
        lone = np.ones(slots, dtype=bool)
        lone[u] = lone[v] = False
        label = np.arange(slots)
        lu, lv = u, v  # every node starts as its own label
        while len(u):
            np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
            lu, lv = label[u], label[v]
            # a link whose ends share a label keeps sharing it: drop it
            cross = lu != lv
            u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        # host counts are integers far below 2**53, so float sums are exact
        joined = np.bincount(label, weights=np.where(lone, 0, hosts), minlength=slots).astype(np.int64)
        pairs = joined * (joined - 1) // 2 + np.where(lone, own_pairs, 0)
        out[start : start + rows] = pairs.reshape(rows, k).sum(axis=1)
    return out


def affected_fractions(t: Topology, failed: np.ndarray) -> np.ndarray:
    """``affected_fraction`` for each row of an ``(m, n_devices)`` failure mask.

    Column i of ``failed`` is ``t.devices[i]``.  One connectivity-kernel pass
    serves all rows; each value equals the single-set ``affected_fraction``
    bit for bit.
    """
    import numpy as np

    failed = np.asarray(failed, dtype=bool)
    if failed.ndim != 2 or failed.shape[1] != len(t.devices):
        raise ValueError(f"failure mask must have shape (m, {len(t.devices)}), got {failed.shape}")
    n_hosts = len(t.all_host_ids)
    total = n_hosts * (n_hosts - 1) // 2
    if total == 0:
        return np.zeros(len(failed))
    return (total - _connected_pairs(t, failed)) / total


def affected_fraction(t: Topology, failed: set[str]) -> float:
    """Fraction of host pairs of ``t`` that cannot communicate after failures.

    Counted over all pairs of the intact topology; pairs involving a host
    whose device failed (or was already detached) count as disconnected.
    Topologies with fewer than two hosts have no pairs and yield 0.
    """
    import numpy as np

    failed = set(failed)
    unknown = failed - t.device_ids
    if unknown:
        raise ValueError(f"unknown device ids: {sorted(unknown)}")
    mask = np.zeros((1, len(t.devices)), dtype=bool)
    mask[0, [t.device_index[d] for d in failed]] = True
    return float(affected_fractions(t, mask)[0])


@dataclass(frozen=True)
class FailureModel:
    """Per-trial, per-device failure probability by role; missing roles fail with 0."""

    probabilities: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for role, prob in self.probabilities.items():
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r} in failure model")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"failure probability for {role!r} must be in [0, 1], got {prob}")

    @classmethod
    def uniform(cls, probability: float) -> "FailureModel":
        return cls({role: probability for role in ROLES})

    def probability(self, role: str) -> float:
        return self.probabilities.get(role, 0.0)


@dataclass(frozen=True)
class FailureHarmStats:
    """Sample mean and severity quantiles of harm over Monte Carlo trials.

    Quantiles are by severity: p99 is the harm value whose magnitude is
    exceeded in only 1% of trials (harm is nonpositive, worse = more
    negative).
    """

    expected_harm: float
    quantiles: dict[str, float]


def failure_harm_mc(
    t: Topology, fm: FailureModel, h: HarmParams, trials: int, seed: int
) -> FailureHarmStats:
    """Monte Carlo expected harm of random device failures.

    Each trial fails every device independently with its role's probability,
    measures the affected fraction of host pairs, and applies the harm
    transform to it.  Trials are deduplicated by failure pattern within each
    sampling chunk, so the connectivity kernel and the harm transform run
    once per distinct pattern of a chunk.  Returns the sample mean and the
    p50/p90/p99 severity quantiles.  Deterministic per seed.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = np.array([fm.probability(d.role) for d in t.devices])
    rng = np.random.default_rng(seed)

    width = max(1, len(probs))
    chunk = min(trials, max(1, _SAMPLE_CHUNK_CELLS // width))
    draw_rows = min(chunk, max(1, _DRAW_CELLS // width))
    # one mask buffer and one smaller uniform-draw buffer serve every chunk
    mask = np.empty((chunk, len(probs)), dtype=bool)
    draws = np.empty((draw_rows, len(probs)))
    samples = np.empty(trials)
    for done in range(0, trials, chunk):
        n = min(chunk, trials - done)
        fails = mask[:n]
        for row in range(0, n, draw_rows):
            part = fails[row : row + draw_rows]
            np.less(rng.random(out=draws[: len(part)]), probs, out=part)
        # one opaque bytes key per row: a 1-D unique, not a row-wise sort
        keys = np.packbits(fails, axis=1)
        if keys.shape[1] == 0:  # no devices: every trial is the empty pattern
            keys = np.zeros((n, 1), dtype=np.uint8)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        fractions = affected_fractions(t, fails[first])
        values = np.array([harm(h, f) for f in fractions.tolist()])
        samples[done : done + n] = values[inverse]

    # severity quantiles: the q-th worst harm sits at the (1-q) quantile of
    # the signed (nonpositive) values
    q50, q90, q99 = _linear_quantiles(samples, (0.5, 0.1, 0.01))
    return FailureHarmStats(
        expected_harm=float(samples.mean()),
        quantiles={"p50": q50, "p90": q90, "p99": q99},
    )


def _linear_quantiles(values: np.ndarray, qs: tuple[float, ...]) -> list[float]:
    """``np.quantile(values, qs)`` bit for bit, from one sort.

    ``np.quantile`` imports ``numpy.ma`` (about 15 ms) on its first call.
    This is NumPy's default "linear" rule: the q-quantile sits at index
    (n - 1) * q of the sorted values, and between neighbours a and b at
    fraction t it is a + (b - a) * t, or b - (b - a) * (1 - t) once
    t >= 0.5, as NumPy's ``_lerp`` rounds it.
    """
    import numpy as np

    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for q in qs:
        index = last * q
        low = int(index)  # the floor, as the index is >= 0
        t = index - low
        a, b = ordered[low], ordered[min(low + 1, last)]
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t))
    return out


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
    must be the version header.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"missing or unsupported topology header (expected {FORMAT_HEADER!r})")

    devices: list[Device] = []
    links: list[tuple[str, str]] = []
    hosts: list[tuple[str, str]] = []
    detached: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if tokens[0] == "host":
            if len(tokens) == 3 and tokens[2] == "detached":
                detached.append(tokens[1])
            elif len(tokens) == 4 and tokens[2] == "@":
                hosts.append((tokens[1], tokens[3]))
            else:
                raise ValueError(f"line {lineno}: malformed host line {line!r}")
        elif len(tokens) == 3 and tokens[1] == "--":
            links.append((tokens[0], tokens[2]))
        elif len(tokens) in (2, 3):
            tag = tokens[2] if len(tokens) == 3 else None
            devices.append(Device(tokens[0], tokens[1], tag))
        else:
            raise ValueError(f"line {lineno}: malformed line {line!r}")
    return Topology(tuple(devices), tuple(links), tuple(hosts), tuple(detached))
