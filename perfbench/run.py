"""fragrisk benchmark: workloads timed end to end through the CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fabric-faults --seed 1 --seconds 30 --trace 0

One client issues one ``python3 -m fragrisk`` command at a time and waits
for it (a closed loop from a single process).  Before timing, the run builds
its topology fixtures with ``fragrisk topo build`` and times ``fragrisk
--help`` a few times for ``setup_s``.  It then repeats the workload's command
list round-robin, one command at a time, while the next command still fits in
``--seconds`` (the first pass always runs whole).
Every command's output is checked; a command that exits non-zero or fails
its check counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one pass run through
``tracer.py``, next to one untraced pass of the same commands.  Metric names
and units come from ``BENCHMARK.json``.  The line before the result holds the
run's context: environment, fixtures and per-command timings.

See ``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "work"
SRC = ROOT / "src"
PY = sys.executable or "python3"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
HELP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3

# name -> (kind, builder parameters)
FABRICS = {
    "sl-2-4-10": ("spine-leaf", (2, 4, 10)),
    "sl-4-32-10": ("spine-leaf", (4, 32, 10)),
    "sl-16-128-4": ("spine-leaf", (16, 128, 4)),
    "sl-32-512-2": ("spine-leaf", (32, 512, 2)),
    "tt-2-16-8-4": ("three-tier", (2, 16, 8, 4)),
    "tt-2-32-16-2": ("three-tier", (2, 32, 16, 2)),
}
LADDER = ("sl-4-32-10", "sl-16-128-4", "sl-32-512-2", "tt-2-16-8-4", "tt-2-32-16-2")
PROBE_FABRIC = "sl-2-4-10"
WORKLOADS = ("fabric-faults", "rare-faults")


@dataclass(frozen=True)
class Cmd:
    id: str  # stable across seeds; keys the stored references
    args: tuple[str, ...]  # fragrisk arguments
    kind: str
    fabric: str | None = None
    work: int = 0  # Monte Carlo trials or draws the command performs
    failed: tuple[str, ...] = ()  # devices a `topo fail` command fails


def fixture_path(name: str) -> str:
    return f"perfbench/work/fixtures/{name}.txt"


def build_cmd(name: str) -> Cmd:
    kind, params = FABRICS[name]
    if kind == "spine-leaf":
        flags = ("--spines", "--leaves", "--hosts-per-leaf")
        extra: tuple[str, ...] = ()
    else:
        flags = ("--cores", "--distributions", "--access-per-distribution", "--hosts-per-access")
        extra = ("--dual-homed",)
    args = ("topo", "build", "--kind", kind)
    for flag, value in zip(flags, params):
        args += (flag, str(value))
    return Cmd(f"build.{name}", args + extra + ("--out", fixture_path(name)), "build", name)


def commands(workload: str, seed: int, probes: bool = False) -> list[Cmd]:
    """The workload's command list; seeded commands get the workload seed.

    With ``probes``, commands that give every per-layer metric a value on
    every workload are appended: `verify` calls into every layer, and
    `topo fail` parses, injects and reports.  `rare-faults` also probes the
    closed-form and sampler commands, whose cost is mostly start-up.  Only
    traced runs add probes, so the timed passes hold the workload's own
    commands alone.
    """
    s = str(seed)

    def hops(fx):
        return Cmd(f"hops.{fx}", ("topo", "hops", "--topology", fixture_path(fx)), "hops", fx)

    def harm(fx, p, trials):
        args = ("topo", "harm", "--topology", fixture_path(fx), "--p", p, "--trials", str(trials), "--seed", s)
        return Cmd(f"harm.{fx}.p{p}.t{trials}", args, "harm", fx, trials)

    def fail(fx):
        # one spine and two leaves, drawn from the seed
        _, (spines, leaves, _) = FABRICS[fx]
        rng = random.Random(f"{seed}:{fx}")
        failed = (f"spine{rng.randrange(spines)}",) + tuple(f"leaf{j}" for j in rng.sample(range(leaves), 2))
        args = ("topo", "fail", "--topology", fixture_path(fx), "--fail", ",".join(failed))
        return Cmd(f"fail.{fx}", args, "fail", fx, failed=failed)

    def tail_mean(trials):
        args = ("risk", "tail-mean", "--alpha", "4", "--beta", "1.5", "--fragments", "2",
                "--trials", str(trials), "--seed", s)
        return Cmd(f"tail-mean.t{trials}", args, "draws", work=trials)

    verify = Cmd("verify", ("verify",), "verify")

    if workload == "fabric-faults":
        main = [hops(fx) for fx in LADDER] + [
            fail("sl-32-512-2"),
            Cmd("compare.tt-2-16-8-4.sl-16-128-4",
                ("compare", "--a", fixture_path("tt-2-16-8-4"), "--b", fixture_path("sl-16-128-4")),
                "report"),
            harm("sl-16-128-4", "0.05", 2000),
            harm("tt-2-32-16-2", "0.05", 2000),
        ]
        extra = [verify]
    elif workload == "rare-faults":
        main = [harm("sl-16-128-4", "0.0005", 50_000), harm("tt-2-16-8-4", "0.0005", 50_000)]
        extra = [
            fail(PROBE_FABRIC),
            Cmd("ratio", ("risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"), "ratio"),
            Cmd("curve", ("risk", "curve", "--alpha", "2", "--beta", "1.5"), "report"),
            Cmd("density", ("risk", "density", "--alpha", "4", "--beta", "1.5", "--fragments", "2"), "report"),
            Cmd("harm-curve", ("harm-curve", "--k", "1", "--betas", "1.5,2,3"), "report"),
            Cmd("growth", ("growth", "--saturation", "100", "--ports-per-switch", "48"), "report"),
            Cmd("jensen.t1000000",
                ("jensen", "--k", "1", "--beta", "1.5", "--weights", "0.5,0.5", "--alpha", "4",
                 "--trials", "1000000", "--seed", s),
                "draws", work=10**6),
            tail_mean(10**7),
            verify,
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return main + extra if probes else main


def fabrics_of(cmds: list[Cmd]) -> list[str]:
    return sorted({c.fabric for c in cmds if c.fabric is not None})


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass
class Result:
    cmd: Cmd
    code: int
    wall_s: float
    maxrss_kb: int
    out: str
    trace: dict | None = None
    error: str = ""  # empty when the output check passed


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FRAGRISK_OUT_DIR")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv: list[str]) -> tuple[int, float, int, str, str]:
        """Run argv from the checkout root; returns (code, wall_s, maxrss_kb, stdout, stderr)."""
        out_path = WORK / "stdout.txt"
        err_path = WORK / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def fragrisk(self, cmd: Cmd, trace_path: Path | None = None) -> Result:
        if trace_path is None:
            argv = [PY, "-m", "fragrisk", *cmd.args]
        else:
            argv = [PY, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *cmd.args]
        code, wall, rss, out, err = self.run(argv)
        result = Result(cmd, code, wall, rss, out)
        if trace_path is not None and trace_path.exists():
            result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        if code != 0:
            result.error = f"exit {code}: {err.strip()[-300:]}"
        return result


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def as_number(cell: str) -> float | str:
    try:
        return float(cell)
    except ValueError:
        return cell  # a label, such as a `compare` metric name


def parse_csv_report(text: str) -> tuple[list[str], list[list[float | str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty report")
    columns = lines[0].split(",")
    rows = [[as_number(cell) for cell in ln.split(",")] for ln in lines[1:]]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("ragged report row")
    return columns, rows


def without_timings(text: str) -> str:
    """Output with elapsed times (``1.23s``, as `verify` prints) masked."""
    return re.sub(r"\b\d+\.\d+s\b", "<t>s", text)


def fabric_counts(text: str) -> tuple[int, int]:
    """(devices, hosts) of a topology file, counted line by line."""
    devices = hosts = 0
    for line in text.splitlines()[1:]:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "host":
            hosts += 1
        elif "--" not in tokens:
            devices += 1
    return devices, hosts


def expected_counts(name: str) -> tuple[int, int]:
    kind, p = FABRICS[name]
    if kind == "spine-leaf":
        return p[0] + p[1], p[1] * p[2]
    return p[0] + p[1] + p[1] * p[2], p[1] * p[2] * p[3]


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def match_references(cmd: Cmd, columns: list[str], rows: list[list[float | str]], refs: dict) -> str:
    ref = refs.get(cmd.id)
    if ref is None:
        return f"no stored reference for {cmd.id}"
    if columns != ref["columns"]:
        return f"columns {columns} != reference {ref['columns']}"
    if len(rows) != len(ref["cells"]):
        return f"{len(rows)} rows != reference {len(ref['cells'])}"
    for r, (row, ref_row) in enumerate(zip(rows, ref["cells"])):
        for col, value, (low, high) in zip(columns, row, ref_row):
            if isinstance(low, str) or isinstance(value, str):
                if value != low:
                    return f"row {r} {col}={value!r} != reference {low!r}"
            elif not low <= value <= high:
                return f"row {r} {col}={value!r} outside reference [{low!r}, {high!r}]"
    return ""


def check(result: Result, refs: dict) -> str:
    """Empty string when the command's output is correct, else the reason."""
    cmd, out = result.cmd, result.out
    if cmd.kind == "ratio":
        return "" if out.strip() == "0.629961" else f"risk ratio printed {out.strip()!r}, expected 0.629961"
    if cmd.kind == "verify":
        lines = out.strip().splitlines()
        if len(lines) < 2:
            return "verify printed no checks"
        bad = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
        total = len(lines) - 1
        if bad or lines[-1] != f"{total}/{total} checks passed":
            return f"verify: {(bad or lines[-1:])[0][:200]}"
        return ""

    columns, rows = parse_csv_report(out)
    if cmd.kind == "fail":
        _, (spines, leaves, per_leaf) = FABRICS[cmd.fabric]
        hosts = leaves * per_leaf
        lost = per_leaf * sum(1 for d in cmd.failed if d.startswith("leaf"))
        # a surviving spine keeps every surviving leaf connected
        expect = [float(len(cmd.failed)), 1.0 - pairs(hosts - lost) / pairs(hosts), float(lost)]
        got = rows[0] if len(rows) == 1 else []
        if len(got) != 3 or got[0] != expect[0] or got[2] != expect[2] or abs(got[1] - expect[1]) > 1e-12:
            return f"topo fail {got} != closed form {expect}"
        return ""
    if cmd.kind == "hops":
        kind, params = FABRICS[cmd.fabric]
        hosts = expected_counts(cmd.fabric)[1]
        hist = {int(h): int(n) for h, n in rows}
        if sum(hist.values()) != pairs(hosts):
            return f"hop histogram sums to {sum(hist.values())}, expected {pairs(hosts)}"
        if kind == "spine-leaf":
            same_leaf = params[1] * pairs(params[2])
            expect = {h: n for h, n in ((0, same_leaf), (2, pairs(hosts) - same_leaf)) if n}
            if hist != expect:
                return f"spine-leaf hops {hist} != closed form {expect}"
    error = match_references(cmd, columns, rows, refs)
    if not error and cmd.kind == "harm":
        mean, p50, p90, p99 = rows[0]
        if not p99 <= p90 <= p50 <= 0.0 or not mean <= 0.0:
            return f"harm quantiles out of order: {rows[0]}"
    return error


# ---------------------------------------------------------------------------
# set-up, passes and metrics
# ---------------------------------------------------------------------------


def build_fixtures(runner: Runner, names: list[str]) -> tuple[list[dict], list[Result]]:
    (WORK / "fixtures").mkdir(parents=True, exist_ok=True)
    info, results = [], []
    for name in names:
        path = ROOT / fixture_path(name)
        if path.exists():
            path.unlink()
        result = runner.fragrisk(build_cmd(name))
        if result.code == 0:
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            devices, hosts = fabric_counts(text)
            if (devices, hosts) != expected_counts(name):
                result.error = f"{name}: {devices} devices, {hosts} hosts != {expected_counts(name)}"
            kind, params = FABRICS[name]
            info.append({"name": name, "kind": kind, "params": list(params), "devices": devices,
                         "hosts": hosts, "bytes": len(text.encode()), "build_s": result.wall_s})
        results.append(result)
    return info, results


def time_help(runner: Runner) -> tuple[float, list[Result]]:
    results = [runner.fragrisk(Cmd("help", ("--help",), "help")) for _ in range(HELP_SAMPLES)]
    for r in results:
        if r.code == 0 and "usage: fragrisk" not in r.out:
            r.error = "--help printed no usage line"
    return statistics.median(r.wall_s for r in results), results


def checked(result: Result, refs: dict) -> Result:
    if result.code == 0:
        try:
            result.error = check(result, refs)
        except (ValueError, TypeError, IndexError) as exc:  # malformed output
            result.error = f"unexpected output: {exc!r}"
    return result


def run_pass(runner: Runner, cmds: list[Cmd], refs: dict, trace_dir: Path | None = None) -> list[Result]:
    return [checked(runner.fragrisk(cmd, None if trace_dir is None else trace_dir / f"{i}.json"), refs)
            for i, cmd in enumerate(cmds)]


def measure(runner: Runner, cmds: list[Cmd], refs: dict, seconds: float, hard_end: float) -> list[list[Result]]:
    """Run the command list round-robin for ``seconds``; returns each command's samples.

    The first pass always runs whole.  After it, the next command in turn
    runs only if its median time so far still fits in ``seconds``, so a run
    may end inside a pass and every command gets as many samples as the
    time allows.
    """
    samples: list[list[Result]] = [[] for _ in cmds]
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(cmds)
        if i >= len(cmds):
            expected = statistics.median(r.wall_s for r in samples[k])
            if time.perf_counter() - start + expected > seconds or time.monotonic() + expected > hard_end:
                break
        samples[k].append(checked(runner.fragrisk(cmds[k]), refs))
    return samples


def end_to_end_metrics(samples: list[list[Result]], setup_s: float) -> dict[str, float]:
    flat = [r for rs in samples for r in rs]
    return {
        "setup_s": setup_s,
        # one pass, with each command at its median over the run
        "wall_s": sum(statistics.median(r.wall_s for r in rs) for rs in samples),
        "peak_rss_mb": max(r.maxrss_kb for r in flat) / 1024.0,
    }


def command_class_rates(results: list[Result]) -> dict[str, float | None]:
    """Per-class throughput, reported in the context; None where a workload lacks the class.

    Each class is one to five commands of 1-3 s per pass, so these spread
    10-30% from run to run on a shared host: too much to gate on.
    """

    def rate(kind: str, work) -> float | None:
        done = [r for r in results if r.cmd.kind == kind]
        return sum(work(r) for r in done) / sum(r.wall_s for r in done) if done else None

    verify = [r.wall_s for r in results if r.cmd.kind == "verify"]
    return {
        "fault_trials_per_s": rate("harm", lambda r: r.cmd.work),
        "host_pairs_per_s": rate("hops", lambda r: pairs(expected_counts(r.cmd.fabric)[1])),
        "mc_draws_per_s": rate("draws", lambda r: r.cmd.work),
        "verify_s": statistics.median(verify) if verify else None,
    }


def import_times(runner: Runner) -> tuple[float, float, list[str]]:
    """Median cumulative import time of fragrisk.cli and of fragrisk.verify (s)."""
    cli, verify, errors = [], [], []
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, _, _, err = runner.run([PY, "-X", "importtime", "-c", "import fragrisk.cli"])
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        if code != 0 or "fragrisk.cli" not in cumulative:
            errors.append(f"importtime run failed (exit {code})")
            continue
        cli.append(cumulative["fragrisk.cli"])
        verify.append(cumulative.get("fragrisk.verify", 0.0))
    if not cli:
        return 0.0, 0.0, errors
    return statistics.median(cli), statistics.median(verify), errors


def per_layer_metrics(traced: list[Result], overhead_s: float, imports: tuple[float, float]) -> dict[str, float]:
    totals: dict[str, dict[str, float]] = {}
    harm_calls = harm_trials = 0
    for r in traced:
        functions = (r.trace or {}).get("functions", {})
        for name, row in functions.items():
            acc = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
            for key in acc:
                acc[key] += row[key]
        if r.cmd.kind == "harm":
            harm_calls += functions.get("topology.affected_fraction", {}).get("calls", 0)
            harm_trials += r.cmd.work

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics = {
        "cli.import_s": imports[0],
        "cli.import_verify_s": imports[1],
        "cli.main.self_s": get("cli.main", "self_s"),
        "topology.parse_topology.busy_s": get("topology.parse_topology", "busy_s"),
        "topology.parse_topology.bytes": get("topology.parse_topology", "count"),
        "topology.hop_histogram.busy_s": get("topology.hop_histogram", "busy_s"),
        "topology.hop_histogram.host_pairs": get("topology.hop_histogram", "count"),
        "topology.affected_fraction.calls": get("topology.affected_fraction", "calls"),
        "topology.affected_fraction.busy_s": get("topology.affected_fraction", "busy_s"),
        "topology.failure_harm_mc.busy_s": get("topology.failure_harm_mc", "busy_s"),
        "topology.failure_harm_mc.self_s": get("topology.failure_harm_mc", "self_s"),
        "topology.failure_harm_mc.trials": get("topology.failure_harm_mc", "count"),
        # share of `topo harm` trials answered without a connectivity call
        "topology.pattern_reuse_ratio": 1.0 - harm_calls / harm_trials if harm_trials else 0.0,
        "topology.inject_failures.busy_s": get("topology.inject_failures", "busy_s"),
        "costing.compare_designs.busy_s": get("costing.compare_designs", "busy_s"),
        "costing.compare_designs.self_s": get("costing.compare_designs", "self_s"),
        "pareto.pareto_sample.calls": get("pareto.pareto_sample", "calls"),
        "pareto.pareto_sample.draws": get("pareto.pareto_sample", "count"),
        "pareto.pareto_sample.busy_s": get("pareto.pareto_sample", "busy_s"),
        "pareto.mc_tail_mean.self_s": get("pareto.mc_tail_mean", "self_s"),
        "harm.survival_comparison.self_s": get("harm.survival_comparison", "self_s"),
        "growth.erf_value.calls": get("growth.erf_value", "calls"),
        "growth.erf_value.busy_s": get("growth.erf_value", "busy_s"),
        "growth.crossover.busy_s": get("growth.crossover", "busy_s"),
        "report.ScenarioReport.render.busy_s": get("report.ScenarioReport.render", "busy_s"),
        "report.ScenarioReport.render.bytes": get("report.ScenarioReport.render", "count"),
        "trace.overhead_s": overhead_s,
    }
    for name, row in totals.items():
        if name.startswith("verify.check_"):
            metrics[f"{name}.busy_s"] = row["busy_s"]
    return metrics


# ---------------------------------------------------------------------------
# context and entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "fragrisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def command_summary(results: list[Result]) -> list[dict]:
    by_id: dict[str, list[Result]] = {}
    for r in results:
        by_id.setdefault(r.cmd.id, []).append(r)
    return [
        {"id": cid, "runs": len(rs), "median_s": statistics.median(r.wall_s for r in rs),
         "max_rss_mb": max(r.maxrss_kb for r in rs) / 1024.0, "errors": sorted({r.error for r in rs if r.error})}
        for cid, rs in by_id.items()
    ]


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    if not (SRC / "fragrisk" / "__main__.py").is_file():
        print(f"error: no fragrisk sources under {SRC}; run from a fragrisk checkout", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))["commands"]
    WORK.mkdir(exist_ok=True)
    runner = Runner(started + RUN_LIMIT_S)

    cmds = commands(args.workload, args.seed, probes=bool(args.trace))
    fixtures, setup_results = build_fixtures(runner, fabrics_of(cmds))
    errors = [r.error for r in setup_results if r.error]
    if errors:
        # without its fixtures the workload cannot run; report the set-up failure
        print(json.dumps({"context": {"errors": errors}}))
        print(json.dumps({"correct": False, "attempted": len(setup_results), "failed": len(errors), "metrics": {}}))
        return 1

    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "environment": environment(), "fixtures": fixtures}
    checks: list[str] = []
    if not args.trace:
        setup_s, help_results = time_help(runner)
        setup_results += help_results
        samples = measure(runner, cmds, refs, args.seconds, started + RUN_LIMIT_S)
        timed = [r for rs in samples for r in rs]
        metrics = end_to_end_metrics(samples, setup_s)
        context["samples_per_command"] = [len(rs) for rs in samples]
        context["class_rates"] = command_class_rates(timed)
    else:
        untraced = run_pass(runner, cmds, refs)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(exist_ok=True)
        traced = run_pass(runner, cmds, refs, trace_dir)
        cli_s, verify_s, import_errors = import_times(runner)
        checks += import_errors
        for u, t in zip(untraced, traced):
            if t.code == 0 and t.trace is None:
                t.error = t.error or "tracer wrote no summary"
            if without_timings(u.out) != without_timings(t.out):
                checks.append(f"{u.cmd.id}: traced output differs from untraced output")
        timed = untraced + traced
        untraced_wall = sum(r.wall_s for r in untraced)
        traced_wall = sum(r.wall_s for r in traced)
        metrics = per_layer_metrics(traced, traced_wall - untraced_wall, (cli_s, verify_s))
        if args.workload == "fabric-faults" and metrics["topology.affected_fraction.calls"] <= 0:
            checks.append("topology.affected_fraction.calls is 0: a wrapper missed a by-name import")
        context.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall)
        context["class_rates"] = command_class_rates(untraced)

    all_results = setup_results + timed
    failed = sum(1 for r in all_results if r.error)
    context["commands"] = command_summary(timed)
    context["checks"] = checks
    missing = sorted(set(units) - set(metrics))
    if missing:
        checks.append(f"metrics not computed: {missing}")
    print(json.dumps({"context": context}))
    result = {
        "correct": failed == 0 and not checks,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
