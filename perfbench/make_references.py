"""Regenerate perfbench/references.json from the current sources.

Usage (from the root of a checkout)::

    python3 perfbench/make_references.py

For every command whose report the benchmark compares against a reference,
this runs the command at each seed in SEEDS (once if it takes no seed) and
stores, per report cell, the interval a later run's value must lie in:

- the mean over seeds +- SIGMA_MULTIPLIER standard deviations of the values,
  at least +- 1e-9 relative, so exact cells must match to rounding;
- for the `topo harm` severity quantiles, widened to the neighbouring
  quantiles' means (p90 between the p99 and p50 means, and so on).  Those
  quantiles take few distinct values, so 32 seeds can agree on one value
  that another seed misses by one step.

The benchmark's own runs use other seeds, so the intervals are tested out
of sample.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run

SEEDS = range(1000, 1032)
SIGMA_MULTIPLIER = 6.0
REFERENCED_KINDS = ("hops", "harm", "draws", "report")
HARM_COLUMNS = ["expected_harm", "p50", "p90", "p99"]


def interval(values: list) -> list:
    """[low, high] bounds for one report cell; labels must match exactly."""
    if isinstance(values[0], str):
        return [values[0], values[0]]
    mean = statistics.fmean(values)
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    half = max(SIGMA_MULTIPLIER * spread, 1e-9 * abs(mean), 1e-15)
    return [mean - half, mean + half]


def widen_quantiles(row: list) -> None:
    """Widen p50/p90/p99 to the neighbouring quantiles' means (harm <= 0)."""
    m50, m90, m99 = (sum(row[i]) / 2 for i in (1, 2, 3))
    brackets = {1: (m90, min(0.0, 2 * m50 - m90)), 2: (m99, m50), 3: (2 * m99 - m90, m90)}
    for i, (low, high) in brackets.items():
        row[i] = [min(row[i][0], low), max(row[i][1], high)]


def main() -> int:
    variants: dict[str, set[run.Cmd]] = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            for cmd in run.commands(workload, seed, probes=True):
                if cmd.kind in REFERENCED_KINDS:
                    variants.setdefault(cmd.id, set()).add(cmd)

    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(time.monotonic() + 3600.0)
    fabrics = sorted({c.fabric for cmds in variants.values() for c in cmds if c.fabric})
    _, built = run.build_fixtures(runner, fabrics)
    if any(r.error for r in built):
        print("fixture build failed: " + "; ".join(r.error for r in built if r.error), file=sys.stderr)
        return 1

    def execute(cmd: run.Cmd):
        argv = [run.PY, "-m", "fragrisk", *cmd.args]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, env=runner.env, check=True)
        return run.parse_csv_report(proc.stdout)

    jobs = [cmd for cmds in variants.values() for cmd in sorted(cmds, key=lambda c: c.args)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(execute, jobs))

    grouped: dict[str, list] = {}
    for cmd, report in zip(jobs, reports):
        grouped.setdefault(cmd.id, []).append(report)
    commands = {}
    for cid, outs in sorted(grouped.items()):
        columns = outs[0][0]
        cells = []
        for r, row in enumerate(outs[0][1]):
            cells.append([interval([rows[r][c] for _, rows in outs]) for c in range(len(row))])
        if columns == HARM_COLUMNS:
            widen_quantiles(cells[0])
        commands[cid] = {"columns": columns, "seeds": len(outs), "cells": cells}

    doc = {
        "generated_from": run.environment(),
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "sigma_multiplier": SIGMA_MULTIPLIER,
        "commands": commands,
    }
    out = run.BENCH_DIR / "references.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(commands)} references to {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
