"""Run one fragrisk CLI command with the package's public functions timed.

Usage::

    python3 perfbench/tracer.py SUMMARY.json -- <fragrisk arguments>

Every public module-level function of ``harm``, ``pareto``, ``growth``,
``topology``, ``costing``, ``report`` and ``verify`` is wrapped in a timing
span, as are ``report.ScenarioReport.render`` and ``cli.main``.  The modules
import each other's functions by name (``from .topology import
affected_fraction``), so every module-level binding that refers to a wrapped
function is rebound, not only the one in the defining module.

A span records its name, start, end and parent.  Spans stay in memory; at
exit they are reduced to per-function calls, busy time, self time and work
counters and written once to SUMMARY.json.  The command's stdout and exit
code are those of ``python3 -m fragrisk <arguments>``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("harm", "pareto", "growth", "topology", "costing", "report", "verify")

# Work counters, summed over calls: span name -> f(bound arguments, result).
COUNTERS = {
    "topology.parse_topology": lambda args, result: len(args["text"].encode()),
    "topology.hop_histogram": lambda args, result: sum(result.values()),
    "topology.failure_harm_mc": lambda args, result: int(args["trials"]),
    "pareto.pareto_sample": lambda args, result: int(args["count"]),
    "report.ScenarioReport.render": lambda args, result: len(result.encode()),
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, counter]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans only), self_s, count."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, count) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            row["count"] += count
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += end - start
        return out


def install(tracer: Tracer):
    """Wrap the public functions and rebind every reference to them; returns cli.main."""
    import fragrisk.cli  # imports every traced module

    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"fragrisk.{short}"]
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[id(value)] = tracer.wrap(f"{short}.{attr}", value)
    wrappers[id(fragrisk.cli.main)] = tracer.wrap("cli.main", fragrisk.cli.main)

    for name, module in list(sys.modules.items()):
        if name != "fragrisk" and not name.startswith("fragrisk."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])

    report_cls = sys.modules["fragrisk.report"].ScenarioReport
    report_cls.render = tracer.wrap("report.ScenarioReport.render", report_cls.render)
    return fragrisk.cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <fragrisk arguments>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:  # argparse flag errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"functions": tracer.summary(), "spans": len(tracer.spans)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
