"""Command-line front end.

Subcommands map one-to-one onto the analysis modules::

    harm-curve   harm transform samples (figure data)
    jensen       concentrated vs fragmented harm for one scenario
    risk         density | tail-mean | ratio | curve
    topo         build | hops | fail | harm
    growth       sigmoid vs linear capacity table and crossover
    compare      cost / power / fault-domain report
    verify       run every analytic-vs-oracle check

Reports print to stdout or, with ``--out``, go to a file.  A command's
outputs (``--out``, ``--svg``, ``--emit`` and the topology of ``topo
build``) are written all together or not at all, and only after the
computation succeeds; stdout is written last, so a failed command prints no
report either.  A device target such as ``/dev/null`` cannot be renamed
over, so it is written in place after the other files.  Identical flags and
seed produce byte-identical files.
``FRAGRISK_OUT_DIR`` prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
import warnings
from dataclasses import fields, replace

from .config import DEFAULT_SEED, ScenarioConfig, _parse_floats, load_config
from .costing import CostAssumptions, compare_designs
from .growth import GrowthSpec, capacity_at, crossover
from .harm import FragmentWeights, HarmParams, fragmented_harm, harm, jensen_gap, survival_comparison
from .pareto import (
    ParetoParams,
    degradation_curve,
    degradation_ratio,
    fragment_harm_density,
    harm_quantile,
    mc_tail_mean,
    tail_mean,
)
from .report import ScenarioReport, svg_line_chart
from .topology import (
    ROLES,
    FailureModel,
    UNREACHABLE,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
    inject_failures,
    parse_topology,
    serialize_topology,
)
# perfbench/tracer.py looks up fragrisk.{harm,pareto,growth,topology,costing,
# report,verify} in sys.modules right after importing this module, so importing
# it must load all seven; only this import loads verify
from .verify import run_all_checks

OUT_DIR_ENV = "FRAGRISK_OUT_DIR"


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _parse_values(flag: str, raw: str) -> tuple[float, ...]:
    values = _parse_floats(raw)
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {raw!r}")
    return values


def _check_range_end(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be finite and > 0, got {value}")


def _load_topology(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read())


def _config_from_args(args) -> ScenarioConfig:
    # each config-backed flag's argparse dest is the ScenarioConfig field it sets
    flags = vars(args)
    return load_config(args.config, {f.name: flags.get(f.name) for f in fields(ScenarioConfig)})


def _emit(out: str | None, text: str, side_files=(), stdout: str | None = None) -> None:
    """Write a command's outputs all together or not at all.

    ``text`` goes to ``out``, else to stdout; each ``(path, text)`` in
    ``side_files`` whose path is set goes to that path; ``stdout``, if
    given, is what stdout gets instead.  Each file is written to a temp file
    next to its target (a symlink's target, which keeps the link), all are
    renamed into place only once every one is written, and stdout comes
    last.  An overwritten file keeps its mode.  A target that exists but is
    not a regular file (``/dev/null``, a FIFO) cannot be renamed over, so it
    is written in place after the renames.  On failure the temp files are
    removed and the error names the target path, not the temp file.
    """
    if stdout is None:
        stdout = text if out is None else ""
    base = os.environ.get(OUT_DIR_ENV, "")  # prefixes relative paths only
    targets = [(out, text), *side_files]
    files = [(os.path.join(base, path), body) for path, body in targets if path is not None]
    staged: list[tuple[str, str, str]] = []  # (temp file, file it replaces, user's path)
    in_place: list[tuple[str, str]] = []
    path = None
    try:
        for i, (path, body) in enumerate(files):
            mode = os.stat(path).st_mode if os.path.exists(path) else None
            if mode is not None and stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if mode is not None and not stat.S_ISREG(mode):
                in_place.append((path, body))
                continue
            target = os.path.realpath(path)
            tmp = os.path.join(os.path.dirname(target), f".fragrisk-{os.getpid()}-{i}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, target, path))
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        for tmp, target, path in staged:
            os.replace(tmp, target)
        for path, body in in_place:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
    except BaseException as exc:
        for tmp, _, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    sys.stdout.write(stdout)


def _emit_report(report: ScenarioReport, cfg: ScenarioConfig, args, side_files=(), stdout=None) -> None:
    """Stamp ``report`` with the config hash (and seed), render it, add ``--svg``, then ``_emit``."""
    report.config_hash = cfg.config_hash()
    if hasattr(args, "seed"):  # exactly the commands that take --seed draw random numbers
        report.seed = cfg.seed
    if cfg.report_core_drop_probability is not None:
        report.extra_metadata.setdefault("core_drop_probability", cfg.report_core_drop_probability)
    svg = getattr(args, "svg", None)
    if svg is not None:
        side_files = [*side_files, (svg, svg_line_chart(report, report.columns[0], title=report.command))]
    _emit(args.out, report.render(cfg.output_format, cfg.output_digits), side_files, stdout)


def _harm_params(cfg: ScenarioConfig) -> HarmParams:
    return HarmParams(cfg.harm_k, cfg.harm_beta)


def _pareto_params(cfg: ScenarioConfig) -> ParetoParams:
    return ParetoParams(cfg.pareto_alpha, cfg.pareto_scale)


def _build_from_config(cfg: ScenarioConfig):
    if cfg.topology_kind == "spine-leaf":
        return build_spine_leaf(cfg.topology_spines, cfg.topology_leaves, cfg.topology_hosts_per_leaf)
    if cfg.topology_kind == "three-tier":
        return build_three_tier(
            cfg.topology_cores,
            cfg.topology_distributions,
            cfg.topology_access_per_distribution,
            cfg.topology_hosts_per_access,
            cfg.topology_dual_homed,
        )
    raise ValueError(f"unknown topology kind {cfg.topology_kind!r} (expected spine-leaf or three-tier)")


def _failure_model(cfg: ScenarioConfig, args) -> FailureModel:
    probs = cfg.failure_probabilities()
    if args.p is not None:
        probs = {role: args.p for role in probs}
    for override in args.p_role or []:
        role, _, value = override.partition("=")
        if not value:
            raise ValueError(f"--p-role expects role=probability, got {override!r}")
        probs[role.strip()] = float(value)
    return FailureModel(probs)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_harm_curve(args) -> int:
    cfg = _config_from_args(args)
    betas = _parse_values("--betas", args.betas)
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    _check_range_end("--x-max", args.x_max)
    xs = [args.x_max * i / (args.points - 1) for i in range(args.points)]
    columns = ["x"] + [f"harm_beta_{beta:g}" for beta in betas]
    rows = []
    for x in xs:
        rows.append([x] + [harm(HarmParams(cfg.harm_k, beta), x) for beta in betas])
    _emit_report(ScenarioReport("harm-curve", columns, rows), cfg, args)
    return 0


def cmd_jensen(args) -> int:
    cfg = _config_from_args(args)
    params = _harm_params(cfg)
    weights = FragmentWeights(cfg.harm_weights)
    concentrated = harm(params, cfg.error_x)
    split = fragmented_harm(params, weights, cfg.error_x)
    gap = jensen_gap(params, weights, cfg.error_x)
    cen, dec = survival_comparison(
        params, cfg.unit_value, weights, _pareto_params(cfg), cfg.trials, cfg.seed
    )
    report = ScenarioReport(
        "jensen",
        ["x", "harm", "fragmented_harm", "jensen_gap", "centralized_mean", "decentralized_mean", "mean_gap"],
        [[cfg.error_x, concentrated, split, gap, cen, dec, dec - cen]],
    )
    _emit_report(report, cfg, args)
    return 0


def cmd_risk_density(args) -> int:
    cfg = _config_from_args(args)
    p, h = _pareto_params(cfg), _harm_params(cfg)
    n = cfg.fragments
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    rows = []
    for i in range(args.points):
        q = (i + 1) / args.points  # quantile grid covers the support evenly
        xi = harm_quantile(p, h, n, q)
        rows.append([xi, fragment_harm_density(p, h, n, xi)])
    report = ScenarioReport("risk-density", ["xi", "density"], rows)
    _emit_report(report, cfg, args)
    return 0


def cmd_risk_tail_mean(args) -> int:
    cfg = _config_from_args(args)
    p, h = _pareto_params(cfg), _harm_params(cfg)
    closed = tail_mean(p, h, cfg.fragments)
    estimate = mc_tail_mean(p, h, cfg.fragments, cfg.trials, cfg.seed)
    rel = abs(estimate - closed) / abs(closed)
    report = ScenarioReport(
        "risk-tail-mean",
        ["fragments", "closed_form", "mc_estimate", "relative_error"],
        [[cfg.fragments, closed, estimate, rel]],
    )
    _emit_report(report, cfg, args)
    return 0


def cmd_risk_ratio(args) -> int:
    cfg = _config_from_args(args)
    ratio = degradation_ratio(_pareto_params(cfg), _harm_params(cfg), args.K, cfg.fragments)
    report = ScenarioReport("risk-ratio", ["K", "ratio"], [[args.K, ratio]])
    _emit_report(report, cfg, args, stdout=f"{ratio:.6f}\n")
    return 0


def cmd_risk_curve(args) -> int:
    cfg = _config_from_args(args)
    multipliers = list(_parse_values("--K-values", args.K_values))
    curve = degradation_curve(_pareto_params(cfg), _harm_params(cfg), multipliers)
    report = ScenarioReport("risk-curve", ["K", "ratio"], [[k, r] for k, r in curve])
    _emit_report(report, cfg, args)
    return 0


def cmd_topo_build(args) -> int:
    cfg = _config_from_args(args)
    _emit(args.out, serialize_topology(_build_from_config(cfg)))
    return 0


def cmd_topo_hops(args) -> int:
    cfg = _config_from_args(args)
    topo = _load_topology(args.topology)
    hist = hop_histogram(topo)
    rows = [[hops, hist[hops]] for hops in sorted(hist)]
    report = ScenarioReport("topo-hops", ["hops", "pairs"], rows)
    report.extra_metadata["unreachable_bucket"] = UNREACHABLE
    _emit_report(report, cfg, args)
    return 0


def cmd_topo_fail(args) -> int:
    cfg = _config_from_args(args)
    topo = _load_topology(args.topology)
    failed = {tok.strip() for tok in args.fail.split(",") if tok.strip()} if args.fail else set()
    fraction = affected_fraction(topo, failed)
    injected = inject_failures(topo, failed)
    report = ScenarioReport(
        "topo-fail",
        ["failed_devices", "affected_fraction", "detached_hosts"],
        [[len(failed), fraction, len(injected.detached_hosts)]],
    )
    _emit_report(report, cfg, args, side_files=[(args.emit, serialize_topology(injected))])
    return 0


def cmd_topo_harm(args) -> int:
    cfg = _config_from_args(args)
    topo = _load_topology(args.topology)
    stats = failure_harm_mc(topo, _failure_model(cfg, args), _harm_params(cfg), cfg.trials, cfg.seed)
    report = ScenarioReport(
        "topo-harm",
        ["expected_harm", "p50", "p90", "p99"],
        [[stats.expected_harm, stats.quantiles["p50"], stats.quantiles["p90"], stats.quantiles["p99"]]],
    )
    _emit_report(report, cfg, args)
    return 0


def cmd_growth(args) -> int:
    cfg = _config_from_args(args)
    sig = GrowthSpec.sigmoid(args.saturation)
    lin = GrowthSpec.linear(args.ports_per_switch)
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    _check_range_end("--max-units", args.max_units)
    rows = []
    for i in range(args.points):
        units = args.max_units * i / (args.points - 1)
        rows.append([units, capacity_at(sig, units), capacity_at(lin, units)])
    report = ScenarioReport("growth", ["units", "sigmoid_capacity", "linear_capacity"], rows)
    report.extra_metadata["crossover_units"] = crossover(sig, lin)
    _emit_report(report, cfg, args)
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    design_a, design_b = (
        _load_topology(path) if path is not None else _build_from_config(replace(cfg, topology_kind=kind))
        for path, kind in ((args.a, "three-tier"), (args.b, "spine-leaf"))
    )
    assumptions = CostAssumptions(
        cfg.cost_modular_price_per_port,
        cfg.cost_modular_watts_per_port,
        cfg.cost_fixed_price_ratio,
        cfg.cost_fixed_watts_ratio,
    )
    ports = {role: getattr(cfg, f"ports_{role}") for role in ROLES}
    report = compare_designs(design_a, design_b, assumptions, ports)
    _emit_report(report, cfg, args)
    return 0


def cmd_verify(args) -> int:
    results = run_all_checks(seed=args.seed)
    failed = sum(1 for r in results if not r.passed)
    lines = [result.line() for result in results]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(None, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, svg: bool = False) -> None:
    parser.add_argument("--config", help="scenario config file (flat key = value)")
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"), help="report format")
    parser.add_argument(
        "--digits", dest="output_digits", type=_positive_int, help="significant digits in output (>= 1)"
    )
    if svg:
        parser.add_argument("--svg", help="also write a static SVG line chart here")


def _add_harm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", dest="harm_k", type=float, help="harm scale k > 0")
    parser.add_argument("--beta", dest="harm_beta", type=float, help="harm convexity exponent beta >= 0")


def _add_pareto_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", dest="pareto_alpha", type=float, help="Pareto tail index")
    parser.add_argument("--scale", dest="pareto_scale", type=float, help="Pareto scale (minimum error)")


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (fixed default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragrisk",
        description="Fragmentation vs concentration of heavy-tailed harm, with fabric fault-domain analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harm-curve", help="harm transform samples for plotting")
    _add_common(p, svg=True)
    _add_harm_flags(p)
    p.add_argument("--betas", default="1.5,2,3", help="comma list of exponents to plot")
    p.add_argument("--x-max", dest="x_max", type=float, default=4.0)
    p.add_argument("--points", type=int, default=81)
    p.set_defaults(func=cmd_harm_curve)

    p = sub.add_parser("jensen", help="concentrated vs fragmented harm for one scenario")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    _add_mc_flags(p)
    p.add_argument("--weights", dest="harm_weights", type=_parse_floats, help="comma list of fragment shares")
    p.add_argument("--x", dest="error_x", type=float, help="error magnitude to evaluate")
    p.add_argument("--unit-value", dest="unit_value", type=float, default=None, help="value B at stake")
    p.set_defaults(func=cmd_jensen)

    risk = sub.add_parser("risk", help="Pareto harm distribution analyses")
    risk_sub = risk.add_subparsers(dest="risk_command", required=True)

    p = risk_sub.add_parser("density", help="fragment harm density samples")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--fragments", "-N", type=int, default=None)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_risk_density)

    p = risk_sub.add_parser("tail-mean", help="closed-form vs Monte Carlo tail mean")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    _add_mc_flags(p)
    p.add_argument("--fragments", "-N", type=int, default=None)
    p.set_defaults(func=cmd_risk_tail_mean)

    p = risk_sub.add_parser("ratio", help="mean degradation ratio for a multiplier K")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--K", type=float, required=True, help="fragment multiplier")
    p.add_argument("--fragments", "-N", type=int, default=None)
    p.set_defaults(func=cmd_risk_ratio)

    p = risk_sub.add_parser("curve", help="degradation ratio curve over K")
    _add_common(p, svg=True)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--K-values", dest="K_values", default=",".join(str(k) for k in range(1, 33)))
    p.set_defaults(func=cmd_risk_curve)

    topo = sub.add_parser("topo", help="fabric construction and fault analysis")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    p = topo_sub.add_parser("build", help="construct a fabric and emit its text form")
    p.add_argument("--config", help="scenario config file")
    p.add_argument("--out", help="write the topology file here instead of stdout")
    p.add_argument("--kind", dest="topology_kind", choices=("spine-leaf", "three-tier"))
    p.add_argument("--spines", dest="topology_spines", type=int)
    p.add_argument("--leaves", dest="topology_leaves", type=int)
    p.add_argument("--hosts-per-leaf", dest="topology_hosts_per_leaf", type=int)
    p.add_argument("--cores", dest="topology_cores", type=int)
    p.add_argument("--distributions", dest="topology_distributions", type=int)
    p.add_argument("--access-per-distribution", dest="topology_access_per_distribution", type=int)
    p.add_argument("--hosts-per-access", dest="topology_hosts_per_access", type=int)
    p.add_argument("--dual-homed", dest="topology_dual_homed", action="store_const", const=True)
    p.set_defaults(func=cmd_topo_build)

    p = topo_sub.add_parser("hops", help="hop histogram over all host pairs")
    _add_common(p)
    p.add_argument("--topology", required=True, help="topology file to analyze")
    p.set_defaults(func=cmd_topo_hops)

    p = topo_sub.add_parser("fail", help="inject device failures and measure the fault domain")
    _add_common(p)
    p.add_argument("--topology", required=True)
    p.add_argument("--fail", default="", help="comma list of device ids to fail")
    p.add_argument("--emit", help="write the injected topology here")
    p.set_defaults(func=cmd_topo_fail)

    p = topo_sub.add_parser("harm", help="Monte Carlo expected harm of random failures")
    _add_common(p)
    _add_harm_flags(p)
    _add_mc_flags(p)
    p.add_argument("--topology", required=True)
    p.add_argument("--p", type=float, default=None, help="uniform per-device failure probability")
    p.add_argument("--p-role", dest="p_role", action="append", help="role=probability override")
    p.set_defaults(func=cmd_topo_harm)

    p = sub.add_parser("growth", help="sigmoid vs linear capacity growth")
    _add_common(p, svg=True)
    p.add_argument("--saturation", type=float, default=100.0, help="modular chassis port limit")
    p.add_argument("--ports-per-switch", dest="ports_per_switch", type=int, default=48)
    p.add_argument("--max-units", dest="max_units", type=float, default=5.0)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("compare", help="cost/power/fault-domain comparison of two designs")
    _add_common(p)
    p.add_argument("--a", help="topology file for design a (default: 3-tier from config)")
    p.add_argument("--b", help="topology file for design b (default: spine-leaf from config)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run every analytic-vs-oracle check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (ValueError, OSError, OverflowError, MemoryError) as exc:
            code, error = 1, exc
    # a failure leads, so stderr's first line says why nothing was written
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
