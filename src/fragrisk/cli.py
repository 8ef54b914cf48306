"""Command-line front end.

Subcommands map one-to-one onto the analysis modules::

    harm-curve   harm transform samples (figure data)
    jensen       concentrated vs fragmented harm for one scenario
    risk         density | tail-mean | ratio | curve
    topo         build | hops | fail | harm
    growth       sigmoid vs linear capacity table and crossover
    compare      cost / power / fault-domain report
    verify       run every analytic-vs-oracle check

Reports print to stdout or, with ``--out``, are written whole after the
computation succeeds (never partially).  Identical flags and seed produce
byte-identical files.  ``FRAGRISK_OUT_DIR`` prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import DEFAULT_SEED, ScenarioConfig, load_config
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
# perfbench/tracer.py finds fragrisk.verify in sys.modules right after importing this module
from .verify import run_all_checks

OUT_DIR_ENV = "FRAGRISK_OUT_DIR"


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _check_range_end(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be finite and > 0, got {value}")


def _load_topology(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read())


def _config_from_args(args) -> ScenarioConfig:
    overrides = {}
    for flag, field in (
        ("k", "harm_k"),
        ("beta", "harm_beta"),
        ("weights", "harm_weights"),
        ("alpha", "pareto_alpha"),
        ("scale", "pareto_scale"),
        ("fragments", "fragments"),
        ("unit_value", "unit_value"),
        ("x", "error_x"),
        ("kind", "topology_kind"),
        ("spines", "topology_spines"),
        ("leaves", "topology_leaves"),
        ("hosts_per_leaf", "topology_hosts_per_leaf"),
        ("cores", "topology_cores"),
        ("distributions", "topology_distributions"),
        ("access_per_distribution", "topology_access_per_distribution"),
        ("hosts_per_access", "topology_hosts_per_access"),
        ("dual_homed", "topology_dual_homed"),
        ("trials", "trials"),
        ("seed", "seed"),
        ("format", "output_format"),
        ("digits", "output_digits"),
    ):
        if hasattr(args, flag):
            overrides[field] = getattr(args, flag)
    return load_config(getattr(args, "config", None), overrides)


def _stamp(report: ScenarioReport, cfg: ScenarioConfig, seeded: bool = True) -> ScenarioReport:
    report.config_hash = cfg.config_hash()
    if seeded:
        report.seed = cfg.seed
    if cfg.report_core_drop_probability is not None:
        report.extra_metadata.setdefault("core_drop_probability", cfg.report_core_drop_probability)
    return report


def _emit(report: ScenarioReport, cfg: ScenarioConfig, args, quiet: bool = False) -> None:
    text = report.render(cfg.output_format, cfg.output_digits)
    out = _resolve_out(getattr(args, "out", None))
    svg_path = _resolve_out(getattr(args, "svg", None))
    svg_text = None
    if svg_path is not None:
        x_col = report.columns[0]
        svg_text = svg_line_chart(report, x_col, title=report.command)
    if out is not None:
        _write_text(out, text)
    elif not quiet:
        sys.stdout.write(text)
    if svg_path is not None and svg_text is not None:
        _write_text(svg_path, svg_text)


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
    if getattr(args, "p", None) is not None:
        probs = {role: args.p for role in probs}
    for override in getattr(args, "p_role", None) or []:
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
    betas = _parse_floats(args.betas)
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    _check_range_end("--x-max", args.x_max)
    xs = [args.x_max * i / (args.points - 1) for i in range(args.points)]
    columns = ["x"] + [f"harm_beta_{beta:g}" for beta in betas]
    rows = []
    for x in xs:
        rows.append([x] + [harm(HarmParams(cfg.harm_k, beta), x) for beta in betas])
    report = _stamp(ScenarioReport("harm-curve", columns, rows), cfg, seeded=False)
    _emit(report, cfg, args)
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
    _emit(_stamp(report, cfg), cfg, args)
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
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
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
    _emit(_stamp(report, cfg), cfg, args)
    return 0


def cmd_risk_ratio(args) -> int:
    cfg = _config_from_args(args)
    ratio = degradation_ratio(_pareto_params(cfg), _harm_params(cfg), args.K, cfg.fragments)
    print(f"{ratio:.6f}")
    report = ScenarioReport("risk-ratio", ["K", "ratio"], [[args.K, ratio]])
    _emit(_stamp(report, cfg, seeded=False), cfg, args, quiet=True)
    return 0


def cmd_risk_curve(args) -> int:
    cfg = _config_from_args(args)
    multipliers = list(_parse_floats(args.K_values))
    curve = degradation_curve(_pareto_params(cfg), _harm_params(cfg), multipliers)
    report = ScenarioReport("risk-curve", ["K", "ratio"], [[k, r] for k, r in curve])
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
    return 0


def cmd_topo_build(args) -> int:
    cfg = _config_from_args(args)
    topo = _build_from_config(cfg)
    text = serialize_topology(topo)
    out = _resolve_out(args.out)
    if out is not None:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_topo_hops(args) -> int:
    cfg = _config_from_args(args)
    topo = _load_topology(args.topology)
    hist = hop_histogram(topo)
    rows = [[hops, hist[hops]] for hops in sorted(hist)]
    report = ScenarioReport("topo-hops", ["hops", "pairs"], rows)
    report.extra_metadata["unreachable_bucket"] = UNREACHABLE
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
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
    emit_path = _resolve_out(args.emit)
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
    if emit_path is not None:
        _write_text(emit_path, serialize_topology(injected))
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
    _emit(_stamp(report, cfg), cfg, args)
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
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    if args.a is not None:
        design_a = _load_topology(args.a)
    else:
        design_a = build_three_tier(
            cfg.topology_cores,
            cfg.topology_distributions,
            cfg.topology_access_per_distribution,
            cfg.topology_hosts_per_access,
            cfg.topology_dual_homed,
        )
    if args.b is not None:
        design_b = _load_topology(args.b)
    else:
        design_b = build_spine_leaf(
            cfg.topology_spines, cfg.topology_leaves, cfg.topology_hosts_per_leaf
        )
    assumptions = CostAssumptions(
        cfg.cost_modular_price_per_port,
        cfg.cost_modular_watts_per_port,
        cfg.cost_fixed_price_ratio,
        cfg.cost_fixed_watts_ratio,
    )
    ports = {
        "core": cfg.ports_core,
        "distribution": cfg.ports_distribution,
        "access": cfg.ports_access,
        "spine": cfg.ports_spine,
        "leaf": cfg.ports_leaf,
    }
    report = compare_designs(design_a, design_b, assumptions, ports)
    _emit(_stamp(report, cfg, seeded=False), cfg, args)
    return 0


def cmd_verify(args) -> int:
    results = run_all_checks(seed=args.seed if args.seed is not None else DEFAULT_SEED)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, svg: bool = False) -> None:
    parser.add_argument("--config", help="scenario config file (flat key = value)")
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="report format")
    parser.add_argument("--digits", type=_positive_int, default=None, help="significant digits in output (>= 1)")
    if svg:
        parser.add_argument("--svg", help="also write a static SVG line chart here")


def _add_harm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=float, default=None, help="harm scale k > 0")
    parser.add_argument("--beta", type=float, default=None, help="harm convexity exponent beta >= 0")


def _add_pareto_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="Pareto tail index")
    parser.add_argument("--scale", type=float, default=None, help="Pareto scale (minimum error)")


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
    p.add_argument("--weights", type=_parse_floats, default=None, help="comma list of fragment shares")
    p.add_argument("--x", type=float, default=None, help="error magnitude to evaluate")
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
    p.add_argument("--kind", choices=("spine-leaf", "three-tier"), default=None)
    p.add_argument("--spines", type=int, default=None)
    p.add_argument("--leaves", type=int, default=None)
    p.add_argument("--hosts-per-leaf", dest="hosts_per_leaf", type=int, default=None)
    p.add_argument("--cores", type=int, default=None)
    p.add_argument("--distributions", type=int, default=None)
    p.add_argument("--access-per-distribution", dest="access_per_distribution", type=int, default=None)
    p.add_argument("--hosts-per-access", dest="hosts_per_access", type=int, default=None)
    p.add_argument("--dual-homed", dest="dual_homed", action="store_const", const=True, default=None)
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
