"""Command-line front end.

Subcommands map one-to-one onto the analysis modules::

    harm-curve   harm transform samples (figure data)
    jensen       concentrated vs fragmented harm for one scenario
    risk         density | tail-mean | ratio | curve
    topo         build | hops | fail | harm
    growth       sigmoid vs linear capacity table and crossover
    compare      cost / power / fault-domain report
    verify       run every analytic-vs-oracle check

``main`` resolves the scenario config (file, flags and seed) before any
handler runs, so a malformed config file, an unknown key, a negative seed,
or a bad output format, digit count or topology kind fails every subcommand
that takes it before any work (exit 1); ``verify`` takes no flag.  A flag that
sets a config key is parsed only for its type, and ``ScenarioConfig`` checks
its range as it checks the key's, so ``--digits 0`` and ``output.digits = 0``
fail alike.  Numeric range checks (``harm.k = -1``, a port ratio above 1)
stay with the model that owns them and fail only the commands that use it,
because checking them up front would load every model module.

Every command's flags are built on each run, and a flag error (a flag that
is unknown, abbreviated or missing, or a value not of the flag's type) exits
2, reported with the usage of the command that the line names, even where the
flag stands before or between the command's words.

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
import functools
import math
import os
import stat
import sys
import warnings

# each analysis module runs on first use (see fragrisk/__init__.py), so a
# command pays only for the modules its handler calls into
from . import config, costing, growth, harm, pareto, report, topology, verify

OUT_DIR_ENV = "FRAGRISK_OUT_DIR"
# the most rows a --points grid may build; each costs about 17 us and 0.4 KB
MAX_POINTS = 10**6
# the most cells a grid report may hold: every grid of at most MAX_POINTS rows
# and four columns, which harm-curve has with its default three --betas
MAX_CELLS = 4 * MAX_POINTS


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return config.parse_float_list(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _role_probability(raw: str) -> tuple[str, float]:
    role, _, value = raw.partition("=")
    try:
        return role.strip(), float(value)
    except ValueError:  # no "=", or no number after it
        raise argparse.ArgumentTypeError(f"expects role=probability, got {raw!r}") from None


def _check_points(points: int, minimum: int, columns: int) -> None:
    if points < minimum:
        raise ValueError(f"--points must be >= {minimum}")
    if points > MAX_POINTS:
        raise ValueError(f"--points must be <= {MAX_POINTS}")
    if points * columns > MAX_CELLS:
        raise ValueError(
            f"--points {points} x {columns} report columns = {points * columns} cells, "
            f"more than the {MAX_CELLS} a report may hold"
        )


def _grid(flag: str, end: float, points: int, columns: int) -> list[float]:
    """``points`` evenly spaced values from 0 to ``end`` for a report of ``columns`` columns.

    ``flag`` names ``end`` in errors.
    """
    _check_points(points, 2, columns)
    if not (math.isfinite(end) and end > 0):
        raise ValueError(f"{flag} must be finite and > 0, got {end}")
    return [end * i / (points - 1) for i in range(points)]


def _load_topology(path: str):
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        return topology.parse_topology(fh.read())


def _config_from_args(args) -> config.ScenarioConfig:
    # each config-backed flag's argparse dest is the ScenarioConfig field it sets; --p-role r=x sets failure_r
    flags = vars(args)  # verify takes no --config
    overrides = {name: flags.get(name) for name in config.ScenarioConfig.__annotations__}
    for role, probability in flags.get("p_role") or ():
        if role not in topology.ROLES:
            raise ValueError(f"unknown role {role!r} in failure model")
        overrides[f"failure_{role}"] = probability
    return config.load_config(flags.get("config"), overrides)


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
    removed and the error names the target path, not the temp file.  Two
    outputs that resolve to one file are an error, and nothing is written.
    """
    if stdout is None:
        stdout = text if out is None else ""
    base = os.environ.get(OUT_DIR_ENV, "")  # prefixes relative paths only
    targets = [(out, text), *side_files]
    files = [(os.path.join(base, path), body) for path, body in targets if path is not None]
    seen = set()
    for path, _ in files:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"two outputs name the same file: {path!r}")
        seen.add(real)
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


def _distinct_messages(caught) -> list[str]:
    return list(dict.fromkeys(str(w.message) for w in caught))


def _command(args) -> str:
    """The command's label, its words on the command line joined by ``-`` (``topo-harm``)."""
    flags = vars(args)
    return "-".join(flags[dest] for dest in ("command", "risk_command", "topo_command") if dest in flags)


def _emit_report(cfg: config.ScenarioConfig, args, columns, rows, metadata=None, side_files=(), stdout=None) -> None:
    """Build the command's one report, render it, add ``--svg``, then ``_emit``.

    The report's metadata is ``metadata`` plus the config hash, the seed,
    the config's ``core_drop_probability`` and the warnings caught so far.
    """
    metadata = {**(metadata or {}), "config_hash": cfg.config_hash()}
    if hasattr(args, "seed"):  # every command that takes --seed; all but jensen draw random numbers
        metadata["seed"] = cfg.seed
    if cfg.report_core_drop_probability is not None:
        metadata["core_drop_probability"] = cfg.report_core_drop_probability
    messages = _distinct_messages(args.caught_warnings)
    if messages:
        metadata["warnings"] = " | ".join(messages)
    built = report.ScenarioReport(_command(args), columns, rows, metadata)
    svg = getattr(args, "svg", None)
    if svg is not None:
        side_files = [*side_files, (svg, report.svg_line_chart(built))]
    _emit(args.out, built.render(cfg.output_format, cfg.output_digits), side_files, stdout)


def _harm_params(cfg: config.ScenarioConfig) -> harm.HarmParams:
    return harm.HarmParams(cfg.harm_k, cfg.harm_beta)


def _pareto_params(cfg: config.ScenarioConfig) -> pareto.ParetoParams:
    return pareto.ParetoParams(cfg.pareto_alpha, cfg.pareto_scale)


def _build_from_config(cfg: config.ScenarioConfig, kind: str):
    if kind == "spine-leaf":
        return topology.build_spine_leaf(cfg.topology_spines, cfg.topology_leaves, cfg.topology_hosts_per_leaf)
    # neither ScenarioConfig nor compare gives any other kind
    return topology.build_three_tier(
        cfg.topology_cores,
        cfg.topology_distributions,
        cfg.topology_access_per_distribution,
        cfg.topology_hosts_per_access,
        cfg.topology_dual_homed,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_harm_curve(cfg: config.ScenarioConfig, args) -> int:
    columns = ["x"] + [f"harm_beta_{beta:g}" for beta in args.betas]
    xs = _grid("--x-max", args.x_max, args.points, len(columns))
    rows = []
    for x in xs:
        rows.append([x] + [harm.harm(harm.HarmParams(cfg.harm_k, beta), x) for beta in args.betas])
    _emit_report(cfg, args, columns, rows)
    return 0


def cmd_jensen(cfg: config.ScenarioConfig, args) -> int:
    params = _harm_params(cfg)
    weights = harm.FragmentWeights(cfg.harm_weights)
    concentrated = harm.harm(params, cfg.error_x)
    split = harm.fragmented_harm(params, weights, cfg.error_x)
    gap = harm.jensen_gap(params, weights, cfg.error_x)
    cen, dec = harm.survival_comparison(params, cfg.unit_value, weights, _pareto_params(cfg))
    columns = ["x", "harm", "fragmented_harm", "jensen_gap", "centralized_mean", "decentralized_mean", "mean_gap"]
    _emit_report(cfg, args, columns, [[cfg.error_x, concentrated, split, gap, cen, dec, dec - cen]])
    return 0


def cmd_risk_density(cfg: config.ScenarioConfig, args) -> int:
    p, h = _pareto_params(cfg), _harm_params(cfg)
    n = cfg.fragments
    _check_points(args.points, 1, 2)
    rows = []
    for i in range(args.points):
        q = (i + 1) / args.points  # quantile grid covers the support evenly
        xi = pareto.harm_quantile(p, h, n, q)
        rows.append([xi, pareto.fragment_harm_density(p, h, n, xi)])
    _emit_report(cfg, args, ["xi", "density"], rows)
    return 0


def cmd_risk_tail_mean(cfg: config.ScenarioConfig, args) -> int:
    p, h = _pareto_params(cfg), _harm_params(cfg)
    closed = pareto.tail_mean(p, h, cfg.fragments)
    estimate = pareto.mc_tail_mean(p, h, cfg.fragments, cfg.trials, cfg.seed)
    rel = abs(estimate - closed) / abs(closed)
    columns = ["fragments", "closed_form", "mc_estimate", "relative_error"]
    _emit_report(cfg, args, columns, [[cfg.fragments, closed, estimate, rel]])
    return 0


def cmd_risk_ratio(cfg: config.ScenarioConfig, args) -> int:
    ratio = pareto.degradation_ratio(_pareto_params(cfg), _harm_params(cfg), args.K, cfg.fragments)
    _emit_report(cfg, args, ["K", "ratio"], [[args.K, ratio]], stdout=f"{ratio:.6f}\n")
    return 0


def cmd_risk_curve(cfg: config.ScenarioConfig, args) -> int:
    curve = pareto.degradation_curve(_pareto_params(cfg), _harm_params(cfg), list(args.K_values))
    _emit_report(cfg, args, ["K", "ratio"], [[k, r] for k, r in curve])
    return 0


def cmd_topo_build(cfg: config.ScenarioConfig, args) -> int:
    _emit(args.out, topology.serialize_topology(_build_from_config(cfg, cfg.topology_kind)))
    return 0


def cmd_topo_hops(cfg: config.ScenarioConfig, args) -> int:
    topo = _load_topology(args.topology)
    hist = topology.hop_histogram(topo)
    rows = [[hops, hist[hops]] for hops in sorted(hist)]
    _emit_report(cfg, args, ["hops", "pairs"], rows, {"unreachable_bucket": topology.UNREACHABLE})
    return 0


def cmd_topo_fail(cfg: config.ScenarioConfig, args) -> int:
    topo = _load_topology(args.topology)
    failed = {tok.strip() for tok in args.fail.split(",") if tok.strip()} if args.fail else set()
    fraction = topology.affected_fraction(topo, failed)  # raises on unknown ids
    detached = len(topo.detached_hosts) + sum(d in failed for _, d in topo.hosts)
    side_files = []
    if args.emit is not None:
        side_files.append((args.emit, topology.serialize_topology(topology.inject_failures(topo, failed))))
    columns = ["failed_devices", "affected_fraction", "detached_hosts"]
    _emit_report(cfg, args, columns, [[len(failed), fraction, detached]], side_files=side_files)
    return 0


def cmd_topo_harm(cfg: config.ScenarioConfig, args) -> int:
    topo = _load_topology(args.topology)
    stats = topology.failure_harm_mc(topo, cfg.failure_probabilities(), _harm_params(cfg), cfg.trials, cfg.seed)
    rows = [[stats.expected_harm, stats.quantiles["p50"], stats.quantiles["p90"], stats.quantiles["p99"]]]
    metadata = {"trials": stats.trials, "distinct_patterns": stats.distinct_patterns, "std_error": stats.std_error}
    _emit_report(cfg, args, ["expected_harm", "p50", "p90", "p99"], rows, metadata)
    return 0


def cmd_growth(cfg: config.ScenarioConfig, args) -> int:
    sat, ports = args.saturation, args.ports_per_switch
    metadata = {"crossover_units": growth.crossover(sat, ports)}  # checks both numbers before the grid
    units = _grid("--max-units", args.max_units, args.points, 3)
    rows = [[u, growth.sigmoid_capacity(sat, u), growth.linear_capacity(ports, u)] for u in units]
    _emit_report(cfg, args, ["units", "sigmoid_capacity", "linear_capacity"], rows, metadata)
    return 0


def cmd_compare(cfg: config.ScenarioConfig, args) -> int:
    design_a, design_b = (
        _load_topology(path) if path is not None else _build_from_config(cfg, kind)
        for path, kind in ((args.a, "three-tier"), (args.b, "spine-leaf"))
    )
    assumptions = costing.CostAssumptions(
        cfg.cost_modular_price_per_port,
        cfg.cost_modular_watts_per_port,
        cfg.cost_fixed_price_ratio,
        cfg.cost_fixed_watts_ratio,
    )
    ports = {role: getattr(cfg, f"ports_{role}") for role in topology.ROLES}
    compared = costing.compare_designs(design_a, design_b, assumptions, ports)
    rows = [[metric, *values] for metric, values in compared.items()]
    _emit_report(cfg, args, ["metric", "design_a", "design_b", "ratio_b_over_a"], rows)
    return 0


def cmd_verify(cfg: config.ScenarioConfig, args) -> int:
    results = verify.run_all_checks()
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
    parser.add_argument("--format", dest="output_format", help="report format: csv or json")
    parser.add_argument("--digits", dest="output_digits", type=int, help="significant digits in output (>= 1)")
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
    """The ``fragrisk`` parser.

    Each leaf command's ``parser`` default is its own parser, which reports
    the words no flag takes.
    """
    # no flag may be abbreviated: argparse would read --spine as --spines, and harm-curve's --beta as --betas
    make_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = make_parser(
        prog="fragrisk",
        description="Fragmentation vs concentration of heavy-tailed harm, with fabric fault-domain analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make_parser)

    p = sub.add_parser("harm-curve", help="harm transform samples for plotting")
    _add_common(p, svg=True)
    p.add_argument("--k", dest="harm_k", type=float, help="harm scale k > 0")  # no --beta: it plots --betas
    p.add_argument("--betas", type=_float_list, default="1.5,2,3", help="comma list of exponents to plot")
    p.add_argument("--x-max", dest="x_max", type=float, default=4.0)
    p.add_argument("--points", type=int, default=81)
    p.set_defaults(func=cmd_harm_curve, parser=p)

    p = sub.add_parser("jensen", help="concentrated vs fragmented harm for one scenario")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    # the means are closed form; both flags are still accepted so existing command lines run
    p.add_argument("--trials", type=int, default=None, help="accepted for compatibility; changes no number")
    p.add_argument("--seed", type=int, default=None, help="accepted for compatibility; changes no number")
    p.add_argument("--weights", dest="harm_weights", type=_float_list, help="comma list of fragment shares")
    p.add_argument("--x", dest="error_x", type=float, help="error magnitude to evaluate")
    p.add_argument("--unit-value", dest="unit_value", type=float, default=None, help="value B at stake")
    p.set_defaults(func=cmd_jensen, parser=p)

    risk = sub.add_parser("risk", help="Pareto harm distribution analyses")
    risk_sub = risk.add_subparsers(dest="risk_command", required=True, parser_class=make_parser)

    p = risk_sub.add_parser("density", help="fragment harm density samples")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--fragments", type=int, default=None)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_risk_density, parser=p)

    p = risk_sub.add_parser("tail-mean", help="closed-form vs Monte Carlo tail mean")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    _add_mc_flags(p)
    p.add_argument("--fragments", type=int, default=None)
    p.set_defaults(func=cmd_risk_tail_mean, parser=p)

    p = risk_sub.add_parser("ratio", help="mean degradation ratio for a multiplier K")
    _add_common(p)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--K", type=float, required=True, help="fragment multiplier")
    p.add_argument("--fragments", type=int, default=None)
    p.set_defaults(func=cmd_risk_ratio, parser=p)

    p = risk_sub.add_parser("curve", help="degradation ratio curve over K")
    _add_common(p, svg=True)
    _add_harm_flags(p)
    _add_pareto_flags(p)
    p.add_argument("--K-values", dest="K_values", type=_float_list, default=",".join(str(k) for k in range(1, 33)))
    p.set_defaults(func=cmd_risk_curve, parser=p)

    topo = sub.add_parser("topo", help="fabric construction and fault analysis")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True, parser_class=make_parser)

    p = topo_sub.add_parser("build", help="construct a fabric and emit its text form")
    p.add_argument("--config", help="scenario config file")
    p.add_argument("--out", help="write the topology file here instead of stdout")
    p.add_argument("--kind", dest="topology_kind", help="spine-leaf or three-tier")
    p.add_argument("--spines", dest="topology_spines", type=int)
    p.add_argument("--leaves", dest="topology_leaves", type=int)
    p.add_argument("--hosts-per-leaf", dest="topology_hosts_per_leaf", type=int)
    p.add_argument("--cores", dest="topology_cores", type=int)
    p.add_argument("--distributions", dest="topology_distributions", type=int)
    p.add_argument("--access-per-distribution", dest="topology_access_per_distribution", type=int)
    p.add_argument("--hosts-per-access", dest="topology_hosts_per_access", type=int)
    p.add_argument("--dual-homed", dest="topology_dual_homed", action="store_const", const=True)
    p.set_defaults(func=cmd_topo_build, parser=p)

    p = topo_sub.add_parser("hops", help="hop histogram over all host pairs")
    _add_common(p)
    p.add_argument("--topology", required=True, help="topology file to analyze")
    p.set_defaults(func=cmd_topo_hops, parser=p)

    p = topo_sub.add_parser("fail", help="inject device failures and measure the fault domain")
    _add_common(p)
    p.add_argument("--topology", required=True)
    p.add_argument("--fail", default="", help="comma list of device ids to fail")
    p.add_argument("--emit", help="write the injected topology here")
    p.set_defaults(func=cmd_topo_fail, parser=p)

    p = topo_sub.add_parser("harm", help="Monte Carlo expected harm of random failures")
    _add_common(p)
    _add_harm_flags(p)
    _add_mc_flags(p)
    p.add_argument("--topology", required=True)
    p.add_argument("--p", dest="failure_default", type=float, help="failure.default: probability of unset roles")
    p.add_argument("--p-role", type=_role_probability, action="append", help="role=probability: failure.<role>")
    p.set_defaults(func=cmd_topo_harm, parser=p)

    p = sub.add_parser("growth", help="sigmoid vs linear capacity growth")
    _add_common(p, svg=True)
    p.add_argument("--saturation", type=float, default=100.0, help="modular chassis port limit")
    p.add_argument("--ports-per-switch", dest="ports_per_switch", type=int, default=48)
    p.add_argument("--max-units", dest="max_units", type=float, default=5.0)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=cmd_growth, parser=p)

    p = sub.add_parser("compare", help="cost/power/fault-domain comparison of two designs")
    _add_common(p)
    p.add_argument("--a", help="topology file for design a (default: 3-tier from config)")
    p.add_argument("--b", help="topology file for design b (default: spine-leaf from config)")
    p.set_defaults(func=cmd_compare, parser=p)

    p = sub.add_parser("verify", help="run every analytic-vs-oracle check")
    p.set_defaults(func=cmd_verify, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # the command the line names reports them, with its own usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    error = None
    with warnings.catch_warnings(record=True) as caught:
        args.caught_warnings = caught  # _emit_report records the ones raised before it renders
        try:
            code = args.func(_config_from_args(args), args)
        except OverflowError:  # a float power or product past the float range, wherever it arose
            code, error = 1, report.not_finite(f"{_command(args)}: a result")
        except (ValueError, OSError, MemoryError) as exc:
            code, error = 1, exc
    # a failure leads, so stderr's first line says why nothing was written
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    for message in _distinct_messages(caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
