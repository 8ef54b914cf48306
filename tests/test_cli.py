import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragrisk import cli
from fragrisk.cli import MAX_CELLS, MAX_POINTS, build_parser, main
from fragrisk.config import ScenarioConfig, load_config, parse_config_text
from fragrisk.harm import HarmParams
from fragrisk.report import ScenarioReport
from fragrisk.topology import (
    build_spine_leaf,
    build_three_tier,
    inject_failures,
    parse_topology,
    serialize_topology,
)
from fragrisk.verify import exhaustive_failure_harm


def run(args):
    return main(list(args))


def exit_code(args) -> int:
    """``run``'s exit code, also when argparse rejects a flag and exits."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def strict_json(text):
    """``json.loads`` that refuses the bare ``NaN`` and ``Infinity`` Python writes for non-finite floats."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestConfig:
    def test_defaults_hash_stable(self):
        assert ScenarioConfig().config_hash() == ScenarioConfig().config_hash()
        assert ScenarioConfig().config_hash() != ScenarioConfig(seed=7).config_hash()

    def test_parse_and_types(self):
        values = parse_config_text(
            "# scenario\nharm.k = 2.0\nharm.beta=3\nfragments.count = 4\n"
            "topology.kind = three-tier\ntopology.dual_homed = true\nharm.weights = 0.25,0.75\n"
        )
        assert values["harm_k"] == 2.0
        assert values["fragments"] == 4
        assert values["topology_dual_homed"] is True
        assert values["harm_weights"] == (0.25, 0.75)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("harm.gamma = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match=re.escape("ScenarioConfig has no fields ['bogus']")):
            ScenarioConfig(bogus=1)

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "topology.dual_homed = maybe",
                "config line 1: bad value for 'topology.dual_homed': expected a boolean, got 'maybe'",
            ),
            ("ports.leaf = 0", "port count for role 'leaf' must be >= 1, got 0"),
        ],
    )
    def test_bad_config_value_fails_compare(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert run(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_overrides_beat_file(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("seed = 1\ntrials = 10\n")
        cfg = load_config(str(cfg_file), {"seed": 99, "trials": None})
        assert cfg.seed == 99
        assert cfg.trials == 10

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # it used to fail as "config line 1: unknown key '\ufeffharm.k'"
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("\ufeffharm.k = 2\nseed = 7\n", encoding="utf-8")
        cfg = load_config(str(cfg_file))
        assert (cfg.harm_k, cfg.seed) == (2.0, 7)

    def test_readme_example_parses(self):
        # two of its value lines used to carry trailing comments, which the grammar rejects
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config files", 1)[1].split("```", 2)[1]
        values = parse_config_text(block)
        assert values["failure_core"] == 0.02
        assert values["report_core_drop_probability"] == 0.001


class TestRiskCommands:
    def test_ratio_prints_six_decimals(self, capsys):
        assert run(["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.629961"

    def test_ratio_rejects_divergent(self, capsys):
        assert run(["risk", "ratio", "--alpha", "1", "--beta", "1.5", "--K", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_tail_mean_report(self, tmp_path):
        out = tmp_path / "tail.csv"
        code = run(
            ["risk", "tail-mean", "--alpha", "4", "--beta", "1.5", "--fragments", "2",
             "--trials", "20000", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "closed_form" in text
        assert "-0.317480" in text  # 17-sig-digit rendering of the closed form

    def test_density_json(self, tmp_path):
        out = tmp_path / "density.json"
        assert run(
            ["risk", "density", "--alpha", "4", "--beta", "1.5", "--fragments", "2",
             "--format", "json", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["xi", "density"]
        assert len(doc["rows"]) == 100
        assert doc["metadata"]["command"] == "risk-density"


class TestJensenCommand:
    ARGS = ["jensen", "--k", "1", "--beta", "2", "--weights", "0.5,0.5", "--alpha", "4"]

    def test_prints_exact_means(self, capsys):
        # E[X^2] = 2 at alpha=4, L=1, so the arms keep 10 - 2 and 10 - 2 * (0.25 + 0.25)
        assert run(self.ARGS) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1,-1,-0.5,0.5,8,9,1"

    def test_trials_and_seed_change_no_number(self, capsys):
        assert run(self.ARGS) == 0
        default = capsys.readouterr().out.splitlines()[-1]
        assert run(self.ARGS + ["--trials", "7", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == default


class TestTopoCommands:
    def test_build_then_hops(self, tmp_path, capsys):
        topo = tmp_path / "fabric.txt"
        assert run(
            ["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "4",
             "--hosts-per-leaf", "10", "--out", str(topo)]
        ) == 0
        assert topo.read_text().startswith("topology/1\n")
        assert run(["topo", "hops", "--topology", str(topo)]) == 0
        out = capsys.readouterr().out
        assert "0,180" in out and "2,600" in out

    def test_fail_reports_fraction(self, tmp_path, capsys):
        topo = tmp_path / "fabric.txt"
        run(["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "4",
             "--hosts-per-leaf", "1", "--out", str(topo)])
        emitted = tmp_path / "injected.txt"
        assert run(
            ["topo", "fail", "--topology", str(topo), "--fail", "leaf0", "--emit", str(emitted)]
        ) == 0
        out = capsys.readouterr().out
        assert "affected_fraction" in out
        assert "1,0.5,1" in out
        assert "host h0 detached" in emitted.read_text()

    def test_fail_without_emit_never_injects(self, cli_inputs, capsys, monkeypatch):
        def refuse(t, failed):
            raise AssertionError("topo fail rebuilt the failed fabric without --emit")

        monkeypatch.setattr("fragrisk.topology.inject_failures", refuse)
        assert run(["topo", "fail", "--topology", str(cli_inputs / "sl.txt"), "--fail", "leaf0,spine0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[-1] == "2"

    @pytest.mark.parametrize("failed", [set(), {"acc1"}, {"acc1", "acc2", "dist0"}, {"core0", "core1"}])
    def test_fail_counts_hosts_already_detached(self, cli_inputs, tmp_path, capsys, failed):
        emitted = tmp_path / "injected.txt"
        assert run(["topo", "fail", "--topology", str(cli_inputs / "tt.txt"), "--fail", "acc0", "--emit",
                    str(emitted)]) == 0
        t = parse_topology(emitted.read_text())
        assert t.detached_hosts
        capsys.readouterr()
        assert run(["topo", "fail", "--topology", str(emitted), "--fail", ",".join(sorted(failed))]) == 0
        detached = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
        assert int(detached) == len(inject_failures(t, failed).detached_hosts)

    @pytest.mark.parametrize("override", ["spine", "spine=", "spine=abc", "leaf=0.1=2"])
    def test_p_role_needs_a_probability(self, cli_inputs, capsys, override):
        # a malformed value is a flag error (exit 2), as for --weights; it used to exit 1
        assert exit_code(["topo", "harm", "--topology", str(cli_inputs / "sl.txt"), "--p-role", override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"fragrisk topo harm: error: argument --p-role: expects role=probability, got '{override}'\n"
        )

    @pytest.mark.parametrize(
        "override, message",
        [
            ("bogus=0.1", "unknown role 'bogus'"),
            ("default=0.3", "unknown role 'default'"),  # --p sets failure.default
            ("leaf=2", "failure probability for 'leaf' must be in [0, 1]"),
        ],
    )
    def test_p_role_domain_errors_exit_1(self, cli_inputs, capsys, override, message):
        assert run(["topo", "harm", "--topology", str(cli_inputs / "sl.txt"), "--p-role", override]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_failure_flags_set_their_config_keys(self, cli_inputs, tmp_path, capsys):
        # --p and --p-role used to bypass the config, so the hash was the same for every failure model
        def harm(fabric, *flags, config=None):
            args = ["topo", "harm", "--topology", str(cli_inputs / fabric), "--trials", "200", *flags]
            if config is not None:
                (tmp_path / "failure.cfg").write_text(config)
                args += ["--config", str(tmp_path / "failure.cfg")]
            assert run(args) == 0
            return capsys.readouterr().out

        models = (["--p", "0.05"], ["--p", "0.5"], ["--p-role", "spine=0.9"])
        hashes = {re.search("config_hash: (.*)", harm("sl.txt", *flags))[1] for flags in models}
        assert len(hashes) == 3
        assert harm("tt.txt", "--p", "0.1") == harm("tt.txt", config="failure.default = 0.1\n")
        assert harm("tt.txt", "--p-role", "core=0.2") == harm("tt.txt", config="failure.core = 0.2\n")
        # flags override a config file key by key, so --p leaves the file's core probability
        both = "failure.core = 0.02\nfailure.default = 0.1\n"
        assert harm("tt.txt", "--p", "0.1", config="failure.core = 0.02\n") == harm("tt.txt", config=both)

    def test_topology_with_byte_order_mark_loads(self, cli_inputs, tmp_path, capsys):
        # some Windows editors start UTF-8 files with one; it failed as a missing topology header
        marked = tmp_path / "marked.txt"
        marked.write_text("\ufeff" + (cli_inputs / "sl.txt").read_text(), encoding="utf-8")
        assert run(["topo", "hops", "--topology", str(cli_inputs / "sl.txt")]) == 0
        plain = capsys.readouterr().out
        assert run(["topo", "hops", "--topology", str(marked)]) == 0
        assert capsys.readouterr().out == plain

    def test_harm_runs(self, tmp_path, capsys):
        topo = tmp_path / "fabric.txt"
        run(["topo", "build", "--kind", "three-tier", "--cores", "2", "--distributions", "2",
             "--access-per-distribution", "2", "--hosts-per-access", "1", "--out", str(topo)])
        assert run(
            ["topo", "harm", "--topology", str(topo), "--p", "0.05", "--k", "1", "--beta", "1.5",
             "--trials", "2000", "--seed", "42"]
        ) == 0
        assert "expected_harm" in capsys.readouterr().out

    def test_missing_topology_file_fails(self, capsys):
        assert run(["topo", "hops", "--topology", "/nonexistent/path.txt"]) == 1
        assert "error:" in capsys.readouterr().err


# every subcommand that takes --config
BAD_CONFIG_ARGS = [
    ["harm-curve"],
    ["jensen"],
    ["risk", "density"],
    ["risk", "tail-mean"],
    ["risk", "ratio", "--K", "2"],
    ["risk", "curve"],
    ["topo", "build"],
    ["topo", "hops", "--topology", "{in}/sl.txt"],
    ["topo", "fail", "--topology", "{in}/sl.txt"],
    ["topo", "harm", "--topology", "{in}/sl.txt"],
    ["growth"],
    ["compare"],
]


# risk ratio at a scenario whose ratio is finite; it prints the ratio to stdout even with --out
RATIO = ["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"]


class TestOutputContracts:
    def test_csv_full_precision_and_digits_flag(self, tmp_path):
        full = tmp_path / "full.csv"
        run(["risk", "curve", "--alpha", "2", "--beta", "1.5", "--K-values", "2", "--out", str(full)])
        emitted = full.read_text().splitlines()[-1].split(",")[1]
        # 17 significant digits round-trip to the exact double
        assert emitted == format(2.0 ** (2.0 * (1.0 / 1.5 - 1.0)), ".17g")
        assert float(emitted) == 2.0 ** (2.0 * (1.0 / 1.5 - 1.0))

        short = tmp_path / "short.csv"
        run(["risk", "curve", "--alpha", "2", "--beta", "1.5", "--K-values", "2",
             "--digits", "4", "--out", str(short)])
        assert short.read_text().splitlines()[-1] == "2,0.63"

        # --digits narrows floats only: the port counts stay integers in CSV and JSON
        ports, doc = tmp_path / "ports.csv", tmp_path / "ports.json"
        run(["compare", "--digits", "2", "--out", str(ports)])
        assert "\ntotal_ports,384,288,0.75\n" in ports.read_text()
        run(["compare", "--digits", "2", "--format", "json", "--out", str(doc)])
        assert '"total_ports",\n      384,\n      288,\n      0.75\n' in doc.read_text()

    def test_no_partial_file_on_domain_error(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run(["risk", "tail-mean", "--alpha", "1", "--beta", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("digits, code, message", [
        ("-1", 1, "error: output.digits must be >= 1, got -1\n"),
        ("0", 1, "error: output.digits must be >= 1, got 0\n"),
        ("two", 2, "argument --digits: invalid int value: 'two'\n"),
    ], ids=["-1", "0", "two"])
    def test_digits_must_be_positive_integer(self, capsys, digits, code, message):
        # -1 used to print the ratio and then fail, so nothing may reach stdout; 0 silently meant 17 digits.
        # An integer out of range is a config error, as output.digits is; a non-integer is a flag error
        assert exit_code(["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2", "--digits", digits]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(message)

    def test_compare_without_devices_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("topology/1\nhost h0 detached\n")
        out = tmp_path / "compare.csv"
        assert run(["compare", "--a", str(empty), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_report_rejects_non_finite_cells(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="not finite"):
                ScenarioReport("harm-curve", ["x", "harm"], [[1.0, value]])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ScenarioReport("c", ["x", "y"], [[1.0, 2.0], [3.0]]), "row width 1 != 2 columns"),
            (lambda: ScenarioReport("c", ["x"], [[1.0]]).render("xml"), "unknown output format 'xml'"),
        ],
        ids=["ragged-row", "xml"],
    )
    def test_report_rejects_ragged_rows_and_unknown_formats(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_compare_unbounded_ratio_is_a_label(self, tmp_path):
        # one host has no pairs to lose, so design b's fault domain is
        # unboundedly worse; the report says so in valid JSON
        one = tmp_path / "one.txt"
        one.write_text("topology/1\ns0 spine\nl0 leaf\ns0 -- l0\nhost h0 @ l0\n")
        csv, doc = tmp_path / "compare.csv", tmp_path / "compare.json"
        assert run(["compare", "--a", str(one), "--out", str(csv)]) == 0
        assert read_bytes(csv).endswith(b"\nmax_single_device_affected,0,0.5,inf\n")
        assert run(["compare", "--a", str(one), "--format", "json", "--out", str(doc)]) == 0
        rows = strict_json(doc.read_text())["rows"]
        assert rows[-1] == ["max_single_device_affected", 0.0, 0.5, "inf"]

    def test_invalid_flags_exit_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["risk", "ratio", "--alpha", "2", "--beta", "1.5"])  # missing --K
        assert excinfo.value.code != 0

    def test_svg_emitted(self, tmp_path):
        svg = tmp_path / "curve.svg"
        run(["risk", "curve", "--alpha", "2", "--beta", "1.5", "--svg", str(svg),
             "--out", str(tmp_path / "curve.csv")])
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRAGRISK_OUT_DIR", str(tmp_path))
        run(["risk", "curve", "--alpha", "2", "--beta", "1.5", "--out", "rel.csv"])
        assert (tmp_path / "rel.csv").exists()

    def test_config_file_drives_command(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("pareto.alpha = 2.0\nharm.beta = 1.5\n")
        assert run(["risk", "ratio", "--config", str(cfg), "--K", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.629961"

    @pytest.mark.parametrize(
        "args, flag, line, error",
        [
            (RATIO, ["--digits", "-1"], "output.digits = -1", "output.digits must be >= 1, got -1"),
            (RATIO, ["--digits", "0"], "output.digits = 0", "output.digits must be >= 1, got 0"),
            (RATIO, ["--format", "xml"], "output.format = xml", "output.format must be csv or json, got 'xml'"),
            (["topo", "build"], ["--kind", "ring"], "topology.kind = ring",
             "unknown topology kind 'ring' (expected spine-leaf or three-tier)"),
            (["risk", "tail-mean"], ["--seed", "-1"], "seed = -1", "seed must be >= 0, got -1"),
        ],
        ids=["digits -1", "digits 0", "format xml", "kind ring", "seed -1"],
    )
    def test_flag_and_config_key_fail_alike(self, tmp_path, capsys, args, flag, line, error):
        # the config keys -1 and xml used to print the ratio and then fail, and 0 silently meant 17 digits;
        # --digits 0, --format xml and --kind ring exited 2 through argparse where their keys exit 1
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.txt"
        for given in (flag, ["--config", str(cfg)]):
            assert exit_code([*args, *given, "--out", str(out)]) == 1, given
            assert capsys.readouterr() == ("", f"error: {error}\n"), given
            assert not out.exists(), given

    @pytest.mark.parametrize("args", BAD_CONFIG_ARGS)
    def test_bad_config_fails_every_subcommand(self, cli_inputs, tmp_path, capsys, args):
        argv = fill(args, **{"in": cli_inputs}) + ["--config", str(cli_inputs / "bad.cfg")]
        assert run(argv + ["--out", str(tmp_path / "out.txt")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: output.digits must be >= 1, got 0\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", BAD_CONFIG_ARGS)
    def test_unknown_topology_kind_fails_every_subcommand(self, cli_inputs, tmp_path, capsys, args):
        # all but topo build used to ignore topology.kind = ring and exit 0
        argv = fill(args, **{"in": cli_inputs}) + ["--config", str(cli_inputs / "ring.cfg")]
        assert run(argv + ["--out", str(tmp_path / "out.txt")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: unknown topology kind 'ring' (expected spine-leaf or three-tier)\n",
        )
        assert os.listdir(tmp_path) == []

    def test_warning_is_one_line(self, capsys):
        assert run(["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.629961\n"
        assert captured.err == (
            "warning: alpha=2.0 is at or below 1 + beta = 2.5; the mean converges "
            "but lies outside the conventionally safe regime\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_warning_recorded_in_report(self, tmp_path, capsys, fmt):
        message = (
            "alpha=2.0 is at or below 1 + beta = 2.5; the mean converges "
            "but lies outside the conventionally safe regime"
        )
        warned, quiet = tmp_path / "warned", tmp_path / "quiet"
        args = ["risk", "tail-mean", "--beta", "1.5", "--trials", "1000", "--format", fmt]
        assert run(args + ["--alpha", "2", "--out", str(warned)]) == 0
        assert capsys.readouterr().err == f"warning: {message}\n"
        assert run(args + ["--alpha", "4", "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        if fmt == "csv":
            assert warned.read_text().splitlines().count(f"# warnings: {message}") == 1
            assert "# warnings" not in quiet.read_text()
        else:
            assert json.loads(warned.read_text())["metadata"]["warnings"] == message
            assert "warnings" not in json.loads(quiet.read_text())["metadata"]

    def test_drop_probability_annotation_carried(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("report.core_drop_probability = 0.001\n")
        out = tmp_path / "compare.csv"
        assert run(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert "# core_drop_probability: 0.001" in out.read_text()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5"])
    @pytest.mark.parametrize("args", BAD_CONFIG_ARGS)
    def test_drop_probability_outside_unit_interval_fails_every_subcommand(
        self, cli_inputs, tmp_path, capsys, args, value
    ):
        # nan and inf used to be stamped into the metadata, and --format json wrote a bare NaN or Infinity
        cfg = tmp_path / "drop.cfg"
        cfg.write_text(f"report.core_drop_probability = {value}\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = fill(args, **{"in": cli_inputs}) + ["--config", str(cfg), "--out", str(out_dir / "out.txt")]
        assert run(argv) == 1
        captured = capsys.readouterr()
        message = f"error: report.core_drop_probability must be in [0, 1], got {float(value)}\n"
        assert (captured.out, captured.err) == ("", message)
        assert os.listdir(out_dir) == []


class TestDeterminism:
    # risk tail-mean draws from the Pareto sampler; jensen's means are closed form
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["risk", "tail-mean", "--alpha", "4", "--beta", "1.5", "--trials", "5000", "--seed", "42"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["risk", "tail-mean", "--alpha", "4", "--beta", "1.5", "--trials", "5000"]
        run(args + ["--seed", "42", "--out", str(a)])
        run(args + ["--seed", "43", "--out", str(b)])
        # the estimate differs, not only the seed in the metadata
        assert read_bytes(a).splitlines()[-1] != read_bytes(b).splitlines()[-1]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_subprocess(args, timeout=60):
    """Run the CLI in a fresh interpreter; a hang fails the test at ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "fragrisk", *args], env=env, capture_output=True, text=True, timeout=timeout
    )


NON_FINITE_ARGS = [
    ["growth", "--saturation", "inf"],
    ["risk", "tail-mean", "--alpha", "inf"],
    ["risk", "tail-mean", "--alpha", "nan"],
    ["risk", "density", "--scale", "inf"],
    ["harm-curve", "--k", "inf"],
    ["jensen", "--beta", "inf"],
    ["jensen", "--x", "inf"],
    ["jensen", "--x", "nan"],
    ["jensen", "--unit-value", "inf"],
    ["risk", "curve", "--K-values", "inf"],
    ["risk", "ratio", "--K", "inf"],
]

# grid ends that used to print a nan row, then inf rows, and exit 0
RANGE_ARGS = [
    ["growth", "--max-units", "inf"],
    ["growth", "--max-units", "nan"],
    ["growth", "--max-units", "0"],
    ["harm-curve", "--x-max", "inf"],
    ["harm-curve", "--x-max", "nan"],
    ["harm-curve", "--x-max", "-1"],
]


# finite inputs whose float powers overflow; each was an OverflowError traceback, and then
# printed the raw "(34, 'Numerical result out of range')"
OVERFLOW_ARGS = [
    # K**(alpha*(1/beta - 1)) at K = 1e-6 is 1e400; below beta = 1 the ratio K**(1 - beta) cannot overflow
    ["risk", "ratio", "--K", "1e-6", "--fragments", "1000000", "--beta", "3", "--alpha", "100"],
    ["jensen", "--x", "1e300", "--beta", "3"],
    ["harm-curve", "--x-max", "1e300", "--betas", "3", "--points", "3"],
    ["risk", "tail-mean", "--scale", "1e300", "--beta", "3", "--alpha", "5", "--trials", "10"],
    ["risk", "density", "--alpha", "1e-300", "--beta", "1"],
    ["risk", "density", "--scale", "1e300", "--beta", "3", "--alpha", "5"],
    # a finite k whose products overflow to -inf; each printed -inf cells and exited 0
    ["harm-curve", "--k", "1e308", "--points", "3"],
    ["topo", "harm", "--topology", "{in}/sl.txt", "--k", "1e308", "--p", "0.5", "--trials", "100"],
    ["jensen", "--k", "1e308"],
    ["risk", "tail-mean", "--k", "1e308"],
]

# value lists with no values; each printed a report with no data columns or rows and exited 0,
# and argparse now rejects them with exit 2
EMPTY_LIST_ARGS = [
    ["risk", "curve", "--K-values", ","],
    ["harm-curve", "--betas", ""],
]

# trial counts whose sample arrays cannot be allocated; each was a MemoryError traceback
HUGE_TRIALS_ARGS = [
    ["risk", "tail-mean", "--trials", "1000000000000000"],
    # one draw past the limit; it allocated several float64 arrays of 1e7 elements, 273 MB at the peak
    ["risk", "tail-mean", "--trials", "10000001"],
    ["topo", "harm", "--topology", "{in}/sl.txt", "--trials", "1000000000000000"],
]

# seeds the RNG cannot take; each ended in numpy's "expected non-negative integer", naming no flag
NEGATIVE_SEED_ARGS = [
    ["jensen", "--seed", "-5"],
    ["topo", "harm", "--topology", "{in}/sl.txt", "--seed", "-1"],
    ["risk", "tail-mean", "--config", "{in}/negative_seed.cfg"],
]

# grid sizes below the grid's minimum; --points is checked before the range end
POINTS_ARGS = [
    ["harm-curve", "--points", "1"],
    ["growth", "--points", "1"],
    ["risk", "density", "--points", "0"],
    ["growth", "--points", "1", "--max-units", "inf"],
]

# grid sizes above MAX_POINTS; each built rows until memory ran out
HUGE_POINTS_ARGS = [
    ["harm-curve", "--points", "1000000000000"],
    ["growth", "--points", "1000001"],
    ["risk", "density", "--points", "1000000000000"],
    # a legal row count with five columns: 5e6 cells, which took about 0.5 GB, 22 s and 100 MB
    # of output when the cells had no cap (1.1e6 cells took 118 MB and 4.9 s)
    ["harm-curve", "--points", "1000000", "--betas", "1,2,3,4"],
]
HUGE_POINTS_ERRORS = [f"error: --points must be <= {MAX_POINTS}\n"] * 3 + [
    f"error: --points 1000000 x 5 report columns = 5000000 cells, more than the {MAX_CELLS} a report may hold\n"
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", NON_FINITE_ARGS[:2] + RANGE_ARGS)
    def test_exits_cleanly_within_timeout(self, args):
        # growth used to bisect towards inf forever; tail-mean printed nan
        proc = run_subprocess(args)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        NON_FINITE_ARGS + RANGE_ARGS + OVERFLOW_ARGS + EMPTY_LIST_ARGS + HUGE_TRIALS_ARGS + NEGATIVE_SEED_ARGS
        + POINTS_ARGS + HUGE_POINTS_ARGS,
    )
    def test_no_report_written(self, cli_inputs, tmp_path, capsys, args):
        out = tmp_path / "report.csv"
        flag_error = args in EMPTY_LIST_ARGS
        assert exit_code(fill(args, **{"in": cli_inputs}) + ["--out", str(out)]) == (2 if flag_error else 1)
        err = capsys.readouterr().err
        assert f"error: argument {args[-2]}:" in err if flag_error else err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("args", EMPTY_LIST_ARGS)
    def test_empty_list_names_flag_and_writes_no_chart(self, tmp_path, capsys, args):
        # with --svg these failed inside the chart with "min() arg is an empty sequence"
        out, svg = tmp_path / "report.csv", tmp_path / "chart.svg"
        assert exit_code(args + ["--out", str(out), "--svg", str(svg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {args[-2]}: needs at least one value, got {args[-1]!r}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [["risk", "curve", "--K-values", "1,abc"], ["harm-curve", "--betas", "1,abc"]])
    def test_bad_list_value_names_flag_and_writes_no_chart(self, tmp_path, capsys, args):
        # each printed "could not convert string to float: 'abc'", naming no flag, and
        # later exited 1 where other flag errors exit 2
        out, svg = tmp_path / "report.csv", tmp_path / "chart.svg"
        assert exit_code(args + ["--out", str(out), "--svg", str(svg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {args[-2]}: expects comma-separated numbers, got '1,abc'\n")
        assert os.listdir(tmp_path) == []

    def test_bad_weights_name_the_flag(self, capsys):
        # the message used to name the private parser: "invalid _parse_floats value"
        with pytest.raises(SystemExit) as excinfo:
            run(["jensen", "--weights", "0.5,abc"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "fragrisk jensen: error: argument --weights: expects comma-separated numbers, got '0.5,abc'\n"
        )
        assert "_parse_floats" not in captured.err

    def test_empty_weights_name_the_flag(self, capsys):
        # it used to exit 1 with "at least one fragment weight is required", naming no flag
        with pytest.raises(SystemExit) as excinfo:
            run(["jensen", "--weights", ""])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("fragrisk jensen: error: argument --weights: needs at least one value, got ''\n")

    def test_empty_config_weights_name_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("harm.beta = 2\nharm.weights =\n")
        assert run(["jensen", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config line 2: bad value for 'harm.weights': needs at least one value, got ''\n"

    def test_bad_config_weights_name_the_key(self, tmp_path, capsys):
        # it used to say "could not convert string to float: 'x'"
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("harm.weights = 0.5,x\n")
        assert run(["jensen", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config line 1: bad value for 'harm.weights': expects comma-separated numbers, got '0.5,x'\n"
        )

    @pytest.mark.parametrize("args", POINTS_ARGS)
    def test_points_below_minimum_is_named(self, capsys, args):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        minimum = 1 if args[0] == "risk" else 2  # risk density's grid is a quantile grid
        assert captured.err == f"error: --points must be >= {minimum}\n"

    @pytest.mark.parametrize("args", HUGE_POINTS_ARGS)
    def test_points_above_maximum_fail_at_once(self, args):
        # a fresh interpreter, so a grid that is built anyway fails the test at its timeout
        proc = run_subprocess(args, timeout=20)
        expected = HUGE_POINTS_ERRORS[HUGE_POINTS_ARGS.index(args)]
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)

    def test_default_betas_allow_the_largest_grid(self):
        # the cell cap admits every --points that is legal with harm-curve's default three betas
        args = build_parser().parse_args(["harm-curve"])
        assert MAX_POINTS * (1 + len(args.betas)) == MAX_CELLS

    @pytest.mark.parametrize("args", OVERFLOW_ARGS)
    def test_overflow_has_one_wording(self, cli_inputs, capsys, args):
        # a raw OverflowError printed "error: (34, 'Numerical result out of range')"
        assert run(fill(args, **{"in": cli_inputs})) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        command = "-".join(a for a in args[: 2 if args[0] in ("risk", "topo") else 1])
        first = captured.err.splitlines()[0]
        assert first.startswith(f"error: {command}: ")
        assert first.endswith(" is not finite (an input is too large for float arithmetic)")
        # risk tail-mean --k 1e308 also printed NumPy's "overflow encountered in multiply" and "in reduce"
        assert "encountered" not in captured.err

    def test_sampled_overflow_is_one_error(self, capsys):
        # the closed form is finite here; only the largest draws overflow
        assert run(["risk", "tail-mean", "--k", "1e305", "--alpha", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: risk-tail-mean: mc_estimate = -inf is not finite (an input is too large for float arithmetic)\n"
        )

    @pytest.mark.parametrize("args", NEGATIVE_SEED_ARGS)
    def test_negative_seed_is_named(self, cli_inputs, capsys, args):
        assert run(fill(args, **{"in": cli_inputs})) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -")

    @pytest.mark.parametrize("seed", ["27", "-1", "abc"])
    def test_verify_takes_no_seed(self, capsys, seed):
        # verify's bounds hold at its one seed; at --seed 27 it used to print a FAIL on correct code
        assert exit_code(["verify", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: --seed {seed}\n")


def test_growth_with_large_saturation_finishes():
    # found by test_argv_contract: crossover bisected towards 1e-9 forever once the
    # float spacing at the crossover (here about 2e7 units) was wider than that
    proc = run_subprocess(["growth", "--saturation", "1e9"])
    assert proc.returncode == 0, proc.stderr
    assert "# crossover_units: 20833333.333333332\n" in proc.stdout


@pytest.mark.parametrize(
    "args, cfg",
    [
        (["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "100000000",
          "--hosts-per-leaf", "100000000"], ""),
        (["topo", "build", "--kind", "three-tier", "--distributions", "1000", "--access-per-distribution", "1000"], ""),
        (["compare"], "topology.leaves = 100000000\n"),
    ],
    ids=["spine-leaf", "three-tier", "compare-default-designs"],
)
def test_oversized_fabric_fails_at_once(tmp_path, args, cfg):
    # found by hand: topo build grew past 178 MB in 3 s on the spine-leaf call and was still building
    config = tmp_path / "big.cfg"
    config.write_text(cfg)
    out = tmp_path / "out"
    proc = run_subprocess(args + ["--config", str(config), "--out", str(out)], timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: a built fabric may have at most 1,000,000 devices, hosts and links")
    assert not out.exists()


PARTIAL_OUTPUT_ARGS = [
    ["topo", "fail", "--topology", "{in}/sl.txt", "--fail", "leaf0", "--out", "{out}/r.csv",
     "--emit", "{out}/missing/x"],
    ["risk", "curve", "--alpha", "4", "--out", "{out}/c.csv", "--svg", "{out}/missing/c.svg"],
    ["topo", "build", "--out", "{out}/missing/t.txt"],
]


def fill(args, **dirs):
    for name, path in dirs.items():
        args = [a.replace("{" + name + "}", str(path)) for a in args]
    return args


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Input files for the output-contract tests, kept apart from any output directory."""
    base = tmp_path_factory.mktemp("inputs")
    (base / "sl.txt").write_text(serialize_topology(build_spine_leaf(2, 4, 2)))
    (base / "tt.txt").write_text(serialize_topology(build_three_tier(2, 2, 2, 1, True)))
    (base / "scenario.cfg").write_text("harm.beta = 2\npareto.alpha = 4\ntrials = 500\n")
    (base / "bad.cfg").write_text("output.digits = 0\n")
    (base / "ring.cfg").write_text("topology.kind = ring\n")
    (base / "negative_seed.cfg").write_text("seed = -1\n")
    return base


class TestAllOrNothingOutput:
    @pytest.mark.parametrize("args", PARTIAL_OUTPUT_ARGS)
    def test_failed_write_leaves_no_file(self, cli_inputs, tmp_path, capsys, args):
        # topo fail and risk curve used to leave the report behind when --emit / --svg failed
        assert run(fill(args, **{"in": cli_inputs, "out": tmp_path})) == 1
        assert os.listdir(tmp_path) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: [Errno 2] No such file or directory: '{tmp_path}/missing/" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["risk", "curve", "--alpha", "4", "--out", "{out}/x", "--svg", "{second}"],
            ["topo", "fail", "--topology", "{in}/sl.txt", "--fail", "leaf0", "--out", "{out}/x",
             "--emit", "{second}"],
        ],
    )
    @pytest.mark.parametrize("alias", ["same path", "symlink", "out dir"])
    def test_two_outputs_one_file_is_an_error(self, cli_inputs, tmp_path, capsys, monkeypatch, args, alias):
        # each used to exit 0 with only the second output in the file
        second = str(tmp_path / "x")
        if alias == "symlink":
            second = str(tmp_path / "link")
            os.symlink(tmp_path / "x", second)
        elif alias == "out dir":  # a relative path is joined to FRAGRISK_OUT_DIR first
            monkeypatch.setenv("FRAGRISK_OUT_DIR", str(tmp_path))
            second = "x"
        before = sorted(os.listdir(tmp_path))
        assert run(fill(args, **{"in": cli_inputs, "out": tmp_path, "second": second})) == 1
        assert sorted(os.listdir(tmp_path)) == before
        captured = capsys.readouterr()
        assert captured.out == ""
        named = os.path.join(str(tmp_path), second)
        assert captured.err.splitlines()[0] == f"error: two outputs name the same file: '{named}'"

    def test_directory_target_is_clean_error(self, tmp_path, capsys):
        # the report is staged first, so a failed rename must not leave it behind
        args = ["risk", "curve", "--alpha", "4", "--out", str(tmp_path / "c.csv"), "--svg", str(tmp_path)]
        assert run(args) == 1
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().err.startswith(f"error: [Errno 21] Is a directory: '{tmp_path}'")

    def test_files_get_the_default_mode(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run(["topo", "build", "--out", str(out)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_device_target_is_written_in_place(self, tmp_path):
        # a device cannot be renamed over: /dev/null must stay a device, with no temp file beside it
        svg = tmp_path / "c.svg"
        assert run(["risk", "curve", "--alpha", "4", "--out", os.devnull, "--svg", str(svg)]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert svg.read_text().startswith("<svg")
        assert not [n for n in os.listdir(os.path.dirname(os.devnull)) if n.startswith(".fragrisk-")]

    def test_symlink_target_is_written_through(self, tmp_path, capsys):
        assert run(["risk", "curve", "--alpha", "4"]) == 0
        expected = capsys.readouterr().out
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        real.chmod(0o640)
        link.symlink_to(real)
        dangling = tmp_path / "chart.svg"
        dangling.symlink_to(tmp_path / "new.svg")
        assert run(["risk", "curve", "--alpha", "4", "--out", str(link), "--svg", str(dangling)]) == 0
        assert link.is_symlink() and dangling.is_symlink()
        assert real.read_text() == expected
        assert real.stat().st_mode & 0o777 == 0o640  # an overwritten file keeps its mode
        assert (tmp_path / "new.svg").read_text().startswith("<svg")
        assert sorted(os.listdir(tmp_path)) == ["chart.svg", "link.csv", "new.svg", "real.csv"]


class _Hang(BaseException):
    pass


def _raise_hang(signum, frame):
    raise _Hang("command ran past its time bound")


NUMBERS = ["inf", "nan", "-1", "0", "0.5", "1", "2", "1e300", "abc"]
INTEGERS = ["-1", "0", "1", "2", "abc", "nan"]
OUTPUTS = ["{out}/a.txt", "{out}/b.txt", "{out}/missing/x.txt", "{out}"]
TOPOLOGIES = ["{in}/sl.txt", "{in}/tt.txt", "{in}/scenario.cfg", "{out}/missing/x.txt"]
COMMON_FLAGS = {
    "--config": ["{in}/scenario.cfg", "{in}/bad.cfg", "{out}/missing/x.cfg"],
    "--out": OUTPUTS,
    "--format": ["csv", "json", "xml"],
    "--digits": INTEGERS,
}
HARM_FLAGS = {"--k": NUMBERS, "--beta": NUMBERS}
PARETO_FLAGS = {"--alpha": NUMBERS, "--scale": NUMBERS}
MC_FLAGS = {"--trials": ["-1", "0", "1", "2000", "abc"], "--seed": INTEGERS}
POINTS = INTEGERS + ["200"]
# subcommand -> flag -> values; True stands for a flag that takes no value
ARGV_SPACE = {
    ("harm-curve",): {
        **COMMON_FLAGS, "--k": NUMBERS, "--svg": OUTPUTS,
        "--betas": ["1.5,2", "inf", "abc", ""], "--x-max": NUMBERS, "--points": POINTS,
    },
    ("jensen",): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, **MC_FLAGS,
        "--weights": ["0.5,0.5", "1", "inf,0", "nan", "abc", ""], "--x": NUMBERS, "--unit-value": NUMBERS,
    },
    ("risk", "density"): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, "--fragments": INTEGERS, "--points": POINTS,
    },
    ("risk", "tail-mean"): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, **MC_FLAGS, "--fragments": INTEGERS,
    },
    ("risk", "ratio"): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, "--K": NUMBERS, "--fragments": INTEGERS,
    },
    ("risk", "curve"): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, "--svg": OUTPUTS,
        "--K-values": ["1,2,4", "0.5", "inf", "abc", ""],
    },
    ("topo", "build"): {
        "--config": COMMON_FLAGS["--config"], "--out": OUTPUTS,
        "--kind": ["spine-leaf", "three-tier", "ring"],
        "--spines": INTEGERS, "--leaves": INTEGERS, "--hosts-per-leaf": INTEGERS, "--cores": INTEGERS,
        "--distributions": INTEGERS, "--access-per-distribution": INTEGERS, "--hosts-per-access": INTEGERS,
        "--dual-homed": [True],
    },
    ("topo", "hops"): {**COMMON_FLAGS, "--topology": TOPOLOGIES},
    ("topo", "fail"): {
        **COMMON_FLAGS, "--topology": TOPOLOGIES, "--fail": ["spine0", "leaf1,spine0", "nope", ""],
        "--emit": OUTPUTS,
    },
    ("topo", "harm"): {
        **COMMON_FLAGS, **HARM_FLAGS, **MC_FLAGS, "--topology": TOPOLOGIES, "--p": NUMBERS,
        "--p-role": ["core=0.2", "leaf=nan", "core", "spine=abc"],
    },
    ("growth",): {
        **COMMON_FLAGS, "--svg": OUTPUTS, "--saturation": NUMBERS, "--ports-per-switch": INTEGERS,
        "--max-units": NUMBERS, "--points": POINTS,
    },
    ("compare",): {**COMMON_FLAGS, "--a": TOPOLOGIES, "--b": TOPOLOGIES},
    # verify takes no flag, so each of these is a flag error; a bare `verify` runs every
    # check (seconds), which test_acceptance covers
    ("verify",): {"--seed": ["27", "-1", "abc"]},
}
# In every generated argv: --topology and --K are required by argparse, and
# `verify` without --seed would run every check.
ALWAYS_GIVEN = {"--topology", "--K", "--seed"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_SPACE)))
    space = ARGV_SPACE[command]
    flags = [flag for flag in space if flag in ALWAYS_GIVEN]
    optional = [flag for flag in space if flag not in ALWAYS_GIVEN]
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    if "--p-role" in flags:
        flags.append("--p-role")  # it may repeat
    argv = list(command)
    for flag in flags:
        value = draw(st.sampled_from(space[flag]))
        argv += [flag] if value is True else [flag, value]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_argv_contract(cli_inputs, argv):
    """Any argv exits 0, 1 or 2 in bounded time; a failure writes no file and no stdout."""
    with tempfile.TemporaryDirectory() as out_dir:
        args = fill(argv, **{"in": cli_inputs, "out": out_dir})
        stdout = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_hang)
        signal.alarm(30)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2)
        if code != 0:
            assert os.listdir(out_dir) == []
            assert stdout.getvalue() == ""


SCIPY_PROBE = """
import sys
from fragrisk.cli import main

topo = sys.argv[1]
try:
    main(["--help"])
except SystemExit:
    pass
for args in (
    ["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "4", "--hosts-per-leaf", "2",
     "--out", topo],
    ["topo", "hops", "--topology", topo],
    ["topo", "fail", "--topology", topo, "--fail", "spine0,leaf1"],
    ["topo", "harm", "--topology", topo, "--p", "0.1", "--trials", "500"],
    ["compare", "--b", topo],
    ["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"],
    ["risk", "curve"],
    ["risk", "density"],
    ["risk", "tail-mean", "--trials", "50"],
    ["jensen"],
    ["harm-curve"],
    ["growth"],
    ["verify"],
):
    assert main(args) == 0, args
print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


NUMPY_MA_PROBE = """
import sys
from fragrisk.cli import main

topo = sys.argv[1]
assert main(["topo", "build", "--kind", "three-tier", "--dual-homed", "--out", topo]) == 0
assert main(["topo", "harm", "--topology", topo, "--p", "0.1", "--trials", "500"]) == 0
print("numpy.ma modules:", sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


NUMPY_PROBE = """
import sys
import fragrisk
from fragrisk.cli import main

topo, emitted = sys.argv[1:]
try:
    main(["--help"])
except SystemExit:
    pass
for args in (
    ["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"],
    ["risk", "curve"],
    ["risk", "density"],
    ["harm-curve"],
    ["growth"],
    ["topo", "build", "--kind", "three-tier", "--dual-homed", "--out", topo],
    ["topo", "hops", "--topology", topo],
    ["topo", "fail", "--topology", topo, "--fail", "core0,dist1"],
    ["topo", "fail", "--topology", topo, "--fail", "acc0", "--emit", emitted],
    ["compare"],
    ["compare", "--a", topo, "--b", topo],
    ["topo", "harm", "--topology", topo, "--p", "0.1", "--trials", "50"],
    ["jensen", "--trials", "50"],
):
    assert main(args) == 0, args
before = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert main(["risk", "tail-mean", "--trials", "50"]) == 0
print("numpy modules:", before, "then after risk tail-mean:", "numpy" in sys.modules)
"""


TRACED_MODULES = ("harm", "pareto", "growth", "topology", "costing", "report", "verify")


def public_functions(module) -> list[str]:
    """The functions perfbench/tracer.py wraps in ``module``: public, and defined there."""
    return sorted(
        attr
        for attr, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_")
    )


TRACED_MODULES_PROBE = f"""
import inspect
import json
import sys
import fragrisk.cli

{inspect.getsource(public_functions)}
print(json.dumps({{m: public_functions(sys.modules[f"fragrisk.{{m}}"]) for m in {TRACED_MODULES!r}}}))
"""


# a module registered but not yet run is still the lazy loader's subclass of ModuleType
LOADED_MODULES_PROBE = """
import json
import sys
import types

before = set(sys.modules)
from fragrisk.cli import main

try:
    assert main(sys.argv[1:]) == 0
except SystemExit:  # --help
    pass
ran = sorted(
    n.split(".")[1] for n, m in sys.modules.items() if n.startswith("fragrisk.") and type(m) is types.ModuleType
)
stdlib = [m for m in ("dataclasses", "hashlib", "inspect", "json") if m in sys.modules and m not in before]
print(json.dumps({"ran": ran, "stdlib": stdlib}))
"""


def probe_last_line(script, *args):
    """Last stdout line of ``script`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_no_command_imports_scipy(tmp_path):
    # SciPy is a test dependency only: `verify`'s quadrature oracles are fragrisk's own
    assert probe_last_line(SCIPY_PROBE, str(tmp_path / "sl.txt")) == "scipy modules: []"


# a None entry in sys.modules makes every `import scipy...` raise ImportError
NO_SCIPY_VERIFY_PROBE = """
import sys

sys.modules["scipy"] = None
from fragrisk.cli import main

assert main(["verify"]) == 0
"""


def test_verify_passes_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_VERIFY_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "15/15 checks passed"
    assert len(lines) == 16 and all(line.startswith("PASS ") for line in lines[:-1])


# the config hash's built-in SHA-256 is _sha2 on Python 3.12+ and _sha256 before; hide both
NO_BUILTIN_SHA256_PROBE = """
import json
import sys

sys.modules["_sha2"] = sys.modules["_sha256"] = None
from fragrisk.config import ScenarioConfig

hashes = [ScenarioConfig().config_hash(), ScenarioConfig(seed=7, harm_weights=(0.25, 0.75)).config_hash()]
print(json.dumps({"hashlib": "hashlib" in sys.modules, "hashes": hashes}))
"""


def test_config_hash_falls_back_to_hashlib():
    result = json.loads(probe_last_line(NO_BUILTIN_SHA256_PROBE))
    hashes = [ScenarioConfig().config_hash(), ScenarioConfig(seed=7, harm_weights=(0.25, 0.75)).config_hash()]
    assert result == {"hashlib": True, "hashes": hashes}


def test_closed_form_commands_never_import_numpy(tmp_path):
    # importing NumPy was most of the start-up time of every command, --help
    # included, and of every graph command; only the Pareto sampler needs it
    line = probe_last_line(NUMPY_PROBE, str(tmp_path / "tt.txt"), str(tmp_path / "emitted.txt"))
    assert line == "numpy modules: [] then after risk tail-mean: True"


def test_cli_import_loads_every_traced_module():
    # perfbench/tracer.py wraps these modules' functions right after `import fragrisk.cli`: each must
    # be in sys.modules (registered lazily), and vars() must run it, so every public function is seen
    functions = json.loads(probe_last_line(TRACED_MODULES_PROBE))
    expected = {m: public_functions(importlib.import_module(f"fragrisk.{m}")) for m in TRACED_MODULES}
    assert all(expected.values())
    assert functions == expected


# topo harm alone of the graph commands applies the harm transform
TOPO_MODULES = ["cli", "config", "report", "topology"]
PARETO_MODULES = ["cli", "config", "harm", "pareto", "report"]


@pytest.mark.parametrize(
    "args, ran",
    [
        (["--help"], ["cli"]),
        (["topo", "hops", "--topology", "{topo}"], TOPO_MODULES),
        (["topo", "fail", "--topology", "{topo}", "--fail", "leaf0"], TOPO_MODULES),
        (["topo", "harm", "--topology", "{topo}", "--p", "0.1", "--trials", "100"], sorted(TOPO_MODULES + ["harm"])),
        (["compare"], sorted(TOPO_MODULES + ["costing"])),
        (["topo", "build"], ["cli", "config", "topology"]),
        (["harm-curve", "--points", "5"], ["cli", "config", "harm", "report"]),
        (["jensen"], PARETO_MODULES),
        (["risk", "density", "--points", "5"], PARETO_MODULES),
        (["risk", "tail-mean", "--trials", "50"], PARETO_MODULES),
        (["risk", "ratio", "--K", "2"], PARETO_MODULES),
        (["risk", "curve", "--K-values", "1,2"], PARETO_MODULES),
        (["growth", "--points", "5"], ["cli", "config", "growth", "report"]),
        # verify prints check lines, not a report
        (["verify"], ["cli", "config", "costing", "growth", "harm", "pareto", "topology", "verify"]),
    ],
    ids=[
        "help", "topo-hops", "topo-fail", "topo-harm", "compare", "topo-build", "harm-curve", "jensen",
        "risk-density", "risk-tail-mean", "risk-ratio", "risk-curve", "growth", "verify",
    ],
)
def test_each_command_runs_only_its_modules(tmp_path, args, ran):
    topo = tmp_path / "sl.txt"
    topo.write_text(serialize_topology(build_spine_leaf(2, 4, 2)))
    loaded = json.loads(probe_last_line(LOADED_MODULES_PROBE, *(a.format(topo=topo) for a in args)))
    assert loaded["ran"] == ran
    if args == ["--help"]:
        assert loaded["stdlib"] == []
    elif args[0] == "verify" or args[:2] == ["risk", "tail-mean"]:
        # NumPy, which verify's oracles and the Pareto sampler use, imports inspect and hashlib
        assert "dataclasses" not in loaded["stdlib"]
    else:  # the config hash takes the interpreter's built-in SHA-256, so neither hashlib nor OpenSSL loads
        assert not {"dataclasses", "hashlib", "inspect"} & set(loaded["stdlib"])


ANALYSIS_MODULES = ("config", "costing", "growth", "harm", "pareto", "report", "topology", "verify")

# each import form, in turn, for every module; `import ... as` reads __spec__, which runs the module, so it goes last
IMPORT_FORMS_PROBE = f"""
import inspect
import json
import sys
import types

import fragrisk

found = {{}}
for m in {ANALYSIS_MODULES!r}:
    namespace = {{}}
    exec(f"from fragrisk import {{m}}", namespace)
    found[m] = [getattr(fragrisk, m), namespace[m]]
unexecuted = [m for m in found if type(sys.modules[f"fragrisk.{{m}}"]) is not types.ModuleType]
for m in found:
    namespace = {{}}
    exec(f"import fragrisk.{{m}} as imported", namespace)
    found[m].append(namespace["imported"])
import fragrisk.harm as harm_module

print(json.dumps({{
    "same": [m for m, objects in found.items() if all(o is sys.modules[f"fragrisk.{{m}}"] for o in objects)],
    "unexecuted": unexecuted,
    "harm_function": inspect.isfunction(harm_module.harm) and harm_module.harm.__module__ == "fragrisk.harm",
    "package_names": hasattr(fragrisk, "HarmParams"),
}}))
"""


def test_every_import_form_gives_the_module():
    # the package used to bind fragrisk.harm to the harm function, so `import fragrisk.harm as m` gave the function
    result = json.loads(probe_last_line(IMPORT_FORMS_PROBE))
    assert result == {
        "same": list(ANALYSIS_MODULES),
        "unexecuted": list(ANALYSIS_MODULES),
        "harm_function": True,
        "package_names": False,
    }


def library_layout():
    """(module name, backticked identifiers) of each row of README's "Library layout" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `fragrisk\.(\w+)` +\| (.*) \|$", section, re.MULTILINE)
    return [(module, re.findall(r"`(\w+)`", contents)) for module, contents in rows]


def test_library_layout_names_exist():
    # each name is an attribute of its row's module, or a field or attribute of a class the row names
    rows = library_layout()
    assert sorted(module for module, _ in rows) == sorted(ANALYSIS_MODULES)
    for module_name, names in rows:
        module = importlib.import_module(f"fragrisk.{module_name}")
        classes = [vars(module)[n] for n in names if isinstance(vars(module).get(n), type)]
        missing = [
            name
            for name in names
            if not hasattr(module, name)
            and not any(hasattr(c, name) or name in getattr(c, "__annotations__", {}) for c in classes)
        ]
        assert missing == [], module_name


def names_in(node):
    """How often each name is used under ``node``: as a variable, an attribute, or the last part of an import."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name.rpartition(".")[2]
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_public_function_has_a_caller():
    # a public function, method or property that the package never names is kept alive only by its tests
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(cli.__file__).parent.glob("*.py"))]
    used = sum(map(names_in, trees), Counter())
    defs = [
        node
        for tree in trees
        for scope in (tree, *(n for n in tree.body if isinstance(n, ast.ClassDef)))
        for node in scope.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(defs) > 50
    assert sorted(d.name for d in defs if used[d.name] == names_in(d)[d.name]) == []


# option string -> (dest, default) of each leaf command's sub-parser
PINNED_HELP = {"-h": ("help", argparse.SUPPRESS), "--help": ("help", argparse.SUPPRESS)}
PINNED_COMMON = {
    **PINNED_HELP,
    "--config": ("config", None),
    "--out": ("out", None),
    "--format": ("output_format", None),
    "--digits": ("output_digits", None),
}
PINNED_HARM = {"--k": ("harm_k", None), "--beta": ("harm_beta", None)}
PINNED_PARETO = {"--alpha": ("pareto_alpha", None), "--scale": ("pareto_scale", None)}
PINNED_MC = {"--trials": ("trials", None), "--seed": ("seed", None)}
PINNED_FRAGMENTS = {"--fragments": ("fragments", None)}
PINNED_FLAGS = {
    ("harm-curve",): {
        **PINNED_COMMON, "--k": ("harm_k", None), "--svg": ("svg", None),
        "--betas": ("betas", "1.5,2,3"), "--x-max": ("x_max", 4.0), "--points": ("points", 81),
    },
    ("jensen",): {
        **PINNED_COMMON, **PINNED_HARM, **PINNED_PARETO, **PINNED_MC,
        "--weights": ("harm_weights", None), "--x": ("error_x", None), "--unit-value": ("unit_value", None),
    },
    ("risk", "density"): {
        **PINNED_COMMON, **PINNED_HARM, **PINNED_PARETO, **PINNED_FRAGMENTS, "--points": ("points", 100),
    },
    ("risk", "tail-mean"): {**PINNED_COMMON, **PINNED_HARM, **PINNED_PARETO, **PINNED_MC, **PINNED_FRAGMENTS},
    ("risk", "ratio"): {**PINNED_COMMON, **PINNED_HARM, **PINNED_PARETO, **PINNED_FRAGMENTS, "--K": ("K", None)},
    ("risk", "curve"): {
        **PINNED_COMMON, **PINNED_HARM, **PINNED_PARETO, "--svg": ("svg", None),
        "--K-values": ("K_values", ",".join(str(k) for k in range(1, 33))),
    },
    ("topo", "build"): {
        **PINNED_HELP,
        "--config": ("config", None),
        "--out": ("out", None),
        "--kind": ("topology_kind", None),
        "--spines": ("topology_spines", None),
        "--leaves": ("topology_leaves", None),
        "--hosts-per-leaf": ("topology_hosts_per_leaf", None),
        "--cores": ("topology_cores", None),
        "--distributions": ("topology_distributions", None),
        "--access-per-distribution": ("topology_access_per_distribution", None),
        "--hosts-per-access": ("topology_hosts_per_access", None),
        "--dual-homed": ("topology_dual_homed", None),
    },
    ("topo", "hops"): {**PINNED_COMMON, "--topology": ("topology", None)},
    ("topo", "fail"): {
        **PINNED_COMMON, "--topology": ("topology", None), "--fail": ("fail", ""), "--emit": ("emit", None),
    },
    ("topo", "harm"): {
        **PINNED_COMMON, **PINNED_HARM, **PINNED_MC,
        "--topology": ("topology", None), "--p": ("failure_default", None), "--p-role": ("p_role", None),
    },
    ("growth",): {
        **PINNED_COMMON, "--svg": ("svg", None), "--saturation": ("saturation", 100.0),
        "--ports-per-switch": ("ports_per_switch", 48), "--max-units": ("max_units", 5.0), "--points": ("points", 51),
    },
    ("compare",): {**PINNED_COMMON, "--a": ("a", None), "--b": ("b", None)},
    ("verify",): PINNED_HELP,
}
PINNED_SUBCOMMANDS = {
    (): ["harm-curve", "jensen", "risk", "topo", "growth", "compare", "verify"],
    ("risk",): ["density", "tail-mean", "ratio", "curve"],
    ("topo",): ["build", "hops", "fail", "harm"],
}


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """``parser``'s sub-parsers by name; none for a leaf command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def leaf_parsers(parser, path=()):
    """(command path, sub-parser) of every leaf command under ``parser``."""
    children = subcommands(parser)
    if not children:
        yield path, parser
    for name, child in children.items():
        yield from leaf_parsers(child, (*path, name))


def test_flags_stay_the_same_on_every_command_path():
    # every command lists every subcommand name, and each leaf command has exactly its own flags
    parser = build_parser()
    for prefix, names in PINNED_SUBCOMMANDS.items():
        node = parser
        for word in prefix:
            node = subcommands(node)[word]
        assert list(subcommands(node)) == names
    leaves = dict(leaf_parsers(parser))
    assert sorted(leaves) == sorted(PINNED_FLAGS)
    for leaf, sub in leaves.items():
        flags = {option: (a.dest, a.default) for a in sub._actions for option in a.option_strings}
        assert flags == PINNED_FLAGS[leaf], leaf


# a flag a command takes but never reads, with the reason it is still accepted
UNREAD_FLAGS = {
    ("jensen", "--trials"): "the means are closed form; kept so that existing command lines still run",
}
# values for the flags argparse requires, and fewer trials than the default, so each command runs fast
RUN_ARGS = {"--topology": "{in}/sl.txt", "--K": "2", "--trials": "100"}


@pytest.mark.parametrize(
    "path", [path for path in sorted(PINNED_FLAGS) if PINNED_FLAGS[path] != PINNED_HELP], ids=" ".join
)
def test_every_flag_is_read(cli_inputs, monkeypatch, path):
    # harm-curve took a --beta that it never read: it plots each of --betas; verify takes no flag
    read = set()

    class RecordingConfig:
        """The handler's config: each field read passes through to ``cfg`` and is noted.

        Its methods run on the recorder, so the fields they read are noted too;
        all but ``config_hash``, which reads every field and would hide an unread flag.
        """

        def __init__(self, cfg):
            self._cfg = cfg

        def __getattr__(self, name):
            method = getattr(type(self._cfg), name, None)
            if callable(method) and name != "config_hash":
                return method.__get__(self)
            read.add(name)
            return getattr(self._cfg, name)

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    def config_from_args(args):
        cfg = real_config_from_args(args)  # it consumes --config
        args.__class__ = RecordingNamespace  # the handler runs next: note each parsed dest it reads
        return RecordingConfig(cfg)

    real_config_from_args = cli._config_from_args
    monkeypatch.setattr(cli, "_config_from_args", config_from_args)
    flags = PINNED_FLAGS[path]
    run_args = [word for flag, value in RUN_ARGS.items() if flag in flags for word in (flag, value)]
    # topo build reads the flags of the kind it builds
    kinds = [["--kind", "spine-leaf"], ["--kind", "three-tier"]] if path == ("topo", "build") else [[]]
    for kind in kinds:
        assert main(fill([*path, *run_args, *kind], **{"in": cli_inputs})) == 0
    consumed = {"-h", "--help", "--config", "--p-role"}  # argparse and _config_from_args read these
    unread = {flag for flag, (dest, _) in flags.items() if dest not in read} - consumed
    assert unread == {flag for flag in flags if (*path, flag) in UNREAD_FLAGS}


@pytest.mark.parametrize("beta", ["2", "nan"])
def test_harm_curve_takes_no_beta(capsys, beta):
    # it plots each of --betas; --beta used to be accepted, never read, and --beta nan exited 0
    assert exit_code(["harm-curve", "--beta", beta]) == 2
    assert capsys.readouterr().out == ""


# a value each flag takes, so that only a cut flag's name can fail; the flags not listed take "1"
FLAG_VALUES = {
    "--config": "{in}/scenario.cfg", "--topology": "{in}/sl.txt", "--a": "{in}/tt.txt", "--b": "{in}/sl.txt",
    "--out": "out.txt", "--svg": "chart.svg", "--emit": "emit.txt",
    "--format": "json", "--kind": "three-tier", "--fail": "leaf0", "--p-role": "leaf=0.1",
}


@pytest.mark.parametrize("path", sorted(PINNED_FLAGS), ids=" ".join)
def test_no_flag_may_be_abbreviated(cli_inputs, tmp_path, monkeypatch, capsys, path):
    # argparse reads a unique prefix of a flag as that flag unless told not to: --spine ran as --spines
    monkeypatch.chdir(tmp_path)
    flags = {
        option: action
        for action in dict(leaf_parsers(build_parser()))[path]._actions
        for option in action.option_strings
    }
    run_args = [word for flag, value in RUN_ARGS.items() if flag in flags for word in (flag, value)]
    for flag, action in flags.items():
        cut = flag[:-1]
        if not flag.startswith("--") or cut in flags:
            continue
        value = [] if action.nargs == 0 else [FLAG_VALUES.get(flag, "1")]
        assert exit_code(fill([*path, *run_args, cut, *value], **{"in": cli_inputs})) == 2, cut
        captured = capsys.readouterr()
        assert captured.out == "", cut
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"fragrisk {' '.join(path)}: error: unrecognized arguments: "), cut


@pytest.mark.parametrize("args", [["risk", "curve", "--K", "2"], ["topo", "build", "--spine", "3"]], ids=" ".join)
def test_a_prefix_of_a_flag_is_a_flag_error(capsys, args):
    # these ran as --K-values 2 and --spines 3
    assert exit_code(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command, words = " ".join(args[:2]), " ".join(args[2:])
    assert captured.err.endswith(f"fragrisk {command}: error: unrecognized arguments: {words}\n")


# (command path, unknown words, how many of the path's words precede them): each word after the path;
# a flag also before it and between the words of a two-word path (a stray word there names a subcommand);
# and -N, which once spelled --fragments
UNKNOWN_WORDS = [
    *(
        pytest.param(path, word, len(path), id=f"{' '.join(path)}-{word}")
        for path in sorted(PINNED_FLAGS)
        for word in ("--no-such-flag", "stray")
    ),
    *(pytest.param(path, "--no-such-flag", 0, id=f"--no-such-flag {' '.join(path)}") for path in sorted(PINNED_FLAGS)),
    *(
        pytest.param(path, "--no-such-flag", 1, id=f"{path[0]} --no-such-flag {path[1]}")
        for path in sorted(PINNED_FLAGS)
        if len(path) == 2
    ),
    *(
        pytest.param(path, "-N 2", len(path), id=f"{' '.join(path)}--N 2")
        for path in sorted(PINNED_FLAGS)
        if "--fragments" in PINNED_FLAGS[path]
    ),
]


@pytest.mark.parametrize(("path", "word", "at"), UNKNOWN_WORDS)
def test_the_command_reports_an_unknown_word(cli_inputs, capsys, path, word, at):
    # the root parser used to report these, and its usage lists no flag of the command
    flags = PINNED_FLAGS[path]
    run_args = [w for flag, value in RUN_ARGS.items() if flag in flags for w in (flag, value)]
    assert exit_code(fill([*path[:at], *word.split(), *path[at:], *run_args], **{"in": cli_inputs})) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = " ".join(path)
    assert captured.err.startswith(f"usage: fragrisk {command} ")
    assert captured.err.endswith(f"fragrisk {command}: error: unrecognized arguments: {word}\n")


def test_topology_harm_never_imports_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma, about 15 ms of each `topo harm` run
    assert probe_last_line(NUMPY_MA_PROBE, str(tmp_path / "tt.txt")) == "numpy.ma modules: []"


# Reports on small fabrics.  The hop and compare reports were captured from
# the per-pattern BFS implementation; the harm reports come from the
# geometric-skip sampler, and TestPinnedReports checks each of their means
# against the exact mean over every failure pattern.  The reports from
# harm-curve on are one per command path that writes a report, and one each
# for --format json, --digits and a --config annotation.
PINNED = {
    "hops.tt": """# command: topo-hops
# config_hash: df7d2b15dae2e7fb
# unreachable_bucket: -1
# version: 0.1.0
hops,pairs
0,6
2,60
""",
    "hops.inj": """# command: topo-hops
# config_hash: df7d2b15dae2e7fb
# unreachable_bucket: -1
# version: 0.1.0
hops,pairs
-1,21
0,5
2,32
4,8
""",
    "harm.sl": """# command: topo-harm
# config_hash: a56f5a445ca02edf
# distinct_patterns: 8
# seed: 7
# std_error: 0.0032597048330180595
# trials: 2000
# version: 0.1.0
expected_harm,p50,p90,p99
-0.066848010608933375,0,-0.30645448293783728,-0.67926519276618424
""",
    "harm.tt": """# command: topo-harm
# config_hash: aaa35925951eb2eb
# distinct_patterns: 153
# seed: 11
# std_error: 0.003002509894958955
# trials: 3000
# version: 0.1.0
expected_harm,p50,p90,p99
-0.12597853489136582,0,-0.4368773121862799,-0.67926519276618424
""",
    "harm.inj": """# command: topo-harm
# config_hash: 73594d5f6dd6a471
# distinct_patterns: 60
# seed: 5
# std_error: 0.004145386633212966
# trials: 1500
# version: 0.1.0
expected_harm,p50,p90,p99
-0.27563017897427577,-0.17947875107838016,-0.4368773121862799,-0.82380815546277786
""",
    "compare": """# command: compare
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
metric,design_a,design_b,ratio_b_over_a
total_ports,528,288,0.54545454545454541
total_price,528,72,0.13636363636363635
total_watts,528,72,0.13636363636363635
price_per_port,1,0.25,0.25
watts_per_port,1,0.25,0.25
max_single_device_affected,0.31818181818181818,0.45454545454545453,1.4285714285714286
""",
    "compare.inj": """# command: compare
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
metric,design_a,design_b,ratio_b_over_a
total_ports,432,288,0.66666666666666663
total_price,432,72,0.16666666666666666
total_watts,432,72,0.16666666666666666
price_per_port,1,0.25,0.25
watts_per_port,1,0.25,0.25
max_single_device_affected,0.74242424242424243,0.45454545454545453,0.61224489795918369
""",
    "harm-curve": """# command: harm-curve
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
x,harm_beta_1.5,harm_beta_2,harm_beta_3
0,0,0,0
1,-1,-1,-1
2,-2.8284271247461903,-4,-8
3,-5.196152422706632,-9,-27
4,-8,-16,-64
""",
    "jensen": """# command: jensen
# config_hash: df7d2b15dae2e7fb
# seed: 42
# version: 0.1.0
x,harm,fragmented_harm,jensen_gap,centralized_mean,decentralized_mean,mean_gap
1,-1,-0.70710678118654757,0.29289321881345243,6,7.1715728752538102,1.1715728752538102
""",
    "risk-density": """# command: risk-density
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
xi,density
-3.34370152488211,0.079751934998465099
-1.9881768219176266,0.26825246499902627
-1.4668528946556556,0.54538529590439977
-1.1821770112539698,0.90229014480261471
-1,1.3333333333333333
""",
    "risk-ratio": """# command: risk-ratio
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
# warnings: alpha=2.0 is at or below 1 + beta = 2.5; the mean converges but lies outside the conventionally safe regime
K,ratio
2,0.6299605249474366
""",
    "risk-curve": """# command: risk-curve
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
# warnings: alpha=2.0 is at or below 1 + beta = 2.5; the mean converges but lies outside the conventionally safe regime
K,ratio
1,1
2,0.6299605249474366
3,0.48074985676913606
4,0.39685026299204984
5,0.34199518933533934
6,0.30285343213868993
7,0.2732758832531984
8,0.24999999999999997
9,0.23112042478354486
10,0.21544346900318834
11,0.2021800082335741
12,0.19078570709222195
13,0.18087189905544285
14,0.17215301886965925
15,0.16441413828869797
16,0.15749013123685912
17,0.1512518582740138
18,0.14559674412271645
19,0.14044219203799707
20,0.13572088082974529
21,0.13137734173243429
22,0.12736542412069937
23,0.12364639042832891
24,0.120187464192284
25,0.11696070952851462
26,0.11394215647720653
27,0.11111111111111108
28,0.10844960613841649
29,0.1059419595064085
30,0.1035744168651286
31,0.10133485975456104
32,0.099212565748012446
""",
    "growth": """# command: growth
# config_hash: df7d2b15dae2e7fb
# crossover_units: 2.0764179047740376
# version: 0.1.0
units,sigmoid_capacity,linear_capacity
0,0,0
1.25,92.290012825645817,60
2.5,99.959304798255502,120
3.75,99.999988627274334,180
5,99.999999999846253,240
""",
    "fail": """# command: topo-fail
# config_hash: df7d2b15dae2e7fb
# version: 0.1.0
failed_devices,affected_fraction,detached_hosts
2,0.31818181818181818,2
""",
    "hops.sl.json": """{
  "columns": [
    "hops",
    "pairs"
  ],
  "metadata": {
    "command": "topo-hops",
    "config_hash": "53e2a920ce6b8914",
    "unreachable_bucket": -1,
    "version": "0.1.0"
  },
  "rows": [
    [
      0,
      12
    ],
    [
      2,
      54
    ]
  ]
}
""",
    "compare.digits": """# command: compare
# config_hash: 06eb3cf5d277b013
# version: 0.1.0
metric,design_a,design_b,ratio_b_over_a
total_ports,528,288,0.545
total_price,528,72,0.136
total_watts,528,72,0.136
price_per_port,1,0.25,0.25
watts_per_port,1,0.25,0.25
max_single_device_affected,0.318,0.455,1.43
""",
    "compare.config": """# command: compare
# config_hash: 98d57e2ffc1c75c3
# core_drop_probability: 0.001
# version: 0.1.0
metric,design_a,design_b,ratio_b_over_a
total_ports,384,288,0.75
total_price,384,72,0.1875
total_watts,384,72,0.1875
price_per_port,1,0.25,0.25
watts_per_port,1,0.25,0.25
max_single_device_affected,0.83333333333333337,0.5,0.59999999999999998
""",
}

# the side files that the pinned commands write next to their reports
PINNED_SIDE_FILES = {
    "harm-curve.svg": """<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">
<rect width="640" height="480" fill="white"/>
<line x1="50.0" y1="430.0" x2="590.0" y2="430.0" stroke="black"/>
<line x1="50.0" y1="50.0" x2="50.0" y2="430.0" stroke="black"/>
<text x="50.0" y="450.0" font-size="12">0</text>
<text x="590.0" y="450.0" font-size="12" text-anchor="end">4</text>
<text x="45.0" y="430.0" font-size="12" text-anchor="end">-64</text>
<text x="45.0" y="60.0" font-size="12" text-anchor="end">0</text>
<text x="45.0" y="450.0" font-size="12" text-anchor="end">x</text>
<text x="320.0" y="25" font-size="14" text-anchor="middle">harm-curve</text>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="50.00,50.00 185.00,55.94 320.00,66.79 455.00,80.85 590.00,97.50"/>
<text x="585.0" y="65.0" font-size="12" text-anchor="end" fill="#1f77b4">harm_beta_1.5</text>
<polyline fill="none" stroke="#d62728" stroke-width="1.5" points="50.00,50.00 185.00,55.94 320.00,73.75 455.00,103.44 590.00,145.00"/>
<text x="585.0" y="80.0" font-size="12" text-anchor="end" fill="#d62728">harm_beta_2</text>
<polyline fill="none" stroke="#2ca02c" stroke-width="1.5" points="50.00,50.00 185.00,55.94 320.00,97.50 455.00,210.31 590.00,430.00"/>
<text x="585.0" y="95.0" font-size="12" text-anchor="end" fill="#2ca02c">harm_beta_3</text>
</svg>
""",
    "fail.emit": """topology/1
acc1 access
acc2 access
acc3 access
acc4 access
acc5 access
core0 core
core1 core
dist0 distribution
dist2 distribution
acc1 -- dist0
acc2 -- dist2
acc3 -- dist2
acc4 -- dist0
acc4 -- dist2
acc5 -- dist0
acc5 -- dist2
core0 -- core1
core0 -- dist0
core0 -- dist2
core1 -- dist0
core1 -- dist2
host h10 @ acc5
host h11 @ acc5
host h2 @ acc1
host h3 @ acc1
host h4 @ acc2
host h5 @ acc2
host h6 @ acc3
host h7 @ acc3
host h8 @ acc4
host h9 @ acc4
host h0 detached
host h1 detached
""",
}


class TestPinnedReports:
    @pytest.fixture
    def fabrics(self, tmp_path):
        sl, tt, inj = (str(tmp_path / name) for name in ("sl.txt", "tt.txt", "inj.txt"))
        assert run(["topo", "build", "--kind", "spine-leaf", "--spines", "2", "--leaves", "4",
                    "--hosts-per-leaf", "3", "--out", sl]) == 0
        assert run(["topo", "build", "--kind", "three-tier", "--cores", "2", "--distributions", "3",
                    "--access-per-distribution", "2", "--hosts-per-access", "2", "--dual-homed",
                    "--out", tt]) == 0
        assert run(["topo", "fail", "--topology", tt, "--fail", "dist1,acc0", "--emit", inj,
                    "--out", str(tmp_path / "fail.csv")]) == 0
        return {"sl": sl, "tt": tt, "inj": inj}

    @pytest.fixture
    def commands(self, fabrics, tmp_path):
        """The command of each pinned report; side files go to ``tmp_path``, under their ``PINNED_SIDE_FILES`` names."""
        config = tmp_path / "scenario.cfg"
        config.write_text("report.core_drop_probability = 0.001\n")
        side = {name: str(tmp_path / name) for name in PINNED_SIDE_FILES}
        return {
            "hops.tt": ["topo", "hops", "--topology", fabrics["tt"]],
            "hops.inj": ["topo", "hops", "--topology", fabrics["inj"]],
            "harm.sl": ["topo", "harm", "--topology", fabrics["sl"], "--p", "0.05", "--trials", "2000",
                        "--seed", "7"],
            "harm.tt": ["topo", "harm", "--topology", fabrics["tt"], "--p", "0.1", "--trials", "3000",
                        "--seed", "11"],
            "harm.inj": ["topo", "harm", "--topology", fabrics["inj"], "--p-role", "core=0.2",
                         "--p-role", "access=0.05", "--trials", "1500", "--seed", "5"],
            "compare": ["compare", "--a", fabrics["tt"], "--b", fabrics["sl"]],
            "compare.inj": ["compare", "--a", fabrics["inj"], "--b", fabrics["sl"]],
            "harm-curve": ["harm-curve", "--points", "5", "--svg", side["harm-curve.svg"]],
            "jensen": ["jensen"],  # takes --seed, so its report has a seed line though it draws nothing
            "risk-density": ["risk", "density", "--points", "5"],
            "risk-ratio": ["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"],
            "risk-curve": ["risk", "curve"],
            "growth": ["growth", "--points", "5"],
            "fail": ["topo", "fail", "--topology", fabrics["tt"], "--fail", "dist1,acc0", "--emit", side["fail.emit"]],
            "hops.sl.json": ["topo", "hops", "--topology", fabrics["sl"], "--format", "json"],
            "compare.digits": ["compare", "--a", fabrics["tt"], "--b", fabrics["sl"], "--digits", "3"],
            "compare.config": ["compare", "--config", str(config)],
        }

    def test_reports_byte_identical(self, commands, tmp_path, capsys):
        assert sorted(commands) == sorted(PINNED)
        for name, args in commands.items():
            out = tmp_path / f"{name}.out"
            assert run(args + ["--out", str(out)]) == 0
            # with --out, only risk ratio prints: its ratio
            assert capsys.readouterr().out == ("0.629961\n" if name == "risk-ratio" else ""), name
            assert read_bytes(out) == PINNED[name].encode(), name
        for name, text in PINNED_SIDE_FILES.items():
            assert read_bytes(tmp_path / name) == text.encode(), name

    def test_json_reports_are_strict_json(self, commands, tmp_path):
        for name, args in commands.items():
            out = tmp_path / f"{name}.json"
            assert run(args + ["--format", "json", "--out", str(out)]) == 0, name
            strict_json(out.read_text())

    @pytest.mark.parametrize(
        "name, fabric, probabilities, trials",
        [
            ("harm.sl", "sl", {"spine": 0.05, "leaf": 0.05}, 2000),
            ("harm.tt", "tt", {"core": 0.1, "distribution": 0.1, "access": 0.1}, 3000),
            ("harm.inj", "inj", {"core": 0.2, "distribution": 0.05, "access": 0.05}, 1500),
        ],
    )
    def test_pinned_harm_lies_near_exact(self, fabrics, name, fabric, probabilities, trials):
        # each fabric has 6-11 devices, so every failure pattern can be enumerated
        with open(fabrics[fabric]) as fh:
            topo = parse_topology(fh.read())
        exact_mean, exact_std = exhaustive_failure_harm(topo, probabilities, HarmParams(1.0, 1.5))
        pinned = float(PINNED[name].splitlines()[-1].split(",")[0])
        assert abs(pinned - exact_mean) <= 3.0 * exact_std / trials**0.5
