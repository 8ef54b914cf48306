import contextlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragrisk.cli import main
from fragrisk.config import ScenarioConfig, load_config, parse_config_text
from fragrisk.report import ScenarioReport
from fragrisk.topology import build_spine_leaf, build_three_tier, serialize_topology


def run(args):
    return main(list(args))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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

    def test_overrides_beat_file(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("seed = 1\ntrials = 10\n")
        cfg = load_config(str(cfg_file), {"seed": 99, "trials": None})
        assert cfg.seed == 99
        assert cfg.trials == 10


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

    def test_no_partial_file_on_domain_error(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run(["risk", "tail-mean", "--alpha", "1", "--beta", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("digits", ["-1", "0", "two"])
    def test_digits_must_be_positive_integer(self, capsys, digits):
        # -1 used to print the ratio and then fail; 0 silently meant 17 digits
        with pytest.raises(SystemExit) as excinfo:
            run(["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2", "--digits", digits])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--digits" in captured.err

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

    def test_compare_unbounded_ratio_is_a_label(self, tmp_path):
        # one host has no pairs to lose, so design b's fault domain is
        # unboundedly worse; the report says so in valid JSON
        one = tmp_path / "one.txt"
        one.write_text("topology/1\ns0 spine\nl0 leaf\ns0 -- l0\nhost h0 @ l0\n")
        csv, doc = tmp_path / "compare.csv", tmp_path / "compare.json"
        assert run(["compare", "--a", str(one), "--out", str(csv)]) == 0
        assert read_bytes(csv).endswith(b"\nmax_single_device_affected,0,0.5,inf\n")
        assert run(["compare", "--a", str(one), "--format", "json", "--out", str(doc)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(doc.read_text(), parse_constant=reject)["rows"]
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

    @pytest.mark.parametrize("line", ["output.digits = -1", "output.digits = 0", "output.format = xml"])
    def test_config_output_settings_validated(self, tmp_path, capsys, line):
        # -1 and xml used to print the ratio and then fail; 0 silently meant 17 digits
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert run(["risk", "ratio", "--config", str(cfg), "--alpha", "2", "--beta", "1.5", "--K", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output.")

    def test_warning_is_one_line(self, capsys):
        assert run(["risk", "ratio", "--alpha", "2", "--beta", "1.5", "--K", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.629961\n"
        assert captured.err == (
            "warning: alpha=2.0 is at or below 1 + beta = 2.5; the mean converges "
            "but lies outside the conventionally safe regime\n"
        )

    def test_drop_probability_annotation_carried(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("report.core_drop_probability = 0.001\n")
        out = tmp_path / "compare.csv"
        assert run(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert "# core_drop_probability: 0.001" in out.read_text()


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["jensen", "--k", "1", "--beta", "2", "--weights", "0.5,0.5", "--alpha", "4",
                "--trials", "5000", "--seed", "42"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["jensen", "--k", "1", "--beta", "2", "--weights", "0.5,0.5", "--alpha", "4",
                "--trials", "5000"]
        run(args + ["--seed", "42", "--out", str(a)])
        run(args + ["--seed", "43", "--out", str(b)])
        assert read_bytes(a) != read_bytes(b)


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


# finite inputs whose float powers overflow; each was an OverflowError traceback
OVERFLOW_ARGS = [
    ["risk", "ratio", "--K", "1e308", "--beta", "0.5", "--alpha", "2"],
    ["jensen", "--x", "1e300", "--beta", "3"],
    ["harm-curve", "--x-max", "1e300", "--betas", "3", "--points", "3"],
    ["risk", "tail-mean", "--scale", "1e300", "--beta", "3", "--alpha", "5", "--trials", "10"],
    # a finite k whose products overflow to -inf; each printed -inf cells and exited 0
    ["harm-curve", "--k", "1e308", "--points", "3"],
    ["topo", "harm", "--topology", "{in}/sl.txt", "--k", "1e308", "--p", "0.5", "--trials", "100"],
    ["jensen", "--k", "1e308"],
    ["risk", "tail-mean", "--k", "1e308"],
]

# value lists with no values; each printed a report with no data columns or rows and exited 0
EMPTY_LIST_ARGS = [
    ["risk", "curve", "--K-values", ","],
    ["harm-curve", "--betas", ""],
]

# trial counts whose sample arrays cannot be allocated; each was a MemoryError traceback
HUGE_TRIALS_ARGS = [
    ["risk", "tail-mean", "--trials", "1000000000000000"],
    ["jensen", "--trials", "1000000000000000"],
    ["topo", "harm", "--topology", "{in}/sl.txt", "--trials", "1000000000000000"],
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", NON_FINITE_ARGS[:2] + RANGE_ARGS)
    def test_exits_cleanly_within_timeout(self, args):
        # growth used to bisect towards inf forever; tail-mean printed nan
        proc = run_subprocess(args)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr

    @pytest.mark.parametrize(
        "args", NON_FINITE_ARGS + RANGE_ARGS + OVERFLOW_ARGS + EMPTY_LIST_ARGS + HUGE_TRIALS_ARGS
    )
    def test_no_report_written(self, cli_inputs, tmp_path, capsys, args):
        out = tmp_path / "report.csv"
        assert run(fill(args, **{"in": cli_inputs}) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("args", EMPTY_LIST_ARGS)
    def test_empty_list_names_flag_and_writes_no_chart(self, tmp_path, capsys, args):
        # with --svg these failed inside the chart with "min() arg is an empty sequence"
        out, svg = tmp_path / "report.csv", tmp_path / "chart.svg"
        assert run(args + ["--out", str(out), "--svg", str(svg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {args[-2]} needs at least one value")
        assert os.listdir(tmp_path) == []


def test_growth_with_large_saturation_finishes():
    # found by test_argv_contract: crossover bisected towards 1e-9 forever once the
    # float spacing at the crossover (here about 2e7 units) was wider than that
    proc = run_subprocess(["growth", "--saturation", "1e9"])
    assert proc.returncode == 0, proc.stderr
    assert "# crossover_units: 20833333.333333332\n" in proc.stdout


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
        **COMMON_FLAGS, **HARM_FLAGS, "--svg": OUTPUTS,
        "--betas": ["1.5,2", "inf", "abc", ""], "--x-max": NUMBERS, "--points": POINTS,
    },
    ("jensen",): {
        **COMMON_FLAGS, **HARM_FLAGS, **PARETO_FLAGS, **MC_FLAGS,
        "--weights": ["0.5,0.5", "1", "inf,0", "nan", "abc"], "--x": NUMBERS, "--unit-value": NUMBERS,
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
    # a valid seed runs every check (seconds); test_acceptance covers that path
    ("verify",): {"--seed": ["-1", "nan", "abc"]},
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

topo = sys.argv[1]
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
):
    assert main(args) == 0, args
start_up = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert main(["topo", "hops", "--topology", topo]) == 0
print("numpy modules:", start_up, "then after topo hops:", "numpy" in sys.modules)
"""


TRACED_MODULES_PROBE = """
import sys
import fragrisk.cli

traced = ("harm", "pareto", "growth", "topology", "costing", "report", "verify")
print("missing:", [m for m in traced if f"fragrisk.{m}" not in sys.modules])
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


def test_topology_commands_never_import_scipy(tmp_path):
    # SciPy is only for the quadrature oracles of `verify`; start-up must not pay for it
    assert probe_last_line(SCIPY_PROBE, str(tmp_path / "sl.txt")) == "scipy modules: []"


def test_closed_form_commands_never_import_numpy(tmp_path):
    # importing NumPy was most of the start-up time of every command, --help included
    line = probe_last_line(NUMPY_PROBE, str(tmp_path / "tt.txt"))
    assert line == "numpy modules: [] then after topo hops: True"


def test_cli_import_loads_every_traced_module():
    # perfbench/tracer.py wraps these modules' functions right after `import fragrisk.cli`
    assert probe_last_line(TRACED_MODULES_PROBE) == "missing: []"


def test_topology_harm_never_imports_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma, about 15 ms of each `topo harm` run
    assert probe_last_line(NUMPY_MA_PROBE, str(tmp_path / "tt.txt")) == "numpy.ma modules: []"


# Reports on small fabrics, captured from the per-pattern BFS implementation;
# the array kernel must reproduce them byte for byte.
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
# seed: 7
# version: 0.1.0
expected_harm,p50,p90,p99
-0.05917166882555279,0,-0.30645448293783728,-0.67926519276618424
""",
    "harm.tt": """# command: topo-harm
# config_hash: 8df6d1ee344841e2
# seed: 11
# version: 0.1.0
expected_harm,p50,p90,p99
-0.12878598263053803,0,-0.4368773121862799,-0.67926519276618424
""",
    "harm.inj": """# command: topo-harm
# config_hash: c4144c0e53ee538a
# seed: 5
# version: 0.1.0
expected_harm,p50,p90,p99
-0.27855744094720192,-0.17947875107838016,-0.4368773121862799,-0.82380815546277786
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

    def test_reports_byte_identical(self, fabrics, tmp_path):
        commands = {
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
        }
        for name, args in commands.items():
            out = tmp_path / f"{name}.csv"
            assert run(args + ["--out", str(out)]) == 0
            assert read_bytes(out) == PINNED[name].encode(), name
