import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fragrisk.cli import main
from fragrisk.config import ScenarioConfig, load_config, parse_config_text


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


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", NON_FINITE_ARGS[:2] + RANGE_ARGS)
    def test_exits_cleanly_within_timeout(self, args):
        # growth used to bisect towards inf forever; tail-mean printed nan
        proc = run_subprocess(args)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr

    @pytest.mark.parametrize("args", NON_FINITE_ARGS + RANGE_ARGS)
    def test_no_report_written(self, tmp_path, capsys, args):
        out = tmp_path / "report.csv"
        assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


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


def test_topology_commands_never_import_scipy(tmp_path):
    # SciPy is only for the quadrature oracles of `verify`; start-up must not pay for it
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "sl.txt")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []"


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
