import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from megstat import DiscreteDistribution, KineticParams, calibrate_coupling, transient_evolve
from megstat.cli import _CSV_ROWS, build_parser, main


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
# immigration-death with mean 3, as the CLI's rate-group flags
POISSON3 = ["--k1A", "0", "--km1", "0", "--k2", "1", "--km2AV", "3", "--V", "1"]


def run_process(args):
    """Run the CLI (or ``-c`` code when args starts with it) in a fresh interpreter."""
    cmd = [sys.executable, *(args if args[0] == "-c" else ["-m", "megstat.cli", *args])]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])})


def as_flags(keys):
    """The command-line flags that set each config key to its value."""
    return [item for key, val in keys.items() for item in (f"--{key.replace('_', '-')}", str(val))]


def run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


class TestUsage:
    def test_no_arguments_prints_usage(self, capsys):
        rc, _, err = run([], capsys)
        assert rc == 2
        assert "usage" in err.lower()

    def test_epsilon_below_threshold(self, capsys):
        rc, _, err = run(["stat", "--epsilon", "0.5", "--g", "1"], capsys)
        assert rc == 2
        assert "epsilon must exceed 1" in err

    def test_unknown_mode(self, capsys):
        rc, _, err = run(["frobnicate"], capsys)
        assert rc == 2
        assert err.startswith("ERROR USAGE") and "frobnicate" in err


# per mode: its flags with one required parameter left out, and a full
# config with one value of the wrong kind
MALFORMED = {
    "stat": (["--epsilon", "3.63"], {"epsilon": "abc", "g": 1.0}),
    "calibrate": (["--epsilon", "3.63"], {"epsilon": 3.63, "target_mean": "abc"}),
    "stationary": (POISSON3[:-2], {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": 1,
                                   "tail_tol": "abc"}),
    "extrema": (POISSON3[:-2], {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": "abc"}),
    "evolve": (POISSON3, {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": 1,
                          "t_grid": "1", "n_max": "abc"}),
    "ssa": (POISSON3[2:], {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": 1,
                           "events": "abc"}),
    "reproduce": ([], {"case": 3.63}),
}


class TestUsageErrorsExitTwo:
    @pytest.mark.parametrize("mode", sorted(MALFORMED))
    def test_malformed_input(self, mode, tmp_path):
        flags, config = MALFORMED[mode]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in ([mode, *flags], [mode, "--config", str(cfg)]):
            proc = run_process(argv)
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith("ERROR USAGE"), proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["frobnicate"],
                                      ["stat", "--epsilon", "3.63", "--g", "1", "--bogus", "1"],
                                      ["stat", "--eps", "3.63", "--g", "1"]])
    def test_bad_argv(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("ERROR USAGE"), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_abbreviated_config_key(self, tmp_path):
        # every key of the mode is there, so the abbreviation is what fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TestConfigFile.EVERY_KEY["stat"], "eps": 4.9}))
        proc = run_process(["stat", "--config", str(cfg)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("ERROR USAGE") and "eps" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_output_in_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "law.json"
        proc = run_process(["stat", "--epsilon", "3.63", "--g", "1", "--output", str(out)])
        assert proc.returncode == 2
        assert "ERROR USAGE" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOutputFile:
    """``--output`` is overwritten in place, then trimmed when it is a regular file."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shorter_law_over_a_longer_file_leaves_only_its_bytes(self, fmt, tmp_path, capsys):
        out = tmp_path / f"law.{fmt}"
        flags = ["--k1A", "5", "--km1", "0.3", "--k2", "2", "--km2AV", "0.1", "--format", fmt]
        assert main(["stationary", *flags, "--V", "100", "--output", str(out)]) == 0
        longer = out.stat().st_size
        rc, expected, _ = run(["stationary", *flags, "--V", "1"], capsys)
        assert rc == 0 and len(expected) < longer
        assert main(["stationary", *flags, "--V", "1", "--output", str(out)]) == 0
        assert out.read_text() == expected

    def test_dev_null(self):
        assert main(["extrema", *POISSON3, "--output", os.devnull]) == 0

    @pytest.mark.parametrize("target", ["directory", "below a file", "read-only file"])
    def test_unwritable_output_exits_two(self, target, tmp_path):
        if target == "read-only file" and os.geteuid() == 0:
            pytest.skip("root may write a read-only file")
        out = {"directory": tmp_path,
               "below a file": tmp_path / "file" / "law.json",
               "read-only file": tmp_path / "file"}[target]
        (tmp_path / "file").write_text("kept")
        (tmp_path / "file").chmod(0o444)
        proc = run_process(["extrema", *POISSON3, "--output", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("ERROR USAGE"), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o002)   # a mask that tells 0o666 from 0o644 and 0o600
        try:
            with open(tmp_path / "by-open", "w"):
                pass
            assert main(["extrema", *POISSON3, "--output", str(tmp_path / "by-cli")]) == 0
        finally:
            os.umask(old)
        assert (tmp_path / "by-cli").stat().st_mode == (tmp_path / "by-open").stat().st_mode


@pytest.mark.parametrize("flags", [["--seed", "-1", "--events", "10000"],
                                   ["--events", "1000000000000"],
                                   [*POISSON3[:-1], "0"]])   # V = 0, which the flags divide by
def test_domain_error_exits_one(flags):
    proc = run_process(["ssa", *POISSON3, *flags])
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR DOMAIN_ERROR")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["stat", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_readme_cli_block_runs(tmp_path):
    """Every ``megstat`` line of README's CLI block runs as written."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("megstat ")]
    assert {argv[0] for argv in lines} == set(TestConfigFile.EVERY_KEY)
    for i, argv in enumerate(lines):
        assert main([*argv, "--output", str(tmp_path / f"{i}.out")]) == 0, argv


def test_cli_import_leaves_scipy_unloaded():
    proc = run_process(["-c", "import sys, megstat.cli; print('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestStat:
    def test_csv_layout(self, capsys):
        rc, out, _ = run(["stat", "--epsilon", "3.63", "--g", "132.66",
                          "--format", "csv"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,probability"
        rows = [l for l in lines if not l.startswith("#") and l != lines[0]]
        assert [int(r.split(",")[0]) for r in rows] == [2, 4, 6]
        assert sum(float(r.split(",")[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)
        footer = {l.split("=")[0][2:] for l in lines if l.startswith("#")}
        assert {"mean", "second_moment", "poisson_deviation"} <= footer

    def test_json_payload(self, capsys):
        rc, out, _ = run(["stat", "--epsilon", "3.63", "--g", "132.66"], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["support"] == [2, 4, 6]
        assert sum(data["probs"]) == pytest.approx(1.0, abs=1e-9)
        assert data["provenance"]["tool"] == "megstat"
        assert data["moments"]["poisson_deviation"] > 0


class TestStationary:
    def test_non_normalizable_exit_code(self, capsys):
        rc, _, err = run(["stationary", "--k1A", "2", "--km1", "0", "--k2", "1",
                          "--km2AV", "0.5", "--V", "1"], capsys)
        assert rc == 1
        assert err.startswith("ERROR NON_NORMALIZABLE:")

    def test_support_too_large_exit_code(self, capsys):
        # negative binomial with mean ~1e6: normalizable, but past the support cap
        rc, out, err = run(["stationary", "--k1A", "0.999999", "--km1", "0", "--k2", "1",
                            "--km2AV", "1", "--V", "1"], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("ERROR SUPPORT_TOO_LARGE:")

    @pytest.mark.parametrize("volume", ["0", "-1", "nan", "inf"])
    def test_bad_volume_is_blamed_on_the_volume(self, volume, capsys):
        rc, out, err = run(["stationary", *POISSON3[:-2], f"--V={volume}"], capsys)
        assert rc == 1 and out == ""
        assert err == "ERROR DOMAIN_ERROR: volume must be finite and strictly positive\n"

    def test_subnormal_volume_is_blamed_on_the_volume(self, capsys):
        # V is finite and positive, but km2AV/V overflows
        rc, out, err = run(["stationary", *POISSON3[:-2], "--V=1e-320"], capsys)
        assert rc == 1 and out == ""
        assert err == "ERROR DOMAIN_ERROR: volume 1e-320 is too small: km2AV/V overflows a double\n"

    def test_ssa_refuses_what_stationary_refuses(self, capsys):
        flags = ["--k1A", "2", "--km1", "0", "--k2", "1", "--km2AV", "1", "--V", "1"]
        for mode in ("stationary", "ssa"):
            rc, out, err = run([mode, *flags], capsys)
            assert rc == 1 and out == ""
            assert err.startswith("ERROR NON_NORMALIZABLE:")

    def test_law_past_the_cap_is_refused_by_every_route(self, capsys):
        # the upper root, ~2e6, lies under the cap, but the certified cut lies past it
        flags = ["--k1A", "1", "--km1", "1", "--k2", "1", "--km2AV", "1.999e6", "--V", "1.999e6"]
        for argv in (["stationary", *flags], ["extrema", *flags],
                     ["ssa", *flags, "--events", "10000"]):
            rc, out, err = run(argv, capsys)
            assert rc == 1 and out == ""
            assert err.startswith("ERROR SUPPORT_TOO_LARGE:")

    def test_ssa_walks_a_law_whose_rates_overflow_past_it(self, capsys):
        # d(2) overflows a double, but the law lives on {0, 1} with P(1) ~1e-308
        flags = ["--k1A", "0", "--km1", "1", "--k2", "1e308", "--km2AV", "1", "--V", "10"]
        laws = []
        for argv in (["stationary", *flags], ["ssa", *flags, "--events", "10000"]):
            rc, out, err = run(argv, capsys)
            assert rc == 0 and err == ""
            laws.append(json.loads(out))
        for law in laws:
            assert law["support"] == [0, 1]
            assert law["probs"][1] == pytest.approx(1e-308, rel=1e-12, abs=0)

    def test_ssa_refuses_a_total_rate_that_overflows_between_finite_rates(self, capsys):
        # Poisson(1) with b(1) = d(1) = 1e308: b + d overflows at a state the walk holds
        flags = ["--k1A", "0", "--km1", "0", "--k2", "1e308", "--km2AV", "1e308", "--V", "1"]
        rc, out, err = run(["ssa", *flags, "--events", "10000"], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("ERROR DOMAIN_ERROR: the rates overflow a double")

    def test_frozen_chain_is_one_point_mass_in_both_modes(self, capsys):
        flags = [*POISSON3[:-4], "--km2AV", "0", "--V", "1", "--format", "csv"]
        outs = [run([mode, *flags], capsys) for mode in ("stationary", "ssa")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1].startswith("n,probability\n0,1.0\n")

    def test_emitted_distribution_resums_to_one(self, tmp_path, capsys):
        out_file = tmp_path / "d.csv"
        rc, _, _ = run(["stationary", "--k1A", "0", "--km1", "0", "--k2", "1",
                        "--km2AV", "3", "--V", "1", "--format", "csv",
                        "--output", str(out_file)], capsys)
        assert rc == 0
        rows = [l for l in out_file.read_text().splitlines()[1:]
                if not l.startswith("#")]
        assert sum(float(r.split(",")[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_long_law_csv_is_one_row_per_state(self, tmp_path, capsys):
        # Poisson(1500) spans several of the writer's row chunks
        flags = ["--k1A", "1500", "--km1", "1", "--k2", "1", "--km2AV", "1500", "--V", "1"]
        out_file = tmp_path / "d.csv"
        assert main(["stationary", *flags, "--format", "csv", "--output", str(out_file)]) == 0
        rc, out, _ = run(["stationary", *flags, "--format", "csv"], capsys)
        assert rc == 0
        assert out == out_file.read_text()
        rc, out, _ = run(["stationary", *flags, "--format", "json"], capsys)
        data = json.loads(out)
        assert len(data["support"]) > 2 * _CSV_ROWS
        rows = [f"{n},{p!r}" for n, p in zip(data["support"], data["probs"])]
        footers = [f"# {k}={v!r}" for k, v in sorted(data["moments"].items())]
        assert out_file.read_text() == "\n".join(["n,probability", *rows, *footers]) + "\n"

    def test_missing_parameter(self, capsys):
        rc, _, err = run(["stationary", "--k1A", "1"], capsys)
        assert rc == 2
        assert "km1" in err


@pytest.mark.parametrize("argv", [["stat", "--epsilon", "1e300", "--g", "1"],
                                  ["stat", "--epsilon", "1e18", "--g", "1"],
                                  ["calibrate", "--epsilon", "1e300", "--target-mean", "5"]])
def test_too_many_channels_exit_one(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("ERROR SUPPORT_TOO_LARGE:")


class TestCalibrate:
    def test_json_payload(self, capsys):
        rc, out, _ = run(["calibrate", "--epsilon", "3.63", "--target-mean", "4.2"], capsys)
        assert rc == 0
        data = json.loads(out)
        res = calibrate_coupling(3.63, 4.2)
        assert data["g"] == res.coupling
        assert data["achieved_mean"] == res.achieved_mean == pytest.approx(4.2, abs=1e-6)
        assert data["iterations"] == res.iterations
        assert data["bracket"] == list(res.bracket)

    def test_csv_rows(self, capsys):
        rc, out, _ = run(["calibrate", "--epsilon", "3.63", "--target-mean", "4.2",
                          "--format", "csv"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert list(rows) == ["g", "achieved_mean", "iterations"]
        res = calibrate_coupling(3.63, 4.2)
        assert float(rows["g"]) == res.coupling
        assert float(rows["achieved_mean"]) == res.achieved_mean
        assert int(rows["iterations"]) == res.iterations


class TestEvolve:
    def test_snapshots_match_the_library(self, capsys):
        rc, out, _ = run(["evolve", *POISSON3, "--t-grid", "0.5,1,5", "--n-max", "40"], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["t_grid"] == [0.5, 1.0, 5.0]
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=3, a=1, volume=1)
        start = DiscreteDistribution.from_probs([0], [1.0])
        laws = transient_evolve(kp, start, [0.5, 1.0, 5.0], 40)
        assert len(data["snapshots"]) == 3
        for snap, law in zip(data["snapshots"], laws):
            assert snap["support"] == list(range(41))
            assert sum(snap["probs"]) == pytest.approx(1.0, abs=1e-12)
            assert snap["probs"] == law.probs.tolist()

    @pytest.mark.parametrize("flags, code", [
        (["--n-max", "40", "--t-grid", "1e300"], "DOMAIN_ERROR"),
        (["--n-max", "1000000000000", "--t-grid", "1"], "SUPPORT_TOO_LARGE"),
    ], ids=["far-horizon", "huge-lattice"])
    def test_too_much_work_exits_one_at_once(self, flags, code, capsys, no_lattice):
        # without the refusal: a 7 TiB lattice, or a step loop that never ends
        start = time.perf_counter()
        rc, out, err = run(["evolve", *POISSON3, *flags], capsys)
        assert time.perf_counter() - start < 0.1
        assert rc == 1 and out == ""
        assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1


class TestExtrema:
    def test_bimodal_report(self, capsys):
        rc, out, _ = run(["extrema", "--k1A", "5", "--km1", "0.3", "--k2", "2",
                          "--km2AV", "0.1", "--V", "1"], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["integer_maxima"] == [0, 9]
        assert data["is_bimodal"] is True
        assert data["discrepancy_flag"] is True

    def test_root_past_every_double_exits_one(self):
        # the square of the linear coefficient, ~1e320, would overflow a double
        proc = run_process(["extrema", "--k1A", "1e160", "--km1", "1", "--k2", "1",
                            "--km2AV", "1", "--V", "1"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("ERROR SUPPORT_TOO_LARGE:") and "Traceback" not in proc.stderr

    def test_roots_are_valid_json(self, capsys):
        # a root that overflows a double is left out, never written as NaN
        rc, out, _ = run(["extrema", "--k1A", "0", "--km1", "1", "--k2", "1e308",
                          "--km2AV", "1", "--V", "10"], capsys)
        assert rc == 0
        data = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in the JSON"))
        assert data["continuous_roots"] == [-1.0] and data["alt_closed_form_roots"] == [1.0]


class TestConfigFile:
    def test_config_provides_values(self, tmp_path, capsys):
        # a mode entry naming the mode run is accepted, and a null value skipped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "stat", "epsilon": 3.63, "g": 132.66, "format": None}))
        rc, out, _ = run(["stat", "--config", str(cfg)], capsys)
        assert rc == 0
        assert json.loads(out)["params"]["epsilon"] == 3.63

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 3.63, "g": 132.66}))
        rc, out, _ = run(["stat", "--config", str(cfg), "--epsilon", "4.9"], capsys)
        assert rc == 0
        assert json.loads(out)["params"]["epsilon"] == 4.9

    # every flag of each mode, as a config key
    EVERY_KEY = {
        "stat": {"epsilon": 3.63, "g": 132.66, "format": "csv"},
        "calibrate": {"epsilon": 3.63, "target_mean": 4.2, "format": "csv"},
        "stationary": {"k1A": 5, "km1": 0.3, "k2": 2, "km2AV": 0.1, "V": 1,
                       "tail_tol": 1e-10, "format": "csv"},
        "extrema": {"k1A": 5, "km1": 0.3, "k2": 2, "km2AV": 0.1, "V": 1},
        "evolve": {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": 1,
                   "t_grid": "0.5,1", "n_max": 40, "n_init": 2},
        "ssa": {"k1A": 0, "km1": 0, "k2": 1, "km2AV": 3, "V": 1,
                "seed": 5, "events": 10000, "burn_in": 0.2, "format": "csv"},
        "reproduce": {"case": "pbse-3.63"},
    }

    @pytest.mark.parametrize("mode", sorted(EVERY_KEY))
    def test_every_flag_is_a_config_key(self, mode, tmp_path):
        keys = self.EVERY_KEY[mode]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**keys, "output": str(tmp_path / "from-config")}))
        assert main([mode, "--config", str(cfg)]) == 0
        assert main([mode, *as_flags(keys), "--output", str(tmp_path / "from-flags")]) == 0
        from_config = (tmp_path / "from-config").read_bytes()
        assert from_config and from_config == (tmp_path / "from-flags").read_bytes()

    @pytest.mark.parametrize("mode", ["extrema", "evolve", "reproduce"])
    def test_json_only_modes_take_no_format(self, mode, tmp_path, capsys):
        keys = self.EVERY_KEY[mode]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**keys, "format": "json"}))
        for argv in ([mode, *as_flags(keys), "--format", "json"], [mode, "--config", str(cfg)]):
            rc, _, err = run(argv, capsys)
            assert rc == 2
            assert err.startswith("ERROR USAGE") and "--format" in err

    @pytest.mark.parametrize("text, message", [
        ('{"mode": "calibrate", "epsilon": 3.63, "g": 1}', "conflicts"),
        ('{"config": "other.json", "epsilon": 3.63, "g": 1}', "--config"),
        ("[3.63, 1]", "JSON object"),
        ('{"epsilon": 3.63,', "cannot read config"),
    ])
    def test_rejected_config(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc, _, err = run(["stat", "--config", str(cfg)], capsys)
        assert rc == 2
        assert err.startswith("ERROR USAGE") and message in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 3.63, "g": 1.0, "bogus": 1}))
        rc, _, err = run(["stat", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "bogus" in err


class TestReproduce:
    @pytest.mark.parametrize("case", ["pbse-3.63", "pbse-4.9"])
    def test_cases_pass(self, case, capsys):
        rc, out, _ = run(["reproduce", "--case", case], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all(data["checks"].values())
        assert data["checks"]["sub_poissonian"]


def test_one_parser_serves_every_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k1A": 5, "km1": 0.3, "k2": 2, "km2AV": 0.1, "V": 1}))
    first = ["extrema", "--config", str(cfg), "--output", str(tmp_path / "first.json")]
    assert main(first) == 0
    law = tmp_path / "law.csv"
    assert main(["stationary", "--k1A", "0", "--km1", "0", "--k2", "1", "--km2AV", "3",
                 "--V", "1", "--format", "csv", "--output", str(law)]) == 0
    assert law.read_text().startswith("n,probability\n0,")
    # argparse names the missing required flags before the unknown one
    rc, _, err = run(["extrema", "--bogus", "1"], capsys)
    assert rc == 2 and err.startswith("ERROR USAGE")
    assert main([*first[:-1], str(tmp_path / "again.json")]) == 0
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()
    assert build_parser() is build_parser()


class TestGoldenStability:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"run{i}.json"
            rc, _, _ = run(["ssa", "--k1A", "0", "--km1", "0", "--k2", "1",
                            "--km2AV", "3", "--V", "1", "--seed", "17",
                            "--events", "20000", "--output", str(p)], capsys)
            assert rc == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_reproduce_byte_stable(self, tmp_path, capsys):
        blobs = []
        for i in range(2):
            p = tmp_path / f"rep{i}.json"
            rc, _, _ = run(["reproduce", "--case", "pbse-3.63",
                            "--output", str(p)], capsys)
            assert rc == 0
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]
