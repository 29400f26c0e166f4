import csv

import pytest

from aoisim.checks import CheckResult
from aoisim.cli import main

TINY_CONFIG = """
scenario = cli_demo
policies = max_weight, idealized_fresh_csma
n_sources = 3
horizon = 200
seed = 7
"""


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_preset_command_writes_csv(tmp_path):
    out = tmp_path / "fig3.csv"
    code = main(["preset", "fig3_symmetric", "--n-values", "3",
                 "--horizon", "200", "--output", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 4  # one point x four policies
    assert {r["policy"] for r in rows} == {
        "max_weight", "stationary_randomized", "idealized_fresh_csma",
        "near_realistic_fresh_csma"}


def test_preset_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["preset", "fig7_B_collisions", "--horizon", "500", "--seed", "5"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert rows[0]["scenario"] == "cli_demo"
    assert rows[0]["seed"] == "7"


def test_simulate_horizon_and_seed_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--seed", "123",
                 "--horizon", "50", "--output", str(out)]) == 0
    assert _read_rows(out)[0]["seed"] == "123"


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for line in ("warp = 9", "delta_scale = 0.01"):
        cfg.write_text(f"policies = max_weight\nn_sources = 2\n{line}")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err


def test_simulate_missing_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_simulate_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error: cannot read --config" in capsys.readouterr().err


def test_simulate_malformed_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("policies = max_weight\nn_sources = 2\nweights = 1, x")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "line 3: weights" in capsys.readouterr().err


def test_unwritable_output_and_trace_exit_1(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("policies = max_weight\nn_sources = 2\nhorizon = 20")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["simulate", "--config", str(cfg),
                 "--output", str(blocker / "out.csv")]) == 1
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(blocker / "t.txt"),
                 "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.count("error: ") == 2


def test_trace_creates_missing_directory(tmp_path):
    # like --output, --trace creates the directories its file needs
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("policies = max_weight\nn_sources = 2\nhorizon = 20")
    trace = tmp_path / "no_dir" / "deeper" / "t.txt"
    assert main(["simulate", "--config", str(cfg), "--trace", str(trace),
                 "--output", str(tmp_path / "out.csv")]) == 0
    assert len(trace.read_text().splitlines()) == 20


def test_simulate_trace(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = t\npolicies = near_realistic_fresh_csma\n"
                   "n_sources = 3\nhorizon = 25\nhorizon_unit = frames\nseed = 3")
    trace = tmp_path / "trace.txt"
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--trace", str(trace),
                 "--output", str(out)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 25
    assert lines[-1].startswith("frame=25 ")


def test_trace_requires_single_policy(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(tmp_path / "t.txt")]) == 2


def _sweep(tmp_path, param, values, base=TINY_CONFIG):
    """A config file: base with a sweep of param over values."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{base}\nsweep_param = {param}\nsweep_values = {values}")
    return cfg


def test_sweep_command(tmp_path):
    # a config's sweep keys are the one way to run a sweep
    cfg = _sweep(tmp_path, "beta", "1.4, 1.2",
                 "scenario = s\npolicies = near_realistic_fresh_csma\n"
                 "n_sources = 3\nhorizon = 300\nhorizon_unit = frames\n"
                 "seed = 3")
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    rows = _read_rows(out)
    assert [r["sweep_value"] for r in rows] == ["1.2", "1.4"]
    assert {r["scenario"] for r in rows} == {"s"}


def _exit_code(argv):
    """main's return code, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_preset_malformed_n_values_exits_2(tmp_path):
    out = tmp_path / "out.csv"
    assert _exit_code(["preset", "fig3_symmetric", "--n-values", "3,x",
                       "--output", str(out)]) == 2
    assert not out.exists()


def test_preset_n_values_without_an_n_sweep_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["preset", "fig6_beta_collisions", "--n-values", "5",
                 "--output", str(out)]) == 2
    assert "n_values applies only to N sweeps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "{cfg}"],
    ["preset", "fig3_symmetric", "--n-values", "2", "--horizon", "20"]])
def test_trials_is_not_an_alias_of_replications(command, tmp_path):
    # --trials means random states, under verify only
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out.csv"
    argv = [arg.format(cfg=cfg) for arg in command]
    assert _exit_code(argv + ["--trials", "3", "--output", str(out)]) == 2
    assert not out.exists()


def test_sweep_malformed_values_exits_2(tmp_path, capsys):
    cfg = _sweep(tmp_path, "beta", "1.1, y")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert ": sweep_values: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, values", [
    ("n_sources", "2.7,3"),
    ("b_offset", "5.9"),
])
def test_sweep_fractional_integer_values_exit_2(param, values, tmp_path,
                                                capsys):
    cfg = _sweep(tmp_path, param, values)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert "sweep value must be a whole number" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_b_offset_past_the_domain_exits_2(tmp_path, capsys):
    cfg = _sweep(tmp_path, "b_offset", "9007199254740995")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert "2**52" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_config_reports_missing_policies(tmp_path, capsys):
    # a config that holds only the sweep keys
    cfg = _sweep(tmp_path, "beta", "1.2", base="")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config needs a 'policies' key" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("AOISIM_OUTPUT_DIR", str(tmp_path))
    assert main(["preset", "fig3_symmetric", "--n-values", "2",
                 "--horizon", "100"]) == 0
    assert (tmp_path / "fig3_symmetric.csv").exists()


def test_verify_command_passes(capsys):
    assert main(["verify", "thm1", "--trials", "200"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_command_samples_flag():
    assert main(["verify", "thm3", "--samples", "5000"]) == 0


def test_verify_command_trials_flag():
    assert main(["verify", "lemma1", "--trials", "2", "--samples", "20000"]) == 0


def test_verify_command_rejects_flag_the_check_lacks(capsys):
    # thm3 sweeps a fixed grid: it takes --samples but not --trials
    assert main(["verify", "thm3", "--trials", "2"]) == 2
    assert "does not take --trials" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["thm1", "lemma1", "lemma2", "thm4", "thm5"])
def test_verify_command_rejects_zero_trials(check, capsys):
    assert main(["verify", check, "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["lemma1", "thm3", "thm4"])
def test_verify_command_rejects_zero_samples(check, capsys):
    assert main(["verify", check, "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_verify_command_negative_seed_exits_2(capsys):
    assert main(["verify", "lemma2", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--seed", "-5",
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--horizon", "--replications"])
def test_preset_zero_is_rejected_not_defaulted(flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["preset", "fig7_B_collisions", flag, "0",
                 "--output", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_command_failure_exits_1(monkeypatch, capsys):
    import aoisim.cli as cli_mod

    def failing(**kwargs):
        return CheckResult(name="stub", ok=False, worst_margin=-1.0,
                           trials=1, detail="forced")

    monkeypatch.setitem(cli_mod.CHECKS, "thm1", failing)
    assert main(["verify", "thm1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm99"])
    assert exc.value.code == 2
    # simulate, preset and verify are the commands; sweeps run from a config
    capsys.readouterr()
    assert _exit_code(["sweep", "--config", "exp.cfg"]) == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
