"""The unified ``python -m repro`` entry point: dispatch and exit codes."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "usage: python -m repro" in capsys.readouterr().err


# ``bench`` is gone: load is measured by the benchmark ledger.
@pytest.mark.parametrize("command", ["frobnicate", "bench"])
def test_unknown_command_is_a_usage_error(command, capsys):
    assert main([command]) == 2
    err = capsys.readouterr().err
    assert f"unknown command {command!r}" in err
    assert "usage: python -m repro" in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    for command in ("campaign", "distrib", "serve"):
        assert command in out
    assert "bench" not in out


def test_campaign_dispatches_to_persist_cli(tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    assert main(["campaign", "run", "--store", store,
                 "--program-set", "increments", "--max-schedules", "40",
                 "--campaign", "entry"]) == 0
    assert "schedules executed this run" in capsys.readouterr().out
    assert main(["campaign", "list", "--store", store]) == 0
    assert "entry" in capsys.readouterr().out


def test_campaign_usage_error_exits_two(capsys):
    # argparse exits 2 on bad flags; the dispatcher must pass that through.
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "run", "--no-such-flag"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "--program-set", "increments", "--chunk-size", "0"],
    ["campaign", "run", "--program-set", "increments", "--max-schedules", "-5"],
    ["campaign", "run", "--program-set", "nope"],
    ["campaign", "run", "--program-set", "increments", "--levels", "BOGUS"],
    ["distrib", "run", "--program-set", "increments", "--workers", "0"],
    ["campaign", "run", "--program-set", "increments", "--set", "transactions"],
    ["distrib", "run", "--program-set", "increments", "--faults", "bogus"],
    ["distrib", "run", "--program-set", "increments",
     "--faults", "kill:worker=0", "--fault-seed", "1"],
    ["campaign", "inspect"],
])
def test_bad_flag_value_is_a_clean_error_before_any_store_write(argv, tmp_path,
                                                                capsys):
    store = tmp_path / "c.sqlite"
    assert main(argv + ["--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not store.exists()       # no campaign row, not even an empty file


@pytest.mark.parametrize("command", ["resume", "inspect"])
def test_unknown_campaign_is_a_clean_error(command, tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    assert main(["campaign", "run", "--store", store,
                 "--program-set", "increments", "--max-schedules", "40",
                 "--campaign", "entry"]) == 0
    capsys.readouterr()
    assert main(["campaign", command, "--store", store,
                 "--campaign", "ghost"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown campaign 'ghost'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["campaign", "distrib"])
def test_subcommand_help_names_the_unified_program(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: python -m repro {command} ")


@pytest.mark.parametrize("command", ["campaign", "distrib"])
def test_subcommand_usage_errors_name_the_unified_program(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "run", "--no-such-flag"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: python -m repro {command} run " in err
    assert f"python -m repro {command} run: error:" in err
    assert ".cli" not in err
