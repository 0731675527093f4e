"""The one ``python -m repro`` parser tree: dispatch and exit codes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def _exit_code(argv):
    """``main``'s status; argparse reports a malformed argv by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


def test_no_arguments_is_a_usage_error(capsys):
    assert _exit_code([]) == 2
    err = capsys.readouterr().err
    assert "usage: python -m repro" in err
    assert "error:" in err


# ``bench`` is gone: load is measured by the benchmark ledger.
@pytest.mark.parametrize("command", ["frobnicate", "bench"])
def test_unknown_command_is_a_usage_error(command, capsys):
    assert _exit_code([command]) == 2
    err = capsys.readouterr().err
    assert f"invalid choice: {command!r}" in err
    assert "usage: python -m repro" in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert _exit_code(argv) == 0
    out = capsys.readouterr().out
    for command in ("campaign", "distrib", "serve"):
        assert command in out
    assert "bench" not in out


def test_campaign_dispatches_to_the_campaign_verbs(tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    assert main(["campaign", "run", "--store", store,
                 "--program-set", "increments", "--max-schedules", "40",
                 "--campaign", "entry"]) == 0
    assert "schedules executed this run" in capsys.readouterr().out
    assert main(["campaign", "list", "--store", store]) == 0
    assert "entry" in capsys.readouterr().out


def test_campaign_usage_error_exits_two(capsys):
    # argparse exits 2 on bad flags, naming the error.
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
    ["distrib", "run", "--program-set", "increments", "--max-attempts", "0"],
    ["distrib", "run", "--program-set", "increments", "--lease-duration", "-1"],
    ["distrib", "run", "--program-set", "increments", "--deadline", "-1"],
    ["distrib", "run", "--program-set", "increments", "--lease-duration", "nan"],
    ["campaign", "run", "--program-set", "increments", "--throttle-ms", "nan"],
    ["campaign", "run", "--program-set", "increments",
     "--levels", "SERIALIZABLE,SERIALIZABLE"],
    ["campaign", "run", "--program-set", "increments", "--set", "bogus=1"],
    ["campaign", "run", "--program-set", "increments", "--set", "transactions=0"],
    ["campaign", "run", "--program-set", "increments", "--mode", "exhaustive",
     "--max-schedules", "1"],
    ["distrib", "run", "--program-set", "increments", "--mode", "exhaustive",
     "--max-schedules", "1"],
])
def test_bad_flag_value_is_a_clean_error_before_any_store_write(argv, tmp_path,
                                                                capsys):
    store = tmp_path / "c.sqlite"
    assert _exit_code(argv + ["--store", str(store)]) == 2
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


def test_distrib_takes_auto_workers_like_campaign():
    for verb in (["campaign", "run"], ["distrib", "run"], ["distrib", "verify"]):
        args = build_parser().parse_args(
            verb + ["--store", "s", "--program-set", "increments",
                    "--workers", "auto"])
        assert args.workers == "auto"


def test_campaign_loads_no_distrib_service_or_asyncio_module(tmp_path):
    """Each verb imports its subsystem in its handler, so a campaign pays
    nothing for the others at start-up."""
    store = str(tmp_path / "c.sqlite")
    runs = [["campaign", "run", "--store", store, "--program-set",
             "increments", "--max-schedules", "4", "--campaign", "c"],
            ["campaign", "inspect", "--store", store, "--campaign", "c",
             "--report"]]
    probe = (
        "import runpy, sys\n"
        f"for argv in {runs!r}:\n"
        "    sys.argv = ['repro', *argv]\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0, exit.code\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'asyncio'\n"
        "             or name.startswith(('repro.distrib', 'repro.service'))))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    finished = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.splitlines()[-1] == "[]"
    assert "schedules executed this run" in finished.stdout
