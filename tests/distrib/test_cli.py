"""The distrib CLI: exit codes, fault flags, and the verify byte-diff."""

from __future__ import annotations

import json

import pytest

from repro.distrib.cli import main

RUN = ["--program-set", "increments", "--max-schedules", "96",
       "--chunk-size", "16", "--seed", "3", "--campaign", "demo",
       "--workers", "2", "--lease-duration", "0.5",
       "--heartbeat-interval", "0.1", "--deadline", "90"]


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


def test_run_completes_and_prints_report(store_path, capsys):
    assert main(["run", "--store", store_path, "--stats"] + RUN) == 0
    out = capsys.readouterr().out
    assert "campaign demo: complete" in out
    assert "SERIALIZABLE" in out                  # the coverage report
    stats = json.loads(out[out.index("{"):out.rindex("}") + 1])
    assert stats["store_write_transactions"] >= 1


def test_run_under_kill_fault_still_exits_zero(store_path, capsys):
    argv = (["run", "--store", store_path,
             "--faults", "kill:worker=0:ordinal=1"] + RUN)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "workers respawned: 1" in out


def test_verify_reports_byte_identity(store_path, capsys):
    argv = (["verify", "--store", store_path, "--fault-seed", "7"] + RUN)
    assert main(argv) == 0
    assert "byte-identical to serial" in capsys.readouterr().out


def test_fault_flags_are_mutually_exclusive(store_path):
    argv = (["run", "--store", store_path, "--faults", "kill:worker=0",
             "--fault-seed", "1"] + RUN)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert "mutually exclusive" in str(excinfo.value)


def test_bad_fault_spec_fails_before_any_work(store_path, tmp_path):
    import os
    argv = (["run", "--store", store_path, "--faults", "meteor:worker=0"]
            + RUN)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert "bad --faults" in str(excinfo.value)
    assert not os.path.exists(store_path)


def test_batch_kernel_off_runs_every_row_stepwise(store_path, capsys):
    """The flag takes the executor's own modes and reaches the workers."""
    argv = ["run", "--store", store_path, "--stats", "--batch-kernel", "off"]
    assert main(argv + RUN) == 0
    out = capsys.readouterr().out
    assert "campaign demo: complete" in out
    stats = json.loads(out[out.index("{"):out.rindex("}") + 1])
    assert stats["worker_batch_schedules"] == 0
    assert stats["worker_trie_slots_executed"] > 0


def test_unknown_batch_kernel_mode_exits_2_before_any_work(store_path, capsys):
    import os
    argv = ["run", "--store", store_path, "--batch-kernel", "numpy"] + RUN
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--batch-kernel" in capsys.readouterr().err
    assert not os.path.exists(store_path)


def test_config_mismatch_is_a_clean_error(store_path, capsys):
    assert main(["run", "--store", store_path] + RUN) == 0
    capsys.readouterr()
    clash = ["run", "--store", store_path, "--program-set", "increments",
             "--max-schedules", "48", "--chunk-size", "16",
             "--campaign", "demo"]
    assert main(clash) == 2
    err = capsys.readouterr().err
    assert "error:" in err
