"""The campaign CLI: run, resume, inspect, list — against a real SQLite file."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.persist import SqliteStore


def main(argv):
    return cli_main(["campaign", *argv])


RUN = ["run", "--program-set", "increments", "--max-schedules", "120",
       "--chunk-size", "16", "--campaign", "demo"]


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


def test_run_completes_and_prints_report(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    out = capsys.readouterr().out
    assert "Isolation level" in out      # the coverage report table
    assert "schedules executed this run" in out

    store = SqliteStore(store_path)
    progress = store.scope_progress("demo")
    assert progress and all(state.complete for state in progress.values())
    store.close()


def test_rerun_executes_nothing(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    assert main(RUN + ["--store", store_path]) == 0
    assert "0 schedules executed this run" in capsys.readouterr().out


def test_resume_needs_no_workload_flags(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    assert main(["resume", "--store", store_path, "--campaign", "demo"]) == 0
    assert "0 schedules executed this run" in capsys.readouterr().out


def test_resume_unknown_campaign_fails(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    assert main(["resume", "--store", store_path, "--campaign", "ghost"]) == 2
    assert "error: unknown campaign 'ghost'" in capsys.readouterr().err


def test_inspect_unknown_campaign_fails(store_path, capsys):
    """Text and --report inspect refuse a campaign the store lacks, as --json
    does, instead of printing "not found" (and then a KeyError traceback)."""
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    for extra in ([], ["--report"]):
        assert main(["inspect", "--store", store_path, "--campaign", "ghost",
                     *extra]) == 2
        assert "error: unknown campaign 'ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"kind": "service"},
                                    {"kind": "table4-explored"}])
def test_resume_and_report_refuse_a_non_exploration_campaign(store_path,
                                                             config, capsys):
    """A ``serve --store`` campaign, or an earlier build's Table 4 campaign,
    names no program set: resume and ``inspect --report`` say so and exit 2,
    not a KeyError traceback."""
    store = SqliteStore(store_path)
    store.open_campaign("other", config)
    store.close()
    for argv in (["resume", "--store", store_path, "--campaign", "other"],
                 ["inspect", "--store", store_path, "--campaign", "other",
                  "--report"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: campaign 'other' is " in captured.err
        assert captured.out == ""
    assert main(["inspect", "--store", store_path, "--campaign", "other"]) == 0


def test_inspect_and_list(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()

    assert main(["inspect", "--store", store_path, "--campaign", "demo"]) == 0
    out = capsys.readouterr().out
    assert "campaign demo" in out
    assert "complete" in out

    assert main(["inspect", "--store", store_path, "--campaign", "demo",
                 "--report"]) == 0
    assert "Isolation level" in capsys.readouterr().out

    assert main(["list", "--store", store_path]) == 0
    assert "demo: 5/5 scopes complete" in capsys.readouterr().out


def test_program_set_params_accept_json_values(store_path, capsys):
    argv = ["run", "--store", store_path, "--program-set", "increments",
            "--set", "transactions=3", "--max-schedules", "60",
            "--chunk-size", "16", "--campaign", "p3"]
    assert main(argv) == 0
    store = SqliteStore(store_path)
    config = store.get_campaign("p3").config
    assert config["spec_params"] == [["transactions", 3]]  # int, not "3"
    store.close()


def test_throttle_changes_no_records(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    plain = capsys.readouterr().out
    throttled_path = store_path + ".throttled"
    assert main(RUN + ["--store", throttled_path, "--throttle-ms", "1"]) == 0
    throttled = capsys.readouterr().out
    assert plain == throttled


def test_missing_store_file_fails_cleanly(store_path, capsys):
    """resume/inspect/list on a nonexistent path must not silently create
    an empty database — and must exit nonzero with the real problem."""
    for argv in (["resume", "--store", store_path, "--campaign", "demo"],
                 ["inspect", "--store", store_path],
                 ["list", "--store", store_path]):
        assert main(argv) == 2
        assert "error: store file not found" in capsys.readouterr().err
    import os
    assert not os.path.exists(store_path)       # no empty file left behind


def test_config_mismatch_exits_nonzero_without_traceback(store_path, capsys):
    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    clash = ["run", "--program-set", "increments", "--max-schedules", "99",
             "--chunk-size", "16", "--campaign", "demo",
             "--store", store_path]
    assert main(clash) == 2                     # clean exit, not a traceback
    err = capsys.readouterr().err
    assert "error:" in err and "different config" in err


def test_inspect_json_is_machine_readable(store_path, capsys):
    import json

    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    assert main(["inspect", "--store", store_path, "--campaign", "demo",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["campaign_id"] == "demo"
    assert len(payload["scopes"]) == 5
    assert all(scope["complete"] for scope in payload["scopes"])

    # Without --campaign: one entry per campaign in the store.
    assert main(["inspect", "--store", store_path, "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [entry["campaign_id"] for entry in listing] == ["demo"]

    assert main(["inspect", "--store", store_path, "--campaign", "ghost",
                 "--json"]) == 2
    assert "error: unknown campaign 'ghost'" in capsys.readouterr().err


def test_inspect_reports_lease_and_quarantine_state(store_path, capsys):
    """ISSUE 10 satellite: inspect surfaces the durable work-queue state.

    A campaign stalled on poisoned chunks used to summarize exactly like a
    healthy one; both the JSON and text summaries must now carry per-state
    lease counts and the quarantined chunk list.
    """
    import json

    from repro.persist.records import LeaseRecord

    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()

    store = SqliteStore(store_path)
    try:
        store.put_lease("demo", LeaseRecord(
            scope="READ COMMITTED", chunk_index=0, state="done", token=3,
            owner="worker-0", attempts=1))
        store.put_lease("demo", LeaseRecord(
            scope="READ COMMITTED", chunk_index=1, state="poisoned", token=5,
            owner=None, attempts=4))
        store.put_lease("demo", LeaseRecord(
            scope="SERIALIZABLE", chunk_index=0, state="leased", token=6,
            owner="worker-1", attempts=1))
    finally:
        store.close()

    assert main(["inspect", "--store", store_path, "--campaign", "demo",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leases"]["counts"] == {
        "pending": 0, "leased": 1, "done": 1, "poisoned": 1}
    assert payload["leases"]["quarantined"] == [
        {"scope": "READ COMMITTED", "chunk_index": 1, "attempts": 4}]

    assert main(["inspect", "--store", store_path, "--campaign", "demo"]) == 0
    out = capsys.readouterr().out
    assert "chunk leases: 0 pending, 1 leased, 1 done, 1 poisoned" in out
    assert "quarantined: [READ COMMITTED] chunk #1 after 4 attempts" in out


def test_inspect_without_leases_omits_the_section(store_path, capsys):
    import json

    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()
    assert main(["inspect", "--store", store_path, "--campaign", "demo",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "leases" not in payload

    assert main(["inspect", "--store", store_path, "--campaign", "demo"]) == 0
    assert "chunk leases" not in capsys.readouterr().out


def test_inspect_counts_service_certificates(store_path, capsys):
    import json

    from repro.persist.records import CertificateRecord

    assert main(RUN + ["--store", store_path]) == 0
    capsys.readouterr()

    store = SqliteStore(store_path)
    try:
        store.save_certificates("demo", [
            CertificateRecord(stream="client-0", seq=0, code="P1",
                              txns=(1, 2), items=("x",), op_index=3,
                              witness="w1[x] r2[x]"),
        ])
    finally:
        store.close()

    assert main(["inspect", "--store", store_path, "--campaign", "demo",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificates"] == 1

    assert main(["inspect", "--store", store_path, "--campaign", "demo"]) == 0
    assert "anomaly certificates: 1" in capsys.readouterr().out
