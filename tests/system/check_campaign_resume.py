"""SIGKILL a live campaign, resume it, and diff the coverage byte-for-byte.

The ``system`` CI job runs this script (pytest does not collect it).  It stages the tentpole
contract of the persistent campaign store end to end, with a real process
and a real signal rather than an in-process store proxy:

1. **Control** — run a campaign to completion through the CLI into one
   SQLite store.
2. **Victim** — start the identical campaign against a second store as a
   subprocess, throttled so chunk commits are slow enough to aim at, poll
   the store's ``cursors`` table from outside until some chunks are
   durable, and deliver SIGKILL while the campaign is mid-stream.
3. **Resume** — re-run the campaign through ``resume``; it must load the
   durable prefix and execute strictly fewer schedules than the control.
4. **Diff** — rebuild both coverage reports from stored rows only; the
   renders must be byte-identical.

The store files are left behind in ``--dir`` so CI can upload them as an
artifact (they are plain SQLite — any client can autopsy a failure).

Usage: python tests/system/check_campaign_resume.py [--dir OUTDIR]
"""

from __future__ import annotations

import argparse
import os
import re
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

CAMPAIGN = "ci"
#: One campaign config, shared by control and victim: identical configs are
#: what makes the byte-for-byte diff meaningful.
RUN_ARGS = ["--program-set", "increments", "--max-schedules", "200",
            "--chunk-size", "8", "--seed", "0", "--campaign", CAMPAIGN]
#: ms of sleep per chunk commit in the victim; widens the kill window (the
#: increments space is 20 schedules per level, so the campaign commits 15
#: chunks — a sub-second window at the first throttle).  Doubled on each
#: retry for machines where the poll loop is too slow to land inside it.
THROTTLE_MS = 40
KILL_ATTEMPTS = 4
EXECUTED_LINE = re.compile(r"campaign (\S+): (\d+) schedules executed this run")


def _cli(*args: str, timeout: float = 300.0) -> Tuple[int, str]:
    command = [sys.executable, "-m", "repro", "campaign", *args]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout)
    output = proc.stdout + proc.stderr
    return proc.returncode, output


def _executed(output: str) -> int:
    match = EXECUTED_LINE.search(output)
    if match is None:
        raise SystemExit(f"CLI output has no executed-schedules line:\n{output}")
    return int(match.group(2))


def _durable_chunks(store: Path) -> Tuple[int, int]:
    """(committed chunks, completed scopes) read from outside the process."""
    if not store.exists():
        return 0, 0
    try:
        conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True, timeout=1.0)
        try:
            row = conn.execute(
                "SELECT COALESCE(SUM(cursor), 0), "
                "       COALESCE(SUM(complete), 0) FROM cursors").fetchone()
            return int(row[0]), int(row[1])
        finally:
            conn.close()
    except sqlite3.OperationalError:
        return 0, 0  # schema not created yet, or WAL mid-checkpoint


def _kill_mid_stream(store: Path, total_scopes: int) -> bool:
    """Start the victim, SIGKILL it once chunks are durable; True if partial."""
    throttle = THROTTLE_MS
    for attempt in range(KILL_ATTEMPTS):
        if store.exists():
            for suffix in ("", "-wal", "-shm"):
                path = Path(str(store) + suffix)
                if path.exists():
                    path.unlink()
        command = [sys.executable, "-m", "repro", "campaign", "run",
                   "--store", str(store), *RUN_ARGS,
                   "--throttle-ms", str(throttle)]
        victim = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and victim.poll() is None:
                chunks, _ = _durable_chunks(store)
                if chunks >= 3:
                    break
                time.sleep(0.05)
            victim.kill()  # SIGKILL — no atexit, no finally blocks
            victim.wait(timeout=30.0)
        finally:
            if victim.poll() is None:
                victim.kill()
        chunks, completed = _durable_chunks(store)
        if chunks > 0 and completed < total_scopes:
            print(f"victim killed mid-stream on attempt {attempt + 1}: "
                  f"{chunks} chunks durable, {completed}/{total_scopes} "
                  f"scopes complete (throttle {throttle}ms)")
            return True
        print(f"attempt {attempt + 1} missed the window ({chunks} chunks, "
              f"{completed} scopes complete) — retrying at {throttle * 2}ms")
        throttle *= 2
    return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="campaign-resume-artifacts",
                        help="directory for the store files (kept for upload)")
    args = parser.parse_args(argv)
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    control_store = outdir / "control.sqlite"
    victim_store = outdir / "victim.sqlite"
    for store in (control_store, victim_store):
        if store.exists():
            store.unlink()

    code, output = _cli("run", "--store", str(control_store), *RUN_ARGS)
    if code != 0:
        print(output)
        print("control campaign failed")
        return 1
    control_executed = _executed(output)
    _, control_scopes = _durable_chunks(control_store)
    print(f"control campaign complete: {control_executed} schedules executed, "
          f"{control_scopes} scopes")

    if not _kill_mid_stream(victim_store, control_scopes):
        print("could not land a SIGKILL mid-campaign — the commit throttle "
              "never made the window wide enough on this machine")
        return 1

    code, output = _cli("resume", "--store", str(victim_store),
                        "--campaign", CAMPAIGN)
    if code != 0:
        print(output)
        print("resume failed")
        return 1
    resumed_executed = _executed(output)
    print(f"resume executed {resumed_executed} schedules "
          f"(control executed {control_executed})")

    failures = []
    if not resumed_executed < control_executed:
        failures.append(
            f"resume executed {resumed_executed} schedules — not fewer than "
            f"the control's {control_executed}; the durable prefix was not "
            f"reused")

    # The decisive diff: both coverage reports rebuilt from stored rows only.
    from repro.analysis.coverage import coverage_report_from_store
    from repro.persist import SqliteStore

    renders = {}
    for name, path in (("control", control_store), ("victim", victim_store)):
        store = SqliteStore(path)
        try:
            renders[name] = coverage_report_from_store(store, CAMPAIGN).render()
        finally:
            store.close()
    if renders["control"] != renders["victim"]:
        failures.append("resumed coverage report differs from the control")
        print("--- control ---")
        print(renders["control"])
        print("--- victim (resumed) ---")
        print(renders["victim"])
    else:
        print("coverage reports are byte-identical:")
        print(renders["victim"])

    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"PASS — store files kept under {outdir}{os.sep} for the artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
