"""The six workloads: one repetition each, their output checks, their traces.

A repetition always starts fresh processes (see :mod:`children`) and returns
a :class:`Rep`: the four end-to-end numbers every workload has, how many
operations it attempted and how many failed their output check, and whatever
user-visible numbers only this workload has.  ``trace_*`` runs the separate
traced leg and returns the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import streams
from .children import SPEC_NAME, SPEC_PARAMS, campaign_id, shared_spec
from .stats import median, percentile, tail
from .trace import Recorder

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
OUT = LEDGER / "out"

#: Schedules sampled per level (5 levels) by workloads 1, 2, 4 and 5.  One
#: size for all four, so one serial fingerprint checks them all; sized so a
#: repetition lasts about 4 s and a 12 s run holds three.
MAX_SCHEDULES = 6000
PARALLEL_CHUNK = 256
CAMPAIGN_CHUNK = 512
TABLE4_MAX_SCHEDULES = 1024
TABLE4_CHILD_SECONDS = 4.0
FAULT = "kill:ordinal=1:count=1"

#: The certifier's closed phase, 4 single-version : 1 multiversion.
SV_STREAMS = 400
MV_STREAMS = 100
CLOSED_DEPTH = 8
OPEN_STREAMS = 20
OPEN_RATES = (1000, 2000, 3000)
OPEN_SECONDS = 3.0
OPEN_P90_LIMIT_MS = 3.0
SERVICE_CAMPAIGN = "service"


class BenchError(Exception):
    """A named harness failure: the run exits 2 instead of recording a number."""


class InsufficientCores(BenchError):
    pass


def parallelism() -> int:
    """Workers and connections: ``min(nproc, 2)``, never an inert gate."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:          # not Linux
        cores = os.cpu_count() or 1
    return min(cores, 2)


def require_two_cores(workload: str) -> int:
    width = parallelism()
    if width < 2:
        raise InsufficientCores(
            f"{workload} needs 2 cores (workers and connections are "
            f"min(nproc, 2)); on 1 core it would record overhead as a result")
    return width


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    work: int                        #: schedules executed / operations certified
    rss_mb: float
    attempted: int
    failed: int
    fingerprint: Optional[str] = None
    extra: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Every timed iteration, where one repetition times several.
    walls: Optional[List[float]] = None


@dataclass
class Context:
    """What the repetitions of one harness invocation share."""

    seed: int
    tmp: Path
    golden: Dict[str, str]
    #: The serial fingerprint of (spec, MAX_SCHEDULES, seed), once known.
    serial_fingerprint: Optional[str] = None
    _counter: int = 0

    def path(self, stem: str) -> str:
        self._counter += 1
        return str(self.tmp / f"{stem}-{self._counter}")

    def reference_fingerprint(self) -> str:
        """What workloads 2, 4 and 5 must reproduce: the serial fingerprint.

        Golden for the committed seeds; for any other seed one serial
        ``explore()`` in a fresh child, after the timed work, once per run.
        """
        if self.serial_fingerprint is None:
            golden = self.golden.get(str(self.seed))
            if golden is not None:
                self.serial_fingerprint = golden
            else:
                child, _ = run_child("explore", explore_args(self, workers=1))
                self.serial_fingerprint = child["fingerprint"]
        return self.serial_fingerprint


# -- processes -------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class PeakRss(threading.Thread):
    """Peak resident set over a process tree, polled from ``/proc``.

    ``wait4``'s ``ru_maxrss`` will not do: Linux carries the parent's
    high-water mark into the child across fork and exec, so a child smaller
    than the harness reports the harness.  ``VmHWM`` belongs to the child's
    own address space and only ever grows, so the last poll before exit is
    its peak.
    """

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._done = threading.Event()
        self.start()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        pending = [self.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            except OSError:             # exited between listing and reading
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                self.peak_kb = max(self.peak_kb, int(match.group(1)))
            pending.extend(int(child) for child in children.split())

    def peak_mb(self) -> float:
        """The peak so far, in MB, after one more sample."""
        self.sample()
        return self.peak_kb / 1024.0

    def stop(self) -> float:
        """Take a last sample, stop polling, return the peak in MB."""
        peak = self.peak_mb()
        self._done.set()
        self.join()
        return peak


@dataclass
class Finished:
    wall_s: float
    started_at: float                #: ``time.time()`` just before the spawn
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: Sequence[str], capture: Path) -> Finished:
    """Run to completion; wall is spawn -> exit, RSS the peak over its tree."""
    out_path, err_path = f"{capture}.out", f"{capture}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started_at = time.time()
        started = time.perf_counter()
        process = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                   env=child_env(), cwd=str(ROOT))
        rss = PeakRss(process.pid)
        try:
            process.wait()
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            wall = time.perf_counter() - started
            rss_mb = rss.stop()
    stdout = Path(out_path).read_text(encoding="utf-8", errors="replace")
    stderr = Path(err_path).read_text(encoding="utf-8", errors="replace")
    return Finished(wall, started_at, process.returncode, rss_mb, stdout, stderr)


def run_child(kind: str, args: Dict[str, Any]) -> Tuple[Dict[str, Any], Finished]:
    capture = OUT / "tmp" / f"child-{os.getpid()}-{time.monotonic_ns()}"
    capture.parent.mkdir(parents=True, exist_ok=True)
    finished = run_process(
        [sys.executable, str(LEDGER / "run.py"), "_child", kind, json.dumps(args)],
        capture)
    for suffix in (".out", ".err"):
        os.unlink(f"{capture}{suffix}")
    if finished.returncode != 0:
        raise BenchError(f"{kind} child exited {finished.returncode}: "
                         f"{finished.stderr.strip()[-2000:]}")
    return json.loads(finished.stdout.strip().splitlines()[-1]), finished


def run_cli(ctx: Context, *argv: str) -> Finished:
    finished = run_process([sys.executable, "-m", "repro", *argv],
                           Path(ctx.path("cli")))
    if finished.returncode != 0:
        raise BenchError(f"python -m repro {' '.join(argv[:2])} exited "
                         f"{finished.returncode}: {finished.stderr.strip()[-2000:]}")
    return finished


def spec_flags() -> List[str]:
    flags = ["--program-set", SPEC_NAME]
    for key, value in SPEC_PARAMS.items():
        flags += ["--set", f"{key}={value}"]
    return flags


def campaign_flags(ctx: Context, store: str, chunk_size: int) -> List[str]:
    return ["--store", store, *spec_flags(), "--mode", "sample",
            "--max-schedules", str(MAX_SCHEDULES), "--seed", str(ctx.seed),
            "--chunk-size", str(chunk_size)]


def explore_args(ctx: Context, workers: int, **more: Any) -> Dict[str, Any]:
    return {"seed": ctx.seed, "max_schedules": MAX_SCHEDULES, "workers": workers,
            "chunk_size": PARALLEL_CHUNK if workers > 1 else 64, **more}


def trace_args(workload: str, ctx: Context) -> Dict[str, Any]:
    OUT.mkdir(parents=True, exist_ok=True)
    return {"trace": True, "trace_id": f"{workload}/seed{ctx.seed}",
            "trace_path": str(OUT / f"trace-{workload}.jsonl")}


def store_bytes(path: str) -> int:
    return sum(os.path.getsize(path + suffix) for suffix in ("", "-wal")
               if os.path.exists(path + suffix))


def open_store(path: str):
    from repro.persist import SqliteStore
    return SqliteStore(path)


def _fingerprint_check(rep: Rep, label: str, got: str, want: str) -> None:
    if got != want:
        rep.failed = rep.attempted
        rep.notes.append(f"{label} fingerprint {got[:16]} != expected {want[:16]}")


# -- 1, 2: explore() -------------------------------------------------------------------

def rep_explore(ctx: Context, workers: int) -> Rep:
    child, finished = run_child("explore", explore_args(ctx, workers))
    rep = Rep(setup_s=child["t_call"] - finished.started_at,
              wall_s=child["phases"]["cold"]["wall_s"], work=child["schedules"],
              rss_mb=finished.rss_mb, attempted=child["schedules"], failed=0,
              fingerprint=child["fingerprint"], detail=child)
    if workers == 1:
        # Serial repetitions are the reference the other workloads check
        # against; they answer to the golden values and to each other.
        want = ctx.golden.get(str(ctx.seed)) or ctx.serial_fingerprint
        if want is None:
            ctx.serial_fingerprint = want = child["fingerprint"]
    else:
        want = ctx.reference_fingerprint()
    _fingerprint_check(rep, "explore", child["fingerprint"], want)
    return rep


def _self_seconds(*phases: Dict[str, Any]) -> Dict[str, float]:
    """``<layer>_s`` self times summed over phases, harness root spans left out."""
    out: Dict[str, float] = {}
    for phase in phases:
        for name, value in phase.get("self", {}).items():
            if not name.startswith("workload"):
                out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + value
    # A replay is a reset plus a run; together they are the stepwise execution.
    out["engine.scheduler.run_s"] = (out.get("engine.scheduler.run_s", 0.0)
                                     + out.pop("engine.scheduler.reset_s", 0.0))
    return out


def _calls(phase: Dict[str, Any], name: str) -> Tuple[float, int]:
    """(busy seconds, call count) of one span name, children included."""
    busy, count = phase.get("totals", {}).get(name, (0.0, 0))
    return busy, count


def _unattributed(*phases: Dict[str, Any]) -> float:
    wall = sum(phase["wall_s"] for phase in phases)
    return max(0.0, wall - sum(_self_seconds(*phases).values())) / wall


def _counter_layers(stats: Dict[str, int], schedules: int, executed: int,
                    prefix: str = "") -> Dict[str, float]:
    """The explorer's own counters (``cache_stats``), as layer metrics."""
    def stat(name: str) -> int:
        return stats.get(prefix + name, 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "explorer.schedules.schedules": schedules,
        "explorer.reduction.executed_share": share(executed, schedules),
        # The kernel took the trie walk's place: count both, or this reads 0.
        "explorer.trie_executor.replayed_step_ratio": share(
            stat("trie_slots_executed") + stat("batch_slots_executed"),
            stat("trie_slots_total") + stat("batch_slots_total")),
        "explorer.trie_executor.restores": stat("trie_restores"),
        "explorer.batch_kernel.rows_fast": stat("batch_rows_fast"),
        "explorer.batch_kernel.rows_ejected": stat("batch_rows_ejected"),
        "explorer.batch_kernel.eject_share": share(
            stat("batch_rows_ejected"), stat("batch_rows_fast") + stat("batch_rows_ejected")),
        "explorer.memo.hits": stat("hits"),
        "explorer.memo.misses": stat("misses"),
        "explorer.memo.hit_share": share(
            stat("hits") + stat("shared_hits"),
            stat("hits") + stat("misses") + stat("shared_hits")),
        "explorer.memo.shared_hits": stat("shared_hits"),
    }


def _worker_seconds(stats: Dict[str, int], prefix: str = "") -> Dict[str, float]:
    """Execute/classify/build time as worker processes report it with their
    chunks, summed over workers (the parent's wrappers cannot see inside)."""
    return {
        "explorer.trie_executor.execute_s": stats.get(prefix + "us_step_execution", 0) / 1e6,
        "explorer.memo.classify_s": stats.get(prefix + "us_classification", 0) / 1e6,
        "explorer.worker.testbed_build_s": stats.get(prefix + "us_testbed_build", 0) / 1e6,
    }


def _explore_layers(child: Dict[str, Any]) -> Dict[str, float]:
    """Layer metrics of a traced ``explore()`` child's cold phase."""
    cold = child["phases"]["cold"]
    layers = _self_seconds(cold)
    # chunk_s is the whole chunk; what its named children leave is assembly.
    layers["explorer.worker.assemble_s"] = layers.get("explorer.worker.chunk_s", 0.0)
    layers["explorer.worker.chunk_s"] = _calls(cold, "explorer.worker.chunk")[0]
    layers.update(_counter_layers(child["stats"], child["schedules"], child["executed"]))
    layers["_missing"] = child.get("missing_layers", [])
    return layers


def trace_explore(ctx: Context, workload: str, workers: int,
                  untraced: Rep) -> Dict[str, float]:
    child, _ = run_child("explore", explore_args(ctx, workers,
                                                 **trace_args(workload, ctx)))
    if child["fingerprint"] != untraced.fingerprint:
        raise BenchError(f"{workload}: traced fingerprint differs from untraced")
    cold = child["phases"]["cold"]
    layers = _explore_layers(child)
    if workers > 1:
        layers.update(_worker_seconds(child["stats"]))
    layers["unattributed_share"] = _unattributed(cold)
    layers["trace_overhead_share"] = cold["wall_s"] / untraced.wall_s - 1.0
    return layers


# -- 3: Table 4 ------------------------------------------------------------------------

def _table4_child(ctx: Context, **more: Any) -> Tuple[Dict[str, Any], Finished]:
    return run_child("table4", {"seconds": TABLE4_CHILD_SECONDS,
                                "max_schedules": TABLE4_MAX_SCHEDULES, **more})


def rep_table4(ctx: Context, full: bool = False) -> Rep:
    child, finished = _table4_child(ctx)
    rep = Rep(setup_s=child["t_call"] - finished.started_at, wall_s=child["wall_s"],
              work=child["schedules"], rss_mb=finished.rss_mb,
              attempted=child["cells"], failed=0, detail=child, walls=child["walls"])
    if not child["cells_ok"]:
        rep.failed = rep.attempted
        rep.notes.append("Table 4 cells differ from EXPECTED_TABLE_4")
    elif child["witnessed"] != 21:
        rep.failed = abs(child["witnessed"] - 21)
        rep.notes.append(f"{child['witnessed']} witnessed cells, expected 21")
    return rep


def trace_table4(ctx: Context, untraced: Rep) -> Dict[str, float]:
    child, _ = _table4_child(ctx, **trace_args("table4_exhaustive", ctx))
    if not child["cells_ok"]:
        raise BenchError("table4_exhaustive: traced cells differ from EXPECTED_TABLE_4")
    phase = child["phases"]["cold"]
    runs = _calls(phase, "engine.scheduler.run")[1]
    layers = _self_seconds(phase)
    layers.update({
        "engine.scheduler.runs": runs,
        "explorer.schedules.schedules": child["schedules"],
        "explorer.reduction.executed_share": runs / child["schedules"],
        "explorer.scenarios.variants": child["variants"],
        "unattributed_share": _unattributed(phase),
        "trace_overhead_share": child["wall_s"] / untraced.wall_s - 1.0,
        "_missing": child.get("missing_layers", []),
    })
    return layers


# -- 4: the campaign CLI against SQLite ------------------------------------------------

def _cli_fixed_cost(ctx: Context) -> float:
    """Set-up of the CLI workloads: the same command on a 1-schedule campaign.

    Start-up, imports, store creation, schema and report: the part of a
    campaign's wall that does not shrink with the campaign.
    """
    store = ctx.path("fixed") + ".sqlite"
    return run_cli(ctx, "campaign", "run", "--store", store, *spec_flags(),
                   "--mode", "sample", "--max-schedules", "1",
                   "--seed", str(ctx.seed)).wall_s


_EXECUTED = re.compile(r"(\d+) schedules executed this run")


def rep_campaign(ctx: Context, full: bool = False) -> Rep:
    """Cold CLI campaign; ``full`` appends the re-run and ``inspect --report``."""
    setup_s = _cli_fixed_cost(ctx)
    store = ctx.path("campaign") + ".sqlite"
    flags = campaign_flags(ctx, store, CAMPAIGN_CHUNK)
    campaign = campaign_id(ctx.seed, MAX_SCHEDULES, CAMPAIGN_CHUNK)
    runs = [run_cli(ctx, "campaign", "run", *flags)]
    records = MAX_SCHEDULES * 5
    rep = Rep(setup_s=setup_s, wall_s=runs[0].wall_s, work=records,
              rss_mb=runs[0].rss_mb, attempted=records, failed=0,
              extra={"store_bytes_per_record": store_bytes(store) / records})
    expected = [records]
    if full:
        runs.append(run_cli(ctx, "campaign", "run", *flags))
        run_cli(ctx, "campaign", "inspect", "--store", store, "--report",
                "--campaign", campaign)
        rep.extra["rerun_wall_s"] = runs[1].wall_s
        expected.append(0)
    executed = [int(match.group(1)) for match in
                (_EXECUTED.search(run.stdout) for run in runs) if match]
    if executed != expected:
        rep.failed = rep.attempted
        rep.notes.append(f"schedules executed per run: {executed}, expected {expected}")
    _store_fingerprint_check(ctx, rep, store, campaign)
    return rep


def store_fingerprint(store_path: str, campaign: str) -> str:
    from repro.persist.analytics import fingerprint_from_store
    store = open_store(store_path)
    try:
        return fingerprint_from_store(store, campaign)
    finally:
        store.close()


def _store_fingerprint_check(ctx: Context, rep: Rep, store_path: str,
                             campaign: str) -> None:
    rep.fingerprint = store_fingerprint(store_path, campaign)
    _fingerprint_check(rep, "store", rep.fingerprint, ctx.reference_fingerprint())


def trace_campaign(ctx: Context, untraced: Rep) -> Dict[str, float]:
    """The same campaign in-process — cold, re-run, inspect — bare then traced."""
    def in_process(**more: Any) -> Dict[str, Any]:
        args = explore_args(ctx, 1, campaign=True,
                            store=ctx.path("replay") + ".sqlite", **more)
        args["chunk_size"] = CAMPAIGN_CHUNK
        child = run_child("explore", args)[0]
        if child["store_fingerprint"] != untraced.fingerprint or child["rerun_executed"]:
            raise BenchError("campaign_sqlite: in-process campaign differs from the CLI's")
        return child

    plain = in_process()
    traced = in_process(**trace_args("campaign_sqlite", ctx))
    phases = traced["phases"]
    cold, bare_cold = phases["cold"], plain["phases"]["cold"]
    layers = _explore_layers(traced)
    # The store works in all three phases: commits cold, loads in the others.
    layers.update({name: value for name, value in _self_seconds(*phases.values()).items()
                   if name.startswith("persist.")})
    commit_ms = traced["commit_ms"]
    layers.update({
        "persist.sqlite_store.commits": _calls(cold, "persist.sqlite_store.commit")[1],
        "persist.sqlite_store.loads": _calls(phases["rerun"], "persist.sqlite_store.load")[1],
        "persist.sqlite_store.commit_ms_p50": median(commit_ms) if commit_ms else 0.0,
        "persist.sqlite_store.write_transactions":
            traced["store_stats"].get("write_transactions", 0),
        "persist.sqlite_store.busy_retries": traced["store_stats"].get("busy_retries", 0),
        "persist.sqlite_store.wal_bytes": traced["wal_bytes"],
        "persist.cli.startup_s": untraced.wall_s - bare_cold["wall_s"],
        "unattributed_share": _unattributed(*phases.values()),
        "trace_overhead_share": cold["wall_s"] / bare_cold["wall_s"] - 1.0,
        "_cold_persist_share": sum(
            value for name, value in _self_seconds(cold).items()
            if name.startswith("persist.")) / cold["wall_s"],
    })
    return layers


# -- 5: the distributed campaign CLI ---------------------------------------------------

_DURATION = re.compile(r"complete in ([0-9.]+)s")
_RECOVERY = re.compile(r"worst recovery latency: (\d+) ms")


def _distrib_cli(ctx: Context, store: str, *more: str) -> Tuple[Finished, Dict[str, int]]:
    finished = run_cli(ctx, "distrib", "run", "--workers", str(parallelism()),
                       *campaign_flags(ctx, store, PARALLEL_CHUNK), "--stats", *more)
    start = finished.stdout.index("{")
    stats, _ = json.JSONDecoder().raw_decode(finished.stdout[start:])
    return finished, stats


def rep_distrib(ctx: Context, full: bool = False) -> Rep:
    require_two_cores("campaign_distrib")
    setup_s = _cli_fixed_cost(ctx)
    store = ctx.path("distrib") + ".sqlite"
    finished, stats = _distrib_cli(ctx, store)
    records = MAX_SCHEDULES * 5
    rep = Rep(setup_s=setup_s, wall_s=finished.wall_s, work=records,
              rss_mb=finished.rss_mb, attempted=records, failed=0,
              extra={"store_bytes_per_record": store_bytes(store) / records},
              detail={"stats": stats, "stdout": finished.stdout})
    if stats.get("records_committed") != records:
        rep.failed = rep.attempted
        rep.notes.append(f"{stats.get('records_committed')} records committed, "
                         f"expected {records}")
    _store_fingerprint_check(ctx, rep, store,
                             campaign_id(ctx.seed, MAX_SCHEDULES, PARALLEL_CHUNK))
    return rep


def trace_distrib(ctx: Context, untraced: Rep) -> Dict[str, float]:
    width = parallelism()
    stats = untraced.detail["stats"]
    # Second phase: the same campaign with one worker killed mid-lease.
    fault_store = ctx.path("fault") + ".sqlite"
    fault, fault_stats = _distrib_cli(ctx, fault_store, "--faults", FAULT)
    campaign = campaign_id(ctx.seed, MAX_SCHEDULES, PARALLEL_CHUNK)
    if store_fingerprint(fault_store, campaign) != untraced.fingerprint:
        raise BenchError("campaign_distrib: the fault phase's store fingerprint "
                         "differs from the clean run's")
    recovery = _RECOVERY.search(fault.stdout)

    traced, _ = run_child("distrib", {
        "seed": ctx.seed, "max_schedules": MAX_SCHEDULES, "workers": width,
        "chunk_size": PARALLEL_CHUNK, "store": ctx.path("replay") + ".sqlite",
        **trace_args("campaign_distrib", ctx)})
    if not traced["success"] or traced["store_fingerprint"] != untraced.fingerprint:
        raise BenchError("campaign_distrib: traced fingerprint differs from untraced")
    phase = traced["phases"]["cold"]
    worker_seconds = _worker_seconds(traced["stats"], "worker_")
    layers = _self_seconds(phase)
    layers.update(worker_seconds)
    layers.update(_counter_layers(traced["stats"], traced["schedules"],
                                  traced["schedules"], "worker_"))
    untraced_duration = float(_DURATION.search(untraced.detail["stdout"]).group(1))
    layers.update({
        "persist.sqlite_store.commits": _calls(phase, "persist.sqlite_store.commit")[1],
        "persist.sqlite_store.write_transactions": stats.get("store_write_transactions", 0),
        "persist.sqlite_store.busy_retries": stats.get("store_busy_retries", 0),
        "distrib.queue.grants": stats.get("leases_granted", 0),
        "distrib.queue.renewals": stats.get("leases_renewed", 0),
        "distrib.queue.reclaims": fault_stats.get("leases_reclaimed", 0),
        "distrib.queue.fenced": fault_stats.get("fenced_results", 0),
        "distrib.runner.respawns": fault_stats.get("respawns", 0),
        "distrib.runner.recovery_ms": float(recovery.group(1)) if recovery else 0.0,
        "distrib.runner.worker_busy_share":
            sum(worker_seconds.values()) / (width * traced["duration_s"]),
        # LeaseQueue.complete as a whole, its store commit included.
        "distrib.runner.parent_commit_s": _calls(phase, "distrib.runner.parent_commit")[0],
        "unattributed_share": _unattributed(phase),
        "trace_overhead_share": traced["duration_s"] / untraced_duration - 1.0,
        "_missing": traced.get("missing_layers", []),
    })
    return layers


# -- 6: the certifier over TCP ---------------------------------------------------------

@dataclass
class CertifyInputs:
    streams: List[Tuple[str, List[str], bool]]      #: (name, tokens, multiversion)
    plans: List[List[streams.Request]]
    generate_s: float


def certify_inputs(seed: int, connections: int) -> CertifyInputs:
    """Generate the closed phase: zipfian SV streams and realized-SI MV streams."""
    from repro.core.isolation import IsolationLevelName
    from repro.explorer import ExploreOptions, explore

    started = time.perf_counter()
    shape = streams.StreamShape()
    realized = explore(shared_spec(), ExploreOptions(
        levels=(IsolationLevelName.SNAPSHOT_ISOLATION,), mode="sample",
        max_schedules=MV_STREAMS, seed=seed))
    (level,) = realized.levels.values()
    multiversion = [record.history.split() for record in level.records]
    generated: List[Tuple[str, List[str], bool]] = []
    for index in range(SV_STREAMS):
        generated.append((f"sv-{index}", streams.zipf_tokens(seed, index, shape), False))
        if index % 4 == 3 and multiversion:
            generated.append((f"mv-{index // 4}", multiversion.pop(), True))
    requests = [streams.stream_requests(name, tokens, shape.burst, mv)
                for name, tokens, mv in generated]
    plans = streams.multiplex(requests, connections)
    return CertifyInputs(generated, plans, time.perf_counter() - started)


class Server:
    """``python -m repro serve`` as a child process, stopped with SIGTERM."""

    def __init__(self, ctx: Context):
        self.store_path = ctx.path("certify") + ".sqlite"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", self.store_path, "--campaign", SERVICE_CAMPAIGN],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=child_env(), cwd=str(ROOT))
        self._rss = PeakRss(self.process.pid)
        try:
            banner = self.process.stdout.readline().decode()
            match = re.search(r"listening on (\S+):(\d+)", banner)
            if match is None:
                raise BenchError(f"the certifier did not start: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.address = (match.group(1), int(match.group(2)))
        self.boot_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return self._rss.peak_mb()

    def stop(self) -> int:
        """SIGTERM and wait; returns the server's exit code."""
        if self.process.returncode is None:
            self._rss.stop()
            self.process.send_signal(signal.SIGTERM)
            self.process.wait()
            self.process.stdout.close()
        return self.process.returncode


def _offline_verdict(tokens: Sequence[str], multiversion: bool) -> Tuple:
    from repro.core.history import parse_history
    from repro.explorer import BatchClassifier
    verdict = BatchClassifier().classify(
        parse_history(" ".join(tokens), multiversion=multiversion))
    return (verdict.serializable, list(verdict.phenomena),
            list(verdict.committed), list(verdict.aborted))


def _certificate_key(payload: Dict[str, Any]) -> Tuple:
    return (payload["stream"], payload["seq"], payload["code"],
            tuple(payload["txns"]), tuple(payload["items"]),
            payload["op_index"], payload["witness"])


def check_certify(inputs: CertifyInputs, replies: Sequence[Sequence[bytes]],
                  store_path: str) -> Tuple[int, int, int, List[str], int]:
    """Every reply against what it must be.

    Returns (attempted, failed, operations acknowledged, notes, certificates).
    """
    notes: List[str] = []
    failed = ops = 0
    received = set()
    offline = {name: _offline_verdict(tokens, mv) for name, tokens, mv in inputs.streams}
    attempted = sum(len(plan) for plan in inputs.plans)
    for plan, lines in zip(inputs.plans, replies):
        failed += len(plan) - len(lines)
        for request, line in zip(plan, lines):
            reply = json.loads(line)
            if reply.get("type") == "error":
                failed += 1
                notes.append(f"{request.stream}: {reply.get('error')}")
            elif request.kind == "ops":
                ops += reply["ops"]
                received.update(_certificate_key(c) for c in reply["certificates"])
            elif request.kind == "verdict":
                got = (reply["serializable"], reply["phenomena"],
                       reply["committed"], reply["aborted"])
                if got != offline[request.stream]:
                    failed += 1
                    notes.append(f"{request.stream}: online verdict differs from offline")
            elif request.kind == "close" and reply["persisted"] != reply["certificates"]:
                failed += 1
                notes.append(f"{request.stream}: close persisted fewer certificates")
    store = open_store(store_path)
    try:
        persisted = ({_certificate_key({
            "stream": c.stream, "seq": c.seq, "code": c.code, "txns": c.txns,
            "items": c.items, "op_index": c.op_index, "witness": c.witness})
            for c in store.load_certificates(SERVICE_CAMPAIGN)}
            if store.get_campaign(SERVICE_CAMPAIGN) is not None else set())
    finally:
        store.close()
    if persisted != received:
        failed += len(persisted ^ received)
        notes.append(f"{len(persisted)} certificates persisted, {len(received)} received")
    return attempted, failed, ops, notes[:10], len(received)


def rep_certify(ctx: Context, full: bool = False) -> Rep:
    """The closed phase on a fresh server; ``full`` appends the open phase."""
    width = require_two_cores("certify_tcp")
    inputs = certify_inputs(ctx.seed, width)
    server = Server(ctx)
    try:
        closed = streams.closed_loop(server.address, inputs.plans, CLOSED_DEPTH)
        rss_mb = server.peak_rss_mb()
        opened = open_phase(ctx, server) if full else None
    finally:
        code = server.stop()
    attempted, failed, ops, notes, certificates = check_certify(
        inputs, closed["replies"], server.store_path)
    notes += closed["errors"]
    if code != 0:
        failed += 1
        notes.append(f"the certifier exited {code} on SIGTERM")
    rtts = [value * 1e3 for connection in closed["rtts"] for value in connection]
    ordered = sorted(rtts)
    closes = [rtt * 1e3 for plan, series in zip(inputs.plans, closed["rtts"])
              for request, rtt in zip(plan, series) if request.kind == "close"]
    rep = Rep(setup_s=inputs.generate_s + server.boot_s, wall_s=closed["wall_s"],
              work=ops, rss_mb=rss_mb, attempted=attempted,
              failed=failed + len(closed["errors"]), notes=notes,
              extra={"rtt_p50_ms": percentile(ordered, 0.5),
                     "rtt_p99_ms": tail(ordered, 0.99)},
              detail={"inputs": inputs, "closed": closed, "open": opened,
                      "rtt_ms": ordered, "close_ms": closes,
                      "certificates": certificates})
    if opened is not None:
        rep.attempted += opened["attempted"]
        rep.failed += opened["failed"]
        rates = opened["rates"]
        ok = [rate for rate, result in rates.items() if result["ok"]]
        rep.extra.update({
            "open_lat_p50_ms": rates[2000]["p50_ms"],
            "open_lat_p90_ms": rates[2000]["p90_ms"],
            "max_rate_ok": float(max(ok)) if ok else 0.0,
        })
    return rep


def _error_replies(replies: Sequence[Sequence[bytes]]) -> int:
    return sum(json.loads(line).get("type") == "error"
               for lines in replies for line in lines)


def open_phase(ctx: Context, server: Server) -> Dict[str, Any]:
    """Fixed-rate requests against long-lived streams that never close."""
    width = parallelism()
    shape = streams.StreamShape()
    names = [f"open-{index}" for index in range(OPEN_STREAMS)]
    sources = [streams.endless_tokens(ctx.seed, 10_000 + index, shape)
               for index in range(OPEN_STREAMS)]
    opened = streams.closed_loop(server.address, streams.multiplex(
        [[streams.open_request(name)] for name in names], width))
    failed = _error_replies(opened["replies"])
    rates: Dict[int, Dict[str, Any]] = {}
    for rate in OPEN_RATES:
        requests = []
        for index in range(int(rate * OPEN_SECONDS)):
            slot = index % OPEN_STREAMS
            burst = [next(sources[slot]) for _ in range(shape.burst)]
            requests.append(streams.ops_request(names[slot], burst))
        result = streams.open_loop(server.address, requests, rate, width)
        answered = [(offset, latency * 1e3) for offset, latency
                    in zip(result["due_offsets"], result["latencies"])
                    if latency is not None]
        latencies = sorted(latency for _, latency in answered)
        errors = _error_replies(result["replies"])
        missing = len(requests) - len(answered)
        first = [latency for offset, latency in answered if offset < 1.0]
        last = [latency for offset, latency in answered if offset >= OPEN_SECONDS - 1.0]
        p90 = tail(latencies, 0.9) if latencies else float("inf")
        achieved = len(answered) / result["wall_s"]
        rates[rate] = {
            "p50_ms": percentile(latencies, 0.5) if latencies else 0.0, "p90_ms": p90,
            "p99_ms": tail(latencies, 0.99) if latencies else 0.0,
            "achieved_per_s": achieved, "requests": len(requests),
            "errors": errors, "missing": missing,
            "late_p99_ms": tail(sorted(result["lateness"]), 0.99) * 1e3,
            # Meets the limit, keeps up, and the queue is not growing.
            "ok": (not errors and not missing and p90 <= OPEN_P90_LIMIT_MS
                   and achieved >= 0.98 * rate
                   and bool(first) and bool(last)
                   and median(last) <= 2.0 * median(first)),
        }
        failed += errors + missing
    return {"rates": rates, "failed": failed,
            "attempted": OPEN_STREAMS + sum(r["requests"] for r in rates.values())}


def replay_certify(inputs: CertifyInputs, replies: Sequence[Sequence[bytes]],
                   store_path: str, recorder: Optional[Recorder]) -> Dict[str, Any]:
    """Replay the recorded lines through the server's layers, in-process.

    ``json.loads`` of each request, ``OnlineClassifier.feed_shorthand`` of its
    operations, ``save_certificates`` at close, ``json.dumps`` of the reply
    the real server sent.  With a recorder each step is timed; without one
    the same work runs bare, which gives the tracing overhead.
    """
    from repro.service.online import OnlineClassifier

    clock = time.perf_counter
    store = open_store(store_path)
    classifiers: Dict[str, Any] = {}
    feed_us: List[float] = []
    certificates = set()
    hot = recorder.hot if recorder is not None else (lambda *args: None)
    root = recorder.begin("workload") if recorder is not None else None
    started = clock()
    try:
        store.open_campaign(SERVICE_CAMPAIGN, {"kind": "service"})
        for plan, lines in zip(inputs.plans, replies):
            for request, line in zip(plan, lines):
                t0 = clock()
                message = json.loads(request.line)
                hot("service.server.json_decode", t0, clock())
                name = message["stream"]
                if request.kind == "open":
                    classifiers[name] = OnlineClassifier(
                        name, multiversion=bool(message.get("mv")))
                elif request.kind == "ops":
                    classifier = classifiers[name]
                    t0 = clock()
                    fresh = classifier.feed_shorthand(message["ops"])
                    t1 = clock()
                    hot("service.online.mv_feed" if classifier.multiversion
                        else "service.online.feed", t0, t1)
                    feed_us.append((t1 - t0) * 1e6)
                    certificates.update(
                        (c.stream, c.seq, c.code, c.op_index) for c in fresh)
                elif request.kind == "verdict":
                    classifiers[name].verdict()
                elif request.kind == "close":
                    t0 = clock()
                    store.save_certificates(SERVICE_CAMPAIGN,
                                            classifiers.pop(name).certificates)
                    hot("service.server.persist", t0, clock())
                reply = json.loads(line)
                t0 = clock()
                json.dumps(reply)
                hot("service.server.json_encode", t0, clock())
    finally:
        wall = clock() - started
        if recorder is not None:
            recorder.end(root)
        store.close()
    return {"wall_s": wall, "feed_us": sorted(feed_us), "certificates": certificates,
            "self": recorder.self_times(root) if recorder is not None else {}}


def trace_certify(ctx: Context, rep: Rep) -> Dict[str, float]:
    """Replay the recorded closed round in-process, bare and then timed."""
    inputs, closed = rep.detail["inputs"], rep.detail["closed"]
    rates = rep.detail["open"]["rates"]
    bare = replay_certify(inputs, closed["replies"], ctx.path("replay") + ".sqlite", None)
    args = trace_args("certify_tcp", ctx)
    recorder = Recorder(args["trace_id"])
    timed = replay_certify(inputs, closed["replies"], ctx.path("replay") + ".sqlite",
                           recorder)
    recorder.write_jsonl(args["trace_path"])
    if len(timed["certificates"]) != rep.detail["certificates"]:
        raise BenchError("certify_tcp: the replay fired different certificates "
                         "than the server sent")
    layers = _self_seconds(timed)
    named = sum(layers.values())
    layers.update({
        "service.online.feed_us_p50": percentile(timed["feed_us"], 0.5),
        "service.online.feed_us_p99": tail(timed["feed_us"], 0.99),
        "service.online.certificates": len(timed["certificates"]),
        # What the closed phase spent outside every replayed layer: asyncio,
        # sockets, dispatch, and the client's own turnaround.
        "service.server.transport_s": max(0.0, rep.wall_s - named),
        "service.server.close_ms_p50": median(rep.detail["close_ms"]),
        "service.server.rtt_p999_ms": tail(rep.detail["rtt_ms"], 0.999),
        "service.server.open_lat_p99_ms": rates[2000]["p99_ms"],
        "service.server.open_r1000_lat_p50_ms": rates[1000]["p50_ms"],
        "service.server.open_r3000_lat_p50_ms": rates[3000]["p50_ms"],
        "service.server.gen_late_p99_ms": max(r["late_p99_ms"] for r in rates.values()),
        "unattributed_share": _unattributed(timed),
        "trace_overhead_share": timed["wall_s"] / bare["wall_s"] - 1.0,
    })
    return layers


@dataclass(frozen=True)
class Workload:
    #: One repetition.  ``full`` appends the phases only the all-workload and
    #: traced runs report (the campaign's re-run and inspect, the certifier's
    #: open loop); what the shared end-to-end metrics time is the same either way.
    rep: Callable[[Context, bool], Rep]
    trace: Callable[[Context, Rep], Dict[str, float]]


WORKLOADS: Dict[str, Workload] = {
    "explore_sparse": Workload(
        lambda ctx, full: rep_explore(ctx, 1),
        lambda ctx, rep: trace_explore(ctx, "explore_sparse", 1, rep)),
    "explore_parallel": Workload(
        lambda ctx, full: rep_explore(ctx, require_two_cores("explore_parallel")),
        lambda ctx, rep: trace_explore(ctx, "explore_parallel", parallelism(), rep)),
    "table4_exhaustive": Workload(rep_table4, trace_table4),
    "campaign_sqlite": Workload(rep_campaign, trace_campaign),
    "campaign_distrib": Workload(rep_distrib, trace_distrib),
    "certify_tcp": Workload(rep_certify, trace_certify),
}
