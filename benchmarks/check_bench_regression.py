"""Diff a fresh BENCH_explorer.json against the committed baseline.

Used by the ``bench-smoke`` CI job: after re-running the benchmark at the
baseline's schedule budget, the fresh batch-kernel aggregate throughput must
not fall more than ``BENCH_SMOKE_TOLERANCE`` (default 30%) below the
committed number.

Usage: python benchmarks/check_bench_regression.py BASELINE.json FRESH.json

Every throughput section present in *both* files is compared and its measured
ratio reported (fresh / baseline), so a regression report shows the whole
picture, not just the failing number — but only the batch-kernel aggregate is
*gated*; the others are informational (they carry more machine variance).
The fresh ``batch_kernel`` section is additionally checked for correctness
flags: every level must report ``byte_equal: true`` and fast-path
``occupancy`` of 1.0 (the benchmark workload is item-only, so any ejection
means the kernel stopped covering it).  A section missing from either file
is reported by name with which file lacks it: that means the two files came
from different benchmark versions or from partial runs (e.g. ``-k``
selections), not that performance regressed.

The comparison is only meaningful when both files were produced with the same
``schedules`` budget; a mismatch fails the check (it would be diffing apples
against oranges).  Hardware variance between the committing machine and the
CI runner is the known caveat of an absolute-throughput gate; widen the
tolerance via the environment variable if a runner class change makes this
flap.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

#: (section path, human label, gated) — every known schedules-per-second
#: metric.  ``gated`` marks the metrics whose regression fails the check.
SECTIONS: Tuple[Tuple[Tuple[str, ...], str, bool], ...] = (
    (("batch_kernel", "aggregate", "schedules_per_sec"),
     "batch kernel aggregate schedules/sec", True),
    (("trie_executor", "trie_schedules_per_sec"), "trie executor schedules/sec", False),
    (("streaming", "schedules_per_sec"), "streaming generation schedules/sec", False),
    (("static_pruning", "speedup"), "static-pruning speedup", False),
)


def _lookup(data: Dict[str, Any], path: Tuple[str, ...]) -> Optional[float]:
    node: Any = data
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _load(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        print(f"benchmark file not found: {path}")
    except json.JSONDecodeError as error:
        print(f"benchmark file {path} is not valid JSON: {error}")
    return None


def _check_batch_kernel(fresh: Dict[str, Any]) -> List[str]:
    """Correctness flags inside the fresh ``batch_kernel`` section.

    Throughput is handled by the SECTIONS table; this checks the things that
    are wrong at *any* speed — a level whose kernel output diverged from the
    stepwise path (``byte_equal`` false) or whose fast path silently ejected
    rows on a registered workload (``occupancy`` below 1).  An absent section
    is fine here; the gated SECTIONS entry already reports that.
    """
    section = fresh.get("batch_kernel")
    if not isinstance(section, dict):
        return []
    failures: List[str] = []
    for level, entry in sorted(section.items()):
        if level == "aggregate" or not isinstance(entry, dict):
            continue
        byte_equal = entry.get("byte_equal")
        occupancy = entry.get("occupancy")
        print(f"batch kernel @ {level}: "
              f"{entry.get('batch_schedules_per_sec', 0):,.1f}/s, "
              f"occupancy {occupancy}, byte_equal {byte_equal}")
        if byte_equal is not True:
            failures.append(f"batch kernel @ {level}: byte_equal is {byte_equal!r}")
        if not isinstance(occupancy, (int, float)) or occupancy < 1.0:
            failures.append(f"batch kernel @ {level}: occupancy {occupancy!r} < 1.0")
    return failures


def main(baseline_path: str, fresh_path: str) -> int:
    tolerance = float(os.environ.get("BENCH_SMOKE_TOLERANCE", "0.30"))
    baseline = _load(baseline_path)
    fresh = _load(fresh_path)
    if baseline is None or fresh is None:
        return 1

    if baseline.get("schedules") != fresh.get("schedules"):
        print(f"schedule budgets differ: baseline ran {baseline.get('schedules')}, "
              f"fresh ran {fresh.get('schedules')} — not comparable")
        return 1

    for key in ("cores", "python_version", "platform"):
        if baseline.get(key) != fresh.get(key):
            print(f"note: {key} differs (baseline {baseline.get(key)!r}, "
                  f"fresh {fresh.get(key)!r}) — absolute throughput carries "
                  f"hardware/interpreter variance; widen BENCH_SMOKE_TOLERANCE "
                  f"if this check flaps across runner classes")

    failures: List[str] = []
    compared = 0
    for path, label, gated in SECTIONS:
        base_value = _lookup(baseline, path)
        fresh_value = _lookup(fresh, path)
        if base_value is None and fresh_value is None:
            continue  # section absent from this benchmark version entirely
        if base_value is None or fresh_value is None:
            missing_in = baseline_path if base_value is None else fresh_path
            print(f"{label}: section {'/'.join(path)} missing from "
                  f"{missing_in} — different benchmark versions or a partial "
                  f"run; {'FAILING (gated section)' if gated else 'skipping'}")
            if gated:
                failures.append(f"{label}: missing from {missing_in}")
            continue
        compared += 1
        ratio = fresh_value / base_value if base_value else float("inf")
        floor = base_value * (1.0 - tolerance)
        regressed = gated and fresh_value < floor
        verdict = "REGRESSION" if regressed else "OK"
        gate_note = f", floor {floor:,.1f} (tolerance {tolerance:.0%})" if gated else ""
        print(f"{label}: baseline {base_value:,.1f}, fresh {fresh_value:,.1f}, "
              f"ratio {ratio:.2f}x{gate_note} -> {verdict}")
        if regressed:
            failures.append(f"{label}: {fresh_value:,.1f} < floor {floor:,.1f}")

    failures.extend(_check_batch_kernel(fresh))
    if compared == 0 and not failures:
        print("no comparable sections found in either file — nothing was checked")
        return 1
    if failures:
        print("regressions: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
