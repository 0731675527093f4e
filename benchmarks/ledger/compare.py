"""``run.py compare A.json B.json`` — a graded verdict per metric and workload.

For every bounded metric of every workload in the baseline:

* ``ANOMALY_DETECTED`` — the candidate's median is worse than the baseline's
  by more than the metric's bound, a larger share of operations failed their
  check, the fingerprint changed, or the candidate lacks the workload or the
  metric altogether (a pairing nobody judged is not a pairing that held);
* ``SUSPICIOUS`` — within the bound, but the run-to-run spread of either side
  is wider than the bound, so the comparison is unresolved, not unchanged
  (unless every candidate run reads better than every baseline run);
* ``CLEAR`` — within the bound, and the spread is narrow enough to say so.

The overall verdict is the worst one.  There is no combined score.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from . import metrics as names
from .stats import median, spread

CLEAR, SUSPICIOUS, ANOMALY = "CLEAR", "SUSPICIOUS", "ANOMALY_DETECTED"
_RANK = {CLEAR: 0, SUSPICIOUS: 1, ANOMALY: 2}


def worst(verdicts) -> str:
    return max(verdicts, key=_RANK.__getitem__, default=CLEAR)


def judge_metric(metric: str, baseline: List[float],
                 candidate: List[float]) -> Tuple[str, Dict[str, float]]:
    """Verdict for one metric on one workload, with the numbers behind it."""
    bound = names.bound_for(metric)
    higher = names.direction_of(metric) == "higher"
    base, cand = median(baseline), median(candidate)
    loss = base - cand if higher else cand - base
    # Against a zero baseline any loss is unbounded and any gain is a gain.
    worse = loss / abs(base) if base else (float("inf") if loss > 0 else 0.0)
    widest = max(spread(baseline), spread(candidate))
    detail = {"baseline": base, "candidate": cand, "worse_by": worse,
              "spread": widest, "bound": bound}
    if worse > bound:
        return ANOMALY, detail
    if widest > bound:
        all_better = (min(candidate) > max(baseline) if higher
                      else max(candidate) < min(baseline))
        return (CLEAR if all_better else SUSPICIOUS), detail
    return CLEAR, detail


def _failed_share(result: Dict[str, Any]) -> float:
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def judge(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric), plus one per workload for its checks."""
    rows: List[Dict[str, Any]] = []
    for workload, base in baseline["workloads"].items():
        cand = candidate["workloads"].get(workload)
        if cand is None:
            rows.append({"workload": workload, "verdict": ANOMALY,
                         "metric": "missing from the candidate"})
            continue
        checks = CLEAR
        why = "checks"
        if _failed_share(cand) > _failed_share(base):
            checks, why = ANOMALY, "a larger share of operations failed"
        elif base.get("fingerprint") != cand.get("fingerprint") \
                and baseline.get("seed") == candidate.get("seed"):
            checks, why = ANOMALY, "the fingerprint changed"
        rows.append({"workload": workload, "metric": why, "verdict": checks})
        for metric, series in base["samples"].items():
            if metric not in names.END_TO_END and metric not in names.WORKLOAD_END_TO_END:
                continue
            other = cand["samples"].get(metric)
            if not other:
                rows.append({"workload": workload, "verdict": ANOMALY,
                             "metric": f"{metric} missing from the candidate"})
                continue
            verdict, detail = judge_metric(metric, series, other)
            rows.append({"workload": workload, "metric": metric,
                         "verdict": verdict, **detail})
    return rows


def report(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> str:
    rows = judge(baseline, candidate)
    for row in rows:
        if "baseline" in row:
            print(f"{row['verdict']:<17} {row['workload']:<18} {row['metric']:<24} "
                  f"{row['baseline']:.4f} -> {row['candidate']:.4f}  "
                  f"worse by {row['worse_by']:+.1%}  spread {row['spread']:.1%}  "
                  f"bound {row['bound']:.0%}")
        else:
            print(f"{row['verdict']:<17} {row['workload']:<18} {row['metric']}")
    overall = worst(row["verdict"] for row in rows)
    print(f"\noverall: {overall}")
    return overall
