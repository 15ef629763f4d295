"""``bench compare``: is a new ``bench run`` worse than a base one?

One row per workload × end-to-end metric.  With ``d`` the change of the
median as a share of the base median (positive = worse, whichever way
the metric improves) and ``b`` the metric's bound from ``BENCHMARK.json``:

* **unresolved** — either side's quartile spread, as a share of its
  median, is wider than ``b``: the runs cannot tell a change of ``b``
  from noise (unless every new sample beats every base sample, which
  reads as better);
* **worse** — ``d > b``;
* **better** — ``d < -b``;
* **same** — otherwise.

``fail_frac`` has no bound: any rise is worse.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["VERDICTS", "compare_runs", "verdict", "render"]

VERDICTS = ("better", "same", "worse", "unresolved")


def _spread(stats: Dict[str, Any]) -> float:
    median = stats["median"]
    if not median:
        return 0.0
    return abs(stats["q3"] - stats["q1"]) / abs(median)


def verdict(base: Dict[str, Any], new: Dict[str, Any], bound: float,
            better: str = "lower") -> Dict[str, Any]:
    """Classify one metric: ``base``/``new`` carry median, q1, q3, samples."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = base["median"], new["median"]
    delta = (sign * (new_median - base_median) / abs(base_median)
             if base_median else 0.0)
    spread = max(_spread(base), _spread(new))
    if spread > bound:
        base_samples = base.get("samples") or [base_median]
        new_samples = new.get("samples") or [new_median]
        if better == "lower":
            all_better = max(new_samples) < min(base_samples)
        else:
            all_better = min(new_samples) > max(base_samples)
        label = "better" if all_better else "unresolved"
    elif delta > bound:
        label = "worse"
    elif delta < -bound:
        label = "better"
    else:
        label = "same"
    return {"verdict": label, "delta": delta, "spread": spread}


def compare_runs(base: Dict[str, Any], new: Dict[str, Any],
                 spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every workload × end-to-end metric row, plus ``fail_frac``."""
    rows: List[Dict[str, Any]] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        base_metrics = base["workloads"][name]["metrics"]
        new_metrics = new["workloads"][name]["metrics"]
        for metric in spec["end_to_end"]:
            row = verdict(base_metrics[metric["name"]],
                          new_metrics[metric["name"]],
                          metric["bound"], metric["better"])
            row.update(workload=name, metric=metric["name"],
                       base=base_metrics[metric["name"]]["median"],
                       new=new_metrics[metric["name"]]["median"],
                       bound=metric["bound"])
            rows.append(row)
        base_fail = base_metrics["fail_frac"]["median"]
        new_fail = new_metrics["fail_frac"]["median"]
        rows.append({
            "workload": name, "metric": "fail_frac", "base": base_fail,
            "new": new_fail, "bound": 0.0, "delta": new_fail - base_fail,
            "spread": 0.0,
            "verdict": ("worse" if new_fail > base_fail
                        else "better" if new_fail < base_fail else "same"),
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<22} {'metric':<12} {'base':>10} {'new':>10} "
             f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<22} {row['metric']:<12} "
            f"{row['base']:>10.4g} {row['new']:>10.4g} "
            f"{100 * row['delta']:>+7.1f}% {100 * row['spread']:>6.1f}% "
            f"{100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    return "\n".join(lines)
