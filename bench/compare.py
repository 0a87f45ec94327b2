"""Per-workload medians, quartiles and deltas of benchmark results.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds lines written by bench/run.py (.bench_run/results.jsonl).
For every workload and metric it prints the run count, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
End-to-end metrics also show their bound from BENCHMARK.json; a spread above
the bound is flagged NOISY. Given NEW, each metric also gets the change of
the median, signed so that positive is worse, and WORSE when that change is
above the bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per run; failed runs are reported."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            prov, result = rec["provenance"], rec["result"]
            if not result["correct"]:
                print(f"{path}: {prov['workload']} seed {prov['seed']}: "
                      f"{result['failed']}/{result['attempted']} calls failed")
            for name, m in result["metrics"].items():
                values[(prov["workload"], name)].append(m["value"])
    return values


def stats(vals: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    worse_any = False
    print(f"{'workload':14} {'metric':40} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + ("  new_median   delta" if new else ""))
    for (wl, metric), vals in sorted(base.items()):
        med, q1, q3, spread = stats(vals)
        bound = e2e[metric]["bound"] if metric in e2e else None
        line = (f"{wl:14} {metric:40} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{spread:7.3f} {'' if bound is None else bound:>6}")
        if bound is not None and metric != "setup_s" and spread > bound:
            line += " NOISY"
        if new is not None and (wl, metric) in new:
            med2 = stats(new[(wl, metric)])[0]
            delta = (med2 - med) / abs(med) if med else 0.0
            worse = -delta if better.get(metric) == "higher" else delta
            line += f"  {med2:12.6g} {worse:+7.3f}"
            if bound is not None and worse > bound:
                line += " WORSE"
                worse_any = True
        print(line)
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
