"""Run every workload over ten seeds and report each metric's spread.

    python3 perfbench/spread.py [--out FILE] [--against FILE]

For each workload of BENCHMARK.json, ``run.py`` runs once per seed 1-10
untraced and once traced (seed 1), with ``run_seconds`` from BENCHMARK.json.
Every end-to-end metric is printed by name with its unit, median, quartiles,
sample count and spread (quartile distance over median), the spread of the
time as measured before scaling to the nominal host, and every per-layer
metric of the traced run with its unit. ``--out`` writes all of it as JSON,
the baseline a later run is compared with; ``--against`` compares this
run's medians with such a file and exits 1 when a metric is worse by more
than its bound. Two runs of the same code are the benchmark's
reproducibility check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's ``result.json``: its result line under ``result``, and for
    an untraced run the times as measured, the median host scale and the
    percentile reported as latency_tail_s."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
                         / "result.json").read_text())
    if detail["result"] != json.loads(proc.stdout.splitlines()[-1]):
        raise SystemExit(f"{workload} seed {seed}: result.json differs from the result line")
    return detail


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in SEEDS]
        entry = {"seeds": list(SEEDS), "attempted": [r["result"]["attempted"] for r in runs],
                 "failed": [r["result"]["failed"] for r in runs],
                 "host_scale": [r["host_scale"] for r in runs], "end_to_end": {}}
        for m in bench["end_to_end"]:
            stats = summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            stats["unit"] = m["unit"]
            note = ""
            if m["name"] in runs[0]["measured"]:
                stats["measured"] = summarize([r["measured"][m["name"]] for r in runs])
                note = f" measured spread={stats['measured']['spread']:.3f}"
            if m["name"] == "latency_tail_s":
                stats["percentiles"] = [r["latency_tail_percentile"] for r in runs]
                note += " at p" + "/".join(f"{p:g}" for p in sorted(set(stats["percentiles"])))
            entry["end_to_end"][m["name"]] = stats
            # The aim is a spread under a third of the bound (setup_s exempt).
            ok = "ok" if m["name"] == "setup_s" or stats["spread"] <= m["bound"] / 3 else "WIDE"
            print(f"{workload:15} {m['name']:16} {stats['median']:12.6g} {m['unit']:4} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={len(runs)} runs "
                  f"spread={stats['spread']:.3f} bound={m['bound']} {ok}{note}", flush=True)
        attempted, failed = sum(entry["attempted"]), sum(entry["failed"])
        print(f"{workload:15} error_rate       {failed / attempted:12.6g} ratio "
              f"(failed {failed} of {attempted} requests in {len(runs)} runs)", flush=True)
        traced = run_once(workload, SEEDS[0], bench["run_seconds"], 1)
        entry["traced_requests"] = traced["result"]["attempted"]
        entry["per_layer"] = {name: {"value": value, "unit": unit, "samples": samples}
                              for name, value, unit, samples, _ in traced["table"]}
        for name, m in entry["per_layer"].items():
            print(f"{workload:15} {name:45} {m['value']:12.6g} {m['unit']:5} "
                  f"n={m['samples']} ({entry['traced_requests']} traced requests)", flush=True)
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.against:
        base = json.loads(Path(args.against).read_text())
        worse = []
        for workload, entry in report.items():
            for m in bench["end_to_end"]:
                old = base[workload]["end_to_end"][m["name"]]["median"]
                new = entry["end_to_end"][m["name"]]["median"]
                change = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "WORSE" if change > m["bound"] else "ok"
                print(f"{workload:15} {m['name']:16} baseline {old:.6g} now {new:.6g} "
                      f"worse by {change:+.3f} (bound {m['bound']}) {flag}")
                if flag != "ok":
                    worse.append((workload, m["name"]))
        return 1 if worse else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
