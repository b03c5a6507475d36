"""Seeded benchmark of the ordpareto CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's request pool from the seed (see ``workloads.py``),
then serves it in a closed loop with one client: a fresh worker process
calls ``cli.main`` in process for one request after another until S seconds
have passed. Every output is checked against the benchmark's own reference
answers. The last line of stdout is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``); the lines before it give each metric with its sample count.
Records of every request, the spans of a traced run and ``result.json``
(the result line, every metric with its sample count, and the percentile
reported as ``latency_tail_s``) are written under ``.bench_out/`` in the
checkout.

End-to-end times are scaled to a nominal host. The host this was built on
is shared, and its speed drifts by a third within seconds to minutes. A
separate calibrator process (``calibrator.py``), which never imports the
program, times one fixed task just before and after every request and
just after every set-up probe; each time is multiplied by
NOMINAL_CALIBRATION_S over the samples beside it. All processes of a run share one CPU, so the samples
are of the CPU the requests run on. ``result.json`` keeps the times as
measured beside the scaled ones; per-layer times of a traced run are as
measured.

Exit status is nonzero, with no result line, when the program under test
cannot be found or the worker cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import worker
import workloads
from calibrator import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RLIMIT_MB = 1024  # address-space cap of a worker
TIMEOUT_S = 60  # wall-clock limit of one request
SETUP_PROBES = 4  # fresh processes timed for setup_s before and after the loop
# End-to-end times are scaled to a nominal host: each request's time, and
# each set-up time, is multiplied by this over the calibrator samples taken
# beside it. This is about the first percentile of the calibrator's samples
# on the 2-vCPU VM with Python 3.11 the benchmark was built on, so scaled
# times read as seconds on that host at its fastest. It only sets the unit.
NOMINAL_CALIBRATION_S = 0.0005
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(arg: str, pass_fds=()) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), arg],
        env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        pass_fds=pass_fds,
    )


@contextlib.contextmanager
def host_probe():
    """The calibrator process, stopped and waited for on exit."""
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrator.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        yield proc
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _fds(probe: subprocess.Popen) -> tuple[int, int]:
    return probe.stdin.fileno(), probe.stdout.fileno()


def setup_times(probe: subprocess.Popen, probes: int = SETUP_PROBES):
    """Set-up times of fresh workers, the first of which may write bytecode
    caches and is not counted, and a calibrator sample after each."""
    calibrator = Calibrator(*_fds(probe))
    times, calibrations = [], []
    for i in range(probes + 1):
        proc = _spawn("probe")
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker set-up took over 60 s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker cannot start: {err.strip()[-500:]}")
        report = json.loads(out)
        if not Path(report["cli"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported ordpareto from {report['cli']}, not {SRC}")
        if i:
            times.append(report["setup_s"])
            calibrations.append(calibrator.sample())
    return times, calibrations


def serve(pool: list[dict], work: Path, seconds: float, trace: bool, probe: subprocess.Popen,
          rlimit_mb: int = RLIMIT_MB, timeout_s: float = TIMEOUT_S):
    """Serve the pool for ``seconds`` in fresh workers, which sample the
    calibrator ``probe`` between requests.

    A worker that dies (out of memory, killed, crashed) costs the request it
    was serving, recorded as failed, and a new worker continues the loop.
    Returns (records, summed trace counters, spans).
    """
    requests = []
    for i, req in enumerate(pool):
        stdin = ""
        argv = list(req["argv"])
        if "{instance}" in argv:
            path = work / f"inst-{i}.txt"
            path.write_text(req["text"])
            argv[argv.index("{instance}")] = str(path)
        else:
            stdin = req["text"]
        requests.append({"argv": argv, "stdin": stdin})
    records, counters, spans = [], {}, []
    start, began = 0, time.monotonic()
    while True:
        left = seconds - (time.monotonic() - began)
        plan = {"start": start, "seconds": max(left, 0), "trace": trace,
                "rlimit_mb": rlimit_mb, "timeout_s": timeout_s,
                "out_dir": str(work), "requests": requests, "calibrator_fds": _fds(probe)}
        (work / "plan.json").write_text(json.dumps(plan))
        spawned = time.monotonic()
        proc = _spawn(str(work / "plan.json"), _fds(probe))
        try:
            _, err = proc.communicate(timeout=max(left, 0) + timeout_s + 30)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        log = work / f"records-{start}.jsonl"
        new = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
        records += new
        summary = work / f"summary-{start}.json"
        if proc.returncode == 0 and summary.exists():
            for key, value in json.loads(summary.read_text())["counters"].items():
                counters[key] = counters.get(key, 0) + value
            span_file = work / f"spans-{start}.jsonl"
            if span_file.exists():
                spans += [json.loads(line) for line in span_file.read_text().splitlines()]
            return records, counters, spans
        if not log.exists():
            raise BenchError(f"worker failed before its first request: {err.strip()[-500:]}")
        seq = start + len(new)
        records.append({
            "seq": seq, "req": seq % len(pool), "status": f"crash (exit {proc.returncode})",
            "seconds": time.monotonic() - spawned - sum(r["seconds"] for r in new),
            "sha": "", "output_bytes": 0,
        })
        start = seq + 1
        if time.monotonic() - began >= seconds:
            return records, counters, spans


def verify(pool: list[dict], records: list[dict], work: Path) -> None:
    """Mark each record ``correct`` and attach the output's counts."""
    verdicts = {}
    for rec in records:
        key = (rec["req"], rec["sha"])
        if rec["status"] == "ok" and key not in verdicts:
            req = pool[rec["req"]]
            output = (work / f"out-{rec['req']}-{rec['sha']}.txt").read_text()
            verdicts[key] = (reference.check(req, req["ref"], output), _counts(output))
        reason, counts = verdicts.get(key, (rec["status"], (0, 0)))
        if rec.get("traced_sha", rec["sha"]) != rec["sha"]:
            reason = "traced output differs from untraced output"
        rec["correct"] = reason is None
        rec["error"] = reason
        rec["frontier_values"], rec["solutions"] = counts


def _counts(output: str) -> tuple[int, int]:
    """(values or kept points or cells, listed solutions) of one output."""
    lines = output.splitlines()
    if any(line.startswith("value ") for line in lines):
        lines = [line for line in lines if line.startswith("value ")]
    solutions = output.count(" path=") + output.count(" items=")
    return len(lines), solutions


def tail_percentile(n: int, percentile: float) -> float:
    """``percentile``, lowered along TAIL_PERCENTILES until at least ten of
    ``n`` requests lie beyond it."""
    usable = [p for p in TAIL_PERCENTILES if p <= percentile and n * (100 - p) / 100 >= 10]
    return usable[0] if usable else 50


def _times(latencies, setups, percentile, cycles) -> dict:
    ranked = sorted(latencies)
    return {"setup_s": statistics.median(setups), "busy_s": sum(latencies[:cycles]),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": ranked[max(math.ceil(percentile / 100 * len(ranked)) - 1, 0)]}


def end_to_end(workload, records, setups, calibrations) -> tuple[list[tuple], dict]:
    """(name, value, unit, samples, note) of every end-to-end metric and of
    error_rate, which the result line leaves out; and the times as measured,
    the median host scale and the percentile ``latency_tail_s`` reports.

    ``calibrations`` holds the calibrator sample taken after each set-up
    time; a request without samples of its own (a crash) takes the median.
    requests_per_s counts the whole cycles of the pool's slots that the run
    served, so that where in a cycle the run stops does not move it.
    """
    n = len(records)
    slots = len(workloads.SLOTS[workload])
    cycles = n - n % slots or n  # records of the whole cycles served
    correct = sum(r["correct"] for r in records[:cycles])
    median_host = statistics.median(calibrations + [r["host_s"] for r in records
                                                    if "host_s" in r])
    p = tail_percentile(n, workloads.TAIL_PERCENTILE[workload])
    measured = _times([r["seconds"] for r in records], setups, p, cycles)
    nominal = NOMINAL_CALIBRATION_S
    scaled = _times([r["seconds"] * nominal / r.get("host_s", median_host) for r in records],
                    [s * nominal / c for s, c in zip(setups, calibrations)], p, cycles)
    measured["requests_per_s"] = correct / measured.pop("busy_s")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    rows = [
        ("setup_s", scaled["setup_s"], "s", len(setups), "median of fresh workers"),
        ("requests_per_s", correct / scaled["busy_s"], "1/s", cycles,
         "correct requests per busy second over whole cycles"),
        ("latency_p50_s", scaled["latency_p50_s"], "s", n, "median request"),
        ("latency_tail_s", scaled["latency_tail_s"], "s", n, f"p{p:g}"),
        ("peak_rss_mb", rss_mb, "MB", 1, "largest worker ru_maxrss"),
        ("error_rate", sum(not r["correct"] for r in records) / n, "ratio", n,
         "failed / attempted"),
    ]
    info = {"latency_tail_percentile": p, "host_scale": nominal / median_host,
            "measured": measured}
    return rows, info


def per_layer(records, spans, counters) -> list[tuple]:
    """Per-request means of span self times and counters, plus ratios."""
    n = len(records)
    self_s, calls = {}, {}
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, children):
        key = "cli.self" if name == "cli.main" else name
        self_s[key] = self_s.get(key, 0.0) + (end - start) - inner
        calls[key] = calls.get(key, 0) + 1
    names = ["cli.self"] + [name for _, _, name, _ in worker.TRACED]
    out = [(f"{k}_s", self_s.get(k, 0.0) / n, "s", calls.get(k, 0), "self time per request")
           for k in names]
    for key, value in counters.items():
        unit = "bytes" if key.endswith("_bytes") else "count"
        out.append((key, value / n, unit, n, "per request"))
    lp_calls = calls.get("simplex.solve_lp", 0)
    out.append(("simplex.lp_calls", lp_calls / n, "count", n, "per request"))
    points_in = counters["nondominance.points_in"]
    out.append(("nondominance.kept_ratio",
                counters["nondominance.points_kept"] / points_in if points_in else 0.0,
                "ratio", points_in, "points kept / points filtered"))
    tested = calls.get("nondominance.supporting_weights", 0)
    out.append(("scalarization.supported_ratio",
                counters["scalarization.cells"] / tested if tested else 0.0,
                "ratio", tested, "cells / values tested"))
    overhead = sum(r.get("traced_seconds", r["seconds"]) - r["seconds"] for r in records) / n
    out.append(("trace.overhead_s", overhead, "s", n, "traced minus untraced wall per request"))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "ordpareto" / "cli.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    work = out / "work"
    work.mkdir(parents=True)
    pool = workloads.build(workload, seed)
    with host_probe() as probe:
        setups, calibrations = setup_times(probe)
        records, counters, spans = serve(pool, work, seconds, trace, probe)
        more_setups, more_calibrations = setup_times(probe)
    verify(pool, records, work)
    info = {}
    if trace:
        metrics = per_layer(records, spans, counters)
        with open(out / "spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    else:
        metrics, info = end_to_end(workload, records, setups + more_setups,
                                   calibrations + more_calibrations)
    with open(out / "requests.jsonl", "w") as fh:
        for rec in records:
            req = pool[rec["req"]]
            fh.write(json.dumps({
                "workload": workload, "family": req["family"], "params": req["params"],
                "seconds": rec["seconds"], "host_s": rec.get("host_s"),
                "frontier_values": rec["frontier_values"],
                "solutions": rec["solutions"], "output_bytes": rec["output_bytes"],
                "error": rec["error"],
            }) + "\n")
    shutil.rmtree(work)
    failed = sum(not r["correct"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in metrics
                    if name != "error_rate"},
    }
    (out / "result.json").write_text(json.dumps(
        {"result": result, "table": metrics, **info}, indent=1))
    for name, value, unit, samples, note in metrics:
        print(f"{workload:15} {name:45} {value:14.6g} {unit:6} n={samples:<7} {note}")
    if info:
        print(f"{workload:15} times above scaled to the nominal host (median scale "
              f"{info['host_scale']:.4g}); as measured: "
              + ", ".join(f"{k} {v:.4g}" for k, v in info["measured"].items()))
    for rec in records:
        if rec["error"]:
            print(f"failed request {rec['seq']} ({pool[rec['req']]['family']}): {rec['error']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for this process and every process it starts, so that the
    # calibrator samples the speed of the CPU the requests run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
