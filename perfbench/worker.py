"""Benchmark worker: one fresh process that serves requests through cli.main.

Run as ``python3 worker.py <spawn-time> probe`` to report set-up time only,
or ``python3 worker.py <spawn-time> <plan.json>`` to run a closed loop with
one client over the plan's requests. ``<spawn-time>`` is the parent's
``time.monotonic()`` just before it started this process; the monotonic
clock is shared by all processes, so set-up time counts interpreter start,
``import ordpareto.cli`` and the first ``build_parser()``. Between
requests the worker asks the probe process of ``calibrator.py``, through
the pipe ends the plan names, for a sample of the host's speed; each
request records the mean of the samples just before and just after it.

The worker caps its own address space, gives each request a wall-clock
limit, and records every request as one JSON line as soon as it ends, so a
parent can account for a request that killed the process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


def main() -> int:
    spawned = float(sys.argv[1])
    from ordpareto import cli

    cli.build_parser()
    if sys.argv[2] == "probe":
        setup_s = time.monotonic() - spawned
        print(json.dumps({"setup_s": setup_s, "cli": cli.__file__}))
        return 0
    plan = json.loads(Path(sys.argv[2]).read_text())
    from calibrator import Calibrator

    calibrator = Calibrator(*plan["calibrator_fds"])
    limit = plan["rlimit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = Path(plan["out_dir"])
    tracer = Tracer(cli) if plan["trace"] else None
    requests = plan["requests"]
    seen: set[tuple[int, str]] = set()
    done = 0
    with open(out_dir / f"records-{plan['start']}.jsonl", "w") as log:
        start = time.perf_counter()
        deadline = start + plan["seconds"]
        host_before = calibrator.sample()
        while time.perf_counter() < deadline:
            seq = plan["start"] + done
            idx = seq % len(requests)
            req = requests[idx]
            record = {"seq": seq, "req": idx}
            if tracer is None:
                record.update(serve(cli.main, req, plan["timeout_s"]))
            else:
                # Untraced and traced runs of the same request, alternating
                # which goes first so neither always meets warm caches.
                for traced in ((False, True) if seq % 2 else (True, False)):
                    if traced:
                        tracer.request_id = seq
                        with tracer.installed():
                            result = serve(tracer.main, req, plan["timeout_s"])
                        record["traced_seconds"] = result["seconds"]
                        record["traced_sha"] = result["sha"]
                    else:
                        result = serve(cli.main, req, plan["timeout_s"])
                        record.update(result)
            host_after = calibrator.sample()
            record["host_s"] = (host_before + host_after) / 2
            host_before = host_after
            output = record.pop("output")
            if (idx, record.get("sha")) not in seen and record["status"] == "ok":
                seen.add((idx, record["sha"]))
                (out_dir / f"out-{idx}-{record['sha']}.txt").write_text(output)
            log.write(json.dumps(record) + "\n")
            log.flush()
            done += 1
    summary = {"counters": {}}
    if tracer is not None:
        with open(out_dir / f"spans-{plan['start']}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        summary["counters"] = tracer.counters
    (out_dir / f"summary-{plan['start']}.json").write_text(json.dumps(summary))
    return 0


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


def serve(main, req: dict, timeout_s: float) -> dict:
    """Run one request in process; never raises for a failed request."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req["stdin"])
    status, output = "ok", ""
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(req["argv"])
        output = stdout.getvalue()
        if code != 0:
            status = f"exit {code}: {stderr.getvalue().strip()[:200]}"
    except MemoryError:
        status = "oom"
    except RequestTimeout:
        status = "timeout"
    except Exception as exc:  # a failed request must not end the run
        status = f"exception {type(exc).__name__}: {exc}"[:300]
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = saved_stdin
    digest = hashlib.sha1(output.encode()).hexdigest()[:16]
    return {"status": status, "seconds": seconds, "sha": digest,
            "output_bytes": len(output.encode()), "output": output}


# Each traced function, at the module and name its caller binds, with the
# metric name it is reported under and the counters read off its arguments
# and result. ``core`` is left out: its functions run once per label, and
# wrapping them would swamp the solvers' own time.
def _solved(c, args, res):
    c["solvers.frontier_values"] += len(res.entries)
    c["solvers.solutions"] += sum(len(e.solutions) for e in res.entries)


def _filtered(c, args, res):
    c["nondominance.points_in"] += len(args[0].points)
    c["nondominance.points_kept"] += len(res.points)


def _counter(key, of):
    def count(c, args, res):
        c[key] += of(args, res)
    return count


TRACED = [
    ("cli", "parse_instance", "fileio.parse_instance",
     _counter("fileio.input_bytes", lambda a, r: len(a[0].encode()))),
    ("cli", "emit_result", "fileio.emit_result",
     _counter("fileio.output_bytes", lambda a, r: len(r.encode()))),
    ("cli", "solve_shortest_path", "solvers.solve_shortest_path", _solved),
    ("cli", "solve_mixed", "solvers.solve_mixed", _solved),
    ("cli", "solve_weighted_counting", "solvers.solve_weighted_counting", _solved),
    ("cli", "solve_knapsack", "solvers.solve_knapsack", _solved),
    ("cli", "pareto_filter", "nondominance.pareto_filter", _filtered),
    ("cli", "cone_filter", "nondominance.cone_filter", _filtered),
    ("scalarization", "supporting_weights", "nondominance.supporting_weights", None),
    ("cli", "weighted_sum_solve", "scalarization.weighted_sum_solve", None),
    ("cli", "weight_space_decomposition", "scalarization.weight_space_decomposition",
     _counter("scalarization.cells", lambda a, r: len(r))),
    ("nondominance", "solve_lp", "simplex.solve_lp",
     _counter("simplex.lp_rows", lambda a, r: len(a[1]))),
]
COUNTERS = (
    "fileio.input_bytes", "fileio.output_bytes", "solvers.frontier_values",
    "solvers.solutions", "nondominance.points_in", "nondominance.points_kept",
    "scalarization.cells", "simplex.lp_rows",
)


class Tracer:
    """Spans ``(name, start, end, parent, request_id)`` kept in memory.

    ``installed()`` swaps wrappers in for the traced names and restores the
    originals on exit, so untraced requests run the unmodified program.
    """

    def __init__(self, cli):
        import ordpareto.nondominance
        import ordpareto.scalarization

        modules = {"cli": cli, "nondominance": ordpareto.nondominance,
                   "scalarization": ordpareto.scalarization}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request_id = None
        self.main = self._wrap(cli.main, "cli.main", None)
        self._swaps = [
            (modules[mod], attr, getattr(modules[mod], attr),
             self._wrap(getattr(modules[mod], attr), name, count))
            for mod, attr, name, count in TRACED
        ]

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.request_id)
            if count is not None:
                count(self.counters, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._swaps:
                setattr(module, attr, original)


if __name__ == "__main__":
    sys.exit(main())
