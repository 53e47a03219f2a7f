"""smforge benchmark: one workload, one client, one request at a time.

    python3 smbench/run.py --workload accept --seed 1 --seconds 20 --trace 0

Workloads are ``accept``, ``diagram`` and ``language`` (see
``workloads.py``).  The workload runs in a fresh child process under a
wall-clock cap; requests still unfinished at the cap count as failed.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (see ``layers.py``).  Times are
wall times rescaled to a nominal machine speed measured while the workload
runs (see ``speed.py``); the plain wall times are printed beside them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
request gave its expected result, 1 when some did not, and 2 when nothing
could be measured, for example without the library's sources beside this
directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from layers import describe
from worker import WORKER_CAP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIBRARY = ROOT / "src" / "smforge" / "__init__.py"
WORKLOAD_NAMES = ("accept", "diagram", "language")

# name -> unit of the metrics an untraced run reports
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def run_worker(args) -> tuple:
    """The worker's events and whether it was stopped by the cap."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    # a fixed hash seed keeps set iteration, and so the traced counts, equal
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, text=True)
    capped = False
    try:
        out, _ = proc.communicate(timeout=WORKER_CAP_S)
    except subprocess.TimeoutExpired:
        capped = True
        proc.kill()
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events, capped, proc.returncode


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_failures(events: List[dict]) -> tuple:
    """(attempted, failed) over set-ups and requests.

    A request fails if it raised, gave a wrong result, or had not finished
    when the worker stopped: each announced pass counts all its requests as
    attempted, and the first pass counts even if it never started.
    """
    plan = next((e["n"] for e in events if e["event"] == "plan"), 0)
    setups = [e for e in events if e["event"] == "setup"]
    passes = [e["n"] for e in events if e["event"] == "pass"]
    reqs = [e for e in events if e["event"] == "req"]
    attempted = len(setups) + (sum(passes) if passes else plan)
    ok = sum(e["ok"] for e in setups) + sum(e["ok"] for e in reqs)
    return max(attempted, 1), max(attempted, 1) - ok


def report(events: List[dict], trace: bool) -> tuple:
    """(human-readable lines, metrics) of a finished worker."""
    lines: List[str] = []
    metrics: Dict[str, dict] = {}
    setups = [e["s"] for e in events if e["event"] == "setup"]
    passes = [e["s"] for e in events if e["event"] == "pass_done"]
    walls = {"setup_s": [e["wall"] for e in events if e["event"] == "setup"],
             "run_s": [e["wall"] for e in events if e["event"] == "pass_done"]}
    reqs = [e for e in events if e["event"] == "req"]
    for e in reqs:
        if not e["ok"]:
            lines.append("FAILED %s %s: %s" % (e["kind"], e["label"],
                                               e["why"]))
    for e in events:
        if e["event"] == "setup" and not e["ok"]:
            lines.append("FAILED set-up: %s" % "; ".join(e["problems"]))
    if trace:
        tr = next((e for e in events if e["event"] == "trace"), None)
        if tr is None:
            return lines, metrics
        metrics = tr["metrics"]
        lines.append("untraced pass %.4f s, traced pass %.4f s; spans in %s"
                     % (tr["untraced_run_s"], tr["traced_run_s"], tr["file"]))
        if tr["absent"]:
            lines.append("absent (not found, not traced): %s"
                         % ", ".join(tr["absent"]))
        for name, m in metrics.items():
            lines.append("  %-44s %14.6g %-5s %s" % (
                name, m["value"], m["unit"], describe(name)))
        return lines, metrics
    done = next((e for e in events if e["event"] == "done"), None)
    values = {"setup_s": statistics.median(setups) if setups else None,
              "run_s": statistics.median(passes) if passes else None,
              "peak_rss_mb": done["peak_rss_mb"] if done else None}
    for name, value in values.items():
        if value is None:
            continue
        metrics[name] = {"value": value, "unit": END_TO_END[name]}
        note = ""
        if name in walls:
            note = "median of %d, at nominal speed; wall %.6f s" % (
                len(walls[name]), statistics.median(walls[name]))
        lines.append("  %-14s %14.6f %-3s %s" % (
            name, value, END_TO_END[name], note))
    # latency: percentiles where a kind has enough samples, else per input
    for kind in sorted({e["kind"] for e in reqs}):
        ok = [e for e in reqs if e["kind"] == kind and e["ok"]]
        ms = [e["ms"] for e in ok]
        if len(ms) >= 20:
            lines.append("  %-14s p50 %.3f ms, p95 %.3f ms over %d requests,"
                         " at nominal speed"
                         % (kind + "_ms", percentile(ms, 50),
                            percentile(ms, 95), len(ms)))
            continue
        for label in sorted({e["label"] for e in ok}):
            ms = [e["ms"] for e in ok if e["label"] == label]
            lines.append("  %-14s %14.3f ms  %s, median of %d,"
                         " at nominal speed" % (kind + "_ms",
                                                statistics.median(ms), label,
                                                len(ms)))
    return lines, metrics


def result(events: List[dict], trace: bool, capped: bool,
           code: int) -> tuple:
    """(human-readable lines, result object) of one worker run."""
    attempted, failed = count_failures(events)
    lines, metrics = report(events, trace)
    if capped:
        lines.append("STOPPED by the %.0f s cap; unfinished requests failed"
                     % WORKER_CAP_S)
    elif code != 0:
        lines.append("worker exited with code %s" % code)
        failed = max(failed, 1)
    lines.append("  %-14s %14.6f     %d failed of %d attempted"
                 % ("fail_ratio", failed / attempted, failed, attempted))
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cheap requests, for the self-test")
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    if not LIBRARY.is_file():
        print("error: no smforge sources at %s" % LIBRARY.parent,
              file=sys.stderr)
        return 2
    events, capped, code = run_worker(args)
    if not any(e["event"] == "plan" for e in events):
        print("error: the worker stopped before it started (exit %s)"
              % code, file=sys.stderr)
        return 2
    lines, res = result(events, bool(args.trace), capped, code)
    print("smbench %s seed=%d trace=%d: %.1f s" % (
        args.workload, args.seed, args.trace, time.monotonic() - t0))
    for line in lines:
        print(line)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
