"""Runs one workload in its own process and reports it as JSON lines.

``run.py`` starts this script under a wall-clock cap and reads its standard
output.  Every line is one event: ``plan`` (requests per pass), ``setup``,
``pass``, ``req``, ``pass_done``, and at the end ``done`` or ``trace``.  The
events are flushed as they happen, so whatever finished before the cap is
still counted when the process is killed.

Untraced runs set up several times, then repeat the request list until
``--seconds`` have passed, each pass on a fresh set-up so that every pass
does the same cold work.  Traced runs do a fixed amount of work, so that
their counts repeat exactly: one untraced set-up and pass for reference, then
one traced set-up and one traced pass.
"""

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".smbench_out"

# ``run.py`` kills this process after this many seconds, so the command
# ends within three minutes
WORKER_CAP_S = 170.0
# set-up is repeated until both hold, and at most SETUP_MAX times
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX = 5, 3.0, 121


def import_library() -> None:
    """Import smforge from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import smforge
    import smforge.groups  # noqa: F401  (not imported by the package)
    got = Path(smforge.__file__).resolve().parent
    if got != SRC / "smforge":
        raise ImportError("smforge imported from %s, not %s" % (got, SRC))


def emit(event: str, **fields) -> None:
    fields["event"] = event
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def timed_setup(workload, probe):
    gc.collect()
    t0 = time.perf_counter()
    ctx = workload.setup()
    t1 = time.perf_counter()
    problems = workload.setup_problems(ctx)
    emit("setup", wall=t1 - t0, s=probe.scaled(t0, t1), ok=not problems,
         problems=problems)
    return ctx


def run_pass(reqs, probe, tracer=None):
    """Time every request of one pass; returns (scaled seconds, steps, calls).

    ``steps`` sums the steps of the histories the passing requests returned
    and ``calls`` the traced ``apply_rule`` calls made meanwhile.
    """
    from layers import APPLY_RULE
    emit("pass", n=len(reqs))
    gc.collect()
    calls0 = tracer.calls(APPLY_RULE) if tracer else 0
    steps = 0
    t_pass = time.perf_counter()
    for r in reqs:
        t0 = time.perf_counter()
        try:
            res = r.call()
        except Exception as e:  # a raising request is a failed request
            ms = 1e3 * probe.scaled(t0, time.perf_counter())
            emit("req", kind=r.kind, label=r.label, ms=ms, ok=False,
                 why="raised %s: %s" % (type(e).__name__, e))
            continue
        ms = 1e3 * probe.scaled(t0, time.perf_counter())
        why = r.check(res)
        del res
        if why is None:
            steps += r.steps
        emit("req", kind=r.kind, label=r.label, ms=ms, ok=why is None,
             why=why)
    t_end = time.perf_counter()
    scaled = probe.scaled(t_pass, t_end)
    emit("pass_done", wall=t_end - t_pass, s=scaled)
    calls = (tracer.calls(APPLY_RULE) - calls0) if tracer else 0
    return scaled, steps, calls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, probe, seed: int, seconds: float) -> None:
    t_start = time.perf_counter()
    reps = 0
    while reps < SETUP_MAX and (reps < SETUP_MIN_REPS or
                                time.perf_counter() - t_start < SETUP_MIN_S):
        timed_setup(workload, probe)
        reps += 1
    t_measure = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # the library caches on the objects it builds, so a fresh set-up
        # keeps later passes from reusing what earlier ones computed
        ctx = timed_setup(workload, probe)
        run_pass(workload.requests(ctx, random.Random(seed)), probe)
        del ctx
        now = time.perf_counter()
        if now - t_measure >= seconds:
            break
        if now - t_start + 1.5 * (now - t0) > WORKER_CAP_S:
            break  # another pass would run into the cap
    emit("done", peak_rss_mb=peak_rss_mb())


def trace(workload, probe, seed: int, name: str) -> None:
    import layers

    ctx = timed_setup(workload, probe)
    untraced, _, _ = run_pass(workload.requests(ctx, random.Random(seed)),
                              probe)
    del ctx
    tracer = layers.make_tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        ctx = timed_setup(workload, probe)
    finally:
        tracer.uninstall()
    reqs = workload.requests(ctx, random.Random(seed))
    tracer.install()
    try:
        traced, steps, calls = run_pass(reqs, probe, tracer)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, calls, steps, traced, untraced,
                                   probe.factor(t0, time.perf_counter()))
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / ("trace-%s-seed%d.json" % (name, seed))
    dump = tracer.dump()
    dump.update(workload=name, seed=seed, traced_run_s=traced,
                untraced_run_s=untraced)
    out.write_text(json.dumps(dump, indent=1) + "\n")
    emit("trace", metrics=metrics, absent=tracer.absent,
         untraced_run_s=untraced, traced_run_s=traced,
         file=str(out.relative_to(ROOT)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cheap requests, for the self-test")
    args = ap.parse_args(argv)
    try:
        import_library()
    except ImportError:
        traceback.print_exc()
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    emit("plan", n=workload.per_pass)
    probe = SpeedProbe()
    probe.start()
    try:
        if args.trace:
            trace(workload, probe, args.seed, args.workload)
        else:
            measure(workload, probe, args.seed, args.seconds)
    finally:
        probe.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
