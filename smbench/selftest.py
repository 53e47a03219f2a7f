"""Self-test of the benchmark at smoke size; well under a minute.

    python3 smbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the runs print, that an
untraced run prints every end-to-end metric with its unit and no failures,
that a wrong expected value or an unfinished pass counts as failed and makes
the command fail, that two traced runs give identical counts, that tracing
puts every smforge binding back, and that a traced function which no longer
exists is reported absent instead of crashing.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402
import worker  # noqa: E402
from speed import SpeedProbe  # noqa: E402

failures = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(workload: str, trace: int, seed: int = 7) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=str(ROOT), capture_output=True, text=True,
        timeout=300)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def test_benchmark_json() -> None:
    import layers
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]}
          == run.END_TO_END, "BENCHMARK.json lists the end-to-end metrics")
    check(spec["per_layer"] == layers.metric_specs(),
          "BENCHMARK.json lists the per-layer metrics")
    check([w["name"] for w in spec["workloads"]]
          == list(run.WORKLOAD_NAMES), "BENCHMARK.json lists the workloads")


def test_untraced_runs() -> None:
    for name in run.WORKLOAD_NAMES:
        code, lines, res = bench(name, 0)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              "%s: untraced smoke run passes" % name)
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        check(got == run.END_TO_END,
              "%s: every end-to-end metric with its unit" % name)
        for metric, unit in run.END_TO_END.items():
            check(any(line.split()[:1] == [metric] and unit in line.split()
                      for line in lines),
                  "%s: %s printed by name with its unit" % (name, metric))
        check(any(line.split()[:1] == ["fail_ratio"] for line in lines),
              "%s: fail_ratio printed" % name)


def events_of(fn, *args) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_wrong_expectation_fails() -> None:
    import random
    import workloads
    wl = workloads.Accept(smoke=True)
    ctx = wl.setup()
    saved = dict(workloads.ACCEPT_STEPS)
    workloads.ACCEPT_STEPS["a"] += 1
    try:
        reqs = wl.requests(ctx, random.Random(1))
    finally:
        workloads.ACCEPT_STEPS.update(saved)
    events = [{"event": "plan", "n": wl.per_pass}]
    events += events_of(worker.run_pass, reqs, SpeedProbe())
    _, res = run.result(events, False, False, 0)
    check(res["failed"] == 2 and not res["correct"],
          "a wrong expected step count fails I(a) and J(a)")
    # a pass cut short by the cap: the requests it never reached fail too
    cut = [e for e in events if e["event"] != "req"][:2]
    cut.append(next(e for e in events if e["event"] == "req"))
    _, res = run.result(cut, False, True, -9)
    check(res["attempted"] == wl.per_pass and
          res["failed"] == wl.per_pass - cut[-1]["ok"],
          "requests unfinished at the cap count as failed")


def test_traced_counts_repeat() -> None:
    import layers
    units = {m["name"]: m["unit"] for m in layers.metric_specs()}
    for name in run.WORKLOAD_NAMES:
        runs = [bench(name, 1) for _ in range(2)]
        check(all(code == 0 for code, _, _ in runs),
              "%s: traced smoke runs pass" % name)
        counts = [{k: m["value"] for k, m in res["metrics"].items()
                   if units[k] == "count"} for _, _, res in runs]
        check(counts[0] == counts[1] and counts[0],
              "%s: two traced runs give identical counts" % name)
        check(set(runs[0][2]["metrics"]) == set(units),
              "%s: every per-layer metric reported" % name)


def bindings() -> dict:
    import smforge.smachine as sm
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "smforge" or modname.startswith("smforge."):
            out.update({(modname, k): v for k, v in vars(mod).items()})
    for cls in (sm.SectorRule, sm.GeneralizedRule):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracing_restores() -> None:
    import random
    import layers
    import smforge
    import smforge.smachine as sm
    import workloads
    before = bindings()
    original = sm.apply_rule
    tracer = layers.make_tracer()
    tracer.install()
    try:
        wrapped = (sm.apply_rule is not original
                   and smforge.apply_rule is sm.apply_rule)
        wl = workloads.Diagram(smoke=True)
        events_of(worker.run_pass,
                  wl.requests(wl.setup(), random.Random(1)), SpeedProbe(),
                  tracer)
    finally:
        tracer.uninstall()
    check(wrapped, "install wraps every binding of a function")
    after = bindings()
    check(before.keys() == after.keys() and
          all(before[k] is after[k] for k in before),
          "uninstall leaves every smforge binding as it found it")
    check(tracer.calls("smachine.apply_rule") > 0, "the wrappers counted")


def test_missing_functions() -> None:
    import layers
    import smforge.machines as mach
    from tracer import Tracer
    bogus = Tracer([("words", "no_such_function"),
                    ("smachine", "SectorRule.no_such_method"),
                    ("no_such_module", "f")])
    bogus.install()
    bogus.uninstall()
    check(bogus.absent == ["words.no_such_function",
                           "smachine.SectorRule.no_such_method",
                           "no_such_module.f"],
          "targets that do not exist are listed absent")
    # a later change deletes a wrapped function: its metrics go absent
    saved = mach.decode_noise
    del mach.decode_noise
    try:
        tracer = layers.make_tracer()
        tracer.install()
        tracer.uninstall()
        metrics = layers.layer_metrics(tracer, 0, 0, 1.0, 1.0, 1.0)
    finally:
        mach.decode_noise = saved
    check(tracer.absent == ["machines.decode_noise"]
          and "machines.decode_noise.calls" not in metrics
          and "machines.shift.calls" in metrics,
          "a deleted function is reported absent, the rest still measured")


def main() -> int:
    worker.import_library()
    test_benchmark_json()
    test_wrong_expectation_fails()
    test_tracing_restores()
    test_missing_functions()
    test_untraced_runs()
    test_traced_counts_repeat()
    print("%d failed checks" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
