"""Time the accepting computation of I(a^4) on the main machine.

Run as a script, from the repository root:

    python3 tests/accept_a4.py [k [L]]

It builds the main machine at the benchmark's desk parameters (L = 4
copies unless given) with a c=1 ``DivisibleRecognizer`` over ``a``, runs
``accepting_run`` on I(a^k) (k = 4 unless given), checks the step count
for k <= 4 and that the run ends in the accept configuration, and prints
the wall time and the process's peak RSS.  It also counts the compiled
run steps (``_Step``s) the run builds and the share of its run steps,
shift and replay, that follow a compiled step's ``after`` link; the
counting wraps every run step, which adds a little to the run time.  It
exits nonzero when a check fails or, for k >= 3, when that share is below
0.99 (a short run spends a larger share compiling).  The body runs only
as a script, so test collection imports this module without running
anything.
"""

import os
import resource
import sys
import time

STEPS = {1: 18, 2: 188, 3: 2386, 4: 30948}
FOLLOWED = 0.99


def main(argv):
    """Run the checks with the run steps counted, and restore the run."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from smforge import smachine

    made, followed = [], []
    init, step = smachine._Step.__init__, smachine._Run.step

    def counted_init(self, run, rule):
        made.append(1)
        init(self, run, rule)

    def counted_step(run, rule):
        followed.append(run.last is not None and rule in run.last.after)
        step(run, rule)
    smachine._Step.__init__, smachine._Run.step = counted_init, counted_step
    try:
        return check(argv, made, followed)
    finally:
        smachine._Step.__init__, smachine._Run.step = init, step


def check(argv, made, followed):
    from smforge.mainmachine import (DivisibleRecognizer, Params,
                                     accepting_run, build_main)

    k = int(argv[0]) if argv else 4
    L = int(argv[1]) if len(argv) > 1 else 4
    t0 = time.perf_counter()
    main = build_main(("a",), DivisibleRecognizer(("a",), 1),
                      Params(2, 4, 5, L, 7, 8, 9, check_chain=False))
    t1 = time.perf_counter()
    W = main.input_i(main.machine.hw.alpha.word([main.A[0]] * k))
    res = accepting_run(W, main)
    t2 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if res is None:
        print("I(a^%d) at L = %d: rejected" % (k, L))
        return 1
    comp, _ = res
    share = sum(followed) / len(followed) if followed else 1.0
    print("I(a^%d) at L = %d: %d steps, build %.3f s, run %.3f s, "
          "peak RSS %.1f MB, %d compiled steps, %.2f%% of %d run steps "
          "follow after" % (k, L, comp.time, t1 - t0, t2 - t1, rss,
                            len(made), 100 * share, len(followed)))
    if k in STEPS and comp.time != STEPS[k]:
        print("expected %d steps" % STEPS[k])
        return 1
    if comp.final() != main.machine.accept_config():
        print("does not end in the accept configuration")
        return 1
    if k >= 3 and share < FOLLOWED:
        print("expected at least %.0f%% of run steps to follow after"
              % (100 * FOLLOWED))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
