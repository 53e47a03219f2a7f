"""Build and run the main machine at the paper's own parameter chain.

Run as a script, from the repository root:

    python3 tests/paper_params.py

It builds the main machine at ``Params(2, 2744, 2745, 2746, 2747, 2748,
2749)``, the smallest ordered chain that passes ``paper_violations``
(L = 2,746 ring copies), with a c=1 ``DivisibleRecognizer`` over ``a``.
It checks that ``paper_violations`` is empty, runs ``accepting_run`` on
I(a^k) for k = 1..4 and checks the step counts and that each run ends in
the accept configuration, emits the level-G presentation and checks that
it has 190 L - 9 relators, and prints the build, run and presentation
times and the process's peak RSS.  The I(a) disk (area 862,245) is left
out: it takes about 21 s and 1.2 GB on a 2-core host, too much for a
CI step.  It exits nonzero when a check fails.  The body runs only as a
script, so test collection imports this module without running anything.
"""

import os
import resource
import sys
import time

STEPS = {1: 18, 2: 188, 3: 2386, 4: 30948}


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from smforge.groups import emit_presentation
    from smforge.mainmachine import (DivisibleRecognizer, Params,
                                     accepting_run, build_main,
                                     paper_violations)

    params = Params(2, 2744, 2745, 2746, 2747, 2748, 2749)
    failed = paper_violations(params)
    if failed:
        print("paper constraints fail: %s" % ", ".join(failed))
        return 1
    L = params.L
    t0 = time.perf_counter()
    main = build_main(("a",), DivisibleRecognizer(("a",), 1), params)
    t1 = time.perf_counter()
    steps = []
    for k in sorted(STEPS):
        W = main.input_i(main.machine.hw.alpha.word([main.A[0]] * k))
        res = accepting_run(W, main)
        if res is None:
            print("I(a^%d) at L = %d: rejected" % (k, L))
            return 1
        comp, _ = res
        if comp.time != STEPS[k]:
            print("I(a^%d): %d steps, expected %d" % (k, comp.time, STEPS[k]))
            return 1
        if comp.final() != main.machine.accept_config():
            print("I(a^%d) does not end in the accept configuration" % k)
            return 1
        steps.append(comp.time)
    t2 = time.perf_counter()
    pres = emit_presentation(main.machine, level="G")
    t3 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("paper chain at L = %d: I(a^1..4) in %s steps, %d relators, "
          "build %.2f s, runs %.2f s, presentation %.2f s, peak RSS %.1f MB"
          % (L, " / ".join(map(str, steps)), len(pres.relators), t1 - t0,
             t2 - t1, t3 - t2, rss))
    if len(pres.relators) != 190 * L - 9:
        print("expected %d relators" % (190 * L - 9))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
