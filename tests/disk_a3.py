"""Build and check the disk diagram of I(a^3) on the main machine.

Run as a script, from the repository root:

    python3 tests/disk_a3.py

It builds the main machine at the benchmark's desk parameters (L = 4)
with a c=1 ``DivisibleRecognizer`` over ``a``, emits the level-G
presentation, builds the disk of I(a^3) with ``build_disk_diagram`` and
checks it with ``diagram_report``.  It checks the area (21,144,065), the
band count (2,386, one per step of the accepting run) and that the report
finds no defect, and prints the build and report times and the process's
peak RSS.  It exits nonzero when a check fails.  The body runs only as a
script, so test collection imports this module without running anything.
"""

import os
import resource
import sys
import time

AREA = 21144065
BANDS = 2386


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from smforge.groups import (build_disk_diagram, diagram_report,
                                emit_presentation)
    from smforge.mainmachine import DivisibleRecognizer, Params, build_main

    main = build_main(("a",), DivisibleRecognizer(("a",), 1),
                      Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))
    pres = emit_presentation(main.machine, level="G")
    W = main.input_i(main.machine.hw.alpha.word([main.A[0]] * 3))
    t0 = time.perf_counter()
    d = build_disk_diagram(W, main, pres)
    t1 = time.perf_counter()
    defects = diagram_report(d, pres)
    t2 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bands = len(d.history)
    print("I(a^3) disk: area %d, %d bands, %d defects, build %.1f s, "
          "report %.1f s, peak RSS %.0f MB"
          % (d.area, bands, len(defects), t1 - t0, t2 - t1, rss))
    ok = True
    if d.area != AREA:
        print("expected area %d" % AREA)
        ok = False
    if bands != BANDS or len(d.rows) != BANDS + 1:
        print("expected %d bands and a hub" % BANDS)
        ok = False
    for msg in defects[:5]:
        print(msg)
    return 0 if ok and not defects else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
