"""Build and check the disk diagram of I(a^3) on the main machine.

Run as a script, from the repository root:

    python3 tests/disk_a3.py

It builds the main machine at the benchmark's desk parameters (L = 4)
with a c=1 ``DivisibleRecognizer`` over ``a``, emits the level-G
presentation, builds the disk of I(a^3) with ``build_disk_diagram`` and
checks it with ``diagram_report``.  It checks the area (21,144,065), the
band count (2,386, one per step of the accepting run), that the report
finds no defect and that the process's peak RSS stays within
``MAX_RSS_MB``, and prints the build and report times and the peak RSS.
The disk holds one reference per cell, about 170 MB on a 64-bit build;
its row labels are read off the cells, not stored, and a stored copy of
them would take the peak past the guard.  It exits nonzero when a check
fails.  The body runs only as a script, so test collection imports this
module without running anything.
"""

import os
import resource
import sys
import time

AREA = 21144065
BANDS = 2386
MAX_RSS_MB = 300


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
    if rss > MAX_RSS_MB:
        print("peak RSS above %d MB" % MAX_RSS_MB)
        ok = False
    for msg in defects[:5]:
        print(msg)
    return 0 if ok and not defects else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
