"""Build the main machine over the Z2 pipeline's tape letters.

Run as a script, from the repository root:

    python3 tests/pipeline_letters.py [C]

It builds the Z2 embedding pipeline at C = 8 unless given (2 C tape
letters: 16 at C = 8), and on its letters the main machine at the
benchmark's desk parameters (L = 4 copies) with a c=1
``DivisibleRecognizer``.  It checks the letter count and that the build
folds no basis: every sector basis the tower checks is free on sight, so
no Stallings folder is built.  Then it builds every inverse rule of the
main machine, of M1 and of M5; each is checked when it is built, like
every rule, and none may be refused.  Last it times the first decode on
the machine: one ``strip_history`` on its ``local_scheme`` of a marker
decorated by three noise steps, which must read back those steps.  It
prints the build time, the folders built, the inverse rules built and
their time, the decode time and the process's peak RSS, and exits
nonzero when a check fails.
The body runs only as a script, so test collection imports this module
without running anything.
"""

import os
import resource
import sys
import time


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from smforge import embedding, words
    from smforge.machines import strip_history
    from smforge.mainmachine import DivisibleRecognizer, Params, build_main

    C = int(argv[0]) if argv else 8
    folds = []
    init = words._Folder.__init__

    def counted(self, basis):
        folds.append(1)
        init(self, basis)
    words._Folder.__init__ = counted

    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z2"), C)
    letters = tuple(pipe.letters)
    t0 = time.perf_counter()
    main = build_main(letters, DivisibleRecognizer(letters, 1),
                      Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))
    t1 = time.perf_counter()
    refused = []
    machines = (main.machine, main.m1, main.m5)
    for m in machines:
        for name in m.rules:
            try:
                m.rule(name, -1)
            except ValueError as e:
                refused.append("%s %s: %s" % (m.name, name, e))
    t2 = time.perf_counter()
    # the marker of a after the noise steps of ys, last to first:
    # v(y3, a) v(y2, a) v(y1, a) a1, which their inverses strip in order
    sch = main.local_scheme
    a, ys = sch.A[0], (sch.B[0], sch.A[-1], sch.B[1])
    ltrs = sum((sch.noise_word(y, a).ltrs for y in reversed(ys)), ())
    w = words.Word(sch.alpha, ltrs + (sch.mark(a),))
    t3 = time.perf_counter()
    stripped = strip_history(w, sch)
    t4 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("pipeline Z2 at C = %d: %d tape letters, %d rules, build %.2f s, "
          "%d folders, %d inverse rules in %.2f s, first decode %.3f s, "
          "peak RSS %.1f MB"
          % (C, len(letters), len(main.machine.rules), t1 - t0, len(folds),
             sum(len(m.rules) for m in machines), t2 - t1, t4 - t3, rss))
    if len(letters) != 2 * C:
        print("expected %d tape letters" % (2 * C))
        return 1
    if folds:
        print("expected no folders")
        return 1
    if refused:
        print("inverse rules refused:\n" + "\n".join(refused))
        return 1
    if stripped is None or stripped[0] != [(sch.rule_name(y), -1)
                                           for y in ys]:
        print("the decode did not read back the noise steps")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
