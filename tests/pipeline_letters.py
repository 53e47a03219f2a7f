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
decorated by three noise steps, which must read back those steps.  Then
it times one ``lambda_accept`` (decode, membership and replay), twice:
the marked block of the first 8 tape letters, pushed through 6 noise
steps, judged by the language of the machine's recognizer (nonempty
positive words); it must accept with the inverse history and end at the
block.  The first call spells the images the replay moves, the second
finds them spelled.  It prints the build time, the folders built, the
inverse rules built and their time, the decode time, the two
``lambda_accept`` times and the process's peak RSS, and exits nonzero
when a check fails.
The body runs only as a script, so test collection imports this module
without running anything.
"""

import os
import resource
import sys
import time


def main(argv):
    """Run the checks with the folders counted, and restore the folder."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from smforge import words

    folds = []
    init = words._Folder.__init__

    def counted(self, basis):
        folds.append(1)
        init(self, basis)
    words._Folder.__init__ = counted
    try:
        return check(argv, folds)
    finally:
        words._Folder.__init__ = init


def check(argv, folds):
    from smforge import embedding, words
    from smforge.machines import strip_history
    from smforge.mainmachine import (DivisibleRecognizer, Params, build_main,
                                     lambda_accept)

    C = int(argv[0]) if argv else 8
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
    # 8 markers after 6 noise steps, alternating the two noise rules
    mm = main.machine
    block = main.payload(pipe.A.word(list(pipe.A.ids())[:8]))
    marked = words.relabel(block, dict(zip(main.A, main.A1)), mm.hw.alpha)
    names = ["1." + main.scheme.rule_name(b) for b in main.scheme.B]
    push = [(names[i % 2], s) for i, s in enumerate((1, 1, -1, -1, 1, -1))]
    w = mm.semi_run(marked, main.special_sector, push)[-1]
    undo = [(n, -s) for n, s in reversed(push)] + [("s1", -1)]
    accepts = []
    for _ in range(2):
        t5 = time.perf_counter()
        got = lambda_accept(w, main, lambda u: bool(u) and min(u.ltrs) > 0)
        accepts.append((time.perf_counter() - t5, got))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("pipeline Z2 at C = %d: %d tape letters, %d rules, build %.2f s, "
          "%d folders, %d inverse rules in %.2f s, first decode %.3f s, "
          "lambda_accept of %d letters %.3f s then %.3f s, peak RSS %.1f MB"
          % (C, len(letters), len(main.machine.rules), t1 - t0, len(folds),
             sum(len(m.rules) for m in machines), t2 - t1, t4 - t3, len(w),
             accepts[0][0], accepts[1][0], rss))
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
    for _, got in accepts:
        if got is None or got[0] != undo or got[1][-1] != block:
            print("lambda_accept did not undo the noise steps to the block")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
