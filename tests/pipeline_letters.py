"""Build the main machine over the Z2 pipeline's tape letters.

Run as a script, from the repository root:

    python3 tests/pipeline_letters.py [C]

It builds the Z2 embedding pipeline at C = 8 unless given (2 C tape
letters: 16 at C = 8), and on its letters the main machine at the
benchmark's desk parameters (L = 4 copies) with a c=1
``DivisibleRecognizer``.  It checks the letter count and that the build
folds no basis: every sector basis the tower checks is free on sight, so
no Stallings folder is built.  It prints the build time, the folders
built and the process's peak RSS, and exits nonzero when a check fails.
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
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("pipeline Z2 at C = %d: %d tape letters, %d rules, build %.2f s, "
          "%d folders, peak RSS %.1f MB"
          % (C, len(letters), len(main.machine.rules), t1 - t0, len(folds),
             rss))
    if len(letters) != 2 * C:
        print("expected %d tape letters" % (2 * C))
        return 1
    if folds:
        print("expected no folders")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
