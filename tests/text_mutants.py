"""Read single-edit mutants of machine text: each is refused, or it is the
text of the machine it reads as.

Run as a script, from the repository root:

    python3 tests/text_mutants.py [n [seed]]

A mutant deletes, inserts or replaces one character of a machine's text,
at one of the text's positions, with one of the text's own characters or
``x``.  A mutant with the same whitespace-split tokens as the text is
skipped (the edit changed only whitespace), and each distinct mutant is
read once.  It reads every mutant of the texts of M1 over ``a``, of the
tiny machine (``test_smachine``) and of WRAP (``test_groups``), and n
distinct mutants (20,000 unless given) of M5's text (the benchmark's desk
parameters, L = 4, c = 1), drawn in the order of ``random.Random(seed)``
(seed 7 unless given); ``test_machines.mutant_texts`` builds the four
texts.  Each mutant must raise ``ParseError``, or read as a machine whose
``machine_to_text`` it is, line for line, up to the order of the lines
and the whitespace between tokens (``test_machines.own_lines``).  It
prints each mutant that is misread or raises anything else, and exits
nonzero if there is one.  Its last line reads

    text mutants: N (M1 a, tiny b, WRAP c, M5 d of e, seed s): R read as
    their own text, 0 misread, 0 other errors (T s)

The body runs only as a script, so test collection imports this module
without running anything.
"""

import hashlib
import os
import random
import sys
import time


def mutant(base, chars, i):
    """Edit i of ``base``: each position k has 2 len(chars) + 1 of them,
    its deletion, then the insertion and the replacement of each char."""
    k, j = divmod(i, 2 * len(chars) + 1)
    ch = chars[(j - 1) // 2] if j else ""
    return base[:k] + ch + base[k + (j % 2 == 0):]


def mutants(base, order):
    """The distinct mutants of ``base`` that change more than whitespace,
    taking its edits in ``order`` (a function of their number)."""
    chars = sorted(set(base)) + ["x"]
    tokens, seen = base.split(), set()
    for i in order(len(base) * (2 * len(chars) + 1)):
        text = mutant(base, chars, i)
        key = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if text.split() != tokens and key not in seen:
            seen.add(key)
            yield text


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(here, "..", "src")]
    from smforge.smachine import ParseError, machine_from_text, machine_to_text
    from test_machines import mutant_texts, own_lines

    n = int(argv[0]) if argv else 20000
    seed = int(argv[1]) if len(argv) > 1 else 7
    t0 = time.perf_counter()
    texts = mutant_texts()
    rng = random.Random(seed)
    sets = {name: mutants(texts[name], range) for name in ("M1", "tiny",
                                                           "WRAP")}
    every_m5 = sum(1 for _ in mutants(texts["M5"], range))
    sets["M5"] = mutants(texts["M5"], lambda m: rng.sample(range(m), m))
    counts, own, bad = {}, 0, []
    for name, texts_of in sets.items():
        counts[name] = 0
        for text in texts_of:
            if name == "M5" and counts[name] == n:
                break
            counts[name] += 1
            try:
                m = machine_from_text(text)
            except ParseError:
                continue
            except Exception as e:  # anything but ParseError is a fault
                bad.append(("other", name, text, repr(e)))
                continue
            if own_lines(machine_to_text(m)) == own_lines(text):
                own += 1
            else:
                bad.append(("misread", name, text, ""))
    for what, name, text, error in bad:
        print("%s mutant of %s: %r %s" % (what, name, text, error))
    misread = sum(what == "misread" for what, *_ in bad)
    print("text mutants: %d (M1 %d, tiny %d, WRAP %d, M5 %d of %d, seed "
          "%d): %d read as their own text, %d misread, %d other errors "
          "(%.1f s)" % (sum(counts.values()), counts["M1"], counts["tiny"],
                        counts["WRAP"], counts["M5"], every_m5, seed, own,
                        misread, len(bad) - misread,
                        time.perf_counter() - t0))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
