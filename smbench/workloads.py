"""The smforge workloads: set-up, seeded inputs, requests and their checks.

Every workload uses the desk parameters of the test suite with L = 4.  Each
request knows its expected result before it runs: a recorded constant, or
what follows from how its input was built, never a value computed by the
function being timed.  Library functions are looked up on their modules at
call time, so the traced run sees the calls.
"""

import random
from typing import Callable, List, NamedTuple, Optional

from smforge import embedding, groups, mainmachine
from smforge.words import relabel


def desk_params() -> "mainmachine.Params":
    return mainmachine.Params(2, 4, 5, 4, 7, 8, 9, check_chain=False)


def divisible_main(letters):
    return mainmachine.build_main(
        tuple(letters), mainmachine.DivisibleRecognizer(tuple(letters), 1),
        desk_params())


# Recorded at the commit that defined the benchmark.
ACCEPT_STEPS = {"a": 18, "aa": 188, "aaa": 2386, "ab": 1128, "ba": 1128}
DISK_AREAS = {"I(a)": 1257, "J(a)": 1177, "I(a^2)": 131161}
RELATORS_G = 751
LANGUAGE_LETTERS = 4


class Request(NamedTuple):
    kind: str
    label: str
    call: Callable[[], object]
    # returns None when the result is right, else what is wrong with it
    check: Callable[[object], Optional[str]]
    # steps of the history the request returns when it succeeds
    steps: int


def _expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


# -- accept ------------------------------------------------------------------

def _accept_request(main, shape: str, ltrs, label: str,
                    steps: Optional[int]) -> Request:
    al = main.machine.hw.alpha
    w = al.word(ltrs)
    W = main.input_i(w) if shape == "I" else main.input_j(w)

    def call():
        return mainmachine.accepting_run(W, main)

    def check(res) -> Optional[str]:
        if steps is None:
            return _expect(res is None, "accepted, expected a rejection")
        if res is None:
            return "rejected, expected %d steps" % steps
        comp, ell = res
        return (_expect(comp.time == steps,
                        "%d steps, expected %d" % (comp.time, steps))
                or _expect(ell == 1, "%d machines, expected 1" % ell)
                or _expect(comp.words[0] == W, "starts elsewhere")
                or _expect(comp.final() == main.machine.accept_config(),
                           "does not end in the accept configuration"))

    return Request("accept", label, call, check, steps or 0)


class Accept:
    """Full-configuration synthesis and replay on noise-decorated tapes."""

    name = "accept"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.per_pass = 4 if smoke else 9

    def setup(self):
        return divisible_main("a"), divisible_main("ab")

    def setup_problems(self, ctx) -> List[str]:
        ma, mab = ctx
        return [p for p in (
            _expect(len(ma.A) == 1, "M(a) has %d letters" % len(ma.A)),
            _expect(len(mab.A) == 2, "M(a,b) has %d letters" % len(mab.A)),
        ) if p]

    def requests(self, ctx, rng: random.Random) -> List[Request]:
        ma, mab = ctx
        a = ma.A[0]
        x, y = mab.A
        s = ACCEPT_STEPS
        specs = [(ma, "I", [a], "I(a)", s["a"]),
                 (ma, "J", [a], "J(a)", s["a"]),
                 (ma, "I", [-a], "I(a^-1)", None),
                 (mab, "I", [x, -y], "I(ab^-1)", None)]
        if not self.smoke:
            specs += [(ma, "I", [a] * 3, "I(a^3)", s["aaa"]),
                      (ma, "I", [a] * 2, "I(a^2)", s["aa"]),
                      (ma, "J", [a] * 2, "J(a^2)", s["aa"]),
                      (mab, "I", [x, y], "I(ab)", s["ab"]),
                      (mab, "J", [y, x], "J(ba)", s["ba"])]
        reqs = [_accept_request(*spec) for spec in specs]
        rng.shuffle(reqs)
        return reqs


# -- diagram -----------------------------------------------------------------

def _disk_request(main, pres, W, label: str) -> Request:
    area = DISK_AREAS[label]
    steps = ACCEPT_STEPS["aa" if label == "I(a^2)" else "a"]

    def call():
        d = groups.build_disk_diagram(W, main, pres)
        # keep only what the check needs, so the diagram is freed here
        return d.area, len(d.history), groups.diagram_report(d, pres)

    def check(res) -> Optional[str]:
        got_area, got_steps, defects = res
        return (_expect(got_area == area,
                        "area %d, expected %d" % (got_area, area))
                or _expect(got_steps == steps,
                           "%d bands, expected %d" % (got_steps, steps))
                or _expect(not defects, "%d defects, first: %s"
                           % (len(defects), defects[:1])))

    return Request("disk", label, call, check, steps)


class Diagram:
    """Disk diagrams of accepted inputs and their cell-by-cell check."""

    name = "diagram"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.per_pass = 2 if smoke else 3

    def setup(self):
        main = divisible_main("a")
        return main, groups.emit_presentation(main.machine, level="G")

    def setup_problems(self, ctx) -> List[str]:
        n = len(ctx[1].relators)
        return [] if n == RELATORS_G else [
            "%d relators, expected %d" % (n, RELATORS_G)]

    def requests(self, ctx, rng: random.Random) -> List[Request]:
        main, pres = ctx
        al = main.machine.hw.alpha
        a = main.A[0]
        reqs = [_disk_request(main, pres, main.input_i(al.word([a])), "I(a)"),
                _disk_request(main, pres, main.input_j(al.word([a])), "J(a)")]
        if not self.smoke:
            reqs.append(_disk_request(
                main, pres, main.input_i(al.word([a, a])), "I(a^2)"))
        rng.shuffle(reqs)
        return reqs


# -- language ----------------------------------------------------------------

def _noise_history(rng: random.Random, names, depth: int):
    """A reduced history with depth // 2 positive steps in seeded order.

    Undoing a positive step costs about half as much again as undoing a
    negative one, so the count is fixed to keep the work equal across seeds.
    """
    signs = [1] * (depth // 2) + [-1] * (depth - depth // 2)
    rng.shuffle(signs)
    hist: list = []
    for s in signs:
        hist.append((rng.choice([n for n in names
                                 if not hist or hist[-1] != (n, -s)]), s))
    return hist


def _reduced_word(rng: random.Random, alpha, pool, n: int):
    out: List[int] = []
    while len(out) < n:
        x = rng.choice(pool) * rng.choice((1, -1))
        if out and out[-1] == -x:
            continue
        out.append(x)
    return alpha.raw_word(out)


class Language:
    """Sector-language and expanded word-problem decisions.

    Sector inputs are marked block words of Z-words pushed through a seeded
    noise history; half of the Z-words are trivial, and exactly those are
    accepted.  Word-problem inputs are products of conjugated relators,
    trivial by construction; half lose one letter, which makes them
    nontrivial because no generator of the expanded group is trivial.
    """

    name = "language"

    def __init__(self, smoke: bool = False):
        self.n_sector = 6 if smoke else 200
        self.n_wp = 6 if smoke else 200
        self.per_pass = self.n_sector + self.n_wp

    def setup(self):
        pipe = embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)
        return pipe, divisible_main(pipe.letters)

    def setup_problems(self, ctx) -> List[str]:
        n = len(ctx[0].letters)
        return [] if n == LANGUAGE_LETTERS else [
            "%d tape letters, expected %d" % (n, LANGUAGE_LETTERS)]

    def requests(self, ctx, rng: random.Random) -> List[Request]:
        pipe, main = ctx
        # Sizes run through a fixed grid and the seed draws the rest, so
        # every seed gives the same amount of work.
        reqs = [self._sector_request(pipe, main, rng, trivial=i % 2 == 0,
                                     k=1 + i // 2 % 3, depth=4 + i // 6 % 9,
                                     more=i // 54 % 2 == 0)
                for i in range(self.n_sector)]
        reqs += [self._wp_request(pipe, rng, trivial=i % 2 == 0,
                                  factors=10 + 70 * i // (self.n_wp - 1))
                 for i in range(self.n_wp)]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _z_word(pipe, rng: random.Random, trivial: bool, k: int, more: bool):
        """k letters x and k letters x~ in seeded order, or one x~ more or
        one fewer."""
        trick = pipe.trick
        x, xb = trick.y_plain[0], trick.y_bar[0]
        kb = k if trivial else k + 1 if more else k - 1
        ys = [x] * k + [xb] * kb
        rng.shuffle(ys)
        return trick.Y.word(ys)

    def _sector_request(self, pipe, main, rng: random.Random, trivial: bool,
                        k: int, depth: int, more: bool) -> Request:
        mm, sch = main.machine, main.scheme
        block = main.payload(pipe.zeta_t(
            pipe.exp.phi(self._z_word(pipe, rng, trivial, k, more))))
        marked = relabel(block, dict(zip(main.A, main.A1)), mm.hw.alpha)
        noise = ["1." + sch.rule_name(b) for b in sch.B]
        push = _noise_history(rng, noise, depth)
        w = mm.semi_run(marked, main.special_sector, push)[-1]
        to_tape = {y: pipe.A.id_of(sch.alpha.name_of(y)) for y in sch.A}
        undo = [(n, -s) for n, s in reversed(push)] + [("s1", -1)]

        def member(u) -> bool:
            return embedding.lambda_oracle(relabel(u, to_tape, pipe.A), pipe)

        def call():
            return mainmachine.lambda_accept(w, main, member)

        def check(res) -> Optional[str]:
            if not trivial:
                return _expect(res is None, "accepted a nontrivial word")
            if res is None:
                return "rejected a trivial word"
            hist, words = res
            return (_expect(hist == undo, "history is not the inverse push")
                    or _expect(words[-1] == block,
                               "does not end in the plain block word"))

        label = "%s push %d, %d letters" % (
            "trivial" if trivial else "nontrivial", len(push), len(w))
        return Request("sector", label, call, check,
                       len(undo) if trivial else 0)

    @staticmethod
    def _wp_request(pipe, rng: random.Random, trivial: bool,
                    factors: int) -> Request:
        exp = pipe.exp
        al = exp.YC
        pool = sorted(exp.position)
        w = al.word([])
        for _ in range(factors):
            u = _reduced_word(rng, al, pool, rng.randrange(4))
            k = rng.randint(1, 2)
            ys = [pipe.trick.y_plain[0]] * k + [pipe.trick.y_bar[0]] * k
            rng.shuffle(ys)
            w = w * u * exp.phi(pipe.trick.Y.word(ys)) * ~u
        if not trivial:
            j = rng.randrange(len(w))
            w = al.word(w.ltrs[:j] + w.ltrs[j + 1:])

        def call():
            return embedding.wp_RC(w, pipe)

        def check(res) -> Optional[str]:
            return _expect(res is trivial, "decided %r, expected %r"
                           % (res, trivial))

        label = "%s, %d letters" % ("trivial" if trivial else "one deleted",
                                    len(w))
        return Request("wp", label, call, check, 0)


WORKLOADS = {w.name: w for w in (Accept, Diagram, Language)}
