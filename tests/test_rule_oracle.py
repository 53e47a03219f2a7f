"""Compiled rule application against the generic reference in oracles.py.

Words come from random reduced histories on M1, M5, the L=4 main machine
and a small machine whose sector 1 holds triangular letter maps in both
orientations: X the side of letters, and X the side of words (X = {a b,
b, d}, whose domain is the whole sector alphabet, and X = {d a, d}, whose
domain lacks b), and whose a -> a b cancels letters at the junctions of
images.  The walks start at configurations of accepting computations, or
of hand-picked tapes for the small machine.  Each is also cut to a slice
of its states, inverted, or joined to an inverted slice, which gives every
window shape, and mutated to fall outside the rules' domains.  Every query
must give the reference's result, or raise the reference's exception with
the same message.

One sector at a time, SectorRule.push, which edits a buffer in place, must
give reference_image's result between random inserts, and
SectorRule.express reference_express's, in both orientations, on M1, its
inverse rules and the small machine, with the tape's letters given as
any superset: letters absent from the tape, moving letters absent from
it, and letters outside the rule's domain; a push that fails must leave
the buffer untouched, and the positions they return must be those of the
watch letters of the buffer.  Random triangular letter maps, built from
words and from their entries, must do the same on their exact letters.
The in-place junction under all of them must match a plain loop on
junctions that cancel up to several hundred letters.

Whole runs are checked the same way against the window-by-window loop:
random reduced histories, with and without a faulty step, a tape object
shared by windows of two classes, and the recorded accepting histories of
I(a^2) and I(ab), must give the reference's configurations or its
StepError; shift must give the reference's two-pass computation.
Semi-computations in one sector, on M1, the small machine and the main
machine's special sector, must give reference_semi_run's words or its
StepError.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (naive_reduce, random_reduced, random_signed_ids,
                     reference_apply_rule, reference_decode_rear,
                     reference_express, reference_image,
                     reference_is_admissible, reference_noise_word,
                     reference_run, reference_semi_run, reference_shift,
                     reference_step)
from smforge.machines import _decode_rear, build_m1, shift
from smforge.mainmachine import (DivisibleRecognizer, Params, accepting_run,
                                 build_main)
from smforge.smachine import (AdmissibleWord, BasisShapeError,
                              GeneralizedRule, Hardware, Machine,
                              MachineError, Part, RulePart,
                              SectorMismatchError, SectorRule, _fresh,
                              _settle, apply_rule, parse_history, semi_apply)
from smforge.towers import SigmaSpec, bar_name, compose, cyclify, reflect
from smforge.words import Alphabet, NoiseWord, Word, relabel


def _m1():
    m1, sch = build_m1(("a",))
    starts = []
    for k in (1, 2):
        comp = shift(sch.alpha.word([sch.A1[0]] * k), m1, sch)
        starts += m1.run(comp.words[0], comp.history).words
    return m1, starts


def _m5():
    m1, sch = build_m1(("a",))
    plug = DivisibleRecognizer(("a",), 1)
    ident = {plug.machine.hw.alpha.name_of(y): sch.alpha.name_of(z)
             for y, z in zip(plug.machine.hw.tapes[2], sch.A2)}
    m3 = compose(m1, plug.machine, SigmaSpec(sector=2, identify=ident),
                 name="M3")
    m5 = cyclify(reflect(m3, name="M4"), name="M5")
    al = m5.hw.alpha
    starts = [m5.configuration({
        i: al.word([y] * n) for i, y, n in ((2, m5.hw.tapes[2][0], 2),
                                            (6, m5.hw.tapes[6][0], 1))})]
    starts.append(m5.accept_config())
    return m5, starts


def _main():
    main = build_main(("a",), DivisibleRecognizer(("a",), 1),
                      Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))
    al = main.machine.hw.alpha
    starts = []
    for W in (main.input_i(al.word([main.A[0]])),
              main.input_j(al.word([main.A[0]]))):
        comp, _count = accepting_run(W, main)
        starts += main.machine.run(W, comp.history).words
    return main.machine, starts


def _squares():
    al = Alphabet()
    q0, q1, q2 = (al.intern(n, kind="q") for n in ("q0", "q1", "q2"))
    a, b, d = al.intern("a"), al.intern("b"), al.intern("d")
    c = al.intern("c")
    hw = Hardware(al, [Part((q,), q, q) for q in (q0, q1, q2)],
                  [(), (a, b, d), (c,)])
    W, P = al.word, al.parse
    # read off the image of a -> a b^-1, on the whole sector alphabet
    sq = GeneralizedRule(hw, "sq", [
        RulePart(q0, W(), q0, P("b")), RulePart(q1, P("a^-1"), q1, P("c")),
        RulePart(q2, W(), q2, W())],
        [None, SectorRule((P("a b"), P("b"), P("d")),
                          (P("a"), P("b"), P("d"))),
         SectorRule((P("c"),), (P("c"),))])
    swap = GeneralizedRule(hw, "swap", [
        RulePart(q, W(), q, W()) for q in (q0, q1, q2)],
        [None, SectorRule((P("a"), P("b")), (P("b"), P("a"))), None])
    # read off the image of a -> d^-1 a on a domain that lacks b: a tape
    # holding b lies outside it
    strip = GeneralizedRule(hw, "strip", [
        RulePart(q, W(), q, W()) for q in (q0, q1, q2)],
        [None, SectorRule((P("d a"), P("d")), (P("a"), P("d"))), None])
    # a -> a b fixes b; once swap has made b a watch letter of a tape, the
    # image of a cancels a b^-1 after it, watch letters on both sides
    twist = GeneralizedRule(hw, "twist", [
        RulePart(q, W(), q, W()) for q in (q0, q1, q2)],
        [None, SectorRule((P("a"), P("b")), (P("a b"), P("b"))), None])
    m = Machine("squares", hw, [sq, swap, strip, twist])
    starts = [m.configuration({1: P(t1), 2: P(t2)})
              for t1, t2 in (("a a b^-1 a a", "c c"), ("a", ""),
                             ("b a a b", "c^-1"), ("d a d^-1 a", ""))]
    return m, starts


MACHINES = {}


def machine(name):
    if name not in MACHINES:
        MACHINES[name] = {"M1": _m1, "M5": _m5, "main": _main,
                          "squares": _squares}[name]()
    return MACHINES[name]


def walk(m, W, r, steps, max_size=100):
    """W moved along a random reduced history of applicable rules, stopped
    before it outgrows max_size letters (the reference's searches are slow
    on long words)."""
    last = None
    for _ in range(steps):
        moves = [(n, s) for n, s in m.theta() if (n, -s) != last
                 and reference_is_admissible(W, m.rule(n, s)) is None]
        if not moves:
            break
        last = r.choice(moves)
        V = apply_rule(W, m.rule(*last))
        if len(V.to_word()) > max_size:
            break
        W = V
    return W


def inverse(W):
    return AdmissibleWord(W.hw, [-q for q in reversed(W.states)],
                          [~t for t in reversed(W.tapes)])


def cut(W, r):
    """A slice of W's states, inverted or joined to an inverted slice of
    itself; None when the result is not admissible."""
    n = len(W.states)
    i = r.randrange(n)
    j = r.randrange(i, n)
    states, tapes = list(W.states[i:j + 1]), list(W.tapes[i:j])
    shape = r.randrange(3)
    try:
        if shape == 1:
            return inverse(AdmissibleWord(W.hw, states, tapes))
        if shape == 2 and j < len(W.tapes):
            # q u q^-1 windows: W[i..j] t W[i..j]^-1 with t the next tape
            t = W.tapes[j]
            back = inverse(AdmissibleWord(W.hw, states, tapes))
            return AdmissibleWord(W.hw, states + list(back.states),
                                  tapes + [t] + list(back.tapes))
        return AdmissibleWord(W.hw, states, tapes)
    except MachineError:
        return None


def mutate(W, r):
    """W with one tape letter inserted or one state letter swapped."""
    hw = W.hw
    states, tapes = list(W.states), list(W.tapes)
    if r.random() < 0.3:
        j = r.randrange(len(states))
        q = states[j]
        states[j] = (r.choice(hw.parts[hw.part_of(q)].letters)
                     * (1 if q > 0 else -1))
    elif tapes:
        j = r.randrange(len(tapes))
        pool = hw.tapes[W.sectors[j]] or hw.alpha.ids("a")
        ltrs = list(tapes[j].ltrs)
        k = r.randrange(len(ltrs) + 1)
        ltrs[k:k] = [r.choice(pool) * r.choice((1, -1))]
        tapes[j] = hw.alpha.word(ltrs)
    try:
        return AdmissibleWord(hw, states, tapes)
    except MachineError:
        return None


def outcome(f, *args):
    try:
        return ("ok", f(*args))
    except MachineError as e:
        return (type(e), str(e))


def check_word(m, W, r):
    rules = [m.rule(n, s) for n, s in r.sample(m.theta(), min(6, 2 * len(m.rules)))]
    rules += [m.rule(n, s) for n, s in m.theta()
              if reference_is_admissible(W, m.rule(n, s)) is None][:4]
    for rule in rules:
        assert outcome(apply_rule, W, rule) == \
            outcome(reference_apply_rule, W, rule), rule.name
        for s, t in zip(W.sectors, W.tapes):
            sec = rule.sectors[s]
            if sec is not None:
                assert sec.express(t) == reference_express(sec, t), \
                    (rule.name, s)
            assert outcome(semi_apply, t, rule, s) == \
                outcome(reference_image, rule, s, t), (rule.name, s)


@pytest.mark.parametrize("name", ["M1", "M5", "main", "squares"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_compiled_rules_match_reference(name, seed):
    m, starts = machine(name)
    r = random.Random(seed)
    W = walk(m, r.choice(starts), r, r.randrange(8))
    for V in (W, cut(W, r), cut(W, r), mutate(W, r), mutate(W, r)):
        if V is not None:
            check_word(m, V, r)


# -- one sector at a time --------------------------------------------------------

def _mode(sec):
    return "image" if sec.inverted else "one-letter"


def _sector_cases():
    """(rule, sector) for each unlocked sector of M1's rules and their
    inverses, and of the squares machine's rules and their inverses."""
    cases = []
    for m in (machine("M1")[0], machine("squares")[0]):
        for n, s in m.theta():
            rule = m.rule(n, s)
            cases += [(rule, i) for i, sec in enumerate(rule.sectors)
                      if sec is not None]
    return cases


def _sector_word(rule, i, r):
    """A reduced word of sector i: a product of X entries, one with a
    letter inserted, or a random word over the sector's alphabet."""
    sec, al = rule.sectors[i], rule.hw.alpha
    pick = r.random()
    if pick < 0.6 and sec.X:
        ltrs = []
        for _ in range(r.randrange(6)):
            x = r.choice(sec.X).ltrs
            ltrs += x if r.random() < 0.5 else [-y for y in reversed(x)]
        if pick < 0.15:
            ltrs.insert(r.randrange(len(ltrs) + 1),
                        r.choice(rule.hw.tapes[i]) * r.choice((1, -1)))
        return al.word(ltrs)
    return al.word(random_signed_ids(r, rule.hw.tapes[i], r.randrange(8)))


def _letter_pools(rule, i, w):
    """Signed sector letters absent from w, moving under the rule, and
    outside its domain, each judged by reference_image."""
    al = rule.hw.alpha
    absent, moving, outside = set(), set(), set()
    for y in rule.hw.tapes[i]:
        for x in (y, -y):
            if x not in w.ltrs:
                absent.add(x)
            try:
                if reference_image(rule, i, al.word([x])).ltrs != (x,):
                    moving.add(x)
            except SectorMismatchError:
                outside.add(x)
    return absent, moving, outside


def _supersets(rule, i, w, r):
    exact = frozenset(w.ltrs)
    absent, moving, outside = _letter_pools(rule, i, w)
    some = set(r.sample(sorted(absent), r.randrange(len(absent) + 1)))
    return [exact, exact | some, exact | (moving & absent),
            exact | outside, exact | absent]


def _watched(ltrs, watch):
    return [j for j, x in enumerate(ltrs) if x in watch]


def _moves(sec):
    """The letters the sector's letter map moves."""
    return sec.widen


def _marks(sec, w, letters, r, covered):
    """Marks of w over the letter superset ``letters``: some of its letters
    and some of the sector's moving letters, or all of those when
    ``covered``, are watch letters."""
    moves = sorted(_moves(sec))
    watch = frozenset(moves if covered
                      else r.sample(moves, r.randrange(len(moves) + 1)))
    watch = watch.union(r.sample(sorted(letters),
                                 r.randrange(len(letters) + 1)))
    return letters, watch, tuple(_watched(w.ltrs, watch))


def _pushed(push, ltrs, marks, right=(), left=()):
    """push applied in place to a buffer holding ltrs, with the inserts
    right and left: the buffer, what push returned, and whether the
    positions it returned are those of the watch letters of the buffer
    (of the watch letters push returned)."""
    buf = list(ltrs)
    ends = ((tuple(right), tuple(left), frozenset(right) | frozenset(left))
            if right or left else None)
    got = push(buf, marks, ends)
    return buf, got, got is None or list(got[2]) == _watched(buf, got[1])


def _insert(r, tape, image, inverted):
    """A random nonempty reduced insert over the letters tape, often made
    to cancel a few letters of image where it meets it: the insert ends
    with the inverse of the start of image (inverted=True, a right insert)
    or starts with the inverse of its end (a left insert)."""
    ltrs = random_reduced(r, tape, r.randrange(1, 4))
    if r.random() < 0.5 and image:
        k = r.randrange(1, len(image) + 1)
        if inverted:
            ltrs = naive_reduce(ltrs + [-x for x in reversed(image[:k])])
        else:
            ltrs = naive_reduce([-x for x in reversed(image[-k:])] + ltrs)
    return list(ltrs) or random_reduced(r, tape, 1)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_sector_push_matches_reference_image(seed):
    """SectorRule.push, in both shapes, rewrites a buffer holding the tape
    in place to reference_image's result between the two inserts, on any
    superset of the tape's letters: with letters absent from the tape,
    with moving letters absent from it, and with letters outside the
    rule's domain.  The inserts are empty or random nonempty words, often
    cancelling into the image.  The buffer is untouched when push returns
    None, and unchanged when it returns the marks it was given; the
    positions returned are those of the watch letters of the buffer,
    whether or not the tape's watch letters held the moving ones, and
    watch letters that hold them come back as they were.  SectorRule.express
    gives reference_express's expression."""
    r = random.Random(seed)
    cases = _sector_cases()
    assert {_mode(rule.sectors[i]) for rule, i in cases} == \
        {"one-letter", "image"}
    for rule, i in cases:
        sec, tape = rule.sectors[i], rule.hw.tapes[i]
        for _ in range(3):
            w = _sector_word(rule, i, r)
            assert sec.express(w) == reference_express(sec, w), \
                (rule.name, i, w.format())
            try:
                image = reference_image(rule, i, w)
            except SectorMismatchError:
                image = None
            img = [] if image is None else list(image.ltrs)
            for right, left in (((), ()), (_insert(r, tape, img, True),
                                           _insert(r, tape, img, False))):
                want = (None if image is None
                        else naive_reduce(list(right) + img + list(left)))
                for letters in _supersets(rule, i, w, r):
                    marks = _marks(sec, w, letters, r, covered=False)
                    buf, got, at_ok = _pushed(sec.push, w.ltrs, marks,
                                              right, left)
                    if image is None:
                        assert got is None and tuple(buf) == w.ltrs, \
                            (rule.name, i)
                        continue
                    assert tuple(buf) == want, (rule.name, i, w.format())
                    assert got is not None and got[0] >= set(buf), \
                        (rule.name, i, w.format())
                    assert got is not marks or tuple(buf) == w.ltrs
                    assert got[1] >= marks[1] and (
                        got[1] >= _moves(sec) or got[1] == marks[1])
                    assert at_ok, (rule.name, i, w.format())
                    marks = _marks(sec, w, letters, r, covered=True)
                    buf, got, at_ok = _pushed(sec.push, w.ltrs, marks,
                                              right, left)
                    assert tuple(buf) == want and got[0] >= set(buf)
                    assert at_ok and got[1] == marks[1]
            if image is not None:
                assert semi_apply(w, rule, i) == image


_TRI = ("a", "b", "d", "e", "f", "g")


@st.composite
def triangular_maps(draw):
    """A triangular letter map over the letters of _TRI: distinct positive
    letters ys, the first fixed, each other sent to p y' s with y' a
    letter, of either sign, that is no fixed one and no other entry's,
    and p and s random words over the fixed letters, p sometimes a
    NoiseWord over two fixed letters; and whether the map is inverted.
    Returns ys, the entries (None or (p, y', s), p a letter tuple or a
    NoiseWord, s a tuple) and the flag."""
    n = draw(st.integers(1, len(_TRI)))
    ys = draw(st.permutations(range(1, len(_TRI) + 1)))[:n]
    nf = draw(st.integers(0, n))
    fixed = ys[:nf]
    sign = st.sampled_from((1, -1))
    free = [y for y in range(1, len(_TRI) + 1) if y not in fixed]
    cores = draw(st.permutations(free))[:n - nf]
    over_f = (st.lists(st.sampled_from([s * f for f in fixed
                                        for s in (1, -1)]),
                       max_size=3).map(naive_reduce) if fixed
              else st.just(()))

    def prefix():
        if len(fixed) > 1 and draw(st.booleans()):
            b1, b2 = draw(st.permutations(fixed))[:2]
            return NoiseWord(draw(sign) * b1, draw(sign) * b2,
                             draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        return draw(over_f)
    maps = [None] * nf + [(prefix(), draw(sign) * c, draw(over_f))
                          for c in cores]
    return tuple(ys), maps, draw(st.booleans())


def _spelled(p):
    return p.ltrs if isinstance(p, NoiseWord) else p


@given(triangular_maps(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_random_triangular_maps_match_the_reference(case, rnd):
    """A triangular letter map in either orientation, built from its bases
    given as words and, with its entries as they are drawn (noise words as
    descriptors), through the one construction path, spells X and Z back
    exactly as given.  On random sector words and products of X entries
    its push and express, and its inverse's, give reference_image's and
    reference_express's results, and the inverse undoes the map.  A
    one-letter edit of a word entry that breaks the shape (its letter y'
    twice, or none) raises BasisShapeError."""
    ys, maps, inverted = case
    al = Alphabet()
    letters = [al.intern(x) for x in _TRI]  # ids 1 to 6, as drawn
    q0, q1, q2 = (al.intern(n, kind="q") for n in ("q0", "q1", "q2"))
    c = al.intern("c")
    hw = Hardware(al, [Part((q,), q, q) for q in (q0, q1, q2)],
                  [(), tuple(letters), (c,)])
    fix = SectorRule((al.word([c]),), (al.word([c]),))
    ones = [(y,) for y in ys]
    words = [(y,) if f is None else
             naive_reduce(_spelled(f[0]) + (f[1],) + f[2]) for y, f in
             zip(ys, maps)]
    X, Z = (words, ones) if inverted else (ones, words)
    X, Z = (tuple(al.raw_word(t) for t in b) for b in (X, Z))
    e = al.word()
    built = [SectorRule(X, Z), SectorRule._of(al, ys, [
        f and (f[0] if isinstance(f[0], NoiseWord) else al.word(f[0]),
               f[1], al.word(f[2])) for f in maps], inverted)]
    assert built[1].inverted is inverted
    r = random.Random(rnd.random())
    for sec in built:
        assert (sec.X, sec.Z) == (X, Z)
        inv = sec.inverse
        assert (inv.X, inv.Z) == (Z, X) and inv.inverse is sec
        rules = [GeneralizedRule(hw, "r", [RulePart(q, e, q, e)
                                           for q in (q0, q1, q2)],
                                 [None, s, fix]) for s in (sec, inv)]
        probes = [al.word(random_reduced(r, letters, r.randrange(8)))
                  for _ in range(6)]
        probes += [al.word(naive_reduce(sum(
            (x.ltrs if r.random() < 0.5 else (~x).ltrs
             for x in r.choices(X, k=r.randrange(5))), ())))
            for _ in range(6)]
        for w in probes:
            for rule in rules:
                s = rule.sectors[1]
                assert s.express(w) == reference_express(s, w)
                buf = list(w.ltrs)
                got = s.push(buf, _fresh(buf))
                try:
                    image = reference_image(rule, 1, w).ltrs
                except SectorMismatchError:
                    assert got is None and buf == list(w.ltrs)
                    continue
                assert tuple(buf) == image
                if s is sec:
                    back = list(image)
                    assert inv.push(back, _fresh(back)) is not None
                    assert tuple(back) == w.ltrs
    # one-letter edits of a word entry that break the shape
    fixed = {s * y for y, f in zip(ys, maps) if f is None for s in (1, -1)}
    for j, t in enumerate(words):
        if maps[j] is None:
            continue
        core = t.index(maps[j][1])
        edits = [t[:i] + (t[core],) + t[i + 1:] for i in range(len(t))
                 if i != core]
        edits += [t[:core] + (f,) + t[core + 1:] for f in sorted(fixed)]
        for u in [u for u in edits if naive_reduce(u) == u][:4]:
            edited = list(words)
            edited[j] = u
            X2, Z2 = (edited, ones) if inverted else (ones, edited)
            with pytest.raises(BasisShapeError,
                               match="not a triangular letter map"):
                SectorRule(*(tuple(al.raw_word(v) for v in b)
                             for b in (X2, Z2)))


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_settle_cancels_long_junctions_in_place(seed):
    """_settle joins buf[c:c + m] onto buf[:c] in place, leaves the letters
    after them alone, and keeps the positions of the watch letters, on
    junctions that cancel anything from no letter to several hundred (past
    the windows _meet widens through)."""
    r = random.Random(seed)
    left = random_reduced(r, (1, 2, 3), r.randrange(1, 700))
    k = r.randrange(len(left) + 1)
    right = [-x for x in reversed(left[len(left) - k:])]
    for x in random_reduced(r, (1, 2, 3), r.randrange(60)):
        if not right or right[-1] != -x:
            right.append(x)
    tail = random_reduced(r, (4,), r.randrange(3))
    n = 0
    while n < min(len(left), len(right)) and left[-1 - n] == -right[n]:
        n += 1
    want = left[:len(left) - n] + right[n:]
    watch = {r.choice((1, 2, 3)), -r.choice((1, 2, 3))}
    buf = left + right + tail
    at = _watched(left, watch)
    end = _settle(buf, len(left), len(right), at, _watched(right, watch))
    assert (buf, end) == (want + tail, len(want))
    assert at == _watched(want, watch)


# -- whole runs ------------------------------------------------------------------

def run_outcome(run, W, history, trace):
    """The run's configurations, or its error by type, message, step
    index and the type of the step's own error."""
    try:
        return ("ok", run(W, history, trace).words)
    except MachineError as e:
        return (type(e), str(e), getattr(e, "index", None),
                type(getattr(e, "reason", None)))


def same_runs(m, W, history):
    for trace in (True, False):
        assert run_outcome(m.run, W, history, trace) == run_outcome(
            lambda *a: reference_run(m, *a), W, history, trace)


def random_history(m, W, r, steps, max_size=400):
    """A random reduced history of rules applicable along the way."""
    hist, last = [], None
    for _ in range(steps):
        moves = [(n, s) for n, s in m.theta() if (n, -s) != last
                 and reference_is_admissible(W, m.rule(n, s)) is None]
        if not moves:
            break
        last = r.choice(moves)
        V = reference_step(W, m.rule(*last))
        if len(V.to_word()) > max_size:
            break
        hist.append(last)
        W = V
    return hist


@pytest.mark.parametrize("name", ["M1", "M5", "main"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_runs_match_reference_run(name, seed):
    m, starts = machine(name)
    r = random.Random(seed)
    W = walk(m, r.choice(starts), r, r.randrange(8))
    W = (cut(W, r) if r.random() < 0.5 else None) or W
    hist = random_history(m, W, r, r.randrange(1, 40))
    same_runs(m, W, hist)
    k = r.randrange(len(hist) + 1)
    some = r.choice(sorted(m.rules))
    for fault in (r.choice(m.theta()), ("nosuch", 1), (some, 0),
                  (some, 2)):
        same_runs(m, W, hist[:k] + [fault] + hist[k:])


def test_a_rule_that_empties_a_letter_is_refused():
    """A rule mapping a to the empty word is not an isomorphism, nor a
    triangular letter map, so its sector rule is refused when it is
    built; no rule can then empty a window between two inverse state
    letters."""
    al = Alphabet()
    q0, q1, q2 = (al.intern(n, kind="q") for n in ("q0", "q1", "q2"))
    a, c = al.intern("a"), al.intern("c")
    hw = Hardware(al, [Part((q,), q, q) for q in (q0, q1, q2)],
                  [(), (a,), (c,)])
    e = al.word()
    with pytest.raises(BasisShapeError, match=re.escape(
            "sector bases X={a} Z={1} are not a triangular letter map")):
        GeneralizedRule(
            hw, "collapse", [RulePart(q, e, q, e) for q in (q0, q1, q2)],
            [None, SectorRule((al.word([a]),), (e,)),
             SectorRule((al.word([c]),), (al.word([c]),))])


def _split():
    """A machine whose rule r (a -> a b, b -> b; q0 -> q0 b^-1, q1 -> a q1)
    rewrites one tape object t, held both between q0 and q1 and between
    q1^-1 and q1, to b^-1 f(t) a and to a^-1 f(t) a: two classes on one
    buffer, so a run copies it for one of them.  For t = b the two windows
    then hold a and a^-1 b a, different letters.  f0, which reads only
    <b>, fails on the first of those windows after r; f2, which reads only
    <a>, fails for t = b on the second alone."""
    al = Alphabet()
    q0, q1, q2 = (al.intern(n, kind="q") for n in ("q0", "q1", "q2"))
    a, b = al.intern("a"), al.intern("b")
    c = al.intern("c")
    hw = Hardware(al, [Part((q,), q, q) for q in (q0, q1, q2)],
                  [(), (a, b), (c,)])
    W, P = al.word, al.parse
    fix = SectorRule((P("c"),), (P("c"),))

    def rule(name, sector1, v0=W(), u1=W()):
        return GeneralizedRule(hw, name, [
            RulePart(q0, W(), q0, v0), RulePart(q1, u1, q1, W()),
            RulePart(q2, W(), q2, W())], [None, sector1, fix])

    m = Machine("split", hw, [
        rule("r", SectorRule((P("a"), P("b")), (P("a b"), P("b"))),
             P("b^-1"), P("a")),
        rule("f0", SectorRule((P("b"),), (P("b"),))),
        rule("f2", SectorRule((P("a"),), (P("a"),)))])
    starts = [AdmissibleWord(hw, [q0, q1, -q1, q1],
                             [t, P("c"), t])
              for t in (P("b"), P("a b a^-1 b"))]
    return m, starts


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("history", [
    "r", "r r", "r r r^-1 r", "r f0", "r f2", "r nosuch", "r r f2 r",
    "r^-1 r^-1 r"])
def test_tape_shared_by_two_classes_is_copied(start, history):
    """One tape object in windows of two classes: the step that rewrites
    it gives each window its own tape, the other window's intact, traced
    or not, and a faulty step right after names the tape it saw."""
    m, starts = _split()
    W = starts[start]
    assert W.tapes[0] is W.tapes[2]
    V = m.run(W, [("r", 1)]).final()
    assert V.tapes[0] != V.tapes[2]
    same_runs(m, W, parse_history(history))


DESK4 = Params(2, 4, 5, 4, 7, 8, 9, check_chain=False)
_MAINS = {}


def _main_of(letters):
    if letters not in _MAINS:
        _MAINS[letters] = build_main(
            letters, DivisibleRecognizer(letters, 1), DESK4)
    return _MAINS[letters]


def _by_name(w, target, name=lambda nm: nm):
    src = w.alpha
    return Word(target, tuple((1 if x > 0 else -1)
                              * target.id_of(name(src.name_of(abs(x))))
                              for x in w.ltrs))


@pytest.mark.parametrize("letters,word", [(("a",), "aa"), (("a", "b"), "ab")])
def test_recorded_accepting_runs_match_reference_run(letters, word):
    main = _main_of(letters)
    w = main.machine.hw.alpha.word([main.A[letters.index(x)] for x in word])
    W = main.input_i(w)
    hist = accepting_run(W, main)[0].history
    got = main.machine.run(W, hist).words
    assert got == reference_run(main.machine, W, hist).words
    if word == "aa":
        # ring copies hold equal tapes, and equal tapes of one sector
        # class are one object
        for V in got:
            seen = {}
            for s, t in zip(V.sectors, V.tapes):
                assert seen.setdefault((s % main.P, t.ltrs), t) is t
    sch = main.scheme
    marked = relabel(main.to_m1(w), dict(zip(sch.A, sch.A1)), sch.alpha)
    comp = shift(marked, main.m1, sch)
    assert main.m1.run(comp.words[0], comp.history).words == \
        reference_run(main.m1, comp.words[0], comp.history).words
    m5, al5 = main.m5, main.m5.hw.alpha
    W5 = m5.input_config({2: _by_name(marked, al5),
                          6: ~_by_name(marked, al5, bar_name)})
    hist5 = [(nm[2:], s) for nm, s in hist if nm.startswith("1.")]
    run5 = m5.run(W5, hist5)
    assert run5.final() == m5.accept_config()
    assert run5.words == reference_run(m5, W5, hist5).words


def _shift_inputs():
    m, sch = build_m1(("a",))
    al = sch.alpha
    words = [al.parse(t) for t in ("b2 b1", "a_1", "a_1^-1", "a_1^-1 b1",
                                   "a_1 a_1", "a_1 a_1 a_1")]
    # the round trip inputs of test_machines: the empty tape pushed back
    # through random reduced histories
    r = random.Random(31)
    names = sorted(m.rules)
    W0 = AdmissibleWord(m.hw, m.configuration({}).states[:2],
                        m.configuration({}).tapes[:1])
    for _ in range(40):
        n, hist = r.randint(1, 3), []
        while len(hist) < n:
            step = (r.choice(names), r.choice((1, -1)))
            if not hist or hist[-1] != (step[0], -step[1]):
                hist.append(step)
        back = [(name, -s) for name, s in reversed(hist)]
        w = m.run(W0, back).final().tapes[0]
        if w:
            words.append(w)
    cases = [(m, sch, w) for w in words]
    mab, schab = build_m1(("a", "b"))
    cases += [(mab, schab, schab.alpha.parse(t))
              for t in ("a_1 b_1", "b_1 a_1", "b_1^-1 a_1")]
    return cases


@pytest.mark.parametrize("case", _shift_inputs())
def test_shift_matches_reference_shift(case):
    m, sch, w = case
    assert outcome(shift, w, m, sch) == outcome(reference_shift, w, m, sch)


@pytest.mark.parametrize("letters", [("a",), ("a", "b")])
def test_decode_rear_matches_the_search(letters):
    """The greedy rear split agrees with the search it replaced on rears
    of 0-24 noise steps for each payload letter, as built and with one
    letter deleted, one letter inverted, a prefix cut off or a suffix cut
    off, each split for every payload letter.  Some steps are payload
    letters, which no rear holds.  With one payload letter (D = 12) a
    tail of 10 letters can read as a head, so the split must stop before
    it peels; the steps that spell each noise word's head as their tail
    are among the rears."""
    _, sch = build_m1(letters)
    al, r = sch.alpha, random.Random(25)
    calls = 0
    for a in sch.A:
        cases = []
        for n in range(25):
            for k in range(6):
                pool = sch.B if k % 3 else sch.A + sch.B
                steps: list = []
                while len(steps) < n:
                    step = (r.choice(pool), r.choice((1, -1)))
                    if not steps or steps[-1] != (step[0], -step[1]):
                        steps.append(step)
                cases.append(steps)
        for y in sch.B:
            for e in (1, -1):
                v = reference_noise_word(sch, y, a, e).ltrs
                cases += [[(abs(x), 1 if x > 0 else -1)
                           for x in reversed(v[:m])]
                          for m in range(sch.head, min(len(v), 24) + 1)]
        for steps in cases:
            u = al.word()
            for y, e in steps:
                u = u * reference_noise_word(sch, y, a, e)
            u = u * al.word([y if e > 0 else -y for y, e in reversed(steps)])
            assert _decode_rear(u, a, sch) == (
                steps if all(y in sch.B for y, _ in steps) else None)
            ltrs = list(u.ltrs)
            variants = [u]
            for _ in range(3 if ltrs else 0):
                k = r.randrange(len(ltrs))
                variants += [al.word(ltrs[:k] + ltrs[k + 1:]),
                             al.word(ltrs[:k] + [-ltrs[k]] + ltrs[k + 1:]),
                             al.word(ltrs[k + 1:]), al.word(ltrs[:k])]
            for v in variants:
                for b in sch.A:
                    assert (_decode_rear(v, b, sch)
                            == reference_decode_rear(v, b, sch))
                    calls += 1
    assert calls > 1000


# -- semi-computations -----------------------------------------------------------

def _semi_cases():
    """(machine, sector): M1's sector 1, the squares machine's sector 1 and
    the main machine's special sector."""
    main = _main_of(("a",))
    return [(machine("M1")[0], 1), (machine("squares")[0], 1),
            (main.machine, main.special_sector)]


def semi_outcome(run, w, sector, history):
    """The run's words, or its error by type, message, step index and the
    type of the step's own error."""
    try:
        return ("ok", run(w, sector, history))
    except MachineError as e:
        return (type(e), str(e), getattr(e, "index", None),
                type(getattr(e, "reason", None)))


@pytest.mark.parametrize("case", [0, 1, 2])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_semi_run_matches_reference_semi_run(case, seed):
    """Machine.semi_run, which carries letter sets and watch positions from
    step to step, gives reference_semi_run's words or error.  A word,
    mostly over the letters the sector's rules read, is pushed along a
    random history and then replayed along its inverse and some more
    steps: steps read off the image, words outside the domain, locked
    sectors, junctions that cancel watch letters, a faulty step or a
    sector outside the hardware."""
    m, sector = _semi_cases()[case]
    r = random.Random(seed)
    ref = lambda *a: reference_semi_run(m, *a)
    signed = m.theta()
    free = [(n, s) for n, s in signed if m.rule(n, s).sectors[sector]]
    read = sorted({abs(x) for n, s in free
                   for y in m.rule(n, s).sectors[sector].X for x in y.ltrs})
    tape = m.hw.tapes[sector] + tuple(m.hw.alpha.ids("a")[:2])

    def steps(k):
        return [r.choice(free) if r.random() < 0.9 else r.choice(signed)
                for _ in range(k)]

    w = m.hw.alpha.word(r.choice(read) * r.choice((1, -1))
                        if r.random() < 0.9 else
                        r.choice(tape) * r.choice((1, -1))
                        for _ in range(r.randrange(7)))
    push = steps(r.randrange(7))
    got = semi_outcome(ref, w, sector, push)
    if got[0] == "ok":
        k = max(j for j, v in enumerate(got[1]) if len(v) <= 150)
        w, push = got[1][k], push[:k]
    history = [(n, -s) for n, s in reversed(push)] + steps(r.randrange(4))
    if r.random() < 0.15:
        some = r.choice(sorted(m.rules))
        fault = r.choice([("nosuch", 1), (some, 0), (some, 2)])
        history.insert(r.randrange(len(history) + 1), fault)
    if r.random() < 0.05:
        sector = r.choice([9, -1])
    assert semi_outcome(m.semi_run, w, sector, history) == \
        semi_outcome(ref, w, sector, history)
