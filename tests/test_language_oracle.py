"""Sector-language and word-problem decisions against the references in
oracles.py.

The library decodes a marked word once, tests its marker skeleton, and
replays the decoded history once, to its last word; the references decode,
replay on a bottom machine of their own, test, and replay again.  Both
are compared on the history and the first and last words.  Words are skeletons, some with
noise letters between their markers (garbage gaps, unreduced skeletons),
pushed through random reduced histories of noise and payload rules, then
left alone or cut by one letter or grown by one noise letter.  Members
are judged by accept-all, reject-all, is-the-skeleton and even-length
predicates.  Workload-shaped words are block words of the 4-letter Z
pipeline, marked and pushed through 4-12 noise steps, then kept, given a
foreign letter in a gap, robbed of a marker or grown by a noise letter.
Word-problem inputs are products of conjugated relators, trivial or with
one letter deleted, and words of blocks, block fragments and stray
letters; wp_RC's deletions are compared, in order, with the tuple-ring
scan it replaced.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from oracles import (noise_pairs, reference_bottom,
                     reference_cyclic_d_prefixes, reference_d_word,
                     reference_decode_noise, reference_lambda1_accept,
                     reference_lambda_accept, reference_marker_split,
                     reference_noise_word, reference_wp_RC, ring_wp_RC)
from smforge.embedding import (build_pipeline, builtin_oracle, lambda_oracle,
                               wp_RC)
from smforge.machines import decode_noise, delta, lambda1_accept
from smforge.mainmachine import (DivisibleRecognizer, Params, build_main,
                                 lambda_accept)
from smforge.smachine import Machine, _Run, _fresh, _scan
from smforge.words import relabel, relabel_by_name


@functools.lru_cache(maxsize=None)
def _main():
    return build_main(("a", "c"), DivisibleRecognizer(("a", "c"), 1),
                      Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))


@functools.lru_cache(maxsize=None)
def _pipe():
    return build_pipeline(builtin_oracle("Z"), 4)


signs = st.sampled_from((1, -1))


@st.composite
def reduced_histories(draw, names, max_size=5):
    hist = []
    for _ in range(draw(st.integers(0, max_size))):
        step = (draw(st.sampled_from(names)), draw(signs))
        if hist and hist[-1] == (step[0], -step[1]):
            continue
        hist.append(step)
    return hist


@st.composite
def sector_words(draw):
    """A pushed, possibly decorated and mutated word over markers and noise,
    with the reduced payload image of its start skeleton, on the
    reference's bottom machine."""
    m1, sch = reference_bottom(_main())
    al = sch.alpha
    noise = st.tuples(st.sampled_from(sch.B), signs).map(lambda t: t[0] * t[1])
    start = []
    for _ in range(draw(st.integers(0, 4))):
        start += draw(st.lists(noise, max_size=2 if draw(st.booleans()) else 0))
        start.append(draw(st.sampled_from(sch.A1)) * draw(signs))
    skel = al.word(start)
    w = m1.semi_run(skel, 1, draw(reduced_histories(sorted(m1.rules))))[-1]
    ltrs = list(w.ltrs)
    how = draw(st.sampled_from(("keep", "keep", "cut", "grow")))
    if how == "cut" and ltrs:
        del ltrs[draw(st.integers(0, len(ltrs) - 1))]
    elif how == "grow":
        ltrs.insert(draw(st.integers(0, len(ltrs))), draw(noise))
    return al.word(ltrs), delta(skel, sch)


def members(target):
    return st.sampled_from((lambda z: True, lambda z: False,
                            lambda z: z == target,
                            lambda z: len(z) % 2 == 0))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sector_decisions_match_the_reference(data):
    """``member`` judges words over M1's letters, and gets the main
    machine's words back over them by name."""
    main = _main()
    m1, sch = reference_bottom(main)
    w, target = data.draw(sector_words())
    member = data.draw(members(target))
    for gap in reference_marker_split(w, sch)[0]:
        assert decode_noise(gap, sch) == reference_decode_noise(gap, sch)
    assert lambda1_accept(w, m1, sch, member) == \
        reference_lambda1_accept(w, m1, sch, member)
    wm = relabel_by_name(w, main.machine.hw.alpha)

    def main_member(u):
        return member(relabel_by_name(u, sch.alpha))

    assert lambda_accept(wm, main, main_member) == \
        reference_lambda_accept(wm, main, main_member)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_plain_and_mixed_words_match_the_reference(data):
    main = _main()
    al = main.machine.hw.alpha
    pool = main.A + (main.A1 + main.B if data.draw(st.booleans()) else ())
    w = al.word(x * s for x, s in data.draw(st.lists(
        st.tuples(st.sampled_from(pool), signs), max_size=8)))
    member = data.draw(members(w))
    assert lambda_accept(w, main, member) == \
        reference_lambda_accept(w, main, member)


@functools.lru_cache(maxsize=None)
def _pipe_main():
    """The language benchmark's machine: the Z pipeline with C = 2 and the
    main machine over its 4 tape letters."""
    pipe = build_pipeline(builtin_oracle("Z"), 2)
    letters = tuple(pipe.letters)
    return pipe, build_main(letters, DivisibleRecognizer(letters, 1),
                            Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))


def _pipe_member(u):
    """lambda_oracle on a word over the main machine's payload letters."""
    pipe, main = _pipe_main()
    sch = main.scheme
    return lambda_oracle(relabel(u, {y: pipe.A.id_of(sch.alpha.name_of(y))
                                     for y in sch.A}, pipe.A), pipe)


def _pushed_block(ys, push):
    """The block word of the Z-word ys, marked and pushed along ``push``
    in the special sector."""
    pipe, main = _pipe_main()
    mm = main.machine
    block = main.payload(pipe.zeta_t(pipe.exp.phi(pipe.trick.Y.word(ys))))
    marked = relabel(block, dict(zip(main.A, main.A1)), mm.hw.alpha)
    return mm.semi_run(marked, main.special_sector, push)[-1]


@st.composite
def workload_words(draw):
    """A pushed block word as in the language benchmark, kept or mutated,
    and whether its Z-word is trivial."""
    pipe, main = _pipe_main()
    x, xb = pipe.trick.y_plain[0], pipe.trick.y_bar[0]
    k = draw(st.integers(1, 3))
    kb = k + draw(st.sampled_from((0, 0, 1, -1)))
    ys = draw(st.permutations([x] * k + [xb] * kb))
    names = ["1." + main.scheme.rule_name(b) for b in main.scheme.B]
    push = []
    for _ in range(draw(st.integers(4, 12))):
        push.append(draw(st.sampled_from(
            [(n, s) for n in names for s in (1, -1)
             if not push or push[-1] != (n, -s)])))
    ltrs = list(_pushed_block(ys, push).ltrs)
    markers = [i for i, y in enumerate(ltrs) if abs(y) in main.A1]
    noise = [i for i, y in enumerate(ltrs) if abs(y) in main.B]
    how = draw(st.sampled_from(("keep", "foreign", "drop marker", "grow")))
    if how == "foreign":
        foreign = main.A + tuple(main.bar[a] for a in main.A)
        ltrs.insert(draw(st.sampled_from(noise)),
                    draw(st.sampled_from(foreign)) * draw(signs))
    elif how == "drop marker":
        del ltrs[draw(st.sampled_from(markers))]
    elif how == "grow":
        ltrs.insert(draw(st.integers(0, len(ltrs))),
                    draw(st.sampled_from(main.B)) * draw(signs))
    return main.machine.hw.alpha.word(ltrs), how, k == kb, push


@given(workload_words())
@settings(max_examples=30, deadline=None)
def test_workload_sector_decisions_match_the_reference(case):
    w, how, trivial, push = case
    main = _pipe_main()[1]
    got = lambda_accept(w, main, _pipe_member)
    assert got == reference_lambda_accept(w, main, _pipe_member)
    if how == "keep":
        assert (got is not None) == trivial
        if trivial:
            assert got[0] == [(n, -s) for n, s in reversed(push)] + \
                [("s1", -1)]


def _first_workload_word():
    pipe, main = _pipe_main()
    x, xb = pipe.trick.y_plain[0], pipe.trick.y_bar[0]
    b1, b2 = ["1." + main.scheme.rule_name(b) for b in main.scheme.B]
    return _pushed_block([x, xb, xb, x], [(b1, 1), (b2, 1), (b1, -1),
                                          (b2, 1), (b1, 1), (b2, -1)])


def test_member_gets_words_over_the_machine_s_payload_letters():
    """No word leaves the machine's alphabet: ``member`` is asked about
    the skeleton's payload image over ``main.A``, for a marked word and
    a plain one."""
    main = _pipe_main()[1]
    al = main.machine.hw.alpha
    w = _first_workload_word()
    asked = []

    def member(u):
        asked.append(u)
        return _pipe_member(u)

    got = lambda_accept(w, main, member)
    assert got is not None and lambda_accept(got[1][-1], main, member)
    assert len(asked) == 2 and asked[0] == asked[1] == got[1][-1]
    for u in asked:
        assert u.alpha is al and {abs(x) for x in u.ltrs} <= set(main.A)


def test_a_replay_builds_only_its_endpoints(monkeypatch):
    """A word pushed through 6 noise steps: the replay builds its last
    word alone and the unmark step one more, so the decision builds at
    most two Words from run buffers and returns two words."""
    main = _pipe_main()[1]
    w = _first_workload_word()
    built = []
    word = _Run._word

    def counting(self, k):
        built.append(k)
        return word(self, k)

    monkeypatch.setattr(_Run, "_word", counting)
    got = lambda_accept(w, main, _pipe_member)
    assert got is not None and len(got[0]) == 7
    assert len(built) <= 2
    assert len(got[1]) == 2 and got[1][0] is w


def test_the_replay_starts_from_the_marks_of_its_first_push(monkeypatch):
    main = _pipe_main()[1]
    w = _first_workload_word()
    handed = []
    semi_run = Machine._semi_run

    def spying(self, u, sector, history, marks):
        handed.append((u, history, marks))
        return semi_run(self, u, sector, history, marks)

    monkeypatch.setattr(Machine, "_semi_run", spying)
    assert lambda_accept(w, main, _pipe_member) is not None
    (u, history, (letters, watch, pos)), = handed
    assert u == w
    # what the first push would work out from fresh marks: the letters,
    # the watch letters widened by the rule's moving letters, their scan
    buf = list(u.ltrs)
    first = main.machine.rule(*history[0]).sectors[main.special_sector]
    fresh = _fresh(buf)
    assert letters == fresh[0]
    assert watch == fresh[1] | first.widen
    assert pos == _scan(buf, watch)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decode_noise_matches_the_reference(data):
    sch = _main().scheme
    al = sch.alpha
    seq = []
    for _ in range(data.draw(st.integers(0, 5))):
        y, a = data.draw(st.sampled_from(list(noise_pairs(sch))))
        s = data.draw(signs)
        if not seq or seq[-1] != (y, a, -s):
            seq.append((y, a, s))
    u = al.word()
    for y, a, s in seq:
        u = u * reference_noise_word(sch, y, a, s)
    assert decode_noise(u, sch) == reference_decode_noise(u, sch) == seq
    if u:
        ltrs = list(u.ltrs)
        k = data.draw(st.integers(0, len(ltrs) - 1))
        ltrs[k:k + 1] = data.draw(st.sampled_from(
            ([], [-ltrs[k]], [ltrs[k], sch.B[0]], [sch.B[1], ltrs[k]])))
        bad = al.word(ltrs)
        assert decode_noise(bad, sch) == reference_decode_noise(bad, sch)


@given(st.randoms(use_true_random=False), st.booleans(),
       st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_wp_matches_the_reference(rng, trivial, factors):
    pipe = _pipe()
    exp, trick = pipe.exp, pipe.trick
    al, pool = exp.YC, sorted(exp.position)
    w = al.word()
    for _ in range(factors):
        u = al.word(rng.choice(pool) * rng.choice((1, -1))
                    for _ in range(rng.randrange(4)))
        k = rng.randint(1, 2)
        ys = [trick.y_plain[0]] * k + [trick.y_bar[0]] * k
        rng.shuffle(ys)
        w = w * u * exp.phi(trick.Y.word(ys)) * ~u
    if not trivial and w:
        j = rng.randrange(len(w))
        w = al.word(w.ltrs[:j] + w.ltrs[j + 1:])
    assert _wp_cuts(w, pipe) == ring_wp_RC(w, pipe)
    assert wp_RC(w, pipe) == reference_wp_RC(w, pipe)
    assert wp_RC(w, pipe) is (trivial or not w)


class _Cuts:
    """The pipeline's block tables, recording each deletion wp_RC makes as
    the rotation it is cut from and the length cut."""

    def __init__(self, exp):
        self.exp, self.cuts = exp, []

    def __getattr__(self, name):
        return getattr(self.exp, name)

    def find_prefix(self, lst, r, accept):
        got = self.exp.find_prefix(lst, r, accept)
        if got is not None:
            r, end = got
            self.cuts.append((tuple(lst[r:] + lst[:r]), end - r))
        return got


def _wp_cuts(w, pipe):
    """wp_RC's decision and its deletions, in order."""
    rec = _Cuts(pipe.exp)
    return wp_RC(w, dataclasses.replace(pipe, exp=rec)), rec.cuts


@functools.lru_cache(maxsize=None)
def _block_pipe(kind, gens, C):
    return build_pipeline(builtin_oracle(kind, ("x", "y")[:gens]), C)


@st.composite
def block_letters(draw):
    """A Z or Z2 pipeline on one or two generators with C = 1..4, and a
    letter tuple of blocks, inverted blocks, block fragments and stray
    letters."""
    pipe = _block_pipe(draw(st.sampled_from(("Z", "Z2"))),
                       draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    exp = pipe.exp
    blocks = [b for blk in exp.blocks.values()
              for b in (blk, tuple(-a for a in reversed(blk)))]
    seq = []
    for _ in range(draw(st.integers(0, 6))):
        b = draw(st.sampled_from(blocks))
        how = draw(st.sampled_from(("block", "block", "fragment", "stray")))
        if how == "block":
            seq += b
        elif how == "fragment":
            i = draw(st.integers(0, exp.C - 1))
            seq += b[i:draw(st.integers(i + 1, exp.C))]
        else:
            seq.append(draw(st.sampled_from(b)))
    return pipe, tuple(seq)


@given(block_letters())
@settings(max_examples=120, deadline=None)
def test_block_tables_match_the_reference(case):
    """From each start, find_prefix offers the reference's candidates
    rotation by rotation for one lap: an accept that passes only the k-th
    candidate gets the rotation it is read on and its end, and lst stays
    a rotation of the word."""
    pipe, seq = case
    exp = pipe.exp
    n = len(seq)
    rots = [seq[r:] + seq[:r] for r in range(n)]
    for start in range(n):
        want = [(rot, end, tuple(ys)) for rot in rots[start:] + rots[:start]
                for end, ys in reference_cyclic_d_prefixes(list(rot), exp)]
        got = []
        for k in range(len(want) + 1):
            lst, asked = list(seq), []

            def accept(ys):
                asked.append(ys)
                return len(asked) == k + 1

            found = exp.find_prefix(lst, start, accept)
            assert tuple(lst) in rots
            if found is None:
                assert k == len(want) == len(asked)
            else:
                r, end = found
                got.append((tuple(lst[r:] + lst[:r]), end - r, asked[-1]))
        assert got == want
    for rot in rots:
        w = exp.YC.word(rot)
        assert exp.d_word(w) == reference_d_word(w, exp)


@given(block_letters())
@settings(max_examples=200, deadline=None)
def test_wp_deletes_as_the_ring_scan(case):
    """wp_RC on one list edited in place makes the ring scan's deletions,
    in its order, and decides as the free-reducing reference."""
    pipe, seq = case
    w = pipe.exp.YC.word(seq)
    assert _wp_cuts(w, pipe) == ring_wp_RC(w, pipe)
    assert wp_RC(w, pipe) == reference_wp_RC(w, pipe)


def _z_blocks_c2():
    """The Z pipeline with C = 2, and the letters of its blocks A_x and
    A_x-bar."""
    pipe = _block_pipe("Z", 1, 2)
    x, xb = pipe.trick.y_letters
    return pipe, pipe.exp.blocks[x], pipe.exp.blocks[xb]


def test_wp_cuts_a_relator_read_past_the_list_end():
    """Rotations 0 and 1 offer no trivial candidate; rotation 2 reads
    x1 x2 b1 past the end, so the list is rotated and the relator
    x1 x2 b1 b2 cut from the front, leaving one letter."""
    pipe, (x1, x2), (b1, b2) = _z_blocks_c2()
    ltrs = [b2, -x2, x1, x2, b1]
    lst = list(ltrs)
    assert pipe.exp.find_prefix(lst, 2, pipe.trick.trivial) == (0, 4)
    assert lst == [x1, x2, b1, b2, -x2]
    w = pipe.exp.YC.word(ltrs)
    assert _wp_cuts(w, pipe) == ring_wp_RC(w, pipe) == (
        False, [((x1, x2, b1, b2, -x2), 4)])


def test_wp_cancels_across_a_cut_and_the_cyclic_seam():
    """x2 R x2^-1 b2 R' b2^-1 with R = x1 x2 b1 b2 and R' = b1 b2 x1 x2:
    cutting R leaves x2 x2^-1 across the cut and then b2^-1 b2 across
    the list's ends, and R' is cut last."""
    pipe, (x1, x2), (b1, b2) = _z_blocks_c2()
    ltrs = [x2, x1, x2, b1, b2, -x2, b2, b1, b2, x1, x2, -b2]
    w = pipe.exp.YC.word(ltrs)
    assert _wp_cuts(w, pipe) == ring_wp_RC(w, pipe) == (
        True, [(tuple(ltrs[1:] + ltrs[:1]), 4), ((b1, b2, x1, x2), 4)])
