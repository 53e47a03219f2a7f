"""Sector-language and word-problem decisions against the references in
oracles.py.

The library decodes a marked word once, tests its marker skeleton, and
replays the decoded history once; the references decode, replay on the
bottom machine, test, and replay again.  Words are skeletons, some with
noise letters between their markers (garbage gaps, unreduced skeletons),
pushed through random reduced histories of noise and payload rules, then
left alone or cut by one letter or grown by one noise letter.  Members
are judged by accept-all, reject-all, is-the-skeleton and even-length
predicates.  Word-problem inputs are products of conjugated relators,
trivial or with one letter deleted.
"""

import functools

from hypothesis import given, settings, strategies as st

from oracles import (reference_decode_noise, reference_lambda1_accept,
                     reference_lambda_accept, reference_wp_RC)
from smforge.embedding import build_pipeline, builtin_oracle, wp_RC
from smforge.machines import decode_noise, delta, lambda1_accept, marker_split
from smforge.mainmachine import (DivisibleRecognizer, Params, build_main,
                                 lambda_accept)


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
    with the reduced payload image of its start skeleton."""
    main = _main()
    m1, sch = main.m1, main.scheme
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
    main = _main()
    m1, sch = main.m1, main.scheme
    w, target = data.draw(sector_words())
    member = data.draw(members(target))
    for gap in marker_split(w, sch)[0]:
        assert decode_noise(gap, sch) == reference_decode_noise(gap, sch)
    assert lambda1_accept(w, m1, sch, member) == \
        reference_lambda1_accept(w, m1, sch, member)
    wm = main.from_m1(w)
    assert lambda_accept(wm, main, member) == \
        reference_lambda_accept(wm, main, member)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_plain_and_mixed_words_match_the_reference(data):
    main = _main()
    al = main.machine.hw.alpha
    pool = main.A + (main.A1 + main.B if data.draw(st.booleans()) else ())
    w = al.word(x * s for x, s in data.draw(st.lists(
        st.tuples(st.sampled_from(pool), signs), max_size=8)))
    member = data.draw(members(main.to_m1(w)))
    assert lambda_accept(w, main, member) == \
        reference_lambda_accept(w, main, member)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decode_noise_matches_the_reference(data):
    sch = _main().scheme
    al = sch.alpha
    seq = []
    for _ in range(data.draw(st.integers(0, 5))):
        y, a = data.draw(st.sampled_from(list(sch.pairs())))
        s = data.draw(signs)
        if not seq or seq[-1] != (y, a, -s):
            seq.append((y, a, s))
    u = al.word()
    for y, a, s in seq:
        u = u * sch.noise_word(y, a, s)
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
    assert wp_RC(w, pipe) == reference_wp_RC(w, pipe)
    assert wp_RC(w, pipe) is (trivial or not w)
