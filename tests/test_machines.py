"""Tests for the bottom tower machine: noise scheme, shift, acceptance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from smforge.machines import (
    a_length,
    b_length,
    build_m1,
    decode_noise,
    delta,
    delta_letters,
    epsilon,
    lambda1_accept,
    marker_split,
    shift,
    shift_time_bound,
    strip_history,
)
from smforge.words import Alphabet, sorted_overlaps
from smforge.smachine import (
    Machine,
    MachineError,
    NoiseDecl,
    ParseError,
    machine_from_text,
    machine_to_text,
    reduce_history,
    semi_apply,
    validate_noisy,
)

p = pytest.mark.parametrize

_built = {}


def m1(*letters):
    if letters not in _built:
        _built[letters] = build_m1(letters)
    return _built[letters]


def random_reduced_history(rng, names, n):
    hist = []
    while len(hist) < n:
        step = (rng.choice(names), rng.choice((1, -1)))
        if hist and hist[-1] == (step[0], -step[1]):
            continue
        hist.append(step)
    return hist


def inverse_history(hist):
    return [(name, -s) for name, s in reversed(hist)]


# -- construction ---------------------------------------------------------------

@p("letters,n_rules,D", [(("a",), 3, 12), (("a", "c"), 4, 32)])
def test_build_shapes(letters, n_rules, D):
    m, sch = m1(*letters)
    assert len(m.rules) == n_rules
    assert sch.D == D
    report = validate_noisy(m)
    for name in m.rules:
        assert report[(name, 1)] == 3
        assert report[(name, 2)] == 1


@p("letters", [[], ["a", "a"], ["b1"], ["q0"], ["x", "x_1"]])
def test_build_rejects_bad_alphabets(letters):
    with pytest.raises(ValueError):
        build_m1(letters)


def test_machine_text_roundtrip():
    m, _ = m1("a")
    text = machine_to_text(m)
    assert machine_to_text(machine_from_text(text)) == text


M1_TEXT = machine_to_text(build_m1(("a",))[0])


@given(st.integers(0, len(M1_TEXT) - 1), st.sampled_from("dir"),
       st.sampled_from(sorted(set(M1_TEXT)) + ["x"]))
@settings(max_examples=300, deadline=None)
def test_single_edit_mutants_parse_or_raise_parse_error(k, op, ch):
    """Delete, insert or replace one character of M1's text: the mutant
    either parses and round-trips, or raises ParseError."""
    text = M1_TEXT[:k] + ("" if op == "d" else ch) + M1_TEXT[k + (op != "i"):]
    try:
        m = machine_from_text(text)
    except ParseError as e:
        assert 0 <= e.line <= len(text.splitlines())
        return
    again = machine_to_text(m)
    assert machine_to_text(machine_from_text(again)) == again


def test_parse_error_names_the_line():
    lines = M1_TEXT.splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith("NOISE"))
    for bad in (lines[n][:lines[n].index("M=")],
                lines[n].replace("b1", "zz")):
        text = "\n".join(lines[:n] + [bad] + lines[n + 1:])
        with pytest.raises(ParseError) as err:
            machine_from_text(text)
        assert err.value.line == n + 1
    with pytest.raises(ParseError) as err:
        machine_from_text("\n".join(lines[1:]))
    assert err.value.line == 0 and "MACHINE" in str(err.value)


@p("head", ["MACHINE", "PART 1:", "TAPE 2:", "NOISE 1:",
             "RULE theta_a: 1:"])
def test_repeated_lines_are_named(head):
    """A second line for one item is an error at that line, whether it
    repeats the first or changes it, and wherever it stands."""
    lines = M1_TEXT.splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith(head))
    for again in (lines[n], lines[n].replace("a_2", "a_2 zz")):
        for at in (n + 1, len(lines)):
            text = "\n".join(lines[:at] + [again] + lines[at:])
            with pytest.raises(ParseError) as err:
                machine_from_text(text)
            assert err.value.line == at + 1
            assert "second " + head.rstrip(":") in str(err.value)


def test_a_machine_refuses_a_bad_declaration_when_built():
    """The noise check runs as a machine is built: M(a)'s rules with the
    roles of M and N swapped are refused by the constructor."""
    m, sch = m1("a")
    bad = NoiseDecl(K={1: sch.A}, M={1: sch.B}, N={1: sch.A1},
                    phi=m.noise.phi)
    with pytest.raises(MachineError,
                       match="rule theta_a sector 1 fits no noisy form"):
        Machine("bad", m.hw, list(m.rules.values()), [1], noise=bad)


def test_noise_lines_must_fit_the_rules():
    lines = M1_TEXT.splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith("NOISE"))
    assert "M={a_1} N={b1,b2}" in lines[n]
    bad = lines[n].replace("M={a_1} N={b1,b2}", "M={b1} N={a_1,b2}")
    with pytest.raises(ParseError) as err:
        machine_from_text("\n".join(lines[:n] + [bad] + lines[n + 1:]))
    assert err.value.line == n + 1
    assert "sector 1 fits no noisy form" in str(err.value)
    assert len(validate_noisy(machine_from_text(M1_TEXT))) == 6


# -- noise words ----------------------------------------------------------------

@p("letters", [("a",), ("a", "c"), ("a", "c", "e")])
def test_noise_word_lengths_and_distinctness(letters):
    m, sch = m1(*letters)
    seen = {}
    for y in sch.A + sch.B:
        for a in sch.A:
            v = sch.noise_word(y, a)
            assert len(v) == sch.D
            assert all(x > 0 for x in v.ltrs)
            assert v.ltrs not in seen, (y, a, seen[v.ltrs])
            seen[v.ltrs] = (y, a)
            assert 1 <= sch.eta(y, a) <= sch.D // 4
    assert len(seen) == sch.D // 4


@p("n", [1, 2, 3, 4])
def test_noise_words_share_under_a_quarter(n):
    """decode_noise's premise over n payload letters: two distinct signed
    noise words share fewer than D/4 leading letters, read off the sorted
    neighbours as validate_basis reads them, so the heads are distinct."""
    _, sch = m1(*"aceg"[:n])
    ws = [sch.noise_word(y, a, s).ltrs for y, a in sch.pairs() for s in (1, -1)]
    assert len(set(ws)) == len(ws) == 2 * (n + 2) * n
    assert 4 * max(p for _, _, p in sorted_overlaps(ws)) < sch.D
    assert len(sch.heads) == len(ws)


def test_quarter_cancellation_exhaustive():
    _, sch = m1("a", "c")
    words = [sch.noise_word(y, a, s)
             for y, a in sch.pairs() for s in (1, -1)]
    for i, v in enumerate(words):
        for j, u in enumerate(words):
            if v * u:  # skip the mutually inverse pairs
                cancelled = (2 * sch.D - len(v * u)) // 2
                assert cancelled < sch.D // 4, (i, j, cancelled)


# -- noise decoding ---------------------------------------------------------------

def test_decode_noise_examples():
    _, sch = m1("a")
    al = sch.alpha
    b1, a = sch.B[0], sch.A[0]
    assert decode_noise(al.word(), sch) == []
    assert decode_noise(sch.noise_word(b1, a), sch) == [(b1, a, 1)]
    assert decode_noise(al.parse("b1"), sch) is None


def test_decode_noise_roundtrip():
    _, sch = m1("a", "c")
    rng = random.Random(19)
    pairs = list(sch.pairs())
    for trial in range(60):
        seq = []
        while len(seq) < rng.randint(0, 4):
            y, a = rng.choice(pairs)
            s = rng.choice((1, -1))
            if seq and seq[-1] == (y, a, -s):
                continue
            seq.append((y, a, s))
        u = sch.alpha.word()
        for y, a, s in seq:
            u = u * sch.noise_word(y, a, s)
        assert decode_noise(u, sch) == seq
        # soundness on corrupted input: either reject or reproduce exactly
        if u:
            k = rng.randrange(len(u))
            bad = sch.alpha.word(u.ltrs[:k] + u.ltrs[k + 1:])
            got = decode_noise(bad, sch)
            if got is not None:
                check = sch.alpha.word()
                for y, a, s in got:
                    check = check * sch.noise_word(y, a, s)
                assert check == bad


# -- projections ------------------------------------------------------------------

def test_delta_examples():
    _, sch = m1("a")
    al = sch.alpha
    w = al.parse("b1 a_1 b2")
    assert delta(w, sch) == al.parse("a")
    assert delta_letters(w, sch) == (sch.A[0],)
    assert a_length(w, sch) == 1 and b_length(w, sch) == 2
    with pytest.raises(ValueError):
        delta(al.parse("a"), sch)


def test_epsilon_example():
    m, sch = m1("a", "b")
    al = sch.alpha
    W = m.configuration({1: al.parse("a_1 b_1")})
    assert epsilon(W, sch) == al.parse("a b")


def test_epsilon_invariance():
    m, sch = m1("a", "c")
    al = sch.alpha
    rng = random.Random(23)
    names = sorted(m.rules)
    W = m.configuration({1: al.parse("a_1 b1 c_1^-1"), 2: al.parse("a_2 c_2")})
    e = epsilon(W, sch)
    assert e == al.parse("a c^-1 a c")
    for _ in range(40):
        W = m.run(W, [(rng.choice(names), rng.choice((1, -1)))]).final()
        assert epsilon(W, sch) == e
    # fresh random configurations, one step each
    sec1 = [x for a1 in sch.A1 for x in (a1, -a1)] + \
        [x for b in sch.B for x in (b, -b)]
    sec2 = [x for a2 in sch.A2 for x in (a2, -a2)]
    for _ in range(200):
        W = m.configuration({
            1: al.word(rng.choice(sec1) for _ in range(rng.randint(0, 8))),
            2: al.word(rng.choice(sec2) for _ in range(rng.randint(0, 4)))})
        e = epsilon(W, sch)
        W2 = m.run(W, [(rng.choice(names), rng.choice((1, -1)))]).final()
        assert epsilon(W2, sch) == e


def test_marker_split():
    _, sch = m1("a")
    al = sch.alpha
    gaps, markers = marker_split(al.parse("b1 a_1 b2 a_1^-1 b1"), sch)
    assert [g.format() for g in gaps] == ["b1", "b2", "b1"]
    assert markers == [sch.A1[0], -sch.A1[0]]


def test_words_over_another_alphabet_raise():
    """A word is read by its ids only over the scheme's own alphabet: a
    one-letter foreign word, and a marker of an equal second M1."""
    m, sch = m1("a")
    al = Alphabet()
    foreign = [al.word([al.intern("zz")]),
               build_m1(("a",))[1].alpha.parse("a_1")]
    for w in foreign:
        for call in (lambda: marker_split(w, sch), lambda: shift(w, m, sch),
                     lambda: strip_history(w, sch),
                     lambda: decode_noise(w, sch)):
            with pytest.raises(ValueError,
                               match="not over the scheme's alphabet"):
                call()


# -- the shift --------------------------------------------------------------------

def test_shift_zero_example():
    m, sch = m1("a")
    c = shift(sch.alpha.parse("b2 b1"), m, sch)
    assert c.time == 2
    assert c.history == [("theta_b1", 1), ("theta_b2", 1)]
    assert not c.final().tapes[0]


def test_shift_positive_marker_example():
    m, sch = m1("a")
    c = shift(sch.alpha.parse("a_1"), m, sch)
    assert c.time == 1 + sch.D
    assert c.history[0] == ("theta_a", 1)
    assert all(s == 1 for _, s in c.history)


def test_shift_negative_marker():
    m, sch = m1("a")
    c = shift(sch.alpha.parse("a_1^-1"), m, sch)
    assert c.history == [("theta_a", -1)]


def test_shift_rejects():
    m, sch = m1("a")
    al = sch.alpha
    assert shift(al.parse("a_1^-1 b1"), m, sch) is None
    with pytest.raises(ValueError):
        shift(al.parse("a"), m, sch)


def test_shift_roundtrip_is_inverse_history():
    # push the empty tape backwards through a reduced history, then shift;
    # the unique erasing computation must be the inverse history
    m, sch = m1("a")
    al = sch.alpha
    rng = random.Random(31)
    names = sorted(m.rules)
    W0 = m.configuration({})
    base = W0.states[:2], W0.tapes[:1]
    for trial in range(40):
        hist = random_reduced_history(rng, names, rng.randint(1, 3))
        from smforge.smachine import AdmissibleWord
        W = AdmissibleWord(m.hw, base[0], base[1])
        W = m.run(W, inverse_history(hist)).final()
        w = W.tapes[0]
        if not w:
            continue
        c = shift(w, m, sch)
        assert c is not None, (trial, w.format())
        assert c.history == hist, (trial, hist, c.history)
        assert c.time <= shift_time_bound(w, sch)
        assert not c.final().tapes[0]


# -- decorated semi-computations ---------------------------------------------------

def test_three_marker_noise_bounds():
    m, sch = m1("a")
    al = sch.alpha
    rng = random.Random(37)
    names = sorted(m.rules)
    skel = al.parse("a_1 a_1 a_1")
    for trial in range(20):
        t = rng.randint(1, 4)
        hist = random_reduced_history(rng, names, t)
        w = m.semi_run(skel, 1, hist)[-1]
        gaps, markers = marker_split(w, sch)
        assert markers == [sch.A1[0]] * 3
        inner = len(gaps[1]) + len(gaps[2])
        assert sch.D * t // 2 <= inner <= 3 * sch.D * t, (trial, inner)


# -- marker-skeleton acceptance -----------------------------------------------------

@p("skel_txt", ["a_1 c_1", "c_1^-1 a_1", "a_1^-1 c_1^-1", "a_1 c_1^-1 a_1"])
def test_lambda1_roundtrip(skel_txt):
    m, sch = m1("a", "c")
    al = sch.alpha
    rng = random.Random(43)
    names = sorted(m.rules)
    skel = al.parse(skel_txt)
    target = delta(skel, sch)
    for trial in range(8):
        hist = random_reduced_history(rng, names, rng.randint(0, 4))
        w = m.semi_run(skel, 1, hist)[-1]
        got = lambda1_accept(w, m, sch, lambda z: z == target)
        assert got is not None, (trial, hist)
        h, words = got
        assert h == inverse_history(hist)
        assert words[-1] == skel
        assert reduce_history(h) == h


def test_lambda1_skeleton_and_rejections():
    m, sch = m1("a", "c")
    al = sch.alpha
    skel = al.parse("a_1 c_1^-1")
    assert lambda1_accept(skel, m, sch, lambda z: True) == ([], [skel])
    assert lambda1_accept(skel, m, sch, lambda z: False) is None
    # an invariant nonempty gap between a cancelling marker pair
    assert lambda1_accept(al.parse("a_1 b1 a_1^-1"), m, sch,
                          lambda z: True) is None
    # garbage that decodes as no noise expression
    assert lambda1_accept(al.parse("b2 a_1"), m, sch, lambda z: True) is None
    # markers that cancel during decoration leave a smaller valid word
    hist = [("theta_c", 1), ("theta_b1", -1)]
    w = m.semi_run(al.parse("a_1 a_1^-1 c_1"), 1, hist)[-1]
    got = lambda1_accept(w, m, sch, lambda z: z == al.parse("c"))
    assert got is not None and got[1][-1] == al.parse("c_1")


@p("letters,depth,count", [(("a",), 4, 2811), (("a", "b"), 3, 2742)])
def test_lambda1_accepts_every_word_a_search_reaches(letters, depth, count):
    """The sector language against its definition: w is in it when some
    semi-computation takes w to a skeleton the member accepts.  Every
    semi-history of length <= depth from the skeletons m, m m and m^-1 of
    each marker m, searched breadth first, reaches ``count`` words.  With
    an accept-all member each is accepted; with an even-length member
    exactly those whose skeleton's payload image is even are."""
    m, sch = m1(*letters)
    al = sch.alpha
    rules = [m.rule(name, s) for name in sorted(m.rules) for s in (1, -1)]
    skeleton = {}  # each word reached -> the skeleton it was reached from
    for a1 in sch.A1:
        for start in ([a1], [a1, a1], [-a1]):
            frontier = [al.word(start)]
            skeleton[frontier[0]] = frontier[0]
            for _ in range(depth):
                nxt = []
                for w in frontier:
                    for r in rules:
                        try:
                            u = semi_apply(w, r, 1)
                        except MachineError:
                            continue
                        if u not in skeleton:
                            skeleton[u] = skeleton[w]
                            nxt.append(u)
                frontier = nxt
    assert len(skeleton) == count
    for w, skel in skeleton.items():
        got = lambda1_accept(w, m, sch, lambda z: True)
        assert got is not None and got[1][-1] == skel
        even = len(delta(skel, sch)) % 2 == 0
        assert (lambda1_accept(w, m, sch, lambda z: len(z) % 2 == 0)
                is not None) is even


def test_lambda1_empty_word():
    m, sch = m1("a")
    al = sch.alpha
    assert lambda1_accept(al.word(), m, sch, lambda z: not z) == \
        ([], [al.word()])
    assert lambda1_accept(al.word(), m, sch, lambda z: bool(z)) is None
