"""Tests for the bottom tower machine: noise scheme, shift, acceptance."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (epsilon, reference_marker_split, reference_noise_word,
                     reference_validate_basis)
from smforge.machines import (
    a_length,
    b_length,
    build_m1,
    decode_noise,
    delta,
    delta_letters,
    lambda1_accept,
    shift,
    shift_time_bound,
    strip_history,
)
from smforge.words import Alphabet, NoiseWord, Word, relabel, sorted_overlaps
from smforge.smachine import (
    GeneralizedRule,
    Machine,
    MachineError,
    NoiseDecl,
    ParseError,
    BasisShapeError,
    SectorRule,
    _fresh,
    machine_from_text,
    machine_to_text,
    reduce_history,
    semi_apply,
    validate_noisy,
)
from smforge.towers import bar_name, reflect

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


def _descriptor_mutants(v):
    """One-field edits of the noise word v: k or m moved by one, or its
    letters swapped or inverted."""
    b1, b2, k, m = v.b1, v.b2, v.k, v.m
    return [NoiseWord(b1, b2, k + 1, m), NoiseWord(b1, b2, k, m + 1),
            NoiseWord(b1, b2, k + 1, m - 1), NoiseWord(b1, b2, k - 1, m + 1),
            NoiseWord(b2, b1, k, m), ~v]


def _letter_mutants(ltrs, B):
    """One-letter edits of a spelled noise word: a letter replaced by
    another signed noise letter, deleted, or one inserted."""
    signed = [x for b in B for x in (b, -b)]
    for i in range(len(ltrs) + 1):
        for x in signed:
            yield ltrs[:i] + (x,) + ltrs[i:]
            if i < len(ltrs) and x != ltrs[i]:
                yield ltrs[:i] + (x,) + ltrs[i + 1:]
        if i < len(ltrs):
            yield ltrs[:i] + ltrs[i + 1:]


@p("n", [1, 2, 3, 4])
def test_noise_mutants_get_the_fold_s_verdict(n):
    """validate_noisy refuses a one-word edit of M1's noise words exactly
    when the fold finds the noise basis not free, with the same message,
    whether the edit is given as a descriptor of a decorated rule or as
    letters, through bases given as words.  One or two noise words of
    each rule get eleven edits each: four, each given both ways, replace
    the word by a one-field edit of its descriptor or by another rule's
    word or its inverse, and three change one letter.  The unedited noise
    words are the reference's, spelled letter by letter."""
    m, sch = m1(*"aceg"[:n])
    al = sch.alpha
    rng = random.Random(310 + n)
    words = {(y, a): reference_noise_word(sch, y, a) for y, a in sch.pairs()}
    cases = []
    for y in sch.A + sch.B:
        for j in rng.sample(range(n), 1 if n > 2 else n):
            a = sch.A[j]
            v = sch.noise_word(y, a)
            # another rule's word or its inverse: the inverse is refused
            other = sch.noise_word(*rng.choice([pair for pair in words
                                                if pair != (y, a)]))
            for u in rng.sample(_descriptor_mutants(v), 2) + [other, ~other]:
                cases += [(y, j, u), (y, j, al.word(u.ltrs))]
            spelled = list(_letter_mutants(words[(y, a)].ltrs, sch.B))
            cases += [(y, j, al.word(t)) for t in rng.sample(spelled, 3)]
    refused = 0
    for y, j, u in cases:
        a = sch.A[j]
        rules = []
        for r in m.rules.values():
            sec = r.sectors[1]
            if r.name == sch.rule_name(y):
                xs = [x.ltrs[0] for x in sec.X]
                if isinstance(u, NoiseWord):
                    noise = [f and f[0] for f in sec.maps]
                    noise[j] = u
                    sec = SectorRule.decorated(al, xs, noise)
                else:
                    Z = list(sec.Z)
                    Z[j] = u * al.word([xs[j]])
                    sec = SectorRule(sec.X, tuple(Z))
            rules.append(GeneralizedRule(m.hw, r.name, r.parts,
                                         [None, sec, r.sectors[2]]))
        basis = {w.ltrs for pair, w in words.items() if pair != (y, a)}
        basis.add(u.ltrs)
        if reference_validate_basis([Word(al, t) for t in basis]):
            report = validate_noisy(Machine("mutant", m.hw, rules, [1],
                                            noise=m.noise))
            assert {report[(r.name, 1)] for r in rules} == {3}
        else:
            refused += 1
            with pytest.raises(MachineError, match="^sector 1: noise words "
                               "do not freely generate$"):
                Machine("mutant", m.hw, rules, [1], noise=m.noise)
    assert refused >= len(m.rules)


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
    neighbours as validate_basis reads them, so their heads of 3D/4 + 1
    letters are distinct; and each word's leading run, b1^k or b2^-k,
    gives its k = eta(y, a), from which pair reads (y, a) back."""
    _, sch = m1(*"aceg"[:n])
    ws = [sch.noise_word(y, a, s).ltrs for y, a in sch.pairs() for s in (1, -1)]
    assert len(set(ws)) == len(ws) == 2 * (n + 2) * n
    assert 4 * max(p for _, _, p in sorted_overlaps(ws)) < sch.D
    assert len({w[:sch.head] for w in ws}) == len(ws)
    for y, a in sch.pairs():
        k = sch.eta(y, a)
        assert sch.pair(k) == (y, a)
        for s in (1, -1):
            w = sch.noise_word(y, a, s).ltrs
            sign, run = sch.runs[w[0]]
            assert sign == s and w[:k] == run[:k] and w[k] != w[0]


@given(st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_noise_descriptors_spell_the_reference_words(n, rnd):
    """Every descriptor the scheme hands out, for every (y, a) and both
    signs, spells reference_noise_word, the formula transcribed letter by
    letter; and so does it after a relabel onto shuffled ids, after
    inversion, and under reflect's bar, where the mirrored sector rules
    hold their noise words as renamed descriptors."""
    m, sch = m1(*"acegik"[:n])
    al = sch.alpha
    ids = list(range(1, len(al) + 1))
    shuffled = ids[:]
    rnd.shuffle(shuffled)
    lmap = dict(zip(ids, shuffled))
    for y, a in sch.pairs():
        for s in (1, -1):
            v = sch.noise_word(y, a, s)
            ref = reference_noise_word(sch, y, a, s)
            assert isinstance(v, NoiseWord) and len(v) == sch.D
            assert v.ltrs == ref.ltrs
            assert (~v).ltrs == (~ref).ltrs
            assert v.relabel(lmap).ltrs == relabel(ref, lmap, al).ltrs
        assert sch.noise_word(y, a, -1) == ~sch.noise_word(y, a)
    m4 = reflect(m)
    al4 = m4.hw.alpha
    bar = {x: al4.id_of(bar_name(al.name_of(x))) for x in ids}
    for y in sch.A + sch.B:
        rule = m4.rules[sch.rule_name(y)]
        # sector 1's mirror is sector 2 * 3 - 1
        mirrored = rule.sectors[5]
        assert all(isinstance(f[0], NoiseWord) for f in mirrored.maps if f)
        for a, z in zip(sch.A, mirrored.Z):
            ref = reference_noise_word(sch, y, a) * al.word([sch.mark(a)])
            assert z == relabel(ref, bar, al4)


@p("n", [1, 2, 3])
def test_a_decorated_rule_matches_its_bases_given_as_words(n):
    """M1's sector-1 rules and their inverses are decorated: each has the
    letters, orientation and fixed entries, domain, fixed and moving
    letters, image letters, basis terms and membership test of the rule
    read from its bases given as words, whose entries hold the spelled
    noise words, and, once a push has moved each letter, the same
    images."""
    m, sch = m1(*"ace"[:n])
    al = sch.alpha
    for r in m.rules.values():
        for sec in (r.sectors[1], r.sectors[1].inverse):
            ref = SectorRule(sec.X, sec.Z)
            assert any(isinstance(f[0], NoiseWord) for f in sec.maps if f)
            assert not any(isinstance(f[0], NoiseWord) for f in ref.maps if f)
            assert [f and (f[0].ltrs,) + f[1:] for f in sec.maps] == \
                [f and (f[0].ltrs,) + f[1:] for f in ref.maps]
            for attr in ("ys", "inverted", "domain", "fixed", "widen",
                         "letters", "_terms", "alpha"):
                assert getattr(sec, attr) == getattr(ref, attr), attr
            for w in sec.Z + (al.word(sch.A), al.word(sch.B)):
                assert sec.z_member(w) == ref.z_member(w)
            assert sec.images == ref.images == {}
            for y in sec.widen:
                bufs = [[y], [y]]
                sec.push(bufs[0], _fresh(bufs[0]))
                ref.push(bufs[1], _fresh(bufs[1]))
                assert bufs[0] == bufs[1] and tuple(bufs[0]) == sec.images[y]
            assert sec.images == ref.images
            assert sec.produces == ref.produces == {
                y: frozenset(img) for y, img in sec.images.items()}


def test_a_decorated_rule_refuses_what_is_not_form_3():
    """Repeated or negative letters, a noise entry too few, and a noise
    word over a letter that moves are refused when the rule is built."""
    al = Alphabet()
    m, b1, b2 = (al.intern(x) for x in ("m", "b1", "b2"))
    v = NoiseWord(b1, b2, 1, 1)
    for letters, noise, message in [
            ((m, m, b1), (None,) * 3, "X={m;m;b1} Z={m;m;b1} are not a "
             "triangular letter map"),
            ((-m, b1, b2), (None,) * 3, "X={m^-1;b1;b2} Z={m^-1;b1;b2} are "
             "not a triangular letter map"),
            ((m, b1, b2), (v, None), "decorated sector: 3 letters, 2 noise "
             "entries"),
            ((m, b1), (v, None), "X={m;b1} Z={b1 b2 b1 b2 m;b1} are not a "
             "triangular letter map")]:
        with pytest.raises(BasisShapeError, match=re.escape(message)):
            SectorRule.decorated(al, letters, noise)
    sec = SectorRule.decorated(al, (m, b1, b2), (v, None, None))
    assert [z.format() for z in sec.Z] == ["b1 b2 b1 b2 m", "b1", "b2"]
    assert sec.inverse.X == sec.Z and sec.inverse.inverse is sec


def test_quarter_cancellation_exhaustive():
    _, sch = m1("a", "c")
    words = [reference_noise_word(sch, y, a, s)
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
    assert decode_noise(reference_noise_word(sch, b1, a), sch) == [(b1, a, 1)]
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
            u = u * reference_noise_word(sch, y, a, s)
        assert decode_noise(u, sch) == seq
        # soundness on corrupted input: either reject or reproduce exactly
        if u:
            k = rng.randrange(len(u))
            bad = sch.alpha.word(u.ltrs[:k] + u.ltrs[k + 1:])
            got = decode_noise(bad, sch)
            if got is not None:
                check = sch.alpha.word()
                for y, a, s in got:
                    check = check * reference_noise_word(sch, y, a, s)
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


def test_words_over_another_alphabet_raise():
    """A word is read by its ids only over the scheme's own alphabet: a
    one-letter foreign word, and a marker of an equal second M1."""
    m, sch = m1("a")
    al = Alphabet()
    foreign = [al.word([al.intern("zz")]),
               build_m1(("a",))[1].alpha.parse("a_1")]
    for w in foreign:
        for call in (lambda: shift(w, m, sch),
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
        gaps, markers = reference_marker_split(w, sch)
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


@p("letters,left,right", [
    # no negative marker on its left and no positive one on its right
    (("a",), "a_1", ""),
    # the negative marker's half spells theta_b1, the positive one's theta_b2
    (("a", "b"), "a_1^-1", "b_1")], ids=["M(a)", "M(a,b)"])
def test_a_gap_no_marker_erases_is_refused(letters, left, right):
    """The gap decodes, but its markers read no one erasing history from
    it.  reference_lambda1_accept shares the library's erasing step, so
    the refusal is asserted here directly."""
    m, sch = m1(*letters)
    al = sch.alpha
    pairs = list(zip(sch.B, sch.A))  # (b1, a), then (b2, b)
    gap = al.word()
    for y, a in pairs:
        gap = gap * reference_noise_word(sch, y, a)
    assert decode_noise(gap, sch) == [(y, a, 1) for y, a in pairs]
    w = al.parse(left) * gap * (al.parse(right) if right else al.word())
    assert strip_history(w, sch) is None
    assert lambda1_accept(w, m, sch, lambda z: True) is None


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
