"""Word arithmetic against naive oracles."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

import smforge
from smforge import smachine, words
from smforge.words import (
    Alphabet, BasisSearchError, MachineError, Word, cyclic_reduce,
    express_in_basis, expression_word, free_reduce, is_member, substitute,
    validate_basis,
)

from oracles import (ReferenceFolder, naive_cyclic_reduce, naive_member,
                     naive_reduce, random_reduced, reference_validate_basis,
                     rng)

p = pytest.mark.parametrize


def mk_alpha(n=3):
    al = Alphabet()
    for i in range(n):
        al.intern("g%d" % i)
    return al


ids3 = [1, 2, 3]
seqs = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40)


@given(seqs)
@settings(max_examples=300)
def test_free_reduce_matches_naive(seq):
    assert free_reduce(seq) == naive_reduce(seq)


@given(seqs, seqs)
@settings(max_examples=200)
def test_mul_associates_with_reduction(s1, s2):
    al = mk_alpha()
    w1, w2 = al.word(s1), al.word(s2)
    assert (w1 * w2).ltrs == naive_reduce(tuple(s1) + tuple(s2))


@given(seqs, seqs, st.integers(0, 40))
@settings(max_examples=300)
def test_mul_cancels_at_the_junction(s1, s2, cut):
    """Both factors are reduced, so the product reduces where they meet:
    it is free_reduce of the concatenation, and ``junction`` counts the
    letters each side loses there.  The second factor starts with the
    inverse of a tail of the first, so long junctions come up."""
    al = mk_alpha()
    w1 = al.word(s1)
    w2 = ~w1[len(w1) - min(cut, len(w1)):] * al.word(s2)
    whole = free_reduce(w1.ltrs + w2.ltrs)
    assert (w1 * w2).ltrs == whole
    k = words.junction(w1.ltrs, w2.ltrs)
    assert 2 * k == len(w1) + len(w2) - len(whole)
    assert w1.ltrs[:len(w1) - k] + w2.ltrs[k:] == whole


letters6 = st.sampled_from([1, -1, 2, -2, 3, -3])


def _spliced(draw, w):
    """w with cancelling pieces put in: p p^-1 for a drawn p, some longer
    than a chunk, or s^-1 s for a suffix s of what precedes, which cancels
    back into w; the places favour chunk edges."""
    w = list(w)
    for _ in range(draw(st.integers(0, 4))):
        at = min(len(w), draw(st.sampled_from([0, 1, 63, 64, 65, 127, 128])
                              | st.integers(0, len(w))))
        if draw(st.booleans()):
            piece = draw(st.lists(letters6, min_size=1, max_size=70))
        else:
            piece = [-x for x in reversed(w[at - draw(st.integers(1, 70)):at]
                                          if at else [])]
        w[at:at] = piece + [-x for x in reversed(piece)]
    return tuple(w)


@st.composite
def match_cases(draw):
    """(x, y): y reduced or with cancelling pieces of its own, x freely
    equal to y or one letter off it, or x and y unrelated."""
    y = free_reduce(draw(st.lists(letters6, max_size=200)))
    x = _spliced(draw, y)
    if x and draw(st.booleans()):
        k = draw(st.integers(0, len(x) - 1))
        x = x[:k] + (draw(letters6),) + x[k + 1:]
    if draw(st.booleans()):
        y = _spliced(draw, y)
    if draw(st.integers(0, 5)) == 0:
        x = tuple(draw(st.lists(letters6, max_size=10)))
    return x, y


@given(match_cases())
@settings(max_examples=300)
def test_reduces_to_matches_free_reduction(case):
    x, y = case
    got = words.reduces_to(x, y)
    equal = free_reduce(x) == free_reduce(y)
    assert equal or not got
    if free_reduce(y) == y:
        assert got == equal
    assert words.reduces_to(x, x) and words.reduces_to((), ()) and \
        words.reduces_to(x + tuple(-a for a in reversed(x)), ())


def test_raw_word_rejects_ids_outside_the_alphabet():
    al = mk_alpha()
    for ltrs in ([0], [1, 0], [4], [-4], [2, 99]):
        with pytest.raises(ValueError, match="is not in the alphabet"):
            al.raw_word(ltrs)
    assert al.raw_word([3, -1]).format() == "g2 g0^-1"


def test_word_rejects_ids_outside_the_alphabet():
    """Checked after free reduction, so a cancelled pair goes unread."""
    al = mk_alpha(2)
    for ltrs in ([9], [1, -3], [2, 9, 1]):
        with pytest.raises(ValueError, match="is not in the alphabet"):
            al.word(ltrs)
    assert al.word([2, 9, -9, -1]).format() == "g1 g0^-1"


def test_letter_lookups_reject_ids_outside_the_alphabet():
    """The id 0 does not read the last letter, and an id past the end
    raises the typed ValueError, not IndexError."""
    al = mk_alpha(2)
    for look in (al.name_of, al.kind_of, al.subkind_of, al.coord_of):
        for i in (0, 3, -3, 9):
            with pytest.raises(ValueError, match=re.escape(
                    "letter id %d is not in the alphabet" % i)):
                look(i)
        assert look(-2) == look(2)
    with pytest.raises(ValueError, match="letter id 9 is not in the alphabet"):
        al.word([9]).format()
    assert al.name_of(-1) == "g0" and al.kind_of(2) == "a"


def test_express_rejects_a_word_over_another_alphabet():
    al, other = mk_alpha(), mk_alpha()
    with pytest.raises(ValueError, match="different alphabets"):
        express_in_basis(other.parse("g0"), [al.parse("g0")])


@given(seqs)
@settings(max_examples=200)
def test_inverse_cancels(seq):
    al = mk_alpha()
    w = al.word(seq)
    assert not (w * ~w)
    assert not (~w * w)


@given(seqs, st.integers(-3, 3))
@settings(max_examples=200)
def test_pow_matches_naive(seq, n):
    al = mk_alpha()
    w = al.word(seq)
    base = seq if n >= 0 else [-x for x in reversed(seq)]
    assert (w ** n).ltrs == naive_reduce(list(base) * abs(n))


@given(seqs)
@settings(max_examples=200)
def test_cyclic_reduce_decomposition(seq):
    al = mk_alpha()
    w = al.word(seq)
    core, c = cyclic_reduce(w)
    assert core.ltrs == naive_cyclic_reduce(seq)
    assert c * core * ~c == w
    assert len(core) < 2 or core.ltrs[0] != -core.ltrs[-1]


def test_parse_format_round_trip():
    al = mk_alpha()
    for text in ["1", "g0", "g0^-1", "g0 g1^-1 g0 g0", "g2 g2 g2^-1 g1"]:
        w = al.parse(text)
        assert al.parse(w.format()) == w
    assert al.parse("g0 g0^-1").format() == "1"


def test_parse_rejects_unknown_and_bad_tokens():
    """Word text and history text share one token grammar: a name may be
    followed by ``^-1`` alone."""
    al = mk_alpha()
    with pytest.raises(KeyError):
        al.parse("zz")
    for tok in ("g0^2", "g0^-1^-1", "^-1", "g0^"):
        for read in (al.parse, smachine.parse_history):
            with pytest.raises(ValueError,
                               match=re.escape("bad token: %r" % tok)):
                read("g1 " + tok)


def test_unknown_letters_are_typed():
    al = mk_alpha()
    assert smforge.UnknownLetterError is words.UnknownLetterError
    with pytest.raises(words.UnknownLetterError) as ei:
        al.parse("g0 nope^-1")
    assert isinstance(ei.value, MachineError)
    assert isinstance(ei.value, KeyError)
    assert ei.value.name == "nope"
    assert str(ei.value) == "unknown letter: 'nope'"
    with pytest.raises(MachineError, match="unknown letter: 'g3'"):
        words.relabel_by_name(mk_alpha(4).parse("g3"), al)
    # relabel's map lacks g1: the error names it, of either sign
    for text in ("g0 g1^-1", "g1 g0"):
        with pytest.raises(words.UnknownLetterError,
                           match="unknown letter: 'g1'"):
            words.relabel(al.parse(text), {1: 2}, al)


def test_the_alphabet_records_no_placement():
    """Parts and sectors are the hardware's to record."""
    al = Alphabet()
    for kw in ("part", "sector"):
        with pytest.raises(TypeError):
            al.intern("a", **{kw: 1})
    assert len(al) == 0
    assert not hasattr(al, "part_of") and not hasattr(al, "sector_of")


def test_substitute_is_homomorphism():
    al = mk_alpha()
    im = {1: al.parse("g1 g2"), 2: al.parse("g2^-1"), 3: al.word()}
    r = rng(1)
    for _ in range(50):
        s1 = [r.choice(ids3) * r.choice((1, -1)) for _ in range(r.randrange(8))]
        s2 = [r.choice(ids3) * r.choice((1, -1)) for _ in range(r.randrange(8))]
        w1, w2 = al.word(s1), al.word(s2)
        assert substitute(w1 * w2, im, al) == substitute(w1, im, al) * substitute(w2, im, al)
        assert substitute(~w1, im, al) == ~substitute(w1, im, al)


# -- folding ----------------------------------------------------------------

def B(al, *texts):
    return [al.parse(t) for t in texts]


VALIDATE_CASES = [
    (("g0", "g1"), True),
    (("g0 g0", "g1"), True),
    (("g0", "g0^-1"), False),
    (("g0 g1", "g1 g0"), True),
    (("g0 g1", "g1^-1 g0^-1"), False),
    (("g0 g1 g0^-1", "g0 g2 g0^-1"), True),
    (("g0", "g0 g1", "g1 g0"), False),
    (("g0", "g1", "g0 g1"), False),
    # each word cancels half of the next, and the three multiply to 1
    (("g0 g1", "g1^-1 g2", "g2^-1 g0^-1"), False),
]


@p("basis,expected", VALIDATE_CASES)
def test_validate_basis_cases(basis, expected):
    al = mk_alpha()
    assert validate_basis(B(al, *basis)) is expected


def test_validate_basis_empty_cases():
    al = mk_alpha()
    assert validate_basis([]) is True
    assert validate_basis([al.word()]) is False


def test_express_spec_example():
    al = mk_alpha()
    basis = B(al, "g0 g0", "g1")
    assert express_in_basis(al.parse("g0 g0 g1"), basis) == [(0, 1), (1, 1)]
    assert express_in_basis(al.parse("g0"), basis) is None
    assert express_in_basis(al.word(), basis) == []


def test_express_empty_basis_element_raises():
    al = mk_alpha()
    with pytest.raises(ValueError):
        express_in_basis(al.parse("g0"), [al.word()])


def test_express_budget_exhaustion_is_typed(monkeypatch):
    al = mk_alpha()
    basis = B(al, "g0 g0", "g1", "g0 g2 g0^-1")
    w = al.parse("g0 g2 g0^-1 g1")
    monkeypatch.setattr(words, "_PEEL_BUDGET", 1)
    with pytest.raises(BasisSearchError, match="peel budget exhausted"):
        express_in_basis(w, basis)
    assert issubclass(BasisSearchError, MachineError)
    assert smforge.MachineError is smachine.MachineError is MachineError


def test_express_non_free_basis_still_works():
    al = mk_alpha()
    basis = B(al, "g0", "g0^-1")
    expr = express_in_basis(al.parse("g0 g0"), basis)
    assert expr is not None
    assert expression_word(basis, expr) == al.parse("g0 g0")


@given(st.lists(st.sampled_from([0, 1, 2]).map(lambda j: (j, 1)), max_size=6).map(
    lambda terms: [(j, s) for j, s in terms]))
@settings(max_examples=120)
def test_express_round_trip_free_basis(terms):
    al = mk_alpha()
    basis = B(al, "g0 g0", "g1", "g0 g2 g0^-1")
    assert validate_basis(basis)
    w = expression_word(basis, terms)
    expr = express_in_basis(w, basis)
    assert expr is not None
    assert expression_word(basis, expr) == w


def test_express_uniqueness_term_count_free_basis():
    # against the brute-force product oracle on a small free basis
    al = mk_alpha()
    basis = B(al, "g0 g0", "g1", "g0 g2 g0^-1")
    r = rng(2)
    for _ in range(40):
        terms = []
        for _ in range(r.randrange(5)):
            j = r.randrange(3)
            s = r.choice((1, -1))
            if terms and terms[-1] == (j, -s):
                continue
            terms.append((j, s))
        w = expression_word(basis, terms)
        expr = express_in_basis(w, basis)
        assert expression_word(basis, expr) == w
        assert len(expr) == len(terms)
        ref = naive_member(w.ltrs, [b.ltrs for b in basis], len(terms))
        assert ref is not None and len(ref) == len(terms)


def test_express_rejects_nonmembers():
    al = mk_alpha()
    basis = B(al, "g0 g0", "g1")
    for text in ["g0", "g2", "g0 g1 g2", "g0 g0 g0"]:
        assert express_in_basis(al.parse(text), basis) is None


def test_marker_style_basis():
    # the shape used by form (3) sector data: {noise * marker} plus noise letters
    al = Alphabet()
    for n in ["b1", "b2", "m1", "m2"]:
        al.intern(n)
    basis = B(al, "b1 b1 b2 m1", "b2 b1 b2 m2", "b1", "b2")
    assert validate_basis(basis)
    w = al.parse("b1 b1 b2 m1 b2 b1 b2 m2 m1^-1 b2^-1 b1^-1 b1^-1")
    expr = express_in_basis(w, basis)
    assert expr == [(0, 1), (1, 1), (0, -1)]


# -- the folder against the per-edge oracle -----------------------------------

@st.composite
def small_bases(draw):
    """1-4 letters, 1-5 reduced words of length 1-7; free and non-free
    bases and words that are not cyclically reduced all come up."""
    k = draw(st.integers(1, 4))
    letters = st.sampled_from([s * x for x in range(1, k + 1) for s in (1, -1)])
    word = st.lists(letters, min_size=1, max_size=7).map(free_reduce)
    basis = draw(st.lists(word.filter(bool), min_size=1, max_size=5))
    probes = draw(st.lists(st.lists(letters, max_size=10).map(free_reduce),
                           max_size=6))
    terms = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1),
                                    st.sampled_from((1, -1))), max_size=5))
    return k, basis, probes, terms


@given(small_bases())
@settings(max_examples=400)
def test_folder_matches_the_per_edge_oracle(case):
    k, basis, probes, terms = case
    al = mk_alpha(k)
    basis = [al.raw_word(t) for t in basis]
    new, ref = words._Folder(basis), ReferenceFolder(basis)
    free = ref.rank() == len(basis)
    assert new.rank() == ref.rank()
    assert validate_basis(basis) is free
    assert (words.free_basis_folder(basis) is None) is not free
    for t in probes:
        w = al.raw_word(t)
        assert new.accepts(w) == ref.accepts(w) == is_member(w, basis)
    w = expression_word(basis, terms)
    assert new.accepts(w) and ref.accepts(w) and is_member(w, basis)


@st.composite
def edited_bases(draw):
    """1-3 letters, 0-5 reduced words of length 0-6, then up to three more:
    a repeat, the inverse or a conjugate of a word already drawn, so
    duplicates, inverse pairs, the empty word and words that are not
    cyclically reduced all come up."""
    k = draw(st.integers(1, 3))
    letters = st.sampled_from([s * x for x in range(1, k + 1) for s in (1, -1)])
    word = st.lists(letters, max_size=6).map(free_reduce)
    basis = draw(st.lists(word, max_size=5))
    edits = st.tuples(st.sampled_from(("repeat", "invert", "conjugate")),
                      st.integers(0, 4), word)
    for kind, j, c in draw(st.lists(edits, max_size=3)) if basis else ():
        t = basis[j % len(basis)]
        inv = tuple(-x for x in reversed(t))
        basis.append({"repeat": t, "invert": inv,
                      "conjugate": free_reduce(
                          c + t + tuple(-x for x in reversed(c)))}[kind])
    return k, basis


@given(edited_bases())
@settings(max_examples=300)
def test_validate_basis_agrees_with_the_fold(case):
    k, basis = case
    al = mk_alpha(k)
    basis = [al.raw_word(t) for t in basis]
    free = reference_validate_basis(basis)
    assert (words.free_basis_folder(basis) is not None) is free
    assert validate_basis(basis) is free


@st.composite
def triangular_bases(draw):
    """A triangular basis over 1-6 letters, or a near miss of one.

    The one-letter entries have distinct letters F; every longer entry is
    p y^e s with p, s over F and its own letter y.  Then up to two edits:
    a letter of F again, of either sign; an entry with a fresh letter
    twice, of either sign; an entry sharing a y; the empty word.  Returns
    the letter count, the basis, in a drawn order, and whether it was
    edited."""
    k = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, k + 1)))
    nf = draw(st.integers(0, k))
    F, rest = order[:nf], order[nf:]
    ny = draw(st.integers(0, len(rest)))
    Y, fresh = rest[:ny], rest[ny:]
    sign = st.sampled_from((1, -1))
    over_f = (st.lists(st.sampled_from([s * f for f in F for s in (1, -1)]),
                       max_size=3).map(free_reduce) if F
              else st.just(()))

    def around(*ys):
        return free_reduce(draw(over_f) + sum(
            ((y,) + draw(over_f) for y in ys), ()))

    basis = [(draw(sign) * f,) for f in F]
    basis += [around(draw(sign) * y) for y in Y]
    edits = st.sampled_from(("single", "twice", "shared", "empty"))
    kinds = draw(st.lists(edits, max_size=2))
    for kind in kinds:
        if kind == "single" and F:
            basis.append((draw(sign) * draw(st.sampled_from(F)),))
        elif kind == "twice" and fresh:
            z = draw(st.sampled_from(fresh))
            basis.append(around(draw(sign) * z, draw(sign) * z))
        elif kind == "shared" and Y:
            basis.append(around(draw(sign) * draw(st.sampled_from(Y))))
        elif kind == "empty":
            basis.append(())
    basis = draw(st.permutations(basis))
    return k, basis, bool(kinds)


@given(triangular_bases(), st.lists(st.lists(
    st.sampled_from([s * x for x in range(1, 7) for s in (1, -1)]),
    max_size=8), max_size=6))
@settings(max_examples=400)
def test_a_triangular_basis_is_free_on_its_letters(case, probes):
    """A basis the triangular test frees is free by the fold alone, and the
    letter test answers membership as the fold does: on the one-letter
    words, on random reduced words and on products of basis words.  Every
    unedited triangular basis passes the test."""
    k, basis, edited = case
    al = mk_alpha(k)
    basis = [al.raw_word(t) for t in basis]
    letters = words.triangular_letters(basis)
    assert edited or letters is not None
    if letters is None:
        return
    assert reference_validate_basis(basis) and validate_basis(basis)
    folder = words.free_basis_folder(basis)
    probes = [al.word([x for x in t if abs(x) <= k]) for t in probes]
    probes += [al.word([s * x]) for x in range(1, k + 1) for s in (1, -1)]
    probes += [expression_word(basis, [(j, 1), (j - 1, -1)])
               for j in range(len(basis))]
    for w in probes:
        assert letters.issuperset(w.ltrs) is folder.accepts(w)


@p("texts", [("g0", "g0"), ("g0", "g0^-1"), ("g0", "g1 g0 g1"),
             ("g0", "g1 g0 g1^-1"), ("g0", "g0 g1", "g1 g0"), ("g0", ""),
             ("g0 g1",)])
def test_near_triangular_bases_are_not_triangular(texts):
    """A repeated letter, a letter beside its inverse, a y twice or with
    both signs, a shared y, an empty entry and two letters outside F."""
    al = mk_alpha()
    basis = [al.parse(t) if t else al.word() for t in texts]
    assert words.triangular_letters(basis) is None


@st.composite
def sector_bases(draw):
    """Aligned bases X, Z over 1-6 letters that form a triangular letter
    map in one of its two orientations, or a near miss of one.

    X letters: X has distinct positive letters; its first entries map to
    themselves, and each other Z entry is its X letter, of either sign,
    wrapped in words over those fixed letters, or a random word.  Z
    letters: the same with X and Z swapped.  Then up to two edits: a
    letter of the side of letters again, or negative, or an empty entry
    on the other side.  Returns the letter count, X, Z and whether they
    are drawn in the shape: unedited, with no random word."""
    k = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, k + 1)))
    n = draw(st.integers(1, k))
    nf = draw(st.integers(0, n))
    fixed = order[:nf]
    sign = st.sampled_from((1, -1))
    over_f = (st.lists(st.sampled_from([s * f for f in fixed
                                        for s in (1, -1)]),
                       max_size=3).map(free_reduce) if fixed
              else st.just(()))
    anything = st.lists(st.sampled_from([s * x for x in range(1, k + 1)
                                         for s in (1, -1)]),
                        max_size=4).map(free_reduce)
    shaped = True

    def around(y):
        return free_reduce(draw(over_f) + (draw(sign) * y,) + draw(over_f))

    def image(y):
        nonlocal shaped
        if draw(st.booleans()):
            return around(y)
        shaped = False
        return draw(anything)

    ones = [(y,) for y in order[:n]]
    others = ones[:nf] + [image(y) for (y,) in ones[nf:]]
    for kind in draw(st.lists(st.sampled_from(("again", "negative",
                                                "empty")), max_size=2)):
        shaped = False
        j = draw(st.integers(0, n - 1))
        if kind == "again":
            ones.append(ones[j])
            others.append(draw(anything))
        elif kind == "negative":
            ones[j] = (-ones[j][0],)
        else:
            others[j] = ()
    X, Z = (others, ones) if draw(st.booleans()) else (ones, others)
    return k, X, Z, shaped


@given(sector_bases(), st.lists(st.lists(
    st.sampled_from([s * x for x in range(1, 7) for s in (1, -1)]),
    max_size=8), max_size=6))
@settings(max_examples=400)
def test_a_sector_rule_decides_freeness_when_built(case, probes):
    """SectorRule(X, Z) is built exactly when X and Z form a triangular
    letter map, and raises BasisShapeError otherwise: every basis drawn in
    the shape is built, and every pair the fold finds not free is
    refused.  A rule built has X and Z free by the fold alone, spells them
    back as given, and its z_member answers membership in <Z> as the fold
    does, on random reduced words, the one-letter words and products of Z
    words."""
    k, X, Z, shaped = case
    al = mk_alpha(k)
    X, Z = (tuple(al.raw_word(t) for t in b) for b in (X, Z))
    try:
        sec = smachine.SectorRule(X, Z)
    except smachine.BasisShapeError:
        assert not shaped
        return
    assert reference_validate_basis(X) and reference_validate_basis(Z)
    assert (sec.X, sec.Z) == (X, Z)
    folder = words.free_basis_folder(Z)
    probes = [al.word([x for x in t if abs(x) <= k]) for t in probes]
    probes += [al.word([s * x]) for x in range(1, k + 1) for s in (1, -1)]
    probes += [expression_word(Z, [(j, 1), (j - 1, -1)])
               for j in range(len(Z))]
    for w in probes:
        assert sec.z_member(w) is folder.accepts(w)


def _form3_basis():
    """The shape of a form-3 noise basis: noise * marker words, then the
    single noise letters last."""
    al = Alphabet()
    for n in ["b1", "b2", "c"] + ["m%d" % i for i in range(12)]:
        al.intern(n)
    r = rng(7)
    basis = [al.raw_word(random_reduced(r, [1, 2], r.randrange(5, 10))
                         + [al.id_of("m%d" % i)]) for i in range(12)]
    return al, basis + B(al, "b1", "b2")


def test_basis_order_changes_neither_rank_nor_membership():
    al, basis = _form3_basis()
    r = rng(8)
    orders = [basis, basis[::-1], basis[-2:] + basis[:-2]]
    orders += [r.sample(basis, len(basis)) for _ in range(5)]
    probes = [al.raw_word(random_reduced(r, [1, 2, 3, 4, 5], r.randrange(12)))
              * al.word([al.id_of("m0")] * r.randrange(2))
              for _ in range(40)]
    assert {words._Folder(b).rank() for b in orders} == {len(basis)}
    for w in probes:
        assert len({is_member(w, b) for b in orders}) == 1
        assert is_member(w, basis) is not (al.id_of("c") in map(abs, w.ltrs))
    al = mk_alpha()
    probes = [al.raw_word(random_reduced(r, ids3, r.randrange(8)))
              for _ in range(40)]
    for texts, expected in VALIDATE_CASES:
        orders = list(itertools.permutations(B(al, *texts)))
        assert len({words._Folder(b).rank() for b in orders}) == 1
        for order in orders:
            assert validate_basis(order) is expected
            assert [is_member(w, order) for w in probes] == \
                [ReferenceFolder(order).accepts(w) for w in probes]


def test_the_letter_name_1_is_refused():
    """``1`` alone is the text of the empty word, so a letter named 1
    would read back as the empty word: it is refused.  Names that only
    hold a 1 are letters like any other."""
    al = Alphabet()
    with pytest.raises(ValueError, match=re.escape("bad letter name: '1'")):
        al.intern("1")
    ids = [al.intern(name) for name in ("11", "a1", "1a")]
    w = al.word(ids)
    assert al.parse(w.format()) == w and len(al) == 3


def test_reinterning_must_agree():
    al = Alphabet()
    a = al.intern("a", subkind="A")
    assert al.intern("a", subkind="A") == a
    for kw in ({"subkind": "b", "coord": 3}, {"subkind": "b"},
               {"subkind": "A", "coord": 3}, {"kind": "q"}):
        with pytest.raises(ValueError, match="re-interned"):
            al.intern("a", **kw)
    assert (al.subkind_of(a), al.coord_of(a), len(al)) == ("A", None, 1)
    q = al.intern("q0", kind="q", coord=2)
    assert al.intern("q0", kind="q", coord=2) == q
