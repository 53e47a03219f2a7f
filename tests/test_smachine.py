"""Machine layer: admissible words, rule application, inversion, text format."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_validate_basis, signed_rules
from smforge.machines import build_m1
from smforge.mainmachine import DivisibleRecognizer, Params, build_main
from smforge.smachine import (
    AdmissibleWord, BasisShapeError, GeneralizedRule, Hardware,
    HistoryEntryError, Machine, MachineError, NoiseDecl, ParseError, Part,
    RuleNameError, RulePart, SectorMismatchError, SectorRule,
    StateMismatchError, StepError, UnknownRuleError, apply_rule, invert_rule,
    machine_from_text, machine_to_text, parse_history, format_history,
    reduce_history, semi_apply, validate_noisy,
)
from smforge.words import Alphabet, Word

p = pytest.mark.parametrize


def tiny_machine():
    """Three parts, two tapes; one classical and one generalized rule."""
    al = Alphabet()
    q0 = al.intern("q0", kind="q")
    q1 = al.intern("q1", kind="q")
    q1b = al.intern("q1'", kind="q")
    q2 = al.intern("q2", kind="q")
    a = al.intern("a", kind="a")
    b = al.intern("b", kind="a")
    c = al.intern("c", kind="a")
    hw = Hardware(al, [Part((q0,), q0, q0), Part((q1, q1b), q1, q1b),
                       Part((q2,), q2, q2)],
                  [(), (a, b), (c,)])
    W = al.word
    s1 = SectorRule((W([a]), W([b])), (W([a]), W([b])))
    s2 = SectorRule((W([c]),), (W([c]),))
    peel = GeneralizedRule(hw, "peel", [
        RulePart(q0, W(), q0, W()),
        RulePart(q1, al.parse("a^-1"), q1, W()),
        RulePart(q2, W(), q2, W()),
    ], [None, s1, s2])
    twist = GeneralizedRule(hw, "twist", [
        RulePart(q0, W(), q0, W()),
        RulePart(q1, W(), q1b, al.parse("c")),
        RulePart(q2, W(), q2, W()),
    ], [None, SectorRule((W([a]), W([b])), (al.parse("a b"), W([b]))), s2])
    return Machine("tiny", hw, [peel, twist], input_sectors=[1])


def test_admissible_round_trip_and_base():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a b^-1 q1 c c q2"))
    assert W.base() == ((0, 1), (1, 1), (2, 1))
    assert W.sectors == (1, 2)
    assert W.to_word() == al.parse("q0 a b^-1 q1 c c q2")
    assert W.is_configuration()


def test_admissible_inverse_and_mixed_windows():
    m = tiny_machine()
    al = m.hw.alpha
    # inverted two-letter window: q1^-1 u q0^-1 reads sector 1
    W = AdmissibleWord.from_word(m.hw, al.parse("q1^-1 a q0^-1"))
    assert W.sectors == (1,)
    # q u q^-1 window sits in the sector to the right
    W2 = AdmissibleWord.from_word(m.hw, al.parse("q1 c q1^-1"))
    assert W2.sectors == (2,)
    # q^-1 u q window sits in the sector to the left
    W3 = AdmissibleWord.from_word(m.hw, al.parse("q1^-1 a a q1"))
    assert W3.sectors == (1,)


BAD_SHAPES = [
    ("q0 c q1", "window 0: tape word 'c' outside sector 1"),
    ("q0 a q2", "window 0: parts 0,2 not consecutive"),
    ("q1 a q1^-1", "window 0: tape word 'a' outside sector 2"),
    ("q0 q0^-1", "window 0 reduces: q0 q0^-1"),
    ("q0^-1 q0", "window 0: sector 0 does not exist"),
    ("a q0", "tape letters before first state letter"),
    ("q0 a", "tape letters after last state letter"),
]


@p("text, message", [pytest.param(*case, id=case[0]) for case in BAD_SHAPES])
def test_admissible_rejects_bad_shapes(text, message):
    """Each shape is refused with its own message.  The word is built
    letter by letter, unreduced: ``Alphabet.parse`` would reduce q0 q0^-1
    to the empty word, which only has no state letters."""
    m = tiny_machine()
    al = m.hw.alpha
    w = Word(al, tuple(x for tok in text.split() for x in al.parse(tok).ltrs))
    with pytest.raises(MachineError, match=re.escape(message)):
        AdmissibleWord.from_word(m.hw, w)


@p("names", [("q0", "x"), tuple("z%d" % k for k in range(40))])
def test_admissible_from_a_foreign_word_raises(names):
    """A word over another alphabet, whose ids the hardware's alphabet
    does not carry or reads as other letters, is refused."""
    m = tiny_machine()
    other = Alphabet()
    for name in names:
        other.intern(name, kind="q" if name.startswith("q") else "a")
    w = other.word([other.id_of(names[0]), other.id_of(names[-1]),
                    other.id_of(names[0])])
    with pytest.raises(MachineError, match="not over the hardware's alphabet"):
        AdmissibleWord.from_word(m.hw, w)


@p("window", [0, 1])
def test_admissible_with_a_foreign_tape_raises(window):
    """A tape over another alphabet is refused, naming its window, though
    its ids are the hardware's tape letters: the foreign y has the id of a,
    so it would read as a and peel would cancel it."""
    m = tiny_machine()
    al = m.hw.alpha
    other = Alphabet()
    for name in "qrstyuv":
        other.intern(name)
    y = other.word([other.id_of("y")])
    assert y.ltrs == al.parse("a").ltrs
    tapes = [al.parse("a"), al.word()]
    tapes[window] = y
    states = [al.id_of(q) for q in ("q0", "q1", "q2")]
    with pytest.raises(MachineError, match=re.escape(
            "window %d: tape word is not over the hardware's alphabet"
            % window)):
        AdmissibleWord(m.hw, states, tapes)


@p("text", ["x", "x x", "q0 a q1 q2 x", "x^-1 q0"])
def test_admissible_with_a_state_letter_in_no_part_raises(text):
    """A state letter of the alphabet that no part holds is refused when
    the word is built, also in a word of one state and no windows."""
    m = tiny_machine()
    al = m.hw.alpha
    x = al.intern("x", kind="q")
    with pytest.raises(MachineError, match="state letter x is in no part"):
        AdmissibleWord.from_word(m.hw, al.parse(text))
    with pytest.raises(MachineError, match="state letter x is in no part"):
        AdmissibleWord(m.hw, [x, x], [al.word()])
    with pytest.raises(MachineError, match="state letter #99 is in no part"):
        AdmissibleWord(m.hw, [99], [])


def test_admissible_states_are_signed_state_letters():
    """A state is a signed state-letter id: a (letter, sign) pair, a list,
    the id 0 and a tape letter are each refused, naming the state."""
    m = tiny_machine()
    al = m.hw.alpha
    q0, q1, q2, a = (al.id_of(n) for n in ("q0", "q1", "q2", "a"))
    e = al.word()
    for states, tapes, name in [
            ([(q0, 1), (q1, 1), (q2, 1)], [e, e], "#(%d, 1)" % q0),
            ([[q0, 1]], [], "#[%d, 1]" % q0),
            ([0], [], "#0"), ([-a], [], "a")]:
        with pytest.raises(MachineError, match=re.escape(
                "state letter %s is in no part" % name)):
            AdmissibleWord(m.hw, states, tapes)
    W = AdmissibleWord(m.hw, [q0, q1, -q1, q1], [e, al.parse("c"),
                                                 al.parse("a")])
    assert W.states == (q0, q1, -q1, q1) and W.sectors == (1, 2, 1)
    assert W.base() == ((0, 1), (1, 1), (1, -1), (1, 1))
    assert W.format() == "q0 q1 c q1^-1 a q1"


def test_a_configuration_names_a_sector_it_cannot_place():
    m = tiny_machine()
    w = m.hw.alpha.parse("a")
    for sector in (0, 3, 9):
        with pytest.raises(MachineError, match=re.escape(
                "sector %d holds no tape of a configuration" % sector)):
            m.configuration({sector: w})
        with pytest.raises(MachineError, match=re.escape(
                "sector %d is not an input sector" % sector)):
            m.input_config({sector: w})
    assert m.configuration({1: w}).format() == "q0 a q1 q2"


def test_rule_with_a_state_letter_in_no_part_raises():
    m = tiny_machine()
    al = m.hw.alpha
    q0, q1, q2, a = (al.id_of(n) for n in ("q0", "q1", "q2", "a"))
    x = al.intern("x", kind="q")
    with pytest.raises(MachineError, match="state letter x is in no part"):
        GeneralizedRule(m.hw, "stray", [
            RulePart(q0, al.word(), q0, al.word()),
            RulePart(x, al.word(), q1, al.word()),
            RulePart(q2, al.word(), q2, al.word()),
        ], [None, SectorRule((al.word([a]),), (al.word([a]),)), None])


class _Kit:
    """The tiny machine's hardware and letters, and the parts and sectors
    of a rule over it that each guard case bends one way: every part
    q -> q, sector 1 a -> a, sector 2 c -> c."""

    def __init__(self):
        self.m = tiny_machine()
        self.hw, self.al = self.m.hw, self.m.hw.alpha
        self.q0, self.q1, self.q2, self.a, self.b, self.c = (
            self.al.id_of(n) for n in ("q0", "q1", "q2", "a", "b", "c"))
        self.e = self.al.word()

    def w(self, *ltrs):
        return self.al.word(ltrs)

    def parts(self, i=None, part=None):
        out = [RulePart(q, self.e, q, self.e)
               for q in (self.q0, self.q1, self.q2)]
        if i is not None:
            out[i] = part
        return out

    def sectors(self, i=None, sec=None):
        out = [None, SectorRule((self.w(self.a),), (self.w(self.a),)),
               SectorRule((self.w(self.c),), (self.w(self.c),))]
        if i is not None:
            out[i] = sec
        return out

    def rule(self, parts=None, sectors=None):
        return GeneralizedRule(self.hw, "bad", parts or self.parts(),
                               sectors or self.sectors())


GUARDS = [
    # Hardware
    ("hw-tape-count", ValueError, "need exactly one tape entry per part",
     lambda k: Hardware(k.al, k.hw.parts, [(), (k.a,)])),
    ("hw-wrap-tape", ValueError, "linear hardware cannot have a wrap tape",
     lambda k: Hardware(k.al, k.hw.parts, [(k.c,), (k.a,), ()])),
    ("hw-part-letter", ValueError, "part letter a is not a state letter",
     lambda k: Hardware(k.al, [Part((k.a,), k.a, k.a)] + k.hw.parts[1:],
                        k.hw.tapes)),
    ("hw-tape-letter", ValueError, "tape letter q0 is not a tape letter",
     lambda k: Hardware(k.al, k.hw.parts, [(), (k.q0,), ()])),
    # AdmissibleWord
    ("word-counts", MachineError, "admissible word needs k+1 states, k tapes",
     lambda k: AdmissibleWord(k.hw, [k.q0, k.q1], [])),
    ("word-no-states", MachineError,
     "admissible word needs k+1 states, k tapes",
     lambda k: AdmissibleWord(k.hw, [], [])),
    ("word-parts-not-equal", MachineError, "window 0: parts 0,1 not equal",
     lambda k: AdmissibleWord(k.hw, [k.q0, -k.q1], [k.w(k.a)])),
    ("word-no-sector-0", MachineError, "window 0: sector 0 does not exist",
     lambda k: AdmissibleWord(k.hw, [-k.q0, k.q0], [k.w(k.a)])),
    ("word-no-sector-3", MachineError, "window 0: sector 3 does not exist",
     lambda k: AdmissibleWord(k.hw, [k.q2, -k.q2], [k.w(k.c)])),
    ("word-reduces", MachineError, "window 0 reduces: q1 q1^-1",
     lambda k: AdmissibleWord(k.hw, [k.q1, -k.q1], [k.e])),
    # GeneralizedRule
    ("rule-part-count", ValueError, "rule bad: wrong part/sector count",
     lambda k: k.rule(parts=k.parts()[:2])),
    ("rule-sector-count", ValueError, "rule bad: wrong part/sector count",
     lambda k: k.rule(sectors=k.sectors()[:2])),
    ("rule-q-in-another-part", ValueError,
     "rule bad part 1: state letters in wrong part",
     lambda k: k.rule(parts=k.parts(1, RulePart(k.q0, k.e, k.q1, k.e)))),
    ("rule-q2-in-another-part", ValueError,
     "rule bad part 1: state letters in wrong part",
     lambda k: k.rule(parts=k.parts(1, RulePart(k.q1, k.e, k.q2, k.e)))),
    ("rule-sector-0", ValueError, "rule bad: sector 0 on linear hardware",
     lambda k: k.rule(sectors=k.sectors(0, k.sectors()[1]))),
    ("rule-basis-sizes", BasisShapeError,
     "sector bases X={a;b} Z={a} are not a triangular letter map",
     lambda k: k.rule(sectors=k.sectors(1, SectorRule(
         (k.w(k.a), k.w(k.b)), (k.w(k.a),))))),
    ("rule-basis-outside", ValueError,
     "rule bad sector 1: basis word 'c' outside sector",
     lambda k: k.rule(sectors=k.sectors(1, k.sectors()[2]))),
    ("rule-not-free", BasisShapeError,
     "sector bases X={a;b} Z={a;a^-1} are not a triangular letter map",
     lambda k: k.rule(sectors=k.sectors(1, SectorRule(
         (k.w(k.a), k.w(k.b)), (k.w(k.a), k.w(-k.a)))))),
    ("rule-insert-beyond", ValueError,
     "rule bad part 2: right insert beyond last sector",
     lambda k: k.rule(parts=k.parts(2, RulePart(k.q2, k.e, k.q2,
                                                k.w(k.c))))),
    ("rule-insert-locked", ValueError,
     "rule bad: insert 'c' in locked sector 2",
     lambda k: k.rule(parts=k.parts(1, RulePart(k.q1, k.e, k.q1, k.w(k.c))),
                      sectors=k.sectors(2, None))),
    # Machine
    ("machine-duplicate-rule", ValueError, "duplicate rule name peel",
     lambda k: Machine("m", k.hw, [k.m.rule("peel"), k.m.rule("peel")])),
    ("machine-inverse-rule", ValueError, "machines carry positive rules only",
     lambda k: Machine("m", k.hw, [k.m.rule("peel", -1)])),
]


@p("error, message, build",
   [pytest.param(*case[1:], id=case[0]) for case in GUARDS])
def test_construction_guards(error, message, build):
    """Every guard of the hardware, word, rule and machine constructors
    raises its own message; a rule that would move a state letter out of
    its part, or that has too few parts, is refused when it is built."""
    with pytest.raises(error, match=re.escape(message)):
        build(_Kit())


@p("which", ["Start", "", "accept", None])
def test_configuration_is_start_or_end(which):
    """A configuration takes its states at the start or at the end, and
    anything else is refused, not read as the end."""
    m = tiny_machine()
    assert m.configuration({}, which="start").format() == "q0 q1 q2"
    assert m.configuration({}, which="end").format() == "q0 q1' q2"
    with pytest.raises(ValueError, match="which is 'start' or 'end'"):
        m.configuration({}, which=which)


def test_apply_classical_rule():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a b a q1 c q2"))
    out = apply_rule(W, m.rule("peel"))
    assert out.format() == "q0 a b q1 c q2"


def test_apply_generalized_rule_and_inverse_round_trip():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a b^-1 a q1 c q2"))
    out = apply_rule(W, m.rule("twist"))
    # a -> ab, b -> b so a b^-1 a -> (ab) b^-1 (ab) = a a b, then v=c
    assert out.format() == "q0 a a b q1' c c q2"
    back = apply_rule(out, m.rule("twist", -1))
    assert back == W


def test_invert_rule_involution():
    m = tiny_machine()
    for name in m.rules:
        r = m.rule(name)
        rr = invert_rule(invert_rule(r))
        assert [(_p.q, _p.u, _p.q2, _p.v) for _p in rr.parts] == \
               [(_p.q, _p.u, _p.q2, _p.v) for _p in r.parts]
        for s1, s2 in zip(rr.sectors, r.sectors):
            assert s1 is s2
        assert repr(rr) == repr(r) == "GeneralizedRule(%s)" % name


def test_a_sector_rule_owns_its_inverse():
    """A sector rule builds its inverse once, with X and Z swapped, and the
    inverse's inverse is the sector rule itself; every inverse rule of the
    machine reads its sectors through them."""
    m = tiny_machine()
    for name in m.rules:
        for sec, inv in zip(m.rule(name).sectors, m.rule(name, -1).sectors):
            if sec is None:
                assert inv is None
                continue
            assert inv is sec.inverse and sec.inverse.inverse is sec
            assert (inv.X, inv.Z) == (sec.Z, sec.X)
            assert inv.letters == sec.letters and inv.alpha is sec.alpha


@p("where, message", [
    ("bases", "rule bad sector 1: bases over another alphabet"),
    ("Z", "rule bad sector 1: bases over another alphabet"),
    ("insert", "rule bad: insert 'x' in sector 1 is over another alphabet"),
])
def test_rules_over_another_alphabet_are_refused(where, message):
    """Words of another alphabet whose x, y, z carry the ids of a, b, c
    would be read as those letters, x -> x y as a -> a b.  A rule holding
    one, in its bases or as an insert, is refused when it is built."""
    m = tiny_machine()
    al, hw = m.hw.alpha, m.hw
    other = Alphabet()
    for n in ("p0", "p1", "p1'", "p2", "x", "y", "z"):
        other.intern(n)
    assert [other.id_of(n) for n in "xyz"] == [al.id_of(n) for n in "abc"]
    P, F, e = al.parse, other.parse, al.word()
    X, Z, v0 = (P("a"), P("b")), (P("a b"), P("b")), e
    if where == "bases":
        X, Z = (F("x"), F("y")), (F("x y"), F("y"))
    elif where == "Z":
        Z = (F("x y"), F("y"))
    else:
        v0 = F("x")
    q0, q1, q2 = (part.start for part in hw.parts)
    with pytest.raises(ValueError, match=re.escape(message)):
        GeneralizedRule(hw, "bad", [
            RulePart(q0, e, q0, v0), RulePart(q1, e, q1, e),
            RulePart(q2, e, q2, e),
        ], [None, SectorRule(X, Z), SectorRule((P("c"),), (P("c"),))])


@p("X, Z, v0, u1, message", [
    (("b",), ("b",), "a", "", "insert 'a' outside <Z_1>"),
    (("a",), ("a",), "", "b a", "insert 'b a' outside <Z_1>"),
    (("a", "b"), ("a", "a^-1"), "", "",
     "sector bases X={a;b} Z={a;a^-1} are not a triangular letter map"),
    (("a", "b"), ("a", "b"), "", "c", "insert 'c' outside sector 1"),
    # free, but no triangular letter map
    (("a", "b"), ("a b", "b a"), "", "a",
     "sector bases X={a;b} Z={a b;b a} are not a triangular letter map"),
])
def test_rule_validation_errors(X, Z, v0, u1, message):
    """Inserts outside <Z> or the sector are refused when the rule is
    built, and bases that are no triangular letter map when its sector
    rule is, with a BasisShapeError."""
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        _sector1_rule(X, Z, v0, u1)
    assert isinstance(err.value, BasisShapeError) is ("triangular" in message)


def test_a_z_basis_that_is_not_triangular_is_refused():
    """A sector map that is no triangular letter map is refused with a
    BasisShapeError when its sector rule is built, free or not: a -> a,
    b -> a^-1 is not, and a -> a b, b -> b a is (the fold frees {a b,
    b a}) but has no fixed letters for the one letter a b or b a moves."""
    m = tiny_machine()
    P = m.hw.alpha.parse
    for Z, free in ((("a", "a^-1"), False), (("a b", "b a"), True)):
        assert reference_validate_basis(tuple(map(P, Z))) is free
        with pytest.raises(BasisShapeError, match=re.escape(
                "sector bases X={a;b} Z={%s} are not a triangular letter "
                "map" % ";".join(Z))):
            _sector1_rule(("a", "b"), Z, "", "")


def _sector1_rule(X, Z, v0, u1):
    """A rule of tiny_machine with bases X, Z in sector 1, where v0, the
    right insert of part 0, and u1, the left insert of part 1, land."""
    m = tiny_machine()
    al, hw = m.hw.alpha, m.hw
    P = lambda t: al.parse(t) if t else al.word()
    return GeneralizedRule(hw, "bad", [
        RulePart(hw.parts[0].start, al.word(), hw.parts[0].start, P(v0)),
        RulePart(hw.parts[1].start, P(u1), hw.parts[1].start, al.word()),
        RulePart(hw.parts[2].start, al.word(), hw.parts[2].start, al.word()),
    ], [None, SectorRule(tuple(map(P, X)), tuple(map(P, Z))),
        SectorRule((P("c"),), (P("c"),))])


def test_a_relabel_that_breaks_the_shape_is_refused():
    """A relabel builds its rule by the one path that checks the shape:
    renaming c to a sends b to the fixed letter a, and renaming b to a
    repeats a letter, so both raise BasisShapeError; a one-to-one relabel
    keeps the shape, and its images."""
    al = Alphabet()
    a, b, c = (al.intern(x) for x in "abc")
    W = al.word
    sec = SectorRule((W([a]), W([b])), (W([a]), W([c])))
    for lmap, message in (({a: a, b: b, c: a}, "X={a;b} Z={a;a}"),
                          ({a: a, b: a, c: c}, "X={a;a} Z={a;c}")):
        with pytest.raises(BasisShapeError, match=re.escape(
                "sector bases %s are not a triangular letter map" % message)):
            sec.relabel(lmap, al)
    swapped = sec.relabel({a: c, b: b, c: a}, al)
    assert [(x.format(), z.format()) for x, z in zip(swapped.X, swapped.Z)] \
        == [("c", "c"), ("b", "a")]


def test_bases_of_neither_shape_raise():
    """Bases that are no triangular letter map in either orientation raise
    BasisShapeError when the sector rule is built, and from machine text
    as a ParseError naming the RULE line: X entries that are not all one
    positive letter, over Z entries that are not all one either, and
    a -> a a, whose image holds a twice.  The inverse of a rule is never
    refused: it flips the orientation."""
    m = tiny_machine()
    al, hw = m.hw.alpha, m.hw
    P = al.parse
    with pytest.raises(BasisShapeError, match=re.escape(
            "sector bases X={a a;b} Z={a a;b} are not a triangular letter "
            "map")):
        SectorRule((P("a a"), P("b")), (P("a a"), P("b")))
    lines = machine_to_text(m).splitlines()
    at = next(k for k, line in enumerate(lines, 1)
              if "X={a;b} Z={a b;b}" in line)
    lines[at - 1] = lines[at - 1].replace("X={a;b} Z={a b;b}",
                                          "X={a;b} Z={a a;b}")
    with pytest.raises(ParseError, match="not a triangular letter map") as err:
        machine_from_text("\n".join(lines))
    assert err.value.line == at and lines[at - 1].startswith("RULE twist: 1:")
    assert isinstance(err.value.__cause__, BasisShapeError)
    with pytest.raises(BasisShapeError, match=re.escape(
            "sector bases X={a;b} Z={a a;b} are not a triangular letter "
            "map")):
        GeneralizedRule(hw, "square", [
            RulePart(q.start, al.word(), q.start, al.word())
            for q in hw.parts],
            [None, SectorRule((P("a"), P("b")), (P("a a"), P("b"))),
             SectorRule((P("c"),), (P("c"),))])
    for name in m.rules:
        assert m.rule(name, -1).positive is False


def test_inverse_window_application():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q1^-1 a q1"))
    out = apply_rule(W, m.rule("twist"))
    # sector word a maps to ab; inverted left state contributes no inserts
    assert out.format() == "q1'^-1 a b q1'"
    back = apply_rule(out, m.rule("twist", -1))
    assert back == W


def test_errors_distinguish_state_and_sector():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a q1' c q2"))
    with pytest.raises(StateMismatchError):
        apply_rule(W, m.rule("peel"))
    m2 = tiny_machine()
    al2 = m2.hw.alpha
    # build a rule that locks sector 1 to exercise the lock error
    lockr = GeneralizedRule(m2.hw, "lk", [
        RulePart(m2.hw.parts[0].start, al2.word(), m2.hw.parts[0].start, al2.word()),
        RulePart(m2.hw.parts[1].start, al2.word(), m2.hw.parts[1].start, al2.word()),
        RulePart(m2.hw.parts[2].start, al2.word(), m2.hw.parts[2].start, al2.word()),
    ], [None, None, SectorRule((al2.parse("c"),), (al2.parse("c"),))])
    W2 = AdmissibleWord.from_word(m2.hw, al2.parse("q0 a q1 c q2"))
    with pytest.raises(SectorMismatchError) as ei:
        apply_rule(W2, lockr)
    assert ei.value.locked and ei.value.sector == 1
    # a state mismatch is raised before the first window outside the domain
    with pytest.raises(StateMismatchError):
        apply_rule(AdmissibleWord.from_word(m2.hw, al2.parse("q0 a q1' c q2")),
                   lockr)
    W3 = AdmissibleWord.from_word(m2.hw, al2.parse("q0 q1 c q2"))
    out = apply_rule(W3, lockr)
    assert out == W3


def test_run_wraps_step_errors():
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a q1 q2"))
    comp = m.run(W, [("peel", 1)])
    assert comp.final().format() == "q0 q1 q2"
    with pytest.raises(StepError) as ei:
        m.run(W, [("peel", 1), ("twist", -1)])
    assert ei.value.index == 1
    assert isinstance(ei.value.reason, StateMismatchError)


@p("sign", [0, 2, -2])
def test_history_signs_must_be_unit(sign):
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a q1 q2"))
    with pytest.raises(MachineError, match=r"history signs must be \+-1"):
        m.rule("peel", sign)
    for run in (lambda h: m.run(W, h), lambda h: m.semi_run(al.parse("a"),
                                                              1, h)):
        with pytest.raises(StepError) as ei:
            run([("peel", 1), ("peel", sign)])
        assert ei.value.index == 1
        assert str(ei.value.reason) == "history signs must be +-1"


@p("entry, message", [
    ((5, 1), "rule name 5 is not a string"),
    (("peel",), "history entry ('peel',) is not a (rule name, sign) pair"),
    (("peel", 1.0), "history signs must be +-1"),
    (("peel", True), "history signs must be +-1"),
    (5, "history entry 5 is not a (rule name, sign) pair"),
])
def test_malformed_history_entries_are_typed(entry, message):
    m = tiny_machine()
    al = m.hw.alpha
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a q1 q2"))
    for run in (lambda h: m.run(W, h), lambda h: m.semi_run(al.parse("a"),
                                                              1, h)):
        with pytest.raises(StepError) as ei:
            run([("peel", 1), entry])
        assert ei.value.index == 1
        assert isinstance(ei.value.reason, HistoryEntryError)
        assert str(ei.value.reason) == message


@p("history, message", [
    ([("peel", True), ("peel", -1)], "history signs must be +-1"),
    ([("peel", 1.0)], "history signs must be +-1"),
    ([(5, 1)], "rule name 5 is not a string"),
    ([("peel",)], "history entry ('peel',) is not a (rule name, sign) pair"),
])
def test_reduce_history_reads_entries_as_a_run_does(history, message):
    with pytest.raises(HistoryEntryError) as ei:
        reduce_history(history)
    assert str(ei.value) == message


def test_an_inverse_is_spelled_by_its_sign_alone():
    """(name, -1) is the one spelling of an inverse step: a name ending in
    ``^-1`` is unknown, so reduce_history keeps (twist, 1) beside it and a
    run stops there; the inverse rule lives on its rule, built once."""
    m = tiny_machine()
    with pytest.raises(UnknownRuleError, match="unknown rule 'twist\\^-1'"):
        m.rule("twist^-1")
    history = [("twist", 1), ("twist^-1", 1)]
    assert reduce_history(history) == history
    W = AdmissibleWord.from_word(m.hw, m.hw.alpha.parse("q0 a q1 q2"))
    with pytest.raises(StepError) as ei:
        m.run(W, history)
    assert ei.value.index == 1
    assert isinstance(ei.value.reason, UnknownRuleError)
    for name, rule in m.rules.items():
        assert m.rule(name, -1) is rule.inverse is m.rule(name, -1)
        assert rule.inverse.inverse is rule
        assert rule.inverse.name == name + "^-1" and not rule.inverse.positive


# names that history or machine text cannot carry: whitespace, ':' and '^'
# separate their tokens, a lone 1 is the empty history, and an empty name
# is no token
BAD_NAMES = ["tw ist", "tw:ist", "tw^ist", "twist^-1", "1", ""]


@p("name", BAD_NAMES)
def test_a_rule_name_the_text_formats_cannot_carry_is_refused(name):
    """A Machine refuses the rule, naming it; machine text naming it is a
    ParseError at the rule's first RULE line.  A name with ':' ends at its
    ':' there, so that line's part number does not parse."""
    m = tiny_machine()
    twist = m.rules["twist"]
    bad = GeneralizedRule(m.hw, name, twist.parts, twist.sectors)
    with pytest.raises(RuleNameError, match=re.escape(repr(name))):
        Machine("tiny", m.hw, [m.rules["peel"], bad])
    text = machine_to_text(m).replace("RULE twist:", "RULE %s:" % name)
    at = next(k for k, line in enumerate(text.splitlines(), 1)
              if line.startswith("RULE %s:" % name))
    with pytest.raises(ParseError) as err:
        machine_from_text(text)
    assert err.value.line == at
    assert isinstance(err.value.__cause__, RuleNameError) == (":" not in name)


def _tiny_text_with_a_lock():
    """The tiny machine's text with peel's sector 2 locked by a LOCK line
    after every RULE line."""
    return machine_to_text(tiny_machine()).replace(
        "RULE peel: 2: q2 -> q2 | X={c} Z={c} f=[0->0]",
        "RULE peel: 2: q2 -> q2") + "LOCK peel 2\n"


# the message of a line that the machine's own text lacks, or holds fewer
# times, naming the line
NOT_OWN = "not in the machine's own text, or not this often: %r"


@p("extra,why", [
    ("TAPE 7: zz", "TAPE 7: no such sector"),
    ("LOCK peel 2 extra tokens", "LOCK line needs a rule name and a sector"),
    ("LOCK peel -1", "LOCK peel -1: no such sector"),
    ("LOCK peel 0", "LOCK peel 0: no such sector"),
    ("TAPE 0: zz", "TAPE 0: linear hardware has no sector 0"),
])
def test_a_line_the_machine_cannot_use_is_refused(extra, why):
    """A TAPE line for a sector past the last PART or for sector 0 (the
    tiny machine is linear: it has no sector 0), a LOCK line with more
    than a rule name and a sector, and a LOCK line for no sector (``why``
    says which) are each a ParseError at that line: the machine's own text
    has no such line, so the text is not read as the machine without it."""
    text = _tiny_text_with_a_lock()
    assert machine_from_text(text).rules["peel"].sectors[2] is None
    with pytest.raises(ParseError, match=re.escape(NOT_OWN % extra)) as err:
        machine_from_text(text + extra + "\n")
    assert err.value.line == len(text.splitlines()) + 1, why


def test_a_text_read_only_through_a_repair_is_refused():
    """A sector whose f is not the identity (the writer writes only the
    identity, and the reader does not read f) is a ParseError at its RULE
    line; a text without one of the machine's LOCK lines is a ParseError
    at line 0 naming the LOCK line."""
    text = _tiny_text_with_a_lock()
    lines = text.splitlines()
    at = next(k for k, line in enumerate(lines, 1)
              if line.startswith("RULE peel: 1:"))
    swapped = lines[at - 1].replace("f=[0->0,1->1]", "f=[0->1,1->0]")
    assert swapped != lines[at - 1]
    with pytest.raises(ParseError, match=re.escape(NOT_OWN % swapped)) as err:
        machine_from_text(text.replace(lines[at - 1], swapped))
    assert err.value.line == at
    assert lines[-1] == "LOCK peel 2"
    with pytest.raises(ParseError, match=re.escape(
            "the text lacks a line of the machine's own text: "
            "'LOCK peel 2'")) as err:
        machine_from_text("\n".join(lines[:-1]))
    assert err.value.line == 0


@p("old,new", [("a^-1 q1 |", "a^-1 q1 c |"), ("a^-1 q1 |", "a^-1 q2 |")])
def test_a_rule_the_constructor_refuses_is_blamed_on_its_first_line(old,
                                                                    new):
    """peel with an insert in its locked sector, or with a state letter
    of another part: GeneralizedRule refuses it, and the ParseError names
    peel's first line in the text, not its LOCK line."""
    text = _tiny_text_with_a_lock()
    first = next(k for k, line in enumerate(text.splitlines(), 1)
                 if line.startswith("RULE peel:"))
    assert text.count(old) == 1
    with pytest.raises(ParseError, match="rule peel") as err:
        machine_from_text(text.replace(old, new))
    assert err.value.line == first


def test_unknown_rule_is_typed():
    import smforge

    m = tiny_machine()
    al = m.hw.alpha
    assert smforge.UnknownRuleError is UnknownRuleError
    with pytest.raises(UnknownRuleError) as ei:
        m.rule("nosuch", -1)
    assert isinstance(ei.value, KeyError)
    assert isinstance(ei.value, MachineError)
    assert str(ei.value) == "unknown rule 'nosuch'"
    with pytest.raises(KeyError):
        m.rule("nosuch^-1")
    W = AdmissibleWord.from_word(m.hw, al.parse("q0 a q1 q2"))
    for run in (lambda h: m.run(W, h), lambda h: m.semi_run(al.parse("a"),
                                                              1, h)):
        with pytest.raises(StepError) as ei:
            run([("twist", 1), ("nosuch", 1)])
        assert ei.value.index == 1
        assert isinstance(ei.value.reason, UnknownRuleError)
        assert str(ei.value) == "step 1 inadmissible: unknown rule 'nosuch'"


# a sector is an int, not a bool, naming a sector of the hardware
NO_SECTORS = [3, 9, -1, "1", 1.0, None, True]


@p("sector", NO_SECTORS)
def test_sector_outside_the_hardware_is_typed(sector):
    """A semi-computation checks its sector once, when it is made: before
    any step, so an empty history is refused too."""
    m = tiny_machine()
    w = m.hw.alpha.parse("a")
    message = "no sector %r" % (sector,)
    with pytest.raises(MachineError) as ei:
        semi_apply(w, m.rule("twist"), sector)
    assert type(ei.value) is MachineError and str(ei.value) == message
    for history in ([("twist", 1)], []):
        with pytest.raises(MachineError) as ei:
            m.semi_run(w, sector, history)
        assert type(ei.value) is MachineError and str(ei.value) == message


def test_a_sector_once_stepped_keys_no_other():
    """Semi steps are compiled per (rule, sector) and kept on the rule, the
    sector in place of a state tuple: after sector 1's step is compiled,
    True and 1.0 are still refused, and each sector steps by its own rule
    however the compiled steps were made before it."""
    m = tiny_machine()
    al = m.hw.alpha
    for sector, word, image in [(2, "c", "c"), (1, "a", "a b"),
                                (2, "a", None), (1, "c", None),
                                (1, "a b^-1", "a"), (2, "c c", "c c")]:
        w = al.parse(word)
        if image is None:
            with pytest.raises(StepError) as ei:
                m.semi_run(w, sector, [("twist", 1)])
            assert isinstance(ei.value.reason, SectorMismatchError)
            assert ei.value.reason.sector == sector
            with pytest.raises(SectorMismatchError):
                semi_apply(w, m.rule("twist"), sector)
        else:
            assert m.semi_run(w, sector, [("twist", 1)])[-1] == \
                semi_apply(w, m.rule("twist"), sector) == al.parse(image)
    for sector in (True, 1.0):
        with pytest.raises(MachineError, match="no sector %r" % sector):
            semi_apply(al.parse("a"), m.rule("twist"), sector)


def test_a_repeated_semi_run_compiles_nothing_and_follows_after(
        monkeypatch):
    """A semi-run compiles one step per (rule, sector) and links the step
    each rule makes next, as a run does: the same semi-run again compiles
    no step, gives equal words, and every step after its first follows an
    ``after`` link."""
    from smforge import smachine
    m = tiny_machine()
    al = m.hw.alpha
    history = [("twist", 1), ("peel", 1), ("twist", -1), ("twist", 1),
               ("peel", -1), ("twist", 1)]

    def compiled():
        return sum(len(r._steps) + len(r.inverse._steps)
                   for r in m.rules.values())
    first = m.semi_run(al.parse("a a b^-1"), 1, history)
    made = compiled()
    followed = []
    step = smachine._Run.step
    monkeypatch.setattr(smachine._Run, "step", lambda run, rule: (
        followed.append(run.last is not None and rule in run.last.after)
        or step(run, rule)))
    assert m.semi_run(al.parse("a a b^-1"), 1, history) == first
    assert compiled() == made == 4  # twist, peel and their inverses
    assert followed == [False] + [True] * (len(history) - 1)


def test_rule_of_other_hardware_is_typed():
    m, other = tiny_machine(), tiny_machine()
    W = AdmissibleWord.from_word(m.hw, m.hw.alpha.parse("q0 a q1 q2"))
    with pytest.raises(MachineError,
                       match="rule peel: hardware differs from the word's"):
        apply_rule(W, other.rule("peel"))
    assert apply_rule(W, m.rule("peel")).format() == "q0 q1 q2"


@p("sector", NO_SECTORS)
def test_sector_queries_outside_the_hardware_are_typed(sector):
    m = tiny_machine()
    w = m.hw.alpha.parse("a")
    rule = m.rule("twist")
    message = "rule twist: no sector %r" % (sector,)
    with pytest.raises(MachineError, match=re.escape(message)):
        rule.locks(sector)
    assert len(rule.sectors[1].express(w)) == 1


def test_admissibility_under_other_hardware_is_typed():
    m, other = tiny_machine(), tiny_machine()
    W = AdmissibleWord.from_word(m.hw, m.hw.alpha.parse("q0 a q1 q2"))
    message = "rule peel: hardware differs from the word's"
    with pytest.raises(MachineError) as ei:
        apply_rule(W, other.rule("peel"))
    assert type(ei.value) is MachineError and str(ei.value) == message


def test_express_counts_basis_terms():
    m = tiny_machine()
    al = m.hw.alpha
    # a b^-1 a has X-expression a, b^-1, a (3 terms), and so has its
    # image under twist over the inverse rule's X, read off the image
    w = al.parse("a b^-1 a")
    img = semi_apply(w, m.rule("twist"), 1)
    assert len(m.rule("twist").sectors[1].express(w)) == 3
    assert len(m.rule("twist", -1).sectors[1].express(img)) == 3


def test_semi_apply_and_history_utils():
    m = tiny_machine()
    al = m.hw.alpha
    w = al.parse("a b^-1")
    img = semi_apply(w, m.rule("twist"), 1)
    assert img == al.parse("a")  # ab then b^-1
    assert semi_apply(img, m.rule("twist", -1), 1) == w
    h = parse_history("peel twist^-1 twist peel")
    assert format_history(h) == "peel twist^-1 twist peel"
    assert reduce_history(h) == [("peel", 1), ("peel", 1)]
    assert parse_history("1") == [] and format_history([]) == "1"


_HISTORY_MACHINES = {}


def history_machine(which):
    """The tiny machine, M(a) or a main machine, with a start word."""
    if which not in _HISTORY_MACHINES:
        if which == "tiny":
            m = tiny_machine()
            W = AdmissibleWord.from_word(
                m.hw, m.hw.alpha.parse("q0 a b^-1 a q1 c q2"))
        elif which == "M1":
            m = build_m1(("a",))[0]
            W = m.configuration({1: m.hw.alpha.parse("a_1 b1 a_1")})
        else:
            main = build_main(("a",), DivisibleRecognizer(("a",), 1),
                              Params(2, 4, 5, 4, 7, 8, 9, check_chain=False))
            m = main.machine
            W = main.input_i(m.hw.alpha.word([main.A[0]]))
        _HISTORY_MACHINES[which] = m, W
    return _HISTORY_MACHINES[which]


def _stepped(V, rule):
    try:
        return apply_rule(V, rule)
    except MachineError:
        return None


@p("which", ["tiny", "M1", "main"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_history_text_round_trips_and_a_reduced_run_ends_alike(which, data):
    """Random histories over a machine's rule names round-trip through
    history text.  A walk that takes only steps that apply, now and then
    a step and its inverse, ends where its reduced history ends."""
    m, W = history_machine(which)
    signed = signed_rules(m)
    h = data.draw(st.lists(st.sampled_from(signed), max_size=12))
    assert parse_history(format_history(h)) == h
    walk, V = [], W
    for _ in range(data.draw(st.integers(0, 10))):
        fits = [(step, U) for step in signed
                if (U := _stepped(V, m.rule(*step))) is not None]
        if not fits:
            break
        step, U = data.draw(st.sampled_from(fits))
        if data.draw(st.booleans()):
            walk += [step, (step[0], -step[1])]
        else:
            walk.append(step)
            V = U
    assert parse_history(format_history(walk)) == walk
    assert m.run(W, walk, trace=False).final() == V
    assert m.run(W, reduce_history(walk), trace=False).final() == V


def test_machine_text_round_trip():
    m = tiny_machine()
    text = machine_to_text(m)
    m2 = machine_from_text(text)
    assert machine_to_text(m2) == text
    # and the reconstructed machine actually computes
    al = m2.hw.alpha
    W = AdmissibleWord.from_word(m2.hw, al.parse("q0 a b a q1 c q2"))
    assert apply_rule(W, m2.rule("peel")).format() == "q0 a b q1 c q2"


def noisy_machine():
    al = Alphabet()
    q0 = al.intern("p0", kind="q")
    q1 = al.intern("p1", kind="q")
    a = al.intern("a", kind="a", subkind="A")
    a1 = al.intern("a_1", kind="a", subkind="A")
    b1 = al.intern("b1", kind="a", subkind="b")
    b2 = al.intern("b2", kind="a", subkind="b")
    hw = Hardware(al, [Part((q0,), q0, q0), Part((q1,), q1, q1)],
                  [(), (a, a1, b1, b2)])
    W = al.word
    copy = GeneralizedRule(hw, "copy", [
        RulePart(q0, W(), q0, W()), RulePart(q1, W(), q1, W()),
    ], [None, SectorRule((W([a]),), (W([a1]),))])
    fuzz = GeneralizedRule(hw, "fuzz", [
        RulePart(q0, W(), q0, W()), RulePart(q1, al.parse("b1^-1"), q1, W()),
    ], [None, SectorRule((W([a1]), W([b1]), W([b2])),
                         (al.parse("b1 b2 a_1"), W([b1]), W([b2])))])
    noise = NoiseDecl(K={1: (a,)}, M={1: (a1,)}, N={1: (b1, b2)},
                      phi={1: {a: a1}})
    return Machine("noisy", hw, [copy, fuzz], input_sectors=[1], noise=noise)


def test_validate_noisy_forms():
    m = noisy_machine()
    report = validate_noisy(m)
    assert report[("copy", 1)] == 2
    assert report[("fuzz", 1)] == 3


def test_validate_noisy_rejects_bad_noise():
    # two rules whose noise words are mutually inverse: the union is not
    # free, and the machine refuses the declaration when it is built
    m = noisy_machine()
    al = m.hw.alpha
    a1, b1, b2 = al.id_of("a_1"), al.id_of("b1"), al.id_of("b2")
    mk = lambda name, v: GeneralizedRule(m.hw, name, [
        RulePart(m.hw.parts[0].start, al.word(), m.hw.parts[0].start, al.word()),
        RulePart(m.hw.parts[1].start, al.word(), m.hw.parts[1].start, al.word()),
    ], [None, SectorRule((al.word([a1]), al.word([b1]), al.word([b2])),
                         (v * al.word([a1]), al.word([b1]), al.word([b2])))])
    with pytest.raises(MachineError, match="do not freely generate"):
        Machine("bad", m.hw, [mk("f1", al.parse("b1 b2")),
                              mk("f2", al.parse("b2^-1 b1^-1"))],
                input_sectors=[1], noise=m.noise)


def test_a_shared_sector_rule_is_classified_under_each_declaration():
    """One sector rule in sectors 1 and 2 is classified by each sector's
    own declaration: noise where both declare it, no form where sector 2
    declares nothing."""
    al = Alphabet()
    qs = [al.intern("p%d" % k, kind="q") for k in range(3)]
    a1 = al.intern("a_1", subkind="A")
    b1, b2 = (al.intern(n, subkind="b") for n in ("b1", "b2"))
    hw = Hardware(al, [Part((q,), q, q) for q in qs],
                  [(), (a1, b1, b2), (a1, b1, b2)])
    W = al.word
    sec = SectorRule((W([a1]), W([b1]), W([b2])),
                     (al.parse("b1 b2 a_1"), W([b1]), W([b2])))
    fuzz = GeneralizedRule(hw, "fuzz", [RulePart(q, W(), q, W()) for q in qs],
                           [None, sec, sec])

    def declared(*sectors):
        return NoiseDecl(M={s: (a1,) for s in sectors},
                         N={s: (b1, b2) for s in sectors})
    report = validate_noisy(Machine("both", hw, [fuzz], noise=declared(1, 2)))
    assert report[("fuzz", 1)] == report[("fuzz", 2)] == 3
    with pytest.raises(MachineError, match="rule fuzz sector 2 fits no"):
        Machine("one", hw, [fuzz], noise=declared(1))


def test_inverse_rule_expresses_naked_marker():
    # a_1 over {b1 b2 a_1, b1, b2} has an expression that grows before it
    # shrinks; the derived substitution must handle it
    m = noisy_machine()
    al = m.hw.alpha
    inv = m.rule("fuzz", -1)
    w = al.parse("a_1")
    expr = inv.sectors[1].express(w)
    assert expr is not None and len(expr) == 3
    assert semi_apply(w, inv, 1) == al.parse("b2^-1 b1^-1 a_1")
    # words with letters outside the sector domain are rejected, not mangled
    assert inv.sectors[1].express(al.parse("a")) is None


def test_noisy_inverse_rule_shape():
    m = noisy_machine()
    al = m.hw.alpha
    inv = m.rule("fuzz", -1)
    # part 1 of the inverse: q1 -> f^-1(b1) q1 = b1 q1 with noise unwound
    rp = inv.parts[1]
    assert al.name_of(rp.q) == "p1" and al.name_of(rp.q2) == "p1"
    assert rp.u == al.parse("b1")
    # semi-step round trip through the noisy sector
    w = al.parse("a_1 b2")
    img = semi_apply(w, m.rule("fuzz"), 1)
    assert img == al.parse("b1 b2 a_1 b2")
    assert semi_apply(img, inv, 1) == w
