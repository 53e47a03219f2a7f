"""Tower builders: composition, reflection, cyclification, parallel copies."""

import hashlib
import itertools
import re

import pytest

from smforge.words import Word, relabel
from smforge.smachine import (Machine, MachineError, NoiseDecl,
                              SectorMismatchError, StepError, apply_rule,
                              machine_from_text, machine_to_text)
from smforge.machines import build_m1, shift
from smforge.groups import emit_presentation
from smforge.towers import (SigmaSpec, _Ring, _merge_noise, bar_name,
                            component, compose, cyclify, reflect)
from smforge.mainmachine import (DivisibleRecognizer, Params, accepting_run,
                                 build_main)

p = pytest.mark.parametrize


def by_name(w, target):
    """Transfer a word into another alphabet by letter name."""
    src = w.alpha
    return Word(target, tuple(
        (1 if x > 0 else -1) * target.id_of(src.name_of(abs(x)))
        for x in w.ltrs))


def mu(w, target):
    """bar(w)^-1 in the given alphabet, renaming by name."""
    wb = by_name(w, target)
    bar = {abs(x): target.id_of(bar_name(target.name_of(abs(x))))
           for x in wb.ltrs}
    return ~relabel(wb, bar, target)


@pytest.fixture(scope="module")
def tower():
    m1, sch = build_m1(("a",))
    plug = DivisibleRecognizer(("a",), 1)
    ident = {plug.machine.hw.alpha.name_of(y): sch.alpha.name_of(z)
             for y, z in zip(plug.machine.hw.tapes[2], sch.A2)}
    m3 = compose(m1, plug.machine, SigmaSpec(sector=2, identify=ident),
                 name="M3")
    m4 = reflect(m3, name="M4")
    m5 = cyclify(m4, name="M5")
    return m1, sch, plug, m3, m4, m5


def accept_history(tower, k):
    """History driving the marked word a_1^k through shift, sigma, plugin."""
    m1, sch, plug, m3, m4, m5 = tower
    marked = sch.alpha.word([sch.A1[0]] * k)
    comp = shift(marked, m1, sch)
    assert comp is not None
    pal = plug.machine.hw.alpha
    hist = list(comp.history) + [("sigma", 1)]
    hist += plug.accept_run(pal.word([plug.tape[0]] * k))
    return marked, hist


# -- compose ---------------------------------------------------------------------


def test_compose_structure(tower):
    m1, sch, plug, m3, m4, m5 = tower
    assert m3.hw.n_parts == 3 and not m3.hw.cyclic
    assert len(m3.rules) == len(m1.rules) + 1 + len(plug.machine.rules)
    assert m3.input_sectors == [1]
    al = m3.hw.alpha
    assert [al.name_of(x) for x in m3.hw.tapes[2]] == ["a_2"]
    assert sorted(al.name_of(x) for x in m3.hw.tapes[1]) == \
        sorted(sch.alpha.name_of(x) for x in sch.A + sch.A1 + sch.B)
    assert al.name_of(m3.hw.parts[0].start) == "q0"
    assert al.name_of(m3.hw.parts[0].end) == "p0e"


def test_compose_rejects_collisions():
    m1, _ = build_m1(("a",))
    m1b, _ = build_m1(("a",))
    with pytest.raises(ValueError, match="collide"):
        compose(m1, m1b, SigmaSpec(sector=2))


def _renamed_m1(states="r", rules="eta_", tape=None):
    """M(a) written out and read back with its state letters and rule
    names renamed, and the tape letter a_2 renamed to ``tape`` if given."""
    m1, _ = build_m1(("a",))
    text = re.sub(r"\bq(\d)\b", states + r"\1", machine_to_text(m1))
    text = text.replace("theta_", rules)
    if tape is not None:
        text = re.sub(r"\ba_2\b", tape, text)
    return machine_from_text(text)


TOWER_GUARDS = [
    ("compose-cyclic", "compose expects linear machines",
     lambda m1: compose(cyclify(m1), m1, SigmaSpec())),
    ("compose-part-counts", "part counts differ: 3 vs 6",
     lambda m1: compose(m1, reflect(m1), SigmaSpec())),
    ("compose-sigma-sector", "sigma sector 3 out of range",
     lambda m1: compose(m1, _renamed_m1(), SigmaSpec(sector=3))),
    ("compose-sigma-name", "rule names collide: theta_a",
     lambda m1: compose(m1, _renamed_m1(), SigmaSpec(name="theta_a"))),
    ("compose-state-letter", "state letter 'q0' appears in both machines",
     lambda m1: compose(m1, _renamed_m1(states="q"), SigmaSpec())),
    ("compose-tape-letter", "tape letter 'a' needs an identify entry",
     lambda m1: compose(m1, _renamed_m1(), SigmaSpec())),
    ("reflect-cyclic", "reflect expects linear hardware",
     lambda m1: reflect(cyclify(m1))),
    ("reflect-mirror-names", "letters a collide with their mirror names",
     lambda m1: reflect(_renamed_m1(tape="a~"))),
    ("cyclify-cyclic", "cyclify expects linear hardware",
     lambda m1: cyclify(cyclify(m1))),
    ("ring-states", "state letter 'q0' collides",
     lambda m1: _twice(_Ring(cyclify(m1), 2))),
]


def _twice(ring):
    """Intern copy 1's part 1 state letters twice."""
    ring.states(1, [1])
    ring.states(1, [1])


@p("message, build", [pytest.param(*case[1:], id=case[0])
                      for case in TOWER_GUARDS])
def test_builder_guards(message, build):
    """Each guard of compose, reflect, cyclify and the ring's state
    interning raises its own message."""
    m1, _ = build_m1(("a",))
    with pytest.raises(ValueError, match=re.escape(message)):
        build(m1)


def _plugged(m):
    """m composed with the c = 1 recognizer over a, as build_main does."""
    plug = DivisibleRecognizer(("a",), 1)
    return compose(m, plug.machine, SigmaSpec(identify={"a_p": "a_2"}))


@p("build, sector", [(_plugged, 1), (reflect, 1), (cyclify, 2)],
   ids=["compose", "reflect", "cyclify"])
def test_stages_of_an_undeclared_machine_check_its_rules(build, sector):
    """A stage built from a machine with no noise declaration checks its
    rules against the empty declaration, which M(a)'s noisy sector 1
    (sector 2 once cyclify shifts it) fits in no form."""
    m1, _ = build_m1(("a",))
    bare = Machine("M1", m1.hw, list(m1.rules.values()), m1.input_sectors)
    assert bare.noise is None
    with pytest.raises(MachineError, match="rule theta_a sector %d fits no "
                       "noisy form" % sector):
        build(bare)


def test_merge_noise_refuses_a_sector_declared_twice():
    m1, _ = build_m1(("a",))
    assert _merge_noise(m1.noise, NoiseDecl()).K == m1.noise.K
    with pytest.raises(ValueError, match=re.escape(
            "noise declared twice for sectors [1]")):
        _merge_noise(m1.noise, NoiseDecl(), m1.noise)


def test_stages_share_sector_rules_as_their_sources_do(tower):
    """Each stage maps each distinct sector rule once: two (rule, sector)
    pairs of a stage hold one SectorRule object exactly when their source
    pairs do.  Reflection maps each source twice, to its own side and to
    the mirror side, so each side is compared on its own."""
    m1, sch, plug, m3, m4, m5 = tower
    n = m3.hw.n_parts

    def pairs(src, img, to):
        return [(sec, img.rules[r.name].sectors[to(s)])
                for r in src.rules.values()
                for s, sec in enumerate(r.sectors) if sec is not None]

    for got in (pairs(m1, m3, int) + pairs(plug.machine, m3, int),
                pairs(m3, m4, int), pairs(m3, m4, lambda s: 2 * n - s),
                pairs(m4, m5, lambda s: s + 1)):
        same = [(a is c, b is d)
                for (a, b), (c, d) in itertools.combinations(got, 2)]
        assert (True, True) in same
        assert all(src == img for src, img in same)


def test_compose_copies_a_tape_letter_with_no_identify_entry():
    """A tape letter of the second machine that no identify entry names,
    and that the first machine lacks, is copied and joined to its
    sector's alphabet after the first machine's letters."""
    m1, _ = build_m1(("a",))
    plug = DivisibleRecognizer(("x",), 1)
    m3 = compose(m1, plug.machine, SigmaSpec(sector=2))
    al = m3.hw.alpha
    assert [al.name_of(y) for y in m3.hw.tapes[2]] == ["a_2", "x_p"]
    assert al.kind_of(al.id_of("x_p")) == "a"
    assert al.subkind_of(al.id_of("x_p")) == "A"
    assert m3.rule("tau_x_0").sectors[2].X == (al.parse("x_p"),)


def test_compose_identifies_tapes_by_name():
    m1, _ = build_m1(("a",))
    plug = DivisibleRecognizer(("x",), 1)
    m3 = compose(m1, plug.machine,
                 SigmaSpec(sector=2, identify={"x_p": "a_2"}))
    assert len(m3.hw.tapes[2]) == 1
    assert m3.hw.alpha.name_of(m3.hw.tapes[2][0]) == "a_2"


def test_linear_tower_acceptance(tower):
    m1, sch, plug, m3, m4, m5 = tower
    marked, hist = accept_history(tower, 1)
    W0 = m3.input_config({1: by_name(marked, m3.hw.alpha)})
    C = m3.run(W0, hist)
    assert C.final() == m3.accept_config()
    assert C.time == 13 + 1 + 2


def test_sigma_needs_the_payload_erased(tower):
    m1, sch, plug, m3, m4, m5 = tower
    marked, _ = accept_history(tower, 1)
    W0 = m3.input_config({1: by_name(marked, m3.hw.alpha)})
    with pytest.raises(SectorMismatchError) as ei:
        apply_rule(W0, m3.rule("sigma"))
    assert ei.value.sector == 1 and ei.value.locked
    with pytest.raises(StepError):
        m3.run(W0, [("sigma", 1)])


# -- reflect ---------------------------------------------------------------------


def test_reflect_structure(tower):
    m1, sch, plug, m3, m4, m5 = tower
    assert m4.hw.n_parts == 6
    assert m4.hw.tapes[3] == ()
    assert m4.input_sectors == [1, 5]
    assert len(m4.rules) == len(m3.rules)
    al = m4.hw.alpha
    assert [al.name_of(x) for x in m4.hw.tapes[5]] == \
        [bar_name(m3.hw.alpha.name_of(x)) for x in m3.hw.tapes[1]]
    assert al.name_of(m4.hw.parts[5].start) == "q0~"
    assert al.name_of(m4.hw.parts[3].end) == "p2e~"


def halves_follow(W4, W1, W2):
    """W4, a configuration of the doubled machine, carries W1's states and
    tapes on its plain half, W2's barred states reversed and mu of its
    tapes on its mirror half, and an empty middle sector."""
    n = len(W1.states)
    al4 = W4.hw.alpha
    assert len(W4.states) == 2 * n and W4.is_configuration()
    assert all(q > 0 for W in (W4, W1, W2) for q in W.states)
    assert [al4.name_of(q) for q in W4.states[:n]] == \
        [W1.hw.alpha.name_of(q) for q in W1.states]
    assert [al4.name_of(q) for q in reversed(W4.states[n:])] == \
        [bar_name(W2.hw.alpha.name_of(q)) for q in W2.states]
    assert not W4.tapes[n - 1]
    for s in range(1, n):
        assert W4.tapes[s - 1] == by_name(W1.tapes[s - 1], al4)
        assert W4.tapes[2 * n - s - 1] == mu(W2.tapes[s - 1], al4)


def test_reflected_acceptance_and_pair(tower):
    m1, sch, plug, m3, m4, m5 = tower
    marked, hist = accept_history(tower, 1)
    al4 = m4.hw.alpha
    W0 = m4.input_config({1: by_name(marked, al4), 5: mu(marked, al4)})
    C = m4.run(W0, hist)
    assert C.final() == m4.accept_config()
    W30 = m3.input_config({1: by_name(marked, m3.hw.alpha)})
    C3 = m3.run(W30, hist)
    assert len(C.words) == len(C3.words)
    for W, W3 in zip(C.words, C3.words):
        halves_follow(W, W3, W3)


def test_pair_tracks_unequal_halves(tower):
    m1, sch, plug, m3, m4, m5 = tower
    al3, al4 = m3.hw.alpha, m4.hw.alpha
    u = sch.alpha.word([sch.A1[0]])
    v = sch.alpha.word()
    W4 = m4.configuration({1: by_name(u, al4), 5: mu(v, al4)})
    W1 = m3.configuration({1: by_name(u, al3)})
    W2 = m3.configuration({1: by_name(v, al3)})
    hist = [("theta_b1", 1), ("theta_b2", 1)]
    C4, C1, C2 = m4.run(W4, hist), m3.run(W1, hist), m3.run(W2, hist)
    for Wk, W1k, W2k in zip(C4.words, C1.words, C2.words):
        halves_follow(Wk, W1k, W2k)
    assert C2.final().tapes[0] == ~al3.word([al3.id_of("b2"),
                                             al3.id_of("b1")])


# -- cyclify ---------------------------------------------------------------------


def test_cyclify_structure(tower):
    m1, sch, plug, m3, m4, m5 = tower
    assert m5.hw.cyclic and m5.hw.n_parts == 7
    assert m5.hw.tapes[0] == () and m5.hw.tapes[1] == ()
    assert m5.input_sectors == [2, 6]
    al = m5.hw.alpha
    t = m5.hw.parts[0].letters[0]
    assert al.name_of(t) == "t" and len(m5.hw.parts[0].letters) == 1
    for r in m5.rules.values():
        assert r.parts[0].q == t and r.parts[0].q2 == t
        assert not r.parts[0].u and not r.parts[0].v
        assert r.sectors[0] is None and r.sectors[1] is None


def test_cyclic_acceptance(tower):
    m1, sch, plug, m3, m4, m5 = tower
    marked, hist = accept_history(tower, 2)
    al5 = m5.hw.alpha
    W0 = m5.input_config({2: by_name(marked, al5), 6: mu(marked, al5)})
    C = m5.run(W0, hist)
    assert C.final() == m5.accept_config()


def test_cyclify_rejects_colliding_anchor(tower):
    m1, sch, plug, m3, m4, m5 = tower
    with pytest.raises(ValueError, match="anchor"):
        cyclify(m3, t_name="q0")


# -- the ring of copies, on the main machine ----------------------------------------

DESK4 = Params(2, 4, 5, 4, 7, 8, 9, check_chain=False)


@pytest.fixture(scope="module")
def main():
    return build_main(("a",), DivisibleRecognizer(("a",), 1), DESK4)


def traced_accepting_run(main, W):
    res = accepting_run(W, main)
    assert res is not None
    return main.machine.run(W, res[0].history)


def state_names(main, W):
    """The names of W's state letters without the copy suffix."""
    al = main.machine.hw.alpha
    return [al.name_of(q).split("(")[0] for q in W.states]


def test_parallel_copies_evolve_in_step(main):
    """On I(a^k) all L copies carry equal tapes at every step; on J(a^k)
    copies 2..L do, and copy 1 differs from them in the special sector
    alone, which working set 2 locks."""
    for k, shape in itertools.product((1, 2), ("I", "J")):
        w = main.machine.hw.alpha.word([main.A[0]] * k)
        W0 = main.input_i(w) if shape == "I" else main.input_j(w)
        differ = set()
        for W in traced_accepting_run(main, W0).words:
            c1, c2 = main.component(W, 1), main.component(W, 2)
            for i in range(3, main.L + 1):
                ci = main.component(W, i)
                assert ci.tapes == c2.tapes
                assert state_names(main, ci) == state_names(main, c2)
            assert state_names(main, c1) == state_names(main, c2)
            differ.update(s for s, t1, t2 in zip(c1.sectors, c1.tapes,
                                                 c2.tapes) if t1 != t2)
        assert differ == (set() if shape == "I"
                          else {main.special_sector}), (k, shape)


def test_lock_first_drops_the_special_sector(main):
    mm, g = main.machine, main.special_sector
    opened = [n for n in main.m5.rules
              if mm.rule("1." + n).sectors[g] is not None]
    assert opened and all(mm.rule("2." + n).sectors[g] is None
                          for n in main.m5.rules)
    w = main.machine.hw.alpha.word([main.A[0]])
    C = traced_accepting_run(main, main.input_j(w))
    assert C.final() == main.w_ac()
    assert all(not dict(zip(W.sectors, W.tapes))[g] for W in C.words)
    # the set 2 history cannot run with the special sector filled
    with pytest.raises(StepError):
        mm.run(main.input_i(w), C.history)


def test_component_shape_errors(main):
    W = main.w_ac()
    assert len(component(W, 4, 7).states) == 7
    with pytest.raises(ValueError):
        component(W, 5, 7)
    with pytest.raises(ValueError):
        component(W, 1, 5)


# -- serialization ----------------------------------------------------------------


def test_tower_machines_round_trip(tower):
    m1, sch, plug, m3, m4, m5 = tower
    for m in (m3, m4, m5):
        text = machine_to_text(m)
        again = machine_to_text(machine_from_text(text))
        assert text == again


# -- letter order ----------------------------------------------------------------

def alphabet_digest(al):
    """sha256 prefix of every letter's name, kind, subkind and coord, in id
    order: machine text and JSON are name-based, so this alone pins ids."""
    rows = [(al.name_of(x), al.kind_of(x), al.subkind_of(x), al.coord_of(x))
            for x in al.ids()]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_tower_letters_keep_their_order(tower):
    m1, sch, plug, m3, m4, m5 = tower
    assert [alphabet_digest(m.hw.alpha) for m in (plug.machine, m3, m4, m5)] \
        == ["facfdb64f81d2a06", "8dd15d80eefe5b66", "0874ad73ffae5857",
            "69a08326f8e18398"]


@p("letters,digests", [
    (("a",), ["f0dd3ad47cb9da7f", "69a08326f8e18398", "67aff59021c4f15c",
              "1cd817e71e595f7e"]),
    (("a", "b"), ["e195875eabaab0f4", "af4e89e6279e7266", "e7ccb5fb39a51ba5",
                  "45ce4c854cdd1649"]),
])
def test_main_letters_keep_their_order(letters, digests):
    """m1, m5, the main machine and its level-G presentation."""
    mm = build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    pres = emit_presentation(mm.machine, level="G")
    assert [alphabet_digest(al) for al in (mm.m1.hw.alpha, mm.m5.hw.alpha,
                                           mm.machine.hw.alpha, pres.alpha)] \
        == digests
