"""Parameters, recognizer plugins, and the assembled main machine."""

import hashlib
import importlib
import itertools
import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (reference_classify_start, reference_marker_split,
                     reference_noise_word)
from smforge.words import Alphabet, UnknownLetterError, relabel, relabel_by_name
from smforge.smachine import (Hardware, Machine, MachineError, NoiseDecl,
                              Part, SectorMismatchError, StateMismatchError,
                              StepError, apply_rule, machine_from_text,
                              machine_to_text, reduce_history, validate_noisy)
from smforge.machines import build_m1
from smforge.mainmachine import (DivisibleRecognizer, Params,
                                 PAPER_CONSTRAINTS, RejectingRecognizer,
                                 _classify_start, accepting_run, build_main,
                                 history_ell, lambda_accept, main_time_bound,
                                 paper_violations, validate_plugin)
from smforge.towers import cyclify, reflect

p = pytest.mark.parametrize

DESK4 = Params(2, 4, 5, 4, 7, 8, 9, check_chain=False)
SMBENCH = Path(__file__).resolve().parent.parent / "smbench"


@pytest.fixture(scope="module")
def main1():
    return build_main(("a",), DivisibleRecognizer(("a",), 1), DESK4)


@pytest.fixture(scope="module")
def main_rej():
    return build_main(("a",), RejectingRecognizer(("a",)), DESK4,
                      name="Mmain_rej")


def payload(main, k):
    return main.machine.hw.alpha.word([main.A[0]] * k)


# -- parameters ------------------------------------------------------------------


def test_params_desk_profile():
    d = Params.desk()
    assert (d.N, d.C, d.c0, d.L, d.c1, d.delta_inv, d.K) == \
        (2, 4, 5, 6, 7, 8, 9)
    assert paper_violations(d) == ["C >= 2744", "L >= 33"]


def test_params_chain_enforced():
    with pytest.raises(ValueError, match="increase"):
        Params(2, 4, 5, 4, 7, 8, 9)
    assert DESK4.L == 4
    with pytest.raises(ValueError, match="positive"):
        Params(0, 4, 5, 6, 7, 8, 9)
    with pytest.raises(ValueError, match="two copies"):
        Params(2, 4, 5, 1, 7, 8, 9, check_chain=False)


def test_paper_constraints_are_satisfiable():
    big = Params(2, 2744, 2745, 2746, 2747, 2748, 2749)
    assert paper_violations(big) == []
    assert len(PAPER_CONSTRAINTS) == 8


# -- plugins ---------------------------------------------------------------------


@p("k,member", [(0, False), (1, False), (2, False), (3, True),
                (4, False), (5, False), (6, True)])
def test_divisible_membership(k, member):
    plug = DivisibleRecognizer(("a",), 3)
    w = plug.machine.hw.alpha.word([plug.tape[0]] * k)
    assert plug.member(w) is member
    if k:
        assert plug.member(~w) is False


@p("k", [3, 6])
def test_divisible_accepting_runs(k):
    plug = DivisibleRecognizer(("a",), 3)
    w = plug.machine.hw.alpha.word([plug.tape[0]] * k)
    hist = plug.accept_run(w)
    assert len(hist) == k + 1 <= plug.time_bound(k)
    C = plug.machine.run(plug.machine.input_config({2: w}), hist)
    assert C.final() == plug.machine.accept_config()


def test_divisible_rejects_by_state_count():
    plug = DivisibleRecognizer(("a",), 3)
    al = plug.machine.hw.alpha
    w2 = al.word([plug.tape[0]] * 2)
    with pytest.raises(ValueError):
        plug.accept_run(w2)
    hist = [("tau_a_s", 1), ("tau_a_1", 1), ("tau_fin", 1)]
    with pytest.raises(StepError):
        plug.machine.run(plug.machine.input_config({2: w2}), hist)


def test_divisible_two_letters():
    plug = DivisibleRecognizer(("x", "y"), 2)
    al = plug.machine.hw.alpha
    w = al.word([al.id_of("x_p"), al.id_of("y_p")])
    assert plug.member(w)
    hist = plug.accept_run(w)
    assert hist == [("tau_y_s", 1), ("tau_x_1", 1), ("tau_fin", 1)]
    C = plug.machine.run(plug.machine.input_config({2: w}), hist)
    assert C.final() == plug.machine.accept_config()
    with pytest.raises(ValueError):
        DivisibleRecognizer(("x",), 0)
    with pytest.raises(ValueError):
        DivisibleRecognizer((), 2)


def test_rejecting_recognizer():
    plug = RejectingRecognizer(("a",))
    al = plug.machine.hw.alpha
    w = al.word([plug.tape[0]])
    assert plug.member(w) is False
    with pytest.raises(ValueError):
        plug.accept_run(w)
    with pytest.raises(StepError):
        plug.machine.run(plug.machine.input_config({2: w}),
                         [("tau_idle", 1)])


def _plugin_like(machine=None, **changes):
    """A stand-in plugin whose machine is ``machine``, or the c = 1
    recognizer's machine over a with ``changes`` to its inputs or noise."""
    if machine is None:
        m = DivisibleRecognizer(("a",), 1).machine
        machine = Machine("bent", m.hw, list(m.rules.values()),
                          **{"input_sectors": m.input_sectors, **changes})
    return types.SimpleNamespace(machine=machine)


def _tapeless():
    al = Alphabet()
    qs = [al.intern(n, kind="q") for n in ("p0", "p1", "p2")]
    return Machine("tapeless", Hardware(al, [Part((q,), q, q) for q in qs],
                                        [(), (), ()]), [], [2])


PLUGIN_GUARDS = [
    ("cyclic", "plugin needs three linear parts",
     lambda: _plugin_like(cyclify(build_m1(("a",))[0]))),
    ("parts", "plugin needs three linear parts",
     lambda: _plugin_like(reflect(build_m1(("a",))[0]))),
    ("sector-1", "plugin sector 1 must be empty",
     lambda: _plugin_like(build_m1(("a",))[0])),
    ("sector-2", "plugin sector 2 carries the recognized alphabet",
     lambda: _plugin_like(_tapeless())),
    ("inputs", "plugin input sectors must be [2]",
     lambda: _plugin_like(input_sectors=[])),
    ("noise", "plugins carry no noise declaration",
     lambda: _plugin_like(noise=NoiseDecl())),
    ("letters", "plugin alphabet has 2 letters, payload has 1",
     lambda: DivisibleRecognizer(("x", "y"), 2)),
]


def test_validate_plugin_guards():
    validate_plugin(DivisibleRecognizer(("a",), 2), n_letters=1)
    with pytest.raises(ValueError, match="letters"):
        validate_plugin(DivisibleRecognizer(("x", "y"), 2), n_letters=1)


@p("message, plug", [pytest.param(*case[1:], id=case[0])
                     for case in PLUGIN_GUARDS])
def test_each_plugin_guard_names_its_fault(message, plug):
    """Each guard of the plugin contract raises its own message."""
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_plugin(plug(), n_letters=1)


# -- assembled machine -------------------------------------------------------------


def test_main_structure(main1):
    mm = main1.machine
    assert main1.L == 4 and main1.P == 7
    assert mm.hw.cyclic and mm.hw.n_parts == 28
    working = set(main1.m5.rules)
    assert set(mm.rules) == ({"s1", "s2", "a1", "a2"}
                             | {"1." + n for n in working}
                             | {"2." + n for n in working})
    assert main1.q_inputs == (2, 9, 16, 23)
    assert main1.r_inputs == (6, 13, 20, 27)
    assert main1.special_sector == 2
    assert sorted(mm.input_sectors) == sorted(main1.q_inputs
                                              + main1.r_inputs)
    assert sorted(mm.noise.K) == sorted(mm.input_sectors)
    assert mm.hw.tapes[2] == mm.hw.tapes[9] == mm.hw.tapes[16]
    assert mm.hw.tapes[0] == mm.hw.tapes[7] == ()
    al = mm.hw.alpha
    assert al.name_of(mm.hw.parts[0].start) == "t"
    assert al.name_of(mm.hw.parts[7].start) == "t(2)"
    assert al.name_of(mm.hw.parts[1].start) == "qs1"
    assert al.name_of(mm.hw.parts[1].end) == "qa1"
    names1 = {al.name_of(q) for q in mm.hw.parts[1].letters}
    assert {"q0.1", "q0.2", "qs1", "qa1"} <= names1


def test_input_shapes(main1):
    w = payload(main1, 2)
    I = main1.input_i(w)
    content = dict(zip(I.sectors, I.tapes))
    mw = main1.mirror(w)
    assert all(content[g] == w for g in main1.q_inputs)
    assert all(content[g] == mw for g in main1.r_inputs)
    assert len(mw) == 2 and all(x < 0 for x in mw.ltrs)
    J = main1.input_j(w)
    cj = dict(zip(J.sectors, J.tapes))
    assert not cj[main1.special_sector]
    assert all(cj[g] == content[g] for g in content
               if g != main1.special_sector)
    W = main1.w_ac()
    assert W.is_configuration() and not any(len(t) for t in W.tapes)
    marked = main1.machine.hw.alpha.word([main1.A1[0]])
    with pytest.raises(ValueError, match="plain"):
        main1.input_i(marked)


def test_start_rule_asymmetry(main1):
    w = payload(main1, 1)
    I, J = main1.input_i(w), main1.input_j(w)
    mm = main1.machine
    apply_rule(I, mm.rule("s1"))
    with pytest.raises(SectorMismatchError) as ei:
        apply_rule(I, mm.rule("s2"))
    assert ei.value.sector == main1.special_sector and ei.value.locked
    apply_rule(J, mm.rule("s1"))
    apply_rule(J, mm.rule("s2"))
    with pytest.raises(StateMismatchError):
        apply_rule(I, mm.rule("a1"))
    E = main1.input_i(mm.hw.alpha.word())
    assert E == main1.input_j(mm.hw.alpha.word())
    apply_rule(E, mm.rule("s2"))


def test_m1_word_under_a_main_rule_is_typed(main1):
    m1 = main1.m1
    W = m1.configuration({1: m1.hw.alpha.word([main1.scheme.A1[0]])})
    with pytest.raises(MachineError,
                       match="rule s1: hardware differs from the word's"):
        apply_rule(W, main1.machine.rule("s1"))


@p("k", [1, 2])
@p("shape", ["I", "J"])
def test_accepting_runs(main1, k, shape):
    w = payload(main1, k)
    W = main1.input_i(w) if shape == "I" else main1.input_j(w)
    res = accepting_run(W, main1)
    assert res is not None
    comp, ell = res
    assert comp.final() == main1.w_ac()
    assert ell == 1
    assert comp.time <= main_time_bound(main1, 2 * k)
    c = "1" if shape == "I" else "2"
    assert comp.history[0] == ("s" + c, 1)
    assert comp.history[-1] == ("a" + c, 1)


def test_main_time_bound_refuses_a_negative_length(main1):
    """c0 ** n with n < 0 would give a negative bound, not an error."""
    with pytest.raises(ValueError, match="nonnegative argument"):
        main_time_bound(main1, -1)
    assert main_time_bound(main1, 0) > 0


# accept step counts, recorded when the benchmark was defined
@p("letters,shape,word,steps", [
    ("a", "I", "a", 18), ("a", "J", "a", 18),
    ("a", "I", "aa", 188), ("a", "J", "aa", 188),
    ("a", "I", "aaa", 2386),
    ("ab", "I", "ab", 1128), ("ab", "J", "ba", 1128)])
def test_accept_step_counts(main1, letters, shape, word, steps):
    main = main1 if letters == "a" else build_main(
        tuple(letters), DivisibleRecognizer(tuple(letters), 1), DESK4)
    al = main.machine.hw.alpha
    w = al.word([main.A[letters.index(x)] for x in word])
    W = main.input_i(w) if shape == "I" else main.input_j(w)
    comp, ell = accepting_run(W, main)
    assert (comp.time, ell) == (steps, 1)
    assert comp.words[0] == W and comp.final() == main.w_ac()


def test_accepting_run_compiles_few_steps_and_follows_them(monkeypatch):
    """Each rule compiles one _Step per (state tuple, slot tuple) and keeps
    it, and each compiled step links the step each rule makes next: on a
    fresh M(a), accepting I(a^3) builds 13 steps for its 4,765 run steps
    (shift and replay), and 99.5% of those follow an ``after`` link.  A
    cache kept per run, or a step without ``after``, fails here."""
    from smforge import smachine
    made, followed = [], []
    init, step = smachine._Step.__init__, smachine._Run.step
    monkeypatch.setattr(smachine._Step, "__init__", lambda self, run, rule: (
        made.append(1) or init(self, run, rule)))
    monkeypatch.setattr(smachine._Run, "step", lambda run, rule: (
        followed.append(run.last is not None and rule in run.last.after)
        or step(run, rule)))
    main = build_main(("a",), DivisibleRecognizer(("a",), 1), DESK4)
    assert accepting_run(main.input_i(payload(main, 3)), main)[0].time == 2386
    assert len(made) <= 13
    assert sum(followed) >= 0.99 * len(followed) > 0


def test_accepting_run_rejections(main1, main_rej):
    mm = main1.machine
    res = accepting_run(main1.w_ac(), main1)
    assert res is not None and res[0].time == 0 and res[1] == 0
    assert accepting_run(main1.input_i(~payload(main1, 1)), main1) is None
    assert accepting_run(main1.input_i(mm.hw.alpha.word()), main1) is None
    w = payload(main1, 1)
    lopsided = mm.configuration({main1.special_sector: w})
    assert accepting_run(lopsided, main1) is None
    stray = mm.configuration({3: mm.hw.alpha.word([mm.hw.tapes[3][0]])})
    assert accepting_run(stray, main1) is None
    unmirrored = {g: w for g in main1.q_inputs}
    unmirrored.update({g: relabel(w, main1.bar, mm.hw.alpha)
                       for g in main1.r_inputs})
    assert accepting_run(mm.configuration(unmirrored), main1) is None
    wr = payload(main_rej, 1)
    assert accepting_run(main_rej.input_i(wr), main_rej) is None
    assert accepting_run(main_rej.input_j(wr), main_rej) is None


def _starts_agree(W, main, want):
    assert _classify_start(W, main) == reference_classify_start(W, main) \
        == want


@p("word", ["a", "aa", "ab", "A", ""])
def test_start_shapes_match_the_reference(main1, word):
    main = main1 if "b" not in word else build_main(
        ("a", "b"), DivisibleRecognizer(("a", "b"), 1), DESK4)
    ids = {"a": main.A[0], "A": -main.A[0], "b": main.A[-1]}
    w = main.machine.hw.alpha.word([ids[x] for x in word])
    for shape, W in (("I", main.input_i(w)), ("J", main.input_j(w))):
        _starts_agree(W, main, ("I" if not w else shape, w))


def test_changed_start_tapes_match_the_reference(main1, main_rej):
    mm = main1.machine
    w, other = payload(main1, 2), payload(main1, 3)
    for W in (main1.input_i(w), main1.input_j(w)):
        content = dict(zip(W.sectors, W.tapes))
        for g in main1.q_inputs + main1.r_inputs:
            changed = dict(content)
            changed[g] = (main1.mirror(other) if g in main1.r_inputs
                          else other)
            _starts_agree(mm.configuration(changed), main1, None)
    # J(w) with a special tape that is not w
    content[main1.special_sector] = payload(main1, 1)
    _starts_agree(mm.configuration(content), main1, None)
    # a marker where w is read
    marked = mm.hw.alpha.word([main1.A1[0]])
    _starts_agree(mm.configuration({main1.q_inputs[1]: marked}), main1, None)
    _starts_agree(main1.w_ac(), main1, None)
    _starts_agree(apply_rule(main1.input_i(w), mm.rule("s1")), main1, None)
    wr = payload(main_rej, 1)
    _starts_agree(main_rej.input_i(wr), main_rej, ("I", wr))
    _starts_agree(main_rej.input_j(wr), main_rej, ("J", wr))
    # words of other machines; the twin has main1's ids under other names
    twin = build_main(("c",), DivisibleRecognizer(("c",), 1), DESK4)
    _starts_agree(twin.input_i(payload(twin, 1)), main1, None)
    _starts_agree(main_rej.input_i(wr), main1, None)
    m1 = main1.m1
    marker = m1.hw.alpha.word([main1.scheme.A1[0]])
    _starts_agree(m1.configuration({1: marker}), main1, None)


def test_history_ell():
    assert history_ell([]) == 0
    assert history_ell([("s1", 1), ("1.sigma", 1), ("a1", 1)]) == 1
    assert history_ell([("a1", 1), ("a2", 1), ("s1", 1)]) == 2


def test_build_main_guards():
    with pytest.raises(ValueError, match="N =="):
        build_main(("a",), DivisibleRecognizer(("a",), 1),
                   Params(3, 4, 5, 6, 7, 8, 9))
    with pytest.raises(ValueError, match="letters"):
        build_main(("a",), DivisibleRecognizer(("x", "y"), 1), DESK4)


def test_main_round_trips(main1):
    text = machine_to_text(main1.machine)
    assert machine_to_text(machine_from_text(text)) == text


@p("which,entries", [("m1", 6), ("m5", 49), ("machine", 504)])
def test_parsed_noise_declarations_are_valid(main1, which, entries):
    again = machine_from_text(machine_to_text(getattr(main1, which)))
    assert len(validate_noisy(again)) == entries


# sha256 prefixes of machine_to_text, recorded before build_main laid its
# copies through the shared ring lift
RING_GOLDEN = {
    "M(a) divisible L=4": (lambda m: m.machine, "f8b70b50c1e56722"),
    "M(a,b) divisible L=4": (lambda m: build_main(
        ("a", "b"), DivisibleRecognizer(("a", "b"), 1), DESK4).machine,
        "70be6f4bbf11ffd6"),
    "M(a) rejecting L=4": (lambda m: build_main(
        ("a",), RejectingRecognizer(("a",)), DESK4).machine,
        "5e314c70ba3dfedf"),
    "M(a) divisible L=6": (lambda m: build_main(
        ("a",), DivisibleRecognizer(("a",), 1), Params.desk()).machine,
        "695d782fa4cb86af"),
}


@p("case", list(RING_GOLDEN))
def test_ring_lift_golden(main1, case):
    build, digest = RING_GOLDEN[case]
    text = machine_to_text(build(main1))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# sha256 prefixes of machine_to_text for M1, M5 and the main machine over
# the Z2 pipeline's 2 C tape letters, recorded before every sector rule
# was held as one triangular letter map
Z2_GOLDEN = {
    1: ("c47c07f2e3c91239", "24812dbbc190bfc1", "e6af476a8365de9a"),
    2: ("a03d25465d460443", "e50cc50ebbebd765", "1cb9c2c0b1334fdf"),
}


@p("C", list(Z2_GOLDEN))
def test_z2_pipeline_machines_golden(C):
    """The machines over the Z2 pipeline's 2 and 4 tape letters hold
    decorated rules over several letters, which RING_GOLDEN's machines
    over one or two payload letters do not; the 4 letters are those the
    language workload builds on."""
    from smforge import embedding
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z2"), C)
    letters = tuple(pipe.letters)
    main = build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    assert tuple(hashlib.sha256(machine_to_text(m).encode()).hexdigest()[:16]
                 for m in (main.m1, main.m5, main.machine)) == Z2_GOLDEN[C]


# -- the sector language ------------------------------------------------------------


def even_positive(u):
    return len(u) > 0 and len(u) % 2 == 0 and all(x > 0 for x in u.ltrs)


def test_lambda_accepts_plain_members(main1):
    w2 = payload(main1, 2)
    res = lambda_accept(w2, main1, even_positive)
    assert res == ([], [w2])
    assert lambda_accept(payload(main1, 1), main1, even_positive) is None


def test_lambda_accepts_marked_members(main1):
    al = main1.machine.hw.alpha
    marked = al.word([main1.A1[0]] * 2)
    res = lambda_accept(marked, main1, even_positive)
    assert res is not None
    hist, words = res
    assert hist == [("s1", -1)]
    assert words[-1] == payload(main1, 2)


@p("push", [[("1.theta_b1", 1)],
            [("1.theta_b1", 1), ("1.theta_b2", 1)],
            [("1.theta_b2", -1)]])
def test_lambda_strips_noise_decorations(main1, push):
    al = main1.machine.hw.alpha
    marked = al.word([main1.A1[0]] * 2)
    pushed = main1.machine.semi_run(marked, main1.special_sector, push)[-1]
    res = lambda_accept(pushed, main1, even_positive)
    assert res is not None
    hist, words = res
    assert hist == [(n, -s) for n, s in reversed(push)] + [("s1", -1)]
    assert words[0] == pushed and words[-1] == payload(main1, 2)


def test_lambda_rejects_mixed_and_noise(main1):
    al = main1.machine.hw.alpha
    mixed = al.word([main1.A[0], main1.A1[0]])
    assert lambda_accept(mixed, main1, even_positive) is None
    noise = al.word([main1.B[0]])
    assert lambda_accept(noise, main1, even_positive) is None
    barred = al.word([main1.bar[main1.A[0]]])
    assert lambda_accept(barred, main1, even_positive) is None
    marked_odd = al.word([main1.A1[0]])
    assert lambda_accept(marked_odd, main1, even_positive) is None


def test_lambda_recovers_payload_pushes(main1):
    al = main1.machine.hw.alpha
    marked = al.word([main1.A1[0]] * 2)
    pushed = main1.machine.semi_run(marked, main1.special_sector,
                                    [("1.theta_a", -1)])[-1]
    res = lambda_accept(pushed, main1, even_positive)
    assert res is not None
    hist, words = res
    assert hist == [("1.theta_a", 1), ("s1", -1)]
    assert words[-1] == payload(main1, 2)


def test_lambda_rejects_unreduced_skeletons(main1):
    al = main1.machine.hw.alpha
    w = al.word([main1.A1[0], main1.B[0], -main1.A1[0]])
    assert lambda_accept(w, main1, even_positive) is None


# -- words in and out ---------------------------------------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_to_m1_matches_relabel_by_name(main1, data):
    letters = main1.A + main1.A1 + main1.B
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(letters),
                                         st.sampled_from((1, -1))),
                               max_size=30))
    w = main1.machine.hw.alpha.word(x * s for x, s in pairs)
    m1w = main1.to_m1(w)
    assert m1w == relabel_by_name(w, main1.scheme.alpha)
    assert main1.from_m1(m1w) == w
    assert main1.from_m1(m1w) == relabel_by_name(m1w, main1.machine.hw.alpha)


def test_to_m1_rejects_a_letter_without_counterpart(main1):
    al = main1.machine.hw.alpha
    w = al.word([main1.A[0], main1.machine.hw.parts[1].start])
    with pytest.raises(KeyError) as want:
        relabel_by_name(w, main1.scheme.alpha)
    with pytest.raises(KeyError) as got:
        main1.to_m1(w)
    assert str(got.value) == str(want.value)


def test_letters_the_machine_lacks_are_typed(main1):
    other = Alphabet()
    w = other.word([other.intern("a"), other.intern("zz")])
    with pytest.raises(UnknownLetterError, match="unknown letter: 'zz'") as ei:
        lambda_accept(w, main1, even_positive)
    assert isinstance(ei.value, MachineError) and isinstance(ei.value, KeyError)
    assert ei.value.name == "zz"


# -- semi-computations in the special sector ----------------------------------------
#
# Read compressed: through reference_marker_split on the bottom machine's
# alphabet, so the markers and the noise gaps between them, the first and
# last gaps apart.


def semi(main, w, history):
    return [main.to_m1(u)
            for u in main.machine.semi_run(w, main.special_sector, history)]


def test_compressed_semi_tracks_marking(main1):
    w = payload(main1, 2)
    words = semi(main1, w, [("s1", 1), ("1.theta_b1", 1)])
    sch = main1.scheme
    assert words[0] == main1.to_m1(w)
    assert words[1] == sch.alpha.word([sch.A1[0]] * 2)
    gaps, markers = reference_marker_split(words[2], sch)
    assert markers == [sch.A1[0]] * 2 and len(gaps[1]) == sch.D
    back = semi(main1, w, [("s1", 1), ("s1", -1)])
    assert back[-1] == main1.to_m1(w)


def test_compressed_semi_guards(main1):
    al = main1.machine.hw.alpha
    e = al.word()
    words = semi(main1, e, [("a1", 1), ("2.theta_a", 1)])
    assert all(not len(u) for u in words)
    with pytest.raises(StepError) as ei:
        semi(main1, payload(main1, 1), [("s2", 1)])
    assert isinstance(ei.value.reason, SectorMismatchError)
    assert ei.value.reason.locked
    with pytest.raises(StepError) as ei:
        semi(main1, payload(main1, 1), [("s1", -1)])
    assert isinstance(ei.value.reason, SectorMismatchError)
    assert not ei.value.reason.locked


@pytest.fixture(scope="module")
def main3():
    return build_main(("x", "y", "z"),
                      DivisibleRecognizer(("x", "y", "z"), 1), DESK4,
                      name="Mmain3")


def test_compressed_gap_growth_bounds(main3):
    sch = main3.scheme
    D = sch.D
    assert D == 60
    al = main3.machine.hw.alpha
    w0 = al.word([al.id_of(n) for n in ("x", "y", "z")])
    skeleton = [sch.mark(sch.alpha.id_of(n)) for n in ("x", "y", "z")]
    signed = [("1.theta_" + n, s)
              for n in ("x", "y", "z", "b1", "b2") for s in (1, -1)]
    hists = [[a] for a in signed]
    hists += [[a, b] for a, b in itertools.product(signed, signed)
              if reduce_history([a, b]) == [a, b]]
    for seq in hists:
        words = semi(main3, w0, [("s1", 1)] + seq)
        gaps, markers = reference_marker_split(words[-1], sch)
        assert markers == skeleton
        interior = len(gaps[1]) + len(gaps[2])
        k = len(seq)
        assert D * k // 2 <= interior <= 3 * D * k


def test_compressed_steps_decorate_not_erase(main3):
    sch = main3.scheme
    al = main3.machine.hw.alpha
    w0 = al.word([al.id_of(n) for n in ("x", "y", "z")])
    ids = {n: sch.alpha.id_of(n) for n in ("x", "y", "z")}
    x1, y1, z1 = (sch.alpha.word([sch.mark(ids[n])]) for n in ("x", "y", "z"))
    def v(y, a, sign=1):
        return reference_noise_word(sch, y, a, sign)
    fwd = semi(main3, w0, [("s1", 1), ("1.theta_z", 1)])[-1]
    assert fwd == (v(ids["z"], ids["x"]) * x1 * v(ids["z"], ids["y"]) * y1
                   * v(ids["z"], ids["z"]) * z1)
    bwd = semi(main3, w0, [("s1", 1), ("1.theta_x", -1)])[-1]
    assert bwd == (v(ids["x"], ids["x"], -1) * x1
                   * v(ids["x"], ids["y"], -1) * y1
                   * v(ids["x"], ids["z"], -1) * z1)
    gaps, markers = reference_marker_split(fwd, sch)
    assert markers == [sch.mark(ids[n]) for n in ("x", "y", "z")]
    assert gaps[0] == v(ids["z"], ids["x"]) and not len(gaps[3])


def test_language_setup_folds_without_merging(monkeypatch):
    """The language, accept and diagram set-ups build no folder.  A sector
    rule keeps its membership test, every tower stage maps each distinct
    sector rule once, so rule sets 1 and 2 share theirs, and every X, Z
    and noise basis they check is free on sight: X and Z are triangular,
    so <Z> is a letter test, and the noise bases are descriptors of one
    pair of letters and one length (the language set-up built 73 folders
    when it folded each distinct Z, 158 when each X basis and each
    distinct noise basis was folded too, 332 when compose, reflect and
    cyclify mapped and folded each rule's sector rules apart and each
    stage's noise check folded every sector's basis, 440 when each lift
    did too)."""
    from smforge import embedding, groups, words
    folds = []
    init = words._Folder.__init__
    monkeypatch.setattr(words._Folder, "__init__",
                        lambda self, basis: folds.append(1) or init(self, basis))
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)
    letters = tuple(pipe.letters)
    main = build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    main_a = build_main(("a",), DivisibleRecognizer(("a",), 1), DESK4)
    build_main(("a", "b"), DivisibleRecognizer(("a", "b"), 1), DESK4)
    groups.emit_presentation(main_a.machine, level="G")
    assert len(letters) == 4
    assert folds == []
    rules = main.machine.rules
    for name in main.m5.rules:
        one, two = rules["1." + name].sectors, rules["2." + name].sectors
        assert two[main.special_sector] is None
        assert all(x is y for g, (x, y) in enumerate(zip(one, two))
                   if g != main.special_sector)


def test_noise_check_folds_each_distinct_basis_once(main1, monkeypatch):
    """The ring copies share their tape letters, so the 2L = 8 noisy
    sectors of the main machine at L = 4 hold 2 distinct noise bases: the
    check decides 2 of them, not 8, each by arithmetic on its descriptors
    (distinct noise words share fewer than D/4 leading letters), so it
    spells none, hands none to validate_basis and folds none; the fold
    agrees on both."""
    from oracles import reference_validate_basis
    from smforge import smachine, words
    decided, spelled, folds = [], [], []
    noise_free = smachine._noise_free
    monkeypatch.setattr(smachine, "_noise_free", lambda basis, al: (
        decided.append((basis, al)) or noise_free(basis, al)))
    monkeypatch.setattr(smachine, "validate_basis", lambda basis: (
        spelled.append(basis) or words.validate_basis(basis)))
    init = words._Folder.__init__
    monkeypatch.setattr(words._Folder, "__init__",
                        lambda self, basis: folds.append(1) or init(self, basis))
    report = validate_noisy(main1.machine)
    assert len({s for (_, s), form in report.items() if form == 3}) == 8
    assert len(decided) == 2
    assert spelled == [] and folds == []
    monkeypatch.undo()
    for basis, al in decided:
        assert all(isinstance(v, words.NoiseWord) for v in basis)
        assert reference_validate_basis([words.Word(al, v.ltrs)
                                         for v in basis])


def test_language_setup_spells_no_noise_word_and_classifies_once(
        monkeypatch):
    """The language set-up (the Z pipeline's 4 tape letters) carries every
    noise word as a descriptor up the tower and spells none.  It classifies
    each (sector rule, declaration) of the tower once: M1's rules and its
    inert sector-2 rule, then only what the later stages add, the
    plugin's identity, sigma and one marking rule per input sector of M5;
    every image of an earlier stage's sector rule carries its verdict."""
    from smforge import embedding, smachine, words
    spelled, classified = [], []
    ltrs = words.NoiseWord.ltrs.fget
    monkeypatch.setattr(words.NoiseWord, "ltrs", property(
        lambda v: spelled.append(v) or ltrs(v)))
    classify = smachine._classify_sector
    monkeypatch.setattr(smachine, "_classify_sector", lambda d, sec: (
        classified.append((id(sec), d)) or classify(d, sec)))
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)
    letters = tuple(pipe.letters)
    main = build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    assert len(letters) == 4 and spelled == []
    assert len(set(classified)) == len(classified)
    assert len(classified) == (len(main.m1.rules) + 1) + 2 + len(
        main.m5.input_sectors) == len(letters) + 7


def test_a_decode_spells_only_the_noise_words_it_peels(monkeypatch):
    """Over the Z2 pipeline's 16 tape letters (C = 8), the first
    strip_history on the main machine's own scheme reads each noise
    word's k off its leading run and spells the words it peels, each
    once, and no other: 3 here, not the 2n(n + 2) = 576 signed noise
    words of the scheme."""
    from smforge import embedding, words
    from smforge.machines import strip_history
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z2"), 8)
    letters = tuple(pipe.letters)
    main = build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    sch = main.local_scheme
    a, ys = sch.A[0], (sch.B[0], sch.A[-1], sch.B[1], sch.B[0])
    # the marker of a after the noise steps of ys, last to first
    gap = sum((sch.noise_word(y, a).ltrs for y in reversed(ys)), ())
    w = words.Word(sch.alpha, gap + (sch.mark(a),))
    spelled = []
    ltrs = words.NoiseWord.ltrs.fget
    monkeypatch.setattr(words.NoiseWord, "ltrs", property(
        lambda v: spelled.append(v) or ltrs(v)))
    hist, skeleton = strip_history(w, sch)
    assert len(letters) == 16 and len(sch.A) == 16
    assert hist == [(sch.rule_name(y), -1) for y in ys]
    assert skeleton.ltrs == (sch.mark(a),)
    assert len(spelled) == len(set(spelled)) == 3
    assert set(spelled) == {sch.noise_word(y, a) for y in ys}


def test_every_pushed_image_equals_the_letter_built_one(monkeypatch):
    """A sector rule spells the image of a letter on the first push that
    moves it.  Over one accept pass and one language pass of the
    benchmark (seed 7), every image spelled equals the one the rule read
    from the same bases given as words pushes, and the passes spell only
    a few of the images their set-ups could (39 of 188 on accept, 20 of
    400 on language, when measured)."""
    import random
    monkeypatch.syspath_prepend(str(SMBENCH))
    workloads = importlib.import_module("workloads")
    from smforge import smachine
    built, made = [], []
    image = smachine.SectorRule._spell_image
    monkeypatch.setattr(smachine.SectorRule, "_spell_image",
                        lambda sec, y: built.append((sec, y)) or image(sec, y))
    make = smachine.SectorRule._make
    monkeypatch.setattr(smachine.SectorRule, "_make",
                        lambda sec, *args: made.append(sec) or make(sec, *args))
    for name in ("accept", "language"):
        w = workloads.WORKLOADS[name]()
        del made[:]
        ctx = w.setup()
        moving = sum(len(sec.widen) for sec in made)
        del built[:]
        for req in w.requests(ctx, random.Random(7)):
            assert req.check(req.call()) is None, (name, req.label)
        assert 0 < 4 * len(built) < moving
        letter_built = {}
        for sec, y in list(built):
            if id(sec) not in letter_built:
                letter_built[id(sec)] = smachine.SectorRule(sec.X, sec.Z)
            buf = [y]
            letter_built[id(sec)].push(buf, smachine._fresh(buf))
            assert sec.images[y] == tuple(buf)


def test_every_basis_a_setup_checks_is_free_on_sight(monkeypatch):
    """Every basis the workload set-ups (M(a), M(a,b) and the 4-letter Z
    pipeline's) and the Z2 pipelines at C = 1, 2 hand to validate_basis,
    and the X and Z bases of every sector rule they build, is free by the
    fold alone, and none is folded.  A sector rule is a triangular letter
    map, free on its letters when it is built, and a basis of
    descriptors is decided by arithmetic: those are spelled here, after
    the build."""
    from smforge import embedding, smachine, words
    from oracles import reference_validate_basis
    seen = {}
    made, noise = [], []
    make = smachine.SectorRule._make
    monkeypatch.setattr(smachine.SectorRule, "_make",
                        lambda sec, *args: made.append(sec) or make(sec, *args))
    noise_free = smachine._noise_free
    monkeypatch.setattr(smachine, "_noise_free", lambda basis, al: (
        noise.append((basis, al)) or noise_free(basis, al)))

    def record(basis):
        seen.setdefault(tuple(b.ltrs for b in basis), basis)

    def validate(basis):
        record(basis)
        return words.validate_basis(basis)
    monkeypatch.setattr(smachine, "validate_basis", validate)
    folded = []
    monkeypatch.setattr(words, "free_basis_folder",
                        lambda basis: folded.append(basis))
    pipes = [embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)]
    pipes += [embedding.build_pipeline(embedding.builtin_oracle("Z2"), C)
              for C in (1, 2)]
    for letters in [("a",), ("a", "b")] + [tuple(x.letters) for x in pipes]:
        build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    monkeypatch.undo()
    for sec in made:
        if sec.domain:
            record(sec.X)
            record(sec.Z)
    for basis, al in noise:
        record([words.Word(al, v.ltrs) for v in basis])
    assert folded == [] and len(seen) > 60
    assert all(map(reference_validate_basis, seen.values()))


def test_language_setup_reads_each_rule_sector_once(monkeypatch):
    """The language set-up tests each (rule, sector)'s bases by one letter
    set, not each basis word by itself, and each insert by its <Z>
    membership alone, which the checked bases keep inside the sector: no
    sector_word call, against 940 when each insert was tested for its
    sector first and about 5,200 when every X and Z entry was too."""
    from smforge import embedding, smachine
    calls = []
    word = smachine.Hardware.sector_word
    monkeypatch.setattr(smachine.Hardware, "sector_word",
                        lambda hw, i, w: calls.append(1) or word(hw, i, w))
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)
    letters = tuple(pipe.letters)
    build_main(letters, DivisibleRecognizer(letters, 1), DESK4)
    assert calls == []


def test_inverse_rules_share_their_sector_rules(main1):
    """Rule sets 1 and 2 and every ring copy share each sector rule, so
    their inverse rules share its one inverse, off the special sector,
    which set 2 locks; and the inverse of that inverse is the rule's own
    sector rule."""
    m, special, P = main1.machine, main1.special_sector, main1.P
    for name in main1.m5.rules:
        pos = m.rule("1." + name).sectors
        one = m.rule("1." + name, -1).sectors
        two = m.rule("2." + name, -1).sectors
        for g, (a, b) in enumerate(zip(one, two)):
            assert a is (None if pos[g] is None else pos[g].inverse)
            assert a is one[g % P]
            if g != special:
                assert a is b
            if a is not None:
                assert a.inverse is pos[g]


def test_start_rules_share_the_marking_sector_rules(main1):
    """s1 and s2 mark each input sector by one sector rule, so its basis
    is checked once, not once per rule."""
    one, two = main1.machine.rules["s1"].sectors, main1.machine.rules["s2"].sectors
    shared = [g for g, sec in enumerate(two) if sec is not None]
    assert len(shared) == len(main1.machine.input_sectors) - 1
    assert all(one[g] is two[g] for g in shared)


def test_every_sector_compiles_to_one_of_the_two_shapes(main1, main_rej):
    """Every rule and every inverse rule of the machines build_main makes,
    M(a), M(a,b) and the 4-letter Z pipeline's with c = 1 and 2 and M(a)
    with the rejecting plugin, builds each sector rule without a
    BasisShapeError, as a triangular letter map in one of its two
    orientations: its side of letters is one letter an entry, and its
    domain is the signed X letters.  The side of letters is X on every
    positive rule, as a band needs, and Z on some inverse rules."""
    from smforge import embedding
    pipe = embedding.build_pipeline(embedding.builtin_oracle("Z"), 2)
    mains = [main1, main_rej]
    for letters in (("a",), ("a", "b"), tuple(pipe.letters)):
        for c in (1, 2):
            if (letters, c) != (("a",), 1):
                mains.append(build_main(letters, DivisibleRecognizer(letters, c),
                                        DESK4))
    shapes = set()
    for main in mains:
        m = main.machine
        for name, sign in m.theta():
            for sec in filter(None, m.rule(name, sign).sectors):
                ones = sec.Z if sec.inverted else sec.X
                assert all(len(w) == 1 for w in ones)
                assert sec.domain == {s * y for w in sec.X for y in w.ltrs
                                      for s in (1, -1)}
                assert not (sec.inverted and sign > 0), (name, m.name)
                shapes.add(sec.inverted)
    assert shapes == {False, True}
