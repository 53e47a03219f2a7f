"""Group presentations and band diagrams of the main machine M(a)."""

import dataclasses
import hashlib
import json
import operator
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (reference_apply_rule, reference_band,
                     reference_band_cells, reference_diagram_report,
                     reference_theta_length, rng)
from smforge.smachine import (AdmissibleWord, BasisShapeError, Computation,
                              GeneralizedRule, Hardware, Machine,
                              MachineError, Part, RulePart, SectorRule,
                              StateMismatchError, StepError, apply_rule,
                              machine_from_text)
from smforge.words import Alphabet, Word
from smforge.mainmachine import (DivisibleRecognizer, Params, accepting_run,
                                 build_main)
from smforge.groups import (Cell, Row, WeightFunctions, _band, _word_product,
                            build_disk_diagram,
                            build_trapezium, component_norm,
                            diagram_from_json, diagram_report,
                            diagram_signature, diagram_to_dot,
                            diagram_to_json, emit_presentation)

DESK4 = Params(2, 4, 5, 4, 7, 8, 9, check_chain=False)


@pytest.fixture(scope="module")
def main1():
    return build_main(("a",), DivisibleRecognizer(("a",), 1), DESK4)


@pytest.fixture(scope="module")
def pres(main1):
    return emit_presentation(main1.machine, level="G")


def payload(main, k):
    return main.machine.hw.alpha.word([main.A[0]] * k)


@pytest.fixture(scope="module")
def disk_i(main1, pres):
    return build_disk_diagram(main1.input_i(payload(main1, 1)), main1, pres)


@pytest.fixture(scope="module")
def disk_j(main1, pres):
    return build_disk_diagram(main1.input_j(payload(main1, 1)), main1, pres)


@pytest.fixture(scope="module")
def disk_i2(main1, pres):
    return build_disk_diagram(main1.input_i(payload(main1, 2)), main1, pres)


# sha256 prefixes of diagram_to_json, as recorded in CHANGES.md
@pytest.mark.parametrize("which,prefix", [("disk_i", "f24068eebb345223"),
                                          ("disk_j", "a02c9f6505121393"),
                                          ("disk_i2", "10880ba217c3f3e5")])
def test_disk_json_is_pinned(request, which, prefix):
    text = diagram_to_json(request.getfixturevalue(which))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix


# -- presentations -----------------------------------------------------------


def test_machine_letters_keep_their_ids(main1, pres):
    src, al = main1.machine.hw.alpha, pres.alpha
    assert len(al) > len(src)
    for x in src.ids():
        assert ([f(x) for f in (src.name_of, src.kind_of, src.subkind_of,
                                src.coord_of)]
                == [f(x) for f in (al.name_of, al.kind_of, al.subkind_of,
                                   al.coord_of)])


def test_presentation_size(pres):
    assert len(pres.relators) == 751
    assert pres.level == "G"
    with pytest.raises(ValueError, match="level"):
        emit_presentation(pres.machine, level="X")


def test_relator_classes_follow_rule_structure(main1, pres):
    m = main1.machine
    rules = m.rules.values()
    assert len(pres.by_class("theta-q")) == len(rules) * m.hw.n_parts
    assert (len(rules), m.hw.n_parts) == (18, 28)
    unlocked = sum(len(r.sectors[s].X) for r in rules
                   for s in m.hw.sector_indices() if r.sectors[s] is not None)
    counts = [len(pres.by_class(c)) for c in ("theta-A", "theta-b", "theta-a")]
    assert counts == [60, 90, 96]
    assert sum(counts) == unlocked == 246
    assert len(pres.by_class("hub")) == 1
    assert len(pres.relators) == 504 + 246 + 1


# -- trapezia and disks --------------------------------------------------------


def test_trapezium_of_an_accepting_run(main1, pres):
    W = main1.input_i(payload(main1, 1))
    comp, _ = accepting_run(W, main1)
    trap = build_trapezium(pres, comp)
    assert len(trap.rows) == comp.time
    assert trap.bottom == pres.carry_admissible(W)
    assert trap.top == pres.carry_admissible(main1.w_ac())
    assert trap.left == trap.right
    assert diagram_report(trap, pres) == []
    full = main1.machine.run(W, comp.history)
    assert diagram_to_json(build_trapezium(pres, full)) == \
        diagram_to_json(trap)


def test_trapezium_rejects_a_wrong_endpoint(main1, pres):
    W = main1.input_i(payload(main1, 1))
    comp, _ = accepting_run(W, main1)
    with pytest.raises(MachineError, match="replay"):
        build_trapezium(pres, Computation([W, W], comp.history))
    with pytest.raises(ValueError, match="reduced"):
        build_trapezium(pres, Computation([W, W], [("s1", 1), ("s1", -1)]))


def test_trapezium_names_the_step_that_does_not_apply(main1, pres):
    W = main1.input_i(payload(main1, 1))
    comp, _ = accepting_run(W, main1)
    hist = [comp.history[0], comp.history[-1]]
    with pytest.raises(StepError) as err:
        build_trapezium(pres, Computation([W, W], hist))
    assert err.value.index == 1
    assert isinstance(err.value.reason, StateMismatchError)


# part 0's rule inserts c left of its state letter, into the wrap sector 0,
# which a configuration p w r does not hold: the step drops the insert
WRAP = """MACHINE wrap cyclic
PART 0: p [start=p,end=p]
PART 1: r [start=r,end=r]
TAPE 0: c
TAPE 1: d
RULE ins: 0: p -> c p | X={c} Z={c} f=[0->0]
RULE ins: 1: r -> r | X={d} Z={d} f=[0->0]
"""


def test_a_band_that_drops_an_insert_does_not_close():
    m = machine_from_text(WRAP)
    wpres = emit_presentation(m)
    W = m.accept_config()
    V = apply_rule(W, m.rule("ins"))
    assert V == W
    for comp in (Computation([W, V], [("ins", 1)]),
                 Computation([V, W], [("ins", -1)])):
        with pytest.raises(MachineError, match="would not close"):
            build_trapezium(wpres, comp)


def _outcome(build, *args):
    """A band's cells, or the type and message of what it raised."""
    try:
        return build(*args).cells
    except MachineError as e:
        return type(e), str(e)


def _same_band(pres, W, V, name, sign):
    got = _outcome(_band, pres, W, V, name, sign)
    ref = _outcome(reference_band, pres, W, V, name, sign)
    if isinstance(ref, tuple):
        assert got == ref
    else:  # the very cells the reference takes, place by place
        assert len(got) == len(ref) and all(map(operator.is_, got, ref))
    return ref


def _bands_against_the_reference(pres, W, history):
    for name, s in history:
        V = apply_rule(W, pres.machine.rule(name, s))
        assert isinstance(_same_band(pres, W, V, name, s), list)
        W = V
    return W


@pytest.mark.parametrize("shape,k", [("i", 1), ("j", 1), ("i", 2)])
def test_bands_match_the_reference(shape, k, main1, pres):
    """Every band of the accepting run and of the run backwards, which
    turns each sign, is the band the reference builds."""
    W = getattr(main1, "input_" + shape)(payload(main1, k))
    history = accepting_run(W, main1)[0].history
    assert _bands_against_the_reference(pres, W, history) == main1.w_ac()
    backwards = [(name, -s) for name, s in reversed(history)]
    assert _bands_against_the_reference(pres, main1.w_ac(), backwards) == W


def test_bands_that_do_not_apply_fail_as_the_reference(main1, pres):
    """Every rule and sign over every configuration of the I(a) run, as a
    band to the configuration itself: a tape outside the domain, locked or
    not, raises the reference's typed error, and a band that reads every
    tape but does not reach the far side does not close."""
    W = main1.input_i(payload(main1, 1))
    comp = main1.machine.run(W, accepting_run(W, main1)[0].history)
    kinds = set()
    for X in comp.words:
        for name in main1.machine.rules:
            for sign in (1, -1):
                ref = _same_band(pres, X, X, name, sign)
                if isinstance(ref, tuple):
                    kinds.update(k for k in ("locked", "outside", "close")
                                 if k in ref[1])
    assert kinds == {"locked", "outside", "close"}


def _long_basis_machine():
    """Sector 1 read over bases of two-letter words, off the image of a
    substitution: on the whole sector alphabet (sq), and on a domain that
    lacks b (strip)."""
    al = Alphabet()
    q0, q1, q2 = (al.intern(n, kind="q") for n in ("q0", "q1", "q2"))
    a, b, c, d = (al.intern(n) for n in "abcd")
    hw = Hardware(al, [Part((q,), q, q) for q in (q0, q1, q2)],
                  [(), (a, b, d), (c,)])
    W, P = al.word, al.parse
    sq = GeneralizedRule(hw, "sq", [
        RulePart(q0, W(), q0, P("b")), RulePart(q1, P("a^-1"), q1, P("c")),
        RulePart(q2, W(), q2, W())],
        [None, SectorRule((P("a b"), P("b"), P("d")),
                          (P("a"), P("b"), P("d"))),
         SectorRule((P("c"),), (P("c"),))])
    strip = GeneralizedRule(hw, "strip", [
        RulePart(q, W(), q, W()) for q in (q0, q1, q2)],
        [None, SectorRule((P("d a"), P("d")), (P("a"), P("d"))), None])
    m = Machine("long", hw, [sq, strip])
    return m, [m.configuration({1: P(t1), 2: P(t2)})
               for t1, t2 in (("a a b^-1 a a", "c c"), ("a", ""),
                              ("b a a b", "c^-1"), ("b", ""),
                              ("d a d^-1 a", ""))]


def test_bands_over_long_basis_words_are_refused():
    """A run applies the rules of _long_basis_machine, read off the image
    in sector 1, as the reference does.  A band finds each cell by the
    signed X letter, so build_trapezium refuses a step of either sign by a
    BasisShapeError naming the rule and sector 1."""
    m, starts = _long_basis_machine()
    mpres = emit_presentation(m)
    refused = set()
    for X in starts:
        for name in m.rules:
            for sign in (1, -1):
                rule = m.rule(name, sign)
                got = _run_outcome(apply_rule, X, rule)
                assert got == _run_outcome(reference_apply_rule, X, rule)
                if isinstance(got, tuple):
                    continue
                comp = Computation([X, got], [(name, sign)])
                with pytest.raises(BasisShapeError, match=re.escape(
                        "rule %s sector 1: " % name)):
                    build_trapezium(mpres, comp)
                refused.add((name, sign))
    assert refused == {(n, s) for n in ("sq", "strip") for s in (1, -1)}


def _run_outcome(f, *args):
    try:
        return f(*args)
    except MachineError as e:
        return type(e), str(e)


def test_disk_of_i(disk_i, pres):
    assert disk_i.area == 1257
    assert diagram_report(disk_i, pres) == []
    assert diagram_signature(disk_i) == (1, 72, 0, 16)
    assert disk_i.glue == "sides"


def test_band_area_is_the_theta_length(main1, disk_i):
    W = main1.input_i(payload(main1, 1))
    for row, (name, s) in zip(disk_i.rows, disk_i.history):
        V = apply_rule(W, main1.machine.rule(name, s))
        lo = W if s > 0 else V
        assert len(row.cells) == reference_theta_length(
            lo, main1.machine.rule(name))
        W = V
    assert W == main1.w_ac()


def test_disk_of_j(main1, pres):
    W = main1.input_j(payload(main1, 1))
    wf = WeightFunctions(DESK4.c0, DESK4.c1, DESK4.L, DESK4.K,
                         main1.plugin.time_bound)
    d = build_disk_diagram(W, main1, pres, wf)
    assert d.area == 1177
    assert diagram_report(d, pres) == []
    assert diagram_signature(d) == (1, 72, 0, 14)


def test_disk_of_i_squared(disk_i2, pres):
    d = disk_i2
    assert d.area == 131161
    assert diagram_signature(d) == (1, 752, 0, 136)
    assert diagram_report(d, pres) == []


def _fields(c):
    return (c.bottom, c.top, c.left, c.right, c.cls, c.rule, c.index,
            c.coordinate)


def _replay_against_the_reference(pres, W, d):
    for row, (name, s) in zip(d.rows, d.history):
        ref = reference_band_cells(pres, W, name, s)
        assert [_fields(c) for c in row.cells] == [_fields(c) for c in ref]
        W = apply_rule(W, pres.machine.rule(name, s))
    return W


@pytest.mark.parametrize("shape", ["i", "j"])
def test_cells_match_the_reference(shape, request, main1, pres):
    d = request.getfixturevalue("disk_" + shape)
    W = getattr(main1, "input_" + shape)(payload(main1, 1))
    assert len(d.rows) == len(d.history) + 1
    assert _replay_against_the_reference(pres, W, d) == main1.w_ac()
    # the run backwards has only negative bands, built from flipped cells
    backwards = [(name, -s) for name, s in reversed(d.history)]
    back = build_trapezium(pres, Computation([main1.w_ac(), W], backwards))
    assert all(s < 0 for _, s in back.history)
    assert diagram_report(back, pres) == []
    assert _replay_against_the_reference(pres, main1.w_ac(), back) == W


def test_bands_over_inverse_state_letters_match_the_reference(main1, pres):
    """The I(a) run read on inverse words, every state letter of sign -1:
    each band's cells are the reference's, and every bottom fits the top
    below it."""
    def inverse(W):
        return AdmissibleWord(W.hw, [-q for q in reversed(W.states)],
                              [~t for t in reversed(W.tapes)])

    W = main1.input_i(payload(main1, 1))
    comp = main1.machine.run(W, accepting_run(W, main1)[0].history)
    inv = Computation(list(map(inverse, comp.words)), comp.history)
    assert all(q < 0 for q in inv.words[0].states)
    assert main1.machine.run(inv.words[0], inv.history).words == inv.words
    d = build_trapezium(pres, inv)
    assert diagram_report(d, pres) == []
    assert _replay_against_the_reference(pres, inv.words[0], d) == \
        inv.words[-1]


def test_diagrams_with_no_bands(main1, pres):
    W = main1.w_ac()
    d = build_disk_diagram(W, main1, pres)
    assert d.history == [] and len(d.rows) == 1
    assert [c.cls for c in d.rows[0].cells] == ["hub"]
    assert d.area == 1 and not d.top and not d.left and not d.right
    assert d.bottom == pres.carry_admissible(W)
    assert diagram_report(d, pres) == []
    text = diagram_to_json(d)
    assert diagram_to_json(diagram_from_json(pres.alpha, text)) == text
    trap = build_trapezium(pres, Computation([W], []))
    assert trap.rows == [] and trap.area == 0
    assert trap.top == trap.bottom == pres.carry_admissible(W)
    assert not trap.left and not trap.right
    assert diagram_report(trap, pres) == []


def test_disk_needs_an_accepted_configuration(main1, pres):
    with pytest.raises(MachineError, match="not accepted"):
        build_disk_diagram(main1.input_i(payload(main1, 0)), main1, pres)


def test_component_norm(main1):
    P = main1.P
    assert component_norm(main1.w_ac(), main1) == P
    W = main1.input_i(payload(main1, 3))
    assert component_norm(W, main1) == P + 6
    assert component_norm(W, main1, 1) == P + 6
    with pytest.raises(ValueError, match="out of range"):
        component_norm(W, main1, main1.L + 1)


def test_corrupted_cell_is_named(disk_i, pres):
    d = diagram_from_json(pres.alpha, diagram_to_json(disk_i))
    i, j = 5, 3
    c = d.rows[i].cells[j]
    d.rows[i].cells[j] = dataclasses.replace(c, top=c.top * c.left)
    report = diagram_report(d, pres)
    assert any(msg.startswith("row %d cell %d:" % (i, j)) for msg in report)
    assert not any(msg.startswith("row %d cell" % k) for msg in report
                   for k in range(len(d.rows)) if k != i)


def _cells_named(report):
    hits = (re.match(r"row (\d+) cell (\d+):", msg) for msg in report)
    return [(int(m.group(1)), int(m.group(2))) for m in hits if m]


def _own_rows(d):
    """d with rows of its own, so that cells can be moved in place."""
    rows = [dataclasses.replace(r, cells=list(r.cells)) for r in d.rows]
    return dataclasses.replace(d, rows=rows)


def test_corrupted_shared_cell_is_named_where_it_sits(disk_i, pres):
    d = _own_rows(disk_i)
    rows = d.rows
    i, j = 5, 3
    c = rows[i].cells[j]
    places = [(k, l) for k, r in enumerate(rows)
              for l, x in enumerate(r.cells) if x is c]
    assert len(places) > 1
    bad = dataclasses.replace(c, top=c.top * c.left)
    rows[i].cells[j] = bad
    assert _cells_named(diagram_report(d, pres)) == [(i, j)]
    for k, l in places:
        rows[k].cells[l] = bad
    assert _cells_named(diagram_report(d, pres)) == places
    assert diagram_report(disk_i, pres) == []


def test_rows_that_do_not_fit_are_named(disk_i, pres):
    rows = list(disk_i.rows)
    del rows[5]
    d = dataclasses.replace(disk_i, rows=rows)
    assert "rows 4/5: top and bottom labels differ" in diagram_report(d, pres)
    d = dataclasses.replace(disk_i, bottom=disk_i.rows[1].bottom)
    assert diagram_report(d, pres) == [
        "diagram bottom disagrees with the first row"]
    d = _own_rows(disk_i)
    rows = d.rows
    c = rows[5].cells[0]
    rows[5].cells[0] = dataclasses.replace(c, left=c.bottom)
    hub = rows[-1].cells[0]
    rows[-1].cells[0] = dataclasses.replace(hub, left=c.left, right=c.left)
    report = diagram_report(d, pres)
    assert "row 5: side labels lack the rule letter" in report
    assert "row %d: stray side labels" % (len(rows) - 1) in report


def _pick(d, r):
    """A band cell's place, (row, cell)."""
    i = r.randrange(len(d.rows) - 1)
    return i, r.randrange(len(d.rows[i].cells))


def _top_changed(d, r):
    i, j = _pick(d, r)
    c = d.rows[i].cells[j]
    d.rows[i].cells[j] = dataclasses.replace(c, top=c.top * c.left)


def _swapped(d, r):
    i = r.randrange(len(d.rows) - 1)
    cells = d.rows[i].cells
    j = r.choice([j for j in range(len(cells) - 1)
                  if _fields(cells[j]) != _fields(cells[j + 1])])
    cells[j], cells[j + 1] = cells[j + 1], cells[j]


def _row_dropped(d, r):
    del d.rows[r.randrange(1, len(d.rows) - 1)]


def _wrong_bottom(d, r):
    d.bottom = d.rows[r.randrange(1, len(d.rows))].bottom


def _shared_cell_everywhere(d, r):
    while True:
        i, j = _pick(d, r)
        c = d.rows[i].cells[j]
        if sum(x is c for row in d.rows for x in row.cells) > 1:
            break
    bad = dataclasses.replace(c, top=c.top * c.left)
    for row in d.rows:
        row.cells[:] = [bad if x is c else x for x in row.cells]


def _left_label_changed(d, r):
    i = r.randrange(len(d.rows) - 1)
    j = r.randrange(1, len(d.rows[i].cells))
    c = d.rows[i].cells[j]
    d.rows[i].cells[j] = dataclasses.replace(c, left=c.left * c.left)


CORRUPTIONS = [_top_changed, _swapped, _row_dropped, _wrong_bottom,
               _shared_cell_everywhere, _left_label_changed]


@pytest.mark.parametrize("which", ["disk_i", "disk_j", "disk_i2"])
def test_report_matches_the_reference_on_the_disks(request, which, pres):
    d = request.getfixturevalue(which)
    assert diagram_report(d, pres) == reference_diagram_report(d, pres) == []


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("which", ["disk_i", "disk_j"])
@pytest.mark.parametrize("salt", [0, 1])
def test_report_matches_the_reference_on_corruptions(request, which, corrupt,
                                                     salt, pres):
    d = _own_rows(request.getfixturevalue(which))
    corrupt(d, rng(salt))
    report = diagram_report(d, pres)
    assert report and report == reference_diagram_report(d, pres)


def _unreduced(w, at=0):
    """w with a cancelling pair put in at ``at``, left unreduced."""
    x = w.alpha.ids()[0]
    return Word(w.alpha, w.ltrs[:at] + (x, -x) + w.ltrs[at:])


def _cell_bottom_unreduced(d, r):
    i = r.randrange(1, len(d.rows) - 1)
    j = r.randrange(len(d.rows[i].cells))
    c = d.rows[i].cells[j]
    d.rows[i].cells[j] = dataclasses.replace(c, bottom=_unreduced(c.bottom))


def _diagram_bottom_unreduced(d, r):
    d.bottom = _unreduced(d.bottom, r.randrange(len(d.bottom) + 1))


def _cancelling_pair_changed(d, r):
    """Two letters that cancel across a cell edge of a row's top, each
    changed to the same other letter (or its inverse): the top is freely
    the same, but the two cells match no relator."""
    sites = [(i, j) for i, row in enumerate(d.rows[:-1])
             for j, (a, b) in enumerate(zip(row.cells, row.cells[1:]))
             if a.top and b.top and a.top.ltrs[-1] == -b.top.ltrs[0]]
    i, j = r.choice(sites)
    a, b = d.rows[i].cells[j:j + 2]
    x = next(x for x in d.alpha.ids()
             if abs(a.top.ltrs[-1]) != x and x not in map(abs, a.top.ltrs)
             and x not in map(abs, b.top.ltrs))
    d.rows[i].cells[j:j + 2] = [
        dataclasses.replace(a, top=Word(d.alpha, a.top.ltrs[:-1] + (x,))),
        dataclasses.replace(b, top=Word(d.alpha, (-x,) + b.top.ltrs[1:]))]


@pytest.mark.parametrize("corrupt,labels_differ", [
    (_cell_bottom_unreduced, False), (_diagram_bottom_unreduced, True),
    (_cancelling_pair_changed, False)], ids=lambda x: getattr(x, "__name__",
                                                              str(x)))
@pytest.mark.parametrize("which", ["disk_i", "disk_j"])
@pytest.mark.parametrize("salt", [0, 1])
def test_labels_that_are_freely_equal_fit(request, which, corrupt,
                                          labels_differ, salt, pres):
    """A row's bottom is matched with the top below by free equality, not
    by letters; the diagram's own bottom must be reduced."""
    d = _own_rows(request.getfixturevalue(which))
    corrupt(d, rng(salt))
    report = diagram_report(d, pres)
    assert report == reference_diagram_report(d, pres)
    assert any("bottom" in msg for msg in report) == labels_differ


@pytest.mark.parametrize("where", [0, 3, -1])
def test_an_empty_row_is_named(disk_i, pres, where):
    """A row with no cells is a defect, and the rows on either side of it
    are still checked, against each other."""
    d = _own_rows(disk_i)
    at = where % (len(d.rows) + 1)
    d.rows.insert(at, Row([]))
    report = diagram_report(d, pres)
    assert report == reference_diagram_report(d, pres)
    assert report == ["row %d holds no cells" % at]
    gone = at + 1 if at + 1 < len(d.rows) else at - 2
    del d.rows[gone]
    at -= gone < at
    report = diagram_report(d, pres)
    assert report == reference_diagram_report(d, pres)
    assert "row %d holds no cells" % at in report and len(report) > 1


def test_the_writers_name_an_empty_row(disk_i):
    d = _own_rows(disk_i)
    d.rows.insert(3, Row([]))
    for write in (diagram_to_json, diagram_to_dot):
        with pytest.raises(ValueError, match="^row 3 holds no cells$"):
            write(d)


def test_the_top_is_read_off_the_last_row_with_cells(disk_i):
    d = _own_rows(disk_i)
    top = d.top
    assert top == d.rows[-1].top
    d.rows.append(Row([]))
    assert d.top == top
    d.rows[:] = [Row([])]
    assert d.top == d.bottom


def test_an_empty_contour_matches_no_relator(disk_i, pres):
    d = _own_rows(disk_i)
    empty = pres.alpha.word()
    d.rows[3].cells.insert(0, Cell(empty, empty, empty, empty, "theta-a"))
    report = diagram_report(d, pres)
    assert report == reference_diagram_report(d, pres)
    assert "row 3 cell 0: boundary 1 matches no relator" in report


@pytest.mark.parametrize("whole_cell", [False, True])
def test_a_foreign_alphabet_cell_raises(disk_i, pres, whole_cell):
    """A cell with one word over another alphabet, or a cell wholly over
    another alphabet among cells over the presentation's.  The other
    alphabet is as large as the presentation's, so the moved words are
    well formed there and only their alphabet is foreign."""
    other = Alphabet()
    for k in range(len(pres.alpha)):
        other.intern("o%d" % k)
    d = _own_rows(disk_i)
    i, j = _pick(d, rng(2))
    c = d.rows[i].cells[j]
    names = ("bottom", "top", "left", "right") if whole_cell else ("top",)
    d.rows[i].cells[j] = dataclasses.replace(
        c, **{k: Word(other, getattr(c, k).ltrs) for k in names})
    for report in (diagram_report, reference_diagram_report):
        with pytest.raises(ValueError, match="different alphabets"):
            report(d, pres)


def _rotations(w):
    return {t[k:] + t[:k] for t in (w.ltrs, (~w).ltrs) for k in range(len(t))}


def test_the_rotation_set_follows_the_relators(disk_i, pres):
    """The rotations a presentation keeps are made again when its
    relators change, even in place."""
    assert diagram_report(disk_i, pres) == []
    contour = disk_i.rows[5].cells[3].contour.ltrs
    k = next(k for k, r in enumerate(pres.relators)
             if contour in _rotations(r.word))
    dropped = pres.relators.pop(k)
    try:
        report = diagram_report(disk_i, pres)
        assert (5, 3) in _cells_named(report)
        assert report == reference_diagram_report(disk_i, pres)
    finally:
        pres.relators.insert(k, dropped)
    assert diagram_report(disk_i, pres) == []


def test_cells_are_frozen(disk_i):
    c = disk_i.rows[0].cells[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.top = c.bottom


def test_json_round_trip(disk_i, pres):
    text = diagram_to_json(disk_i)
    again = diagram_from_json(pres.alpha, text)
    assert diagram_to_json(again) == text
    assert diagram_report(again, pres) == []


def test_json_errors_name_the_field_or_the_letter(disk_i, pres):
    with pytest.raises(ValueError, match="has no field 'rows'"):
        diagram_from_json(pres.alpha, "{}")
    obj = json.loads(diagram_to_json(disk_i))
    del obj["rows"][0]["cells"][1]["top"]
    with pytest.raises(ValueError, match="has no field 'top'"):
        diagram_from_json(pres.alpha, json.dumps(obj))
    obj = json.loads(diagram_to_json(disk_i))
    obj["rows"][1]["left"] = "zz"
    with pytest.raises(ValueError, match="unknown letter: 'zz'"):
        diagram_from_json(pres.alpha, json.dumps(obj))
    with pytest.raises(ValueError, match="top level is not an object"):
        diagram_from_json(pres.alpha, "[]")
    with pytest.raises(ValueError, match="rows is not a list"):
        diagram_from_json(pres.alpha, '{"rows": 5}')
    with pytest.raises(ValueError, match="row 0 is not an object"):
        diagram_from_json(pres.alpha, '{"rows": [5]}')
    obj = json.loads(diagram_to_json(disk_i))
    obj["rows"][2]["cells"] = []
    with pytest.raises(ValueError, match="row 2 cells are not a nonempty"):
        diagram_from_json(pres.alpha, json.dumps(obj))
    obj = json.loads(diagram_to_json(disk_i))
    obj["rows"][1]["cells"][2]["right"] = 5
    with pytest.raises(ValueError,
                       match="row 1 cell 2 right label is not a string"):
        diagram_from_json(pres.alpha, json.dumps(obj))
    # a trapezium with no rows over a one-letter alphabet, field by field
    al = Alphabet()
    al.intern("a")
    base = {"kind": "trapezium", "glue": None, "history": [], "rows": [],
            "bottom": "a", "top": "a", "left": "1", "right": "1"}
    assert diagram_from_json(al, json.dumps(base)).top == al.parse("a")
    history = re.escape("history is not a list of [rule name, 1 or -1] pairs")
    for field, value, message in [
            ("history", 5, history),
            ("history", [[1]], history),
            ("history", [["x", 2]], history),
            ("history", [[1, 1]], history),
            ("history", [["x", True]], history),
            ("bottom", 5, "diagram bottom label is not a string"),
            ("top", 5, "diagram top label is not a string"),
            ("kind", 5, 'kind is not "trapezium" or "disk"'),
            ("glue", 7, 'glue is not null or "sides"')]:
        with pytest.raises(ValueError, match=message):
            diagram_from_json(al, json.dumps(dict(base, **{field: value})))


def test_cell_fields_are_checked(disk_i, pres):
    """Every cell field is checked on load, and the error names the row,
    the cell and the field."""
    for field, value, message in [
            ("cls", 5, "row 1 cell 2 cls is not a string"),
            ("index", "x", "row 1 cell 2 index is not an int or null"),
            ("index", True, "row 1 cell 2 index is not an int or null"),
            ("rule", 7, "row 1 cell 2 rule is not a string or null"),
            ("weight_arg", "zz",
             "row 1 cell 2 weight_arg is not an int or null"),
            ("coordinate", 1.5,
             "row 1 cell 2 coordinate is not an int or null")]:
        obj = json.loads(diagram_to_json(disk_i))
        obj["rows"][1]["cells"][2][field] = value
        with pytest.raises(ValueError, match=message):
            diagram_from_json(pres.alpha, json.dumps(obj))


@pytest.mark.parametrize("shape", ["i", "j"])
def test_labels_are_the_carried_replay(shape, request, main1, pres):
    d = request.getfixturevalue("disk_" + shape)
    W = getattr(main1, "input_" + shape)(payload(main1, 1))
    words = main1.machine.run(W, d.history).words
    *bands, hub = d.rows
    assert len(bands) == len(words) - 1
    for k, row in enumerate(bands):
        assert row.bottom == pres.carry_admissible(words[k])
        assert row.top == pres.carry_admissible(words[k + 1])
    assert hub.bottom == pres.carry_admissible(main1.machine.accept_config())


def test_a_stored_label_that_disagrees_with_the_cells_is_rejected(disk_i,
                                                                   pres):
    obj = json.loads(diagram_to_json(disk_i))
    assert obj["rows"][3]["top"] != obj["rows"][2]["top"]
    obj["rows"][3]["top"] = obj["rows"][2]["top"]
    with pytest.raises(ValueError, match="row 3 top label disagrees"):
        diagram_from_json(pres.alpha, json.dumps(obj))
    obj = json.loads(diagram_to_json(disk_i))
    obj["left"] = obj["bottom"]
    with pytest.raises(ValueError, match="diagram left label disagrees"):
        diagram_from_json(pres.alpha, json.dumps(obj))


def test_dot_has_one_node_per_cell(disk_i):
    dot = diagram_to_dot(disk_i)
    nodes = re.findall(r"^  c\d+_\d+ \[label=", dot, flags=re.M)
    assert len(nodes) == disk_i.area
    assert dot.startswith("digraph grid {") and dot.endswith("}")


# -- weights -------------------------------------------------------------------

# arguments small enough for exact evaluation within max_digits
EXACT = [("chi", n) for n in range(31)] + [("h", n) for n in range(11)]
EXACT += [("f", n) for n in range(4)] + [("g", n) for n in range(2)]
EXACT += [("dehn_bound", 0)]


@pytest.fixture(scope="module")
def wf():
    return WeightFunctions(DESK4.c0, DESK4.c1, DESK4.L, DESK4.K,
                           lambda n: n + 1)


@given(st.sampled_from(EXACT), st.integers(-3, 3), st.integers(0, 10 ** 4))
@settings(max_examples=200, deadline=None)
def test_weight_ge_matches_exact(wf, case, offset, m):
    fn, n = case
    v = getattr(wf, fn)(n)
    assert wf.ge(fn, n, v + offset) == (v >= v + offset)
    assert wf.ge(fn, n, m) == (v >= m)


@pytest.mark.parametrize("m", [5, 0, -2])
def test_weight_of_a_negative_argument_is_refused(wf, m):
    """ge checks n before it takes its m <= 0 shortcut, as f(-1) does."""
    for fn in ("chi", "f", "dehn_bound"):
        with pytest.raises(ValueError, match="nonnegative arguments"):
            wf.ge(fn, -1, m)
        with pytest.raises(ValueError, match="nonnegative arguments"):
            getattr(wf, fn)(-1)


@pytest.mark.parametrize("m", [5, 0])
def test_weight_of_an_unknown_function_is_named(wf, m):
    with pytest.raises(ValueError, match=re.escape(
            "unknown weight function 'zz'; the weight functions are "
            "chi, h, f, g, dehn_bound")):
        wf.ge("zz", 1, m)


WORD_ALPHA = Alphabet()
for _name in ("x", "y", "z"):
    WORD_ALPHA.intern(_name)
letter_lists = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8)


@given(st.lists(letter_lists, max_size=8))
@settings(max_examples=50)
def test_word_product_is_the_left_fold(lists):
    ws = [WORD_ALPHA.word(ls) for ls in lists]
    folded = WORD_ALPHA.word()
    for w in ws:
        folded = folded * w
    assert _word_product(ws, WORD_ALPHA) == folded


def test_word_product_rejects_foreign_words():
    other = Alphabet()
    other.intern("x")
    with pytest.raises(ValueError, match="different alphabets"):
        _word_product([WORD_ALPHA.parse("x"), other.parse("x")], WORD_ALPHA)


@given(st.lists(letter_lists, min_size=4, max_size=4))
@settings(max_examples=100)
def test_contour_is_the_reduced_product(sides):
    bottom, top, left, right = (WORD_ALPHA.word(ls) for ls in sides)
    c = Cell(bottom, top, left, right, "a")
    assert c.contour == (~left) * bottom * right * (~top)
