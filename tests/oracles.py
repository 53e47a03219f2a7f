"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: quadratic scans, brute-force
searches, literal formula transcriptions. Tests compare the fast library
code against these, never the other way around.
"""

from __future__ import annotations

import functools
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_SEED = int(os.environ.get("SMFORGE_SEED", "271828"))


def rng(salt: int = 0) -> random.Random:
    return random.Random(DEFAULT_SEED + salt)


# -- free reduction, the slow way -------------------------------------------

def naive_reduce(letters: Sequence[int]) -> Tuple[int, ...]:
    """Repeatedly delete the first adjacent inverse pair until none remain."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


def reference_reduce_history(history):
    """The history with adjacent inverse steps cancelled, by a stack of
    (name, sign) pairs."""
    stack = []
    for name, s in history:
        if stack and stack[-1] == (name, -s):
            stack.pop()
        else:
            stack.append((name, s))
    return stack


def naive_cyclic_reduce(letters: Sequence[int]) -> Tuple[int, ...]:
    out = list(naive_reduce(letters))
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def random_signed_ids(r: random.Random, ids: Sequence[int], n: int) -> List[int]:
    return [r.choice(ids) * r.choice((1, -1)) for _ in range(n)]


def random_reduced(r: random.Random, ids: Sequence[int], n: int) -> List[int]:
    """A uniformly grown reduced word of length exactly n (ids nonempty)."""
    out: List[int] = []
    while len(out) < n:
        x = r.choice(ids) * r.choice((1, -1))
        if out and out[-1] == -x:
            continue
        out.append(x)
    return out


# -- membership by bounded exhaustive products -------------------------------

def naive_member(word: Tuple[int, ...], basis: Sequence[Tuple[int, ...]],
                 max_terms: int) -> Optional[List[Tuple[int, int]]]:
    """Breadth-first search over all products of at most max_terms basis
    factors; returns the first expression found or None."""
    from collections import deque

    signed = []
    for j, b in enumerate(basis):
        signed.append((j, 1, tuple(b)))
        signed.append((j, -1, tuple(-x for x in reversed(b))))
    start: Tuple[int, ...] = ()
    if start == tuple(word):
        return []
    q = deque([(start, [])])
    seen = {start}
    while q:
        cur, expr = q.popleft()
        if len(expr) >= max_terms:
            continue
        for j, s, bw in signed:
            nxt = naive_reduce(cur + bw)
            e2 = expr + [(j, s)]
            if nxt == tuple(word):
                return e2
            if nxt not in seen and len(nxt) <= len(word) + 2 * max(len(b) for b in basis):
                seen.add(nxt)
                q.append((nxt, e2))
    return None


# -- Stallings folding, one edge at a time ---------------------------------
#
# The library folder reads each basis word through the graph before it
# builds anything and merges only where its two reads meet.  This is the
# per-edge insert it replaced, kept as written: every edge goes through the
# queue and a fold test, in the caller's order.

class ReferenceFolder:
    """Folded core graph of the subgroup generated by a list of words.

    Edges are inserted one at a time and folded eagerly: whenever a vertex
    would acquire two equal-label outgoing edges, the targets are merged
    (union-find) and the loser's edges are re-queued for insertion.
    """

    def __init__(self, basis: Sequence[Word]):
        for b in basis:
            if not b:
                raise ValueError("empty word in basis")
        self.parent: List[int] = [0]
        self.adj: List[Dict[int, int]] = [dict()]
        self._queue: List[Tuple[int, int, int]] = []
        for b in basis:
            v = 0
            for k, x in enumerate(b.ltrs):
                u = 0 if k == len(b.ltrs) - 1 else self._new_vertex()
                self._insert(v, x, u)
                v = self._find(u)

    def _new_vertex(self) -> int:
        self.parent.append(len(self.parent))
        self.adj.append(dict())
        return len(self.parent) - 1

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def _insert(self, v: int, x: int, u: int) -> None:
        self._queue.append((v, x, u))
        while self._queue:
            v, x, u = self._queue.pop()
            v, u = self._find(v), self._find(u)
            tf = self.adj[v].get(x)
            tf = self._find(tf) if tf is not None else None
            tb = self.adj[u].get(-x)
            tb = self._find(tb) if tb is not None else None
            if tf is not None and tf != u:
                self._merge(tf, u)
                self._queue.append((self._find(v), x, self._find(u)))
            elif tb is not None and tb != v:
                self._merge(tb, v)
                self._queue.append((self._find(v), x, self._find(u)))
            else:
                # new edge, or a half-present pair getting normalized
                self.adj[v][x] = u
                self.adj[u][-x] = v

    def _merge(self, a: int, b: int) -> None:
        a, b = self._find(a), self._find(b)
        if a == b:
            return
        self.parent[b] = a
        moved = list(self.adj[b].items())
        self.adj[b] = dict()
        for x, u in moved:
            self._queue.append((a, x, self._find(u)))

    # -- queries -----------------------------------------------------------

    def trace(self, w: Word) -> Optional[int]:
        v = self._find(0)
        for x in w.ltrs:
            nxt = self.adj[v].get(x)
            if nxt is None:
                return None
            v = self._find(nxt)
        return v

    def accepts(self, w: Word) -> bool:
        return self.trace(w) == self._find(0)

    def rank(self) -> int:
        verts = set(self._find(v) for v in range(len(self.parent)))
        edges = 0
        for v in verts:
            for x in self.adj[v]:
                if x > 0:
                    edges += 1
        return edges - len(verts) + 1


def reference_validate_basis(basis: Sequence[Word]) -> bool:
    """Freeness by the fold alone: no word is empty and the folded core
    graph has rank len(basis)."""
    return all(basis) and ReferenceFolder(basis).rank() == len(basis)


# -- rule application, the generic way --------------------------------------
#
# The library compiles each sector into letter tables and rewrites each
# window in one pass.  These are the generic path it replaced: express the
# tape over X, multiply the expression out over Z, reduce the whole word
# once and split it again at its state letters.

def reference_express(sec, w):
    """Expression of w over sec.X: by express_in_basis when every X entry
    is one letter, else by the inverse substitution.  Then every Z entry
    is one letter z, and each X entry is z when fixed (X[k] == Z[k]), else
    p y s with y its one letter outside the fixed ones: sending y to
    p^-1 z s^-1 and each fixed letter to itself carries w to a word over
    the Z letters, read off letter by letter and checked back through X."""
    from smforge.words import express_in_basis, expression_word, substitute

    if not sec.X:
        return [] if not w else None
    if all(len(x) == 1 for x in sec.X):
        return express_in_basis(w, sec.X)
    al = w.alpha
    fixed = {s * z.ltrs[0] for x, z in zip(sec.X, sec.Z) if x == z
             for s in (1, -1)}
    images = {}
    for x, z in zip(sec.X, sec.Z):
        outside = [j for j, y in enumerate(x.ltrs) if y not in fixed]
        if not outside:
            images[abs(z.ltrs[0])] = al.word([abs(z.ltrs[0])])
            continue
        j, = outside
        p, y, s = al.word(x.ltrs[:j]), x.ltrs[j], al.word(x.ltrs[j + 1:])
        img = ~p * z * ~s
        images[abs(y)] = img if y > 0 else ~img
    if any(abs(y) not in images for y in w.ltrs):
        return None
    u = substitute(w, images, al)
    zpos = {z.ltrs[0]: j for j, z in enumerate(sec.Z)
            if len(z.ltrs) == 1 and z.ltrs[0] > 0}
    expr = []
    for y in u.ltrs:
        j = zpos.get(abs(y))
        if j is None:
            return None
        expr.append((j, 1 if y > 0 else -1))
    if expression_word(sec.X, expr) != w:
        return None
    return expr


def reference_domain_expr(rule, sector, w):
    sec = rule.sectors[sector]
    if sec is None:
        return [] if not w else None
    return reference_express(sec, w)


def reference_image(rule, sector, w):
    from smforge.smachine import SectorMismatchError
    from smforge.words import expression_word

    expr = reference_domain_expr(rule, sector, w)
    if expr is None:
        raise SectorMismatchError(sector, w, rule.locks(sector))
    sec = rule.sectors[sector]
    if sec is None:
        return w.alpha.word()
    return expression_word(sec.Z, expr)


def _reference_states(W, rule):
    from smforge.smachine import StateMismatchError

    hw = W.hw
    for j, q in enumerate(W.states):
        expected = rule.parts[hw.part_of(q)].q
        if abs(q) != expected:
            raise StateMismatchError(j, hw.alpha.name_of(q),
                                     hw.alpha.name_of(expected))


def _reference_exprs(W, rule):
    from smforge.smachine import SectorMismatchError

    exprs = []
    for s, w in zip(W.sectors, W.tapes):
        expr = reference_domain_expr(rule, s, w)
        if expr is None:
            raise SectorMismatchError(s, w, rule.locks(s))
        exprs.append(expr)
    return exprs


def reference_is_admissible(W, rule):
    from smforge.smachine import SectorMismatchError, StateMismatchError

    try:
        _reference_states(W, rule)
        _reference_exprs(W, rule)
    except (StateMismatchError, SectorMismatchError) as e:
        return e
    return None


def reference_theta_length(W, rule):
    """The rule's theta-length of W: its state letters and the basis terms
    of its tapes.  Checks sectors only, not state letters."""
    return len(W.states) + sum(len(e) for e in _reference_exprs(W, rule))


def reference_apply_rule(W, rule):
    from smforge.smachine import AdmissibleWord, MachineError
    from smforge.words import Word, expression_word, free_reduce

    hw = W.hw
    _reference_states(W, rule)
    imgs = []
    for s, w, expr in zip(W.sectors, W.tapes, _reference_exprs(W, rule)):
        sec = rule.sectors[s]
        imgs.append(w.alpha.word() if sec is None
                    else expression_word(sec.Z, expr))
    out = []
    for j, q in enumerate(W.states):
        rp = rule.parts[hw.part_of(q)]
        rep = list(rp.u.ltrs) + [rp.q2] + list(rp.v.ltrs)
        if q < 0:
            rep = [-x for x in reversed(rep)]
        out.extend(rep)
        if j < len(W.tapes):
            out.extend(imgs[j].ltrs)
    flat = free_reduce(out)
    # trim tape letters left of the first and right of the last state letter
    states, tapes, cur = [], [], []
    for x in flat:
        if hw.alpha.kind_of(x) == "q":
            if states:
                tapes.append(Word(hw.alpha, tuple(cur)))
            cur = []
            states.append(x)
        else:
            cur.append(x)
    if len(states) != len(W.states):
        raise MachineError("rule %s: state letters cancelled during "
                           "application" % rule.name)
    result = AdmissibleWord(hw, states, tapes)
    if result.base() != W.base():
        raise MachineError("rule %s: base changed during application"
                           % rule.name)
    return result


def reference_semi_run(machine, w, sector, history):
    """Machine.semi_run with reference_image for each step: every word is
    expressed over X afresh, image-read words are always read back, and no
    letter sets or positions are carried from step to step.  A sector
    outside the hardware is refused before any step."""
    from smforge.smachine import MachineError, StepError

    if not 0 <= sector < machine.hw.n_parts:
        raise MachineError("no sector %d" % sector)
    out = [w]
    for k, (name, s) in enumerate(history):
        try:
            rule = machine.rule(name, s)
            out.append(reference_image(rule, sector, out[-1]))
        except MachineError as e:
            raise StepError(k, e) from e
    return out


# -- runs, one window at a time -----------------------------------------------
#
# The library's apply_rule works out each rule's effect on a state tuple
# once, rewrites each distinct window once per step and shares the result
# between equal windows, and tests fixed letters on carried letter sets.
# These are the plain loops it replaced: every window of every step is
# rewritten by its own pass, and shift replays its whole history again
# after finding it one step at a time.

def signed_rules(m):
    """Every signed rule of the machine m, (name, 1) first, then
    (name, -1), in the machine's order."""
    return [(n, 1) for n in m.rules] + [(n, -1) for n in m.rules]


def component(W, coord, P):
    """The coord-th copy's slice of a parallel machine's configuration W,
    with P state letters per copy: the copy's own sectors, without the
    junctions between copies."""
    from smforge.smachine import AdmissibleWord

    lo = (coord - 1) * P
    return AdmissibleWord(W.hw, W.states[lo:lo + P], W.tapes[lo:lo + P - 1])


def _join(stack, letters):
    """Append the reduced ``letters`` to the reduced ``stack``, reducing."""
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)


def reference_settle(buf, c, m, at, offsets=(), meet=None):
    """smachine._settle as it was before seams guessed: join buf[c:c + m]
    onto buf[:c] in place, cancelling letter by letter, and keep the watch
    positions ``at`` as _settle does.  ``meet`` is taken and ignored, so
    that this stands in for _settle under SectorRule.push."""
    k = 0
    while k < min(c, m) and buf[c - 1 - k] == -buf[c + k]:
        k += 1
    del buf[c - k:c + k]
    at[:] = [p for p in at if p < c - k]
    at.extend(c - 2 * k + p for p in offsets if p >= k)
    return c + m - 2 * k


def reference_step(W, rule, images=None):
    """W . rule by one pass per window, as apply_rule did before step
    plans and shared windows.  Each window's image is reference_image's,
    kept in ``images`` by sector rule and tape word, so that a run can pass
    one dict to all its steps."""
    from smforge.smachine import (AdmissibleWord, MachineError,
                                  StateMismatchError)
    from smforge.words import Word

    hw, alpha = W.hw, W.hw.alpha
    if rule.hw is not hw:
        raise MachineError("rule %s: hardware differs from the word's"
                           % rule.name)
    repl = []
    for j, q in enumerate(W.states):
        # the rule part of q's part: q -> u q2 v, so q^-1 -> v^-1 q2^-1 u^-1
        rp = next(rp for part, rp in zip(hw.parts, rule.parts)
                  if abs(q) in part.letters)
        if abs(q) != rp.q:
            raise StateMismatchError(j, alpha.name_of(q), alpha.name_of(rp.q))
        u, v = rp.u.ltrs, rp.v.ltrs
        repl.append((u, rp.q2, v) if q > 0 else
                    (tuple(-x for x in reversed(v)), -rp.q2,
                     tuple(-x for x in reversed(u))))
    tapes = []
    images = {} if images is None else images
    cancelled = False
    for j, (s, w) in enumerate(zip(W.sectors, W.tapes)):
        (_, q1, right), (left, q2, _) = repl[j], repl[j + 1]
        key = (id(rule.sectors[s]), w.ltrs)
        if key not in images:
            images[key] = reference_image(rule, s, w).ltrs
        out = list(right)
        _join(out, images[key])
        _join(out, left)
        cancelled = cancelled or (not out and q1 == -q2)
        tapes.append(Word(alpha, tuple(out)))
    if cancelled:
        raise MachineError("rule %s: state letters cancelled during "
                           "application" % rule.name)
    states = [q for _, q, _ in repl]
    result = AdmissibleWord(W.hw, states, tapes)
    if result.base() != W.base():
        raise MachineError("rule %s: base changed during application"
                           % rule.name)
    return result


def reference_run(machine, W, history, trace=True):
    """Machine.run with reference_step for each step."""
    from smforge.smachine import Computation, MachineError, StepError

    cur = W
    words = [W]
    images = {}
    for k, (name, s) in enumerate(history):
        try:
            cur = reference_step(cur, machine.rule(name, s), images)
        except MachineError as e:
            raise StepError(k, e) from e
        if trace:
            words.append(cur)
    if not trace and history:
        words.append(cur)
    return Computation(words, list(history))


def m1_start(machine, w):
    """(q0 w q1) on M1: the word w in sector 1 between the start states of
    parts 0 and 1, the admissible word whose window 0 ``shift`` erases."""
    from smforge.smachine import AdmissibleWord

    q0, q1 = machine.hw.parts[0].start, machine.hw.parts[1].start
    return AdmissibleWord(machine.hw, (q0, q1), (w,))


def reference_shift(w, machine, scheme):
    """shift as it was: one run per step while the history is found, the
    last noise spelling only listed, then the whole history replayed.  It
    checks and splits the tape with this file's references, not with the
    library's ``_check_sector1`` and ``marker_split``, which shift uses."""
    _reference_check_sector1(w, scheme)
    W0 = m1_start(machine, w)
    W, hist = W0, []
    while True:
        gaps, markers = reference_marker_split(W.tapes[0], scheme)
        if not markers:
            hist += [(scheme.rule_name(abs(x)), 1 if x > 0 else -1)
                     for x in reversed(W.tapes[0].ltrs)]
            break
        x, tail = markers[-1], gaps[-1]
        a = scheme.unmark(abs(x))
        if x > 0:
            steps = [(scheme.rule_name(abs(l)), 1 if l > 0 else -1)
                     for l in reversed(tail.ltrs)]
            steps.append((scheme.rule_name(a), 1))
        else:
            dec = reference_decode_rear(tail, a, scheme)
            if dec is None:
                return None
            steps = [(scheme.rule_name(y), e) for y, e in dec]
            steps.append((scheme.rule_name(a), -1))
        for name, s in steps:
            W = reference_run(machine, W, [(name, s)]).final()
        hist += steps
    if reference_reduce_history(hist) != hist:
        return None
    comp = reference_run(machine, W0, hist, trace=False)
    final = comp.final()
    if final.tapes[0] or final.base() != W0.base():
        return None
    return comp


@functools.lru_cache(maxsize=None)
def _bottom(letters):
    from smforge.machines import build_m1

    return build_m1(letters)


def reference_bottom(main):
    """M1 and its noise scheme, built afresh over the names of main's
    payload letters: none of main's own bookkeeping is read."""
    al = main.machine.hw.alpha
    return _bottom(tuple(al.name_of(a) for a in main.A))


def endpoints(words):
    """The first and the last of a computation's words, or the one word."""
    return words[:1] + words[1:][-1:]


def reference_accepting_run(W, main, run=None):
    """accepting_run as it was, in two passes: reference_shift finds the
    marked word's shift on a fresh M1 (``reference_bottom``), its history
    is lifted onto working set c by name, and the whole history is
    replayed on the main machine by ``run`` (reference_run unless given;
    ``Machine.run`` takes its arguments).  The start shape is
    reference_classify_start's."""
    from smforge.smachine import Computation, StepError
    from smforge.words import relabel, relabel_by_name

    mm = main.machine
    if W == mm.accept_config():
        return Computation([W], []), 0
    shape = reference_classify_start(W, main)
    if shape is None or not main.plugin.member(main.to_plugin(shape[1])):
        return None
    which, w = shape
    m1, sch = reference_bottom(main)
    marked = relabel_by_name(relabel(w, dict(zip(main.A, main.A1)), w.alpha),
                             sch.alpha)
    comp1 = reference_shift(marked, m1, sch)
    if comp1 is None:
        return None
    c = 1 if which == "I" else 2
    hist = [("s%d" % c, 1)]
    hist += [("%d.%s" % (c, nm), s) for nm, s in comp1.history]
    hist.append(("%d.sigma" % c, 1))
    hist += [("%d.%s" % (c, nm), s)
             for nm, s in main.plugin.accept_run(main.to_plugin(w))]
    hist.append(("a%d" % c, 1))
    try:
        comp = (run or reference_run)(mm, W, hist, trace=False)
    except StepError:
        return None
    if comp.final() != mm.accept_config():
        return None
    return comp, sum(1 for nm, _ in hist if nm in ("a1", "a2"))


# -- band cells, built afresh for every band ---------------------------------
#
# The library builds each cell of a presentation once and shares it between
# bands, and reads machine letters in the group by their ids.  These build
# every cell from the rule on each call, as the band builder did before the
# cells were shared, and carry each machine letter into the presentation by
# its name, so they do not rely on the ids agreeing.

def reference_state_cell(pres, rule, part, eps):
    from smforge.groups import Cell
    from smforge.words import relabel_by_name

    hw = pres.machine.hw
    rp = rule.parts[part]
    t_here = pres.theta_word(rule.name, part)
    t_next = pres.theta_word(rule.name, (part + 1) % hw.n_parts)
    src, al = hw.alpha, pres.alpha
    bottom = relabel_by_name(src.word((eps * rp.q,)), al)
    top = relabel_by_name(src.word(rp.u.ltrs + (rp.q2,) + rp.v.ltrs), al)
    if eps < 0:
        top = ~top
        t_here, t_next = t_next, t_here
    cls = "theta-t" if part in pres.t_parts else "theta-q"
    return Cell(bottom, top, t_here, t_next, cls, rule=rule.name, index=part,
                coordinate=hw.alpha.coord_of(rp.q))


def reference_sector_cells(pres, rule, sector, w):
    from smforge.groups import Cell, _a_class
    from smforge.smachine import MachineError
    from smforge.words import relabel_by_name

    expr = reference_domain_expr(rule, sector, w)
    if expr is None:
        raise MachineError("rule %s does not read %s in sector %d"
                           % (rule.name, w.format(), sector))
    sec = rule.sectors[sector]
    t_s = pres.theta_word(rule.name, sector)
    coord = pres.machine.hw.alpha.coord_of(
        pres.machine.hw.parts[sector].start)
    cells = []
    for k, sgn in expr:
        x = relabel_by_name(sec.X[k], pres.alpha)
        z = relabel_by_name(sec.Z[k], pres.alpha)
        if sgn < 0:
            x, z = ~x, ~z
        cells.append(Cell(x, z, t_s, t_s, _a_class(pres, sector, sec.X[k]),
                          rule=rule.name, index=sector, coordinate=coord))
    return cells


def reference_band_cells(pres, W, name, sign):
    """The cells of the band of (name, sign) over W, bottom row first.

    A negative band is the positive band over W . rule^-1 turned upside
    down, each cell flipped.
    """
    from smforge.groups import Cell
    from smforge.smachine import apply_rule

    machine = pres.machine
    rule = machine.rule(name)
    if sign < 0:
        W = apply_rule(W, machine.rule(name, -1))
    cells = []
    for j, q in enumerate(W.states):
        cells.append(reference_state_cell(pres, rule, W.hw.part_of(q),
                                          1 if q > 0 else -1))
        if j < len(W.tapes):
            cells.extend(reference_sector_cells(pres, rule, W.sectors[j],
                                                W.tapes[j]))
    if sign > 0:
        return cells
    return [Cell(bottom=c.top, top=c.bottom, left=~c.left, right=~c.right,
                 cls=c.cls, rule=c.rule, index=c.index,
                 coordinate=c.coordinate, weight_arg=c.weight_arg)
            for c in cells]


def reference_band(pres, W, V, name, sign):
    """The band of (name, sign) from W to V as the band builder made it
    before band plans: every tape expressed over its sector's domain basis
    on each call, each basis term (k, g) looked up as the letter g.X[k],
    and the closing check a free reduction of the band's far side.  It
    takes the presentation's shared cells, so its rows are the library's
    cell for cell, by identity."""
    from operator import attrgetter
    from smforge.groups import (Row, _sector_cells, _state_cell,
                                _word_product)
    from smforge.smachine import MachineError

    rule = pres.machine.rule(name)
    flip = 1 if sign < 0 else 0
    lo, hi = (V, W) if flip else (W, V)
    cells = []
    exprs = _reference_exprs(lo, rule)
    for j, q in enumerate(lo.states):
        cells.append(_state_cell(pres, rule, q)[flip])
        if j < len(exprs) and exprs[j]:
            s = lo.sectors[j]
            X = rule.sectors[s].X
            table = _sector_cells(pres, rule, s, flip)
            cells.extend(table[g * X[k].ltrs[0]] for k, g in exprs[j])
    far = attrgetter("bottom" if flip else "top")
    if _word_product(list(map(far, cells)),
                     pres.alpha) != pres.carry_admissible(hi):
        raise MachineError("rule %s drops an insert beside the boundary; "
                           "the band would not close" % rule.name)
    return Row(cells)


# -- diagram checks, every place read afresh --------------------------------
#
# The library reads each distinct cell of a diagram once, keeps the
# relator words on the presentation, compares numbered labels and matches
# each row's bottom against the letters of the top below.  This is the
# check as it stood before: every rotation built on every call, each edge
# compared as Words, and each row's bottom and top reduced from its cells.
# Only the contour match is kept per cell, as it was then.  A row with no
# cells is named and passed over, so the rows on either side of it are
# compared with each other.

def _reference_product(ws, alpha):
    if any(w.alpha is not alpha for w in ws):
        raise ValueError("words over different alphabets")
    return alpha.word(x for w in ws for x in w.ltrs)


def _reference_contour(c):
    return _reference_product([~c.left, c.bottom, c.right, ~c.top],
                              c.left.alpha)


def reference_diagram_report(d, pres):
    rots = set()
    for r in pres.relators:
        for w in (r.word, ~r.word):
            t = w.ltrs
            for k in range(len(t)):
                rots.add(t[k:] + t[:k])
    out = []
    matched = {}
    below, last = d.bottom, None
    for i, row in enumerate(d.rows):
        if not row.cells:
            out.append("row %d holds no cells" % i)
            continue
        for j, c in enumerate(row.cells):
            ok = matched.get(id(c))
            if ok is None:
                ok = matched[id(c)] = _reference_contour(c).ltrs in rots
            if not ok:
                out.append("row %d cell %d: boundary %s matches no relator"
                           % (i, j, _reference_contour(c).format()))
        if any(c.cls.startswith("theta") for c in row.cells):
            for j in range(len(row.cells) - 1):
                if row.cells[j].right != row.cells[j + 1].left:
                    out.append("row %d: cells %d and %d do not share an edge"
                               % (i, j, j + 1))
            if any(sum(d.alpha.kind_of(x) == "t" for x in w.ltrs) != 1
                   for w in (row.left, row.right)):
                out.append("row %d: side labels lack the rule letter" % i)
        elif row.left or row.right:
            out.append("row %d: stray side labels" % i)
        alpha = row.left.alpha
        if _reference_product([c.bottom for c in row.cells], alpha) != below:
            out.append("diagram bottom disagrees with the first row"
                       if last is None
                       else "rows %d/%d: top and bottom labels differ"
                       % (last, i))
        below, last = _reference_product([c.top for c in row.cells], alpha), i
    if d.glue == "sides":
        rows = [r for r in d.rows if r.cells]
        left = _reference_product([r.cells[0].left for r in rows], d.alpha)
        right = _reference_product([r.cells[-1].right for r in rows],
                                   d.alpha)
        if left != right:
            out.append("glued sides carry different labels")
    return out


# -- sector-language decisions, decode then replay ---------------------------
#
# The library decodes a marked word once, tests its marker skeleton, and
# replays the decoded history at most once.  These are the path it
# replaced: split and project the word letter by letter, peel noise words
# with a full free reduction each, replay on the bottom machine, and only
# then test the skeleton and replay again on the main machine.

def _reference_check_sector1(w, scheme):
    ok = set(scheme.A1) | set(scheme.B)
    for x in w.ltrs:
        if abs(x) not in ok:
            raise ValueError("letter %s is not a marker or noise letter"
                             % scheme.alpha.name_of(abs(x)))


def reference_noise_word(scheme, y, a, sign=1):
    """The signed noise word of (y, a) as a Word, spelled letter by letter
    from its definition: b1^k (b2 b1)^m b2^k with k = eta(y, a) and
    2k + 2m = D, inverted letter by letter when sign is negative."""
    from smforge.words import Word

    b1, b2 = scheme.B
    k = scheme.eta(y, a)
    ltrs = []
    for i in range(scheme.D):
        if i < k:
            ltrs.append(b1)
        elif i < scheme.D - k:
            ltrs.append(b2 if (i - k) % 2 == 0 else b1)
        else:
            ltrs.append(b2)
    if sign < 0:
        ltrs = [-x for x in reversed(ltrs)]
    return Word(scheme.alpha, tuple(ltrs))


def noise_pairs(scheme):
    """Every pair (y, a) with y a payload or noise letter and a a payload
    letter, in the order of ``scheme.eta``."""
    return [(y, a) for y in scheme.A + scheme.B for a in scheme.A]


def epsilon(W, scheme):
    """Reduced payload image of a bottom-machine configuration, both
    sectors read off letter by letter: markers of sector 1 unmarked,
    copies of sector 2 uncopied, everything else dropped."""
    if not W.is_configuration():
        raise ValueError("projection needs a configuration")
    sec = dict(zip(W.sectors, W.tapes))
    out = []
    for x in sec[1].ltrs:
        if abs(x) in scheme.A1:
            a = scheme.unmark(abs(x))
            out.append(a if x > 0 else -a)
    for x in sec[2].ltrs:
        a = scheme.A[scheme.A2.index(abs(x))]
        out.append(a if x > 0 else -a)
    return scheme.alpha.word(naive_reduce(out))


def reference_marker_split(w, scheme):
    from smforge.words import Word

    _reference_check_sector1(w, scheme)
    markers_set = set(scheme.A1)
    gaps, markers, cur = [], [], []
    for x in w.ltrs:
        if abs(x) in markers_set:
            gaps.append(Word(scheme.alpha, tuple(cur)))
            cur = []
            markers.append(x)
        else:
            cur.append(x)
    gaps.append(Word(scheme.alpha, tuple(cur)))
    return gaps, markers


def _reference_common_prefix(w1, w2):
    n = 0
    for x, y in zip(w1.ltrs, w2.ltrs):
        if x != y:
            break
        n += 1
    return n


def reference_decode_noise(u, scheme):
    """Greedy peel: probe every signed noise word, multiply its inverse in."""
    thresh = 3 * scheme.D // 4 + 1
    out = []
    cur = u
    while cur:
        hit = None
        for y, a in noise_pairs(scheme):
            for s in (1, -1):
                if out and out[-1] == (y, a, -s):
                    continue
                if _reference_common_prefix(
                        cur, reference_noise_word(scheme, y, a, s)) >= thresh:
                    hit = (y, a, s)
                    break
            if hit:
                break
        if hit is None:
            return None
        cur = reference_noise_word(scheme, hit[0], hit[1], -hit[2]) * cur
        out.append(hit)
    return out


def reference_decode_rear(u, a, scheme):
    """machines._decode_rear as a search: stop when what remains is the
    tail of the steps so far, else try every signed noise word of a that
    heads it, multiply its inverse in and recurse."""
    al, thresh = scheme.alpha, 3 * scheme.D // 4 + 1

    def rec(cur, acc):
        tail = al.word((y if e > 0 else -y) for y, e in reversed(acc))
        if cur == tail:
            return list(acc)
        for y in scheme.B:
            for e in (1, -1):
                if acc and acc[-1] == (y, -e):
                    continue
                vv = reference_noise_word(scheme, y, a, e)
                if _reference_common_prefix(cur, vv) >= thresh:
                    r = rec((~vv) * cur, acc + [(y, e)])
                    if r is not None:
                        return r
        return None

    return rec(u, [])


def reference_lambda1_accept(w, machine, scheme, member):
    """Decode, replay on the bottom machine, then test the final word; the
    first and last words, as the library returns them.  A letter that is
    no marker or noise letter gets None."""
    from smforge.machines import _erase_steps, delta, delta_letters
    from smforge.words import free_reduce

    if not {abs(x) for x in w.ltrs} <= set(scheme.A1) | set(scheme.B):
        return None
    gaps, markers = reference_marker_split(w, scheme)
    dl = delta_letters(w, scheme)
    if free_reduce(dl) != dl:
        return None
    hist = []
    for j, g in enumerate(gaps):
        if not g:
            continue
        seq = reference_decode_noise(g, scheme)
        if seq is None:
            return None
        steps = _erase_steps(j, seq, markers, scheme)
        if steps is None:
            return None
        hist = steps
        break
    words = reference_semi_run(machine, w, 1, hist)
    final = words[-1]
    if len(delta_letters(final, scheme)) != len(final):
        return None
    if not member(delta(final, scheme)):
        return None
    return hist, endpoints(words)


def reference_classify_start(W, main):
    """The start shape of W, ("I", w), ("J", w) or None, read tape by tape:
    w is the second copy's plain input tape, and every other tape must be
    the one I(w) puts there, the special one w or empty."""
    mm = main.machine
    starts = tuple(p.start for p in mm.hw.parts)
    if W.states != starts or not W.is_configuration():
        return None
    empty = mm.hw.alpha.word()
    content = dict(zip(W.sectors, W.tapes))
    w = content[main.q_inputs[1]]
    if not {abs(x) for x in w.ltrs} <= set(main.A):
        return None
    mw = main.mirror(w)
    expect = {g: w for g in main.q_inputs}
    expect.update({g: mw for g in main.r_inputs})
    del expect[main.special_sector]
    for g, u in content.items():
        if g != main.special_sector and u != expect.get(g, empty):
            return None
    sp = content[main.special_sector]
    if not len(sp):
        return ("J", w) if len(w) else ("I", w)
    return ("I", w) if sp == w else None


def reference_lambda_accept(w, main, member):
    """reference_lambda1_accept on a fresh bottom machine
    (``reference_bottom``), whose words ``member`` gets back over the main
    machine's letters by name, then a second replay of the lifted history
    on the main machine; the first and last words.  Both replays are
    reference_semi_run's, so nothing here steps through Machine.semi_run
    or the marks a decision hands it."""
    from smforge.smachine import StepError
    from smforge.words import relabel_by_name

    al = main.machine.hw.alpha
    wm = w if w.alpha is al else relabel_by_name(w, al)
    ls = {abs(x) for x in wm.ltrs}
    if ls <= set(main.A):
        return ([], [wm]) if member(wm) else None
    if not ls <= set(main.A1) | set(main.B):
        return None
    m1, sch = reference_bottom(main)
    res = reference_lambda1_accept(relabel_by_name(wm, sch.alpha), m1, sch,
                                   lambda u: member(relabel_by_name(u, al)))
    if res is None:
        return None
    hist1, _ = res
    hist = [("1." + nm, s) for nm, s in hist1]
    hist.append(("s1", -1))
    try:
        words = reference_semi_run(main.machine, wm, main.special_sector,
                                   hist)
    except StepError:
        return None
    return hist, endpoints(words)


# -- expanded word problem, reducing after each deletion ----------------------

def reference_xi(trick, ys):
    """The xi-image of the signed Y letters ys, over the outer oracle's
    alphabet: a plain copy goes to its generator, a barred copy to the
    inverse of its plain copy's."""
    plain = dict(zip(trick.y_plain, trick.oracle.letters))
    out = []
    for y in ys:
        x = plain[abs(y)] if abs(y) in plain else -plain[trick.tau[abs(y)]]
        out.append(x if y > 0 else -x)
    return trick.oracle.alpha.word(out)


def reference_read_block(ltrs, p, exp):
    """Parse one full block A_y^{+-1} at position p: (signed y, next p)."""
    x = ltrs[p]
    y, k = exp.position[abs(x)]
    blk = exp.blocks[y]
    C = exp.C
    if p + C > len(ltrs):
        return None
    if x > 0 and k == 1:
        if all(ltrs[p + j] == blk[j] for j in range(C)):
            return y, p + C
    elif x < 0 and k == C:
        if all(ltrs[p + j] == -blk[C - 1 - j] for j in range(C)):
            return -y, p + C
    return None


def reference_cyclic_d_prefixes(ltrs, exp):
    """Prefixes of ltrs that are cyclic permutations of block words.

    Returns (end, signed y letters) pairs; the y word reads the blocks
    with the split block, if any, rotated to the end.  Every candidate
    has length a positive multiple of C.
    """
    out = []
    n = len(ltrs)
    if not n:
        return out
    C = exp.C
    ys = []
    p = 0
    while p < n:
        got = reference_read_block(ltrs, p, exp)
        if got is None:
            break
        ys.append(got[0])
        p = got[1]
        out.append((p, list(ys)))
    x0 = ltrs[0]
    y, k = exp.position[abs(x0)]
    blk = exp.blocks[y]
    if x0 > 0 and k > 1:
        tail, head, seam = C - k + 1, k - 1, y
        ok = n >= tail and all(ltrs[j] == blk[k - 1 + j] for j in range(tail))
        closes = lambda p: all(ltrs[p + j] == blk[j] for j in range(head))
    elif x0 < 0 and k < C:
        tail, head, seam = k, C - k, -y
        ok = n >= tail and all(ltrs[j] == -blk[k - 1 - j] for j in range(tail))
        closes = lambda p: all(ltrs[p + j] == -blk[C - 1 - j]
                               for j in range(head))
    else:
        return out
    if not ok:
        return out
    ys = []
    p = tail
    while True:
        if p + head <= n and closes(p):
            out.append((p + head, ys + [seam]))
        got = reference_read_block(ltrs, p, exp) if p < n else None
        if got is None:
            return out
        ys.append(got[0])
        p = got[1]


def reference_d_word(w, exp):
    """The Y word w spells blockwise, or None, read one block at a time."""
    ys = []
    p = 0
    while p < len(w.ltrs):
        got = reference_read_block(w.ltrs, p, exp)
        if got is None:
            return None
        ys.append(got[0])
        p = got[1]
    return exp.Y.word(ys)


def reference_wp_RC(w, pipe):
    """wp_RC with the rest after each deletion built by free reduction."""
    from smforge.words import cyclic_reduce

    exp = pipe.exp
    cur = w if w.alpha is exp.YC else pipe.zeta_inv_t(w)
    while True:
        core, _ = cyclic_reduce(cur)
        if not core:
            return True
        ltrs = list(core.ltrs)
        rest = None
        for r in range(len(ltrs)):
            rot = ltrs[r:] + ltrs[:r]
            for end, ys in reference_cyclic_d_prefixes(rot, exp):
                if pipe.oracle.wp(reference_xi(pipe.trick, ys)):
                    rest = rot[end:]
                    break
            if rest is not None:
                break
        if rest is None:
            return False
        cur = exp.YC.word(rest)


def _ring_tables(exp):
    """The block tables on tuples: starts and splits by letter."""
    starts, splits = {}, {}
    for y, blk in exp.blocks.items():
        for s, b in ((y, tuple(blk)), (-y, tuple(-a for a in reversed(blk)))):
            starts[b[0]] = (s, b)
            for k in range(1, exp.C):
                splits[b[k]] = ((s,), b[k:], b[:k])
    return starts, splits


def ring_cyclic_prefixes(ring, n, exp):
    """Prefixes of the rotations of a cyclic word of n letters that are
    cyclic permutations of block words, read on ring, the word written
    twice: (r, end, signed y letters) for ring[r:end], rotation by
    rotation, shortest first, the split block read last."""
    starts, splits = _ring_tables(exp)
    C = exp.C
    for r in range(n):
        stop = r + n
        seam, tail, head = splits.get(ring[r], ((), (), ()))
        p, h = r + len(tail), len(head)
        if p > stop or ring[r:p] != tail:
            continue
        ys = []
        while True:
            if (ys or seam) and p + h <= stop and ring[p:p + h] == head:
                yield r, p + h, tuple(ys) + seam
            got = starts.get(ring[p]) if p + C <= stop else None
            if got is None or ring[p:p + C] != got[1]:
                break
            ys.append(got[0])
            p += C


def ring_wp_RC(w, pipe):
    """wp_RC as a scan of tuple rings: after each deletion the rest is
    rotated to start after the cut, cyclically reduced, written twice and
    scanned again from its first rotation.

    Returns the decision and the deletions in order, each as the rotation
    it was cut from and the length cut.
    """
    exp = pipe.exp
    cur = (w if w.alpha is exp.YC else pipe.zeta_inv_t(w)).ltrs
    cuts = []
    while True:
        i, j = 0, len(cur)
        while j - i >= 2 and cur[i] == -cur[j - 1]:
            i += 1
            j -= 1
        n = j - i
        if not n:
            return True, cuts
        ring = cur[i:j] * 2
        for r, end, ys in ring_cyclic_prefixes(ring, n, exp):
            if pipe.oracle.wp(reference_xi(pipe.trick, ys)):
                cuts.append((ring[r:r + n], end - r))
                cur = ring[end:r + n]
                break
        else:
            return False, cuts
