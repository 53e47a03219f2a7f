"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: quadratic scans, brute-force
searches, literal formula transcriptions. Tests compare the fast library
code against these, never the other way around.
"""

from __future__ import annotations

import os
import random
from typing import List, Optional, Sequence, Tuple

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


# -- rule application, the generic way --------------------------------------
#
# The library compiles each sector into letter tables and rewrites each
# window in one pass.  These are the generic path it replaced: express the
# tape over X, multiply the expression out over Z, reduce the whole word
# once and split it again at its state letters.

def reference_express(sec, w):
    """Expression of w over sec.X through express_in_basis or x_sub."""
    from smforge.words import express_in_basis, expression_word, substitute

    if not sec.X:
        return [] if not w else None
    if sec.x_sub is None:
        return express_in_basis(w, sec.X)
    images = {abs(x): sec.x_sub.get(abs(x), w.alpha.word([abs(x)]))
              for x in w.ltrs}
    u = substitute(w, images, w.alpha)
    zpos = {z.ltrs[0]: j for j, z in enumerate(sec.Z)
            if len(z.ltrs) == 1 and z.ltrs[0] > 0}
    expr = []
    for x in u.ltrs:
        j = zpos.get(abs(x))
        if j is None:
            return None
        expr.append((j, 1 if x > 0 else -1))
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
    for j, (q, _e) in enumerate(W.states):
        expected = rule.parts[hw.part_of(q)].q
        if q != expected:
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
    """Checks sectors only, like the library's theta_length."""
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
    for j, (q, e) in enumerate(W.states):
        rp = rule.parts[hw.part_of(q)]
        rep = list(rp.u.ltrs) + [rp.q2] + list(rp.v.ltrs)
        if e < 0:
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
            states.append((abs(x), 1 if x > 0 else -1))
        else:
            cur.append(x)
    if len(states) != len(W.states):
        raise MachineError("rule %s: state letters cancelled during "
                           "application" % rule.name)
    result = AdmissibleWord(hw, states, tapes, check=False)
    if result.base() != W.base():
        raise MachineError("rule %s: base changed during application"
                           % rule.name)
    return result


def reference_semi_run(machine, w, sector, history):
    """Machine.semi_run with reference_image for each step: every word is
    expressed over X afresh, x_sub words are always read back, and no
    letter sets or positions are carried from step to step."""
    from smforge.smachine import MachineError, StepError

    out = [w]
    for k, (name, s) in enumerate(history):
        try:
            rule = machine.rule(name, s)
            if not 0 <= sector < rule.hw.n_parts:
                raise MachineError("rule %s: no sector %d"
                                   % (rule.name, sector))
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

def reference_step(W, rule, images=None):
    """W . rule by one pass per window, as apply_rule did before step
    plans and shared windows.  Each window's image is reference_image's,
    kept in ``images`` by sector rule and tape word, so that a run can pass
    one dict to all its steps."""
    from smforge.smachine import (AdmissibleWord, MachineError,
                                  _check_states, _join)
    from smforge.words import Word

    _check_states(W, rule)
    alpha = W.hw.alpha
    repl = [rule._replacement[e * q] for q, e in W.states]
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
    states = [(abs(q), 1 if q > 0 else -1) for _, q, _ in repl]
    result = AdmissibleWord(W.hw, states, tapes, check=False)
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


def reference_shift(w, machine, scheme):
    """shift as it was: one run per step while the history is found, the
    last noise spelling only listed, then the whole history replayed."""
    from smforge.machines import (_check_sector1, _decode_rear,
                                  marker_split)
    from smforge.smachine import AdmissibleWord, reduce_history

    _check_sector1(w, scheme)
    q0, q1 = machine.hw.parts[0].start, machine.hw.parts[1].start
    W0 = AdmissibleWord(machine.hw, ((q0, 1), (q1, 1)), (w,))
    W, hist = W0, []
    while True:
        gaps, markers = marker_split(W.tapes[0], scheme)
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
            dec = _decode_rear(tail, a, scheme)
            if dec is None:
                return None
            steps = [(scheme.rule_name(y), e) for y, e in dec]
            steps.append((scheme.rule_name(a), -1))
        for name, s in steps:
            W = reference_run(machine, W, [(name, s)]).final()
        hist += steps
    if reduce_history(hist) != hist:
        return None
    comp = reference_run(machine, W0, hist, trace=False)
    final = comp.final()
    if final.tapes[0] or final.base() != W0.base():
        return None
    return comp


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

    expr = rule.domain_expr(sector, w)
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
        cells.append(Cell(x, z, t_s, t_s, _a_class(pres.machine, sector,
                                                   sec.X[k]),
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
    for j, (q, e) in enumerate(W.states):
        cells.append(reference_state_cell(pres, rule, W.hw.part_of(q), e))
        if j < len(W.tapes):
            cells.extend(reference_sector_cells(pres, rule, W.sectors[j],
                                                W.tapes[j]))
    if sign > 0:
        return cells
    return [Cell(bottom=c.top, top=c.bottom, left=~c.left, right=~c.right,
                 cls=c.cls, rule=c.rule, index=c.index,
                 coordinate=c.coordinate, weight_arg=c.weight_arg)
            for c in cells]


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
        for y, a in scheme.pairs():
            for s in (1, -1):
                if out and out[-1] == (y, a, -s):
                    continue
                if _reference_common_prefix(
                        cur, scheme.noise_word(y, a, s)) >= thresh:
                    hit = (y, a, s)
                    break
            if hit:
                break
        if hit is None:
            return None
        cur = scheme.noise_word(hit[0], hit[1], -hit[2]) * cur
        out.append(hit)
    return out


def reference_lambda1_accept(w, machine, scheme, member):
    """Decode, replay on the bottom machine, then test the final word."""
    from smforge.machines import _erase_steps, b_length, delta, delta_letters
    from smforge.words import free_reduce

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
    words = machine.semi_run(w, 1, hist)
    final = words[-1]
    if b_length(final, scheme) != 0:
        return None
    if not member(delta(final, scheme)):
        return None
    return hist, words


def reference_lambda_accept(w, main, member):
    """reference_lambda1_accept on the bottom machine, then a second
    replay of the lifted history on the main machine."""
    from smforge.smachine import StepError
    from smforge.words import relabel_by_name

    al = main.machine.hw.alpha
    wm = w if w.alpha is al else relabel_by_name(w, al)
    ls = {abs(x) for x in wm.ltrs}
    if ls <= set(main.A):
        return ([], [wm]) if member(main.to_m1(wm)) else None
    if not ls <= set(main.A1) | set(main.B):
        return None
    res = reference_lambda1_accept(main.to_m1(wm), main.m1, main.scheme,
                                   member)
    if res is None:
        return None
    hist1, _ = res
    hist = [("1." + nm, s) for nm, s in hist1]
    hist.append(("s1", -1))
    try:
        words = main.machine.semi_run(wm, main.special_sector, hist)
    except StepError:
        return None
    return hist, words


# -- expanded word problem, reducing after each deletion ----------------------

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
                if pipe.wp_Y(exp.Y.word(ys)):
                    rest = rot[end:]
                    break
            if rest is not None:
                break
        if rest is None:
            return False
        cur = exp.YC.word(rest)
