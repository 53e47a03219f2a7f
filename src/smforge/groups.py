"""Groups read off a generalized S-machine, with band-structured diagrams.

A machine yields a group presentation: its state and tape letters are
joined by one fresh rule letter per (rule, part) pair, each rule part
contributes a relator pushing the rule letter through a state letter,
and each unlocked sector basis element contributes one pushing it
through a tape word.  Adding the accept word as a relator closes the
group; disk relators and tape-word relators extend it further.

Computations then fold into grids of cells: every step becomes a row
(a band), rows stack bottom to top, and the side edges carry the
history.  The diagram builders here produce those grids with exact
bookkeeping of boundary factorizations, areas, weights, and signatures,
and ``diagram_report`` re-checks everything against the presentation.
"""

import json
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from smforge.words import Alphabet, Word, relabel
from smforge.smachine import (AdmissibleWord, Computation, GeneralizedRule,
                              History, Machine, MachineError, apply_rule,
                              reduce_history)
from smforge.towers import _copy_letter
from smforge.mainmachine import MainMachine, accepting_run

RELATOR_CLASSES = ("theta-q", "theta-A", "theta-b", "theta-a",
                   "hub", "disk", "a")
# cells refine theta-q: a state cell sitting on an anchor part is theta-t
CELL_CLASSES = RELATOR_CLASSES + ("theta-t",)


# -- presentations --------------------------------------------------------------

@dataclass
class Relator:
    """One defining relator with its class tag and provenance."""

    word: Word
    cls: str
    rule: Optional[str] = None
    index: Optional[int] = None
    coordinate: Optional[int] = None

    def format(self) -> str:
        return "%s %s" % (self.cls, self.word.format())


@dataclass
class Presentation:
    """A machine's group presentation over a fresh alphabet.

    ``carry`` maps machine letter ids to presentation ids (same names,
    same metadata); ``theta`` maps (rule name, part) to the rule letter
    for that part.  ``level`` is "M" for the plain group and "G" when
    the accept word is added as the closing relator.  ``cells`` holds the
    band cells, made on first use and shared by all bands.
    """

    machine: Machine
    level: str
    alpha: Alphabet
    carry: Dict[int, int]
    theta: Dict[Tuple[str, int], int]
    relators: List[Relator]
    t_parts: FrozenSet[int]
    cells: Dict[tuple, object] = field(default_factory=dict, repr=False,
                                       compare=False)

    def carry_word(self, w: Word) -> Word:
        return relabel(w, self.carry, self.alpha)

    def carry_admissible(self, W: AdmissibleWord) -> Word:
        return self.carry_word(W.to_word())

    def theta_word(self, rule_name: str, index: int, sign: int = 1) -> Word:
        return Word(self.alpha, (sign * self.theta[(rule_name, index)],))

    def by_class(self, cls: str) -> List[Relator]:
        return [r for r in self.relators if r.cls == cls]

    def format(self) -> str:
        return "\n".join(r.format() for r in self.relators)


def t_parts(machine: Machine) -> FrozenSet[int]:
    """Anchor parts: singleton state parts that every rule fixes inertly."""
    out = []
    for i, p in enumerate(machine.hw.parts):
        if len(p.letters) != 1:
            continue
        q = p.letters[0]
        if all(r.parts[i].q == q and r.parts[i].q2 == q
               and not r.parts[i].u and not r.parts[i].v
               for r in machine.rules.values()):
            out.append(i)
    return frozenset(out)


def _a_class(machine: Machine, sector: int, x: Word) -> str:
    """Class tag of the sector relator whose domain element is x."""
    if sector in machine.input_sectors and x:
        src = machine.hw.alpha
        subs = {src.subkind_of(l) for l in x.ltrs}
        if subs == {"A"}:
            return "theta-A"
        if subs == {"b"}:
            return "theta-b"
    return "theta-a"


def emit_presentation(machine: Machine, level: str = "M") -> Presentation:
    """The group presentation of a machine, at level "M" or "G".

    Every positive rule gets one letter per part; part i of a rule
    q -> u q' v relates as q t_{i+1} = t_i u q' v, and each domain
    basis element x of an unlocked sector i relates as x t_i = t_i z.
    Rule letter indices run modulo the part count, so linear machines
    share one letter between their outer columns.  Level "G" appends
    the accept word as a relator.
    """
    if level not in ("M", "G"):
        raise ValueError("level must be M or G, not %r" % (level,))
    hw = machine.hw
    src = hw.alpha
    n = hw.n_parts

    alpha = Alphabet()
    carry = {x: _copy_letter(alpha, src, x) for x in src.ids()}
    theta: Dict[Tuple[str, int], int] = {}
    for name in machine.rules:
        for i in range(n):
            theta[(name, i)] = alpha.intern(
                "%s:%d" % (name, i), kind="t", part=i,
                coord=src.coord_of(hw.parts[i].start))

    def cw(w: Word) -> Tuple[int, ...]:
        return relabel(w, carry, alpha).ltrs

    relators: List[Relator] = []
    for name, rule in machine.rules.items():
        for i, rp in enumerate(rule.parts):
            t_here, t_next = theta[(name, i)], theta[(name, (i + 1) % n)]
            ltrs = ((carry[rp.q], t_next) + cw(~rp.v)
                    + (-carry[rp.q2],) + cw(~rp.u) + (-t_here,))
            relators.append(Relator(alpha.word(ltrs), "theta-q", rule=name,
                                    index=i, coordinate=src.coord_of(rp.q)))
    for name, rule in machine.rules.items():
        for s in hw.sector_indices():
            sec = rule.sectors[s]
            if sec is None:
                continue
            t_s = theta[(name, s)]
            coord = src.coord_of(hw.parts[s].start)
            for x, z in zip(sec.X, sec.Z):
                ltrs = (-t_s,) + cw(x) + (t_s,) + cw(~z)
                relators.append(Relator(alpha.word(ltrs),
                                        _a_class(machine, s, x),
                                        rule=name, index=s, coordinate=coord))
    if level == "G":
        w_ac = relabel(machine.accept_config().to_word(), carry, alpha)
        relators.append(Relator(w_ac, "hub"))
    return Presentation(machine, level, alpha, carry, theta, relators,
                        t_parts(machine))


# -- cells and grids -------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One cell: four boundary words and the class of its relator.

    The contour reads down the left edge, along the bottom, up the
    right edge, and back along the top.  Bands share cells, so a cell
    never changes once made.
    """

    bottom: Word
    top: Word
    left: Word
    right: Word
    cls: str
    rule: Optional[str] = None
    index: Optional[int] = None
    coordinate: Optional[int] = None
    weight_arg: Optional[int] = None

    @property
    def contour(self) -> Word:
        return _word_product((~self.left, self.bottom, self.right, ~self.top),
                             self.left.alpha)


@dataclass
class Row:
    """One band: its cells in order plus the four boundary labels."""

    cells: List[Cell]
    bottom: Word
    top: Word
    left: Word
    right: Word

    @property
    def area(self) -> int:
        return len(self.cells)


@dataclass
class GridDiagram:
    """Rows of cells stacked bottom to top.

    The contour factors as left^-1 bottom right top^-1.  ``glue`` set
    to "sides" marks the two side labels as identified, which turns
    the grid into an annulus read along its bottom label.
    """

    kind: str
    alpha: Alphabet
    rows: List[Row]
    bottom: Word
    top: Word
    left: Word
    right: Word
    history: History = field(default_factory=list)
    glue: Optional[str] = None

    @property
    def area(self) -> int:
        return sum(len(r.cells) for r in self.rows)


def _word_product(ws: Sequence[Word], alpha: Alphabet) -> Word:
    """The product of the words, reduced once."""
    if any(w.alpha is not alpha for w in ws):
        raise ValueError("words over different alphabets")
    return alpha.word(x for w in ws for x in w.ltrs)


def _both(c: Cell) -> Tuple[Cell, Cell]:
    """c, and c turned upside down for the bands of the inverse rule."""
    return c, replace(c, bottom=c.top, top=c.bottom, left=~c.left,
                      right=~c.right)


def _state_cell(pres: Presentation, rule: GeneralizedRule, part: int,
                eps: int) -> Tuple[Cell, Cell]:
    """The shared state cell of the rule's part read with sign eps."""
    key = (rule.name, part, eps)
    if key in pres.cells:
        return pres.cells[key]
    hw = pres.machine.hw
    rp = rule.parts[part]
    t_here = pres.theta_word(rule.name, part)
    t_next = pres.theta_word(rule.name, (part + 1) % hw.n_parts)
    al = pres.alpha
    bottom = al.word((eps * pres.carry[rp.q],))
    top = al.word(pres.carry_word(rp.u).ltrs + (pres.carry[rp.q2],)
                  + pres.carry_word(rp.v).ltrs)
    if eps < 0:
        top = ~top
        t_here, t_next = t_next, t_here
    cls = "theta-t" if part in pres.t_parts else "theta-q"
    pres.cells[key] = _both(Cell(bottom, top, t_here, t_next, cls,
                                 rule=rule.name, index=part,
                                 coordinate=hw.alpha.coord_of(rp.q)))
    return pres.cells[key]


def _sector_table(pres: Presentation, rule: GeneralizedRule, sector: int
                  ) -> Dict[Tuple[int, int], Tuple[Cell, Cell]]:
    """The shared sector cells of the rule by (basis index, sign)."""
    key = (rule.name, sector)
    if key in pres.cells:
        return pres.cells[key]
    sec = rule.sectors[sector]
    t_s = pres.theta_word(rule.name, sector)
    coord = pres.machine.hw.alpha.coord_of(
        pres.machine.hw.parts[sector].start)
    table = pres.cells[key] = {}
    for k, (x, z) in enumerate(zip(sec.X, sec.Z)):
        cls = _a_class(pres.machine, sector, x)
        x, z = pres.carry_word(x), pres.carry_word(z)
        for sgn in (1, -1):
            table[(k, sgn)] = _both(Cell(x, z, t_s, t_s, cls, rule=rule.name,
                                         index=sector, coordinate=coord))
            x, z = ~x, ~z
    return table


def _sector_cells(pres: Presentation, rule: GeneralizedRule, sector: int,
                  w: Word, flip: int) -> List[Cell]:
    expr = rule.domain_expr(sector, w)
    if expr is None:
        raise MachineError("rule %s does not read %s in sector %d"
                           % (rule.name, w.format(), sector))
    table = _sector_table(pres, rule, sector) if expr else {}
    return [table[e][flip] for e in expr]


def _band(pres: Presentation, W: AdmissibleWord, bottom: Word, name: str,
          sign: int) -> Tuple[Row, AdmissibleWord]:
    """The band of (name, sign) over W, whose carried label is bottom, plus
    W . rule^sign.  A negative band is the positive band over W . rule^-1
    turned upside down; only the new configuration is carried."""
    machine, rule = pres.machine, pres.machine.rule(name)
    top_adm = apply_rule(W, machine.rule(name, sign))
    top = pres.carry_admissible(top_adm)
    flip = 1 if sign < 0 else 0
    lo, hi = (top_adm, bottom) if flip else (W, top)
    if flip:
        back = apply_rule(top_adm, rule)
        if back != W:
            hi = pres.carry_admissible(back)
    cells: List[Cell] = []
    for j, (q, e) in enumerate(lo.states):
        cells.append(_state_cell(pres, rule, machine.hw.part_of(q), e)[flip])
        if j < len(lo.tapes):
            cells.extend(_sector_cells(pres, rule, lo.sectors[j], lo.tapes[j],
                                       flip))
    if _word_product([c.bottom if flip else c.top for c in cells],
                     pres.alpha) != hi:
        raise MachineError("rule %s drops an insert beside the boundary; "
                           "the band would not close" % rule.name)
    if flip and back != W:
        raise MachineError("rule %s does not invert cleanly on %s"
                           % (name, W.format()))
    return Row(cells, bottom, top, cells[0].left, cells[-1].right), top_adm


def _check_reduced(history: History) -> None:
    if reduce_history(history) != list(history):
        raise ValueError("history is not reduced")


def build_trapezium(pres: Presentation, comp: Computation) -> GridDiagram:
    """The grid of a full computation: one rule band per step.

    The bands replay the history from the first configuration, so an
    endpoint-only computation will do; the replay must end at the given
    final configuration.  The area never exceeds the step count times the
    longest configuration.
    """
    _check_reduced(comp.history)
    rows: List[Row] = []
    cur = comp.words[0]
    bottom = top = pres.carry_admissible(cur)
    longest = cur.size()
    for name, s in comp.history:
        row, cur = _band(pres, cur, top, name, s)
        rows.append(row)
        top = row.top
        longest = max(longest, cur.size())
    if cur != comp.final():
        raise MachineError("replay disagrees with the given computation")
    al = pres.alpha
    d = GridDiagram("trapezium", al, rows, bottom=bottom, top=top,
                    left=_word_product([r.left for r in rows], al),
                    right=_word_product([r.right for r in rows], al),
                    history=list(comp.history))
    bound = len(comp.history) * longest
    if d.area > bound:
        raise MachineError("trapezium area %d exceeds its bound %d"
                           % (d.area, bound))
    return d


# -- disks -----------------------------------------------------------------------

def component_norm(W: AdmissibleWord, main: MainMachine, i: int = 2) -> int:
    """Length of coordinate i's slice of a configuration: its state
    letters plus its tape content."""
    if not 1 <= i <= main.L:
        raise ValueError("coordinate %d out of range" % i)
    if not W.is_configuration():
        raise MachineError("component norms need a full configuration")
    P = main.P
    return P + sum(len(W.tapes[j]) for j in range((i - 1) * P, i * P - 1))


def build_disk_diagram(W: AdmissibleWord, main: MainMachine,
                       pres: Presentation,
                       wf: Optional["WeightFunctions"] = None) -> GridDiagram:
    """Accepting trapezium with its sides glued and one hub on top.

    The grid records the gluing symbolically: the side labels are
    identical history copies and ``glue`` marks them as one seam, so
    the boundary reduces to the bottom label W.  When weight functions
    are given, the area is checked against f of the second coordinate
    norm.
    """
    res = accepting_run(W, main)
    if res is None:
        raise MachineError("configuration is not accepted")
    comp = res[0]
    trap = build_trapezium(pres, comp)
    if trap.left != trap.right:
        raise MachineError("side labels disagree; cannot glue")
    acc = main.machine.accept_config()
    empty = pres.alpha.word()
    hub = Cell(bottom=pres.carry_admissible(acc), top=empty, left=empty,
               right=empty, cls="hub",
               weight_arg=component_norm(acc, main))
    rows = trap.rows + [Row([hub], hub.bottom, empty, empty, empty)]
    d = GridDiagram("disk", pres.alpha, rows, bottom=trap.bottom, top=empty,
                    left=trap.left, right=trap.right,
                    history=list(comp.history), glue="sides")
    if wf is not None and not wf.ge("f", component_norm(W, main), d.area):
        raise MachineError("disk area %d exceeds its weight bound" % d.area)
    return d


# -- weights ---------------------------------------------------------------------

@dataclass
class WeightFunctions:
    """The weight scale: exact big-integer, monotone, superadditive.

    Values explode fast, so exact evaluation refuses results beyond
    ``max_digits`` decimal digits; ``ge`` decides comparisons against
    such values anyway, by saturating every intermediate at the bound.
    """

    c0: int
    c1: int
    L: int
    K: int
    tm: Callable[[int], int]
    max_digits: int = 200_000
    _memo: Dict[Tuple[str, int], int] = field(default_factory=dict,
                                              repr=False)

    def _tm(self, n: int) -> int:
        v = self.tm(n)
        if not isinstance(v, int) or v < 0:
            raise ValueError("time bound must be a nonnegative integer")
        return v

    def _pow(self, base: int, exp: int, cap: Optional[int]) -> int:
        if cap is not None:
            if base > 1 and exp > cap.bit_length():
                return cap
            return min(base ** exp, cap)
        if base > 1 and exp * base.bit_length() > 4 * self.max_digits:
            raise ValueError("value needs more than %d digits; use ge() "
                             "for comparisons" % self.max_digits)
        return base ** exp

    def _chi(self, n: int, cap: Optional[int]) -> int:
        v = n * self._pow(self.c0, n, cap)
        return v if cap is None else min(v, cap)

    def _h(self, n: int, cap: Optional[int]) -> int:
        v = (self.c0 * self._tm(self.c0 * n) ** 3
             + n * self._pow(self.c0, n, cap) + self.c0 * n + self.L)
        return v if cap is None else min(v, cap)

    def _f(self, n: int, cap: Optional[int]) -> int:
        v = self.c1 * self._chi(self._h(n, cap), cap)
        return v if cap is None else min(v, cap)

    def _g(self, n: int, cap: Optional[int]) -> int:
        v = self.c0 * n ** 3 + n * self._f(self.c0 * n, cap)
        return v if cap is None else min(v, cap)

    def _dehn(self, n: int, cap: Optional[int]) -> int:
        if n == 0:
            return 0
        v = n * (self.K * n ** 12 + self._g(self.K * n ** 9, cap)
                 + self._f(self.K * n ** 3, cap))
        return v if cap is None else min(v, cap)

    def _eval(self, fn: str, n: int, cap: Optional[int]) -> int:
        if n < 0:
            raise ValueError("weight functions take nonnegative arguments")
        if cap is None and (fn, n) in self._memo:
            return self._memo[(fn, n)]
        v = {"chi": self._chi, "h": self._h, "f": self._f, "g": self._g,
             "dehn_bound": self._dehn}[fn](n, cap)
        if cap is None:
            self._memo[(fn, n)] = v
        return v

    def chi(self, n: int) -> int:
        return self._eval("chi", n, None)

    def h(self, n: int) -> int:
        return self._eval("h", n, None)

    def f(self, n: int) -> int:
        return self._eval("f", n, None)

    def g(self, n: int) -> int:
        return self._eval("g", n, None)

    def dehn_bound(self, n: int) -> int:
        return self._eval("dehn_bound", n, None)

    def ge(self, fn: str, n: int, m: int) -> bool:
        """Exact decision of fn(n) >= m without materializing fn(n).

        Every stage of every function maps values >= m to values >= m,
        so saturating intermediates at m keeps the comparison faithful.
        """
        if m <= 0:
            return True
        return self._eval(fn, n, m) >= m


def diagram_signature(d: GridDiagram) -> Tuple[int, int, int, int]:
    """Cell class counts: disks, anchor-part cells, tape-word cells,
    marked-letter cells."""
    sig = [0, 0, 0, 0]
    for row in d.rows:
        for c in row.cells:
            if c.cls in ("hub", "disk"):
                sig[0] += 1
            elif c.cls == "theta-t":
                sig[1] += 1
            elif c.cls == "a":
                sig[2] += 1
            elif c.cls == "theta-A":
                sig[3] += 1
    return tuple(sig)


# -- verification ----------------------------------------------------------------

def _rotation_set(relators: Sequence[Relator]) -> set:
    rots = set()
    for r in relators:
        for w in (r.word, ~r.word):
            t = w.ltrs
            for k in range(len(t)):
                rots.add(t[k:] + t[:k])
    return rots


def _split_side(d: GridDiagram, w: Word) -> Optional[Tuple[Word, Word]]:
    """(below, above) around the single rule letter, or None if malformed."""
    hits = [k for k, x in enumerate(w.ltrs) if d.alpha.kind_of(x) == "t"]
    if len(hits) != 1:
        return None
    return w[:hits[0]], w[hits[0] + 1:]


def diagram_report(d: GridDiagram,
                   relators: Union[Presentation, Sequence[Relator]]
                   ) -> List[str]:
    """Everything wrong with the diagram, as one message per defect."""
    if isinstance(relators, Presentation):
        relators = relators.relators
    rots = _rotation_set(relators)
    out: List[str] = []
    al = d.alpha
    # bands share cells: check each distinct cell once, report every place
    matched: Dict[int, bool] = {}
    for i, row in enumerate(d.rows):
        for j, c in enumerate(row.cells):
            ok = matched.get(id(c))
            if ok is None:
                ok = matched[id(c)] = c.contour.ltrs in rots
            if not ok:
                out.append("row %d cell %d: boundary %s matches no relator"
                           % (i, j, c.contour.format()))
        if any(c.cls.startswith("theta") for c in row.cells):
            for j in range(len(row.cells) - 1):
                if row.cells[j].right != row.cells[j + 1].left:
                    out.append("row %d: cells %d and %d do not share an edge"
                               % (i, j, j + 1))
            sl, sr = _split_side(d, row.left), _split_side(d, row.right)
            if sl is None or sr is None:
                out.append("row %d: side labels lack the rule letter" % i)
            else:
                bots = _word_product([c.bottom for c in row.cells], al)
                tops = _word_product([c.top for c in row.cells], al)
                if bots != ~sl[0] * row.bottom * sr[0]:
                    out.append("row %d: bottoms read %s, label says %s"
                               % (i, bots.format(), row.bottom.format()))
                if tops != sl[1] * row.top * ~sr[1]:
                    out.append("row %d: tops read %s, label says %s"
                               % (i, tops.format(), row.top.format()))
        else:
            if _word_product([c.bottom for c in row.cells], al) != row.bottom:
                out.append("row %d: bottoms disagree with the label" % i)
            if _word_product([c.top for c in row.cells], al) != row.top:
                out.append("row %d: tops disagree with the label" % i)
            if row.left or row.right:
                out.append("row %d: stray side labels" % i)
    for i in range(len(d.rows) - 1):
        if d.rows[i].top != d.rows[i + 1].bottom:
            out.append("rows %d/%d: top and bottom labels differ"
                       % (i, i + 1))
    if d.rows:
        if d.bottom != d.rows[0].bottom:
            out.append("diagram bottom disagrees with the first row")
        if d.top != d.rows[-1].top:
            out.append("diagram top disagrees with the last row")
    if d.left != _word_product([r.left for r in d.rows], al):
        out.append("diagram left side disagrees with the rows")
    if d.right != _word_product([r.right for r in d.rows], al):
        out.append("diagram right side disagrees with the rows")
    if d.glue == "sides" and d.left != d.right:
        out.append("glued sides carry different labels")
    return out


# -- serialization ---------------------------------------------------------------

def _cell_obj(c: Cell) -> dict:
    return {"bottom": c.bottom.format(), "top": c.top.format(),
            "left": c.left.format(), "right": c.right.format(),
            "cls": c.cls, "rule": c.rule, "index": c.index,
            "coordinate": c.coordinate, "weight_arg": c.weight_arg}


def diagram_to_json(d: GridDiagram) -> str:
    obj = {"kind": d.kind, "glue": d.glue,
           "history": [[n, s] for n, s in d.history],
           "bottom": d.bottom.format(), "top": d.top.format(),
           "left": d.left.format(), "right": d.right.format(),
           "rows": [{"bottom": r.bottom.format(), "top": r.top.format(),
                     "left": r.left.format(), "right": r.right.format(),
                     "cells": [_cell_obj(c) for c in r.cells]}
                    for r in d.rows]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def diagram_from_json(alpha: Alphabet, text: str) -> GridDiagram:
    obj = json.loads(text)
    p = alpha.parse

    def cell(co: dict) -> Cell:
        return Cell(p(co["bottom"]), p(co["top"]), p(co["left"]),
                    p(co["right"]), co["cls"], rule=co["rule"],
                    index=co["index"], coordinate=co["coordinate"],
                    weight_arg=co["weight_arg"])

    rows = [Row([cell(co) for co in ro["cells"]], p(ro["bottom"]),
                p(ro["top"]), p(ro["left"]), p(ro["right"]))
            for ro in obj["rows"]]
    return GridDiagram(obj["kind"], alpha, rows, p(obj["bottom"]),
                       p(obj["top"]), p(obj["left"]), p(obj["right"]),
                       history=[(n, s) for n, s in obj["history"]],
                       glue=obj["glue"])


def diagram_to_dot(d: GridDiagram) -> str:
    """A rendering of the grid: one node per cell, ranked by row."""
    lines = ["digraph grid {", "  rankdir=BT;", "  node [shape=box];"]
    for i, row in enumerate(d.rows):
        names = []
        for j, c in enumerate(row.cells):
            name = "c%d_%d" % (i, j)
            names.append(name)
            label = "%s|%s" % (c.cls, c.bottom.format())
            lines.append('  %s [label="%s"];' % (name, label.replace('"',
                                                                     "'")))
        lines.append("  { rank=same; %s }" % "; ".join(names)
                     if names else "")
        for a, b in zip(names, names[1:]):
            lines.append("  %s -> %s [style=dashed, arrowhead=none];"
                         % (a, b))
        if i:
            prev = "c%d_0" % (i - 1)
            if d.rows[i - 1].cells and names:
                lines.append("  %s -> %s;" % (prev, names[0]))
    lines.append("}")
    return "\n".join(l for l in lines if l)
