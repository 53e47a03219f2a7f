"""Groups read off a generalized S-machine, with band-structured diagrams.

A machine yields a group presentation: its state and tape letters, which
keep their machine ids, are joined by one fresh rule letter per (rule,
part) pair, each rule part contributes a relator pushing the rule letter
through a state letter, and each unlocked sector basis element
contributes one pushing it through a tape word.  Adding the accept word
as a relator closes the group.

Computations then fold into grids of cells: every step becomes a row (a
band) with a cell per state and tape letter of the configuration the
rule reads, rows stack bottom to top, and the side edges carry the
history.  A band maps each tape letter to its cell through a plan shared
by all bands of a rule, state letters and sign.  A grid stores its cells
and its bottom label and reads every other label off the cells.
``diagram_report`` re-checks the cells against the presentation and the
rows against each other, reading each distinct cell once (its alphabet,
its contour's rotations against the relator words, its letters and its
side labels, numbered).  Labels that must agree are matched letter by
letter, and reduced only where they do not match, so a sound diagram has
no band top reduced.  The JSON form keeps every label for its readers,
and ``diagram_from_json`` checks each against the cells it parses.
"""

import json
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice
from operator import add, attrgetter, neg
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from smforge.words import Alphabet, Word, free_reduce, reduces_to
from smforge.smachine import (AdmissibleWord, Computation, GeneralizedRule,
                              BasisShapeError, History, Machine,
                              MachineError, SectorMismatchError, StepError,
                              _LOCKED, apply_rule, reduce_history)
from smforge.towers import _copy_letter
from smforge.mainmachine import MainMachine, accepting_run


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

    Its alphabet holds the machine's letters first, in id order, so each
    keeps its id, name and metadata and a machine word reads in the group
    as it stands; the rule letters follow, and ``theta`` maps (rule name,
    part) to the letter for that part.  ``level`` is "M" for the plain
    group and "G" when the accept word is added as the closing relator.
    ``cells`` holds what bands share, made on first use: the cells, and a
    plan per (rule, state letters, sign).  :meth:`rotation_set` holds the
    relator words and their inverses, made again when the words change,
    and ``inputs`` the machine's input sectors as a set.
    """

    machine: Machine
    level: str
    alpha: Alphabet
    theta: Dict[Tuple[str, int], int]
    relators: List[Relator]
    t_parts: FrozenSet[int]
    cells: Dict[tuple, object] = field(default_factory=dict, repr=False,
                                       compare=False)
    _rotations: Optional[Tuple[tuple, Set[tuple]]] = field(
        default=None, init=False, repr=False, compare=False)
    inputs: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.inputs = frozenset(self.machine.input_sectors)

    def carry_admissible(self, W: AdmissibleWord) -> Word:
        return Word(self.alpha, W.to_word().ltrs)

    def theta_word(self, rule_name: str, index: int, sign: int = 1) -> Word:
        return Word(self.alpha, (sign * self.theta[(rule_name, index)],))

    def rotation_set(self) -> Set[tuple]:
        """Every relator word and its inverse, as letter tuples: a word is
        a rotation of one of them exactly when one of its own rotations is
        in the set."""
        key = tuple(map(attrgetter("word.ltrs"), self.relators))
        if self._rotations is None or key != self._rotations[0]:
            self._rotations = (key, set(key).union(
                tuple(-x for x in reversed(t)) for t in key))
        return self._rotations[1]

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


def _a_class(pres: "Presentation", sector: int, x: Word) -> str:
    """Class tag of the sector relator of x, read off the set ``inputs``."""
    if sector in pres.inputs and x:
        subs = {pres.machine.hw.alpha.subkind_of(l) for l in x.ltrs}
        if subs in ({"A"}, {"b"}):
            return "theta-" + subs.pop()
    return "theta-a"


def emit_presentation(machine: Machine, level: str = "M") -> Presentation:
    """The group presentation of a machine, at level "M" or "G".

    Every positive rule gets one letter per part; part i of a rule
    q -> u q' v relates as q t_{i+1} = t_i u q' v, and each domain
    basis element x of an unlocked sector i relates as x t_i = t_i z.
    Rule letter indices run modulo the part count, so linear machines
    share one letter between their outer columns.  Level "G" appends
    the accept word as a relator.  Ring copies share their inserts and
    rules their sector rules, so each distinct insert and Z entry is
    inverted once.
    """
    if level not in ("M", "G"):
        raise ValueError("level must be M or G, not %r" % (level,))
    hw = machine.hw
    src = hw.alpha
    n = hw.n_parts

    alpha = Alphabet()
    for x in src.ids():
        _copy_letter(alpha, src, x)
    theta: Dict[Tuple[str, int], int] = {}
    for name in machine.rules:
        for i in range(n):
            theta[(name, i)] = alpha.intern(
                "%s:%d" % (name, i), kind="t",
                coord=src.coord_of(hw.parts[i].start))

    relators: List[Relator] = []
    pres = Presentation(machine, level, alpha, theta, relators,
                        t_parts(machine))
    inverted: Dict[int, Tuple[int, ...]] = {}

    def inv(w: Word) -> Tuple[int, ...]:
        """The letters of w^-1, read once per distinct word: ring copies
        share their inserts, and rules their sector rules' Z."""
        got = inverted.get(id(w))
        if got is None:
            got = inverted[id(w)] = tuple(map(neg, reversed(w.ltrs)))
        return got

    for name, rule in machine.rules.items():
        for i, rp in enumerate(rule.parts):
            t_here, t_next = theta[(name, i)], theta[(name, (i + 1) % n)]
            ltrs = ((rp.q, t_next) + inv(rp.v)
                    + (-rp.q2,) + inv(rp.u) + (-t_here,))
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
                ltrs = (-t_s,) + x.ltrs + (t_s,) + inv(z)
                relators.append(Relator(alpha.word(ltrs),
                                        _a_class(pres, s, x),
                                        rule=name, index=s, coordinate=coord))
    if level == "G":
        w_ac = Word(alpha, machine.accept_config().to_word().ltrs)
        relators.append(Relator(w_ac, "hub"))
    return pres


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
    """One band: its cells in order, which its labels are read off.

    The bottom and top are the reduced products of the cells' bottoms
    and tops, the sides the first cell's left and the last cell's right
    edge; each is computed on use and never stored."""

    cells: List[Cell]

    @property
    def bottom(self) -> Word:
        return _word_product([c.bottom for c in self.cells], self.left.alpha)

    @property
    def top(self) -> Word:
        return _word_product([c.top for c in self.cells], self.left.alpha)

    @property
    def left(self) -> Word:
        return self.cells[0].left

    @property
    def right(self) -> Word:
        return self.cells[-1].right


@dataclass
class GridDiagram:
    """Rows of cells stacked bottom to top.

    The contour factors as left^-1 bottom right top^-1.  Only ``bottom``
    is stored, as a computation with no steps has no row to read it off;
    the top and the sides are read off the rows.  ``glue`` set to "sides"
    marks the two side labels as identified, which turns the grid into
    an annulus read along its bottom label.
    """

    kind: str
    alpha: Alphabet
    rows: List[Row]
    bottom: Word
    history: History = field(default_factory=list)
    glue: Optional[str] = None

    @property
    def top(self) -> Word:
        last = next((r for r in reversed(self.rows) if r.cells), None)
        return self.bottom if last is None else last.top

    @property
    def left(self) -> Word:
        return _word_product([r.left for r in self.rows if r.cells],
                             self.alpha)

    @property
    def right(self) -> Word:
        return _word_product([r.right for r in self.rows if r.cells],
                             self.alpha)

    @property
    def area(self) -> int:
        return sum(len(r.cells) for r in self.rows)


_ALPHA, _LTRS, _BOTTOM_LTRS, _TOP_LTRS = map(
    attrgetter, ("alpha", "ltrs", "bottom.ltrs", "top.ltrs"))


def _word_product(ws: Sequence[Word], alpha: Alphabet) -> Word:
    """The product of the words, reduced once."""
    if not {alpha}.issuperset(map(_ALPHA, ws)):
        raise ValueError("words over different alphabets")
    return alpha.word(chain.from_iterable(map(_LTRS, ws)))


def _both(c: Cell) -> Tuple[Cell, Cell]:
    """c, and c turned upside down for the bands of the inverse rule."""
    return c, Cell(c.top, c.bottom, ~c.left, ~c.right, c.cls, c.rule,
                   c.index, c.coordinate, c.weight_arg)


def _state_cell(pres: Presentation, rule: GeneralizedRule,
                q: int) -> Tuple[Cell, Cell]:
    """The shared state cell of the rule at the signed state letter q:
    theta-t on an anchor part, theta-q elsewhere."""
    key = ("state", rule.name, q)
    if key in pres.cells:
        return pres.cells[key]
    hw = pres.machine.hw
    part = hw.part_of(q)
    rp = rule.parts[part]
    t_here = pres.theta_word(rule.name, part)
    t_next = pres.theta_word(rule.name, (part + 1) % hw.n_parts)
    al = pres.alpha
    bottom = al.word((rp.q,))
    top = al.word(rp.u.ltrs + (rp.q2,) + rp.v.ltrs)
    if q < 0:
        bottom, top = ~bottom, ~top
        t_here, t_next = t_next, t_here
    cls = "theta-t" if part in pres.t_parts else "theta-q"
    pres.cells[key] = _both(Cell(bottom, top, t_here, t_next, cls,
                                 rule=rule.name, index=part,
                                 coordinate=hw.alpha.coord_of(rp.q)))
    return pres.cells[key]


def _sector_cells(pres: Presentation, rule: GeneralizedRule, sector: int,
                  flip: int) -> Dict[int, Cell]:
    """The shared sector cells of the rule by signed X letter, turned
    upside down when ``flip`` is 1.  A locked sector has none.  A band
    reads its tape letter by letter, so an X entry of more than one letter
    (an inverted sector rule's p y' s, which built machines have on
    inverse rules only) raises BasisShapeError naming the rule and the
    sector."""
    key = ("sector", rule.name, sector)
    if key not in pres.cells:
        sec = rule.sectors[sector] or _LOCKED
        if any(len(x.ltrs) != 1 for x in sec.X):
            raise BasisShapeError("rule %s sector %d: a band needs X "
                                  "entries of one letter" % (rule.name, sector))
        t_s = pres.theta_word(rule.name, sector)
        coord = pres.machine.hw.alpha.coord_of(
            pres.machine.hw.parts[sector].start)
        tables: Tuple[dict, dict] = ({}, {})
        for x, z in zip(sec.X, sec.Z):
            cls = _a_class(pres, sector, x)
            y = x.ltrs[0]
            x, z = Word(pres.alpha, x.ltrs), Word(pres.alpha, z.ltrs)
            for sgn in (1, -1):
                cell = Cell(x, z, t_s, t_s, cls, rule=rule.name,
                            index=sector, coordinate=coord)
                for table, c in zip(tables, _both(cell)):
                    table[sgn * y] = c
                x, z = ~x, ~z
        pres.cells[key] = tables
    return pres.cells[key][flip]


def _row_cells(states: List[Cell], tables: List[dict], keys) -> List[Cell]:
    """The state cells with, between each two, a window's cells by key."""
    cells: List[Cell] = []
    for cell, table, ks in zip(states, tables, keys):
        cells.append(cell)
        cells.extend(map(table.__getitem__, ks))
    cells.append(states[-1])
    return cells


def _band(pres: Presentation, W: AdmissibleWord, V: AdmissibleWord,
          name: str, sign: int) -> Row:
    """The band of (name, sign) from W to V = W . rule^sign.  A negative
    band is the positive band over V turned upside down, so its flipped
    cells must multiply out to W: their product keeps the inserts beside
    the boundary, and matches W only when V . rule = W.  A plan per (rule,
    state letters, sign) holds the state cells and each window's cells by
    signed X letter; the first tape with a letter outside its window's
    table raises SectorMismatchError, locked or outside the domain."""
    rule = pres.machine.rule(name)
    flip = 1 if sign < 0 else 0
    lo, hi = (V, W) if flip else (W, V)
    key = ("plan", name, lo.states, flip)
    if key not in pres.cells:
        pres.cells[key] = (
            [_state_cell(pres, rule, q)[flip] for q in lo.states],
            [_sector_cells(pres, rule, s, flip) for s in lo.sectors])
    states, tables = pres.cells[key]
    try:
        cells = _row_cells(states, tables, map(_LTRS, lo.tapes))
    except KeyError:
        s, w = next((s, w) for s, w, t in zip(lo.sectors, lo.tapes, tables)
                    if not all(map(t.__contains__, w.ltrs)))
        raise SectorMismatchError(s, w, rule.locks(s)) from None
    if not reduces_to(tuple(chain.from_iterable(map(
            _BOTTOM_LTRS if flip else _TOP_LTRS, cells))), hi.to_word().ltrs):
        raise MachineError("rule %s drops an insert beside the boundary; "
                           "the band would not close" % rule.name)
    return Row(cells)


def _config_length(W: AdmissibleWord) -> int:
    return len(W.states) + sum(len(t) for t in W.tapes)


def build_trapezium(pres: Presentation, comp: Computation) -> GridDiagram:
    """The grid of a full computation: one rule band per step.

    The bands replay the history from the first configuration, one
    ``apply_rule`` per step, so an endpoint-only computation will do; the
    replay must end at the given final configuration, and a step that does
    not apply raises StepError with its index.  The area never exceeds the
    step count times the longest configuration.
    """
    if reduce_history(comp.history) != list(comp.history):
        raise ValueError("history is not reduced")
    rows: List[Row] = []
    cur = comp.words[0]
    longest = _config_length(cur)
    for k, (name, s) in enumerate(comp.history):
        try:
            nxt = apply_rule(cur, pres.machine.rule(name, s))
        except MachineError as e:
            raise StepError(k, e) from e
        rows.append(_band(pres, cur, nxt, name, s))
        cur = nxt
        longest = max(longest, _config_length(cur))
    if cur != comp.final():
        raise MachineError("replay disagrees with the given computation")
    d = GridDiagram("trapezium", pres.alpha, rows,
                    bottom=pres.carry_admissible(comp.words[0]),
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
    d = GridDiagram("disk", pres.alpha, trap.rows + [Row([hub])],
                    bottom=trap.bottom, history=trap.history, glue="sides")
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

    def _fun(self, fn: str, n: int) -> Callable[[int, Optional[int]], int]:
        """The weight function named fn, once fn and n are checked."""
        funs = {"chi": self._chi, "h": self._h, "f": self._f, "g": self._g,
                "dehn_bound": self._dehn}
        if fn not in funs:
            raise ValueError("unknown weight function %r; the weight "
                             "functions are %s" % (fn, ", ".join(funs)))
        if n < 0:
            raise ValueError("weight functions take nonnegative arguments")
        return funs[fn]

    def _eval(self, fn: str, n: int, cap: Optional[int]) -> int:
        if cap is None and (fn, n) in self._memo:
            return self._memo[(fn, n)]
        v = self._fun(fn, n)(n, cap)
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
        self._fun(fn, n)
        if m <= 0:
            return True
        return self._eval(fn, n, m) >= m


# -- verification ----------------------------------------------------------------

def diagram_report(d: GridDiagram, pres: Presentation) -> List[str]:
    """Everything wrong with the diagram, as one message per defect.

    Bands share their cells, so each distinct cell (by identity) is read
    once, in the row where it first sits: its four words must lie over
    one alphabet (else ValueError), one of its contour's rotations must be
    a relator or a relator's inverse, and its bottom and top letters and a
    number for each side label (equal labels, equal numbers) are kept.

    Each place is then checked from what was kept.  A row with no cells
    is named, and the rows on either side are compared with each other.
    A cell whose contour matches no relator is named at every place it
    sits.  The edge check compares, row by row, the number of each cell's
    right label with that of its right neighbour's left label.  A row's
    bottom, its cells' bottom letters joined, is matched against the
    letters of the top below (see ``reduces_to``); the two are reduced
    only when they do not match, so each row's top is reduced at most
    once.
    """
    rots = pres.rotation_set()
    out: List[str] = []
    # what each distinct cell, by id, gives the checks of its places
    bad: Dict[int, str] = {}  # contours that match no relator, formatted
    theta: Dict[int, bool] = {}
    lefts: Dict[int, int] = {}
    rights: Dict[int, int] = {}
    bottoms: Dict[int, Tuple[int, ...]] = {}
    tops: Dict[int, Tuple[int, ...]] = {}
    alphas: Dict[int, Alphabet] = {}
    labels: Dict[Word, int] = {}
    seen: Set[Alphabet] = set()
    below, below_alpha, last = d.bottom.ltrs, d.bottom.alpha, None
    reduced = 0 not in map(add, below, islice(below, 1, None))
    for i, row in enumerate(d.rows):
        if not row.cells:
            out.append("row %d holds no cells" % i)
            continue
        ids = list(map(id, row.cells))
        try:
            bottom = tuple(chain.from_iterable(map(bottoms.__getitem__, ids)))
        except KeyError:  # the row holds cells not met before: read them
            by_id = dict(zip(ids, row.cells))
            for k in filterfalse(bottoms.__contains__, by_id):
                c = by_id[k]
                contour = c.contour
                t = contour.ltrs
                if rots.isdisjoint(t[j:] + t[:j] for j in range(len(t))):
                    bad[k] = contour.format()
                theta[k] = c.cls.startswith("theta")
                lefts[k] = labels.setdefault(c.left, len(labels))
                rights[k] = labels.setdefault(c.right, len(labels))
                bottoms[k], tops[k] = c.bottom.ltrs, c.top.ltrs
                alphas[k] = c.left.alpha
                seen.add(alphas[k])
            bottom = tuple(chain.from_iterable(map(bottoms.__getitem__, ids)))
        if bad and not bad.keys().isdisjoint(ids):
            out.extend("row %d cell %d: boundary %s matches no relator"
                       % (i, j, bad[k]) for j, k in enumerate(ids) if k in bad)
        if any(map(theta.__getitem__, ids)):
            r = list(map(rights.__getitem__, ids))
            l = list(map(lefts.__getitem__, islice(ids, 1, None)))
            del r[-1]
            if r != l:
                out.extend("row %d: cells %d and %d do not share an edge"
                           % (i, j, j + 1)
                           for j, (a, b) in enumerate(zip(r, l)) if a != b)
            if any(sum(d.alpha.kind_of(x) == "t" for x in w.ltrs) != 1
                   for w in (row.left, row.right)):
                out.append("row %d: side labels lack the rule letter" % i)
        elif row.left or row.right:
            out.append("row %d: stray side labels" % i)
        alpha = row.left.alpha
        if len(seen) > 1 and not {alpha}.issuperset(map(alphas.__getitem__,
                                                        ids)):
            raise ValueError("words over different alphabets")
        if not (below_alpha is alpha and reduced
                and (reduces_to(below, bottom)
                     or free_reduce(bottom) == free_reduce(below))):
            out.append("diagram bottom disagrees with the first row"
                       if last is None else
                       "rows %d/%d: top and bottom labels differ" % (last, i))
        below = tuple(chain.from_iterable(map(tops.__getitem__, ids)))
        below_alpha, last, reduced = alpha, i, True
    if d.glue == "sides" and d.left != d.right:
        out.append("glued sides carry different labels")
    return out


# -- serialization ---------------------------------------------------------------

_LABELS = ("bottom", "top", "left", "right")


def _labels_obj(x) -> dict:
    """The four labels of a cell, a row or a diagram, formatted."""
    return {k: getattr(x, k).format() for k in _LABELS}


def _cell_obj(c: Cell) -> dict:
    return dict(_labels_obj(c), cls=c.cls, rule=c.rule, index=c.index,
                coordinate=c.coordinate, weight_arg=c.weight_arg)


def _rows(d: GridDiagram) -> List[Row]:
    """The rows of ``d``; a row with no cells, which has no labels to
    write, raises ValueError naming it."""
    for i, r in enumerate(d.rows):
        if not r.cells:
            raise ValueError("row %d holds no cells" % i)
    return d.rows


def diagram_to_json(d: GridDiagram) -> str:
    """The diagram as JSON, with every label read off the cells."""
    rows = [dict(_labels_obj(r), cells=[_cell_obj(c) for c in r.cells])
            for r in _rows(d)]
    obj = dict(_labels_obj(d), kind=d.kind, glue=d.glue,
               history=[[n, s] for n, s in d.history], rows=rows)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def diagram_from_json(alpha: Alphabet, text: str) -> GridDiagram:
    """The diagram ``diagram_to_json`` wrote.  Raises ValueError naming a
    missing or malformed field, a letter ``alpha`` lacks, or a stored
    label that disagrees with what the cells read."""
    obj = json.loads(text)

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError("diagram JSON: " + what)

    def label(at: str, o: dict, k: str) -> Word:
        need(isinstance(o[k], str), "%s %s label is not a string" % (at, k))
        try:
            return alpha.parse(o[k])
        except KeyError as e:
            raise ValueError("diagram JSON: %s" % e.args[0]) from None

    def checked(where: str, x, o: dict):
        for k in _LABELS:
            need(label(where, o, k) == getattr(x, k),
                 "%s %s label disagrees with its cells" % (where, k))
        return x

    def cell(at: str, co: dict) -> Cell:
        need(isinstance(co["cls"], str), "%s cls is not a string" % at)
        need(co["rule"] is None or isinstance(co["rule"], str),
             "%s rule is not a string or null" % at)
        for k in ("index", "coordinate", "weight_arg"):
            need(co[k] is None or type(co[k]) is int,
                 "%s %s is not an int or null" % (at, k))
        return Cell(*(label(at, co, k) for k in _LABELS), co["cls"],
                    rule=co["rule"], index=co["index"],
                    coordinate=co["coordinate"], weight_arg=co["weight_arg"])

    def row(i: int, ro) -> Row:
        need(isinstance(ro, dict), "row %d is not an object" % i)
        need(isinstance(ro["cells"], list) and len(ro["cells"]) > 0
             and all(isinstance(co, dict) for co in ro["cells"]),
             "row %d cells are not a nonempty list of objects" % i)
        return checked("row %d" % i, Row([
            cell("row %d cell %d" % (i, j), co)
            for j, co in enumerate(ro["cells"])]), ro)

    need(isinstance(obj, dict), "the top level is not an object")
    try:
        need(isinstance(obj["rows"], list), "rows is not a list")
        rows = [row(i, ro) for i, ro in enumerate(obj["rows"])]
        need(obj["kind"] in ("trapezium", "disk"),
             'kind is not "trapezium" or "disk"')
        need(obj["glue"] in (None, "sides"), 'glue is not null or "sides"')
        need(isinstance(obj["history"], list) and all(
            isinstance(h, list) and len(h) == 2 and isinstance(h[0], str)
            and type(h[1]) is int and h[1] in (1, -1)
            for h in obj["history"]),
            "history is not a list of [rule name, 1 or -1] pairs")
        return checked("diagram", GridDiagram(
            obj["kind"], alpha, rows, label("diagram", obj, "bottom"),
            history=[(n, s) for n, s in obj["history"]], glue=obj["glue"]),
            obj)
    except KeyError as e:
        raise ValueError("diagram JSON has no field %r" % e.args[0]) from None


def diagram_to_dot(d: GridDiagram) -> str:
    """A rendering of the grid: one node per cell, ranked by row."""
    lines = ["digraph grid {", "  rankdir=BT;", "  node [shape=box];"]
    for i, row in enumerate(_rows(d)):
        names = []
        for j, c in enumerate(row.cells):
            name = "c%d_%d" % (i, j)
            names.append(name)
            label = ("%s|%s" % (c.cls, c.bottom.format())).replace('"', "'")
            lines.append('  %s [label="%s"];' % (name, label))
        lines.append("  { rank=same; %s }" % "; ".join(names))
        for a, b in zip(names, names[1:]):
            lines.append("  %s -> %s [style=dashed, arrowhead=none];"
                         % (a, b))
        if i:
            lines.append("  c%d_0 -> %s;" % (i - 1, names[0]))
    lines.append("}")
    return "\n".join(lines)
