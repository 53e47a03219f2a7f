"""Generalized S-machines: hardware, rules, admissible words, computations.

A machine's hardware is a pair of partitioned alphabets: state parts
Q_0, ..., Q_N and tape alphabets Y_1, ..., Y_N (plus Y_0 for cyclic
hardware, where sector 0 wraps from Q_N back to Q_0). An admissible word
alternates signed state letters and tape words (``base()`` reads each
state letter as its part and sign); the signs around each window must fit
a legal shape, which also assigns the tape word its sector.

A generalized rule carries, per part i, a transition q_i -> u_i q_i' v_{i+1}
and, per sector i, either a lock or a pair of free bases X_i, Z_i with the
isomorphism f_i matching them up by position; every rule is checked when
it is built. A :class:`SectorRule` is that isomorphism, held in one shape,
a triangular letter map: distinct positive letters y, each fixed or sent
to p y' s, with y' one letter that is not fixed and p and s words over the
fixed letters, and one flag saying whether X is the side of letters or of
words. The paper's sector maps all have it: the identity, the bijection
phi_i on K_i, the noise decoration m -> v m on M_i, and their inverses,
which flip the flag. Such a map is free on its letters, so its domain and
<Z> are letter tests; any other pair of bases raises
:class:`BasisShapeError` when it is built. A noise word v stays a
descriptor (:meth:`SectorRule.decorated`), and every image is spelled on
the first push that moves its letter. Every rewrite of a tape is one call
of one method, :meth:`SectorRule.push`: the windows of :func:`apply_rule`
and :meth:`Machine.run`, the steps of :func:`semi_apply` and
:meth:`Machine.semi_run`, and the inserts of :func:`invert_rule`.

``push`` edits a letter buffer in place, given the tape's marks (see
``_Marks``): the fixed and domain tests run on its letter superset, the
moving letters are replaced at the watch positions, and only junctions
cancel, each by one C-level pass, so a push moves letters with
``memmove`` and its Python work grows with the watch letters alone.

A run (:class:`_Run`, behind :meth:`Machine.run` and :func:`apply_rule`)
copies each distinct tape of its start word into a run-owned buffer once
and steps the buffers; Words are built only where a configuration is
handed out, one per buffer changed since the last. State letters never
reduce against tape letters, nor cancel (see :func:`apply_rule`), so the
windows stay apart and need no re-split, and no run checks the base: a
rule that moves a state letter out of its part is refused when it is
built. What a rule does to a run depends on its state letters and on
which buffer holds each window (the slot tuple) alone, so each rule
compiles it once per (state tuple, slot tuple) into a :class:`_Step`: the
new states, and per window its sector, sector rule and inserts. Windows
that agree on all of that are one class, and each (class, buffer) pair is
one unit of work. A step keeps the slot tuple after it and the step each
rule makes next, so a run mostly follows those links. A buffer read by
two classes is copied for all but the last of them, so ring copies of one
machine, which hold equal tapes, cost one push per distinct window, and
equal tapes of one class stay one Word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from typing import (Collection, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from smforge.words import (
    Alphabet, BasisExpression, MachineError, NoiseWord, Word,
    free_reduce, junction, relabel, validate_basis,
)


class StateMismatchError(MachineError):
    """A state letter of the word is not the one the rule expects."""

    def __init__(self, position: int, got: str, expected: str):
        self.position, self.got, self.expected = position, got, expected
        super().__init__("state letter %d is %s, rule expects %s"
                         % (position, got, expected))


class SectorMismatchError(MachineError):
    """A tape word is outside the rule's domain in its sector."""

    def __init__(self, sector: int, word: "Word", locked: bool):
        self.sector, self.word, self.locked = sector, word, locked
        what = "locked" if locked else "outside the domain of"
        super().__init__("sector %d tape %r is %s the rule"
                         % (sector, word.format(), what))


class StepError(MachineError):
    """A rule application inside a run failed."""

    def __init__(self, index: int, reason: MachineError):
        self.index, self.reason = index, reason
        super().__init__("step %d inadmissible: %s" % (index, reason))


class HistoryEntryError(MachineError):
    """A history entry that is not a pair of a str rule name and the int
    sign 1 or -1."""


_NOT_A_PAIR = "history entry %r is not a (rule name, sign) pair"


class UnknownRuleError(MachineError, KeyError):
    """A rule name the machine does not carry; a KeyError too, like any
    failed lookup by name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__("unknown rule %r" % name)

    def __str__(self) -> str:
        return self.args[0]


class BasisShapeError(MachineError):
    """Sector bases that are no triangular letter map (see
    :class:`SectorRule`), or that a band cannot read letter by letter."""


class ParseError(ValueError):
    """Machine text that does not parse; ``line`` is the 1-based number of
    the line at fault, or 0 when the text as a whole is."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


# -- hardware ----------------------------------------------------------------

def _signed_set(ids: Collection[int]) -> FrozenSet[int]:
    """The letters ``ids`` and their inverses."""
    return frozenset(ids).union([-x for x in ids])


@dataclass
class Part:
    """One part Q_i of the state alphabet."""
    letters: Tuple[int, ...]
    start: int
    end: int


class Hardware:
    """State parts, tape alphabets, and the shared intern table; the one
    record of where a letter sits.  Ring copies share tape letters, so a
    tape letter may lie in several sectors."""

    def __init__(self, alpha: Alphabet, parts: Sequence[Part],
                 tapes: Sequence[Tuple[int, ...]], cyclic: bool = False):
        # tapes[i] is the alphabet of sector i; tapes[0] is the wrap
        # sector for cyclic hardware and must be () otherwise.
        if len(tapes) != len(parts):
            raise ValueError("need exactly one tape entry per part "
                             "(tapes[0] is the wrap sector)")
        if not cyclic and tapes[0]:
            raise ValueError("linear hardware cannot have a wrap tape")
        self.alpha = alpha
        self.parts = list(parts)
        self.tapes = [tuple(t) for t in tapes]
        self.cyclic = cyclic
        self._signed_tapes = [_signed_set(t) for t in self.tapes]
        self._part_of: Dict[int, int] = {}
        for i, p in enumerate(self.parts):
            for q in p.letters:
                if alpha.kind_of(q) != "q":
                    raise ValueError("part letter %s is not a state letter"
                                     % alpha.name_of(q))
                self._part_of[q] = self._part_of[-q] = i
        for t in self.tapes:
            for y in t:
                if alpha.kind_of(y) != "a":
                    raise ValueError("tape letter %s is not a tape letter"
                                     % alpha.name_of(y))

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def part_of(self, q: int) -> int:
        try:
            return self._part_of[q]
        except (KeyError, TypeError):
            raise MachineError("state letter %s is in no part" % (
                self.alpha.name_of(q) if type(q) is int
                and 0 < abs(q) <= len(self.alpha) else "#%r" % (q,))) from None

    def sector_indices(self) -> List[int]:
        """Real sector indices, in tape order."""
        first = 0 if self.cyclic else 1
        return list(range(first, self.n_parts))

    def sector_word(self, sector: int, w: Word) -> bool:
        return self._signed_tapes[sector].issuperset(w.ltrs)

    def next_part(self, i: int) -> int:
        return (i + 1) % self.n_parts if self.cyclic else i + 1


# -- admissible words ---------------------------------------------------------

class AdmissibleWord:
    """Alternating signed state letters (``states``, as :meth:`to_word`
    writes them) and sector words, all checked when built: state letters,
    window shapes, which give the sectors, and the tapes' letters.  Words
    a run makes (``_made``) skip the checks, as a rule keeps the base.

    ``marks`` is None or, per tape, its marks (see ``_Marks``): words made
    by a run carry them, and a run scans the tapes of the others once.
    """

    __slots__ = ("hw", "states", "tapes", "sectors", "marks")

    def __init__(self, hw: Hardware, states: Sequence[int],
                 tapes: Sequence[Word]):
        if len(states) != len(tapes) + 1 or not states:
            raise MachineError("admissible word needs k+1 states, k tapes")
        for q in states:
            hw.part_of(q)  # raises for anything but a state letter
        self.hw = hw
        self.states = tuple(states)
        self.tapes = tuple(tapes)
        self.marks: Optional[Tuple[_Marks, ...]] = None
        self.sectors = tuple(map(self._window_sector, range(len(tapes))))
        self._check_reduced()

    @classmethod
    def _made(cls, hw: Hardware, states: Tuple[int, ...],
              tapes: Tuple[Word, ...], sectors: Tuple[int, ...],
              marks: Tuple["_Marks", ...]) -> "AdmissibleWord":
        """A word whose shape, sectors and reducedness the caller knows."""
        W = cls.__new__(cls)
        W.hw, W.states, W.tapes = hw, states, tapes
        W.sectors, W.marks = sectors, marks
        return W

    def _window_sector(self, j: int) -> int:
        # equal signs: the part after the lower part must be the higher
        # part, which is the sector; opposite signs: one part p, and
        # q u q'^-1 lies in the sector after p, q^-1 u q' in sector p
        hw = self.hw
        q1, q2 = self.states[j], self.states[j + 1]
        p1, p2 = hw.part_of(q1), hw.part_of(q2)
        w = self.tapes[j]
        if (q1 > 0) == (q2 > 0):
            lo, hi = (p1, p2) if q1 > 0 else (p2, p1)
            if hw.next_part(lo) != hi:
                raise MachineError("window %d: parts %d,%d not consecutive"
                                   % (j, p1, p2))
            sector = hi
        else:
            if p1 != p2:
                raise MachineError("window %d: parts %d,%d not equal"
                                   % (j, p1, p2))
            sector = hw.next_part(p1) if q1 > 0 else p1
        if sector >= hw.n_parts or (sector == 0 and not hw.cyclic):
            raise MachineError("window %d: sector %d does not exist"
                               % (j, sector))
        if w.alpha is not hw.alpha:
            raise MachineError("window %d: tape word is not over the "
                               "hardware's alphabet" % j)
        if not hw.sector_word(sector, w):
            raise MachineError("window %d: tape word %r outside sector %d"
                               % (j, w.format(), sector))
        return sector

    def _check_reduced(self) -> None:
        for j, w in enumerate(self.tapes):
            q = self.states[j]
            if not w and q == -self.states[j + 1]:
                raise MachineError("window %d reduces: %s" % (
                    j, Word(self.hw.alpha, (q, -q)).format()))

    # -- conversions ---------------------------------------------------------

    def to_word(self) -> Word:
        out = [self.states[0]]
        for w, q in zip(self.tapes, self.states[1:]):
            out.extend(w.ltrs)
            out.append(q)
        return Word(self.hw.alpha, tuple(out))

    @staticmethod
    def from_word(hw: Hardware, w: Word) -> "AdmissibleWord":
        if w.alpha is not hw.alpha:
            raise MachineError("word is not over the hardware's alphabet")
        states: List[int] = []
        tapes: List[Word] = []
        cur: List[int] = []
        for x in w.ltrs:
            if hw.alpha.kind_of(x) == "q":
                if states:
                    tapes.append(Word(hw.alpha, free_reduce(cur)))
                elif cur:
                    raise MachineError("tape letters before first state letter")
                cur = []
                states.append(x)
            else:
                cur.append(x)
        if cur:
            raise MachineError("tape letters after last state letter")
        if not states:
            raise MachineError("no state letters")
        return AdmissibleWord(hw, states, tapes)

    def base(self) -> Tuple[Tuple[int, int], ...]:
        """The (part, sign) of each state letter."""
        return tuple((self.hw.part_of(q), 1 if q > 0 else -1)
                     for q in self.states)

    def is_configuration(self) -> bool:
        return (self.base() ==
                tuple((i, 1) for i in range(self.hw.n_parts)))

    def format(self) -> str:
        return self.to_word().format()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AdmissibleWord) and other.hw is self.hw
                and other.states == self.states and other.tapes == self.tapes)

    def __hash__(self) -> int:
        return hash((self.states, self.tapes))

    def __repr__(self) -> str:
        return "AdmissibleWord(%s)" % self.format()


# -- rules --------------------------------------------------------------------

@dataclass
class RulePart:
    """Transition of part i: q -> u q2 v."""
    q: int
    u: Word
    q2: int
    v: Word


# The marks of a tape: a superset of its letters, its watch letters (those
# the maps that rewrote it move) and their sorted positions.  A plain
# tuple, as every push builds one and a named tuple costs ten times as
# much to build.
_Marks = Tuple[FrozenSet[int], FrozenSet[int], Tuple[int, ...]]

_NO_LETTERS: FrozenSet[int] = frozenset()

# The inserts a push joins at the ends of a tape: the right insert of its
# left state letter, the left insert of its right one, and their letters;
# None when both are empty.
_Ends = Optional[Tuple[Tuple[int, ...], Tuple[int, ...], FrozenSet[int]]]


def _fresh(ltrs: Sequence[int]) -> _Marks:
    """The marks of a tape that carries none: its letters, no watch
    letters."""
    return frozenset(ltrs), _NO_LETTERS, ()


def _scan(ltrs: Sequence[int], watch: FrozenSet[int]) -> Tuple[int, ...]:
    """The positions of the letters of ``watch`` in ``ltrs``, found by one
    C-level pass."""
    return tuple(compress(count(), map(watch.__contains__, ltrs)))


def _meet(buf: List[int], c: int, m: int) -> int:
    """How many letters cancel where buf[:c] meets buf[c:c + m], both
    reduced: :func:`junction` on windows either side of c that double in
    length until one does not cancel whole."""
    k, n, width = 0, min(c, m), 128
    while k < n:
        end = min(n, k + width)
        k += junction(buf[c - end:c - k], buf[c + k:c + end])
        if k < end:
            break
        width *= 2
    return k


def _settle(buf: List[int], c: int, m: int, at: List[int],
            offsets: Sequence[int] = ()) -> int:
    """Join the reduced buf[c:c + m] onto the reduced buf[:c] in place:
    only the junction can cancel.  Returns where the joined part now ends.

    ``at`` holds the sorted positions of the watch letters of
    buf[:c] and ``offsets`` those of buf[c:c + m], counted from c:
    positions the junction cancels are dropped, and the offsets that
    survive are added, shifted.
    """
    k = 0
    if c and m and buf[c - 1] == -buf[c]:
        # most junctions cancel one letter: test the second pair first
        k = (_meet(buf, c, m) if c > 1 and m > 1
             and buf[c - 2] == -buf[c + 1] else 1)
        del buf[c - k:c + k]
        if at:
            del at[bisect_left(at, c - k):]
        if offsets:
            offsets = offsets[bisect_left(offsets, k):]
    if offsets:
        at.extend(map((c - 2 * k).__add__, offsets))
    return c + m - 2 * k


def _ends(buf: List[int], marks: _Marks, ends: _Ends) -> _Marks:
    """Join the right insert of ``ends`` at the front of the tape ``buf``,
    whose marks are ``marks``, and the left insert at its back, in place;
    the marks of the result.  An empty tape drops its letter superset
    first and keeps its watch letters."""
    if not buf and marks[0]:
        marks = (_NO_LETTERS, marks[1], ())
    if ends is None:
        return marks
    right, left, ins = ends
    letters, watch, pos = marks
    mine = not watch.isdisjoint(ins)
    n = len(right)
    if n:
        buf[:0] = right
        at = list(_scan(right, watch)) if mine else []
        _settle(buf, n, len(buf) - n, at, pos)
    else:
        at = list(pos)
    if left:
        n = len(buf)
        buf.extend(left)
        _settle(buf, n, len(left), at, _scan(left, watch) if mine else ())
    return letters | ins, watch, tuple(at)


class SectorRule:
    """Unlocked sector data: aligned bases X, Z with f: X[k] -> Z[k], held
    as one triangular letter map.

    ``ys`` holds distinct positive letters, one per basis entry, and
    ``maps`` each one's entry: None when y is fixed, else (p, y', s), with
    y' a letter that is not fixed and no other entry's, and p and s
    ``Word`` objects over the fixed letters, p maybe a noise-word
    descriptor (``words.NoiseWord``).  Unless ``inverted``, X holds the
    letters y and Z the words p y' s (y when fixed); when ``inverted`` the
    two swap.  The identity, phi_i on K_i (y' = phi_i(y)), the noise
    decoration m -> v m on M_i (p = v) and their inverses all have this
    shape.  Multiplying p y' s by p^-1 and s^-1, a fixed letter at a time,
    is a chain of Nielsen moves, so both sides are free on their letters
    (Lyndon and Schupp, Prop. I.2.8): ``domain`` holds the signed X
    letters, whose words are <X>, and :meth:`z_member` is a letter test.

    One path, ``_make``, builds every sector rule and refuses any other
    shape with :class:`BasisShapeError`: ``SectorRule(X, Z)`` reads word
    bases in either orientation, :meth:`decorated` takes descriptors,
    :attr:`inverse` (f^-1) flips ``inverted``, and :meth:`relabel` maps
    the letters and the descriptors.  X and Z are spelled when read.

    ``images`` keeps the image of a moving letter, spelled on the first
    push that moves it, and ``produces`` its letters; every other letter
    of ``domain``, in ``fixed``, goes to itself, and ``widen`` holds the
    moving letters.  ``letters`` holds the signed letters of X and Z,
    ``alpha`` their one alphabet (None for none or several), and
    ``forms``, per noise declaration of a sector, the noisy form
    :func:`validate_noisy` found there.  A band (``groups._band``) finds a
    cell by the signed X letter, so it reads only one-letter X entries.
    No library code calls :meth:`express`; it stays because the benchmark
    traces it (``smbench/layers.py``).
    """

    def __init__(self, X: Tuple[Word, ...], Z: Tuple[Word, ...]):
        """Read the word bases X and Z: X is the side of letters when each
        of its entries is one positive letter, else Z must be; an entry of
        the other side is its letter y when fixed, else holds exactly one
        letter that no fixed entry has, once."""
        inverted = not all(len(x.ltrs) == 1 and x.ltrs[0] > 0 for x in X)
        ones, words = (Z, X) if inverted else (X, Z)
        if len(X) != len(Z) or not all(len(w.ltrs) == 1 for w in ones):
            raise _not_triangular(X, Z)
        ys = tuple(w.ltrs[0] for w in ones)
        fixed = _signed_set([y for y, w in zip(ys, words) if w.ltrs == (y,)])
        maps: List[Optional[tuple]] = []
        for y, w in zip(ys, words):
            t = w.ltrs
            free = [j for j, x in enumerate(t) if x not in fixed]
            if t == (y,):
                maps.append(None)
            elif len(free) == 1:
                j = free[0]
                maps.append((Word(w.alpha, t[:j]), t[j],
                             Word(w.alpha, t[j + 1:])))
            else:
                raise _not_triangular(X, Z)
        self._make(next((w.alpha for w in X + Z), None), ys, maps, inverted)
        if any(w.alpha is not self.alpha for w in X + Z):
            self.alpha = None  # several alphabets: GeneralizedRule refuses

    @classmethod
    def decorated(cls, alpha: Alphabet, letters: Sequence[int],
                  noise: Sequence[Optional[NoiseWord]],
                  inverse: bool = False) -> "SectorRule":
        """The form-3 map sending each of the distinct positive ``letters``
        y to v y, v its entry of ``noise``, held as a descriptor; the
        letters whose entry is None are fixed, and every v is a word over
        them.  With ``inverse``, the inverse map y -> v^-1 y."""
        if len(noise) != len(letters):
            raise BasisShapeError("decorated sector: %d letters, %d noise "
                                  "entries" % (len(letters), len(noise)))
        e = alpha.word()
        return cls._of(alpha, tuple(letters),
                       [None if v is None else (v, y, e)
                        for y, v in zip(letters, noise)], inverse)

    @classmethod
    def _of(cls, alpha: Optional[Alphabet], ys: Tuple[int, ...],
            maps: Sequence[Optional[tuple]], inverted: bool) -> "SectorRule":
        self = cls.__new__(cls)
        self._make(alpha, ys, maps, inverted)
        return self

    def _make(self, alpha: Optional[Alphabet], ys: Tuple[int, ...],
              maps: Sequence[Optional[tuple]], inverted: bool) -> None:
        """Check the shape, and read the domain, the letters and the moving
        letters off it."""
        self.alpha, self.ys, self.maps = alpha, ys, tuple(maps)
        self.inverted = inverted
        fixed = _signed_set([y for y, f in zip(ys, maps) if f is None])
        moving = [f for f in self.maps if f is not None]
        cores = _signed_set([f[1] for f in moving])
        if (len(set(ys)) != len(ys) or min(ys, default=1) < 1
                or len(cores) != 2 * len(moving)
                or not cores.isdisjoint(fixed)
                or not all(fixed.issuperset(p.letters)
                           and fixed.issuperset(s.letters)
                           for p, _, s in moving)):
            raise _not_triangular(self.X, self.Z)
        ones = _signed_set(ys)
        self.domain, self._z_letters = ((fixed | cores, ones) if inverted
                                        else (ones, fixed | cores))
        self.letters = ones | cores
        # a moving signed letter -> its entry's letter y and (p, y', s)
        self._pending: Dict[int, tuple] = {}
        for y, f in zip(ys, self.maps):
            if f is not None:
                x = f[1] if inverted else y
                self._pending[x] = self._pending[-x] = (y, f)
        self.widen = frozenset(self._pending)
        self.fixed = self.domain.difference(self.widen)
        self.images: Dict[int, Tuple[int, ...]] = {}
        self.produces: Dict[int, FrozenSet[int]] = {}
        self._offsets: Dict[FrozenSet[int], Dict[int, Tuple[int, ...]]] = {}
        self.forms: Dict[tuple, Optional[int]] = {}

    def _spell(self, words: bool) -> Tuple[Word, ...]:
        """The one-letter basis, or with ``words`` the basis of words
        p y' s, spelled from the entries."""
        return tuple(Word(self.alpha, (y,) if f is None or not words
                          else f[0].ltrs + (f[1],) + f[2].ltrs)
                     for y, f in zip(self.ys, self.maps))

    @cached_property
    def X(self) -> Tuple[Word, ...]:
        return self._spell(self.inverted)

    @cached_property
    def Z(self) -> Tuple[Word, ...]:
        return self._spell(not self.inverted)

    @cached_property
    def _terms(self) -> Dict[int, Tuple[int, int]]:
        """Each signed letter y -> its basis term."""
        terms = {y: (j, 1) for j, y in enumerate(self.ys)}
        terms.update((-y, (j, -1)) for j, y in enumerate(self.ys))
        return terms

    def z_member(self, w: Word) -> bool:
        """Whether w lies in <Z>: whether its letters are Z's."""
        return self._z_letters.issuperset(w.ltrs)

    def _spell_image(self, x: int) -> Tuple[int, ...]:
        """Build the image of the moving letter x, its letters, and the
        offsets of its watch letters under every watch set seen."""
        y, (p, c, s) = self._pending.pop(x)
        if self.inverted:  # y' goes to p^-1 y s^-1
            y, (p, c, s) = c, (~p, y, ~s)
        if x != y:  # x is the inverse of the letter y that goes to p c s
            p, c, s = ~s, -c, ~p
        img = self.images[x] = p.ltrs + (c,) + s.ltrs
        self.produces[x] = p.letters | s.letters | {c}
        for watch, offsets in self._offsets.items():
            offsets[x] = _scan(img, watch)
        return img

    @cached_property
    def inverse(self) -> "SectorRule":
        """f^-1 (X and Z swapped), built once; its inverse is this rule."""
        inv = SectorRule._of(self.alpha, self.ys, self.maps, not self.inverted)
        inv.__dict__["inverse"] = self
        return inv

    def relabel(self, letter_map: Dict[int, int],
                alpha: Alphabet) -> "SectorRule":
        """This rule renamed letter by letter into ``alpha``: a descriptor
        maps its two letters, and is not spelled."""
        def letter(x):
            return letter_map[x] if x > 0 else -letter_map[-x]

        def word(w):
            return (relabel(w, letter_map, alpha) if isinstance(w, Word)
                    else w.relabel(letter_map))
        return SectorRule._of(
            alpha, tuple(map(letter, self.ys)),
            [None if f is None else (word(f[0]), letter(f[1]), word(f[2]))
             for f in self.maps], self.inverted)

    def express(self, w: Word) -> Optional[BasisExpression]:
        """Expression of w over X, or None when w lies outside <X>."""
        ltrs = w.ltrs
        if not self.domain.issuperset(ltrs):
            return None
        if self.inverted:
            ltrs = list(ltrs)
            self.push(ltrs, _fresh(ltrs))
        return list(map(self._terms.__getitem__, ltrs))

    def push(self, buf: List[int], marks: _Marks,
             ends: _Ends = None) -> Optional[_Marks]:
        """Rewrite the reduced tape ``buf``, a w with marks ``marks``, in
        place to the reduced product of the right insert of ``ends``, f(w)
        and the left insert.

        The moving letters are replaced at their watch positions, left to
        right; everything left of the last replaced letter is then final
        and reduced, and each junction cancels in place.  Returns the
        marks of the result, whose letter superset is exact on moving
        letters and whose watch letters may have grown by ``widen``, or
        the very ``marks`` given when the tape did not change; or None,
        with ``buf`` untouched, when w lies outside <X>.
        """
        letters, watch, pos = marks
        images = self.images
        if self.fixed.issuperset(letters):
            return _ends(buf, marks, ends)
        if not (self.domain.issuperset(letters)
                or self.domain.issuperset(buf)):
            return None
        if letters.isdisjoint(self.widen):
            return _ends(buf, marks, ends)
        if not watch.issuperset(self.widen):
            watch = watch | self.widen
            pos = _scan(buf, watch)
        offsets = self._offsets.get(watch)
        if offsets is None:
            offsets = self._offsets[watch] = {
                y: _scan(img, watch) for y, img in images.items()}
        # buf[:c] is final; a letter at original position p now sits at
        # p + d; keep holds the offsets of the fixed watch letters of the
        # run from original position start
        at: List[int] = []
        c = d = start = 0
        keep: List[int] = []
        moved = set()
        for p in pos:
            q = p + d
            y = buf[q]
            img = images.get(y)
            if img is None:
                if y not in self.widen:
                    keep.append(p - start)
                    continue
                img = self._spell_image(y)
            moved.add(y)
            e = _settle(buf, c, q - c, at, keep)
            buf[e:e + 1] = img
            c = _settle(buf, e, len(img), at, offsets[y])
            d += c - q - 1
            start, keep = p + 1, []
        _settle(buf, c, len(buf) - c, at, keep)
        out = letters & self.fixed
        return _ends(buf, (out.union(*map(self.produces.__getitem__, moved)),
                           watch, tuple(at)), ends)


def _not_triangular(X: Sequence[Word], Z: Sequence[Word]) -> BasisShapeError:
    return BasisShapeError(
        "sector bases X={%s} Z={%s} are not a triangular letter map"
        % tuple(";".join(map(Word.format, b)) for b in (X, Z)))


# a locked sector: its domain is the empty word
_LOCKED = SectorRule((), ())


class GeneralizedRule:
    """A generalized S-rule over fixed hardware.

    ``sectors[i]`` is None when sector i is locked (or, on linear
    hardware, for the nonexistent sector 0).  Every rule is checked when
    it is built: one part and one sector per hardware part, with part i's
    q and q2 in Q_i, so no rule changes a base; bases and inserts in <Z>,
    all over the hardware's alphabet and inside their sectors.  A sector
    rule checked its own shape, a triangular letter map, when it was
    built, so its bases are free and aligned, and <Z> is a letter test;
    each distinct (sector rule, insert) pair is tested once.
    """

    def __init__(self, hw: Hardware, name: str, parts: Sequence[RulePart],
                 sectors: Sequence[Optional[SectorRule]],
                 positive: bool = True):
        self.hw = hw
        self.name = name
        self.parts = list(parts)
        self.sectors = list(sectors)
        self.positive = positive
        if len(self.parts) != hw.n_parts or len(self.sectors) != hw.n_parts:
            raise ValueError("rule %s: wrong part/sector count" % name)
        for i, rp in enumerate(self.parts):
            if hw.part_of(rp.q) != i or hw.part_of(rp.q2) != i:
                raise ValueError("rule %s part %d: state letters in wrong part"
                                 % (name, i))
        # (hardware, state tuple, slot tuple) -> the compiled run step
        self._steps: Dict[tuple, _Step] = {}
        self._validate()

    def _validate(self) -> None:
        hw = self.hw
        if not hw.cyclic and self.sectors[0] is not None:
            raise ValueError("rule %s: sector 0 on linear hardware" % self.name)
        for i, sec in enumerate(self.sectors):
            if sec is None:
                continue
            if sec.domain and sec.alpha is not hw.alpha:
                raise ValueError("rule %s sector %d: bases over another "
                                 "alphabet" % (self.name, i))
            if not hw._signed_tapes[i].issuperset(sec.letters):
                w = next(w for w in sec.X + sec.Z if not hw.sector_word(i, w))
                raise ValueError("rule %s sector %d: basis word %r "
                                 "outside sector" % (self.name, i, w.format()))
        # ring copies share their inserts and sector rules: each distinct
        # (sector rule, insert) pair is checked once
        checked: Set[Tuple[int, int]] = set()
        for i, rp in enumerate(self.parts):
            nxt = hw.next_part(i) if (hw.cyclic or i + 1 < hw.n_parts) else None
            self._check_insert(i, rp.u, checked)
            if nxt is None:
                if rp.v:
                    raise ValueError("rule %s part %d: right insert beyond "
                                     "last sector" % (self.name, i))
            else:
                self._check_insert(nxt, rp.v, checked)

    def _check_insert(self, sector: int, w: Word,
                      checked: Set[Tuple[int, int]]) -> None:
        sec = self.sectors[sector]
        key = (id(sec), id(w))
        if key in checked:
            return
        checked.add(key)
        if sec is None:
            if w:
                raise ValueError("rule %s: insert %r in locked sector %d"
                                 % (self.name, w.format(), sector))
            return
        if w.alpha is not self.hw.alpha:
            raise ValueError("rule %s: insert %r in sector %d is over another "
                             "alphabet" % (self.name, w.format(), sector))
        if not sec.z_member(w):
            # _validate keeps Z's letters in the sector, so <Z> lies in it
            where = ("<Z_%d>" if self.hw.sector_word(sector, w)
                     else "sector %d")
            raise ValueError("rule %s: insert %r outside %s"
                             % (self.name, w.format(), where % sector))

    # -- queries -------------------------------------------------------------

    def _sector(self, sector: int) -> Optional[SectorRule]:
        if not 0 <= sector < self.hw.n_parts:
            raise MachineError("rule %s: no sector %d" % (self.name, sector))
        return self.sectors[sector]

    def locks(self, sector: int) -> bool:
        sec = self._sector(sector)
        return sec is None or not sec.domain

    def __repr__(self) -> str:
        return "GeneralizedRule(%s)" % self.name


def invert_rule(rule: GeneralizedRule) -> GeneralizedRule:
    """The inverse generalized rule.

    Part i of the inverse is q_i' -> f_i^-1(u_i^-1) q_i f_{i+1}^-1(v_{i+1}^-1)
    where the f^-1 are the sector rules' ``inverse``, shared as the sector
    rules are.  Each distinct (sector rule, insert) pair is inverted once,
    so the inverse rule shares its inserts where the rule does, as ring
    copies do.
    """
    hw = rule.hw
    inv_sectors = [None if sec is None else sec.inverse
                   for sec in rule.sectors]
    images: Dict[Tuple[int, int], Word] = {}

    def image(sector: int, w: Word) -> Word:
        key = (id(inv_sectors[sector]), id(w))
        if key not in images:
            images[key] = _image(inv_sectors[sector], sector, ~w)
        return images[key]

    parts: List[RulePart] = []
    for i, rp in enumerate(rule.parts):
        u2 = image(i, rp.u)
        nxt = hw.next_part(i) if (hw.cyclic or i + 1 < hw.n_parts) else None
        v2 = image(nxt, rp.v) if nxt is not None else rp.v.alpha.word()
        parts.append(RulePart(rp.q2, u2, rp.q, v2))
    return GeneralizedRule(hw, _inv_name(rule.name), parts, inv_sectors,
                           positive=not rule.positive)


def _image(sec: Optional[SectorRule], sector: int, w: Word) -> Word:
    """f(w) under the rule ``sec`` of ``sector`` (None when locked); raise
    when w lies outside its domain."""
    buf = list(w.ltrs)
    _sector_step(sec, sector, w, buf, _fresh(buf))
    return Word(w.alpha, tuple(buf))


def _sector_step(sec: Optional[SectorRule], sector: int, w: Word,
                 buf: List[int], marks: _Marks) -> _Marks:
    """Rewrite ``buf``, the letters of w, whose marks are ``marks``, to
    _image's result in place; the marks of the image."""
    got = (_LOCKED if sec is None else sec).push(buf, marks)
    if got is None:
        raise SectorMismatchError(sector, w, sec is None or not sec.domain)
    return got


def _inv_name(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


# -- application --------------------------------------------------------------

class _Step:
    """A rule's step on every run whose state letters and slot tuple (the
    buffer of each window) are given, compiled once and kept on the rule.

    Building it checks the rule's hardware and each state letter against
    its part's q, and reads the letters that replace q^±1 off the part: u
    q2 v, or v^-1 q2^-1 u^-1.  ``states`` are the new state letters; they
    keep the base (every rule does), so the windows keep their sectors.
    A window's class is its sector rule (``_LOCKED`` when locked) and the
    inserts of its two state letters (see ``_Ends``), so windows of one
    class give equal results on equal tapes.  A unit is one class on one
    buffer: (sector, sector rule, inserts, source buffer, target buffer),
    in the order of the first window of each.  The last unit to read a
    buffer rewrites it in place; the others read it before that, each into
    a new buffer (copy-on-write), numbered after the existing ones.
    ``slots`` is the slot tuple after the step, and ``after`` keeps per
    rule the _Step that rule makes next, so a run that follows it hashes
    no state or slot tuple once a transition has been seen.
    """

    __slots__ = ("states", "units", "slots", "after")

    def __init__(self, run: "_Run", rule: GeneralizedRule):
        hw = run.hw
        if rule.hw is not hw:
            raise MachineError("rule %s: hardware differs from the word's"
                               % rule.name)
        repl = []
        for j, q in enumerate(run.states):
            rp = rule.parts[hw.part_of(q)]
            if abs(q) != rp.q:
                raise StateMismatchError(j, hw.alpha.name_of(q),
                                         hw.alpha.name_of(rp.q))
            repl.append((rp.u.ltrs, rp.q2, rp.v.ltrs) if q > 0 else
                        ((~rp.v).ltrs, -rp.q2, (~rp.u).ltrs))
        self.states = tuple(q for _, q, _ in repl)
        classes: Dict[tuple, int] = {}
        units: Dict[Tuple[int, int], tuple] = {}
        keys = []
        for j, (s, k) in enumerate(zip(run.sectors, run.slots)):
            right, left = repl[j][2], repl[j + 1][0]
            sec = rule.sectors[s] or _LOCKED
            key = (classes.setdefault((id(sec), right, left), len(classes)), k)
            if key not in units:
                units[key] = (s, sec, (right, left, frozenset(right + left))
                              if right or left else None, k)
            keys.append(key)
        last = {key[1]: key for key in units}
        n, made, out = len(last), [], {}
        for key, unit in units.items():
            if last[key[1]] == key:
                out[key] = key[1]
            else:
                out[key], n = n, n + 1
            made.append(unit + (out[key],))
        self.units = tuple(made)
        self.slots = tuple(map(out.__getitem__, keys))
        self.after: Dict[GeneralizedRule, _Step] = {}


class _Run:
    """A configuration during a run, its tapes held in run-owned letter
    buffers that each step edits in place.

    ``slots`` names, per window, the buffer holding its tape; ``marks``
    and ``words`` hold, per buffer, its marks and the Word it spells, or
    None once an edit has outdated it.  Windows that share a buffer hold
    one Word.  ``last`` is the :class:`_Step` made last; :meth:`step`
    follows its ``after`` link when it can, and otherwise looks the step
    up on the rule.  A step that raises leaves the run unusable.
    """

    __slots__ = ("hw", "states", "sectors", "slots", "bufs", "marks",
                 "words", "last")

    def __init__(self, W: AdmissibleWord):
        self.hw, self.states, self.sectors = W.hw, W.states, W.sectors
        index: Dict[int, int] = {}
        self.words: List[Optional[Word]] = []
        self.marks: List[_Marks] = []
        for j, t in enumerate(W.tapes):
            if id(t) not in index:
                index[id(t)] = len(self.words)
                self.words.append(t)
                self.marks.append(_fresh(t.ltrs) if W.marks is None
                                  else W.marks[j])
        self.slots = tuple(index[id(t)] for t in W.tapes)
        self.bufs = [list(t.ltrs) for t in self.words]
        self.last: Optional[_Step] = None

    def _word(self, k: int) -> Word:
        w = self.words[k]
        if w is None:
            w = self.words[k] = Word(self.hw.alpha, tuple(self.bufs[k]))
        return w

    def word(self) -> AdmissibleWord:
        """The configuration as it stands."""
        return AdmissibleWord._made(
            self.hw, self.states, tuple(map(self._word, self.slots)),
            self.sectors, tuple(map(self.marks.__getitem__, self.slots)))

    def step(self, rule: GeneralizedRule) -> None:
        """Apply ``rule``, or raise what :func:`apply_rule` raises."""
        made = self.last.after.get(rule) if self.last else None
        if made is None:
            key = (self.hw, self.states, self.slots)
            made = rule._steps.get(key)
            if made is None:
                made = rule._steps[key] = _Step(self, rule)
            if self.last:
                self.last.after[rule] = made
        bufs, marks, words = self.bufs, self.marks, self.words
        for s, sec, ends, src, dst in made.units:
            if src == dst:
                buf = bufs[dst]
            else:
                buf = bufs[src][:]
                bufs.append(buf)
                marks.append(marks[src])
                words.append(words[src])
            mk = marks[dst]
            got = sec.push(buf, mk, ends)
            if got is not mk:
                if got is None:
                    raise SectorMismatchError(s, self._word(dst),
                                              not sec.domain)
                marks[dst], words[dst] = got, None
        self.states, self.slots, self.last = made.states, made.slots, made


def apply_rule(W: AdmissibleWord, rule: GeneralizedRule) -> AdmissibleWord:
    """W . rule, or raise a MachineError describing the obstruction.

    Window j becomes the right insert of state letter j, the image of its
    tape word and the left insert of state letter j+1, reduced.  Tape
    letters left of the first and right of the last state letter are
    dropped.  No step cancels state letters: two new state letters are
    inverse just when the old ones were, q^-1 t q or q t q^-1 with t != 1
    as W is reduced, and every checked sector map f is an isomorphism, so
    the new window u^-1 f(t) u or v f(t) v^-1 is not empty.

    This is one step of a :class:`_Run` on fresh buffers: the rule's
    :class:`_Step` for W's states and slot tuple is made on first use and
    kept on the rule, and the hardware and state checks run only then.
    Windows of one class holding the same tape object are rewritten once
    and share the resulting word; a tape the step leaves unchanged stays
    the same object.  Errors come in the order of a window-by-window pass:
    a state mismatch, then the first window outside its domain.
    """
    run = _Run(W)
    run.step(rule)
    return run.word()


def semi_apply(w: Word, rule: GeneralizedRule, sector: int) -> Word:
    """One step of a semi-computation in the given sector: the rule's sector
    map applied to w, which must lie in its domain."""
    return _image(rule._sector(sector), sector, w)


# -- machines -----------------------------------------------------------------

History = List[Tuple[str, int]]


def reduce_history(history: History) -> History:
    """The history with adjacent inverse steps cancelled; a malformed
    entry raises HistoryEntryError."""
    stack: List[Tuple[str, int]] = []
    for entry in history:
        try:
            name, s = entry
        except (TypeError, ValueError):
            raise HistoryEntryError(_NOT_A_PAIR % (entry,)) from None
        # Machine.rule's checks, with a str name read without a call
        if s.__class__ is not int or s not in (1, -1):
            raise HistoryEntryError("history signs must be +-1")
        if name.__class__ is not str and not isinstance(name, str):
            raise HistoryEntryError("rule name %r is not a string" % (name,))
        if stack and stack[-1] == (name, -s):
            stack.pop()
        else:
            stack.append((name, s))
    return stack


def format_history(history: History) -> str:
    if not history:
        return "1"
    return " ".join(n if s > 0 else n + "^-1" for n, s in history)


def parse_history(text: str) -> History:
    if text.strip() == "1":
        return []
    out: History = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        elif "^" in tok:
            raise ValueError("bad history token: %r" % (tok,))
        else:
            out.append((tok, 1))
    return out


@dataclass
class NoiseDecl:
    """Per-sector noisy structure: K_i, M_i, N_i and the bijection phi_i."""
    K: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    M: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    N: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    phi: Dict[int, Dict[int, int]] = field(default_factory=dict)


@dataclass
class Computation:
    """A replayed computation: words[j] = words[0] . history[:j].

    Runs replayed with ``trace=False`` keep only the endpoints, so there
    ``words`` is just ``[start, final]``.  The words of a run are built
    from its buffers as they are handed out: a tape a step left unchanged
    is the same Word in both configurations, and so are the equal tapes
    of the windows of one class.
    """
    words: List[AdmissibleWord]
    history: History

    @property
    def time(self) -> int:
        return len(self.history)

    def final(self) -> AdmissibleWord:
        return self.words[-1]


class Machine:
    """Hardware, positive rules, and a noise declaration checked on build."""

    def __init__(self, name: str, hw: Hardware,
                 rules: Sequence[GeneralizedRule],
                 input_sectors: Sequence[int] = (),
                 noise: Optional[NoiseDecl] = None):
        self.name = name
        self.hw = hw
        self.rules: Dict[str, GeneralizedRule] = {}
        for r in rules:
            if r.name in self.rules:
                raise ValueError("duplicate rule name %s" % r.name)
            if not r.positive:
                raise ValueError("machines carry positive rules only")
            self.rules[r.name] = r
        self.input_sectors = list(input_sectors)
        self.noise = noise
        self._inv_cache: Dict[str, GeneralizedRule] = {}
        if noise is not None:
            validate_noisy(self)

    def rule(self, name: str, sign: int = 1) -> GeneralizedRule:
        """The rule ``name`` (a trailing ``^-1`` inverts it) to the power
        ``sign``, which must be the int 1 or -1."""
        if type(sign) is not int or sign not in (1, -1):
            raise HistoryEntryError("history signs must be +-1")
        if not isinstance(name, str):
            raise HistoryEntryError("rule name %r is not a string" % (name,))
        if name.endswith("^-1"):
            name, sign = name[:-3], -sign
        base = self.rules.get(name)
        if base is None:
            raise UnknownRuleError(name)
        if sign > 0:
            return base
        if name not in self._inv_cache:
            self._inv_cache[name] = invert_rule(base)
        return self._inv_cache[name]

    def theta(self) -> List[Tuple[str, int]]:
        """All signed rules, positives first."""
        out = [(n, 1) for n in self.rules]
        out.extend((n, -1) for n in self.rules)
        return out

    # -- configurations --------------------------------------------------

    def configuration(self, tapes: Dict[int, Word],
                      which: str = "start") -> AdmissibleWord:
        if which not in ("start", "end"):
            raise ValueError("which is 'start' or 'end', not %r" % (which,))
        for i in tapes:
            if not 0 < i < self.hw.n_parts:
                raise MachineError("sector %d holds no tape of a "
                                   "configuration" % i)
        states = [getattr(p, which) for p in self.hw.parts]
        empty = self.hw.alpha.word()
        ws = [tapes.get(i, empty) for i in range(1, self.hw.n_parts)]
        return AdmissibleWord(self.hw, states, ws)

    def accept_config(self) -> AdmissibleWord:
        return self.configuration({}, which="end")

    def input_config(self, inputs: Dict[int, Word]) -> AdmissibleWord:
        for i in inputs:
            if i not in self.input_sectors:
                raise MachineError("sector %d is not an input sector" % i)
        return self.configuration(dict(inputs), which="start")

    # -- running -----------------------------------------------------------

    def run(self, W: AdmissibleWord, history: History,
            trace: bool = True) -> Computation:
        """The computation of W along ``history``, or StepError naming the
        first step that does not apply.

        The tapes are copied once into run-owned buffers (see
        :class:`_Run`), every step edits them in place, and Words are built
        only for the configurations handed out: each one when ``trace``,
        else the last.
        """
        run = _Run(W)
        words = [W]
        for k, entry in enumerate(history):
            try:
                try:
                    name, s = entry
                except (TypeError, ValueError):
                    raise HistoryEntryError(_NOT_A_PAIR % (entry,)) from None
                run.step(self.rule(name, s))
            except MachineError as e:
                raise StepError(k, e) from e
            if trace:
                words.append(run.word())
        if not trace and history:
            words.append(run.word())
        return Computation(words, list(history))

    def semi_run(self, w: Word, sector: int, history: History) -> List[Word]:
        """The words of the semi-computation of w along ``history`` in
        ``sector``: each step is :func:`semi_apply`'s, made in place on one
        buffer, and the marks of each word pass on to the next step."""
        return self._semi_run(w, sector, history, _fresh(w.ltrs))

    def _semi_run(self, w: Word, sector: int, history: History,
                  marks: _Marks) -> List[Word]:
        """:meth:`semi_run` from ``marks``, marks of w the caller holds."""
        out = [w]
        buf = list(w.ltrs)
        for k, entry in enumerate(history):
            try:
                try:
                    name, s = entry
                except (TypeError, ValueError):
                    raise HistoryEntryError(_NOT_A_PAIR % (entry,)) from None
                marks = _sector_step(self.rule(name, s)._sector(sector),
                                     sector, out[-1], buf, marks)
            except MachineError as e:
                raise StepError(k, e) from e
            out.append(Word(w.alpha, tuple(buf)))
        return out


def validate_noisy(machine: Machine) -> Dict[Tuple[str, int], int]:
    """Check the noisy shape of every positive rule in every real sector.

    Returns {(rule name, sector): form} with form in {0 (locked), 1, 2, 3}.
    Raises MachineError if some rule fits no form or a noise basis is not
    free, naming the first such sector.  A form depends only on the
    sector rule and its sector's declaration, so each sector rule keeps
    the form of each declaration it was classified under (``forms``),
    and a tower stage hands those verdicts on to its image, under the
    renamed declaration (``towers._map_sectors``): each pair is
    classified once across a tower.  A form-3 entry sends a letter m of
    M_i to v m.  Each distinct basis of noise words v is decided once, by
    :func:`_noise_free`: descriptors by arithmetic, words by
    :func:`validate_basis`.
    """
    noise = machine.noise or NoiseDecl()
    hw = machine.hw
    decls: Dict[tuple, int] = {}  # a sector's declaration -> its number
    decl: Dict[int, int] = {}  # sector -> the number of its declaration
    for i in hw.sector_indices():
        d = (tuple(noise.K.get(i, ())), tuple(noise.M.get(i, ())),
             tuple(noise.N.get(i, ())), tuple(noise.phi.get(i, {}).items()))
        decl[i] = decls.setdefault(d, len(decls))
    declared = list(decls)
    seen: Dict[Tuple[int, int], Optional[int]] = {}
    noisy: Dict[int, Dict[int, SectorRule]] = {}  # sector -> form-3 rules
    report: Dict[Tuple[str, int], int] = {}
    for name, rule in machine.rules.items():
        for i in hw.sector_indices():
            sec = rule.sectors[i]
            if sec is None:
                report[(name, i)] = 0
                continue
            key = (id(sec), decl[i])
            if key not in seen:
                d = declared[decl[i]]
                if d not in sec.forms:
                    sec.forms[d] = _classify_sector(d, sec)
                seen[key] = sec.forms[d]
            form = seen[key]
            if form is None:
                raise MachineError("rule %s sector %d fits no noisy form"
                                   % (name, i))
            report[(name, i)] = form
            if form == 3:
                noisy.setdefault(i, {})[id(sec)] = sec
    firsts: Dict[tuple, int] = {}  # (declaration, form-3 rules) -> sector
    for i, secs in noisy.items():
        firsts.setdefault((decl[i], frozenset(secs)), i)
    for (n, ids), i in firsts.items():
        M = set(declared[n][1])
        basis = frozenset(v for k in ids for x, v, _ in _entries(noisy[i][k])
                          if x in M)
        if not _noise_free(basis, hw.alpha):
            raise MachineError("sector %d: noise words do not freely generate"
                               % i)
    return report


def _noise_free(basis: FrozenSet, alpha: Alphabet) -> bool:
    """Whether the noise words ``basis`` freely generate a subgroup of
    rank len(basis).

    Distinct descriptors over one pair (b1, b2) and of one length n > 0
    are free on sight.  Two of them, (k, m) and (k', m') with k < k',
    share exactly k leading letters, and 2k < n, as m > 0 (else
    k = n/2 >= k'); their inverses share as many.  A word begins with b1
    or b2, an inverse with b2^-1 or b1^-1, and these differ as
    b1 != b2^±1.  So the basis passes the overlap test of
    :func:`validate_basis`: it is Nielsen-reduced, and free of rank
    len(basis).  Any other basis is spelled, its equal words merged, and
    decided by :func:`validate_basis`.
    """
    kinds = {(v.b1, v.b2, len(v)) if isinstance(v, NoiseWord) else None
             for v in basis}
    if len(kinds) == 1 and None not in kinds and next(iter(kinds))[2]:
        return True
    spelled = {v.ltrs for v in basis}
    return validate_basis([Word(alpha, v) for v in spelled])


def _entries(sec: SectorRule) -> Optional[List[Tuple[int, object, int]]]:
    """Each basis entry of ``sec`` as (x, v, z), read x -> v z: x its
    letter and z the one letter of its image that is not fixed, v the word
    before z (a ``Word``, empty when x is fixed, or a descriptor).  None
    when the rule is inverted or an image has letters after z."""
    if sec.inverted or any(f is not None and f[2] for f in sec.maps):
        return None
    e = Word(sec.alpha, ())
    return [(y, e, y) if f is None else (y, f[0], f[1])
            for y, f in zip(sec.ys, sec.maps)]


def _classify_sector(d: tuple, sec: SectorRule) -> Optional[int]:
    """The noisy form of ``sec`` under the declaration d = (K, M, N, phi
    items), or None."""
    entries = _entries(sec)
    if entries is None:
        return None
    K, M, N, phi = d
    phi = dict(phi)
    xs = [x for x, _, _ in entries]
    plain = not any(v for _, v, _ in entries)
    # form 1: identity on a subset of Y_i
    if plain and all(x == z for x, _, z in entries):
        return 1
    # form 2: phi_i on K_i
    if plain and sorted(xs) == sorted(K) and \
            all(phi.get(x) == z for x, _, z in entries):
        return 2
    # form 3: M_i u N_i, noise on M, identity on N
    if sorted(xs) == sorted(M + N):
        Nset, Mset = _signed_set(N), set(M)
        for x, v, z in entries:
            if x in Nset:
                ok = not v and z == x
            else:
                ok = x in Mset and z == x and Nset.issuperset(v.letters)
            if not ok:
                return None
        return 3
    return None


# -- text serialization --------------------------------------------------------

def machine_to_text(m: Machine) -> str:
    """Serialize a machine to the line format (round trips bit exactly)."""
    al = m.hw.alpha
    lines: List[str] = []
    head = "MACHINE %s" % m.name
    if m.hw.cyclic:
        head += " cyclic"
    if m.input_sectors:
        head += " inputs=%s" % ",".join(str(i) for i in m.input_sectors)
    lines.append(head)
    for i, p in enumerate(m.hw.parts):
        lines.append("PART %d: %s [start=%s,end=%s]"
                     % (i, " ".join(al.name_of(q) for q in p.letters),
                        al.name_of(p.start), al.name_of(p.end)))
    for i, t in enumerate(m.hw.tapes):
        if not t:
            continue
        toks = []
        for y in t:
            name = al.name_of(y)
            if ":" in name:
                raise ValueError("letter name %r cannot be serialized" % name)
            sk = al.subkind_of(y)
            toks.append(name if sk == "o" else "%s:%s" % (name, sk))
        lines.append("TAPE %d: %s" % (i, " ".join(toks)))
    if m.noise is not None:
        sectors = sorted(set(m.noise.K) | set(m.noise.M) | set(m.noise.N))
        for i in sectors:
            phi = m.noise.phi.get(i, {})
            lines.append("NOISE %d: K={%s} M={%s} N={%s} phi=[%s]" % (
                i,
                ",".join(al.name_of(y) for y in m.noise.K.get(i, ())),
                ",".join(al.name_of(y) for y in m.noise.M.get(i, ())),
                ",".join(al.name_of(y) for y in m.noise.N.get(i, ())),
                ",".join("%s->%s" % (al.name_of(k), al.name_of(v))
                         for k, v in phi.items())))
    for name, rule in m.rules.items():
        for i, rp in enumerate(rule.parts):
            mid = []
            if rp.u:
                mid.append(rp.u.format())
            mid.append(al.name_of(rp.q2))
            if rp.v:
                mid.append(rp.v.format())
            line = "RULE %s: %d: %s -> %s" % (name, i, al.name_of(rp.q),
                                              " ".join(mid))
            sec = rule.sectors[i]
            if sec is not None:
                line += " | X={%s} Z={%s} f=[%s]" % (
                    ";".join(w.format() for w in sec.X),
                    ";".join(w.format() for w in sec.Z),
                    ",".join("%d->%d" % (k, k) for k in range(len(sec.X))))
            lines.append(line)
        for i in range(m.hw.n_parts):
            if rule.sectors[i] is None and (i > 0 or m.hw.cyclic):
                lines.append("LOCK %s %d" % (name, i))
    return "\n".join(lines) + "\n"


def _parse_braced(chunk: str, tag: str) -> str:
    chunk = chunk.strip()
    if not chunk.startswith(tag + "={") or not chunk.endswith("}"):
        raise ValueError("expected %s={...}, got %r" % (tag, chunk))
    return chunk[len(tag) + 2:-1]


def machine_from_text(text: str) -> Machine:
    """Parse the line format produced by machine_to_text.

    Raises ParseError, naming the line at fault, on text that does not
    parse or does not describe a valid machine; a noise declaration that
    :func:`validate_noisy` rejects is blamed on the first NOISE line.
    """
    at = [0]
    try:
        return _machine_from_text(text, at)
    except (IndexError, KeyError, ValueError) as e:
        raise ParseError(at[0], e.args[0] if e.args else repr(e)) from e


def _machine_from_text(text: str, at: List[int]) -> Machine:
    """machine_from_text's parser; at[0] follows the line at work: the one
    being read, then the line each item was declared on."""
    name = None
    cyclic = False
    inputs: List[int] = []
    part_lines: Dict[int, Tuple[List[str], str, str, int]] = {}
    tape_lines: Dict[int, Tuple[int, List[Tuple[str, str]]]] = {}
    noise_lines: Dict[int, tuple] = {}
    rule_lines: Dict[str, Dict[int, Tuple[int, str]]] = {}
    locks: Dict[str, set] = {}
    order: Dict[str, int] = {}

    for at[0], raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("MACHINE "):
            if name is not None:
                raise ValueError("second MACHINE line")
            toks = line.split()
            name = toks[1]
            for t in toks[2:]:
                if t == "cyclic":
                    cyclic = True
                elif t.startswith("inputs="):
                    inputs = [int(x) for x in t[7:].split(",") if x]
                else:
                    raise ValueError("bad MACHINE flag %r" % t)
        elif line.startswith("PART "):
            head, _, rest = line.partition(":")
            i = int(head.split()[1])
            if i in part_lines:
                raise ValueError("second PART %d line" % i)
            toks = rest.split()
            if not toks or not toks[-1].startswith("[start="):
                raise ValueError("PART line needs [start=..,end=..]")
            ann = toks[-1][1:-1]
            start = end = None
            for kv in ann.split(","):
                k, _, v = kv.partition("=")
                if k == "start":
                    start = v
                elif k == "end":
                    end = v
            part_lines[i] = (toks[:-1], start, end, at[0])
        elif line.startswith("TAPE "):
            head, _, rest = line.partition(":")
            i = int(head.split()[1])
            if i in tape_lines:
                raise ValueError("second TAPE %d line" % i)
            entries = []
            for tok in rest.split():
                if ":" in tok:
                    nm, _, sk = tok.partition(":")
                    entries.append((nm, sk))
                else:
                    entries.append((tok, "o"))
            tape_lines[i] = (at[0], entries)
        elif line.startswith("NOISE "):
            head, _, rest = line.partition(":")
            i = int(head.split()[1])
            if i in noise_lines:
                raise ValueError("second NOISE %d line" % i)
            chunks = rest.split()
            K = [x for x in _parse_braced(chunks[0], "K").split(",") if x]
            M = [x for x in _parse_braced(chunks[1], "M").split(",") if x]
            N = [x for x in _parse_braced(chunks[2], "N").split(",") if x]
            phis = chunks[3].strip()
            if not phis.startswith("phi=[") or not phis.endswith("]"):
                raise ValueError("bad NOISE phi chunk %r" % phis)
            pairs = []
            for kv in phis[5:-1].split(","):
                if not kv:
                    continue
                a, _, b = kv.partition("->")
                pairs.append((a, b))
            noise_lines[i] = (at[0], K, M, N, pairs)
        elif line.startswith("RULE "):
            head, _, rest = line[5:].partition(":")
            rname = head.strip()
            istr, _, body = rest.partition(":")
            i = int(istr)
            bodies = rule_lines.setdefault(rname, {})
            if i in bodies:
                raise ValueError("second RULE %s: %d line" % (rname, i))
            bodies[i] = (at[0], body.strip())
            order.setdefault(rname, at[0])
        elif line.startswith("LOCK "):
            toks = line.split()
            locks.setdefault(toks[1], set()).add((int(toks[2]), at[0]))
            order.setdefault(toks[1], at[0])
        else:
            raise ValueError("unrecognized line: %r" % line)

    at[0] = 0
    if name is None:
        raise ValueError("missing MACHINE line")

    al = Alphabet()
    if sorted(part_lines) != list(range(len(part_lines))):
        raise ValueError("PART indices must be 0..N")
    parts = []
    for _, (letters, start, end, at[0]) in sorted(part_lines.items()):
        ids = tuple(al.intern(nm, kind="q") for nm in letters)
        parts.append(Part(ids, al.id_of(start), al.id_of(end)))
    tapes: List[Tuple[int, ...]] = []
    for i in range(len(parts)):
        at[0], entries = tape_lines.get(i, (at[0], []))
        tapes.append(tuple(al.intern(nm, kind="a", subkind=sk)
                           for nm, sk in entries))
    hw = Hardware(al, parts, tapes, cyclic=cyclic)

    noise = None
    if noise_lines:
        noise = NoiseDecl()
        for i, (at[0], K, M, N, pairs) in sorted(noise_lines.items()):
            noise.K[i] = tuple(al.id_of(x) for x in K)
            noise.M[i] = tuple(al.id_of(x) for x in M)
            noise.N[i] = tuple(al.id_of(x) for x in N)
            noise.phi[i] = {al.id_of(a): al.id_of(b) for a, b in pairs}

    rules = []
    for rname, at[0] in order.items():
        bodies = rule_lines.get(rname, {})
        if sorted(bodies) != list(range(len(parts))):
            raise ValueError("rule %s: need one line per part" % rname)
        rparts: List[RulePart] = []
        sectors: List[Optional[SectorRule]] = [None] * len(parts)
        for i in range(len(parts)):
            at[0], body = bodies[i]
            main, _, tail = body.partition("|")
            lhs, _, rhs = main.partition("->")
            q = al.id_of(lhs.strip())
            toks = rhs.split()
            qpos = [k for k, t in enumerate(toks)
                    if "^" not in t and t in al and al.kind_of(al.id_of(t)) == "q"]
            if len(qpos) != 1:
                raise ValueError("rule %s part %d: need exactly one state "
                                 "letter on the right" % (rname, i))
            k = qpos[0]
            u = al.parse(" ".join(toks[:k])) if k else al.word()
            v = al.parse(" ".join(toks[k + 1:])) if k + 1 < len(toks) else al.word()
            rparts.append(RulePart(q, u, al.id_of(toks[k]), v))
            tail = tail.strip()
            if tail:
                # split into X={...} Z={...} f=[...]; words may contain spaces
                xs = _parse_braced(tail[:tail.index("} Z={") + 1], "X")
                rest2 = tail[tail.index("} Z={") + 2:]
                zs = _parse_braced(rest2[:rest2.index("} f=[") + 1], "Z")
                fs = rest2[rest2.index("} f=[") + 5:]
                if not fs.endswith("]"):
                    raise ValueError("bad f chunk in rule %s" % rname)
                fs = fs[:-1]
                X = tuple(al.parse(wt) for wt in xs.split(";") if wt != "")
                Z = tuple(al.parse(wt) for wt in zs.split(";") if wt != "")
                perm = {}
                for kv in fs.split(","):
                    if not kv:
                        continue
                    a, _, b = kv.partition("->")
                    perm[int(a)] = int(b)
                if perm and sorted(perm) != list(range(len(X))):
                    raise ValueError("bad f permutation in rule %s" % rname)
                if perm:
                    Z = tuple(Z[perm[k]] for k in range(len(X)))
                sectors[i] = SectorRule(X, Z)
        for i, at[0] in locks.get(rname, set()):
            if sectors[i] is not None:
                raise ValueError("rule %s sector %d both locked and given "
                                 "bases" % (rname, i))
        rules.append(GeneralizedRule(hw, rname, rparts, sectors))
    if noise_lines:
        # Machine checks the noise: a refusal blames the first NOISE line
        at[0] = min(entry[0] for entry in noise_lines.values())
    return Machine(name, hw, rules, input_sectors=inputs, noise=noise)
