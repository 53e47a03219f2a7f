"""Generalized S-machines: hardware, rules, admissible words, computations.

A machine's hardware is a pair of partitioned alphabets: state parts
Q_0, ..., Q_N and tape alphabets Y_1, ..., Y_N (plus Y_0 for cyclic
hardware, where sector 0 wraps from Q_N back to Q_0). An admissible word
alternates state letters and tape words; each window must fit one of the
three legal shapes, which also assigns the tape word its sector.

A generalized rule carries, per part i, a transition q_i -> u_i q_i' v_{i+1}
and, per sector i, either a lock or a pair of free bases X_i, Z_i with the
isomorphism f_i matching them up by position. Each sector is compiled once,
when it is built, into letter tables (see :class:`SectorRule`). Applying the
rule rewrites each window in one stack-reduction pass: the right insert of
the window's left state letter, the image of each tape letter under f_i,
then the left insert of its right state letter. State letters never reduce
against tape letters, so the windows stay apart and need no re-split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from smforge.words import (
    Alphabet, BasisExpression, MachineError, Word, express_in_basis,
    free_basis_folder, free_reduce, validate_basis,
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


class ParseError(ValueError):
    """Machine text that does not parse; ``line`` is the 1-based number of
    the line at fault, or 0 when the text as a whole is."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


# -- hardware ----------------------------------------------------------------

@dataclass
class Part:
    """One part Q_i of the state alphabet."""
    letters: Tuple[int, ...]
    start: int
    end: int


class Hardware:
    """State parts, tape alphabets, and the shared intern table."""

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
        self._part_of: Dict[int, int] = {}
        self._sector_of: Dict[int, int] = {}
        for i, p in enumerate(self.parts):
            for q in p.letters:
                if alpha.kind_of(q) != "q":
                    raise ValueError("part letter %s is not a state letter"
                                     % alpha.name_of(q))
                self._part_of[q] = i
        for i, t in enumerate(self.tapes):
            for y in t:
                if alpha.kind_of(y) != "a":
                    raise ValueError("tape letter %s is not a tape letter"
                                     % alpha.name_of(y))
                # parallel hardware shares tape alphabets between sectors;
                # bookkeeping keeps the first sector carrying each letter
                self._sector_of.setdefault(y, i)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def part_of(self, q: int) -> int:
        return self._part_of[abs(q)]

    def sector_of(self, y: int) -> int:
        """First sector whose alphabet carries y."""
        return self._sector_of[abs(y)]

    def sector_indices(self) -> List[int]:
        """Real sector indices, in tape order."""
        first = 0 if self.cyclic else 1
        return list(range(first, self.n_parts))

    def sector_word(self, sector: int, w: Word) -> bool:
        tape = set(self.tapes[sector])
        return all(abs(x) in tape for x in w.ltrs)

    def next_part(self, i: int) -> int:
        return (i + 1) % self.n_parts if self.cyclic else i + 1


# -- admissible words ---------------------------------------------------------

class AdmissibleWord:
    """Alternating state letters and sector words, with shape checked."""

    __slots__ = ("hw", "states", "tapes", "sectors")

    def __init__(self, hw: Hardware, states: Sequence[Tuple[int, int]],
                 tapes: Sequence[Word], check: bool = True):
        # check=False skips the per-letter sector membership scan; callers
        # must guarantee the tape words already lie in their sectors.
        if len(states) != len(tapes) + 1 or not states:
            raise MachineError("admissible word needs k+1 states, k tapes")
        self.hw = hw
        self.states = tuple(states)
        self.tapes = tuple(tapes)
        self.sectors = tuple(self._window_sector(j, check)
                             for j in range(len(tapes)))
        self._check_reduced()

    def _window_sector(self, j: int, check: bool = True) -> int:
        hw = self.hw
        (q1, e1), (q2, e2) = self.states[j], self.states[j + 1]
        p1, p2 = hw.part_of(q1), hw.part_of(q2)
        w = self.tapes[j]
        if e1 == 1 and e2 == 1:
            if hw.next_part(p1) != p2:
                raise MachineError("window %d: parts %d,%d not consecutive"
                                   % (j, p1, p2))
            sector = p2 if p2 != 0 or not hw.cyclic else 0
        elif e1 == -1 and e2 == -1:
            if hw.next_part(p2) != p1:
                raise MachineError("window %d: parts %d,%d not consecutive"
                                   % (j, p1, p2))
            sector = p1 if p1 != 0 or not hw.cyclic else 0
        elif e1 == 1 and e2 == -1:
            if p1 != p2:
                raise MachineError("window %d: q u q^-1 needs equal parts" % j)
            nxt = hw.next_part(p1)
            sector = nxt
        else:
            if p1 != p2:
                raise MachineError("window %d: q^-1 u q needs equal parts" % j)
            sector = p1
            if sector == 0 and not hw.cyclic:
                raise MachineError("window %d: no sector 0 on linear hardware" % j)
        if sector >= hw.n_parts or (sector == 0 and not hw.cyclic):
            raise MachineError("window %d: sector %d does not exist"
                               % (j, sector))
        if check and not hw.sector_word(sector, w):
            raise MachineError("window %d: tape word %r outside sector %d"
                               % (j, w.format(), sector))
        return sector

    def _check_reduced(self) -> None:
        for j, w in enumerate(self.tapes):
            if not w:
                q1, e1 = self.states[j]
                q2, e2 = self.states[j + 1]
                if q1 == q2 and e1 == -e2:
                    raise MachineError("window %d reduces: %s^%d %s^%d"
                                       % (j, self.hw.alpha.name_of(q1), e1,
                                          self.hw.alpha.name_of(q2), e2))

    # -- conversions ---------------------------------------------------------

    def to_word(self) -> Word:
        out: List[int] = []
        for j, (q, e) in enumerate(self.states):
            out.append(e * q)
            if j < len(self.tapes):
                out.extend(self.tapes[j].ltrs)
        return Word(self.hw.alpha, tuple(out))

    @staticmethod
    def from_word(hw: Hardware, w: Word) -> "AdmissibleWord":
        states: List[Tuple[int, int]] = []
        tapes: List[Word] = []
        cur: List[int] = []
        seen_state = False
        for x in w.ltrs:
            if hw.alpha.kind_of(x) == "q":
                if seen_state:
                    tapes.append(Word(hw.alpha, free_reduce(cur)))
                elif cur:
                    raise MachineError("tape letters before first state letter")
                cur = []
                states.append((abs(x), 1 if x > 0 else -1))
                seen_state = True
            else:
                cur.append(x)
        if cur:
            raise MachineError("tape letters after last state letter")
        if not states:
            raise MachineError("no state letters")
        return AdmissibleWord(hw, states, tapes)

    def base(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((self.hw.part_of(q), e) for q, e in self.states)

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

    def size(self) -> int:
        return len(self.to_word())


# -- rules --------------------------------------------------------------------

@dataclass
class RulePart:
    """Transition of part i: q -> u q2 v."""
    q: int
    u: Word
    q2: int
    v: Word


def _join(stack: List[int], letters: Sequence[int]) -> None:
    """Append the freely reduced ``letters`` to the freely reduced
    ``stack``: only the junction can cancel."""
    k = 0
    while k < len(letters) and stack and stack[-1] == -letters[k]:
        stack.pop()
        k += 1
    stack.extend(letters[k:] if k else letters)


def _inverse(ltrs: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(-x for x in reversed(ltrs))


class _LetterMap:
    """A map of signed letters to reduced letter tuples, compiled once.

    ``images`` keeps only the letters that move; every other letter of
    ``domain`` (of any letter when ``domain`` is None) goes to itself, and
    ``fixed`` holds those of ``domain``.
    Applying it to a reduced word copies the runs between moving letters
    at C speed, so the Python work grows with the moving letters alone.
    """

    __slots__ = ("images", "domain", "fixed")

    def __init__(self, images: Dict[int, Tuple[int, ...]],
                 domain: Optional[Iterable[int]]):
        self.images = {y: img for y, img in images.items() if img != (y,)}
        self.domain = None if domain is None else frozenset(domain)
        self.fixed = (frozenset() if domain is None
                      else self.domain.difference(self.images))

    def push(self, stack: List[int], ltrs: Tuple[int, ...]) -> bool:
        """Append the image of the reduced ``ltrs`` to the reduced
        ``stack``, reducing; False, with ``stack`` untouched, when a letter
        lies outside the domain."""
        if self.fixed.issuperset(ltrs):
            _join(stack, ltrs)
            return True
        if self.domain is not None and not self.domain.issuperset(ltrs):
            return False
        images, start = self.images, 0
        if images:
            for i in compress(count(), map(images.__contains__, ltrs)):
                _join(stack, ltrs[start:i])
                _join(stack, images[ltrs[i]])
                start = i + 1
        _join(stack, ltrs[start:] if start else ltrs)
        return True


def _signed(pairs: Iterable[Tuple[int, Tuple[int, ...]]]
            ) -> Dict[int, Tuple[int, ...]]:
    """{y: img, -y: img^-1} for each pair, the first pair of a letter
    winning."""
    out: Dict[int, Tuple[int, ...]] = {}
    for y, img in pairs:
        out.setdefault(y, img)
        out.setdefault(-y, _inverse(img))
    return out


@dataclass
class SectorRule:
    """Unlocked sector data: aligned free bases with f: X[k] -> Z[k].

    ``x_sub`` is an optional letter substitution that rewrites any member of
    <X> into a word whose letters are exactly the single-letter entries of Z,
    read off position-by-position as the X-expression.  It exists so that
    domains like {v*m} u N (whose expressions grow before they shrink) stay
    decidable without search.  ``z_sub`` plays the same role for the inverse
    rule and the two trade places under inversion; both are derived with
    :func:`triangular_sub` when not given.

    Construction compiles the sector once for :meth:`express` and
    :meth:`push_image`:

    * every X entry one letter: a letter map sending each X letter to its
      image under f, and a table from each X letter to its basis term;
    * otherwise, with ``x_sub``: x_sub as a letter map, and a table from
      each single-letter Z entry to its basis term and to its X entry.  The
      substituted word is the image under f once it reads back through X
      to the input;
    * otherwise: :func:`express_in_basis`.
    """
    X: Tuple[Word, ...]
    Z: Tuple[Word, ...]
    x_sub: Optional[Dict[int, Word]] = None
    z_sub: Optional[Dict[int, Word]] = None

    def __post_init__(self) -> None:
        if self.z_sub is None:
            self.z_sub = triangular_sub(self.X, self.Z)
        single = all(len(x.ltrs) == 1 for x in self.X)
        if self.x_sub is None and not single:
            self.x_sub = triangular_sub(self.Z, self.X)
        # _terms: signed letter -> basis term; _map: the letter map whose
        # image of a member w of <X> is f(w); _back: Z letter -> X entry,
        # present only when _map is x_sub
        self._terms: Dict[int, Tuple[int, int]] = {}
        self._map: Optional[_LetterMap] = None
        self._back: Optional[_LetterMap] = None
        if single:
            for j, x in enumerate(self.X):
                self._terms.setdefault(x.ltrs[0], (j, 1))
                self._terms.setdefault(-x.ltrs[0], (j, -1))
            self._map = _LetterMap(_signed(
                (x.ltrs[0], z.ltrs) for x, z in zip(self.X, self.Z)),
                self._terms)
        elif self.x_sub is not None:
            self._map = _LetterMap(_signed(
                (y, img.ltrs) for y, img in self.x_sub.items()), None)
            zs = {z.ltrs[0]: j for j, z in enumerate(self.Z)
                  if len(z.ltrs) == 1 and z.ltrs[0] > 0}
            for y, j in zs.items():
                self._terms[y], self._terms[-y] = (j, 1), (j, -1)
            self._back = _LetterMap(_signed(
                (y, self.X[j].ltrs) for y, j in zs.items()), self._terms)

    def _substituted(self, ltrs: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """x_sub applied to a word, when that reads back through X to it."""
        stack: List[int] = []
        self._map.push(stack, ltrs)
        u = tuple(stack)
        readback: List[int] = []
        if not self._back.push(readback, u) or tuple(readback) != ltrs:
            return None
        return u

    def express(self, w: Word) -> Optional[BasisExpression]:
        """Expression of w over X, or None when w lies outside <X>."""
        if self._map is None:
            return express_in_basis(w, self.X)
        ltrs = w.ltrs
        if self._back is not None:
            ltrs = self._substituted(ltrs)
            if ltrs is None:
                return None
        try:
            return list(map(self._terms.__getitem__, ltrs))
        except KeyError:
            return None

    def push_image(self, stack: List[int], w: Word) -> bool:
        """Append f(w) to the freely reduced letter list ``stack``, reducing;
        False, with ``stack`` untouched, when w lies outside <X>."""
        if self._map is None:
            expr = self.express(w)
            if expr is None:
                return False
            for j, s in expr:
                _join(stack, self.Z[j].ltrs if s > 0
                      else _inverse(self.Z[j].ltrs))
            return True
        if self._back is None:
            return self._map.push(stack, w.ltrs)
        u = self._substituted(w.ltrs)
        if u is None:
            return False
        _join(stack, u)
        return True


def triangular_sub(X: Tuple[Word, ...],
                   Z: Tuple[Word, ...]) -> Optional[Dict[int, Word]]:
    """Inverse substitution for sector maps of the shape x -> p x s.

    Requires every X entry to be a single positive letter and every Z entry
    to be that letter sandwiched by words over the fixed letters (those with
    Z[j] == X[j]).  Returns {x: p^-1 x s^-1}, i.e. the inverse isomorphism as
    a substitution, or None when the shape does not match.
    """
    if not X or not all(len(x.ltrs) == 1 and x.ltrs[0] > 0 for x in X):
        return None
    fixed = {x.ltrs[0] for x, z in zip(X, Z) if x == z}
    sub: Dict[int, Word] = {}
    for x, z in zip(X, Z):
        xl = x.ltrs[0]
        if xl in fixed:
            continue
        hits = [i for i, l in enumerate(z.ltrs) if abs(l) == xl]
        if len(hits) != 1 or z.ltrs[hits[0]] != xl:
            return None
        p = Word(z.alpha, z.ltrs[:hits[0]])
        s = Word(z.alpha, z.ltrs[hits[0] + 1:])
        if any(abs(l) not in fixed for l in p.ltrs + s.ltrs):
            return None
        sub[xl] = (~p) * x * (~s)
    return sub


class GeneralizedRule:
    """A generalized S-rule over fixed hardware.

    ``sectors[i]`` is None when sector i is locked (or, on linear
    hardware, for the nonexistent sector 0).
    """

    def __init__(self, hw: Hardware, name: str, parts: Sequence[RulePart],
                 sectors: Sequence[Optional[SectorRule]],
                 positive: bool = True, check: bool = True):
        self.hw = hw
        self.name = name
        self.parts = list(parts)
        self.sectors = list(sectors)
        self.positive = positive
        # signed state letter -> (left insert, new state letter, right
        # insert), the letters that replace it inside a word
        self._replacement: Dict[int, Tuple[Tuple[int, ...], int,
                                          Tuple[int, ...]]] = {}
        for rp in self.parts:
            self._replacement[rp.q] = (rp.u.ltrs, rp.q2, rp.v.ltrs)
            self._replacement[-rp.q] = (_inverse(rp.v.ltrs), -rp.q2,
                                       _inverse(rp.u.ltrs))
        if check:
            self._validate()

    def _validate(self) -> None:
        hw = self.hw
        if len(self.parts) != hw.n_parts or len(self.sectors) != hw.n_parts:
            raise ValueError("rule %s: wrong part/sector count" % self.name)
        if not hw.cyclic and self.sectors[0] is not None:
            raise ValueError("rule %s: sector 0 on linear hardware" % self.name)
        z_folders = {}
        for i, sec in enumerate(self.sectors):
            if sec is None:
                continue
            if len(sec.X) != len(sec.Z):
                raise ValueError("rule %s sector %d: |X| != |Z|" % (self.name, i))
            for w in sec.X + sec.Z:
                if not hw.sector_word(i, w):
                    raise ValueError("rule %s sector %d: basis word %r "
                                     "outside sector" % (self.name, i, w.format()))
            z_folders[i] = (free_basis_folder(sec.Z)
                            if validate_basis(sec.X) else None)
            if z_folders[i] is None:
                raise ValueError("rule %s sector %d: X or Z not free"
                                 % (self.name, i))
        for i, rp in enumerate(self.parts):
            if hw.part_of(rp.q) != i or hw.part_of(rp.q2) != i:
                raise ValueError("rule %s part %d: state letters in wrong part"
                                 % (self.name, i))
            nxt = hw.next_part(i) if (hw.cyclic or i + 1 < hw.n_parts) else None
            self._check_insert(i, rp.u, z_folders)
            if nxt is None:
                if rp.v:
                    raise ValueError("rule %s part %d: right insert beyond "
                                     "last sector" % (self.name, i))
            else:
                self._check_insert(nxt, rp.v, z_folders)

    def _check_insert(self, sector: int, w: Word, z_folders: Dict) -> None:
        sec = self.sectors[sector] if sector < len(self.sectors) else None
        if sec is None:
            if w:
                raise ValueError("rule %s: insert %r in locked sector %d"
                                 % (self.name, w.format(), sector))
            return
        if not self.hw.sector_word(sector, w):
            raise ValueError("rule %s: insert %r outside sector %d"
                             % (self.name, w.format(), sector))
        if not z_folders[sector].accepts(w):
            raise ValueError("rule %s: insert %r outside <Z_%d>"
                             % (self.name, w.format(), sector))

    # -- queries -------------------------------------------------------------

    def expected_state(self, part: int) -> int:
        return self.parts[part].q

    def locks(self, sector: int) -> bool:
        sec = self.sectors[sector]
        return sec is None or len(sec.X) == 0

    def domain_expr(self, sector: int, w: Word):
        """Expression of w over X_sector, or None."""
        sec = self.sectors[sector]
        if sec is None:
            return [] if not w else None
        return sec.express(w)

    def image(self, sector: int, w: Word) -> Word:
        """f~ applied to w, which must lie in <X_sector>."""
        out: List[int] = []
        if not self._push_image(sector, out, w):
            raise SectorMismatchError(sector, w, self.locks(sector))
        return Word(w.alpha, tuple(out))

    def _push_image(self, sector: int, stack: List[int], w: Word) -> bool:
        sec = self.sectors[sector]
        return sec.push_image(stack, w) if sec is not None else not w

    def format(self) -> str:
        al = self.hw.alpha
        bits = []
        for i, rp in enumerate(self.parts):
            lhs = al.name_of(rp.q)
            mid = " ".join(x for x in [rp.u.format() if rp.u else "",
                                       al.name_of(rp.q2),
                                       rp.v.format() if rp.v else ""] if x)
            arrow = "->"
            nxt = self.hw.next_part(i) if (self.hw.cyclic or i + 1 < self.hw.n_parts) else None
            if nxt is not None and self.locks(nxt):
                arrow = "->l"
            bits.append("%s %s %s" % (lhs, arrow, mid))
        return "[%s]" % ", ".join(bits)

    def __repr__(self) -> str:
        return "GeneralizedRule(%s %s)" % (self.name, self.format())


def invert_rule(rule: GeneralizedRule) -> GeneralizedRule:
    """The inverse generalized rule.

    Part i of the inverse is q_i' -> f_i^-1(u_i^-1) q_i f_{i+1}^-1(v_{i+1}^-1)
    where the f^-1 are read through the swapped bases (X and Z trade places).
    """
    hw = rule.hw
    inv_sectors: List[Optional[SectorRule]] = []
    for sec in rule.sectors:
        inv_sectors.append(None if sec is None else
                           SectorRule(sec.Z, sec.X, sec.z_sub, sec.x_sub))
    tmp = GeneralizedRule(hw, _inv_name(rule.name), rule.parts, inv_sectors,
                          positive=not rule.positive, check=False)

    parts: List[RulePart] = []
    for i, rp in enumerate(rule.parts):
        u2 = tmp.image(i, ~rp.u)
        nxt = hw.next_part(i) if (hw.cyclic or i + 1 < hw.n_parts) else None
        v2 = tmp.image(nxt, ~rp.v) if nxt is not None else rp.v.alpha.word()
        parts.append(RulePart(rp.q2, u2, rp.q, v2))
    return GeneralizedRule(hw, _inv_name(rule.name), parts, inv_sectors,
                           positive=not rule.positive, check=False)


def _inv_name(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


# -- application --------------------------------------------------------------

def _check_states(W: AdmissibleWord, rule: GeneralizedRule) -> None:
    """Raise at the first state letter of W the rule does not expect."""
    hw = W.hw
    for j, (q, _e) in enumerate(W.states):
        expected = rule.expected_state(hw.part_of(q))
        if q != expected:
            raise StateMismatchError(j, hw.alpha.name_of(q),
                                     hw.alpha.name_of(expected))


def _domain_exprs(W: AdmissibleWord,
                  rule: GeneralizedRule) -> List[BasisExpression]:
    """Each tape word of W over the rule's domain basis of its sector;
    raise at the first one outside."""
    exprs = []
    for s, w in zip(W.sectors, W.tapes):
        expr = rule.domain_expr(s, w)
        if expr is None:
            raise SectorMismatchError(s, w, rule.locks(s))
        exprs.append(expr)
    return exprs


def is_admissible(W: AdmissibleWord, rule: GeneralizedRule) -> Optional[MachineError]:
    """None if the rule applies to W, else the error explaining why not."""
    try:
        _check_states(W, rule)
        _domain_exprs(W, rule)
    except (StateMismatchError, SectorMismatchError) as e:
        return e
    return None


def apply_rule(W: AdmissibleWord, rule: GeneralizedRule) -> AdmissibleWord:
    """W . rule, or raise a MachineError describing the obstruction.

    Window j becomes the right insert of state letter j, the image of its
    tape word and the left insert of state letter j+1, reduced on one stack.
    Tape letters left of the first and right of the last state letter are
    dropped.  State letters cancel exactly when a window empties between
    two inverse ones.
    """
    _check_states(W, rule)
    alpha = W.hw.alpha
    repl = [rule._replacement[e * q] for q, e in W.states]
    tapes: List[Word] = []
    cancelled = False
    for j, (s, w) in enumerate(zip(W.sectors, W.tapes)):
        (_, q1, right), (left, q2, _) = repl[j], repl[j + 1]
        out = list(right)
        if not rule._push_image(s, out, w):
            raise SectorMismatchError(s, w, rule.locks(s))
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


def theta_length(W: AdmissibleWord, rule: GeneralizedRule) -> int:
    """l_rule(W) = (k+1) + sum of basis lengths of the tape words."""
    return len(W.states) + sum(len(e) for e in _domain_exprs(W, rule))


def semi_theta_length(w: Word, rule: GeneralizedRule, sector: int) -> int:
    expr = rule.domain_expr(sector, w)
    if expr is None:
        raise SectorMismatchError(sector, w, rule.locks(sector))
    return len(expr)


def semi_apply(w: Word, rule: GeneralizedRule, sector: int) -> Word:
    """One step of a semi-computation in the given sector."""
    return rule.image(sector, w)


# -- machines -----------------------------------------------------------------

History = List[Tuple[str, int]]


def reduce_history(history: History) -> History:
    stack: List[Tuple[str, int]] = []
    for name, s in history:
        if s not in (1, -1):
            raise ValueError("history signs must be +-1")
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
    ``words`` is just ``[start, final]``.
    """
    words: List[AdmissibleWord]
    history: History

    @property
    def time(self) -> int:
        return len(self.history)

    def final(self) -> AdmissibleWord:
        return self.words[-1]


class Machine:
    """Hardware plus a named set of positive rules."""

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

    def rule(self, name: str, sign: int = 1) -> GeneralizedRule:
        if name.endswith("^-1"):
            name, sign = name[:-3], -sign
        base = self.rules.get(name)
        if base is None:
            raise KeyError("unknown rule %r" % name)
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
        states = []
        for i, p in enumerate(self.hw.parts):
            q = p.start if which == "start" else p.end
            states.append((q, 1))
        ws = []
        for i in range(1, self.hw.n_parts):
            ws.append(tapes.get(i, self.hw.alpha.word()))
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
        cur = W
        words = [W]
        for k, (name, s) in enumerate(history):
            try:
                cur = apply_rule(cur, self.rule(name, s))
            except MachineError as e:
                raise StepError(k, e) from e
            if trace:
                words.append(cur)
        if not trace and history:
            words.append(cur)
        return Computation(words, list(history))

    def semi_run(self, w: Word, sector: int, history: History) -> List[Word]:
        out = [w]
        for k, (name, s) in enumerate(history):
            try:
                out.append(semi_apply(out[-1], self.rule(name, s), sector))
            except MachineError as e:
                raise StepError(k, e) from e
        return out


def validate_noisy(machine: Machine) -> Dict[Tuple[str, int], int]:
    """Check the noisy shape of every positive rule in every real sector.

    Returns {(rule name, sector): form} with form in {0 (locked), 1, 2, 3}.
    Raises MachineError if some rule fits no form or a noise basis is not
    free.
    """
    noise = machine.noise or NoiseDecl()
    hw = machine.hw
    report: Dict[Tuple[str, int], int] = {}
    collected: Dict[int, List[Word]] = {}
    for name, rule in machine.rules.items():
        for i in hw.sector_indices():
            sec = rule.sectors[i]
            if sec is None:
                report[(name, i)] = 0
                continue
            form = _classify_sector(hw, noise, i, sec)
            if form is None:
                raise MachineError("rule %s sector %d fits no noisy form"
                                   % (name, i))
            report[(name, i)] = form
            if form == 3:
                Mset = set(noise.M.get(i, ()))
                for x, z in zip(sec.X, sec.Z):
                    if len(x) == 1 and abs(x.ltrs[0]) in Mset:
                        v = z * ~x
                        collected.setdefault(i, []).append(v)
    for i, vs in collected.items():
        uniq = []
        seen = set()
        for v in vs:
            if v.ltrs not in seen:
                seen.add(v.ltrs)
                uniq.append(v)
        if not validate_basis(uniq):
            raise MachineError("sector %d: noise words do not freely generate"
                               % i)
    return report


def _classify_sector(hw: Hardware, noise: NoiseDecl, i: int,
                     sec: SectorRule) -> Optional[int]:
    xs = [w.ltrs[0] for w in sec.X if len(w) == 1 and w.ltrs[0] > 0]
    if len(xs) != len(sec.X):
        return None
    K = tuple(noise.K.get(i, ()))
    M = tuple(noise.M.get(i, ()))
    N = tuple(noise.N.get(i, ()))
    phi = noise.phi.get(i, {})
    # form 1: identity on a subset of Y_i
    if all(len(z) == 1 for z in sec.Z) and \
            all(x == z.ltrs[0] for x, z in zip(xs, sec.Z)):
        return 1
    # form 2: phi_i on K_i
    if sorted(xs) == sorted(K) and all(len(z) == 1 for z in sec.Z) and \
            all(phi.get(x) == z.ltrs[0] for x, z in zip(xs, sec.Z)):
        return 2
    # form 3: M_i u N_i, noise on M, identity on N
    if sorted(xs) == sorted(M + N):
        Nset, Mset = set(N), set(M)
        for x, z in zip(xs, sec.Z):
            if x in Nset:
                if z.ltrs != (x,):
                    return None
            else:
                if not z or z.ltrs[-1] != x:
                    return None
                v = Word(z.alpha, z.ltrs[:-1])
                if not all(abs(c) in Nset for c in v.ltrs):
                    return None
                if x not in Mset:
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
    parse or does not describe a valid machine.
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
    part_lines: List[Tuple[int, List[str], str, str, int]] = []
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
            part_lines.append((i, toks[:-1], start, end, at[0]))
        elif line.startswith("TAPE "):
            head, _, rest = line.partition(":")
            i = int(head.split()[1])
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
            rule_lines.setdefault(rname, {})[i] = (at[0], body.strip())
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
    part_lines.sort(key=lambda p: p[0])
    if [p[0] for p in part_lines] != list(range(len(part_lines))):
        raise ValueError("PART indices must be 0..N")
    parts = []
    for i, letters, start, end, at[0] in part_lines:
        ids = tuple(al.intern(nm, kind="q", part=i) for nm in letters)
        parts.append(Part(ids, al.id_of(start), al.id_of(end)))
    tapes: List[Tuple[int, ...]] = []
    for i in range(len(parts)):
        at[0], entries = tape_lines.get(i, (at[0], []))
        tapes.append(tuple(al.intern(nm, kind="a", sector=i, subkind=sk)
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
    return Machine(name, hw, rules, input_sectors=inputs, noise=noise)
