"""Typed free-group words over interned alphabets.

Every other layer of the package works with words over a mixed alphabet of
state letters, tape letters, and (at the presentation level) rule letters.
A letter is interned once into an :class:`Alphabet` and afterwards handled
as a signed integer id, so words are tuples of nonzero ints and a letter's
name, kind, subkind and coordinate live in side tables on the alphabet.
Where a letter sits, its part or sector, is the hardware's to record.

Kinds:

* ``"q"``  state letter
* ``"a"``  tape letter, carries a subkind
* ``"t"``  rule letter used by group presentations

Tape subkinds (``"A"``, ``"b"``, ``"o"``) classify input-alphabet copies,
noise letters, and ordinary letters; the typed length of a word splits as
``|w|_a == |w|_A + |w|_b + |w|_o``.

Text format: letters are space separated, a letter is ``name`` or
``name^-1``, and the empty word prints as ``1``. Round trips are bit exact.
"""

from __future__ import annotations

from itertools import takewhile
from operator import add, not_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

KINDS = ("q", "a", "t")
SUBKINDS = ("A", "b", "o")


class MachineError(ValueError):
    """Base class for domain errors raised by machine operations."""


class BasisSearchError(MachineError):
    """express_in_basis found no expression for a word its basis folds to
    accept: the basis lies outside the classes the peel search supports."""


class UnknownLetterError(MachineError, KeyError):
    """A letter name the alphabet does not carry; a KeyError too, like any
    failed lookup by name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__("unknown letter: %r" % (name,))

    def __str__(self) -> str:
        return self.args[0]


class Alphabet:
    """Intern table for letters. Ids are 1-based so ``-id`` is the inverse."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []
        self._kinds: List[str] = []
        self._subkinds: List[Optional[str]] = []
        self._coords: List[Optional[int]] = []

    def intern(
        self,
        name: str,
        kind: str = "a",
        subkind: str = "o",
        coord: Optional[int] = None,
    ) -> int:
        """Intern ``name`` and return its id. Re-interning must agree on
        kind, subkind and coord.

        >>> al = Alphabet()
        >>> al.intern("a", subkind="A")
        1
        >>> al.intern("a", subkind="A")
        1
        >>> al.intern("a", subkind="b", coord=3)
        Traceback (most recent call last):
        ...
        ValueError: letter 'a' re-interned as ('a', 'b', 3) != ('a', 'A', None)
        """
        if not name or any(c.isspace() for c in name) or "^" in name:
            raise ValueError("bad letter name: %r" % (name,))
        if kind not in KINDS:
            raise ValueError("bad kind: %r" % (kind,))
        if kind == "a" and subkind not in SUBKINDS:
            raise ValueError("bad subkind: %r" % (subkind,))
        sub = subkind if kind == "a" else None
        if name in self._ids:
            i = self._ids[name]
            had = (self._kinds[i - 1], self._subkinds[i - 1],
                   self._coords[i - 1])
            if (kind, sub, coord) != had:
                raise ValueError("letter %r re-interned as %r != %r"
                                 % (name, (kind, sub, coord), had))
            return i
        self._names.append(name)
        self._kinds.append(kind)
        self._subkinds.append(sub)
        self._coords.append(coord)
        i = len(self._names)
        self._ids[name] = i
        return i

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownLetterError(name) from None

    def _row(self, i: int) -> int:
        """The table row of letter id i, of either sign."""
        if not 0 < abs(i) <= len(self._names):
            raise ValueError("letter id %d is not in the alphabet" % i)
        return abs(i) - 1

    def name_of(self, i: int) -> str:
        return self._names[self._row(i)]

    def kind_of(self, i: int) -> str:
        return self._kinds[self._row(i)]

    def subkind_of(self, i: int) -> Optional[str]:
        return self._subkinds[self._row(i)]

    def coord_of(self, i: int) -> Optional[int]:
        return self._coords[self._row(i)]

    def ids(self, kind: Optional[str] = None) -> List[int]:
        return [i + 1 for i in range(len(self._names))
                if kind is None or self._kinds[i] == kind]

    # -- word construction ------------------------------------------------

    def word(self, letters: Iterable[int] = ()) -> "Word":
        return Word(self, free_reduce(letters))

    def raw_word(self, letters: Iterable[int]) -> "Word":
        """Build a word asserted to be already reduced (checked), of
        letter ids of this alphabet.

        >>> al = Alphabet(); _ = al.intern("a")
        >>> al.raw_word([0])
        Traceback (most recent call last):
        ...
        ValueError: letter id 0 is not in the alphabet
        """
        ltrs = tuple(letters)
        if ltrs and (0 in ltrs or max(map(abs, ltrs)) > len(self._names)):
            x = next(x for x in ltrs if not 0 < abs(x) <= len(self._names))
            raise ValueError("letter id %d is not in the alphabet" % x)
        for a, b in zip(ltrs, ltrs[1:]):
            if a == -b:
                raise ValueError("raw_word got a reducible sequence")
        return Word(self, ltrs)

    def parse(self, text: str) -> "Word":
        """Parse the textual word format.

        >>> al = Alphabet(); _ = al.intern("a"); _ = al.intern("b")
        >>> al.parse("a b^-1 a").format()
        'a b^-1 a'
        >>> al.parse("1").format()
        '1'
        """
        toks = text.split()
        if toks == ["1"]:
            return self.word()
        out: List[int] = []
        for tok in toks:
            if tok.endswith("^-1"):
                out.append(-self.id_of(tok[:-3]))
            elif "^" in tok:
                raise ValueError("bad letter token: %r" % (tok,))
            else:
                out.append(self.id_of(tok))
        return self.word(out)


def free_reduce(letters: Iterable[int]) -> Tuple[int, ...]:
    """Stack reduction of a signed-id sequence; cancels adjacent inverses."""
    stack: List[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("letter id 0")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def junction(left: Sequence[int], right: Sequence[int]) -> int:
    """How many letters cancel where the reduced ``left`` meets the reduced
    ``right``: the end of ``left`` against the start of ``right``, found
    by one C-level pass.

    >>> junction((1, 2, 3), (-3, -2, 4))
    2
    """
    return len(list(takewhile(not_, map(add, reversed(left), right))))


def reduces_to(x: Tuple[int, ...], y: Tuple[int, ...]) -> bool:
    """Whether x freely equals y, found by matching: x is compared with y
    64 letters at a time, a chunk that differs is read letter by letter,
    and only the letters where x leaves y are stacked, to cancel among
    themselves.  True means x and y are freely equal; when y is reduced,
    False means they are not.

    >>> reduces_to((1, 2, -2, 3), (1, 3)), reduces_to((1, 3), (1, 2, -2, 3))
    (True, False)
    """
    n, m, i, j = len(x), len(y), 0, 0
    extra: List[int] = []
    while i < n:
        if not extra:
            chunk = x[i:i + 64]
            if chunk == y[j:j + 64]:
                i, j = i + 64, j + len(chunk)
                continue
        for a in x[i:i + 64]:
            if extra and extra[-1] == -a:
                extra.pop()
            elif not extra and j < m and y[j] == a:
                j += 1
            else:
                extra.append(a)
        i += 64
    return not extra and j == m


class Word:
    """A freely reduced word, immutable, tied to its alphabet."""

    __slots__ = ("alpha", "ltrs")

    def __init__(self, alpha: Alphabet, ltrs: Tuple[int, ...]):
        self.alpha = alpha
        self.ltrs = ltrs

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if self.alpha is not other.alpha:
            raise ValueError("words over different alphabets")
        a, b = self.ltrs, other.ltrs
        k = junction(a, b)
        return Word(self.alpha, a[:len(a) - k] + b[k:] if k else a + b)

    def __invert__(self) -> "Word":
        return Word(self.alpha, tuple(-x for x in reversed(self.ltrs)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        return self.alpha.word(base.ltrs * abs(n))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Word) and other.alpha is self.alpha
                and other.ltrs == self.ltrs)

    def __hash__(self) -> int:
        return hash((id(self.alpha), self.ltrs))

    def __len__(self) -> int:
        return len(self.ltrs)

    def __bool__(self) -> bool:
        return bool(self.ltrs)

    def __repr__(self) -> str:
        return "Word(%s)" % self.format()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alpha, self.ltrs[i])
        return self.ltrs[i]

    # -- text --------------------------------------------------------------

    def format(self) -> str:
        if not self.ltrs:
            return "1"
        al = self.alpha
        return " ".join(al.name_of(x) if x > 0 else al.name_of(x) + "^-1"
                        for x in self.ltrs)


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Return (core, conj) with ``w == conj * core * ~conj`` and core
    cyclically reduced.

    >>> al = Alphabet(); _ = al.intern("a"); _ = al.intern("b")
    >>> core, c = cyclic_reduce(al.parse("a b a^-1"))
    >>> core.format(), c.format()
    ('b', 'a')
    """
    ltrs = w.ltrs
    i, j = 0, len(ltrs)
    while j - i >= 2 and ltrs[i] == -ltrs[j - 1]:
        i += 1
        j -= 1
    return Word(w.alpha, ltrs[i:j]), Word(w.alpha, ltrs[:i])


def substitute(w: Word, images: Dict[int, Word], target: Alphabet) -> Word:
    """Apply the homomorphism sending letter id i to images[i].

    Ids missing from ``images`` are an error; the result is reduced.
    """
    out: List[int] = []
    for x in w.ltrs:
        img = images[abs(x)]
        out.extend(img.ltrs if x > 0 else (~img).ltrs)
    return Word(target, free_reduce(out))


def relabel(w: Word, letter_map: Dict[int, int], target: Alphabet) -> Word:
    """Letter-to-letter rename, preserving signs."""
    return Word(target, tuple(
        letter_map[abs(x)] if x > 0 else -letter_map[abs(x)] for x in w.ltrs))


def relabel_by_name(w: Word, target: Alphabet) -> Word:
    """Letter-to-letter transfer into target, each letter going to the
    target letter of the same name, preserving signs; raises
    UnknownLetterError for a letter target lacks."""
    src = w.alpha
    return Word(target, tuple(
        (1 if x > 0 else -1) * target.id_of(src.name_of(x))
        for x in w.ltrs))


# -- subgroup membership via Stallings folding ------------------------------

class _Folder:
    """Folded core graph of the subgroup generated by a list of words.

    Each word t is added as a loop at the base vertex, shortest word
    first, and read before anything is built: its longest prefix forward
    from the base along existing edges, to vertex v at index i, and its
    longest suffix backward into the base, to vertex u at index j >= i.
    Where the reads meet (i == j), v is identified with u; that is the
    only merge, and ``_drain`` cascades the folds it sets off (union-find,
    the loser's edges re-queued).  Otherwise t[i:j] is laid as a fresh
    path from v to u, and nothing can collide: each read stopped because
    its end label is absent, and the inner vertices are new.  Where v == u
    and t[i] == -t[j-1] both ends need the same missing edge, so it is
    laid once, as a stem to a new vertex.

    The folded graph of a set of words does not depend on the order they
    are added (Stallings), so the sort changes no answer.  It lets short
    words close the graph up first, so long ones mostly read through it.
    """

    def __init__(self, basis: Sequence[Word]):
        for b in basis:
            if not b:
                raise ValueError("empty word in basis")
        self.parent: List[int] = [0]
        self.adj: List[Dict[int, int]] = [dict()]
        self._queue: List[Tuple[int, int, int]] = []
        for b in sorted(basis, key=len):
            self._loop(b.ltrs)

    def _new_vertex(self) -> int:
        self.parent.append(len(self.parent))
        self.adj.append(dict())
        return len(self.parent) - 1

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def _loop(self, t: Tuple[int, ...]) -> None:
        adj, find = self.adj, self._find
        v = u = find(0)
        i, j = 0, len(t)
        while i < j and t[i] in adj[v]:
            v = find(adj[v][t[i]])
            i += 1
        while j > i and -t[j - 1] in adj[u]:
            u = find(adj[u][-t[j - 1]])
            j -= 1
        if i == j:
            if v != u:
                self._merge(v, u)
                self._drain()
            return
        while v == u and t[i] == -t[j - 1]:
            w = self._new_vertex()
            adj[v][t[i]] = w
            adj[w][-t[i]] = v
            v = u = w
            i += 1
            j -= 1
        for k in range(i, j):
            w = u if k == j - 1 else self._new_vertex()
            adj[v][t[k]] = w
            adj[w][-t[k]] = v
            v = w

    def _drain(self) -> None:
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


BasisExpression = List[Tuple[int, int]]


def validate_basis(basis: Sequence[Word]) -> bool:
    """True iff the words freely generate a subgroup of rank len(basis).

    >>> al = Alphabet(); _ = al.intern("a"); _ = al.intern("b")
    >>> validate_basis([al.parse("a a"), al.parse("b")])
    True
    >>> validate_basis([al.parse("a"), al.parse("a^-1")])
    False
    """
    return free_basis_folder(basis) is not None


def free_basis_folder(basis: Sequence[Word]) -> Optional[_Folder]:
    """The folded core graph of <basis> when the words freely generate a
    subgroup of rank len(basis), else None.  Its ``accepts`` decides
    membership in that subgroup."""
    if any(not b for b in basis):
        return None
    folder = _Folder(basis)
    return folder if folder.rank() == len(basis) else None


def is_member(w: Word, basis: Sequence[Word]) -> bool:
    """Membership of w in the subgroup generated by the given words.

    Unlike :func:`express_in_basis` this never searches for an expression,
    so it is complete for every generating set (the words need not be free).

    >>> al = Alphabet(); _ = al.intern("a"); _ = al.intern("b")
    >>> is_member(al.parse("a a b"), [al.parse("a a"), al.parse("b")])
    True
    >>> is_member(al.parse("a"), [al.parse("a a"), al.parse("b")])
    False
    """
    if not w:
        return True
    gens = [b for b in basis if b]
    if not gens:
        return False
    return _Folder(gens).accepts(w)


_PEEL_BUDGET = 200_000


def express_in_basis(w: Word, basis: Sequence[Word]) -> Optional[BasisExpression]:
    """Write ``w`` as a product of basis elements, or None if not a member.

    Returns a list of (basis index, sign) terms whose ordered product is
    ``w``. For a basis that passes :func:`validate_basis` the expression is
    the unique reduced one and its term count is the basis length of ``w``.
    Raises :class:`BasisSearchError` when ``w`` is a member but the bounded
    peel search finds no expression, and ValueError when ``w`` and the
    basis are words over different alphabets.

    >>> al = Alphabet(); _ = al.intern("a"); _ = al.intern("b")
    >>> express_in_basis(al.parse("a a b"), [al.parse("a a"), al.parse("b")])
    [(0, 1), (1, 1)]
    >>> express_in_basis(al.parse("a"), [al.parse("a a"), al.parse("b")]) is None
    True
    """
    for b in basis:
        if not b:
            raise ValueError("empty word in basis")
        if b.alpha is not w.alpha:
            raise ValueError("word and basis are over different alphabets")
    if not w:
        return []
    if not basis:
        return None
    folder = _Folder(basis)
    if not folder.accepts(w):
        return None

    # fast path: single-letter basis
    if all(len(b) == 1 for b in basis):
        letter_at: Dict[int, Tuple[int, int]] = {}
        for j, b in enumerate(basis):
            x = b.ltrs[0]
            if x not in letter_at:
                letter_at[x] = (j, 1)
            if -x not in letter_at:
                letter_at[-x] = (j, -1)
        expr = [letter_at[x] for x in w.ltrs]
        return expr

    # bounded breadth-first peeling, complete for Nielsen-reduced-like bases
    signed = [(j, s, b if s > 0 else ~b) for j, b in enumerate(basis) for s in (1, -1)]
    start = w
    prev: Dict[Word, Tuple[Word, int, int]] = {}
    frontier = [start]
    seen = {start}
    empty = w.alpha.word()
    found = start == empty
    nodes = 0
    while frontier and not found:
        nxt: List[Word] = []
        for cur in frontier:
            for j, s, bw in signed:
                rem = (~bw) * cur
                if len(rem) > len(cur) or rem in seen:
                    continue
                nodes += 1
                if nodes > _PEEL_BUDGET:
                    raise BasisSearchError(
                        "express_in_basis: peel budget exhausted; "
                        "basis outside the supported classes")
                seen.add(rem)
                prev[rem] = (cur, j, s)
                if not rem:
                    found = True
                    break
                nxt.append(rem)
            if found:
                break
        frontier = nxt
    if not found:
        raise BasisSearchError(
            "express_in_basis: membership holds but no peel path found; "
            "basis outside the supported classes")
    terms: BasisExpression = []
    cur = empty
    while cur != start:
        cur, j, s = prev[cur]
        terms.append((j, s))
    terms.reverse()
    # defensive forward check
    acc = empty
    for j, s in terms:
        acc = acc * (basis[j] if s > 0 else ~basis[j])
    if acc != w:
        raise BasisSearchError("express_in_basis: internal readback mismatch")
    return terms


def expression_word(basis: Sequence[Word], expr: BasisExpression) -> Word:
    """Multiply out a basis expression."""
    if not basis:
        raise ValueError("empty basis")
    ltrs: List[int] = []
    for j, s in expr:
        w = basis[j]
        if s > 0:
            ltrs.extend(w.ltrs)
        else:
            ltrs.extend(-x for x in reversed(w.ltrs))
    return basis[0].alpha.word(ltrs)
