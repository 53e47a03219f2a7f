"""Initial embedding: an outer group carried into the block alphabet.

The pipeline has three stages.  An outer group R comes as a word-problem
decider over a finite generating set X (a RelatorOracle).  The standard
trick re-presents R over Y = X plus a disjoint copy of formal inverses,
making the relator language a set of positive words.  Each Y letter then
expands into a block A_i of C fresh letters, every letter occurring in
exactly one block at one position; relators expand blockwise, presenting
the expanded group over the block alphabet Y_C.  Finally a fixed
bijection zeta carries Y_C onto the tape alphabet handed to the machine
builders, and the generator images x -> zeta~(phi(x)) are the embedding.

Because blocks share no letters, parsing a word into blocks is
deterministic, and the expanded group has a Dehn-style word problem
(wp_RC): a trivial cyclically reduced word always carries, on some
cyclic permutation, a prefix spelling a cyclic permutation of a block
word whose image in R is trivial, and deleting that prefix removes at
least C letters.  Deletions preserve triviality exactly, so the
procedure is a decision procedure, not a semi-decision.

Blocks are read through two tables compiled once: ``starts`` (the first
letter of each block A_y^{+-1}) and ``splits`` (each letter inside one),
comparing whole blocks as list slices of the word, itself one list edited
in place.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from smforge.words import Alphabet, Word, cyclic_reduce, relabel
from smforge.towers import bar_name


# -- the outer group ---------------------------------------------------------------

@dataclass
class RelatorOracle:
    """Word-problem decider for the outer group, memoized by word."""

    alpha: Alphabet
    letters: Tuple[int, ...]
    decide: Callable[[Word], bool]
    name: str = ""
    _memo: Dict[Tuple[int, ...], bool] = field(default_factory=dict, repr=False)

    def wp(self, w: Word) -> bool:
        if w.alpha is not self.alpha:
            raise ValueError("word is not over the oracle's alphabet")
        got = self._memo.get(w.ltrs)
        if got is None:
            got = self._memo[w.ltrs] = bool(self.decide(w))
        return got


def builtin_oracle(kind: str, letters: Sequence[str] = ("x",)) -> RelatorOracle:
    """The built-in outer groups: "Z" (free abelian) and "Z2" (exponent 2).

    With one generator these are the integers and the two-element group;
    more generators give the direct power, one exponent sum per letter.
    """
    al = Alphabet()
    ids = tuple(al.intern(x) for x in letters)

    def sums(w: Word) -> List[int]:
        out = dict.fromkeys(ids, 0)
        for x in w.ltrs:
            out[abs(x)] += 1 if x > 0 else -1
        return [out[i] for i in ids]

    if kind == "Z":
        return RelatorOracle(al, ids, lambda w: not any(sums(w)), name="Z")
    if kind == "Z2":
        return RelatorOracle(al, ids, lambda w: not any(s % 2 for s in sums(w)),
                             name="Z2")
    raise ValueError("unknown builtin oracle %r" % kind)


# -- standard trick -----------------------------------------------------------------

@dataclass
class StandardTrick:
    """R re-presented over Y = X + formal inverse copies, relators positive.

    ``xi`` sends a plain copy to its letter and a barred copy to the
    inverse; the positive words whose xi-image is trivial in R (and which
    are nonempty) form the relator set S.
    """

    oracle: RelatorOracle
    Y: Alphabet
    y_plain: Tuple[int, ...]
    y_bar: Tuple[int, ...]
    tau: Dict[int, int]

    @property
    def y_letters(self) -> Tuple[int, ...]:
        return self.y_plain + self.y_bar

    @cached_property
    def _x_of(self) -> Dict[int, int]:
        """The xi-image of each signed Y letter, a signed X letter."""
        img = dict(zip(self.y_plain, self.oracle.letters))
        img.update({b: -img[self.tau[b]] for b in self.y_bar})
        img.update({-y: -x for y, x in list(img.items())})
        return img

    def _y(self, w: Word) -> Tuple[int, ...]:
        if w.alpha is not self.Y:
            raise ValueError("word is not over the Y alphabet")
        return w.ltrs

    def xi(self, w: Word) -> Word:
        return self.oracle.alpha.word(map(self._x_of.__getitem__, self._y(w)))

    @cached_property
    def trivial(self) -> Callable[[Tuple[int, ...]], bool]:
        """Whether the signed Y letters ys, a tuple reduced or not, give 1
        in R; each answer is remembered by ys for this trick."""
        return cache(lambda ys: self.oracle.wp(self.oracle.alpha.word(
            map(self._x_of.__getitem__, ys))))

    def in_S(self, w: Word) -> bool:
        ys = self._y(w)
        return len(ys) > 0 and min(ys) > 0 and self.trivial(ys)

    def wp_Y(self, w: Word) -> bool:
        """Word problem of the re-presented group, through the oracle."""
        return self.trivial(self._y(w))


def standard_trick(oracle: RelatorOracle) -> StandardTrick:
    ox = oracle.alpha
    names = [ox.name_of(x) for x in oracle.letters]
    if len(set(names) | {bar_name(n) for n in names}) != 2 * len(names):
        raise ValueError("generator names collide with their barred copies")
    Y = Alphabet()
    plain = tuple(Y.intern(n) for n in names)
    bar = tuple(Y.intern(bar_name(n)) for n in names)
    tau = dict(zip(bar, plain))
    return StandardTrick(oracle, Y, plain, bar, tau)


# -- C-expansion --------------------------------------------------------------------

# the splits entry of a letter that starts a block: no seam, tail or head
_WHOLE: Tuple[Tuple[int, ...], List[int], List[int]] = ((), [], [])


@dataclass
class ExpandedPresentation:
    """Blocks of C fresh letters per Y letter, relators expanded blockwise."""

    Y: Alphabet
    y_letters: Tuple[int, ...]
    in_S: Callable[[Word], bool]
    C: int
    YC: Alphabet
    blocks: Dict[int, Tuple[int, ...]]
    position: Dict[int, Tuple[int, int]]

    def A(self, y: int) -> Word:
        return self.YC.raw_word(self.blocks[y])

    def phi(self, w: Word) -> Word:
        """Blockwise expansion; reduced words map without cancellation."""
        if w.alpha is not self.Y:
            raise ValueError("word is not over the Y alphabet")
        out: List[int] = []
        for x in w.ltrs:
            blk = self.blocks[abs(x)]
            out.extend(blk if x > 0 else [-b for b in reversed(blk)])
        return self.YC.word(out)

    def _signed_blocks(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        for y, blk in self.blocks.items():
            yield y, blk
            yield -y, tuple(-a for a in reversed(blk))

    @cached_property
    def starts(self) -> Dict[int, Tuple[Tuple[int], List[int]]]:
        """((signed y,), A_y^{+-1}) by the first letter of A_y^{+-1}."""
        return {b[0]: ((s,), list(b)) for s, b in self._signed_blocks()}

    @cached_property
    def splits(self) -> Dict[int, Tuple[Tuple[int], List[int], List[int]]]:
        """((signed y,), tail, head) by a letter inside A_y^{+-1}: the
        block cut before that letter is head + tail."""
        return {b[k]: ((s,), list(b[k:]), list(b[:k]))
                for s, b in self._signed_blocks() for k in range(1, self.C)}

    def find_prefix(self, lst: List[int], r: int,
                    accept: Callable[[Tuple[int, ...]], bool]
                    ) -> Optional[Tuple[int, int]]:
        """The first prefix lst[r:end] of a rotation of the cyclic word lst
        that is a cyclic permutation of a block word whose signed y letters
        pass accept, as (r, end), or None after a lap from rotation r.

        Rotation r is read in place at lst[r:]; when a read could pass the
        end, lst is rotated in place to start there and r becomes 0.  A
        rotation that starts a block offers its runs of whole blocks, one
        inside a block its tail, whole blocks and head, the split block
        read last: C letters per y letter, shortest first.
        """
        starts, splits, C, n = self.starts, self.splits, self.C, len(lst)
        for _ in range(n):
            seam, tail, head = splits.get(lst[r], _WHOLE)
            p, h, ys = r + len(tail), len(head), ()
            while True:
                if r and p + C > n:
                    lst[:] = lst[r:] + lst[:r]
                    p -= r
                    r = 0
                if seam:
                    # lst[r] is tail[0]: read a longer tail once
                    if not ys and p > r + 1 and lst[r:p] != tail:
                        break
                    if lst[p:p + h] == head and accept(ys + seam):
                        return r, p + h
                elif ys and accept(ys):
                    return r, p
                got = starts.get(lst[p]) if p + C <= n else None
                if got is None or lst[p:p + C] != got[1]:
                    break
                ys += got[0]
                p += C
            r = r + 1 if r + 1 < n else 0
        return None

    def d_word(self, w: Word) -> Optional[Word]:
        """The Y word w spells blockwise, or None if not block-aligned."""
        if w.alpha is not self.YC:
            raise ValueError("word is not over the block alphabet")
        got = [self.starts.get(x) for x in w.ltrs[::self.C]]
        if None in got or tuple(a for _, b in got for a in b) != w.ltrs:
            return None
        return self.Y.word(s for (s,), _ in got)

    def in_SC(self, w: Word) -> bool:
        if any(x < 0 for x in w.ltrs):
            return False
        u = self.d_word(w)
        return u is not None and self.in_S(u)


def expand_C(Y: Alphabet, y_letters: Sequence[int],
             in_S: Callable[[Word], bool], C: int) -> ExpandedPresentation:
    if C < 1:
        raise ValueError("block length C must be positive")
    YC = Alphabet()
    blocks: Dict[int, Tuple[int, ...]] = {}
    position: Dict[int, Tuple[int, int]] = {}
    for y in y_letters:
        blk = tuple(YC.intern("%s.%d" % (Y.name_of(y), k))
                    for k in range(1, C + 1))
        blocks[y] = blk
        for k, a in enumerate(blk, start=1):
            position[a] = (y, k)
    return ExpandedPresentation(Y, tuple(y_letters), in_S, C, YC,
                                blocks, position)


# -- word problem of the expanded group ----------------------------------------------

def wp_RC(w: Word, pipe: "EmbeddingPipeline") -> bool:
    """Whether w is trivial in the expanded group.

    Scan the cyclic permutations of the cyclically reduced word for a
    prefix that is a cyclic permutation of a block word trivial in the
    outer group, and delete the first one found.  Deleted prefixes are
    trivial, so deletion preserves triviality exactly; a trivial
    cyclically reduced word always admits such a prefix, so a lap of
    rotations with none is a sound "no".  Each deletion removes at least
    C letters.

    The word is one list edited in place and the scan pointer r is the
    rotation, read by ``ExpandedPresentation.find_prefix``.  A deletion
    is a del; free pairs then cancel across it, and the scan goes on after
    it.  The oracle is asked once per distinct block word per pipeline.
    """
    exp, trivial = pipe.exp, pipe.trick.trivial
    lst = list((w if w.alpha is exp.YC else pipe.zeta_inv_t(w)).ltrs)
    r = 0
    while True:
        while len(lst) > 1 and lst[r] == -lst[r - 1]:
            if r:
                r -= 1
                del lst[r:r + 2]
            else:
                del lst[0]
                lst.pop()
            if r == len(lst):
                r = 0
        if not lst:
            return True
        got = exp.find_prefix(lst, r, trivial)
        if got is None:
            return False
        r, end = got
        del lst[r:end]
        if r == len(lst):
            r = 0


# -- the assembled pipeline ----------------------------------------------------------

@dataclass
class EmbeddingPipeline:
    """Everything from the outer oracle down to the tape alphabet."""

    oracle: RelatorOracle
    trick: StandardTrick
    exp: ExpandedPresentation
    A: Alphabet
    zeta: Dict[int, int]
    zeta_inv: Dict[int, int]

    @property
    def C(self) -> int:
        return self.exp.C

    @property
    def letters(self) -> Tuple[str, ...]:
        """Tape letter names, ready for the machine builders."""
        return tuple(self.A.name_of(a) for a in sorted(self.zeta.values()))

    def zeta_t(self, w: Word) -> Word:
        if w.alpha is not self.exp.YC:
            raise ValueError("word is not over the block alphabet")
        return relabel(w, self.zeta, self.A)

    def zeta_inv_t(self, w: Word) -> Word:
        if w.alpha is not self.A:
            raise ValueError("word is not over the tape alphabet")
        return relabel(w, self.zeta_inv, self.exp.YC)

    def wp_Y(self, w: Word) -> bool:
        return self.trick.wp_Y(w)

    def in_L(self, w: Word) -> bool:
        """Membership in the carried relator language over the tape letters."""
        return self.exp.in_SC(self.zeta_inv_t(w))

    def psi(self, w: Word) -> Word:
        """The embedding image of an outer-generator word, over the tape letters."""
        if w.alpha is not self.oracle.alpha:
            raise ValueError("word is not over the oracle's alphabet")
        lift = dict(zip(self.oracle.letters, self.trick.y_plain))
        return self.zeta_t(self.exp.phi(relabel(w, lift, self.trick.Y)))


def build_pipeline(oracle: RelatorOracle, C: int) -> EmbeddingPipeline:
    trick = standard_trick(oracle)
    exp = expand_C(trick.Y, trick.y_letters, trick.in_S, C)
    A = Alphabet()
    zeta: Dict[int, int] = {}
    for y in trick.y_letters:
        for a in exp.blocks[y]:
            zeta[a] = A.intern(exp.YC.name_of(a))
    zeta_inv = {v: k for k, v in zeta.items()}
    return EmbeddingPipeline(oracle, trick, exp, A, zeta, zeta_inv)


def lambda_oracle(w: Word, pipe: EmbeddingPipeline) -> bool:
    """The pure tape-letter core language: nontrivial, cyclically reduced,
    trivial in the expanded group."""
    u = pipe.zeta_inv_t(w)
    return bool(u) and cyclic_reduce(u)[0] == u and wp_RC(u, pipe)


def generator_images(pipe: EmbeddingPipeline) -> Dict[str, Word]:
    """The embedding images of the outer generators, one block word each."""
    ox = pipe.oracle
    return {ox.alpha.name_of(x): pipe.psi(ox.alpha.word([x]))
            for x in ox.letters}
