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
comparing whole blocks as tuple slices.
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

    def xi(self, w: Word) -> Word:
        return self.oracle.alpha.word(map(self._x_of.__getitem__, w.ltrs))

    def trivial(self, ys: Sequence[int]) -> bool:
        """Whether the signed Y letters ys, reduced or not, give 1 in R."""
        return self.oracle.wp(self.oracle.alpha.word(
            map(self._x_of.__getitem__, ys)))

    def in_S(self, w: Word) -> bool:
        ys = set(self.y_letters)
        if not len(w) or any(x not in ys for x in w.ltrs):
            return False
        return self.wp_Y(w)

    def wp_Y(self, w: Word) -> bool:
        """Word problem of the re-presented group, through the oracle."""
        return self.trivial(w.ltrs)


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
    def starts(self) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """(signed y, A_y^{+-1}) by the first letter of A_y^{+-1}."""
        return {b[0]: (s, b) for s, b in self._signed_blocks()}

    @cached_property
    def splits(self) -> Dict[int, Tuple[Tuple[int], Tuple[int, ...],
                                        Tuple[int, ...]]]:
        """((signed y,), tail, head) by a letter inside A_y^{+-1}: the
        block cut before that letter is head + tail."""
        return {b[k]: ((s,), b[k:], b[:k])
                for s, b in self._signed_blocks() for k in range(1, self.C)}

    def cyclic_prefixes(self, ring: Tuple[int, ...], n: int
                        ) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
        """Prefixes of the rotations of a cyclic word of n letters that are
        cyclic permutations of block words, read in place on ring, the word
        written twice.

        Yields (r, end, signed y letters) for ring[r:end], rotation by
        rotation.  A rotation that starts a block yields its runs of whole
        blocks; one that starts inside a block yields its tail, whole
        blocks and its head, with the split block read last.  Every
        candidate has length a positive multiple of C.
        """
        starts, splits, C = self.starts, self.splits, self.C
        for r in range(n):
            stop = r + n
            # a rotation that starts a block has no tail, head or seam
            seam, tail, head = splits.get(ring[r], ((), (), ()))
            p, h = r + len(tail), len(head)
            if p > stop or ring[r:p] != tail:
                continue
            ys: List[int] = []
            while True:
                if (ys or seam) and p + h <= stop and ring[p:p + h] == head:
                    yield r, p + h, tuple(ys) + seam
                got = starts.get(ring[p]) if p + C <= stop else None
                if got is None or ring[p:p + C] != got[1]:
                    break
                ys.append(got[0])
                p += C

    def d_word(self, w: Word) -> Optional[Word]:
        """The Y word w spells blockwise, or None if not block-aligned."""
        got = [self.starts.get(x) for x in w.ltrs[::self.C]]
        if None in got or tuple(a for _, b in got for a in b) != w.ltrs:
            return None
        return self.Y.word(s for s, _ in got)

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

    Cyclically reduce; scan all cyclic permutations for a prefix that is
    a cyclic permutation of a block word trivial in the outer group, and
    delete the first one found.  Deleted prefixes are trivial, so
    deletion preserves triviality exactly; a trivial cyclically reduced
    word always admits such a prefix, so failure to find one is a sound
    "no".  Each deletion removes at least C letters.

    The core is a letter tuple trimmed by index; each rotation is read in
    place on the core written twice, through the block tables
    (``ExpandedPresentation.cyclic_prefixes``).  Within one call the
    oracle is asked once per distinct block word.
    """
    exp = pipe.exp
    trivial = cache(pipe.trick.trivial)
    cur = (w if w.alpha is exp.YC else pipe.zeta_inv_t(w)).ltrs
    while True:
        i, j = 0, len(cur)
        while j - i >= 2 and cur[i] == -cur[j - 1]:
            i += 1
            j -= 1
        n = j - i
        if not n:
            return True
        ring = cur[i:j] * 2
        # a suffix of a rotation of a cyclically reduced word is reduced
        cur = next((ring[end:r + n]
                    for r, end, ys in exp.cyclic_prefixes(ring, n)
                    if trivial(ys)), None)
        if cur is None:
            return False


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
