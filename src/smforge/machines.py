"""The bottom machine of the tower and its noise arithmetic.

``build_m1`` constructs a two-sector noisy machine over a payload alphabet.
Sector 1 carries the payload letters themselves (which no rule can rewrite,
so their presence blocks every computation), a marked copy of the payload
alphabet, and a two-letter noise alphabet.  Sector 2 carries a second,
inert copy of the payload alphabet.

Every positive rule appends one noise letter's inverse in sector 1 while
simultaneously decorating each marker with a long positive noise word.
Each noise word is three runs, b1^k (b2 b1)^m b2^k, and is handed out and
carried up the tower as that descriptor (``words.NoiseWord``): the sector
rules keep it, the tower stages rename its two letters, and
``validate_noisy`` decides its freeness by arithmetic, so only the
decode, the text format and the presentation spell noise words out.
The noise words form a free basis with small overlaps, so histories leave
a recoverable trace: ``decode_noise`` inverts products of noise words by
one greedy peel (``_peel``) per factor, ``shift`` reconstructs the unique
computation erasing a sector-1 word, its rear gaps split by that peel, and
``strip_history`` decodes the unique history stripping a word down to its
marker skeleton: a letter check, a marker scan (the run's ``_scan``) and
the decode core ``_strip``, which reads the skeleton and the first nonempty
gap alone; ``mainmachine.lambda_accept`` runs it on the main machine's
own letters, through a scheme over that alphabet.  ``lambda1_accept``
decodes once, tests the skeleton, and only then replays the history once.
Everything returned is replay-verified against the machine itself.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from smforge.words import (Alphabet, NoiseWord, Word, common_prefix,
                           free_reduce, invert_letters)
from smforge.smachine import (
    AdmissibleWord,
    Computation,
    GeneralizedRule,
    Hardware,
    History,
    Machine,
    NoiseDecl,
    Part,
    RulePart,
    SectorRule,
    _scan,
    _signed_set,
    reduce_history,
)

NOISE_NAMES = ("b1", "b2")
STATE_NAMES = ("q0", "q1", "q2")


@dataclass
class NoiseScheme:
    """Letter bookkeeping for one bottom machine.

    ``A`` holds the payload letters, ``A1`` their marked sector-1 copies,
    ``A2`` their inert sector-2 copies, and ``B`` the two noise letters,
    all as ids in ``alpha`` and aligned index by index.  ``D`` is the
    common length of all noise words and ``eta`` numbers the pairs
    (y, a) with y a payload or noise letter and a a payload letter.

    The noise word of (y, a) is b1^k (b2 b1)^m b2^k with k = eta(y, a)
    and m = D/2 - k, and :meth:`noise_word` hands it out as that
    descriptor (``words.NoiseWord``).  Only the decode reads noise words
    letter by letter, and only those it peels: it reads k off a word's
    leading run (:attr:`runs`), (y, a) off k (:meth:`pair`), and
    :meth:`spelled` builds that word's letters once.
    """

    alpha: Alphabet
    A: Tuple[int, ...]
    A1: Tuple[int, ...]
    A2: Tuple[int, ...]
    B: Tuple[int, ...]
    _cache: Dict[tuple, Tuple[int, ...]] = field(default_factory=dict,
                                                 repr=False)

    @property
    def D(self) -> int:
        n = len(self.A)
        return 4 * n * (n + 2)

    def mark(self, a: int) -> int:
        return self.A1[self.A.index(a)]

    def unmark(self, a1: int) -> int:
        return self.A[self.A1.index(a1)]

    def copy2(self, a: int) -> int:
        return self.A2[self.A.index(a)]

    def eta(self, y: int, a: int) -> int:
        """Row-major pair index, 1-based: y ranked payload first, then noise."""
        return (self.A + self.B).index(y) * len(self.A) + self.A.index(a) + 1

    def pair(self, k: int) -> Tuple[int, int]:
        """The pair (y, a) with eta(y, a) = k."""
        i, j = divmod(k - 1, len(self.A))
        return (self.A + self.B)[i], self.A[j]

    def noise_word(self, y: int, a: int, sign: int = 1) -> NoiseWord:
        """The noise word of (y, a), inverted when ``sign`` is negative."""
        k = self.eta(y, a)
        v = NoiseWord(self.B[0], self.B[1], k, self.D // 2 - k)
        return v if sign > 0 else ~v

    def spelled(self, y: int, a: int, sign: int) -> Tuple[int, ...]:
        """The letters of the signed noise word of (y, a), built once."""
        key = (y, a, sign)
        ltrs = self._cache.get(key)
        if ltrs is None:
            ltrs = self._cache[key] = self.noise_word(y, a, sign).ltrs
        return ltrs

    @cached_property
    def signed(self) -> Tuple[FrozenSet[int], ...]:
        """Signed marker ids, marker and noise ids, and payload ids."""
        m = _signed_set(self.A1)
        return m, m | _signed_set(self.B), _signed_set(self.A)

    @cached_property
    def head(self) -> int:
        return 3 * self.D // 4 + 1

    @cached_property
    def runs(self) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """The sign of the noise words that begin with each letter, b1 or
        b2^-1, and D/4 + 1 copies of that letter, one more than the
        longest leading run of a noise word."""
        n = self.D // 4 + 1
        b1, b2 = self.B
        return {b1: (1, (b1,) * n), -b2: (-1, (-b2,) * n)}

    @cached_property
    def rule_names(self) -> Dict[int, str]:
        """The name of the rule of each payload and noise letter."""
        return {y: "theta_" + self.alpha.name_of(y) for y in self.A + self.B}

    def rule_name(self, y: int) -> str:
        return self.rule_names[y]


def build_m1(letters: Sequence[str]) -> Tuple[Machine, NoiseScheme]:
    """Bottom machine over the given payload letter names.

    Returns the machine together with its noise scheme.  Sector 1 rules
    have the noisy form that decorates markers; sector 2 rules fix the
    inert copy pointwise.
    """
    letters = list(letters)
    if not letters:
        raise ValueError("payload alphabet is empty")
    marked = [s + "_1" for s in letters]
    copies = [s + "_2" for s in letters]
    names = letters + marked + copies + list(NOISE_NAMES) + list(STATE_NAMES)
    if len(set(names)) != len(names):
        raise ValueError("payload letter names collide with derived names")

    al = Alphabet()
    q = [al.intern(s, kind="q") for s in STATE_NAMES]
    A = tuple(al.intern(s, subkind="A") for s in letters)
    A1 = tuple(al.intern(s, subkind="A") for s in marked)
    B = tuple(al.intern(s, subkind="b") for s in NOISE_NAMES)
    A2 = tuple(al.intern(s, subkind="A") for s in copies)
    scheme = NoiseScheme(al, A, A1, A2, B)

    hw = Hardware(al, [Part((qi,), qi, qi) for qi in q],
                  [(), A + A1 + B, A2])
    singles2 = tuple(al.word([x]) for x in A2)
    sector2 = SectorRule(singles2, singles2)

    rules = []
    for y in A + B:
        # each marker decorated by its noise word, the noise letters fixed
        noise = [scheme.noise_word(y, a) for a in A] + [None] * len(B)
        if y in A:
            u1, v2 = ~al.word([scheme.mark(y)]), al.word([scheme.copy2(y)])
        else:
            u1, v2 = ~al.word([y]), al.word()
        parts = [RulePart(q[0], al.word(), q[0], al.word()),
                 RulePart(q[1], u1, q[1], v2),
                 RulePart(q[2], al.word(), q[2], al.word())]
        rules.append(GeneralizedRule(hw, scheme.rule_name(y), parts,
                                     [None, SectorRule.decorated(
                                         al, A1 + B, noise), sector2]))

    machine = Machine("M1", hw, rules, input_sectors=[1],
                      noise=NoiseDecl(K={1: A}, M={1: A1}, N={1: B},
                                      phi={1: dict(zip(A, A1))}))
    return machine, scheme


# -- projections ---------------------------------------------------------------

def _check_alphabet(w: Word, scheme: NoiseScheme) -> None:
    if w.alpha is not scheme.alpha:
        raise ValueError("word is not over the scheme's alphabet")


def _check_sector1(w: Word, scheme: NoiseScheme) -> None:
    _check_alphabet(w, scheme)
    ok = scheme.signed[1]
    if not ok.issuperset(w.ltrs):
        x = next(x for x in w.ltrs if x not in ok)
        raise ValueError("letter %s is not a marker or noise letter"
                         % scheme.alpha.name_of(abs(x)))


def delta_letters(w: Word, scheme: NoiseScheme) -> Tuple[int, ...]:
    """Payload projection of a marker/noise word, without free reduction."""
    _check_sector1(w, scheme)
    marks, un = scheme.signed[0], scheme.unmark
    return tuple(un(x) if x > 0 else -un(-x) for x in w.ltrs if x in marks)


def delta(w: Word, scheme: NoiseScheme) -> Word:
    """Reduced payload projection of a marker/noise word."""
    return scheme.alpha.word(delta_letters(w, scheme))


# -- noise decoding ------------------------------------------------------------

def _peel(cur: Tuple[int, ...], scheme: NoiseScheme
          ) -> Optional[Tuple[Tuple[int, int, int], Tuple[int, ...]]]:
    """(y, a, sign) of the one signed noise word v that matches more than
    3D/4 leading letters of the reduced ``cur``, and v^-1 cur: if v
    matches exactly p leading letters of cur, that is v[p:]^-1 cur[p:],
    reduced.  None when no word matches that many.

    A noise word b1^k (b2 b1)^m b2^k begins with a run of exactly k
    letters b1, and its inverse with k letters b2^-1, where
    k = eta(y, a) <= D/4 and k + 1 < 3D/4 + 1.  So the leading run of cur,
    read by one C-level pass, gives the sign and k, k gives (y, a), and
    only that word is spelled and compared: most often cur begins with
    the whole of it, which one slice comparison confirms."""
    run = scheme.runs.get(cur[0]) if cur else None
    if run is None:
        return None
    sign, letters = run
    k = common_prefix(cur, letters)
    if k == len(letters):
        return None
    y, a = scheme.pair(k)
    v = scheme.spelled(y, a, sign)
    p = len(v)
    if cur[:p] != v:
        p = common_prefix(cur, v)
    if p < scheme.head:
        return None
    return (y, a, sign), invert_letters(v[p:], scheme.alpha) + cur[p:]


def decode_noise(u: Word, scheme: NoiseScheme
                 ) -> Optional[List[Tuple[int, int, int]]]:
    """The unique reduced noise-word expression with product u, if any.

    Returns (y, a, sign) triples.  Greedy: distinct noise words agree on
    fewer than D/4 letters and adjacent factors of a reduced expression
    cancel fewer than D/4, so at most one signed noise word matches more
    than 3D/4 leading letters of what remains: :func:`_peel` peels it.  No
    peel undoes the last: a peel of v matches p > 3D/4 letters of the
    reduced ``cur`` and leaves v[p:]^-1 cur[p:], which agrees with v^-1 on
    D - p < D/4 letters, no more (cur[p] is not v[p - 1]^-1), so the next
    head is not v^-1's.  Raises ValueError for a word over another alphabet
    than the scheme's.
    """
    _check_alphabet(u, scheme)
    out: List[Tuple[int, int, int]] = []
    cur = u.ltrs
    while cur:
        got = _peel(cur, scheme)
        if got is None:
            return None
        hit, cur = got
        out.append(hit)
    return out


def _decode_rear(u: Word, a: int, scheme: NoiseScheme
                 ) -> Optional[List[Tuple[int, int]]]:
    """Split u as v(y_1,a)^e_1 .. v(y_s,a)^e_s y_s^e_s .. y_1^e_1, y_i noise.

    This is the shape a trailing gap must have for a rule to erase a
    negative marker of payload a after s noise steps.  It stops once what
    remains is the tail of the steps peeled so far, before a peel: a tail
    can read as a head (with one payload letter, from 3D/4 + 1 letters).
    As in :func:`decode_noise`, no peel undoes the last.
    """
    out: List[Tuple[int, int]] = []
    cur, tail = u.ltrs, ()
    while cur != tail:
        got = _peel(cur, scheme)
        if got is None:
            return None
        (y, b, e), cur = got
        if b != a or y not in scheme.B:
            return None
        out.append((y, e))
        tail = (y if e > 0 else -y,) + tail
    return out


# -- the shift -----------------------------------------------------------------

def shift(w: Word, machine: Machine, scheme: NoiseScheme
          ) -> Optional[Computation]:
    """The computation erasing w from sector 1 on the two-state base.

    Returns the computation from (q0 w q1) to (q0 q1), endpoints only,
    or None when w is not erasable.  With no markers present the word is
    spelled backwards with noise rules.  Otherwise the rightmost marker
    goes first: a positive marker is removed by spelling the gap to its
    right backwards and then applying its payload rule; a negative marker
    forces that gap to spell out, in decorated form, the noise steps that
    followed its own creation, which _decode_rear peels off.  Each phase is
    run on the machine as soon as it is found, the last spelling too, so
    the history is replayed from (q0 w q1) exactly once, step by step as
    it grows; it must come out reduced and end at (q0 q1).
    """
    _check_sector1(w, scheme)
    q0, q1 = machine.hw.parts[0].start, machine.hw.parts[1].start
    W0 = AdmissibleWord(machine.hw, (q0, q1), (w,))
    W, hist = W0, []
    p = 0
    while p >= 0:
        # the rightmost marker, at p, and the gap to its right
        ltrs = W.tapes[0].ltrs
        p = max(_scan(ltrs, scheme.signed[0]), default=-1)
        tail = ltrs[p + 1:]
        if p < 0 or ltrs[p] > 0:
            steps = [(scheme.rule_name(abs(l)), 1 if l > 0 else -1)
                     for l in reversed(tail)]
            if p >= 0:
                steps.append((scheme.rule_name(scheme.unmark(ltrs[p])), 1))
        else:
            a = scheme.unmark(-ltrs[p])
            dec = _decode_rear(Word(scheme.alpha, tail), a, scheme)
            if dec is None:
                return None
            steps = [(scheme.rule_name(y), e) for y, e in dec]
            steps.append((scheme.rule_name(a), -1))
        W = machine.run(W, steps, trace=False).final()
        hist += steps
    if reduce_history(hist) != hist:
        return None
    if W.tapes[0]:
        return None
    return Computation([W0, W] if hist else [W0], hist)


def shift_time_bound(w: Word, scheme: NoiseScheme) -> int:
    """Upper bound on the length of the shift of w, when it exists."""
    n = len(w)
    return n + n * (2 * scheme.D + 1) ** n


# -- marker-skeleton acceptance -------------------------------------------------

def _erase_steps(gap_idx: int, seq: List[Tuple[int, int, int]],
                 markers: Sequence[int], scheme: NoiseScheme
                 ) -> Optional[List[Tuple[str, int]]]:
    """Noise-erasing history encoded by one nonempty gap.

    A gap holds the inverted decoration of a negative marker on its left
    (already in erasing order) and/or the decoration of a positive marker
    on its right (in creation order, so reversed and inverted here).  Both
    halves, when present, must agree on the history.
    """
    left = markers[gap_idx - 1] if gap_idx >= 1 else None
    right = markers[gap_idx] if gap_idx < len(markers) else None
    p_left = scheme.unmark(abs(left)) if left is not None and left < 0 else None
    p_right = scheme.unmark(right) if right is not None and right > 0 else None
    cut = 0
    if p_left is not None:
        while cut < len(seq) and seq[cut][1] == p_left:
            cut += 1
    head, tail = seq[:cut], seq[cut:]
    if any(a != p_right for _, a, _ in tail):
        return None
    h_left = [(scheme.rule_name(y), e) for y, _, e in head]
    h_right = [(scheme.rule_name(y), -e) for y, _, e in reversed(tail)]
    if head and tail and h_left != h_right:
        return None
    return h_left if head else h_right


def strip_history(w: Word, scheme: NoiseScheme
                  ) -> Optional[Tuple[History, Word]]:
    """The history stripping w's noise, and w's marker skeleton, if any.

    The skeleton is the word of w's signed markers and must be reduced;
    the history is decoded from the first nonempty noise gap (every gap
    encodes the same decoration history).  Noise rules keep a reduced
    skeleton's markers in order, so a replay of the history ends
    noise-free exactly when it ends at the skeleton.
    """
    _check_sector1(w, scheme)
    return _strip(w.ltrs, _scan(w.ltrs, scheme.signed[0]), scheme)


def _strip(ltrs: Tuple[int, ...], at: Tuple[int, ...], scheme: NoiseScheme
           ) -> Optional[Tuple[History, Word]]:
    """:func:`strip_history`'s decode of the marker and noise letters
    ``ltrs`` of the scheme's alphabet with markers at ``at``; it reads the
    skeleton and the first nonempty gap alone."""
    skeleton = Word(scheme.alpha, tuple(map(ltrs.__getitem__, at)))
    if free_reduce(skeleton.ltrs) != skeleton.ltrs:
        return None
    # gap j runs from cuts[j] + 1 to cuts[j + 1]
    cuts = (-1,) + at + (len(ltrs),)
    j = next((j for j in range(len(at) + 1) if cuts[j + 1] - cuts[j] > 1),
             None)
    if j is None:
        return [], skeleton
    seq = decode_noise(Word(scheme.alpha, ltrs[cuts[j] + 1:cuts[j + 1]]),
                       scheme)
    steps = (None if seq is None
             else _erase_steps(j, seq, skeleton.ltrs, scheme))
    return None if steps is None else (steps, skeleton)


def lambda1_accept(w: Word, machine: Machine, scheme: NoiseScheme,
                   member: Callable[[Word], bool]
                   ) -> Optional[Tuple[History, List[Word]]]:
    """Semi-computation stripping w to a marker skeleton accepted by member.

    ``member`` judges the reduced payload image of the skeleton, before
    any replay.  Returns (history, words) with words[-1] the noise-free
    skeleton, or None.  The history comes from ``strip_history`` and is
    verified by one replay.
    """
    stripped = strip_history(w, scheme)
    if stripped is None or not member(delta(stripped[1], scheme)):
        return None
    hist, skeleton = stripped
    words = machine.semi_run(w, 1, hist)
    return (hist, words) if words[-1] == skeleton else None
