"""The bottom machine of the tower and its noise arithmetic.

``build_m1`` constructs a two-sector noisy machine over a payload alphabet.
Sector 1 carries the payload letters themselves (which no rule can rewrite,
so their presence blocks every computation), a marked copy of the payload
alphabet, and a two-letter noise alphabet.  Sector 2 carries a second,
inert copy of the payload alphabet.

Every positive rule appends one noise letter's inverse in sector 1 while
simultaneously decorating each marker with a long positive noise word.
The noise words form a free basis with small overlaps, so histories leave
a recoverable trace: ``decode_noise`` inverts products of noise words,
``shift`` reconstructs the unique computation erasing a sector-1 word, and
``strip_history`` decodes the unique history stripping a word down to its
marker skeleton: a letter check, a marker scan (the run's ``_scan``) and
the decode core ``_strip``, which reads the skeleton and the first nonempty
gap alone and which ``mainmachine.lambda_accept`` calls with its own
marker positions.  ``lambda1_accept`` decodes once, tests the skeleton,
and only then replays the history once.  Everything returned is
replay-verified against the machine itself.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import takewhile
from operator import not_, sub
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from smforge.words import Alphabet, Word, free_reduce
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
    validate_noisy,
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
    """

    alpha: Alphabet
    A: Tuple[int, ...]
    A1: Tuple[int, ...]
    A2: Tuple[int, ...]
    B: Tuple[int, ...]
    _cache: Dict[tuple, Word] = field(default_factory=dict, repr=False)

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

    def uncopy2(self, a2: int) -> int:
        return self.A[self.A2.index(a2)]

    def pairs(self) -> Iterator[Tuple[int, int]]:
        for y in self.A + self.B:
            for a in self.A:
                yield (y, a)

    def eta(self, y: int, a: int) -> int:
        """Row-major pair index, 1-based: y ranked payload first, then noise."""
        return (self.A + self.B).index(y) * len(self.A) + self.A.index(a) + 1

    def noise_word(self, y: int, a: int, sign: int = 1) -> Word:
        sign = 1 if sign > 0 else -1
        w = self._cache.get((y, a, sign))
        if w is None:
            k, D = self.eta(y, a), self.D
            b1, b2 = self.B
            ltrs = (b1,) * k + (b2, b1) * ((D - 2 * k) // 2) + (b2,) * k
            w = Word(self.alpha, ltrs)
            w = self._cache[(y, a, sign)] = w if sign > 0 else ~w
        return w

    @cached_property
    def signed(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Signed marker ids, and signed marker and noise ids."""
        m = _signed_set(self.A1)
        return m, m | _signed_set(self.B)

    @cached_property
    def heads(self) -> Dict[Tuple[int, ...], Tuple[int, int, int]]:
        """(y, a, sign) by the first 3D/4 + 1 letters of its noise word.

        Distinct signed noise words agree on fewer than D/4 leading
        letters, so these heads are distinct."""
        n = 3 * self.D // 4 + 1
        return {self.noise_word(y, a, s).ltrs[:n]: (y, a, s)
                for y, a in self.pairs() for s in (1, -1)}

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
    X1 = tuple(al.word([x]) for x in A1 + B)

    rules = []
    for y in A + B:
        Z1 = tuple(scheme.noise_word(y, a) * al.word([m])
                   for a, m in zip(A, A1))
        Z1 += tuple(al.word([b]) for b in B)
        if y in A:
            u1, v2 = ~al.word([scheme.mark(y)]), al.word([scheme.copy2(y)])
        else:
            u1, v2 = ~al.word([y]), al.word()
        parts = [RulePart(q[0], al.word(), q[0], al.word()),
                 RulePart(q[1], u1, q[1], v2),
                 RulePart(q[2], al.word(), q[2], al.word())]
        rules.append(GeneralizedRule(hw, scheme.rule_name(y), parts,
                                     [None, SectorRule(X1, Z1), sector2]))

    machine = Machine("M1", hw, rules, input_sectors=[1],
                      noise=NoiseDecl(K={1: A}, M={1: A1}, N={1: B},
                                      phi={1: dict(zip(A, A1))}))
    validate_noisy(machine)
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


def a_length(w: Word, scheme: NoiseScheme) -> int:
    return len(delta_letters(w, scheme))


def b_length(w: Word, scheme: NoiseScheme) -> int:
    return len(w) - a_length(w, scheme)


def epsilon(W: AdmissibleWord, scheme: NoiseScheme) -> Word:
    """Reduced payload image of a configuration: both sectors read off."""
    if not W.is_configuration():
        raise ValueError("projection needs a configuration")
    sec = dict(zip(W.sectors, W.tapes))
    un = scheme.uncopy2
    return scheme.alpha.word(delta_letters(sec[1], scheme) + tuple(
        un(x) if x > 0 else -un(-x) for x in sec[2].ltrs))


def marker_split(w: Word, scheme: NoiseScheme) -> Tuple[List[Word], List[int]]:
    """Split w as u_0 x_1 u_1 ... x_k u_k with x_i signed markers, u_i noise.

    Returns (gaps, markers): k+1 noise gaps and k signed marker ids.
    """
    _check_sector1(w, scheme)
    ltrs = w.ltrs
    at = list(_scan(ltrs, scheme.signed[0]))
    cuts = zip([-1] + at, at + [len(ltrs)])
    return ([Word(scheme.alpha, ltrs[i + 1:j]) for i, j in cuts],
            [ltrs[i] for i in at])


# -- noise decoding ------------------------------------------------------------

def _common_prefix(w1: Sequence[int], w2: Sequence[int]) -> int:
    """How many leading letters w1 and w2 share, by one C-level pass."""
    return len(list(takewhile(not_, map(sub, w1, w2))))


def decode_noise(u: Word, scheme: NoiseScheme
                 ) -> Optional[List[Tuple[int, int, int]]]:
    """The unique reduced noise-word expression with product u, if any.

    Returns (y, a, sign) triples.  Greedy: distinct noise words agree on
    fewer than D/4 letters and adjacent factors of a reduced expression
    cancel fewer than D/4, so at most one signed noise word, found by its
    head, matches more than 3D/4 leading letters of what remains.  Peeling
    a word v that matches exactly p leading letters of the reduced rest
    cancels exactly those p letters, so the new rest is v[p:]^-1 rest[p:]
    with no further reduction.  Raises ValueError for a word over another
    alphabet than the scheme's.
    """
    _check_alphabet(u, scheme)
    n = 3 * scheme.D // 4 + 1
    out: List[Tuple[int, int, int]] = []
    cur = u.ltrs
    while cur:
        hit = scheme.heads.get(cur[:n])
        if hit is None or out and out[-1] == (hit[0], hit[1], -hit[2]):
            return None
        y, a, s = hit
        p = n + _common_prefix(cur[n:], scheme.noise_word(y, a, s).ltrs[n:])
        cur = scheme.noise_word(y, a, -s).ltrs[:scheme.D - p] + cur[p:]
        out.append(hit)
    return out


def _decode_rear(u: Word, a: int, scheme: NoiseScheme
                 ) -> Optional[List[Tuple[int, int]]]:
    """Split u as v(y_1,a)^e_1 .. v(y_s,a)^e_s y_s^e_s .. y_1^e_1, y_i noise.

    This is the shape a trailing gap must have for a rule to erase a
    negative marker of payload a after s noise steps.  At most one noise
    word can be peeled at each point, but peeling competes with stopping,
    so this backtracks (the recursion is at most two-way).
    """
    al, thresh = scheme.alpha, 3 * scheme.D // 4 + 1

    def rec(cur: Word, acc: List[Tuple[int, int]]
            ) -> Optional[List[Tuple[int, int]]]:
        tail = al.word((y if e > 0 else -y) for y, e in reversed(acc))
        if cur == tail:
            return list(acc)
        for y in scheme.B:
            for e in (1, -1):
                if acc and acc[-1] == (y, -e):
                    continue
                vv = scheme.noise_word(y, a, e)
                if _common_prefix(cur.ltrs, vv.ltrs) >= thresh:
                    r = rec((~vv) * cur, acc + [(y, e)])
                    if r is not None:
                        return r
        return None

    return rec(u, [])


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
    followed its own creation, which _decode_rear recovers.  Each phase is
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
    if W.tapes[0] or W.base() != W0.base():
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
    return _strip(w.ltrs, _scan(w.ltrs, scheme.signed[0]), scheme,
                  partial(Word, scheme.alpha))


def _strip(ltrs: Tuple[int, ...], at: Tuple[int, ...], scheme: NoiseScheme,
           carry: Callable[[Tuple[int, ...]], Word]
           ) -> Optional[Tuple[History, Word]]:
    """:func:`strip_history`'s decode of the marker and noise letters
    ``ltrs`` with markers at ``at``; ``carry`` makes a scheme word of the
    skeleton and of the first nonempty gap, the only letters it reads."""
    skeleton = carry(tuple(map(ltrs.__getitem__, at)))
    if free_reduce(skeleton.ltrs) != skeleton.ltrs:
        return None
    # gap j runs from cuts[j] + 1 to cuts[j + 1]
    cuts = (-1,) + at + (len(ltrs),)
    j = next((j for j in range(len(at) + 1) if cuts[j + 1] - cuts[j] > 1),
             None)
    if j is None:
        return [], skeleton
    seq = decode_noise(carry(ltrs[cuts[j] + 1:cuts[j + 1]]), scheme)
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
