"""The full machine: L parallel copies of the doubled tower, twice over.

``build_main`` stacks the bottom machine, a recognizer plugin, ``reflect``
and ``cyclify`` into one cyclic machine M5, then lays its working rules
around a ring of L copies twice: once as working set 1 and once as
working set 2, which keeps the first copy of the payload sector locked.
Fresh framing states qs/qa sit on every non-anchor part; the transition
rules s1/s2 mark all input sectors while moving qs onto the working start
states, and a1/a2 collapse the working end states onto qa with every
sector locked.

Start configurations come in two shapes: ``input_i`` writes the payload
word w into every input sector (mirrored through mu on the barred side)
and ``input_j`` leaves the special sector empty.  ``accepting_run``
synthesizes the accepting computation for either shape and replays it,
the replay being the correctness check.  ``lambda_accept`` recognizes the
sector language of the special sector by semi-computations, on the
machine's own letters: it decodes the noise history from the skeleton and
one gap, tests the skeleton's payload image (no other letter leaves the
machine's alphabet), and only then replays the history once.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from smforge.words import Alphabet, Word, relabel, relabel_by_name
from smforge.smachine import (
    AdmissibleWord,
    Computation,
    GeneralizedRule,
    Hardware,
    History,
    Machine,
    Part,
    RulePart,
    SectorRule,
    StepError,
    _scan,
)
from smforge.machines import NoiseScheme, _strip, build_m1, delta, shift
from smforge.towers import (
    SigmaSpec,
    _Ring,
    bar_name,
    compose,
    cyclify,
    reflect,
)


# -- parameters -------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """The ordered parameter chain N < C < c0 < L < c1 < 1/delta < K.

    The magnitude constraints the estimates need on top of the ordering
    live in PAPER_CONSTRAINTS, checked symbolically by
    ``paper_violations``: a chain small enough for real computations
    fails them.
    """

    N: int
    C: int
    c0: int
    L: int
    c1: int
    delta_inv: int
    K: int
    check_chain: bool = True

    def __post_init__(self):
        vals = (self.N, self.C, self.c0, self.L,
                self.c1, self.delta_inv, self.K)
        if any(v < 1 for v in vals):
            raise ValueError("parameters must be positive")
        if self.L < 2:
            raise ValueError("need at least two copies (L >= 2)")
        if self.check_chain and not all(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError(
                "parameters must increase: N < C < c0 < L < c1 < 1/delta < K")


PAPER_CONSTRAINTS: Tuple[Tuple[str, Callable[[Params], bool]], ...] = (
    ("N < C", lambda p: p.N < p.C),
    ("C < c0", lambda p: p.C < p.c0),
    ("c0 < L", lambda p: p.c0 < p.L),
    ("L < c1", lambda p: p.L < p.c1),
    ("c1 < 1/delta", lambda p: p.c1 < p.delta_inv),
    ("1/delta < K", lambda p: p.delta_inv < p.K),
    ("C >= 2744", lambda p: p.C >= 2744),
    ("L >= 33", lambda p: p.L >= 33),
)


def paper_violations(p: Params) -> List[str]:
    """Labels of the magnitude constraints p fails; desk profiles fail two."""
    return [label for label, ok in PAPER_CONSTRAINTS if not ok(p)]


# -- recognizer plugins -------------------------------------------------------------

class RecognizerPlugin:
    """Contract for the machine plugged in above the bottom machine.

    Concrete plugins provide

    * ``machine``: a linear three part machine with an empty sector 1,
      the recognized alphabet on sector 2 and ``input_sectors == [2]``,
    * ``member(w)``: whether the sector 2 word w is accepted,
    * ``accept_run(w)``: a history driving ``input_config({2: w})`` to
      the accept configuration, defined exactly on members,
    * ``time_bound(n)``: a monotone bound on accept_run length for
      members of length up to n.
    """

    machine: Machine

    def member(self, w: Word) -> bool:
        raise NotImplementedError

    def accept_run(self, w: Word) -> History:
        raise NotImplementedError

    def time_bound(self, n: int) -> int:
        raise NotImplementedError


def validate_plugin(plug: RecognizerPlugin,
                    n_letters: Optional[int] = None) -> None:
    mp = plug.machine
    hw = mp.hw
    if hw.cyclic or hw.n_parts != 3:
        raise ValueError("plugin needs three linear parts")
    if hw.tapes[1]:
        raise ValueError("plugin sector 1 must be empty")
    if not hw.tapes[2]:
        raise ValueError("plugin sector 2 carries the recognized alphabet")
    if list(mp.input_sectors) != [2]:
        raise ValueError("plugin input sectors must be [2]")
    if mp.noise is not None:
        raise ValueError("plugins carry no noise declaration")
    if n_letters is not None and len(hw.tapes[2]) != n_letters:
        raise ValueError("plugin alphabet has %d letters, payload has %d"
                         % (len(hw.tapes[2]), n_letters))


def _plugin_hardware(letters: Sequence[str], mids: Sequence[str]
                     ) -> Tuple[Hardware, Dict[str, int], Tuple[int, ...]]:
    """Three-part plugin hardware: parts 0 and 1 hold a start and an end
    state, part 2 runs from p2s through ``mids`` to p2e, and sector 2
    carries one letter per payload letter.  Returns the hardware, its
    state letters by name and the sector 2 alphabet."""
    if not letters:
        raise ValueError("alphabet is empty")
    al = Alphabet()
    layout = [("p0", "p0e"), ("p1", "p1e"), ("p2s", *mids, "p2e")]
    q = {nm: al.intern(nm, kind="q") for names in layout for nm in names}
    tape = tuple(al.intern(x + "_p", subkind="A") for x in letters)
    parts = [Part(tuple(q[nm] for nm in names), q[names[0]], q[names[-1]])
             for names in layout]
    return Hardware(al, parts, [(), (), tape]), q, tape


class DivisibleRecognizer(RecognizerPlugin):
    """Accepts the positive words over ``letters`` of length divisible by c.

    States on the working part count consumed letters mod c, with a
    separate start state so the empty word is rejected.  Each step
    consumes the last tape letter; the closing rule locks every sector.
    """

    def __init__(self, letters: Sequence[str], c: int):
        if c < 1:
            raise ValueError("modulus must be positive")
        self.letters = tuple(letters)
        self.c = c
        mids = ["p2_%d" % j for j in range(c)]
        hw, q, self.tape = _plugin_hardware(self.letters, mids)
        p0, p1 = q["p0"], q["p1"]
        st: Dict[object, int] = {"s": q["p2s"]}
        st.update((j, q[nm]) for j, nm in enumerate(mids))
        al = hw.alpha
        e = al.word()
        singles = tuple(al.word([y]) for y in self.tape)
        ident = SectorRule(singles, singles)
        rules = []
        for x, y in zip(self.letters, self.tape):
            for tag in ["s"] + list(range(c)):
                nxt = st[1 % c] if tag == "s" else st[(tag + 1) % c]
                rules.append(GeneralizedRule(
                    hw, "tau_%s_%s" % (x, tag),
                    [RulePart(p0, e, p0, e), RulePart(p1, e, p1, e),
                     RulePart(st[tag], ~al.word([y]), nxt, e)],
                    [None, None, ident]))
        rules.append(GeneralizedRule(
            hw, "tau_fin",
            [RulePart(p0, e, q["p0e"], e), RulePart(p1, e, q["p1e"], e),
             RulePart(st[0], e, q["p2e"], e)],
            [None, None, None]))
        self.machine = Machine("Mdiv%d" % c, hw, rules, input_sectors=[2])

    def member(self, w: Word) -> bool:
        ok = set(self.tape)
        return (len(w) > 0 and len(w) % self.c == 0
                and all(x > 0 and x in ok for x in w.ltrs))

    def accept_run(self, w: Word) -> History:
        if not self.member(w):
            raise ValueError("accept_run is defined on members only")
        names = dict(zip(self.tape, self.letters))
        hist: History = []
        for k, y in enumerate(reversed(w.ltrs)):
            tag = "s" if k == 0 else str(k % self.c)
            hist.append(("tau_%s_%s" % (names[y], tag), 1))
        hist.append(("tau_fin", 1))
        return hist

    def time_bound(self, n: int) -> int:
        return n + 1


class RejectingRecognizer(RecognizerPlugin):
    """Same hardware shape, empty language.

    The start states have no outgoing rule, so nothing is accepted; the
    one rule present only fixes the accept configuration.
    """

    def __init__(self, letters: Sequence[str]):
        self.letters = tuple(letters)
        hw, q, self.tape = _plugin_hardware(self.letters, [])
        e = hw.alpha.word()
        p0e, p1e, p2e = q["p0e"], q["p1e"], q["p2e"]
        rules = [GeneralizedRule(
            hw, "tau_idle",
            [RulePart(p0e, e, p0e, e), RulePart(p1e, e, p1e, e),
             RulePart(p2e, e, p2e, e)],
            [None, None, None])]
        self.machine = Machine("Mrej", hw, rules, input_sectors=[2])

    def member(self, w: Word) -> bool:
        return False

    def accept_run(self, w: Word) -> History:
        raise ValueError("the empty language has no accepting runs")

    def time_bound(self, n: int) -> int:
        return 0


# -- assembly ----------------------------------------------------------------------

@dataclass
class MainMachine:
    """The assembled machine plus the bookkeeping needed to drive it.

    ``A``, ``A1``, ``B`` and ``bar`` hold the payload, marked and noise
    letters (and the barred renaming) as ids of the machine's own
    alphabet; ``q_inputs``/``r_inputs`` list the plain and mirrored input
    sectors coordinate by coordinate.
    """

    machine: Machine
    m1: Machine
    scheme: NoiseScheme
    plugin: RecognizerPlugin
    params: Params
    m5: Machine
    L: int
    P: int
    A: Tuple[int, ...]
    A1: Tuple[int, ...]
    B: Tuple[int, ...]
    bar: Dict[int, int]
    q_inputs: Tuple[int, ...]
    r_inputs: Tuple[int, ...]
    special_sector: int = 2

    # -- words in and out ---------------------------------------------------

    @cached_property
    def local_scheme(self) -> NoiseScheme:
        """The bottom scheme's letters as ids of the machine's alphabet."""
        A2 = self.from_m1(Word(self.scheme.alpha, self.scheme.A2)).ltrs
        return NoiseScheme(self.machine.hw.alpha, self.A, self.A1, A2, self.B)

    def payload(self, w: Word) -> Word:
        """w as a word of the machine's alphabet, checked to be plain."""
        al = self.machine.hw.alpha
        wm = w if w.alpha is al else relabel_by_name(w, al)
        if not self.local_scheme.signed[2].issuperset(wm.ltrs):
            raise ValueError("payload words use the plain input letters")
        return wm

    def mirror(self, w: Word) -> Word:
        """mu(w) = bar(w)^-1 over the machine's alphabet."""
        return ~relabel(w, self.bar, self.machine.hw.alpha)

    def to_m1(self, w: Word) -> Word:
        return relabel_by_name(w, self.scheme.alpha)

    def from_m1(self, w: Word) -> Word:
        return relabel_by_name(w, self.machine.hw.alpha)

    def to_plugin(self, w: Word) -> Word:
        wm = self.payload(w)
        m = dict(zip(self.A, self.plugin.machine.hw.tapes[2]))
        return relabel(wm, m, self.plugin.machine.hw.alpha)

    # -- configurations -------------------------------------------------------

    def _input_tapes(self, w: Word) -> Dict[int, Word]:
        """w in every plain input sector, mu(w) in every mirrored one."""
        wm = self.payload(w)
        return dict(zip(self.q_inputs + self.r_inputs,
                        [wm] * self.L + [self.mirror(wm)] * self.L))

    def input_i(self, w: Word) -> AdmissibleWord:
        """Start configuration with w in every input sector."""
        return self.machine.input_config(self._input_tapes(w))

    def input_j(self, w: Word) -> AdmissibleWord:
        """Like ``input_i`` but with the special sector left empty."""
        tapes = self._input_tapes(w)
        del tapes[self.special_sector]
        return self.machine.input_config(tapes)


def build_main(letters: Sequence[str], plugin: RecognizerPlugin,
               params: Params, name: str = "Mmain") -> MainMachine:
    """Assemble the full machine over the given payload letters.

    The tower is bottom machine, plugin, reflection, cyclification; the
    ring then carries params.L copies of the result with two working rule
    sets.  Set 2 locks the special sector (the first copy of the payload
    sector) and drops the marker insertion beside it, but keeps the inert
    copy insertion, so both sets act identically on all other sectors.
    """
    m1, scheme = build_m1(letters)
    if params.N != m1.hw.n_parts - 1:
        raise ValueError("the tower needs N == %d" % (m1.hw.n_parts - 1))
    validate_plugin(plugin, n_letters=len(scheme.A))
    pal = plugin.machine.hw.alpha
    ident = {pal.name_of(y): scheme.alpha.name_of(z)
             for y, z in zip(plugin.machine.hw.tapes[2], scheme.A2)}
    m3 = compose(m1, plugin.machine, SigmaSpec(sector=2, identify=ident),
                 name="M3")
    m4 = reflect(m3, name="M4")
    m5 = cyclify(m4, name="M5")
    L, P = params.L, m5.hw.n_parts
    special = min(m5.input_sectors)

    ring = _Ring(m5, L)
    al, tmap = ring.al, ring.tmap
    smaps: Dict[int, List[Dict[int, int]]] = {1: [], 2: []}
    qs: Dict[int, int] = {}
    qa: Dict[int, int] = {}
    for i in range(1, L + 1):
        anchor = ring.states(i, [0])
        for c in (1, 2):
            smaps[c].append({**anchor,
                             **ring.states(i, range(1, P), ".%d" % c)})
        for pi in range(1, P):
            g = (i - 1) * P + pi
            qs[g] = al.intern("qs%d%s" % (pi, ring.suffix(i)), kind="q",
                              coord=i)
            qa[g] = al.intern("qa%d%s" % (pi, ring.suffix(i)), kind="q",
                              coord=i)

    parts: List[Part] = []
    for i in range(1, L + 1):
        for pi, mp in enumerate(m5.hw.parts):
            g = (i - 1) * P + pi
            if pi == 0:
                t = smaps[1][i - 1][mp.start]
                parts.append(Part((t,), t, t))
            else:
                parts.append(Part(
                    tuple(smaps[1][i - 1][q] for q in mp.letters)
                    + tuple(smaps[2][i - 1][q] for q in mp.letters)
                    + (qs[g], qa[g]), qs[g], qa[g]))
    hw = Hardware(al, parts, ring.tapes, cyclic=True)

    e = al.word()
    # one sector rule per input sector, shared by every copy and by s1, s2
    marking = {}
    for s in m5.input_sectors:
        phi = m5.noise.phi[s]
        X = tuple(al.word([tmap[y]]) for y in m5.noise.K[s])
        Z = tuple(al.word([tmap[phi[y]]]) for y in m5.noise.K[s])
        marking[s] = SectorRule(X, Z)

    def transition(c: int, which: str) -> GeneralizedRule:
        rparts: List[RulePart] = []
        rsectors: List[Optional[SectorRule]] = [None] * (L * P)
        for i, d in enumerate(smaps[c], 1):
            for pi, mp in enumerate(m5.hw.parts):
                g = (i - 1) * P + pi
                if pi == 0:
                    rparts.append(RulePart(d[mp.start], e, d[mp.start], e))
                elif which == "s":
                    rparts.append(RulePart(qs[g], e, d[mp.start], e))
                else:
                    rparts.append(RulePart(d[mp.end], e, qa[g], e))
        if which == "s":
            for i in range(1, L + 1):
                for s in m5.input_sectors:
                    g = (i - 1) * P + s
                    if c != 2 or g != special:
                        rsectors[g] = marking[s]
        return GeneralizedRule(hw, "%s%d" % (which, c), rparts, rsectors)

    rules = [transition(1, "s"), transition(2, "s")]
    rules += [ring.lift(hw, r, smaps[1], name="1." + r.name)
              for r in m5.rules.values()]
    rules += [ring.lift(hw, r, smaps[2], special, name="2." + r.name)
              for r in m5.rules.values()]
    rules += [transition(1, "a"), transition(2, "a")]

    inputs = [(i - 1) * P + s for i in range(1, L + 1)
              for s in m5.input_sectors]
    machine = Machine(name, hw, rules, input_sectors=inputs,
                      noise=ring.noise())

    def main_ids(ids: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(al.id_of(scheme.alpha.name_of(x)) for x in ids)

    A, A1, B = main_ids(scheme.A), main_ids(scheme.A1), main_ids(scheme.B)
    bar = {x: al.id_of(bar_name(al.name_of(x))) for x in A + A1 + B}
    q_local, r_local = min(m5.input_sectors), max(m5.input_sectors)
    return MainMachine(
        machine=machine, m1=m1, scheme=scheme, plugin=plugin, params=params,
        m5=m5, L=L, P=P, A=A, A1=A1, B=B, bar=bar,
        q_inputs=tuple((i - 1) * P + q_local for i in range(1, L + 1)),
        r_inputs=tuple((i - 1) * P + r_local for i in range(1, L + 1)),
        special_sector=special)


# -- acceptance ---------------------------------------------------------------------

def _classify_start(W: AdmissibleWord, main: MainMachine
                    ) -> Optional[Tuple[str, Word]]:
    """("I", w) if W is I(w), ("J", w) if W is J(w), else None; w is the
    tape of the second copy's plain input sector, the same in both."""
    hw = main.machine.hw
    if W.hw is not hw or W.states != tuple(p.start for p in hw.parts):
        return None
    w = W.tapes[W.sectors.index(main.q_inputs[1])]
    if not main.local_scheme.signed[2].issuperset(w.ltrs):
        return None
    if W == main.input_i(w):
        return "I", w
    return ("J", w) if W == main.input_j(w) else None


def accepting_run(W: AdmissibleWord, main: MainMachine
                  ) -> Optional[Tuple[Computation, int]]:
    """The accepting computation from W with its machine count, or None.

    The accept configuration itself gets the empty computation with count
    0.  A start configuration is accepted exactly when it reads I(w) or
    J(w) for a member w of the plugin language; the history is built from
    the marked shift, the handover, and the plugin's own accepting run,
    then replayed on the machine as the correctness check.
    """
    mm = main.machine
    if W == mm.accept_config():
        return Computation([W], []), 0
    shape = _classify_start(W, main)
    if shape is None:
        return None
    which, w = shape
    if not main.plugin.member(main.to_plugin(w)):
        return None
    marked = main.to_m1(relabel(w, dict(zip(main.A, main.A1)), w.alpha))
    comp1 = shift(marked, main.m1, main.scheme)
    if comp1 is None:
        return None
    c = 1 if which == "I" else 2
    lifted = {nm: "%d.%s" % (c, nm) for nm in main.m1.rules}
    hist: History = [("s%d" % c, 1)]
    hist += [(lifted[nm], s) for nm, s in comp1.history]
    hist.append(("%d.sigma" % c, 1))
    hist += [("%d.%s" % (c, nm), s)
             for nm, s in main.plugin.accept_run(main.to_plugin(w))]
    hist.append(("a%d" % c, 1))
    try:
        comp = mm.run(W, hist, trace=False)
    except StepError:
        return None
    if comp.final() != mm.accept_config():
        return None
    return comp, history_ell(hist)


def history_ell(history: History) -> int:
    """Number of closing steps, i.e. of machines the computation uses."""
    return sum(1 for nm, _ in history if nm in ("a1", "a2"))


def main_time_bound(main: MainMachine, n: int) -> int:
    """Upper bound on accepting computation length for one-machine inputs.

    n bounds the payload length of one coordinate component, both input
    sectors together.
    """
    if n < 0:
        raise ValueError("the time bound takes a nonnegative argument")
    c0 = main.params.c0
    tm = main.plugin.time_bound(c0 * n)
    return c0 * tm ** 3 + n * c0 ** n + c0 * n + 2 * c0


# -- the sector language -----------------------------------------------------------

def lambda_accept(w: Word, main: MainMachine,
                  member: Callable[[Word], bool]
                  ) -> Optional[Tuple[History, List[Word]]]:
    """Accepting semi-computation of w in the special sector, if any.

    ``member`` is the oracle for the accepted plain language; it receives
    reduced words over the bottom scheme's payload letters.  Plain words
    are accepted as they stand with the empty history.  Fully marked
    words, decorated or not, are stripped by their decoded noise history
    and unmarked by the inverse start rule, once ``member`` accepts their
    marker skeleton.  Mixed words are never accepted.  One letter set
    classifies the word, one scan finds its markers, and
    :func:`strip_history`'s decode core reads the skeleton and the first
    nonempty gap, all on the machine's own letters (``local_scheme``); no
    letter leaves its alphabet but the payload image ``member`` judges.
    The history is replayed once, from the letter set and the markers as
    watch letters at their positions, and must reach the skeleton.
    """
    al = main.machine.hw.alpha
    wm = w if w.alpha is al else relabel_by_name(w, al)
    sch = main.local_scheme
    marks, marked, plain = sch.signed
    ls = frozenset(wm.ltrs)
    if plain.issuperset(ls):
        return ([], [wm]) if member(main.to_m1(wm)) else None
    if not marked.issuperset(ls):
        return None
    at = _scan(wm.ltrs, marks)
    stripped = _strip(wm.ltrs, at, sch)
    if stripped is None or not member(main.to_m1(delta(stripped[1], sch))):
        return None
    hist = [("1." + nm, s) for nm, s in stripped[0]] + [("s1", -1)]
    try:
        words = main.machine._semi_run(wm, main.special_sector, hist,
                                       (ls, marks, at))
    except StepError:
        return None
    return (hist, words) if words[-2] == stripped[1] else None
