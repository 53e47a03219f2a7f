"""Tower constructions over generalized S-machines.

Three builders turn small linear machines into the cyclic machine the ring
is laid on: ``compose`` runs two machines in series, ``reflect`` doubles
a machine against its mirror copy, ``cyclify`` closes the base behind an
anchor letter, and ``_Ring`` lays L copies around one ring, sharing tape
letters but not state letters.  Each stage maps each distinct sector rule
once (``_map_sectors``), so images share sector rules as their sources
do, and its ``Machine`` checks the renamed noise declaration, with the
noisy forms the stage below found carried over.

Mirror copies use barred letters (suffix ``~``), not inverse letters: the
mirror of a tape word w is mu(w) = bar(w)^-1, an anti-isomorphism, and as
bar is a renaming every mirrored free basis keeps the one positive letter
per entry that the sector machinery relies on.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from smforge.words import Alphabet, Word, relabel
from smforge.smachine import (
    AdmissibleWord,
    GeneralizedRule,
    Hardware,
    Machine,
    NoiseDecl,
    Part,
    RulePart,
    SectorRule,
)


# -- letter bookkeeping ---------------------------------------------------------

def bar_name(name: str) -> str:
    return name + "~"


def _copy_letter(al2: Alphabet, src: Alphabet, x: int) -> int:
    """Intern a letter of ``src`` into ``al2`` with its name and metadata."""
    return al2.intern(src.name_of(x), kind=src.kind_of(x),
                      subkind=src.subkind_of(x) or "o",
                      coord=src.coord_of(x))


def _letters(hw: Hardware) -> List[int]:
    """The hardware's letters in copy order: state letters part by part,
    then tape letters sector by sector."""
    return ([q for p in hw.parts for q in p.letters]
            + [y for t in hw.tapes for y in t])


def _copy_letters(al2: Alphabet, hw: Hardware) -> Dict[int, int]:
    """Copy the hardware's letters into ``al2`` in copy order; the id map."""
    return {x: _copy_letter(al2, hw.alpha, x) for x in _letters(hw)}


def _map_part(rp: RulePart, lmap: Dict[int, int], al2: Alphabet) -> RulePart:
    return RulePart(lmap[rp.q], relabel(rp.u, lmap, al2),
                    lmap[rp.q2], relabel(rp.v, lmap, al2))


def _map_sectors(m: Machine, lmap: Dict[int, int], al2: Alphabet
                 ) -> Dict[GeneralizedRule, List[Optional[SectorRule]]]:
    """Each rule of m to its sector rules through ``lmap``, each distinct one
    mapped once (by identity: a ``SectorRule`` is not hashable).

    A decorated rule maps its letters and its descriptors' two noise
    letters, not the noise words (``SectorRule.relabel``).  When ``lmap``
    is one to one, each image keeps its source's noisy forms under the
    renamed declarations, so :func:`validate_noisy` classifies no pair
    twice across the tower.
    """
    carry = len(set(lmap.values())) == len(lmap)
    images: Dict[int, Optional[SectorRule]] = {id(None): None}
    for r in m.rules.values():
        for sec in r.sectors:
            if id(sec) not in images:
                img = images[id(sec)] = sec.relabel(lmap, al2)
                if carry:
                    for d, form in sec.forms.items():
                        try:
                            img.forms[_map_decl(d, lmap)] = form
                        except KeyError:  # declared over other letters
                            pass
    return {r: [images[id(sec)] for sec in r.sectors]
            for r in m.rules.values()}


def _map_decl(d: tuple, lmap: Dict[int, int]) -> tuple:
    """A sector's declaration (K, M, N, phi items), as ``validate_noisy``
    keys it, renamed as :func:`_map_noise` renames it."""
    K, M, N, phi = d
    return (tuple(lmap[y] for y in K), tuple(lmap[y] for y in M),
            tuple(lmap[y] for y in N),
            tuple((lmap[a], lmap[b]) for a, b in phi))


def _map_noise(noise: Optional[NoiseDecl], lmap: Dict[int, int],
               smap: Callable[[int], int]) -> NoiseDecl:
    noise = noise or NoiseDecl()  # none maps to the empty declaration
    K, M, N = ({smap(s): tuple(lmap[y] for y in ys) for s, ys in d.items()}
               for d in (noise.K, noise.M, noise.N))
    phi = {smap(s): {lmap[a]: lmap[b] for a, b in d.items()}
           for s, d in noise.phi.items()}
    return NoiseDecl(K, M, N, phi)


def _merge_noise(*decls: NoiseDecl) -> NoiseDecl:
    """``decls`` as one, in one pass; a sector declared twice raises."""
    out, seen = NoiseDecl(), set()
    for d in decls:
        mine = set(d.K) | set(d.M) | set(d.N)
        if mine & seen:
            raise ValueError("noise declared twice for sectors %s"
                             % sorted(mine & seen))
        seen |= mine
        for into, part in zip((out.K, out.M, out.N, out.phi),
                              (d.K, d.M, d.N, d.phi)):
            into.update(part)
    return out


# -- series composition ----------------------------------------------------------

@dataclass
class SigmaSpec:
    """How to connect two machines in series.

    ``sector`` is the one sector the connecting rule leaves unlocked, with
    the identity on the composite tape alphabet there.  ``identify``
    renames tape letters of the second machine onto tape letters of the
    first (by name), so the output tape of the first machine becomes the
    input tape of the second.
    """
    sector: int = 2
    identify: Optional[Dict[str, str]] = None
    name: str = "sigma"


def compose(m_a: Machine, m_b: Machine, sigma: SigmaSpec,
            name: Optional[str] = None) -> Machine:
    """Series composition: run m_a, hand over by the sigma rule, run m_b.

    Both machines must be linear with the same number of parts.  Part i
    of the result carries the state letters of both part i's; start
    states come from m_a, end states from m_b.  State letters and rule
    names must not collide; tape letters of m_b are renamed through
    ``sigma.identify`` where given and kept otherwise.
    """
    if m_a.hw.cyclic or m_b.hw.cyclic:
        raise ValueError("compose expects linear machines")
    n = m_a.hw.n_parts
    if m_b.hw.n_parts != n:
        raise ValueError("part counts differ: %d vs %d"
                         % (n, m_b.hw.n_parts))
    if not 1 <= sigma.sector < n:
        raise ValueError("sigma sector %d out of range" % sigma.sector)
    dup = set(m_a.rules) & set(m_b.rules)
    if sigma.name in m_a.rules or sigma.name in m_b.rules:
        dup.add(sigma.name)
    if dup:
        raise ValueError("rule names collide: %s" % ", ".join(sorted(dup)))
    ident = dict(sigma.identify or {})

    al = Alphabet()
    amap = _copy_letters(al, m_a.hw)
    bmap: Dict[int, int] = {}
    for p in m_b.hw.parts:
        for q in p.letters:
            nm = m_b.hw.alpha.name_of(q)
            if nm in al:
                raise ValueError("state letter %r appears in both machines"
                                 % nm)
            bmap[q] = _copy_letter(al, m_b.hw.alpha, q)
    for s in range(1, n):
        for y in m_b.hw.tapes[s]:
            nm = m_b.hw.alpha.name_of(y)
            if nm in ident:
                bmap[y] = al.id_of(ident[nm])
            elif nm in al:
                raise ValueError("tape letter %r needs an identify entry"
                                 % nm)
            else:
                bmap[y] = _copy_letter(al, m_b.hw.alpha, y)

    parts = []
    for i in range(n):
        pa, pb = m_a.hw.parts[i], m_b.hw.parts[i]
        letters = (tuple(amap[q] for q in pa.letters)
                   + tuple(bmap[q] for q in pb.letters))
        parts.append(Part(letters, amap[pa.start], bmap[pb.end]))
    tapes: List[Tuple[int, ...]] = [()]
    for s in range(1, n):
        joint = [amap[y] for y in m_a.hw.tapes[s]]
        for y in m_b.hw.tapes[s]:
            if bmap[y] not in joint:
                joint.append(bmap[y])
        tapes.append(tuple(joint))
    hw = Hardware(al, parts, tapes)

    def translate(m: Machine, lmap: Dict[int, int]) -> List[GeneralizedRule]:
        sectors = _map_sectors(m, lmap, al)
        return [GeneralizedRule(hw, r.name,
                                [_map_part(rp, lmap, al) for rp in r.parts],
                                sectors[r]) for r in m.rules.values()]

    rules = translate(m_a, amap)
    e = al.word()
    sparts = [RulePart(amap[m_a.hw.parts[i].end], e,
                       bmap[m_b.hw.parts[i].start], e) for i in range(n)]
    ssec: List[Optional[SectorRule]] = [None] * n
    singles = tuple(al.word([y]) for y in tapes[sigma.sector])
    ssec[sigma.sector] = SectorRule(singles, singles)
    rules.append(GeneralizedRule(hw, sigma.name, sparts, ssec))
    rules += translate(m_b, bmap)

    noise = _merge_noise(_map_noise(m_a.noise, amap, lambda s: s),
                         _map_noise(m_b.noise, bmap, lambda s: s))
    return Machine(name or (m_a.name + "-" + m_b.name), hw, rules,
                   input_sectors=list(m_a.input_sectors), noise=noise)


# -- reflection -------------------------------------------------------------------

def reflect(m: Machine, name: Optional[str] = None) -> Machine:
    """Double a linear machine against its mirror image.

    Parts 0..n-1 stay as they are; part 2n-1-i is a barred copy of part i.
    The new middle sector n is empty and locked by every rule.  Mirror
    tape content follows the original through mu(w) = bar(w)^-1: each rule
    acts on mirror part 2n-1-i by q~ -> mu(v) q2~ mu(u) and on mirror
    sector 2n-s through the barred bases, which together reproduce mu of
    the original action.  Input sectors double up and the noise
    declaration is mirrored alongside.
    """
    hw = m.hw
    if hw.cyclic:
        raise ValueError("reflect expects linear hardware")
    n = hw.n_parts
    src = hw.alpha
    unames = {src.name_of(x) for x in _letters(hw)}
    clash = sorted(nm for nm in unames if bar_name(nm) in unames)
    if clash:
        raise ValueError("letters %s collide with their mirror names"
                         % ", ".join(clash))

    al = Alphabet()
    omap = _copy_letters(al, hw)
    bmap = {x: al.intern(bar_name(src.name_of(x)), kind=src.kind_of(x),
                         subkind=src.subkind_of(x) or "o")
            for x in _letters(hw)}

    parts = [Part(tuple(omap[q] for q in p.letters),
                  omap[p.start], omap[p.end]) for p in hw.parts]
    for i in range(n - 1, -1, -1):
        p = hw.parts[i]
        parts.append(Part(tuple(bmap[q] for q in p.letters),
                          bmap[p.start], bmap[p.end]))
    tapes: List[Tuple[int, ...]] = [()]
    for s in range(1, n):
        tapes.append(tuple(omap[y] for y in hw.tapes[s]))
    tapes.append(())
    for s in range(n - 1, 0, -1):
        tapes.append(tuple(bmap[y] for y in hw.tapes[s]))
    hw2 = Hardware(al, parts, tapes)

    def mu(w: Word) -> Word:
        return ~relabel(w, bmap, al)

    osecs, bsecs = _map_sectors(m, omap, al), _map_sectors(m, bmap, al)
    rules = []
    for r in m.rules.values():
        rparts = [_map_part(rp, omap, al) for rp in r.parts]
        for i in range(n - 1, -1, -1):
            rp = r.parts[i]
            rparts.append(RulePart(bmap[rp.q], mu(rp.v),
                                   bmap[rp.q2], mu(rp.u)))
        # osecs[r][0] is None (no sector 0); the middle sector n is locked
        sectors = osecs[r] + [None] + bsecs[r][:0:-1]
        rules.append(GeneralizedRule(hw2, r.name, rparts, sectors))

    inputs = list(m.input_sectors) + [2 * n - s for s in m.input_sectors]
    noise = _merge_noise(_map_noise(m.noise, omap, lambda s: s),
                         _map_noise(m.noise, bmap, lambda s: 2 * n - s))
    return Machine(name or (m.name + "~"), hw2, rules, inputs, noise)


# -- cyclification ----------------------------------------------------------------

def cyclify(m: Machine, t_name: str = "t",
            name: Optional[str] = None) -> Machine:
    """Close a linear machine into a cyclic one behind a fresh anchor part.

    The new singleton part {t} becomes part 0 and the old part i moves to
    i + 1, so the old sector s becomes s + 1.  Both new sectors (1,
    between t and the old first part, and 0, the wrap) are empty and
    locked, and every rule fixes t.
    """
    hw = m.hw
    if hw.cyclic:
        raise ValueError("cyclify expects linear hardware")
    n = hw.n_parts
    if t_name in {hw.alpha.name_of(x) for x in _letters(hw)}:
        raise ValueError("anchor name %r collides with a letter" % t_name)

    al = Alphabet()
    t = al.intern(t_name, kind="q")
    lmap = _copy_letters(al, hw)
    parts = [Part((t,), t, t)]
    parts += [Part(tuple(lmap[q] for q in p.letters),
                   lmap[p.start], lmap[p.end]) for p in hw.parts]
    tapes: List[Tuple[int, ...]] = [(), ()]
    tapes += [tuple(lmap[y] for y in hw.tapes[s]) for s in range(1, n)]
    hw2 = Hardware(al, parts, tapes, cyclic=True)

    e = al.word()
    sectors = _map_sectors(m, lmap, al)
    rules = []
    for r in m.rules.values():
        rparts = [RulePart(t, e, t, e)]
        rparts += [_map_part(rp, lmap, al) for rp in r.parts]
        rules.append(GeneralizedRule(hw2, r.name, rparts,
                                     [None] + sectors[r]))
    inputs = [s + 1 for s in m.input_sectors]
    noise = _map_noise(m.noise, lmap, lambda s: s + 1)
    return Machine(name or (m.name + "o"), hw2, rules, inputs, noise)


# -- parallel copies ---------------------------------------------------------------

class _Ring:
    """L copies of a cyclic machine laid around one ring.

    Tape letters are interned once into a fresh alphabet and shared by
    all copies, as is each sector rule, so copy i's sector s is ring sector
    (i - 1) * P + s.  State letters are interned per copy, optionally
    tagged, for several rule sets; ``lift`` runs a rule on every copy at
    once, and ``noise`` merges the copies' declarations in one pass.
    """

    def __init__(self, m: Machine, L: int):
        self.m, self.L, self.P = m, L, m.hw.n_parts
        self.al = Alphabet()
        self.tmap: Dict[int, int] = {}
        for s in range(self.P):
            for y in m.hw.tapes[s]:
                self.tmap[y] = _copy_letter(self.al, m.hw.alpha, y)
        self.tapes = [tuple(self.tmap[y] for y in m.hw.tapes[s])
                      for _ in range(L) for s in range(self.P)]
        self.sectors = _map_sectors(m, self.tmap, self.al)

    @staticmethod
    def suffix(i: int) -> str:
        """Name suffix of copy i's letters: none on the first copy."""
        return "" if i == 1 else "(%d)" % i

    def states(self, i: int, parts: Sequence[int],
               tag: str = "") -> Dict[int, int]:
        """Intern copy i's state letters of the given parts, each named
        name + tag + suffix(i)."""
        src = self.m.hw.alpha
        d: Dict[int, int] = {}
        for pi in parts:
            for q in self.m.hw.parts[pi].letters:
                nm = src.name_of(q) + tag + self.suffix(i)
                if nm in self.al:
                    raise ValueError("state letter %r collides" % nm)
                d[q] = self.al.intern(nm, kind="q", coord=i)
        return d

    def lift(self, hw: Hardware, r: GeneralizedRule,
             smaps: Sequence[Dict[int, int]], special: Optional[int] = None,
             *, name: str) -> GeneralizedRule:
        """r acting on every copy, copy i's states through smaps[i - 1].

        Copies share tape letters, so each insert of r is mapped once and
        each sector rule of r once per ring (``sectors``): every copy, in
        every rule set, gets the same object.  With ``special`` the first
        copy of that sector is locked and the insertions beside it dropped.
        """
        tmap, al = self.tmap, self.al
        e = al.word()
        inserts = [(relabel(rp.u, tmap, al), relabel(rp.v, tmap, al))
                   for rp in r.parts]
        rparts: List[RulePart] = []
        rsectors: List[Optional[SectorRule]] = []
        for i, d in enumerate(smaps, 1):
            for pi, (rp, (u, v)) in enumerate(zip(r.parts, inserts)):
                if special is not None and i == 1:
                    if pi == special - 1:
                        v = e
                    if pi == special:
                        u = e
                rparts.append(RulePart(d[rp.q], u, d[rp.q2], v))
            rsectors += self.sectors[r]
        if special is not None:
            rsectors[special] = None
        return GeneralizedRule(hw, name, rparts, rsectors)

    def noise(self) -> NoiseDecl:
        """The machine's noise declaration repeated on every copy."""
        return _merge_noise(*(
            _map_noise(self.m.noise, self.tmap, lambda s, base=i * self.P:
                       base + s) for i in range(self.L)))


def component(W: AdmissibleWord, coord: int, P: int) -> AdmissibleWord:
    """The coord-th copy's slice of a parallel machine's configuration.

    The slice keeps the copy's own sectors and drops the junctions, so a
    rule of the parallel machine restricts to it part by part.
    """
    if not W.is_configuration():
        raise ValueError("component needs a configuration")
    if len(W.states) % P:
        raise ValueError("state count %d not a multiple of %d"
                         % (len(W.states), P))
    L = len(W.states) // P
    if not 1 <= coord <= L:
        raise ValueError("no copy %d in a %d-copy configuration"
                         % (coord, L))
    lo = (coord - 1) * P
    return AdmissibleWord(W.hw, W.states[lo:lo + P],
                          W.tapes[lo:lo + P - 1])
