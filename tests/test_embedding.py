"""Standard trick, block expansion, and the expanded-group word problem."""

import random

import pytest

from smforge.words import Alphabet, cyclic_reduce, free_reduce
from smforge.embedding import (build_pipeline, builtin_oracle, expand_C,
                               generator_images, lambda_oracle,
                               standard_trick, wp_RC)

p = pytest.mark.parametrize

C = 4


@pytest.fixture(scope="module")
def zpipe():
    return build_pipeline(builtin_oracle("Z"), C)


@pytest.fixture(scope="module")
def z2pipe():
    return build_pipeline(builtin_oracle("Z2"), C)


def yc_letters(pipe):
    return sorted(pipe.exp.position)


def random_reduced(al, pool, n, rng):
    out = []
    while len(out) < n:
        x = rng.choice(pool) * rng.choice((1, -1))
        if out and out[-1] == -x:
            continue
        out.append(x)
    return al.raw_word(out)


def random_s(pipe, rng):
    """A random relator: positive, nonempty, trivial in the outer group."""
    k = rng.randint(1, 3)
    if pipe.oracle.name == "Z":
        ltrs = [pipe.trick.y_plain[0]] * k + [pipe.trick.y_bar[0]] * k
    else:
        ltrs = [rng.choice(pipe.trick.y_letters) for _ in range(2 * k)]
    rng.shuffle(ltrs)
    return pipe.trick.Y.raw_word(ltrs)


def trivial_sample(pipe, rng, factors=2):
    """A product of conjugated expanded relators, trivial by construction."""
    al = pipe.exp.YC
    pool = yc_letters(pipe)
    w = al.word([])
    for _ in range(rng.randint(1, factors)):
        u = random_reduced(al, pool, rng.randrange(5), rng)
        w = w * u * pipe.exp.phi(random_s(pipe, rng)) * ~u
    return w


def _push(image, w):
    out = []
    for ltr in w.ltrs:
        img = image[abs(ltr)]
        out.extend(img if ltr > 0 else [-x for x in reversed(img)])
    return out


def z_trivial(pipe, w):
    """Independent decider for the Z pipeline: the expanded group is free
    of rank 2C-1 once the last barred letter is eliminated against the
    lone defining relator, so triviality is free reduction to nothing."""
    exp = pipe.exp
    rel = (list(exp.blocks[pipe.trick.y_plain[0]])
           + list(exp.blocks[pipe.trick.y_bar[0]]))
    image = {a: (a,) for a in exp.position}
    image[abs(rel[-1])] = tuple(-x for x in reversed(rel[:-1]))
    return not free_reduce(_push(image, w))


def z2_trivial(pipe, w):
    """Independent decider for the Z2 pipeline: the expanded group is a
    free product of a rank 2C-2 free group and an order-2 letter, and the
    rewriting t^2 -> 1 plus free reduction is confluent there."""
    exp = pipe.exp
    A = exp.blocks[pipe.trick.y_plain[0]]
    Ab = exp.blocks[pipe.trick.y_bar[0]]
    t = max(exp.position) + 1
    image = {a: (a,) for a in exp.position}
    image[A[-1]] = tuple(-x for x in reversed(A[:-1])) + (t,)
    image[Ab[-1]] = tuple(-x for x in reversed(Ab[:-1])) + (t,)
    seq = [t if abs(x) == t else x for x in _push(image, w)]
    while True:
        seq = list(free_reduce(seq))
        for i in range(len(seq) - 1):
            if seq[i] == t and seq[i + 1] == t:
                del seq[i:i + 2]
                break
        else:
            return not seq


# -- outer oracles and the standard trick ------------------------------------------

def test_builtin_oracle_z():
    ox = builtin_oracle("Z", ("x", "y"))
    al = ox.alpha
    x, y = ox.letters
    assert ox.wp(al.word([]))
    assert ox.wp(al.word([x, y, -x, -y]))
    assert not ox.wp(al.word([x]))
    assert not ox.wp(al.word([x, y]))


def test_builtin_oracle_z2():
    ox = builtin_oracle("Z2")
    al = ox.alpha
    (x,) = ox.letters
    assert ox.wp(al.word([x, x]))
    assert ox.wp(al.word([x] * 4))
    assert not ox.wp(al.word([x]))


def test_builtin_oracle_unknown():
    with pytest.raises(ValueError, match="builtin"):
        builtin_oracle("F2")


def test_standard_trick_shapes(zpipe):
    tr = zpipe.trick
    assert [tr.Y.name_of(y) for y in tr.y_plain] == ["x"]
    assert [tr.Y.name_of(y) for y in tr.y_bar] == ["x~"]
    assert tr.tau == {tr.y_bar[0]: tr.y_plain[0]}


def test_xi_inverts_bars(zpipe):
    tr = zpipe.trick
    x, xb = tr.y_plain[0], tr.y_bar[0]
    assert not len(tr.xi(tr.Y.word([x, xb])))
    assert tr.xi(tr.Y.word([xb])) == ~tr.xi(tr.Y.word([x]))


def test_s_membership(zpipe, z2pipe):
    tr = zpipe.trick
    x, xb = tr.y_plain[0], tr.y_bar[0]
    Y = tr.Y
    assert tr.in_S(Y.word([x, xb]))
    assert tr.in_S(Y.word([xb, x]))
    assert tr.in_S(Y.word([x, xb, x, xb]))
    assert not tr.in_S(Y.word([]))
    assert not tr.in_S(Y.word([x, x]))
    assert not tr.in_S(Y.word([x, -xb]))
    assert not tr.in_S(Y.word([-x, -xb]))  # trivial, but not positive
    tr2 = z2pipe.trick
    assert tr2.in_S(tr2.Y.word([tr2.y_plain[0]] * 2))


def test_bar_name_collision():
    with pytest.raises(ValueError, match="collide"):
        standard_trick(builtin_oracle("Z", ("x", "x~")))


# -- block expansion -----------------------------------------------------------------

def test_block_structure(zpipe):
    exp = zpipe.exp
    names = sorted(exp.YC.name_of(a) for a in exp.position)
    assert names == sorted("%s.%d" % (b, k) for b in ("x", "x~")
                           for k in range(1, C + 1))
    assert len(exp.position) == 2 * C
    for y in exp.y_letters:
        blk = exp.blocks[y]
        assert len(blk) == C
        assert [exp.position[a] for a in blk] == [(y, k)
                                                  for k in range(1, C + 1)]
        assert exp.A(y).ltrs == blk


def test_expand_rejects_bad_C(zpipe):
    tr = zpipe.trick
    with pytest.raises(ValueError, match="positive"):
        expand_C(tr.Y, tr.y_letters, tr.in_S, 0)


def test_phi_scales_lengths(zpipe):
    exp = zpipe.exp
    rng = random.Random(7)
    pool = list(exp.y_letters)
    for _ in range(40):
        w = random_reduced(exp.Y, pool, rng.randrange(7), rng)
        assert len(exp.phi(w)) == C * len(w)


def test_phi_is_a_homomorphism(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    u, v = exp.Y.word([x, xb]), exp.Y.word([-xb, x])
    assert exp.phi(u * v) == exp.phi(u) * exp.phi(v)
    assert exp.phi(~u) == ~exp.phi(u)
    assert exp.phi(exp.Y.word([])) == exp.YC.word([])


def test_d_word_roundtrip(zpipe):
    exp = zpipe.exp
    rng = random.Random(11)
    pool = list(exp.y_letters)
    for _ in range(40):
        w = random_reduced(exp.Y, pool, rng.randrange(6), rng)
        assert exp.d_word(exp.phi(w)) == w


def test_d_word_rejects_misaligned(zpipe):
    exp = zpipe.exp
    blk = exp.blocks[exp.y_letters[0]]
    assert exp.d_word(exp.YC.raw_word(blk[1:])) is None
    assert exp.d_word(exp.YC.raw_word(blk[:C - 1])) is None
    assert exp.d_word(exp.YC.raw_word(blk[1:] + blk[:1])) is None
    assert exp.d_word(exp.YC.word([])) == exp.Y.word([])


def test_in_SC(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    assert exp.in_SC(exp.phi(exp.Y.word([x, xb])))
    assert exp.in_SC(exp.phi(exp.Y.word([xb, x, x, xb])))
    assert not exp.in_SC(exp.phi(exp.Y.word([x, x])))
    assert not exp.in_SC(exp.phi(exp.Y.word([])))
    assert not exp.in_SC(~exp.phi(exp.Y.word([x, xb])))
    assert not exp.in_SC(exp.YC.raw_word(exp.blocks[x][1:]))


def test_zeta_roundtrip(zpipe):
    rng = random.Random(41)
    exp = zpipe.exp
    pool = yc_letters(zpipe)
    for _ in range(20):
        w = random_reduced(exp.YC, pool, rng.randrange(10), rng)
        assert zpipe.zeta_inv_t(zpipe.zeta_t(w)) == w


def test_foreign_alphabets_raise(zpipe):
    al = Alphabet()
    zz = al.word([al.intern("zz")])
    for decide in (lambda w: wp_RC(w, zpipe), lambda w: lambda_oracle(w, zpipe),
                   zpipe.in_L, zpipe.zeta_t, zpipe.zeta_inv_t):
        for w in (zz, al.word()):
            with pytest.raises(ValueError, match="word is not over the"):
                decide(w)
    block = zpipe.exp.phi(zpipe.exp.Y.word([zpipe.trick.y_plain[0]]))
    with pytest.raises(ValueError, match="not over the tape alphabet"):
        zpipe.zeta_inv_t(block)
    with pytest.raises(ValueError, match="not over the tape alphabet"):
        lambda_oracle(block, zpipe)
    with pytest.raises(ValueError, match="not over the block alphabet"):
        zpipe.zeta_t(zpipe.zeta_t(block))


def test_phi_requires_the_y_alphabet(zpipe):
    """A tape word whose ids are Y letters is not expanded as one."""
    exp = zpipe.exp
    ys = list(exp.y_letters)
    assert exp.phi(exp.Y.word(ys)) == exp.YC.word(
        [a for y in ys for a in exp.blocks[y]])
    with pytest.raises(ValueError, match="not over the Y alphabet"):
        exp.phi(zpipe.A.word(ys))


def test_d_word_requires_the_block_alphabet(zpipe):
    """A tape word whose ids spell a block is not read as that block."""
    exp = zpipe.exp
    x = exp.y_letters[0]
    block = exp.blocks[x]
    assert exp.d_word(exp.YC.word(block)) == exp.Y.word([x])
    with pytest.raises(ValueError, match="not over the block alphabet"):
        exp.d_word(zpipe.A.word(block))


def test_psi_requires_the_oracle_alphabet(zpipe):
    """A word over another alphabet is refused, whether or not its ids are
    the oracle's letters."""
    ox = zpipe.oracle
    (x,) = ox.letters
    al = Alphabet()
    zz = al.word([al.intern("zz"), al.intern("yy")])
    assert zpipe.psi(ox.alpha.word([x])) == generator_images(zpipe)["x"]
    for w in (zpipe.trick.Y.word([x]), zz):
        with pytest.raises(ValueError, match="not over the oracle's alphabet"):
            zpipe.psi(w)


@p("method", ["xi", "in_S", "wp_Y"])
def test_trick_methods_require_the_y_alphabet(zpipe, method):
    """The tape letters x.1 and x.2 have the ids of x and x~: read as Y
    letters they spell the relator x x~, so in_S answered True."""
    tr = zpipe.trick
    ys = list(tr.y_letters)
    assert tr.in_S(tr.Y.word(ys)) and tr.wp_Y(tr.Y.word(ys))
    with pytest.raises(ValueError, match="not over the Y alphabet"):
        getattr(tr, method)(zpipe.A.word(ys))


def test_oracle_wp_requires_its_alphabet(zpipe):
    """A word over another alphabet is refused, not read by ids; id 2 is
    no letter of the one-generator oracle."""
    ox = zpipe.oracle
    (x,) = ox.letters
    assert ox.wp(ox.alpha.word([x, -x])) and not ox.wp(ox.alpha.word([x]))
    for w in (zpipe.trick.Y.word([x]), zpipe.trick.Y.word([x, x + 1])):
        with pytest.raises(ValueError, match="not over the oracle's alphabet"):
            ox.wp(w)


def test_pipeline_letters(zpipe):
    assert zpipe.letters == tuple("%s.%d" % (b, k) for b in ("x", "x~")
                                  for k in range(1, C + 1))


# -- the expanded word problem -------------------------------------------------------

def test_wp_basic_examples(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    assert wp_RC(exp.phi(exp.Y.word([x])) * exp.phi(exp.Y.word([xb])), zpipe)
    assert not wp_RC(exp.phi(exp.Y.word([x])), zpipe)
    assert wp_RC(exp.YC.word([]), zpipe)
    assert not wp_RC(exp.phi(exp.Y.word([x, x])), zpipe)
    assert wp_RC(exp.phi(exp.Y.word([x, xb, x, xb])), zpipe)


def test_wp_z2_differs(z2pipe):
    exp = z2pipe.exp
    x = exp.y_letters[0]
    assert wp_RC(exp.phi(exp.Y.word([x, x])), z2pipe)
    assert not wp_RC(exp.phi(exp.Y.word([x])), z2pipe)


def test_wp_conjugates_and_rotations(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    r = exp.phi(exp.Y.word([x, xb]))
    rot = exp.YC.raw_word(r.ltrs[2:] + r.ltrs[:2])
    assert wp_RC(rot, zpipe)
    rng = random.Random(3)
    pool = yc_letters(zpipe)
    for _ in range(10):
        u = random_reduced(exp.YC, pool, rng.randrange(6), rng)
        assert wp_RC(u * r * ~u, zpipe)


@p("first", ["Z", "Z2"])
def test_the_memo_belongs_to_one_group(first):
    """The same y tuple (x, x) asked of a Z and a Z2 pipeline, in both
    orders: each pipeline remembers its own answers."""
    pipes = {kind: build_pipeline(builtin_oracle(kind), C)
             for kind in ("Z", "Z2")}
    assert pipes["Z"].trick.y_plain == pipes["Z2"].trick.y_plain
    for kind in sorted(pipes, key=lambda k: k != first):
        pipe = pipes[kind]
        x = pipe.trick.y_plain[0]
        xx = pipe.exp.phi(pipe.trick.Y.word([x, x]))
        assert wp_RC(xx, pipe) is (kind == "Z2")
        assert pipe.trick.trivial((x, x)) is (kind == "Z2")


def test_wp_short_words_never_trivial(zpipe):
    rng = random.Random(5)
    exp = zpipe.exp
    pool = yc_letters(zpipe)
    for _ in range(50):
        w = random_reduced(exp.YC, pool, rng.randrange(1, C), rng)
        assert not wp_RC(w, zpipe)


@p("pipe_name, seed", [("zpipe", 13), ("z2pipe", 17)])
def test_wp_products_of_relator_conjugates(request, pipe_name, seed):
    pipe = request.getfixturevalue(pipe_name)
    rng = random.Random(seed)
    for _ in range(12):
        assert wp_RC(trivial_sample(pipe, rng, factors=3), pipe)


def test_normal_form_deciders_sane(zpipe, z2pipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    assert z_trivial(zpipe, exp.phi(exp.Y.word([x, xb])))
    assert not z_trivial(zpipe, exp.phi(exp.Y.word([x, x])))
    e2 = z2pipe.exp
    x2 = e2.y_letters[0]
    assert z2_trivial(z2pipe, e2.phi(e2.Y.word([x2, x2])))
    assert z2_trivial(z2pipe, e2.phi(e2.Y.word([x2, e2.y_letters[1]])))
    assert not z2_trivial(z2pipe, e2.phi(e2.Y.word([x2])))


def test_wp_matches_normal_form_exhaustive_short(zpipe):
    exp = zpipe.exp
    signed = [s * a for a in yc_letters(zpipe) for s in (1, -1)]
    words = [[]] + [[a] for a in signed] + [[a, b] for a in signed
                                            for b in signed if b != -a]
    for ltrs in words:
        w = exp.YC.raw_word(ltrs)
        assert wp_RC(w, zpipe) == z_trivial(zpipe, w)


@p("pipe_name, decider, seed", [("zpipe", z_trivial, 23),
                                ("z2pipe", z2_trivial, 29)])
def test_wp_matches_normal_forms(request, pipe_name, decider, seed):
    pipe = request.getfixturevalue(pipe_name)
    rng = random.Random(seed)
    exp = pipe.exp
    pool = yc_letters(pipe)
    for _ in range(120):
        w = random_reduced(exp.YC, pool, rng.randrange(3 * C + 1), rng)
        assert wp_RC(w, pipe) == decider(pipe, w)
    for _ in range(25):
        w = trivial_sample(pipe, rng)
        assert decider(pipe, w)
        assert wp_RC(w, pipe)
    for _ in range(25):
        w = (trivial_sample(pipe, rng)
             * random_reduced(exp.YC, pool, rng.randrange(8), rng))
        assert wp_RC(w, pipe) == decider(pipe, w)


# -- the tape-letter core language ---------------------------------------------------

def test_lambda_oracle_core(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    r = zpipe.zeta_t(exp.phi(exp.Y.word([x, xb])))
    assert lambda_oracle(r, zpipe)
    assert lambda_oracle(~r, zpipe)
    ltrs = r.ltrs
    for k in range(1, len(ltrs)):
        assert lambda_oracle(zpipe.A.raw_word(ltrs[k:] + ltrs[:k]), zpipe)
    assert not lambda_oracle(zpipe.A.word([]), zpipe)
    assert not lambda_oracle(zpipe.A.word([ltrs[0]]), zpipe)
    u = zpipe.A.word([ltrs[0]])
    w = u * r * ~u
    assert not lambda_oracle(w, zpipe)
    assert wp_RC(w, zpipe)


def test_lambda_oracle_length_floor(zpipe):
    rng = random.Random(31)
    pool = [zpipe.zeta[a] for a in yc_letters(zpipe)]
    for _ in range(40):
        w = random_reduced(zpipe.A, pool, rng.randrange(1, C), rng)
        assert not lambda_oracle(w, zpipe)


def test_lambda_oracle_accepts_the_language(zpipe):
    rng = random.Random(37)
    for _ in range(15):
        w = zpipe.zeta_t(zpipe.exp.phi(random_s(zpipe, rng)))
        assert zpipe.in_L(w)
        assert lambda_oracle(w, zpipe)
    exp = zpipe.exp
    x = exp.y_letters[0]
    assert not zpipe.in_L(zpipe.zeta_t(exp.phi(exp.Y.word([x, x]))))


def test_lambda_oracle_products(zpipe):
    exp = zpipe.exp
    x, xb = exp.y_letters
    u = zpipe.zeta_t(exp.phi(exp.Y.word([x, xb])))
    v = zpipe.zeta_t(exp.phi(exp.Y.word([xb, x])))
    for a, b in ((u, v), (v, u), (u, ~u), (~v, u)):
        core, _ = cyclic_reduce(a * b)
        assert (not core) or lambda_oracle(core, zpipe)


# -- generator images ----------------------------------------------------------------

def test_generator_images(zpipe):
    imgs = generator_images(zpipe)
    assert sorted(imgs) == ["x"]
    w = imgs["x"]
    assert len(w) == C
    assert all(a > 0 for a in w.ltrs)
    assert [zpipe.A.name_of(a) for a in w.ltrs] == ["x.%d" % k
                                                    for k in range(1, C + 1)]


def test_generator_images_disjoint():
    pipe = build_pipeline(builtin_oracle("Z", ("x", "y")), 3)
    imgs = generator_images(pipe)
    assert sorted(imgs) == ["x", "y"]
    sup = {n: {abs(a) for a in imgs[n].ltrs} for n in imgs}
    assert not (sup["x"] & sup["y"])
    assert all(len(imgs[n]) == 3 for n in imgs)
    ox = pipe.oracle
    u = ox.alpha.word([ox.letters[0], -ox.letters[1]])
    assert pipe.psi(u) == imgs["x"] * ~imgs["y"]


@p("pipe_name", ["zpipe", "z2pipe"])
def test_desk_injectivity(request, pipe_name):
    pipe = request.getfixturevalue(pipe_name)
    ox = pipe.oracle
    (x,) = ox.letters
    for k in range(4):
        for s in (1, -1) if k else (1,):
            w = ox.alpha.word([s * x] * k)
            assert wp_RC(pipe.psi(w), pipe) == ox.wp(w)


def test_desk_injectivity_two_letters():
    pipe = build_pipeline(builtin_oracle("Z", ("x", "y")), 3)
    ox = pipe.oracle
    signed = [s * a for a in ox.letters for s in (1, -1)]
    words = [[]] + [[a] for a in signed] + [[a, b] for a in signed
                                            for b in signed if b != -a]
    for ltrs in words:
        w = ox.alpha.raw_word(ltrs)
        assert wp_RC(pipe.psi(w), pipe) == ox.wp(w)
