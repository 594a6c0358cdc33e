"""Ext and Tor of a semisimple module through its minimal resolution,
against the bar.

``derived_hom`` and ``derived_tensor`` build Hom_A(P, n) and P ⊗_A n over
the minimal resolution P of a semisimple module (``bar._minimal_resolution``:
k, the simples, their sums and shifts), which the module keeps.  Passed
``reduced=True``, they run on the module's bar instead: the two routes must
agree on every cell, dimensions and certificates.
"""
import hashlib
import math

import pytest

from dgcomplete import models as M
from dgcomplete.bar import (
    _bar_scheme, _minimal_resolution, derived_hom, derived_tensor,
)
from dgcomplete.dg import (
    DgModule, SemiFree, direct_sum_modules, regular_module, shift_module,
)
from dgcomplete.graded import BiGradedSpace, CochainComplex, Window
from dgcomplete.linalg import RATIONALS, Field
from test_bar import _complex_snapshot, trivial_left
from oracles import residue_betti
from test_minimal import _check_bidegrees, _counted_builds

GF = Field(32003)


def _ring(t, field=GF):
    """k[x]/(x^t), or k[x,y]/(x^2, y^2) when t is None: the ext_gfp rings."""
    if t is None:
        return M.truncated_poly(field, ["x", "y"], ["x^2", "y^2"])
    return M.truncated_poly(field, ["x"], [f"x^{t}"])


def _table(cx, window):
    h = cx.cohomology(window)
    return {cell: (h.dim(*cell), h.certificate.exact_at(*cell))
            for cell in window.grid()}


@pytest.mark.parametrize("n", [6, 7, 8, 9])
@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, None],
                         ids=lambda t: "k[x,y]/(x2,y2)" if t is None else f"t{t}")
def test_witness_matches_the_bar_on_every_deck_shape(t, n):
    """Every ext_hom and ext_tor shape an ext_gfp deck can draw: equal
    dimensions and certificates on the whole window the job reads, and
    every cell of the benchmark's reference grid certified."""
    ring = _ring(t)
    k = ring.residue_module()
    k_left = trivial_left(ring.algebra)
    ext, tor = Window(0, n, n), Window(-n, 0, n)
    got = _table(derived_hom(k, k, n), ext)
    assert got == _table(derived_hom(k, k, n, reduced=True), ext)
    assert all(got[(d, w)][1] for d in range(0, n + 1) for w in range(-n, 1))
    got = _table(derived_tensor(k, k_left, n), tor)
    assert got == _table(derived_tensor(k, k_left, n, reduced=True), tor)
    assert all(got[(d, w)][1] for d in range(-n, 1) for w in range(0, n + 1))


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=repr)
@pytest.mark.parametrize("t", [3, None],
                         ids=lambda t: "k[x,y]/(x2,y2)" if t is None else f"t{t}")
def test_witness_matches_the_bar_into_targets_the_ring_acts_on(field, t):
    """Hom of k into A, where the attaching map acts on the target, and Tor
    with A as the left factor, where it acts on the right key."""
    ring = _ring(t, field)
    k = ring.residue_module()
    a = ring.algebra
    n = 5
    window = Window(-n, n, n)
    reg = regular_module(a)
    a_left = DgModule(a, a.complex, dict(a.mult), side="left")
    for build in (lambda **kw: derived_hom(k, reg, n, **kw),
                  lambda **kw: derived_tensor(k, a_left, n, **kw),
                  lambda **kw: derived_hom(k, reg, n, w_cap=3, **kw),
                  lambda **kw: derived_tensor(k, trivial_left(a), n, w_cap=2, **kw)):
        cx = build()
        assert cx.validate_d2() is None
        assert _table(cx, window) == _table(build(reduced=True), window)


def test_witness_complexes_have_the_size_of_the_answer():
    """One generator per Ext class, so d = 0: the 4 generators of weight at
    most 9 over k[x]/(x^5) at length 9, where the bar's Hom complex has 432
    elements, and 45 over k[x,y]/(x^2, y^2) at length 8, where it has
    1681."""
    for t, n, size in ((5, 9, 4), (None, 8, 45)):
        k = _ring(t).residue_module()
        for cx in (derived_hom(k, k, n),
                   derived_tensor(k, trivial_left(k.algebra), n)):
            assert cx.space.total_dim() == size
            assert all(b.is_zero() for b in cx.d.blocks.values())


def _fields(w):
    return (w.labels, w.degs, w.wts, w.objs, w.src, w.dst, w.kid, w.coef,
            w.keys)


def _betti(p):
    """P's generators per bidegree."""
    return sorted(zip(p.degs, p.wts))


def _within(p, w_cap):
    """P's generators within w_cap of its lightest, all of them when None."""
    if w_cap is None:
        return p
    return p.cut([i for i, w in enumerate(p.wts) if w - min(p.wts) <= w_cap])


# k over the field twice over, one variable at each exponent the ext_gfp
# deck draws, and products of periodic factors, one of them under a weight
# cap that cuts no monomial
RESOLVED_RINGS = [([], []), (["x"], ["x"])] + [
    (["x"], [f"x^{t}"]) for t in range(2, 7)] + [
    (["x", "y"], ["x^2", "y^2"]), (["x", "y"], ["x^3", "y^2"], 3),
    (["x", "y"], ["x", "y^3"]), (["x", "y", "z"], ["x^2", "y^2", "z^2"])]


@pytest.mark.parametrize("w_cap", [None, 2])
@pytest.mark.parametrize("spec", RESOLVED_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_the_minimal_resolution_has_the_closed_form_betti_numbers(spec, w_cap):
    """The minimal resolution ``_minimal_resolution`` finds for k has the
    generators per bidegree of the closed form (``oracles.residue_betti``)
    at every length 0-8, uncut and under a weight cap of 2, each term of
    its d keeping its bidegree; the builds come from the one longest build
    k keeps."""
    ring = M.truncated_poly(GF, *spec)
    k = ring.residue_module()
    powers = [max(rel[i] for rel in ring.relations) for i in range(len(ring.variables))]
    for length in range(9):
        p = _minimal_resolution(k, length, w_cap)
        _check_bidegrees(p)
        want = residue_betti(powers, length)
        if w_cap is not None:
            want = [(d, w) for d, w in want if w <= w_cap]
        assert _betti(p) == want, length
    assert k._resolved[:2] == (8, math.inf if w_cap is None else w_cap)


def test_a_module_keeps_its_longest_minimal_resolution(monkeypatch):
    """Nothing is built when k is made; Ext or Tor no longer than the kept
    build reads it, a longer one builds afresh, and a second k over the
    same ring keeps a build of its own.  A negative length is refused."""
    builds = _counted_builds(monkeypatch)
    ring = _ring(4)
    k = ring.residue_module()
    assert builds == []
    derived_hom(k, k, 6)
    derived_tensor(k, trivial_left(k.algebra), 7)
    derived_hom(k, k, 6)
    assert builds == [(k, 6, 6), (k, 7, 7)]
    other = ring.residue_module()
    derived_hom(other, other, 6)
    assert builds[2:] == [(other, 6, 6)]
    for build in (lambda: _minimal_resolution(k, -1), lambda: derived_hom(k, k, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            build()


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=repr)
@pytest.mark.parametrize("spec", RESOLVED_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_each_shorter_length_reads_the_prefix_of_the_kept_build(field, spec):
    """After a build at length 10, every length 10..0 answers exactly what
    a build at that length does: generators, attaching map and order."""
    ring = M.truncated_poly(field, *spec)
    k = ring.residue_module()
    _minimal_resolution(k, 10)
    for length in range(10, -1, -1):
        want = _minimal_resolution(ring.residue_module(), length)
        assert _fields(_minimal_resolution(k, length)) == _fields(want)


@pytest.mark.parametrize("t", [5, None],
                         ids=lambda t: "k[x,y]/(x2,y2)" if t is None else f"t{t}")
def test_ext_and_tor_over_one_module_answer_what_fresh_modules_answer(t):
    """Ext and Tor over one k at lengths 8, 6, 9, 7, 6, one of them with a
    weight cap, equal the same calls over a fresh k each time."""
    ring = _ring(t)
    k_left = trivial_left(ring.algebra)
    k = ring.residue_module()
    calls = [(8, None), (6, None), (9, None), (7, 4), (6, None)]
    for n, w_cap in calls:
        fresh = ring.residue_module()
        for got, want, window in (
                (derived_hom(k, k, n, w_cap), derived_hom(fresh, fresh, n, w_cap),
                 Window(0, n, n)),
                (derived_tensor(k, k_left, n, w_cap),
                 derived_tensor(fresh, k_left, n, w_cap), Window(-n, 0, n))):
            assert _complex_snapshot(got) == _complex_snapshot(want)
            assert _table(got, window) == _table(want, window)


def test_editing_a_returned_witness_leaves_the_next_answer_unchanged():
    """Each answer is fresh lists over the kept build, at the kept length
    and below it."""
    ring = _ring(3)
    k = ring.residue_module()
    for length in (6, 6, 4):
        p = _minimal_resolution(k, length)
        for col in _fields(p):
            col.clear()
        p.src.append(0)
    for length in (6, 4):
        want = _minimal_resolution(ring.residue_module(), length)
        assert _fields(_minimal_resolution(k, length)) == _fields(want)


@pytest.mark.parametrize("spec", RESOLVED_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_a_weight_cap_cuts_the_kept_build_in_the_one_copy(monkeypatch, spec):
    """Given a weight cap, the kept build answers with the generators of the
    length's prefix within it of the lightest, as cutting its plain answer
    by weight does, and Ext and Tor copy the kept build once per call."""
    ring = M.truncated_poly(GF, *spec)
    k = ring.residue_module()
    _minimal_resolution(k, 8)
    for length in (8, 5):
        whole = _minimal_resolution(k, length)
        for w_cap in range(length + 2):
            assert (_fields(_minimal_resolution(k, length, w_cap))
                    == _fields(_within(whole, w_cap)))
    copies = []
    cut = SemiFree.cut

    def counted(p, keep):
        copies.append(p)
        return cut(p, keep)

    monkeypatch.setattr(SemiFree, "cut", counted)
    derived_hom(k, k, 6, 3)
    derived_tensor(k, trivial_left(k.algebra), 7)
    assert len(copies) == 2


def test_passing_reduced_asks_for_the_bar():
    """k runs on its minimal resolution by default and on its bar whenever
    ``reduced`` is passed: Hom(P, k) has one element per generator of P,
    Hom(B, k) one per bar tuple, reduced or not, and so has B ⊗ k."""
    k = _ring(3).residue_module()
    k_left = trivial_left(k.algebra)
    assert derived_hom(k, k, 4).space.total_dim() == len(_minimal_resolution(k, 4, 4).labels) == 4
    for reduced in (True, False):
        tuples = len(_bar_scheme(k, 4, 4, reduced)[0].labels)
        assert derived_hom(k, k, 4, reduced=reduced).space.total_dim() == tuples
    tuples = len(_bar_scheme(k, 4, 4, True)[0].labels)
    assert derived_tensor(k, k_left, 4, reduced=True).space.total_dim() == tuples


def _ext(k, n, w_cap=None):
    return derived_hom(k, k, n, w_cap).cohomology(Window(0, n, n))


def _tor(k, n, w_cap=None):
    return derived_tensor(k, trivial_left(k.algebra), n, w_cap).cohomology(
        Window(-n, 0, n))


# Ext and Tor over k's minimal resolution as the benchmark reads them,
# pinned as GOLDEN_BUILDS pins the bar: the jobs that hold ext_gfp's
# median, the two-variable ring, and a weight cap below the length.  Only
# dimensions and certificates are hashed: nothing reads P's labels or
# their order within a cell.  Recorded over a closed-form resolution of k
# that the minimal resolution replaced, with every digest unchanged.
GOLDEN_WITNESS = [
    ("ext k[x]/(x^5) n9", lambda: _ext(_ring(5).residue_module(), 9),
     "57f97b3ab6300d30663f2ed31373e468e48af3155d72ee456a60fc5659ee275a"),
    ("tor k[x]/(x^5) n9", lambda: _tor(_ring(5).residue_module(), 9),
     "550f76ed6a00916f831c18778f0f5d78a757b497eba840bd079a72770f681360"),
    ("ext k[x,y]/(x^2,y^2) n8", lambda: _ext(_ring(None).residue_module(), 8),
     "20f26f366c30b4d2d5ca9b477ac5d68fca0608a7e1a0fb3e8695177f43b044db"),
    ("tor k[x,y]/(x^2,y^2) n8", lambda: _tor(_ring(None).residue_module(), 8),
     "615db9532b5d713fb4936afdf9671703c20c770b07df98546e037030d854eed1"),
    ("ext k[x]/(x^3) n8 w_cap 4",
     lambda: _ext(_ring(3).residue_module(), 8, 4),
     "5dc061ca6101c1c2eccf368cc31dd6eff7147b5873b8c816b878c639ee756bea"),
    ("tor k[x]/(x^3) n8 w_cap 4",
     lambda: _tor(_ring(3).residue_module(), 8, 4),
     "2ab035acc29b04a88f8f42439eaebd0d6912c93f68a361101afbb0d57dbc2a47"),
]


@pytest.mark.parametrize("build,digest", [b[1:] for b in GOLDEN_WITNESS],
                         ids=[b[0] for b in GOLDEN_WITNESS])
def test_witness_cohomology_keeps_its_recorded_digests(build, digest):
    h = build()
    text = repr((sorted(h.dims_by_cell().items()),
                 sorted(h.certificate.status.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _tor_at(t, n, w_cap, wt):
    ring = _ring(t)
    return derived_tensor(ring.residue_module(),
                          trivial_left(ring.algebra, wt=wt), n, w_cap)


# What the witness's complexes keep and mark known, beyond dimensions and
# certificates in one window: its Tor keeps every total weight P ⊗ n
# reaches, also past the weight cap when the left factor sits at positive
# weight, and both mark known only the columns up to the certified-empty
# ray.  Hashed with the knowledge of the complex and of its cohomology;
# recorded before the witness moved onto the bar's builders, and over the
# closed-form resolution of k as GOLDEN_WITNESS was.
GOLDEN_WITNESS_REACH = [
    ("tor k[x]/(x^3) n8 w_cap 4, k at weight 2",
     lambda: _tor_at(3, 8, 4, 2), Window(-8, 0, 8),
     "429184e3a61e25b14c8793f00c50055ac8f12c90a1898156b297698611b3e254"),
    ("tor k[x]/(x^5) n9, k at weight 3",
     lambda: _tor_at(5, 9, None, 3), Window(-9, 0, 12),
     "019d5e49fe0dd8000efd9551e1191fba098ee68c3c624d518be167904905b26c"),
    ("tor k[x]/(x^5) n9", lambda: _tor_at(5, 9, None, 0), Window(-9, 0, 9),
     "4db34f89ada77ee8420abea107a422adf8c6582a00d7d228ebb3cd87fa269ce0"),
    ("ext k[x]/(x^5) n9",
     lambda: (lambda k: derived_hom(k, k, 9))(_ring(5).residue_module()),
     Window(0, 9, 9),
     "5d1efb1378bc8594ec56a8365b1b11877ce9ec91793332da7f5bdb60cbd14902"),
]


@pytest.mark.parametrize("build,window,digest",
                         [b[1:] for b in GOLDEN_WITNESS_REACH],
                         ids=[b[0] for b in GOLDEN_WITNESS_REACH])
def test_witness_reach_and_knowledge_keep_their_recorded_digests(
        build, window, digest):
    cx = build()
    h = cx.cohomology(window)
    text = repr((sorted(h.dims_by_cell().items()),
                 sorted(h.certificate.status.items()),
                 [(sorted(sp.known_cols.items()), sp.zero_outside,
                   sp.known_zero_below, sp.known_zero_above)
                  for sp in (cx.space, h.space)]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ext_and_tor_read_the_action_table_directly(monkeypatch):
    """Neither builder goes through ``DgModule.act`` or ``act_left``: over
    the witness and over the bar, each product is read off ``action``."""
    calls = []
    for name in ("act", "act_left"):
        real = getattr(DgModule, name)
        monkeypatch.setattr(DgModule, name,
                            lambda self, *args, real=real:
                            calls.append(1) or real(self, *args))
    ring = _ring(5)
    k, k_left = ring.residue_module(), trivial_left(ring.algebra)
    for build in (lambda: derived_hom(k, k, 9),
                  lambda: derived_tensor(k, k_left, 9),
                  lambda: derived_tensor(k, k_left, 9, reduced=True)):
        build()
        assert calls == []


@pytest.mark.parametrize("relations,n,w_cap", [
    (["x^3", "y^2"], 5, 2), (["x^6", "y^2"], 5, 4), (["x^3", "y^2"], 4, 4)],
    ids=lambda v: str(v))
def test_a_weight_cut_inside_the_length_matches_the_bar(relations, n, w_cap):
    """Over two variables of unequal exponents the weight cap cuts inside
    the length: some generator of length at most n is heavier than w_cap,
    and over x^6 the ones within it are no prefix of the resolution.  Ext
    and Tor over what the cut keeps equal the bar's on every cell."""
    ring = M.truncated_poly(GF, ["x", "y"], relations)
    k = ring.residue_module()
    wts = _minimal_resolution(k, n).wts
    kept = [i for i, w in enumerate(wts) if w <= w_cap]
    assert len(kept) < len(wts)
    assert (kept != list(range(len(kept)))) == (relations[0] == "x^6")
    k_left = trivial_left(ring.algebra)
    for build, window in ((lambda **kw: derived_hom(k, k, n, w_cap, **kw), Window(0, n, n)),
                          (lambda **kw: derived_tensor(k, k_left, n, w_cap, **kw),
                           Window(-n, 0, n))):
        cx = build()
        assert cx.validate_d2() is None
        assert _table(cx, window) == _table(build(reduced=True), window)


def _knowledge(cx):
    sp = cx.space
    return sorted(sp.known_cols.items()), sp.known_zero_below, sp.known_zero_above


@pytest.mark.parametrize("spec", RESOLVED_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_the_bar_and_the_witness_know_the_same_columns(spec):
    """Ext and Tor of k know the same columns and the same certified-empty
    ray over the witness and over the bar, at every length 0-8, with no
    weight cap and with cap 2: each marks the columns its certificate
    reaches from the ray's edge inward, and none inside the ray."""
    ring = M.truncated_poly(GF, *spec)
    k, k_left = ring.residue_module(), trivial_left(ring.algebra)
    for n in range(9):
        for w_cap in (None, 2):
            for build in (lambda **kw: derived_hom(k, k, n, w_cap, **kw),
                          lambda **kw: derived_tensor(k, k_left, n, w_cap, **kw)):
                assert _knowledge(build()) == _knowledge(build(reduced=True))


def _k_at(a, wt):
    """k as a right module placed at weight wt."""
    sp = BiGradedSpace(a.field)
    sp.add_cell(0, wt, ["m"])
    mk = (0, wt, 0)
    action = {(mk, x): {mk: a.field.one} for x in a.basis_keys() if x[1] == 0}
    return DgModule(a, CochainComplex(sp), action, side="right")


def test_a_module_off_weight_zero_keeps_the_columns_its_ext_knows():
    """Ext(k(2), k(2)) over k[x]/(x^5) at length 4, k placed at weight 2,
    answers what Ext(k, k) answers, certified at weights -4..0 in degrees
    0-3: the bar's generators four weights heavier than k(2) are there."""
    a = _ring(5).algebra
    window = Window(0, 4, 6)
    got = _table(derived_hom(_k_at(a, 2), _k_at(a, 2), 4), window)
    assert got == _table(derived_hom(_k_at(a, 0), _k_at(a, 0), 4), window)
    assert all(got[(d, w)][1] for d in range(4) for w in range(-4, 1))


@pytest.mark.parametrize("spec,t", [
    ((["x"], [], 4), 5), ((["x"], ["x^5"], 2), 3), ((["x"], [], 0), 1)],
    ids=["k[x] w4", "k[x]/(x^5) w2", "k[x] w0"])
def test_one_variable_under_a_weight_cap_reads_as_a_power(spec, t):
    """k[x] under the weight cap W is the algebra k[x]/(x^(W+1)), and any
    one-variable ring is k[x]/(x^t) for t its number of monomials: k's
    minimal resolution has the generators per bidegree of k's over that
    power, and Ext and Tor over it equal the bar's on every cell."""
    ring = M.truncated_poly(GF, *spec)
    k = ring.residue_module()
    for length in range(9):
        assert _betti(_minimal_resolution(k, length)) == residue_betti([t], length)
    k_left = trivial_left(ring.algebra)
    for n in (4, 6):
        ext, tor = Window(0, n, n), Window(-n, 0, n)
        assert (_table(derived_hom(k, k, n), ext)
                == _table(derived_hom(k, k, n, reduced=True), ext))
        assert (_table(derived_tensor(k, k_left, n), tor)
                == _table(derived_tensor(k, k_left, n, reduced=True), tor))


def _zero(a, side):
    return DgModule(a, CochainComplex(BiGradedSpace(a.field)), {}, side=side, name="0")


@pytest.mark.parametrize("reduced", [None, True], ids=["witness", "bar"])
def test_hom_into_and_tensor_with_the_zero_module_are_complete(reduced):
    """Hom(k, 0) and Tor(k, 0) over k[x]/(x^2) are zero complexes, known
    everywhere as a source with no generators is: all 49 cells of the
    window -3..3 at weights |w| <= 3 certified, over the witness and over
    the bar."""
    ring = _ring(2)
    k = ring.residue_module()
    window = Window(-3, 3, 3)
    for cx in (derived_hom(k, _zero(ring.algebra, "right"), 3, reduced=reduced),
               derived_tensor(k, _zero(ring.algebra, "left"), 3, reduced=reduced)):
        assert cx.space.fully_known()
        got = _table(cx, window)
        assert len(got) == 49 and set(got.values()) == {(0, True)}


@pytest.mark.parametrize("reduced", [None, True], ids=["minimal", "bar"])
def test_ext_and_tor_out_of_the_zero_module_are_complete(reduced):
    """The zero module is semisimple and its minimal resolution empty: Hom
    out of it into k and into 0, and its Tor with k, are zero complexes
    known at every cell of the window, over P and over the bar."""
    ring = _ring(2)
    a = ring.algebra
    zero = _zero(a, "right")
    window = Window(-3, 3, 3)
    for cx in (derived_hom(zero, ring.residue_module(), 3, reduced=reduced),
               derived_hom(zero, zero, 3, reduced=reduced),
               derived_tensor(zero, trivial_left(a), 3, reduced=reduced)):
        assert cx.space.fully_known() and cx.space.total_dim() == 0
        got = _table(cx, window)
        assert len(got) == 49 and set(got.values()) == {(0, True)}
    assert (zero._resolved is None) == (reduced is True)


def _left_twin(m):
    """A semisimple right module m as a left module: each weight-0 key
    acts on the left as on the right, every other key by zero."""
    action = {(x, q): v for (q, x), v in m.action.items()}
    return DgModule(m.algebra, m.complex, action, side="left", name=m.name)


def _gf_k(variables, relations, wmax=None):
    return M.truncated_poly(GF, variables, relations, wmax=wmax).residue_module()


# semisimple modules beyond the deck's: k over koszul_kx, the simples of
# the triangular path algebras, k over rings with no closed-form
# resolution, and a shift and a sum of k
SEMISIMPLE = [
    (f"koszul_kx w{w}", lambda w=w: M.build_scenario("koszul_kx", params={"wmax": w})["module"])
    for w in (4, 6)] + [
    (f"S(O{i}) of triangular_{n}",
     lambda n=n, i=i: M.simple_module(M.path_chain_algebra(RATIONALS, n), f"O{i}"))
    for n in (2, 3, 4) for i in range(1, n + 1)] + [
    ("k[x,y] w5", lambda: _gf_k(["x", "y"], [], 5)),
    ("k[x,y]/(x2,xy,y2)", lambda: _gf_k(["x", "y"], ["x^2", "x*y", "y^2"])),
    ("k[x,y]/(xy) w5", lambda: _gf_k(["x", "y"], ["x*y"], 5)),
    ("k[x,y,z]/(x2,y2,z2)", lambda: _gf_k(["x", "y", "z"], ["x^2", "y^2", "z^2"])),
    ("k[x]/(x4)", lambda: _ring(4).residue_module()),
    ("k[1] over k[x]/(x3)", lambda: shift_module(_ring(3).residue_module(), 1)),
    ("k+k over k[x]/(x3)",
     lambda: (lambda k: direct_sum_modules(k, k))(_ring(3).residue_module())),
]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("build", [s[1] for s in SEMISIMPLE], ids=[s[0] for s in SEMISIMPLE])
def test_every_semisimple_module_matches_the_bar(build, n):
    """Ext(m, m), Hom(m, A) and Tor(m, m) over m's minimal resolution equal
    the same over its bar on every cell of the window, dimensions and
    certificates, and some cell is certified."""
    m = build()
    a = m.algebra
    window = Window(-n - 1, n + 1, n + 3)
    for functor in (lambda **kw: derived_hom(m, m, n, **kw),
                    lambda **kw: derived_hom(m, regular_module(a), n, **kw),
                    lambda **kw: derived_tensor(m, _left_twin(m), n, **kw)):
        got = _table(functor(), window)
        assert got == _table(functor(reduced=True), window)
        assert any(ok for _, ok in got.values())
    assert m._resolved[:2] == (n, n)


def test_ext_over_the_minimal_resolution_has_the_size_of_the_answer():
    """Ext(k, k) over k[x, y] under weight cap 5 at length 5: 4 elements,
    one per generator of k's Koszul resolution, where the bar's Hom complex
    has 396."""
    k = _gf_k(["x", "y"], [], 5)
    assert derived_hom(k, k, 5).space.total_dim() == 4
    assert derived_hom(k, k, 5, reduced=True).space.total_dim() == 396
