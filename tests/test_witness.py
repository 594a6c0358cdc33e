"""Ext and Tor of k through its minimal-resolution witness, against the bar.

``TruncatedRing.residue_module`` gives k the recipe of its minimal
resolution over a monomial complete intersection, and ``derived_hom`` and
``derived_tensor`` then build Hom_A(P, n) and P ⊗_A n over it.  The same k
from ``quotient_module`` carries no recipe, so it runs on the bar: the two
routes must agree on every cell, dimensions and certificates.
"""
import pytest

from dgcomplete import models as M
from dgcomplete.bar import derived_hom, derived_tensor
from dgcomplete.dg import (
    DgModule, direct_sum_modules, identity_morphism, regular_module,
    restrict_scalars, shift_module,
)
from dgcomplete.graded import Window
from dgcomplete.linalg import RATIONALS, Field
from test_bar import _complex_snapshot, trivial_left

GF = Field(32003)


def _ring(t, field=GF):
    """k[x]/(x^t), or k[x,y]/(x^2, y^2) when t is None: the ext_gfp rings."""
    if t is None:
        return M.truncated_poly(field, ["x", "y"], ["x^2", "y^2"])
    return M.truncated_poly(field, ["x"], [f"x^{t}"])


def _both(ring):
    """k with the recipe, and k without it."""
    k = ring.residue_module()
    assert k.resolution is not None
    return k, ring.quotient_module(ring.variables)


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
    k, bar_k = _both(ring)
    k_left = trivial_left(ring.algebra)
    ext, tor = Window(0, n, n), Window(-n, 0, n)
    got = _table(derived_hom(k, k, n), ext)
    assert got == _table(derived_hom(bar_k, bar_k, n), ext)
    assert all(got[(d, w)][1] for d in range(0, n + 1) for w in range(-n, 1))
    got = _table(derived_tensor(k, k_left, n), tor)
    assert got == _table(derived_tensor(bar_k, k_left, n), tor)
    assert all(got[(d, w)][1] for d in range(-n, 1) for w in range(0, n + 1))


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=repr)
@pytest.mark.parametrize("t", [3, None],
                         ids=lambda t: "k[x,y]/(x2,y2)" if t is None else f"t{t}")
def test_witness_matches_the_bar_into_targets_the_ring_acts_on(field, t):
    """Hom of k into A, where the attaching map acts on the target, and Tor
    with A as the left factor, where it acts on the right key."""
    ring = _ring(t, field)
    k, bar_k = _both(ring)
    a = ring.algebra
    n = 5
    window = Window(-n, n, n)
    reg = regular_module(a)
    a_left = DgModule(a, a.complex, dict(a.mult), side="left")
    for build in (lambda m: derived_hom(m, reg, n),
                  lambda m: derived_tensor(m, a_left, n),
                  lambda m: derived_hom(m, reg, n, w_cap=3),
                  lambda m: derived_tensor(m, trivial_left(a), n, w_cap=2)):
        cx = build(k)
        assert cx.validate_d2() is None
        assert _table(cx, window) == _table(build(bar_k), window)


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


def _witness_of(p):
    """The SemiFree read off a FreeComplex: its generators, and d(g) as
    pairs (index of h, ring element at h), h in the order d(g) lists it."""
    at = {g: i for i, (g, _, _) in enumerate(p.gens)}
    attaching = []
    for (g, _, _) in p.gens:
        terms = {}
        for (h, m), c in p.d.entries.get(g, {}).items():
            terms.setdefault(at[h], {})[p.ring.mono_key(m)] = c
        attaching.append(list(terms.items()))
    return p.gens, attaching


# every ring whose k carries the recipe: the field twice over, one variable
# at each exponent the ext_gfp deck draws, and products of periodic factors,
# one of them under a weight cap that cuts no monomial
RECIPE_RINGS = [([], []), (["x"], ["x"])] + [
    (["x"], [f"x^{t}"]) for t in range(2, 7)] + [
    (["x", "y"], ["x^2", "y^2"]), (["x", "y"], ["x^3", "y^2"], 3),
    (["x", "y"], ["x", "y^3"]), (["x", "y", "z"], ["x^2", "y^2", "z^2"])]


@pytest.mark.parametrize("spec", RECIPE_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_the_recipe_builds_the_witness_of_free_resolution(spec):
    """The recipe builds its SemiFree straight from the resolution's data,
    with no FreeComplex: at every length 0-8 it equals the witness read off
    ``free_resolution``, generators and attaching map in the same order."""
    ring = M.truncated_poly(GF, *spec)
    k = ring.residue_module()
    for length in range(9):
        got = k.resolution(length)
        assert (got.gens, got.attaching) == _witness_of(M.free_resolution(ring, length))


def test_the_recipe_keeps_its_longest_build(monkeypatch):
    """Nothing is built when k is made; a call no longer than the kept
    build reads its prefix, a longer one builds afresh, and a second k over
    the same ring keeps a build of its own."""
    lengths = []
    build = M._witness

    def counted(ring, length):
        lengths.append(length)
        return build(ring, length)

    monkeypatch.setattr(M, "_witness", counted)
    ring = _ring(4)
    k = ring.residue_module()
    assert lengths == []
    derived_hom(k, k, 6)
    derived_tensor(k, trivial_left(k.algebra), 7)
    derived_hom(k, k, 6)
    assert lengths == [6, 7]
    other = ring.residue_module()
    derived_hom(other, other, 6)
    assert lengths == [6, 7, 6]
    with pytest.raises(ValueError, match="non-negative"):
        k.resolution(-1)


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=repr)
@pytest.mark.parametrize("spec", RECIPE_RINGS, ids=lambda s: f"{s[0]}/{s[1]}")
def test_each_shorter_length_reads_the_prefix_of_the_kept_build(field, spec):
    """After a build at length 10, every length 10..0 answers exactly what
    a build at that length does: generators, attaching map and order."""
    ring = M.truncated_poly(field, *spec)
    k = ring.residue_module()
    k.resolution(10)
    for length in range(10, -1, -1):
        got, want = k.resolution(length), M._witness(ring, length)
        assert (got.gens, got.attaching) == (want.gens, want.attaching)


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
        p = k.resolution(length)
        p.gens.clear()
        for row in p.attaching:
            row.clear()
        p.attaching.append([])
    for length in (6, 4):
        got, want = k.resolution(length), M._witness(ring, length)
        assert (got.gens, got.attaching) == (want.gens, want.attaching)


def test_the_recipe_checks_the_bidegree_of_each_entry(monkeypatch):
    """The recipe runs the constructor's check on every entry of its data:
    a generator one weight too heavy for its step down raises ValueError."""
    build = M._product_resolution

    def off(*args):
        gens, terms = build(*args)
        gens[-1] = (gens[-1][0], gens[-1][1], gens[-1][2] + 1)
        return gens, terms

    monkeypatch.setattr(M, "_product_resolution", off)
    with pytest.raises(ValueError, match="weight"):
        _ring(3).residue_module().resolution(4)


def test_passing_reduced_asks_for_the_bar():
    k, bar_k = _both(_ring(3))
    for reduced in (True, False):
        assert (_complex_snapshot(derived_hom(k, k, 4, reduced=reduced))
                == _complex_snapshot(derived_hom(bar_k, bar_k, 4, reduced=reduced)))
    k_left = trivial_left(k.algebra)
    assert (_complex_snapshot(derived_tensor(k, k_left, 4, reduced=True))
            == _complex_snapshot(derived_tensor(bar_k, k_left, 4)))


def test_only_the_residue_field_of_a_complete_intersection_carries_a_recipe():
    k = _ring(3).residue_module()
    derived = [shift_module(k, 1), direct_sum_modules(k, k),
               restrict_scalars(identity_morphism(k.algebra), k)]
    assert all(m.resolution is None for m in derived)
    # a weight cap that cuts a monomial, or a relation that is no pure
    # power, leaves no complete intersection
    cut = [M.truncated_poly(GF, ["x"], [], wmax=4),
           M.truncated_poly(GF, ["x", "y"], ["x^2", "y^2"], wmax=1),
           M.truncated_poly(GF, ["x", "y"], ["x^2", "x*y", "y^2"])]
    assert all(r.residue_module().resolution is None for r in cut)
    whole = [M.truncated_poly(GF, ["x", "y"], ["x^2", "y^2"], wmax=2),
             M.truncated_poly(GF, ["x", "y"], ["x", "y^3"]),
             M.truncated_poly(GF, [], [])]
    assert all(r.residue_module().resolution is not None for r in whole)
