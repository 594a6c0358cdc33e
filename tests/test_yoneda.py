"""The witness model: Ext(m, m) read off the minimal resolution P of a
semisimple module m, with the Yoneda product, against the class algebra H(E)
of the bar's convolution algebra E with the product p∘μ∘(i⊗i)
(``oracles.ClassAlgebra``), for k and for sums of simples.

The two are compared through the class correspondence the comparison map
gives: ψ: B → P, the lift of the bar's augmentation (the unit of E) along P,
sends a witness class f: P → m to f∘ψ, a cocycle of E = Hom(B, m), whose
class in H(E) is read by ``Cohomology.project``.  ψ is found by the witness
model's own ``lift``, the body its product runs on, here over the bar.
"""
import pytest

from dgcomplete import complete
from dgcomplete import models as M
from dgcomplete.dg import DgCategoryPresentation, category_algebra
from dgcomplete.bar import (
    WitnessModel, _bar_scheme, _hom_complex_into, _minimal_resolution,
    _module_objects, _purity, end_algebra, witness_model,
)
from dgcomplete.linalg import RATIONALS, Field, SparseMatrix
from oracles import ClassAlgebra
from test_minimal import _staggered_simples

GF = Field(32003)


def _k(variables, relations, wmax=None, field=RATIONALS):
    return M.truncated_poly(field, variables, relations, wmax=wmax).residue_module()


def _simples(name):
    return M.build_scenario(name)["module"]


def _spread(m):
    ws = [q[1] for q in m.basis_keys()]
    return max(ws) - min(ws)


def _pair(m, cap, pure=True):
    """The witness model of m at cap, the class algebra of E at inner caps
    (cap + 2, cap + spread) on |w| <= cap, and the correspondence from the
    first to the second.  Where pure is False, the witness model is built
    past the purity check, which the product does not need."""
    f = m.field
    w_read = cap + _spread(m)
    e = end_algebra(m, cap + 2, w_cap=w_read)
    bm = ClassAlgebra(e, cap)
    if pure:
        wm, record = witness_model(m, cap)
        assert wm is not None, record
        assert record == _purity(bm.space, m)
    else:
        p = _minimal_resolution(m, w_read, w_read)
        hom = _hom_complex_into(p, m, _module_objects(m), (1, w_read, 0))
        record = _purity(hom.space, m)
        assert record["off_line"] is not None
        wm = WitnessModel(hom, p, m, (w_read, w_read))
    h = e.complex.cohomology(wmax=cap)
    scheme, _, _ = _bar_scheme(m, cap + 2, w_read, None, m)
    psi = wm.lift(scheme, {t: {q: f.one} for q, t in scheme.bare.items()}, (0, 0))
    p = wm._realized()[0]

    def corr(elt):
        """The bar class of f∘ψ for the witness element elt."""
        cocycle = {}
        for key, c in elt.items():
            q, g = wm.space.label_of(key)
            for u, image in enumerate(psi):
                for (t, b), v in image.items():
                    if t == p.labels.index(g):
                        for q2, v2 in m.action.get((q, b), {}).items():
                            x = e.space.key_of(q2[0] - scheme.degs[u],
                                               q2[1] - scheme.wts[u],
                                               (q2, scheme.labels[u]))
                            cocycle[x] = f.add(cocycle.get(x, f.zero),
                                               f.mul(c, f.mul(v, v2)))
        return h.project({x: v for x, v in cocycle.items() if v})

    return wm, bm, corr


def _check(wm, bm, corr, cap):
    """corr is an isomorphism of algebras on the weights |w| <= cap:
    bijective cell by cell, unital, and multiplicative on every pair of
    classes whose product lands there; and both models and their modules
    over the opposite pass the validators."""
    f = wm.field
    cells = {c: wm.space.dim(*c) for c in wm.space.cells if abs(c[1]) <= cap}
    assert cells == {c: bm.space.dim(*c) for c in bm.space.cells}
    images = {k: corr({k: f.one}) for k in wm.basis_keys() if abs(k[1]) <= cap}
    for (d, w), n in cells.items():
        block = SparseMatrix(n, n, f)
        for k in wm.space.keys(d, w):
            for x, v in images[k].items():
                block[x[2], k[2]] = v
        assert block.rank() == n, (d, w)
    assert corr(wm.unit) == bm.unit
    for k1 in images:
        for k2 in images:
            if abs(k1[1] + k2[1]) <= cap:
                assert corr(wm.basis_product(k1, k2)) == bm.multiply(
                    images[k1], images[k2]), (k1, k2)
    for model in (wm, bm):
        assert model.validate().ok
        assert model.module_over_opposite().validate().ok


CASES = (
    [(f"k[x]/(x^2) cap {c}", lambda: _k(["x"], ["x^2"]), c) for c in (1, 2, 3, 4, 5)]
    + [(f"k[x,y]/(x^2,y^2) cap {c}", lambda: _k(["x", "y"], ["x^2", "y^2"]), c)
       for c in (1, 2, 3)]
    + [("GF(32003) k[x,y]/(x^2,y^2) cap 3",
        lambda: _k(["x", "y"], ["x^2", "y^2"], field=GF), 3)]
    + [(f"koszul_kx w{w} cap {c}", lambda w=w: _k(["x"], [], wmax=w), c)
       for w in (4, 5, 6, 7) for c in (3, 4, 5, 6) if c <= w]
)
def _zero_relation():
    """The simples of 1 -a-> 2 -b-> 3 with a then b zero: Ext²(S1, S3) is
    the Yoneda product of the classes of a and b, a product between three
    different keys that takes a lift."""
    pres = DgCategoryPresentation(["O1", "O2", "O3"])
    for i in (1, 2, 3):
        pres.add_morphism(f"e{i}", f"O{i}", f"O{i}", identity=True)
    pres.add_morphism("a", "O1", "O2", wt=1)
    pres.add_morphism("b", "O2", "O3", wt=1)
    pres.set_then("a", "b", {})
    alg = category_algebra(pres, RATIONALS, name="1 -> 2 -> 3, ab = 0")
    return M.sum_of_simples(alg, ["O1", "O2", "O3"])


# sums of simples: triangular_123, whose Ext has its classes between two
# keys, S(O1) ⊕ S(O2)[1, -1] over 1 -> 2, whose keys have two weights, and
# the simples of 1 -> 2 -> 3 with a zero relation, whose product is nonzero
SIMPLES = (
    [(f"triangular_123 cap {c}", lambda: _simples("triangular_123"), c)
     for c in (1, 2, 3)]
    + [(f"staggered simples cap {c}", lambda: _staggered_simples()["module"], c)
       for c in (1, 2, 3)]
    + [(f"ab = 0 cap {c}", _zero_relation, c) for c in (2, 3)]
)


@pytest.mark.parametrize("build,cap", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_the_yoneda_product_is_the_bar_models_product(build, cap):
    _check(*_pair(build(), cap), cap)


@pytest.mark.parametrize("build,cap", [c[1:] for c in SIMPLES],
                         ids=[c[0] for c in SIMPLES])
def test_the_yoneda_product_over_several_keys_is_the_bar_models_product(
        build, cap):
    """Every product of two classes, between any keys, is the reference's:
    p∘μ∘(i⊗i) on H(E) of the convolution algebra."""
    _check(*_pair(build(), cap), cap)


def test_a_product_between_three_keys_takes_a_lift():
    """Over 1 -a-> 2 -b-> 3 with ab = 0, the one nonzero product of two
    classes off degree 0 is the Ext² class, which runs between the two keys
    the factors do not share, and takes a lift."""
    wm, _, _ = _pair(_zero_relation(), 2)
    top, = wm.space.keys(2, -2)
    products = [(k1, k2, wm.basis_product(k1, k2)) for k1 in wm.basis_keys()
                for k2 in wm.basis_keys() if k1[0] and k2[0]]
    (k1, k2, prod), = [p for p in products if p[2]]
    assert list(prod) == [top] and wm._lifts
    assert (wm.ends(k1)[0], wm.ends(k2)[1]) == wm.ends(top)


def test_ext_of_k_over_the_dual_numbers_is_a_polynomial_ring():
    """Ext of k over k[x]/(x^2) is k[ε]: ε^n spans (n, -n), and ε·ε^n is
    ±ε^(n + 1), never zero, so each product takes a lift."""
    wm, _, _ = _pair(_k(["x"], ["x^2"]), 5)
    assert {c: wm.space.dim(*c) for c in wm.space.cells} == {
        (n, -n): 1 for n in range(6)}
    eps = wm.space.keys(1, -1)[0]
    for n in range(1, 5):
        power = wm.space.keys(n, -n)[0]
        prod = wm.basis_product(eps, power)
        assert list(prod) == wm.space.keys(n + 1, -n - 1)
        assert prod[wm.space.keys(n + 1, -n - 1)[0]] in (1, -1)


def test_classes_of_k_over_two_dual_numbers_anticommute_in_degree_one():
    """Ext of k over k[x,y]/(x^2,y^2) is k[ε₁] ⊗ k[ε₂] with the Koszul
    sign: ε_i² ≠ 0 and ε₁ε₂ = -ε₂ε₁ ≠ 0."""
    wm, _, _ = _pair(_k(["x", "y"], ["x^2", "y^2"]), 2)
    e1, e2 = wm.space.keys(1, -1)
    assert wm.space.dim(2, -2) == 3
    assert all(wm.basis_product(e, e) for e in (e1, e2))
    prod = wm.basis_product(e1, e2)
    assert prod and wm.basis_product(e2, e1) == {k: -v for k, v in prod.items()}


def test_the_product_needs_no_purity():
    """Over k[x]/(x^3) Ext is Λ[ε] ⊗ k[η] with η at (2, -3), off the line
    d = -w, so no completion reads either model past cap 2; built past the
    check, the Yoneda product still matches the bar's: ε² = 0 and εη ≠ 0."""
    wm, bm, corr = _pair(_k(["x"], ["x^3"]), 5, pure=False)
    _check(wm, bm, corr, 5)
    eps, eta = wm.space.keys(1, -1)[0], wm.space.keys(2, -3)[0]
    assert wm.basis_product(eps, eps) == {}
    assert list(wm.basis_product(eps, eta)) == wm.space.keys(3, -4)


def test_the_deck_reads_products_with_no_lift(monkeypatch):
    """A koszul_kx completion reads only products with the unit or onto a
    cell with no class: no lift runs, and P is never rebuilt."""
    sc = M.build_scenario("koszul_kx", params={"wmax": 6})

    def refused(*args):
        raise AssertionError("lift called")

    monkeypatch.setattr(WitnessModel, "lift", refused)
    monkeypatch.setattr(WitnessModel, "_realized", refused)
    for cap in (3, 4, 5, 6):
        r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
        assert r.inner_used == "witness"
        assert r.cohomology().dims_by_cell()
