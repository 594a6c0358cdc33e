"""The witness model: Ext(k, k) read off k's minimal resolution P, with the
Yoneda product, against the minimal model H(E) of the bar's convolution
algebra.

The two are compared through the class correspondence the comparison map
gives: ψ: B → P, the lift of the bar's augmentation (the unit of E) along P,
sends a witness class f: P → k to f∘ψ, a cocycle of E = Hom(B, k), whose
class in H(E) is read by ``Cohomology.project``.  ψ is found by the witness
model's own ``lift``, the body its product runs on, here over the bar.
"""
import pytest

from dgcomplete import complete
from dgcomplete import models as M
from dgcomplete.bar import (
    MinimalModel, WitnessModel, _bar_scheme, _purity, derived_hom, end_algebra,
    minimal_model, witness_model,
)
from dgcomplete.linalg import RATIONALS, Field, SparseMatrix

GF = Field(32003)


def _k(variables, relations, wmax=None, field=RATIONALS):
    return M.truncated_poly(field, variables, relations, wmax=wmax).residue_module()


def _pair(k, cap, pure=True):
    """The witness model of k at cap, the minimal model of E at inner caps
    (cap + 2, cap) on |w| <= cap, and the correspondence from the first to
    the second.  Where pure is False, both models are built past the purity
    check, which the product does not need."""
    f = k.field
    e = end_algebra(k, cap + 2, w_cap=cap)
    h = e.complex.cohomology(wmax=cap)
    if pure:
        wm, record = witness_model(k, cap)
        bm, bar_record = minimal_model(e, cap)
        assert wm is not None and bm is not None
        assert record == bar_record
    else:
        hom = derived_hom(k, k, cap)
        record = _purity(hom.space, k)
        assert record["off_line"] is not None
        wm = WitnessModel(hom, k, (cap, cap), record)
        q0, = k.basis_keys()
        bm = MinimalModel(e, h, {c: (q0, q0) for c in h.representatives}, record)
    scheme, _, _ = _bar_scheme(k, cap + 2, cap, None, k)
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
                        for q2, v2 in k.action.get((q, b), {}).items():
                            x = e.space.key_of(q2[0] - scheme.degs[u],
                                               q2[1] - scheme.wts[u],
                                               (q2, scheme.labels[u]))
                            cocycle[x] = f.add(cocycle.get(x, f.zero),
                                               f.mul(c, f.mul(v, v2)))
        return h.project({x: v for x, v in cocycle.items() if v})

    return wm, bm, corr


def _check(wm, bm, corr):
    """corr is an isomorphism of algebras: bijective cell by cell, unital,
    and multiplicative on every pair of classes; and both models and their
    modules over the opposite pass the validators."""
    f = wm.field
    cells = {c: wm.space.dim(*c) for c in wm.space.cells}
    assert cells == {c: bm.space.dim(*c) for c in bm.space.cells}
    images = {k: corr({k: f.one}) for k in wm.basis_keys()}
    for (d, w), n in cells.items():
        block = SparseMatrix(n, n, f)
        for k in wm.space.keys(d, w):
            for x, v in images[k].items():
                block[x[2], k[2]] = v
        assert block.rank() == n, (d, w)
    assert corr(wm.unit) == bm.unit
    for k1 in wm.basis_keys():
        for k2 in wm.basis_keys():
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


@pytest.mark.parametrize("build,cap", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_the_yoneda_product_is_the_bar_models_product(build, cap):
    _check(*_pair(build(), cap))


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
    _check(wm, bm, corr)
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
