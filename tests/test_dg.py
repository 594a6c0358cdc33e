"""DG algebras and modules: validators, opposites, category algebras."""
import pytest

from dgcomplete.linalg import RATIONALS
from dgcomplete.dg import (
    AlgebraMorphism, DgAlgebra, DgCategoryPresentation, category_algebra,
    direct_sum_modules, identity_morphism, regular_module,
    restrict_scalars, right_ideal_module, shift_module,
)
from dgcomplete.graded import GradedMap

F = RATIONALS


def dual_numbers_algebra():
    """k[eps]/(eps^2) with |eps| = 1, weight 1, zero differential."""
    return DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("e", 1, 1)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "e"): {"e": 1},
                  ("e", "1"): {"e": 1}, ("e", "e"): {}},
        name="k[e]",
    )


def square_zero_algebra():
    """k[x]/(x^2) with |x| = 0, weight 1."""
    return DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("x", 0, 1)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                  ("x", "1"): {"x": 1}, ("x", "x"): {}},
        name="k[x]/(x2)",
    )


def paper_two_object_category():
    """Two objects; End(X1) = k[eps], one arrow u: X1 -> X2, End(X2) = k."""
    pres = DgCategoryPresentation(["X1", "X2"])
    pres.add_morphism("e1", "X1", "X1", identity=True)
    pres.add_morphism("e2", "X2", "X2", identity=True)
    pres.add_morphism("eps", "X1", "X1", deg=1, wt=1)
    pres.add_morphism("u", "X1", "X2", deg=0, wt=1)
    pres.set_then("eps", "eps", {})
    pres.set_then("eps", "u", {})   # eps then u = u∘eps = 0
    return pres


def test_dual_numbers_validates():
    a = dual_numbers_algebra()
    rep = a.validate()
    assert rep.ok, rep.violations


def test_d_unit_nonzero_reported():
    a = DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("y", 1, 0)],
        unit_names=["1"],
        differential={"1": {"y": 1}},
        products={("1", "1"): {"1": 1}, ("1", "y"): {"y": 1},
                  ("y", "1"): {"y": 1}, ("y", "y"): {}},
    )
    rep = a.validate()
    assert not rep.ok
    kinds = {k for k, _ in rep.violations}
    assert "leibniz" in kinds or "left_unit" in kinds


def test_bad_associativity_reported_with_triple():
    a = DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("x", 0, 1), ("y", 0, 2)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
                  ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
                  ("x", "x"): {"y": 1}, ("x", "y"): {"y": 1}},
    )
    rep = a.validate()
    assert not rep.ok
    assoc = [v for k, v in rep.violations if k == "associativity"]
    assert assoc and len(assoc[0]) == 3


def test_opposite_of_commutative_even_algebra_is_identical():
    a = square_zero_algebra()
    op = a.opposite()
    assert op.mult == a.mult
    assert op.validate().ok


def test_opposite_involutive_and_valid():
    pres = paper_two_object_category()
    a = category_algebra(pres, F)
    op = a.opposite()
    opop = op.opposite()
    assert opop.mult == a.mult
    assert op.validate().ok
    # arrow reversed: in A, u has source X1 (e1·u = u); in A^op, u·op e1 = u
    ku = a.space.key_of(0, 1, "u")
    ke1 = a.space.key_of(0, 0, "e1")
    assert a.basis_product(ke1, ku) == {ku: F.one}
    assert op.basis_product(ku, ke1) == {ku: F.one}


def test_products_are_computed_once_on_first_read():
    table = dual_numbers_algebra()
    reads = []

    def rule(k1, k2):
        reads.append((k1, k2))
        return table.basis_product(k1, k2)

    a = DgAlgebra(table.complex, table.unit, rule)
    one, e = a.basis_keys()
    assert reads == []
    assert a.basis_product(one, e) == {e: F.one}
    assert a.multiply({one: F.one}, {e: F.of(2)}) == {e: F.of(2)}
    assert reads == [(one, e)]
    # enumerating the table reads each remaining pair once, then no more
    assert a.mult == table.mult
    assert sorted(reads) == sorted((x, y) for x in (one, e) for y in (one, e))
    assert a.basis_product(e, e) == {}
    assert len(reads) == 4


def test_category_algebra_paper_example():
    pres = paper_two_object_category()
    assert pres.hom_dims() == {("X1", "X1"): 2, ("X2", "X2"): 1, ("X1", "X2"): 1}
    a = category_algebra(pres, F)
    assert a.space.total_dim() == 4
    assert a.validate().ok
    assert set(a.idempotents) == {"X1", "X2"}


def test_category_algebra_one_object():
    pres = DgCategoryPresentation(["pt"])
    pres.add_morphism("id", "pt", "pt", identity=True)
    pres.add_morphism("eps", "pt", "pt", deg=1, wt=1)
    pres.set_then("eps", "eps", {})
    a = category_algebra(pres, F)
    b = dual_numbers_algebra()
    assert a.space.total_dim() == b.space.total_dim()
    assert a.validate().ok


@pytest.mark.parametrize("sign", [1, -1])
def test_category_algebra_with_differential(sign):
    """X is contractible: d(p) = 1_X.  With q: X -> Y closed and r = p then q,
    Leibniz forces d(r) = d(p)·q = q, so the flipped sign must fail.  Only
    1_Y survives in cohomology."""
    pres = DgCategoryPresentation(["X", "Y"])
    pres.add_morphism("eX", "X", "X", identity=True)
    pres.add_morphism("eY", "Y", "Y", identity=True)
    pres.add_morphism("p", "X", "X", deg=-1)
    pres.add_morphism("q", "X", "Y")
    pres.add_morphism("r", "X", "Y", deg=-1)
    pres.set_then("p", "p", {})
    pres.set_then("p", "q", {"r": 1})
    pres.set_then("p", "r", {})
    pres.set_differential("p", {"eX": 1})
    pres.set_differential("r", {"q": sign})
    a = category_algebra(pres, F)
    assert a.validate().ok == (sign == 1)
    assert a.complex.cohomology().dims_by_cell() == {(0, 0): 1}


def test_category_algebra_incomplete_composition():
    pres = DgCategoryPresentation(["pt"])
    pres.add_morphism("id", "pt", "pt", identity=True)
    pres.add_morphism("s", "pt", "pt", wt=1)
    with pytest.raises(ValueError, match="incomplete"):
        category_algebra(pres, F)


def test_restrict_scalars_identity():
    a = dual_numbers_algebra()
    m = regular_module(a)
    assert m.validate().ok
    r = restrict_scalars(identity_morphism(a), m)
    assert r.validate().ok
    assert r.action == m.action


def test_restrict_scalars_along_unit_inclusion():
    a = DgAlgebra.from_basis(F, [("1", 0, 0)], ["1"], {}, {("1", "1"): {"1": 1}})
    b = dual_numbers_algebra()
    g = GradedMap(a.space, b.space, 0, 0)
    g.set_entry((0, 0, 0), (0, 0, 0), F.one)
    f = AlgebraMorphism(a, b, g)
    assert f.validate().ok
    r = restrict_scalars(f, regular_module(b))
    assert r.validate().ok
    assert r.algebra is a
    assert r.space.total_dim() == 2


def test_restrict_scalars_rejects_non_multiplicative():
    a = dual_numbers_algebra()
    b = dual_numbers_algebra()
    g = GradedMap(a.space, b.space, 0, 0)
    g.set_entry((0, 0, 0), (0, 0, 0), F.one)
    g.set_entry((1, 1, 0), (1, 1, 0), F.of(0))  # eps -> 0 still multiplicative
    f = AlgebraMorphism(a, b, g)
    assert f.validate().ok  # eps^2=0 so killing eps is an algebra map
    g2 = GradedMap(a.space, b.space, 0, 0)
    g2.set_entry((0, 0, 0), (0, 0, 0), F.of(2))  # not unital
    f2 = AlgebraMorphism(a, b, g2)
    assert not f2.validate().ok


def test_right_ideal_modules_of_paper_category():
    a = category_algebra(paper_two_object_category(), F)
    p1 = right_ideal_module(a, a.idempotents["X1"], name="P1")
    assert p1.validate().ok
    assert p1.space.total_dim() == 3  # e1, eps, u all start at X1
    op = a.opposite()
    q1 = right_ideal_module(op, op.idempotents["X1"], name="Q1")
    assert q1.validate().ok
    assert q1.space.total_dim() == 2  # only e1, eps end at X1


def test_module_shift_and_direct_sum_validate():
    a = dual_numbers_algebra()
    m = regular_module(a)
    s = shift_module(m, 1)
    assert s.validate().ok
    assert sorted(s.space.cells) == [(-1, 0), (0, 1)]
    t = direct_sum_modules(m, s)
    assert t.validate().ok
    assert t.space.total_dim() == 4


def test_weight_connectedness():
    assert dual_numbers_algebra().weight_connectedness() == 1
    a = category_algebra(paper_two_object_category(), F)
    assert a.weight_connectedness() == 1
    neg = DgAlgebra.from_basis(
        F, [("1", 0, 0), ("t", 0, -1)], ["1"], {},
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
         ("t", "t"): {}})
    assert neg.weight_connectedness() == -1
    mixed = DgAlgebra.from_basis(
        F, [("1", 0, 0), ("t", 0, -1), ("s", 0, 1)], ["1"], {},
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
         ("1", "s"): {"s": 1}, ("s", "1"): {"s": 1},
         ("t", "t"): {}, ("s", "s"): {}, ("s", "t"): {}, ("t", "s"): {}})
    assert mixed.weight_connectedness() is None
    # weight-0 element that is not an idempotent blocks connectedness
    sq = square_zero_algebra()
    assert sq.weight_connectedness() == 1  # x has weight 1, so still connected
    bad = DgAlgebra.from_basis(
        F, [("1", 0, 0), ("x", 0, 0)], ["1"], {},
        {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
         ("x", "x"): {}})
    assert bad.weight_connectedness() is None
