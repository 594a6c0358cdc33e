"""Bar resolutions, derived functors, and convolution end algebras."""
import pytest

from dgcomplete.linalg import RATIONALS
from dgcomplete.dg import (
    DgAlgebra, DgCategoryPresentation, DgModule, category_algebra,
    regular_module, right_ideal_module, shift_module,
)
from dgcomplete.graded import BiGradedSpace, CochainComplex, cone, is_chain_map
from dgcomplete.bar import (
    bar_resolution, derived_hom, derived_tensor, embed_strict, end_algebra,
    stabilization_scan, strict_end_algebra,
)

F = RATIONALS


def dual_numbers():
    return DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("e", 1, 1)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "e"): {"e": 1},
                  ("e", "1"): {"e": 1}, ("e", "e"): {}},
        name="k[e]",
    )


def square_zero():
    return DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("x", 0, 1)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                  ("x", "1"): {"x": 1}, ("x", "x"): {}},
        name="k[x]/(x2)",
    )


def truncated_poly(top):
    """k[x]/(x^{top+1}) with weight(x^i) = i; agrees with k[x] below the top."""
    names = ["1"] + [f"x{i}" for i in range(1, top + 1)]
    basis = [(n, 0, i) for i, n in enumerate(names)]
    products = {}
    for i in range(top + 1):
        for j in range(top + 1):
            products[(names[i], names[j])] = (
                {names[i + j]: 1} if i + j <= top else {})
    return DgAlgebra.from_basis(F, basis=basis, unit_names=["1"],
                                differential={}, products=products,
                                name=f"k[x]<{top}")


def trivial_right(a, name="k"):
    """One-dimensional module where every positive-weight element acts by 0."""
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["m"])
    cx = CochainComplex(sp)
    mk = (0, 0, 0)
    action = {}
    for k in a.basis_keys():
        if k[1] == 0:
            action[(mk, k)] = {mk: F.one}
    return DgModule(a, cx, action, side="right", name=name)


def trivial_left(a, name="k"):
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["m"])
    cx = CochainComplex(sp)
    mk = (0, 0, 0)
    action = {}
    for k in a.basis_keys():
        if k[1] == 0:
            action[(k, mk)] = {mk: F.one}
    return DgModule(a, cx, action, side="left", name=name)


def contractible_module(a):
    """Cone of the identity of the regular module over k[e]."""
    sp = BiGradedSpace(F)
    sp.add_cell(-1, 0, ["s1"])
    sp.add_cell(0, 1, ["se"])
    sp.add_cell(0, 0, ["c1"])
    sp.add_cell(1, 1, ["ce"])
    cx = CochainComplex(sp)
    k1p, kep = (-1, 0, 0), (0, 1, 0)
    k1, ke = (0, 0, 0), (1, 1, 0)
    cx.d.set_entry(k1p, k1, F.one)
    cx.d.set_entry(kep, ke, F.one)
    one = a.space.key_of(0, 0, "1")
    eps = a.space.key_of(1, 1, "e")
    action = {}
    for k in (k1p, kep, k1, ke):
        action[(k, one)] = {k: F.one}
    action[(k1, eps)] = {ke: F.one}
    action[(k1p, eps)] = {kep: F.one}
    return DgModule(a, cx, action, side="right", name="cone(A)")


def paper_category():
    pres = DgCategoryPresentation(["X1", "X2"])
    pres.add_morphism("e1", "X1", "X1", identity=True)
    pres.add_morphism("e2", "X2", "X2", identity=True)
    pres.add_morphism("eps", "X1", "X1", deg=1, wt=1)
    pres.add_morphism("u", "X1", "X2", deg=0, wt=1)
    pres.set_then("eps", "eps", {})
    pres.set_then("eps", "u", {})
    return category_algebra(pres, F)


def h_dims(cx):
    return cx.cohomology().dims_by_cell()


def h_dims_certified(cx):
    return {(d, w): n for (d, w), n in h_dims(cx).items()
            if cx.space.column_complete(w)}


# -- bar_resolution ----------------------------------------------------------

@pytest.mark.parametrize("make", [dual_numbers, paper_category])
def test_bar_of_algebra_is_contractible(make):
    a = make()
    m = regular_module(a)
    bar = bar_resolution(m, n_max=4, w_cap=4)
    assert bar.complex.validate_d2() is None
    assert is_chain_map(bar.augmentation, bar.complex.d, m.complex.d) is None
    c = cone(bar.augmentation, bar.complex, m.complex)
    dims = h_dims(c)
    for (d, w), n in dims.items():
        if abs(w) <= 4:
            assert n == 0, (d, w, n)


def test_bar_generator_counts_dual_numbers():
    m = trivial_right(dual_numbers())
    bar = bar_resolution(m, n_max=4, w_cap=4)
    assert bar.reduced
    expected = {(n, 0, n): 1 for n in range(5)}
    assert bar.generator_counts == expected


def test_bar_trivial_module_over_poly_certified_columns():
    a = truncated_poly(6)
    m = trivial_right(a)
    bar = bar_resolution(m, n_max=4, w_cap=4)
    assert bar.complex.validate_d2() is None
    coh = bar.complex.cohomology()
    dims = coh.dims_by_cell()
    assert dims.get((0, 0), 0) == 1
    for (d, w), n in dims.items():
        if (d, w) != (0, 0) and abs(w) <= 4:
            assert n == 0, (d, w, n)
    for w in range(0, 5):
        assert bar.complex.space.column_complete(w)


def test_bar_reduced_refused_without_connectivity():
    # weight-0 non-idempotent element kills the reduction structure
    a = DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("y", 0, 0)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "y"): {"y": 1},
                  ("y", "1"): {"y": 1}, ("y", "y"): {}},
    )
    m = regular_module(a)
    with pytest.raises(ValueError, match="reduced bar"):
        bar_resolution(m, n_max=2, reduced=True)
    bar = bar_resolution(m, n_max=2)
    assert not bar.reduced
    assert bar.complex.validate_d2() is None


# -- end_algebra -------------------------------------------------------------

@pytest.mark.parametrize("make", [dual_numbers, paper_category])
def test_end_of_regular_module_gives_algebra_cohomology(make):
    a = make()
    b = end_algebra(regular_module(a), n_max=3)
    rep = b.validate()
    assert rep.ok, rep.violations
    hb, ha = h_dims(b.complex), h_dims(a.complex)
    certified = [w for w in range(-4, 5) if b.space.column_complete(w)]
    assert {0, 1} <= set(certified)
    for w in certified:
        for d in range(-4, 5):
            assert hb.get((d, w), 0) == ha.get((d, w), 0), (d, w)


def test_end_trivial_module_dual_numbers_is_polynomial():
    b = end_algebra(trivial_right(dual_numbers()), n_max=5)
    assert b.validate().ok
    assert h_dims(b.complex) == {(0, -n): 1 for n in range(6)}
    # certified across the populated window
    for n in range(6):
        assert b.space.column_complete(-n)
    # generator multiplies like t^n
    e1 = b.space.keys(0, -1)[0]
    e2 = b.space.keys(0, -2)[0]
    assert b.basis_product(e1, e1) == {e2: F.one}


def test_end_trivial_module_square_zero_matches_periodic_resolution():
    # oracle: minimal resolution ... -> R(-2) -> R(-1) -> R -> k with maps
    # x·(-); induced maps on Hom(-, k) vanish, so Ext^n = k, one per n
    b = end_algebra(trivial_right(square_zero()), n_max=5)
    assert b.validate().ok
    assert h_dims(b.complex) == {(n, -n): 1 for n in range(6)}
    e1 = b.space.keys(1, -1)[0]
    e2 = b.space.keys(2, -2)[0]
    assert b.basis_product(e1, e1) == {e2: F.one}


def test_end_of_contractible_module_is_acyclic():
    a = dual_numbers()
    m = contractible_module(a)
    assert m.validate().ok
    b = end_algebra(m, n_max=4)
    assert b.validate().ok
    for (d, w), n in h_dims(b.complex).items():
        if b.space.column_complete(w):
            assert n == 0, (d, w, n)


def test_projection_to_length_zero_is_dg_algebra_map():
    m = contractible_module(dual_numbers())
    b = end_algebra(m, n_max=3)
    naive, p = b.projection_to_length_zero()
    assert naive.validate().ok
    assert is_chain_map(p, b.complex.d, naive.complex.d) is None
    assert p.apply(b.unit) == naive.unit
    for k1 in b.basis_keys():
        i1 = p.apply({k1: F.one})
        for k2 in b.basis_keys():
            lhs = p.apply(b.basis_product(k1, k2))
            rhs = naive.multiply(i1, p.apply({k2: F.one}))
            assert lhs == rhs, (k1, k2)


# -- derived_hom -------------------------------------------------------------

def test_derived_hom_from_regular_module():
    a = dual_numbers()
    reg = regular_module(a)
    assert h_dims_certified(derived_hom(reg, trivial_right(a), 3)) == {(0, 0): 1}
    assert h_dims_certified(derived_hom(reg, contractible_module(a), 3)) == {}


def test_derived_hom_matches_end_dims():
    m = trivial_right(dual_numbers())
    assert h_dims(derived_hom(m, m, 4)) == h_dims(end_algebra(m, 4).complex)


def test_derived_hom_trivial_to_poly_is_shifted_dual():
    # oracle: 0 -> A(-1) -x-> A -> k, so RHom(k, A) = [A -> A(1)] and the
    # only class in low weights is the cokernel generator at (1, -1)
    a = truncated_poly(8)
    m = trivial_right(a)
    reg = regular_module(a)
    cx = derived_hom(m, reg, n_max=6, w_cap=6)
    assert cx.validate_d2() is None
    dims = h_dims(cx)
    for w in range(-3, 7):
        assert dims.get((0, w), 0) == 0
        assert dims.get((1, w), 0) == (1 if w == -1 else 0)


def test_derived_hom_shift_compatibility():
    a = dual_numbers()
    m = trivial_right(a)
    base = h_dims(derived_hom(m, m, 3))
    shifted = h_dims(derived_hom(shift_module(m, 1), m, 3))
    assert shifted == {(d + 1, w): v for (d, w), v in base.items()}


# -- derived_tensor ----------------------------------------------------------

def test_derived_tensor_unit():
    a = dual_numbers()
    cx = derived_tensor(regular_module(a), trivial_left(a), 3)
    assert h_dims(cx) == {(0, 0): 1}


def test_derived_tensor_square_zero_periodic():
    a = square_zero()
    cx = derived_tensor(trivial_right(a), trivial_left(a), 5)
    assert cx.validate_d2() is None
    assert h_dims(cx) == {(-n, n): 1 for n in range(6)}


def test_derived_tensor_koszul():
    a = truncated_poly(6)
    cx = derived_tensor(trivial_right(a), trivial_left(a), 4, w_cap=4)
    assert cx.validate_d2() is None
    dims = h_dims(cx)
    for (d, w), n in dims.items():
        if abs(w) <= 4:
            assert n == (1 if (d, w) in ((0, 0), (-1, 1)) else 0), (d, w, n)
    assert dims.get((0, 0), 0) == 1 and dims.get((-1, 1), 0) == 1
    for w in range(0, 5):
        assert cx.space.column_complete(w)


def test_derived_tensor_shift_compatibility():
    a = square_zero()
    m, n = trivial_right(a), trivial_left(a)
    base = h_dims(derived_tensor(m, n, 3))
    shifted = h_dims(derived_tensor(shift_module(m, 1), n, 3))
    assert shifted == {(d - 1, w): v for (d, w), v in base.items()}


# -- reduced vs unreduced ----------------------------------------------------

def test_reduced_and_unreduced_agree_on_certified_cells():
    m = trivial_right(dual_numbers())
    red = end_algebra(m, n_max=3)
    unred = end_algebra(m, n_max=8, w_cap=3, reduced=False)
    assert not unred.reduced
    assert unred.complex.validate_d2() is None
    hr = h_dims(red.complex)
    hu = h_dims(unred.complex)
    for w in range(-3, 1):
        assert red.space.column_complete(w)
        for d in range(-1, 2):
            assert hr.get((d, w), 0) == hu.get((d, w), 0), (d, w)


# -- stabilization -----------------------------------------------------------

def test_stabilization_scan_flags():
    m = trivial_right(dual_numbers())

    def compute(cap):
        return end_algebra(m, cap).complex.cohomology()

    table = stabilization_scan(compute, [2, 3, 4])
    rows = table["rows"]
    assert table["caps"] == [2, 3, 4]
    assert rows[(0, -2)]["dims"] == [1, 1, 1]
    assert rows[(0, -2)]["stable"]
    assert rows[(0, -3)]["dims"] == [0, 1, 1]
    assert rows[(0, -3)]["stable"]
    assert rows[(0, -4)]["dims"] == [0, 0, 1]
    assert not rows[(0, -4)]["stable"]
    with pytest.raises(ValueError):
        stabilization_scan(compute, [3, 2])


# -- strict endomorphisms ----------------------------------------------------

def test_strict_end_of_corner_module_is_dual_numbers():
    a = paper_category().opposite()
    m = right_ideal_module(a, a.idempotents["X1"], name="P1")
    assert m.space.total_dim() == 2
    s = strict_end_algebra(m)
    assert s.validate().ok
    assert {k[:2] for k in s.basis_keys()} == {(0, 0), (1, 1)}
    top = s.space.keys(1, 1)[0]
    assert s.basis_product(top, top) == {}


def test_embed_strict_is_a_quasi_isomorphism_here():
    a = paper_category().opposite()
    m = right_ideal_module(a, a.idempotents["X1"], name="P1")
    s = strict_end_algebra(m)
    b = end_algebra(m, n_max=3)
    assert b.validate().ok
    j = embed_strict(s, b)
    assert is_chain_map(j, s.complex.d, b.complex.d) is None
    assert j.apply(s.unit) == b.unit
    for k1 in s.basis_keys():
        for k2 in s.basis_keys():
            lhs = j.apply(s.basis_product(k1, k2))
            rhs = b.multiply(j.apply({k1: F.one}), j.apply({k2: F.one}))
            assert lhs == rhs, (k1, k2)
    c = cone(j, s.complex, b.complex)
    for (d, w), n in h_dims(c).items():
        if b.space.column_complete(w):
            assert n == 0, (d, w, n)


def test_opposites_of_end_algebras_are_signed_views():
    a = paper_category().opposite()
    m = right_ideal_module(a, a.idempotents["X1"], name="P1")
    for alg in (end_algebra(m, n_max=3), strict_end_algebra(m)):
        op = alg.opposite()
        assert op.validate().ok
        keys = alg.basis_keys()
        for k1 in keys:
            for k2 in keys:
                want = alg.basis_product(k2, k1)
                if k1[0] % 2 and k2[0] % 2:
                    want = {k: -c for k, c in want.items()}
                assert op.basis_product(k1, k2) == want, (k1, k2)
        assert op.opposite().mult == alg.mult


def test_module_over_opposite_axioms():
    m = trivial_right(dual_numbers())
    b = end_algebra(m, n_max=3)
    mm = b.module_over_opposite()
    assert mm.validate().ok
    assert mm.algebra.validate().ok
