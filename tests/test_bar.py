"""Bar resolutions, derived functors, and convolution end algebras."""
import hashlib

import pytest

from dgcomplete import models as M
from dgcomplete.linalg import RATIONALS, Field
from dgcomplete.dg import (
    DgAlgebra, DgCategoryPresentation, DgModule, category_algebra,
    direct_sum_modules, regular_module, right_ideal_module, shift_module,
)
from dgcomplete.graded import BiGradedSpace, CochainComplex, cone, is_chain_map
from dgcomplete.bar import (
    _reduction_data, bar_resolution, derived_hom, derived_tensor, embed_strict,
    end_algebra, minimal_model, reduction_data, stabilization_scan,
    strict_end_algebra,
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
    sp = BiGradedSpace(a.field)
    sp.add_cell(0, 0, ["m"])
    cx = CochainComplex(sp)
    mk = (0, 0, 0)
    action = {}
    for k in a.basis_keys():
        if k[1] == 0:
            action[(mk, k)] = {mk: a.field.one}
    return DgModule(a, cx, action, side="right", name=name)


def trivial_left(a, name="k", wt=0):
    sp = BiGradedSpace(a.field)
    sp.add_cell(0, wt, ["m"])
    cx = CochainComplex(sp)
    mk = (0, wt, 0)
    action = {}
    for k in a.basis_keys():
        if k[1] == 0:
            action[(k, mk)] = {mk: a.field.one}
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
    with pytest.raises(ValueError, match="reduced bar") as err:
        bar_resolution(m, n_max=2, reduced=True)
    assert ("weight-0 part not orthogonal idempotents summing to the unit "
            "with d = 0") in str(err.value)
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


def _check_koszul_tor(t):
    """Tor over k[x] of k with k placed at weight t; tuples of up to 4 - t
    slots reach every column up to weight 4."""
    a = truncated_poly(6)
    cx = derived_tensor(trivial_right(a), trivial_left(a, wt=t), 4 - t,
                        w_cap=4)
    assert cx.validate_d2() is None
    dims = h_dims(cx)
    for (d, w), n in dims.items():
        if abs(w) <= 4:
            assert n == (1 if (d, w) in ((0, t), (-1, 1 + t)) else 0), (d, w, n)
    assert dims.get((0, t), 0) == 1 and dims.get((-1, 1 + t), 0) == 1
    for w in range(0, 5):
        assert cx.space.column_complete(w)


def test_derived_tensor_koszul():
    _check_koszul_tor(0)


def test_derived_tensor_koszul_left_factor_off_weight_zero():
    _check_koszul_tor(1)


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
    """Every inner model acts on its module by signed evaluation, through
    one body: E by its bare matrix units, H(E) by the one bare unit of each
    representative, the strict model by ``map_of``.  The sha256 of each
    sorted action was taken before the three bodies became one."""
    p1 = M.build_scenario("dual_numbers")["module"]  # ε at degree 1
    kx = M.build_scenario("koszul_kx", params={"wmax": 4})["module"]
    tri = M.build_scenario("triangular_12")["module"]
    models = {
        "E k[e]": end_algebra(trivial_right(dual_numbers()), n_max=3),
        "E P1": end_algebra(p1, n_max=2),
        "H(E) k[1]": minimal_model(end_algebra(shift_module(kx, 1), 5), 3)[0],
        "H(E) triangular_12": minimal_model(end_algebra(tri, 4), 2)[0],
        "strict P1": strict_end_algebra(p1),
    }
    digests = {}
    for name, model in models.items():
        mm = model.module_over_opposite()
        assert mm.validate().ok, name
        assert mm.algebra.validate().ok, name
        text = repr(sorted(mm.action.items()))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == {
        "E k[e]":
            "7a416db5b6e3b96a8db01c0e76afba8ffb6bcd4c8f22365a172777f2d3741019",
        "E P1":
            "3f15844101c711f0505b4dba13bc507bde7cbb4306b43816149bb8a9b5f23b7c",
        "H(E) k[1]":
            "9d2020d06e65b9004bdae3ef44ceb4608820a80ff0e4d19d42d32c5ccb5ff29e",
        "H(E) triangular_12":
            "1ba41f4ae11aaa2a99182d4a9dc29ba3081d5c6b6c80741a73a2fb23685d7ee9",
        "strict P1":
            "9a9f2b4adcd8bcdbf13fdd4ef3cac13d58564af1d66682e38579105cf66fa155",
    }


def _complex_snapshot(cx):
    """Everything a complex is compared on: cells, knowledge, d blocks."""
    sp = cx.space
    blocks = {cell: (b.rows, b.cols, b.entries)
              for cell, b in cx.d.blocks.items()}
    return (sp.cells, sp.known_cols, sp.zero_outside,
            sp.known_zero_below, sp.known_zero_above, blocks)


def _bar_module(name):
    if name in ("triangular_12", "dual_numbers_op"):
        sc = M.build_scenario(name)
        return sc["module"]
    if name == "kx_qq":
        return M.truncated_poly(F, ["x"], [], wmax=5).residue_module()
    ring = M.truncated_poly(Field(32003), ["x", "y"], ["x^2", "y^2"])
    return ring.residue_module()


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("name", ["triangular_12", "dual_numbers_op",
                                  "kx_qq", "kxy_square_zero_gfp"])
def test_bar_resolution_is_derived_tensor_with_the_algebra(name, cap):
    m = _bar_module(name)
    a = m.algebra
    a_left = DgModule(a, a.complex, dict(a.mult), side="left")
    got = bar_resolution(m, cap, w_cap=cap).complex
    want = derived_tensor(m, a_left, cap, w_cap=cap)
    assert _complex_snapshot(got) == _complex_snapshot(want)


def _snapshot_digest(cx):
    """sha256 of a complex's snapshot, cells and block entries sorted; the
    labels of each cell stay in order."""
    cells, known, zero_outside, below, above, blocks = _complex_snapshot(cx)
    text = repr((sorted(cells.items()), sorted(known.items()), zero_outside,
                 below, above,
                 sorted((cell, rows, cols, sorted(entries.items()))
                        for cell, (rows, cols, entries) in blocks.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def _residue(variables, relations, field=Field(32003)):
    return M.truncated_poly(field, variables, relations).residue_module()


def _tor(k, n, **kw):
    return derived_tensor(k, trivial_left(k.algebra), n, **kw)


def _ext(k, n, **kw):
    return derived_hom(k, k, n, **kw)


def _line_k():
    return trivial_right(M._dg_line_algebra(F))


# digests recorded from the builder that keyed each tuple's children by
# (parent, slot) pairs: every builder must reproduce those complexes cell for
# cell, label for label and entry for entry
GOLDEN_BUILDS = [
    ("tor k[x]/(x^5) n5", lambda: _tor(_residue(["x"], ["x^5"]), 5),
     "d7df10661ad597c5e3532021652ebc6a9c75813d1e1a757220bb37de67972507"),
    ("ext k[x]/(x^5) n5", lambda: _ext(_residue(["x"], ["x^5"]), 5),
     "fde5cec8d56bf6d28bd87e7cc3389dd2cf6fbc8ccfe5da01fa8fba02196af84c"),
    ("tor k[x,y]/(x^2,y^2) n4",
     lambda: _tor(_residue(["x", "y"], ["x^2", "y^2"]), 4),
     "da16afc9a3fd0067b196b4f77ce338b6d13bc119baab76d7a6f18a2dda81e4d9"),
    ("ext k[x,y]/(x^2,y^2) n4",
     lambda: _ext(_residue(["x", "y"], ["x^2", "y^2"]), 4),
     "bb8576ab1f5b1c3e7eca5982cc0714b53eb3b3f29342d8f9e18c0321c29dfc5a"),
    ("bar k[x]/(x^3) n4",
     lambda: bar_resolution(_residue(["x"], ["x^3"]), 4).complex,
     "785a09e95aa3917525855c006423e4dc0f6dd2f2031f78ed80f8d8bb983ed39f"),
    ("ext k[x]/(x^3) n3 unreduced",
     lambda: _ext(_residue(["x"], ["x^3"]), 3, reduced=False),
     "de03f71545e99d59bab10313ac7f6b26cec35afce62c9fc91060edca6aaab5fe"),
    ("bar dg_line n4", lambda: bar_resolution(_line_k(), 4).complex,
     "80b4e32c6ac6c20fbb400951057a36730c5104ec9020d636cf52ef93df004a47"),
    ("tor dg_line n4", lambda: _tor(_line_k(), 4),
     "4ae3a88538e2c7ccdf75ac87cdf04f3a36d4162fb04dea0684f1813929d2c29b"),
    ("ext dg_line n4", lambda: _ext(_line_k(), 4),
     "440c2d0c0e385b872fa2331278dae2c369e1b886ff9ad8ceefa227cf452c43b1"),
    ("end koszul_kx n3",
     lambda: end_algebra(M.build_scenario("koszul_kx")["module"], 3).complex,
     "c221a945a12d2666767be8313de955e0a84a3322061b46ef7b6805b971af184e"),
]


@pytest.mark.parametrize("build,digest", [b[1:] for b in GOLDEN_BUILDS],
                         ids=[b[0] for b in GOLDEN_BUILDS])
def test_bar_complexes_keep_their_recorded_digests(build, digest):
    assert _snapshot_digest(build()) == digest


# -- signs, the window guard and mixed targets -------------------------------

def h_dims_exact(cx):
    coh = cx.cohomology()
    return {cell: n for cell, n in coh.dims_by_cell().items()
            if coh.certificate.exact_at(*cell)}


@pytest.mark.parametrize("field", [F, Field(32003)], ids=["qq", "gf32003"])
def test_bar_constructions_over_the_dg_line(field):
    # A = <1, xi, eta> with d(xi) = eta is quasi-isomorphic to k, so each
    # construction on k gives k; the nonzero d of A exercises the sign of a
    # slot's own differential and of the right factor's differential
    a = M._dg_line_algebra(field)
    k = trivial_right(a)
    a_left = DgModule(a, a.complex, dict(a.mult), side="left")
    built = {
        "bar_resolution": bar_resolution(k, 4).complex,
        "tor(k, k)": derived_tensor(k, trivial_left(a), 4),
        "tor(k, A)": derived_tensor(k, a_left, 4),
        "ext(k, k)": derived_hom(k, k, 4),
        "end(k)": end_algebra(k, 4).complex,
    }
    for name, cx in built.items():
        assert cx.validate_d2() is None, name
        assert h_dims_exact(cx) == {(0, 0): 1}, name


def test_ill_graded_product_leaves_the_window():
    # x·x = 1 lowers the weight, so a merge of two slots leaves the tuples
    a = DgAlgebra.from_basis(
        F,
        basis=[("1", 0, 0), ("x", 0, 1)],
        unit_names=["1"],
        differential={},
        products={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                  ("x", "1"): {"x": 1}, ("x", "x"): {"1": 1}},
    )
    k = trivial_right(a)
    builds = [lambda: bar_resolution(k, 3), lambda: derived_hom(k, k, 3),
              lambda: derived_tensor(k, trivial_left(a), 3)]
    for build in builds:
        with pytest.raises(RuntimeError, match="^bar term left the window"):
            build()


def _simples_mixing_objects(a):
    """S1 + S2 in the basis s1 + s2, s1 - s2: no basis vector sits at one
    object."""
    (e1,) = a.idempotents["X1"]
    (e2,) = a.idempotents["X2"]
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["s1+s2", "s1-s2"])
    p, q = (0, 0, 0), (0, 0, 1)
    h = F.of("1/2")
    action = {(p, e1): {p: h, q: h}, (p, e2): {p: h, q: -h},
              (q, e1): {p: h, q: h}, (q, e2): {p: -h, q: h}}
    return DgModule(a, CochainComplex(sp), action, side="right", name="S1+S2")


def test_hom_into_a_target_mixing_objects_is_unreduced():
    a = paper_category()
    n = _simples_mixing_objects(a)
    assert n.validate().ok
    m = right_ideal_module(a, a.idempotents["X1"], name="P1")
    cx = derived_hom(m, n, 3)
    assert cx.validate_d2() is None
    assert _complex_snapshot(cx) == _complex_snapshot(
        derived_hom(m, n, 3, reduced=False))
    with pytest.raises(ValueError, match="target module is not object"):
        derived_hom(m, n, 3, reduced=True)


def test_reduced_bar_refusal_names_the_homogeneity_that_fails():
    a = paper_category()
    with pytest.raises(ValueError, match="reduced bar") as err:
        bar_resolution(_simples_mixing_objects(a), 2, reduced=True)
    assert "module not object-homogeneous" in str(err.value)
    # x is fixed on the left by both idempotents
    a = DgAlgebra.from_basis(
        F,
        basis=[("e1", 0, 0), ("e2", 0, 0), ("x", 0, 1)],
        unit_names=["e1", "e2"],
        differential={},
        products={("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1},
                  ("e1", "x"): {"x": 1}, ("e2", "x"): {"x": 1},
                  ("x", "e1"): {"x": 1}},
    )
    with pytest.raises(ValueError, match="reduced bar") as err:
        bar_resolution(regular_module(a), 2, reduced=True)
    assert "basis element not homogeneous for the idempotents" in str(err.value)


@pytest.mark.parametrize("fixed_by", [(), ("X1", "X2")],
                         ids=["by no idempotent", "by two idempotents"])
def test_reduced_bar_refuses_a_key_not_fixed_by_exactly_one_idempotent(fixed_by):
    """The object of a module key is read off the action table: a key that
    no idempotent fixes, or that two fix, sits at no one object."""
    a = paper_category()
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["s"])
    s = (0, 0, 0)
    action = {(s, z): {s: c} for o in fixed_by for z, c in a.idempotents[o].items()}
    m = DgModule(a, CochainComplex(sp), action, side="right", name="s")
    with pytest.raises(ValueError, match="module not object-homogeneous"):
        bar_resolution(m, 2, reduced=True)
    p1 = right_ideal_module(a, a.idempotents["X1"], name="P1")
    with pytest.raises(ValueError, match="target module is not object"):
        derived_hom(p1, m, 2, reduced=True)


def _count_products(a):
    """Wrap a's product rule; the returned list gathers every pair asked."""
    asked, rule = [], a._rule

    def counted(k1, k2):
        asked.append((k1, k2))
        return rule(k1, k2)

    a._rule = counted
    return asked


def test_reduction_data_asks_each_product_once():
    a = M.build_scenario("triangular_123")["algebra"]
    asked = _count_products(a)
    red = reduction_data(a)
    assert red is not None and len(red.idempotents) == 3
    assert asked and len(asked) == len(set(asked))


def _deck_inner(name, cap, **params):
    """The convolution inner model of a benchmark-deck completion at caps
    (cap, cap): the scenario's module at inner caps two above."""
    m = M.build_scenario(name, params=params)["module"]
    return end_algebra(m, cap + 2, w_cap=cap + 2)


def _shifted_residue_inner():
    ring = M.truncated_poly(F, ["x"], [], wmax=6)
    k = ring.residue_module()
    return end_algebra(direct_sum_modules(k, shift_module(k, 1)), 5, w_cap=5)


def _unreduced_inner(n_max):
    m = M.build_scenario("koszul_kx", params={"wmax": 4})["module"]
    return end_algebra(m, n_max, w_cap=3, reduced=False)


INNER_MODELS = [
    (f"koszul_kx w{w} cap {w - 1}",
     lambda w=w: _deck_inner("koszul_kx", w - 1, wmax=w), True)
    for w in (4, 5, 6, 7)
] + [
    (f"{name} cap {cap}", lambda name=name, cap=cap: _deck_inner(name, cap), True)
    for name in ("triangular_1234", "triangular_12345", "triangular_123456",
                 "triangular_1234567")
    for cap in (2, 3, 4)
] + [
    ("strict dual_numbers_op",
     lambda: strict_end_algebra(M.build_scenario("dual_numbers_op")["module"]),
     True),
    ("unreduced, length 0", lambda: _unreduced_inner(0), True),
    ("unreduced, length 2", lambda: _unreduced_inner(2), False),
    ("k ⊕ k[1] over k[x]", _shifted_residue_inner, False),
]


def _fields(red):
    return None if red is None else (red.sign, red.idempotents, red.lobj, red.robj)


@pytest.mark.parametrize("build,reducible", [g[1:] for g in INNER_MODELS],
                         ids=[g[0] for g in INNER_MODELS])
def test_reduction_data_of_inner_models_matches_the_product_scan(build, reducible):
    """Read off labels (convolution algebras) or mirrored (the opposite a
    completion's outer bar runs over), the reduction data is what asking
    every idempotent product finds, field for field."""
    inner = build()
    red = reduction_data(inner)
    assert (red is not None) == reducible
    assert _fields(red) == _fields(_reduction_data(inner))
    op = inner.module_over_opposite().algebra
    assert _fields(reduction_data(op)) == _fields(_reduction_data(inner.opposite()))


def test_reduction_data_of_a_convolution_algebra_asks_only_idempotent_pairs():
    """E = REnd(simples of triangular_1234567) as its completion at caps
    (4, 4) builds it: its reduction data asks the 7² idempotent products and
    no other, and the opposite its module is built over asks none, of
    itself or of E."""
    inner = _deck_inner("triangular_1234567", 4)
    asked = _count_products(inner)
    red = reduction_data(inner)
    assert red is not None and len(red.idempotents) == 7
    assert len(asked) <= 7 * 7
    op = inner.module_over_opposite().algebra
    op_asked = _count_products(op)
    assert reduction_data(op) is not None
    assert not op_asked and len(asked) <= 7 * 7
