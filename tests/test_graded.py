"""Bigraded complexes: cohomology, shift, cone, direct sum."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from dgcomplete import linalg
from dgcomplete import models as M
from dgcomplete.bar import bar_resolution, derived_hom
from dgcomplete import holim as H
from dgcomplete.holim import holim
from dgcomplete.linalg import RATIONALS, Echelon, Field
from dgcomplete.graded import (
    BiGradedSpace, CochainComplex, GradedMap, Window, cone, is_chain_map,
)

F = RATIONALS


def two_term(field=F, label="c"):
    """0 -> k -> (id) k -> 0 in degrees 0, 1."""
    sp = BiGradedSpace(field)
    sp.add_cell(0, 0, [f"{label}0"])
    sp.add_cell(1, 0, [f"{label}1"])
    sp.mark_all_complete()
    c = CochainComplex(sp)
    c.d.set_entry((0, 0, 0), (1, 0, 0), field.one)
    return c


def truncated_poly_complex():
    """k[x]/x^2 --(x)--> k[x]/x^2(-1) in degrees 0,1; x has weight 1.

    The target copy carries a weight twist so the differential is weight 0.
    """
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["one@0"])
    sp.add_cell(0, 1, ["x@0"])
    sp.add_cell(1, -1, ["one@1"])
    sp.add_cell(1, 0, ["x@1"])
    sp.mark_all_complete()
    c = CochainComplex(sp)
    c.d.set_entry((0, 0, 0), (1, 0, 0), F.one)  # 1 -> x
    return c


def interval_complex(deg, wt, field=F, tag="i"):
    sp = BiGradedSpace(field)
    sp.add_cell(deg, wt, [f"{tag}a"])
    sp.add_cell(deg + 1, wt, [f"{tag}b"])
    sp.mark_all_complete()
    c = CochainComplex(sp)
    c.d.set_entry((deg, wt, 0), (deg + 1, wt, 0), field.one)
    return c


def point_complex(deg, wt, field=F, tag="p"):
    sp = BiGradedSpace(field)
    sp.add_cell(deg, wt, [f"{tag}"])
    sp.mark_all_complete()
    return CochainComplex(sp)


def random_complex(rng, tag="r", field=F):
    """Direct sum of intervals (acyclic) and points (cohomology), so H is known."""
    c = point_complex(rng.randint(-2, 2), rng.randint(-1, 1), field, tag=f"{tag}s")
    expected = {(cell[0], cell[1]): 1 for cell in c.space.cells}
    for j in range(rng.randint(0, 3)):
        d, w = rng.randint(-2, 2), rng.randint(-1, 1)
        c = c.direct_sum(interval_complex(d, w, field, tag=f"{tag}i{j}"))
    for j in range(rng.randint(0, 2)):
        d, w = rng.randint(-2, 2), rng.randint(-1, 1)
        c = c.direct_sum(point_complex(d, w, field, tag=f"{tag}p{j}"))
        expected[(d, w)] = expected.get((d, w), 0) + 1
    return c, expected


def h_dims(c, window=None):
    h = c.cohomology(window)
    return {cell: len(lbls) for cell, lbls in h.space.cells.items()}


def test_cohomology_contractible():
    assert h_dims(two_term()) == {}


def test_cohomology_zero_differential():
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["a", "b"])
    sp.add_cell(2, 1, ["c"])
    sp.mark_all_complete()
    c = CochainComplex(sp)
    assert h_dims(c) == {(0, 0): 2, (2, 1): 1}


def test_cohomology_truncated_poly():
    c = truncated_poly_complex()
    assert c.validate_d2() is None
    assert h_dims(c) == {(0, 1): 1, (1, -1): 1}
    h = c.cohomology()
    assert all(h.certificate.status.values())
    # representative of H^0 is x, a genuine kernel vector
    rep = h.representatives[(0, 1, 0)]
    assert rep == {(0, 1, 0): Fraction(1)}


def test_cohomology_partial_column_certificates():
    sp = BiGradedSpace(F)
    for d in range(0, 4):
        sp.add_cell(d, 0, [f"e{d}"])
    sp.set_known(0, lo=0, hi=3)  # degrees beyond 3 unknown
    sp.zero_outside = True
    c = CochainComplex(sp)
    h = c.cohomology()
    assert h.certificate.exact_at(1, 0)
    assert h.certificate.exact_at(2, 0)
    assert not h.certificate.exact_at(3, 0)  # needs unknown degree 4
    assert not h.certificate.exact_at(-1, 0)  # needs unknown degree... -1 known zero? lo=0
    assert h.certificate.exact_at(5, 0) is False


def test_cohomology_certificates_read_each_weight_once_per_call():
    """A weight in a certified empty ray is known wherever it holds no cell;
    an occupied one, or any weight without an interval when zero_outside
    is off, is known nowhere."""
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["a"])
    sp.add_cell(0, 3, ["b"])
    sp.set_known(0)
    sp.set_known(-1, lo=0, hi=2)
    sp.zero_outside = False
    sp.known_zero_above = 1
    assert sp.known_degrees([-2, -1, 0, 2, 3]) == {
        -2: None, -1: (0, 2), 0: (None, None), 2: (None, None), 3: None}
    h = CochainComplex(sp).cohomology(Window(-1, 2, 3))
    exact = {c for c, ok in h.certificate.status.items() if ok}
    assert exact == {(d, 0) for d in range(-1, 3)} | {(1, -1)} | {
        (d, 2) for d in range(-1, 3)}


def test_shift_zero_and_double():
    c = truncated_poly_complex()
    s0 = c.shift(0)
    assert s0.space.cells == c.space.cells
    assert s0.d.same_blocks(c.d)
    s = c.shift(1).shift(-1)
    assert s.space.cells == c.space.cells
    assert s.d.same_blocks(c.d)


def test_shift_point():
    c = point_complex(0, 0)
    for n in (1, 2, -3):
        assert list(c.shift(n).space.cells) == [(-n, 0)]


def test_shift_differential_sign():
    c = two_term()
    s = c.shift(1)
    assert s.d.column((-1, 0, 0)) == {(0, 0, 0): Fraction(-1)}
    assert h_dims(s) == {}


def test_cone_identity_acyclic():
    c = truncated_poly_complex()
    ident = GradedMap(c.space, c.space, 0, 0)
    for (d, w) in c.space.cells:
        for k in c.space.keys(d, w):
            ident.set_entry(k, k, F.one)
    cn = cone(ident, c, c)
    assert cn.validate_d2() is None
    assert h_dims(cn) == {}


def test_cone_zero_map():
    a = point_complex(0, 0, tag="a")
    b = point_complex(0, 0, tag="b")
    z = GradedMap(a.space, b.space, 0, 0)
    cn = cone(z, a, b)
    # H(cone) = H(b) ⊕ H(a)[1]
    assert h_dims(cn) == {(0, 0): 1, (-1, 0): 1}


def test_cone_multiplication_by_x():
    # x: k[x]/x^2 -> k[x]/x^2, modules in degree 0 with zero differential
    sp3 = BiGradedSpace(F)
    sp3.add_cell(0, 0, ["one", "x"])
    sp3.mark_all_complete()
    a2 = CochainComplex(sp3)
    sp4 = BiGradedSpace(F)
    sp4.add_cell(0, 0, ["one", "x"])
    sp4.mark_all_complete()
    b2 = CochainComplex(sp4)
    g = GradedMap(a2.space, b2.space, 0, 0)
    g.set_entry((0, 0, 0), (0, 0, 1), F.one)  # 1 -> x, x -> 0
    cn = cone(g, a2, b2)
    assert h_dims(cn) == {(-1, 0): 1, (0, 0): 1}


def test_cone_rejects_non_chain_map():
    a = two_term(label="a")
    b = two_term(label="b")
    f = GradedMap(a.space, b.space, 0, 0)
    f.set_entry((0, 0, 0), (0, 0, 0), F.one)
    f.set_entry((1, 0, 0), (1, 0, 0), F.of(2))  # d f(a0) = b1 but f(d a0) = 2 b1
    with pytest.raises(ValueError):
        cone(f, a, b)


def test_euler_characteristic_preserved():
    rng = random.Random(43)
    for _ in range(10):
        c, _ = random_complex(rng)
        for w in c.space.weights():
            chi_c = sum((-1) ** d * c.space.dim(d, w) for d in range(-5, 8))
            h = c.cohomology()
            chi_h = sum((-1) ** d * h.space.dim(d, w) for d in range(-5, 8))
            assert chi_c == chi_h


def inclusion(a, s):
    """The chain map a → a ⊕ b onto the left summand."""
    f = GradedMap(a.space, s.space, 0, 0)
    for (d, w), labels in a.space.cells.items():
        for i, lab in enumerate(labels):
            f.set_entry((d, w, i), s.space.key_of(d, w, ("L", lab)), F.one)
    return f


def test_constructions_commute_with_shift():
    """Shift commutes with the direct sum and with the cone, whose
    cohomology for the inclusion a → a ⊕ b is that of b."""
    rng = random.Random(47)
    for _ in range(6):
        a, _ = random_complex(rng, "a")
        b, hb = random_complex(rng, "b")
        n = rng.choice([1, -1, 2])
        s, a_n = a.direct_sum(b), a.shift(n)
        s_n = a_n.direct_sum(b.shift(n))
        assert h_dims(s.shift(n)) == h_dims(s_n)
        lhs = h_dims(cone(inclusion(a, s), a, s).shift(n))
        rhs = h_dims(cone(inclusion(a_n, s_n), a_n, s_n))
        assert lhs == rhs == {(d - n, w): k for (d, w), k in hb.items()}


def test_certificate_monotone_under_window():
    c = truncated_poly_complex()
    w1 = Window(0, 1, 1)
    w2 = Window(-2, 3, 4)
    h1 = c.cohomology(w1)
    h2 = c.cohomology(w2)
    for (d, w) in w1.grid():
        if h1.certificate.exact_at(d, w):
            assert h2.certificate.exact_at(d, w)
            assert h1.space.dim(d, w) == h2.space.dim(d, w)


def test_direct_sum_dims_and_validity():
    a = truncated_poly_complex()
    b = two_term()
    s = a.direct_sum(b)
    assert s.validate_d2() is None
    assert s.space.dim(0, 0) == 2
    assert h_dims(s) == h_dims(a)


def test_is_chain_map_detects_violation():
    a = two_term(label="a")
    b = two_term(label="b")
    good = GradedMap(a.space, b.space, 0, 0)
    good.set_entry((0, 0, 0), (0, 0, 0), F.one)
    good.set_entry((1, 0, 0), (1, 0, 0), F.one)
    assert is_chain_map(good, a.d, b.d) is None
    bad = GradedMap(a.space, b.space, 0, 0)
    bad.set_entry((0, 0, 0), (0, 0, 0), F.one)
    assert is_chain_map(bad, a.d, b.d) == (0, 0)


# -- rank-formula dimensions and lazy representatives ----------------------

FIELDS = [RATIONALS, Field(32003)]


def image_echelon(c, d, w):
    """Echelon of the image of d at (d-1, w), column by column."""
    ech = Echelon(c.field)
    prior = c.differential_block(d - 1, w)
    for j in range(prior.cols):
        ech.insert({r: v for (r, cc), v in prior.entries.items() if cc == j})
    return ech


def kernel_extension_count(c, d, w):
    """dim H^{d,w} as kernel vectors that enlarge the image, no rank formula."""
    ech = image_echelon(c, d, w)
    return sum(ech.insert(v) for v in c.differential_block(d, w).kernel_basis())


def library_complexes(field):
    """Complexes the library builds on the benchmark's paths: the holim of
    the depth-4 adic tower of k[x] (16 keys, its two-term model), and the
    bar resolution and the bar's derived Hom of k over k[x,y]/(x², y²) at
    length 3 (39 and 20 keys)."""
    tower = M.build_scenario("adic_kx_4", field)["tower"].diagram()[1]
    k = M.truncated_poly(field, ["x", "y"], ["x^2", "y^2"]).quotient_module(["x", "y"])
    return [holim(tower, dmax=3).complex, bar_resolution(k, 3).complex,
            derived_hom(k, k, 3, reduced=True)]


def random_complexes(field, seed, count):
    """The random_complex family, then the library's complexes, whose
    differentials have columns with several nonzeros."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_complex(rng, "a", field)[0]
    built = library_complexes(field)
    assert any(max(Counter(c for _, c in b.entries).values()) >= 2
               for cx in built for b in cx.d.blocks.values() if b.entries)
    yield from built


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rank_formula_matches_kernel_extension(field):
    for c in random_complexes(field, 53, 8):
        assert c.validate_d2() is None
        h = c.cohomology()
        for (d, w) in c.space.cells:
            assert h.dim(d, w) == kernel_extension_count(c, d, w)
            assert c.cohomology_dim(d, w) == h.dim(d, w)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_lazy_representatives_are_independent_cocycles(field):
    for c in random_complexes(field, 59, 6):
        h = c.cohomology()
        reps = h.representatives
        assert sorted(reps) == sorted(k for cell in h.space.cells
                                      for k in h.space.keys(*cell))
        for (d, w) in h.space.cells:
            ech = image_echelon(c, d, w)
            for i in range(h.dim(d, w)):
                v = reps[(d, w, i)]
                assert v and all(k[:2] == (d, w) for k in v)
                assert c.d.apply(v) == {}  # a cocycle
                # independent of the image and of the earlier representatives
                assert ech.insert({k[2]: x for k, x in v.items()})
        assert h.representatives is reps  # computed once


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cohomology_computes_no_kernel_until_representatives_are_read(
        field, monkeypatch):
    calls = []
    kernel_basis = linalg.SparseMatrix.kernel_basis

    def counted(self):
        calls.append(self)
        return kernel_basis(self)

    monkeypatch.setattr(linalg.SparseMatrix, "kernel_basis", counted)
    hs = [c.cohomology() for c in random_complexes(field, 61, 3)]
    assert sum(h.space.total_dim() for h in hs) > 0
    assert calls == []
    for h in hs:
        assert len(h.representatives) == h.space.total_dim()
    assert calls


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_project_reads_the_class_of_a_cocycle(field):
    """p(Σ c_i·rep_i + d x) = Σ c_i·h_i for random coefficients and a random
    cochain x one degree down; a cell with no class projects to zero, and
    a cochain that is no cocycle is refused."""
    rng = random.Random(71)
    seen = 0
    for c in random_complexes(field, 73, 6):
        h = c.cohomology()
        reps = h.representatives
        for (d, w) in c.space.cells:
            want = {k: field.of(rng.randint(-3, 3)) for k in h.space.keys(d, w)}
            want = {k: v for k, v in want.items() if not field.is_zero(v)}
            z = c.d.apply({k: field.of(rng.randint(-3, 3))
                           for k in c.space.keys(d - 1, w)})
            for k, v in want.items():
                for x, s in reps[k].items():
                    z[x] = field.add(z.get(x, field.zero), field.mul(v, s))
            z = {x: s for x, s in z.items() if not field.is_zero(s)}
            assert h.project(z) == want, (d, w)
            seen += bool(want)
            bad = [k for k in c.space.keys(d, w) if c.d.apply({k: field.one})]
            if h.dim(d, w) and bad:
                with pytest.raises(ValueError, match="not a cocycle"):
                    h.project({bad[0]: field.one})
    assert seen > 10


def test_cohomology_up_to_a_weight_is_the_cohomology_there():
    """cohomology(wmax=n) has the full cohomology's cells, certificates and
    representatives at |w| <= n, and no knowledge of heavier weights
    outside the complex's certified empty rays."""
    for c in random_complexes(F, 79, 6):
        below, above = c.space.known_zero_below, c.space.known_zero_above
        in_ray = {w: (below is not None and w < below)
                  or (above is not None and w > above) for w in (1, -1)}
        full = c.cohomology(Window(-2, 2, 1))
        cut = c.cohomology(Window(-2, 2, 1), wmax=0)
        assert cut.dims_by_cell() == {
            cell: n for cell, n in full.dims_by_cell().items() if cell[1] == 0}
        assert cut.certificate.status == {
            cell: ok for cell, ok in full.certificate.status.items() if cell[1] == 0}
        assert cut.representatives == {
            k: v for k, v in full.representatives.items() if k[1] == 0}
        assert cut.space.known_degrees([1, -1]) == {
            w: (None, None) if ray else None for w, ray in in_ray.items()}
        assert cut.space.column_complete(0)


def test_a_cohomology_space_keeps_its_complex_rays():
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["a"])
    sp.add_cell(1, -2, ["b"])
    sp.zero_outside = False
    sp.known_zero_below = -3
    sp.known_zero_above = 0
    for wmax in (None, 1, 4):
        hsp = CochainComplex(sp).cohomology(wmax=wmax).space
        assert (hsp.known_zero_below, hsp.known_zero_above) == (-3, 0)
        assert hsp.column_complete(1) and hsp.column_complete(-4)
        assert not hsp.column_complete(-2)


def test_basis_keys_are_built_once_per_set_of_cells():
    sp = BiGradedSpace(F)
    sp.add_cell(1, 0, ["b"])
    sp.add_cell(0, 0, ["a", "a2"])
    keys = sp.basis_keys()
    assert keys == ((0, 0, 0), (0, 0, 1), (1, 0, 0))
    assert sp.basis_keys() is keys and isinstance(keys, tuple)
    sp.add_cell(0, 1, ["c"])
    assert sp.basis_keys() == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def per_cell_certificate(cx, window, wmax=None):
    """The certificate a probe of each cell gives: every held cell and
    every cell of the window grid, cut at wmax, is exact exactly where the
    known degree interval of its weight holds d-1, d and d+1."""
    out = {}
    for (d, w) in set(cx.space.cells) | set(window.grid()):
        if wmax is not None and abs(w) > wmax:
            continue
        (iv,) = cx.space.known_degrees([w]).values()
        out[(d, w)] = (iv is not None and (iv[0] is None or iv[0] <= d - 1)
                       and (iv[1] is None or d + 1 <= iv[1]))
    return out


def certificate_cases():
    """(name, complex, window, wmax): a bar complex knowing only some
    weights, a cut string-model holim read up to a weight, a derived Hom
    with a certified empty ray, and a free resolution's realization inside
    a window wider than it."""
    kx = M.truncated_poly(F, ["x"], [], wmax=4)
    kb = bar_resolution(kx.residue_module(), 3, w_cap=2).complex
    tower = M.build_scenario("adic_kx_5", F)["tower"].diagram()[1]
    poset = H.poset_category(tower.cat.objects, tower.cat.arrows.values())
    strings = holim(H.AlgebraDiagram(poset, tower.algebras, tower.maps), dmax=1)
    assert strings.p_max == 2
    r3 = M.truncated_poly(F, ["x"], ["x^3"])
    k3 = r3.residue_module()
    return [
        ("bar, known up to weight 2", kb, Window(-1, 0, 3), None),
        ("cut holim up to weight 2", strings.complex, Window(-1, 3, 4), 2),
        ("derived Hom, empty ray above 0", derived_hom(k3, k3, 3), Window(0, 1, 4), None),
        ("free resolution, wide window",
         M._realize(r3, M.free_resolution(r3, 3))[0], Window(-6, 2, 8), None),
    ]


def test_certificate_rule_matches_a_probe_of_each_cell():
    """``status`` and ``exact_at`` equal a per-cell probe on the window
    grid, on held cells outside it, and on a ring of cells around it, where
    every cell the probe never reached is window-limited."""
    seen = Counter()
    for name, cx, win, wmax in certificate_cases():
        h = cx.cohomology(win, wmax=wmax)
        want = per_cell_certificate(cx, win, wmax)
        assert h.certificate.status == want, name
        ring = {(d, w) for d in range(win.dmin - 2, win.dmax + 3)
                for w in range(-win.wmax - 2, win.wmax + 3)}
        for cell in ring | set(cx.space.cells):
            assert h.certificate.exact_at(*cell) == want.get(cell, False), (name, cell)
        seen["exact"] += any(want.values())
        seen["limited"] += not all(want.values())
        seen["held outside"] += any(not (win.dmin <= d <= win.dmax and abs(w) <= win.wmax)
                                    for (d, w) in want)
        seen["cut"] += wmax is not None and any(abs(w) > wmax for (_, w) in ring)
    assert seen == {"exact": 4, "limited": 3, "held outside": 2, "cut": 1}, seen


def test_cohomology_works_only_on_the_cells_the_complex_holds(monkeypatch):
    """Hom_A(P, k) over k[x]/(x^5) at length 9 holds 4 cells; its cohomology
    in Window(-9, 0, 9) asks for no cell of the 190-cell grid beyond those
    and their degree neighbours, and walks no grid.  The certificate still
    lists every probed cell when read."""
    r = M.truncated_poly(Field(32003), ["x"], ["x^5"])
    k = r.residue_module()
    cx = derived_hom(k, k, 9)
    win = Window(-9, 0, 9)
    held = set(cx.space.cells)
    assert len(held) == 4 and len(list(win.grid())) == 190
    asked, walked = set(), []
    dim, grid = BiGradedSpace.dim, Window.grid

    def counted_dim(self, deg, wt):
        asked.add((deg, wt))
        return dim(self, deg, wt)

    def counted_grid(self):
        walked.append(self)
        return grid(self)

    monkeypatch.setattr(BiGradedSpace, "dim", counted_dim)
    monkeypatch.setattr(Window, "grid", counted_grid)
    h = cx.cohomology(win)
    assert not walked
    assert asked <= {(d + e, w) for (d, w) in held for e in (-1, 0, 1)}
    monkeypatch.undo()
    assert len(h.certificate.status) == len(held | set(win.grid())) == 193
    assert h.dims_by_cell() == {cell: 1 for cell in held}
