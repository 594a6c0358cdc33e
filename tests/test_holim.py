"""Homotopy limit engine: index categories, towers, signs, cone maps."""
import pytest

from dgcomplete.linalg import RATIONALS as F, Echelon, Field
from dgcomplete.graded import GradedMap, Window, induced_rank, is_chain_map
from dgcomplete import holim as H
from dgcomplete import models as M
from oracles import strict_limit_dims


def ground_algebra():
    return M.truncated_poly(F, [], []).algebra


def string_model(diag):
    """The same diagram over its category as a plain poset, which records
    no generators, so ``holim`` builds every string up to its cut."""
    poset = H.poset_category(diag.cat.objects, diag.cat.arrows.values())
    return H.AlgebraDiagram(poset, diag.algebras, diag.maps, name=diag.name)


def constant_algebra_diagram(cat, alg):
    ident = {k: {k: 1} for k in alg.basis_keys()}
    return H.AlgebraDiagram(cat, {o: alg for o in cat.objects},
                            {nm: dict(ident) for nm in cat.arrows})


class TestCategories:
    def test_chain_poset_paths(self):
        cat = H.chain_poset(range(3))
        assert sorted(cat.arrows) == ["0->1", "0->2", "1->2"]
        assert cat.compose[("1->2", "0->1")] == "0->2"
        # free on its covering arrows: the strings are the single generators
        assert cat.generators == ["0->1", "1->2"]
        assert [len(H.nonidentity_paths(cat, p)) for p in (0, 1, 2)] == [3, 5, 5]
        # the same order as a poset records no generators: every string
        poset = H.poset_category(range(3), [(0, 1), (1, 2)])
        assert poset.generators is None
        assert [len(H.nonidentity_paths(poset, p)) for p in (0, 1, 2)] == [3, 6, 7]

    def test_poset_closure(self):
        cat = H.poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sorted(cat.arrows) == ["a->b", "a->c", "b->c"]

    def test_bad_category_rejected(self):
        with pytest.raises(ValueError, match="missing composite"):
            H.SmallCategory([0, 1, 2], {"a": (0, 1), "b": (1, 2)}, {})
        chain = H.chain_poset(range(3))
        tables = (chain.objects, chain.arrows, chain.compose)
        endo = (["*"], {"e": ("*", "*")}, {("e", "e"): "e"})
        # an arrow no string reaches, one reached twice, an unknown
        # generator, and strings of every length
        for args, gens in ((tables, ["0->1"]), (tables, chain.arrows),
                           (tables, ["0->1", "1->2", "x"]), (endo, ["e"])):
            with pytest.raises(ValueError, match="not free on its generators"):
                H.SmallCategory(*args, generators=gens)

    def test_negative_path_cutoff(self):
        with pytest.raises(ValueError, match=">= 0"):
            H.nonidentity_paths(H.SmallCategory(["*"], {}, {}), -1)


class TestDiagramValidation:
    def test_missing_pieces_rejected(self):
        cat = H.chain_poset(range(2))
        alg = ground_algebra()
        with pytest.raises(ValueError, match="no algebra at object"):
            H.AlgebraDiagram(cat, {0: alg}, {})
        with pytest.raises(ValueError, match="no algebra map for arrow"):
            H.AlgebraDiagram(cat, {0: alg, 1: alg}, {})

    def test_functoriality_violation_detected(self):
        ring = M.truncated_poly(F, ["x", "y"], ["x^2", "y^2"])
        alg = ring.algebra
        swap = {ring.mono_key(m): {ring.mono_key((m[1], m[0])): 1}
                for m in ring.monomials}
        ident = {k: {k: 1} for k in alg.basis_keys()}
        cat = H.chain_poset(range(3))
        algebras = {o: alg for o in cat.objects}
        good = H.AlgebraDiagram(cat, algebras, {
            "0->1": swap, "1->2": swap, "0->2": ident})
        assert good.validate().ok
        bad = H.AlgebraDiagram(cat, algebras, {
            "0->1": swap, "1->2": swap, "0->2": swap})
        rep = bad.validate()
        assert not rep.ok
        assert rep.violations[0][0] == "functoriality"

    def test_a_key_outside_either_space_is_rejected(self):
        ring = M.truncated_poly(F, ["x"], ["x^2"])
        alg = ring.algebra
        one, x = ring.mono_key((0,)), ring.mono_key((1,))
        cat = H.chain_poset(range(2))
        algebras = {0: alg, 1: alg}
        ident = {one: {one: 1}, x: {x: 1}}
        assert H.AlgebraDiagram(cat, algebras, {"0->1": ident}).validate().ok
        for cols in ({(0, 2, 0): {one: 1}},   # no such cell in the source
                     {one: {(0, 1, 1): 1}},   # index past the target cell
                     {"1": {one: 1}},         # a label, not a key
                     {one: {"x": 1}}):
            with pytest.raises(KeyError, match="unknown basis key"):
                H.AlgebraDiagram(cat, algebras, {"0->1": cols})


class TestHolimBasics:
    def test_one_object_is_the_algebra(self):
        alg = M.truncated_poly(F, ["x"], ["x^2"]).algebra
        diag = H.AlgebraDiagram(H.SmallCategory(["*"], {}, {}), {"*": alg}, {})
        hl = H.holim(diag, dmax=2)
        assert hl.validate().ok
        assert hl.space.fully_known()
        h = hl.complex.cohomology(Window(0, 2, 2))
        assert {(d, w): h.dim(d, w) for d in (0, 1, 2) for w in (0, 1, 2)
                if h.dim(d, w)} == {(0, 0): 1, (0, 1): 1}

    def test_discrete_is_the_product(self):
        cat = H.SmallCategory(["p", "q"], {}, {})
        a1 = M.truncated_poly(F, ["x"], ["x^2"]).algebra
        diag = H.AlgebraDiagram(cat, {"p": a1, "q": ground_algebra()}, {})
        hl = H.holim(diag, dmax=1)
        assert hl.validate().ok
        h = hl.complex.cohomology(Window(0, 1, 2))
        assert h.dim(0, 0) == 2 and h.dim(0, 1) == 1 and h.dim(1, 0) == 0


class TestTowerHolim:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_matches_inverse_limit_oracle(self, depth):
        ring = M.truncated_poly(F, ["x"], [f"x^{depth}"])
        cat, diag = M.adic_tower(ring, ["x"], depth).diagram()
        assert diag.validate().ok
        hl = H.holim(diag, dmax=2)
        assert hl.validate().ok
        assert hl.space.fully_known()
        oracle = strict_limit_dims(diag)
        assert oracle == {w: 1 for w in range(depth)}
        h = hl.complex.cohomology(Window(0, 3, depth))
        for w in range(depth + 1):
            assert h.dim(0, w) == oracle.get(w, 0)
            assert all(h.dim(d, w) == 0 for d in (1, 2, 3))
        assert sum(h.dim(0, w) for w in range(depth + 1)) == depth

    def test_restriction_to_deepest_is_a_quasi_iso(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        cat, diag = M.adic_tower(ring, ["x"], 3).diagram()
        hl = H.holim(diag, dmax=1)
        res = hl.restriction(0)
        assert res.validate().ok
        for w in range(3):
            assert induced_rank(res.map, hl.complex,
                                diag.algebras[0].complex, 0, w) == 1

    def test_cut_tower_still_certifies_low_degrees(self):
        ring = M.truncated_poly(F, ["x"], ["x^5"])
        diag = string_model(M.adic_tower(ring, ["x"], 5).diagram()[1])
        hl = H.holim(diag, dmax=1)
        assert hl.p_max == 2
        assert not hl.space.fully_known()
        oracle = strict_limit_dims(diag)
        h = hl.complex.cohomology(Window(0, 1, 5))
        for w in range(5):
            # certified through dmax: the cut starts in degree p_max + 1
            assert h.certificate.exact_at(0, w) and h.certificate.exact_at(1, w)
            assert h.dim(0, w) == oracle.get(w, 0) == 1
            assert h.dim(1, w) == 0  # the tower's maps are onto: no lim^1


class TestPullback:
    def test_fiber_product_dims(self):
        left = M.truncated_poly(F, ["x", "y"], ["x^2", "y"])
        right = M.truncated_poly(F, ["x", "y"], ["y^2", "x"])
        corner = M.truncated_poly(F, ["x", "y"], ["x", "y"])
        cat = H.poset_category(["L", "R", "C"], [("L", "C"), ("R", "C")])
        diag = H.AlgebraDiagram(
            cat,
            {"L": left.algebra, "R": right.algebra, "C": corner.algebra},
            {"L->C": left.projection_to(corner).map,
             "R->C": right.projection_to(corner).map})
        assert diag.validate().ok
        hl = H.holim(diag, dmax=2)
        assert hl.validate().ok
        assert strict_limit_dims(diag) == {0: 1, 1: 2}
        h = hl.complex.cohomology(Window(0, 2, 2))
        assert h.dim(0, 0) == 1 and h.dim(0, 1) == 2
        assert sum(h.dim(d, w) for d in (1, 2) for w in (0, 1, 2)) == 0


class TestConstantDiagrams:
    def test_square_poset_is_contractible(self):
        cat = H.poset_category(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert len(cat.arrows) == 5
        diag = constant_algebra_diagram(cat, ground_algebra())
        hl = H.holim(diag, dmax=3)
        assert hl.validate().ok
        assert strict_limit_dims(diag) == {0: 1}
        h = hl.complex.cohomology(Window(0, 3, 0))
        assert [h.dim(d, 0) for d in range(4)] == [1, 0, 0, 0]

    def test_components_add_up(self):
        cat = H.SmallCategory(["p", "q", "r"], {}, {})
        diag = constant_algebra_diagram(cat, ground_algebra())
        hl = H.holim(diag, dmax=1)
        assert strict_limit_dims(diag) == {0: 3}
        assert hl.complex.cohomology(Window(0, 1, 0)).dim(0, 0) == 3


class TestCutoffCertificates:
    def test_endo_category_certifies_below_the_cut(self):
        cat = H.SmallCategory(["*"], {"e": ("*", "*")}, {("e", "e"): "e"})
        diag = constant_algebra_diagram(cat, ground_algebra())
        hl = H.holim(diag, dmax=2)
        assert hl.p_max == 3
        assert not hl.space.fully_known()
        assert hl.space.known_cols[0] == (None, 3)
        assert hl.validate().ok
        assert strict_limit_dims(diag) == {0: 1}
        h = hl.complex.cohomology(Window(0, 3, 0))
        assert [h.dim(d, 0) for d in range(3)] == [1, 0, 0]
        assert all(h.certificate.exact_at(d, 0) for d in range(3))
        assert not h.certificate.exact_at(3, 0)

    def test_an_input_known_in_part_certifies_nothing_it_does_not_know(self):
        alg = M.truncated_poly(F, ["x"], ["x^3"]).algebra
        alg.space.set_known(2, 0, 0)  # weight 2 known in degree 0 alone
        assert not alg.space.fully_known()
        diag = H.AlgebraDiagram(H.SmallCategory(["*"], {}, {}), {"*": alg}, {})
        hl = H.holim(diag, dmax=1)
        assert not hl.space.fully_known()
        h = hl.complex.cohomology(Window(0, 1, 2))
        assert h.dim(0, 2) == 1 and not h.certificate.exact_at(0, 2)

class TestSignConvention:
    def test_flip_round_trip(self):
        sc = H.DEFAULT_SIGNS.flip("limit_compose")
        assert sc.limit_compose == 1
        assert sc.flip("limit_compose").limit_compose == 0
        with pytest.raises(ValueError, match="unknown sign field"):
            H.DEFAULT_SIGNS.flip("nope")
        with pytest.raises(ValueError, match="unknown sign fields"):
            H.SignConvention(bogus=1)

    def test_every_single_flip_breaks_a_validator(self):
        cat = H.poset_category(range(3), [(0, 1), (1, 2)])
        adiag = constant_algebra_diagram(cat, ground_algebra())
        good = H.holim(adiag, dmax=1)
        assert good.p_max == 2 and good.validate().ok
        assert H.SignConvention.fields() == (
            "limit_drop_last", "limit_compose", "limit_drop_first",
            "limit_product")
        for name in H.SignConvention.fields():
            sc = H.DEFAULT_SIGNS.flip(name)
            assert not H.holim(adiag, dmax=1, signs=sc).validate().ok, name


class TestLazyProducts:
    def test_cohomology_alone_computes_no_product(self, monkeypatch):
        calls = []
        transport = H.AlgebraDiagram.transport

        def counted(self, names, e):
            calls.append(names)
            return transport(self, names, e)

        monkeypatch.setattr(H.AlgebraDiagram, "transport", counted)
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        cat, diag = M.adic_tower(ring, ["x"], 3).diagram()
        hl = H.holim(diag, dmax=2)
        h = hl.complex.cohomology(Window(0, 2, 3))
        assert sum(h.dim(0, w) for w in range(4)) == 3
        assert calls == []
        # one pair read computes that pair and nothing else, once
        o = cat.objects[0]
        (u,) = diag.algebras[o].unit
        k = hl.space.key_of(u[0], u[1], (o, (), u))
        assert hl.basis_product(k, k) == {k: F.one}
        assert hl.basis_product(k, k) == {k: F.one}
        assert calls == [()]


class TestConeAndCocone:
    def setup_method(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        self.tower = M.adic_tower(ring, ["x"], 3)
        self.cat, self.diag = self.tower.diagram()
        self.deep = self.tower.rings[2]

    def cone_maps(self):
        return {i: self.deep.projection_to(self.tower.rings[2 - i]).map
                for i in range(3)}

    def test_cone_map_into_the_tower(self):
        hl = H.holim(self.diag, dmax=1)
        mor = H.holim_map_from_compatible_system(hl, self.deep.algebra,
                                                 self.cone_maps())
        assert mor.validate().ok
        for w in range(3):
            assert induced_rank(mor.map, self.deep.algebra.complex,
                                hl.complex, 0, w) == 1

    def test_incompatible_cone_raises(self):
        hl = H.holim(self.diag, dmax=0)
        fmaps = self.cone_maps()
        fmaps[1] = fmaps[1].scale(F.of(2))
        with pytest.raises(ValueError, match="cone maps incompatible"):
            H.holim_map_from_compatible_system(hl, self.deep.algebra, fmaps)


def full_induced_rank(f, src, tgt, deg, wt):
    """Rank on cohomology with no shortcut: images of the source kernel
    that enlarge the image of the target's differential."""
    td, tw = deg + f.deg_shift, wt + f.wt_shift
    ech = Echelon(F)
    prior = tgt.differential_block(td - 1, tw)
    for c in range(prior.cols):
        ech.insert({r: v for (r, cc), v in prior.entries.items() if cc == c})
    rank = 0
    for v in src.differential_block(deg, wt).kernel_basis():
        img = f.apply({(deg, wt, i): s for i, s in v.items()})
        rank += ech.insert({k[2]: s for k, s in img.items()})
    return rank


class TestInducedRankShortcut:
    """induced_rank skips cells with no cohomology; it must agree with the
    full computation on every chain map of this file."""

    def chain_maps(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        tower = M.adic_tower(ring, ["x"], 3)
        _, diag = tower.diagram()
        hl = H.holim(diag, dmax=1)
        yield hl.restriction(0).map, hl.complex, diag.algebras[0].complex
        deep = tower.rings[2]
        cone = {i: deep.projection_to(tower.rings[2 - i]).map for i in range(3)}
        mor = H.holim_map_from_compatible_system(hl, deep.algebra, cone)
        yield mor.map, deep.algebra.complex, hl.complex

    def test_shortcut_agrees_with_the_full_computation(self):
        skipped_kernels = 0
        for f, src, tgt in self.chain_maps():
            assert is_chain_map(f, src.d, tgt.d) is None
            for (d, w) in src.space.cells:
                full = full_induced_rank(f, src, tgt, d, w)
                assert induced_rank(f, src, tgt, d, w) == full
                if src.cohomology_dim(d, w) == 0:
                    skipped_kernels += len(src.differential_block(d, w).kernel_basis())
        # the shortcut did skip cells whose kernel is not empty
        assert skipped_kernels > 0


GF = Field(32003)


def cubic_tower(field):
    """The adic tower of k[x]/(x^3) at depth 3: projections, not identities,
    over the chain poset on three objects, free on its two covering arrows;
    ``string_model`` of it has the composite arrow too."""
    ring = M.truncated_poly(field, ["x"], ["x^3"])
    return M.adic_tower(ring, ["x"], 3).diagram()[1]


def certified_dims(h):
    return {c: h.dim(*c) for c, ok in h.certificate.status.items() if ok}


class TestPrimeField:
    @pytest.mark.parametrize("which", ["random1", "random2", "random3", "cubic"])
    def test_matches_the_rationals_on_certified_cells(self, which):
        def diagram(field):
            if which == "cubic":
                return cubic_tower(field)
            return M.random_diagram(int(which[-1]), field)[1]

        hq, hp = H.holim(diagram(F), dmax=2), H.holim(diagram(GF), dmax=2)
        assert hp.field == GF
        assert hp.validate().ok
        wmax = max(abs(k[1]) for k in hq.basis_keys())
        window = Window(0, 2, wmax)
        dims = certified_dims(hp.complex.cohomology(window))
        assert dims == certified_dims(hq.complex.cohomology(window))
        assert any(dims.values())


class TestSignsOnATower:
    """The single-flip mutants on a diagram whose maps are not identities."""

    @pytest.mark.parametrize("field", [F, GF], ids=["qq", "gf32003"])
    def test_each_face_flip_breaks_d_squared(self, field):
        diag = string_model(cubic_tower(field))
        hl = H.holim(diag, dmax=1)
        assert hl.p_max == 2
        assert hl.complex.validate_d2() is None
        assert hl.validate().ok
        for name in ("limit_drop_last", "limit_compose", "limit_drop_first"):
            bad = H.holim(diag, dmax=1, signs=H.DEFAULT_SIGNS.flip(name))
            assert bad.complex.validate_d2() == (0, 0), name
        bad = H.holim(diag, dmax=1, signs=H.DEFAULT_SIGNS.flip("limit_product"))
        assert bad.complex.validate_d2() is None
        assert not bad.validate().ok

    @pytest.mark.parametrize("field", [F, GF], ids=["qq", "gf32003"])
    def test_each_flip_breaks_the_two_term_model(self, field):
        """d^2 = 0 holds on any two-term complex, so the face flips are
        caught by Leibniz; a free category has no composite face, so the
        compose flip changes nothing there and is caught on the poset."""
        diag = cubic_tower(field)
        good = H.holim(diag, dmax=1)
        assert good.p_max == 1 and good.validate().ok
        for name in ("limit_drop_last", "limit_drop_first", "limit_product"):
            bad = H.holim(diag, dmax=1, signs=H.DEFAULT_SIGNS.flip(name))
            assert bad.complex.validate_d2() is None
            assert not bad.validate().ok, name
        flip = H.DEFAULT_SIGNS.flip("limit_compose")
        same = H.holim(diag, dmax=1, signs=flip)
        assert same.complex.d.same_blocks(good.complex.d)
        assert not H.holim(string_model(diag), dmax=1, signs=flip).validate().ok


def towers():
    """(id, diagram, dmax): the benchmark's k[x] towers of depth 2-8 over
    both fields at its largest dmax, and the k[x,y] towers of
    tests/test_noetherian.py, along the origin and along (x)."""
    for field, fid in ((F, "qq"), (GF, "gf32003")):
        for depth in range(2, 9):
            tower = M.build_scenario(f"adic_kx_{depth}", field)["tower"]
            yield f"kx{depth}-{fid}", tower.diagram()[1], 4
    ring = M.truncated_poly(F, ["x", "y"], [], wmax=6)
    for gens, depth in ((["x", "y"], 4), (["x"], 3)):
        tower = M.adic_tower(ring, gens, depth)
        yield f"kxy-{''.join(gens)}{depth}", tower.diagram()[1], 1


@pytest.mark.parametrize("diag, dmax", [c[1:] for c in towers()],
                         ids=[c[0] for c in towers()])
def test_two_term_and_string_models_agree_on_towers(diag, dmax):
    """Equal on every cell the string model certifies; the two-term model
    certifies every cell, with the strict limit in degree 0 and nothing
    above, where the string model's cut can show classes it does not
    certify (7 at (5, 0) on the depth-8 tower)."""
    wmax = max(k[1] for a in diag.algebras.values() for k in a.basis_keys())
    window = Window(0, dmax + 3, wmax)
    two = H.holim(diag, dmax).complex.cohomology(window)
    strings = H.holim(string_model(diag), dmax).complex.cohomology(window)
    assert certified_dims(strings) == {
        c: two.dim(*c) for c in certified_dims(strings)}
    assert all(two.certificate.exact_at(*c) for c in window.grid())
    h0 = strict_limit_dims(diag)
    assert {c: two.dim(*c) for c in window.grid() if two.dim(*c)} == {
        (0, w): n for w, n in h0.items() if n}
    if len(diag.cat.objects) == 8:
        assert strings.dim(5, 0) == 7 and not strings.certificate.exact_at(5, 0)


def test_building_the_limit_reads_each_input_once(monkeypatch):
    """Each internal differential and each map a face uses is read once,
    column by column: the string model of the depth-5 tower uses all ten
    arrows, the two-term model its four covering arrows."""
    free = M.build_scenario("adic_kx_5")["tower"].diagram()[1]
    calls = {}
    apply, paths, columns = GradedMap.apply, H.nonidentity_paths, H._columns

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(GradedMap, "apply", counted("apply", apply))
    monkeypatch.setattr(H, "nonidentity_paths", counted("paths", paths))
    monkeypatch.setattr(H, "_columns", counted("columns", columns))
    for diag, p_max, arrows in ((string_model(free), 4, 10), (free, 1, 4)):
        calls.update(apply=0, paths=0, columns=0)
        hl = H.holim(diag, dmax=3)
        assert hl.p_max == p_max
        assert calls == {"apply": 0, "paths": 1, "columns": arrows + 5}


@pytest.mark.parametrize("build", [
    lambda: string_model(M.build_scenario("adic_kx_4")["tower"].diagram()[1]),
    lambda: M.random_diagram(2, F)[1]], ids=["kx4-strings", "random2"])
def test_holims_of_one_diagram_read_its_inputs_once(monkeypatch, build):
    """The first holim keeps the columns of each map and internal d on the
    diagram, so later holims at other dmax read none, and each answers
    what the holim of a fresh diagram answers: dims, certificates, d."""
    calls = []
    columns = H._columns

    def counted(d):
        calls.append(d)
        return columns(d)

    monkeypatch.setattr(H, "_columns", counted)
    diag = build()
    cat = diag.cat
    reads = len(cat.generators or cat.arrows) + len(cat.objects)
    for dmax in (2, 4, 3):
        before = len(calls)
        got = H.holim(diag, dmax)
        assert len(calls) - before == (reads if dmax == 2 else 0)
        want = H.holim(build(), dmax)
        window = Window(0, dmax + 1, max(abs(k[1]) for k in got.basis_keys()))
        hg, hw = got.complex.cohomology(window), want.complex.cohomology(window)
        assert hg.dims_by_cell() == hw.dims_by_cell()
        assert hg.certificate.status == hw.certificate.status
        assert got.complex.d.same_blocks(want.complex.d)


def _tower_diagram():
    return M.build_scenario("adic_kx_4")["tower"].diagram()[1]


def _dg_poset_diagram():
    """random_diagram(38): a five-object poset with strings of length three
    and the dg line, whose internal d is nonzero, at its minimal objects."""
    return M.random_diagram(38, F)[1]


def _limit_snapshot(hl):
    """Cells with their labels, every block's entries, knowledge, unit and
    the cutoff."""
    sp = hl.space
    return (hl.p_max, sp.cells, sp.known_cols, sp.zero_outside,
            sp.known_zero_below, sp.known_zero_above,
            {cell: (b.rows, b.cols, b.entries)
             for cell, b in hl.complex.d.blocks.items()}, hl.unit)


@pytest.mark.parametrize("dmaxes", [[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 3, 2]],
                         ids=["ascending", "descending", "repeated"])
@pytest.mark.parametrize("build", [
    _tower_diagram, lambda: string_model(_tower_diagram()), _dg_poset_diagram],
    ids=["kx4-tower", "kx4-strings", "random38"])
def test_a_kept_string_scheme_builds_what_a_fresh_category_builds(build, dmaxes):
    """Every holim after the first on a category reads the string scheme it
    keeps per cutoff, a cutoff past the longest string read as that length;
    each equals the holim over a freshly built one."""
    diag = build()
    for dmax in dmaxes:
        assert _limit_snapshot(H.holim(diag, dmax)) == _limit_snapshot(
            H.holim(build(), dmax))
    longest = max(len(names) for _, names in H.nonidentity_paths(diag.cat, 20))
    assert {key[0] for key in diag.cat._strings} == {
        min(H.holim(diag, dmax).p_max, longest) for dmax in dmaxes}


def _idempotent_diagram():
    """k over one object with an idempotent arrow, e·e = e: a cycle, so
    there are strings of every length."""
    cat = H.SmallCategory(["a"], {"e": ("a", "a")}, {("e", "e"): "e"})
    return constant_algebra_diagram(cat, ground_algebra())


def test_string_schemes_are_never_kept_twice_and_a_cycle_keeps_none():
    """random_diagram(38)'s longest string has length 3, so dmax 1..12
    (cutoffs 2..13) keep two schemes, neither equal to the other.  The
    idempotent's strings grow with every cutoff, so its category keeps no
    scheme, and each holim equals the holim over a fresh category."""
    diag = _dg_poset_diagram()
    for dmax in range(1, 13):
        H.holim(diag, dmax)
    kept = list(diag.cat._strings.values())
    assert len(kept) == 2 and kept[0] != kept[1]
    cyclic = _idempotent_diagram()
    for dmax in [*range(1, 13), *range(11, 0, -1)]:
        assert _limit_snapshot(H.holim(cyclic, dmax)) == _limit_snapshot(
            H.holim(_idempotent_diagram(), dmax))
    assert not cyclic.cat._strings


@pytest.mark.parametrize("build", [
    lambda: string_model(cubic_tower(F)), _dg_poset_diagram],
    ids=["cubic-strings", "random38"])
def test_a_flip_after_the_default_reads_its_own_faces(build):
    """The scheme is kept per sign fields, so a mutant built after the
    default on the same category still breaks d^2 or the algebra axioms."""
    diag = build()
    assert H.holim(diag, dmax=1).validate().ok
    for name in H.SignConvention.fields():
        bad = H.holim(diag, dmax=1, signs=H.DEFAULT_SIGNS.flip(name))
        assert bad.complex.validate_d2() is not None or not bad.validate().ok, name
    assert H.holim(diag, dmax=1).validate().ok


def _chain_of_three():
    return constant_algebra_diagram(
        H.poset_category(range(3), [(0, 1), (1, 2)]), ground_algebra())


@pytest.mark.parametrize("build, dmaxes, runs", [
    (_tower_diagram, [1, 2, 3, 4], 1),
    (_chain_of_three, [1, 2, 3, 2], 1),
    (_chain_of_three, [0, 1, 0, 2], 2)], ids=["kx4-tower", "poset", "poset-short"])
def test_the_strings_are_built_once_per_cutoff(monkeypatch, build, dmaxes, runs):
    """A free category's cutoff is always 1, so a tower builds its strings
    once; a poset's cutoff follows dmax (cutoff dmax + 1 here) up to its
    longest string, 0 -> 1 -> 2 of length 2, and reads as that length past
    it, and a repeated one is kept."""
    calls = []
    paths = H.nonidentity_paths

    def counted(cat, p_max):
        calls.append(p_max)
        return paths(cat, p_max)

    monkeypatch.setattr(H, "nonidentity_paths", counted)
    diag = build()
    for dmax in dmaxes:
        H.holim(diag, dmax)
    assert len(calls) == runs


def test_each_class_cell_has_its_own_labels():
    """Cohomology shares its label strings, never a cell's list."""
    h = H.holim(_tower_diagram(), 2).complex.cohomology(Window(0, 2, 4))
    cells = h.space.cells
    assert len(cells) > 1
    first, *rest = sorted(cells)
    before = {c: list(cells[c]) for c in rest}
    cells[first].append("edited")
    assert {c: cells[c] for c in rest} == before
    assert all(cells[c] == [f"h{i}" for i in range(len(cells[c]))] for c in rest)
