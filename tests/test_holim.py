"""Homotopy limit engine: index categories, towers, signs, the action map."""
import pytest

from dgcomplete.linalg import RATIONALS as F
from dgcomplete.graded import Window, induced_rank, is_chain_map
from dgcomplete.dg import regular_module
from dgcomplete import holim as H
from dgcomplete import models as M
from oracles import strict_limit_dims, strict_colimit_dims


def ground_algebra():
    return M.truncated_poly(F, [], []).algebra


def constant_algebra_diagram(cat, alg):
    ident = {k: {k: 1} for k in alg.basis_keys()}
    return H.AlgebraDiagram(cat, {o: alg for o in cat.objects},
                            {nm: dict(ident) for nm in cat.arrows})


def constant_module_diagram(cat, alg):
    mods = {o: regular_module(alg) for o in cat.objects}
    maps = {nm: {k: {k: 1} for k in mods[cat.tgt(nm)].basis_keys()}
            for nm in cat.arrows}
    return H.ModuleDiagram(cat, mods, maps)


class TestCategories:
    def test_chain_poset_paths(self):
        cat = H.chain_poset(range(3))
        assert sorted(cat.arrows) == ["0->1", "0->2", "1->2"]
        assert cat.comp("1->2", "0->1") == "0->2"
        assert len(H.nonidentity_paths(cat, 0)) == 3
        assert len(H.nonidentity_paths(cat, 1)) == 6
        assert len(H.nonidentity_paths(cat, 2)) == 7

    def test_factorizations(self):
        cat = H.chain_poset(range(3))
        assert cat.factorizations("0->2") == [("0->1", "1->2")]

    def test_poset_closure(self):
        cat = H.poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sorted(cat.arrows) == ["a->b", "a->c", "b->c"]

    def test_bad_category_rejected(self):
        with pytest.raises(ValueError, match="missing composite"):
            H.SmallCategory([0, 1, 2], {"a": (0, 1), "b": (1, 2)}, {})

    def test_negative_path_cutoff(self):
        with pytest.raises(ValueError, match=">= 0"):
            H.nonidentity_paths(H.one_object_category(), -1)


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

    def test_modules_must_share_base(self):
        cat = H.chain_poset(range(2))
        m0 = regular_module(ground_algebra())
        m1 = regular_module(ground_algebra())
        with pytest.raises(ValueError, match="share their base algebra"):
            H.ModuleDiagram(cat, {0: m0, 1: m1}, {})


class TestHolimBasics:
    def test_one_object_is_the_algebra(self):
        alg = M.truncated_poly(F, ["x"], ["x^2"]).algebra
        diag = H.AlgebraDiagram(H.one_object_category(), {"*": alg}, {})
        hl = H.holim(diag, dmax=2)
        assert hl.validate().ok
        assert hl.space.fully_known()
        h = hl.complex.cohomology(Window(0, 2, 2))
        assert {(d, w): h.dim(d, w) for d in (0, 1, 2) for w in (0, 1, 2)
                if h.dim(d, w)} == {(0, 0): 1, (0, 1): 1}

    def test_discrete_is_the_product(self):
        cat = H.discrete_category(["p", "q"])
        a1 = M.truncated_poly(F, ["x"], ["x^2"]).algebra
        diag = H.AlgebraDiagram(cat, {"p": a1, "q": ground_algebra()}, {})
        hl = H.holim(diag, dmax=1)
        assert hl.validate().ok
        h = hl.complex.cohomology(Window(0, 1, 2))
        assert h.dim(0, 0) == 2 and h.dim(0, 1) == 1 and h.dim(1, 0) == 0

    def test_needs_a_cutoff_argument(self):
        diag = H.AlgebraDiagram(H.one_object_category(),
                                {"*": ground_algebra()}, {})
        with pytest.raises(ValueError, match="dmax or p_max"):
            H.holim(diag)


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
        cat, diag = M.adic_tower(ring, ["x"], 5).diagram()
        hl = H.holim(diag, dmax=1)
        assert hl.p_max == 2
        assert not hl.space.fully_known()
        oracle = strict_limit_dims(diag)
        h = hl.complex.cohomology(Window(0, 1, 5))
        for w in range(5):
            assert h.certificate.exact_at(0, w)
            assert not h.certificate.exact_at(1, w)
            assert h.dim(0, w) == oracle.get(w, 0) == 1


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
        cat = H.discrete_category(["p", "q", "r"])
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
        assert hl.space.known_cols[0] == (None, 2)
        assert hl.validate().ok
        assert strict_limit_dims(diag) == {0: 1}
        h = hl.complex.cohomology(Window(0, 2, 0))
        assert [h.dim(d, 0) for d in range(3)] == [1, 0, 0]
        assert h.certificate.exact_at(1, 0)
        assert not h.certificate.exact_at(2, 0)


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
        cat = H.chain_poset(range(3))
        alg = ground_algebra()
        adiag = constant_algebra_diagram(cat, alg)
        mdiag = constant_module_diagram(cat, alg)
        phis = {o: {(mk, ak): {mk: 1}
                    for mk in mdiag.modules[o].basis_keys()
                    for ak in alg.basis_keys()}
                for o in cat.objects}
        hl = H.holim(adiag, p_max=2)
        hc = H.hocolim(mdiag, p_max=2)
        assert hl.validate().ok
        assert hc.validate().ok
        assert H.action_map(hl, hc, phis).validate().ok
        for name in H.SignConvention.fields():
            sc = H.DEFAULT_SIGNS.flip(name)
            if name.startswith("limit"):
                assert not H.holim(adiag, p_max=2, signs=sc).validate().ok, name
            elif name.startswith("colim"):
                assert not H.hocolim(mdiag, p_max=2, signs=sc).validate().ok, name
            else:
                bad = H.action_map(hl, hc, phis, signs=sc)
                assert not bad.validate().ok, name


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
        k = hl.key_for(o, (), u)
        assert hl.basis_product(k, k) == {k: F.one}
        assert hl.basis_product(k, k) == {k: F.one}
        assert calls == [()]


class TestConeAndCocone:
    def setup_method(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        self.tower = M.adic_tower(ring, ["x"], 3)
        self.cat, self.diag = self.tower.diagram()
        self.deep = self.tower.quotient(3)

    def cone_maps(self):
        return {i: self.deep.projection_to(self.tower.quotient(3 - i)).map
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

    def test_cocone_map_out_of_a_constant_colimit(self):
        cat = H.chain_poset(range(3))
        mdiag = constant_module_diagram(cat, ground_algebra())
        hc = H.hocolim(mdiag, dmin=-2)
        assert hc.validate().ok
        assert strict_colimit_dims(mdiag) == {0: 1}
        h = hc.complex.cohomology(Window(-2, 0, 0))
        assert [h.dim(d, 0) for d in (-2, -1, 0)] == [0, 0, 1]
        target = mdiag.modules[0]
        gmaps = {o: {k: {k: 1} for k in mdiag.modules[o].basis_keys()}
                 for o in cat.objects}
        g = H.hocolim_map_from_cocone(hc, target.space, target.complex.d,
                                      gmaps)
        assert is_chain_map(g, hc.complex.d, target.complex.d) is None
        assert induced_rank(g, hc.complex, target.complex, 0, 0) == 1

    def test_incompatible_cocone_raises(self):
        cat = H.chain_poset(range(3))
        mdiag = constant_module_diagram(cat, ground_algebra())
        hc = H.hocolim(mdiag, p_max=1)
        target = mdiag.modules[0]
        gmaps = {o: {k: {k: 1} for k in mdiag.modules[o].basis_keys()}
                 for o in cat.objects}
        gmaps[2] = {k: {k: 2} for k in mdiag.modules[2].basis_keys()}
        with pytest.raises(ValueError, match="cocone maps incompatible"):
            H.hocolim_map_from_cocone(hc, target.space, target.complex.d,
                                      gmaps)


class TestActionOnColimit:
    def setup_method(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        self.cat, self.adiag = M.adic_tower(ring, ["x"], 3).diagram()
        base = ground_algebra()
        mods = {o: regular_module(base) for o in self.cat.objects}
        maps = {nm: {k: {k: 1} for k in mods[self.cat.tgt(nm)].basis_keys()}
                for nm in self.cat.arrows}
        self.mdiag = H.ModuleDiagram(self.cat, mods, maps)
        # augmentation action: only each algebra's unit acts, by the identity
        self.phis = {}
        for o in self.cat.objects:
            mk = mods[o].basis_keys()[0]
            self.phis[o] = {(mk, uk): {mk: 1}
                            for uk in self.adiag.algebras[o].unit}

    def test_augmentation_action_validates(self):
        hl = H.holim(self.adiag, dmax=1)
        hc = H.hocolim(self.mdiag, p_max=hl.p_max)
        assert H.check_action_compatibility(
            self.adiag, self.mdiag, self.phis) is None
        rep = H.action_map(hl, hc, self.phis).validate()
        assert rep.ok, rep.violations[:3]

    def test_corrupted_action_reports_a_witness(self):
        phis = dict(self.phis)
        [(mk, uk)] = list(self.phis[1])
        phis[1] = {(mk, uk): {mk: 2}}
        w = H.check_action_compatibility(self.adiag, self.mdiag, phis)
        assert w is not None and w[0] in self.cat.arrows
        hl = H.holim(self.adiag, dmax=0)
        hc = H.hocolim(self.mdiag, p_max=hl.p_max)
        with pytest.raises(ValueError, match="incompatible action system"):
            H.action_map(hl, hc, phis)
