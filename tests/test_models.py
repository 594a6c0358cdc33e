"""Model library: rings, towers, resolutions, duality, example registry."""
import hashlib

import pytest

from dgcomplete.linalg import RATIONALS as F, Field
from dgcomplete.graded import Window
from dgcomplete.dg import DgModule, regular_module, right_ideal_module
from dgcomplete.bar import derived_hom
from dgcomplete.complete import completion_along_set, double_centralizer
from dgcomplete import models as M
from test_bar import _complex_snapshot


def hdims(cx, dlo, dhi, wband):
    h = cx.cohomology(window=Window(dlo, dhi, wband))
    return {(d, w): h.dim(d, w)
            for d in range(dlo, dhi + 1)
            for w in range(-wband, wband + 1) if h.dim(d, w)}


class TestMonomials:
    def test_label_parse_round_trip(self):
        vs = ["x", "y"]
        for exps in [(0, 0), (1, 0), (0, 3), (2, 1)]:
            assert M.parse_mono(M.mono_label(exps, vs), vs) == exps

    def test_parse_accumulates_repeats(self):
        assert M.parse_mono("x*x*y", ["x", "y"]) == (2, 1)

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            M.parse_mono("z", ["x"])

    def test_inhomogeneous_relation(self):
        with pytest.raises(ValueError, match="not homogeneous in weight"):
            M.truncated_poly(F, ["x"], [{"x^2": 1, "x": 1}])

    def test_sum_relation_rejected(self):
        with pytest.raises(ValueError, match="only monomial relations"):
            M.truncated_poly(F, ["x", "y"], [{"x*y": 1, "y^2": -1}])

    def test_unit_relation_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            M.truncated_poly(F, ["x"], [{"1": 1}])


class TestTruncatedRing:
    def test_kx2_basis(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        assert [M.mono_label(m, r.variables) for m in r.monomials] == ["1", "x"]
        assert r.algebra.validate().ok

    def test_kxy_xy_weight_cap(self):
        r = M.truncated_poly(F, ["x", "y"], ["x*y"], wmax=3)
        assert r.algebra.space.total_dim() == 7
        assert r.algebra.validate().ok

    def test_infinite_needs_cap(self):
        with pytest.raises(ValueError, match="no pure power relation"):
            M.truncated_poly(F, ["x", "y"], ["x^2"])

    def test_implied_relations_dropped(self):
        r = M.truncated_poly(F, ["x"], ["x^2", "x^3"])
        assert len(r.relations) == 1

    def test_residue_and_quotient_modules(self):
        r = M.truncated_poly(F, ["x", "y"], ["x^2", "y^2"])
        k = r.residue_module()
        assert len(k.basis_keys()) == 1
        assert k.validate().ok
        q = r.quotient_module(["y"])
        assert len(q.basis_keys()) == 2
        assert q.validate().ok

    def test_projection_is_a_morphism(self):
        big = M.truncated_poly(F, ["x"], [], wmax=5)
        small = M.truncated_poly(F, ["x"], [], wmax=3)
        assert big.projection_to(small).validate().ok

    def test_projection_composes(self):
        r5 = M.truncated_poly(F, ["x"], [], wmax=5)
        r3 = M.truncated_poly(F, ["x"], [], wmax=3)
        r2 = M.truncated_poly(F, ["x"], [], wmax=2)
        direct = r5.projection_to(r2).map
        via = r3.projection_to(r2).map.compose(r5.projection_to(r3).map)
        assert direct.same_blocks(via)


class TestSquareZero:
    def test_trivial_extension_of_kx2(self):
        sz = M.square_zero(M.truncated_poly(F, ["x"], ["x^2"]), ())
        assert sz.algebra.space.total_dim() == 4
        assert sz.shift == 1
        by_wt = {}
        for k in sz.algebra.basis_keys():
            by_wt[k[1]] = by_wt.get(k[1], 0) + 1
        assert by_wt == {0: 1, 1: 2, 2: 1}
        assert sz.algebra.validate().ok

    def test_zero_module_returns_base(self):
        ring = M.truncated_poly(F, ["x"], ["x^2"])
        sz = M.square_zero(ring, None)
        assert sz.algebra is ring.algebra
        assert sz.shift == 0

    def test_module_part_squares_to_zero(self):
        sz = M.square_zero(M.truncated_poly(F, ["x"], ["x^2"]), ())
        alg = sz.algebra
        mkeys = [k for k in alg.basis_keys()
                 if alg.space.label_of(k).startswith("m(")]
        f = alg.field
        for k1 in mkeys:
            for k2 in mkeys:
                assert alg.multiply({k1: f.one}, {k2: f.one}) == {}


class TestAdicTower:
    def test_xy_tower_dims(self):
        ring = M.truncated_poly(F, ["x", "y"], ["x*y"], wmax=3)
        tw = M.adic_tower(ring, ["x", "y"], 3)
        assert tw.dims() == [1, 3, 5]
        assert tw.warnings == []
        assert tw.quotient(1).algebra.space.total_dim() == 1

    def test_diagram_validates(self):
        ring = M.truncated_poly(F, ["x", "y"], ["x*y"], wmax=3)
        cat, diag = M.adic_tower(ring, ["x", "y"], 3).diagram()
        assert diag.validate().ok
        # deepest quotient sits at the initial object
        assert diag.algebras[0].space.total_dim() == 5

    def test_cap_artifact_warns_and_stabilizes(self):
        ring = M.truncated_poly(F, ["x"], [], wmax=3)
        tw = M.adic_tower(ring, ["x"], 5)
        assert tw.dims() == [1, 2, 3, 4, 4]
        assert any("stabilizes" in w for w in tw.warnings)

    def test_projection_maps_validate(self):
        ring = M.truncated_poly(F, ["x"], [], wmax=6)
        tw = M.adic_tower(ring, ["x"], 3)
        for mor in tw.maps:
            assert mor.validate().ok


class TestResolutions:
    def test_koszul_d_squared(self):
        for vs in (["x"], ["x", "y"], ["x", "y", "z"]):
            ring = M.truncated_poly(F, vs, [], wmax=4)
            assert M.koszul_resolution(ring).validate() is None

    def test_periodic_d_squared(self):
        for t in (2, 3, 4):
            ring = M.truncated_poly(F, ["x"], [f"x^{t}"])
            assert M.periodic_resolution(ring, 6).validate() is None

    def test_periodic_weights(self):
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        p = M.periodic_resolution(ring, 4)
        assert [(d, w) for (_, d, w) in p.gens] == [
            (0, 0), (-1, 1), (-2, 3), (-3, 4), (-4, 6)]
        s = M.periodic_resolution(ring, 2, socle=True)
        assert [(d, w) for (_, d, w) in s.gens] == [(0, 2), (-1, 3), (-2, 5)]

    def test_resolution_computes_residue_field(self):
        ring = M.truncated_poly(F, ["x"], ["x^2"])
        p = M.periodic_resolution(ring, 5)
        mod = p.to_module()
        assert mod.validate().ok
        h = hdims(mod.complex, -5, 1, 8)
        # k in degree 0 plus the truncation syzygy below the honest range
        assert h[(0, 0)] == 1
        assert all(d >= p.honest_min or d == -5 for (d, w) in h)
        assert {(d, w): v for (d, w), v in h.items() if d > -5} == {(0, 0): 1}

    def test_koszul_computes_residue_field(self):
        ring = M.truncated_poly(F, ["x", "y"], [], wmax=5)
        mod = M.koszul_resolution(ring).to_module()
        h = hdims(mod.complex, -2, 1, 4)
        assert h == {(0, 0): 1}

    def test_periodic_refuses_the_field(self):
        with pytest.raises(ValueError, match="t >= 2"):
            M.periodic_resolution(M.truncated_poly(F, ["x"], ["x"]), 4)

    def test_bidegree_checked_before_dead_entries_drop(self):
        ring = M.truncated_poly(F, ["x"], ["x^2"])
        gens = [("a", 0, 0), ("b", -1, 1)]
        # x^2 is dead in the ring, but d(b) = x^2·a still breaks weight
        with pytest.raises(ValueError, match="weight"):
            M.FreeComplex(ring, gens, {"b": {("a", (2,)): F.one}})
        c = M.FreeComplex(ring, gens, {"b": {("a", (1,)): F.one}})
        assert c.d.entries == {"b": {("a", (1,)): F.one}}

    def test_free_resolution_dispatch(self):
        assert M.free_resolution(M.truncated_poly(F, [], []), 3).gens
        assert M.free_resolution(M.truncated_poly(F, ["x"], [], wmax=4), 3)
        assert M.free_resolution(M.truncated_poly(F, ["x"], ["x^2"]), 3)
        with pytest.raises(ValueError, match="no built-in resolution"):
            M.free_resolution(
                M.truncated_poly(F, ["x", "y"], ["x^2", "y^2"]), 3)


class TestFreeComplexOps:
    def setup_method(self):
        self.ring = M.truncated_poly(F, ["x"], ["x^2"])
        self.p = M.periodic_resolution(self.ring, 4)

    def test_dual_d_squared(self):
        assert self.p.dual().validate() is None
        assert self.p.dual().dual().validate() is None

    def test_dual_flips_honesty(self):
        d = self.p.dual()
        assert (d.honest_min, d.honest_max) == (None, -self.p.honest_min)
        dd = d.dual()
        assert (dd.honest_min, dd.honest_max) == (self.p.honest_min, None)

    def test_tensor_d_squared_and_tor(self):
        t2 = self.p.tensor(self.p)
        assert t2.validate() is None
        assert t2.honest_min == self.p.honest_min
        h = hdims(t2.to_module().complex, -3, 0, 10)
        # Tor of the residue field with itself: one class per degree
        for j in range(0, 4):
            assert h[(-j, j)] == 1

    def test_to_complex_is_the_complex_of_to_module(self):
        koszul = M.koszul_resolution(M.truncated_poly(F, ["x", "y"], [], wmax=4))
        for fc in (koszul, self.p, self.p.tensor(self.p)):
            assert (_complex_snapshot(fc.to_complex())
                    == _complex_snapshot(fc.to_module().complex)), fc.name

    def test_exact_complexes_tensor_exact(self):
        ring = M.truncated_poly(F, ["x"], [], wmax=6)
        kz = M.koszul_resolution(ring)
        dd = kz.dual().tensor(kz.dual())
        assert dd.honest_tracked
        assert (dd.honest_min, dd.honest_max) == (None, None)

    def test_lacing_is_a_chain_map(self):
        assert M.lacing_map(self.p, self.p).validate_chain() is None
        r3 = M.truncated_poly(F, ["x"], ["x^3"])
        q = M.periodic_resolution(r3, 4)
        assert M.lacing_map(q, q).validate_chain() is None
        assert M.lacing_map(q.tensor(q), q).validate_chain() is None

    def test_biduality_is_a_chain_map(self):
        t2 = self.p.tensor(self.p)
        phi = M.biduality_map(t2, t2.dual().dual())
        assert phi.validate_chain() is None

    def test_free_map_compose_and_tensor(self):
        ident = M.identity_free_map(self.p)
        assert ident.validate_chain() is None
        assert ident.compose(ident).validate_chain() is None
        assert ident.tensor(ident).validate_chain() is None

    def test_free_map_dual(self):
        pprime, rho = M.dual_model(self.ring, self.p, 4)
        assert rho.validate_chain() is None
        assert rho.dual().validate_chain() is None

    def test_dual_and_tensor_built_once(self):
        q = M.periodic_resolution(self.ring, 2)
        assert self.p.dual() is self.p.dual()
        assert self.p.tensor(q) is self.p.tensor(q)
        assert self.p.tensor(self.p) is not self.p.tensor(q)
        assert M.lacing_map(self.p, q).target is self.p.tensor(q).dual()


class TestDualModule:
    """The derived dual RHom_R(M, R) through the bar construction."""

    def test_dual_of_residue_field_is_socle(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        dk = derived_hom(r.residue_module(), regular_module(r.algebra), 8, 8)
        assert hdims(dk, -1, 3, 6) == {(0, 1): 1}

    def test_dual_of_ring_is_ring(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        reg = regular_module(r.algebra)
        dr = derived_hom(reg, reg, 6, 6)
        assert hdims(dr, -1, 3, 6) == {(0, 0): 1, (0, 1): 1}

    def test_dual_over_truncated_line(self):
        # weight-truncated k[x] is self-dual-ish with socle at the cap
        r = M.truncated_poly(F, ["x"], [], wmax=3)
        dk = derived_hom(r.residue_module(), regular_module(r.algebra), 10, 10)
        assert hdims(dk, -1, 3, 8) == {(0, 3): 1}


class TestInfinExt:
    def test_square_zero_line_is_not_reflexive(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        rep = M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        assert rep["verdict"] == "non-isomorphism"
        assert rep["witness"] is not None
        assert rep["certified_degrees"][2] == [-3, 3]
        assert rep["per_degree"][2]["left"] == [1, 1, 1, 1, 0, 0, 0]
        assert rep["per_degree"][2]["right"] == [0, 0, 0, 1, 1, 1, 1]
        assert rep["per_degree"][2]["map_rank"] == [0] * 7
        assert rep["biduality"][1]["matches_left_dims"]
        assert rep["biduality"][2]["matches_left_dims"]

    def test_left_table_is_tor(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        rep = M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        assert rep["tables"][2]["left"] == {(-j, j): 1 for j in range(0, 4)}
        assert rep["tables"][2]["right"] == {(j, -j - 1): 1 for j in range(0, 4)}

    def test_report_builds_no_module(self, monkeypatch):
        r = M.truncated_poly(F, ["x"], ["x^3"])
        built = []
        init = DgModule.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DgModule, "__init__", counted)
        rep = M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        assert built == []
        # the report as computed through module realizations
        assert rep == {
            "ring": "k[x]/(x^3)", "window": [-3, 3], "length": 6,
            "certified_degrees": {1: [-3, 3], 2: [-3, 3]},
            "certified_weight_max": {1: None, 2: None},
            "biduality": {
                1: {"ranks": {(0, 0): 1}, "matches_left_dims": True},
                2: {"ranks": {(-3, 4): 1, (-2, 3): 1, (-1, 1): 1, (0, 0): 1},
                    "matches_left_dims": True}},
            "tables": {
                1: {"left": {(0, 0): 1}, "right": {(0, 0): 1},
                    "map_rank": {(0, 0): 1}},
                2: {"left": {(-3, 4): 1, (-2, 3): 1, (-1, 1): 1, (0, 0): 1},
                    "right": {(0, -2): 1, (1, -3): 1, (2, -5): 1, (3, -6): 1},
                    "map_rank": {}}},
            "per_degree": {
                1: {"left": [0, 0, 0, 1, 0, 0, 0],
                    "right": [0, 0, 0, 1, 0, 0, 0],
                    "map_rank": [0, 0, 0, 1, 0, 0, 0]},
                2: {"left": [1, 1, 1, 1, 0, 0, 0],
                    "right": [0, 0, 0, 1, 1, 1, 1],
                    "map_rank": [0] * 7}},
            "verdict": "non-isomorphism",
            "witness": (2, -3, 4),
        }

    def test_report_builds_each_complex_once(self, monkeypatch):
        r = M.truncated_poly(F, ["x"], ["x^3"])
        built = []
        init = M.FreeComplex.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(M.FreeComplex, "__init__", counted)
        M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        # P, P^, P^^, P', P'^, P⊗P, (P⊗P)^, (P⊗P)^^, P^⊗P^, P'⊗P', (P'⊗P')^
        assert len(built) <= 11

    def test_reports_pinned_over_a_prime_field(self):
        gf = Field(32003)
        reports = [M.infin_ext_check(M.truncated_poly(gf, ["x"], [f"x^{t}"]),
                                     window=(-3, 3), length=6)
                   for t in range(2, 7)]
        reports += [M.infin_ext_check(M.truncated_poly(gf, vs, [], wmax=4),
                                      window=(-2, 2), length=4)
                    for vs in (["x"], ["x", "y"])]
        text = "".join(repr(sorted(rep.items(), key=str)) for rep in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d1ddec90717420510b542bc3932a1535c6fa36e7a278f3136f8a8ec98ea07396")

    def test_map_ranks_only_on_nonzero_cells(self, monkeypatch):
        """induced_rank runs at most twice per cell of the tables (the
        comparison where both sides are nonzero, biduality where the left
        is); a scan of the whole window × weight grid makes 6,440."""
        calls = []
        rank = M.induced_rank

        def counted(*args):
            calls.append(args)
            return rank(*args)

        monkeypatch.setattr(M, "induced_rank", counted)
        gf = Field(32003)
        cells = 0
        for t in range(2, 7):
            rep = M.infin_ext_check(M.truncated_poly(gf, ["x"], [f"x^{t}"]),
                                    window=(-3, 3), length=6, n_check=2)
            cells += sum(len(set(tab["left"]) | set(tab["right"]))
                         for tab in rep["tables"].values())
        assert cells and len(calls) <= 2 * cells

    def test_ring_spanned_by_one_is_the_field(self):
        # k[x]/(x) = k: no junk Tor from a step by x^0
        rep = M.infin_ext_check(M.truncated_poly(F, ["x"], ["x"]),
                                window=(-2, 2), length=4)
        field = M.infin_ext_check(M.truncated_poly(F, [], []),
                                  window=(-2, 2), length=4)
        assert rep.pop("ring") == "k[x]/(x)"
        field.pop("ring")
        assert rep == field
        assert rep["verdict"] == "isomorphism"

    def test_regular_line_is_reflexive(self):
        kx = M.truncated_poly(F, ["x"], [], wmax=8)
        rep = M.infin_ext_check(kx, window=(-2, 2), length=4, n_check=2)
        assert rep["verdict"] == "isomorphism"
        assert rep["witness"] is None
        # the comparison is full rank on the true classes
        assert rep["tables"][2]["map_rank"][(0, 0)] == 1
        assert rep["tables"][2]["map_rank"][(-1, 1)] == 1
        assert rep["certified_weight_max"][2] == 8

    def test_ground_field_is_reflexive(self):
        kk = M.truncated_poly(F, [], [])
        rep = M.infin_ext_check(kk, window=(-2, 2), length=4, n_check=2)
        assert rep["verdict"] == "isomorphism"
        assert rep["per_degree"][2] == {
            "left": [0, 0, 1, 0, 0],
            "right": [0, 0, 1, 0, 0],
            "map_rank": [0, 0, 1, 0, 0]}

    def test_short_length_rejected(self):
        r = M.truncated_poly(F, ["x"], ["x^2"])
        with pytest.raises(ValueError, match="twice the window"):
            M.infin_ext_check(r, window=(-4, 4), length=6)


class TestCategoryAlgebras:
    def test_dual_numbers_shape(self):
        A = M.dual_numbers_category(F)
        assert A.space.total_dim() == 4
        assert A.validate().ok
        m = right_ideal_module(A, A.idempotents["X1"])
        assert sorted(A.space.label_of(k) for k in m.basis_keys()) == [
            "e1", "eps"]

    def test_dual_numbers_opposite_corner(self):
        Aop = M.dual_numbers_category(F).opposite()
        mop = right_ideal_module(Aop, Aop.idempotents["X1"])
        assert sorted(Aop.space.label_of(k) for k in mop.basis_keys()) == [
            "e1", "eps", "u"]

    def test_free_quiver_hom_dims(self):
        B = M.free_quiver_category(F, 4)
        assert B.validate().ok
        by_wt = {}
        for k in B.basis_keys():
            assert k[0] == 0
            by_wt[k[1]] = by_wt.get(k[1], 0) + 1
        assert by_wt == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}
        m = right_ideal_module(B, B.idempotents["Y1"])
        assert len(m.basis_keys()) == 1

    def test_path_algebras(self):
        P2 = M.path_chain_algebra(F, 2)
        P3 = M.path_chain_algebra(F, 3)
        assert P2.space.total_dim() == 3
        assert P3.space.total_dim() == 6
        assert P2.validate().ok and P3.validate().ok

    def test_sum_of_simples(self):
        P3 = M.path_chain_algebra(F, 3)
        s = M.sum_of_simples(P3, ["O1", "O2", "O3"])
        assert len(s.basis_keys()) == 3
        assert s.validate().ok


class TestRandomDiagram:
    def test_random_diagrams_validate(self):
        for seed in range(20):
            cat, diag = M.random_diagram(seed, F)
            rep = diag.validate()
            assert rep.ok, (seed, rep.violations[:2])

    def test_deterministic(self):
        c1, d1 = M.random_diagram(11, F)
        c2, d2 = M.random_diagram(11, F)
        assert sorted(c1.arrows) == sorted(c2.arrows)
        for o in c1.objects:
            assert (d1.algebras[o].space.total_dim()
                    == d2.algebras[o].space.total_dim())

    def test_varied_shapes(self):
        shapes = set()
        for seed in range(20):
            cat, diag = M.random_diagram(seed, F)
            shapes.add(tuple(sorted(
                diag.algebras[o].space.total_dim() for o in cat.objects)))
        assert len(shapes) >= 3


class TestRegistry:
    def test_concrete_names_build(self):
        for name in ["dual_numbers", "dual_numbers_op", "koszul_kx",
                     "adic_kx_4", "square_zero_kx2", "free_category",
                     "triangular_12", "triangular_123"]:
            sc = M.build_scenario(name)
            assert sc["kind"]
            assert "expected" in sc

    def test_adic_param_parsing(self):
        sc = M.build_scenario("adic_kx_3")
        assert sc["tower"].depth == 3
        assert sc["expected"]["h0_total"] == 3
        assert sc["expected"]["quotient_dims"] == [1, 2, 3]

    def test_opposite_scenario_scales_with_cap(self):
        for wmax in (3, 5):
            sc = M.build_scenario("dual_numbers_op", params={"wmax": wmax})
            want = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1}
            want.update({(0, -n): 1 for n in range(1, wmax + 1)})
            assert sc["expected"]["h_dims"] == want

    @pytest.mark.parametrize("name", ["triangular_12", "triangular_123"])
    def test_triangular_completion_matches_the_registry(self, name):
        sc = M.build_scenario(name)
        cap = sc["caps"][1]
        dlo, dhi = sc["window"]
        r = double_centralizer(sc["algebra"], sc["module"], sc["caps"])
        h = r.cohomology(Window(dlo, dhi, cap))
        cells = [(d, w) for d in range(dlo, dhi + 1)
                 for w in range(-cap, cap + 1)]
        assert all(h.certificate.exact_at(*c) for c in cells)
        h0 = sum(h.dim(d, w) for d, w in cells if d == 0)
        other = sum(h.dim(d, w) for d, w in cells if d != 0)
        assert (h0, other) == (sc["expected"]["h0_total"],
                               sc["expected"]["h_other"])

    @pytest.mark.parametrize("name", ["triangular_12", "triangular_123"])
    def test_completion_along_the_simples(self, name):
        """Completing along the set of simples is completing along their
        sum: the path algebra again, certified in every cell."""
        sc = M.build_scenario(name)
        a, cap = sc["algebra"], sc["caps"][1]
        dlo, dhi = sc["window"]
        win = Window(dlo, dhi, cap)
        simples = [M.simple_module(a, o) for o in a.idempotents]
        h = completion_along_set(a, simples, sc["caps"]).cohomology(win)
        cells = list(win.grid())
        assert all(h.certificate.exact_at(*c) for c in cells)
        h0 = sum(h.dim(d, w) for d, w in cells if d == 0)
        other = sum(h.dim(d, w) for d, w in cells if d != 0)
        assert (h0, other) == ({"triangular_12": 3, "triangular_123": 6}[name], 0)
        hs = double_centralizer(a, sc["module"], sc["caps"]).cohomology(win)
        assert [(h.dim(*c), h.certificate.exact_at(*c)) for c in cells] == \
            [(hs.dim(*c), hs.certificate.exact_at(*c)) for c in cells]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            M.build_scenario("nope")
