"""Model library: rings, towers, resolutions, duality, example registry."""
import hashlib
import itertools

import pytest

from dgcomplete.linalg import RATIONALS as F, Field
from dgcomplete.graded import Window
from dgcomplete.dg import DgModule, SemiFree, regular_module, right_ideal_module
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


class TestAdicTower:
    def test_xy_tower_dims(self):
        ring = M.truncated_poly(F, ["x", "y"], ["x*y"], wmax=3)
        tw = M.adic_tower(ring, ["x", "y"], 3)
        assert [r.algebra.space.total_dim() for r in tw.rings] == [1, 3, 5]
        assert tw.warnings == []
        assert tw.rings[0].algebra.space.total_dim() == 1

    def test_diagram_validates(self):
        ring = M.truncated_poly(F, ["x", "y"], ["x*y"], wmax=3)
        cat, diag = M.adic_tower(ring, ["x", "y"], 3).diagram()
        assert diag.validate().ok
        # deepest quotient sits at the initial object
        assert diag.algebras[0].space.total_dim() == 5

    def test_cap_artifact_warns_and_stabilizes(self):
        ring = M.truncated_poly(F, ["x"], [], wmax=3)
        tw = M.adic_tower(ring, ["x"], 5)
        assert [r.algebra.space.total_dim() for r in tw.rings] == [1, 2, 3, 4, 4]
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
            assert M._d_squared_fault(ring, M.free_resolution(ring, 0)) is None

    def test_periodic_d_squared(self):
        for t in (2, 3, 4):
            ring = M.truncated_poly(F, ["x"], [f"x^{t}"])
            assert M._d_squared_fault(ring, M.free_resolution(ring, 6)) is None

    def test_periodic_weights(self):
        """k's resolution over k[x]/(x^3), and the socle's, k at the weight
        2 of x^2: the same generators two weights heavier."""
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        p = M.free_resolution(ring, 4)
        assert list(zip(p.degs, p.wts)) == [
            (0, 0), (-1, 1), (-2, 3), (-3, 4), (-4, 6)]
        s = M.dual_model(ring, M.free_resolution(ring, 2))[0]
        assert list(zip(s.degs, s.wts)) == [(0, 2), (-1, 3), (-2, 5)]

    def test_resolution_computes_residue_field(self):
        ring = M.truncated_poly(F, ["x"], ["x^2"])
        p = M.free_resolution(ring, 5)
        mod = M.realize_module(ring, p)
        assert mod.validate().ok
        h = hdims(mod.complex, -5, 1, 8)
        # k in degree 0 plus the truncation syzygy below the certified
        # degrees, which start at 1 - length
        assert h[(0, 0)] == 1
        assert all(d >= -4 or d == -5 for (d, w) in h)
        assert {(d, w): v for (d, w), v in h.items() if d > -5} == {(0, 0): 1}

    def test_koszul_computes_residue_field(self):
        ring = M.truncated_poly(F, ["x", "y"], [], wmax=5)
        mod = M.realize_module(ring, M.free_resolution(ring, 0))
        h = hdims(mod.complex, -2, 1, 4)
        assert h == {(0, 0): 1}

    def test_periodic_refuses_the_field(self):
        """A ring spanned by 1 is the field, whose k resolves in length 0,
        even where a relation above degree 1 survives under the cap: it is
        not periodic, and infin_ext_check certifies its whole window, where
        a periodic ring's cut at length 0 certifies no degree."""
        x2 = M.truncated_poly(F, ["x"], ["x^2"])
        assert M._periodic(x2)
        for ring in (M.truncated_poly(F, [], []),
                     M.truncated_poly(F, ["x"], ["x"]),
                     M.truncated_poly(F, ["x"], ["x^2"], wmax=0)):
            assert not M._periodic(ring)
            rep = M.infin_ext_check(ring, window=(0, 0), length=0)
            assert rep["certified_degrees"] == {1: [0, 0], 2: [0, 0]}
        rep = M.infin_ext_check(x2, window=(0, 0), length=0)
        assert rep["certified_degrees"] == {1: [1, -1], 2: [1, -1]}

    def test_negative_lengths_are_refused(self):
        """free_resolution refuses a negative length, also where k has a
        finite resolution and the build would reach it anyway."""
        r3 = M.truncated_poly(F, ["x"], ["x^3"])
        for build in (lambda: M.free_resolution(r3, -1),
                      lambda: M.free_resolution(M.truncated_poly(F, ["x"], [], wmax=3), -1)):
            with pytest.raises(ValueError, match="resolution length must be non-negative"):
                build()

    def test_free_resolution_dispatch(self):
        assert M.free_resolution(M.truncated_poly(F, [], []), 3).labels
        assert M.free_resolution(M.truncated_poly(F, ["x"], [], wmax=4), 3).labels
        assert M.free_resolution(M.truncated_poly(F, ["x"], ["x^2"]), 3).labels
        # a ring spanned by 1 is the field, whether by relation or by cap
        for ring in (M.truncated_poly(F, ["x"], ["x"]),
                     M.truncated_poly(F, ["x", "y"], [], wmax=0)):
            assert len(M.free_resolution(ring, 3).labels) == 1
        # x*y is no pure power, and k still resolves: over k[x,y]/(x,y)^2
        # the resolution is linear, with 2^i generators at length i
        p = M.free_resolution(
            M.truncated_poly(F, ["x", "y"], ["x^2", "x*y", "y^2"]), 3)
        assert sorted(zip(p.degs, p.wts), reverse=True) == [
            (-i, i) for i in range(4) for _ in range(2 ** i)]

    @pytest.mark.parametrize("variables,relations,wmax,length", [
        (["x", "y"], ["x^2", "y^2"], None, 6),
        (["x", "y"], ["x^3", "y^2"], None, 6),
        (["x", "y", "z"], ["x^2", "y^2", "z^2"], None, 4),
        (["x", "y"], ["x^2", "x*y", "y^2"], None, 6),
        (["x", "y"], ["x*y"], 4, 6),
    ])
    def test_complete_intersections_resolve_the_residue_field(
            self, variables, relations, wmax, length):
        """k's resolution over monomial complete intersections and over two
        rings that are none: d² = 0, and H = k at (0, 0) in every weight up
        to the length, where every generator was built."""
        ring = M.truncated_poly(Field(32003), variables, relations, wmax=wmax)
        p = M.free_resolution(ring, length)
        assert M._d_squared_fault(ring, p) is None
        cx = M._realize(ring, p)[0]
        h = cx.cohomology(window=Window(-length - 1, 1, length), wmax=length)
        assert h.dims_by_cell() == {(0, 0): 1}

    @pytest.mark.parametrize("powers,length", [
        ([2], 5), ([2, 2], 4), ([3, 2], 6), ([2, None], 3), ([2, 3, 2], 4),
    ])
    def test_generators_are_the_cut_index_tuples_in_order(self, powers, length):
        """Over k[x_i]/(x_i^t_i), with a free variable (t None) under the cap
        8, k's resolution has in each weight up to the cap one generator per
        index tuple whose indices sum to at most the length (a free
        variable's index is 0 or 1), at the tuple's bidegree (-Σj, Σ w(j)),
        w(j) = (j // 2)·t + j % 2, and P lists them by length, then weight."""
        variables = ["x", "y", "z"][:len(powers)]
        ring = M.truncated_poly(F, variables, [f"{v}^{t}" for v, t in
                                               zip(variables, powers) if t],
                                wmax=None if all(powers) else 8)
        ranges = [range(length + 1) if t else range(2) for t in powers]
        kept = [js for js in itertools.product(*ranges) if sum(js) <= length]
        want = sorted(((-sum(js), sum((j // 2) * (t or 0) + j % 2
                                      for j, t in zip(js, powers)))
                       for js in kept), key=lambda b: (-b[0], b[1]))
        p = M.free_resolution(ring, length)
        assert [(d, w) for d, w in zip(p.degs, p.wts)
                if ring.wmax is None or w <= ring.wmax] == want

    @pytest.mark.parametrize("spec", [(["x"], ["x^3"], None), (["x", "y"], [], 4),
                                      ([], [], None)], ids=lambda s: f"{s[0]}/{s[1]}|{s[2]}")
    def test_the_ring_keeps_k(self, spec, monkeypatch):
        """free_resolution builds k once per ring, and k's kept build serves
        every later call: lengths asked in any order are a fresh ring's
        answers, and a returned P is the caller's to edit."""
        def columns(p):
            return [getattr(p, name) for name in SemiFree.__slots__]

        lengths = (6, 4, 8, 6)
        fresh = [columns(M.free_resolution(M.truncated_poly(F, *spec), n)) for n in lengths]
        ring = M.truncated_poly(F, *spec)
        built = []
        init = DgModule.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DgModule, "__init__", counted)
        for n, want in zip(lengths, fresh):
            p = M.free_resolution(ring, n)
            assert columns(p) == want, n
            for column in columns(p):
                column.insert(0, None)
        assert [m.name for m in built] == ["k"]

    def test_complete_intersections_have_no_built_in_dual_model(self, monkeypatch):
        """dual_model refuses a ring of two variables with relations, and
        infin_ext_check refuses it before it resolves anything."""
        ring = M.truncated_poly(F, ["x", "y"], ["x^2", "y^2"])
        p = M.free_resolution(ring, 4)
        with pytest.raises(ValueError,
                           match=r"no built-in dual model of k over k\[x,y\]"):
            M.dual_model(ring, p)
        monkeypatch.setattr(M, "free_resolution", lambda *args: pytest.fail("built"))
        with pytest.raises(ValueError, match="no built-in dual model"):
            M.infin_ext_check(ring, window=(-2, 2), length=4)


class TestFreeComplexOps:
    """Duals, tensors and maps of free complexes, all in the flat layout of
    ``dg.SemiFree``; a map is its four lists plus its degree."""

    def setup_method(self):
        self.ring = M.truncated_poly(F, ["x"], ["x^2"])
        self.p = M.free_resolution(self.ring, 4)

    def test_dual_d_squared(self):
        d = M._dual(self.ring, self.p)
        assert M._d_squared_fault(self.ring, d) is None
        assert M._d_squared_fault(self.ring, M._dual(self.ring, d)) is None

    def test_tensor_d_squared_and_tor(self):
        t2 = M._tensor(self.ring, self.p, self.p)
        assert M._d_squared_fault(self.ring, t2) is None
        h = hdims(M.realize_module(self.ring, t2).complex, -3, 0, 10)
        # Tor of the residue field with itself: one class per degree
        for j in range(0, 4):
            assert h[(-j, j)] == 1

    def test_to_complex_is_the_complex_of_to_module(self):
        kxy = M.truncated_poly(F, ["x", "y"], [], wmax=4)
        for ring, fc in ((kxy, M.free_resolution(kxy, 0)), (self.ring, self.p),
                         (self.ring, M._tensor(self.ring, self.p, self.p))):
            assert (_complex_snapshot(M._realize(ring, fc)[0])
                    == _complex_snapshot(M.realize_module(ring, fc).complex))

    def test_lacing_is_a_chain_map(self):
        def lacing_fault(ring, a, b):
            return M._chain_fault(
                ring, M._lacing(ring, a, b),
                M._tensor(ring, M._dual(ring, a), M._dual(ring, b)),
                M._dual(ring, M._tensor(ring, a, b)))

        assert lacing_fault(self.ring, self.p, self.p) is None
        r3 = M.truncated_poly(F, ["x"], ["x^3"])
        q = M.free_resolution(r3, 4)
        assert lacing_fault(r3, q, q) is None
        assert lacing_fault(r3, M._tensor(r3, q, q), q) is None

    def test_biduality_is_a_chain_map(self):
        ring = self.ring
        t2 = M._tensor(ring, self.p, self.p)
        phi = M._biduality(ring, t2)
        assert M._chain_fault(ring, phi, t2, M._dual(ring, M._dual(ring, t2))) is None

    def test_free_map_compose_and_tensor(self):
        ring, p = self.ring, self.p
        n = len(p.labels)
        ident = M._identity(ring, p)
        assert M._chain_fault(ring, ident, p, p) is None
        assert M._chain_fault(ring, M._compose(ring, ident, ident, n, n), p, p) is None
        p2 = M._tensor(ring, p, p)
        assert M._chain_fault(ring, M._tensor_map(ring, ident, ident, p.degs, n, n),
                              p2, p2) is None
        # and a map that is no chain map is caught
        assert M._chain_fault(ring, M._diagonal(ring, [d == -1 for d in p.degs]),
                              p, p) is not None

    def test_free_map_dual(self):
        ring = self.ring
        pprime, rho, pd = M.dual_model(ring, self.p)
        assert M._chain_fault(ring, rho, pprime, pd) is None
        assert M._chain_fault(ring, M._transpose(ring, rho, pd), M._dual(ring, pd),
                              M._dual(ring, pprime)) is None

    def test_realize_checks_the_bidegree_of_each_entry(self):
        """realize checks each entry of the map once: x·p0 from p1 keeps
        the bidegree of a differential, and the same entry of a degree-0
        map, or 1·p0 from p1, is off by one and raises ValueError."""
        ring, p = self.ring, self.p
        real = M._realize(ring, p)
        d = M._realize_map(ring, ([1], [0], [1], [F.one], 1), p, p, real, real)
        assert d.blocks[(-1, 1)].entries == {(0, 0): F.one}
        for kid, deg in ((1, 0), (0, 1)):
            with pytest.raises(ValueError, match="bidegree"):
                M._realize_map(ring, ([1], [0], [kid], [F.one], deg), p, p, real, real)

    def test_banded_realize_checks_entries_outside_the_band(self):
        """On a band realize writes only the band's generators, but still
        checks the bidegree of every entry of the map."""
        ring, p = self.ring, self.p
        real = M._realize(ring, p, (-1, 0))
        sp = real[0].space
        assert ({lab[:-1] for lbls in sp.cells.values() for lab in lbls}
                == {p.labels[0], p.labels[1]})
        good = ([3], [2], [1], [F.one], 1)
        assert M._realize_map(ring, good, p, p, real, real).blocks == {}
        with pytest.raises(ValueError, match="bidegree"):
            M._realize_map(ring, ([3], [2], [0], [F.one], 1), p, p, real, real)


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
        # k, whose minimal resolution is P; every complex after it is free
        assert [m.name for m in built] == ["k"]
        # a second call reads what the ring keeps
        assert M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2) == rep
        assert [m.name for m in built] == ["k"]
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
        """Every complex is a SemiFree, built once: the band each
        realization cuts is not counted, and P is the cut of the whole
        build k keeps.  The ring keeps them, so a second call builds none
        outside the realizations."""
        r = M.truncated_poly(F, ["x"], ["x^3"])
        built = []
        init = SemiFree.__init__
        realize = M._realize

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        def uncounted(ring, p, band=None):
            before = len(built)
            out = realize(ring, p, band)
            del built[before:]
            return out

        monkeypatch.setattr(SemiFree, "__init__", counted)
        monkeypatch.setattr(M, "_realize", uncounted)
        M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        # k's whole build, P, P^, P^^, P', P'^, P⊗P, (P⊗P)^, (P⊗P)^^,
        # P'⊗P', (P'⊗P')^
        assert len(built) <= 11
        built.clear()
        M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        assert built == []

    def test_checks_run_once_when_each_structure_is_built(self, monkeypatch):
        """A sign flipped in P⊗P fails the comparison's chain check, and the
        power that failed is not kept: with the tensor mended, the next call
        equals a fresh ring's.  A second identical call runs no d² or
        chain-map check and realizes nothing; a call at a new band or a new
        length realizes each complex and map once more, and each
        realization still checks the bidegree of each term."""
        spec, run = (["x", "y"], [], 4), {"window": (-2, 2), "length": 4}
        ring = M.truncated_poly(F, *spec)
        tensor = M._tensor
        flipped = []

        def flip_first(ring, p, q):
            out = tensor(ring, p, q)
            if not flipped:  # P⊗P, the first tensor built
                flipped.append(out)
                out.coef[0] = ring.field.neg(out.coef[0])
            return out

        monkeypatch.setattr(M, "_tensor", flip_first)
        with pytest.raises(RuntimeError, match="comparison map is not a chain map"):
            M.infin_ext_check(ring, **run)
        assert flipped and len(ring._powers[4]) == 1
        monkeypatch.setattr(M, "_tensor", tensor)
        fresh = M.infin_ext_check(M.truncated_poly(F, *spec), **run)
        assert M.infin_ext_check(ring, **run) == fresh

        others = {(window, length): M.infin_ext_check(M.truncated_poly(F, *spec),
                                                      window=window, length=length)
                  for window, length in (((-1, 1), 4), ((-2, 2), 6))}
        calls = {}

        def counted(name):
            inner = getattr(M, name)

            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args)
            monkeypatch.setattr(M, name, call)

        for name in ("_d_squared_fault", "_chain_fault", "_check_map", "_realize",
                     "_realize_map"):
            counted(name)
        assert M.infin_ext_check(ring, **run) == fresh
        assert calls == {}
        for (window, length), other in others.items():
            calls.clear()
            assert M.infin_ext_check(ring, window=window, length=length) == other
            # three complexes and two maps per power
            assert calls["_realize"] == 6 and calls["_realize_map"] == 4
            assert calls["_check_map"] == 10
        assert "_chain_fault" in calls  # the new length builds its powers

    def test_a_power_that_fails_d_squared_is_refused(self, monkeypatch):
        """Over k[x]/(x^3) a sign flipped in P⊗P passes both chain-map
        checks but breaks d² on P⊗P, so the call raises and keeps no
        power past P."""
        ring = M.truncated_poly(F, ["x"], ["x^3"])
        tensor = M._tensor
        flipped = []

        def flip_first(ring, p, q):
            out = tensor(ring, p, q)
            if not flipped:  # P⊗P, the first tensor built
                flipped.append(out)
                out.coef[0] = ring.field.neg(out.coef[0])
            return out

        monkeypatch.setattr(M, "_tensor", flip_first)
        with pytest.raises(RuntimeError, match="fails d-squared"):
            M.infin_ext_check(ring, window=(-3, 3), length=6)
        assert flipped and len(ring._powers[6]) == 1

    def test_a_capped_power_reads_as_the_smaller_power(self):
        """k[x]/(x^5) under the weight cap 2 is the algebra k[x]/(x^3): its
        socle is x^2, and its tables are k[x]/(x^3)'s."""
        capped = M.infin_ext_check(M.truncated_poly(F, ["x"], ["x^5"], wmax=2),
                                   window=(-3, 3), length=6)
        power = M.infin_ext_check(M.truncated_poly(F, ["x"], ["x^3"]),
                                  window=(-3, 3), length=6)
        assert capped["tables"] == power["tables"]
        assert capped["certified_degrees"] == power["certified_degrees"]

    @pytest.mark.parametrize("n_check", [0, 1, -2])
    def test_too_few_tensor_powers_are_refused(self, n_check, monkeypatch):
        """The verdict compares the powers from 2 on, so n_check below 2,
        which once compared nothing and called it an isomorphism, raises
        before anything is built."""
        monkeypatch.setattr(M, "free_resolution", lambda *args: pytest.fail("built"))
        with pytest.raises(ValueError, match="n_check must be at least 2"):
            M.infin_ext_check(M.truncated_poly(F, ["x"], ["x^3"]),
                              window=(-2, 2), length=4, n_check=n_check)

    def test_an_empty_window_is_refused_before_any_build(self, monkeypatch):
        monkeypatch.setattr(M, "free_resolution", lambda *args: pytest.fail("built"))
        for window in ((1, 0), (0, -1), (2, -2)):
            with pytest.raises(ValueError, match="empty window"):
                M.infin_ext_check(M.truncated_poly(F, ["x"], ["x^3"]),
                                  window=window, length=4)

    @staticmethod
    def _digest(reports):
        text = "".join(repr(sorted(rep.items(), key=str)) for rep in reports)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_reports_pinned_over_a_prime_field(self):
        """The benchmark's shapes and the free lines, over GF(32003) and
        over QQ; every entry of a report is an integer, so the two digests
        are one."""
        for field, digest in (
                (Field(32003),
                 "d1ddec90717420510b542bc3932a1535c6fa36e7a278f3136f8a8ec98ea07396"),
                (F, "d1ddec90717420510b542bc3932a1535c6fa36e7a278f3136f8a8ec98ea07396")):
            reports = [M.infin_ext_check(M.truncated_poly(field, ["x"], [f"x^{t}"]),
                                         window=(-3, 3), length=6)
                       for t in range(2, 7)]
            reports += [M.infin_ext_check(M.truncated_poly(field, vs, [], wmax=4),
                                          window=(-2, 2), length=4)
                        for vs in (["x"], ["x", "y"])]
            assert self._digest(reports) == digest, field

    # the window's band and the whole complex, on rings, windows and
    # lengths the benchmark's infin_ext jobs do not draw
    BANDED = ([(["x"], [f"x^{t}"], None) for t in range(2, 7)]
              + [(["x"], [], 4), (["x", "y"], [], 4), ([], [], None)])
    BANDED_RUNS = [(w, length, n) for w in (2, 4) for length in (2 * w, 2 * w + 2)
                   for n in ((2, 3) if w == 2 and length == 4 else (2,))]

    def test_banded_shapes_keep_their_pinned_reports(self):
        """Every report of the BANDED shapes, the field k and n_check 3
        among them, over GF(32003)."""
        reports = [M.infin_ext_check(M.truncated_poly(Field(32003), *spec),
                                     window=(-w, w), length=length, n_check=n)
                   for spec in self.BANDED for w, length, n in self.BANDED_RUNS]
        assert self._digest(reports) == (
            "541fe2390b19811a272bfb99952f2d47e85f44418fbbdcef95de4ac41f76bc80")

    # the closed form of the certified degrees: the rings with and without
    # a power above 1, every window -3 <= lo <= 0 <= hi <= 2, three lengths
    CERTIFIED = [([], [], None), (["x"], ["x"], None), (["x"], [], 4),
                 (["x", "y"], [], 3)] + [(["x"], [f"x^{t}"], None) for t in (2, 3, 5)]

    @pytest.mark.parametrize("spec", CERTIFIED, ids=lambda s: f"{s[0]}/{s[1]}|{s[2]}")
    def test_certified_degrees_follow_the_closed_form(self, spec):
        """[max(lo, 1 - length), min(hi, length - 1)] at every n when some
        relation is a power above 1, the window [lo, hi] otherwise."""
        ring = M.truncated_poly(F, *spec)
        periodic = any(max(rel) > 1 for rel in ring.relations)
        for lo in range(-3, 1):
            for hi in range(0, 3):
                for length in range(2 * max(-lo, hi), 2 * max(-lo, hi) + 3):
                    rep = M.infin_ext_check(ring, window=(lo, hi), length=length)
                    want = ([max(lo, 1 - length), min(hi, length - 1)] if periodic
                            else [lo, hi])
                    assert rep["certified_degrees"] == {1: want, 2: want}, (lo, hi, length)

    @pytest.mark.parametrize("spec", BANDED, ids=lambda s: f"{s[0]}/{s[1]}|{s[2]}")
    def test_banded_reports_equal_whole_ones(self, spec, monkeypatch):
        """infin_ext_check realizes only the generators of degree lo-1..hi+1;
        its reports equal those built from the whole complexes, on a second
        ring, since a ring keeps what it realized."""
        rings = [M.truncated_poly(Field(32003), *spec) for _ in range(2)]
        runs = self.BANDED_RUNS
        banded = [M.infin_ext_check(rings[0], window=(-w, w), length=length, n_check=n)
                  for w, length, n in runs]
        whole = M._realize
        monkeypatch.setattr(M, "_realize", lambda ring, p, band=None: whole(ring, p))
        assert banded == [M.infin_ext_check(rings[1], window=(-w, w), length=length,
                                            n_check=n) for w, length, n in runs]

    # (window half-width, length, n_check) asked of one ring in turn:
    # n_check 2 -> 3 -> 2, lengths 6 -> 4 -> 8 -> 6 -> 2 -> 0, windows ±1,
    # ±2, ±3 and 0; at length 4 a band widens, and the band of window 0
    # is asked at lengths 2 and 0, whose resolutions differ in it
    KEPT_RUNS = [(3, 6, 2), (3, 6, 3), (3, 6, 2), (1, 4, 2), (2, 4, 2), (2, 8, 2),
                 (2, 6, 2), (1, 6, 2), (2, 6, 2), (3, 6, 2), (0, 2, 2), (0, 0, 2)]

    @pytest.mark.parametrize("field", [F, Field(32003)], ids=["QQ", "GF(32003)"])
    @pytest.mark.parametrize("spec", [(["x"], [f"x^{t}"], None) for t in range(2, 7)]
                             + [(["x"], ["x^5"], 2), (["x", "y"], [], 4), ([], [], None)],
                             ids=lambda s: f"{s[0]}/{s[1]}|{s[2]}")
    def test_kept_reports_equal_fresh_ones(self, field, spec):
        """Each report read off what one ring keeps, at every length,
        window and n_check in turn, equals the report of a fresh ring.
        Inside the window the tables do not depend on the length; the
        capped power's ``certified_weight_max`` does, through the lightest
        generator of the powers' duals."""
        ring = M.truncated_poly(field, *spec)
        for w, length, n in self.KEPT_RUNS:
            fresh = M.infin_ext_check(M.truncated_poly(field, *spec), window=(-w, w),
                                      length=length, n_check=n)
            assert M.infin_ext_check(ring, window=(-w, w), length=length,
                                     n_check=n) == fresh, (w, length, n)

    @pytest.mark.parametrize("t", [2, 5])
    def test_banded_cohomology_is_certified_on_the_window_only(self, t):
        """On the band (lo-1, hi+1) the cohomology equals the whole
        complex's, certified, on every cell of degree lo..hi, and no held
        cell of degree lo-1 or hi+1 is certified."""
        ring = M.truncated_poly(Field(32003), ["x"], [f"x^{t}"])
        p = M.free_resolution(ring, 8)
        p2 = M._tensor(ring, p, p)
        lo, hi = -2, 2
        for c in (p2, M._dual(ring, M._dual(ring, p2)), M._dual(ring, p)):
            whole = M._realize(ring, c)[0].cohomology(Window(lo, hi, 40))
            banded = M._realize(ring, c, (lo - 1, hi + 1))[0].cohomology(Window(lo, hi, 40))
            for d, w in Window(lo, hi, 40).grid():
                assert banded.dim(d, w) == whole.dim(d, w)
                assert banded.certificate.exact_at(d, w)
                assert whole.certificate.exact_at(d, w)
            edges = [cell for cell in banded.space.cells if cell[0] in (lo - 1, hi + 1)]
            assert edges and not any(banded.certificate.exact_at(*e) for e in edges)

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

    def test_products_of_monomials_read_the_ring_table(self, monkeypatch):
        """Once the ring exists, every product of monomials the check
        makes, in composites, tensors of maps and the realizations,
        is a lookup in the ring's product table."""
        r = M.truncated_poly(Field(32003), ["x"], ["x^3"])
        calls = []
        mul = M._mono_mul

        def counted(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(M, "_mono_mul", counted)
        rep = M.infin_ext_check(r, window=(-3, 3), length=6, n_check=2)
        assert rep["tables"][2]["left"] and calls == []

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
                     "adic_kx_4", "free_category",
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
