"""The paper's Noetherian case: for R = k[x_1..x_n], graded by total degree,
categorical completion recovers the ordinary I-adic completion.

Two computations of the completion are compared with the ring itself, weight
by weight, on the cells their certificates vouch for: the derived double
centralizer of the residue field k = R/(x_1..x_n), and the homotopy limit of
the adic tower R/I, R/I^2, ...  At the level of maps, the cone of
projections R -> R/I^k induces an isomorphism from R onto H^0 of the limit
below the tower's depth.

Along a coordinate ideal only the limit is compared.  The double
centralizer of R/(x) over k[x,y] cannot be certified by finite enumeration:
its inner algebra Ext_R(R/(x), R/(x)) = k[y] ⊗ Λ[ε] has weights of both
signs and weight-0 classes outside degree 0, so the reduced outer bar is
refused and the completion fails at once with an error that says so
(ROADMAP item 3).
"""
import time
from math import comb

import pytest

from dgcomplete.linalg import RATIONALS as F, SparseMatrix
from dgcomplete.graded import Window, induced_rank
from dgcomplete import holim as H
from dgcomplete import models as M
from dgcomplete.complete import double_centralizer

WMAX = 6
ORIGIN = pytest.mark.parametrize("variables, cap", [
    (["x"], 3), (["x", "y"], 3), (["x", "y", "z"], 2),
], ids=["kx", "kxy", "kxyz"])


def polynomial_ring(variables):
    return M.truncated_poly(F, variables, [], wmax=WMAX)


def certified(h, window):
    return {c: h.dim(*c) for c in window.grid() if h.certificate.exact_at(*c)}


def tower_limit(ring, gens, depth):
    """holim of R/I, ..., R/I^depth and the map into it from the cone of
    projections R -> R/I^k."""
    tower = M.adic_tower(ring, gens, depth)
    hl = H.holim(tower.diagram()[1], dmax=1)
    projections = {i: ring.projection_to(tower.rings[depth - i - 1]).map
                   for i in range(depth)}
    return hl, H.holim_map_from_compatible_system(hl, ring.algebra, projections)


@pytest.mark.parametrize("variables, relations, cap, inner", [
    (["x"], [], 3, "witness"), (["x", "y"], [], 3, "minimal"),
    (["x", "y", "z"], [], 2, "minimal"),
    (["x", "y"], ["x*y"], 3, "minimal"),
    (["x", "y"], ["x^2", "x*y"], 3, "minimal"),
    (["x", "y", "z"], ["x*y", "y*z", "x*z"], 3, "minimal"),
    (["x", "y"], ["x^3"], 3, "bar"),
    (["x", "y"], ["x^2*y"], 3, "bar"),
], ids=["kx", "kxy", "kxyz", "kxy/(xy)", "kxy/(x2,xy)", "kxyz/(xy,yz,xz)",
        "kxy/(x3)", "kxy/(x2y)"])
def test_completion_limit_and_ring_agree_along_the_origin(
        variables, relations, cap, inner):
    """Both routes give the ring's own dimension per weight, its monomial
    count, on every cell they certify, over polynomial rings and over
    monomial rings that are not (ROADMAP item 18).  The inner model each
    completion takes is pinned too: the last two rings fail the purity
    check (η off the line over k[x]/(x^3)) and take the bar model."""
    ring = M.truncated_poly(F, variables, relations, wmax=WMAX)
    window = Window(-1, 1, cap)
    monomials = {(d, w): ring.algebra.space.dim(d, w) for d, w in window.grid()}
    completion = double_centralizer(ring.algebra, ring.residue_module(),
                                    (cap, cap))
    assert completion.inner_used == inner
    hl, _ = tower_limit(ring, variables, cap + 1)
    for h in (completion.cohomology(window), hl.complex.cohomology(window)):
        dims = certified(h, window)
        assert all((0, w) in dims for w in range(cap + 1))
        assert dims == {c: monomials[c] for c in dims}


@pytest.mark.parametrize("variables, cap, ranks", [
    (["x", "y"], 4, [3, 4, 5]), (["x", "y", "z"], 3, [6, 10]),
], ids=["kxy", "kxyz"])
def test_the_completion_along_the_origin_is_the_polynomial_ring(
        variables, cap, ranks):
    """The theorem as rings (ROADMAP item 18): H^0 of the completion, with
    the product p∘μ∘(i⊗i) of its classes, is commutative and generated in
    weight 1, where every compared cell is certified.  A commutative graded
    algebra generated by n classes of weight 1 whose Hilbert function is
    C(w+n-1, n-1) is k[x_1..x_n] in those weights, and the dimensions are
    the monomial counts."""
    n = len(variables)
    ring = M.truncated_poly(F, variables, [], wmax=cap + 2)
    res = double_centralizer(ring.algebra, ring.residue_module(), (cap, cap))
    h = res.cohomology(Window(0, 0, cap))
    assert all(h.certificate.exact_at(0, w) for w in range(cap + 1))
    assert [h.dim(0, w) for w in range(cap + 1)] == [
        comb(w + n - 1, n - 1) for w in range(cap + 1)]
    reps = h.representatives
    classes = {w: [(0, w, i) for i in range(h.dim(0, w))]
               for w in range(cap + 1)}

    def times(k1, k2):
        return h.project(res.completed.multiply(reps[k1], reps[k2]))

    for x in classes[1]:
        for w in range(cap):
            for y in classes[w]:
                assert times(x, y) == times(y, x), (x, y)
    got = []
    for w in range(2, cap + 1):
        rows = [times(x, y) for x in classes[1] for y in classes[w - 1]]
        span = SparseMatrix(len(rows), h.dim(0, w), F, {
            (r, k[2]): c for r, row in enumerate(rows) for k, c in row.items()})
        got.append(span.rank())
    assert got == ranks == [h.dim(0, w) for w in range(2, cap + 1)]


@ORIGIN
def test_the_cone_of_projections_is_onto_the_limit(variables, cap):
    ring = polynomial_ring(variables)
    depth = cap + 1
    hl, cone = tower_limit(ring, variables, depth)
    assert cone.validate().ok
    h = hl.complex.cohomology(Window(0, 0, WMAX))
    for w in range(WMAX + 1):
        rank = induced_rank(cone.map, ring.algebra.complex, hl.complex, 0, w)
        assert h.certificate.exact_at(0, w)
        assert rank == h.dim(0, w)
        if w < depth:
            assert rank == ring.algebra.space.dim(0, w)


def test_along_a_coordinate_ideal():
    ring = polynomial_ring(["x", "y"])
    hl, cone = tower_limit(ring, ["x"], 3)
    assert cone.validate().ok
    window = Window(-1, 1, WMAX)
    dims = certified(hl.complex.cohomology(window), window)
    for w in range(WMAX + 1):
        assert dims[(0, w)] == min(w + 1, 3)
        assert induced_rank(cone.map, ring.algebra.complex, hl.complex,
                            0, w) == dims[(0, w)]
    assert not any(v for (d, _), v in dims.items() if d != 0)


@pytest.mark.parametrize("cap", [2, 3])
def test_completion_along_a_coordinate_ideal_fails_fast(cap):
    ring = polynomial_ring(["x", "y"])
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="reduced bar") as err:
        double_centralizer(ring.algebra, ring.quotient_module(["x"]),
                           (cap, cap))
    assert time.perf_counter() - t0 < 1.0
    assert "nonzero weights of both signs" in str(err.value)
    degrees = list(range(1, cap + 3))
    assert (f"weight-0 basis elements outside degree 0, in degrees {degrees}"
            in str(err.value))
