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

from dgcomplete.linalg import RATIONALS as F
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


@ORIGIN
def test_completion_limit_and_ring_agree_along_the_origin(variables, cap):
    ring = polynomial_ring(variables)
    n = len(variables)
    window = Window(-1, 1, cap)
    monomials = {(d, w): comb(w + n - 1, n - 1) if d == 0 and w >= 0 else 0
                 for d, w in window.grid()}
    completion = double_centralizer(ring.algebra, ring.residue_module(),
                                    (cap, cap))
    hl, _ = tower_limit(ring, variables, cap + 1)
    for h in (completion.cohomology(window), hl.complex.cohomology(window)):
        dims = certified(h, window)
        assert all((0, w) in dims for w in range(cap + 1))
        assert dims == {c: monomials[c] for c in dims}


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
