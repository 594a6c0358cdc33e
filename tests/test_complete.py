"""Double centralizers: the choice of inner model and the projective path.

A module with the projective witness is K-projective, so its strict
endomorphisms are its derived ones (Yoneda) and the completion takes the
strict inner model; every other module takes the convolution model.  The
outer model is always the reduced bar, so an inner algebra it cannot reduce
over fails at once with an error naming why.
"""
import time

import pytest

from dgcomplete import complete
from dgcomplete import models as M
from dgcomplete.bar import embed_strict, end_algebra, strict_end_algebra
from dgcomplete.dg import (
    DgModule, direct_sum_modules, identity_morphism, regular_module,
    restrict_scalars, right_ideal_module, shift_module,
)
from dgcomplete.graded import Window, induced_rank
from dgcomplete.linalg import RATIONALS as F


def _certified(h, win):
    cells = list(win.grid())
    return [c for c in cells if h.certificate.exact_at(*c)], cells


def test_projective_witness_is_set_only_by_constructors_that_prove_it():
    a = M.path_chain_algebra(F, 2)
    p1 = right_ideal_module(a, a.idempotents["O1"])
    p2 = right_ideal_module(a, a.idempotents["O2"])
    assert regular_module(a).projective == "A"
    assert p1.projective == "e·A"
    assert shift_module(p1, 1).projective == "(e·A)[1]"
    assert direct_sum_modules(p1, p2).projective == "e·A ⊕ e·A"
    s1 = M.simple_module(a, "O1")
    assert s1.projective is None
    assert direct_sum_modules(p1, s1).projective is None
    assert shift_module(s1, 1).projective is None
    assert restrict_scalars(identity_morphism(a), regular_module(a)).projective is None
    assert DgModule(a, p1.complex, p1.action).projective is None


def test_registry_dual_numbers_certifies_its_answer_at_once():
    sc = M.build_scenario("dual_numbers")
    assert sc["caps"] == (6, 6)
    t0 = time.perf_counter()
    r = complete.double_centralizer(sc["algebra"], sc["module"], sc["caps"])
    h = r.cohomology(Window(-2, 3, 6))
    assert time.perf_counter() - t0 < 1.0
    cert, cells = _certified(h, Window(-2, 3, 6))
    assert (len(cert), len(cells)) == (72, 78)
    assert {c: h.dim(*c) for c in cert if h.dim(*c)} == sc["expected"]["h_dims"]
    assert {w for (_, w) in set(cells) - set(cert)} == {-6}


@pytest.mark.parametrize("name,params,cells", [
    ("dual_numbers_op", {"wmax": 3}, 42),
    ("free_category", {"wmax": 4}, 45),
])
def test_projective_completion_certifies_the_registry_answer(name, params, cells):
    sc = M.build_scenario(name, params=params)
    r = complete.double_centralizer(sc["algebra"], sc["module"], sc["caps"])
    win = Window(*sc["window"], params["wmax"])
    h = r.cohomology(win)
    cert, grid = _certified(h, win)
    assert len(cert) == len(grid) == cells
    assert {c: h.dim(*c) for c in cert if h.dim(*c)} == sc["expected"]["h_dims"]


@pytest.mark.parametrize("name,covered", [
    ("dual_numbers", 12), ("dual_numbers_op", 12), ("free_category", 1)])
def test_strict_and_bar_inner_models_agree_where_the_bar_model_certifies(
        name, covered):
    """The strict model of e·A embeds quasi-isomorphically into the
    convolution model on every cell the latter certifies."""
    m = M.build_scenario(name)["module"]
    s = strict_end_algebra(m)
    b = end_algebra(m, 4, w_cap=4)
    hs, hb = s.complex.cohomology(), b.complex.cohomology()
    j = embed_strict(s, b)
    probe = {(d + i, w) for cx in (s.complex, b.complex)
             for (d, w) in cx.space.cells for i in (-1, 0, 1)}
    cells = [c for c in sorted(probe) if hb.certificate.exact_at(*c)]
    assert len(cells) == covered
    for c in cells:
        assert hs.dim(*c) == hb.dim(*c) == induced_rank(
            j, s.complex, b.complex, *c), c


def _registry_completion(name):
    sc = M.build_scenario(name)
    kw = {"inner_caps": sc["inner_caps"]} if "inner_caps" in sc else {}
    return complete.double_centralizer(sc["algebra"], sc["module"],
                                       sc["caps"], **kw)


@pytest.mark.parametrize("name,inner", [
    ("dual_numbers", "strict"), ("dual_numbers_op", "strict"),
    ("free_category", "strict"), ("koszul_kx", "bar"),
    ("triangular_12", "bar"), ("triangular_123", "bar"),
])
def test_registry_completions_keep_their_models(name, inner):
    """koszul_kx completes along k and triangular_* along their simples:
    neither is projective.  Every one keeps the reduced outer scheme."""
    r = _registry_completion(name)
    assert r.inner_used == inner
    assert r.reduced_outer
    assert r.diagnostics["outer"]["budget"] is None
    assert r.diagnostics["strict"]["witness"] == (
        "e·A" if inner == "strict" else None)


@pytest.mark.parametrize("name,strict,end", [
    ("koszul_kx", 0, 2), ("triangular_12", 0, 2), ("dual_numbers_op", 1, 1)])
def test_each_completion_builds_one_inner_model(monkeypatch, name, strict, end):
    calls = {"strict": 0, "end": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(complete, "strict_end_algebra",
                        counted("strict", complete.strict_end_algebra))
    monkeypatch.setattr(complete, "end_algebra",
                        counted("end", complete.end_algebra))
    _registry_completion(name)
    assert calls == {"strict": strict, "end": end}


def test_completion_along_the_algebra_takes_the_strict_model():
    sc = M.build_scenario("triangular_12")
    a = sc["algebra"]
    projectives = [right_ideal_module(a, a.idempotents[o]) for o in a.idempotents]
    win = Window(-2, 2, 4)
    for r in (complete.double_centralizer(a, regular_module(a), sc["caps"]),
              complete.completion_along_set(a, projectives, sc["caps"])):
        assert (r.inner_used, r.reduced_outer) == ("strict", True)
        h = r.cohomology(win)
        cert, _ = _certified(h, win)
        assert all(c[1] > -4 for c in cert) and len(cert) == 40
        assert sum(h.dim(*c) for c in cert if c[0] == 0) == sc["expected"]["h0_total"]
        assert sum(h.dim(*c) for c in cert if c[0] != 0) == 0


def test_right_ideal_of_a_partly_known_algebra_certifies_nothing():
    """e·A knows what A knows.  With the loop's column of A known only up to
    degree 0, the loop at (1, 1) is unknown, and the completion along e·A,
    whose every cell is built from it, certifies no cell."""
    win = Window(-2, 3, 3)
    a = M.dual_numbers_category(F)
    full = complete.double_centralizer(
        a, right_ideal_module(a, a.idempotents["X1"]), (3, 3))
    assert len(_certified(full.cohomology(win), win)[0]) > 0

    a.space.set_known(1, hi=0)
    m = right_ideal_module(a, a.idempotents["X1"])
    assert m.space.column_complete(0) and not m.space.column_complete(1)
    r = complete.double_centralizer(a, m, (3, 3))
    assert r.inner_used == "strict"
    assert r.diagnostics["strict"] == {"witness": "e·A", "module_known": False}
    assert not any(r.inner.complex.cohomology().certificate.status.values())
    assert _certified(r.cohomology(win), win)[0] == []


def test_strict_inner_model_ignores_inner_caps():
    """inner_caps bound only the convolution model, so a projective module
    accepts caps that would be too tight for it and gives the same tables."""
    sc = M.build_scenario("dual_numbers_op")
    a, m = sc["algebra"], sc["module"]
    plain = complete.double_centralizer(a, m, (3, 3)).cohomology()
    capped = complete.double_centralizer(a, m, (3, 3), inner_caps=(3, 3))
    h = capped.cohomology()
    assert capped.inner_used == "strict"
    assert h.dims_by_cell() == plain.dims_by_cell()
    assert h.certificate.status == plain.certificate.status
    with pytest.raises(ValueError, match="clear the outer weight cap"):
        complete.double_centralizer(a, M.simple_module(a, "X1"), (3, 3),
                                    inner_caps=(3, 3))


def test_completion_whose_inner_algebra_has_shifts_at_weight_zero_fails_fast():
    """End(k ⊕ k[1]) over k[x] holds the shift maps at weight 0 in degrees
    ±1, so the reduced outer bar is refused and the error says why."""
    ring = M.truncated_poly(F, ["x"], [], wmax=6)
    k = ring.residue_module()
    m = direct_sum_modules(k, shift_module(k, 1))
    with pytest.raises(ValueError, match="reduced bar") as err:
        complete.double_centralizer(ring.algebra, m, (3, 3))
    assert ("weight-0 basis elements outside degree 0, in degrees [-1, 1]"
            in str(err.value))
    assert "both signs" not in str(err.value)


@pytest.mark.parametrize("name,common", [
    ("triangular_12", 40), ("triangular_123", 35)])
def test_generators_of_one_thick_subcategory_give_one_completion(name, common):
    """The simples, the indecomposable projectives and the algebra itself
    generate the same thick subcategory of a triangular path algebra, so
    completing along each gives the same tables where all three certify:
    the path algebra, n(n+1)/2 paths in degree 0."""
    sc = M.build_scenario(name)
    a = sc["algebra"]
    projectives = [right_ideal_module(a, a.idempotents[o]) for o in a.idempotents]
    results = [complete.double_centralizer(a, sc["module"], sc["caps"]),
               complete.completion_along_set(a, projectives, sc["caps"]),
               complete.double_centralizer(a, regular_module(a), sc["caps"])]
    assert [r.inner_used for r in results] == ["bar", "strict", "strict"]
    win = Window(-2, 2, 4)
    hs = [r.cohomology(win) for r in results]
    cells = [c for c in win.grid() if all(h.certificate.exact_at(*c) for h in hs)]
    assert len(cells) == common
    for c in cells:
        assert hs[0].dim(*c) == hs[1].dim(*c) == hs[2].dim(*c), c
    assert sum(hs[0].dim(*c) for c in cells if c[0] == 0) == sc["expected"]["h0_total"]
    assert sum(hs[0].dim(*c) for c in cells if c[0] != 0) == 0
