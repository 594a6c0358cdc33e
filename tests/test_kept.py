"""What a module keeps per caps: each bar scheme it is the source of, keyed
by (n_max, w_cap, reduced) with a cap past its finite bar's uncut cap read
as that cap, and its witness model per outer weight cap.

Every builder that reads a kept scheme must build what it builds over a
fresh module at the asked caps, none read as an uncut one, in any order of
caps, and a kept witness model must multiply as a fresh one.  A model built per call, its E's bar scheme included,
keeps nothing on the module.
"""
import gc
import tracemalloc
import weakref

import pytest

from dgcomplete import bar, complete
from dgcomplete import models as M
from dgcomplete.bar import (
    bar_resolution, derived_hom, derived_tensor, end_algebra, witness_model,
)
from dgcomplete.dg import DgModule, regular_module
from dgcomplete.graded import Window
from dgcomplete.linalg import RATIONALS as F, Field


def _module(name):
    """A right module whose derived functors run on its reduced bar."""
    if name == "triangular_123":
        return M.build_scenario(name)["module"]
    if name == "kx_qq":
        return M.truncated_poly(F, ["x"], [], wmax=5).quotient_module(["x"])
    ring = M.truncated_poly(Field(32003), ["x", "y"], ["x^2", "y^2"])
    return ring.residue_module()  # resolves minimally, which reduced=True skips


def _builds(m):
    """Each builder that reads m's bar scheme, at caps c."""
    a = m.algebra
    a_left = DgModule(a, a.complex, dict(a.mult), side="left")
    return [
        lambda c: end_algebra(m, c + 1, w_cap=c).complex,
        lambda c: bar_resolution(m, c, w_cap=c).complex,
        lambda c: derived_hom(m, m, c, reduced=True),
        lambda c: derived_tensor(m, a_left, c, reduced=True),
    ]


def _unclamped(monkeypatch, build):
    """build() with no cap read as an uncut one, so each scheme is built at
    the asked caps: the reference a scheme read past them must match."""
    with monkeypatch.context() as mp:
        mp.setattr(bar, "_uncut_caps", lambda m: "refused")
        return build()


def _snapshot(cx, c):
    """Cells, knowledge, every block's entries, and the cohomology's table
    and certificate."""
    sp = cx.space
    h = cx.cohomology(Window(-c - 2, c + 2, c + 1))
    return (sp.cells, sp.known_cols, sp.zero_outside, sp.known_zero_below,
            sp.known_zero_above,
            {cell: (b.rows, b.cols, b.entries) for cell, b in cx.d.blocks.items()},
            h.dims_by_cell(), h.certificate.status)


# the uncut caps (L, W) of each module's reduced bar: the simples of
# 1 -> 2 -> 3 chain two slots of weight 1; x is a loop, so over k[x] and
# k[x,y]/(x^2, y^2) the bar is infinite and no cap is cut
UNCUT = {"triangular_123": (2, 2), "kx_qq": (99, 99), "kxy_square_zero_gfp": (99, 99)}


@pytest.mark.parametrize("caps", [[1, 2, 3], [3, 2, 1], [2, 2, 3, 2, 2]],
                         ids=["ascending", "descending", "repeated"])
@pytest.mark.parametrize("name", ["triangular_123", "kx_qq", "kxy_square_zero_gfp"])
def test_kept_schemes_build_what_a_fresh_module_builds(monkeypatch, name, caps):
    """The four builders share m's schemes: bar_resolution, derived_hom and
    derived_tensor at (c, c) read one, end_algebra at (c + 1, c) another,
    each cap past the uncut one read as it."""
    m = _module(name)
    kept = _builds(m)
    for c in caps:
        for i, build in enumerate(kept):
            fresh = _unclamped(monkeypatch, lambda: _builds(_module(name))[i](c))
            assert _snapshot(build(c), c) == _snapshot(fresh, c)
    n_cut, w_cut = UNCUT[name]
    assert sorted(m._schemes) == sorted(
        {(min(n, n_cut), min(c, w_cut), True) for c in caps for n in (c, c + 1)})


@pytest.mark.parametrize("name", ["triangular_12", "triangular_123"])
def test_outer_caps_past_a_finite_bar_share_one_scheme(monkeypatch, name):
    """The module over the opposite of a triangular algebra's kept strict
    model, the completion along the algebra itself, has a finite bar, so
    completions at caps 2, 3 and 4 keep one outer scheme where they kept
    three with the same tuples; each still certifies to its own caps and
    answers what a fresh module answers with every outer scheme built at
    the asked caps.  (A witness model knows only the columns its cap reads,
    so the module over its opposite has no uncut caps and keeps its scheme
    per caps.)"""
    def completions(a):
        m = regular_module(a)
        return [complete.double_centralizer(a, m, (c, c)) for c in (2, 3, 4)]

    results = completions(M.build_scenario(name)["algebra"])
    assert [r.inner_used for r in results] == ["strict"] * 3
    over = results[0].inner.module_over_opposite()
    assert all(r.inner.module_over_opposite() is over for r in results)
    assert len(over._schemes) == 1
    assert [bar._bar_scheme(over, c, c, True, over)[2][1] for c in (2, 3, 4)] == [2, 3, 4]
    fresh = _unclamped(monkeypatch,
                       lambda: completions(M.build_scenario(name)["algebra"]))
    assert sorted(fresh[0].inner.module_over_opposite()._schemes) == [
        (c, c, True) for c in (2, 3, 4)]
    for c, r, fresh in zip((2, 3, 4), results, fresh):
        assert _snapshot(r.completed.complex, c) == _snapshot(fresh.completed.complex, c)


def test_a_kept_witness_model_multiplies_as_a_fresh_one():
    """k over k[x,y]/(x^2,y^2) keeps its witness model per outer weight cap;
    the model kept at cap 3 and read again gives every Yoneda product a
    fresh one gives."""
    def residue():
        return M.truncated_poly(F, ["x", "y"], ["x^2", "y^2"]).residue_module()

    k = residue()
    results = [complete.double_centralizer(k.algebra, k, (c, c)) for c in (3, 2, 3)]
    assert [r.inner_used for r in results] == ["witness"] * 3
    assert results[2].inner is results[0].inner is not results[1].inner
    assert sorted(k._witnesses) == [2, 3]
    kept, (fresh, _) = results[2].inner, witness_model(residue(), 3)
    keys = kept.basis_keys()
    assert keys == fresh.basis_keys()
    assert any(kept.basis_product(x, y) not in ({}, {x: F.one}, {y: F.one})
               for x in keys for y in keys)
    for x in keys:
        for y in keys:
            assert kept.basis_product(x, y) == fresh.basis_product(x, y)


def test_a_per_call_model_keeps_nothing_on_its_module():
    """k over k[x]/(x^3) has Ext² at (2, -3), off the line d = -w, so at
    cap 3 its witness model is refused and E is built per call: once the
    result goes, so does its module over the opposite, and k keeps no
    scheme of its own bar, only the refusal and its resolution."""
    ring = M.truncated_poly(F, ["x"], ["x^3"])
    k = ring.residue_module()
    r = complete.double_centralizer(ring.algebra, k, (3, 3))
    assert (r.inner_used, r.diagnostics["witness"]) == (
        "bar", "class at (2, -3) off its line")
    over = weakref.ref(r.inner.module_over_opposite())
    del r
    gc.collect()
    assert over() is None
    assert not k._schemes and [model for model, _ in k._witnesses.values()] == [None]


def test_a_per_call_e_at_large_inner_caps_leaves_nothing_behind():
    """At caps (5, 5) the per-call E of k over k[x, y]/(x^3), whose witness
    model purity refuses, is built at inner caps (7, 7), a scheme of about
    2 MB; the call leaves under 0.2 MB (tracemalloc), while end_algebra
    called directly still keeps its scheme."""
    ring = M.truncated_poly(F, ["x", "y"], ["x^3"], wmax=7)
    k = ring.residue_module()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        r = complete.double_centralizer(ring.algebra, k, (5, 5))
        assert r.inner_used == "bar"
        del r
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert not k._schemes and kept < 200_000
    end_algebra(k, 3, w_cap=2)
    assert sorted(k._schemes) == [(3, 2, True)]


def test_what_triangular_7_keeps_along_its_simples_stays_small():
    """Completing triangular_7 along its simples at caps 1..6 keeps the sum,
    its resolution, a witness model per cap and the outer schemes over
    them, under 1 MB (tracemalloc)."""
    a = M.build_scenario("triangular_1234567")["algebra"]
    simples = [M.simple_module(a, o) for o in a.idempotents]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for c in range(1, 7):
            r = complete.completion_along_set(a, simples, (c, c))
        del r
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000
