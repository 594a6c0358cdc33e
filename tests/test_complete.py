"""Double centralizers: the choice of inner model and the projective path.

A module with the projective witness is K-projective, so its strict
endomorphisms are its derived ones (Yoneda) and the completion takes the
strict inner model; every other module takes the convolution model.  The
outer model is always the reduced bar, so an inner algebra it cannot reduce
over fails at once with an error naming why.
"""
import hashlib
import time

import pytest

from dgcomplete import bar, complete
from dgcomplete import models as M
from dgcomplete.bar import embed_strict, end_algebra, strict_end_algebra
from dgcomplete.dg import (
    DgAlgebra, DgModule, direct_sum_modules, identity_morphism,
    regular_module, restrict_scalars, right_ideal_module, shift_module,
)
from dgcomplete.graded import Window, induced_rank, is_chain_map
from dgcomplete.linalg import RATIONALS as F


def _certified(h, win):
    cells = list(win.grid())
    return [c for c in cells if h.certificate.exact_at(*c)], cells


def _projectives(a):
    return [right_ideal_module(a, a.idempotents[o]) for o in a.idempotents]


def _odd_shift(name):
    """P1 ⊕ P2[1] over the algebra of a registry scenario."""
    a = M.build_scenario(name)["algebra"]
    p1, p2 = (right_ideal_module(a, a.idempotents[o]) for o in ("O1", "O2"))
    return direct_sum_modules(p1, shift_module(p2, 1))


def _shifted_line():
    """A ⊕ A[1] over the dg line, whose d is nonzero: both summands share
    the unit as their idempotent, so a map out of one summand must vanish
    on the other, and d f_{j,q} = f_{j,dq} must hold with the odd shift's
    signs."""
    a = regular_module(M._dg_line_algebra(F))
    return direct_sum_modules(a, shift_module(a, 1))


def _summands(m):
    """The number of summands of m's witness, after checking that each
    inclusion lands on module keys, shifts every bidegree alike, and is a
    map of right modules, and that together they cover m's basis once."""
    a, one = m.algebra, F.one
    images = []
    for e, incl in m.projective:
        assert all(k[:2] == (0, 0) for k in e) and not a.d(e)
        assert len({(x[0] - k[0], x[1] - k[1]) for x, k in incl.items()}) == 1
        for x, k in incl.items():
            for y in a.basis_keys():
                want = {incl[z]: c for z, c in a.basis_product(x, y).items()}
                assert m.act({k: one}, {y: one}) == want, (x, y)
        images.extend(incl.values())
    assert sorted(images) == list(m.basis_keys())
    return len(m.projective)


def test_projective_witness_is_set_only_by_constructors_that_prove_it():
    a = M.path_chain_algebra(F, 2)
    p1, p2 = _projectives(a)
    assert _summands(regular_module(a)) == 1
    assert regular_module(a).projective[0][0] == a.unit
    assert _summands(p1) == 1
    assert p1.projective[0][0] == a.idempotents["O1"]
    assert _summands(shift_module(p1, 1)) == 1
    assert _summands(direct_sum_modules(p1, p2)) == 2
    assert _summands(_odd_shift("triangular_123")) == 2
    assert _summands(_shifted_line()) == 2
    assert _summands(direct_sum_modules(
        regular_module(a), direct_sum_modules(p1, shift_module(p2, -1)))) == 3
    s1 = M.simple_module(a, "O1")
    assert s1.projective is None
    assert direct_sum_modules(p1, s1).projective is None
    assert shift_module(s1, 1).projective is None
    assert restrict_scalars(identity_morphism(a), regular_module(a)).projective is None
    assert DgModule(a, p1.complex, p1.action).projective is None


def test_strict_model_refuses_a_module_without_the_witness():
    """The simple at O1 is not projective: its strict endomorphisms are not
    its derived ones, so the strict model is refused, not returned."""
    a = M.path_chain_algebra(F, 2)
    with pytest.raises(ValueError, match="no projective witness"):
        strict_end_algebra(M.simple_module(a, "O1"))


def test_strict_model_refuses_summands_whose_idempotents_split_no_basis():
    """Over 2x2 matrices with basis a = e11, b = e12, c = -e21, d = e22 + e21
    the idempotents e11 = a and e22 = c + d split the basis on the left, so
    e11·A and e22·A carry the witness, but not on the right: d·e11 = -c, so
    no set of basis keys spans m·e11 and the strict model is refused."""
    basis = {"a": {(1, 1): 1}, "b": {(1, 2): 1}, "c": {(2, 1): -1},
             "d": {(2, 2): 1, (2, 1): 1}}
    coords = {(1, 1): {"a": 1}, (1, 2): {"b": 1}, (2, 1): {"c": -1},
              (2, 2): {"c": 1, "d": 1}}
    products = {}
    for x, mx in basis.items():
        for y, my in basis.items():
            out = products[(x, y)] = {}
            for (i, j), u in mx.items():
                for (k, l), v in my.items():
                    for nm, c in (coords[(i, l)] if j == k else {}).items():
                        out[nm] = out.get(nm, 0) + u * v * c
    a = DgAlgebra.from_basis(F, [(nm, 0, 0) for nm in basis], ["a", "c", "d"],
                             {}, products)
    key = {nm: a.space.key_of(0, 0, nm) for nm in basis}
    assert a.validate().ok
    p1 = right_ideal_module(a, {key["a"]: F.one})
    p2 = right_ideal_module(a, {key["c"]: F.one, key["d"]: F.one})
    m = direct_sum_modules(p1, p2)
    assert _summands(m) == 2 and m.validate().ok
    with pytest.raises(ValueError, match="not homogeneous"):
        strict_end_algebra(m)


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


SHIFTED = {"triangular_12/P1+P2[1]": lambda: _odd_shift("triangular_12"),
           "triangular_123/P1+P2[1]": lambda: _odd_shift("triangular_123"),
           "dg_line/A+A[1]": _shifted_line}


@pytest.mark.parametrize("name,covered", [
    ("dual_numbers", 12), ("dual_numbers_op", 12), ("free_category", 1),
    ("triangular_12/P1+P2[1]", 5), ("triangular_123/P1+P2[1]", 8),
    ("dg_line/A+A[1]", 34)])
def test_strict_and_bar_inner_models_agree_where_the_bar_model_certifies(
        name, covered):
    """The strict model of e·A, or of a sum with an odd shift, is a dg
    algebra that embeds as a unital algebra map into the convolution model,
    quasi-isomorphically on every cell the latter certifies."""
    m = SHIFTED[name]() if name in SHIFTED else M.build_scenario(name)["module"]
    s = strict_end_algebra(m)
    assert s.validate().ok
    b = end_algebra(m, 4, w_cap=4)
    hs, hb = s.complex.cohomology(), b.complex.cohomology()
    j = embed_strict(s, b)
    assert is_chain_map(j, s.complex.d, b.complex.d) is None
    assert j.apply(s.unit) == b.unit
    for k1 in s.basis_keys():
        for k2 in s.basis_keys():
            assert j.apply(s.basis_product(k1, k2)) == b.multiply(
                j.apply({k1: F.one}), j.apply({k2: F.one})), (k1, k2)
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
    ("free_category", "strict"), ("koszul_kx", "witness"),
    ("triangular_12", "minimal"), ("triangular_123", "minimal"),
])
def test_registry_completions_keep_their_models(name, inner):
    """koszul_kx completes along k and triangular_* along their simples:
    neither is projective, and both pass the purity check, so k, which
    carries a resolution recipe, takes the witness model, and the simples
    the minimal model.  Every one keeps the reduced outer scheme."""
    r = _registry_completion(name)
    assert r.inner_used == inner
    assert r.reduced_outer
    assert r.diagnostics["outer"]["budget"] is None
    witness = r.diagnostics["strict"]["witness"]
    assert witness is r.inner.module.projective
    assert (witness is not None) == (inner == "strict")


@pytest.mark.parametrize("name,strict,end", [
    ("koszul_kx", 0, 1), ("triangular_12", 0, 2), ("dual_numbers_op", 1, 1)])
def test_each_completion_builds_one_inner_model(monkeypatch, name, strict, end):
    """One inner model and one outer bar: the strict model, E built uncut,
    or the witness model of k, which builds no inner end_algebra."""
    calls = {"strict": 0, "end": 0, "witness": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(complete, "strict_end_algebra",
                        counted("strict", complete.strict_end_algebra))
    monkeypatch.setattr(complete, "end_algebra",
                        counted("end", complete.end_algebra))
    monkeypatch.setattr(complete, "witness_model",
                        counted("witness", complete.witness_model))
    _registry_completion(name)
    assert calls == {"strict": strict, "end": end, "witness": 2 - end - strict}


def _record(r):
    """What a completion answers: its table, certificate, model and
    diagnostics over its default window."""
    h = r.cohomology()
    return h.dims_by_cell(), h.certificate.status, r.inner_used, r.diagnostics


def _counted_strict(monkeypatch):
    """The modules strict_end_algebra is called on, in call order."""
    calls = []
    build = complete.strict_end_algebra

    def counted(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(complete, "strict_end_algebra", counted)
    return calls


@pytest.mark.parametrize("name,caps", [
    ("dual_numbers", [4, 2, 6, 2]), ("dual_numbers_op", [3, 5, 4, 3])])
def test_completions_along_one_module_build_its_strict_model_once(
        monkeypatch, name, caps):
    """E = End_a(m) depends on m alone, so completions along one module at
    any caps build E and its module over E^op once, keep them on the
    module, and each answers what a fresh module answers."""
    calls = _counted_strict(monkeypatch)
    sc = M.build_scenario(name)
    a, m = sc["algebra"], sc["module"]
    results = [complete.double_centralizer(a, m, (c, c)) for c in caps]
    assert calls == [m]
    assert all(r.inner is results[0].inner for r in results)
    assert len({id(r.completed) for r in results}) == len(caps)
    for c, r in zip(caps, results):
        fresh = M.build_scenario(name)
        assert _record(r) == _record(complete.double_centralizer(
            fresh["algebra"], fresh["module"], (c, c)))
    assert len(calls) == 1 + len(caps)


def test_completions_along_one_module_read_its_object_map_once(monkeypatch):
    """The module over the strict model's opposite is kept, so three
    completions along one module read its object map once, and each
    answers what a fresh module answers."""
    reads = []
    read = bar._object_map

    def counted(m, red):
        reads.append(m)
        return read(m, red)

    monkeypatch.setattr(bar, "_object_map", counted)
    sc = M.build_scenario("dual_numbers")
    a, m = sc["algebra"], sc["module"]
    results = [complete.double_centralizer(a, m, (c, c)) for c in (4, 2, 5)]
    over = results[0].inner.module_over_opposite()
    assert reads == [over]
    for c, r in zip((4, 2, 5), results):
        fresh = M.build_scenario("dual_numbers")
        assert _record(r) == _record(complete.double_centralizer(
            fresh["algebra"], fresh["module"], (c, c)))


def test_completion_along_a_set_keeps_one_sum_per_generator_tuple(
        monkeypatch):
    """completion_along_set keeps the direct sum per tuple of generators,
    matched by identity, so calls along one tuple build its strict model
    once, and a new tuple builds its own; each still answers as a fresh
    algebra does."""
    calls = _counted_strict(monkeypatch)
    a = M.build_scenario("triangular_12")["algebra"]
    projectives = _projectives(a)
    results = []
    for c in (4, 2, 4):
        results.append(complete.completion_along_set(a, projectives, (c, c)))
        fresh = M.build_scenario("triangular_12")["algebra"]
        assert _record(results[-1]) == _record(complete.completion_along_set(
            fresh, _projectives(fresh), (c, c)))
    assert all(r.inner is results[0].inner for r in results)
    assert len(calls) == 4 and len({id(m) for m in calls}) == 4
    assert calls[0] is results[0].inner.module
    other = complete.completion_along_set(a, _projectives(a), (2, 2))
    assert other.inner.module is not calls[0] and len(calls) == 5


def test_completion_along_the_simples_builds_its_sum_and_uncut_model_once(
        monkeypatch):
    """Two calls along the simples of triangular_123 build the direct sum
    and its uncut model once: the second reads the sum kept on the algebra
    and the model kept on the sum."""
    sums, uncut = [], []
    sum_of, model_of = complete.direct_sum_modules, complete._uncut_model

    def counted_sum(*args, **kwargs):
        sums.append(args)
        return sum_of(*args, **kwargs)

    def counted_model(m, caps):
        uncut.append((m, caps))
        return model_of(m, caps)

    monkeypatch.setattr(complete, "direct_sum_modules", counted_sum)
    monkeypatch.setattr(complete, "_uncut_model", counted_model)
    a = M.build_scenario("triangular_123")["algebra"]
    simples = [M.simple_module(a, o) for o in a.idempotents]
    first, second = (complete.completion_along_set(a, simples, (2, 2))
                     for _ in range(2))
    assert len(sums) == len(simples) - 1 == 2
    assert [m for m, _ in uncut] == [first.inner.module]
    assert second.inner is first.inner
    fresh = M.build_scenario("triangular_123")["algebra"]
    assert _record(second) == _record(first) == _record(
        complete.completion_along_set(
            fresh, [M.simple_module(fresh, o) for o in fresh.idempotents],
            (2, 2)))


def test_completion_along_the_algebra_takes_the_strict_model():
    sc = M.build_scenario("triangular_12")
    a = sc["algebra"]
    projectives = _projectives(a)
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
    assert r.diagnostics["strict"] == {"witness": m.projective,
                                       "module_known": False}
    assert not any(r.inner.complex.cohomology().certificate.status.values())
    assert _certified(r.cohomology(win), win)[0] == []


def test_strict_inner_model_ignores_inner_caps():
    """inner_caps bound only the convolution model, so a projective module
    accepts caps that would be too tight for it and gives the same tables.
    Caps must still be non-negative integers, inner_caps too whenever they
    are given: a float is not rounded and a bool is not read as 0 or 1."""
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
    simple = M.simple_module(a, "X1")
    for module, caps, inner in [(m, (2.7, 2), None), (m, (True, 2), None),
                                (m, (3, 3), (3.5, 3)), (m, (3, 3), (3, False)),
                                (simple, (2, 2), (4, 4.0)), (simple, (2, "2"), None)]:
        with pytest.raises(ValueError, match="must be two integers"):
            complete.double_centralizer(a, module, caps, inner_caps=inner)
    for module, caps, inner in [(m, (3, 3), (-1, 3)), (m, (3, -1), None),
                                (simple, (2, 2), (-1, 4))]:
        with pytest.raises(ValueError, match="must be non-negative"):
            complete.double_centralizer(a, module, caps, inner_caps=inner)


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
    projectives = _projectives(a)
    results = [complete.double_centralizer(a, sc["module"], sc["caps"]),
               complete.completion_along_set(a, projectives, sc["caps"]),
               complete.double_centralizer(a, regular_module(a), sc["caps"])]
    assert [r.inner_used for r in results] == ["minimal", "strict", "strict"]
    win = Window(-2, 2, 4)
    hs = [r.cohomology(win) for r in results]
    cells = [c for c in win.grid() if all(h.certificate.exact_at(*c) for h in hs)]
    assert len(cells) == common
    for c in cells:
        assert hs[0].dim(*c) == hs[1].dim(*c) == hs[2].dim(*c), c
    assert sum(hs[0].dim(*c) for c in cells if c[0] == 0) == sc["expected"]["h0_total"]
    assert sum(hs[0].dim(*c) for c in cells if c[0] != 0) == 0


def _scenario_completion(name, **params):
    sc = M.build_scenario(name, params=params)
    return complete.double_centralizer(sc["algebra"], sc["module"], sc["caps"])


def _along_algebra(name):
    a = M.build_scenario(name)["algebra"]
    return complete.double_centralizer(a, regular_module(a), (4, 4))


def _along_projectives(name):
    a = M.build_scenario(name)["algebra"]
    return complete.completion_along_set(a, _projectives(a), (4, 4))


def _deck_completion(name, cap, **params):
    """A bar-inner completion as the benchmark deck runs it: the scenario's
    module at caps (cap, cap), inner caps two above."""
    sc = M.build_scenario(name, params=params)
    return complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap),
                                       inner_caps=(cap + 2, cap + 2))


def _table_digest(r):
    """sha256 of a completion's dimension table and certificate over its
    default window, both sorted by cell."""
    h = r.cohomology()
    text = repr((sorted(h.dims_by_cell().items()),
                 sorted(h.certificate.status.items())))
    return hashlib.sha256(text.encode()).hexdigest()


# digests recorded from the strict builder that solved for End_a(m) by
# linear algebra: every builder must reproduce those tables cell for cell
GOLDEN_TABLES = [
    ("dual_numbers (6,6)", lambda: _scenario_completion("dual_numbers"),
     "ae6344e830d06fa0198876ad179bc630bedb8256c3d343cdb6645ddb2aa59f0a"),
    ("dual_numbers (3,3)",
     lambda: _scenario_completion("dual_numbers", caps=(3, 3)),
     "1e7d319a2d3a843fe6f865e73e8aae2c2c422447d196d12bd4d0501b0e7ace1c"),
    ("dual_numbers_op w1",
     lambda: _scenario_completion("dual_numbers_op", wmax=1),
     "9ebab313a46e16b4bea38a6d6fb8fc6296457609721aa29430d469dddbb1ea4b"),
    ("dual_numbers_op w2",
     lambda: _scenario_completion("dual_numbers_op", wmax=2),
     "81a06cb9a44c414baf9520750a14662bc520b2760702e2506cd3b1ae9d1640b7"),
    ("dual_numbers_op w3",
     lambda: _scenario_completion("dual_numbers_op", wmax=3),
     "d5daa624d2a92227416dacdef0ee6ef594704d9cb5c4719d1c7bdafe86e5e832"),
    ("free_category w2",
     lambda: _scenario_completion("free_category", wmax=2),
     "27a2517444d4110750a075362b4ac00b0f45ed74f39e7b9117c2ce74ef4e2b77"),
    ("free_category w4",
     lambda: _scenario_completion("free_category", wmax=4),
     "a96294266ed0f0feb7d4839e1c43aff0c17a0e75ee47cbab77babea929071776"),
    ("free_category w6",
     lambda: _scenario_completion("free_category", wmax=6),
     "3ff0242b2e3c74df7fed74a0bf11551283da1b185a368f63c7356467e2d2be96"),
    ("triangular_12 along A", lambda: _along_algebra("triangular_12"),
     "6b60a623dd7517332c0e000d3e3fd11e26a56e7acba69236c321d14574432f07"),
    ("triangular_12 along projectives",
     lambda: _along_projectives("triangular_12"),
     "6b60a623dd7517332c0e000d3e3fd11e26a56e7acba69236c321d14574432f07"),
    ("triangular_123 along A", lambda: _along_algebra("triangular_123"),
     "2e37f3d37ab29873b57385951d1c26b5294b593b9d1669b41c84d88db731f23a"),
    ("triangular_123 along projectives",
     lambda: _along_projectives("triangular_123"),
     "2e37f3d37ab29873b57385951d1c26b5294b593b9d1669b41c84d88db731f23a"),
] + [
    # bar-inner completions, recorded from the builder that found every
    # inner algebra's reduction data by asking its idempotent products
    ("koszul_kx w4 cap 3",
     lambda: _deck_completion("koszul_kx", 3, wmax=4),
     "dc58711a77094ce55b2a9eae0436bc1de524c3944dbbe56bdabea955171c915d"),
    ("koszul_kx w5 cap 4",
     lambda: _deck_completion("koszul_kx", 4, wmax=5),
     "4498bc661a5aecdeae1787ad35f71ca95437ff7f20607525f57b4d7c886af8a4"),
    ("koszul_kx w6 cap 5",
     lambda: _deck_completion("koszul_kx", 5, wmax=6),
     "be47950fa450fb4e3eb0dbfa4cf0d0c4911dda31582d033b153a259ac4bab42a"),
    ("koszul_kx w7 cap 6",
     lambda: _deck_completion("koszul_kx", 6, wmax=7),
     "1c7b66f729ef7b84f3df64778fe37c30874ffd7ce3b960c405499b6ca8cbbbbe"),
    ("triangular_1234 cap 2", lambda: _deck_completion("triangular_1234", 2),
     "15f4c901ce8df10b6b3c42b3ecf5c4d265cc42ed07bd063ced8a2b6ff1e8e80b"),
    ("triangular_1234 cap 3", lambda: _deck_completion("triangular_1234", 3),
     "581ea85737d5935b7c22648ca3edb601e5bfc3b5f56d582f93a52b16104f34eb"),
    ("triangular_1234 cap 4", lambda: _deck_completion("triangular_1234", 4),
     "a4d3cbff2a3b2c53659256024ed8f94787cf4ae9a2f50e6ba187d937e7919f45"),
    ("triangular_12345 cap 2", lambda: _deck_completion("triangular_12345", 2),
     "e1e2e9c3a38a68e1174dfa8c66a2ddc0e1884ede37f36780767c600682672856"),
    ("triangular_12345 cap 3", lambda: _deck_completion("triangular_12345", 3),
     "7d55f0d8ae6fc24290c24d2dabd2a89d42baf8bb861b9bc35ab06b2d960897a0"),
    ("triangular_12345 cap 4", lambda: _deck_completion("triangular_12345", 4),
     "c9174b820f41c5b2cb5572666fb9174f2cf08a1804905ab5939b5d333069b8f6"),
    ("triangular_123456 cap 2", lambda: _deck_completion("triangular_123456", 2),
     "da7adbc5eb77b60a1576cadf2c6d1aa1f17e959a807e1324afe7fa0478b3f3d5"),
    ("triangular_123456 cap 3", lambda: _deck_completion("triangular_123456", 3),
     "d269634d3a4daa473dc0c95042893f1a3b01e80be3b9999b0da84a0661df24bf"),
    ("triangular_123456 cap 4", lambda: _deck_completion("triangular_123456", 4),
     "b30d244860d944c4a74059de470dcc5146bc3a5406ed63e4aa104ad08d48258a"),
    ("triangular_1234567 cap 2", lambda: _deck_completion("triangular_1234567", 2),
     "8bf82ade85ccff99dcc7a1bdaf8f367e326ee24504574b08f07a92003d685196"),
    ("triangular_1234567 cap 3", lambda: _deck_completion("triangular_1234567", 3),
     "a001aae64d1518eb4fb126d5b22bd8566e79a62710b687541923df902e8aafc1"),
    ("triangular_1234567 cap 4", lambda: _deck_completion("triangular_1234567", 4),
     "99d139f0d733fe127e44b7e6bcaf69fd25f6e25a978d8fe141ec26b2fc052c67"),
]


@pytest.mark.parametrize("build,digest", [g[1:] for g in GOLDEN_TABLES],
                         ids=[g[0] for g in GOLDEN_TABLES])
def test_completions_keep_their_recorded_tables(build, digest):
    assert _table_digest(build()) == digest


@pytest.mark.parametrize("name,n", [("triangular_12", 2), ("triangular_123", 3)])
def test_the_completion_along_the_simples_is_the_path_algebra(name, n):
    """ROADMAP item 18: H^0 of the completion along the simples of the path
    algebra of 1 -> ... -> n, with the product p∘μ∘(i⊗i) of its classes, is
    the path algebra on the certified cells: n - w paths at weight w, no
    class in another degree, and the weight-1 arrows compose in one order
    only, onto the path of weight 2.  Checked at two caps on one module, so
    the second call reads the kept uncut model."""
    sc = M.build_scenario(name)
    a, m = sc["algebra"], sc["module"]
    results = [complete.double_centralizer(a, m, (c, c)) for c in (3, 2)]
    assert results[0].inner is results[1].inner
    for cap, res in zip((3, 2), results):
        assert res.diagnostics["cap_free"] is None
        win = Window(-2, 2, cap)
        h = res.cohomology(win)
        cert, _ = _certified(h, win)
        assert {(0, w) for w in range(cap + 1)} <= set(cert)
        assert {c: h.dim(*c) for c in cert} == {
            c: max(n - c[1], 0) if c[0] == 0 and c[1] >= 0 else 0 for c in cert}
        reps = h.representatives

        def times(k1, k2):
            return h.project(res.completed.multiply(reps[k1], reps[k2]))

        arrows = h.space.keys(0, 1)
        products = {(x, y): times(x, y) for x in arrows for y in arrows}
        nonzero = [xy for xy, p in products.items() if p]
        if n == 2:
            assert nonzero == []
        else:
            assert len(nonzero) == 1
            (x, y), = nonzero
            assert x != y and products[(y, x)] == {}
            assert list(products[(x, y)]) == h.space.keys(0, 2)
