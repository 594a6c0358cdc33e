"""The minimal inner model: a completion over H(E) instead of over E.

Where every class of H(E) up to the outer weight cap lies on one line
d = c·w and the module on a parallel one, every transferred m_n with n >= 3
vanishes by degree, so H(E) with d = 0 and m₂ = p∘μ∘(i⊗i) is E's minimal
model.  The completion is invariant under that quasi-isomorphism, so it must
give the bar model's tables wherever both certify.  k over k[x], which
carries a resolution recipe, passes the same check through the witness
model, Ext read off its minimal resolution with the Yoneda product, and
must give the same tables too.
"""
import pytest

from dgcomplete import bar, complete
from dgcomplete import models as M
from dgcomplete.bar import (
    _reduction_data, end_algebra, minimal_model, reduction_data, witness_model,
)
from dgcomplete.dg import (
    DgCategoryPresentation, DgModule, category_algebra, direct_sum_modules,
)
from dgcomplete.graded import BiGradedSpace, CochainComplex, Window
from dgcomplete.linalg import RATIONALS as F


def _forced_bar(m, cap):
    """The completion over the convolution model E, as the bar path builds
    it: E at caps cap + 2, the outer reduced bar at caps cap."""
    inner = end_algebra(m, cap + 2, w_cap=cap + 2)
    outer = end_algebra(inner.module_over_opposite(), cap, w_cap=cap,
                        reduced=True)
    return outer.opposite()


def _triangular(n):
    return M.build_scenario("triangular_" + "".join(str(i) for i in range(1, n + 1)))


def _koszul(wmax):
    return M.build_scenario("koszul_kx", params={"wmax": wmax})


def _origin(variables, wmax):
    ring = M.truncated_poly(F, variables, [], wmax=wmax)
    return {"algebra": ring.algebra, "module": ring.residue_module()}


def _simple_at(alg, obj, d, w):
    """The simple module at obj, placed at (d, w)."""
    sp = BiGradedSpace(F)
    sp.add_cell(d, w, [f"S({obj})"])
    sp.mark_all_complete()
    mk = sp.key_of(d, w, f"S({obj})")
    action = {(mk, z): {mk: c} for z, c in alg.idempotents[obj].items()}
    return DgModule(alg, CochainComplex(sp), action, side="right",
                    name=f"S({obj})[{d},{w}]")


def _staggered_simples():
    """S(O1) ⊕ S(O2) over the path algebra 1 -> 2, with S(O2) at (1, -1):
    keys at two weights (spread 1), still on the line d = -w."""
    alg = M.path_chain_algebra(F, 2)
    m = direct_sum_modules(_simple_at(alg, "O1", 0, 0),
                           _simple_at(alg, "O2", 1, -1), name="S1⊕S2[1,-1]")
    return {"algebra": alg, "module": m}


# every bar-inner job shape the completion_qq deck draws, under any seed
# (so those of seeds 0 and 7), with the inner model it takes: koszul_kx
# (ring wmax, cap), whose k carries a recipe, and triangular (length, cap),
# plus k[x,y] and k[x,y,z] along the origin and a module with keys at two
# weights
SHAPES = (
    [(f"koszul_kx w{w} cap 3", lambda w=w: _koszul(w), 3, "witness")
     for w in range(4, 8)]
    + [("koszul_kx w4 cap 4", lambda: _koszul(4), 4, "witness"),
       ("koszul_kx w5 cap 5", lambda: _koszul(5), 5, "witness"),
       ("koszul_kx w6 cap 6", lambda: _koszul(6), 6, "witness"),
       ("koszul_kx w7 cap 6", lambda: _koszul(7), 6, "witness")]
    + [(f"triangular_{n} cap {c}", lambda n=n: _triangular(n), c, "minimal")
       for n, c in [(n, c) for n in (2, 3, 4) for c in (2, 3, 4)]
       + [(5, 2), (5, 3), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4)]]
    + [("k[x,y] w5 cap 3", lambda: _origin(["x", "y"], 5), 3, "minimal"),
       ("k[x,y] w6 cap 4", lambda: _origin(["x", "y"], 6), 4, "minimal"),
       ("k[x,y,z] w4 cap 2", lambda: _origin(["x", "y", "z"], 4), 2, "minimal"),
       ("k[x,y,z] w5 cap 3", lambda: _origin(["x", "y", "z"], 5), 3, "minimal"),
       ("staggered simples of 1 -> 2 cap 3", _staggered_simples, 3, "minimal")]
)


@pytest.mark.parametrize("build,cap,model", [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_minimal_model_agrees_with_the_bar_model(build, cap, model):
    sc = build()
    r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap),
                                    inner_caps=(cap + 2, cap + 2))
    assert r.inner_used == model
    assert r.diagnostics["minimal"] == {"slope": -1, "offset": 0,
                                        "off_line": None, "reason": None}
    bar = _forced_bar(sc["module"], cap)
    assert len(r.completed.basis_keys()) <= len(bar.basis_keys())
    hm = r.cohomology()
    hb = bar.complex.cohomology(r.window)
    both = [c for c in r.window.grid()
            if hm.certificate.exact_at(*c) and hb.certificate.exact_at(*c)]
    assert both
    for c in both:
        assert hm.dim(*c) == hb.dim(*c), c
    # the knowledge the model carries is E's, or the witness's, which knows
    # the same columns, so it certifies the same cells
    assert hm.certificate.status == hb.certificate.status


def _spread(m):
    ws = [k[1] for k in m.basis_keys()]
    return max(ws) - min(ws)


def _columns_agree(small, big, cap):
    """E built at a small weight cap and at a large one agree on every
    column |u| <= cap: its keys per cell, d, known columns and rays; and so
    do their minimal models at cap, class for class."""
    ss, bs = small.space, big.space
    cells = sorted(c for c in bs.cells if abs(c[1]) <= cap)
    assert cells == sorted(c for c in ss.cells if abs(c[1]) <= cap)
    for d, u in cells:
        keys = bs.keys(d, u)
        assert [ss.label_of(k) for k in ss.keys(d, u)] == [
            bs.label_of(k) for k in keys]
        for k in keys:
            assert small.complex.d.apply({k: 1}) == big.complex.d.apply({k: 1})
    for u in range(-cap, cap + 1):
        assert ss.known_cols.get(u) == bs.known_cols.get(u), u
        assert ss.column_complete(u) == bs.column_complete(u), u
    assert (ss.known_zero_above, ss.known_zero_below, ss.zero_outside) == (
        bs.known_zero_above, bs.known_zero_below, bs.zero_outside)
    hs, hb = (e.complex.cohomology(wmax=cap) for e in (small, big))
    assert hs.certificate.status == hb.certificate.status
    (ms, rs), (mb, rb) = minimal_model(small, cap), minimal_model(big, cap)
    assert ms is not None and rs == rb
    assert {c: ms.space.dim(*c) for c in ms.space.cells} == {
        c: mb.space.dim(*c) for c in mb.space.cells}
    assert ms.space.known_cols == mb.space.known_cols
    assert ms.representatives == mb.representatives
    assert ms.unit == mb.unit
    for k1 in mb.basis_keys():
        for k2 in mb.basis_keys():
            assert ms.basis_product(k1, k2) == mb.basis_product(k1, k2)
    assert ms.module_over_opposite().action == mb.module_over_opposite().action


@pytest.mark.parametrize("build,cap", [s[1:3] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_e_at_the_weights_read_agrees_with_e_at_the_inner_caps(build, cap):
    """The minimal path builds E only to cap + spread: every reduced bar
    tuple in column u has slot weight sum at most spread + |u|."""
    m = build()["module"]
    w_read = min(cap + 2, cap + _spread(m))
    small = end_algebra(m, cap + 2, w_cap=w_read)
    big = end_algebra(m, cap + 2, w_cap=cap + 2)
    _columns_agree(small, big, cap)


@pytest.mark.parametrize("build,cap,w_read,keys", [
    (lambda: _origin(["x", "y"], 6), 4, 4, 116), (_staggered_simples, 3, 1, 3)],
    ids=["k[x,y] w6 cap 4", "staggered simples cap 3"])
def test_the_minimal_path_builds_e_only_to_the_cap_plus_the_spread(
        build, cap, w_read, keys):
    """E is read only to the outer cap plus the module's spread: for k over
    k[x, y] (spread 0, and no resolution recipe, so the per-call branch)
    116 keys at cap 4, where the inner caps would give 1352.  A finite bar
    needs less: S1 ⊕ S2 over 1 -> 2 has one slot of weight 1, so E is built
    uncut at W = 1, where the cap plus the spread is 4."""
    sc = build()
    r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
    assert r.inner_used == "minimal"
    assert r.inner.inner.w_cap == w_read
    assert len(r.inner.inner.basis_keys()) == keys


def _model(sc, cap):
    inner = end_algebra(sc["module"], cap + 2, w_cap=cap + 2)
    model, record = minimal_model(inner, cap)
    assert model is not None, record
    return model


MODELS = {
    "koszul_kx w7 cap 6": lambda: _model(_koszul(7), 6),
    "triangular_1234 cap 4": lambda: _model(_triangular(4), 4),
    "k[x,y] w5 cap 3": lambda: _model(_origin(["x", "y"], 5), 3),
    "k[x,y,z] w4 cap 2": lambda: _model(_origin(["x", "y", "z"], 4), 2),
}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS.keys())
def test_the_product_is_the_product_of_representatives_up_to_a_boundary(build):
    """i∘m₂(a, b) - i(a)·i(b) is a coboundary of E for every pair of classes
    whose product lands within the model's weights, found by an independent
    solve of d x = that difference; and the model is a unital associative
    graded algebra with the module acting on it."""
    model = build()
    e, reps, f = model.inner, model.representatives, model.field
    assert model.validate().ok
    assert model.module_over_opposite().validate().ok
    wmax = max(abs(w) for (_, w) in model.space.cells)
    checked = 0
    for k1 in model.basis_keys():
        for k2 in model.basis_keys():
            d, w = k1[0] + k2[0], k1[1] + k2[1]
            if abs(w) > wmax:
                continue
            diff = e.multiply(reps[k1], reps[k2])
            for k, c in model.basis_product(k1, k2).items():
                for x, v in reps[k].items():
                    s = f.sub(diff.get(x, f.zero), f.mul(c, v))
                    if f.is_zero(s):
                        diff.pop(x)
                    else:
                        diff[x] = s
            block = e.complex.differential_block(d - 1, w)
            assert block.solve({x[2]: v for x, v in diff.items()}) is not None
            checked += 1
    assert checked > len(model.basis_keys())


def test_classes_of_k_over_k_x_y_form_an_exterior_algebra():
    """Ext of k over k[x, y] is Λ[ε₁, ε₂]: ε_i² = 0 and ε₁ε₂ = -ε₂ε₁ ≠ 0."""
    model = MODELS["k[x,y] w5 cap 3"]()
    assert {c: model.space.dim(*c) for c in model.space.cells} == {
        (0, 0): 1, (1, -1): 2, (2, -2): 1}
    e1, e2 = model.space.keys(1, -1)
    top = model.space.keys(2, -2)[0]
    assert model.basis_product(e1, e1) == model.basis_product(e2, e2) == {}
    prod = model.basis_product(e1, e2)
    assert set(prod) == {top}
    assert model.basis_product(e2, e1) == {top: -prod[top]}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS.keys())
def test_reduction_data_of_the_model_matches_the_product_scan(build):
    model = build()
    red, scan = reduction_data(model), _reduction_data(model)
    assert (red.sign, red.idempotents, red.lobj, red.robj) == (
        scan.sign, scan.idempotents, scan.lobj, scan.robj)


def test_a_class_off_the_line_falls_back_to_the_bar_model():
    """k[x]/(x^5) has Ext² at (2, -5): at outer cap 6 it lies within the
    weights the outer bar reads, off the line d = -w, so the witness model
    is refused and the per-call branch runs as if it had never been tried,
    its H(E) refused for the same class."""
    sc = _koszul(4)
    witness, record = witness_model(sc["module"], 6)
    assert witness is None and record["off_line"] == (2, -5)
    r = complete.double_centralizer(sc["algebra"], sc["module"], (6, 6),
                                    inner_caps=(8, 8))
    assert r.inner_used == "bar"
    record = r.diagnostics["minimal"]
    assert record["off_line"] == (2, -5) and record["slope"] == -1
    assert "(2, -5)" in record["reason"]
    # the bar model is E at the inner caps, as if E had never been cut
    assert r.inner.w_cap == 8
    hr = r.cohomology()
    hb = _forced_bar(sc["module"], 6).complex.cohomology(r.window)
    assert hr.certificate.status == hb.certificate.status
    assert {c: hr.dim(*c) for c in r.window.grid()} == {
        c: hb.dim(*c) for c in r.window.grid()}
    # at cap 4 that class is past the cap, so the witness model is pure
    r = complete.double_centralizer(sc["algebra"], sc["module"], (4, 4),
                                    inner_caps=(6, 6))
    assert r.inner_used == "witness"


def test_the_model_knows_no_weight_past_its_cap():
    """A weight dropped past the outer cap is not known zero in the model,
    nor in the witness model, whose P is cut at that cap."""
    for model in (_model(_koszul(7), 4), witness_model(_koszul(7)["module"], 4)[0]):
        sp = model.space
        assert max(abs(w) for (_, w) in sp.cells) <= 4
        assert sp.column_complete(-4) and not sp.column_complete(-5)
        assert sp.known_degrees([-5])[-5] is None


def test_koszul_kx_completes_at_cap_8_over_nine_outer_elements():
    sc = _koszul(10)
    r = complete.double_centralizer(sc["algebra"], sc["module"], (8, 8))
    assert r.inner_used == "witness"
    assert len(r.inner.basis_keys()) == 2
    assert len(r.completed.basis_keys()) == 9
    h = r.cohomology(Window(-2, 2, 8))
    assert {c: h.dim(*c) for c in h.space.cells if h.certificate.exact_at(*c)} == {
        (0, w): 1 for w in range(0, 9)}


# -- the uncut model kept on a module with a finite bar ----------------------

def _counted_ends(monkeypatch):
    """The (module, n_max, w_cap, reduced) of every end_algebra a
    completion builds, in call order."""
    calls = []
    build = complete.end_algebra

    def counted(m, n_max, w_cap=None, reduced=None, name=""):
        calls.append((m, n_max, w_cap, reduced))
        return build(m, n_max, w_cap=w_cap, reduced=reduced, name=name)

    monkeypatch.setattr(complete, "end_algebra", counted)
    return calls


def _answer(r):
    h = r.cohomology()
    return (h.dims_by_cell(), h.certificate.status, r.inner_used,
            r.diagnostics["minimal"])


# a module with a finite bar and its uncut caps (L, W): triangular_n along
# its simples has one chain of n - 1 slots of weight 1, 1 -> ... -> n
FINITE = [(f"triangular_{n}", lambda n=n: _triangular(n), (n - 1, n - 1))
          for n in range(2, 8)] + [
    ("staggered simples", _staggered_simples, (1, 1))]


@pytest.mark.parametrize("order", ["rising", "falling"])
@pytest.mark.parametrize("build,uncut", [f[1:] for f in FINITE],
                         ids=[f[0] for f in FINITE])
def test_completions_along_one_module_build_its_uncut_model_once(
        monkeypatch, build, uncut, order):
    """E built uncut is REnd(m) at every cap, so completions along one
    module at caps 1-5, with inner caps that admit its uncut caps, build it
    once and then only one outer bar per call, and each answers what a fresh
    module answers on the per-call path (forced here by refusing the route,
    since caps clearing the outer cap by 2 admit most of these modules).

    At cap 1 the staggered simples' per-call H(E) holds only weight 0, and
    takes the negative weight sign of its E, whose class the uncut model
    keeps at (2, -2): both outer bars certify the weights -1 and 0, 12 of
    18 cells, with the values cap 2 gives."""
    caps = [1, 2, 3, 4, 5] if order == "rising" else [5, 4, 3, 2, 1]
    inner = (max(uncut[0], 7), max(uncut[1], 7))
    calls = _counted_ends(monkeypatch)
    sc = build()
    a, m = sc["algebra"], sc["module"]
    results = [complete.double_centralizer(a, m, (c, c), inner_caps=inner)
               for c in caps]
    assert [c[1:] for c in calls if c[0] is m] == [(*uncut, None)]
    over = results[0].inner.module_over_opposite()
    assert [c for c in calls if c[0] is not m] == [
        (over, c, c, True) for c in caps]
    assert all(r.inner is results[0].inner for r in results)
    assert all(r.diagnostics["cap_free"] is None for r in results)
    monkeypatch.setattr(complete, "_uncut_caps", lambda m: "refused")
    for c, r in zip(caps, results):
        fresh = build()
        per_call = complete.double_centralizer(
            fresh["algebra"], fresh["module"], (c, c), inner_caps=inner)
        assert per_call.diagnostics["cap_free"] == "refused"
        assert _answer(r) == _answer(per_call)


def test_koszul_kx_never_builds_the_uncut_model(monkeypatch):
    """k over k[x]: the slot x is a loop, so the bar is infinite and the
    module keeps that refusal.  k carries a resolution recipe, so a call
    takes the witness model at its outer weight cap, which k keeps per cap,
    and builds no inner end_algebra at all: the outer bar is the only one
    built, over the kept model's module, which keeps its scheme per caps."""
    calls = _counted_ends(monkeypatch)
    witnesses, schemes = [], []
    build, scheme = complete.witness_model, bar._BarScheme

    def counted(m, w_max):
        witnesses.append((m, w_max))
        return build(m, w_max)

    def counted_scheme(m, n_max, w_cap, reduced):
        schemes.append((m, n_max, w_cap, reduced))
        return scheme(m, n_max, w_cap, reduced)

    monkeypatch.setattr(complete, "witness_model", counted)
    monkeypatch.setattr(bar, "_BarScheme", counted_scheme)
    sc = _koszul(7)
    a, m = sc["algebra"], sc["module"]
    caps = [3, 6, 4, 5, 3]
    overs = []
    for c in caps:
        r = complete.double_centralizer(a, m, (c, c))
        assert r.inner_used == "witness"
        assert r.diagnostics["cap_free"] == "slots cycle at object 0"
        overs.append(r.inner.module_over_opposite())
    assert witnesses == [(m, c) for c in caps[:4]]
    assert overs[4] is overs[0] and len({id(o) for o in overs}) == 4
    assert calls == [(over, c, c, True) for over, c in zip(overs, caps)]
    assert schemes == [(over, c, c, True) for over, c in zip(overs, caps[:4])]
    assert m._cap_free == "slots cycle at object 0"


def test_triangular_7_builds_per_call_until_its_inner_caps_admit_6_6(
        monkeypatch):
    """Its uncut caps (6, 6) exceed inner caps (4, 4), which then build E
    per call and keep nothing; the first call whose inner caps admit them
    builds and keeps the uncut model, which later calls at (4, 4) read."""
    calls = _counted_ends(monkeypatch)
    sc = _triangular(7)
    a, m = sc["algebra"], sc["module"]
    reasons = []
    for inner in [(4, 4), (4, 4), (6, 5), (5, 6), (6, 6), (4, 4)]:
        r = complete.double_centralizer(a, m, (2, 2), inner_caps=inner)
        assert r.inner_used == "minimal"
        reasons.append(r.diagnostics["cap_free"])
    too_small = "uncut caps (6, 6) exceed the inner caps {}".format
    assert reasons == [too_small((4, 4)), too_small((4, 4)), too_small((6, 5)),
                       too_small((5, 6)), None, None]
    assert [c[1:] for c in calls if c[0] is m] == [
        (4, 2, None), (4, 2, None), (6, 2, None), (5, 2, None), (6, 6, None)]


def _off_line_chain():
    """The simples of 1 -a-> 2 -b-> 3 with a at weight 1 and b at weight 2:
    Ext¹ at (1, -1) and (1, -2) lie on no one line through the origin."""
    pres = DgCategoryPresentation(["O1", "O2", "O3"])
    for i in (1, 2, 3):
        pres.add_morphism(f"e{i}", f"O{i}", f"O{i}", identity=True)
    pres.add_morphism("a", "O1", "O2", wt=1)
    pres.add_morphism("b", "O2", "O3", wt=2)
    pres.add_morphism("ab", "O1", "O3", wt=3)
    pres.set_then("a", "b", {"ab": 1})
    alg = category_algebra(pres, F, name="1 -1-> 2 -2-> 3")
    return {"algebra": alg, "module": M.sum_of_simples(alg, ["O1", "O2", "O3"])}


def _partly_known_simple():
    """S(O1) over 1 -> 2 whose space claims nothing beyond its cell."""
    alg = M.path_chain_algebra(F, 2)
    m = _simple_at(alg, "O1", 0, 0)
    m.space.zero_outside = False
    m.space.known_cols = {}
    return {"algebra": alg, "module": m}


@pytest.mark.parametrize("build,cap,reason,model", [
    (lambda: _koszul(5), 3, "slots cycle at object 0", "witness"),
    (lambda: _triangular(7), 2, "uncut caps (6, 6) exceed the inner caps (4, 4)",
     "minimal"),
    (_off_line_chain, 1, "uncut H(E): class at (1, -2) off its line", "minimal"),
    (_partly_known_simple, 2, "the algebra or the module is not fully known",
     "minimal"),
], ids=["cycle", "caps", "off line", "not known"])
def test_diagnostics_say_why_the_inner_model_is_built_per_call(
        build, cap, reason, model):
    """``diagnostics["cap_free"]`` names why a module has no kept inner
    model, and a second call reads the same reason."""
    sc = build()
    for _ in range(2):
        r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
        assert r.diagnostics["cap_free"] == reason
        assert r.inner_used == model


def test_the_off_line_chain_keeps_its_refusal_and_builds_per_call():
    """The uncut H(E) fails purity at (1, -2), past outer cap 1: the call
    takes the minimal model per call at cap 1 and the bar model at cap 2,
    as a module without the route would."""
    sc = _off_line_chain()
    a, m = sc["algebra"], sc["module"]
    assert complete._uncut_caps(m) == (2, 3)
    got = [complete.double_centralizer(a, m, (c, c)) for c in (1, 2, 1)]
    assert [r.inner_used for r in got] == ["minimal", "bar", "minimal"]
    assert m._cap_free == "uncut H(E): class at (1, -2) off its line"


def test_a_module_that_is_not_object_homogeneous_has_no_reduced_bar():
    """S1 ⊕ S2 over 1 -> 2 in the basis s1 + s2, s1 - s2: the idempotents
    do not fix its keys, so there are no slots to chain."""
    alg = M.path_chain_algebra(F, 2)
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["u", "v"])
    sp.mark_all_complete()
    u, v = sp.keys(0, 0)
    half = F.of("1/2")
    e1, e2 = (next(iter(alg.idempotents[o])) for o in ("O1", "O2"))
    action = {(u, e1): {u: half, v: half}, (v, e1): {u: half, v: half},
              (u, e2): {u: half, v: -half}, (v, e2): {u: -half, v: half}}
    m = DgModule(alg, CochainComplex(sp), action, side="right", name="rotated")
    assert m.validate().ok
    assert complete._uncut_caps(m) == "no reduced bar"
