"""The minimal inner model: a completion over Ext(m, m) instead of over E.

A module m that is semisimple (``bar._minimal_resolution``) has a minimal
resolution P, and Ext(m, m) = Hom_a(P, m) with the Yoneda product is the
witness model.  Where every class up to the outer weight cap lies on one
line d = c·w and the module on a parallel one, every transferred m_n with
n >= 3 vanishes by degree, so that model is E's minimal model.  The
completion is invariant under that quasi-isomorphism, so it must give the
bar model's tables wherever both certify.  The class algebra H(E) with the
product p∘μ∘(i⊗i) (``oracles.ClassAlgebra``) is the reference for the
witness model's product.
"""
import pytest

from dgcomplete import bar, complete
from dgcomplete import models as M
from dgcomplete.bar import (
    _minimal_resolution, _purity, _reduction_data, end_algebra, reduction_data,
    witness_model,
)
from dgcomplete.dg import (
    DgCategoryPresentation, DgModule, category_algebra, direct_sum_modules,
    right_ideal_module,
)
from dgcomplete.graded import BiGradedSpace, CochainComplex, Window
from dgcomplete.linalg import RATIONALS as F
from oracles import KNOWN_WEIGHTS, ClassAlgebra


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


# every job shape with a non-strict inner model the completion_qq deck
# draws, under any seed (so those of seeds 0 and 7): koszul_kx (ring wmax,
# cap) and triangular (length, cap), plus k[x,y] and k[x,y,z] along the
# origin and a module with keys at two weights; all take the witness model
SHAPES = (
    [(f"koszul_kx w{w} cap 3", lambda w=w: _koszul(w), 3, "witness")
     for w in range(4, 8)]
    + [("koszul_kx w4 cap 4", lambda: _koszul(4), 4, "witness"),
       ("koszul_kx w5 cap 5", lambda: _koszul(5), 5, "witness"),
       ("koszul_kx w6 cap 6", lambda: _koszul(6), 6, "witness"),
       ("koszul_kx w7 cap 6", lambda: _koszul(7), 6, "witness")]
    + [(f"triangular_{n} cap {c}", lambda n=n: _triangular(n), c, "witness")
       for n, c in [(n, c) for n in (2, 3, 4) for c in (2, 3, 4)]
       + [(5, 2), (5, 3), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4)]]
    + [("k[x,y] w5 cap 3", lambda: _origin(["x", "y"], 5), 3, "witness"),
       ("k[x,y] w6 cap 4", lambda: _origin(["x", "y"], 6), 4, "witness"),
       ("k[x,y,z] w4 cap 2", lambda: _origin(["x", "y", "z"], 4), 2, "witness"),
       ("k[x,y,z] w5 cap 3", lambda: _origin(["x", "y", "z"], 5), 3, "witness"),
       ("staggered simples of 1 -> 2 cap 3", _staggered_simples, 3, "witness")]
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
    assert r.diagnostics["witness"] is None
    bar = _forced_bar(sc["module"], cap)
    assert len(r.completed.basis_keys()) <= len(bar.basis_keys())
    hm = r.cohomology()
    hb = bar.complex.cohomology(r.window)
    both = [c for c in r.window.grid()
            if hm.certificate.exact_at(*c) and hb.certificate.exact_at(*c)]
    assert both
    for c in both:
        assert hm.dim(*c) == hb.dim(*c), c
    # the witness model knows the columns E knows up to the cap, so it
    # certifies the same cells
    assert hm.certificate.status == hb.certificate.status


def _spread(m):
    ws = [k[1] for k in m.basis_keys()]
    return max(ws) - min(ws)


def _columns_agree(small, big, cap):
    """E built at a small weight cap and at a large one agree on every
    column |u| <= cap: its keys per cell, d and known degrees; past both
    caps' columns they know the same; and so do their class algebras at
    cap, class for class."""
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
        assert ss.known_degrees([u]) == bs.known_degrees([u]), u
        assert ss.column_complete(u) == bs.column_complete(u), u
    # past both caps' columns each knows only what its certificate's edge says
    far = [u for u in KNOWN_WEIGHTS if abs(u) > cap + 2]
    assert ss.known_degrees(far) == bs.known_degrees(far)
    assert ss.fully_known() == bs.fully_known()
    hs, hb = (e.complex.cohomology(wmax=cap) for e in (small, big))
    assert hs.certificate.status == hb.certificate.status
    ms, mb = ClassAlgebra(small, cap), ClassAlgebra(big, cap)
    assert _purity(ms.space, small.module) == _purity(mb.space, big.module)
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
    """E read only to the outer cap plus the module's spread is E at the
    inner caps on the columns the outer bar reads: every reduced bar tuple
    in column u has slot weight sum at most spread + |u|.  The witness
    model's resolution is cut at the same weight."""
    m = build()["module"]
    w_read = min(cap + 2, cap + _spread(m))
    small = end_algebra(m, cap + 2, w_cap=w_read)
    big = end_algebra(m, cap + 2, w_cap=cap + 2)
    _columns_agree(small, big, cap)


@pytest.mark.parametrize("build,cap,w_read,gens,classes", [
    (lambda: _origin(["x", "y"], 6), 4, 4, 4, 4), (_staggered_simples, 3, 4, 3, 3)],
    ids=["k[x,y] w6 cap 4", "staggered simples cap 3"])
def test_the_witness_path_builds_p_only_to_the_cap_plus_the_spread(
        build, cap, w_read, gens, classes):
    """The witness model reads P to length and weight cap the outer cap plus
    the module's spread: for k over k[x, y] (spread 0) the Koszul complex,
    4 generators and 4 classes, where E at the inner caps has 1352 keys; S1
    ⊕ S2[1, -1] over 1 -> 2 (spread 1) resolves to 3 generators, S1's
    second at weight 1 past the cap, and its class at (2, -2)."""
    sc = build()
    r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
    assert r.inner_used == "witness"
    assert r.inner.caps == (w_read, w_read)
    assert len(r.inner._p.labels) == gens
    assert len(r.inner.basis_keys()) == classes


def _model(sc, cap):
    model = ClassAlgebra(end_algebra(sc["module"], cap + 2, w_cap=cap + 2), cap)
    record = _purity(model.space, sc["module"])
    assert record["reason"] is None, record
    return model


def _witness(sc, cap):
    model, record = witness_model(sc["module"], cap)
    assert model is not None, record
    return model


MODELS = {
    "koszul_kx w7 cap 6": lambda: _model(_koszul(7), 6),
    "triangular_1234 cap 4": lambda: _model(_triangular(4), 4),
    "k[x,y] w5 cap 3": lambda: _model(_origin(["x", "y"], 5), 3),
    "k[x,y,z] w4 cap 2": lambda: _model(_origin(["x", "y", "z"], 4), 2),
}
WITNESSES = {
    "koszul_kx w7 cap 6": lambda: _witness(_koszul(7), 6),
    "triangular_1234 cap 4": lambda: _witness(_triangular(4), 4),
    "k[x,y] w5 cap 3": lambda: _witness(_origin(["x", "y"], 5), 3),
    "k[x,y,z] w4 cap 2": lambda: _witness(_origin(["x", "y", "z"], 4), 2),
}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS.keys())
def test_the_product_is_the_product_of_representatives_up_to_a_boundary(build):
    """The reference the witness model is checked against: in the class
    algebra, i∘m₂(a, b) - i(a)·i(b) is a coboundary of E for every pair of
    classes whose product lands within its weights, found by an independent
    solve of d x = that difference; and it is a unital associative graded
    algebra with the module acting on it."""
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
                    s = f.add(diff.get(x, f.zero), f.neg(f.mul(c, v)))
                    if f.is_zero(s):
                        diff.pop(x)
                    else:
                        diff[x] = s
            block = e.complex.differential_block(d - 1, w)
            assert block.solve({x[2]: v for x, v in diff.items()}) is not None
            checked += 1
    assert checked > len(model.basis_keys())


def test_classes_of_k_over_k_x_y_form_an_exterior_algebra():
    """Ext of k over k[x, y] is Λ[ε₁, ε₂]: ε_i² = 0 and ε₁ε₂ = -ε₂ε₁ ≠ 0,
    read off the Koszul complex, found with no recipe."""
    model = WITNESSES["k[x,y] w5 cap 3"]()
    assert {c: model.space.dim(*c) for c in model.space.cells} == {
        (0, 0): 1, (1, -1): 2, (2, -2): 1}
    e1, e2 = model.space.keys(1, -1)
    top = model.space.keys(2, -2)[0]
    assert model.basis_product(e1, e1) == model.basis_product(e2, e2) == {}
    prod = model.basis_product(e1, e2)
    assert set(prod) == {top}
    assert model.basis_product(e2, e1) == {top: -prod[top]}


@pytest.mark.parametrize("build", WITNESSES.values(), ids=WITNESSES.keys())
def test_reduction_data_of_the_model_matches_the_product_scan(build):
    """The witness model's reduction data, read off each class's ends, is
    what asking its products gives."""
    model = build()
    red, scan = reduction_data(model), _reduction_data(model)
    assert (red.sign, red.idempotents, red.lobj, red.robj) == (
        scan.sign, scan.idempotents, scan.lobj, scan.robj)


def test_a_class_off_the_line_falls_back_to_the_bar_model():
    """k[x]/(x^5) has Ext² at (2, -5): at outer cap 6 it lies within the
    weights the outer bar reads, off the line d = -w, so the witness model
    is refused and the call takes E itself at the inner caps, with the
    record of the check in the diagnostics."""
    sc = _koszul(4)
    witness, record = witness_model(sc["module"], 6)
    assert witness is None and record["off_line"] == (2, -5)
    r = complete.double_centralizer(sc["algebra"], sc["module"], (6, 6),
                                    inner_caps=(8, 8))
    assert r.inner_used == "bar"
    record = r.diagnostics["minimal"]
    assert record["off_line"] == (2, -5) and record["slope"] == -1
    assert "(2, -5)" in record["reason"]
    assert r.diagnostics["witness"] == record["reason"]
    # the bar model is E at the inner caps
    assert r.inner.space.cells == end_algebra(sc["module"], 8, w_cap=8).space.cells
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


@pytest.mark.parametrize("n", [2, 4, 7])
def test_a_cut_that_leaves_weight_0_alone_keeps_the_negative_sign(n):
    """At cap 0 the witness model of the simples of triangular_n holds only
    its n identity classes; P is positively weighted and the simples sit at
    one weight, so no class of REnd is positive and the model's sign is -1
    all the same.  The completion then certifies its weight-0 column: the n
    idempotents, and nothing in another degree."""
    sc = _triangular(n)
    r = complete.double_centralizer(sc["algebra"], sc["module"], (0, 0))
    assert r.inner_used == "witness" and reduction_data(r.inner).sign == -1
    assert {w for (_, w) in r.inner.space.cells} == {0}
    h = r.cohomology()
    assert {c for c, ok in h.certificate.status.items() if ok} == {
        (d, 0) for d in range(-2, 4)}
    assert h.dims_by_cell() == {(0, 0): n}


def test_koszul_kx_completes_at_cap_8_over_nine_outer_elements():
    sc = _koszul(10)
    r = complete.double_centralizer(sc["algebra"], sc["module"], (8, 8))
    assert r.inner_used == "witness"
    assert len(r.inner.basis_keys()) == 2
    assert len(r.completed.basis_keys()) == 9
    h = r.cohomology(Window(-2, 2, 8))
    assert {c: h.dim(*c) for c in h.space.cells if h.certificate.exact_at(*c)} == {
        (0, w): 1 for w in range(0, 9)}


# -- the resolution and the witness models kept on a module -----------------

def _counted_ends(monkeypatch):
    """The (module, n_max, w_cap, reduced) of every end_algebra a
    completion builds, in call order: the outer model; the bar model's E
    goes past it and is counted by ``_counted_schemes``."""
    calls = []
    build = complete.end_algebra

    def counted(m, n_max, w_cap=None, reduced=None, name=""):
        calls.append((m, n_max, w_cap, reduced))
        return build(m, n_max, w_cap=w_cap, reduced=reduced, name=name)

    monkeypatch.setattr(complete, "end_algebra", counted)
    return calls


def _counted_schemes(monkeypatch):
    """The (module, n_max, w_cap, reduced) of every bar scheme a completion
    builds, in build order: one per bar model's E over m, which keeps no
    scheme, and one per outer scheme a module over the opposite keeps."""
    calls = []
    build = bar._BarScheme

    def counted(m, n_max, w_cap, reduced):
        calls.append((m, n_max, w_cap, reduced))
        return build(m, n_max, w_cap, reduced)

    monkeypatch.setattr(bar, "_BarScheme", counted)
    return calls


def _counted_builds(monkeypatch):
    """The (module, length, weight cap) of every minimal resolution built,
    in build order."""
    calls = []
    build = bar._resolve

    def counted(m, length, cap):
        calls.append((m, length, cap))
        return build(m, length, cap)

    monkeypatch.setattr(bar, "_resolve", counted)
    return calls


def _counted_witnesses(monkeypatch):
    """The (module, w_max) of every witness model a completion builds."""
    calls = []
    build = complete.witness_model

    def counted(m, w_max):
        calls.append((m, w_max))
        return build(m, w_max)

    monkeypatch.setattr(complete, "witness_model", counted)
    return calls


def _answer(r):
    h = r.cohomology()
    return (h.dims_by_cell(), h.certificate.status, r.inner_used,
            r.diagnostics["minimal"], r.diagnostics["witness"])


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
    """Completions along one module of a finite bar at caps 1-5 build m's
    minimal resolution only past its longest build, to the cap plus m's
    spread (once per cap rising, once falling), and cut it per call.  Each
    cap builds one witness model, which m keeps, and one outer model, whose
    bar scheme its module over the opposite keeps; no E over m is built.
    Each call answers what a fresh module answers with no cap read as an
    uncut one, its resolution and its outer schemes built at the asked caps
    (forced here by refusing the route).

    At cap 1 the staggered simples' witness model reads P to weight 2, the
    cap plus the spread, so it holds the class at (2, -2) and takes the
    negative weight sign of REnd(m): its outer bar certifies the weights -1
    and 0, 12 of 18 cells."""
    caps = [1, 2, 3, 4, 5] if order == "rising" else [5, 4, 3, 2, 1]
    ends, calls = _counted_ends(monkeypatch), _counted_schemes(monkeypatch)
    builds, witnesses = _counted_builds(monkeypatch), _counted_witnesses(monkeypatch)
    sc = build()
    a, m = sc["algebra"], sc["module"]
    results = [complete.double_centralizer(a, m, (c, c)) for c in caps]
    grown = caps if order == "rising" else caps[:1]
    assert builds == [(m, c + _spread(m), c + _spread(m)) for c in grown]
    assert bar._uncut_caps(m) == uncut
    assert witnesses == [(m, c) for c in caps]
    assert [c for c in calls if c[0] is m] == []
    overs = [r.inner.module_over_opposite() for r in results]
    assert ends == [(over, c, c, True) for over, c in zip(overs, caps)]
    assert calls == [(over, c, c, True) for over, c in zip(overs, caps)]
    assert all(r.diagnostics["witness"] is None for r in results)
    if build is _staggered_simples:
        h = results[caps.index(1)].cohomology()
        cert = [c for c, ok in h.certificate.status.items() if ok]
        assert {w for _, w in cert} == {-1, 0}
        assert (len(cert), len(h.certificate.status)) == (12, 18)
    # the reference reads no cap as an uncut one, its outer schemes included
    monkeypatch.setattr(bar, "_uncut_caps", lambda m: "refused")
    for c, r in zip(caps, results):
        fresh = build()
        per_call = complete.double_centralizer(fresh["algebra"], fresh["module"], (c, c))
        assert fresh["module"]._resolved[:2] == (c + _spread(m),) * 2
        assert _answer(r) == _answer(per_call)


def test_koszul_kx_never_builds_the_uncut_model(monkeypatch):
    """k over k[x]: the slot x is a loop, so the bar is infinite and so is
    k's resolution.  A call takes the witness model at its outer weight cap,
    which k keeps per cap, over k's resolution cut from its longest build,
    which only a longer cap builds again, and builds no inner E at all: the
    outer bar is the only one built, over the kept model's module, which
    keeps its scheme per caps (ε² = 0 in Ext(k, k), but ε is a loop, so
    that bar is infinite too)."""
    calls, schemes = _counted_ends(monkeypatch), _counted_schemes(monkeypatch)
    builds, witnesses = _counted_builds(monkeypatch), _counted_witnesses(monkeypatch)
    sc = _koszul(7)
    a, m = sc["algebra"], sc["module"]
    caps = [3, 6, 4, 5, 3]
    overs = []
    for c in caps:
        r = complete.double_centralizer(a, m, (c, c))
        assert r.inner_used == "witness" and r.diagnostics["witness"] is None
        overs.append(r.inner.module_over_opposite())
    assert witnesses == [(m, c) for c in caps[:4]]
    assert builds == [(m, 3, 3), (m, 6, 6)]
    assert overs[4] is overs[0] and len({id(o) for o in overs}) == 4
    assert calls == [(over, c, c, True) for over, c in zip(overs, caps)]
    assert schemes == [(over, c, c, True) for over, c in zip(overs, caps[:4])]
    assert bar._uncut_caps(m) == "slots cycle at object 0"


def test_triangular_7_takes_the_witness_model_at_any_inner_caps(monkeypatch):
    """Inner caps bound only the bar model: triangular_7 along its simples
    takes the witness model at inner caps (4, 4) as at (6, 6), builds its
    resolution once, at the outer caps (2, 2), where P has all 13 of its
    generators and the uncut bar 127 tuples, and builds no E over m."""
    ends, calls = _counted_ends(monkeypatch), _counted_schemes(monkeypatch)
    builds = _counted_builds(monkeypatch)
    sc = _triangular(7)
    a, m = sc["algebra"], sc["module"]
    for inner in [(4, 4), (4, 4), (6, 5), (5, 6), (6, 6), (4, 4)]:
        r = complete.double_centralizer(a, m, (2, 2), inner_caps=inner)
        assert r.inner_used == "witness" and r.diagnostics["witness"] is None
    assert builds == [(m, 2, 2)] and len(m._resolved[2].labels) == 13
    assert [c for c in calls if c[0] is m] == [] and not m._schemes
    assert [c[1:] for c in ends] == [(2, 2, True)] * 6
    assert list(m._witnesses) == [2]


def _check_bidegrees(p):
    """Each term t·(c·b) of d(g) keeps the bidegree, |t| + |b| = |g| + 1
    and w_t + w_b = w_g, as ``models._check_map`` checks a free complex's,
    and reaches a generator of g's key one step shorter."""
    for g, t, x, c in zip(p.src, p.dst, p.kid, p.coef):
        b = p.keys[x]
        assert (p.degs[t] + b[0], p.wts[t] + b[1]) == (p.degs[g] + 1, p.wts[g]), (
            p.labels[g], p.labels[t])
        assert (p.labels[t][0], p.labels[t][1] + 1) == p.labels[g][:2]


@pytest.mark.parametrize("n", range(2, 8))
def test_the_simples_of_triangular_n_resolve_to_2n_minus_1_generators(n):
    """triangular_n is the path algebra of 1 -> ... -> n, which is
    hereditary: its n simples resolve in one step, n generators at (0, 0)
    and n - 1 at (-1, 1), where the uncut bar has 2^n - 1 tuples."""
    m = _triangular(n)["module"]
    p = _minimal_resolution(m, 8, 8)
    _check_bidegrees(p)
    assert sorted(zip(p.degs, p.wts)) == [(-1, 1)] * (n - 1) + [(0, 0)] * n
    assert len(bar._bar_scheme(m, n - 1, n - 1, True)[0].labels) == 2 ** n - 1


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
    m.space.known_cols = {}
    m.space.unknown = (None, None)
    return {"algebra": alg, "module": m}


def _dg_line():
    """k over the dg line, whose d sends its weight-1 generator ξ to η."""
    alg = M._dg_line_algebra(F)
    sp = BiGradedSpace(F)
    sp.add_cell(0, 0, ["k"])
    mk = sp.key_of(0, 0, "k")
    return {"algebra": alg,
            "module": DgModule(alg, CochainComplex(sp), {(mk, k): {mk: 1} for k in alg.unit},
                               side="right", name="k")}


def _arrow_acting():
    """e1·A over 1 -> 2, the projective at 1, without its projective
    witness: the arrow acts on it, so it is not semisimple."""
    alg = M.path_chain_algebra(F, 2)
    p1 = right_ideal_module(alg, alg.idempotents["O1"])
    return {"algebra": alg,
            "module": DgModule(alg, p1.complex, p1.action, name="e1·A")}


def _rotated():
    """S1 ⊕ S2 over 1 -> 2 in the basis s1 + s2, s1 - s2: the idempotents
    do not fix its keys."""
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
    return {"algebra": alg, "module": m}


def _negative_arrows():
    """The simples of 1 -> 2 with the arrow at weight -1."""
    pres = DgCategoryPresentation(["O1", "O2"])
    for i in (1, 2):
        pres.add_morphism(f"e{i}", f"O{i}", f"O{i}", identity=True)
    pres.add_morphism("a", "O1", "O2", wt=-1)
    alg = category_algebra(pres, F, name="1 -(-1)-> 2")
    return {"algebra": alg, "module": M.sum_of_simples(alg, ["O1", "O2"])}


# the modules with no minimal resolution, each with the condition it fails
REFUSED = [
    ("d not zero", _dg_line, "d is not zero on the algebra or the module"),
    ("not known", _partly_known_simple, "the algebra or the module is not fully known"),
    ("arrow acts", _arrow_acting, "of nonzero weight acts on the key"),
    ("rotated", _rotated, "the module has no reduction data"),
    ("negative weights", _negative_arrows, "the algebra has no positive reduction data"),
]


@pytest.mark.parametrize("build,reason", [r[1:] for r in REFUSED],
                         ids=[r[0] for r in REFUSED])
def test_a_module_that_is_not_semisimple_has_no_minimal_resolution(
        monkeypatch, build, reason):
    """The refusal names the condition, and m keeps it: a second call, at
    larger caps, raises it again without checking m again."""
    checks = []
    check = bar._semisimple_refusal
    monkeypatch.setattr(bar, "_semisimple_refusal",
                        lambda m: checks.append(m) or check(m))
    m = build()["module"]
    for caps in ((2, 2), (3, 3)):
        with pytest.raises(ValueError, match=reason):
            _minimal_resolution(m, *caps)
    assert checks == [m] and reason in m._resolved


# the refused modules whose E the reduced outer bar can reduce over: over
# e1·A and the rotated module E has weight-0 classes outside degree 0, so
# their completions raise the reduced bar's ValueError, as they always have
PER_CALL = [r for r in REFUSED if r[1] not in (_arrow_acting, _rotated)]


@pytest.mark.parametrize("build,cap,reason", [
    (_off_line_chain, 2, "class at (1, -2) off its line")] + [
    (build, 2, reason) for _, build, reason in PER_CALL],
    ids=["off line"] + [r[0] for r in PER_CALL])
def test_diagnostics_say_why_the_inner_model_is_built_per_call(
        build, cap, reason):
    """``diagnostics["witness"]`` names why a module takes the bar model,
    built per call: why it has no minimal resolution, or the purity check's reason,
    whose record ``diagnostics["minimal"]`` holds; a second call reads the
    same reason."""
    sc = build()
    for _ in range(2):
        r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
        assert r.inner_used == "bar"
        assert reason in r.diagnostics["witness"]
        purity = r.diagnostics["minimal"]
        assert (purity or {}).get("reason") == (reason if purity else None)


@pytest.mark.parametrize("cap,cells", [(1, 18), (2, 30)])
@pytest.mark.parametrize("build,certified", [(_dg_line, True), (_partly_known_simple, False)],
                         ids=["d not zero", "not known"])
def test_a_refused_module_with_a_pure_e_keeps_its_answers(build, certified, cap, cells):
    """k over the dg line and the partly known simple have a pure H(E) but
    no minimal resolution, so they take the bar model.  Their answers are
    the ones the deleted per-call minimal model gave: the dg line certifies
    all 18 cells at cap 1 and all 30 at cap 2, k at (0, 0) and zero
    elsewhere; the partly known simple holds k at (0, 0) and certifies
    nothing."""
    sc = build()
    r = complete.double_centralizer(sc["algebra"], sc["module"], (cap, cap))
    h = r.cohomology()
    status = h.certificate.status
    assert r.inner_used == "bar" and h.dims_by_cell() == {(0, 0): 1}
    assert len(status) == cells and all(ok == certified for ok in status.values())
    assert {c: h.dim(*c) for c in status} == {c: int(c == (0, 0)) for c in status}


def test_the_off_line_chain_keeps_its_refusal_and_builds_per_call():
    """The witness model at cap 2 fails purity at (1, -2), a class cap 1
    cuts: m keeps the refusal per cap, and each call at cap 2 takes the bar
    model per call, as each at cap 1 reads the kept witness model."""
    sc = _off_line_chain()
    a, m = sc["algebra"], sc["module"]
    assert bar._uncut_caps(m) == (2, 3)
    got = [complete.double_centralizer(a, m, (c, c)) for c in (1, 2, 1, 2)]
    assert [r.inner_used for r in got] == ["witness", "bar", "witness", "bar"]
    assert got[2].inner is got[0].inner and got[3].inner is not got[1].inner
    model, record = m._witnesses[2]
    assert model is None and record["reason"] == "class at (1, -2) off its line"


def test_a_module_that_is_not_object_homogeneous_has_no_reduced_bar():
    """S1 ⊕ S2 over 1 -> 2 in the basis s1 + s2, s1 - s2: the idempotents
    do not fix its keys, so there are no slots to chain, and no minimal
    resolution is built."""
    m = _rotated()["module"]
    assert m.validate().ok
    assert bar._uncut_caps(m) == "no reduced bar"
    assert "no reduction data" in witness_model(m, 2)[1]
