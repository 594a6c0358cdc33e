"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner endomorphism algebra, opposed again.
The inner model defaults to the convolution algebra from the bar calculus;
whenever the honest module endomorphisms embed into it quasi-isomorphically
(checked per run on certified bidegrees, never assumed), the strict model
replaces it.  That swap keeps the outer complex small and weight-connected
for ideal columns and regular modules, where the convolution model would
force an intractable unreduced enumeration.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .bar import (
    EndAlgebra, StrictEndAlgebra, _BarScheme, _build_space, _module_objects,
    _sgn, derived_hom, embed_strict, end_algebra, reduction_data,
    stabilization_scan, strict_end_algebra,
)
from .dg import (
    AlgebraMorphism, DgAlgebra, DgModule, direct_sum_modules, regular_module,
    right_ideal_module,
)
from .graded import (
    BiGradedSpace, CochainComplex, Cohomology, Elt, GradedMap, Key, Window,
    induced_rank,
)

Caps = Tuple[int, int]


def _check_caps(caps: Caps, what: str) -> Caps:
    n, w = int(caps[0]), int(caps[1])
    if n < 0 or w < 0:
        raise ValueError(f"{what} caps must be non-negative")
    return (n, w)


def _is_regular(a: DgAlgebra, m: DgModule) -> bool:
    """Whether m is a on the nose: same complex, action equal to the product."""
    if m.complex is not a.complex or m.side != "right":
        return False
    action = {pair: e for pair, e in m.action.items() if e}
    return action == a.mult


def _module_over_strict_opposite(strict: StrictEndAlgebra
                                 ) -> Tuple[DgAlgebra, DgModule]:
    """The defining module as a right module over the opposite of its strict
    endomorphism algebra, acting by signed evaluation."""
    m = strict.module
    f = m.field
    op = strict.opposite()
    action: Dict[Tuple[Key, Key], Elt] = {}
    for fk in strict.basis_keys():
        g = strict.map_of[fk]
        for mk, val in g.items():
            s = f.of(-1) if (fk[0] % 2 and mk[0] % 2) else f.one
            e = {q: f.mul(s, c) for q, c in val.items()}
            if e:
                action[(mk, fk)] = e
    return op, DgModule(op, m.complex, action, side="right",
                        name=f"{m.name}^" if m.name else "")


def _probe_cells(cxs: Sequence[CochainComplex]) -> List[Tuple[int, int]]:
    cells = {dw for cx in cxs for dw in cx.space.cells}
    probe = set()
    for (d, w) in cells:
        probe.update({(d - 1, w), (d, w), (d + 1, w)})
    return sorted(probe)


def _strict_check(strict: StrictEndAlgebra, bar: EndAlgebra) -> Dict:
    """Compare the strict endomorphisms with the convolution model.

    The embedding must induce full-rank maps on cohomology and the dimension
    tables must agree wherever either model has cells; one uncertified
    bidegree in that range vetoes the swap.
    """
    emb = embed_strict(strict, bar)
    hs = strict.complex.cohomology()
    hb = bar.complex.cohomology()
    rows: Dict[Tuple[int, int], Dict] = {}
    ok = True
    for (d, w) in _probe_cells([strict.complex, bar.complex]):
        ds = hs.dim(d, w)
        db = hb.dim(d, w)
        certified = (hb.certificate.exact_at(d, w)
                     and hs.certificate.exact_at(d, w))
        if ds == 0 and db == 0:
            if not certified:
                ok = False
            continue
        rank = induced_rank(emb, strict.complex, bar.complex, d, w)
        rows[(d, w)] = {"strict": ds, "bar": db, "rank": rank,
                        "certified": certified}
        if not (certified and ds == db == rank):
            ok = False
    return {"ok": ok, "rows": rows}


def _right_mult_map(a: DgAlgebra, m: DgModule, outer: EndAlgebra) -> GradedMap:
    """Algebra elements as length-zero operators on the outer module.

    The twist (-1)^{|a||m|} makes operator composition match the opposed
    convolution product, so the assembled map is multiplicative into the
    completion rather than into its opposite.
    """
    f = a.field
    g = GradedMap(a.space, outer.space, 0, 0)
    osp = outer.space
    for ka in a.basis_keys():
        for mk in m.basis_keys():
            val = m.act({mk: f.one}, {ka: f.one})
            if not val:
                continue
            s = f.of(-1) if (ka[0] % 2 and mk[0] % 2) else f.one
            for q, c in val.items():
                tk = osp.key_of(q[0] - mk[0], q[1] - mk[1], (q, (mk, ())))
                g.add_entry(ka, tk, f.mul(s, c))
    return g


def _unreduced_fit(n_keys: int, slot_count: int, n_max: int,
                   budget: int) -> Tuple[int, int]:
    """Largest tuple length whose estimated cell count stays in budget."""
    best, est = 0, n_keys * n_keys
    labels = 1
    for p in range(1, n_max + 1):
        labels = labels * max(slot_count, 1) + 1
        cells = n_keys * n_keys * labels
        if cells > budget:
            break
        best, est = p, cells
    return best, est


def _dims_in(h: Cohomology, win: Window) -> Dict[Tuple[int, int], int]:
    return {dw: d for dw, d in h.dims_by_cell().items()
            if d and win.contains(*dw)}


class CompletionResult:
    """A completed algebra with its inner model, unit map, and diagnostics."""

    def __init__(self, algebra: DgAlgebra, modules: List[DgModule],
                 module: DgModule, inner_bar: EndAlgebra,
                 inner_strict: StrictEndAlgebra, inner_used: str,
                 base: DgAlgebra, over: DgModule, outer: EndAlgebra,
                 completed: DgAlgebra, iota: AlgebraMorphism,
                 caps: Caps, inner_caps: Caps, window: Window,
                 reduced_outer: bool, diagnostics: Dict):
        self.algebra = algebra
        self.modules = modules
        self.module = module
        self.inner_bar = inner_bar
        self.inner_strict = inner_strict
        self.inner_used = inner_used
        self.base = base
        self.over = over
        self.outer = outer
        self.completed = completed
        self.iota = iota
        self.caps = caps
        self.inner_caps = inner_caps
        self.window = window
        self.reduced_outer = reduced_outer
        self.diagnostics = diagnostics

    @property
    def inner(self):
        if self.inner_used == "strict":
            return self.inner_strict
        return self.inner_bar

    def cohomology(self, window: Optional[Window] = None) -> Cohomology:
        return self.completed.complex.cohomology(window=window or self.window)

    def h_dims(self, window: Optional[Window] = None
               ) -> Dict[Tuple[int, int], int]:
        win = window or self.window
        return _dims_in(self.cohomology(win), win)

    def corner_cohomology(self, idem: Elt,
                          window: Optional[Window] = None) -> Cohomology:
        """Cohomology of the operator block within an idempotent's part of
        the module.  Needs the strict inner model: its slots act linearly,
        which is what makes the block a subcomplex."""
        f = self.algebra.field
        m = self.module
        keep = set()
        for mk in m.basis_keys():
            hit = m.act({mk: f.one}, idem)
            if hit == {mk: f.one}:
                keep.add(mk)
            elif hit:
                raise ValueError("corner idempotent does not split the module")
        if keep == set(m.basis_keys()):
            return self.cohomology(window)
        if self.inner_used != "strict":
            raise ValueError("corner extraction needs the strict inner model")
        osp = self.outer.space
        sub = BiGradedSpace(f)
        chosen: Dict[Tuple[int, int], List] = {}
        for (d, w), labels in sorted(osp.cells.items()):
            for lab in labels:
                q, (mk, al) = lab
                if q in keep and mk in keep:
                    chosen.setdefault((d, w), []).append(lab)
        for (d, w), labels in sorted(chosen.items()):
            sub.add_cell(d, w, labels)
        sub.known_cols = dict(osp.known_cols)
        sub.zero_outside = osp.zero_outside
        sub.known_zero_below = osp.known_zero_below
        sub.known_zero_above = osp.known_zero_above
        cx = CochainComplex(sub)
        d_full = self.completed.complex.d
        for (d, w), labels in chosen.items():
            for lab in labels:
                src = osp.key_of(d, w, lab)
                for tk, c in d_full.column(src).items():
                    tlab = osp.label_of(tk)
                    q2, (mk2, _) = tlab
                    if q2 not in keep or mk2 not in keep:
                        raise RuntimeError("corner is not a subcomplex")
                    cx.d.add_entry(sub.key_of(d, w, lab),
                                   sub.key_of(tk[0], tk[1], tlab), c)
        return cx.cohomology(window=window or self.window)


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    Certificates on the result hold exactly where the outer scheme could see
    complete inner columns, so the safety margin between the caps is what
    keeps the certified window honest.
    """
    if m.algebra is not a:
        raise ValueError("module is not over the algebra being completed")
    if m.side != "right":
        raise ValueError("completion needs a right module")
    n_out, w_out = _check_caps(caps, "outer")
    if inner_caps is None:
        inner_caps = (w_out + 2, w_out + 2)
    n_in, w_in = _check_caps(inner_caps, "inner")
    if w_in < w_out + 2:
        raise ValueError("inner caps must clear the outer weight cap by at least 2")

    inner_bar = end_algebra(m, n_in, w_cap=w_in, name=f"End({m.name})")
    inner_strict = strict_end_algebra(m)
    # the strict complex is the entire space of module endomorphisms
    inner_strict.space.mark_all_complete()
    if _is_regular(a, m):
        # unit and associativity force the strict model to be exact here;
        # the embedding comparison would re-verify a triviality at real cost
        strict_info: Dict = {"ok": True, "rows": {}, "regular": True}
    else:
        strict_info = _strict_check(inner_strict, inner_bar)
    inner_used = "strict" if strict_info["ok"] else "bar"

    if inner_used == "strict":
        base, over = _module_over_strict_opposite(inner_strict)
    else:
        base = inner_bar.opposite()
        over = inner_bar.module_over_opposite()

    outer_caps = (n_out, w_out)
    red = reduction_data(base)
    reduced = red is not None and _module_objects(over, red, "right") is not None
    budget_note = None
    if not reduced:
        fit, est = _unreduced_fit(len(over.basis_keys()),
                                  len(base.basis_keys()), n_out, budget)
        if fit < n_out:
            budget_note = {"requested": n_out, "used": fit,
                           "estimated_cells": est}
            outer_caps = (fit, w_out)

    outer = end_algebra(over, outer_caps[0], w_cap=outer_caps[1],
                        name=f"End²({m.name})")
    completed = outer.opposite()
    completed.name = name or f"completion({m.name})"
    win = window or Window(-max(2, outer_caps[0]),
                           max(2, outer_caps[0]) + 1, w_out)

    scan = None
    if not reduced and outer_caps[0] >= 1:
        lo = outer_caps[0] - 1 if outer_caps[0] > 1 else 1
        pair = sorted({lo, outer_caps[0]})

        def at_cap(c: int) -> Cohomology:
            return end_algebra(over, c, w_cap=outer_caps[1]
                               ).complex.cohomology(window=win)

        scan = stabilization_scan(at_cap, pair) if len(pair) > 1 else None

    h = completed.complex.cohomology(window=win)
    failures = [dw for dw in win.grid()
                if not h.certificate.exact_at(dw[0], dw[1])]
    diagnostics = {
        "strict": strict_info,
        "outer": {"reduced": reduced, "caps_used": outer_caps,
                  "budget": budget_note, "scan": scan},
        "failure_bidegrees": failures if (budget_note or not reduced) else [],
    }

    iota = AlgebraMorphism(a, completed, _right_mult_map(a, m, outer))
    return CompletionResult(a, [m], m, inner_bar, inner_strict, inner_used,
                            base, over, outer, completed, iota,
                            (n_out, w_out), (n_in, w_in), win, reduced,
                            diagnostics)


def completion_along_set(a: DgAlgebra, s: Sequence[DgModule], caps: Caps,
                         inner_caps: Optional[Caps] = None,
                         window: Optional[Window] = None,
                         budget: int = 250_000,
                         name: str = "") -> CompletionResult:
    """Complete along a finite generator set.  The inner algebra of the
    direct sum is the category algebra of derived homs between the pairs,
    so a singleton set agrees with double_centralizer exactly."""
    mods = list(s)
    if not mods:
        raise ValueError("generator set must be nonempty")
    for m in mods:
        if m.algebra is not a:
            raise ValueError("generators must share the algebra being completed")
    if len(mods) == 1:
        return double_centralizer(a, mods[0], caps, inner_caps=inner_caps,
                                  window=window, budget=budget, name=name)
    total = mods[0]
    for m in mods[1:]:
        total = direct_sum_modules(total, m,
                                   name=f"{total.name or 'm'}⊕{m.name or 'm'}")
    r = double_centralizer(a, total, caps, inner_caps=inner_caps,
                           window=window, budget=budget, name=name)
    r.modules = mods
    return r


def kappa_star(r: CompletionResult, n: DgModule, cap: int) -> DgModule:
    """Induce a module along the unit map: bar tuples with a free completed
    slot.  The defining regular module goes to the completion on the nose;
    the induced space makes no completeness claims, so downstream homs over
    the completion rely on stabilization rather than certificates."""
    a = r.algebra
    if n.algebra is not a:
        raise ValueError("kappa_star input must live over the source algebra")
    if n.side != "right":
        raise ValueError("kappa_star takes right modules")
    hat = r.completed
    if _is_regular(a, n):
        return regular_module(hat)
    f = a.field
    hkeys = hat.basis_keys()
    left: Dict[Tuple[Key, Key], Elt] = {}
    for ka in a.basis_keys():
        img = r.iota.apply({ka: f.one})
        if not img:
            continue
        for bk in hkeys:
            val = hat.multiply(img, {bk: f.one})
            if val:
                left[(ka, bk)] = val
    hat_left = DgModule(a, hat.complex, left, side="left",
                        name=f"{hat.name}|unit")

    scheme = _BarScheme(n, cap, cap, None)
    items: List[Tuple[int, int, object]] = []
    for lab in scheme.labels:
        for bk in hkeys:
            items.append((scheme.deg(lab) + bk[0], scheme.wt(lab) + bk[1],
                          (lab[0], lab[1], bk)))
    sp = _build_space(f, items)
    cx = CochainComplex(sp)

    def key3(mk: Key, al: Tuple[Key, ...], bk: Key) -> Key:
        d = scheme.deg((mk, al)) + bk[0]
        w = scheme.wt((mk, al)) + bk[1]
        return sp.key_of(d, w, (mk, al, bk))

    for (d, w), labs in sp.cells.items():
        for (mk, al, bk) in labs:
            src = sp.key_of(d, w, (mk, al, bk))
            for lab2, c in scheme.d_src((mk, al)).items():
                cx.d.add_entry(src, key3(lab2[0], lab2[1], bk), c)
            pd = scheme.prefix_degrees((mk, al))
            if al:
                s = _sgn(f, pd[-2] + 1)
                for bk2, c in hat_left.act_left({al[-1]: f.one},
                                                {bk: f.one}).items():
                    cx.d.add_entry(src, key3(mk, al[:-1], bk2), f.mul(s, c))
            s = _sgn(f, pd[-1])
            for bk2, c in hat.complex.d.column(bk).items():
                cx.d.add_entry(src, key3(mk, al, bk2), f.mul(s, c))

    action: Dict[Tuple[Key, Key], Elt] = {}
    for (d, w), labs in sp.cells.items():
        for (mk, al, bk) in labs:
            src = sp.key_of(d, w, (mk, al, bk))
            for b2 in hkeys:
                out: Elt = {}
                for tk, c in hat.basis_product(bk, b2).items():
                    out[key3(mk, al, tk)] = c
                if out:
                    action[(src, b2)] = out
    return DgModule(hat, cx, action, side="right",
                    name=f"induced({n.name})" if n.name else "induced")


def ff_check(r: CompletionResult, m1: DgModule, m2: DgModule,
             cap: Optional[int] = None) -> Dict:
    """Compare hom dimensions before and after inducing along the unit map.

    Cells are judged where the source-side certificate is exact; equal but
    uncertified cells are reported separately.  Generators whose strict
    endomorphisms match the convolution model count as visibly compact,
    anything else leaves the conclusion labeled as an assumption.
    """
    cap = cap if cap is not None else max(2, r.caps[1])
    win = Window(-cap, cap + 1, cap)
    ha = derived_hom(m1, m2, cap, w_cap=cap).cohomology(window=win)
    k1 = kappa_star(r, m1, cap)
    k2 = kappa_star(r, m2, cap)
    hb = derived_hom(k1, k2, cap, w_cap=cap).cohomology(window=win)
    ta, tb = _dims_in(ha, win), _dims_in(hb, win)
    matches, mismatches, soft, uncertified = [], [], [], []
    for dw in sorted(set(ta) | set(tb)):
        da, db = ta.get(dw, 0), tb.get(dw, 0)
        row = {"cell": dw, "source": da, "completed": db,
               "completed_certified": hb.certificate.exact_at(*dw)}
        if not ha.certificate.exact_at(*dw):
            uncertified.append(row)
        elif da == db:
            (matches if row["completed_certified"] else soft).append(row)
        else:
            mismatches.append(row)

    def visibly_compact(m: DgModule) -> bool:
        if _is_regular(r.algebra, m):
            return True
        if m is r.module:
            return r.inner_used == "strict"
        st = strict_end_algebra(m)
        st.space.mark_all_complete()
        return _strict_check(st, end_algebra(m, r.inner_caps[0],
                                             w_cap=r.inner_caps[1]))["ok"]

    compact = (visibly_compact(m1), visibly_compact(m2))
    label = ("compact generators: hypothesis satisfied" if all(compact)
             else "hypothesis assumed")
    return {"matches": matches, "soft_matches": soft,
            "mismatches": mismatches, "uncertified": uncertified,
            "compact": compact, "hypothesis": label, "ok": not mismatches}


def double_completion_check(r: CompletionResult, caps: Caps,
                            budget: int = 250_000) -> Dict:
    """Recomplete the completion along the induced generators and compare
    dimension tables and the rank of the new unit map.  The cost scales
    with the completed algebra, so run it on small-cap completions."""
    n_out, w_out = _check_caps(caps, "recompletion")
    induced = [kappa_star(r, m, w_out + 2) for m in r.modules]
    r2 = completion_along_set(r.completed, induced, (n_out, w_out),
                              budget=budget)
    win = r2.window
    h1 = r.cohomology(win)
    h2 = r2.cohomology(win)
    t1, t2 = _dims_in(h1, win), _dims_in(h2, win)
    rows = []
    equal = True
    for dw in sorted(set(t1) | set(t2)):
        d1, d2 = t1.get(dw, 0), t2.get(dw, 0)
        certified = (h1.certificate.exact_at(*dw)
                     and h2.certificate.exact_at(*dw))
        rows.append({"cell": dw, "before": d1, "after": d2,
                     "certified": certified})
        if d1 != d2:
            equal = False
    ranks = {}
    for dw in sorted(t1):
        ranks[dw] = induced_rank(r2.iota.map, r.completed.complex,
                                 r2.completed.complex, dw[0], dw[1])
    return {"rows": rows, "comparison_ranks": ranks, "ok": equal,
            "recompletion": r2}


def semiorthogonal_check(a: DgAlgebra, s1: Sequence[str], caps: Caps,
                         inner_caps: Optional[Caps] = None) -> Dict:
    """Complete along the columns of a triangular block of objects.

    Every arrow between the blocks must point out of the chosen one; the
    completion then recovers either plain matrix endomorphisms of the total
    column (trivial corner) or the corner algebra itself, and the report
    checks the computed dimensions against that model.
    """
    f = a.field
    objects = list(s1)
    if not objects:
        raise ValueError("block must be nonempty")
    for o in objects:
        if o not in a.idempotents:
            raise ValueError(f"no idempotent named {o!r}")
    inside = {o: a.idempotents[o] for o in objects}
    outside = {o: e for o, e in a.idempotents.items() if o not in objects}
    for k in a.basis_keys():
        e = {k: f.one}
        starts_out = any(a.multiply(eo, e) == e for eo in outside.values())
        ends_in = any(a.multiply(e, ei) == e for ei in inside.values())
        if starts_out and ends_in:
            raise ValueError(f"triangularity fails: {k} maps the outer "
                             "block into the chosen one")
    cols = [right_ideal_module(a, inside[o], name=f"P({o})") for o in objects]
    r = completion_along_set(a, cols, caps, inner_caps=inner_caps)
    h = r.cohomology()
    got = _dims_in(h, r.window)

    keys = [k for c in cols for k in c.basis_keys()]
    corner = [k for k in a.basis_keys()
              if any(a.multiply(ei, {k: f.one}) == {k: f.one}
                     for ei in inside.values())
              and any(a.multiply({k: f.one}, ei) == {k: f.one}
                      for ei in inside.values())]
    trivial_corner = all(k[0] == 0 and k[1] == 0 for k in corner)
    want: Dict[Tuple[int, int], int] = {}
    if trivial_corner:
        for p in keys:
            for q in keys:
                dw = (q[0] - p[0], q[1] - p[1])
                want[dw] = want.get(dw, 0) + 1
    else:
        for k in corner:
            want[(k[0], k[1])] = want.get((k[0], k[1]), 0) + 1
    rows = []
    ok = True
    for dw in sorted(set(got) | set(want)):
        g, expect = got.get(dw, 0), want.get(dw, 0)
        rows.append({"cell": dw, "computed": g, "expected": expect,
                     "certified": h.certificate.exact_at(*dw)})
        if g != expect:
            ok = False
    degree_zero = sum(d for (deg, _), d in got.items() if deg == 0)
    return {"rows": rows, "ok": ok, "degree_zero_total": degree_zero,
            "expected_model": "matrix" if trivial_corner else "corner",
            "block_dim": len(keys), "result": r}
