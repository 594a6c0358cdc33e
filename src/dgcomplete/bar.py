"""Bar resolutions, derived Hom/Tor, and convolution endomorphism algebras.

The reduced bar construction tensors over the span of the weight-zero
idempotents whenever the algebra is weight-connected; slot tuples are then
composable chains and every weight column is finite.  The unreduced variant
tensors over the ground field and carries no exactness certificates.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .dg import DgAlgebra, DgModule
from .graded import (
    BiGradedSpace, CochainComplex, Cohomology, Elt, GradedMap, Key,
)
from .linalg import Field, Scalar, SparseMatrix

TupleLabel = Tuple[Key, Tuple[Key, ...]]


def _sgn(f: Field, exponent: int) -> Scalar:
    return f.one if exponent % 2 == 0 else f.of(-1)


def _side_certified_empty(sp: BiGradedSpace, side: int) -> bool:
    """Whether every weight of the given sign is certified to be zero."""
    for w in sp.weights():
        if (w > 0) if side > 0 else (w < 0):
            return False
    if sp.zero_outside:
        return all(sp.column_complete(w) for w in sp.known_cols
                   if ((w > 0) if side > 0 else (w < 0)))
    bound = sp.known_zero_above if side > 0 else sp.known_zero_below
    if bound is None:
        return False
    if side > 0:
        return all(sp.column_complete(w) for w in range(1, bound + 1))
    return all(sp.column_complete(w) for w in range(bound, 0))


class ReductionData:
    """Weight-zero idempotent system with source/target objects per basis key."""

    __slots__ = ("sign", "idempotents", "lobj", "robj")

    def __init__(self, sign: int, idempotents: List[Key],
                 lobj: Dict[Key, int], robj: Dict[Key, int]):
        self.sign = sign
        self.idempotents = idempotents
        self.lobj = lobj
        self.robj = robj


def reduction_data(a: DgAlgebra) -> Optional[ReductionData]:
    """Reduction structure of a weight-connected algebra, or None.

    Requires every basis element to be left/right homogeneous for the
    weight-zero idempotents, so tensor products over that subalgebra keep
    the obvious basis of composable tuples.
    """
    sign = a.weight_connectedness()
    if sign is None:
        return None
    zs = a.weight_zero_idempotent_basis()
    if zs is None:
        return None
    f = a.field
    lobj: Dict[Key, int] = {}
    robj: Dict[Key, int] = {}
    for k in a.basis_keys():
        left = [i for i, z in enumerate(zs) if a.basis_product(z, k)]
        right = [i for i, z in enumerate(zs) if a.basis_product(k, z)]
        if len(left) != 1 or len(right) != 1:
            return None
        if a.basis_product(zs[left[0]], k) != {k: f.one}:
            return None
        if a.basis_product(k, zs[right[0]]) != {k: f.one}:
            return None
        lobj[k] = left[0]
        robj[k] = right[0]
    return ReductionData(sign, zs, lobj, robj)


def _module_objects(m: DgModule, red: ReductionData,
                    side: str) -> Optional[Dict[Key, int]]:
    """Object index per module basis key, or None if not homogeneous."""
    f = m.field
    out: Dict[Key, int] = {}
    for k in m.basis_keys():
        hits = []
        for i, z in enumerate(red.idempotents):
            ze = {z: f.one}
            if side == "right":
                got = m.act({k: f.one}, ze)
            else:
                got = m.act_left(ze, {k: f.one})
            if got == {k: f.one}:
                hits.append(i)
            elif got:
                return None
        if len(hits) != 1:
            return None
        out[k] = hits[0]
    return out


class _BarScheme:
    """Composable slot tuples (module key, bar slots) with the inner
    differential: internal terms plus first and middle merges."""

    def __init__(self, m: DgModule, n_max: int, w_cap: int,
                 reduced: Optional[bool]):
        if m.side != "right":
            raise ValueError("bar source must be a right module")
        if n_max < 0 or w_cap < 0:
            raise ValueError("caps must be non-negative")
        a = m.algebra
        red = reduction_data(a)
        mobj = _module_objects(m, red, "right") if red else None
        if reduced is None:
            reduced = red is not None and mobj is not None
        if reduced and (red is None or mobj is None):
            raise ValueError(
                "reduced bar needs a weight-connected algebra and an "
                "object-homogeneous module")
        self.module = m
        self.algebra = a
        self.field = m.field
        self.n_max = n_max
        # the cap bounds the slot weight sum, not the total: that filtration
        # is raised by the differential and added by convolution, so the
        # truncation is an honest quotient in both structures
        self.w_cap = w_cap
        self.reduced = reduced
        self.red = red if reduced else None
        self.mobj = mobj if reduced else None
        self.sign = red.sign if reduced else 0

        if reduced:
            slots = [k for k in a.basis_keys() if k[1] != 0]
            by_lobj: Dict[int, List[Key]] = {}
            for k in slots:
                by_lobj.setdefault(red.lobj[k], []).append(k)
        else:
            slots = a.basis_keys()
            by_lobj = {}

        self.labels: List[TupleLabel] = []
        self._deg: Dict[TupleLabel, int] = {}
        self._wt: Dict[TupleLabel, int] = {}
        self._robj: Dict[TupleLabel, int] = {}

        def store(lab: TupleLabel, deg: int, wt: int, ro: int) -> None:
            self.labels.append(lab)
            self._deg[lab] = deg
            self._wt[lab] = wt
            self._robj[lab] = ro

        def extend(lab: TupleLabel, deg: int, wt: int, slot_wt: int,
                   ro: int) -> None:
            if len(lab[1]) == self.n_max:
                return
            cands = by_lobj.get(ro, []) if reduced else slots
            for ak in cands:
                sw2 = slot_wt + ak[1]
                if reduced and abs(sw2) > self.w_cap:
                    continue
                lab2 = (lab[0], lab[1] + (ak,))
                ro2 = self.red.robj[ak] if reduced else 0
                store(lab2, deg + ak[0] - 1, wt + ak[1], ro2)
                extend(lab2, deg + ak[0] - 1, wt + ak[1], sw2, ro2)

        for mk in m.basis_keys():
            ro = mobj[mk] if reduced else 0
            base: TupleLabel = (mk, ())
            store(base, mk[0], mk[1], ro)
            extend(base, mk[0], mk[1], 0, ro)

        self.index = set(self.labels)
        swt = [self.sign * k[1] for k in m.basis_keys()]
        self.min_module_swt = min(swt) if swt else 0
        self._module_known = m.space.fully_known()
        self._algebra_known = a.space.fully_known()
        self._honest_slots: Optional[bool] = None

    def deg(self, lab: TupleLabel) -> int:
        return self._deg[lab]

    def wt(self, lab: TupleLabel) -> int:
        return self._wt[lab]

    def robj(self, lab: TupleLabel) -> int:
        return self._robj[lab]

    def prefix_degrees(self, lab: TupleLabel) -> List[int]:
        mk, al = lab
        pd = [mk[0]]
        for ak in al:
            pd.append(pd[-1] + ak[0] - 1)
        return pd

    def d_src(self, lab: TupleLabel) -> Dict[TupleLabel, Scalar]:
        """Internal differentials plus first and middle merges."""
        f = self.field
        mk, al = lab
        pd = self.prefix_degrees(lab)
        out: Dict[TupleLabel, Scalar] = {}

        def emit(lab2: TupleLabel, c: Scalar) -> None:
            if lab2 not in self.index:
                raise RuntimeError(f"bar term left the window: {lab2}")
            v = f.add(out.get(lab2, f.zero), c)
            if f.is_zero(v):
                out.pop(lab2, None)
            else:
                out[lab2] = v

        for tk, c in self.module.complex.d.column(mk).items():
            emit((tk, al), c)
        for j, ak in enumerate(al):
            col = self.algebra.complex.d.column(ak)
            if col:
                s = _sgn(f, pd[j] + 1)
                for tk, c in col.items():
                    emit((mk, al[:j] + (tk,) + al[j + 1:]), f.mul(s, c))
        if al:
            s = _sgn(f, pd[0])
            for mk2, c in self.module.act({mk: f.one}, {al[0]: f.one}).items():
                emit((mk2, al[1:]), f.mul(s, c))
        for j in range(len(al) - 1):
            s = _sgn(f, pd[j + 1])
            prod = self.algebra.basis_product(al[j], al[j + 1])
            for pk, c in prod.items():
                emit((mk, al[:j] + (pk,) + al[j + 2:]), f.mul(s, c))
        return out

    def honest_slots(self) -> bool:
        """Whether hidden algebra cells could only sit at heavier weights of
        the slot sign, so the enumerated slot pattern matches the full
        algebra wherever the weight-zero column and the light same-sign
        columns are certified."""
        if self._honest_slots is None:
            self._honest_slots = self._check_honest_slots()
        return self._honest_slots

    def _check_honest_slots(self) -> bool:
        if self._algebra_known:
            return True
        if not self.reduced:
            return False
        sp = self.algebra.space
        if not sp.column_complete(0):
            return False
        if self.sign >= 0 and not _side_certified_empty(sp, -1):
            return False
        if self.sign <= 0 and not _side_certified_empty(sp, 1):
            return False
        return True

    def column_complete(self, wt: int) -> bool:
        """Whether every tuple of this total weight was enumerated."""
        if not self.reduced or not self._module_known:
            return False
        # slot weight sums at this total are at most the gap to the lightest
        # module element, and each slot contributes at least 1
        needed = self.sign * wt - self.min_module_swt
        if needed > min(self.n_max, self.w_cap):
            return False
        if self._algebra_known:
            return True
        if not self.honest_slots():
            return False
        sp = self.algebra.space
        return all(sp.column_complete(self.sign * s)
                   for s in range(1, min(needed, self.w_cap) + 1))


def _build_space(field: Field, items: Sequence[Tuple[int, int, object]],
                 ) -> BiGradedSpace:
    """Space from (deg, wt, label) triples, preserving generation order."""
    cells: Dict[Tuple[int, int], List] = {}
    for d, w, lab in items:
        cells.setdefault((d, w), []).append(lab)
    sp = BiGradedSpace(field)
    for (d, w) in sorted(cells):
        sp.add_cell(d, w, cells[(d, w)])
    sp.zero_outside = False
    sp.known_cols = {}
    return sp


class BarData:
    """Two-sided bar complex of a right module with its augmentation."""

    def __init__(self, module: DgModule, complex: CochainComplex,
                 augmentation: GradedMap,
                 generator_counts: Dict[Tuple[int, int, int], int],
                 n_max: int, w_cap: int, reduced: bool):
        self.module = module
        self.algebra = module.algebra
        self.complex = complex
        self.augmentation = augmentation
        self.generator_counts = generator_counts
        self.n_max = n_max
        self.w_cap = w_cap
        self.reduced = reduced


def bar_resolution(m: DgModule, n_max: int, w_cap: Optional[int] = None,
                   reduced: Optional[bool] = None) -> BarData:
    """Semifree bar replacement of m with augmentation back to m."""
    if w_cap is None:
        w_cap = n_max
    scheme = _BarScheme(m, n_max, w_cap, reduced)
    a = m.algebra
    f = m.field
    red = scheme.red

    items: List[Tuple[int, int, object]] = []
    for lab in scheme.labels:
        for bk in a.basis_keys():
            if red is not None and red.lobj[bk] != scheme.robj(lab):
                continue
            wt = scheme.wt(lab) + bk[1]
            if abs(wt) > scheme.w_cap:
                continue
            items.append((scheme.deg(lab) + bk[0], wt, (lab[0], lab[1], bk)))
    space = _build_space(f, items)
    cx = CochainComplex(space)

    def key3(mk: Key, al: Tuple[Key, ...], bk: Key) -> Key:
        d = scheme.deg((mk, al)) + bk[0]
        w = scheme.wt((mk, al)) + bk[1]
        return space.key_of(d, w, (mk, al, bk))

    for (d, w), labs in space.cells.items():
        for (mk, al, bk) in labs:
            src = space.key_of(d, w, (mk, al, bk))
            for lab2, c in scheme.d_src((mk, al)).items():
                cx.d.add_entry(src, key3(lab2[0], lab2[1], bk), c)
            pd = scheme.prefix_degrees((mk, al))
            if al:
                s = _sgn(f, pd[-2] + 1)
                for pk, c in a.basis_product(al[-1], bk).items():
                    cx.d.add_entry(src, key3(mk, al[:-1], pk), f.mul(s, c))
            s = _sgn(f, pd[-1])
            for tk, c in a.complex.d.column(bk).items():
                cx.d.add_entry(src, key3(mk, al, tk), f.mul(s, c))

    if scheme.reduced and scheme._module_known:
        alg_min = min((scheme.sign * k[1] for k in a.basis_keys()), default=0)
        sp = a.space
        for w in range(-scheme.w_cap, scheme.w_cap + 1):
            needed = scheme.sign * w - scheme.min_module_swt - alg_min
            if needed > min(n_max, scheme.w_cap):
                continue
            if not scheme._algebra_known:
                if not scheme.honest_slots():
                    continue
                if not all(sp.column_complete(scheme.sign * s)
                           for s in range(1, min(needed, scheme.w_cap) + 1)):
                    continue
            space.set_known(w)
        mwts = [k[1] for k in m.basis_keys()]
        if mwts and scheme.honest_slots():
            if scheme.sign >= 0:
                space.known_zero_below = min(mwts)
            if scheme.sign <= 0:
                space.known_zero_above = max(mwts)

    aug = GradedMap(space, m.space, 0, 0)
    for lab in scheme.labels:
        mk, al = lab
        if al:
            continue
        for bk in a.basis_keys():
            if red is not None and red.lobj[bk] != scheme.robj(lab):
                continue
            if abs(mk[1] + bk[1]) > scheme.w_cap:
                continue
            src = key3(mk, (), bk)
            for tk, c in m.act({mk: f.one}, {bk: f.one}).items():
                aug.add_entry(src, tk, c)

    counts: Dict[Tuple[int, int, int], int] = {}
    for lab in scheme.labels:
        k = (len(lab[1]), scheme.deg(lab), scheme.wt(lab))
        counts[k] = counts.get(k, 0) + 1
    return BarData(m, cx, aug, counts, n_max, scheme.w_cap, scheme.reduced)


def _scheme_with_target(m: DgModule, n: DgModule, n_max: int, w_cap: int,
                        reduced: Optional[bool]):
    """Scheme over m whose reduction is kept only when n is homogeneous too."""
    if reduced is None:
        scheme = _BarScheme(m, n_max, w_cap, None)
        if scheme.reduced:
            nobj = _module_objects(n, scheme.red, n.side)
            if nobj is None:
                return _BarScheme(m, n_max, w_cap, False), None
            return scheme, nobj
        return scheme, None
    scheme = _BarScheme(m, n_max, w_cap, reduced)
    if scheme.reduced:
        nobj = _module_objects(n, scheme.red, n.side)
        if nobj is None:
            raise ValueError("target module is not object-homogeneous")
        return scheme, nobj
    return scheme, None


def _hom_complex_into(scheme: _BarScheme, n: DgModule,
                      nobj: Optional[Dict[Key, int]]):
    """Hom over the idempotent subalgebra from the bar tuples into n, with
    the twisted differential.  Labels are (target key, tuple)."""
    f = scheme.field
    nkeys = n.basis_keys()
    items: List[Tuple[int, int, object]] = []
    for q in nkeys:
        for lab in scheme.labels:
            if nobj is not None and nobj[q] != scheme.robj(lab):
                continue
            items.append((q[0] - scheme.deg(lab), q[1] - scheme.wt(lab),
                          (q, lab)))
    space = _build_space(f, items)
    cx = CochainComplex(space)

    def ekey(q: Key, lab: TupleLabel) -> Key:
        return space.key_of(q[0] - scheme.deg(lab), q[1] - scheme.wt(lab),
                            (q, lab))

    qs_by_obj: Dict[int, List[Key]] = {}
    for q in nkeys:
        qs_by_obj.setdefault(nobj[q] if nobj is not None else 0, []).append(q)

    def qs_for(ro: int) -> List[Key]:
        return qs_by_obj.get(ro, []) if nobj is not None else nkeys

    # target differential, composed after the operator
    for q in nkeys:
        col = n.complex.d.column(q)
        if not col:
            continue
        for lab in scheme.labels:
            if nobj is not None and nobj[q] != scheme.robj(lab):
                continue
            src = ekey(q, lab)
            for q2, c in col.items():
                cx.d.add_entry(src, ekey(q2, lab), c)
    # source differential, precomposed with a sign
    for big in scheme.labels:
        for lab, c in scheme.d_src(big).items():
            for q in qs_for(scheme.robj(lab)):
                s = _sgn(f, q[0] + scheme.deg(lab) + 1)
                cx.d.add_entry(ekey(q, lab), ekey(q, big), f.mul(s, c))
    # the dropped last merge reappears as the module action on values
    for big in scheme.labels:
        mk, al = big
        if not al:
            continue
        lab = (mk, al[:-1])
        ak = al[-1]
        for q in qs_for(scheme.robj(lab)):
            qa = n.act({q: f.one}, {ak: f.one})
            if not qa:
                continue
            s = _sgn(f, q[0])
            src = ekey(q, lab)
            for q2, c in qa.items():
                cx.d.add_entry(src, ekey(q2, big), f.mul(s, c))

    if scheme.reduced and n.space.fully_known() and nkeys:
        lo = min(k[1] for k in nkeys) - scheme.w_cap
        hi = max(k[1] for k in nkeys) + scheme.w_cap
        for u in range(lo, hi + 1):
            if all(scheme.column_complete(q[1] - u) for q in nkeys):
                space.set_known(u)
        mwts = [k[1] for k in scheme.module.basis_keys()]
        if mwts and scheme._module_known and scheme.honest_slots():
            if scheme.sign >= 0:
                space.known_zero_above = (max(k[1] for k in nkeys)
                                          - min(mwts))
            if scheme.sign <= 0:
                space.known_zero_below = (min(k[1] for k in nkeys)
                                          - max(mwts))
    return cx, ekey


def derived_hom(m: DgModule, n: DgModule, n_max: int,
                w_cap: Optional[int] = None,
                reduced: Optional[bool] = None) -> CochainComplex:
    """Right derived Hom from m to n over their common algebra."""
    if m.algebra is not n.algebra:
        raise ValueError("derived_hom needs modules over the same algebra")
    if n.side != "right":
        raise ValueError("derived_hom target must be a right module")
    if w_cap is None:
        w_cap = n_max
    scheme, nobj = _scheme_with_target(m, n, n_max, w_cap, reduced)
    cx, _ = _hom_complex_into(scheme, n, nobj)
    return cx


class EndAlgebra(DgAlgebra):
    """Derived endomorphisms of a module, with the convolution product."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, n_max: int, w_cap: int, reduced: bool,
                 name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.module = module
        self.n_max = n_max
        self.w_cap = w_cap
        self.reduced = reduced

    def projection_to_length_zero(self) -> Tuple["EndAlgebra", GradedMap]:
        """The quotient map onto bare matrix units (underived operators)."""
        naive = end_algebra(self.module, 0, w_cap=self.w_cap,
                            reduced=self.reduced,
                            name=f"End0({self.module.name})")
        p = GradedMap(self.space, naive.space, 0, 0)
        for bk in self.basis_keys():
            q, lab = self.space.label_of(bk)
            if lab[1]:
                continue
            p.set_entry(bk, naive.space.key_of(bk[0], bk[1], (q, lab)),
                        self.field.one)
        return naive, p

    def module_over_opposite(self) -> DgModule:
        """The defining module as a right module over the opposite algebra,
        acting through the projection to underived operators."""
        f = self.field
        m = self.module
        op = self.opposite()
        action: Dict[Tuple[Key, Key], Elt] = {}
        for bk in self.basis_keys():
            q, lab = self.space.label_of(bk)
            tm, al = lab
            if al:
                continue
            s = f.of(-1) if (bk[0] % 2 and tm[0] % 2) else f.one
            action[(tm, bk)] = {q: s}
        return DgModule(op, m.complex, action, side="right",
                        name=f"{m.name}^")


def end_algebra(m: DgModule, n_max: int, w_cap: Optional[int] = None,
                reduced: Optional[bool] = None, name: str = "") -> EndAlgebra:
    """Derived endomorphism DG algebra of m."""
    if w_cap is None:
        w_cap = n_max
    scheme, nobj = _scheme_with_target(m, m, n_max, w_cap, reduced)
    cx, ekey = _hom_complex_into(scheme, m, nobj)
    f = m.field

    unit: Elt = {}
    for q in m.basis_keys():
        unit[ekey(q, (q, ()))] = f.one

    # (F*G)(prefix of G, then tuple of F) = F applied to G's value; nonzero
    # only when G's target equals F's input module part
    space, index, one = cx.space, scheme.index, f.one

    def product(k1: Key, k2: Key) -> Elt:
        q1, lab1 = space.label_of(k1)
        q2, lab2 = space.label_of(k2)
        if q2 != lab1[0]:
            return {}
        combined = (lab2[0], lab2[1] + lab1[1])
        if combined not in index:
            return {}
        return {space.key_of(k1[0] + k2[0], k1[1] + k2[1], (q1, combined)): one}

    return EndAlgebra(cx, unit, product, m, n_max, scheme.w_cap, scheme.reduced,
                      name=name or f"End({m.name})")


def derived_tensor(m: DgModule, n: DgModule, n_max: int,
                   w_cap: Optional[int] = None,
                   reduced: Optional[bool] = None) -> CochainComplex:
    """Derived tensor product of a right module with a left module."""
    if m.algebra is not n.algebra:
        raise ValueError("derived_tensor needs modules over the same algebra")
    if m.side != "right" or n.side != "left":
        raise ValueError("derived_tensor takes a right and a left module")
    if w_cap is None:
        w_cap = n_max
    scheme, nobj = _scheme_with_target(m, n, n_max, w_cap, reduced)
    f = scheme.field
    nkeys = n.basis_keys()

    items: List[Tuple[int, int, object]] = []
    for lab in scheme.labels:
        for nk in nkeys:
            if nobj is not None and nobj[nk] != scheme.robj(lab):
                continue
            wt = scheme.wt(lab) + nk[1]
            if abs(wt) > scheme.w_cap:
                continue
            items.append((scheme.deg(lab) + nk[0], wt, (lab[0], lab[1], nk)))
    space = _build_space(f, items)
    cx = CochainComplex(space)

    def key3(mk: Key, al: Tuple[Key, ...], nk: Key) -> Key:
        d = scheme.deg((mk, al)) + nk[0]
        w = scheme.wt((mk, al)) + nk[1]
        return space.key_of(d, w, (mk, al, nk))

    for (d, w), labs in space.cells.items():
        for (mk, al, nk) in labs:
            src = space.key_of(d, w, (mk, al, nk))
            for lab2, c in scheme.d_src((mk, al)).items():
                cx.d.add_entry(src, key3(lab2[0], lab2[1], nk), c)
            pd = scheme.prefix_degrees((mk, al))
            if al:
                s = _sgn(f, pd[-2] + 1)
                for nk2, c in n.act_left({al[-1]: f.one},
                                         {nk: f.one}).items():
                    cx.d.add_entry(src, key3(mk, al[:-1], nk2), f.mul(s, c))
            s = _sgn(f, pd[-1])
            for nk2, c in n.complex.d.column(nk).items():
                cx.d.add_entry(src, key3(mk, al, nk2), f.mul(s, c))

    if scheme.reduced and scheme._module_known and n.space.fully_known() and nkeys:
        n_min = min(scheme.sign * k[1] for k in nkeys)
        sp = scheme.algebra.space
        for w in range(-scheme.w_cap, scheme.w_cap + 1):
            needed = scheme.sign * w - scheme.min_module_swt - n_min
            if needed > min(n_max, scheme.w_cap):
                continue
            if not scheme._algebra_known:
                if not scheme.honest_slots():
                    continue
                if not all(sp.column_complete(scheme.sign * s)
                           for s in range(1, min(needed, scheme.w_cap) + 1)):
                    continue
            space.set_known(w)
        mwts = [k[1] for k in m.basis_keys()]
        if mwts and scheme.honest_slots():
            if scheme.sign >= 0:
                space.known_zero_below = (min(mwts)
                                          + min(k[1] for k in nkeys))
            if scheme.sign <= 0:
                space.known_zero_above = (max(mwts)
                                          + max(k[1] for k in nkeys))
    return cx


def stabilization_scan(compute: Callable[[int], Cohomology],
                       caps: Sequence[int]) -> Dict:
    """Dimensions per bidegree across increasing caps, with a stabilized
    flag: the last two caps agree and the final certificate is exact."""
    caps = list(caps)
    if caps != sorted(set(caps)) or not caps:
        raise ValueError("caps must be strictly increasing and nonempty")
    runs = [compute(c) for c in caps]
    cells = sorted({cell for r in runs for cell in r.dims_by_cell()})
    rows: Dict[Tuple[int, int], Dict] = {}
    last = runs[-1]
    for (d, w) in cells:
        dims = [r.dim(d, w) for r in runs]
        stable = (len(dims) >= 2 and dims[-1] == dims[-2]
                  and last.certificate.exact_at(d, w))
        rows[(d, w)] = {"dims": dims, "stable": stable}
    return {"caps": caps, "rows": rows}


class StrictEndAlgebra(DgAlgebra):
    """Honest module endomorphisms, with their defining maps attached."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, map_of: Dict[Key, Dict[Key, Elt]],
                 name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.module = module
        self.map_of = map_of


def strict_end_algebra(m: DgModule) -> StrictEndAlgebra:
    """Module endomorphisms of m (no resolution), as a DG algebra.

    Basis maps per shift are kernel vectors of the linearity constraints
    f(p·a) = f(p)·a, so the result is exact, not an approximation.
    """
    f = m.field
    mkeys = m.basis_keys()
    akeys = m.algebra.basis_keys()
    shifts = sorted({(q[0] - p[0], q[1] - p[1]) for p in mkeys for q in mkeys})

    basis_maps: Dict[Tuple[int, int], List[Dict[Key, Elt]]] = {}
    unknown_index: Dict[Tuple[int, int], List[Tuple[Key, Key]]] = {}
    for (d, w) in shifts:
        unknowns: List[Tuple[Key, Key]] = []
        for p in mkeys:
            for q in m.space.keys(p[0] + d, p[1] + w):
                unknowns.append((p, q))
        if not unknowns:
            continue
        col_of = {u: i for i, u in enumerate(unknowns)}
        entries: Dict[Tuple[int, int], Scalar] = {}
        row = 0
        for p in mkeys:
            for ak in akeys:
                pa = m.act({p: f.one}, {ak: f.one})
                for r in m.space.keys(p[0] + ak[0] + d, p[1] + ak[1] + w):
                    # coefficient of r in f(p)·a minus f(p·a)
                    touched = False
                    for q in m.space.keys(p[0] + d, p[1] + w):
                        c = m.act({q: f.one}, {ak: f.one}).get(r)
                        if c is not None:
                            entries[(row, col_of[(p, q)])] = c
                            touched = True
                    for p2, c in pa.items():
                        col = col_of.get((p2, r))
                        if col is not None:
                            v = f.sub(entries.get((row, col), f.zero), c)
                            if f.is_zero(v):
                                entries.pop((row, col), None)
                            else:
                                entries[(row, col)] = v
                            touched = True
                    if touched:
                        row += 1
        mat = SparseMatrix(row, len(unknowns), f, entries)
        maps = []
        for vec in mat.kernel_basis():
            g: Dict[Key, Elt] = {}
            for i, c in vec.items():
                p, q = unknowns[i]
                g.setdefault(p, {})[q] = c
            maps.append(g)
        if maps:
            basis_maps[(d, w)] = maps
            unknown_index[(d, w)] = unknowns

    sp = BiGradedSpace(f)
    for (d, w) in sorted(basis_maps):
        sp.add_cell(d, w, [("end", d, w, i)
                           for i in range(len(basis_maps[(d, w)]))])
    cx = CochainComplex(sp)

    def coords(g: Dict[Key, Elt], d: int, w: int) -> Elt:
        """Express a module map in the solved basis at shift (d, w)."""
        if not any(g.values()):
            return {}
        if (d, w) not in basis_maps:
            raise RuntimeError("map escapes the endomorphism space")
        unknowns = unknown_index[(d, w)]
        col_of = {u: i for i, u in enumerate(unknowns)}
        maps = basis_maps[(d, w)]
        entries = {}
        for j, bm in enumerate(maps):
            for p, val in bm.items():
                for q, c in val.items():
                    entries[(col_of[(p, q)], j)] = c
        mat = SparseMatrix(len(unknowns), len(maps), f, entries)
        b = {}
        for p, val in g.items():
            for q, c in val.items():
                b[col_of[(p, q)]] = c
        sol = mat.solve(b)
        if sol is None:
            raise RuntimeError("map escapes the endomorphism space")
        return {sp.key_of(d, w, ("end", d, w, j)): c for j, c in sol.items()}

    def apply_map(g: Dict[Key, Elt], e: Elt) -> Elt:
        out: Elt = {}
        for p, c in e.items():
            for q, c2 in g.get(p, {}).items():
                v = f.add(out.get(q, f.zero), f.mul(c, c2))
                if f.is_zero(v):
                    out.pop(q, None)
                else:
                    out[q] = v
        return out

    for (d, w), maps in basis_maps.items():
        for i, g in enumerate(maps):
            s = _sgn(f, d + 1)
            dg: Dict[Key, Elt] = {}
            for p in mkeys:
                acc = dict(m.d(g.get(p, {})))
                for q, c in apply_map(g, m.complex.d.column(p)).items():
                    v = f.add(acc.get(q, f.zero), f.mul(s, c))
                    if f.is_zero(v):
                        acc.pop(q, None)
                    else:
                        acc[q] = v
                if acc:
                    dg[p] = acc
            src = sp.key_of(d, w, ("end", d, w, i))
            for tk, c in coords(dg, d + 1, w).items():
                cx.d.add_entry(src, tk, c)

    map_of: Dict[Key, Dict[Key, Elt]] = {}
    for (d, w), maps in basis_maps.items():
        for i, g in enumerate(maps):
            map_of[sp.key_of(d, w, ("end", d, w, i))] = g

    def product(k1: Key, k2: Key) -> Elt:
        g1, g2 = map_of[k1], map_of[k2]
        comp: Dict[Key, Elt] = {}
        for p in mkeys:
            val = apply_map(g1, g2.get(p, {}))
            if val:
                comp[p] = val
        return coords(comp, k1[0] + k2[0], k1[1] + k2[1])

    ident = {p: {p: f.one} for p in mkeys}
    unit = coords(ident, 0, 0) if mkeys else {}
    return StrictEndAlgebra(cx, unit, product, m, map_of,
                            name=f"EndStrict({m.name})")


def embed_strict(strict: StrictEndAlgebra, b: EndAlgebra) -> GradedMap:
    """Strict endomorphisms as length-zero convolution elements of b."""
    if strict.module is not b.module:
        raise ValueError("endomorphism algebras of different modules")
    g = GradedMap(strict.space, b.space, 0, 0)
    for sk in strict.basis_keys():
        for p, val in strict.map_of[sk].items():
            for q, c in val.items():
                tk = b.space.key_of(q[0] - p[0], q[1] - p[1], (q, (p, ())))
                g.add_entry(sk, tk, c)
    return g
