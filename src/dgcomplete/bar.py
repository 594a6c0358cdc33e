"""Bar resolutions, derived Hom/Tor, and convolution endomorphism algebras.

The reduced bar construction tensors over the span of the weight-zero
idempotents whenever the algebra is weight-connected; slot tuples are then
composable chains and every weight column is finite.  The unreduced variant
tensors over the ground field and carries no exactness certificates.  The
objects each basis element runs between (its reduction data) are read off
the labels of a convolution algebra or of its minimal model, mirrored from
the base for the opposite that ``module_over_opposite`` acts through, and
found by asking every idempotent product for any other algebra.  The minimal
model is the cohomology of a convolution algebra with the product its
representatives induce, built where a purity check makes it formal.

Each slot tuple is an integer index, numbered depth first, and each slot an
integer id.  A tuple's parent is the tuple without its last slot, its child
by a slot is found under parent * n_slots + slot id, and its differential row
is its parent's row with the slot appended, plus the slot's own differential
and its merge with the slot (or module key) before it.  The builders write
each term into one sum per block entry and install every block once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from .dg import DgAlgebra, DgModule
from .graded import (
    BiGradedSpace, CochainComplex, Cohomology, Elt, GradedMap, Key,
    _build_space, _columns, _install,
)
from .linalg import Scalar

TupleLabel = Tuple[Key, Tuple[Key, ...]]


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


_UNSET = object()  # reduction_data not yet computed; None is an answer


def reduction_data(a: DgAlgebra) -> Optional[ReductionData]:
    """Reduction structure of a weight-connected algebra, or None.

    Requires every basis element to be left/right homogeneous for the
    weight-zero idempotents, so tensor products over that subalgebra keep
    the obvious basis of composable tuples.  Computed once per algebra.  A
    convolution algebra or its minimal model reads each element's objects
    off its ``ends``, the opposite that ``module_over_opposite`` acts
    through carries its base's data mirrored, and any other algebra asks
    every idempotent product.
    """
    red = getattr(a, "_reduction", _UNSET)
    if red is _UNSET:
        red = a._reduction = _reduction_data(a, getattr(a, "ends", None))
    return red


def _reduction_data(a: DgAlgebra, ends: Optional[Callable[[Key], Tuple[Key, Key]]]
                    = None) -> Optional[ReductionData]:
    # each product of two basis keys is asked once: the idempotent pairs by
    # weight_zero_idempotent_basis, which already places each idempotent at
    # its own object, the rest by the scans below
    zs = a.weight_zero_idempotent_basis()
    if zs is None:
        return None
    sign = a._weight_sign()
    if sign is None:
        return None
    if ends is not None:
        # the weight-0 basis is the identities of the module keys, and the
        # product fixes an element with ends (q, p) by q's identity on the
        # left and p's on the right, and kills it by any other
        at = {ends(z)[0]: i for i, z in enumerate(zs)}
        lobj, robj = {}, {}
        for k in a.basis_keys():
            q, p = ends(k)
            lobj[k], robj[k] = at[q], at[p]
        return ReductionData(sign, zs, lobj, robj)
    f = a.field
    lobj: Dict[Key, int] = {z: i for i, z in enumerate(zs)}
    robj: Dict[Key, int] = dict(lobj)
    for k in a.basis_keys():
        if k in lobj:
            continue
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


def _opposite(a: DgAlgebra) -> DgAlgebra:
    """a's opposite, carrying a's reduction data with the sides swapped:
    the idempotents sit in degree 0, so z ·op k = k·z with no sign."""
    op = a.opposite()
    red = reduction_data(a)
    op._reduction = (None if red is None else
                     ReductionData(red.sign, red.idempotents, red.robj, red.lobj))
    return op


def _unreducible_reason(m: DgModule, red: Optional[ReductionData]) -> str:
    """Which conditions of the reduced bar m and its algebra fail, worked
    out only once the reduced bar is refused."""
    if red is not None:
        return "module not object-homogeneous"
    a = m.algebra
    off = sorted({k[0] for k in a.basis_keys() if k[1] == 0 and k[0] != 0})
    why = [f"weight-0 basis elements outside degree 0, in degrees {off}"] if off else []
    if not off and a.weight_zero_idempotent_basis() is None:
        why.append("weight-0 part not orthogonal idempotents summing to the "
                   "unit with d = 0")
    if a._weight_sign() is None:
        why.append("nonzero weights of both signs")
    return "; ".join(why) or "a basis element not homogeneous for the idempotents"


def _module_objects(m: DgModule, red: ReductionData,
                    side: str) -> Optional[Dict[Key, int]]:
    """Object index per module basis key, or None if not homogeneous: each
    key must be fixed by exactly one idempotent and killed by the rest,
    read off the action table, where a missing entry is zero."""
    one, table = m.field.one, m.action
    out: Dict[Key, int] = {}
    for k in m.basis_keys():
        hits = []
        for i, z in enumerate(red.idempotents):
            got = table.get((k, z) if side == "right" else (z, k))
            if got == {k: one}:
                hits.append(i)
            elif got:
                return None
        if len(hits) != 1:
            return None
        out[k] = hits[0]
    return out


class _BarScheme:
    """Composable slot tuples (module key, bar slots) over m, with the
    inner differential: internal terms plus first and middle merges.

    Tuples are numbered depth first, and ``labels``, ``degs``, ``wts``,
    ``robjs`` and ``parent`` are flat lists over that index.  The
    parent of a tuple is the tuple without its last slot, -1 for a bare
    module key, and ``sids`` is the id its last slot got in ``slot_ids``
    when it first fit.  ``child`` maps parent * ``n_slots`` + slot id back
    to the index, and ``bare`` a module key to its bare tuple.  Whether the
    scheme is reduced is decided before enumerating, from the source and,
    when given, the target module, whose object per key is ``nobj``."""

    def __init__(self, m: DgModule, n_max: int, w_cap: int,
                 reduced: Optional[bool], target: Optional[DgModule] = None):
        if m.side != "right":
            raise ValueError("bar source must be a right module")
        if n_max < 0 or w_cap < 0:
            raise ValueError("caps must be non-negative")
        a = m.algebra
        red = reduction_data(a)
        mobj = _module_objects(m, red, "right") if red else None
        nobj = None
        if mobj is not None and target is not None and reduced is not False:
            nobj = (mobj if target is m
                    else _module_objects(target, red, target.side))
        if reduced is None:
            reduced = mobj is not None and (target is None or nobj is not None)
        if reduced and mobj is None:
            raise ValueError(
                "reduced bar needs a weight-connected algebra and an "
                f"object-homogeneous module (here {a.name or 'unnamed'} and "
                f"{m.name or 'unnamed'}): " + _unreducible_reason(m, red))
        if reduced and target is not None and nobj is None:
            raise ValueError("target module is not object-homogeneous")
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
        self.nobj = nobj
        self.sign = red.sign if reduced else 0

        # slots by the object they start at; unreduced, everything is object 0
        akeys = a.basis_keys()
        by_lobj: Dict[int, List[Key]] = {}
        for k in akeys:
            if not reduced:
                by_lobj.setdefault(0, []).append(k)
            elif k[1] != 0:
                by_lobj.setdefault(red.lobj[k], []).append(k)

        labels: List[TupleLabel] = []
        degs: List[int] = []
        wts: List[int] = []
        robjs: List[int] = []
        parent: List[int] = []
        sids: List[int] = []
        child: Dict[int, int] = {}
        ids: Dict[Key, int] = {}
        n = len(akeys)

        # reduced slots share one weight sign, so the slot weight sum is
        # capped by keeping |weight| within the room the earlier slots left
        # (None when unreduced); per (object, room), each fitting slot with
        # its id, degree and weight steps, end object and the room it leaves
        fits: Dict[Tuple[int, Optional[int]], List[Tuple]] = {}

        def extend(t: int, mk: Key, al: Tuple[Key, ...], deg: int, wt: int,
                   ro: int, room: Optional[int]) -> None:
            cands = fits.get((ro, room))
            if cands is None:
                cands = fits[(ro, room)] = [
                    (ak, ids.setdefault(ak, len(ids)), ak[0] - 1, ak[1],
                     red.robj[ak] if reduced else 0,
                     None if room is None else room - abs(ak[1]))
                    for ak in by_lobj.get(ro, ())
                    if room is None or abs(ak[1]) <= room]
            deeper = len(al) + 1 < n_max
            base = t * n
            for ak, sid, dd, dw, rk, rest in cands:
                u = len(labels)
                lab = al + (ak,)
                labels.append((mk, lab))
                degs.append(deg + dd)
                wts.append(wt + dw)
                robjs.append(rk)
                parent.append(t)
                sids.append(sid)
                child[base + sid] = u
                if deeper and rest != 0:
                    extend(u, mk, lab, deg + dd, wt + dw, rk, rest)

        bare: Dict[Key, int] = {}
        room = w_cap if reduced else None
        for mk in m.basis_keys():
            t = bare[mk] = len(labels)
            ro = mobj[mk] if reduced else 0
            labels.append((mk, ()))
            degs.append(mk[0])
            wts.append(mk[1])
            robjs.append(ro)
            parent.append(-1)
            sids.append(-1)
            if n_max and room != 0:
                extend(t, mk, (), mk[0], mk[1], ro, room)

        self.labels, self.degs, self.wts = labels, degs, wts
        self.robjs, self.parent, self.sids = robjs, parent, sids
        self.child, self.bare, self.slot_ids, self.n_slots = child, bare, ids, n
        swt = [self.sign * k[1] for k in m.basis_keys()]
        self.min_module_swt = min(swt) if swt else 0
        self._module_known = m.space.fully_known()
        self._algebra_known = a.space.fully_known()
        self._honest_slots: Optional[bool] = None

    def rows(self) -> Iterator[Dict[int, Scalar]]:
        """The differential of each tuple as {index: coefficient}, in index
        order.

        A tuple T = P + (ak,) keeps each term of P's row with ak appended,
        under the same prefix sign.  Its new terms are d(ak), with sign
        (-1)^(|P| + 1), and the merge of ak into P's last slot, or into the
        module key when P is bare, with sign (-1)^|P|.  Tuples are numbered
        depth first, so only the rows of T's ancestors are kept."""
        f = self.field
        a, m = self.algebra, self.module
        labels, parent, degs, sids = (self.labels, self.parent, self.degs,
                                      self.sids)
        child, bare, ids, n = self.child, self.bare, self.slot_ids, self.n_slots
        d_mod, d_alg = _columns(m.complex.d), _columns(a.complex.d)
        d_slot = {sid: d_alg[ak] for ak, sid in ids.items() if ak in d_alg}
        # merges of a last slot into the module key, by bare tuple and slot
        # id, and into the slot before it, by both slot ids
        merges: Dict[int, Elt] = {}

        def index(p: int, slot: Key) -> int:
            sid = ids.get(slot)
            u = (bare.get(slot) if p < 0 else
                 None if sid is None else child.get(p * n + sid))
            if u is None:
                lab = ((slot, ()) if p < 0
                       else (labels[p][0], labels[p][1] + (slot,)))
                raise RuntimeError(f"bar term left the window: {lab}")
            return u

        def add(row: Dict[int, Scalar], u: int, c: Scalar) -> None:
            v = f.add(row.get(u, f.zero), c)
            if f.is_zero(v):
                row.pop(u, None)
            else:
                row[u] = v

        path: List[Dict[int, Scalar]] = []  # ancestor rows by slot count
        for t, (mk, al) in enumerate(labels):
            del path[len(al):]
            if not al:
                row = {index(-1, tk): c for tk, c in d_mod.get(mk, ())}
            else:
                p, sid, row = parent[t], sids[t], {}
                for j, c in path[-1].items():
                    u = child.get(j * n + sid)
                    row[index(j, al[-1]) if u is None else u] = c
                odd = degs[p] % 2
                for tk, c in d_slot.get(sid, ()):
                    add(row, index(p, tk), c if odd else f.neg(c))
                q = parent[p]
                key = (sids[p] if q >= 0 else -1 - p) * n + sid
                merged = merges.get(key)
                if merged is None:
                    merged = merges[key] = (
                        m.act({mk: f.one}, {al[-1]: f.one}) if q < 0
                        else a.basis_product(al[-2], al[-1]))
                for pk, c in merged.items():
                    add(row, index(q, pk), f.neg(c) if odd else c)
            path.append(row)
            yield row

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


def _two_sided(scheme: _BarScheme, keys: Sequence[Key],
               lobj: Optional[Dict[Key, int]], merge: Callable[[Key, Key], Elt],
               rcx: CochainComplex, right_known: bool) -> CochainComplex:
    """Bar tuples of the scheme tensored with a right factor over the
    idempotents.  The right factor is plain data: its basis keys, the object
    each key starts at (None when unreduced), the merge of a last slot into
    a key, and its complex.  Labels are (module key, slots, right key)."""
    labels, degs, wts = scheme.labels, scheme.degs, scheme.wts
    space, acc, at = _build_space(scheme.field, (
        (t, rk, degs[t] + rk[0], wts[t] + rk[1], labels[t] + (rk,))
        for t in range(len(labels)) for rk in keys
        if (lobj is None or lobj[rk] == scheme.robjs[t])
        and abs(wts[t] + rk[1]) <= scheme.w_cap), keys, len(labels))

    d_right = _columns(rcx.d)
    parent, sids = scheme.parent, scheme.sids
    # per right key, its places and its differential's terms by place
    right = [(at[rk], [(at[rk2], c) for rk2, c in d_right.get(rk, ())])
             for rk in keys]
    # the merge of a slot into a right key, by slot id and key index
    merges: Dict[int, List[Tuple[List, Scalar]]] = {}
    for t, row in enumerate(scheme.rows()):
        p = parent[t]
        for ri, (col, d_rk) in enumerate(right):
            if col[t] is None:
                continue
            sums, i = col[t]
            # the scheme's differential, with rk carried along: distinct rows
            # of a column nothing has written yet
            for j, c in row.items():
                sums[col[j][1], i] = c
            # the last slot merged into rk, sign (-1)^(|P| + 1)
            if p >= 0:
                key = sids[t] * len(keys) + ri
                merged = merges.get(key)
                if merged is None:
                    merged = merges[key] = [(at[rk2], c) for rk2, c in merge(
                        labels[t][1][-1], keys[ri]).items()]
                for col2, c in merged:
                    r = col2[p][1]
                    sums[r, i] = sums.get((r, i), 0) + (
                        c if degs[p] % 2 else -c)
            # the right factor's differential, sign (-1)^|T|
            for col2, c in d_rk:
                r = col2[t][1]
                sums[r, i] = sums.get((r, i), 0) + (-c if degs[t] % 2 else c)
    cx = _install(space, acc)

    if scheme.reduced and scheme._module_known and right_known and keys:
        # weight w is complete when the bar tuples are complete at w less
        # the weight of the lightest right key
        r_min = min(scheme.sign * k[1] for k in keys)
        for w in range(-scheme.w_cap, scheme.w_cap + 1):
            if scheme.column_complete(w - scheme.sign * r_min):
                space.set_known(w)
        mwts = [k[1] for k in scheme.module.basis_keys()]
        if mwts and scheme.honest_slots():
            if scheme.sign >= 0:
                space.known_zero_below = min(mwts) + min(k[1] for k in keys)
            if scheme.sign <= 0:
                space.known_zero_above = max(mwts) + max(k[1] for k in keys)
    return cx


def bar_resolution(m: DgModule, n_max: int, w_cap: Optional[int] = None,
                   reduced: Optional[bool] = None) -> BarData:
    """Semifree bar replacement of m with augmentation back to m: the
    two-sided bar complex with the algebra itself as the right factor."""
    if w_cap is None:
        w_cap = n_max
    scheme = _BarScheme(m, n_max, w_cap, reduced)
    a = m.algebra
    f = m.field
    # the slot check already covers the algebra's columns
    cx = _two_sided(scheme, a.basis_keys(),
                    scheme.red.lobj if scheme.reduced else None,
                    a.basis_product, a.complex, True)

    aug = GradedMap(cx.space, m.space, 0, 0)
    for (d, w), labs in cx.space.cells.items():
        for i, (mk, al, bk) in enumerate(labs):
            if not al:
                for tk, c in m.act({mk: f.one}, {bk: f.one}).items():
                    aug.add_entry((d, w, i), tk, c)

    counts: Dict[Tuple[int, int, int], int] = {}
    for (_, al), d, w in zip(scheme.labels, scheme.degs, scheme.wts):
        counts[(len(al), d, w)] = counts.get((len(al), d, w), 0) + 1
    return BarData(m, cx, aug, counts, n_max, scheme.w_cap, scheme.reduced)


def _hom_complex_into(scheme: _BarScheme, n: DgModule) -> CochainComplex:
    """Hom over the idempotent subalgebra from the bar tuples into n, with
    the twisted differential.  Labels are (target key, tuple)."""
    nobj = scheme.nobj
    labels, degs, robjs = scheme.labels, scheme.degs, scheme.robjs
    nkeys = n.basis_keys()
    space, acc, at = _build_space(scheme.field, (
        (t, q, q[0] - degs[t], q[1] - scheme.wts[t], (q, labels[t]))
        for q in nkeys for t in range(len(labels))
        if nobj is None or nobj[q] == robjs[t]), nkeys, len(labels))
    # unreduced, every tuple and every target key sit at object 0
    qs_by_obj: Dict[int, List[Tuple[int, Key, List]]] = {}
    for qi, q in enumerate(nkeys):
        qs_by_obj.setdefault(nobj[q] if nobj is not None else 0, []).append(
            (qi, q, at[q]))

    # target differential, composed after the operator
    for q, col in _columns(n.complex.d).items():
        for t, slot in enumerate(at[q]):
            if slot is None:
                continue
            sums, i = slot
            for q2, c in col:
                r = at[q2][t][1]
                sums[r, i] = sums.get((r, i), 0) + c
    # per tuple, the source differential precomposed with the sign
    # (-1)^(|q| + |lab| + 1), each term the first write to its entry, and the
    # dropped last merge, which reappears as the module action on values
    # with the sign (-1)^|q|
    f = scheme.field
    acts: Dict[int, Elt] = {}  # by target key index and slot id
    for t, row in enumerate(scheme.rows()):
        for _, q, aq in qs_by_obj.get(robjs[t], ()):
            r = aq[t][1]
            for j, c in row.items():
                sums, i = aq[j]
                sums[r, i] = c if (q[0] + degs[j]) % 2 else -c
        p = scheme.parent[t]
        if p < 0:
            continue
        for qi, q, aq in qs_by_obj.get(robjs[p], ()):
            key = qi * scheme.n_slots + scheme.sids[t]
            qa = acts.get(key)
            if qa is None:
                qa = acts[key] = n.act({q: f.one}, {labels[t][1][-1]: f.one})
            if not qa:
                continue
            sums, i = aq[p]
            for q2, c in qa.items():
                r = at[q2][t][1]
                sums[r, i] = sums.get((r, i), 0) + (-c if q[0] % 2 else c)
    cx = _install(space, acc)

    if scheme.reduced and n.space.fully_known() and nkeys:
        nwts = {k[1] for k in nkeys}
        lo, hi = min(nwts) - scheme.w_cap, max(nwts) + scheme.w_cap
        for u in range(lo, hi + 1):
            if all(scheme.column_complete(w - u) for w in nwts):
                space.set_known(u)
        mwts = [k[1] for k in scheme.module.basis_keys()]
        if mwts and scheme._module_known and scheme.honest_slots():
            if scheme.sign >= 0:
                space.known_zero_above = max(nwts) - min(mwts)
            if scheme.sign <= 0:
                space.known_zero_below = min(nwts) - max(mwts)
    return cx


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
    return _hom_complex_into(_BarScheme(m, n_max, w_cap, reduced, n), n)


class InnerModel(DgAlgebra):
    """A model of the endomorphisms of ``module``, acting on it by
    evaluation.  Each model supplies ``evaluations``: the (f, p, f(p))
    of its length-zero part, through which the module acts."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.module = module

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        raise NotImplementedError

    def module_over_opposite(self) -> DgModule:
        """The defining module as a right module over the opposite algebra,
        acting by signed evaluation: p·f = (-1)^{|f||p|} f(p)."""
        f = self.field
        m = self.module
        action: Dict[Tuple[Key, Key], Elt] = {}
        for fk, p, val in self.evaluations():
            odd = fk[0] % 2 and p[0] % 2
            action[(p, fk)] = {q: f.neg(c) if odd else c for q, c in val.items()}
        return DgModule(_opposite(self), m.complex, action, side="right",
                        name=f"{m.name}^" if m.name else "")


class EndAlgebra(InnerModel):
    """Derived endomorphisms of a module, with the convolution product."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, n_max: int, w_cap: int, reduced: bool,
                 name: str = ""):
        super().__init__(complex, unit, product, module, name=name)
        self.n_max = n_max
        self.w_cap = w_cap
        self.reduced = reduced

    def ends(self, k: Key) -> Tuple[Key, Key]:
        """The module keys (q, p) of the element F = (q, (p, slots)): the
        product fixes F by q's identity on the left and p's on the right."""
        q, (p, _) = self.space.label_of(k)
        return q, p

    def projection_to_length_zero(self) -> Tuple["EndAlgebra", GradedMap]:
        """The quotient map onto bare matrix units (underived operators)."""
        naive = end_algebra(self.module, 0, w_cap=self.w_cap,
                            reduced=self.reduced,
                            name=f"End0({self.module.name})")
        p = GradedMap(self.space, naive.space, 0, 0)
        for k, src, val in self.evaluations():
            for q, c in val.items():
                p.set_entry(k, naive.space.key_of(k[0], k[1], (q, (src, ()))), c)
        return naive, p

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        """The bare matrix units (q, (p, ())): p ↦ q, the underived
        operators."""
        one = self.field.one
        for k in self.basis_keys():
            q, (p, slots) = self.space.label_of(k)
            if not slots:
                yield k, p, {q: one}


def end_algebra(m: DgModule, n_max: int, w_cap: Optional[int] = None,
                reduced: Optional[bool] = None, name: str = "") -> EndAlgebra:
    """Derived endomorphism DG algebra of m."""
    if w_cap is None:
        w_cap = n_max
    scheme = _BarScheme(m, n_max, w_cap, reduced, m)
    cx = _hom_complex_into(scheme, m)
    f = m.field
    space, one = cx.space, f.one
    unit: Elt = {space.key_of(0, 0, (q, (q, ()))): one for q in m.basis_keys()}

    # (F*G)(prefix of G, then tuple of F) = F applied to G's value; nonzero
    # only when G's target equals F's input module part and the combined
    # tuple is within the caps
    def product(k1: Key, k2: Key) -> Elt:
        q1, lab1 = space.label_of(k1)
        q2, lab2 = space.label_of(k2)
        if q2 != lab1[0]:
            return {}
        combined = (lab2[0], lab2[1] + lab1[1])
        try:
            return {space.key_of(k1[0] + k2[0], k1[1] + k2[1],
                                 (q1, combined)): one}
        except KeyError:
            return {}

    return EndAlgebra(cx, unit, product, m, n_max, scheme.w_cap, scheme.reduced,
                      name=name or f"End({m.name})")


class MinimalModel(InnerModel):
    """The cohomology H(E) of a convolution algebra E on the weight columns
    |w| <= w_max, as a graded algebra with d = 0.

    i sends a class to its representative in E and p is
    ``Cohomology.project``, so the product is m₂ = p∘μ∘(i⊗i).  Each
    representative lies in one block of E, between the module keys
    ``ends``, and a product of classes whose blocks do not compose is zero
    with no multiply.  ``minimal_model`` builds it only where purity makes
    it E's minimal model.
    """

    def __init__(self, inner: EndAlgebra, h: Cohomology,
                 ends: Dict[Key, Tuple[Key, Key]]):
        reps = h.representatives

        def product(k1: Key, k2: Key) -> Elt:
            if ends[k1][1] != ends[k2][0]:
                return {}
            return h.project(inner.multiply(reps[k1], reps[k2]))

        super().__init__(CochainComplex(h.space), h.project(inner.unit),
                         product, inner.module, name=f"H({inner.name})")
        self.inner = inner
        self.representatives = reps
        self._ends = ends

    def ends(self, k: Key) -> Tuple[Key, Key]:
        return self._ends[k]

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        """The length-zero part of i(h), the one bare unit of h's block;
        purity leaves no higher action."""
        label = self.inner.space.label_of
        for h, rep in self.representatives.items():
            for k, c in rep.items():
                q, (p, slots) = label(k)
                if not slots:
                    yield h, p, {q: c}


def _line(cells: Sequence[Tuple[int, int]],
          mcells: Sequence[Tuple[int, int]]) -> Fraction:
    """The slope c of the line d = c·w through the lightest cell off weight
    0, else through two module cells of distinct weights, else 0."""
    off = [(abs(w), d, w) for d, w in cells if w]
    if off:
        _, d, w = min(off)
        return Fraction(d, w)
    for (d1, w1) in mcells:
        for (d2, w2) in mcells:
            if w1 != w2:
                return Fraction(d2 - d1, w2 - w1)
    return Fraction(0)


def minimal_model(inner: EndAlgebra, w_max: int
                  ) -> Tuple[Optional[MinimalModel], Dict]:
    """E's minimal model on the weight columns |w| <= w_max, the weights an
    outer bar capped at w_max reads, or None; and a record of the check.

    The model is built where every class of H(E) there lies on one line
    d = c·w and every cell of the defining module on a parallel one
    d = c·w + d0, which makes it formal (see ``complete``), and where, as
    whenever E is reducible, each representative lies in one block of
    module keys and the model is weight-connected.  The record holds c, d0,
    ``off_line``, the first class or module cell off its line (None if
    there is none), and ``reason``, why no model was built (None if one
    was).
    """
    h = inner.complex.cohomology(wmax=w_max)
    cells = sorted(h.space.cells)
    mcells = sorted(inner.module.space.cells)
    c = _line(cells, mcells)
    d0 = mcells[0][0] - c * mcells[0][1] if mcells else Fraction(0)
    record: Dict = {"slope": c, "offset": d0, "off_line": None, "reason": None}
    off = ([("class", cell) for cell in cells if cell[0] != c * cell[1]]
           + [("module cell", cell) for cell in mcells
              if cell[0] - c * cell[1] != d0])
    if off:
        what, cell = off[0]
        record["off_line"] = cell
        record["reason"] = f"{what} at {cell} off its line"
        return None, record
    ends: Dict[Key, Tuple[Key, Key]] = {}
    for k, rep in h.representatives.items():
        blocks = {inner.ends(x) for x in rep}
        if len(blocks) != 1:
            record["reason"] = f"representative of {k} spans several blocks"
            return None, record
        ends[k] = blocks.pop()
    model = MinimalModel(inner, h, ends)
    if reduction_data(model) is None:
        record["reason"] = "not weight-connected over its weight-0 classes"
        return None, record
    return model, record


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
    scheme = _BarScheme(m, n_max, w_cap, reduced, n)
    f = scheme.field
    return _two_sided(scheme, n.basis_keys(), scheme.nobj,
                      lambda ak, nk: n.act_left({ak: f.one}, {nk: f.one}),
                      n.complex, n.space.fully_known())


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


class StrictEndAlgebra(InnerModel):
    """Honest module endomorphisms, with their defining maps attached.

    The basis element labelled (j, q) is the Yoneda map f_{j,q} of
    Hom_A(e_j·A[n_j], m) = m·e_j (see ``strict_end_algebra``), and
    ``map_of`` holds each as {module key: image}.
    """

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, map_of: Dict[Key, Dict[Key, Elt]],
                 name: str = ""):
        super().__init__(complex, unit, product, module, name=name)
        self.map_of = map_of

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        """Each basis map's defining images, ``map_of``."""
        for fk in self.basis_keys():
            for p, val in self.map_of[fk].items():
                yield fk, p, val


def strict_end_algebra(m: DgModule) -> StrictEndAlgebra:
    """Module endomorphisms of m = ⊕_j e_j·A[n_j], read off its projective
    witness by Yoneda: Hom_A(e_j·A[n_j], m) = m·e_j.

    Let g_j be the image of e_j.  The basis map f_{j,q}, for each basis key
    q of m with q·e_j = q, sends the image of x in summand j to q·x and the
    other summands to 0; it sits at |q| - |g_j|.  Then d f_{j,q} = f_{j,dq},
    f_{i,q} ∘ f_{j,q'} = f_{j,q·a'} when q' is the image of a' in summand
    i and 0 otherwise, and the unit is the sum of the f_{j,g_j}.  Nothing is
    solved, so the result is exact wherever m is known: it is complete when
    m is fully known and known nowhere otherwise.  A module without the
    witness raises ValueError.
    """
    if not m.projective:
        raise ValueError(f"module {m.name or '(unnamed)'} carries no projective "
                         "witness, so its strict endomorphisms are not derived")
    f = m.field
    mkeys = m.basis_keys()
    owner: Dict[Key, Tuple[int, Key]] = {}  # module key: (summand, algebra key)
    cells: Dict[Tuple[int, int], List[Tuple[int, Key]]] = {}
    for j, (e, incl) in enumerate(m.projective):
        owner.update((mk, (j, x)) for x, mk in incl.items())
        gd, gw = incl[next(iter(e))][:2]  # the bidegree of g_j
        for q in mkeys:
            qe = m.act({q: f.one}, e)
            if qe == {q: f.one}:
                cells.setdefault((q[0] - gd, q[1] - gw), []).append((j, q))
            elif qe:
                raise ValueError(f"module key {q} is not homogeneous for the "
                                 "summand idempotents")
    sp = BiGradedSpace(f)
    for (d, w) in sorted(cells):
        sp.add_cell(d, w, cells[(d, w)])
    if m.space.fully_known():
        sp.mark_all_complete()
    else:
        sp.zero_outside = False  # known nowhere

    key_of = {lab: (d, w, i) for (d, w), labs in cells.items()
              for i, lab in enumerate(labs)}

    def yoneda(j: int, e: Elt) -> Elt:
        """f_{j,e} for an element e of m·e_j."""
        return {key_of[(j, q)]: c for q, c in e.items()}

    cx = CochainComplex(sp)
    map_of: Dict[Key, Dict[Key, Elt]] = {}
    for (j, q), fk in key_of.items():
        dq = m.complex.d.column(q)
        if dq:
            cx.d.set_column(fk, yoneda(j, dq))
        map_of[fk] = {mk: m.action[(q, x)]
                      for x, mk in m.projective[j][1].items()
                      if (q, x) in m.action}

    def product(k1: Key, k2: Key) -> Elt:
        i, q = sp.label_of(k1)
        j, q2 = sp.label_of(k2)
        i2, a2 = owner[q2]
        return yoneda(j, m.action.get((q, a2), {})) if i2 == i else {}

    unit: Elt = {}
    for j, (e, incl) in enumerate(m.projective):
        unit.update(yoneda(j, {incl[x]: c for x, c in e.items()}))
    return StrictEndAlgebra(cx, unit, product, m, map_of,
                            name=f"EndStrict({m.name})")


def embed_strict(strict: StrictEndAlgebra, b: EndAlgebra) -> GradedMap:
    """Strict endomorphisms as length-zero convolution elements of b."""
    if strict.module is not b.module:
        raise ValueError("endomorphism algebras of different modules")
    g = GradedMap(strict.space, b.space, 0, 0)
    for sk, p, val in strict.evaluations():
        for q, c in val.items():
            tk = b.space.key_of(q[0] - p[0], q[1] - p[1], (q, (p, ())))
            g.add_entry(sk, tk, c)
    return g
