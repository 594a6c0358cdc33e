"""Bar resolutions, derived Hom/Tor, and convolution endomorphism algebras.

One Hom builder (``_hom_complex_into``) and one tensor builder
(``_two_sided``) build every Hom and tensor complex, out of any semi-free
module in the layout of ``dg.SemiFree``: per generator a label, bidegree
and end object, the scalar terms of d, and the terms with a coefficient in
the algebra as flat parallel lists.  m's bar construction (``_BarScheme``)
has the inner differential as its scalar terms and one term per tuple, its
parent times its last slot; the resolution witness of
``DgModule.resolution`` has no scalar terms.  A builder marks known only
what P's certificate says; the tensor also takes the weights it keeps.

The reduced bar construction tensors over the span of the weight-zero
idempotents whenever the algebra is weight-connected; slot tuples are then
composable chains and every weight column is finite.  The unreduced variant
tensors over the ground field and carries no exactness certificates; the
objects each basis element runs between are its ``reduction_data``.  The
minimal model is the cohomology of a convolution algebra with the product its
representatives induce, built where a purity check makes it formal; the
witness model is Ext(k, k) read off k's resolution witness, with the Yoneda
product its chain-map lifts give, under the same check.

Each slot tuple is an integer index, numbered depth first, and each slot an
integer id.  A tuple's parent is the tuple without its last slot, its child
by a slot is found under parent * n_slots + slot id, and its differential row
(computed once) is its parent's row with the slot appended, plus the slot's
own differential and its merge with the slot (or module key) before it.  The
builders place each (generator, key) at an int, its index in its cell, and
write each block entry once, as a residue over GF(p) with its sign folded
in, adding only the terms that can land on an entry already written.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .dg import DgAlgebra, DgModule, SemiFree, _UNSET
from .graded import (
    BiGradedSpace, CochainComplex, Cohomology, Elt, GradedMap, Key,
    _columns, _install,
)
from .linalg import Scalar, _add

TupleLabel = Tuple[Key, Tuple[Key, ...]]
Caps = Tuple[int, int]


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
    the obvious basis of composable tuples.  A convolution algebra or its
    minimal model reads each element's objects off its ``ends``; an
    opposite mirrors its base's data, as z ·op k = k·z for z in degree 0;
    any other algebra asks every idempotent product.
    """
    if a._reduction is _UNSET:
        base = a._opposite_of
        if base is None:
            a._reduction = _reduction_data(a, getattr(a, "ends", None))
        else:
            red = reduction_data(base)
            a._reduction = None if red is None else ReductionData(
                red.sign, red.idempotents, red.robj, red.lobj)
    return a._reduction


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


def _module_objects(m: DgModule) -> Optional[Dict[Key, int]]:
    """Object index per module basis key, or None when m's algebra has no
    reduction data or m is not homogeneous; kept on m."""
    if m._objects is _UNSET:
        red = reduction_data(m.algebra)
        m._objects = None if red is None else _object_map(m, red)
    return m._objects


def _object_map(m: DgModule, red: ReductionData) -> Optional[Dict[Key, int]]:
    """Each key must be fixed by exactly one idempotent and killed by the
    rest, read off the action table, where a missing entry is zero."""
    one, table, right = m.field.one, m.action, m.side == "right"
    out: Dict[Key, int] = {}
    for k in m.basis_keys():
        hits = []
        for i, z in enumerate(red.idempotents):
            got = table.get((k, z) if right else (z, k))
            if got == {k: one}:
                hits.append(i)
            elif got:
                return None
        if len(hits) != 1:
            return None
        out[k] = hits[0]
    return out


def _uncut_caps(m: DgModule) -> Union[Caps, str]:
    """(L, W): the most slots and the heaviest slot weight sum of any
    reduced bar tuple over m, so that a bar at caps past them cuts nothing;
    or why m's reduced bar is not finite, naming only what depends on m.
    A tuple is a chain of the algebra's nonzero-weight basis keys, each an
    arrow from its lobj to its robj, starting at the object of a module key:
    the bar is finite when no such chain reaches a directed cycle."""
    if m._uncut is _UNSET:
        m._uncut = _longest_chains(m)
    return m._uncut


def _longest_chains(m: DgModule) -> Union[Caps, str]:
    a = m.algebra
    if not (a.space.fully_known() and m.space.fully_known()):
        return "the algebra or the module is not fully known"
    objs = _module_objects(m)
    if objs is None:
        return "no reduced bar"
    red = reduction_data(a)
    arrows: Dict[int, List[Tuple[int, int]]] = {}
    for k in a.basis_keys():
        if k[1]:
            arrows.setdefault(red.lobj[k], []).append((red.robj[k], abs(k[1])))
    longest: Dict[int, Caps] = {}  # per object, the longest chain from it
    walking = set()

    def walk(o: int) -> Optional[int]:
        """Fill longest[o]; return the object a chain from o cycles at."""
        if o in walking:
            return o
        if o not in longest:
            walking.add(o)
            n = w = 0
            for t, wt in arrows.get(o, ()):
                at = walk(t)
                if at is not None:
                    return at
                n, w = max(n, longest[t][0] + 1), max(w, longest[t][1] + wt)
            walking.discard(o)
            longest[o] = (n, w)
        return None

    starts = sorted(set(objs.values()))
    for o in starts:
        at = walk(o)
        if at is not None:
            return f"slots cycle at object {at}"
    return (max((longest[o][0] for o in starts), default=0),
            max((longest[o][1] for o in starts), default=0))


class _BarScheme(SemiFree):
    """The bar tuples (module key, bar slots) over m as a semi-free module:
    the tuples are its generators, the inner differential (internal terms
    plus first and middle merges) its scalar ``rows()``, and each tuple
    with slots has one term with a coefficient in the algebra, its parent
    (the tuple without its last slot) times that slot.

    Tuples are numbered depth first, so a term's ``src`` is its tuple and
    ``dst`` the parent, and ``kid`` is the id the slot got in ``keys`` (and
    ``slot_ids``) when it first fit.  ``child`` maps parent * ``n_slots`` +
    slot id back to the index, and ``bare`` a module key to its bare tuple.
    The tuples do not depend on a target, so m keeps the scheme, with its
    ``rows()`` and the caps-free part of ``certified`` once asked
    (``_bar_scheme``; the stores are listed on ``dg.DgModule``)."""

    def __init__(self, m: DgModule, n_max: int, w_cap: int, reduced: bool):
        a = m.algebra
        red = reduction_data(a) if reduced else None
        mobj = _module_objects(m) if reduced else None
        self.module = m
        self.algebra = a
        self.field = f = m.field
        self.n_max = n_max
        # the cap bounds the slot weight sum, not the total: that filtration
        # is raised by the differential and added by convolution, so the
        # truncation is an honest quotient in both structures
        self.w_cap = w_cap
        self.reduced = reduced
        self.red = red
        self.sign = red.sign if reduced else 0
        self._rows: Optional[List[Dict[int, Scalar]]] = None
        self._known = _UNSET

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
        objs: List[int] = []
        src: List[int] = []
        dst: List[int] = []
        kid: List[int] = []
        coef: List[Scalar] = []
        child: Dict[int, int] = {}
        ids: Dict[Key, int] = {}
        n = len(akeys)
        # the term of T = P + (ak,) is P·ak with sign (-1)^(|P| + 1)
        signs = (f.neg(f.one), f.one)

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
            sign = signs[deg & 1]
            for ak, sid, dd, dw, rk, rest in cands:
                u = len(labels)
                lab = al + (ak,)
                labels.append((mk, lab))
                degs.append(deg + dd)
                wts.append(wt + dw)
                objs.append(rk)
                src.append(u)
                dst.append(t)
                kid.append(sid)
                coef.append(sign)
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
            objs.append(ro)
            if n_max and room != 0:
                extend(t, mk, (), mk[0], mk[1], ro, room)

        super().__init__(labels, degs, wts, objs, src, dst, kid, coef, list(ids))
        self.child, self.bare, self.slot_ids, self.n_slots = child, bare, ids, n

    def rows(self) -> List[Dict[int, Scalar]]:
        """The differential of each tuple as {index: coefficient}, a list in
        index order, every coefficient a residue over GF(p).

        A tuple T = P + (ak,) keeps each term of P's row with ak appended,
        under the same prefix sign.  Its new terms are d(ak), with sign
        (-1)^(|P| + 1), and the merge of ak into P's last slot, or into the
        module key when P is bare, with sign (-1)^|P|; these are added, as
        they may meet a kept term or each other.  P·ak itself is T's term
        with a coefficient in the algebra.  Tuples are numbered depth first,
        so the terms come in index order and P's row is written before T's."""
        if self._rows is not None:
            return self._rows
        p = self.field.char
        a, m = self.algebra, self.module
        labels, degs = self.labels, self.degs
        child, bare, ids, n = self.child, self.bare, self.slot_ids, self.n_slots
        slots = self.keys  # slot keys by id
        d_mod, d_alg = _columns(m.complex.d), _columns(a.complex.d)

        def left(t: int, slot: Key) -> RuntimeError:
            lab = ((slot, ()) if t < 0
                   else (labels[t][0], labels[t][1] + (slot,)))
            return RuntimeError(f"bar term left the window: {lab}")

        def place(t: int) -> Callable[[Key], int]:
            """The bare tuple of a module key when t is -1, else the id of a
            slot; a key with none left the window at t + (key,)."""
            def of(k: Key) -> int:
                x = bare.get(k) if t < 0 else ids.get(k)
                if x is None:
                    raise left(t, k)
                return x
            return of

        rows: List[Dict[int, Scalar]] = [{}] * len(labels)
        for mk, t in bare.items():
            rows[t] = dict(_terms(d_mod.get(mk, ()), place(-1), p))
        # each tuple's parent and last slot id, filled as the terms come
        parent, sids = [-1] * len(labels), [-1] * len(labels)
        d_slot: Dict[int, List] = {}  # by slot id
        merges: Dict[int, List] = {}  # by bare tuple or slot id, and slot id
        for t, pt, sid in zip(self.src, self.dst, self.kid):
            parent[t], sids[t] = pt, sid
            prow, row = rows[pt], {}
            try:
                for j, c in prow.items():
                    row[child[j * n + sid]] = c
            except KeyError:
                j = next(j for j in prow if j * n + sid not in child)
                raise left(j, slots[sid]) from None
            q, odd = parent[pt], degs[pt] & 1
            d_ak = d_slot.get(sid)
            if d_ak is None:
                d_ak = d_slot[sid] = _terms(d_alg.get(slots[sid], ()), place(pt), p)
            key = (sids[pt] if q >= 0 else -1 - pt) * n + sid
            merged = merges.get(key)
            if merged is None:
                merged = merges[key] = _terms((
                    m.action.get((labels[t][0], slots[sid]), {}) if q < 0
                    else a.basis_product(slots[sids[pt]], slots[sid])).items(),
                    place(q), p)
            for x, c in d_ak:
                u = child.get(pt * n + x)
                if u is None:
                    raise left(pt, slots[x])
                _add(row, u, c if odd else p - c, p)
            for x, c in merged:
                u = x if q < 0 else child.get(q * n + x)
                if u is None:
                    raise left(q, slots[x])
                if u in row:
                    _add(row, u, p - c if odd else c, p)
                else:
                    row[u] = p - c if odd else c
            rows[t] = row
        self._rows = rows
        return rows

    def certified(self, n_max: int, w_cap: int) -> Cert:
        """The builders' certificate (``Cert``) at the asked caps, or None
        when no column is complete: every tuple within top of the lightest
        weight was enumerated, and the lightest generator is a module key.
        The asked caps are the scheme's own, or past them when they read as
        m's uncut caps (``_bar_scheme``), which cut nothing.

        Slot weight sums at a total are at most its gap to the lightest
        module element, and each slot contributes at least 1, so a column
        is complete while that gap is within both caps, the module is fully
        known and so is the algebra, or at least its slot columns up to the
        gap.  A partly known algebra also needs honest slots: its weight-0
        column certified and no weight of the other sign, so that hidden
        cells could only sit at heavier weights of the slot sign."""
        if self._known is _UNSET:
            self._known = self._known_columns()
        if self._known is None:
            return None
        s, known, lightest = self._known
        return s, min(n_max, w_cap, known), lightest

    def _known_columns(self) -> Optional[Tuple[int, float, Optional[int]]]:
        """(sign, the heaviest slot column known, lightest module weight),
        the part of ``certified`` the caps do not change; None when nothing
        is certified.  A fully known algebra knows every column."""
        m, sp, s = self.module, self.algebra.space, self.sign
        if not self.reduced or not m.space.fully_known():
            return None
        known = math.inf
        if not sp.fully_known():
            if not (sp.column_complete(0) and _side_certified_empty(sp, -s)):
                return None
            top = min(self.n_max, self.w_cap)
            known = next((i - 1 for i in range(1, top + 1)
                          if not sp.column_complete(s * i)), top)
        mwts = [s * k[1] for k in m.basis_keys()]
        return s, known, s * min(mwts) if mwts else None


def _bar_scheme(m: DgModule, n_max: int, w_cap: int, reduced: Optional[bool],
                target: Optional[DgModule] = None, keep: bool = True
                ) -> Tuple[_BarScheme, Optional[Dict[Key, int]], Cert]:
    """m's bar scheme at the caps, the target's object per key (``nobj``,
    None unreduced) and the certificate (``certified``) the asked caps give.  Whether the scheme
    is reduced is decided first, from m and, when given, the target.  A
    reduced cap past m's uncut one (``_uncut_caps``) reads as it, with the
    same tuples.  m keeps a scheme it builds unless keep is False."""
    if m.side != "right":
        raise ValueError("bar source must be a right module")
    if n_max < 0 or w_cap < 0:
        raise ValueError("caps must be non-negative")
    a = m.algebra
    mobj = _module_objects(m)
    nobj = None
    if mobj is not None and target is not None and reduced is not False:
        nobj = _module_objects(target)
    if reduced is None:
        reduced = mobj is not None and (target is None or nobj is not None)
    if reduced and mobj is None:
        raise ValueError(
            "reduced bar needs a weight-connected algebra and an "
            f"object-homogeneous module (here {a.name or 'unnamed'} and "
            f"{m.name or 'unnamed'}): " + _unreducible_reason(m, reduction_data(a)))
    if reduced and target is not None and nobj is None:
        raise ValueError("target module is not object-homogeneous")
    key, uncut = (n_max, w_cap, reduced), _uncut_caps(m) if reduced else None
    if isinstance(uncut, tuple):
        key = (min(n_max, uncut[0]), min(w_cap, uncut[1]), True)
    scheme = m._schemes.get(key)
    if scheme is None:
        scheme = _BarScheme(m, *key)
        if keep:
            m._schemes[key] = scheme
    return scheme, nobj, scheme.certified(n_max, w_cap)


class BarData:
    """Two-sided bar complex of a right module with its augmentation."""

    def __init__(self, complex: CochainComplex, augmentation: GradedMap,
                 generator_counts: Dict[Tuple[int, int, int], int],
                 reduced: bool):
        self.complex = complex
        self.augmentation = augmentation
        self.generator_counts = generator_counts
        self.reduced = reduced


def _terms(elt, place: Callable[[Key], int], p: int) -> List[Tuple[int, Scalar]]:
    """Each (key, c) of elt as (its place, c), a residue over GF(p); a term
    whose c is zero there is dropped, as ``DgModule.act`` drops it."""
    out = []
    for k, c in elt:
        if p:
            c %= p
        if c:
            out.append((place(k), c))
    return out


# a builder's certificate (sign, top, light): every generator w with
# sign·(w - light) <= top is present, light the lightest (None for none)
Cert = Optional[Tuple[int, int, Optional[int]]]
# a weight interval (lo, hi), both ends included
Band = Tuple[int, int]


def _two_sided(src: SemiFree, keys: Sequence[Key],
               lobj: Optional[Dict[Key, int]], merge: Callable[[Key, Key], Elt],
               rcx: CochainComplex, window: Band, cert: Cert
               ) -> Tuple[CochainComplex, List[List[int]]]:
    """The semi-free module src tensored over the idempotents with a right
    factor given as plain data: its basis keys, the object each starts at
    (None when unreduced), the merge of an algebra key into a key, and its
    complex.  Only the total weights within window are kept, and cert alone
    marks the known ones (cert is None when the right factor is not fully
    known), all of them when src or the right factor has nothing to tensor;
    a label is src's with the right key appended.  Also returns each
    right key's place per generator, -1 where there is none.  d(g ⊗ r) is
    d(g) with each term g'·(c·a) merged as c·g' ⊗ a·r, plus (-1)^|g| g ⊗ dr."""
    labels, degs, wts, objs = src.labels, src.degs, src.wts, src.objs
    nt, p = len(labels), rcx.field.char
    v0, v1 = window
    at = [[-1] * nt for _ in keys]
    places = dict(zip(keys, at)).__getitem__
    d_right = _columns(rcx.d)
    # right keys by the object they start at, unreduced all at 0, each with
    # its places, its index and its differential
    right: Dict[int, List] = {}
    for ri, (rk, col) in enumerate(zip(keys, at)):
        right.setdefault(0 if lobj is None else lobj[rk], []).append(
            (rk, col, ri, _terms(d_right.get(rk, ()), places, p)))
    cells: Dict[Tuple[int, int], List] = defaultdict(list)
    for t in range(nt):
        lab, d, w = labels[t], degs[t], wts[t]
        for rk, col, _, _ in right.get(objs[t], ()):
            if v0 <= w + rk[1] <= v1:
                labs = cells[d + rk[0], w + rk[1]]
                col[t] = len(labs)
                labs.append(lab + (rk,))

    tsrc, tdst, kid, coef = src.src, src.dst, src.kid, src.coef
    nx, nk = len(tsrc), len(keys)
    merges: Dict[int, List] = {}  # by algebra key id and right key index
    entries: Dict[Tuple[int, int], Dict] = defaultdict(dict)
    rows = src.rows()
    x1 = 0
    for t in range(nt):
        d, w = degs[t], wts[t]
        x0 = x1
        while x1 < nx and tsrc[x1] == t:
            x1 += 1
        mine = range(x0, x1)  # t's terms
        for rk, col, ri, d_rk in right.get(objs[t], ()):
            i = col[t]
            if i < 0:
                continue
            block = entries[d + rk[0], w + rk[1]]
            # the scalar terms with rk carried along, and the right factor's
            # differential with sign (-1)^|g|: rows nothing else writes
            if rows is not None:
                for j, c in rows[t].items():
                    block[col[j], i] = c
            for col2, c in d_rk:
                block[col2[t], i] = p - c if d & 1 else c
            # each term g_j·(c·a) of d(g_t) merged into rk: rows (g_j, rk2)
            for x in mine:
                merged = merges.get(kid[x] * nk + ri)
                if merged is None:
                    merged = merges[kid[x] * nk + ri] = _terms(
                        merge(src.keys[kid[x]], rk).items(), places, p)
                j, s = tdst[x], coef[x]
                for col2, c in merged:
                    _add(block, (col2[j], i), c * s, p)
    cx = _install(rcx.field, cells, entries)
    space = cx.space

    if cert is not None:
        # w reads the generators at w less the right keys' weights: empty
        # beyond the edge near + light, complete the top weights inside it
        sign, top, light = cert
        if light is None or not keys:  # no generators or no keys: zero
            space.mark_all_complete()
            return cx, at
        edge = sign * min(sign * k[1] for k in keys) + light
        lo, hi = sorted((edge, edge + sign * top))
        for w in range(max(lo, v0), min(hi, v1) + 1):
            space.set_known(w)
        if sign > 0:
            space.known_zero_below = edge
        else:
            space.known_zero_above = edge
    return cx, at


def bar_resolution(m: DgModule, n_max: int, w_cap: Optional[int] = None,
                   reduced: Optional[bool] = None) -> BarData:
    """Semifree bar replacement of m with augmentation back to m: the
    two-sided bar complex with the algebra itself as the right factor."""
    if w_cap is None:
        w_cap = n_max
    scheme, _, cert = _bar_scheme(m, n_max, w_cap, reduced)
    a = m.algebra
    keys = a.basis_keys()
    # the slot check already covers the algebra's columns
    cx, at = _two_sided(scheme, keys, scheme.red.lobj if scheme.reduced else None,
                        a.basis_product, a.complex, (-w_cap, w_cap), cert)

    # the augmentation sends a bare tuple with right key bk to mk·bk, read
    # off the action table
    aug = GradedMap(cx.space, m.space, 0, 0)
    for mk, t in scheme.bare.items():
        for col, bk in zip(at, keys):
            if col[t] >= 0:
                src = (mk[0] + bk[0], mk[1] + bk[1], col[t])
                for tk, c in m.action.get((mk, bk), {}).items():
                    aug.add_entry(src, tk, c)

    counts: Dict[Tuple[int, int, int], int] = {}
    for (_, al), d, w in zip(scheme.labels, scheme.degs, scheme.wts):
        counts[(len(al), d, w)] = counts.get((len(al), d, w), 0) + 1
    return BarData(cx, aug, counts, scheme.reduced)


def _hom_complex_into(src: SemiFree, n: DgModule,
                      nobj: Optional[Dict[Key, int]], cert: Cert) -> CochainComplex:
    """Hom over the idempotents from the semi-free module src into n: the
    map g ↦ q, labelled (q, g's label), sits at |q| - |g|, and
    (d f)(g) = d(f(g)) - (-1)^|f| f(d g), a term g'·(c·a) of d(g) read as
    c·f(g')·a.  cert, which counts only when n is fully known, alone marks
    the known columns, all of them when src has no generators or n no
    keys."""
    labels, degs, wts, objs = src.labels, src.degs, src.wts, src.objs
    nt, p = len(labels), n.field.char
    nkeys = n.basis_keys()
    at = [[-1] * nt for _ in nkeys]
    places = dict(zip(nkeys, at)).__getitem__
    d_target = _columns(n.complex.d)
    # target keys by object, unreduced all at 0, each with its places and
    # its differential; the generators by end object, each in its order
    qs: Dict[int, List] = {}
    ending: Dict[int, List[int]] = defaultdict(list)
    for t, obj in enumerate(objs):
        ending[obj].append(t)
    cells: Dict[Tuple[int, int], List] = defaultdict(list)
    for q, col in zip(nkeys, at):
        obj = 0 if nobj is None else nobj[q]
        qs.setdefault(obj, []).append(
            (q, col, _terms(d_target.get(q, ()), places, p)))
        for t in ending[obj]:
            labs = cells[q[0] - degs[t], q[1] - wts[t]]
            col[t] = len(labs)
            labs.append((q, labels[t]))

    entries: Dict[Tuple[int, int], Dict] = defaultdict(dict)
    rows = src.rows()
    for t in range(nt):
        d, w = degs[t], wts[t]
        for q, col, dq in qs.get(objs[t], ()):
            r = col[t]
            # the scalar terms precomposed: every term j of t's row sits at
            # |t| + 1, so the sign (-1)^(|q| + |j| + 1) is one per (t, q),
            # and each term is the first write to its entry
            if rows is not None:
                block, neg = entries[q[0] - d - 1, q[1] - w], (q[0] + d) & 1
                for j, c in rows[t].items():
                    block[r, col[j]] = p - c if neg else c
            # the target differential after the operator: rows (q2, t)
            # nothing else writes
            for col2, c in dq:
                entries[q[0] - d, q[1] - w][col2[t], r] = c
    # each term g_j·(c·a) of d(g_t) acts on values, sign -(-1)^(|q| - |g_j|);
    # by key id, each target key a (starting where g_j ends) moves, and how
    acts: Dict[int, List] = {}
    for t, j, x, s in zip(src.src, src.dst, src.kid, src.coef):
        acting = acts.get(x)
        if acting is None:
            a = src.keys[x]
            acting = acts[x] = [
                (q, col, _terms(qa.items(), places, p))
                for q, col, _ in qs.get(objs[j], ())
                for qa in [n.action.get((q, a))] if qa]
        dj, wj = degs[j], wts[j]
        for q, col, qa in acting:
            block, i = entries[q[0] - dj, q[1] - wj], col[j]
            c_q = s if (q[0] - dj) & 1 else -s
            for col2, c in qa:
                _add(block, (col2[t], i), c * c_q, p)
    cx = _install(n.field, cells, entries)
    space = cx.space

    if cert is not None and n.space.fully_known():
        # column u reads the generators at w - u, w a weight of n: empty
        # beyond the edge far - light, complete the top columns inside it
        sign, top, light = cert
        if light is None or not nkeys:  # no generators or no keys: zero
            space.mark_all_complete()
            return cx
        edge = sign * max(sign * k[1] for k in nkeys) - light
        lo, hi = sorted((edge, edge - sign * top))
        for u in range(lo, hi + 1):
            space.set_known(u)
        if sign > 0:
            space.known_zero_above = edge
        else:
            space.known_zero_below = edge
    return cx


def _replacement(m: DgModule, n: DgModule, n_max: int, w_cap: int,
                 reduced: Optional[bool]
                 ) -> Tuple[SemiFree, Optional[Dict[Key, int]], Cert, Band]:
    """A semi-free replacement P of m, the object of each key of n (None
    over one object), P's certificate, and the weights of P ⊗ n the tensor
    keeps.

    When m carries a resolution recipe (``DgModule.resolution``) and
    ``reduced`` is not given, P is the witness the recipe gives at length
    n_max and weight cap w_cap, one copy of the generators within w_cap of
    the lightest weight w0.  A recipe's algebra is positively weighted, so
    d lowers weight and the cut is a subcomplex, the sign is +1, every
    generator within min(n_max, w_cap) of w0 is listed, and the tensor keeps
    all it reaches.  Otherwise P is m's bar, with tuples of at most n_max
    slots whose weights sum to at most w_cap, the scheme m keeps at those
    caps (``_bar_scheme``), with n's objects read per call, and the tensor
    keeps the total weights within w_cap."""
    if reduced is not None or m.resolution is None:
        return (*_bar_scheme(m, n_max, w_cap, reduced, n), (-w_cap, w_cap))
    if n_max < 0 or w_cap < 0:
        raise ValueError("caps must be non-negative")
    p = m.resolution(n_max, w_cap)
    w0 = min(p.wts)
    nwts = [q[1] for q in n.basis_keys()] or [0]
    return (p, None, (1, min(n_max, w_cap), w0),
            (min(nwts) + w0, max(nwts) + w0 + w_cap))


def derived_hom(m: DgModule, n: DgModule, n_max: int,
                w_cap: Optional[int] = None,
                reduced: Optional[bool] = None) -> CochainComplex:
    """Right derived Hom from m to n over their common algebra: Hom_A(P, n)
    built by the one Hom builder, for the semi-free replacement P of m that
    ``_replacement`` chooses (the witness of m's resolution recipe, or,
    whenever ``reduced`` is passed or there is no recipe, m's bar), known
    where P's certificate says."""
    if m.algebra is not n.algebra:
        raise ValueError("derived_hom needs modules over the same algebra")
    if n.side != "right":
        raise ValueError("derived_hom target must be a right module")
    if w_cap is None:
        w_cap = n_max
    p, nobj, cert, _ = _replacement(m, n, n_max, w_cap, reduced)
    return _hom_complex_into(p, n, nobj, cert)


class InnerModel(DgAlgebra):
    """A model of the endomorphisms of ``module``, acting on it by
    evaluation.  Each model supplies ``evaluations``: the (f, p, f(p))
    of its length-zero part, through which the module acts."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.module = module
        self._over: Optional[DgModule] = None

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        raise NotImplementedError

    def module_over_opposite(self) -> DgModule:
        """The defining module as a right module over the opposite algebra,
        acting by signed evaluation: p·f = (-1)^{|f||p|} f(p).  Built once
        per model and kept on it."""
        if self._over is not None:
            return self._over
        f = self.field
        m = self.module
        action: Dict[Tuple[Key, Key], Elt] = {}
        for fk, p, val in self.evaluations():
            odd = fk[0] % 2 and p[0] % 2
            action[(p, fk)] = {q: f.neg(c) if odd else c for q, c in val.items()}
        self._over = DgModule(self.opposite(), m.complex, action, side="right",
                              name=f"{m.name}^" if m.name else "")
        return self._over


class EndAlgebra(InnerModel):
    """Derived endomorphisms of a module, with the convolution product."""

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 module: DgModule, w_cap: int, reduced: bool, name: str = ""):
        super().__init__(complex, unit, product, module, name=name)
        self.w_cap = w_cap
        self.reduced = reduced

    def ends(self, k: Key) -> Tuple[Key, Key]:
        """The module keys (q, p) of the element F = (q, (p, slots)): the
        product fixes F by q's identity on the left and p's on the right."""
        q, (p, _) = self.space.label_of(k)
        return q, p

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
    return _end_algebra(m, n_max, n_max if w_cap is None else w_cap, reduced, name)


def _end_algebra(m: DgModule, n_max: int, w_cap: int, reduced: Optional[bool] = None,
                 name: str = "", keep: bool = True) -> EndAlgebra:
    """``end_algebra``; with keep False, for a per-call E, m keeps no scheme."""
    scheme, nobj, cert = _bar_scheme(m, n_max, w_cap, reduced, m, keep)
    cx = _hom_complex_into(scheme, m, nobj, cert)
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

    return EndAlgebra(cx, unit, product, m, w_cap, scheme.reduced,
                      name=name or f"End({m.name})")


class MinimalModel(InnerModel):
    """The cohomology H(E) of a convolution algebra E on the weight columns
    |w| <= w_max, or on all of them, as a graded algebra with d = 0.

    i sends a class to its representative in E and p is
    ``Cohomology.project``, so the product is m₂ = p∘μ∘(i⊗i).  Each
    representative lies in one block of E, between the module keys
    ``ends``, and a product of classes whose blocks do not compose is zero
    with no multiply.  ``minimal_model`` builds it only where purity makes
    it E's minimal model, and ``purity`` is the record of that check.
    """

    def __init__(self, inner: EndAlgebra, h: Cohomology,
                 ends: Dict[Key, Tuple[Key, Key]], purity: Dict):
        reps = h.representatives

        def product(k1: Key, k2: Key) -> Elt:
            if ends[k1][1] != ends[k2][0]:
                return {}
            return h.project(inner.multiply(reps[k1], reps[k2]))

        super().__init__(CochainComplex(h.space), h.project(inner.unit),
                         product, inner.module, name=f"H({inner.name})")
        self.inner = inner
        self.representatives = reps
        self.purity = purity
        self._ends = ends

    def ends(self, k: Key) -> Tuple[Key, Key]:
        return self._ends[k]

    def _weight_sign(self) -> Optional[int]:
        """H(E)'s sign; held at weight 0, as a cut may leave it, E's (+1
        where E has both signs or none)."""
        weighted = any(k[1] for k in self.basis_keys())
        return super()._weight_sign() if weighted else self.inner._weight_sign() or 1

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


def _purity(classes: BiGradedSpace, m: DgModule) -> Dict:
    """The record of the purity check on the cells of classes over the
    module m: the slope c of the line d = c·w (``_line``), m's offset d0
    from it, ``off_line``, the first class or module cell off its line (None
    if there is none), and ``reason``, why no model is built (None if one
    can be)."""
    cells, mcells = sorted(classes.cells), sorted(m.space.cells)
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
    return record


def minimal_model(inner: EndAlgebra, w_max: Optional[int]
                  ) -> Tuple[Optional[MinimalModel], Dict]:
    """E's minimal model on the weight columns |w| <= w_max, the weights an
    outer bar capped at w_max reads, or None; and a record of the check.
    With w_max None the model and the check take every weight of E, and the
    model knows what E knows: all of it, when E was built with nothing cut
    and marked complete, so one model then serves an outer bar at any cap.

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
    record = _purity(h.space, inner.module)
    if record["reason"] is not None:
        return None, record
    ends: Dict[Key, Tuple[Key, Key]] = {}
    for k, rep in h.representatives.items():
        blocks = {inner.ends(x) for x in rep}
        if len(blocks) != 1:
            record["reason"] = f"representative of {k} spans several blocks"
            return None, record
        ends[k] = blocks.pop()
    model = MinimalModel(inner, h, ends, record)
    if reduction_data(model) is None:
        record["reason"] = "not weight-connected over its weight-0 classes"
        return None, record
    return model, record


class WitnessModel(InnerModel):
    """REnd_a(k) read off the minimal resolution witness P of k's recipe
    (``DgModule.resolution``): its classes are Hom_a(P, k), whose d is
    zero, as ``derived_hom`` builds it, the map g ↦ q labelled (q, g's
    label), knowing what P's certificate says.  k has one key q0, so every
    class runs from q0 to q0 (``ends``), and only the unit, p0 ↦ q0 for P's
    one generator p0 in degree 0, acts on k.  The weight sign is the
    algebra's own, as E's at the same caps: P is positively weighted.

    The product is Yoneda's, f·g = f∘G for the chain map G: P → P over g
    that ``lift`` finds, evaluated only for the pairs something reads, and
    with no lift where a factor is the unit or no class sits at the sum of
    the bidegrees.  P is rebuilt from the recipe, a prefix of its kept
    build, only for a lift."""

    def __init__(self, hom: CochainComplex, m: DgModule, caps: Tuple[int, int],
                 purity: Dict):
        (one,) = hom.space.keys(0, 0)  # p0 ↦ q0
        super().__init__(hom, {one: m.field.one}, self._yoneda, m,
                         name=f"Ext({m.name})")
        (self._q0,) = m.basis_keys()
        self._one, self.caps, self.purity = one, caps, purity
        self._witness: Optional[Tuple] = None
        self._lifts: Dict[Key, List[Dict[Tuple[int, Key], Scalar]]] = {}

    def ends(self, k: Key) -> Tuple[Key, Key]:
        return self._q0, self._q0

    def evaluations(self) -> Iterator[Tuple[Key, Key, Elt]]:
        yield self._one, self._q0, {self._q0: self.field.one}

    def _realized(self) -> Tuple:
        """P, P ⊗_A A over the field (``_two_sided``) on the weights the cut
        keeps exact, within the weight cap of the lightest, and the place
        (d, w, i) there of each generator t times algebra key b, (t, b),
        with its inverse."""
        if self._witness is None:
            p = self.module.resolution(*self.caps)
            a = self.module.algebra
            keys = a.basis_keys()
            cx, at = _two_sided(p, keys, None, a.basis_product, a.complex,
                                (min(p.wts), min(p.wts) + self.caps[1]), None)
            place = {(t, b): (p.degs[t] + b[0], p.wts[t] + b[1], i)
                     for b, col in zip(keys, at) for t, i in enumerate(col) if i >= 0}
            self._witness = p, cx, place, {v: tb for tb, v in place.items()}
        return self._witness

    def lift(self, src: SemiFree, values: Dict[int, Elt], bideg: Tuple[int, int]
             ) -> List[Dict[Tuple[int, Key], Scalar]]:
        """The chain map F: src → P of bidegree bideg over an A-linear
        cocycle src → k[bideg], given on src's generators by values: ε∘F is
        that cocycle and d∘F = (-1)^|F| F∘d.  F(g) is a sum of P's
        generators t times algebra keys b, {(t, b): c}, found one generator
        of src at a time, highest degree first.  ε sends p0 to q0 and kills
        p0·x for x of positive weight, so in degree 0 F(g) = c·p0 for
        values[g] = c·q0; below it F(g) is one solve of d in P ⊗_A A onto
        (-1)^|F| F(d g)."""
        p, cx, place, at = self._realized()
        a, char = self.module.algebra, self.field.char
        (unit,), p0 = a.unit, p.degs.index(0)
        sign = -1 if bideg[0] & 1 else 1  # _add reduces it over GF(p)
        rows = src.rows()
        terms: Dict[int, List] = defaultdict(list)
        for g, j, x, c in zip(src.src, src.dst, src.kid, src.coef):
            terms[g].append((j, c, src.keys[x]))
        lifted: List[Dict[Tuple[int, Key], Scalar]] = [{} for _ in src.degs]
        for g in sorted(range(len(src.degs)), key=lambda i: -src.degs[i]):
            d, w = src.degs[g] + bideg[0], src.wts[g] + bideg[1]
            if d == 0:
                lifted[g] = {(p0, unit): c for c in values.get(g, {}).values()}
                continue
            want: Dict[int, Scalar] = {}
            for j, c in (rows[g].items() if rows is not None else ()):
                for tb, v in lifted[j].items():
                    _add(want, place[tb][2], sign * c * v, char)
            for j, c, ak in terms[g]:
                for (t, b), v in lifted[j].items():
                    for b2, v2 in a.basis_product(b, ak).items():
                        _add(want, place[(t, b2)][2], sign * c * v * v2, char)
            if want:
                x = cx.differential_block(d, w).solve(want)
                if x is None:
                    raise RuntimeError(f"no lift of generator {src.labels[g]} "
                                       f"into the witness at ({d}, {w})")
                lifted[g] = {at[(d, w, i)]: v for i, v in x.items()}
        return lifted

    def _yoneda(self, k1: Key, k2: Key) -> Elt:
        if (k1[0] + k2[0], k1[1] + k2[1]) not in self.space.cells:
            return {}
        if self._one in (k1, k2):
            return {k2 if k1 == self._one else k1: self.field.one}
        p = self._realized()[0]
        label, key_of = self.space.label_of, self.space.key_of
        g_lift = self._lifts.get(k2)
        if g_lift is None:
            q2, g2 = label(k2)
            g_lift = self._lifts[k2] = self.lift(
                p, {p.labels.index(g2): {q2: self.field.one}}, k2[:2])
        q1, g1 = label(k1)
        t1, out = p.labels.index(g1), {}
        for t, image in enumerate(g_lift):
            for (j, b), c in image.items():
                if j == t1:
                    for q, v in self.module.action.get((q1, b), {}).items():
                        _add(out, key_of(q[0] - p.degs[t], q[1] - p.wts[t],
                                         (q, p.labels[t])), c * v, self.field.char)
        return out


def witness_model(m: DgModule, w_max: int) -> Tuple[Optional[WitnessModel], Dict]:
    """REnd_a(m) on the weights |w| <= w_max, the weights an outer bar
    capped at w_max reads, from m's resolution recipe: Hom_a(P, m) for the
    witness P at length and weight cap w_max, which lists every generator
    of weight at most w_max, since each step of a minimal resolution adds
    weight.  None when the purity check (``minimal_model``'s) finds a class
    or a module cell off its line; the record of the check either way."""
    hom = derived_hom(m, m, w_max)
    record = _purity(hom.space, m)
    if record["reason"] is not None:
        return None, record
    return WitnessModel(hom, m, (w_max, w_max), record), record


def derived_tensor(m: DgModule, n: DgModule, n_max: int,
                   w_cap: Optional[int] = None,
                   reduced: Optional[bool] = None) -> CochainComplex:
    """Derived tensor product of a right module with a left module: P ⊗_A n
    built by the one tensor builder, for P as in ``derived_hom``."""
    if m.algebra is not n.algebra:
        raise ValueError("derived_tensor needs modules over the same algebra")
    if m.side != "right" or n.side != "left":
        raise ValueError("derived_tensor takes a right and a left module")
    if w_cap is None:
        w_cap = n_max
    p, nobj, cert, window = _replacement(m, n, n_max, w_cap, reduced)
    return _two_sided(p, n.basis_keys(), nobj, lambda a, q: n.action.get((a, q), {}),
                      n.complex, window, cert if n.space.fully_known() else None)[0]


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
