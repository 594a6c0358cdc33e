"""Commutative monomial test rings, adic towers, free resolutions with
duality comparisons, quiver-style category algebras, and the named example
registry.

Rings here are spanned by standard monomials of a monomial ideal, optionally
cut off above a weight bound; that keeps every product table exact and every
derived computation an honest finite quotient.

A free complex over such a ring is a ``dg.SemiFree``, the layout the Hom
and tensor builders of ``bar`` read; its maps are the same flat lists plus
a degree.  Duals, tensors, composites and the d² and chain-map checks are
small functions over those lists, and a complex is realized over the field
as P ⊗_R R by ``bar._two_sided``.  k's resolution is its minimal one,
``bar._minimal_resolution``, the one Ext and Tor read.

A ring keeps what its inputs determine: k, whose kept build serves every
later resolution, and per length the tensor powers of k's resolution with
their duals and comparison maps (``_tensor_powers``), each checked once
when it is built.  Realizations over the field, cohomology and reports
are computed on every call.
"""
from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bar import _minimal_resolution, _two_sided
from .dg import (
    AlgebraMorphism, DgAlgebra, DgCategoryPresentation, DgModule, SemiFree,
    category_algebra, direct_sum_modules, right_ideal_module,
)
from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key, Window, induced_rank,
)
from .holim import AlgebraDiagram, SmallCategory, chain_poset, poset_category
from .linalg import Field, RATIONALS, Scalar, SparseMatrix, _add

Mono = Tuple[int, ...]

# -- monomials ---------------------------------------------------------------


def mono_label(exps: Mono, variables: Sequence[str]) -> str:
    parts = []
    for v, e in zip(variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def parse_mono(text: str, variables: Sequence[str]) -> Mono:
    exps = [0] * len(variables)
    where = {v: i for i, v in enumerate(variables)}
    text = text.strip()
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            v, _, p = factor.partition("^")
            e = int(p)
        else:
            v, e = factor, 1
        if v not in where:
            raise ValueError(f"unknown variable {v!r} in monomial {text!r}")
        if e < 1:
            raise ValueError(f"bad exponent in monomial {text!r}")
        exps[where[v]] += e
    return tuple(exps)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _normalize_relation(rel, variables: Sequence[str]) -> Mono:
    """A relation as a single monomial; anything else is rejected loudly."""
    if isinstance(rel, str):
        terms = [rel]
    elif isinstance(rel, dict):
        terms = [t for t, c in rel.items() if c]
    else:
        terms = list(rel)
    monos = [parse_mono(t, variables) if isinstance(t, str) else tuple(t)
             for t in terms]
    if not monos:
        raise ValueError("empty relation")
    weights = {sum(m) for m in monos}
    if len(weights) > 1:
        raise ValueError(f"relation not homogeneous in weight: {rel!r}")
    if len(monos) > 1:
        raise ValueError(
            f"only monomial relations are supported, got a sum: {rel!r}")
    if sum(monos[0]) == 0:
        raise ValueError("unit relation collapses the ring")
    return monos[0]


# -- truncated commutative rings ---------------------------------------------


class TruncatedRing:
    """Commutative ring on the standard monomials of a monomial ideal,
    optionally truncated above a total weight.

    ``_times[a][b]`` is the standard monomial a·b, absent where the product
    dies; its keys are the standard monomials, each row in their order.
    Every product of two standard monomials in this module reads it, and
    every free complex reads their weights off ``_weights``.

    The ring keeps two stores, declared here, each written by one function
    and relying on the ring not being mutated:

    - ``_k`` (``free_resolution``): k, built on the first call, which keeps
      its longest minimal resolution (``DgModule._resolved``); one entry.
    - ``_powers`` (``_tensor_powers``): per length asked, the structures
      over R of the tensor powers P^⊗n of k's resolution cut there, n from
      1 up to the largest n_check asked at that length; so one list per
      length asked, each as long as the largest n_check."""

    def __init__(self, field: Field, variables: Sequence[str],
                 relations: Sequence, wmax: Optional[int] = None,
                 name: str = ""):
        self.field = field
        self.variables = list(variables)
        rels = [_normalize_relation(r, self.variables) for r in relations]
        # drop relations implied by divisibility
        self.relations: List[Mono] = []
        for m in sorted(set(rels), key=lambda m: (sum(m), m)):
            if not any(_divides(p, m) for p in self.relations):
                self.relations.append(m)
        self.wmax = wmax
        if wmax is None:
            for i, v in enumerate(self.variables):
                pure = any(all(e == 0 for j, e in enumerate(m) if j != i)
                           and m[i] > 0 for m in self.relations)
                if not pure:
                    raise ValueError(
                        f"infinite dimensional without wmax: variable {v} "
                        f"has no pure power relation")
        self.one: Mono = tuple([0] * len(self.variables))
        self.monomials = self._standard_monomials()
        self.name = name or self._default_name()
        self._labels = {m: mono_label(m, self.variables) for m in self.monomials}
        self._weights = {m: sum(m) for m in self.monomials}
        self._times: Dict[Mono, Dict[Mono, Mono]] = {m: {} for m in self.monomials}
        for a, row in self._times.items():
            for b in self.monomials:
                p = _mono_mul(a, b)
                if p in self._times:
                    row[b] = p
        self.algebra = self._build_algebra()
        self._k: Optional[DgModule] = None  # free_resolution
        self._powers: Dict[int, List[Power]] = {}  # _tensor_powers

    def _standard_monomials(self) -> List[Mono]:
        nvar = len(self.variables)
        seen = {self.one}
        frontier = list(seen)
        out = list(seen)
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(nvar):
                    m2 = tuple(e + 1 if j == i else e for j, e in enumerate(m))
                    if m2 in seen:
                        continue
                    if self.wmax is not None and sum(m2) > self.wmax:
                        continue
                    if any(_divides(p, m2) for p in self.relations):
                        continue
                    seen.add(m2)
                    nxt.append(m2)
                    out.append(m2)
            frontier = nxt
        return sorted(out, key=lambda m: (sum(m), m))

    def _default_name(self) -> str:
        base = "k[" + ",".join(self.variables) + "]" if self.variables else "k"
        if self.relations:
            base += "/(" + ",".join(mono_label(m, self.variables)
                                    for m in self.relations) + ")"
        if self.wmax is not None:
            base += f"|w<={self.wmax}"
        return base

    def _build_algebra(self) -> DgAlgebra:
        f = self.field
        basis = [(self._labels[m], 0, sum(m)) for m in self.monomials]
        labels = self._labels
        products: Dict[Tuple[str, str], Dict[str, object]] = {
            (labels[a], labels[b]): {labels[p]: 1}
            for a, row in self._times.items() for b, p in row.items()}
        alg = DgAlgebra.from_basis(f, basis, [self._labels[self.one]],
                                   {}, products, name=self.name)
        alg.idempotents = {"*": dict(alg.unit)}
        return alg

    def mono_key(self, m: Mono) -> Key:
        return self.algebra.space.key_of(0, self._weights[m], self._labels[m])

    def quotient_module(self, extra: Sequence[str], name: str = "") -> DgModule:
        """R modulo the monomial ideal the extra generators span."""
        gens = [parse_mono(t, self.variables) if isinstance(t, str) else tuple(t)
                for t in extra]
        kept = [m for m in self.monomials
                if not any(_divides(g, m) for g in gens)]
        if not kept:
            raise ValueError("quotient module is zero")
        f = self.field
        sp = BiGradedSpace(f)
        cells: Dict[Tuple[int, int], List] = {}
        for m in kept:
            cells.setdefault((0, sum(m)), []).append(self._labels[m])
        for (d, w), lbls in sorted(cells.items()):
            sp.add_cell(d, w, lbls)
        sp.mark_all_complete()
        cx = CochainComplex(sp)
        keptset = set(kept)

        def mkey(m: Mono) -> Key:
            return sp.key_of(0, sum(m), self._labels[m])

        action: Dict[Tuple[Key, Key], Elt] = {}
        for m in kept:
            for a, p in self._times[m].items():
                if p in keptset:
                    action[(mkey(m), self.mono_key(a))] = {mkey(p): f.one}
        return DgModule(self.algebra, cx, action, side="right",
                        name=name or f"{self.name}/({','.join(extra)})")

    def residue_module(self, name: str = "k") -> DgModule:
        """k = R/(x_1..x_r).  Ext and Tor out of it read its minimal
        resolution (``bar._minimal_resolution``), which k keeps."""
        return self.quotient_module(self.variables, name=name)

    def projection_to(self, other: "TruncatedRing") -> AlgebraMorphism:
        """Monomials map to themselves where still standard, else to zero."""
        if other.variables != self.variables:
            raise ValueError("projection needs the same variable list")
        g = GradedMap(self.algebra.space, other.algebra.space, 0, 0)
        for m in self.monomials:
            if m in other._times:
                g.set_entry(self.mono_key(m), other.mono_key(m), self.field.one)
        return AlgebraMorphism(self.algebra, other.algebra, g)


def truncated_poly(field: Field, variables: Sequence[str],
                   relations: Sequence = (), wmax: Optional[int] = None,
                   name: str = "") -> TruncatedRing:
    return TruncatedRing(field, variables, relations, wmax, name)


# -- adic towers -------------------------------------------------------------


class AdicTower:
    """Quotients R/I, R/I², ..., R/I^depth with their projections."""

    def __init__(self, base: TruncatedRing, rings: List[TruncatedRing],
                 maps: List[AlgebraMorphism], warnings: List[str]):
        self.base = base
        self.rings = rings
        self.maps = maps
        self.warnings = warnings
        self.depth = len(rings)

    def diagram(self) -> Tuple[SmallCategory, AlgebraDiagram]:
        """Deepest quotient at the initial object, projections forward."""
        cat = chain_poset(list(range(self.depth)))
        algebras = {i: self.rings[self.depth - 1 - i].algebra
                    for i in range(self.depth)}
        maps = {}
        for nm in cat.arrows:
            i, j = cat.src(nm), cat.tgt(nm)
            proj = self.rings[self.depth - 1 - i].projection_to(
                self.rings[self.depth - 1 - j])
            maps[nm] = proj.map
        return cat, AlgebraDiagram(cat, algebras, maps,
                                   name=f"{self.base.name}-adic tower")


def adic_tower(ring: TruncatedRing, ideal_gens: Sequence[str],
               depth: int) -> AdicTower:
    if depth < 1:
        raise ValueError("tower depth must be at least 1")
    gens = [parse_mono(t, ring.variables) for t in ideal_gens]
    if not gens:
        raise ValueError("adic tower needs ideal generators")
    rings: List[TruncatedRing] = []
    warnings: List[str] = []
    for n in range(1, depth + 1):
        powers = []
        for combo in itertools.combinations_with_replacement(gens, n):
            m = combo[0]
            for g in combo[1:]:
                m = _mono_mul(m, g)
            powers.append(m)
        minimal = []
        for m in sorted(set(powers), key=lambda m: (sum(m), m)):
            if not any(_divides(p, m) for p in minimal):
                minimal.append(m)
        for m in minimal:
            killed_by_base = any(_divides(p, m) for p in ring.relations)
            if (not killed_by_base and ring.wmax is not None
                    and sum(m) > ring.wmax):
                warnings.append(
                    f"I^{n} generator {mono_label(m, ring.variables)} has "
                    f"weight {sum(m)} > wmax={ring.wmax}; the tower "
                    f"stabilizes as a truncation artifact")
        rings.append(TruncatedRing(
            ring.field, ring.variables,
            [mono_label(m, ring.variables) for m in ring.relations + minimal],
            ring.wmax, name=f"{ring.name}/I^{n}"))
    maps = [rings[n + 1].projection_to(rings[n]) for n in range(depth - 1)]
    return AdicTower(ring, rings, maps, warnings)


# -- free complexes over a ring ----------------------------------------------
#
# A free complex over a TruncatedRing R is a ``dg.SemiFree`` over R's one
# object whose keys are R's monomial keys, each kid an index into
# ``R.monomials``, with no scalar terms and its terms in order of src.  A map
# of free complexes is the same four lists plus its degree: term x puts
# coef[x]·m·h into f(g) for g, h = src[x], dst[x] and m = R.monomials[kid[x]].
# Every complex or map the functions below build has at most one term per
# (g, h, m) and none with a zero coefficient.

Map = Tuple[List[int], List[int], List[int], List[Scalar], int]
# the structures over R of the n-th tensor power of k's resolution P
# (``_tensor_powers``): t = P^⊗n, t's dual, tp = P'^⊗n, ρ_n: tp -> (P^)^⊗n,
# κ_n: (P^)^⊗n -> t's dual and the degrees of (P^)^⊗n's generators, which
# build the next power; then left = t's double dual, right = tp's dual, the
# comparison left -> right and the biduality φ: t -> left
Power = Tuple[SemiFree, SemiFree, SemiFree, Map, Map, List[int],
              SemiFree, SemiFree, Map, Map]
# a realization: the complex over the field, and at[i][g], the place of g
# times the i-th monomial in its cell, -1 where it is not realized
Realized = Tuple[CochainComplex, List[List[int]]]


def _check_map(ring: TruncatedRing, f: Map, src: SemiFree, tgt: SemiFree) -> None:
    """Each term (g, h, m) of a map of degree deg from src to tgt keeps the
    bidegree, |h| = |g| + deg and w_h + |m| = w_g; else ValueError."""
    deg = f[4]
    for g, h, k in zip(*f[:3]):
        m = ring.monomials[k]
        dg, wg, dh, wh = src.degs[g], src.wts[g], tgt.degs[h], tgt.wts[h]
        if dh != dg + deg or wh + ring._weights[m] != wg:
            raise ValueError(
                f"{src.labels[g]} in bidegree {(dg, wg)} maps to "
                f"{mono_label(m, ring.variables)}*{tgt.labels[h]} in bidegree "
                f"{(dh, wh + ring._weights[m])}, not {(dg + deg, wg)} (degree, weight)")


def _index_times(ring: TruncatedRing) -> List[Dict[int, int]]:
    """``ring._times`` by index into ``ring.monomials``."""
    at = {m: i for i, m in enumerate(ring.monomials)}
    return [{at[b]: at[p] for b, p in ring._times[a].items()} for a in ring.monomials]


def _lists(terms: Iterable[Tuple[int, int, int, Scalar]]) -> List[List]:
    """Terms (src, dst, kid, coef) as the four flat lists."""
    terms = list(terms)
    return [[t[i] for t in terms] for i in range(4)]


def _d(p: SemiFree) -> Map:
    """The differential, a map of degree 1 of p to itself."""
    return p.src, p.dst, p.kid, p.coef, 1


def _rows(f: Map, n: int) -> List[List[Tuple[int, int, Scalar]]]:
    """The terms (h, kid, coef) of f(g) for each of the n source generators."""
    rows: List[List[Tuple[int, int, Scalar]]] = [[] for _ in range(n)]
    for g, h, k, c in zip(*f[:4]):
        rows[g].append((h, k, c))
    return rows


def _flat(rows: Sequence[Dict[Tuple[int, int], Scalar]], deg: int) -> Map:
    """The map whose f(g) is rows[g], {(h, kid): coef}, zero terms dropped."""
    return (*_lists((g, h, k, c) for g, row in enumerate(rows)
                    for (h, k), c in row.items() if c), deg)


def _compose_rows(ring: TruncatedRing, outer: Map, inner: Map, n_mid: int,
                  n_src: int) -> List[Dict[Tuple[int, int], Scalar]]:
    """outer ∘ inner as rows {(h, kid): coef} per source generator, zero
    sums dropped: a term c·m·h of inner(g) goes to c·m·outer(h)."""
    times, char = _index_times(ring), ring.field.char
    after = _rows(outer, n_mid)
    rows: List[Dict[Tuple[int, int], Scalar]] = [{} for _ in range(n_src)]
    for g, h, k, c in zip(*inner[:4]):
        by_m, row = times[k], rows[g]
        for h2, k2, c2 in after[h]:
            p = by_m.get(k2)
            if p is not None:
                v = row.get((h2, p), 0) + c * c2
                row[h2, p] = v % char if char else v
    return [{key: c for key, c in row.items() if c} for row in rows]


def _compose(ring: TruncatedRing, outer: Map, inner: Map, n_mid: int, n_src: int) -> Map:
    """outer ∘ inner, for n_mid generators between them and n_src before."""
    return _flat(_compose_rows(ring, outer, inner, n_mid, n_src), outer[4] + inner[4])


def _d_squared_fault(ring: TruncatedRing, p: SemiFree) -> Optional[int]:
    """First generator with d² != 0, or None."""
    n = len(p.labels)
    return next((g for g, row in enumerate(_compose_rows(ring, _d(p), _d(p), n, n))
                 if row), None)


def _chain_fault(ring: TruncatedRing, f: Map, source: SemiFree,
                 target: SemiFree) -> Optional[int]:
    """First source generator where d∘f != f∘d, or None."""
    n = len(source.labels)
    left = _compose_rows(ring, _d(target), f, len(target.labels), n)
    right = _compose_rows(ring, f, _d(source), n, n)
    return next((g for g in range(n) if left[g] != right[g]), None)


def _transpose(ring: TruncatedRing, f: Map, target: SemiFree) -> Map:
    """The map between duals, from the target's to the source's: each term
    c·m·h of f(g) gives h^ ↦ (-1)^{deg·(|h|+1)} c·m·g^."""
    neg, deg, degs = ring.field.neg, f[4], target.degs
    rows: List[Dict[Tuple[int, int], Scalar]] = [{} for _ in degs]
    for g, h, k, c in zip(*f[:4]):
        rows[h][g, k] = neg(c) if deg * (degs[h] + 1) % 2 else c
    return _flat(rows, deg)


def _dual(ring: TruncatedRing, p: SemiFree) -> SemiFree:
    """Hom into the ring: g^ in bidegree (-|g|, -w_g), in g's place, and d
    the transpose of p's (``_transpose``)."""
    return SemiFree([lab + ("^",) for lab in p.labels], [-d for d in p.degs],
                    [-w for w in p.wts], [0] * len(p.labels),
                    *_transpose(ring, _d(p), p)[:4], p.keys)


def _tensor(ring: TruncatedRing, p: SemiFree, q: SemiFree) -> SemiFree:
    """Tensor over the ring, a⊗b numbered a·|q| + b, with differential
    d⊗1 + 1⊗d (``_tensor_rows``)."""
    n, nq = len(p.labels), len(q.labels)
    d_1 = _tensor_rows(ring, _d(p), _identity(ring, q), p.degs, nq, nq)
    one_d = _tensor_rows(ring, _identity(ring, p), _d(q), p.degs, nq, nq)
    # no term h⊗b of d(a)⊗b lands on a term a⊗h' of a⊗d(b), since h ≠ a
    return SemiFree([la + lb for la in p.labels for lb in q.labels],
                    [da + db for da in p.degs for db in q.degs],
                    [wa + wb for wa in p.wts for wb in q.wts], [0] * n * nq,
                    *_flat([{**r1, **r2} for r1, r2 in zip(d_1, one_d)], 1)[:4], p.keys)


def _tensor_rows(ring: TruncatedRing, f: Map, g: Map, f_degs: Sequence[int],
            nb: int, nt: int) -> List[Dict[Tuple[int, int], Scalar]]:
    """f⊗g as rows {(h, kid): coef}, with the Koszul sign
    (f⊗g)(a⊗b) = (-1)^{|g||a|} f(a)⊗g(b), for f's source generators in
    degrees f_degs and nb source and nt target generators of g; a⊗b is
    numbered a·nb + b, h1⊗h2 is h1·nt + h2, and dead products drop."""
    times, char, neg = _index_times(ring), ring.field.char, ring.field.neg
    f_rows, g_rows = _rows(f, len(f_degs)), _rows(g, nb)
    rows: List[Dict[Tuple[int, int], Scalar]] = []
    for a, da in enumerate(f_degs):
        fa = [(h, k, neg(c)) for h, k, c in f_rows[a]] if g[4] * da % 2 else f_rows[a]
        for b in range(nb):
            row: Dict[Tuple[int, int], Scalar] = {}
            for h1, k1, c1 in fa:
                by_m = times[k1]
                for h2, k2, c2 in g_rows[b]:
                    p = by_m.get(k2)
                    if p is not None:
                        v = row.get((h1 * nt + h2, p), 0) + c1 * c2
                        row[h1 * nt + h2, p] = v % char if char else v
            rows.append(row)
    return rows


def _tensor_map(ring: TruncatedRing, f: Map, g: Map, f_degs: Sequence[int],
                nb: int, nt: int) -> Map:
    """f⊗g (``_tensor_rows``), numbered as ``_tensor`` numbers generators."""
    return _flat(_tensor_rows(ring, f, g, f_degs, nb, nt), f[4] + g[4])


def _diagonal(ring: TruncatedRing, signs: Sequence[int]) -> Map:
    """The degree-0 map g_i ↦ (-1)^signs[i] g_i."""
    one, n = ring.field.one, len(signs)
    return (list(range(n)), list(range(n)), [0] * n,
            [ring.field.neg(one) if s & 1 else one for s in signs], 0)


def _identity(ring: TruncatedRing, p: SemiFree) -> Map:
    return _diagonal(ring, [0] * len(p.labels))


def _biduality(ring: TruncatedRing, p: SemiFree) -> Map:
    """Evaluation g ↦ (-1)^{|g|} g^^, from p to its double dual; the sign
    absorbs the negated differential that two passes of the dual give."""
    return _diagonal(ring, p.degs)


def _lacing(ring: TruncatedRing, a: SemiFree, b: SemiFree) -> Map:
    """a^∨ ⊗ b^∨ -> (a⊗b)^∨, g^⊗h^ ↦ (-1)^{|g||h|} (g⊗h)^, with the
    chain-map sign."""
    return _diagonal(ring, [dg * dh for dg in a.degs for dh in b.degs])


def _realize(ring: TruncatedRing, p: SemiFree,
             band: Optional[Tuple[int, int]] = None) -> Realized:
    """P ⊗_R R over the field, through ``bar._two_sided``, after checking
    the bidegree of each term of d, with its places; every cell is known.
    On a degree band (lo, hi) only the generators of degree lo..hi are
    realized, the terms of d that leave the band dropped, and each weight
    the whole complex reaches is known on lo..hi alone, so the cohomology
    is the whole complex's, certified, on lo+1..hi-1 only."""
    _check_map(ring, _d(p), p, p)
    n = len(p.labels)
    window = (min(p.wts, default=0), max(p.wts, default=0) + max(ring._weights.values()))
    if band is not None:
        keep = [g for g, d in enumerate(p.degs) if band[0] <= d <= band[1]]
        new = dict(zip(keep, range(len(keep))))
        terms = [(new[g], new[h], k, c) for g, h, k, c in zip(p.src, p.dst, p.kid, p.coef)
                 if g in new and h in new]
        p = SemiFree(*([col[g] for g in keep] for col in (p.labels, p.degs, p.wts, p.objs)),
                     *_lists(terms), p.keys)
    a = ring.algebra
    cx, at = _two_sided(p, p.keys, None, a.basis_product, a.complex, window, None)
    sp = cx.space
    if band is None:
        sp.mark_all_complete()
        return cx, at
    sp.zero_outside = True
    if n:
        for w in range(window[0], window[1] + 1):
            sp.set_known(w, *band)
    whole = [[-1] * n for _ in at]
    for col, full in zip(at, whole):
        for g, i in zip(keep, col):
            full[g] = i
    return cx, whole


def _realize_map(ring: TruncatedRing, f: Map, source: SemiFree, target: SemiFree,
                 src: Realized, tgt: Realized) -> GradedMap:
    """f between the realizations of source and target: g times m goes to m
    times f(g), on the realized generators.  Every term c·m2·h of f,
    realized or not, must keep the bidegree, |h| = |g| + deg and
    w_h + |m2| = w_g, else ValueError; m adds |m| to both weights, so every
    entry it realizes keeps it."""
    _check_map(ring, f, source, target)
    (s_cx, s_at), (t_cx, t_at) = src, tgt
    times, char, weights = _index_times(ring), ring.field.char, ring._weights
    blocks: Dict[Tuple[int, int], Dict[Tuple[int, int], Scalar]] = defaultdict(dict)
    for g, h, k, c in zip(*f[:4]):
        dg, wg = source.degs[g], source.wts[g]
        for i, p in times[k].items():
            col, row = s_at[i][g], t_at[p][h]
            if col >= 0 and row >= 0:
                _add(blocks[dg, wg + weights[ring.monomials[i]]], (row, col), c, char)
    s_sp, t_sp, deg = s_cx.space, t_cx.space, f[4]
    out = GradedMap(s_sp, t_sp, deg, 0)
    for (d, w), entries in blocks.items():
        if entries:
            b = out.blocks[(d, w)] = SparseMatrix(t_sp.dim(d + deg, w), s_sp.dim(d, w),
                                                  ring.field)
            b.entries = entries
    return out


def realize_module(ring: TruncatedRing, p: SemiFree, name: str = "") -> DgModule:
    """P ⊗_R R as a right module over the ring's algebra: the complex of
    ``_realize``, each monomial acting by multiplication."""
    cx, at = _realize(ring, p)
    times, weights, keys = _index_times(ring), ring._weights, p.keys
    w_of = [weights[m] for m in ring.monomials]
    one = ring.field.one
    action: Dict[Tuple[Key, Key], Elt] = {}
    for i, col in enumerate(at):
        for g, place in enumerate(col):
            d, w = p.degs[g], p.wts[g]
            for a, q in times[i].items():
                action[((d, w + w_of[i], place), keys[a])] = {(d, w + w_of[q], at[q][g]): one}
    return DgModule(ring.algebra, cx, action, side="right",
                    name=name or f"free module over {ring.name}")


# -- resolutions -------------------------------------------------------------


def _periodic(ring: TruncatedRing) -> bool:
    """Whether k has no finite resolution over the ring: some relation has
    total degree above 1 and the ring is not spanned by 1."""
    return ring.monomials != [ring.one] and any(sum(rel) > 1 for rel in ring.relations)


def free_resolution(ring: TruncatedRing, length: int) -> SemiFree:
    """k's minimal resolution over the ring's algebra, the one Ext and Tor
    read (``bar._minimal_resolution``), as a SemiFree whose ``keys`` are
    R's monomials in order.

    Where k has no finite resolution (``_periodic``) it is cut at the
    length, and exact above degree -length.  Otherwise it is built whole,
    to length max(length, r) for r variables, and cut at the ring's weight
    cap: over free variables under a cap it is then the Koszul complex in
    every weight up to the cap, and the generators past the cap, which
    resolve k over the truncated algebra, lie only in weights past what
    ``infin_ext_check`` certifies.

    The ring keeps k (``TruncatedRing._k``), so k's kept build serves every
    later call; each call returns a fresh cut of it."""
    if length < 0:
        raise ValueError("resolution length must be non-negative")
    if ring._k is None:
        ring._k = ring.residue_module()
    if _periodic(ring):
        return _minimal_resolution(ring._k, length)
    return _minimal_resolution(ring._k, max(length, len(ring.variables)), ring.wmax)


def _check_dual_model(ring: TruncatedRing) -> None:
    """ValueError unless ``dual_model`` has a model over the ring: the
    field, a free polynomial ring, or one variable."""
    if ring.monomials != [ring.one] and ring.relations and len(ring.variables) != 1:
        raise ValueError(f"no built-in dual model of k over {ring.name}")


def dual_model(ring: TruncatedRing, p: SemiFree) -> Tuple[SemiFree, Map, SemiFree]:
    """A junk-free exact complex P' quasi-isomorphic to the dual of the
    residue field, its comparison into the strict dual of p, k's resolution
    (``free_resolution``), and that dual.  Over the field or a free
    polynomial ring P' is the dual itself.  Over one variable with a
    relation, P' resolves the socle, k at the weight of the ring's top
    monomial x^s: it is p with every weight raised by s, and p0' goes to
    x^s·p0^.  A ring under a cap that cuts below its relation is read as
    the smaller power.  Any other ring raises ValueError."""
    _check_dual_model(ring)
    if ring.monomials == [ring.one] or not ring.relations:
        # field or free polynomial ring: the dual of the finite exact
        # resolution is itself exact
        pd = _dual(ring, p)
        return pd, _identity(ring, pd), pd
    s = len(ring.monomials) - 1
    pprime = SemiFree(p.labels, p.degs, [w + s for w in p.wts], p.objs,
                      p.src, p.dst, p.kid, p.coef, p.keys)
    return pprime, ([0], [0], [s], [ring.field.one], 0), _dual(ring, p)


# -- biduality comparison for tensor powers ----------------------------------


def _tensor_powers(ring: TruncatedRing, length: int, n_check: int) -> List[Power]:
    """The structures over R of P^⊗n for n = 1..n_check (``Power``), P k's
    resolution at the length (``free_resolution``), as the ring keeps them
    (``TruncatedRing._powers``).  A length asked first builds P and its
    dual model (``dual_model``) and checks d² on P and that ρ is a chain
    map; each power not yet kept is built from the one before and kept
    once φ_n and the comparison pass the chain-map check.  A failing check
    raises RuntimeError and keeps nothing it did not pass."""
    if length not in ring._powers:
        p = free_resolution(ring, length)
        bad = _d_squared_fault(ring, p)
        if bad is not None:
            raise RuntimeError(f"resolution fails d-squared at {p.labels[bad]}")
        pprime, rho, pd = dual_model(ring, p)
        if _chain_fault(ring, rho, pprime, pd) is not None:
            raise RuntimeError("dual comparison is not a chain map")
        ring._powers[length] = [_compared(ring, p, pd, pprime, rho, _identity(ring, pd),
                                          pd.degs)]
    p, pd, pprime, rho = ring._powers[length][0][:4]
    while len(ring._powers[length]) < n_check:
        prev, _, tp, rho_n, kappa, pd_degs = ring._powers[length][-1][:6]
        t = _tensor(ring, prev, p)
        # (P^)^⊗n itself is never built
        ring._powers[length].append(_compared(
            ring, t, _dual(ring, t), _tensor(ring, tp, pprime),
            _tensor_map(ring, rho_n, rho, tp.degs, len(pprime.labels), len(pd.labels)),
            _compose(ring, _lacing(ring, prev, p),
                     _tensor_map(ring, kappa, _identity(ring, pd), pd_degs, len(pd.labels),
                                 len(pd.labels)),
                     len(t.labels), len(t.labels)),
            [d + e for d in pd_degs for e in pd.degs]))
    return ring._powers[length][:n_check]


def _compared(ring: TruncatedRing, t: SemiFree, t_dual: SemiFree, tp: SemiFree,
              rho: Map, kappa: Map, pd_degs: List[int]) -> Power:
    """A power with its double dual, tp's dual, the comparison between them
    and the biduality, after both maps pass the chain-map check."""
    left, right = _dual(ring, t_dual), _dual(ring, tp)
    comparison = _transpose(ring, _compose(ring, kappa, rho, len(pd_degs), len(tp.labels)),
                            t_dual)
    phi = _biduality(ring, t)
    if _chain_fault(ring, phi, t, left) is not None:
        raise RuntimeError("biduality relabeling is not a chain map")
    if _chain_fault(ring, comparison, left, right) is not None:
        raise RuntimeError("comparison map is not a chain map")
    return t, t_dual, tp, rho, kappa, pd_degs, left, right, comparison, phi


def infin_ext_check(ring: TruncatedRing, window: Tuple[int, int] = (-4, 4),
                    length: int = 8, n_check: int = 2) -> Dict:
    """Compare tensor powers of the residue field with duals-of-duals.

    Left route per n: resolve k (``free_resolution``), tensor n times,
    dualize twice.  Right route: re-resolve an exact model of the dual
    (``dual_model``), tensor n times, dualize once.  The verdict says
    whether the canonical comparison map is an isomorphism on every
    certified bidegree inside the window, at each n from 2 to n_check.  A
    ring with no dual model is refused before anything is built.

    The complexes and maps over R depend only on the ring and the length,
    so the ring keeps them (``_tensor_powers``), and d² on the resolution
    and the chain-map checks run on the whole maps once, when each is
    built.  The realizations, their cohomology and the report are computed
    on every call.

    The certified degrees are [max(lo, 1 - length), min(hi, length - 1)]
    where k has no finite resolution (``_periodic``), since the resolution
    is cut at the length, and the window otherwise.  The cohomology at
    degrees lo..hi reads only the generators of degree lo-1..hi+1, so only
    that band is realized (``_realize``).
    """
    lo, hi = window
    if n_check < 2:
        raise ValueError("n_check must be at least 2: the verdict compares "
                         "the tensor powers from 2 on")
    if lo > hi:
        raise ValueError(f"empty window: lo {lo} is above hi {hi}")
    if length < 2 * max(abs(lo), abs(hi)):
        raise ValueError("resolution length must be at least twice the window")
    _check_dual_model(ring)
    if _periodic(ring):
        cert_lo, cert_hi = max(lo, 1 - length), min(hi, length - 1)
    else:
        cert_lo, cert_hi = lo, hi

    report: Dict = {"ring": ring.name, "window": [lo, hi], "length": length,
                    "certified_degrees": {}, "biduality": {}, "tables": {},
                    "per_degree": {}}
    verdict_ok, witness = True, None
    band = (lo - 1, hi + 1)
    powers = _tensor_powers(ring, length, n_check)
    for n, (t_n, *_, left_cx, right_cx, comparison, phi) in enumerate(powers, 1):
        # a weight cap on the ring truncates weight slices from above
        wt_cert = (None if ring.wmax is None
                   else ring.wmax + min(min(left_cx.wts), min(right_cx.wts)))
        report["certified_degrees"][n] = [cert_lo, cert_hi]
        report.setdefault("certified_weight_max", {})[n] = wt_cert

        real_t, real_left, real_right = (_realize(ring, c, band)
                                         for c in (t_n, left_cx, right_cx))
        lam = _realize_map(ring, comparison, left_cx, right_cx, real_left, real_right)
        phi_map = _realize_map(ring, phi, t_n, left_cx, real_t, real_left)
        cx_t, cx_left, cx_right = real_t[0], real_left[0], real_right[0]

        win = Window(lo, hi, max((abs(w) for cx in (cx_left, cx_right)
                                  for (_, w) in cx.space.cells), default=0))
        h_left = cx_left.cohomology(win)
        h_right = cx_right.cohomology(win)

        # (d, w) -> dimension or rank
        left, right, ranks, bid = {}, {}, {}, {}
        # a cell with no cohomology on either side has every rank 0
        cells = set(h_left.space.cells) | set(h_right.space.cells)
        for (d, w) in sorted(c for c in cells if lo <= c[0] <= hi):
            dl, dr = h_left.dim(d, w), h_right.dim(d, w)
            rk = dl and dr and induced_rank(lam, cx_left, cx_right, d, w)
            if dl:
                left[(d, w)] = dl
                bq = induced_rank(phi_map, cx_t, cx_left, d, w)
                if bq:
                    bid[(d, w)] = bq
            if dr:
                right[(d, w)] = dr
            if rk:
                ranks[(d, w)] = rk
            if (cert_lo <= d <= cert_hi and n >= 2
                    and (wt_cert is None or w <= wt_cert) and not dl == dr == rk):
                verdict_ok, witness = False, witness or (n, d, w)
        report["biduality"][n] = {"ranks": bid, "matches_left_dims": bid == left}
        tables = report["tables"][n] = {"left": left, "right": right,
                                        "map_rank": ranks}
        report["per_degree"][n] = {
            side: [sum(v for (d, _), v in tab.items() if d == dd)
                   for dd in range(lo, hi + 1)] for side, tab in tables.items()}
    report["verdict"] = "isomorphism" if verdict_ok else "non-isomorphism"
    report["witness"] = witness
    return report


# -- category-style algebras -------------------------------------------------


def dual_numbers_category(field: Field) -> DgAlgebra:
    """Two objects; a square-zero degree-1 loop on the first, one arrow from
    the second into the first killed by the loop."""
    pres = DgCategoryPresentation(["X1", "X2"])
    pres.add_morphism("e1", "X1", "X1", identity=True)
    pres.add_morphism("e2", "X2", "X2", identity=True)
    pres.add_morphism("eps", "X1", "X1", deg=1, wt=1)
    pres.add_morphism("u", "X2", "X1", deg=0, wt=1)
    pres.set_then("eps", "eps", {})
    pres.set_then("u", "eps", {})
    return category_algebra(pres, field, name="dual_numbers")


def free_quiver_category(field: Field, wmax: int) -> DgAlgebra:
    """Weight-truncated free category on a loop at one object and an arrow
    out of it into a second; stored so nothing leaves the second object."""
    if wmax < 1:
        raise ValueError("wmax must be at least 1")
    pres = DgCategoryPresentation(["Y1", "Y2"])
    pres.add_morphism("e1", "Y1", "Y1", identity=True)
    pres.add_morphism("e2", "Y2", "Y2", identity=True)
    loops = {}
    outs = {}
    for j in range(1, wmax + 1):
        nm = f"t22^{j}"
        loops[j] = nm
        pres.add_morphism(nm, "Y2", "Y2", wt=j)
    for j in range(0, wmax):
        nm = "t21" if j == 0 else f"t21*t22^{j}"
        outs[j] = nm
        pres.add_morphism(nm, "Y2", "Y1", wt=j + 1)
    for i in range(1, wmax + 1):
        for j in range(1, wmax + 1):
            pres.set_then(loops[i], loops[j],
                          {loops[i + j]: 1} if i + j <= wmax else {})
        for j in range(0, wmax):
            pres.set_then(loops[i], outs[j],
                          {outs[i + j]: 1} if i + j <= wmax - 1 else {})
    return category_algebra(pres, field, name=f"free_quiver|w<={wmax}")


def path_chain_algebra(field: Field, length: int) -> DgAlgebra:
    """Path algebra of the linear quiver 1 -> 2 -> ... -> length."""
    if length < 2:
        raise ValueError("chain needs at least two vertices")
    objs = [f"O{i}" for i in range(1, length + 1)]
    pres = DgCategoryPresentation(objs)
    for i, o in enumerate(objs, start=1):
        pres.add_morphism(f"e{i}", o, o, identity=True)
    names: Dict[Tuple[int, int], str] = {}
    for i in range(1, length + 1):
        for j in range(i + 1, length + 1):
            nm = f"a{i}{j}"
            names[(i, j)] = nm
            pres.add_morphism(nm, objs[i - 1], objs[j - 1], wt=j - i)
    for (i, j), nm in names.items():
        for (i2, j2), nm2 in names.items():
            if j == i2:
                pres.set_then(nm, nm2, {names[(i, j2)]: 1})
    return category_algebra(pres, field, name=f"path(1->..->{length})")


def simple_module(alg: DgAlgebra, obj: str, name: str = "") -> DgModule:
    """One-dimensional module where only the object's identity acts."""
    f = alg.field
    idem = alg.idempotents[obj]
    sp = BiGradedSpace(f)
    sp.add_cell(0, 0, [f"S({obj})"])
    sp.mark_all_complete()
    cx = CochainComplex(sp)
    mk = sp.key_of(0, 0, f"S({obj})")
    action: Dict[Tuple[Key, Key], Elt] = {}
    for ak, c in idem.items():
        action[(mk, ak)] = {mk: c}
    return DgModule(alg, cx, action, side="right", name=name or f"S({obj})")


def sum_of_simples(alg: DgAlgebra, objects: Sequence[str]) -> DgModule:
    mods = [simple_module(alg, o) for o in objects]
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum_modules(out, m, name="")
    out.name = "⊕".join(f"S({o})" for o in objects)
    return out


# -- random diagrams ----------------------------------------------------------


def random_diagram(seed: int, field: Field) -> Tuple[SmallCategory, AlgebraDiagram]:
    """Seeded random finite poset with a functor of small algebras on it.

    Families: nested one-variable truncations, two-variable monomial
    quotient chains, and a dg line with a degree-1 cycle killing the
    generator, collapsing onto the ground field.
    """
    rng = random.Random(seed)
    nobj = rng.randint(2, 5)
    objects = list(range(nobj))
    relations = []
    for i in range(nobj):
        for j in range(i + 1, nobj):
            if rng.random() < 0.4:
                relations.append((i, j))
    cat = poset_category(objects, relations)
    # longest chain below each object, walked along the closed relation set
    depth = {o: 0 for o in objects}
    closed = {(cat.src(nm), cat.tgt(nm)) for nm in cat.arrows}
    changed = True
    while changed:
        changed = False
        for (a, b) in closed:
            if depth[b] < depth[a] + 1:
                depth[b] = depth[a] + 1
                changed = True

    family = rng.randrange(3)
    if family == 0:
        base = 2 + max(depth.values())
        rings = {o: truncated_poly(field, ["x"], [f"x^{max(2, base - depth[o])}"])
                 for o in objects}
    elif family == 1:
        extras = ["x*y", "y", "x"]
        rings = {}
        for o in objects:
            cut = min(depth[o], len(extras))
            rings[o] = truncated_poly(field, ["x", "y"],
                                      ["x^2", "y^2"] + extras[:cut], wmax=3)
    else:
        dgline = _dg_line_algebra(field)
        ground = truncated_poly(field, [], [])
        algebras = {o: (dgline if depth[o] == 0 else ground.algebra)
                    for o in objects}
        maps = {}
        for nm in cat.arrows:
            a, b = cat.src(nm), cat.tgt(nm)
            src_a = algebras[a]
            tgt_a = algebras[b]
            g = GradedMap(src_a.space, tgt_a.space, 0, 0)
            for uk, c in src_a.unit.items():
                for tk, c2 in tgt_a.unit.items():
                    g.set_entry(uk, tk, field.mul(c, c2))
            maps[nm] = g
        return cat, AlgebraDiagram(cat, algebras, maps, name=f"random({seed})")

    algebras = {o: rings[o].algebra for o in objects}
    maps = {}
    for nm in cat.arrows:
        a, b = cat.src(nm), cat.tgt(nm)
        maps[nm] = rings[a].projection_to(rings[b]).map
    return cat, AlgebraDiagram(cat, algebras, maps, name=f"random({seed})")


def _dg_line_algebra(field: Field) -> DgAlgebra:
    """Unit, a weight-1 generator, and its degree-1 image under d."""
    return DgAlgebra.from_basis(
        field,
        basis=[("1", 0, 0), ("xi", 0, 1), ("eta", 1, 1)],
        unit_names=["1"],
        differential={"xi": {"eta": 1}},
        products={("1", "1"): {"1": 1},
                  ("1", "xi"): {"xi": 1}, ("xi", "1"): {"xi": 1},
                  ("1", "eta"): {"eta": 1}, ("eta", "1"): {"eta": 1}},
        name="dg_line")


# -- registry -----------------------------------------------------------------


def _scen_dual_numbers(field: Field, params: Dict) -> Dict:
    alg = dual_numbers_category(field)
    m = right_ideal_module(alg, alg.idempotents["X1"], name="P1")
    return {
        "name": "dual_numbers",
        "kind": "completion",
        "algebra": alg,
        "module": m,
        "caps": tuple(params.get("caps", (6, 6))),
        "window": tuple(params.get("window", (-2, 3))),
        "expected": {"h_dims": {(0, 0): 1, (1, 1): 1}},
    }


def _scen_dual_numbers_op(field: Field, params: Dict) -> Dict:
    wmax = int(params.get("wmax", 3))
    alg = dual_numbers_category(field).opposite()
    alg.name = "dual_numbers^op"
    m = right_ideal_module(alg, alg.idempotents["X1"], name="P1^op")
    # P1 = B·e1 + k·u over B = k[eps]/eps^2 (u at (0, 1), killed by eps) is
    # projective, so the completion is REnd_B(B + k·u): End_B(B) = B at (0, 0)
    # and (1, 1), Hom_B(B, k·u) at (0, 1), Hom_B(k·u, B) onto the socle at
    # (1, 0), and Ext_B(k, k) = k[y] with y at (0, -1); cells not listed are 0
    h_dims = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    h_dims.update({(0, -n): 1 for n in range(1, wmax + 1)})
    return {
        "name": "dual_numbers_op",
        "kind": "completion",
        "algebra": alg,
        "module": m,
        "caps": (wmax + 2, wmax + 2),
        "window": (-2, 3),
        "expected": {"h_dims": {c: n for c, n in h_dims.items()
                                if abs(c[1]) <= wmax}},
    }


def _scen_koszul_kx(field: Field, params: Dict) -> Dict:
    wmax = int(params.get("wmax", 6))
    ring = truncated_poly(field, ["x"], [], wmax=wmax)
    return {
        "name": "koszul_kx",
        "kind": "completion",
        "algebra": ring.algebra,
        "module": ring.residue_module(),
        "caps": tuple(params.get("caps", (wmax, wmax))),
        "inner_caps": tuple(params.get("inner_caps", (wmax + 2, wmax + 2))),
        "window": (-2, 2),
        "expected": {"h_dims": {(0, w): 1 for w in range(0, wmax + 1)}},
    }


def _scen_adic_kx(field: Field, params: Dict) -> Dict:
    depth = int(params.get("depth", 4))
    wmax = int(params.get("wmax", max(6, depth + 2)))
    ring = truncated_poly(field, ["x"], [], wmax=wmax)
    tower = adic_tower(ring, ["x"], depth)
    return {
        "name": f"adic_kx_{depth}",
        "kind": "holim_tower",
        "tower": tower,
        "expected": {"h0_total": depth,
                     "quotient_dims": list(range(1, depth + 1))},
    }


def _scen_free_category(field: Field, params: Dict) -> Dict:
    wmax = int(params.get("wmax", 4))
    alg = free_quiver_category(field, wmax)
    m = right_ideal_module(alg, alg.idempotents["Y1"], name="P1")
    return {
        "name": "free_category",
        "kind": "completion_scan",
        "algebra": alg,
        "module": m,
        "caps": (wmax, wmax),
        "window": (-2, 2),
        "expected": {"h_dims": {(0, 0): 1}},
    }


def _scen_triangular(field: Field, params: Dict) -> Dict:
    length = int(params.get("length", 2))
    alg = path_chain_algebra(field, length)
    m = sum_of_simples(alg, [f"O{i}" for i in range(1, length + 1)])
    return {
        "name": f"triangular_{''.join(str(i) for i in range(1, length + 1))}",
        "kind": "completion",
        "algebra": alg,
        "module": m,
        "caps": tuple(params.get("caps", (4, 4))),
        "window": (-2, 2),
        # the path algebra: n(n+1)/2 paths, all in degree 0
        "expected": {"h0_total": length * (length + 1) // 2, "h_other": 0},
    }


REGISTRY = {
    "dual_numbers": _scen_dual_numbers,
    "dual_numbers_op": _scen_dual_numbers_op,
    "koszul_kx": _scen_koszul_kx,
    "free_category": _scen_free_category,
}


def build_scenario(name: str, field: Optional[Field] = None,
                   params: Optional[Dict] = None) -> Dict:
    f = field if field is not None else RATIONALS
    params = dict(params or {})
    if name in REGISTRY:
        return REGISTRY[name](f, params)
    if name.startswith("adic_kx_"):
        params.setdefault("depth", int(name.rsplit("_", 1)[1]))
        return _scen_adic_kx(f, params)
    if name.startswith("triangular_"):
        digits = name.split("_", 1)[1]
        params.setdefault("length", len(digits))
        return _scen_triangular(f, params)
    raise KeyError(f"unknown scenario {name!r}")
