"""Commutative monomial test rings, adic towers, free resolutions with
duality comparisons, quiver-style category algebras, and the named example
registry.

Rings here are spanned by standard monomials of a monomial ideal, optionally
cut off above a weight bound; that keeps every product table exact and every
derived computation an honest finite quotient.
"""
from __future__ import annotations

import bisect
import itertools
import random
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dg import (
    AlgebraMorphism, DgAlgebra, DgCategoryPresentation, DgModule, SemiFree,
    category_algebra, direct_sum_modules, right_ideal_module,
)
from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key, Window, induced_rank,
)
from .holim import AlgebraDiagram, SmallCategory, chain_poset, poset_category
from .linalg import Field, RATIONALS, Scalar, SparseMatrix

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
    every free complex reads their weights off ``_weights``."""

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
        """k = R/(x_1..x_r).  When R is a monomial complete intersection
        k[x_1..x_r]/(x_i^{t_i}) whose weight cap cuts no monomial, k
        carries the recipe of its minimal resolution as a ``SemiFree`` over
        R, built by ``_witness`` straight from the data ``free_resolution``
        builds its complex from.

        The recipe keeps its longest build.  Its generators are sorted by
        index sum, which is minus the degree, and each d(g) reaches only
        lighter ones, so the build at length L is the prefix of any longer
        build, generators and terms alike: a call no longer than the kept
        one returns that prefix as fresh lists, and a longer one builds
        afresh and keeps that build instead.  Given a weight cap as well,
        the one copy keeps only the prefix's generators within it of the
        lightest, which d maps among themselves, since it lowers weight."""
        k = self.quotient_module(list(self.variables) or [], name=name)
        powers = _pure_powers(self)
        if (powers is not None and None not in powers
                and (self.wmax is None or self.wmax >= sum(powers) - len(powers))):
            longest: Optional[Tuple[int, SemiFree]] = None

            def resolution(length: int, w_cap: Optional[int] = None) -> SemiFree:
                nonlocal longest
                if length < 0:
                    raise ValueError("resolution length must be non-negative")
                if longest is None or longest[0] < length:
                    longest = length, _witness(self, length)
                p = longest[1]
                keep = range(bisect.bisect_right(p.degs, length, key=int.__neg__))
                if w_cap is not None:
                    top = min(p.wts[i] for i in keep) + w_cap
                    keep = [i for i in keep if p.wts[i] <= top]
                return p.cut(keep)

            k.resolution = resolution
        return k

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

FreeElt = Dict[Tuple[str, Mono], Scalar]
Rows = Dict[str, FreeElt]
Band = Optional[Tuple[int, int]]


def _check_bidegrees(ring: TruncatedRing, rows: Iterable[Tuple[str, FreeElt]],
                     src: Dict, tgt: Dict, deg: int) -> None:
    """Each entry c·m·h of each (g, image of g) in rows, dead m included,
    keeps the bidegree of a map of degree deg, |h| = |g| + deg and
    w_h + |m| = w_g; else ValueError."""
    weights = ring._weights
    for g, row in rows:
        dg, wg = src[g]
        for (h, m) in row:
            dh, wh = tgt[h]
            wm = weights[m] if m in weights else sum(m)
            if dh != dg + deg or wh + wm != wg:
                raise ValueError(
                    f"{g} in bidegree {(dg, wg)} maps to {mono_label(m, ring.variables)}"
                    f"*{h} in bidegree {(dh, wh + wm)}, not {(dg + deg, wg)}"
                    " (degree, weight)")


class FreeComplex:
    """Bounded complex of finite free modules over a TruncatedRing.

    ``gens`` lists (name, degree, weight).  ``rows[g]`` is d(g) as
    {(h, monomial tuple): field scalar}, the ring coefficient of h being a
    sum of such terms; degrees rise by one and weights balance, which the
    constructor checks on every entry before it drops dead or zero ones.
    ``d`` reads the differential as a degree-1 FreeMap to the complex.

    When ``honest_tracked`` is set, ``honest_min``/``honest_max`` bound the
    degrees where the cohomology agrees with the untruncated object (None
    meaning unbounded on that side); untracked complexes make no claim.
    ``dual()`` and ``tensor(other)`` build each complex once and keep it.
    """

    def __init__(self, ring: TruncatedRing, gens: Sequence[Tuple[str, int, int]],
                 rows: Rows, name: str = "",
                 honest_min: Optional[int] = None,
                 honest_max: Optional[int] = None,
                 honest_tracked: bool = True):
        self.ring = ring
        self.field = ring.field
        self.gens = list(gens)
        self.info = {n: (d, w) for (n, d, w) in self.gens}
        if len(self.info) != len(self.gens):
            raise ValueError("duplicate generator names")
        self.name = name
        self.honest_min = honest_min
        self.honest_max = honest_max
        self.honest_tracked = honest_tracked
        _check_bidegrees(ring, rows.items(), self.info, self.info, 1)
        times, char = ring._times, ring.field.char
        self._rows: Rows = {}
        for g, row in rows.items():
            kept = {k: c for k, c in row.items()
                    if k[1] in times and (c % char if char else c)}
            if kept:
                self._rows[g] = kept
        self._dual: Optional[FreeComplex] = None
        self._laid: Dict[Band, Tuple[Dict, Dict]] = {}
        # weak keys: a product dies with its factor, and holds no cycle
        self._tensors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def d(self) -> "FreeMap":
        """The differential, a degree-1 map of the complex to itself."""
        return FreeMap(self, self, self._rows, deg=1)

    def validate(self) -> Optional[str]:
        """First generator with d² != 0, or None."""
        dd = self.d.compose(self.d).entries
        return next((g for (g, _, _) in self.gens if g in dd), None)

    def dual(self) -> "FreeComplex":
        """Hom into the ring; generator g^ in bidegree (-deg, -wt)."""
        if self._dual is None:
            hmin = None if self.honest_max is None else -self.honest_max
            hmax = None if self.honest_min is None else -self.honest_min
            self._dual = FreeComplex(
                self.ring, [(f"{g}^", -d, -w) for (g, d, w) in self.gens],
                self.d.transpose(), name=f"({self.name})^",
                honest_min=hmin, honest_max=hmax,
                honest_tracked=self.honest_tracked)
        return self._dual

    def tensor(self, other: "FreeComplex") -> "FreeComplex":
        """Tensor over the ring, differential d⊗1 + 1⊗d.

        Honesty bounds survive only when both factors are junk-free above
        and generated in degrees <= 0: removed cells then sit below every
        tracked degree, so the comparison long exact sequence localizes the
        damage under max(honest_min).
        """
        if other.ring is not self.ring:
            raise ValueError("tensor needs complexes over the same ring")
        if other in self._tensors:
            return self._tensors[other]

        def exact(c: "FreeComplex") -> bool:
            return (c.honest_tracked and c.honest_min is None
                    and c.honest_max is None)

        # two exact complexes tensor to the true object outright
        trackable = (exact(self) and exact(other)) or (
            self.honest_tracked and other.honest_tracked
            and self.honest_max is None and other.honest_max is None
            and all(d <= 0 for (_, d, _) in self.gens + other.gens))
        gens = [(f"{g}|{h}", dg + dh, wg + wh)
                for (g, dg, wg) in self.gens for (h, dh, wh) in other.gens]
        rows = _koszul([(self.d, identity_free_map(other)),
                        (identity_free_map(self), other.d)])
        mins = [b for b in (self.honest_min, other.honest_min) if b is not None]
        out = FreeComplex(self.ring, gens, rows,
                          name=f"{self.name}⊗{other.name}",
                          honest_min=(max(mins) if mins else None) if trackable
                          else None,
                          honest_tracked=trackable)
        self._tensors[other] = out
        return out

    def _layout(self, band: Band = None) -> Tuple[Dict[Tuple[int, int], List],
                                                  Dict[str, Dict[Mono, int]]]:
        """The realization's cells {(degree, weight): labels}, label
        (generator, monomial) for each generator of degree in the band (all
        when None) times each monomial, and the places: places[g][m] is the
        index of g times m in its cell.  Laid out once per band."""
        laid = self._laid.get(band)
        if laid is None:
            ring = self.ring
            weights, labels = ring._weights, ring._labels
            cells: Dict[Tuple[int, int], List] = {}
            places: Dict[str, Dict[Mono, int]] = {}
            for (g, d, w) in self.gens:
                if band is not None and not band[0] <= d <= band[1]:
                    continue
                at = places[g] = {}
                for m in ring.monomials:
                    lbls = cells.setdefault((d, w + weights[m]), [])
                    at[m] = len(lbls)
                    lbls.append((g, labels[m]))
            laid = self._laid[band] = (cells, places)
        return laid

    def to_complex(self, band: Band = None) -> CochainComplex:
        """Realization as a complex over the field, without the module
        action: the cells of ``_layout``, every cell known.  On a degree
        band (lo, hi) only generators of degree lo..hi are realized and each
        weight the whole complex reaches is known on lo..hi alone, so the
        cohomology is the whole complex's, certified, on lo+1..hi-1 only."""
        sp = BiGradedSpace(self.field)
        for (d, w), lbls in sorted(self._layout(band)[0].items()):
            sp.add_cell(d, w, lbls)
        if band is None:
            sp.mark_all_complete()
        elif self.gens:
            wts = [w for (_, _, w) in self.gens]
            for w in range(min(wts), max(wts) + max(self.ring._weights.values()) + 1):
                sp.set_known(w, *band)
        return CochainComplex(sp, self.d.realize(sp, sp, band))

    def to_module(self, name: str = "") -> DgModule:
        """Realization as a right module over the ring's algebra:
        ``to_complex`` with each monomial acting by multiplication."""
        ring, f = self.ring, self.field
        cx = self.to_complex()
        places = self._layout()[1]
        action: Dict[Tuple[Key, Key], Elt] = {}
        for (g, d, w) in self.gens:
            at = places[g]
            for m in ring.monomials:
                src = (d, w + sum(m), at[m])
                for a, p in ring._times[m].items():
                    action[(src, ring.mono_key(a))] = {(d, w + sum(p), at[p]): f.one}
        return DgModule(ring.algebra, cx, action, side="right",
                        name=name or self.name)


def _koszul(pairs: Sequence[Tuple["FreeMap", "FreeMap"]]) -> Rows:
    """Rows of the sum of f⊗g over the pairs, with the Koszul sign
    (f⊗g)(a⊗b) = (-1)^{|g||a|} f(a)⊗g(b)."""
    rows: Rows = {}
    names: Dict[Tuple[str, str], str] = {}
    for fm, gm in pairs:
        times, char = fm.source.ring._times, fm.source.field.char
        for (a, da, _) in fm.source.gens:
            fa = fm.entries.get(a)
            if not fa:
                continue
            if gm.deg * da % 2:
                fa = {k: -c for k, c in fa.items()}
            for (b, _, _) in gm.source.gens:
                gb = gm.entries.get(b)
                if not gb:
                    continue
                row = rows.setdefault(f"{a}|{b}", {})
                for (h1, m1), c1 in fa.items():
                    by_m1 = times[m1]
                    for (h2, m2), c2 in gb.items():
                        p = by_m1.get(m2)
                        if p is not None:
                            hh = (names.get((h1, h2))
                                  or names.setdefault((h1, h2), f"{h1}|{h2}"))
                            v = row.get((hh, p), 0) + c1 * c2
                            row[hh, p] = v % char if char else v
    return rows


class FreeMap:
    """Map of free complexes raising degree by ``deg`` (0 for a chain map,
    1 for a differential): ``entries[g]`` is the image of g as
    {(h, monomial tuple): field scalar}."""

    def __init__(self, source: FreeComplex, target: FreeComplex,
                 entries: Rows, deg: int = 0):
        self.source = source
        self.target = target
        self.entries = entries
        self.deg = deg

    def validate_chain(self) -> Optional[str]:
        """First source generator where d∘f != f∘d, or None."""
        left = self.target.d.compose(self).entries
        right = self.compose(self.source.d).entries
        return next((g for (g, _, _) in self.source.gens
                     if left.get(g) != right.get(g)), None)

    def compose(self, inner: "FreeMap") -> "FreeMap":
        """self ∘ inner; middle complexes must agree generator by generator.
        A term c·m·h of inner(g) goes to c·m·self(h), dead products dropped."""
        if inner.target.info != self.source.info:
            raise ValueError("composition mismatch")
        times, outer = self.target.ring._times, self.entries
        char = self.source.field.char
        entries: Rows = {}
        for (g, _, _) in inner.source.gens:
            img: FreeElt = {}
            for (h, m), c in inner.entries.get(g, {}).items():
                by_m, after = times.get(m), outer.get(h)
                if by_m is None or not after:
                    continue
                for (k, m2), c2 in after.items():
                    p = by_m.get(m2)
                    if p is not None:
                        v = img.get((k, p), 0) + c * c2
                        img[k, p] = v % char if char else v
            if 0 in img.values():
                img = {k: v for k, v in img.items() if v}
            if img:
                entries[g] = img
        return FreeMap(inner.source, self.target, entries, self.deg + inner.deg)

    def transpose(self) -> Rows:
        """Rows of the map between duals: each entry c·h of the image of g
        gives h^ ↦ (-1)^{deg·(|h|+1)} c·g^."""
        char, info = self.source.field.char, self.target.info
        rows: Rows = {}
        hats: Dict[str, str] = {}
        for g, row in self.entries.items():
            g_hat = f"{g}^"
            for (h, m), c in row.items():
                if self.deg * (info[h][0] + 1) % 2:
                    c = -c % char if char else -c
                h_hat = hats.get(h) or hats.setdefault(h, f"{h}^")
                rows.setdefault(h_hat, {})[(g_hat, m)] = c
        return rows

    def dual(self) -> "FreeMap":
        """The transpose, from the target's dual to the source's."""
        return FreeMap(self.target.dual(), self.source.dual(), self.transpose(),
                       self.deg)

    def tensor(self, other: "FreeMap") -> "FreeMap":
        """Tensor of maps, with the Koszul sign of ``_koszul``."""
        return FreeMap(self.source.tensor(other.source),
                       self.target.tensor(other.target),
                       _koszul([(self, other)]), self.deg + other.deg)

    def realize(self, src: BiGradedSpace, tgt: BiGradedSpace,
                band: Band = None) -> GradedMap:
        """The map between the realizations of the source and the target
        on one degree band (``to_complex``), on their spaces: g times m
        goes to m times the image of g, on the band's generators, each
        block entry written once at the places of ``FreeComplex._layout``.
        Every entry c·m2·h of the map, in the band or not, must keep the
        bidegree, |h| = |g| + deg and w_h + |m2| = w_g, else ValueError;
        m adds |m| to both weights, so every entry it realizes keeps it."""
        ring, info = self.source.ring, self.source.info
        _check_bidegrees(ring, self.entries.items(), info, self.target.info, self.deg)
        char, times, weights = ring.field.char, ring._times, ring._weights
        s_at, t_at = self.source._layout(band)[1], self.target._layout(band)[1]
        blocks: Dict[Tuple[int, int], Dict[Tuple[int, int], Scalar]] = {}
        for g, at in s_at.items():
            row = self.entries.get(g)
            if not row:
                continue
            dg, wg = info[g]
            terms = [(t_at[h], m2, c) for (h, m2), c in row.items()
                     if h in t_at and (c % char if char else c)]
            for m, col in at.items():
                by_m, cell = times[m], (dg, wg + weights[m])
                for h_at, m2, c in terms:
                    p = by_m.get(m2)
                    if p is not None:
                        blocks.setdefault(cell, {})[(h_at[p], col)] = c
        out = GradedMap(src, tgt, self.deg, 0)
        for (d, w), entries in blocks.items():
            b = SparseMatrix(tgt.dim(d + self.deg, w), src.dim(d, w), ring.field)
            b.entries = entries
            out.blocks[(d, w)] = b
        return out


def identity_free_map(c: FreeComplex) -> FreeMap:
    return FreeMap(c, c, {g: {(g, c.ring.one): c.field.one}
                          for (g, _, _) in c.gens})


def biduality_map(src: FreeComplex, tgt: FreeComplex) -> FreeMap:
    """Evaluation g ↦ (-1)^{deg g} g^^; the sign absorbs the negated
    differential that two passes of the dual convention produce."""
    f = src.field
    return FreeMap(src, tgt, {
        g: {(f"{g}^^", src.ring.one): f.neg(f.one) if d % 2 else f.one}
        for (g, d, _) in src.gens})


def lacing_map(a: FreeComplex, b: FreeComplex) -> FreeMap:
    """A^∨ ⊗ B^∨ -> (A⊗B)^∨ on dual generators, with the chain-map sign."""
    f = a.field
    entries: Rows = {}
    for (g, dg, _) in a.gens:
        for (h, dh, _) in b.gens:
            sign = f.neg(f.one) if (dg * dh) % 2 else f.one
            entries[f"{g}^|{h}^"] = {(f"{g}|{h}^", a.ring.one): sign}
    return FreeMap(a.dual().tensor(b.dual()), a.tensor(b).dual(), entries)


# -- resolutions -------------------------------------------------------------


def _pure_powers(ring: TruncatedRing) -> Optional[List[Optional[int]]]:
    """Per variable, the exponent t of its relation x^t, or None when it has
    none; None outright when some relation is not a pure power, so the ring
    is no monomial complete intersection (before any weight cap)."""
    powers: List[Optional[int]] = [None] * len(ring.variables)
    for rel in ring.relations:
        held = [i for i, e in enumerate(rel) if e]
        if len(held) != 1:
            return None
        powers[held[0]] = rel[held[0]]
    return powers


def _product_resolution(ring: TruncatedRing, powers: Sequence[Optional[int]],
                        length: int, wt0: int = 0) -> Tuple[List, List[Dict]]:
    """The Koszul-signed tensor product of one-variable resolutions of k, one
    per variable x_i: periodic over k[x_i]/(x_i^t) when powers[i] is t (a
    single generator when t is 1, since x_i is then 0), and x_i: A -> A for
    a free variable, whose power is None.  The one builder of k's
    resolutions, as FreeComplex (``_free_complex``) or SemiFree
    (``_witness``).

    Generator (j_1, ..., j_r) sits in degree -Σj at weight wt0 + Σ w(j_i),
    where w(j) = (j // 2)·t + j % 2, and d sends it to each factor's step
    x_i^{1 or t-1} times (.., j_i - 1, ..), with sign (-1)^(j_1 + .. +
    j_{i-1}).  The Koszul factors are finite and kept whole; the periodic
    ones are cut jointly, keeping the generators whose periodic indices sum
    to at most length, and the complex is then exact above degree -length.
    It is a resolution of k where the ring's weight cap cuts no monomial,
    and exact in every weight up to the cap otherwise, since d keeps weight
    and a weight slice of a free module only loses cells above the cap.
    Names are e(x*y) for a Koszul complex, as the exterior generators read,
    and p<j_1,..,j_r> otherwise.  Returns the generators (name, degree,
    weight) and, per generator, d(g_i) as {(j, monomial): sign}."""
    f = ring.field
    n = len(powers)
    koszul = all(t is None for t in powers)
    periodic = [t is not None and t > 1 for t in powers]
    ranges = [range(length + 1) if cut else range(2 if t is None else 1)
              for t, cut in zip(powers, periodic)]

    def x(i: int, e: int) -> Mono:
        return tuple(e if l == i else 0 for l in range(n))

    # per factor, the weight of each index, and the steps down from an odd
    # index, x_i, and from an even one, x_i^(t-1)
    weights = [[j if t is None else (j // 2) * t + j % 2 for j in r]
               for t, r in zip(powers, ranges)]
    steps = [(x(i, 1), x(i, t - 1) if cut else None)
             for i, (t, cut) in enumerate(zip(powers, periodic))]
    signs = (f.one, f.neg(f.one))
    # the tuples the cut keeps, each with what the cut leaves over, its index
    # sum and weight; sorted by index sum, each index from the largest down
    grown = [((), length, 0, wt0)]
    for r, cut, w in zip(ranges, periodic, weights):
        grown = [(js + (j,), left - j if cut else left, s + j, wt + w[j])
                 for js, left, s, wt in grown
                 for j in (range(left + 1) if cut else r)]
    grown.sort(key=lambda g: (-g[2], g[0]), reverse=True)
    at = {g[0]: i for i, g in enumerate(grown)}
    label = "p" + ",".join(["%d"] * n)
    gens, terms = [], []
    for js, _, s, wt in grown:
        if koszul:
            name = "e(" + "*".join(itertools.compress(ring.variables, js)) + ")"
        else:
            name = label % js
        gens.append((name, -s, wt))
        row, before = {}, 0
        for i, j in enumerate(js):
            if j:
                row[at[js[:i] + (j - 1,) + js[i + 1:]], steps[i][j % 2 == 0]] = (
                    signs[before & 1])
                before += j
        terms.append(row)
    return gens, terms


def _free_complex(ring: TruncatedRing, powers: Sequence[Optional[int]],
                  length: int, wt0: int = 0, name: str = "") -> FreeComplex:
    """``_product_resolution`` as a FreeComplex."""
    gens, terms = _product_resolution(ring, powers, length, wt0)
    rows = {g: {(gens[j][0], m): c for (j, m), c in row.items()}
            for (g, _, _), row in zip(gens, terms)}
    koszul = all(t is None for t in powers)
    return FreeComplex(ring, gens, rows,
                       name=name or (f"Koszul({ring.name})" if koszul else "res(k)"),
                       honest_min=-length + 1 if any((t or 0) > 1 for t in powers)
                       else None)


def _witness(ring: TruncatedRing, length: int) -> SemiFree:
    """What ``residue_module``'s recipe builds: ``_product_resolution`` as
    a SemiFree over R's one object, whose ``keys`` are R's monomials, each
    entry's bidegree checked and dead or zero ones dropped as
    ``FreeComplex`` does."""
    gens, terms = _product_resolution(ring, _pure_powers(ring), length)
    bidegrees = [(d, w) for (_, d, w) in gens]
    _check_bidegrees(ring, enumerate(terms), bidegrees, bidegrees, 1)
    at = {m: i for i, m in enumerate(ring.monomials)}
    flat = [(i, j, at[m], c) for i, row in enumerate(terms)
            for (j, m), c in row.items() if m in at and c]
    return SemiFree([(g,) for (g, _, _) in gens], [d for (_, d, _) in gens],
                    [w for (_, _, w) in gens], [0] * len(gens),
                    *([x[i] for x in flat] for i in range(4)), [ring.mono_key(m) for m in ring.monomials])


def periodic_resolution(ring: TruncatedRing, length: int,
                        socle: bool = False, name: str = "") -> FreeComplex:
    """Length-truncated minimal resolution of k (or of the socle copy of k)
    over a one-variable truncated power ring k[x]/(x^t)."""
    if len(ring.variables) != 1 or len(ring.relations) != 1:
        raise ValueError("periodic resolution needs k[x]/(x^t)")
    t = ring.relations[0][0]
    if t < 2:
        raise ValueError("periodic resolution needs t >= 2: k[x]/(x) is k")
    if ring.wmax is not None and ring.wmax < t - 1:
        raise ValueError("ring truncation cuts below the relation")
    return _free_complex(
        ring, [t], length, wt0=t - 1 if socle else 0,
        name=name or f"res(k{'_socle' if socle else ''})")


def free_resolution(ring: TruncatedRing, length: int) -> FreeComplex:
    """Resolution of the residue field over a monomial complete intersection
    k[x_1..x_r]/(x_i^{t_i}), free variables allowed (``_product_resolution``);
    a ring spanned by 1 alone is the field, whatever its presentation, so
    there every variable is 0."""
    powers = ([1] * len(ring.variables) if ring.monomials == [ring.one]
              else _pure_powers(ring))
    if powers is None:
        raise ValueError(f"no built-in resolution of k over {ring.name}")
    return _free_complex(ring, powers, length)


def dual_model(ring: TruncatedRing, p: FreeComplex,
               length: int) -> Tuple[FreeComplex, FreeMap]:
    """A junk-free exact complex quasi-isomorphic to the dual of the residue
    field, with its comparison into p's strict dual: over the field or a
    free polynomial ring, and over k[x]/(x^t).  Any other ring raises
    ValueError."""
    pd = p.dual()
    if ring.monomials == [ring.one] or not ring.relations:
        # field or free polynomial ring: the dual of the finite exact
        # resolution is itself exact
        return pd, identity_free_map(pd)
    if len(ring.variables) != 1:
        raise ValueError(f"no built-in dual model of k over {ring.name}")
    pprime = periodic_resolution(ring, length, socle=True)
    t = ring.relations[0][0]
    return pprime, FreeMap(pprime, pd, {"p0": {("p0^", (t - 1,)): ring.field.one}})


# -- biduality comparison for tensor powers ----------------------------------


def infin_ext_check(ring: TruncatedRing, window: Tuple[int, int] = (-4, 4),
                    length: int = 8, n_check: int = 2) -> Dict:
    """Compare tensor powers of the residue field with duals-of-duals.

    Left route per n: resolve k, tensor n times, dualize twice.  Right
    route: re-resolve an exact model of the dual, tensor n times, dualize
    once.  The verdict says whether the canonical comparison map is an
    isomorphism on every certified bidegree inside the window.

    The cohomology at degrees lo..hi reads only the generators of degree
    lo-1..hi+1, so only that band is realized (``FreeComplex.to_complex``);
    d² on the resolution and the chain-map checks run on the whole maps.
    """
    lo, hi = window
    if length < 2 * max(abs(lo), abs(hi)):
        raise ValueError("resolution length must be at least twice the window")
    p = free_resolution(ring, length)
    bad = p.validate()
    if bad is not None:
        raise RuntimeError(f"resolution fails d-squared at {bad}")
    pprime, rho = dual_model(ring, p, length)
    if rho.validate_chain() is not None:
        raise RuntimeError("dual comparison is not a chain map")

    report: Dict = {"ring": ring.name, "window": [lo, hi], "length": length,
                    "certified_degrees": {}, "biduality": {}, "tables": {},
                    "per_degree": {}}
    verdict_ok, witness = True, None
    t_n, tp_n, rho_n = p, pprime, rho
    kappa_n = identity_free_map(p.dual())
    band = (lo - 1, hi + 1)
    for n in range(1, n_check + 1):
        if n > 1:
            prev = t_n
            t_n = prev.tensor(p)
            tp_n = tp_n.tensor(pprime)
            rho_n = rho_n.tensor(rho)
            kappa_n = lacing_map(prev, p).compose(
                kappa_n.tensor(identity_free_map(p.dual())))

        left_cx = t_n.dual().dual()
        right_cx = tp_n.dual()
        comparison = kappa_n.compose(rho_n).dual()
        phi = biduality_map(t_n, left_cx)
        if phi.validate_chain() is not None:
            raise RuntimeError("biduality relabeling is not a chain map")
        if comparison.validate_chain() is not None:
            raise RuntimeError("comparison map is not a chain map")

        cert_lo, cert_hi = lo, hi
        wcaps = []
        for cx in (left_cx, right_cx):
            if not cx.honest_tracked:
                raise RuntimeError("lost track of honesty bounds")
            if cx.honest_min is not None:
                cert_lo = max(cert_lo, cx.honest_min)
            if cx.honest_max is not None:
                cert_hi = min(cert_hi, cx.honest_max)
            # a weight cap on the ring truncates weight slices from above
            if cx.ring.wmax is not None:
                wcaps.append(cx.ring.wmax + min(w for (_, _, w) in cx.gens))
        wt_cert = min(wcaps) if wcaps else None
        report["certified_degrees"][n] = [cert_lo, cert_hi]
        report.setdefault("certified_weight_max", {})[n] = wt_cert

        cx_t, cx_left, cx_right = (c.to_complex(band) for c in (t_n, left_cx, right_cx))
        lam = comparison.realize(cx_left.space, cx_right.space, band)
        phi_map = phi.realize(cx_t.space, cx_left.space, band)

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
        "report_wmax": wmax,
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
        "ring": ring,
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
        "dmax": int(params.get("dmax", 2)),
        "expected": {
            "h0_total": depth,
            "h0_by_weight": {w: 1 for w in range(0, depth)},
            "quotient_dims": list(range(1, depth + 1)),
        },
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
        "expected": {
            "hom_dims_by_weight": {w: 2 for w in range(1, wmax + 1)},
            "h_dims": {(0, 0): 1},
        },
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
