"""Commutative monomial test rings, adic towers, free resolutions with
duality comparisons, quiver-style category algebras, and the named example
registry.

Rings here are spanned by standard monomials of a monomial ideal, optionally
cut off above a weight bound; that keeps every product table exact and every
derived computation an honest finite quotient.
"""
from __future__ import annotations

import itertools
import random
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .dg import (
    AlgebraMorphism, DgAlgebra, DgCategoryPresentation, DgModule,
    category_algebra, direct_sum_modules, right_ideal_module,
)
from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key, Window, induced_rank,
)
from .holim import AlgebraDiagram, SmallCategory, chain_poset, poset_category
from .linalg import Field, RATIONALS, Scalar

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
    optionally truncated above a total weight."""

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
        self._alive = set(self.monomials)
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
        products: Dict[Tuple[str, str], Dict[str, object]] = {}
        for a in self.monomials:
            for b in self.monomials:
                p = _mono_mul(a, b)
                if p in self._alive:
                    products[(self._labels[a], self._labels[b])] = {
                        self._labels[p]: 1}
        alg = DgAlgebra.from_basis(f, basis, [self._labels[self.one]],
                                   {}, products, name=self.name)
        alg.idempotents = {"*": dict(alg.unit)}
        return alg

    def mono_key(self, m: Mono) -> Key:
        return self.algebra.space.key_of(0, sum(m), self._labels[m])

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
            for a in self.monomials:
                p = _mono_mul(m, a)
                if p in keptset and p in self._alive:
                    action[(mkey(m), self.mono_key(a))] = {mkey(p): f.one}
        return DgModule(self.algebra, cx, action, side="right",
                        name=name or f"{self.name}/({','.join(extra)})")

    def residue_module(self, name: str = "k") -> DgModule:
        return self.quotient_module(list(self.variables) or [], name=name)

    def projection_to(self, other: "TruncatedRing") -> AlgebraMorphism:
        """Monomials map to themselves where still standard, else to zero."""
        if other.variables != self.variables:
            raise ValueError("projection needs the same variable list")
        g = GradedMap(self.algebra.space, other.algebra.space, 0, 0)
        for m in self.monomials:
            if m in other._alive:
                g.set_entry(self.mono_key(m), other.mono_key(m), self.field.one)
        return AlgebraMorphism(self.algebra, other.algebra, g)


def truncated_poly(field: Field, variables: Sequence[str],
                   relations: Sequence = (), wmax: Optional[int] = None,
                   name: str = "") -> TruncatedRing:
    return TruncatedRing(field, variables, relations, wmax, name)


# -- square-zero extensions --------------------------------------------------


class SquareZeroRing:
    """R ⊕ M with M·M = 0, for M a monomial quotient module of R."""

    def __init__(self, ring: TruncatedRing, algebra: DgAlgebra, shift: int):
        self.ring = ring
        self.algebra = algebra
        self.shift = shift


def square_zero(ring: TruncatedRing, module_extra: Optional[Sequence[str]] = (),
                name: str = "") -> SquareZeroRing:
    """Trivial extension of a monomial ring by R/(extra); None means M = 0.

    The M summand is re-weighted upward so it sits in strictly positive
    weights: weight is bookkeeping and the shift keeps the extension inside
    the reduced-bar hypotheses.
    """
    if module_extra is None:
        return SquareZeroRing(ring, ring.algebra, 0)
    gens = [parse_mono(t, ring.variables) for t in module_extra]
    kept = [m for m in ring.monomials
            if not any(_divides(g, m) for g in gens)]
    if not kept:
        raise ValueError("square-zero module part is zero; pass None for M = 0")
    f = ring.field
    shift = max(0, 1 - min(sum(m) for m in kept))
    rl = ring._labels
    mlbl = {m: f"m({rl[m]})" for m in kept}
    basis = [(rl[m], 0, sum(m)) for m in ring.monomials]
    basis += [(mlbl[m], 0, sum(m) + shift) for m in kept]
    keptset = set(kept)
    products: Dict[Tuple[str, str], Dict[str, object]] = {}
    for a in ring.monomials:
        for b in ring.monomials:
            p = _mono_mul(a, b)
            if p in ring._alive:
                products[(rl[a], rl[b])] = {rl[p]: 1}
    for a in ring.monomials:
        for m in kept:
            p = _mono_mul(a, m)
            if p in keptset and p in ring._alive:
                products[(rl[a], mlbl[m])] = {mlbl[p]: 1}
                products[(mlbl[m], rl[a])] = {mlbl[p]: 1}
    alg = DgAlgebra.from_basis(f, basis, [rl[ring.one]], {}, products,
                               name=name or f"{ring.name}⋉M")
    alg.idempotents = {"*": dict(alg.unit)}
    return SquareZeroRing(ring, alg, shift)


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

    def quotient(self, n: int) -> TruncatedRing:
        """R/I^n, 1-based."""
        return self.rings[n - 1]

    def dims(self) -> List[int]:
        return [r.algebra.space.total_dim() for r in self.rings]

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
        f, alive = ring.field, ring._alive
        self._rows: Rows = {}
        for g, row in rows.items():
            dg, wg = self.info[g]
            for (h, m) in row:
                dh, wh = self.info[h]
                if dh != dg + 1:
                    raise ValueError(f"d({g}) hits {h}: degree {dh} != {dg}+1")
                if wh + sum(m) != wg:
                    raise ValueError(
                        f"d({g}) hits {mono_label(m, ring.variables)}*{h}:"
                        f" weight {wh}+{sum(m)} != {wg}")
            kept = {k: c for k, c in row.items()
                    if k[1] in alive and not f.is_zero(c)}
            if kept:
                self._rows[g] = kept
        self._dual: Optional[FreeComplex] = None
        # weak keys: a product dies with its factor, and holds no cycle
        self._tensors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def d(self) -> "FreeMap":
        """The differential, a degree-1 map of the complex to itself."""
        return FreeMap(self, self, self._rows, deg=1)

    def validate(self) -> Optional[str]:
        """First generator with d² != 0, or None."""
        for (g, _, _) in self.gens:
            if self.d.apply(self.d.apply({(g, self.ring.one): self.field.one})):
                return g
        return None

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

    def to_complex(self) -> CochainComplex:
        """Realization as a complex over the field, without the module
        action: a cell per (degree, weight), every cell known, with label
        (generator, monomial) for each generator times each monomial."""
        ring = self.ring
        cells: Dict[Tuple[int, int], List] = {}
        for (g, d, w) in self.gens:
            for m in ring.monomials:
                cells.setdefault((d, w + sum(m)), []).append((g, ring._labels[m]))
        sp = BiGradedSpace(self.field)
        for (d, w), lbls in sorted(cells.items()):
            sp.add_cell(d, w, lbls)
        sp.mark_all_complete()
        return CochainComplex(sp, self.d.realize(sp, sp))

    def to_module(self, name: str = "") -> DgModule:
        """Realization as a right module over the ring's algebra:
        ``to_complex`` with each monomial acting by multiplication."""
        ring, f = self.ring, self.field
        cx = self.to_complex()
        action: Dict[Tuple[Key, Key], Elt] = {}
        for (g, _, _) in self.gens:
            for m in ring.monomials:
                src = self.module_key(cx.space, g, m)
                for a in ring.monomials:
                    p = _mono_mul(m, a)
                    if p in ring._alive:
                        action[(src, ring.mono_key(a))] = {
                            self.module_key(cx.space, g, p): f.one}
        return DgModule(ring.algebra, cx, action, side="right",
                        name=name or self.name)

    def module_key(self, space: BiGradedSpace, g: str, m: Mono) -> Key:
        """The key of g times m in a realization of this complex."""
        d, w = self.info[g]
        return space.key_of(d, w + sum(m), (g, self.ring._labels[m]))


def _koszul(pairs: Sequence[Tuple["FreeMap", "FreeMap"]]) -> Rows:
    """Rows of the sum of f⊗g over the pairs, with the Koszul sign
    (f⊗g)(a⊗b) = (-1)^{|g||a|} f(a)⊗g(b)."""
    rows: Rows = {}
    for fm, gm in pairs:
        f, alive = fm.source.field, fm.source.ring._alive
        for (a, da, _) in fm.source.gens:
            fa = fm.entries.get(a)
            if not fa:
                continue
            if gm.deg * da % 2:
                fa = {k: f.neg(c) for k, c in fa.items()}
            for (b, _, _) in gm.source.gens:
                gb = gm.entries.get(b)
                if not gb:
                    continue
                row = rows.setdefault(f"{a}|{b}", {})
                for (h1, m1), c1 in fa.items():
                    for (h2, m2), c2 in gb.items():
                        p = _mono_mul(m1, m2)
                        if p in alive:
                            key = (f"{h1}|{h2}", p)
                            row[key] = f.add(row.get(key, f.zero), f.mul(c1, c2))
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

    def apply(self, e: FreeElt) -> FreeElt:
        f, alive = self.source.field, self.target.ring._alive
        out: FreeElt = {}
        for (g, m), c in e.items():
            for (h, m2), c2 in self.entries.get(g, {}).items():
                p = _mono_mul(m, m2)
                if p not in alive:
                    continue
                key = (h, p)
                v = f.add(out.get(key, f.zero), f.mul(c, c2))
                if f.is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v
        return out

    def validate_chain(self) -> Optional[str]:
        """First source generator where d∘f != f∘d, or None."""
        for (g, _, _) in self.source.gens:
            e = {(g, self.source.ring.one): self.source.field.one}
            if (self.target.d.apply(self.apply(e))
                    != self.apply(self.source.d.apply(e))):
                return g
        return None

    def compose(self, inner: "FreeMap") -> "FreeMap":
        """self ∘ inner; middle complexes must agree generator by generator."""
        if inner.target.info != self.source.info:
            raise ValueError("composition mismatch")
        unit, one = inner.source.ring.one, inner.source.field.one
        entries: Rows = {}
        for (g, _, _) in inner.source.gens:
            img = self.apply(inner.apply({(g, unit): one}))
            if img:
                entries[g] = img
        return FreeMap(inner.source, self.target, entries, self.deg + inner.deg)

    def transpose(self) -> Rows:
        """Rows of the map between duals: each entry c·h of the image of g
        gives h^ ↦ (-1)^{deg·(|h|+1)} c·g^."""
        f = self.source.field
        rows: Rows = {}
        for g, row in self.entries.items():
            for (h, m), c in row.items():
                if self.deg * (self.target.info[h][0] + 1) % 2:
                    c = f.neg(c)
                rows.setdefault(f"{h}^", {})[(f"{g}^", m)] = c
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

    def realize(self, src: BiGradedSpace, tgt: BiGradedSpace) -> GradedMap:
        """The map between realizations of the source and the target, on
        their spaces: g times m goes to m times the image of g."""
        ring = self.source.ring
        out = GradedMap(src, tgt, self.deg, 0)
        for (g, _, _) in self.source.gens:
            row = self.entries.get(g)
            if not row:
                continue
            for m in ring.monomials:
                img: Elt = {}
                for (h, m2), c in row.items():
                    p = _mono_mul(m, m2)
                    if p in ring._alive:
                        img[self.target.module_key(tgt, h, p)] = c
                if img:
                    out.set_column(self.source.module_key(src, g, m), img)
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


def koszul_resolution(ring: TruncatedRing, name: str = "") -> FreeComplex:
    """Koszul complex on the variables; a resolution of k when the ring is
    relation-free (finite and exact, so it carries no degree junk).

    Over a weight-truncated ring the realization stays exact in every weight
    up to the cap, because the differential preserves weight and a weight
    slice of a free module only loses cells above the cap.
    """
    if ring.relations:
        raise ValueError("koszul resolution needs a relation-free ring")
    f, n = ring.field, len(ring.variables)
    gens = []
    rows: Rows = {}

    def gname(sub: Tuple[int, ...]) -> str:
        return "e(" + "*".join(ring.variables[i] for i in sub) + ")"

    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            gens.append((gname(sub), -r, r))
            rows[gname(sub)] = {
                (gname(sub[:j] + sub[j + 1:]),
                 tuple(int(k == i) for k in range(n))):
                f.neg(f.one) if j % 2 else f.one
                for j, i in enumerate(sub)}
    return FreeComplex(ring, gens, rows, name=name or f"Koszul({ring.name})")


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
    gens = []
    rows: Rows = {}
    wt = t - 1 if socle else 0
    for i in range(length + 1):
        gens.append((f"p{i}", -i, wt))
        if i + 1 <= length:
            step = 1 if i % 2 == 0 else t - 1
            rows[f"p{i + 1}"] = {(f"p{i}", (step,)): ring.field.one}
            wt += step
    return FreeComplex(ring, gens, rows,
                       name=name or f"res(k{'_socle' if socle else ''})",
                       honest_min=-length + 1)


def free_resolution(ring: TruncatedRing, length: int) -> FreeComplex:
    """Resolution of the residue field, dispatched on the ring's shape; a
    ring spanned by 1 alone is the field, whatever its presentation."""
    if ring.monomials == [ring.one]:
        return FreeComplex(ring, [("e", 0, 0)], {}, name="res(k)")
    if not ring.relations:
        return koszul_resolution(ring)
    if len(ring.variables) == 1 and len(ring.relations) == 1:
        return periodic_resolution(ring, length)
    raise ValueError(f"no built-in resolution of k over {ring.name}")


def dual_model(ring: TruncatedRing, p: FreeComplex,
               length: int) -> Tuple[FreeComplex, FreeMap]:
    """A junk-free exact complex quasi-isomorphic to the dual of the residue
    field, with its comparison into p's strict dual."""
    pd = p.dual()
    if ring.monomials == [ring.one] or not ring.relations:
        # field or free polynomial ring: the dual of the finite exact
        # resolution is itself exact
        return pd, identity_free_map(pd)
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

    report: Dict = {
        "ring": ring.name,
        "window": [lo, hi],
        "length": length,
        "certified_degrees": {},
        "biduality": {},
        "tables": {},
        "per_degree": {},
    }

    verdict_ok = True
    witness = None
    t_n = p
    tp_n = pprime
    rho_n = rho
    kappa_n = identity_free_map(p.dual())
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

        cx_t = t_n.to_complex()
        cx_left = left_cx.to_complex()
        cx_right = right_cx.to_complex()
        lam = comparison.realize(cx_left.space, cx_right.space)
        phi_map = phi.realize(cx_t.space, cx_left.space)

        wt_band = max((abs(w) for (_, w) in
                       list(cx_left.space.cells) + list(cx_right.space.cells)),
                      default=0)
        win = Window(lo, hi, wt_band)
        h_left = cx_left.cohomology(win)
        h_right = cx_right.cohomology(win)

        left: Dict[Tuple[int, int], int] = {}
        right: Dict[Tuple[int, int], int] = {}
        ranks: Dict[Tuple[int, int], int] = {}
        bid: Dict[Tuple[int, int], int] = {}
        # a cell with no cohomology on either side has every rank 0
        cells = set(h_left.space.cells) | set(h_right.space.cells)
        for (d, w) in sorted(c for c in cells if lo <= c[0] <= hi):
            dl = h_left.dim(d, w)
            dr = h_right.dim(d, w)
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
                    and (wt_cert is None or w <= wt_cert)):
                if not (dl == dr == rk):
                    verdict_ok = False
                    if witness is None:
                        witness = (n, d, w)
        report["biduality"][n] = {
            "ranks": bid,
            "matches_left_dims": bid == left,
        }
        report["tables"][n] = {"left": left, "right": right, "map_rank": ranks}
        report["per_degree"][n] = {
            "left": [sum(v for (d, _), v in left.items() if d == dd)
                     for dd in range(lo, hi + 1)],
            "right": [sum(v for (d, _), v in right.items() if d == dd)
                      for dd in range(lo, hi + 1)],
            "map_rank": [sum(v for (d, _), v in ranks.items() if d == dd)
                         for dd in range(lo, hi + 1)],
        }
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


def _scen_square_zero_kx2(field: Field, params: Dict) -> Dict:
    ring = truncated_poly(field, ["x"], ["x^2"])
    ext = square_zero(ring, ())
    return {
        "name": "square_zero_kx2",
        "kind": "algebra_check",
        "square_zero": ext,
        "algebra": ext.algebra,
        "expected": {
            "dims_by_weight": {0: 1, 1: 2, 2: 1},
            "total_dim": 4,
            "shift": 1,
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
    "square_zero_kx2": _scen_square_zero_kx2,
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
