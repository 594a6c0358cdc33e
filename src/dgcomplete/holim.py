"""Homotopy limits of dg algebra diagrams over a finite index category,
homotopy colimits of module diagrams, and the action of the limit algebra
on the colimit.

A limit cell is an algebra basis element sitting at a composable string of
non-identity arrows; its total degree is the internal degree plus the string
length.  A colimit cell sits at internal degree minus string length.  The
differential has one term per face of the string (extend at the target end,
compose two adjacent arrows, drop at the source end) plus the internal
differential; the limit product concatenates strings, transporting the right
factor across the left factor's string.  The product is a rule, not a table:
each pair of cells is multiplied the first time something reads it, so a
limit read only through its cohomology multiplies nothing.

Strings longer than a cutoff span a two-sided dg ideal of the limit (every
face and every product term only lengthens strings), so the stored object is
an honest quotient dg algebra, and its cohomology agrees with the full limit
in a degree range recorded in the per-column certificates.  For colimits the
short strings span a subcomplex and the certified range is bounded below
instead.

Every face and product sign is routed through a SignConvention.  The zero
convention is the published one; flipping any single field must make the
d^2 / associativity / module validators fail, which is part of the
certification suite.
"""

from typing import Dict, List, Optional, Tuple

from .linalg import Field
from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key, elt_axpy,
)
from .dg import (
    AlgebraMorphism, DgAlgebra, DgModule, ValidationReport,
)

Label = Tuple[object, Tuple[str, ...], Key]


_SIGN_FIELDS = (
    "limit_drop_last", "limit_compose", "limit_drop_first", "limit_product",
    "colim_drop_last", "colim_compose", "colim_drop_first", "action_twist",
)


class SignConvention:
    """Extra exponents (mod 2), one per face or product term class.

    All zeros is the published convention.  ``flip(name)`` returns the
    convention with one term class negated; these mutants are what the
    certification tests feed back through the validators, expecting failure.
    The product and action twists apply only to the string-length-one case of
    their term, so a flipped field can never be absorbed by rescaling cells.
    """

    __slots__ = _SIGN_FIELDS

    def __init__(self, **kw):
        for field in _SIGN_FIELDS:
            setattr(self, field, int(kw.pop(field, 0)) % 2)
        if kw:
            raise ValueError(f"unknown sign fields: {sorted(kw)}")

    def flip(self, name: str) -> "SignConvention":
        if name not in _SIGN_FIELDS:
            raise ValueError(f"unknown sign field {name!r}")
        kw = {f: getattr(self, f) for f in _SIGN_FIELDS}
        kw[name] = 1 - kw[name]
        return SignConvention(**kw)

    @staticmethod
    def fields() -> Tuple[str, ...]:
        return _SIGN_FIELDS

    def __repr__(self):
        on = [f for f in _SIGN_FIELDS if getattr(self, f)]
        return f"SignConvention(flipped={on})" if on else "SignConvention()"


DEFAULT_SIGNS = SignConvention()


class SmallCategory:
    """Finite category: objects, named non-identity arrows, and a composition
    table over all composable pairs.

    ``compose[(second, first)]`` is the name of the composite arrow, or None
    when the composite is an identity.  Identities themselves are implicit.
    The constructor checks totality of the table, endpoint consistency, and
    associativity, so downstream code can trust the data.
    """

    def __init__(self, objects, arrows: Dict[str, Tuple[object, object]],
                 compose: Dict[Tuple[str, str], Optional[str]]):
        self.objects = list(objects)
        self.arrows = {str(k): (v[0], v[1]) for k, v in arrows.items()}
        self.compose = dict(compose)
        problems = self.check()
        if problems:
            raise ValueError(f"bad category: {problems[0]}")

    def src(self, arrow: str):
        return self.arrows[arrow][0]

    def tgt(self, arrow: str):
        return self.arrows[arrow][1]

    def comp(self, second: str, first: str) -> Optional[str]:
        """Composite "first, then second": an arrow name, or None for an identity."""
        return self.compose[(second, first)]

    def check(self) -> List[str]:
        out = []
        obj_set = set(self.objects)
        if len(obj_set) != len(self.objects):
            out.append("duplicate object")
        for nm, (s, t) in self.arrows.items():
            if s not in obj_set or t not in obj_set:
                out.append(f"arrow {nm} touches an unknown object")
        missing = object()
        for g, (gs, gt) in self.arrows.items():
            for f, (fs, ft) in self.arrows.items():
                if ft != gs:
                    continue
                h = self.compose.get((g, f), missing)
                if h is missing:
                    out.append(f"missing composite ({g} after {f})")
                elif h is None:
                    if fs != gt:
                        out.append(f"identity composite ({g} after {f}) is not an endomorphism")
                elif h not in self.arrows:
                    out.append(f"unknown composite name {h!r}")
                elif self.arrows[h] != (fs, gt):
                    out.append(f"composite {h} has the wrong endpoints")
        for (g, f) in self.compose:
            if g not in self.arrows or f not in self.arrows:
                out.append(f"composition entry ({g},{f}) uses unknown arrows")
            elif self.arrows[f][1] != self.arrows[g][0]:
                out.append(f"composition entry ({g},{f}) is not composable")
        if out:
            return out
        for h in self.arrows:
            for g in self.arrows:
                if self.arrows[g][1] != self.arrows[h][0]:
                    continue
                for f in self.arrows:
                    if self.arrows[f][1] != self.arrows[g][0]:
                        continue
                    gf = self.compose[(g, f)]
                    hg = self.compose[(h, g)]
                    left = h if gf is None else self.compose[(h, gf)]
                    right = f if hg is None else self.compose[(hg, f)]
                    if left != right:
                        out.append(f"associativity fails at ({h},{g},{f})")
        return out

    def arrows_from(self, obj) -> List[str]:
        return sorted(nm for nm, (s, _) in self.arrows.items() if s == obj)

    def arrows_into(self, obj) -> List[str]:
        return sorted(nm for nm, (_, t) in self.arrows.items() if t == obj)

    def factorizations(self, arrow: str) -> List[Tuple[str, str]]:
        """All (first, second) pairs of non-identity arrows with second∘first == arrow."""
        out = []
        for (g, f), h in self.compose.items():
            if h == arrow:
                out.append((f, g))
        return sorted(out)


def one_object_category(label="*") -> SmallCategory:
    return SmallCategory([label], {}, {})


def discrete_category(labels) -> SmallCategory:
    return SmallCategory(list(labels), {}, {})


def chain_poset(labels) -> SmallCategory:
    """Total order on ``labels``: one arrow i->j for every earlier i, later j."""
    labels = list(labels)
    arrows = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            arrows[f"{labels[i]}->{labels[j]}"] = (labels[i], labels[j])
    compose = {}
    index = {lbl: i for i, lbl in enumerate(labels)}
    for g, (gs, gt) in arrows.items():
        for f, (fs, ft) in arrows.items():
            if ft == gs:
                compose[(g, f)] = f"{fs}->{gt}"
    # total order, so composites are never identities
    _ = index
    return SmallCategory(labels, arrows, compose)


def poset_category(objects, relations) -> SmallCategory:
    """Poset from a set of (smaller, larger) pairs, closed transitively.

    One arrow per strictly related pair; composition is forced.
    """
    objects = list(objects)
    reach = {(a, b) for a, b in relations if a != b}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach and a != d:
                    reach.add((a, d))
                    changed = True
    arrows = {f"{a}->{b}": (a, b) for (a, b) in sorted(reach, key=str)}
    compose = {}
    for g, (gs, gt) in arrows.items():
        for f, (fs, ft) in arrows.items():
            if ft == gs:
                compose[(g, f)] = f"{fs}->{gt}"
    return SmallCategory(objects, arrows, compose)


def nonidentity_paths(cat: SmallCategory, p_max: int) -> List[Tuple[object, Tuple[str, ...]]]:
    """Composable strings of non-identity arrows of length at most p_max.

    Each entry is ``(final_object, names)`` with names listed first-applied
    first, so the final object is the target of the last name.  One empty
    string per object.  Order: by length, then by object list position and
    arrow name, which makes cell bases deterministic.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    out: List[Tuple[object, Tuple[str, ...]]] = [(x, ()) for x in cat.objects]
    layer = list(out)
    for _ in range(p_max):
        nxt = []
        for (o, names) in layer:
            for t in cat.arrows_from(o):
                nxt.append((cat.tgt(t), names + (t,)))
        layer = nxt
        out.extend(nxt)
    return out


def _label_index(space: BiGradedSpace) -> Dict:
    idx = {}
    for (d, w), labs in space.cells.items():
        for i, lab in enumerate(labs):
            idx[lab] = (d, w, i)
    return idx


def _coerce_key(x, space: BiGradedSpace, idx: Dict) -> Key:
    """Accept a basis label or a raw key; labels win on collision."""
    if x in idx:
        return idx[x]
    if (isinstance(x, tuple) and len(x) == 3 and isinstance(x[2], int)
            and (x[0], x[1]) in space.cells and 0 <= x[2] < space.dim(x[0], x[1])):
        return x
    raise KeyError(f"unknown basis label {x!r}")


def _columns_to_map(cols, src_space: BiGradedSpace, tgt_space: BiGradedSpace) -> GradedMap:
    """Column data as a degree-zero map; keys on either side may be labels."""
    if isinstance(cols, GradedMap):
        return cols
    f = src_space.field
    src_idx = _label_index(src_space)
    tgt_idx = _label_index(tgt_space)
    g = GradedMap(src_space, tgt_space, 0, 0)
    for k, e in cols.items():
        img = {_coerce_key(t, tgt_space, tgt_idx): f.of(c) for t, c in e.items()}
        img = {kk: c for kk, c in img.items() if not f.is_zero(c)}
        if img:
            g.set_column(_coerce_key(k, src_space, src_idx), img)
    return g


def _all_keys(space: BiGradedSpace) -> List[Key]:
    out = []
    for (d, w) in space.sorted_cells():
        out.extend(space.keys(d, w))
    return out


def _identity_on(space: BiGradedSpace, field: Field) -> GradedMap:
    g = GradedMap(space, space, 0, 0)
    for k in _all_keys(space):
        g.set_entry(k, k, field.one)
    return g


def _lim_key(space: BiGradedSpace, lab: Label) -> Key:
    _, names, vkey = lab
    return space.key_of(len(names) + vkey[0], vkey[1], lab)


def _colim_key(space: BiGradedSpace, lab: Label) -> Key:
    _, names, mkey = lab
    return space.key_of(mkey[0] - len(names), mkey[1], lab)


class AlgebraDiagram:
    """Functor from a SmallCategory to dg algebras.

    ``maps[arrow]`` sends the algebra at the arrow's source to the algebra at
    its target; given either as a GradedMap or as a column dict
    ``{basis key: image element}``.
    """

    def __init__(self, cat: SmallCategory, algebras: Dict[object, DgAlgebra],
                 maps: Dict[str, object], name: str = ""):
        self.cat = cat
        self.algebras = dict(algebras)
        self.name = name
        for x in cat.objects:
            if x not in self.algebras:
                raise ValueError(f"no algebra at object {x!r}")
        self.maps: Dict[str, GradedMap] = {}
        for nm in cat.arrows:
            if nm not in maps:
                raise ValueError(f"no algebra map for arrow {nm!r}")
            src = self.algebras[cat.src(nm)]
            tgt = self.algebras[cat.tgt(nm)]
            self.maps[nm] = _columns_to_map(maps[nm], src.space, tgt.space)

    @property
    def field(self) -> Field:
        return self.algebras[self.cat.objects[0]].field

    def apply(self, arrow: str, e: Elt) -> Elt:
        return self.maps[arrow].apply(e)

    def transport(self, names: Tuple[str, ...], e: Elt) -> Elt:
        """Apply the maps of a composable string, first name first."""
        for t in names:
            e = self.maps[t].apply(e)
        return e

    def morphism(self, arrow: str) -> AlgebraMorphism:
        return AlgebraMorphism(self.algebras[self.cat.src(arrow)],
                               self.algebras[self.cat.tgt(arrow)],
                               self.maps[arrow])

    def validate(self, seed: int = 0) -> ValidationReport:
        """Unital chain algebra maps on every arrow, functorial on composites."""
        violations = []
        for nm in sorted(self.cat.arrows):
            rep = self.morphism(nm).validate(seed=seed)
            if not rep.ok:
                violations.append((f"map:{nm}", rep.violations[0]))
        for (g, f) in sorted(self.cat.compose):
            h = self.cat.compose[(g, f)]
            got = self.maps[g].compose(self.maps[f])
            if h is None:
                src_alg = self.algebras[self.cat.src(f)]
                want = _identity_on(src_alg.space, src_alg.field)
            else:
                want = self.maps[h]
            if not got.same_blocks(want):
                violations.append(("functoriality", (g, f, h)))
        return ValidationReport(not violations, violations, "exhaustive")


class HolimAlgebra(DgAlgebra):
    """Dg algebra of compatible strings built from a diagram.

    Carries the diagram, the string cutoff, the sign convention, and a label
    index; per-weight certificates on ``space.known_cols`` say through which
    degree the cutoff provably does not disturb cohomology.
    """

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 diagram: AlgebraDiagram, p_max: int, signs: SignConvention,
                 paths, name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.diagram = diagram
        self.p_max = p_max
        self.signs = signs
        self.paths = paths

    def key_for(self, obj, names: Tuple[str, ...], vkey: Key) -> Key:
        return _lim_key(self.space, (obj, names, vkey))

    def restriction(self, obj) -> AlgebraMorphism:
        """Projection onto the empty-string component at one object.

        A strict algebra map: products of empty strings stay empty.
        """
        target = self.diagram.algebras[obj]
        g = GradedMap(self.space, target.space, 0, 0)
        for key in _all_keys(self.space):
            o, names, vkey = self.space.label_of(key)
            if o == obj and not names:
                g.set_entry(key, vkey, self.field.one)
        return AlgebraMorphism(self, target, g)


def holim(diagram: AlgebraDiagram, dmax: Optional[int] = None,
          p_max: Optional[int] = None, signs: Optional[SignConvention] = None,
          name: str = "") -> HolimAlgebra:
    """Homotopy limit of a dg algebra diagram, stored up to string length p_max.

    Exactly one of dmax / p_max decides the cutoff: given dmax, the cutoff is
    forced to ``dmax - (minimal internal degree) + 1``, which certifies the
    cohomology through degree dmax in every weight column.  Strings past the
    cutoff span a two-sided dg ideal, so the result is a genuine dg algebra
    regardless.
    """
    cat = diagram.cat
    sc = signs if signs is not None else DEFAULT_SIGNS
    f = diagram.field
    algebras = diagram.algebras

    degs = [k[0] for x in cat.objects for k in algebras[x].basis_keys()]
    if not degs:
        raise ValueError("holim of a diagram with no cells")
    b_min = min(degs)
    if p_max is None:
        if dmax is None:
            raise ValueError("holim needs dmax or p_max")
        p_max = max(0, dmax - b_min + 1)
    paths = nonidentity_paths(cat, p_max)
    cut = len(nonidentity_paths(cat, p_max + 1)) > len(paths)

    triples: List[Tuple[int, int, Label]] = []
    for (o, names) in paths:
        for vkey in algebras[o].basis_keys():
            triples.append((len(names) + vkey[0], vkey[1], (o, names, vkey)))
    space = BiGradedSpace(f)
    by_cell: Dict[Tuple[int, int], List[Label]] = {}
    for d, w, lab in triples:
        by_cell.setdefault((d, w), []).append(lab)
    for (d, w) in sorted(by_cell):
        space.add_cell(d, w, by_cell[(d, w)])

    def key(lab: Label) -> Key:
        return _lim_key(space, lab)

    # differential, column by column
    diff = GradedMap(space, space, 1, 0)
    for k in _all_keys(space):
        o, names, vkey = space.label_of(k)
        q = len(names)
        total = q + vkey[0]
        col: Dict[Key, object] = {}

        def put(lab: Label, coeff) -> None:
            kk = key(lab)
            col[kk] = f.add(col.get(kk, f.zero), coeff)

        for tv, c in algebras[o].d({vkey: f.one}).items():
            put((o, names, tv), c)
        if q + 1 <= p_max:
            sgn = f.of(-1 if (total + 1 + sc.limit_drop_last) % 2 else 1)
            for t in cat.arrows_from(o):
                img = diagram.apply(t, {vkey: f.one})
                for tv, c in img.items():
                    put((cat.tgt(t), names + (t,), tv), f.mul(sgn, c))
            lsrc = cat.src(names[0]) if names else o
            sgn = f.of(-1 if (total + q + sc.limit_drop_first) % 2 else 1)
            for t in cat.arrows_into(lsrc):
                put((o, (t,) + names, vkey), sgn)
            for idx in range(q):
                sgn = f.of(-1 if (total + 1 + q - idx + sc.limit_compose) % 2 else 1)
                for (t1, t2) in cat.factorizations(names[idx]):
                    put((o, names[:idx] + (t1, t2) + names[idx + 1:], vkey), sgn)
        col = {kk: c for kk, c in col.items() if not f.is_zero(c)}
        if col:
            diff.set_column(k, col)

    cx = CochainComplex(space, diff)

    # knowledge: the cut ideal in weight column w lives in degrees
    # >= p_max + 1 + (minimal internal degree at w), so cohomology is
    # certified through p_max + b_w - 1 there
    all_known = all(algebras[x].space.fully_known() for x in cat.objects)
    if all_known:
        if not cut:
            space.mark_all_complete()
        else:
            space.zero_outside = True
            weights = set()
            for x in cat.objects:
                weights.update(w for (_, w) in algebras[x].space.cells)
            for w in sorted(weights):
                col_degs = [kk[0] for x in cat.objects
                            for kk in algebras[x].basis_keys()
                            if kk[1] == w]
                if not col_degs:
                    space.set_known(w)
                else:
                    space.set_known(w, None, p_max + min(col_degs) - 1)

    # product: concatenate strings, transporting the right factor across the
    # left factor's string; drop anything past the cutoff (the ideal again).
    # Nonzero only when the right factor's final object is the left factor's
    # source object.
    def product(k1: Key, k2: Key) -> Elt:
        o1, n1, v1 = space.label_of(k1)
        o2, n2, v2 = space.label_of(k2)
        if o2 != (cat.src(n1[0]) if n1 else o1):
            return {}
        names = n2 + n1
        if len(names) > p_max:
            return {}
        q1 = len(n1)
        total2 = len(n2) + v2[0]
        exp = q1 * total2 + (sc.limit_product if q1 == 1 else 0)
        sgn = f.of(-1 if exp % 2 else 1)
        moved = diagram.transport(n1, {v2: f.one})
        prod = algebras[o1].multiply({v1: f.one}, moved)
        out: Elt = {}
        for tv, c in prod.items():
            kk = key((o1, names, tv))
            out[kk] = f.add(out.get(kk, f.zero), f.mul(sgn, c))
        return {kk: c for kk, c in out.items() if not f.is_zero(c)}

    unit: Elt = {}
    for x in cat.objects:
        for vkey, c in algebras[x].unit.items():
            unit[key((x, (), vkey))] = c

    label = name or (f"holim({diagram.name})" if diagram.name else "holim")
    return HolimAlgebra(cx, unit, product, diagram, p_max, sc, paths, name=label)


def holim_map_from_compatible_system(hl: HolimAlgebra, base: DgAlgebra,
                                     fmaps: Dict[object, object]) -> AlgebraMorphism:
    """Strict algebra map into the limit from a compatible cone of maps.

    ``fmaps[x]`` sends the base algebra to the diagram algebra at x (GradedMap
    or column dict); compatibility with every arrow is checked first and a
    violating arrow raises.  The image sits in the empty-string components.
    """
    diagram = hl.diagram
    cat = diagram.cat
    f = hl.field
    gmaps = {x: _columns_to_map(fmaps[x], base.space, diagram.algebras[x].space)
             for x in cat.objects}
    for nm in sorted(cat.arrows):
        got = diagram.maps[nm].compose(gmaps[cat.src(nm)])
        if not got.same_blocks(gmaps[cat.tgt(nm)]):
            raise ValueError(f"cone maps incompatible across arrow {nm!r}")
    g = GradedMap(base.space, hl.space, 0, 0)
    for k in base.basis_keys():
        img: Elt = {}
        for x in cat.objects:
            for vkey, c in gmaps[x].apply({k: f.one}).items():
                img[hl.key_for(x, (), vkey)] = c
        if img:
            g.set_column(k, img)
    return AlgebraMorphism(base, hl, g)


class ModuleDiagram:
    """Contravariant functor from a SmallCategory to right dg modules.

    All modules share one base algebra; ``maps[arrow]`` sends the module at
    the arrow's target to the module at its source (restriction direction).
    """

    def __init__(self, cat: SmallCategory, modules: Dict[object, DgModule],
                 maps: Dict[str, object], name: str = ""):
        self.cat = cat
        self.modules = dict(modules)
        self.name = name
        algs = {id(m.algebra) for m in self.modules.values()}
        if len(algs) > 1:
            raise ValueError("modules in a diagram must share their base algebra")
        self.algebra = self.modules[cat.objects[0]].algebra
        self.maps: Dict[str, GradedMap] = {}
        for nm in cat.arrows:
            if nm not in maps:
                raise ValueError(f"no module map for arrow {nm!r}")
            src_mod = self.modules[cat.tgt(nm)]
            tgt_mod = self.modules[cat.src(nm)]
            self.maps[nm] = _columns_to_map(maps[nm], src_mod.space, tgt_mod.space)

    @property
    def field(self) -> Field:
        return self.algebra.field

    def apply(self, arrow: str, e: Elt) -> Elt:
        return self.maps[arrow].apply(e)

    def transport(self, names: Tuple[str, ...], e: Elt) -> Elt:
        """Restrict along a composable string: the last-applied arrow acts first."""
        for t in reversed(names):
            e = self.maps[t].apply(e)
        return e

    def validate(self) -> ValidationReport:
        from .graded import is_chain_map
        violations = []
        f = self.field
        for nm in sorted(self.cat.arrows):
            src_mod = self.modules[self.cat.tgt(nm)]
            tgt_mod = self.modules[self.cat.src(nm)]
            bad = is_chain_map(self.maps[nm], src_mod.complex.d, tgt_mod.complex.d)
            if bad is not None:
                violations.append((f"chain:{nm}", bad))
            for mk in src_mod.basis_keys():
                for ak in self.algebra.basis_keys():
                    lhs = self.maps[nm].apply(src_mod.act({mk: f.one}, {ak: f.one}))
                    rhs = tgt_mod.act(self.maps[nm].apply({mk: f.one}), {ak: f.one})
                    diff = dict(lhs)
                    elt_axpy(f, diff, f.of(-1), rhs)
                    if diff:
                        violations.append((f"linearity:{nm}", (mk, ak)))
                        break
                else:
                    continue
                break
        for (g, fa) in sorted(self.cat.compose):
            h = self.cat.compose[(g, fa)]
            got = self.maps[fa].compose(self.maps[g])
            if h is None:
                mod = self.modules[self.cat.tgt(g)]
                want = _identity_on(mod.space, f)
            else:
                want = self.maps[h]
            if not got.same_blocks(want):
                violations.append(("functoriality", (g, fa, h)))
        return ValidationReport(not violations, violations, "exhaustive")


class HocolimModule(DgModule):
    """Right dg module of strings built from a module diagram."""

    def __init__(self, algebra: DgAlgebra, complex: CochainComplex, action,
                 diagram: ModuleDiagram, p_max: int, signs: SignConvention,
                 paths, name: str = ""):
        super().__init__(algebra, complex, action, side="right", name=name)
        self.diagram = diagram
        self.p_max = p_max
        self.signs = signs
        self.paths = paths

    def key_for(self, obj, names: Tuple[str, ...], mkey: Key) -> Key:
        return _colim_key(self.space, (obj, names, mkey))


def hocolim(md: ModuleDiagram, dmin: Optional[int] = None,
            p_max: Optional[int] = None, signs: Optional[SignConvention] = None,
            name: str = "") -> HocolimModule:
    """Homotopy colimit of a module diagram, stored up to string length p_max.

    Strings up to the cutoff span a subcomplex (faces shorten strings), so the
    stored object is genuine; its cohomology agrees with the full colimit in
    degrees >= (top internal degree) - p_max + 1 per weight column, which is
    what the certificates record.  Given dmin instead of p_max, the cutoff is
    forced to certify all degrees >= dmin.
    """
    cat = md.cat
    sc = signs if signs is not None else DEFAULT_SIGNS
    f = md.field

    degs = [k[0] for x in cat.objects for k in md.modules[x].basis_keys()]
    top = max(degs) if degs else 0
    if p_max is None:
        if dmin is None:
            raise ValueError("hocolim needs dmin or p_max")
        p_max = max(0, top - dmin + 1)
    paths = nonidentity_paths(cat, p_max)
    cut = len(nonidentity_paths(cat, p_max + 1)) > len(paths)

    triples: List[Tuple[int, int, Label]] = []
    for (o, names) in paths:
        for mkey in md.modules[o].basis_keys():
            triples.append((mkey[0] - len(names), mkey[1], (o, names, mkey)))
    space = BiGradedSpace(f)
    by_cell: Dict[Tuple[int, int], List[Label]] = {}
    for d, w, lab in triples:
        by_cell.setdefault((d, w), []).append(lab)
    for (d, w) in sorted(by_cell):
        space.add_cell(d, w, by_cell[(d, w)])

    diff = GradedMap(space, space, 1, 0)
    for k in _all_keys(space):
        o, names, mkey = space.label_of(k)
        q = len(names)
        mbar = mkey[0]
        col: Dict[Key, object] = {}

        def put(lab: Label, coeff) -> None:
            kk = _colim_key(space, lab)
            col[kk] = f.add(col.get(kk, f.zero), coeff)

        for tm, c in md.modules[o].d({mkey: f.one}).items():
            put((o, names, tm), c)
        if q >= 1:
            t_last = names[-1]
            sgn = f.of(-1 if (mbar + sc.colim_drop_last) % 2 else 1)
            for tm, c in md.apply(t_last, {mkey: f.one}).items():
                put((cat.src(t_last), names[:-1], tm), f.mul(sgn, c))
            sgn = f.of(-1 if (mbar + q + sc.colim_drop_first) % 2 else 1)
            put((o, names[1:], mkey), sgn)
            for idx in range(q - 1):
                c_name = cat.comp(names[idx + 1], names[idx])
                if c_name is None:
                    continue
                sgn = f.of(-1 if (mbar + q - idx - 1 + sc.colim_compose) % 2 else 1)
                put((o, names[:idx] + (c_name,) + names[idx + 2:], mkey), sgn)
        col = {kk: c for kk, c in col.items() if not f.is_zero(c)}
        if col:
            diff.set_column(k, col)

    cx = CochainComplex(space, diff)

    all_known = all(md.modules[x].space.fully_known() for x in cat.objects)
    if all_known:
        if not cut:
            space.mark_all_complete()
        else:
            space.zero_outside = True
            weights = set()
            for x in cat.objects:
                weights.update(w for (_, w) in md.modules[x].space.cells)
            for w in sorted(weights):
                col_degs = [kk[0] for x in cat.objects
                            for kk in md.modules[x].basis_keys() if kk[1] == w]
                if not col_degs:
                    space.set_known(w)
                else:
                    space.set_known(w, max(col_degs) - p_max + 1, None)
    else:
        # partial knowledge: a column is usable when every component column is
        # complete, because the cut only removes cells below top_w - p_max
        for w in sorted({ww for x in cat.objects
                         for (_, ww) in md.modules[x].space.cells}):
            if all(md.modules[x].space.column_complete(w) for x in cat.objects):
                col_degs = [kk[0] for x in cat.objects
                            for kk in md.modules[x].basis_keys() if kk[1] == w]
                if not cut:
                    space.set_known(w)
                elif col_degs:
                    space.set_known(w, max(col_degs) - p_max + 1, None)
                else:
                    space.set_known(w)

    # right action of the shared base algebra, with the string-length sign
    action: Dict[Tuple[Key, Key], Elt] = {}
    for k in _all_keys(space):
        o, names, mkey = space.label_of(k)
        q = len(names)
        for ak in md.algebra.basis_keys():
            img = md.modules[o].act({mkey: f.one}, {ak: f.one})
            if not img:
                continue
            sgn = f.of(-1 if (q * ak[0]) % 2 else 1)
            out = {_colim_key(space, (o, names, tm)): f.mul(sgn, c)
                   for tm, c in img.items()}
            out = {kk: c for kk, c in out.items() if not f.is_zero(c)}
            if out:
                action[(k, ak)] = out

    label = name or (f"hocolim({md.name})" if md.name else "hocolim")
    return HocolimModule(md.algebra, cx, action, md, p_max, sc, paths, name=label)


def hocolim_map_from_cocone(hc: HocolimModule, target_space: BiGradedSpace,
                            target_d: GradedMap,
                            gmaps: Dict[object, object]) -> GradedMap:
    """Chain map out of the colimit induced by a compatible cocone.

    ``gmaps[x]`` sends the module at x to the target complex; compatibility
    (map at the arrow's source, after restriction, equals the map at its
    target) is checked and a violating arrow raises.  Strings of positive
    length map to zero.
    """
    md = hc.diagram
    cat = md.cat
    f = md.field
    cones = {x: _columns_to_map(gmaps[x], md.modules[x].space, target_space)
             for x in cat.objects}
    for nm in sorted(cat.arrows):
        got = cones[cat.src(nm)].compose(md.maps[nm])
        if not got.same_blocks(cones[cat.tgt(nm)]):
            raise ValueError(f"cocone maps incompatible across arrow {nm!r}")
    g = GradedMap(hc.space, target_space, 0, 0)
    for k in _all_keys(hc.space):
        o, names, mkey = hc.space.label_of(k)
        if names:
            continue
        img = cones[o].apply({mkey: f.one})
        if img:
            g.set_column(k, img)
    _ = target_d
    return g


class ActionMap:
    """Left action of the limit algebra on the colimit module, one operator
    per algebra basis cell.

    The action is contravariant multiplicative: composing operators reverses
    the product up to the usual degree sign, matching the convention used by
    algebra opposites elsewhere in this package.
    """

    def __init__(self, algebra: HolimAlgebra, module: HocolimModule,
                 per_cell: Dict[Key, GradedMap]):
        self.algebra = algebra
        self.module = module
        self.per_cell = per_cell

    def operator(self, e: Elt, deg: int, wt: int) -> GradedMap:
        """Operator of a homogeneous algebra element of the stated bidegree."""
        f = self.algebra.field
        acc = GradedMap(self.module.space, self.module.space, deg, wt)
        for k, c in e.items():
            if (k[0], k[1]) != (deg, wt):
                raise ValueError("operator needs a homogeneous element")
            acc = acc.add(self.per_cell[k].scale(c))
        return acc

    def apply(self, e: Elt, m: Elt) -> Elt:
        f = self.algebra.field
        out: Elt = {}
        for k, c in e.items():
            img = self.per_cell[k].apply(m)
            elt_axpy(f, out, c, img)
        return out

    def validate(self, pair_budget: int = 200_000, seed: int = 0) -> ValidationReport:
        """Unit acts as identity; operators form a chain map and reverse
        products with the degree sign; action commutes with the base algebra."""
        import random as _random
        f = self.algebra.field
        A = self.algebra
        M = self.module
        violations = []

        ident = _identity_on(M.space, f)
        unit_op = GradedMap(M.space, M.space, 0, 0)
        for k, c in A.unit.items():
            unit_op = unit_op.add(self.per_cell[k].scale(c))
        if not unit_op.same_blocks(ident):
            violations.append(("unit", None))

        for ka in A.basis_keys():
            da = A.d({ka: f.one})
            lhs = GradedMap(M.space, M.space, ka[0] + 1, ka[1])
            for k, c in da.items():
                lhs = lhs.add(self.per_cell[k].scale(c))
            rho = self.per_cell[ka]
            rhs = M.complex.d.compose(rho)
            back = rho.compose(M.complex.d)
            if ka[0] % 2 == 0:
                rhs = rhs.sub(back)
            else:
                rhs = rhs.add(back)
            if not lhs.same_blocks(rhs):
                violations.append(("chain", ka))

        keys = A.basis_keys()
        pairs = [(x, y) for x in keys for y in keys]
        mode = "exhaustive"
        if len(pairs) > pair_budget:
            rng = _random.Random(seed)
            pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(pair_budget)]
            mode = "sampled"
        for (ka, kb) in pairs:
            prod = A.basis_product(ka, kb)
            lhs = GradedMap(M.space, M.space, ka[0] + kb[0], ka[1] + kb[1])
            for k, c in prod.items():
                lhs = lhs.add(self.per_cell[k].scale(c))
            rhs = self.per_cell[kb].compose(self.per_cell[ka])
            if (ka[0] * kb[0]) % 2:
                rhs = rhs.scale(f.of(-1))
            if not lhs.same_blocks(rhs):
                violations.append(("multiplicative", (ka, kb)))

        base = M.algebra
        for ka in keys:
            for mk in M.basis_keys():
                for ck in base.basis_keys():
                    lhs = self.apply({ka: f.one}, M.act({mk: f.one}, {ck: f.one}))
                    rhs = M.act(self.apply({ka: f.one}, {mk: f.one}), {ck: f.one})
                    if (ka[0] * ck[0]) % 2:
                        rhs = {kk: f.mul(f.of(-1), c) for kk, c in rhs.items()}
                    d = dict(lhs)
                    elt_axpy(f, d, f.of(-1), rhs)
                    if d:
                        violations.append(("base_linearity", (ka, mk, ck)))
                        break
                else:
                    continue
                break

        return ValidationReport(not violations, violations, mode)


def check_action_compatibility(ad: AlgebraDiagram, md: ModuleDiagram,
                               phis: Dict[object, Dict[Tuple[Key, Key], Elt]]):
    """First witness (arrow, algebra key, module key) where the pointwise
    actions fail to commute with restriction, or None if compatible.

    Compatibility: acting at the arrow's source after restricting equals
    restricting after acting by the mapped algebra element at the target.
    """
    cat = ad.cat
    f = ad.field

    def act(obj, m: Elt, ak: Key) -> Elt:
        table = phis[obj]
        out: Elt = {}
        for mk, c in m.items():
            img = table.get((mk, ak))
            if img:
                elt_axpy(f, out, c, img)
        return out

    for nm in sorted(cat.arrows):
        x, y = cat.src(nm), cat.tgt(nm)
        for ak in ad.algebras[x].basis_keys():
            mapped = ad.apply(nm, {ak: f.one})
            for mk in md.modules[y].basis_keys():
                restricted = md.apply(nm, {mk: f.one})
                lhs = act(x, restricted, ak)
                rhs_inner: Elt = {}
                for bk, c in mapped.items():
                    elt_axpy(f, rhs_inner, c, act(y, {mk: f.one}, bk))
                rhs = md.apply(nm, rhs_inner)
                d = dict(lhs)
                elt_axpy(f, d, f.of(-1), rhs)
                if d:
                    return (nm, ak, mk)
    return None


def action_map(hl: HolimAlgebra, hc: HocolimModule,
               phis: Dict[object, Dict[Tuple[Key, Key], Elt]],
               signs: Optional[SignConvention] = None) -> ActionMap:
    """Action of the limit algebra on the colimit from pointwise actions.

    ``phis[x]`` is a right-action table ``{(module key, algebra key): image}``
    of the diagram algebra at x on the module at x.  The tables must commute
    with restriction along every arrow (checked, raises with a witness).

    An algebra string acts on a module string that ends with it: the leftover
    prefix survives, the algebra value acts pointwise and the result is
    transported down the algebra string.
    """
    ad = hl.diagram
    md = hc.diagram
    if ad.cat is not md.cat:
        raise ValueError("action needs diagrams over the same index category")
    sc = signs if signs is not None else hl.signs
    f = hl.field
    cat = ad.cat

    witness = check_action_compatibility(ad, md, phis)
    if witness is not None:
        raise ValueError(f"incompatible action system at {witness}")

    per_cell: Dict[Key, GradedMap] = {}
    for ka in hl.basis_keys():
        oa, na, va = hl.space.label_of(ka)
        pa = len(na)
        total_a = pa + va[0]
        g = GradedMap(hc.space, hc.space, total_a, va[1])
        for km in hc.basis_keys():
            om, nm_path, mk = hc.space.label_of(km)
            i = len(nm_path) - pa
            if i < 0 or nm_path[i:] != na or (pa == 0 and om != oa):
                continue
            table = phis[oa]
            hit = table.get((mk, va))
            if not hit:
                continue
            moved = md.transport(na, hit)
            if not moved:
                continue
            # Koszul sign: the algebra cell (total degree) passes the module
            # element (internal degree).  Unique exponent accepted by the
            # unit/chain/multiplicativity validators under this cell basis.
            exp = mk[0] * total_a + (sc.action_twist if i == 1 else 0)
            sgn = f.of(-1 if exp % 2 else 1)
            rest = nm_path[:i]
            tgt_obj = cat.src(na[0]) if pa else oa
            for tm, c in moved.items():
                tgt = _colim_key(hc.space, (tgt_obj, rest, tm))
                cur = g.entry(km, tgt)
                g.set_entry(km, tgt, f.add(cur, f.mul(sgn, c)))
        per_cell[ka] = g

    return ActionMap(hl, hc, per_cell)
