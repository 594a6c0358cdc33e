"""Homotopy limits of dg algebra diagrams over a finite index category.

A cell is an algebra basis element sitting at a composable string of
non-identity arrows; its total degree is the internal degree plus the string
length.  The differential has one term per face of the string (extend at the
target end, compose two adjacent arrows, drop at the source end) plus the
internal differential; the product concatenates strings, transporting the
right factor across the left factor's string.  The product is a rule, not a
table: each pair of cells is multiplied the first time something reads it,
so a limit read only through its cohomology multiplies nothing.

The differential is built by string index.  The category's arrows by
endpoint and its factorizations are tables filled when it is checked.  The
strings up to a cutoff depend on the category and the cutoff alone, and
their faces on the signs as well, so the category keeps one string scheme
per (cutoff, sign fields): the strings enumerated once and numbered,
whether strings past the cutoff exist, and each string's faces, listed once
as the indices of the strings they reach.  Each diagram map and each
internal differential is read column by column at the diagram's first holim
and kept on the diagram.  The complex is assembled per call: cells, labels
and places for every string, entries only for the strings with a face or
an internal d (a free category's strings at the cutoff, about half of a
tower's, have neither); every term is added into its block entry as a
residue, dropping a zero sum, and each block is installed once.

Strings longer than a cutoff span a two-sided dg ideal of the limit (every
face and every product term only lengthens strings), so the stored object is
an honest quotient dg algebra, and its cohomology agrees with the full limit
in a degree range recorded in the per-column certificates.

Over a category free on a set of generating arrows (a chain poset is free
on its covering arrows) the strings are the empty ones and the single
generators, with no cut: the two-term complex prod_v A_v -> prod_e A_tgt(e),
a -> (f_e(a_src) - a_tgt)_e, which computes the limit and its lim^1 exactly
(Milnor's sequence; Bokstedt-Neeman's tower holim).  Composites and longer
strings of generators span a dg ideal of the full limit whose quotient is
this one, so the face and product rules are the same and every cell is
certified.

Every face and product sign is routed through a SignConvention.  The zero
convention is the published one; flipping any single field must make the
d^2 or the algebra validator fail, which is part of the certification suite.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .linalg import Field, _add
from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key, _columns, _install,
)
from .dg import AlgebraMorphism, DgAlgebra, ValidationReport, identity_morphism

Label = Tuple[object, Tuple[str, ...], Key]


_SIGN_FIELDS = (
    "limit_drop_last", "limit_compose", "limit_drop_first", "limit_product",
)


class SignConvention:
    """Extra exponents (mod 2), one per class of limit face or product term.

    All zeros is the published convention.  ``flip(name)`` returns the
    convention with one term class negated; these mutants are what the
    certification tests feed back through the validators, expecting failure.
    The three face fields break d^2.  The product twist applies only when the
    left factor's string has length one, so a flipped ``limit_product`` can
    never be absorbed by rescaling cells and breaks the algebra validator.
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
    ``generators``, when given, says the category is free on those arrows:
    every arrow is the composite of exactly one string of them.  The
    constructor checks totality of the table, endpoint consistency,
    associativity and that freeness, so downstream code can trust the data.

    The data never changes after the check, so the category keeps what the
    string builders read of it: its arrows by endpoint and each arrow's
    factorizations, filled once, and the string scheme of each (cutoff,
    sign fields) a holim asked for (``_string_scheme``).
    """

    def __init__(self, objects, arrows: Dict[str, Tuple[object, object]],
                 compose: Dict[Tuple[str, str], Optional[str]],
                 generators: Optional[List[str]] = None):
        self.objects = list(objects)
        self.arrows = {str(k): (v[0], v[1]) for k, v in arrows.items()}
        self.compose = dict(compose)
        self.generators = None if generators is None else sorted(map(str, generators))
        problems = self.check()
        if problems:
            raise ValueError(f"bad category: {problems[0]}")
        # the checked data never changes, so the lookups the string builders
        # make are tables, filled once: the arrows strings are made of (the
        # generators of a free category) by endpoint, in name order, and
        # each arrow's factorizations as sorted (first, second) pairs
        self._from: Dict[object, List[str]] = {x: [] for x in self.objects}
        self._into: Dict[object, List[str]] = {x: [] for x in self.objects}
        self._factors: Dict[str, List[Tuple[str, str]]] = {
            nm: [] for nm in self.arrows}
        for nm in self.generators or sorted(self.arrows):
            s, t = self.arrows[nm]
            self._from[s].append(nm)
            self._into[t].append(nm)
        for (g, f), h in self.compose.items():
            if h is not None:
                self._factors[h].append((f, g))
        for pairs in self._factors.values():
            pairs.sort()
        # the string scheme of each (cutoff, sign fields) holim asked for
        self._strings: Dict[Tuple[int, ...], Tuple] = {}

    def src(self, arrow: str):
        return self.arrows[arrow][0]

    def tgt(self, arrow: str):
        return self.arrows[arrow][1]

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
        if self.generators is not None and not out:
            # the composites of the strings of generators, by length: free
            # means they hit each arrow once and never an identity, so the
            # walk stops once it has made more composites than arrows
            gens = [g for g in self.generators if g in self.arrows]
            made, layer = [], gens
            while layer and len(made) <= len(self.arrows):
                made += layer
                layer = [self.compose[(g, h)] for h in layer if h is not None
                         for g in gens if self.arrows[g][0] == self.arrows[h][1]]
            if (len(gens) < len(self.generators)
                    or sorted(made, key=str) != sorted(self.arrows)):
                out.append("not free on its generators")
        return out

    def arrows_from(self, obj) -> List[str]:
        return sorted(nm for nm, (s, _) in self.arrows.items() if s == obj)

    def arrows_into(self, obj) -> List[str]:
        return sorted(nm for nm, (_, t) in self.arrows.items() if t == obj)


def chain_poset(labels) -> SmallCategory:
    """Total order on ``labels``: one arrow i->j for every earlier i, later j,
    free on the covering arrows i->i+1."""
    labels = list(labels)
    arrows = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            arrows[f"{labels[i]}->{labels[j]}"] = (labels[i], labels[j])
    # total order, so composites are never identities
    compose = {}
    for g, (gs, gt) in arrows.items():
        for f, (fs, ft) in arrows.items():
            if ft == gs:
                compose[(g, f)] = f"{fs}->{gt}"
    return SmallCategory(labels, arrows, compose,
                         [f"{a}->{b}" for a, b in zip(labels, labels[1:])])


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
    """Composable strings of non-identity arrows of length at most p_max;
    over a free category, the single generators and no longer string.

    Each entry is ``(final_object, names)`` with names listed first-applied
    first, so the final object is the target of the last name.  One empty
    string per object.  Order: by length, then by object list position and
    arrow name, which makes cell bases deterministic.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if cat.generators is not None:
        p_max = min(p_max, 1)
    out: List[Tuple[object, Tuple[str, ...]]] = [(x, ()) for x in cat.objects]
    layer = list(out)
    for _ in range(p_max):
        nxt = []
        for (o, names) in layer:
            for t in cat._from[o]:
                nxt.append((cat.tgt(t), names + (t,)))
        layer = nxt
        out.extend(nxt)
    return out


def _extends(cat: SmallCategory, paths, p_max: int) -> bool:
    """Whether some string of length p_max has an outgoing arrow, that is,
    whether strings past the cutoff exist; over a free category the two-term
    model is the whole limit, so none do."""
    return cat.generators is None and any(
        cat._from[o] for o, names in paths if len(names) == p_max)


def _string_scheme(cat: SmallCategory, p_max: int, sc: SignConvention
                   ) -> Tuple[List, bool, List[Tuple[List, List]]]:
    """The strings up to p_max (``nonidentity_paths``), whether strings past
    the cutoff exist (``_extends``), and each string's faces, which depend
    on the category, the cutoff and the signs alone: the scheme the category
    keeps per (p_max, sign fields), built on first use.

    The faces of a string below the cutoff are its extensions at the target
    end, whose value is mapped along the new arrow, as (string, arrow,
    exponent), and its extensions at the source end and the splits of one
    arrow into two, which keep the value, as (string, exponent); each
    exponent is that of the face's sign less the value's internal degree.
    A string at the cutoff has none."""
    key = (p_max,) + tuple(getattr(sc, fld) for fld in _SIGN_FIELDS)
    scheme = cat._strings.get(key)
    if scheme is not None:
        return scheme
    paths = nonidentity_paths(cat, p_max)
    index = {lab: s for s, lab in enumerate(paths)}
    faces: List[Tuple[List, List]] = []
    for o, names in paths:
        q = len(names)
        if q == p_max:
            faces.append(([], []))
            continue
        e = (q + 1 + sc.limit_drop_last) % 2
        mapped = [(index[(cat.tgt(t), names + (t,))], t, e)
                  for t in cat._from[o]]
        lsrc = cat.src(names[0]) if names else o
        kept = [(index[(o, (t,) + names)], sc.limit_drop_first)
                for t in cat._into[lsrc]]
        for idx, nm in enumerate(names):
            e = (1 + idx + sc.limit_compose) % 2
            kept.extend((index[(o, names[:idx] + pair + names[idx + 1:])], e)
                        for pair in cat._factors[nm])
        faces.append((mapped, kept))
    scheme = cat._strings[key] = (paths, _extends(cat, paths, p_max), faces)
    return scheme


def _check_key(x, space: BiGradedSpace) -> Key:
    """``x`` itself if it is a basis key of the space; else KeyError."""
    if (isinstance(x, tuple) and len(x) == 3 and isinstance(x[2], int)
            and (x[0], x[1]) in space.cells and 0 <= x[2] < space.dim(x[0], x[1])):
        return x
    raise KeyError(f"unknown basis key {x!r}")


def _columns_to_map(cols, src_space: BiGradedSpace, tgt_space: BiGradedSpace) -> GradedMap:
    """Column data ``{source key: {target key: scalar}}`` as a degree-zero map."""
    if isinstance(cols, GradedMap):
        return cols
    f = src_space.field
    g = GradedMap(src_space, tgt_space, 0, 0)
    for k, e in cols.items():
        img = {_check_key(t, tgt_space): f.of(c) for t, c in e.items()}
        img = {kk: c for kk, c in img.items() if not f.is_zero(c)}
        if img:
            g.set_column(_check_key(k, src_space), img)
    return g


def _lim_key(space: BiGradedSpace, lab: Label) -> Key:
    _, names, vkey = lab
    return space.key_of(len(names) + vkey[0], vkey[1], lab)


class AlgebraDiagram:
    """Functor from a SmallCategory to dg algebras.

    ``maps[arrow]`` sends the algebra at the arrow's source to the algebra at
    its target; given either as a GradedMap or as a column dict
    ``{basis key: image element}``, whose keys must be basis keys of the
    source and the target space (KeyError otherwise).

    The diagram is not changed after construction, so what every holim
    reads of it is a table, filled at the first holim and kept, as the
    category keeps its arrows by endpoint (``_tables``).
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
        self._read: Optional[Tuple[Dict, Dict, bool]] = None

    def _tables(self) -> Tuple[Dict, Dict, bool]:
        """The columns of each generating map and of each algebra's d, and
        whether every algebra is fully known."""
        if self._read is None:
            cat, algebras = self.cat, self.algebras
            self._read = (
                {t: _columns(self.maps[t]) for t in cat.generators or cat.arrows},
                {x: _columns(algebras[x].complex.d) for x in cat.objects},
                all(algebras[x].space.fully_known() for x in cat.objects))
        return self._read

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

    def validate(self, seed: int = 0) -> ValidationReport:
        """Unital chain algebra maps on every arrow, functorial on composites."""
        violations = []
        for nm in sorted(self.cat.arrows):
            rep = AlgebraMorphism(self.algebras[self.cat.src(nm)],
                                  self.algebras[self.cat.tgt(nm)],
                                  self.maps[nm]).validate(seed=seed)
            if not rep.ok:
                violations.append((f"map:{nm}", rep.violations[0]))
        for (g, f) in sorted(self.cat.compose):
            h = self.cat.compose[(g, f)]
            got = self.maps[g].compose(self.maps[f])
            if h is None:
                want = identity_morphism(self.algebras[self.cat.src(f)]).map
            else:
                want = self.maps[h]
            if not got.same_blocks(want):
                violations.append(("functoriality", (g, f, h)))
        return ValidationReport(not violations, violations, "exhaustive")


class HolimAlgebra(DgAlgebra):
    """Dg algebra of compatible strings built from a diagram.

    Carries the diagram and the string cutoff; per-weight certificates on
    ``space.known_cols`` say through which degree the cutoff provably does
    not disturb cohomology.
    """

    def __init__(self, complex: CochainComplex, unit: Elt, product,
                 diagram: AlgebraDiagram, p_max: int, name: str = ""):
        super().__init__(complex, unit, product, name=name)
        self.diagram = diagram
        self.p_max = p_max

    def restriction(self, obj) -> AlgebraMorphism:
        """Projection onto the empty-string component at one object.

        A strict algebra map: products of empty strings stay empty.
        """
        target = self.diagram.algebras[obj]
        g = GradedMap(self.space, target.space, 0, 0)
        for key in self.space.basis_keys():
            o, names, vkey = self.space.label_of(key)
            if o == obj and not names:
                g.set_entry(key, vkey, self.field.one)
        return AlgebraMorphism(self, target, g)


def holim(diagram: AlgebraDiagram, dmax: int,
          signs: Optional[SignConvention] = None,
          name: str = "") -> HolimAlgebra:
    """Homotopy limit of a dg algebra diagram, stored up to string length p_max.

    The cutoff p_max is ``dmax - (minimal internal degree) + 1``, which
    certifies the cohomology through degree dmax in every weight column.
    Strings past the cutoff span a two-sided dg ideal, so the result is a
    genuine dg algebra regardless.  Over a free category p_max is 1 and
    nothing is cut: the two-term model, certified in every degree.

    The strings and their faces are read off the scheme the category keeps
    per (p_max, signs); the complex, its knowledge, unit and product rule
    are built per call.
    """
    cat = diagram.cat
    sc = signs if signs is not None else DEFAULT_SIGNS
    f = diagram.field
    algebras = diagram.algebras
    akeys = {x: algebras[x].basis_keys() for x in cat.objects}

    degs = [k[0] for keys in akeys.values() for k in keys]
    if not degs:
        raise ValueError("holim of a diagram with no cells")
    p_max = 1 if cat.generators is not None else max(0, dmax - min(degs) + 1)
    paths, cut, faces = _string_scheme(cat, p_max, sc)

    # each cell's labels, and per value key each string's place, -1 for none
    cells: Dict[Tuple[int, int], List] = defaultdict(list)
    at: Dict[Key, List[int]] = {k: [-1] * len(paths)
                                for keys in akeys.values() for k in keys}
    for s, (o, names) in enumerate(paths):
        q = len(names)
        for vkey in akeys[o]:
            labs = cells[q + vkey[0], vkey[1]]
            at[vkey][s] = len(labs)
            labs.append((o, names, vkey))

    # each map's and each internal differential's columns, read once per
    # diagram; every term is added to its entry, as two splits can reach
    # one string.  Only strings with a face or an internal d have terms,
    # and a block is made when its first term is.
    maps, d_ints, known = diagram._tables()
    p = f.char
    entries: Dict[Tuple[int, int], Dict] = {}
    for s, (o, names) in enumerate(paths):
        d_int, (mapped, kept) = d_ints[o], faces[s]
        if not (d_int or mapped or kept):
            continue
        q = len(names)
        for vkey in akeys[o]:
            terms = d_int.get(vkey, ())
            if not (terms or mapped or kept):
                continue
            cell = (q + vkey[0], vkey[1])
            block, col = entries.get(cell), at[vkey]
            if block is None:
                block = entries[cell] = {}
            i = col[s]
            for tv, c in terms:
                _add(block, (at[tv][s], i), c, p)
            odd = vkey[0] % 2
            for u, t, e in mapped:
                for tv, c in maps[t].get(vkey, ()):
                    _add(block, (at[tv][u], i), -c if e != odd else c, p)
            for u, e in kept:
                _add(block, (col[u], i), -1 if e != odd else 1, p)
    cx = _install(f, cells, entries)
    space = cx.space

    # knowledge: the cut ideal in weight column w lives in degrees
    # >= p_max + 1 + b_w, b_w the minimal internal degree at w, so the cells
    # through p_max + b_w are complete and cohomology is certified through
    # p_max + b_w - 1 there, which is dmax or more
    if known:
        if not cut:
            space.mark_all_complete()
        else:
            space.zero_outside = True
            lowest: Dict[int, int] = {}
            for d, w, _ in sorted(k for keys in akeys.values() for k in keys):
                lowest.setdefault(w, d)
            for w in sorted(lowest):
                space.set_known(w, None, p_max + lowest[w])

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
            kk = _lim_key(space, (o1, names, tv))
            _add(out, kk, sgn * c, f.char)
        return out

    # the empty strings come first, one per object in order, so the unit's
    # component at object x sits at place at[vkey][x's index]
    unit: Elt = {}
    for s, x in enumerate(cat.objects):
        for vkey, c in algebras[x].unit.items():
            unit[(vkey[0], vkey[1], at[vkey][s])] = c

    label = name or (f"holim({diagram.name})" if diagram.name else "holim")
    return HolimAlgebra(cx, unit, product, diagram, p_max, name=label)


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
                img[_lim_key(hl.space, (x, (), vkey))] = c
        if img:
            g.set_column(k, img)
    return AlgebraMorphism(base, hl, g)
