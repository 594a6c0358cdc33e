"""DG algebras, DG modules, and category algebras with structural validators.

Multiplication is a product rule on basis-key pairs, (k1, k2) -> k1·k2.  A
pair is computed when it is first read and kept if nonzero, so an algebra read
only through its differential computes no product at all; ``mult`` fills the
whole table of sparse structure constants for the callers that enumerate it.
The opposite algebra is a signed view of the same rule, not a copy.

For category algebras the product is path concatenation: mult(f, g) = "f then
g", nonzero only when tgt(f) = src(g); right modules are then covariant
representations and the projective at object z is the right ideal e_z·A.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from .graded import (
    BiGradedSpace, CochainComplex, Elt, GradedMap, Key,
    elt_add, elt_axpy, elt_scale, is_chain_map,
)
from .linalg import Field

MultTable = Dict[Tuple[Key, Key], Elt]
ProductRule = Callable[[Key, Key], Elt]
# a summand e·A[n] of a module: the idempotent e and the inclusion
# {algebra key x with e·x = x: module key of x}
Summand = Tuple[Elt, Dict[Key, Key]]
_UNSET = object()  # a store not yet filled, where None is an answer


class SemiFree:
    """A semi-free module P = ⊕_i g_i·A as the flat lists that the one Hom
    builder and the one tensor builder of ``bar`` read.  Generator g_i has
    the label ``labels[i]`` (a tuple), the bidegree (``degs[i]``,
    ``wts[i]``) and the object ``objs[i]`` it ends at (0 over one object).
    Term x of d, in order of ``src``, puts g_j·(c·a) into d(g_i) for
    i, j, c = src[x], dst[x], coef[x] and a = keys[kid[x]].  ``rows()``
    gives the terms of d with a scalar coefficient, per generator
    {index: coefficient}, or None when there are none."""

    __slots__ = ("labels", "degs", "wts", "objs", "src", "dst", "kid", "coef", "keys")

    def __init__(self, labels: List[tuple], degs: List[int], wts: List[int], objs: List[int],
                 src: List[int], dst: List[int], kid: List[int], coef: List, keys: List[Key]):
        self.labels, self.degs, self.wts, self.objs = labels, degs, wts, objs
        self.src, self.dst, self.kid, self.coef = src, dst, kid, coef
        self.keys = keys

    def rows(self) -> Optional[List[Dict[int, object]]]:
        return None

    def cut(self, keep: Sequence[int]) -> "SemiFree":
        """The generators keep, ascending and closed under d, numbered in
        order, with their terms, as fresh lists (not ``rows()``).  A prefix
        is sliced: renumbering it too makes small Ext calls 1.5x as slow."""
        n = len(keep)
        if keep[-1] == n - 1:
            t = bisect_left(self.src, n)
            return SemiFree(self.labels[:n], self.degs[:n], self.wts[:n], self.objs[:n], self.src[:t],
                            self.dst[:t], self.kid[:t], self.coef[:t], self.keys[:])
        new = dict(zip(keep, range(n)))
        xs = [x for x, i in enumerate(self.src) if i in new]
        return SemiFree(*([c[i] for i in keep] for c in (self.labels, self.degs, self.wts, self.objs)),
                        [new[self.src[x]] for x in xs], [new[self.dst[x]] for x in xs],
                        [self.kid[x] for x in xs], [self.coef[x] for x in xs], self.keys[:])


def table_rule(table: MultTable) -> ProductRule:
    """The product rule of a stored table; omitted pairs are zero."""
    return lambda k1, k2: table.get((k1, k2), {})


class ValidationReport:
    def __init__(self, ok: bool, violations: List[Tuple[str, object]], mode: str):
        self.ok = ok
        self.violations = violations
        self.mode = mode

    def __repr__(self):
        state = "ok" if self.ok else f"FAILED {self.violations[:3]}"
        return f"ValidationReport({state}, mode={self.mode})"


class DgAlgebra:
    """DG algebra on an explicit basis with a memoised product rule."""

    def __init__(self, complex: CochainComplex, unit: Elt, product: ProductRule,
                 name: str = "", idempotents: Optional[Dict[str, Elt]] = None):
        self.complex = complex
        self.unit = unit
        self.name = name
        # optional orthogonal idempotent decomposition of the unit, keyed by
        # object name; used by module constructions
        self.idempotents = idempotents or {}
        self._rule = product
        # the nonzero products read so far; once every pair has been read a
        # missing pair is zero
        self._memo: MultTable = {}
        self._filled = False
        self._opposite_of: Optional[DgAlgebra] = None  # opposite
        self._reduction = _UNSET  # bar.reduction_data
        self._sums: Dict[Tuple[int, ...], Tuple] = {}  # complete.completion_along_set

    @property
    def field(self) -> Field:
        return self.complex.field

    @property
    def space(self) -> BiGradedSpace:
        return self.complex.space

    def basis_keys(self) -> Sequence[Key]:
        return self.space.basis_keys()

    @property
    def mult(self) -> MultTable:
        """Every nonzero structure constant; reads all pairs not yet read."""
        if not self._filled:
            keys = self.basis_keys()
            for k1 in keys:
                for k2 in keys:
                    self.basis_product(k1, k2)
            self._filled = True
        return self._memo

    def basis_product(self, k1: Key, k2: Key) -> Elt:
        e = self._memo.get((k1, k2))
        if e is None:
            if self._filled:
                return {}
            e = self._rule(k1, k2)
            if e:
                self._memo[(k1, k2)] = e
        return e

    def multiply(self, a: Elt, b: Elt) -> Elt:
        f = self.field
        out: Elt = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                p = self.basis_product(k1, k2)
                if p:
                    elt_axpy(f, out, f.mul(v1, v2), p)
        return out

    def d(self, a: Elt) -> Elt:
        return self.complex.d.apply(a)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_basis(cls, field: Field, basis: Sequence[Tuple[str, int, int]],
                   unit_names: Sequence[str],
                   differential: Dict[str, Dict[str, object]],
                   products: Dict[Tuple[str, str], Dict[str, object]],
                   name: str = "") -> "DgAlgebra":
        """Build from named basis elements with (degree, weight) and tables.

        products maps (a, b) to the expansion of a·b; omitted pairs are zero.
        """
        sp = BiGradedSpace(field)
        by_cell: Dict[Tuple[int, int], List[str]] = {}
        where: Dict[str, Tuple[int, int]] = {}
        for (nm, d, w) in basis:
            if nm in where:
                raise ValueError(f"duplicate basis name {nm}")
            by_cell.setdefault((d, w), []).append(nm)
            where[nm] = (d, w)
        for (d, w), names in sorted(by_cell.items()):
            sp.add_cell(d, w, names)
        sp.mark_all_complete()
        cx = CochainComplex(sp)

        def key(nm: str) -> Key:
            d, w = where[nm]
            return sp.key_of(d, w, nm)

        def as_elt(table: Dict[str, object]) -> Elt:
            out: Elt = {}
            for nm, v in table.items():
                s = field.of(v)
                if not field.is_zero(s):
                    out[key(nm)] = s
            return out

        for nm, img in differential.items():
            cx.d.set_column(key(nm), as_elt(img))
        mult: MultTable = {}
        for (a, b), img in products.items():
            e = as_elt(img)
            if e:
                mult[(key(a), key(b))] = e
        unit = {key(nm): field.one for nm in unit_names}
        return cls(cx, unit, table_rule(mult), name=name)

    # -- structural operations -----------------------------------------------

    def opposite(self) -> "DgAlgebra":
        """a ·_op b = (-1)^{|a||b|} b·a on the same complex, read through
        this algebra's products as they are asked for."""
        f = self.field
        minus = f.of(-1)

        def product(k1: Key, k2: Key) -> Elt:
            e = self.basis_product(k2, k1)
            return elt_scale(f, minus, e) if k1[0] % 2 and k2[0] % 2 else e

        op = DgAlgebra(self.complex, dict(self.unit), product,
                       name=f"{self.name}^op" if self.name else "",
                       idempotents={k: dict(v) for k, v in self.idempotents.items()})
        op._opposite_of = self
        return op

    def validate(self, assoc_budget: int = 2_000_000, seed: int = 0,
                 pair_budget: int = 4_000_000) -> ValidationReport:
        f = self.field
        violations: List[Tuple[str, object]] = []
        keys = self.basis_keys()
        bad = self.complex.validate_d2()
        if bad is not None:
            violations.append(("d_squared", bad))
        # grading of structure constants
        for (k1, k2), e in self.mult.items():
            for kt in e:
                if kt[0] != k1[0] + k2[0] or kt[1] != k1[1] + k2[1]:
                    violations.append(("grading", (k1, k2, kt)))
                    break
        # unit law
        for k in keys:
            one_elt = {k: f.one}
            if self.multiply(self.unit, one_elt) != one_elt:
                violations.append(("left_unit", k))
            if self.multiply(one_elt, self.unit) != one_elt:
                violations.append(("right_unit", k))
        # Leibniz on all pairs (or a sample if too many)
        n = len(keys)
        mode = "exhaustive"
        rng = random.Random(seed)
        if n * n <= pair_budget:
            pair_iter: Iterable[Tuple[Key, Key]] = ((a, b) for a in keys for b in keys)
        else:
            mode = f"sampled(seed={seed})"
            pair_iter = ((rng.choice(keys), rng.choice(keys)) for _ in range(200_000))
        for (ka, kb) in pair_iter:
            ea, eb = {ka: f.one}, {kb: f.one}
            lhs = self.d(self.basis_product(ka, kb))
            sign = f.of(1 if ka[0] % 2 == 0 else -1)
            rhs = elt_add(f, self.multiply(self.d(ea), eb),
                          elt_scale(f, sign, self.multiply(ea, self.d(eb))))
            if lhs != rhs:
                violations.append(("leibniz", (ka, kb)))
                break
        # associativity
        if n ** 3 <= assoc_budget:
            for ka in keys:
                for kb in keys:
                    ab = self.basis_product(ka, kb)
                    for kc in keys:
                        lhs = self.multiply(ab, {kc: f.one})
                        rhs = self.multiply({ka: f.one}, self.basis_product(kb, kc))
                        if lhs != rhs:
                            violations.append(("associativity", (ka, kb, kc)))
                            break
                    if violations and violations[-1][0] == "associativity":
                        break
                if violations and violations[-1][0] == "associativity":
                    break
        else:
            mode = f"sampled(seed={seed})"
            for _ in range(50_000):
                ka, kb, kc = rng.choice(keys), rng.choice(keys), rng.choice(keys)
                lhs = self.multiply(self.basis_product(ka, kb), {kc: f.one})
                rhs = self.multiply({ka: f.one}, self.basis_product(kb, kc))
                if lhs != rhs:
                    violations.append(("associativity", (ka, kb, kc)))
                    break
        return ValidationReport(not violations, violations, mode)

    def weight_zero_idempotent_basis(self) -> Optional[List[Key]]:
        """The weight-0 basis if it forms an orthogonal idempotent system
        summing to the unit with zero differential; else None."""
        f = self.field
        zeros = [k for k in self.basis_keys() if k[1] == 0]
        if any(k[0] != 0 for k in zeros):
            return None
        unit_sum: Elt = {k: f.one for k in zeros}
        if unit_sum != self.unit:
            return None
        for k in zeros:
            if self.d({k: f.one}):
                return None
            for l in zeros:
                prod = self.basis_product(k, l)
                want = {k: f.one} if k == l else {}
                if prod != want:
                    return None
        return zeros

    def _weight_sign(self) -> Optional[int]:
        """+1 / -1 if the nonzero weights are all positive / all negative
        (+1 if there are none); else None."""
        signs = {1 if k[1] > 0 else -1 for k in self.basis_keys() if k[1] != 0}
        if not signs:
            return 1  # concentrated in weight 0
        if len(signs) > 1:
            return None
        return signs.pop()


class DgModule:
    """DG module over a DgAlgebra, given by sparse action structure constants.

    For side "right" the action table maps (module key, algebra key) to an
    element of the module: m·a.  For side "left" it maps (algebra key,
    module key): a·m.

    ``projective`` is a witness that the module is a finite sum of shifted
    direct summands e_j·A[n_j] of the algebra, so K-projective: a tuple of
    ``Summand`` pairs, each a closed idempotent e_j at (0, 0) and the
    inclusion {algebra key: module key} of e_j·A[n_j], which together cover
    the module's basis.  Only the constructors that prove it set it
    (``regular_module``, ``right_ideal_module``, and ``shift_module`` and
    ``direct_sum_modules`` of modules that carry it).  None is no claim.

    ``resolution`` is a recipe for a semi-free resolution witness of a
    right module over a positively weighted algebra: called with a length
    L, it gives a minimal resolution P of the module as a ``SemiFree``, in
    the layout ``bar``'s builders read, listing every generator within
    weight L of the lightest (each step of a minimal resolution raises the
    weight by at least one); called with a weight cap W as well, it keeps
    only the generators within W of the lightest, in the same one copy.
    Only ``TruncatedRing.residue_module`` sets it, for k over a monomial
    complete intersection or over any one-variable ring, which is
    k[x]/(x^n) for n its number of monomials: k[x] under the weight cap W
    reads as the power W + 1.  Its one degree-0 generator goes to k's one
    key.  No other constructor carries it over, and None is no claim.
    ``derived_hom``, ``derived_tensor`` and the witness model of
    completions along k (``bar.witness_model``) read it.

    The stores the library keeps, each declared in its class's
    ``__init__``, written only by its owner, keyed by what changes the
    answer, one entry each unless a bound is given, and relying on modules,
    algebras and categories not being mutated:

    - ``DgAlgebra._reduction`` (``bar.reduction_data``): the reduction data
      or None; an opposite mirrors its base's, ``_opposite_of``.
    - ``DgAlgebra._sums`` (``complete.completion_along_set``): the direct
      sum per tuple of generators asked, matched by identity.
    - ``DgModule._objects`` (``bar._module_objects``): each key's object for
      the reduced bar, or None; ``DgModule._uncut`` (``bar._uncut_caps``):
      the caps (L, W) of its longest tuple, or why the bar is not finite.
    - ``DgModule._schemes`` (``bar._bar_scheme``): a bar scheme per (n_max,
      w_cap, reduced) asked, a cap past the uncut one read as it, so a
      finite bar keeps at most (L + 1)(W + 1) reduced ones; the certificate
      is still the asked caps'.  A per-call E adds none.
    - ``DgModule._cap_free`` (``complete.double_centralizer``): the cap-free
      inner model, strict or uncut minimal, or why there is none; and
      ``DgModule._witnesses``, same owner: a witness model per w_out asked.
    - ``SmallCategory._strings`` (``holim._string_scheme``): a string scheme
      per (cutoff, sign fields) asked, a cutoff past an acyclic category's
      longest string L read as L, so at most L + 1 per sign fields; a
      category with a cycle keeps none.
    """

    def __init__(self, algebra: DgAlgebra, complex: CochainComplex,
                 action: Dict[Tuple[Key, Key], Elt], side: str = "right",
                 name: str = "",
                 projective: Optional[Tuple[Summand, ...]] = None):
        if side not in ("right", "left"):
            raise ValueError(f"side must be left or right, got {side}")
        self.algebra = algebra
        self.complex = complex
        self.action = action
        self.side = side
        self.name = name
        self.projective = projective
        self.resolution: Optional[Callable[..., SemiFree]] = None
        self._objects = _UNSET  # bar._module_objects
        self._uncut = _UNSET  # bar._uncut_caps
        self._schemes: Dict[Tuple[int, int, bool], SemiFree] = {}  # bar._bar_scheme
        self._cap_free = None  # complete.double_centralizer
        self._witnesses: Dict[int, Tuple] = {}  # complete.double_centralizer

    @property
    def field(self) -> Field:
        return self.complex.field

    @property
    def space(self) -> BiGradedSpace:
        return self.complex.space

    def basis_keys(self) -> Sequence[Key]:
        return self.space.basis_keys()

    def act(self, m: Elt, a: Elt) -> Elt:
        """m·a for right modules, a·m (args swapped) is act_left."""
        if self.side != "right":
            raise ValueError("act() is for right modules; use act_left")
        f = self.field
        out: Elt = {}
        for km, vm in m.items():
            for ka, va in a.items():
                t = self.action.get((km, ka))
                if t:
                    elt_axpy(f, out, f.mul(vm, va), t)
        return out

    def act_left(self, a: Elt, m: Elt) -> Elt:
        if self.side != "left":
            raise ValueError("act_left() is for left modules")
        f = self.field
        out: Elt = {}
        for ka, va in a.items():
            for km, vm in m.items():
                t = self.action.get((ka, km))
                if t:
                    elt_axpy(f, out, f.mul(va, vm), t)
        return out

    def d(self, m: Elt) -> Elt:
        return self.complex.d.apply(m)

    def validate(self, seed: int = 0, budget: int = 4_000_000) -> ValidationReport:
        f = self.field
        violations: List[Tuple[str, object]] = []
        bad = self.complex.validate_d2()
        if bad is not None:
            violations.append(("d_squared", bad))
        mkeys = self.basis_keys()
        akeys = self.algebra.basis_keys()
        right = self.side == "right"
        one = self.algebra.unit

        def action(m, a):
            return self.act(m, a) if right else self.act_left(a, m)

        for km in mkeys:
            me = {km: f.one}
            if action(me, one) != me:
                violations.append(("unital", km))
        # grading
        for (k1, k2), e in self.action.items():
            km, ka = (k1, k2) if right else (k2, k1)
            for kt in e:
                if kt[0] != km[0] + ka[0] or kt[1] != km[1] + ka[1]:
                    violations.append(("grading", (k1, k2, kt)))
                    break
        # associativity over the algebra and Leibniz
        n = len(mkeys) * len(akeys) * len(akeys)
        mode = "exhaustive"
        rng = random.Random(seed)
        if n <= budget:
            triples = ((km, ka, kb) for km in mkeys for ka in akeys for kb in akeys)
        else:
            mode = f"sampled(seed={seed})"
            triples = ((rng.choice(mkeys), rng.choice(akeys), rng.choice(akeys))
                       for _ in range(100_000))
        for (km, ka, kb) in triples:
            me, ae, be = {km: f.one}, {ka: f.one}, {kb: f.one}
            if right:
                lhs = action(action(me, ae), be)
                rhs = action(me, self.algebra.basis_product(ka, kb))
            else:
                lhs = action(action(me, be), ae)  # a·(b·m)
                rhs = action(me, self.algebra.basis_product(ka, kb))
            if lhs != rhs:
                violations.append(("action_associativity", (km, ka, kb)))
                break
        for km in mkeys:
            for ka in akeys:
                me, ae = {km: f.one}, {ka: f.one}
                if right:
                    lhs = self.d(action(me, ae))
                    sign = f.of(1 if km[0] % 2 == 0 else -1)
                    rhs = elt_add(f, action(self.d(me), ae),
                                  elt_scale(f, sign, self.act(me, self.algebra.d(ae))))
                else:
                    lhs = self.d(self.act_left(ae, me))
                    sign = f.of(1 if ka[0] % 2 == 0 else -1)
                    rhs = elt_add(f, self.act_left(self.algebra.d(ae), me),
                                  elt_scale(f, sign, self.act_left(ae, self.d(me))))
                if lhs != rhs:
                    violations.append(("leibniz", (km, ka)))
                    break
        return ValidationReport(not violations, violations, mode)


# -- category algebras -------------------------------------------------------

class DgCategoryPresentation:
    """Finite dg category: named morphisms with sources, targets, gradings,
    differential and composition tables ("f then g" = g∘f)."""

    def __init__(self, objects: Sequence[str]):
        self.objects = list(objects)
        self.morphisms: List[Tuple[str, str, str, int, int]] = []  # name, src, tgt, deg, wt
        self.identities: Dict[str, str] = {}
        self.differential: Dict[str, Dict[str, object]] = {}
        self.then: Dict[Tuple[str, str], Dict[str, object]] = {}
        self._info: Dict[str, Tuple[str, str, int, int]] = {}

    def add_morphism(self, name: str, src: str, tgt: str, deg: int = 0,
                     wt: int = 0, identity: bool = False) -> None:
        if name in self._info:
            raise ValueError(f"duplicate morphism {name}")
        self.morphisms.append((name, src, tgt, deg, wt))
        self._info[name] = (src, tgt, deg, wt)
        if identity:
            if src != tgt or deg != 0 or wt != 0:
                raise ValueError(f"identity {name} must be an endomorphism in bidegree (0,0)")
            self.identities[src] = name

    def set_then(self, first: str, second: str, value: Dict[str, object]) -> None:
        """Record the composite "first then second" (i.e. second ∘ first)."""
        f_src, f_tgt, _, _ = self._info[first]
        s_src, s_tgt, _, _ = self._info[second]
        if f_tgt != s_src:
            raise ValueError(f"{first} then {second}: target/source mismatch")
        self.then[(first, second)] = value

    def set_differential(self, name: str, value: Dict[str, object]) -> None:
        self.differential[name] = value


def category_algebra(pres: DgCategoryPresentation, field: Field,
                     name: str = "") -> DgAlgebra:
    """Direct sum of all hom complexes with path-concatenation product."""
    missing = [x for x in pres.objects if x not in pres.identities]
    if missing:
        raise ValueError(f"objects without identities: {missing}")
    basis = [(nm, d, w) for (nm, src, tgt, d, w) in pres.morphisms]
    products: Dict[Tuple[str, str], Dict[str, object]] = {}
    info = pres._info
    for (nm1, src1, tgt1, d1, w1) in pres.morphisms:
        for (nm2, src2, tgt2, d2, w2) in pres.morphisms:
            if tgt1 != src2:
                continue  # mult(f, g) = "f then g" needs tgt(f) = src(g)
            if nm1 in pres.identities.values():
                products[(nm1, nm2)] = {nm2: 1}
            elif nm2 in pres.identities.values():
                products[(nm1, nm2)] = {nm1: 1}
            else:
                val = pres.then.get((nm1, nm2))
                if val is None:
                    raise ValueError(f"composition table incomplete: {nm1} then {nm2}")
                products[(nm1, nm2)] = val
    alg = DgAlgebra.from_basis(field, basis, list(pres.identities.values()),
                               pres.differential, products, name=name)
    idems: Dict[str, Elt] = {}
    for obj, nm in pres.identities.items():
        d, w = info[nm][2], info[nm][3]
        idems[obj] = {alg.space.key_of(d, w, nm): field.one}
    alg.idempotents = idems
    return alg


class AlgebraMorphism:
    """Degree-0, weight-0 unital chain algebra map, stored as a GradedMap."""

    def __init__(self, source: DgAlgebra, target: DgAlgebra, map: GradedMap):
        self.source = source
        self.target = target
        self.map = map

    def apply(self, a: Elt) -> Elt:
        return self.map.apply(a)

    def validate(self, seed: int = 0, budget: int = 4_000_000) -> ValidationReport:
        violations: List[Tuple[str, object]] = []
        if (self.map.deg_shift, self.map.wt_shift) != (0, 0):
            violations.append(("shift", (self.map.deg_shift, self.map.wt_shift)))
        if self.apply(self.source.unit) != self.target.unit:
            violations.append(("unit", None))
        bad = is_chain_map(self.map, self.source.complex.d, self.target.complex.d)
        if bad is not None:
            violations.append(("chain_map", bad))
        f = self.source.field
        keys = self.source.basis_keys()
        mode = "exhaustive"
        if len(keys) ** 2 <= budget:
            pairs: Iterable[Tuple[Key, Key]] = ((a, b) for a in keys for b in keys)
        else:
            mode = f"sampled(seed={seed})"
            rng = random.Random(seed)
            pairs = ((rng.choice(keys), rng.choice(keys)) for _ in range(100_000))
        for (ka, kb) in pairs:
            lhs = self.apply(self.source.basis_product(ka, kb))
            rhs = self.target.multiply(self.apply({ka: f.one}), self.apply({kb: f.one}))
            if lhs != rhs:
                violations.append(("multiplicative", (ka, kb)))
                break
        return ValidationReport(not violations, violations, mode)


def identity_morphism(a: DgAlgebra) -> AlgebraMorphism:
    g = GradedMap(a.space, a.space, 0, 0)
    for k in a.basis_keys():
        g.set_entry(k, k, a.field.one)
    return AlgebraMorphism(a, a, g)


def restrict_scalars(f: AlgebraMorphism, m: DgModule) -> DgModule:
    """Pull a module over f's target back to a module over f's source."""
    if m.algebra is not f.target:
        raise ValueError("module is not over the morphism's target")
    fld = m.field
    action: Dict[Tuple[Key, Key], Elt] = {}
    src_keys = f.source.basis_keys()
    for km in m.basis_keys():
        me = {km: fld.one}
        for ka in src_keys:
            img = f.apply({ka: fld.one})
            if not img:
                continue
            val = m.act(me, img) if m.side == "right" else m.act_left(img, me)
            if val:
                key = (km, ka) if m.side == "right" else (ka, km)
                action[key] = val
    return DgModule(f.source, m.complex, action, side=m.side,
                    name=f"{m.name}|restricted" if m.name else "")


def regular_module(a: DgAlgebra) -> DgModule:
    """A as a right module over itself."""
    action = {pair: dict(e) for pair, e in a.mult.items()}
    return DgModule(a, a.complex, action, side="right", name=f"{a.name or 'A'}",
                    projective=((a.unit, {k: k for k in a.basis_keys()}),))


def right_ideal_module(a: DgAlgebra, idem: Elt, name: str = "") -> DgModule:
    """e·A as a right module, for an idempotent e spanned by basis keys.

    The basis is the set of algebra basis keys x with e·x = x (this is exact
    for category algebras where e is a sum of identity idempotents).  The
    module knows what A's space knows.  When e is a closed idempotent at
    (0, 0), e·A is a direct summand of A and carries the projective witness,
    one summand included key for key.
    """
    f = a.field
    keep: List[Key] = []
    for k in a.basis_keys():
        prod = a.multiply(idem, {k: f.one})
        if prod == {k: f.one}:
            keep.append(k)
        elif prod:
            raise ValueError(f"basis key {k} not idempotent-homogeneous for this corner")
    sp = BiGradedSpace(f)
    cells: Dict[Tuple[int, int], List] = {}
    for k in keep:
        cells.setdefault((k[0], k[1]), []).append(a.space.label_of(k))
    for (d, w), lbls in sorted(cells.items()):
        sp.add_cell(d, w, lbls)
    sp.copy_knowledge_from(a.space)
    cx = CochainComplex(sp)
    incl = {k: sp.key_of(k[0], k[1], a.space.label_of(k)) for k in keep}

    def embed(e: Elt) -> Elt:
        out: Elt = {}
        for k, v in e.items():
            if k not in incl:
                raise ValueError(f"right ideal not closed: leaked to {k}")
            out[incl[k]] = v
        return out

    for k in keep:
        img = a.d({k: f.one})
        if img:
            cx.d.set_column(incl[k], embed(img))
    action: Dict[Tuple[Key, Key], Elt] = {}
    for k in keep:
        for ka in a.basis_keys():
            prod = a.basis_product(k, ka)
            if prod:
                action[(incl[k], ka)] = embed(prod)
    summand = (all(k[:2] == (0, 0) for k in idem) and not a.d(idem)
               and a.multiply(idem, idem) == idem)
    return DgModule(a, cx, action, side="right", name=name,
                    projective=((idem, incl),) if summand else None)


def shift_module(m: DgModule, n: int) -> DgModule:
    """m[n]; for right modules the action carries no extra sign."""
    if m.side != "right":
        raise ValueError("shift_module implemented for right modules")
    cx = m.complex.shift(n)

    def moved(k: Key) -> Key:
        return (k[0] - n, k[1], k[2])

    action: Dict[Tuple[Key, Key], Elt] = {}
    for (km, ka), e in m.action.items():
        action[(moved(km), ka)] = {moved(k): v for k, v in e.items()}
    witness = m.projective and tuple(
        (e, {x: moved(k) for x, k in incl.items()}) for e, incl in m.projective)
    return DgModule(m.algebra, cx, action, side="right",
                    name=f"{m.name}[{n}]" if m.name else "",
                    projective=witness)


def direct_sum_modules(m1: DgModule, m2: DgModule, name: str = "") -> DgModule:
    if m1.algebra is not m2.algebra or m1.side != m2.side:
        raise ValueError("direct sum needs modules over the same algebra and side")
    cx = m1.complex.direct_sum(m2.complex)
    sp = cx.space
    parts = (("L", m1), ("R", m2))

    def moved(tag: str, part: DgModule, k: Key) -> Key:
        return sp.key_of(k[0], k[1], (tag, part.space.label_of(k)))

    action: Dict[Tuple[Key, Key], Elt] = {}
    for tag, part in parts:
        for (k1, k2), e in part.action.items():
            km, ka = (k1, k2) if part.side == "right" else (k2, k1)
            nk = moved(tag, part, km)
            ne = {moved(tag, part, k): v for k, v in e.items()}
            key = (nk, ka) if part.side == "right" else (ka, nk)
            action[key] = ne
    witness = m1.projective and m2.projective and tuple(
        (e, {x: moved(tag, part, k) for x, k in incl.items()})
        for tag, part in parts for e, incl in part.projective)
    return DgModule(m1.algebra, cx, action, side=m1.side, name=name,
                    projective=witness)
