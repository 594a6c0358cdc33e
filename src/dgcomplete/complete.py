"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner endomorphism algebra, opposed again.
The inner algebra is the derived endomorphism algebra REnd_a(m), and the
construction is invariant under quasi-isomorphism of it, so any model will
do.  REnd_a(m) depends on m alone, so a module keeps one cap-free inner
model, with its module over the opposite, or the reason it has none, and
every completion along it at any caps reuses them.  What depends on caps is
kept only at exactly those caps: m keeps its witness model (below) per
outer weight cap, and every module keeps each bar scheme built over it
(``bar._bar_scheme``), the outer one over a kept model's module included,
but for the scheme of a per-call E, which goes with the call.  Hom
complexes, E and cohomology are built per call.  All of this relies, as
the reduction data kept on an algebra does, on modules not being mutated.
There are two cap-free models:

- strict: when m carries the projective witness (its summands e_j·a[n_j]
  and their inclusions), it is K-projective, so REnd_a(m) = End_a(m) on the
  nose, and Yoneda reads it off the witness as the sum of the m·e_j;
- uncut minimal: when m's reduced bar is finite, because no chain of the
  algebra's nonzero-weight basis keys (arrows between the objects of its
  idempotents) from m's objects reaches a cycle, the convolution algebra E
  built at the caps (L, W) of the longest chain cuts nothing, so it is
  REnd_a(m) exactly and complete; its cohomology H(E) on all weights is its
  minimal model when the purity check below holds.  Such a bar can still
  be large (2^n - 1 tuples for the simples of 1 -> ... -> n), so a call
  builds it only when its inner caps admit (L, W), the bound the bar model
  respects, and a call they do not admit keeps nothing.

Any other call builds its model per call.  A module with a resolution
recipe (``DgModule.resolution``: k over a monomial complete intersection or
a one-variable ring, koszul_kx's among them) first tries

- witness: Ext_a(m, m) = Hom_a(P, m) over the minimal resolution witness P
  to weight w_out, with the Yoneda product (``bar.witness_model``), when
  the purity check below holds; it builds no E, and m keeps it, or its
  refusal, per w_out.

Where that check fails (η at (2, -t) over k[x]/(x^t) once w_out reaches t),
and for a module with no recipe (k over k[x, y], simples whose uncut caps
exceed the inner caps, sums and shifts), the call builds m's convolution
algebra E and takes one of

- minimal: the cohomology H(E) of E on the weights |w| <= w_out the outer
  bar reads, when the purity check makes it E's minimal model
  (``bar.minimal_model``).  E is built only to w_out + spread, the range of
  m's weights: a reduced bar tuple in column u has slot weight sum at most
  spread + |u|, so E's tuples, d and column certificates on |u| <= w_out,
  and H(E) there, are the same as at the inner caps;
- bar: E at the inner caps, which bound only this fallback, where the check
  fails.

Purity: every class lies on one line d = c·w and m on a parallel one.  A
transferred A∞ operation m_n has degree 2 - n and weight 0, so with inputs
and output on that line it vanishes unless n = 2; the higher actions on m
vanish the same way.  So the model is formal: the cohomology with d = 0 and
its product, m₂ = p∘μ∘(i⊗i) on H(E), where i picks representatives and p
reads classes, or Yoneda's on Ext.  No homotopy and no A∞ code are needed.
Every model acts on m by evaluating its length-zero part
(``bar.InnerModel``), so the choice of model is the only branch.

The outer model is always the reduced bar, the only one whose cells can be
certified.  Where the inner algebra is not weight-connected over orthogonal
idempotents in degree 0 (mixed weight signs, weight-0 elements outside
degree 0) the completion raises the reduced bar's ValueError, which names
the failing condition, instead of returning a table with no certified cell.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bar import (
    EndAlgebra, MinimalModel, StrictEndAlgebra, _module_objects, end_algebra,
    minimal_model, reduction_data, strict_end_algebra, witness_model,
)
from .dg import DgAlgebra, DgModule, direct_sum_modules
from .graded import Cohomology, Window

Caps = Tuple[int, int]


def _check_caps(caps: Caps, what: str) -> Caps:
    n, w = int(caps[0]), int(caps[1])
    if n < 0 or w < 0:
        raise ValueError(f"{what} caps must be non-negative")
    return (n, w)


class CompletionResult:
    """A completed algebra with its inner model and diagnostics."""

    reduced_outer = True  # the outer model is always the reduced bar

    def __init__(self, inner: DgAlgebra, inner_used: str,
                 completed: DgAlgebra, window: Window, diagnostics: Dict):
        self.inner = inner
        self.inner_used = inner_used
        self.completed = completed
        self.window = window
        self.diagnostics = diagnostics

    def cohomology(self, window: Optional[Window] = None) -> Cohomology:
        return self.completed.complex.cohomology(window=window or self.window)


def _uncut_caps(m: DgModule) -> Union[Caps, str]:
    """(L, W): the most slots and the heaviest slot weight sum of any
    reduced bar tuple over m, so that E at those caps cuts nothing; or why
    m's reduced bar is not finite.

    A tuple is a chain of the algebra's nonzero-weight basis keys, each an
    arrow from its lobj to its robj, starting at the object of a module key:
    the bar is finite when no such chain reaches a directed cycle.  The
    reason is kept with m, so it names only what depends on m alone."""
    a = m.algebra
    if not (a.space.fully_known() and m.space.fully_known()):
        return "the algebra or the module is not fully known"
    red = reduction_data(a)
    objs = _module_objects(m, red) if red else None
    if objs is None:
        return "no reduced bar"
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


def _uncut_model(m: DgModule, caps: Caps) -> Union[MinimalModel, str]:
    """REnd_a(m) as the minimal model of E built at m's uncut caps: nothing
    is cut, so E is complete, and H(E) is taken on all weights; or why the
    purity check refuses it."""
    inner = end_algebra(m, caps[0], w_cap=caps[1], name=f"End({m.name})")
    inner.space.mark_all_complete()
    model, purity = minimal_model(inner, None)
    return model if model is not None else f"uncut H(E): {purity['reason']}"


def _per_call_end(m: DgModule, n_max: int, w_cap: int) -> EndAlgebra:
    """m's E at the caps, dropping whatever bar scheme the build added to
    those m keeps (``bar._bar_scheme``): a per-call model leaves nothing on
    m, so completing it at many caps holds no scheme past each call."""
    kept = m.__dict__.setdefault("_schemes", {})
    before = set(kept)
    inner = end_algebra(m, n_max, w_cap=w_cap, name=f"End({m.name})")
    for key in set(kept) - before:
        del kept[key]
    return inner


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    The inner model is REnd_a(m), which depends on m alone, so a module
    keeps one cap-free inner model, or the reason it has none, and every
    completion along it at any caps reuses the model and its module over
    the opposite and pays only for its outer bar.  A module with the
    projective witness keeps the strict model, exact by Yoneda wherever m's
    space is known, so it is marked complete only when m is fully known and
    certifies nothing otherwise.  Any other module whose reduced bar is
    finite (``_uncut_caps``) keeps the minimal model of E built uncut, once
    a call's inner caps admit the uncut caps (L, W): a call never builds
    past its inner caps, and one that cannot admit them keeps nothing.

    Every other call builds its model per call, but for the witness model:
    a module with a resolution recipe first tries Ext read off the recipe's
    witness to weight w_out with the Yoneda product, which knows what the
    witness certifies, and keeps it, or its refusal, per w_out.  So each
    kept model's module over the opposite is stable, and the bar scheme of
    the outer model over it, kept per caps, is reused.  Where the witness
    is refused, and for any other module, the call builds E to weight
    w_out + spread, all the purity check up to w_out reads, and takes the
    minimal model H(E), which knows what E's cohomology certifies and no
    weight past w_out, or else E at inner_caps, which must clear w_out by
    at least 2 and default to that margin; m keeps no scheme either adds.
    ``diagnostics["strict"]`` records the projective witness,
    ``diagnostics["minimal"]`` the line found or the cell off it (None for
    a strict model), and ``diagnostics["cap_free"]`` is None when the inner
    model is the module's kept one and otherwise says why not: the slots
    cycle, the uncut caps exceed the inner caps, the uncut H(E) is refused,
    the algebra or the module is not fully known, or there is no reduced
    bar.

    The outer model is the reduced bar at caps; an inner algebra it cannot
    reduce over raises ValueError naming the failing condition.
    Certificates on the result hold exactly where the outer scheme could see
    complete inner columns, so the safety margin between the caps is what
    keeps the certified window honest.  ``budget`` is accepted for
    compatibility and bounds nothing.
    """
    if m.algebra is not a:
        raise ValueError("module is not over the algebra being completed")
    if m.side != "right":
        raise ValueError("completion needs a right module")
    n_out, w_out = _check_caps(caps, "outer")
    if not m.projective:
        n_in, w_in = _check_caps(inner_caps or (w_out + 2, w_out + 2), "inner")
        if w_in < w_out + 2:
            raise ValueError(
                "inner caps must clear the outer weight cap by at least 2")

    # kept on m, as reduction_data keeps _reduction on its algebra
    cap_free = getattr(m, "_cap_free", None)
    if cap_free is None:
        if m.projective:
            cap_free = m._cap_free = strict_end_algebra(m)
        else:
            uncut = _uncut_caps(m)
            if isinstance(uncut, str):
                cap_free = m._cap_free = uncut
            elif uncut[0] > n_in or uncut[1] > w_in:
                cap_free = (f"uncut caps {uncut} exceed the inner caps "
                            f"{(n_in, w_in)}")
            else:
                cap_free = m._cap_free = _uncut_model(m, uncut)

    if isinstance(cap_free, StrictEndAlgebra):
        inner_used, inner, purity = "strict", cap_free, None
    elif isinstance(cap_free, MinimalModel):
        inner_used, inner, purity = "minimal", cap_free, dict(cap_free.purity)
    else:
        inner = purity = None
        if m.resolution is not None:
            kept = m.__dict__.setdefault("_witnesses", {})  # per w_out
            if w_out not in kept:
                kept[w_out] = witness_model(m, w_out)
            inner, purity = kept[w_out][0], dict(kept[w_out][1])
        inner_used = "witness"
    if inner is None:
        mw = [k[1] for k in m.basis_keys()]
        w_read = min(w_in, w_out + (max(mw) - min(mw) if mw else 0))
        inner = _per_call_end(m, n_in, w_read)
        model, purity = minimal_model(inner, w_out)
        if model is None and w_read < w_in:
            inner = _per_call_end(m, n_in, w_in)
        inner_used, inner = ("bar", inner) if model is None else ("minimal", model)
    over = inner.module_over_opposite()

    outer = end_algebra(over, n_out, w_cap=w_out, reduced=True,
                        name=f"End²({m.name})")
    completed = outer.opposite()
    completed.name = name or f"completion({m.name})"
    win = window or Window(-max(2, n_out), max(2, n_out) + 1, w_out)
    diagnostics = {
        "strict": {"witness": m.projective,
                   "module_known": m.space.fully_known()},
        "minimal": purity,
        "cap_free": cap_free if isinstance(cap_free, str) else None,
        "outer": {"budget": None},
    }
    return CompletionResult(inner, inner_used, completed, win, diagnostics)


def completion_along_set(a: DgAlgebra, s: Sequence[DgModule], caps: Caps,
                         inner_caps: Optional[Caps] = None,
                         window: Optional[Window] = None,
                         name: str = "") -> CompletionResult:
    """Complete along a finite generator set.  The inner algebra of the
    direct sum is the category algebra of derived homs between the pairs,
    so a singleton set agrees with double_centralizer exactly.  The
    algebra keeps the sum per tuple of generators, matched by identity, so
    what the sum keeps serves every call along that tuple."""
    mods = list(s)
    if not mods:
        raise ValueError("generator set must be nonempty")
    for m in mods:
        if m.algebra is not a:
            raise ValueError("generators must share the algebra being completed")
    # the entry holds the generators, so their ids stay theirs
    kept = a.__dict__.setdefault("_sums", {})
    ids = tuple(map(id, mods))
    if ids not in kept:
        total = mods[0]
        for m in mods[1:]:
            total = direct_sum_modules(
                total, m, name=f"{total.name or 'm'}⊕{m.name or 'm'}")
        kept[ids] = mods, total
    total = kept[ids][1]
    return double_centralizer(a, total, caps, inner_caps=inner_caps,
                              window=window, name=name)
