"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner endomorphism algebra, opposed again.
The inner algebra is the derived endomorphism algebra REnd_a(m), and the
construction is invariant under quasi-isomorphism of it, so any model will
do.  REnd_a(m) depends on m alone, so a module keeps one cap-free inner
model, which every completion along it at any caps reuses; what the
library keeps, and under which key, is listed on ``dg.DgModule``.  There
are two cap-free models:

- strict: when m carries the projective witness (its summands e_j·a[n_j]
  and their inclusions), it is K-projective, so REnd_a(m) = End_a(m) on the
  nose, and Yoneda reads it off the witness as the sum of the m·e_j, exact
  wherever m is known, so complete only when m is fully known;
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
  the purity check below holds; it builds no E.

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

import operator
from typing import Dict, Optional, Sequence, Union

from .bar import (
    Caps, MinimalModel, StrictEndAlgebra, _end_algebra, _uncut_caps, end_algebra,
    minimal_model, strict_end_algebra, witness_model,
)
from .dg import DgAlgebra, DgModule, direct_sum_modules
from .graded import Cohomology, Window


def _check_caps(caps: Caps, what: str) -> Caps:
    """caps as two non-negative ints: a non-integer raises ValueError rather
    than being rounded, and so does a bool, skipped so that too few remain."""
    try:
        n, w = (operator.index(c) for c in caps if not isinstance(c, bool))
    except (TypeError, ValueError):
        raise ValueError(f"{what} caps must be two integers, got {caps!r}") from None
    if n < 0 or w < 0:
        raise ValueError(f"{what} caps must be non-negative")
    return n, w


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


def _uncut_model(m: DgModule, caps: Caps) -> Union[MinimalModel, str]:
    """REnd_a(m) as the minimal model of E built at m's uncut caps: nothing
    is cut, so E is complete, and H(E) is taken on all weights; or why the
    purity check refuses it."""
    inner = end_algebra(m, caps[0], w_cap=caps[1], name=f"End({m.name})")
    inner.space.mark_all_complete()
    model, purity = minimal_model(inner, None)
    return model if model is not None else f"uncut H(E): {purity['reason']}"


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    The inner model is the one the module docstring describes.  inner_caps
    bound only E, uncut or per call: they must clear w_out by at least 2 and
    default to that margin.  Caps are non-negative integers, inner_caps too
    whenever given, though a projective module's strict model reads none.
    ``diagnostics["strict"]`` records the projective witness,
    ``diagnostics["minimal"]`` the line found or the cell off it (None for a
    strict model), and ``diagnostics["cap_free"]`` is None when the inner
    model is the module's kept one and otherwise says why not: the slots
    cycle, the uncut caps exceed the inner caps, the uncut H(E) is refused,
    the algebra or the module is not fully known, or there is no reduced bar.

    The outer model is the reduced bar at caps; an inner algebra it cannot
    reduce over raises ValueError naming the failing condition.
    Certificates hold exactly where the outer scheme could see complete
    inner columns, so the margin between the caps keeps the certified window
    honest.  ``budget`` is accepted for compatibility and bounds nothing.
    """
    if m.algebra is not a:
        raise ValueError("module is not over the algebra being completed")
    if m.side != "right":
        raise ValueError("completion needs a right module")
    n_out, w_out = _check_caps(caps, "outer")
    if inner_caps is not None or not m.projective:
        n_in, w_in = _check_caps(
            (w_out + 2, w_out + 2) if inner_caps is None else inner_caps, "inner")
        if w_in < w_out + 2 and not m.projective:
            raise ValueError(
                "inner caps must clear the outer weight cap by at least 2")

    cap_free = m._cap_free
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
            if w_out not in m._witnesses:
                m._witnesses[w_out] = witness_model(m, w_out)
            inner, purity = m._witnesses[w_out][0], dict(m._witnesses[w_out][1])
        inner_used = "witness"
    if inner is None:
        mw = [k[1] for k in m.basis_keys()]
        w_read = min(w_in, w_out + (max(mw) - min(mw) if mw else 0))
        inner = _end_algebra(m, n_in, w_read, keep=False)
        model, purity = minimal_model(inner, w_out)
        if model is None and w_read < w_in:
            inner = _end_algebra(m, n_in, w_in, keep=False)
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
    algebra keeps the sum per tuple of generators, for every call along it."""
    mods = list(s)
    if not mods:
        raise ValueError("generator set must be nonempty")
    for m in mods:
        if m.algebra is not a:
            raise ValueError("generators must share the algebra being completed")
    # the entry holds the generators, so their ids stay theirs
    ids = tuple(map(id, mods))
    if ids not in a._sums:
        total = mods[0]
        for m in mods[1:]:
            total = direct_sum_modules(
                total, m, name=f"{total.name or 'm'}⊕{m.name or 'm'}")
        a._sums[ids] = mods, total
    total = a._sums[ids][1]
    return double_centralizer(a, total, caps, inner_caps=inner_caps,
                              window=window, name=name)
