"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner endomorphism algebra, opposed again.
The inner algebra is the derived endomorphism algebra REnd_a(m), and the
construction is invariant under quasi-isomorphism of it, so any model will
do.  There are three:

- strict: when m carries the projective witness (its summands e_j·a[n_j]
  and their inclusions), it is K-projective, so REnd_a(m) = End_a(m) on the
  nose, and Yoneda reads it off the witness as the sum of the m·e_j.  It
  depends on m alone, so the first completion along m keeps it on m, with
  its module over the opposite, and every later one at any caps reuses
  them; this is the only thing a completion keeps, and it relies, as the
  reduction data kept on an algebra does, on modules not being mutated;
- minimal: otherwise, the cohomology H(E) of the convolution algebra E from
  the bar calculus, on the weights |w| <= w_out the outer bar reads, when a
  purity check makes it E's minimal model (``bar.minimal_model``).  E is
  built only to w_out + spread, the range of m's weights: a reduced bar
  tuple in column u has slot weight sum at most spread + |u|, so E's tuples,
  d and column certificates on |u| <= w_out, and H(E) there, are the same
  as at the inner caps;
- bar: E at the inner caps, which bound only this fallback, where the check
  fails.

Purity: every class of H(E) lies on one line d = c·w and m on a parallel
one.  A transferred A∞ operation m_n has degree 2 - n and weight 0, so with
inputs and output on that line it vanishes unless n = 2; the higher actions
on m vanish the same way.  So the minimal model is formal: H(E) with d = 0
and m₂ = p∘μ∘(i⊗i), where i picks representatives and p reads classes.  No
homotopy and no A∞ code are needed.  Every model acts on m by evaluating
its length-zero part (``bar.InnerModel``), so the choice of model is the
only branch.

The outer model is always the reduced bar, the only one whose cells can be
certified.  Where the inner algebra is not weight-connected over orthogonal
idempotents in degree 0 (mixed weight signs, weight-0 elements outside
degree 0) the completion raises the reduced bar's ValueError, which names
the failing condition, instead of returning a table with no certified cell.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .bar import end_algebra, minimal_model, strict_end_algebra
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


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    A module with the projective witness takes the strict model, exact by
    Yoneda wherever m's space is known, so it is marked complete only when m
    is fully known and certifies nothing otherwise.  It depends on m alone:
    the first completion along m builds it and keeps it on m, with its
    module over the opposite, and later ones at any caps reuse both, so each
    pays only for its outer bar.  Nothing that depends on the caps is kept:
    the minimal and bar models, the outer bar and the result are built per
    call.  Any other module builds
    E to weight w_out + spread, all the purity check up to w_out reads, and
    takes the minimal model H(E), which knows what E's cohomology certifies
    and no weight past w_out, or else E at inner_caps, which must clear
    w_out by at least 2 and default to that margin.
    ``diagnostics["strict"]`` records the witness behind the first choice,
    and ``diagnostics["minimal"]`` the line found or the cell off it (None
    for a strict model).

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

    purity = None
    if m.projective:
        # kept on m, as reduction_data keeps _reduction on its algebra
        inner_used = "strict"
        inner = getattr(m, "_strict", None)
        if inner is None:
            inner = m._strict = strict_end_algebra(m)
    else:
        n_in, w_in = _check_caps(inner_caps or (w_out + 2, w_out + 2), "inner")
        if w_in < w_out + 2:
            raise ValueError(
                "inner caps must clear the outer weight cap by at least 2")
        mw = [k[1] for k in m.basis_keys()]
        w_read = min(w_in, w_out + (max(mw) - min(mw) if mw else 0))
        inner = end_algebra(m, n_in, w_cap=w_read, name=f"End({m.name})")
        model, purity = minimal_model(inner, w_out)
        if model is None and w_read < w_in:
            inner = end_algebra(m, n_in, w_cap=w_in, name=inner.name)
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
        "outer": {"budget": None},
    }
    return CompletionResult(inner, inner_used, completed, win, diagnostics)


def completion_along_set(a: DgAlgebra, s: Sequence[DgModule], caps: Caps,
                         inner_caps: Optional[Caps] = None,
                         window: Optional[Window] = None,
                         name: str = "") -> CompletionResult:
    """Complete along a finite generator set.  The inner algebra of the
    direct sum is the category algebra of derived homs between the pairs,
    so a singleton set agrees with double_centralizer exactly."""
    mods = list(s)
    if not mods:
        raise ValueError("generator set must be nonempty")
    for m in mods:
        if m.algebra is not a:
            raise ValueError("generators must share the algebra being completed")
    total = mods[0]
    for m in mods[1:]:
        total = direct_sum_modules(total, m,
                                   name=f"{total.name or 'm'}⊕{m.name or 'm'}")
    return double_centralizer(a, total, caps, inner_caps=inner_caps,
                              window=window, name=name)
