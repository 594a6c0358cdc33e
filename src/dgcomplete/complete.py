"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner algebra REnd_a(m), opposed again; the
construction is invariant under quasi-isomorphism of REnd_a(m), so any
model will do.  There are three, tried in this order (what m keeps is
listed on ``dg.DgModule``):

- strict: when m carries the projective witness (its summands e_j·a[n_j]
  and their inclusions), it is K-projective, so REnd_a(m) = End_a(m), which
  Yoneda reads off the witness as the sum of the m·e_j; m keeps it.
- witness: when m is semisimple (``bar._minimal_resolution``: k, the
  simples, their sums and shifts), Ext_a(m, m) = Hom_a(P, m) over its
  minimal resolution P with the Yoneda product (``bar.witness_model``), read
  to w_out plus m's weight spread, the weights the outer bar's columns
  reach, is REnd_a(m)'s minimal model where the purity check below holds.
  m keeps it per w_out.
- bar: the convolution algebra E itself at the inner caps, which bound only
  this model, built per call where m has no minimal resolution or the check fails
  (η at (2, -t) over k[x]/(x^t) once w_out reaches t).

Purity: every class lies on one line d = c·w and m on a parallel one.  A
transferred A∞ operation m_n has degree 2 - n and weight 0, so with inputs
and output on that line it vanishes unless n = 2; the higher actions on m
vanish the same way.  So the model is formal: Ext with d = 0 and Yoneda's
product, which is p∘μ∘(i⊗i) on H(E); no homotopy and no A∞ code are
needed.  Every model acts on m by evaluating its length-zero part
(``bar.InnerModel``), so the choice of model is the only branch.

The outer model is always the reduced bar, the only one whose cells can be
certified.  Where the inner algebra is not weight-connected over orthogonal
idempotents in degree 0 (mixed weight signs, weight-0 elements outside
degree 0) the completion raises the reduced bar's ValueError, which names
the failing condition, instead of returning a table with no certified cell.
"""
from __future__ import annotations

import operator
from typing import Dict, Optional, Sequence

from .bar import (
    Caps, _end_algebra, end_algebra, strict_end_algebra, witness_model,
)
from .dg import DgAlgebra, DgModule, direct_sum_modules
from .graded import Cohomology, Window


def _check_caps(caps: Caps, what: str) -> Caps:
    """caps as two non-negative ints: a non-integer or a bool anywhere, or a
    length other than two, raises ValueError rather than being read."""
    try:
        if any(isinstance(c, bool) for c in caps):
            raise TypeError
        n, w = (operator.index(c) for c in caps)
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


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    The inner model is the one the module docstring describes.  inner_caps
    bound only the bar model: they must clear w_out by at least 2 and
    default to that margin.  Caps are two non-negative integers, inner_caps
    too whenever given, though a projective module's strict model reads
    none.  ``diagnostics["strict"]`` records the projective witness,
    ``diagnostics["minimal"]`` the purity check's record (None where none
    ran), and ``diagnostics["witness"]`` why the call took the bar model:
    the resolution's refusal or the purity check's reason (else None).

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

    if m.projective:
        if m._strict is None:
            m._strict = strict_end_algebra(m)
        inner_used, inner, purity, why = "strict", m._strict, None, None
    else:
        if w_out not in m._witnesses:
            m._witnesses[w_out] = witness_model(m, w_out)
        inner, record = m._witnesses[w_out]
        purity = dict(record) if isinstance(record, dict) else None
        why = record if purity is None else purity["reason"]
        inner_used, inner = ("witness", inner) if inner is not None else (
            "bar", _end_algebra(m, n_in, w_in, keep=False))
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
        "witness": why,
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
