"""Derived double centralizers and completion along finite sets of modules.

The completed algebra of a module m over a is the endomorphism algebra of m
taken over the opposite of its inner endomorphism algebra, opposed again.
The inner algebra is the derived endomorphism algebra REnd_a(m).  When m
carries the projective witness (a shift or finite sum of summands e·a), it
is K-projective, so REnd_a(m) = End_a(m) on the nose and the strict model
of module endomorphisms is the inner algebra: it keeps the outer complex
small and weight-connected, where the convolution model would force an
unreduced enumeration.  Without the witness the inner algebra is the
convolution algebra from the bar calculus.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .bar import (
    EndAlgebra, StrictEndAlgebra, _module_objects, end_algebra,
    reduction_data, stabilization_scan, strict_end_algebra,
)
from .dg import DgAlgebra, DgModule, direct_sum_modules
from .graded import Cohomology, Elt, Key, Window

Caps = Tuple[int, int]


def _check_caps(caps: Caps, what: str) -> Caps:
    n, w = int(caps[0]), int(caps[1])
    if n < 0 or w < 0:
        raise ValueError(f"{what} caps must be non-negative")
    return (n, w)


def _module_over_strict_opposite(strict: StrictEndAlgebra
                                 ) -> Tuple[DgAlgebra, DgModule]:
    """The defining module as a right module over the opposite of its strict
    endomorphism algebra, acting by signed evaluation."""
    m = strict.module
    f = m.field
    op = strict.opposite()
    action: Dict[Tuple[Key, Key], Elt] = {}
    for fk in strict.basis_keys():
        g = strict.map_of[fk]
        for mk, val in g.items():
            s = f.of(-1) if (fk[0] % 2 and mk[0] % 2) else f.one
            e = {q: f.mul(s, c) for q, c in val.items()}
            if e:
                action[(mk, fk)] = e
    return op, DgModule(op, m.complex, action, side="right",
                        name=f"{m.name}^" if m.name else "")


def _unreduced_fit(n_keys: int, slot_count: int, n_max: int,
                   budget: int) -> Tuple[int, int]:
    """Largest tuple length whose estimated cell count stays in budget."""
    best, est = 0, n_keys * n_keys
    labels = 1
    for p in range(1, n_max + 1):
        labels = labels * max(slot_count, 1) + 1
        cells = n_keys * n_keys * labels
        if cells > budget:
            break
        best, est = p, cells
    return best, est


def _dims_in(h: Cohomology, win: Window) -> Dict[Tuple[int, int], int]:
    return {dw: d for dw, d in h.dims_by_cell().items()
            if d and win.contains(*dw)}


class CompletionResult:
    """A completed algebra with its inner and outer models and diagnostics."""

    def __init__(self, algebra: DgAlgebra, module: DgModule,
                 inner: DgAlgebra, inner_used: str,
                 base: DgAlgebra, over: DgModule, outer: EndAlgebra,
                 completed: DgAlgebra,
                 caps: Caps, inner_caps: Caps, window: Window,
                 reduced_outer: bool, diagnostics: Dict):
        self.algebra = algebra
        self.module = module
        self.inner = inner
        self.inner_used = inner_used
        self.base = base
        self.over = over
        self.outer = outer
        self.completed = completed
        self.caps = caps
        self.inner_caps = inner_caps
        self.window = window
        self.reduced_outer = reduced_outer
        self.diagnostics = diagnostics

    def cohomology(self, window: Optional[Window] = None) -> Cohomology:
        return self.completed.complex.cohomology(window=window or self.window)

    def h_dims(self, window: Optional[Window] = None
               ) -> Dict[Tuple[int, int], int]:
        win = window or self.window
        return _dims_in(self.cohomology(win), win)


def double_centralizer(a: DgAlgebra, m: DgModule, caps: Caps,
                       inner_caps: Optional[Caps] = None,
                       window: Optional[Window] = None,
                       budget: int = 250_000,
                       name: str = "") -> CompletionResult:
    """Complete a along m: endomorphisms of m over the opposite of End(m).

    The inner algebra is built once.  A module with the projective witness
    takes the strict model, exact by Yoneda wherever m's space is known, so
    it is marked complete only when m is fully known and certifies nothing
    otherwise; any other module takes the convolution model at inner_caps.
    ``diagnostics["strict"]`` records the witness behind the choice.
    Certificates on the result hold exactly where the outer scheme could see
    complete inner columns, so the safety margin between the caps is what
    keeps the certified window honest.
    """
    if m.algebra is not a:
        raise ValueError("module is not over the algebra being completed")
    if m.side != "right":
        raise ValueError("completion needs a right module")
    n_out, w_out = _check_caps(caps, "outer")
    if inner_caps is None:
        inner_caps = (w_out + 2, w_out + 2)
    n_in, w_in = _check_caps(inner_caps, "inner")
    if w_in < w_out + 2:
        raise ValueError("inner caps must clear the outer weight cap by at least 2")

    known = m.space.fully_known()
    if m.projective:
        inner_used = "strict"
        inner = strict_end_algebra(m)
        if known:
            inner.space.mark_all_complete()
        else:
            inner.space.zero_outside = False  # known nowhere
        base, over = _module_over_strict_opposite(inner)
    else:
        inner_used = "bar"
        inner = end_algebra(m, n_in, w_cap=w_in, name=f"End({m.name})")
        over = inner.module_over_opposite()
        base = over.algebra

    outer_caps = (n_out, w_out)
    red = reduction_data(base)
    reduced = red is not None and _module_objects(over, red, "right") is not None
    budget_note = None
    if not reduced:
        fit, est = _unreduced_fit(len(over.basis_keys()),
                                  len(base.basis_keys()), n_out, budget)
        if fit < n_out:
            budget_note = {"requested": n_out, "used": fit,
                           "estimated_cells": est}
            outer_caps = (fit, w_out)

    outer = end_algebra(over, outer_caps[0], w_cap=outer_caps[1],
                        name=f"End²({m.name})")
    completed = outer.opposite()
    completed.name = name or f"completion({m.name})"
    win = window or Window(-max(2, outer_caps[0]),
                           max(2, outer_caps[0]) + 1, w_out)

    scan = None
    if not reduced and outer_caps[0] >= 1:
        lo = outer_caps[0] - 1 if outer_caps[0] > 1 else 1
        pair = sorted({lo, outer_caps[0]})

        def at_cap(c: int) -> Cohomology:
            return end_algebra(over, c, w_cap=outer_caps[1]
                               ).complex.cohomology(window=win)

        scan = stabilization_scan(at_cap, pair) if len(pair) > 1 else None

    failures = []
    if not reduced:
        h = completed.complex.cohomology(window=win)
        failures = [dw for dw in win.grid()
                    if not h.certificate.exact_at(dw[0], dw[1])]
    diagnostics = {
        "strict": {"witness": m.projective, "module_known": known},
        "outer": {"reduced": reduced, "caps_used": outer_caps,
                  "budget": budget_note, "scan": scan},
        "failure_bidegrees": failures,
    }

    return CompletionResult(a, m, inner, inner_used,
                            base, over, outer, completed,
                            (n_out, w_out), (n_in, w_in), win, reduced,
                            diagnostics)


def completion_along_set(a: DgAlgebra, s: Sequence[DgModule], caps: Caps,
                         inner_caps: Optional[Caps] = None,
                         window: Optional[Window] = None,
                         budget: int = 250_000,
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
    if len(mods) == 1:
        return double_centralizer(a, mods[0], caps, inner_caps=inner_caps,
                                  window=window, budget=budget, name=name)
    total = mods[0]
    for m in mods[1:]:
        total = direct_sum_modules(total, m,
                                   name=f"{total.name or 'm'}⊕{m.name or 'm'}")
    return double_centralizer(a, total, caps, inner_caps=inner_caps,
                              window=window, budget=budget, name=name)
