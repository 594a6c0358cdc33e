"""Reference answers the benchmark owns, and the rule that scores a job.

Every reference here is derived from the mathematics of the input family,
or computed with plain rank counts on the input data; none reads the
scenario registry's ``expected`` entries.  A job's answer maps each
reference cell to ``(value, certified)``.  A certified cell whose value
differs from the reference fails the job; an uncertified cell only lowers
the certified fraction.
"""
from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple


def ext_weight(j: int, t: int) -> int:
    """Internal weight of the degree-j class of Ext or Tor of k over k[x]/(x^t).

    The minimal resolution of k alternates the generators x and x^(t-1),
    so generator j sits at weight (j // 2) * t + (j % 2).
    """
    return (j // 2) * t + (j % 2)


def grid(dmin: int, dmax: int, wmin: int, wmax: int):
    return [(d, w) for d in range(dmin, dmax + 1) for w in range(wmin, wmax + 1)]


def koszul_kx(cap: int) -> Dict:
    """k[x] completed along k is k[[x]]: one class at (0, w) for each w >= 0."""
    return {(d, w): int(d == 0 and 0 <= w <= cap)
            for d, w in grid(-2, 2, -cap, cap)}


def triangular(n: int, cap: int) -> Dict:
    """Completing the path algebra of 1 -> ... -> n along the sum of its
    simples returns the path algebra: n - w paths of length w, degree 0."""
    return {(d, w): (n - w if d == 0 and 0 <= w < n else 0)
            for d, w in grid(-2, 2, -cap, cap)}


def free_category(cap: int) -> Dict:
    """Every arrow of the free quiver category leaves Y2, so the column of Y1
    is spanned by its identity; the completion along it is the ground field."""
    return {(d, w): int((d, w) == (0, 0)) for d, w in grid(-2, 2, -cap, cap)}


def dual_numbers(cap: int) -> Dict:
    """P1 = e1 A is free of rank one over its endomorphisms B = k[eps]/eps^2
    (eps at (1, 1)), so the completion along P1 is B itself."""
    return {(d, w): int((d, w) in ((0, 0), (1, 1)))
            for d, w in grid(-2, 3, -cap, cap)}


def dual_numbers_op(cap: int) -> Dict:
    """Over the opposite algebra P1 = B.e1 + k.u with B = k[eps]/eps^2 and u
    at (0, 1) killed by eps.  P1 is projective, so the completion is
    REnd_B(B + k.u): End_B(B) = B at (0, 0) and (1, 1); Hom_B(B, k.u) at
    (0, 1); Hom_B(k.u, B) onto the socle at (1, 0); Ext_B(k, k) = k[y]
    with y at (0, -1)."""
    ref = {}
    for d, w in grid(-2, 3, -cap, cap):
        v = 0
        if d == 0 and w <= 0:
            v = 1 + (w == 0)
        elif (d, w) in ((0, 1), (1, 0), (1, 1)):
            v = 1
        ref[(d, w)] = v
    return ref


def ext_hom(t: Optional[int], n: int) -> Dict:
    """RHom(k, k) over k[x]/(x^t), or over k[x,y]/(x^2, y^2) when t is None
    (Ext is then a polynomial ring on two classes at (1, -1))."""
    ref = {}
    for d, w in grid(0, n, -n, 0):
        if t is None:
            ref[(d, w)] = d + 1 if w == -d else 0
        else:
            ref[(d, w)] = int(w == -ext_weight(d, t))
    return ref


def ext_tor(t: Optional[int], n: int) -> Dict:
    """Tor(k, k): the classes of ``ext_hom`` mirrored to (-j, weight)."""
    return {(-d, -w): v for (d, w), v in ext_hom(t, n).items()}


def bar_resolution(n: int) -> Dict:
    """A bar resolution of k is quasi-isomorphic to k, sitting at (0, 0)."""
    return {(d, w): int((d, w) == (0, 0)) for d, w in grid(-n, 0, 0, n)}


def infin_ext(t: int, lo: int, hi: int) -> Dict:
    """Tables of infin_ext_check for k over k[x]/(x^t) at tensor power 2.

    Left route: Tor(k, k), weight ext_weight(j) in degree -j.  Right route:
    k* is k moved to the socle weight t - 1, so the dual of Tor shifted by
    -(t - 1), in degree +j.  The two tables never share a cell, so the
    comparison map has rank 0 and the verdict is a non-isomorphism.
    """
    ref: Dict[Hashable, object] = {}
    for d in range(lo, hi + 1):
        ref[("left", d)] = {ext_weight(-d, t): 1} if d <= 0 else {}
        ref[("right", d)] = {-ext_weight(d, t) - (t - 1): 1} if d >= 0 else {}
        ref[("map_rank", d)] = {}
    ref[("verdict",)] = "non-isomorphism"
    return ref


def holim_h0(diag, sparse_matrix) -> Dict[int, int]:
    """Per weight, the dimension of the equalizer of the degree-0 cycles.

    With no negative internal degrees nothing bounds into total degree 0,
    so H^0 of the homotopy limit is {(v_x) : d v_x = 0, f_a(v_src) = v_tgt}.
    One plain rank count per weight: columns are the degree-0 basis vectors
    of every object, rows the internal differential and one block per arrow.
    """
    cat = diag.cat
    f = diag.field
    algebras = diag.algebras
    weights = sorted({k[1] for x in cat.objects for k in algebras[x].basis_keys()})
    out = {}
    for w in weights:
        cols = [(x, k) for x in cat.objects for k in algebras[x].basis_keys()
                if k == (0, w, k[2])]
        rows: Dict[Tuple, int] = {}
        entries: Dict[Tuple[int, int], object] = {}

        def bump(row_key, c, v):
            r = rows.setdefault(row_key, len(rows))
            entries[(r, c)] = f.add(entries.get((r, c), f.zero), v)

        for c, (x, k) in enumerate(cols):
            for tk, v in algebras[x].d({k: f.one}).items():
                bump(("d", x, tk), c, v)
            for nm in cat.arrows_from(x):
                for tk, v in diag.apply(nm, {k: f.one}).items():
                    bump(("arrow", nm, tk), c, v)
            for nm in cat.arrows_into(x):
                bump(("arrow", nm, k), c, f.of(-1))
        entries = {rc: v for rc, v in entries.items() if not f.is_zero(v)}
        mat = sparse_matrix(len(rows), len(cols), f, entries)
        out[w] = len(cols) - mat.rank()
    return out


def adic_tower(h0: Dict[int, int], dmax: int) -> Dict:
    """Equalizer H^0, and H^d = 0 for 1 <= d <= dmax: the tower's maps are
    onto, so the higher limits vanish."""
    ref = {}
    for w in h0:
        ref[(0, w)] = h0[w]
        for d in range(1, dmax + 1):
            ref[(d, w)] = 0
    return ref


def random_diagram(h0: Dict[int, int]) -> Dict:
    return {(0, w): v for w, v in h0.items()}


class Score:
    """Running totals over checked jobs."""

    def __init__(self):
        self.jobs = 0
        self.failed = 0
        self.wrong = 0
        self.cells = 0
        self.certified_right = 0
        self.first_error = None

    def add(self, ref: Dict, answer: Dict) -> bool:
        """Score one job's answer; True when no certified cell is wrong."""
        self.jobs += 1
        self.cells += len(ref)
        ok = True
        for cell, want in ref.items():
            got, certified = answer.get(cell, (None, False))
            if not certified:
                continue
            if got == want:
                self.certified_right += 1
            elif ok:
                ok = False
                if self.first_error is None:
                    self.first_error = f"cell {cell}: got {got!r}, want {want!r}"
        if not ok:
            self.wrong += 1
            self.failed += 1
        return ok

    def add_error(self, ref: Dict, message: str) -> None:
        """Score a job that raised: its reference cells count as missed."""
        self.jobs += 1
        self.cells += len(ref)
        self.failed += 1
        if self.first_error is None:
            self.first_error = message

    @property
    def cert_frac(self) -> float:
        return self.certified_right / self.cells if self.cells else 0.0

    @property
    def fail_frac(self) -> float:
        return self.failed / self.jobs if self.jobs else 0.0
