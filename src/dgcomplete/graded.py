"""Bigraded spaces and cochain complexes inside a truncation window.

Basis keys are triples (degree, weight, index).  Elements are sparse dicts
mapping keys to scalars.  Every space tracks which (degree, weight) cells are
fully known: a "complete" weight column means the stored cells are all there
is at that weight, a partial column carries a known degree interval, and
anything else is unknown.  Certificates for cohomology are derived from that
knowledge: a bidegree is exact only when the cells at degrees d-1, d, d+1 of
its weight are fully known.  A certificate is that rule applied to the
known degree interval of each weight over the probed region (the held cells
and the window grid), so computing cohomology costs what the complex holds,
not the size of the window.  The d², chain-map and functoriality checks all
compare maps through ``GradedMap.differs_at``: the first source cell where
one map and ± the other differ.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .linalg import Echelon, Field, Scalar, SparseMatrix, _add, _axpy, _reduce

Key = Tuple[int, int, int]  # (degree, weight, index)
Elt = Dict[Key, Scalar]


class Window:
    """Truncation window: degrees dmin..dmax, weights |w| <= wmax."""

    __slots__ = ("dmin", "dmax", "wmax")

    def __init__(self, dmin: int, dmax: int, wmax: int):
        if dmin > dmax or wmax < 0:
            raise ValueError(f"bad window ({dmin},{dmax},{wmax})")
        self.dmin = dmin
        self.dmax = dmax
        self.wmax = wmax

    def degrees(self) -> range:
        return range(self.dmin, self.dmax + 1)

    def weights(self) -> range:
        return range(-self.wmax, self.wmax + 1)

    def grid(self):
        for d in self.degrees():
            for w in self.weights():
                yield (d, w)

    def __eq__(self, other):
        return (isinstance(other, Window) and (self.dmin, self.dmax, self.wmax)
                == (other.dmin, other.dmax, other.wmax))

    def __repr__(self):
        return f"Window({self.dmin}, {self.dmax}, wmax={self.wmax})"


class BiGradedSpace:
    """Finite-dimensional cells indexed by (degree, weight) with ordered labels."""

    def __init__(self, field: Field):
        self.field = field
        self.cells: Dict[Tuple[int, int], List] = {}
        self._index: Dict[Tuple[int, int], Dict] = {}
        # weight -> (lo, hi) known degree interval, None meaning unbounded.
        # Weights absent from known_cols: known zero if zero_outside, else unknown.
        self.known_cols: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self.zero_outside = True
        # certified empty rays: every weight strictly below known_zero_below
        # (resp. strictly above known_zero_above) has no cells at any cap
        self.known_zero_below: Optional[int] = None
        self.known_zero_above: Optional[int] = None
        self._keys: Optional[Tuple[Key, ...]] = None

    def add_cell(self, deg: int, wt: int, labels: Sequence) -> None:
        if (deg, wt) in self.cells:
            raise ValueError(f"duplicate cell ({deg},{wt})")
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"repeated labels in cell ({deg},{wt})")
        if labels:
            self.cells[(deg, wt)] = labels
            self._keys = None

    def basis_keys(self) -> Tuple[Key, ...]:
        """Every key, cell by cell in sorted order: built once until a cell
        is added, and a tuple, so no caller can edit it."""
        if self._keys is None:
            self._keys = tuple((d, w, i) for (d, w) in sorted(self.cells)
                               for i in range(len(self.cells[(d, w)])))
        return self._keys

    def dim(self, deg: int, wt: int) -> int:
        return len(self.cells.get((deg, wt), ()))

    def labels(self, deg: int, wt: int) -> List:
        return self.cells.get((deg, wt), [])

    def keys(self, deg: int, wt: int) -> List[Key]:
        return [(deg, wt, i) for i in range(self.dim(deg, wt))]

    def key_of(self, deg: int, wt: int, label) -> Key:
        index = self._index.get((deg, wt))
        if index is None:  # each cell is indexed on first use
            index = self._index[(deg, wt)] = {
                lbl: i for i, lbl in enumerate(self.cells[(deg, wt)])}
        return (deg, wt, index[label])

    def label_of(self, key: Key):
        return self.cells[(key[0], key[1])][key[2]]

    def weights(self) -> List[int]:
        return sorted({w for (_, w) in self.cells})

    def total_dim(self) -> int:
        return sum(len(v) for v in self.cells.values())

    # -- knowledge tracking ------------------------------------------------

    def mark_all_complete(self) -> None:
        self.known_cols = {w: (None, None) for w in self.weights()}
        self.zero_outside = True

    def set_known(self, wt: int, lo: Optional[int] = None, hi: Optional[int] = None) -> None:
        self.known_cols[wt] = (lo, hi)

    def _ray_known(self, wt: int) -> bool:
        below = self.known_zero_below is not None and wt < self.known_zero_below
        above = self.known_zero_above is not None and wt > self.known_zero_above
        if not (below or above):
            return False
        return all(w != wt for (_, w) in self.cells)

    def known_degrees(self, weights: Iterable[int]
                      ) -> Dict[int, Optional[Tuple[Optional[int], Optional[int]]]]:
        """The known degree interval (lo, hi) of each weight, None meaning
        unbounded, or None where nothing at that weight is known.  A weight
        in a certified empty ray that holds no cell is known everywhere."""
        occupied = {w for (_, w) in self.cells}
        below, above = self.known_zero_below, self.known_zero_above
        out: Dict[int, Optional[Tuple[Optional[int], Optional[int]]]] = {}
        for w in weights:
            iv = self.known_cols.get(w)
            if (((below is not None and w < below)
                 or (above is not None and w > above)) and w not in occupied):
                iv = (None, None)
            elif iv is None and self.zero_outside:
                iv = (None, None)
            out[w] = iv
        return out

    def column_complete(self, wt: int) -> bool:
        iv = self.known_cols.get(wt)
        if iv == (None, None):
            return True
        if self._ray_known(wt):
            return True
        if iv is not None:
            return False
        return self.zero_outside

    def fully_known(self) -> bool:
        return self.zero_outside and all(
            self.column_complete(w) for w in self.weights())

    def copy_knowledge_from(self, other: "BiGradedSpace", deg_offset: int = 0) -> None:
        self.zero_outside = other.zero_outside
        self.known_zero_below = other.known_zero_below
        self.known_zero_above = other.known_zero_above
        self.known_cols = {}
        for w, (lo, hi) in other.known_cols.items():
            self.known_cols[w] = (None if lo is None else lo - deg_offset,
                                  None if hi is None else hi - deg_offset)


def meet_knowledge(space: BiGradedSpace,
                   parts: Sequence[Tuple[BiGradedSpace, int]]) -> None:
    """Set space's knowledge to: known at (d,w) iff every (part, off) knows (d+off, w)."""
    space.zero_outside = all(p.zero_outside for p, _ in parts)
    cols: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
    weights = set()
    for p, _ in parts:
        weights.update(p.known_cols)
    for w in weights:
        lo: Optional[int] = None
        hi: Optional[int] = None
        ok = True
        for p, off in parts:
            if p._ray_known(w):
                continue
            iv = p.known_cols.get(w)
            if iv is None:
                if not p.zero_outside:
                    ok = False
                    break
                continue
            plo, phi = iv
            if plo is not None:
                cand = plo - off
                lo = cand if lo is None else max(lo, cand)
            if phi is not None:
                cand = phi - off
                hi = cand if hi is None else min(hi, cand)
        if ok and (lo is None or hi is None or lo <= hi):
            cols[w] = (lo, hi)
    space.known_cols = cols
    lows = [p.known_zero_below for p, _ in parts]
    space.known_zero_below = (
        min(lows) if lows and all(b is not None for b in lows) else None)
    highs = [p.known_zero_above for p, _ in parts]
    space.known_zero_above = (
        max(highs) if highs and all(b is not None for b in highs) else None)


# -- element helpers -------------------------------------------------------

def elt_add(field: Field, a: Elt, b: Elt) -> Elt:
    out = dict(a)
    for k, v in b.items():
        _add(out, k, v, field.char)
    return out

def elt_scale(field: Field, s: Scalar, a: Elt) -> Elt:
    if field.is_zero(s):
        return {}
    return {k: field.mul(s, v) for k, v in a.items()}

def elt_axpy(field: Field, acc: Elt, s: Scalar, a: Elt) -> None:
    """In-place acc += s * a."""
    if field.is_zero(s):
        return
    for k, v in a.items():
        _add(acc, k, s * v, field.char)


class GradedMap:
    """Map of bigraded spaces with fixed degree/weight shift, stored blockwise.

    Blocks are keyed by the source cell (deg, wt); the block matrix has one
    column per source label and one row per target label at
    (deg + deg_shift, wt + wt_shift).  Missing blocks are zero.
    """

    def __init__(self, source: BiGradedSpace, target: BiGradedSpace,
                 deg_shift: int = 0, wt_shift: int = 0):
        self.source = source
        self.target = target
        self.deg_shift = deg_shift
        self.wt_shift = wt_shift
        self.blocks: Dict[Tuple[int, int], SparseMatrix] = {}

    def target_cell(self, deg: int, wt: int) -> Tuple[int, int]:
        return (deg + self.deg_shift, wt + self.wt_shift)

    def block_at(self, deg: int, wt: int) -> Optional[SparseMatrix]:
        return self.blocks.get((deg, wt))

    def ensure_block(self, deg: int, wt: int) -> SparseMatrix:
        b = self.blocks.get((deg, wt))
        if b is None:
            td, tw = self.target_cell(deg, wt)
            b = SparseMatrix(self.target.dim(td, tw), self.source.dim(deg, wt),
                             self.source.field)
            self.blocks[(deg, wt)] = b
        return b

    def set_entry(self, src_key: Key, tgt_key: Key, value) -> None:
        d, w, i = src_key
        td, tw, j = tgt_key
        if (td, tw) != self.target_cell(d, w):
            raise ValueError(f"target key {tgt_key} inconsistent with shift from {src_key}")
        self.ensure_block(d, w)[j, i] = value

    def add_entry(self, src_key: Key, tgt_key: Key, value) -> None:
        d, w, i = src_key
        td, tw, j = tgt_key
        if (td, tw) != self.target_cell(d, w):
            raise ValueError(f"target key {tgt_key} inconsistent with shift from {src_key}")
        self.ensure_block(d, w).add_to(j, i, value)

    def set_column(self, src_key: Key, value: Elt) -> None:
        d, w, i = src_key
        td, tw = self.target_cell(d, w)
        b = self.ensure_block(d, w)
        for (kd, kw, j), v in value.items():
            if (kd, kw) != (td, tw):
                raise ValueError(f"column value off-cell: {(kd, kw)} vs {(td, tw)}")
            b[j, i] = v

    def column(self, src_key: Key) -> Elt:
        d, w, i = src_key
        b = self.blocks.get((d, w))
        if b is None:
            return {}
        td, tw = self.target_cell(d, w)
        return {(td, tw, r): v for (r, c), v in b.entries.items() if c == i}

    def apply(self, elt: Elt) -> Elt:
        f = self.source.field
        by_cell: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for (d, w, i), v in elt.items():
            by_cell.setdefault((d, w), {})[i] = v
        out: Elt = {}
        for (d, w), vec in by_cell.items():
            b = self.blocks.get((d, w))
            if b is None:
                continue
            td, tw = self.target_cell(d, w)
            for r, v in b.apply(vec).items():
                _add(out, (td, tw, r), v, f.char)
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        out = GradedMap(other.source, self.target,
                        self.deg_shift + other.deg_shift,
                        self.wt_shift + other.wt_shift)
        for (d, w), ob in other.blocks.items():
            sb = self.blocks.get(other.target_cell(d, w))
            if sb is None:
                continue
            prod = sb.mul(ob)
            if not prod.is_zero():
                out.blocks[(d, w)] = prod
        return out

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def differs_at(self, other: "GradedMap", sign: int = 1) -> Optional[Tuple[int, int]]:
        """The first source cell, in sorted order, where self and sign·other
        differ, or None; a missing block is zero, and shifts are not read."""
        f = self.source.field
        for cell in sorted(self.blocks.keys() | other.blocks.keys()):
            a, b = self.blocks.get(cell), other.blocks.get(cell)
            mine, theirs = a.entries if a else {}, b.entries if b else {}
            if any(not f.is_zero(mine.get(at, 0) - sign * theirs.get(at, 0))
                   for at in mine.keys() | theirs.keys()):
                return cell
        return None

    def same_blocks(self, other: "GradedMap") -> bool:
        return ((self.deg_shift, self.wt_shift) == (other.deg_shift, other.wt_shift)
                and self.differs_at(other) is None)


class Certificate:
    """Exactness of each probed bidegree, by rule: (d, w) is exact when the
    known degree interval of weight w holds d-1, d and d+1, and
    window-limited otherwise.  The probed region is the held cells and the
    window grid, cut at wmax; a cell outside it is window-limited.

    ``known`` maps each weight the region reaches to its interval
    (``BiGradedSpace.known_degrees``).  ``status`` lists every probed cell
    with its flag, built when first read."""

    def __init__(self, known: Dict[int, Optional[Tuple[Optional[int], Optional[int]]]],
                 held: Iterable[Tuple[int, int]], window: Optional[Window] = None,
                 wmax: Optional[int] = None):
        self._known = known
        self._held = frozenset(held)
        self._window = window
        self._wmax = wmax
        self._status: Optional[Dict[Tuple[int, int], bool]] = None

    def _probed(self, deg: int, wt: int) -> bool:
        if self._wmax is not None and abs(wt) > self._wmax:
            return False
        win = self._window
        return (deg, wt) in self._held or (
            win is not None and win.dmin <= deg <= win.dmax and abs(wt) <= win.wmax)

    def exact_at(self, deg: int, wt: int) -> bool:
        if not self._probed(deg, wt):
            return False
        iv = self._known[wt]
        return (iv is not None and (iv[0] is None or iv[0] <= deg - 1)
                and (iv[1] is None or deg + 1 <= iv[1]))

    @property
    def status(self) -> Dict[Tuple[int, int], bool]:
        if self._status is None:
            probe = set(self._held)
            if self._window is not None:
                probe.update(self._window.grid())
            self._status = {c: self.exact_at(*c) for c in sorted(probe)
                            if self._probed(*c)}
        return self._status


class Cohomology:
    """Cohomology of a complex: dimensions, certificate, representatives.

    ``representatives`` is computed on first read, per nonzero cell (d, w),
    from the blocks of the complex's d at (d, w) and (d-1, w).  The same
    pass keeps, per cell, the echelon of the image of d with each
    representative inserted under its own tag column, from which
    ``project`` reads the class of a cocycle."""

    def __init__(self, space: BiGradedSpace, certificate: Certificate,
                 complex: "CochainComplex"):
        self.space = space
        self.certificate = certificate
        self._complex = complex
        self._reps: Optional[Dict[Key, Elt]] = None
        # per cell: its dimension n in the complex, and the pivot rows of
        # its tagged echelon, where class i is tag column n + i
        self._tagged: Dict[Tuple[int, int], Tuple[int, Dict]] = {}

    @property
    def representatives(self) -> Dict[Key, Elt]:
        """Cocycles whose classes are a basis of each cell: the kernel basis
        vectors of d at (d, w) that enlarge the image of d at (d-1, w)."""
        if self._reps is None:
            self._reps = {}
            f = self.space.field
            block_at = self._complex.differential_block
            for (d, w) in sorted(self.space.cells):
                block = block_at(d, w)
                n = block.cols
                pivots = _image_echelon(block_at(d - 1, w)).pivots
                chosen: List[Dict[int, Scalar]] = []
                for v in block.kernel_basis():
                    # the tag sits right of every column of the cell, so the
                    # cell's columns reduce as they would untagged; a vector
                    # the image and earlier choices span leaves a tag pivot
                    row = dict(v)
                    row[n + len(chosen)] = f.one
                    pc = _reduce(f, pivots, row)
                    if pc < n:
                        chosen.append(v)
                    else:
                        del pivots[pc]
                self._tagged[(d, w)] = (n, pivots)
                for i, v in enumerate(chosen):
                    self._reps[(d, w, i)] = {(d, w, c): x for c, x in sorted(v.items())}
        return self._reps

    def project(self, z: Elt) -> Elt:
        """p: the class of a cocycle z in the basis of ``representatives``.

        Each cell of z is reduced against that cell's tagged echelon until
        only tags are left, which are minus its coordinates.  A cell with no
        class is dropped, since a cocycle there is a coboundary; a cell whose
        part of z is no cocycle raises ValueError."""
        self.representatives  # builds the tagged echelons on first read
        f = self.space.field
        p = f.char
        by_cell: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for (d, w, i), v in z.items():
            by_cell.setdefault((d, w), {})[i] = v
        out: Elt = {}
        for cell, r in by_cell.items():
            tagged = self._tagged.get(cell)
            if tagged is None:
                continue
            n, pivots = tagged
            while r:
                c = min(r)
                if c >= n:
                    break
                row = pivots.get(c)
                if row is None:
                    raise ValueError(f"not a cocycle at {cell}")
                _axpy(r, r.pop(c), row, p)
            for c, v in r.items():
                out[(cell[0], cell[1], c - n)] = f.neg(v)
        return out

    def dim(self, deg: int, wt: int) -> int:
        return self.space.dim(deg, wt)

    def dims_by_cell(self) -> Dict[Tuple[int, int], int]:
        return {cell: len(lbls) for cell, lbls in sorted(self.space.cells.items())}


def _image_echelon(m: SparseMatrix) -> Echelon:
    """Echelon of the columns of m, inserted in column order."""
    cols: Dict[int, Dict[int, Scalar]] = {}
    for (r, c), v in m.entries.items():
        cols.setdefault(c, {})[r] = v
    ech = Echelon(m.field)
    for c in sorted(cols):
        ech.insert(cols[c])
    return ech


class CochainComplex:
    """A bigraded space with a degree +1, weight 0 differential."""

    def __init__(self, space: BiGradedSpace, differential: Optional[GradedMap] = None):
        self.space = space
        if differential is None:
            differential = GradedMap(space, space, 1, 0)
        if (differential.deg_shift, differential.wt_shift) != (1, 0):
            raise ValueError("differential must have degree +1, weight 0")
        self.d = differential

    @property
    def field(self) -> Field:
        return self.space.field

    def validate_d2(self) -> Optional[Tuple[int, int]]:
        """First source cell where d∘d is nonzero, or None."""
        return self.d.compose(self.d).differs_at(GradedMap(self.space, self.space, 2, 0))

    def differential_block(self, deg: int, wt: int) -> SparseMatrix:
        b = self.d.block_at(deg, wt)
        if b is not None:
            return b
        return SparseMatrix(self.space.dim(deg + 1, wt), self.space.dim(deg, wt),
                            self.field)

    def cohomology_dim(self, deg: int, wt: int) -> int:
        """n - rank d_{deg,wt} - rank d_{deg-1,wt}, which is dim H^{deg,wt} when
        d∘d = 0.  Blocks cache their ranks, so each is eliminated once."""
        n = self.space.dim(deg, wt)
        blocks = (self.d.block_at(deg, wt), self.d.block_at(deg - 1, wt))
        return n and n - sum(b.rank() for b in blocks if b is not None)

    def _ranks(self, wmax: Optional[int] = None) -> Dict[Tuple[int, int], int]:
        """Rank of every block of d with |w| <= wmax (all when None), one
        weight column at a time from the top degree down.  Clearing: the
        pivot columns of d at (d, w) name rows of d at (d-1, w) that its
        other rows span when d∘d = 0, so ``SparseMatrix.rank`` skips them."""
        ranks: Dict[Tuple[int, int], int] = {}
        above: Optional[Tuple[int, int]] = None
        pivots: Set[int] = set()
        cells = [c for c in self.d.blocks if wmax is None or abs(c[1]) <= wmax]
        for (d, w) in sorted(cells, key=lambda cell: (cell[1], -cell[0])):
            skip = pivots if above == (d + 1, w) else frozenset()
            pivots = set()
            ranks[(d, w)] = self.d.blocks[(d, w)].rank(skip, pivots)
            above = (d, w)
        return ranks

    def cohomology(self, window: Optional[Window] = None,
                   wmax: Optional[int] = None) -> Cohomology:
        """Dimensions n - rank d_{d,w} - rank d_{d-1,w}, which assumes d∘d = 0
        (``validate_d2`` checks it), as do the ranks themselves: each weight
        column is eliminated top-down with clearing (``_ranks``).
        Representatives are computed when read.

        The loop runs over the cells the complex holds, since any other cell
        has no cohomology.  The certificate is a rule over the known degree
        interval of each weight and the probed region, the held cells and
        the window grid: no cell of the window is visited to certify it.

        With wmax, only the weight columns |w| <= wmax are computed, and the
        cohomology's space knows nothing of the others.  Its knowledge is
        the complex's, one degree in from each end of a known interval, and
        it keeps the complex's certified empty rays."""
        hspace = BiGradedSpace(self.field)
        ranks = self._ranks(wmax) if self.d.blocks else {}
        weights = {w for (_, w) in self.space.cells}
        if window is not None:
            weights.update(window.weights())
        if wmax is not None:
            weights = range(-wmax, wmax + 1)
        known = self.space.known_degrees(weights)
        cert = Certificate(known, self.space.cells, window, wmax)
        # a cell the complex does not hold has no cohomology; each class
        # cell is a fresh list over the shared labels h0, h1, ..., distinct
        # by construction
        names: List[str] = []
        for (d, w), labels in sorted(self.space.cells.items()):
            if wmax is not None and abs(w) > wmax:
                continue
            n = len(labels)
            h = n and n - ranks.get((d, w), 0) - ranks.get((d - 1, w), 0)
            if h > 0:
                names.extend(f"h{i}" for i in range(len(names), h))
                hspace.cells[(d, w)] = names[:h]
        if wmax is None:
            hspace.zero_outside = self.space.zero_outside
            cols = self.space.known_cols
        else:
            hspace.zero_outside = False
            cols = {w: iv for w, iv in known.items() if iv is not None}
        hspace.known_cols = {
            w: (None if lo is None else lo + 1, None if hi is None else hi - 1)
            for w, (lo, hi) in cols.items()
        }
        hspace.known_zero_below = self.space.known_zero_below
        hspace.known_zero_above = self.space.known_zero_above
        return Cohomology(hspace, cert, self)

    def shift(self, n: int) -> "CochainComplex":
        """c[n]: degree d piece = c's degree d+n piece; differential times (-1)^n."""
        f = self.field
        sp = BiGradedSpace(f)
        for (d, w), lbls in self.space.cells.items():
            sp.add_cell(d - n, w, lbls)
        sp.copy_knowledge_from(self.space, deg_offset=n)
        dd = GradedMap(sp, sp, 1, 0)
        for (d, w), b in self.d.blocks.items():
            if not b.is_zero():
                dd.blocks[(d - n, w)] = SparseMatrix(b.rows, b.cols, f, {
                    at: f.neg(v) if n % 2 else v for at, v in b.entries.items()})
        return CochainComplex(sp, dd)

    def direct_sum(self, other: "CochainComplex") -> "CochainComplex":
        f = self.field
        sp = BiGradedSpace(f)
        cells = sorted(set(self.space.cells) | set(other.space.cells))
        for (d, w) in cells:
            lbls = ([("L", l) for l in self.space.labels(d, w)]
                    + [("R", l) for l in other.space.labels(d, w)])
            sp.add_cell(d, w, lbls)
        meet_knowledge(sp, [(self.space, 0), (other.space, 0)])
        dd = GradedMap(sp, sp, 1, 0)
        for tag, part in (("L", self), ("R", other)):
            for (d, w), b in part.d.blocks.items():
                for (r, c), v in b.entries.items():
                    sk = sp.key_of(d, w, (tag, part.space.labels(d, w)[c]))
                    tk = sp.key_of(d + 1, w, (tag, part.space.labels(d + 1, w)[r]))
                    dd.add_entry(sk, tk, v)
        return CochainComplex(sp, dd)


def _columns(d: GradedMap) -> Dict[Key, List[Tuple[Key, Scalar]]]:
    """Every nonzero column of d, reading each block once."""
    out: Dict[Key, List[Tuple[Key, Scalar]]] = {}
    for (sd, sw), b in d.blocks.items():
        td, tw = d.target_cell(sd, sw)
        for (r, c), v in b.entries.items():
            out.setdefault((sd, sw, c), []).append(((td, tw, r), v))
    return out


def _install(field: Field, cells: Dict[Tuple[int, int], List],
             entries: Dict[Tuple[int, int], Dict[Tuple[int, int], Scalar]]
             ) -> CochainComplex:
    """The complex on cells {(d, w): labels} with no knowledge set, whose d
    has each nonempty entries[(d, w)] as its block: every entry (row, col),
    a place being its label's index in its cell, is final and nonzero."""
    sp = BiGradedSpace(field)
    held = sp.cells = {cell: cells[cell] for cell in sorted(cells)}
    sp.zero_outside = False
    cx = CochainComplex(sp)
    blocks = cx.d.blocks
    for (d, w), labels in held.items():
        block = entries.get((d, w))
        if block:
            b = SparseMatrix(len(held[d + 1, w]), len(labels), field)
            b.entries = block
            blocks[(d, w)] = b
    return cx


def induced_rank(f: GradedMap, src: "CochainComplex", tgt: "CochainComplex",
                 deg: int, wt: int) -> int:
    """Rank of the map a chain map induces on cohomology at (deg, wt).

    It is 0 at once when the source or target cell has no cohomology by
    ``cohomology_dim``: exact for a chain map between complexes with d∘d = 0."""
    td, tw = deg + f.deg_shift, wt + f.wt_shift
    if src.cohomology_dim(deg, wt) == 0 or tgt.cohomology_dim(td, tw) == 0:
        return 0
    ker = src.differential_block(deg, wt).kernel_basis()
    ech = _image_echelon(tgt.differential_block(td - 1, tw))
    rank = 0
    for v in ker:
        img = f.apply({(deg, wt, i): s for i, s in v.items()})
        if ech.insert({k[2]: s for k, s in img.items()}):
            rank += 1
    return rank


def is_chain_map(f: GradedMap, d_src: GradedMap, d_tgt: GradedMap) -> Optional[Tuple[int, int]]:
    """First cell where d∘f = (-1)^{deg f} f∘d fails, or None if a chain map."""
    return d_tgt.compose(f).differs_at(f.compose(d_src), -1 if f.deg_shift % 2 else 1)


def cone(f: GradedMap, src: CochainComplex, tgt: CochainComplex) -> CochainComplex:
    """Mapping cone of a degree-0, weight-0 chain map f: src -> tgt.

    cone^d = src^{d+1} ⊕ tgt^d with d(a, b) = (-d a, f(a) + d b).
    """
    if (f.deg_shift, f.wt_shift) != (0, 0):
        raise ValueError("cone expects a degree-0, weight-0 map")
    bad = is_chain_map(f, src.d, tgt.d)
    if bad is not None:
        raise ValueError(f"not a chain map at cell {bad}")
    fld = src.field
    sp = BiGradedSpace(fld)
    cells = sorted({(d - 1, w) for (d, w) in src.space.cells} | set(tgt.space.cells))
    for (d, w) in cells:
        lbls = ([("A", l) for l in src.space.labels(d + 1, w)]
                + [("B", l) for l in tgt.space.labels(d, w)])
        sp.add_cell(d, w, lbls)
    meet_knowledge(sp, [(src.space, 1), (tgt.space, 0)])
    dd = GradedMap(sp, sp, 1, 0)
    minus = fld.of(-1)
    for (d, w) in cells:
        for l in src.space.labels(d + 1, w):
            sk = sp.key_of(d, w, ("A", l))
            akey = src.space.key_of(d + 1, w, l)
            for tk, v in src.d.column(akey).items():
                dd.add_entry(sk, sp.key_of(d + 1, w, ("A", src.space.label_of(tk))),
                             fld.mul(minus, v))
            for tk, v in f.column(akey).items():
                dd.add_entry(sk, sp.key_of(d + 1, w, ("B", tgt.space.label_of(tk))), v)
        for l in tgt.space.labels(d, w):
            sk = sp.key_of(d, w, ("B", l))
            for tk, v in tgt.d.column(tgt.space.key_of(d, w, l)).items():
                dd.add_entry(sk, sp.key_of(d + 1, w, ("B", tgt.space.label_of(tk))), v)
    return CochainComplex(sp, dd)

