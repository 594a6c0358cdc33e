"""Bigraded spaces and cochain complexes inside a truncation window.

Basis keys are triples (degree, weight, index).  Elements are sparse dicts
mapping keys to scalars.  What a space knows follows one rule: a weight
listed in ``known_cols`` is known on its degree interval, and an unlisted
weight is complete (its stored cells are all there is) unless it lies in
the one interval of weights ``unknown``, where nothing of it is known.
Only this module reads that rule.  Certificates for cohomology are derived
from it: a bidegree (d, w) is exact only when degrees d-1, d and d+1 of
weight w are known.  A certificate applies that test to the
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
Interval = Tuple[Optional[int], Optional[int]]  # (lo, hi), None unbounded


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
        # the one rule: known_cols maps a weight to its known degree
        # interval; an unlisted weight is unknown inside the weight
        # interval ``unknown`` and complete outside it (everywhere if None)
        self.known_cols: Dict[int, Interval] = {}
        self.unknown: Optional[Interval] = None
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
        self.known_cols = {}
        self.unknown = None

    def set_known(self, wt: int, lo: Optional[int] = None, hi: Optional[int] = None) -> None:
        self.known_cols[wt] = (lo, hi)

    def _interval(self, wt: int) -> Optional[Interval]:
        u = self.unknown
        inside = u is not None and (u[0] is None or u[0] <= wt) and (u[1] is None or wt <= u[1])
        return self.known_cols.get(wt, None if inside else (None, None))

    def known_degrees(self, weights: Iterable[int]) -> Dict[int, Optional[Interval]]:
        """The known degree interval (lo, hi) of each weight, None meaning
        unbounded, or None where nothing at that weight is known: its listed
        interval, else all of it outside ``unknown`` and nothing inside."""
        return {w: self._interval(w) for w in weights}

    def column_complete(self, wt: int) -> bool:
        return self._interval(wt) == (None, None)

    def fully_known(self) -> bool:
        """Nothing is unknown and every listed column is complete."""
        return self.unknown is None and all(
            iv == (None, None) for iv in self.known_cols.values())

    def side_certified_empty(self, side: int) -> bool:
        """Whether every weight of the sign of side is complete and holds no
        cell, so that no cap could add one: the unknown weights there,
        side..end, and all listed ones there must be listed complete."""
        u = self.unknown or (0, 0)  # none of either sign is unknown
        end = u[1] if side > 0 else u[0]
        return (end is not None and all(side * w <= 0 for (_, w) in self.cells)
                and all(self.column_complete(w) for w in range(side, end + side, side))
                and all(iv == (None, None) for w, iv in self.known_cols.items()
                        if side * w > 0))

    def copy_knowledge_from(self, other: "BiGradedSpace", deg_offset: int = 0) -> None:
        self.unknown = other.unknown
        self.known_cols = {w: tuple(None if e is None else e - deg_offset for e in iv)
                           for w, iv in other.known_cols.items()}


def _hull(ivs: Sequence[Optional[Interval]]) -> Optional[Interval]:
    """The least interval holding every given one, None for none."""
    ivs = [iv for iv in ivs if iv is not None]
    if not ivs:
        return None
    los, his = zip(*ivs)
    return (None if None in los else min(los), None if None in his else max(his))


def meet_knowledge(space: BiGradedSpace,
                   parts: Sequence[Tuple[BiGradedSpace, int]]) -> None:
    """Set space's knowledge to: known at (d,w) iff every (part, off) knows
    (d+off, w), except that the unknown weights are the hull of the parts'
    ones (a part that knows all adds none).  A weight a part lists that all
    know is listed with the meet of their intervals, even an empty one."""
    cols: Dict[int, Interval] = {}
    for w in set().union(*(p.known_cols for p, _ in parts)):
        ivs = [(p._interval(w), off) for p, off in parts]
        if all(iv is not None for iv, _ in ivs):
            los = [iv[0] - off for iv, off in ivs if iv[0] is not None]
            his = [iv[1] - off for iv, off in ivs if iv[1] is not None]
            cols[w] = (max(los, default=None), min(his, default=None))
    space.known_cols = cols
    space.unknown = _hull([p.unknown for p, _ in parts])


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

    def __init__(self, known: Dict[int, Optional[Interval]],
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

        Its space lists the complex's known columns, each one degree in from
        both ends, and has the complex's unknown weights.  With wmax, only
        the columns |w| <= wmax are computed: the space lists those the
        complex knows, and knows a heavier weight only outside the hull of
        the complex's unknown weights and of the cells and partial columns
        it holds past wmax; none when the complex has no unknown weights."""
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
            hspace.unknown = self.space.unknown
            cols = self.space.known_cols
        else:
            past = {w for (_, w) in self.space.cells}.union(
                w for w, iv in self.space.known_cols.items() if iv != (None, None))
            hspace.unknown = _hull([self.space.unknown or (None, None)]
                                   + [(w, w) for w in past if abs(w) > wmax])
            cols = {w: iv for w, iv in known.items() if iv is not None}
        hspace.known_cols = {
            w: (None if lo is None else lo + 1, None if hi is None else hi - 1)
            for w, (lo, hi) in cols.items()
        }
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
    """The complex on cells {(d, w): labels}, known nowhere, whose d
    has each nonempty entries[(d, w)] as its block: every entry (row, col),
    a place being its label's index in its cell, is final and nonzero."""
    sp = BiGradedSpace(field)
    held = sp.cells = {cell: cells[cell] for cell in sorted(cells)}
    sp.unknown = (None, None)
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

