"""Exact sparse linear algebra over the rationals or a prime field.

Everything downstream (cohomology ranks, kernel bases, solving for chain
homotopies and strict endomorphisms) reduces to the three operations in this
module: rank, kernel_basis, solve.  All arithmetic is exact; no floats ever
enter the pipeline.

Over QQ a scalar is a Python ``int`` while it is integral and a ``Fraction``
only once a non-integer appears; Python mixes the two exactly.  Every
division goes through ``Field.inv``, since ``int / int`` would give a float.

One private core, ``_reduce``, does every row reduction: it clears a row's
leading entry against the pivot rows until that entry is no pivot, which is
all ``Echelon.insert`` and ``SparseMatrix.rank`` need; a remainder led by 1
or -1 (p-1) is kept as the pivot row, negated for -1, so only other leads
take an inverse.  ``kernel_basis`` and ``solve`` then back-substitute once,
from the highest pivot down, to the reduced row echelon form.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import (
    AbstractSet, Dict, Iterable, List, Optional, Set, Tuple,
)

Scalar = object  # int or Fraction in characteristic 0, int in characteristic p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Coefficient field: the rationals (char 0) or ints mod a prime.

    A rational scalar is an ``int`` while integral and a ``Fraction`` otherwise;
    ``inv`` is the only place a scalar is divided."""

    __slots__ = ("char",)
    zero = 0
    one = 1

    def __init__(self, char: int = 0):
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        self.char = char

    def of(self, x) -> Scalar:
        """Coerce an int, Fraction, or 'n/d' string into the field."""
        if self.char == 0:
            if isinstance(x, int):
                return x
            x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/", 1)
                return (int(num) * self.inv(int(den) % self.char)) % self.char
            return int(x) % self.char
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.char}")
            return (x.numerator * self.inv(x.denominator % self.char)) % self.char
        return int(x) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.char == 0:
            return int(a) if a == 1 or a == -1 else Fraction(1, a)
        a = a % self.char
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.char - 2, self.char)

    def is_zero(self, a) -> bool:
        return a == 0 if self.char == 0 else a % self.char == 0

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


RATIONALS = Field(0)


def _add(entries: Dict, at, c: Scalar, p: int) -> None:
    """entries[at] += c, reduced mod p unless p is 0; a zero sum is dropped."""
    v = entries.get(at, 0) + c
    if p:
        v %= p
    if v:
        entries[at] = v
    else:
        entries.pop(at, None)


def _axpy(r: Dict[int, Scalar], a: Scalar, row: Dict[int, Scalar], p: int) -> None:
    """r -= a * row in place (mod p unless p is 0)."""
    for c, v in row.items():
        old = r.get(c)
        if old is None:
            r[c] = (-a * v) % p if p else -a * v
        else:
            s = (old - a * v) % p if p else old - a * v
            if s:
                r[c] = s
            else:
                del r[c]


def _reduce(field: Field, pivots: Dict[int, Dict[int, Scalar]],
            r: Dict[int, Scalar]) -> Optional[int]:
    """Reduce the sparse row r (consumed) against pivots until its leading
    entry is no pivot; the entries after it stay as they come.

    pivots maps each pivot column to its normalised row, the 1 left out, and
    every entry of a pivot row lies right of its pivot.  A nonzero remainder
    becomes the pivot of its leading column, which is returned; a zero
    remainder returns None.  Over GF(p) every entry of r is a residue in
    1..p-1, so a pivot row led by 1 or p-1 needs no inverse."""
    p = field.char
    while r:
        pc = min(r)
        row = pivots.get(pc)
        if row is None:
            lead = r.pop(pc)
            if lead == p - 1:
                for c in r:
                    r[c] = p - r[c]
            elif lead != 1:
                inv = field.inv(lead)
                r = {c: (inv * v) % p if p else inv * v for c, v in r.items()}
            pivots[pc] = r
            return pc
        _axpy(r, r.pop(pc), row, p)
    return None


class SparseMatrix:
    """Sparse matrix over an exact field, entries keyed by (row, col).

    Zero entries are never stored.  Elimination is deterministic: rows are
    inserted in index order and each new pivot is the lowest remaining column,
    so repeated runs produce identical pivots, kernels, and solutions.
    """

    __slots__ = ("rows", "cols", "field", "entries", "_rank")

    def __init__(self, rows: int, cols: int, field: Field,
                 entries: Optional[Dict[Tuple[int, int], Scalar]] = None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries: Dict[Tuple[int, int], Scalar] = {}
        self._rank: Optional[int] = None
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = field.of(v)

    def __setitem__(self, key: Tuple[int, int], value):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        self._rank = None
        if self.field.is_zero(value):
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def __getitem__(self, key: Tuple[int, int]) -> Scalar:
        return self.entries.get(key, self.field.zero)

    def add_to(self, r: int, c: int, value):
        self[r, c] = self.field.add(self[r, c], value)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.entries == other.entries)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        other_rows: Dict[int, List[Tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, []).append((c, v))
        out = SparseMatrix(self.rows, other.cols, f)
        for (r, c1), v1 in self.entries.items():
            for c2, v2 in other_rows.get(c1, ()):
                _add(out.entries, (r, c2), v1 * v2, f.char)
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        f = self.field
        out = SparseMatrix(self.rows, self.cols, f, dict(self.entries))
        for key, v in other.entries.items():
            out[key] = f.add(out[key], v)
        return out

    def scale(self, s) -> "SparseMatrix":
        f = self.field
        s = f.of(s)
        out = SparseMatrix(self.rows, self.cols, f)
        if f.is_zero(s):
            return out
        for key, v in self.entries.items():
            out.entries[key] = f.mul(s, v)
        return out

    def neg(self) -> "SparseMatrix":
        return self.scale(-1)

    def apply(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """Matrix times sparse column vector {index: scalar}."""
        out: Dict[int, Scalar] = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is not None:
                _add(out, r, v * x, self.field.char)
        return out

    def _row_dicts(self, skip_rows: AbstractSet[int] = frozenset(),
                   extra_col: Optional[Dict[int, Scalar]] = None
                   ) -> List[Dict[int, Scalar]]:
        """The rows that hold an entry, in index order, each {col: value},
        leaving out the rows in skip_rows; extra_col's nonzero entries join
        their rows at column self.cols."""
        rows: List[Optional[Dict[int, Scalar]]] = [None] * self.rows
        entries: Iterable = self.entries.items()
        if extra_col is not None:
            extra = (((r, self.cols), b) for r, b in extra_col.items()
                     if 0 <= r < self.rows and not self.field.is_zero(b))
            entries = chain(entries, extra)
        for (r, c), v in entries:
            if r not in skip_rows:
                row = rows[r]
                if row is None:
                    rows[r] = {c: v}
                else:
                    row[c] = v
        return [row for row in rows if row is not None]

    def _echelon(self, extra_col: Optional[Dict[int, Scalar]] = None, back: bool = True,
                 skip_rows: AbstractSet[int] = frozenset()):
        """Row-reduce, optionally with an augmented column (index = self.cols),
        leaving out the rows in skip_rows.

        Returns a dict pivot_col -> row dict (pivot coefficient normalized to 1
        and removed).  With back, one pass from the highest pivot down reduces
        it to the reduced row echelon form, so non-pivot entries involve only
        free columns and the augmented column.
        """
        rows = self._row_dicts(skip_rows, extra_col)
        pivots: Dict[int, Dict[int, Scalar]] = {}
        for row in rows:
            _reduce(self.field, pivots, row)
        if back:
            p = self.field.char
            for pc in sorted(pivots, reverse=True):
                row = pivots[pc]
                for c in [c for c in row if c in pivots]:
                    _axpy(row, row.pop(c), pivots[c], p)
        if extra_col is None:
            self._rank = len(pivots)
        return pivots

    def rank(self, skip_rows: AbstractSet[int] = frozenset(),
             pivot_cols: Optional[Set[int]] = None) -> int:
        """Rank, cached until an entry changes; needs no back-substitution.

        Clearing: the rows in skip_rows are left out, which keeps the rank
        when the rows kept span them.  The pivot columns of an e with
        e @ self == 0 are such rows (``CochainComplex.cohomology`` takes d∘d
        = 0 for it): a reduced row of e kills self's columns, so self's row at
        its leading column is a combination of later rows.  An elimination
        run here adds its pivot columns to pivot_cols; a cached rank adds none.
        """
        if self._rank is None:
            pivots = self._echelon(back=False, skip_rows=skip_rows)
            if pivot_cols is not None:
                pivot_cols.update(pivots)
        return self._rank

    def kernel_basis(self) -> List[Dict[int, Scalar]]:
        """Basis of the right kernel as sparse vectors {col: scalar}.

        Each vector is normalized so its lowest-index nonzero coordinate is 1;
        vectors are ordered by their free column.
        """
        f = self.field
        pivots = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis: List[Dict[int, Scalar]] = []
        for fc in free:
            v: Dict[int, Scalar] = {fc: f.one}
            for pc, row in pivots.items():
                coeff = row.get(fc)
                if coeff is not None and not f.is_zero(coeff):
                    v[pc] = f.neg(coeff)
            lead = min(v)
            inv = f.inv(v[lead])
            basis.append({c: f.mul(inv, x) for c, x in sorted(v.items())})
        return basis

    def solve(self, b: Dict[int, Scalar]) -> Optional[Dict[int, Scalar]]:
        """One solution x of self @ x = b with free coordinates 0, or None.

        Raises ValueError if b has an entry outside the rows of self."""
        f = self.field
        if any(not 0 <= r < self.rows for r in b):
            raise ValueError(f"right-hand side has rows outside 0..{self.rows - 1}")
        b = {r: f.of(v) for r, v in b.items() if not f.is_zero(f.of(v))}
        pivots = self._echelon(extra_col=b)
        if self.cols in pivots:
            return None  # pivot in the augmented column: inconsistent
        x: Dict[int, Scalar] = {}
        for pc, row in pivots.items():
            v = row.get(self.cols)
            if v is not None and not f.is_zero(v):
                x[pc] = v
        return x

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field!r}, {len(self.entries)} nonzero)"


class Echelon:
    """Incremental row echelon: feed sparse rows, track the growing rank."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: Dict[int, Dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: Dict[int, Scalar]) -> bool:
        """Reduce row against the current span; returns True if rank grew."""
        f, p = self.field, self.field.char
        r = {c: v % p if p else v for c, v in row.items() if not f.is_zero(v)}
        return _reduce(f, self.pivots, r) is not None

