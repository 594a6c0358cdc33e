"""Exact linear algebra, cross-checked against sympy as an independent oracle."""
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from dgcomplete import linalg
from dgcomplete.bar import bar_resolution, derived_hom, derived_tensor
from dgcomplete.complete import double_centralizer
from dgcomplete.graded import BiGradedSpace, CochainComplex, Window
from dgcomplete.holim import holim
from dgcomplete.linalg import RATIONALS, Echelon, Field, SparseMatrix
from dgcomplete.models import build_scenario, random_diagram, truncated_poly
from test_bar import trivial_left
from test_holim import string_model


def to_sympy(m: SparseMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(m[r, c]))


def dense(data):
    """The rational matrix with the given rows."""
    return SparseMatrix(len(data), len(data[0]), RATIONALS,
                        {(r, c): v for r, row in enumerate(data)
                         for c, v in enumerate(row)})


def random_matrix(rng, rows, cols, field, density=0.5, span=5):
    m = SparseMatrix(rows, cols, field)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m[r, c] = field.of(rng.randint(-span, span))
    return m


def test_rank_frozen():
    m = dense([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_frozen():
    m = dense([[1, 1, 0], [0, 0, 1]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v == {0: Fraction(1), 1: Fraction(-1)}


def test_solve_frozen():
    m = dense([[2, 0], [0, 3]])
    x = m.solve({0: 4, 1: 6})
    assert x == {0: Fraction(2), 1: Fraction(2)}


def test_solve_inconsistent():
    m = dense([[1, 1], [1, 1]])
    assert m.solve({0: 1, 1: 2}) is None
    assert m.solve({0: 3, 1: 3}) is not None


@pytest.mark.parametrize("row", [3, 1, -1])
def test_solve_rejects_rows_outside_the_matrix(row):
    m = dense([[1]])
    with pytest.raises(ValueError):
        m.solve({0: 1, row: 1})


def test_field_of_parses_strings():
    assert RATIONALS.of("2/3") == Fraction(2, 3)
    f5 = Field(5)
    assert f5.of("2/3") == (2 * pow(3, 3, 5)) % 5
    assert f5.of(-1) == 4
    with pytest.raises(ValueError):
        Field(6)


def test_rank_nullity_random_rationals():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, RATIONALS)
        assert m.rank() + len(m.kernel_basis()) == cols
        assert m.rank() == to_sympy(m).rank()


def dense_rank_modp(rows_data, p):
    # independent oracle: dense elimination with row swaps
    a = [row[:] for row in rows_data]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] % p:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def test_rank_nullity_random_prime_field():
    rng = random.Random(13)
    f7 = Field(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, f7)
        r = m.rank()
        assert r + len(m.kernel_basis()) == cols
        assert r == dense_rank_modp([[m[i, j] for j in range(cols)] for i in range(rows)], 7)


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), RATIONALS)
        for v in m.kernel_basis():
            assert m.apply(v) == {}


def test_solve_verified_by_substitution():
    rng = random.Random(19)
    hits = 0
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), RATIONALS)
        x0 = {c: RATIONALS.of(rng.randint(-3, 3)) for c in range(m.cols)}
        b = m.apply(x0)
        x = m.solve(b)
        assert x is not None  # b constructed in the column span
        assert m.apply(x) == b
        hits += 1
    assert hits == 60


def test_mul_against_sympy():
    rng = random.Random(23)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), RATIONALS)
        b = random_matrix(rng, a.cols, rng.randint(1, 5), RATIONALS)
        prod = a.mul(b)
        assert to_sympy(prod) == to_sympy(a) * to_sympy(b)


def test_identity_and_apply():
    i3 = SparseMatrix(3, 3, RATIONALS, {(i, i): 1 for i in range(3)})
    assert i3.rank() == 3
    assert i3.apply({1: Fraction(5)}) == {1: Fraction(5)}


def test_determinism_of_kernel():
    m1 = dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    m2 = dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m1.kernel_basis() == m2.kernel_basis()
    assert m1.kernel_basis()[0] == {0: Fraction(1), 1: Fraction(-2), 2: Fraction(1)}


GF = Field(32003)


def test_rank_cache_follows_setitem():
    m = dense([[1, 2], [2, 4]])
    assert m.rank() == 1
    m[1, 1] = 5
    assert m.rank() == 2
    m[1, 1] = 4
    assert m.rank() == 1
    m.add_to(0, 0, -1)
    assert m.rank() == 2


def test_cohomology_follows_set_entry():
    sp = BiGradedSpace(GF)
    sp.add_cell(0, 0, ["a"])
    sp.add_cell(1, 0, ["b"])
    sp.mark_all_complete()
    c = CochainComplex(sp)
    c.d.set_entry((0, 0, 0), (1, 0, 0), GF.one)
    assert c.cohomology().dims_by_cell() == {}
    c.d.set_entry((0, 0, 0), (1, 0, 0), GF.zero)
    assert c.cohomology().dims_by_cell() == {(0, 0): 1, (1, 0): 1}


def test_prime_field_solve_and_kernel_are_exact():
    rng = random.Random(31)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), GF, span=40000)
        for v in m.kernel_basis():
            assert m.apply(v) == {}
        assert m.rank() + len(m.kernel_basis()) == m.cols
        x0 = {c: GF.of(rng.randint(-50000, 50000)) for c in range(m.cols)}
        b = m.apply(x0)
        x = m.solve(b)
        assert x is not None
        assert m.apply(x) == b
        assert all(0 < v < GF.char for v in x.values())


def test_echelon_and_rank_agree_with_kernel_rank():
    # one core under all three: the incremental echelon, rank without
    # back-substitution, and the back-substituted echelon behind kernels
    rng = random.Random(37)
    for field in (RATIONALS, GF):
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), field)
            ech = Echelon(field)
            grown = sum(ech.insert({c: v for (r, c), v in m.entries.items() if r == i})
                        for i in range(m.rows))
            fresh = SparseMatrix(m.rows, m.cols, field, dict(m.entries))
            assert grown == m.rank() == m.cols - len(fresh.kernel_basis())


def _unit_led_rows(rng, rows, cols):
    """Sparse rows whose first entry is 1, -1 or another unit, and whose
    other entries are small ints, negative ones unreduced."""
    out = []
    for _ in range(rows):
        c0 = rng.randrange(cols)
        row = {c0: rng.choice([1, -1, -1, 2, -3])}
        for c in range(c0 + 1, cols):
            if rng.random() < 0.5:
                row[c] = rng.choice([1, -1, rng.randint(-5, 5) or 2])
        out.append(row)
    return out


def _matrix(field, rows, cols):
    m = SparseMatrix(len(rows), cols, field)
    for r, row in enumerate(rows):
        for c, v in row.items():
            m[r, c] = field.of(v)
    return m


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=["QQ", "GF"])
def test_unit_leads_match_the_general_path(field, monkeypatch):
    """A remainder led by 1 is kept as its pivot row and one led by -1 (p-1)
    is negated; scaling each row by a unit other than 1 and -1 sends every
    lead through an inverse instead.  Both give the same pivot columns,
    ranks and kernels, every pivot row holds residues over GF(p), and a
    row fed to Echelon.insert is never kept as a pivot row itself."""
    rng = random.Random(43)
    p = field.char
    inverses = []
    inv = Field.inv
    monkeypatch.setattr(Field, "inv", lambda f, a: inverses.append(a) or inv(f, a))
    counts = {"unit": 0, "scaled": 0}
    for _ in range(60):
        cols = rng.randint(2, 9)
        rows = _unit_led_rows(rng, rng.randint(1, 9), cols)
        units = [rng.choice([2, -2, 3, Fraction(1, 3), Fraction(-5, 2)]) if not p
                 else rng.randint(2, p - 2) for _ in rows]
        scaled = [{c: field.mul(u, field.of(v)) for c, v in row.items()}
                  for u, row in zip(units, rows)]
        got, want = _matrix(field, rows, cols), _matrix(field, scaled, cols)
        got_cols, want_cols = set(), set()
        del inverses[:]
        got_rank = got.rank(pivot_cols=got_cols)
        counts["unit"] += len(inverses)
        del inverses[:]
        want_rank = want.rank(pivot_cols=want_cols)
        counts["scaled"] += len(inverses)
        assert (got_rank, got_cols) == (want_rank, want_cols)
        assert got.kernel_basis() == want.kernel_basis()

        ech, ech_scaled = Echelon(field), Echelon(field)
        for row, srow in zip(rows, scaled):
            fed = dict(row)
            assert ech.insert(fed) == ech_scaled.insert(srow)
            fed.clear()  # the caller's row is not a stored pivot row
        assert sorted(ech.pivots) == sorted(ech_scaled.pivots) == sorted(got_cols)
        for pivots in (ech.pivots, ech_scaled.pivots, got._echelon(back=False)):
            for pc, row in pivots.items():
                assert all(c > pc for c in row)
                if p:
                    assert all(0 < v < p for v in row.values())
        assert ech.pivots == ech_scaled.pivots
    assert counts["unit"] < counts["scaled"] / 2


# -- the rational scalar: an int while integral, a Fraction otherwise -------


def test_rationals_keep_integers_as_int():
    for x in (3, Fraction(4, 2), "4/2", "-6/3"):
        assert type(RATIONALS.of(x)) is int
    assert RATIONALS.of("4/2") == 2
    assert type(RATIONALS.of("2/3")) is Fraction
    assert type(RATIONALS.inv(2)) is Fraction and RATIONALS.inv(2) == Fraction(1, 2)
    assert type(RATIONALS.inv(-1)) is int and RATIONALS.inv(-1) == -1
    assert type(RATIONALS.inv(1)) is int
    assert RATIONALS.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(0)


def _exact(values):
    values = list(values)
    assert all(type(v) in (int, Fraction) for v in values)
    return values


def test_random_rational_elimination_stays_exact():
    # entries -5..5 give non-unit pivots, so real fractions do appear
    rng = random.Random(41)
    fractions_seen = 0
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), RATIONALS)
        sm = to_sympy(m)
        basis = m.kernel_basis()
        assert len(basis) == m.cols - sm.rank()
        for v in basis:
            vals = _exact(v.values())
            fractions_seen += sum(type(x) is Fraction for x in vals)
            col = sympy.Matrix(m.cols, 1, lambda c, _: sympy.Rational(v.get(c, 0)))
            assert sm * col == sympy.zeros(m.rows, 1)
        x0 = {c: rng.randint(-3, 3) for c in range(m.cols)}
        b = m.apply(x0)
        x = m.solve(b)
        _exact(x.values())
        xs = sympy.Matrix(m.cols, 1, lambda c, _: sympy.Rational(x.get(c, 0)))
        assert sm * xs == sympy.Matrix(m.rows, 1, lambda r, _: sympy.Rational(b.get(r, 0)))
        ech = Echelon(RATIONALS)
        for i in range(m.rows):
            ech.insert({c: v for (r, c), v in m.entries.items() if r == i})
        for row in ech.pivots.values():
            _exact(row.values())
        assert ech.rank == sm.rank()
    assert fractions_seen > 0


def _adic_tower_holim(model=lambda diag: diag):
    diag = model(build_scenario("adic_kx_5")["tower"].diagram()[1])
    wmax = max(abs(k[1]) for a in diag.algebras.values() for k in a.basis_keys())
    return holim(diag, dmax=3).complex, Window(0, 3, wmax)


def _koszul_completion():
    """The complex a k[x] completion eliminates: the witness model's minimal
    resolution P of k, found with no recipe read, realized
    over the field as P ⊗_A A, on which its products solve.  The outer
    complex over the model has d = 0 (ε² = 0, and ε acts on k by zero)."""
    ring = truncated_poly(RATIONALS, ["x"], [], wmax=4)
    res = double_centralizer(ring.algebra, ring.quotient_module(["x"]), (3, 3),
                             inner_caps=(5, 5))
    assert res.inner_used == "witness" and not res.completed.complex.d.blocks
    return res.inner._realized()[1], Window(-2, 2, 3), res.inner


def _bar_model_completion():
    """The inner convolution algebra E a completion builds per call where
    the witness model is refused: k over k[x]/(x^3), whose Ext² at (2, -3)
    is off the line d = -w at cap 3."""
    ring = truncated_poly(RATIONALS, ["x"], ["x^3"], wmax=4)
    res = double_centralizer(ring.algebra, ring.quotient_module(["x"]), (3, 3),
                             inner_caps=(5, 5))
    assert res.inner_used == "bar"
    return res.inner.complex


@pytest.mark.parametrize("build", [_adic_tower_holim, _koszul_completion])
def test_qq_benchmark_paths_stay_integral(build):
    """The adic tower and k[x] completion paths never meet a non-integer, so
    every differential entry and representative stays a Python int, and so
    does every output of the witness model: its unit and its products."""
    cx, win, *model = build()
    entries = [v for b in cx.d.blocks.values() for v in b.entries.values()]
    reps = [x for e in cx.cohomology(win).representatives.values() for x in e.values()]
    assert entries and reps
    for h in model:
        projected = [h.unit] + list(h.mult.values())
        assert len(projected) > 2
        reps += [x for e in projected for x in e.values()]
    assert {type(v) for v in entries + reps} == {int}


@pytest.mark.parametrize("variables,relations,wmax,cap", [
    (["x"], [], 4, 3), (["x"], ["x^2"], None, 4),
    (["x", "y"], ["x^2", "y^2"], None, 3)],
    ids=["koszul_kx w4 cap 3", "k[x]/(x^2) cap 4", "k[x,y]/(x^2,y^2) cap 3"])
def test_the_witness_path_stays_integral(variables, relations, wmax, cap):
    """k completes over the witness model: its classes and
    the outer complex over them have d = 0, and its unit and every product,
    those the lifts solve for over k[x]/(x^2) and k[x,y]/(x^2,y^2) too, are
    Python ints."""
    ring = truncated_poly(RATIONALS, variables, relations, wmax=wmax)
    res = double_centralizer(ring.algebra, ring.residue_module(), (cap, cap))
    assert res.inner_used == "witness" and not res.inner.complex.d.blocks
    if wmax is not None:
        assert not res.completed.complex.d.blocks
    model = res.inner
    values = [x for e in [model.unit] + list(model.mult.values()) for x in e.values()]
    assert len(values) > len(model.basis_keys())
    assert {type(v) for v in values} == {int}


# -- kernels and solutions against an independent reduced row echelon form --


def sympy_rref(m: SparseMatrix, b=None):
    """sympy's reduced row echelon form of m, or of [m | b], as exact rows."""
    cols = m.cols + (b is not None)
    dense = [[m[r, c] if c < m.cols else b.get(r, 0) for c in range(cols)]
             for r in range(m.rows)]
    if m.field.char == 0:
        red, pivots = sympy.Matrix(dense).rref()
        rows = [[Fraction(int(x.p), int(x.q)) for x in red.row(r)] for r in range(m.rows)]
        return rows, pivots
    gf = sympy.GF(m.field.char)
    red, pivots = DomainMatrix([[gf(v) for v in row] for row in dense],
                               (m.rows, cols), gf).rref()
    return [[int(x) % m.field.char for x in row] for row in red.to_list()], pivots


def rref_kernel(m: SparseMatrix):
    """Kernel from sympy's rref: one vector per free column, in column order,
    scaled so its lowest nonzero coordinate is 1."""
    f = m.field
    rows, pivots = sympy_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = {fc: f.one}
        for i, pc in enumerate(pivots):
            if rows[i][fc]:
                v[pc] = f.neg(f.of(rows[i][fc]))
        inv = f.inv(v[min(v)])
        basis.append({c: f.mul(inv, x) for c, x in sorted(v.items())})
    return basis


def rref_solution(m: SparseMatrix, b):
    """The solution read off sympy's rref of [m | b], free coordinates 0."""
    rows, pivots = sympy_rref(m, b)
    if m.cols in pivots:
        return None
    return {pc: m.field.of(rows[i][m.cols]) for i, pc in enumerate(pivots)
            if rows[i][m.cols]}


@pytest.mark.parametrize("field", [RATIONALS, Field(7)], ids=repr)
def test_kernel_and_solve_match_sympy_rref(field):
    rng = random.Random(67)
    deficient = inconsistent = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, field, density=0.6)
        if rng.random() < 0.5 and rows > 1:
            i, j = rng.sample(range(rows), 2)  # row i a multiple of row j
            s = field.of(rng.randint(1, 3))
            for c in range(cols):
                m[i, c] = field.mul(s, m[j, c])
        deficient += m.rank() < min(rows, cols)
        assert m.kernel_basis() == rref_kernel(m)
        consistent = m.apply({c: field.of(rng.randint(-3, 3)) for c in range(cols)})
        arbitrary = {r: field.of(rng.randint(-3, 3)) for r in range(rows)}
        for b in (consistent, arbitrary):
            b = {r: v for r, v in b.items() if not field.is_zero(v)}
            x = m.solve(b)
            assert x == rref_solution(m, b)
            inconsistent += x is None
    assert deficient > 10 and inconsistent > 5


# -- clearing: each weight column eliminated top-down ------------------------


def _gfp_residue(variables, relations):
    """k, whose derived functors run on the bar when ``reduced`` is passed."""
    return truncated_poly(GF, variables, relations).quotient_module(variables)


def _clearing_complexes():
    for variables, relations, n in ((["x"], ["x^5"], 6), (["x", "y"], ["x^2", "y^2"], 4)):
        k = _gfp_residue(variables, relations)
        yield f"bar {relations}", lambda k=k, n=n: bar_resolution(k, n).complex
        yield f"hom {relations}", lambda k=k, n=n: derived_hom(k, k, n, reduced=True)
        yield f"tor {relations}", lambda k=k, n=n: derived_tensor(
            k, trivial_left(k.algebra), n, reduced=True)
    # the string model: the two-term model has one block per weight, so
    # no block sits above another
    yield "adic tower holim", lambda: _adic_tower_holim(string_model)[0]
    yield "random diagram holim", lambda: holim(random_diagram(11, RATIONALS)[1], dmax=3).complex
    yield "double centralizer", _bar_model_completion


@pytest.mark.parametrize("build", [b for _, b in _clearing_complexes()],
                         ids=[name for name, _ in _clearing_complexes()])
def test_clearing_gives_each_block_its_own_rank(build):
    cx = build()
    assert cx.validate_d2() is None
    cx.cohomology()
    cleared = 0
    for (d, w), b in cx.d.blocks.items():
        assert b._rank is not None  # ranked by the clearing pass
        fresh = SparseMatrix(b.rows, b.cols, b.field, dict(b.entries))
        assert b.rank() == fresh.rank(), (d, w)
        above = cx.d.block_at(d + 1, w)
        cleared += bool(above is not None and above.rank() and b.rank())
    assert cleared  # some block had rows to skip


def test_cohomology_reduces_only_the_rows_clearing_leaves(monkeypatch):
    """Tor(k, k) over k[x]/(x^5): without clearing, each of the 422 nonzero
    rows of the blocks is reduced.  Clearing skips the rows at the pivot
    columns of the block above (206 of them); a row left over is dependent
    only for a class H^{d,w} whose block below is eliminated."""
    k = _gfp_residue(["x"], ["x^5"])
    cx = derived_tensor(k, trivial_left(k.algebra), 9, reduced=True)
    received = []
    reduce = linalg._reduce

    def counted(field, pivots, r):
        received.append(r)
        return reduce(field, pivots, r)

    monkeypatch.setattr(linalg, "_reduce", counted)
    h = cx.cohomology()
    blocks = cx.d.blocks
    nonzero_rows = sum(len({r for r, _ in b.entries}) for b in blocks.values())
    above = sum(blocks[(d + 1, w)].rank() for (d, w) in blocks if (d + 1, w) in blocks)
    assert (nonzero_rows, above) == (422, 206)
    assert len(received) == nonzero_rows - above == 216
    wasted = sum(n for (d, w), n in h.dims_by_cell().items() if (d - 1, w) in blocks)
    assert len(received) == sum(b.rank() for b in blocks.values()) + wasted


def test_elimination_builds_only_the_rows_it_keeps():
    """A row is built only where an entry sits and clearing keeps it, so a
    tall sparse block costs its entries, not its height."""
    m = SparseMatrix(1000, 3, GF, {(5, 0): 1, (7, 1): 2, (900, 2): 3})
    assert m._row_dicts(skip_rows={7}) == [{0: 1}, {2: 3}]
    assert m._row_dicts(extra_col={3: 4, 7: 0}) == [{3: 4}, {0: 1}, {1: 2}, {2: 3}]
    assert m.rank({7}) == 2


def test_cohomology_stays_fresh_after_an_edit():
    """a -> (b0, b1) -> (c0, c1) with d(a) = b0, d(b1) = c0: clearing skips
    row b1 of the lower block.  Zeroing d(b1) must show in the next call."""
    def build(top):
        sp = BiGradedSpace(GF)
        sp.add_cell(0, 0, ["a"])
        sp.add_cell(1, 0, ["b0", "b1"])
        sp.add_cell(2, 0, ["c0", "c1"])
        sp.mark_all_complete()
        c = CochainComplex(sp)
        c.d.set_entry((0, 0, 0), (1, 0, 0), GF.one)
        c.d.set_entry((1, 0, 1), (2, 0, 0), top)
        return c

    c = build(GF.one)
    assert c.validate_d2() is None
    assert c.cohomology().dims_by_cell() == {(2, 0): 1}
    c.d.set_entry((1, 0, 1), (2, 0, 0), GF.zero)
    edited = c.cohomology().dims_by_cell()
    assert edited == build(GF.zero).cohomology().dims_by_cell() == {(1, 0): 1, (2, 0): 2}
