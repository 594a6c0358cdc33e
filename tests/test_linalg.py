"""Exact linear algebra, cross-checked against sympy as an independent oracle."""
import random
from fractions import Fraction

import pytest
import sympy

from dgcomplete.complete import double_centralizer
from dgcomplete.graded import BiGradedSpace, CochainComplex, Window
from dgcomplete.holim import holim
from dgcomplete.linalg import RATIONALS, Echelon, Field, SparseMatrix, identity_matrix
from dgcomplete.models import build_scenario


def to_sympy(m: SparseMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(m[r, c]))


def random_matrix(rng, rows, cols, field, density=0.5, span=5):
    m = SparseMatrix(rows, cols, field)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m[r, c] = field.of(rng.randint(-span, span))
    return m


def test_rank_frozen():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]], RATIONALS)
    assert m.rank() == 1


def test_kernel_frozen():
    m = SparseMatrix.from_dense([[1, 1, 0], [0, 0, 1]], RATIONALS)
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v == {0: Fraction(1), 1: Fraction(-1)}


def test_solve_frozen():
    m = SparseMatrix.from_dense([[2, 0], [0, 3]], RATIONALS)
    x = m.solve({0: 4, 1: 6})
    assert x == {0: Fraction(2), 1: Fraction(2)}


def test_solve_inconsistent():
    m = SparseMatrix.from_dense([[1, 1], [1, 1]], RATIONALS)
    assert m.solve({0: 1, 1: 2}) is None
    assert m.solve({0: 3, 1: 3}) is not None


@pytest.mark.parametrize("row", [3, 1, -1])
def test_solve_rejects_rows_outside_the_matrix(row):
    m = SparseMatrix.from_dense([[1]], RATIONALS)
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


def test_add_scale_transpose():
    rng = random.Random(29)
    for _ in range(20):
        a = random_matrix(rng, 4, 5, RATIONALS)
        b = random_matrix(rng, 4, 5, RATIONALS)
        assert to_sympy(a.add(b)) == to_sympy(a) + to_sympy(b)
        assert to_sympy(a.scale(Fraction(-3, 2))) == to_sympy(a) * sympy.Rational(-3, 2)
        assert to_sympy(a.transpose()) == to_sympy(a).T
        assert a.add(a.neg()).is_zero()


def test_identity_and_apply():
    i3 = identity_matrix(3, RATIONALS)
    assert i3.rank() == 3
    assert i3.apply({1: Fraction(5)}) == {1: Fraction(5)}


def test_determinism_of_kernel():
    m1 = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]], RATIONALS)
    m2 = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]], RATIONALS)
    assert m1.kernel_basis() == m2.kernel_basis()
    assert m1.kernel_basis()[0] == {0: Fraction(1), 1: Fraction(-2), 2: Fraction(1)}


GF = Field(32003)


def test_rank_cache_follows_setitem():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]], RATIONALS)
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


def _adic_tower_holim():
    diag = build_scenario("adic_kx_5")["tower"].diagram()[1]
    wmax = max(abs(k[1]) for a in diag.algebras.values() for k in a.basis_keys())
    return holim(diag, dmax=3).complex, Window(0, 3, wmax)


def _koszul_completion():
    sc = build_scenario("koszul_kx", params={"wmax": 4})
    res = double_centralizer(sc["algebra"], sc["module"], (3, 3), inner_caps=(5, 5))
    return res.completed.complex, Window(-2, 2, 3)


@pytest.mark.parametrize("build", [_adic_tower_holim, _koszul_completion])
def test_qq_benchmark_paths_stay_integral(build):
    """The adic tower and k[x] completion paths never meet a non-integer, so
    every differential entry and representative stays a Python int."""
    cx, win = build()
    entries = [v for b in cx.d.blocks.values() for v in b.entries.values()]
    reps = [x for e in cx.cohomology(win).representatives.values() for x in e.values()]
    assert entries and reps
    assert {type(v) for v in entries + reps} == {int}
