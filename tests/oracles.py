"""Independent cross-check values computed with plain linear algebra.

These deliberately avoid the string machinery: strict limits of
degree-zero diagrams are equalizer kernels, nothing more.  Engine output
has to reproduce them exactly.
"""
from typing import Dict

from dgcomplete.linalg import SparseMatrix


def strict_limit_dims(diag) -> Dict[int, int]:
    """Per weight, the dimension of {(v_x) : f_a(v_src) = v_tgt for all a}.

    One block row per arrow; works for any finite index category, including
    endo-arrows, because coefficients accumulate.
    """
    cat = diag.cat
    f = diag.field
    weights = sorted({k[1] for x in cat.objects
                      for k in diag.algebras[x].basis_keys()})
    out: Dict[int, int] = {}
    for w in weights:
        cols = [(x, k) for x in cat.objects
                for k in diag.algebras[x].basis_keys() if k[1] == w]
        col_idx = {ck: i for i, ck in enumerate(cols)}
        rows = [(nm, k) for nm in sorted(cat.arrows)
                for k in diag.algebras[cat.tgt(nm)].basis_keys() if k[1] == w]
        row_idx = {rk: i for i, rk in enumerate(rows)}
        entries: Dict = {}

        def bump(r, c, v):
            entries[(r, c)] = f.add(entries.get((r, c), f.zero), v)

        for (x, k) in cols:
            c = col_idx[(x, k)]
            for nm in cat.arrows_from(x):
                for tk, v in diag.apply(nm, {k: f.one}).items():
                    bump(row_idx[(nm, tk)], c, v)
            for nm in cat.arrows_into(x):
                bump(row_idx[(nm, k)], c, f.of(-1))
        entries = {rc: v for rc, v in entries.items() if not f.is_zero(v)}
        mat = SparseMatrix(len(rows), len(cols), f, entries)
        out[w] = len(mat.kernel_basis())
    return out
