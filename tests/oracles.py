"""Independent cross-check values computed with plain linear algebra.

These deliberately avoid the string machinery: strict limits of
degree-zero diagrams are equalizer kernels, nothing more.  Engine output
has to reproduce them exactly.  The class algebra of a convolution algebra
is the reference the witness model's Yoneda product is checked against.
k's Betti numbers over a monomial complete intersection have a closed form.
A space's knowledge is compared as its readers see it (``knowledge``), so
no pinned value depends on how a space stores it.
"""
import itertools
from typing import Dict, List, Sequence, Tuple

from dgcomplete.bar import InnerModel
from dgcomplete.graded import CochainComplex
from dgcomplete.linalg import SparseMatrix


# the weights a space's knowledge is read on: wider than any test's cells
KNOWN_WEIGHTS = range(-40, 41)


def knowledge(sp) -> Tuple:
    """A space's knowledge as its readers see it: the known degree interval
    of each weight in KNOWN_WEIGHTS, and whether it is fully known."""
    return sorted(sp.known_degrees(KNOWN_WEIGHTS).items()), sp.fully_known()


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


class ClassAlgebra(InnerModel):
    """The cohomology H(E) of a convolution algebra E (``bar.end_algebra``)
    on the weight columns |w| <= w_max, with d = 0 and the product
    m₂ = p∘μ∘(i⊗i): i sends a class to its representative in E and p is
    ``Cohomology.project``.  Where every class lies on one line d = c·w
    (``bar._purity``), every higher transferred operation vanishes by
    degree and this is E's minimal model, so the library's witness model,
    Ext with the Yoneda product, must be isomorphic to it.  Its module is
    acted on by the length-zero part of each representative."""

    def __init__(self, e, w_max):
        h = e.complex.cohomology(wmax=w_max)
        reps = h.representatives

        def product(k1, k2):
            return h.project(e.multiply(reps[k1], reps[k2]))

        super().__init__(CochainComplex(h.space), h.project(e.unit), product,
                         e.module, name=f"H({e.name})")
        self.inner, self.representatives = e, reps

    def evaluations(self):
        label = self.inner.space.label_of
        for c, rep in self.representatives.items():
            for k, v in rep.items():
                q, (p, slots) = label(k)
                if not slots:
                    yield c, p, {q: v}


def residue_betti(powers: Sequence[int], length: int) -> List[Tuple[int, int]]:
    """The bidegrees of the generators of k's minimal resolution over
    k[x_1..x_r]/(x_i^t_i), cut at the length: the tensor product of one
    periodic resolution per variable (Tate), one generator (-Σj, Σ w_i(j_i))
    per index tuple with Σj <= length, where w(j) = (j // 2)·t + j % 2 and
    j_i is 0 where t_i is 1, since x_i is then 0.  Sorted."""
    ranges = [range(length + 1) if t > 1 else range(1) for t in powers]
    return sorted((-sum(js), sum((j // 2) * t + j % 2 for j, t in zip(js, powers)))
                  for js in itertools.product(*ranges) if sum(js) <= length)
