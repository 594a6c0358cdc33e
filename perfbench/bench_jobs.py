"""Workloads of the dgcomplete benchmark: seeded job decks, inputs, answers.

A job is one exact computation on generated inputs.  Each workload is a
deck of jobs in fixed strata: the cost-driving sizes of a stratum are
fixed, and the seed picks what leaves the cost alone (ring truncations
above the caps, budgets inside one fit class, diagram seeds, Ext against
Tor) or what moves it little in the cheap strata, and the order.  So every
seed gives a different job list with the same cost profile.  A deck has
100 jobs, and its strata are sized so that the median and the 90th
percentile of the jobs' costs fall well inside one homogeneous stratum
each instead of on an edge between two.

The library is passed in as ``lib`` (a namespace of the dgcomplete modules)
so that set-up can import it afresh and the tracer can patch it.
"""
from __future__ import annotations

import importlib
import os
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import bench_reference as ref

MODULES = ("linalg", "graded", "dg", "bar", "complete", "holim", "models")
PRIME = 32003


class LibraryMissing(RuntimeError):
    pass


def load_library(src: str) -> SimpleNamespace:
    """Import dgcomplete from ``src`` afresh, dropping any earlier import."""
    if not os.path.isfile(os.path.join(src, "dgcomplete", "__init__.py")):
        raise LibraryMissing(f"no dgcomplete package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "dgcomplete" or n.startswith("dgcomplete.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dgcomplete")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise LibraryMissing(f"dgcomplete imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module("dgcomplete." + m) for m in MODULES})


@dataclass(frozen=True)
class Job:
    kind: str
    build: Tuple  # what set-up builds; equal tuples share one input
    run: Tuple = ()  # sizes passed at run time only


@dataclass
class Prepared:
    job: Job
    inputs: object
    reference: Dict


# -- decks ------------------------------------------------------------------


def _completion_qq(rng: random.Random) -> List[Job]:
    jobs = []
    # koszul_kx cost is set by the outer cap; the ring's own truncation
    # above the cap moves the best time by up to 8%, so the seed picks it
    # only for the cheap cap-3 jobs and the cap-6 ones, and equal
    # truncations share one ring.  Sorted by cost the deck runs: 35 jobs
    # under 11 ms, 30 cap-4 jobs around 15 ms holding the median, 20
    # triangular jobs of 17-46 ms, 10 cap-5 jobs around 53 ms holding the
    # 90th percentile, and 5 cap-6 jobs around 0.23 s.
    for _ in range(10):
        jobs.append(Job("free_category", (rng.randint(2, 6),)))
    for i in range(12):
        jobs.append(Job("triangular", (2 + i % 3,), (rng.randint(2, 4),)))
    for _ in range(5):
        jobs.append(Job("triangular", (5,), (rng.randint(2, 3),)))
    for _ in range(8):
        jobs.append(Job("koszul_kx", (rng.randint(4, 7),), (3,)))
    jobs += [Job("koszul_kx", (4,), (4,))] * 30 + [Job("koszul_kx", (5,), (5,))] * 10
    for _ in range(5):
        jobs.append(Job("koszul_kx", (rng.randint(6, 7),), (6,)))
    for n, cap, count in ((6, 3, 5), (6, 4, 5), (7, 2, 4), (7, 3, 3), (7, 4, 3)):
        jobs += [Job("triangular", (n,), (cap,))] * count
    return jobs


def _completion_unreduced(rng: random.Random) -> List[Job]:
    # Budgets stay inside one fit class each (the tuple length the budget
    # admits), where best times agree within 5%, so the seed never moves a
    # job across the step in cost; they are this small to fit the run
    # length, not to avoid a result.  Only caps (2, 2) at fit 2 reaches its
    # requested caps and runs the scan.  Sorted by cost: 28 jobs at caps
    # 2-3, 36 cap-4 jobs around 13 ms holding the median, 19 at caps 5-6,
    # 3 + 9 + 4 dual_numbers_op jobs (35, 41, 46 ms) with wmax 2 holding the
    # 90th percentile, and the scan job near 0.8 s.
    jobs = [Job("dual_numbers", (), (2, rng.randint(2000, 30000)))]
    for cap, top, count in ((2, 1600, 14), (3, 2400, 14), (4, 3000, 36),
                            (5, 4000, 10), (6, 5000, 9)):
        for _ in range(count):
            jobs.append(Job("dual_numbers", (), (cap, rng.randint(200, top))))
    for wmax, count in ((1, 3), (2, 9), (3, 4)):
        for _ in range(count):
            jobs.append(Job("dual_numbers_op", (wmax,), (rng.randint(500, 11000),)))
    return jobs


def _holim_towers(rng: random.Random) -> List[Job]:
    jobs = []
    # random diagrams cost 0.2-5 ms whatever dmax, and below depth 5 the
    # tower cost does not follow dmax, so the seed picks those freely; the
    # depth-5 towers holding the median take dmax 3 or 4 (8.2-8.3 ms).
    # Sorted by cost: 35 jobs under 6 ms, 30 depth-5 towers, 20 depth-6
    # towers (15-25 ms), 12 depth-7 towers around 73 ms holding the 90th
    # percentile, and 3 depth-8 towers around 0.21 s.
    for _ in range(20):
        jobs.append(Job("random_diagram", (rng.randrange(1_000_000),),
                        (rng.randint(2, 4),)))
    for depth, low, count in ((2, 1, 3), (3, 1, 3), (4, 1, 9), (5, 3, 30),
                              (6, 1, 20), (7, 4, 12), (8, 4, 3)):
        for _ in range(count):
            jobs.append(Job("adic_tower", (depth,), (rng.randint(low, 4),)))
    return jobs


def _ext_pair(rng: random.Random, t: Optional[int], n: int) -> Job:
    """Ext or Tor at one length: the two cost within 15% of each other."""
    return Job(rng.choice(("ext_hom", "ext_tor")), (t,), (n,))


def _ext_gfp(rng: random.Random) -> List[Job]:
    jobs = []
    # Sorted by cost: 40 jobs under 12 ms, 22 Tor jobs of k[x]/(x^5) at
    # length 9 (19 ms) holding the median, 23 jobs of 20-34 ms, and 15
    # jobs over k[x,y]/(x^2,y^2) at length 8 (86-88 ms) holding the 90th
    # percentile.
    for _ in range(10):
        jobs.append(_ext_pair(rng, 2, rng.randint(6, 9)))
    for _ in range(15):
        jobs.append(_ext_pair(rng, rng.randint(3, 6), rng.randint(6, 7)))
    for _ in range(5):
        jobs.append(Job("bar_resolution", (rng.randint(2, 3),), (8,)))
    for _ in range(5):
        jobs.append(_ext_pair(rng, None, 6))
    for _ in range(5):
        jobs.append(_ext_pair(rng, rng.randint(4, 6), 8))
    for _ in range(22):
        jobs.append(Job("ext_tor", (5,), (9,)))
    for _ in range(6):
        jobs.append(Job("ext_hom", (5,), (9,)))
    for _ in range(6):
        jobs.append(_ext_pair(rng, 6, 9))
    for _ in range(6):
        jobs.append(Job("bar_resolution", (rng.randint(4, 6),), (8,)))
    for t in (2, 3, 4, 5, 6):
        jobs.append(Job("infin_ext", (t,), (3,)))
    for _ in range(15):
        jobs.append(_ext_pair(rng, None, 8))
    return jobs


DECKS: Dict[str, Callable[[random.Random], List[Job]]] = {
    "completion_qq": _completion_qq,
    "completion_unreduced": _completion_unreduced,
    "holim_towers": _holim_towers,
    "ext_gfp": _ext_gfp,
}


def deck(workload: str, seed: int) -> List[Job]:
    """The seeded job list of one workload; a run repeats it."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = DECKS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# -- inputs -----------------------------------------------------------------


def _ring(lib, t: Optional[int]):
    f = lib.linalg.Field(PRIME)
    if t is None:
        return lib.models.truncated_poly(f, ["x", "y"], ["x^2", "y^2"])
    return lib.models.truncated_poly(f, ["x"], [f"x^{t}"])


def _left_residue(lib, alg):
    """k as a left module: the weight-0 unit acts by one, the rest by zero."""
    f = alg.field
    sp = lib.graded.BiGradedSpace(f)
    sp.add_cell(0, 0, ["k"])
    sp.mark_all_complete()
    mk = sp.key_of(0, 0, "k")
    action = {(ak, mk): {mk: f.one} for ak in alg.basis_keys() if ak[1] == 0}
    return lib.dg.DgModule(alg, lib.graded.CochainComplex(sp), action,
                           side="left", name="k")


def build_input(lib, job: Job):
    m = lib.models
    kind, b = job.kind, job.build
    if kind == "koszul_kx":
        return m.build_scenario("koszul_kx", params={"wmax": b[0]})
    if kind == "triangular":
        return m.build_scenario("triangular_" + "".join(str(i) for i in range(1, b[0] + 1)))
    if kind == "free_category":
        return m.build_scenario("free_category", params={"wmax": b[0]})
    if kind == "dual_numbers":
        return m.build_scenario("dual_numbers")
    if kind == "dual_numbers_op":
        return m.build_scenario("dual_numbers_op", params={"wmax": b[0]})
    if kind == "adic_tower":
        return m.build_scenario(f"adic_kx_{b[0]}")["tower"].diagram()[1]
    if kind == "random_diagram":
        return m.random_diagram(b[0], lib.linalg.RATIONALS)[1]
    ring = _ring(lib, b[0])
    k = ring.residue_module()
    if kind == "ext_tor":
        return ring, k, _left_residue(lib, ring.algebra)
    return ring, k, None


def build_inputs(lib, jobs: List[Job]) -> Dict[Tuple, object]:
    """Build every distinct input of a deck once; equal builds share it."""
    built: Dict[Tuple, object] = {}
    for job in jobs:
        key = (job.kind, job.build)
        if key not in built:
            built[key] = build_input(lib, job)
    return built


# -- running and reading answers --------------------------------------------


def run_job(lib, job: Job, inputs):
    """The timed part of a job; returns the raw result for ``answer``."""
    W = lib.graded.Window
    kind, r = job.kind, job.run
    if kind in ("koszul_kx", "triangular", "free_category"):
        cap = r[0] if r else job.build[0]
        res = lib.complete.double_centralizer(
            inputs["algebra"], inputs["module"], (cap, cap),
            inner_caps=(cap + 2, cap + 2))
        return res.cohomology(W(-2, 2, cap))
    if kind == "dual_numbers":
        cap, budget = r
        res = lib.complete.double_centralizer(
            inputs["algebra"], inputs["module"], (cap, cap), budget=budget)
        return res.cohomology(W(-2, 3, cap))
    if kind == "dual_numbers_op":
        res = lib.complete.double_centralizer(
            inputs["algebra"], inputs["module"], inputs["caps"], budget=r[0])
        return res.cohomology(W(-2, 3, job.build[0]))
    if kind in ("adic_tower", "random_diagram"):
        dmax = r[0]
        wmax = max(abs(k[1]) for a in inputs.algebras.values() for k in a.basis_keys())
        return lib.holim.holim(inputs, dmax=dmax).complex.cohomology(W(0, dmax, wmax))
    ring, k, k_left = inputs
    n = r[0]
    if kind == "ext_hom":
        return lib.bar.derived_hom(k, k, n).cohomology(W(0, n, n))
    if kind == "ext_tor":
        return lib.bar.derived_tensor(k, k_left, n).cohomology(W(-n, 0, n))
    if kind == "bar_resolution":
        return lib.bar.bar_resolution(k, n).complex.cohomology(W(-n, 0, n))
    if kind == "infin_ext":
        return lib.models.infin_ext_check(ring, window=(-n, n), length=2 * n, n_check=2)
    raise KeyError(f"unknown job kind {kind!r}")


def reference(lib, job: Job, inputs) -> Dict:
    kind, b, r = job.kind, job.build, job.run
    if kind == "koszul_kx":
        return ref.koszul_kx(r[0])
    if kind == "triangular":
        return ref.triangular(b[0], r[0])
    if kind == "free_category":
        return ref.free_category(b[0])
    if kind == "dual_numbers":
        return ref.dual_numbers(r[0])
    if kind == "dual_numbers_op":
        return ref.dual_numbers_op(b[0])
    if kind == "adic_tower":
        return ref.adic_tower(ref.holim_h0(inputs, lib.linalg.SparseMatrix), r[0])
    if kind == "random_diagram":
        return ref.random_diagram(ref.holim_h0(inputs, lib.linalg.SparseMatrix))
    if kind == "ext_hom":
        return ref.ext_hom(b[0], r[0])
    if kind == "ext_tor":
        return ref.ext_tor(b[0], r[0])
    if kind == "bar_resolution":
        return ref.bar_resolution(r[0])
    if kind == "infin_ext":
        return ref.infin_ext(b[0], -r[0], r[0])
    raise KeyError(f"unknown job kind {kind!r}")


def answer(job: Job, result, cells) -> Dict:
    """Read ``(value, certified)`` for each reference cell off a raw result."""
    if job.kind != "infin_ext":
        cert = result.certificate
        return {c: (result.dim(*c), cert.exact_at(*c)) for c in cells}
    lo, hi = result["certified_degrees"][2]
    wcap = result["certified_weight_max"][2]
    tables = result["tables"][2]
    out = {}
    for cell in cells:
        if cell == ("verdict",):
            out[cell] = (result["verdict"], True)
            continue
        name, d = cell
        row = {w: v for (dd, w), v in tables[name].items() if dd == d}
        ok = lo <= d <= hi and (wcap is None or all(w <= wcap for w in row))
        out[cell] = (row, ok)
    return out


def prepare(lib, jobs: List[Job], built: Dict[Tuple, object]) -> List[Prepared]:
    """Pair each job with its input and its reference (computed once)."""
    refs: Dict[Job, Dict] = {}
    out = []
    for job in jobs:
        inputs = built[(job.kind, job.build)]
        if job not in refs:
            refs[job] = reference(lib, job, inputs)
        out.append(Prepared(job, inputs, refs[job]))
    return out
