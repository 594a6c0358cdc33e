"""Self-tests of the benchmark: scoring, seeding, tracing, declared metrics.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""
import json
import os

import pytest

import bench_jobs
import bench_reference as ref
import run
from bench_jobs import Job
from bench_reference import Score
from bench_trace import TARGETS, Tracer


@pytest.fixture(scope="module")
def lib():
    return bench_jobs.load_library(run.SRC)


def test_wrong_certified_cell_fails_the_job():
    reference = {(0, 0): 1, (0, 1): 1}
    s = Score()
    assert not s.add(reference, {(0, 0): (1, True), (0, 1): (2, True)})
    assert (s.jobs, s.failed, s.wrong, s.certified_right, s.cells) == (1, 1, 1, 1, 2)
    assert "(0, 1)" in s.first_error


def test_uncertified_cell_only_lowers_cert_frac():
    reference = {(0, 0): 1, (0, 1): 1}
    s = Score()
    assert s.add(reference, {(0, 0): (1, True), (0, 1): (7, False)})
    assert s.failed == 0 and s.fail_frac == 0.0
    assert s.cert_frac == 0.5


def test_missing_cell_counts_as_uncertified():
    s = Score()
    assert s.add({(3, 3): 0}, {})
    assert s.failed == 0 and s.cert_frac == 0.0


def test_raised_job_counts_its_cells_as_missed():
    s = Score()
    s.add_error({(0, 0): 1, (1, 0): 0}, "boom")
    assert (s.jobs, s.failed, s.cells, s.certified_right) == (1, 1, 2, 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = bench_jobs.deck(workload, 7)
    assert first == bench_jobs.deck(workload, 7)
    assert any(bench_jobs.deck(workload, s) != first for s in range(8, 12))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_keeps_the_strata(workload):
    """Seeds change the jobs, never how many of each cost-driving size."""
    def strata(seed):
        out = {}
        for job in bench_jobs.deck(workload, seed):
            kind = "ext" if job.kind in ("ext_hom", "ext_tor") else job.kind
            size = {"koszul_kx": job.run, "adic_tower": job.build,
                    "dual_numbers": job.run[:1],
                    "ext": job.build + job.run if job.build == (None,) else (),
                    }.get(kind, ())
            out[(kind, size)] = out.get((kind, size), 0) + 1
        return out
    assert all(strata(s) == strata(0) for s in range(1, 6))


def test_job_times_pool_identical_jobs():
    a, b = Job("koszul_kx", (4,), (4,)), Job("free_category", (2,))
    deck = [a, b, a]
    times = [5.0, 1.0, 3.0,
             4.0, 2.0, 9.0]
    assert run.job_times(deck, times) == [4.5, 1.5, 4.5]


def _bindings(lib):
    out = {}
    for prefix, module, cls, attr in TARGETS:
        if cls is not None:
            owner = getattr(getattr(lib, module), cls)
            out[(id(owner), attr)] = owner.__dict__[attr]
        for name in vars(lib):
            ns = getattr(lib, name)
            if attr in ns.__dict__:
                out[(name, attr)] = ns.__dict__[attr]
    return out


def test_trace_wrappers_patch_every_binding_and_restore(lib):
    before = _bindings(lib)
    tracer = Tracer()
    tracer.install(lib)
    try:
        # a function imported into a second module is patched in both
        assert lib.bar.end_algebra is lib.complete.end_algebra
        assert lib.bar.end_algebra.__wrapped__ is before[("bar", "end_algebra")]
        assert lib.graded.induced_rank is lib.models.induced_rank
        assert lib.linalg.Echelon.insert is not before[(id(lib.linalg.Echelon), "insert")]
        during = _bindings(lib)
        assert all(during[k] is not v for k, v in before.items()
                   if k[1] in {t[3] for t in TARGETS})
    finally:
        tracer.uninstall()
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_spans_nest_and_self_time_excludes_children(lib):
    prepared = bench_jobs.prepare(lib, [Job("koszul_kx", (4,), (3,))],
                                  bench_jobs.build_inputs(lib, [Job("koszul_kx", (4,), (3,))]))
    p = prepared[0]
    tracer = Tracer()
    tracer.install(lib)
    try:
        tracer.span("job", bench_jobs.run_job, lib, p.job, p.inputs)
    finally:
        tracer.uninstall()
    ids = {s[1] for s in tracer.spans}
    root = [s for s in tracer.spans if s[3] == "job"]
    assert len(root) == 1 and root[0][2] == 0
    assert all(s[2] in ids for s in tracer.spans if s[3] != "job")
    assert all(s[0] == 1 for s in tracer.spans)
    dc = tracer.stats["complete.double_centralizer"]
    total = sum(s[5] - s[4] for s in tracer.spans if s[3] == "complete.double_centralizer")
    assert dc.calls == 1 and 0 < dc.self_s < total


CHEAP_JOBS = [
    Job("koszul_kx", (4,), (3,)),
    Job("triangular", (3,), (2,)),
    Job("free_category", (2,)),
    Job("dual_numbers", (), (4, 500)),
    Job("dual_numbers_op", (1,), (500,)),
    Job("adic_tower", (4,), (2,)),
    Job("ext_hom", (3,), (5,)),
    Job("ext_hom", (None,), (4,)),
    Job("ext_tor", (4,), (5,)),
    Job("bar_resolution", (3,), (5,)),
    Job("infin_ext", (3,), (2,)),
] + [Job("random_diagram", (s,), (2,)) for s in range(6)]


def test_references_agree_with_the_library_on_small_jobs(lib):
    built = bench_jobs.build_inputs(lib, CHEAP_JOBS)
    score = Score()
    for p in bench_jobs.prepare(lib, CHEAP_JOBS, built):
        result = bench_jobs.run_job(lib, p.job, p.inputs)
        assert score.add(p.reference, bench_jobs.answer(p.job, result, p.reference)), \
            (p.job, score.first_error)
    assert score.cert_frac > 0.5


def test_ext_weights():
    assert [ref.ext_weight(j, 2) for j in range(5)] == [0, 1, 2, 3, 4]
    assert [ref.ext_weight(j, 3) for j in range(5)] == [0, 1, 3, 4, 6]


def test_declared_metrics_match_the_output():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: u for k, (_, u) in Tracer().metrics().items()}
    emitted.update(run.TRACE_EXTRA)
    assert declared == emitted
