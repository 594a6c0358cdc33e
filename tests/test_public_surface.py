"""Every public function, class, method and instance attribute of the
library serves a computation, a benchmark job or a named paper claim, and
every name a library module imports is used in that module.

A function, class or method counts as used only when its name is read as
code (a name, an attribute or an imported name) in one of two places: in
src/, outside its own definition, or in a perfbench/ file other than the
benchmark's test_*.py self-tests.  Uses in tests/ do not count, and neither
do string constants: the benchmark's tracer looks functions up by string,
so a name it wraps and nothing else reads is not used.  An instance
attribute is defined by ``self.<name> = ...`` in a library class and counts
as used only when it is read as ``x.<name>`` in the same places; writes
through ``self`` do not count.

A name that only tests read stays public only as a key of ``CLAIMS``, whose
entry names the paper claim or north-star check it serves and the test
that checks it.  A key must be a public library name that no counted use
reaches: once a library or benchmark caller appears, its entry goes.  A
read inside the body of a function or class that ``CLAIMS`` keeps is no
use either, since only tests reach that body.

The check matches by name alone, so an unused name that shares its
spelling with a name read elsewhere still passes; such names must be found
by reading the code.
"""
import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "dgcomplete"

# qualified name -> (the claim or check it serves, the test that checks it)
CLAIMS = {
    "complete.completion_along_set": (
        "completion along a set of objects: the simples, the projectives "
        "and the algebra give one completion",
        "tests/test_complete.py::"
        "test_generators_of_one_thick_subcategory_give_one_completion"),
    "dg.regular_module": (
        "the algebra as a module generates the same thick subcategory as "
        "the projectives, so completing along it gives the same tables",
        "tests/test_complete.py::"
        "test_generators_of_one_thick_subcategory_give_one_completion"),
    "dg.shift_module": (
        "thick subcategories are closed under shifts: a shifted projective "
        "keeps its witness, a shifted simple has none",
        "tests/test_complete.py::"
        "test_projective_witness_is_set_only_by_constructors_that_prove_it"),
    "dg.restrict_scalars": (
        "a module restricted along an algebra map carries no projective "
        "witness",
        "tests/test_complete.py::"
        "test_projective_witness_is_set_only_by_constructors_that_prove_it"),
    "dg.DgCategoryPresentation.set_differential": (
        "the Leibniz check of a dg category: a flipped differential sign "
        "fails the validator",
        "tests/test_dg.py::test_category_algebra_with_differential"),
    "graded.CochainComplex.shift": (
        "thick subcategories are closed under shifts: the complex "
        "shift_module shifts, with the sign on its differential",
        "tests/test_graded.py::test_shift_differential_sign"),
    "graded.Cohomology.project": (
        "the Noetherian theorem as rings: classes of the completion "
        "multiply as p∘μ∘(i⊗i), so H^0 along the simples of a triangular "
        "algebra is its path algebra",
        "tests/test_complete.py::"
        "test_the_completion_along_the_simples_is_the_path_algebra"),
    "graded.Cohomology.representatives": (
        "the i of p∘μ∘(i⊗i): a cocycle per class, whose products the ring "
        "check of the completion along the simples multiplies",
        "tests/test_complete.py::"
        "test_the_completion_along_the_simples_is_the_path_algebra"),
    "complete.CompletionResult.inner": (
        "the completion is the double centralizer over REnd_a(m): the inner "
        "model it was taken over, kept on m and read again per cap",
        "tests/test_minimal.py::"
        "test_completions_along_one_module_build_its_uncut_model_once"),
    "graded.Cohomology.dims_by_cell": (
        "the north star's dimension tables, which every completion keeps "
        "cell for cell",
        "tests/test_complete.py::test_completions_keep_their_recorded_tables"),
    "graded.BiGradedSpace.total_dim": (
        "honest truncation: the quotients R/I^n of an adic tower grow by "
        "one weight a step until the ring's weight cap stops them",
        "tests/test_models.py::TestAdicTower::"
        "test_cap_artifact_warns_and_stabilizes"),
    "graded.cone": (
        "the quasi-isomorphism reference: the cone of the bar resolution's "
        "augmentation is acyclic",
        "tests/test_bar.py::test_bar_of_algebra_is_contractible"),
    "bar.BarData.augmentation": (
        "the bar resolution resolves: its augmentation is a chain map with "
        "an acyclic cone",
        "tests/test_bar.py::test_bar_of_algebra_is_contractible"),
    "bar.BarData.generator_counts": (
        "the reduced bar of k over the dual numbers has one generator per "
        "length, the size of Ext(k, k)",
        "tests/test_bar.py::test_bar_generator_counts_dual_numbers"),
    "dg.DgAlgebra.validate": (
        "the d², Leibniz and associativity validator: an algebra whose "
        "product is not associative fails it",
        "tests/test_dg.py::test_bad_associativity_reported_with_triple"),
    "dg.DgModule.validate": (
        "the module validator: an action that is not unital or breaks the "
        "grading fails it",
        "tests/test_dg.py::test_module_validator_catches_a_broken_action"),
    "dg.DgModule.act_left": (
        "the module validator on left modules, which acts through it",
        "tests/test_dg.py::test_module_validator_catches_a_broken_action"),
    "graded.CochainComplex.validate_d2": (
        "the d² validator: each face-sign mutant of a limit fails it",
        "tests/test_holim.py::TestSignsOnATower::"
        "test_each_face_flip_breaks_d_squared"),
    "dg.AlgebraMorphism.validate": (
        "the validator of unital chain algebra maps: a map that is not "
        "unital fails it",
        "tests/test_dg.py::test_restrict_scalars_rejects_non_multiplicative"),
    "graded.GradedMap.same_blocks": (
        "functoriality: the composite of a tower's projections equals the "
        "projection it composes to",
        "tests/test_models.py::TestTruncatedRing::test_projection_composes"),
    "holim.AlgebraDiagram.validate": (
        "the functoriality validator: a diagram of algebras whose composite "
        "arrow is not the composite of its maps fails it",
        "tests/test_holim.py::TestDiagramValidation::"
        "test_functoriality_violation_detected"),
    "holim.SignConvention.flip": (
        "the sign mutants: flipping any one limit sign breaks d^2 or the "
        "algebra validator",
        "tests/test_holim.py::TestSignConvention::"
        "test_every_single_flip_breaks_a_validator"),
    "holim.SignConvention.fields": (
        "the sign mutants cover every limit sign",
        "tests/test_holim.py::TestSignConvention::"
        "test_every_single_flip_breaks_a_validator"),
    "holim.HolimAlgebra.restriction": (
        "the Noetherian map test: the limit of a tower restricts "
        "quasi-isomorphically to its deepest quotient",
        "tests/test_holim.py::TestTowerHolim::"
        "test_restriction_to_deepest_is_a_quasi_iso"),
    "holim.HolimAlgebra.p_max": (
        "the recorded string cutoff, which certifies the limit's "
        "cohomology through dmax",
        "tests/test_holim.py::TestTowerHolim::"
        "test_cut_tower_still_certifies_low_degrees"),
    "holim.holim_map_from_compatible_system": (
        "the Noetherian map test: the cone of projections R -> R/I^n maps "
        "onto the tower's limit",
        "tests/test_noetherian.py::test_the_cone_of_projections_is_onto_the_limit"),
    "models.AdicTower.warnings": (
        "honest truncation: a tower that the ring's weight cap stabilizes "
        "says so",
        "tests/test_models.py::TestAdicTower::"
        "test_cap_artifact_warns_and_stabilizes"),
    "models.realize_module": (
        "a truncated resolution of k realizes, as P ⊗_R R, to a module with "
        "cohomology k in its certified degrees (ROADMAP item 10 completes "
        "along it)",
        "tests/test_models.py::TestResolutions::"
        "test_resolution_computes_residue_field"),
    "bar.stabilization_scan": (
        "none: it stays only because perfbench/bench_trace.py wraps it by "
        "name, and its deletion waits for a benchmark change",
        "tests/test_bar.py::test_stabilization_scan_flags"),
    "bar.embed_strict": (
        "none: it stays only because perfbench/bench_trace.py wraps it by "
        "name, and its deletion waits for a benchmark change",
        "tests/test_bar.py::test_embed_strict_is_a_quasi_isomorphism_here"),
}


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _counted_files():
    """The files whose code counts as a use: src/, and the benchmark's
    job, reference and tracer code, but not its self-tests."""
    files = sorted((ROOT / "src").rglob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


def _public_defs():
    """(qualified name, name, definition span) for module-level functions
    and classes and the methods of module-level classes; the span is
    (path, first line, last line)."""
    defs = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name,
                             (path, node.lineno, node.end_lineno)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.append((f"{path.stem}.{node.name}.{item.name}",
                                     item.name,
                                     (path, item.lineno, item.end_lineno)))
    return [d for d in defs if not d[1].startswith("_")]


def _is_self_store(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _public_attributes():
    """(qualified name, name) for each attribute a module-level class
    assigns through ``self``."""
    defs = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if _is_self_store(sub):
                        defs.add((f"{path.stem}.{node.name}.{sub.attr}", sub.attr))
    return sorted(d for d in defs if not d[1].startswith("_"))


def _reads(attributes_only=False):
    """name -> [(path, line)] of each counted read, leaving out the reads
    inside a body that ``CLAIMS`` keeps; with ``attributes_only``, only
    reads as an attribute."""
    claimed = [span for qual, _, span in _public_defs() if qual in CLAIMS]
    reads = {}
    for path in _counted_files():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and not attributes_only:
                name = node.id
            elif isinstance(node, ast.Attribute) and not _is_self_store(node):
                name = node.attr
            elif isinstance(node, ast.alias) and not attributes_only:
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if not any(p == path and first <= node.lineno <= last
                       for p, first, last in claimed):
                reads.setdefault(name, []).append((path, node.lineno))
    return reads


def _used_defs():
    reads = _reads()
    return {qual for qual, name, (path, first, last) in _public_defs()
            if any(p != path or not first <= line <= last
                   for p, line in reads.get(name, ()))}


def _used_attributes():
    reads = _reads(attributes_only=True)
    return {qual for qual, name in _public_attributes() if name in reads}


def test_every_public_name_is_used():
    used = _used_defs()
    unused = [qual for qual, _, _ in _public_defs()
              if qual not in used and qual not in CLAIMS]
    assert unused == []


def test_every_public_attribute_is_used():
    used = _used_attributes()
    unused = [qual for qual, _ in _public_attributes()
              if qual not in used and qual not in CLAIMS]
    assert unused == []


def _defines(node_id):
    """Whether the test file of a node id defines its class and function."""
    path, *names = node_id.split("::")
    body = _tree(ROOT / path).body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                 and n.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_claim_is_a_public_name_only_tests_reach():
    public = {qual for qual, _, _ in _public_defs()}
    public |= {qual for qual, _ in _public_attributes()}
    assert sorted(set(CLAIMS) - public) == []
    used = _used_defs() | _used_attributes()
    assert sorted(set(CLAIMS) & used) == []
    assert [q for q, (_, test) in CLAIMS.items() if not _defines(test)] == []


def _unused_imports(tree):
    """Names an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_import_is_used():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        unused += [f"{path.stem}.{name}" for name in _unused_imports(_tree(path))]
    assert unused == []
