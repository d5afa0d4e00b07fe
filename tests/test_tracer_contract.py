"""The benchmark's tracer wraps torlen functions by name and reads some of
their positional arguments; ``Tracer.install`` skips a name it cannot
find, which then reports 0 calls.  So every traced function must keep
its name and its positional parameters."""

import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

# The positional parameters of each traced function, as the tracer was
# written against them.
POSITIONAL = {
    "words.Word": ("self",),
    "words.free_reduce": ("w",),
    "words.reduce_ints": ("iw",),
    "words.substitute": ("w", "mapping"),
    "words.cyclic_reduce": ("w",),
    "presentation.parse_presentation": ("text",),
    "presentation.kill_generators": ("p", "victims"),
    "presentation.eliminate_generator_with_image": ("p", "g", "defining_relator_index"),
    "presentation.canonicalize": ("p",),
    "presentation.abelianization": ("p",),
    "abelian.smith_normal_form": ("matrix",),
    "torsion.torsion_length": ("p", "max_iter"),
    "torsion.torsion_quotient_step": ("p",),
    "torsion.in_certified_class": ("p",),
    "torsion.torsion_certificate_search": (
        "p", "level", "word_bound", "exponent_bound", "consequence_budget", "max_states"
    ),
    "torsion.TorsionCertificate.verify": ("self",),
    "consequences.closure_ball": ("relators", "n_generators", "max_len", "max_depth", "max_states"),
    "consequences.ClosureBall.factors": ("self", "iw"),
    "consequences.verify_factors": ("target", "factors", "relators"),
    "stallings.build_subgroup_graph": ("ambient", "generators"),
    "stallings.membership": ("graph", "w"),
    "stallings.closure_members": ("generators", "max_length"),
    "stallings.free_basis": ("graph",),
    "stallings.nielsen_reduce": ("generators",),
    "coset.todd_coxeter": ("p", "subgroup_generators", "max_cosets"),
    "freeprod.normal_form": ("spec", "w"),
    "freeprod.nf_multiply": ("spec", "a", "b"),
    "freeprod.ping_pong_free_check": ("spec", "u", "v", "max_length"),
    "freeprod.conjugate_separation_search": ("spec", "a", "b", "max_syllables", "max_exponent"),
    "constructions.build_ln": ("p",),
    "constructions.build_tgen": ("p",),
    "cli.main": ("argv",),
}


def test_every_traced_function_keeps_its_name_and_positional_parameters():
    found = {}
    for name, module, path in tracer.TRACED:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), f"{name}: {module}.{path} is not a function"
        assert obj.__module__ == module, f"{name}: {module}.{path} comes from {obj.__module__}"
        found[name] = tuple(
            q.name
            for q in inspect.signature(obj).parameters.values()
            if q.kind in (q.POSITIONAL_ONLY, q.POSITIONAL_OR_KEYWORD)
        )
    assert found == POSITIONAL
