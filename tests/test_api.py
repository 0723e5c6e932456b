"""The public surface: the exact names ``scalekit`` exports, and the library
names the benchmark's tracer wraps by name.  Removing or renaming any of
them is an API change, so it has to be made here on purpose; the tracer
(``bench/tracer.py``) looks its methods up with ``getattr``, and a renamed
function would silently drop out of its per-layer figures."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import scalekit

EXPORTS = {
    "BUNDLED_NAMES", "BoundedStructure", "CheckReport", "Cover", "Entourage",
    "Filtration", "FunctionFamily", "GroupWindow", "InstanceCatalogue",
    "InstanceError", "LSQuery", "OperatorMatrix", "PartitionOfUnity", "SOQuery",
    "Space", "StarFamily", "ball_cover", "build_bump_refuter",
    "build_scaled_refuter", "builder_grid", "builder_group_window", "builder_line",
    "bundled", "chain_cover_operator", "check_axioms", "check_coarse_axioms",
    "check_ls_base", "check_ss_base", "check_translation_ls", "check_uniform_axioms",
    "compose", "continuously_controlled_check", "cstar_ss_membership",
    "desk_weakly_bounded", "diagonal", "element_diameters", "entourage_of_scale",
    "equivalence_test", "f_bounded", "family_ball_cover", "fmt_value",
    "from_filtration", "from_metric", "heavy_pairs", "induced_bounded", "invert",
    "is_slowly_oscillating", "is_smaller", "is_ss_continuous", "lebesgue_number",
    "load_path", "load_space", "ls_from_algebra", "ls_membership",
    "ls_structure_axiom_test", "maximal_structure_check", "mesh",
    "metric_entourage", "metric_ls_base", "metric_ss_base", "operator_norm",
    "orientation_check", "pou_improve", "pou_support", "pou_to_operator", "refines",
    "reflectivity_oracle", "roe_comparison_tests", "s0_classify", "save_instance",
    "scale_of_entourage", "separation_blocks", "smaller_or_equal",
    "ss_base_from_family", "ss_from_algebra", "ssp_witness_check", "star_family",
    "star_set", "stone_weierstrass_desk_test", "subordinated", "sup_diameter",
    "support_entourage", "theorem75_agreement", "translation_scale",
    "trivial_extension", "uniformly_bounded", "window_group", "witness_space",
    "wright_c0_check", "z_window",
}

SUBMODULES = {"algebra_comm", "algebra_noncomm", "bounded", "catalogues", "duality",
              "entourages", "instances", "metric", "model", "oscillation", "reports",
              "scales", "translation"}


def public(pred):
    return {n for n, v in vars(scalekit).items() if not n.startswith("_") and pred(v)}


def test_exported_names_are_pinned():
    assert public(lambda v: not inspect.ismodule(v)) == EXPORTS
    # other submodules (the command line) join once something imports them
    assert SUBMODULES <= public(inspect.ismodule)


def load_tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


def resolve(dotted: str):
    """The library object a tracer name ("module.attr[.attr]") stands for."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module("scalekit." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("owner", sorted(TRACER.METHODS))
def test_traced_methods_exist(owner):
    cls = resolve(owner)
    assert inspect.isclass(cls)
    for meth in TRACER.METHODS[owner]:
        assert callable(getattr(cls, meth))


def test_traced_per_layer_names_exist():
    # "module.name.self_s" (or ".calls", ...) names a function or class that
    # the tracer wraps, or a method of METHODS; a name that no longer
    # resolves would read 0 for ever
    named = {key.rsplit(".", 1)[0] for key, _ in TRACER.PER_LAYER
             if key.count(".") == 2 and key.split(".")[0] in TRACER.MODULES}
    methods = {"%s.%s" % (owner.split(".")[0], meth)
               for owner, meths in TRACER.METHODS.items() for meth in meths}
    assert named and methods <= named
    for dotted in sorted(named - methods):
        assert callable(resolve(dotted)), dotted
