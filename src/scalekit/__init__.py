"""Scale structures on finite carriers: covers, entourages, bounded families,
oscillation at infinity, and the function- and operator-algebra checks that
tie the two scales together.

``import scalekit`` loads the data layer only: numpy, ``model`` (the
carrier, its builders and ``InstanceError``) and ``reports``
(``CheckReport``).  Every other name below, and every submodule, is
imported on first use."""
from importlib import import_module as _import_module

from .model import Filtration, InstanceError, Space, builder_grid, builder_group_window, builder_line, fmt_value
from .reports import CheckReport

__version__ = "0.1.0"

# the exported names of each submodule; those of model and reports are bound
# above, the rest are looked up in their submodule on every access, so that a
# function rebound there (a tracer's wrapper, and its removal) shows here too
_EXPORTS = {
    "model": ("Filtration", "InstanceError", "Space", "builder_grid",
              "builder_group_window", "builder_line", "fmt_value"),
    "reports": ("CheckReport",),
    "scales": ("Cover", "PartitionOfUnity", "check_ls_base", "check_ss_base",
               "element_diameters", "is_smaller", "pou_support", "refines",
               "smaller_or_equal", "star_family", "star_set", "subordinated",
               "trivial_extension"),
    "entourages": ("Entourage", "check_coarse_axioms", "check_uniform_axioms",
                   "compose", "diagonal", "entourage_of_scale", "invert",
                   "metric_entourage", "scale_of_entourage"),
    "metric": ("ball_cover", "lebesgue_number", "mesh", "metric_ls_base",
               "metric_ss_base", "sup_diameter"),
    "bounded": ("BoundedStructure", "check_axioms", "desk_weakly_bounded",
                "from_filtration", "from_metric", "uniformly_bounded",
                "witness_space"),
    "translation": ("GroupWindow", "check_translation_ls", "translation_scale",
                    "window_group", "z_window"),
    "oscillation": ("SOQuery", "build_bump_refuter", "build_scaled_refuter",
                    "equivalence_test", "heavy_pairs", "is_slowly_oscillating"),
    "algebra_comm": ("FunctionFamily", "family_ball_cover", "induced_bounded",
                     "is_ss_continuous", "separation_blocks",
                     "ss_base_from_family", "stone_weierstrass_desk_test"),
    "duality": ("LSQuery", "continuously_controlled_check", "ls_membership",
                "ls_structure_axiom_test", "maximal_structure_check",
                "reflectivity_oracle", "s0_classify", "theorem75_agreement",
                "wright_c0_check"),
    "algebra_noncomm": ("OperatorMatrix", "StarFamily", "chain_cover_operator",
                        "cstar_ss_membership", "f_bounded", "ls_from_algebra",
                        "operator_norm", "orientation_check", "pou_improve",
                        "pou_to_operator", "roe_comparison_tests",
                        "ss_from_algebra", "ssp_witness_check",
                        "support_entourage"),
    "instances": ("BUNDLED_NAMES", "InstanceCatalogue", "bundled", "load_path",
                  "load_space", "save_instance"),
    "catalogues": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name in _OWNER:
        return getattr(_import_module("." + _OWNER[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
