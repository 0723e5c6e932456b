"""Scale structures on finite carriers: covers, entourages, bounded families,
oscillation at infinity, and the function- and operator-algebra checks that
tie the two scales together."""

from .model import Filtration, InstanceError, Space, builder_grid, builder_group_window, builder_line, fmt_value
from .reports import CheckReport
from .scales import Cover, PartitionOfUnity, check_ls_base, check_ss_base, is_smaller, pou_support, refines, smaller_or_equal, star_family, star_set, subordinated, trivial_extension
from .entourages import Entourage, check_coarse_axioms, check_uniform_axioms, compose, diagonal, entourage_of_scale, invert, metric_entourage, scale_of_entourage
from .metric import ball_cover, lebesgue_number, mesh, metric_ls_base, metric_ss_base, sup_diameter
from .bounded import BoundedStructure, check_axioms, desk_weakly_bounded, from_filtration, from_metric, uniformly_bounded, witness_space
from .translation import GroupWindow, check_translation_ls, translation_scale, window_group, z_window
from .oscillation import SOQuery, build_bump_refuter, build_scaled_refuter, element_diameters, equivalence_test, heavy_pairs, is_slowly_oscillating
from .algebra_comm import FunctionFamily, family_ball_cover, induced_bounded, is_ss_continuous, separation_blocks, ss_base_from_family, stone_weierstrass_desk_test
from .duality import LSQuery, continuously_controlled_check, ls_membership, ls_structure_axiom_test, maximal_structure_check, reflectivity_oracle, s0_classify, theorem75_agreement, wright_c0_check
from .algebra_noncomm import OperatorMatrix, StarFamily, chain_cover_operator, cstar_ss_membership, f_bounded, ls_from_algebra, operator_norm, orientation_check, pou_improve, pou_to_operator, roe_comparison_tests, ss_from_algebra, ssp_witness_check, support_entourage
from .instances import BUNDLED_NAMES, InstanceCatalogue, bundled, load_path, load_space, save_instance
from . import catalogues

__version__ = "0.1.0"
