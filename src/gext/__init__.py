"""Global Ext modules and sheaf cohomology on projective schemes over ZZ/p."""

from .free import FreeModule, GradedMatrix, ModuleElement
from .gmod import (GradedModule, ModuleMap, cokernel, direct_sum,
                   free_module_of, graded_component, hilbert_function,
                   image_of, kernel_of_map, krull_dim, prune,
                   restrict_scalars, ring_module, submodule_equals,
                   subquotient, truncate_module, twist, zero_module)
from .groebner import (GroebnerBasis, groebner_basis, minimal_generators,
                       normal_form, syzygies)
from .homext import (ExtModule, HomModule, ext_module, homomorphism_from,
                     hom_module)
from .resolve import BettiTable, FreeResolution, betti_stats, free_resolution
from .ring import (AlgebraError, NotHomogeneous, ParseError, Polynomial, Ring,
                   RingMismatch, parse_polynomial)
from .script import parse_script, run_script
from .sheafext import (ExtensionResult, cotangent_module, global_ext,
                       global_ext_sum, nonsplit_extension_coords,
                       sheaf_cohomology, sheaf_cohomology_sum,
                       truncation_bound, vanishing_bound, yoneda_extension)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "BettiTable", "ExtModule", "ExtensionResult",
    "FreeModule", "FreeResolution", "GradedMatrix", "GradedModule",
    "GroebnerBasis", "HomModule", "ModuleElement", "ModuleMap",
    "NotHomogeneous", "ParseError", "Polynomial", "Ring", "RingMismatch",
    "betti_stats", "cokernel", "cotangent_module", "direct_sum",
    "ext_module", "free_module_of", "free_resolution",
    "global_ext", "global_ext_sum", "graded_component", "groebner_basis",
    "hilbert_function", "hom_module", "homomorphism_from", "image_of",
    "kernel_of_map", "krull_dim", "minimal_generators",
    "nonsplit_extension_coords", "normal_form", "parse_polynomial",
    "parse_script", "prune", "restrict_scalars", "ring_module",
    "run_script", "sheaf_cohomology", "sheaf_cohomology_sum",
    "submodule_equals", "subquotient", "syzygies", "truncate_module",
    "truncation_bound", "twist", "vanishing_bound", "yoneda_extension",
    "zero_module",
]
