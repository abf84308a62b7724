"""chainops: exact-arithmetic chain operads from conormalized box products,
the cochain operation calculus, Hochschild cohomology with its Gerstenhaber
structure, and a rational little-cubes model."""

from .intmat import IntMatrix, smith_normal_form
from .complexes import (GradedIntComplex, ChainMap, tensor, reduced_homology,
                        homology_basis)
from .delta import FinOrd, OrderedMap, coface, codegeneracy, factor_epi_mono
from .simplicial import (FiniteSimplicialSet, simplicial_circle,
                         standard_simplex_chains, standard_simplex_sset)
from .cosimplicial import (CosimplicialAbGroup, CosimplicialChainComplex,
                           compare_conormalizations, conormalize_bicomplex,
                           conormalize_cokernel, conormalize_kernel)
from .boxprod import (Symbol, box_level, complexity, enumerate_symbols)
from .operads import (TruncatedChainOperad, operad_homology,
                      verify_operad_axioms)
from .cochain_ops import AugmentedCochainSystem, verify_identities
from .hochschild import (FiniteRankAlgebra, gerstenhaber_bracket,
                         gerstenhaber_report, hochschild_cohomology,
                         hochschild_cup, hochschild_differential)
from .cubes import (CubesElement, IntervalsElement, TDMap, count_components,
                    gamma_cubes, sigma_cubes)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix", "smith_normal_form", "GradedIntComplex", "ChainMap",
    "tensor", "reduced_homology", "homology_basis", "FinOrd", "OrderedMap",
    "coface", "codegeneracy", "factor_epi_mono", "FiniteSimplicialSet",
    "simplicial_circle", "standard_simplex_chains", "standard_simplex_sset",
    "CosimplicialAbGroup", "CosimplicialChainComplex",
    "compare_conormalizations", "conormalize_bicomplex",
    "conormalize_cokernel", "conormalize_kernel", "Symbol", "box_level",
    "complexity", "enumerate_symbols", "TruncatedChainOperad",
    "operad_homology", "verify_operad_axioms", "AugmentedCochainSystem",
    "verify_identities", "FiniteRankAlgebra", "gerstenhaber_bracket",
    "gerstenhaber_report", "hochschild_cohomology", "hochschild_cup",
    "hochschild_differential", "CubesElement", "IntervalsElement", "TDMap",
    "count_components", "gamma_cubes", "sigma_cubes",
]
