"""Space-time block codes from codes over GF(4).

Construction, verification and simulation toolkit: exact GF(4) vector
arithmetic, the matrix realization map and its parity shortcuts,
multigroup decoding partitions and complexity plans, the recursive
constructions and catalog of known designs, the rate-5/4 FD/FGD family,
full-diversity constellation tools, and a seeded MIMO simulator with
matching brute-force and structured ML decoders.
"""

from .f4 import F4Vec, add, weight, enumerate_all, parse_vec, format_vec
from .pauli import (psi_inv, phi_inv, phi, phi_signed, is_hermitian_parity,
                    anticommute_parity, hr_orthogonal_numeric, trace_inner,
                    NotInLambdaError)
from .design import (Design, finest_partition, validate_partition, rate,
                     conditional_partition, plan_complexity, Leaf, Cond,
                     JOINT, HARD_LAST, HARD_ALL, ComplexityReport,
                     LinearDesign, LDEntry, to_linear_design, matrix_form)
from .constructions import (construct_A, construct_B, construct_C,
                            apply_sigma, designs_equivalent, catalog,
                            catalog_names, XI_ORDERS)
from .fdfgd import (build_base, puncture, extend, family, pair_split,
                    check_prop16, predicted_complexity)
from .signalset import SignalSet, PairQAM, RealPoints
from .diversity import (generator_matrix, cubic_shaping_check,
                        rotation_search, full_diversity_check,
                        difference_classes, DiversityCapError,
                        grow_constellation, grow_with_pam_prefix)
from .simulate import STBCInstance, SimConfig, SimResult, simulate
from .bundles import assemble_stbc, silver_stbc

__version__ = "0.1.0"
