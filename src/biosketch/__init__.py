"""ECC-based fuzzy commitment and secure sketch biometric systems.

Bit-packed GF(2) kernels, the four system variants, compromise-scenario
attacks, exact privacy-leakage computation, multi-system rank tradeoffs,
and a seeded Monte Carlo harness.
"""

from .biomodel import (
    BiometricWorld,
    bsc_apply,
    composite_crossover,
    sample_enrollments,
    sample_ground_truth,
    sample_probe,
    sample_world,
)
from .codes import (
    CosetLeaderTable,
    LinearCode,
    OperatingAssumptionWarning,
    binary_entropy,
    build_coset_table,
    error_exponent,
    far_bound,
    frr_bound,
    hamming_code,
    kl_bern,
    make_code_from_H,
    random_code,
    syndrome,
)
from .gf2 import (
    BitMatrix,
    BitVec,
    Gf2Solver,
    InconsistentSystemError,
    load_matrix,
    mat_mat_mul,
    mat_vec_mul,
    matrix_from_text,
    matrix_to_text,
    nullspace_basis,
    rank,
    residual_rank,
    sample_full_rank,
    solve_any,
    stacked_rank,
    uniform_bitvec,
)
from .adversary import (
    Attack,
    CompromiseSet,
    ExposedData,
    attack_coset_sampling,
    attack_linked_rank_dependent,
    attack_substitute_enrollment,
    attack_uninformed,
    attack_with_biometric_and_key,
    attack_with_stored,
    best_attack,
    expose,
)
from .harness import (
    CodeSpec,
    EquivalenceReport,
    ExperimentConfig,
    RateEstimate,
    RunPlan,
    equivalence_report,
    estimate_far,
    estimate_frr,
    estimate_sar,
    run_config,
    wilson_interval,
)
from .leakage import (
    LeakageReport,
    exact_mutual_info,
    exact_single_system_leakage,
    leakage_rank_bound,
    single_system_leakage,
)
from .multisys import (
    DesignReport,
    design_search,
    linkage_preset,
    rank_profiles,
    sar_lower_bound,
)
from .schemes import (
    AuthDecision,
    EnrollmentRecord,
    Scheme,
    SystemParams,
    authenticate,
    decoding_syndrome,
    enroll,
    key_bits,
    parse_stored,
    serialize_stored,
    storage_bits,
)

__version__ = "0.1.0"
