"""Error-correcting index codes over finite fields.

Construction, verification, parameter computation (generalized
independence number and min-rank), length bounds, exact optimal-length
search, and syndrome decoding for the index-coding-with-side-information
broadcast model.
"""

from .bounds import (
    BoundsReport,
    alpha_bound,
    bounds_report,
    code_exists,
    find_code_generator,
    kappa_bound,
    random_coding_length,
    shortest_code_length,
    singleton_bound,
    sphere_volume,
)
from .construct_search import (
    ExistsResult,
    SearchOutcome,
    concatenate_construction,
    exists_ecic,
    mds_generator,
    optimal_length_search,
    random_construct,
)
from .decoder import (
    DecodeOutcome,
    ReceiverDecoder,
    build_receiver_decoder,
    decode,
    exhaustive_correctness_check,
    in_relevant_error_set,
    simulate_round,
)
from .errors import EcicError
from .field_linalg import (
    Field,
    FMatrix,
    FVector,
    code_min_distance,
    coset_leader,
    format_matrix,
    make_field,
    mat_rank,
    parity_check_matrix,
    parse_matrix,
)
from .index_codes import (
    EcicVerdict,
    InstanceParams,
    LinearIndexCode,
    correction_radius,
    encode,
    generalized_independence_number,
    instance_params,
    margins,
    min_rank,
    verify_ecic,
    verify_ecic_direct,
    verify_ic,
)
from .instance import (
    IcsiInstance,
    ReceiverFrame,
    builtin_instance,
    enumerate_error_vectors,
    example1,
    in_support_family,
    instance_to_doc,
    no_side_info,
    odd_cycle_complement,
    parse_instance,
    pentagon,
    receiver_frame,
)

__version__ = "0.1.0"
