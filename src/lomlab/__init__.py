"""lomlab: exact combinatorics of sign-matrix (Lawrence) oriented matroids.

Counts k-neighborly reorientations by independent circuit- and travel-based
engines, enumerates reorientation classes through the chessboard encoding,
evaluates the closed forms and bounds, and runs exhaustive per-class surveys
with checkpointing.
"""

from .chessboard import (
    ENCODING_VERSION,
    Chessboard,
    chessboard_of,
    class_count,
    index_of_chessboard,
    relevant_squares,
    representative_of_index,
)
from .formulas import (
    CValue,
    asymptotic_bound,
    binomial,
    c_closed_form,
    c_value,
    lom_upper_bound,
    total_plain_travels,
)
from .sign_core import (
    ChirotopeTable,
    OVector,
    SignedCircuit,
    SignMatrix,
    all_circuits,
    alternating_matrix,
    chirotope_from_matrix,
    chirotope_sign,
    circuit_of_support,
    circuits_from_chirotope,
    contract_element,
    count_k_neighborly_reorientations,
    count_k_neighborly_reorientations_chirotope,
    delete_element,
    is_k_neighborly_circuits,
    o_vector,
    reorient_columns,
    reorient_rows,
)
from .survey import (
    PRESETS,
    CheckpointMismatchError,
    CorruptCheckpointError,
    SurveyConfig,
    SurveyResult,
    engine_crosscheck,
    minor_recursion_check,
    run_survey,
    verify_case,
)
from .travels import (
    PlainTravel,
    Travel,
    bottom_travel,
    count_k_neighborly_plain_travels,
    enumerate_plain_travels,
    f_via_travels,
    is_acyclic_via_travel,
    is_k_neighborly_matrix,
    positivizing_set,
    realize_plain_travel,
    top_travel,
)

__version__ = "0.1.0"
