"""Each input check of the public API raises a ValueError that names the problem."""

import pytest

from lomlab.chessboard import Chessboard, render_board
from lomlab.formulas import total_plain_travels
from lomlab.sign_core import (
    ChirotopeTable,
    SignedCircuit,
    SignMatrix,
    alternating_matrix,
    chirotope_from_matrix,
    circuit_of_support,
    contract_element,
    count_k_neighborly_reorientations,
    count_k_neighborly_reorientations_chirotope,
    delete_element,
    is_k_neighborly_circuits,
    violation_table,
)
from lomlab.survey import engine_crosscheck, minor_recursion_check
from lomlab.travels import (
    PlainTravel,
    bottom_travel,
    count_k_neighborly_plain_travels,
    is_k_neighborly_matrix,
    positivizing_set,
    realize_plain_travel,
)

A24 = alternating_matrix(2, 4)
T24 = chirotope_from_matrix(A24)
ONE_ROW = SignMatrix(((1, 1, 1),))

CHECKS = {
    "board row lengths": (
        lambda: Chessboard(((True,), ())),
        "board rows must be non-empty and equally long",
    ),
    "square off the board": (
        lambda: Chessboard(((True, False),)).is_black(2, 1),
        "square (2,1) outside 1x2 board",
    ),
    "board of another shape": (
        lambda: render_board(Chessboard(((True,),)), 3, 5),
        "board is 1x1, expected 2x4 for r=3, n=5",
    ),
    "matrix without rows": (lambda: SignMatrix(()), "matrix must have at least one row"),
    "matrix taller than wide": (
        lambda: SignMatrix(((1,), (1,))),
        "invalid dimensions: need 1 <= rows <= cols, got 2x1",
    ),
    "position off the matrix": (lambda: A24.sign(3, 1), "position (3,1) outside 2x4 matrix"),
    "circuit lengths": (
        lambda: SignedCircuit((1, 2), (1,)),
        "support and signs must have equal length",
    ),
    "circuit support order": (
        lambda: SignedCircuit((2, 1), (1, 1)),
        "support must be strictly increasing",
    ),
    "circuit sign values": (
        lambda: SignedCircuit((1, 2), (1, 0)),
        "circuit signs must be +1 or -1",
    ),
    "chirotope dimensions": (
        lambda: ChirotopeTable(3, 2, ()),
        "invalid dimensions: rank 3, ground size 2",
    ),
    "chirotope basis order": (
        lambda: T24.sign((2, 1)),
        "(2, 1) is not a sorted basis of this table",
    ),
    "circuit_of_support order": (
        lambda: circuit_of_support(A24, (1, 3, 2)),
        "support must be strictly increasing",
    ),
    "is_k_neighborly_circuits k": (
        lambda: is_k_neighborly_circuits(A24, (), -1),
        "k must be non-negative, got k=-1",
    ),
    "count_k_neighborly_reorientations k": (
        lambda: count_k_neighborly_reorientations(A24, -1),
        "k must be non-negative, got k=-1",
    ),
    "delete_element label": (lambda: delete_element(T24, 0), "element 0 out of range 1..4"),
    "contract_element label": (lambda: contract_element(T24, 5), "element 5 out of range 1..4"),
    "chirotope count k": (
        lambda: count_k_neighborly_reorientations_chirotope(T24, -1),
        "k must be non-negative, got k=-1",
    ),
    "bottom travel width": (
        lambda: bottom_travel(SignMatrix(((1,),))),
        "bottom travel needs at least 2 columns",
    ),
    "is_k_neighborly_matrix k": (
        lambda: is_k_neighborly_matrix(A24, -1),
        "k must be non-negative, got k=-1",
    ),
    "too many drops": (
        lambda: realize_plain_travel(A24, PlainTravel((2, 3))),
        "at most 1 drops possible in 2 rows, got 2",
    ),
    "drop past the last column": (
        lambda: realize_plain_travel(A24, PlainTravel((5,))),
        "drop column 5 out of range 2..4",
    ),
    "plain-travel count k": (
        lambda: count_k_neighborly_plain_travels(A24, -1),
        "k must be non-negative, got k=-1",
    ),
    "plain-travel count rank": (
        lambda: count_k_neighborly_plain_travels(ONE_ROW, 0),
        "plain travels need 2 <= r <= n, got r=1, n=3",
    ),
    "positivizing_set k": (
        lambda: positivizing_set(A24, -1, ()),
        "k must be non-negative, got k=-1",
    ),
    "positivizing_set label": (
        lambda: positivizing_set(A24, 1, (0,)),
        "column label 0 out of range 1..4",
    ),
    "total_plain_travels rank": (
        lambda: total_plain_travels(1, 3),
        "need 2 <= r <= n, got r=1, n=3",
    ),
    "violation_table k": (
        lambda: violation_table(3, 6, -1),
        "k must be non-negative, got k=-1",
    ),
    "crosscheck k": (
        lambda: engine_crosscheck(3, 5, -1, 0, 0),
        "k must be non-negative, got k=-1",
    ),
    "crosscheck n past the circuits engine's limit": (
        lambda: engine_crosscheck(3, 100, 1, 0, 0),
        "the circuits engine counts at most n=24 elements, got n=100",
    ),
    "crosscheck rank": (
        lambda: engine_crosscheck(1, 3, 0, 2, 0),
        "need rank >= 2, got rank 1",
    ),
    "minor recursion check k": (
        lambda: minor_recursion_check(4, 7, -1, 0, 0),
        "k must be non-negative, got k=-1",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_names_the_problem(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
