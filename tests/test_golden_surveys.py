"""Survey results against committed goldens.

``golden/surveys.json`` holds the JSON of a set of surveys, less
``elapsed_seconds``: the fast presets, the prefix of (7,11,2) at several
chunk sizes, ranges cut in the middle of a run of chessboard row 1, travels
surveys, class-by-class surveys (``TABLE_MAX_BYTES = 0``) and the
``-fallback`` cases, whole spaces that were once counted by their lower half:
(3,6), one of the six shapes that count every class, and (11,13), which
counts one class in 16 with runs wider than chessboard row 1.  Any change to
how a survey chunks, counts or credits its classes must leave these bytes as
they are.  Regenerate the file only from code whose results are trusted:

    PYTHONPATH=src python tests/test_golden_surveys.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import lomlab.survey as survey_module
from lomlab.survey import PRESETS, SurveyConfig, run_survey

GOLDEN = Path(__file__).parent / "golden" / "surveys.json"

FAST_PRESETS = ("r3n5k1", "r4n8k1", "r7n11k2", "r8n11k2", "r8n11k3", "r9n12k2", "r9n12k3")

# (case id, SurveyConfig fields, TABLE_MAX_BYTES or None for the default)
CASES = [
    *(
        (name, {"rank": p.rank, "elements": p.elements, "k": p.k}, None)
        for name, p in PRESETS.items()
        if name in FAST_PRESETS
    ),
    ("r7n11k2-two-threads", {"rank": 7, "elements": 11, "k": 2, "threads": 2}, None),
    *(
        (f"r7n11k2-chunk{size}", {"rank": 7, "elements": 11, "k": 2, "chunk_size": size}, None)
        for size in (1, 3, 7, 64)
    ),
    ("r7n11k2-range", {"rank": 7, "elements": 11, "k": 2, "index_range": (5, 1001)}, None),
    (
        "r8n11k2-range-chunk7",
        {"rank": 8, "elements": 11, "k": 2, "index_range": (1003, 9999), "chunk_size": 7},
        None,
    ),
    (
        "r4n8k1-range-from-zero",
        {"rank": 4, "elements": 8, "k": 1, "index_range": (0, 77), "chunk_size": 5},
        None,
    ),
    ("r3n6k1-travels", {"rank": 3, "elements": 6, "k": 1, "engine": "travels"}, None),
    (
        "r5n9k1-travels-range",
        {"rank": 5, "elements": 9, "k": 1, "engine": "travels", "index_range": (3, 61)},
        None,
    ),
    ("r4n8k1-no-table", {"rank": 4, "elements": 8, "k": 1}, 0),
    ("r8n11k2-no-table", {"rank": 8, "elements": 11, "k": 2, "chunk_size": 100}, 0),
    ("r5n9k1-no-table-range", {"rank": 5, "elements": 9, "k": 1, "index_range": (7, 301)}, 0),
    ("r5n9k1-no-table-from-zero", {"rank": 5, "elements": 9, "k": 1, "index_range": (0, 33)}, 0),
    ("r3n6k1-fallback", {"rank": 3, "elements": 6, "k": 1}, None),
    ("r11n13k2-fallback", {"rank": 11, "elements": 13, "k": 2}, None),
    ("r11n13k2-fallback-chunk3", {"rank": 11, "elements": 13, "k": 2, "chunk_size": 3}, None),
]


def survey_json(fields: dict, table_max_bytes: int | None) -> dict:
    saved = survey_module.TABLE_MAX_BYTES
    if table_max_bytes is not None:
        survey_module.TABLE_MAX_BYTES = table_max_bytes
    try:
        result = run_survey(SurveyConfig(**fields)).to_json_dict()
    finally:
        survey_module.TABLE_MAX_BYTES = saved
    del result["elapsed_seconds"]
    return result


def load_goldens() -> dict:
    return {case["case"]: case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("case,fields,table_max_bytes", CASES, ids=[c[0] for c in CASES])
def test_survey_matches_golden(case, fields, table_max_bytes):
    golden = load_goldens()[case]
    assert golden["config"] == json.loads(json.dumps(fields))
    assert golden["table_max_bytes"] == table_max_bytes
    assert survey_json(fields, table_max_bytes) == golden["result"]


def test_every_golden_is_checked():
    assert sorted(load_goldens()) == sorted(c[0] for c in CASES)


def main() -> int:
    goldens = [
        {
            "case": case,
            "config": fields,
            "table_max_bytes": table_max_bytes,
            "result": survey_json(fields, table_max_bytes),
        }
        for case, fields, table_max_bytes in CASES
    ]
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {len(goldens)} surveys to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
