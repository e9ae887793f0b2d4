"""Command-line interface.

One executable, ``lomlab``, dispatching to the library: travel and circuit
inspection, f counting, plain-travel enumeration, chessboard encoding and
class representatives, formula evaluation, per-class surveys, preset
verification, and engine cross-checks.  Every subcommand accepts ``--json``
for stable machine-readable output.  Exit codes: 0 success, 1 usage or I/O
error, 2 a failed verify or crosscheck.

Each ``_cmd_*`` handler returns ``(payload, lines, code)``: the dict emitted
under ``--json``, the lines printed otherwise, and the exit code.  ``main``
alone prints one of the two and returns the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import formulas, survey
from .chessboard import (
    chessboard_of,
    class_count,
    index_of_chessboard,
    relevant_squares,
    render_board,
    representative_of_index,
)
from .sign_core import (
    SignMatrix,
    all_circuits,
    chirotope_from_matrix,
    count_k_neighborly_reorientations,
    count_k_neighborly_reorientations_chirotope,
    reorient_columns,
    reorient_rows,
)
from .travels import (
    bottom_travel,
    count_k_neighborly_plain_travels,
    enumerate_plain_travels,
    f_via_travels,
    top_travel,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (2 is reserved
    for verification failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_labels(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--range: expected LO..HI, got {text!r}") from None


@contextmanager
def _naming_matrix(path: str | None):
    """Prefix a ValueError raised inside with ``--matrix PATH:`` when a path is given."""
    try:
        yield
    except ValueError as exc:
        if path is None:
            raise
        raise ValueError(f"--matrix {path}: {exc}") from None


def _load_matrix(args) -> SignMatrix:
    path = Path(args.matrix)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"--matrix: cannot read {path}: {exc.strerror or exc}") from None
    with _naming_matrix(args.matrix):
        A = SignMatrix.parse(text)
    for flag, labels, reorient in (
        ("--flip-cols", args.flip_cols, reorient_columns),
        ("--flip-rows", args.flip_rows, reorient_rows),
    ):
        if labels:
            try:
                A = reorient(A, _parse_labels(labels))
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    return A


def _chirotope_count(A: SignMatrix, k: int) -> int:
    return count_k_neighborly_reorientations_chirotope(chirotope_from_matrix(A), k)


# fcount --engine: name -> f(A, k)
_FCOUNT_ENGINES = {
    "circuits": count_k_neighborly_reorientations,
    "travels": f_via_travels,
    "chirotope": _chirotope_count,
}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_travel(args):
    A = _load_matrix(args)
    with _naming_matrix(args.matrix):
        travel = bottom_travel(A) if args.bottom else top_travel(A)
    payload = {
        "kind": travel.kind,
        "path": [
            {"row": i, "col": j, "sign": "+" if A.sign(i, j) > 0 else "-"}
            for i, j in travel.path
        ],
        "drop_columns": list(travel.drop_columns),
        "positive": travel.positive,
    }
    lines = [f"({step['row']},{step['col']})={step['sign']}" for step in payload["path"]]
    lines.append(f"positive: {'yes' if travel.positive else 'no'}")
    return payload, lines, 0


def _cmd_circuits(args):
    A = _load_matrix(args)
    circuits = all_circuits(A)
    payload = {
        "rank": A.rows,
        "elements": A.cols,
        "count": len(circuits),
        "circuits": [
            {"support": list(c.support), "signs": list(c.signs)}
            for c in circuits
        ],
    }
    lines = [
        " ".join(f"{'+' if s > 0 else '-'}{e}" for e, s in zip(c.support, c.signs))
        for c in circuits
    ]
    lines.append(f"count: {len(circuits)}")
    return payload, lines, 0


def _cmd_fcount(args):
    if args.k < 0:  # checked first: the error is the flag's, not the matrix's
        raise ValueError(f"k must be non-negative, got k={args.k}")
    A = _load_matrix(args)
    with _naming_matrix(args.matrix):
        f = _FCOUNT_ENGINES[args.engine](A, args.k)
    payload = {
        "rank": A.rows,
        "elements": A.cols,
        "k": args.k,
        "engine": args.engine,
        "f": f,
    }
    return payload, [f"f = {f}"], 0


def _cmd_plain_travels(args):
    if args.matrix is None:
        if args.k is not None:
            raise ValueError("plain-travels --k needs --matrix, the matrix whose travels it counts")
        for flag, labels in (("--flip-cols", args.flip_cols), ("--flip-rows", args.flip_rows)):
            if labels is not None:
                raise ValueError(f"plain-travels {flag} needs --matrix, the matrix it reorients")
        if args.rank is None or args.elements is None:
            raise ValueError("plain-travels needs either --matrix or --rank and --elements")
        A = None
        r, n = args.rank, args.elements
    else:
        if args.rank is not None or args.elements is not None:
            raise ValueError("plain-travels takes --matrix or --rank and --elements, not both")
        A = _load_matrix(args)
        r, n = A.rows, A.cols
    with _naming_matrix(args.matrix):
        travels_list = enumerate_plain_travels(r, n)
    payload = {
        "rank": r,
        "elements": n,
        "total": len(travels_list),
        "travels": [list(t.drop_columns) for t in travels_list],
    }
    lines = [
        "drops: " + (",".join(map(str, t.drop_columns)) if t.drop_columns else "(none)")
        for t in travels_list
    ]
    lines.append(f"total: {len(travels_list)}")
    if args.k is not None:  # refused above without a matrix
        neighborly = count_k_neighborly_plain_travels(A, args.k)
        payload["k"] = args.k
        payload["k_neighborly"] = neighborly
        payload["f"] = 2 * neighborly
        lines.append(f"k_neighborly: {neighborly}")
        lines.append(f"f = {2 * neighborly}")
    return payload, lines, 0


def _cmd_chessboard(args):
    A = _load_matrix(args)
    with _naming_matrix(args.matrix):
        board = chessboard_of(A)
    r, n = A.rows, A.cols
    text = render_board(board, r, n)
    payload = {
        "rank": r,
        "elements": n,
        "board": text.splitlines(),
    }
    if n >= r + 1:
        payload["relevant_squares"] = [list(sq) for sq in relevant_squares(r, n)]
        payload["index"] = index_of_chessboard(board, r, n)
    return payload, [text], 0


def _cmd_representative(args):
    A = representative_of_index(args.rank, args.elements, args.index)
    payload = {
        "rank": args.rank,
        "elements": args.elements,
        "index": args.index,
        "matrix": A.format().splitlines(),
    }
    return payload, [A.format()], 0


def _cmd_formulas(args):
    r, n, k = args.rank, args.elements, args.k
    c = formulas.c_value(r, n, k)
    travels_total = formulas.total_plain_travels(r, n)
    classes = class_count(r, n)
    bound = None
    if k >= 1 and n >= 2 * r - 1:
        bound = formulas.lom_upper_bound(r, n, k)
    asymptotic = None
    if k >= 1 and r >= 2 * k + 2:
        asymptotic = formulas.asymptotic_bound(r, n, k)
    payload = {
        "rank": r,
        "elements": n,
        "k": k,
        "c_value": c.value,
        "c_source": c.source,
        "total_plain_travels": travels_total,
        "class_count": classes,
        "lom_upper_bound": bound,
        "asymptotic_bound": str(asymptotic) if asymptotic is not None else None,
    }
    lines = [
        f"c = {c.value} ({c.source})",
        f"total_plain_travels = {travels_total}",
        f"class_count = {classes}",
    ]
    if bound is not None:
        lines.append(f"lom_upper_bound = {bound}")
    if asymptotic is not None:
        lines.append(f"F = {str(asymptotic)}")
    return payload, lines, 0


def _cmd_survey(args):
    # checked before counting, so that a long survey's result is not lost; the
    # result is written to OUT.tmp, synced, then renamed over OUT
    if args.out:
        out = Path(args.out)
        survey._check_writable(out, f"--out: cannot write {args.out}")
        tmp = survey._temporary(out)
        checkpoint = args.checkpoint and Path(args.checkpoint).resolve()
        if out.resolve() == checkpoint:
            raise ValueError(
                f"--out {args.out} and --checkpoint {args.checkpoint} name one file, "
                "which the result would overwrite"
            )
        if tmp.resolve() == checkpoint:
            raise ValueError(
                f"--out {args.out} and --checkpoint {args.checkpoint}: the result's temporary "
                f"file {tmp} is the checkpoint, which writing the result would overwrite"
            )
    cfg = survey.SurveyConfig(
        rank=args.rank,
        elements=args.elements,
        k=args.k,
        engine=args.engine,
        threads=args.threads,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        index_range=_parse_range(args.range) if args.range else None,
    )
    result = survey.run_survey(cfg)
    payload = result.to_json_dict()
    if args.out:
        survey._write_atomically(args.out, json.dumps(payload, indent=2) + "\n")
    lines = [
        f"rank {result.rank}, elements {result.elements}, k {result.k}, engine {result.engine}",
        f"classes: {result.class_count} (surveyed {result.surveyed})",
        f"c = {result.c.value} ({result.c.source})",
        f"max_f = {result.max_f}",
        f"maximizers: {result.maximizer_count_total} total, "
        f"{result.maximizer_count_excluding_alternating} excluding the alternating class",
        f"f(alternating class) = {result.alternating_class_f}",
        f"distinct f values: {len(result.histogram)}",
        f"elapsed: {result.elapsed_seconds:.3f}s",
    ]
    if args.out:
        lines.append(f"result written to {args.out}")
    return payload, lines, 0


def _cmd_verify(args):
    report = survey.verify_case(
        args.case,
        threads=args.threads,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
    )
    return report.to_json_dict(), report.lines(), 0 if report.passed else 2


def _cmd_crosscheck(args):
    check = survey.minor_recursion_check if args.minors else survey.engine_crosscheck
    report = check(args.rank, args.elements, args.k, args.samples, args.seed)
    return report.to_json_dict(), report.lines(), 0 if report.passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _matrix_flags(required: bool) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--matrix", required=required, help="matrix text file (+/- rows)")
    parent.add_argument(
        "--flip-cols", help="comma-separated column labels to reorient before computing"
    )
    parent.add_argument(
        "--flip-rows", help="comma-separated row labels to reorient before computing"
    )
    return parent


def build_parser() -> _Parser:
    parser = _Parser(prog="lomlab", description=__doc__.splitlines()[0])
    # parent parsers: each flag that several subcommands share is declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit stable JSON")
    matrix = _matrix_flags(required=True)
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--rank", type=int, required=True)
    dims.add_argument("--elements", type=int, required=True)
    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument(
        "--chunk-size", type=int, default=survey.DEFAULT_CHUNK_SIZE,
        help="classes per chunk; small chunks are counted and saved in batches of whole "
        "chunks, and a rerun may change it",
    )
    run.add_argument("--checkpoint", help="checkpoint JSON path (resume if it exists)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("travel", parents=[common, matrix],
                       help="print the top (or bottom) travel of a matrix")
    p.add_argument("--bottom", action="store_true", help="bottom travel instead of top")
    p.set_defaults(func=_cmd_travel)

    p = sub.add_parser("circuits", parents=[common, matrix],
                       help="list every circuit of a matrix")
    p.set_defaults(func=_cmd_circuits)

    p = sub.add_parser("fcount", parents=[common, matrix, k],
                       help="count k-neighborly reorientation subsets")
    p.add_argument("--engine", choices=_FCOUNT_ENGINES, default="circuits")
    p.set_defaults(func=_cmd_fcount)

    p = sub.add_parser("plain-travels", parents=[common, _matrix_flags(required=False)],
                       help="enumerate plain travels; with --matrix/--k, count the k-neighborly ones")
    p.add_argument("--rank", type=int)
    p.add_argument("--elements", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_plain_travels)

    p = sub.add_parser("chessboard", parents=[common, matrix],
                       help="print the chessboard of a matrix (B/W relevant, b/w irrelevant)")
    p.set_defaults(func=_cmd_chessboard)

    p = sub.add_parser("representative", parents=[common, dims],
                       help="print the canonical matrix of a class index")
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=_cmd_representative)

    p = sub.add_parser("formulas", parents=[common, dims, k],
                       help="evaluate the closed forms and bounds at (rank, elements, k)")
    p.set_defaults(func=_cmd_formulas)

    p = sub.add_parser("survey", parents=[common, dims, k, run],
                       help="evaluate f for every reorientation class")
    p.add_argument("--engine", choices=survey.ENGINES, default="circuits")
    p.add_argument("--out", help="write the result JSON to this path")
    p.add_argument(
        "--range",
        help="survey only class indices LO..HI (half-open), counting each class in it; "
        "without it the circuits engine counts one class in 16 and scales the "
        "histogram to the whole space, so 0..N, N the class count, is the full-space check",
    )
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("verify", parents=[common, run],
                       help="run a preset survey and assert its expected statistics")
    p.add_argument("--case", required=True, choices=sorted(survey.PRESETS))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("crosscheck", parents=[common, dims, k],
                       help="sampled engine agreement (or, with --minors, minor recursion) check")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--minors", action="store_true",
                   help="check f(M) <= f(M/e) + f(M\\e) instead of engine agreement")
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines, code = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
