import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lomlab
import lomlab.survey as survey_module
from lomlab.chessboard import class_count
from lomlab.cli import main
from lomlab.survey import SurveyConfig, SurveyPreset, load_checkpoint, run_survey

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


# One invocation per subcommand (both crosscheck modes, both plain-travels
# forms), each run with --json and pinned byte for byte by tests/golden/json.
JSON_CASES = {
    "travel": ("travel", "--matrix", str(DATA / "col2_negated_3x5.txt"), "--bottom"),
    "circuits": ("circuits", "--matrix", str(DATA / "all_plus_2x3.txt")),
    "fcount": ("fcount", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "1"),
    "plain_travels": ("plain-travels", "--rank", "2", "--elements", "3"),
    "plain_travels_matrix": (
        "plain-travels", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "1"
    ),
    "chessboard": ("chessboard", "--matrix", str(DATA / "col2_negated_3x5.txt")),
    "representative": ("representative", "--rank", "3", "--elements", "6", "--index", "1"),
    "formulas": ("formulas", "--rank", "7", "--elements", "11", "--k", "2"),
    "survey": ("survey", "--rank", "3", "--elements", "6", "--k", "1"),
    "verify": ("verify", "--case", "r3n5k1"),
    "crosscheck": (
        "crosscheck", "--rank", "3", "--elements", "5", "--k", "1", "--samples", "4",
    ),
    "crosscheck_minors": (
        "crosscheck", "--rank", "3", "--elements", "6", "--k", "1", "--samples", "6",
        "--seed", "3", "--minors",
    ),
}


def without_elapsed(out: str) -> str:
    """Survey and verify JSON with its one wall-clock line dropped."""
    return "".join(
        line for line in out.splitlines(keepends=True) if '"elapsed_seconds": ' not in line
    )


def fail_r3n5k1(monkeypatch):
    """Make verify --case r3n5k1 fail its max-f-expected check."""
    monkeypatch.setitem(
        survey_module.PRESETS, "r3n5k1", SurveyPreset(3, 5, 1, expected_max_f=999)
    )


class TestGoldenOutputs:
    def test_travel(self, capsys):
        code, out, _ = run_cli(capsys, "travel", "--matrix", str(DATA / "col2_negated_3x5.txt"))
        assert code == 0
        assert out == golden("travel_col2_negated_3x5.txt")

    def test_travel_via_flip_cols(self, capsys):
        code, out, _ = run_cli(
            capsys, "travel", "--matrix", str(DATA / "all_plus_3x5.txt"), "--flip-cols", "2"
        )
        assert code == 0
        assert out == golden("travel_col2_negated_3x5.txt")

    def test_circuits(self, capsys):
        code, out, _ = run_cli(capsys, "circuits", "--matrix", str(DATA / "all_plus_2x3.txt"))
        assert code == 0
        assert out == golden("circuits_2x3.txt")

    def test_fcount(self, capsys):
        code, out, _ = run_cli(
            capsys, "fcount", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "1"
        )
        assert code == 0
        assert out == golden("fcount_3x5_k1.txt")

    def test_plain_travels(self, capsys):
        code, out, _ = run_cli(capsys, "plain-travels", "--rank", "2", "--elements", "3")
        assert code == 0
        assert out == golden("plain_travels_2x3.txt")

    def test_representative(self, capsys):
        code, out, _ = run_cli(
            capsys, "representative", "--rank", "3", "--elements", "6", "--index", "1"
        )
        assert code == 0
        assert out == golden("representative_3x6_index1.txt")

    def test_chessboard_roundtrip_through_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "representative", "--rank", "3", "--elements", "6", "--index", "1"
        )
        matrix_file = tmp_path / "rep.txt"
        matrix_file.write_text(out)
        code, out, _ = run_cli(capsys, "chessboard", "--matrix", str(matrix_file))
        assert code == 0
        assert out == golden("chessboard_3x6_index1.txt")

    def test_formulas(self, capsys):
        code, out, _ = run_cli(
            capsys, "formulas", "--rank", "7", "--elements", "11", "--k", "2"
        )
        assert code == 0
        assert out == golden("formulas_7_11_2.txt")

    def test_survey(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--rank", "3", "--elements", "6", "--k", "1")
        assert code == 0
        stable = [line for line in out.splitlines() if not line.startswith("elapsed:")]
        assert stable == golden("survey_3x6_k1.txt").splitlines()

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "r3n5k1")
        assert code == 0
        assert out == golden("verify_r3n5k1.txt")

    def test_crosscheck_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--rank", "3", "--elements", "5", "--k", "1",
            "--samples", "4", "--seed", "0",
        )
        assert code == 0
        assert out == golden("crosscheck_3x5_k1.txt")

    def test_plain_travels_of_a_matrix(self, capsys):
        code, out, _ = run_cli(capsys, *JSON_CASES["plain_travels_matrix"])
        assert code == 0
        assert out == golden("plain_travels_3x5_k1.txt")


class TestJsonGoldens:
    @pytest.mark.parametrize("name", JSON_CASES)
    def test_json_golden(self, capsys, name):
        code, out, err = run_cli(capsys, *JSON_CASES[name], "--json")
        assert (code, err) == (0, "")
        assert without_elapsed(out) == golden(f"json/{name}.json")

    def test_verify_failure_json_golden(self, capsys, monkeypatch):
        fail_r3n5k1(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--case", "r3n5k1", "--json")
        assert (code, err) == (2, "")
        assert without_elapsed(out) == golden("json/verify_failure.json")


class TestJsonOutputs:
    def test_fcount_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fcount", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "1",
            "--engine", "travels", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "rank": 3, "elements": 5, "k": 1, "engine": "travels", "f": 2,
        }

    def test_fcount_chirotope_engine(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fcount", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "0",
            "--engine", "chirotope", "--json",
        )
        assert code == 0
        assert json.loads(out)["f"] == 22

    def test_chessboard_json_has_index(self, capsys):
        code, out, _ = run_cli(
            capsys, "chessboard", "--matrix", str(DATA / "all_plus_3x5.txt"), "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["index"] == 0
        assert payload["board"] == ["wWww", "wwWw"]

    def test_formulas_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "formulas", "--rank", "8", "--elements", "15", "--k", "2", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["c_source"] == "closed_form"
        assert payload["lom_upper_bound"] - payload["c_value"] == 13876
        assert payload["asymptotic_bound"] == "6967871/3"  # 2*191^3/3!, exact

    def test_formulas_c_unknown(self, capsys):
        # r = 20 > 2k+1 and n = 25 short of the closed form, past the exhaustive engine
        code, out, _ = run_cli(capsys, "formulas", "--rank", "20", "--elements", "25", "--k", "3")
        assert code == 0
        assert out.splitlines()[0] == "c = None (unknown)"

    def test_travel_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "travel", "--matrix", str(DATA / "col2_negated_3x5.txt"),
            "--bottom", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "bottom"
        assert payload["path"][0] == {"row": 3, "col": 5, "sign": "+"}
        assert payload["positive"] is False


class TestSurveyCommands:
    def test_survey_text_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "5", "--k", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "max_f = 2" in out
        payload = json.loads(out_path.read_text())
        assert payload["class_count"] == 4
        assert payload["maximizer_count_total"] >= 1

    def test_survey_out_synced_before_rename(self, capsys, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd)))
        monkeypatch.setattr(
            os, "replace", lambda a, b: (events.append(("replace", a, b)), real_replace(a, b))
        )
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "5", "--k", "1",
            "--out", str(out_path), "--json",
        )
        assert code == 0
        assert events == ["fsync", ("replace", tmp_path / "result.json.tmp", out_path)]
        assert out_path.read_text() == out
        assert list(tmp_path.iterdir()) == [out_path]

    def test_survey_json_stable(self, capsys):
        def one():
            code, out, _ = run_cli(
                capsys,
                "survey", "--rank", "3", "--elements", "6", "--k", "1",
                "--chunk-size", "3", "--json",
            )
            assert code == 0
            payload = json.loads(out)
            payload.pop("elapsed_seconds")
            return payload

        assert one() == one()

    def test_survey_c_unknown_below_rank_2k_plus_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "survey", "--rank", "3", "--elements", "6", "--k", "2", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert (payload["c_value"], payload["c_source"]) == (None, "unknown")

    def test_survey_range(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "6", "--k", "1",
            "--range", "4..10", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["range"] == [4, 10]
        assert sum(e["classes"] for e in payload["histogram"]) == 6

    def test_verify_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "r3n5k1")
        assert code == 0
        assert "result: PASS" in out
        assert all(
            line.startswith(("PASS", "case", "result")) for line in out.splitlines()
        )

    def test_verify_failure_exits_2(self, capsys, monkeypatch):
        fail_r3n5k1(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--case", "r3n5k1")
        assert code == 2
        assert "FAIL max-f-expected" in out
        assert "result: FAIL" in out

    def test_crosscheck(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--rank", "3", "--elements", "5", "--k", "1",
            "--samples", "4", "--seed", "0",
        )
        assert code == 0
        assert "result: PASS" in out

    def test_crosscheck_minors_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--rank", "3", "--elements", "6", "--k", "1",
            "--samples", "6", "--seed", "3", "--minors", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True and payload["violations"] == []

    def test_crosscheck_draws_from_a_space_past_sys_maxsize(self, capsys):
        # (12,24) has about 2^121 classes; zero samples count none of them
        for extra, issues in (((), "mismatches"), (("--minors",), "violations")):
            code, out, err = run_cli(
                capsys,
                "crosscheck", "--rank", "12", "--elements", "24", "--k", "1", "--samples", "0",
                *extra,
            )
            assert (code, err) == (0, ""), extra
            assert out.endswith(f"result: PASS (0 {issues})\n"), extra

    def test_crosscheck_minors_names_a_violation(self, capsys, monkeypatch):
        violation = {"index": 5, "element": 2, "f": 8, "f_contract": 2, "f_delete": 4}
        monkeypatch.setattr(
            survey_module,
            "minor_recursion_check",
            lambda r, n, k, samples, seed: survey_module.MinorRecursionReport(
                r, n, k, seed, [5], [violation]
            ),
        )
        code, out, _ = run_cli(
            capsys, "crosscheck", "--rank", "3", "--elements", "6", "--k", "1", "--minors",
        )
        assert code == 2
        assert f"violation: {violation}\n" in out.splitlines(keepends=True)
        assert out.endswith("result: FAIL (1 violations)\n")

    def test_crosscheck_engine_mismatch_exits_2(self, capsys, monkeypatch):
        f_via_travels = lomlab.travels.f_via_travels
        monkeypatch.setattr(lomlab.travels, "f_via_travels", lambda A, k: f_via_travels(A, k) + 2)
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--rank", "3", "--elements", "5", "--k", "1",
            "--samples", "2", "--seed", "0",
        )
        assert code == 2
        lines = out.splitlines()
        for index in (1, 3):
            assert any(line.startswith(f"mismatch: {{'index': {index}, ") for line in lines), index
        assert out.endswith("result: FAIL (2 mismatches)\n")


class TestErrorHandling:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "fcount", "--matrix", str(DATA / "all_plus_3x5.txt"))
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unreadable_matrix(self, capsys):
        code, _, err = run_cli(capsys, "fcount", "--matrix", "no/such/file.txt", "--k", "1")
        assert code == 1
        assert "--matrix" in err and "no/such/file.txt" in err

    def test_malformed_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("+-\n+x\n")
        code, _, err = run_cli(capsys, "fcount", "--matrix", str(bad), "--k", "0")
        assert code == 1
        assert "invalid character" in err

    def test_bad_flip_labels(self, capsys):
        code, _, err = run_cli(
            capsys,
            "travel", "--matrix", str(DATA / "all_plus_3x5.txt"), "--flip-cols", "2;3",
        )
        assert code == 1
        assert "--flip-cols" in err

    def test_flip_label_out_of_range_names_the_flag(self, capsys):
        for flag, labels, want in (
            ("--flip-cols", "0", "--flip-cols: column label 0 out of range 1..5"),
            ("--flip-rows", "2,4", "--flip-rows: row label 4 out of range 1..3"),
        ):
            code, out, err = run_cli(
                capsys, "fcount", "--matrix", str(DATA / "all_plus_3x5.txt"), "--k", "1",
                flag, labels,
            )
            assert (code, out) == (1, "")
            assert err == f"error: {want}\n"

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "5", "--k", "1", "--range", "7",
        )
        assert code == 1
        assert "--range" in err

    def test_wide_circuits_survey_refused(self, capsys):
        code, _, err = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "40", "--k", "1", "--range", "0..1",
        )
        assert code == 1
        assert "n=40" in err and "n=24" in err

    def test_empty_range_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "5", "--k", "1", "--range", "2..2",
        )
        assert code == 1 and out == ""
        assert "[2,2)" in err

    def test_truncated_checkpoint_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "cut.ckpt.json"
        path.write_text('{"meta": {"rank"')
        code, _, err = run_cli(
            capsys,
            "survey", "--rank", "3", "--elements", "5", "--k", "1", "--checkpoint", str(path),
        )
        assert code == 1
        assert str(path) in err and "Expecting ':' delimiter" in err

    def test_out_directory_checked_before_counting(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "missing" / "result.json"
        monkeypatch.setattr(survey_module, "run_survey", lambda cfg: 1 / 0)
        code, out, err = run_cli(
            capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1", "--out", str(path)
        )
        assert code == 1 and out == ""
        assert str(path) in err and "is not a directory" in err
        assert not path.parent.exists()

    def test_out_naming_a_directory_refused_before_counting(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        code, out, err = run_cli(
            capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1", "--out", str(tmp_path)
        )
        assert code == 1 and out == ""
        assert f"--out: cannot write {tmp_path}: it is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_the_checkpoint_refused_before_counting(self, capsys, tmp_path, monkeypatch):
        # the result would overwrite the checkpoint, and the rerun would refuse it
        (tmp_path / "sub").mkdir()
        path = tmp_path / "f.json"
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        for out in (path, tmp_path / "sub" / ".." / "f.json"):
            code, out_text, err = run_cli(
                capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1",
                "--checkpoint", str(path), "--out", str(out),
            )
            assert code == 1 and out_text == ""
            assert f"--out {out} and --checkpoint {path} name one file" in err
        assert not path.exists()

    def test_out_temporary_directory_refused_before_counting(self, capsys, tmp_path, monkeypatch):
        out, tmp = tmp_path / "result.json", tmp_path / "result.json.tmp"
        tmp.mkdir()
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        code, out_text, err = run_cli(
            capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1", "--out", str(out)
        )
        assert code == 1 and out_text == ""
        assert f"--out: cannot write {out}: its temporary file {tmp} is a directory" in err
        assert list(tmp_path.iterdir()) == [tmp] and list(tmp.iterdir()) == []

    def test_out_temporary_naming_the_checkpoint_refused_before_counting(
        self, capsys, tmp_path, monkeypatch
    ):
        # writing OUT.tmp would overwrite the checkpoint, and the rename would take it away
        (tmp_path / "sub").mkdir()
        path = tmp_path / "f.json.tmp"
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        for out in (tmp_path / "f.json", tmp_path / "sub" / ".." / "f.json"):
            code, out_text, err = run_cli(
                capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1",
                "--checkpoint", str(path), "--out", str(out),
            )
            assert code == 1 and out_text == ""
            assert f"--out {out} and --checkpoint {path}: the result's temporary file" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_checkpoint_directory_checked_before_counting(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "missing" / "cp.json"
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        for argv in (
            ("survey", "--rank", "3", "--elements", "5", "--k", "1"),
            ("verify", "--case", "r3n5k1"),
        ):
            code, out, err = run_cli(capsys, *argv, "--checkpoint", str(path))
            assert code == 1 and out == "", argv
            assert f"checkpoint {path}:" in err and "is not a directory" in err, argv
            assert ".tmp" not in err, argv
        assert not path.parent.exists()

    def test_checkpoint_naming_a_directory_refused_before_counting(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: 1 / 0)
        for argv in (
            ("survey", "--rank", "3", "--elements", "5", "--k", "1"),
            ("verify", "--case", "r3n5k1"),
        ):
            code, out, err = run_cli(capsys, *argv, "--checkpoint", str(tmp_path))
            assert code == 1 and out == "", argv
            assert f"checkpoint {tmp_path}: it is a directory" in err, argv
        assert list(tmp_path.iterdir()) == []

    def test_bad_thread_count_names_the_value(self, capsys):
        code, out, err = run_cli(
            capsys, "survey", "--rank", "3", "--elements", "5", "--k", "1", "--threads", "0"
        )
        assert code == 1 and out == ""
        assert "threads must be >= 1, got 0" in err

    def test_negative_sample_count_refused(self, capsys):
        for extra in ((), ("--minors",)):
            code, out, err = run_cli(
                capsys,
                "crosscheck", "--rank", "3", "--elements", "5", "--k", "1", "--samples", "-1",
                *extra,
            )
            assert code == 1 and out == ""
            assert "samples must be non-negative, got -1" in err

    def test_crosscheck_refuses_a_bad_class_space_before_sampling(self, capsys):
        for dims, want in (
            (("4", "7", "-1"), "k must be non-negative, got k=-1"),
            (("3", "100", "1"), "the circuits engine counts at most n=24 elements, got n=100"),
        ):
            r, n, k = dims
            for extra in ((), ("--minors",)):
                code, out, err = run_cli(
                    capsys,
                    "crosscheck", "--rank", r, "--elements", n, "--k", k, "--samples", "0", *extra,
                )
                assert (code, out, err) == (1, "", f"error: {want}\n"), (dims, extra)
        code, out, err = run_cli(
            capsys, "crosscheck", "--rank", "1", "--elements", "3", "--k", "0", "--samples", "2"
        )
        assert (code, out, err) == (1, "", "error: need rank >= 2, got rank 1\n")

    def test_negative_k_names_the_value(self, capsys, tmp_path):
        # the flag's error alone, also on a matrix too small to count
        square = tmp_path / "square.txt"
        square.write_text("++\n+-\n")
        for matrix in (DATA / "all_plus_3x5.txt", square):
            for engine in ("circuits", "travels", "chirotope"):
                code, out, err = run_cli(
                    capsys, "fcount", "--matrix", str(matrix), "--k", "-1", "--engine", engine
                )
                assert code == 1 and out == "", engine
                assert err == "error: k must be non-negative, got k=-1\n", (matrix, engine)

    def test_matrix_shape_errors_name_the_file(self, capsys, tmp_path):
        square, single, row = tmp_path / "square.txt", tmp_path / "single.txt", tmp_path / "row.txt"
        square.write_text("++\n+-\n")
        single.write_text("+\n")
        row.write_text("+++\n")
        cases = [
            *(
                (("fcount", "--matrix", str(square), "--k", "1", "--engine", engine), square, "n >= r+1")
                for engine in ("circuits", "travels", "chirotope")
            ),
            (("travel", "--matrix", str(single)), single, "at least 2 columns"),
            (("plain-travels", "--matrix", str(row)), row, "2 <= r <= n"),
            (("chessboard", "--matrix", str(row)), row, "at least a 2x2 matrix"),
        ]
        for argv, path, problem in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith(f"error: --matrix {path}: ") and problem in err, (argv, err)
        # without a matrix, the same shape error names none
        code, out, err = run_cli(capsys, "plain-travels", "--rank", "1", "--elements", "3")
        assert (code, out) == (1, "") and "--matrix" not in err and "2 <= r <= n" in err

    def test_plain_travels_k_needs_a_matrix(self, capsys):
        code, out, err = run_cli(
            capsys, "plain-travels", "--rank", "2", "--elements", "3", "--k", "1"
        )
        assert code == 1 and out == ""
        assert "--k needs --matrix" in err

    @pytest.mark.parametrize("flag, labels", [("--flip-cols", "9"), ("--flip-rows", "1")])
    def test_plain_travels_flip_needs_a_matrix(self, capsys, flag, labels):
        code, out, err = run_cli(
            capsys, "plain-travels", "--rank", "2", "--elements", "3", flag, labels
        )
        assert (code, out) == (1, "")
        assert err == f"error: plain-travels {flag} needs --matrix, the matrix it reorients\n"

    def test_plain_travels_needs_a_matrix_or_both_dimensions(self, capsys):
        for dims in (("--rank", "2"), ("--elements", "3"), ()):
            code, out, err = run_cli(capsys, "plain-travels", *dims)
            assert (code, out) == (1, ""), dims
            assert err == "error: plain-travels needs either --matrix or --rank and --elements\n"

    def test_plain_travels_matrix_with_dimensions_refused(self, capsys):
        for dims in (("--rank", "5", "--elements", "9"), ("--rank", "3"), ("--elements", "5")):
            code, out, err = run_cli(
                capsys, "plain-travels", "--matrix", str(DATA / "all_plus_3x5.txt"), *dims
            )
            assert (code, out) == (1, ""), dims
            assert "--matrix" in err and "--rank and --elements" in err, dims

    def test_wide_matrix_count_names_n(self, capsys, tmp_path):
        wide = tmp_path / "wide.txt"
        wide.write_text("+" * 25 + "\n")
        code, out, err = run_cli(capsys, "fcount", "--matrix", str(wide), "--k", "1")
        assert code == 1 and out == ""
        assert "at most n=24 elements, got n=25" in err

    def test_minor_check_names_its_dimensions(self, capsys):
        for dims, want in (
            (("--rank", "2", "--elements", "5"), "needs rank >= 3, got rank 2"),
            (("--rank", "3", "--elements", "4"), "needs n >= r+2, got r=3, n=4"),
        ):
            code, out, err = run_cli(capsys, "crosscheck", "--minors", *dims, "--k", "0")
            assert code == 1 and out == ""
            assert want in err

    def test_dimension_error_names_the_problem(self, capsys):
        code, _, err = run_cli(
            capsys, "representative", "--rank", "4", "--elements", "4", "--index", "0"
        )
        assert code == 1
        assert "n >= r+1" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "survey", "--help")[0] == 0

    def test_help_lists_each_subcommand_flags(self, capsys):
        matrix = {"--matrix", "--flip-cols", "--flip-rows"}
        dims = {"--rank", "--elements"}
        run = {"--threads", "--chunk-size", "--checkpoint"}
        want = {
            "travel": {*matrix, "--bottom"},
            "circuits": matrix,
            "fcount": {*matrix, "--k", "--engine"},
            "plain-travels": {*matrix, *dims, "--k"},
            "chessboard": matrix,
            "representative": {*dims, "--index"},
            "formulas": {*dims, "--k"},
            "survey": {*dims, "--k", *run, "--engine", "--out", "--range"},
            "verify": {*run, "--case"},
            "crosscheck": {*dims, "--k", "--samples", "--seed", "--minors"},
        }
        for command, flags in want.items():
            code, out, _ = run_cli(capsys, command, "--help")
            assert code == 0
            listed = set(re.findall(r"(?<![\w-])--[a-z-]+", out))
            assert listed == {*flags, "--help", "--json"}, command


class TestKillAndResume:
    """A survey killed mid-run resumes from its checkpoint to a clean run's JSON."""

    def test_sigkill_then_resume(self, tmp_path):
        checkpoint = tmp_path / "survey.ckpt"
        cmd = [
            sys.executable, "-m", "lomlab.cli", "survey", "--rank", "7", "--elements", "11",
            "--k", "2", "--chunk-size", "64", "--checkpoint", str(checkpoint), "--json",
        ]
        src = str(Path(lomlab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 120
            while not (checkpoint.exists() and load_checkpoint(checkpoint).next_index):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no batch was checkpointed"
                time.sleep(0.02)
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL
        done = load_checkpoint(checkpoint).next_index
        assert 0 < done < class_count(7, 11) // 4  # killed mid-run, in the prefix
        resumed = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
        assert resumed.returncode == 0, resumed.stderr
        got = json.loads(resumed.stdout)
        want = run_survey(SurveyConfig(7, 11, 2, chunk_size=64)).to_json_dict()
        for payload in (got, want):
            payload.pop("elapsed_seconds")
        assert json.dumps(got) == json.dumps(want)
