"""Command line tests: exit codes, output formats, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haarnull import acceptance, cli
from haarnull.acceptance import CriterionResult
from haarnull.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodecCommands:
    def test_encode_text(self, capsys):
        code, out, _ = run(capsys, "codec", "encode", "2", "1", "3")
        assert code == 0
        assert out.strip() == "13"

    def test_encode_json(self, capsys):
        code, out, _ = run(
            capsys, "codec", "encode", "2", "1", "3", "--output", "json"
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "b": 1, "z": 3, "code": 13}

    def test_encode_invalid_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "codec", "encode", "0", "0", "0")
        assert code == 2
        assert "error" in err

    def test_decode_text(self, capsys):
        code, out, _ = run(capsys, "codec", "decode", "0")
        assert code == 0
        assert out.strip() == "(1,0,0)"

    def test_decode_negative_is_usage_error(self, capsys):
        code, _, err = run(capsys, "codec", "decode", "--", "-3")
        assert code == 2
        assert "error" in err

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "codec", "roundtrip", "--max", "500")
        assert code == 0
        assert "pass" in out

    def test_roundtrip_json(self, capsys):
        code, out, _ = run(
            capsys, "codec", "roundtrip", "--max", "200", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        assert data["checked_codes"] == 200

    def test_roundtrip_failure_matches_the_criterion(self, capsys, monkeypatch):
        real = acceptance.decode
        monkeypatch.setattr(
            acceptance, "decode", lambda m: real(m + 1) if m == 100 else real(m)
        )
        (check,) = [c for k, _, c, _ in acceptance.CRITERIA if k == "codec-roundtrip"]
        (expected,), _ = check(0)  # the fault stops it at code 100
        assert expected.startswith("triple ")
        code, out, _ = run(
            capsys, "codec", "roundtrip", "--max", "1000", "--output", "json"
        )
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "fail"
        assert data["counterexample"] == expected
        code, out, _ = run(capsys, "codec", "roundtrip", "--max", "1000")
        assert code == 1
        assert f"counterexample: {expected}" in out

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "codec", "transcode")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "codec" in out


SPEC_JSON = {
    "prefix": [{"weights": {"-1": "1/2", "0": "1/2"}}],
    "tail": None,
}


class TestWitnessCommands:
    def test_synth_text(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_JSON))
        code, out, _ = run(capsys, "witness", "synth", str(spec))
        assert code == 0
        assert "witness: [3]" in out
        assert "scale: 5/4" in out

    def test_synth_json(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_JSON))
        code, out, _ = run(
            capsys, "witness", "synth", str(spec), "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["sizes"] == [4]
        assert data["deficiency_partial"] == ["4/5"]

    def test_synth_depth_materializes_tail(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "prefix": [{"weights": {"0": "1"}}],
                    "tail": {"kind": "uniform", "k": 0},
                }
            )
        )
        code, out, _ = run(
            capsys, "witness", "synth", str(spec), "--depth", "3"
        )
        assert code == 0
        assert "witness: [1, 1, 1]" in out

    def test_synth_depth_without_tail_fails(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_JSON))
        code, _, err = run(
            capsys, "witness", "synth", str(spec), "--depth", "3"
        )
        assert code == 1
        assert "depth" in err

    def test_synth_negative_depth_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_JSON))
        code, out, err = run(
            capsys, "witness", "synth", str(spec), "--depth", "-2"
        )
        assert (code, out) == (2, "")
        assert err == "error: depth must be >= 0, got -2\n"

    def test_synth_depth_below_the_prefix_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_JSON, "prefix": SPEC_JSON["prefix"] * 3}))
        code, out, err = run(
            capsys, "witness", "synth", str(spec), "--depth", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: --depth 1 is below the spec's prefix depth 3\n"
        code, out, _ = run(capsys, "witness", "synth", str(spec), "--depth", "3")
        assert code == 0
        assert "depth: 3" in out

    def test_synth_bad_json_is_parse_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{nope")
        code, _, _ = run(capsys, "witness", "synth", str(spec))
        assert code == 2

    def test_synth_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "witness", "synth", str(tmp_path / "no.json"))
        assert code == 2

    def test_verify_claim_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "witness",
            "verify-claim",
            "--depth",
            "3",
            "--instances",
            "5",
            "--seed",
            "7",
        )
        assert code == 0
        assert out.strip() == "5/5 pass"

    def test_verify_claim_json_deterministic(self, capsys):
        argv = (
            "witness",
            "verify-claim",
            "--depth",
            "2",
            "--instances",
            "3",
            "--seed",
            "11",
            "--output",
            "json",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["passed"] == 3
        assert data["status"] == "pass"

    def test_check_prefix_fail_report(self, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        wit.write_text("[1, 1]")
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 2, "prefixes": [[0, 0], [1, 2]]}))
        code, out, _ = run(
            capsys,
            "witness",
            "check-prefix",
            str(wit),
            str(cyl),
            "--output",
            "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["claim"] == "witness-prefix"
        assert data["status"] == "fail"
        assert data["counterexample"] == {"x": [-1, -2], "measure": "1/4"}
        assert set(data) == {
            "claim",
            "status",
            "depth",
            "lhs",
            "rhs",
            "counterexample",
            "parameters",
        }

    def test_check_prefix_pass_on_empty_set(self, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        wit.write_text(json.dumps({"witness": [2, 2]}))
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 2, "prefixes": []}))
        code, out, _ = run(capsys, "witness", "check-prefix", str(wit), str(cyl))
        assert code == 0
        assert "witness-prefix: pass" in out

    def test_check_prefix_budget_exit(self, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        wit.write_text("[3]")
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 1, "prefixes": [[0]]}))
        code, out, _ = run(
            capsys, "witness", "check-prefix", str(wit), str(cyl), "--budget", "1"
        )
        assert code == 1
        assert "budget-exceeded" in out

    def test_check_prefix_reads_stdin_once(self, capsys, monkeypatch, tmp_path):
        def stdin(data):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))

        stdin(b'[3]\n{"depth": 1, "prefixes": []}\n')
        code, out, err = run(capsys, "witness", "check-prefix", "-", "-")
        assert (code, out) == (2, "")
        assert err == "error: the witness and cylinder files cannot both be -\n"
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 1, "prefixes": []}))
        stdin(b"[3]")
        code, out, _ = run(capsys, "witness", "check-prefix", "-", str(cyl))
        assert code == 0
        assert "witness-prefix: pass" in out

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("prefixes", [[], [[0]]])
    def test_check_prefix_budget_below_one(self, capsys, tmp_path, budget, prefixes):
        wit = tmp_path / "wit.json"
        wit.write_text("[3]")
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 1, "prefixes": prefixes}))
        code, out, err = run(
            capsys, "witness", "check-prefix", str(wit), str(cyl), "--budget", budget
        )
        assert (code, out) == (2, "")
        assert err == f"error: budget must be >= 1, got {budget}\n"

    def test_check_prefix_witness_object_takes_no_other_field(self, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        wit.write_text(json.dumps({"witness": [2, 2], "note": 1}))
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 2, "prefixes": []}))
        code, out, err = run(capsys, "witness", "check-prefix", str(wit), str(cyl))
        assert (code, out, err) == (2, "", "error: unknown fields: note\n")

    def test_check_prefix_bad_witness_shape(self, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        wit.write_text(json.dumps({"entries": [1]}))
        cyl = tmp_path / "cyl.json"
        cyl.write_text(json.dumps({"depth": 1, "prefixes": []}))
        code, _, err = run(capsys, "witness", "check-prefix", str(wit), str(cyl))
        assert code == 2
        assert "witness" in err


GOOD_DATA = '{"a": [1], "x": [0], "g": [1]}\n{"a": [1], "x": [1], "g": [0]}\n'
BOUNDARY_DATA = '{"a": [1], "x": [0], "g": [2]}\n{"a": [1], "x": [1], "g": [0]}\n'


class TestEsetCommands:
    def test_build_json(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        code, out, _ = run(
            capsys, "eset", "build", str(data), "--output", "json"
        )
        assert code == 0
        assert json.loads(out) == {"depth": 1, "points": [[1], [3]]}

    def test_build_text(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        code, out, _ = run(capsys, "eset", "build", str(data))
        assert code == 0
        assert "points: 2" in out

    def test_build_text_and_json_output(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        code, out, _ = run(capsys, "eset", "build", str(data))
        assert (code, out) == (0, "depth: 1\npoints: 2\n1\n3\n")
        code, out, _ = run(capsys, "eset", "build", str(data), "--output", "json")
        assert code == 0
        assert json.loads(out) == {"depth": 1, "points": [[1], [3]]}

    def test_gap_pass(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        code, out, _ = run(capsys, "eset", "gap", str(data))
        assert code == 0
        assert "pairwise-gap: pass" in out

    def test_gap_boundary_rejected_without_flag(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(BOUNDARY_DATA)
        code, _, err = run(capsys, "eset", "gap", str(data))
        assert code == 1
        assert "line 1" in err

    def test_gap_fails_with_boundary_flag(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(BOUNDARY_DATA)
        code, out, _ = run(
            capsys, "eset", "gap", str(data), "--allow-boundary"
        )
        assert code == 1
        assert "pairwise-gap: fail" in out

    def test_coinflip_commands(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        code, out, _ = run(
            capsys, "eset", "coinflip", str(data), "--budget", "1000"
        )
        assert code == 0
        assert "coinflip-bound: pass" in out

    def test_coinflip_fails_boundary(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(BOUNDARY_DATA)
        code, out, _ = run(
            capsys, "eset", "coinflip", str(data), "--allow-boundary"
        )
        assert code == 1
        assert "coinflip-bound: fail" in out

    def test_encoded_input(self, capsys, tmp_path):
        encoded = tmp_path / "set.json"
        encoded.write_text(json.dumps({"depth": 1, "points": [[0], [1]]}))
        code, out, _ = run(capsys, "eset", "gap", str(encoded), "--encoded")
        assert code == 0
        assert "undecidable" in out

    def test_syntax_error_exit(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text("nope\n")
        code, _, err = run(capsys, "eset", "gap", str(data))
        assert code == 2
        assert "line 1" in err

    def test_duplicate_argument_lists_lines(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(
            '{"a": [1], "x": [0], "g": [0]}\n\n{"a": [1], "x": [0], "g": [1]}\n'
        )
        code, _, err = run(capsys, "eset", "build", str(data))
        assert code == 1
        assert "line 3" in err and "line 1" in err

    def test_empty_dataset_exit(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text("\n")
        code, _, err = run(capsys, "eset", "build", str(data))
        assert code == 1
        assert "empty" in err

    def test_build_deterministic(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA)
        argv = ("eset", "build", str(data), "--output", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("space", ["\xa0", "\u3000"])
    def test_only_json_whitespace_makes_a_line_blank(self, capsys, tmp_path, space):
        data = tmp_path / "data.jsonl"
        for text in (space + "\n" + GOOD_DATA, space):
            data.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "eset", "build", str(data))
            assert (code, out) == (2, "")
            assert err == (
                "error: line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"
            )
        data.write_text(" \t\n\n" + GOOD_DATA)
        code, out, _ = run(capsys, "eset", "build", str(data), "--output", "json")
        assert code == 0
        assert json.loads(out) == {"depth": 1, "points": [[1], [3]]}

    def test_a_line_ends_at_a_line_feed_alone(self, capsys, tmp_path):
        # a form feed does not end a line, so two data joined by one are
        # one line with trailing data
        first, second = GOOD_DATA.splitlines()
        data = tmp_path / "data.jsonl"
        data.write_text(first + "\x0c" + second + "\n{nope\n")
        code, out, err = run(capsys, "eset", "build", str(data))
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1: invalid JSON: Extra data: line 1 column 31 (char 30)\n"
        )

    def test_a_line_separator_in_a_string_stays_in_its_line(self, capsys, tmp_path):
        first, second = GOOD_DATA.splitlines()
        data = tmp_path / "data.jsonl"
        data.write_text(
            first + "\n" + second[:-1] + ', "\u2028": 0}\n', encoding="utf-8"
        )
        code, out, err = run(capsys, "eset", "build", str(data))
        assert (code, out) == (2, "")
        assert err == "error: line 2: unknown fields: \u2028\n"

    def test_a_utf8_error_counts_lines_by_line_feeds(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_bytes(GOOD_DATA.splitlines()[0].encode() + b"\x0c\xff\n")
        code, out, err = run(capsys, "eset", "build", str(data))
        assert (code, out) == (2, "")
        assert err == "error: line 1: not valid UTF-8: invalid start byte\n"


DEEP = 1200
DEEP_DATA = (
    json.dumps({"a": [1] * DEEP, "x": [0] * DEEP, "g": [0] * DEEP})
    + "\n"
    + json.dumps({"a": [1] * DEEP, "x": [0] * (DEEP - 1) + [1], "g": [0] * DEEP})
    + "\n"
)


class TestDeepCoinflip:
    def test_depth_1200_passes_without_a_traceback(self, capsys, tmp_path):
        # a recursive search overflows Python's recursion limit at this depth,
        # and a translate search doubles at every coordinate
        data = tmp_path / "deep.jsonl"
        data.write_text(DEEP_DATA)
        code, out, err = run(
            capsys,
            "eset",
            "coinflip",
            str(data),
            "--budget",
            "100000",
            "--output",
            "json",
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["parameters"]["nodes_visited"] == 1


WITNESS_OK = "[1]"
CYLINDER_OK = json.dumps({"depth": 1, "prefixes": [[0]]})


def spec_with(**changes):
    spec = {"prefix": [{"weights": {"-1": "1/2", "0": "1/2"}}], "tail": None}
    spec.update(changes)
    return json.dumps(spec)


class TestStrictInput:
    """Floats, booleans, strings and non-lists where integers or lists belong."""

    @pytest.mark.parametrize(
        "witness, cylinder",
        [
            (WITNESS_OK, json.dumps({"depth": 1, "prefixes": [[1.5], [True]]})),
            (WITNESS_OK, json.dumps({"depth": 1.0, "prefixes": [[0]]})),
            (WITNESS_OK, json.dumps({"depth": 1, "prefixes": 5})),
            (WITNESS_OK, json.dumps({"depth": 1, "prefixes": [5]})),
            ("[1.9, 2]", json.dumps({"depth": 2, "prefixes": [[0, 0]]})),
            ("[true]", CYLINDER_OK),
            (json.dumps({"witness": 7}), CYLINDER_OK),
        ],
        ids=[
            "float-and-bool-prefix-entries",
            "float-depth",
            "prefixes-not-a-list",
            "prefix-not-a-list",
            "float-witness-entry",
            "bool-witness-entry",
            "witness-not-a-list",
        ],
    )
    def test_check_prefix_rejects(self, capsys, tmp_path, witness, cylinder):
        wit = tmp_path / "wit.json"
        wit.write_text(witness)
        cyl = tmp_path / "cyl.json"
        cyl.write_text(cylinder)
        code, out, err = run(capsys, "witness", "check-prefix", str(wit), str(cyl))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "spec",
        [
            spec_with(tail={"kind": "uniform", "k": 2.7}),
            spec_with(tail={"kind": "uniform", "k": True}),
            spec_with(tail={"kind": "point", "z": "7"}),
            spec_with(tail={"kind": "point"}),
            spec_with(prefix=[{"weights": {"1_0": "1"}}]),
            spec_with(prefix=[{"weights": {" 01 ": "1"}}]),
            spec_with(prefix=[{"weights": {"+1": "1"}}]),
            spec_with(prefix=5),
            spec_with(prefix=[{"weights": {"0": "0.5", "1": "1/2"}}]),
            spec_with(prefix=[{"weights": {"0": "5e-1", "1": "1/2"}}]),
            spec_with(prefix=[{"weights": {"0": " 1/2 ", "1": "1/2"}}]),
            spec_with(prefix=[{"weights": {"0": "+1/2", "1": "1/2"}}]),
        ],
        ids=[
            "float-tail-size",
            "bool-tail-size",
            "string-tail-point",
            "missing-tail-point",
            "underscore-key",
            "padded-key",
            "plus-signed-key",
            "prefix-not-a-list",
            "decimal-mass",
            "exponent-mass",
            "padded-mass",
            "plus-signed-mass",
        ],
    )
    def test_synth_rejects(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out, err = run(capsys, "witness", "synth", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["gap", "coinflip", "build"])
    @pytest.mark.parametrize(
        "encoded",
        [
            "{nope",
            "[1, 2]",
            json.dumps({"depth": 1}),
            json.dumps({"depth": 1.0, "points": [[0]]}),
            json.dumps({"depth": 1, "points": [[1.5]]}),
            json.dumps({"depth": 1, "points": [[True]]}),
            json.dumps({"depth": 1, "points": [0]}),
        ],
        ids=[
            "syntax-error",
            "not-an-object",
            "missing-points",
            "float-depth",
            "float-code",
            "bool-code",
            "point-not-a-list",
        ],
    )
    def test_encoded_set_rejects(self, capsys, tmp_path, command, encoded):
        path = tmp_path / "set.json"
        path.write_text(encoded)
        code, out, err = run(capsys, "eset", command, str(path), "--encoded")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["gap", "coinflip", "build"])
    @pytest.mark.parametrize(
        "datum",
        [
            {"a": [1.5], "x": [0], "g": [0]},
            {"a": [1], "x": [1.0], "g": [0]},
            {"a": [1], "x": [True], "g": [0]},
            {"a": [1], "x": [0], "g": ["0"]},
        ],
        ids=["float-size", "float-bit", "bool-bit", "string-offset"],
    )
    def test_graph_data_rejects(self, capsys, tmp_path, command, datum):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA + json.dumps(datum) + "\n")
        code, out, err = run(capsys, "eset", command, str(data))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "line 3:" in err

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (
                ["eset", "build", "{data}"],
                {"data": GOOD_DATA + '{"a": [1], "x": [0], "g": [0], "a": [2]}\n'},
                "error: line 3: invalid JSON: duplicate key 'a'",
            ),
            (
                ["eset", "gap", "{data}", "--encoded"],
                {"data": '{"depth": 1, "points": [[0]], "depth": 1}'},
                "error: invalid JSON: duplicate key 'depth'",
            ),
            (
                ["witness", "synth", "{spec}"],
                {"spec": '{"prefix": [{"weights": {"0": "1/2", "0": "1/2"}}]}'},
                "error: invalid JSON: duplicate key '0'",
            ),
            (
                ["witness", "check-prefix", "{witness}", "{cylinder}"],
                {
                    "witness": '{"witness": [1], "witness": [2]}',
                    "cylinder": CYLINDER_OK,
                },
                "error: invalid JSON: duplicate key 'witness'",
            ),
        ],
        ids=["graph-data", "encoded-set", "spec", "witness"],
    )
    def test_repeated_keys_rejected(self, capsys, tmp_path, argv, files, message):
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("command", ["gap", "coinflip", "build"])
    def test_over_long_integers_are_parse_errors(self, capsys, tmp_path, command):
        huge = "1" * 5000  # past the interpreter's limit on integer digits
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_DATA + '{"a": [' + huge + '], "x": [0], "g": [0]}\n')
        code, out, err = run(capsys, "eset", command, str(data))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: invalid JSON: Exceeds the limit")
        encoded = tmp_path / "set.json"
        encoded.write_text('{"depth": 1, "points": [[' + huge + "]]}")
        code, out, err = run(capsys, "eset", command, str(encoded), "--encoded")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: Exceeds the limit")

    def test_over_long_integer_in_a_spec_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        huge = "9" * 5000
        path.write_text('{"prefix": [], "tail": {"kind": "uniform", "k": ' + huge + "}}")
        code, out, err = run(capsys, "witness", "synth", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: Exceeds the limit")

    def test_encoded_set_bad_values_stay_dataset_errors(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"depth": 1, "points": [[-1]]}))
        code, out, err = run(capsys, "eset", "gap", str(path), "--encoded")
        assert code == 1
        assert out == ""
        assert err.startswith("dataset error:")


NOT_UTF8 = b'{"a": [1], "x": [0], "g": [1]}\n{"a": [1], "x": [\xe90], "g": [0]}\n'
HUGE_SIZE = 10**4000  # its codes have about 8000 digits, past the print limit


class TestExitCodes:
    """`main` picks the exit code from the exception type alone."""

    @pytest.mark.parametrize(
        "argv, files, code, prefix",
        [
            (
                ["eset", "gap", "{data}"],
                {"data": BOUNDARY_DATA},
                1,
                "dataset error: line 1 has an offset at a size + 1 boundary",
            ),
            (
                ["eset", "build", "{data}"],
                {"data": GOOD_DATA + '{"a": [1], "x": [0], "g": [9]}\n'},
                1,
                "dataset error: line 3: offsets (9,) leave the codec domain",
            ),
            (
                ["eset", "build", "{data}", "--encoded"],
                {"data": json.dumps({"depth": 1, "points": [[-1]]})},
                1,
                "dataset error: code must be >= 0",
            ),
            (
                ["eset", "coinflip", "{data}"],
                {"data": "\n"},
                1,
                "dataset error: dataset is empty",
            ),
            (
                ["witness", "synth", "{spec}", "--depth", "3"],
                {"spec": json.dumps(SPEC_JSON)},
                1,
                "error: coordinate 1 lies beyond prefix depth 1",
            ),
            (
                ["eset", "gap", "{data}"],
                {"data": "nope\n"},
                2,
                "error: line 1: invalid JSON: Expecting value",
            ),
            (
                ["eset", "gap", "{data}", "--encoded"],
                {"data": "[1, 2]"},
                2,
                'error: expected an object with fields "depth" and "points"',
            ),
            (
                ["witness", "synth", "{spec}"],
                {"spec": spec_with(prefix=5)},
                2,
                "error: 'prefix' must be a list, got 5",
            ),
            (["eset", "gap", "{missing}"], {}, 2, "error: [Errno 2]"),
            (
                ["eset", "coinflip", "{data}", "--budget", "0"],
                {"data": GOOD_DATA},
                2,
                "error: budget must be >= 1, got 0",
            ),
            (
                ["eset", "build", "{data}"],
                {"data": NOT_UTF8},
                2,
                "error: line 2: not valid UTF-8: invalid continuation byte",
            ),
            (
                ["eset", "gap", "{data}", "--encoded"],
                {"data": b'{"depth": 1,\r\n"points": [[\xe9]]}'},
                2,
                "error: line 2: not valid UTF-8: invalid continuation byte",
            ),
            (
                ["witness", "check-prefix", "{witness}", "{cylinder}"],
                {"witness": WITNESS_OK, "cylinder": b"\xe9"},
                2,
                "error: line 1: not valid UTF-8: unexpected end of data",
            ),
            (
                ["witness", "synth", "{spec}"],
                {"spec": "[" * 100_000},
                2,
                "error: invalid JSON: maximum recursion depth exceeded",
            ),
            (
                ["witness", "synth", "{spec}", "--depth", "3"],
                {
                    "spec": json.dumps(
                        {
                            "prefix": SPEC_JSON["prefix"],
                            "tial": {"kind": "uniform", "k": 1},
                        }
                    )
                },
                2,
                "error: unknown fields: tial",
            ),
            (
                ["witness", "synth", "{spec}"],
                {
                    "spec": spec_with(
                        prefix=[{"weights": {"0": "1"}, "wieghts": {"1": "1"}}]
                    )
                },
                2,
                "error: unknown fields: wieghts",
            ),
            (
                ["witness", "synth", "{spec}"],
                {"spec": spec_with(tail={"kind": "uniform", "k": 1, "z": 5})},
                2,
                "error: unknown fields: z",
            ),
            (
                ["witness", "synth", "{spec}"],
                {"spec": spec_with(tail={"kind": "point", "z": 0, "k": 1})},
                2,
                "error: unknown fields: k",
            ),
            (
                ["witness", "check-prefix", "{witness}", "{cylinder}"],
                {
                    "witness": WITNESS_OK,
                    "cylinder": json.dumps(
                        {"depth": 1, "prefixes": [[0]], "b": 1, "a": 2}
                    ),
                },
                2,
                "error: unknown fields: a, b",
            ),
            (
                ["eset", "gap", "{data}"],
                {"data": GOOD_DATA + "[" * 100_000 + "\n"},
                2,
                "error: line 3: invalid JSON: maximum recursion depth exceeded",
            ),
        ],
        ids=[
            "graph-data-boundary",
            "graph-data-bad-offset",
            "encoded-dataset-error",
            "empty-dataset",
            "unsupported-depth",
            "syntax-error",
            "encoded-shape-error",
            "spec-shape-error",
            "missing-file",
            "budget-zero",
            "graph-data-not-utf8",
            "encoded-not-utf8",
            "cylinder-not-utf8",
            "spec-nested-too-deep",
            "spec-unknown-field",
            "measure-unknown-field",
            "uniform-tail-unknown-field",
            "point-tail-unknown-field",
            "cylinder-unknown-fields",
            "graph-data-nested-too-deep",
        ],
    )
    def test_table(self, capsys, tmp_path, argv, files, code, prefix):
        paths = {"missing": tmp_path / "missing.json"}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.json"
            if isinstance(content, bytes):
                paths[name].write_bytes(content)
            else:
                paths[name].write_text(content)
        got_code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (got_code, out) == (code, "")
        assert err.startswith(prefix), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["eset", "gap", "{data}", "--encoded", "--allow-boundary"],
                "argument --allow-boundary: not allowed with argument --encoded",
            ),
            (
                ["eset", "build", "{data}", "--allow-boundary", "--encoded"],
                "argument --encoded: not allowed with argument --allow-boundary",
            ),
            (
                ["eset", "coinflip", "{data}", "--encoded", "--allow-boundary"],
                "argument --allow-boundary: not allowed with argument --encoded",
            ),
        ],
        ids=[
            "gap-encoded-boundary",
            "build-boundary-encoded",
            "coinflip-encoded-boundary",
        ],
    )
    def test_usage_errors(self, capsys, tmp_path, argv, message):
        data = tmp_path / "encoded.json"
        data.write_text(json.dumps({"depth": 1, "points": [[1], [3]]}))
        code, out, err = run(capsys, *(a.format(data=data) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage: haarnull eset ")
        assert err.splitlines()[-1] == f"haarnull eset {argv[1]}: error: {message}"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_unprintable_build_output_writes_nothing(self, capsys, tmp_path, output):
        data = tmp_path / "data.jsonl"
        data.write_text(
            "".join(
                json.dumps({"a": [HUGE_SIZE], "x": [x], "g": [0]}) + "\n"
                for x in (0, 1)
            )
        )
        code, out, err = run(capsys, "eset", "build", str(data), "--output", output)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")
        code, out, _ = run(capsys, "eset", "gap", str(data))  # prints no code
        assert code == 0 and out.startswith("pairwise-gap: pass\n")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_unprintable_code_writes_nothing(self, capsys, output):
        argv = ("codec", "encode", str(HUGE_SIZE), "0", "0", "--output", output)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")

    def test_closed_stdout_exits_2_without_a_traceback(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(
            "".join(
                json.dumps({"a": [i // 2 + 1], "x": [i % 2], "g": [0]}) + "\n"
                for i in range(20_000)
            )
        )
        argv = ["eset", "build", str(data), "--output", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "haarnull.cli", *argv],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()  # far more output is pending than a pipe holds
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err
        assert err == "error: [Errno 32] Broken pipe\n"


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_module(argv, stdin: bytes):
    proc = subprocess.run(
        [sys.executable, "-m", "haarnull.cli", *argv],
        input=stdin,
        env=subprocess_env(),
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class TestStdinBytes:
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_crlf_matches_the_lf_file(self, capsys, tmp_path, output):
        data = tmp_path / "data.jsonl"
        data.write_text(BOUNDARY_DATA)
        argv = ["eset", "gap", "-", "--allow-boundary", "--output", output]
        expected = run(capsys, *argv[:2], str(data), *argv[3:])
        assert expected[0] == 1 and expected[1]
        crlf = BOUNDARY_DATA.replace("\n", "\r\n").encode()
        assert run_module(argv, crlf) == expected

    @given(
        st.lists(
            st.sampled_from(
                # text and line breaks, then an "é" whole and cut short, a
                # lone lead byte and a byte UTF-8 never uses
                [b"a", b"\r", b"\n", b"\r\n", b"\x0c", "\u2028".encode()]
                + [b"\xc3\xa9", b"\xc3", b"\xe9", b"\xff"]
            ),
            max_size=12,
        ).map(b"".join)
    )
    def test_read_text_matches_decoding_first(self, data):
        # the reference decodes, then makes CRLF and CR into LF
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start].decode("utf-8")
            line = prefix.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            want = ValueError(f"line {line}: not valid UTF-8: {exc.reason}")
        else:
            want = text.replace("\r\n", "\n").replace("\r", "\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data"
            path.write_bytes(data)
            try:
                got = cli._read_text(str(path))
            except ValueError as exc:
                got = exc
        assert repr(got) == repr(want)

    def test_not_utf8_exits_2_with_the_line(self):
        assert run_module(["eset", "gap", "-"], NOT_UTF8) == (
            2,
            "",
            "error: line 2: not valid UTF-8: invalid continuation byte\n",
        )


class TestAcceptanceCommand:
    def test_full_battery(self, capsys, monkeypatch, battery):
        def reuse_session_battery(seed):
            assert seed == 42
            return battery

        monkeypatch.setattr(cli, "run_all", reuse_session_battery)
        code, out, _ = run(capsys, "eset", "acceptance", "--seed", "42")
        assert code == 0
        assert "9/9 criteria passed" in out
        assert out.count("[PASS]") == 9

    def test_budget_is_a_usage_error(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a criterion ran")

        table = tuple((k, d, never, t) for k, d, _, t in acceptance.CRITERIA)
        monkeypatch.setattr(acceptance, "CRITERIA", table)
        code, out, err = run(capsys, "eset", "acceptance", "--budget", "5")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --budget 5\n")

    def test_failing_criterion(self, capsys, monkeypatch):
        results = [
            CriterionResult("one", "first", True, "fine", 0.25),
            CriterionResult("two", "second", False, "broken", 0.5),
        ]
        monkeypatch.setattr(cli, "run_all", lambda seed: results)
        code, out, _ = run(capsys, "eset", "acceptance", "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "fail"
        assert [c["status"] for c in data["criteria"]] == ["pass", "fail"]
        code, out, _ = run(capsys, "eset", "acceptance")
        assert code == 1
        assert out.splitlines() == [
            "[PASS] one: fine (0.25s)",
            "[FAIL] two: broken (0.50s)",
            "1/2 criteria passed in 0.75s",
        ]


# One valid invocation of every leaf command, with the input files it names.
LEAF_RUNS = {
    ("codec", "encode"): ["2", "1", "3"],
    ("codec", "decode"): ["13"],
    ("codec", "roundtrip"): ["--max", "100"],
    ("witness", "synth"): ["{spec}"],
    ("witness", "verify-claim"): ["--depth", "2", "--instances", "3"],
    ("witness", "check-prefix"): ["{witness}", "{cylinder}"],
    ("eset", "build"): ["{data}"],
    ("eset", "gap"): ["{data}"],
    ("eset", "coinflip"): ["{data}"],
    ("eset", "acceptance"): [],
}
LEAF_FILES = {
    "spec": json.dumps(SPEC_JSON),
    "witness": WITNESS_OK,
    "cylinder": CYLINDER_OK,
    "data": GOOD_DATA,
}


def subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestOutputPath:
    """Every handler returns its exit code, JSON value and text lines, and
    `main` alone picks the format."""

    def test_every_leaf_command_is_run(self):
        families = subcommands(cli.build_parser())
        leaves = {(f, c) for f, sub in families.items() for c in subcommands(sub)}
        assert leaves == set(LEAF_RUNS)

    @pytest.mark.parametrize("command", sorted(LEAF_RUNS), ids="-".join)
    def test_text_and_json_agree(self, capsys, monkeypatch, tmp_path, command):
        results = [CriterionResult("one", "first", True, "fine", 0.25)]
        monkeypatch.setattr(cli, "run_all", lambda seed: results)
        paths = {}
        for name, content in LEAF_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(content)
        argv = [*command, *(a.format(**paths) for a in LEAF_RUNS[command])]
        text_code, text, text_err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--output", "json")
        assert (text_err, json_err) == ("", "")
        assert text_code == json_code
        assert text and text != out
        json.loads(out)

    def test_main_alone_reads_the_output_format(self):
        source = Path(cli.__file__).read_text()
        assert source.count("args.output") == 1
        assert source.count("_dump(") == 2  # its definition and its call in main


def test_bench_selftest_runs():
    # every output check of the benchmark must reject its corrupted outputs
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failures"


def test_witness_demo_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "witness_demo.py")],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status: pass" in proc.stdout
