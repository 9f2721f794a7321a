"""Argument-error paths of the ``repro`` CLI.

Every bad invocation must exit through ``SystemExit`` (argparse or an
explicit guard) with a non-zero code — never a traceback — because the
deployed modules run unattended on a 2-hour cycle (§4.9) and a crash
with a stack trace is indistinguishable from an infrastructure failure.
"""

import json
import os

import pytest

from repro.cli import build_parser, main


def _exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


class TestArgparseErrors:
    def test_no_command(self):
        assert _exit_code([]) == 2

    def test_unknown_command(self):
        assert _exit_code(["frobnicate"]) == 2

    def test_generate_requires_out(self):
        assert _exit_code(["generate", "--articles", "10"]) == 2

    def test_pipeline_commands_require_data(self):
        for command in ("topics", "events", "run", "predict"):
            assert _exit_code([command]) == 2, command

    def test_non_integer_option(self, tmp_path):
        assert (
            _exit_code(
                ["topics", "--data", str(tmp_path), "--n-topics", "many"]
            )
            == 2
        )

    def test_bad_medium_choice(self, tmp_path):
        assert (
            _exit_code(
                ["events", "--data", str(tmp_path), "--medium", "radio"]
            )
            == 2
        )

    def test_bad_predict_target_choice(self, tmp_path):
        assert (
            _exit_code(
                ["predict", "--data", str(tmp_path), "--target", "shares"]
            )
            == 2
        )

    def test_unknown_option(self, tmp_path):
        assert _exit_code(["run", "--data", str(tmp_path), "--verbose"]) == 2


class TestGuardErrors:
    def test_missing_snapshot_message_names_generate(self, tmp_path):
        code = _exit_code(["run", "--data", str(tmp_path / "nope")])
        assert isinstance(code, str) and "generate" in code

    def test_snapshot_without_required_collections(self, tmp_path):
        # A directory that restores but lacks news/tweets collections.
        directory = tmp_path / "partial"
        directory.mkdir()
        (directory / "users.jsonl").write_text('{"_id": 1}\n', encoding="utf-8")
        code = _exit_code(["run", "--data", str(directory)])
        assert isinstance(code, str) and "generate" in code


class TestTraceOption:
    def test_trace_defaults_to_off(self):
        args = build_parser().parse_args(["run", "--data", "x"])
        assert args.trace is None

    def test_trace_writes_snapshot_on_success(self, tmp_path, capsys):
        snapshot_dir = str(tmp_path / "world")
        assert (
            main(
                ["generate", "--articles", "120", "--tweets", "400",
                 "--users", "40", "--seed", "5", "--out", snapshot_dir]
            )
            == 0
        )
        trace = str(tmp_path / "trace.json")
        code = main(
            ["topics", "--data", snapshot_dir, "--n-topics", "5",
             "--min-term-support", "3", "--trace", trace]
        )
        assert code == 0
        assert os.path.exists(trace)
        with open(trace, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["spans"], "trace snapshot recorded no spans"
        assert "trace written to" in capsys.readouterr().out

    def test_trace_not_written_when_command_exits(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        with pytest.raises(SystemExit):
            main(["run", "--data", str(tmp_path / "nope"), "--trace", trace])
        assert not os.path.exists(trace)


class TestIngestInputErrors:
    """Bad ``repro ingest`` input exits with ``<file>:<line>: <reason>``.

    Line 1 of every input is a valid tweet, so each case also proves the
    bad line refuses the whole file: the snapshot is left unchanged.
    """

    GOOD = {
        "text": "late breaking news",
        "author": "someone",
        "followers": 10,
        "likes": 1,
        "retweets": 0,
        "created_at": "2019-08-29T12:00:00",
    }

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("ingest-world"))
        code = main(
            ["generate", "--articles", "40", "--tweets", "80",
             "--users", "10", "--seed", "5", "--out", directory]
        )
        assert code == 0
        return directory

    def _ingest_error(self, snapshot, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(self.GOOD) + "\n\n" + bad_line + "\n", encoding="utf-8"
        )
        with open(os.path.join(snapshot, "tweets.jsonl"), "rb") as handle:
            before = handle.read()
        code = _exit_code(["ingest", "--data", snapshot, "--input", str(path)])
        with open(os.path.join(snapshot, "tweets.jsonl"), "rb") as handle:
            assert handle.read() == before
        assert isinstance(code, str)
        prefix = f"{path}:3: "
        assert code.startswith(prefix), code
        return code[len(prefix):]

    def _record(self, **changes):
        return json.dumps({**self.GOOD, **changes})

    def test_malformed_json(self, snapshot, tmp_path):
        reason = self._ingest_error(snapshot, tmp_path, '{"text": "oops"')
        assert reason.startswith("invalid JSON")

    def test_non_object_line(self, snapshot, tmp_path):
        reason = self._ingest_error(snapshot, tmp_path, '["a", "list"]')
        assert "not a mapping" in reason

    def test_unparseable_created_at(self, snapshot, tmp_path):
        reason = self._ingest_error(
            snapshot, tmp_path, self._record(created_at="not-a-date")
        )
        assert "is not ISO 8601" in reason

    def test_numeric_created_at(self, snapshot, tmp_path):
        reason = self._ingest_error(
            snapshot, tmp_path, self._record(created_at=12)
        )
        assert "must be a datetime, got 12" in reason

    def test_missing_created_at(self, snapshot, tmp_path):
        record = {k: v for k, v in self.GOOD.items() if k != "created_at"}
        reason = self._ingest_error(snapshot, tmp_path, json.dumps(record))
        assert "must be a datetime, got None" in reason

    def test_timezone_aware_created_at(self, snapshot, tmp_path):
        reason = self._ingest_error(
            snapshot, tmp_path, self._record(created_at="2019-08-30T00:00:00Z")
        )
        assert "timezone-aware and naive" in reason

    def test_missing_input_file(self, snapshot, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        code = _exit_code(["ingest", "--data", snapshot, "--input", path])
        assert isinstance(code, str) and code.startswith(f"{path}: ")

    def test_non_utf8_input(self, snapshot, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes('{"text": "caf\u00e9"}\n'.encode("latin-1"))
        code = _exit_code(["ingest", "--data", snapshot, "--input", str(path)])
        assert isinstance(code, str) and code.startswith(f"{path}: not UTF-8")
