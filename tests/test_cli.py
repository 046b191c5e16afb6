import json
import shutil

import pytest

from speckg.cli import main

from conftest import QA_DATASET, SPEC_DOC


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    """build-kg in record mode: store + fixture file for replay commands."""
    base = tmp_path_factory.mktemp("cli")
    store = base / "kg"
    fixtures = base / "replies.jsonl"
    code = main(["build-kg", "--spec", str(SPEC_DOC), "--out", str(store),
                 "--mode", "record", "--fixtures", str(fixtures)])
    assert code == 0
    return {"store": store, "fixtures": fixtures, "base": base}


class TestBuildKG:
    def test_happy_path_writes_store(self, built_store, capsys):
        store = built_store["store"]
        for name in ("graph.jsonl", "embeddings.bin", "manifest.json",
                     "passages.jsonl", "ir.jsonl"):
            assert (store / name).exists()

    def test_replay_mode_build_succeeds_offline(self, built_store, tmp_path):
        code = main(["build-kg", "--spec", str(SPEC_DOC), "--out", str(tmp_path / "kg2"),
                     "--mode", "replay", "--fixtures", str(built_store["fixtures"])])
        assert code == 0

    def test_failed_build_leaves_the_store_as_it_was(self, built_store, tmp_path):
        # the other document's fixture file holds its ir-extract replies but
        # no embeddings, so its replayed build fails after ingest
        other = tmp_path / "timer_spec.md"
        other.write_text("# Timer\n\nThe TMR_CTRL register defaults to 0x0001.\n",
                         encoding="utf-8")
        fixtures = tmp_path / "replies.jsonl"
        assert main(["build-kg", "--spec", str(other), "--out", str(tmp_path / "timer_kg"),
                     "--mode", "record", "--fixtures", str(fixtures)]) == 0
        lines = fixtures.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if json.loads(line)["task_tag"] != "embed"]
        assert 0 < len(kept) < len(lines)
        fixtures.write_text("".join(line + "\n" for line in kept), encoding="utf-8")

        store = tmp_path / "kg"
        shutil.copytree(built_store["store"], store)
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        assert len(before) == 5
        code = main(["build-kg", "--spec", str(other), "--out", str(store),
                     "--mode", "replay", "--fixtures", str(fixtures)])
        assert code == 1
        assert {path.name: path.read_bytes() for path in store.iterdir()} == before

    def test_missing_spec_file_is_config_error(self, tmp_path):
        code = main(["build-kg", "--spec", str(tmp_path / "nope.md"),
                     "--out", str(tmp_path / "kg")])
        assert code == 2


class TestConfigErrors:
    @pytest.mark.parametrize("text", [None, "retrieval: [\n"], ids=["missing", "bad-yaml"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "config.yaml"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        code = main(["build-kg", "--config", str(config), "--spec", str(SPEC_DOC),
                     "--out", str(tmp_path / "kg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(config) in err
        assert "Traceback" not in err and not (tmp_path / "kg").exists()


class TestUsageErrors:
    def test_query_without_kg_flag_exits_2(self):
        assert main(["query", "--question", "what?"]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["query", "--kg", "x", "--question", "q", "--bogus"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_replay_without_fixture_path_exits_2(self, built_store):
        code = main(["query", "--kg", str(built_store["store"]),
                     "--question", "q?", "--mode", "replay"])
        assert code == 2


class TestQuery:
    QUESTION = "What is the default value of the BAUD register?"

    def test_query_emits_answer_record(self, built_store, tmp_path, capsys):
        code = main(["query", "--kg", str(built_store["store"]),
                     "--question", self.QUESTION,
                     "--mode", "record", "--fixtures", str(built_store["fixtures"])])
        assert code == 0
        recorded = json.loads(capsys.readouterr().out)
        assert "0x0010" in recorded["answer"]

        trace = tmp_path / "trace.json"
        code = main(["query", "--kg", str(built_store["store"]),
                     "--question", self.QUESTION,
                     "--mode", "replay", "--fixtures", str(built_store["fixtures"]),
                     "--trace", str(trace)])
        assert code == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == recorded
        assert json.loads(trace.read_text()) == replayed


class TestEvalAndBench:
    def test_eval_writes_report(self, built_store, tmp_path):
        out = tmp_path / "report.json"
        code = main(["eval", "--kg", str(built_store["store"]),
                     "--dataset", str(QA_DATASET),
                     "--mode", "record", "--fixtures", str(built_store["fixtures"]),
                     "--runs", "1", "--judge-reps", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["overall_f1"] == 1.0
        assert out.with_suffix(".txt").exists()

    def test_bench_persists_effective_config(self, built_store, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["bench", "--kg", str(built_store["store"]),
                     "--dataset", str(QA_DATASET),
                     "--mode", "record", "--fixtures", str(built_store["fixtures"]),
                     "--runs", "1", "--judge-reps", "1", "--run-dir", str(run_dir)])
        assert code == 0
        effective = json.loads((run_dir / "effective-config.json").read_text())
        assert effective["config"]["eval"]["n_runs"] == 1
        assert "config_checksum" in effective and "corpus_checksum" in effective
        assert (run_dir / "report.json").exists()


    def test_bench_record_then_replay_same_report_and_no_synthesize_record(
            self, built_store, tmp_path):
        # every fixture item ends on a sufficient verdict, whose reason reply
        # carries the answer: the recorded file needs no synthesize reply
        fixtures = tmp_path / "replies.jsonl"
        fixtures.write_bytes(built_store["fixtures"].read_bytes())
        reports = []
        for mode in ("record", "replay"):
            run_dir = tmp_path / mode
            assert main(["bench", "--kg", str(built_store["store"]),
                         "--dataset", str(QA_DATASET),
                         "--mode", mode, "--fixtures", str(fixtures),
                         "--run-dir", str(run_dir)]) == 0
            reports.append((run_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]
        tags = {json.loads(line)["task_tag"]
                for line in fixtures.read_text().splitlines()}
        assert "reason" in tags and "synthesize" not in tags


def replay_without(built_store, tmp_path, task_tag, restamped=False):
    """A fixture file of a whole recorded bench, less every ``task_tag`` reply;
    with ``restamped``, those replies stay but as recorded for another version
    of the task, under other digests and another task hash."""
    fixtures = tmp_path / "replies.jsonl"
    fixtures.write_bytes(built_store["fixtures"].read_bytes())
    assert main(["bench", "--kg", str(built_store["store"]), "--dataset", str(QA_DATASET),
                 "--mode", "record", "--fixtures", str(fixtures),
                 "--run-dir", str(tmp_path / "record")]) == 0
    lines = fixtures.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["task_tag"] != task_tag]
    assert len(kept) < len(lines)
    if restamped:
        kept += [json.dumps({**record, "digest": "old" + record["digest"], "task_hash": "old"})
                 for record in map(json.loads, lines) if record["task_tag"] == task_tag]
    stale = tmp_path / f"no-{task_tag}.jsonl"
    stale.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return ["--kg", str(built_store["store"]), "--dataset", str(QA_DATASET),
            "--mode", "replay", "--fixtures", str(stale)]


def assert_whole_report(report):
    assert len(report["items"]) == len(QA_DATASET.read_text().splitlines())
    assert {"per_category", "overall_f1", "mean_system_recall"} <= set(report)


class TestDatasetErrors:
    @pytest.mark.parametrize("line,problem", [
        ("not json", "not JSON"),
        ("[1]", "a dataset item must be a JSON object"),
        ('{"qid": "x"}', "missing field 'question'"),
        (None, "field 'hop_count' must be a JSON int, not '2'"),
    ], ids=["not-json", "not-an-object", "missing-field", "wrong-type"])
    def test_bad_item_is_one_error_line(self, built_store, tmp_path, capsys, line, problem):
        # the second line is bad: the error names it, and no traceback is printed
        first, second = QA_DATASET.read_text(encoding="utf-8").splitlines()[:2]
        if line is None:
            line = json.dumps({**json.loads(second), "hop_count": "2"})
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(first + "\n" + line + "\n", encoding="utf-8")
        code = main(["eval", "--kg", str(built_store["store"]), "--dataset", str(dataset),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        err = capsys.readouterr().err
        errors = [text for text in err.splitlines() if text.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {dataset}:2: {problem}")
        assert "Traceback" not in err


class TestMissingInputs:
    """A scoring command whose dataset or store is not there prints one
    ``error:`` line and exits 1, with no traceback."""

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("missing", ["dataset", "kg"])
    def test_missing_input_is_one_error_line(self, built_store, tmp_path, capsys,
                                             command, missing):
        paths = {"kg": str(built_store["store"]), "dataset": str(QA_DATASET)}
        paths[missing] = str(tmp_path / "absent")
        out = (["--out", str(tmp_path / "report.json")] if command == "eval"
               else ["--run-dir", str(tmp_path / "run")])
        code = main([command, "--kg", paths["kg"], "--dataset", paths["dataset"], *out])
        assert code == 1
        err = capsys.readouterr().err
        errors = [text for text in err.splitlines() if text.startswith("error: ")]
        assert len(errors) == 1 and str(tmp_path / "absent") in errors[0]
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists() and not (tmp_path / "run").exists()


class TestUnreadableInputs:
    """An input file that is not UTF-8 text, or a directory given as the spec,
    ends in one error line, not a traceback: a runtime error for a dataset or
    fixture file, a config error for the spec."""

    NOT_UTF8 = b"\xff\xfe not text\n"

    @staticmethod
    def error_lines(capsys, prefix):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return [line for line in err.splitlines() if line.startswith(prefix)]

    def test_dataset_not_utf8(self, built_store, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(self.NOT_UTF8)
        code = main(["eval", "--kg", str(built_store["store"]), "--dataset", str(dataset),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        [line] = self.error_lines(capsys, "error: ")
        assert line.startswith(f"error: dataset {dataset} is not UTF-8 text")

    def test_fixture_file_not_utf8(self, built_store, tmp_path, capsys):
        fixtures = tmp_path / "replies.jsonl"
        fixtures.write_bytes(built_store["fixtures"].read_bytes().split(b"\n")[0] + b"\n"
                             + self.NOT_UTF8)
        code = main(["query", "--kg", str(built_store["store"]), "--question", "q?",
                     "--mode", "replay", "--fixtures", str(fixtures)])
        assert code == 1
        [line] = self.error_lines(capsys, "error: ")
        assert line == f"error: {fixtures}:2: fixture record is not UTF-8 text"

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_spec(self, tmp_path, capsys, kind):
        spec = tmp_path / "spec.md"
        if kind == "directory":
            spec.mkdir()
        else:
            spec.write_bytes(self.NOT_UTF8)
        code = main(["build-kg", "--spec", str(spec), "--out", str(tmp_path / "kg")])
        assert code == 2
        [line] = self.error_lines(capsys, "config error: ")
        assert str(spec) in line and not (tmp_path / "kg").exists()


class TestItemErrors:
    def test_judge_fixture_miss_fails_the_item(self, built_store, tmp_path):
        # without the atom-match replies no atom can be judged: each item ends
        # with the miss as its error, not as an F1 of 0.0 with no error
        args = replay_without(built_store, tmp_path, "atom-match")
        run_dir = tmp_path / "replay"
        assert main(["bench", *args, "--run-dir", str(run_dir)]) == 1
        report = json.loads((run_dir / "report.json").read_text())
        assert_whole_report(report)
        for item in report["items"]:
            assert "no fixture for task_tag='atom-match'" in item["error"]
            assert item["samples"] == 0 and item["answer"]
        assert (run_dir / "report.txt").exists()

    @pytest.mark.parametrize("command", ["bench", "eval"])
    def test_item_errors_exit_1_after_the_whole_report(self, built_store, tmp_path, command):
        args = replay_without(built_store, tmp_path, "summarize", restamped=True)
        if command == "bench":
            out = tmp_path / "replay" / "report.json"
            code = main(["bench", *args, "--run-dir", str(out.parent)])
        else:
            out = tmp_path / "eval" / "report.json"
            code = main(["eval", *args, "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert_whole_report(report)
        # a failed run is an item error, left out of every mean, not an F1 of
        # 0; a replay miss is the error with its message, which says what to do
        for item in report["items"]:
            assert item["error"].startswith("no fixture for task_tag='summarize'")
            assert item["error"].endswith("record the file again")
            assert item["samples"] == 0
        assert report["per_category"] == {} and report["mean_system_recall"] is None
        # with nothing scored there is no overall F1: null, printed "-" like
        # the per-category cells and Recall, not an AVG of 0.000
        assert report["overall_f1"] is None
        header, _, row = out.with_suffix(".txt").read_text().splitlines()
        assert "AVG | Recall@" in header
        assert [cell.strip() for cell in row.split(" | ")][1:] == ["-"] * 7

    def test_query_replay_miss_is_one_error_line(self, built_store, tmp_path, capsys):
        args = replay_without(built_store, tmp_path, "summarize")
        fixtures = args[args.index("--fixtures") + 1]
        question = json.loads(QA_DATASET.read_text().splitlines()[0])["question"]
        capsys.readouterr()
        code = main(["query", "--kg", str(built_store["store"]), "--question", question,
                     "--mode", "replay", "--fixtures", fixtures])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no fixture for task_tag='summarize'")
        assert err.count("\n") == 1


class TestReplayVerify:
    def test_two_replay_runs_byte_identical(self, built_store, tmp_path):
        # warm the fixture store with a full bench first
        warm = tmp_path / "warm"
        assert main(["bench", "--kg", str(built_store["store"]),
                     "--dataset", str(QA_DATASET),
                     "--mode", "record", "--fixtures", str(built_store["fixtures"]),
                     "--runs", "2", "--judge-reps", "2",
                     "--run-dir", str(warm)]) == 0
        code = main(["replay-verify", "--kg", str(built_store["store"]),
                     "--dataset", str(QA_DATASET),
                     "--mode", "replay", "--fixtures", str(built_store["fixtures"]),
                     "--runs", "2", "--judge-reps", "2",
                     "--out", str(tmp_path / "verify")])
        assert code == 0
        run1 = (tmp_path / "verify" / "run1" / "report.json").read_bytes()
        run2 = (tmp_path / "verify" / "run2" / "report.json").read_bytes()
        assert run1 == run2
