"""Command-line behavior: settings layering, the full life cycle, exit codes.

One small training run is shared by the predict/eval/explain tests; it
uses 2 folds and 2 epochs so the whole module stays fast.
"""
import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evicred
from evicred.cli import (
    PRESETS,
    _config_lines,
    _load_model,
    _read_predictions,
    build_parser,
    main,
    resolve_input,
    resolve_train_settings,
)
from evicred import corpus as corpus_mod
from evicred.embeddings import load_word_vectors
from evicred.errors import EvicredError, ParseError
from evicred.metrics import mode_report
from evicred.model import (
    SCORE_TOKENS,
    CredibilityModel,
    ModelParams,
    _chunk_spans,
    _SCORE_FLOOR,
    load_checkpoint,
    save_checkpoint,
)
from evicred.numeric import Tensor
from tests.conftest import make_embedding_file, planted_corpus, write_corpus_file, \
    write_embedding_file


def settings_for(argv):
    args = build_parser().parse_args(["train", "--corpus", "c", "--embeddings",
                                      "e", "--out", "o"] + argv)
    return resolve_train_settings(args)


class TestSettingsLayering:
    def test_snopes_preset_has_no_claim_sources(self):
        s = settings_for(["--preset", "snopes"])
        assert s.hyper.claim_source_dim is None
        assert s.hyper.hidden_size == 64
        assert s.hyper.fc_size == 32
        assert s.hyper.article_source_dim == 8
        assert s.hyper.dropout == 0.5
        assert (s.min_claim_support, s.min_article_support) == (5, 10)

    def test_politifact_preset_fuses_claim_sources(self):
        s = settings_for(["--preset", "politifact"])
        assert s.hyper.claim_source_dim == 4
        assert s.hyper.article_source_dim == 4

    def test_newstrust_preset_regresses(self):
        s = settings_for(["--preset", "newstrust"])
        assert s.hyper.mode == "regress"
        assert s.hyper.fc_size == 64
        assert s.hyper.dropout == 0.3

    def test_semeval_preset_is_three_way(self):
        s = settings_for(["--preset", "semeval"])
        assert s.hyper.classes == 3
        assert s.hyper.hidden_size == 16
        assert (s.min_claim_support, s.min_article_support) == (5, 5)

    def test_defaults_without_preset(self):
        s = settings_for([])
        assert s.hyper.claim_source_dim is None
        assert s.folds == 10
        assert s.config.learning_rate == 0.002
        assert s.config.l2_lambda == 1e-4

    def test_config_file_overrides_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = politifact\n"
                       "hidden_size = 8  # smaller for smoke tests\n"
                       "learning_rate = 0.01\n"
                       "folds = 3\n")
        s = settings_for(["--config", str(cfg)])
        assert s.hyper.hidden_size == 8
        assert s.hyper.claim_source_dim == 4  # preset named by the file
        assert s.config.learning_rate == 0.01
        assert s.folds == 3

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = politifact\nhidden_size = 8\n")
        s = settings_for(["--config", str(cfg), "--hidden-size", "4",
                          "--claim-source-dim", "none"])
        assert s.hyper.hidden_size == 4
        assert s.hyper.claim_source_dim is None

    def test_claim_source_dim_none_equals_no_claim_sources(self, capsys):
        s = settings_for(["--preset", "politifact", "--claim-source-dim", "none"])
        assert s.hyper.claim_source_dim is None
        # One spelling only: the old flag is an unknown argument.
        with pytest.raises(SystemExit) as exit_info:
            settings_for(["--preset", "politifact", "--no-claim-sources"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-claim-sources" in capsys.readouterr().err

    def test_word_dim_is_no_flag(self, capsys):
        # The vector file sets the word width; no flag restates it.
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--corpus", "c", "--embeddings", "e", "--out", "o",
                  "--word-dim", "16"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --word-dim 16" in capsys.readouterr().err

    def test_int_literal_for_a_float_key_is_a_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dropout = 0\n")
        for argv in (["--dropout", "0"], ["--config", str(cfg)]):
            dropout = settings_for(argv).hyper.dropout
            assert dropout == 0.0 and type(dropout) is float

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ("--l2-lambda", "nan"), ("--batch-size", "2.5"), ("--batch-size", "abc")])
    def test_bad_flag_value_exits_two_naming_the_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--corpus", "c", "--embeddings", "e", "--out", "o",
                  flag, value])
        assert exit_info.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"evicred train: error: argument {flag}: ")
        assert last.count(flag) == 1 and value in last

    def test_explicit_preset_beats_config_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = snopes\n")
        s = settings_for(["--config", str(cfg), "--preset", "semeval"])
        assert s.hyper.classes == 3

    def test_preset_catalog_is_complete(self):
        assert sorted(PRESETS) == ["newstrust", "politifact", "semeval", "snopes"]


class TestLoadConfig:
    """Reading a config file, as ``_config_lines`` does for ``train --config``."""

    def test_parses_types(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("max_epochs = 7\ndropout = 0.25\n"
                       "claim_source_dim = none\nmode = regress\n")
        got = _config_lines(cfg)
        assert got == {"max_epochs": (7, f"{cfg}:1"), "dropout": (0.25, f"{cfg}:2"),
                       "claim_source_dim": (None, f"{cfg}:3"),
                       "mode": ("regress", f"{cfg}:4")}

    def test_unknown_key_raises(self, tmp_path):
        # ``delta`` belongs to ``ingest --delta``; training never reads it.
        cfg = tmp_path / "a.cfg"
        for key, value in (("momentum", "0.9"), ("delta", "0.3")):
            cfg.write_text(f"{key} = {value}\n")
            with pytest.raises(ParseError, match=key):
                _config_lines(cfg)

    @pytest.mark.parametrize("key", ["learning_rate", "beta1", "beta2", "epsilon",
                                     "l2_lambda"])
    def test_non_finite_float_raises_naming_line_and_key(self, tmp_path, key):
        cfg = tmp_path / "a.cfg"
        for value in ("nan", "inf", "-inf", "1" + "0" * 400):
            cfg.write_text(f"mode = regress\n{key} = {value}\n")
            with pytest.raises(ParseError,
                               match=rf"a\.cfg:2: {key} must be a finite number"):
                _config_lines(cfg)

    def test_line_without_equals_raises(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ParseError, match=r"a\.cfg:1"):
            _config_lines(cfg)


class TestResolveInput:
    def test_relative_paths_use_data_dir(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "corpus.jsonl").write_text("{}\n")
        monkeypatch.setenv("EVICRED_DATA_DIR", str(data_dir))
        assert resolve_input("corpus.jsonl") == str(data_dir / "corpus.jsonl")

    def test_absolute_paths_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVICRED_DATA_DIR", str(tmp_path))
        assert resolve_input("/etc/hosts") == "/etc/hosts"

    def test_local_file_wins_when_data_dir_lacks_it(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        local = tmp_path / "local.jsonl"
        local.write_text("{}\n")
        monkeypatch.setenv("EVICRED_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        assert resolve_input("local.jsonl") == "local.jsonl"

    def test_without_env_nothing_changes(self, monkeypatch):
        monkeypatch.delenv("EVICRED_DATA_DIR", raising=False)
        assert resolve_input("corpus.jsonl") == "corpus.jsonl"


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    """Corpus, embeddings, and one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    instances, emb = planted_corpus(n_claims=12, n_articles=2, seed=7, dim=16)
    corpus = root / "corpus.jsonl"
    vectors = root / "vectors.txt"
    write_corpus_file(corpus, instances)
    write_embedding_file(vectors, emb)
    run_dir = root / "run"
    code = main([
        "train", "--corpus", str(corpus), "--embeddings", str(vectors),
        "--out", str(run_dir), "--folds", "2", "--max-epochs", "2",
        "--batch-size", "8", "--hidden-size", "4", "--fc-size", "3",
        "--article-source-dim", "2", "--min-article-support", "1",
        "--seed", "3",
    ])
    assert code == 0
    return {"root": root, "corpus": corpus, "vectors": vectors,
            "run": run_dir, "instances": instances}


class TestIngestCommand:
    def test_validates_and_reports_counts(self, tmp_path, capsys):
        instances, _ = planted_corpus(n_claims=5, n_articles=2)
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        write_corpus_file(src, instances)
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "claims=5" in stdout
        assert "articles=10" in stdout
        assert out.exists()

    def test_malformed_line_exits_one_with_one_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text("[1, 2]\n")
        code = main(["ingest", "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}:1: record is not a JSON object\n"

    def test_snippets_need_embeddings(self, tmp_path, capsys):
        # Without a vector file no snippet is extracted, so the snippet
        # settings would mean nothing; even the default delta is refused.
        instances, _ = planted_corpus(n_claims=3, n_articles=1)
        src = tmp_path / "in.jsonl"
        out = tmp_path / "o.jsonl"
        write_corpus_file(src, instances)
        for argv in (["--delta", "0.5"], ["--delta=-1"], ["--vocab-limit", "3"]):
            code = main(["ingest", "--in", str(src), "--out", str(out), *argv])
            assert code == 2
            flag = argv[0].split("=")[0]
            assert capsys.readouterr().err == f"usage error: {flag} needs --embeddings\n"
            assert not out.exists()

    def test_snippet_extraction_runs_end_to_end(self, tmp_path, capsys):
        instances, emb = planted_corpus(n_claims=4, n_articles=2)
        src = tmp_path / "in.jsonl"
        vectors = tmp_path / "v.txt"
        out = tmp_path / "out.jsonl"
        write_corpus_file(src, instances)
        write_embedding_file(vectors, emb)
        code = main(["ingest", "--in", str(src), "--out", str(out),
                     "--embeddings", str(vectors), "--delta=-1.0"])
        assert code == 0
        assert "claims=4" in capsys.readouterr().out

    def test_nan_delta_exits_one_with_one_line(self, tmp_path, capsys):
        instances, emb = planted_corpus(n_claims=2, n_articles=1)
        src = tmp_path / "in.jsonl"
        vectors = tmp_path / "v.txt"
        out = tmp_path / "out.jsonl"
        write_corpus_file(src, instances)
        write_embedding_file(vectors, emb)
        code = main(["ingest", "--in", str(src), "--out", str(out),
                     "--embeddings", str(vectors), "--delta", "nan"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "delta" in err
        assert not out.exists()

    def test_blocklist_drops_sources(self, tmp_path, capsys):
        instances, _ = planted_corpus(n_claims=5, n_articles=2)
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        block = tmp_path / "block.txt"
        write_corpus_file(src, instances)
        block.write_text("siteA\nsiteB\nsiteC\nsiteD\n")
        assert main(["ingest", "--in", str(src), "--out", str(out),
                     "--blocklist", str(block)]) == 0
        assert "claims=0" in capsys.readouterr().out

    def test_politifact_labels_map(self, tmp_path):
        src = tmp_path / "pf.jsonl"
        src.write_text(json.dumps({
            "id": "p1", "claim": "taxes went down", "label": "Mostly True",
            "articles": [{"text": "rates fell a bit", "source": "s"}],
        }) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(src), "--out", str(out),
                     "--label-scheme", "politifact"]) == 0
        assert json.loads(out.read_text())["label"] == 1

    def test_unknown_politifact_rating_exits_one_naming_the_record(self, tmp_path,
                                                                   capsys):
        src = tmp_path / "pf.jsonl"
        src.write_text(json.dumps({
            "id": "p1", "claim": "taxes went down", "label": "sorta",
            "articles": [{"text": "rates fell a bit", "source": "s"}],
        }) + "\n")
        assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "out.jsonl"),
                     "--label-scheme", "politifact"]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: record p1: unknown rating 'sorta'\n")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["ingest", "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoints_metrics_and_log(self, cli_world):
        run = cli_world["run"]
        assert (run / "fold_00.ckpt").exists()
        assert (run / "fold_01.ckpt").exists()
        assert (run / "train_log.txt").read_text().startswith("fold 0")
        summary = json.loads((run / "metrics.json").read_text())
        assert summary["n_claims"] == 12
        assert [f["fold"] for f in summary["folds"]] == [0, 1]
        assert "accuracy" in summary["mean"]
        assert "macro_f1" in summary["mean"]

    def test_word_dim_follows_the_embedding_file(self, cli_world):
        params, _ = load_checkpoint(cli_world["run"] / "fold_00.ckpt")
        assert params.hyper.word_dim == 16
        assert params.hyper.hidden_size == 4

    def test_word_dim_config_line_is_an_unknown_setting(self, cli_world, tmp_path,
                                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 2\nword_dim = 16\n")
        out = tmp_path / "run"
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(out), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown setting 'word_dim'\n"
        assert not out.exists()

    def test_verbose_prints_the_log_lines(self, cli_world, tmp_path, capsys):
        # The settings of ``cli_world``'s run, so the log is the same too.
        run = tmp_path / "run"
        capsys.readouterr()
        assert main([
            "train", "--corpus", str(cli_world["corpus"]),
            "--embeddings", str(cli_world["vectors"]), "--out", str(run),
            "--folds", "2", "--max-epochs", "2", "--batch-size", "8",
            "--hidden-size", "4", "--fc-size", "3", "--article-source-dim", "2",
            "--min-article-support", "1", "--seed", "3", "--verbose"]) == 0
        log = (run / "train_log.txt").read_text()
        assert log == (cli_world["run"] / "train_log.txt").read_text()
        printed = capsys.readouterr().out.splitlines()
        lines = log.splitlines()
        assert printed[:len(lines)] == lines
        assert [line.split(":")[0] for line in printed[len(lines):]] == [
            "mean macro_f1", "mean auc", "checkpoints and reports written to " + str(run)]

    def test_fold_keeps_only_sources_its_training_claims_support(self, tmp_path):
        support, seed = 4, 5
        instances, emb = planted_corpus(n_claims=24, n_articles=2, seed=7, dim=16)
        plan = corpus_mod.make_folds(instances, seed, n_folds=3)
        by_id = {inst.claim_id: inst for inst in instances}
        # Fold 0's test claims and training claims, one slot per article.
        test_slots = [(by_id[c], a) for c in plan.test_ids(0) for a in range(2)]
        train_slots = [(by_id[c], a) for c in plan.train_ids(0) for a in range(2)]
        placed = {"test-only": (support, 0), "test-lifted": (2, support - 1),
                  "trained": (0, support)}
        for source, (in_test, in_train) in placed.items():
            for _ in range(in_test):
                inst, a = test_slots.pop()
                inst.article_sources[a] = source
            for _ in range(in_train):
                inst, a = train_slots.pop()
                inst.article_sources[a] = source
        write_corpus_file(tmp_path / "corpus.jsonl", instances)
        write_embedding_file(tmp_path / "vectors.txt", emb)
        code = main(["train", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--embeddings", str(tmp_path / "vectors.txt"),
                     "--out", str(tmp_path / "run"), "--folds", "3",
                     "--max-epochs", "1", "--hidden-size", "2", "--fc-size", "2",
                     "--article-source-dim", "2",
                     "--min-article-support", str(support), "--seed", str(seed)])
        assert code == 0
        params, _ = load_checkpoint(tmp_path / "run" / "fold_00.ckpt")
        table = params.article_sources
        assert "trained" in table.sources
        assert table.index("trained") != table.fallback_index
        for source in ("test-only", "test-lifted"):
            assert source not in table.sources
            assert table.index(source) == table.fallback_index

    def test_unknown_preset_is_a_usage_error(self, cli_world, capsys):
        # argparse rejects a bad --preset flag itself, so the config-file
        # path is the one that must map to the usage exit code.
        cfg = cli_world["root"] / "bad.cfg"
        cfg.write_text("preset = wikinews\n")
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(cli_world["root"] / "x"),
                     "--config", str(cfg)])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["max_epochs = 2.5", "fc_size = 2.5",
                                      "batch_size = abc", "patience = many"])
    def test_wrong_typed_config_value_exits_one(self, cli_world, capsys, line):
        cfg = cli_world["root"] / "typed.cfg"
        cfg.write_text(line + "\n")
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(cli_world["root"] / "typed"),
                     "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert f"typed.cfg:1: {line.split()[0]} must be int" in err

    @pytest.mark.parametrize("argv", [
        ["--folds", "0"], ["--folds", "-2"], ["--vocab-limit", "0"],
        ["--vocab-limit", "-5"], ["--learning-rate", "0"], ["--learning-rate", "-1"],
        ["--seed", "-1"], ["--patience", "0"], ["--patience", "-3"],
        ["--l2-lambda", "-0.5"]])
    def test_setting_that_means_nothing_exits_one(self, cli_world, tmp_path, capsys,
                                                  argv):
        out = tmp_path / "run"
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(out), "--min-article-support", "1", *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[0][2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "seed = -1", "patience = 0", "patience = -3", "beta1 = 1.5", "beta1 = 1",
        "beta2 = 1", "epsilon = 0", "epsilon = -1", "dropout = 1", "l2_lambda = -0.5",
        "vocab_limit = 0"])
    def test_config_setting_that_means_nothing_exits_one(self, cli_world, tmp_path,
                                                         capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(out), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}:1: {line.split()[0]} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, flag", [
        ("beta1 = 1.5", None), ("dropout = 0.2", ["--dropout", "1"]),
        ("patience = 0", ["--patience", "-3"]), ("seed = -1", ["--seed", "-2"])])
    def test_config_refusal_names_the_line_unless_a_flag_set_it(
            self, cli_world, tmp_path, capsys, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\n\nfolds = 2\n" + line + "\n")
        code = main(["train", "--corpus", str(cli_world["corpus"]),
                     "--embeddings", str(cli_world["vectors"]),
                     "--out", str(tmp_path / "run"), "--config", str(cfg),
                     *(flag or [])])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        key = line.split()[0]
        where = "" if flag else f"{cfg}:4: "
        assert err.startswith(f"error: {where}{key} ")


class TestPredictCommand:
    def test_scores_every_claim(self, cli_world, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        code = main(["predict", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 12
        for record in lines:
            assert 0.0 < record["credibility"] < 1.0
            assert record["verdict"] in ("credible", "not credible")

    def test_scores_a_mixed_corpus_in_packed_passes(self, cli_world, tmp_path,
                                                     monkeypatch):
        # Articles of 1 to 1,700 tokens: claims share passes, and the
        # article over the budget takes a pass alone.
        instances, _ = planted_corpus(n_claims=9, n_articles=3, seed=8, dim=16)
        lengths = (1, 3, 12, 40, 150, 700, 1700, 5, 90)
        for n, inst in enumerate(instances):
            inst.article_texts = [" ".join((a * 150)[:lengths[(3 * n + k) % 9]])
                                  for k, a in enumerate(inst.articles)]
        corpus = tmp_path / "mixed.jsonl"
        write_corpus_file(corpus, instances)
        widths = []
        score_chunk = CredibilityModel.article_score

        def counted(model, pairs):
            widths.append(len(pairs))
            return score_chunk(model, pairs)

        monkeypatch.setattr(CredibilityModel, "article_score", counted)
        checkpoint = str(cli_world["run"] / "fold_00.ckpt")
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--checkpoint", checkpoint,
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(corpus), "--out", str(out)]) == 0
        scored = corpus_mod.ingest(str(corpus), require_label=False)
        charged = sorted(max(len(a), _SCORE_FLOOR) for i in scored for a in i.articles)
        assert len(widths) == len(_chunk_spans(charged, SCORE_TOKENS)) < len(scored)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == [inst.claim_id for inst in scored]
        model = _load_model(checkpoint, str(cli_world["vectors"]))
        for record, inst in zip(records, scored):
            assert abs(record["credibility"] - model.claim_score(inst)[0]) <= 1e-13

    def test_vocabulary_mismatch_is_refused(self, cli_world, tmp_path, capsys):
        other = make_embedding_file(tmp_path, ["alien", "words"], dim=16)
        code = main(["predict", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(other),
                     "--corpus", str(cli_world["corpus"]),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        assert "vocabulary does not match" in capsys.readouterr().err

    def test_malformed_checkpoint_exits_one_with_one_line(self, cli_world,
                                                          tmp_path, capsys):
        whole = (cli_world["run"] / "fold_00.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        for raw in (whole[:10], whole[:12] + b"\xff" + whole[13:], whole + b"junk"):
            bad.write_bytes(raw)
            code = main(["predict", "--checkpoint", str(bad),
                         "--embeddings", str(cli_world["vectors"]),
                         "--corpus", str(cli_world["corpus"]),
                         "--out", str(tmp_path / "p.jsonl")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_checkpoint_with_an_unnamed_array_exits_one_with_one_line(
            self, cli_world, tmp_path, capsys, monkeypatch, command):
        params, vocab_hash = load_checkpoint(cli_world["run"] / "fold_00.ckpt")
        named = ModelParams.named
        monkeypatch.setattr(ModelParams, "named", lambda self: {
            **named(self), "extra": Tensor(np.zeros((3, 3)))})
        save_checkpoint(tmp_path / "extra.ckpt", params, vocab_hash)
        monkeypatch.undo()
        code = main([command, "--checkpoint", str(tmp_path / "extra.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected bytes after the last array" in err

    def test_flipped_payload_byte_exits_one_with_one_line(self, cli_world,
                                                            tmp_path, capsys):
        raw = bytearray((cli_world["run"] / "fold_00.ckpt").read_bytes())
        raw[-1] ^= 0x01
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(raw))
        code = main(["predict", "--checkpoint", str(bad),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "digest does not match" in err


class TestEvalCommand:
    @pytest.fixture()
    def predictions(self, cli_world, tmp_path):
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--out", str(out)]) == 0
        return out

    def test_reports_metrics(self, cli_world, predictions, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["eval", "--corpus", str(cli_world["corpus"]),
                     "--pred", str(predictions), "--out", str(report_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        assert "AUC" in stdout
        report = json.loads(report_path.read_text())
        assert report["n"] == 12
        assert 0.0 <= report["accuracy"] <= 1.0

    # Each kind of prediction file evaluates, with no flag, to the report of
    # its own kind.
    @pytest.mark.parametrize("name, mode, keys", [
        ("score", "regress", ["mode", "mse", "n", "rmse"]),
        ("credibility", "classify",
         ["accuracy", "auc", "false_claims_accuracy", "macro_accuracy", "macro_f1",
          "mode", "n", "per_class_accuracy", "support", "true_claims_accuracy"]),
        ("probabilities", "classify",
         ["accuracy", "macro_accuracy", "macro_f1", "mode", "n",
          "per_class_accuracy", "support"])])
    def test_record_field_sets_the_report(self, cli_world, tmp_path, capsys,
                                          name, mode, keys):
        instances = cli_world["instances"]
        values = [(i % 5) / 4 for i in range(len(instances))]
        if name == "probabilities":
            values = [[0.25, 0.25, 0.5] if v == 0.5 else [0.5, 0.25, 0.25]
                      for v in values]
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(json.dumps({"id": inst.claim_id, name: value}) + "\n"
                                for inst, value in zip(instances, values)))
        out = tmp_path / "report.json"
        assert main(["eval", "--corpus", str(cli_world["corpus"]), "--pred", str(pred),
                     "--out", str(out)]) == 0
        expected = mode_report(mode, values, [inst.label for inst in instances])
        assert capsys.readouterr().out == expected.to_text() + "\n"
        report = json.loads(out.read_text())
        assert report == expected.to_kv() and sorted(report) == keys

    def test_missing_prediction_exits_one(self, cli_world, predictions,
                                          tmp_path, capsys):
        trimmed = tmp_path / "short.jsonl"
        lines = predictions.read_text().splitlines()
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        code = main(["eval", "--corpus", str(cli_world["corpus"]),
                     "--pred", str(trimmed)])
        assert code == 1
        assert "no prediction" in capsys.readouterr().err


    def test_prediction_missing_its_field_is_named(self, cli_world, predictions,
                                                   tmp_path, capsys):
        lines = predictions.read_text().splitlines()
        last = json.loads(lines[-1])["id"]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:-1] + [json.dumps({"id": last})]) + "\n")
        code = main(["eval", "--corpus", str(cli_world["corpus"]),
                     "--pred", str(broken)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == (f"error: {broken}: prediction {last}: "
                       "missing field 'credibility'")
        broken.write_text("\n".join(lines[:-1] + [json.dumps(
            {"id": last, "credibility": "high"})]) + "\n")
        assert main(["eval", "--corpus", str(cli_world["corpus"]),
                     "--pred", str(broken)]) == 1
        assert "field 'credibility' is not numeric" in capsys.readouterr().err


    @pytest.mark.parametrize("name, bad, literal", [
        ("credibility", "NaN", "NaN"), ("score", "NaN", "NaN"),
        ("score", "Infinity", "Infinity"), ("score", "-Infinity", "-Infinity"),
        ("probabilities", "[0.5, NaN, 0.5]", "NaN")])
    def test_non_standard_number_exits_one_naming_the_line(
            self, cli_world, tmp_path, capsys, name, bad, literal):
        good = {"credibility": "0.5", "score": "0.5",
                "probabilities": "[0.2, 0.3, 0.5]"}[name]
        pred = tmp_path / "p.jsonl"
        argv = ["eval", "--corpus", str(cli_world["corpus"]), "--pred", str(pred)]
        ids = [inst.claim_id for inst in cli_world["instances"]]
        for fourth in (good, bad):
            pred.write_text("".join(
                f'{{"id": "{cid}", "{name}": {fourth if i == 3 else good}}}\n'
                for i, cid in enumerate(ids)))
            code = main(argv)
            err = capsys.readouterr().err
            assert code == (0 if fourth == good else 1)
        assert err == f"error: {pred}:4: invalid JSON (non-standard number {literal})\n"


    @pytest.mark.parametrize("name, bad", [
        ("score", "1" + "0" * 400), ("score", "1e999"), ("credibility", "-1e999"),
        ("probabilities", "[0.2, 1e999, 0.5]")],
        ids=["401-digit-score", "1e999-score", "-1e999-credibility",
             "1e999-probability"])
    def test_number_no_float_holds_exits_one_naming_the_field(
            self, cli_world, tmp_path, capsys, name, bad):
        good = "[0.2, 0.3, 0.5]" if name == "probabilities" else "0.5"
        pred = tmp_path / "p.jsonl"
        ids = [inst.claim_id for inst in cli_world["instances"]]
        pred.write_text("".join(f'{{"id": "{cid}", "{name}": {bad if i == 3 else good}}}\n'
                                for i, cid in enumerate(ids)))
        code = main(["eval", "--corpus", str(cli_world["corpus"]), "--pred", str(pred)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {pred}: prediction {ids[3]}: "
            f"field {name!r} holds a number no float can hold\n")

    def test_ragged_probability_rows_exit_one_naming_the_prediction(
            self, cli_world, tmp_path, capsys):
        # [0.2, 0.8] then [0.9] would otherwise score as classes 1 and 0.
        pred = tmp_path / "p.jsonl"
        ids = [inst.claim_id for inst in cli_world["instances"]]
        pred.write_text("".join(
            json.dumps({"id": cid, "probabilities": [0.9] if i == 3 else [0.2, 0.8]}) + "\n"
            for i, cid in enumerate(ids)))
        assert main(["eval", "--corpus", str(cli_world["corpus"]), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pred}: prediction {ids[3]}: field 'probabilities' is a row "
            "of 1, the first prediction's of 2\n")

    def test_label_that_is_no_class_exits_one(self, cli_world, tmp_path, capsys):
        lines = cli_world["corpus"].read_text().splitlines()
        pred = tmp_path / "p.jsonl"
        corpus = tmp_path / "c.jsonl"
        pred.write_text("".join(json.dumps({"id": json.loads(line)["id"],
                                            "probabilities": [0.2, 0.3, 0.5]}) + "\n"
                                for line in lines))
        for label in (-1, 2.5):
            record = json.loads(lines[0])
            record["label"] = label
            corpus.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
            assert main(["eval", "--corpus", str(corpus), "--pred", str(pred)]) == 1
            assert capsys.readouterr().err == (
                f"error: class labels must be whole numbers from 0 up, got {label}\n")

    # A repeated id, and ids that differ only as JSON types, since ids are
    # compared as strings.
    @pytest.mark.parametrize("extra, line, rid", [
        (['{"id": "c003", "credibility": 0.5}'], 13, "c003"),
        (['{"id": 5, "credibility": 0.5}', '{"id": "5", "credibility": 0.5}'], 14, "5"),
    ], ids=["same-id", "int-and-string-id"])
    def test_duplicate_prediction_id_exits_one_naming_the_line(
            self, cli_world, predictions, tmp_path, capsys, extra, line, rid):
        pred = tmp_path / "dup.jsonl"
        pred.write_text(predictions.read_text() + "\n".join(extra) + "\n")
        assert main(["eval", "--corpus", str(cli_world["corpus"]),
                     "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pred}:{line}: second prediction for id {rid!r}\n")


class TestExplainCommand:
    def test_ansi_prints_annotations(self, cli_world, capsys):
        code = main(["explain", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"])])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("claim:") == 24  # 12 claims x 2 articles
        assert "verdict:" in stdout

    def test_html_needs_an_output_directory(self, cli_world, capsys):
        code = main(["explain", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--format", "html"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_html_writes_one_page_per_claim(self, cli_world, tmp_path):
        out = tmp_path / "html"
        code = main(["explain", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--format", "html", "--out", str(out)])
        assert code == 0
        pages = sorted(p.name for p in out.glob("*.html"))
        assert len(pages) == 12
        assert pages[0] == "c000.html"
        text = (out / "c000.html").read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "annotation" in text

    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b", "nul\0id"])
    def test_html_refuses_an_id_that_is_no_file_name(self, cli_world, tmp_path,
                                                     capsys, bad_id):
        records = [json.loads(line)
                   for line in cli_world["corpus"].read_text().splitlines()]
        records[5]["id"] = bad_id
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "pages" / "html"
        code = main(["explain", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(corpus), "--format", "html", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {corpus}: claim id {bad_id!r} cannot name an html page\n")
        assert not out.exists() and list(tmp_path.rglob("*.html")) == []

    def test_structured_and_projection_outputs(self, cli_world, tmp_path, capsys):
        out = tmp_path / "structured"
        csv_path = tmp_path / "projection.csv"
        code = main(["explain", "--checkpoint",
                     str(cli_world["run"] / "fold_00.ckpt"),
                     "--embeddings", str(cli_world["vectors"]),
                     "--corpus", str(cli_world["corpus"]),
                     "--format", "structured", "--out", str(out),
                     "--projection", str(csv_path)])
        assert code == 0
        lines = (out / "explanations.jsonl").read_text().splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert first["id"] == "c000"
        assert len(first["articles"]) == 2
        assert "weights" in first["articles"][0]
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "name,label,x,y"
        assert len(rows) == 1 + 24
        name, label, x, y = rows[1].split(",")
        assert name == "c000/0"
        float(x), float(y)  # parse back
        assert "of the variance" in capsys.readouterr().out


@pytest.fixture(scope="module")
def preset_world(tmp_path_factory):
    """A corpus with claim sources, an unlabeled copy of it, and its vectors."""
    root = tmp_path_factory.mktemp("presets")
    instances, emb = planted_corpus(n_claims=24, n_articles=2, with_claim_sources=True)
    world = {"corpus": root / "corpus.jsonl", "unlabeled": root / "unlabeled.jsonl",
             "vectors": root / "vectors.txt", "rows": len(emb.vocab.tokens)}
    write_corpus_file(world["corpus"], instances)
    write_corpus_file(world["unlabeled"],
                      [dataclasses.replace(inst, label=None) for inst in instances])
    write_embedding_file(world["vectors"], emb)
    return world


# Per preset: the fields of a prediction record besides its id, the eval
# report's mode and the number of classes it counts (None for regression),
# and the pattern of an explanation's verdict.
PRESET_OUTPUTS = {
    "snopes": ({"credibility", "verdict"}, "classify", 2, r"(not )?credible"),
    "politifact": ({"credibility", "verdict"}, "classify", 2, r"(not )?credible"),
    "newstrust": ({"score"}, "regress", None, r"score -?\d+\.\d{3}"),
    "semeval": ({"probabilities", "verdict", "confidence"}, "classify", 3, r"class [012]"),
}


class TestEveryPreset:
    """Every preset trains, predicts, evaluates and explains end to end."""

    @staticmethod
    def train(world, out, *argv):
        return main(["train", "--corpus", str(world["corpus"]),
                     "--embeddings", str(world["vectors"]), "--out", str(out),
                     "--folds", "2", "--max-epochs", "2", "--hidden-size", "4",
                     "--fc-size", "3", "--min-article-support", "1",
                     "--min-claim-support", "1", *argv])

    @pytest.mark.parametrize("preset", sorted(PRESET_OUTPUTS))
    def test_life_cycle(self, preset_world, tmp_path, capsys, preset):
        fields, mode, classes, verdict_pattern = PRESET_OUTPUTS[preset]
        run, preds, report = tmp_path / "run", tmp_path / "p.jsonl", tmp_path / "r.json"
        assert self.train(preset_world, run, "--preset", preset) == 0
        model_files = ["--checkpoint", str(run / "fold_00.ckpt"),
                       "--embeddings", str(preset_world["vectors"]),
                       "--corpus", str(preset_world["corpus"])]
        assert main(["predict", *model_files, "--out", str(preds)]) == 0
        records = [json.loads(line) for line in preds.read_text().splitlines()]
        assert len(records) == 24
        for record in records:
            assert set(record) == {"id"} | fields
            if "probabilities" in record:
                probs = record["probabilities"]
                assert len(probs) == 3 and abs(sum(probs) - 1.0) < 1e-9
                assert record["verdict"] == int(np.argmax(probs))
                assert record["confidence"] == max(probs)
        assert main(["eval", "--corpus", str(preset_world["corpus"]),
                     "--pred", str(preds), "--out", str(report)]) == 0
        kv = json.loads(report.read_text())
        assert kv["mode"] == mode and kv["n"] == 24
        assert ("mse" in kv) == (classes is None)
        assert ("auc" in kv) == (classes == 2)
        if classes is not None:
            assert len(kv["support"]) == classes
        assert main(["explain", *model_files, "--format", "structured",
                     "--out", str(tmp_path / "explained")]) == 0
        lines = (tmp_path / "explained" / "explanations.jsonl").read_text().splitlines()
        assert len(lines) == 24
        for line in lines:
            assert re.fullmatch(verdict_pattern, json.loads(line)["verdict"])

    def test_predict_and_explain_read_the_vocabulary_limit_from_the_checkpoint(
            self, preset_world, tmp_path, capsys):
        limit = preset_world["rows"] - 5
        run = tmp_path / "run"
        assert self.train(preset_world, run, "--vocab-limit", str(limit)) == 0
        checkpoint = str(run / "fold_00.ckpt")
        assert load_checkpoint(checkpoint)[0].hyper.vocab_limit == limit
        model_files = ["--checkpoint", checkpoint,
                       "--embeddings", str(preset_world["vectors"]),
                       "--corpus", str(preset_world["unlabeled"])]
        preds, csv_path = tmp_path / "p.jsonl", tmp_path / "map.csv"
        assert main(["predict", *model_files, "--out", str(preds)]) == 0
        assert main(["explain", *model_files, "--format", "structured",
                     "--out", str(tmp_path / "explained"),
                     "--projection", str(csv_path)]) == 0
        model = _load_model(checkpoint, str(preset_world["vectors"]))
        assert len(model.word_embeddings.vocab.tokens) == limit
        unlabeled = corpus_mod.ingest(str(preset_world["unlabeled"]), require_label=False)
        records = [json.loads(line) for line in preds.read_text().splitlines()]
        assert [r["credibility"] for r in records] == model.score_claims(unlabeled)
        # Unlabeled claims are labeled by their verdicts in the projection.
        verdicts = {r["id"]: r["verdict"] for r in records}
        rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 48
        assert all(label == verdicts[name.split("/")[0]] for name, label, _, _ in rows)


# Flags README.md may name that no subcommand has: pip's, and the
# ``--key-name`` pattern that stands for every train setting.
NOT_EVICRED_FLAGS = {"--no-build-isolation", "--key-name"}


def test_readme_names_only_flags_the_cli_accepts():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme.read_text(encoding="utf-8")))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {flag for action in command._actions for flag in action.option_strings}
             for name, command in commands.items()}
    assert named - set().union(*flags.values()) - NOT_EVICRED_FLAGS == set()
    # And README names every flag but help; train's are its config keys,
    # named through the ``--key-name`` rule.
    for name in ("ingest", "predict", "eval", "explain", "gradcheck"):
        assert flags[name] - named - {"-h", "--help"} == set(), name


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_gradcheck_negative_seed_exits_one(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_in_subprocess(argv, threads):
    """``argv`` in a fresh interpreter, each BLAS variable unset or set to
    ``threads``, with this package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if threads is not None:
        env.update(dict.fromkeys(BLAS_THREADS, threads))
    env["PYTHONPATH"] = os.pathsep.join([str(Path(evicred.__file__).resolve().parents[1]),
                                         *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_training_writes_the_same_bytes_without_a_blas_setting(tmp_path):
    # Twelve claims of three 100-token articles and 2 folds: chunks of 8
    # pairs and narrower ones, with products big enough that OpenBLAS
    # may use more than one thread.  Without the package's one-thread
    # default, a 2-core machine writes a different fold_00.ckpt.
    rng = np.random.default_rng(0)
    words = [f"w{i:02d}" for i in range(60)]
    vectors = make_embedding_file(tmp_path, words, dim=50)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({
        "id": f"c{i}", "claim": " ".join(rng.choice(words, 6)), "label": i % 2,
        "articles": [{"text": " ".join(rng.choice(words, 100)), "source": "s"}
                     for _ in range(3)]}) + "\n" for i in range(12)))
    written = []
    for threads in (None, "1"):
        out = tmp_path / f"run_{threads}"
        run_in_subprocess(["-m", "evicred.cli", "train", "--corpus", str(corpus),
                           "--embeddings", str(vectors), "--out", str(out),
                           "--preset", "snopes", "--folds", "2", "--max-epochs", "1",
                           "--seed", "0", "--min-article-support", "1"], threads)
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert list(written[0]) == ["fold_00.ckpt", "fold_01.ckpt", "metrics.json",
                                "train_log.txt"]
    assert written[0] == written[1]


def test_blas_threads_default_to_one_and_a_setting_wins():
    code = f"import os, evicred; print(*(os.environ.get(k) for k in {BLAS_THREADS!r}))"
    assert run_in_subprocess(["-c", code], "2").split() == ["2", "2", "2"]
    assert run_in_subprocess(["-c", code], None).split() == ["1", "1", "1"]


def test_bad_checkpoint_path_exits_one(tmp_path, capsys):
    vectors = make_embedding_file(tmp_path, ["a"], dim=4)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({
        "id": "x", "claim": "a claim", "label": 1,
        "articles": [{"text": "a", "source": "s"}]}) + "\n")
    code = main(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                 "--embeddings", str(vectors), "--corpus", str(corpus),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["corpus", "vectors", "config", "predictions",
                                    "blocklist"])
def test_non_utf8_input_exits_one_naming_the_file(tmp_path, capsys, reader):
    instances, emb = planted_corpus(n_claims=3, n_articles=1)
    corpus = tmp_path / "in.jsonl"
    vectors = tmp_path / "v.txt"
    write_corpus_file(corpus, instances)
    write_embedding_file(vectors, emb)
    bad = tmp_path / f"{reader}.bin"
    bad.write_bytes(b"caf\xe9\n")
    out = str(tmp_path / "out")
    argv = {
        "corpus": ["ingest", "--in", str(bad), "--out", out],
        "vectors": ["ingest", "--in", str(corpus), "--out", out,
                    "--embeddings", str(bad)],
        "config": ["train", "--corpus", str(corpus), "--embeddings", str(vectors),
                   "--out", out, "--config", str(bad)],
        "predictions": ["eval", "--corpus", str(corpus), "--pred", str(bad)],
        "blocklist": ["ingest", "--in", str(corpus), "--out", out,
                      "--blocklist", str(bad)],
    }[reader]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: not UTF-8 text (invalid continuation byte)\n")


class TestFuzzedReaders:
    """Mutated config, prediction, corpus and word-vector files: each either
    loads or fails with a typed error, and the command then exits 1 with one
    line, no traceback."""

    # What a mutation may put in place of a value, as config text and as JSON.
    CONFIG_VALUES = ["nan", "inf", "abc", "true", "[[1, 2], [3]]"]
    JSON_VALUES = ["NaN", "Infinity", '"abc"', "true", "[[0.5], [0.5, 1]]"]

    @staticmethod
    def mutate(data, lines: list[bytes], replace) -> bytes:
        """Drop, duplicate, truncate or rewrite lines, or insert bad bytes."""
        st = pytest.importorskip("hypothesis").strategies
        lines = list(lines)
        for _ in range(data.draw(st.integers(1, 3))):
            if not lines:
                break
            i = data.draw(st.integers(0, len(lines) - 1))
            kind = data.draw(st.sampled_from(
                ["drop", "duplicate", "truncate", "replace", "bytes"]))
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "truncate":
                lines[i] = lines[i][:data.draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
            elif kind == "replace":
                lines[i] = replace(data, lines[i])
            else:
                at = data.draw(st.integers(0, len(lines[i])))
                bad = data.draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3(", b"\x80"]))
                lines[i] = lines[i][:at] + bad + lines[i][at:]
        return b"".join(line if line.endswith(b"\n") else line + b"\n"
                        for line in lines)

    def test_mutated_config_loads_or_exits_one(self, cli_world, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        base = [b"preset = politifact\n", b"hidden_size = 4  # small\n",
                b"dropout = 0.25\n", b"learning_rate = 0.01\n", b"folds = 3\n",
                b"claim_source_dim = none\n", b"mode = classify\n"]
        cfg = tmp_path / "fuzz.cfg"
        argv = ["train", "--corpus", str(cli_world["corpus"]),
                "--embeddings", str(cli_world["vectors"]),
                "--out", str(tmp_path / "run"), "--config", str(cfg)]

        def replace(data, line):
            key = line.split(b"=", 1)[0]
            value = data.draw(st.sampled_from(self.CONFIG_VALUES))
            return key + b"= " + value.encode() + b"\n"

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(st.data())
        def check(data):
            cfg.write_bytes(self.mutate(data, base, replace))
            try:
                _config_lines(str(cfg))
            except EvicredError as e:
                assert main(argv) == 1
                assert capsys.readouterr().err == f"error: {e}\n"
                return
            try:
                settings_for(["--config", str(cfg)])
            except EvicredError:
                pass

        check()

    def test_mutated_predictions_evaluate_or_exit_one(self, cli_world, tmp_path,
                                                      capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ids = [inst.claim_id for inst in cli_world["instances"]]
        fields = {"classify": {"credibility": 0.75, "verdict": "credible"},
                  "regress": {"score": 0.25}}
        multi = {"probabilities": [0.25, 0.5, 0.25], "verdict": 1}
        pred = tmp_path / "fuzz.jsonl"

        def replace(data, line):
            try:
                record = json.loads(line)
            except ValueError:  # already mutated past JSON
                return line
            if not isinstance(record, dict) or not record:
                return line
            key = data.draw(st.sampled_from(sorted(record)))
            record[key] = "\0"
            value = data.draw(st.sampled_from(self.JSON_VALUES))
            return json.dumps(record).replace('"\\u0000"', value).encode()

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(st.data())
        def check(data):
            mode = data.draw(st.sampled_from(["classify", "regress"]))
            record = multi if mode == "classify" and data.draw(st.booleans()) \
                else fields[mode]
            base = [json.dumps({"id": cid, **record}).encode() + b"\n"
                    for cid in ids]
            pred.write_bytes(self.mutate(data, base, replace))
            code = main(["eval", "--corpus", str(cli_world["corpus"]),
                         "--pred", str(pred)])
            captured = capsys.readouterr()
            if code == 0:
                assert captured.err == "" and "claims: 12" in captured.out
            else:
                assert code == 1
                assert captured.err.startswith("error: ")
                assert captured.err.count("\n") == 1

        check()

    def test_mutated_corpus_ingests_or_exits_one(self, cli_world, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        base = cli_world["corpus"].read_bytes().splitlines(keepends=True)[:4]
        ids = [json.loads(line)["id"] for line in base]
        values = ["null", "{}", '[{"text": 7}]', '""'] + self.JSON_VALUES
        labels = ["-1", "2.5", "1" + "0" * 401, "1e999", "0", "2"]
        corpus = tmp_path / "fuzz.jsonl"
        preds = {"binary": tmp_path / "binary.jsonl", "multi": tmp_path / "multi.jsonl"}
        for kind, field in (("binary", {"credibility": 0.75}),
                            ("multi", {"probabilities": [0.5, 0.25, 0.25]})):
            preds[kind].write_text("".join(json.dumps({"id": cid, **field}) + "\n"
                                           for cid in ids))

        def replace(data, line, key=None, pool=values):
            try:
                record = json.loads(line)
            except ValueError:  # already mutated past JSON
                return line
            if not isinstance(record, dict) or not record:
                return line
            target = record
            articles = record.get("articles")
            if key is None and isinstance(articles, list) and articles \
                    and isinstance(articles[0], dict) and data.draw(st.booleans()):
                target = articles[0]
            key = key or data.draw(st.sampled_from(sorted(target)))
            target[key] = "\0"
            value = data.draw(st.sampled_from(pool))
            return json.dumps(record).replace('"\\u0000"', value).encode() + b"\n"

        def exits_zero_or_one(argv, error=None):
            """Exit 0 silently, or exit 1 with one line; with ``error``, the latter."""
            code = main(argv)
            err = capsys.readouterr().err
            if code == 0:
                assert error is None and err == ""
                return
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
            assert error is None or err == f"error: {error}\n"

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(st.data())
        def check(data):
            # Labels reach the metrics as well as the reader: every example
            # rewrites one, and half of them mutate nothing else.
            lines = list(base)
            i = data.draw(st.integers(0, len(lines) - 1))
            lines[i] = replace(data, lines[i], "label", labels)
            corpus.write_bytes(self.mutate(data, lines, replace)
                               if data.draw(st.booleans()) else b"".join(lines))
            argv = ["ingest", "--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
            try:
                corpus_mod.ingest(str(corpus))
            except EvicredError as e:
                exits_zero_or_one(argv, e)
                return
            exits_zero_or_one(argv)
            kind = data.draw(st.sampled_from(sorted(preds)))
            exits_zero_or_one(["eval", "--corpus", str(corpus), "--pred", str(preds[kind])])

        check()

    def test_mutated_vectors_load_or_exit_one(self, cli_world, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        base = cli_world["vectors"].read_bytes().splitlines(keepends=True)[:6]
        values = [b"nan", b"inf", b"-inf", b"1e999", b"abc", b"1,5", b"", b"0x10",
                  b"1e-400", b"0.5 0.5"]
        vectors = tmp_path / "fuzz.txt"
        argv = ["ingest", "--in", str(cli_world["corpus"]),
                "--out", str(tmp_path / "out.jsonl"),
                "--embeddings", str(vectors)]

        def replace(data, line):
            fields = line.split()
            if not fields:
                return line
            i = data.draw(st.integers(0, len(fields) - 1))
            fields[i] = data.draw(st.sampled_from(values))
            return b" ".join(fields) + b"\n"

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(st.data())
        def check(data):
            vectors.write_bytes(self.mutate(data, base, replace))
            try:
                load_word_vectors(str(vectors))
            except EvicredError as e:
                assert main(argv) == 1
                assert capsys.readouterr().err == f"error: {e}\n"
                return
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            assert captured.out.startswith("claims=")

        check()

    @staticmethod
    def any_json():
        """Any JSON value, NaN and the infinities included."""
        st = pytest.importorskip("hypothesis").strategies
        scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                   | st.text(max_size=6))
        return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                            max_leaves=6)

    def test_any_json_in_a_corpus_field_loads_uncoerced_or_exits_one(
            self, cli_world, tmp_path, capsys):
        # A field swapped for any JSON value loads only as the JSON type it
        # must have, never coerced to text; otherwise the reader and the
        # command refuse it with the same one line.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        lines = cli_world["corpus"].read_text().splitlines()[:3]
        kinds = {"id": (str, int), "claim": str, "claim_source": (str, type(None)),
                 "text": str, "source": str}
        corpus = tmp_path / "swapped.jsonl"
        argv = ["ingest", "--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data(), self.any_json())
        def check(data, value):
            records = [json.loads(line) for line in lines]
            record = records[data.draw(st.integers(0, len(records) - 1))]
            target = record["articles"][0] if data.draw(st.booleans()) else record
            key = data.draw(st.sampled_from(sorted(target)))
            target[key] = value
            corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
            try:
                corpus_mod.ingest(str(corpus))
            except EvicredError as e:
                assert main(argv) == 1
                assert capsys.readouterr().err == f"error: {e}\n"
                return
            if key in kinds:
                assert isinstance(value, kinds[key]) and not isinstance(value, bool)
            assert main(argv) == 0 and capsys.readouterr().err == ""

        check()

    def test_any_json_in_a_prediction_field_evaluates_or_exits_one(
            self, cli_world, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ids = [inst.claim_id for inst in cli_world["instances"]]
        pred = tmp_path / "swapped.jsonl"
        argv = ["eval", "--corpus", str(cli_world["corpus"]), "--pred", str(pred)]

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data(), self.any_json())
        def check(data, value):
            records = [{"id": cid, "credibility": 0.75, "verdict": "credible"}
                       for cid in ids]
            record = records[data.draw(st.integers(0, len(records) - 1))]
            key = data.draw(st.sampled_from(sorted(record)))
            record[key] = value
            pred.write_text("".join(json.dumps(r) + "\n" for r in records))
            try:
                _read_predictions(str(pred))
            except EvicredError as e:
                assert main(argv) == 1
                assert capsys.readouterr().err == f"error: {e}\n"
                return
            if key == "id":
                assert isinstance(value, (str, int)) and not isinstance(value, bool)
            code = main(argv)
            err = capsys.readouterr().err
            if code == 0:
                assert err == ""
            else:
                assert code == 1 and err.startswith("error: ") and err.count("\n") == 1

        check()
