"""Command-line behavior: settings layering, the full life cycle, exit codes.

One small training run is shared by the predict/eval/explain tests; it
uses 2 folds and 2 epochs so the whole module stays fast.
"""
import json

import pytest

from evicred.cli import (
    PRESETS,
    build_parser,
    load_config,
    main,
    resolve_input,
    resolve_train_settings,
)
from evicred.errors import ParseError
from evicred.model import load_checkpoint
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
        assert s.hyper.word_dim == 100
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
        assert s.hyper.word_dim == 300
        assert s.hyper.fc_size == 64
        assert s.hyper.dropout == 0.3

    def test_semeval_preset_is_three_way(self):
        s = settings_for(["--preset", "semeval"])
        assert s.hyper.classes == 3
        assert s.hyper.hidden_size == 16
        assert (s.min_claim_support, s.min_article_support) == (5, 5)

    def test_defaults_without_preset(self):
        s = settings_for([])
        assert s.hyper.word_dim == 100
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
                          "--no-claim-sources"])
        assert s.hyper.hidden_size == 4
        assert s.hyper.claim_source_dim is None

    def test_explicit_preset_beats_config_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = snopes\n")
        s = settings_for(["--config", str(cfg), "--preset", "semeval"])
        assert s.hyper.classes == 3

    def test_preset_catalog_is_complete(self):
        assert sorted(PRESETS) == ["newstrust", "politifact", "semeval", "snopes"]


class TestLoadConfig:
    def test_parses_types(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("max_epochs = 7\ndropout = 0.25\n"
                       "claim_source_dim = none\nmode = regress\n")
        got = load_config(cfg)
        assert got == {"max_epochs": 7, "dropout": 0.25,
                       "claim_source_dim": None, "mode": "regress"}

    def test_unknown_key_raises(self, tmp_path):
        # ``delta`` belongs to ``ingest --delta``; training never reads it.
        cfg = tmp_path / "a.cfg"
        for key, value in (("momentum", "0.9"), ("delta", "0.3")):
            cfg.write_text(f"{key} = {value}\n")
            with pytest.raises(ParseError, match=key):
                load_config(cfg)

    def test_line_without_equals_raises(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ParseError, match=r"a\.cfg:1"):
            load_config(cfg)


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
        instances, _ = planted_corpus(n_claims=3, n_articles=1)
        src = tmp_path / "in.jsonl"
        write_corpus_file(src, instances)
        code = main(["ingest", "--in", str(src), "--out",
                     str(tmp_path / "o.jsonl"), "--snippets"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_snippet_extraction_runs_end_to_end(self, tmp_path, capsys):
        instances, emb = planted_corpus(n_claims=4, n_articles=2)
        src = tmp_path / "in.jsonl"
        vectors = tmp_path / "v.txt"
        out = tmp_path / "out.jsonl"
        write_corpus_file(src, instances)
        write_embedding_file(vectors, emb)
        code = main(["ingest", "--in", str(src), "--out", str(out),
                     "--snippets", "--embeddings", str(vectors),
                     "--delta=-1.0"])
        assert code == 0
        assert "claims=4" in capsys.readouterr().out

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


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


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
        "vectors": ["ingest", "--in", str(corpus), "--out", out, "--snippets",
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
