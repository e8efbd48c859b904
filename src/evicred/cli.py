"""Command-line front end.

Subcommands cover the whole life cycle: ``ingest`` prepares a corpus
(snippet extraction, label mapping, blocklists), ``train`` runs
cross-validated training and writes checkpoints, ``predict`` scores new
claims, ``eval`` reports metrics for stored predictions, ``explain``
renders attention highlights and projections, and ``gradcheck`` verifies
the gradient machinery.  Relative input paths resolve against
$EVICRED_DATA_DIR when it is set.  Exit codes: 0 success, 1 data or I/O
failure, 2 usage.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import training as training_mod
from .embeddings import build_source_table, load_word_vectors
from .errors import EvicredError, ParseError, UsageError
from .explain import annotate, pca_project, render
from .metrics import classification_report, multiclass_report, regression_report
from .model import (
    CredibilityModel,
    Hyperparams,
    load_checkpoint,
    save_checkpoint,
    verdict,
)

DATA_DIR_ENV = "EVICRED_DATA_DIR"

# Per-dataset defaults: embedding width, source-embedding widths, layer
# sizes, dropout, output head, and the support thresholds below which a
# source collapses into the shared fallback row.
PRESETS: dict[str, dict] = {
    "snopes": dict(
        hyper=dict(word_dim=100, hidden_size=64, fc_size=32,
                   article_source_dim=8, claim_source_dim=None, dropout=0.5,
                   mode="classify", classes=2),
        min_claim_support=5, min_article_support=10),
    "politifact": dict(
        hyper=dict(word_dim=100, hidden_size=64, fc_size=32,
                   article_source_dim=4, claim_source_dim=4, dropout=0.5,
                   mode="classify", classes=2),
        min_claim_support=5, min_article_support=10),
    "newstrust": dict(
        hyper=dict(word_dim=300, hidden_size=64, fc_size=64,
                   article_source_dim=8, claim_source_dim=8, dropout=0.3,
                   mode="regress", classes=2),
        min_claim_support=5, min_article_support=10),
    "semeval": dict(
        hyper=dict(word_dim=100, hidden_size=16, fc_size=8,
                   article_source_dim=4, claim_source_dim=4, dropout=0.3,
                   mode="classify", classes=3),
        min_claim_support=5, min_article_support=5),
}

_HYPER_KEYS = tuple(f.name for f in dataclasses.fields(Hyperparams))
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(training_mod.TrainConfig))
_OTHER_KEYS = ("preset", "min_claim_support", "min_article_support", "folds",
               "vocab_limit")


def resolve_input(path: str) -> str:
    """Relative inputs live under $EVICRED_DATA_DIR when that is set."""
    base = os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate) or not os.path.exists(path):
            return candidate
    return path


def _parse_value(raw: str):
    lowered = raw.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw.strip()


def load_config(path: str) -> dict:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    settings: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in _HYPER_KEYS + _CONFIG_KEYS + _OTHER_KEYS:
                raise ParseError(f"{path}:{lineno}: unknown setting {key!r}")
            settings[key] = _parse_value(raw)
    return settings


@dataclasses.dataclass
class TrainSettings:
    hyper: Hyperparams
    config: training_mod.TrainConfig
    min_claim_support: int
    min_article_support: int
    folds: int
    vocab_limit: int | None


def resolve_train_settings(args) -> TrainSettings:
    """Layer the knobs: preset, then config file, then explicit flags."""
    settings: dict = {}
    preset_name = getattr(args, "preset", None)
    file_settings: dict = {}
    if getattr(args, "config", None):
        file_settings = load_config(resolve_input(args.config))
        preset_name = preset_name or file_settings.get("preset")
    hyper_kw: dict = {}
    extras = {"min_claim_support": 5, "min_article_support": 10}
    if preset_name:
        if preset_name not in PRESETS:
            raise UsageError(f"unknown preset {preset_name!r}; "
                             f"choose from {sorted(PRESETS)}")
        preset = PRESETS[preset_name]
        hyper_kw.update(preset["hyper"])
        extras["min_claim_support"] = preset["min_claim_support"]
        extras["min_article_support"] = preset["min_article_support"]
    config_kw: dict = {}
    for key, value in file_settings.items():
        if key == "preset":
            continue
        if key in _HYPER_KEYS:
            hyper_kw[key] = value
        elif key in _CONFIG_KEYS:
            config_kw[key] = value
        else:
            extras[key] = value
    for key in _HYPER_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            hyper_kw[key] = flag
    if getattr(args, "no_claim_sources", False):
        hyper_kw["claim_source_dim"] = None
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            config_kw[key] = flag
    for key in ("min_claim_support", "min_article_support", "folds", "vocab_limit"):
        flag = getattr(args, key, None)
        if flag is not None:
            extras[key] = flag
    hyper_kw.setdefault("word_dim", 100)
    hyper_kw.setdefault("hidden_size", 64)
    hyper_kw.setdefault("fc_size", 32)
    hyper_kw.setdefault("article_source_dim", 8)
    return TrainSettings(
        hyper=Hyperparams(**hyper_kw),
        config=training_mod.TrainConfig(**config_kw),
        min_claim_support=int(extras["min_claim_support"]),
        min_article_support=int(extras["min_article_support"]),
        folds=int(extras.get("folds", 10)),
        vocab_limit=(int(extras["vocab_limit"])
                     if extras.get("vocab_limit") is not None else None),
    )


def _load_blocklist(path: str | None) -> set[str]:
    if not path:
        return set()
    with open(resolve_input(path), "r", encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


# --- commands ----------------------------------------------------------------

def _cmd_ingest(args) -> int:
    blocklist = _load_blocklist(args.blocklist)
    instances = corpus_mod.ingest(
        resolve_input(args.input),
        label_scheme=args.label_scheme,
        blocklist=blocklist,
        require_label=not args.allow_unlabeled,
    )
    dropped = 0
    if args.snippets:
        if not args.embeddings:
            raise UsageError("--snippets needs --embeddings for semantic scoring")
        _, emb = load_word_vectors(resolve_input(args.embeddings),
                                   vocab_limit=args.vocab_limit)
        kept_instances = []
        for inst in instances:
            articles, texts, sources = [], [], []
            for tokens, source in zip(inst.articles, inst.article_sources):
                snip = corpus_mod.extract_snippet(inst.claim_tokens, tokens, emb,
                                                  delta=args.delta)
                if snip is None:
                    continue
                articles.append(snip.tokens)
                texts.append(" ".join(snip.tokens))
                sources.append(source)
            if not articles:
                dropped += 1
                continue
            inst.articles, inst.article_texts, inst.article_sources = \
                articles, texts, sources
            kept_instances.append(inst)
        instances = kept_instances
    corpus_mod.write_corpus(instances, args.out)
    n_articles = sum(len(i.articles) for i in instances)
    sources = {s for i in instances for s in i.article_sources}
    print(f"claims={len(instances)} articles={n_articles} "
          f"article_sources={len(sources)} dropped={dropped}")
    return 0


def _prepare_training_world(args, settings: TrainSettings):
    instances = corpus_mod.ingest(resolve_input(args.corpus))
    vocab, emb = load_word_vectors(resolve_input(args.embeddings),
                                   vocab_limit=settings.vocab_limit,
                                   dtype=settings.config.dtype)
    if emb.dim != settings.hyper.word_dim:
        # The preset names a recommended vector width; the file wins.
        settings.hyper = dataclasses.replace(settings.hyper, word_dim=emb.dim)
    claim_counts, article_counts = corpus_mod.source_counts(instances)
    table_rng = np.random.default_rng((settings.config.seed, 101))
    article_table = build_source_table(
        article_counts, settings.min_article_support,
        settings.hyper.article_source_dim, table_rng, "article_source_table",
        settings.config.dtype)
    claim_table = None
    if settings.hyper.claim_source_dim is not None:
        claim_table = build_source_table(
            claim_counts, settings.min_claim_support,
            settings.hyper.claim_source_dim, table_rng, "claim_source_table",
            settings.config.dtype)
    return instances, vocab, emb, article_table, claim_table


def _cmd_train(args) -> int:
    settings = resolve_train_settings(args)
    instances, vocab, emb, article_table, claim_table = \
        _prepare_training_world(args, settings)
    plan = corpus_mod.make_folds(instances, settings.config.seed,
                                 n_folds=settings.folds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = []

    def progress(line: str) -> None:
        log_lines.append(line)
        if args.verbose:
            print(line)

    outcomes = training_mod.train(
        instances, plan, settings.hyper, settings.config, emb,
        article_table, claim_table, progress=progress)

    vocab_hash = vocab.content_hash()
    fold_reports = []
    for outcome in outcomes:
        save_checkpoint(str(out_dir / f"fold_{outcome.fold:02d}.ckpt"),
                        outcome.params, vocab_hash)
        entry = {"fold": outcome.fold, "best_epoch": outcome.best_epoch}
        entry.update(outcome.report.to_kv())
        fold_reports.append(entry)
    numeric_keys = sorted({
        key for entry in fold_reports for key, value in entry.items()
        if isinstance(value, (int, float)) and key not in ("fold", "best_epoch")
    })
    mean_report = {
        key: float(np.mean([e[key] for e in fold_reports if e.get(key) is not None]))
        for key in numeric_keys
        if any(e.get(key) is not None for e in fold_reports)
    }
    summary = {"folds": fold_reports, "mean": mean_report,
               "n_claims": len(instances)}
    (out_dir / "metrics.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out_dir / "train_log.txt").write_text(
        "\n".join(log_lines) + "\n", encoding="utf-8")
    for key in ("macro_f1", "auc", "mse"):
        if key in mean_report:
            print(f"mean {key}: {mean_report[key]:.4f}")
    print(f"checkpoints and reports written to {out_dir}")
    return 0


def _load_model(checkpoint_path: str, embeddings_path: str,
                vocab_limit: int | None):
    params, vocab_hash = load_checkpoint(resolve_input(checkpoint_path))
    vocab, emb = load_word_vectors(resolve_input(embeddings_path),
                                   vocab_limit=vocab_limit,
                                   dtype=params.head_w.data.dtype)
    if vocab.content_hash() != vocab_hash:
        raise EvicredError(
            f"{embeddings_path}: vocabulary does not match the checkpoint; "
            "pass the embedding file used for training")
    return CredibilityModel(params.hyper, params, emb)


def _cmd_predict(args) -> int:
    model = _load_model(args.checkpoint, args.embeddings, args.vocab_limit)
    instances = corpus_mod.ingest(resolve_input(args.corpus), require_label=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst in instances:
            cred, _ = model.claim_score(inst)
            if model.hyper.mode == "regress":
                record = {"id": inst.claim_id, "score": float(cred)}
            elif model.hyper.classes == 2:
                record = {"id": inst.claim_id, "credibility": float(cred),
                          "verdict": "credible" if verdict(float(cred))
                          else "not credible"}
            else:
                probs = [float(p) for p in cred]
                record = {"id": inst.claim_id, "probabilities": probs,
                          "verdict": int(np.argmax(probs)),
                          "confidence": float(max(probs))}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"scored {len(instances)} claims into {args.out}")
    return 0


def _read_predictions(path: str) -> dict[str, dict]:
    preds: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
            if not isinstance(record, dict) or "id" not in record:
                raise ParseError(f"{path}:{lineno}: prediction without an id")
            preds[str(record["id"])] = record
    return preds


def _cmd_eval(args) -> int:
    instances = corpus_mod.ingest(resolve_input(args.corpus))
    preds = _read_predictions(resolve_input(args.pred))
    missing = [i.claim_id for i in instances if i.claim_id not in preds]
    if missing:
        raise EvicredError(f"{args.pred}: no prediction for claims {missing[:3]}")
    labels = [inst.label for inst in instances]
    records = [preds[inst.claim_id] for inst in instances]

    def field(name: str) -> list:
        """The named field of every record: a number, or for
        ``probabilities`` a non-empty list of numbers."""
        values = []
        for r in records:
            if name not in r:
                raise ParseError(f"{args.pred}: prediction {r['id']}: "
                                 f"missing field {name!r}")
            value = r[name]
            items = value if name == "probabilities" and value else [value]
            if not isinstance(items, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in items):
                raise ParseError(f"{args.pred}: prediction {r['id']}: "
                                 f"field {name!r} is not numeric")
            values.append(value)
        return values

    if args.mode == "regress":
        report = regression_report([float(v) for v in field("score")],
                                   [float(t) for t in labels])
    elif records and "probabilities" in records[0]:
        probs = field("probabilities")
        picked = [int(np.argmax(p)) for p in probs]
        classes = max(len(probs[0]), max(int(t) for t in labels) + 1)
        report = multiclass_report(picked, [int(t) for t in labels], classes)
    else:
        report = classification_report([float(v) for v in field("credibility")],
                                       [int(t) for t in labels])
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_kv(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


def _verdict_text(model: CredibilityModel, cred) -> str:
    if model.hyper.mode == "regress":
        return f"score {float(cred):.3f}"
    if model.hyper.classes == 2:
        return "credible" if verdict(float(cred)) else "not credible"
    return f"class {int(np.argmax(cred))}"


def _cmd_explain(args) -> int:
    model = _load_model(args.checkpoint, args.embeddings, args.vocab_limit)
    instances = corpus_mod.ingest(resolve_input(args.corpus), require_label=False)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.format != "ansi" and out_dir is None:
        raise UsageError(f"--format {args.format} needs --out DIR")

    structured_lines = []
    vector_rows, vector_names, vector_labels = [], [], []
    for inst in instances:
        cred, traces = model.claim_score(inst)
        verdict_str = _verdict_text(model, cred)
        annotations = [
            annotate(trace, verdict_str, inst.claim_text, source)
            for trace, source in zip(traces, inst.article_sources)
        ]
        for i, trace in enumerate(traces):
            vector_rows.append(trace.article_vec)
            vector_names.append(f"{inst.claim_id}/{i}")
            if inst.label is not None:
                vector_labels.append(str(inst.label))
            else:
                vector_labels.append(verdict_str)
        if args.format == "ansi":
            for ann in annotations:
                print(render(ann, "ansi"))
                print()
        elif args.format == "html":
            body = "\n".join(render(ann, "html") for ann in annotations)
            page = ("<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
                    f"<title>{inst.claim_id}</title></head><body>\n"
                    f"{body}\n</body></html>\n")
            (out_dir / f"{inst.claim_id}.html").write_text(page, encoding="utf-8")
        else:
            structured_lines.append(json.dumps({
                "id": inst.claim_id,
                "verdict": verdict_str,
                "articles": [json.loads(render(ann, "structured"))
                             for ann in annotations],
            }, sort_keys=True))
    if args.format == "structured":
        (out_dir / "explanations.jsonl").write_text(
            "\n".join(structured_lines) + "\n", encoding="utf-8")

    if args.projection:
        projection = pca_project(np.asarray(vector_rows), vector_names,
                                 vector_labels)
        with open(args.projection, "w", encoding="utf-8") as fh:
            fh.write("name,label,x,y\n")
            for x, y, label, name in projection.points:
                fh.write(f"{name},{label},{x!r},{y!r}\n")
        print(f"projection explains "
              f"{projection.explained[0] + projection.explained[1]:.3f} "
              f"of the variance")
    return 0


def _cmd_gradcheck(args) -> int:
    worst = training_mod.gradient_check(seed=args.seed)
    print(f"max relative gradient error: {worst:.3e}")
    if worst >= 1e-4:
        print("gradient check FAILED (threshold 1e-4)", file=sys.stderr)
        return 1
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evicred",
        description="Evidence-aware credibility assessment for claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate and prepare a corpus")
    ingest.add_argument("--in", dest="input", required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--snippets", action="store_true",
                        help="replace articles by their best claim-matching window")
    ingest.add_argument("--embeddings")
    ingest.add_argument("--delta", type=float, default=0.5,
                        help="minimum window relevance (default 0.5)")
    ingest.add_argument("--blocklist", help="file of source names to drop")
    ingest.add_argument("--label-scheme", choices=["politifact"], default=None)
    ingest.add_argument("--allow-unlabeled", action="store_true")
    ingest.add_argument("--vocab-limit", dest="vocab_limit", type=int)
    ingest.set_defaults(func=_cmd_ingest)

    train = sub.add_parser("train", help="cross-validated training")
    train.add_argument("--corpus", required=True)
    train.add_argument("--embeddings", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--preset", choices=sorted(PRESETS))
    train.add_argument("--config", help="key = value settings file")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--folds", type=int, default=None)
    train.add_argument("--precision", type=int, choices=[32, 64], default=None)
    train.add_argument("--vocab-limit", dest="vocab_limit", type=int)
    train.add_argument("--verbose", action="store_true")
    for flag, kind in (("learning-rate", float), ("l2-lambda", float),
                       ("batch-size", int), ("max-epochs", int),
                       ("patience", int)):
        train.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                           type=kind, default=None)
    for flag, kind in (("word-dim", int), ("hidden-size", int),
                       ("fc-size", int), ("article-source-dim", int),
                       ("claim-source-dim", int), ("dropout", float),
                       ("classes", int)):
        train.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                           type=kind, default=None)
    train.add_argument("--mode", choices=["classify", "regress"], default=None)
    train.add_argument("--no-claim-sources", action="store_true",
                       help="fuse only the article-source embedding")
    train.add_argument("--min-claim-support", dest="min_claim_support",
                       type=int, default=None)
    train.add_argument("--min-article-support", dest="min_article_support",
                       type=int, default=None)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="score claims with a checkpoint")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--embeddings", required=True)
    predict.add_argument("--corpus", required=True)
    predict.add_argument("--out", required=True)
    predict.add_argument("--vocab-limit", dest="vocab_limit", type=int)
    predict.set_defaults(func=_cmd_predict)

    evalp = sub.add_parser("eval", help="metrics for stored predictions")
    evalp.add_argument("--corpus", required=True, help="corpus with labels")
    evalp.add_argument("--pred", required=True)
    evalp.add_argument("--mode", choices=["classify", "regress"],
                       default="classify")
    evalp.add_argument("--out", help="also write the report as JSON")
    evalp.set_defaults(func=_cmd_eval)

    explain = sub.add_parser("explain", help="attention highlights and projections")
    explain.add_argument("--checkpoint", required=True)
    explain.add_argument("--embeddings", required=True)
    explain.add_argument("--corpus", required=True)
    explain.add_argument("--out", help="directory for html/structured output")
    explain.add_argument("--format", choices=["ansi", "html", "structured"],
                         default="ansi")
    explain.add_argument("--projection", help="write (name,label,x,y) rows here")
    explain.add_argument("--vocab-limit", dest="vocab_limit", type=int)
    explain.set_defaults(func=_cmd_explain)

    gradcheck = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except EvicredError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        name = getattr(e, "filename", None)
        where = f"{name}: " if name else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
