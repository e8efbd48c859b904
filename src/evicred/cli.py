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
import typing
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import training as training_mod
from .embeddings import load_word_vectors
from .errors import (ContractError, EvicredError, ParseError, UsageError,
                     text_lines)
from .explain import annotate, pca_project, render
from .metrics import mode_report
from .model import (
    MODES,
    CredibilityModel,
    Hyperparams,
    load_checkpoint,
    save_checkpoint,
    verdict,
)

DATA_DIR_ENV = "EVICRED_DATA_DIR"

# Settings a run starts from, before any preset, config file or flag.
# ``word_dim`` is only a stand-in: ``train`` sets the vector file's width.
_DEFAULTS: dict = dict(word_dim=100, hidden_size=64, fc_size=32,
                       article_source_dim=8, min_claim_support=5,
                       min_article_support=10, folds=10)

# Per-dataset settings: source-embedding widths, layer sizes, dropout,
# output head, and the support thresholds below which a source collapses
# into the shared fallback row.
PRESETS: dict[str, dict] = {
    "snopes": dict(hidden_size=64, fc_size=32, article_source_dim=8,
                   claim_source_dim=None, dropout=0.5, mode="classify", classes=2,
                   min_claim_support=5, min_article_support=10),
    "politifact": dict(hidden_size=64, fc_size=32, article_source_dim=4,
                       claim_source_dim=4, dropout=0.5, mode="classify", classes=2,
                       min_claim_support=5, min_article_support=10),
    "newstrust": dict(hidden_size=64, fc_size=64, article_source_dim=8,
                      claim_source_dim=8, dropout=0.3, mode="regress", classes=2,
                      min_claim_support=5, min_article_support=10),
    "semeval": dict(hidden_size=16, fc_size=8, article_source_dim=4,
                    claim_source_dim=4, dropout=0.3, mode="classify", classes=3,
                    min_claim_support=5, min_article_support=5),
}

_HYPER_KEYS = tuple(f.name for f in dataclasses.fields(Hyperparams))
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(training_mod.TrainConfig))
# The type a setting must have, per key, in a config file or as a flag.
# ``word_dim`` is no setting: the vector file sets it.
_KEY_TYPES = {
    **typing.get_type_hints(Hyperparams),
    **typing.get_type_hints(training_mod.TrainConfig),
    "preset": str, "min_claim_support": int, "min_article_support": int,
    "folds": int,
}
del _KEY_TYPES["word_dim"]
# Adam's constants are config-file only; every other key is also a flag.
_FILE_ONLY_KEYS = ("beta1", "beta2", "epsilon")
_FLAG_CHOICES = {"preset": sorted(PRESETS), "mode": list(MODES), "precision": [32, 64]}


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


def _config_lines(path: str) -> dict[str, tuple[object, str]]:
    """Each setting of a ``key = value`` config file with the ``path:line``
    that set it; '#' starts a comment."""
    settings: dict = {}
    for lineno, line in text_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ParseError(f"{path}:{lineno}: unknown setting {key!r}")
        where = f"{path}:{lineno}"
        settings[key] = (_check_type(key, _parse_value(raw), where + ": "), where)
    return settings


def _check_type(key: str, value, where: str = ""):
    """``value`` if it fits the key's type; an int fits a float key and
    comes back as a float.  A misfit raises ParseError prefixed by ``where``."""
    types = typing.get_args(_KEY_TYPES[key]) or (_KEY_TYPES[key],)
    allowed = types + (int,) if float in types else types
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = " or ".join("none" if t is type(None) else t.__name__ for t in types)
        raise ParseError(f"{where}{key} must be {expected}, got {value!r}")
    if float in types and value is not None:
        if not corpus_mod.finite_number(value):
            raise ParseError(f"{where}{key} must be a finite number, got {value!r}")
        return float(value)
    return value


def _flag_type(key: str):
    """argparse ``type`` for ``key``: the config-file reader and check."""
    def convert(raw: str):
        try:
            return _check_type(key, _parse_value(raw))
        except ParseError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


@dataclasses.dataclass
class TrainSettings:
    hyper: Hyperparams
    config: training_mod.TrainConfig
    min_claim_support: int
    min_article_support: int
    folds: int


def resolve_train_settings(args) -> TrainSettings:
    """Layer the knobs: defaults, preset, config file, then explicit flags."""
    file_lines = _config_lines(resolve_input(args.config)) if args.config else {}
    file_settings = {key: value for key, (value, _) in file_lines.items()}
    flags = {key: value for key, value in vars(args).items() if key in _KEY_TYPES}
    preset_name = {**file_settings, **flags}.get("preset")
    if preset_name is not None and preset_name not in PRESETS:
        raise UsageError(f"unknown preset {preset_name!r}; "
                         f"choose from {sorted(PRESETS)}")
    merged = {**_DEFAULTS, **PRESETS.get(preset_name, {}), **file_settings, **flags}
    merged.pop("preset", None)
    try:
        hyper = Hyperparams(**{k: merged.pop(k) for k in _HYPER_KEYS if k in merged})
        config = training_mod.TrainConfig(
            **{k: merged.pop(k) for k in _CONFIG_KEYS if k in merged})
    except ContractError as e:
        # A refusal starts with the key it refuses; name the file line that
        # set the value, unless a flag overrode it.
        key = str(e).split(" ", 1)[0]
        if key in file_lines and key not in flags:
            raise ContractError(f"{file_lines[key][1]}: {e}") from None
        raise
    return TrainSettings(hyper=hyper, config=config, **merged)


def _load_blocklist(path: str | None) -> set[str]:
    if not path:
        return set()
    return {line.strip() for _, line in text_lines(resolve_input(path)) if line.strip()}


# --- commands ----------------------------------------------------------------

def _cmd_ingest(args) -> int:
    for flag, value in (("--delta", args.delta), ("--vocab-limit", args.vocab_limit)):
        if value is not None and not args.embeddings:
            raise UsageError(f"{flag} needs --embeddings")
    blocklist = _load_blocklist(args.blocklist)
    instances = corpus_mod.ingest(
        resolve_input(args.input),
        label_scheme=args.label_scheme,
        blocklist=blocklist,
        require_label=not args.allow_unlabeled,
    )
    dropped = 0
    if args.embeddings:
        # Each article becomes its best claim-matching window; an article
        # without one, and a claim left without articles, is dropped.
        _, emb = load_word_vectors(resolve_input(args.embeddings),
                                   vocab_limit=args.vocab_limit)
        delta = 0.5 if args.delta is None else args.delta
        kept = []
        for inst in instances:
            snips = [corpus_mod.extract_snippet(inst.claim_tokens, tokens, emb, delta=delta)
                     for tokens in inst.articles]
            found = [i for i, snip in enumerate(snips) if snip is not None]
            if found:
                inst.articles = [snips[i].tokens for i in found]
                inst.article_texts = [" ".join(snips[i].tokens) for i in found]
                inst.article_sources = [inst.article_sources[i] for i in found]
                kept.append(inst)
        dropped, instances = len(instances) - len(kept), kept
    corpus_mod.write_corpus(instances, args.out)
    n_articles = sum(len(i.articles) for i in instances)
    sources = {s for i in instances for s in i.article_sources}
    print(f"claims={len(instances)} articles={n_articles} "
          f"article_sources={len(sources)} dropped={dropped}")
    return 0


def _cmd_train(args) -> int:
    settings = resolve_train_settings(args)
    instances = corpus_mod.ingest(resolve_input(args.corpus))
    vocab, emb = load_word_vectors(resolve_input(args.embeddings),
                                   vocab_limit=settings.hyper.vocab_limit,
                                   dtype=settings.config.dtype)
    settings.hyper = dataclasses.replace(settings.hyper, word_dim=emb.dim)
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
        min_article_support=settings.min_article_support,
        min_claim_support=settings.min_claim_support, progress=progress)

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


def _load_model(checkpoint_path: str, embeddings_path: str):
    params, vocab_hash = load_checkpoint(resolve_input(checkpoint_path))
    vocab, emb = load_word_vectors(resolve_input(embeddings_path),
                                   vocab_limit=params.hyper.vocab_limit,
                                   dtype=params.head_w.data.dtype)
    if vocab.content_hash() != vocab_hash:
        raise EvicredError(
            f"{embeddings_path}: vocabulary does not match the checkpoint; "
            "pass the embedding file used for training")
    return CredibilityModel(params.hyper, params, emb)


def _cmd_predict(args) -> int:
    model = _load_model(args.checkpoint, args.embeddings)
    instances = corpus_mod.ingest(resolve_input(args.corpus), require_label=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst, cred in zip(instances, model.score_claims(instances)):
            if model.hyper.mode == "regress":
                record = {"id": inst.claim_id, "score": float(cred)}
            elif model.hyper.classes == 2:
                record = {"id": inst.claim_id, "credibility": float(cred),
                          "verdict": _verdict_text(model, cred)}
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
    for lineno, record in corpus_mod.json_lines(path):
        if not isinstance(record, dict) or "id" not in record:
            raise ParseError(f"{path}:{lineno}: prediction without an id")
        key = corpus_mod.record_id(record["id"], f"{path}:{lineno}")
        if key in preds:
            raise ParseError(f"{path}:{lineno}: second prediction for id {key!r}")
        preds[key] = record
    return preds


def _cmd_eval(args) -> int:
    instances = corpus_mod.ingest(resolve_input(args.corpus))
    preds = _read_predictions(resolve_input(args.pred))
    missing = [i.claim_id for i in instances if i.claim_id not in preds]
    if missing:
        raise EvicredError(f"{args.pred}: no prediction for claims {missing[:3]}")
    records = [preds[inst.claim_id] for inst in instances]
    # The first record's field names the kind: a regression score, a row of
    # class probabilities, or else a binary credibility.
    name = next((key for key in ("score", "probabilities")
                 if records and key in records[0]), "credibility")
    values = []
    for r in records:
        # A number, or for ``probabilities`` a non-empty list of numbers.
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
        if not all(map(corpus_mod.finite_number, items)):
            raise ParseError(f"{args.pred}: prediction {r['id']}: "
                             f"field {name!r} holds a number no float can hold")
        if name == "probabilities" and values and len(value) != len(values[0]):
            raise ParseError(f"{args.pred}: prediction {r['id']}: field {name!r} is a row "
                             f"of {len(value)}, the first prediction's of {len(values[0])}")
        values.append(value)
    report = mode_report("regress" if name == "score" else "classify", values,
                         [inst.label for inst in instances])
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
    model = _load_model(args.checkpoint, args.embeddings)
    instances = corpus_mod.ingest(resolve_input(args.corpus), require_label=False)
    out_dir = Path(args.out) if args.out else None
    if args.format != "ansi" and out_dir is None:
        raise UsageError(f"--format {args.format} needs --out DIR")
    if args.format == "html":
        # Each page is named after its claim, so an id must be a plain file name.
        for inst in instances:
            if any(c in inst.claim_id for c in ("/", "\0", os.sep, os.altsep) if c):
                raise ParseError(f"{args.corpus}: claim id {inst.claim_id!r} "
                                 "cannot name an html page")
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

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
                "articles": [dataclasses.asdict(ann) for ann in annotations],
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
    ingest.add_argument("--embeddings",
                        help="replace articles by their best claim-matching window")
    ingest.add_argument("--delta", type=float,
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
    train.add_argument("--config", help="key = value settings file")
    train.add_argument("--verbose", action="store_true")
    # Only the flags given reach the namespace, to override preset and file.
    for key in _KEY_TYPES:
        if key not in _FILE_ONLY_KEYS:
            train.add_argument("--" + key.replace("_", "-"), type=_flag_type(key),
                               choices=_FLAG_CHOICES.get(key),
                               default=argparse.SUPPRESS)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="score claims with a checkpoint")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--embeddings", required=True)
    predict.add_argument("--corpus", required=True)
    predict.add_argument("--out", required=True)
    predict.set_defaults(func=_cmd_predict)

    evalp = sub.add_parser("eval", help="metrics for stored predictions")
    evalp.add_argument("--corpus", required=True, help="corpus with labels")
    evalp.add_argument("--pred", required=True)
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
