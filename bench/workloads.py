"""The three workloads: generated inputs, timed set-up, timed units, checks.

A run alternates set-up (the median is ``setup_s``) and one *unit* of
work until the run's seconds are spent.  A unit is one ``training.fit``
epoch, one closed-loop pass over the claims, or one ``ingest --snippets``
pass over the raw corpus.  Every unit checks its own outputs outside the
timed region and returns a digest; units of one run must agree on it,
which checks determinism.  Operations (pairs, claims, articles) that raise
or fail a check count as failed.
"""
from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evicred import corpus, embeddings, explain, metrics, model, numeric, training
from evicred.errors import EvicredError

import generate
import oracle

SNIPPET_DELTA = 0.3
ORACLE_SAMPLE = 6


@dataclass
class Setup:
    state: object
    vector_seconds: float
    vector_rows: int


@dataclass
class Unit:
    ops: int
    seconds: float
    op_seconds: list[float]
    digest: str
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _fail(errors: list[str], message: str) -> None:
    if len(errors) < 5:
        errors.append(message)


def _load_vectors(path: Path, dtype=np.float64):
    start = time.perf_counter()
    vocab, emb = embeddings.load_word_vectors(str(path), dtype=dtype)
    return vocab, emb, time.perf_counter() - start


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Workload:
    name: str
    op: str
    # Set-ups before each unit; the unit uses the last.  A single set-up
    # lasts well under a second and single ones spread by +-15%, so the
    # count is set to spend about a fifth of the loop on set-up, giving
    # setup_s and vectors.rows_per_s a dozen or more samples a run.
    setups_per_unit: int = 1

    def final_checks(self, state, units: list[Unit]) -> tuple[int, list[str]]:
        """Checks run once after the measured loop: (failed operations, errors)."""
        return 0, []


# --- train-snopes ------------------------------------------------------------

class TrainSnopes(Workload):
    """One epoch of ``fit`` at the snopes preset over 64 fixed-length pairs."""

    name = "train-snopes"
    op = "pair"
    setups_per_unit = 4

    def __init__(self, directory: Path, seed: int):
        self.directory = directory
        self.seed = seed
        self.hyper = model.Hyperparams(**generate.SNOPES_HYPER)
        self.config = training.TrainConfig(batch_size=64, max_epochs=1, seed=seed)

    def setup(self) -> Setup:
        _, emb, seconds = _load_vectors(self.directory / "vectors.txt")
        train = corpus.ingest(str(self.directory / "train.jsonl"))
        val = corpus.ingest(str(self.directory / "val.jsonl"))
        _, article_counts = corpus.source_counts(train)
        table = embeddings.build_source_table(
            article_counts, generate.SNOPES_MIN_ARTICLE_SUPPORT,
            self.hyper.article_source_dim, np.random.default_rng((self.seed, 101)),
            "article_source_table")
        return Setup((emb, train, val, table), seconds, len(emb.vocab))

    def unit(self, state) -> Unit:
        emb, train, val, table = state
        pairs = sum(len(inst.articles) for inst in train)
        start = time.perf_counter()
        try:
            result = training.fit(train, self.hyper, self.config, emb, table,
                                  val_instances=val)
        except Exception:  # an operation that raises counts as failed
            return Unit(pairs, time.perf_counter() - start, [], "", pairs,
                        [traceback.format_exc(limit=2)])
        seconds = time.perf_counter() - start
        errors: list[str] = []
        (_, train_loss, val_value), = result.history
        if not (math.isfinite(train_loss) and val_value is not None
                and math.isfinite(val_value)):
            _fail(errors, f"non-finite epoch loss {train_loss!r} or "
                          f"validation value {val_value!r}")
        digest = _digest(float(train_loss).hex().encode(),
                         float(val_value or 0.0).hex().encode(),
                         *(t.data.tobytes() for t in result.params.named().values()))
        return Unit(pairs, seconds, [seconds / pairs] * pairs, digest,
                    pairs if errors else 0, errors)


# --- score-claims ------------------------------------------------------------

def check_claim(cred, traces) -> str | None:
    """Problem with one scored claim, or None."""
    if not math.isfinite(cred) or not 0.0 <= cred <= 1.0:
        return f"credibility {cred!r} outside [0, 1]"
    for trace in traces:
        if not math.isfinite(trace.score) or not 0.0 <= trace.score <= 1.0:
            return f"article score {trace.score!r} outside [0, 1]"
        weights = trace.attention_weights
        if (weights < 0).any() or abs(math.fsum(weights.tolist()) - 1.0) > 1e-9:
            return "attention weights are not a distribution"
    expected = math.fsum(t.score for t in traces) / len(traces)
    if cred != expected:
        return f"claim score {cred!r} is not the article mean {expected!r}"
    return None


class ScoreClaims(Workload):
    """Closed-loop ``claim_score`` with explanations, one caller."""

    name = "score-claims"
    op = "claim"
    setups_per_unit = 2

    def __init__(self, directory: Path, seed: int):
        self.directory = directory

    def setup(self) -> Setup:
        params, vocab_hash = model.load_checkpoint(str(self.directory / "model.ckpt"))
        vocab, emb, seconds = _load_vectors(self.directory / "vectors.txt",
                                            dtype=params.head_w.data.dtype)
        if vocab.content_hash() != vocab_hash:
            raise EvicredError("vector file does not match the checkpoint")
        scorer = model.CredibilityModel(params.hyper, params, emb)
        instances = corpus.ingest(str(self.directory / "claims.jsonl"),
                                  require_label=False)
        return Setup((scorer, instances), seconds, len(vocab))

    def unit(self, state) -> Unit:
        scorer, instances = state
        op_seconds: list[float] = []
        failed = 0
        errors: list[str] = []
        creds: list[float] = []
        rows, names, labels = [], [], []
        for inst in instances:
            start = time.perf_counter()
            try:
                cred, traces = scorer.claim_score(inst)
                said = "credible" if model.verdict(cred) else "not credible"
                shown = [explain.render(explain.annotate(trace, said, inst.claim_text,
                                                         source), "ansi")
                         for trace, source in zip(traces, inst.article_sources)]
            except Exception:  # an operation that raises counts as failed
                failed += 1
                _fail(errors, f"{inst.claim_id}: {traceback.format_exc(limit=2)}")
                continue
            op_seconds.append(time.perf_counter() - start)
            problem = check_claim(cred, traces)
            if problem is None and not all(shown):
                problem = "empty rendering"
            if problem is not None:
                failed += 1
                _fail(errors, f"{inst.claim_id}: {problem}")
            creds.append(cred)
            for i, trace in enumerate(traces):
                rows.append(trace.article_vec)
                names.append(f"{inst.claim_id}/{i}")
                labels.append(str(inst.label))
        start = time.perf_counter()
        projection = explain.pca_project(np.asarray(rows), names, labels)
        pca_seconds = time.perf_counter() - start
        if len(projection.points) != len(rows) or not all(
                math.isfinite(v) for v in projection.explained):
            _fail(errors, "projection does not cover every article vector")
            failed = len(instances)
        digest = _digest(np.asarray(creds).tobytes(),
                         np.asarray(projection.components).tobytes())
        return Unit(len(instances), sum(op_seconds) + pca_seconds, op_seconds,
                    digest, failed, errors)


# --- ingest-snippets ---------------------------------------------------------

class IngestSnippets(Workload):
    """``ingest --snippets``: ingest, snippet extraction, corpus write."""

    name = "ingest-snippets"
    op = "article"

    def __init__(self, directory: Path, seed: int):
        self.directory = directory
        self.seed = seed
        self.out = directory / "clean.jsonl"
        self.starts: list[tuple[list[str], list[str], int | None]] = []
        self.kept_claims = 0

    def setup(self) -> Setup:
        vocab, emb, seconds = _load_vectors(self.directory / "vectors.txt")
        return Setup(emb, seconds, len(vocab))

    def unit(self, emb) -> Unit:
        raised = 0
        errors: list[str] = []
        start = time.perf_counter()
        instances = corpus.ingest(str(self.directory / "raw.jsonl"))
        snippet_seconds: list[float] = []
        chosen: list[tuple[list[str], list[str], object]] = []
        kept = []
        for inst in instances:
            articles, texts, sources = [], [], []
            for tokens, source in zip(inst.articles, inst.article_sources):
                t0 = time.perf_counter()
                try:
                    snip = corpus.extract_snippet(inst.claim_tokens, tokens, emb,
                                                  delta=SNIPPET_DELTA)
                except Exception:  # an operation that raises counts as failed
                    raised += 1
                    _fail(errors, traceback.format_exc(limit=2))
                    continue
                snippet_seconds.append(time.perf_counter() - t0)
                chosen.append((inst.claim_tokens, tokens, snip))
                if snip is None:
                    continue
                articles.append(snip.tokens)
                texts.append(" ".join(snip.tokens))
                sources.append(source)
            if articles:
                inst.articles, inst.article_texts, inst.article_sources = \
                    articles, texts, sources
                kept.append(inst)
        corpus.write_corpus(kept, str(self.out))
        seconds = time.perf_counter() - start

        failed = raised
        for claim_tokens, tokens, snip in chosen:
            if snip is None:
                continue
            width = min(corpus.SNIPPET_WINDOW, len(tokens))
            if (snip.tokens != tokens[snip.start : snip.start + width]
                    or not snip.score.sim >= SNIPPET_DELTA):
                failed += 1
                _fail(errors, f"snippet at {snip.start} is not a kept window")
        self.kept_claims = len(kept)
        self.starts = [(c, t, None if s is None else s.start) for c, t, s in chosen]
        shared = (seconds - sum(snippet_seconds)) / len(chosen)
        return Unit(len(chosen) + raised, seconds, [s + shared for s in snippet_seconds],
                    _digest(self.out.read_bytes()), failed, errors)

    def final_checks(self, emb, units: list[Unit]) -> tuple[int, list[str]]:
        """Re-ingest the written corpus (every unit wrote the same bytes) and
        compare a seeded sample of snippet starts with the oracle."""
        failed = 0
        errors: list[str] = []
        if len(corpus.ingest(str(self.out))) != self.kept_claims:
            failed += units[-1].ops
            _fail(errors, "re-ingesting the written corpus changes the claim count")
        rng = np.random.default_rng((self.seed, 7))
        picks = rng.choice(len(self.starts), size=min(ORACLE_SAMPLE, len(self.starts)),
                           replace=False)
        for i in sorted(int(p) for p in picks):
            claim_tokens, tokens, start = self.starts[i]
            problem = oracle.snippet_disagreement(claim_tokens, tokens, emb,
                                                  SNIPPET_DELTA, corpus.SNIPPET_WINDOW,
                                                  start)
            if problem is not None:
                failed += 1
                _fail(errors, f"article {i}: {problem}")
        return failed, errors


WORKLOADS = {w.name: w for w in (TrainSnopes, ScoreClaims, IngestSnippets)}


# --- tracing -----------------------------------------------------------------

def _count_oov(counters, emb, tokens) -> None:
    counters["embeddings.tokens"] += len(tokens)
    counters["embeddings.oov"] += sum(1 for t in tokens if t not in emb.vocab)


def install_tracing(tracer) -> list[str]:
    """Wrap the entry points each per-layer metric reads.

    Entry points the library no longer has are skipped (their metrics read
    0) and returned by name, so a refactored library can still be traced.
    """
    functions = [
        (model, "bilstm_encode", "model.encode",
         lambda c, a, r: c.update({"model.tokens": a[0].shape[0]})),
        (model, "attend", "model.attend", None),
        (model, "article_vector", "model.pool", None),
        (model, "score_article", "model.fuse_head", None),
        (model, "load_checkpoint", "model.checkpoint_load", None),
        (training, "fit", "training.fit", None),
        (training, "loss", "training.loss", None),
        (training, "adam_step", "training.adam", None),
        (training, "evaluate", "training.evaluate", None),
        (metrics, "classification_report", "metrics.report", None),
        (metrics, "multiclass_report", "metrics.report", None),
        (metrics, "regression_report", "metrics.report", None),
        (corpus, "ingest", "corpus.ingest",
         lambda c, a, r: c.update({"corpus.records": len(r)})),
        (corpus, "write_corpus", "corpus.write", None),
        (corpus, "extract_snippet", "corpus.snippet",
         lambda c, a, r: c.update({"corpus.snippet_kept": r is not None})),
        (embeddings, "load_word_vectors", "embeddings.load",
         lambda c, a, r: c.update({"embeddings.rows": len(r[0])})),
        (embeddings, "claim_mean", "embeddings.lookup",
         lambda c, a, r: _count_oov(c, a[1], a[0])),
        (explain, "annotate", "explain.annotate", None),
        (explain, "render", "explain.render", None),
        (explain, "pca_project", "explain.pca", None),
    ]
    methods = [
        (numeric.Tape, "backward", "numeric.backward",
         lambda c, a, r: c.update({"numeric.tape_ops": len(a[0])})),
        (model.CredibilityModel, "article_score", "model.article_score",
         lambda c, a, r: c.update({"model.articles": 1})),
        (embeddings.WordEmbeddings, "matrix_for", "embeddings.lookup",
         lambda c, a, r: _count_oov(c, a[0], a[1])),
    ]
    missing = []
    for module, attr, name, count in functions:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        tracer.patch_function(fn, tracer.wrap(name, fn, count))
    for cls, attr, name, count in methods:
        if attr not in cls.__dict__:
            missing.append(f"{cls.__name__}.{attr}")
            continue
        tracer.patch_method(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))

    table = embeddings.SourceEmbeddingTable
    if "index" not in table.__dict__:
        return missing + ["SourceEmbeddingTable.index"]
    index = table.index

    def counted_index(self, source):
        row = index(self, source)
        tracer.counters["embeddings.source_lookups"] += 1
        tracer.counters["embeddings.source_fallbacks"] += row == self.fallback_index
        return row

    tracer.patch_method(table, "index", counted_index)
    return missing


def layer_metrics(tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run.

    Times are mean self seconds per call of the wrapped entry points;
    counts marked per op are divided by the operations of the traced units.
    A layer the workload never calls reads 0.
    """
    self_s, calls = tracer.self_times()
    c = tracer.counters

    def per_call(name: str) -> float:
        return self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    seconds = {
        "numeric.backward_s": "numeric.backward",
        "model.encode_s": "model.encode",
        "model.attend_s": "model.attend",
        "model.pool_s": "model.pool",
        "model.fuse_head_s": "model.fuse_head",
        "model.article_score_self_s": "model.article_score",
        "model.checkpoint_load_s": "model.checkpoint_load",
        "embeddings.load_s": "embeddings.load",
        "embeddings.lookup_s": "embeddings.lookup",
        "training.loss_s": "training.loss",
        "training.adam_s": "training.adam",
        "training.evaluate_s": "training.evaluate",
        "metrics.report_s": "metrics.report",
        "corpus.ingest_s": "corpus.ingest",
        "corpus.write_s": "corpus.write",
        "corpus.snippet_s": "corpus.snippet",
        "explain.annotate_s": "explain.annotate",
        "explain.render_s": "explain.render",
        "explain.pca_s": "explain.pca",
    }
    out = {metric: (per_call(span), "s") for metric, span in seconds.items()}
    out.update({
        "numeric.tape_ops_per_pair": (ratio(c["numeric.tape_ops"],
                                            calls.get("numeric.backward", 0)), "count"),
        "model.articles": (ratio(c["model.articles"], ops), "count"),
        "model.tokens": (ratio(c["model.tokens"], ops), "count"),
        "embeddings.rows": (ratio(c["embeddings.rows"],
                                  calls.get("embeddings.load", 0)), "count"),
        "embeddings.oov_rate": (ratio(c["embeddings.oov"], c["embeddings.tokens"]),
                                "ratio"),
        "embeddings.source_fallback_rate": (ratio(c["embeddings.source_fallbacks"],
                                                  c["embeddings.source_lookups"]),
                                            "ratio"),
        "training.adam_steps": (ratio(calls.get("training.adam", 0), ops), "count"),
        "corpus.records": (ratio(c["corpus.records"], calls.get("corpus.ingest", 0)),
                           "count"),
        "corpus.snippet_calls": (ratio(calls.get("corpus.snippet", 0), ops), "count"),
        "corpus.snippet_kept_ratio": (ratio(c["corpus.snippet_kept"],
                                            calls.get("corpus.snippet", 0)), "ratio"),
    })
    return out

