"""Shared builders for the test suite.

The synthetic corpus plants a lexical credibility signal: articles about
credible claims carry affirming cue words, the rest carry debunking
ones.  Word vectors are random but fixed per seed, so the signal is
learnable yet nothing is hand-tuned to the model.
"""
from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from evicred.corpus import ClaimInstance
from evicred.embeddings import (
    SourceEmbeddingTable,
    Vocabulary,
    WordEmbeddings,
    build_source_table,
)
from evicred.model import Hyperparams, ModelParams

try:
    import hypothesis
except ImportError:  # the property tests then skip themselves
    pass
else:
    # One profile for every property test: the same examples on every run,
    # no example database and no per-example time limit, so tier-1 stays
    # deterministic.  Tests set only their own ``max_examples``.
    hypothesis.settings.register_profile(
        "evicred", derandomize=True, database=None, deadline=None)
    hypothesis.settings.load_profile("evicred")

CREDIBLE_CUES = ["confirmed", "verified", "accurate", "documented"]
REFUTED_CUES = ["hoax", "fabricated", "debunked", "baseless"]
FILLER = [f"w{i:02d}" for i in range(40)]
SITES = ["siteA", "siteB", "siteC", "siteD"]


def planted_corpus(n_claims=50, n_articles=3, seed=7, dim=16,
                   with_claim_sources=False):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(FILLER + CREDIBLE_CUES + REFUTED_CUES)
    emb = WordEmbeddings(
        vocab, rng.standard_normal((len(vocab), dim)) / np.sqrt(dim))
    instances = []
    for i in range(n_claims):
        label = i % 2
        claim_tokens = [str(t) for t in rng.choice(FILLER, size=6)]
        articles, texts, sources = [], [], []
        for _ in range(n_articles):
            body = [str(t) for t in rng.choice(FILLER, size=10)]
            cues = CREDIBLE_CUES if label == 1 else REFUTED_CUES
            for cue in rng.choice(cues, size=2):
                body.insert(int(rng.integers(0, len(body))), str(cue))
            articles.append(body)
            texts.append(" ".join(body))
            sources.append(str(rng.choice(SITES)))
        instances.append(ClaimInstance(
            claim_id=f"c{i:03d}",
            claim_text=" ".join(claim_tokens),
            claim_tokens=claim_tokens,
            claim_source=f"speaker{i % 3}" if with_claim_sources else None,
            articles=articles,
            article_texts=texts,
            article_sources=sources,
            label=label,
        ))
    return instances, emb


def article_table_for(instances, dim=4, min_support=1, seed=0):
    counts = Counter(s for inst in instances for s in inst.article_sources)
    return build_source_table(counts, min_support, dim,
                              np.random.default_rng(seed),
                              "article_source_table")


def tiny_world(seed=0, claim_source_dim=2):
    """A miniature model with both source tables, for unit-level checks."""
    rng = np.random.default_rng(seed)
    hyper = Hyperparams(word_dim=4, hidden_size=3, fc_size=3,
                        article_source_dim=2, claim_source_dim=claim_source_dim,
                        dropout=0.0)
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    emb = WordEmbeddings(vocab, rng.standard_normal((len(vocab), hyper.word_dim)))
    article_table = SourceEmbeddingTable(
        ["siteA"], rng.standard_normal((2, hyper.article_source_dim)),
        "article_source_table")
    claim_table = None
    if claim_source_dim is not None:
        claim_table = SourceEmbeddingTable(
            ["speaker"], rng.standard_normal((2, claim_source_dim)),
            "claim_source_table")
    params = ModelParams(hyper, rng, article_sources=article_table,
                         claim_sources=claim_table)
    return hyper, vocab, emb, params


def write_corpus_file(path, instances):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps({
                "id": inst.claim_id,
                "claim": inst.claim_text,
                "claim_source": inst.claim_source,
                "label": inst.label,
                "articles": [
                    {"text": t, "source": s}
                    for t, s in zip(inst.article_texts, inst.article_sources)
                ],
            }) + "\n")


def write_embedding_file(path, emb: WordEmbeddings):
    with open(path, "w", encoding="utf-8") as fh:
        for token in emb.vocab.tokens:
            values = " ".join(repr(float(v)) for v in emb.vector(token))
            fh.write(f"{token} {values}\n")


def make_embedding_file(directory, tokens, dim, seed=0, name="vectors.txt"):
    """Write a small random word-vector file and return its path."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(tokens)
    emb = WordEmbeddings(vocab, rng.standard_normal((len(vocab), dim)))
    path = directory / name
    write_embedding_file(path, emb)
    return path


@pytest.fixture
def tmp_corpus(tmp_path):
    instances, emb = planted_corpus(n_claims=12, n_articles=2)
    corpus_path = tmp_path / "corpus.jsonl"
    emb_path = tmp_path / "vectors.txt"
    write_corpus_file(corpus_path, instances)
    write_embedding_file(emb_path, emb)
    return corpus_path, emb_path, instances, emb
