"""Seeded synthetic inputs for the three benchmark workloads.

Every file is a pure function of (workload, seed, sizes): the same seed
gives byte-identical corpus, word-vector and checkpoint files.  The seed
decides content (which words, sources, labels, where claim words are
planted, claim order); the *shape* of the work (articles per claim and
article lengths) comes from a fixed schedule, so runs on different seeds
do the same amount of encoder and snippet work and their timings can be
compared directly.
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from evicred.embeddings import Vocabulary, build_source_table
from evicred.model import Hyperparams, ModelParams, save_checkpoint

WORKLOADS = ("train-snopes", "score-claims", "ingest-snippets")

# The `snopes` preset of the command line: word dim, hidden, fusion, source
# dim, dropout, and the support below which a source uses the fallback row.
SNOPES_HYPER = dict(word_dim=100, hidden_size=64, fc_size=32,
                    article_source_dim=8, claim_source_dim=None, dropout=0.5,
                    mode="classify", classes=2)
SNOPES_MIN_ARTICLE_SUPPORT = 10

CREDIBLE_CUES = ["confirmed", "verified", "accurate", "documented"]
REFUTED_CUES = ["hoax", "fabricated", "debunked", "baseless"]
SITES = [f"site{i:02d}.example" for i in range(12)]
CLAIM_WORDS = 8

SIZES = {
    # 16 claims x 4 articles = 64 pairs, one full minibatch per epoch.
    "train-snopes": dict(vector_rows=10_000, corpus_words=3_000, claims=16,
                         articles_per_claim=4, article_tokens=100,
                         val_claims=6, val_articles_per_claim=2),
    # Six claims of each size from 1 to 6 articles of 20-300 tokens.
    "score-claims": dict(vector_rows=20_000, corpus_words=3_000, claims=36,
                         min_tokens=20, max_tokens=300, max_articles=6),
    # 1-3 articles of 200-3,000 tokens; one in ten below the 100-token window.
    "ingest-snippets": dict(vector_rows=40_000, corpus_words=3_000, claims=40,
                            min_tokens=200, max_tokens=3_000, short_tokens=(30, 99),
                            max_articles=3),
}

# Shapes come from this constant, never from the run's seed.
_SHAPE_SEED = 20180916
_OOV_RATE = 0.02
_WORKLOAD_KEYS = {name: i for i, name in enumerate(WORKLOADS)}


def vector_tokens(rows: int) -> list[str]:
    """Token column of the word-vector file: cue words, then plain words."""
    cues = CREDIBLE_CUES + REFUTED_CUES
    return cues + [f"w{i:05d}" for i in range(rows - len(cues))]


def write_vectors(path: Path, rows: int, dim: int, rng: np.random.Generator,
                  chunk: int = 4096) -> list[str]:
    """Write ``rows`` random vectors in the text layout, a chunk at a time."""
    tokens = vector_tokens(rows)
    line = " ".join(["%.4f"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, rows, chunk):
            block = rng.standard_normal((min(chunk, rows - lo), dim)) * 0.5
            fh.write("".join(f"{tok} {line % tuple(vals)}\n"
                             for tok, vals in zip(tokens[lo:], block.tolist())))
    return tokens


class _Words:
    """Zipf-weighted draws from the corpus vocabulary, with some OOV words."""

    def __init__(self, rng: np.random.Generator, corpus_words: int):
        self.rng = rng
        self.words = [f"w{i:05d}" for i in range(corpus_words)]
        weights = 1.0 / (np.arange(corpus_words) + 10.0)
        self.p = weights / weights.sum()
        # Skewed so a few sites stay below the preset's support threshold.
        site_weights = 1.0 / (np.arange(len(SITES)) + 1.0) ** 1.5
        self.site_p = site_weights / site_weights.sum()

    def draw(self, n: int) -> list[str]:
        picks = self.rng.choice(len(self.words), size=n, p=self.p)
        out = [self.words[i] for i in picks]
        for j in np.flatnonzero(self.rng.random(n) < _OOV_RATE):
            out[j] = f"oov{int(self.rng.integers(0, 10_000)):04d}"
        return out

    def source(self) -> str:
        return SITES[int(self.rng.choice(len(SITES), p=self.site_p))]


def _prose(tokens: list[str]) -> str:
    """Sentences of 12 words, capitalised and full-stopped; tokenize undoes it."""
    parts = []
    for lo in range(0, len(tokens), 12):
        sentence = tokens[lo : lo + 12]
        parts.append(" ".join([sentence[0].capitalize()] + sentence[1:]) + ".")
    return " ".join(parts)


def _record(claim_id: str, claim: list[str], label: int,
            articles: list[tuple[list[str], str]]) -> str:
    return json.dumps({
        "id": claim_id,
        "claim": " ".join(claim),
        "claim_source": None,
        "label": label,
        "articles": [{"text": _prose(tokens), "source": source}
                     for tokens, source in articles],
    }, sort_keys=True) + "\n"


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _planted_claims(words: _Words, n_claims: int, n_articles: int,
                    length: int, prefix: str) -> list[str]:
    """Claims whose articles carry cue words matching their label."""
    rng = words.rng
    labels = rng.permutation([i % 2 for i in range(n_claims)])
    lines = []
    for c, label in enumerate(labels):
        cues = CREDIBLE_CUES if label == 1 else REFUTED_CUES
        articles = []
        for _ in range(n_articles):
            body = words.draw(length)
            for at in rng.choice(length, size=3, replace=False):
                body[int(at)] = str(rng.choice(cues))
            articles.append((body, words.source()))
        lines.append(_record(f"{prefix}{c:04d}", words.draw(CLAIM_WORDS),
                             int(label), articles))
    return lines


def _generate_train(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    words = _Words(rng, sizes["corpus_words"])
    _write_lines(directory / "train.jsonl", _planted_claims(
        words, sizes["claims"], sizes["articles_per_claim"],
        sizes["article_tokens"], "t"))
    _write_lines(directory / "val.jsonl", _planted_claims(
        words, sizes["val_claims"], sizes["val_articles_per_claim"],
        sizes["article_tokens"], "v"))
    write_vectors(directory / "vectors.txt", sizes["vector_rows"],
                  SNOPES_HYPER["word_dim"], rng)


def _score_shapes(sizes: dict) -> list[list[int]]:
    """Article lengths per claim; each article count 1..max appears equally."""
    shape_rng = np.random.default_rng(_SHAPE_SEED)
    shapes = []
    for c in range(sizes["claims"]):
        n = 1 + c % sizes["max_articles"]
        shapes.append([int(v) for v in shape_rng.integers(
            sizes["min_tokens"], sizes["max_tokens"] + 1, size=n)])
    return shapes


def _generate_score(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    words = _Words(rng, sizes["corpus_words"])
    shapes = _score_shapes(sizes)
    lines = []
    article_counts: Counter = Counter()
    for c in rng.permutation(len(shapes)):
        claim = words.draw(CLAIM_WORDS)
        articles = []
        for length in shapes[c]:
            body = words.draw(length)
            # Half the articles quote a few claim words, so attention has
            # something to find.
            if rng.random() < 0.5:
                for at in rng.choice(length, size=min(4, length), replace=False):
                    body[int(at)] = str(rng.choice(claim))
            source = words.source()
            article_counts[source] += 1
            articles.append((body, source))
        lines.append(_record(f"s{int(c):04d}", claim, int(rng.integers(0, 2)),
                             articles))
    _write_lines(directory / "claims.jsonl", lines)
    tokens = write_vectors(directory / "vectors.txt", sizes["vector_rows"],
                           SNOPES_HYPER["word_dim"], rng)

    hyper = Hyperparams(**SNOPES_HYPER)
    table = build_source_table(article_counts, SNOPES_MIN_ARTICLE_SUPPORT,
                               hyper.article_source_dim, rng, "article_source_table")
    params = ModelParams(hyper, rng, article_sources=table)
    save_checkpoint(str(directory / "model.ckpt"), params,
                    Vocabulary(tokens).content_hash())


def _ingest_shapes(sizes: dict) -> list[list[tuple[int, int]]]:
    """(length, plant kind) per article; kind 0 plants a claim block, 1
    scatters a few claim words, 2 plants nothing."""
    shape_rng = np.random.default_rng(_SHAPE_SEED + 1)
    shapes = []
    article = 0
    for c in range(sizes["claims"]):
        n = 1 + c % sizes["max_articles"]
        claim_shape = []
        for _ in range(n):
            if article % 10 == 9:
                lo, hi = sizes["short_tokens"]
            else:
                lo, hi = sizes["min_tokens"], sizes["max_tokens"]
            claim_shape.append((int(shape_rng.integers(lo, hi + 1)), article % 3))
            article += 1
        shapes.append(claim_shape)
    return shapes


def _generate_ingest(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    words = _Words(rng, sizes["corpus_words"])
    shapes = _ingest_shapes(sizes)
    lines = []
    for c in rng.permutation(len(shapes)):
        claim = words.draw(CLAIM_WORDS)
        articles = []
        for length, kind in shapes[c]:
            body = words.draw(length)
            if kind == 0:
                block = claim * 2
                at = int(rng.integers(0, max(1, length - len(block))))
                body[at : at + len(block)] = block
                body = body[:length]
            elif kind == 1:
                for at in rng.choice(length, size=4, replace=False):
                    body[int(at)] = str(rng.choice(claim))
            articles.append((body, words.source()))
        lines.append(_record(f"r{int(c):04d}", claim, int(rng.integers(0, 2)),
                             articles))
    _write_lines(directory / "raw.jsonl", lines)
    write_vectors(directory / "vectors.txt", sizes["vector_rows"],
                  SNOPES_HYPER["word_dim"], rng)


_GENERATORS = {
    "train-snopes": _generate_train,
    "score-claims": _generate_score,
    "ingest-snippets": _generate_ingest,
}


def generate(workload: str, seed: int, directory: Path,
             sizes: dict | None = None) -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``.

    ``sizes`` overrides the defaults in SIZES, which the tests use to stay
    small.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])
    _GENERATORS[workload](directory, rng, {**SIZES[workload], **(sizes or {})})
