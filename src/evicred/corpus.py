"""Corpus ingestion, snippet extraction, and fold planning.

Corpora are line-delimited JSON: one claim per line with its originating
source (optional), a label, and the reporting articles.  Articles are
usually long web pages, so before training they are reduced to the
window that best matches the claim both lexically and in embedding space.
"""
from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import WordEmbeddings, claim_mean, tokenize
from .errors import DegenerateInputError, ParseError

__all__ = [
    "ClaimInstance",
    "SnippetScore",
    "Snippet",
    "ingest",
    "write_corpus",
    "extract_snippet",
    "map_politifact_label",
    "FoldPlan",
    "make_folds",
    "source_counts",
]

log = logging.getLogger(__name__)

SNIPPET_WINDOW = 100


@dataclass
class ClaimInstance:
    """One claim with the articles reporting on it.

    ``articles`` holds token lists aligned with ``article_texts`` and
    ``article_sources``; a well-formed instance has at least one article.
    """

    claim_id: str
    claim_text: str
    claim_tokens: list[str]
    claim_source: str | None
    articles: list[list[str]]
    article_texts: list[str]
    article_sources: list[str]
    label: float | None = None


@dataclass(frozen=True)
class SnippetScore:
    """Relevance of one window: lexical overlap times embedding cosine."""

    sim_bow: float
    sim_semantic: float
    sim: float


@dataclass(frozen=True)
class Snippet:
    tokens: list[str]
    start: int
    score: SnippetScore


_POLITIFACT_CREDIBLE = {"true", "mostly true", "half true"}
_POLITIFACT_NOT = {"mostly false", "false", "pants on fire"}


def map_politifact_label(rating: str) -> int:
    """Collapse the six-point truthfulness scale to a binary label."""
    norm = " ".join(rating.lower().replace("-", " ").replace("!", " ").split())
    if norm in _POLITIFACT_CREDIBLE:
        return 1
    if norm in _POLITIFACT_NOT:
        return 0
    raise ParseError(f"unknown rating {rating!r}")


def _reject_constant(name: str):
    raise ValueError(f"non-standard number {name}")


# Standard JSON only: NaN and Infinity literals are refused.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _require(record: dict, key: str, rid: str, where: str):
    if key not in record:
        raise ParseError(f"{where}: record {rid}: missing field {key!r}")
    return record[key]


def ingest(path: str, *, label_scheme: str | None = None,
           blocklist: set[str] | None = None,
           require_label: bool = True) -> list[ClaimInstance]:
    """Read a JSON-lines corpus into claim instances.

    Articles whose source is on the blocklist are dropped; a claim left
    with no usable article is skipped (counted in one summary warning).
    Structural problems, including a line that is not a JSON object and
    NaN or infinite numbers, raise ParseError naming the line or record.
    """
    instances: list[ClaimInstance] = []
    seen_ids: set[str] = set()
    skipped = 0
    blocklist = blocklist or set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = _DECODER.decode(line)
            except ValueError as e:  # JSONDecodeError, or a NaN/Infinity literal
                reason = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
                raise ParseError(f"{path}:{lineno}: invalid JSON ({reason})") from None
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: record is not a JSON object")
            rid = str(record.get("id", f"line {lineno}"))
            if rid in seen_ids:
                raise ParseError(f"{path}: record {rid}: duplicate id")
            claim_text = str(_require(record, "claim", rid, path))
            claim_tokens = tokenize(claim_text)
            if not claim_tokens:
                raise ParseError(f"{path}: record {rid}: claim has no tokens")
            label = record.get("label")
            if label is None and require_label:
                raise ParseError(f"{path}: record {rid}: missing field 'label'")
            if label is not None:
                if label_scheme == "politifact":
                    label = map_politifact_label(str(label))
                elif isinstance(label, bool):
                    label = int(label)
                elif not isinstance(label, (int, float)):
                    raise ParseError(f"{path}: record {rid}: label must be numeric")
                elif isinstance(label, float) and not math.isfinite(label):
                    raise ParseError(f"{path}: record {rid}: label must be finite")
            raw_articles = _require(record, "articles", rid, path)
            if not isinstance(raw_articles, list):
                raise ParseError(f"{path}: record {rid}: 'articles' must be a list")
            articles, texts, sources = [], [], []
            for art in raw_articles:
                if not isinstance(art, dict):
                    raise ParseError(f"{path}: record {rid}: article entries must be objects")
                text = str(_require(art, "text", rid, path))
                source = str(_require(art, "source", rid, path))
                if source in blocklist:
                    continue
                tokens = tokenize(text)
                if not tokens:
                    continue
                articles.append(tokens)
                texts.append(text)
                sources.append(source)
            if not articles:
                skipped += 1
                continue
            seen_ids.add(rid)
            claim_source = record.get("claim_source")
            instances.append(ClaimInstance(
                claim_id=rid,
                claim_text=claim_text,
                claim_tokens=claim_tokens,
                claim_source=None if claim_source is None else str(claim_source),
                articles=articles,
                article_texts=texts,
                article_sources=sources,
                label=label,
            ))
    if skipped:
        log.warning("%s: skipped %d claims without usable articles", path, skipped)
    return instances


def write_corpus(instances: list[ClaimInstance], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            record = {
                "id": inst.claim_id,
                "claim": inst.claim_text,
                "claim_source": inst.claim_source,
                "label": inst.label,
                "articles": [
                    {"text": text, "source": source}
                    for text, source in zip(inst.article_texts, inst.article_sources)
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def extract_snippet(claim_tokens: list[str], article_tokens: list[str],
                    embeddings: WordEmbeddings, delta: float = 0.5,
                    window: int = SNIPPET_WINDOW) -> Snippet | None:
    """Best claim-matching window of the article, or None below ``delta``.

    Every window start is scored (stride one) by the product of the
    fraction of distinct claim words present and the cosine between mean
    claim and mean window vectors; the earliest window wins ties.
    Articles shorter than the window are scored whole.
    """
    claim_vec = claim_mean(claim_tokens, embeddings)
    if not article_tokens:
        return None
    claim_types = set(claim_tokens)
    token_vecs = embeddings.matrix_for(article_tokens)
    width = min(window, len(article_tokens))
    best: tuple[float, int, SnippetScore] | None = None
    for start in range(len(article_tokens) - width + 1):
        window_tokens = article_tokens[start : start + width]
        window_types = set(window_tokens)
        bow = len(claim_types & window_types) / len(claim_types)
        semantic = _cosine(claim_vec, token_vecs[start : start + width].mean(axis=0))
        sim = bow * semantic
        if best is None or sim > best[0]:
            best = (sim, start, SnippetScore(bow, semantic, sim))
    assert best is not None
    sim, start, score = best
    if sim < delta:
        return None
    return Snippet(article_tokens[start : start + width], start, score)


@dataclass
class FoldPlan:
    """Validation holdout plus a disjoint partition of the remaining claims."""

    folds: list[list[str]]
    validation: list[str]

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def fold_of(self) -> dict[str, int]:
        return {cid: f for f, ids in enumerate(self.folds) for cid in ids}

    def train_ids(self, fold: int) -> list[str]:
        return [cid for f, ids in enumerate(self.folds) if f != fold for cid in ids]

    def test_ids(self, fold: int) -> list[str]:
        return list(self.folds[fold])


def make_folds(instances: list[ClaimInstance], seed: int, n_folds: int = 10,
               validation_fraction: float = 0.1) -> FoldPlan:
    """Shuffle claims, hold out a validation slice, deal the rest round-robin.

    Fold sizes differ by at most one.  Needs enough claims for one per
    fold after the holdout.
    """
    ids = [inst.claim_id for inst in instances]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_val = max(1, int(round(len(ids) * validation_fraction)))
    if len(ids) - n_val < n_folds:
        raise DegenerateInputError(
            f"{len(ids)} claims cannot fill {n_folds} folds after a "
            f"{n_val}-claim validation holdout")
    validation = shuffled[:n_val]
    rest = shuffled[n_val:]
    folds = [rest[i::n_folds] for i in range(n_folds)]
    return FoldPlan(folds=folds, validation=validation)


def source_counts(instances: list[ClaimInstance]) -> tuple[Counter, Counter]:
    """Occurrence counts of claim sources and article sources."""
    claim_counter: Counter = Counter()
    article_counter: Counter = Counter()
    for inst in instances:
        if inst.claim_source is not None:
            claim_counter[inst.claim_source] += 1
        for source in inst.article_sources:
            article_counter[source] += 1
    return claim_counter, article_counter
