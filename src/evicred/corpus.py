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
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .embeddings import WordEmbeddings, claim_mean, tokenize
from .errors import ContractError, DegenerateInputError, ParseError, text_lines

__all__ = [
    "ClaimInstance",
    "SnippetScore",
    "Snippet",
    "ingest",
    "json_lines",
    "finite_number",
    "write_corpus",
    "extract_snippet",
    "map_politifact_label",
    "FoldPlan",
    "make_folds",
    "source_counts",
]

log = logging.getLogger(__name__)

SNIPPET_WINDOW = 100
# Windows per block of the snippet screen's prefix sums, in window widths:
# short sums keep both the rounding bound and the scratch arrays small.
_BLOCK = 8
# Share of claims ``make_folds`` holds out for early stopping.
_VALIDATION_FRACTION = 0.1


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


def json_lines(path: str) -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSON-lines file, decoded, with its number.

    A line that is not standard JSON, including one holding a NaN or
    Infinity literal, raises ParseError naming the file and the line.
    """
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            value = _DECODER.decode(line)
        except ValueError as e:  # JSONDecodeError, or a NaN/Infinity literal
            reason = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
            raise ParseError(f"{path}:{lineno}: invalid JSON ({reason})") from None
        yield lineno, value


def finite_number(value) -> bool:
    """Whether a float holds ``value``: not NaN, infinite or too large an int."""
    return abs(value) <= sys.float_info.max


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
    for lineno, record in json_lines(path):
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
            elif not finite_number(label):
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


def _window_score(claim_types: set[str], claim_vec: np.ndarray,
                  article_tokens: list[str], token_vecs: np.ndarray,
                  start: int, width: int) -> SnippetScore:
    """The score of one window, as ``extract_snippet`` reports it."""
    window_types = set(article_tokens[start : start + width])
    bow = len(claim_types & window_types) / len(claim_types)
    semantic = _cosine(claim_vec, token_vecs[start : start + width].mean(axis=0))
    return SnippetScore(bow, semantic, bow * semantic)


def _gamma(k: int, unit: float) -> float:
    """Relative error bound of k roundings with unit roundoff ``unit``."""
    return k * unit / (1 - k * unit)


def _candidate_starts(claim_types: set[str], claim_vec: np.ndarray,
                      article_tokens: list[str], token_vecs: np.ndarray,
                      width: int) -> range | list[int]:
    """Ascending window starts that may hold the earliest best score.

    Every window gets an estimate ``bow * cos`` and a bound ``bow * margin``
    on its distance from the sim of ``_window_score``.  The lexical part is
    exact: distinct claim words per window come from running integer
    counts.  The cosine comes from float64 prefix sums of the token vectors,
    restarted every ``_BLOCK`` window widths, so that no sum runs over more
    than s = (_BLOCK + 1) w rows.  A window is dropped when some window's
    lower bound beats its upper bound (it cannot be the best), or when an
    earlier window's lower bound reaches its upper bound (the scan keeps the
    first of equal scores, so it cannot win).

    Let v and u be the unit roundoffs of the vectors' dtype and of float64,
    eta the dtype's smallest subnormal and g_k(x) = k x / (1 - k x).  For a
    window of width w in dimension d with exact sum S, sum of row norms Q,
    claim vector c, and M the sum of row norms of its block:

    * the reference mean (``mean(axis=0)`` in the dtype) is off by at most
      e = g_w(v) (Q + w sqrt(d eta)) / w + sqrt(d) eta, which moves its
      cosine by at most 2 w e / |S|;
    * the window sum from prefix sums is off by at most p = 2 g_s(u) M + u
      |S|, which moves the estimate's cosine by at most 2 p / |S|;
    * each cosine's own dot products, square roots and division, and the
      product with bow, add at most 2 g_d(x) + 6u for x = v or u, plus
      d eta (1 / (|c| m) + 1 / (2 m^2) + 1 / (2 |c|^2)) from underflow, for
      m a lower bound on the norm of the reference mean.

    |S| and Q come from their computed values, widened by the same bounds.
    The margin is twice the sum of these first-order terms, which covers
    the second-order terms and the rounding of the bound itself.  A window
    whose margin exceeds 2^-6, or whose norm cannot be bounded away from
    zero, is always rescored.  So is every window when squares of the
    vectors could overflow, and for dtypes other than float32 and float64.
    """
    n, d = token_vecs.shape
    count = n - width + 1
    every = range(count)
    if token_vecs.dtype not in (np.float32, np.float64):
        return every
    if not claim_vec.any():
        return every[:1]  # every cosine is exactly 0.0, so the first window wins

    info = np.finfo(token_vecs.dtype)
    v, eta = float(info.eps) / 2, float(info.smallest_subnormal)
    u = float(np.finfo(np.float64).eps) / 2
    claim64 = claim_vec.astype(np.float64)
    claim_norm = np.sqrt(claim64 @ claim64)
    row_norms = np.sqrt(np.einsum("ij,ij->i", token_vecs, token_vecs))
    limit = math.sqrt(float(info.max)) / (2 * n)
    if not (row_norms.max() <= limit and claim_norm <= limit):
        return every

    column = {t: k for k, t in enumerate(claim_types)}
    cols = np.fromiter(map(column.get, article_tokens, repeat(-1)), dtype=np.intp,
                       count=n)
    hits = np.flatnonzero(cols >= 0)
    seen = np.zeros((n + 1, len(column)), dtype=np.int32)
    seen[hits + 1, cols[hits]] = 1
    np.cumsum(seen, axis=0, out=seen)
    bow = np.count_nonzero(seen[width:] - seen[:count], axis=1) / len(column)

    dots, lengths, mass, block_mass = (np.empty(count) for _ in range(4))
    step = _BLOCK * width
    for first in range(0, count, step):
        stop = min(first + step, count)
        rows = slice(first, stop + width - 1)
        sums = np.zeros((stop - first + width, d))
        np.cumsum(token_vecs[rows], axis=0, dtype=np.float64, out=sums[1:])
        sums = sums[width:] - sums[: stop - first]
        dots[first:stop] = sums @ claim64
        lengths[first:stop] = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        norm_sums = np.zeros(stop - first + width)
        np.cumsum(row_norms[rows], dtype=np.float64, out=norm_sums[1:])
        mass[first:stop] = norm_sums[width:] - norm_sums[: stop - first]
        block_mass[first:stop] = norm_sums[-1]

    prefix_err = 2 * _gamma(step + width, u) * block_mass
    sum_low = lengths * (1 - _gamma(d + 2, u)) - prefix_err
    mean_err = (_gamma(width, v) * (mass + prefix_err + width * math.sqrt(d * eta))
                / width + math.sqrt(d) * eta)
    mean_low = sum_low / width - mean_err
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (lengths * claim_norm)
        margin = 2 * (2 * (width * mean_err + prefix_err) / sum_low + 2 * u
                      + 2 * _gamma(d, v) + 2 * _gamma(d, u) + 12 * u
                      + d * eta * (2 / (claim_norm * mean_low) + 1 / mean_low**2
                                   + 1 / claim_norm**2))
    unbounded = ~((mean_low > 0) & (margin <= 2.0**-6))
    cos[unbounded] = 0.0
    margin[unbounded] = np.inf
    margin[bow == 0] = 0.0  # 0 * a finite cosine is exactly zero
    estimate, slack = bow * cos, bow * margin
    low, high = estimate - slack, estimate + slack
    earlier = np.maximum.accumulate(np.concatenate(([-np.inf], low[:-1])))
    return np.flatnonzero((high >= low.max()) & (high > earlier)).tolist()


def extract_snippet(claim_tokens: list[str], article_tokens: list[str],
                    embeddings: WordEmbeddings, delta: float = 0.5,
                    window: int = SNIPPET_WINDOW) -> Snippet | None:
    """Best claim-matching window of the article, or None below ``delta``.

    Every window start (stride one) is scored by the product of the
    fraction of distinct claim words present and the cosine between mean
    claim and mean window vectors; the earliest window wins ties.
    Articles shorter than the window are scored whole.  ``delta`` may be
    infinite (``-inf`` keeps every article, ``inf`` none) but not NaN.

    Cost is linear in the article length: running claim-word counts and
    prefix sums of the token vectors screen every window at once, with a
    proven error bound, and only the windows that may be the earliest best
    are rescored one by one.  The result equals the exhaustive stride-one
    scan bit for bit.
    """
    if window < 1:
        raise ContractError(f"snippet window must be at least 1, got {window}")
    if math.isnan(delta):
        raise ContractError("snippet delta must be a number, got NaN")
    claim_vec = claim_mean(claim_tokens, embeddings)
    if not article_tokens:
        return None
    claim_types = set(claim_tokens)
    token_vecs = embeddings.matrix_for(article_tokens)
    width = min(window, len(article_tokens))
    best: tuple[int, SnippetScore] | None = None
    for start in _candidate_starts(claim_types, claim_vec, article_tokens,
                                   token_vecs, width):
        score = _window_score(claim_types, claim_vec, article_tokens, token_vecs,
                              start, width)
        if best is None or score.sim > best[1].sim:
            best = (start, score)
    assert best is not None
    start, score = best
    if score.sim < delta:
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

    def train_ids(self, fold: int) -> list[str]:
        return [cid for f, ids in enumerate(self.folds) if f != fold for cid in ids]

    def test_ids(self, fold: int) -> list[str]:
        return list(self.folds[fold])


def make_folds(instances: list[ClaimInstance], seed: int,
               n_folds: int = 10) -> FoldPlan:
    """Shuffle claims, hold out a validation slice, deal the rest round-robin.

    Fold sizes differ by at most one.  Needs at least 2 folds and enough
    claims for one per fold after the holdout.
    """
    if n_folds < 2:
        raise ContractError(f"cross-validation needs at least 2 folds, got {n_folds}")
    ids = [inst.claim_id for inst in instances]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_val = max(1, int(round(len(ids) * _VALIDATION_FRACTION)))
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
