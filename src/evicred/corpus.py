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
from bisect import bisect_right
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
    "record_id",
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
# Most windows per chunk of the snippet screen's prefix sums, in window
# widths: short sums keep both the rounding bound and the scratch arrays small.
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


def record_id(value, where: str) -> str:
    """A record's id as text: a string as it is, an integer in decimal.  So
    3 and "3" name one record, and readers refuse the second as a repeat."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{where}: id must be a string or an integer")
    return str(value)


def _require(record: dict, key: str, rid: str, where: str, kind: type):
    if key not in record:
        raise ParseError(f"{where}: record {rid}: missing field {key!r}")
    if not isinstance(record[key], kind):
        name = {str: "string", list: "list"}[kind]
        raise ParseError(f"{where}: record {rid}: field {key!r} must be a {name}")
    return record[key]


def ingest(path: str, *, label_scheme: str | None = None,
           blocklist: set[str] | None = None,
           require_label: bool = True) -> list[ClaimInstance]:
    """Read a JSON-lines corpus into claim instances.

    Articles whose source is on the blocklist are dropped; a claim left
    with no usable article is skipped (counted in one summary warning).
    Structural problems, including a line that is not a JSON object, a
    field of the wrong JSON type and NaN or infinite numbers, raise
    ParseError naming the line or record.
    """
    instances: list[ClaimInstance] = []
    seen_ids: set[str] = set()
    skipped = 0
    blocklist = blocklist or set()
    for lineno, record in json_lines(path):
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: record is not a JSON object")
        rid = record_id(record.get("id", f"line {lineno}"), f"{path}:{lineno}")
        if rid in seen_ids:
            raise ParseError(f"{path}: record {rid}: duplicate id")
        claim_text = _require(record, "claim", rid, path, str)
        claim_source = record.get("claim_source")
        if not isinstance(claim_source, (str, type(None))):
            raise ParseError(f"{path}: record {rid}: field 'claim_source' must be "
                             "a string or null")
        claim_tokens = tokenize(claim_text)
        if not claim_tokens:
            raise ParseError(f"{path}: record {rid}: claim has no tokens")
        label = record.get("label")
        if label is None and require_label:
            raise ParseError(f"{path}: record {rid}: missing field 'label'")
        if label is not None:
            if label_scheme == "politifact":
                try:
                    label = map_politifact_label(str(label))
                except ParseError as e:
                    raise ParseError(f"{path}: record {rid}: {e}") from None
            elif isinstance(label, bool):
                label = int(label)
            elif not isinstance(label, (int, float)):
                raise ParseError(f"{path}: record {rid}: label must be numeric")
            elif not finite_number(label):
                raise ParseError(f"{path}: record {rid}: label must be finite")
        articles, texts, sources = [], [], []
        for art in _require(record, "articles", rid, path, list):
            if not isinstance(art, dict):
                raise ParseError(f"{path}: record {rid}: article entries must be objects")
            text = _require(art, "text", rid, path, str)
            source = _require(art, "source", rid, path, str)
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
        instances.append(ClaimInstance(
            claim_id=rid,
            claim_text=claim_text,
            claim_tokens=claim_tokens,
            claim_source=claim_source,
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


def _window_score(share: float, claim_vec: np.ndarray, token_vecs: np.ndarray,
                  width: int, start: int) -> SnippetScore:
    """The score of one window, as ``extract_snippet`` reports it, from its
    share of distinct claim words (an entry of ``_window_shares``)."""
    bow = float(share)
    semantic = _cosine(claim_vec, token_vecs[start : start + width].mean(axis=0))
    return SnippetScore(bow, semantic, bow * semantic)


def _gamma(k: int, unit: float) -> float:
    """Relative error bound of k roundings with unit roundoff ``unit``."""
    return k * unit / (1 - k * unit)


def _window_shares(claim_types: set[str], article_tokens: list[str],
                   width: int) -> np.ndarray:
    """Every window's share of distinct claim words: its exact count of them
    over the number of claim words, as one division.

    A claim word at position j whose previous copy is at p (or that has no
    earlier copy, p = -1) is the first copy in every window that starts in
    max(p + 1, j - width + 1)..j, so one difference array over window
    starts and one running sum count each window's distinct claim words."""
    n = len(article_tokens)
    count = n - width + 1
    column = {t: k for k, t in enumerate(claim_types)}
    cols = np.fromiter(map(column.get, article_tokens, repeat(-1)), dtype=np.intp,
                       count=n)
    hits = np.flatnonzero(cols >= 0)
    at = hits[np.argsort(cols[hits], kind="stable")]  # each word's copies in order
    prev = np.full(len(at), -1)
    again = cols[at[1:]] == cols[at[:-1]]
    prev[1:][again] = at[:-1][again]
    low = np.maximum(prev + 1, at - width + 1)
    high = np.minimum(at, count - 1)
    some = low <= high
    events = (np.bincount(low[some], minlength=count + 1)
              - np.bincount(high[some] + 1, minlength=count + 1))
    return np.cumsum(events[:count]) / len(column)


def _cosine_ceiling(claim_vec: np.ndarray, embeddings: WordEmbeddings,
                    width: int) -> float | None:
    """A ceiling on the cosine that ``_window_score`` computes for any window
    of ``width`` tokens, or None where the guard of ``_candidate_starts``
    does not hold, so no ceiling is proven."""
    info = np.finfo(embeddings.vectors.dtype)
    d, x = embeddings.dim, float(info.eps) / 2
    if 3 * d * x > 2.0**-10:
        return None
    root_normal = math.sqrt(float(info.smallest_normal))
    limit = math.sqrt(float(info.max)) / (2 * (width + d))
    tiny, huge = embeddings.magnitudes()
    size = np.abs(claim_vec)
    if not (tiny >= 2.0 ** (info.nmant + 2) * width * root_normal and huge <= limit
            and np.min(size, initial=math.inf, where=size > 0) >= root_normal
            and size.max() <= limit):
        return None
    u = float(np.finfo(np.float64).eps) / 2
    return 1 + 4 * _gamma(3 * d, x) + 8 * u


def _live_runs(live: np.ndarray, width: int) -> list[tuple[int, int]]:
    """(first, stop) ranges of window starts that cover every live window:
    the runs of live windows, two of them joined where at most width - 1
    dead windows part them, since gathering them apart saves no rows."""
    padded = np.concatenate(([False], live, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    firsts, stops = edges[0::2], edges[1::2]
    cut = np.flatnonzero(firsts[1:] - stops[:-1] >= width)
    return list(zip(firsts[np.append(0, cut + 1)].tolist(),
                    stops[np.append(cut, -1)].tolist()))


def _candidate_starts(claim_vec: np.ndarray, chunks: list[tuple[int, np.ndarray]],
                      bow: np.ndarray, live: np.ndarray, width: int) -> list[int]:
    """Ascending window starts that may hold the earliest best score.

    ``bow`` holds every window's exact share of distinct claim words, and
    ``live`` marks the windows that may still win; the others are never
    candidates.  ``chunks`` holds (first window, rows) pairs that cover
    every live window: the token vectors of at most ``_BLOCK`` w
    consecutive windows starting at the first.  Every live window gets an
    estimate ``bow * cos`` and a bound ``bow * margin`` on its distance
    from the sim of ``_window_score``.  The cosine comes from float64
    prefix sums of the token vectors, restarted at every chunk, so that no
    sum runs over more than s = (_BLOCK + 1) w rows.  A window is dropped
    when some window's lower bound beats its upper bound (it cannot be the
    best), or when an earlier window's lower bound reaches its upper bound
    (the scan keeps the first of equal scores, so it cannot win).

    Let v and u be the unit roundoffs of the vectors' dtype and of float64,
    eta the dtype's smallest subnormal and g_k(x) = k x / (1 - k x).  For a
    window of width w in dimension d with exact sum S, sum of row norms Q,
    claim vector c, and M the sum of row norms of its chunk:

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
    zero, is always rescored.  So is every live window when squares of the
    vectors could overflow.

    ``extract_snippet`` marks windows live with the ceiling of
    ``_cosine_ceiling``, C = 1 + 4 g_3d(v) + 8u: the cosine that
    ``_window_score`` computes for any window is at most C, so a window
    whose fl(bow * C) is below a floor scores below it too, since rounding
    is monotone and bow >= 0.  C holds under a guard, for N the dtype's
    smallest normal number, p its precision in bits and L = sqrt(max) /
    (2 (w + d)):

    * every nonzero matrix component is at least T = 2^(p+1) w sqrt(N) in
      magnitude, and none exceeds L;
    * every nonzero component of c is at least sqrt(N), and none exceeds L;
    * 3 d v <= 2^-10.

    Proof.  Every dtype value of magnitude at least T is a multiple of q,
    the spacing of the floats in T's binade, and q > T 2^-p = 2 w sqrt(N).
    A rounded sum of multiples of q is one too (below T's binade such sums
    are exact), so a window sum is 0 or at least q, and each component of
    the mean m, its rounded quotient by w, is 0 or at least 2 sqrt(N).  So
    every nonzero product c_i m_i, c_i^2 and m_i^2 is a normal number.  L
    keeps every sum and product at most a quarter of the dtype's largest
    value.  A dot product a.b of two such vectors, in any order and with
    or without fused multiply-adds, is then off by at most g_d(v) sum
    |a_i b_i| + d eta / 2, where the second term covers fused results that
    round into the subnormal range.  As |a| |b| >= N when both are
    nonzero, and eta / N = 2v, it lies within g_3d(v) |a| |b| of a.b.  With
    g = g_3d(v), the computed cosine is then at most (1 + u)(1 + g) /
    ((1 - u)^3 (1 - g)), by Cauchy-Schwarz, two square roots, a product and
    a division in float64; or exactly 0 when a norm is 0.  That is below
    1 + 2 (2 g + 4 u), since g, u <= 2^-10 keep the second-order terms
    under the first-order ones, and the same slack covers the rounding of
    C.  Without the guard a subnormal m_i^2 can round down to zero, and the
    computed cosine then exceeds 1.
    """
    starts = np.flatnonzero(live)
    if not claim_vec.any():
        return starts[:1].tolist()  # every cosine is exactly 0.0: the first wins

    d = claim_vec.shape[0]
    info = np.finfo(chunks[0][1].dtype)
    v, eta = float(info.eps) / 2, float(info.smallest_subnormal)
    u = float(np.finfo(np.float64).eps) / 2
    claim64 = claim_vec.astype(np.float64)
    claim_norm = np.sqrt(claim64 @ claim64)
    limit = math.sqrt(float(info.max)) / (2 * max(len(rows) for _, rows in chunks))
    if not claim_norm <= limit:
        return starts.tolist()

    dots, lengths, mass, chunk_mass = (np.zeros(len(bow)) for _ in range(4))
    for first, rows in chunks:
        count = len(rows) - width + 1
        stop = first + count
        row_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        if not row_norms.max() <= limit:
            return starts.tolist()
        # The sums run on complex lanes, two columns to an add: a complex
        # add is exactly two float64 adds, so the sums keep their bits.
        lanes = np.zeros((len(rows) + 1, d + d % 2))
        lanes[1:, :d] = rows
        pairs = lanes.view(np.complex128)
        np.cumsum(pairs[1:], axis=0, out=pairs[1:])
        sums = (pairs[width:] - pairs[:count]).view(np.float64)[:, :d]
        dots[first:stop] = sums @ claim64
        lengths[first:stop] = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        norm_sums = np.zeros(len(rows) + 1)
        np.cumsum(row_norms, dtype=np.float64, out=norm_sums[1:])
        mass[first:stop] = norm_sums[width:] - norm_sums[:count]
        chunk_mass[first:stop] = norm_sums[-1]

    dots, lengths, mass, chunk_mass, bow = (
        a[starts] for a in (dots, lengths, mass, chunk_mass, bow))
    step = _BLOCK * width
    prefix_err = 2 * _gamma(step + width, u) * chunk_mass
    sum_low = lengths * (1 - _gamma(d + 2, u)) - prefix_err
    mean_err = (_gamma(width, v) * (mass + prefix_err + width * math.sqrt(d * eta))
                / width + math.sqrt(d) * eta)
    mean_low = sum_low / width - mean_err
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    return starts[(high >= low.max()) & (high > earlier)].tolist()


def extract_snippet(claim_tokens: list[str], article_tokens: list[str],
                    embeddings: WordEmbeddings, delta: float = 0.5,
                    window: int = SNIPPET_WINDOW) -> Snippet | None:
    """Best claim-matching window of the article, or None below ``delta``.

    Every window start (stride one) is scored by the product of the
    fraction of distinct claim words present and the cosine between mean
    claim and mean window vectors; the earliest window wins ties.
    Articles shorter than the window are scored whole.  ``delta`` may be
    infinite (``-inf`` keeps every article, ``inf`` none) but not NaN.

    Cost is linear in the article length.  One pass over the claim words'
    positions gives every window's exact share first.  Where the vectors'
    magnitudes allow it, a proven ceiling on the cosine then bounds every
    window's score, and only windows whose bound reaches the floor
    (``delta``, or the score of the first window with the highest share if
    that is higher) stay live: an article with none gathers no token
    vector.  Only the runs of live windows are gathered, and prefix sums of
    their token vectors screen the live windows with a proven error bound;
    only those that may be the earliest best are rescored one by one.  The
    result equals the exhaustive stride-one scan bit for bit.
    """
    if window < 1:
        raise ContractError(f"snippet window must be at least 1, got {window}")
    if math.isnan(delta):
        raise ContractError("snippet delta must be a number, got NaN")
    claim_vec = claim_mean(claim_tokens, embeddings)
    if not article_tokens:
        return None
    width = min(window, len(article_tokens))
    bow = _window_shares(set(claim_tokens), article_tokens, width)
    live = np.ones(len(bow), dtype=bool)
    ceiling = _cosine_ceiling(claim_vec, embeddings, width)
    if ceiling is not None:
        reach = bow * ceiling
        if not reach.max() >= delta:
            return None
        top = int(np.argmax(bow))  # the first window with the highest share
        top_vecs = embeddings.matrix_for(article_tokens[top : top + width])
        floor = _window_score(bow[top], claim_vec, top_vecs, width, 0).sim
        live = reach >= max(delta, floor)
    step = _BLOCK * width
    chunks = []
    for first, stop in _live_runs(live, width):
        rows = embeddings.matrix_for(article_tokens[first : stop - 1 + width])
        chunks += [(at, rows[at - first : min(at + step, stop) - 1 + width - first])
                   for at in range(first, stop, step)]
    firsts = [at for at, _ in chunks]
    best: tuple[int, SnippetScore] | None = None
    for start in _candidate_starts(claim_vec, chunks, bow, live, width):
        at, rows = chunks[bisect_right(firsts, start) - 1]
        score = _window_score(bow[start], claim_vec, rows, width, start - at)
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


def _check_seed(seed: int) -> None:
    # numpy seeds generators from non-negative integers only.
    if seed < 0:
        raise ContractError(f"seed must be non-negative, got {seed}")


def make_folds(instances: list[ClaimInstance], seed: int,
               n_folds: int = 10) -> FoldPlan:
    """Shuffle claims, hold out a validation slice, deal the rest round-robin.

    Fold sizes differ by at most one.  Needs at least 2 folds and enough
    claims for one per fold after the holdout.
    """
    if n_folds < 2:
        raise ContractError(f"cross-validation needs at least 2 folds, got {n_folds}")
    _check_seed(seed)
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
