"""Brute-force reference for snippet selection.

Scores every stride-one window independently: the lexical part from a
fresh set per window, the semantic part from the window's vectors summed
in extended precision.  It shares no arithmetic with
``evicred.corpus.extract_snippet``, so a faster rewrite of that function
can be checked against it.  Windows whose scores differ by less than
``TIE`` count as tied, so rounding alone never fails a check.
"""
from __future__ import annotations

import numpy as np

TIE = 1e-12


def window_scores(claim_tokens: list[str], article_tokens: list[str],
                  embeddings, window: int) -> list[float]:
    """Relevance of every window start: distinct-claim-word share x cosine."""
    vectors = np.array([embeddings.vector(t) for t in article_tokens],
                       dtype=np.longdouble)
    claim_vec = np.array([embeddings.vector(t) for t in claim_tokens],
                         dtype=np.longdouble).sum(axis=0) / len(claim_tokens)
    claim_norm = np.sqrt((claim_vec * claim_vec).sum())
    claim_types = set(claim_tokens)
    width = min(window, len(article_tokens))
    scores = []
    for start in range(len(article_tokens) - width + 1):
        bow = len(claim_types & set(article_tokens[start : start + width])) \
            / len(claim_types)
        mean = vectors[start : start + width].sum(axis=0) / width
        norm = np.sqrt((mean * mean).sum())
        cosine = 0.0 if claim_norm == 0 or norm == 0 \
            else float((claim_vec * mean).sum() / (claim_norm * norm))
        scores.append(bow * cosine)
    return scores


def snippet_disagreement(claim_tokens: list[str], article_tokens: list[str],
                         embeddings, delta: float, window: int,
                         chosen_start: int | None) -> str | None:
    """Why ``chosen_start`` (None: article dropped) is wrong, or None if right.

    Right means: the drop decision matches ``best < delta`` unless the best
    score is within TIE of delta, and a kept start scores within TIE of the
    best.  Which of several near-tied windows wins is left to rounding.
    """
    scores = window_scores(claim_tokens, article_tokens, embeddings, window)
    best = max(scores)
    near_delta = abs(best - delta) < TIE
    if chosen_start is None:
        if best >= delta and not near_delta:
            return f"dropped, but the best window scores {best!r} >= {delta}"
        return None
    if best < delta and not near_delta:
        return f"kept start {chosen_start}, but no window reaches {delta}"
    if not 0 <= chosen_start < len(scores):
        return f"start {chosen_start} outside 0..{len(scores) - 1}"
    if scores[chosen_start] < best - TIE:
        return (f"start {chosen_start} scores {scores[chosen_start]!r}, "
                f"best is {best!r} at {scores.index(best)}")
    return None
