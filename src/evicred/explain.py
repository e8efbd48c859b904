"""Human-readable evidence: attention highlights and 2-D projections.

Annotations pair each snippet token with its attention weight and are
rendered as ANSI text, an HTML fragment, or a lossless structured form.
Article vectors can also be projected onto their two main directions of
variation to eyeball how well the classes separate.
"""
from __future__ import annotations

import html as html_lib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, UsageError
from .model import ForwardTrace

__all__ = [
    "AttentionAnnotation",
    "annotate",
    "shade_buckets",
    "render",
    "annotation_from_structured",
    "Projection2D",
    "pca_project",
]

SHADE_LEVELS = 5
RENDER_FORMATS = ("ansi", "html", "structured")

# 8-bit background colors, weakest to strongest highlight.
_ANSI_BACKGROUNDS = (None, 230, 229, 228, 220)

_HTML_SHADES = ("transparent", "#fff7cc", "#ffee99", "#ffd24d", "#ff9d2e")


@dataclass
class AttentionAnnotation:
    """Tokens of one snippet with the weight the model put on each."""

    claim: str
    verdict: str
    source: str
    tokens: list[str]
    weights: list[float]

    def __post_init__(self):
        if len(self.tokens) != len(self.weights):
            raise ContractError(
                f"{len(self.tokens)} tokens but {len(self.weights)} weights")


def annotate(trace: ForwardTrace, verdict: str, claim: str,
             source: str) -> AttentionAnnotation:
    """Turn a forward trace into an annotation over its own snippet."""
    if len(trace.tokens) != len(trace.attention_weights):
        raise ContractError(
            f"trace holds {len(trace.tokens)} tokens but "
            f"{len(trace.attention_weights)} weights")
    return AttentionAnnotation(
        claim=claim,
        verdict=verdict,
        source=source,
        tokens=list(trace.tokens),
        weights=[float(w) for w in trace.attention_weights],
    )


def shade_buckets(weights: list[float], levels: int = SHADE_LEVELS) -> list[int]:
    """Quantile shade level per weight, 0 (faint) .. levels-1 (strong).

    A weight's level counts how many inner quantile cut points it strictly
    exceeds, so uniform weights all land in the bottom bucket and a single
    dominant weight owns the top one.
    """
    if not weights:
        raise DegenerateInputError("no weights to bucket")
    arr = np.asarray(weights, dtype=np.float64)
    cuts = np.percentile(arr, np.linspace(0, 100, levels + 1)[1:-1])
    return [int((w > cuts).sum()) for w in arr]


def _render_ansi(a: AttentionAnnotation) -> str:
    buckets = shade_buckets(a.weights)
    pieces = []
    for token, level in zip(a.tokens, buckets):
        code = _ANSI_BACKGROUNDS[level]
        if code is None:
            pieces.append(token)
        else:
            pieces.append(f"\x1b[48;5;{code}m\x1b[30m{token}\x1b[0m")
    header = f"claim: {a.claim}\nverdict: {a.verdict}  (source: {a.source})\n"
    return header + " ".join(pieces)


def _render_html(a: AttentionAnnotation) -> str:
    buckets = shade_buckets(a.weights)
    spans = []
    for token, weight, level in zip(a.tokens, a.weights, buckets):
        spans.append(
            f'<span style="background:{_HTML_SHADES[level]}" '
            f'title="{weight:.4f}">{html_lib.escape(token)}</span>')
    return (
        '<div class="annotation">'
        f"<p><strong>claim:</strong> {html_lib.escape(a.claim)}</p>"
        f"<p><strong>verdict:</strong> {html_lib.escape(a.verdict)} "
        f"<em>(source: {html_lib.escape(a.source)})</em></p>"
        f'<p class="snippet">{" ".join(spans)}</p>'
        "</div>"
    )


def _render_structured(a: AttentionAnnotation) -> str:
    # json round-trips float64 exactly via repr, so nothing is lost here.
    return json.dumps({
        "claim": a.claim,
        "verdict": a.verdict,
        "source": a.source,
        "tokens": a.tokens,
        "weights": a.weights,
    }, sort_keys=True)


def render(annotation: AttentionAnnotation, fmt: str) -> str:
    if fmt == "ansi":
        return _render_ansi(annotation)
    if fmt == "html":
        return _render_html(annotation)
    if fmt == "structured":
        return _render_structured(annotation)
    raise UsageError(f"unknown render format {fmt!r}; pick one of {RENDER_FORMATS}")


def annotation_from_structured(text: str) -> AttentionAnnotation:
    record = json.loads(text)
    return AttentionAnnotation(
        claim=record["claim"],
        verdict=record["verdict"],
        source=record["source"],
        tokens=list(record["tokens"]),
        weights=[float(w) for w in record["weights"]],
    )


# --- projection --------------------------------------------------------------

@dataclass
class Projection2D:
    """Points on the two main variance directions, strongest first."""

    points: list[tuple[float, float, str, str]]  # (x, y, label, name)
    explained: tuple[float, float]
    components: np.ndarray  # (2, dim)


def _signed(v: np.ndarray) -> np.ndarray:
    """``v`` or ``-v``, whichever has a positive largest-magnitude entry."""
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


def pca_project(vectors, names: list[str], labels: list[str]) -> Projection2D:
    """Project row vectors onto their top two principal directions.

    Directions are the top two eigenvectors of the centered covariance
    (``np.linalg.eigh``); each is signed so its largest-magnitude entry is
    positive, making the output reproducible run to run.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2:
        raise ContractError(f"expected a 2-D array of vectors, got shape {data.shape}")
    n, dim = data.shape
    if n < 3:
        raise DegenerateInputError(f"need at least 3 vectors, got {n}")
    if dim < 2:
        raise DegenerateInputError(f"need at least 2 dimensions, got {dim}")
    if len(names) != n or len(labels) != n:
        raise ContractError("names and labels must match the number of vectors")

    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DegenerateInputError("vectors have zero variance")

    eigvals, eigvecs = np.linalg.eigh(cov)
    comp1, comp2 = (_signed(eigvecs[:, i]) for i in (-1, -2))
    eig1, eig2 = float(eigvals[-1]), max(float(eigvals[-2]), 0.0)

    xs = centered @ comp1
    ys = centered @ comp2
    points = [(float(x), float(y), str(label), str(name))
              for x, y, label, name in zip(xs, ys, labels, names)]
    return Projection2D(
        points=points,
        explained=(eig1 / total, eig2 / total),
        components=np.vstack([comp1, comp2]),
    )
