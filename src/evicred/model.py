"""Evidence-aware credibility model.

An article is read by a bidirectional LSTM over frozen word vectors.
Each direction holds one fused (4H, d+H) gate matrix and one (4H, 1)
bias whose row blocks run in ``GATES`` order (input, forget, output,
cell), so a step is one matmul and add on [x; h] plus row slices.  The
encoder returns the article's hidden states as one (2H, k) matrix.  An
attention head conditioned on the mean claim vector weighs each article
token, the weighted hidden states are averaged into an article vector,
and two relu layers fuse that vector with trainable embeddings of the
claim source (when the corpus has one) and the article source.  The head
is a sigmoid for binary credibility, a softmax for more classes, or a
linear unit for regression targets.  Per-article scores are averaged into
a per-claim credibility after training, never during it.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .embeddings import SourceEmbeddingTable, WordEmbeddings, claim_mean
from .errors import ContractError, DegenerateInputError, ParseError, ShapeError
from .numeric import (
    Tensor,
    add,
    affine,
    glorot_uniform,
    hstack,
    matmul,
    mul,
    mul_const,
    relu,
    sigmoid,
    slice_rows,
    softmax,
    tanh,
    transpose,
    vstack,
)

__all__ = [
    "GATES",
    "Hyperparams",
    "ModelParams",
    "ForwardTrace",
    "bilstm_encode",
    "attend",
    "article_vector",
    "score_article",
    "CredibilityModel",
    "aggregate",
    "aggregate_class_probs",
    "verdict",
    "save_checkpoint",
    "load_checkpoint",
]

MODES = ("classify", "regress")
# Row-block order of each fused LSTM gate matrix and bias.
GATES = ("input", "forget", "output", "cell")


@dataclass(frozen=True)
class Hyperparams:
    """Architecture sizes and the output mode.

    ``claim_source_dim`` of None means the corpus carries no claim
    source and the fusion layer sees only the article vector and the
    article-source embedding.
    """

    word_dim: int
    hidden_size: int
    fc_size: int
    article_source_dim: int
    claim_source_dim: int | None = None
    dropout: float = 0.0
    mode: str = "classify"
    classes: int = 2

    def __post_init__(self):
        for name in ("word_dim", "hidden_size", "fc_size", "article_source_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.claim_source_dim is not None and self.claim_source_dim < 1:
            raise ContractError("claim_source_dim must be at least 1 or None")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must lie in [0, 1)")
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}")
        if self.mode == "classify" and self.classes < 2:
            raise ContractError("classification needs at least 2 classes")

    @property
    def fusion_input_dim(self) -> int:
        extra = self.claim_source_dim or 0
        return 2 * self.hidden_size + extra + self.article_source_dim

    @property
    def head_rows(self) -> int:
        if self.mode == "classify" and self.classes > 2:
            return self.classes
        return 1


def _lstm_direction(hyper: Hyperparams, rng: np.random.Generator, prefix: str,
                    dtype) -> tuple[Tensor, Tensor]:
    """Fused gate weights (4H, d+H) and bias (4H, 1) of one LSTM direction.

    Each gate block is its own Glorot draw of an H x (d+H) matrix, so the
    fan, and the draws themselves, match four separate gate matrices.
    """
    h, cols = hyper.hidden_size, hyper.word_dim + hyper.hidden_size
    w = np.vstack([glorot_uniform(h, cols, rng, dtype) for _ in GATES])
    b = np.zeros((len(GATES) * h, 1), dtype=dtype)
    # Forget bias starts at one so early training keeps cell state.
    b[h:2 * h] = 1.0
    return (Tensor(w, requires_grad=True, name=f"{prefix}_w"),
            Tensor(b, requires_grad=True, name=f"{prefix}_b"))


class ModelParams:
    """Every trainable tensor of one model, including the source tables."""

    def __init__(self, hyper: Hyperparams, rng: np.random.Generator, *,
                 article_sources: SourceEmbeddingTable,
                 claim_sources: SourceEmbeddingTable | None = None,
                 dtype=np.float64):
        if (hyper.claim_source_dim is None) != (claim_sources is None):
            raise ContractError(
                "claim_sources must be given exactly when claim_source_dim is set")
        if claim_sources is not None and claim_sources.dim != hyper.claim_source_dim:
            raise ShapeError(
                f"claim source table dim {claim_sources.dim} != {hyper.claim_source_dim}")
        if article_sources.dim != hyper.article_source_dim:
            raise ShapeError(
                f"article source table dim {article_sources.dim} != "
                f"{hyper.article_source_dim}")
        self.hyper = hyper
        self.lstm_fw_w, self.lstm_fw_b = _lstm_direction(hyper, rng, "lstm_fw", dtype)
        self.lstm_bw_w, self.lstm_bw_b = _lstm_direction(hyper, rng, "lstm_bw", dtype)
        self.attention_w = Tensor(glorot_uniform(1, 2 * hyper.word_dim, rng, dtype),
                                  requires_grad=True, name="attention_w")
        self.attention_b = Tensor(np.zeros((1, 1), dtype=dtype),
                                  requires_grad=True, name="attention_b")
        self.fuse1_w = Tensor(glorot_uniform(hyper.fc_size, hyper.fusion_input_dim,
                                             rng, dtype),
                              requires_grad=True, name="fuse1_w")
        self.fuse1_b = Tensor(np.zeros((hyper.fc_size, 1), dtype=dtype),
                              requires_grad=True, name="fuse1_b")
        self.fuse2_w = Tensor(glorot_uniform(hyper.fc_size, hyper.fc_size, rng, dtype),
                              requires_grad=True, name="fuse2_w")
        self.fuse2_b = Tensor(np.zeros((hyper.fc_size, 1), dtype=dtype),
                              requires_grad=True, name="fuse2_b")
        self.head_w = Tensor(glorot_uniform(hyper.head_rows, hyper.fc_size, rng, dtype),
                             requires_grad=True, name="head_w")
        self.head_b = Tensor(np.zeros((hyper.head_rows, 1), dtype=dtype),
                             requires_grad=True, name="head_b")
        self.claim_sources = claim_sources
        self.article_sources = article_sources

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for t in (self.lstm_fw_w, self.lstm_fw_b, self.lstm_bw_w, self.lstm_bw_b,
                  self.attention_w, self.attention_b, self.fuse1_w, self.fuse1_b,
                  self.fuse2_w, self.fuse2_b, self.head_w, self.head_b):
            out[t.name] = t
        if self.claim_sources is not None:
            out["claim_source_table"] = self.claim_sources.tensor
        out["article_source_table"] = self.article_sources.tensor
        return out

    def regularized(self) -> list[Tensor]:
        """The matrices under L2: both fusion layers and the head."""
        return [self.fuse1_w, self.fuse2_w, self.head_w]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.named().items():
            t.data = snap[name].copy()


@dataclass
class ForwardTrace:
    """Detached values of one article pass, kept for explanations."""

    tokens: list[str]
    hidden: np.ndarray          # (k, 2H)
    attention_scores: np.ndarray  # (k,)
    attention_weights: np.ndarray  # (k,)
    article_vec: np.ndarray     # (2H,)
    fc1: np.ndarray
    fc2: np.ndarray
    score: float | np.ndarray


def _lstm_pass(embeds: np.ndarray, w: Tensor, b: Tensor) -> list[Tensor]:
    """One direction over the rows of ``embeds``; one (H, 1) state per row."""
    size = w.rows // len(GATES)
    dtype = w.data.dtype
    h = Tensor(np.zeros((size, 1), dtype=dtype))
    c = Tensor(np.zeros((size, 1), dtype=dtype))
    states: list[Tensor] = []
    for x_t in embeds:
        x = Tensor(x_t.reshape(-1, 1).astype(dtype, copy=False))
        gates = add(matmul(w, vstack([x, h])), b)
        i, f, o = (sigmoid(slice_rows(gates, n * size, (n + 1) * size))
                   for n in range(3))
        candidate = tanh(slice_rows(gates, 3 * size, 4 * size))
        c = add(mul(f, c), mul(i, candidate))
        h = mul(o, tanh(c))
        states.append(h)
    return states


def bilstm_encode(embeds: np.ndarray, params: ModelParams) -> Tensor:
    """Hidden states as one (2H, k) tensor: forward half over backward half.

    Column t sees tokens 1..t through the forward half and tokens t..k
    through the backward half; both directions start from zero states.
    """
    if embeds.ndim != 2 or embeds.shape[0] == 0:
        raise DegenerateInputError("cannot encode an empty article")
    if embeds.shape[1] != params.hyper.word_dim:
        raise ShapeError(
            f"embeddings are {embeds.shape[1]}-dimensional, model expects "
            f"{params.hyper.word_dim}")
    forward = _lstm_pass(embeds, params.lstm_fw_w, params.lstm_fw_b)
    backward = _lstm_pass(embeds[::-1], params.lstm_bw_w, params.lstm_bw_b)
    backward.reverse()
    return vstack([hstack(forward), hstack(backward)])


def attend(embeds: np.ndarray, claim_vec: np.ndarray, params: ModelParams,
           mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Claim-conditioned token weights.

    Each word vector is concatenated with the mean claim vector, squashed
    through a learned linear-tanh score, and normalized by a masked
    softmax.  Returns (weights, raw scores), both (k, 1).
    """
    k = embeds.shape[0]
    if k == 0:
        raise DegenerateInputError("cannot attend over an empty article")
    joined = np.hstack([embeds, np.tile(claim_vec.reshape(1, -1), (k, 1))])
    pre = add(matmul(params.attention_w, Tensor(joined.T)), params.attention_b)
    scores = transpose(tanh(pre))
    weights = softmax(scores, mask)
    return weights, scores


def article_vector(hidden: Tensor, weights: Tensor) -> Tensor:
    """Average of attention-weighted hidden states: (2H, k) @ (k, 1) / k."""
    if hidden.cols != weights.rows:
        raise ShapeError(f"{hidden.cols} hidden states but {weights.rows} weights")
    return affine(matmul(hidden, weights), 1.0 / hidden.cols)


def _dropout(t: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or p <= 0.0:
        return t
    keep = (rng.random(t.shape) >= p).astype(t.data.dtype)
    return mul_const(t, keep / (1.0 - p))


def score_article(article_vec: Tensor, claim_source_vec: Tensor | None,
                  article_source_vec: Tensor, params: ModelParams, *,
                  dropout_rng: np.random.Generator | None = None
                  ) -> tuple[Tensor, Tensor, Tensor]:
    """Fuse evidence and source embeddings into a credibility score.

    Returns (score, fc1, fc2); the score is a sigmoid probability for two
    classes, a softmax column for more, and a raw linear value for
    regression.  Dropout fires only when a generator is supplied.
    """
    hyper = params.hyper
    pieces = [article_vec]
    if params.claim_sources is not None:
        if claim_source_vec is None:
            raise ContractError("model fuses a claim source but none was supplied")
        pieces.append(claim_source_vec)
    pieces.append(article_source_vec)
    features = vstack(pieces)
    fc1 = relu(add(matmul(params.fuse1_w, features), params.fuse1_b))
    fc1_live = _dropout(fc1, hyper.dropout, dropout_rng)
    fc2 = relu(add(matmul(params.fuse2_w, fc1_live), params.fuse2_b))
    fc2_live = _dropout(fc2, hyper.dropout, dropout_rng)
    logits = add(matmul(params.head_w, fc2_live), params.head_b)
    if hyper.mode == "regress":
        out = logits
    elif hyper.classes == 2:
        out = sigmoid(logits)
    else:
        out = softmax(logits)
    return out, fc1, fc2


class CredibilityModel:
    """Bundles hyperparameters, trainable tensors, and frozen word vectors."""

    def __init__(self, hyper: Hyperparams, params: ModelParams,
                 word_embeddings: WordEmbeddings):
        if word_embeddings.dim != hyper.word_dim:
            raise ShapeError(
                f"word vectors are {word_embeddings.dim}-dimensional, model "
                f"expects {hyper.word_dim}")
        self.hyper = hyper
        self.params = params
        self.word_embeddings = word_embeddings

    def article_score(self, claim_tokens: list[str], article_tokens: list[str],
                      claim_source: str | None, article_source: str | None, *,
                      dropout_rng: np.random.Generator | None = None
                      ) -> tuple[Tensor, ForwardTrace]:
        """Score one article against one claim; also returns the trace."""
        params = self.params
        embeds = self.word_embeddings.matrix_for(article_tokens)
        claim_vec = claim_mean(claim_tokens, self.word_embeddings)
        hidden = bilstm_encode(embeds, params)
        weights, scores = attend(embeds, claim_vec, params)
        g = article_vector(hidden, weights)
        claim_vec_t = None
        if params.claim_sources is not None:
            i = params.claim_sources.index(claim_source)
            claim_vec_t = transpose(slice_rows(params.claim_sources.tensor, i, i + 1))
        j = params.article_sources.index(article_source)
        source_vec_t = transpose(slice_rows(params.article_sources.tensor, j, j + 1))
        out, fc1, fc2 = score_article(g, claim_vec_t, source_vec_t, params,
                                      dropout_rng=dropout_rng)
        trace = ForwardTrace(
            tokens=list(article_tokens),
            hidden=hidden.data.T.copy(),
            attention_scores=scores.data[:, 0].copy(),
            attention_weights=weights.data[:, 0].copy(),
            article_vec=g.data[:, 0].copy(),
            fc1=fc1.data[:, 0].copy(),
            fc2=fc2.data[:, 0].copy(),
            score=(out.data[:, 0].copy() if out.rows > 1 else float(out.data[0, 0])),
        )
        return out, trace

    def claim_score(self, instance) -> tuple[float | np.ndarray, list[ForwardTrace]]:
        """Credibility of a claim: plain mean of its per-article scores."""
        per_article = []
        traces = []
        for i, tokens in enumerate(instance.articles):
            out, trace = self.article_score(
                instance.claim_tokens, tokens, instance.claim_source,
                instance.article_sources[i])
            per_article.append(trace.score)
            traces.append(trace)
        if self.hyper.mode == "classify" and self.hyper.classes > 2:
            return aggregate_class_probs(per_article), traces
        return aggregate(per_article), traces


def aggregate(scores: Sequence[float]) -> float:
    """Mean per-article score; exact summation keeps it order-independent."""
    if len(scores) == 0:
        raise DegenerateInputError("no article scores to aggregate")
    return math.fsum(float(s) for s in scores) / len(scores)


def aggregate_class_probs(prob_rows: Sequence[np.ndarray]) -> np.ndarray:
    if len(prob_rows) == 0:
        raise DegenerateInputError("no article scores to aggregate")
    k = len(prob_rows[0])
    return np.array([
        math.fsum(float(p[i]) for p in prob_rows) / len(prob_rows)
        for i in range(k)
    ])


def verdict(credibility: float) -> int:
    """Binary decision at the 0.5 threshold; 1 means credible."""
    return 1 if credibility >= 0.5 else 0


# --- checkpoints ------------------------------------------------------------

_MAGIC = b"EVCR"
_VERSION = 2
_HEADER_KEYS = ("hyper", "vocab_hash", "arrays", "article_sources", "claim_sources")
_ARRAY_KEYS = ("name", "shape", "dtype")
_DTYPE_CODES = {"float32": np.float32, "float64": np.float64}


def save_checkpoint(path: str, params: ModelParams, vocab_hash: str) -> None:
    """Write a self-describing binary checkpoint.

    Layout: magic, version, header length, JSON header, then every array
    raw in row-major order, each LSTM direction as its fused gate matrix
    and bias.  The writer emits no timestamps, so equal models produce
    byte-identical files.
    """
    named = params.named()
    header = {
        "version": _VERSION,
        "hyper": asdict(params.hyper),
        "vocab_hash": vocab_hash,
        "arrays": [
            {"name": name, "shape": list(t.shape), "dtype": str(t.data.dtype)}
            for name, t in named.items()
        ],
        "article_sources": params.article_sources.sources,
        "claim_sources": (None if params.claim_sources is None
                          else params.claim_sources.sources),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for t in named.values():
            fh.write(np.ascontiguousarray(t.data).tobytes())


def _read_header(fh, path: str) -> dict:
    if fh.read(4) != _MAGIC:
        raise ParseError(f"{path}: not a checkpoint file")
    preamble = fh.read(8)
    if len(preamble) != 8:
        raise ParseError(f"{path}: truncated checkpoint preamble")
    version, header_len = struct.unpack("<II", preamble)
    if version != _VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    blob = fh.read(header_len)
    if len(blob) != header_len:
        raise ParseError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # covers both bad UTF-8 and bad JSON
        raise ParseError(f"{path}: checkpoint header is not UTF-8 JSON") from e
    _require_keys(header, _HEADER_KEYS, path)
    if not isinstance(header["arrays"], list):
        raise ParseError(f"{path}: checkpoint header 'arrays' is not a list")
    for spec in header["arrays"]:
        _require_keys(spec, _ARRAY_KEYS, path)
    return header


def _require_keys(entry, keys: tuple[str, ...], path: str) -> None:
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: checkpoint header entry is not a JSON object")
    for key in keys:
        if key not in entry:
            raise ParseError(f"{path}: checkpoint header lacks {key!r}")


def load_checkpoint(path: str) -> tuple[ModelParams, str]:
    """Rebuild model parameters from a checkpoint; bit-exact round trip."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        arrays: dict[str, np.ndarray] = {}
        for spec in header["arrays"]:
            dtype = _DTYPE_CODES.get(spec["dtype"])
            if dtype is None:
                raise ParseError(f"{path}: unknown dtype {spec['dtype']!r}")
            shape = tuple(spec["shape"])
            count = int(np.prod(shape))
            raw = fh.read(count * np.dtype(dtype).itemsize)
            if len(raw) != count * np.dtype(dtype).itemsize:
                raise ParseError(f"{path}: truncated array {spec['name']!r}")
            arrays[spec["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise ParseError(f"{path}: unexpected bytes after the last array")

    hyper = Hyperparams(**header["hyper"])
    dtype = arrays["article_source_table"].dtype
    article_table = SourceEmbeddingTable(
        header["article_sources"], arrays["article_source_table"],
        "article_source_table")
    claim_table = None
    if header["claim_sources"] is not None:
        claim_table = SourceEmbeddingTable(
            header["claim_sources"], arrays["claim_source_table"],
            "claim_source_table")
    params = ModelParams(hyper, np.random.default_rng(0),
                         article_sources=article_table,
                         claim_sources=claim_table, dtype=dtype)
    for name, t in params.named().items():
        if name not in arrays:
            raise ParseError(f"{path}: checkpoint is missing array {name!r}")
        if tuple(arrays[name].shape) != t.shape:
            raise ParseError(
                f"{path}: array {name!r} has shape {arrays[name].shape}, "
                f"expected {t.shape}")
        t.data = arrays[name]
    return params, header["vocab_hash"]
