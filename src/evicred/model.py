"""Evidence-aware credibility model.

An article is read by a bidirectional LSTM over frozen word vectors.
Each direction holds one fused (4H, d+H) gate matrix and one (4H, 1)
bias whose row blocks run in ``GATES`` order (input, forget, output,
cell).  An attention head conditioned on the mean claim vector weighs
each article token, the weighted hidden states are averaged into an
article vector, and two relu layers fuse that vector with trainable
embeddings of the claim source (when the corpus has one) and the article
source.  The head is a sigmoid for binary credibility, a softmax for more
classes, or a linear unit for regression targets.  Per-article scores are
averaged into a per-claim credibility after training, never during it.

(claim, article) pairs are scored in chunks.  A chunk of B pairs is
padded to its longest article: word vectors are (T, B, d), a (T, B)
length mask marks the real tokens, the encoder returns (2H, T*B)
step-major states (column t*B + b is token t of pair b), and everything
after it works column-wise on (features, B) matrices.  Padding gets zero
attention weight, and the pooled vector divides by the real length, so a
pair's score does not depend on what it was batched with beyond the last
bits of rounding.  Training and ``claim_score`` both cut their pairs into
chunks of at most ``CHUNK_TOKENS`` padded tokens, so memory grows with
that budget.  ``claim_score`` takes a claim's articles in a canonical
order (shortest first, then by tokens and source), so its result is
bit-identical under any article order.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .embeddings import SourceEmbeddingTable, WordEmbeddings, claim_mean
from .errors import ContractError, DegenerateInputError, ParseError, ShapeError
from .numeric import (
    Tensor,
    add,
    affine,
    bilstm,
    glorot_uniform,
    matmul,
    mul_const,
    relu,
    reshape,
    sigmoid,
    slice_rows,
    softmax,
    step_weighted_sum,
    take_rows,
    tanh,
    transpose,
    vstack,
)

__all__ = [
    "GATES",
    "CHUNK_TOKENS",
    "Pair",
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
# Padded tokens per chunk of pairs.  Peak memory, not speed, caps it: a
# training chunk's forward and backward take about 7 KB per padded token
# at the snopes sizes (d=100, H=64), and scoring about 6 KB.
CHUNK_TOKENS = 800


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


class Pair(NamedTuple):
    """One (claim, article) example as the model reads it."""

    claim_tokens: list[str]
    article_tokens: list[str]
    claim_source: str | None
    article_source: str | None

    @classmethod
    def of(cls, instance) -> list["Pair"]:
        """One pair per article of a claim instance, in article order."""
        return [cls(instance.claim_tokens, tokens, instance.claim_source, source)
                for tokens, source in zip(instance.articles, instance.article_sources)]


@dataclass
class ForwardTrace:
    """Detached values of one article pass, kept for explanations.

    The arrays are views into the arrays of the chunk the article was
    scored in.
    """

    tokens: list[str]
    attention_weights: np.ndarray  # (k,)
    article_vec: np.ndarray     # (2H,)
    score: float | np.ndarray


def _chunk_spans(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """(start, stop) bounds of consecutive chunks within ``CHUNK_TOKENS``.

    ``lengths`` are the articles' token counts.  A chunk of B articles
    pads to its longest, so it costs B times that length; an article
    longer than the budget gets a chunk alone.
    """
    spans: list[tuple[int, int]] = []
    start, longest = 0, 0
    for i, k in enumerate(lengths):
        longest = max(longest, k)
        if i > start and (i - start + 1) * longest > CHUNK_TOKENS:
            spans.append((start, i))
            start, longest = i, k
    return spans + [(start, len(lengths))]


def _as_batch(embeds: np.ndarray, word_dim: int) -> np.ndarray:
    """(T, B, d) word vectors; a single (k, d) article is a batch of one."""
    if embeds.ndim == 2:
        embeds = embeds[:, None, :]
    if embeds.ndim != 3 or embeds.shape[0] == 0 or embeds.shape[1] == 0:
        raise DegenerateInputError("cannot encode an empty article")
    if embeds.shape[2] != word_dim:
        raise ShapeError(
            f"embeddings are {embeds.shape[2]}-dimensional, model expects {word_dim}")
    return embeds


def bilstm_encode(embeds: np.ndarray, params: ModelParams,
                  lengths: np.ndarray | None = None) -> Tensor:
    """Hidden states as one (2H, T*B) tensor: forward half over backward half.

    ``embeds`` is (T, B, d) with item b padded after ``lengths[b]`` tokens
    (all T when omitted), or one (k, d) article, which gives (2H, k).
    Column t*B + b sees tokens 1..t of item b through the forward half and
    tokens t..k through the backward half; both directions start from zero
    states.  Columns of padding tokens are zero.
    """
    embeds = _as_batch(embeds, params.hyper.word_dim)
    steps, batch, _ = embeds.shape
    if lengths is None:
        lengths = np.full(batch, steps)
    return bilstm(embeds, lengths, params.lstm_fw_w, params.lstm_fw_b,
                  params.lstm_bw_w, params.lstm_bw_b)


def attend(embeds: np.ndarray, claim_vecs: np.ndarray, params: ModelParams,
           mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Claim-conditioned token weights.

    Each word vector is scored against its item's mean claim vector by a
    learned linear-tanh unit and the scores are normalized by a masked
    softmax down each item's column.  ``embeds`` is (T, B, d) and
    ``claim_vecs`` (B, d), or one (k, d) article and a (d,) claim vector.
    ``mask`` flags the real tokens, (T, B) or (k,).  Returns (weights, raw
    scores), both (T, B).  ``attention_w`` is applied as its word half and
    its claim half, which adds up to the score of [x; claim] without
    building that matrix.
    """
    dim = params.hyper.word_dim
    embeds = _as_batch(embeds, dim)
    steps, batch, _ = embeds.shape
    w = transpose(params.attention_w)
    words = matmul(Tensor(embeds.reshape(steps * batch, dim)), slice_rows(w, 0, dim))
    claims = matmul(Tensor(np.asarray(claim_vecs).reshape(batch, dim)),
                    slice_rows(w, dim, 2 * dim))
    pre = add(add(reshape(words, steps, batch), transpose(claims)), params.attention_b)
    scores = tanh(pre)
    return softmax(scores, mask), scores


def article_vector(hidden: Tensor, weights: Tensor,
                   lengths: np.ndarray | None = None) -> Tensor:
    """Average of attention-weighted hidden states per item: (2H, B).

    Item b's vector is sum_t weights[t, b] * h[:, t*B + b] / lengths[b];
    ``lengths`` defaults to all T rows of ``weights``.
    """
    steps, batch = weights.shape
    if hidden.cols != steps * batch:
        raise ShapeError(f"{hidden.cols} hidden states but {steps} x {batch} weights")
    if lengths is None:
        lengths = np.full(batch, steps)
    inv = (1.0 / np.asarray(lengths, dtype=np.float64)).astype(hidden.data.dtype)
    return affine(step_weighted_sum(hidden, weights), inv.reshape(1, batch))


def _dropout_factors(hyper: Hyperparams, batch: int, rng: np.random.Generator | None,
                     dtype) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Inverted-dropout factors for fc1 and fc2, each (fc, B), or None.

    One draw of (B, 2, fc) in pair order gives each pair its fc1 mask and
    then its fc2 mask, the stream that scoring one pair at a time draws.
    """
    if rng is None or hyper.dropout <= 0.0:
        return None, None
    draws = rng.random((batch, 2, hyper.fc_size))
    return tuple((draws[:, n, :].T >= hyper.dropout).astype(dtype)
                 / (1.0 - hyper.dropout) for n in (0, 1))


def score_article(article_vec: Tensor, claim_source_vec: Tensor | None,
                  article_source_vec: Tensor, params: ModelParams, *,
                  dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Fuse evidence and source embeddings into a credibility score.

    Inputs hold one column per item, and so does the score: a sigmoid
    probability for two classes, a softmax distribution for more, and a
    raw linear value for regression.
    Dropout fires only when a generator is supplied.
    """
    hyper = params.hyper
    pieces = [article_vec]
    if params.claim_sources is not None:
        if claim_source_vec is None:
            raise ContractError("model fuses a claim source but none was supplied")
        pieces.append(claim_source_vec)
    pieces.append(article_source_vec)
    features = vstack(pieces)
    keep1, keep2 = _dropout_factors(hyper, article_vec.cols, dropout_rng,
                                    article_vec.data.dtype)
    fc1 = relu(add(matmul(params.fuse1_w, features), params.fuse1_b))
    fc1_live = fc1 if keep1 is None else mul_const(fc1, keep1)
    fc2 = relu(add(matmul(params.fuse2_w, fc1_live), params.fuse2_b))
    fc2_live = fc2 if keep2 is None else mul_const(fc2, keep2)
    logits = add(matmul(params.head_w, fc2_live), params.head_b)
    if hyper.mode == "regress":
        out = logits
    elif hyper.classes == 2:
        out = sigmoid(logits)
    else:
        out = softmax(logits)
    return out


def _source_columns(table: SourceEmbeddingTable, names: list[str | None]) -> Tensor:
    """Embeddings of the named sources, one column per name."""
    return transpose(take_rows(table.tensor, [table.index(n) for n in names]))


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

    def article_score(self, pairs: Sequence[Pair], *,
                      dropout_rng: np.random.Generator | None = None
                      ) -> tuple[Tensor, list[ForwardTrace]]:
        """Score a chunk of pairs in one padded pass.

        Returns the (rows, B) scores, column b for ``pairs[b]``, and one
        trace per pair.
        """
        if not pairs:
            raise DegenerateInputError("no pairs to score")
        params = self.params
        emb = self.word_embeddings
        dtype = params.head_w.data.dtype
        rows = [emb.matrix_for(p.article_tokens) for p in pairs]
        lengths = np.array([len(r) for r in rows])
        steps, batch = int(lengths.max()), len(pairs)
        embeds = np.zeros((steps, batch, self.hyper.word_dim), dtype=dtype)
        for b, r in enumerate(rows):
            embeds[:len(r), b] = r
        mask = np.arange(steps)[:, None] < lengths
        claim_vecs = np.stack([claim_mean(p.claim_tokens, emb) for p in pairs])

        hidden = bilstm_encode(embeds, params, lengths)
        weights, _ = attend(embeds, claim_vecs.astype(dtype, copy=False),
                            params, mask)
        g = article_vector(hidden, weights, lengths)
        claim_src = None
        if params.claim_sources is not None:
            claim_src = _source_columns(params.claim_sources,
                                        [p.claim_source for p in pairs])
        article_src = _source_columns(params.article_sources,
                                      [p.article_source for p in pairs])
        out = score_article(g, claim_src, article_src, params,
                            dropout_rng=dropout_rng)

        traces = [
            ForwardTrace(
                tokens=list(p.article_tokens),
                attention_weights=weights.data[:k, b],
                article_vec=g.data[:, b],
                score=(out.data[:, b] if out.rows > 1 else float(out.data[0, b])),
            )
            for b, (p, k) in enumerate(zip(pairs, lengths))]
        return out, traces

    def claim_score(self, instance) -> tuple[float | np.ndarray, list[ForwardTrace]]:
        """Credibility of a claim: plain mean of its per-article scores.

        The articles are scored in a canonical order, in chunks within
        ``CHUNK_TOKENS``, so every score, and thus the result, is the same
        bits under any article order; traces come in the instance's order.
        """
        pairs = Pair.of(instance)
        order = sorted(range(len(pairs)), key=lambda i: (
            len(pairs[i].article_tokens), pairs[i].article_tokens,
            pairs[i].article_source is not None, pairs[i].article_source or ""))
        ranked: list[ForwardTrace] = []
        for lo, hi in _chunk_spans([len(pairs[i].article_tokens) for i in order]):
            ranked += self.article_score([pairs[i] for i in order[lo:hi]])[1]
        traces = [ranked[r] for r in np.argsort(order)]
        per_article = [t.score for t in traces]
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
