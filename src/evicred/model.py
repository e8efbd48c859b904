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
bits of rounding.  Training cuts its pairs into chunks of at most
``CHUNK_TOKENS`` padded tokens and ``score_claims`` into passes of at most
``SCORE_TOKENS``, each article charged at least ``_SCORE_FLOOR`` tokens,
so memory grows with those budgets.  ``score_claims`` packs the pairs of
many claims into each pass, in a canonical order over whole pairs
(shortest article first, then by article tokens and source, then by claim
tokens and source), so its results are bit-identical under any claim or
article order; ``claim_score`` is that scorer on one claim.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import container
from .embeddings import SourceEmbeddingTable, WordEmbeddings, claim_mean
from .errors import ContractError, DegenerateInputError, ParseError, ShapeError
from .numeric import (
    Tensor,
    add,
    affine,
    bilstm,
    glorot_uniform,
    matmul,
    relu,
    reshape,
    sigmoid,
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
    "SCORE_TOKENS",
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
    "verdict",
    "save_checkpoint",
    "load_checkpoint",
]

MODES = ("classify", "regress")
# Row-block order of each fused LSTM gate matrix and bias.
GATES = ("input", "forget", "output", "cell")
# Padded tokens per training chunk of pairs.  Peak memory, not speed, caps
# it: a taped chunk's forward and backward peak at about 11.4 KB per padded
# token at the snopes sizes (d=100, H=64), most of it the encoder's (2, 4H)
# gates per token, which BPTT reads back.
CHUNK_TOKENS = 800
# Padded tokens per scoring pass of ``score_claims``, whose passes hold the
# articles of many claims.  An untaped pass keeps no gates beyond one
# projection block and one step slab, so it peaks at about 3.5 KB per padded
# token at the snopes sizes (5.6 to 5.8 MB for 1,600 tokens in 1 to 100
# articles, tracemalloc), under the 7.6 MB of an 800-token pass that kept
# every gate.  Fewer passes mean fewer serial LSTM steps.
SCORE_TOKENS = 1600
# Tokens each article is charged in the scoring budget, at least.  The
# encoder's step temporaries grow with a pass's width, so 1,600 one-token
# articles would peak at 24.2 MB; the floor caps a pass at 400 articles
# (9.0 MB at four tokens each).  Training chunks keep their plain lengths.
_SCORE_FLOOR = 4


@dataclass(frozen=True)
class Hyperparams:
    """Architecture sizes and the output mode.

    ``claim_source_dim`` of None means the corpus carries no claim
    source and the fusion layer sees only the article vector and the
    article-source embedding.  ``word_dim`` and ``vocab_limit`` describe
    the frozen input layer: the vector file's width, and how many of its
    rows the model reads (None for all).
    """

    word_dim: int
    hidden_size: int
    fc_size: int
    article_source_dim: int
    claim_source_dim: int | None = None
    dropout: float = 0.0
    mode: str = "classify"
    classes: int = 2
    vocab_limit: int | None = None

    def __post_init__(self):
        optional = ("claim_source_dim", "vocab_limit")
        for name in ("word_dim", "hidden_size", "fc_size", "article_source_dim",
                     "claim_source_dim", "classes", "vocab_limit"):
            value = getattr(self, name)
            if type(value) is not int and not (name in optional and value is None):
                raise ContractError(f"{name} must be an int, got {value!r}")
        for name in ("word_dim", "hidden_size", "fc_size", "article_source_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        for name in optional:
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1 or None")
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


# Section name of each source table -> the ``ModelParams`` attribute holding it.
_TABLES = {"claim_source_table": "claim_sources", "article_source_table": "article_sources"}


def _shapes(hyper: Hyperparams, article_rows: int,
            claim_rows: int | None) -> dict[str, tuple[int, int]]:
    """Name -> shape of every array of the model, in checkpoint section order,
    a source table with ``*_rows`` rows; the one list of the model's arrays."""
    if (hyper.claim_source_dim is None) != (claim_rows is None):
        raise ContractError(
            "claim_sources must be given exactly when claim_source_dim is set")
    h, d, fc = hyper.hidden_size, hyper.word_dim, hyper.fc_size
    shapes: dict[str, tuple[int, int]] = {}
    for layer, rows, cols in (("lstm_fw", len(GATES) * h, d + h),
                              ("lstm_bw", len(GATES) * h, d + h),
                              ("attention", 1, 2 * d),
                              ("fuse1", fc, hyper.fusion_input_dim),
                              ("fuse2", fc, fc),
                              ("head", hyper.head_rows, fc)):
        shapes[f"{layer}_w"], shapes[f"{layer}_b"] = (rows, cols), (rows, 1)
    if claim_rows is not None:
        shapes["claim_source_table"] = (claim_rows, hyper.claim_source_dim)
    shapes["article_source_table"] = (article_rows, hyper.article_source_dim)
    return shapes


class ModelParams:
    """Every trainable tensor of one model, including the source tables.

    Matrices are Glorot draws in ``_shapes`` order, or zeros when ``rng`` is
    None.  Each fused LSTM gate matrix is four H x (d+H) draws, one per gate,
    so the fan, and the draws themselves, match four separate gate matrices.
    Biases start at zero except the LSTM forget gate's, which starts at one so
    early training keeps cell state.
    """

    def __init__(self, hyper: Hyperparams, rng: np.random.Generator | None, *,
                 article_sources: SourceEmbeddingTable,
                 claim_sources: SourceEmbeddingTable | None = None,
                 dtype=np.float64):
        self.hyper = hyper
        self.claim_sources = claim_sources
        self.article_sources = article_sources
        self._layout = _shapes(hyper, article_sources.tensor.rows,
                               None if claim_sources is None else claim_sources.tensor.rows)
        for name, shape in self._layout.items():
            if name in _TABLES:
                found = getattr(self, _TABLES[name]).tensor.shape
                if found != shape:
                    raise ShapeError(f"{name} is {found}, the model needs {shape}")
                continue
            gates = len(GATES) if name.startswith("lstm") else 1
            if name.endswith("_b") or rng is None:
                data = np.zeros(shape, dtype=dtype)
            else:
                data = np.vstack([glorot_uniform(shape[0] // gates, shape[1], rng, dtype)
                                  for _ in range(gates)])
            if name.endswith("_b") and gates > 1:
                data[hyper.hidden_size:2 * hyper.hidden_size] = 1.0  # the forget block
            setattr(self, name, Tensor(data, requires_grad=True))

    def named(self) -> dict[str, Tensor]:
        return {name: getattr(self, _TABLES[name]).tensor if name in _TABLES
                else getattr(self, name) for name in self._layout}

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


def _chunk_spans(lengths: Sequence[int],
                 budget: int = CHUNK_TOKENS) -> list[tuple[int, int]]:
    """(start, stop) bounds of consecutive chunks within ``budget`` tokens.

    ``lengths`` are the articles' token counts.  A chunk of B articles
    pads to its longest, so it costs B times that length; an article
    longer than the budget gets a chunk alone.
    """
    spans: list[tuple[int, int]] = []
    start, longest = 0, 0
    for i, k in enumerate(lengths):
        longest = max(longest, k)
        if i > start and (i - start + 1) * longest > budget:
            spans.append((start, i))
            start, longest = i, k
    return spans + [(start, len(lengths))]


def _pair_key(pair: Pair) -> tuple:
    """Sort key of the canonical scoring order, over the whole pair: equal
    keys are equal pairs.  Shortest article first, so passes pad little."""
    return (len(pair.article_tokens), pair.article_tokens,
            pair.article_source is not None, pair.article_source or "",
            pair.claim_tokens, pair.claim_source is not None, pair.claim_source or "")


def bilstm_encode(embeds: np.ndarray, params: ModelParams,
                  lengths: np.ndarray) -> Tensor:
    """Hidden states as one (2H, T*B) tensor: forward half over backward half.

    ``embeds`` is (T, B, d) with item b padded after ``lengths[b]`` tokens.
    Column t*B + b sees tokens 1..t of item b through the forward half and
    tokens t..k through the backward half; both directions start from zero
    states.  Columns of padding tokens are zero.
    """
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
    building that matrix.  Other shapes raise ShapeError, and an article
    or a batch with no steps raises DegenerateInputError.
    """
    dim = params.hyper.word_dim
    claim_rows = np.asarray(claim_vecs)
    if embeds.ndim == 2:
        embeds, claim_rows = embeds[:, None, :], claim_rows[None]
    if embeds.ndim != 3:
        raise ShapeError(f"embeddings are (T, B, d) or one (k, d) article, "
                         f"got shape {embeds.shape}")
    steps, batch, width = embeds.shape
    if steps == 0 or batch == 0:
        raise DegenerateInputError("cannot attend over an empty article")
    if width != dim:
        raise ShapeError(f"embeddings are {width}-dimensional, model expects {dim}")
    if claim_rows.ndim != 2 or claim_rows.shape[1] != dim:
        raise ShapeError(f"claim vectors of shape {np.shape(claim_vecs)} are not "
                         f"{dim}-dimensional, as the model expects")
    if claim_rows.shape[0] != batch:
        raise ShapeError(f"{claim_rows.shape[0]} claim vectors for {batch} articles")
    w = transpose(params.attention_w)
    words = matmul(Tensor(embeds.reshape(steps * batch, dim)), take_rows(w, range(dim)))
    claims = matmul(Tensor(claim_rows), take_rows(w, range(dim, 2 * dim)))
    pre = add(add(reshape(words, steps, batch), transpose(claims)), params.attention_b)
    scores = tanh(pre)
    return softmax(scores, mask), scores


def article_vector(hidden: Tensor, weights: Tensor, lengths: np.ndarray) -> Tensor:
    """Average of attention-weighted hidden states per item: (2H, B).

    Item b's vector is sum_t weights[t, b] * h[:, t*B + b] / lengths[b].
    """
    steps, batch = weights.shape
    if hidden.cols != steps * batch:
        raise ShapeError(f"{hidden.cols} hidden states but {steps} x {batch} weights")
    lengths = np.asarray(lengths, dtype=np.float64)
    if not (lengths >= 1).all():  # NaN fails too
        raise DegenerateInputError(f"every item needs a length of at least 1, "
                                   f"got {lengths.tolist()}")
    inv = (1.0 / lengths).astype(hidden.data.dtype)
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
    fc1_live = fc1 if keep1 is None else affine(fc1, keep1)
    fc2 = relu(add(matmul(params.fuse2_w, fc1_live), params.fuse2_b))
    fc2_live = fc2 if keep2 is None else affine(fc2, keep2)
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
        if hyper != params.hyper:
            raise ContractError(f"model hyperparameters {hyper} differ from "
                                f"those of its parameters {params.hyper}")
        if word_embeddings.dim != hyper.word_dim:
            raise ShapeError(
                f"word vectors are {word_embeddings.dim}-dimensional, model "
                f"expects {hyper.word_dim}")
        if word_embeddings.vocab_limit != hyper.vocab_limit:
            raise ContractError(
                f"word vectors were read with vocab_limit {word_embeddings.vocab_limit}, "
                f"model expects {hyper.vocab_limit}")
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
        lengths = np.array([len(p.article_tokens) for p in pairs])
        steps, batch = int(lengths.max()), len(pairs)
        # Filled one article at a time, so no second copy of the vectors is held.
        embeds = np.zeros((steps, batch, self.hyper.word_dim), dtype=dtype)
        for b, p in enumerate(pairs):
            embeds[:lengths[b], b] = emb.matrix_for(p.article_tokens)
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

    def _scored_pairs(self, instances) -> Iterator[tuple[int, ForwardTrace]]:
        """(index, trace) of every (claim, article) pair of ``instances``,
        pairs numbered in claim then article order.

        The pairs are scored in a canonical order over whole pairs, in
        passes within ``SCORE_TOKENS``, so identical keys are identical
        pairs and every trace is the same bits under any claim or article
        order.  An article over the budget takes a pass alone.  A pass's
        traces are yielded as soon as it is scored.
        """
        pairs = [pair for inst in instances for pair in Pair.of(inst)]
        order = sorted(range(len(pairs)), key=lambda i: _pair_key(pairs[i]))
        charged = [max(len(pairs[i].article_tokens), _SCORE_FLOOR) for i in order]
        for lo, hi in _chunk_spans(charged, SCORE_TOKENS) if pairs else []:
            traces = self.article_score([pairs[i] for i in order[lo:hi]])[1]
            yield from zip(order[lo:hi], traces)

    def score_claims(self, instances) -> list[float | np.ndarray]:
        """Credibility of each claim, the plain mean of its per-article
        scores; only the scores outlive each pass."""
        scores: list = [None] * sum(len(inst.articles) for inst in instances)
        for i, trace in self._scored_pairs(instances):
            scores[i] = trace.score
        results, start = [], 0
        for inst in instances:
            results.append(aggregate(scores[start:start + len(inst.articles)]))
            start += len(inst.articles)
        return results

    def claim_score(self, instance) -> tuple[float | np.ndarray, list[ForwardTrace]]:
        """One claim's credibility, as ``score_claims`` gives it, with one
        trace per article in the instance's order."""
        traces: list = [None] * len(instance.articles)
        for i, trace in self._scored_pairs([instance]):
            traces[i] = trace
        return aggregate([t.score for t in traces]), traces


def aggregate(scores: Sequence) -> float | np.ndarray:
    """Mean per-article score; exact summation keeps it order-independent.

    Scalar scores give a float; rows of class probabilities, all of one
    length, give the per-class means as an array.
    """
    if len(scores) == 0:
        raise DegenerateInputError("no article scores to aggregate")
    try:
        if np.ndim(scores[0]) == 0:
            return math.fsum(float(s) for s in scores) / len(scores)
        width = len(scores[0])
        if any(len(p) != width for p in scores):
            raise ShapeError(f"probability rows of lengths {[len(p) for p in scores]}")
        return np.array([math.fsum(float(p[i]) for p in scores) / len(scores)
                         for i in range(width)])
    except (TypeError, ValueError) as e:
        raise ContractError(f"article scores must be numbers ({e})") from None


def verdict(credibility: float) -> int:
    """Binary decision at the 0.5 threshold; 1 means credible."""
    if not math.isfinite(credibility):
        raise ContractError(f"credibility must be finite, got {credibility!r}")
    return 1 if credibility >= 0.5 else 0


# --- checkpoints ------------------------------------------------------------

_MAGIC = b"EVCR"
_VERSION = 5
_HEADER_KEYS = ("hyper", "vocab_hash", "dtype", "article_sources", "claim_sources",
                "sha256")


def _digest(header: dict, payload) -> str:
    """SHA-256 over every header field but the digest itself, then the payload
    (the arrays and the zero gaps between them)."""
    fields = {key: value for key, value in header.items() if key != "sha256"}
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return container.sha256_hex([blob, *payload])


def save_checkpoint(path: str, params: ModelParams, vocab_hash: str) -> None:
    """Write a checkpoint: the ``container`` format with a JSON header and one
    section per array of ``params.named()``, in that order, raw and row-major.

    The header lists no arrays: its ``hyper`` and source lists give every
    array's name and shape through ``_shapes``, and its one ``dtype`` is
    theirs.  Its ``sha256`` covers its other fields and every byte after the
    header's padding.  Equal models produce byte-identical files.
    """
    arrays = [np.ascontiguousarray(t.data) for t in params.named().values()]
    if len({a.dtype for a in arrays}) > 1:
        raise ContractError("checkpoint arrays must share one dtype")
    header = {
        "version": _VERSION,
        "hyper": asdict(params.hyper),
        "vocab_hash": vocab_hash,
        "dtype": str(arrays[0].dtype),
        "article_sources": params.article_sources.sources,
        "claim_sources": (None if params.claim_sources is None
                          else params.claim_sources.sources),
    }
    header["sha256"] = _digest(header, container.payload_chunks(arrays))
    container.write(path, _MAGIC, _VERSION, header, arrays)


def load_checkpoint(path: str) -> tuple[ModelParams, str]:
    """Rebuild model parameters from a checkpoint; bit-exact round trip.

    Anything but an intact version-5 file raises ParseError: a wrong magic
    or version, a header that is not JSON or lacks a key, an unknown dtype,
    a source list that is not a list of strings or that repeats a name, a
    header that does not fit the model, a file too short or too long for
    the header's arrays (found before any array is allocated), and a digest
    that does not match its bytes.
    """
    with open(path, "rb") as fh:
        header, header_len = container.read_header(fh, path, _MAGIC, _VERSION,
                                                   "checkpoint")
        for key in _HEADER_KEYS:
            if key not in header:
                raise ParseError(f"{path}: checkpoint header lacks {key!r}")
        if header["dtype"] not in ("float32", "float64"):
            raise ParseError(f"{path}: unknown dtype {header['dtype']!r}")
        for key in ("article_sources", "claim_sources"):
            names = header[key]
            if not ((isinstance(names, list) and all(isinstance(s, str) for s in names))
                    or (key == "claim_sources" and names is None)):
                raise ParseError(
                    f"{path}: checkpoint header {key!r} is not a list of strings")
            if names is not None and len(set(names)) < len(names):
                raise ParseError(f"{path}: checkpoint header {key!r} repeats a name")
        dtype = np.dtype(header["dtype"])
        # A header with a valid digest can still be hand-made: its shapes must
        # fit the file's size before anything is allocated.
        try:
            hyper = Hyperparams(**header["hyper"])
            shapes = _shapes(hyper, len(header["article_sources"]) + 1,
                             None if header["claim_sources"] is None
                             else len(header["claim_sources"]) + 1)
        except (TypeError, ContractError) as e:
            raise ParseError(f"{path}: checkpoint header does not fit the model: {e}") from None
        offsets, end = container.section_offsets(
            header_len, [rows * cols * dtype.itemsize for rows, cols in shapes.values()])
        file_size = os.fstat(fh.fileno()).st_size
        if file_size < end:
            raise ParseError(f"{path}: truncated checkpoint: {file_size} of {end} bytes")
        if file_size > end:
            raise ParseError(f"{path}: unexpected bytes after the last array")
        fh.seek(offsets[0])
        payload = fh.read(end - offsets[0])
    if _digest(header, [payload]) != header["sha256"]:
        raise ParseError(f"{path}: checkpoint digest does not match its contents")
    arrays = {name: np.frombuffer(payload, dtype, rows * cols, start - offsets[0])
              .reshape(rows, cols).copy()
              for (name, (rows, cols)), start in zip(shapes.items(), offsets)}
    tables = {key: None if header[key] is None
              else SourceEmbeddingTable(header[key], arrays[name], name)
              for name, key in _TABLES.items()}
    params = ModelParams(hyper, None, dtype=dtype, **tables)
    for name, t in params.named().items():
        t.data = arrays[name]
    return params, header["vocab_hash"]
