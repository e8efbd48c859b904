"""Word vectors and trainable source-name embeddings.

Word vectors are loaded from a whitespace-separated text file (one token
followed by its components per line) and are frozen: lookups return
read-only rows, out-of-vocabulary tokens map to the zero vector, and the
matrix is never registered with the optimizer.  Source names get small
trainable tables in which rarely seen sources share a single fallback row.
"""
from __future__ import annotations

import hashlib
import string
from collections import Counter
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateInputError, ParseError, text_lines
from .numeric import Tensor, glorot_uniform

__all__ = [
    "tokenize",
    "Vocabulary",
    "WordEmbeddings",
    "load_word_vectors",
    "SourceEmbeddingTable",
    "build_source_table",
    "claim_mean",
]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation."""
    out = []
    for chunk in text.lower().split():
        token = chunk.strip(string.punctuation)
        if token:
            out.append(token)
    return out


class Vocabulary:
    """Bijection between tokens and dense indices, in insertion order."""

    def __init__(self, tokens: Iterable[str] = ()):
        self.tokens: list[str] = []
        self._index: dict[str, int] = {}
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self.tokens)
            self._index[token] = idx
            self.tokens.append(token)
        return idx

    def index(self, token: str) -> int | None:
        return self._index.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def content_hash(self) -> str:
        """Stable digest of the token list, stored in checkpoints."""
        h = hashlib.sha256()
        for t in self.tokens:
            h.update(t.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


class WordEmbeddings:
    """Frozen |V| x d matrix of word vectors."""

    def __init__(self, vocab: Vocabulary, vectors: np.ndarray):
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] != len(vocab):
            raise DegenerateInputError(
                f"vector matrix {vectors.shape} does not cover {len(vocab)} tokens")
        self.vocab = vocab
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.dim = vectors.shape[1]
        self._zero = np.zeros(self.dim, dtype=vectors.dtype)
        self._zero.setflags(write=False)

    def vector(self, token: str) -> np.ndarray:
        idx = self.vocab.index(token)
        if idx is None:
            return self._zero
        return self.vectors[idx]

    def matrix_for(self, tokens: list[str]) -> np.ndarray:
        """Fresh, writeable (k, d) array of a token sequence's vectors.

        One index gather; out-of-vocabulary tokens get zero rows.
        """
        if not tokens:
            raise DegenerateInputError("cannot embed an empty token sequence")
        if not len(self.vocab):
            return np.zeros((len(tokens), self.dim), dtype=self.vectors.dtype)
        rows = np.fromiter(map(self.vocab._index.get, tokens, repeat(-1)),
                           dtype=np.intp, count=len(tokens))
        out = self.vectors[rows]
        out[rows < 0] = 0
        return out


def load_word_vectors(path: str, vocab_limit: int | None = None,
                      dtype=np.float64) -> tuple[Vocabulary, WordEmbeddings]:
    """Parse a word-vector text file into a vocabulary and embedding matrix.

    The dimensionality is taken from the first line; any later line with a
    different number of fields, or a component that is not a finite number
    in ``dtype`` (nan, inf, 1e999), raises ParseError naming the line.
    Reading stops after ``vocab_limit`` tokens when given.  Duplicate
    tokens keep their first vector.
    """
    vocab = Vocabulary()
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    dim: int | None = None
    for lineno, line in text_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ParseError(f"{path}:{lineno}: no vector components")
        elif len(values) != dim:
            raise ParseError(
                f"{path}:{lineno}: expected {dim} components, got {len(values)}")
        if token in vocab:
            continue
        try:
            vec = np.array([float(v) for v in values], dtype=dtype)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        vocab.add(token)
        rows.append(vec)
        linenos.append(lineno)
        if vocab_limit is not None and len(vocab) >= vocab_limit:
            break
    if not rows:
        raise DegenerateInputError(f"{path}: file holds no word vectors")
    matrix = np.stack(rows)
    # A row's max and min carry any nan or inf in it, with no full-size mask.
    finite = np.isfinite(matrix.max(axis=1)) & np.isfinite(matrix.min(axis=1))
    if not finite.all():
        raise ParseError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                         "vector component is not a finite number")
    return vocab, WordEmbeddings(vocab, matrix)


class SourceEmbeddingTable:
    """Trainable embedding rows for source names.

    Rows 0..len(sources)-1 belong to the retained names; one extra final
    row is shared by every name that was too rare to keep and by names
    never seen at all, so lookup is total.
    """

    def __init__(self, sources: list[str], matrix: np.ndarray, name: str):
        if len(sources) + 1 != matrix.shape[0]:
            raise DegenerateInputError(
                f"{name}: matrix has {matrix.shape[0]} rows for {len(sources)} sources")
        self.sources = list(sources)
        self._index = {s: i for i, s in enumerate(self.sources)}
        self.fallback_index = len(self.sources)
        self.name = name
        self.tensor = Tensor(matrix, requires_grad=True, name=name)

    @property
    def dim(self) -> int:
        return self.tensor.cols

    def index(self, source: str | None) -> int:
        if source is None:
            return self.fallback_index
        return self._index.get(source, self.fallback_index)

    def reinitialized(self, rng: np.random.Generator, dtype=None) -> "SourceEmbeddingTable":
        """Same name mapping, fresh values; used to start each fold cleanly."""
        dtype = dtype or self.tensor.data.dtype
        fresh = glorot_uniform(len(self.sources) + 1, self.dim, rng, dtype)
        return SourceEmbeddingTable(self.sources, fresh, self.name)


def build_source_table(counts: Mapping[str, int] | Counter, min_support: int,
                       dim: int, rng: np.random.Generator, name: str,
                       dtype=np.float64) -> SourceEmbeddingTable:
    """Keep sources with at least ``min_support`` occurrences, sorted by name."""
    kept = sorted(s for s, c in counts.items() if c >= min_support)
    matrix = glorot_uniform(len(kept) + 1, dim, rng, dtype)
    return SourceEmbeddingTable(kept, matrix, name)


def claim_mean(tokens: list[str], embeddings: WordEmbeddings) -> np.ndarray:
    """Average word vector of a claim.

    Out-of-vocabulary tokens contribute the zero vector but still count in
    the denominator, so heavily OOV claims are pulled toward zero rather
    than silently shortened.
    """
    if not tokens:
        raise DegenerateInputError("claim has no tokens")
    total = np.zeros(embeddings.dim, dtype=embeddings.vectors.dtype)
    for t in tokens:
        total = total + embeddings.vector(t)
    return total / len(tokens)
