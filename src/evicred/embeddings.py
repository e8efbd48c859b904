"""Word vectors and trainable source-name embeddings.

Word vectors are loaded from a whitespace-separated text file (one token
followed by its components per line) and are frozen: lookups return
read-only rows, out-of-vocabulary tokens map to the zero vector, and the
matrix is never registered with the optimizer.  A parsed file is cached
beside itself, so later loads map the matrix instead of parsing it again.
Source names get small trainable tables in which rarely seen sources share
a single fallback row.
"""
from __future__ import annotations

import array
import os
import string
from collections import Counter
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from . import container
from .errors import ContractError, DegenerateInputError, ParseError, text_lines
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
        self.tokens: list[str] = list(dict.fromkeys(tokens))
        self._index: dict[str, int] = dict(zip(self.tokens, range(len(self.tokens))))

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
        return container.sha256_hex(t.encode("utf-8") + b"\n" for t in self.tokens)


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


_CACHE_SUFFIX = ".evicache"
_CACHE_MAGIC = b"EVWV"
_CACHE_VERSION = 1
_CACHE_KIND = "word-vector cache"
# Components parsed as float64 before a cast to a narrower dtype (512 KB).
_CAST_BLOCK = 1 << 16


def load_word_vectors(path: str, vocab_limit: int | None = None,
                      dtype=np.float64) -> tuple[Vocabulary, WordEmbeddings]:
    """Load a word-vector text file into a vocabulary and embedding matrix.

    The dimensionality is taken from the first line; any later line with a
    different number of fields, or a component that is not a finite number
    in ``dtype`` (nan, inf, 1e999), raises ParseError naming the line.
    Reading stops after ``vocab_limit`` tokens (at least 1) when given.
    Duplicate tokens keep their first vector.

    A parse is saved beside the file as ``<path>.evicache``, keyed by the
    SHA-256 of the file's bytes, ``dtype`` and ``vocab_limit``.  A later
    load with the same key memory-maps the saved matrix read-only instead of
    parsing; a cache that is missing, stale or damaged is rebuilt, and one
    that cannot be written is skipped.
    """
    if vocab_limit is not None and vocab_limit < 1:
        raise ContractError(f"vocab_limit must be at least 1, got {vocab_limit}")
    if not os.path.isfile(path):  # a pipe could not be read twice
        return _parse_word_vectors(path, vocab_limit, dtype)
    cache = os.fspath(path) + _CACHE_SUFFIX
    key = {"text_sha256": container.file_sha256(path),
           "dtype": np.dtype(dtype).name, "vocab_limit": vocab_limit}
    loaded = _read_cache(cache, key)
    if loaded is not None:
        return loaded
    vocab, emb = _parse_word_vectors(path, vocab_limit, dtype)
    blob = "\n".join(vocab.tokens).encode("utf-8")
    header = {**key, "rows": len(vocab), "dim": emb.dim, "token_bytes": len(blob),
              "vocab_sha256": vocab.content_hash()}
    try:
        container.write(cache, _CACHE_MAGIC, _CACHE_VERSION, header, [blob, emb.vectors])
    except OSError:  # read-only directory, or the cache path is taken
        pass
    return vocab, emb


def _read_cache(cache: str, key: dict) -> tuple[Vocabulary, WordEmbeddings] | None:
    """The cached vocabulary and mapped matrix, or None unless all of it matches.

    The token list is checked against its digest, ``Vocabulary.content_hash()``
    (the SHA-256 of each token followed by a newline).  The matrix is
    trusted as written, since it was saved only after a parse passed its
    checks and re-hashing it would read every page of it.
    """
    try:
        with open(cache, "rb") as fh:
            header, header_len = container.read_header(
                fh, cache, _CACHE_MAGIC, _CACHE_VERSION, _CACHE_KIND)
            if any(header.get(name) != value for name, value in key.items()):
                return None
            rows, dim, token_bytes = (header.get(n) for n in ("rows", "dim", "token_bytes"))
            if not all(type(n) is int and n > 0 for n in (rows, dim, token_bytes)):
                return None
            dtype = np.dtype(key["dtype"])
            (tokens_at, matrix_at), end = container.section_offsets(
                header_len, [token_bytes, rows * dim * dtype.itemsize])
            if os.fstat(fh.fileno()).st_size != end:
                return None
            fh.seek(tokens_at)
            blob = fh.read(token_bytes)
            if container.sha256_hex([blob, b"\n"]) != header.get("vocab_sha256"):
                return None
            vocab = Vocabulary(blob.decode("utf-8").split("\n"))
            if len(vocab) != rows:
                return None
            # Mapped through the open handle, so a concurrent rewrite of the
            # cache cannot swap the file between the checks and the map.
            matrix = np.memmap(fh, dtype=dtype, mode="r", offset=matrix_at,
                               shape=(rows, dim))
    except (OSError, ParseError, UnicodeDecodeError):
        return None
    return vocab, WordEmbeddings(vocab, matrix)


def _parse_word_vectors(path: str, vocab_limit: int | None,
                        dtype) -> tuple[Vocabulary, WordEmbeddings]:
    """The text parse behind ``load_word_vectors``, with all of its checks.

    Components go into one growing float64 buffer.  For a narrower dtype,
    every ``_CAST_BLOCK`` of them is cast into a second growing buffer, so
    a load peaks near the size of the finished matrix either way.
    """
    vocab = Vocabulary()
    flat = array.array("d")
    narrow = np.dtype(dtype) != np.float64
    cast = bytearray()
    linenos: list[int] = []
    dim: int | None = None
    for lineno, line in text_lines(path):
        parts = line.split()
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
            flat.extend(map(float, values))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        vocab.add(token)
        linenos.append(lineno)
        if narrow and len(flat) >= _CAST_BLOCK:
            cast += _narrowed(flat, dtype)
            del flat[:]
        if vocab_limit is not None and len(vocab) >= vocab_limit:
            break
    if not linenos:
        raise DegenerateInputError(f"{path}: file holds no word vectors")
    if narrow:
        cast += _narrowed(flat, dtype)
        matrix = np.frombuffer(cast, dtype=dtype)
    else:
        matrix = np.frombuffer(flat, dtype=np.float64)
    matrix = matrix.reshape(len(linenos), dim)
    # A row's max and min carry any nan or inf in it, with no full-size mask.
    finite = np.isfinite(matrix.max(axis=1)) & np.isfinite(matrix.min(axis=1))
    if not finite.all():
        raise ParseError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                         "vector component is not a finite number")
    return vocab, WordEmbeddings(vocab, matrix)


def _narrowed(flat: array.array, dtype) -> bytes:
    with np.errstate(over="ignore"):  # overflow shows as inf, caught by the caller
        return np.frombuffer(flat, dtype=np.float64).astype(dtype).tobytes()


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
