"""Word vectors and trainable source-name embeddings.

Word vectors are loaded from a whitespace-separated text file (one token
followed by its components per line) and are frozen: lookups return
read-only rows, out-of-vocabulary tokens map to the zero vector, and the
matrix is never registered with the optimizer.  A parse streams the matrix
to disk a block at a time, and a parsed file is cached beside itself, so
every load returns a read-only memory map and later loads map the cache
instead of parsing again.
Source names get small trainable tables in which rarely seen sources share
a single fallback row.
"""
from __future__ import annotations

import array
import json
import math
import os
import stat
import string
import tempfile
from collections import Counter
from itertools import repeat
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from . import container
from .errors import ContractError, DegenerateInputError, ParseError, file_lines
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
    return list(filter(None, map(str.strip, text.lower().split(),
                                 repeat(string.punctuation))))


class Vocabulary:
    """Bijection between tokens and dense indices, in insertion order."""

    def __init__(self, tokens: Iterable[str] = ()):
        self.tokens: list[str] = list(tokens)
        self._index: dict[str, int] = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self._index) < len(self.tokens):  # a repeat keeps its first index
            self.tokens = list(dict.fromkeys(self.tokens))
            self._index = dict(zip(self.tokens, range(len(self.tokens))))

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
        """Stable digest of the token list, stored in checkpoints: the
        SHA-256 of the tokens in order, each followed by a newline."""
        return container.sha256_hex(["\n".join([*self.tokens, ""]).encode("utf-8")])


class WordEmbeddings:
    """Frozen |V| x d matrix of word vectors.

    ``magnitudes`` is the matrix's ``magnitudes()`` when the caller already
    knows it, as a parse does; otherwise it is computed on first use.
    """

    def __init__(self, vocab: Vocabulary, vectors: np.ndarray,
                 magnitudes: tuple[float, float] | None = None):
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
        self._magnitudes = magnitudes

    def magnitudes(self) -> tuple[float, float]:
        """The smallest nonzero and the largest absolute component of the
        matrix: (inf, 0.0) when no component is nonzero, a NaN largest when
        one is NaN.  Snippet selection reads them to know that no product of
        its cosines can underflow or overflow."""
        if self._magnitudes is None:
            seen = _NO_MAGNITUDES
            step = max(1, _CAST_BLOCK // max(1, self.dim))
            for first in range(0, len(self.vectors), step):
                seen = _magnitudes(self.vectors[first : first + step], seen)
            self._magnitudes = seen
        return self._magnitudes

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
_CACHE_VERSION = 3
_CACHE_KIND = "word-vector cache"
# Components parsed as float64 before they are cast, checked and written out
# (512 KB): all that a parse holds of the matrix at once.
_CAST_BLOCK = 1 << 16
_NO_MAGNITUDES = (math.inf, 0.0)


def load_word_vectors(path: str, vocab_limit: int | None = None,
                      dtype=np.float64) -> tuple[Vocabulary, WordEmbeddings]:
    """Load a word-vector text file into a vocabulary and embedding matrix.

    The dimensionality is taken from the first line; any later line with a
    different number of fields, or a component that is not a finite number
    in ``dtype`` (nan, inf, 1e999), raises ParseError naming the line.
    Fields are split as ``str.split()`` splits a line, and a component is
    read as ``float()`` reads it, then cast to ``dtype``.
    Reading stops after ``vocab_limit`` tokens (at least 1) when given.
    Duplicate tokens keep their first vector.

    The matrix is a read-only memory map on every path.  A parse writes it a
    block at a time to a private unnamed file, which lives as long as the
    map: beside the cache, or in the system temp directory for a pipe or a
    directory that takes no new file.  So no load holds the whole matrix in
    memory, and nothing done to the cache changes a matrix already loaded.

    A parse of a regular file is saved beside it as ``<path>.evicache``,
    keyed by ``dtype``, ``vocab_limit`` and the SHA-256 of the bytes the
    parse read: the whole file, or the part up to the line that reached
    ``vocab_limit``, so text appended after that line keeps the cache.  A
    later load with the same key maps the saved matrix instead of parsing;
    a cache that is missing, stale or damaged is rebuilt, and one that
    cannot be written is skipped.
    """
    if vocab_limit is not None and vocab_limit < 1:
        raise ContractError(f"vocab_limit must be at least 1, got {vocab_limit}")
    dtype = np.dtype(dtype)
    cache = os.fspath(path) + _CACHE_SUFFIX
    with open(path, "rb") as text:
        # A pipe cannot be read twice, so it is neither keyed nor cached.
        regular = stat.S_ISREG(os.fstat(text.fileno()).st_mode)
        if regular:
            loaded = _read_cache(cache, text, dtype, vocab_limit)
            if loaded is not None:
                return loaded
            text.seek(0)
        with _private_file((os.path.dirname(cache) or os.curdir) if regular else None) as out:
            vocab, dim, magnitudes = _parse_word_vectors(text, vocab_limit, dtype, out)
            out.flush()
            matrix = np.memmap(out, dtype=dtype, mode="r", shape=(len(vocab), dim))
            if regular:
                text_bytes = text.tell()
                text.seek(0)
                blob = "\n".join(vocab.tokens).encode("utf-8")
                header = {"text_sha256": container.prefix_sha256(text, text_bytes),
                          "text_bytes": text_bytes, "dtype": dtype.name,
                          "vocab_limit": vocab_limit, "rows": len(vocab), "dim": dim,
                          "token_bytes": len(blob), "magnitudes": list(magnitudes),
                          "sha256": _cache_digest(blob, list(magnitudes))}
                try:
                    container.write(cache, _CACHE_MAGIC, _CACHE_VERSION, header, [blob, out])
                except OSError:  # read-only directory, or the cache path is taken
                    pass
    return vocab, WordEmbeddings(vocab, matrix, magnitudes)


def _cache_digest(blob: bytes, magnitudes: list) -> str:
    """SHA-256 of the cache's token section, a newline, and its header's
    magnitudes as JSON: a damaged header cannot change what a load reports."""
    return container.sha256_hex([blob, b"\n", json.dumps(magnitudes).encode("utf-8")])


def _private_file(directory: str | None) -> BinaryIO:
    """An unnamed temporary file for a parsed matrix, in ``directory`` if
    that takes one, else in the system temp directory.

    The cache's directory comes first: the system temp directory is often
    memory-backed (tmpfs), where the matrix would take memory again, and
    the cache needs room for the same bytes anyway.
    """
    if directory is not None:
        try:
            return tempfile.TemporaryFile(dir=directory)
        except OSError:
            pass
    return tempfile.TemporaryFile()


def _read_cache(cache: str, text: BinaryIO, dtype: np.dtype,
                vocab_limit: int | None) -> tuple[Vocabulary, WordEmbeddings] | None:
    """The cached vocabulary and mapped matrix, or None unless all of it matches.

    The cache must be for ``dtype`` and ``vocab_limit``, and the open text
    file must still start with the ``text_bytes`` bytes it was parsed from,
    which hash to its key.  Any bytes after them must be ones the parse
    never read: it stopped at ``vocab_limit`` on a line ended by a newline.
    The token list and the recorded magnitudes are checked against their
    digest.  The matrix is trusted as written, since it was saved only
    after a parse passed its checks and re-hashing it would read every page
    of it.
    """
    try:
        with open(cache, "rb") as fh:
            header, header_len = container.read_header(
                fh, cache, _CACHE_MAGIC, _CACHE_VERSION, _CACHE_KIND)
            if header.get("dtype") != dtype.name or header.get("vocab_limit") != vocab_limit:
                return None
            rows, dim, token_bytes, text_bytes = (
                header.get(n) for n in ("rows", "dim", "token_bytes", "text_bytes"))
            if not all(type(n) is int and n > 0 for n in (rows, dim, token_bytes, text_bytes)):
                return None
            (tokens_at, matrix_at), end = container.section_offsets(
                header_len, [token_bytes, rows * dim * dtype.itemsize])
            if os.fstat(fh.fileno()).st_size != end:
                return None
            size = os.fstat(text.fileno()).st_size
            if size < text_bytes:
                return None
            if size > text_bytes:
                text.seek(text_bytes - 1)
                if rows != vocab_limit or text.read(1) != b"\n":
                    return None
            text.seek(0)
            if container.prefix_sha256(text, text_bytes) != header.get("text_sha256"):
                return None
            fh.seek(tokens_at)
            blob = fh.read(token_bytes)
            magnitudes = header.get("magnitudes")
            if not (isinstance(magnitudes, list) and len(magnitudes) == 2
                    and all(type(m) is float for m in magnitudes)
                    and _cache_digest(blob, magnitudes) == header.get("sha256")):
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
    return vocab, WordEmbeddings(vocab, matrix, tuple(magnitudes))


def _parse_word_vectors(text: BinaryIO, vocab_limit: int | None, dtype: np.dtype,
                        out: BinaryIO) -> tuple[Vocabulary, int, tuple[float, float]]:
    """The text parse behind ``load_word_vectors``, with all of its checks.

    Reads ``text`` from its current position and leaves it just after the
    last line used.  Rows go to ``out`` as raw ``dtype`` values: the text
    after each new token is gathered until a block holds ``_CAST_BLOCK``
    components, which numpy's text reader parses as float64 before they are
    cast, checked and written, so the parse holds one block of the matrix,
    never all of it.  Returns the vocabulary, the number of components per
    row and the matrix's ``WordEmbeddings.magnitudes()``.

    The result and every error are those of splitting each line with
    ``str.split()`` and converting each component with ``float()``, as
    ``_convert`` does.  A block that numpy rejects, or splits into another
    shape, goes through ``_convert`` instead: numpy accepts a subset of
    what ``float()`` accepts (no ``1_0``, no non-ASCII digits), with the
    same values.  Errors come in line order, as a line-by-line parse meets
    them: a line's field count or conversion fails at once, while a
    component that is not finite in ``dtype`` fails when its block is
    written.
    """
    vocab = Vocabulary()
    seen = _NO_MAGNITUDES
    rests: list[str] = []  # the components of each row not yet written
    linenos: list[int] = []  # of the rows in ``rests``
    dim: int | None = None
    name = text.name
    try:
        for lineno, line in file_lines(text, name):
            parts = line.split(None, 1)
            if not parts:
                continue
            token, rest = parts[0], parts[1] if len(parts) == 2 else ""
            if dim is None:
                dim = len(rest.split())
                if dim == 0:
                    raise ParseError(f"{name}:{lineno}: no vector components")
            if token in vocab or not rest:
                # A repeat is never converted, and numpy's reader skips a
                # row with no components, so their field counts are checked here.
                count = len(rest.split())
                if count != dim:
                    raise ParseError(f"{name}:{lineno}: expected {dim} components, got {count}")
                continue
            vocab.add(token)
            rests.append(rest)
            linenos.append(lineno)
            if len(rests) * dim >= _CAST_BLOCK:
                seen = _write_rows(rests, linenos, dim, dtype, out, name, seen)
            if vocab_limit is not None and len(vocab) >= vocab_limit:
                break
    except ParseError:
        if rests:  # an error on an earlier line comes first
            _convert(rests, linenos, dim, name)
        raise
    if not vocab:
        raise DegenerateInputError(f"{name}: file holds no word vectors")
    if rests:
        seen = _write_rows(rests, linenos, dim, dtype, out, name, seen)
    return vocab, dim, seen


def _convert(rests: list[str], linenos: list[int], dim: int, name: str) -> np.ndarray:
    """A block of rows split with ``str.split()`` and converted with
    ``float()``, one line at a time: the reference for what a parse accepts.
    Raises ParseError naming the first line with the wrong number of
    components or one that is not a number."""
    rows = array.array("d")
    for lineno, rest in zip(linenos, rests):
        values = rest.split()
        if len(values) != dim:
            raise ParseError(f"{name}:{lineno}: expected {dim} components, "
                             f"got {len(values)}") from None
        try:
            rows.extend(map(float, values))
        except ValueError as e:
            raise ParseError(f"{name}:{lineno}: {e}") from None
    return np.frombuffer(rows, dtype=np.float64).reshape(len(rests), dim)


def _write_rows(rests: list[str], linenos: list[int], dim: int, dtype: np.dtype,
                out: BinaryIO, name: str, seen: tuple[float, float]) -> tuple[float, float]:
    """Parse a block of rows as float64, cast it to ``dtype``, check that
    every component is finite, naming the first bad row's line, and write
    the block to ``out``, emptying ``rests`` and ``linenos``.  Returns the
    magnitudes ``seen`` so far widened by the block's.

    numpy's text reader parses the block; ``_convert`` does when that
    reader rejects it or gives it another shape.
    """
    try:
        rows = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (len(rests), dim):
        rows = _convert(rests, linenos, dim, name)
    rests.clear()  # the block's text is freed before it is cast
    with np.errstate(over="ignore"):  # overflow shows as inf, caught below
        rows = rows.astype(dtype, copy=False)
    # A row's max and min carry any nan or inf in it, with no block-size mask.
    finite = np.isfinite(rows.max(axis=1)) & np.isfinite(rows.min(axis=1))
    if not finite.all():
        raise ParseError(f"{name}:{linenos[int(np.argmin(finite))]}: "
                         "vector component is not a finite number")
    out.write(rows)
    linenos.clear()
    return _magnitudes(rows, seen)


def _magnitudes(rows: np.ndarray, seen: tuple[float, float]) -> tuple[float, float]:
    """``seen`` widened by the smallest nonzero and the largest absolute
    component of ``rows``, as ``WordEmbeddings.magnitudes()`` reports them."""
    size = np.abs(rows)
    return (float(np.min(size, initial=seen[0], where=size > 0)),
            float(np.max(size, initial=seen[1])))


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
