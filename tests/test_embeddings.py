"""Word vector loading and its cache, vocabulary, and source bucketing."""
import hashlib
import itertools
import json
import os
import shutil
import string
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evicred import container, embeddings
from evicred.embeddings import (
    SourceEmbeddingTable,
    Vocabulary,
    WordEmbeddings,
    build_source_table,
    claim_mean,
    load_word_vectors,
    tokenize,
)
from evicred.errors import ContractError, DegenerateInputError, EvicredError, ParseError
from tests.conftest import make_embedding_file


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The Cat SAT") == ["the", "cat", "sat"]

    def test_strips_surrounding_punctuation(self):
        assert tokenize('"Hello," she said.') == ["hello", "she", "said"]

    def test_keeps_interior_punctuation(self):
        assert tokenize("it's a state-of-the-art co-op") == [
            "it's", "a", "state-of-the-art", "co-op"]

    def test_pure_punctuation_tokens_vanish(self):
        assert tokenize("wait -- what ?!") == ["wait", "what"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_equals_a_loop_over_chunks(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def loop(text):
            out = []
            for chunk in text.lower().split():
                token = chunk.strip(string.punctuation)
                if token:
                    out.append(token)
            return out

        @hypothesis.settings(max_examples=300)
        @hypothesis.given(st.one_of(st.text(), st.text(string.punctuation + " \tAbc")))
        def check(text):
            assert tokenize(text) == loop(text)

        check()


class TestLoadWordVectors:
    def test_reads_dimensions_from_first_line(self, tmp_path):
        path = make_embedding_file(tmp_path, ["cat", "dog"], dim=3, seed=0)
        vocab, emb = load_word_vectors(path)
        assert emb.dim == 3
        assert len(vocab) == 2
        assert "cat" in vocab

    def test_ragged_line_reports_path_and_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2: expected 2 components, got 1"):
            load_word_vectors(path)

    def test_non_numeric_component_reports_lineno(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("cat 1.0 oops\n")
        with pytest.raises(ParseError, match=r"nan\.txt:1"):
            load_word_vectors(path)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_component_reports_lineno(self, tmp_path, literal):
        path = tmp_path / "big.txt"
        path.write_text(f"cat 1.0 2.0\n\ndog 1.0 {literal}\n")
        with pytest.raises(ParseError, match=r"big\.txt:3: .*not a finite number"):
            load_word_vectors(path)

    def test_float32_blocks_match_one_cast(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_CAST_BLOCK", 4)  # a cast every other row
        path = make_embedding_file(tmp_path, [f"t{i}" for i in range(7)], dim=3)
        _, wide = load_word_vectors(path)
        _, narrow = load_word_vectors(path, dtype=np.float32)
        assert narrow.vectors.dtype == np.float32
        assert narrow.vectors.tobytes() == wide.vectors.astype(np.float32).tobytes()
        bad = tmp_path / "big.txt"
        bad.write_text("".join(f"t{i} 1.0 2.0\n" for i in range(4)) + "t4 1.0 1e39\n")
        assert load_word_vectors(bad)[1].vectors[4, 1] == 1e39
        with pytest.raises(ParseError, match=r"big\.txt:5: .*not a finite number"):
            load_word_vectors(bad, dtype=np.float32)

    def test_empty_file_is_degenerate(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DegenerateInputError):
            load_word_vectors(path)

    def test_duplicate_token_keeps_first(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("cat 1.0 2.0\ncat 9.0 9.0\n")
        vocab, emb = load_word_vectors(path)
        assert len(vocab) == 1
        assert emb.vector("cat").tolist() == [1.0, 2.0]

    def test_vocab_limit_truncates(self, tmp_path):
        path = make_embedding_file(tmp_path, [f"t{i}" for i in range(10)], dim=2)
        vocab, _ = load_word_vectors(path, vocab_limit=4)
        assert len(vocab) == 4

    @pytest.mark.parametrize("limit", [0, -5])
    def test_vocab_limit_below_one_raises_before_reading(self, tmp_path, limit):
        # The file does not exist: the check runs before it is hashed or read.
        with pytest.raises(ContractError, match="vocab_limit"):
            load_word_vectors(tmp_path / "absent.txt", vocab_limit=limit)

    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "exact.txt"
        path.write_text("pi 3.14159 -2.5\n")
        _, emb = load_word_vectors(path)
        assert emb.vector("pi").tolist() == [3.14159, -2.5]


def cache_of(path):
    return path.with_name(path.name + ".evicache")


@pytest.fixture
def parses(monkeypatch):
    """Counts text parses, so a test can tell a warm load from a cold one."""
    calls = []
    parse = embeddings._parse_word_vectors

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(embeddings, "_parse_word_vectors", counted)
    return calls


def assert_same_load(got, want):
    (vocab, emb), (want_vocab, want_emb) = got, want
    assert vocab.tokens == want_vocab.tokens
    assert vocab.content_hash() == want_vocab.content_hash()
    assert [vocab.index(t) for t in vocab.tokens] == list(range(len(vocab)))
    assert emb.vectors.dtype == want_emb.vectors.dtype
    assert emb.vectors.shape == want_emb.vectors.shape
    assert emb.vectors.tobytes() == want_emb.vectors.tobytes()
    assert emb.magnitudes() == want_emb.magnitudes() \
        == WordEmbeddings(vocab, np.array(emb.vectors)).magnitudes()


class TestWordVectorCache:
    @pytest.mark.parametrize("dtype,limit", [(np.float64, None), (np.float32, None),
                                             (np.float64, 5), (np.float32, 5)])
    def test_warm_load_equals_cold(self, tmp_path, parses, dtype, limit):
        path = make_embedding_file(tmp_path, [f"t{i}" for i in range(9)], dim=3)
        cold = load_word_vectors(path, limit, dtype)
        assert cache_of(path).is_file() and len(parses) == 1
        warm = load_word_vectors(path, limit, dtype)
        assert len(parses) == 1
        assert_same_load(warm, cold)
        assert len(warm[0]) == (limit or 9)

    def test_warm_matrix_is_read_only(self, tmp_path, parses):
        path = make_embedding_file(tmp_path, ["cat", "dog"], dim=3)
        load_word_vectors(path)
        _, emb = load_word_vectors(path)
        assert len(parses) == 1
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 5.0
        with pytest.raises(ValueError):
            emb.vector("cat")[0] = 5.0

    def test_text_change_of_equal_size_rebuilds(self, tmp_path, parses):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.5 2.0\ndog 3.0 4.0\n")
        load_word_vectors(path)
        path.write_text("cat 1.5 2.0\ndog 3.0 5.0\n")
        _, emb = load_word_vectors(path)
        assert len(parses) == 2
        assert emb.vector("dog").tolist() == [3.0, 5.0]
        assert load_word_vectors(path)[1].vector("dog").tolist() == [3.0, 5.0]
        assert len(parses) == 2

    @pytest.mark.parametrize("first,second", [
        ((None, np.float64), (None, np.float32)),
        ((None, np.float64), (2, np.float64)),
        ((2, np.float32), (None, np.float32)),
    ], ids=["dtype", "limit-added", "limit-dropped"])
    def test_dtype_or_vocab_limit_change_rebuilds(self, tmp_path, parses, first, second):
        path = make_embedding_file(tmp_path, ["a", "b", "c"], dim=2)
        load_word_vectors(path, *first)
        got = load_word_vectors(path, *second)
        assert len(parses) == 2
        cache_of(path).unlink()
        assert_same_load(got, load_word_vectors(path, *second))

    def test_truncated_or_garbled_cache_is_rebuilt(self, tmp_path, parses):
        path = make_embedding_file(tmp_path, ["a", "b", "c"], dim=4)
        want = load_word_vectors(path)
        cache = cache_of(path)
        whole = cache.read_bytes()
        (header_len,) = struct.unpack("<I", whole[8:12])
        (tokens_at, _), _ = container.section_offsets(header_len, [5, 0])
        garbled = bytearray(whole)
        garbled[tokens_at] ^= 0x01  # "a" becomes "`": a token, not a length, changes
        header = json.loads(whole[12:12 + header_len])
        header["magnitudes"][1] *= 2  # valid JSON, but no longer what was digested
        container.write(tmp_path / "doubled", b"EVWV", 3, header,
                        [b"a\nb\nc", np.array(want[1].vectors)])
        for bad in (whole[:-1], whole[:20], b"", bytes(garbled),
                    b"EVCR" + whole[4:], whole + b"\0",
                    (tmp_path / "doubled").read_bytes()):
            cache.write_bytes(bad)
            assert_same_load(load_word_vectors(path), want)
            assert cache.read_bytes() == whole
        assert len(parses) == 8

    def test_version_two_cache_is_rebuilt(self, tmp_path, parses):
        # Version 2 recorded no magnitudes and digested the tokens alone.
        path = make_embedding_file(tmp_path, ["a", "b", "c"], dim=4)
        want = load_word_vectors(path)
        cache = cache_of(path)
        whole = cache.read_bytes()
        (header_len,) = struct.unpack("<I", whole[8:12])
        header = json.loads(whole[12:12 + header_len])
        del header["magnitudes"], header["sha256"]
        header["vocab_sha256"] = want[0].content_hash()
        container.write(cache, b"EVWV", 2, header,
                        [b"a\nb\nc", np.array(want[1].vectors)])
        assert_same_load(load_word_vectors(path), want)
        assert len(parses) == 2 and cache.read_bytes() == whole

    def test_unwritable_cache_path_still_loads(self, tmp_path, parses):
        path = make_embedding_file(tmp_path, ["a", "b"], dim=2)
        want = load_word_vectors(path)
        cache_of(path).unlink()
        cache_of(path).mkdir()
        assert_same_load(load_word_vectors(path), want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt",
                                                              "vectors.txt.evicache"]
        assert cache_of(path).is_dir() and len(parses) == 2

    def test_failed_rename_leaves_no_files(self, tmp_path, parses, monkeypatch):
        path = make_embedding_file(tmp_path, ["a", "b"], dim=2)

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", refuse)
        load_word_vectors(path)
        _, emb = load_word_vectors(path)
        assert emb.vector("b").shape == (2,) and len(parses) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]

    def test_file_that_fails_to_parse_leaves_no_cache(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0\n")
        with pytest.raises(ParseError):
            load_word_vectors(path)
        assert [p.name for p in tmp_path.iterdir()] == ["bad.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_parsed_once_and_not_cached(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as fh:
                fh.write("cat 1.0 2.0\ndog 3.0 4.0\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        vocab, emb = load_word_vectors(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert vocab.tokens == ["cat", "dog"] and emb.vector("dog").tolist() == [3.0, 4.0]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_mutated_cache_header_or_tokens_never_change_the_load(self, tmp_path):
        """Truncate the cache anywhere, or flip or overwrite any byte ahead of
        the matrix: the load neither raises nor differs from the text parse,
        since a damaged cache is rebuilt.  The matrix is trusted as written,
        so its bytes are not mutated here."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path / "v.txt"
        path.write_text("cat 1.5 -2.0 0.25\ndog 3.0 4.0 1e-300\nbird 0 7 -1\n")
        cache = cache_of(path)
        want = {dtype: load_word_vectors(path, None, dtype)
                for dtype in (np.float32, np.float64)}
        whole = cache.read_bytes()  # the float64 cache, written last
        (header_len,) = struct.unpack("<I", whole[8:12])
        header = json.loads(whole[12:12 + header_len])
        (_, matrix_at), _ = container.section_offsets(header_len,
                                                      [header["token_bytes"], 0])

        @hypothesis.settings(max_examples=300)
        @hypothesis.given(st.data())
        def check(data):
            raw = bytearray(whole)
            kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
            if kind == "truncate":
                raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
            else:
                at = data.draw(st.integers(0, matrix_at - 1))
                if kind == "flip":
                    raw[at] ^= 1 << data.draw(st.integers(0, 7))
                else:
                    raw[at] = data.draw(st.integers(0, 255))
            cache.write_bytes(bytes(raw))
            dtype = data.draw(st.sampled_from([np.float64, np.float32]))
            assert_same_load(load_word_vectors(path, None, dtype), want[dtype])

        check()


def feed_pipe(fifo, source):
    """Create a named pipe at ``fifo`` and start a thread that writes the
    file ``source`` into it once a reader opens it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    os.mkfifo(fifo)

    def feed():
        with open(source, "rb") as src, open(fifo, "wb") as dst:
            shutil.copyfileobj(src, dst)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


PREFIX_ROWS = b"a 1.0 2.0\nb 3.0 4.0\nc 5.0 6.0\nd 7.0 8.0\n"


class TestPrefixKey:
    """A load with ``vocab_limit`` keys its cache on the bytes it read."""

    @pytest.mark.parametrize("text,limit,edit,kept", [
        (PREFIX_ROWS, 2, lambda raw: raw + b"e 9.0 1.0\n", True),
        (PREFIX_ROWS, 2, lambda raw: raw.replace(b"d 7.0", b"d 7.5"), True),
        (PREFIX_ROWS, 2, lambda raw: raw.replace(b"b 3.0", b"b 3.5"), False),
        (PREFIX_ROWS, 9, lambda raw: raw + b"e 9.0 1.0\n", False),
        (b"a 1.0 2.0\nb 3.0 4.0", 2, lambda raw: raw + b"5\n", False),
    ], ids=["lines-appended", "line-after-prefix-changed", "byte-in-prefix-changed",
            "short-file-appended", "unended-last-line-extended"])
    def test_limited_load_keys_only_the_text_it_read(self, tmp_path, parses,
                                                     text, limit, edit, kept):
        path = tmp_path / "v.txt"
        path.write_bytes(text)
        load_word_vectors(path, limit)
        path.write_bytes(edit(text))
        got = load_word_vectors(path, limit)
        assert len(parses) == (1 if kept else 2)
        cache_of(path).unlink()
        assert_same_load(got, load_word_vectors(path, limit))

    def test_warm_limited_load_hashes_only_the_text_it_read(self, tmp_path, parses,
                                                            monkeypatch):
        path = make_embedding_file(tmp_path, [f"t{i}" for i in range(50)], dim=4)
        load_word_vectors(path, vocab_limit=3)
        read = len(b"".join(path.read_bytes().splitlines(keepends=True)[:3]))
        hashed = []
        prefix_sha256 = container.prefix_sha256

        def counted(fh, size):
            start = fh.tell()
            digest = prefix_sha256(fh, size)
            hashed.append(fh.tell() - start)
            return digest

        monkeypatch.setattr(container, "prefix_sha256", counted)
        vocab, _ = load_word_vectors(path, vocab_limit=3)
        assert len(parses) == 1 and len(vocab) == 3
        assert hashed == [read] and read * 10 < path.stat().st_size


def write_random_vectors(path, rows: int, dim: int):
    """Write ``rows`` random vectors of ``dim`` components, with tokens w0,
    w1, ..., and return ``path``."""
    rng = np.random.default_rng(0)
    layout = " ".join(["%.4f"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, rows, 1_000):
            block = rng.standard_normal((min(1_000, rows - lo), dim)).tolist()
            fh.writelines(f"w{lo + i} {layout % tuple(row)}\n" for i, row in enumerate(block))
    return path


def vocabulary_bytes(path) -> int:
    """Traced bytes of a Vocabulary of the tokens of the vector file ``path``,
    built token by token from fresh strings as a parse builds it."""
    with open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            vocab = Vocabulary()
            for line in fh:
                vocab.add(line.split(None, 1)[0])
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def big_vectors(tmp_path_factory):
    """A 20,000 x 50 word-vector file: an 8 MB matrix in float64."""
    return write_random_vectors(tmp_path_factory.mktemp("big") / "vectors.txt", 20_000, 50)


class TestStreamedParse:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("source", ["file", "pipe", "unwritable-cache-path"])
    def test_cold_load_peaks_far_below_the_matrix(self, big_vectors, tmp_path, monkeypatch,
                                                  source, dtype):
        """Beyond the Vocabulary it returns, a cold load holds less than a
        quarter of the float64 matrix at any moment."""
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        path = tmp_path / "vectors.txt"
        if source == "pipe":
            writer = feed_pipe(path, big_vectors)
        else:
            path.symlink_to(big_vectors)
        if source == "unwritable-cache-path":
            cache_of(path).mkdir()
        tracemalloc.start()
        try:
            vocab, emb = load_word_vectors(path, None, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if source == "pipe":
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert emb.vectors.shape == (20_000, 50) and emb.vectors.dtype == dtype
        assert peak - vocabulary_bytes(big_vectors) < 20_000 * 50 * 8 / 4

    @pytest.mark.parametrize("change", ["deleted", "rewritten-in-place", "truncated",
                                        "rebuilt-by-another-load"])
    def test_cold_matrix_is_a_private_read_only_map(self, tmp_path, change):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.5 -2.0 0.25\ndog 3.0 4.0 1e-300\nbird 0 7 -1\n")
        want = np.array([[float(v) for v in line.split()[1:]]
                         for line in path.read_text().splitlines()])
        _, emb = load_word_vectors(path)
        assert isinstance(emb.vectors.base, np.memmap)
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 5.0
        cache = cache_of(path)
        if change == "deleted":
            cache.unlink()
        elif change == "rewritten-in-place":
            with open(cache, "r+b") as fh:
                fh.write(bytes(cache.stat().st_size))
        elif change == "truncated":
            os.truncate(cache, 0)
        else:
            load_word_vectors(path, dtype=np.float32)
        assert emb.vectors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [6, 7])
    @pytest.mark.parametrize("bad,dtype,message", [
        ("1.0", np.float64, "expected 2 components, got 1"),
        ("1.0 oops", np.float64, "could not convert"),
        ("1.0 nan", np.float64, "not a finite number"),
        ("1.0 1e39", np.float32, "not a finite number"),
    ], ids=["ragged", "non-numeric", "nan", "float32-overflow"])
    def test_bad_row_after_written_blocks_names_its_line(self, tmp_path, monkeypatch,
                                                        row, bad, dtype, message):
        monkeypatch.setattr(embeddings, "_CAST_BLOCK", 4)  # a block every other row
        rows = [f"t{i} {i}.0 1.0" for i in range(9)]
        rows[row] = f"t{row} {bad}"
        path = tmp_path / "v.txt"
        path.write_text("\n".join(rows[:3] + [""] + rows[3:]) + "\n")  # row r is line r + 2
        with pytest.raises(ParseError, match=rf"v\.txt:{row + 2}: .*{message}"):
            load_word_vectors(path, dtype=dtype)

    @pytest.mark.parametrize("route", ["cold", "warm", "unwritable-cache-path",
                                       "directory-takes-no-file", "failed-rename",
                                       "parse-error", "pipe"])
    def test_no_load_leaves_a_file_behind(self, tmp_path, monkeypatch, route):
        tmp, home = tmp_path / "tmp", tmp_path / "vectors"
        tmp.mkdir()
        home.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        path = make_embedding_file(home, ["a", "b", "c"], dim=2)
        source = tmp_path / "source.txt"
        shutil.copy(path, source)
        expected = ["vectors.txt", "vectors.txt.evicache"]
        if route == "warm":
            load_word_vectors(path)
        elif route == "unwritable-cache-path":
            cache_of(path).mkdir()
        elif route == "directory-takes-no-file":
            temporary_file = tempfile.TemporaryFile

            def refuse(*args, dir=None, **kwargs):
                if dir is not None:
                    raise PermissionError(13, "Permission denied", dir)
                return temporary_file(*args, **kwargs)

            monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        elif route == "failed-rename":
            def fail(src, dst):
                raise PermissionError(13, "Permission denied", dst)

            monkeypatch.setattr(os, "replace", fail)
            expected = ["vectors.txt"]
        elif route == "parse-error":
            path.write_text("a 1.0 2.0\nb 1.0\n")
            expected = ["vectors.txt"]
        elif route == "pipe":
            path.unlink()
            writer = feed_pipe(path, source)
            expected = ["vectors.txt"]
        if route == "parse-error":
            with pytest.raises(ParseError):
                load_word_vectors(path)
        else:
            loaded = load_word_vectors(path)  # its map stays open for the listings
            assert_same_load(loaded, load_word_vectors(source))
        if route == "pipe":
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert sorted(p.name for p in home.iterdir()) == expected
        assert list(tmp.iterdir()) == []

    def test_load_of_40k_tokens_holds_the_vocabulary_and_little_more(self, tmp_path):
        """A cold load holds, beyond the Vocabulary it returns, one block's
        text, its float64 parse and one temporary; a warm load holds the
        cached token section, its decoded text and one list of its tokens."""
        path = write_random_vectors(tmp_path / "vectors.txt", 40_000, 25)
        vocabulary = vocabulary_bytes(path)
        token_bytes = len(b"\n".join(line.split(None, 1)[0]
                                      for line in path.read_bytes().splitlines()))
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                loaded = load_word_vectors(path)
                peaks.append(tracemalloc.get_traced_memory()[1] - vocabulary)
            finally:
                tracemalloc.stop()
            assert len(loaded[0]) == 40_000
            del loaded
        cold, warm = peaks
        assert cold < 3 * embeddings._CAST_BLOCK * 8
        assert warm < 3 * token_bytes


def line_by_line_load(path: str, vocab_limit, dtype):
    """The reference that block parsing must reproduce: each line split with
    ``str.split()`` and each new token's components converted with
    ``float()``, a block cast and checked for finite values each time it
    holds ``_CAST_BLOCK`` components.  Returns the tokens, the matrix and
    the number of bytes read, or raises what a load must raise."""
    tokens, blocks, block, linenos, dim = {}, [], [], [], None

    def write():
        with np.errstate(over="ignore"):
            rows = np.array(block, dtype=np.float64).reshape(-1, dim).astype(dtype)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ParseError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                             "vector component is not a finite number")
        blocks.append(rows)
        block.clear()
        linenos.clear()

    with open(path, "rb") as text:
        for lineno, raw in enumerate(text, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text ({e.reason})") from None
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ParseError(f"{path}:{lineno}: no vector components")
            elif len(values) != dim:
                raise ParseError(f"{path}:{lineno}: expected {dim} components, "
                                 f"got {len(values)}")
            if token in tokens:
                continue
            try:
                block.extend(map(float, values))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            tokens[token] = None
            linenos.append(lineno)
            if len(block) >= embeddings._CAST_BLOCK:
                write()
            if vocab_limit is not None and len(tokens) >= vocab_limit:
                break
        if not tokens:
            raise DegenerateInputError(f"{path}: file holds no word vectors")
        write()
        return list(tokens), np.concatenate(blocks), text.tell()


def assert_loads_line_by_line(path: str, vocab_limit, dtype):
    """A cold and a warm load of ``path`` return what ``line_by_line_load``
    returns, and the cache keys the same bytes; or the load raises the
    same error."""
    try:
        tokens, matrix, text_bytes = line_by_line_load(path, vocab_limit, dtype)
    except (ParseError, DegenerateInputError) as e:
        with pytest.raises(EvicredError) as got:
            load_word_vectors(path, vocab_limit, dtype)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    cold = load_word_vectors(path, vocab_limit, dtype)
    vocab, emb = cold
    assert vocab.tokens == tokens
    assert emb.vectors.dtype == matrix.dtype and emb.vectors.shape == matrix.shape
    assert emb.vectors.tobytes() == matrix.tobytes()
    assert emb.magnitudes() == WordEmbeddings(Vocabulary(tokens), matrix).magnitudes()
    whole = cache_of(Path(path)).read_bytes()
    (header_len,) = struct.unpack("<I", whole[8:12])
    assert json.loads(whole[12:12 + header_len])["text_bytes"] == text_bytes
    assert_same_load(load_word_vectors(path, vocab_limit, dtype), cold)


# Just above the float32 tie between 1 and 1 + 2^-23: parsed as float64 it
# rounds to the tie, and the cast to float32 then rounds to even, to 1.
ABOVE_A_FLOAT32_TIE = "1.000000059604644775390625000000000001"
# Components a vector file may hold: numbers numpy's reader and ``float()``
# both accept, ones only ``float()`` accepts, and ones neither accepts.
COMPONENTS = ["0", "-0", "7", "-2.5", "+.5", "1.", "1E3", "3.25e-2", "1e-300", "1e-400",
              "1e39", "-1e39", "1e999", "nan", "-inf", "Infinity", ABOVE_A_FLOAT32_TIE,
              "1_0", "\u0663", "\u0661\u0662.\u0665", "\uff11",
              "oops", "0x10", "1e", "--1", "1.0.0", "#", "#1", '"1"']
# str.split() splits on all of these; numpy's reader ends a line at "\r".
SEPARATORS = [" ", " ", "  ", "\t", "\xa0", "\u2003", "\u3000", "\x1c", "\x85", "\x0b",
              "\x0c", "\u2028", "\r"]


class TestBlockParse:
    """Block parsing through numpy's text reader loads exactly what a
    line-by-line parse with ``str.split()`` and ``float()`` loads, and
    fails on the same line with the same message."""

    def test_equals_a_line_by_line_parse(self, tmp_path, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        number = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                           st.sampled_from(COMPONENTS))

        @hypothesis.settings(max_examples=400)
        @hypothesis.given(st.data())
        def check(data):
            dim = data.draw(st.integers(1, 3))
            lines = []
            for _ in range(data.draw(st.integers(0, 10))):
                kind = data.draw(st.sampled_from(["row"] * 6 + ["blank", "undecodable"]))
                if kind == "blank":
                    lines.append(data.draw(st.sampled_from(["", " ", "\t", "\xa0 ", "\r"])))
                    continue
                count = data.draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1, 0]))
                fields = [data.draw(st.sampled_from(["a", "b", "c", "d", "é", "日本"]))]
                fields += [data.draw(number) for _ in range(count)]
                line = data.draw(st.sampled_from(["", " ", "\t"]))
                for field in fields:
                    line += field + data.draw(st.sampled_from(SEPARATORS))
                line = line[:-1] + data.draw(st.sampled_from(["", " ", "\t", "\r"]))
                if kind == "undecodable":
                    at = data.draw(st.integers(0, len(line)))
                    line = line[:at] + "\udcff" + line[at:]  # encodes as the byte 0xff
                lines.append(line)
            raw = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
            path = tmp_path / "v.txt"
            path.write_bytes(raw.encode("utf-8", "surrogateescape"))
            cache_of(path).unlink(missing_ok=True)
            monkeypatch.setattr(embeddings, "_CAST_BLOCK",
                                data.draw(st.sampled_from([1, 2, 3, 4, 6, 1 << 16])))
            assert_loads_line_by_line(str(path), data.draw(st.sampled_from([None, 1, 2, 4])),
                                      data.draw(st.sampled_from([np.float64, np.float32])))

        check()

    # Bad lines for a file of two components per row, by kind.
    BAD_LINES = {
        "ragged": "t{i} 1.0",
        "repeat-ragged": "t0 1.0",
        "no-components": "t{i}",
        "non-numeric": "t{i} 1.0 oops",
        "non-finite": "t{i} 1.0 nan",
        "float32-overflow": "t{i} 1.0 1e39",
        "undecodable": "t{i} 1.0 \udcff2.0",
    }

    @pytest.mark.parametrize("first,second", list(itertools.permutations(BAD_LINES, 2)))
    def test_two_bad_lines_in_one_block(self, tmp_path, first, second):
        rows = [f"t{i} {i}.5 1.0" for i in range(7)]
        rows[2] = self.BAD_LINES[first].format(i=2)
        rows[5] = self.BAD_LINES[second].format(i=5)
        path = tmp_path / "v.txt"
        path.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        for dtype in (np.float64, np.float32):
            with pytest.raises(EvicredError):
                line_by_line_load(str(path), None, dtype)
            assert_loads_line_by_line(str(path), None, dtype)

    @pytest.mark.parametrize("text", [
        "a 1_0 2\nb \u0663 \uff11\n", "a 1\u20032\nb 3\x1c4\n", "a 1 2\r3\nb 1 2\n", "a 1 2\nb\n",
        "a 1 2\nb 3 4 #5\n", f"a {ABOVE_A_FLOAT32_TIE} 2\n",
    ], ids=["float-only-syntax", "unicode-whitespace", "mid-line-return", "no-components",
            "comment-sign", "float32-double-rounding"])
    def test_text_that_numpy_may_read_otherwise(self, tmp_path, text):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        assert_loads_line_by_line(str(path), None, np.float64)


class TestWordEmbeddings:
    def test_oov_is_zero_vector(self, tmp_path):
        _, emb = load_word_vectors(make_embedding_file(tmp_path, ["cat"], dim=3))
        v = emb.vector("unicorn")
        assert v.shape == (3,)
        assert np.all(v == 0.0)

    def test_vectors_are_read_only(self, tmp_path):
        _, emb = load_word_vectors(make_embedding_file(tmp_path, ["cat"], dim=3))
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 5.0
        with pytest.raises(ValueError):
            emb.vector("unicorn")[0] = 5.0

    def test_matrix_for_stacks_in_token_order(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        _, emb = load_word_vectors(path)
        m = emb.matrix_for(["b", "zzz", "a"])
        assert m.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]
        assert m.dtype == np.float64
        assert emb.matrix_for(["zzz", "yyy"]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        m[:] = 7.0
        assert emb.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert emb.matrix_for(["zzz"]).tolist() == [[0.0, 0.0]]
        _, emb32 = load_word_vectors(path, dtype=np.float32)
        assert emb32.matrix_for(["a", "zzz"]).dtype == np.float32

    def test_matrix_for_empty_raises(self, tmp_path):
        _, emb = load_word_vectors(make_embedding_file(tmp_path, ["cat"], dim=3))
        with pytest.raises(DegenerateInputError):
            emb.matrix_for([])

    def test_content_hash_tracks_vocab(self, tmp_path):
        v1, _ = load_word_vectors(make_embedding_file(tmp_path, ["a", "b"], dim=2, name="v1.txt"))
        v2, _ = load_word_vectors(make_embedding_file(tmp_path, ["a", "b"], dim=2, name="v2.txt", seed=9))
        v3, _ = load_word_vectors(make_embedding_file(tmp_path, ["a", "c"], dim=2, name="v3.txt"))
        assert v1.content_hash() == v2.content_hash()
        assert v1.content_hash() != v3.content_hash()


class TestClaimMean:
    def test_mean_includes_oov_zeros_in_denominator(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("hot 2.0 4.0\ncold 4.0 2.0\n")
        _, emb = load_word_vectors(path)
        # Two known plus one unknown token: denominator is 3.
        got = claim_mean(["hot", "cold", "mystery"], emb)
        assert got.tolist() == [2.0, 2.0]

    def test_empty_tokens_raise(self, tmp_path):
        _, emb = load_word_vectors(make_embedding_file(tmp_path, ["a"], dim=2))
        with pytest.raises(DegenerateInputError):
            claim_mean([], emb)


class TestVocabulary:
    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add("cat") == 0
        assert v.add("dog") == 1
        assert v.add("cat") == 0
        assert len(v) == 2

    def test_index_of_missing_is_none(self):
        v = Vocabulary(["cat"])
        assert v.index("cat") == 0
        assert v.index("ghost") is None

    def test_repeats_keep_their_first_index(self):
        v = Vocabulary(iter(["cat", "dog", "cat", "emu", "dog"]))
        assert v.tokens == ["cat", "dog", "emu"]
        assert [v.index(t) for t in ("cat", "dog", "emu")] == [0, 1, 2]

    @pytest.mark.parametrize("tokens", [[], ["cat"], ["été", "日本", "naïve", "a b"]],
                             ids=["empty", "one", "non-ascii"])
    def test_content_hash_digests_each_token_and_a_newline(self, tokens):
        per_token = hashlib.sha256()
        for token in tokens:
            per_token.update(token.encode("utf-8") + b"\n")
        assert Vocabulary(tokens).content_hash() == per_token.hexdigest()


class TestSourceTable:
    def test_low_support_sources_share_fallback_row(self):
        counts = {"often.com": 5, "rare.org": 1, "mid.net": 3}
        rng = np.random.default_rng(0)
        table = build_source_table(counts, min_support=3, dim=4, rng=rng, name="articles")
        assert table.sources == ["mid.net", "often.com"]
        assert table.tensor.shape == (3, 4)
        assert table.index("rare.org") == table.fallback_index
        assert table.index("never-seen.io") == table.fallback_index
        assert table.index("mid.net") != table.fallback_index

    def test_unknown_and_none_map_to_fallback(self):
        table = SourceEmbeddingTable(["a"], np.zeros((2, 3)), name="t")
        assert table.index(None) == 1
        assert table.index("b") == 1
        assert table.index("a") == 0

    def test_row_count_must_be_sources_plus_one(self):
        with pytest.raises(DegenerateInputError):
            SourceEmbeddingTable(["a", "b"], np.zeros((2, 3)), name="t")

    def test_reinitialized_changes_values_not_shape(self):
        rng = np.random.default_rng(0)
        table = build_source_table({"a": 9}, min_support=1, dim=4, rng=rng, name="t")
        fresh = table.reinitialized(np.random.default_rng(42))
        assert fresh.tensor.shape == table.tensor.shape
        assert fresh.sources == table.sources
        assert not np.array_equal(fresh.tensor.data, table.tensor.data)

    def test_deterministic_given_seed(self):
        counts = {"x": 4, "y": 7}
        t1 = build_source_table(counts, min_support=1, dim=3, rng=np.random.default_rng(5), name="t")
        t2 = build_source_table(counts, min_support=1, dim=3, rng=np.random.default_rng(5), name="t")
        assert np.array_equal(t1.tensor.data, t2.tensor.data)


@pytest.mark.skipif(
    "EVICRED_WORD_VECTORS" not in os.environ,
    reason="set EVICRED_WORD_VECTORS to a real embedding file to run",
)
def test_real_embedding_file_loads():
    vocab, emb = load_word_vectors(os.environ["EVICRED_WORD_VECTORS"], vocab_limit=5000)
    assert emb.dim in (50, 100, 200, 300)
    assert len(vocab) == 5000
