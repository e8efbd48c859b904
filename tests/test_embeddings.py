"""Word vector loading, vocabulary, and source bucketing."""
import os

import numpy as np
import pytest

from evicred.embeddings import (
    SourceEmbeddingTable,
    Vocabulary,
    build_source_table,
    claim_mean,
    load_word_vectors,
    tokenize,
)
from evicred.errors import DegenerateInputError, ParseError
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

    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "exact.txt"
        path.write_text("pi 3.14159 -2.5\n")
        _, emb = load_word_vectors(path)
        assert emb.vector("pi").tolist() == [3.14159, -2.5]


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
