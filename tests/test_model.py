"""Encoder, attention, fusion, aggregation, and checkpoint container.

The fusion stack and the recurrent encoder are checked against straight
numpy re-implementations.  The encoder reference reads each direction's
fused (4H, d+H) gate matrix as four row blocks in the order input,
forget, output, cell, which pins the layout checkpoints store; structural
properties (tied weights turn reversal into a half swap, zeroed gates
kill the state) are checked as well.
"""
import json
import math
import struct

import numpy as np
import pytest

from evicred.corpus import ClaimInstance
from evicred.embeddings import SourceEmbeddingTable, WordEmbeddings
from evicred.errors import (
    ContractError,
    DegenerateInputError,
    ParseError,
    ShapeError,
)
from evicred.model import (
    CHUNK_TOKENS,
    GATES,
    CredibilityModel,
    Hyperparams,
    ModelParams,
    Pair,
    aggregate,
    aggregate_class_probs,
    article_vector,
    attend,
    bilstm_encode,
    load_checkpoint,
    save_checkpoint,
    score_article,
    verdict,
)
from evicred.numeric import Tensor, glorot_uniform
from tests.conftest import tiny_world


class TestHyperparams:
    def test_fusion_width_counts_both_tables(self):
        h = Hyperparams(word_dim=10, hidden_size=8, fc_size=4,
                        article_source_dim=3, claim_source_dim=2)
        assert h.fusion_input_dim == 16 + 2 + 3

    def test_fusion_width_without_claim_sources(self):
        h = Hyperparams(word_dim=10, hidden_size=8, fc_size=4,
                        article_source_dim=3)
        assert h.fusion_input_dim == 16 + 3

    def test_head_rows_by_mode(self):
        base = dict(word_dim=4, hidden_size=4, fc_size=4, article_source_dim=2)
        assert Hyperparams(**base).head_rows == 1
        assert Hyperparams(**base, classes=3).head_rows == 3
        assert Hyperparams(**base, mode="regress").head_rows == 1

    @pytest.mark.parametrize("bad", [
        dict(word_dim=0), dict(hidden_size=-1), dict(dropout=1.0),
        dict(dropout=-0.1), dict(mode="rank"), dict(classes=1),
        dict(claim_source_dim=0),
    ])
    def test_rejects_bad_values(self, bad):
        kwargs = dict(word_dim=4, hidden_size=4, fc_size=4, article_source_dim=2)
        kwargs.update(bad)
        with pytest.raises(ContractError):
            Hyperparams(**kwargs)


class TestModelParams:
    def test_forget_bias_starts_at_one(self):
        hyper, _, _, params = tiny_world()
        h = hyper.hidden_size
        for b in (params.lstm_fw_b, params.lstm_bw_b):
            assert b.shape == (4 * h, 1)
            assert np.all(b.data[h:2 * h] == 1.0)  # forget block
            assert np.all(b.data[:h] == 0.0)
            assert np.all(b.data[2 * h:] == 0.0)

    def test_gate_blocks_are_per_gate_glorot_draws(self):
        # Each fused matrix stacks four H x (d+H) draws in GATES order,
        # the same values four separate gate matrices would get.
        hyper = Hyperparams(word_dim=5, hidden_size=3, fc_size=2,
                            article_source_dim=2)
        table = SourceEmbeddingTable(["s"], np.zeros((2, 2)), "article_source_table")
        for dtype in (np.float64, np.float32):
            params = ModelParams(hyper, np.random.default_rng(21),
                                 article_sources=table, dtype=dtype)
            rng = np.random.default_rng(21)
            for w in (params.lstm_fw_w, params.lstm_bw_w):
                expected = np.vstack([glorot_uniform(3, 8, rng, dtype) for _ in GATES])
                assert w.data.dtype == dtype
                assert np.array_equal(w.data, expected)

    def test_named_covers_every_tensor_once(self):
        _, _, _, params = tiny_world()
        named = params.named()
        assert len(named) == 4 + 2 + 4 + 2 + 2
        assert "claim_source_table" in named
        assert "article_source_table" in named
        for name, t in named.items():
            assert t.name == name or name.endswith("table")
            assert t.requires_grad

    def test_regularized_is_the_three_matrices(self):
        _, _, _, params = tiny_world()
        assert [t.name for t in params.regularized()] == [
            "fuse1_w", "fuse2_w", "head_w"]

    def test_snapshot_restore_roundtrip_is_bit_exact(self):
        _, _, _, params = tiny_world()
        snap = params.snapshot()
        for t in params.named().values():
            t.data = t.data + 1.0
        params.restore(snap)
        for name, t in params.named().items():
            assert np.array_equal(t.data, snap[name])

    def test_claim_table_must_match_hyper(self):
        hyper, _, _, params = tiny_world()
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            ModelParams(hyper, rng, article_sources=params.article_sources,
                        claim_sources=None)
        wrong_dim = SourceEmbeddingTable(
            ["speaker"], np.zeros((2, 5)), "claim_source_table")
        with pytest.raises(ShapeError):
            ModelParams(hyper, rng, article_sources=params.article_sources,
                        claim_sources=wrong_dim)


def random_embeds(k, dim, seed=0):
    return np.random.default_rng(seed).standard_normal((k, dim))


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_reference(embeds, w, b):
    """Per-gate numpy recurrence over the four row blocks; states as (H, k)."""
    size = w.shape[0] // 4
    blocks = {gate: (w[n * size:(n + 1) * size], b[n * size:(n + 1) * size, 0])
              for n, gate in enumerate(("input", "forget", "output", "cell"))}

    def gate(name, z):
        gw, gb = blocks[name]
        return gw @ z + gb

    h, c, states = np.zeros(size), np.zeros(size), []
    for x in embeds:
        z = np.concatenate([x, h])
        c = (sigmoid_np(gate("forget", z)) * c
             + sigmoid_np(gate("input", z)) * np.tanh(gate("cell", z)))
        h = sigmoid_np(gate("output", z)) * np.tanh(c)
        states.append(h)
    return np.stack(states, axis=1)


class TestBilstmEncode:
    def test_shapes(self):
        hyper, _, _, params = tiny_world()
        states = bilstm_encode(random_embeds(5, hyper.word_dim), params)
        assert states.shape == (2 * hyper.hidden_size, 5)

    def test_matches_per_gate_numpy_reference(self):
        hyper, _, _, params = tiny_world(seed=22)
        rng = np.random.default_rng(23)
        for b in (params.lstm_fw_b, params.lstm_bw_b):
            b.data = rng.standard_normal(b.shape)
        embeds = random_embeds(7, hyper.word_dim, seed=24)
        forward = lstm_reference(embeds, params.lstm_fw_w.data, params.lstm_fw_b.data)
        backward = lstm_reference(embeds[::-1], params.lstm_bw_w.data,
                                  params.lstm_bw_b.data)[:, ::-1]
        got = bilstm_encode(embeds, params).data
        assert np.max(np.abs(got - np.vstack([forward, backward]))) < 1e-12

    def test_padded_batch_matches_per_gate_reference_per_column(self):
        # Items of unequal length, padded to the longest (past the 16-step
        # gradient block): every real column equals the unpadded
        # reference and every padding column is zero.
        hyper, _, _, params = tiny_world(seed=25)
        rng = np.random.default_rng(26)
        for b in (params.lstm_fw_b, params.lstm_bw_b):
            b.data = rng.standard_normal(b.shape)
        lengths = np.array([3, 20, 1, 11])
        steps, size = lengths.max(), hyper.hidden_size
        batch = np.zeros((steps, len(lengths), hyper.word_dim))
        for i, k in enumerate(lengths):
            batch[:k, i] = random_embeds(k, hyper.word_dim, seed=30 + i)
        got = bilstm_encode(batch, params, lengths).data.reshape(2 * size, steps, -1)
        for i, k in enumerate(lengths):
            embeds = batch[:k, i]
            forward = lstm_reference(embeds, params.lstm_fw_w.data,
                                     params.lstm_fw_b.data)
            backward = lstm_reference(embeds[::-1], params.lstm_bw_w.data,
                                      params.lstm_bw_b.data)[:, ::-1]
            want = np.vstack([forward, backward])
            assert np.max(np.abs(got[:, :k, i] - want)) < 1e-12
            assert np.all(got[:, k:, i] == 0.0)

    def test_zeroed_gates_produce_zero_states(self):
        hyper, _, _, params = tiny_world()
        for t in (params.lstm_fw_w, params.lstm_fw_b, params.lstm_bw_w,
                  params.lstm_bw_b):
            t.data = np.zeros_like(t.data)
        states = bilstm_encode(random_embeds(4, hyper.word_dim), params)
        assert np.all(states.data == 0.0)

    def test_tied_gates_make_reversal_a_half_swap(self):
        # With identical forward and backward weights, encoding the
        # reversed article must equal the original encoding read backwards
        # with the two halves of each state exchanged, bit for bit.
        hyper, _, _, params = tiny_world(seed=3)
        params.lstm_bw_w.data = params.lstm_fw_w.data.copy()
        params.lstm_bw_b.data = params.lstm_fw_b.data.copy()
        embeds = random_embeds(6, hyper.word_dim, seed=4)
        fwd = bilstm_encode(embeds, params).data
        rev = bilstm_encode(embeds[::-1], params).data
        h = hyper.hidden_size
        assert np.array_equal(rev[:h], fwd[h:, ::-1])
        assert np.array_equal(rev[h:], fwd[:h, ::-1])

    def test_states_depend_on_position(self):
        hyper, _, _, params = tiny_world(seed=5)
        embeds = random_embeds(4, hyper.word_dim, seed=6)
        base = bilstm_encode(embeds, params)
        swapped = bilstm_encode(embeds[[1, 0, 2, 3]], params)
        assert not np.allclose(base.data[:, 2], swapped.data[:, 2])

    def test_empty_article_raises(self):
        hyper, _, _, params = tiny_world()
        with pytest.raises(DegenerateInputError):
            bilstm_encode(np.zeros((0, hyper.word_dim)), params)

    def test_wrong_word_dim_raises(self):
        _, _, _, params = tiny_world()
        with pytest.raises(ShapeError):
            bilstm_encode(np.zeros((3, 7)), params)


class TestAttend:
    def world(self, k=5, seed=2):
        hyper, _, _, params = tiny_world(seed=seed)
        rng = np.random.default_rng(seed + 1)
        embeds = rng.standard_normal((k, hyper.word_dim))
        claim_vec = rng.standard_normal(hyper.word_dim)
        return hyper, params, embeds, claim_vec

    def test_weights_are_a_distribution(self):
        _, params, embeds, claim_vec = self.world()
        weights, scores = attend(embeds, claim_vec, params)
        assert weights.shape == (5, 1)
        assert scores.shape == (5, 1)
        assert math.fsum(weights.data[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights.data > 0)

    def test_scores_are_tanh_bounded(self):
        _, params, embeds, claim_vec = self.world()
        _, scores = attend(embeds, claim_vec, params)
        assert np.all(np.abs(scores.data) <= 1.0)

    def test_zero_attention_weights_give_uniform(self):
        _, params, embeds, claim_vec = self.world()
        params.attention_w.data = np.zeros_like(params.attention_w.data)
        params.attention_b.data = np.zeros_like(params.attention_b.data)
        weights, _ = attend(embeds, claim_vec, params)
        assert np.allclose(weights.data, 0.2, atol=1e-15)

    def test_mask_zeroes_padding_exactly(self):
        _, params, embeds, claim_vec = self.world()
        mask = np.array([True, True, False, True, False])
        weights, _ = attend(embeds, claim_vec, params, mask)
        assert weights.data[2, 0] == 0.0
        assert weights.data[4, 0] == 0.0
        assert math.fsum(weights.data[mask, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_article_raises(self):
        hyper, params, _, claim_vec = self.world()
        with pytest.raises(DegenerateInputError):
            attend(np.zeros((0, hyper.word_dim)), claim_vec, params)


class TestArticleVector:
    def test_matches_numpy_oracle(self):
        hyper, _, _, params = tiny_world()
        states = bilstm_encode(random_embeds(4, hyper.word_dim, seed=8), params)
        w = np.array([[0.1], [0.2], [0.3], [0.4]])
        got = article_vector(states, Tensor(w.copy()))
        expected = (states.data @ w) / 4.0
        assert np.allclose(got.data, expected, atol=1e-15)

    def test_length_mismatch_raises(self):
        hyper, _, _, params = tiny_world()
        states = bilstm_encode(random_embeds(3, hyper.word_dim), params)
        with pytest.raises(ShapeError):
            article_vector(states, Tensor(np.ones((4, 1))))


def relu_np(x):
    return np.maximum(x, 0.0)


class TestScoreArticle:
    def test_binary_head_matches_numpy_oracle(self):
        hyper, _, _, params = tiny_world(seed=9)
        rng = np.random.default_rng(10)
        g = rng.standard_normal((2 * hyper.hidden_size, 1))
        cs = rng.standard_normal((hyper.claim_source_dim, 1))
        asrc = rng.standard_normal((hyper.article_source_dim, 1))
        out = score_article(Tensor(g.copy()), Tensor(cs.copy()),
                            Tensor(asrc.copy()), params)
        feats = np.vstack([g, cs, asrc])
        e1 = relu_np(params.fuse1_w.data @ feats + params.fuse1_b.data)
        e2 = relu_np(params.fuse2_w.data @ e1 + params.fuse2_b.data)
        logit = params.head_w.data @ e2 + params.head_b.data
        expected = 1.0 / (1.0 + np.exp(-logit))
        assert out.shape == (1, 1)
        assert abs(out.item() - expected[0, 0]) < 1e-12

    def test_multiclass_head_is_a_distribution(self):
        rng = np.random.default_rng(11)
        hyper = Hyperparams(word_dim=4, hidden_size=3, fc_size=3,
                            article_source_dim=2, classes=3)
        table = SourceEmbeddingTable(["s"], rng.standard_normal((2, 2)),
                                     "article_source_table")
        params = ModelParams(hyper, rng, article_sources=table)
        g = rng.standard_normal((6, 1))
        asrc = rng.standard_normal((2, 1))
        out = score_article(Tensor(g), None, Tensor(asrc), params)
        assert out.shape == (3, 1)
        assert math.fsum(out.data[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_regression_head_is_unbounded(self):
        rng = np.random.default_rng(12)
        hyper = Hyperparams(word_dim=4, hidden_size=3, fc_size=3,
                            article_source_dim=2, mode="regress")
        table = SourceEmbeddingTable(["s"], rng.standard_normal((2, 2)),
                                     "article_source_table")
        params = ModelParams(hyper, rng, article_sources=table)
        g = rng.standard_normal((6, 1))
        asrc = rng.standard_normal((2, 1))
        out = score_article(Tensor(g), None, Tensor(asrc), params)
        feats = np.vstack([g, asrc])
        e1 = relu_np(params.fuse1_w.data @ feats + params.fuse1_b.data)
        e2 = relu_np(params.fuse2_w.data @ e1 + params.fuse2_b.data)
        expected = params.head_w.data @ e2 + params.head_b.data
        assert out.item() == pytest.approx(expected[0, 0], abs=1e-12)

    def test_missing_claim_source_is_a_contract_error(self):
        hyper, _, _, params = tiny_world()
        g = np.zeros((2 * hyper.hidden_size, 1))
        with pytest.raises(ContractError):
            score_article(Tensor(g), None, Tensor(np.zeros((2, 1))), params)


def make_instance(vocab, n_articles=3, seed=0):
    rng = np.random.default_rng(seed)
    tokens = list(vocab.tokens)
    pick = lambda n: [tokens[i] for i in rng.integers(0, len(tokens), size=n)]
    articles = [pick(5) for _ in range(n_articles)]
    return ClaimInstance(
        claim_id="c0", claim_text="", claim_tokens=pick(3),
        claim_source="speaker", articles=articles,
        article_texts=[" ".join(a) for a in articles],
        article_sources=["siteA"] * n_articles, label=1,
    )


class TestCredibilityModel:
    def test_article_score_trace_is_consistent(self):
        hyper, vocab, emb, params = tiny_world(seed=13)
        model = CredibilityModel(hyper, params, emb)
        out, (trace,) = model.article_score([Pair(["t0", "t1"], ["t2", "t3", "t4"],
                                                  "speaker", "siteA")])
        assert trace.tokens == ["t2", "t3", "t4"]
        assert trace.article_vec.shape == (2 * hyper.hidden_size,)
        assert trace.attention_weights.shape == (3,)
        assert math.fsum(trace.attention_weights) == pytest.approx(1.0, abs=1e-12)
        assert trace.score == out.item()
        assert 0.0 < trace.score < 1.0

    def test_oov_tokens_are_tolerated(self):
        hyper, vocab, emb, params = tiny_world(seed=13)
        model = CredibilityModel(hyper, params, emb)
        out, _ = model.article_score([Pair(["unknown", "words"], ["t0", "mystery"],
                                           None, None)])
        assert np.isfinite(out.item())

    def test_claim_score_is_fsum_mean_of_articles(self):
        hyper, vocab, emb, params = tiny_world(seed=14)
        model = CredibilityModel(hyper, params, emb)
        inst = make_instance(vocab, n_articles=3, seed=15)
        cred, traces = model.claim_score(inst)
        assert cred == math.fsum(t.score for t in traces) / 3

    def test_claim_score_ignores_article_order(self):
        hyper, vocab, emb, params = tiny_world(seed=14)
        model = CredibilityModel(hyper, params, emb)
        inst = make_instance(vocab, n_articles=4, seed=16)
        cred, _ = model.claim_score(inst)
        perm = [2, 0, 3, 1]
        shuffled = ClaimInstance(
            claim_id=inst.claim_id, claim_text=inst.claim_text,
            claim_tokens=inst.claim_tokens, claim_source=inst.claim_source,
            articles=[inst.articles[i] for i in perm],
            article_texts=[inst.article_texts[i] for i in perm],
            article_sources=[inst.article_sources[i] for i in perm],
            label=inst.label)
        cred2, _ = model.claim_score(shuffled)
        assert cred == cred2

    def test_over_budget_claim_is_chunked_and_order_free(self, monkeypatch):
        hyper, vocab, emb, params = tiny_world(seed=20)
        model = CredibilityModel(hyper, params, emb)
        rng = np.random.default_rng(21)
        tokens = list(vocab.tokens)
        articles = [[tokens[j] for j in rng.integers(0, len(tokens), size=n)]
                    for n in (CHUNK_TOKENS // 2, 30, CHUNK_TOKENS + 5, 250)]
        sources = ["siteA", None, "elsewhere", "siteA"]
        passes = []
        score_chunk = model.article_score

        def counted(pairs):
            passes.append(len(pairs))
            return score_chunk(pairs)

        monkeypatch.setattr(model, "article_score", counted)
        results = []
        for perm in [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
            inst = ClaimInstance(
                claim_id="c0", claim_text="", claim_tokens=["t1", "t2"],
                claim_source="speaker", articles=[articles[i] for i in perm],
                article_texts=["" for _ in perm],
                article_sources=[sources[i] for i in perm], label=1)
            cred, traces = model.claim_score(inst)
            scores = dict(zip(perm, (t.score for t in traces)))
            results.append((cred, [scores[i] for i in range(4)]))
        # Shortest first: 30 + 250 tokens share a chunk, 400 and 805 do not.
        assert passes == [2, 1, 1] * 4
        assert all(r == results[0] for r in results)

    def test_claim_score_returns_traces_in_input_order(self):
        hyper, vocab, emb, params = tiny_world(seed=18)
        model = CredibilityModel(hyper, params, emb)
        rng = np.random.default_rng(19)
        tokens = list(vocab.tokens)
        articles = [[tokens[j] for j in rng.integers(0, len(tokens), size=n)]
                    for n in (7, 2, 12, 4)]
        inst = ClaimInstance(
            claim_id="c0", claim_text="", claim_tokens=["t1", "t2"],
            claim_source="speaker", articles=articles,
            article_texts=[" ".join(a) for a in articles],
            article_sources=["siteA", None, "elsewhere", "siteA"], label=1)
        _, traces = model.claim_score(inst)
        assert [t.tokens for t in traces] == articles
        for article, source, trace in zip(articles, inst.article_sources, traces):
            _, (alone,) = model.article_score([Pair(["t1", "t2"], article,
                                                    "speaker", source)])
            assert abs(trace.score - alone.score) < 1e-12
            assert trace.attention_weights.shape == (len(article),)

    def test_embedding_dim_mismatch_raises(self):
        hyper, vocab, _, params = tiny_world()
        wrong = WordEmbeddings(vocab, np.zeros((len(vocab), 7)))
        with pytest.raises(ShapeError):
            CredibilityModel(hyper, params, wrong)


class TestAggregate:
    def test_equals_fsum_oracle_and_ignores_order(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            scores = rng.random(int(rng.integers(1, 12))).tolist()
            expected = math.fsum(scores) / len(scores)
            assert aggregate(scores) == expected
            rng.shuffle(scores)
            assert aggregate(scores) == expected

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            aggregate([])

    def test_class_probs_average_per_class(self):
        rows = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3])]
        got = aggregate_class_probs(rows)
        assert np.allclose(got, [0.4, 0.2, 0.4], atol=1e-15)
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)


def test_verdict_threshold():
    assert verdict(0.5) == 1
    assert verdict(0.4999) == 0
    assert verdict(0.9) == 1


class TestCheckpoints:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        hyper, _, _, params = tiny_world(seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab_hash="abc123")
        loaded, vocab_hash = load_checkpoint(path)
        assert vocab_hash == "abc123"
        assert loaded.hyper == hyper
        assert loaded.article_sources.sources == params.article_sources.sources
        assert loaded.claim_sources.sources == params.claim_sources.sources
        original = params.named()
        for name, t in loaded.named().items():
            assert np.array_equal(t.data, original[name].data), name
            assert t.data.dtype == original[name].data.dtype

    def test_same_params_write_identical_bytes(self, tmp_path):
        _, _, _, params = tiny_world(seed=19)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, vocab_hash="h")
        save_checkpoint(p2, params, vocab_hash="h")
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ParseError, match="not a checkpoint"):
            load_checkpoint(path)

    def saved(self, tmp_path):
        _, _, _, params = tiny_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab_hash="h")
        return path

    def test_truncated_file_raises(self, tmp_path):
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 16])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)

    def test_future_version_raises(self, tmp_path):
        # Version 1 (four matrices per LSTM direction) has no reader either.
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        for version in (250, 1):
            # little-endian version field right after the magic
            path.write_bytes(whole[:4] + bytes([version]) + whole[5:])
            with pytest.raises(ParseError,
                               match=f"unsupported checkpoint version {version}"):
                load_checkpoint(path)

    def test_file_shorter_than_preamble_raises(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ParseError, match="truncated checkpoint preamble"):
            load_checkpoint(path)

    def test_file_shorter_than_header_raises(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ParseError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_header_that_is_not_utf8_json_raises(self, tmp_path):
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        for bad in (b"\xff", b"["):  # invalid UTF-8, then invalid JSON
            path.write_bytes(whole[:12] + bad + whole[13:])
            with pytest.raises(ParseError, match="not UTF-8 JSON"):
                load_checkpoint(path)

    def test_header_missing_a_key_raises(self, tmp_path):
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        (length,) = struct.unpack("<I", whole[8:12])
        for key, owner in (("vocab_hash", lambda h: h),
                           ("dtype", lambda h: h["arrays"][0])):
            header = json.loads(whole[12:12 + length])
            del owner(header)[key]
            blob = json.dumps(header).encode("utf-8")
            path.write_bytes(whole[:8] + struct.pack("<I", len(blob)) + blob
                             + whole[12 + length:])
            with pytest.raises(ParseError, match=f"lacks {key!r}"):
                load_checkpoint(path)

    def test_bytes_after_the_last_array_raise(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ParseError, match="after the last array"):
            load_checkpoint(path)

    def test_no_claim_table_roundtrip(self, tmp_path):
        hyper, _, _, params = tiny_world(claim_source_dim=None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab_hash="h")
        loaded, _ = load_checkpoint(path)
        assert loaded.claim_sources is None
