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
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from evicred import container, training
from evicred.corpus import ClaimInstance
from evicred.embeddings import (SourceEmbeddingTable, Vocabulary, WordEmbeddings,
                                load_word_vectors)
from evicred.errors import (
    ContractError,
    DegenerateInputError,
    EvicredError,
    ParseError,
    ShapeError,
)
from evicred.model import (
    CHUNK_TOKENS,
    GATES,
    SCORE_TOKENS,
    CredibilityModel,
    Hyperparams,
    ModelParams,
    Pair,
    aggregate,
    article_vector,
    attend,
    bilstm_encode,
    load_checkpoint,
    save_checkpoint,
    score_article,
    verdict,
    _VERSION,
    _digest,
)
from evicred.numeric import Tensor, glorot_uniform, zero_grads
from tests.conftest import make_embedding_file, tiny_world


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
        dict(claim_source_dim=0), dict(hidden_size=3.0), dict(word_dim=True),
        dict(claim_source_dim=2.0), dict(classes=False),
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
        assert len({id(t) for t in named.values()}) == len(named)
        assert named["claim_source_table"] is params.claim_sources.tensor
        assert named["article_source_table"] is params.article_sources.tensor
        for name, t in named.items():
            assert name.endswith("table") or t is getattr(params, name)
            assert t.requires_grad

    def test_regularized_is_the_three_matrices(self):
        _, _, _, params = tiny_world()
        named = params.named()
        regularized = params.regularized()
        assert len(regularized) == 3
        for t, expected in zip(regularized, [params.fuse1_w, params.fuse2_w, params.head_w]):
            assert t is expected
        for t, name in zip(regularized, ["fuse1_w", "fuse2_w", "head_w"]):
            assert t is named[name]

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


def snopes_model(rng):
    """A model at the snopes sizes (d=100, H=64) over 500 words w0..w499."""
    hyper = Hyperparams(word_dim=100, hidden_size=64, fc_size=32,
                        article_source_dim=8, claim_source_dim=8)
    vocab = Vocabulary([f"w{i}" for i in range(500)])
    emb = WordEmbeddings(vocab, rng.standard_normal((500, 100)) * 0.3)
    params = ModelParams(
        hyper, rng,
        article_sources=SourceEmbeddingTable(["s"], rng.standard_normal((2, 8)),
                                             "article_source_table"),
        claim_sources=SourceEmbeddingTable(["c"], rng.standard_normal((2, 8)),
                                           "claim_source_table"))
    return CredibilityModel(hyper, params, emb)


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
        embeds = random_embeds(5, hyper.word_dim)[:, None]
        states = bilstm_encode(embeds, params, np.array([5]))
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
        got = bilstm_encode(embeds[:, None], params, np.array([7])).data
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
        embeds = random_embeds(4, hyper.word_dim)[:, None]
        states = bilstm_encode(embeds, params, np.array([4]))
        assert np.all(states.data == 0.0)

    def test_tied_gates_make_reversal_a_half_swap(self):
        # With identical forward and backward weights, encoding the
        # reversed article must equal the original encoding read backwards
        # with the two halves of each state exchanged, bit for bit.
        hyper, _, _, params = tiny_world(seed=3)
        params.lstm_bw_w.data = params.lstm_fw_w.data.copy()
        params.lstm_bw_b.data = params.lstm_fw_b.data.copy()
        embeds = random_embeds(6, hyper.word_dim, seed=4)[:, None]
        fwd = bilstm_encode(embeds, params, np.array([6])).data
        rev = bilstm_encode(embeds[::-1], params, np.array([6])).data
        h = hyper.hidden_size
        assert np.array_equal(rev[:h], fwd[h:, ::-1])
        assert np.array_equal(rev[h:], fwd[:h, ::-1])

    def test_states_depend_on_position(self):
        hyper, _, _, params = tiny_world(seed=5)
        embeds = random_embeds(4, hyper.word_dim, seed=6)[:, None]
        base = bilstm_encode(embeds, params, np.array([4]))
        swapped = bilstm_encode(embeds[[1, 0, 2, 3]], params, np.array([4]))
        assert not np.allclose(base.data[:, 2], swapped.data[:, 2])

    def test_empty_article_raises(self):
        hyper, _, _, params = tiny_world()
        with pytest.raises(DegenerateInputError):
            bilstm_encode(np.zeros((0, 1, hyper.word_dim)), params, np.array([0]))

    def test_wrong_word_dim_raises(self):
        _, _, _, params = tiny_world()
        with pytest.raises(ShapeError):
            bilstm_encode(np.zeros((3, 1, 7)), params, np.array([3]))


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

    def test_claim_vector_of_the_wrong_width_raises(self):
        hyper, params, embeds, _ = self.world()
        wide = np.ones(hyper.word_dim + 1)
        with pytest.raises(ShapeError, match=rf"\(5,\) are not {hyper.word_dim}-dimensional"):
            attend(embeds, wide, params)
        with pytest.raises(ShapeError, match="not 4-dimensional"):
            attend(embeds[:, None, :], wide[None], params)

    def test_claim_vectors_for_another_batch_raise(self):
        hyper, params, embeds, _ = self.world()
        with pytest.raises(ShapeError, match="3 claim vectors for 1 articles"):
            attend(embeds[:, None, :], np.ones((3, hyper.word_dim)), params)

    @pytest.mark.parametrize("shape", [(4,), (5, 1, 1, 4)], ids=["1-D", "4-D"])
    def test_embeddings_of_another_rank_raise(self, shape):
        hyper, params, _, claim_vec = self.world()
        with pytest.raises(ShapeError, match="got shape"):
            attend(np.ones(shape), claim_vec, params)


class TestArticleVector:
    def test_matches_numpy_oracle(self):
        hyper, _, _, params = tiny_world()
        embeds = random_embeds(4, hyper.word_dim, seed=8)[:, None]
        states = bilstm_encode(embeds, params, np.array([4]))
        w = np.array([[0.1], [0.2], [0.3], [0.4]])
        got = article_vector(states, Tensor(w.copy()), np.array([4]))
        expected = (states.data @ w) / 4.0
        assert np.allclose(got.data, expected, atol=1e-15)

    def test_length_mismatch_raises(self):
        hyper, _, _, params = tiny_world()
        embeds = random_embeds(3, hyper.word_dim)[:, None]
        states = bilstm_encode(embeds, params, np.array([3]))
        with pytest.raises(ShapeError):
            article_vector(states, Tensor(np.ones((4, 1))), np.array([4]))

    @pytest.mark.parametrize("lengths", [[3, 0], [-1, 3], [np.nan, 3]],
                             ids=["zero", "negative", "nan"])
    def test_length_below_one_raises(self, lengths):
        # A zero length divided by zero: a RuntimeWarning and infinite columns.
        hyper, _, _, params = tiny_world()
        embeds = random_embeds(3, hyper.word_dim)[:, None].repeat(2, axis=1)
        states = bilstm_encode(embeds, params, np.array([3, 3]))
        with pytest.raises(DegenerateInputError, match="at least 1"):
            article_vector(states, Tensor(np.ones((3, 2))), np.array(lengths))


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
                    for n in (SCORE_TOKENS // 2, 30, SCORE_TOKENS + 5, 250)]
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
        # Shortest first: 30 + 250 tokens share a pass, 800 and 1605 do not.
        assert passes == [2, 1, 1] * 4
        assert all(r == results[0] for r in results)

    def test_claim_within_the_budget_takes_one_pass(self, monkeypatch):
        hyper, vocab, emb, params = tiny_world(seed=22)
        model = CredibilityModel(hyper, params, emb)
        rng = np.random.default_rng(23)
        tokens = list(vocab.tokens)
        lengths = (SCORE_TOKENS // 6, 3, SCORE_TOKENS // 6, 40, 100, SCORE_TOKENS // 6)
        articles = [[tokens[j] for j in rng.integers(0, len(tokens), size=n)]
                    for n in lengths]
        passes = []
        score_chunk = model.article_score

        def counted(pairs):
            passes.append(len(pairs))
            return score_chunk(pairs)

        monkeypatch.setattr(model, "article_score", counted)
        inst = ClaimInstance(
            claim_id="c0", claim_text="", claim_tokens=["t1", "t2"],
            claim_source="speaker", articles=articles,
            article_texts=["" for _ in articles],
            article_sources=["siteA"] * len(articles), label=1)
        model.claim_score(inst)
        assert passes == [len(articles)]

    @pytest.mark.parametrize("lengths", [[SCORE_TOKENS], [SCORE_TOKENS // 8] * 8,
                                         [SCORE_TOKENS // 100] * 100])
    def test_a_pass_at_the_scoring_budget_peaks_under_7_3_mb(self, lengths):
        # At the snopes sizes (d=100, H=64, float64) an untaped pass keeps
        # no gates but one projection block; an 800-token pass that kept
        # every gate peaked at 7.3 MB.
        rng = np.random.default_rng(24)
        model = snopes_model(rng)
        pairs = [Pair(["w1", "w2"], [f"w{j}" for j in rng.integers(0, 500, n)],
                      "c", "s") for n in lengths]
        model.article_score(pairs)
        tracemalloc.start()
        try:
            model.article_score(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(lengths) == SCORE_TOKENS
        assert peak < 7_300_000

    def test_a_taped_training_chunk_peaks_under_9_92_mb(self):
        # One CHUNK_TOKENS chunk of 100-token pairs at the snopes sizes,
        # forward and backward.  With every step's gates in one fused
        # (2, T*B, 4H) buffer it peaked at 9.44 MB; the kept gates, their
        # gradients and the step slabs may not add more than 5% to that.
        rng = np.random.default_rng(30)
        model = snopes_model(rng)
        pairs = [Pair(["w1", "w2"], [f"w{j}" for j in rng.integers(0, 500, 100)],
                      "c", "s") for _ in range(CHUNK_TOKENS // 100)]
        labels = [1, 0] * (len(pairs) // 2)
        training._chunk_gradients(model, pairs, labels, 0.0, None)
        zero_grads(model.params.named().values())
        tracemalloc.start()
        try:
            training._chunk_gradients(model, pairs, labels, 0.0, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9_916_000

    def test_a_wide_pass_of_short_articles_peaks_under_9_5_mb(self):
        # 400 four-token articles at the snopes sizes: the encoder's step
        # temporaries are as wide as the batch, but its gates are finished
        # in place, so a pass this wide stays near a long one.
        rng = np.random.default_rng(25)
        model = snopes_model(rng)
        pairs = [Pair(["w1", "w2"], [f"w{j}" for j in rng.integers(0, 500, 4)],
                      "c", "s") for _ in range(400)]
        model.article_score(pairs)
        tracemalloc.start()
        try:
            model.article_score(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9_500_000

    def test_a_bulk_call_of_one_token_articles_keeps_passes_under_9_5_mb(
            self, monkeypatch):
        # 400 claims of four one-token articles.  Charged at their length,
        # all 1,600 would share one pass and peak at 21.6 MB; the
        # per-article floor cuts them into passes of 400.
        rng = np.random.default_rng(26)
        model = snopes_model(rng)
        instances = [
            ClaimInstance(claim_id=f"c{n}", claim_text="", claim_tokens=["w1", "w2"],
                          claim_source="c",
                          articles=[[f"w{j}"] for j in rng.integers(0, 500, 4)],
                          article_texts=[""] * 4, article_sources=["s"] * 4, label=1)
            for n in range(400)]
        model.score_claims(instances)
        widths, peaks = [], []
        score_chunk = model.article_score

        def measured(pairs):
            widths.append(len(pairs))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = score_chunk(pairs)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return result

        monkeypatch.setattr(model, "article_score", measured)
        tracemalloc.start()
        try:
            model.score_claims(instances)
        finally:
            tracemalloc.stop()
        assert widths == [SCORE_TOKENS // 4] * 4
        assert max(peaks) < 9_500_000

    def test_bulk_scoring_keeps_scores_not_traces(self):
        # 100 claims of 7 x 100 tokens: holding every pass's traces until
        # the last pass peaked at 1.9 MB; dropping them per pass, 0.5 MB.
        hyper, vocab, emb, params = tiny_world(seed=3)
        model = CredibilityModel(hyper, params, emb)
        rng = np.random.default_rng(4)
        tokens = list(vocab.tokens)
        instances = [
            ClaimInstance(claim_id=f"c{n}", claim_text="", claim_tokens=tokens[:2],
                          claim_source="speaker",
                          articles=[[tokens[j] for j in rng.integers(0, 8, 100)]
                                    for _ in range(7)],
                          article_texts=[""] * 7, article_sources=["siteA"] * 7,
                          label=1)
            for n in range(100)]
        tracemalloc.start()
        try:
            creds = model.score_claims(instances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(creds) == 100 and all(isinstance(c, float) for c in creds)
        assert peak < 1_000_000

    def test_bulk_scoring_matches_claim_by_claim(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        hyper, vocab, emb, params = tiny_world(seed=27)
        model = CredibilityModel(hyper, params, emb)
        tokens = list(vocab.tokens) + ["unseen"]
        # (length, token seed, source); claims pick articles from a shared
        # pool, so identical articles recur within and across claims.
        article = st.tuples(st.integers(1, 300), st.integers(0, 3),
                            st.sampled_from(["siteA", "elsewhere", None]))
        claim = st.tuples(st.integers(0, 2), st.sampled_from(["speaker", None]),
                          st.lists(st.integers(0, 7), min_size=1, max_size=6))

        def close(a, b):
            return np.max(np.abs(np.subtract(a, b))) <= 1e-13

        @hypothesis.settings(max_examples=25)
        @hypothesis.given(st.lists(article, min_size=1, max_size=6),
                          st.lists(claim, min_size=1, max_size=6), st.data())
        def check(pool, claims, data):
            texts = [[tokens[j] for j in np.random.default_rng(seed).integers(
                0, len(tokens), n)] for n, seed, _ in pool]
            instances = [
                ClaimInstance(claim_id=f"c{n}", claim_text="",
                              claim_tokens=tokens[c:c + 2], claim_source=source,
                              articles=[texts[i % len(pool)] for i in picks],
                              article_texts=[""] * len(picks),
                              article_sources=[pool[i % len(pool)][2] for i in picks],
                              label=1)
                for n, (c, source, picks) in enumerate(claims)]
            bulk = model.score_claims(instances)
            assert len(bulk) == len(instances)
            for inst, cred in zip(instances, bulk):
                alone, traces = model.claim_score(inst)
                assert [t.tokens for t in traces] == inst.articles
                assert close(cred, alone)
            perm = data.draw(st.permutations(range(len(instances))))
            shuffled = model.score_claims([instances[i] for i in perm])
            assert all(np.array_equal(shuffled[k], bulk[i])
                       for k, i in enumerate(perm))
            # A split changes which pairs share a pass, so BLAS may round
            # the encoder differently: equal within 1e-13, not bit for bit.
            cut = data.draw(st.integers(0, len(instances)))
            split = model.score_claims(instances[:cut]) + model.score_claims(
                instances[cut:])
            assert all(close(a, b) for a, b in zip(split, bulk))

        check()

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

    def test_vectors_must_be_read_with_the_hyper_vocab_limit(self, tmp_path):
        # Else a checkpoint's ``hyper`` and ``vocab_hash`` would disagree.
        hyper, vocab, _, params = tiny_world()
        path = make_embedding_file(tmp_path, vocab.tokens, dim=hyper.word_dim)
        _, emb = load_word_vectors(path, vocab_limit=3)
        with pytest.raises(ContractError, match="vocab_limit 3, model expects None"):
            CredibilityModel(hyper, params, emb)
        limited = replace(hyper, vocab_limit=3)
        params = ModelParams(limited, None, article_sources=params.article_sources,
                             claim_sources=params.claim_sources)
        assert CredibilityModel(limited, params, emb).word_embeddings is emb

    def test_hyper_must_be_the_params_hyper(self):
        # A classify model built with a regress hyper would score MSE on
        # its sigmoid probabilities.
        hyper, _, emb, params = tiny_world()
        with pytest.raises(ContractError, match="hyperparameters"):
            CredibilityModel(replace(hyper, mode="regress"), params, emb)


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
        got = aggregate(rows)
        assert np.allclose(got, [0.4, 0.2, 0.4], atol=1e-15)
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rows", [
        [[0.1, 0.9], [0.2, 0.3, 0.5]], [[0.2, 0.3, 0.5], [0.1, 0.9]],
    ], ids=["longer-later", "shorter-later"])
    def test_rows_of_unequal_length_raise(self, rows):
        # The first used to drop a column silently, the second to raise IndexError.
        with pytest.raises(ShapeError, match=r"lengths \["):
            aggregate(rows)

    @pytest.mark.parametrize("scores", [["x"], [0.5, "x"], [0.5, None], [[0.5, "x"]]],
                             ids=["text", "text-later", "none", "text-in-row"])
    def test_non_numeric_score_raises(self, scores):
        with pytest.raises(ContractError, match="must be numbers"):
            aggregate(scores)


def test_verdict_threshold():
    assert verdict(0.5) == 1
    assert verdict(0.4999) == 0
    assert verdict(0.9) == 1


@pytest.mark.parametrize("credibility", [math.nan, math.inf, -math.inf])
def test_verdict_refuses_a_non_finite_credibility(credibility):
    # NaN compares false with 0.5, so it used to read as "not credible".
    with pytest.raises(ContractError, match="finite"):
        verdict(credibility)


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

    def test_mixed_dtypes_are_not_saved(self, tmp_path):
        # The header's one dtype must be every array's: a float32 bias among
        # float64 arrays fits its float64 section's alignment gap, so the
        # file would have the right size and load wrong values.
        _, _, _, params = tiny_world()
        params.head_b.data = params.head_b.data.astype(np.float32)
        with pytest.raises(ContractError, match="share one dtype"):
            save_checkpoint(tmp_path / "mixed.ckpt", params, vocab_hash="h")
        assert not (tmp_path / "mixed.ckpt").exists()

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
        # Versions 1 (four matrices per LSTM direction), 2 (no digest), 3
        # (a header list of every array's name, shape and dtype) and 4 (no
        # vocabulary limit in ``hyper``) have no reader either.
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        for version in (250, 1, 2, 3, 4):
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
        for key in ("vocab_hash", "dtype"):
            header = json.loads(whole[12:12 + length])
            del header[key]
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

    @pytest.mark.parametrize("at", [-1, -200])
    def test_flipped_payload_byte_raises(self, tmp_path, at):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="digest does not match"):
            load_checkpoint(path)

    def test_edited_header_value_raises(self, tmp_path):
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        assert whole.count(b'"siteA"') == 1
        path.write_bytes(whole.replace(b'"siteA"', b'"siteB"'))
        with pytest.raises(ParseError, match="digest does not match"):
            load_checkpoint(path)

    # Each hand-made change, and the error it must raise.
    HAND_MADE = {
        "drop claim table": "does not fit",
        "unknown hyper field": "does not fit",
        "float hidden size": "does not fit",
        "float source dim": "does not fit",
        "huge hidden size": "truncated checkpoint",
        "hidden size 2000": "truncated checkpoint",
        "float16 dtype": "unknown dtype 'float16'",
        "claim sources not a list": "'claim_sources' is not a list of strings",
        "repeated article source": r"hand\.ckpt: checkpoint header 'article_sources' repeats",
        "extra array": "after the last array",
    }

    @pytest.mark.parametrize("change", HAND_MADE)
    def test_hand_made_header_with_valid_digest_raises(self, tmp_path, change):
        _, _, _, params = tiny_world()
        named = params.named()
        header = {
            "version": _VERSION, "hyper": asdict(params.hyper), "vocab_hash": "h",
            "dtype": "float64", "article_sources": ["siteA"],
            "claim_sources": ["speaker"]}
        if change == "drop claim table":
            del named["claim_source_table"]
            header["claim_sources"] = None
        if change == "extra array":
            named["extra"] = Tensor(np.zeros((3, 3)))
        if change == "unknown hyper field":
            header["hyper"]["depth"] = 2
        if change == "float hidden size":
            header["hyper"]["hidden_size"] = 3.0
        if change == "float source dim":
            header["hyper"]["article_source_dim"] = 2.0
        if change == "huge hidden size":  # too big for numpy to allocate at all
            header["hyper"]["hidden_size"] = 10**10
        if change == "hidden size 2000":  # 385 MB of arrays, if they were allocated
            header["hyper"]["hidden_size"] = 2000
        if change == "float16 dtype":
            header["dtype"] = "float16"
        if change == "claim sources not a list":
            # One character per name makes the table's two rows: version 3
            # loaded this header.
            header["claim_sources"] = "s"
        if change == "repeated article source":
            # Row 0 could never be looked up: the name finds row 1.
            header["article_sources"] = ["siteA", "siteA"]
            named["article_source_table"] = Tensor(np.zeros((3, params.hyper.article_source_dim)))
        arrays = [t.data.astype(header["dtype"]) for t in named.values()]
        header["sha256"] = _digest(header, container.payload_chunks(arrays))
        path = tmp_path / "hand.ckpt"
        container.write(path, b"EVCR", _VERSION, header, arrays)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=self.HAND_MADE[change]):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every header is refused before the arrays it describes are allocated.
        assert peak < 1_000_000

    def test_mutated_bytes_raise_or_load_unchanged(self, tmp_path):
        """Truncate a checkpoint anywhere, or flip or overwrite any byte: the
        load raises a typed error or returns exactly the saved model."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = self.saved(tmp_path)
        whole = path.read_bytes()
        want, want_hash = load_checkpoint(path)

        @hypothesis.settings(max_examples=300)
        @hypothesis.given(st.data())
        def check(data):
            raw = bytearray(whole)
            kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
            if kind == "truncate":
                raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
            else:
                at = data.draw(st.integers(0, len(raw) - 1))
                if kind == "flip":
                    raw[at] ^= 1 << data.draw(st.integers(0, 7))
                else:
                    raw[at] = data.draw(st.integers(0, 255))
            path.write_bytes(bytes(raw))
            try:
                got, got_hash = load_checkpoint(path)
            except EvicredError:
                return
            assert (got.hyper, got_hash) == (want.hyper, want_hash)
            assert got.article_sources.sources == want.article_sources.sources
            assert got.claim_sources.sources == want.claim_sources.sources
            expected = want.named()
            for name, t in got.named().items():
                assert t.data.tobytes() == expected[name].data.tobytes(), name

        check()

    @pytest.mark.parametrize("claim_source_dim", [2, None])
    def test_sections_follow_the_readme_order(self, claim_source_dim):
        """README lists this order; changing it needs a new checkpoint version."""
        _, _, _, params = tiny_world(claim_source_dim=claim_source_dim)
        order = ["lstm_fw_w", "lstm_fw_b", "lstm_bw_w", "lstm_bw_b", "attention_w",
                 "attention_b", "fuse1_w", "fuse1_b", "fuse2_w", "fuse2_b", "head_w",
                 "head_b", "claim_source_table", "article_source_table"]
        if claim_source_dim is None:
            order.remove("claim_source_table")
        assert list(params.named()) == order

    def test_no_claim_table_roundtrip(self, tmp_path):
        hyper, _, _, params = tiny_world(claim_source_dim=None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab_hash="h")
        loaded, _ = load_checkpoint(path)
        assert loaded.claim_sources is None
