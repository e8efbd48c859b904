"""Losses, the optimizer, the fit loop, and the gradient checker.

Loss values are checked against hand-computed numbers, Adam against its
closed-form first step, and the fit loop against behavioral contracts:
determinism, descent, early stop, best-epoch restore.
"""
import math

import numpy as np
import pytest

from evicred.corpus import make_folds
from evicred.errors import ContractError, DegenerateInputError
from evicred.embeddings import SourceEmbeddingTable
from evicred.model import (
    CHUNK_TOKENS,
    CredibilityModel,
    Hyperparams,
    ModelParams,
    Pair,
    _chunk_spans,
)
from evicred.numeric import Tape, Tensor, sum_all
from evicred.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    evaluate,
    fit,
    gradient_check,
    loss,
    train,
)
from tests.conftest import article_table_for, planted_corpus, tiny_world

BINARY = Hyperparams(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2)
TRIPLE = Hyperparams(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2,
                     classes=3)
REGRESS = Hyperparams(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2,
                      mode="regress")


class TestLoss:
    def test_binary_cross_entropy_values(self):
        assert loss(Tensor([[0.8]]), 1, BINARY).item() == pytest.approx(
            -math.log(0.8), abs=1e-12)
        assert loss(Tensor([[0.8]]), 0, BINARY).item() == pytest.approx(
            -math.log(0.2), abs=1e-12)

    def test_probability_floor_keeps_loss_finite(self):
        got = loss(Tensor([[0.0]]), 1, BINARY).item()
        assert got == pytest.approx(-math.log(1e-7), rel=1e-9)
        got = loss(Tensor([[1.0]]), 0, BINARY).item()
        assert got == pytest.approx(-math.log(1e-7), rel=1e-9)

    @pytest.mark.parametrize("bad", [0.5, 2, -1, "yes"])
    def test_binary_label_domain(self, bad):
        with pytest.raises((ContractError, ValueError)):
            loss(Tensor([[0.5]]), bad, BINARY)

    def test_multiclass_picks_true_class_probability(self):
        score = Tensor([[0.2], [0.5], [0.3]])
        assert loss(score, 1, TRIPLE).item() == pytest.approx(
            -math.log(0.5), abs=1e-12)
        with pytest.raises(ContractError):
            loss(score, 3, TRIPLE)

    def test_squared_error_for_regression(self):
        assert loss(Tensor([[2.0]]), 3.0, REGRESS).item() == pytest.approx(1.0)
        with pytest.raises(ContractError):
            loss(Tensor([[2.0]]), float("nan"), REGRESS)

    def test_l2_penalty_covers_exactly_the_weight_matrices(self):
        _, _, _, params = tiny_world()
        lam = 1e-4
        base = loss(Tensor([[0.8]]), 1, params.hyper).item()
        with_l2 = loss(Tensor([[0.8]]), 1, params.hyper, params, lam).item()
        expected = lam * sum(float(np.sum(w.data ** 2))
                             for w in params.regularized())
        assert with_l2 - base == pytest.approx(expected, rel=1e-12)


class TestAdam:
    def one_param(self, value, grad):
        t = Tensor([[value]], requires_grad=True, name="x")
        t.grad = np.array([[grad]])
        return {"x": t}

    def test_first_step_moves_by_learning_rate(self):
        # Bias correction makes m_hat = g and v_hat = g*g, so the very
        # first update is lr * sign(g) up to epsilon.
        config = TrainConfig(learning_rate=0.002)
        named = self.one_param(1.0, grad=7.3)
        state = OptimizerState.for_params(named)
        adam_step(named, state, config)
        assert named["x"].data[0, 0] == pytest.approx(1.0 - 0.002, rel=1e-5)
        named = self.one_param(1.0, grad=-0.004)
        state = OptimizerState.for_params(named)
        adam_step(named, state, config)
        assert named["x"].data[0, 0] == pytest.approx(1.0 + 0.002, rel=1e-3)

    def test_missing_gradient_means_no_motion(self):
        config = TrainConfig()
        t = Tensor([[5.0]], requires_grad=True, name="x")
        named = {"x": t}
        state = OptimizerState.for_params(named)
        adam_step(named, state, config)
        assert t.data[0, 0] == 5.0

    def test_descends_a_quadratic(self):
        config = TrainConfig(learning_rate=0.05)
        t = Tensor([[1.0]], requires_grad=True, name="x")
        named = {"x": t}
        state = OptimizerState.for_params(named)
        for _ in range(200):
            t.grad = 2.0 * t.data
            adam_step(named, state, config)
        assert abs(t.data[0, 0]) < 0.01

    def test_state_shape_mismatch_raises(self):
        config = TrainConfig()
        named = self.one_param(1.0, grad=1.0)
        state = OptimizerState.for_params(named)
        state.first_moment["x"] = np.zeros((2, 2))
        with pytest.raises(ContractError):
            adam_step(named, state, config)

    def test_step_count_advances(self):
        named = self.one_param(1.0, grad=1.0)
        state = OptimizerState.for_params(named)
        adam_step(named, state, TrainConfig())
        adam_step(named, state, TrainConfig())
        assert state.step_count == 2


@pytest.mark.parametrize("bad", [
    dict(learning_rate=0.0), dict(batch_size=0), dict(max_epochs=0),
    dict(precision=16),
])
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ContractError):
        TrainConfig(**bad)


def small_world(n_claims=10, seed=21):
    instances, emb = planted_corpus(n_claims=n_claims, n_articles=1,
                                    seed=seed, dim=8)
    hyper = Hyperparams(word_dim=8, hidden_size=3, fc_size=3,
                        article_source_dim=2)
    table = article_table_for(instances, dim=2)
    return instances, emb, hyper, table


class TestFit:
    def test_loss_descends_across_epochs(self):
        instances, emb, hyper, table = small_world()
        config = TrainConfig(learning_rate=0.01, l2_lambda=0.0, batch_size=4,
                             max_epochs=4, seed=1)
        result = fit(instances, hyper, config, emb, table)
        losses = [h[1] for h in result.history]
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_same_seed_bit_identical_params(self):
        instances, emb, hyper, table = small_world()
        config = TrainConfig(max_epochs=2, seed=5, batch_size=4)
        a = fit(instances, hyper, config, emb, table).params.snapshot()
        b = fit(instances, hyper, config, emb, table).params.snapshot()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_seed_key_separates_folds(self):
        instances, emb, hyper, table = small_world()
        config = TrainConfig(max_epochs=1, seed=5, batch_size=4)
        a = fit(instances, hyper, config, emb, table, seed_key=(0,)).params
        b = fit(instances, hyper, config, emb, table, seed_key=(1,)).params
        assert not np.array_equal(a.fuse1_w.data, b.fuse1_w.data)

    def test_unlabeled_claim_is_a_contract_error(self):
        instances, emb, hyper, table = small_world()
        instances[3].label = None
        with pytest.raises(ContractError, match=instances[3].claim_id):
            fit(instances, hyper, TrainConfig(max_epochs=1), emb, table)

    def test_on_epoch_can_stop_training(self):
        instances, emb, hyper, table = small_world()
        config = TrainConfig(max_epochs=50, seed=2, batch_size=4)
        seen = []

        def stop_at_three(epoch, train_loss, val_value, model):
            seen.append((epoch, type(model).__name__))
            return epoch == 3

        result = fit(instances, hyper, config, emb, table,
                     on_epoch=stop_at_three)
        assert len(result.history) == 3
        assert seen[-1] == (3, "CredibilityModel")
        assert result.best_epoch == 3

    def test_early_stop_restores_best_epoch(self):
        instances, emb, hyper, table = small_world(n_claims=14, seed=22)
        train_insts, val_insts = instances[:10], instances[10:]
        config = TrainConfig(learning_rate=0.01, max_epochs=25, patience=3,
                             batch_size=4, seed=3)
        result = fit(train_insts, hyper, config, emb, table,
                     val_instances=val_insts)
        assert len(result.history) <= 25
        vals = [h[2] for h in result.history]
        best = max(v for v in vals if v is not None)
        assert vals[result.best_epoch - 1] == best
        model = CredibilityModel(hyper, result.params, emb)
        _, report = evaluate(model, val_insts)
        watched = report.auc if report.auc is not None else report.macro_f1
        assert watched == pytest.approx(best, abs=1e-12)

    def test_progress_lines_mention_epochs(self):
        instances, emb, hyper, table = small_world()
        lines = []
        fit(instances, hyper, TrainConfig(max_epochs=2, batch_size=4), emb,
            table, progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1 ")

    def test_empty_corpus_raises(self):
        _, emb, hyper, table = small_world()
        with pytest.raises(DegenerateInputError):
            fit([], hyper, TrainConfig(max_epochs=1), emb, table)


class TestEvaluate:
    def test_reports_per_claim_predictions(self):
        instances, emb, hyper, table = small_world()
        config = TrainConfig(max_epochs=1, batch_size=4)
        result = fit(instances, hyper, config, emb, table)
        model = CredibilityModel(hyper, result.params, emb)
        preds, report = evaluate(model, instances)
        assert len(preds) == len(instances)
        assert all(0.0 < p < 1.0 for p in preds)
        assert report.n == len(instances)
        assert report.auc is not None

    def test_empty_raises(self):
        instances, emb, hyper, table = small_world()
        result = fit(instances, hyper, TrainConfig(max_epochs=1), emb, table)
        model = CredibilityModel(hyper, result.params, emb)
        with pytest.raises(DegenerateInputError):
            evaluate(model, [])


class TestCrossValidation:
    def test_one_outcome_per_fold(self):
        instances, emb, hyper, table = small_world(n_claims=14, seed=23)
        plan = make_folds(instances, seed=0, n_folds=2)
        config = TrainConfig(max_epochs=2, batch_size=4, seed=4)
        outcomes = train(instances, plan, hyper, config, emb, table)
        assert [o.fold for o in outcomes] == [0, 1]
        for outcome in outcomes:
            assert outcome.report.n == len(plan.test_ids(outcome.fold))
            assert outcome.best_epoch >= 1

    def test_unknown_claim_in_plan_raises(self):
        instances, emb, hyper, table = small_world(n_claims=14)
        plan = make_folds(instances, seed=0, n_folds=2)
        plan.folds[0][0] = "ghost"
        with pytest.raises(ContractError, match="ghost"):
            train(instances, plan, hyper, TrainConfig(max_epochs=1), emb, table)


def chunk_gradients(model, chunk, targets):
    """Parameter gradients of the summed loss of one chunk, and the tape size."""
    for p in model.params.named().values():
        p.grad = None
    with Tape() as tape:
        scores, _ = model.article_score(chunk)
        total = sum_all(loss(scores, targets, model.hyper, model.params, 1e-4))
    tape.backward(total)
    return ({name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in model.params.named().items()}, len(tape))


class TestChunkedGradients:
    def model_and_chunk(self, hyper, lengths, seed=31):
        rng = np.random.default_rng(seed)
        _, vocab, emb, _ = tiny_world(seed=seed)
        table = SourceEmbeddingTable(["siteA"], rng.standard_normal((2, 2)),
                                     "article_source_table")
        params = ModelParams(hyper, rng, article_sources=table)
        tokens = list(vocab.tokens)
        chunk = [Pair([tokens[0], tokens[5]],
                      [tokens[j] for j in rng.integers(0, len(tokens), size=k)],
                      None, "siteA" if k % 2 else "other")
                 for k in lengths]
        return CredibilityModel(hyper, params, emb), chunk

    @pytest.mark.parametrize("hyper,targets", [
        (BINARY, [1, 0, 0, 1]), (TRIPLE, [2, 0, 1, 1]), (REGRESS, [0.5, -1.0, 2.0, 0.0]),
    ], ids=["binary", "multiclass", "regression"])
    def test_chunk_gradient_is_the_sum_of_single_pair_gradients(self, hyper, targets):
        model, chunk = self.model_and_chunk(hyper, [5, 19, 1, 33])
        batched, _ = chunk_gradients(model, chunk, targets)
        singles = [chunk_gradients(model, [pair], [t])[0]
                   for pair, t in zip(chunk, targets)]
        for name, grad in batched.items():
            want = sum(s[name] for s in singles)
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(grad - want)) / scale < 1e-12, name

    def test_chunks_are_consecutive_and_within_the_token_budget(self):
        lengths = [100] * 20 + [CHUNK_TOKENS + 1, 3, 40]
        spans = _chunk_spans(lengths)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == len(lengths)
        for lo, hi in spans:
            padded = (hi - lo) * max(lengths[lo:hi])
            assert padded <= CHUNK_TOKENS or hi - lo == 1
        assert (20, 21) in spans

    def test_a_chunk_records_no_more_ops_than_one_pair(self):
        # Guards against falling back to one tape, or one graph, per pair.
        model, chunk = self.model_and_chunk(BINARY, [10] * 8)
        _, one = chunk_gradients(model, chunk[:1], [1])
        _, eight = chunk_gradients(model, chunk, [1, 0] * 4)
        assert eight < 2 * one


class TestGradientCheck:
    def test_analytic_gradients_match_finite_differences(self):
        worst = gradient_check(seed=1)
        assert worst < 1e-4

    @pytest.mark.parametrize("hyper", [
        Hyperparams(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2,
                    classes=3),
        Hyperparams(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2,
                    mode="regress"),
    ], ids=["multiclass", "regress"])
    def test_heads_without_claim_sources_pass_at_seed_zero(self, hyper):
        # Seed 0 with zero biases puts a relu exactly on its kink.
        assert gradient_check(hyper, seed=0) < 1e-4

    def test_detects_a_corrupted_gradient(self):
        for name in ("head_w", "lstm_fw_w"):
            assert gradient_check(seed=1, corrupt=name) > 0.3

    def test_unknown_corruption_target_raises(self):
        with pytest.raises(ContractError, match="nonexistent"):
            gradient_check(corrupt="nonexistent")

    def test_dropout_must_be_off(self):
        hyper = Hyperparams(word_dim=4, hidden_size=3, fc_size=3,
                            article_source_dim=2, claim_source_dim=2,
                            dropout=0.5)
        with pytest.raises(ContractError):
            gradient_check(hyper)
