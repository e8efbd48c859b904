"""Losses, the optimizer, the fit loop, and the gradient checker.

Loss values are checked against hand-computed numbers, Adam against its
closed-form first step, and the fit loop against behavioral contracts:
determinism, descent, early stop, best-epoch restore, and a fit state that
carries everything one epoch hands the next.
"""
import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from evicred import training
from evicred.corpus import make_folds
from evicred.errors import ContractError, DegenerateInputError
from evicred.embeddings import SourceEmbeddingTable, Vocabulary, WordEmbeddings
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
        t = Tensor([[value]], requires_grad=True)
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
        t = Tensor([[5.0]], requires_grad=True)
        named = {"x": t}
        state = OptimizerState.for_params(named)
        adam_step(named, state, config)
        assert t.data[0, 0] == 5.0

    def test_descends_a_quadratic(self):
        config = TrainConfig(learning_rate=0.05)
        t = Tensor([[1.0]], requires_grad=True)
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
    dict(learning_rate=0.0), dict(learning_rate=math.nan),
    dict(learning_rate=math.inf), dict(l2_lambda=math.nan),
    dict(l2_lambda=-math.inf), dict(l2_lambda=-0.5), dict(batch_size=0), dict(max_epochs=0),
    dict(precision=16), dict(seed=-1), dict(patience=0), dict(patience=-3),
    dict(beta1=1.5), dict(beta1=1.0), dict(beta1=-0.1), dict(beta1=math.nan),
    dict(beta2=1.0), dict(beta2=-0.5), dict(beta2=math.inf),
    dict(epsilon=0.0), dict(epsilon=-1.0), dict(epsilon=math.inf),
    dict(epsilon=math.nan),
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
        # ``train`` writes each epoch line from the last history entry of the
        # fit state, which ``fit`` passes to ``on_epoch``.
        instances, emb, hyper, _ = small_world(n_claims=14, seed=23)
        plan = make_folds(instances, seed=0, n_folds=2)
        lines = []
        train(instances, plan, hyper, TrainConfig(max_epochs=2, batch_size=4), emb,
              min_article_support=1, min_claim_support=1, progress=lines.append)
        expected = []
        for f in (0, 1):
            expected += [f"fold {f}: {len(plan.train_ids(f))} train claims, "
                         f"{len(plan.test_ids(f))} test claims",
                         f"fold {f} epoch 1", f"fold {f} epoch 2"]
        assert [line.split(" train_loss ")[0] for line in lines] == expected
        assert all(" val " in line for line in lines if " epoch " in line)

    def test_empty_corpus_raises(self):
        _, emb, hyper, table = small_world()
        with pytest.raises(DegenerateInputError):
            fit([], hyper, TrainConfig(max_epochs=1), emb, table)


def fit_recording(monkeypatch, *args, **kwargs):
    """``fit``'s final state, and before each epoch a deep copy of the state
    with the pairs that epoch trains on."""
    before = []
    step = training._fit_epoch

    def recording(state, model, pairs, config, val_instances):
        before.append((copy.deepcopy(state), pairs))
        step(state, model, pairs, config, val_instances)

    with monkeypatch.context() as patch:
        patch.setattr(training, "_fit_epoch", recording)
        return fit(*args, **kwargs), before


def assert_same_fit(a, b):
    assert a.history == b.history
    assert (a.epoch, a.best_epoch, a.stale) == (b.epoch, b.best_epoch, b.stale)
    assert a.optimizer.step_count == b.optimizer.step_count
    for name, p in a.params.named().items():
        q = b.params.named()[name]
        assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes(), name
        assert (a.optimizer.first_moment[name].tobytes()
                == b.optimizer.first_moment[name].tobytes()), name
        assert (a.optimizer.second_moment[name].tobytes()
                == b.optimizer.second_moment[name].tobytes()), name
    for rng in ("shuffle_rng", "dropout_rng"):
        assert (getattr(a, rng).bit_generator.state
                == getattr(b, rng).bit_generator.state), rng


class TestFitState:
    def test_stepping_by_hand_equals_fit(self, monkeypatch):
        instances, emb, hyper, table = small_world()
        hyper = replace(hyper, dropout=0.5)
        config = TrainConfig(max_epochs=4, batch_size=4, seed=6)
        fitted, before = fit_recording(monkeypatch, instances, hyper, config, emb, table)
        state, pairs = before[0]
        assert state.epoch == 0 and state.history == []
        model = CredibilityModel(hyper, state.params, emb)
        for _ in range(config.max_epochs):
            training._fit_epoch(state, model, pairs, config, None)
        assert len(state.history) == 4
        assert_same_fit(state, fitted)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_a_copy_stepped_on_resumes_an_early_stopped_fit(self, monkeypatch, dropout):
        # A resume in memory: a copy of the state at an epoch end, stepped on
        # under the same stopping rule, ends where the fit ended.
        instances, emb, hyper, table = small_world(n_claims=14, seed=22)
        hyper = replace(hyper, dropout=dropout)
        train_insts, val_insts = instances[:10], instances[10:]
        config = TrainConfig(learning_rate=0.01, max_epochs=25, patience=3,
                             batch_size=4, seed=3)
        fitted, before = fit_recording(monkeypatch, train_insts, hyper, config, emb,
                                       table, val_instances=val_insts)
        assert fitted.epoch < config.max_epochs, "the fit must stop early"
        assert fitted.best_epoch < fitted.epoch
        for k in (1, fitted.best_epoch, fitted.epoch - 1):
            state, pairs = copy.deepcopy(before[k])
            assert state.epoch == k
            model = CredibilityModel(hyper, state.params, emb)
            while state.epoch < config.max_epochs and state.stale < config.patience:
                training._fit_epoch(state, model, pairs, config, val_insts)
            state.params.restore(state.best_snapshot)
            assert_same_fit(state, fitted)

    def test_pickled_state_holds_no_vocabulary(self):
        instances, emb, hyper, table = small_world()
        extra = [f"unused{i}" for i in range(4000)]
        emb = WordEmbeddings(Vocabulary(emb.vocab.tokens + extra),
                             np.vstack([emb.vectors, np.ones((len(extra), emb.dim))]))
        state = fit(instances, hyper, TrainConfig(max_epochs=2, batch_size=4), emb, table)
        arrays = sum(t.data.nbytes for t in state.params.named().values())
        arrays += sum(m.nbytes for m in state.optimizer.first_moment.values())
        arrays += sum(v.nbytes for v in state.optimizer.second_moment.values())
        header = 8_000
        assert emb.vectors.nbytes > 10 * header
        assert len(pickle.dumps(state)) < arrays + header


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

    def test_claims_share_one_packed_pass(self, monkeypatch):
        # Six claims of two 100-token articles are 1,200 padded tokens: one
        # pass, where scoring claim by claim takes six.
        instances, emb = planted_corpus(n_claims=6, n_articles=2, seed=24, dim=8)
        for inst in instances:
            inst.articles = [(a * 9)[:100] for a in inst.articles]
        _, _, hyper, table = small_world()
        params = ModelParams(hyper, np.random.default_rng(0), article_sources=table)
        model = CredibilityModel(hyper, params, emb)
        widths = []
        score_chunk = model.article_score

        def counted(pairs):
            widths.append(len(pairs))
            return score_chunk(pairs)

        monkeypatch.setattr(model, "article_score", counted)
        preds, _ = evaluate(model, instances)
        assert widths == [12]
        for pred, inst in zip(preds, instances):
            assert abs(pred - model.claim_score(inst)[0]) <= 1e-13

    def test_unlabeled_claim_raises_before_any_scoring(self, monkeypatch):
        instances, emb, hyper, table = small_world()
        params = ModelParams(hyper, np.random.default_rng(0), article_sources=table)
        model = CredibilityModel(hyper, params, emb)

        def refuse(pairs):
            raise AssertionError("scored before the labels were checked")

        monkeypatch.setattr(model, "article_score", refuse)
        instances[-1].label = None
        with pytest.raises(ContractError, match=instances[-1].claim_id):
            evaluate(model, instances)


class TestCrossValidation:
    def test_one_outcome_per_fold(self):
        instances, emb, hyper, _ = small_world(n_claims=14, seed=23)
        plan = make_folds(instances, seed=0, n_folds=2)
        config = TrainConfig(max_epochs=2, batch_size=4, seed=4)
        outcomes = train(instances, plan, hyper, config, emb,
                         min_article_support=1, min_claim_support=1)
        assert [o.fold for o in outcomes] == [0, 1]
        for outcome in outcomes:
            assert outcome.report.n == len(plan.test_ids(outcome.fold))
            assert outcome.best_epoch >= 1

    def test_fold_arguments_and_outcome_survive_pickle(self):
        # What a fold run in another process would send and get back; no
        # process is started here.
        instances, emb, hyper, _ = small_world(n_claims=14, seed=23)
        hyper = replace(hyper, claim_source_dim=2, dropout=0.5)
        for i, inst in enumerate(instances):
            inst.claim_source = f"speaker{i % 3}"
        plan = make_folds(instances, seed=0, n_folds=2)
        config = TrainConfig(max_epochs=2, batch_size=4, seed=4)
        args = (instances, plan, 1, hyper, config, emb, 1, 1, None)
        outcome = training._train_fold(*args)
        copied = pickle.loads(pickle.dumps(outcome))
        moved = training._train_fold(*pickle.loads(pickle.dumps(args)))
        served = train(instances, plan, hyper, config, emb,
                       min_article_support=1, min_claim_support=1)[1]
        for other in (copied, moved, served):
            assert (other.fold, other.best_epoch) == (outcome.fold, outcome.best_epoch)
            assert other.report == outcome.report
            assert other.params.claim_sources.sources == outcome.params.claim_sources.sources
            for name, p in outcome.params.named().items():
                assert other.params.named()[name].data.tobytes() == p.data.tobytes(), name

    def test_unknown_claim_in_plan_raises(self):
        instances, emb, hyper, _ = small_world(n_claims=14)
        plan = make_folds(instances, seed=0, n_folds=2)
        plan.folds[0][0] = "ghost"
        with pytest.raises(ContractError, match="ghost"):
            train(instances, plan, hyper, TrainConfig(max_epochs=1), emb,
                  min_article_support=1, min_claim_support=1)


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
        for seed in (0, 1):
            assert gradient_check(seed=seed) < 1e-4

    def test_detects_a_corrupted_gradient(self, monkeypatch):
        chunk_gradients = training._chunk_gradients
        for name in ("head_w", "lstm_fw_w"):
            def doubled(model, *args, name=name):
                losses = chunk_gradients(model, *args)
                param = model.params.named()[name]
                param.grad = param.grad * 2.0
                return losses

            monkeypatch.setattr(training, "_chunk_gradients", doubled)
            assert gradient_check(seed=1) > 0.3

    @pytest.mark.parametrize("corrupted", [
        lambda hyper: hyper.mode == "regress",
        lambda hyper: hyper.mode == "classify" and hyper.classes == 3,
    ], ids=["regress", "three-class"])
    def test_audits_every_output_head(self, monkeypatch, corrupted):
        # Only the model of one head gets a wrong gradient.
        chunk_gradients = training._chunk_gradients

        def doubled(model, *args):
            losses = chunk_gradients(model, *args)
            if corrupted(model.hyper):
                model.params.head_w.grad = model.params.head_w.grad * 2.0
            return losses

        monkeypatch.setattr(training, "_chunk_gradients", doubled)
        assert gradient_check(seed=1) > 0.3
