"""Optimization: losses, Adam, the training loop, and a gradient checker.

Training instances are (claim, article) pairs; every article of a claim
is its own example with the claim's label.  A mini-batch is split into
chunks of at most ``model.CHUNK_TOKENS`` padded tokens, so memory grows with
that budget, not with the batch size; each chunk is one forward pass and
one tape, and the chunks' gradients are summed and then averaged over
the mini-batch.  Parameters move under bias-corrected Adam, and early
stopping watches a held-out validation slice, restoring the best epoch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np

from .corpus import ClaimInstance, FoldPlan, _check_seed, source_counts
from .embeddings import (SourceEmbeddingTable, Vocabulary, WordEmbeddings,
                         build_source_table)
from .errors import ContractError, DegenerateInputError
from .metrics import MetricReport, mode_report
from .model import CredibilityModel, Hyperparams, ModelParams, Pair, _chunk_spans
from .numeric import Tensor, Tape, add, affine, clip, log, matmul, mul, \
    sum_all, zero_grads

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "loss",
    "adam_step",
    "FitState",
    "FoldOutcome",
    "fit",
    "train",
    "evaluate",
    "gradient_check",
]

PROB_FLOOR = 1e-7
# Central-difference step of ``gradient_check``.
_FD_STEP = 1e-5


@dataclass
class TrainConfig:
    learning_rate: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_lambda: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    precision: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError("learning_rate must be finite and positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} must lie in [0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ContractError("epsilon must be finite and positive")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ContractError("l2_lambda must be finite and non-negative")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        _check_seed(self.seed)
        if self.precision not in (32, 64):
            raise ContractError("precision must be 32 or 64")

    @property
    def dtype(self):
        return np.float32 if self.precision == 32 else np.float64


def loss(score: Tensor, target, hyper: Hyperparams,
         params: ModelParams | None = None, l2_lambda: float = 0.0) -> Tensor:
    """Training loss of each example, a (1, B) row for B score columns.

    ``target`` holds one label or value per column (a bare one for a
    single column).  Each example's loss carries the full L2 penalty on
    the fusion and head matrices (biases and embeddings stay
    unregularized), as if it were scored alone.
    """
    targets = np.atleast_1d(np.asarray(target, dtype=object))
    if targets.shape != (score.cols,):
        raise ContractError(f"{targets.size} targets for {score.cols} scores")
    dtype = score.data.dtype
    if hyper.mode == "regress":
        values = np.array([float(t) for t in targets])
        if not np.isfinite(values).all():
            raise ContractError("regression target must be finite")
        diff = affine(score, 1.0, -values.astype(dtype).reshape(1, -1))
        base = mul(diff, diff)
    elif hyper.classes == 2:
        labels = np.array([_label(t, 2) for t in targets], dtype=dtype).reshape(1, -1)
        p = clip(score, PROB_FLOOR, 1.0 - PROB_FLOOR)
        # p where the label is 1 and 1 - p where it is 0, both exact.
        picked = affine(p, 2.0 * labels - 1.0, 1.0 - labels)
        base = affine(log(picked), -1.0)
    else:
        onehot = np.zeros((hyper.classes, score.cols), dtype=dtype)
        onehot[[_label(t, hyper.classes) for t in targets], np.arange(score.cols)] = 1.0
        picked = matmul(Tensor(np.ones((1, hyper.classes), dtype=dtype)),
                        affine(clip(score, PROB_FLOOR, 1.0), onehot))
        base = affine(log(picked), -1.0)
    if params is not None and l2_lambda > 0.0:
        penalty = reduce(add, (sum_all(mul(w, w)) for w in params.regularized()))
        base = add(base, affine(penalty, l2_lambda))
    return base


def _label(target, classes: int) -> int:
    label = int(target)
    if label != target or not 0 <= label < classes:
        if classes == 2:
            raise ContractError(f"binary label must be 0 or 1, got {target!r}")
        raise ContractError(f"label must lie in [0, {classes}), got {target!r}")
    return label


@dataclass
class OptimizerState:
    """Adam accumulators, one pair of moment arrays per parameter."""

    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, named: dict[str, Tensor]) -> "OptimizerState":
        return cls(first_moment={n: np.zeros_like(t.data) for n, t in named.items()},
                   second_moment={n: np.zeros_like(t.data) for n, t in named.items()})


def adam_step(named: dict[str, Tensor], state: OptimizerState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update; a missing gradient counts as zero."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = config.beta1, config.beta2
    for name, p in named.items():
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None or m.shape != p.data.shape:
            raise ContractError(f"optimizer state does not match parameter {name!r}")
        g = p.grad if p.grad is not None else 0.0
        m[:] = b1 * m + (1.0 - b1) * g
        v[:] = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


@dataclass
class FitState:
    """What a fit keeps from one epoch end to the next: the parameters, not
    the model, so never the word vectors, and one history entry
    ``(epoch, train_loss, val_value)`` per epoch run."""

    params: ModelParams
    optimizer: OptimizerState
    shuffle_rng: np.random.Generator
    dropout_rng: np.random.Generator
    epoch: int = field(default=0, init=False)
    best_value: float | None = field(default=None, init=False)
    best_snapshot: dict[str, np.ndarray] | None = field(default=None, init=False)
    best_epoch: int = field(default=0, init=False)
    stale: int = field(default=0, init=False)
    history: list[tuple[int, float, float | None]] = field(default_factory=list, init=False)


@dataclass
class FoldOutcome:
    fold: int
    params: ModelParams
    report: MetricReport
    best_epoch: int


def _validation_value(report: MetricReport, hyper: Hyperparams) -> tuple[float, bool]:
    """Metric watched by early stopping and whether higher is better."""
    if hyper.mode == "regress":
        return report.mse, False
    if report.auc is not None:
        return report.auc, True
    # Single-class validation slices leave AUC undefined; fall back.
    return report.macro_f1, True


def _require_labels(instances: Sequence[ClaimInstance]) -> None:
    for inst in instances:
        if inst.label is None:
            raise ContractError(f"claim {inst.claim_id} has no label")


def _chunk_gradients(model: CredibilityModel, chunk: Sequence[Pair], labels,
                     l2_lambda: float,
                     dropout_rng: np.random.Generator | None) -> list[float]:
    """Add one chunk's loss gradients to the parameter grads, through one
    tape that is freed on return; returns the chunk's per-pair losses."""
    with Tape() as tape:
        scores, _ = model.article_score(chunk, dropout_rng=dropout_rng)
        losses = loss(scores, labels, model.hyper, model.params, l2_lambda)
        total = sum_all(losses)
    tape.backward(total)
    return losses.data[0].tolist()


def _fit_epoch(state: FitState, model: CredibilityModel,
               pairs: Sequence[tuple[Pair, float]], config: TrainConfig,
               val_instances: Sequence[ClaimInstance] | None) -> None:
    """Advance ``state`` by one epoch of ``model``, whose parameters are
    ``state.params``: shuffled mini-batches under Adam, then validation."""
    state.epoch += 1
    named = state.params.named()
    order = state.shuffle_rng.permutation(len(pairs))
    epoch_losses = []
    for start in range(0, len(order), config.batch_size):
        batch = [pairs[int(i)] for i in order[start : start + config.batch_size]]
        for lo, hi in _chunk_spans([len(pair.article_tokens) for pair, _ in batch]):
            chunk, labels = zip(*batch[lo:hi])
            values = _chunk_gradients(model, chunk, labels, config.l2_lambda,
                                      state.dropout_rng)
            if not np.isfinite(values).all():
                raise ContractError(f"loss became non-finite at epoch {state.epoch}")
            epoch_losses.extend(values)
        inv = 1.0 / len(batch)
        for p in named.values():
            if p.grad is not None:
                p.grad = p.grad * inv
        adam_step(named, state.optimizer, config)
        zero_grads(named.values())
    val_value: float | None = None
    if val_instances:
        _, report = evaluate(model, val_instances)
        val_value, higher_better = _validation_value(report, model.hyper)
        best = state.best_value
        if best is None or (val_value > best if higher_better else val_value < best):
            state.best_value, state.best_epoch, state.stale = val_value, state.epoch, 0
            state.best_snapshot = state.params.snapshot()
        else:
            state.stale += 1
    else:
        state.best_epoch = state.epoch
    state.history.append((state.epoch, float(np.mean(epoch_losses)), val_value))


def fit(train_instances: Sequence[ClaimInstance], hyper: Hyperparams,
        config: TrainConfig, word_embeddings: WordEmbeddings,
        article_sources: SourceEmbeddingTable,
        claim_sources: SourceEmbeddingTable | None = None, *,
        val_instances: Sequence[ClaimInstance] | None = None,
        seed_key: tuple[int, ...] = (0,),
        on_epoch: Callable[[int, float, float | None, CredibilityModel],
                           bool | None] | None = None) -> FitState:
    """Train one model: set up a ``FitState``, step it one epoch at a time,
    and return it.

    Word vectors stay frozen; the source tables are reinitialized here so
    repeated fits (one per fold) never share trained rows.  With a
    validation set, stops after ``patience`` epochs without improvement and
    restores the best snapshot into ``params``.  ``on_epoch`` receives the
    state's last history entry and the live model, and may return True to
    stop early, which capacity probes use once training accuracy is high.
    """
    _require_labels(train_instances)
    init_rng = np.random.default_rng((config.seed, *seed_key, 1))
    article_table = article_sources.reinitialized(init_rng, config.dtype)
    claim_table = None
    if claim_sources is not None:
        claim_table = claim_sources.reinitialized(init_rng, config.dtype)
    params = ModelParams(hyper, init_rng, article_sources=article_table,
                         claim_sources=claim_table, dtype=config.dtype)
    state = FitState(params, OptimizerState.for_params(params.named()),
                     np.random.default_rng((config.seed, *seed_key, 2)),
                     np.random.default_rng((config.seed, *seed_key, 3)))
    model = CredibilityModel(hyper, params, word_embeddings)
    pairs = [(pair, inst.label) for inst in train_instances for pair in Pair.of(inst)]
    if not pairs:
        raise DegenerateInputError("no training pairs")
    # Without validation ``stale`` stays 0, below any patience.
    while state.epoch < config.max_epochs and state.stale < config.patience:
        _fit_epoch(state, model, pairs, config, val_instances)
        if on_epoch is not None and on_epoch(*state.history[-1], model):
            break
    if state.best_snapshot is not None:
        params.restore(state.best_snapshot)
    return state


def evaluate(model: CredibilityModel,
             instances: Sequence[ClaimInstance]) -> tuple[list, MetricReport]:
    """Per-claim predictions, scored in packed passes, plus the
    mode-appropriate report."""
    if not instances:
        raise DegenerateInputError("no instances to evaluate")
    _require_labels(instances)
    preds = model.score_claims(instances)
    return preds, mode_report(model.hyper.mode, preds,
                              [inst.label for inst in instances])


def train(instances: Sequence[ClaimInstance], plan: FoldPlan, hyper: Hyperparams,
          config: TrainConfig, word_embeddings: WordEmbeddings, *,
          min_article_support: int, min_claim_support: int,
          progress: Callable[[str], None] | None = None) -> list[FoldOutcome]:
    """Cross-validated training: one ``_train_fold`` per fold of ``plan``, in
    order; ``progress`` receives each ``train_log.txt`` line as it is made."""
    return [_train_fold(instances, plan, fold, hyper, config, word_embeddings,
                        min_article_support, min_claim_support, progress)
            for fold in range(plan.n_folds)]


def _train_fold(instances: Sequence[ClaimInstance], plan: FoldPlan, fold: int,
                hyper: Hyperparams, config: TrainConfig, word_embeddings: WordEmbeddings,
                min_article_support: int, min_claim_support: int,
                progress: Callable[[str], None] | None) -> FoldOutcome:
    """Fit one fold of ``plan`` and test it; all arguments but ``progress``
    pickle, and a plan naming an unknown claim is refused before any fold
    trains.  Each fold stops early on the plan's validation claims, draws its
    parameters from its own seed, and keeps the sources its training claims
    name ``min_article_support`` (article) or ``min_claim_support`` (claim)
    times or more; every other source, test-fold ones too, shares one row."""
    by_id = {inst.claim_id: inst for inst in instances}
    missing = [cid for ids in ([plan.validation] + plan.folds) for cid in ids
               if cid not in by_id]
    if missing:
        raise ContractError(f"fold plan names unknown claims: {missing[:3]}")
    train_insts = [by_id[cid] for cid in plan.train_ids(fold)]
    test_insts = [by_id[cid] for cid in plan.test_ids(fold)]
    if progress is not None:
        progress(f"fold {fold}: {len(train_insts)} train claims, "
                 f"{len(test_insts)} test claims")
    claim_counts, article_counts = source_counts(train_insts)
    article_table = build_source_table(
        article_counts, min_article_support, hyper.article_source_dim,
        None, "article_source_table", config.dtype)
    claim_table = None
    if hyper.claim_source_dim is not None:
        claim_table = build_source_table(
            claim_counts, min_claim_support, hyper.claim_source_dim,
            None, "claim_source_table", config.dtype)
    log = None if progress is None else partial(_log_epoch, progress, fold)
    state = fit(train_insts, hyper, config, word_embeddings, article_table,
                claim_table, val_instances=[by_id[cid] for cid in plan.validation],
                seed_key=(fold,), on_epoch=log)
    _, report = evaluate(CredibilityModel(hyper, state.params, word_embeddings),
                         test_insts)
    return FoldOutcome(fold, state.params, report, state.best_epoch)


def _log_epoch(progress: Callable[[str], None], fold: int, epoch: int,
               train_loss: float, val_value: float | None, _model) -> None:
    """The ``train_log.txt`` line of one finished epoch, from its history entry."""
    shown = "-" if val_value is None else f"{val_value:.6f}"
    progress(f"fold {fold} epoch {epoch} train_loss {train_loss:.6f} val {shown}")


def gradient_check(*, seed: int = 0) -> float:
    """Compare tape gradients with central finite differences.

    Builds a self-contained miniature model (one claim) per output head:
    binary with both source tables, three-class and regression with article
    sources only.  Each scores one padded chunk of two articles of 2 and 3
    tokens, so the padding mask and the masked softmax are differentiated
    too, and every entry of every parameter is probed.  The analytic
    gradients come from ``_chunk_gradients``, the step ``fit`` runs on each
    chunk.  Returns the worst relative error over the three models.
    """
    _check_seed(seed)
    sizes = dict(word_dim=4, hidden_size=3, fc_size=3, article_source_dim=2)
    return max(_gradient_error(Hyperparams(**sizes, **head), seed) for head in (
        dict(claim_source_dim=2), dict(classes=3), dict(mode="regress")))


def _gradient_error(hyper: Hyperparams, seed: int) -> float:
    """Worst relative gradient error of the miniature model of ``hyper``."""
    rng = np.random.default_rng(seed)
    claim_tokens = ["rivers", "flow", "uphill"]
    articles = [["observed", "downhill"], ["rivers", "observed", "downhill"]]
    vocab = Vocabulary(claim_tokens + ["observed", "downhill"])
    emb = WordEmbeddings(vocab, rng.standard_normal((len(vocab), hyper.word_dim)))
    article_table = SourceEmbeddingTable(
        ["observer"], rng.standard_normal((2, hyper.article_source_dim)),
        "article_source_table")
    claim_table = None
    if hyper.claim_source_dim is not None:
        claim_table = SourceEmbeddingTable(
            ["orator"], rng.standard_normal((2, hyper.claim_source_dim)),
            "claim_source_table")
    params = ModelParams(hyper, rng, article_sources=article_table,
                         claim_sources=claim_table)
    # Random biases keep every relu off its kink, where the analytic
    # subgradient and the central difference disagree.
    for name, p in params.named().items():
        if name.endswith("_b"):
            p.data = rng.uniform(-0.5, 0.5, p.shape)
    model = CredibilityModel(hyper, params, emb)
    chunk = [Pair(claim_tokens, tokens, "orator" if claim_table else None, source)
             for tokens, source in zip(articles, ["observer", None])]
    targets = [1, 0]
    l2 = 1e-4

    def chunk_loss() -> Tensor:
        score, _ = model.article_score(chunk)
        return sum_all(loss(score, targets, hyper, params, l2))

    _chunk_gradients(model, chunk, targets, l2, None)
    named = params.named()
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in named.items()}

    worst = 0.0
    for name, p in named.items():
        flat = p.data.reshape(-1)
        flat_grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + _FD_STEP
            up = chunk_loss().item()
            flat[i] = original - _FD_STEP
            down = chunk_loss().item()
            flat[i] = original
            numeric = (up - down) / (2.0 * _FD_STEP)
            err = abs(flat_grad[i] - numeric) / max(abs(flat_grad[i]) + abs(numeric),
                                                    1e-6)
            worst = max(worst, err)
    return worst
