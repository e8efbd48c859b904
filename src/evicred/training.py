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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import ClaimInstance, FoldPlan
from .embeddings import SourceEmbeddingTable, Vocabulary, WordEmbeddings
from .errors import ContractError, DegenerateInputError
from .metrics import MetricReport, classification_report, multiclass_report, \
    regression_report
from .model import CredibilityModel, Hyperparams, ModelParams, Pair, _chunk_spans
from .numeric import Tensor, Tape, add, affine, clip, log, matmul, mul, mul_const, \
    sum_all, zero_grads

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "loss",
    "adam_step",
    "FitResult",
    "FoldOutcome",
    "fit",
    "train",
    "evaluate",
    "gradient_check",
]

PROB_FLOOR = 1e-7


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
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ContractError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ContractError("max_epochs must be at least 1")
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
                        mul_const(clip(score, PROB_FLOOR, 1.0), onehot))
        base = affine(log(picked), -1.0)
    if params is not None and l2_lambda > 0.0:
        penalty = None
        for w in params.regularized():
            term = sum_all(mul(w, w))
            penalty = term if penalty is None else add(penalty, term)
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
        return cls(
            step_count=0,
            first_moment={n: np.zeros_like(t.data) for n, t in named.items()},
            second_moment={n: np.zeros_like(t.data) for n, t in named.items()},
        )


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
class FitResult:
    params: ModelParams
    best_epoch: int
    history: list[tuple[int, float, float | None]]


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


def _expand_pairs(instances: Sequence[ClaimInstance]) -> list[tuple[Pair, float]]:
    pairs = [(pair, inst.label) for inst in instances for pair in Pair.of(inst)]
    if not pairs:
        raise DegenerateInputError("no training pairs")
    return pairs


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


def fit(train_instances: Sequence[ClaimInstance], hyper: Hyperparams,
        config: TrainConfig, word_embeddings: WordEmbeddings,
        article_sources: SourceEmbeddingTable,
        claim_sources: SourceEmbeddingTable | None = None, *,
        val_instances: Sequence[ClaimInstance] | None = None,
        seed_key: tuple[int, ...] = (0,),
        on_epoch: Callable[[int, float, float | None, CredibilityModel],
                           bool | None] | None = None,
        progress: Callable[[str], None] | None = None) -> FitResult:
    """Train one model.

    Word vectors stay frozen; the source tables are reinitialized here so
    repeated fits (one per fold) never share trained rows.  With a
    validation set, stops after ``patience`` epochs without improvement
    and restores the best snapshot.  ``on_epoch`` receives the live model
    and may return True to stop early, which capacity probes use once
    training accuracy is high enough.
    """
    for inst in train_instances:
        if inst.label is None:
            raise ContractError(f"claim {inst.claim_id} has no label")
    dtype = config.dtype
    init_rng = np.random.default_rng((config.seed, *seed_key, 1))
    shuffle_rng = np.random.default_rng((config.seed, *seed_key, 2))
    dropout_rng = np.random.default_rng((config.seed, *seed_key, 3))

    article_table = article_sources.reinitialized(init_rng, dtype)
    claim_table = None
    if claim_sources is not None:
        claim_table = claim_sources.reinitialized(init_rng, dtype)
    params = ModelParams(hyper, init_rng, article_sources=article_table,
                         claim_sources=claim_table, dtype=dtype)
    model = CredibilityModel(hyper, params, word_embeddings)
    named = params.named()
    state = OptimizerState.for_params(named)
    pairs = _expand_pairs(train_instances)

    best_value: float | None = None
    best_snapshot = None
    best_epoch = 0
    stale = 0
    history: list[tuple[int, float, float | None]] = []

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(pairs))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [pairs[int(i)] for i in order[start : start + config.batch_size]]
            zero_grads(named.values())
            for lo, hi in _chunk_spans([len(pair.article_tokens) for pair, _ in batch]):
                chunk, labels = zip(*batch[lo:hi])
                values = _chunk_gradients(
                    model, chunk, labels, config.l2_lambda,
                    dropout_rng if hyper.dropout > 0 else None)
                if not np.isfinite(values).all():
                    raise ContractError(f"loss became non-finite at epoch {epoch}")
                epoch_losses.extend(values)
            if len(batch) > 1:
                inv = 1.0 / len(batch)
                for p in named.values():
                    if p.grad is not None:
                        p.grad = p.grad * inv
            adam_step(named, state, config)
        train_loss = float(np.mean(epoch_losses))

        val_value: float | None = None
        if val_instances:
            _, report = evaluate(model, val_instances)
            val_value, higher_better = _validation_value(report, hyper)
            improved = (best_value is None
                        or (val_value > best_value if higher_better
                            else val_value < best_value))
            if improved:
                best_value = val_value
                best_snapshot = params.snapshot()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        history.append((epoch, train_loss, val_value))
        if progress is not None:
            shown = "-" if val_value is None else f"{val_value:.6f}"
            progress(f"epoch {epoch} train_loss {train_loss:.6f} val {shown}")
        if on_epoch is not None and on_epoch(epoch, train_loss, val_value, model):
            if best_snapshot is None:
                best_epoch = epoch
            break
        if val_instances and stale >= config.patience:
            break

    if best_snapshot is not None:
        params.restore(best_snapshot)
    elif best_epoch == 0:
        best_epoch = history[-1][0] if history else 0
    return FitResult(params=params, best_epoch=best_epoch, history=history)


def evaluate(model: CredibilityModel,
             instances: Sequence[ClaimInstance]) -> tuple[list, MetricReport]:
    """Per-claim predictions plus the mode-appropriate report."""
    if not instances:
        raise DegenerateInputError("no instances to evaluate")
    preds = []
    labels = []
    for inst in instances:
        if inst.label is None:
            raise ContractError(f"claim {inst.claim_id} has no label")
        cred, _ = model.claim_score(inst)
        preds.append(cred)
        labels.append(inst.label)
    hyper = model.hyper
    if hyper.mode == "regress":
        report = regression_report([float(p) for p in preds],
                                   [float(t) for t in labels])
    elif hyper.classes == 2:
        report = classification_report([float(p) for p in preds],
                                       [int(t) for t in labels])
    else:
        picked = [int(np.argmax(p)) for p in preds]
        report = multiclass_report(picked, [int(t) for t in labels], hyper.classes)
    return preds, report


def train(instances: Sequence[ClaimInstance], plan: FoldPlan, hyper: Hyperparams,
          config: TrainConfig, word_embeddings: WordEmbeddings,
          article_sources: SourceEmbeddingTable,
          claim_sources: SourceEmbeddingTable | None = None, *,
          progress: Callable[[str], None] | None = None) -> list[FoldOutcome]:
    """Cross-validated training: one model per fold, tested on that fold.

    Every fold shares the same validation holdout for early stopping and
    reinitializes its parameters from a fold-specific seed.
    """
    by_id = {inst.claim_id: inst for inst in instances}
    missing = [cid for ids in ([plan.validation] + plan.folds) for cid in ids
               if cid not in by_id]
    if missing:
        raise ContractError(f"fold plan names unknown claims: {missing[:3]}")
    val_instances = [by_id[cid] for cid in plan.validation]
    outcomes = []
    for fold in range(plan.n_folds):
        train_insts = [by_id[cid] for cid in plan.train_ids(fold)]
        test_insts = [by_id[cid] for cid in plan.test_ids(fold)]
        if progress is not None:
            progress(f"fold {fold}: {len(train_insts)} train claims, "
                     f"{len(test_insts)} test claims")
        result = fit(train_insts, hyper, config, word_embeddings, article_sources,
                     claim_sources, val_instances=val_instances,
                     seed_key=(fold,),
                     progress=(lambda line, f=fold: progress(f"fold {f} {line}"))
                     if progress else None)
        model = CredibilityModel(hyper, result.params, word_embeddings)
        _, report = evaluate(model, test_insts)
        outcomes.append(FoldOutcome(fold=fold, params=result.params,
                                    report=report, best_epoch=result.best_epoch))
    return outcomes


def gradient_check(hyper: Hyperparams | None = None, *, seed: int = 0,
                   step: float = 1e-5, corrupt: str | None = None) -> float:
    """Compare tape gradients with central finite differences.

    Builds a self-contained miniature model (one claim, both source
    tables) that scores one padded chunk of two articles of 2 and 3
    tokens, so the padding mask and the masked softmax are differentiated
    too, and probes every entry of every parameter.  Returns the worst
    relative error; ``corrupt`` doubles one group's analytic gradient
    first so tests can prove the check has teeth.
    """
    if hyper is None:
        hyper = Hyperparams(word_dim=4, hidden_size=3, fc_size=3,
                            article_source_dim=2, claim_source_dim=2,
                            dropout=0.0, mode="classify", classes=2)
    if hyper.dropout != 0.0:
        raise ContractError("gradient check needs dropout disabled")
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

    with Tape() as tape:
        full = chunk_loss()
    tape.backward(full)

    named = params.named()
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in named.items()}
    if corrupt is not None:
        if corrupt not in analytic:
            raise ContractError(f"no parameter named {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] * 2.0

    worst = 0.0
    for name, p in named.items():
        flat = p.data.reshape(-1)
        flat_grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = chunk_loss().item()
            flat[i] = original - step
            down = chunk_loss().item()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            err = abs(flat_grad[i] - numeric) / max(abs(flat_grad[i]) + abs(numeric),
                                                    1e-6)
            worst = max(worst, err)
    return worst
