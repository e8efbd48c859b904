"""Release gate: one test per acceptance criterion.

Every test prints a single ``[criterion N] name: PASS|FAIL`` line through
the capture-disabled stream, so a plain ``pytest -v`` run doubles as a
checklist.  Values are checked at the tolerances the criteria state;
oracles are imported from the per-module suites where one already exists
so the gate and the unit tests cannot drift apart.

The final criterion needs the published claim corpus (converted to the
JSON-lines layout) and is skipped unless EVICRED_SNOPES_CORPUS points at
that file.
"""
import math
import os
import time

import numpy as np
import pytest

from evicred.cli import main
from evicred.corpus import ClaimInstance, extract_snippet, ingest
from evicred.embeddings import Vocabulary, WordEmbeddings
from evicred.explain import pca_project
from evicred.metrics import macro_f1, ranking_auc, regression_report
from evicred.model import CredibilityModel, Hyperparams, attend
from evicred.numeric import Tensor, softmax
from evicred.training import TrainConfig, evaluate, fit, gradient_check
from tests.conftest import (
    article_table_for,
    planted_corpus,
    tiny_world,
    write_corpus_file,
    write_embedding_file,
)
from tests.test_corpus import snippet_oracle
from tests.test_metrics import f1_oracle, pairwise_auc_oracle


def emit(capsys, number, name, ok, detail=""):
    line = f"[criterion {number:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def overfit_run():
    """One training run on the planted corpus, shared by criteria 2 and 9.

    Stops as soon as training accuracy reaches the bar, so the model the
    separability check sees is exactly the one the capacity check accepted.
    """
    instances, emb = planted_corpus(n_claims=50, n_articles=3, seed=7, dim=16)
    hyper = Hyperparams(word_dim=16, hidden_size=8, fc_size=8,
                        article_source_dim=4, dropout=0.0)
    table = article_table_for(instances, dim=4, min_support=1, seed=0)
    config = TrainConfig(batch_size=16, max_epochs=200, l2_lambda=0.0, seed=3)
    state = {"epoch": 0, "accuracy": 0.0}

    def stop_when_fit(epoch, train_loss, val_value, model):
        _, report = evaluate(model, instances)
        state["epoch"], state["accuracy"] = epoch, report.accuracy
        return report.accuracy >= 0.98

    start = time.perf_counter()
    result = fit(instances, hyper, config, emb, table, on_epoch=stop_when_fit)
    state["seconds"] = time.perf_counter() - start
    model = CredibilityModel(hyper, result.params, emb)
    return instances, model, state


def test_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    worst = gradient_check(seed=1)
    seconds = time.perf_counter() - start
    ok = worst < 1e-4 and seconds < 10.0
    emit(capsys, 1, "gradient fidelity", ok,
         f"worst relative error {worst:.2e} in {seconds:.2f}s")
    assert worst < 1e-4
    assert seconds < 10.0


def test_overfits_a_planted_lexical_signal(capsys, overfit_run):
    _, _, state = overfit_run
    ok = state["accuracy"] >= 0.98 and state["seconds"] < 120.0
    emit(capsys, 2, "overfit capacity", ok,
         f"accuracy {state['accuracy']:.3f} at epoch {state['epoch']} "
         f"in {state['seconds']:.0f}s")
    assert state["accuracy"] >= 0.98
    assert state["epoch"] <= 200
    assert state["seconds"] < 120.0


def test_attention_weights_are_a_masked_distribution(capsys):
    hyper, _, _, params = tiny_world(seed=5)
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    worst_shift = 0.0
    masked_clean = True
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        embeds = rng.standard_normal((k, hyper.word_dim)) * rng.uniform(0.2, 4.0)
        claim_vec = rng.standard_normal(hyper.word_dim)
        mask = None
        if k > 1 and rng.random() < 0.5:
            mask = rng.random(k) < 0.7
            if not mask.any():
                mask[int(rng.integers(0, k))] = True
        weights, scores = attend(embeds, claim_vec, params, mask)
        w = weights.data[:, 0]
        worst_sum = max(worst_sum, abs(math.fsum(w) - 1.0))
        if mask is not None and not (w[~mask] == 0.0).all():
            masked_clean = False
        shift = float(rng.uniform(-60.0, 60.0))
        shifted = softmax(Tensor(scores.data + shift), mask)
        worst_shift = max(worst_shift,
                          float(np.abs(shifted.data[:, 0] - w).max()))
    ok = worst_sum <= 1e-9 and masked_clean and worst_shift <= 1e-9
    emit(capsys, 3, "attention invariants", ok,
         f"sum error {worst_sum:.1e}, shift error {worst_shift:.1e}")
    assert worst_sum <= 1e-9
    assert masked_clean
    assert worst_shift <= 1e-9


def test_metrics_match_brute_force_oracles(capsys):
    rng = np.random.default_rng(23)

    worst_auc = 0.0
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n).tolist()
        # Quantized scores so exact ties show up constantly.
        scores = (rng.integers(0, 9, size=n) / 8.0).tolist()
        got = ranking_auc(scores, labels)
        want = pairwise_auc_oracle(scores, labels)
        if want is None:
            assert got is None
            continue
        compared += 1
        worst_auc = max(worst_auc, abs(got - want))
    assert compared >= 100

    f1_exact = True
    for _ in range(200):
        classes = int(rng.integers(2, 7))
        n = int(rng.integers(5, 60))
        pred = rng.integers(0, classes, size=n).tolist()
        true = rng.integers(0, classes, size=n).tolist()
        if macro_f1(pred, true, classes) != f1_oracle(pred, true, classes):
            f1_exact = False
            break

    worst_rmse = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 30))
        preds = rng.standard_normal(n).tolist()
        targets = rng.standard_normal(n).tolist()
        report = regression_report(preds, targets)
        worst_rmse = max(worst_rmse, abs(report.rmse ** 2 - report.mse))

    ok = worst_auc <= 1e-9 and f1_exact and worst_rmse <= 1e-12
    emit(capsys, 4, "metric oracles", ok,
         f"AUC error {worst_auc:.1e} on {compared} sets, macro F1 exact, "
         f"RMSE^2-MSE {worst_rmse:.1e}")
    assert worst_auc <= 1e-9
    assert f1_exact
    assert worst_rmse <= 1e-12


def test_snippet_selection_matches_exhaustive_scan(capsys):
    # Fillers get small-norm vectors so windows holding the planted claim
    # block clear the 0.5 bar while plain prose stays below it.
    claim = [f"k{i}" for i in range(6)]
    filler = [f"f{i}" for i in range(40)]
    rng = np.random.default_rng(29)
    matrix = rng.standard_normal((len(claim) + len(filler), 8))
    matrix[len(claim):] *= 0.05
    emb = WordEmbeddings(Vocabulary(claim + filler), matrix)

    def prose(length):
        return [filler[i] for i in rng.integers(0, len(filler), size=length)]

    articles = []
    for _ in range(34):
        articles.append(prose(int(rng.integers(120, 200))))
    for _ in range(33):
        body = prose(int(rng.integers(120, 200)))
        block = claim * 3
        at = int(rng.integers(0, len(body)))
        articles.append(body[:at] + block + body[at:])
    for _ in range(33):
        body = prose(int(rng.integers(120, 200)))
        for word in rng.choice(claim, size=4, replace=False):
            body.insert(int(rng.integers(0, len(body))), word)
        articles.append(body)

    hits = 0
    nones = 0
    agreed = True
    for article in articles:
        got = extract_snippet(claim, article, emb)
        want_start, want_sim = snippet_oracle(claim, article, emb, window=100)
        if want_sim >= 0.5:
            hits += 1
            if got is None or got.start != want_start:
                agreed = False
                break
        else:
            nones += 1
            if got is not None:
                agreed = False
                break
    ok = agreed and hits >= 20 and nones >= 20
    emit(capsys, 5, "snippet oracle", ok,
         f"{hits} extractions and {nones} rejections, all matching")
    assert agreed
    assert hits >= 20
    assert nones >= 20


def test_claim_score_is_an_order_free_article_mean(capsys):
    hyper, vocab, emb, params = tiny_world(seed=2)
    model = CredibilityModel(hyper, params, emb)
    tokens = list(vocab.tokens)
    rng = np.random.default_rng(17)

    def pick(n):
        return [tokens[i] for i in rng.integers(0, len(tokens), size=n)]

    stable = True
    equals_mean = True
    for i in range(100):
        n_articles = int(rng.integers(2, 7))
        articles = [pick(int(rng.integers(2, 9))) for _ in range(n_articles)]
        sources = [("siteA" if rng.random() < 0.5 else "elsewhere.example")
                   for _ in range(n_articles)]
        inst = ClaimInstance(
            claim_id=f"c{i}", claim_text="", claim_tokens=pick(3),
            claim_source="speaker", articles=articles,
            article_texts=[" ".join(a) for a in articles],
            article_sources=sources, label=1)
        cred, traces = model.claim_score(inst)
        if cred != math.fsum(t.score for t in traces) / n_articles:
            equals_mean = False
            break
        order = rng.permutation(n_articles)
        shuffled = ClaimInstance(
            claim_id=inst.claim_id, claim_text="", claim_tokens=inst.claim_tokens,
            claim_source="speaker",
            articles=[articles[p] for p in order],
            article_texts=[inst.article_texts[p] for p in order],
            article_sources=[sources[p] for p in order], label=1)
        cred_shuffled, _ = model.claim_score(shuffled)
        if cred_shuffled != cred:
            stable = False
            break
    ok = stable and equals_mean
    emit(capsys, 6, "aggregation invariance", ok,
         "bit-exact under permutation, equals the article mean")
    assert equals_mean
    assert stable


def test_projection_matches_dense_eigendecomposition(capsys):
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 40))
        dim = int(rng.integers(2, 9))
        data = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        proj = pca_project(data, [f"p{i}" for i in range(n)], ["x"] * n)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        vals, vecs = np.linalg.eigh(cov)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        points = np.asarray([(x, y) for x, y, _, _ in proj.points])
        total = float(np.trace(cov))
        for i in range(2):
            c, e = proj.components[i], vecs[:, i]
            worst = max(worst, min(np.abs(c - e).max(), np.abs(c + e).max()))
            coords = centered @ vecs[:, i]
            worst = max(worst, min(np.abs(points[:, i] - coords).max(),
                                   np.abs(points[:, i] + coords).max()))
            worst = max(worst, abs(proj.explained[i] - vals[i] / total))

    plane = rng.standard_normal((25, 2)) @ rng.standard_normal((2, 7))
    flat = pca_project(plane, [f"q{i}" for i in range(25)], ["x"] * 25)
    leftover = abs(math.fsum(flat.explained) - 1.0)

    ok = worst < 1e-6 and leftover <= 1e-9
    emit(capsys, 7, "projection oracle", ok,
         f"worst deviation {worst:.1e}, rank-2 residual {leftover:.1e}")
    assert worst < 1e-6
    assert leftover <= 1e-9


def test_identical_seeds_reproduce_training_bit_for_bit(capsys, tmp_path):
    instances, emb = planted_corpus(n_claims=12, n_articles=2, seed=9, dim=16)
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    write_corpus_file(corpus, instances)
    write_embedding_file(vectors, emb)

    def run(out):
        code = main([
            "train", "--corpus", str(corpus), "--embeddings", str(vectors),
            "--out", str(out), "--folds", "2", "--max-epochs", "2",
            "--batch-size", "8", "--hidden-size", "4", "--fc-size", "3",
            "--article-source-dim", "2", "--min-article-support", "1",
            "--seed", "3",
        ])
        assert code == 0

    run(tmp_path / "first")
    run(tmp_path / "second")
    artifacts = ["fold_00.ckpt", "fold_01.ckpt", "metrics.json", "train_log.txt"]
    same = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in artifacts)
    emit(capsys, 8, "determinism", same,
         "checkpoints, metrics, and logs byte-identical across runs")
    assert same


def linear_probe_accuracy(points, labels):
    """Logistic regression on two fixed-scale inputs, plain gradient steps."""
    spread = np.abs(points).max(axis=0)
    x = points / np.where(spread == 0.0, 1.0, spread)
    w = np.zeros(2)
    b = 0.0
    for _ in range(5000):
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        w -= 0.5 * (x.T @ (p - labels)) / len(labels)
        b -= 0.5 * float(np.mean(p - labels))
    return float(np.mean(((x @ w + b) > 0).astype(float) == labels))


def test_projected_article_vectors_separate_classes(capsys, overfit_run):
    instances, model, _ = overfit_run
    vectors = []
    labels = []
    for inst in instances:
        _, traces = model.claim_score(inst)
        for trace in traces:
            vectors.append(trace.article_vec)
            labels.append(float(inst.label))
    proj = pca_project(np.asarray(vectors),
                       [f"a{i}" for i in range(len(vectors))],
                       [str(int(l)) for l in labels])
    points = np.asarray([(x, y) for x, y, _, _ in proj.points])
    accuracy = linear_probe_accuracy(points, np.asarray(labels))
    ok = accuracy >= 0.85
    emit(capsys, 9, "projected separability", ok,
         f"linear probe accuracy {accuracy:.3f} on the 2-D projection")
    assert accuracy >= 0.85


@pytest.mark.skipif("EVICRED_SNOPES_CORPUS" not in os.environ,
                    reason="published corpus not available")
def test_published_corpus_counts(capsys):
    instances = ingest(os.environ["EVICRED_SNOPES_CORPUS"])
    n_claims = len(instances)
    n_articles = sum(len(inst.articles) for inst in instances)
    n_sources = len({source for inst in instances
                     for source in inst.article_sources if source})
    got = (n_claims, n_articles, n_sources)
    ok = got == (4341, 29242, 336)
    emit(capsys, 10, "published corpus counts", ok,
         f"claims/articles/sources {got}")
    assert got == (4341, 29242, 336)
