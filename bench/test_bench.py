"""Tests of the benchmark's own parts: generator, oracle, tracer, harness.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import generate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from evicred import corpus  # noqa: E402
from evicred.embeddings import Vocabulary, WordEmbeddings  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "train-snopes": dict(vector_rows=200, corpus_words=150, claims=2,
                         articles_per_claim=2, val_claims=2, val_articles_per_claim=1),
    "score-claims": dict(vector_rows=300, corpus_words=150, claims=6, max_tokens=60),
    "ingest-snippets": dict(vector_rows=300, corpus_words=150, claims=4,
                            min_tokens=120, max_tokens=200),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_writes_identical_files(tmp_path, workload):
    generate.generate(workload, 5, tmp_path / "a", SMALL[workload])
    generate.generate(workload, 5, tmp_path / "b", SMALL[workload])
    generate.generate(workload, 6, tmp_path / "c", SMALL[workload])
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    other = _files(tmp_path / "c")
    assert all(first[name] != other[name] for name in first)


def _snippet_world():
    claim = [f"k{i}" for i in range(5)]
    filler = [f"f{i}" for i in range(30)]
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((len(claim) + len(filler), 6))
    matrix[len(claim):] *= 0.1
    emb = WordEmbeddings(Vocabulary(claim + filler), matrix)
    articles = []
    for n in range(12):
        body = [filler[i] for i in rng.integers(0, len(filler), size=40 + 10 * n)]
        if n % 2 == 0:
            at = int(rng.integers(0, len(body)))
            body[at:at] = claim * 2
        articles.append(body)
    return claim, emb, articles


def test_oracle_agrees_with_extract_snippet():
    claim, emb, articles = _snippet_world()
    kept = 0
    for body in articles:
        snip = corpus.extract_snippet(claim, body, emb, delta=0.3, window=20)
        start = None if snip is None else snip.start
        kept += start is not None
        assert oracle.snippet_disagreement(claim, body, emb, 0.3, 20, start) is None
    assert 0 < kept < len(articles)


def test_oracle_rejects_a_wrong_start_and_a_wrong_drop():
    claim, emb, articles = _snippet_world()
    body = articles[0]
    snip = corpus.extract_snippet(claim, body, emb, delta=0.3, window=20)
    assert snip is not None
    wrong = (snip.start + 15) % (len(body) - 19)
    assert oracle.snippet_disagreement(claim, body, emb, 0.3, 20, wrong)
    assert oracle.snippet_disagreement(claim, body, emb, 0.3, 20, None)


def test_self_time_subtracts_children_and_restore_undoes_patches():
    tracer = Tracer()
    original = corpus.source_counts
    tracer.patch_function(original, tracer.wrap("corpus.counts", original))
    assert corpus.source_counts is not original
    with tracer.span("outer"):
        corpus.source_counts([])
        with tracer.span("inner"):
            pass
    tracer.restore()
    assert corpus.source_counts is original
    self_s, calls = tracer.self_times()
    assert calls == {"outer": 1, "corpus.counts": 1, "inner": 1}
    (_, o_start, o_end, _), = [s for s in tracer.spans if s[0] == "outer"]
    assert sum(self_s.values()) == pytest.approx(o_end - o_start, abs=1e-12)
    assert tracer.roots() == [0, 0, 0]


def test_traced_unit_reproduces_the_untraced_digest(tmp_path):
    generate.generate("train-snopes", 2, tmp_path, SMALL["train-snopes"])
    workload = workloads.TrainSnopes(tmp_path, 2)
    state = workload.setup().state
    plain = workload.unit(state)
    tracer = Tracer()
    workloads.install_tracing(tracer)
    try:
        traced = workload.unit(state)
    finally:
        tracer.restore()
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    layers = workloads.layer_metrics(tracer, traced.ops)
    assert layers["numeric.tape_ops_per_pair"][0] > 0
    assert layers["training.adam_steps"][0] == 1 / traced.ops
    assert layers["corpus.snippet_calls"][0] == 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-snopes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
