"""Attention annotations, shading, renderers, and the 2-D projection.

The projection is validated against numpy's dense symmetric
eigendecomposition of the centered covariance, including inputs whose
top two eigenvalues nearly tie.
"""
import json
import math

import numpy as np
import pytest

from evicred.errors import ContractError, DegenerateInputError, UsageError
from evicred.explain import (
    RENDER_FORMATS,
    AttentionAnnotation,
    annotate,
    annotation_from_structured,
    pca_project,
    render,
    shade_buckets,
)
from evicred.model import CredibilityModel, ForwardTrace, Pair
from tests.conftest import tiny_world


def trace_of(tokens, weights):
    return ForwardTrace(
        tokens=list(tokens),
        attention_weights=np.asarray(weights, dtype=np.float64),
        article_vec=np.zeros(6), score=0.5,
    )


class TestAnnotate:
    def test_wraps_a_real_forward_trace(self):
        hyper, vocab, emb, params = tiny_world(seed=41)
        model = CredibilityModel(hyper, params, emb)
        _, (trace,) = model.article_score([Pair(["t0"], ["t1", "t2", "t3"],
                                                "speaker", "siteA")])
        a = annotate(trace, "credible", claim="t0", source="siteA")
        assert a.tokens == ["t1", "t2", "t3"]
        assert a.weights == [float(w) for w in trace.attention_weights]
        assert (a.claim, a.verdict, a.source) == ("t0", "credible", "siteA")

    def test_token_weight_mismatch_is_rejected(self):
        trace = trace_of(["a", "b"], [0.5, 0.5])
        trace.tokens.append("c")
        with pytest.raises(ContractError):
            annotate(trace, "credible", "c", "s")
        with pytest.raises(ContractError):
            AttentionAnnotation("c", "v", "s", ["a"], [0.5, 0.5])


class TestShadeBuckets:
    def test_uniform_weights_stay_in_bottom_bucket(self):
        assert shade_buckets([0.25] * 4) == [0, 0, 0, 0]

    def test_dominant_weight_takes_top_bucket(self):
        assert shade_buckets([0.1, 0.1, 0.1, 0.7]) == [0, 0, 0, 4]

    def test_levels_are_monotone_in_weight(self):
        rng = np.random.default_rng(42)
        weights = rng.random(30).tolist()
        buckets = shade_buckets(weights)
        order = np.argsort(weights)
        sorted_buckets = [buckets[i] for i in order]
        assert sorted_buckets == sorted(sorted_buckets)
        assert all(0 <= b <= 4 for b in buckets)

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            shade_buckets([])


class TestRender:
    def annotation(self, tokens=("plain", "hot"), weights=(0.1, 0.9)):
        return AttentionAnnotation(claim="the claim", verdict="credible",
                                   source="site", tokens=list(tokens),
                                   weights=list(weights))

    def test_ansi_highlights_only_heavy_tokens(self):
        out = render(self.annotation(), "ansi")
        assert "claim: the claim" in out
        assert "verdict: credible" in out
        assert "\x1b[48;5;" in out
        # The light token stays bare, the heavy one is wrapped.
        assert "plain" in out and "\x1b[0m" in out
        flat = render(self.annotation(weights=(0.5, 0.5)), "ansi")
        assert "\x1b[" not in flat

    def test_html_escapes_markup_in_tokens_and_claim(self):
        a = AttentionAnnotation(claim="<b>bold</b>", verdict="credible",
                                source="s&s", tokens=["<script>", "ok"],
                                weights=[0.9, 0.1])
        out = render(a, "html")
        assert "<script>" not in out
        assert "&lt;script&gt;" in out
        assert "&lt;b&gt;bold&lt;/b&gt;" in out
        assert "s&amp;s" in out
        assert 'title="0.9000"' in out

    def test_structured_round_trip_is_lossless(self):
        weights = [0.1 + 0.2, 1.0 / 3.0, 1e-17]
        a = self.annotation(tokens=["x", "y", "z"], weights=weights)
        text = render(a, "structured")
        back = annotation_from_structured(text)
        assert back.weights == weights
        assert back.tokens == a.tokens
        assert (back.claim, back.verdict, back.source) == (
            a.claim, a.verdict, a.source)
        json.loads(text)  # stays plain JSON

    def test_unknown_format_raises_usage_error(self):
        with pytest.raises(UsageError, match="watercolor"):
            render(self.annotation(), "watercolor")
        assert RENDER_FORMATS == ("ansi", "html", "structured")


def eigh_oracle(vectors):
    data = np.asarray(vectors, dtype=np.float64)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (len(data) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvals[::-1], eigvecs[:, ::-1], cov


def near_tied_top_pair(rng, n=60, dim=8, gap=1e-4):
    """Vectors whose covariance has eigenvalues 1, 1 - gap, 0.5 .. 0.1."""
    eigvals = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.5, 0.1, dim - 2)])
    centered = rng.standard_normal((n, dim))
    centered -= centered.mean(axis=0)
    scores, _ = np.linalg.qr(centered)  # orthonormal columns summing to zero
    axes, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (scores * np.sqrt(eigvals * (n - 1))) @ axes.T


class TestPcaProject:
    def names(self, n):
        return [f"p{i}" for i in range(n)], ["lab"] * n

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(43)
        cases = []
        for _ in range(20):
            n, dim = int(rng.integers(8, 40)), int(rng.integers(2, 9))
            cases.append(rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0))
        # Top two eigenvalues 1e-4 apart, where iterative solvers stall.
        cases.append(near_tied_top_pair(np.random.default_rng(48)))
        # 126 article vectors as wide as the snopes preset's (2H = 128).
        cases.append(np.random.default_rng(49).standard_normal((126, 128)))
        for trial, data in enumerate(cases):
            names, labels = self.names(len(data))
            proj = pca_project(data, names, labels)
            eigvals, eigvecs, cov = eigh_oracle(data)
            for i in range(2):
                align = abs(float(proj.components[i] @ eigvecs[:, i]))
                assert align == pytest.approx(1.0, abs=1e-6), trial
            total = float(np.trace(cov))
            assert proj.explained[0] == pytest.approx(eigvals[0] / total, abs=1e-9)
            assert proj.explained[1] == pytest.approx(eigvals[1] / total, abs=1e-9)

    def test_points_are_centered_projections(self):
        rng = np.random.default_rng(44)
        data = rng.standard_normal((12, 5))
        names, labels = self.names(12)
        proj = pca_project(data, names, labels)
        centered = data - data.mean(axis=0)
        xs = centered @ proj.components[0]
        ys = centered @ proj.components[1]
        for (x, y, label, name), ex, ey in zip(proj.points, xs, ys):
            assert x == pytest.approx(ex, abs=1e-12)
            assert y == pytest.approx(ey, abs=1e-12)
        assert proj.points[3][3] == "p3"

    def test_components_are_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(45)
        data = rng.standard_normal((20, 6))
        names, labels = self.names(20)
        proj = pca_project(data, names, labels)
        c1, c2 = proj.components
        assert np.linalg.norm(c1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(c2) == pytest.approx(1.0, abs=1e-9)
        assert abs(float(c1 @ c2)) < 1e-9
        for c in (c1, c2):
            assert c[int(np.argmax(np.abs(c)))] > 0

    def test_rank_two_data_is_fully_explained(self):
        rng = np.random.default_rng(46)
        data = rng.standard_normal((25, 2)) @ rng.standard_normal((2, 7))
        names, labels = self.names(25)
        proj = pca_project(data, names, labels)
        assert math.fsum(proj.explained) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_and_order_insensitive(self):
        rng = np.random.default_rng(47)
        data = rng.standard_normal((15, 4))
        names, labels = self.names(15)
        a = pca_project(data, names, labels)
        b = pca_project(data, names, labels)
        assert np.array_equal(a.components, b.components)
        perm = rng.permutation(15)
        c = pca_project(data[perm], [names[i] for i in perm],
                        [labels[i] for i in perm])
        assert np.allclose(a.components, c.components, atol=1e-6)

    def test_input_contracts(self):
        names, labels = self.names(2)
        with pytest.raises(DegenerateInputError):
            pca_project(np.zeros((2, 4)), names, labels)
        names, labels = self.names(5)
        with pytest.raises(DegenerateInputError):
            pca_project(np.zeros((5, 1)), names, labels)
        with pytest.raises(DegenerateInputError):
            pca_project(np.ones((5, 4)), names, labels)
        with pytest.raises(ContractError):
            pca_project(np.random.default_rng(0).standard_normal((5, 4)),
                        names[:3], labels)
