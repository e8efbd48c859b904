"""Ingestion, snippet extraction, and fold planning.

The snippet oracle in this file re-scores every window position with
set arithmetic and np.mean, independent of the library's incremental
bookkeeping, and the fold checks recompute the partition law directly.
"""
import json
import logging
import math

import numpy as np
import pytest

from evicred import corpus as corpus_mod
from evicred.corpus import (
    FoldPlan,
    Snippet,
    SnippetScore,
    extract_snippet,
    ingest,
    make_folds,
    map_politifact_label,
    source_counts,
    write_corpus,
)
from evicred.embeddings import Vocabulary, WordEmbeddings, claim_mean
from evicred.errors import ContractError, DegenerateInputError, ParseError
from tests.conftest import planted_corpus


def corpus_line(rid, claim="rivers flow uphill", label=0, articles=None, **extra):
    record = {
        "id": rid,
        "claim": claim,
        "label": label,
        "articles": articles if articles is not None else [
            {"text": "observed flowing downhill in every test", "source": "rivers.org"},
        ],
    }
    record.update(extra)
    return json.dumps(record)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPolitifactLabels:
    @pytest.mark.parametrize("rating,expected", [
        ("true", 1), ("mostly true", 1), ("half true", 1),
        ("mostly false", 0), ("false", 0), ("pants on fire", 0),
    ])
    def test_six_point_scale(self, rating, expected):
        assert map_politifact_label(rating) == expected

    def test_formatting_variants(self):
        assert map_politifact_label("Pants on Fire!") == 0
        assert map_politifact_label("Mostly-True") == 1
        assert map_politifact_label("HALF  TRUE") == 1

    def test_unknown_rating_raises(self):
        with pytest.raises(ParseError, match="full flop"):
            map_politifact_label("full flop")


class TestIngest:
    def test_roundtrip_through_write_corpus(self, tmp_path):
        instances, _ = planted_corpus(n_claims=6, n_articles=2)
        path = tmp_path / "corpus.jsonl"
        write_corpus(instances, path)
        back = ingest(path)
        assert [i.claim_id for i in back] == [i.claim_id for i in instances]
        assert back[0].claim_tokens == instances[0].claim_tokens
        assert back[0].articles == instances[0].articles
        assert back[0].label == instances[0].label

    def test_duplicate_id_raises(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl",
                           [corpus_line("c1"), corpus_line("c1")])
        with pytest.raises(ParseError, match="duplicate id"):
            ingest(path)

    def test_integer_id_is_its_decimal_string_and_no_other_type_is_one(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line(3)])
        assert ingest(path)[0].claim_id == "3"
        write_lines(path, [corpus_line(3), corpus_line("3")])
        with pytest.raises(ParseError, match="record 3: duplicate id"):
            ingest(path)
        for bad in (True, 3.0, None, [3], {"id": 3}):
            write_lines(path, [corpus_line(bad)])
            with pytest.raises(ParseError,
                               match=r"c\.jsonl:1: id must be a string or an integer"):
                ingest(path)

    @pytest.mark.parametrize("field, value, kind", [
        ("claim", ["rivers", "flow"], "a string"),
        ("claim_source", {"k": 1}, "a string or null"),
        ("text", 5, "a string"), ("source", 7, "a string"), ("articles", {}, "a list")])
    def test_field_of_another_json_type_is_refused_not_coerced(self, tmp_path, field,
                                                               value, kind):
        article = {"text": "observed flowing downhill", "source": "rivers.org"}
        fields = {"articles": [article], "claim_source": "a speaker"}
        (article if field in article else fields)[field] = value
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", **fields)])
        with pytest.raises(ParseError, match=f"record c1: field '{field}' must be {kind}$"):
            ingest(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1"), "{nope"])
        with pytest.raises(ParseError, match=r"c\.jsonl:2"):
            ingest(path)

    def test_line_that_is_not_an_object_names_the_line(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1"), "[1, 2]"])
        with pytest.raises(ParseError, match=r"c\.jsonl:2: record is not a JSON object"):
            ingest(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_number_names_the_line(self, tmp_path, literal):
        line = corpus_line("c1", label=0).replace('"label": 0', f'"label": {literal}')
        path = write_lines(tmp_path / "c.jsonl", [line])
        with pytest.raises(ParseError, match=rf"c\.jsonl:1: .*{literal}"):
            ingest(path)

    def test_overflowing_label_names_the_record(self, tmp_path):
        # 1e999 decodes to inf; a 401-digit integer decodes, but no float holds it.
        for literal in ("1e999", "1" + "0" * 400):
            line = corpus_line("c1", label=0).replace('"label": 0', f'"label": {literal}')
            path = write_lines(tmp_path / "c.jsonl", [line])
            with pytest.raises(ParseError, match="record c1: label must be finite"):
                ingest(path)

    def test_tokenless_claim_raises(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", claim="?! --")])
        with pytest.raises(ParseError, match="no tokens"):
            ingest(path)

    def test_boolean_label_becomes_int(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", label=True)])
        inst = ingest(path)[0]
        assert inst.label == 1
        assert isinstance(inst.label, int)

    def test_fractional_label_passes_through(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", label=3.7)])
        assert ingest(path)[0].label == 3.7

    def test_non_numeric_label_raises(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", label="truthy")])
        with pytest.raises(ParseError, match="numeric"):
            ingest(path)

    def test_politifact_scheme_maps_strings(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl",
                           [corpus_line("c1", label="Mostly True")])
        assert ingest(path, label_scheme="politifact")[0].label == 1

    def test_unknown_politifact_rating_names_the_file_and_record(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [
            corpus_line("c1", label="Mostly True"), corpus_line("c2", label="sorta")])
        with pytest.raises(ParseError) as err:
            ingest(path, label_scheme="politifact")
        assert str(err.value) == f"{path}: record c2: unknown rating 'sorta'"

    def test_missing_label_raises_unless_optional(self, tmp_path):
        line = corpus_line("c1")
        record = json.loads(line)
        del record["label"]
        path = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="label"):
            ingest(path)
        assert ingest(path, require_label=False)[0].label is None

    def test_missing_article_source_raises(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [
            corpus_line("c1", articles=[{"text": "some words here"}])])
        with pytest.raises(ParseError, match="source"):
            ingest(path)

    def test_blocklisted_articles_dropped(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", articles=[
            {"text": "good words", "source": "keep.org"},
            {"text": "bad words", "source": "drop.net"},
        ])])
        inst = ingest(path, blocklist={"drop.net"})[0]
        assert inst.article_sources == ["keep.org"]

    def test_empty_token_articles_dropped(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [corpus_line("c1", articles=[
            {"text": "...", "source": "punct.org"},
            {"text": "real words", "source": "keep.org"},
        ])])
        assert ingest(path)[0].article_sources == ["keep.org"]

    def test_claims_without_articles_skipped_with_one_warning(self, tmp_path, caplog):
        path = write_lines(tmp_path / "c.jsonl", [
            corpus_line("c1", articles=[{"text": "!!", "source": "a"}]),
            corpus_line("c2"),
            corpus_line("c3", articles=[]),
        ])
        with caplog.at_level(logging.WARNING, logger="evicred.corpus"):
            instances = ingest(path)
        assert [i.claim_id for i in instances] == ["c2"]
        warnings = [r for r in caplog.records if "skipped" in r.getMessage()]
        assert len(warnings) == 1
        assert "2" in warnings[0].getMessage()

    def test_claim_source_is_optional(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [
            corpus_line("c1", claim_source="speaker-a"),
            corpus_line("c2"),
        ])
        instances = ingest(path)
        assert instances[0].claim_source == "speaker-a"
        assert instances[1].claim_source is None


def toy_embeddings(tokens, dim=4, seed=11):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(tokens)
    return WordEmbeddings(vocab, rng.standard_normal((len(vocab), dim)))


def snippet_oracle(claim_tokens, article_tokens, emb, window):
    """Exhaustive re-scan with independent arithmetic; returns (start, sim)."""
    claim_types = set(claim_tokens)
    claim_vec = np.mean([emb.vector(t) for t in claim_tokens], axis=0)
    width = min(window, len(article_tokens))
    best_start, best_sim = None, None
    for start in range(len(article_tokens) - width + 1):
        chunk = article_tokens[start:start + width]
        bow = len(claim_types.intersection(chunk)) / len(claim_types)
        wvec = np.mean([emb.vector(t) for t in chunk], axis=0)
        denom = np.linalg.norm(claim_vec) * np.linalg.norm(wvec)
        semantic = float(claim_vec @ wvec / denom) if denom else 0.0
        sim = bow * semantic
        if best_sim is None or sim > best_sim:
            best_start, best_sim = start, sim
    return best_start, best_sim


def plain_scan(claim_tokens, article_tokens, emb, delta, window):
    """Stride-one scan with the library's per-window arithmetic."""
    claim_vec = claim_mean(claim_tokens, emb)
    claim_types = set(claim_tokens)
    token_vecs = np.stack([emb.vector(t) for t in article_tokens])
    width = min(window, len(article_tokens))
    best = None
    for start in range(len(article_tokens) - width + 1):
        window_types = set(article_tokens[start:start + width])
        bow = len(claim_types & window_types) / len(claim_types)
        mean = token_vecs[start:start + width].mean(axis=0)
        na = math.sqrt(float(np.dot(claim_vec, claim_vec)))
        nb = math.sqrt(float(np.dot(mean, mean)))
        semantic = 0.0 if na == 0.0 or nb == 0.0 \
            else float(np.dot(claim_vec, mean)) / (na * nb)
        if best is None or bow * semantic > best.score.sim:
            best = Snippet(article_tokens[start:start + width], start,
                           SnippetScore(bow, semantic, bow * semantic))
    return None if best.score.sim < delta else best


def snippet_bits(snip):
    if snip is None:
        return None
    score = snip.score
    return snip.tokens, snip.start, [float.hex(x) for x in
                                     (score.sim_bow, score.sim_semantic, score.sim)]


class TestExtractSnippet:
    def test_matches_exhaustive_oracle_on_random_articles(self):
        words = [f"v{i}" for i in range(30)]
        emb = toy_embeddings(words)
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            claim = [words[i] for i in rng.integers(0, len(words), size=4)]
            article = [words[i] for i in rng.integers(0, len(words), size=int(rng.integers(5, 60)))]
            got = extract_snippet(claim, article, emb, delta=0.0, window=8)
            start, sim = snippet_oracle(claim, article, emb, window=8)
            if got is None:
                # Both sides agree nothing clears the threshold.
                assert sim < 0.0
                continue
            assert got.start == start
            assert got.score.sim == pytest.approx(sim, abs=1e-9)
            checked += 1
        assert checked > 60

    def test_short_article_scored_whole(self):
        emb = toy_embeddings(["alpha", "beta"])
        snip = extract_snippet(["alpha"], ["alpha", "beta"], emb, delta=0.0)
        assert snip is not None
        assert snip.start == 0
        assert snip.tokens == ["alpha", "beta"]

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_raises(self, window):
        # Unchecked, a zero window scores NaN, which passes every delta,
        # and a negative one slices off the article's last token.
        emb = toy_embeddings(["alpha", "beta"])
        with pytest.raises(ContractError, match="window"):
            extract_snippet(["alpha"], ["alpha", "beta"], emb, delta=0.0, window=window)

    def test_earliest_window_wins_ties(self):
        emb = toy_embeddings(["alpha", "x"])
        snip = extract_snippet(["alpha"], ["alpha", "x", "alpha"], emb,
                               delta=0.0, window=1)
        assert snip.start == 0
        assert snip.score.sim == pytest.approx(1.0)

    def test_perfect_window_scores_one(self):
        emb = toy_embeddings(["alpha", "beta", "gamma", "junk"])
        claim = ["alpha", "beta"]
        article = ["junk", "junk", "alpha", "beta", "junk"]
        snip = extract_snippet(claim, article, emb, delta=0.0, window=2)
        assert snip.start == 2
        assert snip.score.sim_bow == 1.0
        assert snip.score.sim == pytest.approx(
            snip.score.sim_bow * snip.score.sim_semantic)

    def test_nan_delta_raises_and_infinite_deltas_keep_their_meaning(self):
        # NaN < delta is false for every window, so an unchecked NaN would
        # keep every article.
        emb = toy_embeddings(["alpha", "junk"])
        with pytest.raises(ContractError, match="delta"):
            extract_snippet(["alpha"], ["alpha", "junk"], emb, delta=float("nan"))
        with pytest.raises(ContractError, match="delta"):
            extract_snippet(["alpha"], [], emb, delta=float("nan"))
        assert extract_snippet(["alpha"], ["alpha"], emb, delta=math.inf) is None
        assert extract_snippet(["alpha"], ["junk"], emb, delta=-math.inf) is not None

    def test_below_threshold_returns_none(self):
        emb = toy_embeddings(["alpha", "junk"])
        assert extract_snippet(["alpha"], ["junk", "junk"], emb, delta=0.5) is None

    def test_empty_article_returns_none(self):
        emb = toy_embeddings(["alpha"])
        assert extract_snippet(["alpha"], [], emb) is None

    def test_empty_claim_raises(self):
        emb = toy_embeddings(["alpha"])
        with pytest.raises(DegenerateInputError):
            extract_snippet([], ["alpha"], emb)

    def test_all_oov_claim_has_zero_semantic_score(self):
        emb = toy_embeddings(["alpha"])
        snip = extract_snippet(["ghost"], ["alpha", "ghost"], emb, delta=0.0)
        assert snip.score.sim_semantic == 0.0
        assert snip.score.sim == 0.0

    def test_equals_a_plain_scan_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data())
        def check(data):
            words = [f"w{i}" for i in range(data.draw(st.integers(3, 8)))]
            known = words[: data.draw(st.integers(1, len(words)))]
            dim = data.draw(st.integers(1, 5))
            dtype = data.draw(st.sampled_from([np.float64, np.float32]))
            # Tenths are inexact in binary, so windows holding the same words
            # in another order tie exactly in value but not after rounding.
            value = st.one_of(st.integers(-20, 20).map(lambda k: k / 10),
                              st.floats(-4.0, 4.0, allow_subnormal=False))
            vectors = np.array(data.draw(st.lists(st.lists(value, min_size=dim,
                                                           max_size=dim),
                                                  min_size=len(known),
                                                  max_size=len(known))),
                               dtype=dtype)
            emb = WordEmbeddings(Vocabulary(known), vectors)
            article = data.draw(st.lists(st.sampled_from(words), min_size=1,
                                         max_size=60))
            claim = data.draw(st.lists(st.sampled_from(words + ["ghost"]),
                                       min_size=1, max_size=5))
            window = data.draw(st.integers(1, len(article) + 3))
            best = plain_scan(claim, article, emb, -np.inf, window).score.sim
            delta = data.draw(st.sampled_from([
                best, np.nextafter(best, -np.inf), np.nextafter(best, np.inf),
                best - 0.5, best + 0.5]))
            got = extract_snippet(claim, article, emb, delta=float(delta),
                                  window=window)
            want = plain_scan(claim, article, emb, float(delta), window)
            assert snippet_bits(got) == snippet_bits(want)

        check()

    def test_cosine_above_one_from_underflow_keeps_its_window(self):
        # The squares of the word's components round into the subnormal
        # range, so the computed cosine exceeds 1; no ceiling may drop it.
        word = np.array([2.5, 1.5, 1.5, 1.5, 1.5]) * 1e-162
        emb = WordEmbeddings(Vocabulary(["a", "b"]), np.array([word, word * 2.0**501]))
        snip = extract_snippet(["a", "b"], ["x", "a"], emb, delta=0.6, window=1)
        assert snippet_bits(snip) == snippet_bits(
            plain_scan(["a", "b"], ["x", "a"], emb, 0.6, 1))
        assert snip.start == 1 and snip.score.sim_semantic > 1
        assert snip.score.sim == 0.8784410001440744

    def test_cosine_above_one_from_a_tiny_claim_mean_keeps_its_window(self):
        # Every vector component passes the ceiling's guard on the matrix,
        # but the claim's two words cancel and 623 unknown words shrink the
        # mean until the squares of its float32 components are subnormal and
        # round down, so the computed cosine exceeds the ceiling C of
        # ``_cosine_ceiling``; no ceiling may drop the window.
        unit = np.array([3.0, 2.0, 2.0, 2.0, 2.0]) * 2.0**-61
        vectors = np.array([(2**22 + 1) * unit, -(2**22) * unit], dtype=np.float32)
        emb = WordEmbeddings(Vocabulary(["a", "b"]), vectors)
        claim = ["a", "b"] + ["ghost"] * 623
        snip = extract_snippet(claim, ["a"], emb, delta=0.0, window=1)
        assert snippet_bits(snip) == snippet_bits(plain_scan(claim, ["a"], emb, 0.0, 1))
        ceiling = 1 + 4 * corpus_mod._gamma(3 * 5, 2.0**-24) + 8 * 2.0**-53
        assert snip.start == 0 and snip.score.sim_semantic > ceiling

    def test_equals_a_plain_scan_when_products_underflow(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data())
        def check(data):
            words = [f"w{i}" for i in range(data.draw(st.integers(2, 6)))]
            dim = data.draw(st.integers(1, 5))
            dtype = data.draw(st.sampled_from([np.float64, np.float32]))
            # Squares of components near these scales are subnormal.
            tiny = 2.0**-530 if dtype is np.float64 else 2.0**-70
            rows = data.draw(st.lists(st.lists(st.floats(-4.0, 4.0, allow_subnormal=False),
                                               min_size=dim, max_size=dim),
                                      min_size=len(words), max_size=len(words)))
            scales = data.draw(st.lists(st.sampled_from([1.0, tiny, tiny / 64]),
                                        min_size=len(words), max_size=len(words)))
            vectors = (np.array(rows) * np.array(scales)[:, None]).astype(dtype)
            emb = WordEmbeddings(Vocabulary(words), vectors)
            article = data.draw(st.lists(st.sampled_from(words + ["ghost"]),
                                         min_size=1, max_size=40))
            claim = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
            window = data.draw(st.integers(1, len(article) + 2))
            best = plain_scan(claim, article, emb, -np.inf, window).score.sim
            delta = data.draw(st.sampled_from([best, np.nextafter(best, -np.inf),
                                               np.nextafter(best, np.inf)]))
            got = extract_snippet(claim, article, emb, delta=float(delta), window=window)
            want = plain_scan(claim, article, emb, float(delta), window)
            assert snippet_bits(got) == snippet_bits(want)

        check()

    @pytest.mark.parametrize("case", ["5,462 float32 columns", "huge claim words",
                                      "huge article words"])
    def test_equals_a_plain_scan_when_a_guard_fails(self, monkeypatch, case):
        # Each case fails one guard of the screen's proofs: 3 d v <= 2^-10 in
        # ``_cosine_ceiling``, then in ``_candidate_starts`` the bound on the
        # claim vector's norm and the one on the row norms of its chunk.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        claim = words[:4]
        if case == "5,462 float32 columns":
            vectors = rng.standard_normal((30, 5462)).astype(np.float32)
        else:
            vectors = rng.standard_normal((30, 8))
            if case == "huge claim words":
                vectors[:4] *= 3e152
            else:
                vectors[4:] *= 1e152
        emb = WordEmbeddings(Vocabulary(words), vectors)
        article = [words[i] for i in rng.integers(0, 30, size=120)]
        screened, candidate_starts = [], corpus_mod._candidate_starts

        def spy(claim_vec, chunks, bow, live, width):
            starts = candidate_starts(claim_vec, chunks, bow, live, width)
            screened.append((starts, np.flatnonzero(live).tolist()))
            return starts

        monkeypatch.setattr(corpus_mod, "_candidate_starts", spy)
        snip = extract_snippet(claim, article, emb, delta=0.0, window=20)
        assert snip is not None
        assert snippet_bits(snip) == snippet_bits(plain_scan(claim, article, emb, 0.0, 20))
        [(starts, live)] = screened
        if case == "5,462 float32 columns":
            # No ceiling: every window is live, and the screen still prunes.
            assert corpus_mod._cosine_ceiling(claim_mean(claim, emb), emb, 20) is None
            narrow = WordEmbeddings(Vocabulary(words), vectors[:, :5461])
            assert corpus_mod._cosine_ceiling(claim_mean(claim, narrow), narrow, 20) is not None
            assert len(live) == 101 and len(starts) < 10
        else:
            assert starts == live == list(range(101))  # every window rescored

    def test_windows_below_the_floor_get_no_vector_work(self, monkeypatch):
        emb = toy_embeddings(["alpha", "beta", "gamma", "delta", "junk"])
        gathered, rescored = [], []
        matrix_for, window_score = WordEmbeddings.matrix_for, corpus_mod._window_score
        monkeypatch.setattr(WordEmbeddings, "matrix_for",
                            lambda self, tokens: gathered.append(len(tokens))
                            or matrix_for(self, tokens))
        monkeypatch.setattr(corpus_mod, "_window_score",
                            lambda *args: rescored.append(args[4])
                            or window_score(*args))
        claim = ["alpha", "beta", "gamma", "delta"]
        # At most a quarter of the claim words in any window, under delta 0.5.
        article = ["junk"] * 50 + ["alpha"] + ["junk"] * 50
        assert extract_snippet(claim, article, emb, delta=0.5, window=10) is None
        assert gathered == [] and rescored == []
        # Only windows near the one holding every claim word can reach the floor.
        article = ["junk"] * 300 + claim + ["junk"] * 300
        snip = extract_snippet(claim, article, emb, delta=0.5, window=10)
        assert snippet_bits(snip) == snippet_bits(plain_scan(claim, article, emb, 0.5, 10))
        assert sum(gathered) < 40 and len(rescored) < 10
        # Two such blocks 600 tokens apart: only the windows near each block
        # are gathered, one run at a time, and none from the gap between them.
        gathered.clear()
        rescored.clear()
        article = ["junk"] * 300 + claim + ["junk"] * 600 + claim + ["junk"] * 300
        snip = extract_snippet(claim, article, emb, delta=0.5, window=10)
        assert snippet_bits(snip) == snippet_bits(plain_scan(claim, article, emb, 0.5, 10))
        assert len(gathered) == 3 and max(gathered) < 20 and len(rescored) < 20

    def test_window_shares_equal_a_count_over_sets(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data())
        def check(data):
            # "ghost" is in no article and has no vector; claims repeat words.
            words = [f"w{i}" for i in range(data.draw(st.integers(1, 6)))]
            article = data.draw(st.lists(st.sampled_from(words), min_size=1,
                                         max_size=40))
            claim = data.draw(st.lists(st.sampled_from(words + ["ghost"]),
                                       min_size=1, max_size=6))
            types = set(claim)
            for width in range(1, len(article) + 1):
                want = [len(types & set(article[start : start + width])) / len(types)
                        for start in range(len(article) - width + 1)]
                got = corpus_mod._window_shares(types, article, width)
                assert [float.hex(x) for x in got] == [float.hex(x) for x in want]

        check()
        assert corpus_mod._window_shares({"a", "b"}, ["a"], 1).tolist() == [0.5]


class TestFolds:
    def make(self, n, seed=0, n_folds=10):
        instances, _ = planted_corpus(n_claims=n, n_articles=1)
        return make_folds(instances, seed, n_folds=n_folds), instances

    def test_partition_covers_everything_once(self):
        plan, instances = self.make(57)
        all_ids = {i.claim_id for i in instances}
        seen = list(plan.validation)
        for fold in plan.folds:
            seen.extend(fold)
        assert sorted(seen) == sorted(all_ids)
        assert len(seen) == len(all_ids)

    def test_validation_size_rounds(self):
        plan, _ = self.make(57)
        assert len(plan.validation) == 6
        plan, _ = self.make(14, n_folds=2)
        assert len(plan.validation) == 1

    def test_fold_sizes_differ_by_at_most_one(self):
        plan, _ = self.make(57)
        sizes = [len(f) for f in plan.folds]
        assert len(plan.folds) == 10
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 57 - 6

    def test_same_seed_same_plan(self):
        p1, _ = self.make(40, seed=9)
        p2, _ = self.make(40, seed=9)
        p3, _ = self.make(40, seed=10)
        assert p1.folds == p2.folds and p1.validation == p2.validation
        assert p1.folds != p3.folds

    def test_train_and_test_ids_are_complementary(self):
        plan, instances = self.make(40)
        pool = {i.claim_id for i in instances} - set(plan.validation)
        for fold in range(plan.n_folds):
            train = set(plan.train_ids(fold))
            test = set(plan.test_ids(fold))
            assert train | test == pool
            assert train & test == set()

    @pytest.mark.parametrize("n_folds", [1, 0, -2])
    def test_fewer_than_two_folds_raise(self, n_folds):
        with pytest.raises(ContractError, match="at least 2 folds"):
            self.make(40, n_folds=n_folds)

    def test_negative_seed_raises(self):
        with pytest.raises(ContractError, match="non-negative"):
            self.make(40, seed=-1)

    def test_too_few_claims_raise(self):
        instances, _ = planted_corpus(n_claims=8, n_articles=1)
        with pytest.raises(DegenerateInputError):
            make_folds(instances, seed=0, n_folds=10)


def test_source_counts_split_by_role():
    instances, _ = planted_corpus(n_claims=10, n_articles=2,
                                  with_claim_sources=True)
    claim_counter, article_counter = source_counts(instances)
    assert sum(claim_counter.values()) == 10
    assert sum(article_counter.values()) == 20
    assert set(article_counter) <= {"siteA", "siteB", "siteC", "siteD"}


def test_fold_plan_accepts_prebuilt_lists():
    plan = FoldPlan(folds=[["a"], ["b", "c"]], validation=["v"])
    assert plan.n_folds == 2
    assert plan.train_ids(0) == ["b", "c"]
