"""Reference predictors and the order their predictions are drained in."""

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import chunks
from mmarch.predictors import AssociativePredictor, NgramPredictor, Prediction


def _counts_oracle(corpus, context, order):
    """Independent count-based next-symbol oracle with suffix backoff."""
    tables = {}
    for seq in corpus:
        for i, nxt in enumerate(seq):
            for n in range(0, order + 1):
                if n > i:
                    break
                tables.setdefault(tuple(seq[i - n:i]), {}).setdefault(nxt, 0)
                tables[tuple(seq[i - n:i])][nxt] += 1
    seq = list(reversed(context))
    for n in range(min(order, len(seq)), -1, -1):
        key = tuple(seq[len(seq) - n:]) if n else ()
        if key in tables:
            bucket = tables[key]
            best = sorted(bucket.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            return best[0], best[1] / sum(bucket.values())
    return None


class TestNgram:
    corpus = [["a", "b", "a", "b", "a"]]

    def test_seen_context_predicts_continuation(self):
        p = NgramPredictor("n", "language", self.corpus, order=2)
        symbol, salience = p.predict(["a"])
        assert (symbol, salience) == ("b", 1.0)
        assert (symbol, salience) == _counts_oracle(self.corpus, ["a"], 2)

    def test_unseen_context_backs_off_to_unigram(self):
        p = NgramPredictor("n", "language", self.corpus, order=2)
        symbol, salience = p.predict(["z"])
        # unigram argmax: "a" occurs 3 times of 5
        assert symbol == "a"
        assert salience == pytest.approx(3 / 5)
        assert (symbol, salience) == _counts_oracle(self.corpus, ["z"], 2)

    def test_empty_context_uses_unigram(self):
        p = NgramPredictor("n", "language", self.corpus, order=2)
        assert p.predict([]) == _counts_oracle(self.corpus, [], 2)

    def test_empty_model_emits_nothing(self):
        p = NgramPredictor("n", "language", [], order=2)
        assert p.predict(["a"]) is None
        assert p.deliver(["a"], 0) == []

    def test_tie_breaks_lexicographically(self):
        p = NgramPredictor("n", "language", [["x", "m"], ["x", "k"]], order=1)
        symbol, salience = p.predict(["x"])
        assert symbol == "k"
        assert salience == pytest.approx(0.5)

    def test_longest_suffix_preferred(self):
        corpus = [["a", "b", "c"], ["b", "d"]]
        p = NgramPredictor("n", "language", corpus, order=2)
        # context (a, b) seen as a bigram context -> c, despite b -> d ties
        assert p.predict(["b", "a"])[0] == "c"  # most salient first

    def test_purity(self):
        p = NgramPredictor("n", "language", self.corpus, order=2)
        assert [p.predict(["a"]) for _ in range(3)] == [("b", 1.0)] * 3

    def test_deliver_wraps_emission_in_chunk_shape(self):
        p = NgramPredictor("n", "language", self.corpus, order=2,
                           emit_ctype="word", emit_slot="value")
        out = p.deliver(["a"], cycle=7)
        assert len(out) == 1
        em = out[0]
        assert em.tag == "language" and em.produced_at_cycle == 7
        assert em.ctype == "word" and em.slots == (("value", "b"),)
        assert em.salience == 1.0

    def test_rate_repeats_emission(self):
        p = NgramPredictor("n", "language", self.corpus, order=2, rate=3)
        out = p.deliver(["a"], cycle=0)
        assert [e.emission_index for e in out] == [0, 1, 2]
        silent = NgramPredictor("n", "language", self.corpus, order=2, rate=0)
        assert silent.deliver(["a"], 0) == []


class TestAssociative:
    def test_strongest_partner_with_normalized_salience(self):
        p = AssociativePredictor("a", "vision",
                                 [["dog", "bone", 3], ["dog", "cat", 1]])
        symbol, salience = p.predict(["dog"])
        assert symbol == "bone"
        assert salience == pytest.approx(0.75)  # 3 of 4 co-occurrences

    def test_disjoint_context_emits_nothing(self):
        p = AssociativePredictor("a", "vision", [["dog", "bone"]])
        assert p.predict(["fish"]) is None
        assert p.deliver(["fish"], 0) == []

    def test_tie_counts_break_lexicographically(self):
        p = AssociativePredictor("a", "vision",
                                 [["dog", "bone", 2], ["dog", "ball", 2]])
        assert p.predict(["dog"])[0] == "ball"

    def test_evidence_sums_across_context_symbols(self):
        p = AssociativePredictor("a", "vision",
                                 [["dog", "bone", 2], ["cat", "bone", 2],
                                  ["dog", "yarn", 3]])
        symbol, salience = p.predict(["dog", "cat"])
        assert symbol == "bone"  # 2 + 2 beats yarn's 3
        assert salience == pytest.approx(4 / 7)

    def test_purity(self):
        p = AssociativePredictor("a", "vision", [["dog", "bone", 3]])
        first = p.predict(["dog"])
        assert first == ("bone", 1.0)
        assert all(p.predict(["dog"]) == first for _ in range(3))


symbols = st.sampled_from("abcde")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), cap=st.sampled_from([chunks.MEMO_CAP, 1, 2, 3]),
       rate=st.integers(0, 2), ngram=st.booleans())
def test_remembered_answers_equal_a_fresh_predictors(data, cap, rate, ngram):
    """``deliver`` answers as ``predict`` of a predictor that has seen no
    context, for every context twice, the same symbols in other orders, and
    runs that clear the memo at a small cap."""
    if ngram:
        corpus = data.draw(st.lists(st.lists(symbols, max_size=6), max_size=4), label="corpus")
        order = data.draw(st.integers(0, 3), label="order")

        def build():
            return NgramPredictor("n", "language", corpus, order=order, rate=rate)
    else:
        pairs = data.draw(st.lists(st.one_of(
            st.tuples(symbols, symbols),
            st.tuples(symbols, symbols, st.integers(1, 3))), max_size=6), label="pairs")

        def build():
            return AssociativePredictor("a", "vision", pairs, rate=rate)
    contexts = []
    for context in data.draw(st.lists(st.lists(symbols, max_size=4), min_size=1, max_size=6),
                             label="contexts"):
        contexts += [context, data.draw(st.permutations(context), label="reordered")]
    contexts += contexts  # every context delivered again, after the others
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunks, "MEMO_CAP", cap)
        predictor = build()
        for cycle, context in enumerate(contexts):
            got = build().predict(context)
            expected = [] if got is None else [
                Prediction(tag=predictor.tag, predictor=predictor.name,
                           produced_at_cycle=cycle, emission_index=i, ctype="word",
                           slots=(("value", got[0]),), salience=got[1])
                for i in range(rate)]
            assert predictor.deliver(context, cycle) == expected
            assert predictor.deliver(list(context), cycle) == expected


def test_remembered_answers_tell_symbol_orders_apart():
    corpus = [["a", "b", "c"], ["b", "a", "d"]]
    p = NgramPredictor("n", "language", corpus, order=2)
    forward, backward = p.deliver(["b", "a"], 0), p.deliver(["a", "b"], 0)
    assert [e.slots for e in forward + backward] == [(("value", "c"),), (("value", "d"),)]


class TestIngestionQueue:
    def _prediction(self, cycle, predictor, index):
        return Prediction(tag="t", predictor=predictor, produced_at_cycle=cycle,
                          emission_index=index, ctype="word",
                          slots=(("value", "x"),))

    def test_sort_key_orders_cycle_then_name_then_index(self):
        items = [self._prediction(1, "b", 0), self._prediction(0, "b", 1),
                 self._prediction(0, "a", 2), self._prediction(0, "b", 0)]
        ordered = sorted(items, key=lambda p: p.sort_key())
        assert [(p.produced_at_cycle, p.predictor, p.emission_index)
                for p in ordered] == [(0, "a", 2), (0, "b", 0), (0, "b", 1), (1, "b", 0)]
