"""Reference predictors and the ingestion queue."""

import pytest

from mmarch.predictors import (
    AssociativePredictor,
    IngestionQueue,
    NgramPredictor,
    Prediction,
)


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


class TestIngestionQueue:
    def _prediction(self, cycle, predictor, index):
        return Prediction(tag="t", predictor=predictor, produced_at_cycle=cycle,
                          emission_index=index, ctype="word",
                          slots=(("value", "x"),))

    def test_drain_empties_queue(self):
        queue = IngestionQueue()
        queue.push_prediction(self._prediction(0, "a", 0))
        predictions, raw = queue.drain()
        assert len(predictions) == 1 and raw == []
        assert queue.drain() == ([], [])

    def test_sort_key_orders_cycle_then_name_then_index(self):
        items = [self._prediction(1, "b", 0), self._prediction(0, "b", 1),
                 self._prediction(0, "a", 2), self._prediction(0, "b", 0)]
        ordered = sorted(items, key=lambda p: p.sort_key())
        assert [(p.produced_at_cycle, p.predictor, p.emission_index)
                for p in ordered] == [(0, "a", 2), (0, "b", 0), (0, "b", 1), (1, "b", 0)]

    def test_raw_messages_carry_arrival_order(self):
        queue = IngestionQueue()
        queue.push_raw("ext", 3, '{"type":"prediction"}')
        queue.push_raw("ext", 3, '{"type":"other"}')
        _, raw = queue.drain()
        assert [m.arrival_index for m in raw] == [0, 1]
        assert [m.produced_at_cycle for m in raw] == [3, 3]
