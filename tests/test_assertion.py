import dataclasses
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail.assertion import (
    AssertionLabel,
    PrecomputedClassifier,
    RuleClassifier,
    RuleConfig,
    evaluate,
    load_gold_labels,
    read_classification_responses,
    write_classification_requests,
    write_gold_labels,
)
from phenotrail.errors import InputError
from phenotrail.lexicon import build_matcher, load_default_lexicon

from oracles import classify_oracle

Y, N, M, O = (AssertionLabel.YES, AssertionLabel.NO,
              AssertionLabel.MAYBE, AssertionLabel.OTHER)


@pytest.fixture(scope="module")
def matcher():
    return build_matcher(load_default_lexicon())


@pytest.fixture(scope="module")
def classifier():
    return RuleClassifier()


def classify(classifier, matcher, sentence, term=None):
    mentions = matcher.find_mentions(sentence)
    assert mentions, sentence
    if term is not None:
        mentions = [m for m in mentions if m.term == term]
        assert mentions, (sentence, term)
    label, confidence = classifier.classify(sentence, (mentions[0].start, mentions[0].end))
    assert confidence == 1.0
    return label


class TestRuleClassifier:
    def test_direct_negation(self, classifier, matcher):
        assert classify(classifier, matcher, "Patient denies fever.") is N

    def test_uncertainty(self, classifier, matcher):
        label = classify(classifier, matcher, "Concern for possible covid with cough", "cough")
        assert label is M

    def test_attribution_beats_affirmation(self, classifier, matcher):
        label = classify(classifier, matcher, "Family history: mother with diarrhea")
        assert label is O

    def test_scope_breaker_isolates_windows(self, classifier, matcher):
        sentence = "Reports fever but denies cough."
        assert classify(classifier, matcher, sentence, "fever") is Y
        assert classify(classifier, matcher, sentence, "cough") is N

    def test_semicolon_breaks_scope(self, classifier, matcher):
        sentence = "No vomiting; fever this morning."
        assert classify(classifier, matcher, sentence, "fever") is Y
        assert classify(classifier, matcher, sentence, "vomiting") is N

    def test_default_is_yes(self, classifier, matcher):
        assert classify(classifier, matcher, "Patient reports fever today.") is Y

    def test_negation_window_limit(self, classifier, matcher):
        # cue 7 word-tokens before the mention: outside the 6-token window
        sentence = "Denies a b c d e f g fever."
        assert classify(classifier, matcher, sentence) is Y
        sentence = "Denies b c d e f fever."
        assert classify(classifier, matcher, sentence) is N

    def test_after_window(self, classifier, matcher):
        assert classify(classifier, matcher, "Fever was denied by patient.") is N
        assert classify(classifier, matcher, "Fever in mother recently.") is O
        # 3-token after-window: the 4th token cannot fire
        assert classify(classifier, matcher, "Fever noted early this morning, possibly.") is Y

    def test_multiword_cues(self, classifier, matcher):
        assert classify(classifier, matcher, "Negative for fever at triage.") is N
        assert classify(classifier, matcher, "Cannot rule out fever.") is M
        assert classify(classifier, matcher, "r/o fever at admission.") is M

    def test_precedence_other_over_no(self, classifier, matcher):
        label = classify(classifier, matcher, "Mother denies fever.")
        assert label is O

    def test_precedence_no_over_maybe(self, classifier, matcher):
        label = classify(classifier, matcher, "denies possible fever")
        assert label is N

    def test_cue_inside_mention_does_not_fire(self, classifier, matcher):
        # "no appetite" is itself a lexicon phrase; the leading "no" is part
        # of the mention, not its context window.
        label = classify(classifier, matcher, "Patient reports no appetite today.",
                         "no appetite")
        assert label is Y

    def test_invariant_outside_window_text_ignored(self, classifier, matcher):
        base = "x1 x2 x3 x4 x5 x6 fever y1 y2 y3"
        padded = "far away words that should never matter " + base + " trailing tail"
        sentence_label = classify(classifier, matcher, base)
        padded_label = classify(classifier, matcher, padded)
        assert sentence_label is padded_label is Y

    def test_span_validation(self, classifier):
        with pytest.raises(InputError):
            classifier.classify("short", (2, 99))

    def test_config_override(self, matcher):
        config = RuleConfig.from_dict({
            "window_before": 1,
            "window_after": 0,
            "scope_breakers": [],
            "negation_cues": ["zonk"],
            "uncertainty_cues": [],
            "attribution_cues": [],
        })
        clf = RuleClassifier(config)
        mention = matcher.find_mentions("zonk fever")[0]
        assert clf.classify("zonk fever", (mention.start, mention.end)) == (N, 1.0)
        mention = matcher.find_mentions("denies fever")[0]
        assert clf.classify("denies fever", (mention.start, mention.end)) == (Y, 1.0)

    @pytest.mark.parametrize("before, after, expected", [
        (6, 3, (N, N)), (6, 0, (N, Y)), (0, 3, (Y, N)), (0, 0, (Y, Y))])
    def test_window_of_zero_switches_side_off(self, matcher, before, after, expected):
        config = dataclasses.replace(
            RuleConfig.load(), window_before=before, window_after=after)
        clf = RuleClassifier(config)
        labels = []
        for sentence in ("Denies cough today.", "Cough denied today."):
            mention = matcher.find_mentions(sentence)[0]
            labels.append(clf.classify(sentence, (mention.start, mention.end))[0])
        assert tuple(labels) == expected

    @pytest.mark.parametrize("side", ["window_before", "window_after"])
    def test_negative_window_rejected(self, side):
        raw = {
            "window_before": 6,
            "window_after": 3,
            "scope_breakers": [],
            "negation_cues": ["no"],
            "uncertainty_cues": [],
            "attribution_cues": [],
        }
        with pytest.raises(InputError, match=f"{side} must be >= 0"):
            RuleConfig.from_dict({**raw, side: -1})

    def test_cue_without_tokens_rejected(self):
        with pytest.raises(InputError, match="has no tokens"):
            RuleConfig.from_dict({
                "window_before": 6,
                "window_after": 3,
                "scope_breakers": [],
                "negation_cues": ["no", "--"],
                "uncertainty_cues": [],
                "attribution_cues": [],
            })


class TestClassifierOracle:
    # Cues whose later words also occur alone, scope breakers, and words
    # that are no cue's first token.
    CUE_WORDS = ["negative for", "cannot rule out", "r/o", "R/O", "Denies", "no",
                 "possible", "family history", "mother", "concern for"]
    LOOSE_WORDS = ["for", "out", "rule", "cannot", "negative", "history", "o",
                   "but", "however", ";", "although"]
    PLAIN_WORDS = ["patient", "reports", "today", "with", "x", "fever", "cough",
                   "chills", "sore throat", "headache", "and", "since", "yesterday"]

    def random_sentence(self, rng):
        pools = [self.PLAIN_WORDS]
        if rng.random() < 0.7:
            pools += [self.CUE_WORDS, self.LOOSE_WORDS]
        words = [rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 14))]
        return " ".join(words) + rng.choice(["", ".", ";"])

    @pytest.mark.parametrize("window", [None, (1, 0), (2, 1), (0, 2)])
    def test_randomized_sentences_match_oracle(self, matcher, window):
        config = RuleConfig.load()
        if window is not None:
            config = dataclasses.replace(
                config, window_before=window[0], window_after=window[1])
        clf = RuleClassifier(config)
        rng = random.Random(20201017)
        checked = 0
        for _ in range(3000):
            sentence = self.random_sentence(rng)
            for mention in matcher.find_mentions(sentence):
                span = (mention.start, mention.end)
                expected = AssertionLabel(classify_oracle(sentence, span, config))
                assert clf.classify(sentence, span) == (expected, 1.0), (sentence, span)
                checked += 1
        assert checked > 2000

    # "but" is a cue that is also a scope breaker; "; denied" starts with
    # ";", which is a plain token when it breaks no scope.
    @pytest.mark.parametrize("breakers", [["but", ";"], ["but"]])
    @pytest.mark.parametrize("window", [(6, 3), (2, 2), (1, 0), (0, 2)])
    def test_multiword_cues_at_breakers_and_window_edges(self, window, breakers):
        config = RuleConfig.from_dict({
            "window_before": window[0],
            "window_after": window[1],
            "scope_breakers": breakers,
            "negation_cues": ["negative for", "no evidence of", "no", "; denied"],
            "uncertainty_cues": ["cannot rule out", "r/o", "but"],
            "attribution_cues": ["family history of"],
        })
        clf = RuleClassifier(config)
        cues = ["negative for", "No Evidence  of", "cannot rule out", "r/o",
                "family history of", "evidence of", "; Denied"]
        checked = 0
        for cue, gap, breaker, where, side, glue, lead in itertools.product(
                cues, range(5), ("but", ";"), ("before", "inside", "after", None),
                ("before", "after"), (" ", ""), ("x", "\u0130")):
            cue_tokens = cue.split(" ")
            if where == "before":
                cue_tokens = [breaker] + cue_tokens
            elif where == "inside":
                cue_tokens.insert(1, breaker)
            elif where == "after":
                cue_tokens = cue_tokens + [breaker]
            filler = ["w"] * gap
            if side == "before":
                head, tail = [lead] + cue_tokens + filler, ["y"]
            else:
                head, tail = [lead], filler + cue_tokens + ["y"]
            sentence = " ".join(head + ["fever"] + tail).replace(" ;", glue + ";")
            start = sentence.index("fever")
            # Spans on the mention's token and spans that cut into it.
            for span in ((start, start + 5), (start + 1, start + 4), (start, start + 2)):
                expected = AssertionLabel(classify_oracle(sentence, span, config))
                assert clf.classify(sentence, span) == (expected, 1.0), (sentence, span)
                checked += 1
        assert checked == 7 * 5 * 2 * 4 * 2 * 2 * 2 * 3


class TestEvaluate:
    def test_identity(self):
        metrics = evaluate([Y, N, M, O, Y], [Y, N, M, O, Y])
        assert metrics.accuracy == 1.0
        assert metrics.tpr == 1.0 and metrics.fpr == 0.0 and metrics.fnr == 0.0
        for precision, recall, f1 in metrics.per_label.values():
            assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_confusion(self):
        metrics = evaluate([Y, Y, N, O], [Y, N, N, O])
        assert metrics.accuracy == 0.75
        precision, recall, f1 = metrics.per_label[Y]
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2 / 3)
        assert metrics.tpr == 0.5
        assert metrics.fpr == 0.0
        assert metrics.fnr == 0.5

    def test_total_inversion(self):
        metrics = evaluate([Y, N], [N, Y])
        assert metrics.accuracy == 0.0
        assert metrics.tpr == 0.0
        assert metrics.fpr == 1.0

    def test_errors(self):
        with pytest.raises(InputError):
            evaluate([Y], [Y, N])
        with pytest.raises(InputError):
            evaluate([], [])

    @given(st.lists(st.sampled_from([Y, N, M, O]), min_size=1, max_size=60),
           st.data())
    @settings(max_examples=200)
    def test_metric_properties(self, gold, data):
        predicted = data.draw(
            st.lists(st.sampled_from([Y, N, M, O]),
                     min_size=len(gold), max_size=len(gold))
        )
        metrics = evaluate(gold, predicted)
        assert 0.0 <= metrics.accuracy <= 1.0
        for rate in (metrics.tpr, metrics.fpr, metrics.fnr):
            assert 0.0 <= rate <= 1.0
        diagonal = sum(1 for g, p in zip(gold, predicted) if g == p)
        assert metrics.accuracy == diagonal / len(gold)
        if any(g is Y for g in gold):
            assert metrics.tpr + metrics.fnr == pytest.approx(1.0)
        for label in set(gold):
            precision, recall, f1 = metrics.per_label[label]
            assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0
            if precision + recall:
                assert f1 == pytest.approx(
                    2 * precision * recall / (precision + recall))
            else:
                assert f1 == 0.0


class TestBatchProtocol:
    def test_roundtrip(self):
        tasks = [("Denies fever.", 7, 12), ("Has cough.", 4, 9)]
        buffer = io.StringIO()
        assert write_classification_requests(tasks, buffer) == 2
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 2

        responses = io.StringIO(
            '{"label": "NO", "confidence": 1.0}\n'
            '{"label": "yes", "confidence": 0.75}\n'
        )
        parsed = read_classification_responses(responses, expected=2)
        assert parsed == [(N, 1.0), (Y, 0.75)]

    def test_count_mismatch(self):
        with pytest.raises(InputError, match="expected 2"):
            read_classification_responses(
                io.StringIO('{"label": "NO", "confidence": 1.0}\n'), expected=2
            )

    def test_bad_payloads(self):
        with pytest.raises(InputError, match="label"):
            read_classification_responses(
                io.StringIO('{"label": "NOPE", "confidence": 1.0}\n'), expected=1)
        with pytest.raises(InputError, match="confidence"):
            read_classification_responses(
                io.StringIO('{"label": "NO"}\n'), expected=1)
        with pytest.raises(InputError, match="outside"):
            read_classification_responses(
                io.StringIO('{"label": "NO", "confidence": 1.5}\n'), expected=1)

    def test_precomputed_classifier_replays_in_order(self):
        clf = PrecomputedClassifier([(N, 1.0), (Y, 0.5)])
        assert clf.classify("any", (0, 1)) == (N, 1.0)
        assert clf.classify("any", (0, 1)) == (Y, 0.5)
        with pytest.raises(InputError, match="exhausted"):
            clf.classify("any", (0, 1))


class TestGoldLabels:
    def test_roundtrip(self):
        rows = [("n1:0", 0, Y), ("n1:1", 0, N), ("n2:0", 1, O)]
        buffer = io.StringIO()
        write_gold_labels(rows, buffer)
        buffer.seek(0)
        assert load_gold_labels(buffer) == {
            ("n1:0", 0): Y, ("n1:1", 0): N, ("n2:0", 1): O,
        }

    def test_validation(self):
        with pytest.raises(InputError, match="header"):
            load_gold_labels(io.StringIO("a,b,c\n"))
        with pytest.raises(InputError, match="label"):
            load_gold_labels(io.StringIO("sentence_id,mention_index,label\ns,0,BAD\n"))
        with pytest.raises(InputError, match="duplicate"):
            load_gold_labels(io.StringIO(
                "sentence_id,mention_index,label\ns,0,YES\ns,0,NO\n"))
