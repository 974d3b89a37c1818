import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail.errors import InputError
from phenotrail.lexicon import (
    Lexicon,
    PhenotypeGroup,
    build_matcher,
    load_default_lexicon,
    load_lexicon,
    normalize_term,
)

from oracles import matcher_oracle


@pytest.fixture(scope="module")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="module")
def matcher(lexicon):
    return build_matcher(lexicon)


def make_lexicon(rows):
    text = "group_id,term\n" + "".join(f"{g},{t}\n" for g, t in rows)
    return load_lexicon(io.StringIO(text))


class TestLoadLexicon:
    def test_unnormalized_terms_rejected(self):
        for raw in ("Sore throat", "sore  throat", " cough", "cough.", ""):
            with pytest.raises(InputError, match="not normalized"):
                Lexicon([PhenotypeGroup("g", "G", (raw,))])

    def test_default_lexicon_shape(self, lexicon):
        assert len(lexicon.groups) == 26
        by_id = {g.group_id: g for g in lexicon.groups}
        assert len(by_id["diarrhea"].terms) == 9
        assert "loose stools" in by_id["diarrhea"].terms
        assert "watery bm" in by_id["diarrhea"].terms
        assert "dysuria" in by_id
        assert by_id["fever_chills"].display_name == "Fever / chills"

    def test_cross_listed_terms(self, lexicon):
        assert lexicon.term_index["cold"] == {"myalgia_arthralgia", "generalized_symptoms"}
        assert lexicon.term_index["vomiting diarrhea"] == {"diarrhea", "gi_upset"}
        assert lexicon.term_index["congestion rhinorrhea"] == {"congestion", "rhinitis"}

    def test_matcher_pattern_count(self, matcher):
        assert matcher.pattern_count >= 146
        assert matcher.pattern_count == 195  # shipped lexicon, deduplicated

    def test_term_index_covers_exactly_group_terms(self, lexicon):
        union = {t for g in lexicon.groups for t in g.terms}
        assert set(lexicon.term_index) == union
        for term, groups in lexicon.term_index.items():
            assert groups
            for gid in groups:
                group = next(g for g in lexicon.groups if g.group_id == gid)
                assert term in group.terms

    def test_minimal_lexicon(self):
        lex = make_lexicon([("only", "solo term")])
        assert len(lex.term_index) == 1
        assert lex.term_index["solo term"] == {"only"}
        assert lex.display_names["only"] == "only"

    def test_empty_file(self):
        with pytest.raises(InputError, match="empty"):
            load_lexicon(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            load_lexicon(io.StringIO("phenotype,synonym\nx,y\n"))

    def test_empty_term_reports_line(self):
        with pytest.raises(InputError, match="line 3"):
            make_lexicon([("a", "fine"), ("a", "  !! ")])

    def test_empty_group_id(self):
        with pytest.raises(InputError, match="group_id"):
            make_lexicon([("", "term")])

    def test_duplicate_record(self):
        with pytest.raises(InputError, match="duplicate"):
            make_lexicon([("a", "fever"), ("a", "FEVER")])

    def test_malformed_record(self):
        with pytest.raises(InputError, match="line 2"):
            load_lexicon(io.StringIO("group_id,term\na,b,c\n"))


class TestNormalization:
    def test_examples(self):
        assert normalize_term("  Loose   Stools ") == "loose stools"
        assert normalize_term("(fever)") == "fever"
        assert normalize_term("anosmia/dysgeusia") == "anosmia/dysgeusia"
        assert normalize_term("HA's") == "ha's"

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        once = normalize_term(raw)
        assert normalize_term(once) == once


class TestFindMentions:
    def test_sob_and_fever(self, matcher):
        found = {(m.term, frozenset(m.group_ids))
                 for m in matcher.find_mentions("Patient reports SOB and fever.")}
        assert found == {
            ("sob", frozenset({"respiratory_difficulty"})),
            ("fever", frozenset({"fever_chills"})),
        }

    def test_cross_listed_single_mention(self, matcher):
        mentions = matcher.find_mentions("Patient had vomiting diarrhea overnight.")
        assert len(mentions) == 1
        assert mentions[0].term == "vomiting diarrhea"
        assert mentions[0].group_ids == {"diarrhea", "gi_upset"}

    def test_empty_sentence(self, matcher):
        assert matcher.find_mentions("") == []

    def test_no_match_inside_words(self, matcher):
        assert matcher.find_mentions("He handed the chart over.") == []
        assert matcher.find_mentions("The car crashed badly.") == []
        assert matcher.find_mentions("Recovering from the crash.") == []

    def test_caps_rule(self, matcher):
        assert matcher.find_mentions("Complains of HA tonight.")
        assert matcher.find_mentions("Complains of ha tonight.") == []
        assert matcher.find_mentions("Complains of Ha tonight.") == []
        # length > 3 terms stay case-insensitive
        assert matcher.find_mentions("COMPLAINS OF FEVER.")

    def test_longest_match_wins(self, matcher):
        mentions = matcher.find_mentions("nausea vomiting abdominal pain since 2 am")
        assert [m.term for m in mentions] == ["nausea vomiting abdominal pain"]

    def test_spans_index_original_text(self, matcher):
        sentence = "Today:  tactile   fever  was noted"
        mentions = matcher.find_mentions(sentence)
        assert len(mentions) == 1
        m = mentions[0]
        assert sentence[m.start:m.end] == "tactile   fever"

    def test_mention_invariants(self, matcher):
        sentence = "Reports fever, chills and a dry cough."
        for m in matcher.find_mentions(sentence):
            assert 0 <= m.start < m.end <= len(sentence)
            assert m.group_ids

    def test_matcher_is_deterministic(self, lexicon):
        first = build_matcher(lexicon)
        second = build_matcher(lexicon)
        sentence = "fever and chills with watery diarrhea and a dry cough"
        assert first.find_mentions(sentence) == second.find_mentions(sentence)

    def test_independent_of_group_order(self, lexicon):
        rows = [(g.group_id, t) for g in lexicon.groups for t in g.terms]
        rng = random.Random(7)
        rng.shuffle(rows)
        shuffled = make_lexicon(rows)
        m1 = build_matcher(lexicon)
        m2 = build_matcher(shuffled)
        for sentence in [
            "Patient reports fever and vomiting diarrhea.",
            "cold and weakness with sore throat",
            "congestion rhinorrhea present",
        ]:
            got1 = [(m.term, m.start, m.end, m.group_ids) for m in m1.find_mentions(sentence)]
            got2 = [(m.term, m.start, m.end, m.group_ids) for m in m2.find_mentions(sentence)]
            assert got1 == got2


def random_sentence(rng, terms):
    distractors = [
        "patient", "reports", "the", "over", "handed", "crashed", "rash",
        "Ha", "haundry", "soba", "and", "with", "today", "notable",
        "recovering", "charted", "fevers,", "overnight", "at", "home",
        "o'clock", "pt's", "'", "İ", "İll", "ſ", "ſore", "\u212a", "\u212aidney",
    ]
    # Mostly plain spaces; the rest are other whitespace and token joiners.
    joiners = [" "] * 6 + ["  ", "\t", "\n", " \t ", "-", "/", "'"]
    parts = []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.4:
            term = rng.choice(terms)
            if rng.random() < 0.2:
                term = term.upper()
            elif rng.random() < 0.2:
                term = term.title()
            elif rng.random() < 0.2:
                term = term.replace(" ", rng.choice(joiners))
            parts.append(term)
        else:
            parts.append(rng.choice(distractors))
    sentence = parts[0]
    for part in parts[1:]:
        sentence += rng.choice(joiners) + part
    if rng.random() < 0.3:
        sentence += rng.choice([".", "!", " ?"])
    return sentence


class TestOracleAgreement:
    def test_randomized_sentences_match_oracle(self, lexicon, matcher):
        rng = random.Random(20200315)
        terms = sorted(lexicon.term_index)
        for _ in range(5000):
            sentence = random_sentence(rng, terms)
            got = [(m.start, m.end, m.term, m.group_ids)
                   for m in matcher.find_mentions(sentence)]
            expected = matcher_oracle(sentence, lexicon.term_index, lexicon.caps_required)
            assert got == expected, sentence

    def test_caps_term_extending_plain_term(self):
        # "H A" (caps only) and "h" share their first word run; where the
        # longer term fails its case check the shorter one must still win,
        # and a term starting inside the rejected span ("a b") must still
        # be found.
        lexicon = make_lexicon([("g1", "h"), ("g2", "H A"), ("g3", "a b"),
                                ("g4", "HA"), ("g5", "b")])
        assert lexicon.caps_required == {"h a", "ha"}
        matcher = build_matcher(lexicon)
        terms = lambda sentence: [m.term for m in matcher.find_mentions(sentence)]
        assert terms("h a") == ["h"]
        assert terms("H A") == ["h a"]
        assert terms("h a b") == ["h", "a b"]
        assert terms("HA h a b HA ha") == ["ha", "h", "a b", "ha"]
        rng = random.Random(4)
        words = ["h", "H", "a", "A", "b", "B", "ha", "HA", "Ha", "x", "h'", "İ"]
        for _ in range(2000):
            sentence = rng.choice(words)
            for _ in range(rng.randint(0, 7)):
                sentence += rng.choice([" ", " ", "  ", "\t", "-", ""]) + rng.choice(words)
            got = [(m.start, m.end, m.term, m.group_ids)
                   for m in matcher.find_mentions(sentence)]
            expected = matcher_oracle(sentence, lexicon.term_index, lexicon.caps_required)
            assert got == expected, sentence

    def test_every_term_in_carrier_sentence(self, lexicon, matcher):
        for term, groups in lexicon.term_index.items():
            surface = term.upper() if term in lexicon.caps_required else term
            sentence = f"patient reports {surface} today"
            mentions = [m for m in matcher.find_mentions(sentence) if m.term == term]
            assert mentions, term
            assert mentions[0].group_ids == groups
