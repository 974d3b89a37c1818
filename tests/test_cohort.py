import io
import random
from datetime import date, timedelta

import pytest

from phenotrail.assertion import RuleClassifier
from phenotrail.cohort import (
    build_presence,
    check_window,
    daily_counts,
    load_presence_long_csv,
    pair_counts,
    segment_notes,
    window_counts,
    window_presence,
    write_presence_csv,
    write_presence_long_csv,
)
from phenotrail.errors import InputError
from phenotrail.lexicon import build_matcher, load_default_lexicon
from phenotrail.stats import daily_rows, enrichment_rows, pair_rows
from phenotrail.textproc import ClinicalNote, PatientRecord, fingerprint

PCR_DAY = date(2020, 3, 10)


@pytest.fixture(scope="module")
def matcher():
    return build_matcher(load_default_lexicon())


@pytest.fixture(scope="module")
def classifier():
    return RuleClassifier()


def note(patient, day, text, suffix="a"):
    return ClinicalNote(
        patient_id=patient,
        note_id=f"{patient}-{day}-{suffix}",
        date=PCR_DAY + timedelta(days=day),
        text=text,
    )


def roster(**kwargs):
    return {
        pid: PatientRecord(pid, PCR_DAY, result) for pid, result in kwargs.items()
    }


class TestBuildPresence:
    def test_single_affirmed_mention(self, matcher, classifier):
        patients = roster(p1="positive")
        table, rejects = build_presence(
            [note("p1", -3, "Patient reports fever.")], patients, matcher, classifier
        )
        assert rejects == []
        assert table.patients("fever_chills", -3) == {"p1"}
        assert table.cohort_sizes == {"positive": 1, "negative": 0}

    def test_denied_mention_excluded(self, matcher, classifier):
        patients = roster(p1="positive")
        table, _ = build_presence(
            [note("p1", -3, "Patient denies fever.")], patients, matcher, classifier
        )
        assert table.presence == {}

    def test_maybe_excluded_by_default_included_on_request(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [note("p1", -2, "Possible fever noted.")]
        table, _ = build_presence(notes, patients, matcher, classifier)
        assert table.presence == {}
        table, _ = build_presence(
            notes, patients, matcher, classifier, include_maybe=True
        )
        assert table.patients("fever_chills", -2) == {"p1"}

    def test_set_semantics_same_day(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [
            note("p1", -2, "Cough noted.", "a"),
            note("p1", -2, "Reports a dry cough tonight.", "b"),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        assert table.patients("cough", -2) == {"p1"}

    def test_unknown_patient_rejected_not_fatal(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [
            note("ghost", -1, "Fever."),
            note("p1", -1, "Fever."),
        ]
        table, rejects = build_presence(notes, patients, matcher, classifier)
        assert [r.note_id for r in rejects] == ["ghost--1-a"]
        assert "unknown patient_id" in rejects[0].reason
        assert table.patients("fever_chills", -1) == {"p1"}

    def test_day_range_excludes_distant_notes(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [note("p1", -20, "Fever."), note("p1", 3, "Fever.")]
        table, _ = build_presence(
            notes, patients, matcher, classifier, day_range=(-14, 14)
        )
        assert table.patients("fever_chills", -20) == set()
        assert table.patients("fever_chills", 3) == {"p1"}

    def test_template_sentences_dropped(self, matcher, classifier):
        patients = roster(p1="positive")
        template = "Call the clinic if fever develops."
        notes = [note("p1", -2, template)]
        table, _ = build_presence(
            notes, patients, matcher, classifier,
            templates={fingerprint(template)},
        )
        assert table.presence == {}

    def test_multi_group_mention_counts_everywhere(self, matcher, classifier):
        patients = roster(p1="positive")
        table, _ = build_presence(
            [note("p1", -4, "Had vomiting diarrhea this morning.")],
            patients, matcher, classifier,
        )
        assert table.patients("diarrhea", -4) == {"p1"}
        assert table.patients("gi_upset", -4) == {"p1"}

    def test_order_independence(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative", p3="negative")
        notes = [
            note("p1", -3, "Fever and cough."),
            note("p2", -3, "Denies fever but reports cough."),
            note("p3", 0, "Watery diarrhea overnight."),
            note("p2", -1, "Sore throat."),
        ]
        shuffled = notes[:]
        random.Random(3).shuffle(shuffled)
        t1, _ = build_presence(notes, patients, matcher, classifier)
        t2, _ = build_presence(shuffled, patients, matcher, classifier)
        assert t1.presence == t2.presence

    def test_worker_merge_identical(self, matcher, classifier):
        patients = {
            f"p{i}": PatientRecord(f"p{i}", PCR_DAY, "positive" if i % 3 else "negative")
            for i in range(40)
        }
        notes = []
        texts = [
            "Patient reports fever.",
            "Denies cough.",
            "Possible diarrhea.",
            "Sore throat and chills.",
            "No acute distress.",
        ]
        rng = random.Random(9)
        for i in range(3000):
            pid = f"p{rng.randint(0, 39)}"
            notes.append(note(pid, rng.randint(-7, 0), rng.choice(texts), suffix=str(i)))
        serial, _ = build_presence(notes, patients, matcher, classifier, workers=1)
        parallel, _ = build_presence(notes, patients, matcher, classifier, workers=2)
        assert serial.presence == parallel.presence

    def test_presegmented_notes(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -2, "Fever. Denies  Cough."), note("p2", -1, "Cough today.")]
        segmented = segment_notes(notes)
        assert segmented[0] == [("Fever.", "fever."), ("Denies  Cough.", "denies cough.")]
        table, _ = build_presence(notes, patients, matcher, classifier, segmented=segmented)
        assert table.presence == {("fever_chills", -2): {"p1"}, ("cough", -1): {"p2"}}
        with pytest.raises(ValueError, match="1 segmented notes for 2 notes"):
            build_presence(notes, patients, matcher, classifier, segmented=segmented[:1])

    def test_invalid_day_range(self, matcher, classifier):
        with pytest.raises(InputError):
            build_presence([], {}, matcher, classifier, day_range=(3, -3))


class TestWindowPresence:
    def _table(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative", p3="positive")
        notes = [
            note("p1", -4, "Fever."),
            note("p2", -7, "Fever and chills."),
            note("p3", 0, "Fever."),
            note("p2", -1, "Cough."),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        return table

    def test_union_semantics(self, matcher, classifier):
        table = self._table(matcher, classifier)
        windowed = window_presence(table, -7, -1)
        pos, neg = windowed["fever_chills"]
        assert pos == {"p1"}
        assert neg == {"p2"}

    def test_day_zero_excluded_from_prior_week(self, matcher, classifier):
        table = self._table(matcher, classifier)
        pos, _neg = window_presence(table, -7, -1)["fever_chills"]
        assert "p3" not in pos

    def test_window_split_equals_union(self, matcher, classifier):
        table = self._table(matcher, classifier)
        whole = window_presence(table, -7, -1)
        left = window_presence(table, -7, -4)
        right = window_presence(table, -3, -1)
        for gid in whole:
            assert whole[gid][0] == left[gid][0] | right[gid][0]
            assert whole[gid][1] == left[gid][1] | right[gid][1]

    def test_window_validation(self, matcher, classifier):
        table = self._table(matcher, classifier)
        with pytest.raises(InputError):
            window_presence(table, -1, -7)
        with pytest.raises(InputError):
            window_presence(table, -30, -1)

    @pytest.mark.parametrize("window", [(-1, -7), (-30, -1), (-7, 15)])
    def test_every_counts_source_checks_the_window(self, matcher, classifier, window):
        table = self._table(matcher, classifier)
        for counts in (window_counts, daily_counts, pair_counts):
            with pytest.raises(InputError, match="window"):
                counts(table, window)
        with pytest.raises(InputError, match="window"):
            check_window(window, table.day_range)

    def test_counts_bounded_by_cohort(self, matcher, classifier):
        table = self._table(matcher, classifier)
        for pos, neg in window_presence(table, -7, -1).values():
            assert len(pos) <= table.cohort_sizes["positive"]
            assert len(neg) <= table.cohort_sizes["negative"]

    def test_empty_presence(self, matcher, classifier):
        table, _ = build_presence(
            [], roster(p1="positive"), matcher, classifier,
            group_ids=("fever_chills", "cough"),
        )
        windowed = window_presence(table, -7, -1)
        assert windowed == {"fever_chills": (set(), set()), "cough": (set(), set())}


class TestAggregations:
    def test_daily_counts(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -3, "Fever."), note("p2", -3, "Fever.")]
        table, _ = build_presence(notes, patients, matcher, classifier)
        rows = daily_counts(table, (-3, -2))
        assert ("fever_chills", -3, 1, 1) in rows
        assert ("fever_chills", -2, 0, 0) in rows

    def test_pair_counts(self, matcher, classifier):
        patients = roster(p1="positive", p2="positive", p3="negative")
        notes = [
            note("p1", -3, "Fever and cough."),
            note("p2", -2, "Fever."),
            note("p3", -1, "Fever. Dry cough too."),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        rows = dict()
        for a, b, kp, kn in pair_counts(table, (-7, -1)):
            rows[(a, b)] = (kp, kn)
        assert rows[("cough", "fever_chills")] == (1, 1)

    def test_pair_count_bounded_by_singles(self, matcher, classifier):
        patients = roster(p1="positive", p2="positive", p3="negative")
        notes = [
            note("p1", -3, "Fever and cough."),
            note("p2", -2, "Fever. Chills. Cough!"),
            note("p3", -5, "Cough."),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        singles = window_presence(table, -7, -1)
        for a, b, kp, kn in pair_counts(table, (-7, -1)):
            assert kp <= min(len(singles[a][0]), len(singles[b][0]))
            assert kn <= min(len(singles[a][1]), len(singles[b][1]))


class TestTableBridges:
    def _table(self, matcher, classifier):
        patients = roster(p1="positive", p2="positive", p3="negative")
        notes = [
            note("p1", -3, "Fever and cough."),
            note("p2", -2, "Fever."),
            note("p3", -1, "Fever. Dry cough too."),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        return table

    def _rows(self, build, counts, matcher, classifier, **options):
        """Stats rows over the arm sizes the presence table counted."""
        table = self._table(matcher, classifier)
        sizes = table.cohort_sizes
        return build(counts(table), sizes["positive"], sizes["negative"], **options)

    def test_enrichment_table(self, matcher, classifier):
        rows = self._rows(enrichment_rows, lambda t: window_counts(t, (-7, -1)),
                          matcher, classifier)
        by_id = {r.group_id: r for r in rows}
        assert by_id["fever_chills"].k_pos == 2
        assert by_id["fever_chills"].k_neg == 1
        assert by_id["fever_chills"].n_pos == 2

    def test_daily_table(self, matcher, classifier):
        rows = self._rows(daily_rows, lambda t: daily_counts(t, (-3, -1)),
                          matcher, classifier)
        assert len(rows) == 2 * 3  # two observed groups, three days

    def test_pairwise_table(self, matcher, classifier):
        rows = self._rows(pair_rows, lambda t: pair_counts(t, (-7, -1)),
                          matcher, classifier, m_tests=5)
        assert len(rows) == 1
        assert (rows[0].group_a, rows[0].group_b) == ("cough", "fever_chills")
        assert rows[0].k_pos == 1 and rows[0].k_neg == 1
        assert rows[0].p_adjusted >= rows[0].p_raw

    def test_pairwise_needs_two_groups(self, matcher, classifier):
        patients = roster(p1="positive")
        table, _ = build_presence(
            [note("p1", -3, "Fever.")], patients, matcher, classifier
        )
        with pytest.raises(InputError, match="at least 2"):
            pair_counts(table, (-7, -1))


class TestExports:
    def test_presence_csv(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -3, "Fever."), note("p2", -3, "Fever.")]
        table, _ = build_presence(notes, patients, matcher, classifier)
        buffer = io.StringIO()
        write_presence_csv(table, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "group_id,relative_day,cohort,patient_count"
        assert "fever_chills,-3,positive,1" in lines
        assert "fever_chills,-3,negative,1" in lines

    def test_long_export_roundtrip(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [
            note("p1", -3, "Fever."),
            note("p2", -2, "Cough."),
            note("p2", -3, "Fever and cough."),
        ]
        table, _ = build_presence(notes, patients, matcher, classifier)
        buffer = io.StringIO()
        write_presence_long_csv(table, buffer)
        buffer.seek(0)
        loaded = load_presence_long_csv(buffer, patients, day_range=table.day_range)
        assert loaded.presence == table.presence
        assert loaded.cohort_sizes == table.cohort_sizes

    def test_long_import_over_lexicon_groups(self):
        stream = io.StringIO(
            "group_id,relative_day,cohort,patient_id\nfever_chills,-3,positive,p1\n"
        )
        loaded = load_presence_long_csv(stream, roster(p1="positive", p2="negative"),
                                        group_ids=("cough", "fever_chills"))
        assert loaded.group_ids == ("cough", "fever_chills")
        assert loaded.cohort_sizes == {"positive": 1, "negative": 1}
        assert window_counts(loaded, (-7, -1)) == [("cough", 0, 0), ("fever_chills", 1, 0)]

    def test_long_import_rejects_group_outside_lexicon(self):
        stream = io.StringIO(
            "group_id,relative_day,cohort,patient_id\n"
            "fever_chills,-3,positive,p1\nhiccups,-3,positive,p1\n"
        )
        with pytest.raises(InputError, match="presence line 3: unknown group 'hiccups'"):
            load_presence_long_csv(stream, roster(p1="positive"), group_ids=("fever_chills",))

    def test_long_import_rejects_unknown_patient(self):
        stream = io.StringIO(
            "group_id,relative_day,cohort,patient_id\nfever_chills,-3,positive,zzz\n"
        )
        with pytest.raises(InputError, match="unknown patient"):
            load_presence_long_csv(stream, roster(p1="positive"))

    @pytest.mark.parametrize("cohort", ["negative", "banana", "Positive"])
    def test_long_import_rejects_cohort_not_matching_roster(self, cohort):
        stream = io.StringIO(
            "group_id,relative_day,cohort,patient_id\n"
            f"fever_chills,-3,positive,p1\nfever_chills,-2,{cohort},p1\n"
        )
        with pytest.raises(InputError, match=(
                f"presence line 3: cohort '{cohort}' does not match patient 'p1' "
                r"\(positive\)")):
            load_presence_long_csv(stream, roster(p1="positive", p2="negative"))
