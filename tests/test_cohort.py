import io
import json
import random
import re
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail import cohort
from phenotrail.assertion import AssertionLabel, RuleClassifier, RuleConfig
from phenotrail.bundled import ASSERTION_RULES, data_path
from phenotrail.cli import main
from phenotrail.cohort import (
    DEFAULT_DAY_RANGE,
    PatientBits,
    SymptomPresenceTable,
    check_window,
    daily_counts,
    load_presence_long_csv,
    pair_counts,
    window_counts,
    window_presence,
    write_presence_csv,
    write_presence_long_csv,
)
from phenotrail.errors import InputError, open_text
from phenotrail.lexicon import build_matcher, load_default_lexicon, load_lexicon
from phenotrail.stats import daily_rows, enrichment_rows, pair_rows
from phenotrail.synth import write_patients_csv
from phenotrail.textproc import (
    ClinicalNote, PatientRecord, Roster, decode_note_chunk, parse_notes,
)

from oracles import curate_jsonl, presence_export_oracle, segment_notes, two_pass_curation
from rosters import roster_of
from views import cell_patients

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
    return roster_of(PatientRecord(pid, PCR_DAY, result) for pid, result in kwargs.items())


class TestBuildPresence:
    """The presence map that curation builds from notes."""

    def test_single_affirmed_mention(self, matcher, classifier):
        patients = roster(p1="positive")
        table, rejects = curate_jsonl(
            [note("p1", -3, "Patient reports fever.")], patients, matcher, classifier
        )
        assert rejects == []
        assert cell_patients(table, "fever_chills", -3) == {"p1"}
        assert table.cohort_sizes == {"positive": 1, "negative": 0}

    def test_denied_mention_excluded(self, matcher, classifier):
        patients = roster(p1="positive")
        table, _ = curate_jsonl(
            [note("p1", -3, "Patient denies fever.")], patients, matcher, classifier
        )
        assert table.presence == {}

    def test_maybe_excluded_by_default_included_on_request(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [note("p1", -2, "Possible fever noted.")]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
        assert table.presence == {}
        table, _ = curate_jsonl(
            notes, patients, matcher, classifier, include_maybe=True
        )
        assert cell_patients(table, "fever_chills", -2) == {"p1"}

    def test_set_semantics_same_day(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [
            note("p1", -2, "Cough noted.", "a"),
            note("p1", -2, "Reports a dry cough tonight.", "b"),
        ]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
        assert cell_patients(table, "cough", -2) == {"p1"}

    def test_unknown_patient_rejected_not_fatal(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [
            note("ghost", -1, "Fever."),
            note("p1", -1, "Fever."),
        ]
        table, rejects = curate_jsonl(notes, patients, matcher, classifier)
        assert [r.note_id for r in rejects] == ["ghost--1-a"]
        assert "unknown patient_id" in rejects[0].reason
        assert cell_patients(table, "fever_chills", -1) == {"p1"}

    def test_day_range_excludes_distant_notes(self, matcher, classifier):
        patients = roster(p1="positive")
        notes = [note("p1", -20, "Fever."), note("p1", 3, "Fever.")]
        table, _ = curate_jsonl(
            notes, patients, matcher, classifier, day_range=(-14, 14)
        )
        assert cell_patients(table, "fever_chills", -20) == set()
        assert cell_patients(table, "fever_chills", 3) == {"p1"}

    def test_template_sentences_dropped(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        template = "Call the clinic if fever develops."
        notes = [note("p1", -2, template), note("p2", -2, template)]
        table, _ = curate_jsonl(notes, patients, matcher, classifier, template_threshold=2)
        assert table.presence == {}
        table, _ = curate_jsonl(notes, patients, matcher, classifier, template_threshold=3)
        assert cell_patients(table, "fever_chills", -2) == {"p1", "p2"}

    def test_multi_group_mention_counts_everywhere(self, matcher, classifier):
        patients = roster(p1="positive")
        table, _ = curate_jsonl(
            [note("p1", -4, "Had vomiting diarrhea this morning.")],
            patients, matcher, classifier,
        )
        assert cell_patients(table, "diarrhea", -4) == {"p1"}
        assert cell_patients(table, "gi_upset", -4) == {"p1"}

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
        t1, _ = curate_jsonl(notes, patients, matcher, classifier)
        t2, _ = curate_jsonl(shuffled, patients, matcher, classifier)
        assert t1.presence == t2.presence

    def test_worker_merge_identical(self, matcher, classifier):
        patients = roster_of(
            PatientRecord(f"p{i}", PCR_DAY, "positive" if i % 3 else "negative")
            for i in range(40)
        )
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
        serial, _ = curate_jsonl(notes, patients, matcher, classifier, workers=1)
        parallel, _ = curate_jsonl(notes, patients, matcher, classifier, workers=2)
        assert serial.presence == parallel.presence

    def test_presegmented_notes(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -2, "Fever. Denies  Cough."), note("p2", -1, "Cough today.")]
        segmented = segment_notes(notes)
        assert segmented[0] == [("Fever.", "fever."), ("Denies  Cough.", "denies cough.")]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
        assert {key: cell_patients(table, *key) for key in table.presence} == {
            ("fever_chills", -2): {"p1"}, ("cough", -1): {"p2"}}
        # A template fingerprint drops its sentence wherever it occurs: a
        # third patient makes "cough today." a template at threshold 2.
        notes.append(note("p3", -1, "COUGH  today."))
        table, _ = curate_jsonl(notes, roster(p1="positive", p2="negative", p3="positive"),
                                matcher, classifier, template_threshold=2)
        assert {key: cell_patients(table, *key) for key in table.presence} == {
            ("fever_chills", -2): {"p1"}}

    def test_invalid_day_range(self, matcher, classifier):
        with pytest.raises(InputError):
            curate_jsonl([], roster(), matcher, classifier, day_range=(3, -3))


class TestWindowPresence:
    def _table(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative", p3="positive")
        notes = [
            note("p1", -4, "Fever."),
            note("p2", -7, "Fever and chills."),
            note("p3", 0, "Fever."),
            note("p2", -1, "Cough."),
        ]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(
            [], roster(p1="positive"), matcher, classifier,
            group_ids=("fever_chills", "cough"),
        )
        windowed = window_presence(table, -7, -1)
        assert windowed == {"fever_chills": (set(), set()), "cough": (set(), set())}


class TestAggregations:
    def test_daily_counts(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -3, "Fever."), note("p2", -3, "Fever.")]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(
            [note("p1", -3, "Fever.")], patients, matcher, classifier
        )
        with pytest.raises(InputError, match="at least 2"):
            pair_counts(table, (-7, -1))


class TestExports:
    def test_presence_csv(self, matcher, classifier):
        patients = roster(p1="positive", p2="negative")
        notes = [note("p1", -3, "Fever."), note("p2", -3, "Fever.")]
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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
        table, _ = curate_jsonl(notes, patients, matcher, classifier)
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


EXPORT_RECORDS = {
    pid: PatientRecord(pid, PCR_DAY, arm)
    for pid, arm in (("P1", "positive"), ("P2", "negative"), ("P3", "negative"),
                     ("a,b", "positive"), ("Q 4", "negative"), ("P10", "negative"))
}
EXPORT_ROSTER = roster_of(EXPORT_RECORDS.values())
EXPORT_GROUPS = ("cough", "diarrhea", "fever_chills")


def _quoted(field):
    return f'"{field}"' if ("," in field or '"' in field) else field


@st.composite
def export_rows(draw):
    """One export line: a valid row, decorated or not, or a malformed one."""
    kind = draw(st.sampled_from(["plain"] * 6 + ["decorated", "bad", "blank", "spaces"]))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.sampled_from([" ", " \t ", "\t"]))
    group_id = draw(st.sampled_from(EXPORT_GROUPS))
    day = draw(st.sampled_from(["-3", "0", "14", "-14", "+2", "1_0", "007"]))
    patient_id = draw(st.sampled_from(sorted(EXPORT_RECORDS)))
    fields = [group_id, day, EXPORT_RECORDS[patient_id].pcr_result, patient_id]
    if kind == "decorated":
        i = draw(st.integers(0, 3))
        fields[i] = draw(st.sampled_from([f" {fields[i]}", f"{fields[i]}\t", f'"{fields[i]}"']))
    elif kind == "bad":
        i = draw(st.integers(0, 3))
        fields[i] = draw(st.sampled_from(
            [["hiccups"], ["x", "1.5", ""], ["negative", "positive", "banana"], ["P9", ""]][i]))
        if draw(st.booleans()):
            fields = fields[:draw(st.integers(0, 3))] or fields + ["extra"]
    return ",".join(_quoted(f) if not f.startswith('"') else f for f in fields)


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("export")


def _oracle_or_error(text, group_ids):
    try:
        return presence_export_oracle(io.StringIO(text, newline=""), EXPORT_RECORDS, group_ids)
    except InputError as exc:
        return str(exc)


def _loaded_or_error(source, group_ids):
    try:
        table = load_presence_long_csv(source, EXPORT_ROSTER, group_ids=group_ids)
    except InputError as exc:
        return str(exc)
    return {key: cell_patients(table, *key) for key in table.presence}


class TestExportLoader:
    """The vectorised loader against the row-by-row loader it replaced."""

    @given(st.lists(export_rows(), max_size=25), st.booleans(),
           st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from([None, EXPORT_GROUPS[:2]]))
    @settings(max_examples=300, deadline=None)
    def test_same_cells_or_error_as_oracle(self, export_dir, rows, sort, newline, group_ids):
        if sort:
            rows = sorted(rows)
        text = newline.join(["group_id,relative_day,cohort,patient_id", *rows]) + newline
        path = export_dir / "presence_long.csv"
        path.write_bytes(text.encode())
        expected = _oracle_or_error(text, group_ids)
        assert _loaded_or_error(str(path), group_ids) == expected
        assert _loaded_or_error(io.StringIO(text), group_ids) == expected

    @given(st.lists(st.tuples(st.sampled_from(EXPORT_GROUPS), st.integers(-14, 14),
                              st.sampled_from(["P1", "P2", "P3", "P10"])), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_plain_exports_take_the_vectorised_pass(self, rows):
        text = "group_id,relative_day,cohort,patient_id\n" + "".join(
            f"{g},{day},{EXPORT_RECORDS[p].pcr_result},{p}\n" for g, day, p in rows)
        cells = cohort._index_export(io.BytesIO(text.encode()), EXPORT_ROSTER, None)
        assert cells is not None
        table = SymptomPresenceTable.from_roster(cells, EXPORT_ROSTER, DEFAULT_DAY_RANGE)
        assert {key: cell_patients(table, *key) for key in table.presence} == \
            presence_export_oracle(io.StringIO(text), EXPORT_RECORDS)

    @pytest.mark.parametrize("line", [
        "cough,-3,positive,P1\r\n", 'cough,-3,positive,"P1"\n', "cough, -3,positive,P1\n",
        "cough,-3,positive,P9\n", "cough,-3,negative,P1\n", "cough,x,positive,P1\n",
        "cough,-3,positive\n", "cough,-3,positive,P1,\n", "cough,-3,positive,\xa0P1\n",
        "cough,-3,positive,P1,\ncough,-3,positive\n",  # 4 + 2 commas
        "cough,-3\r,positive,P1\n",  # int() would take "-3\r"; csv ends the row there
    ])
    def test_rows_left_to_the_walker(self, line):
        text = "group_id,relative_day,cohort,patient_id\ncough,-2,negative,P2\n" + line
        assert cohort._index_export(io.BytesIO(text.encode()), EXPORT_ROSTER, None) is None

    def test_colliding_hashes_fall_back_to_the_walker(self, export_dir, monkeypatch):
        text = ("group_id,relative_day,cohort,patient_id\n"
                "cough,-3,positive,P1\nfever_chills,-2,negative,P2\ncough,-3,negative,P10\n")
        expected = _oracle_or_error(text, None)
        monkeypatch.setattr(cohort, "_HASH_STEP", 0)  # every hash of one length is equal
        assert cohort._index_export(io.BytesIO(text.encode()), EXPORT_ROSTER, None) is None
        path = export_dir / "collide.csv"
        path.write_text(text)
        assert _loaded_or_error(str(path), None) == expected

    @pytest.mark.parametrize("block", [1, 7, 22, 23, 40, 1 << 20])
    def test_rows_span_read_blocks(self, monkeypatch, block):
        monkeypatch.setattr(cohort, "_EXPORT_BLOCK", block)
        rows = [f"cough,{day},negative,P{p}" for day in range(-3, 3) for p in (2, 3, 10)]
        text = "group_id,relative_day,cohort,patient_id\n" + "\n".join(rows)  # no final LF
        cells = cohort._index_export(io.BytesIO(text.encode()), EXPORT_ROSTER, None)
        table = SymptomPresenceTable.from_roster(cells, EXPORT_ROSTER, DEFAULT_DAY_RANGE)
        assert {key: cell_patients(table, *key) for key in table.presence} == \
            presence_export_oracle(io.StringIO(text), EXPORT_RECORDS)


def wide_export(n_patients, groups, days, per_cell, seed):
    """A roster and the text of a valid export over it, rows sorted as the
    CLI writes them, and the same rows shuffled."""
    rng = random.Random(seed)
    records = [PatientRecord(f"W{i:05d}", PCR_DAY, "positive" if i % 4 == 0 else "negative")
               for i in range(n_patients)]
    rows = [f"{group},{day},{records[i].pcr_result},{records[i].patient_id}\n"
            for group in groups for day in days
            for i in sorted(rng.sample(range(n_patients), per_cell))]
    header = "group_id,relative_day,cohort,patient_id\n"
    shuffled = rows[:]
    rng.shuffle(shuffled)
    return roster_of(records), header + "".join(rows), header + "".join(shuffled)


class TestExportFold:
    """Each block's rows are ORed into per-cell roster bits as it is read."""

    def test_row_order_and_blocks_give_the_walkers_cells(self, monkeypatch):
        patients, text, shuffled = wide_export(300, ("cough", "fever_chills", "diarrhea"),
                                               range(-3, 4), 40, seed=2)
        expected = cohort._walk_export(io.StringIO(text, newline=""), patients, None)
        assert cohort._walk_export(io.StringIO(shuffled, newline=""), patients, None) == expected
        assert {type(bits) for bits in expected.values()} == {PatientBits}
        for block in (cohort._EXPORT_BLOCK, 64, 100):  # the default, and a few lines
            monkeypatch.setattr(cohort, "_EXPORT_BLOCK", block)
            for export in (text, shuffled):
                cells = cohort._index_export(io.BytesIO(export.encode()), patients, None)
                assert cells == expected
                assert {type(bits) for bits in cells.values()} == {PatientBits}

    def test_the_table_keeps_the_loaded_bits(self):
        patients, text, _ = wide_export(20, ("cough",), range(2), 5, seed=3)
        cells = cohort._index_export(io.BytesIO(text.encode()), patients, None)
        table = SymptomPresenceTable.from_roster(cells, patients, DEFAULT_DAY_RANGE)
        assert all(table.presence[key] is bits for key, bits in cells.items())

    def test_peak_memory_is_the_matrix_and_a_few_blocks(self, tmp_path, monkeypatch):
        """tracemalloc sees numpy's buffers.  The pass holds the cells x
        roster-bytes matrix (at most twice the cells), the cells' bits and
        a block's arrays: arrays over every row of the file would hold
        8 bytes a row or more, here over 1 MB."""
        import numpy  # noqa: F401  (imported outside the measurement)

        monkeypatch.setattr(cohort, "_EXPORT_BLOCK", 1 << 16)
        patients, text, _ = wide_export(2000, [f"g{k}" for k in range(10)],
                                        range(-14, 15), 500, seed=5)
        path = tmp_path / "presence_long.csv"
        path.write_text(text)
        tracemalloc.start()
        try:
            table = load_presence_long_csv(str(path), patients)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.presence) == 290
        matrix = len(table.presence) * ((len(patients.ids) + 7) >> 3)
        assert peak <= 3 * matrix + 24 * cohort._EXPORT_BLOCK


class TestPatientBits:
    def test_len_counts_members(self):
        assert len(PatientBits(0b1011)) == 3
        assert len(PatientBits(0)) == 0

    @given(st.sets(st.integers(0, 5000)))
    def test_members_round_trip(self, indexes):
        ids = tuple(f"p{i}" for i in range(5001))
        table = SymptomPresenceTable({}, DEFAULT_DAY_RANGE, (), Roster((i, 0, False) for i in ids))
        bits = sum(1 << i for i in indexes)
        assert table.members(bits) == {ids[i] for i in indexes}
        assert table.arm_counts(bits) == (0, len(indexes))


# ---------------------------------------------------------------------------
# The one-pass curation against the two-pass pipeline it replaced

STREAM_SENTENCES = [
    "Fever.", "FEVER.", "Denies cough.", "Possible diarrhea.", "Sore throat and chills.",
    "Take all medication as prescribed.", "Mother had fever last week.", "Dry cough today!",
    "No acute distress.", "Call the clinic if fever develops.",
    # Frames that differ only in their digits share a verdict memo key.
    "Cough for 3 days.", "Cough for 12 days.", "No cough for 3 days.", "HA for 2 days.",
    "Denies ha.", "Mild  ha\tand\tHA.", "Fever \t for ٣ days.", "no2 fever.", "r/o3 diarrhea.",
]
STREAM_RECORDS = {f"p{i}": PatientRecord(f"p{i}", PCR_DAY, "positive" if i % 2 else "negative")
                  for i in range(6)}
STREAM_ROSTER = roster_of(STREAM_RECORDS.values())


@st.composite
def stream_corpora(draw):
    """JSON lines over a few shared sentences, so that fingerprints reach a
    small template threshold part-way through; with unknown patients,
    out-of-range days and blank lines."""
    lines = []
    for n in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("\n")
            continue
        sentences = draw(st.lists(st.sampled_from(STREAM_SENTENCES), min_size=1, max_size=3))
        lines.append(json.dumps({
            "patient_id": draw(st.sampled_from([*STREAM_RECORDS, "ghost", "stray"])),
            "note_id": f"n{n}",
            "date": (PCR_DAY + timedelta(days=draw(st.integers(-18, 18)))).isoformat(),
            "text": draw(st.sampled_from([" ", "\n"])).join(sentences),
        }) + "\n")
    return lines


def oracle_outcome(lines, matcher, classifier, threshold, include_maybe):
    notes = list(parse_notes(lines))
    presence, rejects, tasks = two_pass_curation(
        notes, STREAM_RECORDS, matcher, classifier, threshold, DEFAULT_DAY_RANGE, include_maybe)
    return {key: members for key, members in presence.items()}, rejects, tasks


def stream_outcome(curation):
    table = curation.table(STREAM_ROSTER, DEFAULT_DAY_RANGE)
    presence = {key: cell_patients(table, *key) for key in table.presence}
    return presence, [(r.note_id, r.reason) for r in curation.rejects()]


def chunked_curation(lines, matcher, classifier, threshold, include_maybe, size):
    """What the pool does, in-process: one pass per chunk, merged in order."""
    cfg = cohort._Config.of(STREAM_ROSTER, matcher, classifier, threshold, DEFAULT_DAY_RANGE,
                            include_maybe)
    total = cohort.Curation(threshold)
    for start in range(0, len(lines), size):
        part = cohort._pass(cfg, cohort.Curation(threshold), start + 1, lines[start:start + size])
        total.absorb(part, STREAM_ROSTER)
    total.settle()
    return total


class TestCurationStream:
    @given(stream_corpora(), st.sampled_from([None, 2, 3, 4]), st.booleans(),
           st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_two_pass_pipeline(self, matcher, classifier, lines, threshold,
                                          include_maybe, size):
        presence, rejects, tasks = oracle_outcome(lines, matcher, classifier, threshold,
                                                  include_maybe)
        serial = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, threshold,
                                     include_maybe=include_maybe)
        assert stream_outcome(serial) == (presence, rejects)
        chunked = chunked_curation(lines, matcher, classifier, threshold, include_maybe, size)
        assert stream_outcome(chunked) == (presence, rejects)
        # Without a classifier each mention stays a task, numbered in the
        # serial order of the non-template mentions.
        for curation in (
            cohort.curate_notes(lines, STREAM_ROSTER, matcher, None, threshold),
            chunked_curation(lines, matcher, None, threshold, include_maybe, size),
        ):
            assert curation.requests() == tasks

    def test_templates_cross_the_threshold_mid_corpus(self, matcher, classifier):
        # "fever." reaches 3 patients only at the last line, so the events
        # of its first two lines are dropped after the pass; the unknown
        # and out-of-range notes count towards the three.
        lines = [
            json.dumps({"patient_id": pid, "note_id": f"n{k}", "text": "Fever.",
                        "date": (PCR_DAY + timedelta(days=day)).isoformat()}) + "\n"
            for k, (pid, day) in enumerate([("p1", -2), ("ghost", -2), ("p2", -30)])
        ]
        for threshold, expected in ((3, {}), (4, {("fever_chills", -2): {"p1"}})):
            curation = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, threshold)
            assert stream_outcome(curation)[0] == expected
        curation = cohort.curate_notes(lines[:1], STREAM_ROSTER, matcher, classifier, 2)
        assert stream_outcome(curation)[0] == {("fever_chills", -2): {"p1"}}

    def test_counter_caps_what_it_holds(self):
        counter = cohort.TemplateCounter(3)
        assert counter.count("a", "p1") == 0
        assert counter.holders == ["p1"]  # one patient: the id, not a set
        assert counter.count("a", "p1") == 0
        assert counter.count("a", "p2") == 0
        assert counter.count("a", "p3") is None
        assert counter.holders == [None]  # a template keeps no ids
        assert counter.count("a", "p4") is None
        wide = cohort.TemplateCounter(100)
        for k in range(40):
            wide.count("b", f"p{k % 30}")
        assert wide.holders == [{f"p{k}" for k in range(30)}]  # no template

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from([f"p{k}" for k in range(14)])),
                    max_size=60),
           st.integers(1, 60), st.integers(2, 16))
    @settings(max_examples=300)
    def test_merged_counters_equal_one_counter(self, pairs, cut, threshold):
        def members(held):
            return {held} if isinstance(held, str) else set(held)

        whole, left, right = (cohort.TemplateCounter(threshold) for _ in range(3))
        for fp, pid in pairs:
            whole.count(fp, pid)
        for fp, pid in pairs[:cut]:
            left.count(fp, pid)
        for fp, pid in pairs[cut:]:
            right.count(fp, pid)
        roster = Roster((f"p{k}", 0, False) for k in range(7))  # p7..p13 are unknown
        renumbered = left.merge(right, roster)
        assert [fp for fp in left.numbers] == [fp for fp in whole.numbers]
        assert renumbered == [left.numbers[fp] for fp in right.numbers]
        for fp, number in whole.numbers.items():
            held = whole.holders[number]
            merged = left.holders[left.numbers[fp]]
            assert (held is None) == (merged is None)
            if held is not None:
                assert members(held) == members(merged)
        # Merged into an empty counter, every fingerprint is new there and
        # takes the holder that counting its patients would build.
        fresh = cohort.TemplateCounter(threshold)
        assert fresh.merge(right, roster) == list(range(len(right.holders)))
        assert fresh.numbers == right.numbers and fresh.holders == right.holders
        # What a merge adds, it holds by the roster's copy of a rostered id.
        copies = {id(patient_id) for patient_id in roster.ids}
        for held in fresh.holders:
            for patient_id in members(held or ()):
                assert (id(patient_id) in copies) == (patient_id in roster.index)

    def test_peak_memory_per_note(self, matcher, classifier):
        """What the pass keeps per note: its id for the duplicate check,
        its sentence's fingerprint and two events.  With the 36-character
        id as a str in a dict beside its line, the 130-character
        fingerprint as text and 64-bit events, that is over 420 bytes a
        note; as UTF-8 in a set, a 16-byte digest and 32-bit events, under
        310."""
        n = 5000
        lines = [json.dumps({
            "patient_id": f"p{k % 6}", "note_id": f"{k:08x}-8f1c-4a2e-9b7d-{k * 7919:012x}",
            "date": (PCR_DAY - timedelta(days=k % 9)).isoformat(),
            "text": f"Reports fever and a dry cough since visit {k} to the walk-in clinic "
                    "on the north side of town, as the attending physician noted."}) + "\n"
            for k in range(n)]
        tracemalloc.start()
        try:
            curation = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curation.events) == 6 * n  # fever and cough: a triple each
        assert peak <= 360 * n

    def test_one_shot_generator_equals_list(self, matcher, classifier):
        rng = random.Random(4)
        lines = [json.dumps({"patient_id": f"p{rng.randint(0, 5)}", "note_id": f"n{k}",
                             "date": (PCR_DAY + timedelta(days=rng.randint(-9, 3))).isoformat(),
                             "text": rng.choice(STREAM_SENTENCES)}) + "\n"
                 for k in range(2500)]
        listed = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier)
        for workers in (1, 2):
            streamed = cohort.curate_notes((line for line in lines), STREAM_ROSTER, matcher,
                                           classifier, workers=workers)
            assert stream_outcome(streamed) == stream_outcome(listed)

    def test_pool_equals_serial_over_many_small_chunks(self, matcher, classifier, monkeypatch):
        rng = random.Random(8)
        lines = [json.dumps({"patient_id": f"p{rng.randint(0, 7)}", "note_id": f"n{k}",
                             "date": (PCR_DAY + timedelta(days=rng.randint(-16, 16))).isoformat(),
                             "text": " ".join(rng.sample(STREAM_SENTENCES, 2))}) + "\n"
                 for k in range(400)]
        monkeypatch.setattr(cohort, "_CHUNK", 16)
        serial = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, 3)
        pooled = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, 3, workers=2)
        assert stream_outcome(pooled) == stream_outcome(serial)
        tasks = cohort.curate_notes(lines, STREAM_ROSTER, matcher, None, 3).requests()
        assert cohort.curate_notes(lines, STREAM_ROSTER, matcher, None, 3,
                                   workers=2).requests() == tasks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_input_error_in_line_order(self, matcher, classifier, monkeypatch, workers):
        monkeypatch.setattr(cohort, "_CHUNK", 4)
        good = [json.dumps({"patient_id": "p1", "note_id": f"n{k}", "date": "2020-03-08",
                            "text": "Fever."}) + "\n" for k in range(12)]
        cases = [
            # a duplicate of line 1 in the second chunk, then a bad line
            (good[:6] + [good[0]] + ["{bad\n"] + good[6:], "notes line 7: duplicate note_id 'n0'"),
            # the bad line comes first, in the first chunk
            (good[:2] + ["{bad\n"] + good[2:] + [good[0]], "notes line 3: invalid JSON"),
            # a duplicate inside one chunk
            (good[:5] + [good[4]] + good[5:], "notes line 6: duplicate note_id 'n4'"),
            # the error sits in the last, partial chunk
            (good + ["[]\n"], "notes line 13: expected an object"),
        ]
        for lines, message in cases:
            with pytest.raises(InputError, match=re.escape(message)):
                cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, workers=workers)

    def test_pool_stops_reading_after_an_error(self, matcher, classifier, monkeypatch):
        monkeypatch.setattr(cohort, "_CHUNK", 4)
        read = []

        def lines():
            for k in range(20_000):
                read.append(k)
                yield "{bad\n" if k == 10 else json.dumps(
                    {"patient_id": "p1", "note_id": f"n{k}", "date": "2020-03-08",
                     "text": "Fever."}) + "\n"

        with pytest.raises(InputError, match="notes line 11: invalid JSON"):
            cohort.curate_notes(lines(), STREAM_ROSTER, matcher, classifier, workers=2)
        assert len(read) < 10_000  # the chunks in flight, not the whole corpus


def memo_corpus(texts, copies=3):
    """Each text written by several patients on the same in-range day."""
    return [json.dumps({"patient_id": f"p{(k + j) % 6}", "note_id": f"n{k}-{j}",
                        "date": (PCR_DAY - timedelta(days=2)).isoformat(), "text": text}) + "\n"
            for k, text in enumerate(texts) for j in range(copies)]


class TestVerdictMemo:
    """Curation matches and classifies each sentence once, keyed by its
    text with the ASCII digits masked where that cannot change a verdict."""

    @staticmethod
    def outcomes(lines, matcher, classifier, monkeypatch, mask=None):
        """The oracle's and curation's outcomes, the mask forced when given."""
        if mask is not None:
            monkeypatch.setattr(cohort, "_sentence_mask", lambda *_args: mask)
        expected = oracle_outcome(lines, matcher, classifier, None, False)[:2]
        curated = stream_outcome(cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier,
                                                     None))
        monkeypatch.undo()
        return expected, curated

    def assert_mask_switched_off(self, lines, matcher, classifier, monkeypatch):
        expected, curated = self.outcomes(lines, matcher, classifier, monkeypatch)
        assert cohort._sentence_mask(matcher, classifier) is None
        assert curated == expected
        # The corpus tells the two apart: the mask would merge its verdicts.
        expected, masked = self.outcomes(lines, matcher, classifier, monkeypatch,
                                         cohort._DIGIT_MASK)
        assert masked != expected

    def test_a_term_with_a_digit_switches_the_mask_off(self, classifier, monkeypatch):
        lexicon = load_lexicon(io.StringIO("group_id,term\ncovid,covid 19\nfever_chills,fever\n"))
        lines = memo_corpus(["Covid 18 ruled in.", "Covid 19 ruled in.", "Covid 18 and fever."])
        self.assert_mask_switched_off(lines, build_matcher(lexicon), classifier, monkeypatch)

    @pytest.mark.parametrize("key, words, texts", [
        ("negation_cues", ["grade 3"], ["Fever grade 2.", "Fever grade 3.", "Cough grade 4."]),
        ("scope_breakers", ["but", "3"], ["No 2 fever.", "No 3 fever.", "No 4 cough."]),
    ])
    def test_a_rule_with_a_digit_switches_the_mask_off(self, matcher, monkeypatch, key, words,
                                                        texts):
        with open(data_path(ASSERTION_RULES), encoding="utf-8") as handle:
            raw = json.load(handle)
        raw[key] = words
        classifier = RuleClassifier(RuleConfig.from_dict(raw))
        self.assert_mask_switched_off(memo_corpus(texts), matcher, classifier, monkeypatch)

    def test_another_classifier_keys_by_the_whole_text(self, matcher, monkeypatch):
        class DigitClassifier:
            def classify(self, sentence, span):
                return (AssertionLabel.YES if "7" in sentence else AssertionLabel.NO), 1.0

        lines = memo_corpus(["Fever for 8 days.", "Fever for 7 days.", "Fever for 9 days."])
        self.assert_mask_switched_off(lines, matcher, DigitClassifier(), monkeypatch)

    def test_classifies_each_masked_sentence_once(self, matcher, monkeypatch):
        calls = []

        class CountingClassifier(RuleClassifier):
            def classify(self, sentence, span):
                calls.append(sentence)
                return super().classify(sentence, span)

        counting = CountingClassifier()
        texts = [f"Cough for {n} days." for n in range(10, 40)]
        lines = memo_corpus(texts)
        expected, curated = self.outcomes(lines, matcher, counting, monkeypatch)
        assert curated == expected
        calls.clear()
        cohort.curate_notes(lines, STREAM_ROSTER, matcher, counting, None)
        assert calls == texts  # a subclass may read digits: keyed by the whole text
        calls.clear()
        monkeypatch.setattr(cohort, "_sentence_mask", lambda *_args: cohort._DIGIT_MASK)
        cohort.curate_notes(lines, STREAM_ROSTER, matcher, counting, None)
        assert calls == [texts[0]]  # masked, every text is the first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_full_memo_is_cleared(self, matcher, classifier, monkeypatch, workers):
        rng = random.Random(9)
        lines = [json.dumps({"patient_id": f"p{rng.randint(0, 7)}", "note_id": f"n{k}",
                             "date": (PCR_DAY + timedelta(days=rng.randint(-16, 16))).isoformat(),
                             "text": " ".join(rng.sample(STREAM_SENTENCES, 3))}) + "\n"
                 for k in range(300)]
        monkeypatch.setattr(cohort, "_CHUNK", 16)
        monkeypatch.setattr(cohort, "_MEMO_CAP", 2)
        configs, of = [], cohort._Config.of

        def recorded_of(*args):
            configs.append(of(*args))
            return configs[-1]

        monkeypatch.setattr(cohort._Config, "of", recorded_of)
        for threshold, include_maybe in ((3, False), (None, True)):
            presence, rejects, _tasks = oracle_outcome(lines, matcher, classifier, threshold,
                                                       include_maybe)
            curation = cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier, threshold,
                                           include_maybe=include_maybe, workers=workers)
            assert stream_outcome(curation) == (presence, rejects)
        assert [len(cfg.memo) <= 2 for cfg in configs] == [True, True]  # the parent's memos


def note_line(note_id, **fields):
    """A valid note line by p1, two days before its PCR test, with ``fields`` changed or added."""
    return json.dumps({"patient_id": "p1", "note_id": note_id, "date": "2020-03-08",
                       "text": "Fever.", **fields}) + "\n"


# Notes that a chunk decode could read otherwise than a line at a time.
GUARD_CASES = {
    # Line 1 alone is invalid JSON, yet joined the lines decode to three
    # notes, one per line: all but the { rule pass.
    "an array across lines": [
        '{"patient_id": [{"k":"v"}\n',
        '{"x":"y"}], "patient_id": "p1", "note_id": "x1", "date": "2020-03-08", "text": "t"}\n',
        note_line("x2")[:-1] + ", " + note_line("x3"),
    ],
    # The same with an object in place of the array.
    "an object across lines": [
        '{"patient_id": {"k":"v"}\n',
        '"x":"y", "patient_id": "p1", "note_id": "x1", "date": "2020-03-08", "text": "t"}\n',
        note_line("x2")[:-1] + ", " + note_line("x3"),
    ],
    # Joined, these decode to a note from lines 1-2, 5 and a dict: all but
    # the dict rule pass.
    "a scalar after an object across lines": [
        note_line("x1", k={"a": "b"})[:-2] + "\n", '"w": "v"}\n', '5, {"z": "y"}\n'],
    # Joined, these decode to two notes: all but the line-end rule pass.
    "an object closed on the next line": [
        note_line("x1", k=1)[:-2] + "\n", '"w": 2}, ' + note_line("x2")],
    "a scalar and an object across lines": ['null,{"a":{"a":"b"}\n', '"a":"b"}\n'],
    "two objects on one line": [note_line("x1")[:-1] + note_line("x2"),
                                note_line("x3")[:-1] + ", " + note_line("x4")],
    "an object over two lines": ['{"patient_id": "p1", "note_id": "x1",\n',
                                 '"date": "2020-03-08", "text": "Fever."}\n'],
    "a whitespace-only line": [note_line("x1"), " \t\n", note_line("x2")],
    "a BOM on line 1": ["\ufeff" + note_line("x1")],
    "CRLF line ends": [note_line(f"x{k}")[:-1] + "\r\n" for k in range(4)],
    "no final LF": [note_line("x1"), note_line("x2")[:-1]],
    "brackets in the text": [note_line("x1", text="Fever {x} [2]."), note_line("x2", text="}{"),
                             note_line("x3", text="Cough ]")],
    # No {, so one decode reads these (TestChunkDecode checks that it does).
    "square brackets in the text": [note_line("x1", text="Fever [2]. Cough ]["),
                                    note_line("x2", text="[[[Cough."), note_line("x3", k=[[1], []])],
    "non-ASCII text": [note_line("x1", text="Fièvre. Cough ✓."),
                       json.dumps({"patient_id": "p1", "note_id": "x2", "date": "2020-03-07",
                                   "text": "Toux – cough."}, ensure_ascii=False) + "\n"],
    "a lone surrogate escape": [note_line("x1"), note_line("x2", text="Fever \ud800.")],
    "duplicate keys": ['{"patient_id": "ghost", "patient_id": "p1", "note_id": "x1", '
                       '"date": "2020-03-08", "text": "Denies fever.", "text": "Cough."}\n'],
    "extra keys": [note_line("x1", extra="x", count=3), note_line("x2", nested={"a": [1]})],
    "a key missing": [note_line("x1"), '{"patient_id": "p1", "note_id": "x2", "text": "t"}\n'],
    "a value that is no string": [note_line("x1", date=20200308)],
    # Numbers that add up, as strings would.
    "numbers for strings": [note_line(2, patient_id=1, text=3),
                            note_line(0.5, patient_id=True, text=False)],
    "a bad date": [note_line("x1", date="2020-02-30")],
    "a duplicate note id": [note_line("x1"), note_line("x1")],
}


class TestChunkDecode:
    """A chunk decoded at once gives the outcome of reading it a line at a time."""

    @staticmethod
    def line_reader_outcome(lines, matcher, classifier):
        try:
            return oracle_outcome(lines, matcher, classifier, 2, False)[:2]
        except InputError as exc:
            return str(exc)

    @staticmethod
    def curated_outcome(lines, matcher, classifier, workers):
        try:
            return stream_outcome(cohort.curate_notes(lines, STREAM_ROSTER, matcher, classifier,
                                                      2, workers=workers))
        except InputError as exc:
            return str(exc)

    @staticmethod
    def chunk_lines(monkeypatch, size):
        """Pass ``size`` lines a chunk, in a pool and in-process; None keeps the defaults."""
        if size is not None:
            monkeypatch.setattr(cohort, "_CHUNK", size)
            monkeypatch.setattr(cohort, "_SERIAL_CHUNK", size)

    @pytest.mark.parametrize("case", GUARD_CASES)
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_equals_the_line_reader(self, matcher, classifier, monkeypatch, case, chunk):
        self.chunk_lines(monkeypatch, chunk)
        good = [note_line(f"g{k}", patient_id=f"p{k % 3}", text="Cough.") for k in range(6)]
        for offset in range(3):  # the case at each place in a 3-line chunk
            lines = good[:offset] + GUARD_CASES[case] + good[offset:]
            expected = self.line_reader_outcome(lines, matcher, classifier)
            for workers in (1, 2):
                assert self.curated_outcome(lines, matcher, classifier, workers) == expected

    def test_square_brackets_take_the_one_decode(self):
        lines = GUARD_CASES["square brackets in the text"]
        assert decode_note_chunk(lines) == [json.loads(line) for line in lines]

    @pytest.fixture(scope="class")
    def patients_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("roster") / "patients.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_patients_csv(STREAM_RECORDS.values(), handle)
        return path

    @pytest.mark.parametrize("case", [*GUARD_CASES, "bad UTF-8 after bad JSON"])
    def test_cli_exit_and_stderr_equal_the_line_reader(self, monkeypatch, capsys, tmp_path,
                                                       patients_csv, case):
        notes = tmp_path / "notes.jsonl"
        if case in GUARD_CASES:
            notes.write_bytes("".join(GUARD_CASES[case]).encode("utf-8", "surrogatepass"))
        else:  # more than a text read's block apart, so that the bad JSON is read first
            good = [note_line(f"g{k}") for k in range(200)]
            notes.write_bytes(("{bad\n" + "".join(good)).encode() + b'{"text": "\xff"}\n')
        try:
            with open_text(str(notes), "notes") as lines:
                list(parse_notes(lines))
            expected = (0, "")
        except InputError as exc:
            expected = (2, f"error: {exc}\n")
        outputs = []
        for chunk in (None, 3):
            self.chunk_lines(monkeypatch, chunk)
            for workers in ("1", "2"):
                out = tmp_path / f"out{chunk}-{workers}"
                code = main(["curate", "--notes", str(notes), "--patients", str(patients_csv),
                             "--per-patient", "--workers", workers, "--out", str(out)])
                assert (code, capsys.readouterr().err) == expected
                if code == 0:
                    outputs.append([(out / name).read_bytes() for name in
                                    ("presence.csv", "presence_long.csv", "rejects.csv")])
        assert outputs == outputs[:1] * len(outputs)
