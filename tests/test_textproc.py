import io
import json
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail.assertion import RuleClassifier
from phenotrail.errors import InputError
from phenotrail.lexicon import build_matcher, load_default_lexicon
from phenotrail.textproc import (
    NOTE_KEYS,
    ClinicalNote,
    PatientRecord,
    decode_note_chunk,
    fingerprint,
    load_patients,
    parse_notes,
    relative_day,
    segment_sentences,
)

from oracles import curate_jsonl, load_patients_oracle, segment_notes
from rosters import records_of, roster_of
from views import cell_patients


def note(text, note_id="n1", patient_id="p1", when=date(2020, 3, 10)):
    return ClinicalNote(patient_id=patient_id, note_id=note_id, date=when, text=text)


class TestSegmentation:
    def test_two_terminated_clauses(self):
        got = segment_sentences("Pt reports fever. Denies cough.")
        assert got == ["Pt reports fever.", "Denies cough."]

    def test_guard_list_suppresses_split(self):
        assert segment_sentences("Seen by Dr. Smith today") == ["Seen by Dr. Smith today"]
        got = segment_sentences("Pt. denies chest pain. Mrs. Jones agrees.")
        assert got == ["Pt. denies chest pain.", "Mrs. Jones agrees."]

    def test_empty_note(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n  \n") == []

    def test_single_line_without_terminator(self):
        assert segment_sentences("no acute distress") == ["no acute distress"]

    def test_blank_line_splits(self):
        got = segment_sentences("First paragraph\n\nSecond paragraph")
        assert got == ["First paragraph", "Second paragraph"]

    def test_exclamation_and_question(self):
        got = segment_sentences("Fever resolved! Any cough? None.")
        assert got == ["Fever resolved!", "Any cough?", "None."]

    def test_guard_is_word_bounded(self):
        # "badr." ends with "dr" letters but the token is "badr"
        assert len(segment_sentences("Saw badr. Next visit soon.")) == 2

    def test_spans_slice_note_text(self):
        text = "  Pt reports fever.  Denies cough!  \n\n Follow up with Dr. Smith. "
        pos = 0
        for sentence in segment_sentences(text):  # each a slice, in order, none overlapping
            start = text.index(sentence, pos)
            assert not text[pos:start].strip()
            pos = start + len(sentence)
        assert not text[pos:].strip()

    @given(st.text(alphabet="abc .!?\nDrPtx", max_size=120))
    @settings(max_examples=300)
    def test_partition_property(self, text):
        sentences = segment_sentences(text)
        # In order, the sentences hold exactly the text's non-whitespace characters.
        assert "".join("".join(s.split()) for s in sentences) == "".join(text.split())
        for s in sentences:
            assert s and s == s.strip()

    # Notes built from the pieces segmentation reacts to, so that both
    # one-sentence notes and notes that split are common.
    NOTE_PIECES = ["fever", "Pt", "Dr", "vs", "badr", "cough", " ", " ", "  ", "\t",
                   "\n", "\n\n", "\n \t\n", ".", ".", "?!", "!", "?", "...", "\u00a0"]

    @given(st.one_of(
        st.lists(st.sampled_from(NOTE_PIECES), max_size=25).map("".join),
        st.text(alphabet="ab .!?\t\n\u2028DrPt", max_size=60),
    ))
    @settings(max_examples=400)
    def test_segment_notes_matches_segment_sentences(self, text):
        expected = segment_sentences(text)
        (pairs,) = segment_notes([note(text)])
        assert [t for t, _fp in pairs] == expected
        assert [fp for _t, fp in pairs] == [fingerprint(t) for t in expected]


def fever_patients(pairs, threshold):
    """The patients with fever on day 0 once one note per (sentence,
    patient_id) pair is curated at template ``threshold``."""
    notes = [note(text, note_id=f"n{i}", patient_id=pid) for i, (text, pid) in enumerate(pairs)]
    patients = roster_of(PatientRecord(pid, date(2020, 3, 10), "positive") for _text, pid in pairs)
    table, _ = curate_jsonl(notes, patients, build_matcher(load_default_lexicon()),
                            RuleClassifier(), threshold)
    return cell_patients(table, "fever_chills", 0)


class TestTemplates:
    def test_cross_patient_duplication_flagged(self):
        pairs = [("Call the clinic if fever develops.", f"p{i}") for i in range(25)]
        assert fever_patients(pairs, 20) == set()
        assert len(fever_patients(pairs, 26)) == 25

    def test_single_patient_not_flagged(self):
        assert fever_patients([("Fever since last night.", "p1")], 2) == {"p1"}

    def test_within_patient_repetition_not_flagged(self):
        assert fever_patients([("Fever since last night.", "p1")] * 30, 2) == {"p1"}

    def test_threshold_validated(self):
        with pytest.raises(InputError, match="template threshold"):
            fever_patients([], 1)

    def test_fingerprint_normalizes_case_and_spacing(self):
        assert fingerprint("  Fever   NOTED. ") == fingerprint("fever noted.")

    def test_permutation_invariance(self):
        # Sentence k is written by patients p0..p(3k), so at threshold 5
        # the first ones are kept and the later ones are templates.
        rng = random.Random(11)
        pairs = [(f"Fever on day {i % 7}.", f"p{rng.randint(0, i % 7 * 3)}") for i in range(300)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        kept = fever_patients(pairs, 5)
        assert kept and kept != fever_patients(pairs, None)
        assert kept == fever_patients(shuffled, 5)


class TestRelativeDay:
    def test_examples(self):
        d = date(2020, 3, 10)
        assert relative_day(d, d) == 0
        assert relative_day(date(2020, 3, 3), d) == -7
        assert relative_day(date(2020, 3, 11), d) == 1

    @given(st.integers(-2000, 2000), st.integers(-2000, 2000))
    @settings(max_examples=200)
    def test_antisymmetry(self, a_off, b_off):
        base = date(2020, 1, 1)
        a, b = base + timedelta(days=a_off), base + timedelta(days=b_off)
        assert relative_day(a, b) == -relative_day(b, a)


class TestLoaders:
    def test_load_notes_roundtrip(self):
        stream = io.StringIO(
            '{"patient_id": "p1", "note_id": "n1", "date": "2020-03-01", "text": "Fever."}\n'
            '{"patient_id": "p2", "note_id": "n2", "date": "2020-03-02", "text": ""}\n'
        )
        notes = list(parse_notes(stream))
        assert [n.note_id for n in notes] == ["n1", "n2"]
        assert notes[0].date == date(2020, 3, 1)

    def test_load_notes_rejects_duplicates(self):
        stream = io.StringIO(
            '{"patient_id": "p1", "note_id": "n1", "date": "2020-03-01", "text": "a"}\n'
            '{"patient_id": "p1", "note_id": "n1", "date": "2020-03-02", "text": "b"}\n'
        )
        with pytest.raises(InputError, match="duplicate note_id"):
            list(parse_notes(stream))

    def test_load_notes_bad_json_and_date(self):
        with pytest.raises(InputError, match="line 1"):
            list(parse_notes(io.StringIO("{broken\n")))
        with pytest.raises(InputError, match="YYYY-MM-DD"):
            list(parse_notes(io.StringIO(
                '{"patient_id": "p", "note_id": "n", "date": "03/01/2020", "text": ""}\n'
            )))
        with pytest.raises(InputError, match="missing keys"):
            list(parse_notes(io.StringIO('{"patient_id": "p"}\n')))

    @pytest.mark.parametrize("key", ["patient_id", "note_id", "date", "text"])
    @pytest.mark.parametrize("value", [None, 7, ["a"]])
    def test_load_notes_rejects_non_string_fields(self, key, value):
        obj = {"patient_id": "p", "note_id": "n", "date": "2020-03-01", "text": "Fever."}
        obj[key] = value
        stream = io.StringIO('{"patient_id": "p0", "note_id": "n0", "date": "2020-03-01", '
                             '"text": ""}\n' + json.dumps(obj) + "\n")
        with pytest.raises(InputError, match=f"notes line 2: {key} must be a string"):
            list(parse_notes(stream))

    def test_load_patients(self):
        stream = io.StringIO(
            "patient_id,pcr_date,pcr_result\n"
            "p1,2020-03-10,pos\n"
            "p2,2020-03-11,neg\n"
        )
        records = records_of(load_patients(stream))
        assert records["p1"].pcr_result == "positive"
        assert records["p2"] == PatientRecord("p2", date(2020, 3, 11), "negative")

    def test_duplicate_patient_keeps_earliest(self):
        stream = io.StringIO(
            "patient_id,pcr_date,pcr_result\n"
            "p1,2020-03-12,pos\n"
            "p1,2020-03-10,neg\n"
        )
        records = records_of(load_patients(stream))
        assert records["p1"].pcr_date == date(2020, 3, 10)
        assert records["p1"].pcr_result == "negative"

    def test_same_date_conflict_positive_wins(self):
        stream = io.StringIO(
            "patient_id,pcr_date,pcr_result\n"
            "p1,2020-03-10,neg\n"
            "p1,2020-03-10,pos\n"
            "p2,2020-03-10,pos\n"
            "p2,2020-03-10,neg\n"
        )
        records = records_of(load_patients(stream))
        assert records["p1"].pcr_result == "positive"
        assert records["p2"].pcr_result == "positive"

    def test_patient_validation(self):
        with pytest.raises(InputError, match="header"):
            load_patients(io.StringIO("id,date,result\n"))
        with pytest.raises(InputError, match="pos or neg"):
            load_patients(io.StringIO("patient_id,pcr_date,pcr_result\np1,2020-01-01,maybe\n"))


def _roster_fields(draw):
    """One roster line's fields: ids that repeat, dates that tie or are
    bad, result aliases in any case, spaces around any field."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    patient_id = draw(st.sampled_from(["p1", "p2", "p3", "P1", "", "p 4", "p,5", 'p"6']))
    pcr_date = draw(st.sampled_from(
        ["2020-03-10", "2020-03-11", "2020-03-09", "2020-3-10", "03/10/2020", "", "2020-02-30",
         "20200310", "2020-W11-2"]))
    result = draw(st.sampled_from(["pos", "neg", "POS", "Neg", "positive", "maybe", ""]))
    fields = [draw(space) + field + draw(space) for field in (patient_id, pcr_date, result)]
    return fields[:draw(st.sampled_from([3, 3, 3, 3, 2, 1]))]


@st.composite
def roster_texts(draw):
    header = draw(st.sampled_from(["patient_id,pcr_date,pcr_result", " patient_id , pcr_date,pcr_result",
                                   "patient_id,pcr_date", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "quoted", "extra"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" \t ")
        elif kind == "quoted":
            lines.append('"p7",2020-03-10,pos')
        elif kind == "extra":
            lines.append("p8,2020-03-10,pos,x")
        else:
            lines.append(",".join(_roster_fields(draw)))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def load_records(source):
    """The records view of the ``Roster`` that ``load_patients`` reads."""
    return records_of(load_patients(source))


class TestLoadPatientsOracle:
    """The roster loader finds what the row-by-row oracle finds: the same
    records in the same order, or the same error."""

    @staticmethod
    def _outcome(load, text):
        try:
            return list(load(io.StringIO(text, newline="")).items())
        except InputError as exc:
            return str(exc)

    @given(roster_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_records_or_error(self, text):
        assert self._outcome(load_records, text) == self._outcome(load_patients_oracle, text)

    def test_both_row_sources_are_exercised(self):
        plain = "patient_id,pcr_date,pcr_result\np1, 2020-03-10 ,POS\n\np1,2020-03-09,neg\n"
        quoted = plain + '"p2",2020-03-10,pos\n'
        for text in (plain, quoted, plain.replace("\n", "\r\n")):
            assert self._outcome(load_records, text) == self._outcome(load_patients_oracle, text)
        assert load_patients(io.StringIO(plain)).ids == ("p1",)
        assert load_records(io.StringIO(plain))["p1"].pcr_result == "negative"

    def test_csv_error_exits_as_input_error(self):
        text = "patient_id,pcr_date,pcr_result\n" + '"' + "x" * 200_000 + '",2020-03-10,pos\n'
        with pytest.raises(InputError, match="patients line 2: field larger than field limit"):
            load_patients(io.StringIO(text))

    @pytest.mark.parametrize("later", ["", '"p2",2020-03-10,pos\n'], ids=["plain", "quoted"])
    def test_field_limit_holds_without_quotes(self, later):
        text = "patient_id,pcr_date,pcr_result\n" + "x" * 200_000 + ",2020-03-10,pos\n" + later
        with pytest.raises(InputError, match="patients line 2: field larger than field limit"):
            load_patients(io.StringIO(text))


_JSON_TEXT = st.text(alphabet=st.sampled_from('aaaab{}[],:" \\\n\té\ud800'), max_size=6)
_JSON_SCALARS = st.none() | st.booleans() | st.integers(-9, 99) | _JSON_TEXT
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_JSON_TEXT, inner, max_size=2),
    max_leaves=4,
)
_RECORDS = st.dictionaries(st.sampled_from([*NOTE_KEYS, "x"]),
                           st.one_of(_JSON_SCALARS, _JSON_SCALARS, _JSON_VALUES), max_size=5)


@st.composite
def cut_streams(draw):
    """The values of a JSON array, mostly records, cut into lines at
    random commas: a comma cut gives way to the LF that ends its line,
    which a chunk's join puts back.  Most cuts fall between values, so
    that most lines hold one value, as in a JSON-lines stream.  Inside a
    value, cuts fall mostly after a ``}``, where a line can end as a
    record's does; a few fall at any point."""
    size = draw(st.integers(1, 8))
    values = [draw(_RECORDS if draw(st.integers(0, 7)) else _JSON_VALUES) for _ in range(size)]
    lines, line = [], ""
    for k, value in enumerate(values):
        for j, part in enumerate(json.dumps(value, ensure_ascii=draw(st.booleans())).split(",")):
            if j and draw(st.integers(0, 1 if line.endswith("}") else 49)):
                line += ","
            elif j:  # a cut inside the value
                lines.append(line + "\n")
                line = ""
            line += part
        if k + 1 < len(values) and not draw(st.integers(0, 4)):
            line += ", "  # two values on one line
        else:
            lines.append(line + "\n")
            line = ""
    if not draw(st.integers(0, 3)):
        k = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[k])))
        lines[k:k + 1] = [lines[k][:cut], lines[k][cut:]]
    return [line for line in lines if line]


class TestDecodeNoteChunk:
    @given(cut_streams())
    @settings(max_examples=500, deadline=None)
    def test_an_accepted_chunk_is_each_line_decoded(self, lines):
        records = decode_note_chunk(lines)
        if records != [None] * len(lines):
            assert records == [json.loads(line) for line in lines]

    def test_plain_note_lines_are_accepted(self):
        lines = ['{"patient_id": "p1", "note_id": "n1", "date": "2020-03-01", "text": "a."}\n',
                 '{"note_id": "n2", "x": 3, "text": "é \\ud800 \\" \\\\ , :"}\n',
                 '  {"patient_id": "p2"}\n', '{"text": "[a] ]", "k": [[1, "["], []]}\n', '{}']
        assert decode_note_chunk(lines) == [json.loads(line) for line in lines]
        assert decode_note_chunk([]) == []

    @pytest.mark.parametrize("lines", [
        ['{"patient_id": [{"k":"v"}\n', '{"x":"y"}], "note_id": "n1"}\n', '{"a": 1}, {"b": 2}\n'],
        ['{"patient_id": {"k":"v"}\n', '"x":"y", "note_id": "n1"}\n', '{"a": 1}, {"b": 2}\n'],
        ['{"note_id": "n1", "k": {"a": "b"}\n', '"w": "v"}\n', '5, {"z": "y"}\n'],
        ['{"note_id": "n1", "k": 1\n', '"w": 2}, {"note_id": "n2"}\n'],
        ['null,{"a":{"a":"b"}\n', '"a":"b"}\n'],
    ])
    def test_lines_that_decode_only_when_joined_are_refused(self, lines):
        json.loads(f"[{','.join(lines)}]")  # joined, they decode
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[0])
        assert decode_note_chunk(lines) == [None] * len(lines)
