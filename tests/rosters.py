"""Record fixtures to and from the package's ``Roster``.

Tests keep their patients as ``PatientRecord`` rows, which the oracles
take.  ``roster_of`` is how such rows reach the engine: written as the
roster CSV that the CLI reads and loaded by ``load_patients``, so every
roster rule is applied by the package itself.  ``records_of`` is the
inverse view, for comparing a ``Roster`` with the oracle's records.
"""

from __future__ import annotations

import io
from datetime import date

from phenotrail.synth import write_patients_csv
from phenotrail.textproc import PatientRecord, Roster, load_patients


def roster_of(records) -> Roster:
    """The ``Roster`` of an iterable of ``PatientRecord`` rows."""
    stream = io.StringIO()
    write_patients_csv(records, stream)
    stream.seek(0)
    return load_patients(stream)


def records_of(roster: Roster) -> dict[str, PatientRecord]:
    """Patient id -> record, in roster order."""
    return {
        patient_id: PatientRecord(patient_id, date.fromordinal(day), arm)
        for patient_id, day, arm in zip(roster.ids, roster.pcr_days, roster.arms())
    }
