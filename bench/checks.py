"""Output checks: the benchmark's own plain-Python recomputation.

Every check returns a list of error strings; an empty list means the
output is correct.  Table rows are keyed by phenotype group, and a row may
name its group by group id or by display name.
"""

from __future__ import annotations

import csv
import math
from decimal import Decimal, InvalidOperation

# Display names of the bundled lexicon's 26 groups, so that a table may
# print either form.
DISPLAY_NAMES = {
    "fever_chills": "Fever / chills",
    "taste_smell_change": "Altered or diminished sense of taste or smell",
    "diarrhea": "Diarrhea",
    "gi_upset": "GI upset",
    "wheezing": "Wheezing",
    "respiratory_difficulty": "Respiratory difficulty",
    "respiratory_failure": "Respiratory failure",
    "cough": "Cough",
    "hemoptysis": "Hemoptysis",
    "chest_pain_pressure": "Chest pain/pressure",
    "congestion": "Congestion",
    "rhinitis": "Rhinitis",
    "myalgia_arthralgia": "Myalgia/Arthralgia",
    "generalized_symptoms": "Generalized symptoms",
    "fatigue": "Fatigue",
    "diaphoresis": "Diaphoresis",
    "pharyngitis": "Pharyngitis",
    "headache": "Headache",
    "dry_mouth": "Dry mouth",
    "appetite_change": "Change in appetite/intake",
    "conjunctivitis": "Conjunctivitis",
    "neuro": "Neuro",
    "cardiac": "Cardiac",
    "otitis": "Otitis",
    "dermatitis": "Dermatitis",
    "dysuria": "Dysuria",
}
GROUP_IDS = tuple(sorted(DISPLAY_NAMES))
_BY_NAME = {name: gid for gid, name in DISPLAY_NAMES.items()}


def group_of(label: str) -> str:
    return label if label in DISPLAY_NAMES else _BY_NAME.get(label, label)


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_roster(path: str) -> dict[str, bool]:
    """patient_id -> True for the PCR-positive arm."""
    _, rows = read_rows(path)
    return {row[0]: row[2] == "pos" for row in rows}


def read_presence_long(path: str) -> dict[tuple[str, int], set[str]]:
    presence: dict[tuple[str, int], set[str]] = {}
    for group_id, day, _cohort, patient_id in read_rows(path)[1]:
        presence.setdefault((group_id, int(day)), set()).add(patient_id)
    return presence


class Expected:
    """Counts recomputed from a per-patient presence export and the roster."""

    def __init__(self, presence, arms: dict[str, bool], window: tuple[int, int]):
        self.presence, self.arms, self.window = presence, arms, window
        self.n_pos = sum(arms.values())
        self.n_neg = len(arms) - self.n_pos
        lo, hi = window
        self.windowed: dict[str, set[str]] = {}
        for (group_id, day), patients in presence.items():
            if lo <= day <= hi:
                self.windowed.setdefault(group_id, set()).update(patients)

    def split(self, patients) -> tuple[int, int]:
        k_pos = sum(1 for p in patients if self.arms[p])
        return k_pos, len(patients) - k_pos

    def group(self, group_id: str) -> tuple[int, int]:
        return self.split(self.windowed.get(group_id, ()))

    def day(self, group_id: str, day: int) -> tuple[int, int]:
        return self.split(self.presence.get((group_id, day), ()))

    def pair(self, a: str, b: str) -> tuple[int, int]:
        return self.split(self.windowed.get(a, set()) & self.windowed.get(b, set()))


def _p_value(text: str) -> Decimal | None:
    """Parse a printed p-value (which may lie below the float range)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        return None
    return value if 0 < value <= 1 else None


def _header_sizes(header, expected: Expected, columns) -> list[str]:
    want = [f"(N={expected.n_pos})", f"(N={expected.n_neg})"]
    got = [header[i] for i in columns]
    ok = all(g.upper().endswith(w.upper()) for g, w in zip(got, want))
    return [] if ok else [f"header cohort sizes {got}, expected {want}"]


def _pct_close(text: str, k: int, n: int) -> bool:
    return abs(float(text) - 100.0 * k / n) <= 0.005 + 1e-9


def check_enrichment(path: str, expected: Expected) -> list[str]:
    header, rows = read_rows(path)
    errors = _header_sizes(header, expected, (1, 2))
    seen = set()
    for row in rows:
        group_id = group_of(row[0])
        seen.add(group_id)
        want = expected.group(group_id)
        if (int(row[1]), int(row[2])) != want:
            errors.append(f"enrichment {group_id}: counts {row[1:3]}, expected {want}")
        if _p_value(row[6]) is None:
            errors.append(f"enrichment {group_id}: p {row[6]!r} outside (0, 1]")
    if len(seen) != len(rows):
        errors.append("enrichment: duplicate phenotype rows")
    missing = {g for g in expected.windowed if expected.windowed[g]} - seen
    if missing:
        errors.append(f"enrichment: groups with presence missing {sorted(missing)}")
    return errors


def check_timeline(path: str, expected: Expected) -> list[str]:
    header, rows = read_rows(path)
    errors = _header_sizes(header, expected, (2, 3))
    seen = set()
    for row in rows:
        key = (group_of(row[0]), int(row[1]))
        seen.add(key)
        k_pos, k_neg = expected.day(*key)
        if not (_pct_close(row[2], k_pos, expected.n_pos)
                and _pct_close(row[3], k_neg, expected.n_neg)):
            errors.append(f"timeline {key}: % {row[2:4]}, expected counts {(k_pos, k_neg)}")
        if _p_value(row[5]) is None:
            errors.append(f"timeline {key}: p {row[5]!r} outside (0, 1]")
    if len(seen) != len(rows):
        errors.append("timeline: duplicate (phenotype, day) rows")
    lo, hi = expected.window
    missing = {k for k, v in expected.presence.items() if v and lo <= k[1] <= hi} - seen
    if missing:
        errors.append(f"timeline: {len(missing)} (group, day) cells with presence missing")
    return errors


def check_pairwise(path: str, expected: Expected) -> list[str]:
    header, rows = read_rows(path)
    errors = _header_sizes(header, expected, (2, 3))
    seen = set()
    for row in rows:
        a, b = group_of(row[0]), group_of(row[1])
        seen.add(frozenset((a, b)))
        want = expected.pair(a, b)
        if (int(row[2]), int(row[3])) != want:
            errors.append(f"pairwise {a},{b}: counts {row[2:4]}, expected {want}")
        raw, adjusted = _p_value(row[7]), _p_value(row[8])
        if raw is None or adjusted is None or adjusted < raw:
            errors.append(f"pairwise {a},{b}: raw p {row[7]!r}, BH p {row[8]!r}")
    if len(seen) != len(rows):
        errors.append("pairwise: duplicate pair rows")
    groups = sorted(expected.windowed)
    missing = [
        (a, b) for i, a in enumerate(groups) for b in groups[i + 1:]
        if frozenset((a, b)) not in seen and any(expected.pair(a, b))
    ]
    if missing:
        errors.append(f"pairwise: {len(missing)} co-occurring pairs missing")
    return errors


def check_tables(out_dir: str, expected: Expected) -> dict[str, list[str]]:
    return {
        "enrich": check_enrichment(f"{out_dir}/enrichment.csv", expected),
        "timeline": check_timeline(f"{out_dir}/timeline.csv", expected),
        "pairwise": check_pairwise(f"{out_dir}/pairwise.csv", expected),
    }


def check_curated(out_dir: str, arms: dict[str, bool]) -> tuple[list[str], dict]:
    """rejects.csv is header-only; presence.csv agrees with presence_long.csv."""
    errors = []
    header, rejects = read_rows(f"{out_dir}/rejects.csv")
    if rejects:
        errors.append(f"curate: {len(rejects)} rejected notes")
    presence = read_presence_long(f"{out_dir}/presence_long.csv")
    expected = Expected(presence, arms, (-10**6, 10**6))
    aggregate = {}
    for group_id, day, cohort, count in read_rows(f"{out_dir}/presence.csv")[1]:
        aggregate[(group_id, int(day), cohort)] = int(count)
    for (group_id, day), _patients in presence.items():
        k_pos, k_neg = expected.day(group_id, day)
        for cohort, count in (("positive", k_pos), ("negative", k_neg)):
            if aggregate.pop((group_id, day, cohort), 0) != count:
                errors.append(f"presence.csv {group_id} day {day} {cohort} != {count}")
    if aggregate:
        errors.append(f"presence.csv: {len(aggregate)} rows absent from presence_long.csv")
    return errors, presence


def check_eval(path: str, n_total: int, n_flipped: int) -> list[str]:
    values = dict(read_rows(path)[1])
    want = f"{(n_total - n_flipped) / n_total:.6f}"
    errors = []
    if values.get("n_total") != str(n_total):
        errors.append(f"eval: n_total {values.get('n_total')}, expected {n_total}")
    if values.get("accuracy") != want:
        errors.append(f"eval: accuracy {values.get('accuracy')}, expected {want}")
    return errors


def check_coexpr(path: str, populations: dict, min_cells=100, min_frac=0.01) -> list[str]:
    """``populations``: (tissue, cell_type) -> (n, sum_a, sum_b, both)."""
    errors = []
    rows = read_rows(path)[1]
    if {(r[0], r[1]) for r in rows} != set(populations) or len(rows) != len(populations):
        errors.append("coexpr: population set differs")
        return errors
    for tissue, cell_type, n_cells, mean_a, mean_b, frac, passes in rows:
        n, sum_a, sum_b, both = populations[(tissue, cell_type)]
        want_frac = f"{both / n:.6f}"
        if int(n_cells) != n or frac != want_frac:
            errors.append(f"coexpr {tissue}/{cell_type}: n {n_cells} frac {frac}, "
                          f"expected {n} {want_frac}")
        if not (math.isclose(float(mean_a), sum_a / n, rel_tol=0, abs_tol=1e-6)
                and math.isclose(float(mean_b), sum_b / n, rel_tol=0, abs_tol=1e-6)):
            errors.append(f"coexpr {tissue}/{cell_type}: means {mean_a} {mean_b}, "
                          f"expected {sum_a / n:.7f} {sum_b / n:.7f}")
        if passes != str(n >= min_cells and both / n >= min_frac).lower():
            errors.append(f"coexpr {tissue}/{cell_type}: passes_filter {passes}")
    return errors
