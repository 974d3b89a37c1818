"""Views of package values that only tests read."""

from __future__ import annotations

from phenotrail.cohort import SymptomPresenceTable
from phenotrail.lexicon import TermMatcher


def cell_patients(table: SymptomPresenceTable, group_id: str, day: int) -> set[str]:
    """The patient ids of one (group, day) cell of ``table``."""
    return table.members(table.presence.get((group_id, day), 0))


def pattern_count(matcher: TermMatcher) -> int:
    """The distinct terms ``matcher`` finds."""
    return len(matcher.terms)
