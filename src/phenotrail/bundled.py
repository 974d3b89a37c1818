"""Access to data files shipped inside the package."""

import os

DAILY_REFERENCE = "daily_percentages.csv"
LEXICON = "symptom_lexicon.csv"
PAIR_REFERENCE = "pair_counts.csv"
WEEK_REFERENCE = "cohort_week_counts.csv"
ASSERTION_RULES = "assertion_rules.json"


def data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)
