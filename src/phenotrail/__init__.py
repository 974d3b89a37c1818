"""Clinical-note phenotype curation and temporal enrichment engine."""

__version__ = "0.1.0"

from .assertion import (  # noqa: F401
    AssertionLabel,
    EvalMetrics,
    RuleClassifier,
    evaluate,
)
from .bundled import data_path  # noqa: F401
from .cohort import (  # noqa: F401
    SymptomPresenceTable,
    daily_counts,
    pair_counts,
    window_counts,
    window_presence,
)
from .coexpr import (  # noqa: F401
    ExpressionMatrix,
    coexpression_summary,
    normalize_cp10k,
)
from .errors import InputError  # noqa: F401
from .lexicon import (  # noqa: F401
    Lexicon,
    Mention,
    PhenotypeGroup,
    TermMatcher,
    build_matcher,
    load_default_lexicon,
    load_lexicon,
)
from .stats import (  # noqa: F401
    DailyRow,
    EnrichmentRow,
    PairRow,
    bh_adjust,
    daily_rows,
    enrichment_rows,
    fisher_exact_two_sided,
    pair_rows,
    proportion_test,
    two_tailed_log10_p,
)
from .synth import SynthConfig, calibrate_from_daily_table, generate  # noqa: F401
from .textproc import (  # noqa: F401
    ClinicalNote,
    PatientRecord,
    Roster,
    relative_day,
    segment_sentences,
)
