"""Clinical-note phenotype curation and temporal enrichment engine.

Each submodule below, and each name it exports, is imported on first
access, so a command loads only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "assertion": "AssertionLabel EvalMetrics RuleClassifier evaluate",
    "bundled": "data_path",
    "cohort": "SymptomPresenceTable daily_counts pair_counts window_counts window_presence",
    "coexpr": "ExpressionMatrix coexpression_summary normalize_cp10k",
    "errors": "InputError",
    "lexicon": "Lexicon Mention PhenotypeGroup TermMatcher build_matcher "
               "load_default_lexicon load_lexicon",
    "stats": "DailyRow EnrichmentRow PairRow bh_adjust daily_rows enrichment_rows "
             "fisher_exact_two_sided pair_rows proportion_test two_tailed_log10_p",
    "synth": "SynthConfig calibrate_from_daily_table generate",
    "textproc": "ClinicalNote PatientRecord Roster relative_day segment_sentences",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_MODULE_OF]  # the submodules and their names, as `import *` gave


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_MODULE_OF.get(name, name)}", __name__)
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
