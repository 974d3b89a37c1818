"""Run one phenotrail CLI command with its layers timed from outside.

Usage: python3 bench/tracer.py TRACE_JSON CLI_ARGS...

The package is imported first (import cost is measured separately by the
benchmark), then every binding of the functions in TARGETS is replaced by
a timing wrapper: the module attribute, every by-name import of it in the
other phenotrail modules, and the class attribute for methods.  The CLI
then runs exactly as ``python -m phenotrail.cli CLI_ARGS`` would, and the
trace is written to TRACE_JSON when it returns.

Hot leaf calls (HOT) are only aggregated: count, total and self time per
(parent, name) edge.  Every other call is also kept as a span
``[id, parent_id, name, start_s, end_s]``.  Self time is a call's
duration minus the time spent in wrapped calls it made.  A call to a
function that is already the innermost open frame (the loaders call
themselves to go from path to handle) runs unrecorded inside that frame.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "textproc": (
        "load_notes", "load_patients", "segment_sentences", "fingerprint",
        "collect_fingerprint_patients", "merge_fingerprint_tables",
    ),
    "lexicon": ("load_lexicon", "build_matcher", "TermMatcher.find_mentions"),
    "assertion": (
        "RuleClassifier.classify", "evaluate", "load_gold_labels",
        "write_gold_labels",
    ),
    "cohort": (
        "corpus_fingerprints", "build_presence", "window_presence",
        "daily_counts", "pair_counts", "write_presence_csv",
        "write_presence_long_csv", "write_rejects_csv",
        "load_presence_long_csv",
    ),
    "tables": ("enrichment_table", "daily_table", "pairwise_table"),
    "stats": (
        "proportion_test", "fisher_exact_two_sided", "bh_adjust",
        "enrichment_rows", "daily_rows", "pair_rows",
    ),
    "coexpr": ("load_triplet_matrix", "coexpression_summary", "write_coexpr_csv"),
    "synth": (
        "calibrate_from_daily_table", "generate", "write_notes_jsonl",
        "write_patients_csv",
    ),
    "cli": ("main", "write_manifest"),
}

HOT = frozenset({
    "textproc.segment_sentences", "textproc.fingerprint",
    "lexicon.find_mentions", "assertion.classify",
    "stats.proportion_test", "stats.fisher_exact_two_sided",
})


def _presence_entries(result) -> int:
    table = result[0] if isinstance(result, tuple) else result
    presence = getattr(table, "presence", None)
    if not isinstance(presence, dict):
        return 0
    return sum(len(patients) for patients in presence.values())


# Counts taken from a layer's return value at its boundary.
COUNTERS = {
    "textproc.load_notes": ("textproc.notes", len),
    "textproc.segment_sentences": ("textproc.sentences", len),
    "lexicon.find_mentions": ("lexicon.mentions", len),
    "assertion.classify": ("assertion.yes", lambda r: r[0].name == "YES"),
    "cohort.build_presence": ("cohort.presence_entries", _presence_entries),
    "cohort.load_presence_long_csv": ("cohort.presence_entries", _presence_entries),
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child_seconds, span_id]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        stack, edges, spans, counters = self.stack, self.edges, self.spans, self.counters
        clock, origin = time.perf_counter, self.origin
        hot = name in HOT
        counter, measure = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = None
            if not hot:
                span_id = len(spans)
                spans.append([span_id, stack[-1][2] if stack else None, name, 0.0, 0.0])
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += elapsed
                entry = edges.get((parent, name))
                if entry is None:
                    entry = edges[(parent, name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if span_id is not None:
                    spans[span_id][3:] = [start - origin, start - origin + elapsed]
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + int(measure(result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each target; a target that is gone reads 0."""
        originals: dict[int, tuple] = {}
        for mod, targets in TARGETS.items():
            try:
                module = importlib.import_module(f"phenotrail.{mod}")
            except ImportError:
                continue
            for target in targets:
                cls_name, _, attr = target.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(f"{mod}.{attr}", original)
                if cls_name:
                    setattr(owner, attr, wrapped)
                else:
                    originals[id(original)] = (original, wrapped)
        loaded = [m for key, m in sys.modules.items() if key.startswith("phenotrail")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "exit_code": exit_code,
            "edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from phenotrail import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
