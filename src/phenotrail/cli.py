"""Command-line entry points for the curation and statistics pipeline.

Subcommands: curate, enrich, timeline, pairwise, eval, synth, coexpr.
Every run writes its outputs plus a manifest.json (inputs with SHA-256
digests, the resolved configuration and the argv needed to reproduce
the run) into the --out directory.  Exit codes: 0 success, 2 invalid
input, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import IO, Callable, Iterable, NamedTuple, Sequence

from . import __version__
from . import assertion, cohort, stats, textproc
from .errors import InputError, csv_rows, open_text
from .lexicon import Lexicon, build_matcher, default_lexicon_path, load_lexicon


def _parse_span(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_pipeline_args(parser: argparse.ArgumentParser, inputs=None) -> None:
    """The curation options; ``--notes`` goes into ``inputs``, a group of
    ``parser``, when one is given."""
    (parser if inputs is None else inputs).add_argument("--notes", help="JSON-lines note corpus")
    parser.add_argument("--patients", help="patient roster CSV")
    parser.add_argument("--lexicon", help="phenotype lexicon CSV (default: bundled)")
    parser.add_argument(
        "--template-threshold", type=int, default=cohort.DEFAULT_TEMPLATE_THRESHOLD, metavar="N",
        help="distinct patients before a sentence counts as boilerplate",
    )
    parser.add_argument(
        "--no-template-filter", action="store_true",
        help="keep boilerplate sentences in the analysis",
    )
    parser.add_argument(
        "--include-maybe", action="store_true",
        help="count suspected (MAYBE) mentions as presence",
    )
    parser.add_argument(
        "--day-range", type=_parse_span, default=cohort.DEFAULT_DAY_RANGE,
        metavar="A..B", help="days kept during curation (default -14..14)",
    )
    parser.add_argument("--workers", type=_positive_int, metavar="N", help=(
        "curation processes (default 1, in-process; a pool of N pays off only "
        "past about 100k notes)"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenotrail",
        description="Clinical-note phenotype curation and temporal enrichment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="notes -> symptom presence table")
    _add_pipeline_args(p)
    p.add_argument("--per-patient", action="store_true",
                   help="also export the per-patient long presence table")
    external = p.add_mutually_exclusive_group()  # one use of an external classifier
    external.add_argument("--dump-classification-requests", metavar="PATH",
                          help="write the classifier batch requests and stop")
    external.add_argument("--classification-responses", metavar="PATH",
                          help="use externally produced classifier responses")
    p.add_argument("--out", required=True)

    for name, help_text in (
        ("enrich", "window enrichment table (fold change + z-test)"),
        ("timeline", "per-day enrichment table"),
        ("pairwise", "phenotype-pair co-occurrence table (Fisher + BH)"),
    ):
        p = sub.add_parser(name, help=help_text)
        inputs = p.add_mutually_exclusive_group()  # one source of counts
        _add_pipeline_args(p, inputs)
        p.add_argument(
            "--window", type=_parse_span, default=cohort.DEFAULT_WINDOW,
            metavar="A..B", help="analysis window of relative days (default -7..-1)",
        )
        inputs.add_argument("--from-counts", metavar="PATH",
                            help="skip curation; read pre-tabulated counts")
        inputs.add_argument("--presence", metavar="PATH",
                            help="skip curation; read a per-patient presence export")
        if name == "pairwise":
            p.add_argument("--m-tests", type=int, metavar="N",
                           help="BH family size (default: number of pairs)")
        p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predicted labels against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--config", metavar="PATH", help="synth config JSON")
    p.add_argument("--calibrate-daily", metavar="PATH",
                   help="daily percentage table to calibrate from")
    p.add_argument("--n-pos", type=int)
    p.add_argument("--n-neg", type=int)
    p.add_argument("--negation-rate", type=float, default=0.0)
    p.add_argument("--uncertainty-rate", type=float, default=0.0)
    p.add_argument("--other-rate", type=float, default=0.0)
    p.add_argument("--template-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lexicon", help="phenotype lexicon CSV (default: bundled)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("coexpr", help="two-gene co-expression summary")
    p.add_argument("--matrix", required=True, help="sparse triplet counts")
    p.add_argument("--cells", required=True, help="cell annotation CSV")
    p.add_argument("--genes", required=True, help="gene symbol list")
    p.add_argument("--gene-a", required=True)
    p.add_argument("--gene-b", required=True)
    p.add_argument("--min-cells", type=int)  # defaults: coexpr.COEXPR_FILTER_*
    p.add_argument("--min-frac", type=float)
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# Manifest


def _sha256(path: str) -> str:
    import hashlib  # loads OpenSSL, about 3 MB: not before the outputs are written

    digest = hashlib.sha256()
    with open(path, "rb") as handle:  # blocks under malloc's mmap threshold reuse one buffer
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: str,
    argv: Sequence[str],
    inputs: Iterable[str],
    outputs: Iterable[str],
    config: dict,
) -> None:
    """Write manifest.json.  Its digests load OpenSSL (about 3.5 MB, held until
    the process exits), so callers first let go of their inputs' in-memory forms."""
    manifest = {
        "tool": "phenotrail",
        "version": __version__,
        "argv": list(argv),
        "inputs": {path: _sha256(path) for path in sorted(set(inputs))},
        "outputs": sorted(outputs),
        "config": config,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def rerun_from_manifest(manifest_path: str, out_dir: str) -> int:
    """Re-execute the run recorded in a manifest into a fresh out dir.

    Raises InputError, naming the path, when a recorded input cannot be
    read or no longer has its recorded SHA-256 digest.
    """
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for path, digest in manifest["inputs"].items():
        try:
            actual = _sha256(path)
        except OSError as exc:
            raise InputError(f"manifest input {path!r} cannot be read ({exc.strerror})") from None
        if actual != digest:
            raise InputError(f"manifest input {path!r} changed since the run (SHA-256 differs)")
    argv = list(manifest["argv"])
    for i, arg in enumerate(argv):
        if arg == "--out":
            argv[i + 1] = out_dir
        elif arg.startswith("--out="):
            argv[i] = f"--out={out_dir}"
    return run(argv)


# ---------------------------------------------------------------------------
# Shared pipeline plumbing


def _load_lexicon_arg(args: argparse.Namespace) -> tuple[Lexicon, str]:
    """The --lexicon file, or the bundled one, and its path."""
    path = args.lexicon or default_lexicon_path()
    return load_lexicon(path), path


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise InputError(f"missing required arguments: {', '.join(missing)}")


def _curate_table(args: argparse.Namespace, lexicon: Lexicon):
    """Run notes+patients through curation; returns (table, rejects), or
    (None, None) once --dump-classification-requests has written its file."""
    if args.no_template_filter and args.template_threshold != cohort.DEFAULT_TEMPLATE_THRESHOLD:
        raise InputError("--template-threshold applies only with the template filter, "
                         "not with --no-template-filter")
    _require(args, "notes", "patients")
    args.workers = args.workers or 1  # resolved here, so that the manifest records it
    if args.workers > 1:
        import multiprocessing  # only the pool needs it; keeps CLI start-up lean

        if "fork" not in multiprocessing.get_all_start_methods():
            raise InputError(f"--workers {args.workers} needs the fork start method, "
                             "which this platform lacks; use --workers 1")
    # Compiled while the heap is small, so collections stay cheap.
    matcher = build_matcher(lexicon)
    roster = textproc.load_patients(args.patients)
    dump_path = getattr(args, "dump_classification_requests", None)
    responses_path = getattr(args, "classification_responses", None)
    # An external classifier labels the mentions once the pass has
    # numbered them; until then each stays a task.
    classifier = None if dump_path or responses_path else assertion.RuleClassifier()
    with open_text(args.notes, "notes") as lines:
        curation = cohort.curate_notes(
            lines,
            roster,
            matcher,
            classifier,
            template_threshold=None if args.no_template_filter else args.template_threshold,
            day_range=args.day_range,
            include_maybe=args.include_maybe,
            workers=args.workers,
        )
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as handle:
            assertion.write_classification_requests(curation.requests(), handle)
        return None, None
    if responses_path:
        responses = assertion.read_classification_responses(responses_path, len(curation.tasks))
        curation.replay(responses, args.include_maybe)
    return curation.table(roster, args.day_range, lexicon.group_ids), curation.rejects()


def _reject_curation_options(args: argparse.Namespace) -> None:
    """A --presence or --from-counts run curates nothing, and a --from-counts
    run reads no roster or lexicon and no days: such an option would be
    silently ignored."""
    source = "--presence" if args.presence else "--from-counts"
    curating, reading = "when curating --notes", "with --notes or --presence"
    for option, given, applies in (
        ("--include-maybe", args.include_maybe, curating),
        ("--no-template-filter", args.no_template_filter, curating),
        ("--workers", args.workers is not None, curating),
        ("--template-threshold",
         args.template_threshold != cohort.DEFAULT_TEMPLATE_THRESHOLD, curating),
        ("--patients", args.from_counts and args.patients is not None, reading),
        ("--lexicon", args.from_counts and args.lexicon is not None, reading),
        ("--window", args.from_counts and args.window != cohort.DEFAULT_WINDOW, reading),
        ("--day-range", args.from_counts and args.day_range != cohort.DEFAULT_DAY_RANGE,
         reading),
    ):
        if given:
            raise InputError(f"{option} applies only {applies}, not with {source}")


def _presence_table(args: argparse.Namespace):
    """Table from the --presence export or by curating notes, over the
    lexicon's groups; returns (table, display names, input files)."""
    lexicon, lexicon_path = _load_lexicon_arg(args)
    if args.presence:
        _require(args, "patients")
        roster = textproc.load_patients(args.patients)
        table = cohort.load_presence_long_csv(
            args.presence, roster, args.day_range, lexicon.group_ids
        )
        source = args.presence
    else:
        table, _rejects = _curate_table(args, lexicon)
        source = args.notes
    return table, lexicon.display_names, [source, args.patients, lexicon_path]


# ---------------------------------------------------------------------------
# Pre-tabulated count files


def _read_counts_csv(path: str, required: Sequence[str]) -> list[tuple[int, dict[str, str]]]:
    """(line, row by column name) per row, but those all blank, as spreadsheets leave them."""
    rows = csv_rows(path, "counts")
    _, header = next(rows)
    columns = [name.strip() for name in header]
    missing = [c for c in required if c not in columns]
    if missing:
        raise InputError(f"{path}: missing columns {missing}")
    return [(lineno, dict(zip(columns, fields)))
            for lineno, fields in rows if any(f.strip() for f in fields)]


def _field(row: dict[str, str], key: str, lineno: int, kind: type = int):
    try:
        value = kind(row[key])
    except (KeyError, ValueError, TypeError):
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "integer" if kind is int else "number"
        raise InputError(f"counts line {lineno}: bad {what} in column {key!r}: {row.get(key)!r}")
    return value


def _bounded(row: dict[str, str], key: str, lineno: int, top: int | None, kind: type = int):
    """``row[key]``: a count or percentage in [0, ``top``], or with ``top``
    None a cohort size above 0."""
    value = _field(row, key, lineno, kind)
    if top is None and value < 1:
        raise InputError(f"counts line {lineno}: cohort sizes must be positive, got {key} {value}")
    if top is not None and not 0 <= value <= top:
        raise InputError(f"counts line {lineno}: {key} {value} outside [0, {top}]")
    return value


def _uniform_totals(rows, path) -> tuple[int, int]:
    """The pos_total and neg_total that every row repeats."""
    totals = None
    for lineno, row in rows:
        these = tuple(_bounded(row, key, lineno, None) for key in ("pos_total", "neg_total"))
        totals = totals or these
        if these != totals:
            raise InputError(f"counts line {lineno}: pos_total/neg_total must be uniform")
    if totals is None:
        raise InputError(f"{path}: no count rows")
    return totals


def derive_count(pct: float, total: int, lineno: int) -> int:
    """Recover an integer count from the percentage printed on a line."""
    try:
        count = pct * total / 100.0
    except OverflowError:  # a total beyond the float range
        count = math.inf
    if not math.isfinite(count):
        raise InputError(f"counts line {lineno}: {pct}% of {total} is not a count")
    return round(count)


def _enrichment_counts(row, lineno, n_pos, n_neg) -> tuple[str, int, int]:
    return (row["phenotype"],
            _bounded(row, "pos_count", lineno, n_pos),
            _bounded(row, "neg_count", lineno, n_neg))


def _daily_counts(row, lineno, n_pos, n_neg) -> tuple[str, int, int, int]:
    """Counts, or counts recovered from the percentages when absent."""
    day = _field(row, "day", lineno)
    if row.get("pos_count"):
        k_pos = _bounded(row, "pos_count", lineno, n_pos)
        k_neg = _bounded(row, "neg_count", lineno, n_neg)
    else:
        k_pos = derive_count(_bounded(row, "pos_pct", lineno, 100, float), n_pos, lineno)
        k_neg = derive_count(_bounded(row, "neg_pct", lineno, 100, float), n_neg, lineno)
    return (row["phenotype"], day, k_pos, k_neg)


def _pair_counts(row, lineno, n_pos, n_neg) -> tuple[str, str, int, int]:
    return (row["phenotype_a"], row["phenotype_b"],
            _bounded(row, "pos_count", lineno, n_pos),
            _bounded(row, "neg_count", lineno, n_neg))


# ---------------------------------------------------------------------------
# Table writers


def _write_table(columns, rows, names, n_pos, n_neg, stream: IO[str]) -> None:
    """One CSV row per stats row, one field per column of a ``_Table``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([header.format(n_pos=n_pos, n_neg=n_neg) for header, _, _ in columns])
    for row in rows:
        fields = []
        for _header, attr, render in columns:
            value = getattr(row, attr)
            fields.append(names.get(value, value) if render is None else render(value))
        writer.writerow(fields)


def _write_metrics_csv(metrics: assertion.EvalMetrics, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["metric", "value"])
    writer.writerow(["n_total", metrics.n_total])
    for name in ("accuracy", "tpr", "fpr", "fnr"):
        writer.writerow([name, f"{getattr(metrics, name):.6f}"])
    for label, (precision, recall, f1) in sorted(
        metrics.per_label.items(), key=lambda kv: kv[0].value
    ):
        writer.writerow([f"precision_{label.value}", f"{precision:.6f}"])
        writer.writerow([f"recall_{label.value}", f"{recall:.6f}"])
        writer.writerow([f"f1_{label.value}", f"{f1:.6f}"])


def _out_file(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_curate(args, argv) -> int:
    if args.dump_classification_requests:
        for option, given in (("--include-maybe", args.include_maybe),
                              ("--per-patient", args.per_patient)):
            if given:
                raise InputError(f"{option} applies only when the presence tables are "
                                 "written, not with --dump-classification-requests")
    lexicon, lexicon_path = _load_lexicon_arg(args)
    table, rejects = _curate_table(args, lexicon)
    if table is None:  # --dump-classification-requests mode
        return 0
    with open(_out_file(args.out, "presence.csv"), "w", encoding="utf-8") as handle:
        cohort.write_presence_csv(table, handle)
    with open(_out_file(args.out, "rejects.csv"), "w", encoding="utf-8") as handle:
        cohort.write_rejects_csv(rejects, handle)
    outputs = ["presence.csv", "rejects.csv"]
    if args.per_patient:
        with open(_out_file(args.out, "presence_long.csv"), "w", encoding="utf-8") as handle:
            cohort.write_presence_long_csv(table, handle)
        outputs.append("presence_long.csv")
    del table, rejects
    inputs = [args.notes, args.patients, lexicon_path]
    write_manifest(args.out, argv, inputs, outputs, _pipeline_config(args))
    return 0


def _pipeline_config(args) -> dict:
    return {
        "day_range": list(args.day_range),
        "template_threshold": args.template_threshold,
        "template_filter": not args.no_template_filter,
        "include_maybe": args.include_maybe,
        "workers": args.workers,
        "lexicon": args.lexicon or "bundled",
    }


class _Table(NamedTuple):
    """What one statistics table command needs beyond the shared steps."""

    output: str
    required: tuple[str, ...]  # required --from-counts columns
    parse: Callable  # (counts row, its line, n_pos, n_neg) -> counts tuple
    # Names, looked up as a command runs, so a rebound module function is called.
    presence_counts: str  # cohort's (presence table, window) -> counts
    build: str  # stats' (counts, n_pos, n_neg, **options) -> stats rows
    # (header, stats row attribute, render) per output column; a header
    # may name {n_pos} and {n_neg}; render None prints a group's name.
    columns: tuple[tuple[str, str, Callable | None], ...]


_FRACTION = stats.format_fraction
_RATIO = stats.format_ratio

_TABLES = {
    "enrich": _Table(
        "enrichment.csv",
        ("phenotype", "pos_total", "neg_total", "pos_count", "neg_count"),
        _enrichment_counts, "window_counts", "enrichment_rows",
        (("Phenotype", "group_id", None),
         ("COVID+ count (N={n_pos})", "k_pos", str),
         ("COVID- count (N={n_neg})", "k_neg", str),
         ("COVID+ proportion (N={n_pos})", "p_pos", _FRACTION),
         ("COVID- proportion (N={n_neg})", "p_neg", _FRACTION),
         ("(COVID+/COVID-) relative ratio", "ratio", _RATIO),
         ("2-tailed p-value", "log10_p", stats.format_p)),
    ),
    "timeline": _Table(
        "timeline.csv",
        ("phenotype", "day", "pos_total", "neg_total"),
        _daily_counts, "daily_counts", "daily_rows",
        (("Phenotype", "group_id", None),
         ("Day", "day", str),
         ("COVID+ % (n={n_pos})", "pct_pos", _FRACTION),
         ("COVID- % (n={n_neg})", "pct_neg", _FRACTION),
         ("Ratio (Positive/Negative)", "ratio", _RATIO),
         ("p-value", "log10_p", stats.format_p)),
    ),
    "pairwise": _Table(
        "pairwise.csv",
        ("phenotype_a", "phenotype_b", "pos_total", "neg_total", "pos_count", "neg_count"),
        _pair_counts, "pair_counts", "pair_rows",
        (("Phenotype 1", "group_a", None),
         ("Phenotype 2", "group_b", None),
         ("COVID+ count (N={n_pos})", "k_pos", str),
         ("COVID- count (N={n_neg})", "k_neg", str),
         ("COVID+ % (N={n_pos})", "pct_pos", _FRACTION),
         ("COVID- % (N={n_neg})", "pct_neg", _FRACTION),
         ("(COVID+)/(COVID-) ratio", "ratio", _RATIO),
         ("raw p-value", "log10_p_raw", stats.format_p),
         ("BH-corrected p-value", "log10_p_adjusted", stats.format_p)),
    ),
}


def _cmd_table(args, argv) -> int:
    """enrich, timeline and pairwise: one input's counts -> rows -> CSV."""
    spec = _TABLES[args.command]
    # First, so that a window outside --day-range gives this error on every input path.
    cohort.check_window(args.window, args.day_range)
    if args.presence or args.from_counts:
        _reject_curation_options(args)
    if args.from_counts:
        rows_in = _read_counts_csv(args.from_counts, spec.required)
        n_pos, n_neg = _uniform_totals(rows_in, args.from_counts)
        counts = [spec.parse(row, lineno, n_pos, n_neg) for lineno, row in rows_in]
        names: dict[str, str] = {}  # labels print as read
        inputs = [args.from_counts]
    else:
        table, names, inputs = _presence_table(args)
        sizes = table.cohort_sizes
        n_pos, n_neg = sizes[cohort.POSITIVE], sizes[cohort.NEGATIVE]
        counts = getattr(cohort, spec.presence_counts)(table, args.window)
        del table
    options = {}
    if args.command == "pairwise":
        # The BH family size, resolved so that the manifest records it.
        options["m_tests"] = len(counts) if args.m_tests is None else args.m_tests
    rows = getattr(stats, spec.build)(counts, n_pos, n_neg, **options)
    with open(_out_file(args.out, spec.output), "w", encoding="utf-8") as handle:
        _write_table(spec.columns, rows, names, n_pos, n_neg, handle)
    write_manifest(args.out, argv, inputs, [spec.output],
                   {**_pipeline_config(args), "window": list(args.window), **options})
    return 0


def _cmd_eval(args, argv) -> int:
    gold = assertion.load_gold_labels(args.gold)
    # The pred rows are paired with gold's labels in pred order.  A paired
    # gold key's label becomes None, so that a repeat of it is a duplicate.
    gold_labels, pred_labels, extra = [], [], set()
    for lineno, key, label in assertion.label_rows(args.pred, "pred"):
        expected = gold.get(key)
        if key in extra or (expected is None and key in gold):
            raise InputError(f"pred line {lineno}: duplicate key {key}")
        if expected is None:
            extra.add(key)
        else:
            gold_labels.append(expected)
            pred_labels.append(label)
            gold[key] = None
    missing = sum(label is not None for label in gold.values())
    if missing or extra:
        raise InputError(f"gold/pred key mismatch: {missing} missing, {len(extra)} extra")
    metrics = assertion.evaluate(gold_labels, pred_labels)
    del gold, gold_labels, pred_labels
    with open(_out_file(args.out, "metrics.csv"), "w", encoding="utf-8") as handle:
        _write_metrics_csv(metrics, handle)
    write_manifest(args.out, argv, [args.gold, args.pred], ["metrics.csv"], {})
    return 0


def _resolve_calibration_rows(path: str, lexicon: Lexicon):
    rows_in = _read_counts_csv(path, ["phenotype", "day", "pos_pct", "neg_pct"])
    reverse = {name: gid for gid, name in lexicon.display_names.items()}
    known = set(lexicon.group_ids)
    rows = []
    for lineno, row in rows_in:
        label = row["phenotype"].strip()
        group_id = reverse.get(label, label if label in known else None)
        if group_id is None:
            raise InputError(f"counts line {lineno}: unknown phenotype {label!r}")
        rows.append(
            (group_id,
             _field(row, "day", lineno),
             _bounded(row, "pos_pct", lineno, 100, float),
             _bounded(row, "neg_pct", lineno, 100, float))
        )
    return rows


def _cmd_synth(args, argv) -> int:
    from . import synth  # here, so that the other commands need not compile or load it

    lexicon, lexicon_path = _load_lexicon_arg(args)
    if args.config:
        config = synth.SynthConfig.from_json(args.config)
        inputs = [args.config]
    else:
        _require(args, "calibrate_daily", "n_pos", "n_neg")
        rows = _resolve_calibration_rows(args.calibrate_daily, lexicon)
        # Every config field but day_probs comes from the option of its name.
        config = synth.calibrate_from_daily_table(rows, **{
            field.name: getattr(args, field.name)
            for field in dataclasses.fields(synth.SynthConfig) if field.name != "day_probs"
        })
        inputs = [args.calibrate_daily]
    inputs.append(lexicon_path)

    corpus = synth.generate(config, lexicon)
    with open(_out_file(args.out, "notes.jsonl"), "w", encoding="utf-8") as handle:
        synth.write_notes_jsonl(corpus.notes, handle)
    with open(_out_file(args.out, "patients.csv"), "w", encoding="utf-8") as handle:
        synth.write_patients_csv(corpus.patients, handle)
    with open(_out_file(args.out, "gold_labels.csv"), "w", encoding="utf-8") as handle:
        assertion.write_gold_labels(corpus.gold, handle)
    with open(_out_file(args.out, "synth_config.json"), "w", encoding="utf-8") as handle:
        config.to_json(handle)
    write_manifest(
        args.out, argv, inputs,
        ["notes.jsonl", "patients.csv", "gold_labels.csv", "synth_config.json"],
        {"seed": config.seed, "n_pos": config.n_pos, "n_neg": config.n_neg},
    )
    return 0


def _cmd_coexpr(args, argv) -> int:
    from . import coexpr

    if args.min_cells is None:  # resolved here, so that the manifest records it
        args.min_cells = coexpr.COEXPR_FILTER_MIN_CELLS
    if args.min_frac is None:
        args.min_frac = coexpr.COEXPR_FILTER_MIN_FRAC
    coexpr.check_filters(args.min_cells, args.min_frac)  # before the matrix is read
    matrix = coexpr.load_triplet_matrix(args.matrix, args.cells, args.genes,
                                        keep_genes=(args.gene_a, args.gene_b))
    summaries = coexpr.coexpression_summary(
        matrix, args.gene_a, args.gene_b,
        min_cells=args.min_cells, min_frac=args.min_frac,
    )
    del matrix  # the cells and totals are freed before the manifest's hashlib loads
    with open(_out_file(args.out, "coexpr.csv"), "w", encoding="utf-8") as handle:
        coexpr.write_coexpr_csv(summaries, args.gene_a, args.gene_b, handle)
    write_manifest(
        args.out, argv, [args.matrix, args.cells, args.genes], ["coexpr.csv"],
        {"gene_a": args.gene_a, "gene_b": args.gene_b,
         "min_cells": args.min_cells, "min_frac": args.min_frac},
    )
    return 0


_COMMANDS = {
    "curate": _cmd_curate,
    "enrich": _cmd_table,
    "timeline": _cmd_table,
    "pairwise": _cmd_table,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "coexpr": _cmd_coexpr,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute; raises on error (tests call this directly)."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, list(argv))


def main(argv: Sequence[str] | None = None) -> int:
    # Before any command imports numpy: nothing here calls BLAS, so OpenBLAS
    # would start a thread per CPU for nothing.  A user's own value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(argv)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse errors use code 2 already
        return int(exc.code or 0)
    except Exception:
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
