"""Single-cell co-expression summaries for a pair of genes.

Counts are normalized per cell to counts-per-10k and log-transformed
(ln(cp10k + 1)).  Populations are (tissue, cell_type) groups; each gets
the mean normalized expression of both genes and the fraction of cells
with non-zero RAW counts for both, plus a pass/fail flag against the
minimum-cells and minimum-co-expressing-fraction filters.  All
populations are reported; the flag records the filter outcome.

An ``ExpressionMatrix`` keeps what the summary reads: exact per-cell
totals (int64, or Python ints where an int64 sum could overflow) and the
non-zero entries of the genes it keeps, as three columns: cell and gene
indexes, int32 where the cell and gene counts allow, and int64 counts.
The in-memory constructor keeps every gene; the loader keeps only the
genes it is asked for.  The loader reads the matrix body in blocks of
whole lines, parses each with ``np.loadtxt`` and folds it into the totals
and the kept genes' columns, so past what it keeps it holds about one
block, however many entries the file has.  A gene's per-cell counts are
gathered only when asked for, with duplicate (cell, gene) entries summed.
numpy is imported by the functions that use it, so importing this module
does not load it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from sys import intern
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import InputError, csv_rows, line_blocks, open_text

COEXPR_FILTER_MIN_CELLS = 100
COEXPR_FILTER_MIN_FRAC = 0.01

_INT64_MAX = 2**63 - 1
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
_BODY_BLOCK = 1 << 16  # characters of the matrix body read per block


class CellInfo(NamedTuple):
    cell_id: str
    tissue: str
    cell_type: str


class _Fold:
    """Exact per-cell totals and the non-zero entries of the kept genes
    (``keep`` has a flag per gene, or is None for every gene), folded from
    blocks of int64 (cell, gene, count) rows.  The first bad entry's error
    is kept in ``bad`` and nothing is folded from then on, so an index
    outside the matrix never reaches ``np.add.at`` or the gene filter."""

    def __init__(self, n_cells: int, n_genes: int, keep: Sequence[bool] | None = None):
        import numpy as np

        self.n_cells, self.n_genes = n_cells, n_genes
        self.totals = np.zeros(n_cells, np.int64)
        self.bound = 0  # no total exceeds the sum of each block's largest count times its rows
        self.keep = None if keep is None else np.array(keep, bool)
        cell, gene = (np.int32 if n <= 2**31 else np.int64 for n in (n_cells, n_genes))
        self.columns = (np.empty(0, cell), np.empty(0, gene), np.empty(0, np.int64))
        self.bad: InputError | None = None

    def add(self, rows) -> None:
        import numpy as np

        if self.bad is not None or not len(rows):
            return
        cell, gene, count = rows.T
        self.bad = _first_bad_entry(rows, self.n_cells, self.n_genes)
        if self.bad is not None:
            return
        self.bound += int(count.max()) * len(count)
        if self.bound > _INT64_MAX and self.totals.dtype != object:
            self.totals = self.totals.astype(object)  # an int64 total could overflow
        np.add.at(self.totals, cell, count.astype(self.totals.dtype, copy=False))
        kept = count != 0
        if self.keep is not None:
            kept &= self.keep[gene]
        filled = len(self.columns[2])
        end = filled + int(kept.sum())
        for column, values in zip(self.columns, (cell, gene, count)):
            column.resize(end, refcheck=False)  # in place: never two copies at once
            column[filled:] = values[kept]


class ExpressionMatrix:
    """Sparse non-negative integer counts, cells x genes.

    ``entries`` are (cell_index, gene_index, count) rows: an (n, 3) integer
    array or a sequence of triples.  Every gene is kept: its non-zero
    entries are held as three columns, cell and gene indexes (int32 where
    the cell and gene counts fit) and int64 counts.
    """

    def __init__(self, cells: Sequence[CellInfo], genes: Sequence[str], entries):
        import numpy as np

        self.cells = tuple(cells)
        self.genes = tuple(genes)
        if not isinstance(entries, _Fold):  # the loader folds its blocks as it reads them
            fold = _Fold(len(self.cells), len(self.genes))
            fold.add(np.asarray(entries, dtype=np.int64).reshape(-1, 3))
            entries = fold
        self._gene_index = {g: i for i, g in enumerate(self.genes)}
        if len(self._gene_index) != len(self.genes):
            raise InputError("duplicate gene symbols")
        if entries.bad is not None:
            raise entries.bad
        self._kept = entries.keep
        self._cell_col, self._gene_col, self._count_col = entries.columns
        self.cell_totals: list[int] = entries.totals.tolist()

    def gene_counts(self, gene: str) -> dict[int, int]:
        """Cell index -> summed non-zero count of ``gene``."""
        idx = self._gene_index.get(gene)
        if idx is None:
            raise InputError(f"unknown gene symbol {gene!r}")
        if self._kept is not None and not self._kept[idx]:
            raise InputError(f"gene {gene!r} was not kept when the matrix was loaded")
        rows = (self._gene_col == idx).nonzero()[0]
        counts: dict[int, int] = {}
        for cell, count in zip(self._cell_col[rows].tolist(), self._count_col[rows].tolist()):
            counts[cell] = counts.get(cell, 0) + count
        return counts


def normalize_cp10k(count: int, cell_total: int) -> float:
    """ln(count / cell_total * 10000 + 1)."""
    if cell_total <= 0:
        raise InputError("cell_total must be positive")
    return math.log(count / cell_total * 10000.0 + 1.0)


def _first_bad_entry(rows, n_cells: int, n_genes: int) -> InputError | None:
    """The error of the first of the (cell, gene, count) ``rows`` with an
    index outside the matrix or a negative count, as a row-by-row check
    would report it; None when every entry is good.  The rows are int64,
    so the error names the indexes exactly as they were read."""
    import numpy as np

    cell, gene, count = rows.T
    if rows.min() >= 0 and cell.max() < n_cells and gene.max() < n_genes:
        return None  # a good block costs three reductions, not five masks
    outside = (cell < 0) | (cell >= n_cells) | (gene < 0) | (gene >= n_genes)
    first = np.flatnonzero(outside | (count < 0))[0]
    if outside[first]:
        return InputError(f"entry ({cell[first]}, {gene[first]}) outside matrix bounds")
    return InputError("counts must be non-negative")


@dataclass(frozen=True)
class PopulationSummary:
    tissue: str
    cell_type: str
    n_cells: int
    mean_a: float
    mean_b: float
    frac_coexpress: float
    passes_filter: bool


def check_filters(min_cells: int, min_frac: float) -> None:
    """Refuse a minimum-cells or minimum-co-expressing-fraction filter out of range."""
    if min_cells < 1:
        raise InputError("min_cells must be >= 1")
    if not 0.0 <= min_frac <= 1.0:
        raise InputError("min_frac must lie in [0, 1]")


def coexpression_summary(
    matrix: ExpressionMatrix,
    gene_a: str,
    gene_b: str,
    min_cells: int = COEXPR_FILTER_MIN_CELLS,
    min_frac: float = COEXPR_FILTER_MIN_FRAC,
) -> list[PopulationSummary]:
    """Per-(tissue, cell_type) summary for two genes, deterministic order.

    Cells with a zero total count carry no information and are dropped
    with a warning.  Co-expression is judged on raw counts; means are on
    normalized values.
    """
    check_filters(min_cells, min_frac)
    counts_a = matrix.gene_counts(gene_a)
    counts_b = matrix.gene_counts(gene_b)

    # (tissue, cell_type) -> [n, sum_a, sum_b, both], filled in cell index
    # order, so each population's sums add their terms in that order.
    populations: dict[tuple[str, str], list] = {}
    dropped = 0
    for idx, (cell, total) in enumerate(zip(matrix.cells, matrix.cell_totals)):
        if total == 0:
            dropped += 1
            continue
        acc = populations.get((cell.tissue, cell.cell_type))
        if acc is None:
            acc = populations[(cell.tissue, cell.cell_type)] = [0, 0.0, 0.0, 0]
        raw_a = counts_a.get(idx, 0)
        raw_b = counts_b.get(idx, 0)
        acc[0] += 1
        acc[1] += normalize_cp10k(raw_a, total)
        acc[2] += normalize_cp10k(raw_b, total)
        if raw_a > 0 and raw_b > 0:
            acc[3] += 1
    if dropped:
        warnings.warn(
            f"dropped {dropped} cell(s) with zero total counts", stacklevel=2
        )

    summaries = []
    for (tissue, cell_type), (n, sum_a, sum_b, both) in sorted(populations.items()):
        frac = both / n
        summaries.append(
            PopulationSummary(
                tissue=tissue,
                cell_type=cell_type,
                n_cells=n,
                mean_a=sum_a / n,
                mean_b=sum_b / n,
                frac_coexpress=frac,
                passes_filter=(n >= min_cells and frac >= min_frac),
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# File formats


def load_triplet_matrix(
    matrix_source: IO[str] | str,
    cells_source: IO[str] | str,
    genes_source: IO[str] | str,
    keep_genes: Sequence[str] | None = None,
) -> ExpressionMatrix:
    """Read the sparse triplet matrix plus cell annotations and gene list.

    Matrix format: header line ``n_cells n_genes n_entries`` followed by
    ``cell_index gene_index count`` lines with 0-based indices.  Blank
    lines are skipped.  Body fields are ASCII integers that fit in int64,
    and a malformed body line is reported by its physical line number.
    The cell totals count every entry, but only the genes in
    ``keep_genes`` (every gene where it is None) keep their entries for
    ``gene_counts``.  Errors come in this order: a gene in ``keep_genes``
    that the gene list lacks (before the matrix is opened), bytes that are
    not UTF-8, the first malformed body line, an entry count other than
    the header's, duplicate gene symbols, then the first entry outside the
    matrix or with a negative count.
    """
    cells = _load_cells(cells_source)
    genes = _load_genes(genes_source)
    for gene in keep_genes or ():
        if gene not in genes:
            raise InputError(f"unknown gene symbol {gene!r}")
    opened = (open_text(matrix_source, "matrix") if isinstance(matrix_source, str)
              else nullcontext(matrix_source))
    with opened as handle:
        for header_lineno, header in enumerate(handle, start=1):
            if header.strip():
                break
        else:
            raise InputError("matrix file is empty")
        parts = header.split()
        if len(parts) != 3:
            raise InputError("matrix header must be 'n_cells n_genes n_entries'")
        try:
            n_cells, n_genes, n_entries = (int(p) for p in parts)
        except ValueError:
            raise InputError("matrix header fields must be integers") from None
        if n_cells != len(cells):
            raise InputError(f"matrix declares {n_cells} cells but annotation lists {len(cells)}")
        if n_genes != len(genes):
            raise InputError(f"matrix declares {n_genes} genes but gene list has {len(genes)}")
        keep = None if keep_genes is None else [gene in keep_genes for gene in genes]
        fold = _Fold(n_cells, n_genes, keep)
        _read_body(handle, header_lineno, n_entries, fold)
    return ExpressionMatrix(cells, genes, fold)


def _read_body(handle: IO[str], header_lineno: int, n_entries: int, fold: _Fold) -> None:
    """Fold the matrix lines after the header into ``fold``, block by block.

    A malformed line raises its error at once and a wrong line count
    raises after the last block; the first bad entry's error is left in
    ``fold.bad``.
    """
    filled = 0
    lineno = header_lineno + 1  # the first line of the next block
    blocks = line_blocks(handle, _BODY_BLOCK)
    for block in blocks:
        rows = _parse_lines(block)
        if rows is None:
            error = _body_error(itertools.chain([block], blocks), lineno)
            for _ in iter(lambda: handle.read(_BODY_BLOCK), ""):
                pass  # bytes that are not UTF-8 anywhere in the body are reported first
            raise error
        lineno += block.count("\n")
        fold.add(rows)
        filled += len(rows)
    if filled != n_entries:
        raise InputError(f"matrix declares {n_entries} entries but file has {filled}")


def _parse_lines(text: str):
    """The (n, 3) int64 rows of whole matrix lines, or None where a line is
    malformed.  The text must be ASCII, because numpy's integer parser is
    not strict about other characters."""
    import numpy as np

    if not text.isascii():
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # numpy 1.x parses an integral float such as "1.0" with this warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(io.BytesIO(text.encode("ascii")), dtype=np.int64,
                              comments=None, ndmin=2)
        except (ValueError, DeprecationWarning):
            return None
    if rows.size == 0:
        return rows.reshape(0, 3)
    return rows if rows.shape[1] == 3 else None


def _body_error(blocks: Iterable[str], lineno: int) -> InputError:
    """The error for the first line that ``_parse_lines`` refuses in the text
    ``blocks``, whose first line is line ``lineno`` of the file."""
    for block in blocks:
        for offset, line in enumerate(block.split("\n")):
            fields = line.split()
            if not fields and line.isascii():
                continue
            if len(fields) != 3:
                return InputError(f"matrix line {lineno + offset}: expected 3 fields")
            if not line.isascii() or not all(
                _INT_FIELD.fullmatch(f) and -_INT64_MAX - 1 <= int(f) <= _INT64_MAX
                for f in fields
            ):
                return InputError(f"matrix line {lineno + offset}: fields must be integers")
        lineno += block.count("\n")
    return InputError("matrix body must be 'cell_index gene_index count' lines")


def _load_cells(source: IO[str] | str) -> list[CellInfo]:
    make = tuple.__new__  # skips the NamedTuple's Python-level __new__
    # one string object per distinct tissue and cell type, not one per row
    return [make(CellInfo, (cell_id.strip(), intern(tissue.strip()), intern(cell_type.strip())))
            for _, (cell_id, tissue, cell_type) in csv_rows(source, "cells", CellInfo._fields)]


def _load_genes(source: IO[str] | str) -> list[str]:
    if isinstance(source, str):
        with open_text(source, "genes") as handle:
            return _load_genes(handle)
    return [line.strip() for line in source if line.strip()]


def write_coexpr_csv(
    summaries: Sequence[PopulationSummary],
    gene_a: str,
    gene_b: str,
    stream: IO[str],
) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["tissue", "cell_type", "n_cells", f"mean_{gene_a}", f"mean_{gene_b}",
         "frac_coexpress", "passes_filter"]
    )
    for s in summaries:
        writer.writerow(
            [s.tissue, s.cell_type, s.n_cells, f"{s.mean_a:.6f}", f"{s.mean_b:.6f}",
             f"{s.frac_coexpress:.6f}", str(s.passes_filter).lower()]
        )
