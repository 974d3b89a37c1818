"""Single-cell co-expression summaries for a pair of genes.

Counts are normalized per cell to counts-per-10k and log-transformed
(ln(cp10k + 1)).  Populations are (tissue, cell_type) groups; each gets
the mean normalized expression of both genes and the fraction of cells
with non-zero RAW counts for both, plus a pass/fail flag against the
minimum-cells and minimum-co-expressing-fraction filters.  All
populations are reported; the flag records the filter outcome.

An ``ExpressionMatrix`` holds its triplets as three columns, one row per
entry in file order: cell and gene indexes, int32 where the cell and gene
counts allow, and int64 counts.  The loader reads the matrix body in
blocks of whole lines, parses each with ``np.loadtxt`` and copies its rows
into columns allocated once from the header's entry count, so it holds the
columns (16 bytes an entry) and about one block, not the file.  Cell
totals are exact integer sums: int64, or Python ints where an int64 sum
could overflow.  A gene's per-cell counts are gathered only when asked for,
with duplicate (cell, gene) entries summed.  numpy is imported by the
functions that use it, so importing this module does not load it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass
from sys import intern
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, csv_rows, open_text

COEXPR_FILTER_MIN_CELLS = 100
COEXPR_FILTER_MIN_FRAC = 0.01

_INT64_MAX = 2**63 - 1
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
_BODY_BLOCK = 1 << 16  # characters of the matrix body read per block


class CellInfo(NamedTuple):
    cell_id: str
    tissue: str
    cell_type: str


class _Columns(NamedTuple):
    """Triplet columns and the error of their first bad entry, if any."""

    cell: "np.ndarray"
    gene: "np.ndarray"
    count: "np.ndarray"
    bad: InputError | None


class ExpressionMatrix:
    """Sparse non-negative integer counts, cells x genes.

    ``entries`` are (cell_index, gene_index, count) rows: an (n, 3) integer
    array or a sequence of triples.  They are kept as three columns: cell
    and gene indexes (int32 where the cell and gene counts fit) and int64
    counts.
    """

    def __init__(self, cells: Sequence[CellInfo], genes: Sequence[str], entries):
        import numpy as np

        self.cells = tuple(cells)
        self.genes = tuple(genes)
        n_cells, n_genes = len(self.cells), len(self.genes)
        if not isinstance(entries, _Columns):  # the loader's columns are checked already
            cell_col, gene_col, count_col = np.asarray(entries, dtype=np.int64).reshape(-1, 3).T
            entries = _Columns(
                cell_col.astype(_index_dtype(n_cells)), gene_col.astype(_index_dtype(n_genes)),
                np.ascontiguousarray(count_col),
                _first_bad_entry(cell_col, gene_col, count_col, n_cells, n_genes))
        self._gene_index = {g: i for i, g in enumerate(self.genes)}
        if len(self._gene_index) != len(self.genes):
            raise InputError("duplicate gene symbols")
        if entries.bad is not None:
            raise entries.bad
        self._cell_col, self._gene_col, self._count_col = entries.cell, entries.gene, entries.count
        counts = entries.count
        if counts.size and int(counts.max()) > _INT64_MAX // counts.size:
            counts = counts.astype(object)  # an int64 total could overflow
        totals = np.zeros(n_cells, dtype=counts.dtype)
        np.add.at(totals, entries.cell, counts)
        self.cell_totals: list[int] = totals.tolist()

    def gene_counts(self, gene: str) -> dict[int, int]:
        """Cell index -> summed non-zero count of ``gene``."""
        idx = self._gene_index.get(gene)
        if idx is None:
            raise InputError(f"unknown gene symbol {gene!r}")
        rows = (self._gene_col == idx).nonzero()[0]
        rows = rows[self._count_col[rows] != 0]
        counts: dict[int, int] = {}
        for cell, count in zip(self._cell_col[rows].tolist(), self._count_col[rows].tolist()):
            counts[cell] = counts.get(cell, 0) + count
        return counts


def normalize_cp10k(count: int, cell_total: int) -> float:
    """ln(count / cell_total * 10000 + 1)."""
    if cell_total <= 0:
        raise InputError("cell_total must be positive")
    return math.log(count / cell_total * 10000.0 + 1.0)


def _index_dtype(n: int):
    """int32 where it holds every index below ``n``, else int64."""
    import numpy as np

    return np.int32 if n <= 2**31 else np.int64


def _first_bad_entry(cell, gene, count, n_cells: int, n_genes: int) -> InputError | None:
    """The error of the first entry, in order, with an index outside the
    matrix or a negative count, as a row-by-row check would report it;
    None when every entry is good.  The columns are int64, so the error
    names the indexes exactly as they were read."""
    import numpy as np

    outside = (cell < 0) | (cell >= n_cells) | (gene < 0) | (gene >= n_genes)
    bad = np.flatnonzero(outside | (count < 0))
    if not bad.size:
        return None
    first = bad[0]
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
    if min_cells < 1:
        raise InputError("min_cells must be >= 1")
    if not 0.0 <= min_frac <= 1.0:
        raise InputError("min_frac must lie in [0, 1]")
    counts_a = matrix.gene_counts(gene_a)
    counts_b = matrix.gene_counts(gene_b)

    populations: dict[tuple[str, str], list[int]] = {}
    dropped = 0
    for idx, cell in enumerate(matrix.cells):
        if matrix.cell_totals[idx] == 0:
            dropped += 1
            continue
        populations.setdefault((cell.tissue, cell.cell_type), []).append(idx)
    if dropped:
        warnings.warn(
            f"dropped {dropped} cell(s) with zero total counts", stacklevel=2
        )

    summaries = []
    for (tissue, cell_type), members in sorted(populations.items()):
        n = len(members)
        sum_a = sum_b = 0.0
        both = 0
        for idx in members:
            total = matrix.cell_totals[idx]
            raw_a = counts_a.get(idx, 0)
            raw_b = counts_b.get(idx, 0)
            sum_a += normalize_cp10k(raw_a, total)
            sum_b += normalize_cp10k(raw_b, total)
            if raw_a > 0 and raw_b > 0:
                both += 1
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
) -> ExpressionMatrix:
    """Read the sparse triplet matrix plus cell annotations and gene list.

    Matrix format: header line ``n_cells n_genes n_entries`` followed by
    ``cell_index gene_index count`` lines with 0-based indices.  Blank
    lines are skipped.  Body fields are ASCII integers that fit in int64,
    and a malformed body line is reported by its physical line number.
    Errors come in this order: bytes that are not UTF-8, the first
    malformed body line, an entry count other than the header's,
    duplicate gene symbols, then the first entry outside the matrix or
    with a negative count.
    """
    cells = _load_cells(cells_source)
    genes = _load_genes(genes_source)
    if isinstance(matrix_source, str):
        with open_text(matrix_source, "matrix") as handle:
            return load_triplet_matrix(handle, cells, genes)

    for header_lineno, header in enumerate(matrix_source, start=1):
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
        raise InputError(
            f"matrix declares {n_cells} cells but annotation lists {len(cells)}"
        )
    if n_genes != len(genes):
        raise InputError(
            f"matrix declares {n_genes} genes but gene list has {len(genes)}"
        )
    body = _read_body(matrix_source, header_lineno, n_cells, n_genes, n_entries)
    return ExpressionMatrix(cells, genes, body)


def _read_body(handle: IO[str], header_lineno: int, n_cells: int, n_genes: int,
               n_entries: int) -> _Columns:
    """The columns of the matrix lines after the header, read block by block.

    Each block of whole lines is parsed to int64 rows, checked by the entry
    rules and copied into the columns, which are allocated once: for
    ``n_entries`` rows, or for as many as the file can hold where that is
    fewer, so a header that overstates the count allocates nothing from it.
    A handle of unknown size grows its columns instead.  A malformed line
    raises its error at once and a wrong line count raises after the last
    block; the first bad entry's error is only returned.
    """
    import numpy as np

    capacity = max(0, min(n_entries, _max_lines(handle)))
    columns = [np.empty(capacity, _index_dtype(n_cells)),
               np.empty(capacity, _index_dtype(n_genes)), np.empty(capacity, np.int64)]
    bad = None
    filled = 0
    lineno = header_lineno + 1  # the first line of the next block
    blocks = _line_blocks(handle)
    for block in blocks:
        rows = _parse_lines(block)
        if rows is None:
            error = _body_error(itertools.chain([block], blocks), lineno)
            for _ in iter(lambda: handle.read(_BODY_BLOCK), ""):
                pass  # bytes that are not UTF-8 anywhere in the body are reported first
            raise error
        lineno += block.count("\n")
        end = filled + len(rows)
        if end <= n_entries:  # past it only the count is still needed
            if end > capacity:
                capacity = min(n_entries, max(end, 2 * capacity))
                for column in columns:
                    column.resize(capacity, refcheck=False)
            if bad is None:
                bad = _first_bad_entry(*rows.T, n_cells, n_genes)
            for column, values in zip(columns, rows.T):
                column[filled:end] = values
        filled = end
    if filled != n_entries:
        raise InputError(f"matrix declares {n_entries} entries but file has {filled}")
    return _Columns(*columns, bad)


def _max_lines(handle: IO[str]) -> int:
    """How many body lines the file behind ``handle`` can hold at most: a
    line takes 6 characters or more ("0 0 0" and its newline), and a
    character a byte or more.  0 where the handle has no file size."""
    try:
        return (os.fstat(handle.fileno()).st_size + 1) // 6
    except OSError:
        return 0


def _line_blocks(handle: IO[str]) -> Iterator[str]:
    """The rest of ``handle`` in blocks of whole lines: each read of
    ``_BODY_BLOCK`` characters is cut after its last newline.  The last
    block holds what follows the last newline."""
    pending: list[str] = []
    for block in iter(lambda: handle.read(_BODY_BLOCK), ""):
        cut = block.rfind("\n") + 1
        if not cut:
            pending.append(block)
            continue
        lines = "".join([*pending, block[:cut]])
        pending = [block[cut:]]
        yield lines
    tail = "".join(pending)
    if tail:
        yield tail


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


def _load_cells(source: IO[str] | str | Sequence[CellInfo]):
    if isinstance(source, (list, tuple)):
        return source
    make = tuple.__new__  # skips the NamedTuple's Python-level __new__
    # one string object per distinct tissue and cell type, not one per row
    return [make(CellInfo, (cell_id.strip(), intern(tissue.strip()), intern(cell_type.strip())))
            for _, (cell_id, tissue, cell_type) in csv_rows(source, "cells", CellInfo._fields)]


def _load_genes(source: IO[str] | str | Sequence[str]):
    if isinstance(source, (list, tuple)):
        return source
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
