"""Single-cell co-expression summaries for a pair of genes.

Counts are normalized per cell to counts-per-10k and log-transformed
(ln(cp10k + 1)).  Populations are (tissue, cell_type) groups; each gets
the mean normalized expression of both genes and the fraction of cells
with non-zero RAW counts for both, plus a pass/fail flag against the
minimum-cells and minimum-co-expressing-fraction filters.  All
populations are reported; the flag records the filter outcome.

An ``ExpressionMatrix`` holds its triplets as three int64 columns (cell
index, gene index, count), one row per entry in file order, as one
``np.loadtxt`` pass over the matrix body leaves them.  Cell totals are
exact integer sums: int64, or Python ints where an int64 sum could
overflow.  A gene's per-cell counts are gathered only when asked for,
with duplicate (cell, gene) entries summed.  numpy is imported by the
functions that use it, so importing this module does not load it.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import InputError

COEXPR_FILTER_MIN_CELLS = 100
COEXPR_FILTER_MIN_FRAC = 0.01

_INT64_MAX = 2**63 - 1
_INT_FIELD = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class CellInfo:
    cell_id: str
    tissue: str
    cell_type: str


class ExpressionMatrix:
    """Sparse non-negative integer counts, cells x genes.

    ``entries`` are (cell_index, gene_index, count) rows: an (n, 3) integer
    array or a sequence of triples.
    """

    def __init__(self, cells: Sequence[CellInfo], genes: Sequence[str], entries):
        import numpy as np

        self.cells = tuple(cells)
        self.genes = tuple(genes)
        self._gene_index = {g: i for i, g in enumerate(self.genes)}
        if len(self._gene_index) != len(self.genes):
            raise InputError("duplicate gene symbols")
        n_cells, n_genes = len(self.cells), len(self.genes)
        cell_col, gene_col, count_col = np.asarray(entries, dtype=np.int64).reshape(-1, 3).T
        outside = (cell_col < 0) | (cell_col >= n_cells) | (gene_col < 0) | (gene_col >= n_genes)
        bad = np.flatnonzero(outside | (count_col < 0))
        if bad.size:  # report the first bad entry, as a row-by-row check would
            first = bad[0]
            if outside[first]:
                raise InputError(
                    f"entry ({cell_col[first]}, {gene_col[first]}) outside matrix bounds"
                )
            raise InputError("counts must be non-negative")
        self._cell_col, self._gene_col, self._count_col = cell_col, gene_col, count_col
        counts = count_col
        if counts.size and int(counts.max()) > _INT64_MAX // counts.size:
            counts = counts.astype(object)  # an int64 total could overflow
        totals = np.zeros(n_cells, dtype=counts.dtype)
        np.add.at(totals, cell_col, counts)
        self.cell_totals: list[int] = totals.tolist()

    def gene_counts(self, gene: str) -> dict[int, int]:
        """Cell index -> summed non-zero count of ``gene``."""
        idx = self._gene_index.get(gene)
        if idx is None:
            raise InputError(f"unknown gene symbol {gene!r}")
        rows = (self._gene_col == idx) & (self._count_col != 0)
        counts: dict[int, int] = {}
        for cell, count in zip(self._cell_col[rows].tolist(), self._count_col[rows].tolist()):
            counts[cell] = counts.get(cell, 0) + count
        return counts


def normalize_cp10k(count: int, cell_total: int, log_base: float = math.e) -> float:
    """log(count / cell_total * 10000 + 1); natural log by default."""
    if cell_total <= 0:
        raise InputError("cell_total must be positive")
    value = math.log(count / cell_total * 10000.0 + 1.0)
    if log_base != math.e:
        value /= math.log(log_base)
    return value


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
    log_base: float = math.e,
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
            sum_a += normalize_cp10k(raw_a, total, log_base)
            sum_b += normalize_cp10k(raw_b, total, log_base)
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
    """
    cells = _load_cells(cells_source)
    genes = _load_genes(genes_source)
    if isinstance(matrix_source, str):
        with open(matrix_source, "r", encoding="utf-8") as handle:
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
    entries = _read_body(matrix_source, header_lineno)
    if len(entries) != n_entries:
        raise InputError(
            f"matrix declares {n_entries} entries but file has {len(entries)}"
        )
    return ExpressionMatrix(cells, genes, entries)


def _read_body(handle: IO[str], header_lineno: int):
    """The (n, 3) int64 triplets of the matrix lines after the header.

    The body must be ASCII, because numpy's integer parser is not strict
    about other characters.  A malformed body raises the error of its first
    bad line.
    """
    import numpy as np

    text = handle.read()
    if text.isascii():
        data = io.BytesIO(text.encode("ascii"))
        del text  # hold one copy of the body during the parse
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy 1.x parses an integral float such as "1.0" with this warning
            warnings.simplefilter("error", DeprecationWarning)
            try:
                entries = np.loadtxt(data, dtype=np.int64, comments=None, ndmin=2)
            except (ValueError, DeprecationWarning):
                entries = None
        if entries is not None and (entries.size == 0 or entries.shape[1] == 3):
            return entries.reshape(-1, 3)
        text = data.getvalue().decode("ascii")
    raise _body_error(text, header_lineno)


def _body_error(body: str, header_lineno: int) -> InputError:
    """The error for the first line of ``body`` that ``_read_body`` refuses."""
    for lineno, line in enumerate(body.split("\n"), start=header_lineno + 1):
        fields = line.split()
        if not fields and line.isascii():
            continue
        if len(fields) != 3:
            return InputError(f"matrix line {lineno}: expected 3 fields")
        if not line.isascii() or not all(
            _INT_FIELD.fullmatch(f) and -_INT64_MAX - 1 <= int(f) <= _INT64_MAX
            for f in fields
        ):
            return InputError(f"matrix line {lineno}: fields must be integers")
    return InputError("matrix body must be 'cell_index gene_index count' lines")


def _load_cells(source: IO[str] | str | Sequence[CellInfo]):
    if isinstance(source, (list, tuple)):
        return source
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _load_cells(handle)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("cells file is empty") from None
    if tuple(h.strip() for h in header) != ("cell_id", "tissue", "cell_type"):
        raise InputError("cells header must be 'cell_id,tissue,cell_type'")
    cells = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputError(f"cells line {lineno}: expected 3 fields")
        cells.append(CellInfo(*(f.strip() for f in row)))
    return cells


def _load_genes(source: IO[str] | str | Sequence[str]):
    if isinstance(source, (list, tuple)):
        return source
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
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
