import io
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail.coexpr import (
    CellInfo,
    ExpressionMatrix,
    coexpression_summary,
    load_triplet_matrix,
    normalize_cp10k,
    write_coexpr_csv,
)
from phenotrail.cli import main
from phenotrail.errors import InputError

from oracles import coexpr_oracle


def cell(i, tissue="lung", cell_type="t2"):
    return CellInfo(f"c{i}", tissue, cell_type)


class TestNormalize:
    def test_zero_count(self):
        assert normalize_cp10k(0, 500) == 0.0

    def test_unit_count(self):
        assert normalize_cp10k(1, 10000) == pytest.approx(math.log(2), rel=1e-12)

    def test_formula_value(self):
        assert normalize_cp10k(5, 2000) == pytest.approx(math.log(26.0), rel=1e-12)
        assert normalize_cp10k(5, 2000) == pytest.approx(3.2581, abs=1e-4)

    def test_configurable_base(self):
        assert normalize_cp10k(5, 2000, log_base=2) == pytest.approx(
            math.log2(26.0), rel=1e-12
        )

    def test_zero_total_rejected(self):
        with pytest.raises(InputError):
            normalize_cp10k(0, 0)

    def test_scale_consistency(self):
        rng = random.Random(4)
        for _ in range(100):
            count = rng.randint(0, 50)
            extra = rng.randint(count, 500)
            total = count + extra
            assert normalize_cp10k(2 * count, 2 * total) == pytest.approx(
                normalize_cp10k(count, total), rel=1e-12
            )


def toy_matrix(cells, entries, genes=("ACE2", "TMPRSS2", "OTHER")):
    return ExpressionMatrix(cells, genes, entries)


class TestSummary:
    def test_four_cell_half_coexpression(self):
        cells = [cell(i) for i in range(4)]
        entries = [
            (0, 0, 3), (0, 1, 2), (0, 2, 5),   # both
            (1, 0, 1), (1, 2, 9),              # a only
            (2, 1, 4), (2, 2, 1),              # b only
            (3, 0, 2), (3, 1, 1), (3, 2, 2),   # both
        ]
        (summary,) = coexpression_summary(
            toy_matrix(cells, entries), "ACE2", "TMPRSS2", min_cells=1, min_frac=0.0
        )
        assert summary.n_cells == 4
        assert summary.frac_coexpress == 0.5
        expected_mean_a = sum(
            normalize_cp10k(k, t) for k, t in ((3, 10), (1, 10), (0, 5), (2, 5))
        ) / 4
        assert summary.mean_a == pytest.approx(expected_mean_a, rel=1e-12)

    def test_min_cells_filter(self):
        cells = [cell(i) for i in range(99)]
        entries = [(i, 0, 1) for i in range(99)] + [(i, 1, 1) for i in range(99)]
        (summary,) = coexpression_summary(toy_matrix(cells, entries), "ACE2", "TMPRSS2")
        assert summary.frac_coexpress == 1.0
        assert not summary.passes_filter  # 99 < 100 cells

    def test_min_frac_filter(self):
        cells = [cell(i) for i in range(200)]
        entries = [(i, 2, 4) for i in range(200)] + [(0, 0, 1), (0, 1, 1)]
        (summary,) = coexpression_summary(toy_matrix(cells, entries), "ACE2", "TMPRSS2")
        assert summary.n_cells == 200
        assert summary.frac_coexpress == pytest.approx(0.005)
        assert not summary.passes_filter

    def test_passing_population(self):
        cells = [cell(i) for i in range(120)]
        entries = []
        for i in range(120):
            entries.append((i, 2, 10))
            if i < 12:
                entries.extend([(i, 0, 2), (i, 1, 3)])
        (summary,) = coexpression_summary(toy_matrix(cells, entries), "ACE2", "TMPRSS2")
        assert summary.passes_filter
        assert summary.frac_coexpress == pytest.approx(0.1)

    def test_all_populations_reported(self):
        cells = [cell(0, "lung", "t2"), cell(1, "gut", "enterocyte")]
        entries = [(0, 0, 1), (0, 1, 1), (1, 2, 1)]
        summaries = coexpression_summary(
            toy_matrix(cells, entries), "ACE2", "TMPRSS2", min_cells=100
        )
        assert [(s.tissue, s.cell_type) for s in summaries] == [
            ("gut", "enterocyte"), ("lung", "t2")
        ]
        assert all(not s.passes_filter for s in summaries)

    def test_unknown_gene(self):
        with pytest.raises(InputError, match="unknown gene"):
            coexpression_summary(
                toy_matrix([cell(0)], [(0, 0, 1)]), "NOPE", "TMPRSS2"
            )

    def test_zero_total_cell_dropped_with_warning(self):
        cells = [cell(0), cell(1)]
        entries = [(0, 0, 1), (0, 1, 1)]
        with pytest.warns(UserWarning, match="zero total"):
            (summary,) = coexpression_summary(
                toy_matrix(cells, entries), "ACE2", "TMPRSS2", min_cells=1
            )
        assert summary.n_cells == 1

    def test_frac_bounded_by_marginals(self):
        rng = random.Random(8)
        cells = [cell(i) for i in range(60)]
        entries = []
        for i in range(60):
            entries.append((i, 2, 1 + rng.randint(0, 5)))
            if rng.random() < 0.5:
                entries.append((i, 0, rng.randint(1, 4)))
            if rng.random() < 0.4:
                entries.append((i, 1, rng.randint(1, 4)))
        matrix = toy_matrix(cells, entries)
        (summary,) = coexpression_summary(matrix, "ACE2", "TMPRSS2", min_cells=1)
        frac_a = len(matrix.gene_counts("ACE2")) / 60
        frac_b = len(matrix.gene_counts("TMPRSS2")) / 60
        assert summary.frac_coexpress <= min(frac_a, frac_b)

    def test_permutation_invariance(self):
        rng = random.Random(15)
        tissues = ["lung", "gut"]
        cells = [
            CellInfo(f"c{i}", rng.choice(tissues), rng.choice(["a", "b"]))
            for i in range(80)
        ]
        entries = [(i, 2, 1) for i in range(80)] + [
            (i, g, rng.randint(1, 9))
            for i in range(80)
            for g in range(2)
            if rng.random() < 0.7
        ]
        base = coexpression_summary(toy_matrix(cells, entries), "ACE2", "TMPRSS2",
                                    min_cells=1)
        perm = list(range(80))
        rng.shuffle(perm)
        inverse = {old: new for new, old in enumerate(perm)}
        shuffled_cells = [cells[i] for i in perm]
        shuffled_entries = [(inverse[c], g, v) for c, g, v in entries]
        shuffled = coexpression_summary(
            toy_matrix(shuffled_cells, shuffled_entries), "ACE2", "TMPRSS2", min_cells=1
        )
        for a, b in zip(base, shuffled):
            assert a.tissue == b.tissue and a.cell_type == b.cell_type
            assert a.n_cells == b.n_cells
            assert a.mean_a == pytest.approx(b.mean_a, rel=1e-12)
            assert a.mean_b == pytest.approx(b.mean_b, rel=1e-12)
            assert a.frac_coexpress == pytest.approx(b.frac_coexpress, rel=1e-12)


MATRIX_TEXT = """\
3 2 4
0 0 5
0 1 5
1 0 2
2 1 8
"""

CELLS_TEXT = """\
cell_id,tissue,cell_type
c0,lung,t2
c1,lung,t2
c2,gut,enterocyte
"""

GENES_TEXT = "ACE2\nTMPRSS2\n"


class TestIO:
    def test_load_triplets(self):
        matrix = load_triplet_matrix(
            io.StringIO(MATRIX_TEXT), io.StringIO(CELLS_TEXT), io.StringIO(GENES_TEXT)
        )
        assert matrix.cell_totals == [10, 2, 8]
        assert matrix.gene_counts("ACE2") == {0: 5, 1: 2}

    def test_header_and_counts_validated(self):
        with pytest.raises(InputError, match="declares"):
            load_triplet_matrix(
                io.StringIO("3 2 9\n0 0 5\n"), io.StringIO(CELLS_TEXT),
                io.StringIO(GENES_TEXT),
            )
        with pytest.raises(InputError, match="bounds"):
            load_triplet_matrix(
                io.StringIO("3 2 1\n9 0 5\n"), io.StringIO(CELLS_TEXT),
                io.StringIO(GENES_TEXT),
            )

    def test_csv_output(self):
        matrix = load_triplet_matrix(
            io.StringIO(MATRIX_TEXT), io.StringIO(CELLS_TEXT), io.StringIO(GENES_TEXT)
        )
        summaries = coexpression_summary(matrix, "ACE2", "TMPRSS2", min_cells=1)
        buffer = io.StringIO()
        write_coexpr_csv(summaries, "ACE2", "TMPRSS2", buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == (
            "tissue,cell_type,n_cells,mean_ACE2,mean_TMPRSS2,frac_coexpress,passes_filter"
        )
        assert len(lines) == 3


class TestColumns:
    def test_totals_are_exact_beyond_int64(self):
        big = 2**62
        matrix = toy_matrix([cell(0), cell(1)], [(0, 0, big), (0, 1, big), (1, 2, 3)])
        assert matrix.cell_totals == [2 * big, 3]
        assert all(type(total) is int for total in matrix.cell_totals)

    def test_duplicates_summed_and_zeros_dropped(self):
        entries = [(0, 0, 2), (1, 0, 0), (0, 0, 5), (1, 1, 4), (1, 0, 1)]
        matrix = toy_matrix([cell(0), cell(1)], entries)
        assert matrix.gene_counts("ACE2") == {0: 7, 1: 1}
        assert matrix.gene_counts("OTHER") == {}
        assert matrix.cell_totals == [7, 5]

    def test_first_bad_entry_is_reported(self):
        with pytest.raises(InputError, match="non-negative"):
            toy_matrix([cell(0)], [(0, 0, 1), (0, 1, -1), (5, 0, 1)])
        with pytest.raises(InputError, match=r"entry \(5, 0\) outside"):
            toy_matrix([cell(0)], [(0, 0, 1), (5, 0, -1), (0, 1, -1)])


GENES = ("ACE2", "TMPRSS2", "OTHER", "SPARE")  # SPARE never has an entry
POPULATIONS = [("lung", "AT2"), ("lung", "club"), ("gut", "enterocyte")]
SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1f"]
BLANKS = ["", "  ", "\t", " \x0c "]


def format_matrix(draw, header, lines):
    """Matrix text with drawn separators, blank lines and line endings."""
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    out = [draw(st.sampled_from(BLANKS)) for _ in range(draw(st.integers(0, 2)))]
    out.append(" ".join(header))
    for fields in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(BLANKS)))
        sep = draw(st.sampled_from(SEPARATORS))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        out.append(lead + sep.join(fields) + trail)
    return ending.join(out) + draw(st.sampled_from([ending, ""]))


@st.composite
def valid_matrices(draw):
    cells = [CellInfo(f"c{i}", *draw(st.sampled_from(POPULATIONS)))
             for i in range(draw(st.integers(1, 10)))]
    count = st.one_of(st.integers(0, 6), st.integers(0, 2**63 - 1))
    entries = draw(st.lists(
        st.tuples(st.integers(0, len(cells) - 1), st.integers(0, 2), count), max_size=40))
    header = [str(len(cells)), str(len(GENES)), str(len(entries))]
    text = format_matrix(draw, header, [[str(v) for v in entry] for entry in entries])
    return text, cells


def package_csv(text, cells, gene_a, gene_b, min_cells, min_frac):
    matrix = load_triplet_matrix(io.StringIO(text), cells, GENES)
    summaries = coexpression_summary(matrix, gene_a, gene_b, min_cells, min_frac)
    buffer = io.StringIO()
    write_coexpr_csv(summaries, gene_a, gene_b, buffer)
    return buffer.getvalue()


def oracle_csv(text, cells, gene_a, gene_b, min_cells, min_frac):
    return coexpr_oracle(io.StringIO(text), cells, GENES, gene_a, gene_b, min_cells, min_frac)


def outcome(run, *args):
    """(csv text, warning messages, InputError message) of one run."""
    csv_text = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            csv_text = run(*args)
        except InputError as exc:
            error = str(exc)
    return csv_text, [str(w.message) for w in caught], error


class TestOracle:
    @given(valid_matrices(), st.sampled_from(GENES), st.sampled_from(GENES),
           st.integers(1, 4), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=300)
    def test_csv_matches_oracle(self, matrix, gene_a, gene_b, min_cells, min_frac):
        args = (*matrix, gene_a, gene_b, min_cells, min_frac)
        oracle = outcome(oracle_csv, *args)
        assert oracle[2] is None
        assert outcome(package_csv, *args) == oracle

    @given(st.data())
    @settings(max_examples=300)
    def test_malformed_ascii_body_matches_oracle(self, data):
        """Both refuse the same ASCII input with the same message, once the
        oracle's non-blank line count is mapped to the physical line."""
        draw = data.draw
        cells = [CellInfo(f"c{i}", "lung", "AT2") for i in range(3)]
        token = st.one_of(
            st.integers(-2, 5).map(str),
            st.sampled_from(["x", "1.0", "1e3", "+", "-", "+2", "-0", "007", "0x1", "--1",
                             "+-2", "1-", '"3"', "3#", "9223372036854775807",
                             "-9223372036854775808", "\x00"]),
        )
        triplet = st.lists(st.integers(-1, 4).map(str), min_size=3, max_size=3)
        lines = draw(st.lists(st.one_of(triplet, triplet, st.lists(token, max_size=4)),
                              max_size=6))
        declared = draw(st.sampled_from([len(lines), len(lines), len(lines) + 1]))
        text = format_matrix(draw, ["3", str(len(GENES)), str(declared)], lines)
        args = (text, cells, "ACE2", "TMPRSS2", 1, 0.0)
        package, oracle = outcome(package_csv, *args), outcome(oracle_csv, *args)
        physical = [n for n, line in enumerate(text.split("\n"), 1) if line.strip()]
        expected = oracle[2] and re.sub(
            r"^matrix line (\d+)", lambda m: f"matrix line {physical[int(m[1]) - 1]}", oracle[2])
        assert package[2] == expected
        assert package[:2] == oracle[:2]

    @pytest.mark.parametrize("line", [
        "0 0 1_000", "0 0 \u0663", "0 0 \uff13", "0 0 9223372036854775808",
        "0\xa00 1", "0\u30000 1", "0 0 1\u2028", "\xa0",
    ], ids=["underscore", "arabic_indic_digit", "fullwidth_digit", "above_int64",
            "nbsp", "ideographic_space", "line_separator", "nbsp_blank_line"])
    def test_spellings_only_the_oracle_accepted(self, tmp_path, capsys, line):
        entries = 2 if line.strip() else 1
        text = f"1 {len(GENES)} {entries}\n\n0 1 1\n{line}\n"
        cells = [CellInfo("c0", "lung", "AT2")]
        assert "ACE2" in oracle_csv(text, cells, "ACE2", "TMPRSS2", 1, 0.0)
        paths = write_inputs(tmp_path, text, cells)
        assert main(coexpr_args(paths, tmp_path / "out")) == 2
        assert "error: matrix line 4: " in capsys.readouterr().err


def write_inputs(directory, matrix_text, cells):
    paths = {name: directory / f"{name}.txt" for name in ("matrix", "cells", "genes")}
    paths["matrix"].write_text(matrix_text, encoding="utf-8")
    paths["cells"].write_text("cell_id,tissue,cell_type\n" + "".join(
        f"{c.cell_id},{c.tissue},{c.cell_type}\n" for c in cells), encoding="utf-8")
    paths["genes"].write_text("\n".join(GENES) + "\n", encoding="utf-8")
    return paths


def coexpr_args(paths, out):
    return ["coexpr", "--matrix", str(paths["matrix"]), "--cells", str(paths["cells"]),
            "--genes", str(paths["genes"]), "--gene-a", "ACE2", "--gene-b", "TMPRSS2",
            "--min-cells", "1", "--out", str(out)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestCliFuzz:
    """Malformed inputs through ``cli.main`` exit 2, never 1."""

    @given(st.lists(st.one_of(
        st.sampled_from(["0 0 1", "1 1 2", "0 3 0", "2 0 7", "", "  "]),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
        st.lists(st.integers(-3, 2**64), max_size=4).map(lambda v: " ".join(map(str, v))),
    ), max_size=8), st.integers(0, 9), st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=200)
    @pytest.mark.filterwarnings("ignore:dropped")
    def test_matrix_body(self, fuzz_dir, lines, declared, ending):
        cells = [CellInfo(f"c{i}", "lung", "AT2") for i in range(3)]
        text = ending.join([f"3 {len(GENES)} {declared}", *lines]) + ending
        paths = write_inputs(fuzz_dir, text, cells)
        assert main(coexpr_args(paths, fuzz_dir / "out")) in (0, 2)
