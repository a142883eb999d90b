import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from agvoice.errors import DimMismatch, LabelMismatch, ZeroNorm
from agvoice.evaluation import (
    CSV_BLOCK_ROWS,
    CSV_CHUNK_CELLS,
    SimilarityMatrix,
    abx_select,
    cosine,
    cross_similarity,
    diagonal_dominance,
    matrix_to_csv,
    matrix_to_pgm,
)
from oracles import loop_cosine, loop_csv_row


def written(write, m):
    """The bytes `write` (matrix_to_csv or matrix_to_pgm) writes to a binary file for `m`."""
    f = io.BytesIO()
    write(m, f)
    return f.getvalue()


class TestCosine:
    def test_self_similarity_one(self, rng):
        x = rng.standard_normal(6)
        assert abs(cosine(x, x) - 1.0) < 1e-12

    def test_orthogonal_zero(self):
        assert abs(cosine([1.0, 0.0], [0.0, 1.0])) < 1e-12

    def test_closed_form(self):
        assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 1.0 / np.sqrt(2)) < 1e-12

    def test_scale_invariant(self, rng):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert abs(cosine(7.3 * a, b) - cosine(a, b)) < 1e-12

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["norm_overflows", "norm_underflows"])
    def test_extreme_magnitudes(self, scale):
        # the squares overflow to inf or underflow to 0 unless the rows are rescaled first
        x = [scale, scale]
        assert abs(cosine(x, x) - 1.0) < 1e-12
        assert abs(cosine(x, [scale, 0.0]) - 1.0 / np.sqrt(2)) < 1e-12


class TestCrossSimilarity:
    def test_self_matrix_unit_diagonal(self, rng):
        vecs = [rng.standard_normal(4) for _ in range(3)]
        values = cross_similarity(vecs, vecs).values[:]
        assert np.allclose(np.diag(values), 1.0, atol=1e-12)
        assert np.allclose(values, values.T, atol=1e-12)

    def test_orthonormal_identity(self):
        vecs = [np.eye(2)[0], np.eye(2)[1]]
        m = cross_similarity(vecs, vecs)
        assert np.allclose(m.values[:], np.eye(2), atol=1e-12)

    def test_matches_pairwise_loop(self, rng):
        rows = [rng.standard_normal(5) for _ in range(3)]
        cols = [rng.standard_normal(5) for _ in range(3)]
        values = cross_similarity(rows, cols).values[:]
        for i in range(3):
            for j in range(3):
                assert abs(values[i, j] - loop_cosine(rows[i], cols[j])) < 1e-12

    def test_rectangular_wide_magnitudes_match_loop(self, rng):
        rows = [rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3) for _ in range(7)]
        cols = [rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3) for _ in range(5)]
        m = cross_similarity(rows, cols)
        assert m.values.shape == (7, 5)
        want = np.array([[loop_cosine(r, c) for c in cols] for r in rows])
        assert np.max(np.abs(m.values[:] - want)) < 1e-12

    @pytest.mark.parametrize(
        "rows",
        [
            [np.ones(3), np.ones(4)],
            [np.ones(2), np.eye(2)],
            [np.eye(2)],
            [np.float64(1.0), np.float64(2.0)],
            [],
        ],
        ids=["ragged", "two_d_row", "only_two_d_row", "scalars", "empty"],
    )
    def test_bad_rows_dim_mismatch(self, rows):
        with pytest.raises(DimMismatch):
            cross_similarity(rows, rows)

    def test_row_col_dims_differ(self):
        with pytest.raises(DimMismatch):
            cross_similarity([np.ones(3)], [np.ones(4)])

    def test_zero_row(self):
        with pytest.raises(ZeroNorm):
            cross_similarity([np.ones(3), np.zeros(3)], [np.ones(3)])

    def test_transpose_property(self, rng):
        rows = [rng.standard_normal(4) for _ in range(2)]
        cols = [rng.standard_normal(4) for _ in range(3)]
        a = cross_similarity(rows, cols).values[:]
        b = cross_similarity(cols, rows).values[:]
        assert np.max(np.abs(a - b.T)) < 1e-12

    def test_entries_bounded(self, rng):
        vecs = [rng.standard_normal(6) * 10.0 ** rng.integers(-3, 3) for _ in range(5)]
        m = cross_similarity(vecs, vecs)
        assert (np.abs(m.values[:]) <= 1.0 + 1e-12).all()


class TestDiagonalDominance:
    def test_identity_matrix(self):
        m = SimilarityMatrix(np.eye(3), ["a", "b", "c"], ["a", "b", "c"])
        assert diagonal_dominance(m) == 1.0

    def test_all_argmax_first_column(self):
        values = np.array([[0.9, 0.1, 0.1], [0.9, 0.5, 0.1], [0.9, 0.1, 0.5]])
        m = SimilarityMatrix(values, ["a", "b", "c"], ["a", "b", "c"])
        assert diagonal_dominance(m) == pytest.approx(1 / 3)

    def test_matches_argmax_loop(self, rng):
        labels = ["s%d" % i for i in range(5)]
        values = rng.uniform(-1, 1, size=(5, 5))
        m = SimilarityMatrix(values, labels, labels)
        expected = sum(int(np.argmax(values[i]) == i) for i in range(5)) / 5
        assert diagonal_dominance(m) == expected

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            diagonal_dominance(SimilarityMatrix(np.eye(2), ["a", "b"], ["a", "c"]))


class TestAbxSelect:
    def test_reference_itself_wins(self, rng):
        ref = np.array([1.0, 0.0])
        assert abx_select(ref, [ref, np.array([0.0, 1.0])]) == 0

    def test_tie_breaks_low_index(self):
        ref = np.array([1.0, 1.0])
        cand = np.array([2.0, 2.0])
        assert abx_select(ref, [cand, cand]) == 0

    def test_matches_full_scan(self, rng):
        ref = rng.standard_normal(6)
        cands = [rng.standard_normal(6) for _ in range(5)]
        sims = [loop_cosine(ref, c) for c in cands]
        assert abx_select(ref, cands) == int(np.argmax(sims))

    def test_permutation_equivariant(self, rng):
        ref = rng.standard_normal(6)
        cands = [rng.standard_normal(6) for _ in range(5)]
        perm = list(rng.permutation(5))
        chosen = abx_select(ref, cands)
        assert perm[abx_select(ref, [cands[p] for p in perm])] == chosen

    def test_huge_values_pick_the_parallel_candidate(self):
        assert abx_select([1e200, 0.0], [[0.0, 1e200], [1e200, 1.0]]) == 1

    def test_needs_two(self, rng):
        with pytest.raises(DimMismatch):
            abx_select(rng.standard_normal(3), [rng.standard_normal(3)])


class TestExports:
    def test_csv_layout(self):
        m = SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), ["r1", "r2"], ["c1", "c2"])
        lines = written(matrix_to_csv, m).strip().split(b"\n")
        assert lines[0] == b",c1,c2"
        assert lines[1].startswith(b"r1,1,")

    def test_csv_quotes_only_labels_that_need_it(self):
        labels = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r"]
        m = SimilarityMatrix(np.eye(5), labels, labels)
        blob = written(matrix_to_csv, m)
        assert blob.startswith(b',plain,"a,b","say ""hi""","two\nlines","cr\r"\n')
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"), newline="")))
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels

    def test_csv_is_utf8_bytes(self, rng):
        # every byte of a label is kept, a NUL too: only the cells are built with padding
        labels = ["ü0", "日本", "a,b", "n\0l"]
        fields = ["ü0", "日本", '"a,b"', "n\0l"]
        values = rng.uniform(-1.0, 1.0, (4, 4))
        text = "," + ",".join(fields) + "\n" + "".join(f + loop_csv_row(row) + "\n" for f, row in zip(fields, values))
        assert written(matrix_to_csv, SimilarityMatrix(values, labels, labels)) == text.encode("utf-8")

    def test_pgm_header_and_mapping(self):
        m = SimilarityMatrix(np.array([[-1.0, 0.0], [1.0, 0.5]]), ["a", "b"], ["a", "b"])
        blob = written(matrix_to_pgm, m)
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = list(blob[len(b"P5\n2 2\n255\n") :])
        assert pixels == [0, 128, 255, 191]

    def test_pgm_blocks_map_as_the_whole_matrix(self, rng):
        # rows crossing a block boundary, and a value outside [-1, 1] on each side
        values = rng.uniform(-1.2, 1.2, (2 * CSV_BLOCK_ROWS + 1, 3))
        pixels = np.clip(np.round((values + 1.0) * 127.5), 0, 255).astype(np.uint8)
        assert written(matrix_to_pgm, SimilarityMatrix(values, [], [])) == b"P5\n3 65\n255\n" + pixels.tobytes()


class TestCosineRows:
    """cross_similarity computes each block of rows as the writers slice it; its files match the dense
    matrix of loop_cosine's cosines."""

    @pytest.mark.parametrize("n", [2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1])
    def test_streamed_files_match_the_dense_matrix(self, rng, n):
        x = rng.standard_normal((n, 6))
        labels = ["u%d" % i for i in range(n - 1)] + ['last,"one"']
        dense = np.array([[loop_cosine(a, b) for b in x] for a in x])
        streamed = cross_similarity(x, x, labels, labels)
        assert streamed.values.shape == (n, n) and streamed.values.size == n * n and len(streamed.values) == n
        rows = list(csv.reader(io.StringIO(written(matrix_to_csv, streamed).decode("utf-8"), newline="")))
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels
        cells = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
        assert cells.shape == (n, n) and np.max(np.abs(cells - dense)) <= 1e-9
        header = b"P5\n%d %d\n255\n" % (n, n)
        got = written(matrix_to_pgm, streamed)
        assert got.startswith(header) and len(got) == len(header) + n * n
        pixels = np.frombuffer(got[len(header) :], np.uint8).astype(int)
        assert np.max(np.abs(pixels - np.round((dense.ravel() + 1.0) * 127.5))) <= 1


def oracle_csv(values):
    """The CSV of `values` with integer labels, one "%.9g" per cell."""
    header = "," + ",".join(str(j) for j in range(values.shape[1])) + "\n"
    return header + "".join("%d%s\n" % (i, loop_csv_row(row)) for i, row in enumerate(values))


def csv_mismatch(values):
    """None if matrix_to_csv of `values` (integer labels) is the oracle's text as UTF-8, else its first differing
    cell as (line, field, got, want): a short message where a failed == on 13 MB of text would diff for minutes."""
    values = np.asarray(values, dtype=np.float64)
    got = written(matrix_to_csv, SimilarityMatrix(values, list(range(values.shape[0])), list(range(values.shape[1]))))
    want = oracle_csv(values).encode("utf-8")
    if got == want:
        return None
    for i, (got_line, want_line) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
        for j, (g, w) in enumerate(itertools.zip_longest(got_line.split(b","), want_line.split(b","))):
            if g != w:
                return i, j, g, w
    return "line counts differ"


@pytest.fixture(scope="module")
def cosine_1k():
    x = np.random.default_rng(2024).standard_normal((1000, 192))
    return cross_similarity(x, x)


def near_ties(rng, per_scale):
    """Values x whose float product x * 10**k (k = 9..12, nine digits in fixed point) is exactly n + 1/2,
    with the exact product just above or just below it: only the product's rounding error decides."""
    found = []
    for k in range(9, 13):
        half = (rng.integers(10**8, 10**9, per_scale) + 0.5) / 10.0**k
        for ulps in range(-3, 4):
            x = half + ulps * np.spacing(half)
            p = x * 10.0**k
            found.append(x[p - np.floor(p) == 0.5])
    return np.concatenate(found)


def exact_side_of_half(x):
    """For x from near_ties: the sign of the exact x * 10**k minus its float product, in integers."""
    k = 8 - math.floor(math.log10(x))
    num, den = x.as_integer_ratio()
    exact, half = 2 * num * 10**k, int(2 * x * 10.0**k) * den
    return (exact > half) - (exact < half)


class TestCsvCells:
    """matrix_to_csv builds most cells from digit tables; each must be the bytes "%.9g" gives."""

    ADVERSARIAL = [
        -1.7976931348623157e308, 1.7976931348623157e308, -1.2345678912345e-300, -2.5e-320, 5e-324, -5e-324,
        2.2250738585072014e-308, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1.0, -1.0,
        1.0000000000000002, 0.9999999999999999, 0.99999999995, -0.99999999995, 0.999999999949999,
        9.9999999995e-06, 9.99999999949e-05, 9.9999999995e-05, 1e-5, 2.0**-14, -(2.0**-14), 0.5, 0.25, 0.1,
        123456789.0, 1e17,
    ]

    def test_adversarial_cells(self):
        tens = np.array([10.0**k for k in range(-12, 3)])
        around = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
        cells = np.concatenate([self.ADVERSARIAL, around, -around])
        # every cell in every column position, rows crossing a block boundary
        values = np.array([np.roll(cells, i) for i in range(CSV_BLOCK_ROWS + 1)])
        assert max(len("%.9g" % v) for v in cells) == 16  # a 17-byte cell with its comma
        assert csv_mismatch(values) is None

    def test_dyadic_ties(self):
        # m / 2**(k+1) times 10**k is exactly m * 5**k / 2: a true tie, rounded half to even
        values = np.concatenate([np.arange(1, 2**j, 2) / 2.0**j for j in range(1, 15)])
        values = np.concatenate([values, -values])
        values = values[: len(values) // 50 * 50].reshape(-1, 50)
        assert csv_mismatch(values) is None

    def test_near_ties(self):
        x = near_ties(np.random.default_rng(5), 20000)
        sides = {exact_side_of_half(v) for v in x[:2000].tolist()}
        assert len(x) > 50000 and sides == {-1, 1}
        values = np.concatenate([x, -x])[: len(x) // 100 * 200].reshape(-1, 100)
        assert csv_mismatch(values) is None

    def test_cosine_matrix(self, cosine_1k):
        assert csv_mismatch(cosine_1k.values[:]) is None

    def test_any_float_matrix(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra import numpy as hnp

        cells = st.one_of(st.floats(), st.floats(-1.0, 1.0), st.floats(-1e-3, 1e-3))
        shapes = st.tuples(st.sampled_from([1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]), st.integers(1, 4))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(hnp.arrays(np.float64, shapes, elements=cells))
        def check(values):
            assert csv_mismatch(values) is None

        check()

    def test_writing_holds_well_under_one_copy_of_the_text(self, cosine_1k, tmp_path):
        # each chunk's text goes to the file once formatted: 1.0 MB traced for 13.3 MB of text, 0.08 of it
        path = tmp_path / "sim.csv"
        with open(path, "wb") as f:
            matrix_to_csv(cosine_1k, f)  # numpy's one-time set-up stays outside the count
        tracemalloc.start()
        try:
            with open(path, "wb") as f:
                matrix_to_csv(cosine_1k, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * path.stat().st_size


class TestOnePass:
    """matrix_to_csv given a PGM file writes both in one pass over the product blocks: the bytes of
    matrix_to_csv and matrix_to_pgm each alone."""

    @pytest.mark.parametrize("d", [4, 192])
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 65, 333])
    def test_same_bytes_as_the_separate_writers(self, rng, n, d):
        x = rng.standard_normal((n, d))
        labels = ["u%d" % i for i in range(n)]
        m = cross_similarity(x, x, labels, labels)
        f, pgm = io.BytesIO(), io.BytesIO()
        matrix_to_csv(m, f, pgm)
        assert f.getvalue() == written(matrix_to_csv, m)
        assert pgm.getvalue() == written(matrix_to_pgm, m)

    def test_rows_wider_than_a_chunk(self, rng):
        assert csv_mismatch(rng.uniform(-1.0, 1.0, (3, CSV_CHUNK_CELLS + 5))) is None

    def test_write_is_bounded(self, rng, tmp_path):
        # N=1500, d=4: formatting whole 32-row blocks traced 8.5 MB, about 180 bytes per cell of a block;
        # chunks of CSV_CHUNK_CELLS cells hold the pass to a few thousand cells' temporaries
        x = rng.standard_normal((1500, 4))
        m = cross_similarity(x, x)
        with open(tmp_path / "sim.csv", "wb") as f, open(tmp_path / "sim.pgm", "wb") as pgm:
            matrix_to_csv(m, f, pgm)  # numpy's one-time set-up stays outside the count
        tracemalloc.start()
        try:
            with open(tmp_path / "sim.csv", "wb") as f, open(tmp_path / "sim.pgm", "wb") as pgm:
                matrix_to_csv(m, f, pgm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def pgm_oracle(values):
    """The PGM of `values`: each cell mapped onto [0, 255] by one expression over the whole matrix."""
    h, w = values.shape
    return b"P5\n%d %d\n255\n" % (w, h) + np.clip(np.round((values + 1.0) * 127.5), 0, 255).astype(np.uint8).tobytes()


def one_pass(m):
    """The CSV and PGM bytes matrix_to_csv writes for `m` in one pass."""
    f, pgm = io.BytesIO(), io.BytesIO()
    matrix_to_csv(m, f, pgm)
    return f.getvalue(), pgm.getvalue()


def chunk_spans(n_rows, chunk):
    """(first row, end row) of each chunk matrix_to_csv formats: whole rows, restarting at each block."""
    return [
        (start + at, min(start + at + chunk, start + CSV_BLOCK_ROWS, n_rows))
        for start in range(0, n_rows, CSV_BLOCK_ROWS)
        for at in range(0, min(CSV_BLOCK_ROWS, n_rows - start), chunk)
    ]


class TestChunks:
    """Each chunk of a block is one buffer of slots, padding dropped by one translate, with the slow
    cells and the row labels put in between: its CSV and PGM bytes against the "%.9g" oracle."""

    SLOW = [0.0, 1.0, -1.0, 1e-5, -1e-5]

    def test_chunk_edges_inside_a_block(self, rng):
        # 1638 columns: chunks of 5 rows, so chunk edges fall inside each block and a block ends in a 2-row chunk
        n = CSV_CHUNK_CELLS // 5
        values = rng.uniform(-1.0, 1.0, (2 * CSV_BLOCK_ROWS + 3, n))
        spans = chunk_spans(len(values), CSV_CHUNK_CELLS // n)
        assert CSV_CHUNK_CELLS // n == 5 and (CSV_BLOCK_ROWS - 2, CSV_BLOCK_ROWS) in spans
        # a slow cell is the first and the last cell of every chunk
        for i, (first, end) in enumerate(spans):
            values[first, 0] = self.SLOW[i % len(self.SLOW)]
            values[end - 1, -1] = self.SLOW[(i + 2) % len(self.SLOW)]
        assert csv_mismatch(values) is None
        m = SimilarityMatrix(values, list(range(len(values))), list(range(n)))
        assert one_pass(m) == (oracle_csv(values).encode("utf-8"), pgm_oracle(values))

    def test_within_ulps_of_a_power_of_ten(self):
        # where log10 can be off by one, or the scale table's range ends: 200 ulps on each side of 10**e
        cells = []
        for e in range(-6, 1):
            for toward in (0.0, 1.0):
                v = 10.0**e
                for _ in range(200):
                    cells.append(v)
                    v = np.nextafter(v, toward)
        values = np.array(cells + [-c for c in cells]).reshape(-1, 100)
        assert csv_mismatch(values) is None

    def test_every_cell_of_a_chunk_slow(self):
        values = np.resize(self.SLOW, (CSV_BLOCK_ROWS + 1, 7))
        assert csv_mismatch(values) is None

    def test_labels_with_a_nul(self, rng):
        # a NUL and "\xff" (UTF-8 C3 BF) in labels at the start, inside and at the end of chunks
        n = CSV_CHUNK_CELLS // 3
        labels = ["r%d" % i for i in range(CSV_BLOCK_ROWS + 1)]
        for i in (0, 1, 2, 3, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS):
            labels[i] = "\0" * (i % 2) + "n\0l\xff%d" % i
        values = rng.uniform(-1.0, 1.0, (len(labels), n))
        values[3, 0] = 1.0
        cols = ["c\0%d" % j for j in range(n)]
        text = "," + ",".join(cols) + "\n" + "".join(f + loop_csv_row(row) + "\n" for f, row in zip(labels, values))
        assert one_pass(SimilarityMatrix(values, labels, cols)) == (text.encode("utf-8"), pgm_oracle(values))

    @pytest.mark.parametrize("n", [1, 2, 33, 2500])
    def test_cosine_matrix(self, rng, n):
        x = rng.standard_normal((n, 16))
        m = cross_similarity(x, x)
        # the oracle formats the same 32-row products the writer is given
        values = np.concatenate([m.values[start : start + CSV_BLOCK_ROWS] for start in range(0, n, CSV_BLOCK_ROWS)])
        csv_bytes, pgm_bytes = one_pass(m)
        assert pgm_bytes == pgm_oracle(values)
        assert csv_bytes == oracle_csv(values).encode("utf-8"), csv_mismatch(values)
