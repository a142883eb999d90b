import csv
import io

import numpy as np
import pytest

from agvoice.errors import DimMismatch, LabelMismatch, ZeroNorm
from agvoice.evaluation import (
    SimilarityMatrix,
    abx_select,
    cosine,
    cross_similarity,
    diagonal_dominance,
    matrix_to_csv,
    matrix_to_pgm,
)
from oracles import loop_cosine


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


class TestCrossSimilarity:
    def test_self_matrix_unit_diagonal(self, rng):
        vecs = [rng.standard_normal(4) for _ in range(3)]
        m = cross_similarity(vecs, vecs)
        assert np.allclose(np.diag(m.values), 1.0, atol=1e-12)
        assert np.allclose(m.values, m.values.T, atol=1e-12)

    def test_orthonormal_identity(self):
        vecs = [np.eye(2)[0], np.eye(2)[1]]
        m = cross_similarity(vecs, vecs)
        assert np.allclose(m.values, np.eye(2), atol=1e-12)

    def test_matches_pairwise_loop(self, rng):
        rows = [rng.standard_normal(5) for _ in range(3)]
        cols = [rng.standard_normal(5) for _ in range(3)]
        m = cross_similarity(rows, cols)
        for i in range(3):
            for j in range(3):
                assert abs(m.values[i, j] - loop_cosine(rows[i], cols[j])) < 1e-12

    def test_rectangular_wide_magnitudes_match_loop(self, rng):
        rows = [rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3) for _ in range(7)]
        cols = [rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3) for _ in range(5)]
        m = cross_similarity(rows, cols)
        assert m.values.shape == (7, 5)
        want = np.array([[loop_cosine(r, c) for c in cols] for r in rows])
        assert np.max(np.abs(m.values - want)) < 1e-12

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
        a = cross_similarity(rows, cols).values
        b = cross_similarity(cols, rows).values
        assert np.max(np.abs(a - b.T)) < 1e-12

    def test_entries_bounded(self, rng):
        vecs = [rng.standard_normal(6) * 10.0 ** rng.integers(-3, 3) for _ in range(5)]
        m = cross_similarity(vecs, vecs)
        assert (np.abs(m.values) <= 1.0 + 1e-12).all()


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

    def test_needs_two(self, rng):
        with pytest.raises(DimMismatch):
            abx_select(rng.standard_normal(3), [rng.standard_normal(3)])


class TestExports:
    def test_csv_layout(self):
        m = SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), ["r1", "r2"], ["c1", "c2"])
        lines = matrix_to_csv(m).strip().split("\n")
        assert lines[0] == ",c1,c2"
        assert lines[1].startswith("r1,1,")

    def test_csv_quotes_only_labels_that_need_it(self):
        labels = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r"]
        m = SimilarityMatrix(np.eye(5), labels, labels)
        text = matrix_to_csv(m)
        assert text.startswith(',plain,"a,b","say ""hi""","two\nlines","cr\r"\n')
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels

    def test_pgm_header_and_mapping(self):
        m = SimilarityMatrix(np.array([[-1.0, 0.0], [1.0, 0.5]]), ["a", "b"], ["a", "b"])
        blob = matrix_to_pgm(m)
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = list(blob[len(b"P5\n2 2\n255\n") :])
        assert pixels == [0, 128, 255, 191]
