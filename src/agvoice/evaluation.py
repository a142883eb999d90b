"""Embedding-space evaluation: cosine scoring, cross-similarity matrices,
diagonal dominance, and automated ABX selection.

The ABX here is an embedding-space proxy (argmax cosine), not the
perceptual forced-choice test it is named after.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, LabelMismatch, ZeroNorm


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray
    row_labels: list
    col_labels: list


def _unit_rows(vectors) -> np.ndarray:
    """The vectors as unit rows of one float64 matrix: the one check of an embedding list."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    shapes = sorted({r.shape for r in rows})
    if len(shapes) != 1 or len(shapes[0]) != 1:
        raise DimMismatch("need 1-D embeddings of one length, got shapes %s" % shapes)
    x = np.stack(rows)
    # Scale each row by a power of two (exact) so its largest magnitude is in
    # [0.5, 1): the norm then cannot overflow (1e200) or underflow (1e-200).
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, keepdims=True))[1])
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not norms.all():
        raise ZeroNorm("cosine undefined for zero-norm embedding")
    return x / norms


def cosine(a, b) -> float:
    u = _unit_rows([a, b])
    return float(u[0] @ u[1])


def cross_similarity(rows, cols, row_labels=None, col_labels=None) -> SimilarityMatrix:
    """Pairwise cosine matrix between two embedding lists."""
    u, v = _unit_rows(rows), _unit_rows(cols)
    if u.shape[1] != v.shape[1]:
        raise DimMismatch("row dim %d vs column dim %d" % (u.shape[1], v.shape[1]))
    return SimilarityMatrix(
        u @ v.T,
        list(row_labels) if row_labels is not None else list(range(len(u))),
        list(col_labels) if col_labels is not None else list(range(len(v))),
    )


def diagonal_dominance(m: SimilarityMatrix) -> float:
    """Fraction of rows whose best-matching column has the row's label."""
    if sorted(set(m.row_labels)) != sorted(m.col_labels):
        raise LabelMismatch("row/col label sets differ or columns repeat a label")
    hits = 0
    for i, label in enumerate(m.row_labels):
        if m.col_labels[int(np.argmax(m.values[i]))] == label:
            hits += 1
    return hits / len(m.row_labels)


def abx_select(reference, candidates) -> int:
    """Index of the candidate closest (cosine) to the reference.

    Ties break toward the lowest index.
    """
    if len(candidates) < 2:
        raise DimMismatch("need at least 2 candidates")
    u = _unit_rows([reference, *candidates])
    return int(np.argmax(u[1:] @ u[0]))


def _csv_field(label) -> str:
    """A label as one RFC 4180 field: quoted, inner quotes doubled, only when it needs it."""
    text = str(label)
    if any(ch in text for ch in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def matrix_to_csv(m: SimilarityMatrix) -> str:
    lines = ["," + ",".join(_csv_field(c) for c in m.col_labels)]
    # one % per row; rows convert one at a time, so no second copy of the matrix is held
    row_format = "%s," + ",".join(["%.9g"] * m.values.shape[1])
    for label, row in zip(m.row_labels, m.values):
        lines.append(row_format % (_csv_field(label), *row.tolist()))
    return "\n".join(lines) + "\n"


def matrix_to_pgm(m: SimilarityMatrix) -> bytes:
    """Binary P5 PGM, [-1, 1] mapped affinely onto [0, 255]."""
    h, w = m.values.shape
    pix = np.clip(np.round((m.values + 1.0) * 127.5), 0, 255).astype(np.uint8)
    return ("P5\n%d %d\n255\n" % (w, h)).encode() + pix.tobytes()
