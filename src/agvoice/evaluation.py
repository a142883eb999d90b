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
    values: np.ndarray  # or a CosineRows, for a matrix only ever read block by block
    row_labels: list
    col_labels: list


class CosineRows:
    """The rows of the cosine matrix u @ v.T of unit rows u and v, each block computed when sliced:
    a matrix's `values` in O(N·d) memory, for the writers, which read only `shape`, len and row slices.

    u and v stay separate arrays: given an operand and its own transpose, numpy
    computes a symmetric product instead, whose cells can differ in the last bit.
    """

    def __init__(self, u, v):
        self.u, self.v = u, v
        self.shape = (len(u), len(v))

    def __len__(self):
        return len(self.u)

    def __getitem__(self, rows):
        return self.u[rows] @ self.v.T


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


def cosine_rows(rows, cols, row_labels=None, col_labels=None) -> SimilarityMatrix:
    """Pairwise cosine matrix between two embedding lists, as CosineRows: no N×N array is made."""
    u, v = _unit_rows(rows), _unit_rows(cols)
    if u.shape[1] != v.shape[1]:
        raise DimMismatch("row dim %d vs column dim %d" % (u.shape[1], v.shape[1]))
    return SimilarityMatrix(
        CosineRows(u, v),
        list(row_labels) if row_labels is not None else list(range(len(u))),
        list(col_labels) if col_labels is not None else list(range(len(v))),
    )


def cross_similarity(rows, cols, row_labels=None, col_labels=None) -> SimilarityMatrix:
    """Pairwise cosine matrix between two embedding lists."""
    m = cosine_rows(rows, cols, row_labels, col_labels)
    return SimilarityMatrix(m.values[:], m.row_labels, m.col_labels)


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


# Rows of u @ v.T computed at once, and written to the PGM: a block's cells can round differently at
# another height (OpenBLAS picks its kernels by shape), so the height is fixed and the files keep their bytes.
CSV_BLOCK_ROWS = 32
# Cells of a block formatted at once, in whole rows: bounds the chunk's float temporaries (about
# 100 bytes per cell) and its text to about 1.5 MB at any N.
CSV_CHUNK_CELLS = 8192
# Bytes per cell in a chunk: an 8-byte lead word and two 4-digit words.
_SLOT = 16
# The padding byte of a slot. UTF-8 never holds it, so one translate drops it from a whole chunk, labels and all.
_PAD = 0xFF


def _csv_tables():
    """The words a fast cell's text is made of, as little-endian integers, and the scales of its digits.

    `lead[10 * k + first + 40 * neg]`, for k = 9..12 and first = 1..9, is ",", "-" if `neg`, "0.",
    k - 9 zeros and the first digit, padded to 8 bytes with _PAD. `words[v]` is the four digits of v;
    `words[10000 + v]` the same with _PAD for the trailing zeros. `scale[k]` is 10**k for k = 9..12,
    exact, and 0 for the other k < 16.
    """
    lead = np.full((170, 8), _PAD, np.uint8)
    for neg in (0, 1):
        for k in range(9, 13):
            for first in range(1, 10):
                text = ("," + "-" * neg + "0." + "0" * (k - 9) + str(first)).encode()
                lead[10 * k + first + 40 * neg, : len(text)] = list(text)
    # words[t, a, b, c, d] spells abcd; in t=1, the zeros after the last nonzero digit are _PAD
    words = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words[..., 0] = chars[:, None, None, None]
    words[..., 1] = chars[:, None, None]
    words[..., 2] = chars[:, None]
    words[..., 3] = chars
    words[1, :, :, :, 0, 3] = _PAD
    words[1, :, :, 0, 0, 2] = _PAD
    words[1, :, 0, 0, 0, 1] = _PAD
    words[1, 0, 0, 0, 0, 0] = _PAD
    scale = np.array([0] * 9 + [10**k for k in range(9, 13)] + [0] * 3, dtype=np.float64)
    return lead.view("<u8")[:, 0], words.reshape(20000, 4).view("<u4")[:, 0], scale


def _csv_rows(cells, fields, tables) -> bytes:
    """The CSV rows of the float64 rows `cells`, row i led by the encoded label field `fields[i]`.

    The chunk is one buffer of 16-byte slots, one per cell and one more per row. A fast cell's slot
    holds its text and padding. Every other slot is replaced: a slow cell's by its "%.9g" text, a
    row's last by the newline and the next row's label. One translate then drops the padding.
    """
    lead_words, digit_words, scale = tables
    rows, n = cells.shape
    x = np.ascontiguousarray(cells, dtype=np.float64).ravel()
    # a cell outside the fast range (zero, infinite and NaN cells too) gets digits and indices that
    # mean nothing: it is slow, its lookups are clipped into the tables, and its slot is replaced
    with np.errstate(all="ignore"):
        a = np.abs(x)
        k = np.log10(a)
        np.floor(k, out=k)
        np.subtract(8.0, k, out=k)  # 9..12 where 1e-4 <= a < 1: nine digits in fixed point
        b = scale.take(k.astype(np.intp), mode="clip")  # 0 for every other k, so that r = 0 below
        # nine digits in r, the integer nearest the exact product unless p is an integer plus one
        # half. Such a cell is slow, and so is one whose digits leave [1e8, 1e9): log10 off by one
        # next to a power of ten, or the rounding carried into a tenth digit
        p = a * b
        r = np.rint(p)
        slow = np.flatnonzero(~((r >= 1e8) & (r < 1e9) & (np.abs(p - r) != 0.5)))
        # r = first * 1e8 + high * 1e4 + low; each quotient by 1e4 is exact before its floor
        q = np.floor(r / 1e4)
        low = r - q * 1e4
        first = np.floor(q / 1e4)
        high = q - first * 1e4
        high[low == 0] += 1e4
        low += 1e4
        k *= 10.0
        k += first
        k += (x < 0) * 40.0
        slots = np.empty((rows, n + 1, 4), "<u4")
        slots.view("<u8")[:, :n, 0] = lead_words.take(k.astype(np.intp), mode="clip").reshape(rows, n)
        slots[:, :n, 2] = digit_words.take(high.astype(np.intp), mode="clip").reshape(rows, n)
        slots[:, :n, 3] = digit_words.take(low.astype(np.intp), mode="clip").reshape(rows, n)
    # the replaced slots and their texts, in order: a slow cell's text can be 17 bytes long
    replaced = np.concatenate([slow + slow // max(n, 1), np.arange(1, rows + 1) * (n + 1) - 1])
    texts = [b",%.9g" % v for v in x[slow].tolist()] + [b"\n" + field for field in fields[1:]] + [b"\n"]
    order = np.argsort(replaced, kind="stable")
    buf = memoryview(slots.reshape(-1).view(np.uint8))
    pieces, at = [fields[0]], 0
    for start, i in zip((replaced[order] * _SLOT).tolist(), order.tolist()):
        pieces += (buf[at:start], texts[i])
        at = start + _SLOT
    return b"".join(pieces).translate(None, bytes([_PAD]))


def _pgm_header(m: SimilarityMatrix) -> bytes:
    h, w = m.values.shape
    return ("P5\n%d %d\n255\n" % (w, h)).encode()


def _gray(block) -> np.ndarray:
    """PGM pixels of a block of cells: [-1, 1] mapped affinely onto [0, 255]."""
    return np.clip(np.round((block + 1.0) * 127.5), 0, 255).astype(np.uint8)


def matrix_to_csv(m: SimilarityMatrix, f, pgm=None):
    """Write the matrix to the binary file `f` as UTF-8 CSV: a header of column labels, then one row per
    row label, each cell "%.9g". With a binary file `pgm`, write it there as matrix_to_pgm does, in the same pass.

    Each product block of CSV_BLOCK_ROWS rows is computed once; its PGM rows
    are written, then its CSV rows formatted and written in chunks of about
    CSV_CHUNK_CELLS cells (at least one row).

    Cells with 1e-4 <= |x| < 1, nearly every cosine, are built from table
    words: "%.9g" writes them as [-]0., 0 to 3 zeros and nine digits with
    trailing zeros cut. The digits are the integer nearest x * 10**k, with
    k = 8 - floor(log10|x|) in [9, 12]. 10**k is exact, so the float product
    p is within half an ulp of the exact one, and an ulp of p < 1e9 is at
    most 2**-23, so every integer plus one half below 1e9 is a float: no such
    half lies between p and the exact product, and rint(p) is the integer
    nearest the exact product unless p is exactly an integer plus one half.
    There the exact product may lie on either side, so the cell is slow.
    Next to a power of ten log10 can be off by one: a k one too large gives
    digits of at least 1e9, and a k one too small happens only within a few
    ulps below a power of ten, where the digits are 1e8 and "%.9g" rounds to
    that power of ten too. A k outside [9, 12] scales by 0. Every cell whose
    digits leave [1e8, 1e9), so every other cell, is formatted by "%.9g"
    itself.
    """
    tables = _csv_tables()
    chunk = max(1, CSV_CHUNK_CELLS // max(1, m.values.shape[1]))
    f.write(("," + ",".join(_csv_field(c) for c in m.col_labels) + "\n").encode("utf-8"))
    if pgm is not None:
        pgm.write(_pgm_header(m))
    for start in range(0, len(m.values), CSV_BLOCK_ROWS):
        block = m.values[start : start + CSV_BLOCK_ROWS]
        if pgm is not None:
            pgm.write(_gray(block))
        fields = [_csv_field(label).encode("utf-8") for label in m.row_labels[start : start + len(block)]]
        for at in range(0, len(block), chunk):
            f.write(_csv_rows(block[at : at + chunk], fields[at : at + chunk], tables))


def matrix_to_pgm(m: SimilarityMatrix, f):
    """Write the matrix to the binary file `f` as a P5 PGM, [-1, 1] mapped affinely onto [0, 255], in
    blocks of CSV_BLOCK_ROWS rows."""
    f.write(_pgm_header(m))
    for start in range(0, len(m.values), CSV_BLOCK_ROWS):
        f.write(_gray(m.values[start : start + CSV_BLOCK_ROWS]))
