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
# Cells of a block formatted at once, in whole rows: bounds the float temporaries of _cell_slots (about
# 180 bytes per cell) and the chunk's text to about 1.5 MB at any N.
CSV_CHUNK_CELLS = 8192
# Bytes per cell in a block: an 8-byte lead word and two 4-digit words.
_SLOT = 16


def _csv_tables():
    """The words a fast cell's text is made of, as little-endian integers.

    `lead[(neg * 4 + zeros) * 9 + digit - 1]` is ",", "-" if `neg`, "0.",
    `zeros` zeros and the first digit, NUL-padded to 8 bytes. `words[v]` is
    the four digits of v; `words[10000 + v]` the same with trailing zeros NUL.
    `pow10[k]` is 10**k, exact.
    """
    i = np.arange(72)
    neg, zeros, digit = i // 36, i // 9 % 4, i % 9 + 1
    lead = np.full((72, 8), ord("0"), np.uint8)
    lead[:, 0] = ord(",")
    lead[neg == 1, 1] = ord("-")
    col = np.arange(8)
    lead[col == neg[:, None] + 2] = ord(".")
    last = neg + zeros + 3
    lead[col > last[:, None]] = 0
    lead[i, last] = ord("0") + digit
    # words[t, a, b, c, d] spells abcd; in t=1, the zeros after the last nonzero digit are NUL
    words = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words[..., 0] = chars[:, None, None, None]
    words[..., 1] = chars[:, None, None]
    words[..., 2] = chars[:, None]
    words[..., 3] = chars
    words[1, :, :, :, 0, 3] = 0
    words[1, :, :, 0, 0, 2] = 0
    words[1, :, 0, 0, 0, 1] = 0
    words[1, 0, 0, 0, 0, 0] = 0
    pow10 = (10 ** np.arange(16, dtype=np.int64)).astype(np.float64)
    return lead.view("<u8")[:, 0], words.reshape(20000, 4).view("<u4")[:, 0], pow10


def _product_error(a, b, p):
    """a*b - p exactly, where p = fl(a*b): Dekker's two-product (numpy has no fma)."""

    def split(v):
        c = v * 134217729.0  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    (ah, al), (bh, bl) = split(a), split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _cell_slots(x, tables):
    """The 16-byte slots of the flat float64 cells `x`: "," and the text "%.9g" gives, NUL-padded, for
    each cell with 1e-4 <= |x| < 1; all NUL for the others, which the returned mask marks."""
    lead_words, digit_words, pow10 = tables
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5
    e = np.floor(np.log10(a))
    # nine digits, rounded as "%.9g" rounds them: on the exact product, half to even
    b = pow10.take((8.0 - e).astype(np.intp))
    p = a * b
    r = np.rint(p)
    tie = np.flatnonzero(np.abs(p - r) == 0.5)
    if tie.size:
        err = _product_error(a[tie], b[tie], p[tie])
        r[tie] = np.where(err > 0, np.ceil(p[tie]), np.where(err < 0, np.floor(p[tie]), r[tie]))
    # next to a power of ten, log10 can be off by one or the rounding carry into a tenth digit
    slow = ~(fast & (e >= -4) & (e <= -1) & (r >= 1e8) & (r < 1e9))
    e[slow], r[slow] = -1.0, 1e8
    first = np.floor(r / 1e8)
    rest = r - first * 1e8
    high = np.floor(rest / 1e4)
    low = rest - high * 1e4
    slots = np.empty((len(x), 4), "<u4")
    # lead word (neg * 4 + zeros) * 9 + first - 1, with zeros = -1 - e
    lead = 18.0 - np.copysign(18.0, x) - 9.0 * e - 10.0 + first
    slots.view("<u8")[:, 0] = lead_words.take(lead.astype(np.intp))
    slots[:, 2] = digit_words.take(np.where(low == 0, high + 1e4, high).astype(np.intp))
    slots[:, 3] = digit_words.take((low + 1e4).astype(np.intp))
    slots[slow] = 0
    return slots, slow


def _csv_rows(cells, labels, tables) -> bytes:
    """The CSV rows of the float64 rows `cells`, each led by its label's field."""
    n = cells.shape[1]
    x = np.ascontiguousarray(cells, dtype=np.float64).ravel()
    slots, slow = _cell_slots(x, tables)
    # the other cells are spliced into their rows' bytes: such a cell can be 17 bytes long
    at_slow = np.flatnonzero(slow)
    texts = [b",%.9g" % v for v in x[at_slow].tolist()]
    ends = (at_slow * _SLOT).tolist()
    bounds = np.searchsorted(at_slow, np.arange(len(labels) + 1) * n).tolist()
    buf = memoryview(slots.reshape(-1).view(np.uint8))
    lines = []
    for i, label in enumerate(labels):
        at, pieces = i * n * _SLOT, []
        for k in range(bounds[i], bounds[i + 1]):
            pieces += (buf[at : ends[k]], texts[k])
            at = ends[k] + _SLOT
        pieces += (buf[at : (i + 1) * n * _SLOT], b"\n")
        # a label may hold a NUL, so only the cells go through translate
        lines += (_csv_field(label).encode("utf-8"), b"".join(pieces).translate(None, b"\0"))
    return b"".join(lines)


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
    most 2**-23: rint(p) is the integer nearest the exact product unless p is
    exactly an integer plus one half. Only there does the product's rounding
    error (Dekker's two-product) decide the direction; a zero error is a true
    tie, rounded half to even as Python's correctly rounded dtoa does. Every
    other cell, and one whose digits leave [1e8, 1e9) next to a power of ten,
    is formatted by "%.9g" itself.
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
        labels = m.row_labels[start : start + len(block)]
        for at in range(0, len(block), chunk):
            f.write(_csv_rows(block[at : at + chunk], labels[at : at + chunk], tables))


def matrix_to_pgm(m: SimilarityMatrix, f):
    """Write the matrix to the binary file `f` as a P5 PGM, [-1, 1] mapped affinely onto [0, 255], in
    blocks of CSV_BLOCK_ROWS rows."""
    f.write(_pgm_header(m))
    for start in range(0, len(m.values), CSV_BLOCK_ROWS):
        f.write(_gray(m.values[start : start + CSV_BLOCK_ROWS]))
