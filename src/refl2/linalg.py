"""Exact dense linear algebra over GF(2^m), with numpy.

Each field entry expands to its m x m GF(2) multiplication block, and
elimination runs over GF(2) on bit-packed rows; ranks and kernel
dimensions over the field are the GF(2) values divided by m.  Exact and
deterministic.

The verifier itself does not call this module: `refl2.verify` keeps its
own GF(2) echelon rows as Python ints.  The tests build the dense
reference oracle from these functions, and `perfbench/spans.py` traces
them by name, so the package loads this module; numpy is imported on
first use only, which keeps it off the start-up of `refl2`.
"""

from __future__ import annotations

from refl2.ffield import FieldCtx


# -- bit-packed GF(2) elimination -------------------------------------------


def gf2_rank(packed: np.ndarray, ncols: int) -> int:
    """Rank of a GF(2) matrix given as uint64-packed rows (destructive)."""
    import numpy as np

    nrows = packed.shape[0]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        w, b = divmod(c, 64)
        col = (packed[r:, w] >> np.uint64(b)) & np.uint64(1)
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            packed[[r, p]] = packed[[p, r]]
        rest = r + hits[1:]
        if rest.size:
            packed[rest] ^= packed[r]
        r += 1
    return r


def _pack_bool(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a boolean matrix into uint64 words, row-wise."""
    import numpy as np

    nrows, ncols = rows.shape
    pad = (-ncols) % 64
    if pad:
        rows = np.concatenate(
            [rows, np.zeros((nrows, pad), dtype=bool)], axis=1
        )
    packed = np.packbits(rows, axis=1, bitorder="little")
    return packed.view(np.uint64), ncols


def regular_rep_bits(ctx: FieldCtx, entries: np.ndarray) -> np.ndarray:
    """Expand an (R x C) matrix of field elements to the (Rm x Cm)
    GF(2) matrix of their multiplication blocks.

    Block column k holds the bits of entry * t^k reduced mod the field
    modulus; reduction is vectorized over the whole matrix.
    """
    import numpy as np

    m = ctx.m
    R, C = entries.shape
    big = np.zeros((R * m, C * m), dtype=bool)
    cur = entries.astype(np.int64)
    mask_top = np.int64(1 << m)
    modulus = np.int64(ctx.modulus)
    for k in range(m):
        for r in range(m):
            big[r::m, k::m] = ((cur >> np.int64(r)) & 1).astype(bool)
        if k + 1 < m:
            cur = cur << 1
            over = (cur & mask_top) != 0
            cur = np.where(over, cur ^ modulus, cur)
    return big


def field_matrix_rank(ctx: FieldCtx, entries: np.ndarray) -> int:
    """Exact rank over the field of an integer entry matrix."""
    if entries.size == 0:
        return 0
    big = regular_rep_bits(ctx, entries)
    packed, ncols = _pack_bool(big)
    r2 = gf2_rank(packed, ncols)
    assert r2 % ctx.m == 0
    return r2 // ctx.m


def field_kernel_dimension(ctx: FieldCtx, entries: np.ndarray) -> int:
    """Dimension over the field of the right kernel of the entry matrix."""
    if entries.size == 0:
        return entries.shape[1] if entries.ndim == 2 else 0
    return entries.shape[1] - field_matrix_rank(ctx, entries)
