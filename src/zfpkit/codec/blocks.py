"""Grid partitioning into 4**d blocks, with edge-replication padding."""

from __future__ import annotations

import numpy as np


class GridShapeError(ValueError):
    """Grid dims are empty, non-positive, or inconsistent with the data."""


def block_count(dims: tuple[int, ...]) -> int:
    n = 1
    for size in dims:
        n *= (size + 3) // 4
    return n


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if not dims:
        raise GridShapeError("dims must name at least one axis")
    if any(n < 1 for n in dims):
        raise GridShapeError(f"dims must be positive, got {dims}")
    return dims


def _block_axes(d: int) -> tuple[int, ...]:
    """Axis order that takes a (nb_0, 4, ..., nb_{d-1}, 4) view to block-major order."""
    return tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))


def _block_array(grid: np.ndarray) -> np.ndarray:
    """The padded blocks of a grid as one (nblocks, 4**d) float64 array.

    Axes whose extent is not a multiple of 4 are padded by replicating the
    final slice.  Rows follow the lexicographic order of the block
    coordinates; each row is its block flattened row-major.
    """
    grid = np.asarray(grid, dtype=np.float64)
    dims = _check_dims(grid.shape)
    pad = [(0, (-n) % 4) for n in dims]
    if any(p for _, p in pad):
        grid = np.pad(grid, pad, mode="edge")
    d = len(dims)
    split = [m for s in grid.shape for m in (s // 4, 4)]
    return grid.reshape(split).transpose(_block_axes(d)).reshape(-1, 4 ** d)


def partition(grid: np.ndarray) -> list[tuple[float, ...]]:
    """Split a d-dimensional array into flattened 4**d blocks.

    Axes whose extent is not a multiple of 4 are padded by replicating the
    final slice, so padded entries always equal a real neighbour.  Blocks
    are emitted in lexicographic order of their block coordinates, each
    flattened row-major.
    """
    return list(map(tuple, _block_array(grid).tolist()))


def unpartition(blocks, dims) -> np.ndarray:
    """Reassemble blocks produced by :func:`partition` and strip padding.

    ``blocks`` is a sequence of 4**d-value blocks or an (nblocks, 4**d) array.
    """
    dims = _check_dims(dims)
    d = len(dims)
    nblk = [(n + 3) // 4 for n in dims]
    expected = block_count(dims)
    blocks = np.asarray(blocks, dtype=np.float64)
    if len(blocks) != expected:
        raise GridShapeError(f"expected {expected} blocks for dims {dims}, got {len(blocks)}")
    axes = _block_axes(d)
    inverse = tuple(axes.index(a) for a in range(2 * d))
    grid = blocks.reshape(nblk + [4] * d).transpose(inverse).reshape([4 * b for b in nblk])
    return grid[tuple(slice(0, n) for n in dims)]
