"""Chunk buffers: the arrays that the large chunks of one sweep write into.

A sweep evaluates each dimension n in chunks of T trials, and each stage of
a chunk fills (T, ..., n, n) arrays: the draws and their products, the
repaired matrices, the eigenvectors and the reconstruction check, the
rotated observables, the tilde values and kernels, and the report's entry
products, about 2 MB at n = 64 with five catalog entries. Allocated and
freed per chunk, they leave glibc a free heap top larger than its trim
threshold, which it hands back to the kernel, so the next chunk faults
those pages in again.

A sweep instead creates one :class:`ChunkBuffers`, sized for its largest
chunk of at least ``harness._BUFFERED_ENTRIES`` matrix entries, and passes
it as ``out=`` to each stage of such a chunk. The stage takes its arrays
from it by name instead of allocating them: ``out and out.take(name,
shape, dtype)`` as a ufunc's ``out=`` (None without buffers, so numpy
allocates), and :func:`_empty` where it would call ``np.empty``. Every
buffer is a view into one block, allocated with the buffers and freed
with them at the end of the sweep. A chunk's arrays are overwritten by
the next chunk's, so whatever a stage returns into them is valid only
until the next chunk starts. Without buffers (``out=None``) every stage
allocates its arrays as numpy does, and the caller owns them.
"""

from __future__ import annotations

import math

import numpy as np

# Bytes each buffer's offset in the block is a multiple of.
_ALIGN = 64


def _layout(catalog: int) -> tuple[dict, tuple[dict, ...]]:
    """The buffers as name -> (dtype, elements per entry of the largest (T, n, n) stack, slots).

    ``catalog`` is the number F of catalog entries. Returns the buffers a
    chunk holds from its draws to its records, then the scratch of each
    stage, which the stage drops before it returns: the stages run one
    after the other, so their scratch shares the bytes after the held
    buffers. A name with one slot is the same array on every take; one
    with k slots holds k arrays that a chunk takes one after the other.
    """
    held = {
        # the repaired state, a and b, the state's eigenvectors, u† a u and
        # u† b u, the tilde values and the kernels
        "hermitian": (complex, 1, 3),
        "eigenvectors": (complex, 1, 1),
        "eigenbasis": (complex, 1, 2),
        "tilde": (float, catalog, 1),
        "kernels": (float, catalog, 1),
        # a conjugate or difference that its function drops before it returns
        "adjoint": (complex, 1, 1),
    }
    stages = (
        {
            # the samplers: the Ginibre draws (real, then imaginary parts), g
            # and g g†; the repair's |M - (M + M†)/2|; eigh's u diag(lam) and
            # its reconstruction
            "draws": (float, 2, 1),
            "ginibre": (complex, 1, 1),
            "wishart": (complex, 1, 1),
            "deviation": (float, 1, 1),
            "scaled": (complex, 1, 1),
            "reconstruction": (complex, 1, 1),
        },
        {
            # tilde: the ratios lam_i / lam_j it takes, x - 1, (x - 1)^2, x
            # off the series window, and the wyd quotient's two factors
            "ratios": (float, 1, 1),
            "shifted": (float, 1, 1),
            "shifted_squared": (float, 1, 1),
            "safe": (float, 1, 1),
            "wyd": (float, catalog, 1),
            "wyd_denominator": (float, catalog, 1),
        },
        # the rotations' u† x
        {"rotation": (complex, 1, 1)},
        # the report: X_ij Y_ji of (a, b), (a, a) and (b, b), and the
        # sandwich weights lam_i^beta lam_j^(1 - beta)
        {"products": (complex, 1, 3), "sandwich": (float, catalog, 1)},
    )
    return held, stages


class ChunkBuffers:
    """The buffers of one sweep, sized for chunks of up to ``entries`` matrix entries.

    ``entries`` is the largest T n^2 over the chunks that take buffers and
    ``catalog`` the sweep's number of catalog entries. The block is allocated here, once; its
    pages are touched only when a stage writes a buffer. :meth:`take`
    returns a view of a buffer's first elements, so a smaller chunk (a
    smaller dimension, or the last, partial chunk of one) uses a prefix.
    """

    __slots__ = ("_slots", "_taken")

    def __init__(self, entries: int, catalog: int):
        held, stages = _layout(catalog)
        places = {}
        base = _place(held, 0, entries, places)
        block = np.empty(max(_place(stage, base, entries, places) for stage in stages), np.uint8)
        # each slot as a flat array of its dtype, a view into the block
        self._slots = {
            name: [block[start:stop].view(dtype) for start, stop, dtype in slots]
            for name, slots in places.items()
        }
        self._taken = {}

    def next_chunk(self) -> None:
        """Start a chunk: the multi-slot buffers are handed out from their first slot again."""
        self._taken.clear()

    def take(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """Buffer ``name`` as a C-contiguous ``shape`` array of ``dtype``.

        A name of several slots hands out the next one on each take, and
        raises ValueError once the chunk has taken them all; a request
        larger than the buffer, or of another dtype, raises ValueError too.
        """
        slots = self._slots[name]
        k = self._taken.get(name, 0)
        if len(slots) > 1:
            if k == len(slots):
                raise ValueError(f"the {len(slots)} slots of chunk buffer {name!r} are taken")
            self._taken[name] = k + 1
        flat = slots[k]
        size = math.prod(shape)
        if size > flat.size or flat.dtype != dtype:
            raise ValueError(
                f"chunk buffer {name!r} holds {flat.size} {flat.dtype} values, "
                f"asked for {shape} {np.dtype(dtype)}"
            )
        return flat[:size].reshape(shape)


def _place(buffers: dict, offset: int, entries: int, places: dict) -> int:
    """Record each slot of ``buffers`` in ``places`` as (start, stop, dtype), from byte ``offset``.

    Returns the byte after the last slot; every slot starts at a multiple of _ALIGN.
    """
    for name, (dtype, length, slots) in buffers.items():
        dtype = np.dtype(dtype)
        nbytes = length * entries * dtype.itemsize
        step = -(-nbytes // _ALIGN) * _ALIGN
        starts = range(offset, offset + slots * step, step)
        places[name] = [(start, start + nbytes, dtype) for start in starts]
        offset += slots * step
    return offset


def _empty(buffers: ChunkBuffers | None, name: str, shape, dtype=float) -> np.ndarray:
    """Buffer ``name`` of ``buffers``, or a new uninitialised array without buffers."""
    return np.empty(shape, dtype) if buffers is None else buffers.take(name, shape, dtype)
