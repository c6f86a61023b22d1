"""Global SRAM buffer model.

The paper provisions a 386 KB SRAM global buffer "sufficient for storing data
used in each iteration" of the evaluated layers.  The Python model tracks two
things: the access count (every word read or written by the PE array costs
SRAM energy) and whether a layer's working set actually fits — when it does
not, the working set has to be streamed from DRAM in tiles and the weight
traffic multiplies accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dataflow.counts import LayerDensities
from repro.models.spec import ConvLayerSpec

if TYPE_CHECKING:
    from repro.analytic.model import DensityGrid, LayerGeometry


@dataclass
class BufferStats:
    """Accumulated buffer activity in 16-bit words."""

    read_words: float = 0.0
    write_words: float = 0.0

    @property
    def total_words(self) -> float:
        return self.read_words + self.write_words


class GlobalBuffer:
    """Capacity accounting and access counting for the global SRAM buffer."""

    def __init__(self, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise ValueError(f"capacity_words must be positive, got {capacity_words}")
        self.capacity_words = int(capacity_words)
        self.stats = BufferStats()

    def record_reads(self, words: float) -> None:
        """Count ``words`` read by the PE array."""
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        self.stats.read_words += words

    def record_writes(self, words: float) -> None:
        """Count ``words`` written by the PPUs / DMA."""
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        self.stats.write_words += words

    def reset(self) -> None:
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Working-set / tiling analysis
    # ------------------------------------------------------------------
    def activation_words(
        self,
        layer: ConvLayerSpec,
        densities: LayerDensities,
        sparse: bool = True,
    ) -> float:
        """Words needed to hold one sample's activations (see :func:`activation_words`)."""
        return activation_words(layer, densities, sparse)

    def working_set_words(
        self,
        layer: ConvLayerSpec,
        densities: LayerDensities,
        sparse: bool = True,
    ) -> float:
        """Words needed to hold one sample's full working set (activations + weights)."""
        return self.activation_words(layer, densities, sparse) + layer.weight_count

    def fits(self, layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True) -> bool:
        """Whether the per-sample working set of ``layer`` fits in the buffer."""
        return self.working_set_words(layer, densities, sparse) <= self.capacity_words

    def weight_tiling_factor(
        self, layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
    ) -> float:
        """:func:`weight_tiling_factor` of ``layer`` in this buffer."""
        return float(weight_tiling_factor(layer, densities, self.capacity_words, sparse))


# Like the step counts in :mod:`repro.dataflow.counts`, the two formulas below
# evaluate on one layer spec or on the per-layer columns of a LayerGeometry
# (with a DensityGrid and per-point capacity columns).


def activation_words(
    layer: ConvLayerSpec | LayerGeometry,
    densities: LayerDensities | DensityGrid,
    sparse: bool = True,
):
    """Words needed to hold one sample's activations (input + output tile).

    Sparse tensors are stored compressed (values plus packed offsets,
    ~1.5 words per non-zero).
    """
    if sparse:
        input_words = layer.input_size * densities.input_density * 1.5
        output_words = layer.output_size * densities.output_density * 1.5
    else:
        input_words = layer.input_size * 1.0
        output_words = layer.output_size * 1.0
    return input_words + output_words


def weight_tiling_factor(
    layer: ConvLayerSpec | LayerGeometry,
    densities: LayerDensities | DensityGrid,
    capacity_words,
    sparse: bool = True,
):
    """How many times a layer's weights are re-fetched because of tiling.

    Weights are streamed through the buffer once as long as the layer's
    activations fit next to a reasonable weight tile.  When the
    activations themselves exceed the space left after reserving room for
    weights (at most half the buffer), they are processed in tiles and the
    weights must be re-read once per activation tile.  For the CIFAR and
    ImageNet geometries evaluated in the paper the per-sample activations
    comfortably fit the 386 KB buffer, so the factor is 1.0 — the paper's
    "sufficient for storing data used in each iteration" assumption — but
    the model degrades gracefully for buffer-size sweeps.

    Returns a numpy scalar for one layer and an array for columns.
    """
    activation = activation_words(layer, densities, sparse)
    # Comparisons used as 0/1 factors pick ``min(weights, half)`` and the
    # fits/tiles branch on one layer and on columns alike, at a fraction of
    # what np.minimum/np.where cost on Python scalars (the simulator makes
    # two calls per layer).
    weights = layer.weight_count
    half = capacity_words / 2.0
    available = capacity_words - ((weights <= half) * weights + (weights > half) * half)
    fits = activation <= available
    return fits * 1.0 + (activation > available) * np.ceil(activation / available)
