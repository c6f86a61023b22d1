"""First-order area model for the accelerator configurations.

The paper synthesises the PE, PPU and controller with Design Compiler
(GF 14 nm FinFET) and estimates the SRAM buffer with PCACTI to obtain area
numbers.  Neither tool is available here, so this module provides a
first-order analytical estimate built from published 14 nm-class component
densities: a K-wide 16-bit multiply-accumulate datapath, small register files,
a fixed PPU/controller overhead per group, and SRAM macro density for the
global buffer.

The absolute mm² values are indicative only; what the model is for is
*comparing configurations* (PE-count sweeps, buffer-size sweeps) on an
equal-area basis, e.g. to check that SparseTrain and the dense baseline with
the same PE count and buffer are an (approximately) iso-area comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.config import ArchConfig

if TYPE_CHECKING:
    from repro.analytic.model import ArchGrid


@dataclass(frozen=True)
class AreaModel:
    """Per-component area constants (mm², 14 nm-class).

    Attributes
    ----------
    mac_mm2:
        One 16-bit multiplier + accumulator lane.
    register_word_mm2:
        One 16-bit register-file word (Reg-1 / Reg-2 storage).
    ppu_mm2:
        One post-processing unit (ReLU, format converter, two accumulators).
    controller_mm2:
        The global controller and scheduling logic.
    sram_mm2_per_kib:
        SRAM macro area per KiB, including peripherals.
    """

    mac_mm2: float = 0.0008
    register_word_mm2: float = 0.000002
    ppu_mm2: float = 0.002
    controller_mm2: float = 0.05
    sram_mm2_per_kib: float = 0.0045

    def __post_init__(self) -> None:
        for name in (
            "mac_mm2",
            "register_word_mm2",
            "ppu_mm2",
            "controller_mm2",
            "sram_mm2_per_kib",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AreaBreakdown:
    """Estimated area of one accelerator configuration, by component (mm²)."""

    pe_array_mm2: float
    register_mm2: float
    ppu_mm2: float
    controller_mm2: float
    sram_mm2: float

    @property
    def total_mm2(self) -> float:
        return (
            self.pe_array_mm2
            + self.register_mm2
            + self.ppu_mm2
            + self.controller_mm2
            + self.sram_mm2
        )

    def fraction(self, component: str) -> float:
        """Fraction of total area in ``component`` (pe_array/register/ppu/controller/sram)."""
        total = self.total_mm2
        if total == 0.0:
            return 0.0
        return getattr(self, f"{component}_mm2") / total


# Register words per PE: Reg-1 holds K weights/gradients, Reg-2 holds up to a
# row of partial sums (sized for the widest evaluated feature map row, 56).
_REG1_WORDS_PER_PE = 1
_REG2_WORDS_PER_PE = 64


def estimate_area(
    config: ArchConfig | ArchGrid, model: AreaModel | None = None
) -> AreaBreakdown:
    """Estimate the silicon area of an accelerator configuration.

    Given an ``ArchGrid`` of per-point columns, every component of the
    breakdown is the matching column of areas.
    """
    model = model if model is not None else AreaModel()
    macs = config.num_pes * config.kernel_size
    register_words = config.num_pes * (
        _REG1_WORDS_PER_PE * config.kernel_size + _REG2_WORDS_PER_PE
    )
    return AreaBreakdown(
        pe_array_mm2=macs * model.mac_mm2,
        register_mm2=register_words * model.register_word_mm2,
        ppu_mm2=config.num_groups * model.ppu_mm2,
        controller_mm2=model.controller_mm2,
        sram_mm2=config.buffer_kib * model.sram_mm2_per_kib,
    )


def iso_area_pe_count(
    reference: ArchConfig,
    candidate: ArchConfig,
    model: AreaModel | None = None,
) -> int:
    """PE count that makes ``candidate`` match ``reference``'s total area.

    Useful for iso-area design-space sweeps: given a reference configuration,
    how many PEs can a candidate configuration (e.g. with a different buffer
    size) afford in the same footprint?  The result is floored at one PE group.
    """
    model = model if model is not None else AreaModel()
    reference_area = estimate_area(reference, model).total_mm2
    fixed = estimate_area(candidate.evolve(num_pes=candidate.pes_per_group), model)
    per_pe = (
        model.mac_mm2 * candidate.kernel_size
        + model.register_word_mm2
        * (_REG1_WORDS_PER_PE * candidate.kernel_size + _REG2_WORDS_PER_PE)
        + model.ppu_mm2 / candidate.pes_per_group
    )
    fixed_area = fixed.controller_mm2 + fixed.sram_mm2
    budget = reference_area - fixed_area
    if budget <= 0:
        return candidate.pes_per_group
    count = int(budget / per_pe)
    # Round down to a whole number of PE groups, at least one group.
    groups = max(count // candidate.pes_per_group, 1)
    return groups * candidate.pes_per_group
