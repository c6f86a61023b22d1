"""Layer-level accelerator simulator.

``AcceleratorSimulator`` executes the instruction stream produced by the
dataflow compiler and turns the expected event counts of every (layer, step)
into cycles and energy.  The model is deliberately explicit:

* **Compute cycles** — processed operands divided by the array's sustained
  operand rate (``num_pes * pe_utilization``; each PE consumes one operand per
  cycle and performs K MACs on it), plus the kernel-row reload overhead and a
  fixed per-step controller/drain cost.
* **DRAM cycles** — the step's operand traffic plus the weight tile traffic,
  divided by the DRAM bandwidth.  Transfers are double-buffered, so a step's
  latency is ``max(compute, dram)``, not the sum.
* **Energy** — counted events (MACs, register accesses, SRAM words, DRAM
  words, elapsed cycles for leakage) multiplied by the per-event costs of the
  :class:`~repro.arch.energy.EnergyModel`.

Running the same simulator on a program compiled with ``sparse=False`` and a
:func:`~repro.arch.config.dense_baseline_config` models the Eyeriss-like dense
training baseline with matched resources — the comparison the paper's Fig. 8
and Fig. 9 make.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arch.buffer import GlobalBuffer
from repro.arch.config import ArchConfig
from repro.arch.dram import DRAM
from repro.arch.energy import (
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.arch.results import SimulationResult, StepResult
from repro.dataflow.counts import LayerDensities, StepCounts, StepKind
from repro.dataflow.instructions import (
    LoadWeightsInstruction,
    Program,
    StepInstruction,
    StoreOutputInstruction,
)

if TYPE_CHECKING:
    from repro.analytic.model import ArchGrid


def compute_cycles(counts: StepCounts, config: ArchConfig | ArchGrid) -> float:
    """Cycles the PE array needs for one step (no DRAM stalls).

    Scalar for one configuration; with an ``ArchGrid`` of per-point columns
    and columnar counts it evaluates a whole design grid at once.
    """
    operand_rate = config.num_pes * config.pe_utilization
    work = counts.processed_operands / operand_rate
    weight_reload = counts.weight_loads * config.weight_reload_overhead / config.num_pes
    return work + weight_reload + config.sync_cycles_per_layer


class AcceleratorSimulator:
    """Simulate one accelerator configuration executing compiled programs."""

    def __init__(self, config: ArchConfig, energy_model: EnergyModel | None = None) -> None:
        self.config = config
        self.energy_model = energy_model if energy_model is not None else default_energy_model()
        self.buffer = GlobalBuffer(config.buffer_words)
        self.dram = DRAM(config.dram_words_per_cycle)

    def dram_cycles(self, operand_words: float, weight_words: float) -> float:
        """Cycles to stream the step's DRAM traffic at the sustained bandwidth."""
        return self.dram.transfer_cycles(operand_words + weight_words)

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run_program(
        self,
        program: Program,
        densities: dict[str, LayerDensities] | None = None,
    ) -> SimulationResult:
        """Execute a compiled program and return per-sample cycles and energy.

        ``densities`` is only needed for the buffer-fit (weight tiling)
        analysis; the per-step operand counts are already baked into the
        program by the compiler.
        """
        result = SimulationResult(
            config_name=self.config.name,
            model_name=program.model_name,
            dataset=program.dataset,
            sparse=program.sparse,
            clock_ghz=self.config.clock_ghz,
        )

        pending_weight_words = 0.0
        pending_store_words = 0.0
        last_step_index: int | None = None

        for instruction in program.instructions:
            if isinstance(instruction, LoadWeightsInstruction):
                pending_weight_words += float(instruction.words)
                continue
            if isinstance(instruction, StoreOutputInstruction):
                # Output store belongs to the step that produced it.  Weight
                # gradients (the GTW step's output) are accumulated on chip
                # over the whole batch and written back once per iteration, so
                # their per-sample share divides by the batch size.
                words = float(instruction.words)
                if (
                    last_step_index is not None
                    and result.steps[last_step_index].step is StepKind.GTW
                ):
                    words /= self.config.batch_size
                pending_store_words += words
                if last_step_index is not None:
                    self._attach_store(result, last_step_index, pending_store_words)
                    pending_store_words = 0.0
                continue
            if not isinstance(instruction, StepInstruction):
                continue

            layer = instruction.layer
            counts = instruction.counts
            layer_densities = (densities or {}).get(layer.name) if densities else None

            weight_words = 0.0
            if pending_weight_words > 0.0:
                tiling = self.buffer.weight_tiling_factor(
                    layer,
                    layer_densities if layer_densities is not None else LayerDensities.dense(),
                    self.config.sparse_dataflow,
                )
                # Weights are fetched once per batch iteration and reused for
                # every sample in the batch, so the per-sample share divides
                # by the batch size.
                weight_words = pending_weight_words * tiling / self.config.batch_size
                pending_weight_words = 0.0

            compute = compute_cycles(counts, self.config)
            dram = self.dram_cycles(counts.dram_read_words, weight_words)
            cycles = max(compute, dram)

            dram_words = counts.dram_read_words + weight_words
            events = EventCounts(
                macs=counts.macs,
                reg_accesses=counts.reg_accesses,
                sram_words=counts.sram_words,
                dram_words=dram_words,
                cycles=cycles,
            )
            energy = energy_from_events(events, self.energy_model)

            self.buffer.record_reads(counts.sram_read_words)
            self.buffer.record_writes(counts.sram_write_words)
            self.dram.record_reads(counts.dram_read_words + weight_words)

            result.steps.append(
                StepResult(
                    layer_name=instruction.layer_name,
                    step=instruction.step,
                    compute_cycles=compute,
                    dram_cycles=dram,
                    cycles=cycles,
                    events=events,
                    energy=energy,
                )
            )
            last_step_index = len(result.steps) - 1
        return result

    def _attach_store(self, result: SimulationResult, step_index: int, words: float) -> None:
        """Fold an output-store transfer into the step that produced it."""
        if words <= 0.0:
            return
        step = result.steps[step_index]
        extra_dram_cycles = self.dram.transfer_cycles(words)
        new_dram_cycles = step.dram_cycles + extra_dram_cycles
        new_cycles = max(step.compute_cycles, new_dram_cycles)
        events = EventCounts(
            macs=step.events.macs,
            reg_accesses=step.events.reg_accesses,
            sram_words=step.events.sram_words,
            dram_words=step.events.dram_words + words,
            cycles=new_cycles,
        )
        self.dram.record_writes(words)
        result.steps[step_index] = StepResult(
            layer_name=step.layer_name,
            step=step.step,
            compute_cycles=step.compute_cycles,
            dram_cycles=new_dram_cycles,
            cycles=new_cycles,
            events=events,
            energy=energy_from_events(events, self.energy_model),
        )
