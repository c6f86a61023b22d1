"""Vectorized closed-form cost model — the one design-point evaluator.

The layer-level simulator (:mod:`repro.arch.accelerator`) already computes
every quantity from closed-form expected-value counts; what makes it slow at
survey scale is walking the instruction stream point by point in Python.
This module evaluates the same formulas over *(design point, layer)* arrays,
so a whole design grid — millions of (workload, architecture, density)
points — evaluates in a handful of vectorized calls.  Every sweep, Pareto
front and ablation sweep runs through :func:`evaluate_points_analytic` or
:func:`evaluate_grid_analytic`.

It holds no formula of its own.  Every one is imported from its one home and
evaluates on scalars and numpy columns alike:

* per-step operand/traffic counts: :func:`repro.dataflow.counts.forward_counts`,
  ``gta_counts`` and ``gtw_counts`` on a :class:`LayerGeometry` and a
  :class:`DensityGrid`;
* per-batch weight-tile amortisation:
  :func:`repro.arch.buffer.weight_tiling_factor`;
* compute cycles: :func:`repro.arch.accelerator.compute_cycles` on an
  :class:`ArchGrid`;
* area: :func:`repro.arch.area.estimate_area`; energy:
  :func:`repro.arch.energy.energy_from_events`.

What is left here is the machine model's glue, mirroring
``AcceleratorSimulator.run_program``: the GTW weight-gradient write-back
divided by the batch size and the double-buffered ``max(compute, dram)``
step latency.  Aggregates are summed with numpy instead of Python-loop
order, and energy is charged on per-point totals instead of per step, so the
closed form and the simulator (:func:`repro.explore.engine.evaluate_point`)
differ by float rounding only (see ``repro.analytic.validate`` for the
enforced bounds).

Records are :class:`EvaluationRecord` objects keyed by
:attr:`DesignPoint.key`, whichever of the two evaluators built them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.arch.accelerator import compute_cycles
from repro.arch.area import AreaModel, estimate_area
from repro.arch.buffer import weight_tiling_factor
from repro.arch.config import ArchConfig, dense_baseline_config, sparsetrain_config
from repro.arch.energy import (
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.dataflow.counts import LayerDensities, StepKind, forward_counts, gta_counts, gtw_counts
from repro.explore.engine import (
    NATURAL_ACTIVATION_DENSITY,
    NATURAL_GRADIENT_DENSITY,
    DesignPoint,
    EvaluationRecord,
    _configs_for,
)
from repro.models.spec import ModelSpec
from repro.models.zoo import get_model_spec
from repro.obs import metrics
from repro.pruning.threshold import expected_density_after_pruning

# Evaluate workload groups in bounded slabs so million-point sweeps stay in a
# few MB of (chunk, layers) scratch instead of materialising (N, layers).
CHUNK_POINTS = 32768


# ---------------------------------------------------------------------------
# Geometry: one ModelSpec as per-layer numpy arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerGeometry:
    """Per-layer geometry of one model as ``(L,)`` arrays (batch axis free).

    Everything here is density-independent; the density- and
    architecture-dependent factors broadcast against these arrays with a
    leading point axis.  The field names are :class:`ConvLayerSpec`'s, so the
    step-count formulas read either.
    """

    names: tuple[str, ...]
    kernel: np.ndarray
    in_width: np.ndarray
    in_height: np.ndarray
    padding: np.ndarray
    out_width: np.ndarray
    out_height: np.ndarray
    in_channels: np.ndarray
    out_channels: np.ndarray
    group_in_channels: np.ndarray
    group_out_channels: np.ndarray
    weight_count: np.ndarray
    input_size: np.ndarray
    output_size: np.ndarray
    has_relu_mask: np.ndarray  # float 0/1 — multiplies straight into formulas

    @property
    def num_layers(self) -> int:
        return len(self.names)

    @classmethod
    def from_spec(cls, spec: ModelSpec) -> "LayerGeometry":
        layers = spec.conv_layers

        def arr(values, dtype=np.float64):
            return np.asarray(values, dtype=dtype)

        return cls(
            names=tuple(layer.name for layer in layers),
            kernel=arr([l.kernel for l in layers]),
            in_width=arr([l.in_width for l in layers]),
            in_height=arr([l.in_height for l in layers]),
            padding=arr([l.padding for l in layers]),
            out_width=arr([l.out_width for l in layers]),
            out_height=arr([l.out_height for l in layers]),
            in_channels=arr([l.in_channels for l in layers]),
            out_channels=arr([l.out_channels for l in layers]),
            group_in_channels=arr([l.group_in_channels for l in layers]),
            group_out_channels=arr([l.group_out_channels for l in layers]),
            weight_count=arr([l.weight_count for l in layers]),
            input_size=arr([l.input_size for l in layers]),
            output_size=arr([l.output_size for l in layers]),
            has_relu_mask=arr([1.0 if l.has_relu_mask else 0.0 for l in layers]),
        )


@lru_cache(maxsize=None)
def workload_geometry(model: str, dataset: str) -> tuple[ModelSpec, LayerGeometry]:
    """Memoized ``(spec, geometry)`` for one registered workload."""
    spec = get_model_spec(model, dataset)
    return spec, LayerGeometry.from_spec(spec)


# ---------------------------------------------------------------------------
# Densities: (point, layer) operand-density arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGrid:
    """Operand densities as arrays broadcastable to ``(points, layers)``.

    The field names are :class:`LayerDensities`', so the step-count formulas
    read either.
    """

    input_density: np.ndarray
    grad_output_density: np.ndarray
    mask_density: np.ndarray
    grad_input_density: np.ndarray
    output_density: np.ndarray

    @classmethod
    def dense(cls) -> "DensityGrid":
        one = np.float64(1.0)
        return cls(one, one, one, one, one)

    @classmethod
    def from_layer_densities(
        cls, geometry: LayerGeometry, densities: Mapping[str, LayerDensities] | None
    ) -> "DensityGrid":
        """``(L,)`` grid from a per-layer density map (missing layers: dense).

        Mirrors the compiler's ``_densities_for`` fallback so a map that only
        covers some layers produces identical counts on both paths.
        """
        per_layer = [
            (densities or {}).get(name, LayerDensities.dense())
            for name in geometry.names
        ]
        return cls(
            input_density=np.asarray([d.input_density for d in per_layer]),
            grad_output_density=np.asarray([d.grad_output_density for d in per_layer]),
            mask_density=np.asarray([d.mask_density for d in per_layer]),
            grad_input_density=np.asarray([d.grad_input_density for d in per_layer]),
            output_density=np.asarray([d.output_density for d in per_layer]),
        )

    @classmethod
    def from_pruning_rates(
        cls,
        geometry: LayerGeometry,
        pruning_rates: np.ndarray,
        natural_grad_density: float = NATURAL_GRADIENT_DENSITY,
        activation_density: float = NATURAL_ACTIVATION_DENSITY,
    ) -> "DensityGrid":
        """``(N, L)`` grid replicating ``explore.engine.analytic_densities``.

        The scalar closed form :func:`expected_density_after_pruning` is
        applied once per *unique* rate (its validation and edge-case branches
        are scalar), so the result matches the engine's per-point map exactly.
        """
        rates = np.asarray(pruning_rates, dtype=np.float64).reshape(-1)
        grad = np.empty_like(rates)
        for rate in np.unique(rates):
            grad[rates == rate] = expected_density_after_pruning(
                float(rate), natural_grad_density
            )
        num_layers = geometry.num_layers
        input_density = np.full((rates.size, num_layers), activation_density)
        # The first convolution reads the raw (dense) image — the
        # ``dense_first_layer_input`` behaviour of ``uniform_densities``.
        input_density[:, 0] = 1.0
        return cls(
            input_density=input_density,
            grad_output_density=grad[:, None],
            mask_density=np.float64(activation_density),
            grad_input_density=np.minimum(1.0, grad * 2.0)[:, None],
            output_density=np.float64(activation_density),
        )


# ---------------------------------------------------------------------------
# Architecture and energy constants as (N, 1) column arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchGrid:
    """Per-point :class:`ArchConfig` fields as ``(N, 1)`` column arrays.

    The field names are :class:`ArchConfig`'s, so the compute-cycle and area
    formulas read either.
    """

    num_pes: np.ndarray
    pes_per_group: np.ndarray
    num_groups: np.ndarray
    kernel_size: np.ndarray
    clock_ghz: np.ndarray
    buffer_kib: np.ndarray
    buffer_words: np.ndarray
    dram_words_per_cycle: np.ndarray
    pe_utilization: np.ndarray
    weight_reload_overhead: np.ndarray
    sync_cycles_per_layer: np.ndarray
    batch_size: np.ndarray

    @classmethod
    def from_configs(cls, configs: Sequence[ArchConfig]) -> "ArchGrid":
        def col(values) -> np.ndarray:
            return np.asarray(values, dtype=np.float64)[:, None]

        return cls(
            num_pes=col([c.num_pes for c in configs]),
            pes_per_group=col([c.pes_per_group for c in configs]),
            num_groups=col([c.num_groups for c in configs]),
            kernel_size=col([c.kernel_size for c in configs]),
            clock_ghz=col([c.clock_ghz for c in configs]),
            buffer_kib=col([c.buffer_kib for c in configs]),
            buffer_words=col([c.buffer_words for c in configs]),
            dram_words_per_cycle=col([c.dram_words_per_cycle for c in configs]),
            pe_utilization=col([c.pe_utilization for c in configs]),
            weight_reload_overhead=col([c.weight_reload_overhead for c in configs]),
            sync_cycles_per_layer=col([c.sync_cycles_per_layer for c in configs]),
            batch_size=col([c.batch_size for c in configs]),
        )


@dataclass(frozen=True)
class EnergyGrid:
    """Per-point :class:`EnergyModel` constants as ``(N,)`` arrays.

    The field names are :class:`EnergyModel`'s, so
    :func:`~repro.arch.energy.energy_from_events` reads either.
    """

    mac_pj: np.ndarray
    reg_pj: np.ndarray
    sram_pj: np.ndarray
    dram_pj: np.ndarray
    leakage_pj_per_cycle: np.ndarray

    @classmethod
    def from_models(cls, models: Sequence[EnergyModel]) -> "EnergyGrid":
        def col(values) -> np.ndarray:
            return np.asarray(values, dtype=np.float64)

        return cls(
            mac_pj=col([m.mac_pj for m in models]),
            reg_pj=col([m.reg_pj for m in models]),
            sram_pj=col([m.sram_pj for m in models]),
            dram_pj=col([m.dram_pj for m in models]),
            leakage_pj_per_cycle=col([m.leakage_pj_per_cycle for m in models]),
        )


# ---------------------------------------------------------------------------
# Step counts + machine model
# ---------------------------------------------------------------------------

def _step_arrays(
    geometry: LayerGeometry,
    densities: DensityGrid,
    arch: ArchGrid,
    sparse: bool,
) -> dict[StepKind, dict[str, np.ndarray]]:
    """Per-(point, layer) step quantities, machine model applied.

    Returns, per training step, arrays broadcast to ``(N, L)`` for the
    counts the metrics sum (``row_ops``/``processed``/``macs``/...) and the
    resulting ``cycles`` and ``dram_words``.
    """
    tiling = weight_tiling_factor(geometry, densities, arch.buffer_words, sparse)
    # Weights are fetched once per batch iteration (one LoadWeights before
    # the FORWARD and one before the GTA step); the GTW step reuses the
    # operands already streaming for its gradient rows.
    amortized_weights = geometry.weight_count * tiling / arch.batch_size
    weight_words = {
        StepKind.FORWARD: amortized_weights,
        StepKind.GTA: amortized_weights,
        StepKind.GTW: np.float64(0.0),
    }
    shape = np.broadcast_shapes(
        tiling.shape, (geometry.num_layers,), arch.num_pes.shape
    )
    steps: dict[StepKind, dict[str, np.ndarray]] = {}
    for step_counts in (forward_counts, gta_counts, gtw_counts):
        counts = step_counts(geometry, densities, sparse)
        kind = counts.step
        store = counts.dram_write_words
        if kind is StepKind.GTW:
            # Weight gradients accumulate on chip over the whole batch and
            # are written back once per iteration.
            store = store / arch.batch_size
        dram_read = counts.dram_read_words + weight_words[kind]
        # ``run_program`` computes the read+weight transfer first and folds
        # the output store in afterwards — same two-term float expression.
        dram_cycles = (
            dram_read / arch.dram_words_per_cycle + store / arch.dram_words_per_cycle
        )
        fields = {
            "row_ops": counts.row_ops,
            "processed": counts.processed_operands,
            "macs": counts.macs,
            "weight_loads": counts.weight_loads,
            "reg": counts.reg_accesses,
            "sram_words": counts.sram_words,
            "cycles": np.maximum(compute_cycles(counts, arch), dram_cycles),
            "dram_words": dram_read + store,
        }
        steps[kind] = {
            name: np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
            for name, value in fields.items()
        }
    return steps


# ---------------------------------------------------------------------------
# Batched metric schema (mirrors SimulationResult's aggregates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticMetrics:
    """Per-point totals of one training iteration — all ``(N,)`` arrays.

    The fields mirror :class:`~repro.arch.results.SimulationResult`'s
    aggregates (``total_cycles``, ``latency_us``, ``energy_uj``,
    ``total_macs``, ``total_sram_words``, ``total_dram_words``) plus the
    underlying operand counts for deeper analyses.
    """

    cycles: np.ndarray
    latency_us: np.ndarray
    energy_uj: np.ndarray
    macs: np.ndarray
    row_ops: np.ndarray
    processed_operands: np.ndarray
    weight_loads: np.ndarray
    reg_accesses: np.ndarray
    sram_words: np.ndarray
    dram_words: np.ndarray

    @property
    def num_points(self) -> int:
        return int(np.asarray(self.cycles).size)


def estimate_batch(
    geometry: LayerGeometry,
    densities: DensityGrid,
    arch: ArchGrid,
    energy: EnergyGrid,
    sparse: bool = True,
) -> AnalyticMetrics:
    """Evaluate one workload over a batch of design points in one call.

    ``densities`` broadcasts to ``(N, L)`` against the ``(N, 1)`` columns of
    ``arch`` (``energy`` holds ``(N,)`` constants); the dense path (``sparse=False``) ignores the
    density grid entirely, exactly like compiling with ``sparse=False``.
    """
    steps = _step_arrays(geometry, densities, arch, sparse)

    def total(field: str) -> np.ndarray:
        return sum(np.sum(step[field], axis=-1) for step in steps.values())

    events = EventCounts(
        macs=total("macs"),
        reg_accesses=total("reg"),
        sram_words=total("sram_words"),
        dram_words=total("dram_words"),
        cycles=total("cycles"),
    )
    return AnalyticMetrics(
        cycles=events.cycles,
        latency_us=events.cycles / (arch.clock_ghz[:, 0] * 1e3),
        energy_uj=energy_from_events(events, energy).total_uj,
        macs=events.macs,
        row_ops=total("row_ops"),
        processed_operands=total("processed"),
        weight_loads=total("weight_loads"),
        reg_accesses=events.reg_accesses,
        sram_words=events.sram_words,
        dram_words=events.dram_words,
    )


@dataclass(frozen=True)
class AnalyticComparison:
    """SparseTrain vs dense baseline over a batch — ``(N,)`` arrays throughout."""

    sparse: AnalyticMetrics
    baseline: AnalyticMetrics
    speedup: np.ndarray
    energy_efficiency: np.ndarray
    area_mm2: np.ndarray


def compare_batch(
    geometry: LayerGeometry,
    densities: DensityGrid,
    sparse_arch: ArchGrid,
    baseline_arch: ArchGrid,
    energy: EnergyGrid,
    area_model: AreaModel | None = None,
) -> AnalyticComparison:
    """Batched counterpart of :func:`repro.sim.runner.compare_workload`."""
    sparse = estimate_batch(geometry, densities, sparse_arch, energy, sparse=True)
    baseline = estimate_batch(
        geometry, DensityGrid.dense(), baseline_arch, energy, sparse=False
    )
    with np.errstate(divide="ignore"):
        speedup = baseline.cycles / sparse.cycles
        energy_efficiency = baseline.energy_uj / sparse.energy_uj
    return AnalyticComparison(
        sparse=sparse,
        baseline=baseline,
        speedup=speedup,
        energy_efficiency=energy_efficiency,
        area_mm2=estimate_area(sparse_arch, area_model).total_mm2[:, 0],
    )


# ---------------------------------------------------------------------------
# DesignPoint front end: the sweep, Pareto and ablation evaluators
# ---------------------------------------------------------------------------

def evaluate_points_analytic(
    points: Sequence[DesignPoint],
    chunk_points: int = CHUNK_POINTS,
) -> list[EvaluationRecord]:
    """Closed-form evaluation of a design-point batch.

    The batched counterpart of running ``evaluate_point`` over the list:
    returns one record per unique :attr:`DesignPoint.key` in first-seen
    order, grouping points by workload and evaluating each group in
    vectorized slabs of ``chunk_points``.
    """
    unique: dict[str, DesignPoint] = {}
    for point in points:
        unique.setdefault(point.key, point)

    groups: dict[tuple[str, str], list[tuple[str, DesignPoint]]] = {}
    for key, point in unique.items():
        groups.setdefault((point.model, point.dataset), []).append((key, point))

    records: dict[str, EvaluationRecord] = {}
    for (model, dataset), entries in groups.items():
        _, geometry = workload_geometry(model, dataset)
        for start in range(0, len(entries), chunk_points):
            chunk = entries[start : start + chunk_points]
            chunk_points_list = [point for _, point in chunk]
            sparse_configs = [p.sparse_config() for p in chunk_points_list]
            rates = np.asarray([p.pruning_rate for p in chunk_points_list])
            comparison = compare_batch(
                geometry,
                DensityGrid.from_pruning_rates(geometry, rates),
                ArchGrid.from_configs(sparse_configs),
                ArchGrid.from_configs(
                    [p.baseline_config() for p in chunk_points_list]
                ),
                EnergyGrid.from_models([p.energy_model() for p in chunk_points_list]),
            )
            # One C-level pass per metric column beats 100k numpy scalar
            # extractions on the record-construction hot path; positional
            # construction (field order asserted by the parity tests)
            # sidesteps 14 keyword lookups per record.
            for (key, point), config, rate, lat, en, ar, blat, ben, sp, ee in zip(
                chunk,
                sparse_configs,
                rates.tolist(),
                comparison.sparse.latency_us.tolist(),
                comparison.sparse.energy_uj.tolist(),
                comparison.area_mm2.tolist(),
                comparison.baseline.latency_us.tolist(),
                comparison.baseline.energy_uj.tolist(),
                comparison.speedup.tolist(),
                comparison.energy_efficiency.tolist(),
            ):
                records[key] = EvaluationRecord(
                    key,
                    model,
                    dataset,
                    rate,
                    point.overrides,
                    config.num_pes,
                    config.buffer_kib,
                    lat,
                    en,
                    ar,
                    blat,
                    ben,
                    sp,
                    ee,
                )
    metrics().counter("analytic.points_evaluated").inc(len(unique))
    return [records[key] for key in unique]


@dataclass(frozen=True)
class AnalyticGridPlan:
    """A full sweep grid kept in axis form for columnar evaluation.

    Materializing one :class:`DesignPoint` per grid cell costs more than the
    closed-form model itself at 10^5+ points, so the sweep compile stage
    hands over the axes and lets :func:`evaluate_grid_analytic`
    build its design-point columns with ``np.repeat``/``np.tile``.  Only
    valid when every axis and the workload list are duplicate-free (then
    every grid cell is a distinct point and dedup is a no-op); callers fall
    back to :func:`evaluate_points_analytic` otherwise.
    """

    workloads: tuple[tuple[str, str], ...]
    pes: tuple[int, ...]
    buffers: tuple[int, ...]
    rates: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.workloads) * len(self.pes) * len(self.buffers) * len(self.rates)


def evaluate_grid_analytic(plan: AnalyticGridPlan) -> list[EvaluationRecord]:
    """Closed-form evaluation of a full grid, straight from its axes.

    Emits records in exactly the order ``points_for`` would enumerate the
    grid (workloads outer; ``num_pes`` x ``buffer_kib`` x ``pruning_rate``
    row-major inner) with keys identical to :attr:`DesignPoint.key` of
    the corresponding point — callers cannot tell the fast
    path from the point-list path except by wall-clock.
    """
    n_rates = len(plan.rates)
    n_buffers = len(plan.buffers)
    # ArchConfig validates num_pes (PE-count/group-size divisibility) and
    # buffer_kib independently, so validating each axis value once is
    # equivalent to validating every combo — 140 config builds instead of
    # 4000 on a 100x40 grid.
    for p in plan.pes:
        _configs_for((("num_pes", int(p)),))
    for b in plan.buffers:
        _configs_for((("buffer_kib", int(b)),))
    # Canonical sorted override order, one tuple per arch combo.
    arch_overrides = [
        (("buffer_kib", int(b)), ("num_pes", int(p)))
        for p in plan.pes
        for b in plan.buffers
    ]

    pes_arr = np.asarray(plan.pes, dtype=np.int64)
    buf_arr = np.asarray(plan.buffers, dtype=np.int64)
    rate_arr = np.asarray(plan.rates, dtype=np.float64)
    # Combo-level columns (one row per arch combo) and point-level columns
    # (combo-major, rate-minor — points_for's row-major enumeration order).
    num_pes_combo = np.repeat(pes_arr, n_buffers)
    buffer_combo = np.tile(buf_arr, len(plan.pes))
    num_pes_col = np.repeat(num_pes_combo, n_rates)
    buffer_col = np.repeat(buffer_combo, n_rates)
    rate_col = np.tile(rate_arr, len(arch_overrides))
    n_points = rate_col.shape[0]

    def arch_grid(base: ArchConfig, num_pes: np.ndarray, buffer_kib: np.ndarray) -> ArchGrid:
        def scalar(value: float) -> np.ndarray:
            return np.asarray([[float(value)]])

        return ArchGrid(
            num_pes=num_pes[:, None].astype(np.float64),
            pes_per_group=scalar(base.pes_per_group),
            num_groups=(num_pes // base.pes_per_group)[:, None].astype(np.float64),
            kernel_size=scalar(base.kernel_size),
            clock_ghz=scalar(base.clock_ghz),
            buffer_kib=buffer_kib[:, None].astype(np.float64),
            # buffer_kib * 1024 // BYTES_PER_WORD, exact for integer KiB.
            buffer_words=buffer_kib[:, None].astype(np.float64) * 512.0,
            dram_words_per_cycle=scalar(base.dram_words_per_cycle),
            pe_utilization=scalar(base.pe_utilization),
            weight_reload_overhead=scalar(base.weight_reload_overhead),
            sync_cycles_per_layer=scalar(base.sync_cycles_per_layer),
            batch_size=scalar(base.batch_size),
        )

    sparse_base = sparsetrain_config()
    baseline_base = dense_baseline_config()
    energy = EnergyGrid.from_models([default_energy_model()])
    sparse_combo_grid = arch_grid(sparse_base, num_pes_combo, buffer_combo)
    baseline_combo_grid = arch_grid(baseline_base, num_pes_combo, buffer_combo)
    # Area and the dense baseline depend on the arch combo but not on the
    # pruning rate: evaluate them once per combo and expand — per-row numpy
    # arithmetic is position-independent, so the expanded values are bit-
    # identical to evaluating the full (combo, rate) cross product.
    area_combo = estimate_area(sparse_combo_grid).total_mm2[:, 0]
    rate_list = rate_col.tolist()
    num_pes_list = num_pes_col.tolist()
    buffer_list = buffer_col.tolist()
    # One overrides tuple and one repr per arch combo, expanded by reference;
    # key suffixes precomputed once so the per-record work is a single
    # C-level string concat instead of an f-string with two reprs.
    overrides_col = [ov for ov in arch_overrides for _ in range(n_rates)]
    ov_reprs = [repr(ov) for ov in arch_overrides]
    rate_reprs = [repr(rate) for rate in rate_arr.tolist()[:n_rates]]
    key_suffixes = [
        f"{rate_repr}|{ov_repr}|()"
        for ov_repr in ov_reprs
        for rate_repr in rate_reprs
    ]

    area_col = np.repeat(area_combo, n_rates)
    area_list = area_col.tolist()

    records: list[EvaluationRecord] = []
    for model, dataset in plan.workloads:
        _, geometry = workload_geometry(model, dataset)
        prefix = f"{model}/{dataset}@"
        baseline = estimate_batch(
            geometry, DensityGrid.dense(), baseline_combo_grid, energy, sparse=False
        )
        base_cycles_col = np.repeat(baseline.cycles, n_rates)
        base_energy_col = np.repeat(baseline.energy_uj, n_rates)
        base_lat_list = np.repeat(baseline.latency_us, n_rates).tolist()
        base_en_list = base_energy_col.tolist()
        for lo in range(0, n_points, CHUNK_POINTS):
            hi = min(lo + CHUNK_POINTS, n_points)
            sparse = estimate_batch(
                geometry,
                DensityGrid.from_pruning_rates(geometry, rate_col[lo:hi]),
                arch_grid(sparse_base, num_pes_col[lo:hi], buffer_col[lo:hi]),
                energy,
                sparse=True,
            )
            with np.errstate(divide="ignore"):
                speedup = base_cycles_col[lo:hi] / sparse.cycles
                energy_efficiency = base_energy_col[lo:hi] / sparse.energy_uj
            records.extend(
                EvaluationRecord(
                    prefix + suffix,
                    model,
                    dataset,
                    rate,
                    ov,
                    n_pes,
                    buf,
                    lat,
                    en,
                    ar,
                    blat,
                    ben,
                    sp,
                    ee,
                )
                for suffix, rate, ov, n_pes, buf, lat, en, ar, blat, ben, sp, ee in zip(
                    key_suffixes[lo:hi],
                    rate_list[lo:hi],
                    overrides_col[lo:hi],
                    num_pes_list[lo:hi],
                    buffer_list[lo:hi],
                    sparse.latency_us.tolist(),
                    sparse.energy_uj.tolist(),
                    area_list[lo:hi],
                    base_lat_list[lo:hi],
                    base_en_list[lo:hi],
                    speedup.tolist(),
                    energy_efficiency.tolist(),
                )
            )
    metrics().counter("analytic.points_evaluated").inc(len(records))
    return records


__all__ = [
    "AnalyticComparison",
    "AnalyticMetrics",
    "ArchGrid",
    "DensityGrid",
    "EnergyGrid",
    "LayerGeometry",
    "compare_batch",
    "estimate_batch",
    "evaluate_points_analytic",
    "workload_geometry",
]
