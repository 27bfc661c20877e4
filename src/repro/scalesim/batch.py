"""Structure-of-arrays batch kernel for the systolic-array simulator.

Phase 2 evaluates *pools* of accelerator design points against the same
lowered workload (initial BO sampling, NSGA-II generations, exhaustive
chunks).  The scalar :class:`~repro.scalesim.simulator.SystolicArraySimulator`
walks Python dataclasses layer by layer for every point; this module
lowers a whole batch of :class:`~repro.scalesim.config.AcceleratorConfig`
into ``(B,)`` NumPy arrays, the workload's per-layer GEMMs into ``(L,)``
arrays, and computes mapping, traffic and cycle counts for the entire
``(B, L)`` cross product in one vectorised pass.

Bit-equality contract (the repo's established vectorisation rule from
the Phase 1 engine): the batch kernel performs *the same arithmetic* as
the scalar model --

* every quantity is integral and carried in ``int64`` arrays, so sums
  and products are exact;
* ``ceil(a / b)`` is evaluated as the ceiling of an IEEE-754 float
  division, exactly like the scalar model's ``math.ceil(a / b)``
  (operand magnitudes stay far below 2**53, where int->float
  conversion is exact);
* comparisons and selections (operand-fit tests, the loop-orientation
  choice, ``max(compute, dram)``) are elementwise versions of the
  scalar branches.

The equivalence suite (``tests/scalesim/test_batch_equivalence.py``)
enforces that materialised per-point reports are field-for-field equal
to ``SystolicArraySimulator._simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.nn.workload import NetworkWorkload
from repro.scalesim.config import AcceleratorConfig, Dataflow
from repro.scalesim.dataflow import MappingStats
from repro.scalesim.memory import TrafficStats, _usable
from repro.scalesim.report import LayerReport, RunReport


def _ceil_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Vectorised ``math.ceil(a / b)`` via float division.

    Matches the scalar model bit-for-bit: CPython's ``a / b`` on ints
    and NumPy's ``true_divide`` on ``int64`` agree whenever both
    operands are exactly representable as float64, which holds for
    every operand this model produces.
    """
    return np.ceil(np.true_divide(numerator, denominator)).astype(np.int64)


@dataclass(frozen=True)
class WorkloadArrays:
    """One lowered workload as ``(L,)`` structure-of-arrays columns."""

    workload: NetworkWorkload
    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    macs: np.ndarray
    ifmap_bytes: np.ndarray
    filter_bytes: np.ndarray
    ofmap_bytes: np.ndarray

    @property
    def num_layers(self) -> int:
        """Layer count L."""
        return int(self.m.shape[0])


def lower_workload_arrays(workload: NetworkWorkload) -> WorkloadArrays:
    """Lower a workload's per-layer GEMMs and operand sizes to arrays."""
    if not workload.layers:
        raise SimulationError(f"workload {workload.name!r} has no layers")
    as_i64 = lambda values: np.asarray(values, dtype=np.int64)  # noqa: E731
    return WorkloadArrays(
        workload=workload,
        m=as_i64([l.gemm.m for l in workload.layers]),
        k=as_i64([l.gemm.k for l in workload.layers]),
        n=as_i64([l.gemm.n for l in workload.layers]),
        macs=as_i64([l.gemm.macs for l in workload.layers]),
        ifmap_bytes=as_i64([l.ifmap_bytes for l in workload.layers]),
        filter_bytes=as_i64([l.filter_bytes for l in workload.layers]),
        ofmap_bytes=as_i64([l.ofmap_bytes for l in workload.layers]),
    )


@dataclass(frozen=True)
class ConfigArrays:
    """A batch of accelerator configs as ``(B, 1)`` column vectors.

    Columns are shaped for broadcasting against ``(L,)`` workload rows.
    Usable capacities are the double-buffered halves, exactly as the
    scalar traffic model computes them.
    """

    configs: Tuple[AcceleratorConfig, ...]
    pe_rows: np.ndarray
    pe_cols: np.ndarray
    num_pes: np.ndarray
    ifmap_capacity: np.ndarray
    filter_capacity: np.ndarray
    bandwidth: np.ndarray
    clock_hz: np.ndarray

    @property
    def batch_size(self) -> int:
        """Config count B."""
        return len(self.configs)


def lower_config_arrays(configs: Sequence[AcceleratorConfig]) -> ConfigArrays:
    """Lower a batch of accelerator configs to broadcastable columns."""
    configs = tuple(configs)
    if not configs:
        raise SimulationError("config batch must not be empty")
    column = lambda values, dtype=np.int64: np.asarray(  # noqa: E731
        values, dtype=dtype).reshape(-1, 1)
    return ConfigArrays(
        configs=configs,
        pe_rows=column([c.pe_rows for c in configs]),
        pe_cols=column([c.pe_cols for c in configs]),
        num_pes=column([c.num_pes for c in configs]),
        ifmap_capacity=column([_usable(c.ifmap_sram_bytes) for c in configs]),
        filter_capacity=column([_usable(c.filter_sram_bytes)
                                for c in configs]),
        bandwidth=column([c.dram_bandwidth_bytes_per_cycle for c in configs]),
        clock_hz=column([c.clock_hz for c in configs], dtype=np.float64),
    )


@dataclass(frozen=True)
class BatchMapping:
    """``(B, L)`` mapping results (one row per config, column per layer)."""

    compute_cycles: np.ndarray
    folds: np.ndarray
    ifmap_sram_reads: np.ndarray
    filter_sram_reads: np.ndarray
    ofmap_sram_writes: np.ndarray
    ofmap_sram_reads: np.ndarray


def map_gemm_batch(workload: WorkloadArrays,
                   configs: ConfigArrays) -> BatchMapping:
    """Map every GEMM onto every config under each config's dataflow.

    Configs are grouped by dataflow; each group is computed in one
    broadcast pass and scattered back into the ``(B, L)`` outputs, so a
    mixed-dataflow batch costs one pass per distinct dataflow.
    """
    shape = (configs.batch_size, workload.num_layers)
    out = {name: np.empty(shape, dtype=np.int64)
           for name in ("compute_cycles", "folds", "ifmap_sram_reads",
                        "filter_sram_reads", "ofmap_sram_writes",
                        "ofmap_sram_reads")}
    dataflows = [c.dataflow for c in configs.configs]
    for dataflow in set(dataflows):
        rows = np.flatnonzero([d is dataflow for d in dataflows])
        group = _map_dataflow_group(workload, configs, rows, dataflow)
        for name, values in group.items():
            out[name][rows] = values
    return BatchMapping(**out)


def _map_dataflow_group(workload: WorkloadArrays, configs: ConfigArrays,
                        rows: np.ndarray, dataflow: Dataflow) -> dict:
    """The scalar dataflow fold model, broadcast over one config group."""
    r = configs.pe_rows[rows]
    c = configs.pe_cols[rows]
    m, k, n = workload.m, workload.k, workload.n

    if dataflow is Dataflow.OUTPUT_STATIONARY:
        m_folds = _ceil_div(m, r)
        n_folds = _ceil_div(n, c)
        folds = m_folds * n_folds
        compute = folds * (2 * r + c + k - 2)
        return {
            "compute_cycles": compute,
            "folds": folds,
            "ifmap_sram_reads": m * n_folds * k,
            "filter_sram_reads": n * m_folds * k,
            "ofmap_sram_writes": np.broadcast_to(m * n, folds.shape).copy(),
            "ofmap_sram_reads": np.zeros(folds.shape, dtype=np.int64),
        }
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        k_folds = _ceil_div(k, r)
        n_folds = _ceil_div(n, c)
        folds = k_folds * n_folds
        compute = folds * (m + 2 * r + c - 2)
        return {
            "compute_cycles": compute,
            "folds": folds,
            "ifmap_sram_reads": m * k * n_folds,
            "filter_sram_reads": np.broadcast_to(k * n, folds.shape).copy(),
            "ofmap_sram_writes": m * n * k_folds,
            "ofmap_sram_reads": m * n * (k_folds - 1),
        }
    if dataflow is Dataflow.INPUT_STATIONARY:
        k_folds = _ceil_div(k, r)
        m_folds = _ceil_div(m, c)
        folds = k_folds * m_folds
        compute = folds * (n + 2 * r + c - 2)
        return {
            "compute_cycles": compute,
            "folds": folds,
            "ifmap_sram_reads": np.broadcast_to(m * k, folds.shape).copy(),
            "filter_sram_reads": k * n * m_folds,
            "ofmap_sram_writes": m * n * k_folds,
            "ofmap_sram_reads": m * n * (k_folds - 1),
        }
    raise SimulationError(f"unknown dataflow {dataflow!r}")


@dataclass(frozen=True)
class BatchTraffic:
    """``(B, L)`` DRAM traffic and bandwidth-limited timing."""

    dram_ifmap_read_bytes: np.ndarray
    dram_filter_read_bytes: np.ndarray
    dram_ofmap_write_bytes: np.ndarray
    dram_cycles: np.ndarray
    first_fill_cycles: np.ndarray

    @property
    def dram_read_bytes(self) -> np.ndarray:
        """Total DRAM read bytes per (config, layer) -- psum traffic is 0."""
        return self.dram_ifmap_read_bytes + self.dram_filter_read_bytes


def analyze_traffic_batch(workload: WorkloadArrays,
                          configs: ConfigArrays) -> BatchTraffic:
    """The scalar re-fetch/bandwidth model over the whole batch."""
    ifmap_bytes = workload.ifmap_bytes
    filter_bytes = workload.filter_bytes
    ifmap_capacity = configs.ifmap_capacity
    filter_capacity = configs.filter_capacity

    either_fits = ((ifmap_bytes <= ifmap_capacity)
                   | (filter_bytes <= filter_capacity))
    filter_chunks = _ceil_div(filter_bytes, filter_capacity)
    ifmap_chunks = _ceil_div(ifmap_bytes, ifmap_capacity)
    refetch_ifmap = ifmap_bytes * filter_chunks + filter_bytes
    refetch_filter = filter_bytes * ifmap_chunks + ifmap_bytes
    stream_ifmap = refetch_ifmap <= refetch_filter

    dram_ifmap = np.where(
        either_fits, np.broadcast_to(ifmap_bytes, either_fits.shape),
        np.where(stream_ifmap, ifmap_bytes * filter_chunks,
                 np.broadcast_to(ifmap_bytes, either_fits.shape)))
    dram_filter = np.where(
        either_fits, np.broadcast_to(filter_bytes, either_fits.shape),
        np.where(stream_ifmap, np.broadcast_to(filter_bytes,
                                               either_fits.shape),
                 filter_bytes * ifmap_chunks))

    total_bytes = dram_ifmap + dram_filter + workload.ofmap_bytes
    dram_cycles = _ceil_div(total_bytes, configs.bandwidth)

    first_fill_bytes = (np.minimum(ifmap_capacity, ifmap_bytes)
                        + np.minimum(filter_capacity, filter_bytes))
    first_fill_cycles = _ceil_div(
        np.minimum(first_fill_bytes, dram_ifmap + dram_filter),
        configs.bandwidth)

    return BatchTraffic(
        dram_ifmap_read_bytes=dram_ifmap,
        dram_filter_read_bytes=dram_filter,
        dram_ofmap_write_bytes=np.broadcast_to(
            workload.ofmap_bytes, dram_ifmap.shape).copy(),
        dram_cycles=dram_cycles,
        first_fill_cycles=first_fill_cycles,
    )


@dataclass(frozen=True)
class BatchSimulation:
    """All per-(config, layer) quantities for one workload x config batch.

    Everything downstream of the simulator (power, weight, objectives)
    reads the aggregate columns; :meth:`reports` materialises the same
    per-point :class:`~repro.scalesim.report.RunReport` objects the
    scalar simulator produces, for the shared report cache.
    """

    workload: NetworkWorkload
    configs: Tuple[AcceleratorConfig, ...]
    mapping: BatchMapping
    traffic: BatchTraffic
    total_cycles: np.ndarray

    @property
    def batch_size(self) -> int:
        """Config count B."""
        return len(self.configs)

    def reports(self) -> List[RunReport]:
        """Materialise one :class:`RunReport` per config, in batch order.

        Construction bypasses the frozen-dataclass ``__init__`` (plain
        ``__dict__`` fill, the same shape pickle restores), because at
        Phase 2 pool sizes object construction -- not arithmetic -- is
        the remaining cost; field values are identical either way.

        Layers with an identical GEMM produce value-identical mapping
        and traffic stats for any given config (the model is a pure
        function of (gemm, config)), so those frozen records are built
        once per distinct GEMM and shared between duplicate layers --
        the policy template's hidden stack makes this most of the
        network.  Only the :class:`LayerReport` (which carries the
        layer name) stays per-layer.
        """
        workload_layers = self.workload.layers
        layer_names = [l.name for l in workload_layers]
        macs_list = [l.gemm.macs for l in workload_layers]
        # canonical[i]: index of the first layer with the same GEMM.
        seen: dict = {}
        canonical = [seen.setdefault(l.gemm, i)
                     for i, l in enumerate(workload_layers)]
        unique = [i for i, c in enumerate(canonical) if c == i]
        layer_range = range(len(workload_layers))

        mapping_cols = list(zip(
            self.mapping.compute_cycles.tolist(),
            self.mapping.folds.tolist(),
            self.mapping.ifmap_sram_reads.tolist(),
            self.mapping.filter_sram_reads.tolist(),
            self.mapping.ofmap_sram_writes.tolist(),
            self.mapping.ofmap_sram_reads.tolist(),
        ))
        traffic_cols = list(zip(
            self.traffic.dram_ifmap_read_bytes.tolist(),
            self.traffic.dram_filter_read_bytes.tolist(),
            self.traffic.dram_ofmap_write_bytes.tolist(),
            self.traffic.dram_cycles.tolist(),
            self.traffic.first_fill_cycles.tolist(),
        ))
        totals = self.total_cycles.tolist()

        new = object.__new__
        setdict = object.__setattr__
        network_name = self.workload.name
        reports: List[RunReport] = []
        for config, m_row, t_row, row_totals in zip(
                self.configs, mapping_cols, traffic_cols, totals):
            num_pes = config.num_pes
            (compute_c, folds_c, if_reads_c, fil_reads_c, of_writes_c,
             of_reads_c) = m_row
            dram_if_c, dram_fil_c, dram_of_c, dram_cyc_c, fill_c = t_row
            mappings = [None] * len(canonical)
            traffics = [None] * len(canonical)
            for li in unique:
                mapping = new(MappingStats)
                setdict(mapping, "__dict__", {
                    "compute_cycles": compute_c[li], "folds": folds_c[li],
                    "ifmap_sram_reads": if_reads_c[li],
                    "filter_sram_reads": fil_reads_c[li],
                    "ofmap_sram_writes": of_writes_c[li],
                    "ofmap_sram_reads": of_reads_c[li],
                    "macs": macs_list[li], "num_pes": num_pes})
                mappings[li] = mapping
                traffic = new(TrafficStats)
                setdict(traffic, "__dict__", {
                    "dram_ifmap_read_bytes": dram_if_c[li],
                    "dram_filter_read_bytes": dram_fil_c[li],
                    "dram_ofmap_write_bytes": dram_of_c[li],
                    "dram_psum_read_bytes": 0, "dram_psum_write_bytes": 0,
                    "dram_cycles": dram_cyc_c[li],
                    "first_fill_cycles": fill_c[li]})
                traffics[li] = traffic
            layers = []
            for li in layer_range:
                ci = canonical[li]
                layer = new(LayerReport)
                setdict(layer, "__dict__", {
                    "name": layer_names[li], "mapping": mappings[ci],
                    "traffic": traffics[ci],
                    "total_cycles": row_totals[li]})
                layers.append(layer)
            report = new(RunReport)
            setdict(report, "__dict__", {
                "network_name": network_name, "layers": tuple(layers),
                "clock_hz": config.clock_hz})
            reports.append(report)
        return reports


def simulate_batch(workload: NetworkWorkload,
                   configs: Sequence[AcceleratorConfig]) -> BatchSimulation:
    """Run the analytical model for one workload over a config batch."""
    workload_arrays = lower_workload_arrays(workload)
    config_arrays = lower_config_arrays(configs)
    mapping = map_gemm_batch(workload_arrays, config_arrays)
    traffic = analyze_traffic_batch(workload_arrays, config_arrays)
    total_cycles = (np.maximum(mapping.compute_cycles, traffic.dram_cycles)
                    + traffic.first_fill_cycles)
    return BatchSimulation(
        workload=workload,
        configs=config_arrays.configs,
        mapping=mapping,
        traffic=traffic,
        total_cycles=total_cycles,
    )
