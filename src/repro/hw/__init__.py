"""Hardware substrate: simulated TPU, and CPU/GPU comparator models.

The paper's evaluation compares three hardware configurations running
the same algorithm (Section IV-A).  This package provides all three:

* :class:`~repro.hw.tpu.TpuCore` / :class:`~repro.hw.tpu.TpuChip` -- a
  cycle-level TPU built from a weight-stationary systolic array
  (:mod:`repro.hw.systolic`), int8/bf16 quantization
  (:mod:`repro.hw.quantize`), an MXU tiler (:mod:`repro.hw.mxu`), a
  small ISA with an overlap-aware scheduler (:mod:`repro.hw.isa`),
  explicit memory regions (:mod:`repro.hw.memory`) and a ring
  interconnect (:mod:`repro.hw.interconnect`);
* :class:`~repro.hw.cpu.CpuDevice` -- the paper's baseline host CPU;
* :class:`~repro.hw.gpu.GpuDevice` -- the paper's GTX 1080 comparator.

All three expose the common :class:`~repro.hw.device.Device` interface:
functional numpy execution plus *simulated seconds*, which is what every
table and figure in the paper reports.
"""

from repro.hw.cpu import CpuConfig, CpuDevice
from repro.hw.device import (
    Device,
    DeviceStats,
    PipelineStage,
    pipelined_elapsed_seconds,
)
from repro.hw.gpu import GpuConfig, GpuDevice
from repro.hw.compiler import (
    Op,
    OpGraph,
    compiled_seconds,
    eager_seconds,
    lower,
    solve_graph,
)
from repro.hw.interconnect import Interconnect, InterconnectConfig
from repro.hw.isa import Instruction, Opcode, Program, ScheduleResult, Scheduler
from repro.hw.memory import (
    Allocation,
    MemoryCapacityError,
    MemoryRegion,
    MemorySpec,
    accumulator_spec,
    hbm_spec,
    host_link_spec,
    unified_buffer_spec,
)
from repro.hw.mxu import Mxu, MxuConfig, MxuStats, matmul_cycles
from repro.hw.pod import PodWaveStats, TpuPod, clone_device, resolve_pod
from repro.hw.perf import (
    AmdahlBreakdown,
    format_stats,
    matmul_operational_intensity,
    operational_intensity,
    roofline_attainable_flops,
    speedup,
)
from repro.hw.quantize import (
    BF16,
    FP32,
    FP64,
    INT8,
    PrecisionSpec,
    QuantizedTensor,
    dequantize,
    infeed_bytes_per_element,
    precision_spec,
    quantization_error_bound,
    quantization_scale,
    quantize,
    quantize_dequantize,
    quantized_complex_matmul,
    quantized_conv_error_bound,
    quantized_matmul,
    quantized_score_error_bound,
    resolve_precision,
    to_bfloat16,
)
from repro.hw.systolic import SystolicArray, SystolicResult, streaming_cycles
from repro.hw.trace import (
    SystolicTrace,
    trace_matmul,
    trace_pass,
    utilization_ascii,
    write_vcd,
)
from repro.hw.tpu import TpuChip, TpuChipConfig, TpuCore, TpuCoreConfig

__all__ = [
    "CpuConfig",
    "CpuDevice",
    "Device",
    "DeviceStats",
    "PipelineStage",
    "pipelined_elapsed_seconds",
    "PodWaveStats",
    "TpuPod",
    "clone_device",
    "resolve_pod",
    "GpuConfig",
    "GpuDevice",
    "Op",
    "OpGraph",
    "compiled_seconds",
    "eager_seconds",
    "lower",
    "solve_graph",
    "SystolicTrace",
    "trace_matmul",
    "trace_pass",
    "utilization_ascii",
    "write_vcd",
    "Interconnect",
    "InterconnectConfig",
    "Instruction",
    "Opcode",
    "Program",
    "ScheduleResult",
    "Scheduler",
    "Allocation",
    "MemoryCapacityError",
    "MemoryRegion",
    "MemorySpec",
    "accumulator_spec",
    "hbm_spec",
    "host_link_spec",
    "unified_buffer_spec",
    "Mxu",
    "MxuConfig",
    "MxuStats",
    "matmul_cycles",
    "AmdahlBreakdown",
    "format_stats",
    "matmul_operational_intensity",
    "operational_intensity",
    "roofline_attainable_flops",
    "speedup",
    "BF16",
    "FP32",
    "FP64",
    "INT8",
    "PrecisionSpec",
    "QuantizedTensor",
    "dequantize",
    "infeed_bytes_per_element",
    "precision_spec",
    "quantization_error_bound",
    "quantization_scale",
    "quantize",
    "quantize_dequantize",
    "quantized_complex_matmul",
    "quantized_conv_error_bound",
    "quantized_matmul",
    "quantized_score_error_bound",
    "resolve_precision",
    "to_bfloat16",
    "SystolicArray",
    "SystolicResult",
    "streaming_cycles",
    "TpuChip",
    "TpuChipConfig",
    "TpuCore",
    "TpuCoreConfig",
]
