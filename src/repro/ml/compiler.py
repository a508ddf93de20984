"""The hls4ml-style compiler front-end (paper §9.7, Code 3).

Mirrors the hls4ml API surface the paper shows: build a model, derive a
config, ``convert`` it for a backend, ``compile()`` for bit-exact software
emulation, ``build()`` to "synthesize" an IP core with resource and timing
estimates, then hand the result to an overlay for deployment.

Backends:

* ``CoyoteAccelerator`` — the paper's contribution: the IP becomes a vFPGA
  behind the shell, input streamed straight from host memory.
* ``VitisPynq`` — the baseline: the IP is wrapped in a Vitis kernel and
  driven through the PYNQ Python runtime, which first copies inputs from
  host memory to FPGA HBM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sim.clock import FABRIC_CLOCK
from ..synth.resources import ResourceVector
from .quantize import DEFAULT_PRECISION, FixedPointType

__all__ = [
    "DenseSpec",
    "ModelSpec",
    "HlsConfig",
    "HlsModel",
    "NnIpCore",
    "config_from_model",
    "convert_model",
    "intrusion_detection_model",
    "BACKENDS",
]

BACKENDS = ("CoyoteAccelerator", "VitisPynq")


@dataclass
class DenseSpec:
    """A dense layer: weights (in, out), bias (out,), activation.

    Convolutions are *lowered* to this form at conversion time (the
    block-Toeplitz matrix of the kernel — what hls4ml's im2col does), so
    the IP and the streaming kernel only ever see matmuls.
    ``effective_multiplies`` keeps the pre-lowering MAC count for the
    resource estimate (weight sharing means a conv costs far fewer DSPs
    than its lowered matrix suggests).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"  # "relu" | "linear"
    effective_multiplies: Optional[int] = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (in, out)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError("bias shape must match output width")
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    @property
    def multiplies(self) -> int:
        if self.effective_multiplies is not None:
            return self.effective_multiplies
        return self.n_in * self.n_out


@dataclass
class ModelSpec:
    """A Keras-Sequential-like model: dense and conv1d layers.

    Inputs are flat vectors of ``input_width`` values; for convolutional
    models set ``input_shape=(length, channels)`` (row-major flattening,
    ``input_width == length * channels``).
    """

    input_width: int
    layers: List[DenseSpec] = field(default_factory=list)
    name: str = "model"
    input_shape: Optional[Tuple[int, int]] = None  # (length, channels)

    def __post_init__(self) -> None:
        if self.input_shape is not None:
            length, channels = self.input_shape
            if length * channels != self.input_width:
                raise ValueError("input_shape must flatten to input_width")
        # Current spatial shape, tracked while conv layers are appended.
        self._shape = self.input_shape

    def add_dense(
        self,
        units: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> "ModelSpec":
        n_in = self.layers[-1].n_out if self.layers else self.input_width
        if weights is None:
            rng = rng or np.random.default_rng(0)
            weights = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, units))
        if bias is None:
            bias = np.zeros(units)
        self.layers.append(DenseSpec(weights=weights, bias=bias, activation=activation))
        self._shape = None  # dense layers flatten the spatial structure
        return self

    def add_conv1d(
        self,
        filters: int,
        kernel_size: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
        kernel: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> "ModelSpec":
        """Append a valid-padding, stride-1 Conv1D.

        Lowered immediately to the equivalent block-Toeplitz dense layer;
        the kernel has shape ``(kernel_size, in_channels, filters)``.
        """
        if self._shape is None:
            raise ValueError(
                "conv1d needs spatial structure: set input_shape, and do "
                "not put a dense layer before a conv layer"
            )
        length, channels = self._shape
        if kernel_size > length:
            raise ValueError("kernel longer than the remaining sequence")
        if kernel is None:
            rng = rng or np.random.default_rng(0)
            kernel = rng.normal(
                0.0, 1.0 / np.sqrt(kernel_size * channels),
                size=(kernel_size, channels, filters),
            )
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (kernel_size, channels, filters):
            raise ValueError(
                f"kernel shape {kernel.shape} != {(kernel_size, channels, filters)}"
            )
        if bias is None:
            bias = np.zeros(filters)
        out_length = length - kernel_size + 1
        # Block-Toeplitz lowering: (length*channels) x (out_length*filters).
        lowered = np.zeros((length * channels, out_length * filters))
        for position in range(out_length):
            for tap in range(kernel_size):
                row = (position + tap) * channels
                col = position * filters
                lowered[row : row + channels, col : col + filters] = kernel[tap]
        tiled_bias = np.tile(np.asarray(bias, dtype=np.float64), out_length)
        self.layers.append(
            DenseSpec(
                weights=lowered,
                bias=tiled_bias,
                activation=activation,
                effective_multiplies=out_length * kernel_size * channels * filters,
            )
        )
        self._shape = (out_length, filters)
        return self

    @property
    def output_width(self) -> int:
        return self.layers[-1].n_out if self.layers else self.input_width

    def predict_float(self, x: np.ndarray) -> np.ndarray:
        """Reference float32 forward pass (the 'Keras' answer)."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = out @ layer.weights + layer.bias
            if layer.activation == "relu":
                out = np.maximum(out, 0.0)
        return out


@dataclass(frozen=True)
class HlsConfig:
    """Compiler knobs (the subset the experiments exercise)."""

    precision: FixedPointType = DEFAULT_PRECISION
    reuse_factor: int = 16
    clock_period_ns: float = 4.0  # 250 MHz

    def __post_init__(self) -> None:
        if self.reuse_factor < 1:
            raise ValueError("reuse_factor must be >= 1")


def config_from_model(model: ModelSpec, **overrides) -> HlsConfig:
    """hls4ml's ``config_from_keras_model`` equivalent."""
    return HlsConfig(**overrides)


@dataclass(frozen=True)
class NnIpCore:
    """The synthesized IP: functional weights + timing/resource estimates."""

    name: str
    input_width: int
    output_width: int
    quant_weights: Tuple[np.ndarray, ...]
    quant_bias: Tuple[np.ndarray, ...]
    activations: Tuple[str, ...]
    precision: FixedPointType
    initiation_interval_cycles: int
    latency_cycles: int
    resources: ResourceVector

    @property
    def sample_in_bytes(self) -> int:
        return self.input_width * 2  # 16-bit fixed-point features

    @property
    def sample_out_bytes(self) -> int:
        return self.output_width * 2

    def forward_quantized(self, x: np.ndarray) -> np.ndarray:
        """Bit-exact fixed-point inference (shared by emu and 'hardware')."""
        q = self.precision
        # Inputs quantized to the working precision.
        acts = q.quantize(np.asarray(x, dtype=np.float64))
        for weights, bias, activation in zip(
            self.quant_weights, self.quant_bias, self.activations
        ):
            # Integer MAC: (x * 2^f) @ (w * 2^f) = y * 2^(2f); rescale once.
            acc = acts @ weights + (bias << q.frac_bits)
            acts = np.clip(acc >> q.frac_bits, q.min_int, q.max_int)
            if activation == "relu":
                acts = np.maximum(acts, 0)
        return q.dequantize(acts)


def _estimate_resources(model: ModelSpec, config: HlsConfig) -> ResourceVector:
    """hls4ml-style estimates: DSPs from multiplies/reuse, BRAM for weights."""
    mults = sum(layer.multiplies for layer in model.layers)
    dsps = -(-mults // config.reuse_factor)
    weight_bits = mults * config.precision.total_bits
    brams = -(-weight_bits // (36 * 1024))
    luts = 3_000 + 35 * dsps + sum(60 * l.n_out for l in model.layers)
    return ResourceVector(luts=luts, ffs=int(1.6 * luts), brams=brams, dsps=dsps)


class HlsModel:
    """The converted model: emulate, build, deploy."""

    def __init__(self, model: ModelSpec, config: HlsConfig, backend: str):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.model = model
        self.config = config
        self.backend = backend
        self._compiled = False
        self.ip: Optional[NnIpCore] = None

    # -- software emulation --------------------------------------------------

    def compile(self) -> None:
        """Prepare bit-exact software emulation (hls4ml's csim)."""
        self.ip = self._make_ip()
        self._compiled = True

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._compiled:
            raise RuntimeError("call compile() before predict()")
        return self.ip.forward_quantized(x)

    # -- hardware build --------------------------------------------------------

    def _make_ip(self) -> NnIpCore:
        q = self.config.precision
        quant_w = tuple(q.quantize(l.weights) for l in self.model.layers)
        quant_b = tuple(q.quantize(l.bias) for l in self.model.layers)
        # Fully unrolled up to the reuse factor: II == reuse_factor cycles.
        latency = sum(
            2 + int(np.ceil(np.log2(max(2, l.n_in)))) for l in self.model.layers
        )
        return NnIpCore(
            name=self.model.name,
            input_width=self.model.input_width,
            output_width=self.model.output_width,
            quant_weights=quant_w,
            quant_bias=quant_b,
            activations=tuple(l.activation for l in self.model.layers),
            precision=q,
            initiation_interval_cycles=self.config.reuse_factor,
            latency_cycles=latency,
            resources=_estimate_resources(self.model, self.config),
        )

    def build(self) -> NnIpCore:
        """'Synthesize' the IP core (returns immediately in simulation)."""
        if self.ip is None:
            self.ip = self._make_ip()
        return self.ip


def convert_model(
    model: ModelSpec,
    hls_config: Optional[HlsConfig] = None,
    backend: str = "CoyoteAccelerator",
) -> HlsModel:
    """hls4ml's ``convert_from_keras_model`` equivalent."""
    return HlsModel(model, hls_config or HlsConfig(), backend)


def intrusion_detection_model(seed: int = 7) -> ModelSpec:
    """The network-intrusion-detection MLP of the paper's §9.7 ([44, 55]):
    a compact UNSW-NB15 classifier, 49 features -> 64 -> 32 -> 2."""
    rng = np.random.default_rng(seed)
    model = ModelSpec(input_width=49, name="intrusion_detection")
    model.add_dense(64, "relu", rng=rng)
    model.add_dense(32, "relu", rng=rng)
    model.add_dense(2, "linear", rng=rng)
    return model
