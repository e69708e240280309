"""Application 1: LPC-based acoustic data compression (paper §5.2)."""

from repro.apps.lpc.fft import fft, fft_cycles, power_spectrum
from repro.apps.lpc.huffman import HuffmanCode, build_huffman_code
from repro.apps.lpc.linalg import lu_decompose, lu_solve, solve
from repro.apps.lpc.lpc import (
    Quantizer,
    autocorrelation,
    lpc_coefficients,
    prediction_error,
    reconstruct,
)
from repro.apps.lpc.pipeline import (
    AdcPipeline,
    ParallelErrorSystem,
    build_adc_graph,
    build_parallel_error_graph,
)
from repro.apps.lpc.signal_gen import SpeechLikeSource, frame_stream

__all__ = [
    "fft", "fft_cycles", "power_spectrum",
    "HuffmanCode", "build_huffman_code",
    "lu_decompose", "lu_solve", "solve",
    "Quantizer", "autocorrelation", "lpc_coefficients",
    "prediction_error", "reconstruct",
    "AdcPipeline", "ParallelErrorSystem",
    "build_adc_graph", "build_parallel_error_graph",
    "SpeechLikeSource", "frame_stream",
]
