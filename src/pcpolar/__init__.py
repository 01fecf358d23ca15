"""Parity-check polar codec with SC / SCAN / PC-SCAN / CSR-SCAN decoders."""

__version__ = "0.1.0"

from .channel import (
    LLR_MAX,
    awgn,
    channel_llrs,
    ebn0_to_sigma,
    frame_rng,
    modulate_bpsk,
)
from .construction import (
    FROZEN,
    INFO,
    PC,
    CodeSpec,
    PcStructure,
    ReliabilitySequence,
    RoleMap,
    build_code,
    build_rolemap,
    coefficient_to_register_length,
    derive_pc_structure,
    pw_reliability,
    row_weight,
)
from .decoders import (
    CsrScanDecoder,
    DampingConfig,
    DecodeResult,
    DecoderConfig,
    PcScanDecoder,
    ScanDecoder,
    ScDecoder,
    make_decoder,
)
from .encoder import (
    csr_precode,
    encode,
    polar_transform,
)
from .sim import (
    SimConfig,
    SimResult,
    run_cell,
    sweep,
    wilson_interval,
)
