"""The benchmark's workloads and the inputs each one derives from its seed.

Everything the program receives is generated here: the JSON config of a
`pcpolar simulate` command (whose master_seed comes from the workload
seed) and, for the closed loop, pre-generated LLR frames. Importing this
module loads only the standard library, so the cold set-up timer can run
after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    code: dict
    decoders: tuple[str, ...]
    t_max: int
    snr_points: tuple[float, ...]
    # frames per (decoder, SNR point) in one simulate command; for the
    # closed loop, the size of the pre-generated frame pool
    frames: int
    workers: int
    # highest plausible FER per SNR point; a cell above it fails the run
    fer_ceiling: dict
    closed_loop: bool = False

    def iterations(self, kind: str) -> int:
        return 1 if kind == "sc" else self.t_max


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-long-scan",
            why=(
                "pcpolar simulate at N=1024 with csr-scan and pc-scan, where the SCAN tree "
                "engine (decoders) is ~97% of the wall time; isolates the tree engine, RNG is under 2%"
            ),
            code={"N": 1024, "K": 512, "scheme": "fc", "A": 0.5},
            decoders=("csr-scan", "pc-scan"),
            t_max=4,
            snr_points=(2.5,),
            frames=500,
            workers=1,
            fer_ceiling={2.5: 0.2},
        ),
        Workload(
            name="sweep-short-sc",
            why=(
                "pcpolar simulate at N=64 with sc on two workers, where frame generation dominates; "
                "isolates channel RNG, sim bookkeeping and the process pool, not the tree engine"
            ),
            code={"N": 64, "K": 32, "scheme": "fc", "A": 0.5},
            decoders=("sc",),
            t_max=1,
            snr_points=(1.0, 2.0, 3.0, 4.0),
            frames=10_000,
            workers=2,
            fer_ceiling={1.0: 0.6, 2.0: 0.35, 3.0: 0.15, 4.0: 0.05},
        ),
        Workload(
            name="decode-single",
            why=(
                "one caller decoding one N=64 frame per CsrScanDecoder call, closed loop; "
                "isolates per-call and per-node overhead of the tree engine at B=1"
            ),
            code={"N": 64, "K": 32, "scheme": "fc", "A": 0.5},
            decoders=("csr-scan",),
            t_max=4,
            snr_points=(2.5,),
            frames=250,
            workers=1,
            fer_ceiling={2.5: 0.5},
            closed_loop=True,
        ),
    )
}


def master_seed(workload: str, seed: int) -> int:
    """The simulator's master_seed for a workload seed (distinct per workload)."""
    return random.Random(f"{workload}/{seed}").getrandbits(31)


def sim_config(w: Workload, seed: int) -> dict:
    """The `pcpolar simulate` config of one command of the workload.

    min_frame_errors is set above the frame count, so early stopping never
    fires and every command decodes exactly `w.frames` frames per cell.
    """
    return {
        "code": dict(w.code),
        "decoder": {"t_max": w.t_max},
        "sim": {
            "snr_points": list(w.snr_points),
            "max_frames": w.frames,
            "min_frame_errors": w.frames + 1,
            "master_seed": master_seed(w.name, seed),
            "workers": w.workers,
        },
    }


def make_frames(pp, spec, rolemap, pcs, seed: int, snr_db: float, lo: int, hi: int):
    """Messages and channel LLRs of frames [lo, hi), drawn as the simulator draws them.

    Each frame takes K message bits and then N unit normals from
    `pcpolar.frame_rng(seed, frame_index)`, so frame f here is frame f of
    a simulate command with the same master_seed.
    """
    import numpy as np

    msgs = np.empty((hi - lo, spec.K), dtype=np.uint8)
    noise = np.empty((hi - lo, spec.N))
    for i, f in enumerate(range(lo, hi)):
        g = pp.frame_rng(seed, f)
        msgs[i] = g.integers(0, 2, spec.K, dtype=np.uint8)
        noise[i] = g.standard_normal(spec.N)
    sigma = pp.ebn0_to_sigma(snr_db, spec.rate)
    sym = pp.modulate_bpsk(pp.encode(msgs, spec, rolemap, pcs))
    return msgs, pp.channel_llrs(sym + sigma * noise, sigma)
