"""In-memory spans recorded around the calls pcpolar makes into each layer.

`instrument` swaps, for the length of a with-block, the module-level names
that `pcpolar.sim` and `pcpolar.cli` call (and each decoder class's
`decode`) for wrappers that record one span per call, then restores them.
Spans stay in memory; `dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# decoder kind -> the class pcpolar exports for it
DECODER_CLASSES = {
    "sc": "ScDecoder",
    "scan": "ScanDecoder",
    "pc-scan": "PcScanDecoder",
    "csr-scan": "CsrScanDecoder",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    frames: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = "-"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, frames: int | None = None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        s = Span(name, 0.0, 0.0, parent, self.run, frames)
        self.spans.append(s)
        self._open.append(idx)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, frames=None):
        """`fn` recording a span per call; `frames(*args)` counts the frames it handles."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, frames(*args) if frames else None):
                return fn(*args, **kwargs)

        return traced

    def select(self, name: str, runs: tuple[str, ...]) -> list[int]:
        """Indices of the spans called `name` whose run id starts with one of `runs`."""
        return [i for i, s in enumerate(self.spans) if s.name == name and s.run.startswith(runs)]

    def self_seconds(self, idx: int) -> float:
        """Span duration minus the part of its interval that its child spans cover."""
        s = self.spans[idx]
        kids = sorted((c.start, c.end) for c in self.spans if c.parent == idx)
        covered, reach = 0.0, s.start
        for lo, hi in kids:
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return s.seconds - covered

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def _rows(x, *_) -> int:
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) == 1 else int(shape[0])


@contextmanager
def instrument(tracer: Tracer):
    """Record spans at every layer boundary that simulate and the decoders cross."""
    import pcpolar
    from pcpolar import cli, sim

    patches = [
        (pcpolar, "build_code", "construction.build_code", None),
        (sim, "build_code", "construction.build_code", None),
        (sim, "encode", "encoder.encode", _rows),
        (sim, "modulate_bpsk", "channel.modulate_bpsk", _rows),
        (sim, "channel_llrs", "channel.channel_llrs", _rows),
        (sim, "run_cell", "sim.run_cell", None),
        (cli, "sweep", "sim.sweep", None),
    ]
    for kind, cls in DECODER_CLASSES.items():
        patches.append((getattr(pcpolar, cls), "decode", f"decoders.{kind}.decode", lambda self, llrs, *a: _rows(llrs)))
    saved = []
    try:
        for owner, attr, name, frames in patches:
            saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), frames))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
