"""Cold set-up of a workload: import, config resolution, build_code, decoders.

`setup_s` times exactly this. Importing the module loads only the
standard library, so the first call in a process pays the package import.
Run as a script it makes one cold set-up in a fresh interpreter and
prints its seconds:

    python3 bench/coldstart.py CONFIG.json KIND[,KIND...]
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def have_source() -> bool:
    return (SRC / "pcpolar" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import pcpolar from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Setup:
    pp: object
    cli: object
    spec: object
    rolemap: object
    pcs: object
    decoders: dict


def make_decoder(pp, dec, rolemap, pcs):
    """The decoder object `pcpolar decode` builds for a resolved DecoderConfig."""
    if dec.kind == "sc":
        return pp.ScDecoder(rolemap, pcs)
    if dec.kind == "scan":
        return pp.ScanDecoder(rolemap, schedule=dec.schedule)
    if dec.kind == "pc-scan":
        return pp.PcScanDecoder(rolemap, pcs, damping=dec.damping, schedule=dec.schedule)
    return pp.CsrScanDecoder(rolemap, pcs, schedule=dec.schedule)


def cold_setup(config_path, kinds) -> tuple[float, Setup]:
    """Seconds to import, resolve the config, build the code and its decoders."""
    t0 = time.perf_counter()
    import pcpolar as pp
    from pcpolar import cli

    args = cli.build_parser().parse_args(["simulate", "--config", str(config_path)])
    cfg = cli.load_config(args.config)
    spec = cli.resolve_spec(cfg)
    rolemap, pcs = pp.build_code(spec)
    decoders = {}
    for kind in kinds:
        dec = cli.resolve_decoder(cfg, kind=kind)
        cli.resolve_sim(cfg, spec, dec, args)
        decoders[kind] = make_decoder(pp, dec, rolemap, pcs)
    return time.perf_counter() - t0, Setup(pp, cli, spec, rolemap, pcs, decoders)


if __name__ == "__main__":
    if len(sys.argv) != 3 or not have_source():
        sys.exit("usage: coldstart.py CONFIG KIND[,KIND...] (run inside a checkout with src/pcpolar)")
    use_checkout_source()
    seconds, _ = cold_setup(sys.argv[1], sys.argv[2].split(","))
    print(repr(seconds))
