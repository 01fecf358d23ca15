"""Build and load the compiled SCAN-family tree pass (treepass.c).

The first SCAN-family decoder built in a process calls `load()`. It
compiles treepass.c with the installed gcc, unless a build of the same
source and flags is already cached, and opens it through ctypes. Builds
live in `$XDG_CACHE_HOME/pcpolar` (else `~/.cache/pcpolar`), a directory
made with mode 0700, one file per SHA-256 of the source plus the flags;
each build goes to a temporary name and is renamed into place, so
processes building at once all end with a whole library. Where no
library can be built or loaded (no gcc, a cache directory that cannot be
written or that others can write, a failed compile), `load()` returns
None and the decoders run the numpy engine, which computes the same
bits. The pass sees the code only as its leaf kinds and L: a checked info
leaf finds its parity checks by walking its own chain (see treepass.c).
"""

from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("treepass.c")
# no -ffast-math or -march=native: the pass must round as numpy does
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def cache_dir() -> Path:
    """Where builds are cached: $XDG_CACHE_HOME/pcpolar, else ~/.cache/pcpolar."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "pcpolar"


def build(cache: Path) -> Path:
    """The library for this source and these flags under `cache`, compiled
    if it is not there yet. Raises OSError or a subprocess error on failure."""
    import hashlib
    import subprocess

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(("", *FLAGS)).encode()).hexdigest()
    lib = cache / f"treepass-{key}.so"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = cache.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{cache} is not a private directory; not loading code from it")
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=lib.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        # the compiler reads the very bytes that were hashed; no gcc on PATH
        # raises FileNotFoundError
        cmd = ["gcc", *FLAGS, "-x", "c", "-", "-o", tmp]
        subprocess.run(cmd, input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def open_library(path: Path):
    """The built library (a ctypes.CDLL) with its one entry point,
    `scan_pass`, typed; array arguments must be C-contiguous and of the
    declared dtype."""
    import ctypes

    import numpy as np

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    f64 = array(np.float64)
    lib = ctypes.CDLL(str(path))
    # n, B, sequential, alpha, beta (n+1, N, B), rate0 (n+1, N), leaf kinds (N,),
    # L, registers (L, B), cache (N, B), lambda_p, lambda_i
    lib.scan_pass.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int, f64, f64, array(np.uint8), array(np.int8),
        ctypes.c_int64, f64, f64, ctypes.c_double, ctypes.c_double,
    ]
    lib.scan_pass.restype = None
    return lib


@functools.cache
def load():
    """The compiled tree pass (see open_library), or None where it cannot
    be built or loaded."""
    import subprocess

    try:
        return open_library(build(cache_dir()))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
