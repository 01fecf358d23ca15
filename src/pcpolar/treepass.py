"""Build and load the two compiled libraries: the tree pass (treepass.c)
and the frame chunk (framechunk.c).

The first decoder built in a process calls `load()`. It
compiles treepass.c with the installed gcc, unless a build of the same
source and flags is already cached, and opens it through ctypes. Builds
live in `$XDG_CACHE_HOME/pcpolar` (else `~/.cache/pcpolar`), a directory
made with mode 0700, one file per `cache_key`: the SHA-256 of the source
plus the flags (and of whatever else the build takes in); each build
goes to a temporary name and is renamed into place, so processes
building at once all end with a whole library. Where no library can be
built or loaded (no gcc, a cache directory that cannot be written or
that others can write, a failed compile), `load()` returns None and the
decoders run the numpy engine, which computes the same bits.

The tree pass exports one entry point, `scan_decode`: a whole decode of a
batch, all passes, in one call (typed in `open_library`). It runs the
frames in blocks of a fixed size in its own scratch buffers, so its
memory does not grow with the batch, and writes the decisions and soft
outputs into numpy-owned arrays. It sees the code only as its rate-0
nodes, leaf kinds, L and info positions: a checked info leaf finds its
parity checks by walking its own chain (see treepass.c).

`load_frames()` does the same for framechunk.c, on a process's first
simulation chunk; its one entry point, `frame_chunk`, makes a chunk's
messages and channel LLRs (typed in `open_frame_library`). That file
links numpy's own normal sampler from the libnpyrandom.a numpy ships, so
its key also covers numpy's version and the archive's bytes; where it
returns None (also when the archive is missing), the simulator makes its
chunks with numpy.
"""

from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("treepass.c")
FRAME_SOURCE = Path(__file__).with_name("framechunk.c")
# no -ffast-math or -march=native: the pass must round as numpy does
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def cache_dir() -> Path:
    """Where builds are cached: $XDG_CACHE_HOME/pcpolar, else ~/.cache/pcpolar."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "pcpolar"


def cache_key(source: bytes, flags=FLAGS, link=(), tag: str = "") -> str:
    """SHA-256 over the source, the flags, the SHA-256 of each link input's
    bytes and `tag` (for what else the build depends on)."""
    import hashlib

    h = hashlib.sha256(source + "\0".join(("", *flags)).encode())
    for path in link:
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    h.update(tag.encode())
    return h.hexdigest()


def build(cache: Path, source: Path = SOURCE, flags=FLAGS, link=(), tag: str = "") -> Path:
    """The library built from `source` with `flags` under `cache`, named by
    its `cache_key`, compiled if it is not there yet; `link` holds archives
    linked after the source, then libm. Raises OSError or a subprocess
    error on failure."""
    import subprocess

    code = source.read_bytes()
    lib = cache / f"{source.stem}-{cache_key(code, flags, link, tag)}.so"
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
        cmd = ["gcc", *flags, "-x", "c", "-", "-o", tmp]
        if link:
            cmd += ["-x", "none", *map(str, link), "-lm"]
        subprocess.run(cmd, input=code, capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def open_library(path: Path):
    """The built library (a ctypes.CDLL) with its one entry point,
    `scan_decode`, typed; array arguments must be C-contiguous and of the
    declared dtype."""
    import ctypes

    import numpy as np

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    f64, i64 = array(np.float64), ctypes.c_int64
    lib = ctypes.CDLL(str(path))
    # n, B, t_max, sequential, hard, root LLRs (B, N), rate0 (n+1, N), leaf kinds (N,),
    # L, lambda_p (t_max,), lambda_i (t_max,), info positions (K,), K,
    # decisions (t_max, B, K), leaf posteriors (B, N), coded extrinsics (B, N)
    lib.scan_decode.argtypes = [
        i64, i64, i64, ctypes.c_int, ctypes.c_int, f64, array(np.uint8), array(np.int8), i64, f64, f64,
        array(np.int64), i64, array(np.uint8), f64, f64,
    ]
    lib.scan_decode.restype = ctypes.c_int  # 0, or -1 when out of memory
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


def numpy_random_archive() -> Path:
    """numpy's random distributions as a static library, which it ships for
    third-party C code."""
    import numpy as np

    return Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"


def open_frame_library(path: Path):
    """The built frame library (a ctypes.CDLL) with its one entry point,
    `frame_chunk`, typed; array arguments must be C-contiguous and of the
    declared dtype."""
    import ctypes

    import numpy as np

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    i64 = ctypes.c_int64
    lib = ctypes.CDLL(str(path))
    # B, N, K, L, seed words (B, 4), info positions (K,), PC flags (N,), noiseless,
    # sigma, LLR_MAX, messages (B, K), LLRs (B, N)
    lib.frame_chunk.argtypes = [
        i64, i64, i64, i64, array(np.uint64), array(np.int64), array(np.uint8), ctypes.c_int,
        ctypes.c_double, ctypes.c_double, array(np.uint8), array(np.float64),
    ]
    lib.frame_chunk.restype = ctypes.c_int  # 0, or -1 when out of memory
    return lib


@functools.cache
def load_frames():
    """The compiled frame chunk (see open_frame_library), or None where it
    cannot be built or loaded. It links numpy's libnpyrandom.a, so its key
    also covers numpy's version and the archive's bytes."""
    import subprocess

    import numpy as np

    try:
        flags = (*FLAGS, "-I", np.get_include())
        path = build(cache_dir(), FRAME_SOURCE, flags, (numpy_random_archive(),), np.__version__)
        return open_frame_library(path)
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
