"""Build and load the two compiled libraries: the tree pass (treepass.c)
and the frame chunk (framechunk.c).

The first decoder built in a process calls `load()`. It
compiles treepass.c with the installed gcc, unless a build of the same
source and flags is already cached, and opens it through ctypes. Builds
live in `$XDG_CACHE_HOME/pcpolar` (else `~/.cache/pcpolar`), a directory
made with mode 0700, one file per `cache_key`: the SHA-256 of the source
plus the flags (and of whatever else the build takes in); each build
goes to a temporary name and is renamed into place, so processes
building at once all end with a whole library. On x86-64 glibc the tree
pass carries AVX-512F, AVX2 and plain clones of its code, so its first
build takes about 1.5 s in place of about 0.5 s; that is paid once per
machine and key, and later processes load the cached file. Where no
library can be built or loaded (no gcc, a cache directory that cannot be
written or that others can write, a failed compile), `load()` returns
None and the decoders run the numpy engine, which computes the same bits.

The tree pass exports one entry point, `scan_decode`: a whole decode of a
batch, all passes, in one call (typed in `open_library`). It runs the
frames in blocks of a fixed size in its own scratch buffers, so its
memory does not grow with the batch; it checks the LLRs for NaN and
clamps them as it loads each block, and writes the decisions and one
block of soft outputs into numpy-owned arrays (no soft outputs where
that block's address is NULL). It sees the code only as its rate-0
nodes, leaf kinds, L and info positions: a checked info leaf finds its
parity checks by walking its own chain (see treepass.c).

`load_frames()` does the same for framechunk.c, on a process's first
simulation chunk; its entry point `frame_chunk` makes a chunk's messages,
codeword bits and unit normals, and `frame_llrs` turns those into channel
LLRs at one SNR (both typed in `open_frame_library`). That file runs numpy's
ziggurat fast path inline over tables it reads from numpy's own normal
sampler, which it links, with the rest of its slow path, from the
libnpyrandom.a numpy ships; so its key also covers numpy's version and
the archive's bytes. Before the library is used, its `sampler_check`
holds the inline sampler to numpy's own fill over 2^16 draws. Where the
library cannot be built or loaded (also when the archive is missing) or
the check finds other bits, `load_frames()` returns None and the
simulator makes its chunks with numpy.

Both entry points take their arrays as bare addresses (ctypes c_void_p),
not as numpy.ctypeslib.ndpointer arguments, whose flag and dtype checks
cost microseconds per argument and call. So only arrays that the calling
code made itself, C-contiguous and of the declared dtype, go in: the
per-call outputs, the LLR batch `decoders` copies into that form, the
fixed arrays of a decoder, whose addresses are read once, and the int8
role map that `construction.build_rolemap` makes.
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
    `scan_decode`, typed. Its arrays go in as bare addresses (c_void_p),
    so a caller passes only arrays it made or checked itself, C-contiguous
    and of the dtype the comment below gives."""
    import ctypes

    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib = ctypes.CDLL(str(path))
    # n, B, t_max, sequential, hard, root LLRs (B, N) float64, LLR_MAX,
    # rate0 (n+1, N) uint8, leaf kinds (N,) int8, L, damping (2, t_max)
    # float64 (lambda_p, then lambda_i), info positions (K,) int64, K,
    # decisions (t_max, B, K) uint8, soft outputs (3, B, N) float64 (leaf
    # posteriors, coded extrinsics, coded posteriors) or None (NULL) for
    # the decisions only
    lib.scan_decode.argtypes = [
        i64, i64, i64, ctypes.c_int, ctypes.c_int, ptr, ctypes.c_double, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr,
    ]
    lib.scan_decode.restype = ctypes.c_int  # 0, -1 when out of memory, -2 on a NaN LLR
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
    """The built frame library (a ctypes.CDLL) with its entry points typed:
    `frame_chunk` and `frame_llrs`, whose arrays go in as bare addresses
    (c_void_p), so a caller passes only arrays it made itself, C-contiguous
    and of the dtype the comments below give, and `sampler_check`."""
    import ctypes

    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib = ctypes.CDLL(str(path))
    # B, N, K, L, the master seed's little-endian uint32 words and their count,
    # the first frame index, roles (N,) int8 (construction.FROZEN, INFO, PC),
    # messages (B, K) uint8, codeword bits (B, N) uint8, unit normals (B, N)
    # float64 or None (NULL) to draw none
    lib.frame_chunk.argtypes = [i64, i64, i64, i64, ptr, i64, i64, ptr, ptr, ptr, ptr]
    lib.frame_chunk.restype = ctypes.c_int  # 0, or -1 when out of memory
    # n, codeword bits (n,) uint8, unit normals (n,) float64 (None for a
    # noiseless sigma of 0.0), sigma, LLR_MAX, LLRs (n,) float64, which may
    # be the normals' array
    lib.frame_llrs.argtypes = [i64, ptr, ptr, f64, f64, ptr]
    lib.frame_llrs.restype = None
    lib.sampler_check.argtypes = []
    lib.sampler_check.restype = ctypes.c_int  # 0 when the inline sampler draws numpy's normals
    return lib


@functools.cache
def load_frames():
    """The compiled frame chunk (see open_frame_library), or None where it
    cannot be built or loaded, or where its sampler_check finds that its
    normals are not numpy's. It links numpy's libnpyrandom.a, so its key
    also covers numpy's version and the archive's bytes."""
    import subprocess

    import numpy as np

    try:
        flags = (*FLAGS, "-I", np.get_include())
        path = build(cache_dir(), FRAME_SOURCE, flags, (numpy_random_archive(),), np.__version__)
        lib = open_frame_library(path)
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    return None if lib.sampler_check() else lib
