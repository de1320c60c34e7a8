"""Build and load the incremental engine's kernel, `_kernel.c`.

The kernel also writes and parses the text rows of run records
(socm_write_rows, socm_read_rows); dynamics.format_rows and
RunRecord.load_text call them, and fall back to repr and np.loadtxt where
the kernel cannot be built.

The kernel is compiled on first use with the system C compiler and cached
as `__pycache__/_kernel-<hash>.so` beside this file, where the hash covers
the source, the compiler flags and the machine.  A library is written to a
temporary file in that directory and then moved over its name, so a
concurrent process never loads a half-written one.  Each library ends in a
trailer holding the sha256 of the bytes before it; a cached library whose
trailer does not match (cut short, corrupt) is built again before it is
loaded, since loading a cut ELF file can crash the process.  A build into the
cache deletes the other `_kernel-*.so` there, so a checkout shared by machines
of different architectures rebuilds on each switch.  An unwritable cache
builds the library in a temporary directory for this process.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = SOURCE.parent / "__pycache__"
# no -ffast-math or -march=native: a contracted (fused) or reassociated
# operation would change the bits the engines agree on
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class Market(ctypes.Structure):
    """The kernel's `market` struct: addresses of the engine's arrays and
    the loser tree's, the price sum, the step loop's settings and the
    addresses of its last call's draws and output arrays, and the
    activity's sorted grid, bands and buckets."""
    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "p", "wants", "qp", "qW", "qt", "profit", "w", "sup_ptr", "sup_idx",
            "in_ptr", "in_idx", "plan_ptr", "plan", "tree")),
        ("n", ctypes.c_int64), ("size", ctypes.c_int64), ("psum", ctypes.c_double),
        *((name, ctypes.c_void_p) for name in ("u", "loser", "min_profit", "mean_price")),
        ("eta_max", ctypes.c_double), ("level", ctypes.c_double), ("nf0", ctypes.c_int64),
        *((name, ctypes.c_void_p) for name in (
            "activity", "order", "sorted_f0", "lo", "hi")),
        ("bound", ctypes.c_double), ("mp_low", ctypes.c_double),
        *((name, ctypes.c_void_p) for name in ("hist", "bucket", "band", "slot")),
        ("nband", ctypes.c_int64)]


def compiler():
    """Path of the C compiler, or None if there is none."""
    return shutil.which("cc")


def library_name(source):
    """Cache file name of the library built from `source` (bytes)."""
    digest = hashlib.sha256(source)
    for part in (*FLAGS, platform.machine(), sys.platform):
        digest.update(b"\0" + part.encode())
    return f"_kernel-{digest.hexdigest()[:16]}.so"


# appended to every library built: a tag, then the sha256 of what precedes
# it (the dynamic loader ignores bytes past the ELF contents)
_TAG = b"socmarket-kernel"
_TRAILER = len(_TAG) + hashlib.sha256().digest_size


def _intact(path):
    """Whether `path` is a whole library as _build wrote it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, trailer = data[:-_TRAILER], data[-_TRAILER:]
    return trailer == _TAG + hashlib.sha256(body).digest()


def _open(path):
    lib = ctypes.CDLL(str(path))
    market, ptr = ctypes.POINTER(Market), ctypes.c_void_p
    lib.socm_tree_build.argtypes = (market,)
    lib.socm_tree_build.restype = None
    lib.socm_tree_repair.argtypes = (market, ptr, ctypes.c_int64)
    lib.socm_tree_repair.restype = None
    # the per-step and per-block entries have no argtypes, whose
    # conversions cost more than the kernel on small plans: pass them
    # ctypes.byref(struct) and ints
    lib.socm_update.argtypes = None
    lib.socm_advance.argtypes = None
    lib.socm_write_rows.argtypes = (ptr, ctypes.c_int64, ctypes.c_int64, ptr,
                                    ctypes.c_char_p, ctypes.c_int)
    lib.socm_write_rows.restype = ctypes.c_int64
    lib.socm_read_rows.argtypes = (ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                                   ctypes.c_int64, ptr)
    return lib


def _build(cc, target):
    """Compile SOURCE to `target` through a temporary file beside it."""
    import subprocess  # here, as most runs find the library built
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"compiling {SOURCE} failed:\n{done.stderr}")
        with open(tmp, "rb+") as fh:
            fh.write(_TAG + hashlib.sha256(fh.read()).digest())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    target = CACHE / library_name(SOURCE.read_bytes())
    if _intact(target):
        return _open(target)
    cc = compiler()
    if cc is None:
        raise RuntimeError("the incremental engine needs a C compiler to build its "
                           "kernel, and no 'cc' was found on PATH; install one, or "
                           "run with engine = full")
    try:
        CACHE.mkdir(exist_ok=True)
        _build(cc, target)
    except OSError:
        # the cache is not writable: build for this process alone (a loaded
        # library outlives its file)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / target.name
            _build(cc, target)
            return _open(target)
    for stale in CACHE.glob("_kernel-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return _open(target)


_lib = None


def load():
    """The kernel library, built and loaded on first use."""
    global _lib
    if _lib is None:
        _lib = _load()
    return _lib
