"""One OpenBLAS thread per dense solve, so results do not follow the core count:
at cfl's sizes a second thread of scipy's bundled OpenBLAS saves little, spins
between calls and sums in another order, moving a result's last bits."""

import contextlib
import ctypes
import functools
import glob
import threading

import scipy

_lock = threading.Lock()
_open, _previous = 0, 0  # blocks running now, in any thread; the count before the first


@functools.cache
def _openblas():
    """openblas_set_num_threads_local of the OpenBLAS that scipy.linalg uses
    (bundled in scipy.libs or scipy/.dylibs), or None if there is none."""
    root, name = scipy.__path__[0], "libscipy_openblas*"
    for path in sorted(glob.glob(f"{root}.libs/{name}") + glob.glob(f"{root}/.dylibs/{name}")):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block on one OpenBLAS thread.  Despite its name the setter sets
    one count for the whole process in scipy's pthreads build, so overlapping
    blocks share it: the last to end restores the count from before the first."""
    global _open, _previous
    setter = _openblas() or (lambda count: count)
    with _lock:
        previous = setter(1)
        _open += 1
        if _open == 1:
            _previous = previous
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                setter(_previous)
