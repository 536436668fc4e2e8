"""One OpenBLAS thread per dense solve, so results do not follow the core count:
at cfl's sizes a second thread of scipy's bundled OpenBLAS saves little, spins
between calls and sums in another order, moving a result's last bits.

Despite its name the setter sets one count for the whole process in scipy's
pthreads build.  So every dense solve sets it to 1 right before it runs and
never sets it back: a count raised between solves (by another library, or
another thread) never reaches one, and pipeline --seeds threads need no lock.
In a process that has run a cfl solve, scipy's OpenBLAS stays on one thread."""

import ctypes
import functools
import glob

import scipy


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


def one_thread() -> None:
    """Set scipy's OpenBLAS to one thread; call it right before a dense solve.
    Without a bundled OpenBLAS it does nothing."""
    setter = _openblas()
    if setter is not None:
        setter(1)
