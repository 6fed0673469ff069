"""Name, configuration and thread count of the BLAS libraries in use.

Reads this process's own memory map for loaded OpenBLAS builds and
asks each for its thread count and configuration string.  Where that
is not possible (another BLAS, or no /proc), numpy's build record is
reported instead.
"""

import ctypes
import os

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _symbol(lib, name):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def blas_libraries():
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        threads = _symbol(lib, "get_num_threads")
        config = _symbol(lib, "get_config")
        if threads is not None:
            threads.restype = ctypes.c_int
            entry["threads"] = threads()
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode()
        found.append(entry)
    if not found:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found.append({"library": blas.get("name"),
                      "version": blas.get("version")})
    return found
