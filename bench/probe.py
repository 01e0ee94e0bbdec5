"""Print the benchmark environment as JSON: versions, BLAS config and threads.

Started by run.py with the same environment as the workers.
"""

import ctypes
import json
import os
import platform

import numpy
import scipy

import su2ladders


def openblas_runtime():
    """Config string and thread count reported by the loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"),
                               ("openblas_", "64_")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config and get_threads:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def main() -> None:
    config, threads = openblas_runtime()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_build": blas.get("openblas configuration"),
        "blas_runtime": config,
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package": os.path.dirname(su2ladders.__file__),
    }))


if __name__ == "__main__":
    main()
