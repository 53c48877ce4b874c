"""Run one scalemix CLI command in this fresh interpreter and time it.

Usage: python3 command.py RESULT_JSON TRACE(0|1) -- ARGV...

Times ``import scalemix.cli`` (the set-up every CLI call pays), then
``scalemix.cli.main(ARGV)``, then reads this process's peak resident
memory. With TRACE=1 the calls into each package module are recorded as
spans first (see ``spans.py``) and their summary joins the result record.
The result record goes to ``RESULT_JSON``.
The process exits with the command's own exit code.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_BLAS_LIBRARIES = ("libopenblas", "libscipy_openblas", "libmkl", "libblis", "libblas", "libcblas")


def _loaded_blas():
    """Shared objects of a BLAS this process has mapped, by file name."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    names = {line.rsplit("/", 1)[-1] for line in maps.splitlines() if "/" in line}
    return sorted(n for n in names if n.startswith(_BLAS_LIBRARIES))


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": _loaded_blas(),
        "thread_env": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }


def main():
    result_path = Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]

    start = time.perf_counter()
    import scalemix.cli

    setup_s = time.perf_counter() - start

    tracer = None
    if traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)

    start = time.perf_counter()
    code = scalemix.cli.main(argv)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"], record["self_s"] = spans.summarize(tracer.spans)
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
