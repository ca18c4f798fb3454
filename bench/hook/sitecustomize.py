"""Start-up hook: traces bvmlab in any process started with this directory on
PYTHONPATH and BVMBENCH_TRACE_DIR set, including pool workers."""
import os

if os.environ.get("BVMBENCH_TRACE_DIR"):
    import bvmtrace

    TRACER = bvmtrace.install(os.environ["BVMBENCH_TRACE_DIR"])
