"""Static analysis & verification for the repro codebase.

Three passes, all reachable through ``repro lint`` (and the first also
wired into the engine itself):

* :mod:`~repro.analysis.kernel_verify` — proves every generated fused
  kernel stays inside the kernel ABI whitelist and that its evaluation
  plan is boolean-equivalent to the filter expression (every
  :class:`~repro.engine.compiled.CompiledKernel` runs it before its
  source is executed);
* :mod:`~repro.analysis.lockcheck` — ``# guarded-by:``-annotation-
  driven lock-discipline checking over the codebase's shared state;
* :mod:`~repro.analysis.lifecycle` — resource-lifecycle rules
  (unclosed chunk sources, escaped memoryviews, shm without a
  finalize path).
"""

from ..errors import KernelVerificationError
from .findings import (
    DEFAULT_BASELINE_NAME,
    Finding,
    filter_baselined,
    load_baseline,
    save_baseline,
)
from .kernel_verify import (
    plan_violations,
    source_violations,
    verify_kernel,
    verify_kernel_source,
    verify_plan,
)
from .runner import (
    ALL_RULES,
    default_lint_root,
    iter_python_files,
    kernel_selfcheck,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "KernelVerificationError",
    "default_lint_root",
    "filter_baselined",
    "iter_python_files",
    "kernel_selfcheck",
    "load_baseline",
    "plan_violations",
    "run_lint",
    "save_baseline",
    "source_violations",
    "verify_kernel",
    "verify_kernel_source",
    "verify_plan",
]
