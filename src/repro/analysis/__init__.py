"""Static analysis & verification for the repro codebase.

Three passes, all reachable through ``repro lint`` (and the first also
wired into the engine itself):

* :mod:`~repro.analysis.kernel_verify` — proves every compiled kernel
  plan boolean-equivalent to its filter expression
  (:func:`~repro.engine.compiled.kernel_for` runs it before the plan's
  first batch), and proves each number DFA sound for the token
  index's digit-free-token drop;
* :mod:`~repro.analysis.lockcheck` — ``# guarded-by:``-annotation-
  driven lock-discipline checking over the codebase's shared state;
* :mod:`~repro.analysis.lifecycle` — resource-lifecycle rules
  (unclosed chunk sources, shm without a finalize path).
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
    verify_plan,
    verify_token_drop,
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
    "verify_plan",
    "verify_token_drop",
]
