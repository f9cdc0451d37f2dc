"""repro.workloads — workload registry, synthetic generators, and suites.

The subsystem that turns "the paper's two programs" into a parameterized
scenario space:

* :mod:`repro.workloads.spec` — :class:`WorkloadSpec` + the decorator
  registry every family registers into.
* :mod:`repro.workloads.adapters` — :mod:`repro.apps` (SpMV, 3-D halo)
  re-registered as workloads.
* :mod:`repro.workloads.synthetic` — four synthetic DAG generator
  families (layered random, fork–join, tree allreduce, 2-D wavefront)
  with costs drawn from :mod:`repro.platform` presets.
* :mod:`repro.workloads.suite` — named suites (``smoke``, ``paper``,
  ``generalization``) and the :class:`SuiteRunner` that fans every
  (workload × strategy) cell through the batched :mod:`repro.exec`
  substrate.
* :mod:`repro.workloads.generalization` — rules extracted on one
  workload scored on every other (the cross-workload table).
"""

from repro.workloads.generalization import (
    CrossWorkloadResult,
    WorkloadRules,
    reduce_workload_rules,
    rules_for_specs,
    run_rules_plan,
    score_cross_workload,
)
from repro.workloads.spec import (
    WorkloadError,
    WorkloadFamily,
    WorkloadSpec,
    build_workload,
    get_family,
    list_families,
    workload,
)
from repro.workloads.suite import (
    Suite,
    SuiteCell,
    SuiteReport,
    SuiteRunner,
    builtin_suites,
    get_suite,
    run_suite,
)

__all__ = [
    "CrossWorkloadResult",
    "Suite",
    "SuiteCell",
    "SuiteReport",
    "SuiteRunner",
    "WorkloadError",
    "WorkloadFamily",
    "WorkloadRules",
    "WorkloadSpec",
    "build_workload",
    "builtin_suites",
    "get_family",
    "get_suite",
    "list_families",
    "reduce_workload_rules",
    "rules_for_specs",
    "run_rules_plan",
    "run_suite",
    "score_cross_workload",
    "workload",
]
