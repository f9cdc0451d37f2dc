"""repro — reproduction of "Machine Learning for CUDA+MPI Design Rules".

Pearson, Javeed, Devine (Sandia National Laboratories), IPDPSW 2022,
arXiv:2203.02530.  See README.md for a tour, the package layout and the
simulator that stands in for the paper's hardware testbed.

Quick start::

    from repro import (
        build_spmv_program, SpmvCase, perlmutter_like,
        DesignRulePipeline, PipelineConfig,
    )

    inst = build_spmv_program(SpmvCase().scaled(1 / 40))
    pipe = DesignRulePipeline(
        inst.program, perlmutter_like(), PipelineConfig(strategy="mcts")
    )
    result = pipe.run()
    print(result.summary())
    for ruleset in result.rulesets:
        print(ruleset.predicted_class, "<-", str(ruleset))
"""

from repro.advisor import (
    ArtifactStore,
    Recommendation,
    ScheduleGuide,
    UnionArtifact,
    WorkloadArtifact,
    publish_artifacts,
    recommend,
)
from repro.apps.halo import GridCase, build_halo_program
from repro.apps.spmv import SpmvCase, build_spmv_program, spmv_paper_case
from repro.core import (
    DesignRulePipeline,
    PipelineConfig,
    PipelineResult,
)
from repro.dag import (
    Action,
    ActionKind,
    CommPlan,
    Graph,
    Message,
    OpKind,
    Program,
    Vertex,
    Work,
    cpu_op,
    gpu_op,
)
from repro.exec import Evaluator, MeasurementCache, SerialEvaluator
from repro.ml import (
    DecisionTree,
    FeatureExtractor,
    LabelingConfig,
    TreeConfig,
    label_by_performance,
    range_accuracy,
    search_tree_size,
)
from repro.orchestrate import (
    ExecutionPlan,
    PlanRun,
    WorkloadTask,
    execute_plan,
    plan_rules,
    plan_suite,
)
from repro.platform import (
    CostModel,
    MachineConfig,
    NoiseModel,
    noiseless,
    perlmutter_like,
)
from repro.rules import RuleSet, compare_rulesets, extract_rulesets
from repro.schedule import (
    BoundOp,
    DesignSpace,
    EnumerationCursor,
    Schedule,
    ScheduleBlock,
)
from repro.search import ExhaustiveSearch, MctsConfig, MctsSearch, RandomSearch
from repro.sim import Benchmarker, Gantt, MeasurementConfig, ScheduleExecutor, SimResult
from repro.transfer import (
    OpSignature,
    SignatureMatcher,
    TransferMatrixResult,
    program_signatures,
    run_transfer_matrix,
    score_transfer,
    train_union,
)
from repro.version import __version__
from repro.workloads import (
    Suite,
    SuiteReport,
    SuiteRunner,
    WorkloadSpec,
    build_workload,
    list_families,
    run_suite,
)

__all__ = [
    "Action",
    "ActionKind",
    "ArtifactStore",
    "Benchmarker",
    "BoundOp",
    "CommPlan",
    "CostModel",
    "DecisionTree",
    "DesignRulePipeline",
    "DesignSpace",
    "EnumerationCursor",
    "Evaluator",
    "ExecutionPlan",
    "ExhaustiveSearch",
    "FeatureExtractor",
    "Gantt",
    "Graph",
    "GridCase",
    "LabelingConfig",
    "MachineConfig",
    "MctsConfig",
    "MctsSearch",
    "MeasurementCache",
    "MeasurementConfig",
    "Message",
    "NoiseModel",
    "OpKind",
    "OpSignature",
    "PipelineConfig",
    "PipelineResult",
    "PlanRun",
    "Program",
    "RandomSearch",
    "Recommendation",
    "RuleSet",
    "Schedule",
    "ScheduleBlock",
    "ScheduleExecutor",
    "ScheduleGuide",
    "SerialEvaluator",
    "SignatureMatcher",
    "SimResult",
    "SpmvCase",
    "Suite",
    "SuiteReport",
    "SuiteRunner",
    "TransferMatrixResult",
    "TreeConfig",
    "UnionArtifact",
    "Vertex",
    "Work",
    "WorkloadArtifact",
    "WorkloadSpec",
    "WorkloadTask",
    "__version__",
    "build_halo_program",
    "build_spmv_program",
    "build_workload",
    "compare_rulesets",
    "cpu_op",
    "execute_plan",
    "extract_rulesets",
    "gpu_op",
    "label_by_performance",
    "list_families",
    "noiseless",
    "perlmutter_like",
    "plan_rules",
    "plan_suite",
    "program_signatures",
    "publish_artifacts",
    "range_accuracy",
    "recommend",
    "run_suite",
    "run_transfer_matrix",
    "score_transfer",
    "search_tree_size",
    "spmv_paper_case",
    "train_union",
]
