"""The end-to-end design-rule pipeline (paper Figure 2).

DAG → (MCTS | random | exhaustive) exploration → class labels → feature
vectors → decision tree → design rules.
"""

from repro.core.pipeline import (
    DesignRulePipeline,
    FullSpace,
    PipelineConfig,
    PipelineResult,
)

__all__ = [
    "DesignRulePipeline",
    "FullSpace",
    "PipelineConfig",
    "PipelineResult",
]
