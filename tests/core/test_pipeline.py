"""Tests for the end-to-end pipeline orchestrator."""

import pytest

from repro.core.pipeline import DesignRulePipeline, FullSpace, PipelineConfig
from repro.errors import SearchError
from repro.sim.measure import MeasurementConfig


@pytest.fixture(scope="module")
def pipeline(spmv_instance, machine):
    return DesignRulePipeline(
        spmv_instance.program,
        machine,
        PipelineConfig(
            strategy="mcts",
            n_iterations=80,
            measurement=MeasurementConfig(max_samples=1),
            seed=0,
        ),
    )


@pytest.fixture(scope="module")
def result(pipeline):
    return pipeline.run()


class TestPipeline:
    def test_produces_all_stages(self, result):
        assert len(result.search) > 0
        assert result.labeling.n_classes >= 1
        assert result.features.matrix.shape[0] == len(result.search)
        assert result.tree.n_leaves >= 1
        assert len(result.rulesets) == result.tree.n_leaves

    def test_labels_match_search_order(self, result):
        assert len(result.labeling.labels) == len(result.search)

    def test_rulesets_classes_exist(self, result):
        labels = {c.label for c in result.labeling.classes}
        for rs in result.rulesets:
            assert rs.predicted_class in labels

    def test_summary_text(self, result):
        text = result.summary()
        assert "performance classes" in text
        assert "tree:" in text

    def test_rulesets_for_class(self, result):
        for c in result.labeling.classes:
            for rs in result.rulesets_for_class(c.label):
                assert rs.predicted_class == c.label

    def test_unknown_strategy_rejected(self, spmv_instance, machine):
        pipe = DesignRulePipeline(
            spmv_instance.program, machine, PipelineConfig(strategy="magic")
        )
        with pytest.raises(SearchError):
            pipe.explore()

    def test_zero_block_size_is_not_the_default(self, spmv_instance, machine):
        """Only ``block_size=None`` falls back to ``batch_size``; 0 is
        refused by the sweep instead of standing in for the default."""

        def strategy(**block):
            config = PipelineConfig(strategy="exhaustive", batch_size=8, **block)
            pipe = DesignRulePipeline(spmv_instance.program, machine, config)
            return pipe.make_strategy()

        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            strategy(block_size=0)
        assert strategy().batch_size == 8

    def test_exhaustive_strategy_covers_space(self, spmv_instance, machine, spmv_space):
        pipe = DesignRulePipeline(
            spmv_instance.program,
            machine,
            PipelineConfig(
                strategy="exhaustive",
                measurement=MeasurementConfig(max_samples=1),
            ),
        )
        search = pipe.explore()
        assert len(search) == spmv_space.count()

    def test_generalization_accuracy_bounds(self, pipeline, result, spmv_instance, machine, spmv_space):
        from repro.core.pipeline import DesignRulePipeline, PipelineConfig

        full_pipe = DesignRulePipeline(
            spmv_instance.program,
            machine,
            PipelineConfig(
                strategy="exhaustive",
                measurement=MeasurementConfig(max_samples=1),
            ),
        )
        full = full_pipe.explore()
        acc = pipeline.generalization_accuracy(result, FullSpace.of(full))
        assert 0.0 <= acc <= 1.0
        # 80 of 540 iterations should already generalize reasonably.
        assert acc > 0.4

    def test_full_space_accuracy_is_one(self, spmv_instance, machine):
        pipe = DesignRulePipeline(
            spmv_instance.program,
            machine,
            PipelineConfig(
                strategy="exhaustive",
                measurement=MeasurementConfig(max_samples=1),
            ),
        )
        search = pipe.explore()
        result = pipe.run(search)
        assert pipe.generalization_accuracy(result, FullSpace.of(search)) == 1.0
