"""JSONL checkpointing and resume for the parallel drivers."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, WorkerError
from repro.estimation.checkpoint import open_checkpoint
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import hyper_sample_many, run_many
from repro.evt.distributions import GeneralizedWeibull
from repro.schemas import CHECKPOINT_SCHEMA
from repro.vectors.population import FinitePopulation

from .faultlib import FaultyEstimator, RecordingEstimator

NUM_RUNS = 5
BASE_SEED = 17


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(3000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


@pytest.fixture(scope="module")
def baseline(estimator):
    return [
        r.to_dict()
        for r in run_many(estimator, NUM_RUNS, base_seed=BASE_SEED, workers=1)
    ]


def dicts(results):
    return [r.to_dict() for r in results]


class TestCheckpointFile:
    def test_every_completed_run_is_streamed(
        self, estimator, baseline, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        results = run_many(
            estimator, NUM_RUNS, base_seed=BASE_SEED, workers=1,
            checkpoint=path,
        )
        assert dicts(results) == baseline
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["schema"] == CHECKPOINT_SCHEMA
        assert lines[0]["kind"] == "run_many"
        assert lines[0]["total"] == NUM_RUNS
        assert sorted(rec["index"] for rec in lines[1:]) == list(range(NUM_RUNS))

    def test_overwritten_without_resume(self, estimator, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("stale non-checkpoint content\n")
        run_many(estimator, 2, base_seed=BASE_SEED, workers=1, checkpoint=path)
        head = json.loads(path.read_text().splitlines()[0])
        assert head["schema"] == CHECKPOINT_SCHEMA


class TestResume:
    def test_interrupted_run_resumes_bit_identical(
        self, estimator, baseline, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        faulty = FaultyEstimator(
            estimator, crash_indices={3}, max_attempt=None
        )
        with pytest.raises(WorkerError):
            run_many(
                faulty, NUM_RUNS, base_seed=BASE_SEED, workers=1,
                retries=0, checkpoint=path, backoff=0.0, task_timeout=None,
            )
        # Serial order: tasks 0-2 completed and were streamed out.
        written = path.read_text().splitlines()
        assert len(written) == 1 + 3

        recorder = RecordingEstimator(estimator)
        resumed = run_many(
            recorder, NUM_RUNS, base_seed=BASE_SEED, workers=1,
            checkpoint=path, resume=True,
        )
        assert dicts(resumed) == baseline
        # Only the unfinished tasks were re-simulated.
        assert recorder.contexts == [(3, 0), (4, 0)]

    def test_resume_tolerates_truncated_tail(
        self, estimator, baseline, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        run_many(
            estimator, NUM_RUNS, base_seed=BASE_SEED, workers=1,
            checkpoint=path,
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "result": {"trunc')  # kill mid-write
        resumed = run_many(
            estimator, NUM_RUNS, base_seed=BASE_SEED, workers=1,
            checkpoint=path, resume=True,
        )
        assert dicts(resumed) == baseline
        # The resume compacted the file: clean JSONL again, garbage gone.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_resume_with_different_seed_is_refused(self, estimator, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_many(estimator, 3, base_seed=1, workers=1, checkpoint=path)
        with pytest.raises(ConfigError, match="different run"):
            run_many(
                estimator, 3, base_seed=2, workers=1,
                checkpoint=path, resume=True,
            )

    def test_resume_with_different_count_is_refused(self, estimator, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_many(estimator, 3, base_seed=1, workers=1, checkpoint=path)
        with pytest.raises(ConfigError, match="different run"):
            run_many(
                estimator, 4, base_seed=1, workers=1,
                checkpoint=path, resume=True,
            )

    def test_resume_refuses_foreign_files(self, estimator, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("do not clobber me\n")
        with pytest.raises(ConfigError, match="not a"):
            run_many(
                estimator, 2, base_seed=1, workers=1,
                checkpoint=path, resume=True,
            )
        assert path.read_text() == "do not clobber me\n"

    def test_hyper_checkpoints_are_kind_scoped(self, estimator, tmp_path):
        path = tmp_path / "hyper.jsonl"
        clean = hyper_sample_many(estimator, 3, base_seed=5, workers=1)
        first = hyper_sample_many(
            estimator, 3, base_seed=5, workers=1, checkpoint=path
        )
        resumed = hyper_sample_many(
            estimator, 3, base_seed=5, workers=1, checkpoint=path, resume=True
        )
        assert dicts(first) == dicts(clean)
        assert dicts(resumed) == dicts(clean)
        # A run_many resume against a hyper checkpoint must be refused.
        with pytest.raises(ConfigError, match="different run"):
            run_many(
                estimator, 3, base_seed=5, workers=1,
                checkpoint=path, resume=True,
            )


class TestOpenCheckpoint:
    """Unit-level checks of the loader itself."""

    def test_missing_file_resumes_empty(self, tmp_path):
        loaded, writer = open_checkpoint(
            tmp_path / "new.jsonl", kind="run_many", key="k", total=2,
            resume=True, from_dict=lambda d: d,
        )
        writer.close()
        assert loaded == {}

    def test_out_of_range_indices_are_dropped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        header = {
            "schema": CHECKPOINT_SCHEMA, "kind": "run_many",
            "key": "k", "total": 2,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"index": 0, "result": {"a": 1}}) + "\n")
            handle.write(json.dumps({"index": 9, "result": {"a": 2}}) + "\n")
        loaded, writer = open_checkpoint(
            path, kind="run_many", key="k", total=2,
            resume=True, from_dict=lambda d: d,
        )
        writer.close()
        assert loaded == {0: {"a": 1}}
