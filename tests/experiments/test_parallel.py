"""The process pool: ``parallel_map`` and the experiments it fans out."""

import os

import pytest

from repro.experiments import parallel_map, run_experiments_parallel
from repro.experiments.runner import run_and_report


def _square(x):
    return x * x


def _pid():
    return os.getpid()


class TestParallelExperiments:
    def test_fig10_identical_to_serial(self):
        parallel = run_experiments_parallel(["fig10"], processes=2)
        assert parallel["fig10"] == run_and_report("fig10")

    def test_fig11_identical_to_serial(self):
        parallel = run_experiments_parallel(["fig11"], processes=2)
        assert parallel["fig11"] == run_and_report("fig11")

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiments_parallel(["fig99"])


class TestParallelMap:
    def test_results_come_back_in_input_order(self):
        params = [{"x": x} for x in range(7)]
        assert parallel_map(_square, params, processes=2) == [
            x * x for x in range(7)
        ]

    def test_one_process_runs_in_the_calling_process(self):
        pids = parallel_map(_pid, [{}, {}, {}], processes=1)
        assert pids == [os.getpid()] * 3

    def test_one_task_runs_in_the_calling_process(self):
        assert parallel_map(_pid, [{}], processes=2) == [os.getpid()]

    def test_empty_map(self):
        assert parallel_map(_square, [], processes=2) == []

    @pytest.mark.parametrize("processes", [0, -1])
    def test_rejects_bad_process_count(self, processes):
        with pytest.raises(ValueError, match="processes"):
            parallel_map(_square, [{"x": 1}], processes=processes)
