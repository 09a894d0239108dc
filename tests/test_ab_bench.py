"""The paired benchmark runner's verdicts, on canned perfbench results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

LOWER = {"name": "cpu_ms_per_token", "unit": "ms/tok", "better": "lower", "bound": 0.25}
HIGHER = {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.25}


def runs(metric, values):
    return [{"correct": True, "attempted": 10, "failed": 0,
             "metrics": {metric["name"]: {"value": v, "unit": metric["unit"]}}}
            for v in values]


@pytest.mark.parametrize("metric, parent, change, verdict, won", [
    # within the bound, on a tight parent
    (LOWER, [10.0, 10.2, 9.9, 10.1], [10.5, 10.4, 10.6, 10.0], "ok", 1),
    (HIGHER, [100, 102, 99, 101], [95, 104, 97, 98], "ok", 1),
    # the median past the bound, in each direction
    (LOWER, [10.0, 10.2, 9.9, 10.1], [12.9, 13.0, 12.4, 13.2], "worse", 0),
    (HIGHER, [100, 102, 99, 101], [70, 72, 74, 90], "worse", 0),
    # a worse median counts even when the parent's spread is wide
    (LOWER, [5.0, 20.0, 8.0, 15.0], [16.0, 18.0, 17.0, 19.0], "worse", 1),
    # the parent's quartiles span more than the bound, and the runs overlap
    (LOWER, [5.0, 10.0, 15.0, 20.0], [11.0, 9.0, 16.0, 12.0], "unresolved", 2),
    # ... unless every change run beats every parent run
    (LOWER, [5.0, 10.0, 15.0, 20.0], [4.0, 4.5, 3.9, 4.9], "ok", 4),
    (HIGHER, [50, 100, 150, 200], [210, 220, 205, 230], "ok", 4),
])
def test_each_verdict(metric, parent, change, verdict, won):
    (row,) = ab_bench.summarize([metric], runs(metric, parent), runs(metric, change))
    assert (row["verdict"], row["won"], row["pairs"]) == (verdict, won, len(parent))
    assert row["control"] is None


def test_a_row_gives_the_parents_quartiles_and_the_control_median():
    (row,) = ab_bench.summarize([LOWER], runs(LOWER, [1.0, 2.0, 3.0, 4.0, 5.0]),
                                runs(LOWER, [3.0] * 5), runs(LOWER, [2.0, 9.0, 4.0]))
    assert (row["q1"], row["parent"], row["q3"]) == (2.0, 3.0, 4.0)
    assert (row["change"], row["delta_pct"], row["control"], row["won"]) == (3.0, 0.0, 4.0, 2)


@pytest.mark.parametrize("run, problem", [
    ({"exit": 0, "correct": True, "failed": 0}, None),
    ({"exit": 1, "correct": True, "failed": 0}, "exited 1"),
    ({"exit": None}, f"timed out after {ab_bench.RUN_TIMEOUT_S} s"),
    ({"exit": 0}, "not correct"),
    ({"exit": 0, "correct": False, "failed": 0}, "not correct"),
    ({"exit": 0, "correct": True, "failed": 2}, "2 failed operations"),
])
def test_a_run_counts_only_when_it_exits_0_correct_with_no_failed_operation(run, problem):
    assert ab_bench.run_problem(run) == problem


@pytest.mark.parametrize("workload", ["all", "translate"])
def test_a_workload_benchmark_json_does_not_list_is_refused_before_any_run(workload, capsys):
    root = str(_PATH.parent.parent)
    with pytest.raises(SystemExit) as exit_:
        ab_bench.main([root, root, "--workload", workload, "--pairs", "1"])
    assert exit_.value.code == 2
    assert "--workload must be one of translate_tcp, chat_tcp, sweep_sim, train" in capsys.readouterr().err
