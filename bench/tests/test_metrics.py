import json
import re
import statistics

from bench import metrics, runner

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    return json.loads((runner.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    doc = _benchmark_json()
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(metric.name), metric.name
        assert len(metric.name) <= 64
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(runner.WORKLOADS)
    assert doc["paths"] == ["bench"]


def test_setup_has_the_largest_bound():
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert metrics.median(values) == 4.0
    assert metrics.quartiles(values) == (2.0, 7.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartiles(values) == (q1, q3)
    assert metrics.quartiles([3.0]) == (3.0, 3.0)
    assert metrics.spread(values) == (7.0 - 2.0) / 4.0
    summary = metrics.summarize([2.0, 1.0, 3.0])
    assert (summary["median"], summary["min"], summary["max"],
            summary["n"]) == (2.0, 1.0, 3.0, 3)


WALL = metrics.Metric("wall_s", "s", "lower", 0.10)


def test_eight_wins_of_ten_is_not_a_gain():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0] * 2
    result = metrics.compare(WALL, parent, change)
    assert (result["wins"], result["losses"]) == (8, 2)
    assert result["verdict"] != "gain"


def test_nine_wins_of_ten_with_a_clear_difference_is_a_gain():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0] * 9 + [11.0]
    assert metrics.compare(WALL, parent, change)["verdict"] == "gain"


def test_ties_count_for_neither_side():
    parent = [10.0] * 10
    result = metrics.compare(WALL, parent, [9.0] * 8 + [10.0] * 2)
    assert (result["wins"], result["losses"]) == (8, 0)
    assert result["verdict"] != "gain"
    result = metrics.compare(WALL, parent, [9.0] * 9 + [10.0])
    assert result["verdict"] == "gain"


def test_too_few_pairs_and_wide_spread_are_unresolved():
    assert metrics.compare(WALL, [10.0] * 9, [5.0] * 9)["verdict"] == \
        "unresolved"
    noisy = [8.0, 12.0] * 5
    assert metrics.compare(WALL, noisy, [11.0, 12.5] * 5)["verdict"] == \
        "unresolved"


def test_regression_beyond_the_bound():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert metrics.compare(WALL, parent, [11.5] * 10)["verdict"] == \
        "regression"
    assert metrics.compare(WALL, parent, [10.5] * 10)["verdict"] == \
        "no regression"


def test_agree_is_symmetric_within_the_bound():
    assert metrics.agree(WALL, 10.0, 10.9)
    assert metrics.agree(WALL, 10.0, 9.1)
    assert not metrics.agree(WALL, 10.0, 11.1)
