from bench import runner
from bench.check import failed_rows, parse_rows

TABLE2 = "Table 2 — SPEC load classes and prediction rates"


def _reference(name):
    return (runner.REFERENCE / f"{name}.txt").read_text(encoding="utf-8")


def test_reference_rows_are_keyed_by_table_and_first_column():
    rows = parse_rows(_reference("tables-small"))
    assert len(rows) == 78  # 12 SPEC programs x 5 tables + 3 geomeans
    assert rows[(TABLE2, "130.li")].split()[0] == "130.li"
    assert ("Table 4 — MediaBench", "average") in rows
    ablation = parse_rows(_reference("ablation"))
    title = "Predictor backend ablation (speedup vs no early generation)"
    assert (title, "geomean (spec)") in ablation


def test_the_wall_time_line_is_not_a_row():
    text = _reference("tables-small") + "\ntotal wall time: 5s (scale 0.05)\n"
    assert parse_rows(text) == parse_rows(_reference("tables-small"))


def test_a_doctored_row_is_charged_to_its_program():
    reference = _reference("tables-small")
    rows = parse_rows(reference)
    line = rows[(TABLE2, "130.li")]
    doctored = reference.replace(line, line.replace("4277", "4278"))
    assert failed_rows(parse_rows(doctored), rows) == [(TABLE2, "130.li")]


def test_missing_extra_and_degraded_rows_fail():
    reference = parse_rows(_reference("tables-small"))
    output = dict(reference)
    del output[(TABLE2, "022.li")]
    key = ("Table 4 — MediaBench", "rasta")
    output[key] = "       rasta  ERROR"
    output[("", "Degraded workloads (1/25):")] = "Degraded workloads (1/25):"
    assert failed_rows(reference, output) == [
        (TABLE2, "022.li"), key, ("", "Degraded workloads (1/25):"),
    ]


def test_a_failed_exit_fails_every_row():
    text = _reference("tables-small")
    attempted, failures = runner.account(text, [text], [1])
    assert attempted == len(failures) == 78
    assert runner.account(text, [text], [0]) == (78, [])


def test_without_a_reference_warm_output_must_equal_cold():
    cold = _reference("gen-sweep")
    key = next(k for k in parse_rows(cold) if k[1].startswith("gen:n0p0"))
    warm = cold.replace(parse_rows(cold)[key], parse_rows(cold)[key] + "0")
    attempted, failures = runner.account(None, [cold, warm], [0, 0])
    assert failures == [key]
    assert attempted == 2 * len(parse_rows(cold))
