"""Fault-isolated runner: degradation, timeout, resume."""

import pytest

from repro.errors import InjectedFault
from repro.harness.experiments import ExperimentContext
from repro.harness.faults import FaultInjector
from repro.harness.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TABLES,
    WorkloadOutcome,
    WorkloadRunner,
    assemble_table,
    compute_rows,
)
from repro.harness.store import ResultStore

SPEC = "023.eqntott"
MEDIA = "adpcm_decode"
SCALE = 0.05


def make_runner(tmp_path=None, injector=None, scale=SCALE, timeout=0.0):
    ctx = ExperimentContext(scale=scale, fault_injector=injector)
    store = ResultStore(tmp_path) if tmp_path is not None else None
    return WorkloadRunner(ctx, timeout, result_store=store)


# -- FaultInjector ---------------------------------------------------------

def test_parse_rejects_malformed_entries():
    with pytest.raises(ValueError, match="WORKLOAD=MODE"):
        FaultInjector.parse(["no-equals-sign"])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown fault mode"):
        FaultInjector.parse([f"{SPEC}=explode"])


def test_crash_fires_every_attempt():
    injector = FaultInjector.parse([f"{SPEC}=crash"])
    for _ in range(2):
        with pytest.raises(InjectedFault, match="injected crash"):
            injector.fire(SPEC)
    injector.fire("other")  # unconfigured workloads are untouched


# -- degradation -----------------------------------------------------------

def test_successful_workload():
    outcome = make_runner().run_workload(MEDIA)
    assert outcome.status == STATUS_OK
    assert outcome.suite == "mediabench"
    assert not outcome.degraded
    assert outcome.rows["table4"]["benchmark"] == MEDIA
    assert outcome.rows["table4"]["speedup"] > 0


def test_spec_workload_produces_all_five_fragments():
    rows = compute_rows(ExperimentContext(scale=SCALE), SPEC)
    assert set(rows) == {"table2", "fig5a", "fig5b", "fig5c", "table3"}
    for row in rows.values():
        assert row["benchmark"] == SPEC


def test_crash_degrades_to_error_row():
    injector = FaultInjector().add(MEDIA, "crash")
    outcome = make_runner(injector=injector).run_workload(MEDIA)
    assert outcome.status == STATUS_ERROR
    assert outcome.degraded
    assert outcome.error_type == "InjectedFault"
    assert MEDIA in outcome.error  # workload context attached


def test_hang_degrades_to_timeout_without_retry():
    injector = FaultInjector().add(MEDIA, "hang")
    runner = make_runner(injector=injector, timeout=0.2)
    outcome = runner.run_workload(MEDIA)
    assert outcome.status == STATUS_TIMEOUT
    assert outcome.error_type == "Timeout"


def test_corrupt_output_degrades_with_mismatch():
    injector = FaultInjector().add(MEDIA, "corrupt-output")
    outcome = make_runner(injector=injector).run_workload(MEDIA)
    assert outcome.status == STATUS_ERROR
    assert outcome.error_type == "OutputMismatchError"


def test_corrupt_ir_degrades_naming_the_pass():
    injector = FaultInjector().add(MEDIA, "corrupt-ir")
    outcome = make_runner(injector=injector).run_workload(MEDIA)
    assert outcome.status == STATUS_ERROR
    assert outcome.error_type == "IRVerificationError"
    assert "constant_propagation" in outcome.error


def test_bad_config_rejected():
    with pytest.raises(ValueError, match="timeout"):
        make_runner(timeout=-1)


# -- resume through the result store ---------------------------------------

def test_rows_stored_and_resumed(tmp_path):
    outcome = make_runner(tmp_path).run_workload(MEDIA)
    assert not outcome.cached
    assert len(ResultStore(tmp_path).entries()) == 1

    # A fresh runner (fresh context) resumes from the store.
    resumed = make_runner(tmp_path).run_workload(MEDIA)
    assert resumed.cached
    assert resumed.status == STATUS_OK
    assert resumed.rows == outcome.rows


def test_failed_workload_is_rerun_on_resume(tmp_path):
    injector = FaultInjector().add(MEDIA, "crash")
    first = make_runner(tmp_path, injector=injector).run_workload(MEDIA)
    assert first.status == STATUS_ERROR
    assert ResultStore(tmp_path).entries() == []  # only OK rows persist

    # Second run without the fault recomputes and stores.
    second = make_runner(tmp_path).run_workload(MEDIA)
    assert not second.cached
    assert second.status == STATUS_OK
    assert make_runner(tmp_path).run_workload(MEDIA).cached


def test_stored_rows_missed_on_scale_change(tmp_path):
    make_runner(tmp_path).run_workload(MEDIA)
    outcome = make_runner(tmp_path, scale=0.07).run_workload(MEDIA)
    assert not outcome.cached


def test_run_suite_isolates_failures(tmp_path):
    injector = FaultInjector().add(MEDIA, "crash")
    runner = make_runner(tmp_path, injector=injector)
    outcomes = runner.run_suite([MEDIA, "adpcm_encode"])
    assert [o.status for o in outcomes] == [STATUS_ERROR, STATUS_OK]


# -- table assembly --------------------------------------------------------

def media_spec():
    (spec,) = [t for t in TABLES if t.key == "table4"]
    return spec


def test_assemble_table_appends_degraded_and_summary():
    ok = WorkloadOutcome(
        "adpcm_encode", "mediabench", STATUS_OK,
        rows={"table4": {
            "benchmark": "adpcm_encode", "dyn_loads": 10, "static_nt": 1.0,
            "static_pd": 2.0, "static_ec": 3.0, "dyn_nt": 4.0,
            "dyn_pd": 5.0, "dyn_ec": 6.0, "rate_nt": 7.0, "rate_pd": 8.0,
            "speedup": 1.5,
        }},
    )
    bad = WorkloadOutcome(MEDIA, "mediabench", STATUS_TIMEOUT)
    rows = assemble_table(media_spec(), [ok, bad])
    assert [r["benchmark"] for r in rows] == [
        "adpcm_encode", MEDIA, "average",
    ]
    assert rows[1]["dyn_loads"] == "TIMEOUT"
    # Summary computed over successes only.
    assert rows[2]["speedup"] == pytest.approx(1.5)


def test_assemble_table_skips_other_suites():
    outcome = WorkloadOutcome(SPEC, "spec", STATUS_ERROR)
    assert assemble_table(media_spec(), [outcome]) == []
