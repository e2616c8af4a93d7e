"""The shared error hierarchy: context capture and rendering."""

import pytest

from repro.errors import (
    EmulationError,
    IRVerificationError,
    InjectedFault,
    OutputMismatchError,
    ReproError,
    StepLimitExceeded,
)


def test_plain_message_renders_without_brackets():
    assert str(ReproError("boom")) == "boom"


def test_context_renders_in_brackets():
    err = ReproError("boom", workload="022.li", pc=12)
    assert str(err) == "boom [pc=12, workload=022.li]"
    assert err.workload == "022.li"
    assert err.pc == 12


def test_none_context_values_are_dropped():
    err = ReproError("boom", workload=None, pass_name="licm")
    assert err.workload is None
    assert "workload" not in err.context
    assert err.pass_name == "licm"


def test_add_context_after_raise():
    err = ReproError("boom")
    err.add_context(workload="129.compress")
    assert err.workload == "129.compress"
    assert "129.compress" in str(err)


def test_hierarchy():
    assert issubclass(EmulationError, ReproError)
    assert issubclass(StepLimitExceeded, EmulationError)
    assert issubclass(IRVerificationError, ReproError)
    assert issubclass(OutputMismatchError, ReproError)
    assert issubclass(InjectedFault, ReproError)


def test_step_limit_attributes():
    err = StepLimitExceeded(1000, last_pc=42, steps=1000)
    assert err.limit == 1000
    assert err.last_pc == 42
    assert err.steps == 1000
    assert "1000" in str(err)


def test_ir_verification_error_names_pass_and_func():
    err = IRVerificationError("bad", func="main", pass_name="licm")
    assert err.func_name == "main"
    assert err.pass_name == "licm"
    assert "licm" in str(err)


def test_errors_are_catchable_as_repro_error():
    with pytest.raises(ReproError):
        raise StepLimitExceeded(1, last_pc=0, steps=1)
    with pytest.raises(ReproError):
        raise InjectedFault("injected crash", workload="x")
