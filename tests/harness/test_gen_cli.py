"""Harness/CLI integration of generated workloads: ``--workloads``
selection, planning only where rows are computed, and the
synthetic-SPEC sweep tier."""

import json

import pytest

from repro.harness.main import main, select_workloads
from repro.workloads import gen
from repro.workloads.gen import GenerationError
from repro.workloads.gen.__main__ import main as gen_main
from repro.workloads.gen.sweep import sweep_names
from repro.workloads.registry import REGISTRY


@pytest.fixture
def forget_gen(monkeypatch):
    """Forget every generated workload, as a fresh process would.

    Yields the forgetting function so a test can forget again between
    two invocations; the registry is restored afterwards.
    """
    saved = dict(REGISTRY)

    def forget():
        for name in [n for n in REGISTRY if n.startswith("gen:")]:
            del REGISTRY[name]
        monkeypatch.setattr(gen, "_PLANS", {})

    forget()
    yield forget
    REGISTRY.clear()
    REGISTRY.update(saved)


def _failing_planner(fp, seed):
    raise GenerationError(f"planner must not run (seed {seed})")


def _without_wall_time(out):
    return [line for line in out.splitlines()
            if not line.startswith("total wall time")]


def test_select_workloads_globs_and_exact_names():
    from repro.workloads import get_workload

    get_workload("gen:mixed:0")  # materialize so the glob can see it
    names = select_workloads(["gen:*"])
    assert "gen:n34p33e33:0" in names
    assert select_workloads(["026.compress", "026.compress"]) == \
        ["026.compress"]
    decode = select_workloads(["*decode*"])
    assert decode and all("decode" in n for n in decode)


def test_select_workloads_unmatched_pattern_fails_loudly():
    with pytest.raises(ValueError, match="matched no"):
        select_workloads(["zzz*"])
    with pytest.raises(ValueError, match="unknown workload"):
        select_workloads(["nonesuch"])


def test_cli_workloads_selection_runs_gen_table(capsys):
    assert main(
        ["--workloads", "gen:mixed:0,adpcm_decode", "--scale", "0.25"]
    ) == 0
    out = capsys.readouterr().out
    assert "Generated workloads" in out
    assert "gen:n34p33e33:0" in out
    assert "Table 4" in out  # mediabench table for adpcm_decode
    assert "Table 2" not in out  # no spec workload selected


def test_cli_workloads_bad_pattern_exits(capsys):
    with pytest.raises(SystemExit):
        main(["--workloads", "gen:zzz*"])
    with pytest.raises(SystemExit):
        main(["--workloads", "gen:mixed:x"])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_generation_error_is_an_error_row(
    jobs, forget_gen, monkeypatch, capsys
):
    monkeypatch.setattr(gen, "plan_program", _failing_planner)
    assert main([
        "--workloads", "gen:mixed:0,adpcm_decode", "--scale", "0.05",
        "--jobs", jobs,
    ]) == 1
    captured = capsys.readouterr()
    out = captured.out
    assert "Degraded workloads (1/2)" in out
    assert "gen:n34p33e33:0: ERROR [GenerationError]" in out
    generated = out[out.index("Generated workloads"):]
    row = next(line for line in generated.splitlines()
               if line.startswith("gen:n34p33e33:0"))
    assert "ERROR" in row
    assert "adpcm_decode: OK" in captured.err


def test_store_hit_never_plans(tmp_path, forget_gen, monkeypatch, capsys):
    args = ["--workloads", "gen:mixed:0,gen:strided:1", "--scale", "0.25",
            "--jobs", "2", "--result-cache", str(tmp_path / "store")]
    assert main(args) == 0
    cold = capsys.readouterr().out

    forget_gen()
    monkeypatch.setattr(gen, "plan_program", _failing_planner)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "result cache: 2 hits, 0 misses" in captured.err
    assert _without_wall_time(captured.out) == _without_wall_time(cold)


def test_manifest_provenance_comes_from_the_rows(tmp_path, forget_gen):
    names = ["gen:n34p33e33:0", "gen:n20p70e10:1"]
    assert main([
        "--workloads", ",".join(names), "--scale", "0.25", "--jobs", "2",
        "--trace-out", str(tmp_path),
    ]) == 0
    assert gen._PLANS == {}  # the workers planned, the parent did not
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    entries = {e["name"]: e["gen"] for e in manifest["workloads"]}
    assert entries == {name: gen.provenance(name) for name in names}


def _gen_row(out, name):
    """The cells of *name*'s row in the ``Generated workloads`` table."""
    generated = out[out.index("Generated workloads"):]
    return next(line.split() for line in generated.splitlines()
                if line.split()[:1] == [name])


def test_sweep_cli_end_to_end_with_jobs_and_result_cache(
    tmp_path, capsys
):
    args = [
        "sweep", "--step", "50", "--scale", "0.25", "--jobs", "2",
        "--result-cache", str(tmp_path / "cache"),
    ]
    # The CLI-level --trace-out goes to the harness, with its manifest.
    assert gen_main(["--trace-out", str(tmp_path / "trace"), *args]) == 0
    cold = capsys.readouterr().out
    manifest = json.loads((tmp_path / "trace" / "manifest.json").read_text())
    assert [e["name"] for e in manifest["workloads"]] == sweep_names(50)
    assert "Generated workloads" in cold
    assert _gen_row(cold, "gen:n100p0e0:0")[-1] == "1.00"
    assert _gen_row(cold, "average")

    # The second run is served from the result cache, rows identical.
    assert gen_main(args) == 0
    captured = capsys.readouterr()
    assert "result cache: 6 hits, 0 misses" in captured.err
    assert _without_wall_time(captured.out) == _without_wall_time(cold)


def test_sweep_degraded_row_keeps_fingerprint_and_seed(
    forget_gen, monkeypatch, capsys
):
    real = gen.plan_program

    def plan(fp, seed):
        if gen.format_fingerprint(fp) == "n100p0e0":
            raise GenerationError("unrealizable")
        return real(fp, seed)

    monkeypatch.setattr(gen, "plan_program", plan)
    assert gen_main(
        ["sweep", "--step", "100", "--scale", "0.05", "--jobs", "2"]
    ) == 1
    out = capsys.readouterr().out
    assert "Degraded workloads (1/3)" in out
    assert "gen:n100p0e0:0: ERROR [GenerationError]" in out
    assert "ERROR" in _gen_row(out, "gen:n100p0e0:0")
    assert float(_gen_row(out, "gen:n0p0e100:0")[7]) > 90  # D.EC%
    assert _gen_row(out, "average")


def test_sweep_is_the_harness_run_of_the_grid_names(capsys):
    flags = ["--scale", "0.05", "--jobs", "2"]
    assert gen_main(["sweep", "--step", "100", *flags]) == 0
    swept = capsys.readouterr().out
    assert main([
        "--workloads", "gen:n0p0e100:0,gen:n0p100e0:0,gen:n100p0e0:0",
        *flags,
    ]) == 0
    assert _without_wall_time(swept) == \
        _without_wall_time(capsys.readouterr().out)
    # D.PD% is the timed run's own, not the planner's default-scale
    # probe (0.91).
    assert _gen_row(swept, "gen:n0p0e100:0")[6] == "3.22"


@pytest.mark.parametrize(
    "flag", ["--workloads", "--workloads=adpcm_decode", "--suite", "--work"]
)
def test_sweep_rejects_a_workload_selection(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        gen_main(["sweep", "--step", "100", flag, "spec"])
    assert exc.value.code == 2
    assert "names its own workloads" in capsys.readouterr().err


def test_gen_cli_emit_and_bad_name(capsys):
    assert gen_main(["emit", "gen:strided:0", "--ref"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()  # the reference OUT stream
    assert gen_main(["emit", "gen:nope:0"]) == 2
    assert "fingerprint" in capsys.readouterr().err
