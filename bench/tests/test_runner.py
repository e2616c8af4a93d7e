import json
import time

from bench import __main__ as cli
from bench import runner


def test_gen_grid_matches_the_program():
    from repro.workloads.gen.sweep import simplex_tokens

    assert runner.simplex_tokens() == simplex_tokens(20)
    argv = runner.WORKLOADS["gen-sweep"].invocations(3, runner.WORK)[0]
    assert argv[1].split(",")[0] == "gen:n0p0e100:3"
    assert len(argv[1].split(",")) == 21


def test_wait4_isolates_each_run(tmp_path):
    deadline = time.monotonic() + 60
    big = runner.spawn("run", "bench.tests.alloc", ["150"], tmp_path,
                       "big", deadline)
    small = runner.spawn("run", "bench.tests.alloc", ["0"], tmp_path,
                         "small", deadline)
    assert big.returncode == small.returncode == 0
    assert big.rss_mb > 150
    assert small.rss_mb < big.rss_mb - 100
    assert 0 < small.setup_s < small.wall_s


def test_a_missing_program_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(runner, "ENTRY_FILE", runner.ROOT / "missing.py")
    assert cli.main(["run", "--workload", "tables-small", "--seconds", "1"
                     ]) == 2
    assert capsys.readouterr().out == ""


def _run_tiny(monkeypatch, tmp_path, capsys, doctor):
    """One driver run of a one-program workload against *tmp_path*."""
    tiny = runner.Workload("tiny", ("--workloads", "adpcm_decode",
                                    "--scale", "0.02"))
    monkeypatch.setitem(runner.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(runner, "SETUP_PROBES", 1)
    done = runner.spawn("run", runner.ENTRY, list(tiny.args), tmp_path,
                        "truth", time.monotonic() + 60)
    assert done.returncode == 0
    (tmp_path / "tiny.txt").write_text(doctor(done.stdout))
    monkeypatch.setattr(runner, "REFERENCE", tmp_path)
    code = cli.main(["run", "--workload", "tiny", "--seed", "0",
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def test_run_passes_on_the_reference(monkeypatch, tmp_path, capsys):
    code, _, line = _run_tiny(monkeypatch, tmp_path, capsys, lambda t: t)
    assert code == 0
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {"wall_s", "cpu_s", "setup_s",
                                    "peak_rss_mb"}


def _doctor(text):
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines)
               if ln.strip().startswith("adpcm_decode"))
    lines[row] += "9"
    return "\n".join(lines) + "\n"


def test_run_fails_when_a_row_differs(monkeypatch, tmp_path, capsys):
    code, out, line = _run_tiny(monkeypatch, tmp_path, capsys, _doctor)
    assert code == 1
    assert not line["correct"] and line["failed"] == 1
    assert "'adpcm_decode']" in out
