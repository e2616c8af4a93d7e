import json

from repro import obs

from bench.traced import layer_metrics


def test_layer_times_are_self_times(tmp_path):
    tracer = obs.Tracer(tmp_path)
    with tracer.span("bench.run"):
        with tracer.span("bench.workloads.gen"):
            with tracer.span("compile"):  # planning probe: not compiler
                pass
        with tracer.span("bench.program", program="p1"):
            with tracer.span("bench.prepare"):
                with tracer.span("compile") as span:
                    span.set_counters(instructions=7, ld_p=2)
                    with tracer.span("frontend"):
                        pass
                    with tracer.span("pass:dead_code_elimination") as p:
                        p.set_counters(changed=0)
                with tracer.span("emulate") as span:
                    span.set_counters(steps=100)
            with tracer.span("bench.sim.replay") as span:
                span.set_counters(runs=3, insts=300, paths=3, fast=2)
    tracer.close()
    spans = {}
    for line in next(tmp_path.glob("*.jsonl")).read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "span":
            spans.setdefault(record["name"], []).append(record["dur_s"])

    got = layer_metrics(tmp_path)
    m = got["metrics"]
    frontend = spans["frontend"][0]
    dce = spans["pass:dead_code_elimination"][0]
    assert m["lang.frontend_s"] == frontend
    assert abs(m["compiler.compile_s"]
               - (spans["compile"][1] - frontend - dce)) < 1e-9
    assert m["compiler.insts"] == 7 and m["compiler.ld_p"] == 2
    assert m["compiler.pass.dead_code_elimination.applied"] == 0
    assert m["workloads.gen.plan_s"] == spans["bench.workloads.gen"][0]
    assert m["workloads.gen.programs"] == 1
    assert m["sim.replay.runs"] == 3 and m["sim.replay.fast_frac"] == 2 / 3
    layers = (spans["bench.workloads.gen"][0] + spans["compile"][1]
              + spans["emulate"][0] + spans["bench.sim.replay"][0])
    assert abs(m["harness.unattributed_s"]
               - (spans["bench.run"][0] - layers)) < 1e-9
    assert set(got["programs"]) == {"p1"}
