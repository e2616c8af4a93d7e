"""Section 4.3 profile-guided reclassification tests."""

from repro.compiler.driver import compile_source
from repro.compiler.profile_feedback import profile_overrides
from repro.isa.opcodes import LoadSpec
from repro.profiling import profile_trace
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import execute
from repro.sim.machine import PROPOSED, MachineConfig
from repro.sim.pipeline import TimingSimulator
from repro.sim.precompute import simulate_many
from repro.sim.predictors.stride import UnboundedOutcomes, unbounded_outcomes

# A sorted index array makes tbl[idx[i]] highly stride-predictable, yet
# the heuristics must classify it NT (the index is loaded, reg+reg mode).
PREDICTABLE_NT = """
int idx[64];
int tbl[64];
int main() {
    int i; int s = 0;
    for (i = 0; i < 64; i++) { idx[i] = i; tbl[i] = i * 3; }
    for (i = 0; i < 64; i++) { s += tbl[idx[i]]; }
    print_int(s);
    return 0;
}
"""

# A pointer-chasing NT load is genuinely unpredictable and must stay NT.
UNPREDICTABLE_NT = """
int idx[64];
int tbl[64];
int main() {
    int i; int s = 0;
    for (i = 0; i < 64; i++) { idx[i] = (i * 37 + 11) % 64; tbl[i] = i; }
    for (i = 0; i < 64; i++) { s += tbl[idx[i]]; }
    print_int(s);
    return 0;
}
"""


def compiled_and_traced(src):
    result = compile_source(src)
    trace = execute(result.program).trace
    return result, trace


def executed_loads(program, trace):
    """``(uid, address)`` of every dynamic load, in trace order."""
    flat = program.flat
    return [(uid, ea) for uid, ea in zip(trace.uids, trace.eas)
            if ea >= 0 and flat[uid].is_load]


def profiled_with(trace, pinned):
    """A copy of the trace's own unbounded outcomes, some loads'
    counters pinned (the trace's record itself is never written)."""
    out = unbounded_outcomes(trace)
    return UnboundedOutcomes(out.codes, out.wrong_at, out.wrong_pa,
                             {**out.per_load, **pinned}, out.first)


def nt_loads(program):
    return [
        inst for inst in program.static_loads() if inst.lspec is LoadSpec.N
    ]


def test_predictable_nt_flipped_to_pd():
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    assert nt_loads(result.program)  # the heuristics said NT
    overrides = profile_overrides(result.program, trace)
    assert overrides  # profiling disagrees
    assert all(spec is LoadSpec.P for spec in overrides.values())


def test_unpredictable_nt_not_flipped():
    result, trace = compiled_and_traced(UNPREDICTABLE_NT)
    hot_nt = [
        i for i in nt_loads(result.program) if not i.is_reg_offset
    ]
    assert hot_nt
    overrides = profile_overrides(result.program, trace)
    assert all(inst.uid not in overrides for inst in hot_nt)


def test_only_nt_loads_are_overruled():
    """The paper: "nothing else will be overruled" — PD and EC loads
    keep their classes no matter what the profile says."""
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    overrides = profile_overrides(result.program, trace)
    non_nt_uids = {
        inst.uid
        for inst in result.program.static_loads()
        if inst.lspec is not LoadSpec.N
    }
    assert not set(overrides) & non_nt_uids


def test_threshold_respected():
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    strict = profile_overrides(result.program, trace, threshold=0.999)
    lax = profile_overrides(result.program, trace, threshold=0.0)
    assert len(strict) <= len(profile_overrides(result.program, trace))
    assert len(lax) >= len(strict)


def test_profile_trace_counts_every_dynamic_load():
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    profile = profile_trace(result.program, trace)
    assert profile.predictor is trace.unbounded
    assert profile.dynamic_loads == len(executed_loads(result.program, trace))


def test_rate_exactly_at_threshold_is_not_flipped():
    """The threshold is strict: a measured rate of exactly 60% stays NT.

    The paper flips loads whose rate *exceeds* the threshold; injected
    outcomes pin the rate to the boundary precisely.
    """
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    target = nt_loads(result.program)[0]
    # rate == 0.60 exactly
    predictor = profiled_with(trace, {target.uid: (100, 60)})
    overrides = profile_overrides(
        result.program, trace, threshold=0.60, predictor=predictor
    )
    assert target.uid not in overrides


def test_rate_one_above_threshold_is_flipped():
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    target = nt_loads(result.program)[0]
    # rate == 0.61 > 0.60
    predictor = profiled_with(trace, {target.uid: (100, 61)})
    overrides = profile_overrides(
        result.program, trace, threshold=0.60, predictor=predictor
    )
    assert overrides.pop(target.uid) is LoadSpec.P
    # Every other load keeps the trace's own verdict.
    measured = profile_overrides(result.program, trace, threshold=0.60)
    measured.pop(target.uid, None)
    assert overrides == measured


def test_perfect_rate_never_overrules_pd_or_ec():
    """Even a 100% measured rate must not touch ld_p/ld_e loads."""
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    non_nt = [
        inst for inst in result.program.static_loads()
        if inst.lspec is not LoadSpec.N
    ]
    assert non_nt  # the source produces PD and EC loads
    predictor = profiled_with(trace, {inst.uid: (100, 100)
                                      for inst in non_nt})
    overrides = profile_overrides(
        result.program, trace, threshold=0.60, predictor=predictor
    )
    assert not set(overrides) & {inst.uid for inst in non_nt}


def test_pinned_copy_leaves_the_shared_outcomes_alone():
    """Pinning counters on a copy changes the verdict, never the
    trace's own record, which the precompute's streams also read."""
    result, trace = compiled_and_traced(PREDICTABLE_NT)
    out = unbounded_outcomes(trace)
    per_load = dict(out.per_load)
    codes = out.codes
    target = nt_loads(result.program)[0]
    overrides = profile_overrides(
        result.program, trace, threshold=0.60,
        predictor=profiled_with(trace, {target.uid: (100, 61)}),
    )
    assert overrides[target.uid] is LoadSpec.P
    assert trace.unbounded is out
    assert out.per_load == per_load
    assert out.codes == codes
    machine = MachineConfig()
    reference = reference_run(TimingSimulator(
        trace, machine.with_earlygen(PROPOSED), overrides))
    [swept] = simulate_many(trace, [PROPOSED], machine=machine,
                            overrides=[overrides])
    assert swept == reference


def test_never_executed_loads_not_flipped():
    src = """
    int g = 5;
    int main() {
        if (0) { print_int(g); }   /* dead load, if it survives at all */
        print_int(1);
        return 0;
    }
    """
    result = compile_source(src)
    trace = execute(result.program).trace
    overrides = profile_overrides(result.program, trace)
    executed = {uid for uid, _ in executed_loads(result.program, trace)}
    assert set(overrides) <= executed
