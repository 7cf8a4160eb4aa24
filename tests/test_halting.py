import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolmobench.enumeration import index_to_machine, iter_tables
from kolmobench.halting import (
    BBRecord,
    BlankEscape,
    ConfigCycle,
    DirectionalEscape,
    ProvedDiverges,
    ProvedHalts,
    Simulator,
    SpliceCycle,
    Unknown,
    analyze,
    bb_table,
    decide_layer,
    program_sweep,
    verify_certificate,
)
from kolmobench.tm_core import (
    MOVE_LEFT,
    MOVE_RIGHT,
    WRITE_BLANK,
    WRITE_ONE,
    WRITE_ZERO,
    Cutoff,
    Halted,
    InvalidOutput,
    Machine,
    encode_index,
    immediate_halt,
    run,
)

binary = st.text(alphabet="01", max_size=6)


def machines(max_states=3):
    def build(n, codes):
        return Machine(n_states=n, table=tuple(divmod(c, n + 1) for c in codes))

    return st.integers(1, max_states).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.integers(0, 5 * (n + 1) - 1), min_size=3 * n, max_size=3 * n),
        )
    )


def test_analyze_immediate_halt():
    v = analyze(immediate_halt(), "", 10)
    assert v == ProvedHalts(steps=1, output="")


def test_analyze_right_runner_blank_escape():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    v = analyze(m, "", 10)
    assert isinstance(v, ProvedDiverges)
    assert isinstance(v.certificate, BlankEscape)
    assert v.certificate.direction == "R"
    assert verify_certificate(m, "", v)


def test_analyze_blink_config_cycle():
    # write one / erase it: the configuration repeats with period 2
    m = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 1)))
    v = analyze(m, "", 10)
    assert isinstance(v, ProvedDiverges)
    assert isinstance(v.certificate, ConfigCycle)
    assert v.certificate.step_b - v.certificate.step_a == 2
    assert verify_certificate(m, "", v)


def test_analyze_one_way_writer_directional_escape():
    m = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (MOVE_RIGHT, 1)))
    v = analyze(m, "", 64)
    assert isinstance(v, ProvedDiverges)
    assert isinstance(v.certificate, DirectionalEscape)
    assert verify_certificate(m, "", v)


def test_analyze_two_sided_bouncer_splice_cycle():
    # grows a zero block one cell per sweep, alternating ends
    m = Machine(
        2,
        (
            (WRITE_ZERO, 2),  # 1,B
            (MOVE_RIGHT, 1),  # 1,0
            (WRITE_BLANK, 0),  # 1,1
            (WRITE_ZERO, 1),  # 2,B
            (MOVE_LEFT, 2),  # 2,0
            (WRITE_BLANK, 0),  # 2,1
        ),
    )
    v = analyze(m, "", 512)
    assert isinstance(v, ProvedDiverges)
    assert isinstance(v.certificate, SpliceCycle)
    assert verify_certificate(m, "", v)
    # long replay really does not halt
    assert isinstance(run(m, "", 20000), Cutoff)


def test_analyze_unknown_below_discovery_budget():
    m = Machine(
        2,
        (
            (WRITE_ZERO, 2),
            (MOVE_RIGHT, 1),
            (WRITE_BLANK, 0),
            (WRITE_ZERO, 1),
            (MOVE_LEFT, 2),
            (WRITE_BLANK, 0),
        ),
    )
    assert isinstance(analyze(m, "", 5), Unknown)


@given(machines(4), binary, st.integers(1, 200))
def test_proved_halts_agrees_with_plain_run(m, x, budget):
    v = analyze(m, x, budget)
    if isinstance(v, ProvedHalts):
        out = run(m, x, v.steps)
        if v.output is None:
            assert out == InvalidOutput(v.steps)
        else:
            assert out == Halted(v.output, v.steps)


@given(machines(4), binary, st.integers(1, 200))
def test_proved_diverges_verifies_and_keeps_running(m, x, budget):
    v = analyze(m, x, budget)
    if isinstance(v, ProvedDiverges):
        assert verify_certificate(m, x, v)
        assert isinstance(run(m, x, 4000), Cutoff)


@given(machines(), binary, st.integers(1, 60), st.integers(0, 60))
def test_verdict_monotonicity(m, x, b1, extra):
    b2 = b1 + extra
    v1 = analyze(m, x, b1)
    v2 = analyze(m, x, b2)
    if isinstance(v1, ProvedHalts):
        assert v2 == v1
    elif isinstance(v1, ProvedDiverges):
        assert isinstance(v2, ProvedDiverges)
        assert v2.certificate == v1.certificate
    else:
        assert isinstance(v2, (ProvedHalts, ProvedDiverges, Unknown))


def test_bb_record_consistency_check():
    with pytest.raises(ValueError):
        BBRecord(1, 3, True, 5, 16)


def test_bb_table_one_state_matches_brute_force():
    # independent oracle: plain budgeted runs, no certificates, no sharing
    oracle_max = 0
    halting = set()
    for idx, table in iter_tables(1):
        m = Machine(1, table)
        out = run(m, "", 10_000)
        if not isinstance(out, Cutoff):
            halting.add(idx)
            oracle_max = max(oracle_max, out.steps)
    rec = bb_table(1, budget=64, verify=True)
    assert rec.decided_all and rec.undecided_count == 0
    assert rec.max_steps == oracle_max == 3
    assert len(halting) == 610


def test_decide_layer_one_state():
    rec = decide_layer(1, start_budget=4)
    assert rec.decided_all and rec.max_steps == 3


def test_verify_rejects_tampered_certificates():
    m = Machine(1, ((MOVE_RIGHT, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 0)))
    good = analyze(m, "", 10)
    bad = ProvedDiverges(
        certificate=BlankEscape(state=1, step=0, direction="L"), found_at=0
    )
    assert verify_certificate(m, "", good)
    assert not verify_certificate(m, "", bad)
    blink = Machine(1, ((WRITE_ONE, 1), (WRITE_BLANK, 0), (WRITE_BLANK, 1)))
    assert not verify_certificate(
        blink, "", ProvedDiverges(certificate=ConfigCycle(0, 1), found_at=1)
    )
    left = Machine(1, ((MOVE_LEFT, 1), (MOVE_LEFT, 1), (MOVE_LEFT, 1)))
    assert verify_certificate(left, "", analyze(left, "", 10))
    for cert in (
        DirectionalEscape(step_a=5, step_b=3, direction="R"),
        DirectionalEscape(step_a=3, step_b=3, direction="L"),
        ConfigCycle(-1, 2),
        BlankEscape(state=1, step=-1, direction="L"),
    ):
        assert not verify_certificate(left, "", ProvedDiverges(certificate=cert, found_at=5))


def test_simulator_memoizes_across_budgets(small_universe):
    sim = Simulator(small_universe)
    prog = encode_index(991) + "11"
    assert sim.u_outcome(prog, 2) == Cutoff(2)
    assert sim.u_outcome(prog, 3) == Halted("11", 3)
    assert sim.u_outcome(prog, 100) == Halted("11", 3)
    # derived verdicts equal fresh analyze at every budget
    m = index_to_machine(2)
    for b in (1, 2, 7):
        fresh = analyze(m, "", b)
        raw = sim.raw_verdict(2, "", b)
        if isinstance(fresh, ProvedDiverges):
            assert raw[0] == "d"
        elif isinstance(fresh, ProvedHalts):
            assert raw[0] == "h"
        else:
            assert raw[0] == "u"


def _index_and_program(i, p, steps, output):
    return i, p


def test_program_sweep_memo_and_cache_only_where_due(tmp_path, monkeypatch):
    import kolmobench.halting as halting
    from kolmobench.cache import VerdictCache
    from kolmobench.enumeration import MachineRange

    u, programs = MachineRange(1, 1, 1, 300), ["", "0", "1"]
    plain = list(program_sweep(u, programs, 32, _index_and_program))
    caches = {}
    for threads in (1, 2):
        caches[threads] = VerdictCache(str(tmp_path / f"vc{threads}.jsonl"))
        sim = Simulator(u, cache=caches[threads])
        assert list(program_sweep(u, programs, 32, _index_and_program, threads, sim)) == plain
        assert len(caches[threads]) == 900
        assert len(sim._memo) == (900 if threads == 1 else 0)
        caches[threads].close()
    assert (tmp_path / "vc1.jsonl").read_bytes() == (tmp_path / "vc2.jsonl").read_bytes()
    warm = Simulator(u, cache=VerdictCache(str(tmp_path / "vc1.jsonl")))
    assert list(program_sweep(u, programs, 32, _index_and_program, sim=warm)) == plain
    assert not warm._memo  # every verdict came from the cache
    monkeypatch.setattr(halting, "CACHEABLE_SWEEP_LIMIT", 899)
    big = Simulator(u, cache=VerdictCache(str(tmp_path / "big.jsonl")))
    assert list(program_sweep(u, programs, 32, _index_and_program, sim=big)) == plain
    assert not big._memo and not big.cache.records  # too big to cache: plain runs


def test_bb_table_partial_interval_counts_unswept_as_undecided():
    from kolmobench.enumeration import MachineRange, machine_count

    rng = MachineRange(1, 1, 1, 100)
    rec = bb_table(1, budget=64, machine_range=rng)
    assert not rec.decided_all
    assert rec.undecided_count == machine_count(1) - 100
    full = bb_table(1, budget=64)
    assert full.max_steps >= rec.max_steps


def test_bb_table_rejects_disjoint_interval():
    from kolmobench.enumeration import MachineRange

    with pytest.raises(ValueError):
        bb_table(1, budget=16, machine_range=MachineRange(1, 2, 5000, 9000))
    with pytest.raises(ValueError):
        bb_table(2, budget=16, machine_range=MachineRange(1, 1))


def test_bb_table_single_machine_restriction():
    from kolmobench.enumeration import MachineRange

    rec = bb_table(1, budget=16, machine_range=MachineRange(1, 1, 1, 1))
    assert rec.max_steps == 1  # the all-(write-blank, halt) machine
    assert not rec.decided_all and rec.undecided_count == 999


# Two-state machines that defeat cycle/escape/directional detection; global
# layer indices found by exhaustive sweep. The first eight are single-run
# bouncers (some repainting as they sweep), the last four grow two runs of
# different symbols and need the two-cut splice.
BOUNCER_INDICES = [
    1000 + off
    for off in (
        570576, 571703, 581601, 3621576, 4367454, 8369664, 8379800, 8727309,
        8926629, 8936751, 11355909, 11366031,
    )
]


@pytest.mark.slow
@pytest.mark.parametrize("idx", BOUNCER_INDICES)
def test_bouncer_family_gets_splice_certificates(idx):
    m = index_to_machine(idx)
    v = analyze(m, "", 512)
    assert isinstance(v, ProvedDiverges), (idx, v)
    assert isinstance(v.certificate, SpliceCycle)
    assert verify_certificate(m, "", v)
    assert isinstance(run(m, "", 100_000), Cutoff)
