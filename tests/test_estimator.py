import inspect
import re
from collections import Counter
from functools import lru_cache

import pytest

import kolmobench.ctm
import kolmobench.estimator
from kolmobench.enumeration import (
    MachineRange,
    index_to_machine,
    index_to_table,
    layer_of_index,
    machine_to_index,
    str_to_nat,
)
from kolmobench.estimator import (
    PRUNING_POLICIES,
    _canonical_count,
    _canonical_programs,
    _prune,
    applicable_set,
    bound_from_pairs,
    cap_constant,
    identity_index,
    make_pair,
    phi_profile,
)
from kolmobench.halting import EnumerationLimitError, SweepStats, analyze_table, layer_leaves
from kolmobench.tm_core import programs_of_length, run, str_to_syms, u_run

from helpers import immediate_halt

N1 = MachineRange(1, 1)


def _strings(max_len):
    return [p for length in range(max_len + 1) for p in programs_of_length(length)]


def _bound(x, universe, budget, max_prog_len):
    """The shortest encoding over x's applicable set, from a batch of one."""
    classes = applicable_set([x], universe, budget, max_prog_len)[x]
    return bound_from_pairs(x, [pr for _, pr in classes])


def oracle_phi(t, x, cap, universe):
    """Independent sweep: plain u_run over every program, no cache, no early
    anything beyond the defining minimum."""
    hits = []
    for length in range(cap + 1):
        for v in range(1 << length) if length else [0]:
            q = format(v, f"0{length}b") if length else ""
            out = u_run(q, t, universe)
            if out[0] == "h" and out[2] == x:
                hits.append((length, v, q))
    if not hits:
        return cap, None
    length, _, q = min(hits)
    return length, q


def test_constants():
    assert machine_to_index(immediate_halt()) == 1
    assert identity_index() == 991
    assert cap_constant() == 2 * (991).bit_length() + 1 == 21


@pytest.mark.parametrize(
    "x,expected",
    [("", 3), ("0", 5), ("1", 5), ("11", 6), ("00", 6), ("101", 7)],
)
def test_phi_matches_oracle_and_frozen_values(x, expected, small_universe):
    for t in (1, 4, 64):
        r = phi_profile([x], [t], small_universe, cap=9, ceiling=1 << 12)[x][0]
        assert (r.value, r.witness) == oracle_phi(t, x, 9, small_universe)
        assert r.value == expected


def test_phi_witness_replays(small_universe):
    for x in ("", "0", "11"):
        r = phi_profile([x], [8], small_universe, cap=8, ceiling=1 << 12)[x][0]
        assert r.witness is not None
        out = u_run(r.witness, 8, small_universe)
        assert out[0] == "h" and out[2] == x
        assert len(r.witness) == r.value


def test_phi_value_at_most_cap(small_universe):
    for x in ("", "1", "10"):
        r = phi_profile([x], [2], small_universe, cap=4, ceiling=1 << 8)[x][0]
        assert r.value <= r.cap == 4


def test_phi_default_cap_is_length_plus_constant(small_universe):
    r = phi_profile(["01"], [4], small_universe)["01"][0]
    assert r.cap == 2 + cap_constant()


def test_phi_resource_refusal(small_universe):
    # Without index 1 the scan may run to the default cap 25: 8,380,418
    # canonical programs exceed a ceiling of 2^22.
    with pytest.raises(EnumerationLimitError, match="8380418 programs"):
        phi_profile(["0101"], [4], MachineRange(1, 2, 2, 4096), ceiling=1 << 22)
    # With index 1 it ends by length 4 + 4: 105 programs.
    assert phi_profile(["0101"], [4], small_universe, ceiling=1 << 22)["0101"][0].value <= 8


@pytest.mark.parametrize(
    "universe",
    [MachineRange(1, 1), MachineRange(1, 2, 1, 40), MachineRange(1, 2, 2, 9),
     MachineRange(1, 2, 5, 5), MachineRange(1, 2, 990, 1040)],
)
def test_canonical_count_matches_the_scan(universe):
    for cap in range(16):
        assert _canonical_count(universe, cap) == len(list(_canonical_programs(universe, cap)))


@pytest.mark.parametrize("x", ["", "0", "1", "0101", "110100111010"])
def test_machine_one_outputs_the_rest_of_its_input_at_step_one(x):
    # The phi scan's refusal counts only up to length len(x) + 4 when
    # index 1 is in the universe, because program 101 b x is a witness.
    for b in "01":
        assert analyze_table(index_to_table(1)[1], str_to_syms(b + x), 1) == ("h", 1, x)
        assert run(index_to_machine(1), b + x, 1) == ("h", 1, x)


def test_phi_rejects_bad_inputs(small_universe):
    with pytest.raises(ValueError):
        phi_profile(["1"], [0], small_universe, cap=4)
    with pytest.raises(ValueError):
        phi_profile(["21"], [1], small_universe, cap=4)


def test_phi_profile_monotone_and_validates_schedule(small_universe):
    prof = phi_profile(["11"], [1, 5, 50], small_universe, cap=8, ceiling=1 << 12)["11"]
    values = [r.value for r in prof]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        phi_profile(["11"], [3, 3], small_universe, cap=8, ceiling=1 << 12)


@pytest.mark.parametrize("cap,first", [(14, 12), (11, 11)])
def test_phi_profile_matches_oracle_where_the_budget_matters(cap, first):
    # phi(1) = 12 via (8, "010"); from t = 2 on, phi = 11 via (15, "00").  At
    # cap 11, phi(1) has no witness.
    u = MachineRange(1, 2, 8, 15)
    schedule = [1, 2, 4, 8, 16, 64]
    prof = phi_profile(["10"], schedule, u, cap=cap, ceiling=1 << 16)["10"]
    assert [(r.value, r.witness) for r in prof] == [
        oracle_phi(t, "10", cap, u) for t in schedule
    ]
    assert [r.value for r in prof] == [first, 11, 11, 11, 11, 11]
    assert (prof[0].witness is None) == (cap == 11)


def test_applicable_set_contains_immediate_halt_for_empty_string():
    classes = applicable_set([""], N1, budget=16, max_prog_len=2)[""]
    assert any(pr.i == 1 and pr.p == "" for _, pr in classes)


def test_applicable_set_pairs_replay(small_universe):
    # Each class's first pair replays on the plain stepper, and its count is
    # the indices of its span whose plain run outputs x, the first the smallest.
    u, budget = MachineRange(1, 2, 1, 1200), 32
    spans = u.bit_length_spans()
    for x in ("", "1"):
        classes = applicable_set([x], u, budget=budget, max_prog_len=3)[x]
        assert applicable_set([x], u, budget=budget, max_prog_len=3, threads=2)[x] == classes
        for count, pr in classes:
            assert run(index_to_machine(pr.i), pr.p, pr.steps) == ("h", pr.steps, x)
            assert pr.cost == pr.i.bit_length() + len(pr.p)
            assert pr.encoded_len == 2 * pr.i.bit_length() + 1 + len(pr.p)
            lo, hi = next((lo, hi) for _, lo, hi in spans if lo <= pr.i <= hi)
            outputs = [run(index_to_machine(i), pr.p, budget) for i in range(lo, hi + 1)]
            members = [i for i, out in enumerate(outputs, lo)
                       if out[0] == "h" and out[2] == x]
            assert (members[0], len(members)) == (pr.i, count)


@lru_cache(maxsize=None)
def _plain_loop_pairs(lo, hi, budget, max_prog_len):
    """Output -> every halting (i, p, steps) of the window, in canonical order,
    by one ``analyze_table`` run per (index, program)."""
    programs = [format(v, f"0{n}b") if n else "" for n in range(max_prog_len + 1)
                for v in range(1 << n)]
    found = {}
    for i in range(lo, hi + 1):
        table = index_to_table(i)[1]
        for p in programs:
            res = analyze_table(table, str_to_syms(p), budget)
            if res[0] == "h" and res[2] is not None:
                found.setdefault(res[2], []).append((i, p, res[1]))
    for pairs in found.values():
        pairs.sort(key=lambda t: (t[0], len(t[1]), str_to_nat(t[1])))
    return found


def _classes(pairs):
    """Pairs in canonical order grouped per (layer, index bit length,
    program): (count, first pair), in canonical order of the first pairs."""
    classes = {}
    for pr in pairs:
        key = (layer_of_index(pr.i), pr.i.bit_length(), pr.p)
        count, first = classes.get(key, (0, pr))
        classes[key] = (count + 1, first)
    return sorted(classes.values(), key=lambda c: (c[1].i, len(c[1].p), str_to_nat(c[1].p)))


def _pruned_pair_by_pair(policy, pairs):
    """The pairs that ``policy`` keeps, each judged against every other pair."""
    if policy == "none":
        return list(pairs)

    def threshold(pr):
        return min(pr.i.bit_length(), len(pr.p))

    def others(tally, own):  # the values of the pairs but one whose value is own
        return [v for v, n in tally.items() if n > (v == own)]

    costs = Counter(pr.cost for pr in pairs)
    thresholds = Counter(threshold(pr) for pr in pairs)
    if policy == "discard-dominated":
        return [pr for pr in pairs if not any(c <= threshold(pr) for c in others(costs, pr.cost))]
    assert policy == "literal-formula"
    return [pr for pr in pairs
            if not any(pr.cost <= t for t in others(thresholds, threshold(pr)))]


# 990:1040 crosses from the 1-state to the 2-state layer and the bit length
# of its indices steps at 1024; so does 2040:2060's at 2048.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lo, hi", [(990, 1040), (2040, 2060), (1, 1200)])
def test_applicable_set_matches_plain_loop(lo, hi, threads):
    u, budget, mpl = MachineRange(1, 2, lo, hi), 64, 3
    oracle = _plain_loop_pairs(lo, hi, budget, mpl)
    for x in ("", "0", "1", "11", "010"):
        pairs = [make_pair(*t) for t in oracle.get(x, [])]
        for policy in PRUNING_POLICIES:
            classes = applicable_set([x], u, budget, mpl, policy=policy, threads=threads)[x]
            assert classes == _classes(_pruned_pair_by_pair(policy, pairs)), (x, policy)


def _per_program_classes(xs, universe, budget, max_prog_len, policy, stats):
    """The applicable set from one concrete-input leaf tree per (layer, index
    bit length, program): each leaf's count is its class's share, and its
    table's first member the class's first pair."""
    classes = {x: [] for x in xs}
    for n, lo, hi in universe.bit_length_spans():
        for p in _strings(max_prog_len):
            found = {}
            for table, _, count, res in layer_leaves(n, budget, lo, hi, input_str=p, stats=stats):
                if res[0] == "h" and res[2] in classes:
                    first = (table.boxes.first_member(table), res[1])
                    total, least = found.get(res[2], (0, first))
                    found[res[2]] = (total + count, min(least, first))
            for x, (count, (i, steps)) in found.items():
                classes[x].append((count, make_pair(i, p, steps)))
    return {x: sorted(_prune(policy, c), key=lambda c: (c[1].i, len(c[1].p), str_to_nat(c[1].p)))
            for x, c in classes.items()}


# The open-input trees against the concrete ones: every string of up to 4
# bits across both layers and their bit lengths, a few where the layer and
# the bit length step (990:1040), and the whole 1-state layer.
OPEN_INPUT_CASES = {
    "1:2000": (MachineRange(1, 2, 1, 2000), _strings(4), 3_506),
    "990:1040": (MachineRange(1, 2, 990, 1040), ["", "0", "11", "0110"], None),
    "1-state": (MachineRange(1, 1), _strings(4), None),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", OPEN_INPUT_CASES)
def test_open_input_classes_match_per_program_trees(case, threads):
    universe, xs, leaves = OPEN_INPUT_CASES[case]
    for policy in PRUNING_POLICIES:
        got, want = SweepStats(), SweepStats()
        classes = applicable_set(xs, universe, 64, 4, policy=policy, threads=threads, stats=got)
        assert classes == _per_program_classes(xs, universe, 64, 4, policy, want), policy
        assert (got.machines, got.verdicts) == (want.machines, want.verdicts)
        assert got.leaves < want.leaves and (leaves is None or got.leaves == leaves)


@pytest.mark.parametrize(
    "universe, xs, budget, max_prog_len",
    [(MachineRange(1, 2, 1, 2000), _strings(4), 64, 4),
     (MachineRange(1, 2, 1, 4096), ["1"], 256, 8)],  # test_cli's estimate-two-layers-L8
    ids=["1:2000", "1:4096-L8"],
)
def test_open_input_first_pairs_replay_on_the_plain_stepper(universe, xs, budget, max_prog_len):
    # Each class's program is read off the leaf's open cells; tm_core.run,
    # not the detector, must give the output and step count recorded for it.
    batch = applicable_set(xs, universe, budget, max_prog_len, policy="none")
    assert any(len(pr.p) == max_prog_len for classes in batch.values() for _, pr in classes)
    for x, classes in batch.items():
        for _, pr in classes:
            assert run(index_to_machine(pr.i), pr.p, budget) == ("h", pr.steps, x), (x, pr)


def test_full_layer_applicable_set_builds_one_pair_per_class(monkeypatch):
    # The empty string's 3,089,010 pairs over the whole 2-state layer come from
    # one ProgramPair per (layer, index bit length, program): bit lengths 10..24.
    u = MachineRange(1, 2, 1001, 11391625)
    built = []

    def counted_make_pair(*args):
        built.append(args)
        assert len(built) <= 15, "a ProgramPair per index"
        return make_pair(*args)

    monkeypatch.setattr(kolmobench.estimator, "make_pair", counted_make_pair)
    classes = applicable_set([""], u, 256, 0)[""]
    assert len(u.bit_length_spans()) == len(classes) == len(built) == 15
    assert sum(count for count, _ in classes) == 3_089_010
    assert bound_from_pairs("", [pr for _, pr in classes]) == (21, make_pair(1001, "", 1))


def test_applicable_set_stats_weigh_verdicts_by_pairs():
    u, mpl = MachineRange(1, 2, 990, 1040), 3
    stats = SweepStats()
    classes = applicable_set(["1"], u, 64, mpl, policy="none", stats=stats)["1"]
    assert stats.machines == sum(stats.verdicts.values()) == u.count * ((1 << (mpl + 1)) - 1)
    assert 0 < stats.leaves < stats.machines
    assert 0 < sum(count for count, _ in classes) <= stats.verdicts["halt"]


def test_applicable_set_resource_refusal():
    with pytest.raises(EnumerationLimitError):
        applicable_set(["1"], MachineRange(1, 2), budget=4, max_prog_len=6)


def test_pruning_matches_independent_predicate():
    u = MachineRange(1, 1, 1, 400)
    x = ""
    unpruned = [make_pair(*t) for t in _plain_loop_pairs(1, 400, 16, 2)[x]]
    assert applicable_set([x], u, budget=16, max_prog_len=2, policy="none")[x] == _classes(unpruned)
    pruned = applicable_set([x], u, budget=16, max_prog_len=2)[x]
    expected = [
        pr
        for pr in unpruned
        if not any(
            other is not pr
            and other.cost <= min(pr.i.bit_length(), len(pr.p))
            for other in unpruned
        )
    ]
    assert pruned == _classes(expected)
    assert sum(count for count, _ in pruned) < len(unpruned)


def test_literal_formula_policy_differs_by_removing_dominators():
    classes = [(1, make_pair(1, "", 1)), (1, make_pair(5, "0010", 4))]
    assert _prune("discard-dominated", classes) == [classes[0]]
    assert _prune("literal-formula", classes) == [classes[1]]


def test_upper_bound_examples(small_universe):
    bound, witness = _bound("", N1, budget=16, max_prog_len=2)
    assert bound <= 2 * (1).bit_length() + 1 == 3
    assert witness.i == 1 and witness.p == ""
    bound, witness = _bound("11", N1, budget=64, max_prog_len=4)
    assert bound == 6 and (witness.i, witness.p) == (1, "011")


def test_upper_bound_at_most_cap(small_universe):
    u = MachineRange(1, 2, 1, 1100)
    for x in ("", "0", "10"):
        bound, _ = _bound(x, u, budget=64, max_prog_len=4)
        assert bound <= len(x) + cap_constant()


def test_upper_bound_empty_set_falls_back_to_scanner():
    # a universe without any machine able to output "11" on short programs
    u = MachineRange(1, 1, 2, 2)  # machine 2 never halts
    bound, witness = _bound("11", u, budget=8, max_prog_len=1)
    assert bound == 2 + cap_constant()
    assert witness.i == identity_index() and witness.p == "11"
    assert witness.steps == 3


def test_upper_bound_agrees_with_phi_at_stabilization():
    # matched spaces: programs for machines 1..1000 with p up to 6,
    # budget beyond every halting step in the set
    u = MachineRange(1, 2, 1, 1000)
    for x in ("", "0", "11"):
        bound, _ = _bound(x, u, budget=64, max_prog_len=6)
        r = phi_profile([x], [64], u, cap=27, ceiling=1 << 28)[x][0]
        assert r.value == bound


def test_no_operation_documents_a_lower_bound():
    for module in (kolmobench.estimator, kolmobench.ctm):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            doc = (fn.__doc__ or "").lower()
            assert not re.search(r"lower\s+bound", doc), (module.__name__, name)


def test_phi_profile_empty_string_reaches_minimal_program(small_universe):
    prof = phi_profile([""], [1, 10, 100], small_universe, cap=6, ceiling=1 << 10)[""]
    values = [r.value for r in prof]
    assert values == sorted(values, reverse=True)
    # exhaustive sweep: the shortest program producing the empty string
    assert values[-1] == oracle_phi(100, "", 6, small_universe)[0] == 3


def test_phi_cap_zero_degenerates(small_universe):
    r = phi_profile([""], [5], small_universe, cap=0, ceiling=1 << 4)[""][0]
    assert r.value == 0 and r.witness is None


DOUBLING_14 = [1 << k for k in range(15)]  # 1 .. 2^14


def _phi_batch_matches_one_string_calls(xs, universe):
    batch = phi_profile(xs, DOUBLING_14, universe)
    assert list(batch) == xs
    assert batch == {x: phi_profile([x], DOUBLING_14, universe)[x] for x in xs}


def test_phi_batch_matches_one_string_calls_up_to_6_bits():
    # 127 strings, each with its own default cap and open budgets, in one scan.
    _phi_batch_matches_one_string_calls(_strings(6), MachineRange(1, 2, 1, 4096))


@pytest.mark.slow
@pytest.mark.parametrize("universe, max_len", [
    (MachineRange(1, 2, 1, 4096), 9),  # 1,023 strings
    (MachineRange(1, 2, 990, 1040), 4),  # no program under 21 bits; the budget matters
    (MachineRange(1, 2, 2, 11411625), 4),  # the 2-state layer without machine 1
])
def test_phi_batch_matches_one_string_calls(universe, max_len):
    _phi_batch_matches_one_string_calls(_strings(max_len), universe)


def test_phi_batch_matches_oracle(small_universe):
    # One cap for the whole batch, so each string's values are the oracle's at that cap.
    xs = _strings(3)
    batch = phi_profile(xs, [1, 4, 64], small_universe, cap=9, ceiling=1 << 12)
    for x in xs:
        assert [(r.value, r.witness) for r in batch[x]] == [
            oracle_phi(t, x, 9, small_universe) for t in (1, 4, 64)
        ], x


@lru_cache(maxsize=None)
def _one_string_classes(x, policy):
    return applicable_set([x], MachineRange(1, 2, 1, 2000), 64, 3, policy=policy)[x]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("policy", PRUNING_POLICIES)
def test_applicable_set_batch_matches_one_string_calls(policy, threads):
    xs = _strings(3)
    batch = applicable_set(xs, MachineRange(1, 2, 1, 2000), 64, 3, policy=policy,
                           threads=threads)
    assert batch == {x: _one_string_classes(x, policy) for x in xs}


class _RecordingCache:
    """A verdict cache that serves nothing and keeps every record."""

    def __init__(self):
        self.records = []

    def lookup(self, i, p, budget):
        return None

    def record(self, i, p, budget, res):
        self.records.append((i, p, budget, res))


def test_empty_batch_sweeps_nothing(small_universe):
    stats, cache = SweepStats(), _RecordingCache()
    assert applicable_set([], small_universe, 64, 3, stats=stats) == {}
    assert stats.leaves == stats.machines == 0
    assert phi_profile([], [1, 4], small_universe, cache=cache) == {}
    assert cache.records == []


def test_duplicated_string_is_answered_once(small_universe):
    u = MachineRange(1, 2, 1, 1200)
    once, twice = SweepStats(), SweepStats()
    classes = applicable_set(["1"], u, 64, 3, stats=once)
    assert applicable_set(["1", "1"], u, 64, 3, stats=twice) == classes
    assert (twice.leaves, twice.machines) == (once.leaves, once.machines)
    scans = []
    for xs in (["01"], ["01", "01"]):
        cache = _RecordingCache()
        scans.append((phi_profile(xs, [1, 8], small_universe, cache=cache), cache.records))
    assert scans[0] == scans[1] and list(scans[0][0]) == ["01"]


@pytest.mark.parametrize("universe, cap", [(MachineRange(1, 2, 8, 15), 14),
                                           (MachineRange(1, 2, 990, 1040), None)])
def test_phi_batch_analyses_each_program_at_the_largest_budget_a_string_needs(universe, cap):
    # A string's open budgets depend only on its own halts, so the batch
    # analyses exactly the programs some one-string scan analyses, each once,
    # at the largest budget any of those scans analyses it at.
    xs, schedule = _strings(3), [1, 2, 4, 8, 16, 64]
    largest = {}
    for x in xs:
        cache = _RecordingCache()
        phi_profile([x], schedule, universe, cap=cap, cache=cache)
        for i, p, budget, _ in cache.records:
            largest[i, p] = max(largest.get((i, p), 0), budget)
    cache = _RecordingCache()
    phi_profile(xs, schedule, universe, cap=cap, cache=cache)
    analysed = {(i, p): budget for i, p, budget, _ in cache.records}
    assert len(analysed) == len(cache.records) and analysed == largest
    assert len(set(largest.values())) > 1  # the budgets differ from program to program


def _refuses(call):
    try:
        call()
    except EnumerationLimitError:
        return True
    return False


def test_batch_refuses_exactly_when_one_of_its_strings_would(small_universe):
    # With index 1 in the universe, x's scan ends by length len(x) + 4, so
    # the strings' exact counts differ; try ceilings at and around each.
    xs = ["", "01", "0110"]
    counts = sorted(_canonical_count(small_universe, len(x) + 4) for x in xs)
    for ceiling in sorted({c + d for c in counts for d in (-1, 0, 1)}):
        alone = [_refuses(lambda x=x: phi_profile([x], [1], small_universe, ceiling=ceiling))
                 for x in xs]
        for batch in (xs, xs[:2], xs[1:], []):
            want = any(r for x, r in zip(xs, alone) if x in batch)
            assert _refuses(lambda: phi_profile(batch, [1], small_universe,
                                                ceiling=ceiling)) == want, (ceiling, batch)
    # The applicable set's work does not depend on x: any non-empty batch
    # refuses exactly when each of its strings does.
    u, work = MachineRange(1, 2, 1, 100), 100 * 15
    for ceiling in (work - 1, work):
        alone = _refuses(lambda: applicable_set(["1"], u, 8, 3, ceiling=ceiling))
        assert alone == (ceiling < work)
        assert _refuses(lambda: applicable_set(xs, u, 8, 3, ceiling=ceiling)) == alone
        assert applicable_set([], u, 8, 3, ceiling=ceiling) == {}
