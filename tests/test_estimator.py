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
    EnumerationLimitError,
    PRUNING_POLICIES,
    _canonical_count,
    _canonical_programs,
    _prune,
    applicable_set,
    bound_from_pairs,
    cap_constant,
    identity_index,
    make_pair,
    phi,
    phi_profile,
    upper_bound_C,
)
from kolmobench.halting import SweepStats, analyze_table
from kolmobench.tm_core import immediate_halt, run, str_to_syms, u_run

N1 = MachineRange(1, 1)


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
        r = phi(t, x, small_universe, cap=9, ceiling=1 << 12)
        assert (r.value, r.witness) == oracle_phi(t, x, 9, small_universe)
        assert r.value == expected


def test_phi_witness_replays(small_universe):
    for x in ("", "0", "11"):
        r = phi(8, x, small_universe, cap=8, ceiling=1 << 12)
        assert r.witness is not None
        out = u_run(r.witness, 8, small_universe)
        assert out[0] == "h" and out[2] == x
        assert len(r.witness) == r.value


def test_phi_value_at_most_cap(small_universe):
    for x in ("", "1", "10"):
        r = phi(2, x, small_universe, cap=4, ceiling=1 << 8)
        assert r.value <= r.cap == 4


def test_phi_default_cap_is_length_plus_constant(small_universe):
    r = phi(4, "01", small_universe, ceiling=1 << 26)
    assert r.cap == 2 + cap_constant()


def test_phi_resource_refusal(small_universe):
    # Without index 1 the scan may run to the default cap 25: 8,380,418
    # canonical programs exceed the default ceiling 2^22.
    with pytest.raises(EnumerationLimitError, match="8380418 programs"):
        phi(4, "0101", MachineRange(1, 2, 2, 4096))
    # With index 1 it ends by length 4 + 4: 105 programs.
    assert phi(4, "0101", small_universe).value <= 8


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
        phi(0, "1", small_universe, cap=4)
    with pytest.raises(ValueError):
        phi(1, "21", small_universe, cap=4)


def test_phi_profile_monotone_and_validates_schedule(small_universe):
    prof = phi_profile("11", [1, 5, 50], small_universe, cap=8, ceiling=1 << 12)
    values = [r.value for r in prof]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        phi_profile("11", [3, 3], small_universe, cap=8, ceiling=1 << 12)


@pytest.mark.parametrize("cap,first", [(14, 12), (11, 11)])
def test_phi_profile_matches_oracle_where_the_budget_matters(cap, first):
    # phi(1) = 12 via (8, "010"); from t = 2 on, phi = 11 via (15, "00").  At
    # cap 11, phi(1) has no witness.
    u = MachineRange(1, 2, 8, 15)
    schedule = [1, 2, 4, 8, 16, 64]
    prof = phi_profile("10", schedule, u, cap=cap, ceiling=1 << 16)
    assert [(r.value, r.witness) for r in prof] == [
        oracle_phi(t, "10", cap, u) for t in schedule
    ]
    assert [r.value for r in prof] == [first, 11, 11, 11, 11, 11]
    assert (prof[0].witness is None) == (cap == 11)


def test_applicable_set_contains_immediate_halt_for_empty_string():
    classes = applicable_set("", N1, budget=16, max_prog_len=2)
    assert any(pr.i == 1 and pr.p == "" for _, pr in classes)


def test_applicable_set_pairs_replay(small_universe):
    # Each class's first pair replays on the plain stepper, and its count is
    # the indices of its span whose plain run outputs x, the first the smallest.
    u, budget = MachineRange(1, 2, 1, 1200), 32
    spans = u.bit_length_spans()
    for x in ("", "1"):
        classes = applicable_set(x, u, budget=budget, max_prog_len=3)
        assert applicable_set(x, u, budget=budget, max_prog_len=3, threads=2) == classes
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
            classes = applicable_set(x, u, budget, mpl, policy=policy, threads=threads)
            assert classes == _classes(_pruned_pair_by_pair(policy, pairs)), (x, policy)


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
    classes = applicable_set("", u, 256, 0, ceiling=1 << 26)
    assert len(u.bit_length_spans()) == len(classes) == len(built) == 15
    assert sum(count for count, _ in classes) == 3_089_010
    assert bound_from_pairs("", [pr for _, pr in classes]) == (21, make_pair(1001, "", 1))


def test_applicable_set_stats_weigh_verdicts_by_pairs():
    u, mpl = MachineRange(1, 2, 990, 1040), 3
    stats = SweepStats()
    classes = applicable_set("1", u, 64, mpl, policy="none", stats=stats)
    assert stats.machines == sum(stats.verdicts.values()) == u.count * ((1 << (mpl + 1)) - 1)
    assert 0 < stats.leaves < stats.machines
    assert 0 < sum(count for count, _ in classes) <= stats.verdicts["halt"]


def test_applicable_set_resource_refusal():
    with pytest.raises(EnumerationLimitError):
        applicable_set("1", MachineRange(1, 2), budget=4, max_prog_len=6)


def test_pruning_matches_independent_predicate():
    u = MachineRange(1, 1, 1, 400)
    x = ""
    unpruned = [make_pair(*t) for t in _plain_loop_pairs(1, 400, 16, 2)[x]]
    assert applicable_set(x, u, budget=16, max_prog_len=2, policy="none") == _classes(unpruned)
    pruned = applicable_set(x, u, budget=16, max_prog_len=2)
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
    bound, witness = upper_bound_C("", N1, budget=16, max_prog_len=2)
    assert bound <= 2 * (1).bit_length() + 1 == 3
    assert witness.i == 1 and witness.p == ""
    bound, witness = upper_bound_C("11", N1, budget=64, max_prog_len=4)
    assert bound == 6 and (witness.i, witness.p) == (1, "011")


def test_upper_bound_at_most_cap(small_universe):
    u = MachineRange(1, 2, 1, 1100)
    for x in ("", "0", "10"):
        bound, _ = upper_bound_C(x, u, budget=64, max_prog_len=4)
        assert bound <= len(x) + cap_constant()


def test_upper_bound_empty_set_falls_back_to_scanner():
    # a universe without any machine able to output "11" on short programs
    u = MachineRange(1, 1, 2, 2)  # machine 2 never halts
    bound, witness = upper_bound_C("11", u, budget=8, max_prog_len=1)
    assert bound == 2 + cap_constant()
    assert witness.i == identity_index() and witness.p == "11"
    assert witness.steps == 3


def test_upper_bound_agrees_with_phi_at_stabilization():
    # matched spaces: programs for machines 1..1000 with p up to 6,
    # budget beyond every halting step in the set
    u = MachineRange(1, 2, 1, 1000)
    for x in ("", "0", "11"):
        classes = applicable_set(x, u, budget=64, max_prog_len=6)
        bound, _ = bound_from_pairs(x, [pr for _, pr in classes])
        r = phi(64, x, u, cap=27, ceiling=1 << 28)
        assert r.value == bound


def test_no_operation_documents_a_lower_bound():
    for module in (kolmobench.estimator, kolmobench.ctm):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            doc = (fn.__doc__ or "").lower()
            assert not re.search(r"lower\s+bound", doc), (module.__name__, name)


def test_phi_profile_empty_string_reaches_minimal_program(small_universe):
    prof = phi_profile("", [1, 10, 100], small_universe, cap=6, ceiling=1 << 10)
    values = [r.value for r in prof]
    assert values == sorted(values, reverse=True)
    # exhaustive sweep: the shortest program producing the empty string
    assert values[-1] == oracle_phi(100, "", 6, small_universe)[0] == 3


def test_phi_cap_zero_degenerates(small_universe):
    r = phi(5, "", small_universe, cap=0, ceiling=1 << 4)
    assert r.value == 0 and r.witness is None
