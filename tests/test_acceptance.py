"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with plain ``pytest``; each criterion announces its PASS line as it
completes (failures surface as ordinary pytest failures).
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from minq import (
    CountingStream,
    Interval,
    ListStream,
    and_span,
    block,
    check_read_bounds,
    difference,
    from_positions,
    lowpass,
    materialize,
    or_merge,
    ordered_and,
    oracle_and,
    oracle_block,
    oracle_difference,
    oracle_lowpass,
    oracle_or,
    oracle_ordered_and,
    profile,
    snippets,
)

from helpers import (
    CountedSingletons,
    HOT_OR_COLD,
    PEASE,
    PORRIDGE,
    RHYME_ANTICHAIN,
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
    random_inputs,
    star_compose,
)

iv = lambda l, r: Interval(l, r)

CASES_PER_OPERATOR = 10_000
SUITE_BUDGET_SECONDS = 60.0


def announce(capsys, number, text):
    with capsys.disabled():
        print(f"\nacceptance criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def randomized_suite():
    """One shared pass over the randomized cases for criteria 2 and 4."""
    rng = random.Random(0xC0FFEE)
    mismatches = []
    violations = []
    cases = {k: 0 for k in ("or", "and", "block", "ordered_and", "difference", "lowpass")}
    started = time.perf_counter()
    for _ in range(CASES_PER_OPERATOR):
        inputs = random_inputs(rng)
        for kind, op, orc in (
            ("or", or_merge, oracle_or),
            ("and", and_span, oracle_and),
            ("block", block, oracle_block),
            ("ordered_and", ordered_and, oracle_ordered_and),
        ):
            prof = profile(op, inputs)
            if prof.outputs != orc(inputs):
                mismatches.append((kind, inputs))
            report = check_read_bounds(prof, inputs, kind)
            violations.extend(report.violations)
            cases[kind] += 1
        pair = [inputs[0], inputs[1] if len(inputs) > 1 else []]
        prof = profile(lambda ss: difference(ss[0], ss[1]), pair)
        if prof.outputs != oracle_difference(*pair):
            mismatches.append(("difference", pair))
        violations.extend(check_read_bounds(prof, pair, "difference").violations)
        cases["difference"] += 1
        k = rng.randint(1, 12)
        prof = profile(lambda ss: lowpass(ss[0], k), [inputs[0]])
        if prof.outputs != oracle_lowpass(inputs[0], k):
            mismatches.append(("lowpass", (inputs[0], k)))
        violations.extend(
            check_read_bounds(prof, [inputs[0]], "lowpass").violations
        )
        cases["lowpass"] += 1
    elapsed = time.perf_counter() - started
    return {
        "cases": cases,
        "mismatches": mismatches,
        "violations": violations,
        "elapsed": elapsed,
    }


def test_criterion_1_worked_example(capsys):
    inputs = (PEASE, PORRIDGE, HOT_OR_COLD)

    def evaluate_once():
        witnesses = materialize(and_span([from_positions(p) for p in inputs]))
        windows = snippets(witnesses, 3)
        return witnesses, windows

    evaluate_once()  # warm-up
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        witnesses, windows = evaluate_once()
        best = min(best, time.perf_counter() - started)
    assert witnesses == RHYME_ANTICHAIN
    assert windows == [iv(0, 2), iv(3, 5), iv(31, 33)]
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    announce(
        capsys, 1, f"worked example: 13 witnesses + 3 snippets in {best * 1e6:.0f} us"
    )


def test_criterion_2_oracle_equivalence(randomized_suite, capsys):
    suite = randomized_suite
    assert all(n >= CASES_PER_OPERATOR for n in suite["cases"].values())
    assert suite["mismatches"] == [], suite["mismatches"][:3]
    assert suite["elapsed"] < SUITE_BUDGET_SECONDS
    announce(
        capsys,
        2,
        f"oracle equivalence: {sum(suite['cases'].values())} cases exact "
        f"in {suite['elapsed']:.1f} s",
    )


def test_criterion_3_sorting_reduction(capsys):
    rng = random.Random(3)
    for n in (1, 2, 10, 100, 1000, 10_000):
        values = rng.sample(range(10 * n), n)
        merged = materialize(or_merge([from_positions([v]) for v in values]))
        assert merged == [iv(v, v) for v in sorted(values)]
    announce(capsys, 3, "sorting reduction exact up to n=10000 singleton inputs")


def test_criterion_4_read_bounds(randomized_suite, capsys):
    suite = randomized_suite
    assert suite["violations"] == [], suite["violations"][:5]
    announce(
        capsys,
        4,
        f"read bounds: zero violations across {sum(suite['cases'].values())} profiles",
    )


def test_criterion_5_operation_counts(capsys):
    # The queue counts are those the shipped generators publish on their
    # adapters' QueueCounts; the greedy reads are counted on their inputs.
    rng = random.Random(5)
    for _ in range(2000):
        inputs = random_inputs(rng)
        m = len(inputs)
        n = sum(len(a) for a in inputs)
        comparison_cap = (math.ceil(math.log2(m)) if m > 1 else 0) + 1
        for op in (or_merge, and_span):
            stream = op([ListStream(a) for a in inputs])
            while stream.next() is not None:
                pass
            queue = stream.queue
            assert queue.mutations <= n + m
            assert queue.max_mutation_comparisons <= comparison_cap
        for make, take in (
            (block, inputs),
            (ordered_and, inputs),
            (
                lambda ss: difference(ss[0], ss[1]),
                [inputs[0], inputs[1] if m > 1 else []],
            ),
            (lambda ss: lowpass(ss[0], 4), [inputs[0]]),
        ):
            counters = [CountingStream(ListStream(a)) for a in take]
            stream = make(counters)
            while stream.next() is not None:
                pass
            assert sum(c.reads for c in counters) <= sum(len(a) for a in take) + len(take)
    announce(
        capsys,
        5,
        "counts: queue mutations <= n+m, heap comparisons <= ceil(log2 m)+1, "
        "greedy reads <= n+m",
    )


def test_criterion_6_state_linear_in_operands(capsys):
    # The operator state is the local variables of the generator behind each
    # adapter: a heap key or a current pair per input list, plus scalars.
    for m in range(1, 6):
        for factory, name in (
            (or_merge, "heap"),
            (and_span, "heap"),
            (block, "cur"),
            (ordered_and, "cur"),
        ):
            sources = [CountedSingletons(start=i, step=m) for i in range(m)]
            counted = [CountingStream(s) for s in sources]
            stream = factory(counted)
            for _ in range(3):
                stream.next()
            state = stream.pairs.gi_frame.f_locals
            if name == "heap":
                assert len(state[name]) <= m
            else:
                assert len(state[name]) == m
            assert all(len(v) <= m for v in state.values() if isinstance(v, list))
            # inputs of a million intervals, three outputs: a handful of reads
            assert all(c.reads <= 5 for c in counted)
    diff = difference(CountedSingletons(0, 2), CountedSingletons(1, 2))
    for _ in range(3):
        diff.next()
    state = diff.pairs.gi_frame.f_locals
    assert (state["sub_left"], state["sub_right"]) == (5, 5)
    assert not any(isinstance(v, list) for v in state.values())
    announce(
        capsys,
        6,
        "state: one heap key or current pair per list plus scalars; "
        "million-interval inputs touched only a few elements",
    )


def test_criterion_7_star_transparency(capsys):
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        inputs = random_inputs(rng, allow_empty=False)
        kind = checked % 5
        if kind == 0:
            bare, composed = or_merge, star_compose(check_all_empty, or_merge)
        elif kind == 1:
            bare, composed = and_span, star_compose(check_any_empty, and_span)
        elif kind == 2:
            bare, composed = block, star_compose(check_any_empty, block)
        elif kind == 3:
            bare, composed = ordered_and, star_compose(check_any_empty, ordered_and)
        else:
            if len(inputs) < 2:
                inputs = inputs + [[iv(1, 1)]]
            inputs = inputs[:2]
            bare = lambda ss: difference(ss[0], ss[1])
            composed = star_compose(check_minuend_empty, bare)
        bare_profile = profile(bare, inputs)
        composed_profile = profile(composed, inputs)
        assert composed_profile.outputs == bare_profile.outputs
        assert composed_profile.rho == bare_profile.rho
        checked += 1
    announce(capsys, 7, "prefix-check composition: 1000 profiles identical")


def test_criterion_8_cli_golden(tmp_path, capsys):
    data = Path(__file__).parent / "data"
    idx = tmp_path / "rhyme.ivx"
    build = subprocess.run(
        [sys.executable, "-m", "minq", "index", str(data / "rhyme.txt"), "-o", str(idx)],
        capture_output=True,
    )
    assert build.returncode == 0, build.stderr
    proc = subprocess.run(
        [
            sys.executable, "-m", "minq", "query", str(idx),
            "(hot | cold) & porridge & pease", "--snippets", "3",
        ],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (data / "golden_query.txt").read_bytes()
    announce(capsys, 8, "CLI output byte-identical to checked-in golden file")
