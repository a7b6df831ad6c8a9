import timeit

import pytest
from hypothesis import given, strategies as st

from teamtl.eval_team_ltl import _TeamEval
from teamtl.formula import Prop, _offset_groups, _pre_image
from teamtl.trace import (
    LassoTrace,
    TeamEncoding,
    canonicalize,
    lcm_loop,
    prfx,
    suffix_trace,
    trace_at,
)

pos = st.frozensets(st.sampled_from(["p", "q"]), max_size=2)
traces = st.builds(
    LassoTrace,
    st.lists(pos, max_size=3).map(tuple),
    st.lists(pos, min_size=1, max_size=3).map(tuple),
)


def test_empty_loop_rejected():
    with pytest.raises(ValueError):
        LassoTrace((), ())


def test_trace_at_wraps_into_loop():
    t = LassoTrace.of([["p"]], [["q"], []])
    assert trace_at(t, 0) == {"p"}
    assert trace_at(t, 1) == {"q"}
    assert trace_at(t, 2) == set()
    assert trace_at(t, 3) == {"q"}


def test_canonicalize_folds_prefix_tail():
    # a·(ba)^ω and (ab)^ω denote the same word.
    a, b = frozenset("a"), frozenset("b")
    t1 = LassoTrace((a,), (b, a))
    t2 = LassoTrace((), (a, b))
    assert canonicalize(t1) == canonicalize(t2)


def test_canonicalize_reduces_to_primitive_period():
    a, b = frozenset("a"), frozenset("b")
    assert canonicalize(LassoTrace((), (a, b, a, b))) == LassoTrace((), (a, b))


def test_canonicalize_is_linear_in_the_prefix():
    # A 77-step loop behind 80 copies of itself folds completely.  Folding
    # one position at a time by copying the prefix and the loop took about
    # 8000 times as long as canonicalising the bare loop; a single pass
    # over the 6160 prefix positions takes about 150 times as long.
    loop = tuple(frozenset({f"p{i % 7}", f"q{i % 11}"}) for i in range(77))
    bare, padded = LassoTrace((), loop), LassoTrace(loop * 80, loop)
    assert canonicalize(padded) == bare

    def cost(t):
        return min(timeit.repeat(lambda: canonicalize(t), number=5, repeat=5))

    assert cost(padded) < 1000 * cost(bare)


@given(traces)
def test_canonicalize_preserves_denotation(t):
    c = canonicalize(t)
    for i in range(len(t.prefix) + 2 * len(t.loop)):
        assert trace_at(c, i) == trace_at(t, i)


@given(traces, st.integers(0, 6), st.integers(0, 6))
def test_suffix_trace_shifts_positions(t, i, j):
    assert trace_at(suffix_trace(t, i), j) == trace_at(t, i + j)


@given(traces, st.integers(0, 4))
def test_unfolding_is_denotation_equal(t, k):
    """Pushing k loop positions into the prefix yields the same ω-word."""
    unfolded = t
    for _ in range(k):
        unfolded = LassoTrace(
            unfolded.prefix + (unfolded.loop[0],),
            unfolded.loop[1:] + (unfolded.loop[0],),
        )
    assert canonicalize(unfolded) == canonicalize(t)


def test_team_deduplicates_by_denotation():
    a, b = frozenset("a"), frozenset("b")
    team = TeamEncoding.of([
        LassoTrace((a,), (b, a)),
        LassoTrace((), (a, b)),
        LassoTrace((), (a, b, a, b)),
    ])
    assert len(team) == 1


def test_team_built_directly_is_canonical():
    a, b = frozenset("a"), frozenset("b")
    assert TeamEncoding(frozenset({LassoTrace((), (a, a))})) == \
        TeamEncoding.of([LassoTrace((), (a,))])
    team = TeamEncoding(frozenset({LassoTrace((a,), (b, a)), LassoTrace((), (a, b))}))
    assert team.traces == {LassoTrace((), (a, b))}


@given(st.lists(traces, max_size=3))
def test_suffix_team_is_periodic_after_prefix(ts):
    team = TeamEncoding.of(ts)
    start, end = prfx(team), prfx(team) + lcm_loop(team)

    def suffix_team(i):
        return TeamEncoding.of(suffix_trace(t, i) for t in team)

    assert suffix_team(start) == suffix_team(end)
    # The evaluator's one successor of a team is its suffix team: the same
    # number of distinct members, with the same labels first.
    ev = _TeamEval(team, Prop("p"), len(team))
    masks = [ev.root]
    while len(masks) <= end:
        masks += ev.successors(masks[-1])
    assert masks[start] == masks[end]
    for i, mask in enumerate(masks):
        states = [s for s in range(len(ev.heads)) if mask >> s & 1]
        assert len(states) == len(suffix_team(i))
        assert {ev.heads[s] for s in states} == {trace_at(t, i) for t in team}


@given(st.lists(traces, max_size=4), st.integers(min_value=0))
def test_pre_image_groups_follow_the_successor_table(ts, seed):
    # The core derives the successor masks ``succ`` and the one pre-image
    # grouping from the numbering's ``succ_ids``: the pre-image read off
    # the masks must be the same.  Every state has one successor, so
    # ``pre_all``, the complement of the pre-image of the complement, is
    # ``pre_some``.
    ev = _TeamEval(TeamEncoding.of(ts), Prop("p"), 4)
    reference = _pre_image(_offset_groups([(bit.bit_length() - 1,) for bit in ev.succ])[0])
    mask = seed % (ev.full + 1)
    assert ev.pre_some(mask) == reference(mask)
    assert ev.pre_some(ev.full) == reference(ev.full)
    assert ev.pre_all(mask) == ev.pre_some(mask)


def test_empty_team_bounds():
    empty = TeamEncoding.of([])
    assert prfx(empty) == 0
    assert lcm_loop(empty) == 1
