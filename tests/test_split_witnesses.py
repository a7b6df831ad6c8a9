"""The parts that a split rule returns, checked against the oracles.

Each evaluator's ``split`` returns the two parts that satisfied its sides,
and ``--explain`` prints them.  Here every part of a SAT root split must
cover the team with its partner, be disjoint from it where a side is
downward closed, and satisfy its side under the independent oracle."""

import random
from collections import Counter

from teamtl.eval_team_ctl import _CtlEval, mc_ctl_bruteforce
from teamtl.eval_team_ltl import _TeamEval, naive_oracle
from teamtl.formula import CNeg, Split, formula_length, is_downward_closed
from teamtl.kripke import MultiTeam
from teamtl.selftest import (
    random_ctl_formula,
    random_kripke,
    random_ltl_formula,
    random_multiteam,
    random_team,
)
from teamtl.trace import LassoTrace, TeamEncoding

INSTANCES = 300
MIXED = dict(allow_cneg=True, allow_boolor=True, allow_atoms=True)


def traces_of(ev: _TeamEval, mask: int) -> TeamEncoding:
    """The traces whose first states are the bits of ``mask``, read back
    by following each state's successor to the first repeat."""
    traces = []
    for s in range(len(ev.heads)):
        if not mask >> s & 1:
            continue
        first: dict[int, int] = {}
        while s not in first:
            first[s] = len(first)
            s = ev.succ[s].bit_length() - 1
        labels = [ev.heads[state] for state in first]
        traces.append(LassoTrace(tuple(labels[:first[s]]), tuple(labels[first[s]:])))
    return TeamEncoding.of(traces)


def sat_splits(rng, draw):
    """``INSTANCES`` SAT root splits ``(instance, left, right)`` from
    ``draw(rng)``, which returns an instance and its split's two sides."""
    found = []
    while len(found) < INSTANCES:
        instance, left, right = draw(rng)
        if instance is not None:
            found.append((instance, left, right))
    return found


def draw_ltl(rng):
    team = random_team(rng, max_traces=4)
    sides = [random_ltl_formula(rng, rng.randint(0, 3), **MIXED) for _ in range(2)]
    if rng.random() < 0.3:
        # Neither side downward closed: the split enumerates covers.
        sides = [CNeg(side) for side in sides]
    if any(formula_length(side) > 8 for side in sides):
        return None, None, None
    ev = _TeamEval(team, Split(*sides), len(team))
    if not ev.check(ev.root, ev.top):
        return None, None, None
    return (ev, team), *sides


def test_team_ltl_split_parts_satisfy_their_sides_under_the_oracle():
    strategies = Counter()
    for (ev, team), left, right in sat_splits(random.Random(19), draw_ltl):
        node = ev.top
        parts = ev.split(ev.root, node)
        assert parts is not None, (Split(left, right), team)
        left_part, right_part = parts
        assert left_part | right_part == ev.root, (Split(left, right), team)
        closed = is_downward_closed(left) or is_downward_closed(right)
        if closed:
            assert not left_part & right_part, (Split(left, right), team)
        assert naive_oracle(traces_of(ev, left_part), left), (left, team)
        assert naive_oracle(traces_of(ev, right_part), right), (right, team)
        strategies[
            "flat" if ev.fails[node] is not None
            else "disjoint" if ev.dc[node]
            else "one closed" if closed
            else "covers"
        ] += 1
    # Every strategy of `_TeamEval.split` gave some of the witnesses.
    assert min(strategies[s] for s in ("flat", "disjoint", "one closed", "covers")) >= 10


def test_traces_of_reads_back_the_team():
    rng = random.Random(7)
    for _ in range(50):
        team = random_team(rng, max_traces=4)
        ev = _TeamEval(team, Split(*[random_ltl_formula(rng, 1)] * 2), len(team))
        assert traces_of(ev, ev.root) == team


def counts(ev: _CtlEval, key: int) -> Counter:
    return Counter(dict(ev.members(key)))


def draw_ctl(rng):
    k = random_kripke(rng)
    team = random_multiteam(rng, k)
    sides = [random_ctl_formula(rng, rng.randint(0, 3), **MIXED) for _ in range(2)]
    if rng.random() < 0.3:
        # Neither side downward closed: the split enumerates covers.
        sides = [CNeg(side) for side in sides]
    ev = _CtlEval(k, len(team))
    key = ev.encode(team.worlds)
    node = ev.compile(Split(*sides))
    if not ev.check(key, node):
        return None, None, None
    return (ev, k, team, key, node), *sides


def test_team_ctl_split_parts_satisfy_their_sides_under_the_oracle():
    disjoint = covers = 0
    for (ev, k, team, key, node), left, right in sat_splits(random.Random(19), draw_ctl):
        parts = ev.split(key, node)
        assert parts is not None, (Split(left, right), team, k)
        whole = counts(ev, key)
        left_counts, right_counts = (counts(ev, part) for part in parts)
        closed = is_downward_closed(left) or is_downward_closed(right)
        for w, count in whole.items():
            assert left_counts[w] <= count and right_counts[w] <= count
            if closed:
                assert left_counts[w] + right_counts[w] == count, (Split(left, right), team, k)
            else:
                assert left_counts[w] + right_counts[w] >= count, (Split(left, right), team, k)
        assert set(left_counts) | set(right_counts) <= set(whole)
        for side, part_counts in ((left, left_counts), (right, right_counts)):
            part = MultiTeam.of([k.worlds[w] for w in sorted(part_counts.elements())])
            assert mc_ctl_bruteforce(k, part, side), (side, part, k)
        disjoint += closed
        covers += not closed
    assert disjoint >= 10 and covers >= 10


def draw_ctl_copies(rng):
    k = random_kripke(rng)
    size = rng.randint(2, 4)
    worlds = [rng.choice(k.worlds) for _ in range(size - 1)]
    team = MultiTeam.of(worlds + [rng.choice(worlds)])
    sides = [random_ctl_formula(rng, rng.randint(0, 3), **MIXED) for _ in range(2)]
    if rng.random() < 0.3:
        sides = [CNeg(side) for side in sides]
    ev = _CtlEval(k, len(team))
    key = ev.encode(team.worlds)
    node = ev.compile(Split(*sides))
    if not ev.check(key, node):
        return None, None, None
    return (ev, k, team, key, node), *sides


def test_team_ctl_split_parts_on_teams_with_copies_satisfy_their_sides():
    # A world of the team occurs at least twice, so a split puts some of
    # its copies on one side and the rest on the other, one copy at a time.
    strategies = Counter()
    for (ev, k, team, key, node), left, right in sat_splits(random.Random(23), draw_ctl_copies):
        parts = ev.split(key, node)
        assert parts is not None, (Split(left, right), team, k)
        whole = counts(ev, key)
        left_counts, right_counts = (counts(ev, part) for part in parts)
        closed = is_downward_closed(left) or is_downward_closed(right)
        for w, count in whole.items():
            assert left_counts[w] <= count and right_counts[w] <= count
            both = left_counts[w] + right_counts[w]
            assert both == count if closed else both >= count, (Split(left, right), team, k)
        assert set(left_counts) | set(right_counts) <= set(whole)
        for side, part_counts in ((left, left_counts), (right, right_counts)):
            part = MultiTeam.of([k.worlds[w] for w in sorted(part_counts.elements())])
            assert mc_ctl_bruteforce(k, part, side), (side, part, k)
        strategies[
            "flat" if ev.fails[node] is not None
            else "disjoint" if ev.dc[node]
            else "one closed" if closed
            else "covers"
        ] += 1
    # Every strategy of the shared split gave some of the witnesses.
    assert min(strategies[s] for s in ("flat", "disjoint", "one closed", "covers")) >= 10
