"""Memoized SDFG fingerprints: memoized == recomputed, always.

Fingerprints are memoized on the IR objects and stay valid while the
process-wide mutation counter (:mod:`repro.mutation`) is unchanged; only
changes to objects some fingerprint has read bump it.  These tests drive
random transform matches and direct mutator calls, after priming a random
subset of the memos, and check after every step that every memoized
fingerprint equals a from-scratch recomputation; that fresh copies mutate
without bumping, so a tuning search leaves a served graph's memos valid;
that memos never cross a pickle or copy; that the check mode catches a
stale memo; and that an unchanged graph is hashed once.
"""

import copy
import itertools
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import mutation
from repro.apps import bert, conv, hdiff
from repro.errors import PipelineError
from repro.sdfg import dtypes, serialize
from repro.sdfg.data import Array
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import Map, Tasklet
from repro.sdfg.serialize import (
    arrays_fingerprint,
    sdfg_fingerprint,
    state_fingerprint,
)
from repro.symbolic.ranges import Range
from repro.tool.session import Session
from repro.transforms import default_transforms

BUILDERS = {"hdiff": hdiff.build_sdfg, "conv": conv.build_conv, "bert": bert.build_sdfg}


def _fingerprints(sdfg) -> dict:
    """Every memoized fingerprint of *sdfg*, through the public functions."""
    out = {
        "sdfg": sdfg_fingerprint(sdfg),
        "arrays": arrays_fingerprint(sdfg),
        "arrays.logical": arrays_fingerprint(sdfg, logical=True),
    }
    for state in sdfg.states():
        out[("state", state.name)] = state_fingerprint(state)
    return out


def _memo_holders(sdfg) -> list:
    return [sdfg, *sdfg.states()]


def _prime(sdfg, mask: int) -> None:
    """Memoize the subset of fingerprints selected by the bits of *mask*."""
    if mask & 1:
        sdfg_fingerprint(sdfg)
    if mask & 2:
        arrays_fingerprint(sdfg, logical=bool(mask & 8))
    if mask & 4:
        for state in sdfg.states():
            state_fingerprint(state)


def _recomputed(sdfg) -> dict:
    """The same fingerprints computed from scratch (every memo dropped)."""
    for holder in _memo_holders(sdfg):
        holder._fingerprints = None
    return _fingerprints(sdfg)


# -- direct mutator calls ------------------------------------------------------


def _arrays(sdfg):
    return [n for n, d in sdfg.arrays.items() if isinstance(d, Array)]


def _entries(sdfg):
    return [(s, e) for s in sdfg.states() for e in s.map_entries()]


def _edges(sdfg):
    return [(s, e) for s in sdfg.states() for e in s.edges()]


def _tasklets(sdfg):
    return [t for s in sdfg.states() for t in s.tasklets()]


def _pick(items, choice):
    return items[choice % len(items)] if items else None


_unique = itertools.count()


def _mutate(sdfg, kind: str, choice: int) -> None:
    """One direct call of an IR mutator, chosen by *kind*."""
    if kind == "add_array":
        sdfg.add_array(f"extra{next(_unique)}", ["N", 4], dtypes.float64)
    elif kind == "add_transient":
        sdfg.add_transient(f"tmp{next(_unique)}", [3], dtypes.float32)
    elif kind == "add_scalar":
        sdfg.add_scalar(f"s{next(_unique)}", dtypes.int32, transient=True)
    elif kind == "add_symbol":
        sdfg.add_symbol(f"Z{choice % 3}")
    elif kind == "replace_descriptor":
        name = _pick(_arrays(sdfg), choice)
        if name is not None:
            desc = sdfg.arrays[name]
            sdfg.replace_descriptor(name, desc.with_strides(desc.strides, choice % 4))
    elif kind == "remove_data":
        name = _pick(sorted(sdfg.arrays), choice)
        if name is not None:
            sdfg.remove_data(name)
    elif kind == "add_state":
        last = sdfg.states()[-1]
        sdfg.add_state_after(last, f"extra_{next(_unique)}")
    elif kind == "add_node":
        state = _pick(sdfg.states(), choice)
        state.add_tasklet(f"t{choice}", ["a"], ["b"], "b = a")
    elif kind == "remove_node":
        state = _pick(sdfg.states(), choice)
        node = _pick(state.nodes(), choice)
        if node is not None:
            state.remove_node(node)
    elif kind == "add_edge":
        state = _pick(sdfg.states(), choice)
        nodes = state.nodes()
        if len(nodes) >= 2:
            src, dst = nodes[choice % len(nodes)], nodes[(choice + 1) % len(nodes)]
            state.add_edge(src, f"o{choice}", dst, f"i{choice}", None)
    elif kind == "remove_edge":
        picked = _pick(_edges(sdfg), choice)
        if picked is not None:
            picked[0].remove_edge(picked[1])
    elif kind == "connector":
        node = _pick(_tasklets(sdfg), choice)
        if node is not None:
            node.add_in_connector(f"c{choice}")
            node.add_out_connector(f"d{choice}")
    elif kind == "map_params":
        picked = _pick(_entries(sdfg), choice)
        if picked is not None:
            entry = picked[1]
            entry.map.params = tuple(reversed(entry.map.params))
            entry.map.ranges = tuple(reversed(entry.map.ranges))
    elif kind == "map_object":
        picked = _pick(_entries(sdfg), choice)
        if picked is not None:
            entry = picked[1]
            old = entry.map
            entry.map = Map(old.label, old.params, [Range(0, 2)] * len(old.params))
    elif kind == "memlet":
        picked = _pick([(s, e) for s, e in _edges(sdfg) if e.data.memlet], choice)
        if picked is not None:
            conn = picked[1].data
            conn.memlet = Memlet(conn.memlet.data, conn.memlet.subset, wcr="sum")
    elif kind == "code":
        tasklet = _pick(_tasklets(sdfg), choice)
        if tasklet is not None:
            tasklet.code = tasklet.code + " + 0"
    elif kind == "descriptor_field":
        name = _pick(_arrays(sdfg), choice)
        if name is not None:
            desc = sdfg.arrays[name]
            field = choice % 5
            if field == 0:
                desc.strides = tuple(reversed(desc.strides))
            elif field == 1:
                desc.start_offset = choice % 7
            elif field == 2:
                desc.alignment = 64
            elif field == 3:
                desc.transient = not desc.transient
            else:
                desc.dtype = dtypes.float32
    else:  # pragma: no cover - strategy and table disagree
        raise AssertionError(kind)


MUTATORS = (
    "add_array", "add_transient", "add_scalar", "add_symbol",
    "replace_descriptor", "remove_data", "add_state", "add_node",
    "remove_node", "add_edge", "remove_edge", "connector", "map_params",
    "map_object", "memlet", "code", "descriptor_field",
)
TRANSFORMS = tuple(t.name for t in default_transforms())


def _apply_transform(sdfg, name: str, choice: int) -> None:
    transform = next(t for t in default_transforms() if t.name == name)
    matches = transform.enumerate_matches(sdfg)
    if matches:
        transform.apply(sdfg, matches[choice % len(matches)])


#: Half transform matches, half direct mutator calls, each after priming
#: a random subset of the memos (so some mutated objects are unobserved).
steps = st.lists(
    st.tuples(
        st.sampled_from(("transform",) * len(MUTATORS) + MUTATORS),
        st.integers(0, 1000),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=6,
)


@pytest.fixture(autouse=True)
def _plain_memos(monkeypatch):
    # These tests compare memos against recomputation themselves; the
    # suite-wide check mode would raise before the comparison could.
    monkeypatch.setattr(serialize, "_check_fingerprints", False)


class TestMemoizedEqualsRecomputed:
    @pytest.mark.parametrize("app", sorted(BUILDERS))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=steps)
    def test_random_transforms_and_mutators(self, app, ops):
        sdfg = BUILDERS[app]()
        for kind, choice, mask in ops:
            _prime(sdfg, mask)
            if kind == "transform":
                _apply_transform(sdfg, TRANSFORMS[choice % len(TRANSFORMS)], choice)
            else:
                _mutate(sdfg, kind, choice)
            assert _fingerprints(sdfg) == _recomputed(sdfg), (kind, choice)

    @pytest.mark.parametrize("kind", MUTATORS)
    def test_every_mutator_bumps_after_changing(self, kind, monkeypatch):
        sdfg = hdiff.build_sdfg()
        before = _fingerprints(sdfg)
        generation = mutation.generation
        bump = mutation.bump

        def bump_then_read():
            # A reader interleaved right after the bump: had the mutator
            # bumped before finishing its change, this memoizes the old
            # content under the new generation.
            bump()
            _fingerprints(sdfg)

        monkeypatch.setattr(mutation, "bump", bump_then_read)
        _mutate(sdfg, kind, 1)
        assert mutation.generation != generation
        after = _fingerprints(sdfg)
        assert after == _recomputed(sdfg)
        assert after != before

    def test_construction_does_not_bump(self):
        generation = mutation.generation
        Map("m", ["i"], [Range(0, 4)])
        Array(dtypes.float64, ["N"])
        Memlet("A", "0:N")
        Tasklet("t", ["a"], ["b"], "b = a")
        hdiff.build_sdfg().copy()
        assert mutation.generation == generation

    @pytest.mark.parametrize("kind", MUTATORS)
    def test_unobserved_graph_mutates_without_bumping(self, kind):
        sdfg = hdiff.build_sdfg()
        generation = mutation.generation
        _mutate(sdfg, kind, 1)
        assert mutation.generation == generation
        assert _fingerprints(sdfg) == _recomputed(sdfg)

    def test_attached_object_is_observed_through_its_graph(self):
        # A new node joins an observed state (a bump); the next state
        # fingerprint reads it, so a later change to it bumps again.
        sdfg = hdiff.build_sdfg()
        state = sdfg.start_state
        state_fingerprint(state)
        tasklet = Tasklet("late", ["a"], ["b"], "b = a")
        generation = mutation.generation
        state.add_node(tasklet)
        assert mutation.generation != generation
        state_fingerprint(state)
        generation = mutation.generation
        tasklet.code = "b = a + 1"
        assert mutation.generation != generation
        assert state_fingerprint(state) == _recomputed(sdfg)[("state", state.name)]

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_transforming_a_fresh_copy_keeps_the_originals_memos(
        self, name, monkeypatch
    ):
        # The tuner's step: copy a fingerprinted candidate, transform the
        # copy, fingerprint it.  The copy is unobserved until then.
        sdfg = hdiff.build_sdfg()
        expected = _fingerprints(sdfg)
        generation = mutation.generation
        transform = next(t for t in default_transforms() if t.name == name)
        for match in transform.enumerate_matches(sdfg)[:3]:
            variant = sdfg.copy()
            transform.apply(variant, match)
            assert mutation.generation == generation
            assert _fingerprints(variant) == _recomputed(variant)
        digests = []
        real = serialize._digest
        monkeypatch.setattr(
            serialize, "_digest", lambda doc: digests.append(1) or real(doc)
        )
        assert sdfg_fingerprint(sdfg) == expected["sdfg"]
        assert digests == []

    def test_tuning_leaves_the_served_graph_memos_valid(self):
        session = Session(hdiff.build_sdfg())
        params = {"I": 4, "J": 4, "K": 3}
        session.sweep([params])
        generation = mutation.generation
        result = session.tune(params, beam=2, depth=2, budget=12, capacity_lines=4)
        assert result.best is not None
        assert mutation.generation == generation


class TestMemoLifetime:
    def test_unchanged_graph_is_hashed_once(self, monkeypatch):
        sdfg = hdiff.build_sdfg()
        first = _fingerprints(sdfg)
        digests = []
        real = serialize._digest
        monkeypatch.setattr(
            serialize, "_digest", lambda doc: digests.append(1) or real(doc)
        )
        assert _fingerprints(sdfg) == first
        assert digests == []

    def test_warm_sweep_hashes_nothing(self, monkeypatch):
        session = Session(hdiff.build_sdfg())
        params = {"I": 4, "J": 4, "K": 3}
        session.sweep([params])
        digests = []
        real = serialize._digest
        monkeypatch.setattr(
            serialize, "_digest", lambda doc: digests.append(1) or real(doc)
        )
        session.sweep([params])
        assert digests == []

    def test_pickle_and_copy_carry_no_memo(self):
        sdfg = hdiff.build_sdfg()
        expected = _fingerprints(sdfg)
        assert all(h._fingerprints is not None for h in _memo_holders(sdfg))
        clones = [
            pickle.loads(pickle.dumps(sdfg)),
            copy.deepcopy(sdfg),
            sdfg.copy(),
        ]
        for clone in clones:
            assert all(h._fingerprints is None for h in _memo_holders(clone))
            assert _fingerprints(clone) == expected
        state = copy.copy(sdfg.start_state)
        assert state._fingerprints is None
        assert state_fingerprint(state) == expected[("state", state.name)]

    def test_check_mode_catches_a_stale_memo(self, monkeypatch):
        sdfg = hdiff.build_sdfg()
        state = sdfg.start_state
        good = state_fingerprint(state)
        # Simulate a mutation that forgot to bump the counter.
        state._fingerprints = (mutation.generation, {"state": "stale"})
        assert state_fingerprint(state) == "stale"
        monkeypatch.setattr(serialize, "_check_fingerprints", True)
        with pytest.raises(PipelineError, match="stale"):
            state_fingerprint(state)
        state._fingerprints = None
        assert state_fingerprint(state) == good

    def test_concurrent_readers_never_pin_a_stale_digest(self):
        # Readers racing a mutator may memoize a digest of half-changed
        # content, but only under a generation the mutator's bump ends:
        # once a mutation returns, every read sees the new content.
        sdfg = hdiff.build_sdfg()
        state = sdfg.start_state
        tasklet = state.tasklets()[0]
        expected = {}
        for code in (tasklet.code, tasklet.code + " + 0"):
            tasklet.code = code
            state._fingerprints = None
            expected[code] = state_fingerprint(state)
        codes = list(expected)
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                state_fingerprint(state)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for step in range(300):
                code = codes[step % 2]
                tasklet.code = code
                assert state_fingerprint(state) == expected[code], step
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)

    def test_environment_turns_check_mode_on(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        script = "from repro.sdfg import serialize; print(serialize._check_fingerprints)"
        for value, expected in (("1", "True"), ("0", "False")):
            env = {**os.environ, "PYTHONPATH": src, "REPRO_CHECK_FINGERPRINTS": value}
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True, timeout=60,
            )
            assert result.stdout.strip() == expected
