"""The shared-golden contract: each golden artefact is built once per problem.

``Problem.canonical_golden`` is built lazily, once, and shared by the golden
store, the difficulty proxy and the simulated designers, none of which may
mutate it.  ``golden_netlist()`` still hands out independent copies.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

import repro.bench.problem as problem_module
from repro.bench import all_problems, get_problem
from repro.bench.golden import GoldenStore
from repro.llm import (
    SimulatedDesigner,
    apply_functional_mutation,
    apply_syntax_mutation,
    system,
    user,
)
from repro.llm.mutations import SYNTAX_MUTATORS
from repro.netlist import Instance, Netlist
from repro.prompts import build_system_prompt, build_user_prompt


class _CountingFactory:
    """Wraps a golden factory and counts how often it runs."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.factory()


def _counted(name: str):
    original = get_problem(name)
    factory = _CountingFactory(original.golden_factory)
    return dataclasses.replace(original, golden_factory=factory), factory


class TestCanonicalGolden:
    @pytest.mark.parametrize("name", ["mzi_ps", "spanke_8x8"])
    def test_factory_runs_once_per_problem(self, name):
        problem, factory = _counted(name)
        store = GoldenStore(num_wavelengths=5)
        for _ in range(3):
            problem.golden_netlist()
            _ = problem.complexity
            store.response_for(problem)
            store._golden_key(problem)
        assert factory.calls == 1

    def test_each_problem_object_builds_its_own(self):
        problem, factory = _counted("mzi_ps")
        twin = dataclasses.replace(problem)
        assert twin == problem
        problem.golden_netlist()
        twin.golden_netlist()
        assert factory.calls == 2

    def test_golden_fingerprint_computed_once(self, monkeypatch):
        problem, _ = _counted("benes_8x8")
        calls = []
        original = problem_module.netlist_fingerprint

        def counting(netlist):
            calls.append(netlist)
            return original(netlist)

        monkeypatch.setattr(problem_module, "netlist_fingerprint", counting)
        store = GoldenStore(num_wavelengths=5)
        keys = {store._golden_key(problem) for _ in range(4)}
        store.response_for(problem)
        store.response_for(problem)
        assert len(keys) == 1
        assert len(calls) == 1

    def test_cached_golden_stays_out_of_eq_hash_and_repr(self):
        problem = get_problem("mzi_ps")
        fresh = dataclasses.replace(problem)
        _ = problem.canonical_golden
        assert "canonical_golden" in vars(problem)
        assert problem == fresh and hash(problem) == hash(fresh)
        assert repr(problem) == repr(fresh)

    def test_problem_pickles_with_cached_golden(self):
        problem = get_problem("mzi_ps")
        expected = problem.canonical_golden.to_json()
        clone = pickle.loads(pickle.dumps(problem))
        assert clone == problem
        assert clone.canonical_golden.to_json() == expected
        assert clone.golden_netlist().to_json() == expected

    def test_golden_netlist_returns_independent_copies(self):
        problem = get_problem("mzi_ps")
        before = problem.canonical_golden.to_json()
        first = problem.golden_netlist()
        assert first is not problem.canonical_golden
        first.instances["waveBottom"].settings["length"] = -1.0
        first.connections.clear()
        first.ports.clear()
        first.models.clear()
        assert problem.canonical_golden.to_json() == before
        assert problem.golden_netlist().to_json() == before


class TestMutatorsLeaveInputUnchanged:
    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.name)
    def test_syntax_and_functional_mutators(self, problem, registry):
        netlist = problem.canonical_golden
        before = netlist.to_json()
        for seed in range(3):
            for category in SYNTAX_MUTATORS:
                rng = np.random.default_rng(seed)
                result = apply_syntax_mutation(netlist, category, rng)
                assert result.netlist is not netlist, category
                assert netlist.to_json() == before, category
            mutated = apply_functional_mutation(netlist, np.random.default_rng(seed), registry)
            assert mutated is not netlist
            assert netlist.to_json() == before

    @pytest.mark.parametrize("name", ["mzi_ps", "benes_8x8", "clements_4x4"])
    def test_designer_drafts_leave_canonical_golden_unchanged(self, name):
        problem = get_problem(name)
        before = problem.canonical_golden.to_json()
        designer = SimulatedDesigner("GPT-4o")
        messages = [system(build_system_prompt()), user(build_user_prompt(problem.description))]
        for seed in range(20):
            designer.complete(messages, seed=seed)
        assert problem.canonical_golden.to_json() == before


class TestNetlistCopy:
    def test_scalar_settings_are_copied(self):
        netlist = Netlist(instances={"wg": Instance("waveguide", {"length": 10.0})})
        clone = netlist.copy()
        clone.instances["wg"].settings["length"] = 5.0
        assert netlist.instances["wg"].settings == {"length": 10.0}

    def test_settings_holding_a_list_are_deep_copied(self):
        settings = {"phases": [0.1, [0.2, 0.3]], "label": "a"}
        netlist = Netlist(instances={"mesh": Instance("mesh", settings)})
        clone = netlist.copy()
        copied = clone.instances["mesh"].settings
        assert copied == settings
        assert copied["phases"] is not settings["phases"]
        copied["phases"][1].append(0.4)
        copied["phases"].append(0.5)
        assert settings == {"phases": [0.1, [0.2, 0.3]], "label": "a"}

    def test_settings_holding_a_dict_are_deep_copied(self):
        settings = {"nested": {"a": 1.0}}
        netlist = Netlist(instances={"x": Instance("mesh", settings)})
        clone = netlist.copy()
        clone.instances["x"].settings["nested"]["a"] = 2.0
        assert settings == {"nested": {"a": 1.0}}
