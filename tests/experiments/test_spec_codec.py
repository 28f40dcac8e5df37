"""The spec codec: bad input fails on one line naming its dotted path."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.experiments.scenario import (
    Scenario,
    SweepSpec,
    TraceSpec,
    scenario_from_dict,
)
from repro.pipeline.llm_profiles import LLMProfile
from repro.simulation.failures import FailureEvent
from repro.speccodec import (
    FLOAT,
    INT,
    STR,
    Spec,
    coerce_scalar,
    field,
    fingerprint,
    seq,
)

TM = {"name": "tm"}
PLAIN = {"name": "probe", "base": 0.01, "per_item": 0.001}
LLM = {"kind": "llm", "name": "probe"}


def inline(profile: dict) -> dict:
    return {"chain": ["probe"], "slo": 1.0, "profiles": [profile]}


#: (id, scenario-file body, dotted path the error must start with).
BAD_INPUT = [
    ("failures-mapping", {"app": TM, "failures": {"time": 1}}, "failures"),
    ("seed-fraction", {"app": TM, "seed": 1.7}, "seed"),
    ("drain-bool", {"app": TM, "drain": True}, "drain"),
    ("profile-typo",
     {"app": inline({**PLAIN, "max_bacth": 8})}, "app.profiles[0]"),
    ("profile-no-name",
     {"app": inline({"base": 0.01, "per_item": 0.001})}, "app.profiles[0]"),
    ("burst-no-length",
     {"app": TM, "trace": {"bursts": [{"start": 1, "factor": 2}]}},
     "trace.bursts[0]"),
    ("goodput-numeric-string",
     {"app": TM, "goodput": {"ttft": "0.5"}}, "goodput.ttft"),
    ("token-dist-string",
     {"app": inline({**LLM, "prompt_dist": {"mean": "x"}})},
     "app.profiles[0].prompt_dist.mean"),
    ("llm-max-batch-string",
     {"app": inline({**LLM, "max_batch": "8"})}, "app.profiles[0].max_batch"),
    ("workers-string", {"app": TM, "workers": "x"}, "workers"),
    ("router-weights-list",
     {"app": TM, "router": {"kind": "probabilistic", "weights": [1]}},
     "router.weights"),
    ("policy-params-list",
     {"app": TM, "policy": {"name": "PARD", "params": [1]}}, "policy.params"),
    ("resilience-retry-list",
     {"app": TM, "resilience": {"m1": {"timeout": 0.2, "retry": [1]}}},
     "resilience.m1.retry"),
    ("tenant-workers-string",
     {"tenants": [{"scenario": {"name": "a", "app": TM}},
                  {"scenario": {"name": "b", "app": TM, "workers": "x"}}]},
     "tenants[1].scenario.workers"),
    ("sweep-axis-empty",
     {"base": {"app": TM}, "axes": {"seed": []}}, "axes.seed"),
]


@pytest.mark.parametrize(
    "body, path", [row[1:] for row in BAD_INPUT],
    ids=[row[0] for row in BAD_INPUT],
)
def test_bad_input_names_its_dotted_path(body, path):
    with pytest.raises(ValueError) as info:
        scenario_from_dict(json.loads(json.dumps(body)))
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    assert "\n" not in message


def test_error_messages_read_naturally():
    with pytest.raises(ValueError) as info:
        scenario_from_dict(
            {"tenants": [{"scenario": {"name": "a", "app": TM}},
                         {"scenario": {"name": "b", "app": TM,
                                       "workers": "x"}}]}
        )
    assert str(info.value) == (
        "tenants[1].scenario.workers: expected an integer, got 'x'"
    )
    with pytest.raises(ValueError) as info:
        Scenario.from_dict({"app": TM, "failures": [{"time": 1, "m": 1}]})
    assert str(info.value) == (
        "failures[0]: unknown failure-event keys: ['m']"
    )


def test_range_errors_carry_the_spec_path():
    with pytest.raises(ValueError) as info:
        Scenario.from_dict({"app": TM, "trace": {"duration": -1}})
    assert str(info.value) == "trace: trace duration must be > 0"


def test_python_construction_normalizes_with_relative_paths():
    with pytest.raises(ValueError, match=r"^workers\.m1: expected an integer"):
        Scenario(app={"name": "tm"}, workers={"m1": 2.5})
    spec = Scenario(app={"name": "tm"}, failures=[{"time": 1,
                                                   "module_id": "m1"}])
    assert spec.failures == (FailureEvent(time=1.0, module_id="m1"),)


@pytest.mark.parametrize(
    "kind, value, expected",
    [("int", 2.0, 2), ("float", 3, 3.0), ("bool", True, True),
     ("str", "x", "x")],
)
def test_scalar_rules_accept(kind, value, expected):
    out = coerce_scalar(kind, value, "k")
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize(
    "kind, value",
    [("int", True), ("int", 1.5), ("int", "8"), ("int", float("inf")),
     ("float", False), ("float", "0.5"), ("bool", 1), ("str", 3)],
)
def test_scalar_rules_reject(kind, value):
    with pytest.raises(ValueError, match=r"^k: expected "):
        coerce_scalar(kind, value, "k")


@dataclass(frozen=True, kw_only=True)
class ProbeSpec(Spec):
    label: str = field(STR, "")
    size: int = field(INT)
    extra: tuple = field(seq(FLOAT), (), omit=True)
    note: str | None = field(STR, None,
                             omit=lambda p: p.size > 1)
    derived: int = 0


class TestCodec:
    def test_keys_follow_declaration_order(self):
        assert list(ProbeSpec(size=1).to_dict()) == ["label", "size", "note"]

    def test_omit_when_default_and_predicate(self):
        assert ProbeSpec(size=2, extra=(1.0,)).to_dict() == {
            "label": "", "size": 2, "extra": [1.0],
        }

    def test_round_trip_and_fingerprint(self):
        probe = ProbeSpec.from_dict({"size": 1, "extra": [2]})
        assert probe == ProbeSpec(size=1, extra=(2.0,))
        assert ProbeSpec.from_json(probe.to_json()) == probe
        assert probe.fingerprint() == fingerprint(
            {"label": "", "size": 1.0, "extra": [2.0], "note": None}
        )

    def test_fields_without_metadata_are_not_serialized(self):
        with pytest.raises(ValueError, match="unknown probe keys"):
            ProbeSpec.from_dict({"size": 1, "derived": 3})
        assert "derived" not in ProbeSpec(size=1, derived=3).to_dict()

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match=r"missing required keys: \['size'\]"):
            ProbeSpec.from_dict({})

    def test_llm_profile_derived_costs_stay_unserialized(self):
        profile = LLMProfile("probe")
        body = profile.to_dict()
        assert next(iter(body)) == "kind" and "base" not in body
        assert LLMProfile.from_dict(body) == profile

    def test_spec_files_round_trip(self, tmp_path):
        sweep = SweepSpec(base=Scenario(app={"name": "tm"}),
                          axes={"seed": [0, 1]}, name="s")
        sweep.save(tmp_path / "s.json")
        assert SweepSpec.from_file(tmp_path / "s.json") == sweep
        assert list(sweep.to_dict()) == ["name", "base", "axes"]

    def test_trace_spec_new_keys_written_only_when_set(self):
        assert set(TraceSpec().to_dict()) == {
            "name", "duration", "base_rate", "seed", "args", "scale",
            "bursts",
        }
        assert TraceSpec(name="poisson", stream=True).to_dict()["stream"]
