"""Serialized identity of every example spec, pinned as constants.

A spec's fingerprint keys the sweep and study caches and is written into
the study goldens (``base_fingerprint``); its ``to_json()`` is what
``repro scenario save`` and the examples store.  The digests below were
generated once, before the spec classes shared one codec, so any drift
in key order, numeric spelling or the "serialize only when set" rule
shows up here as a changed digest.  They must never be regenerated to
make a serialization change pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.experiments import sweep
from repro.experiments.scenario import (
    MultiScenario,
    Scenario,
    SweepSpec,
    load_scenario_file,
)
from repro.studies.spec import load_study_file

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: file -> (fingerprint or None for a SweepSpec, sha256 of to_json()).
SCENARIO_FILES = {
    "burst_failure.json": (
        "68b408c03f3606ed8be6ddbd38fde6f7d76ddb66dd4a983a5daf5aaceaf31d43",
        "5fb68944ce5979750a9fb32ae26e1f09425b7983b00ac1c1cc2ba139650e804b",
    ),
    "diamond_merge.json": (
        None,
        "ed93095b678103d3c98e55618293858240ca6faae4b82b4f0e411eb29d0c8e93",
    ),
    "fair_share.json": (
        "33a0b7c675c85d2828eabfde260c1c7bf7cdb2c3d61110be874003b5dc5cb0d7",
        "75e0e0c3f1ca0039f105ea5f5dce8852ef82ddfbdf116f458f40f6abb52f9769",
    ),
    "lam_sweep.json": (
        None,
        "8a976d2f651d27a857f20c23f5a230cafbfa0f71d9a3cfe140b6156bbe53927f",
    ),
    "llm_serving.json": (
        "1623e6069d0385c9fe4917db186eada13b0e167a1443f2d9a6ee3ec8af144bcb",
        "bb20a09d7902a027610dcabb721c7bd3bd743a058ed3c2794bea49a18125d2db",
    ),
    "rag_agentic.json": (
        None,
        "15ec5ffb606639c1b2c4017b4eae767d51038f46172b0fa6c922da9840357189",
    ),
    "shared_cluster.json": (
        "1d15f650eacb250fbd30b160a2935425279742433654ac996fc296f0cbd907cd",
        "1a01f56f674d40f8c94944716bd3084886a2456542f2edf3225905ea27f4d68d",
    ),
}

#: SweepSpec file -> fingerprint of each expanded member, in order.
SWEEP_MEMBERS = {
    "diamond_merge.json": [
        "c2490ee9f73ca668a4a7bcff15ee631f741c72a39ab9103b8e4a3a8e5ffdffb1",
        "329049ec5a92d6db610aebcf905168da5cfad634b767113213a70bfa509a3ae5",
        "f1b65da10644055d4b461a55e79954147712ce3b54b9a74ad195b4f4f1b092ec",
        "775c40fae842cd4c473946e8227004d59c275995d4a19f7f142f8f53d166b905",
    ],
    "lam_sweep.json": [
        "b88ae099f13b1d981b11dcf8ce0d26ad32d9fd4bf3d02a0b0835371a40cad6c5",
        "c87d2b5d2620134e0b9888c5ad0b1594b74d3ad9d7b5e95346b32c143f322171",
        "ddcb9c9738384d70cff73b749749c57440b8fc61d9304c50c7e91d21a6dd7c32",
    ],
    "rag_agentic.json": [
        "821c1886a199acc3889e7a1250a57e67a401d53e7bef1057c223717b39ded000",
        "fae56d4d08c5880994c125d987c034bb4f55b5c3359a88939a264bbe56d40e6c",
        "3563ef53742ba472a89ada37f4ab153e8d5590dd5ff7925eacc7cdc6ff25f77e",
        "1eee467086b272d152e70c58c828dadb8957b0556efc8af0434a95badec91a9d",
    ],
}

#: study file -> (sha256 of json.dumps(to_dict(), indent=2),
#: base fingerprint).
STUDY_FILES = {
    "capacity.json": (
        "2481efc1a7cc64ddf378f285019f84430c4cc4ccc40af0356a176837b61a4070",
        "1bde4180dd1939d6e0b6cc2cfdb0f07a4a71a7e835da579068a5fa42d6902dfd",
    ),
    "chaos.json": (
        "5496aef1a29de5635a5b9e104b82054a1e473dca93afc7e896e2c34c19064dd8",
        "41f9c3d81dc578ef85039f75349c6936bc1d8115c80f7c452738583b65f6607e",
    ),
    "interference.json": (
        "cfb92bc2f786cf53231ca90b80e89bc1331f1cc8f31380321cb121be83cdcbdd",
        "808b13112a5b0e618577c016f7901707a789065f07e4f387cdcfa2cb99dd08dd",
    ),
}

#: scenario file -> sweep.cell_fingerprint of every load_scenario_cells
#: cell, with the source digest and package version pinned (below).
CELL_FINGERPRINTS = {
    "burst_failure.json": [
        "8cabf9494bfd13a6931450666bb8dcd4ce583f6c88f08dadc03e953ec0c31919",
    ],
    "diamond_merge.json": [
        "72de8ce35f8da58534e69d05fb0b9b3eadac66438035309cfee50e8954395e1d",
        "a2cf8790ad45e33cee40be8368fcfd251e2ee62e7e6fa20d9b0abec6005a7398",
        "1202582019b43d8edea6e8fbf57452f440a221b62b47b6a8c342b6b09473063e",
        "7d426c4cf41c8841d0a069ffc1338bef85426f31ee212f370d2ff381fb38a83e",
    ],
    "fair_share.json": [
        "14cee24ada4d73b7503d6d4519c0f8fd709ab9da41923e57d0aded92808c04f3",
    ],
    "lam_sweep.json": [
        "03a70d91fddbbff507a7102a7d866bab100d8c7fd0522332f157049e86f3a6b1",
        "a621668cafe96ba920aee5baed5cbf630c394c043d76d914ea7a83ae38fe8e6e",
        "78ac5be29809d24555e06abe855d30afa51975acde71ed7870425f0a7a328210",
    ],
    "llm_serving.json": [
        "541c1ee0474edad5ae63d72def07ee35f48a2a825cf0c98be97341d7083ab147",
    ],
    "rag_agentic.json": [
        "15539605c5d5281b868ce00b342ad084d3d8268fb03bf3ffe39cc76851e5edf8",
        "31c7d7c88feaad22346a433ea6f5912a371ed296a27df330a0099df83d30b590",
        "64123923e3a7bc542800a7989bdb1aa9348ef1200781da03446cb8f172059943",
        "55073c4db895eb57cd3755df4eb028906f25c4229da07caaa4214aec2bfcab14",
    ],
    "shared_cluster.json": [
        "c975c01c713aca733094bee40aa590373a428a810109ab7c91480a511e149da7",
    ],
}

#: One spec touching every optional section: an inline DAG with plain and
#: LLM profiles, trace args and bursts, a parameterized policy, per-module
#: workers, scaling, all three fault kinds, goodput, a probabilistic
#: router and resilience with a partial retry group.
KITCHEN = {
    "name": "kitchen",
    "app": {
        "pipeline": "probe",
        "modules": [
            {"id": "m1", "model": "probe_plain", "subs": ["m2", "m3"]},
            {"id": "m2", "model": "probe_llm", "pres": ["m1"]},
            {"id": "m3", "model": "object_detection", "pres": ["m1"]},
        ],
        "slo": 2,
        "profiles": [
            {"name": "probe_plain", "base": 0.01, "per_item": 0.002,
             "max_batch": 16},
            {"kind": "llm", "name": "probe_llm", "max_batch": 4,
             "kv_capacity": 4096,
             "prompt_dist": {"kind": "uniform", "low": 8.0, "high": 32.0},
             "output_dist": {"kind": "lognormal", "mean": 16.0,
                             "sigma": 0.4},
             "preempt": True},
        ],
    },
    "trace": {"name": "tweet", "duration": 20, "seed": 3, "scale": 0.5,
              "args": {"burst_at": 5},
              "bursts": [{"start": 2, "length": 3, "factor": 2}]},
    "policy": {"name": "PARD", "params": {"lam": 1, "samples": 200}},
    "seed": 4,
    "workers": {"m1": 2, "m2": 1, "m3": 3},
    "provision_headroom": 1.2,
    "drain": 3,
    "scaling": {"enabled": True, "cold_start": 4, "max_workers": 8},
    "failures": [
        {"time": 5, "module_id": "m1", "workers": 1, "downtime": 2},
        {"time": 6, "module_id": "m3", "kind": "degrade", "factor": 3,
         "downtime": 2},
        {"time": 7, "module_id": "m1", "kind": "link", "dst": "m2",
         "downtime": 1},
    ],
    "goodput": {"ttft": 1.0, "e2e": 2.5},
    "router": {"kind": "probabilistic", "weights": {"m3": 2.0, "m2": 1.5},
               "seed": 9},
    "resilience": {
        "m3": {"hedge": 0.05},
        "m2": {"timeout": 0.4, "on_timeout": "drop",
               "retry": {"max": 2, "jitter": 0.01}, "fallback": "m3"},
    },
}

#: A shared cluster with both quota forms and a parameterized admission.
KITCHEN_MULTI = {
    "name": "kitchen-multi",
    "tenants": [
        {"scenario": {"name": "a", "app": {"name": "tm"},
                      "trace": {"name": "poisson", "duration": 10,
                                "base_rate": 40}},
         "quota": 2},
        {"weight": 2, "scenario": {"name": "b", "app": {"name": "lv"},
                                   "seed": 1},
         "quota": {"object_detection": 1}},
    ],
    "workers": 3,
    "failures": [{"time": 2, "module_id": "object_detection",
                  "kind": "degrade"}],
    "seed": 5,
    "admission": {"name": "weighted-fair", "params": {"slack": 2}},
}

KITCHEN_DIGESTS = {
    "scenario": (
        "dba3732c5460968db621ee49f1af7f57098cf5152f873dfa96be6095cc25088f",
        "c2f537e5ef4a8ec0321df5ed170a5a02e4328d5cd5bc848c4542a2bd33e6f9a3",
    ),
    "multi": (
        "c97235c448f0c04c62f436936d00b3998dace95cd0152469f51ad98b5bd35870",
        "f244e203085f94556ccfe0b267eaccc80070ebee127c94aac157b7fc513d2719",
    ),
}

GOODPUT_FINGERPRINT = (
    "a029d925ee5af8d634512f003dcea78e838f44019aca7e2f9bcac39c176e76b3"
)


def test_every_example_is_pinned():
    assert sorted(p.name for p in (EXAMPLES / "scenarios").glob("*.json")) \
        == sorted(SCENARIO_FILES)
    assert sorted(p.name for p in (EXAMPLES / "studies").glob("*.json")) \
        == sorted(STUDY_FILES)


@pytest.mark.parametrize("name", sorted(SCENARIO_FILES))
def test_scenario_file_identity(name):
    spec = load_scenario_file(EXAMPLES / "scenarios" / name)
    fingerprint, json_sha = SCENARIO_FILES[name]
    assert _sha(spec.to_json()) == json_sha
    if isinstance(spec, SweepSpec):
        members = [member.fingerprint() for member in spec.expand()]
        assert members == SWEEP_MEMBERS[name]
    else:
        assert spec.fingerprint() == fingerprint


@pytest.mark.parametrize("name", sorted(STUDY_FILES))
def test_study_file_identity(name):
    study = load_study_file(EXAMPLES / "studies" / name)
    body_sha, base_fingerprint = STUDY_FILES[name]
    assert _sha(json.dumps(study.to_dict(), indent=2)) == body_sha
    assert study.base.fingerprint() == base_fingerprint


@pytest.mark.parametrize("name", sorted(CELL_FINGERPRINTS))
def test_sweep_cell_fingerprints(name, monkeypatch):
    # The real cache key folds in a digest of every source file, so pin
    # it (and the version) to isolate the spec's own contribution.
    monkeypatch.setattr(sweep, "_source_digest", lambda: "0" * 64)
    monkeypatch.setattr(repro, "__version__", "0.0.0-pinned")
    cells = sweep.load_scenario_cells(EXAMPLES / "scenarios" / name)
    assert [sweep.cell_fingerprint(c) for c in cells] \
        == CELL_FINGERPRINTS[name]


@pytest.mark.parametrize(
    "cls, body, key",
    [(Scenario, KITCHEN, "scenario"), (MultiScenario, KITCHEN_MULTI, "multi")],
)
def test_kitchen_sink_identity(cls, body, key):
    spec = cls.from_dict(body)
    fingerprint, json_sha = KITCHEN_DIGESTS[key]
    assert spec.fingerprint() == fingerprint
    assert _sha(spec.to_json()) == json_sha


def test_int_goodput_fingerprints_like_float():
    as_int = Scenario.from_dict({"app": {"name": "tm"},
                                 "goodput": {"ttft": 1}})
    as_float = Scenario.from_dict({"app": {"name": "tm"},
                                   "goodput": {"ttft": 1.0}})
    assert as_int.fingerprint() == as_float.fingerprint() \
        == GOODPUT_FINGERPRINT
