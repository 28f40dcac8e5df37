"""Property: every valid scenario dict round-trips through the codec.

Hypothesis draws single-cluster and shared-cluster scenario files with
named and inline (plain and LLM profile) apps, bursts, all three fault
kinds, resilience hops, routers, goodput constraints and tenant quotas,
authored with ints where floats are declared.  Parsing, serializing and
re-parsing must give an equal spec, the fingerprint must survive a JSON
round-trip, and ``to_json()`` must be byte-stable.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import MultiScenario, Scenario
from repro.pipeline.applications import get_application

NAMED_APPS = ("tm", "lv", "da")
MODELS = ("object_detection", "face_recognition", "text_recognition")


def number(lo: float, hi: float):
    """A JSON number in ``(lo, hi]``: whole numbers are written as ints
    (as authors write them) when the range holds any."""
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                       exclude_min=True)
    if int(lo) + 1 > int(hi):
        return floats
    return st.one_of(st.integers(int(lo) + 1, int(hi)), floats)


def maybe(strategy):
    return st.one_of(st.none(), strategy)


token_dists = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "mean": number(1, 256)}),
    st.fixed_dictionaries({"kind": st.just("lognormal"),
                           "mean": number(1, 256),
                           "sigma": number(0.1, 1)}),
    st.integers(1, 64).map(
        lambda low: {"kind": "uniform", "low": low, "high": low + 32}
    ),
)

plain_profile = st.fixed_dictionaries(
    {"base": number(0.001, 0.05), "per_item": number(0.001, 0.01)},
    optional={"max_batch": st.integers(1, 64)},
)

llm_profile = st.fixed_dictionaries(
    {"kind": st.just("llm")},
    optional={
        "max_batch": st.integers(1, 16),
        "kv_capacity": st.integers(512, 16384),
        "decode_base": number(0.001, 0.01),
        "prompt_dist": token_dists,
        "output_dist": token_dists,
        "preempt": st.booleans(),
    },
)


@st.composite
def apps(draw):
    """(app dict, module ids, successor map)."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(NAMED_APPS))
        spec = get_application(name).spec
        app = {"name": name}
        if draw(st.booleans()):
            app["slo"] = draw(number(0.1, 2))
        return app, list(spec.module_ids), {
            m.id: list(m.subs) for m in spec.modules
        }
    n = draw(st.integers(1, 3))
    extras = draw(st.lists(st.one_of(plain_profile, llm_profile),
                           max_size=n))
    models = [draw(st.sampled_from(MODELS)) for _ in range(n)]
    profiles = []
    for i, profile in enumerate(extras):
        models[i] = f"probe_{i}"
        profiles.append({"name": models[i], **profile})
    ids = [f"m{i + 1}" for i in range(n)]
    app = {"pipeline": draw(st.sampled_from(["custom", "probe"])),
           "slo": draw(number(0.1, 5)), "profiles": profiles}
    if draw(st.booleans()):
        app["chain"] = models
    else:
        app["modules"] = [
            {"id": ids[i], "model": models[i],
             "pres": ids[i - 1:i], "subs": ids[i + 1:i + 2]}
            for i in range(n)
        ]
    return app, ids, {mid: ids[i + 1:i + 2] for i, mid in enumerate(ids)}


@st.composite
def traces(draw):
    duration = draw(st.integers(5, 60))
    bursts = draw(st.lists(
        st.fixed_dictionaries(
            {"start": st.integers(0, duration - 1),
             "length": number(0.5, 5), "factor": number(0.5, 4)},
            optional={"seed": st.integers(0, 9)},
        ),
        max_size=2,
    ))
    trace = {"name": draw(st.sampled_from(["tweet", "poisson", "wiki"])),
             "duration": duration, "bursts": bursts}
    for key, strategy in (("base_rate", maybe(number(1, 200))),
                          ("seed", maybe(st.integers(0, 99))),
                          ("scale", number(0.1, 1)),
                          ("stream", st.booleans())):
        if draw(st.booleans()):
            trace[key] = draw(strategy)
    return trace


policies = st.one_of(
    st.sampled_from(["PARD", "Naive", "Nexus"]),
    st.fixed_dictionaries({"name": st.just("PARD"),
                           "params": st.fixed_dictionaries(
                               {}, optional={"lam": number(0.01, 1),
                                             "samples": st.integers(10, 500)}
                           )}),
)

goodputs = st.fixed_dictionaries(
    {}, optional={"ttft": maybe(number(0.01, 2)),
                  "tpot": maybe(number(0.001, 0.1)),
                  "e2e": maybe(number(0.1, 10))},
)

scalings = st.fixed_dictionaries(
    {}, optional={"enabled": st.booleans(), "cold_start": number(0, 10),
                  "max_workers": st.integers(16, 32),
                  "graceful_scale_in": st.booleans()},
)


@st.composite
def failures(draw, targets, successors, duration, link=True):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        mid = draw(st.sampled_from(targets))
        kinds = ["kill", "degrade"]
        if link and successors.get(mid):
            kinds.append("link")
        kind = draw(st.sampled_from(kinds))
        event = {"time": draw(st.integers(0, duration - 1)),
                 "module_id": mid, "downtime": draw(number(0.1, 5))}
        if kind == "degrade":
            event.update(kind=kind, factor=draw(number(1.1, 4)))
        elif kind == "link":
            event.update(kind=kind,
                         dst=draw(st.sampled_from(successors[mid])))
        elif draw(st.booleans()):
            event["workers"] = draw(st.integers(1, 3))
        events.append(event)
    return events


@st.composite
def hops(draw, ids):
    hop = {}
    if draw(st.booleans()):
        hop["timeout"] = draw(number(0.05, 1))
        hop["on_timeout"] = draw(st.sampled_from(["retry", "drop"]))
        hop["retry"] = draw(st.fixed_dictionaries(
            {}, optional={"max": st.integers(0, 3),
                          "base": number(0.01, 0.1),
                          "jitter": number(0, 0.05)},
        ))
        if draw(st.booleans()):
            hop["fallback"] = draw(st.sampled_from(ids))
    if not hop or draw(st.booleans()):
        hop["hedge"] = draw(number(0.01, 0.5))
    return hop


@st.composite
def scenarios(draw):
    app, ids, successors = draw(apps())
    trace = draw(traces())
    body = {"app": app, "trace": trace, "policy": draw(policies),
            "seed": draw(st.integers(0, 9)), "scaling": draw(scalings),
            "drain": draw(number(0, 10)),
            "failures": draw(failures(ids, successors, trace["duration"])),
            "name": draw(st.sampled_from(["", "probe"]))}
    workers = draw(st.one_of(
        st.none(), st.integers(1, 4),
        st.fixed_dictionaries({mid: st.integers(1, 4) for mid in ids}),
    ))
    if workers is not None:
        body["workers"] = workers
    if draw(st.booleans()):
        body["goodput"] = draw(goodputs)
    if draw(st.booleans()):
        body["router"] = {
            "kind": "probabilistic", "seed": draw(maybe(st.integers(0, 9))),
            "weights": draw(st.dictionaries(st.sampled_from(ids),
                                            number(0.1, 3))),
        }
    resilient = draw(st.lists(st.sampled_from(ids), unique=True,
                              max_size=2))
    if resilient:
        body["resilience"] = {mid: draw(hops(ids)) for mid in resilient}
    return body


@st.composite
def multi_scenarios(draw):
    names = draw(st.lists(st.sampled_from(NAMED_APPS), min_size=1,
                          max_size=3, unique=True))
    pools = sorted({m.model for name in names
                    for m in get_application(name).spec.modules})
    tenants = []
    for name in names:
        tenant = {"scenario": {"name": f"t-{name}", "app": {"name": name},
                               "trace": draw(traces()),
                               "policy": draw(policies)}}
        if draw(st.booleans()):
            tenant["weight"] = draw(number(0.1, 3))
        quota = draw(st.one_of(
            st.none(), st.integers(1, 3),
            st.dictionaries(st.sampled_from(pools), st.integers(1, 3),
                            min_size=1),
        ))
        if quota is not None:
            tenant["quota"] = quota
        tenants.append(tenant)
    duration = min(t["scenario"]["trace"]["duration"] for t in tenants)
    body = {"tenants": tenants, "seed": draw(st.integers(0, 9)),
            "workers": draw(maybe(st.integers(1, 4))),
            "failures": draw(failures(pools, {}, duration, link=False)),
            "scaling": draw(scalings)}
    if draw(st.booleans()):
        body["admission"] = {"name": "weighted-fair",
                             "params": {"slack": draw(number(1, 4))}}
    return body


def check_round_trip(cls, body: dict) -> None:
    spec = cls.from_dict(json.loads(json.dumps(body)))
    again = cls.from_dict(spec.to_dict())
    assert again == spec
    text = spec.to_json()
    assert again.to_json() == text
    assert cls.from_json(text).fingerprint() == spec.fingerprint()


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_scenario_round_trip(body):
    check_round_trip(Scenario, body)


@settings(max_examples=75, deadline=None)
@given(multi_scenarios())
def test_multi_scenario_round_trip(body):
    check_round_trip(MultiScenario, body)
