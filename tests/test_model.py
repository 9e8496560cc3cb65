"""Model loading, validation diagnostics, and serializer round-trip."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos
from mmarch.errors import ModelValidationError
from mmarch.model import dumps_model, load_model, model_to_dict, parse_model
from mmarch.runtime import Session, run


def base_doc():
    return {
        "name": "test-model",
        "codebook": {"dimension": 64, "seed": 1},
        "buffers": [
            {"name": "goal", "owner": "central"},
            {"name": "emotion", "owner": "emotion"},
            {"name": "vision", "owner": "vision"},
        ],
        "shadow_systems": [
            {"name": "emotion", "buffer": "emotion", "subscriptions": ["emotion"],
             "productions": [
                {"name": "alarm",
                 "conditions": [{"mm_tags": ["emotion"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "emotion",
                              "chunk": {"isa": "threat", "slots": {"cause": "?value"}},
                              "urgent": True}]}]},
            {"name": "vision", "buffer": "vision", "subscriptions": ["vision"],
             "productions": []},
        ],
        "central_productions": [
            {"name": "react",
             "conditions": [{"buffer": "emotion",
                             "pattern": {"isa": "threat", "slots": {"cause": "?"}}}],
             "actions": [{"kind": "write-buffer", "target": "goal",
                          "chunk": {"isa": "goal", "slots": {"state": "flee"}}}]},
        ],
        "predictors": [
            {"name": "scene", "kind": "associative", "tag": "emotion",
             "pairs": [["campsite", "bear", 3]]},
        ],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "idle"}}},
        ],
        "initial_mm": [
            {"tag": "emotion", "chunk": {"isa": "percept", "slots": {"value": "calm"}},
             "presentations": [-1.0]},
        ],
    }


def _violations(doc):
    with pytest.raises(ModelValidationError) as err:
        parse_model(doc)
    return err.value.violations


def test_valid_model_parses_with_defaults():
    model = parse_model(base_doc())
    assert model.wm_capacity == 8
    assert model.cycle_length_ms == 50
    assert model.middle_memory.decay == 0.5
    assert model.learning.rate == 0.2
    assert model.codebook.cleanup_threshold == 0.2


def test_foreign_shadow_write_rejected_with_path():
    doc = base_doc()
    doc["shadow_systems"][0]["productions"][0]["actions"][0]["target"] = "vision"
    violations = _violations(doc)
    paths = [p for p, _ in violations]
    assert "shadow_systems[0].productions[0].actions[0].target" in paths
    message = dict(violations)["shadow_systems[0].productions[0].actions[0].target"]
    assert "may write only its own buffer" in message


def test_duplicate_production_names_rejected():
    doc = base_doc()
    doc["central_productions"].append(dict(doc["central_productions"][0]))
    violations = _violations(doc)
    assert any("duplicate production" in msg for _, msg in violations)


def test_central_production_with_mm_condition_rejected():
    doc = base_doc()
    doc["central_productions"][0]["conditions"].append(
        {"mm_tags": ["emotion"], "pattern": None})
    violations = _violations(doc)
    assert any("working memory only" in msg for _, msg in violations)


def test_unresolved_binding_reference_rejected():
    doc = base_doc()
    doc["central_productions"][0]["actions"][0]["chunk"]["slots"]["state"] = "?nothing"
    violations = _violations(doc)
    assert any("?nothing" in msg for _, msg in violations)


def test_negated_condition_cannot_supply_bindings():
    doc = base_doc()
    doc["central_productions"][0]["conditions"][0]["negated"] = True
    doc["central_productions"][0]["actions"][0]["chunk"]["slots"]["state"] = "?cause"
    violations = _violations(doc)
    assert any("?cause" in msg for _, msg in violations)


def test_subscription_mismatch_rejected():
    doc = base_doc()
    doc["shadow_systems"][0]["productions"][0]["conditions"][0]["mm_tags"] = ["vision"]
    violations = _violations(doc)
    assert any("subscriptions" in msg for _, msg in violations)


def test_empty_mm_tags_rejected():
    doc = base_doc()
    doc["shadow_systems"][0]["productions"][0]["conditions"][0]["mm_tags"] = []
    assert _violations(doc) == [("shadow_systems[0].productions[0].conditions[0].mm_tags",
                                 "mm_tags must name at least one tag")]


def test_system_must_own_exactly_one_declared_buffer():
    doc = base_doc()
    doc["buffers"][1]["owner"] = "central"
    violations = _violations(doc)
    assert any("must own exactly one declared buffer" in msg
               for _, msg in violations)


def test_non_string_shadow_buffer_reported_once():
    doc = json.loads(demos.path("threat").read_text())
    doc["shadow_systems"][0]["buffer"] = 5
    assert _violations(doc) == [("shadow_systems[0].buffer", "unknown buffer 5")]


def test_missing_shadow_buffer_reported_once():
    doc = base_doc()
    del doc["shadow_systems"][0]["buffer"]
    violations = _violations(doc)
    assert [p for p, _ in violations] == ["shadow_systems[0].buffer"]
    assert "must own exactly one declared buffer" in violations[0][1]


def test_unknown_buffer_in_condition_rejected():
    doc = base_doc()
    doc["central_productions"][0]["conditions"][0]["buffer"] = "nonesuch"
    violations = _violations(doc)
    assert any("unknown buffer" in msg for _, msg in violations)


def test_duplicate_predictor_tags_rejected():
    doc = base_doc()
    doc["predictors"].append({"name": "scene2", "kind": "associative",
                              "tag": "emotion", "pairs": [["a", "b"]]})
    violations = _violations(doc)
    assert any("duplicate origin tag" in msg for _, msg in violations)


def test_emit_slot_may_not_be_the_type_slot():
    """The predictor's chunks would carry the reserved slot and fail mid-run."""
    doc = base_doc()
    doc["predictors"][0]["emit_slot"] = "isa"
    assert _violations(doc) == [("predictors[0].emit_slot",
                                 "slot name 'isa' is reserved for the chunk type")]


def test_threshold_ordering_enforced():
    doc = base_doc()
    doc["middle_memory"] = {"retrieval_threshold": -2.0, "forget_threshold": -1.0}
    violations = _violations(doc)
    assert any("forgetting threshold" in msg for _, msg in violations)


def test_capacity_must_cover_buffers():
    doc = base_doc()
    doc["wm_capacity"] = 2
    violations = _violations(doc)
    assert any("exceed capacity" in msg for _, msg in violations)


def test_initial_mm_presentation_rules():
    doc = base_doc()
    doc["initial_mm"][0]["presentations"] = [0.5]
    assert any("before time 0" in msg for _, msg in _violations(doc))
    doc = base_doc()
    doc["initial_mm"][0]["presentations"] = [-1.0, -2.0]
    assert any("sorted ascending" in msg for _, msg in _violations(doc))


def test_unknown_keys_rejected():
    doc = base_doc()
    doc["mystery"] = 1
    assert any(path == ".mystery" for path, _ in _violations(doc))


def _append_copy(key, index=0):
    return lambda d: d[key].append(copy.deepcopy(d[key][index]))


@pytest.mark.parametrize("mutate, mode, violation", [
    (lambda d: d["buffers"].append({"name": "goal", "owner": "central"}), "mm",
     ("buffers[3].name", "duplicate buffer 'goal'")),
    (lambda d: d["shadow_systems"][1].update(name="central"), "mm",
     ("shadow_systems[1].name", "'central' is reserved")),
    (_append_copy("shadow_systems", 1), "mm",
     ("shadow_systems[2].name", "duplicate system 'vision'")),
    (lambda d: d["shadow_systems"][0]["productions"].append(
        copy.deepcopy(d["shadow_systems"][0]["productions"][0])), "mm",
     ("shadow_systems[0].productions[1].name", "duplicate production 'alarm'")),
    (lambda d: d["shadow_systems"][0]["productions"][0].update(name="retrieve-12"), "mm",
     ("shadow_systems[0].productions[0].name",
      "'retrieve-12' is reserved for formed productions")),
    (lambda d: d["predictors"].append({"name": "scene", "kind": "associative",
                                       "tag": "vision", "pairs": [["a", "b"]]}), "mm",
     ("predictors[1].name", "duplicate predictor 'scene'")),
    (_append_copy("initial_wm"), "mm",
     ("initial_wm[1].buffer", "buffer 'goal' initialized twice")),
    (_append_copy("initial_mm"), "mm",
     ("initial_mm[1]", "duplicate (tag, content) entry")),
    (lambda d: d["initial_mm"][0].update(links=[0]), "mm",
     ("initial_mm[0].links[0]", "self-links are not allowed")),
    (lambda d: d["central_productions"][0]["actions"].append(
        {"kind": "halt", "urgent": True}), "mm",
     ("central_productions[0].actions[1]", "only write-buffer actions can be urgent")),
    (lambda d: d["predictors"][0].update(kind="ngram", pairs=[]), "mm",
     ("predictors[0].corpus", "ngram predictor needs a corpus")),
    (lambda d: d["predictors"][0].update(kind="external", pairs=[], host="localhost"),
     "mm", ("predictors[0]", "external predictor needs command or host+port")),
    (lambda d: d["predictors"][0].update(pairs=[["campsite", "bear", 0]]), "mm",
     ("predictors[0].pairs[0]", "pair weight must be a positive integer")),
    (lambda d: None, "dream",
     ("mode", "mode must be 'mm' or 'pipeline', got 'dream'")),
])
def test_model_rule_reported_with_path(mutate, mode, violation):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ModelValidationError) as err:
        run(parse_model(doc), 1, mode=mode)
    assert violation in err.value.violations


def test_all_violations_reported_together():
    doc = base_doc()
    doc["shadow_systems"][0]["productions"][0]["actions"][0]["target"] = "vision"
    doc["wm_capacity"] = 1
    doc["predictors"][0]["rate"] = -1
    assert len(_violations(doc)) >= 3


def test_round_trip_law(tmp_path):
    model = parse_model(base_doc())
    path = tmp_path / "model.json"
    path.write_text(dumps_model(model))
    assert load_model(path) == model


def test_canonical_dict_reparses_equal():
    model = parse_model(base_doc())
    assert parse_model(model_to_dict(model)) == model


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelValidationError):
        load_model(path)


def test_shadow_reward_or_halt_rejected():
    doc = base_doc()
    doc["shadow_systems"][0]["productions"][0]["actions"].append(
        {"kind": "emit-reward", "amount": 1.0})
    violations = _violations(doc)
    assert any("central" in msg for _, msg in violations)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.update(middle_memory={"decay": "fast"}), "middle_memory.decay"),
    (lambda d: d.update(middle_memory={"decay": None}), "middle_memory.decay"),
    (lambda d: d["central_productions"][0].update(conditions=5),
     "central_productions[0].conditions"),
    (lambda d: d.update(buffers=5), "buffers"),
    (lambda d: d["initial_wm"][0].update(buffer=["goal"]), "initial_wm[0].buffer"),
    (lambda d: d["central_productions"][0]["conditions"][0].update(negated="false"),
     "central_productions[0].conditions[0].negated"),
    (lambda d: d["codebook"].update(cleanup_threshold="0.2"), "codebook.cleanup_threshold"),
    (lambda d: d["predictors"][0].update(seed="1"), "predictors[0].seed"),
    (lambda d: d["predictors"][0].update(port="80"), "predictors[0].port"),
    (lambda d: d.update(learning={"rate": True}), "learning.rate"),
])
def test_wrong_types_reported_with_path(mutate, path):
    doc = base_doc()
    mutate(doc)
    assert path in [p for p, _ in _violations(doc)]


def test_an_integer_too_large_for_a_float_rejected(tmp_path):
    """JSON reads ``1`` followed by 400 zeros as an int that no float holds."""
    text = json.dumps(base_doc())[:-1] + ', "middle_memory": {"decay": 1' + "0" * 400 + "}}"
    path = tmp_path / "huge.json"
    path.write_text(text)
    with pytest.raises(ModelValidationError) as err:
        load_model(path)
    assert ("middle_memory.decay", "decay must be positive") in err.value.violations


def test_ints_accepted_where_floats_expected():
    doc = base_doc()
    doc["middle_memory"] = {"decay": 1, "noise": 0}
    doc["central_productions"][0]["utility"] = 3
    model = parse_model(doc)
    assert model.middle_memory.decay == 1.0
    assert parse_model(model_to_dict(model)) == model


_DEMO_DOCS = [json.loads(demos.path(name).read_text()) for name in demos.names()]

_SYMBOLS = st.sampled_from(["goal", "emotion", "central", "percept", "?", "?value",
                            "ngram", "external", "write-buffer", "halt", "", "a b"])
_KEYS = st.sampled_from(["name", "buffer", "mm_tags", "pattern", "negated", "kind",
                         "target", "chunk", "query", "amount", "urgent", "isa",
                         "slots", "tag", "pairs", "corpus", "presentations", "links"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _SYMBOLS | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def _value_paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _value_paths(child, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_single_value_mutation_parses_or_reports(data):
    doc = data.draw(st.sampled_from(_DEMO_DOCS), label="demo")
    path = data.draw(st.sampled_from(list(_value_paths(doc))), label="path")
    mutated = _replace(doc, path, data.draw(_JSON, label="value"))
    try:
        model = parse_model(mutated)
    except ModelValidationError:
        return
    assert parse_model(model_to_dict(model)) == model
    # What loads also runs: the model's chunks, patterns and templates are
    # built by the same grammar that accepted them.
    if all(p.kind != "external" for p in model.predictors):
        Session(model, mode="mm", seed=0)
