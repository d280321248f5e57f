"""Property tests for run_key canonicalization.

The two contracts every run key stands on:

* representation never matters — dict key order, tuple-vs-list,
  explicit-default-vs-omitted all hash identically;
* semantics always matter — any effective field change changes the key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.scenarios.spec import (
    CANON_SCHEME,
    ScenarioSpec,
    canonical_json,
    canonical_spec,
    compute_run_key,
)

VERSION = "1.1.0"

knob_names = st.sampled_from(["n_plans", "depth", "tenants", "payload", "mode"])
knob_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.lists(st.integers(min_value=0, max_value=99), max_size=4),
)
workloads = st.dictionaries(knob_names, knob_values, max_size=5)


def spec_with(workload, **kwargs):
    defaults = {"scenario_id": "PX1", "title": "prop", "runner": "experiment_prop",
                "root_seed": "exp/px1"}
    defaults.update(kwargs)
    return ScenarioSpec(workload=workload, **defaults)


# -- representation never matters ---------------------------------------------


@settings(max_examples=60)
@given(workloads, st.randoms())
def test_dict_key_order_never_changes_the_key(workload, rnd):
    items = list(workload.items())
    rnd.shuffle(items)
    shuffled = dict(items)
    assert compute_run_key(spec_with(workload), version=VERSION) == \
        compute_run_key(spec_with(shuffled), version=VERSION)


@settings(max_examples=60)
@given(workloads)
def test_explicit_default_equals_omitted(defaults_workload):
    # Spelling a knob out with the runner's own default value must hash
    # identically to omitting it entirely.
    explicit = compute_run_key(spec_with(dict(defaults_workload)),
                               defaults=defaults_workload, version=VERSION)
    omitted = compute_run_key(spec_with({}), defaults=defaults_workload,
                              version=VERSION)
    assert explicit == omitted


def test_tuple_and_list_knobs_hash_identically():
    assert compute_run_key(spec_with({"counts": (1, 10, 100)}), version=VERSION) == \
        compute_run_key(spec_with({"counts": [1, 10, 100]}), version=VERSION)


def test_bytes_and_latin1_text_knobs_hash_identically():
    assert compute_run_key(spec_with({"tag": b"exp/x"}), version=VERSION) == \
        compute_run_key(spec_with({"tag": "exp/x"}), version=VERSION)


def test_title_is_cosmetic():
    a = spec_with({}, title="one title")
    b = spec_with({}, title="a different title")
    assert compute_run_key(a, version=VERSION) == compute_run_key(b, version=VERSION)
    assert "title" not in canonical_spec(a)


# -- semantics always matter --------------------------------------------------


@settings(max_examples=60)
@given(workloads, knob_names, knob_values)
def test_changing_any_effective_knob_changes_the_key(workload, name, new_value):
    changed = dict(workload)
    changed[name] = new_value
    base_key = compute_run_key(spec_with(workload), version=VERSION)
    changed_key = compute_run_key(spec_with(changed), version=VERSION)
    # Canonical forms agree exactly when the knob change was a no-op
    # (same value, or a representation-equivalent one).  Compare the
    # hashed JSON blobs, not the dicts — Python's True == 1 would call
    # semantically distinct specs equal.
    same = canonical_json(canonical_spec(spec_with(workload))) == \
        canonical_json(canonical_spec(spec_with(changed)))
    assert (base_key == changed_key) == same


@pytest.mark.parametrize("change", [
    {"root_seed": "exp/other"},
    {"runner": "experiment_other"},
    {"repetitions": 2},
    {"scenario_id": "FC2"},
    {"workload": {"n_plans": 51}},
])
def test_semantic_field_changes_change_the_key(change):
    base = spec_with({"n_plans": 50})
    derived = base.with_overrides(**change)
    assert compute_run_key(base, version=VERSION) != \
        compute_run_key(derived, version=VERSION)


def test_code_version_is_hashed():
    spec = spec_with({})
    assert compute_run_key(spec, version="1.0.0") != \
        compute_run_key(spec, version="1.1.0")


def test_default_version_is_the_package_version():
    import repro

    spec = spec_with({})
    assert compute_run_key(spec) == compute_run_key(spec, version=repro.__version__)


# -- canonical serialization and validation -----------------------------------


def test_canonical_json_is_sorted_and_tight():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_canonicalization_rejects_lossy_values():
    with pytest.raises(ReproError):
        compute_run_key(spec_with({"bad": object()}), version=VERSION)


def test_spec_validation():
    with pytest.raises(ReproError):
        spec_with({}, scenario_id="")
    with pytest.raises(ReproError):
        spec_with({}, runner="")
    with pytest.raises(ReproError):
        spec_with({}, repetitions=0)


def test_canon_scheme_is_versioned():
    assert CANON_SCHEME == "repro.scenarios.run_key/v3"
