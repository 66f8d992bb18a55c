"""Instance schema: parsing, located errors, generators, roundtrip."""
import json

import numpy as np
import pytest

from regkit.instances import (FORMAT_VERSION, InstanceError, generate_instance,
                              load_instance, parse_instance, save_instance)


def test_version_required():
    with pytest.raises(InstanceError, match="/version"):
        parse_instance({})
    with pytest.raises(InstanceError, match="/version"):
        parse_instance({"version": 99})


def test_space_errors_are_located():
    with pytest.raises(InstanceError, match="/X/points"):
        parse_instance({"version": 1, "X": {"metric": "euclidean"}})
    with pytest.raises(InstanceError, match="/X/dmatrix"):
        parse_instance({"version": 1, "X": {"metric": "matrix"}})
    bad = {"version": 1, "X": {"metric": "matrix",
                               "dmatrix": [[0.0, 1.0], [2.0, 0.0]]}}
    with pytest.raises(InstanceError, match="/X"):
        parse_instance(bad)


def test_map_requires_spaces_and_ladder():
    with pytest.raises(InstanceError, match="/map"):
        parse_instance({"version": 1, "map": {"plain_graph": [[0, 0]]}})
    base = {"version": 1,
            "X": {"metric": "euclidean", "points": [0.0, 1.0]},
            "Y": {"metric": "euclidean", "points": [0.0]}}
    with pytest.raises(InstanceError, match="/map/ladder"):
        parse_instance({**base, "map": {"graph": [[0, 0, 0]]}})
    with pytest.raises(InstanceError, match="/map/ladder"):
        parse_instance({**base, "map": {"graph": [[0, 0, 0]],
                                        "ladder": [1.0, 0.5]}})
    with pytest.raises(InstanceError, match="/map/graph"):
        parse_instance({**base, "map": {"graph": [[7, 0, 0]],
                                        "ladder": [0.0, 1.0]}})


def test_modulus_errors_are_located():
    base = {"version": 1}
    with pytest.raises(InstanceError, match="/mu/kind"):
        parse_instance({**base, "mu": {"kind": "exotic"}})
    with pytest.raises(InstanceError, match="/mu"):
        parse_instance({**base, "mu": {"kind": "linear"}})


def test_evp_errors_are_located():
    with pytest.raises(InstanceError, match="/evp"):
        parse_instance({"version": 1,
                        "evp": {"f": [0.0], "epsilon": 1.0,
                                "lambda": 1.0, "x0": 0}})
    raw = {"version": 1,
           "X": {"metric": "euclidean", "points": [0.0, 1.0]},
           "evp": {"f": [0.0, 5.0], "epsilon": 1.0, "lambda": 1.0, "x0": 1}}
    with pytest.raises(InstanceError, match="/evp"):
        parse_instance(raw)


def test_poly_errors_are_located():
    raw = {"version": 1, "poly": {"n": 2}}
    with pytest.raises(InstanceError, match="/poly"):
        parse_instance(raw)


def test_policy_override_is_validated():
    with pytest.raises(InstanceError, match="/policy"):
        parse_instance({"version": 1, "policy": {"no_such_field": 1}})


@pytest.mark.parametrize("name,value,ok", [
    ("tol_strict", 0, True), ("tol_strict", 1e-9, True), ("tol_strict", True, False),
    ("horizon", 8, True), ("horizon", True, False), ("horizon", 8.0, False),
    ("seed", 1.5, False), ("validate", True, True), ("validate", 1, False),
    ("triangle_tol", None, False)])
def test_policy_fields_keep_their_default_types(name, value, ok):
    raw = {"version": 1, "policy": {name: value}}
    if ok:
        assert getattr(parse_instance(raw).policy, name) == value
    else:
        with pytest.raises(InstanceError, match=f"^/policy/{name}: "):
            parse_instance(raw)


def test_none_in_evp_f_means_infinite():
    raw = {"version": 1,
           "X": {"metric": "euclidean", "points": [0.0, 1.0]},
           "evp": {"f": [0.0, None], "epsilon": 1.0, "lambda": 1.0, "x0": 0}}
    inst = parse_instance(raw)
    assert np.isinf(inst.evp.f[1])


def test_generator_kind_and_size_caps():
    with pytest.raises(InstanceError, match="/kind"):
        generate_instance("no-such-kind", 5, 0)
    with pytest.raises(InstanceError, match="/size"):
        generate_instance("polyhedral-opt", 99, 0)


@pytest.mark.parametrize("kind,size", [("plain-lipschitz", 20),
                                       ("param-monotone", 15),
                                       ("evp", 50),
                                       ("polyhedral-opt", 3)])
def test_generated_instances_parse(kind, size):
    for seed in range(3):
        raw = generate_instance(kind, size, seed)
        inst = parse_instance(raw)
        assert inst.kind == kind
        assert inst.policy.seed == seed


def test_roundtrip_through_file(tmp_path):
    raw = generate_instance("plain-lipschitz", 10, 7)
    path = tmp_path / "inst.json"
    save_instance(raw, str(path))
    inst = load_instance(str(path))
    assert inst.raw == json.loads(path.read_text())
    assert inst.plain is not None and inst.mu is not None
    # saved files are canonical: a second save is byte-identical
    path2 = tmp_path / "inst2.json"
    save_instance(json.loads(path.read_text()), str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_missing_file():
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance("/no/such/file.json")


def test_plain_graph_with_ladder_builds_embedding():
    raw = {"version": 1,
           "X": {"metric": "euclidean", "points": [0.0, 1.0]},
           "Y": {"metric": "euclidean", "points": [0.0, 2.0]},
           "map": {"plain_graph": [[0, 0], [1, 1]],
                   "ladder": [0.0, 1.0, 2.0, 3.0]}}
    inst = parse_instance(raw)
    assert inst.param is not None
    assert set(inst.param.fibre(0, 0).tolist()) == {0}
