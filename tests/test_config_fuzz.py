"""Property test of the config loader: one field of a valid config replaced
by an arbitrary JSON value loads or fails with a ValueError naming the field,
and what loads survives a JSON round trip with the same hash."""

import copy
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qlre.scenarios import ScenarioConfig, config_from_dict, config_hash, config_to_dict

BASES = (
    {
        "name": "fuzz",
        "domains": [
            {"population": 1, "initial": "excited"},
            {"population": 2, "initial": {"dicke": 1}},
            {"population": 1, "initial": "ground"},
        ],
        "reservoirs": [{"domains": [0, 1], "rate": 1.0}, {"domains": [1, 2], "rate": 0.5}],
        "nbar": 0.1,
        "include_individual": False,
        "gamma_dep_over_gamma": 0.0,
        "backend": "auto",
        "mixed_basis": "full",
        "t_max": 2.0,
        "sample_dt": 0.5,
        "observables": ["E_F(A,C)", "Jz_B"],
    },
    {
        "name": "fuzz_T",
        "domains": [
            {"population": 2, "initial": {"mixed": {"a": 0.6, "b": 0.1}}},
            {"population": 1},
        ],
        "reservoirs": [{"domains": [0, 1]}],
        "temperature": {"T_kelvin": 0.01, "omega0_over_2pi_hz": 5e9},
    },
)


def field_paths(value, path=()):
    """Every field of a JSON value, containers included, as key/index paths."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from field_paths(child, path + (key,))


def field_name(path):
    """The loader's spelling of a field: domains[1].initial.dicke."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def top_key(name):
    return re.match(r"[A-Za-z_0-9]*", name).group()


FIELDS = [(base, path) for base in BASES for path in field_paths(base)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)


def test_bases_load():
    for base in BASES:
        assert isinstance(config_from_dict(copy.deepcopy(base)), ScenarioConfig)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(FIELDS), JSON_VALUES)
# a population whose 2**N overflows a float, next to a mixed initial
@example(field=(BASES[1], ("domains", 0, "population")), value=2**40)
@example(field=(BASES[1], ("domains", 0, "population")), value=1100)
def test_one_replaced_field_loads_or_is_named(field, value):
    base, path = field
    data = json.loads(json.dumps(base))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    name = field_name(path)
    try:
        cfg = config_from_dict(data)
    except ValueError as exc:
        message = str(exc)
        named = message.split(": ", 1)[0]
        # the error names the field, another field of the same entry, or a
        # field it was checked against (t_max for sample_dt)
        assert top_key(named) == top_key(name) or top_key(name) in message, (name, message)
    else:
        assert isinstance(cfg, ScenarioConfig)
        # what loads is stored normalized: it writes out and reloads as itself
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg and config_hash(again) == config_hash(cfg), name
