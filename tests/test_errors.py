"""The JSON decoder: every field of every decoded dataclass refuses a value
of the wrong type, naming the key and the expected type."""

import dataclasses
import re
import typing

import pytest

import relaymatch as rm
from relaymatch.errors import ConfigurationError
from relaymatch.radio import topology_from_dict, topology_to_dict


def config_doc():
    return {"topology": {"path_loss": {}}, "solvers": [{}]}


def topology_doc():
    topology = rm.generate_topology(rm.TopologyParams(num_sources=2, num_relays=2), 3)
    return topology_to_dict(topology)


# (class, document builder, where in the document the class's object sits)
SITES = [
    (rm.ExperimentConfig, config_doc, ()),
    (rm.TopologyParams, config_doc, ("topology",)),
    (rm.PathLossModel, config_doc, ("topology", "path_loss")),
    (rm.SolverConfig, config_doc, ("solvers", 0)),
    (rm.Topology, topology_doc, ()),
    (rm.PathLossModel, topology_doc, ("path_loss",)),
    (rm.SourceNode, topology_doc, ("sources", 1)),
    (rm.RelayNode, topology_doc, ("relays", 0)),
    (rm.RelayRadio, topology_doc, ("relays", 1, "radios", 0)),
]

CASES = [(cls, build, site, f.name) for cls, build, site in SITES
         for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,build,site,key", CASES,
                         ids=[f"{c.__name__}-{'.'.join(map(str, s)) or 'top'}-{k}"
                              for c, _, s, k in CASES])
def test_wrongly_typed_field_is_named(cls, build, site, key):
    hint = typing.get_type_hints(cls)[key]
    # a string for every field, an int for those that take a string
    bad = 5 if str in (hint, *typing.get_args(hint)) else "x"
    doc = build()
    node = doc
    for step in site:
        node = node[step]
    node[key] = bad
    decode = rm.ExperimentConfig.from_dict if build is config_doc else topology_from_dict
    with pytest.raises(ConfigurationError) as err:
        decode(doc)
    expected = (rf"a {hint.__name__} must be a JSON object" if dataclasses.is_dataclass(hint)
                else r"expected \S.*")
    assert re.search(rf"{cls.__name__} key '{key}': {expected}, not {bad!r}$",
                     str(err.value)), str(err.value)
    if hint in (int, bool, str):
        assert f"expected {hint.__name__}, not" in str(err.value)
