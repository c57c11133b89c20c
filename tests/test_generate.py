from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest

from fixednodes import (
    GeneratorConfig,
    StructuredDag,
    graph_to_json,
    label_layers,
    random_layered_dag,
    spread_widths,
    validate,
)
from fixednodes.cli import main
from fixednodes.stems import FlowNetwork
from references import pooled_layered_dag


def test_identical_seeds_identical_graphs():
    config = GeneratorConfig(4, (2, 3, 3, 2), 2, seed=99, edge_count=14)
    assert random_layered_dag(config) == random_layered_dag(config)


def test_different_seeds_usually_differ():
    base = dict(depth=4, widths=(2, 3, 3, 2), leader_count=2, edge_count=14)
    a = random_layered_dag(GeneratorConfig(seed=1, **base))
    b = random_layered_dag(GeneratorConfig(seed=2, **base))
    assert a != b


def test_edge_count_honored():
    config = GeneratorConfig(5, (3, 4, 4, 4, 3), 3, seed=0, edge_count=30)
    assert len(random_layered_dag(config).edges) == 30


def test_widths_reproduced_by_labeling():
    rng = random.Random(7)
    for _ in range(1000):
        leaders = rng.randint(1, 4)
        widths = tuple([leaders] + [rng.randint(1, 5) for _ in range(rng.randint(1, 5))])
        n = sum(widths)
        config = GeneratorConfig(
            depth=len(widths),
            widths=widths,
            leader_count=leaders,
            seed=rng.randrange(2**32),
            edge_count=n - leaders,
            skip_layer_prob=rng.choice([0.0, 0.2]),
        )
        dag = random_layered_dag(config)
        assert validate(dag) == ()
        labeling = label_layers(dag)
        assert tuple(len(layer) for layer in labeling.layers) == widths
        assert labeling.layers[0] == dag.leaders


def test_graph_built_without_id_conversion(monkeypatch):
    """Every id the generator makes is already an ``int``, so it builds the
    graph directly, not through ``StructuredDag.of``; the graph's own type
    and range check still runs on it."""
    config = GeneratorConfig(4, (2, 3, 3, 2), 2, seed=99, edge_count=14, skip_layer_prob=0.3)

    def refused(*args, **kwargs):
        raise AssertionError("the generator converted its ids")

    with monkeypatch.context() as patch:
        patch.setattr(StructuredDag, "of", classmethod(refused))
        dag = random_layered_dag(config)
    assert dag == StructuredDag.of(dag.node_count, dag.edges, dag.leaders)


def test_zero_skip_probability_means_no_skip_edges():
    for seed in range(50):
        config = GeneratorConfig(4, (2, 2, 2, 2), 2, seed=seed, edge_count=11)
        dag = random_layered_dag(config)
        labeling = label_layers(dag)
        assert all(labeling.layer_of[v] - labeling.layer_of[u] == 1 for u, v in dag.edges)


def test_positive_skip_probability_can_skip():
    config = GeneratorConfig(4, (2, 2, 2, 2), 2, seed=1, edge_count=20, skip_layer_prob=0.8)
    dag = random_layered_dag(config)
    labeling = label_layers(dag)
    assert any(labeling.layer_of[v] - labeling.layer_of[u] > 1 for u, v in dag.edges)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(depth=2, widths=(2,), leader_count=2, seed=0, edge_count=3), "widths"),
        (dict(depth=2, widths=(1, 2), leader_count=2, seed=0, edge_count=2), "leaders"),
        (dict(depth=2, widths=(2, 0), leader_count=2, seed=0, edge_count=2), "positive"),
        (dict(depth=0, widths=(), leader_count=0, seed=0, edge_count=0), "widths"),
        (dict(depth=2, widths=(2, 2), leader_count=2, seed=0, edge_count=1), "backbone"),
        (dict(depth=2, widths=(2, 2), leader_count=2, seed=0, edge_count=9), "exceeds"),
        (
            dict(depth=2, widths=(2, 2), leader_count=2, seed=0, edge_count=3, skip_layer_prob=2.0),
            "skip_layer_prob",
        ),
    ],
)
def test_bad_configurations_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GeneratorConfig(**kwargs)


def test_skipless_capacity_excludes_skip_pairs():
    # 1-1-1 tower: two adjacent pairs plus one skip pair; without skipping only
    # two edges fit.
    with pytest.raises(ValueError, match="exceeds"):
        GeneratorConfig(3, (1, 1, 1), 1, seed=0, edge_count=3)
    GeneratorConfig(3, (1, 1, 1), 1, seed=0, edge_count=3, skip_layer_prob=0.5)


_SHAPES = {
    "count": dict(depth=6, widths=(3, 5, 6, 4, 5, 2), leader_count=3, seed=11, edge_count=40),
    "deep": dict(depth=100, widths=spread_widths(100, 10, 4), leader_count=4, seed=13, edge_count=3000),
    "wide": dict(depth=20, widths=spread_widths(20, 50, 25), leader_count=25, seed=14, edge_count=3000),
}
_DIGESTS = {
    ("count", 0.0): "17a0340797f33f49534d4d2a27638bd6bb5da39de56e4cf65f745688ba536575",
    ("count", 0.3): "68a897a367bca2e7a68b7688e7cda4541e3b7097a6db7b9aee3d60430afcddbc",
    ("deep", 0.0): "8b0e99b639acd7445b1afa0797625d12cf91f50c0e9e44e57b269d07b1115c05",
    ("deep", 0.3): "98b7352e9669f74e048f46577ac4dce89627566ed473b5b04f028cd177fbd1fd",
    ("wide", 0.0): "91a608cb6918e758c753d433d62140b5ed4d7d3ed5ca7f705f6d18b2d7a7b1f7",
    ("wide", 0.3): "c6127f217d294563e42771fa05fb5f8b8fb809d609641a0cd97159b924268e74",
}


@pytest.mark.parametrize(
    "shape, skip", list(_DIGESTS), ids=[f"{shape}-skip{skip}" for shape, skip in _DIGESTS]
)
def test_random_stream_is_pinned(shape, skip):
    """The graph JSON of fixed configurations, the bench's deep (depth 100,
    width 10, 4 leaders) and wide (depth 20, width 50, 25 leaders) shapes
    among them: a change to how the generator draws shows here, before it
    changes the graphs the benchmark's references were made from."""
    config = GeneratorConfig(**_SHAPES[shape], skip_layer_prob=skip)
    text = graph_to_json(random_layered_dag(config))
    assert hashlib.sha256(text.encode()).hexdigest() == _DIGESTS[shape, skip]


def test_spread_widths_pins_leaders_and_total():
    assert spread_widths(6, 10, 4) == (4, 11, 11, 11, 11, 12)
    assert spread_widths(3, 2, 1) == (1, 2, 3)
    assert sum(spread_widths(5, 7, 3)) == 35
    with pytest.raises(ValueError, match="two layers"):
        spread_widths(1, 10, 4)
    with pytest.raises(ValueError, match="not enough nodes"):
        spread_widths(3, 1, 2)


def random_config(rng: random.Random) -> GeneratorConfig:
    """Depth 1-6, widths 1-5, skip 0, 0.3 or 1.0, and an edge count, a
    third of them the maximum, which drains both pools."""
    leaders = rng.randint(1, 4)
    widths = (leaders,) + tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 5)))
    shape = dict(
        depth=len(widths),
        widths=widths,
        leader_count=leaders,
        seed=rng.randrange(2**32),
        skip_layer_prob=rng.choice([0.0, 0.3, 1.0]),
    )
    backbone = sum(widths) - leaders
    most = GeneratorConfig(**shape, edge_count=backbone)._max_edges()
    edge_count = rng.choice([most, backbone, rng.randint(backbone, most)])
    return GeneratorConfig(**shape, edge_count=edge_count)


def test_virtual_pools_draw_the_listed_pools_graphs():
    rng = random.Random(21)
    configs = [random_config(rng) for _ in range(1500)]
    for config in configs:
        assert graph_to_json(random_layered_dag(config)) == graph_to_json(pooled_layered_dag(config))
    drained = [c for c in configs if c.edge_count == c._max_edges()]
    assert sum(c.skip_layer_prob > 0.0 and c.depth > 2 for c in drained) >= 100
    assert sum(1 in c.widths[1:] for c in configs) >= 500


@pytest.mark.parametrize("density", [dict(edge_count=3000 + 50)])
def test_no_candidate_pool_is_listed(density):
    """About 2.25M candidate pairs, 3000 backbone edges and few extras: a
    listed pool holds every pair as a tuple (hundreds of MB), the virtual
    one only the positions it left out."""
    config = GeneratorConfig(3, (2, 1500, 1500), 2, seed=3, skip_layer_prob=0.3, **density)
    tracemalloc.start()
    try:
        random_layered_dag(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


_SCALE = {
    "deep-n10000": (
        ("--p", "250", "--width", "40", "--leaders", "40", "--edges", "30000", "--seed", "7"),
        "65238267947520a751444eed64dae83b6a888370fdc54295404760d7bb0aa4a4",
    ),
    "wide-n5000-skip": (
        (
            "--p", "20", "--width", "250", "--leaders", "125", "--edges", "15000",
            "--seed", "7", "--skip-prob", "0.3",
        ),
        "ec2bce1e365c657c40565850ae8c566deb15066f025062926c8557ccb82e05c2",
    ),
}


@pytest.mark.parametrize("name", sorted(_SCALE))
def test_large_generated_graph_is_pinned(name, capsys):
    """``gen`` output well past the bench's sizes: the deep n=10^4 graph draws
    20,000 extras from 249 adjacent layer pairs, and the wide n=5000 skip
    graph about 3,000 of its extras from 171 skipping layer pairs."""
    argv, digest = _SCALE[name]
    assert main(["gen", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# each route's fixed set on the wide n=5000 skip graph, as its length and the
# sha256 of its json.dumps
_WIDE_FIXED = {
    "layered": (148, "dcadf28a8170bf5f01b1d99b425acef38a57e48e10fa779c447cf49e2c399402"),
    "oracle": (133, "f42f77ee0488785f165f0866c8b0963f1a494734dfe77ed0d13b65af65683e9d"),
}


def test_wide_skip_graph_keeps_its_fixed_sets(tmp_path, capsys, monkeypatch):
    """The wide n=5000 skip graph's fixed sets, from ``fixed`` on its pinned
    file.  Skipping edges are where the layered sweep retracts units to the
    source, and on this graph some of its repairs do."""
    retracted = []
    push_path = FlowNetwork._push_path

    def recorded(net, start, last):
        found = push_path(net, start, last)
        if start != net.source and not found:
            retracted.append(start)
        return found

    monkeypatch.setattr(FlowNetwork, "_push_path", recorded)
    graph = tmp_path / "wide.json"
    assert main(["gen", *_SCALE["wide-n5000-skip"][0], "-o", str(graph)]) == 0
    for method, pin in _WIDE_FIXED.items():
        assert main(["fixed", str(graph), "--method", method]) == 0
        fixed = json.loads(capsys.readouterr().out)["methods"][method]["fixed"]
        assert (len(fixed), hashlib.sha256(json.dumps(fixed).encode()).hexdigest()) == pin
    assert retracted
