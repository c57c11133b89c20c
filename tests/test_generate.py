from __future__ import annotations

import random

import pytest

from fixednodes import (
    GeneratorConfig,
    label_layers,
    random_layered_dag,
    spread_widths,
    validate,
)


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


def test_edge_probability_mode():
    config = GeneratorConfig(3, (2, 3, 3), 2, seed=5, edge_prob=0.5)
    dag = random_layered_dag(config)
    assert validate(dag) == ()
    assert len(dag.edges) >= dag.node_count - 2


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(depth=2, widths=(2,), leader_count=2, seed=0, edge_count=3), "widths"),
        (dict(depth=2, widths=(1, 2), leader_count=2, seed=0, edge_count=2), "leaders"),
        (dict(depth=2, widths=(2, 2), leader_count=2, seed=0), "edge_count/edge_prob"),
        (
            dict(depth=2, widths=(2, 2), leader_count=2, seed=0, edge_count=2, edge_prob=0.5),
            "edge_count/edge_prob",
        ),
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


def test_spread_widths_pins_leaders_and_total():
    assert spread_widths(6, 10, 4) == (4, 11, 11, 11, 11, 12)
    assert spread_widths(3, 2, 1) == (1, 2, 3)
    assert sum(spread_widths(5, 7, 3)) == 35
    with pytest.raises(ValueError):
        spread_widths(1, 10, 4)
