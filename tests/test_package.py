import numpy as np
import pytest

import symbed
from symbed import (EmbeddingConfig, PageRankConfig, ProtocolConfig, WalkConfig,
                    embed_fixed, planted_partition, random_embedding, run_protocol,
                    save_embedding)


def test_export_list_resolves():
    """Every name in __all__ exists on the package, once, and a star import
    (which raises on a name the package lacks) binds them all."""
    assert len(symbed.__all__) == len(set(symbed.__all__))
    assert [name for name in symbed.__all__ if not hasattr(symbed, name)] == []
    namespace: dict = {}
    exec("from symbed import *", namespace)
    assert set(symbed.__all__) <= namespace.keys()


# Every integer setting: its constructor, field and smallest allowed value.
INT_SETTINGS = [
    pytest.param(make, name, minimum, id=f"{make.__name__}.{name}")
    for make, name, minimum in [
        (EmbeddingConfig, "d", 1), (EmbeddingConfig, "budget_dim", 1),
        (WalkConfig, "num_walks", 1), (WalkConfig, "seed", 0),
        (PageRankConfig, "max_iters", 1), (ProtocolConfig, "shuffles", 1),
        (ProtocolConfig, "repetitions", 1), (ProtocolConfig, "seed", 0)]]


@pytest.mark.parametrize("make, name, minimum", INT_SETTINGS)
@pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_int_setting_becomes_python_int(make, name, minimum, value):
    got = getattr(make(**{name: value}), name)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("make, name, minimum", INT_SETTINGS)
@pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), np.float64(3), "3",
                                   True, np.True_, None])
def test_non_integer_setting_rejected(make, name, minimum, value):
    with pytest.raises(ValueError,
                       match=f"^{name} must be >= {minimum}, an integer, got"):
        make(**{name: value})


@pytest.mark.parametrize("make, name, minimum", INT_SETTINGS)
def test_setting_below_minimum_rejected(make, name, minimum):
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, an "
                                         f"integer, got {minimum - 1}$"):
        make(**{name: np.int64(minimum - 1)})


@pytest.mark.parametrize("value, message", [
    (np.int64(256), None), (np.uint16(0), None), (1, "got 1$"),
    (np.int64(1), "got 1$"), (True, "got True$"), (256.0, "got 256.0$")])
def test_bins_setting(value, message):
    if message is None:
        got = EmbeddingConfig(bins=value).bins
        assert type(got) is int and got == value
    else:
        with pytest.raises(ValueError, match=r"^bins must be 0 \(disabled\) or "
                                             r">= 2, an integer, " + message):
            EmbeddingConfig(bins=value)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 2.5}, "n must be >= 1"), ({"n": True}, "n must be >= 1"),
    ({"dim": 0}, "dim must be >= 1"), ({"dim": np.float64(4)}, "dim must be >= 1"),
    ({"seed": -1}, "seed must be >= 0"), ({"seed": np.int64(-1)}, "seed must be >= 0")])
def test_random_embedding_settings_rejected(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}, an integer, got"):
        random_embedding(**{"n": 5, **kwargs})


def test_numpy_int_settings_write_the_same_files(tmp_path):
    """Settings given as numpy integers save and report byte for byte as the
    same settings given as Python ints."""
    g, labels = planted_partition(40, 2, 0.3, 0.02, seed=1)
    protocol = {"train_fractions": (0.5,), "shuffles": 2, "repetitions": 1,
                "seed": 4}
    out = []
    for to_int in (int, np.int64):
        cfg = EmbeddingConfig(d=to_int(6), bins=to_int(256),
                              walk=WalkConfig(num_walks=to_int(16), seed=to_int(3)),
                              pagerank=PageRankConfig(max_iters=to_int(50)))
        path = tmp_path / to_int.__name__
        save_embedding(embed_fixed(g, cfg), path)
        pcfg = ProtocolConfig(**{k: v if k == "train_fractions" else to_int(v)
                                 for k, v in protocol.items()})
        report = run_protocol(random_embedding(to_int(40), to_int(4), to_int(2)),
                              labels, pcfg)
        out.append([(path / f).read_bytes()
                    for f in ("embedding.npz", "feature_map.tsv", "config.json")]
                   + [report.to_json()])
    assert out[0] == out[1]
